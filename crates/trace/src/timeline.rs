//! Per-worker timelines: the `slime-par` scheduling observer and the
//! Chrome trace-event export.
//!
//! `slime-par` is a dependency-free leaf and the nondeterminism lint (L9)
//! bans clock reads in numeric crates, so the pool cannot time itself.
//! Instead it reports scheduling *events* through [`slime_par::ParObserver`]
//! and this module — installed once, when tracing is first enabled — owns
//! every clock read:
//!
//! * each published job gets a token plus a publish timestamp, so the gap
//!   between publish and a worker's first claim is its **queue wait**;
//! * each participating thread (`worker 0` is the publisher) brackets its
//!   chunk-claiming loop, producing one [`Slice`] per `(job, worker)` pair
//!   in that thread's ring buffer — bounded memory, latest-wins;
//! * per-worker busy nanoseconds, chunk counts, and job counts accumulate
//!   in a small aggregate map, and chunk-size / grid-size / queue-wait /
//!   straggler-imbalance histograms accumulate under the same lock. All of
//!   it is folded into [`crate::metrics::snapshot`] at read time so
//!   `metrics.json` carries the scheduling story without any per-chunk
//!   traffic through the global metrics store.
//!
//! The export ([`chrome_trace`]) renders the span/event stream plus the
//! worker slices in the Chrome trace-event JSON format, loadable in
//! Perfetto (ui.perfetto.dev) or chrome://tracing: pid 0 holds the trace
//! spans (one lane per recording thread), pid 1 holds one lane per
//! slime-par worker.
//!
//! Observation never perturbs computation: the observer reads clocks and
//! bumps aggregates, but chunk boundaries, claim order, and every numeric
//! path in the pool are untouched — the determinism matrix runs with
//! timelines enabled to prove it.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use slime_json::Value;

use crate::metrics::Histogram;
use crate::{Event, EventKind};

/// Ring capacity per thread: a long run keeps its most recent slices
/// (latest-wins) instead of growing without bound; overwrites are counted
/// in the `trace.slices_dropped` counter.
pub(crate) const MAX_SLICES_PER_THREAD: usize = 1 << 14;

/// One closed per-worker execution slice: worker `worker` spent `dur_ns`
/// claiming and running `chunks` chunks of job `job`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slice {
    /// Observer job token (unique per published job, monotonically rising).
    pub job: u64,
    /// slime-par worker lane: 0 = the publishing thread, 1.. = pool workers.
    pub worker: u32,
    /// Monotonic nanoseconds (same clock as [`crate::now_ns`]).
    pub start_ns: u64,
    /// Busy duration of this worker on this job.
    pub dur_ns: u64,
    /// Chunks this worker claimed.
    pub chunks: u64,
    /// Total chunks in the job's grid.
    pub n_chunks: u32,
    /// Elements per chunk (the caller's `chunk`, clamped to `n`).
    pub chunk_size: u32,
    /// Gap between job publish and this worker's first claim.
    pub queue_wait_ns: u64,
}

// Histogram bounds are fixed constants so two runs of the same binary
// always bucket identically (diffable artifacts, DESIGN.md §10).
const SIZE_BOUNDS: [f64; 12] = [
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
];
const WAIT_BOUNDS: [f64; 12] = [
    100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 1e6, 1e7,
];
const IMB_BOUNDS: [f64; 9] = [1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0];

#[derive(Default)]
struct WorkerAgg {
    busy_ns: u64,
    chunks: u64,
    jobs: u64,
}

struct JobLive {
    publish_ns: u64,
    n_chunks: u32,
    chunk_size: u32,
    /// Busy ns per worker that claimed >= 1 chunk (for the imbalance ratio).
    busies: Vec<u64>,
}

struct State {
    /// Published jobs whose `job_end` has not fired yet, by token.
    jobs: BTreeMap<u64, JobLive>,
    workers: BTreeMap<u32, WorkerAgg>,
    /// Wall nanoseconds spent inside published (non-serial) jobs; the
    /// denominator for per-worker idle time.
    job_wall_ns: u64,
    jobs_timed: u64,
    chunk_size: Histogram,
    grid_chunks: Histogram,
    queue_wait: Histogram,
    imbalance: Histogram,
}

impl State {
    fn new() -> State {
        State {
            jobs: BTreeMap::new(),
            workers: BTreeMap::new(),
            job_wall_ns: 0,
            jobs_timed: 0,
            chunk_size: Histogram::new(&SIZE_BOUNDS),
            grid_chunks: Histogram::new(&SIZE_BOUNDS),
            queue_wait: Histogram::new(&WAIT_BOUNDS),
            imbalance: Histogram::new(&IMB_BOUNDS),
        }
    }
}

static STATE: Mutex<Option<State>> = Mutex::new(None);
static NEXT_JOB: AtomicU64 = AtomicU64::new(1);

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(State::new))
}

/// What a worker needs for its slice, read from the live job at
/// `worker_begin`: the publisher may run `job_end` (dropping the job) before
/// a worker that ran the last chunk reaches `worker_end`, but never before
/// a worker that will claim a chunk has begun.
#[derive(Clone, Copy)]
struct Active {
    token: u64,
    begin_ns: u64,
    queue_wait_ns: u64,
    n_chunks: u32,
    chunk_size: u32,
}

const IDLE: Active = Active {
    token: 0,
    begin_ns: 0,
    queue_wait_ns: 0,
    n_chunks: 0,
    chunk_size: 0,
};

thread_local! {
    /// The published job this thread is executing. A thread works one job
    /// at a time, so one cell suffices.
    static ACTIVE: Cell<Active> = const { Cell::new(IDLE) };
}

struct TimelineObserver;

static TIMELINE_OBSERVER: TimelineObserver = TimelineObserver;

/// Wire the timeline observer into slime-par. Idempotent; called when the
/// trace level first rises above `Off`, so a never-traced process keeps
/// the pool's observer slot empty (and its dispatch path hook-free).
pub(crate) fn install_observer() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| slime_par::set_observer(&TIMELINE_OBSERVER));
}

/// Drop all accumulated timeline state (see [`crate::reset`]).
pub(crate) fn reset_state() {
    *STATE.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

impl slime_par::ParObserver for TimelineObserver {
    fn job_begin(&self, elems: usize, chunk: usize, n_chunks: usize, serial: bool) -> u64 {
        if !crate::enabled() {
            return 0;
        }
        let chunk_size = chunk.min(elems.max(1));
        with_state(|s| {
            s.chunk_size.record(chunk_size as f64);
            s.grid_chunks.record(n_chunks as f64);
        });
        if serial || !crate::events_enabled() {
            return 0;
        }
        let token = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
        let publish_ns = crate::now_ns();
        with_state(|s| {
            s.jobs.insert(
                token,
                JobLive {
                    publish_ns,
                    n_chunks: n_chunks as u32,
                    chunk_size: chunk_size as u32,
                    busies: Vec::new(),
                },
            );
        });
        token
    }

    fn worker_begin(&self, token: u64, _worker: usize) {
        let begin_ns = crate::now_ns();
        let mut active = Active {
            token,
            begin_ns,
            ..IDLE
        };
        with_state(|s| {
            if let Some(j) = s.jobs.get(&token) {
                active.queue_wait_ns = begin_ns.saturating_sub(j.publish_ns);
                active.n_chunks = j.n_chunks;
                active.chunk_size = j.chunk_size;
            }
        });
        let _ = ACTIVE.try_with(|c| c.set(active));
    }

    fn worker_end(&self, token: u64, worker: usize, chunks: u64) {
        let a = ACTIVE.try_with(|c| c.replace(IDLE)).unwrap_or(IDLE);
        if a.token != token || token == 0 {
            return;
        }
        let busy = crate::now_ns().saturating_sub(a.begin_ns);
        let worker = worker as u32;
        with_state(|s| {
            if let Some(j) = s.jobs.get_mut(&token) {
                if chunks > 0 {
                    j.busies.push(busy);
                }
            }
            s.queue_wait.record(a.queue_wait_ns as f64);
            let w = s.workers.entry(worker).or_default();
            w.jobs += 1;
            if chunks > 0 {
                w.busy_ns += busy;
                w.chunks += chunks;
            }
        });
        // A worker that claimed nothing leaves no slice: an empty lane
        // entry would only bury the real schedule in Perfetto.
        if chunks > 0 {
            crate::push_slice(Slice {
                job: token,
                worker,
                start_ns: a.begin_ns,
                dur_ns: busy,
                chunks,
                n_chunks: a.n_chunks,
                chunk_size: a.chunk_size,
                queue_wait_ns: a.queue_wait_ns,
            });
        }
    }

    fn job_end(&self, token: u64) {
        if token == 0 {
            return;
        }
        let end = crate::now_ns();
        with_state(|s| {
            if let Some(j) = s.jobs.remove(&token) {
                s.job_wall_ns += end.saturating_sub(j.publish_ns);
                s.jobs_timed += 1;
                if j.busies.len() >= 2 {
                    let max = j.busies.iter().copied().max().unwrap_or(0);
                    let min = j.busies.iter().copied().min().unwrap_or(0);
                    if min > 0 {
                        s.imbalance.record(max as f64 / min as f64);
                    }
                }
            }
        });
    }
}

/// Fold the timeline aggregates into a metrics snapshot: the four
/// scheduling histograms plus per-worker busy/idle/chunks/jobs gauges.
/// Idle is measured against published-job wall time (`par.job_wall_ns`),
/// i.e. "while some job was in flight, how long was this lane not busy".
pub(crate) fn fold_into(snap: &mut crate::metrics::MetricsSnapshot) {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let Some(s) = guard.as_ref() else { return };
    for (name, h) in [
        ("par.chunk_size", &s.chunk_size),
        ("par.grid_chunks", &s.grid_chunks),
        ("par.queue_wait_ns", &s.queue_wait),
        ("par.job_imbalance", &s.imbalance),
    ] {
        if h.count > 0 {
            snap.hists.insert(name.to_string(), h.clone());
        }
    }
    if s.jobs_timed > 0 {
        snap.gauges
            .insert("par.jobs_timed".into(), s.jobs_timed as f64);
        snap.gauges
            .insert("par.job_wall_ns".into(), s.job_wall_ns as f64);
    }
    for (&w, agg) in &s.workers {
        snap.gauges
            .insert(format!("par.worker.{w}.busy_ns"), agg.busy_ns as f64);
        snap.gauges.insert(
            format!("par.worker.{w}.idle_ns"),
            s.job_wall_ns.saturating_sub(agg.busy_ns) as f64,
        );
        snap.gauges
            .insert(format!("par.worker.{w}.chunks"), agg.chunks as f64);
        snap.gauges
            .insert(format!("par.worker.{w}.jobs"), agg.jobs as f64);
    }
}

fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1000.0)
}

fn meta_row(pid: i64, tid: i64, kind: &str, name: &str) -> Value {
    slime_json::obj([
        ("ph", Value::Str("M".into())),
        ("pid", Value::Int(pid)),
        ("tid", Value::Int(tid)),
        ("name", Value::Str(kind.into())),
        ("args", slime_json::obj([("name", Value::Str(name.into()))])),
    ])
}

fn fields_obj(fields: &[(String, Value)]) -> Value {
    let mut m = BTreeMap::new();
    for (k, v) in fields {
        m.insert(k.clone(), v.clone());
    }
    Value::Obj(m)
}

/// Render a span/event stream plus worker slices as one Chrome trace-event
/// JSON document (the `timeline.json` artifact). Layout:
///
/// * pid 0 — trace spans/events, one lane (tid) per recording thread;
///   spans are `B`/`E` pairs, point events are instants (`ph: "i"`).
/// * pid 1 — slime-par, one lane per worker id; every [`Slice`] is a
///   complete event (`ph: "X"`) named `parallel_for` carrying the job
///   token, chunk counts, chunk size, and queue wait in its args.
///
/// Timestamps are microseconds (fractional) on the [`crate::now_ns`]
/// monotonic clock, as the trace-event format expects.
pub fn chrome_trace(events: &[Event], slices: &[Slice]) -> Value {
    let mut rows: Vec<Value> = Vec::new();
    rows.push(meta_row(0, 0, "process_name", "slime4rec spans"));
    let tids: BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    for &t in &tids {
        rows.push(meta_row(
            0,
            t as i64,
            "thread_name",
            &format!("trace thread {t}"),
        ));
    }
    if !slices.is_empty() {
        rows.push(meta_row(1, 0, "process_name", "slime-par workers"));
        let lanes: BTreeSet<u32> = slices.iter().map(|s| s.worker).collect();
        for &w in &lanes {
            let name = if w == 0 {
                "worker 0 (publisher)".to_string()
            } else {
                format!("worker {w}")
            };
            rows.push(meta_row(1, w as i64, "thread_name", &name));
        }
    }
    for ev in events {
        let ph = match ev.kind {
            EventKind::SpanStart => "B",
            EventKind::SpanEnd => "E",
            EventKind::Point => "i",
        };
        let mut m = BTreeMap::new();
        m.insert("ph".to_string(), Value::Str(ph.into()));
        m.insert("pid".to_string(), Value::Int(0));
        m.insert("tid".to_string(), Value::Int(ev.tid as i64));
        m.insert("name".to_string(), Value::Str(ev.name.into()));
        m.insert("ts".to_string(), us(ev.ts_ns));
        if ev.kind == EventKind::Point {
            // Instant scope: thread-local marker.
            m.insert("s".to_string(), Value::Str("t".into()));
        }
        if !ev.fields.is_empty() {
            m.insert("args".to_string(), fields_obj(&ev.fields));
        }
        rows.push(Value::Obj(m));
    }
    for s in slices {
        rows.push(slime_json::obj([
            ("ph", Value::Str("X".into())),
            ("pid", Value::Int(1)),
            ("tid", Value::Int(s.worker as i64)),
            ("name", Value::Str("parallel_for".into())),
            ("ts", us(s.start_ns)),
            ("dur", us(s.dur_ns)),
            (
                "args",
                slime_json::obj([
                    ("job", Value::Int(s.job as i64)),
                    ("chunks", Value::Int(s.chunks as i64)),
                    ("n_chunks", Value::Int(s.n_chunks as i64)),
                    ("chunk_size", Value::Int(s.chunk_size as i64)),
                    ("queue_wait_us", us(s.queue_wait_ns)),
                ]),
            ),
        ]));
    }
    slime_json::obj([
        ("traceEvents", Value::Arr(rows)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(job: u64, worker: u32) -> Slice {
        Slice {
            job,
            worker,
            start_ns: 1_000 * job,
            dur_ns: 500,
            chunks: 2,
            n_chunks: 8,
            chunk_size: 16,
            queue_wait_ns: 50,
        }
    }

    #[test]
    fn chrome_trace_has_lanes_and_slices() {
        let slices = vec![slice(1, 0), slice(1, 1), slice(2, 1)];
        let doc = chrome_trace(&[], &slices);
        let text = doc.to_compact();
        let parsed = slime_json::parse(&text).expect("valid json");
        let rows = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        let xs: Vec<_> = rows
            .iter()
            .filter(|r| r.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 3);
        assert!(xs
            .iter()
            .all(|r| r.get("pid").and_then(|p| p.as_i64()) == Some(1)));
        // One thread_name metadata row per worker lane.
        let lanes = rows
            .iter()
            .filter(|r| {
                r.get("ph").and_then(|p| p.as_str()) == Some("M")
                    && r.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                    && r.get("pid").and_then(|p| p.as_i64()) == Some(1)
            })
            .count();
        assert_eq!(lanes, 2);
    }

    #[test]
    fn chrome_trace_renders_span_pairs() {
        let mk = |kind, ts| Event {
            ts_ns: ts,
            tid: 3,
            kind,
            name: "epoch",
            id: 9,
            parent: 0,
            fields: Vec::new(),
            dur_ns: None,
        };
        let events = vec![mk(EventKind::SpanStart, 10), mk(EventKind::SpanEnd, 90)];
        let doc = chrome_trace(&events, &[]);
        let rows = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        let phases: Vec<&str> = rows
            .iter()
            .filter_map(|r| r.get("ph").and_then(|p| p.as_str()))
            .filter(|p| *p == "B" || *p == "E")
            .collect();
        assert_eq!(phases, vec!["B", "E"]);
    }
}
