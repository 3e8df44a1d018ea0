//! Counter snapshots and the pool observer for the traced pass.
//!
//! Counters are read only through snapshot APIs: `slime_par::pool_stats`,
//! `slime_tensor::pool::stats`, `slime_tensor::nodes_allocated` and
//! `slime_fft::plan_cache_stats`. The observer owns every clock read the
//! pool's scheduling metrics need.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use slime_par::ParObserver;

/// One reading of every engine counter the traced pass reports.
#[derive(Clone, Copy)]
pub struct Counters {
    nodes: u64,
    pool_hits: u64,
    pool_misses: u64,
    jobs_published: u64,
    jobs_serial: u64,
    chunks: u64,
    plan_hits: u64,
    plan_misses: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let par = slime_par::pool_stats();
        let pool = slime_tensor::pool::stats();
        let plans = slime_fft::plan_cache_stats();
        Counters {
            nodes: slime_tensor::nodes_allocated(),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            jobs_published: par.jobs_published,
            jobs_serial: par.jobs_serial,
            chunks: par.chunks_executed,
            plan_hits: plans.hits,
            plan_misses: plans.misses,
        }
    }
}

/// Per-step counts between two readings taken around `steps` steps.
pub struct StepCounts {
    pub nodes_per_step: f64,
    pub pool_hit_rate: f64,
    pub jobs_per_step: f64,
    pub serial_share: f64,
    pub chunks_per_job: f64,
    pub plan_lookups_per_step: f64,
    pub plan_hit_rate: f64,
}

pub fn step_counts(a: Counters, b: Counters, steps: usize) -> StepCounts {
    let per = |x: u64| x as f64 / steps.max(1) as f64;
    let ratio = |x: u64, y: u64| {
        if y == 0 {
            f64::NAN
        } else {
            x as f64 / y as f64
        }
    };
    let published = b.jobs_published - a.jobs_published;
    let serial = b.jobs_serial - a.jobs_serial;
    let hits = b.pool_hits - a.pool_hits;
    let misses = b.pool_misses - a.pool_misses;
    let plan_hits = b.plan_hits - a.plan_hits;
    let plan_misses = b.plan_misses - a.plan_misses;
    StepCounts {
        nodes_per_step: per(b.nodes - a.nodes),
        pool_hit_rate: ratio(hits, hits + misses),
        jobs_per_step: per(published + serial),
        serial_share: ratio(serial, published + serial),
        chunks_per_job: ratio(b.chunks - a.chunks, published + serial),
        plan_lookups_per_step: per(plan_hits + plan_misses),
        plan_hit_rate: ratio(plan_hits, plan_hits + plan_misses),
    }
}

const MAX_WORKERS: usize = 64;
const JOB_SLOTS: usize = 256;
/// Queue-wait samples kept (the traced pass stays far below this).
const MAX_WAITS: usize = 1 << 20;

/// Times pool workers' busy spans and the wait between a job's
/// publication and each pool worker joining it.
pub struct PoolObserver {
    epoch: Instant,
    next_token: AtomicU64,
    job_start_ns: [AtomicU64; JOB_SLOTS],
    worker_start_ns: [AtomicU64; MAX_WORKERS],
    busy_ns: AtomicU64,
    waits_ns: Mutex<Vec<u64>>,
}

impl PoolObserver {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time pool workers (not the publishing thread) spent inside jobs, ns.
    pub fn helper_busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Drain the queue-wait samples (µs).
    pub fn take_waits_us(&self) -> Vec<f64> {
        let mut w = self.waits_ns.lock().expect("observer hooks never panic");
        w.drain(..).map(|ns| ns as f64 / 1e3).collect()
    }
}

impl ParObserver for PoolObserver {
    fn job_begin(&self, _elems: usize, _chunk: usize, _n_chunks: usize, serial: bool) -> u64 {
        if serial {
            return 0;
        }
        let token = self.next_token.fetch_add(1, Ordering::Relaxed) + 1;
        // Relaxed suffices: this runs before the pool publishes the job,
        // and the pool's own publish/join synchronisation orders it before
        // any worker reads the slot in `worker_begin`.
        self.job_start_ns[token as usize % JOB_SLOTS].store(self.now_ns(), Ordering::Relaxed);
        token
    }

    fn worker_begin(&self, token: u64, worker: usize) {
        let now = self.now_ns();
        if let Some(slot) = self.worker_start_ns.get(worker) {
            slot.store(now, Ordering::Relaxed);
        }
        if worker > 0 {
            let published = self.job_start_ns[token as usize % JOB_SLOTS].load(Ordering::Relaxed);
            // Observer hooks must not panic, so this recovers a poisoned
            // lock; every update is a single push, which leaves it valid.
            let mut w = self.waits_ns.lock().unwrap_or_else(|e| e.into_inner());
            if w.len() < MAX_WAITS {
                w.push(now.saturating_sub(published));
            }
        }
    }

    fn worker_end(&self, _token: u64, worker: usize, _chunks: u64) {
        if worker == 0 {
            return;
        }
        if let Some(slot) = self.worker_start_ns.get(worker) {
            let busy = self.now_ns().saturating_sub(slot.load(Ordering::Relaxed));
            self.busy_ns.fetch_add(busy, Ordering::Relaxed);
        }
    }

    fn job_end(&self, _token: u64) {}
}

static OBSERVER: OnceLock<PoolObserver> = OnceLock::new();

/// Install the observer (first call) and return it.
pub fn observer() -> &'static PoolObserver {
    let obs = OBSERVER.get_or_init(|| PoolObserver {
        epoch: Instant::now(),
        next_token: AtomicU64::new(0),
        job_start_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        worker_start_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        busy_ns: AtomicU64::new(0),
        waits_ns: Mutex::new(Vec::new()),
    });
    slime_par::set_observer(obs);
    obs
}
