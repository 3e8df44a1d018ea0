//! The serving phase: boot a `slime_serve::Server` around a model's
//! weights, drive it with `slime_serve::load::run_load`, and check every
//! answer it gave against `recommend_top_k_with`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use slime4rec::recommend::{recommend_top_k_with, scratch_stats};
use slime4rec::{Slime4Rec, SlimeConfig};
use slime_nn::Module;
use slime_serve::load::{run_load, LoadConfig};
use slime_serve::{Client, ModelEngine, RecEngine, RecRequest, ServeConfig, Server};
use slime_tensor::StateDict;

use crate::spec::{
    Load, CLOSED_SHARE, SERVE_CLIENTS, SERVE_EXCLUDE, SERVE_HIST_LEN, SERVE_K, SERVE_MAX_BATCH,
    SERVE_WORKERS,
};
use crate::util::{median, ms, quantile, secs};

/// The benchmark's locks guard plain counters and logs; a poisoned one
/// means a benchmark thread already panicked.
pub const POISONED: &str = "a benchmark thread panicked while holding a lock";

/// One request with the answer it got.
pub struct Served {
    pub history: Vec<usize>,
    pub k: usize,
    pub exclude: bool,
    pub answer: Vec<(u32, f32)>,
}

/// What the bench-side engine wrapper saw.
#[derive(Default)]
pub struct EngineLog {
    pub passes: u64,
    pub requests: u64,
    pub engine_ms: f64,
    pub pass_ms: Vec<f64>,
    pub scratch_reuses: u64,
    pub scratch_allocs: u64,
    pub served: Vec<Served>,
}

impl EngineLog {
    /// Counters only (the served answers stay behind for checking).
    fn counters(&self) -> EngineCounters {
        EngineCounters {
            passes: self.passes,
            requests: self.requests,
            engine_ms: self.engine_ms,
        }
    }
}

#[derive(Clone, Copy, Default)]
pub struct EngineCounters {
    pub passes: u64,
    pub requests: u64,
    pub engine_ms: f64,
}

/// `ModelEngine` wrapped to time each pass and keep each answer. It runs
/// on the batcher thread, so the thread-local `scratch_stats` it reads
/// are the serving path's own.
struct RecordingEngine {
    inner: ModelEngine<Slime4Rec>,
    log: Arc<Mutex<EngineLog>>,
}

impl RecEngine for RecordingEngine {
    fn vocab(&self) -> usize {
        self.inner.vocab()
    }

    fn recommend(&mut self, reqs: &[&RecRequest]) -> Vec<Vec<(u32, f32)>> {
        let s0 = scratch_stats();
        let t0 = Instant::now();
        let out = self.inner.recommend(reqs);
        let pass = ms(t0);
        let s1 = scratch_stats();
        let mut log = self.log.lock().expect(POISONED);
        log.passes += 1;
        log.requests += reqs.len() as u64;
        log.engine_ms += pass;
        log.pass_ms.push(pass);
        log.scratch_reuses += s1.reuses - s0.reuses;
        log.scratch_allocs += s1.allocs - s0.allocs;
        for (r, a) in reqs.iter().zip(&out) {
            log.served.push(Served {
                history: r.history.clone(),
                k: r.k,
                exclude: r.exclude,
                answer: a.clone(),
            });
        }
        out
    }
}

/// A booted daemon with its set-up timings.
pub struct Boot {
    pub server: Server,
    pub log: Arc<Mutex<EngineLog>>,
    /// `Slime4Rec::new` + `load_state_dict` on the batcher thread.
    pub build_s: f64,
    /// `Server::start` wall time, the model build included.
    pub start_s: f64,
    /// The first answered request over the wire.
    pub first_ms: f64,
    pub first_history: Vec<usize>,
    pub first_answer: Vec<(u32, f32)>,
}

impl Boot {
    /// Boot time outside the model build: threads, the engine's probe
    /// pass and the first request.
    pub fn boot_s(&self) -> f64 {
        self.start_s - self.build_s + self.first_ms / 1e3
    }
}

/// Boot a one-worker exact-scoring daemon around `sd` and answer one
/// request through a real client.
pub fn boot(cfg: &SlimeConfig, sd: StateDict, first_history: Vec<usize>) -> Result<Boot, String> {
    let log = Arc::new(Mutex::new(EngineLog::default()));
    let build = Arc::new(Mutex::new(0.0f64));
    let t0 = Instant::now();
    let server = {
        let (cfg, log, build) = (cfg.clone(), Arc::clone(&log), Arc::clone(&build));
        Server::start(
            ServeConfig {
                workers: SERVE_WORKERS,
                max_batch: SERVE_MAX_BATCH,
                ..ServeConfig::default()
            },
            move || {
                let t0 = Instant::now();
                let model = Slime4Rec::new(cfg);
                model.load_state_dict(&sd);
                *build.lock().expect(POISONED) = secs(t0);
                Box::new(RecordingEngine {
                    inner: ModelEngine::new(model, None),
                    log,
                }) as Box<dyn RecEngine>
            },
        )
        .map_err(|e| format!("daemon failed to boot: {e}"))?
    };
    let start_s = secs(t0);
    let t0 = Instant::now();
    let first_answer = Client::connect(server.addr())
        .map_err(|e| format!("connect: {e}"))?
        .recommend(&first_history, SERVE_K, SERVE_EXCLUDE)
        .map_err(|e| format!("first request failed: {e:?}"))?;
    let first_ms = ms(t0);
    let build_s = *build.lock().expect(POISONED);
    Ok(Boot {
        server,
        log,
        build_s,
        start_s,
        first_ms,
        first_history,
        first_answer,
    })
}

/// Outcome of the open- and closed-loop phases.
pub struct LoadOutcome {
    /// p50 / p90 over every open-loop latency of the recorded windows.
    pub open_p50_ms: f64,
    pub open_p90_ms: f64,
    pub open_windows: usize,
    /// Every open-loop latency, measured from the scheduled send.
    pub open_lat_ms: Vec<f64>,
    pub open_sent: u64,
    pub open_ok: u64,
    pub open_failed: u64,
    pub open_wall_s: f64,
    /// Median over windows of how long a window outlasted its schedule.
    pub open_overrun_ms: f64,
    pub open_engine: EngineCounters,
    pub open_pass_p50_ms: f64,
    /// Closed-loop throughput: answers over the summed wall time of the
    /// rounds.
    pub closed_qps: f64,
    pub closed_rounds: usize,
    pub closed_ok: u64,
    pub closed_sent: u64,
    pub closed_failed: u64,
    pub closed_wall_s: f64,
    pub closed_engine: EngineCounters,
    pub closed_batches: u64,
    pub closed_batched: u64,
}

/// Requests each connection sends per open-loop window. The open loop runs
/// as back-to-back windows at the same rate, after one unrecorded warm-up
/// window: the first requests after training or boot pay one-off costs
/// (thread start-up, cold caches) that are not serving latency.
const OPEN_WINDOW_PER_CLIENT: usize = 25;
/// Histories the wire check sends.
pub const WIRE_CHECKS: usize = 48;
/// Requests each connection sends per closed-loop round.
const CLOSED_ROUND_PER_CLIENT: usize = 32;

fn load_cfg(b: &Boot, seed: u64, per_client: usize, qps: f64) -> LoadConfig {
    LoadConfig {
        addr: b.server.addr(),
        clients: SERVE_CLIENTS,
        requests_per_client: per_client,
        target_qps: qps,
        k: SERVE_K,
        exclude: SERVE_EXCLUDE,
        vocab: b.server.vocab(),
        hist_len: SERVE_HIST_LEN,
        seed,
    }
}

fn engine_counters(b: &Boot) -> EngineCounters {
    b.log.lock().expect(POISONED).counters()
}

fn delta(a: EngineCounters, b: EngineCounters) -> EngineCounters {
    EngineCounters {
        passes: b.passes - a.passes,
        requests: b.requests - a.requests,
        engine_ms: b.engine_ms - a.engine_ms,
    }
}

fn add(a: EngineCounters, d: EngineCounters) -> EngineCounters {
    EngineCounters {
        passes: a.passes + d.passes,
        requests: a.requests + d.requests,
        engine_ms: a.engine_ms + d.engine_ms,
    }
}

/// Open-loop windows at the workload's fixed rate, each followed by
/// closed-loop rounds over the same number of connections, so that both
/// phases are spread over the whole serving time: the open loop gets its
/// share of `seconds`, the closed loop `CLOSED_SHARE`, paced evenly across
/// the windows. Host speed on a shared VM swings between windows and
/// between rounds, so latency is read over every recorded request and
/// capacity over every round: the quietest window or the fastest round
/// would read a burst rather than the run.
pub fn drive(b: &Boot, load: &Load, seconds: f64, seed: u64) -> Result<LoadOutcome, String> {
    let per_window = OPEN_WINDOW_PER_CLIENT * SERVE_CLIENTS;
    let windows = ((load.open_qps * load.open_share * seconds) as usize / per_window).max(3);
    let schedule_s = (per_window - 1) as f64 / load.open_qps;
    let closed_budget = CLOSED_SHARE * seconds;
    let open_cfg = |window: u64| {
        load_cfg(
            b,
            seed ^ (window << 40),
            OPEN_WINDOW_PER_CLIENT,
            load.open_qps,
        )
    };
    let warm = run_load(&open_cfg(0)).map_err(|e| format!("open loop warm-up: {e:?}"))?;
    let (mut overruns, mut all) = (vec![], vec![]);
    // Warm-up requests count as attempted (and failed, if they fail), but
    // not towards latency, goodput or the limit-miss tally.
    let (mut sent, mut ok, mut failed, mut wall) =
        (warm.sent, 0u64, warm.rejected + warm.errors, 0.0);
    let mut open_engine = EngineCounters::default();
    let mut open_pass_ms = Vec::new();
    let (mut closed_ok, mut closed_sent, mut closed_failed) = (0u64, 0u64, 0u64);
    let (mut closed_wall_s, mut closed_rounds) = (0.0, 0u64);
    let mut closed_engine = EngineCounters::default();
    let (mut closed_batches, mut closed_batched) = (0u64, 0u64);
    for window in 1..=windows as u64 {
        let c0 = engine_counters(b);
        let r = run_load(&open_cfg(window)).map_err(|e| format!("open loop: {e:?}"))?;
        let c1 = engine_counters(b);
        all.extend(r.latencies_us.iter().map(|&us| us as f64 / 1e3));
        overruns.push((r.wall_s - schedule_s) * 1e3);
        sent += r.sent;
        ok += r.ok;
        failed += r.rejected + r.errors;
        wall += r.wall_s;
        open_engine = add(open_engine, delta(c0, c1));
        // One `pass_ms` entry per pass, so pass counts index it.
        open_pass_ms.extend_from_slice(
            &b.log.lock().expect(POISONED).pass_ms[c0.passes as usize..c1.passes as usize],
        );

        // Closed-loop rounds until this window's share of the closed
        // budget is spent; each round draws fresh histories.
        let due = closed_budget * window as f64 / windows as f64;
        while closed_wall_s < due {
            closed_rounds += 1;
            let (c2, s0) = (engine_counters(b), b.server.stats());
            let t0 = Instant::now();
            let r = run_load(&load_cfg(
                b,
                seed ^ (closed_rounds << 32),
                CLOSED_ROUND_PER_CLIENT,
                0.0,
            ))
            .map_err(|e| format!("closed loop: {e:?}"))?;
            closed_wall_s += secs(t0);
            let (c3, s1) = (engine_counters(b), b.server.stats());
            closed_engine = add(closed_engine, delta(c2, c3));
            closed_batches += s1.batches - s0.batches;
            closed_batched += s1.batched_requests - s0.batched_requests;
            closed_ok += r.ok;
            closed_sent += r.sent;
            closed_failed += r.rejected + r.errors;
        }
    }
    Ok(LoadOutcome {
        open_p50_ms: quantile(&all, 0.5),
        open_p90_ms: quantile(&all, 0.9),
        open_windows: windows,
        open_lat_ms: all,
        open_sent: sent,
        open_ok: ok,
        open_failed: failed,
        open_wall_s: wall,
        open_overrun_ms: median(&overruns),
        open_engine,
        open_pass_p50_ms: median(&open_pass_ms),
        closed_qps: closed_ok as f64 / closed_wall_s,
        closed_rounds: closed_rounds as usize,
        closed_ok,
        closed_sent,
        closed_failed,
        closed_wall_s,
        closed_engine,
        closed_batches,
        closed_batched,
    })
}

/// Answers as a client received them over the wire, with the load that
/// ran beside them.
pub struct WireCheck {
    pub answers: Vec<Served>,
    pub load_sent: u64,
    pub load_failed: u64,
    pub load_rounds: u64,
}

/// Send `histories` one by one on a connection of their own, alternating
/// the exclude flag, while closed-loop `run_load` rounds keep the batcher
/// gathering from the other connections. Untimed: it checks what the
/// batcher's response routing and the protocol deliver under concurrency,
/// which the engine-side log cannot see.
pub fn wire_check(b: &Boot, histories: &[Vec<usize>], seed: u64) -> Result<WireCheck, String> {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let checker = scope.spawn(|| {
            let answers = Client::connect(b.server.addr())
                .map_err(|e| format!("connect: {e}"))
                .and_then(|mut client| {
                    histories
                        .iter()
                        .enumerate()
                        .map(|(i, h)| {
                            let exclude = i % 2 == 0;
                            client
                                .recommend(h, SERVE_K, exclude)
                                .map(|answer| Served {
                                    history: h.clone(),
                                    k: SERVE_K,
                                    exclude,
                                    answer,
                                })
                                .map_err(|e| format!("wire-check request failed: {e:?}"))
                        })
                        .collect()
                });
            done.store(true, Ordering::Release);
            answers
        });
        let (mut load_sent, mut load_failed, mut load_rounds) = (0u64, 0u64, 0u64);
        let mut load = Ok(());
        // At least one round, so the checked requests always share the
        // batcher with the load.
        loop {
            load_rounds += 1;
            match run_load(&load_cfg(
                b,
                seed ^ (load_rounds << 48),
                CLOSED_ROUND_PER_CLIENT,
                0.0,
            )) {
                Ok(r) => {
                    load_sent += r.sent;
                    load_failed += r.rejected + r.errors;
                }
                Err(e) => load = Err(format!("wire-check load: {e:?}")),
            }
            if load.is_err() || done.load(Ordering::Acquire) {
                break;
            }
        }
        let answers = checker
            .join()
            .map_err(|_| "the wire-check client panicked".to_string())??;
        load?;
        Ok(WireCheck {
            answers,
            load_sent,
            load_failed,
            load_rounds,
        })
    })
}

/// Distinct, deterministic histories for the wire check: training-sequence
/// tails (up to `SERVE_HIST_LEN` items, so some are ragged) of `n` users
/// spread over the dataset.
pub fn check_histories(ds: &slime_data::SeqDataset, n: usize) -> Vec<Vec<usize>> {
    let users = ds.num_users();
    (0..n.min(users))
        .map(|i| {
            let seq = ds.train_seq(i * users / n.min(users));
            seq[seq.len().saturating_sub(SERVE_HIST_LEN)..].to_vec()
        })
        .collect()
}

/// Recompute every served answer with `recommend_top_k_with` on `model`;
/// returns how many differ (item or score bits).
pub fn mismatches(model: &Slime4Rec, served: &[Served]) -> usize {
    served
        .iter()
        .filter(|s| {
            let want = recommend_top_k_with(model, &s.history, s.k, s.exclude, None);
            !same_answer(&s.answer, &want)
        })
        .count()
}

pub fn same_answer(got: &[(u32, f32)], want: &[slime4rec::recommend::Recommendation]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(&(item, score), w)| {
            item as usize == w.item && score.to_bits() == w.score.to_bits()
        })
}

/// A deterministic first request: the first test user's history tail.
pub fn first_history(ds: &slime_data::SeqDataset) -> Vec<usize> {
    let seq = ds.train_seq(0);
    seq[seq.len().saturating_sub(SERVE_HIST_LEN)..].to_vec()
}
