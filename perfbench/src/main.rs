//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-paper|serve-catalog> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload trains a SLIME4Rec model through `train_model`, replays
//! the same steps through a bench-side step loop, evaluates it with
//! `evaluate`, and serves it from a one-worker `slime_serve::Server` under
//! `run_load`. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the same pipeline with per-layer spans, counters and probes and prints
//! the per-layer metrics. The last stdout line is the result object;
//! context (sample counts, tails, formulas, failed checks) goes to stderr.
//! See `perfbench/README.md`.

mod obs;
mod probes;
mod serve;
mod spec;
mod train;
mod util;

use std::path::{Path, PathBuf};
use std::time::Instant;

use slime4rec::recommend::recommend_top_k_with;
use slime4rec::{train_model, NextItemModel, Slime4Rec, ViewStrategy};
use slime_metrics::MetricSet;
use slime_nn::{Module, TrainContext};
use slime_tensor::StateDict;

use crate::spec::{
    Workload, BATCH, LIMIT_MS, SERVE_EXCLUDE, SERVE_K, SETUP_REPEATS, TIMING_EPOCHS,
    TRAIN_SETUP_REPEATS,
};
use crate::train::{Setup, EVAL_PASSES};
use crate::util::{median, quantile, secs, Args, Report};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "ok_ratio",
    "train_examples_per_s",
    "step_ms_p50",
    "step_ms_p90",
    "eval_users_per_s",
    "ndcg_at_10",
    "hr_at_10",
    "request_ms_p50",
    "goodput_per_s",
    "capacity_qps",
];

/// Per-layer metrics, printed with `--trace 1`. `request_ms_p90` sits here,
/// unbounded: on `train-paper`'s sub-millisecond requests its run-to-run
/// spread on a shared 2-core VM is far wider than any usable bound.
const PER_LAYER: &[&str] = &[
    "request_ms_p90",
    "data.batch_ms",
    "model.encode_ms",
    "model.score_ms",
    "loss.ms",
    "tensor.backward_ms",
    "optim.adam_ms",
    "tensor.teardown_ms",
    "step.unattributed_ms",
    "step.coverage",
    "step.traced_ms_p50",
    "trace.overhead_ratio",
    "probe.spectral_fwd_bwd_ms",
    "probe.spectral_gflops",
    "probe.spectral_ceiling_share",
    "probe.block_fwd_ms",
    "probe.block_gflops",
    "probe.block_ceiling_share",
    "probe.score_ce_fwd_bwd_ms",
    "probe.score_gflops",
    "probe.score_ceiling_share",
    "eval.encode_ms",
    "eval.score_ms",
    "eval.rank_ms",
    "tensor.nodes_per_step",
    "pool.hit_rate",
    "par.jobs_per_step",
    "par.parallel_share",
    "par.chunks_per_job",
    "par.worker_busy_share",
    "par.queue_wait_us_p90",
    "json.ckpt_load_s",
    "json.ckpt_mb_per_s",
    "model.build_s",
    "serve.boot_s",
    "serve.engine_ms_per_pass",
    "serve.non_engine_ms",
    "serve.engine_busy_share",
    "serve.batch_occupancy",
    "serve.max_queue_depth",
    "serve.accepted_share",
    "recommend.scratch_reuse_ratio",
    "load.gen_overrun_ms",
    "probe.recommend_encode_ms",
    "probe.recommend_score_select_ms",
    "probe.serve_score_gbytes_per_s",
    "probe.serve_score_bandwidth_share",
    "probe.protocol_us",
    "machine.stream_gbytes_per_s",
    "machine.fma_gflops",
];

/// Scratch space inside the checkout for the checkpoint file.
const WORK_DIR: &str = ".bench_work";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv)?;
    let w = spec::find(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?} (expected one of {names:?})",
            args.workload
        )
    })?;
    let mut rep = Report::default();
    let run = Run {
        w,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        threads: slime_par::num_threads(),
        ckpt: PathBuf::from(WORK_DIR).join(format!("{}-{}.json", w.name, args.seed)),
    };
    let out = run.execute(&mut rep);
    let _ = std::fs::remove_file(&run.ckpt);
    out?;
    rep.set("peak_rss_mb", util::peak_rss_mb()?, "MB");
    for line in &rep.notes {
        eprintln!("  {line}");
    }
    for line in &rep.check_failures {
        eprintln!("CHECK FAILED: {line}");
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for name in names {
        let (v, unit) = rep.metrics[*name];
        eprintln!("  {name:<34} {v:>14.6} {unit}");
    }
    rep.to_json(names)
}

struct Run {
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
    ckpt: PathBuf,
}

impl Run {
    fn execute(&self, rep: &mut Report) -> Result<(), String> {
        std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
        let ceilings = self.traced.then(|| probes::Ceilings::measure(rep));

        // Set-up. Training workloads time data, index, model and eval
        // batches at three points of the run; the serving workload prepares
        // its checkpoint untimed here and times load-and-boot below.
        let mut setup_s = Vec::new();
        self.time_training_setup(&mut setup_s);
        let s = train::setup(&self.w, self.seed);
        let model = Slime4Rec::new(s.cfg.clone());
        rep.note(format!(
            "{}: {} users, {} items, {} train examples, {} test users, {} threads",
            self.w.name,
            s.ds.num_users(),
            s.ds.num_items(),
            s.ts.len(),
            s.test_users(),
            self.threads
        ));

        let mut eval_ms = Vec::new();
        let metrics = self.training(&s, &model, rep, ceilings.as_ref(), &mut eval_ms)?;
        self.time_training_setup(&mut setup_s);

        // The serving workload boots from a checkpoint; the traced run of
        // every workload also checks and times the checkpoint round trip.
        let first = serve::first_history(&s.ds);
        if self.w.setup_is_boot || self.traced {
            model
                .state_dict()
                .save(&self.ckpt)
                .map_err(|e| format!("save checkpoint: {e}"))?;
        }
        let loaded = if self.traced {
            let (sd, load_s) = load_checkpoint(&self.ckpt)?;
            self.check_loaded_scores(&s, &model, &sd, rep);
            Some((sd, load_s))
        } else {
            None
        };
        // The serving workload's set-up is timed at two points: before the
        // load (the last boot stays up for it) and after it.
        let mut boots = BootTimes::default();
        let boot = if self.w.setup_is_boot {
            for _ in 1..SETUP_REPEATS {
                let b = self.timed_boot(&s, &first, &mut boots)?;
                check_first_answer(&b, &model, rep);
                b.server.shutdown();
            }
            self.timed_boot(&s, &first, &mut boots)?
        } else {
            let sd = match loaded {
                Some((sd, load_s)) => {
                    self.record_checkpoint(load_s, rep)?;
                    sd
                }
                None => model.state_dict(),
            };
            let b = serve::boot(&s.cfg, sd, first.clone())?;
            rep.set("model.build_s", b.build_s, "s");
            rep.set("serve.boot_s", b.boot_s(), "s");
            b
        };
        let checked = serve::check_histories(&s.ds, serve::WIRE_CHECKS);
        self.serving(boot, &model, &checked, rep)?;
        if let Some(c) = &ceilings {
            slime_par::set_threads(1);
            probes::serve_probes(&model, &first, SERVE_K, c, rep);
            slime_par::set_threads(self.threads);
        }
        // Evaluation and set-up are timed again at the end of the run: host
        // speed on a shared VM shifts in regimes lasting seconds, and
        // samples taken in one burst would all land in one regime.
        more_evals(&model, &s, &metrics, EVAL_PASSES, &mut eval_ms, rep);
        // All passes together: single passes swing by ±15% within a run,
        // passes at one point of the run move together, and the fastest
        // pass reads a burst rather than the run.
        rep.set(
            "eval_users_per_s",
            (s.test_users() * eval_ms.len()) as f64 / (eval_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        rep.note(format!("evaluate passes: {eval_ms:.1?} ms"));
        self.time_training_setup(&mut setup_s);
        if self.w.setup_is_boot {
            for _ in 0..SETUP_REPEATS {
                let b = self.timed_boot(&s, &first, &mut boots)?;
                check_first_answer(&b, &model, rep);
                b.server.shutdown();
            }
            rep.set("setup_s", median(&boots.total), "s");
            self.record_checkpoint(median(&boots.load), rep)?;
            rep.set("model.build_s", median(&boots.build), "s");
            rep.set("serve.boot_s", median(&boots.boot), "s");
            rep.note(format!(
                "set-up × {} before and after the load: total {:.3?} s, checkpoint load {:.3?} s",
                boots.total.len(),
                boots.total,
                boots.load
            ));
        } else {
            rep.set("setup_s", median(&setup_s), "s");
            rep.note(format!(
                "set-up × {} over three points of the run: {:.2?} ms",
                setup_s.len(),
                setup_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()
            ));
        }
        let ok = rep.attempted - rep.failed - rep.limit_misses;
        rep.set("ok_ratio", ok as f64 / rep.attempted.max(1) as f64, "ratio");
        Ok(())
    }

    /// A training workload's set-up (data, `TrainSet`, `SameTargetIndex`,
    /// model and eval batches), timed `TRAIN_SETUP_REPEATS` times and
    /// dropped. Called at the start, after training and at the end of the
    /// run.
    fn time_training_setup(&self, into: &mut Vec<f64>) {
        if self.w.setup_is_boot {
            return;
        }
        for _ in 0..TRAIN_SETUP_REPEATS {
            let t0 = Instant::now();
            let s = train::setup(&self.w, self.seed);
            let model = Slime4Rec::new(s.cfg.clone());
            into.push(secs(t0));
            drop((s, model));
        }
    }

    /// Timed `train_model`, the step loop (plain, and traced with
    /// `--trace 1`), and evaluation after the first `train_model` call and
    /// after the second, whose pass times go to `eval_ms`.
    fn training(
        &self,
        s: &Setup,
        model: &Slime4Rec,
        rep: &mut Report,
        ceilings: Option<&probes::Ceilings>,
        eval_ms: &mut Vec<f64>,
    ) -> Result<MetricSet, String> {
        let timed_train = |m: &Slime4Rec| {
            let t0 = Instant::now();
            let report = train_model(
                m,
                &s.ds,
                &s.ts,
                &s.tc,
                s.cfg.lambda,
                s.cfg.temperature,
                ViewStrategy::Supervised(&s.index),
            );
            (report, secs(t0))
        };
        let (report, train_s) = timed_train(model);
        let examples = s.ts.len() * s.tc.epochs;
        let metrics = train::eval_timed(model, s, eval_ms);
        more_evals(model, s, &metrics, EVAL_PASSES - 1, eval_ms, rep);

        let plain_model = Slime4Rec::new(s.cfg.clone());
        let plain = train::step_loop(&plain_model, s, TIMING_EPOCHS, false);
        drop(plain_model);
        // `train_model` again on a fresh model, the step loop's seconds
        // after the first call. The faster call is reported (host steal
        // only ever adds time), and both must train to the same weights.
        let again = Slime4Rec::new(s.cfg.clone());
        let (_, again_s) = timed_train(&again);
        rep.check(
            train::same_parameters(&again.state_dict(), &model.state_dict()),
            || "two train_model calls with one seed trained different weights".into(),
        );
        drop(again);
        rep.set(
            "train_examples_per_s",
            examples as f64 / train_s.min(again_s),
            "1/s",
        );
        let steps = plain.step_ms.len();
        rep.attempted += steps as u64;
        rep.failed += plain.losses.iter().filter(|l| !l.is_finite()).count() as u64;
        rep.set("step_ms_p50", median(&plain.step_ms), "ms");
        rep.set("step_ms_p90", quantile(&plain.step_ms, 0.9), "ms");
        rep.note(format!(
            "train_model: {examples} examples in {train_s:.3} s, then {again_s:.3} s; step loop: {steps} steps, \
             p50 {:.2} ms, p90 {:.2} ms, max {:.2} ms; epoch losses {:?}",
            median(&plain.step_ms),
            quantile(&plain.step_ms, 0.9),
            quantile(&plain.step_ms, 1.0),
            report.epoch_losses
        ));
        let checked = report.epoch_losses.len();
        rep.check(
            bits_eq(&plain.epoch_losses[..checked], &report.epoch_losses),
            || {
                format!(
                    "step-loop epoch losses {:?} != train_model's {:?}",
                    plain.epoch_losses, report.epoch_losses
                )
            },
        );
        let after = plain.params_after_train_epochs.as_ref();
        rep.check(
            after.is_some_and(|p| train::same_parameters(p, &model.state_dict())),
            || "step-loop parameters differ from train_model's".into(),
        );

        more_evals(model, s, &metrics, EVAL_PASSES, eval_ms, rep);
        rep.set("ndcg_at_10", metrics.ndcg(10), "ratio");
        rep.set("hr_at_10", metrics.hr(10), "ratio");
        rep.note(format!(
            "evaluate: {} users; {}",
            s.test_users(),
            metrics.render()
        ));

        let Some(c) = ceilings else {
            return Ok(metrics);
        };
        let traced_model = Slime4Rec::new(s.cfg.clone());
        let observer = obs::observer();
        let _ = observer.take_waits_us();
        let busy0 = observer.helper_busy_ns();
        let k0 = obs::Counters::read();
        let t0 = Instant::now();
        let traced = train::step_loop(&traced_model, s, TIMING_EPOCHS, true);
        let window_s = secs(t0);
        let k1 = obs::Counters::read();
        let helper_busy_s = (observer.helper_busy_ns() - busy0) as f64 / 1e9;
        let waits = observer.take_waits_us();
        rep.check(bits_eq(&traced.losses, &plain.losses), || {
            "traced step-loop losses differ from the plain loop's".into()
        });
        let per_step = |ms: f64| ms / steps as f64;
        let layers = &traced.spans.total_ms;
        let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
        let data_ms = layer("data.batch") + traced.epoch_batches_ms;
        let wall_ms: f64 = traced.step_ms.iter().sum::<f64>() + traced.epoch_batches_ms;
        let attributed = data_ms
            + [
                "model.encode",
                "model.score",
                "loss",
                "tensor.backward",
                "optim.adam",
                "tensor.teardown",
            ]
            .iter()
            .map(|n| layer(n))
            .sum::<f64>();
        rep.set("data.batch_ms", per_step(data_ms), "ms");
        for (name, key) in [
            ("model.encode", "model.encode_ms"),
            ("model.score", "model.score_ms"),
            ("loss", "loss.ms"),
            ("tensor.backward", "tensor.backward_ms"),
            ("optim.adam", "optim.adam_ms"),
            ("tensor.teardown", "tensor.teardown_ms"),
        ] {
            rep.set(key, per_step(layer(name)), "ms");
        }
        rep.set("step.unattributed_ms", per_step(wall_ms - attributed), "ms");
        rep.set("step.coverage", attributed / wall_ms, "ratio");
        rep.set("step.traced_ms_p50", median(&traced.step_ms), "ms");
        rep.set(
            "trace.overhead_ratio",
            median(&traced.step_ms) / median(&plain.step_ms),
            "ratio",
        );
        let counts = obs::step_counts(k0, k1, steps);
        rep.set("tensor.nodes_per_step", counts.nodes_per_step, "count");
        rep.set("pool.hit_rate", counts.pool_hit_rate, "ratio");
        rep.set("par.jobs_per_step", counts.jobs_per_step, "count");
        rep.set("par.parallel_share", 1.0 - counts.serial_share, "ratio");
        rep.set("par.chunks_per_job", counts.chunks_per_job, "count");
        rep.set(
            "par.worker_busy_share",
            (window_s + helper_busy_s) / (window_s * self.threads as f64),
            "ratio",
        );
        rep.set(
            "par.queue_wait_us_p90",
            if waits.is_empty() {
                0.0
            } else {
                quantile(&waits, 0.9)
            },
            "us",
        );
        rep.note(format!(
            "traced step loop: {steps} steps, {} queue-wait samples; FFT plan cache: {:.2} \
             lookups/step, hit rate {:.4} (no lookups at max_len <= 128: the spectral op runs \
             its DFT as a matmul)",
            waits.len(),
            counts.plan_lookups_per_step,
            counts.plan_hit_rate
        ));

        let ev = train::eval_traced(model, s);
        rep.check(ev.metrics == metrics, || {
            format!(
                "traced eval {} != evaluate's {}",
                ev.metrics.render(),
                metrics.render()
            )
        });
        let batches = s.test.len() as f64;
        rep.set("eval.encode_ms", ev.encode_ms / batches, "ms");
        rep.set("eval.score_ms", ev.score_ms / batches, "ms");
        rep.set("eval.rank_ms", ev.rank_ms / batches, "ms");

        probes::train_probes(model, BATCH, self.threads, c, rep);
        Ok(metrics)
    }

    /// The serving workload's set-up, timed: `StateDict::load` of the
    /// checkpoint, model build and daemon boot, and the first answered
    /// request.
    fn timed_boot(
        &self,
        s: &Setup,
        first: &[usize],
        times: &mut BootTimes,
    ) -> Result<serve::Boot, String> {
        let t0 = Instant::now();
        let (sd, load_s) = load_checkpoint(&self.ckpt)?;
        let b = serve::boot(&s.cfg, sd, first.to_vec())?;
        times.total.push(secs(t0));
        times.load.push(load_s);
        times.build.push(b.build_s);
        times.boot.push(b.boot_s());
        Ok(b)
    }

    fn record_checkpoint(&self, load_s: f64, rep: &mut Report) -> Result<(), String> {
        let bytes = std::fs::metadata(&self.ckpt)
            .map_err(|e| format!("stat checkpoint: {e}"))?
            .len() as f64;
        rep.set("json.ckpt_load_s", load_s, "s");
        rep.set("json.ckpt_mb_per_s", bytes / 1e6 / load_s, "MB/s");
        rep.note(format!("checkpoint: {:.1} MB JSON", bytes / 1e6));
        Ok(())
    }

    /// The checkpoint-loaded model must score bitwise like the in-memory one.
    fn check_loaded_scores(&self, s: &Setup, model: &Slime4Rec, sd: &StateDict, rep: &mut Report) {
        let loaded = Slime4Rec::new(s.cfg.clone());
        loaded.load_state_dict(sd);
        let b = &s.test[0];
        let score = |m: &Slime4Rec| {
            let repr = m.user_repr(&b.inputs, b.batch, &mut TrainContext::eval());
            m.score_all(&repr).value().data().to_vec()
        };
        rep.check(bits_eq(&score(&loaded), &score(model)), || {
            "checkpoint-loaded model scores differ from the in-memory model".into()
        });
    }

    /// Open- and closed-loop load, then `checked` sent over the wire beside
    /// more load (untimed), then every answer re-checked: as the engine gave
    /// it, and as the wire-check client received it.
    fn serving(
        &self,
        b: serve::Boot,
        model: &Slime4Rec,
        checked: &[Vec<usize>],
        rep: &mut Report,
    ) -> Result<(), String> {
        let load = self.w.load;
        let out = serve::drive(&b, &load, self.seconds, self.seed ^ 0x5e7e_0000);
        let stats = b.server.stats();
        let wire = out
            .is_ok()
            .then(|| serve::wire_check(&b, checked, self.seed ^ 0xc4ec_0000));
        check_first_answer(&b, model, rep);
        let log = std::mem::take(&mut *b.log.lock().expect(serve::POISONED));
        b.server.shutdown();
        slime_par::set_threads(self.threads);
        let out = out?;
        let wire = wire.expect("run after a successful load")?;

        let mismatched = serve::mismatches(model, &log.served);
        rep.check(mismatched == 0, || {
            format!(
                "{mismatched} of {} served answers differ from recommend_top_k_with",
                log.served.len()
            )
        });
        let wire_mismatched = serve::mismatches(model, &wire.answers);
        rep.check(wire_mismatched == 0, || {
            format!(
                "{wire_mismatched} of {} answers received over the wire under load differ \
                 from recommend_top_k_with",
                wire.answers.len()
            )
        });
        rep.attempted += wire.answers.len() as u64 + wire.load_sent;
        rep.failed += wire.load_failed + wire_mismatched as u64;

        let within = out.open_lat_ms.iter().filter(|&&l| l <= LIMIT_MS).count() as u64;
        rep.attempted += out.open_sent + out.closed_sent;
        rep.failed += out.open_failed + out.closed_failed + mismatched as u64;
        rep.limit_misses += out.open_ok - within;
        let p50 = out.open_p50_ms;
        rep.set("request_ms_p50", p50, "ms");
        rep.set("request_ms_p90", out.open_p90_ms, "ms");
        rep.set("goodput_per_s", within as f64 / out.open_wall_s, "1/s");
        rep.set("capacity_qps", out.closed_qps, "1/s");
        rep.note(format!(
            "open loop: {} sent at {:.0}/s (one warm-up window, then {} windows over {:.2} s); p50 {p50:.2} ms, \
             p90 {:.2} ms, p99 {:.2} ms ({} samples), {} over the {:.0} ms limit; \
             closed loop: {} answered in {:.2} s over {} rounds; wire check: {} answers beside \
             {} load requests in {} rounds; {} engine answers checked",
            out.open_sent,
            load.open_qps,
            out.open_windows,
            out.open_wall_s,
            out.open_p90_ms,
            quantile(&out.open_lat_ms, 0.99),
            out.open_lat_ms.len(),
            out.open_ok - within,
            LIMIT_MS,
            out.closed_ok,
            out.closed_wall_s,
            out.closed_rounds,
            wire.answers.len(),
            wire.load_sent,
            wire.load_rounds,
            log.served.len()
        ));

        rep.set("serve.engine_ms_per_pass", out.open_pass_p50_ms, "ms");
        rep.set("serve.non_engine_ms", p50 - out.open_pass_p50_ms, "ms");
        rep.set(
            "serve.engine_busy_share",
            out.closed_engine.engine_ms / (out.closed_wall_s * 1e3),
            "ratio",
        );
        rep.set(
            "serve.batch_occupancy",
            out.closed_batched as f64 / out.closed_batches.max(1) as f64,
            "count",
        );
        rep.set(
            "serve.max_queue_depth",
            stats.max_queue_depth as f64,
            "count",
        );
        rep.set(
            "serve.accepted_share",
            stats.accepted as f64 / (stats.accepted + stats.rejected).max(1) as f64,
            "ratio",
        );
        rep.set(
            "recommend.scratch_reuse_ratio",
            log.scratch_reuses as f64 / (log.scratch_reuses + log.scratch_allocs).max(1) as f64,
            "ratio",
        );
        rep.set("load.gen_overrun_ms", out.open_overrun_ms, "ms");
        rep.note(format!(
            "engine: open {} passes / {} requests, closed {} passes / {} requests, \
             mean closed occupancy {:.2}",
            out.open_engine.passes,
            out.open_engine.requests,
            out.closed_engine.passes,
            out.closed_engine.requests,
            out.closed_batched as f64 / out.closed_batches.max(1) as f64
        ));
        Ok(())
    }
}

/// The serving workload's set-up timings, one entry per boot.
#[derive(Default)]
struct BootTimes {
    total: Vec<f64>,
    load: Vec<f64>,
    build: Vec<f64>,
    boot: Vec<f64>,
}

/// `passes` more timed `evaluate` passes, each of which must reproduce
/// `want`.
fn more_evals(
    model: &Slime4Rec,
    s: &Setup,
    want: &MetricSet,
    passes: usize,
    eval_ms: &mut Vec<f64>,
    rep: &mut Report,
) {
    for _ in 0..passes {
        let got = train::eval_timed(model, s, eval_ms);
        rep.check(got == *want, || {
            format!("evaluate gave {} after {}", got.render(), want.render())
        });
    }
}

/// A daemon's first answer, read over the wire, must equal
/// `recommend_top_k_with`.
fn check_first_answer(b: &serve::Boot, model: &Slime4Rec, rep: &mut Report) {
    let want = recommend_top_k_with(model, &b.first_history, SERVE_K, SERVE_EXCLUDE, None);
    rep.check(serve::same_answer(&b.first_answer, &want), || {
        "a first answer over the wire differs from recommend_top_k_with".into()
    });
}

fn load_checkpoint(path: &Path) -> Result<(StateDict, f64), String> {
    let t0 = Instant::now();
    let sd = StateDict::load(path).map_err(|e| format!("load checkpoint: {e}"))?;
    Ok((sd, secs(t0)))
}

/// Bitwise equality of two float slices.
fn bits_eq<T: Copy + Into<f64>>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| x.into().to_bits() == y.into().to_bits())
}
