//! Fusion sweep: the fused SIMD epilogues + hashed dropout (DESIGN.md §14)
//! versus the unfused eager trace, both with the dispatched SIMD backend
//! on — so the A/B isolates what *fusion* buys on top of the vector
//! kernels. Both sides re-trace the graph every step, as the trainer does.
//! Emits `BENCH_fuse.json` at the workspace root.
//!
//! Two views:
//!
//! - per-epilogue kernels: each fused op against the unfused chain it
//!   replaces;
//! - end-to-end train step (forward + backward + Adam) and full-ranking
//!   inference, fused fast path vs `--no-fuse`.
//!
//! One floor is enforced here and by `scripts/ci.sh`: train step ≥ 1.25×
//! over the unfused SIMD baseline. The floor ratio comes from an
//! *interleaved* A/B (short alternating chunks of each side) using
//! min-of-rounds on both sides: background load on a small box only ever
//! adds time, and sequential A-then-B blocks let a slow period land
//! entirely on one side — interleaving + min makes the ratio stable where
//! sequential medians swung 0.9×–1.4× run to run.
//! For cross-PR context the report folds in the dispatched train-step and
//! inference medians from `BENCH_simd.json` when that file is present.

use slime4rec::{ContrastiveMode, NextItemModel, Slime4Rec, SlimeConfig};
use slime_bench::harness::{measure_routine, Measurement};
use slime_bench::random_inputs;
use slime_nn::{Module, TrainContext};
use slime_tensor::optim::{Adam, Optimizer};
use slime_tensor::simd::fuse;
use slime_tensor::{fusion, ops, simd, NdArray, Tensor};
use std::hint::black_box;
use std::time::Duration;

// Same paper-scale-ish dims as simd_sweep, so the end-to-end rows compare
// directly with the BENCH_simd.json SIMD baseline.
const BATCH: usize = 64;
const N: usize = 50;
const HIDDEN: usize = 64;
const VOCAB: usize = 4000;

const SAMPLES: usize = 5;
const WARM_UP: Duration = Duration::from_millis(300);
const MEASURE: Duration = Duration::from_millis(1500);

const KERNEL_WARM_UP: Duration = Duration::from_millis(200);
const KERNEL_MEASURE: Duration = Duration::from_millis(500);

fn filled(shape: &[usize], seed: u64) -> NdArray {
    let n: usize = shape.iter().product();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let data: Vec<f32> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
        })
        .collect();
    NdArray::from_vec(shape.to_vec(), data)
}

// --- per-epilogue kernels -------------------------------------------------

fn measure_bias_gelu(fused: bool) -> Measurement {
    // The FFN up-projection shape: [B*N, H] @ [H, H] + bias, gelu'd in the
    // output tile while it is still hot.
    let x = Tensor::constant(filled(&[BATCH * N, HIDDEN], 1));
    let w = Tensor::constant(filled(&[HIDDEN, HIDDEN], 2));
    let b = Tensor::constant(filled(&[HIDDEN], 3));
    measure_routine(SAMPLES, KERNEL_WARM_UP, KERNEL_MEASURE, || {
        if fused {
            black_box(fusion::matmul_bias_gelu(black_box(&x), &w, &b).value())
        } else {
            black_box(ops::gelu(&ops::add(&ops::matmul(black_box(&x), &w), &b)).value())
        }
    })
}

fn measure_add_layer_norm(fused: bool) -> Measurement {
    // The residual path: one pass over x + r computing mean/var/normalize
    // instead of materializing the sum first.
    let a = Tensor::constant(filled(&[BATCH * N, HIDDEN], 4));
    let b = Tensor::constant(filled(&[BATCH * N, HIDDEN], 5));
    let gamma = Tensor::constant(filled(&[HIDDEN], 6));
    let beta = Tensor::constant(filled(&[HIDDEN], 7));
    measure_routine(SAMPLES, KERNEL_WARM_UP, KERNEL_MEASURE, || {
        if fused {
            black_box(fusion::add_layer_norm(black_box(&a), &b, &gamma, &beta, 1e-5).value())
        } else {
            black_box(ops::layer_norm(&ops::add(black_box(&a), &b), &gamma, &beta, 1e-5).value())
        }
    })
}

fn measure_gate_mix(fused: bool) -> Measurement {
    // The slide-filter gate: (1-g)*dynamic + g*static in one elementwise
    // pass instead of a four-op chain.
    let yd = Tensor::constant(filled(&[BATCH * N, HIDDEN], 8));
    let ys = Tensor::constant(filled(&[BATCH * N, HIDDEN], 9));
    let g = Tensor::constant(NdArray::scalar(0.35));
    measure_routine(SAMPLES, KERNEL_WARM_UP, KERNEL_MEASURE, || {
        if fused {
            black_box(fusion::gate_mix(black_box(&yd), &ys, &g).value())
        } else {
            let om = ops::add_scalar(&ops::neg(&g), 1.0);
            black_box(ops::add(&ops::mul(black_box(&yd), &om), &ops::mul(&ys, &g)).value())
        }
    })
}

// --- end-to-end -----------------------------------------------------------

fn model() -> Slime4Rec {
    let mut cfg = SlimeConfig::new(VOCAB);
    cfg.hidden = HIDDEN;
    cfg.max_len = N;
    cfg.layers = 2;
    cfg.contrastive = ContrastiveMode::None;
    Slime4Rec::new(cfg)
}

/// Interleaved rounds of the train-step floor A/B.
const TRAIN_ROUNDS: usize = 12;
/// Steps per side per round (one chunk ≈ 100–200 ms).
const TRAIN_ITERS: usize = 3;

/// Alternate short chunks of `a` and `b` across `rounds` rounds and return
/// per-round per-iteration stats for each. Interference from background
/// load only ever *adds* time, so `min` over interleaved rounds is the
/// noise-robust estimator the floor ratio wants; a sequential A-then-B
/// measurement lets one slow period land entirely on one side.
fn measure_pair_interleaved(
    rounds: usize,
    iters_per_round: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Measurement, Measurement) {
    // Each iteration is timed individually (tens of ms each, so the timer
    // overhead is noise): averaging a chunk would smear interference into
    // every sample, while per-iteration timing lets `min` find the genuinely
    // quiet moments on both sides.
    let mut time_chunk = |f: &mut dyn FnMut(), samples: &mut Vec<Duration>| {
        for _ in 0..iters_per_round {
            let t0 = std::time::Instant::now();
            f();
            samples.push(t0.elapsed());
        }
    };
    let mut sa = Vec::with_capacity(rounds * iters_per_round);
    let mut sb = Vec::with_capacity(rounds * iters_per_round);
    for _ in 0..rounds {
        time_chunk(&mut a, &mut sa);
        time_chunk(&mut b, &mut sb);
    }
    (Measurement::from_samples(sa), Measurement::from_samples(sb))
}

/// The train-step floor A/B: the `--no-fuse` baseline (unfused chains,
/// sequential dropout) against the fused fast path (fused epilogues, hashed
/// dropout) — forward + backward + Adam on both sides, each re-tracing its
/// graph every step, interleaved per [`measure_pair_interleaved`].
fn measure_train_pair() -> (Measurement, Measurement) {
    let inputs = random_inputs(BATCH, N, VOCAB, 3);
    let targets: Vec<usize> = random_inputs(BATCH, 1, VOCAB, 4);
    let step = |fused: bool| {
        let slime = model();
        let mut opt = Adam::new(slime.parameters(), 1e-3);
        let mut ctx = TrainContext::train(1);
        let (inputs, targets) = (&inputs, &targets);
        move || {
            fuse::set_enabled(fused);
            opt.zero_grad();
            let repr = slime.user_repr(black_box(inputs), BATCH, &mut ctx);
            let loss = ops::cross_entropy(&slime.score_all(&repr), targets);
            loss.backward();
            opt.step();
        }
    };
    let mut unfused_step = step(false);
    let mut fused_step = step(true);
    for _ in 0..2 {
        unfused_step();
        fused_step();
    }
    measure_pair_interleaved(TRAIN_ROUNDS, TRAIN_ITERS, unfused_step, fused_step)
}

fn measure_inference() -> Measurement {
    let inputs = random_inputs(BATCH, N, VOCAB, 7);
    let slime = model();
    measure_routine(SAMPLES, WARM_UP, MEASURE, || {
        let mut ctx = TrainContext::eval();
        let repr = slime.user_repr(black_box(&inputs), BATCH, &mut ctx);
        black_box(slime.score_all(&repr).value())
    })
}

// --- report ---------------------------------------------------------------

fn ratio(unfused: &Measurement, fused: &Measurement) -> f64 {
    unfused.median.as_secs_f64() / fused.median.as_secs_f64().max(1e-12)
}

fn print_pair(name: &str, unfused: &Measurement, fused: &Measurement) {
    println!(
        "  {name:<28} unfused median {:>12?}   fused median {:>12?}   ({:.2}x)",
        unfused.median,
        fused.median,
        ratio(unfused, fused)
    );
}

/// The dispatched (simd=true) median for `name` from `BENCH_simd.json`, if
/// the PR-5 sweep output is present with the expected shape.
fn bench_simd_median_ns(report: Option<&slime_json::Value>, name: &str) -> Option<i64> {
    let rows = report?.get("end_to_end")?.as_arr()?;
    let entry = rows
        .iter()
        .find(|s| s.get("name").and_then(|n| n.as_str()) == Some(name))?;
    let point = entry
        .get("points")?
        .as_arr()?
        .iter()
        .find(|p| p.get("simd").and_then(|b| b.as_bool()) == Some(true))?;
    point.get("timing")?.get("median_ns")?.as_i64()
}

fn main() {
    use slime_json::Value;

    slime_par::set_threads(1);
    let simd_was = simd::enabled();
    let fuse_was = fuse::enabled();
    simd::set_enabled(true);
    println!(
        "fuse_sweep: unfused vs fused at 1 thread, backend {}",
        simd::backend().name()
    );

    // Per-epilogue kernels (both sides trace eagerly; only the op differs).
    fuse::set_enabled(true);
    let bg_u = measure_bias_gelu(false);
    let bg_f = measure_bias_gelu(true);
    let ln_u = measure_add_layer_norm(false);
    let ln_f = measure_add_layer_norm(true);
    let gm_u = measure_gate_mix(false);
    let gm_f = measure_gate_mix(true);

    // End-to-end: fuse off = unfused SIMD baseline; fuse on = fused
    // epilogues + hashed dropout. The train pair interleaves its own A/B
    // rounds (each closure sets the gate it needs).
    let (train_u, train_f) = measure_train_pair();
    fuse::set_enabled(false);
    let infer_u = measure_inference();
    fuse::set_enabled(true);
    let infer_f = measure_inference();

    simd::set_enabled(simd_was);
    fuse::set_enabled(fuse_was);

    print_pair("matmul_bias_gelu", &bg_u, &bg_f);
    print_pair("add_layer_norm", &ln_u, &ln_f);
    print_pair("gate_mix", &gm_u, &gm_f);
    print_pair("train_step", &train_u, &train_f);
    print_pair("full_ranking_inference", &infer_u, &infer_f);

    // Floor ratio from min-of-interleaved-rounds on each side — the
    // noise-robust estimator (see the header comment); medians above are
    // for the report only.
    let train_speedup = train_u.min.as_secs_f64() / train_f.min.as_secs_f64().max(1e-12);
    println!("  train_step floor ratio (min-of-rounds): {train_speedup:.2}x");
    let floors_ok = train_speedup >= 1.25;

    let simd_report = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_simd.json"
    ))
    .ok()
    .and_then(|s| slime_json::parse(&s).ok());

    let pair = |name: &str, unfused: &Measurement, fused: &Measurement| {
        slime_json::obj([
            ("name", Value::Str(name.into())),
            (
                "points",
                Value::Arr(vec![
                    slime_json::obj([("fused", Value::Bool(false)), ("timing", unfused.to_json())]),
                    slime_json::obj([("fused", Value::Bool(true)), ("timing", fused.to_json())]),
                ]),
            ),
            ("speedup_vs_unfused", Value::Float(ratio(unfused, fused))),
        ])
    };
    let end_to_end = |name: &str, unfused: &Measurement, fused: &Measurement| {
        let prior = bench_simd_median_ns(simd_report.as_ref(), name);
        slime_json::obj([
            ("name", Value::Str(name.into())),
            (
                "points",
                Value::Arr(vec![
                    slime_json::obj([("fused", Value::Bool(false)), ("timing", unfused.to_json())]),
                    slime_json::obj([("fused", Value::Bool(true)), ("timing", fused.to_json())]),
                ]),
            ),
            ("speedup_vs_unfused", Value::Float(ratio(unfused, fused))),
            (
                "vs_bench_simd",
                match prior {
                    Some(prior_ns) => slime_json::obj([
                        ("dispatched_median_ns", Value::Int(prior_ns)),
                        (
                            "speedup_vs_bench_simd",
                            Value::Float(
                                prior_ns as f64 / (fused.median.as_nanos() as f64).max(1.0),
                            ),
                        ),
                    ]),
                    None => Value::Null,
                },
            ),
        ])
    };

    let report = slime_json::obj([
        ("bench", Value::Str("fuse_sweep".into())),
        ("env", slime_bench::harness::env_block()),
        (
            "detected",
            slime_json::obj([
                ("avx2_fma", Value::Bool(simd::avx2_fma_detected())),
                (
                    "dispatched_backend",
                    Value::Str(simd::backend().name().into()),
                ),
            ]),
        ),
        (
            "epilogues",
            Value::Arr(vec![
                pair("matmul_bias_gelu", &bg_u, &bg_f),
                pair("add_layer_norm", &ln_u, &ln_f),
                pair("gate_mix", &gm_u, &gm_f),
            ]),
        ),
        (
            "end_to_end",
            Value::Arr(vec![
                end_to_end("train_step", &train_u, &train_f),
                end_to_end("full_ranking_inference", &infer_u, &infer_f),
            ]),
        ),
        (
            "floors",
            slime_json::obj([
                ("train_step_speedup_min", Value::Float(1.25)),
                ("train_step_speedup", Value::Float(train_speedup)),
                ("passed", Value::Bool(floors_ok)),
            ]),
        ),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fuse.json");
    std::fs::write(out, report.to_pretty() + "\n").expect("write BENCH_fuse.json");
    println!("wrote {out}");

    assert!(
        floors_ok,
        "fuse_sweep floor failed: train step {train_speedup:.2}x (need >= 1.25x)"
    );
}
