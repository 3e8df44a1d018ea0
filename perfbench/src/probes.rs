//! Isolated probes at a workload's shapes, and the machine ceilings they
//! are compared against. FLOPs and bytes are computed from shapes; the
//! formulas sit next to each probe.

use slime4rec::recommend::recommend_top_k_with;
use slime4rec::{NextItemModel, Slime4Rec};
use slime_nn::TrainContext;
use slime_rng::rngs::StdRng;
use slime_rng::SeedableRng;
use slime_serve::protocol::{decode_request, decode_response, encode_recommend, encode_response};
use slime_serve::Status;
use slime_tensor::{init, ops, Tensor};

use crate::util::{median, median_ms, ms, Report};

/// Single-core stream bandwidth: `y = a * x + y` over two 32 MB arrays,
/// 12 bytes moved per element; best of several passes, in GB/s.
pub fn stream_gbytes_per_s() -> f64 {
    let n = 8 << 20;
    let x = vec![1.0f32; n];
    let mut y = vec![0.5f32; n];
    let mut best = f64::INFINITY;
    for pass in 0..6 {
        let a = 1.0 + pass as f32 * 1e-3;
        let t0 = std::time::Instant::now();
        for (yi, xi) in y.iter_mut().zip(&x) {
            *yi += a * xi;
        }
        let dt = t0.elapsed().as_secs_f64();
        if pass > 0 {
            best = best.min(dt);
        }
    }
    std::hint::black_box(&y);
    (12 * n) as f64 / best / 1e9
}

/// Single-core FMA throughput: ten independent 8-lane fused multiply-add
/// chains held in registers (2 FLOPs per lane per FMA), in GFLOP/s.
pub fn fma_gflops() -> f64 {
    const ITERS: usize = 20_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(fma_chains(std::hint::black_box(ITERS)));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (ITERS * 10 * 8 * 2) as f64 / best / 1e9
}

fn fma_chains(iters: usize) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the features the function is compiled for were just
            // detected on this CPU.
            return unsafe { fma_chains_avx2(iters) };
        }
    }
    let mut acc = [[1.0f32; 8]; 10];
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for lane in chain.iter_mut() {
                *lane = lane.mul_add(0.999_999, 1e-7);
            }
        }
    }
    acc.iter().flatten().sum()
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: usize) -> f32 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(0.999_999);
    let b = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_set1_ps(1.0); 10];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = _mm256_fmadd_ps(*r, a, b);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut sum = 0.0;
    for r in acc {
        _mm256_storeu_ps(lanes.as_mut_ptr(), r);
        sum += lanes.iter().sum::<f32>();
    }
    sum
}

/// Ceilings measured once per run, shared by every probe.
pub struct Ceilings {
    pub stream_gbs: f64,
    pub fma_gflops: f64,
}

impl Ceilings {
    pub fn measure(rep: &mut Report) -> Ceilings {
        let c = Ceilings {
            stream_gbs: stream_gbytes_per_s(),
            fma_gflops: fma_gflops(),
        };
        rep.set("machine.stream_gbytes_per_s", c.stream_gbs, "GB/s");
        rep.set("machine.fma_gflops", c.fma_gflops, "GFLOP/s");
        c
    }
}

fn randn(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::param(init::normal(shape, 1.0, &mut rng))
}

/// Training-shape probes: the slide-filter mixer op forward + backward, one
/// whole block forward, and catalog scoring + cross-entropy forward +
/// backward. `threads` is the pool size the probes ran with; shares are
/// against `threads` cores' FMA ceiling.
pub fn train_probes(
    model: &Slime4Rec,
    batch: usize,
    threads: usize,
    c: &Ceilings,
    rep: &mut Report,
) {
    let (n, d) = (model.cfg.max_len, model.cfg.hidden);
    let m = n / 2 + 1;
    let vocab = model.cfg.vocab_size();
    let block = &model.blocks[0];
    let gamma = model.cfg.gamma;
    let branches = vec![
        ops::SpectralBranch {
            w_re: block.wd_re.clone(),
            w_im: block.wd_im.clone(),
            mask: block.mask_d.clone(),
            coef: 1.0 - gamma,
        },
        ops::SpectralBranch {
            w_re: block.ws_re.clone(),
            w_im: block.ws_im.clone(),
            mask: block.mask_s.clone(),
            coef: gamma,
        },
    ];
    let x = randn(vec![batch, n, d], 11);
    let budget = 400.0;
    let spectral_ms = median_ms(5, 200, budget, || {
        x.zero_grad();
        ops::sum_all(&ops::spectral_filter_mix(&x, &branches)).backward();
    });
    // rfft and irfft as [M x N] real transforms per (row, channel): 4MN
    // FLOPs each; backward runs about twice the forward's work.
    let spectral_flops = 3.0 * 8.0 * (m * n * batch * d) as f64;
    let mut ctx = TrainContext::train(5);
    let block_ms = median_ms(5, 200, budget, || {
        std::hint::black_box(block.forward(&x, &mut ctx));
    });
    // Filter forward (8MN per row and channel) plus the d x d FFN's two
    // matmuls (4 B N d^2).
    let block_flops = 8.0 * (m * n * batch * d) as f64 + 4.0 * (batch * n * d * d) as f64;
    let repr = randn(vec![batch, d], 12);
    let targets: Vec<usize> = (0..batch).map(|i| 1 + (i * 7919) % (vocab - 1)).collect();
    let score_ms = median_ms(5, 100, budget, || {
        repr.zero_grad();
        model.item_emb.weight.zero_grad();
        ops::cross_entropy(&model.score_all(&repr), &targets).backward();
    });
    model.item_emb.weight.zero_grad();
    // [B, d] x [V, d]^T forward (2BdV) and its two backward matmuls (4BdV).
    let score_flops = 6.0 * (batch * d * vocab) as f64;
    let peak = c.fma_gflops * threads as f64;
    let gflops = |flops: f64, ms: f64| flops / (ms * 1e6);
    rep.set("probe.spectral_fwd_bwd_ms", spectral_ms, "ms");
    rep.set(
        "probe.spectral_gflops",
        gflops(spectral_flops, spectral_ms),
        "GFLOP/s",
    );
    rep.set(
        "probe.spectral_ceiling_share",
        gflops(spectral_flops, spectral_ms) / peak,
        "ratio",
    );
    rep.set("probe.block_fwd_ms", block_ms, "ms");
    rep.set(
        "probe.block_gflops",
        gflops(block_flops, block_ms),
        "GFLOP/s",
    );
    rep.set(
        "probe.block_ceiling_share",
        gflops(block_flops, block_ms) / peak,
        "ratio",
    );
    rep.set("probe.score_ce_fwd_bwd_ms", score_ms, "ms");
    rep.set(
        "probe.score_gflops",
        gflops(score_flops, score_ms),
        "GFLOP/s",
    );
    rep.set(
        "probe.score_ceiling_share",
        gflops(score_flops, score_ms) / peak,
        "ratio",
    );
    rep.note(format!(
        "probe FLOPs from shapes: spectral fwd+bwd {:.3e} (24·M·N·B·d, M={m} N={n} B={batch} d={d}), \
         block fwd {:.3e} (8·M·N·B·d + 4·B·N·d²), score+CE fwd+bwd {:.3e} (6·B·d·V, V={vocab}); \
         ceiling {:.1} GFLOP/s per core × {threads} threads",
        spectral_flops, block_flops, score_flops, c.fma_gflops
    ));
}

/// Serving-shape probes on one history at one thread (the daemon's
/// engine worker count): encode, score + top-k selection, the bandwidth
/// of scoring against the streamed item table, and the wire protocol.
pub fn serve_probes(
    model: &Slime4Rec,
    history: &[usize],
    k: usize,
    c: &Ceilings,
    rep: &mut Report,
) {
    let n = model.cfg.max_len;
    let (d, vocab) = (model.cfg.hidden, model.cfg.vocab_size());
    let mut input = vec![0usize; n];
    let tail = &history[history.len().saturating_sub(n)..];
    input[n - tail.len()..].copy_from_slice(tail);
    let mut ctx = TrainContext::eval();
    let budget = 300.0;
    let encode_ms = median_ms(10, 2000, budget, || {
        std::hint::black_box(model.user_repr(&input, 1, &mut ctx));
    });
    let repr = model.user_repr(&input, 1, &mut ctx);
    let score_ms = median_ms(10, 2000, budget, || {
        std::hint::black_box(model.score_all(&repr));
    });
    // Score-and-select is recommend minus encode, taken per pair of
    // back-to-back calls: at a small catalog it is a fraction of either,
    // and the difference of two separately timed medians can come out
    // negative.
    let (mut recommend, mut select) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    while recommend.len() < 2000 && (recommend.len() < 10 || ms(start) < budget) {
        let t0 = std::time::Instant::now();
        std::hint::black_box(model.user_repr(&input, 1, &mut ctx));
        let t1 = std::time::Instant::now();
        std::hint::black_box(recommend_top_k_with(model, history, k, true, None));
        let t2 = std::time::Instant::now();
        let rec = (t2 - t1).as_secs_f64() * 1e3;
        recommend.push(rec);
        select.push(rec - (t1 - t0).as_secs_f64() * 1e3);
    }
    let recommend_ms = median(&recommend);
    // Scoring one row streams the whole [V, d] f32 table once.
    let table_bytes = (vocab * d * 4) as f64;
    let gbs = table_bytes / (score_ms * 1e6);
    rep.set("probe.recommend_encode_ms", encode_ms, "ms");
    rep.set("probe.recommend_score_select_ms", median(&select), "ms");
    rep.set("probe.serve_score_gbytes_per_s", gbs, "GB/s");
    rep.set(
        "probe.serve_score_bandwidth_share",
        gbs / c.stream_gbs,
        "ratio",
    );
    rep.note(format!(
        "serve probes (1 thread): encode {encode_ms:.3} ms, score {score_ms:.3} ms over a \
         {:.1} MB table (V={vocab} d={d}), recommend_top_k_with {recommend_ms:.3} ms; \
         stream ceiling {:.1} GB/s",
        table_bytes / 1e6,
        c.stream_gbs
    ));

    let items: Vec<(u32, f32)> = (0..k as u32)
        .map(|i| (i + 1, 0.5 / (i + 1) as f32))
        .collect();
    let reps = 2000;
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let req = decode_request(&encode_recommend(history, k, true));
        let resp = decode_response(&encode_response(Status::Ok, &items));
        let _ = std::hint::black_box((req, resp));
    }
    rep.set(
        "probe.protocol_us",
        t0.elapsed().as_secs_f64() * 1e6 / reps as f64,
        "us",
    );
}
