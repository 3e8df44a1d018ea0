//! Training and evaluation phases: set-up, the timed `train_model` call,
//! the bench-side step loop (plain or traced), and evaluation (plain or
//! traced).

use std::collections::BTreeMap;
use std::time::Instant;

use slime4rec::contrastive::info_nce_with_targets;
use slime4rec::{evaluate, NextItemModel, Slime4Rec, SlimeConfig, TrainConfig};
use slime_data::augment::SameTargetIndex;
use slime_data::synthetic::{generate, generate_long_tail, profile, LongTailConfig};
use slime_data::{eval_batches, EvalBatch, SeqDataset, Split, TrainSet};
use slime_metrics::{rank_of_target, MetricAccumulator, MetricSet};
use slime_nn::{Module, TrainContext};
use slime_rng::rngs::StdRng;
use slime_rng::SeedableRng;
use slime_tensor::optim::{Adam, Optimizer};
use slime_tensor::{ops, StateDict};

use crate::spec::{Data, Workload, BATCH, EPOCHS, EXAMPLE_STRIDE, HIDDEN, LAMBDA, LAYERS, MAX_LEN};
use crate::util::ms;

/// Cutoffs of every evaluation (the paper's HR/NDCG@{5,10}).
pub const CUTOFFS: [usize; 2] = [5, 10];
/// `evaluate` passes timed at each of three points of a run: after the
/// first `train_model` call, after the second, and at the end.
pub const EVAL_PASSES: usize = 2;

/// Everything training and evaluation need, built from the seed.
pub struct Setup {
    pub ds: SeqDataset,
    pub ts: TrainSet,
    pub index: SameTargetIndex,
    pub cfg: SlimeConfig,
    pub tc: TrainConfig,
    pub test: Vec<EvalBatch>,
}

impl Setup {
    pub fn test_users(&self) -> usize {
        self.test.iter().map(|b| b.batch).sum()
    }
}

pub fn dataset(w: &Workload, seed: u64) -> SeqDataset {
    match w.data {
        Data::Profile { name, scale, users } => {
            let mut c = profile(name, scale);
            c.users = users;
            generate(&c, seed)
        }
        Data::LongTail { items, users } => {
            let mut c = LongTailConfig::at_scale(items);
            c.users = users;
            generate_long_tail(&c, seed)
        }
    }
}

pub fn model_config(num_items: usize, seed: u64) -> SlimeConfig {
    let mut cfg = SlimeConfig::new(num_items);
    cfg.hidden = HIDDEN;
    cfg.max_len = MAX_LEN;
    cfg.layers = LAYERS;
    cfg.lambda = LAMBDA;
    cfg.seed = seed;
    cfg
}

/// Data, `TrainSet`, `SameTargetIndex`, model configuration and test
/// batches; the model itself is built by the caller (`Slime4Rec::new`).
pub fn setup(w: &Workload, seed: u64) -> Setup {
    let ds = dataset(w, seed);
    let cfg = model_config(ds.num_items(), seed);
    let tc = TrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        seed,
        example_stride: EXAMPLE_STRIDE,
        ..TrainConfig::default()
    };
    let ts = TrainSet::with_stride(&ds, 1, tc.example_stride);
    let index = SameTargetIndex::new(&ts);
    let test = eval_batches(&ds, Split::Test, cfg.max_len, tc.batch_size);
    Setup {
        ds,
        ts,
        index,
        cfg,
        tc,
        test,
    }
}

/// Per-layer wall-time totals of the traced step loop, in ms.
#[derive(Default)]
pub struct Spans {
    on: bool,
    pub total_ms: BTreeMap<&'static str, f64>,
}

impl Spans {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        *self.total_ms.entry(layer).or_default() += ms(t0);
        out
    }
}

pub struct StepLoop {
    /// Wall time of each optimizer step (zero_grad through Adam and the
    /// step's teardown).
    pub step_ms: Vec<f64>,
    /// `loss.item()` of each step.
    pub losses: Vec<f32>,
    /// Mean loss per epoch, accumulated exactly as `train_model` does.
    pub epoch_losses: Vec<f32>,
    /// Per-epoch shuffle and batch assembly (`epoch_batches`), summed.
    pub epoch_batches_ms: f64,
    /// Parameters after the first `tc.epochs` epochs, for comparison with
    /// `train_model`'s result.
    pub params_after_train_epochs: Option<StateDict>,
    pub spans: Spans,
}

/// The supervised-contrastive step of `train_model`, rebuilt from the same
/// public calls so each layer can be timed from outside: `epoch_batches`,
/// `sample_positive` + `make_batch`, `user_repr` twice, `score_all`,
/// `cross_entropy`, `info_nce_with_targets`, `backward` and `Adam`, then
/// the step's teardown. With
/// the same seed it consumes the same random streams in the same order,
/// so over `train_model`'s epochs its losses and parameters equal
/// `train_model`'s bit for bit. It then runs on to `epochs` epochs for
/// more step-time samples.
pub fn step_loop(model: &Slime4Rec, s: &Setup, epochs: usize, traced: bool) -> StepLoop {
    let tc = &s.tc;
    let n = model.max_len();
    let (lambda, temperature) = (s.cfg.lambda, s.cfg.temperature);
    let mut opt = Adam::new(model.parameters(), tc.lr);
    let mut batch_rng = StdRng::seed_from_u64(tc.seed ^ 0x5eed);
    let mut ctx = TrainContext::train(tc.seed);
    let mut out = StepLoop {
        step_ms: Vec::new(),
        losses: Vec::new(),
        epoch_losses: Vec::new(),
        epoch_batches_ms: 0.0,
        params_after_train_epochs: None,
        spans: Spans {
            on: traced,
            ..Spans::default()
        },
    };
    let sp = &mut out.spans;
    for epoch in 0..epochs.max(tc.epochs) {
        if epoch == tc.epochs {
            out.params_after_train_epochs = Some(model.state_dict());
        }
        let t0 = Instant::now();
        let batches = s.ts.epoch_batches(n, tc.batch_size, &mut batch_rng);
        out.epoch_batches_ms += ms(t0);
        let (mut total, mut count) = (0.0f64, 0usize);
        for batch in batches {
            let t0 = Instant::now();
            sp.time("optim.adam", || opt.zero_grad());
            let repr = sp.time("model.encode", || {
                model.user_repr(&batch.inputs, batch.batch, &mut ctx)
            });
            let logits = sp.time("model.score", || model.score_all(&repr));
            let rec_loss = sp.time("loss", || ops::cross_entropy(&logits, &batch.targets));
            let (loss, view2) = if batch.batch >= 2 && lambda > 0.0 {
                let partner = sp.time("data.batch", || {
                    let ids: Vec<usize> = batch
                        .example_ids
                        .iter()
                        .map(|&i| s.index.sample_positive(&s.ts, i, &mut ctx.rng))
                        .collect();
                    s.ts.make_batch(&ids, n)
                });
                let view2 = sp.time("model.encode", || {
                    model.user_repr(&partner.inputs, partner.batch, &mut ctx)
                });
                let loss = sp.time("loss", || {
                    let cl = info_nce_with_targets(&repr, &view2, &batch.targets, temperature);
                    let _ = cl.item();
                    ops::add(&rec_loss, &ops::scale(&cl, lambda))
                });
                (loss, Some((partner, view2)))
            } else {
                (rec_loss.clone(), None)
            };
            let value = sp.time("loss", || {
                let _ = rec_loss.item();
                loss.item()
            });
            sp.time("tensor.backward", || loss.backward());
            sp.time("optim.adam", || opt.step());
            // The step's graph and batches go before the step's end time
            // is read: `train_model` pays their teardown (node drops,
            // buffer recycling) on every step too.
            sp.time("tensor.teardown", || {
                drop((loss, view2, rec_loss, logits, repr, batch))
            });
            out.step_ms.push(ms(t0));
            out.losses.push(value);
            total += value as f64;
            count += 1;
        }
        out.epoch_losses.push((total / count.max(1) as f64) as f32);
    }
    if out.params_after_train_epochs.is_none() {
        out.params_after_train_epochs = Some(model.state_dict());
    }
    out
}

/// Whether two parameter sets are bitwise identical.
pub fn same_parameters(sa: &StateDict, sb: &StateDict) -> bool {
    sa.names().eq(sb.names())
        && sa.names().all(|name| {
            let (ra, rb) = (sa.get(name), sb.get(name));
            match (ra, rb) {
                (Some(ra), Some(rb)) => {
                    ra.shape == rb.shape
                        && ra
                            .data
                            .iter()
                            .zip(&rb.data)
                            .all(|(x, y)| x.to_bits() == y.to_bits())
                }
                _ => false,
            }
        })
}

/// One `evaluate` pass on the test batches, its time pushed to `pass_ms`.
pub fn eval_timed(model: &Slime4Rec, s: &Setup, pass_ms: &mut Vec<f64>) -> MetricSet {
    let t0 = Instant::now();
    let metrics = evaluate(model, &s.test, &CUTOFFS);
    pass_ms.push(ms(t0));
    metrics
}

/// Per-layer times of one traced evaluation pass, in ms.
pub struct EvalLayers {
    pub encode_ms: f64,
    pub score_ms: f64,
    pub rank_ms: f64,
    pub metrics: MetricSet,
}

/// `evaluate`'s pass rebuilt from `user_repr`, `score_all` and
/// `slime_metrics::rank_of_target` (over the real items, so the padding
/// column is excluded exactly as `evaluate` excludes it).
pub fn eval_traced(model: &Slime4Rec, s: &Setup) -> EvalLayers {
    let mut acc = MetricAccumulator::new(&CUTOFFS);
    let mut ctx = TrainContext::eval();
    let (mut encode_ms, mut score_ms, mut rank_ms) = (0.0, 0.0, 0.0);
    for b in &s.test {
        let t0 = Instant::now();
        let repr = model.user_repr(&b.inputs, b.batch, &mut ctx);
        encode_ms += ms(t0);
        let t0 = Instant::now();
        let scores = model.score_all(&repr).value();
        score_ms += ms(t0);
        let t0 = Instant::now();
        let vocab = scores.shape()[1];
        for (r, &target) in b.targets.iter().enumerate() {
            let row = &scores.data()[r * vocab + 1..(r + 1) * vocab];
            acc.add_rank(rank_of_target(row, target - 1));
        }
        rank_ms += ms(t0);
    }
    EvalLayers {
        encode_ms,
        score_ms,
        rank_ms,
        metrics: acc.finish(),
    }
}
