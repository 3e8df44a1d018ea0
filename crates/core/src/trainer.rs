//! Training loops and the full-ranking evaluator shared by SLIME4Rec and
//! the baselines.

use slime_data::augment::SameTargetIndex;
use slime_data::{eval_batches, EvalBatch, SeqDataset, Split, TrainSet};
use slime_metrics::{MetricAccumulator, MetricSet};
use slime_nn::TrainContext;
use slime_rng::rngs::StdRng;
use slime_rng::SeedableRng;
use slime_tensor::optim::{Adam, Optimizer};
use slime_tensor::{ops, StateDict};
use slime_trace::{event, span};

use crate::config::{ContrastiveMode, SlimeConfig, TrainConfig};
use crate::contrastive::info_nce_with_targets;
use crate::model::Slime4Rec;
use crate::NextItemModel;

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation metrics at each evaluation point (epoch, metrics).
    pub valid_history: Vec<(usize, MetricSet)>,
    /// Epoch whose parameters were kept (best validation NDCG, or the last
    /// epoch when validation is disabled).
    pub kept_epoch: usize,
}

/// Evaluate a model on pre-built evaluation batches (full ranking over the
/// entire item set; only the padding column 0 is excluded).
pub fn evaluate<M: NextItemModel>(
    model: &M,
    batches: &[EvalBatch],
    cutoffs: &[usize],
) -> MetricSet {
    let _span = span!("eval", {"batches": batches.len()});
    let mut acc = MetricAccumulator::new(cutoffs);
    let mut ctx = TrainContext::eval();
    for b in batches {
        let repr = model.user_repr(&b.inputs, b.batch, &mut ctx);
        let scores = model.score_all(&repr);
        let v = scores.value();
        let vocab = v.shape()[1];
        for (r, &target) in b.targets.iter().enumerate() {
            let row = &v.data()[r * vocab..(r + 1) * vocab];
            // Exclude the padding pseudo-item from the ranking.
            let mut best = 0usize;
            let ts = row[target];
            for (i, &s) in row.iter().enumerate().skip(1) {
                if i == target {
                    continue;
                }
                if s > ts || (s == ts && i < target) {
                    best += 1;
                }
            }
            acc.add_rank(best);
        }
    }
    acc.finish()
}

/// Evaluate on a dataset split directly.
pub fn evaluate_split<M: NextItemModel>(
    model: &M,
    ds: &SeqDataset,
    split: Split,
    tc: &TrainConfig,
) -> MetricSet {
    let batches = eval_batches(ds, split, model.max_len(), tc.batch_size);
    evaluate(model, &batches, &tc.cutoffs)
}

/// How the contrastive second view is produced for [`train_model`].
pub enum ViewStrategy<'a> {
    /// No contrastive loss.
    None,
    /// Re-encode the same inputs under fresh dropout (unsupervised).
    Unsupervised,
    /// Encode a same-target partner sequence (supervised semantic
    /// positives, DuoRec-style), still under fresh dropout.
    Supervised(&'a SameTargetIndex),
}

/// Generic next-item training loop with optional contrastive
/// regularization: `loss = CE(scores, target) + lambda * InfoNCE(view1, view2)`
/// (paper Eq. 36).
///
/// Works for any [`NextItemModel`] — SLIME4Rec and the transformer/RNN/CNN
/// baselines all train through this one function, which keeps comparisons
/// honest.
#[allow(clippy::too_many_arguments)]
pub fn train_model<M: NextItemModel>(
    model: &M,
    ds: &SeqDataset,
    ts: &TrainSet,
    tc: &TrainConfig,
    lambda: f32,
    temperature: f32,
    strategy: ViewStrategy<'_>,
) -> TrainReport {
    assert!(!ts.is_empty(), "no training examples");
    let _train_span = span!("train", {
        "epochs": tc.epochs,
        "batch_size": tc.batch_size,
        "lr": tc.lr as f64,
        "lambda": lambda as f64,
        "examples": ts.len()
    });
    let mut opt = Adam::new(model.parameters(), tc.lr);
    let mut batch_rng = StdRng::seed_from_u64(tc.seed ^ 0x5eed);
    let mut ctx = TrainContext::train(tc.seed);
    let n = model.max_len();

    let mut report = TrainReport {
        epoch_losses: Vec::with_capacity(tc.epochs),
        valid_history: Vec::new(),
        kept_epoch: tc.epochs.saturating_sub(1),
    };
    let mut best: Option<(f64, usize, StateDict)> = None;
    let mut bad_streak = 0usize;

    for epoch in 0..tc.epochs {
        let _epoch_span = span!("epoch", {"n": epoch});
        let mut total = 0.0f64;
        let mut rec_total = 0.0f64;
        let mut cl_total = 0.0f64;
        let mut count = 0usize;
        for batch in ts.epoch_batches(n, tc.batch_size, &mut batch_rng) {
            // Step timing goes to a histogram rather than the event stream:
            // one event per step would swamp trace.jsonl on real runs.
            // lint-allow(l9): trace-gated observability; the duration feeds a histogram, never a value or branch the model sees
            let step_start = slime_trace::enabled().then(std::time::Instant::now);
            opt.zero_grad();

            let repr = model.user_repr(&batch.inputs, batch.batch, &mut ctx);
            let logits = model.score_all(&repr);
            let rec_loss = ops::cross_entropy(&logits, &batch.targets);
            let (cl, loss) = match (&strategy, batch.batch >= 2 && lambda > 0.0) {
                (ViewStrategy::None, _) | (_, false) => (None, rec_loss.clone()),
                (ViewStrategy::Unsupervised, true) => {
                    let view2 = model.user_repr(&batch.inputs, batch.batch, &mut ctx);
                    let cl = info_nce_with_targets(&repr, &view2, &batch.targets, temperature);
                    let loss = ops::add(&rec_loss, &ops::scale(&cl, lambda));
                    (Some(cl), loss)
                }
                (ViewStrategy::Supervised(index), true) => {
                    let partner_ids: Vec<usize> = batch
                        .example_ids
                        .iter()
                        .map(|&i| index.sample_positive(ts, i, &mut ctx.rng))
                        .collect();
                    let partner = ts.make_batch(&partner_ids, n);
                    let view2 = model.user_repr(&partner.inputs, partner.batch, &mut ctx);
                    // Partner sequences share the anchor's target by
                    // construction, so use target-masked InfoNCE.
                    let cl = info_nce_with_targets(&repr, &view2, &batch.targets, temperature);
                    let loss = ops::add(&rec_loss, &ops::scale(&cl, lambda));
                    (Some(cl), loss)
                }
            };
            rec_total += rec_loss.item() as f64;
            if let Some(cl) = &cl {
                let v = cl.item() as f64;
                cl_total += v;
                slime_trace::metrics::hist_record("train.cl_loss", v);
            }
            let loss_value = loss.item() as f64;
            total += loss_value;
            count += 1;
            loss.backward();
            if let Some(max_norm) = tc.clip_norm {
                let norm = slime_tensor::optim::clip_grad_norm(opt.params(), max_norm);
                slime_trace::metrics::hist_record("train.grad_norm", norm as f64);
            }
            opt.step();
            slime_trace::metrics::hist_record("train.loss", loss_value);
            if let Some(t0) = step_start {
                slime_trace::metrics::hist_record(
                    "train.step_ms",
                    t0.elapsed().as_secs_f64() * 1e3,
                );
            }
        }
        let epoch_loss = (total / count.max(1) as f64) as f32;
        report.epoch_losses.push(epoch_loss);
        let denom = count.max(1) as f64;
        event!("epoch_done", {
            "epoch": epoch,
            "loss": epoch_loss as f64,
            "rec": rec_total / denom,
            "cl": cl_total / denom,
            "steps": count
        });
        crate::obs::publish_runtime_gauges();
        if tc.verbose {
            slime_trace::echo(&format!(
                "epoch {epoch}: loss {epoch_loss:.4} (rec {:.4}, cl {:.4})",
                rec_total / denom,
                cl_total / denom
            ));
        }

        // Periodic validation with best-checkpoint keeping.
        if tc.valid_every > 0 && (epoch + 1) % tc.valid_every == 0 {
            let m = evaluate_split(model, ds, Split::Valid, tc);
            let key = *tc.cutoffs.last().unwrap();
            let score = m.ndcg(key);
            event!("valid", {"epoch": epoch, "cutoff": key, "ndcg": score});
            report.valid_history.push((epoch, m));
            let improved = best.as_ref().is_none_or(|(b, _, _)| score > *b);
            if improved {
                best = Some((score, epoch, model.state_dict()));
                bad_streak = 0;
            } else {
                bad_streak += 1;
                if tc.patience > 0 && bad_streak >= tc.patience {
                    event!("early_stop", {"epoch": epoch});
                    if tc.verbose {
                        slime_trace::echo(&format!("early stop at epoch {epoch}"));
                    }
                    break;
                }
            }
        }
    }
    if let Some((_, epoch, sd)) = best {
        model.load_state_dict(&sd);
        report.kept_epoch = epoch;
    }
    report
}

/// Train a fresh SLIME4Rec on `ds` under its configured contrastive mode
/// and return the model, its training report, and test metrics.
pub fn run_slime(
    ds: &SeqDataset,
    cfg: &SlimeConfig,
    tc: &TrainConfig,
) -> (Slime4Rec, TrainReport, MetricSet) {
    let model = Slime4Rec::new(cfg.clone());
    let ts = TrainSet::with_stride(ds, 1, tc.example_stride);
    let index;
    let strategy = match cfg.contrastive {
        ContrastiveMode::None => ViewStrategy::None,
        ContrastiveMode::Unsupervised => ViewStrategy::Unsupervised,
        ContrastiveMode::Supervised => {
            index = SameTargetIndex::new(&ts);
            ViewStrategy::Supervised(&index)
        }
    };
    let report = train_model(&model, ds, &ts, tc, cfg.lambda, cfg.temperature, strategy);
    let test = evaluate_split(&model, ds, Split::Test, tc);
    (model, report, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slime_data::synthetic::{generate_with_core, SyntheticConfig};

    fn tiny_ds() -> SeqDataset {
        let cfg = SyntheticConfig {
            name: "trainer-test".into(),
            users: 60,
            clusters: 4,
            items_per_cluster: 5,
            noise_items: 4,
            min_len: 8,
            max_len: 14,
            low_period: 5,
            high_cycle: 3,
            p_high: 0.6,
            p_noise: 0.1,
        };
        generate_with_core(&cfg, 11, 0)
    }

    fn tiny_slime_cfg(ds: &SeqDataset) -> SlimeConfig {
        let mut c = SlimeConfig::small(ds.num_items());
        c.hidden = 16;
        c.max_len = 10;
        c.layers = 2;
        c
    }

    fn tiny_tc() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            batch_size: 32,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let ds = tiny_ds();
        let mut cfg = tiny_slime_cfg(&ds);
        cfg.contrastive = ContrastiveMode::None;
        let (_, report, _) = run_slime(&ds, &cfg, &tiny_tc());
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(
            report.epoch_losses[2] < report.epoch_losses[0],
            "losses {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn trained_model_beats_untrained() {
        let ds = tiny_ds();
        let cfg = tiny_slime_cfg(&ds);
        let tc = tiny_tc();
        let untrained = Slime4Rec::new(cfg.clone());
        let before = evaluate_split(&untrained, &ds, Split::Test, &tc);
        let (_, _, after) = run_slime(&ds, &cfg, &tc);
        assert!(
            after.ndcg(10) > before.ndcg(10),
            "{} !> {}",
            after.ndcg(10),
            before.ndcg(10)
        );
    }

    #[test]
    fn contrastive_modes_all_train() {
        let ds = tiny_ds();
        let mut tc = tiny_tc();
        tc.epochs = 1;
        for mode in [
            ContrastiveMode::None,
            ContrastiveMode::Unsupervised,
            ContrastiveMode::Supervised,
        ] {
            let mut cfg = tiny_slime_cfg(&ds);
            cfg.contrastive = mode;
            let (_, report, _) = run_slime(&ds, &cfg, &tc);
            assert!(report.epoch_losses[0].is_finite(), "{mode:?}");
        }
    }

    #[test]
    fn validation_keeps_best_checkpoint() {
        let ds = tiny_ds();
        let mut cfg = tiny_slime_cfg(&ds);
        cfg.contrastive = ContrastiveMode::None;
        let mut tc = tiny_tc();
        tc.epochs = 4;
        tc.valid_every = 1;
        let (_, report, _) = run_slime(&ds, &cfg, &tc);
        assert_eq!(report.valid_history.len(), 4);
        let best_epoch = report
            .valid_history
            .iter()
            .max_by(|a, b| a.1.ndcg(10).partial_cmp(&b.1.ndcg(10)).unwrap())
            .unwrap()
            .0;
        assert_eq!(report.kept_epoch, best_epoch);
    }
}
