//! The two workloads (data, and serving load) and the settings they
//! share (model shape, training length, serving policy). Every number here is part of the benchmark's definition.

/// Where a workload's interactions come from.
#[derive(Clone, Copy)]
pub enum Data {
    /// `slime_data::synthetic::profile(name, scale)` with its user count
    /// replaced by `users` (the catalog size follows `scale`), 5-core
    /// filtered.
    Profile {
        name: &'static str,
        scale: f64,
        users: usize,
    },
    /// `LongTailConfig::at_scale(items)` with `users` users.
    LongTail { items: usize, users: usize },
}

/// The open-loop phase of one workload's serving load; the closed loop
/// gets `CLOSED_SHARE` of `--seconds`.
#[derive(Clone, Copy)]
pub struct Load {
    /// Open-loop arrival rate: fixed, and light enough that latency is
    /// measured without queueing. Measured (perfbench/steadiness.json) it
    /// is about a quarter of the two-connection closed-loop capacity.
    pub open_qps: f64,
    /// Share of `--seconds` spent in the open loop.
    pub open_share: f64,
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub data: Data,
    /// Whether set-up is the served checkpoint's load-and-boot (serving
    /// workloads) rather than data, index, model and eval batches.
    pub setup_is_boot: bool,
    pub load: Load,
}

/// Hidden size, sequence length, depth, batch and contrastive weight: the
/// paper's shape.
pub const HIDDEN: usize = 64;
pub const MAX_LEN: usize = 50;
pub const LAYERS: usize = 2;
pub const BATCH: usize = 256;
pub const LAMBDA: f32 = 0.1;
/// Epochs of the timed `train_model` call.
pub const EPOCHS: usize = 1;
/// Epochs of the bench-side step loop: `EPOCHS` checked against
/// `train_model`, the rest for more step-time samples.
pub const TIMING_EPOCHS: usize = 2;
/// `TrainSet` prefix stride: above every sequence length, so one prefix
/// per user.
pub const EXAMPLE_STRIDE: usize = 1_000;
/// Top-k, exclude flag, history length, connections and batching policy
/// of every served request (`slime serve` defaults otherwise).
pub const SERVE_K: usize = 10;
pub const SERVE_EXCLUDE: bool = true;
pub const SERVE_HIST_LEN: usize = 30;
pub const SERVE_CLIENTS: usize = 2;
pub const SERVE_WORKERS: usize = 1;
pub const SERVE_MAX_BATCH: usize = 32;
/// Latency limit for goodput, measured from the scheduled send.
pub const LIMIT_MS: f64 = 50.0;
/// Share of `--seconds` spent in the closed loop.
pub const CLOSED_SHARE: f64 = 0.2;
/// The serving workload's set-up is repeated this many times before the
/// load and again after it, and the median of all reported.
pub const SETUP_REPEATS: usize = 2;
/// Training workloads' set-up is cheap, so it is repeated more: this many
/// times at each of three points of the run.
pub const TRAIN_SETUP_REPEATS: usize = 7;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "train-paper",
        data: Data::Profile {
            name: "beauty",
            scale: 2.0,
            users: 7200,
        },
        setup_is_boot: false,
        load: Load {
            open_qps: 400.0,
            open_share: 0.25,
        },
    },
    Workload {
        name: "serve-catalog",
        data: Data::LongTail {
            items: 50_000,
            users: 2048,
        },
        setup_is_boot: true,
        load: Load {
            open_qps: 70.0,
            open_share: 0.5,
        },
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}
