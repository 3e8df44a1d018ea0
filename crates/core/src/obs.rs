//! Observability glue: republish runtime counters from the dependency-free
//! crates (buffer pool, thread pool, FFT plan cache) as slime-trace gauges.
//!
//! `slime-fft` and `slime-par` cannot depend on `slime-trace` (they are
//! leaves by design), so they expose plain atomic counters; this module
//! polls those and pushes them into the trace metrics store, typically once
//! per epoch plus once at end of run.

/// Publish the current pool / thread-pool / FFT-plan-cache counters as
/// trace gauges. No-op while tracing is off (gauge writes are gated).
pub fn publish_runtime_gauges() {
    use slime_trace::metrics::gauge_set;

    let pool = slime_tensor::pool::stats();
    gauge_set("pool.hits", pool.hits as f64);
    gauge_set("pool.misses", pool.misses as f64);
    gauge_set("pool.bytes_reused", pool.bytes_reused as f64);
    let lookups = pool.hits + pool.misses;
    if lookups > 0 {
        gauge_set("pool.hit_rate", pool.hits as f64 / lookups as f64);
    }

    let par = slime_par::pool_stats();
    gauge_set("par.threads", slime_par::num_threads() as f64);
    gauge_set("par.workers_spawned", par.workers_spawned as f64);
    gauge_set("par.jobs_published", par.jobs_published as f64);
    gauge_set("par.jobs_serial", par.jobs_serial as f64);
    gauge_set("par.chunks_executed", par.chunks_executed as f64);
    gauge_set("par.max_grid", par.max_grid as f64);

    let plans = slime_fft::plan_cache_stats();
    gauge_set("fft.plan_hits", plans.hits as f64);
    gauge_set("fft.plan_misses", plans.misses as f64);

    // 0 = scalar, 1 = avx2+fma (see `slime_tensor::simd::Backend::code`).
    gauge_set("simd.backend", slime_tensor::simd::backend().code() as f64);
    gauge_set(
        "simd.avx2_fma_detected",
        slime_tensor::simd::avx2_fma_detected() as u8 as f64,
    );

    gauge_set(
        "tape.nodes_allocated",
        slime_tensor::nodes_allocated() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_appear_when_tracing_is_on() {
        // The level is process-global; this test only asserts that the
        // publish path writes the expected keys, then restores Off.
        slime_trace::set_level(slime_trace::Level::Summary);
        // Touch each subsystem so the counters are live.
        let _ = slime_tensor::pool::stats();
        slime_par::parallel_for(4, 1, |_, _| {});
        slime_fft::with_cached_plan(16, |_| ());
        publish_runtime_gauges();
        let snap = slime_trace::metrics::snapshot();
        slime_trace::set_level(slime_trace::Level::Off);
        for key in [
            "pool.hits",
            "par.threads",
            "par.chunks_executed",
            "fft.plan_hits",
            "simd.backend",
            "tape.nodes_allocated",
        ] {
            assert!(snap.gauges.contains_key(key), "missing gauge {key}");
        }
        slime_trace::reset();
    }
}
