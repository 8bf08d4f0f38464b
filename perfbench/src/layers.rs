//! The per-layer metric set. Every traced run prints every metric; one
//! a workload cannot observe from the public API (a pool counter on a
//! serial workload, a master span inside a fleet) reads 0.

use crate::harness::Metrics;

/// `(name, unit)` of every per-layer metric, in output order — the
/// `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.run_task.calls", "count"),
    ("client.run_task.busy_s", "s"),
    ("client.run_task.p50_us", "us"),
    ("client.run_task.p99_us", "us"),
    ("qsim.circuits_per_s", "1/s"),
    ("master.absorb.calls", "count"),
    ("master.absorb.busy_s", "s"),
    ("master.next_assignment.busy_s", "s"),
    ("master.dispatch_order.busy_s", "s"),
    ("executor.self_s", "s"),
    ("master.absorbed_per_dispatched", "ratio"),
    ("policy.scheduler.pick.calls", "count"),
    ("policy.scheduler.pick.busy_s", "s"),
    ("policy.weighting.weight.calls", "count"),
    ("policy.weighting.weight.busy_s", "s"),
    ("policy.health.on_result.calls", "count"),
    ("policy.health.on_result.busy_s", "s"),
    ("policy.arbiter.allocate.calls", "count"),
    ("policy.arbiter.allocate.busy_s", "s"),
    ("fleet.run.self_s", "s"),
    ("fleet.grant_rounds", "count"),
    ("fleet.us_per_grant_round", "us"),
    ("fleet.wait_rounds", "count"),
    ("fleet.starved_rounds", "count"),
    ("fleet.snapshot_rebuilds", "count"),
    ("fleet.snapshot_reuses", "count"),
    ("fleet.snapshot_reuse_ratio", "ratio"),
    ("qdevice.ledger.jobs", "count"),
    ("qdevice.ledger.booked_h", "h"),
    ("qdevice.ledger.queued_h", "h"),
    ("qdevice.shared_noise_builds", "count"),
    ("qdevice.shared_noise_hits", "count"),
    ("qdevice.shared_noise_hit_ratio", "ratio"),
    ("qdevice.jobs", "count"),
    ("qdevice.folded_pairs", "count"),
    ("qdevice.noise_model_builds", "count"),
    ("qdevice.reported_calibration_builds", "count"),
    ("client.programs_compiled", "count"),
    ("client.program_cache_hits", "count"),
    ("pool.workers", "count"),
    ("pool.queue_depth_max", "count"),
    ("pool.tasks_stolen", "count"),
    ("pool.speedup_vs_des", "ratio"),
    ("qsim.batched_speedup_vs_folded", "ratio"),
    ("service.slo_miss_frac", "fraction"),
    ("session.build_s", "s"),
    ("service.admit.busy_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer values being filled in by one traced run.
#[derive(Debug)]
pub struct Layers(Vec<f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(vec![0.0; PER_LAYER.len()])
    }
}

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// On a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0[i] = value;
    }

    /// The metrics in [`PER_LAYER`] order.
    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for ((name, unit), value) in PER_LAYER.iter().zip(self.0) {
            m.push(name, value, unit);
        }
        m
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
