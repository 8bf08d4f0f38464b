//! `fleet_shared`: 32 tenants of H2 VQE on a 64-device shared-ledger
//! `FleetRuntime` under the `FairShare` arbiter; every fourth tenant
//! schedules with `ContentionAware`, which reads the ledgers on every
//! pick while every dispatch books one. H2 is the cheapest circuit in
//! the repository, so grant rounds, ledger booking, occupancy snapshots,
//! the shared noise cache and the arbiter take their largest share of
//! the wall time here. Runs the shared stepper on one thread.

use crate::harness::{self, derive, measure, Env, Measured, Output, Sim};
use crate::layers::{ratio, Layers};
use crate::trace::{PolicySpans, Span};
use crate::RunResult;
use eqc_core::policy::FairShare;
use eqc_core::{
    ContentionAware, EqcConfig, FleetOutcome, FleetRuntime, PolicyConfig, TenantConfig,
};
use std::sync::Arc;
use std::time::Instant;
use vqa::VqeProblem;

const DEVICES: usize = 64;
const TENANTS: usize = 32;
/// Epochs per tenant per drive.
const EPOCHS: usize = 3;
const SHOTS: usize = 32;
/// Input sets per run (see [`measure`]).
const INPUTS: usize = 4;

/// Output, checks and simulated metrics of a fleet outcome; shared with
/// the service workload.
pub fn output(outcome: &FleetOutcome, fingerprint: String, epochs: usize) -> Output {
    let n = outcome.reports.len() as f64;
    let mut defects = Vec::new();
    for (r, t) in outcome.reports.iter().zip(&outcome.telemetry.tenants) {
        if r.epochs != epochs {
            defects.push(format!(
                "{} trained {} of {epochs} epochs",
                t.label, r.epochs
            ));
        }
    }
    Output {
        fingerprint,
        epochs: outcome.reports.iter().map(|r| r.epochs).sum(),
        defects,
        sim: Sim {
            epochs_per_h: outcome.reports.iter().map(|r| r.epochs).sum::<usize>() as f64
                / outcome.reports.iter().map(|r| r.total_hours).sum::<f64>(),
            final_error_pct: outcome
                .reports
                .iter()
                .map(|r| r.error_vs_reference_pct())
                .sum::<f64>()
                / n,
            queue_wait_h: outcome
                .telemetry
                .tenants
                .iter()
                .map(|t| t.queue_wait_hours)
                .sum(),
            slo_miss_frac: 0.0,
        },
    }
}

/// Fleet-telemetry counters of one outcome.
pub fn telemetry_counters(outcome: &FleetOutcome, layers: &mut Layers) {
    let t = &outcome.telemetry;
    layers.set("fleet.grant_rounds", t.grant_rounds as f64);
    layers.set(
        "fleet.wait_rounds",
        t.tenants.iter().map(|x| x.wait_rounds).sum::<u64>() as f64,
    );
    layers.set(
        "fleet.starved_rounds",
        t.tenants.iter().map(|x| x.starved_rounds).sum::<u64>() as f64,
    );
    layers.set("fleet.snapshot_rebuilds", t.snapshot_rebuilds as f64);
    layers.set("fleet.snapshot_reuses", t.snapshot_reuses as f64);
    layers.set(
        "fleet.snapshot_reuse_ratio",
        ratio(
            t.snapshot_reuses as f64,
            (t.snapshot_reuses + t.snapshot_rebuilds) as f64,
        ),
    );
    layers.set(
        "qdevice.ledger.jobs",
        t.occupancy.iter().map(|o| o.jobs).sum::<u64>() as f64,
    );
    layers.set(
        "qdevice.ledger.booked_h",
        t.occupancy.iter().map(|o| o.booked_hours).sum(),
    );
    layers.set(
        "qdevice.ledger.queued_h",
        t.occupancy.iter().map(|o| o.queued_hours).sum(),
    );
    layers.set("qdevice.shared_noise_builds", t.shared_noise_builds as f64);
    layers.set("qdevice.shared_noise_hits", t.shared_noise_hits as f64);
    layers.set(
        "qdevice.shared_noise_hit_ratio",
        ratio(
            t.shared_noise_hits as f64,
            (t.shared_noise_hits + t.shared_noise_builds) as f64,
        ),
    );
    let absorbed: u64 = t.tenants.iter().map(|x| x.results_absorbed).sum();
    let dispatched: u64 = t.tenants.iter().flat_map(|x| x.client_share.iter()).sum();
    layers.set(
        "master.absorbed_per_dispatched",
        ratio(absorbed as f64, dispatched as f64),
    );
}

/// Wall time, policy time and telemetry of the traced drives of a fleet
/// workload.
#[derive(Debug, Default)]
pub struct FleetTrace {
    pub spans: Arc<PolicySpans>,
    pub layers: Layers,
    wall_s: f64,
    policy_s: f64,
    drives: u32,
    grant_rounds: u64,
}

impl FleetTrace {
    /// Files one traced drive that started at `start`, when the policy
    /// spans read `policy_before`. Counters come from input set 0 only,
    /// so they are deterministic per seed.
    pub fn record(
        &mut self,
        start: Instant,
        policy_before: f64,
        input: usize,
        outcome: &FleetOutcome,
    ) {
        self.wall_s += start.elapsed().as_secs_f64();
        self.policy_s += self.spans.busy_s() - policy_before;
        self.drives += 1;
        self.grant_rounds += outcome.telemetry.grant_rounds;
        if input != 0 {
            return;
        }
        telemetry_counters(outcome, &mut self.layers);
        if let Some(pool) = &outcome.pool {
            self.layers.set("pool.workers", pool.workers_spawned as f64);
            self.layers
                .set("pool.queue_depth_max", pool.queue_depth_max as f64);
            self.layers
                .set("pool.tasks_stolen", pool.tasks_stolen as f64);
        }
    }

    /// The traced result: policy spans, the drive's self time (wall
    /// minus policy spans: stepper, clients and engine together) and the
    /// "where the time goes" table.
    pub fn finish(mut self, m: &Measured, title: &str) -> RunResult {
        let drives = f64::from(self.drives);
        self.spans.set_layers(&mut self.layers, drives);
        let wall = ratio(self.wall_s, drives);
        let self_s = ratio(self.wall_s - self.policy_s, drives);
        self.layers.set("fleet.run.self_s", self_s);
        self.layers.set(
            "fleet.us_per_grant_round",
            ratio(self.wall_s * 1e6, self.grant_rounds as f64),
        );
        let per = |s: &Span| ratio(s.busy_s(), drives);
        harness::print_breakdown(
            title,
            wall,
            &[
                ("policy.arbiter.allocate", per(&self.spans.allocate)),
                ("policy.scheduler.pick", per(&self.spans.pick)),
                ("policy.weighting.weight", per(&self.spans.weight)),
                ("policy.health.on_result", per(&self.spans.on_result)),
                ("fleet.run.self (stepper + clients + engine)", self_s),
            ],
        );
        RunResult::traced(m, self.layers, self.policy_s <= self.wall_s)
    }
}

pub fn run(env: &Env) -> RunResult {
    let problem = VqeProblem::h2();
    let specs = eqc_bench::fleet_specs(DEVICES);
    let tenant = |input: usize, t: usize| {
        let config = EqcConfig::paper_vqe()
            .with_epochs(EPOCHS)
            .with_shots(SHOTS)
            .with_seed(derive(env.seed, input, harness::TENANTS, t as u64));
        let policies = if t % 4 == 3 {
            PolicyConfig::default().with_scheduler(ContentionAware::default())
        } else {
            PolicyConfig::default()
        };
        TenantConfig::new(config)
            .policies(policies)
            .label(format!("h2-{t}"))
    };
    let mut trace = FleetTrace::default();
    let spans = Arc::clone(&trace.spans);

    let m = measure(
        env,
        INPUTS,
        |input, traced| {
            let builder = FleetRuntime::builder()
                .specs(specs.clone())
                .device_seed(derive(env.seed, input, harness::DEVICES, 0))
                .shared();
            let mut fleet = if traced {
                builder.arbiter(spans.wrap_arbiter(FairShare)).build()?
            } else {
                builder.arbiter(FairShare).build()?
            };
            for t in 0..TENANTS {
                let mut tenant = tenant(input, t);
                if traced {
                    tenant.policies = spans.wrap(&tenant.policies);
                }
                fleet.admit(&problem, tenant)?;
            }
            Ok(fleet)
        },
        |mut fleet, input, traced| {
            let (start, before) = (Instant::now(), trace.spans.busy_s());
            let outcome = fleet.run()?;
            if traced {
                trace.record(start, before, input, &outcome);
            }
            Ok(output(&outcome, format!("{outcome:?}"), EPOCHS))
        },
    );
    harness::print_samples(&m);
    if !env.trace {
        return RunResult::end_to_end(&m);
    }
    trace.finish(&m, "fleet_shared (FleetRuntime::run, shared stepper)")
}
