//! `vqe_ensemble`: the paper's EQC run — Heisenberg 4-qubit VQE on the
//! 10-device catalog ensemble, weight band 0.5–1.5, 8192 shots, trained
//! by `Ensemble::train`'s deterministic discrete-event executor on one
//! thread. Engine-bound: a kernel or noise-cache change shows here, an
//! orchestration change must not.

use crate::harness::{self, derive, measure, Env, Output, Sim};
use crate::layers::{ratio, Layers};
use crate::replica::{ReplicaExecutor, ReplicaSpans};
use crate::stats;
use crate::trace::{PolicySpans, Span};
use crate::RunResult;
use eqc_core::{
    DiscreteEventExecutor, Ensemble, EnsembleSession, EqcConfig, Executor, PolicyConfig,
    TrainingReport, WeightBounds,
};
use std::sync::Arc;
use vqa::VqeProblem;

/// Epochs per drive.
const EPOCHS: usize = 4;
/// Shots per circuit (the paper's setting).
const SHOTS: usize = 8192;
/// Input sets per run (see [`measure`]): one training converges
/// differently per seed, so the error averages over many.
const INPUTS: usize = 48;

fn output(report: &TrainingReport, session: &mut EnsembleSession<'_>) -> Output {
    let queued_s: f64 = session
        .split_mut()
        .0
        .iter()
        .map(|c| c.backend().queued_seconds())
        .sum();
    let defects = if report.epochs == EPOCHS {
        Vec::new()
    } else {
        vec![format!("trained {} of {EPOCHS} epochs", report.epochs)]
    };
    Output {
        fingerprint: format!("{report:?}"),
        epochs: report.epochs,
        defects,
        sim: Sim {
            epochs_per_h: report.epochs_per_hour(),
            final_error_pct: report.error_vs_reference_pct(),
            queue_wait_h: queued_s / 3600.0,
            slo_miss_frac: 0.0,
        },
    }
}

/// Engine and client counters of one drive's session.
fn engine_counters(session: &mut EnsembleSession<'_>, layers: &mut Layers) {
    let engine = session.engine_telemetry();
    layers.set("qdevice.jobs", engine.jobs as f64);
    layers.set("qdevice.folded_pairs", engine.folded_pairs as f64);
    let clients = session.split_mut().0;
    let sum = |f: &dyn Fn(&eqc_core::ClientNode) -> u64| -> f64 {
        clients.iter().map(f).sum::<u64>() as f64
    };
    layers.set(
        "qdevice.noise_model_builds",
        sum(&|c| c.backend().noise_model_builds()),
    );
    layers.set(
        "qdevice.reported_calibration_builds",
        sum(&|c| c.backend().reported_calibration_builds()),
    );
    layers.set("client.programs_compiled", sum(&|c| c.programs_compiled()));
    layers.set(
        "client.program_cache_hits",
        sum(&|c| c.program_cache_hits()),
    );
}

pub fn run(env: &Env) -> RunResult {
    let problem = VqeProblem::heisenberg_4q();
    let config = EqcConfig::paper_vqe()
        .with_epochs(EPOCHS)
        .with_shots(SHOTS)
        .with_weights(WeightBounds::new(0.5, 1.5).expect("valid band"));
    let policy_spans = Arc::new(PolicySpans::default());
    let replica = ReplicaSpans::default();
    let session_build = Span::default();
    let mut layers = Layers::default();
    let mut circuits = 0u64;

    let m = measure(
        env,
        INPUTS,
        |input, traced| {
            let policies = if traced {
                policy_spans.wrap(&PolicyConfig::default())
            } else {
                PolicyConfig::default()
            };
            let ensemble = Ensemble::builder()
                .specs(qdevice::catalog::vqe_ensemble())
                .device_seed(derive(env.seed, input, harness::DEVICES, 0))
                .config(config.with_seed(derive(env.seed, input, harness::TENANTS, 0)))
                .policies(policies)
                .build()?;
            if traced {
                session_build.time(|| ensemble.session(&problem))
            } else {
                ensemble.session(&problem)
            }
        },
        |mut session, input, traced| {
            let report = if traced {
                ReplicaExecutor { spans: &replica }.run(&mut session)?
            } else {
                DiscreteEventExecutor::new().run(&mut session)?
            };
            if traced {
                circuits += report.clients.iter().map(|c| c.circuits_run).sum::<u64>();
                if input == 0 {
                    engine_counters(&mut session, &mut layers);
                }
            }
            Ok(output(&report, &mut session))
        },
    );
    harness::print_samples(&m);

    if !env.trace {
        return RunResult::end_to_end(&m);
    }
    let drives = replica.drive.calls() as f64;
    let per = |s: &Span| ratio(s.busy_s(), drives);
    let calls = |s: &Span| ratio(s.calls() as f64, drives);
    let us = replica.run_task_us.borrow();
    layers.set("client.run_task.calls", calls(&replica.run_task));
    layers.set("client.run_task.busy_s", per(&replica.run_task));
    layers.set("client.run_task.p50_us", stats::median(&us).unwrap_or(0.0));
    layers.set(
        "client.run_task.p99_us",
        stats::percentile(&us, 0.99).unwrap_or(0.0),
    );
    layers.set(
        "qsim.circuits_per_s",
        ratio(circuits as f64, replica.run_task.busy_s()),
    );
    layers.set("master.absorb.calls", calls(&replica.absorb));
    layers.set("master.absorb.busy_s", per(&replica.absorb));
    layers.set(
        "master.next_assignment.busy_s",
        per(&replica.next_assignment),
    );
    layers.set("master.dispatch_order.busy_s", per(&replica.dispatch_order));
    layers.set("executor.self_s", ratio(replica.executor_self_s(), drives));
    layers.set(
        "master.absorbed_per_dispatched",
        ratio(
            replica.absorb.calls() as f64,
            replica.run_task.calls() as f64,
        ),
    );
    policy_spans.set_layers(&mut layers, drives);
    layers.set(
        "session.build_s",
        ratio(session_build.busy_s(), session_build.calls() as f64),
    );
    let wall = per(&replica.drive);
    harness::print_breakdown(
        "vqe_ensemble (DES replica)",
        wall,
        &[
            ("client.run_task", per(&replica.run_task)),
            ("master.absorb", per(&replica.absorb)),
            (
                "  of which policy.weighting.weight",
                per(&policy_spans.weight),
            ),
            (
                "  of which policy.health.on_result",
                per(&policy_spans.on_result),
            ),
            ("master.next_assignment", per(&replica.next_assignment)),
            ("master.dispatch_order", per(&replica.dispatch_order)),
            ("  of which policy.scheduler.pick", per(&policy_spans.pick)),
            (
                "executor.self (replica loop)",
                ratio(replica.executor_self_s(), drives),
            ),
        ],
    );
    let reconciled = replica.children_s() <= replica.drive.busy_s();
    RunResult::traced(&m, layers, reconciled)
}
