//! `service_pooled`: a streaming `FleetService` on the pooled
//! coordinator (two workers) over 16 devices under the
//! `EarliestDeadlineFirst` arbiter. Tenants arrive at seeded Poisson
//! times via `admit_at`, mix Heisenberg 4-qubit VQE and ring-4 QAOA,
//! and half carry deadlines. Every tenant runs
//! `SimParallelism::Pipeline { lanes: 1 }`: the batched group-fork
//! density path and the prefix cache, inline. The only workload on the
//! worker pool, service admission and retirement, EDF and the batched
//! density path.
//!
//! Every run also drives input set 0 on the discrete-event substrate
//! and with `SimParallelism::Serial`; both outcomes must equal the
//! pooled one.

use crate::fleet::FleetTrace;
use crate::harness::{self, derive, measure, Env, Output};
use crate::layers::ratio;
use crate::stats;
use crate::trace::Span;
use crate::RunResult;
use eqc_core::policy::EarliestDeadlineFirst;
use eqc_core::{
    EqcConfig, EqcError, FleetRuntime, FleetService, ServiceOutcome, SimParallelism, TenantConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use vqa::{QaoaProblem, VqaProblem, VqeProblem};

const DEVICES: usize = 16;
const WORKERS: usize = 2;
/// Input sets per run (see [`measure`]).
const INPUTS: usize = 4;
/// Interleaved pooled / DES / serial drives of input set 0 in a traced
/// run, for the speedup ratios.
const SUBSTITUTION_ROUNDS: usize = 3;
const TENANTS: usize = 12;
/// Epochs per tenant.
const EPOCHS: usize = 2;
const SHOTS: usize = 256;
/// Mean Poisson inter-arrival gap, virtual hours.
const MEAN_GAP_H: f64 = 0.001;
/// Deadline budgets of the deadline-carrying tenants, virtual hours from
/// arrival: the first cohort's is below a solo Heisenberg tenant's
/// makespan (about 0.014 h), later cohorts' are looser.
const DEADLINE_H: f64 = 0.010;
const DEADLINE_STEP_H: f64 = 0.004;

/// Where one drive of the inputs runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Variant {
    /// The measured configuration: pooled coordinator, batched path.
    Pooled,
    /// Same inputs on the discrete-event substrate.
    Des,
    /// Same inputs with the per-client folded density path.
    Serial,
}

/// Exponential inter-arrival gaps, deterministic in the seed.
fn poisson_arrivals(n: usize, mean_gap_h: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln() * mean_gap_h;
            at
        })
        .collect()
}

fn fingerprint(o: &ServiceOutcome) -> String {
    // Pool counters differ by substrate by design; everything else must
    // not.
    format!("{:?}", (&o.fleet.reports, &o.fleet.telemetry, &o.service))
}

fn output(o: &ServiceOutcome) -> Output {
    let mut out = crate::fleet::output(&o.fleet, fingerprint(o), EPOCHS);
    let s = &o.service;
    if s.retirements != s.admissions {
        out.defects.push(format!(
            "{} of {} tenants retired",
            s.retirements, s.admissions
        ));
    }
    let with_deadline = s.deadline_hits + s.deadline_misses;
    out.sim.slo_miss_frac = ratio(s.deadline_misses as f64, with_deadline as f64);
    out
}

pub fn run(env: &Env) -> RunResult {
    let vqe = VqeProblem::heisenberg_4q();
    let qaoa = QaoaProblem::maxcut_ring4();
    let specs = eqc_bench::fleet_specs(DEVICES);
    let arrivals: Vec<Vec<f64>> = (0..INPUTS)
        .map(|input| {
            let seed = derive(env.seed, input, harness::ARRIVALS, 0);
            poisson_arrivals(TENANTS, MEAN_GAP_H, seed)
        })
        .collect();
    let tenant = |input: usize, t: usize, parallelism: SimParallelism| {
        let seed = derive(env.seed, input, harness::TENANTS, t as u64);
        let (problem, base): (&dyn VqaProblem, EqcConfig) = if t.is_multiple_of(2) {
            (&vqe, EqcConfig::paper_vqe())
        } else {
            (&qaoa, EqcConfig::paper_qaoa())
        };
        let config = base
            .with_epochs(EPOCHS)
            .with_shots(SHOTS)
            .with_seed(seed)
            .with_sim_parallelism(parallelism);
        let tc = TenantConfig::new(config).label(format!("t{t}"));
        let tc = if t % 4 >= 2 {
            tc.deadline(DEADLINE_H + DEADLINE_STEP_H * (t / 4) as f64)
        } else {
            tc
        };
        (problem, tc)
    };
    let mut trace = FleetTrace::default();
    let spans = Arc::clone(&trace.spans);
    let admit_span = Span::default();
    let setup = |variant: Variant, input: usize, traced: bool| {
        let builder = FleetRuntime::builder()
            .specs(specs.clone())
            .device_seed(derive(env.seed, input, harness::DEVICES, 0));
        let builder = match variant {
            Variant::Des => builder.des(),
            Variant::Pooled | Variant::Serial => builder.pooled_workers(WORKERS),
        };
        let mut service = if traced {
            builder
                .arbiter(spans.wrap_arbiter(EarliestDeadlineFirst))
                .service()?
        } else {
            builder.arbiter(EarliestDeadlineFirst).service()?
        };
        let parallelism = if variant == Variant::Serial {
            SimParallelism::Serial
        } else {
            SimParallelism::Pipeline { lanes: 1 }
        };
        for (t, &at_h) in arrivals[input].iter().enumerate() {
            let (problem, mut tc) = tenant(input, t, parallelism);
            if traced {
                tc.policies = spans.wrap(&tc.policies);
                admit_span.time(|| service.admit_at(problem, tc, at_h))?;
            } else {
                service.admit_at(problem, tc, at_h)?;
            }
        }
        Ok::<FleetService<'_>, EqcError>(service)
    };
    let mut m = measure(
        env,
        INPUTS,
        |input, traced| setup(Variant::Pooled, input, traced),
        |service, input, traced| {
            let (start, before) = (Instant::now(), trace.spans.busy_s());
            let outcome = service.close()?;
            if traced {
                trace.record(start, before, input, &outcome.fleet);
            }
            Ok(output(&outcome))
        },
    );

    // The substitution oracles: input set 0 on the discrete-event
    // substrate and on the folded (non-batched) density path must equal
    // its pooled reference. Traced runs repeat them, interleaved with
    // pooled drives of the same input, for the speedup ratios.
    let variant_s = |variant: Variant, m: &mut harness::Measured| -> Option<f64> {
        let mut wall = None;
        let out = setup(variant, 0, false).and_then(|service| {
            let start = Instant::now();
            let o = service.close();
            wall = Some(start.elapsed().as_secs_f64());
            o.map(|o| output(&o))
        });
        m.check(&format!("{variant:?} drive of input 0"), 0, out)
            .then_some(wall)
            .flatten()
    };
    let (mut pooled_s, mut des_s, mut serial_s) = (Vec::new(), Vec::new(), Vec::new());
    let rounds = if env.trace { SUBSTITUTION_ROUNDS } else { 1 };
    for _ in 0..rounds {
        if env.trace {
            pooled_s.extend(variant_s(Variant::Pooled, &mut m));
        }
        des_s.extend(variant_s(Variant::Des, &mut m));
        serial_s.extend(variant_s(Variant::Serial, &mut m));
    }
    harness::print_samples(&m);
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let shown = |v: &[f64]| match stats::median(v) {
        Some(x) => format!("{x:.4}s"),
        None => "-".into(),
    };
    println!(
        "# input 0 drives (medians of {rounds}): pooled={} des={} serial={}",
        shown(&pooled_s),
        shown(&des_s),
        shown(&serial_s)
    );

    if !env.trace {
        return RunResult::end_to_end(&m);
    }
    let layers = &mut trace.layers;
    let pooled = median(&pooled_s);
    layers.set("pool.speedup_vs_des", ratio(median(&des_s), pooled));
    layers.set(
        "qsim.batched_speedup_vs_folded",
        ratio(median(&serial_s), pooled),
    );
    layers.set(
        "service.slo_miss_frac",
        m.sim().map_or(0.0, |s| s.slo_miss_frac),
    );
    layers.set(
        "service.admit.busy_s",
        ratio(
            admit_span.busy_s(),
            admit_span.calls() as f64 / TENANTS as f64,
        ),
    );
    trace.finish(
        &m,
        "service_pooled (FleetService::close, pooled coordinator)",
    )
}
