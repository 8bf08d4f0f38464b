//! Layer attribution from outside the crates: span accumulators and
//! forwarding wrappers around the public policy traits.
//!
//! Every wrapper forwards *every* trait method to the wrapped policy —
//! names, labels and capability flags included — so the master builds
//! the same probes and reports the same `PolicyTelemetry` as with the
//! bare policy; only the decision calls are timed.

use crate::layers::{ratio, Layers};
use eqc_core::policy::{
    ArbiterContext, ClientHealth, HealthContext, HealthVerdict, ScheduleContext, Scheduler,
    TenantArbiter, WeightContext, WeightDecision, Weighting,
};
use eqc_core::PolicyConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls and busy time of one layer boundary. Thread-safe, so a policy
/// consulted from a pooled coordinator accumulates into the same span.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    /// Runs `f`, charging its wall time to this span.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_nanos() as u64);
        out
    }

    /// Charges one call of `nanos` to this span.
    pub fn record(&self, nanos: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Busy time recorded, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// The four policy decision spans of one traced drive, shared by every
/// tenant's wrapped stack and the wrapped arbiter.
#[derive(Debug, Default)]
pub struct PolicySpans {
    pub pick: Span,
    pub weight: Span,
    pub on_result: Span,
    pub allocate: Span,
}

impl PolicySpans {
    /// Busy time summed over the four spans. They never nest inside
    /// each other, so the sum is wall time spent in policy code.
    pub fn busy_s(&self) -> f64 {
        self.pick.busy_s() + self.weight.busy_s() + self.on_result.busy_s() + self.allocate.busy_s()
    }

    /// Sets the policy per-layer metrics, per traced drive.
    pub fn set_layers(&self, layers: &mut Layers, drives: f64) {
        for (name, span) in [
            ("policy.scheduler.pick", &self.pick),
            ("policy.weighting.weight", &self.weight),
            ("policy.health.on_result", &self.on_result),
            ("policy.arbiter.allocate", &self.allocate),
        ] {
            layers.set(&format!("{name}.calls"), ratio(span.calls() as f64, drives));
            layers.set(&format!("{name}.busy_s"), ratio(span.busy_s(), drives));
        }
    }

    /// Wraps each policy of `stack` so its decisions charge these spans.
    pub fn wrap(self: &Arc<Self>, stack: &PolicyConfig) -> PolicyConfig {
        PolicyConfig {
            scheduler: Arc::new(TimedScheduler {
                inner: Arc::clone(&stack.scheduler),
                spans: Arc::clone(self),
            }),
            weighting: Arc::new(TimedWeighting {
                inner: Arc::clone(&stack.weighting),
                spans: Arc::clone(self),
            }),
            health: Arc::new(TimedHealth {
                inner: Arc::clone(&stack.health),
                spans: Arc::clone(self),
            }),
        }
    }

    /// Wraps a tenant arbiter so its grants charge these spans.
    pub fn wrap_arbiter(self: &Arc<Self>, inner: impl TenantArbiter + 'static) -> TimedArbiter {
        TimedArbiter {
            inner: Box::new(inner),
            spans: Arc::clone(self),
        }
    }
}

#[derive(Debug)]
struct TimedScheduler {
    inner: Arc<dyn Scheduler>,
    spans: Arc<PolicySpans>,
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs_queue_estimates(&self) -> bool {
        self.inner.needs_queue_estimates()
    }

    fn lookahead_s(&self) -> f64 {
        self.inner.lookahead_s()
    }

    fn pick(&self, ctx: &ScheduleContext<'_>) -> usize {
        self.spans.pick.time(|| self.inner.pick(ctx))
    }
}

#[derive(Debug)]
struct TimedWeighting {
    inner: Arc<dyn Weighting>,
    spans: Arc<PolicySpans>,
}

impl Weighting for TimedWeighting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn weight(&self, ctx: &WeightContext<'_>) -> WeightDecision {
        self.spans.weight.time(|| self.inner.weight(ctx))
    }
}

#[derive(Debug)]
struct TimedHealth {
    inner: Arc<dyn ClientHealth>,
    spans: Arc<PolicySpans>,
}

impl ClientHealth for TimedHealth {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn monitors(&self) -> bool {
        self.inner.monitors()
    }

    fn on_result(&self, ctx: &HealthContext) -> HealthVerdict {
        self.spans.on_result.time(|| self.inner.on_result(ctx))
    }

    fn readmit(&self, ctx: &HealthContext) -> bool {
        self.inner.readmit(ctx)
    }
}

/// A [`TenantArbiter`] whose grant rounds charge a [`PolicySpans`].
#[derive(Debug)]
pub struct TimedArbiter {
    inner: Box<dyn TenantArbiter>,
    spans: Arc<PolicySpans>,
}

impl TenantArbiter for TimedArbiter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&self, ctx: &ArbiterContext<'_>) -> Vec<usize> {
        self.spans.allocate.time(|| self.inner.allocate(ctx))
    }
}
