//! Cloud queue and execution latency model.
//!
//! "Most QC platforms are provided as a cloud service and shared by many
//! users ... wait for each trial going through the waiting queue"
//! (Section I). Queue waits dominate VQA wall-clock (hours on Manhattan
//! vs seconds on Belem) and swing diurnally, producing the paper's
//! epochs/hour spread in Fig. 6 and Toronto's 6.5 -> 0.03 epochs/hour
//! fluctuation. The model: a per-device mean wait modulated by a
//! log-sinusoidal congestion cycle, plus deterministic per-job jitter.

use crate::clock::SimTime;
use crate::error::DeviceError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// The composable base-load curve: a log-sinusoidal congestion cycle
/// factored out of [`QueueModel`] so exogenous [`LoadModel`] generators
/// and the queue-wait model share one shape.
///
/// The multiplicative factor at time `t` is
/// `exp(amplitude * sin(TAU * (t_hours + phase) / period))`, so a curve
/// swings any baseline within `[base/e^amp, base*e^amp]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadCurve {
    /// Amplitude of the log-sinusoidal cycle.
    pub amplitude: f64,
    /// Phase of the cycle, hours.
    pub phase_hours: f64,
    /// Cycle period, hours (24 = daily load pattern).
    pub period_hours: f64,
}

impl LoadCurve {
    /// A flat curve: factor 1 everywhere.
    pub const FLAT: LoadCurve = LoadCurve {
        amplitude: 0.0,
        phase_hours: 0.0,
        period_hours: 24.0,
    };

    /// A daily cycle with the given amplitude and phase.
    pub fn daily(amplitude: f64, phase_hours: f64) -> Self {
        LoadCurve {
            amplitude,
            phase_hours,
            period_hours: 24.0,
        }
    }

    /// Multiplicative congestion factor at `t` (dimensionless, > 0).
    pub fn factor(&self, t: SimTime) -> f64 {
        let phase = TAU * (t.as_hours() + self.phase_hours) / self.period_hours;
        (self.amplitude * phase.sin()).exp()
    }

    /// Validates the curve's parameters.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidQueue`] naming the offending field when the
    /// amplitude or phase is non-finite or the period is not positive.
    pub fn validate(&self) -> Result<(), DeviceError> {
        for (field, v) in [
            ("diurnal_amplitude", self.amplitude),
            ("phase_hours", self.phase_hours),
        ] {
            if !v.is_finite() {
                return Err(DeviceError::InvalidQueue(format!(
                    "{field} must be finite, got {v}"
                )));
            }
        }
        if !(self.period_hours.is_finite() && self.period_hours > 0.0) {
            return Err(DeviceError::InvalidQueue(format!(
                "period_hours must be positive, got {}",
                self.period_hours
            )));
        }
        Ok(())
    }
}

/// Latency model of one device's submission queue.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueModel {
    /// Fixed per-job overhead: submission, compilation, result transfer
    /// (seconds).
    pub overhead_s: f64,
    /// Baseline queue wait (seconds) at neutral congestion.
    pub mean_wait_s: f64,
    /// Amplitude of the log-sinusoidal congestion cycle; wait swings
    /// within `[mean/e^amp, mean*e^amp]`.
    pub diurnal_amplitude: f64,
    /// Phase of the congestion cycle, hours.
    pub phase_hours: f64,
    /// Congestion cycle period, hours (24 = daily load pattern).
    pub period_hours: f64,
    /// Per-shot reset + repetition delay, microseconds.
    pub reset_time_us: f64,
}

impl QueueModel {
    /// A lightly loaded device: seconds of queueing.
    pub fn light(mean_wait_s: f64) -> Self {
        QueueModel {
            overhead_s: 1.0,
            mean_wait_s,
            diurnal_amplitude: 0.4,
            phase_hours: 0.0,
            period_hours: 24.0,
            reset_time_us: 250.0,
        }
    }

    /// A congested device with pronounced diurnal swings.
    pub fn congested(mean_wait_s: f64, diurnal_amplitude: f64, phase_hours: f64) -> Self {
        QueueModel {
            overhead_s: 2.0,
            mean_wait_s,
            diurnal_amplitude,
            phase_hours,
            period_hours: 24.0,
            reset_time_us: 250.0,
        }
    }

    /// Validates the model's parameters.
    ///
    /// The struct's fields are public for literal construction (every
    /// catalog model is a checked constant), so validation is a separate
    /// step rather than an `assert!` buried in a constructor: callers
    /// building models from untrusted input check once and get a typed
    /// error instead of a panic mid-simulation.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidQueue`] naming the offending field when a
    /// latency term is negative or non-finite, or the congestion period
    /// is not positive.
    pub fn validate(&self) -> Result<(), DeviceError> {
        let nonneg = [
            ("overhead_s", self.overhead_s),
            ("mean_wait_s", self.mean_wait_s),
            ("reset_time_us", self.reset_time_us),
        ];
        for (field, v) in nonneg {
            if !(v.is_finite() && v >= 0.0) {
                return Err(DeviceError::InvalidQueue(format!(
                    "{field} must be finite and non-negative, got {v}"
                )));
            }
        }
        self.curve().validate()
    }

    /// The congestion cycle as a composable [`LoadCurve`].
    pub fn curve(&self) -> LoadCurve {
        LoadCurve {
            amplitude: self.diurnal_amplitude,
            phase_hours: self.phase_hours,
            period_hours: self.period_hours,
        }
    }

    /// Queue wait (seconds) for a job submitted at `t`, before jitter.
    pub fn wait_s(&self, t: SimTime) -> f64 {
        self.mean_wait_s * self.curve().factor(t)
    }

    /// Queue wait with deterministic per-job jitter in `[0.8, 1.2]`,
    /// derived from a caller-supplied uniform sample in `[0, 1)`.
    pub fn wait_with_jitter_s(&self, t: SimTime, uniform: f64) -> f64 {
        self.wait_s(t) * (0.8 + 0.4 * uniform.clamp(0.0, 1.0))
    }

    /// Execution time (seconds) of `shots` repetitions of a circuit whose
    /// gates span `circuit_duration_ns`, plus readout.
    pub fn execution_s(&self, circuit_duration_ns: f64, readout_ns: f64, shots: usize) -> f64 {
        let per_shot_ns = circuit_duration_ns + readout_ns + self.reset_time_us * 1e3;
        shots as f64 * per_shot_ns * 1e-9
    }

    /// Total virtual latency of one job: queue wait + overhead +
    /// execution.
    pub fn job_latency_s(
        &self,
        t: SimTime,
        uniform: f64,
        circuit_duration_ns: f64,
        readout_ns: f64,
        shots: usize,
    ) -> f64 {
        self.wait_with_jitter_s(t, uniform)
            + self.overhead_s
            + self.execution_s(circuit_duration_ns, readout_ns, shots)
    }
}

/// Exogenous (non-fleet) load arriving at one device's shared queue:
/// the jobs submitted by the *rest of the cloud's users*, expressed as
/// busy-seconds of backlog flowing into the [`DeviceQueue`] ledger.
///
/// Generators are pure configuration (`Copy`); the Poisson variant's
/// arrival stream state lives inside the owning [`DeviceQueue`] so the
/// model stays comparable and cheap to clone.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LoadModel {
    /// No exogenous load — only fleet tenants occupy the device. The
    /// regime under which the shared drive replays the isolated one.
    #[default]
    None,
    /// A fluid diurnal flow: `busy_per_hour` busy-seconds arrive per
    /// hour, modulated by a [`LoadCurve`] (the paper's day/night queue
    /// pressure swing, Fig. 1).
    Diurnal {
        /// Mean arriving busy-seconds per hour at neutral congestion.
        busy_per_hour: f64,
        /// Congestion cycle shaping the arrival rate.
        curve: LoadCurve,
    },
    /// Periodic bursts: every `interval_s` seconds (offset `phase_s`),
    /// `burst_busy_s` busy-seconds land at once.
    Bursty {
        /// Busy-seconds deposited per burst.
        burst_busy_s: f64,
        /// Seconds between bursts (must be positive).
        interval_s: f64,
        /// Offset of the first burst, seconds.
        phase_s: f64,
    },
    /// Memoryless job arrivals: exponential inter-arrival times at
    /// `jobs_per_hour`, each job contributing `mean_job_s` busy-seconds.
    /// Deterministic per `seed`.
    Poisson {
        /// Mean arrival rate, jobs per hour (must be positive).
        jobs_per_hour: f64,
        /// Busy-seconds contributed per arriving job.
        mean_job_s: f64,
        /// Seed of the arrival stream.
        seed: u64,
    },
}

impl LoadModel {
    /// Validates the generator's parameters.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidLoad`] naming the offending field when a
    /// rate, size or interval is negative or non-finite (so a malformed
    /// generator surfaces as a typed error instead of silent NaN waits).
    pub fn validate(&self) -> Result<(), DeviceError> {
        let nonneg = |field: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(DeviceError::InvalidLoad(format!(
                    "{field} must be finite and non-negative, got {v}"
                )))
            }
        };
        match self {
            LoadModel::None => Ok(()),
            LoadModel::Diurnal {
                busy_per_hour,
                curve,
            } => {
                nonneg("busy_per_hour", *busy_per_hour)?;
                curve
                    .validate()
                    .map_err(|e| DeviceError::InvalidLoad(e.to_string()))
            }
            LoadModel::Bursty {
                burst_busy_s,
                interval_s,
                phase_s,
            } => {
                nonneg("burst_busy_s", *burst_busy_s)?;
                nonneg("phase_s", *phase_s)?;
                if interval_s.is_finite() && *interval_s > 0.0 {
                    Ok(())
                } else {
                    Err(DeviceError::InvalidLoad(format!(
                        "interval_s must be finite and positive, got {interval_s}"
                    )))
                }
            }
            LoadModel::Poisson {
                jobs_per_hour,
                mean_job_s,
                ..
            } => {
                nonneg("mean_job_s", *mean_job_s)?;
                if jobs_per_hour.is_finite() && *jobs_per_hour > 0.0 {
                    Ok(())
                } else {
                    Err(DeviceError::InvalidLoad(format!(
                        "jobs_per_hour must be finite and positive, got {jobs_per_hour}"
                    )))
                }
            }
        }
    }

    /// Instantaneous arrival rate at `t`, busy-seconds per second (the
    /// Poisson variant reports its mean rate). Exposed so the diurnal
    /// curve's periodicity is directly testable.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match self {
            LoadModel::None => 0.0,
            LoadModel::Diurnal {
                busy_per_hour,
                curve,
            } => busy_per_hour / 3600.0 * curve.factor(t),
            LoadModel::Bursty {
                burst_busy_s,
                interval_s,
                ..
            } => burst_busy_s / interval_s,
            LoadModel::Poisson {
                jobs_per_hour,
                mean_job_s,
                ..
            } => jobs_per_hour / 3600.0 * mean_job_s,
        }
    }

    /// Busy-seconds arriving in `(a_s, b_s]`, advancing `poisson` state
    /// for the memoryless variant. The diurnal fluid flow is integrated
    /// by midpoint rule (exact for the mean, deterministic always).
    fn arrivals_between(&self, a_s: f64, b_s: f64, poisson: &mut Option<PoissonArrivals>) -> f64 {
        if b_s <= a_s {
            return 0.0;
        }
        match self {
            LoadModel::None => 0.0,
            LoadModel::Diurnal { .. } => {
                let mid = SimTime::from_secs(0.5 * (a_s + b_s));
                self.rate_at(mid) * (b_s - a_s)
            }
            LoadModel::Bursty {
                burst_busy_s,
                interval_s,
                phase_s,
            } => {
                // Bursts land at phase + k*interval for k = 0, 1, ...;
                // count those in (a, b].
                let first = ((a_s - phase_s) / interval_s).floor() + 1.0;
                let first = first.max(0.0);
                let last = ((b_s - phase_s) / interval_s).floor();
                if last >= first {
                    burst_busy_s * (last - first + 1.0)
                } else {
                    0.0
                }
            }
            LoadModel::Poisson {
                jobs_per_hour,
                mean_job_s,
                seed,
            } => {
                let state = poisson
                    .get_or_insert_with(|| PoissonArrivals::new(*seed, jobs_per_hour / 3600.0));
                let mut total = 0.0;
                while state.next_s <= b_s {
                    total += mean_job_s;
                    state.advance();
                }
                total
            }
        }
    }
}

/// Runtime state of a Poisson arrival stream: the seeded RNG and the
/// next pending arrival instant.
#[derive(Clone, Debug)]
struct PoissonArrivals {
    rng: StdRng,
    rate_per_s: f64,
    next_s: f64,
}

impl PoissonArrivals {
    fn new(seed: u64, rate_per_s: f64) -> Self {
        let mut s = PoissonArrivals {
            rng: StdRng::seed_from_u64(seed),
            rate_per_s,
            next_s: 0.0,
        };
        s.advance();
        s
    }

    /// Draws the next exponential inter-arrival gap.
    fn advance(&mut self) {
        let u: f64 = self.rng.gen();
        self.next_s += -(1.0 - u).ln() / self.rate_per_s;
    }
}

/// The atomically published read side of a [`DeviceQueue`]: a
/// seqlock-guarded scalar triple (booked-until horizon, exogenous
/// backlog, booked-job depth) plus a monotone version counter.
///
/// The booking side of a shared ledger lives behind a `Mutex`; fleet
/// drives that only need occupancy *estimates* (scheduler snapshots,
/// telemetry refreshes) read this side instead, so estimate reads never
/// contend with co-tenant `admit`/`book` critical sections. Writers are
/// always exclusive (`&mut DeviceQueue`, i.e. under the booking mutex),
/// so the odd/even sequence protocol below has a single writer by
/// construction.
#[derive(Debug, Default)]
struct ReadSide {
    /// Sequence counter: odd while a publish is in flight, even once the
    /// scalars are consistent. `seq >> 1` is the monotone version.
    seq: AtomicU64,
    horizon_bits: AtomicU64,
    backlog_bits: AtomicU64,
    jobs: AtomicU64,
}

impl ReadSide {
    /// Publishes the scalar triple. Callers hold `&mut DeviceQueue`, so
    /// there is exactly one publisher at a time.
    fn publish(&self, horizon_s: f64, backlog_s: f64, jobs: u64) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        self.horizon_bits
            .store(horizon_s.to_bits(), Ordering::Relaxed);
        self.backlog_bits
            .store(backlog_s.to_bits(), Ordering::Relaxed);
        self.jobs.store(jobs, Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }
}

/// One consistent read of a ledger's published scalars.
///
/// `version` is monotone per ledger and bumps exactly once per
/// state-changing mutation, so incremental consumers (the fleet's
/// reusable occupancy snapshot) can skip devices whose version has not
/// moved since their last refresh.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LedgerSnapshot {
    /// Monotone mutation counter as of this read.
    pub version: u64,
    /// Earliest instant the device frees up, seconds.
    pub booked_until_s: f64,
    /// Exogenous backlog pending service, busy-seconds.
    pub backlog_s: f64,
    /// Number of intervals booked so far.
    pub jobs_booked: u64,
}

/// A clonable handle onto a ledger's lock-free read side.
///
/// Obtained once per drive via [`DeviceQueue::read_handle`]; reads never
/// take the booking mutex and never allocate.
#[derive(Clone, Debug)]
pub struct QueueReadHandle {
    side: Arc<ReadSide>,
}

impl QueueReadHandle {
    /// Returns the current published version without reading the
    /// scalars (cheapest possible staleness probe).
    pub fn version(&self) -> u64 {
        self.side.seq.load(Ordering::Acquire) >> 1
    }

    /// One consistent read of the published scalars (seqlock retry loop;
    /// retries only while a booking is mid-publish).
    pub fn read(&self) -> LedgerSnapshot {
        loop {
            let s1 = self.side.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let horizon = self.side.horizon_bits.load(Ordering::Relaxed);
            let backlog = self.side.backlog_bits.load(Ordering::Relaxed);
            let jobs = self.side.jobs.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if self.side.seq.load(Ordering::Relaxed) == s1 {
                return LedgerSnapshot {
                    version: s1 >> 1,
                    booked_until_s: f64::from_bits(horizon),
                    backlog_s: f64::from_bits(backlog),
                    jobs_booked: jobs,
                };
            }
        }
    }
}

/// The shared occupancy ledger of one *physical* device: every booked
/// interval on the device's global virtual timeline, across all tenants
/// plus an exogenous [`LoadModel`] backlog.
///
/// This is what makes the fleet one cloud: where each per-tenant backend
/// clone used to keep an independent `busy_until`, the shared drive
/// routes every clone of a physical device through one `DeviceQueue`,
/// so tenant A's bookings push tenant B's start times (and vice versa).
///
/// With `LoadModel::None` and a single tenant the ledger's arithmetic is
/// bit-identical to the isolated path — the equivalence oracle the fleet
/// tests pin.
#[derive(Debug)]
pub struct DeviceQueue {
    base: QueueModel,
    load: LoadModel,
    /// Earliest instant the device frees up (max booked end), seconds.
    horizon_s: f64,
    /// Exogenous backlog pending service, busy-seconds. Decays at one
    /// served second per elapsed second.
    backlog_s: f64,
    /// How far exogenous arrivals have been integrated, seconds.
    cursor_s: f64,
    poisson: Option<PoissonArrivals>,
    /// Booked `(start_s, end_s)` intervals, in booking order.
    booked: Vec<(f64, f64)>,
    booked_busy_s: f64,
    /// Atomically published read side; refreshed on every state change.
    read_side: Arc<ReadSide>,
}

impl Clone for DeviceQueue {
    /// A clone gets its *own* read side (publishing the current state):
    /// the handle is an identity of one ledger instance, not of the
    /// queue-model configuration.
    fn clone(&self) -> Self {
        let clone = DeviceQueue {
            base: self.base.clone(),
            load: self.load,
            horizon_s: self.horizon_s,
            backlog_s: self.backlog_s,
            cursor_s: self.cursor_s,
            poisson: self.poisson.clone(),
            booked: self.booked.clone(),
            booked_busy_s: self.booked_busy_s,
            read_side: Arc::new(ReadSide::default()),
        };
        clone
            .read_side
            .publish(clone.horizon_s, clone.backlog_s, clone.booked.len() as u64);
        clone
    }
}

impl DeviceQueue {
    /// Builds a ledger over a validated base queue model and exogenous
    /// load generator.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidQueue`] / [`DeviceError::InvalidLoad`] when
    /// either component fails validation.
    pub fn new(base: QueueModel, load: LoadModel) -> Result<Self, DeviceError> {
        base.validate()?;
        load.validate()?;
        Ok(DeviceQueue {
            base,
            load,
            horizon_s: 0.0,
            backlog_s: 0.0,
            cursor_s: 0.0,
            poisson: None,
            booked: Vec::new(),
            booked_busy_s: 0.0,
            read_side: Arc::new(ReadSide::default()),
        })
    }

    /// A lock-free handle onto this ledger's published read side.
    ///
    /// Snapshot consumers (fleet occupancy refreshes, telemetry) clone
    /// one handle per device up front and never touch the booking mutex
    /// again.
    pub fn read_handle(&self) -> QueueReadHandle {
        QueueReadHandle {
            side: Arc::clone(&self.read_side),
        }
    }

    /// The base queue-wait model.
    pub fn base(&self) -> &QueueModel {
        &self.base
    }

    /// The exogenous load generator.
    pub fn load(&self) -> &LoadModel {
        &self.load
    }

    /// Earliest instant the device frees up, seconds (0 when empty).
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// Exogenous backlog pending service as of the last advance, busy-seconds.
    pub fn backlog_s(&self) -> f64 {
        self.backlog_s
    }

    /// Number of intervals booked so far (the queue-depth counter).
    pub fn jobs_booked(&self) -> u64 {
        self.booked.len() as u64
    }

    /// Total booked busy-seconds.
    pub fn booked_busy_s(&self) -> f64 {
        self.booked_busy_s
    }

    /// The booked `(start_s, end_s)` intervals, in booking order.
    pub fn booked(&self) -> &[(f64, f64)] {
        &self.booked
    }

    /// Integrates exogenous arrivals up to `t` and decays the backlog at
    /// one served second per elapsed second. Non-monotone queries clamp
    /// (time never runs backwards in the ledger).
    pub fn decay_to(&mut self, t: SimTime) {
        let t_s = t.as_secs();
        if t_s <= self.cursor_s {
            return;
        }
        let arrived = self
            .load
            .arrivals_between(self.cursor_s, t_s, &mut self.poisson);
        let served = t_s - self.cursor_s;
        let backlog = (self.backlog_s + arrived - served).max(0.0);
        self.cursor_s = t_s;
        // Publish (and bump the version) only when a *published* scalar
        // actually changed: a zero-load cursor advance leaves the read
        // side untouched, so incremental snapshot consumers keep
        // reusing their copy.
        if backlog.to_bits() != self.backlog_s.to_bits() {
            self.backlog_s = backlog;
            self.read_side
                .publish(self.horizon_s, self.backlog_s, self.booked.len() as u64);
        }
    }

    /// Phase one of a booking: resolves the start time of a job
    /// submitted at `submit` whose duration is not yet known, using a
    /// caller-supplied jitter uniform (the tenant backend's own RNG
    /// draw, preserving per-tenant noise streams).
    ///
    /// `start = (submit + jittered wait + overhead + backlog).max(horizon)`
    /// — exactly the isolated backend's arithmetic when the backlog is
    /// empty. Pair with [`DeviceQueue::book`] once the duration is known.
    pub fn admit(&mut self, submit: SimTime, jitter_uniform: f64) -> SimTime {
        self.admit_shifted(submit, 0.0, jitter_uniform)
    }

    /// [`DeviceQueue::admit`] for a submitter whose local clock starts
    /// `offset_s` seconds into the ledger's timeline (a tenant arriving
    /// mid-run). The base queue wait is read at the local `submit`, as
    /// the submitter's private path would read it; the exogenous
    /// backlog and the booked horizon are read at the global
    /// `offset_s + submit`. Returns the global start. A zero offset is
    /// exactly [`DeviceQueue::admit`].
    pub fn admit_shifted(
        &mut self,
        submit: SimTime,
        offset_s: f64,
        jitter_uniform: f64,
    ) -> SimTime {
        let global = submit + offset_s;
        self.decay_to(global);
        let mut wait = self.base.wait_with_jitter_s(submit, jitter_uniform) + self.base.overhead_s;
        if self.backlog_s > 0.0 {
            wait += self.backlog_s;
        }
        (global + wait).max(SimTime::from_secs(self.horizon_s))
    }

    /// Phase two of a booking: records `duration_s` of occupancy from
    /// `started` and advances the horizon. `started` must come from
    /// [`DeviceQueue::admit`] (possibly deferred later by the caller, e.g.
    /// around a maintenance window) so intervals never overlap.
    pub fn book(&mut self, started: SimTime, duration_s: f64) {
        let s = started.as_secs();
        let e = s + duration_s.max(0.0);
        if e > self.horizon_s {
            self.horizon_s = e;
        }
        self.booked.push((s, e));
        self.booked_busy_s += duration_s.max(0.0);
        self.read_side
            .publish(self.horizon_s, self.backlog_s, self.booked.len() as u64);
    }

    /// Books a job of known duration submitted at `t` and returns its
    /// start instant — the one-shot [`DeviceQueue::admit`] +
    /// [`DeviceQueue::book`] pair, using the nominal (unjittered) wait.
    pub fn enqueue(&mut self, t: SimTime, duration_s: f64) -> SimTime {
        self.decay_to(t);
        let mut wait = self.base.wait_s(t) + self.base.overhead_s;
        if self.backlog_s > 0.0 {
            wait += self.backlog_s;
        }
        let start = (t + wait).max(SimTime::from_secs(self.horizon_s));
        self.book(start, duration_s);
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_oscillates_around_mean() {
        let q = QueueModel::congested(100.0, 1.0, 0.0);
        let min = (0..48)
            .map(|h| q.wait_s(SimTime::from_hours(h as f64 * 0.5)))
            .fold(f64::MAX, f64::min);
        let max = (0..48)
            .map(|h| q.wait_s(SimTime::from_hours(h as f64 * 0.5)))
            .fold(0.0, f64::max);
        assert!((min - 100.0 / std::f64::consts::E).abs() < 2.0);
        assert!((max - 100.0 * std::f64::consts::E).abs() < 2.0);
    }

    #[test]
    fn light_queue_is_stable() {
        let q = QueueModel::light(5.0);
        for h in 0..24 {
            let w = q.wait_s(SimTime::from_hours(h as f64));
            assert!(w > 3.0 && w < 8.0, "wait {w} out of band");
        }
    }

    #[test]
    fn execution_scales_with_shots() {
        let q = QueueModel::light(1.0);
        let one = q.execution_s(5000.0, 4000.0, 1);
        let many = q.execution_s(5000.0, 4000.0, 8192);
        assert!((many / one - 8192.0).abs() < 1e-6);
        // 8192 shots at ~259 us/shot is on the order of 2 seconds.
        assert!(many > 1.5 && many < 3.0, "unexpected execution time {many}");
    }

    #[test]
    fn jitter_bounds() {
        let q = QueueModel::light(10.0);
        let t = SimTime::ZERO;
        let lo = q.wait_with_jitter_s(t, 0.0);
        let hi = q.wait_with_jitter_s(t, 1.0);
        assert!((hi / lo - 1.5).abs() < 1e-9);
    }

    #[test]
    fn job_latency_combines_terms() {
        let q = QueueModel::light(5.0);
        let total = q.job_latency_s(SimTime::ZERO, 0.5, 5000.0, 4000.0, 100);
        assert!(total > q.overhead_s);
        assert!(total < 60.0);
    }

    #[test]
    fn validation_accepts_catalog_models_and_rejects_garbage() {
        assert!(QueueModel::light(5.0).validate().is_ok());
        assert!(QueueModel::congested(123.0, 0.8, 14.0).validate().is_ok());
        for bad in [
            QueueModel {
                mean_wait_s: -1.0,
                ..QueueModel::light(5.0)
            },
            QueueModel {
                overhead_s: f64::NAN,
                ..QueueModel::light(5.0)
            },
            QueueModel {
                period_hours: 0.0,
                ..QueueModel::light(5.0)
            },
            QueueModel {
                diurnal_amplitude: f64::INFINITY,
                ..QueueModel::light(5.0)
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(DeviceError::InvalidQueue(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn curve_factor_matches_inline_wait_math() {
        let q = QueueModel::congested(100.0, 1.0, 3.0);
        for h in 0..48 {
            let t = SimTime::from_hours(h as f64 * 0.37);
            assert_eq!(q.wait_s(t), q.mean_wait_s * q.curve().factor(t));
        }
        assert_eq!(LoadCurve::FLAT.factor(SimTime::from_hours(11.0)), 1.0);
    }

    #[test]
    fn load_models_validate() {
        assert!(LoadModel::None.validate().is_ok());
        assert!(LoadModel::Diurnal {
            busy_per_hour: 1800.0,
            curve: LoadCurve::daily(0.5, 2.0),
        }
        .validate()
        .is_ok());
        for bad in [
            LoadModel::Diurnal {
                busy_per_hour: -1.0,
                curve: LoadCurve::FLAT,
            },
            LoadModel::Diurnal {
                busy_per_hour: 1.0,
                curve: LoadCurve::daily(f64::NAN, 0.0),
            },
            LoadModel::Bursty {
                burst_busy_s: 60.0,
                interval_s: 0.0,
                phase_s: 0.0,
            },
            LoadModel::Poisson {
                jobs_per_hour: f64::INFINITY,
                mean_job_s: 30.0,
                seed: 1,
            },
            LoadModel::Poisson {
                jobs_per_hour: 6.0,
                mean_job_s: f64::NAN,
                seed: 1,
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(DeviceError::InvalidLoad(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn ledger_matches_isolated_arithmetic_without_load() {
        // With no exogenous load the ledger's admit/book pair reproduces
        // the isolated backend's (submit + wait).max(busy_until) exactly.
        let q = QueueModel::light(5.0);
        let mut ledger = DeviceQueue::new(q.clone(), LoadModel::None).unwrap();
        let mut busy_until = SimTime::ZERO;
        for (i, (submit_s, u, exec_s)) in [(0.0, 0.3, 40.0), (2.0, 0.9, 15.0), (100.0, 0.1, 5.0)]
            .into_iter()
            .enumerate()
        {
            let submit = SimTime::from_secs(submit_s);
            let wait = q.wait_with_jitter_s(submit, u) + q.overhead_s;
            let expect = (submit + wait).max(busy_until);
            let start = ledger.admit(submit, u);
            assert_eq!(start, expect, "job {i}");
            ledger.book(start, exec_s);
            busy_until = start + exec_s;
            assert_eq!(ledger.horizon_s(), busy_until.as_secs());
        }
        assert_eq!(ledger.jobs_booked(), 3);
        assert!((ledger.booked_busy_s() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn exogenous_backlog_delays_and_decays() {
        let load = LoadModel::Bursty {
            burst_busy_s: 600.0,
            interval_s: 3600.0,
            phase_s: 5.0,
        };
        let mut with_load = DeviceQueue::new(QueueModel::light(5.0), load).unwrap();
        let mut without = DeviceQueue::new(QueueModel::light(5.0), LoadModel::None).unwrap();
        // Just past the first burst: the backlog pushes the start later.
        let t = SimTime::from_secs(10.0);
        let delayed = with_load.enqueue(t, 1.0);
        let clean = without.enqueue(t, 1.0);
        assert!(
            delayed - clean > 500.0,
            "burst backlog should delay the start by most of its busy-seconds"
        );
        // Long idle stretch with no further arrivals: the backlog decays.
        with_load.decay_to(SimTime::from_secs(3500.0));
        assert_eq!(with_load.backlog_s(), 0.0);
    }

    #[test]
    fn poisson_load_is_deterministic_per_seed() {
        let load = LoadModel::Poisson {
            jobs_per_hour: 120.0,
            mean_job_s: 20.0,
            seed: 9,
        };
        let run = |load| {
            let mut q = DeviceQueue::new(QueueModel::light(2.0), load).unwrap();
            (0..20)
                .map(|i| {
                    q.enqueue(SimTime::from_secs(i as f64 * 90.0), 5.0)
                        .as_secs()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(load), run(load));
        let other = LoadModel::Poisson {
            jobs_per_hour: 120.0,
            mean_job_s: 20.0,
            seed: 10,
        };
        assert_ne!(run(load), run(other));
    }

    #[test]
    fn booked_intervals_stay_ordered_even_for_stale_submits() {
        let mut q = DeviceQueue::new(QueueModel::light(1.0), LoadModel::None).unwrap();
        // Second submit is *earlier* than the first — the horizon still
        // serializes the bookings.
        let a = q.enqueue(SimTime::from_secs(500.0), 100.0);
        let b = q.enqueue(SimTime::from_secs(0.0), 100.0);
        assert!(b.as_secs() >= a.as_secs() + 100.0);
        let booked = q.booked();
        assert!(booked.windows(2).all(|w| w[0].1 <= w[1].0));
    }

    #[test]
    fn read_handle_tracks_every_mutation_and_versions_monotonically() {
        let load = LoadModel::Bursty {
            burst_busy_s: 300.0,
            interval_s: 600.0,
            phase_s: 5.0,
        };
        let mut q = DeviceQueue::new(QueueModel::light(5.0), load).unwrap();
        let handle = q.read_handle();
        let initial = handle.read();
        assert_eq!(
            (
                initial.booked_until_s,
                initial.backlog_s,
                initial.jobs_booked
            ),
            (0.0, 0.0, 0)
        );
        let mut last_version = initial.version;
        for i in 0..20 {
            let t = SimTime::from_secs(i as f64 * 120.0);
            let start = q.admit(t, 0.5);
            q.book(start, 30.0);
            let snap = handle.read();
            assert_eq!(snap.booked_until_s, q.horizon_s(), "job {i}");
            assert_eq!(snap.backlog_s, q.backlog_s(), "job {i}");
            assert_eq!(snap.jobs_booked, q.jobs_booked(), "job {i}");
            assert!(snap.version > last_version, "version must move on booking");
            last_version = snap.version;
        }
    }

    #[test]
    fn zero_load_idle_advances_leave_the_version_alone() {
        // With no exogenous load a decay_to is a pure cursor advance:
        // nothing the read side publishes changes, so the version must
        // not move — that is what makes occupancy refreshes
        // allocation-free (and copy-free) at steady state.
        let mut q = DeviceQueue::new(QueueModel::light(5.0), LoadModel::None).unwrap();
        let handle = q.read_handle();
        let start = q.enqueue(SimTime::from_secs(1.0), 10.0);
        assert!(start.as_secs() > 0.0);
        let v = handle.version();
        for i in 2..100 {
            q.decay_to(SimTime::from_secs(i as f64 * 50.0));
        }
        assert_eq!(handle.version(), v, "idle advances must not bump versions");
        q.book(SimTime::from_secs(5000.0), 1.0);
        assert!(handle.version() > v);
    }

    #[test]
    fn clones_get_independent_read_sides() {
        let mut q = DeviceQueue::new(QueueModel::light(5.0), LoadModel::None).unwrap();
        q.enqueue(SimTime::from_secs(0.0), 60.0);
        let mut c = q.clone();
        let q_handle = q.read_handle();
        let c_handle = c.read_handle();
        assert_eq!(c_handle.read().jobs_booked, q_handle.read().jobs_booked);
        c.enqueue(SimTime::from_secs(1.0), 60.0);
        assert_eq!(q_handle.read().jobs_booked, 1, "clone must not alias");
        assert_eq!(c_handle.read().jobs_booked, 2);
    }

    #[test]
    fn concurrent_reads_never_tear() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;

        // One writer books under a mutex while readers hammer the lock
        // free side. Every triple a reader observes must be a state the
        // writer actually published (recorded *before* publication), i.e.
        // some prefix of the booking history — never a mix of two states.
        let q = DeviceQueue::new(QueueModel::light(2.0), LoadModel::None).unwrap();
        let handle = q.read_handle();
        let history = Arc::new(Mutex::new(vec![(0u64, 0.0f64, 0.0f64, 0u64)]));
        let ledger = Arc::new(Mutex::new(q));
        let done = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..3)
            .map(|_| {
                let handle = handle.clone();
                let history = Arc::clone(&history);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    // At least one read even if the writer finishes
                    // before this thread is first scheduled.
                    let mut seen = 0u64;
                    loop {
                        let s = handle.read();
                        let quad = (s.version, s.booked_until_s, s.backlog_s, s.jobs_booked);
                        assert!(
                            history.lock().unwrap().contains(&quad),
                            "torn read: {quad:?} was never published"
                        );
                        seen += 1;
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();

        for i in 0..2000u64 {
            let mut q = ledger.lock().unwrap();
            let t = SimTime::from_secs(i as f64 * 3.0);
            let start = q.admit(t, (i % 7) as f64 / 7.0);
            // Record the post-book state before it becomes visible, so a
            // reader can never observe a state missing from the history.
            let next_version = q.read_handle().version() + 1;
            let horizon = start.as_secs() + 1.5;
            history.lock().unwrap().push((
                next_version,
                horizon.max(q.horizon_s()),
                q.backlog_s(),
                q.jobs_booked() + 1,
            ));
            q.book(start, 1.5);
        }
        done.store(true, Ordering::Release);
        for r in readers {
            assert!(r.join().unwrap() > 0, "readers must have made progress");
        }
    }

    #[test]
    fn period_and_phase_shift_the_cycle() {
        let a = QueueModel::congested(100.0, 1.0, 0.0);
        let b = QueueModel::congested(100.0, 1.0, 12.0);
        let t = SimTime::from_hours(6.0);
        // Half-period phase shift inverts the congestion.
        assert!((a.wait_s(t) * b.wait_s(t) - 100.0 * 100.0).abs() < 1.0);
    }
}
