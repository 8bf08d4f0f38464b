//! From calibration data to executable noise.
//!
//! [`NoiseModel`] instantiates the paper's three error classes for one
//! (compacted) physical circuit: depolarizing gate error, T1/T2 thermal
//! relaxation scheduled along per-qubit timelines (including idle decay),
//! and readout confusion at measurement. Two executors share the model:
//!
//! * [`execute_density`] — exact density-matrix evolution (default for the
//!   paper's 4-7 qubit workloads);
//! * [`execute_trajectories`] — Monte-Carlo quantum-trajectory unraveling
//!   on state vectors, usable beyond the density-matrix qubit cap and kept
//!   as an ablation of the simulation method.
//!
//! Both are thin compatibility wrappers over the compiled-program engine
//! layer ([`mod@crate::compile`] + [`qsim::program`]): the circuit and noise
//! schedule compile to a flat op-tape once, then an engine replays it.
//! The pre-engine implementations survive verbatim in [`mod@reference`] as
//! the bit-equivalence oracle for tests and benchmarks.

use crate::calibration::Calibration;
use qcircuit::{Circuit, Gate};
use qsim::sampler::ReadoutError;
use qsim::{Counts, DensityEngine, DensityMatrix, KrausChannel, TrajectoryEngine};
use rand::Rng;
use std::collections::HashMap;

/// Per-qubit noise figures of a compacted circuit register.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QubitNoise {
    /// T1 in nanoseconds.
    pub t1_ns: f64,
    /// T2 in nanoseconds.
    pub t2_ns: f64,
    /// Depolarizing probability per physical 1q gate.
    pub gate_error_1q: f64,
    /// Readout flip probability.
    pub readout_error: f64,
}

/// A noise model aligned with a compacted physical circuit: index `i`
/// refers to compact qubit `i`, which hosts physical qubit
/// `active_physical[i]`.
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseModel {
    qubits: Vec<QubitNoise>,
    cx_errors: HashMap<(usize, usize), f64>,
    /// 1q gate duration (ns).
    pub gate_time_1q_ns: f64,
    /// CX duration (ns).
    pub gate_time_2q_ns: f64,
    /// Readout duration (ns).
    pub readout_time_ns: f64,
}

impl NoiseModel {
    /// Projects a device calibration onto the active physical qubits of a
    /// compacted circuit: `active_physical[i]` is the physical qubit
    /// hosting compact qubit `i`.
    ///
    /// # Panics
    ///
    /// Panics if an active qubit is outside the calibration.
    pub fn from_calibration(cal: &Calibration, active_physical: &[usize]) -> Self {
        let qubits = active_physical
            .iter()
            .map(|&p| {
                let qc = cal.qubit(p);
                QubitNoise {
                    t1_ns: qc.t1_us * 1e3,
                    t2_ns: qc.t2_us.min(2.0 * qc.t1_us) * 1e3,
                    gate_error_1q: qc.gate_error_1q,
                    readout_error: qc.readout_error,
                }
            })
            .collect();
        let mut cx_errors = HashMap::new();
        for (i, &pi) in active_physical.iter().enumerate() {
            for (j, &pj) in active_physical.iter().enumerate().skip(i + 1) {
                cx_errors.insert((i, j), cal.cx_error(pi, pj));
            }
        }
        NoiseModel {
            qubits,
            cx_errors,
            gate_time_1q_ns: cal.gate_time_1q_ns,
            gate_time_2q_ns: cal.gate_time_2q_ns,
            readout_time_ns: cal.readout_time_ns,
        }
    }

    /// Assembles a model from pre-projected parts — the per-cycle noise
    /// cache rebuilds drifted models through this without touching a
    /// [`Calibration`].
    pub(crate) fn from_parts(
        qubits: Vec<QubitNoise>,
        cx_errors: HashMap<(usize, usize), f64>,
        gate_time_1q_ns: f64,
        gate_time_2q_ns: f64,
        readout_time_ns: f64,
    ) -> Self {
        NoiseModel {
            qubits,
            cx_errors,
            gate_time_1q_ns,
            gate_time_2q_ns,
            readout_time_ns,
        }
    }

    /// An ideal (noise-free) model over `n` compact qubits; useful for
    /// testing and the paper's ideal-simulator baseline.
    pub fn ideal(n: usize) -> Self {
        NoiseModel {
            qubits: vec![
                QubitNoise {
                    t1_ns: f64::INFINITY,
                    t2_ns: f64::INFINITY,
                    gate_error_1q: 0.0,
                    readout_error: 0.0,
                };
                n
            ],
            cx_errors: HashMap::new(),
            gate_time_1q_ns: Calibration::DEFAULT_T1Q_NS,
            gate_time_2q_ns: Calibration::DEFAULT_T2Q_NS,
            readout_time_ns: Calibration::DEFAULT_READOUT_NS,
        }
    }

    /// Number of compact qubits covered.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Noise figures of compact qubit `q`.
    pub fn qubit(&self, q: usize) -> &QubitNoise {
        &self.qubits[q]
    }

    /// CX error between two compact qubits (0 when never registered —
    /// e.g. the ideal model).
    pub fn cx_error(&self, a: usize, b: usize) -> f64 {
        self.cx_errors
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or(0.0)
    }

    /// The readout confusion model across the register.
    pub fn readout(&self) -> ReadoutError {
        ReadoutError::new(
            self.qubits
                .iter()
                .map(|q| q.readout_error.min(0.5))
                .collect(),
        )
    }

    fn relaxation(&self, q: usize, duration_ns: f64) -> Option<KrausChannel> {
        let n = &self.qubits[q];
        if duration_ns <= 0.0 || !n.t1_ns.is_finite() {
            return None;
        }
        Some(KrausChannel::thermal_relaxation(
            n.t1_ns,
            n.t2_ns,
            duration_ns,
        ))
    }
}

/// One event of the noisy schedule, delivered in execution order.
#[derive(Clone, Debug)]
pub enum ScheduledOp<'a> {
    /// Apply a gate unitary; the index points into the circuit's gate
    /// list (program compilation uses it to map parameterized gates onto
    /// rebind slots).
    Unitary(usize, &'a Gate),
    /// Apply a noise channel to the listed compact qubits.
    Channel(KrausChannel, Vec<usize>),
}

/// Walks the circuit with per-qubit timelines, invoking the callback for
/// unitaries and noise channels in schedule order. Shared by program
/// compilation and the reference executors so their physics agree.
/// Returns the scheduled duration (ns), readout included.
pub(crate) fn schedule<F>(circuit: &Circuit, noise: &NoiseModel, mut apply: F) -> f64
where
    F: FnMut(ScheduledOp<'_>),
{
    let n = circuit.num_qubits();
    let mut qubit_time = vec![0.0f64; n];
    for (gate_idx, g) in circuit.gates().iter().enumerate() {
        let qs = g.qubits();
        if g.is_virtual() {
            // Virtual RZ: perfect, instantaneous frame change.
            apply(ScheduledOp::Unitary(gate_idx, g));
            continue;
        }
        let start = qs.iter().map(|&q| qubit_time[q]).fold(0.0, f64::max);
        // Idle decay catch-up for operands that were waiting.
        for &q in &qs {
            let idle = start - qubit_time[q];
            if let Some(ch) = noise.relaxation(q, idle) {
                apply(ScheduledOp::Channel(ch, vec![q]));
            }
        }
        apply(ScheduledOp::Unitary(gate_idx, g));
        let dur = if g.is_two_qubit() {
            noise.gate_time_2q_ns
        } else {
            noise.gate_time_1q_ns
        };
        // Gate-concurrent relaxation and depolarizing error.
        match qs[..] {
            [q] => {
                if let Some(ch) = noise.relaxation(q, dur) {
                    apply(ScheduledOp::Channel(ch, vec![q]));
                }
                let p = noise.qubits[q].gate_error_1q;
                if p > 0.0 {
                    apply(ScheduledOp::Channel(
                        KrausChannel::depolarizing_1q(p),
                        vec![q],
                    ));
                }
                qubit_time[q] = start + dur;
            }
            [a, b] => {
                for &q in &[a, b] {
                    if let Some(ch) = noise.relaxation(q, dur) {
                        apply(ScheduledOp::Channel(ch, vec![q]));
                    }
                }
                let p = noise.cx_error(a, b);
                if p > 0.0 {
                    apply(ScheduledOp::Channel(
                        KrausChannel::depolarizing_2q(p),
                        vec![a, b],
                    ));
                }
                qubit_time[a] = start + dur;
                qubit_time[b] = start + dur;
            }
            _ => unreachable!(),
        }
    }
    // Measurement: align all qubits to the end, decay over the alignment
    // gap plus the readout window.
    let end = qubit_time.iter().copied().fold(0.0, f64::max);
    for (q, &t) in qubit_time.iter().enumerate().take(n) {
        let gap = end - t + noise.readout_time_ns;
        if let Some(ch) = noise.relaxation(q, gap) {
            apply(ScheduledOp::Channel(ch, vec![q]));
        }
    }
    end + noise.readout_time_ns
}

/// Executes a bound, compacted physical circuit on the exact
/// density-matrix simulator under `noise`, sampling `shots` measurements
/// through the readout confusion model.
///
/// Compatibility wrapper: compiles the circuit into a
/// [`qsim::CompiledProgram`] and runs a fresh [`DensityEngine`].
/// Repeated executions of the same structure should compile once and
/// hold a long-lived engine instead (see [`mod@crate::compile`] and
/// [`crate::QpuBackend`]). Byte-identical to
/// [`reference::execute_density`].
///
/// Returns the counts histogram and the scheduled circuit duration in
/// nanoseconds.
///
/// # Panics
///
/// Panics if the circuit still has unbound parameters, or exceeds
/// [`DensityMatrix::MAX_QUBITS`].
pub fn execute_density<R: Rng + ?Sized>(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: usize,
    rng: &mut R,
) -> (Counts, f64) {
    assert!(
        circuit.num_qubits() <= DensityMatrix::MAX_QUBITS,
        "{} qubits exceed the density engine cap",
        circuit.num_qubits()
    );
    let program = crate::compile::compile_bound(circuit, noise, &crate::CompileOptions::default());
    let counts = DensityEngine::new().run_program(&program, shots, rng);
    (counts, program.duration_ns())
}

/// Executes via Monte-Carlo quantum trajectories: each trajectory unravels
/// the Kraus channels stochastically on a pure state, then contributes
/// `shots / trajectories` measurement samples (plus remainder spread over
/// the first trajectories).
///
/// Compatibility wrapper over the compiled-program
/// [`TrajectoryEngine`]; byte-identical to
/// [`reference::execute_trajectories`]. Exact in expectation; variance
/// shrinks with more trajectories. Usable beyond the density-matrix
/// qubit cap.
///
/// # Panics
///
/// Panics if the circuit has unbound parameters or `trajectories == 0`.
pub fn execute_trajectories<R: Rng + ?Sized>(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: usize,
    trajectories: usize,
    rng: &mut R,
) -> (Counts, f64) {
    let program = crate::compile::compile_bound(circuit, noise, &crate::CompileOptions::default());
    let counts = TrajectoryEngine::new(trajectories).run_program(&program, shots, rng);
    (counts, program.duration_ns())
}

/// The pre-engine executors, preserved verbatim.
///
/// These walk the schedule gate by gate, re-materialize every matrix,
/// clone the state per Kraus operator and insert shots one by one —
/// exactly the code the engine layer replaced. They exist as the
/// bit-equivalence oracle: the equivalence suite and the
/// `engine` criterion bench run them against the compiled path and
/// demand identical counts. Do not use them on a hot path.
pub mod reference {
    use super::*;
    use qsim::density::baseline;
    use qsim::sampler::sample_indices;
    use qsim::StateVector;

    /// Pre-engine shot aggregation: one histogram insert per shot.
    fn sample_counts_legacy<R: Rng + ?Sized>(
        probs: &[f64],
        n_qubits: usize,
        shots: usize,
        rng: &mut R,
    ) -> Counts {
        assert_eq!(
            probs.len(),
            1usize << n_qubits,
            "distribution size mismatch"
        );
        let mut counts = Counts::new(n_qubits);
        for idx in sample_indices(probs, shots, rng) {
            counts.record(idx as u64, 1);
        }
        counts
    }

    /// Pre-engine [`super::execute_density`]: direct schedule walk with
    /// the preserved pre-optimization kernels and per-operator clones.
    ///
    /// # Panics
    ///
    /// Same conditions as [`super::execute_density`].
    pub fn execute_density<R: Rng + ?Sized>(
        circuit: &Circuit,
        noise: &NoiseModel,
        shots: usize,
        rng: &mut R,
    ) -> (Counts, f64) {
        assert_eq!(
            circuit.num_params(),
            0,
            "execute_density requires a fully bound circuit"
        );
        let n = circuit.num_qubits();
        let mut rho = DensityMatrix::new(n);
        let duration = schedule(circuit, noise, |op| match op {
            ScheduledOp::Unitary(_, g) => {
                let m = g.matrix(&[]);
                match g.qubits()[..] {
                    [q] => baseline::apply_unitary_1q(&mut rho, &m, q),
                    [a, b] => baseline::apply_unitary_2q(&mut rho, &m, a, b),
                    _ => unreachable!(),
                }
            }
            ScheduledOp::Channel(ch, qs) => baseline::apply_channel(&mut rho, &ch, &qs),
        });
        rho.normalize();
        let probs = noise.readout().apply_to_distribution(&rho.probabilities());
        let counts = sample_counts_legacy(&probs, n, shots, rng);
        (counts, duration)
    }

    /// Pre-engine [`super::execute_trajectories`]: re-walks the schedule
    /// per trajectory with per-operator state clones.
    ///
    /// # Panics
    ///
    /// Same conditions as [`super::execute_trajectories`].
    pub fn execute_trajectories<R: Rng + ?Sized>(
        circuit: &Circuit,
        noise: &NoiseModel,
        shots: usize,
        trajectories: usize,
        rng: &mut R,
    ) -> (Counts, f64) {
        assert!(trajectories > 0, "need at least one trajectory");
        assert_eq!(
            circuit.num_params(),
            0,
            "execute_trajectories requires a fully bound circuit"
        );
        let n = circuit.num_qubits();
        let readout = noise.readout();
        let mut counts = Counts::new(n);
        let base = shots / trajectories;
        let extra = shots % trajectories;
        let mut duration = 0.0;
        for t in 0..trajectories {
            let mut sv = StateVector::new(n);
            duration = schedule(circuit, noise, |op| match op {
                ScheduledOp::Unitary(_, g) => {
                    let m = g.matrix(&[]);
                    match g.qubits()[..] {
                        [q] => sv.apply_1q(&m, q),
                        [a, b] => sv.apply_2q(&m, a, b),
                        _ => unreachable!(),
                    }
                }
                ScheduledOp::Channel(ch, qs) => apply_channel_trajectory(&mut sv, &ch, &qs, rng),
            });
            let traj_shots = base + usize::from(t < extra);
            if traj_shots == 0 {
                continue;
            }
            for idx in sv.sample(traj_shots, rng) {
                let corrupted = readout.corrupt(idx as u64, rng);
                counts.record(corrupted, 1);
            }
        }
        (counts, duration)
    }

    /// Stochastically applies one Kraus operator of `ch`, selected with
    /// its Born probability, renormalizing the state (standard
    /// quantum-trajectory unraveling).
    fn apply_channel_trajectory<R: Rng + ?Sized>(
        sv: &mut StateVector,
        ch: &KrausChannel,
        qs: &[usize],
        rng: &mut R,
    ) {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        let ops = ch.operators();
        for (i, k) in ops.iter().enumerate() {
            let mut cand = sv.clone();
            match qs[..] {
                [q] => cand.apply_1q(k, q),
                [a, b] => cand.apply_2q(k, a, b),
                _ => unreachable!(),
            }
            let p = cand.norm_sqr();
            acc += p;
            if r < acc || i == ops.len() - 1 {
                cand.normalize();
                *sv = cand;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::CircuitBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ghz(n: usize) -> Circuit {
        let mut b = CircuitBuilder::new(n);
        b.h(0);
        for q in 0..n - 1 {
            b.cx(q, q + 1);
        }
        b.build()
    }

    fn noisy_model(n: usize) -> NoiseModel {
        let cal = Calibration::uniform(n, 80.0, 60.0, 0.002, 0.02, 0.03);
        let active: Vec<usize> = (0..n).collect();
        NoiseModel::from_calibration(&cal, &active)
    }

    #[test]
    fn ideal_model_reproduces_statevector() {
        let c = ghz(3);
        let mut rng = StdRng::seed_from_u64(1);
        let (counts, duration) = execute_density(&c, &NoiseModel::ideal(3), 20_000, &mut rng);
        let p0 = counts.probability(0);
        let p7 = counts.probability(0b111);
        assert!((p0 - 0.5).abs() < 0.02);
        assert!((p7 - 0.5).abs() < 0.02);
        assert_eq!(counts.total(), 20_000);
        assert!(duration > 0.0);
    }

    #[test]
    fn noise_leaks_into_forbidden_states() {
        let c = ghz(3);
        let mut rng = StdRng::seed_from_u64(2);
        let (counts, _) = execute_density(&c, &noisy_model(3), 50_000, &mut rng);
        let bad = counts.fraction_where(|b| b != 0 && b != 0b111);
        assert!(bad > 0.02, "expected visible GHZ error, got {bad}");
        assert!(bad < 0.5, "noise unreasonably high: {bad}");
    }

    #[test]
    fn worse_calibration_worse_fidelity() {
        let c = ghz(4);
        let mk = |cx: f64| {
            let cal = Calibration::uniform(4, 80.0, 60.0, 0.001, cx, 0.02);
            NoiseModel::from_calibration(&cal, &[0, 1, 2, 3])
        };
        let mut rng = StdRng::seed_from_u64(3);
        let (good, _) = execute_density(&c, &mk(0.005), 40_000, &mut rng);
        let (bad, _) = execute_density(&c, &mk(0.05), 40_000, &mut rng);
        let err = |c: &Counts| c.fraction_where(|b| b != 0 && b != 0b1111);
        // Roughly 3 extra CX errors of 4.5% each separate the two models;
        // the readout/decoherence floor is shared.
        assert!(
            err(&bad) > err(&good) + 0.05,
            "{} vs {}",
            err(&bad),
            err(&good)
        );
    }

    #[test]
    fn trajectories_agree_with_density() {
        let c = ghz(3);
        let noise = noisy_model(3);
        let mut rng = StdRng::seed_from_u64(4);
        let (dens, d_dur) = execute_density(&c, &noise, 40_000, &mut rng);
        let (traj, t_dur) = execute_trajectories(&c, &noise, 40_000, 400, &mut rng);
        assert_eq!(d_dur, t_dur, "schedules must agree");
        // Compare the GHZ success probabilities within sampling noise.
        let ds = dens.probability(0) + dens.probability(0b111);
        let ts = traj.probability(0) + traj.probability(0b111);
        assert!((ds - ts).abs() < 0.03, "density {ds} vs trajectories {ts}");
    }

    #[test]
    fn duration_accounts_for_depth_and_readout() {
        let c = ghz(3); // depth: H + 2 CX sequential on the chain
        let noise = NoiseModel::ideal(3);
        let mut rng = StdRng::seed_from_u64(5);
        let (_, dur) = execute_density(&c, &noise, 1, &mut rng);
        let expected = noise.gate_time_1q_ns + 2.0 * noise.gate_time_2q_ns + noise.readout_time_ns;
        assert!(
            (dur - expected).abs() < 1e-9,
            "duration {dur} vs {expected}"
        );
    }

    #[test]
    fn readout_error_alone_flips_bits() {
        let mut b = CircuitBuilder::new(2);
        b.x(0);
        let c = b.build();
        let cal = Calibration::uniform(2, 1e6, 1e6, 0.0, 0.0, 0.1);
        let noise = NoiseModel::from_calibration(&cal, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(6);
        let (counts, _) = execute_density(&c, &noise, 50_000, &mut rng);
        // P(correct |01>) = 0.9 * 0.9.
        assert!((counts.probability(0b01) - 0.81).abs() < 0.01);
    }

    #[test]
    fn from_calibration_projects_active_qubits() {
        let mut cal = Calibration::uniform(5, 100.0, 80.0, 0.001, 0.01, 0.02);
        cal.qubit_mut(3).t1_us = 40.0;
        cal.set_cx_error(1, 3, 0.09);
        let noise = NoiseModel::from_calibration(&cal, &[1, 3]);
        assert_eq!(noise.num_qubits(), 2);
        assert!((noise.qubit(1).t1_ns - 40_000.0).abs() < 1e-9);
        assert!((noise.cx_error(0, 1) - 0.09).abs() < 1e-12);
    }

    #[test]
    fn unbound_circuit_rejected() {
        let mut b = CircuitBuilder::new(1);
        b.ry_sym(0, 0);
        let c = b.build();
        let result = std::panic::catch_unwind(move || {
            let mut rng = StdRng::seed_from_u64(0);
            execute_density(&c, &NoiseModel::ideal(1), 10, &mut rng)
        });
        assert!(result.is_err());
    }
}
