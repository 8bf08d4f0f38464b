//! Property-based tests of the simulation substrate's core invariants.

use proptest::prelude::*;
use qsim::noise::KrausChannel;
use qsim::statevector::StateVector;
use qsim::{gates, CMatrix, DensityMatrix, Pauli, C64};

/// Strategy: angles in a couple of periods.
fn angle() -> impl Strategy<Value = f64> {
    -7.0..7.0f64
}

/// Builds a random 1q unitary from three Euler angles.
fn unitary_1q(a: f64, b: f64, c: f64) -> CMatrix {
    gates::rz(a) * gates::ry(b) * gates::rz(c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Euler-composed matrices are always unitary.
    #[test]
    fn euler_composition_is_unitary(a in angle(), b in angle(), c in angle()) {
        prop_assert!(unitary_1q(a, b, c).is_unitary(1e-9));
    }

    /// Unitary evolution preserves the norm of any reachable state.
    #[test]
    fn statevector_norm_preserved(
        a in angle(), b in angle(), c in angle(),
        q in 0usize..4,
        ctrl in 0usize..4,
    ) {
        let mut sv = StateVector::new(4);
        sv.apply_1q(&unitary_1q(a, b, c), q);
        if ctrl != q {
            sv.apply_2q(&gates::cx(), ctrl, q);
        }
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-10);
    }

    /// Pauli expectations of physical states always lie in [-1, 1].
    #[test]
    fn pauli_expectations_bounded(a in angle(), b in angle(), c in angle()) {
        let mut sv = StateVector::new(2);
        sv.apply_1q(&unitary_1q(a, b, c), 0);
        sv.apply_2q(&gates::cx(), 0, 1);
        for p in [Pauli::X, Pauli::Y, Pauli::Z] {
            let e = sv.expectation_pauli(&[(0, p), (1, p)]);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&e), "{:?}: {}", p, e);
        }
    }

    /// Depolarizing channels are CPTP for every probability.
    #[test]
    fn depolarizing_cptp(p in 0.0..1.0f64) {
        prop_assert!(KrausChannel::depolarizing_1q(p).is_cptp(1e-9));
        prop_assert!(KrausChannel::depolarizing_2q(p).is_cptp(1e-9));
    }

    /// Thermal relaxation is CPTP across physical (T1, T2, t) combinations.
    #[test]
    fn thermal_relaxation_cptp(
        t1 in 1.0..500_000.0f64,
        ratio in 0.05..2.0f64,
        dt in 0.0..100_000.0f64,
    ) {
        let t2 = t1 * ratio.min(2.0);
        prop_assert!(KrausChannel::thermal_relaxation(t1, t2, dt).is_cptp(1e-8));
    }

    /// Channels preserve trace and never raise purity above 1 (plus
    /// monotone decay of the excited state under amplitude damping).
    #[test]
    fn channel_trace_and_purity(gamma in 0.0..1.0f64, a in angle(), b in angle()) {
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary_1q(&unitary_1q(a, b, 0.0), 0);
        rho.apply_channel(&KrausChannel::amplitude_damping(gamma), &[0]);
        prop_assert!((rho.trace() - 1.0).abs() < 1e-9);
        prop_assert!(rho.purity() <= 1.0 + 1e-9);
    }

    /// Composition of two CPTP channels stays CPTP.
    #[test]
    fn composition_cptp(p in 0.0..1.0f64, lam in 0.0..1.0f64) {
        let ch = KrausChannel::depolarizing_1q(p).compose(&KrausChannel::phase_damping(lam));
        prop_assert!(ch.is_cptp(1e-8));
    }

    /// Sampled counts always total the shot budget and stay in range.
    #[test]
    fn sampling_accounts_for_all_shots(a in angle(), shots in 1usize..4000) {
        use rand::SeedableRng;
        let mut sv = StateVector::new(3);
        sv.apply_1q(&gates::ry(a), 0);
        sv.apply_2q(&gates::cx(), 0, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let counts = qsim::sampler::sample_counts(&sv.probabilities(), 3, shots, &mut rng);
        prop_assert_eq!(counts.total(), shots as u64);
        for (basis, count) in counts.iter() {
            prop_assert!(basis < 8);
            prop_assert!(count > 0);
        }
    }

    /// Readout confusion keeps distributions normalized for any flips.
    #[test]
    fn readout_is_stochastic(
        f0 in 0.0..0.5f64,
        f1 in 0.0..0.5f64,
        a in angle(),
    ) {
        let mut sv = StateVector::new(2);
        sv.apply_1q(&gates::ry(a), 0);
        sv.apply_2q(&gates::cx(), 0, 1);
        let ro = qsim::ReadoutError::new(vec![f0, f1]);
        let out = ro.apply_to_distribution(&sv.probabilities());
        let total: f64 = out.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(out.iter().all(|&p| p >= -1e-12));
    }

    /// The Hermitian eigensolver reconstructs its input.
    #[test]
    fn eigh_reconstructs(
        d0 in -2.0..2.0f64,
        d1 in -2.0..2.0f64,
        re in -1.0..1.0f64,
        im in -1.0..1.0f64,
    ) {
        let m = CMatrix::from_slice(2, 2, &[
            C64::from_real(d0), C64::new(re, im),
            C64::new(re, -im), C64::from_real(d1),
        ]);
        let eig = qsim::linalg::eigh(&m);
        let mut diag = CMatrix::zeros(2, 2);
        diag[(0, 0)] = C64::from_real(eig.values[0]);
        diag[(1, 1)] = C64::from_real(eig.values[1]);
        let recon = eig.vectors.clone() * diag * eig.vectors.dagger();
        prop_assert!(recon.approx_eq(&m, 1e-8));
        // Trace is preserved by similarity.
        prop_assert!((eig.values[0] + eig.values[1] - (d0 + d1)).abs() < 1e-8);
    }

    /// Every density kernel keeps the state physical: after random
    /// sequences of sparse and dense unitaries and of stacked, dense and
    /// mixed-phase channels on 1..=6 qubits, the trace is 1, the matrix
    /// is Hermitian and the diagonal is non-negative, each to 1e-12.
    #[test]
    fn density_kernels_keep_states_physical(
        n in 1usize..7,
        steps in proptest::collection::vec((0usize..10, 0usize..64, 0usize..64, 0.0..1.0f64), 1..40),
    ) {
        let mut rho = DensityMatrix::new(n);
        for (kind, a, b, p) in steps {
            let (q0, q1) = (a % n, b % n);
            let theta = (p - 0.5) * 14.0;
            let pair = q0 != q1;
            match kind {
                0 => rho.apply_unitary_1q(&unitary_1q(theta, 3.0 * p, -theta), q0),
                1 => rho.apply_unitary_1q(&gates::rz(theta), q0),
                2 if pair => rho.apply_unitary_2q(&gates::cx(), q0, q1),
                3 if pair => {
                    let u = unitary_1q(theta, p, 1.0).kron(&gates::ry(theta));
                    rho.apply_unitary_2q(&u, q0, q1);
                }
                4 => {
                    let ch = KrausChannel::thermal_relaxation(80.0, 60.0, 40.0 * p)
                        .compose(&KrausChannel::depolarizing_1q(p));
                    rho.apply_channel(&ch, &[q0]);
                }
                5 => rho.apply_channel(&KrausChannel::amplitude_damping(p), &[q0]),
                6 if pair => rho.apply_channel(&KrausChannel::depolarizing_2q(p), &[q0, q1]),
                7 => {
                    // Dense Kraus operators: a rotated depolarizing channel.
                    let v = unitary_1q(theta, 1.0, p);
                    let ops = KrausChannel::depolarizing_1q(p)
                        .operators()
                        .iter()
                        .map(|k| v.clone() * k.clone() * v.dagger())
                        .collect();
                    rho.apply_channel(&KrausChannel::new(ops), &[q0]);
                }
                8 => {
                    // Real and imaginary entries in one operator.
                    let ch = KrausChannel::new(vec![
                        CMatrix::identity(2).scale(C64::from_real((1.0 - p).sqrt())),
                        gates::s().scale(C64::from_real(p.sqrt())),
                    ]);
                    rho.apply_channel(&ch, &[q0]);
                }
                _ => rho.apply_unitary_1q(&gates::h(), q0),
            }
        }
        prop_assert!((rho.trace() - 1.0).abs() <= 1e-12, "trace {}", rho.trace());
        let m = rho.matrix();
        let dim = 1usize << n;
        for r in 0..dim {
            prop_assert!(m[(r, r)].re >= -1e-12, "diagonal {r}: {:?}", m[(r, r)]);
            for c in 0..dim {
                prop_assert!(
                    m[(r, c)].approx_eq(m[(c, r)].conj(), 1e-12),
                    "not Hermitian at ({}, {})", r, c
                );
            }
        }
    }
}
