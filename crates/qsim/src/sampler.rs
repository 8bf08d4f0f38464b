//! Shot sampling and measurement-count aggregation.
//!
//! Real NISQ backends return `counts`: a histogram of measured bitstrings
//! over `shots` repetitions (the paper uses 8192 shots per circuit). This
//! module provides the [`Counts`] histogram plus samplers that draw from a
//! probability distribution, optionally corrupted by per-qubit readout
//! (SPAM) error.

use rand::Rng;
use std::collections::HashMap;
use std::fmt;

/// Histogram of measured basis states.
///
/// Keys are basis indices in the little-endian convention (qubit 0 = least
/// significant bit), matching [`crate::statevector::StateVector`].
///
/// # Examples
///
/// ```
/// use qsim::sampler::Counts;
///
/// let mut counts = Counts::new(2);
/// counts.record(0b11, 60);
/// counts.record(0b00, 40);
/// assert_eq!(counts.total(), 100);
/// // <Z0 Z1> = (+1 * 60 + +1 * 40) / 100 since both bits agree.
/// assert!((counts.expectation_z_product(0b11) - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    n_qubits: usize,
    map: HashMap<u64, u64>,
    total: u64,
}

impl Counts {
    /// Creates an empty histogram over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Counts {
            n_qubits,
            map: HashMap::new(),
            total: 0,
        }
    }

    /// Creates an empty histogram pre-sized for `distinct` distinct
    /// basis states — the hot path builds the whole histogram in one
    /// pass and knows the bin count up front, so sizing here avoids
    /// rehash-and-grow cycles per job. Capacity never affects equality.
    pub fn with_capacity(n_qubits: usize, distinct: usize) -> Self {
        Counts {
            n_qubits,
            map: HashMap::with_capacity(distinct),
            total: 0,
        }
    }

    /// Number of measured qubits.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Adds `count` observations of `basis`.
    ///
    /// # Panics
    ///
    /// Panics if `basis` has bits outside the qubit range.
    pub fn record(&mut self, basis: u64, count: u64) {
        assert!(
            self.n_qubits >= 64 || basis < (1u64 << self.n_qubits),
            "basis state {basis:#b} out of range for {} qubits",
            self.n_qubits
        );
        *self.map.entry(basis).or_insert(0) += count;
        self.total += count;
    }

    /// Total number of shots recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count observed for a basis state (0 if never seen).
    pub fn get(&self, basis: u64) -> u64 {
        self.map.get(&basis).copied().unwrap_or(0)
    }

    /// Empirical probability of a basis state.
    pub fn probability(&self, basis: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.get(basis) as f64 / self.total as f64
        }
    }

    /// Iterates over `(basis, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Returns `(basis, count)` pairs sorted by descending count, ties by
    /// ascending basis. Useful for stable report output.
    pub fn to_sorted_vec(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Expectation of a product of Z operators over the qubits selected by
    /// `mask`: `sum_b counts(b) * (-1)^{popcount(b & mask)} / total`.
    ///
    /// This is how Pauli-string expectations are read out of hardware
    /// counts after basis rotation.
    pub fn expectation_z_product(&self, mask: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut acc: i64 = 0;
        for (basis, count) in self.iter() {
            let sign = if (basis & mask).count_ones().is_multiple_of(2) {
                1
            } else {
                -1
            };
            acc += sign * count as i64;
        }
        acc as f64 / self.total as f64
    }

    /// Fraction of shots for which `predicate(basis)` holds.
    pub fn fraction_where<F: Fn(u64) -> bool>(&self, predicate: F) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self
            .iter()
            .filter(|&(b, _)| predicate(b))
            .map(|(_, c)| c)
            .sum();
        hits as f64 / self.total as f64
    }

    /// Formats a basis index as a bitstring, most-significant qubit first
    /// (the order IBMQ prints).
    pub fn bitstring(&self, basis: u64) -> String {
        (0..self.n_qubits)
            .rev()
            .map(|q| if basis >> q & 1 == 1 { '1' } else { '0' })
            .collect()
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit count mismatch");
        for (b, c) in other.iter() {
            self.record(b, c);
        }
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counts({} shots:", self.total)?;
        for (b, c) in self.to_sorted_vec() {
            write!(f, " {}:{}", self.bitstring(b), c)?;
        }
        write!(f, ")")
    }
}

impl FromIterator<(u64, u64)> for Counts {
    /// Collects `(basis, count)` pairs; the qubit count is inferred as the
    /// smallest width holding the largest basis index.
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let pairs: Vec<(u64, u64)> = iter.into_iter().collect();
        let max = pairs.iter().map(|p| p.0).max().unwrap_or(0);
        let width = (64 - max.leading_zeros()).max(1) as usize;
        let mut c = Counts::new(width);
        for (b, n) in pairs {
            c.record(b, n);
        }
        c
    }
}

/// Draws `shots` basis-state indices from a probability distribution using
/// inverse-CDF sampling (see [`ShotSampler`] for the lookup).
///
/// The distribution is normalized defensively (backend noise models can
/// leave ~1e-12 trace drift).
///
/// # Panics
///
/// Panics if `probs` is empty or sums to zero.
pub fn sample_indices<R: Rng + ?Sized>(probs: &[f64], shots: usize, rng: &mut R) -> Vec<usize> {
    let mut out = Vec::with_capacity(shots);
    ShotSampler::default().sample_indices_into(probs, shots, rng, &mut out);
    out
}

/// Reusable inverse-CDF shot sampler.
///
/// Holds the CDF and a dense histogram as persistent buffers so the hot
/// path ([`ShotSampler::sample_counts`]) allocates nothing after warmup:
/// the CDF is rebuilt in place per distribution, shots increment dense
/// histogram slots (no per-shot hash-map insert), and only the non-zero
/// slots are folded into the returned [`Counts`]. Draws from the RNG in
/// exactly the per-shot order of [`sample_indices`], so seeded results
/// are byte-identical to the allocating path.
///
/// Each needle is located by a branch-free count of the CDF entries
/// below it when the CDF has at most 64 entries and a finite total, and
/// by a binary search otherwise; both land on the same index, and a
/// needle that equals a CDF entry exactly always takes the binary
/// search. Float comparisons use `total_cmp`, so unlike the historical
/// `partial_cmp(..).unwrap()` the binary search can neither panic nor
/// silently scramble on a NaN needle. NaN *probabilities* are treated
/// as zero mass (`p.max(0.0)` maps NaN to `0.0` when building the
/// CDF); an all-NaN or all-non-positive distribution still fails
/// loudly at the `sum > 0` guard.
#[derive(Clone, Debug, Default)]
pub struct ShotSampler {
    cdf: Vec<f64>,
    hist: Vec<u64>,
}

impl ShotSampler {
    /// Creates a sampler; buffers are sized lazily.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the internal CDF for `probs` and returns the total mass
    /// (NaN entries contribute zero — see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty or the total mass is not positive.
    fn build_cdf(&mut self, probs: &[f64]) -> f64 {
        assert!(!probs.is_empty(), "empty probability distribution");
        self.cdf.clear();
        let mut acc = 0.0;
        for &p in probs {
            acc += p.max(0.0);
            self.cdf.push(acc);
        }
        assert!(acc > 0.0, "probability distribution sums to zero");
        acc
    }

    /// Draws `shots` basis indices into a reusable output buffer
    /// (cleared first). Same distribution and RNG stream as
    /// [`sample_indices`].
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty or sums to zero.
    pub fn sample_indices_into<R: Rng + ?Sized>(
        &mut self,
        probs: &[f64],
        shots: usize,
        rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        let acc = self.build_cdf(probs);
        out.clear();
        out.reserve(shots);
        draw(&self.cdf, acc, shots, rng, |idx| out.push(idx));
    }

    /// Samples a [`Counts`] histogram over `n_qubits` qubits, writing
    /// shots directly into a dense histogram. Byte-identical to
    /// [`sample_counts`].
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^n_qubits` or the distribution is
    /// empty/zero.
    pub fn sample_counts<R: Rng + ?Sized>(
        &mut self,
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
        let acc = self.build_cdf(probs);
        self.hist.clear();
        self.hist.resize(probs.len(), 0);
        let hist = &mut self.hist;
        draw(&self.cdf, acc, shots, rng, |idx| hist[idx] += 1);
        let distinct = self.hist.iter().filter(|&&c| c > 0).count();
        let mut counts = Counts::with_capacity(n_qubits, distinct);
        for (basis, &c) in self.hist.iter().enumerate() {
            if c > 0 {
                counts.record(basis as u64, c);
            }
        }
        counts
    }
}

/// Draws `shots` needles against `cdf` (total mass `acc`) and hands
/// each located basis index to `sink`, in shot order: the one draw loop
/// behind [`ShotSampler::sample_indices_into`] and
/// [`ShotSampler::sample_counts`].
fn draw<R: Rng + ?Sized>(
    cdf: &[f64],
    acc: f64,
    shots: usize,
    rng: &mut R,
    mut sink: impl FnMut(usize),
) {
    let top = cdf.len() - 1;
    // A finite total keeps every needle and CDF entry finite and
    // non-negative (never -0.0), where `x < r` is exactly
    // `x.total_cmp(&r) == Less`.
    let scan = acc.is_finite() && cdf.len() <= MAX_SCAN_CDF;
    for _ in 0..shots {
        let r: f64 = rng.gen::<f64>() * acc;
        let idx = if scan {
            scan_index(cdf, r)
        } else {
            search_index(cdf, r)
        };
        sink(idx.min(top));
    }
}

/// Longest CDF located by a linear scan instead of a binary search (64
/// entries: six qubits).
const MAX_SCAN_CDF: usize = 64;

/// Binary-search inverse-CDF lookup: the first index whose entry is not
/// below `r` under `total_cmp` (or, on an exact hit, the entry
/// `binary_search_by` lands on).
#[inline]
fn search_index(cdf: &[f64], r: f64) -> usize {
    match cdf.binary_search_by(|x| x.total_cmp(&r)) {
        Ok(i) | Err(i) => i,
    }
}

/// Branch-free inverse-CDF lookup for short CDFs: counts the entries
/// below `r`, which on a sorted, finite, non-negative CDF is the
/// insertion point [`search_index`] returns. Only when `r` equals an
/// entry exactly — where `binary_search_by` may land on any of a run of
/// equal entries — does it defer to [`search_index`].
#[inline]
fn scan_index(cdf: &[f64], r: f64) -> usize {
    let below = cdf.iter().map(|&x| usize::from(x < r)).sum::<usize>();
    if cdf.get(below) == Some(&r) {
        search_index(cdf, r)
    } else {
        below
    }
}

/// Samples a [`Counts`] histogram from a distribution over `n_qubits`
/// qubits.
///
/// # Panics
///
/// Panics if `probs.len() != 2^n_qubits`.
pub fn sample_counts<R: Rng + ?Sized>(
    probs: &[f64],
    n_qubits: usize,
    shots: usize,
    rng: &mut R,
) -> Counts {
    ShotSampler::default().sample_counts(probs, n_qubits, shots, rng)
}

/// Per-qubit symmetric readout (SPAM) error probabilities.
///
/// `flip[q]` is the probability that qubit `q`'s measured bit is reported
/// inverted — the `omega` of the paper's Eq. 2.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReadoutError {
    flip: Vec<f64>,
}

impl ReadoutError {
    /// Creates a readout error model from per-qubit flip probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 0.5]` (beyond 0.5 the
    /// assignment is better than random when inverted, which indicates a
    /// calibration bug upstream).
    pub fn new(flip: Vec<f64>) -> Self {
        assert!(
            flip.iter().all(|&p| (0.0..=0.5).contains(&p)),
            "readout flip probabilities must lie in [0, 0.5]"
        );
        ReadoutError { flip }
    }

    /// Uniform flip probability across `n` qubits.
    pub fn uniform(n: usize, p: f64) -> Self {
        ReadoutError::new(vec![p; n])
    }

    /// Number of qubits covered.
    pub fn num_qubits(&self) -> usize {
        self.flip.len()
    }

    /// Flip probability for qubit `q`.
    pub fn flip_probability(&self, q: usize) -> f64 {
        self.flip[q]
    }

    /// Average flip probability (the scalar `omega` used by Eq. 2).
    pub fn mean_flip(&self) -> f64 {
        if self.flip.is_empty() {
            0.0
        } else {
            self.flip.iter().sum::<f64>() / self.flip.len() as f64
        }
    }

    /// Applies the confusion model exactly to a probability distribution.
    ///
    /// For each qubit the pair `(p_b0, p_b1)` mixes as a 2x2 stochastic
    /// matrix; total cost `O(n 2^n)`.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^num_qubits`.
    pub fn apply_to_distribution(&self, probs: &[f64]) -> Vec<f64> {
        let mut out = probs.to_vec();
        self.apply_in_place(&mut out);
        out
    }

    /// Applies the confusion model in place — the allocation-free twin
    /// of [`ReadoutError::apply_to_distribution`] used by the engines.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^num_qubits`.
    pub fn apply_in_place(&self, probs: &mut [f64]) {
        let n = self.flip.len();
        assert_eq!(probs.len(), 1usize << n, "distribution size mismatch");
        for (q, &f) in self.flip.iter().enumerate() {
            if f == 0.0 {
                continue;
            }
            let bit = 1usize << q;
            for i in 0..probs.len() {
                if i & bit == 0 {
                    let j = i | bit;
                    let p0 = probs[i];
                    let p1 = probs[j];
                    probs[i] = (1.0 - f) * p0 + f * p1;
                    probs[j] = f * p0 + (1.0 - f) * p1;
                }
            }
        }
    }

    /// Corrupts a single measured basis index by independently flipping
    /// each bit with its qubit's probability.
    pub fn corrupt<R: Rng + ?Sized>(&self, basis: u64, rng: &mut R) -> u64 {
        let mut b = basis;
        for (q, &f) in self.flip.iter().enumerate() {
            if f > 0.0 && rng.gen::<f64>() < f {
                b ^= 1 << q;
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counts_basic_accounting() {
        let mut c = Counts::new(3);
        c.record(0b101, 10);
        c.record(0b101, 5);
        c.record(0b000, 5);
        assert_eq!(c.total(), 20);
        assert_eq!(c.get(0b101), 15);
        assert_eq!(c.get(0b111), 0);
        assert!((c.probability(0b101) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn z_product_expectation_signs() {
        let mut c = Counts::new(2);
        c.record(0b00, 50);
        c.record(0b01, 50);
        // Z on qubit 0: (+1*50 + -1*50)/100 = 0.
        assert!(c.expectation_z_product(0b01).abs() < 1e-12);
        // Z on qubit 1: both states have bit1 = 0 -> +1.
        assert!((c.expectation_z_product(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bitstring_is_msb_first() {
        let c = Counts::new(4);
        assert_eq!(c.bitstring(0b0110), "0110");
        assert_eq!(c.bitstring(0b0001), "0001");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counts::new(2);
        a.record(0, 3);
        let mut b = Counts::new(2);
        b.record(0, 2);
        b.record(3, 5);
        a.merge(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(3), 5);
        assert_eq!(a.total(), 10);
    }

    #[test]
    fn from_iterator_infers_width() {
        let c: Counts = vec![(0b101u64, 7u64), (0b010, 3)].into_iter().collect();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.total(), 10);
    }

    #[test]
    fn sampling_converges_to_distribution() {
        let probs = [0.1, 0.2, 0.3, 0.4];
        let mut rng = StdRng::seed_from_u64(7);
        let c = sample_counts(&probs, 2, 100_000, &mut rng);
        for (i, &p) in probs.iter().enumerate() {
            let emp = c.probability(i as u64);
            assert!((emp - p).abs() < 0.01, "basis {i}: {emp} vs {p}");
        }
    }

    #[test]
    fn sampling_deterministic_with_seed() {
        let probs = [0.5, 0.5];
        let a = sample_indices(&probs, 100, &mut StdRng::seed_from_u64(42));
        let b = sample_indices(&probs, 100, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    /// The lookup every shot used before the branch-free scan.
    fn oracle_index(cdf: &[f64], r: f64) -> usize {
        match cdf.binary_search_by(|x| x.total_cmp(&r)) {
            Ok(i) | Err(i) => i,
        }
    }

    /// A distribution over `n` qubits with every third bin empty (runs
    /// of equal CDF entries), drawn from `seed`.
    fn gappy_probs(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << n)
            .map(|i| if i % 3 == 1 { 0.0 } else { rng.gen::<f64>() })
            .collect()
    }

    /// Replays scripted `u64` words, so a test can pick the exact
    /// uniform `gen::<f64>()` returns.
    struct ScriptedRng(std::vec::IntoIter<u64>);

    impl rand::RngCore for ScriptedRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("script long enough")
        }
    }

    /// The `u64` word for which `gen::<f64>()` returns exactly `u`
    /// (a multiple of 2^-53 in `[0, 1)`).
    fn word_for(u: f64) -> u64 {
        ((u * (1u64 << 53) as f64) as u64) << 11
    }

    #[test]
    fn scan_lookup_matches_binary_search_oracle() {
        for n in 1..=7 {
            let mut sampler = ShotSampler::new();
            let acc = sampler.build_cdf(&gappy_probs(n, n as u64));
            let cdf = sampler.cdf.clone();
            let mut rng = StdRng::seed_from_u64(99);
            let mut needles: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>() * acc).collect();
            for &c in &cdf {
                needles.extend([c, c.next_down(), c.next_up()]);
            }
            needles.extend([0.0, acc]);
            for r in needles {
                assert_eq!(
                    scan_index(&cdf, r),
                    oracle_index(&cdf, r),
                    "{n} qubits, needle {r}"
                );
            }
        }
    }

    #[test]
    fn draws_match_binary_search_oracle() {
        for n in 1..=7 {
            let probs = gappy_probs(n, 10 + n as u64);
            let mut sampler = ShotSampler::new();
            let acc = sampler.build_cdf(&probs);
            let cdf = sampler.cdf.clone();
            let top = probs.len() - 1;
            let mut rng = StdRng::seed_from_u64(5);
            let expected: Vec<usize> = (0..4096)
                .map(|_| oracle_index(&cdf, rng.gen::<f64>() * acc).min(top))
                .collect();
            let mut drawn = Vec::new();
            sampler.sample_indices_into(&probs, 4096, &mut StdRng::seed_from_u64(5), &mut drawn);
            assert_eq!(drawn, expected, "{n} qubits");
            let counts = sampler.sample_counts(&probs, n, 4096, &mut StdRng::seed_from_u64(5));
            for (basis, _) in probs.iter().enumerate() {
                let want = expected.iter().filter(|&&i| i == basis).count() as u64;
                assert_eq!(counts.get(basis as u64), want, "{n} qubits, basis {basis}");
            }
        }
    }

    #[test]
    fn needles_on_exact_cdf_values_match_oracle() {
        // Dyadic masses sum to exactly 1, so the needle `u * 1.0` can be
        // scripted onto every CDF entry, including runs of equal entries
        // behind zero-mass bins.
        for n in 1..=7 {
            let dim = 1usize << n;
            let raw: Vec<f64> = (0..dim).map(|i| [2.0, 0.0, 1.0, 0.0, 0.0][i % 5]).collect();
            let total: f64 = raw.iter().sum();
            let scale = (total.log2().ceil()).exp2();
            let mut probs: Vec<f64> = raw.iter().map(|p| p / scale).collect();
            let slack = 1.0 - probs.iter().sum::<f64>();
            probs[dim - 1] += slack;
            let mut sampler = ShotSampler::new();
            assert_eq!(sampler.build_cdf(&probs), 1.0);
            let cdf = sampler.cdf.clone();
            let needles: Vec<f64> = cdf.iter().copied().filter(|&c| c < 1.0).collect();
            let script: Vec<u64> = needles.iter().map(|&c| word_for(c)).collect();
            let mut drawn = Vec::new();
            sampler.sample_indices_into(
                &probs,
                needles.len(),
                &mut ScriptedRng(script.into_iter()),
                &mut drawn,
            );
            let expected: Vec<usize> = needles
                .iter()
                .map(|&r| oracle_index(&cdf, r).min(dim - 1))
                .collect();
            assert_eq!(drawn, expected, "{n} qubits");
        }
    }

    #[test]
    fn readout_error_distribution_is_stochastic() {
        let ro = ReadoutError::new(vec![0.1, 0.05]);
        let probs = [1.0, 0.0, 0.0, 0.0];
        let out = ro.apply_to_distribution(&probs);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // P(00 stays) = 0.9 * 0.95
        assert!((out[0] - 0.9 * 0.95).abs() < 1e-12);
        // P(bit0 flips) = 0.1 * 0.95
        assert!((out[1] - 0.1 * 0.95).abs() < 1e-12);
        assert!((out[3] - 0.1 * 0.05).abs() < 1e-12);
    }

    #[test]
    fn readout_corrupt_statistics() {
        let ro = ReadoutError::uniform(1, 0.25);
        let mut rng = StdRng::seed_from_u64(3);
        let flips = (0..40_000).filter(|_| ro.corrupt(0, &mut rng) == 1).count();
        let rate = flips as f64 / 40_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 0.5]")]
    fn readout_error_rejects_bad_probability() {
        let _ = ReadoutError::new(vec![0.7]);
    }

    #[test]
    fn mean_flip_average() {
        let ro = ReadoutError::new(vec![0.1, 0.3]);
        assert!((ro.mean_flip() - 0.2).abs() < 1e-12);
    }
}
