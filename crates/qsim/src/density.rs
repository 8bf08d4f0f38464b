//! Density-matrix simulation with noise channels.
//!
//! The simulated QPU backends (crate `qdevice`) execute transpiled circuits
//! on a [`DensityMatrix`], interleaving gate unitaries with the Kraus
//! channels derived from calibration data. For the paper's 4-7 qubit
//! workloads an exact density-matrix treatment is cheap (`4^n` entries) and
//! — unlike per-shot Monte Carlo — deterministic given a seed only at the
//! sampling step.
//!
//! # Kernels
//!
//! A gate or channel on `k` qubits only mixes entries within the
//! `2^k x 2^k` blocks of `rho` that share every other row and column bit.
//! Every kernel therefore walks those blocks once: it loads a 2x2 (1q) or
//! 4x4 (2q) block, computes `U a U^dag` or `sum_k K_k a K_k^dag` on the
//! copy, and stores the block back. The pass is in place, needs no
//! matrix-sized scratch, and is partitioned over block rows, so the same
//! code runs serially or fanned out over a [`ParallelCtx`] team.
//!
//! Operators with at most one nonzero per row (scaled Paulis, damping
//! products, diagonal phases, CX/CZ/SWAP) cost one product chain per
//! element; other operators take the dense `U a U^dag` product. Every
//! Kraus operator of the channels in [`crate::noise`] is such a sparse
//! operator with each entry real or imaginary. A channel made only of
//! those, at most 16 of them, runs from a term list
//! kept in a fixed-size stack array at four multiplies per element and
//! term. Any other channel re-reads its operators per block, also
//! without heap buffers.
//!
//! Exactness: unitary kernels perform, per element, the floating-point
//! operations of the textbook two-pass evolution ([`baseline`]) on the
//! operator's nonzero entries, in the same order. Channel terms may also
//! skip products with an exact zero factor, which can change a term only
//! by the sign of a zero. A channel accumulator starts at `+0.0` and can
//! never become `-0.0` (a round-to-nearest sum is `-0.0` only when both
//! addends are), so such a term leaves it bit-identical. Results
//! therefore agree with [`baseline`] bit for bit up to the sign of zero,
//! which no measurement probability or sampled count can observe. Any
//! worker count gives byte-identical results: each element's arithmetic
//! is independent of the partition.

use crate::complex::C64;
use crate::gates::Pauli;
use crate::matrix::CMatrix;
use crate::noise::KrausChannel;
use crate::parallel::ParallelCtx;
use crate::statevector::StateVector;
use rand::Rng;

/// The context a kernel pass actually runs under: the caller's team for
/// states at or above its fan-out threshold
/// ([`ParallelCtx::min_dim`], default
/// [`crate::parallel::DEFAULT_PAR_MIN_DIM`]), inline-serial below it.
#[inline]
fn gate_ctx(ctx: &ParallelCtx, dim: usize) -> &ParallelCtx {
    if dim >= ctx.min_dim() {
        ctx
    } else {
        &ParallelCtx::SERIAL
    }
}

/// Raw row-major storage shared across a worker team. Every kernel pass
/// partitions its row set so that concurrent indices touch disjoint
/// rows; this wrapper only erases the borrow so the partition can cross
/// threads.
struct RowPtr(*mut C64);

// SAFETY: all concurrent access goes through disjoint row partitions
// (the caller's proof obligation on `row`).
unsafe impl Sync for RowPtr {}

impl RowPtr {
    /// Mutable view of row `r`.
    ///
    /// # Safety
    ///
    /// Row `r` must be in bounds and not concurrently accessed.
    #[inline(always)]
    unsafe fn row<'a>(&self, r: usize, dim: usize) -> &'a mut [C64] {
        std::slice::from_raw_parts_mut(self.0.add(r * dim), dim)
    }
}

/// Expands a base index `k` (enumeration of indices with bit `q`
/// clear) back to the full index: inserts a zero bit at position `q`.
/// Enumeration order is ascending.
#[inline(always)]
fn insert_bit(k: usize, q: usize) -> usize {
    ((k >> q) << (q + 1)) | (k & ((1usize << q) - 1))
}

/// Most operators a channel may have to run from the on-stack term list
/// (a thermal-relaxation-then-depolarizing 1q channel has 16, as does
/// 2q depolarizing). Larger channels take the per-block re-read path.
const MAX_STACK_TERMS: usize = 16;

/// A block of `rho` as loaded by [`for_each_block`]: `N` entries as
/// `[re, im]` parts, so a term can address either part by a flat offset.
type Block<const N: usize> = [[f64; 2]; N];

/// Entry `k` of a block as a complex number.
#[inline(always)]
fn entry<const N: usize>(a: &Block<N>, k: usize) -> C64 {
    C64::new(a[k][0], a[k][1])
}

/// The nonzero entry of each row of a `B x B` operator with at most one
/// nonzero per row: `(col[i], v[i])`, with `v[i] = 0` for an all-zero
/// row. `None` when some row has two or more nonzero entries.
fn sparse_rows<const B: usize>(u: &CMatrix) -> Option<([usize; B], [C64; B])> {
    let mut col = [0usize; B];
    let mut v = [C64::ZERO; B];
    for r in 0..B {
        for c in 0..B {
            let z = u[(r, c)];
            if z != C64::ZERO {
                if v[r] != C64::ZERO {
                    return None;
                }
                col[r] = c;
                v[r] = z;
            }
        }
    }
    Some((col, v))
}

/// A sparse operator (see [`sparse_rows`]) laid out for `B x B` blocks
/// of `N = B * B` entries: `src[i * B + j]` is the block position
/// `col_i * B + col_j` that element `(i, j)` of `K a K^dag` reads.
#[derive(Clone, Copy)]
struct SparseOp<const B: usize, const N: usize> {
    src: [u8; N],
    v: [C64; B],
}

impl<const B: usize, const N: usize> SparseOp<B, N> {
    fn parse(u: &CMatrix) -> Option<Self> {
        let (col, v) = sparse_rows::<B>(u)?;
        let src = std::array::from_fn(|k| (col[k / B] * B + col[k % B]) as u8);
        Some(SparseOp { src, v })
    }

    /// `K a K^dag`, element `(i, j)` as the product chain
    /// `(v_i * a[col_i][col_j]) * conj(v_j)`. An all-zero row makes its
    /// elements exact `±0`.
    #[inline(always)]
    fn sandwich(&self, a: &Block<N>) -> [C64; N] {
        std::array::from_fn(|k| {
            let (i, j) = (k / B, k % B);
            (self.v[i] * entry(a, self.src[k] as usize & (N - 1))) * self.v[j].conj()
        })
    }
}

/// A sparse Kraus operator whose nonzero entries are each real or
/// imaginary, `v_i = r_i` or `v_i = i r_i` — every operator of the
/// channels in [`crate::noise`] and of their compositions.
///
/// For such a term every cross product inside the complex chain
/// [`SparseOp::sandwich`] multiplies by an exact zero, so each output
/// part is one product `(a_part * r_i) * (±r_j)`, reading the other part
/// of `a` when exactly one of `v_i`, `v_j` is imaginary. That is 4
/// multiplies per element instead of 8 multiplies and 4 adds, and the
/// value equals the full chain up to the sign of zero — invisible once
/// added to a channel accumulator.
#[derive(Clone, Copy)]
struct PhaseTerm<const B: usize, const N: usize> {
    r: [f64; B],
    /// Flat part offsets `2 * position + part` the real and imaginary
    /// output of each element reads.
    at: [[u8; 2]; N],
    /// The signed `±r_j` each element's real and imaginary output is
    /// scaled by.
    s: [[f64; 2]; N],
}

impl<const B: usize, const N: usize> PhaseTerm<B, N> {
    const ZERO: Self = PhaseTerm {
        r: [0.0; B],
        at: [[0; 2]; N],
        s: [[0.0; 2]; N],
    };

    /// The real/imaginary form of `u`, or `None` when `u` is not sparse
    /// or has an entry with both parts nonzero.
    fn parse(u: &CMatrix) -> Option<Self> {
        let (col, v) = sparse_rows::<B>(u)?;
        let mut term = Self::ZERO;
        let mut imag = [false; B];
        for i in 0..B {
            (term.r[i], imag[i]) = match (v[i].re, v[i].im) {
                (re, 0.0) => (re, false),
                (0.0, im) => (im, true),
                _ => return None,
            };
        }
        for i in 0..B {
            for j in 0..B {
                // (v_i a) conj(v_j) per (imag_i, imag_j), with
                // X = a.re r_i and Y = a.im r_i:
                //   (re, re): ( X r_j,  Y r_j)   (re, im): ( Y r_j, -X r_j)
                //   (im, re): (-Y r_j,  X r_j)   (im, im): ( X r_j,  Y r_j)
                let swap = usize::from(imag[i] != imag[j]);
                let (sign_re, sign_im) = match (imag[i], imag[j]) {
                    (false, true) => (1.0, -1.0),
                    (true, false) => (-1.0, 1.0),
                    _ => (1.0, 1.0),
                };
                let pos = 2 * (col[i] * B + col[j]);
                let k = i * B + j;
                term.at[k] = [(pos + swap) as u8, (pos + 1 - swap) as u8];
                term.s[k] = [sign_re * term.r[j], sign_im * term.r[j]];
            }
        }
        Some(term)
    }

    /// `out += K a K^dag`, element by element.
    #[inline(always)]
    fn accumulate(&self, a: &Block<N>, out: &mut [C64; N]) {
        let parts = a.as_flattened();
        for i in 0..B {
            for j in 0..B {
                let k = i * B + j;
                let [at_re, at_im] = self.at[k];
                let [s_re, s_im] = self.s[k];
                out[k].re += (parts[at_re as usize & (2 * N - 1)] * self.r[i]) * s_re;
                out[k].im += (parts[at_im as usize & (2 * N - 1)] * self.r[i]) * s_im;
            }
        }
    }
}

/// Copies a `B x B` operator into a flat row-major array.
fn hoist<const B: usize, const N: usize>(u: &CMatrix) -> [C64; N] {
    std::array::from_fn(|k| u[(k / B, k % B)])
}

/// `m a m^dag` for a dense operator `m`: the left product `m a`, then
/// the right product with `m^dag`, each row-by-column sum accumulated
/// from its first term in index order.
#[inline(always)]
fn dense_sandwich<const B: usize, const N: usize>(m: &[C64; N], a: &Block<N>) -> [C64; N] {
    let mut l = [C64::ZERO; N];
    for i in 0..B {
        for j in 0..B {
            let mut s = m[i * B] * entry(a, j);
            for k in 1..B {
                s += m[i * B + k] * entry(a, k * B + j);
            }
            l[i * B + j] = s;
        }
    }
    let mut out = [C64::ZERO; N];
    for i in 0..B {
        for j in 0..B {
            let mut s = l[i * B] * m[j * B].conj();
            for k in 1..B {
                s += l[i * B + k] * m[j * B + k].conj();
            }
            out[i * B + j] = s;
        }
    }
    out
}

/// Runs `f(block, out)` over every `B x B` block of the `dim x dim`
/// row-major `mat` on the operand qubits `qs` (block index bit `b` is
/// qubit `qs[b]`, so `B = 2^qs.len()` and `N = B * B`) and stores `out`
/// in the block's place.
///
/// Blocks partition over base rows: each base row owns the `B` rows of
/// its blocks, so workers touch disjoint rows and every element's
/// arithmetic is independent of the partition.
fn for_each_block<const B: usize, const N: usize>(
    mat: &mut [C64],
    dim: usize,
    qs: &[usize],
    ctx: &ParallelCtx,
    f: impl Fn(&Block<N>, &mut [C64; N]) + Sync,
) {
    debug_assert!(B == 1 << qs.len() && N == B * B && mat.len() == dim * dim);
    let mut offs = [0usize; B];
    for (i, off) in offs.iter_mut().enumerate() {
        for (b, &q) in qs.iter().enumerate() {
            *off |= ((i >> b) & 1) << q;
        }
    }
    let mut sorted = [0usize; 2];
    let sorted = &mut sorted[..qs.len()];
    sorted.copy_from_slice(qs);
    sorted.sort_unstable();
    let base = |k: usize| sorted.iter().fold(k, |k, &q| insert_bit(k, q));
    let blocks = dim / B;
    let p = RowPtr(mat.as_mut_ptr());
    gate_ctx(ctx, dim).run_chunks(blocks, |k0, k1| {
        let mut a = [[0.0; 2]; N];
        let mut out = [C64::ZERO; N];
        for k in k0..k1 {
            let r = base(k);
            // SAFETY: distinct base rows own disjoint row sets
            // `{r | offs[i]}`, and chunks hold distinct base rows.
            let mut rows: [&mut [C64]; B] =
                std::array::from_fn(|i| unsafe { p.row(r | offs[i], dim) });
            for kc in 0..blocks {
                let c = base(kc);
                for (i, row) in rows.iter().enumerate() {
                    for j in 0..B {
                        let z = row[c | offs[j]];
                        a[i * B + j] = [z.re, z.im];
                    }
                }
                f(&a, &mut out);
                for (i, row) in rows.iter_mut().enumerate() {
                    for j in 0..B {
                        row[c | offs[j]] = out[i * B + j];
                    }
                }
            }
        }
    });
}

/// `rho -> U rho U^dag` for a `B x B` operator on `qs`.
fn unitary_kernel<const B: usize, const N: usize>(
    mat: &mut [C64],
    dim: usize,
    u: &CMatrix,
    qs: &[usize],
    ctx: &ParallelCtx,
) {
    match SparseOp::<B, N>::parse(u) {
        Some(op) => for_each_block::<B, N>(mat, dim, qs, ctx, |a, out| *out = op.sandwich(a)),
        None => {
            let m = hoist::<B, N>(u);
            for_each_block::<B, N>(mat, dim, qs, ctx, |a, out| {
                *out = dense_sandwich::<B, N>(&m, a)
            });
        }
    }
}

/// `rho -> sum_k K_k rho K_k^dag` for `B x B` Kraus operators on `qs`,
/// accumulating the terms of each block in operator order from `+0`.
fn channel_kernel<const B: usize, const N: usize>(
    mat: &mut [C64],
    dim: usize,
    ops: &[CMatrix],
    qs: &[usize],
    ctx: &ParallelCtx,
) {
    let mut list = [PhaseTerm::<B, N>::ZERO; MAX_STACK_TERMS];
    let listed = ops.len() <= MAX_STACK_TERMS
        && ops
            .iter()
            .zip(&mut list)
            .all(|(k, slot)| match PhaseTerm::parse(k) {
                Some(term) => {
                    *slot = term;
                    true
                }
                None => false,
            });
    if listed {
        let terms = &list[..ops.len()];
        for_each_block::<B, N>(mat, dim, qs, ctx, |a, out| {
            *out = [C64::ZERO; N];
            for t in terms {
                t.accumulate(a, out);
            }
        });
    } else {
        // Complex-phase, dense or oversized channels: re-read the
        // operators per block.
        for_each_block::<B, N>(mat, dim, qs, ctx, |a, out| {
            *out = [C64::ZERO; N];
            for k in ops {
                let term = match SparseOp::<B, N>::parse(k) {
                    Some(op) => op.sandwich(a),
                    None => dense_sandwich::<B, N>(&hoist::<B, N>(k), a),
                };
                for (o, t) in out.iter_mut().zip(term) {
                    *o += t;
                }
            }
        });
    }
}

/// The pre-optimization density kernels, preserved verbatim.
///
/// These are the implementations this module shipped before the engine
/// layer landed: column-major iteration, a heap-allocated gather per
/// two-qubit position, and a full state clone per Kraus operator. They
/// compute the same floating-point results as the block kernels up to
/// the sign of zero (see the module docs), so equivalence tests can
/// demand byte-identical counts from both — and benchmarks can report
/// an honest old-vs-new ratio. Never use these on a hot path.
pub mod baseline {
    use super::*;

    /// Pre-optimization [`DensityMatrix::apply_unitary_1q`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`DensityMatrix::apply_unitary_1q`].
    pub fn apply_unitary_1q(rho: &mut DensityMatrix, u: &CMatrix, q: usize) {
        assert!(q < rho.n, "qubit {q} out of range");
        assert_eq!((u.rows(), u.cols()), (2, 2), "1q gate must be 2x2");
        let dim = rho.dim();
        let bit = 1usize << q;
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        // Left multiply: rows mix in pairs for every column.
        for c in 0..dim {
            for r in 0..dim {
                if r & bit == 0 {
                    let r1 = r | bit;
                    let a0 = rho.mat[r * dim + c];
                    let a1 = rho.mat[r1 * dim + c];
                    rho.mat[r * dim + c] = u00 * a0 + u01 * a1;
                    rho.mat[r1 * dim + c] = u10 * a0 + u11 * a1;
                }
            }
        }
        // Right multiply by U^dag: columns mix with conjugated coefficients.
        let (d00, d01, d10, d11) = (u00.conj(), u10.conj(), u01.conj(), u11.conj());
        for r in 0..dim {
            let row = r * dim;
            for c in 0..dim {
                if c & bit == 0 {
                    let c1 = c | bit;
                    let a0 = rho.mat[row + c];
                    let a1 = rho.mat[row + c1];
                    rho.mat[row + c] = a0 * d00 + a1 * d10;
                    rho.mat[row + c1] = a0 * d01 + a1 * d11;
                }
            }
        }
    }

    /// Pre-optimization [`DensityMatrix::apply_unitary_2q`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`DensityMatrix::apply_unitary_2q`].
    pub fn apply_unitary_2q(rho: &mut DensityMatrix, u: &CMatrix, q0: usize, q1: usize) {
        assert!(q0 != q1, "2q gate operands must differ");
        assert!(q0 < rho.n && q1 < rho.n, "qubit out of range");
        assert_eq!((u.rows(), u.cols()), (4, 4), "2q gate must be 4x4");
        let dim = rho.dim();
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        // Left multiply U.
        for c in 0..dim {
            for r in 0..dim {
                if r & b0 == 0 && r & b1 == 0 {
                    let idx = [r, r | b0, r | b1, r | b0 | b1];
                    let a: Vec<C64> = idx.iter().map(|&i| rho.mat[i * dim + c]).collect();
                    for (row_i, &i) in idx.iter().enumerate() {
                        let mut acc = C64::ZERO;
                        for (col_j, &amp) in a.iter().enumerate() {
                            acc += u[(row_i, col_j)] * amp;
                        }
                        rho.mat[i * dim + c] = acc;
                    }
                }
            }
        }
        // Right multiply U^dag.
        for r in 0..dim {
            let row = r * dim;
            for c in 0..dim {
                if c & b0 == 0 && c & b1 == 0 {
                    let idx = [c, c | b0, c | b1, c | b0 | b1];
                    let a: Vec<C64> = idx.iter().map(|&j| rho.mat[row + j]).collect();
                    for (col_j, &j) in idx.iter().enumerate() {
                        let mut acc = C64::ZERO;
                        for (row_i, &amp) in a.iter().enumerate() {
                            // (rho U^dag)_{r j} = sum_i rho_{r i} conj(U_{j i})
                            acc += amp * u[(col_j, row_i)].conj();
                        }
                        rho.mat[row + j] = acc;
                    }
                }
            }
        }
    }

    /// Pre-optimization [`DensityMatrix::apply_channel`]: one full state
    /// clone up front plus one per Kraus operator.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DensityMatrix::apply_channel`].
    pub fn apply_channel(rho: &mut DensityMatrix, channel: &KrausChannel, qubits: &[usize]) {
        assert_eq!(
            qubits.len(),
            channel.num_qubits(),
            "channel arity does not match qubit list"
        );
        let original = rho.clone();
        for z in &mut rho.mat {
            *z = C64::ZERO;
        }
        for k in channel.operators() {
            let mut term = original.clone();
            match qubits {
                [q] => apply_unitary_1q(&mut term, k, *q),
                [q0, q1] => apply_unitary_2q(&mut term, k, *q0, *q1),
                _ => panic!("only 1- and 2-qubit channels are supported"),
            }
            for (dst, src) in rho.mat.iter_mut().zip(&term.mat) {
                *dst += *src;
            }
        }
    }
}

/// A mixed quantum state over `n` qubits, stored as a dense `2^n x 2^n`
/// row-major matrix.
///
/// # Examples
///
/// ```
/// use qsim::density::DensityMatrix;
/// use qsim::noise::KrausChannel;
/// use qsim::gates;
///
/// let mut rho = DensityMatrix::new(1);
/// rho.apply_unitary_1q(&gates::h(), 0);
/// rho.apply_channel(&KrausChannel::depolarizing_1q(0.05), &[0]);
/// assert!((rho.trace() - 1.0).abs() < 1e-12);
/// assert!(rho.purity() < 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    n: usize,
    /// Row-major `2^n x 2^n` storage.
    mat: Vec<C64>,
}

impl DensityMatrix {
    /// Maximum qubit count accepted by the dense representation.
    pub const MAX_QUBITS: usize = 12;

    /// Creates `|0...0><0...0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > Self::MAX_QUBITS`.
    pub fn new(n_qubits: usize) -> Self {
        assert!(
            n_qubits <= Self::MAX_QUBITS,
            "density matrix capped at {} qubits",
            Self::MAX_QUBITS
        );
        let dim = 1usize << n_qubits;
        let mut mat = vec![C64::ZERO; dim * dim];
        mat[0] = C64::ONE;
        DensityMatrix { n: n_qubits, mat }
    }

    /// Builds the pure density matrix `|psi><psi|` of a state vector.
    pub fn from_statevector(sv: &StateVector) -> Self {
        let n = sv.num_qubits();
        let dim = 1usize << n;
        let amps = sv.amplitudes();
        let mut mat = vec![C64::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                mat[r * dim + c] = amps[r] * amps[c].conj();
            }
        }
        DensityMatrix { n, mat }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Hilbert-space dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        1 << self.n
    }

    /// Returns the state as a [`CMatrix`] (copies).
    pub fn matrix(&self) -> CMatrix {
        CMatrix::from_slice(self.dim(), self.dim(), &self.mat)
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> C64 {
        self.mat[r * self.dim() + c]
    }

    /// Applies a 2x2 unitary to qubit `q`: `rho -> U rho U^dag`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or `u` is not 2x2.
    pub fn apply_unitary_1q(&mut self, u: &CMatrix, q: usize) {
        self.apply_unitary_1q_ctx(u, q, &ParallelCtx::SERIAL);
    }

    /// [`DensityMatrix::apply_unitary_1q`] under an explicit
    /// [`ParallelCtx`]: the block pass partitions over disjoint block
    /// rows, byte-identical to serial at any worker count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DensityMatrix::apply_unitary_1q`].
    pub fn apply_unitary_1q_ctx(&mut self, u: &CMatrix, q: usize, ctx: &ParallelCtx) {
        assert!(q < self.n, "qubit {q} out of range");
        assert_eq!((u.rows(), u.cols()), (2, 2), "1q gate must be 2x2");
        let dim = self.dim();
        unitary_kernel::<2, 4>(&mut self.mat, dim, u, &[q], ctx);
    }

    /// Applies a 4x4 unitary to the ordered pair `(q0, q1)` in the
    /// `|q1 q0>` basis convention of [`crate::gates`].
    ///
    /// # Panics
    ///
    /// Panics if operands coincide, are out of range, or `u` is not 4x4.
    pub fn apply_unitary_2q(&mut self, u: &CMatrix, q0: usize, q1: usize) {
        self.apply_unitary_2q_ctx(u, q0, q1, &ParallelCtx::SERIAL);
    }

    /// [`DensityMatrix::apply_unitary_2q`] under an explicit
    /// [`ParallelCtx`] (see [`DensityMatrix::apply_unitary_1q_ctx`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`DensityMatrix::apply_unitary_2q`].
    pub fn apply_unitary_2q_ctx(&mut self, u: &CMatrix, q0: usize, q1: usize, ctx: &ParallelCtx) {
        assert!(q0 != q1, "2q gate operands must differ");
        assert!(q0 < self.n && q1 < self.n, "qubit out of range");
        assert_eq!((u.rows(), u.cols()), (4, 4), "2q gate must be 4x4");
        let dim = self.dim();
        unitary_kernel::<4, 16>(&mut self.mat, dim, u, &[q0, q1], ctx);
    }

    /// Applies a Kraus channel to the listed qubits:
    /// `rho -> sum_k K_k rho K_k^dag`.
    ///
    /// One- and two-qubit channels are supported (matching every channel in
    /// [`crate::noise`]). The block kernel runs in place and allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len() != channel.num_qubits()` or arity is not 1
    /// or 2.
    pub fn apply_channel(&mut self, channel: &KrausChannel, qubits: &[usize]) {
        self.apply_channel_ctx(channel, qubits, &ParallelCtx::SERIAL);
    }

    /// [`DensityMatrix::apply_channel`] under an explicit
    /// [`ParallelCtx`] (see [`DensityMatrix::apply_unitary_1q_ctx`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`DensityMatrix::apply_channel`].
    pub fn apply_channel_ctx(
        &mut self,
        channel: &KrausChannel,
        qubits: &[usize],
        ctx: &ParallelCtx,
    ) {
        assert_eq!(
            qubits.len(),
            channel.num_qubits(),
            "channel arity does not match qubit list"
        );
        for &q in qubits {
            assert!(q < self.n, "qubit {q} out of range");
        }
        let dim = self.dim();
        let ops = channel.operators();
        match *qubits {
            [_] => channel_kernel::<2, 4>(&mut self.mat, dim, ops, qubits, ctx),
            [a, b] => {
                assert!(a != b, "2q channel operands must differ");
                channel_kernel::<4, 16>(&mut self.mat, dim, ops, qubits, ctx)
            }
            _ => panic!("only 1- and 2-qubit channels are supported"),
        }
    }

    /// Trace of the density matrix (1 for a valid state).
    pub fn trace(&self) -> f64 {
        let dim = self.dim();
        (0..dim).map(|i| self.mat[i * dim + i].re).sum()
    }

    /// Purity `Tr(rho^2)`; 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        let dim = self.dim();
        let mut acc = 0.0;
        for r in 0..dim {
            for c in 0..dim {
                // Tr(rho^2) = sum_{r,c} rho_rc * rho_cr = sum |rho_rc|^2 (Hermitian).
                acc += (self.at(r, c) * self.at(c, r)).re;
            }
        }
        acc
    }

    /// Re-initializes to `|0...0><0...0|` over `n_qubits`, reusing the
    /// allocation when the size allows. The engine reset path: no fresh
    /// matrix per job.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > Self::MAX_QUBITS`.
    pub fn reset_to(&mut self, n_qubits: usize) {
        assert!(
            n_qubits <= Self::MAX_QUBITS,
            "density matrix capped at {} qubits",
            Self::MAX_QUBITS
        );
        let dim = 1usize << n_qubits;
        self.n = n_qubits;
        self.mat.clear();
        self.mat.resize(dim * dim, C64::ZERO);
        self.mat[0] = C64::ONE;
    }

    /// Overwrites this state with a copy of `other`, reusing the
    /// allocation (the shift-pair fork path: snapshot and restore a
    /// shared prefix without fresh matrices).
    pub fn copy_from(&mut self, other: &DensityMatrix) {
        self.n = other.n;
        self.mat.clear();
        self.mat.extend_from_slice(&other.mat);
    }

    /// Computational-basis measurement probabilities (the diagonal).
    pub fn probabilities(&self) -> Vec<f64> {
        let dim = self.dim();
        (0..dim)
            .map(|i| self.mat[i * dim + i].re.max(0.0))
            .collect()
    }

    /// Writes the measurement probabilities into a reusable buffer
    /// (same values as [`DensityMatrix::probabilities`], no allocation
    /// once the buffer has capacity).
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        let dim = self.dim();
        out.clear();
        out.extend((0..dim).map(|i| self.mat[i * dim + i].re.max(0.0)));
    }

    /// Expectation value of a Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if a qubit repeats or is out of range.
    pub fn expectation_pauli(&self, ops: &[(usize, Pauli)]) -> f64 {
        // Tr(P rho): apply P to a copy and take the trace.
        let mut seen = 0usize;
        let mut work = self.clone();
        for &(q, p) in ops {
            assert!(q < self.n, "qubit {q} out of range");
            assert!(seen & (1 << q) == 0, "duplicate qubit {q}");
            seen |= 1 << q;
            if p != Pauli::I {
                // Left-multiply only: Tr(P rho) via rho -> P rho.
                work.left_multiply_1q(&p.matrix(), q);
            }
        }
        let dim = work.dim();
        (0..dim).map(|i| work.mat[i * dim + i].re).sum()
    }

    /// Left multiplication `rho -> M rho` on one qubit (no right factor).
    fn left_multiply_1q(&mut self, m: &CMatrix, q: usize) {
        let dim = self.dim();
        let bit = 1usize << q;
        let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
        for c in 0..dim {
            for r in 0..dim {
                if r & bit == 0 {
                    let r1 = r | bit;
                    let a0 = self.mat[r * dim + c];
                    let a1 = self.mat[r1 * dim + c];
                    self.mat[r * dim + c] = m00 * a0 + m01 * a1;
                    self.mat[r1 * dim + c] = m10 * a0 + m11 * a1;
                }
            }
        }
    }

    /// Renormalizes the trace to 1 (guards against numerical drift in long
    /// channel sequences).
    pub fn normalize(&mut self) {
        let t = self.trace();
        if t > 0.0 {
            for z in &mut self.mat {
                *z = *z / t;
            }
        }
    }

    /// Fidelity with a pure reference state: `<psi| rho |psi>`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn fidelity_with_pure(&self, sv: &StateVector) -> f64 {
        assert_eq!(self.n, sv.num_qubits(), "qubit count mismatch");
        let dim = self.dim();
        let amps = sv.amplitudes();
        let mut acc = C64::ZERO;
        for r in 0..dim {
            for c in 0..dim {
                acc += amps[r].conj() * self.at(r, c) * amps[c];
            }
        }
        acc.re
    }

    /// Samples `shots` measurement outcomes.
    pub fn sample<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<usize> {
        crate::sampler::sample_indices(&self.probabilities(), shots, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    /// Runs the same gate list through both simulators and compares.
    fn cross_check(gates_1q: &[(CMatrix, usize)], gates_2q: &[(CMatrix, usize, usize)], n: usize) {
        let mut sv = StateVector::new(n);
        let mut dm = DensityMatrix::new(n);
        for (g, q) in gates_1q {
            sv.apply_1q(g, *q);
            dm.apply_unitary_1q(g, *q);
        }
        for (g, a, b) in gates_2q {
            sv.apply_2q(g, *a, *b);
            dm.apply_unitary_2q(g, *a, *b);
        }
        let pure = DensityMatrix::from_statevector(&sv);
        assert!(
            dm.matrix().approx_eq(&pure.matrix(), 1e-10),
            "density and statevector evolutions diverge"
        );
    }

    #[test]
    fn matches_statevector_on_unitary_circuit() {
        cross_check(
            &[
                (gates::h(), 0),
                (gates::ry(0.7), 1),
                (gates::rz(1.2), 2),
                (gates::sx(), 1),
            ],
            &[
                (gates::cx(), 0, 1),
                (gates::cx(), 1, 2),
                (gates::rzz(0.5), 0, 2),
            ],
            3,
        );
    }

    #[test]
    fn trace_and_purity_of_fresh_state() {
        let rho = DensityMatrix::new(3);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn channel_preserves_trace_and_reduces_purity() {
        let mut rho = DensityMatrix::new(2);
        rho.apply_unitary_1q(&gates::h(), 0);
        rho.apply_unitary_2q(&gates::cx(), 0, 1);
        let ch = KrausChannel::depolarizing_2q(0.1);
        rho.apply_channel(&ch, &[0, 1]);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.purity() < 1.0 - 1e-6);
    }

    #[test]
    fn bell_state_probabilities_with_noise() {
        let mut rho = DensityMatrix::new(2);
        rho.apply_unitary_1q(&gates::h(), 0);
        rho.apply_unitary_2q(&gates::cx(), 0, 1);
        rho.apply_channel(&KrausChannel::depolarizing_1q(0.05), &[0]);
        let p = rho.probabilities();
        // Noise symmetric between 00/11 and leaks into 01/10 equally.
        assert!((p[0] - p[3]).abs() < 1e-10);
        assert!((p[1] - p[2]).abs() < 1e-10);
        assert!(p[1] > 0.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn expectation_pauli_matches_statevector() {
        let mut sv = StateVector::new(2);
        sv.apply_1q(&gates::ry(0.9), 0);
        sv.apply_2q(&gates::cx(), 0, 1);
        let dm = DensityMatrix::from_statevector(&sv);
        for ops in [
            vec![(0usize, Pauli::Z)],
            vec![(0, Pauli::X), (1, Pauli::X)],
            vec![(0, Pauli::Y), (1, Pauli::Y)],
            vec![(0, Pauli::Z), (1, Pauli::Z)],
        ] {
            let a = sv.expectation_pauli(&ops);
            let b = dm.expectation_pauli(&ops);
            assert!((a - b).abs() < 1e-10, "mismatch on {ops:?}: {a} vs {b}");
        }
    }

    #[test]
    fn fidelity_with_pure_reference() {
        let mut sv = StateVector::new(1);
        sv.apply_1q(&gates::h(), 0);
        let mut rho = DensityMatrix::from_statevector(&sv);
        assert!((rho.fidelity_with_pure(&sv) - 1.0).abs() < 1e-12);
        rho.apply_channel(&KrausChannel::phase_damping(1.0), &[0]);
        assert!((rho.fidelity_with_pure(&sv) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_restores_unit_trace() {
        let mut rho = DensityMatrix::new(1);
        // Scale artificially through a non-TP hack: apply_operator via channel
        // isn't exposed, so simulate drift by scaling matrix.
        let m = rho.matrix().scale(C64::from_real(0.98));
        rho = DensityMatrix {
            n: 1,
            mat: m.as_slice().to_vec(),
        };
        rho.normalize();
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    /// `K -> V K V^dag` on every operator: a CPTP channel whose
    /// operators are dense whenever `V` mixes the Pauli axes.
    fn rotated(ch: &KrausChannel, v: &CMatrix) -> KrausChannel {
        KrausChannel::new(
            ch.operators()
                .iter()
                .map(|k| v.clone() * k.clone() * v.dagger())
                .collect(),
        )
    }

    /// A small noisy workload touching every kernel: sparse and dense
    /// 1q/2q unitaries; sparse channels (including an all-zero Kraus
    /// row via amplitude damping) from the on-stack term list, up to
    /// its full 16-operator thermal-relaxation-then-depolarizing shape;
    /// an oversized sparse channel; and dense and mixed dense/sparse
    /// Kraus channels on both arities.
    fn drive(apply: &mut dyn FnMut(Step<'_>), n: usize) {
        let dense_2q = gates::h().kron(&gates::ry(0.7));
        for q in 0..n {
            apply(Step::U1(&gates::ry(0.3 + q as f64), q));
            apply(Step::U1(&gates::h(), q));
        }
        for q in 0..n.saturating_sub(1) {
            apply(Step::U2(&gates::cx(), q, q + 1));
            apply(Step::U2(&dense_2q, q, q + 1));
        }
        apply(Step::Ch(&KrausChannel::amplitude_damping(0.2), &[0]));
        apply(Step::Ch(&KrausChannel::depolarizing_1q(0.05), &[n / 2]));
        let thermal_depol = KrausChannel::thermal_relaxation(90.0, 70.0, 0.5)
            .compose(&KrausChannel::depolarizing_1q(0.02));
        assert_eq!(thermal_depol.operators().len(), MAX_STACK_TERMS);
        apply(Step::Ch(&thermal_depol, &[n - 1]));
        let oversized = thermal_depol.compose(&KrausChannel::bit_flip(0.1));
        assert!(oversized.operators().len() > MAX_STACK_TERMS);
        apply(Step::Ch(&oversized, &[0]));
        // Rows mixing real and imaginary entries: `sqrt(p) S`.
        let phase = KrausChannel::new(vec![
            CMatrix::identity(2).scale(C64::from_real(0.9f64.sqrt())),
            gates::s().scale(C64::from_real(0.1f64.sqrt())),
        ]);
        apply(Step::Ch(
            &phase.compose(&KrausChannel::depolarizing_1q(0.1)),
            &[n - 1],
        ));
        let dense_1q = rotated(&KrausChannel::depolarizing_1q(0.3), &gates::ry(0.7));
        assert!(dense_1q.operators().len() > 1);
        apply(Step::Ch(&dense_1q, &[n / 2]));
        if n >= 2 {
            apply(Step::Ch(&KrausChannel::depolarizing_2q(0.1), &[0, n - 1]));
            let dense_ch = KrausChannel::new(vec![gates::h().kron(&gates::h())]);
            apply(Step::Ch(&dense_ch, &[n - 1, 0]));
            let phase_2q = KrausChannel::new(vec![
                CMatrix::identity(4).scale(C64::from_real(0.8f64.sqrt())),
                gates::s()
                    .kron(&gates::x())
                    .scale(C64::from_real(0.2f64.sqrt())),
            ]);
            apply(Step::Ch(&phase_2q, &[0, n - 1]));
            let v = gates::ry(0.4).kron(&gates::rx(1.1));
            let dense_2q_ch = rotated(&KrausChannel::depolarizing_2q(0.2), &v);
            apply(Step::Ch(&dense_2q_ch, &[n / 2, 0]));
        }
    }

    enum Step<'a> {
        U1(&'a CMatrix, usize),
        U2(&'a CMatrix, usize, usize),
        Ch(&'a KrausChannel, &'a [usize]),
    }

    #[test]
    fn parallel_kernels_are_bit_identical_to_serial() {
        let ctx = ParallelCtx::with_workers(4);
        for n in 1..=7 {
            let mut serial = DensityMatrix::new(n);
            let mut par = DensityMatrix::new(n);
            drive(
                &mut |step| match step {
                    Step::U1(u, q) => {
                        serial.apply_unitary_1q(u, q);
                        par.apply_unitary_1q_ctx(u, q, &ctx);
                    }
                    Step::U2(u, a, b) => {
                        serial.apply_unitary_2q(u, a, b);
                        par.apply_unitary_2q_ctx(u, a, b, &ctx);
                    }
                    Step::Ch(ch, qs) => {
                        serial.apply_channel(ch, qs);
                        par.apply_channel_ctx(ch, qs, &ctx);
                    }
                },
                n,
            );
            for (a, b) in serial.mat.iter().zip(&par.mat) {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "parallel diverges from serial at {n} qubits"
                );
            }
        }
    }

    #[test]
    fn fused_channel_path_matches_baseline() {
        for n in 1..=5 {
            let mut fast = DensityMatrix::new(n);
            let mut slow = DensityMatrix::new(n);
            drive(
                &mut |step| match step {
                    Step::U1(u, q) => {
                        fast.apply_unitary_1q(u, q);
                        baseline::apply_unitary_1q(&mut slow, u, q);
                    }
                    Step::U2(u, a, b) => {
                        fast.apply_unitary_2q(u, a, b);
                        baseline::apply_unitary_2q(&mut slow, u, a, b);
                    }
                    Step::Ch(ch, qs) => {
                        fast.apply_channel(ch, qs);
                        baseline::apply_channel(&mut slow, ch, qs);
                    }
                },
                n,
            );
            // `==` on each part: bitwise up to the sign of zero.
            for (a, b) in fast.mat.iter().zip(&slow.mat) {
                assert!(
                    a.re == b.re && a.im == b.im,
                    "block kernels diverge from baseline at {n} qubits: {a:?} vs {b:?}"
                );
            }
            assert!((fast.trace() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn two_qubit_gate_on_noncontiguous_qubits() {
        // CX between qubits 0 and 2 of a 3-qubit register.
        let mut sv = StateVector::new(3);
        sv.apply_1q(&gates::x(), 0);
        sv.apply_2q(&gates::cx(), 0, 2);
        let mut dm = DensityMatrix::new(3);
        dm.apply_unitary_1q(&gates::x(), 0);
        dm.apply_unitary_2q(&gates::cx(), 0, 2);
        let probs = dm.probabilities();
        assert!((probs[0b101] - 1.0).abs() < 1e-12);
        assert!((sv.probability_of(0b101) - 1.0).abs() < 1e-12);
    }
}
