//! The host-speed reference: a fixed, benchmark-owned kernel timed
//! between samples, so that drive and set-up times can be rescaled to a
//! host of constant speed.
//!
//! A small shared host changes speed by up to 2x over seconds to
//! minutes as its neighbours come and go, and whole runs land in fast
//! or slow phases. Dividing each sample by the reference time measured
//! beside it removes most of that. The kernel mixes the kinds of work
//! the crates do (dense complex arithmetic, small allocations, hashing,
//! sorting) because each kind slows by a different factor under
//! contention. It does not touch the crates, so a change to the program
//! moves the rescaled times by exactly its own effect.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on the reference host, seconds: about
/// its median on a quiet 2-vCPU Xeon (the host of the recorded
/// results). Rescaled times read as seconds on that host.
pub const REFERENCE_S: f64 = 0.05;

/// xorshift64: a cheap deterministic stream for the kernel's inputs.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Repeated 16x16 complex matrix products: the density kernels' kind of
/// arithmetic.
fn complex_products() {
    const N: usize = 16;
    let a: Vec<(f64, f64)> = (0..N * N)
        .map(|i| (((i * 7919) % 97) as f64 / 97.0 - 0.5, 0.25))
        .collect();
    let mut b = a.clone();
    let mut c = vec![(0.0, 0.0); N * N];
    for _ in 0..1200 {
        for i in 0..N {
            for j in 0..N {
                let (mut re, mut im) = (0.0, 0.0);
                for k in 0..N {
                    let (ar, ai) = a[i * N + k];
                    let (br, bi) = b[k * N + j];
                    re += ar * br - ai * bi;
                    im += ar * bi + ai * br;
                }
                c[i * N + j] = (re * 0.25, im * 0.25);
            }
        }
        std::mem::swap(&mut b, &mut c);
        b = black_box(b);
    }
    black_box(&b);
}

/// Short-lived vectors in an ordered map: allocator and pointer work.
fn allocations() {
    let mut map = BTreeMap::new();
    let mut x = 7u64;
    for i in 0..70_000u64 {
        let r = next(&mut x);
        let v: Vec<f64> = (0..(r % 24) as usize).map(|k| k as f64 * 0.5).collect();
        map.insert(r % 4096, v);
        if i % 3 == 0 {
            map.remove(&((r >> 9) % 4096));
        }
    }
    black_box(map.len());
}

/// Inserts and look-ups in a cache-resident hash map.
fn hashing() {
    let mut map = HashMap::new();
    let mut x = 11u64;
    let mut acc = 0u64;
    for _ in 0..700_000 {
        let r = next(&mut x);
        let k = r % 2048;
        if r & 1 == 0 {
            map.insert(k, r);
        } else if let Some(v) = map.get(&k) {
            acc = acc.wrapping_add(*v);
        }
    }
    black_box(acc);
}

/// Sorting short float vectors: branchy comparisons.
fn sorting() {
    let mut x = 5u64;
    let mut acc = 0.0;
    for _ in 0..2000 {
        let mut v: Vec<f64> = (0..256).map(|_| (next(&mut x) >> 11) as f64).collect();
        v.sort_by(f64::total_cmp);
        acc += v[128];
    }
    black_box(acc);
}

/// `t` seconds measured between reference timings `before` and
/// `after`, rescaled to the reference host.
pub fn rescale(t: f64, before: f64, after: f64) -> f64 {
    t * 2.0 * REFERENCE_S / (before + after)
}

/// Runs the reference kernel once and returns its wall time, seconds.
pub fn time_kernel() -> f64 {
    let t = Instant::now();
    complex_products();
    allocations();
    hashing();
    sorting();
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescales_by_the_mean_of_the_neighbouring_reference_timings() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(rescale(0.3, REFERENCE_S, REFERENCE_S), 0.3));
        // A host running the kernel at half speed halves the sample.
        assert!(close(
            rescale(0.3, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S),
            0.15
        ));
        assert!(close(rescale(0.3, REFERENCE_S, 3.0 * REFERENCE_S), 0.15));
    }

    #[test]
    fn kernel_time_is_positive_and_finite() {
        let t = time_kernel();
        assert!(t.is_finite() && t > 0.0);
    }
}
