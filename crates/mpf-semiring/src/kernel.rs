//! Compile-time (monomorphized) semiring operations over the engine's
//! `f64` carrier.
//!
//! [`crate::SemiringKind`] dispatches every `add`/`mul` through a
//! `match` — fine for the hash operators, whose cost is dominated by key
//! extraction and probing, but fatal for the columnar kernels, whose
//! inner loops are a handful of arithmetic instructions that the
//! compiler can only vectorize when the operation is statically known.
//! This module provides one zero-sized type per semiring implementing
//! [`SemiringOps`] (associated-const identities, inlined static ops) and
//! the [`for_each_semiring`](crate::for_each_semiring) macro that
//! monomorphizes a generic kernel for all seven and selects the
//! instantiation from a runtime [`crate::SemiringKind`]. Both the CSR
//! sparse-tensor kernels (`mpf_algebra::sparse`) and the dense grid
//! kernels (`mpf_algebra::dense`) are instantiated through this module,
//! so every columnar inner loop in the engine compiles to straight-line
//! per-semiring code. The definitions here are *the same expressions*
//! as the dynamic [`crate::SemiringKind::add`]/
//! [`crate::SemiringKind::mul`] arms, so both paths produce
//! bit-identical results cell for cell.
//!
//! # Deterministic reduction shape
//!
//! The chunked (SIMD-friendly) kernels fold contiguous runs through
//! [`LANES`] parallel accumulators and combine them with
//! [`reduce_lanes`], a fixed pairwise tree. The association order of a
//! chunked fold is therefore a pure function of the run *length* —
//! never of thread count, partitioning, or chunk scheduling — so a
//! given query produces bit-identical answers at any `MPF_THREADS`
//! setting. Against a one-value-at-a-time scalar fold (the reference the
//! kernels are tested against) the association order differs, which for
//! the non-associative floating-point folds (`SumProduct`,
//! `LogSumProduct`) may change results within rounding; the min/max
//! family (`MinSum`, `MaxSum`, `MinProduct`, `MaxProduct`,
//! `BoolOrAnd`) is insensitive to association, so scalar and chunked
//! folds agree exactly there.

use crate::{logsumexp, SemiringKind};

/// Lane width of the chunked kernels: contiguous runs fold through this
/// many independent `f64` accumulators so the additive operation
/// autovectorizes. 8 × f64 = one AVX-512 register, two AVX2 registers,
/// four NEON registers — a shape every current target handles well.
pub const LANES: usize = 8;

/// Combine [`LANES`] partial accumulators with a fixed pairwise
/// reduction tree: `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` for
/// `LANES = 8`. The shape is a compile-time constant — part of the
/// deterministic-reduction contract documented at the module level —
/// so chunked results never depend on how work was scheduled.
#[inline(always)]
pub fn reduce_lanes<S: SemiringOps>(lanes: [f64; LANES]) -> f64 {
    let a = S::add(lanes[0], lanes[4]);
    let b = S::add(lanes[1], lanes[5]);
    let c = S::add(lanes[2], lanes[6]);
    let d = S::add(lanes[3], lanes[7]);
    S::add(S::add(a, c), S::add(b, d))
}

/// Fold a contiguous run of values with the semiring's additive
/// operation using the chunked lane shape: [`LANES`] independent
/// accumulators over full blocks, [`reduce_lanes`]'s fixed tree, then a
/// left-to-right scalar tail. The association order depends only on
/// `vals.len()` (the deterministic-reduction contract), and the lane
/// loop has no cross-iteration dependence, so it autovectorizes.
#[inline(always)]
pub fn fold_run<S: SemiringOps>(vals: &[f64]) -> f64 {
    let n = vals.len();
    let mut lanes = [S::ZERO; LANES];
    let mut t = 0;
    while t + LANES <= n {
        for q in 0..LANES {
            lanes[q] = S::add(lanes[q], vals[t + q]);
        }
        t += LANES;
    }
    let mut acc = reduce_lanes::<S>(lanes);
    while t < n {
        acc = S::add(acc, vals[t]);
        t += 1;
    }
    acc
}

/// Statically-known semiring operations over `f64` measures (Boolean
/// measures are `0.0`/`1.0`, as everywhere in the engine).
pub trait SemiringOps: Copy + Send + Sync + 'static {
    /// The runtime tag this type monomorphizes.
    const KIND: SemiringKind;
    /// Additive identity (`SemiringKind::zero`).
    const ZERO: f64;
    /// Multiplicative identity (`SemiringKind::one`).
    const ONE: f64;
    /// The additive (aggregate) operation.
    fn add(a: f64, b: f64) -> f64;
    /// The multiplicative (product join) operation.
    fn mul(a: f64, b: f64) -> f64;
}

/// `(+, ×)` — probabilistic inference, totals.
#[derive(Debug, Clone, Copy)]
pub struct SumProduct;

impl SemiringOps for SumProduct {
    const KIND: SemiringKind = SemiringKind::SumProduct;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

/// `(min, +)` — minimum additive cost.
#[derive(Debug, Clone, Copy)]
pub struct MinSum;

impl SemiringOps for MinSum {
    const KIND: SemiringKind = SemiringKind::MinSum;
    const ZERO: f64 = f64::INFINITY;
    const ONE: f64 = 0.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// `(max, +)` — maximum additive gain.
#[derive(Debug, Clone, Copy)]
pub struct MaxSum;

impl SemiringOps for MaxSum {
    const KIND: SemiringKind = SemiringKind::MaxSum;
    const ZERO: f64 = f64::NEG_INFINITY;
    const ONE: f64 = 0.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a.max(b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// `(min, ×)` — minimum multiplicative cost.
#[derive(Debug, Clone, Copy)]
pub struct MinProduct;

impl SemiringOps for MinProduct {
    const KIND: SemiringKind = SemiringKind::MinProduct;
    const ZERO: f64 = f64::INFINITY;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        // `+∞` (the additive identity) must annihilate; avoid the IEEE
        // `∞ × 0 = NaN` pitfall — same guard as the dynamic dispatch.
        if a == f64::INFINITY || b == f64::INFINITY {
            f64::INFINITY
        } else {
            a * b
        }
    }
}

/// `(max, ×)` — Viterbi / most probable explanation.
#[derive(Debug, Clone, Copy)]
pub struct MaxProduct;

impl SemiringOps for MaxProduct {
    const KIND: SemiringKind = SemiringKind::MaxProduct;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a.max(b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

/// `(∨, ∧)` on `{0.0, 1.0}` — existence queries.
#[derive(Debug, Clone, Copy)]
pub struct BoolOrAnd;

impl SemiringOps for BoolOrAnd {
    const KIND: SemiringKind = SemiringKind::BoolOrAnd;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        if a != 0.0 || b != 0.0 {
            1.0
        } else {
            0.0
        }
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        if a != 0.0 && b != 0.0 {
            1.0
        } else {
            0.0
        }
    }
}

/// `(logsumexp, +)` — sum-product over log-space measures.
#[derive(Debug, Clone, Copy)]
pub struct LogSumProduct;

impl SemiringOps for LogSumProduct {
    const KIND: SemiringKind = SemiringKind::LogSumProduct;
    const ZERO: f64 = f64::NEG_INFINITY;
    const ONE: f64 = 0.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        logsumexp(a, b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Monomorphize a generic kernel over every semiring and call the
/// instantiation matching a runtime [`crate::SemiringKind`]:
///
/// ```
/// use mpf_semiring::{for_each_semiring, kernel::SemiringOps, SemiringKind};
///
/// fn dot<S: SemiringOps>(xs: &[f64], ys: &[f64]) -> f64 {
///     xs.iter().zip(ys).fold(S::ZERO, |acc, (&x, &y)| S::add(acc, S::mul(x, y)))
/// }
///
/// let sr = SemiringKind::MinSum;
/// let d = for_each_semiring!(sr, dot(&[1.0, 2.0], &[3.0, 5.0]));
/// assert_eq!(d, 4.0);
/// ```
///
/// The expansion is a `match` over all seven variants, each arm calling
/// `$func::<$crate::kernel::Variant>($args...)` — the static type flows
/// into the kernel's inner loops, so they compile to straight-line
/// vectorizable code per semiring.
#[macro_export]
macro_rules! for_each_semiring {
    ($kind:expr, $func:ident ( $($args:expr),* $(,)? )) => {
        match $kind {
            $crate::SemiringKind::SumProduct => {
                $func::<$crate::kernel::SumProduct>($($args),*)
            }
            $crate::SemiringKind::MinSum => {
                $func::<$crate::kernel::MinSum>($($args),*)
            }
            $crate::SemiringKind::MaxSum => {
                $func::<$crate::kernel::MaxSum>($($args),*)
            }
            $crate::SemiringKind::MinProduct => {
                $func::<$crate::kernel::MinProduct>($($args),*)
            }
            $crate::SemiringKind::MaxProduct => {
                $func::<$crate::kernel::MaxProduct>($($args),*)
            }
            $crate::SemiringKind::BoolOrAnd => {
                $func::<$crate::kernel::BoolOrAnd>($($args),*)
            }
            $crate::SemiringKind::LogSumProduct => {
                $func::<$crate::kernel::LogSumProduct>($($args),*)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check<S: SemiringOps>(cases: &[(f64, f64)]) {
        assert_eq!(S::ZERO, S::KIND.zero());
        assert_eq!(S::ONE, S::KIND.one());
        for &(a, b) in cases {
            let add = S::add(a, b);
            let mul = S::mul(a, b);
            let dadd = S::KIND.add(a, b);
            let dmul = S::KIND.mul(a, b);
            assert!(
                add == dadd || (add.is_nan() && dadd.is_nan()),
                "{:?} add({a}, {b})",
                S::KIND
            );
            assert!(
                mul == dmul || (mul.is_nan() && dmul.is_nan()),
                "{:?} mul({a}, {b})",
                S::KIND
            );
        }
    }

    #[test]
    fn static_ops_match_dynamic_dispatch() {
        let cases: Vec<(f64, f64)> = vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (0.5, 2.0),
            (-3.0, 7.0),
            (f64::INFINITY, 0.0),
            (f64::NEG_INFINITY, 1.0),
            (f64::INFINITY, f64::NEG_INFINITY),
            (1e308, 1e308),
            (-745.0, -745.0),
        ];
        for sr in SemiringKind::ALL {
            for_each_semiring!(sr, check(&cases));
        }
    }

    #[test]
    fn reduce_lanes_matches_reference_tree() {
        fn check_tree<S: SemiringOps>() {
            let lanes = [3.0, -1.0, 4.0, 1.5, -9.0, 2.5, 6.0, -5.0];
            let a = S::add(lanes[0], lanes[4]);
            let b = S::add(lanes[1], lanes[5]);
            let c = S::add(lanes[2], lanes[6]);
            let d = S::add(lanes[3], lanes[7]);
            let expect = S::add(S::add(a, c), S::add(b, d));
            let got = reduce_lanes::<S>(lanes);
            assert!(
                got == expect || (got.is_nan() && expect.is_nan()),
                "{:?}",
                S::KIND
            );
            // All-identity lanes reduce to the additive identity.
            assert_eq!(reduce_lanes::<S>([S::ZERO; LANES]), S::ZERO);
        }
        for sr in SemiringKind::ALL {
            for_each_semiring!(sr, check_tree());
        }
    }

    #[test]
    fn fold_run_shape_is_a_function_of_length_only() {
        fn check_fold<S: SemiringOps>() {
            for n in [0usize, 1, 7, 8, 9, 16, 23] {
                let vals: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
                // Reference: the documented lane shape, written out.
                let mut lanes = [S::ZERO; LANES];
                let mut t = 0;
                while t + LANES <= n {
                    for q in 0..LANES {
                        lanes[q] = S::add(lanes[q], vals[t + q]);
                    }
                    t += LANES;
                }
                let mut expect = reduce_lanes::<S>(lanes);
                for &v in &vals[t..] {
                    expect = S::add(expect, v);
                }
                assert_eq!(fold_run::<S>(&vals).to_bits(), expect.to_bits(), "{:?} n={n}", S::KIND);
            }
            assert_eq!(fold_run::<S>(&[]), S::ZERO);
        }
        for sr in SemiringKind::ALL {
            for_each_semiring!(sr, check_fold());
        }
    }

    #[test]
    fn macro_selects_the_matching_instantiation() {
        fn kind_of<S: SemiringOps>() -> SemiringKind {
            S::KIND
        }
        for sr in SemiringKind::ALL {
            assert_eq!(for_each_semiring!(sr, kind_of()), sr);
        }
    }
}
