//! Property tests for the dense odometer kernels: on support-exact inputs
//! the dense join and marginalization are function-equal to the sparse
//! hash operators for every semiring, *bit-identical across thread
//! counts*, and charge the budgets identically (same typed error on a
//! trip, same rows-processed accounting). On inputs that are not
//! support-exact every [`ReprMode`] that allows dense falls back to the
//! other operators, so answers never depend on the mode. Modes are pinned
//! on the [`ExecContext`].

use mpf_algebra::{
    dense, ops, sparse, AggAlgo, AlgebraError, CancelToken, ExecContext, ExecLimits, Executor,
    JoinAlgo, PhysicalPlan, Plan, RelationStore, ReprMode, ResourceKind,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 4];

/// Exact equality up to row/column order — no float tolerance.
fn bit_identical(a: &FunctionalRelation, b: &FunctionalRelation) -> bool {
    let (a, b) = (a.canonicalized(), b.canonicalized());
    a.schema() == b.schema() && a.len() == b.len() && a.rows().eq(b.rows())
}

/// Complete r1(a, b) and r2(b, c) over 3-value domains with the given
/// measures (support-exact join inputs: every grid point is a row and the
/// shared variable spans the same range on both sides).
fn rels(
    sr: SemiringKind,
    m1: &[u8],
    m2: &[u8],
) -> (FunctionalRelation, FunctionalRelation, [VarId; 3]) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 3).unwrap();
    let b = cat.add_var("b", 3).unwrap();
    let c = cat.add_var("c", 3).unwrap();
    // BoolOrAnd measures must stay in {0, 1}.
    let conv = |m: u8| {
        if sr == SemiringKind::BoolOrAnd {
            (m % 2) as f64
        } else {
            m as f64
        }
    };
    let r1 = FunctionalRelation::from_rows(
        "r1",
        Schema::new(vec![a, b]).unwrap(),
        (0..9u32).map(|i| (vec![i / 3, i % 3], conv(m1[i as usize]))),
    )
    .unwrap();
    let r2 = FunctionalRelation::from_rows(
        "r2",
        Schema::new(vec![b, c]).unwrap(),
        (0..9u32).map(|i| (vec![i / 3, i % 3], conv(m2[i as usize]))),
    )
    .unwrap();
    (r1, r2, [a, b, c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense join + marginalization match the sparse operators for every
    /// semiring at every thread count on support-exact inputs, with the
    /// dense output bit-identical across thread counts.
    #[test]
    fn dense_operators_match_sparse(
        m1 in proptest::collection::vec(0u8..10, 9),
        m2 in proptest::collection::vec(0u8..10, 9),
        group_var in 0usize..3,
    ) {
        for sr in SemiringKind::ALL {
            let (r1, r2, vars) = rels(sr, &m1, &m2);
            let gv = [vars[group_var]];
            let want_join = ops::product_join(&mut ExecContext::new(sr), &r1, &r2).unwrap();
            let want_agg = ops::group_by(&mut ExecContext::new(sr), &want_join, &gv).unwrap();
            let mut base: Option<(FunctionalRelation, FunctionalRelation)> = None;
            for t in THREADS {
                let mut cx = ExecContext::new(sr).with_threads(t);
                let got_join = dense::join(&mut cx, &r1, &r2).unwrap();
                let got_agg = dense::agg(&mut cx, &got_join, &gv).unwrap();
                prop_assert_eq!(cx.stats().dense_joins, 1, "dense path taken");
                prop_assert_eq!(cx.stats().dense_group_bys, 1);
                // Same support, same measures (up to float tolerance for
                // the reassociated group folds) as the sparse pipeline...
                prop_assert!(want_join.function_eq(&got_join), "join: sr {sr:?} threads {t}");
                prop_assert!(want_agg.function_eq(&got_agg), "agg: sr {sr:?} threads {t}");
                // ...and the dense results never vary with the thread
                // count, down to the bits.
                match &base {
                    None => base = Some((got_join, got_agg)),
                    Some((j, g)) => {
                        prop_assert!(bit_identical(&got_join, j), "join bits: sr {sr:?}");
                        prop_assert!(bit_identical(&got_agg, g), "agg bits: sr {sr:?}");
                    }
                }
            }
        }
    }

    /// Whatever the mode, [`sparse::join_auto`] / [`sparse::agg_auto`]
    /// answer identically: `Rows` never takes the dense path, and
    /// `Dense`/`Auto` refuse inputs that are not support-exact, so mode
    /// only ever picks the kernel, never the answer. Holes are punched in
    /// r1 (making it incomplete) to exercise the fallback side.
    #[test]
    fn mode_never_changes_answers(
        m1 in proptest::collection::vec(0u8..10, 9),
        m2 in proptest::collection::vec(0u8..10, 9),
        hole_picks in proptest::collection::vec(0usize..9, 0..4),
        sr_idx in 0usize..7,
    ) {
        let holes: std::collections::BTreeSet<usize> = hole_picks.into_iter().collect();
        let sr = SemiringKind::ALL[sr_idx];
        let (r1, r2, [_, b, _]) = rels(sr, &m1, &m2);
        let punched = FunctionalRelation::from_rows(
            "r1",
            r1.schema().clone(),
            r1.rows().enumerate().filter(|(i, _)| !holes.contains(i)).map(|(_, (row, m))| (row.to_vec(), m)),
        )
        .unwrap();
        for input in [&r1, &punched] {
            let mut answers: Vec<FunctionalRelation> = Vec::new();
            for mode in [ReprMode::Rows, ReprMode::Dense, ReprMode::Auto] {
                let mut cx = ExecContext::new(sr).with_repr(mode);
                let j = sparse::join_auto(&mut cx, input, &r2).unwrap();
                let g = sparse::agg_auto(&mut cx, &j, &[b]).unwrap();
                if mode == ReprMode::Rows {
                    prop_assert_eq!(cx.stats().dense_joins + cx.stats().dense_group_bys, 0);
                }
                if !dense::join_support_exact(input, &r2) {
                    prop_assert_eq!(cx.stats().dense_joins, 0, "incomplete input fell back");
                }
                answers.push(g);
            }
            for other in &answers[1..] {
                prop_assert!(answers[0].function_eq(other), "sr {sr:?} holes {holes:?}");
            }
        }
    }
}

/// A fixture big enough to cross [`dense::PARALLEL_MIN_CELLS`]: joining
/// two complete 8^3-row relations yields an 8^5 = 32768-cell output grid,
/// so at 4 threads the kernels actually fan out.
fn big_fixture() -> (FunctionalRelation, FunctionalRelation, [VarId; 5]) {
    let mut cat = Catalog::new();
    let vars: Vec<VarId> = ["a", "b", "c", "d", "e"]
        .iter()
        .map(|n| cat.add_var(n, 8).unwrap())
        .collect();
    let &[a, b, c, d, e] = vars.as_slice() else { unreachable!() };
    let r1 = FunctionalRelation::complete("r1", Schema::new(vec![a, b, c]).unwrap(), &cat, |row| {
        0.1 + (row[0] * 64 + row[1] * 8 + row[2]) as f64 / 7.0
    });
    let r2 = FunctionalRelation::complete("r2", Schema::new(vec![c, d, e]).unwrap(), &cat, |row| {
        0.3 + (row[0] * 64 + row[1] * 8 + row[2]) as f64 / 11.0
    });
    (r1, r2, [a, b, c, d, e])
}

/// The chunked parallel kernels are bit-identical to the sequential ones
/// on an output large enough to actually engage them, for the semirings
/// whose additions are float-order-sensitive.
#[test]
fn parallel_dense_kernels_match_sequential_bits() {
    let (r1, r2, [_, b, _, d, _]) = big_fixture();
    for sr in [SemiringKind::SumProduct, SemiringKind::LogSumProduct] {
        let mut seq = ExecContext::new(sr).with_threads(1);
        let j1 = dense::join(&mut seq, &r1, &r2).unwrap();
        let g1 = dense::agg(&mut seq, &j1, &[b, d]).unwrap();
        let mut par = ExecContext::new(sr).with_threads(4);
        let j4 = dense::join(&mut par, &r1, &r2).unwrap();
        let g4 = dense::agg(&mut par, &j4, &[b, d]).unwrap();
        assert_eq!(seq.stats().dense_joins, 1);
        assert_eq!(par.stats().dense_joins, 1);
        assert!(bit_identical(&j1, &j4), "{sr:?} join");
        assert!(bit_identical(&g1, &g4), "{sr:?} agg");
        // And the sparse pipeline agrees as a function.
        let sj = ops::product_join(&mut ExecContext::new(sr), &r1, &r2).unwrap();
        let sg = ops::group_by(&mut ExecContext::new(sr), &sj, &[b, d]).unwrap();
        assert!(sj.function_eq(&j4), "{sr:?} sparse join parity");
        assert!(sg.function_eq(&g4), "{sr:?} sparse agg parity");
    }
}

/// Physical plans annotated `Dense`/`DenseAgg` by the planner execute
/// through the interpreter to the same answer and accounting as the
/// all-hash plan, at every thread count.
#[test]
fn dense_plans_match_hash_plans_through_the_interpreter() {
    let sr = SemiringKind::SumProduct;
    let (r1, r2, [_, b, _]) = rels(sr, &[3u8; 9], &[5u8; 9]);
    let mut store = RelationStore::new();
    store.insert(r1);
    store.insert(r2);
    let logical = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![b]);
    let (want, want_stats) = Executor::new(&store, sr)
        .execute_physical(&PhysicalPlan::default_hash(&logical))
        .unwrap();
    let dense_plan = PhysicalPlan::from_logical(
        &logical,
        &mut |_, _| JoinAlgo::Dense,
        &mut |_, _| AggAlgo::DenseAgg,
    );
    for t in THREADS {
        let (got, stats) = Executor::new(&store, sr)
            .with_threads(t)
            .execute_physical(&dense_plan)
            .unwrap();
        assert!(want.function_eq(&got), "threads {t}");
        assert_eq!(stats.dense_joins, 1, "threads {t}");
        assert_eq!(stats.dense_group_bys, 1, "threads {t}");
        // Budget accounting parity: both pipelines count the same work.
        assert_eq!(stats.rows_processed, want_stats.rows_processed, "threads {t}");
        assert_eq!(stats.rows_scanned, want_stats.rows_scanned, "threads {t}");
    }
}

/// A budget trip inside a dense kernel surfaces the same typed error as
/// the sparse operator it replaces — including from the chunked parallel
/// path, where workers charge the shared budget live.
#[test]
fn budget_trips_are_identical_across_paths() {
    let sr = SemiringKind::SumProduct;
    let (r1, r2, _) = rels(sr, &[1u8; 9], &[1u8; 9]);
    let limits = ExecLimits::none().with_max_output_rows(10);
    let want = ops::product_join(&mut ExecContext::with_limits(sr, limits.clone()), &r1, &r2)
        .unwrap_err();
    assert!(matches!(
        want,
        AlgebraError::ResourceExhausted { resource: ResourceKind::OutputRows, limit: 10, .. }
    ));
    let got = dense::join(&mut ExecContext::with_limits(sr, limits), &r1, &r2).unwrap_err();
    assert_eq!(want, got, "sequential dense trip");

    let (b1, b2, _) = big_fixture();
    let limits = ExecLimits::none().with_max_output_rows(100);
    for t in THREADS {
        match dense::join(
            &mut ExecContext::with_limits(sr, limits.clone()).with_threads(t),
            &b1,
            &b2,
        ) {
            Err(AlgebraError::ResourceExhausted {
                resource: ResourceKind::OutputRows,
                limit: 100,
                ..
            }) => {}
            other => panic!("threads {t}: expected OutputRows trip, got {other:?}"),
        }
    }
}

/// A cancelled token stops the dense kernels with the typed `Cancelled`
/// error at every thread count, like the sparse operators.
#[test]
fn cancellation_stops_dense_kernels() {
    let sr = SemiringKind::SumProduct;
    let (r1, r2, [_, b, _]) = rels(sr, &[1u8; 9], &[1u8; 9]);
    for t in THREADS {
        let token = CancelToken::new();
        token.cancel();
        let limits = ExecLimits::none().with_cancel_token(token);
        let mut cx = ExecContext::with_limits(sr, limits).with_threads(t);
        match dense::join(&mut cx, &r1, &r2) {
            Err(AlgebraError::Cancelled) => {}
            other => panic!("threads {t}: expected Cancelled, got {other:?}"),
        }
        match dense::agg(&mut cx, &r1, &[b]) {
            Err(AlgebraError::Cancelled) => {}
            other => panic!("threads {t} agg: expected Cancelled, got {other:?}"),
        }
    }
}

/// Fault-injection parity at the three new dense sites: an armed site
/// fails exactly that operator with [`AlgebraError::FaultInjected`] and
/// disarms after firing, like every sparse site.
#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use mpf_algebra::fault;
    use std::sync::Mutex;

    /// The fault registry is process-global; serialize arming tests.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn dense_sites_fire_once_and_disarm() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        fault::clear_all();
        let sr = SemiringKind::SumProduct;
        let (r1, r2, [_, b, _]) = rels(sr, &[1u8; 9], &[2u8; 9]);

        fault::inject("dense::join", 1);
        assert_eq!(
            dense::join(&mut ExecContext::new(sr), &r1, &r2).unwrap_err(),
            AlgebraError::FaultInjected("dense::join".into())
        );
        assert!(dense::join(&mut ExecContext::new(sr), &r1, &r2).is_ok());

        fault::inject("dense::agg", 1);
        assert_eq!(
            dense::agg(&mut ExecContext::new(sr), &r1, &[b]).unwrap_err(),
            AlgebraError::FaultInjected("dense::agg".into())
        );
        assert!(dense::agg(&mut ExecContext::new(sr), &r1, &[b]).is_ok());

        // The conversion site fires from inside the join (first to_dense)
        // and leaves the context's stats coherent: no dense join was
        // recorded for the failed attempt.
        fault::inject("dense::convert", 1);
        let mut cx = ExecContext::new(sr);
        assert_eq!(
            dense::join(&mut cx, &r1, &r2).unwrap_err(),
            AlgebraError::FaultInjected("dense::convert".into())
        );
        assert_eq!(cx.stats().dense_joins, 0);
        assert!(dense::join(&mut cx, &r1, &r2).is_ok());
        assert_eq!(cx.stats().dense_joins, 1);
        fault::clear_all();
    }
}
