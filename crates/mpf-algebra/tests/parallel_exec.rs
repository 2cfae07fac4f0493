//! Property tests for the parallel execution layer: at every thread
//! count, the parallel operators and the concurrent subplan scheduler
//! compute *bit-identical* results to the sequential pipeline — same
//! support, same measures, same stats counters — and trip the same typed
//! errors when a budget is exceeded or the query is cancelled.
//!
//! The determinism argument being checked: a join output measure is one
//! multiplication computed in exactly one partition, and all rows of a
//! group hash to one partition where they fold in input order, so no
//! float operation is ever reassociated by parallelism.

use mpf_algebra::{
    ops, partitioned, AggAlgo, AlgebraError, CancelToken, ExecContext, ExecLimits, Executor,
    JoinAlgo, PhysicalPlan, Plan, RelationStore, ResourceKind,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

const SEMIRINGS: [SemiringKind; 7] = [
    SemiringKind::SumProduct,
    SemiringKind::MinSum,
    SemiringKind::MaxSum,
    SemiringKind::MinProduct,
    SemiringKind::MaxProduct,
    SemiringKind::BoolOrAnd,
    SemiringKind::LogSumProduct,
];
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Exact equality up to row/column order — no float tolerance.
fn bit_identical(a: &FunctionalRelation, b: &FunctionalRelation) -> bool {
    let (a, b) = (a.canonicalized(), b.canonicalized());
    a.schema() == b.schema() && a.len() == b.len() && a.rows().eq(b.rows())
}

/// r1(a, b) and r2(b, c) over 3-value domains with the given measures.
fn rels(sr: SemiringKind, m1: &[u8], m2: &[u8]) -> (FunctionalRelation, FunctionalRelation, [VarId; 3]) {
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

/// Sparse random l(x, y) and r(y, z) over wide domains (2^10 per
/// variable, 1024 draws a side): the shape of the large parallel join
/// baseline, where most keys are absent and the join output has hundreds
/// of groups on `y`.
fn wide_sparse(sr: SemiringKind) -> (FunctionalRelation, FunctionalRelation, [VarId; 3]) {
    let mut cat = Catalog::new();
    let x = cat.add_var("x", 1 << 10).unwrap();
    let y = cat.add_var("y", 1 << 10).unwrap();
    let z = cat.add_var("z", 1 << 10).unwrap();
    let draw = |name: &str, vars: Vec<VarId>, doms: [u64; 2], seed: u64| {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: std::collections::BTreeMap<Vec<u32>, f64> = (0..1024)
            .map(|_| {
                let row = vec![(next() % doms[0]) as u32, (next() % doms[1]) as u32];
                let m = if sr == SemiringKind::BoolOrAnd {
                    (next() % 2) as f64
                } else {
                    (next() % 9 + 1) as f64 / 4.0
                };
                (row, m)
            })
            .collect();
        FunctionalRelation::from_rows(name, Schema::new(vars).unwrap(), rows).unwrap()
    };
    let l = draw("l", vec![x, y], [1 << 10, 1 << 10], 0x9E37_79B9_7F4A_7C15);
    let r = draw("r", vec![y, z], [1 << 10, 1 << 10], 0xD1B5_4A32_D192_ED03);
    (l, r, [x, y, z])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel join and group-by are bit-identical to the sequential
    /// operators for every semiring at every thread count, including
    /// partition counts that exceed the row count — on the small complete
    /// fixture and on the wide sparse one.
    #[test]
    fn parallel_operators_match_sequential(
        m1 in proptest::collection::vec(0u8..10, 9),
        m2 in proptest::collection::vec(0u8..10, 9),
        partitions in 2usize..16,
    ) {
        for (sr, (r1, r2, [_, b, _])) in SEMIRINGS
            .into_iter()
            .flat_map(|sr| [(sr, rels(sr, &m1, &m2)), (sr, wide_sparse(sr))])
        {
            let want_join = ops::product_join(&mut ExecContext::new(sr), &r1, &r2).unwrap();
            for t in THREADS {
                let mut cx = ExecContext::new(sr);
                let got_join =
                    partitioned::parallel_join_parts(&mut cx, &r1, &r2, t, partitions).unwrap();
                prop_assert!(
                    bit_identical(&got_join, &want_join),
                    "join diverged: sr {sr:?} threads {t} partitions {partitions}"
                );
                // Feed the aggregation the *same* input rows in the same
                // order, so "bit-identical" checks the operator itself
                // rather than fold orders inherited from upstream.
                let want_agg =
                    ops::group_by(&mut ExecContext::new(sr), &got_join, &[b]).unwrap();
                let got_agg = partitioned::parallel_group_by_parts(
                    &mut cx, &got_join, &[b], t, partitions,
                )
                .unwrap();
                prop_assert!(
                    bit_identical(&got_agg, &want_agg),
                    "group-by diverged: sr {sr:?} threads {t} partitions {partitions}"
                );
            }
        }
    }

    /// Full physical plans annotated with the parallel operators — run
    /// through the interpreter, which also forks independent subtrees —
    /// are *bit-identical across thread counts* (the worker count never
    /// changes a fold order, only the partition count shapes the data
    /// flow) and function-equal to the all-hash sequential execution,
    /// with the same stats counters.
    #[test]
    fn parallel_plans_match_hash_plans(
        m1 in proptest::collection::vec(0u8..10, 9),
        m2 in proptest::collection::vec(0u8..10, 9),
        sr_idx in 0usize..7,
        group_var in 0usize..3,
    ) {
        let sr = SEMIRINGS[sr_idx];
        let (r1, r2, vars) = rels(sr, &m1, &m2);
        let mut store = RelationStore::new();
        store.insert(r1);
        store.insert(r2);
        // Both join inputs contain an operator, so the subplan scheduler
        // forks when threads allow.
        let logical = Plan::group_by(
            Plan::join(
                Plan::group_by(Plan::scan("r1"), vec![vars[0], vars[1]]),
                Plan::group_by(Plan::scan("r2"), vec![vars[1], vars[2]]),
            ),
            vec![vars[group_var]],
        );
        let sequential = Executor::new(&store, sr).with_threads(1);
        let (want, want_stats) = sequential
            .execute_physical(&PhysicalPlan::default_hash(&logical))
            .unwrap();
        let parallel_plan = PhysicalPlan::from_logical(
            &logical,
            &mut |_, _| JoinAlgo::Parallel { partitions: 8 },
            &mut |_, _| AggAlgo::ParallelAgg { partitions: 8 },
        );
        let mut single_worker: Option<FunctionalRelation> = None;
        for t in THREADS {
            let exec = Executor::new(&store, sr).with_threads(t);
            let (got, stats) = exec.execute_physical(&parallel_plan).unwrap();
            prop_assert!(got.function_eq_in(&want, sr), "sr {sr:?} threads {t}");
            match &single_worker {
                None => single_worker = Some(got),
                Some(base) => prop_assert!(
                    bit_identical(&got, base),
                    "thread count changed bits: sr {sr:?} threads {t}"
                ),
            }
            prop_assert_eq!(stats.joins, want_stats.joins);
            prop_assert_eq!(stats.group_bys, want_stats.group_bys);
            prop_assert_eq!(stats.rows_scanned, want_stats.rows_scanned);
        }
    }
}

/// The plan used by the budget-parity tests: 27-row join, then a
/// marginalization.
fn capped_exec(store: &RelationStore, limits: ExecLimits, threads: usize) -> Executor<'_, RelationStore> {
    Executor::with_limits(store, SemiringKind::SumProduct, limits).with_threads(threads)
}

fn parity_fixture() -> (RelationStore, Plan, PhysicalPlan) {
    let (r1, r2, [_, b, _]) = rels(SemiringKind::SumProduct, &[1u8; 9], &[1u8; 9]);
    let mut store = RelationStore::new();
    store.insert(r1);
    store.insert(r2);
    let logical = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![b]);
    let parallel = PhysicalPlan::from_logical(
        &logical,
        &mut |_, _| JoinAlgo::Parallel { partitions: 8 },
        &mut |_, _| AggAlgo::ParallelAgg { partitions: 8 },
    );
    (store, logical, parallel)
}

/// A worker tripping the shared row cap surfaces the same typed error the
/// sequential pipeline reports, at every thread count.
#[test]
fn row_cap_parity_under_parallelism() {
    let (store, logical, parallel) = parity_fixture();
    let limits = ExecLimits::none().with_max_output_rows(10);
    let Err(AlgebraError::ResourceExhausted { resource: want, limit: 10, .. }) =
        capped_exec(&store, limits.clone(), 1).execute(&logical)
    else {
        panic!("sequential run must trip the row cap");
    };
    assert_eq!(want, ResourceKind::OutputRows);
    for t in THREADS {
        match capped_exec(&store, limits.clone(), t).execute_physical(&parallel) {
            Err(AlgebraError::ResourceExhausted { resource, limit: 10, .. }) => {
                assert_eq!(resource, want, "threads {t}");
            }
            other => panic!("threads {t}: expected OutputRows trip, got {other:?}"),
        }
    }
}

/// Same for the shared total-cells budget, which workers charge live.
#[test]
fn cell_cap_parity_under_parallelism() {
    let (store, logical, parallel) = parity_fixture();
    let limits = ExecLimits::none().with_max_total_cells(20);
    let Err(AlgebraError::ResourceExhausted { resource: want, .. }) =
        capped_exec(&store, limits.clone(), 1).execute(&logical)
    else {
        panic!("sequential run must trip the cell cap");
    };
    assert_eq!(want, ResourceKind::TotalCells);
    for t in THREADS {
        match capped_exec(&store, limits.clone(), t).execute_physical(&parallel) {
            Err(AlgebraError::ResourceExhausted { resource, .. }) => {
                assert_eq!(resource, want, "threads {t}");
            }
            other => panic!("threads {t}: expected TotalCells trip, got {other:?}"),
        }
    }
}

/// A cancelled token stops the parallel operators (workers poll it at
/// partition checkpoints) with the typed `Cancelled` error.
#[test]
fn cancellation_stops_parallel_execution() {
    let (store, _, parallel) = parity_fixture();
    for t in THREADS {
        let token = CancelToken::new();
        token.cancel();
        let exec = capped_exec(
            &store,
            ExecLimits::none().with_cancel_token(token),
            t,
        );
        match exec.execute_physical(&parallel) {
            Err(AlgebraError::Cancelled) => {}
            other => panic!("threads {t}: expected Cancelled, got {other:?}"),
        }
    }
}
