//! Kernel parity: the chunked monomorphized kernels compute the same
//! function under every representation mode at every thread count, and
//! the fused join→marginalize operator is indistinguishable from the
//! unfused pair except in the work it skips.
//!
//! The guarantees under test, in decreasing strength:
//!
//! * **Bit-identity across thread counts** for *all* semirings: the
//!   chunked reduction shape is a pure function of run length, never of
//!   the worker partitioning.
//! * **Bit-identity fused vs unfused** for *all* semirings: the fused
//!   kernel folds products in exactly the unfused join-then-aggregate
//!   order, on both the dense grid path and the hash fallback.
//! * **Function-equality across representations** (within
//!   [`FunctionalRelation::function_eq_in`] tolerance for the rounding
//!   semirings).
//!
//! The chunked kernels against the one-cell-at-a-time scalar reference
//! (bit-identical for the selective semirings, `function_eq_in` for
//! sum-product and log-sum-product) are unit tests inside `mpf-algebra`
//! (`dense::tests`, `sparse::tests`), where the test-only reference
//! kernels live. Modes are pinned on the [`ExecContext`].

use std::collections::BTreeMap;

use mpf_algebra::{
    sparse, AggAlgo, ExecContext, Executor, JoinAlgo, PhysicalPlan, Plan, RelationStore, ReprMode,
    SpanKind, TraceLevel,
};
use mpf_semiring::SemiringKind;
use mpf_storage::{Catalog, FunctionalRelation, Schema, VarId};
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 4];
const REPRS: [ReprMode; 4] = [
    ReprMode::Rows,
    ReprMode::Sparse,
    ReprMode::Dense,
    ReprMode::Auto,
];

/// Row-keyed measure bits, for order-independent bitwise comparison.
fn bits(rel: &FunctionalRelation) -> BTreeMap<Vec<u32>, u64> {
    rel.rows()
        .map(|(row, m)| (row.to_vec(), m.to_bits()))
        .collect()
}

/// Deterministic per-cell inclusion decision (split-mix style hash), so a
/// (density, salt) pair always generates the same relation.
fn keep_cell(cell: u64, salt: u64, density: f64) -> bool {
    let mut x = cell.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    ((x >> 11) as f64 / (1u64 << 53) as f64) < density
}

/// A functional relation over `vars` whose support is a deterministic
/// `density` fraction of the domain grid, with semiring-safe measures
/// that are *not* all equal (so reassociation bugs cannot hide).
fn gen_rel(
    name: &str,
    vars: Vec<VarId>,
    doms: &[u64],
    density: f64,
    salt: u64,
    sr: SemiringKind,
) -> FunctionalRelation {
    let cells: u64 = doms.iter().product();
    let measure = |cell: u64| {
        if sr == SemiringKind::BoolOrAnd {
            (cell.wrapping_add(salt)) as f64 % 2.0
        } else {
            // Spread across two decades with an exact and an inexact
            // fraction so float addition order is observable.
            ((cell.wrapping_add(salt * 13)) % 7 + 1) as f64 / 3.0
        }
    };
    let rows = (0..cells).filter(|&c| keep_cell(c, salt, density)).map(|c| {
        let mut row = Vec::with_capacity(doms.len());
        let mut rest = c;
        for &d in doms.iter().rev() {
            row.push((rest % d) as u32);
            rest /= d;
        }
        row.reverse();
        (row, measure(c))
    });
    FunctionalRelation::from_rows(name, Schema::new(vars).unwrap(), rows).unwrap()
}

/// Chain fixture r1(a,b), r2(b,c), r3(c,d) over domains big enough that
/// the innermost runs exceed one 8-lane chunk (domain 12 ⇒ 12-cell runs).
fn chain(sr: SemiringKind, density: f64) -> ([FunctionalRelation; 3], [VarId; 4]) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 12).unwrap();
    let b = cat.add_var("b", 12).unwrap();
    let c = cat.add_var("c", 12).unwrap();
    let d = cat.add_var("d", 12).unwrap();
    (
        [
            gen_rel("r1", vec![a, b], &[12, 12], density, 1, sr),
            gen_rel("r2", vec![b, c], &[12, 12], density, 2, sr),
            gen_rel("r3", vec![c, d], &[12, 12], density, 3, sr),
        ],
        [a, b, c, d],
    )
}

/// A VE pipeline (eliminate b, then c, then marginalize onto a) under one
/// pinned (repr, threads) pair.
fn ve_chain(
    sr: SemiringKind,
    rels: &[FunctionalRelation; 3],
    vars: &[VarId; 4],
    repr: ReprMode,
    threads: usize,
) -> (FunctionalRelation, mpf_algebra::ExecStats) {
    let [a, _, c, d] = *vars;
    let mut cx = ExecContext::new(sr).with_repr(repr).with_threads(threads);
    let t1 = sparse::join_auto(&mut cx, &rels[0], &rels[1]).unwrap();
    let t1 = sparse::agg_auto(&mut cx, &t1, &[a, c]).unwrap();
    let t2 = sparse::join_auto(&mut cx, &t1, &rels[2]).unwrap();
    let t2 = sparse::agg_auto(&mut cx, &t2, &[a, d]).unwrap();
    let out = sparse::agg_auto(&mut cx, &t2, &[a]).unwrap();
    (out, *cx.stats())
}

/// The full matrix: 7 semirings × every [`ReprMode`] × threads {1,4},
/// at a sparse and a near-complete density, plus complete grids where
/// the dense kernels run. Every cell computes the hash baseline's
/// function and is bit-identical across thread counts.
#[test]
fn kernel_matrix_parity() {
    for density in [0.3, 0.95, 1.0] {
        for sr in SemiringKind::ALL {
            let (rels, vars) = chain(sr, density);
            let (baseline, _) = ve_chain(sr, &rels, &vars, ReprMode::Rows, 1);
            for repr in REPRS {
                let mut per_thread: Vec<BTreeMap<Vec<u32>, u64>> = Vec::new();
                for t in THREADS {
                    let (got, stats) = ve_chain(sr, &rels, &vars, repr, t);
                    assert!(
                        baseline.function_eq_in(&got, sr),
                        "diverged from hash baseline: density {density} sr {sr:?} \
                         repr {repr:?} threads {t}"
                    );
                    if density == 1.0 && repr.allows_dense() {
                        assert!(
                            stats.kernel_chunked_ops > 0,
                            "dense ran: sr {sr:?} {repr:?}"
                        );
                    }
                    per_thread.push(bits(&got));
                }
                assert_eq!(
                    per_thread[0], per_thread[1],
                    "thread count changed bits: density {density} sr {sr:?} repr {repr:?}"
                );
            }
        }
    }
}

/// Store + plan pair for the fused-operator tests: complete r1(a,b),
/// r2(b,c) over 8-value domains, marginalized onto `a` — b and c are
/// join-only/eliminated, the shape the fused operator exists for.
fn fused_fixture(sr: SemiringKind) -> (RelationStore, Vec<VarId>, Plan) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", 8).unwrap();
    let b = cat.add_var("b", 8).unwrap();
    let c = cat.add_var("c", 8).unwrap();
    let mut store = RelationStore::new();
    store.insert(gen_rel("r1", vec![a, b], &[8, 8], 1.0, 4, sr));
    store.insert(gen_rel("r2", vec![b, c], &[8, 8], 1.0, 5, sr));
    let logical = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![a]);
    (store, vec![a, b, c], logical)
}

fn scan(relation: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        relation: relation.into(),
    })
}

fn fused_plan(gv: &[VarId]) -> PhysicalPlan {
    PhysicalPlan::JoinAgg {
        left: scan("r1"),
        right: scan("r2"),
        group_vars: gv.to_vec(),
    }
}

/// The VE+ triangle r1(a,b), r2(b,c), r3(c,a) over complete `d`-value
/// grids, marginalized onto `a`: eliminating `b` joins two d²-cell grids
/// into a d³-cell intermediate — the kernel-bound shape where fusion
/// lowers the peak from d³ to d² rows. Returns the store and the
/// unfused (all-dense) and fused plans.
fn triangle_fixture(sr: SemiringKind, d: u64) -> (RelationStore, PhysicalPlan, PhysicalPlan) {
    let mut cat = Catalog::new();
    let a = cat.add_var("a", d).unwrap();
    let b = cat.add_var("b", d).unwrap();
    let c = cat.add_var("c", d).unwrap();
    let mut store = RelationStore::new();
    store.insert(gen_rel("r1", vec![a, b], &[d, d], 1.0, 6, sr));
    store.insert(gen_rel("r2", vec![b, c], &[d, d], 1.0, 7, sr));
    store.insert(gen_rel("r3", vec![c, a], &[d, d], 1.0, 8, sr));
    let logical = Plan::group_by(
        Plan::join(
            Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![a, c]),
            Plan::scan("r3"),
        ),
        vec![a],
    );
    let unfused = PhysicalPlan::from_logical(&logical, &mut |_, _| JoinAlgo::Dense, &mut |_, _| {
        AggAlgo::DenseAgg
    });
    let fused = PhysicalPlan::JoinAgg {
        left: Box::new(PhysicalPlan::JoinAgg {
            left: scan("r1"),
            right: scan("r2"),
            group_vars: vec![a, c],
        }),
        right: scan("r3"),
        group_vars: vec![a],
    };
    (store, unfused, fused)
}

/// Fused vs unfused on the dense grid path — the single elimination step
/// and the VE+ triangle: bit-identical output for all semirings at both
/// thread counts, with the fused run reporting strictly lower peak
/// intermediate rows and reconciled operator counts (one join plus one
/// group-by per fused node).
#[test]
fn fused_dense_matches_unfused_bitwise_and_lowers_peak() {
    for sr in SemiringKind::ALL {
        let (store, vars, logical) = fused_fixture(sr);
        let step = (
            store,
            PhysicalPlan::from_logical(&logical, &mut |_, _| JoinAlgo::Dense, &mut |_, _| {
                AggAlgo::DenseAgg
            }),
            fused_plan(&[vars[0]]),
            1,
        );
        let (tstore, tunfused, tfused) = triangle_fixture(sr, 20);
        for (store, unfused, fused, nodes) in [step, (tstore, tunfused, tfused, 2)] {
            let exec = Executor::new(&store, sr);
            for t in THREADS {
                let mk = || {
                    ExecContext::new(sr)
                        .with_repr(ReprMode::Dense)
                        .with_threads(t)
                };
                let mut ucx = mk();
                let want = exec.execute_physical_in(&mut ucx, &unfused).unwrap();
                let mut fcx = mk();
                let got = exec.execute_physical_in(&mut fcx, &fused).unwrap();
                assert_eq!(
                    bits(&want),
                    bits(&got),
                    "fused dense diverged: sr {sr:?} nodes {nodes} threads {t}"
                );
                let (us, fs) = (ucx.take_stats(), fcx.take_stats());
                assert_eq!(fs.fused_join_aggs, nodes, "sr {sr:?}");
                assert_eq!(us.fused_join_aggs, 0);
                // The fused operator accounts as one join *plus* one
                // group-by, so the counters reconcile with the unfused run.
                assert_eq!(fs.joins, us.joins, "sr {sr:?}");
                assert_eq!(fs.group_bys, us.group_bys, "sr {sr:?}");
                assert_eq!(fs.dense_joins, nodes, "sr {sr:?}");
                assert_eq!(fs.dense_group_bys, nodes, "sr {sr:?}");
                // It never materializes the join intermediate (512 cells
                // for the single step, d³ = 8000 for the triangle).
                assert!(
                    fs.max_intermediate_rows < us.max_intermediate_rows,
                    "fused peak {} !< unfused peak {}: sr {sr:?} nodes {nodes}",
                    fs.max_intermediate_rows,
                    us.max_intermediate_rows
                );
            }
        }
    }
}

/// Fused vs unfused on the hash fallback (rows pinned): same bit-identity,
/// peak, and reconciliation guarantees, for every semiring.
#[test]
fn fused_hash_fallback_matches_hash_pipeline_bitwise() {
    for sr in SemiringKind::ALL {
        let (store, vars, logical) = fused_fixture(sr);
        let gv = [vars[0]];
        let unfused = PhysicalPlan::default_hash(&logical);
        let fused = fused_plan(&gv);
        let exec = Executor::new(&store, sr);
        let mk = || ExecContext::new(sr).with_repr(ReprMode::Rows);
        let mut ucx = mk();
        let want = exec.execute_physical_in(&mut ucx, &unfused).unwrap();
        let mut fcx = mk();
        let got = exec.execute_physical_in(&mut fcx, &fused).unwrap();
        assert_eq!(
            bits(&want),
            bits(&got),
            "fused hash fallback diverged: sr {sr:?}"
        );
        let (us, fs) = (ucx.take_stats(), fcx.take_stats());
        assert_eq!(fs.fused_join_aggs, 1);
        assert_eq!(fs.joins, us.joins);
        assert_eq!(fs.group_bys, us.group_bys);
        assert_eq!(fs.dense_joins + fs.dense_group_bys, 0, "hash path stayed hash");
        assert!(fs.max_intermediate_rows < us.max_intermediate_rows, "sr {sr:?}");
    }
}

/// The fused span carries `fused=true`, and its row accounting
/// reconciles with the executed result — what `EXPLAIN ANALYZE` and the
/// metrics pipeline read.
#[test]
fn fused_span_reports_fusion_and_reconciles() {
    let sr = SemiringKind::SumProduct;
    let (store, vars, _) = fused_fixture(sr);
    let gv = [vars[0]];
    let mut cx = ExecContext::new(sr)
        .with_repr(ReprMode::Dense)
        .with_trace(TraceLevel::Spans);
    let out = Executor::new(&store, sr)
        .execute_physical_in(&mut cx, &fused_plan(&gv))
        .unwrap();
    let stats = *cx.stats();
    let trace = cx.take_trace();
    let mut fused_spans = 0;
    trace.for_each(&mut |span| {
        if span.fused {
            fused_spans += 1;
            assert_eq!(span.kind, SpanKind::GroupBy);
            assert_eq!(span.rows_out, out.len() as u64, "span rows match the result");
        }
    });
    assert_eq!(fused_spans, 1, "exactly one fused span:\n{}", trace.render());
    assert_eq!(stats.fused_join_aggs, 1);
    assert_eq!(stats.kernel_chunked_ops, 1);
    let rendered = trace.render();
    assert!(
        rendered.contains("fused=true"),
        "render surfaces the tag:\n{rendered}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random measures and random support holes: neither the
    /// representation nor fusion ever changes the answer.
    #[test]
    fn repr_and_fusion_never_change_answers(
        m1 in proptest::collection::vec(0u8..10, 16),
        m2 in proptest::collection::vec(0u8..10, 16),
        hole_picks in proptest::collection::vec(0usize..16, 0..6),
        sr_idx in 0usize..7,
    ) {
        let holes: std::collections::BTreeSet<usize> = hole_picks.into_iter().collect();
        let sr = SemiringKind::ALL[sr_idx];
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 4).unwrap();
        let b = cat.add_var("b", 4).unwrap();
        let c = cat.add_var("c", 4).unwrap();
        let conv = |m: u8| if sr == SemiringKind::BoolOrAnd { (m % 2) as f64 } else { m as f64 };
        let r1 = FunctionalRelation::from_rows(
            "r1",
            Schema::new(vec![a, b]).unwrap(),
            (0..16u32)
                .filter(|i| !holes.contains(&(*i as usize)))
                .map(|i| (vec![i / 4, i % 4], conv(m1[i as usize]))),
        )
        .unwrap();
        let r2 = FunctionalRelation::from_rows(
            "r2",
            Schema::new(vec![b, c]).unwrap(),
            (0..16u32).map(|i| (vec![i / 4, i % 4], conv(m2[i as usize]))),
        )
        .unwrap();
        let mut store = RelationStore::new();
        store.insert(r1);
        store.insert(r2);
        let logical = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![a]);
        let exec = Executor::new(&store, sr);
        let (want, _) = exec.execute_physical(&PhysicalPlan::default_hash(&logical)).unwrap();
        for repr in REPRS {
            let mut cx = ExecContext::new(sr).with_repr(repr);
            let got = exec.execute_physical_in(&mut cx, &fused_plan(&[a])).unwrap();
            prop_assert!(
                want.function_eq_in(&got, sr),
                "sr {sr:?} repr {repr:?} holes {holes:?}"
            );
        }
    }
}
