//! Cost-based physical operator selection.
//!
//! The paper emphasizes that, unlike the GDL setting where one algorithm
//! implements each of multiplication and marginalization, "in the
//! relational case there are multiple algorithms to implement join
//! (multiplication) and aggregation (summation), and the choice of
//! algorithm is based on the cost of accessing disk-resident operands".
//! This module makes that choice for a finished logical plan:
//!
//! * a **hash join** needs its build side (the smaller operand) resident
//!   in the workspace; if the smaller operand exceeds the memory budget, a
//!   Grace (partitioned) hash join is selected with enough partitions that
//!   each build partition fits;
//! * a **hash aggregate** needs one accumulator per distinct group; if the
//!   estimated group count exceeds the budget, sort aggregation is
//!   selected;
//! * when the executor will run with more than one worker thread
//!   ([`PhysicalConfig::threads`]), memory-resident operators over large
//!   operands are annotated with the **parallel partitioned** variants
//!   ([`JoinAlgo::Parallel`], [`AggAlgo::ParallelAgg`]), with the
//!   partition count sized for cache residency by
//!   [`mpf_algebra::partitioned::parallel_partitions`].
//!
//! Operand sizes come from the same catalog-based estimator the join
//! ordering used ([`estimate::plan_estimate`]).

use mpf_algebra::{partitioned, AggAlgo, JoinAlgo, PhysicalPlan, Plan, ReprMode};

use crate::{estimate, OptContext};

/// Estimated bytes per row for an operand of the given arity (mirrors
/// `FunctionalRelation::row_bytes`: 4-byte values plus an 8-byte measure).
fn row_bytes(arity: usize) -> u64 {
    arity as u64 * 4 + 8
}

/// Physical selection knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalConfig {
    /// Rows that fit in the operator workspace (hash-table budget).
    pub memory_rows: f64,
    /// Worker threads the executor will run with. With one thread the
    /// parallel operators are never selected (they degenerate to the
    /// plain hash operators at run time anyway, but the annotation would
    /// be noise in rendered plans).
    pub threads: usize,
    /// Minimum estimated build/group rows before a parallel operator is
    /// worth its partitioning pass. Small operands fit in cache whole;
    /// partitioning them only adds a copy.
    pub parallel_min_rows: f64,
    /// Which representations to consider: the dense odometer kernels
    /// ([`JoinAlgo::Dense`], [`AggAlgo::DenseAgg`]), the sparse-tensor
    /// kernels ([`JoinAlgo::SparseTensor`], [`AggAlgo::SparseAgg`]), and
    /// the row-major hash operators. [`ReprMode::Auto`] (the default)
    /// chooses by estimated density; the other values pin one.
    pub repr_mode: ReprMode,
    /// Minimum estimated operand density (rows over the schema's catalog
    /// grid) before [`ReprMode::Auto`] selects a dense operator. Sparse
    /// operands waste grid cells; at 0.5+ the odometer kernel's
    /// per-cell cost undercuts hashing.
    pub dense_min_density: f64,
    /// Minimum estimated operand density before [`ReprMode::Auto`]
    /// selects a sparse-tensor operator. Below ~1% the sorted-merge
    /// kernel's per-side sort does not pay for itself against a hash
    /// table that stays cache-resident.
    pub sparse_min_density: f64,
    /// Whether to fuse a dense join feeding a dense marginalization into
    /// a single [`PhysicalPlan::JoinAgg`] operator that contracts
    /// directly into the output grid without materializing the join
    /// intermediate. On by default; turn off to compare unfused plans.
    pub fuse: bool,
}

impl Default for PhysicalConfig {
    fn default() -> Self {
        // Roughly a 16 MB workspace of 16-byte rows — the same order as
        // PostgreSQL 8.1's default `work_mem`-sized hash operators.
        PhysicalConfig {
            memory_rows: 1_000_000.0,
            threads: mpf_algebra::config::default_threads(),
            parallel_min_rows: 32_768.0,
            repr_mode: ReprMode::Auto,
            dense_min_density: 0.5,
            sparse_min_density: mpf_algebra::sparse::SPARSE_MIN_DENSITY,
            fuse: true,
        }
    }
}

impl PhysicalConfig {
    /// Set the worker-thread count the plan will execute with.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the representation selection mode (builder style).
    pub fn with_repr(mut self, mode: ReprMode) -> Self {
        self.repr_mode = mode;
        self
    }

    /// Enable or disable join→marginalize fusion (builder style).
    pub fn with_fuse(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }
}

/// Whether the dense kernel should be selected for an operator whose
/// inputs have the given (schema, rows) estimates and whose output schema
/// grid must be materialized. `Rows`/`Sparse`: never. `Dense`: whenever
/// every grid is feasible. `Auto`: additionally every input must clear
/// the density threshold — near-complete operands are where the odometer
/// kernel wins.
fn dense_applies(
    ctx: &OptContext<'_>,
    cfg: &PhysicalConfig,
    inputs: &[(&mpf_storage::Schema, f64)],
    out_schema: &mpf_storage::Schema,
) -> bool {
    if !cfg.repr_mode.allows_dense() {
        return false;
    }
    if estimate::schema_density(ctx, out_schema, 0.0).is_none() {
        return false;
    }
    for &(schema, rows) in inputs {
        match estimate::schema_density(ctx, schema, rows) {
            None => return false,
            Some(d) => {
                if cfg.repr_mode == ReprMode::Auto && d < cfg.dense_min_density {
                    return false;
                }
            }
        }
    }
    true
}

/// Whether a sparse-tensor kernel should be selected for an operator with
/// the given input estimates. Checked *after* [`dense_applies`]: when a
/// grid is complete enough for the odometer kernel, dense is strictly
/// better, so sparse covers the middle band — operands too sparse to grid
/// densely (or whose grids overflow the dense cell cap entirely) but
/// populated enough that sorted-merge over linearized coordinates beats
/// hashing. `Rows`/`Dense`: never. `Sparse`: whenever the coordinate
/// spaces are feasible. `Auto`: additionally every input must clear
/// [`PhysicalConfig::sparse_min_density`].
fn sparse_applies(
    ctx: &OptContext<'_>,
    cfg: &PhysicalConfig,
    inputs: &[(&mpf_storage::Schema, f64)],
    out_schema: &mpf_storage::Schema,
) -> bool {
    if !cfg.repr_mode.allows_sparse() {
        return false;
    }
    if estimate::schema_density_wide(ctx, out_schema, 0.0).is_none() {
        return false;
    }
    for &(schema, rows) in inputs {
        match estimate::schema_density_wide(ctx, schema, rows) {
            None => return false,
            Some(d) => {
                if cfg.repr_mode == ReprMode::Auto && d < cfg.sparse_min_density {
                    return false;
                }
            }
        }
    }
    true
}

/// Fuse each dense join that feeds a dense marginalization into a single
/// [`PhysicalPlan::JoinAgg`]: the elimination step then contracts both
/// inputs straight into the group accumulator grid, skipping the join
/// intermediate entirely. Only the all-dense pairing is rewritten — that
/// is where the intermediate is a full grid and skipping it pays; the
/// hash and sparse pipelines keep their chosen algorithms.
fn fuse_join_agg(plan: PhysicalPlan) -> PhysicalPlan {
    match plan {
        PhysicalPlan::GroupBy {
            input,
            group_vars,
            algo: AggAlgo::DenseAgg,
        } => match *input {
            PhysicalPlan::Join {
                left,
                right,
                algo: JoinAlgo::Dense,
            } => PhysicalPlan::JoinAgg {
                left: Box::new(fuse_join_agg(*left)),
                right: Box::new(fuse_join_agg(*right)),
                group_vars,
            },
            other => PhysicalPlan::GroupBy {
                input: Box::new(fuse_join_agg(other)),
                group_vars,
                algo: AggAlgo::DenseAgg,
            },
        },
        PhysicalPlan::GroupBy {
            input,
            group_vars,
            algo,
        } => PhysicalPlan::GroupBy {
            input: Box::new(fuse_join_agg(*input)),
            group_vars,
            algo,
        },
        PhysicalPlan::Join { left, right, algo } => PhysicalPlan::Join {
            left: Box::new(fuse_join_agg(*left)),
            right: Box::new(fuse_join_agg(*right)),
            algo,
        },
        PhysicalPlan::Select { input, predicates } => PhysicalPlan::Select {
            input: Box::new(fuse_join_agg(*input)),
            predicates,
        },
        leaf @ (PhysicalPlan::Scan { .. } | PhysicalPlan::JoinAgg { .. }) => leaf,
    }
}

/// Annotate a logical plan with cost-chosen operator algorithms.
pub fn choose_physical(
    ctx: &OptContext<'_>,
    plan: &Plan,
    cfg: PhysicalConfig,
) -> PhysicalPlan {
    let phys = PhysicalPlan::from_logical(
        plan,
        &mut |left, right| {
            let (ls, lr) = estimate::plan_estimate(ctx, left);
            let (rs, rr) = estimate::plan_estimate(ctx, right);
            if dense_applies(ctx, &cfg, &[(&ls, lr), (&rs, rr)], &ls.union(&rs)) {
                return JoinAlgo::Dense;
            }
            if sparse_applies(ctx, &cfg, &[(&ls, lr), (&rs, rr)], &ls.union(&rs)) {
                return JoinAlgo::SparseTensor;
            }
            let build = lr.min(rr);
            if build <= cfg.memory_rows {
                if cfg.threads > 1 && build >= cfg.parallel_min_rows {
                    // Memory-resident but large: partition into
                    // cache-sized buckets and join them on the worker
                    // pool. Row bytes come from the wider schema so the
                    // partition count covers the probe side too.
                    let row_bytes = row_bytes(ls.arity().max(rs.arity()));
                    JoinAlgo::Parallel {
                        partitions: partitioned::parallel_partitions(
                            build as usize,
                            row_bytes,
                            cfg.threads,
                        ),
                    }
                } else {
                    JoinAlgo::Hash
                }
            } else {
                // Grace hash join with enough partitions that each build
                // partition fits the workspace.
                JoinAlgo::Grace {
                    partitions: (build / cfg.memory_rows).ceil().max(2.0) as usize,
                }
            }
        },
        &mut |input, group_vars| {
            let (in_schema, in_rows) = estimate::plan_estimate(ctx, input);
            let schema: mpf_storage::Schema = group_vars.iter().copied().collect();
            if dense_applies(ctx, &cfg, &[(&in_schema, in_rows)], &schema) {
                return AggAlgo::DenseAgg;
            }
            if sparse_applies(ctx, &cfg, &[(&in_schema, in_rows)], &schema) {
                return AggAlgo::SparseAgg;
            }
            let groups = estimate::group_rows(ctx, in_rows, &schema);
            if groups <= cfg.memory_rows {
                if cfg.threads > 1 && groups >= cfg.parallel_min_rows {
                    // Many groups: the accumulator table itself blows the
                    // cache, so partition on the group hash. Few-group
                    // aggregation stays cache-resident and gains nothing.
                    AggAlgo::ParallelAgg {
                        partitions: partitioned::parallel_partitions(
                            groups as usize,
                            row_bytes(schema.arity()),
                            cfg.threads,
                        ),
                    }
                } else {
                    AggAlgo::HashAgg
                }
            } else {
                AggAlgo::SortAgg
            }
        },
    );
    if cfg.fuse {
        fuse_join_agg(phys)
    } else {
        phys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, Algorithm, BaseRel, CostModel, QuerySpec};
    use mpf_storage::{Catalog, Schema, VarId};

    fn ctx_fixture(cat: &mut Catalog) -> (Vec<BaseRel>, VarId, VarId, VarId) {
        let a = cat.add_var("a", 10).unwrap();
        let b = cat.add_var("b", 10_000).unwrap();
        let c = cat.add_var("c", 10_000).unwrap();
        (
            vec![
                BaseRel {
                    name: "r1".into(),
                    schema: Schema::new(vec![a, b]).unwrap(),
                    cardinality: 100_000,
                    fd_lhs: None,
                },
                BaseRel {
                    name: "r2".into(),
                    schema: Schema::new(vec![b, c]).unwrap(),
                    cardinality: 5_000_000,
                    fd_lhs: None,
                },
            ],
            a,
            b,
            c,
        )
    }

    #[test]
    fn small_budget_forces_sort_operators() {
        let mut cat = Catalog::new();
        let (rels, a, ..) = ctx_fixture(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let big = choose_physical(
            &ctx,
            &plan,
            PhysicalConfig {
                memory_rows: 1e9,
                ..PhysicalConfig::default()
            }
            .with_threads(1)
            .with_repr(ReprMode::Rows),
        );
        assert_eq!(big.sort_operator_count(), 0, "everything fits -> all hash");
        let tiny = choose_physical(
            &ctx,
            &plan,
            PhysicalConfig {
                memory_rows: 10.0,
                ..PhysicalConfig::default()
            }
            .with_threads(1)
            .with_repr(ReprMode::Rows),
        );
        assert!(
            tiny.spill_operator_count() > 0,
            "nothing fits -> spilling operators appear"
        );
        // Annotations do not change the logical plan.
        assert_eq!(tiny.to_logical(), plan);
    }

    #[test]
    fn default_budget_is_permissive_at_laptop_scale() {
        let mut cat = Catalog::new();
        let (rels, a, ..) = ctx_fixture(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusLinear).plan;
        let phys = choose_physical(
            &ctx,
            &plan,
            PhysicalConfig::default()
                .with_threads(1)
                .with_repr(ReprMode::Rows),
        );
        // r2 (5M rows) exceeds the default budget, but its join partner is
        // the build side, so hash join still applies everywhere except
        // operators whose *smaller* operand exceeds the budget.
        assert!(phys.spill_operator_count() <= plan.join_count() + plan.group_by_count());
    }

    #[test]
    fn dense_selection_follows_mode_and_density() {
        // Complete relations over small domains: density 1.0 everywhere.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 8).unwrap();
        let b = cat.add_var("b", 8).unwrap();
        let c = cat.add_var("c", 8).unwrap();
        let mk = |name: &str, schema: Schema, card: u64| BaseRel {
            name: name.into(),
            schema,
            cardinality: card,
            fd_lhs: None,
        };
        let rels = vec![
            mk("r1", Schema::new(vec![a, b]).unwrap(), 64),
            mk("r2", Schema::new(vec![b, c]).unwrap(), 64),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let cfg = PhysicalConfig::default().with_threads(1);
        for mode in [ReprMode::Rows, ReprMode::Sparse] {
            let off = choose_physical(&ctx, &plan, cfg.with_repr(mode));
            assert_eq!(off.dense_operator_count(), 0, "{mode:?}");
        }
        let auto = choose_physical(&ctx, &plan, cfg.with_repr(ReprMode::Auto));
        assert_eq!(
            auto.dense_operator_count(),
            plan.join_count() + plan.group_by_count(),
            "complete operands go dense under auto:\n{}",
            auto.render(&|v| format!("x{}", v.0))
        );
        assert_eq!(auto.to_logical(), plan);

        // Sparse data (density 1/16): auto declines dense, the pinned
        // mode selects it.
        let sparse = vec![
            mk("r1", Schema::new(vec![a, b]).unwrap(), 4),
            mk("r2", Schema::new(vec![b, c]).unwrap(), 4),
        ];
        let sctx = OptContext::new(&cat, sparse, QuerySpec::group_by([a]), CostModel::Io);
        let splan = optimize(&sctx, Algorithm::CsPlusNonlinear).plan;
        let sauto = choose_physical(&sctx, &splan, cfg.with_repr(ReprMode::Auto));
        assert_eq!(
            sauto.dense_operator_count(),
            0,
            "sparse operands stay off dense"
        );
        let son = choose_physical(&sctx, &splan, cfg.with_repr(ReprMode::Dense));
        assert!(
            son.dense_operator_count() > 0,
            "pinned mode ignores density"
        );
        assert_eq!(
            son.sparse_operator_count(),
            0,
            "pinned dense never goes sparse"
        );
    }

    #[test]
    fn dense_join_into_dense_agg_fuses() {
        // Complete relations over small domains: both operators go dense
        // under auto, and the join feeds the marginalization directly —
        // the canonical VE elimination step the fused operator targets.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 8).unwrap();
        let b = cat.add_var("b", 8).unwrap();
        let c = cat.add_var("c", 8).unwrap();
        let mk = |name: &str, schema: Schema, card: u64| BaseRel {
            name: name.into(),
            schema,
            cardinality: card,
            fd_lhs: None,
        };
        let rels = vec![
            mk("r1", Schema::new(vec![a, b]).unwrap(), 64),
            mk("r2", Schema::new(vec![b, c]).unwrap(), 64),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let cfg = PhysicalConfig::default()
            .with_threads(1)
            .with_repr(ReprMode::Auto);
        let fused = choose_physical(&ctx, &plan, cfg);
        fn count_fused(p: &PhysicalPlan) -> usize {
            match p {
                PhysicalPlan::Scan { .. } => 0,
                PhysicalPlan::Select { input, .. } | PhysicalPlan::GroupBy { input, .. } => {
                    count_fused(input)
                }
                PhysicalPlan::Join { left, right, .. } => {
                    count_fused(left) + count_fused(right)
                }
                PhysicalPlan::JoinAgg { left, right, .. } => {
                    1 + count_fused(left) + count_fused(right)
                }
            }
        }
        assert!(
            count_fused(&fused) > 0,
            "dense join into dense agg fuses:\n{}",
            fused.render(&|v| format!("x{}", v.0))
        );
        // Fusion is an annotation change only: the logical plan and the
        // dense operator accounting (one join + one group-by per fused
        // node) are unchanged.
        assert_eq!(fused.to_logical(), plan);
        let unfused = choose_physical(&ctx, &plan, cfg.with_fuse(false));
        assert_eq!(count_fused(&unfused), 0, "with_fuse(false) keeps the pair");
        assert_eq!(
            fused.dense_operator_count(),
            unfused.dense_operator_count()
        );
    }

    #[test]
    fn infeasible_grids_are_never_dense() {
        // Domains whose cross product exceeds MAX_DENSE_CELLS.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 1 << 13).unwrap();
        let b = cat.add_var("b", 1 << 13).unwrap();
        let rels = vec![BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 1 << 26,
            fd_lhs: None,
        }];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let on = choose_physical(
            &ctx,
            &plan,
            PhysicalConfig::default()
                .with_threads(1)
                .with_repr(ReprMode::Dense),
        );
        assert_eq!(on.dense_operator_count(), 0, "grid never materializes");
    }

    #[test]
    fn sparse_selection_covers_the_middle_density_band() {
        // Base densities ~0.19 and an estimated join output density ~0.035:
        // every operand is too sparse for dense auto (0.5) but dense
        // enough for sparse auto (0.01).
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 8).unwrap();
        let b = cat.add_var("b", 8).unwrap();
        let c = cat.add_var("c", 8).unwrap();
        let mk = |name: &str, schema: Schema, card: u64| BaseRel {
            name: name.into(),
            schema,
            cardinality: card,
            fd_lhs: None,
        };
        let rels = vec![
            mk("r1", Schema::new(vec![a, b]).unwrap(), 12),
            mk("r2", Schema::new(vec![b, c]).unwrap(), 12),
        ];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let cfg = PhysicalConfig::default().with_threads(1);
        for mode in [ReprMode::Rows, ReprMode::Dense] {
            let off = choose_physical(&ctx, &plan, cfg.with_repr(mode));
            assert_eq!(off.sparse_operator_count(), 0, "{mode:?}");
        }
        let auto = choose_physical(&ctx, &plan, cfg.with_repr(ReprMode::Auto));
        assert_eq!(
            auto.sparse_operator_count(),
            plan.join_count() + plan.group_by_count(),
            "mid-density operands go sparse under auto:\n{}",
            auto.render(&|v| format!("x{}", v.0))
        );
        assert_eq!(auto.dense_operator_count(), 0, "dense auto declines at 9%");
        assert_eq!(auto.to_logical(), plan);

        // Density below the 1% floor: auto declines, the pinned mode
        // selects.
        let mut cat2 = Catalog::new();
        let a2 = cat2.add_var("a", 100).unwrap();
        let b2 = cat2.add_var("b", 100).unwrap();
        let c2 = cat2.add_var("c", 100).unwrap();
        let sparse = vec![
            mk("r1", Schema::new(vec![a2, b2]).unwrap(), 50),
            mk("r2", Schema::new(vec![b2, c2]).unwrap(), 50),
        ];
        let sctx = OptContext::new(&cat2, sparse, QuerySpec::group_by([a2]), CostModel::Io);
        let splan = optimize(&sctx, Algorithm::CsPlusNonlinear).plan;
        let sauto = choose_physical(&sctx, &splan, cfg.with_repr(ReprMode::Auto));
        assert_eq!(sauto.sparse_operator_count(), 0, "0.5% operands stay hash");
        let sforced = choose_physical(&sctx, &splan, cfg.with_repr(ReprMode::Sparse));
        assert!(
            sforced.sparse_operator_count() > 0,
            "pinned mode ignores density"
        );
    }

    #[test]
    fn dense_wins_over_sparse_on_complete_grids() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 8).unwrap();
        let b = cat.add_var("b", 8).unwrap();
        let rels = vec![BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 64,
            fd_lhs: None,
        }];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let phys = choose_physical(
            &ctx,
            &plan,
            PhysicalConfig::default()
                .with_threads(1)
                .with_repr(ReprMode::Auto),
        );
        assert!(phys.dense_operator_count() > 0, "complete grids go dense");
        assert_eq!(phys.sparse_operator_count(), 0, "dense outranks sparse");
    }

    #[test]
    fn wide_grids_go_sparse_where_dense_cannot() {
        // Grid of 2^26 cells: over the dense cap, within the sparse cap.
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 1 << 13).unwrap();
        let b = cat.add_var("b", 1 << 13).unwrap();
        let rels = vec![BaseRel {
            name: "r1".into(),
            schema: Schema::new(vec![a, b]).unwrap(),
            cardinality: 1 << 22,
            fd_lhs: None,
        }];
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let cfg = PhysicalConfig::default().with_threads(1);
        let pinned = choose_physical(&ctx, &plan, cfg.with_repr(ReprMode::Dense));
        assert_eq!(pinned.dense_operator_count(), 0, "grid never fits densely");
        let phys = choose_physical(&ctx, &plan, cfg.with_repr(ReprMode::Auto));
        assert_eq!(phys.dense_operator_count(), 0, "grid never fits densely");
        assert!(
            phys.sparse_operator_count() > 0,
            "coordinates stay feasible:\n{}",
            phys.render(&|v| format!("x{}", v.0))
        );
    }

    #[test]
    fn parallel_operators_require_threads_and_scale() {
        let mut cat = Catalog::new();
        let (rels, a, ..) = ctx_fixture(&mut cat);
        let ctx = OptContext::new(&cat, rels, QuerySpec::group_by([a]), CostModel::Io);
        let plan = optimize(&ctx, Algorithm::CsPlusNonlinear).plan;
        let cfg = PhysicalConfig {
            memory_rows: 1e9,
            parallel_min_rows: 1_000.0,
            ..PhysicalConfig::default()
        }
        .with_repr(ReprMode::Rows);
        let seq = choose_physical(&ctx, &plan, cfg.with_threads(1));
        assert_eq!(seq.parallel_operator_count(), 0, "one thread -> no parallel ops");
        let par = choose_physical(&ctx, &plan, cfg.with_threads(4));
        assert!(
            par.parallel_operator_count() > 0,
            "large memory-resident operands go parallel:\n{}",
            par.render(&|v| format!("x{}", v.0))
        );
        // Partition counts are worker-aligned and bounded.
        fn check(p: &PhysicalPlan) {
            match p {
                PhysicalPlan::Scan { .. } => {}
                PhysicalPlan::Select { input, .. } => check(input),
                PhysicalPlan::Join { left, right, algo } => {
                    if let JoinAlgo::Parallel { partitions } = algo {
                        assert!(*partitions >= 4 && *partitions % 4 == 0);
                    }
                    check(left);
                    check(right);
                }
                PhysicalPlan::GroupBy { input, algo, .. } => {
                    if let AggAlgo::ParallelAgg { partitions } = algo {
                        assert!(*partitions >= 4 && *partitions % 4 == 0);
                    }
                    check(input);
                }
                PhysicalPlan::JoinAgg { left, right, .. } => {
                    check(left);
                    check(right);
                }
            }
        }
        check(&par);
        assert_eq!(par.to_logical(), plan);
    }
}
