use std::borrow::Cow;

use mpf_semiring::SemiringKind;
use mpf_storage::FunctionalRelation;

use crate::limits::{ExecBudget, ExecLimits};
use crate::trace::{OpRepr, SpanDesc, SpanKind};
use crate::{
    ops, AggAlgo, AlgebraError, ExecContext, ExecStats, JoinAlgo, PhysicalPlan, Plan,
    RelationProvider, Result,
};

/// Evaluates plans against a [`RelationProvider`] under a chosen semiring.
///
/// There is exactly one interpreter, and it evaluates [`PhysicalPlan`]s.
/// A logical [`Plan`] handed to [`Executor::execute`] first goes through
/// the lowering pass ([`Executor::lower`]), which picks the default
/// algorithm for every operator (hash join / hash aggregation); callers
/// with a cost model lower the plan themselves (the optimizer's
/// `choose_physical`) and call [`Executor::execute_physical`]. Both paths
/// run the same code, so lowered and hand-built physical plans of the
/// same shape produce identical results *and identical [`ExecStats`]*.
///
/// Execution state — semiring, optional budget, work counters, fault
/// hooks — travels in an [`ExecContext`] threaded through every operator.
/// The executor materializes every operator output (as the paper's
/// modified PostgreSQL does for group-by results inside join trees), but
/// scans *borrow* the stored base relations (`Cow`): a scan costs no copy
/// and the budget charges a relation's cells only on its first scan.
///
/// An executor built with [`Executor::with_limits`] enforces resource
/// budgets ([`ExecLimits`]) on every operator it runs; the wall clock for
/// a configured deadline starts when the executor is created.
///
/// With more than one worker thread ([`ExecLimits::threads`] /
/// [`Executor::with_threads`]) the interpreter evaluates independent join
/// subtrees concurrently on scoped workers (bounded by a shared token
/// pool) and runs the planner's parallel operator annotations
/// ([`JoinAlgo::Parallel`], [`AggAlgo::ParallelAgg`]) partitioned across
/// the workers. Worker contexts charge the same budget and the stats
/// merge deterministically, so answers, counters, and typed errors are
/// identical at any thread count.
#[derive(Debug)]
pub struct Executor<'a, P: RelationProvider> {
    provider: &'a P,
    semiring: SemiringKind,
    budget: Option<ExecBudget>,
    threads: usize,
}

impl<'a, P: RelationProvider + Sync> Executor<'a, P> {
    /// Create an executor over `provider` with the given semiring, no
    /// resource limits, and the environment-default parallelism
    /// ([`crate::config::default_threads`]).
    pub fn new(provider: &'a P, semiring: SemiringKind) -> Self {
        Self {
            provider,
            semiring,
            budget: None,
            threads: crate::config::default_threads(),
        }
    }

    /// Create an executor enforcing `limits`. Unlimited `limits` behave
    /// exactly like [`Executor::new`] (no tracking overhead); the
    /// `threads` knob is honored either way.
    pub fn with_limits(provider: &'a P, semiring: SemiringKind, limits: ExecLimits) -> Self {
        let threads = limits.effective_threads();
        Self {
            provider,
            semiring,
            budget: (!limits.is_unlimited()).then(|| ExecBudget::new(limits)),
            threads,
        }
    }

    /// Override the worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The active semiring.
    pub fn semiring(&self) -> SemiringKind {
        self.semiring
    }

    /// The budget tracker, when limits are configured.
    pub fn budget(&self) -> Option<&ExecBudget> {
        self.budget.as_ref()
    }

    /// Lower a logical plan to a physical plan with the default algorithm
    /// (hash) for every operator.
    ///
    /// # Errors
    /// [`AlgebraError::PlanTooDeep`] for plans nested beyond
    /// [`crate::MAX_PLAN_DEPTH`].
    pub fn lower(&self, plan: &Plan) -> Result<PhysicalPlan> {
        plan.check_depth()?;
        Ok(PhysicalPlan::default_hash(plan))
    }

    /// Execute a logical plan (lowering pass + the physical interpreter),
    /// returning the result relation and work counters.
    pub fn execute(&self, plan: &Plan) -> Result<(FunctionalRelation, ExecStats)> {
        let physical = self.lower(plan)?;
        self.execute_physical(&physical)
    }

    /// Execute a physical plan (operator algorithms chosen per node).
    pub fn execute_physical(
        &self,
        plan: &PhysicalPlan,
    ) -> Result<(FunctionalRelation, ExecStats)> {
        let mut cx =
            ExecContext::with_budget(self.semiring, self.budget.as_ref()).with_threads(self.threads);
        let rel = self.execute_physical_in(&mut cx, plan)?;
        Ok((rel, cx.take_stats()))
    }

    /// Execute a physical plan in a caller-supplied context, so the caller
    /// keeps the accumulated [`ExecStats`] (and any budget) even when
    /// execution fails — the engine uses this to report total work across
    /// fallback attempts.
    pub fn execute_physical_in(
        &self,
        cx: &mut ExecContext<'_>,
        plan: &PhysicalPlan,
    ) -> Result<FunctionalRelation> {
        let depth = plan.depth();
        if depth > crate::MAX_PLAN_DEPTH {
            return Err(AlgebraError::PlanTooDeep {
                depth,
                max: crate::MAX_PLAN_DEPTH,
            });
        }
        Ok(self.run(cx, plan)?.into_owned())
    }

    /// Resolve a scan as a borrow of the stored relation.
    fn scan(&self, cx: &mut ExecContext<'_>, relation: &str) -> Result<&'a FunctionalRelation> {
        let rel = self
            .provider
            .relation_of(relation)
            .ok_or_else(|| AlgebraError::UnknownRelation(relation.to_string()))?;
        cx.record_scan(relation, rel)?;
        Ok(rel)
    }

    /// The single plan interpreter. Scans borrow from the provider;
    /// operator outputs are owned. Wraps every node in a trace span when
    /// the context collects them ([`crate::TraceLevel::Spans`]): the
    /// node's `record_*` accounting fills the span's row counts, the
    /// wrapper adds inclusive wall time and the failure, if any.
    fn run(
        &self,
        cx: &mut ExecContext<'_>,
        plan: &PhysicalPlan,
    ) -> Result<Cow<'a, FunctionalRelation>> {
        let threads = cx.threads();
        cx.span_open(|| span_desc(plan, threads));
        let result = self.run_node(cx, plan);
        cx.span_close(|| result.as_ref().err().map(|e| e.to_string()));
        result
    }

    /// [`Executor::run`] body, without the span bracket.
    fn run_node(
        &self,
        cx: &mut ExecContext<'_>,
        plan: &PhysicalPlan,
    ) -> Result<Cow<'a, FunctionalRelation>> {
        match plan {
            PhysicalPlan::Scan { relation } => Ok(Cow::Borrowed(self.scan(cx, relation)?)),
            PhysicalPlan::Select { input, predicates } => {
                let in_rel = self.run(cx, input)?;
                Ok(Cow::Owned(ops::select_eq(cx, &in_rel, predicates)?))
            }
            PhysicalPlan::Join { left, right, algo } => {
                let (l, r) = self.run_inputs(cx, left, right)?;
                let out = match algo {
                    JoinAlgo::Hash => ops::product_join(cx, &l, &r)?,
                    JoinAlgo::SortMerge => crate::sort_ops::merge_join(cx, &l, &r)?,
                    JoinAlgo::Grace { partitions } => {
                        // The planner's count came from cardinality
                        // estimates; re-derive from the actual build side
                        // and the context's workspace so each partition
                        // really fits, keeping the planner's count as a
                        // floor.
                        let build = if l.len() <= r.len() { &*l } else { &*r };
                        let derived = crate::partitioned::grace_partitions(
                            build.len(),
                            build.row_bytes(),
                            cx.workspace_bytes(),
                        )
                        .max(*partitions);
                        cx.span_set_partitions(derived);
                        crate::partitioned::grace_join(cx, &l, &r, derived)?
                    }
                    JoinAlgo::Parallel { partitions } => crate::partitioned::parallel_join_parts(
                        cx,
                        &l,
                        &r,
                        cx.threads(),
                        *partitions,
                    )?,
                    JoinAlgo::Dense => crate::dense::join(cx, &l, &r)?,
                    JoinAlgo::SparseTensor => crate::sparse::join(cx, &l, &r)?,
                };
                Ok(Cow::Owned(out))
            }
            PhysicalPlan::GroupBy {
                input,
                group_vars,
                algo,
            } => {
                let in_rel = self.run(cx, input)?;
                let out = match algo {
                    AggAlgo::HashAgg => ops::group_by(cx, &in_rel, group_vars)?,
                    AggAlgo::SortAgg => crate::sort_ops::sort_group_by(cx, &in_rel, group_vars)?,
                    AggAlgo::ParallelAgg { partitions } => {
                        crate::partitioned::parallel_group_by_parts(
                            cx,
                            &in_rel,
                            group_vars,
                            cx.threads(),
                            *partitions,
                        )?
                    }
                    AggAlgo::DenseAgg => crate::dense::agg(cx, &in_rel, group_vars)?,
                    AggAlgo::SparseAgg => crate::sparse::agg(cx, &in_rel, group_vars)?,
                };
                Ok(Cow::Owned(out))
            }
            PhysicalPlan::JoinAgg {
                left,
                right,
                group_vars,
            } => {
                let (l, r) = self.run_inputs(cx, left, right)?;
                Ok(Cow::Owned(crate::dense::join_agg_auto(
                    cx, &l, &r, group_vars,
                )?))
            }
        }
    }

    /// Evaluate a join's two input subtrees, concurrently when it pays:
    /// both subtrees must contain real work (at least one join or
    /// group-by each) and a worker token must be available from the
    /// context's shared pool. The right subtree runs on a scoped worker
    /// against a forked context (shared budget and scan ledger, own
    /// stats); the left runs inline. Stats are absorbed and errors
    /// inspected left-before-right, so counters and error precedence are
    /// identical to sequential execution.
    #[allow(clippy::type_complexity)]
    fn run_inputs(
        &self,
        cx: &mut ExecContext<'_>,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
    ) -> Result<(Cow<'a, FunctionalRelation>, Cow<'a, FunctionalRelation>)> {
        if left.operator_count() == 0 || right.operator_count() == 0 || !cx.try_acquire_worker() {
            let l = self.run(cx, left)?;
            let r = self.run(cx, right)?;
            return Ok((l, r));
        }
        let mut rcx = cx.fork();
        let (lres, rres, rstats, rtrace) = std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let r = self.run(&mut rcx, right);
                (r, rcx.take_stats(), rcx.take_trace())
            });
            let l = self.run(cx, left);
            let (r, rstats, rtrace) = handle.join().unwrap_or_else(|_| {
                (
                    Err(AlgebraError::Internal("subplan worker panicked".into())),
                    ExecStats::default(),
                    crate::TraceTree::default(),
                )
            });
            (l, r, rstats, rtrace)
        });
        cx.release_worker();
        cx.absorb(rstats);
        // The left subtree's spans attached inline (under the open join
        // span); grafting the worker's spans after them reproduces the
        // sequential left-then-right order exactly.
        cx.absorb_trace(rtrace);
        Ok((lres?, rres?))
    }
}

/// Describe a plan node for its trace span: kind, display label, and the
/// planner's partition/worker annotations. Only called with tracing on.
fn span_desc(plan: &PhysicalPlan, threads: usize) -> SpanDesc {
    match plan {
        PhysicalPlan::Scan { relation } => {
            SpanDesc::op(SpanKind::Scan, format!("Scan {relation}"))
        }
        PhysicalPlan::Select { .. } => SpanDesc::op(SpanKind::Select, "Select"),
        PhysicalPlan::Join { algo, .. } => SpanDesc {
            kind: SpanKind::Join,
            label: format!("ProductJoin ({})", algo.label()),
            partitions: match algo {
                JoinAlgo::Grace { partitions } | JoinAlgo::Parallel { partitions } => {
                    Some(*partitions)
                }
                _ => None,
            },
            workers: matches!(algo, JoinAlgo::Parallel { .. }).then_some(threads),
            // Left `Rows` even for the dense/sparse annotations: the
            // operator may fall back at runtime, and record-time merging
            // overwrites the representation only when a kernel actually
            // ran.
            repr: OpRepr::Rows,
        },
        PhysicalPlan::GroupBy { algo, .. } => SpanDesc {
            kind: SpanKind::GroupBy,
            label: format!("GroupBy ({})", algo.label()),
            partitions: match algo {
                AggAlgo::ParallelAgg { partitions } => Some(*partitions),
                _ => None,
            },
            workers: matches!(algo, AggAlgo::ParallelAgg { .. }).then_some(threads),
            repr: OpRepr::Rows,
        },
        // The fused contraction accounts through `record_join_agg_ex`,
        // which records under the GroupBy kind (the node's output is the
        // marginal) and tags the span `fused=true` at run time.
        PhysicalPlan::JoinAgg { .. } => {
            SpanDesc::op(SpanKind::GroupBy, "JoinAgg (Fused)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelationStore;
    use mpf_semiring::approx_eq;
    use mpf_storage::{Catalog, Schema, VarId};

    fn store() -> (Catalog, RelationStore, VarId, VarId, VarId) {
        let mut c = Catalog::new();
        let a = c.add_var("a", 2).unwrap();
        let b = c.add_var("b", 2).unwrap();
        let d = c.add_var("d", 2).unwrap();
        let mut s = RelationStore::new();
        s.insert(
            FunctionalRelation::from_rows(
                "r1",
                Schema::new(vec![a, b]).unwrap(),
                [
                    (vec![0, 0], 1.0),
                    (vec![0, 1], 2.0),
                    (vec![1, 0], 3.0),
                    (vec![1, 1], 4.0),
                ],
            )
            .unwrap(),
        );
        s.insert(
            FunctionalRelation::from_rows(
                "r2",
                Schema::new(vec![b, d]).unwrap(),
                [
                    (vec![0, 0], 10.0),
                    (vec![0, 1], 20.0),
                    (vec![1, 0], 30.0),
                    (vec![1, 1], 40.0),
                ],
            )
            .unwrap(),
        );
        (c, s, a, b, d)
    }

    #[test]
    fn executes_full_plan() {
        let (_, s, _, _, d) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        let plan = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![d]);
        let (out, stats) = exec.execute(&plan).unwrap();
        assert!(approx_eq(out.lookup(&[0]).unwrap(), 220.0));
        assert!(approx_eq(out.lookup(&[1]).unwrap(), 320.0));
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.group_bys, 1);
        assert_eq!(stats.rows_scanned, 8);
        assert!(stats.rows_processed > 0);
        assert_eq!(stats.max_intermediate_rows, 8);
    }

    #[test]
    fn pushed_down_group_by_same_answer_less_work() {
        let (_, s, _, b, d) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        let root_only = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r2")), vec![d]);
        // Push a group-by onto r1 (eliminate `a` early).
        let pushed = Plan::group_by(
            Plan::join(
                Plan::group_by(Plan::scan("r1"), vec![b]),
                Plan::scan("r2"),
            ),
            vec![d],
        );
        let (out1, st1) = exec.execute(&root_only).unwrap();
        let (out2, st2) = exec.execute(&pushed).unwrap();
        assert!(out1.function_eq(&out2));
        assert!(st2.rows_processed < st1.rows_processed);
    }

    #[test]
    fn select_plan() {
        let (_, s, a, _, d) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        let plan = Plan::group_by(
            Plan::join(
                Plan::select(Plan::scan("r1"), vec![(a, 0)]),
                Plan::scan("r2"),
            ),
            vec![d],
        );
        let (out, stats) = exec.execute(&plan).unwrap();
        // a=0: d=0 -> 1*10 + 2*30 = 70; d=1 -> 1*20 + 2*40 = 100.
        assert!(approx_eq(out.lookup(&[0]).unwrap(), 70.0));
        assert!(approx_eq(out.lookup(&[1]).unwrap(), 100.0));
        assert_eq!(stats.selects, 1);
    }

    #[test]
    fn unknown_relation_errors() {
        let (_, s, _, _, _) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        assert!(matches!(
            exec.execute(&Plan::scan("missing")),
            Err(AlgebraError::UnknownRelation(_))
        ));
    }

    #[test]
    fn lowered_plan_matches_hand_built_physical() {
        // The acceptance check for the single interpreter: executing a
        // logical plan (through lowering) and the equivalent hand-built
        // physical plan must agree on the answer AND on every work counter.
        let (_, s, _, b, d) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        let logical = Plan::group_by(
            Plan::join(
                Plan::group_by(Plan::scan("r1"), vec![b]),
                Plan::scan("r2"),
            ),
            vec![d],
        );
        let hand_built = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Join {
                left: Box::new(PhysicalPlan::GroupBy {
                    input: Box::new(PhysicalPlan::Scan {
                        relation: "r1".into(),
                    }),
                    group_vars: vec![b],
                    algo: AggAlgo::HashAgg,
                }),
                right: Box::new(PhysicalPlan::Scan {
                    relation: "r2".into(),
                }),
                algo: JoinAlgo::Hash,
            }),
            group_vars: vec![d],
            algo: AggAlgo::HashAgg,
        };
        let (lowered_out, lowered_stats) = exec.execute(&logical).unwrap();
        let (hand_out, hand_stats) = exec.execute_physical(&hand_built).unwrap();
        assert!(lowered_out.function_eq(&hand_out));
        assert_eq!(lowered_stats, hand_stats);
    }

    #[test]
    fn too_deep_plans_error_before_evaluation() {
        let (_, s, _, _, d) = store();
        let exec = Executor::new(&s, SemiringKind::SumProduct);
        let mut plan = Plan::scan("r1");
        for _ in 0..crate::MAX_PLAN_DEPTH + 20 {
            plan = Plan::join(plan, Plan::scan("r2"));
        }
        let plan = Plan::group_by(plan, vec![d]);
        assert!(matches!(
            exec.execute(&plan),
            Err(AlgebraError::PlanTooDeep { .. })
        ));
        // The same guard protects a directly-supplied physical plan.
        let mut phys = PhysicalPlan::Scan {
            relation: "r1".into(),
        };
        for _ in 0..crate::MAX_PLAN_DEPTH + 20 {
            phys = PhysicalPlan::Join {
                left: Box::new(phys),
                right: Box::new(PhysicalPlan::Scan {
                    relation: "r2".into(),
                }),
                algo: JoinAlgo::Hash,
            };
        }
        assert!(matches!(
            exec.execute_physical(&phys),
            Err(AlgebraError::PlanTooDeep { .. })
        ));
    }

    #[test]
    fn repeated_scans_budget_charged_once() {
        // Joining r1 with itself scans the same stored relation twice;
        // only the first scan charges the budget (there is no clone to
        // pay for), so a budget sized for one copy + the join output
        // suffices.
        let (_, s, a, b, _) = store();
        // One scan charge (4 rows × 3 cells = 12) + join output
        // (r1 ⨝* r1 = 4 rows × 3 = 12) + group-by output (4 rows × 3 =
        // 12) totals 36 cells; charging the second scan too would need
        // 48. A 40-cell budget therefore fits only with single charging.
        let exec = Executor::with_limits(
            &s,
            SemiringKind::SumProduct,
            ExecLimits::none().with_max_total_cells(40),
        );
        let plan = Plan::group_by(Plan::join(Plan::scan("r1"), Plan::scan("r1")), vec![a, b]);
        let (out, stats) = exec.execute(&plan).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(stats.rows_scanned, 8, "stats still count both scans");
    }
}
