//! The VE-cache workload optimization scheme (Section 6, Algorithm 3).
//!
//! Given an MPF view and a workload of single-variable queries, VE-cache
//! materializes a set `S` of tables satisfying the Definition 5 correctness
//! invariant: a query on variable `X` can be answered from *any* cached
//! table containing `X`, with the same result as evaluating it against the
//! full view.
//!
//! The construction follows Algorithm 3 literally:
//!
//! 1. execute a **no-query-variable** Variable Elimination plan, caching
//!    every table that precedes a `GroupBy` node (these are exactly the
//!    cliques of the triangulation induced by the elimination order —
//!    Theorem 10);
//! 2. run the backward pass: for each cached table `t_j` (newest first) and
//!    each earlier `t_i` whose `GroupBy` fed `t_j`'s join, compute
//!    `t_i ⋉ t_j` (update semijoin).
//!
//! The producer/consumer edges recorded in step 1 form a join tree over the
//! cache (verified by [`VeCache::verify_tree_rip`] in tests), which is what
//! makes the restricted-range evidence protocol of Theorem 5 work: apply
//! the selection to one cached table, then propagate update-semijoin
//! reductions outward along the tree.

use std::collections::BTreeSet;

use mpf_algebra::ExecContext;
use mpf_semiring::SemiringKind;
use mpf_storage::{FunctionalRelation, Value, VarId};

use crate::triangulate::min_fill_order;
use crate::{InferError, JoinTree, Result, VariableGraph};

/// A single-variable workload query with an occurrence probability
/// (the workload model of Section 6).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadQuery {
    /// The query variable.
    pub var: VarId,
    /// Optional equality predicates (restricted-answer form).
    pub predicates: Vec<(VarId, Value)>,
    /// Likelihood of a user posing this query.
    pub probability: f64,
}

/// A materialized cache of reduced tables satisfying the workload
/// correctness invariant (Definition 5).
#[derive(Debug, Clone)]
pub struct VeCache {
    semiring: SemiringKind,
    tables: Vec<FunctionalRelation>,
    /// Producer edges `(i, j)`: `GroupBy(tables[i])` was an input of the
    /// join that created `tables[j]`.
    edges: Vec<(usize, usize)>,
    /// The elimination order used.
    order: Vec<VarId>,
    /// Base relation names, in build order.
    base_names: Vec<String>,
    /// Base relation schemas, parallel to `base_names`.
    base_schemas: Vec<mpf_storage::Schema>,
    /// For each base relation, the cached table whose join consumed it
    /// (`None` for zero-arity bases that never join).
    base_consumer: Vec<Option<usize>>,
}

/// Where a live VE factor came from during the forward pass.
enum Origin {
    /// The `i`th input base relation.
    Base(usize),
    /// The group-by output of cached table `i`.
    Cached(usize),
}

impl VeCache {
    /// Build the cache from the view's base relations (Algorithm 3) inside
    /// a caller-owned [`ExecContext`], so budgets, deadlines, cancellation,
    /// fault hooks, and tracing cover the whole construction and its work
    /// lands in the caller's stats. With `order = None` a min-fill order
    /// over the variable graph is used.
    ///
    /// # Errors
    /// [`InferError::Algebra`] if the semiring lacks division (the backward
    /// pass needs the update semijoin).
    pub fn build_in(
        cx: &mut ExecContext<'_>,
        rels: &[&FunctionalRelation],
        order: Option<&[VarId]>,
    ) -> Result<VeCache> {
        cx.span_phase("vecache::build");
        let result = VeCache::build_inner(cx, rels, order);
        cx.span_close(|| result.as_ref().err().map(|e| e.to_string()));
        result
    }

    fn build_inner(
        cx: &mut ExecContext<'_>,
        rels: &[&FunctionalRelation],
        order: Option<&[VarId]>,
    ) -> Result<VeCache> {
        cx.fault("vecache::build")?;
        let sr = cx.semiring();
        if !sr.has_division() {
            return Err(InferError::Algebra(mpf_algebra::AlgebraError::NoDivision));
        }
        let graph = VariableGraph::from_schemas(rels.iter().map(|r| r.schema()));
        let mut full_order: Vec<VarId> = match order {
            Some(o) => o.to_vec(),
            None => min_fill_order(&graph),
        };
        for v in graph.vertices() {
            if !full_order.contains(&v) {
                full_order.push(v);
            }
        }

        // Forward pass: VE with *all* variables as elimination candidates.
        // `factors` carries each live factor's origin (input base relation
        // or group-by output of a cached table).
        let mut factors: Vec<(FunctionalRelation, Origin)> = rels
            .iter()
            .enumerate()
            .map(|(i, r)| ((*r).clone(), Origin::Base(i)))
            .collect();
        let mut tables: Vec<FunctionalRelation> = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut base_consumer: Vec<Option<usize>> = vec![None; rels.len()];
        let mut leftover_scalars: Vec<(f64, Option<usize>)> = Vec::new();

        for &v in &full_order {
            let (group, rest): (Vec<_>, Vec<_>) = factors
                .drain(..)
                .partition(|(f, _)| f.schema().contains(v));
            factors = rest;
            if group.is_empty() {
                continue;
            }
            // Join rels(v), smallest first. The chain runs over
            // representation-polymorphic factors: when the context's
            // `ReprMode` picks sparse, the intermediates stay CSR tensors between joins
            // and only materialize into rows once, for the cached table.
            let mut group = group;
            group.sort_by_key(|(f, _)| f.len());
            let j = tables.len();
            let mut iter = group.into_iter();
            let (first, first_origin) = iter.next().expect("nonempty");
            let mut joined = mpf_storage::Factor::from(first);
            let mut origins = vec![first_origin];
            for (f, origin) in iter {
                joined =
                    mpf_algebra::sparse::join_factor(cx, &joined, &mpf_storage::Factor::from(f))?;
                origins.push(origin);
            }
            for origin in origins {
                match origin {
                    Origin::Cached(i) => edges.push((i, j)),
                    Origin::Base(b) => base_consumer[b] = Some(j),
                }
            }
            let joined = mpf_algebra::sparse::materialize(cx, joined)?;
            // Cache the pre-GroupBy table.
            tables.push(joined.clone().with_name(format!("t{j}")));
            // Eliminate v.
            let keep: Vec<VarId> = joined.schema().iter().filter(|&u| u != v).collect();
            let p = mpf_algebra::sparse::agg_auto(cx, &joined, &keep)?;
            if p.schema().is_empty() {
                // Component fully eliminated; remember its total.
                let total = if p.is_empty() { sr.zero() } else { p.measure(0) };
                leftover_scalars.push((total, Some(j)));
            } else {
                factors.push((p, Origin::Cached(j)));
            }
        }
        // Base relations with empty schemas never join anything.
        for (f, origin) in factors {
            debug_assert!(f.schema().is_empty());
            let total = if f.is_empty() { sr.zero() } else { f.measure(0) };
            let root = match origin {
                Origin::Cached(i) => Some(i),
                Origin::Base(_) => None,
            };
            leftover_scalars.push((total, root));
        }

        let mut cache = VeCache {
            semiring: sr,
            tables,
            edges,
            order: full_order,
            base_names: rels.iter().map(|r| r.name().to_string()).collect(),
            base_schemas: rels.iter().map(|r| r.schema().clone()).collect(),
            base_consumer,
        };

        // Backward pass (lines 3–7 of Algorithm 3).
        for j in (0..cache.tables.len()).rev() {
            let children: Vec<usize> = cache
                .edges
                .iter()
                .filter(|&&(_, cj)| cj == j)
                .map(|&(i, _)| i)
                .collect();
            for i in children {
                cache.tables[i] = mpf_algebra::ops::update_semijoin(
                    cx,
                    &cache.tables[i],
                    &cache.tables[j],
                )?
                .with_name(format!("t{i}"));
            }
        }

        // Cross-component scaling, so Definition 5 holds against the *full*
        // (cross-product) view even when the schema is disconnected.
        cache.apply_component_scaling(&leftover_scalars)?;
        Ok(cache)
    }

    /// Build caches for several candidate elimination orders and keep the
    /// one minimizing the Section 6 workload objective
    /// `C(S) + E[cost(Q(q, S))]`.
    ///
    /// With `candidate_orders` empty, the min-fill and min-degree orders of
    /// the variable graph are tried. This is the cost-based instantiation
    /// of the paper's "MPF Workload Problem": the invariant guarantees any
    /// order is *correct*, so order choice is purely an optimization.
    pub fn build_for_workload(
        sr: SemiringKind,
        rels: &[&FunctionalRelation],
        workload: &[WorkloadQuery],
        candidate_orders: &[Vec<VarId>],
    ) -> Result<VeCache> {
        let defaults: Vec<Vec<VarId>>;
        let candidates: &[Vec<VarId>] = if candidate_orders.is_empty() {
            let graph = VariableGraph::from_schemas(rels.iter().map(|r| r.schema()));
            defaults = vec![
                min_fill_order(&graph),
                crate::triangulate::min_degree_order(&graph),
            ];
            &defaults
        } else {
            candidate_orders
        };
        let mut best: Option<(f64, VeCache)> = None;
        for order in candidates {
            let cache = VeCache::build_in(&mut ExecContext::new(sr), rels, Some(order))?;
            let cost = cache.expected_cost(workload);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, cache));
            }
        }
        Ok(best.expect("at least one candidate order").1)
    }

    /// Scale every component's tables by the product of the *other*
    /// components' totals.
    fn apply_component_scaling(&mut self, scalars: &[(f64, Option<usize>)]) -> Result<()> {
        // Components keyed by root cache index (producer of the final
        // scalar); scalar factors from measure-only base relations have no
        // cached tables but still contribute their total.
        if scalars.len() <= 1 {
            return Ok(());
        }
        let comps = self.components();
        let comp_of = |table: usize| comps.iter().position(|c| c.contains(&table));
        for (k, &(_, root_k)) in scalars.iter().enumerate() {
            let other: f64 = self.semiring.product(
                scalars
                    .iter()
                    .enumerate()
                    .filter(|&(k2, _)| k2 != k)
                    .map(|(_, &(t, _))| t),
            );
            if let Some(root) = root_k {
                if let Some(ci) = comp_of(root) {
                    for &t in &comps[ci] {
                        crate::bp::scale(self.semiring, &mut self.tables[t], other);
                    }
                }
            }
        }
        Ok(())
    }

    /// The cached tables.
    pub fn tables(&self) -> &[FunctionalRelation] {
        &self.tables
    }

    /// The semiring the cache was built in.
    pub fn semiring(&self) -> SemiringKind {
        self.semiring
    }

    /// The elimination order used to build the cache.
    pub fn order(&self) -> &[VarId] {
        &self.order
    }

    /// Producer/consumer edges of the cache tree.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Total cached rows — the `C(S)` materialization-size term of the
    /// workload objective.
    pub fn total_cached_rows(&self) -> u64 {
        self.tables.iter().map(|t| t.len() as u64).sum()
    }

    /// Heap bytes owned by the cache: every cached table plus the tree
    /// bookkeeping (edges, order, base-relation names/schemas/consumer
    /// map), all charged at vector *capacity*. This is what a residency
    /// budget (the engine's `MPF_CACHE_BYTES` view cache) accounts per
    /// entry.
    pub fn heap_bytes(&self) -> usize {
        let tables: usize = self.tables.iter().map(FunctionalRelation::heap_bytes).sum();
        tables
            + self.tables.capacity() * std::mem::size_of::<FunctionalRelation>()
            + self.edges.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.order.capacity() * std::mem::size_of::<VarId>()
            + self
                .base_names
                .iter()
                .map(String::capacity)
                .sum::<usize>()
            + self.base_names.capacity() * std::mem::size_of::<String>()
            + self
                .base_schemas
                .iter()
                .map(mpf_storage::Schema::heap_bytes)
                .sum::<usize>()
            + self.base_schemas.capacity() * std::mem::size_of::<mpf_storage::Schema>()
            + self.base_consumer.capacity() * std::mem::size_of::<Option<usize>>()
    }

    /// Index of the smallest cached table covering every variable in
    /// `vars` — the table [`VeCache::answer_set_in`] would marginalize —
    /// or [`InferError::VariableNotCovered`] when no single table does.
    /// Lets a caller test coverage (and size the marginalization) without
    /// running it.
    pub fn covering_table(&self, vars: &[VarId]) -> Result<usize> {
        self.best_table_for(vars)
    }

    /// Answer a single-variable MPF query from the cache: marginalize the
    /// smallest cached table containing `var`.
    pub fn answer(&self, var: VarId) -> Result<FunctionalRelation> {
        self.answer_in(&mut ExecContext::new(self.semiring), var)
    }

    /// [`VeCache::answer`] inside a caller-owned [`ExecContext`] (budgets,
    /// stats, and tracing apply).
    pub fn answer_in(
        &self,
        cx: &mut ExecContext<'_>,
        var: VarId,
    ) -> Result<FunctionalRelation> {
        self.answer_set_in(cx, &[var])
    }

    /// Answer a query on a variable *set* — succeeds when some cached table
    /// covers every requested variable.
    pub fn answer_set(&self, vars: &[VarId]) -> Result<FunctionalRelation> {
        self.answer_set_in(&mut ExecContext::new(self.semiring), vars)
    }

    /// [`VeCache::answer_set`] inside a caller-owned [`ExecContext`]
    /// (budgets, stats, and tracing apply).
    pub fn answer_set_in(
        &self,
        cx: &mut ExecContext<'_>,
        vars: &[VarId],
    ) -> Result<FunctionalRelation> {
        let idx = self.best_table_for(vars)?;
        Ok(mpf_algebra::sparse::agg_auto(cx, &self.tables[idx], vars)?)
    }

    fn best_table_for(&self, vars: &[VarId]) -> Result<usize> {
        (0..self.tables.len())
            .filter(|&i| vars.iter().all(|&v| self.tables[i].schema().contains(v)))
            .min_by_key(|&i| self.tables[i].len())
            .ok_or(InferError::VariableNotCovered(
                vars.first().copied().unwrap_or(VarId(u32::MAX)),
            ))
    }

    /// The restricted-range / constrained-domain protocol (Theorem 5):
    /// return a new cache conditioned on `var = value`. The selection is
    /// applied to one cached table containing `var`, then update-semijoin
    /// reductions are propagated outward along the cache tree.
    pub fn with_evidence(&self, var: VarId, value: Value) -> Result<VeCache> {
        let mut out = self.clone();
        let source = out.best_table_for(&[var])?;
        let old_total = out.table_total(source)?;
        out.tables[source] = mpf_algebra::ops::select_eq(
            &mut ExecContext::new(self.semiring),
            &out.tables[source],
            &[(var, value)],
        )?;
        out.repropagate_from(source, old_total)?;
        Ok(out)
    }

    /// [`VeCache::with_evidence`] chained over an evidence set: condition
    /// on every `(var, value)` pair in order. One conditioned tree is
    /// derived per pair; callers batching many scenarios with shared
    /// evidence should sort pairs so equal sets hit equal derivations.
    ///
    /// # Errors
    /// [`InferError::EmptyEvidence`] on an empty set; otherwise whatever
    /// [`VeCache::with_evidence`] raises for some pair.
    pub fn with_evidence_set(&self, evidence: &[(VarId, Value)]) -> Result<VeCache> {
        let mut iter = evidence.iter();
        let &(var, value) = iter.next().ok_or(InferError::EmptyEvidence)?;
        let mut out = self.with_evidence(var, value)?;
        for &(var, value) in iter {
            out = out.with_evidence(var, value)?;
        }
        Ok(out)
    }

    /// Incremental view maintenance: return a cache reflecting a changed
    /// measure of one row of a base relation (the materialize-and-maintain
    /// option the paper's introduction raises), without rebuilding.
    ///
    /// The base row's measure enters the view product exactly once — inside
    /// the cached table whose join consumed the base relation — so the
    /// update multiplies the matching rows of that table by
    /// `new / old` and repropagates update-semijoin reductions outward
    /// along the cache tree (the same recalibration as evidence
    /// conditioning).
    ///
    /// # Errors
    /// [`InferError::InvalidUpdate`] if the relation is unknown, the old
    /// measure is the additive identity (a `0 → x` change alters the view's
    /// support and needs a rebuild), or the semiring cannot express the
    /// ratio.
    pub fn update_measure(
        &self,
        relation: &str,
        row: &[Value],
        old: f64,
        new: f64,
    ) -> Result<VeCache> {
        let sr = self.semiring;
        let base = self
            .base_names
            .iter()
            .position(|n| n == relation)
            .ok_or_else(|| {
                InferError::InvalidUpdate(format!("unknown base relation `{relation}`"))
            })?;
        if old == sr.zero() {
            return Err(InferError::InvalidUpdate(
                "old measure is the additive identity; the update changes the view's \
                 support — rebuild the cache"
                    .into(),
            ));
        }
        let ratio = sr.div(new, old);
        let Some(source) = self.base_consumer[base] else {
            return Err(InferError::InvalidUpdate(format!(
                "base relation `{relation}` has no variables; rebuild the cache"
            )));
        };

        let mut out = self.clone();
        let old_total = out.table_total(source)?;
        // Multiply the consuming table's rows matching the base row.
        let positions = out.tables[source]
            .schema()
            .positions(self.base_schemas[base].vars())
            .expect("base variables are inside the consuming clique");
        let table = &mut out.tables[source];
        for i in 0..table.len() {
            let matches = positions
                .iter()
                .zip(row)
                .all(|(&p, &v)| table.row(i)[p] == v);
            if matches {
                let m = table.measure(i);
                table.set_measure(i, sr.mul(m, ratio));
            }
        }
        out.repropagate_from(source, old_total)?;
        Ok(out)
    }

    /// Total (zero-ary marginal) of a cached table.
    fn table_total(&self, idx: usize) -> Result<f64> {
        let t = mpf_algebra::ops::group_by(
            &mut ExecContext::new(self.semiring),
            &self.tables[idx],
            &[],
        )?;
        Ok(if t.is_empty() {
            self.semiring.zero()
        } else {
            t.measure(0)
        })
    }

    /// After `tables[source]` changed, push update-semijoin reductions
    /// outward along the cache tree and rescale other components by the
    /// total's change, restoring Definition 5.
    fn repropagate_from(&mut self, source: usize, old_total: f64) -> Result<()> {
        let sr = self.semiring;
        let tree = self.as_join_tree();
        let visited: Vec<usize> = tree.bfs_from(source).iter().map(|&(n, _)| n).collect();
        for (node, parent) in tree.bfs_from(source) {
            if let Some(p) = parent {
                self.tables[node] = mpf_algebra::ops::update_semijoin(
                    &mut ExecContext::new(sr),
                    &self.tables[node],
                    &self.tables[p],
                )?;
            }
        }
        // Tables in *other* components carry the old global total as a
        // factor; rescale them so Definition 5 keeps holding.
        let new_total = self.table_total(source)?;
        if visited.len() < self.tables.len() && new_total != old_total {
            let ratio = sr.div(new_total, old_total);
            for i in 0..self.tables.len() {
                if !visited.contains(&i) {
                    crate::bp::scale(sr, &mut self.tables[i], ratio);
                }
            }
        }
        Ok(())
    }

    /// Expected workload cost `C(S) + E[cost(Q(q, S))]` of Section 6, with
    /// per-query cost modeled as the rows of the cached table that answers
    /// it (a scan + group-by is linear in that size).
    pub fn expected_cost(&self, workload: &[WorkloadQuery]) -> f64 {
        let c_s = self.total_cached_rows() as f64;
        let e_cost: f64 = workload
            .iter()
            .map(|q| {
                let per = self
                    .best_table_for(&[q.var])
                    .map(|i| self.tables[i].len() as f64)
                    .unwrap_or(f64::INFINITY);
                q.probability * per
            })
            .sum();
        c_s + e_cost
    }

    /// View the producer edges as a [`JoinTree`] over the cached tables.
    pub fn as_join_tree(&self) -> JoinTree {
        JoinTree {
            n: self.tables.len(),
            edges: self.edges.clone(),
        }
    }

    /// Verify that the cache tree satisfies the running-intersection
    /// property over the cached table schemas (the Theorem 10 structure).
    pub fn verify_tree_rip(&self) -> bool {
        let sets: Vec<BTreeSet<VarId>> = self
            .tables
            .iter()
            .map(|t| t.schema().iter().collect())
            .collect();
        self.as_join_tree().verify_rip(&sets)
    }

    fn components(&self) -> Vec<Vec<usize>> {
        self.as_join_tree().components()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bp::satisfies_invariant;
    use mpf_semiring::approx_eq;
    use mpf_storage::{Catalog, Schema};

    /// The paper's running-example shape: a chain of 5 relations
    /// contracts(pid,sid) — location(pid,wid) — warehouses(wid,cid) —
    /// ctdeals(cid,tid) — transporters(tid), at toy scale.
    fn supply_chain(cat: &mut Catalog) -> Vec<FunctionalRelation> {
        let pid = cat.add_var("pid", 3).unwrap();
        let sid = cat.add_var("sid", 2).unwrap();
        let wid = cat.add_var("wid", 3).unwrap();
        let cid = cat.add_var("cid", 2).unwrap();
        let tid = cat.add_var("tid", 2).unwrap();
        let mk = |name: &str, vars: Vec<VarId>, salt: u32| {
            FunctionalRelation::complete(name, Schema::new(vars).unwrap(), cat, move |row| {
                ((row.iter().sum::<u32>() + salt) % 4 + 1) as f64 / 2.0
            })
        };
        vec![
            mk("contracts", vec![pid, sid], 0),
            mk("location", vec![pid, wid], 1),
            mk("warehouses", vec![wid, cid], 2),
            mk("ctdeals", vec![cid, tid], 3),
            mk("transporters", vec![tid], 4),
        ]
    }

    #[test]
    fn cache_satisfies_definition_5() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let cache = VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None).unwrap();
        assert!(satisfies_invariant(SemiringKind::SumProduct, &refs, cache.tables()).unwrap());
        assert!(cache.verify_tree_rip());
    }

    #[test]
    fn paper_order_yields_three_main_tables() {
        // Figure 5's order tid, pid, cid (then sid, wid) gives cached tables
        // covering (cid,tid), (sid,pid,wid), (wid,cid) — the paper's
        // t3, t1, t2.
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let tid = cat.var("tid").unwrap();
        let pid = cat.var("pid").unwrap();
        let cid = cat.var("cid").unwrap();
        let cache =
            VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, Some(&[tid, pid, cid])).unwrap();
        let schemas: Vec<BTreeSet<VarId>> = cache
            .tables()
            .iter()
            .map(|t| t.schema().iter().collect())
            .collect();
        let sid = cat.var("sid").unwrap();
        let wid = cat.var("wid").unwrap();
        assert!(schemas.contains(&[cid, tid].into_iter().collect()));
        assert!(schemas.contains(&[sid, pid, wid].into_iter().collect()));
        assert!(schemas.contains(&[wid, cid].into_iter().collect()));
        assert!(satisfies_invariant(SemiringKind::SumProduct, &refs, cache.tables()).unwrap());
    }

    #[test]
    fn answers_match_view_for_every_variable() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let cache = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
        // Full view for reference.
        let mut cx = ExecContext::new(sr);
        let mut view = rels[0].clone();
        for r in &rels[1..] {
            view = mpf_algebra::ops::product_join(&mut cx, &view, r).unwrap();
        }
        for name in ["pid", "sid", "wid", "cid", "tid"] {
            let v = cat.var(name).unwrap();
            let want = mpf_algebra::ops::group_by(&mut cx, &view, &[v]).unwrap();
            let got = cache.answer(v).unwrap();
            assert!(want.function_eq(&got), "cache answer diverges on {name}");
        }
    }

    #[test]
    fn evidence_protocol_matches_conditioned_view() {
        // The paper's example: `select wid, agg(inv) ... where tid = 1`.
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let cache = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
        let tid = cat.var("tid").unwrap();
        let conditioned = cache.with_evidence(tid, 1).unwrap();

        let mut cx = ExecContext::new(sr);
        let mut view = rels[0].clone();
        for r in &rels[1..] {
            view = mpf_algebra::ops::product_join(&mut cx, &view, r).unwrap();
        }
        let view = mpf_algebra::ops::select_eq(&mut cx, &view, &[(tid, 1)]).unwrap();
        for name in ["pid", "sid", "wid", "cid"] {
            let v = cat.var(name).unwrap();
            let want = mpf_algebra::ops::group_by(&mut cx, &view, &[v]).unwrap();
            let got = conditioned.answer(v).unwrap();
            assert!(
                want.function_eq(&got),
                "conditioned cache diverges on {name}"
            );
        }
    }

    #[test]
    fn min_aggregate_workload() {
        // The same machinery in the min-sum semiring: `min` queries with
        // additive combination.
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::MinSum;
        let cache = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();
        assert!(satisfies_invariant(sr, &refs, cache.tables()).unwrap());
    }

    #[test]
    fn uncovered_variable_is_an_error() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let ghost = cat.add_var("ghost", 7).unwrap();
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let cache = VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None).unwrap();
        assert!(matches!(
            cache.answer(ghost),
            Err(InferError::VariableNotCovered(_))
        ));
    }

    #[test]
    fn expected_cost_weights_queries() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let cache = VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None).unwrap();
        let tid = cat.var("tid").unwrap();
        let pid = cat.var("pid").unwrap();
        let wl = vec![
            WorkloadQuery {
                var: tid,
                predicates: vec![],
                probability: 0.5,
            },
            WorkloadQuery {
                var: pid,
                predicates: vec![],
                probability: 0.5,
            },
        ];
        let cost = cache.expected_cost(&wl);
        assert!(cost > cache.total_cached_rows() as f64);
        assert!(cost.is_finite());
    }

    #[test]
    fn incremental_update_matches_rebuild() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let cache = VeCache::build_in(&mut ExecContext::new(sr), &refs, None).unwrap();

        // Change one row of `warehouses` and maintain incrementally.
        let wh_idx = rels.iter().position(|r| r.name() == "warehouses").unwrap();
        let row = rels[wh_idx].row(0).to_vec();
        let old = rels[wh_idx].measure(0);
        let new = old * 3.5;
        let maintained = cache
            .update_measure("warehouses", &row, old, new)
            .unwrap();

        // Reference: rebuild from the modified base relations.
        let mut modified = rels.clone();
        modified[wh_idx].set_measure(0, new);
        let mod_refs: Vec<&FunctionalRelation> = modified.iter().collect();
        let rebuilt = VeCache::build_in(&mut ExecContext::new(sr), &mod_refs, None).unwrap();

        for name in ["pid", "sid", "wid", "cid", "tid"] {
            let v = cat.var(name).unwrap();
            let want = rebuilt.answer(v).unwrap();
            let got = maintained.answer(v).unwrap();
            assert!(want.function_eq_in(&got, sr), "maintenance diverged on {name}");
        }
        // And the maintained cache satisfies Definition 5 directly.
        assert!(satisfies_invariant(sr, &mod_refs, maintained.tables()).unwrap());
    }

    #[test]
    fn incremental_update_rejects_support_changes() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let cache = VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None).unwrap();
        assert!(matches!(
            cache.update_measure("warehouses", &[0, 0], 0.0, 1.0),
            Err(InferError::InvalidUpdate(_))
        ));
        assert!(matches!(
            cache.update_measure("missing", &[0, 0], 1.0, 2.0),
            Err(InferError::InvalidUpdate(_))
        ));
    }

    #[test]
    fn workload_order_selection_picks_cheaper_cache() {
        let mut cat = Catalog::new();
        let rels = supply_chain(&mut cat);
        let refs: Vec<&FunctionalRelation> = rels.iter().collect();
        let sr = SemiringKind::SumProduct;
        let tid = cat.var("tid").unwrap();
        let wl = vec![WorkloadQuery {
            var: tid,
            predicates: vec![],
            probability: 1.0,
        }];
        // Candidate orders: the default min-fill vs an adversarial order
        // that eliminates tid first (forcing its info into a larger table).
        let graph = VariableGraph::from_schemas(refs.iter().map(|r| r.schema()));
        let order_a = min_fill_order(&graph);
        let mut order_b = vec![tid];
        order_b.extend(graph.vertices().into_iter().filter(|&v| v != tid));
        let chosen = VeCache::build_for_workload(
            sr,
            &refs,
            &wl,
            &[order_a.clone(), order_b.clone()],
        )
        .unwrap();
        let a = VeCache::build_in(&mut ExecContext::new(sr), &refs, Some(&order_a)).unwrap();
        let b = VeCache::build_in(&mut ExecContext::new(sr), &refs, Some(&order_b)).unwrap();
        let best = a.expected_cost(&wl).min(b.expected_cost(&wl));
        assert!((chosen.expected_cost(&wl) - best).abs() < 1e-9);
        // And the chosen cache still answers correctly.
        assert!(satisfies_invariant(sr, &refs, chosen.tables()).unwrap());
    }

    #[test]
    fn disconnected_view_scaling() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 2).unwrap();
        let b = cat.add_var("b", 2).unwrap();
        let c = cat.add_var("c", 2).unwrap();
        let d = cat.add_var("d", 2).unwrap();
        let r1 = FunctionalRelation::complete(
            "r1",
            Schema::new(vec![a, b]).unwrap(),
            &cat,
            |row| (row[0] + row[1] + 1) as f64,
        );
        let r2 = FunctionalRelation::complete(
            "r2",
            Schema::new(vec![c, d]).unwrap(),
            &cat,
            |row| (2 * row[0] + row[1] + 1) as f64,
        );
        let refs = vec![&r1, &r2];
        let cache = VeCache::build_in(&mut ExecContext::new(SemiringKind::SumProduct), &refs, None).unwrap();
        assert!(
            satisfies_invariant(SemiringKind::SumProduct, &refs, cache.tables()).unwrap()
        );
        // Sanity: marginal on `a` includes r2's total as a factor.
        let view_total_r2: f64 = r2.measures().iter().sum();
        let ans = cache.answer(a).unwrap();
        let direct = mpf_algebra::ops::group_by(
            &mut ExecContext::new(SemiringKind::SumProduct),
            &r1,
            &[a],
        )
        .unwrap();
        for (row, m) in ans.rows() {
            let want = direct.lookup(row).unwrap() * view_total_r2;
            assert!(approx_eq(m, want));
        }
    }
}
