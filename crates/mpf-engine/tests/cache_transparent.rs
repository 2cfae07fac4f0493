//! The transparent [`ViewCache`] behind `Database::run`: answers must be
//! bit-identical with the cache on or off at any thread count, warm
//! queries must actually be served from cache, uncovered queries must
//! fall through to normal execution, residency must respect the byte
//! budget under an eviction storm, and a `via_cache` request built under
//! the wrong semiring must fail with the typed mismatch error.
//!
//! Measures are dyadic rationals (`k / 8.0`), so sums and products are
//! exact in `f64` and "bit-identical" is a meaningful contract, not a
//! tolerance.

use std::sync::Arc;

use mpf_algebra::{ExecLimits, MetricsRegistry};
use mpf_datagen::{SupplyChain, SupplyChainConfig};
use mpf_engine::{Database, EngineError, Query, QueryRequest, ViewCache};
use mpf_semiring::{Aggregate, Combine, SemiringKind};
use mpf_storage::{FunctionalRelation, Schema, Value};

/// A three-relation chain view v = r1(a,b) ⋈ r2(b,c) ⋈ r3(c,d) with
/// dyadic measures.
fn chain_db() -> Database {
    let db = Database::new().with_cache_bytes(0); // callers opt in explicitly
    let a = db.add_var("a", 3).unwrap();
    let b = db.add_var("b", 4).unwrap();
    let c = db.add_var("c", 3).unwrap();
    let d = db.add_var("d", 2).unwrap();
    let catalog = db.catalog();
    let r1 = FunctionalRelation::complete("r1", Schema::new(vec![a, b]).unwrap(), &catalog, |r| {
        1.0 + (r[0] * 4 + r[1]) as f64 / 8.0
    });
    let r2 = FunctionalRelation::complete("r2", Schema::new(vec![b, c]).unwrap(), &catalog, |r| {
        0.5 + (r[0] * 3 + r[1]) as f64 / 8.0
    });
    let r3 = FunctionalRelation::complete("r3", Schema::new(vec![c, d]).unwrap(), &catalog, |r| {
        2.0 + (r[0] * 2 + r[1]) as f64 / 8.0
    });
    drop(catalog);
    db.insert_relation(r1).unwrap();
    db.insert_relation(r2).unwrap();
    db.insert_relation(r3).unwrap();
    db.create_view("v", &["r1", "r2", "r3"], Combine::Product)
        .unwrap();
    db
}

/// The paper's supply-chain `invest` view (five base relations, Section
/// 3) at a small scale, with its group-by and evidence query mix.
fn supply_chain_db() -> (Database, Vec<Query>) {
    let sc = SupplyChain::generate(SupplyChainConfig {
        scale: 0.004,
        ..Default::default()
    });
    let db = Database::from_parts(sc.catalog, sc.store).with_cache_bytes(0);
    db.run_sql(
        "create mpfview invest as (select pid, sid, wid, cid, tid, \
         measure = (* c.price, l.quantity, w.overhead, ct.discount, t.overhead) \
         from contracts c, location l, warehouses w, ctdeals ct, transporters t \
         where c.pid = l.pid and l.wid = w.wid and w.cid = ct.cid and ct.tid = t.tid)",
    )
    .unwrap();
    let workload = vec![
        Query::on("invest").group_by(["cid"]),
        Query::on("invest").group_by(["wid"]),
        Query::on("invest").group_by(["tid"]),
        Query::on("invest").group_by(["cid", "wid"]),
        Query::on("invest").group_by(["cid"]).filter("tid", 1),
    ];
    (db, workload)
}

/// Canonical bit-exact serialization: columns permuted into ascending
/// `VarId` order (a cache-served answer may emit the cached table's
/// variable order rather than the query's), rows sorted, measures as
/// raw bits.
fn canon(ans: &mpf_engine::Answer) -> Vec<(Vec<(u32, Value)>, u64)> {
    let vars = ans.relation.schema().vars().to_vec();
    let mut rows: Vec<(Vec<(u32, Value)>, u64)> = ans
        .relation
        .rows()
        .map(|(row, m)| {
            let mut cols: Vec<(u32, Value)> =
                vars.iter().zip(row).map(|(&v, &x)| (v.0, x)).collect();
            cols.sort();
            (cols, m.to_bits())
        })
        .collect();
    rows.sort();
    rows
}

/// The query mix exercised by the parity tests: different group-by sets
/// and an evidence (filter) query, all over the same view.
fn workload() -> Vec<Query> {
    vec![
        Query::on("v").group_by(["a"]),
        Query::on("v").group_by(["b"]),
        Query::on("v").group_by(["a", "b"]),
        Query::on("v").group_by(["c", "d"]),
        Query::on("v").group_by(["a"]).filter("b", 1),
        Query::on("v").group_by(["d"]).filter("b", 2),
        Query::on("v").group_by(["b"]).aggregate(Aggregate::Max),
    ]
}

/// The dyadic chain must be bit-identical with the cache on and off.
/// The supply chain's measures are not dyadic, so a cache-served answer
/// (a clique table marginalized in a different order) must be the same
/// function within rounding.
#[test]
fn answers_bit_identical_with_cache_on_and_off_at_any_thread_count() {
    type Workload = fn() -> (Database, Vec<Query>);
    let inputs: [(Workload, bool); 2] = [
        (|| (chain_db(), workload()), true),
        (supply_chain_db, false),
    ];
    for (input, exact) in inputs {
        for threads in [1usize, 4] {
            let limits = ExecLimits::none().with_threads(threads);
            let (cold, queries) = input();
            let cold = cold.with_limits(limits.clone());
            let warm = input().0.with_limits(limits).with_cache_bytes(64 << 20);
            // Three passes: pass 1 records demand, pass 2 builds + admits,
            // pass 3 serves from cache. Every answer on every pass must
            // match the uncached database's.
            for _pass in 0..3 {
                for q in &queries {
                    let a_cold = cold.run(q).unwrap();
                    let a_warm = warm.run(q).unwrap();
                    if exact {
                        assert_eq!(canon(&a_cold), canon(&a_warm), "query {q} diverged");
                    } else {
                        assert!(
                            a_cold.relation.function_eq(&a_warm.relation),
                            "query {q} diverged"
                        );
                    }
                }
            }
            let vc = warm.view_cache().unwrap();
            assert!(vc.counter("hits") > 0, "warm passes never hit the cache");
            assert!(vc.counter("admits") > 0, "demand never admitted a tree");
        }
    }
}

#[test]
fn warm_queries_are_served_from_cache_and_annotated() {
    let db = chain_db().with_cache_bytes(64 << 20);
    let q = Query::on("v").group_by(["a", "b"]);
    // Two misses to trigger the cost-based admission, then a hit.
    assert!(db.run(&q).unwrap().cache.is_none());
    assert!(db.run(&q).unwrap().cache.is_none());
    let served = db.run(&q).unwrap();
    let cs = served.cache.expect("third run should be cache-served");
    assert!(cs.rows > 0);
    assert!(!cs.clique.is_empty());

    // Evidence queries derive a conditioned tree from the resident base
    // tree and are served without ever paying a second recompute.
    let qf = Query::on("v").group_by(["a"]).filter("b", 1);
    let first = db.run(&qf).unwrap();
    assert!(first.cache.is_some(), "derivable evidence query missed");
    assert_eq!(db.view_cache().unwrap().counter("derived"), 1);

    // EXPLAIN ANALYZE names the serving clique.
    let text = db.explain_analyze(&q).unwrap();
    assert!(
        text.contains("-- served from cache: clique {"),
        "missing cache annotation:\n{text}"
    );
}

#[test]
fn uncovered_queries_fall_through_to_normal_execution() {
    let db = chain_db().with_cache_bytes(64 << 20);
    let warmup = Query::on("v").group_by(["b"]);
    for _ in 0..3 {
        db.run(&warmup).unwrap();
    }
    let vc = db.view_cache().unwrap();
    assert!(vc.counter("admits") > 0);
    // {a, d} spans the whole chain: no single clique of the elimination
    // tree covers it, so the hit falls through and still answers.
    let wide = Query::on("v").group_by(["a", "d"]);
    let ans = db.run(&wide).unwrap();
    assert!(ans.cache.is_none(), "uncoverable query claimed a cache serve");
    assert_eq!(ans.relation.len(), 3 * 2);
    assert!(vc.counter("uncovered") > 0);
}

#[test]
fn eviction_storm_stays_within_the_byte_budget() {
    // A budget big enough for roughly one tree: distinct views contend
    // and the cache must evict rather than grow.
    let db = chain_db().with_cache_bytes(0);
    for i in 0..8 {
        let name = format!("v{i}");
        db.create_view(&name, &["r1", "r2", "r3"], Combine::Product)
            .unwrap();
    }
    // Size one real tree to pick a budget that forces eviction.
    let probe = db.build_cache("v0", Aggregate::Sum, None).unwrap();
    let one_tree = probe.heap_bytes() as u64;
    let budget = one_tree + one_tree / 2;
    let db = db.with_cache_bytes(budget);
    let vc = Arc::clone(db.view_cache().unwrap());

    for round in 0..4 {
        for i in 0..8 {
            let q = Query::on(format!("v{i}")).group_by(["a"]);
            db.run(&q).unwrap();
            assert!(
                vc.bytes_resident() <= budget,
                "round {round}, view v{i}: resident {} > budget {budget}",
                vc.bytes_resident()
            );
        }
    }
    assert!(vc.counter("admits") > 0, "storm admitted nothing");
    // Eight trees contend for a 1.5-tree budget, so every admission
    // attempt beyond the resident one either evicted a victim or was
    // discarded by the utility comparison (which way depends on the
    // observed recompute timings, so only the sum is deterministic).
    assert!(
        vc.counter("evictions") + vc.counter("build_discarded") > 0,
        "storm neither evicted nor discarded under contention"
    );
    assert!(vc.bytes_resident() > 0);
    // The accounting is capacity-accurate: with at least one resident
    // tree of this shape, residency is at least one tree's heap bytes
    // and at most the budget.
    assert!(vc.bytes_resident() >= one_tree);
}

#[test]
fn zero_budget_disables_the_cache_entirely() {
    let db = chain_db().with_cache_bytes(0);
    assert!(db.view_cache().is_none());
    let q = Query::on("v").group_by(["a"]);
    for _ in 0..4 {
        assert!(db.run(&q).unwrap().cache.is_none());
    }
    // An explicitly shared zero-budget cache also never serves.
    let shared = Arc::new(ViewCache::new(0));
    let db = chain_db().with_view_cache(Arc::clone(&shared));
    for _ in 0..4 {
        assert!(db.run(&q).unwrap().cache.is_none());
    }
    assert!(!shared.enabled());
    assert_eq!(shared.counter("misses"), 0);
}

#[test]
fn via_cache_rejects_a_semiring_mismatch_with_a_typed_error() {
    let db = chain_db();
    // Built under SUM (sum-product with Combine::Product)...
    let cache = db.build_cache("v", Aggregate::Sum, None).unwrap();
    // ...queried under MAX (max-product): a typed error, not a wrong answer.
    let q = Query::on("v").group_by(["a"]).aggregate(Aggregate::Max);
    let err = db
        .run(QueryRequest::from(q).via_cache(&cache))
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::CacheSemiringMismatch {
            expected: SemiringKind::MaxProduct,
            cached: SemiringKind::SumProduct,
        }
    );
    // The matching aggregate still serves, and reports the clique.
    let ok = db
        .run(QueryRequest::from(Query::on("v").group_by(["a"])).via_cache(&cache))
        .unwrap();
    assert!(ok.cache.is_some());
}

#[test]
fn shared_cache_serves_across_databases_and_publishes_metrics() {
    let shared = Arc::new(ViewCache::new(64 << 20));
    let metrics = Arc::new(MetricsRegistry::new());
    let db1 = chain_db()
        .with_view_cache(Arc::clone(&shared))
        .with_metrics(Arc::clone(&metrics));
    // A clone shares the same snapshot chain, hence the same versions:
    // trees admitted through one handle serve the other.
    let db2 = db1.clone();
    let q = Query::on("v").group_by(["a", "b"]);
    db1.run(&q).unwrap();
    db1.run(&q).unwrap(); // second miss admits
    let served = db2.run(&q).unwrap();
    assert!(served.cache.is_some(), "clone missed the shared entry");
    let json = metrics.to_json();
    assert!(json.contains("engine.cache.hits"), "no cache metrics: {json}");
    assert!(json.contains("engine.cache.bytes_resident"));
}
