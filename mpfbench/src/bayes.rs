//! `bayes_rw`: a 30-node random Bayesian network loaded as the product
//! view of its CPTs, with the engine view cache on. One closed-loop
//! client sends posterior reads with strategy `VE+(degree)` (every third
//! one carries one or two evidence pins) and point writes that
//! re-estimate one CPT entry through `Database::update_measure`, plus a
//! few evidence batches through `Database::run_scenarios`.
//!
//! Reads are served by the view cache and the inference layer; writes
//! patch every resident tree, so a cache change that helps reads but
//! costs writes shows here.
//!
//! The network's structure is `BayesNet::random(30, 2, 2,
//! STRUCTURE_SEED)` for every run: how big the cached elimination trees
//! are depends on the structure (about 0.2 to 15 MB across structure
//! seeds), which would swamp every latency. The run seed redraws every
//! CPT entry and the op stream.

use std::time::Instant;

use mpf_algebra::ExecContext;
use mpf_engine::parser::{parse, Statement};
use mpf_engine::{
    Database, Heuristic, Query, QueryRequest, Scenario, ScenarioSet, Strategy, TraceLevel,
};
use mpf_infer::{BayesNet, BayesNetBuilder, VeCache};
use mpf_semiring::{Combine, SemiringKind};
use mpf_storage::{FunctionalRelation, Value, VarId};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::gate::{check_batch, same_function, Fail, Gate};
use crate::spans::Tracer;
use crate::stats::{median, ratio, Metrics};
use crate::{fill_ledger, ms, rng, Config, InProcess, Outcome, RunRecord, SetupTimes, PART_STRIDE};

pub const NODES: usize = 30;
pub const STRUCTURE_SEED: u64 = 3;
/// View-cache byte budget, about 25 times the base tree. Patches grow
/// the tree until it outgrows the budget (see README.md); a larger budget
/// makes that cycle so long that a run sees too few of them to repeat.
pub const CACHE_BYTES: u64 = 256 << 10;
/// Ops per block: reads and writes 95:5, as the workload is specified,
/// plus one evidence batch so that `batch_*` is measured (an assumption:
/// the smallest whole number per block).
pub const READS_PER_BLOCK: usize = 95;
pub const WRITES_PER_BLOCK: usize = 5;
pub const BATCHES_PER_BLOCK: usize = 1;
pub const BLOCK: usize = READS_PER_BLOCK + WRITES_PER_BLOCK + BATCHES_PER_BLOCK;
/// Evidence scenarios per batch. `run_scenarios` spawns its workers for
/// every batch; with this much work per batch, waiting for them on a
/// loaded host moves the batch tail by a fifth to a half, not twofold.
pub const BATCH_SCENARIOS: usize = 10;
/// Blocks per latency window (see `Latencies`).
pub const WINDOW_BLOCKS: usize = 50;
/// Every this many reads is checked against the twin database.
pub const CHECK_EVERY: usize = 10;
/// Blocks whose reads run before timing starts, so the cache fills first.
pub const WARMUP_BLOCKS: usize = 3;
/// Op stream of the warm-up, distinct from the measured stream 0.
const WARMUP_STREAM: u64 = 0x7000;

/// The network: fixed structure, CPT entries drawn from `seed`.
pub fn network(seed: u64) -> BayesNet {
    let shape = BayesNet::random(NODES, 2, 2, STRUCTURE_SEED);
    let mut r = rng(seed, 0xb0);
    let mut b = BayesNetBuilder::new();
    let cat = shape.catalog();
    let ids: Vec<VarId> = shape
        .nodes()
        .iter()
        .map(|&v| {
            b.variable(cat.name(v), cat.domain_size(v))
                .expect("fresh variable")
        })
        .collect();
    let index = |v: VarId| shape.nodes().iter().position(|&n| n == v).expect("node");
    for (i, &node) in shape.nodes().iter().enumerate() {
        let parents: Vec<VarId> = shape.parents()[i].iter().map(|&p| ids[index(p)]).collect();
        let dom = cat.domain_size(node);
        let rows: u64 = shape.parents()[i]
            .iter()
            .map(|&p| cat.domain_size(p))
            .product();
        let mut probs = Vec::new();
        for _ in 0..rows {
            let raw: Vec<f64> = (0..dom).map(|_| r.random_range(0.05..1.0)).collect();
            let z: f64 = raw.iter().sum();
            probs.extend(raw.into_iter().map(|p| p / z));
        }
        b.cpt(ids[i], &parents, probs).expect("CPT shape");
    }
    b.build().expect("acyclic network")
}

/// The network as a database: one relation per CPT and the `joint`
/// product view over all of them.
pub fn bayes_db(bn: &BayesNet, cache_bytes: u64) -> Database {
    let db = Database::from_parts(bn.catalog().clone(), Default::default())
        .with_cache_bytes(cache_bytes);
    for cpt in bn.cpts() {
        db.insert_relation(cpt.clone()).expect("fresh CPT");
    }
    let names: Vec<&str> = bn.cpts().iter().map(|c| c.name()).collect();
    db.create_view("joint", &names, Combine::Product)
        .expect("joint view");
    db
}

#[derive(Debug, Clone)]
enum Op {
    Read {
        sql: String,
    },
    Write {
        cpt: usize,
        row: usize,
        factor: f64,
    },
    Batch {
        target: usize,
        pins: Vec<(usize, Value)>,
    },
}

/// A posterior read of `target`, with `pins` evidence pins on other
/// nodes drawn from `r`.
fn read_op(target: usize, pins: usize, r: &mut impl Rng) -> Op {
    let mut vars = Vec::new();
    while vars.len() < pins {
        let v = r.random_range(0..NODES);
        if v != target && !vars.contains(&v) {
            vars.push(v);
        }
    }
    let mut sql = format!("select n{target}, sum(p) from joint");
    for (i, v) in vars.iter().enumerate() {
        let value: u32 = r.random_range(0..2);
        let word = if i == 0 { "where" } else { "and" };
        sql.push_str(&format!(" {word} n{v} = {value}"));
    }
    sql.push_str(&format!(" group by n{target} using veplus(degree)"));
    Op::Read { sql }
}

/// Block `block` of the op stream named `stream`. The mix is the same in
/// every block: read targets run through seeded permutations of the
/// nodes, every third read carries evidence (one pin, then two,
/// alternately), and writes visit the CPTs in a seeded order that
/// continues across blocks. The seed draws everything else.
fn block_ops(seed: u64, stream: u64, block: usize, cpts: &[usize]) -> Vec<Op> {
    let mut r = rng(seed, stream + block as u64);
    let mut ops: Vec<Op> = Vec::with_capacity(BLOCK);
    let mut targets: Vec<usize> = Vec::new();
    for k in 0..READS_PER_BLOCK {
        if targets.is_empty() {
            targets = (0..NODES).collect();
            targets.shuffle(&mut r);
        }
        let target = targets.pop().expect("refilled above");
        let pins = if k % 3 == 0 { 1 + (k / 3) % 2 } else { 0 };
        ops.push(read_op(target, pins, &mut r));
    }
    for j in 0..WRITES_PER_BLOCK {
        // Write `n` of the stream visits the CPTs in the `n / len`-th
        // seeded order, so every CPT is written equally often and the
        // order differs from one pass to the next.
        let n = block * WRITES_PER_BLOCK + j;
        let mut order: Vec<usize> = (0..cpts.len()).collect();
        order.shuffle(&mut rng(
            seed,
            stream ^ (0xc0de_0000 + (n / cpts.len()) as u64),
        ));
        let cpt = order[n % cpts.len()];
        ops.push(Op::Write {
            cpt,
            row: r.random_range(0..cpts[cpt]),
            factor: r.random_range(0.8..1.25),
        });
    }
    for _ in 0..BATCHES_PER_BLOCK {
        let target = r.random_range(0..NODES);
        let pins = (0..BATCH_SCENARIOS)
            .map(|_| loop {
                let v = r.random_range(0..NODES);
                if v != target {
                    break (v, r.random_range(0..2));
                }
            })
            .collect();
        ops.push(Op::Batch { target, pins });
    }
    ops.shuffle(&mut r);
    ops
}

struct World {
    bn: BayesNet,
    db: Database,
    /// Same data, cache detached, same writes replayed: the check path.
    twin: Database,
    cpt_names: Vec<String>,
    cpt_rows: Vec<usize>,
}

fn setup(seed: u64) -> World {
    let bn = network(seed);
    let db = bayes_db(&bn, CACHE_BYTES);
    let twin = bayes_db(&bn, 0);
    let cpt_names = bn.cpts().iter().map(|c| c.name().to_string()).collect();
    let cpt_rows = bn.cpts().iter().map(|c| c.len()).collect();
    let w = World {
        bn,
        db,
        twin,
        cpt_names,
        cpt_rows,
    };
    // Warm-up: the reads of a separate op stream, untimed and unchecked,
    // so the cache holds its working set before measurement starts.
    // Writes are left out: they would start the write-path sawtooth at a
    // seed-dependent point of set-up.
    let (mut gate, mut off, mut ph) = (Gate::default(), Tracer::new(false), Phase::default());
    for block in 0..WARMUP_BLOCKS {
        let mut ops = block_ops(seed, WARMUP_STREAM, block, &w.cpt_rows);
        ops.retain(|op| matches!(op, Op::Read { .. }));
        run_block(&w, ops, &mut gate, &mut off, false, &mut ph);
    }
    w
}

#[derive(Default)]
struct Phase {
    io: InProcess,
    reads: u64,
    writes: u64,
    blocks: usize,
    entries_max: usize,
    bytes_max: u64,
}

fn posterior_query(target: usize) -> Query {
    Query::on("joint")
        .group_by([format!("n{target}")])
        .strategy(Strategy::VePlus(Heuristic::Degree))
}

/// Check a read against the twin database (cache detached).
pub fn check_read(twin: &Database, q: &Query, got: &FunctionalRelation) -> Result<(), String> {
    let want = twin
        .run(QueryRequest::from(q.clone()))
        .map_err(|e| format!("twin failed: {e}"))?;
    if same_function(got, &want.relation) {
        Ok(())
    } else {
        Err("read differs from the cache-detached twin".into())
    }
}

/// Run one block's ops, timing each into `ph`; with `check`, verify
/// sampled reads against the twin and every batch against sequential
/// runs.
fn run_block(
    w: &World,
    ops: Vec<Op>,
    gate: &mut Gate,
    tracer: &mut Tracer,
    check: bool,
    ph: &mut Phase,
) {
    let level = if tracer.on() {
        TraceLevel::Spans
    } else {
        TraceLevel::Off
    };
    let vc = w.db.view_cache().cloned().expect("cache attached");
    for op in ops {
        ph.io.lat.rss.tick();
        ph.io.req += 1;
        let req = ph.io.req;
        gate.attempt();
        match op {
            Op::Read { sql } => {
                ph.reads += 1;
                let t0 = Instant::now();
                let q = match parse(&sql) {
                    Ok(Statement::Select(q)) => q,
                    other => {
                        gate.fail(Fail::Error, format!("{sql}: {other:?}"));
                        continue;
                    }
                };
                let t1 = Instant::now();
                let ans = w.db.run(QueryRequest::from(q.clone()).trace(level));
                let t2 = Instant::now();
                ph.io.lat.read.push(ms(t2 - t0));
                ph.io.lat.wall_s += (t2 - t0).as_secs_f64();
                ph.io.parse_us.push(ms(t1 - t0) * 1e3);
                let root = tracer.add(None, req, "read", "other", t0, t2);
                tracer.add(root, req, "parse", "parser", t0, t1);
                match ans {
                    Ok(a) => {
                        if a.cache.is_some() {
                            tracer.add(root, req, "run", "viewcache", t1, t2);
                        } else {
                            let run = tracer.add(root, req, "run", "engine", t1, t2);
                            tracer.graft_answer(run, req, &a);
                        }
                        ph.io.tally.add(&a);
                        if check && ph.reads.is_multiple_of(CHECK_EVERY as u64) {
                            let checked = ph
                                .io
                                .lat
                                .rss
                                .excluding(|| check_read(&w.twin, &q, &a.relation));
                            if let Err(e) = checked {
                                gate.fail(Fail::Wrong, format!("{sql}: {e}"));
                            }
                        }
                    }
                    Err(e) => gate.fail(Fail::Error, format!("{sql}: {e}")),
                }
            }
            Op::Write { cpt, row, factor } => {
                ph.writes += 1;
                let name = &w.cpt_names[cpt];
                let rel = w.db.relation(name).expect("CPT");
                let key = rel.row(row).to_vec();
                let new = rel.measure(row) * factor;
                drop(rel);
                let t0 = Instant::now();
                let res = w.db.update_measure(name, &key, new);
                let t1 = Instant::now();
                ph.io.lat.write.push(ms(t1 - t0));
                ph.io.lat.wall_s += (t1 - t0).as_secs_f64();
                let root = tracer.add(None, req, "write", "other", t0, t1);
                tracer.add(root, req, "update_measure", "viewcache", t0, t1);
                if let Err(e) = res {
                    gate.fail(Fail::Error, format!("write {name}: {e}"));
                }
                if let Err(e) = w.twin.update_measure(name, &key, new) {
                    gate.fail(Fail::Error, format!("twin write {name}: {e}"));
                }
            }
            Op::Batch { target, pins } => {
                let q = posterior_query(target);
                let scenarios: Vec<Scenario> = pins
                    .iter()
                    .enumerate()
                    .map(|(i, &(v, value))| {
                        Scenario::named(format!("e{i}")).evidence(format!("n{v}"), value)
                    })
                    .collect();
                let set: ScenarioSet = scenarios.iter().cloned().collect();
                let t0 = Instant::now();
                let res =
                    w.db.run_scenarios(QueryRequest::from(q.clone()).scenario_set(set));
                let t1 = Instant::now();
                ph.io.lat.batch.push(ms(t1 - t0));
                ph.io.lat.wall_s += (t1 - t0).as_secs_f64();
                let root = tracer.add(None, req, "batch", "other", t0, t1);
                tracer.add(root, req, "run_scenarios", "scenario", t0, t1);
                match res {
                    Ok(report) => {
                        ph.io.note_batch(&report);
                        if check {
                            let got: Vec<_> = report
                                .outcomes
                                .iter()
                                .map(|o| o.answer.relation.clone())
                                .collect();
                            let checked = ph
                                .io
                                .lat
                                .rss
                                .excluding(|| check_batch(&w.db, &q, &scenarios, &got));
                            if let Err(e) = checked {
                                gate.fail(Fail::Wrong, e);
                            }
                        }
                    }
                    Err(e) => gate.fail(Fail::Error, format!("batch: {e}")),
                }
            }
        }
        ph.entries_max = ph.entries_max.max(vc.len());
        ph.bytes_max = ph.bytes_max.max(vc.bytes_resident());
    }
    ph.blocks += 1;
    if ph.blocks.is_multiple_of(WINDOW_BLOCKS) {
        ph.io.lat.cut();
    }
}

/// Time the inference layer directly on the network: tree build,
/// evidence derivation, and the Section 6 update patch (median of a few
/// calls each, milliseconds).
fn infer_direct(bn: &BayesNet, seed: u64, m: &mut Metrics) {
    let cpts: Vec<&FunctionalRelation> = bn.cpts().iter().collect();
    let mut build = Vec::new();
    let mut tree = None;
    for _ in 0..3 {
        let t = Instant::now();
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        tree = VeCache::build_in(&mut cx, &cpts, None).ok();
        build.push(ms(t.elapsed()));
    }
    let Some(tree) = tree else { return };
    let mut r = rng(seed, 0x1f);
    let mut derive = Vec::new();
    let mut patch = Vec::new();
    for _ in 0..9 {
        let v = bn.nodes()[r.random_range(0..NODES)];
        let t = Instant::now();
        let _ = tree.with_evidence_set(&[(v, r.random_range(0..2))]);
        derive.push(ms(t.elapsed()));
        let cpt = cpts[r.random_range(0..cpts.len())];
        let i = r.random_range(0..cpt.len());
        let old = cpt.measure(i);
        let t = Instant::now();
        let _ = tree.update_measure(cpt.name(), cpt.row(i), old, old * 1.1);
        patch.push(ms(t.elapsed()));
    }
    m.set("infer.tree_build_ms", median(&build), "ms");
    m.set("infer.derive_ms", median(&derive), "ms");
    m.set("infer.patch_ms", median(&patch), "ms");
}

pub fn run(cfg: &Config) -> Outcome {
    let mut record = RunRecord::new(cfg, 1.0);
    record.busy_threads = record.engine_threads;
    let mut make = || setup(cfg.seed);
    let (w, setups) = SetupTimes::first(cfg.setups, &mut make);
    let mut gate = Gate::default();
    let mut metrics = Metrics::default();
    let mut reconciled = true;
    let vc = w.db.view_cache().cloned().expect("cache attached");
    if !cfg.trace {
        let (mut off, mut ph) = (Tracer::new(false), Phase::default());
        for block in cfg.part * PART_STRIDE.. {
            if ph.io.lat.wall_s >= cfg.seconds {
                break;
            }
            run_block(
                &w,
                block_ops(cfg.seed, 0, block, &w.cpt_rows),
                &mut gate,
                &mut off,
                true,
                &mut ph,
            );
        }
        ph.io.lat.fill(&mut metrics);
    } else {
        // Blocks alternate between untraced and traced, so both see the
        // same cache dynamics; the cache counters are read around the
        // traced blocks only.
        let (mut off, mut tracer) = (Tracer::new(false), Tracer::new(true));
        let (mut base, mut ph) = (Phase::default(), Phase::default());
        let mut d = [0.0; COUNTERS.len()];
        for block in 0.. {
            if base.io.lat.wall_s >= cfg.seconds / 2.0 {
                break;
            }
            let ops = block_ops(cfg.seed, 0, block, &w.cpt_rows);
            if block % 2 == 0 {
                run_block(&w, ops, &mut gate, &mut off, true, &mut base);
            } else {
                let before: Vec<u64> = COUNTERS.iter().map(|c| vc.counter(c)).collect();
                run_block(&w, ops, &mut gate, &mut tracer, true, &mut ph);
                for (i, c) in COUNTERS.iter().enumerate() {
                    d[i] += (vc.counter(c) - before[i]) as f64;
                }
            }
        }
        let [hits, misses, uncovered, derived, patched, invalidations, evictions] = d;
        ph.io.lat.fill(&mut metrics);
        ph.io.fill_traced(&base.io.lat, &mut metrics);
        metrics.set(
            "cache.hit_ratio",
            ratio(hits, hits + misses + uncovered),
            "ratio",
        );
        metrics.set(
            "cache.derived_per_read",
            ratio(derived, ph.reads as f64),
            "ratio",
        );
        metrics.set(
            "cache.patched_per_write",
            ratio(patched, ph.writes as f64),
            "ratio",
        );
        metrics.set(
            "cache.invalidations_per_write",
            ratio(invalidations, ph.writes as f64),
            "ratio",
        );
        metrics.set("cache.evictions", evictions, "count");
        metrics.set("cache.entries_max", ph.entries_max as f64, "count");
        metrics.set(
            "cache.bytes_resident_mb",
            ph.bytes_max as f64 / (1 << 20) as f64,
            "MB",
        );
        reconciled = fill_ledger(
            &tracer.ledger(),
            ph.io.tally.queries,
            ph.io.lat.total_ms(),
            &mut metrics,
        );
        infer_direct(&w.bn, cfg.seed, &mut metrics);
        let path = cfg
            .out_dir
            .join(format!("spans-bayes_rw-seed{}.jsonl", cfg.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    drop((vc, w));
    setups.finish(&mut make, &mut metrics);
    metrics.set("error_ratio", gate.error_ratio(), "ratio");
    Outcome {
        gate,
        metrics,
        record,
        reconciled,
        checked: Vec::new(),
    }
}

const COUNTERS: [&str; 7] = [
    "hits",
    "misses",
    "uncovered",
    "derived",
    "patched",
    "invalidations",
    "evictions",
];
