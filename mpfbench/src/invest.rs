//! `invest_adhoc`: the paper's Section 3 supply chain at scale 0.1, in
//! process, view cache detached. One closed-loop client runs seeded
//! ad-hoc `invest` queries (strategy `Auto`) plus contract price writes
//! and what-if batches. Execute does most of the work: the
//! `contracts ⋈ location` join builds a 100 000-row intermediate.
//!
//! Ops come in rounds, in a seeded order. A round holds every group-by
//! shape on one or two of {pid, sid, wid, cid, tid} three times: plain,
//! with an equality filter, and with a `having` predicate. It also holds
//! [`BATCHES_PER_ROUND`] what-if batches, a quarter as many as reads, and
//! [`WRITES_PER_ROUND`] price writes. Every round has the same mix, and
//! the filtered variable and the batches' group-by rotate from round to
//! round, so runs that measure a different number of rounds still
//! compare; the seed draws the filter values, `having` bounds, write
//! targets and shocks. A run measures whole rounds until `--seconds` of
//! op time has passed.

use std::collections::HashSet;
use std::time::Instant;

use mpf_algebra::{RelationProvider, RelationStore};
use mpf_datagen::supply_chain::RELATION_NAMES;
use mpf_datagen::{SupplyChain, SupplyChainConfig};
use mpf_engine::parser::{parse, Statement};
use mpf_engine::{
    Database, Heuristic, Query, QueryRequest, Scenario, ScenarioSet, Strategy, TraceLevel,
};
use mpf_storage::FunctionalRelation;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::gate::{check_batch, same_function, Fail, Gate};
use crate::spans::Tracer;
use crate::stats::Metrics;
use crate::{fill_ledger, ms, rng, Config, InProcess, Outcome, RunRecord, SetupTimes, PART_STRIDE};

pub const DEFAULT_SCALE: f64 = 0.1;
pub const VARS: [&str; 5] = ["pid", "sid", "wid", "cid", "tid"];
/// Reads per round: every shape, plain, filtered and with `having`.
pub const READS_PER_ROUND: usize = 45;
/// What-if batches per round: reads and batches 4:1, the mix the
/// `serve_whatif` workload is specified with.
pub const BATCHES_PER_ROUND: usize = READS_PER_ROUND / 4;
/// Price writes per round. The workload is specified as reads only; the
/// writes are there so that `write_*` is measured. The count is an
/// assumption: the fewest tried that gave `write_p99_ms` a steady value.
/// A few writes per round are slow, and a p99 jumps between the fast and
/// slow modes until they are well under 1% (see README.md).
pub const WRITES_PER_ROUND: usize = 800;
/// Group-by variables the batches rotate over.
pub const BATCH_GROUPS: [&str; 3] = ["wid", "cid", "tid"];
/// Scenarios per in-process what-if batch.
pub const BATCH_SCENARIOS: usize = 2;

/// The view definition, as the paper writes it.
pub const INVEST_DDL: &str = "create mpfview invest as (select pid, sid, wid, cid, tid, \
     measure = (* c.price, l.quantity, w.overhead, ct.discount, t.overhead) \
     from contracts c, location l, warehouses w, ctdeals ct, transporters t \
     where c.pid = l.pid and l.wid = w.wid and w.cid = ct.cid and ct.tid = t.tid)";

/// The supply chain at `scale` with the `invest` view and the view cache
/// detached. Which rows exist comes from the generator's default seed, so
/// every run joins the same fan-outs; `seed` redraws every measure (each
/// scaled by a factor in [0.5, 1.5)). Across generator seeds the join
/// sizes, and with them every latency, move by up to a third.
pub fn supply_chain_db(seed: u64, scale: f64) -> Database {
    let sc = SupplyChain::generate(SupplyChainConfig::at_scale(scale));
    let mut r = rng(seed, 0x5c);
    let mut store = RelationStore::default();
    for name in RELATION_NAMES {
        let rel = sc.store.relation_of(name).expect("generated relation");
        let mut out = FunctionalRelation::new(name, rel.schema().clone());
        for (row, m) in rel.rows() {
            out.push_row(row, m * r.random_range(0.5..1.5))
                .expect("same schema");
        }
        store.insert(out);
    }
    let db = Database::from_parts(sc.catalog, store).with_cache_bytes(0);
    db.run_sql(INVEST_DDL).expect("invest view");
    db
}

/// Every group-by shape on one or two of [`VARS`].
pub fn shapes() -> Vec<Vec<&'static str>> {
    let mut out: Vec<Vec<&str>> = VARS.iter().map(|v| vec![*v]).collect();
    for (i, a) in VARS.iter().enumerate() {
        for b in &VARS[i + 1..] {
            out.push(vec![*a, *b]);
        }
    }
    out
}

/// One ad-hoc read: its SQL text and the key that identifies its shape
/// for the once-per-shape check.
#[derive(Debug, Clone)]
pub struct Read {
    pub sql: String,
    pub shape: String,
}

/// Build a read over `group` in variant `variant` (0 plain, 1 equality
/// filter on `VARS[filter]`, 2 `having`).
pub fn read_sql(
    group: &[&str],
    variant: usize,
    filter: usize,
    domains: &[u64],
    r: &mut impl Rng,
) -> Read {
    let g = group.join(", ");
    match variant % 3 {
        0 => Read {
            sql: format!("select {g}, sum(inv) from invest group by {g}"),
            shape: format!("{g}|plain"),
        },
        1 => {
            let fi = filter % VARS.len();
            let value = r.random_range(0..domains[fi]);
            Read {
                sql: format!(
                    "select {g}, sum(inv) from invest where {} = {value} group by {g}",
                    VARS[fi]
                ),
                shape: format!("{g}|where {}", VARS[fi]),
            }
        }
        _ => {
            let bound = 10f64.powf(r.random_range(2.0..8.0)).round();
            Read {
                sql: format!("select {g}, sum(inv) from invest group by {g} having inv > {bound}"),
                shape: format!("{g}|having"),
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Read(Read),
    Write {
        row: usize,
        factor: f64,
    },
    /// A what-if batch: one scenario per shock of a relation's row.
    Batch {
        group: &'static str,
        shocks: Vec<(&'static str, usize)>,
    },
}

/// The ops of round `round`, from the run seed alone.
fn round_ops(seed: u64, round: usize, domains: &[u64], contracts: usize, small: usize) -> Vec<Op> {
    let mut r = rng(seed, 0x1000 + round as u64);
    let mut ops: Vec<Op> = Vec::new();
    for (i, g) in shapes().iter().enumerate() {
        for variant in 0..3 {
            ops.push(Op::Read(read_sql(g, variant, i + round, domains, &mut r)));
        }
    }
    debug_assert_eq!(ops.len(), READS_PER_ROUND);
    for _ in 0..WRITES_PER_ROUND {
        ops.push(Op::Write {
            row: r.random_range(0..contracts),
            factor: r.random_range(0.9..1.1),
        });
    }
    for k in 0..BATCHES_PER_ROUND {
        let group = BATCH_GROUPS[(round * BATCHES_PER_ROUND + k) % BATCH_GROUPS.len()];
        // Each batch mixes the paper's two shock kinds: transporters (the
        // chain's tail, mostly shared trunk) and contracts (joins
        // `location` directly, mostly per-scenario work).
        let shocks = (0..BATCH_SCENARIOS)
            .map(|i| {
                if i % 2 == 0 {
                    ("transporters", r.random_range(0..small))
                } else {
                    ("contracts", r.random_range(0..contracts))
                }
            })
            .collect();
        ops.push(Op::Batch { group, shocks });
    }
    ops.shuffle(&mut r);
    ops
}

fn parse_select(sql: &str) -> Result<Query, String> {
    match parse(sql) {
        Ok(Statement::Select(q)) => Ok(q),
        Ok(_) => Err(format!("not a select: {sql}")),
        Err(e) => Err(format!("{e}: {sql}")),
    }
}

/// Check a read's answer against `VE+(degree)` on the same snapshot.
pub fn check_read(
    db: &Database,
    q: &Query,
    got: &mpf_storage::FunctionalRelation,
) -> Result<(), String> {
    let want = db
        .run(QueryRequest::from(q.clone()).strategy(Strategy::VePlus(Heuristic::Degree)))
        .map_err(|e| format!("VE+ reference failed: {e}"))?;
    if same_function(got, &want.relation) {
        Ok(())
    } else {
        Err(format!(
            "answer differs from VE+(degree): {} vs {} rows",
            got.len(),
            want.relation.len()
        ))
    }
}

type Phase = InProcess;

/// The ops of every round of a run on `db`.
struct Rounds {
    seed: u64,
    domains: Vec<u64>,
    contracts: usize,
    transporters: usize,
}

impl Rounds {
    fn new(db: &Database, seed: u64) -> Rounds {
        Rounds {
            seed,
            domains: domains(db),
            contracts: db.relation("contracts").expect("contracts").len(),
            transporters: db.relation("transporters").expect("transporters").len(),
        }
    }

    fn ops(&self, round: usize) -> Vec<Op> {
        round_ops(
            self.seed,
            round,
            &self.domains,
            self.contracts,
            self.transporters,
        )
    }
}

/// Run one round's ops, timing each into `ph` and checking its answer.
fn run_round(
    db: &Database,
    ops: Vec<Op>,
    gate: &mut Gate,
    checked: &mut HashSet<String>,
    tracer: &mut Tracer,
    ph: &mut Phase,
) {
    let level = if tracer.on() {
        TraceLevel::Spans
    } else {
        TraceLevel::Off
    };
    for op in ops {
        ph.lat.rss.tick();
        ph.req += 1;
        let req = ph.req;
        gate.attempt();
        match op {
            Op::Read(read) => {
                let t0 = Instant::now();
                let q = parse_select(&read.sql);
                let t1 = Instant::now();
                let q = match q {
                    Ok(q) => q,
                    Err(e) => {
                        gate.fail(Fail::Error, e);
                        continue;
                    }
                };
                let ans = db.run(QueryRequest::from(q.clone()).trace(level));
                let t2 = Instant::now();
                ph.lat.read.push(ms(t2 - t0));
                ph.lat.wall_s += (t2 - t0).as_secs_f64();
                ph.parse_us.push(ms(t1 - t0) * 1e3);
                let root = tracer.add(None, req, "read", "other", t0, t2);
                tracer.add(root, req, "parse", "parser", t0, t1);
                let run = tracer.add(root, req, "run", "engine", t1, t2);
                match ans {
                    Ok(a) => {
                        tracer.graft_answer(run, req, &a);
                        ph.tally.add(&a);
                        if checked.insert(read.shape.clone()) {
                            let checked = ph.lat.rss.excluding(|| check_read(db, &q, &a.relation));
                            if let Err(e) = checked {
                                gate.fail(Fail::Wrong, format!("{}: {e}", read.sql));
                            }
                        }
                    }
                    Err(e) => gate.fail(Fail::Error, format!("{}: {e}", read.sql)),
                }
            }
            Op::Write { row, factor } => {
                let rel = db.relation("contracts").expect("contracts");
                let key = rel.row(row).to_vec();
                let new = rel.measure(row) * factor;
                drop(rel);
                let t0 = Instant::now();
                let res = db.update_measure("contracts", &key, new);
                let t1 = Instant::now();
                ph.lat.write.push(ms(t1 - t0));
                ph.lat.wall_s += (t1 - t0).as_secs_f64();
                let root = tracer.add(None, req, "write", "other", t0, t1);
                tracer.add(root, req, "update_measure", "engine", t0, t1);
                match res {
                    Ok(_) => {
                        let now = db.relation("contracts").and_then(|r| r.lookup(&key));
                        if now.map(f64::to_bits) != Some(new.to_bits()) {
                            gate.fail(Fail::Wrong, format!("write of {key:?} not visible"));
                        }
                    }
                    Err(e) => gate.fail(Fail::Error, format!("write: {e}")),
                }
            }
            Op::Batch { group, shocks } => {
                let scenarios: Vec<Scenario> = shocks
                    .iter()
                    .enumerate()
                    .map(|(i, &(relation, r))| {
                        let rel = db.relation(relation).expect("shock relation");
                        let factor = 1.0 + (1 + i) as f64 / 20.0;
                        Scenario::named(format!("s{i}")).measure(
                            relation,
                            rel.row(r).to_vec(),
                            rel.measure(r) * factor,
                        )
                    })
                    .collect();
                let q = Query::on("invest").group_by([group]);
                let set: ScenarioSet = scenarios.iter().cloned().collect();
                let t0 = Instant::now();
                let res = db.run_scenarios(QueryRequest::from(q.clone()).scenario_set(set));
                let t1 = Instant::now();
                ph.lat.batch.push(ms(t1 - t0));
                ph.lat.wall_s += (t1 - t0).as_secs_f64();
                let root = tracer.add(None, req, "batch", "other", t0, t1);
                tracer.add(root, req, "run_scenarios", "scenario", t0, t1);
                match res {
                    Ok(report) => {
                        ph.note_batch(&report);
                        let got: Vec<_> = report
                            .outcomes
                            .iter()
                            .map(|o| o.answer.relation.clone())
                            .collect();
                        let checked = ph
                            .lat
                            .rss
                            .excluding(|| check_batch(db, &q, &scenarios, &got));
                        if let Err(e) = checked {
                            gate.fail(Fail::Wrong, e);
                        }
                    }
                    Err(e) => gate.fail(Fail::Error, format!("batch: {e}")),
                }
            }
        }
    }
    // Each round is one latency window (see `Latencies`).
    ph.lat.cut();
}

pub fn run(cfg: &Config) -> Outcome {
    let scale = cfg.scale.unwrap_or(DEFAULT_SCALE);
    let mut record = RunRecord::new(cfg, scale);
    record.busy_threads = record.engine_threads;
    let mut make = || {
        let db = supply_chain_db(cfg.seed, scale);
        // Warm-up: one plain query per single-variable shape.
        for v in VARS {
            let _ = db.run(Query::on("invest").group_by([v]));
        }
        db
    };
    let (db, setups) = SetupTimes::first(cfg.setups, &mut make);
    let mut gate = Gate::default();
    let mut checked: HashSet<String> = cfg.checked.iter().cloned().collect();
    let mut metrics = Metrics::default();
    let mut reconciled = true;
    if !cfg.trace {
        let rounds = Rounds::new(&db, cfg.seed);
        let mut off = Tracer::new(false);
        let mut ph = Phase::default();
        for round in cfg.part * PART_STRIDE.. {
            if ph.lat.wall_s >= cfg.seconds {
                break;
            }
            run_round(
                &db,
                rounds.ops(round),
                &mut gate,
                &mut checked,
                &mut off,
                &mut ph,
            );
        }
        ph.lat.fill(&mut metrics);
    } else {
        // Each round runs twice, untraced and then traced, so the
        // overhead compares the same ops.
        let rounds = Rounds::new(&db, cfg.seed);
        let mut off = Tracer::new(false);
        let mut tracer = Tracer::new(true);
        let (mut base, mut ph) = (Phase::default(), Phase::default());
        for round in 0.. {
            if base.lat.wall_s >= cfg.seconds / 2.0 {
                break;
            }
            run_round(
                &db,
                rounds.ops(round),
                &mut gate,
                &mut checked,
                &mut off,
                &mut base,
            );
            run_round(
                &db,
                rounds.ops(round),
                &mut gate,
                &mut checked,
                &mut tracer,
                &mut ph,
            );
        }
        ph.lat.fill(&mut metrics);
        ph.fill_traced(&base.lat, &mut metrics);
        reconciled = fill_ledger(
            &tracer.ledger(),
            ph.tally.queries,
            ph.lat.total_ms(),
            &mut metrics,
        );
        let path = cfg
            .out_dir
            .join(format!("spans-invest_adhoc-seed{}.jsonl", cfg.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    drop(db);
    setups.finish(&mut make, &mut metrics);
    metrics.set("error_ratio", gate.error_ratio(), "ratio");
    let mut new_shapes: Vec<String> = checked
        .into_iter()
        .filter(|s| !cfg.checked.contains(s))
        .collect();
    new_shapes.sort();
    Outcome {
        gate,
        metrics,
        record,
        reconciled,
        checked: new_shapes,
    }
}

/// Domain sizes of [`VARS`] in `db`, for building reads outside a run.
pub fn domains(db: &Database) -> Vec<u64> {
    VARS.iter()
        .map(|v| {
            db.catalog()
                .domain_size(db.catalog().var(v).expect("supply-chain var"))
        })
        .collect()
}
