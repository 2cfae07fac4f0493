//! The benchmark's own tests, at smoke size: every workload runs, passes
//! its gate and prints every metric `BENCHMARK.json` names with its unit;
//! a perturbed answer fails each gate; a shed and an `ERR` reply count as
//! failures.

use std::time::Duration;

use mpf_engine::parser::{parse, Statement};
use mpf_engine::{Query, QueryRequest, Scenario};
use mpf_serve::{ServeConfig, TenantLimits};
use mpf_storage::FunctionalRelation;
use mpfbench::gate::{check_batch, parse_row, Gate};
use mpfbench::serve::{self, Kind, ServeWorld};
use mpfbench::{bayes, invest, select_metrics, Config, END_TO_END};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// The file is flat and machine-written; a scan for `"name"`/`"unit"`
/// pairs inside the section's brackets is enough.
fn benchmark_json_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let open = start + text[start..].find('[').expect("section list");
    let close = open + text[open..].find(']').expect("section end");
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present");
        let rest = &obj[at + key.len() + 2..];
        let q1 = rest.find('"').expect("value quote") + 1;
        let q2 = q1 + rest[q1..].find('"').expect("value end");
        rest[q1..q2].to_string()
    };
    text[open + 1..close]
        .split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn smoke(workload: &str, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 7, 0.4, trace);
    cfg.setups = 1;
    cfg.scale = Some(0.01);
    cfg.out_dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    cfg
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let e2e = benchmark_json_metrics("end_to_end");
    let layer = benchmark_json_metrics("per_layer");
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(
        e2e.iter().map(|m| m.0.as_str()).collect::<Vec<_>>(),
        names,
        "BENCHMARK.json end_to_end matches the program"
    );
    for workload in mpfbench::WORKLOADS {
        for trace in [false, true] {
            let out = mpfbench::run(&smoke(workload, trace)).expect("known workload");
            assert!(
                out.correct(),
                "{workload} trace={trace}: {:?}",
                out.gate.notes
            );
            let printed = select_metrics(&out.metrics, trace);
            let line = mpfbench::Outcome {
                metrics: printed.clone(),
                ..Default::default()
            }
            .result_line();
            let want = if trace { &layer } else { &e2e };
            assert_eq!(printed.0.len(), want.len(), "{workload}: no extra metrics");
            for (name, unit) in want {
                let (value, got_unit) =
                    printed.0.get(name).copied().unwrap_or_else(|| {
                        panic!("{workload} trace={trace}: `{name}` not printed")
                    });
                assert_eq!(got_unit, unit, "{workload}: unit of `{name}`");
                assert!(value.is_finite(), "{workload}: `{name}` = {value}");
                if !trace {
                    assert!(value > 0.0, "{workload}: end-to-end `{name}` is 0");
                }
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload}: `{name}` in the result line"
                );
            }
        }
    }
}

/// A copy of `rel` with the first measure scaled by 1.001.
fn perturbed(rel: &FunctionalRelation) -> FunctionalRelation {
    let mut out = FunctionalRelation::new(rel.name().to_string(), rel.schema().clone());
    for (i, (row, m)) in rel.rows().enumerate() {
        let m = if i == 0 { m * 1.001 + 1.0 } else { m };
        out.push_row(row, m).expect("same schema");
    }
    out
}

fn select(sql: &str) -> Query {
    match parse(sql) {
        Ok(Statement::Select(q)) => q,
        other => panic!("{sql}: {other:?}"),
    }
}

#[test]
fn perturbed_invest_answers_fail_the_gate() {
    let db = invest::supply_chain_db(3, 0.01);
    let q = select("select wid, sum(inv) from invest group by wid");
    let ans = db.run(QueryRequest::from(q.clone())).expect("query");
    assert!(invest::check_read(&db, &q, &ans.relation).is_ok());
    assert!(invest::check_read(&db, &q, &perturbed(&ans.relation)).is_err());

    let c = db.relation("transporters").expect("transporters");
    let scenarios = vec![Scenario::named("s0").measure("transporters", c.row(0).to_vec(), 2.0)];
    drop(c);
    let q = Query::on("invest").group_by(["cid"]);
    let got = db
        .run(QueryRequest::from(q.clone()).scenario(scenarios[0].clone()))
        .expect("scenario")
        .relation;
    assert!(check_batch(&db, &q, &scenarios, std::slice::from_ref(&got)).is_ok());
    assert!(check_batch(&db, &q, &scenarios, &[perturbed(&got)]).is_err());
}

#[test]
fn perturbed_bayes_answers_fail_the_gate() {
    let bn = bayes::network(5);
    let db = bayes::bayes_db(&bn, bayes::CACHE_BYTES);
    let twin = bayes::bayes_db(&bn, 0);
    let q = select("select n4, sum(p) from joint where n2 = 1 group by n4 using veplus(degree)");
    // Twice, so the second answer comes from the cache.
    db.run(QueryRequest::from(q.clone())).expect("query");
    let ans = db.run(QueryRequest::from(q.clone())).expect("query");
    assert!(bayes::check_read(&twin, &q, &ans.relation).is_ok());
    assert!(bayes::check_read(&twin, &q, &perturbed(&ans.relation)).is_err());
}

#[test]
fn perturbed_wire_replies_fail_the_gate() {
    let w = ServeWorld::start(4, 0.01, ServeConfig::default()).expect("server");
    let mut checked = [false; 3];
    for i in 0..40 {
        let req = serve::request(4, i, &w.twin);
        let k = match req.kind {
            Kind::Read => 0,
            Kind::Batch => 1,
            Kind::Write => 2,
        };
        let lines: Vec<String> = req.text.lines().map(str::to_string).collect();
        let (reply, _) = w.server.handle_block(&lines);
        assert!(serve::check_reply(&w, &req, &reply).is_ok(), "{reply:?}");
        if k == 2 || checked[k] {
            continue;
        }
        // Change the first row's measure by one unit in the last place.
        let mut bad = reply.clone();
        let at = bad
            .iter()
            .position(|l| parse_row(l).is_some())
            .expect("a row");
        let m = parse_row(&bad[at]).expect("row").measure;
        let (head, _) = bad[at].rsplit_once(" m=").expect("measure field");
        bad[at] = format!("{head} m={}", f64::from_bits(m.to_bits() + 1));
        assert!(
            serve::check_reply(&w, &req, &bad).is_err(),
            "{:?}",
            req.kind
        );
        checked[k] = true;
    }
    assert_eq!(checked, [true, true, false], "saw a read and a batch");
}

#[test]
fn shed_and_err_replies_count_as_failures() {
    // A tenant with no in-flight share and no queue is shed at once.
    let config = ServeConfig {
        queue_depth: 0,
        queue_deadline: Duration::from_millis(1),
        ..ServeConfig::default()
    }
    .with_tenant(
        "starved",
        TenantLimits {
            max_inflight: 0,
            ..TenantLimits::default()
        },
    );
    let w = ServeWorld::start(4, 0.01, config).expect("server");
    let (shed, _) = w
        .server
        .handle_line("QUERY starved select cid, sum(inv) from invest group by cid");
    let (err, _) = w
        .server
        .handle_line("QUERY t0 select cid, sum(inv) from nowhere group by cid");
    let (ok, _) = w
        .server
        .handle_line("QUERY t0 select cid, sum(inv) from invest group by cid");
    assert_eq!(serve::classify(&shed), serve::Reply::Shed, "{shed:?}");
    assert_eq!(serve::classify(&err), serve::Reply::Err, "{err:?}");
    let mut gate = Gate::default();
    for reply in [&shed, &err, &ok] {
        gate.attempt();
        serve::count_reply(&mut gate, reply);
    }
    assert_eq!(
        (gate.attempted, gate.failed, gate.shed, gate.errors),
        (3, 2, 1, 1)
    );
    assert!((gate.error_ratio() - 2.0 / 3.0).abs() < 1e-12);
}
