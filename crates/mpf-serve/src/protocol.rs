//! The textual line protocol `mpf_serve` speaks.
//!
//! One request per line, one framed response per request. Requests:
//!
//! ```text
//! QUERY <tenant> <sql statement>
//! QUERY <tenant> <sql statement> SCENARIOS <n>
//! METRICS
//! PING
//! SHUTDOWN
//! ```
//!
//! The `SCENARIOS <n>` form is a multi-line request: exactly `n`
//! continuation lines follow, one scenario each —
//!
//! ```text
//! SCENARIO <name> [MEASURE <rel> <v1,v2,..> <measure>]
//!                 [MOVE <rel> <var> <from> <to>]
//!                 [EVIDENCE <var> <value>] ...
//! ```
//!
//! clauses repeat freely and compose in order (the engine's
//! [`mpf_engine::Scenario`] builder semantics). Malformed scenario lines
//! are typed `ERR kind=protocol` frames, never partial batches.
//!
//! Responses:
//!
//! * a query answer streams as `OK rows=<n> strategy=<name>`, then one
//!   `ROW <var>=<value> ... m=<measure>` line per answer row, then `END`;
//! * a scenario batch streams as `OK scenarios=<n> rows=<total>
//!   strategy=<name>`, then per-scenario `ROW scenario=<name>
//!   <var>=<value> ... m=<measure>` lines, then one summary line per
//!   scenario — `INVARIANT scenario=<name>` when the answer is
//!   bit-identical to the baseline, else `DIVERGENT scenario=<name>
//!   groups=<moved> max_shift=<shift>` — then `END`;
//! * a DDL statement answers `OK view=<name>` then `END`;
//! * `METRICS` answers `OK metrics` + one JSON line + `END`;
//! * `PING` answers `PONG`; `SHUTDOWN` answers `BYE` and starts a drain;
//! * every failure is a single typed line
//!   `ERR kind=<kind> retriable=<bool> backoff_ms=<n> msg="<text>"` —
//!   `retriable=true` with a non-zero backoff marks load sheds a client
//!   should retry after the hinted delay; `retriable=false` marks
//!   request defects retries cannot cure.

use mpf_algebra::{AlgebraError, ResourceKind};
use mpf_engine::{EngineError, Scenario};
use mpf_storage::Value;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one SQL statement for a tenant.
    Query {
        /// Tenant the statement is billed to.
        tenant: String,
        /// The SQL extension statement, verbatim.
        sql: String,
    },
    /// Run one SQL query under a batch of what-if scenarios; exactly
    /// `count` `SCENARIO` continuation lines follow this request line.
    ScenarioQuery {
        /// Tenant the batch is billed to (one admission grant covers
        /// the whole batch).
        tenant: String,
        /// The SQL extension statement, verbatim.
        sql: String,
        /// Number of `SCENARIO` continuation lines.
        count: usize,
    },
    /// Export the service metrics registry as JSON.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Stop accepting work, drain in-flight queries, exit.
    Shutdown,
}

/// Most scenarios a single `SCENARIOS <n>` request may carry — a
/// protocol-level sanity bound, far above any sensible batch but low
/// enough that a typo'd count cannot stall a connection slurping
/// continuation lines.
pub const MAX_WIRE_SCENARIOS: usize = 10_000;

impl Request {
    /// Parse one protocol line. Returns a typed protocol error string
    /// (already `ERR`-encoded) for malformed lines.
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("QUERY ") {
            let mut parts = rest.trim().splitn(2, char::is_whitespace);
            let tenant = parts.next().unwrap_or("").to_string();
            let mut sql = parts.next().unwrap_or("").trim().to_string();
            if tenant.is_empty() || sql.is_empty() {
                return Err(encode_err(
                    "protocol",
                    false,
                    0,
                    "QUERY needs a tenant and a statement: QUERY <tenant> <sql>",
                ));
            }
            // A trailing ` SCENARIOS <n>` suffix turns the line into the
            // multi-line batch form. `rsplit_once` keeps any `scenarios`
            // occurring inside the SQL text out of the suffix parse.
            if let Some((head, tail)) = sql.rsplit_once(" SCENARIOS ") {
                if let Ok(count) = tail.trim().parse::<usize>() {
                    if count > MAX_WIRE_SCENARIOS {
                        return Err(encode_err(
                            "protocol",
                            false,
                            0,
                            &format!(
                                "SCENARIOS count {count} exceeds the wire limit {MAX_WIRE_SCENARIOS}"
                            ),
                        ));
                    }
                    sql = head.trim().to_string();
                    if sql.is_empty() {
                        return Err(encode_err(
                            "protocol",
                            false,
                            0,
                            "QUERY needs a statement before the SCENARIOS suffix",
                        ));
                    }
                    return Ok(Request::ScenarioQuery { tenant, sql, count });
                }
            }
            return Ok(Request::Query { tenant, sql });
        }
        match line {
            "METRICS" => Ok(Request::Metrics),
            "PING" => Ok(Request::Ping),
            "SHUTDOWN" => Ok(Request::Shutdown),
            _ => Err(encode_err(
                "protocol",
                false,
                0,
                &format!("unrecognized request `{}`", first_word(line)),
            )),
        }
    }
}

fn first_word(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

/// Parse one `SCENARIO` continuation line into an engine [`Scenario`].
///
/// Grammar (tokens are whitespace-separated, clauses repeat freely):
///
/// ```text
/// SCENARIO <name> [MEASURE <rel> <v1,v2,..> <measure>]
///                 [MOVE <rel> <var> <from> <to>]
///                 [EVIDENCE <var> <value>] ...
/// ```
///
/// Any defect — a missing clause argument, a non-numeric value, an
/// unknown clause keyword — is a typed `ERR kind=protocol` string, so
/// malformed batches fail whole rather than executing partially.
pub fn parse_scenario_line(line: &str) -> Result<Scenario, String> {
    let bad = |msg: &str| encode_err("protocol", false, 0, msg);
    let mut toks = line.split_whitespace();
    if toks.next() != Some("SCENARIO") {
        return Err(bad(&format!(
            "expected a SCENARIO line, got `{}`",
            first_word(line)
        )));
    }
    let name = toks
        .next()
        .ok_or_else(|| bad("SCENARIO needs a name: SCENARIO <name> [clauses..]"))?;
    let mut sc = Scenario::named(name);
    while let Some(clause) = toks.next() {
        match clause {
            "MEASURE" => {
                let rel = toks
                    .next()
                    .ok_or_else(|| bad("MEASURE needs: MEASURE <rel> <v1,v2,..> <measure>"))?;
                let row_txt = toks
                    .next()
                    .ok_or_else(|| bad("MEASURE needs a row: MEASURE <rel> <v1,v2,..> <measure>"))?;
                let row: Vec<Value> = row_txt
                    .split(',')
                    .map(|v| v.trim().parse::<Value>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| {
                        bad(&format!("MEASURE row `{row_txt}` is not a comma list of values"))
                    })?;
                let m_txt = toks
                    .next()
                    .ok_or_else(|| bad("MEASURE needs a measure value"))?;
                let measure: f64 = m_txt
                    .parse()
                    .map_err(|_| bad(&format!("MEASURE value `{m_txt}` is not a number")))?;
                sc = sc.measure(rel, row, measure);
            }
            "MOVE" => {
                let rel = toks
                    .next()
                    .ok_or_else(|| bad("MOVE needs: MOVE <rel> <var> <from> <to>"))?
                    .to_string();
                let var = toks
                    .next()
                    .ok_or_else(|| bad("MOVE needs a variable: MOVE <rel> <var> <from> <to>"))?
                    .to_string();
                let from = parse_value(toks.next(), "MOVE <from>")?;
                let to = parse_value(toks.next(), "MOVE <to>")?;
                sc = sc.move_domain(rel, var, from, to);
            }
            "EVIDENCE" => {
                let var = toks
                    .next()
                    .ok_or_else(|| bad("EVIDENCE needs: EVIDENCE <var> <value>"))?
                    .to_string();
                let value = parse_value(toks.next(), "EVIDENCE <value>")?;
                sc = sc.evidence(var, value);
            }
            other => {
                return Err(bad(&format!(
                    "unknown scenario clause `{other}` (expected MEASURE, MOVE, or EVIDENCE)"
                )))
            }
        }
    }
    Ok(sc)
}

fn parse_value(tok: Option<&str>, what: &str) -> Result<Value, String> {
    let txt = tok.ok_or_else(|| encode_err("protocol", false, 0, &format!("{what} is missing")))?;
    txt.parse().map_err(|_| {
        encode_err(
            "protocol",
            false,
            0,
            &format!("{what} `{txt}` is not a domain value"),
        )
    })
}

/// Encode a typed error line. `msg` is quoted; inner quotes and
/// newlines are replaced so the frame stays one line.
pub fn encode_err(kind: &str, retriable: bool, backoff_ms: u64, msg: &str) -> String {
    let clean: String = msg
        .chars()
        .map(|c| match c {
            '"' => '\'',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect();
    format!("ERR kind={kind} retriable={retriable} backoff_ms={backoff_ms} msg=\"{clean}\"")
}

/// Map an engine failure to its wire `kind` and retriability.
///
/// Budget trips name the budget that tripped (the enriched
/// [`AlgebraError::ResourceExhausted`] payload carries limit and
/// consumption in the message); only the wall-clock deadline is marked
/// retriable — under lighter load the same query can finish, whereas a
/// row or cell trip recurs deterministically under the same grant.
pub fn classify(err: &EngineError) -> (&'static str, bool) {
    // The view-cache serving path surfaces algebra failures wrapped in
    // the inference layer; unwrap so a budget trip or injected fault
    // classifies identically however the query was answered.
    let algebra = match err {
        EngineError::Algebra(e) => Some(e),
        EngineError::Infer(mpf_engine::InferError::Algebra(e)) => Some(e),
        _ => None,
    };
    match algebra {
        Some(AlgebraError::ResourceExhausted { resource, .. }) => match resource {
            ResourceKind::OutputRows => ("budget-rows", false),
            ResourceKind::TotalCells => ("budget-cells", false),
            ResourceKind::WallClock => ("budget-deadline", true),
            ResourceKind::Threads => ("budget-threads", true),
        },
        Some(AlgebraError::Cancelled) => ("cancelled", false),
        Some(AlgebraError::FaultInjected(_)) => ("fault", false),
        Some(_) => ("execution", false),
        None => match err {
            EngineError::Parse { .. } => ("parse", false),
            EngineError::UnknownView(_) | EngineError::UnknownVariable(_) => {
                ("unknown-name", false)
            }
            EngineError::Config(_) => ("config", false),
            _ => ("engine", false),
        },
    }
}

/// Encode an engine failure as one `ERR` line.
pub fn encode_engine_err(err: &EngineError) -> String {
    let (kind, retriable) = classify(err);
    let backoff = if retriable { 50 } else { 0 };
    encode_err(kind, retriable, backoff, &err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_forms() {
        assert_eq!(
            Request::parse("QUERY acme select cid from invest"),
            Ok(Request::Query {
                tenant: "acme".into(),
                sql: "select cid from invest".into()
            })
        );
        assert_eq!(Request::parse(" METRICS "), Ok(Request::Metrics));
        assert_eq!(Request::parse("PING"), Ok(Request::Ping));
        assert_eq!(Request::parse("SHUTDOWN"), Ok(Request::Shutdown));
    }

    #[test]
    fn parses_the_scenario_query_form() {
        assert_eq!(
            Request::parse("QUERY acme select cid from invest SCENARIOS 3"),
            Ok(Request::ScenarioQuery {
                tenant: "acme".into(),
                sql: "select cid from invest".into(),
                count: 3
            })
        );
        // A non-numeric tail is not the suffix form: the text stays SQL.
        assert_eq!(
            Request::parse("QUERY acme select x from SCENARIOS abc"),
            Ok(Request::Query {
                tenant: "acme".into(),
                sql: "select x from SCENARIOS abc".into()
            })
        );
        let e = Request::parse("QUERY acme select cid from invest SCENARIOS 99999999").unwrap_err();
        assert!(e.contains("exceeds the wire limit"), "{e}");
    }

    #[test]
    fn parses_scenario_lines() {
        let sc = parse_scenario_line(
            "SCENARIO shock MEASURE contracts 0,1 9.5 MOVE ctdeals tid 1 2 EVIDENCE wid 3",
        )
        .unwrap();
        assert_eq!(
            sc,
            Scenario::named("shock")
                .measure("contracts", vec![0, 1], 9.5)
                .move_domain("ctdeals", "tid", 1, 2)
                .evidence("wid", 3)
        );

        for bad in [
            "ROW x=1",
            "SCENARIO",
            "SCENARIO s MEASURE contracts",
            "SCENARIO s MEASURE contracts 0,x 1.0",
            "SCENARIO s MEASURE contracts 0,1 pi",
            "SCENARIO s MOVE ctdeals tid 1",
            "SCENARIO s EVIDENCE wid many",
            "SCENARIO s FROBNICATE",
        ] {
            let e = parse_scenario_line(bad).unwrap_err();
            assert!(e.starts_with("ERR kind=protocol retriable=false"), "{bad}: {e}");
        }
    }

    #[test]
    fn malformed_lines_get_typed_protocol_errors() {
        let e = Request::parse("QUERY acme").unwrap_err();
        assert!(e.starts_with("ERR kind=protocol retriable=false"), "{e}");
        let e = Request::parse("FETCH x").unwrap_err();
        assert!(e.contains("unrecognized request `FETCH`"), "{e}");
    }

    #[test]
    fn err_encoding_stays_one_line_and_quotes() {
        let e = encode_err("queue-full", true, 75, "say \"hi\"\nnow");
        assert_eq!(
            e,
            "ERR kind=queue-full retriable=true backoff_ms=75 msg=\"say 'hi' now\""
        );
    }

    #[test]
    fn budget_trips_classify_by_resource() {
        let cells = EngineError::Algebra(AlgebraError::ResourceExhausted {
            resource: ResourceKind::TotalCells,
            limit: 10,
            observed: 12,
        });
        assert_eq!(classify(&cells), ("budget-cells", false));
        let wall = EngineError::Algebra(AlgebraError::ResourceExhausted {
            resource: ResourceKind::WallClock,
            limit: 5,
            observed: 6,
        });
        assert_eq!(classify(&wall), ("budget-deadline", true));
        let line = encode_engine_err(&cells);
        assert!(
            line.contains("limit 10 cells, consumed 12 cells"),
            "enriched payload reaches the wire: {line}"
        );
    }
}
