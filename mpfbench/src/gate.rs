//! The correctness gate: every workload counts the operations it
//! attempted and the ones that failed — an engine error, a refused (shed)
//! or `ERR` reply, or an answer that disagrees with an independent path.
//! A failure is never skipped; any one of them makes the run incorrect.

use mpf_engine::{Database, Query, QueryRequest, Scenario};
use mpf_storage::{FunctionalRelation, Value};

/// Kinds of failed operation, each counted separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fail {
    /// The program returned an error (in process, or an `ERR` reply).
    Error,
    /// The server refused the request at admission.
    Shed,
    /// The answer disagreed with the independent path.
    Wrong,
    /// No reply arrived before the run ended.
    Missing,
}

#[derive(Debug, Default, Clone)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub errors: u64,
    pub shed: u64,
    pub wrong: u64,
    pub missing: u64,
    /// The first few failure messages, for stderr.
    pub notes: Vec<String>,
}

impl Gate {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, kind: Fail, note: impl Into<String>) {
        self.failed += 1;
        match kind {
            Fail::Error => self.errors += 1,
            Fail::Shed => self.shed += 1,
            Fail::Wrong => self.wrong += 1,
            Fail::Missing => self.missing += 1,
        }
        if self.notes.len() < 8 {
            self.notes.push(note.into());
        }
    }

    /// Failed operations over attempted ones.
    pub fn error_ratio(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Same function up to row order, column order and the crate-wide
/// floating-point tolerance (`FunctionalRelation::function_eq`).
pub fn same_function(a: &FunctionalRelation, b: &FunctionalRelation) -> bool {
    a.function_eq(b)
}

/// Bit-identical: the same rows in the same order, and every measure
/// equal in its `f64` bits.
pub fn same_bits(a: &FunctionalRelation, b: &FunctionalRelation) -> bool {
    a.len() == b.len()
        && a.rows()
            .zip(b.rows())
            .all(|((ra, ma), (rb, mb))| ra == rb && ma.to_bits() == mb.to_bits())
}

/// Check a what-if batch against sequential single-scenario runs of the
/// same query on `db`, bit for bit: `got[i]` is scenario `i`'s answer.
pub fn check_batch(
    db: &Database,
    q: &Query,
    scenarios: &[Scenario],
    got: &[FunctionalRelation],
) -> Result<(), String> {
    if got.len() != scenarios.len() {
        return Err(format!(
            "{} outcomes for {} scenarios",
            got.len(),
            scenarios.len()
        ));
    }
    for (sc, rel) in scenarios.iter().zip(got) {
        let want = db
            .run(QueryRequest::from(q.clone()).scenario(sc.clone()))
            .map_err(|e| format!("sequential scenario failed: {e}"))?;
        if !same_bits(rel, &want.relation) {
            return Err(format!(
                "scenario {} differs from its sequential run",
                sc.name()
            ));
        }
    }
    Ok(())
}

/// One `ROW` line of a reply: the values in column order, and the
/// measure. `ROW scenario=<name> ...` lines carry the scenario name.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    pub scenario: Option<String>,
    pub values: Vec<(String, Value)>,
    pub measure: f64,
}

/// Parse a `ROW [scenario=<s>] <var>=<v> ... m=<measure>` line.
pub fn parse_row(line: &str) -> Option<WireRow> {
    let mut parts = line.split_whitespace();
    if parts.next()? != "ROW" {
        return None;
    }
    let mut row = WireRow {
        scenario: None,
        values: Vec::new(),
        measure: f64::NAN,
    };
    for part in parts {
        let (k, v) = part.split_once('=')?;
        match k {
            "scenario" => row.scenario = Some(v.to_string()),
            "m" => row.measure = v.parse().ok()?,
            _ => row.values.push((k.to_string(), v.parse().ok()?)),
        }
    }
    Some(row)
}

/// Whether wire rows carry exactly `rel`'s rows, in order, with
/// bit-identical measures. Every measure prints in Rust's shortest
/// round-trip form, so parsing it back recovers the same bits.
pub fn wire_matches(rows: &[WireRow], rel: &FunctionalRelation, names: &[&str]) -> bool {
    rows.len() == rel.len()
        && rows.iter().zip(rel.rows()).all(|(w, (vals, m))| {
            w.measure.to_bits() == m.to_bits()
                && w.values.len() == vals.len()
                && w.values
                    .iter()
                    .zip(vals.iter().zip(names))
                    .all(|((wn, wv), (v, n))| wn == n && wv == v)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rows() {
        let r = parse_row("ROW scenario=s1 cid=3 tid=0 m=1.5").unwrap();
        assert_eq!(r.scenario.as_deref(), Some("s1"));
        assert_eq!(r.values, vec![("cid".into(), 3), ("tid".into(), 0)]);
        assert_eq!(r.measure, 1.5);
        assert!(parse_row("END").is_none());
        assert!(parse_row("ROW cid=x m=1").is_none());
    }
}
