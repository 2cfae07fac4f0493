//! Untraced runs measure in [`PARTS`] processes, one after another.
//!
//! On the reference host a process kept one speed for its whole life.
//! Two processes started seconds apart, with the same seed and the same
//! ops, differed by up to a quarter, while the windows within one process
//! agreed within a few percent. So an untraced run starts this binary
//! [`PARTS`] times. Each part measures `--seconds / PARTS` with its own
//! set-ups and its own stretch of the seed's op stream
//! ([`crate::PART_STRIDE`]). The run pools the parts: each end-to-end
//! metric is the median over the windows (the set-ups, for `setup_s`) of
//! all parts, the same median a single process takes over its own.
//!
//! A part prints, before its result line, one `series <name> <unit>
//! <values>…` line per end-to-end metric, one `checked <shape>` line per
//! query shape it checked, and one `part <correct> <attempted> <failed>`
//! line. The parent hands the shapes already checked to the next part on
//! its standard input, one per line, so across the run each distinct
//! shape is checked once.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, Stdio};

use crate::stats::{median, Metrics};
use crate::{Config, Outcome, END_TO_END, SETUPS};

/// Processes per untraced run.
pub const PARTS: usize = 3;

/// The settings of part `i` of the untraced run `cfg`.
pub fn part_config(cfg: &Config, i: usize) -> Config {
    let mut part = cfg.clone();
    part.seconds = cfg.seconds / PARTS as f64;
    part.setups = SETUPS.div_ceil(PARTS);
    part.part = i;
    part
}

/// The lines a part prints for its parent, before its result line.
pub fn part_lines(out: &Outcome) -> Vec<String> {
    let mut lines: Vec<String> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<String> = out
                .metrics
                .values(name)
                .iter()
                .map(f64::to_string)
                .collect();
            format!("series {name} {unit} {}", values.join(" "))
        })
        .collect();
    lines.extend(out.checked.iter().map(|s| format!("checked {s}")));
    lines.push(format!(
        "part {} {} {}",
        u8::from(out.correct()),
        out.gate.attempted,
        out.gate.failed
    ));
    lines
}

/// What the parts of one run printed.
#[derive(Debug, Default)]
pub struct Pooled {
    pub parts: usize,
    pub all_correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Values per end-to-end metric, over every part.
    pub values: BTreeMap<String, Vec<f64>>,
    /// The parts' run records, as printed.
    pub records: Vec<String>,
    /// Query shapes the parts checked.
    pub checked: Vec<String>,
}

impl Pooled {
    /// Take in one part's standard output.
    pub fn absorb(&mut self, stdout: &str) -> Result<(), String> {
        let mut saw_part = false;
        for line in stdout.lines() {
            let mut f = line.split_whitespace();
            match f.next() {
                Some("series") => {
                    let name = f.next().ok_or("series without a name")?;
                    let _unit = f.next().ok_or("series without a unit")?;
                    let vals = f
                        .map(str::parse::<f64>)
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("series {name}: {e}"))?;
                    self.values
                        .entry(name.to_string())
                        .or_default()
                        .extend(vals);
                }
                Some("part") => {
                    let nums: Vec<u64> = f
                        .map(str::parse::<u64>)
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("part line: {e}"))?;
                    let [correct, attempted, failed] = nums[..] else {
                        return Err(format!("part line: {line}"));
                    };
                    let first = self.parts == 0;
                    self.all_correct = (first || self.all_correct) && correct == 1;
                    self.attempted += attempted;
                    self.failed += failed;
                    self.parts += 1;
                    saw_part = true;
                }
                Some("checked") => {
                    let shape = line["checked".len()..].trim();
                    self.checked.push(shape.to_string());
                }
                _ if line.starts_with("{\"run_record\"") => self.records.push(line.to_string()),
                _ => {}
            }
        }
        if saw_part {
            Ok(())
        } else {
            Err("a part printed no result".into())
        }
    }

    /// The run's outcome: every end-to-end metric the median over all
    /// parts' values.
    pub fn outcome(&self) -> Outcome {
        let mut metrics = Metrics::default();
        for (name, unit) in END_TO_END {
            let vals = self.values.get(name).cloned().unwrap_or_default();
            metrics.set(name, median(&vals), unit);
        }
        let mut out = Outcome {
            metrics,
            reconciled: self.all_correct,
            ..Outcome::default()
        };
        out.gate.attempted = self.attempted;
        out.gate.failed = self.failed;
        out
    }
}

/// Run the untraced run `cfg` as [`PARTS`] child processes of this
/// binary, one after another, each waited for, and pool their output.
pub fn run(cfg: &Config) -> Result<Pooled, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut pooled = Pooled::default();
    for i in 0..PARTS {
        let part = part_config(cfg, i);
        let mut child = Command::new(&exe)
            .args([
                "--workload",
                &part.workload,
                "--seed",
                &part.seed.to_string(),
                "--seconds",
                &part.seconds.to_string(),
                "--trace",
                "0",
                "--part",
                &i.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("part {i}: {e}"))?;
        // The part reads all of its input before it prints anything.
        let shapes: String = pooled.checked.iter().map(|s| format!("{s}\n")).collect();
        let sent = child
            .stdin
            .take()
            .map(|mut stdin| stdin.write_all(shapes.as_bytes()));
        let out = child
            .wait_with_output()
            .map_err(|e| format!("part {i}: {e}"))?;
        if let Some(Err(e)) = sent {
            return Err(format!("part {i}: writing its input: {e}"));
        }
        pooled
            .absorb(&String::from_utf8_lossy(&out.stdout))
            .map_err(|e| format!("part {i} ({}): {e}", out.status))?;
    }
    Ok(pooled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_pool_into_medians() {
        let mut p = Pooled::default();
        p.absorb(
            "{\"run_record\": {}}\nseries read_p50_ms ms 1 2\nseries setup_s s 0.5\npart 1 10 0\n",
        )
        .unwrap();
        p.absorb(
            "series read_p50_ms ms 3 4 5\nseries setup_s s 0.7 0.9\nchecked cid, tid|where pid\npart 1 20 0\n",
        )
        .unwrap();
        assert_eq!(p.checked, vec!["cid, tid|where pid".to_string()]);
        let out = p.outcome();
        assert_eq!(out.metrics.get("read_p50_ms"), Some(3.0));
        assert_eq!(out.metrics.get("setup_s"), Some(0.7));
        assert_eq!((out.gate.attempted, out.gate.failed), (30, 0));
        assert!(out.correct());
        assert_eq!(p.records.len(), 1);
    }

    #[test]
    fn one_incorrect_part_makes_the_run_incorrect() {
        let mut p = Pooled::default();
        p.absorb("part 1 10 0\n").unwrap();
        p.absorb("part 0 10 0\n").unwrap();
        assert!(!p.outcome().correct());
        assert!(Pooled::default().absorb("no result\n").is_err());
    }
}
