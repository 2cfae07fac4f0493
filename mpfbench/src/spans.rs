//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call into a layer, from outside the
//! program: the workload code timestamps the call, and the durations the
//! engine already reports (`Answer::{optimize_time, execute_time,
//! trace}`) are grafted underneath as child spans. Spans stay in memory
//! and are written out once, when the run ends.
//!
//! A span's self time is its duration minus the durations of its
//! children. Grafted children keep the durations the engine reported and
//! are laid out one after another from the parent's start; they are
//! never rescaled. Children may add up to more than their parent in one
//! case only: the two input subplans of a join (or a fused join→agg) run
//! concurrently when the engine has a spare worker. That excess is the
//! parallel overlap: the join's self time is taken as zero, and the
//! overlap is reported apart, so the layers add up to the end-to-end time
//! plus the overlap. Any other graft whose children overrun their parent
//! (beyond [`OVERRUN_TOLERANCE`]) counts as an overrun, and a run with an
//! overrun fails the ledger check (`crate::fill_ledger`).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use mpf_algebra::SpanKind;
use mpf_engine::{Answer, TraceSpan};

/// Layers a span can be charged to. `other` is the benchmark's own code
/// between layer calls (the self time of each request's root span).
pub const LAYERS: [&str; 9] = [
    "serve",
    "parser",
    "engine",
    "viewcache",
    "scenario",
    "optimizer",
    "algebra",
    "loadgen",
    "other",
];

/// Operator kinds the execute layer is split into (`SpanKind::name`),
/// plus `other` for interpreter time outside any operator span.
pub const OP_KINDS: [&str; 6] = ["scan", "select", "join", "group_by", "phase", "other"];

/// Most spans kept in memory; later spans are counted, not stored.
const MAX_SPANS: usize = 2_000_000;

/// Children may add up to this share of their parent's duration more
/// than the parent (plus [`OVERRUN_SLACK_US`]) before a graft counts as
/// an overrun: timestamps taken inside and outside a call differ by
/// clock reads.
pub const OVERRUN_TOLERANCE: f64 = 0.01;
pub const OVERRUN_SLACK_US: f64 = 5.0;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub req: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// How much its children's durations exceed its own because they ran
    /// concurrently (joins only), microseconds.
    pub overlap_us: f64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store; every method is a no-op when tracing is off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    dropped: u64,
    /// Grafts whose children overran their parent.
    overruns: u64,
}

/// Per-layer self time summed over a run.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Self time per layer, milliseconds.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Self time per operator kind inside the execute layer, milliseconds.
    pub op_ms: BTreeMap<&'static str, f64>,
    /// Sum of root span durations (the end-to-end time), milliseconds.
    pub total_ms: f64,
    /// Number of root spans (requests).
    pub roots: usize,
    /// Grafts whose children added up to more than their parent, other
    /// than a join's concurrent inputs.
    pub overruns: u64,
    /// Time a join's input subplans ran concurrently (their durations
    /// beyond the join's own), milliseconds.
    pub overlap_ms: f64,
    /// Spans not stored because the store was full.
    pub dropped: u64,
}

impl Ledger {
    /// `|Σ layer self − overlap − end_to_end_ms|` as a share of
    /// `end_to_end_ms`, the phase's end-to-end time summed from its
    /// latency samples, which are collected apart from the spans.
    pub fn reconcile_gap(&self, end_to_end_ms: f64) -> f64 {
        let sum: f64 = self.layer_ms.values().sum::<f64>() - self.overlap_ms;
        if end_to_end_ms == 0.0 {
            if sum == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (sum - end_to_end_ms).abs() / end_to_end_ms
        }
    }

    /// Add aggregate self time (layers whose spans live in another
    /// process, such as the server's engine time). Keeps the total.
    pub fn move_ms(&mut self, from: &'static str, to: &'static str, ms: f64) {
        *self.layer_ms.entry(from).or_default() -= ms;
        *self.layer_ms.entry(to).or_default() += ms;
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            overruns: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Record a complete span; returns its id (None when off or full).
    pub fn add_us(
        &mut self,
        parent: Option<usize>,
        req: u64,
        name: &'static str,
        layer: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            parent,
            req,
            name,
            layer,
            start_us,
            end_us: end_us.max(start_us),
            overlap_us: 0.0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn add(
        &mut self,
        parent: Option<usize>,
        req: u64,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let (s, e) = (self.us(start), self.us(end));
        self.add_us(parent, req, name, layer, s, e)
    }

    /// Graft an engine answer under the span `run` of `Database::run`:
    /// optimize time and execute time as children, and the answer's
    /// operator trace (if recorded) under execute.
    pub fn graft_answer(&mut self, run: Option<usize>, req: u64, ans: &Answer) {
        let Some(run) = run else { return };
        let start = self.spans[run].start_us;
        let opt = ans.optimize_time.as_secs_f64() * 1e6;
        let exec = ans.execute_time.as_secs_f64() * 1e6;
        self.note_overrun(run, opt + exec, false);
        self.add_us(Some(run), req, "optimize", "optimizer", start, start + opt);
        let es = start + opt;
        let exec_span = self.add_us(Some(run), req, "execute", "algebra", es, es + exec);
        if let (Some(exec_span), Some(trace)) = (exec_span, &ans.trace) {
            self.graft_ops(exec_span, req, &trace.roots, false);
        }
    }

    /// Graft operator spans `ops` under `parent`; `concurrent` when they
    /// are the inputs of a join, which may run at the same time.
    fn graft_ops(&mut self, parent: usize, req: u64, ops: &[TraceSpan], concurrent: bool) {
        let mut at = self.spans[parent].start_us;
        let total: f64 = ops.iter().map(|o| o.elapsed.as_secs_f64() * 1e6).sum();
        self.note_overrun(parent, total, concurrent);
        for op in ops {
            let d = op.elapsed.as_secs_f64() * 1e6;
            if let Some(id) = self.add_us(Some(parent), req, op.kind.name(), "algebra", at, at + d)
            {
                let join = op.kind == SpanKind::Join || op.fused;
                self.graft_ops(id, req, &op.children, join);
            }
            at += d;
        }
    }

    /// Note children totalling `children_us` under the span `parent`: the
    /// excess over the parent is overlap when the children may run
    /// concurrently, and otherwise an overrun if beyond the tolerance.
    fn note_overrun(&mut self, parent: usize, children_us: f64, concurrent: bool) {
        let room = self.spans[parent].dur();
        if concurrent {
            self.spans[parent].overlap_us = (children_us - room).max(0.0);
        } else if children_us > room * (1.0 + OVERRUN_TOLERANCE) + OVERRUN_SLACK_US {
            self.overruns += 1;
        }
    }

    /// Self time per layer and per operator kind.
    pub fn ledger(&self) -> Ledger {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur();
            }
        }
        let mut l = Ledger {
            overruns: self.overruns,
            dropped: self.dropped,
            ..Ledger::default()
        };
        for layer in LAYERS {
            l.layer_ms.insert(layer, 0.0);
        }
        for kind in OP_KINDS {
            l.op_ms.insert(kind, 0.0);
        }
        for (i, s) in self.spans.iter().enumerate() {
            let self_ms = (s.dur() - child_us[i] + s.overlap_us) / 1e3;
            l.overlap_ms += s.overlap_us / 1e3;
            *l.layer_ms.entry(s.layer).or_default() += self_ms;
            if s.layer == "algebra" {
                let kind = if s.name == "execute" { "other" } else { s.name };
                *l.op_ms.entry(kind).or_default() += self_ms;
            }
            if s.parent.is_none() {
                l.total_ms += s.dur() / 1e3;
                l.roots += 1;
            }
        }
        l
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"req\": {}, \"name\": \"{}\", \
                 \"layer\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.req, s.name, s.layer, s.start_us, s.end_us
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped\": {}}}", self.dropped)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_reconcile() {
        let mut t = Tracer::new(true);
        let root = t.add_us(None, 1, "op", "other", 0.0, 100.0);
        let run = t.add_us(root, 1, "run", "engine", 10.0, 90.0);
        t.add_us(run, 1, "optimize", "optimizer", 10.0, 30.0);
        t.add_us(run, 1, "execute", "algebra", 30.0, 80.0);
        let l = t.ledger();
        assert!((l.total_ms - 0.1).abs() < 1e-12);
        assert!((l.layer_ms["other"] - 0.02).abs() < 1e-12);
        assert!((l.layer_ms["engine"] - 0.01).abs() < 1e-12);
        assert!(l.reconcile_gap(0.1) < 1e-9);
        // A phase whose latency samples add up to more than its spans
        // (a request without a root span) does not reconcile.
        assert!(l.reconcile_gap(0.2) > 0.4);
    }

    #[test]
    fn overrunning_children_are_counted_not_rescaled() {
        let mut t = Tracer::new(true);
        let root = t.add_us(None, 1, "op", "other", 0.0, 100.0);
        let run = t.add_us(root, 1, "run", "engine", 0.0, 50.0);
        t.note_overrun(run.unwrap(), 80.0, false);
        t.add_us(run, 1, "execute", "algebra", 0.0, 80.0);
        let l = t.ledger();
        assert_eq!(l.overruns, 1);
        assert!((l.layer_ms["engine"] + 0.03).abs() < 1e-12);
    }

    #[test]
    fn concurrent_join_inputs_are_overlap() {
        let mut t = Tracer::new(true);
        let root = t.add_us(None, 1, "op", "other", 0.0, 100.0);
        let join = t.add_us(root, 1, "join", "algebra", 0.0, 100.0);
        t.note_overrun(join.unwrap(), 150.0, true);
        t.add_us(join, 1, "scan", "algebra", 0.0, 70.0);
        t.add_us(join, 1, "scan", "algebra", 70.0, 150.0);
        let l = t.ledger();
        assert_eq!(l.overruns, 0);
        assert!((l.overlap_ms - 0.05).abs() < 1e-12);
        assert!((l.layer_ms["algebra"] - 0.15).abs() < 1e-12);
        assert!(l.reconcile_gap(0.1) < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert!(t.add_us(None, 0, "op", "other", 0.0, 1.0).is_none());
        assert_eq!(t.ledger().roots, 0);
    }
}
