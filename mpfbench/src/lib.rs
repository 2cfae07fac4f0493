//! End-to-end and per-layer benchmark of the mpf workspace.
//!
//! Three workloads (see `README.md` in this directory) drive the
//! repository's crates through their public functions and time every
//! call from outside. A run prints a run record and, as its last line,
//! one JSON object: `correct`, `attempted`, `failed`, and the metrics —
//! the end-to-end set for an untraced run, the per-layer set for a
//! traced one. An untraced run is measured in parts, one process each
//! (see [`parts`]).

pub mod bayes;
pub mod gate;
pub mod invest;
pub mod parts;
pub mod serve;
pub mod spans;
pub mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mpf_engine::Answer;

use crate::gate::Gate;
use crate::spans::{Ledger, LAYERS, OP_KINDS};
use crate::stats::{ratio, Metrics, Samples};

/// Set-ups per run (see [`SetupTimes`]).
pub const SETUPS: usize = 31;

/// Op streams of part `i` start at `i * PART_STRIDE` (rounds, blocks or
/// requests), far beyond what one part runs. It is 2 more than a multiple
/// of 5, so `invest_adhoc`'s filtered variable, which rotates over the 5
/// variables from round to round, goes on rotating from part to part.
pub const PART_STRIDE: usize = 1_000_002;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["invest_adhoc", "bayes_rw", "serve_whatif"];

/// End-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run prints, with units. Metrics of a
/// layer a workload does not reach read 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("max_rate_rps", "1/s"),
        ("error_ratio", "ratio"),
        ("parse.us_per_stmt", "us"),
        ("optimize.ms_per_query", "ms"),
        ("optimize.share", "ratio"),
        ("plan.fallback_attempts", "count"),
        ("execute.ms_per_query", "ms"),
        ("execute.peak_rows", "rows"),
        ("execute.rows_processed_per_row_out", "ratio"),
        ("execute.fused_per_query", "count"),
        ("storage.converts_per_query", "count"),
        ("kernel.chunked_ops_per_query", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.derived_per_read", "ratio"),
        ("cache.patched_per_write", "ratio"),
        ("cache.invalidations_per_write", "ratio"),
        ("cache.evictions", "count"),
        ("cache.entries_max", "count"),
        ("cache.bytes_resident_mb", "MB"),
        ("infer.tree_build_ms", "ms"),
        ("infer.derive_ms", "ms"),
        ("infer.patch_ms", "ms"),
        ("scenario.trunk_hit_ratio", "ratio"),
        ("scenario.batch_engine_ms", "ms"),
        ("serve.wire_overhead_ms", "ms"),
        ("serve.shed", "count"),
        ("serve.err", "count"),
        ("loadgen.late_p99_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
        ("self_ms.total", "ms"),
        ("self_ms.reconcile_gap", "ratio"),
        ("self_ms.overruns", "count"),
        ("self_ms.parallel_overlap", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for kind in OP_KINDS {
        v.push((format!("execute.self_ms.{kind}"), "ms"));
    }
    for layer in LAYERS {
        v.push((format!("self_ms.{layer}"), "ms"));
    }
    v
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced run: print the per-layer metrics and write the spans.
    pub trace: bool,
    /// Data scale override (tests run at smoke size).
    pub scale: Option<f64>,
    /// How many times set-up runs; `setup_s` is their median (see
    /// [`SetupTimes`]).
    pub setups: usize,
    /// Where a traced run writes its spans.
    pub out_dir: PathBuf,
    /// Which part of an untraced run this process measures (see
    /// [`parts`]); it offsets the op streams, so parts run different ops.
    pub part: usize,
    /// Query shapes earlier parts of the run already checked.
    pub checked: Vec<String>,
}

impl Config {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            scale: None,
            setups: SETUPS,
            out_dir: PathBuf::from(".bench_out"),
            part: 0,
            checked: Vec::new(),
        }
    }
}

/// The settings a result depends on, printed before the result line.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub trace: bool,
    pub host_cores: usize,
    pub engine_threads: usize,
    pub client_threads: usize,
    pub connections: usize,
    /// Threads that may run at once: client threads plus the engine
    /// workers they drive.
    pub busy_threads: usize,
    /// Measured reads, writes and batches behind the timings.
    pub samples: [u64; 3],
}

impl RunRecord {
    pub fn new(cfg: &Config, scale: f64) -> RunRecord {
        RunRecord {
            workload: cfg.workload.clone(),
            seed: cfg.seed,
            scale,
            seconds: cfg.seconds,
            trace: cfg.trace,
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            engine_threads: mpf_algebra::ExecLimits::none().effective_threads(),
            client_threads: 1,
            connections: 0,
            busy_threads: 0,
            samples: [0; 3],
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"run_record\": {{\"workload\": \"{}\", \"seed\": {}, \"scale\": {}, \
             \"seconds\": {}, \"trace\": {}, \"host_cores\": {}, \"mpf_threads_env\": \"{}\", \
             \"engine_threads\": {}, \"client_threads\": {}, \"connections\": {}, \
             \"busy_threads\": {}, \"oversubscribed\": {}, \"git_revision\": \"{}\", \
             \"build_profile\": \"{}\", \"samples\": {{\"read\": {}, \"write\": {}, \"batch\": {}}}}}}}",
            self.workload,
            self.seed,
            self.scale,
            self.seconds,
            self.trace,
            self.host_cores,
            std::env::var("MPF_THREADS")
                .unwrap_or_default()
                .escape_default(),
            self.engine_threads,
            self.client_threads,
            self.connections,
            self.busy_threads,
            self.busy_threads > self.host_cores,
            git_revision(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            self.samples[0],
            self.samples[1],
            self.samples[2],
        )
    }
}

/// `HEAD` of the git checkout the benchmark runs in, or `unknown` when
/// the directory is not a git checkout (read from `.git`, no subprocess).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub gate: Gate,
    pub metrics: Metrics,
    pub record: RunRecord,
    /// The traced run's self-time ledger must reconcile.
    pub reconciled: bool,
    /// Query shapes this run checked that `Config::checked` did not hold.
    pub checked: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gate.failed == 0 && self.gate.attempted > 0 && self.reconciled
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.gate.attempted,
            self.gate.failed,
            self.metrics.to_json()
        )
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "invest_adhoc" => Ok(invest::run(cfg)),
        "bayes_rw" => Ok(bayes::run(cfg)),
        "serve_whatif" => Ok(serve::run(cfg)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-up times of one run. `setup_s` is the median of [`Config::setups`]
/// set-ups: about half run before measurement (the last one's world is
/// measured) and the rest after it. Over one run the host's speed drifts
/// more than one set-up varies, so set-ups spread over the run repeat
/// better than set-ups in one burst.
#[derive(Debug)]
pub struct SetupTimes {
    n: usize,
    times: Vec<f64>,
}

impl SetupTimes {
    /// Run the first half of `n` set-ups (at least one); returns the last
    /// one's world.
    pub fn first<T>(n: usize, setup: &mut impl FnMut() -> T) -> (T, SetupTimes) {
        let mut st = SetupTimes {
            n: n.max(1),
            times: Vec::new(),
        };
        let mut last = None;
        for _ in 0..st.n.div_ceil(2) {
            drop(last.take());
            last = Some(st.time(setup));
        }
        (last.expect("at least one set-up"), st)
    }

    /// Run the remaining set-ups, dropping each world at once, and set
    /// `setup_s` to the median set-up time in seconds. Call after the
    /// measured world is dropped.
    pub fn finish<T>(mut self, setup: &mut impl FnMut() -> T, m: &mut Metrics) {
        while self.times.len() < self.n {
            drop(self.time(setup));
        }
        m.set_median("setup_s", self.times, "s");
    }

    fn time<T>(&mut self, setup: &mut impl FnMut() -> T) -> T {
        let t = Instant::now();
        let out = setup();
        self.times.push(t.elapsed().as_secs_f64());
        out
    }
}

/// Length of one peak-RSS window.
pub const RSS_WINDOW: Duration = Duration::from_secs(5);

/// Peak resident set per window of wall time. At each window's end the
/// kernel's peak counter of this process is read (`VmHWM`) and reset
/// (`/proc/self/clear_refs`), so a run yields one peak per window. Their
/// median is the run's `peak_rss_mb`: one rare transient does not decide
/// it, while memory that most windows of the workload need does. Where
/// the counter cannot be reset, each window reads the peak so far.
/// Answer checks run through [`RssWindows::excluding`], so the memory of
/// the independent path does not count.
#[derive(Debug, Default, Clone)]
pub struct RssWindows {
    start: Option<Instant>,
    /// The window's peak up to the last excluded call.
    carried: f64,
    pub peaks: Samples,
}

impl RssWindows {
    /// Call between operations: closes the window once it is over.
    pub fn tick(&mut self) {
        match self.start {
            None => self.restart(),
            Some(t) if t.elapsed() >= RSS_WINDOW => {
                self.peaks.push(self.carried.max(peak_rss_mb()));
                self.restart();
            }
            Some(_) => {}
        }
    }

    fn restart(&mut self) {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        self.carried = 0.0;
        self.start = Some(Instant::now());
    }

    /// Run `f` (an answer check) without its allocations counting toward
    /// the window's peak: the peak so far is kept, and the counter is
    /// reset after `f`.
    pub fn excluding<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.carried = self.carried.max(peak_rss_mb());
        let out = f();
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        out
    }

    /// The window peaks, MiB; a run shorter than one window reads the
    /// current peak.
    pub fn window_peaks(&self) -> Vec<f64> {
        if self.peaks.is_empty() {
            vec![self.carried.max(peak_rss_mb())]
        } else {
            self.peaks.0.clone()
        }
    }
}

/// Latencies per operation class of one measured phase, cut into
/// windows.
///
/// Each end-to-end timing is computed per window and the median over
/// windows is reported: a few seconds in which the host ran slow move one
/// window, not the run's figure. A workload cuts a window at a point where
/// the op mix is complete (a number of blocks or requests); without cuts
/// the whole phase is one window.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    pub read: Samples,
    pub write: Samples,
    pub batch: Samples,
    /// Measured wall time of the phase, seconds (checks excluded).
    pub wall_s: f64,
    /// Sample counts and wall time at each window's end.
    cuts: Vec<[f64; 4]>,
    pub rss: RssWindows,
}

impl Latencies {
    /// Every latency sample of the phase summed, milliseconds: the
    /// end-to-end time a span ledger must reconcile with.
    pub fn total_ms(&self) -> f64 {
        self.read.sum() + self.write.sum() + self.batch.sum()
    }

    /// End the current window.
    pub fn cut(&mut self) {
        let at = self.mark();
        if self.cuts.last() != Some(&at) {
            self.cuts.push(at);
        }
    }

    fn mark(&self) -> [f64; 4] {
        [
            self.read.len() as f64,
            self.write.len() as f64,
            self.batch.len() as f64,
            self.wall_s,
        ]
    }

    /// The end-to-end metrics (all but `setup_s`): per window, then the
    /// median over windows. Samples after the last cut join the last
    /// window.
    pub fn fill(&self, m: &mut Metrics) {
        let mut ends = self.cuts.clone();
        match ends.last_mut() {
            Some(last) => *last = self.mark(),
            None => ends.push(self.mark()),
        }
        let mut from = [0.0; 4];
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); 7];
        for to in ends {
            let part =
                |s: &Samples, k: usize| Samples(s.0[from[k] as usize..to[k] as usize].to_vec());
            let (r, w, b) = (
                part(&self.read, 0),
                part(&self.write, 1),
                part(&self.batch, 2),
            );
            let ops = (r.len() + w.len() + b.len()) as f64;
            per[0].push(ratio(ops, to[3] - from[3]));
            per[1].push(r.percentile(50.0));
            per[2].push(r.percentile(99.0));
            per[3].push(w.percentile(50.0));
            per[4].push(w.percentile(99.0));
            per[5].push(b.percentile(50.0));
            per[6].push(b.percentile(99.0));
            from = to;
        }
        let names = [
            ("ops_per_s", "1/s"),
            ("read_p50_ms", "ms"),
            ("read_p99_ms", "ms"),
            ("write_p50_ms", "ms"),
            ("write_p99_ms", "ms"),
            ("batch_p50_ms", "ms"),
            ("batch_p99_ms", "ms"),
        ];
        for ((name, unit), values) in names.into_iter().zip(per) {
            let finite: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
            m.set_median(name, finite, unit);
        }
        m.set_median("peak_rss_mb", self.rss.window_peaks(), "MB");
        m.set("samples.read", self.read.len() as f64, "count");
        m.set("samples.write", self.write.len() as f64, "count");
        m.set("samples.batch", self.batch.len() as f64, "count");
    }
}

/// Tracing overhead: the traced run's median read latency over the
/// untraced run's, minus one. Medians, because the tail of a phase
/// depends on cache and queue state more than on tracing.
pub fn trace_overhead(traced: &Latencies, untraced: &Latencies) -> f64 {
    ratio(traced.read.percentile(50.0), untraced.read.percentile(50.0)) - 1.0
}

/// What an in-process phase (`invest_adhoc`, `bayes_rw`) records besides
/// its workload's own counters.
#[derive(Debug, Default, Clone)]
pub struct InProcess {
    pub lat: Latencies,
    pub tally: EngineTally,
    /// Parse time per statement, microseconds.
    pub parse_us: Samples,
    /// `ScenarioReport::elapsed` per batch, milliseconds.
    pub batch_engine: Samples,
    pub trunk_builds: u64,
    pub trunk_hits: u64,
    /// Request ids, unique across the run.
    pub req: u64,
}

impl InProcess {
    /// Count one batch's engine time and trunk sharing.
    pub fn note_batch(&mut self, report: &mpf_engine::ScenarioReport) {
        self.batch_engine.push(ms(report.elapsed));
        self.trunk_builds += report.trunk_builds;
        self.trunk_hits += report.trunk_hits;
    }

    /// The per-layer metrics of a traced phase, against the untraced
    /// phase that ran the same ops.
    pub fn fill_traced(&self, untraced: &Latencies, m: &mut Metrics) {
        self.tally.fill(m);
        m.set("parse.us_per_stmt", self.parse_us.percentile(50.0), "us");
        let (hits, builds) = (self.trunk_hits as f64, self.trunk_builds as f64);
        m.set(
            "scenario.trunk_hit_ratio",
            ratio(hits, hits + builds),
            "ratio",
        );
        m.set(
            "scenario.batch_engine_ms",
            ratio(self.batch_engine.sum(), self.batch_engine.len() as f64),
            "ms",
        );
        m.set(
            "trace.overhead_ratio",
            trace_overhead(&self.lat, untraced),
            "ratio",
        );
    }
}

/// Engine counters summed over executed answers (`Answer::stats` and
/// timings).
#[derive(Debug, Default, Clone)]
pub struct EngineTally {
    pub queries: u64,
    pub optimize_ms: f64,
    pub execute_ms: f64,
    pub peak_rows: u64,
    pub rows_processed: u64,
    pub rows_out: u64,
    pub fused: u64,
    pub converts: u64,
    pub chunked_ops: u64,
    pub fallback_attempts: u64,
}

impl EngineTally {
    pub fn add(&mut self, a: &Answer) {
        self.queries += 1;
        self.optimize_ms += ms(a.optimize_time);
        self.execute_ms += ms(a.execute_time);
        self.peak_rows = self.peak_rows.max(a.stats.max_intermediate_rows);
        self.rows_processed += a.stats.rows_processed;
        self.rows_out += a.relation.len() as u64;
        self.fused += a.stats.fused_join_aggs;
        self.converts += a.stats.sparse_converts + a.stats.dense_converts;
        self.chunked_ops += a.stats.kernel_chunked_ops;
        self.fallback_attempts += a.fallback.len() as u64;
    }

    pub fn fill(&self, m: &mut Metrics) {
        let q = self.queries as f64;
        m.set("optimize.ms_per_query", ratio(self.optimize_ms, q), "ms");
        m.set(
            "optimize.share",
            ratio(self.optimize_ms, self.optimize_ms + self.execute_ms),
            "ratio",
        );
        m.set(
            "plan.fallback_attempts",
            self.fallback_attempts as f64,
            "count",
        );
        m.set("execute.ms_per_query", ratio(self.execute_ms, q), "ms");
        m.set("execute.peak_rows", self.peak_rows as f64, "rows");
        m.set(
            "execute.rows_processed_per_row_out",
            ratio(self.rows_processed as f64, self.rows_out as f64),
            "ratio",
        );
        m.set(
            "execute.fused_per_query",
            ratio(self.fused as f64, q),
            "count",
        );
        m.set(
            "storage.converts_per_query",
            ratio(self.converts as f64, q),
            "count",
        );
        m.set(
            "kernel.chunked_ops_per_query",
            ratio(self.chunked_ops as f64, q),
            "count",
        );
    }
}

/// Per-layer self times per operation from a ledger, plus the
/// reconciliation gap against `end_to_end_ms`, the phase's latency
/// samples summed (see [`Latencies::total_ms`]). Returns whether the
/// ledger reconciles: the layers, less the join inputs' parallel overlap,
/// add up to the end-to-end time, no layer is negative, and no other graft
/// overran its parent.
pub fn fill_ledger(l: &Ledger, queries: u64, end_to_end_ms: f64, m: &mut Metrics) -> bool {
    let ops = l.roots as f64;
    for (layer, v) in &l.layer_ms {
        m.set(format!("self_ms.{layer}"), ratio(*v, ops), "ms");
    }
    for (kind, v) in &l.op_ms {
        m.set(
            format!("execute.self_ms.{kind}"),
            ratio(*v, queries as f64),
            "ms",
        );
    }
    m.set("self_ms.total", ratio(l.total_ms, ops), "ms");
    let gap = l.reconcile_gap(end_to_end_ms);
    m.set("self_ms.reconcile_gap", gap, "ratio");
    m.set("self_ms.overruns", l.overruns as f64, "count");
    m.set("self_ms.parallel_overlap", ratio(l.overlap_ms, ops), "ms");
    let nonnegative = l
        .layer_ms
        .values()
        .all(|&v| v >= -1e-6 * end_to_end_ms.max(1.0));
    let within = gap < 1e-6;
    if l.overruns > 0 || l.dropped > 0 || !nonnegative || !within {
        eprintln!(
            "ledger does not reconcile: gap {gap:.3e}, {} overruns, {} spans dropped, \
             self times {:?}",
            l.overruns, l.dropped, l.layer_ms
        );
        return false;
    }
    true
}

/// Keep only the metrics the run kind prints. A per-layer metric of a
/// layer the workload does not reach reads 0.
pub fn select_metrics(m: &Metrics, trace: bool) -> Metrics {
    let mut out = Metrics::default();
    if trace {
        for (name, unit) in per_layer_names() {
            out.set(name.clone(), m.get(&name).unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            out.set(name, m.get(name).unwrap_or(f64::NAN), unit);
        }
    }
    out
}

/// A deterministic generator seeded from the run seed and a stream tag,
/// so each workload's inputs depend only on `--seed`.
pub fn rng(seed: u64, stream: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;

    fn one_read(execute_us: f64) -> Ledger {
        let mut t = Tracer::new(true);
        let root = t.add_us(None, 1, "read", "other", 0.0, 100.0);
        let run = t.add_us(root, 1, "run", "engine", 0.0, 100.0);
        t.add_us(run, 1, "execute", "algebra", 0.0, execute_us);
        t.ledger()
    }

    #[test]
    fn ledger_check_can_fail() {
        let mut m = Metrics::default();
        assert!(fill_ledger(&one_read(60.0), 1, 0.1, &mut m));
        // The latency samples hold more time than the spans.
        assert!(!fill_ledger(&one_read(60.0), 1, 0.2, &mut m));
        // A child longer than its parent leaves a negative self time.
        assert!(!fill_ledger(&one_read(160.0), 1, 0.1, &mut m));
    }
}
