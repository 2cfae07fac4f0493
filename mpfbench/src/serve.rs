//! `serve_whatif`: an embedded `mpf_serve::Server` with the default
//! `ServeConfig` (view cache off, as the binary ships) over the supply
//! chain at scale 0.01, reached over loopback TCP.
//!
//! The load is an open loop: request `i` is due at `start + i / RATE`
//! whatever happened before, and its latency runs from that due time, so
//! a stall shows on every request queued behind it. Two client threads
//! each own one connection and one tenant, and pipeline: they send each
//! request when it is due and read replies as they arrive. Of every 21
//! requests, 16 are plain `QUERY` reads and 4 are `SCENARIOS 10` what-if
//! batches (transporter and contract price shocks), the 4:1 mix of reads
//! to batches the workload was specified with, and 1 is a write: the
//! `create mpfview` DDL, the only mutating request the protocol has.
//!
//! At this scale parse, optimize, the scenario trunk sharing and the wire
//! dominate, not execute. A traced run ends with a ladder of rising
//! offered rates that finds `max_rate_rps`.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpf_algebra::ExecLimits;
use mpf_engine::parser::{parse, Statement};
use mpf_engine::{Database, MetricsRegistry, Query, QueryRequest, Scenario};
use mpf_serve::protocol::parse_scenario_line;
use mpf_serve::{ServeConfig, Server};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::gate::{parse_row, wire_matches, Fail, Gate, WireRow};
use crate::invest::{domains, read_sql, shapes, supply_chain_db, VARS};
use crate::spans::Tracer;
use crate::stats::{median, ratio, Metrics, Samples};
use crate::{
    fill_ledger, ms, rng, trace_overhead, Config, EngineTally, Latencies, Outcome, RssWindows,
    RunRecord, SetupTimes, PART_STRIDE,
};

pub const DEFAULT_SCALE: f64 = 0.01;
/// Offered load of the timed runs, requests per second.
pub const RATE: f64 = 40.0;
pub const CONNECTIONS: usize = 2;
pub const BATCH_SCENARIOS: usize = 10;
/// Read latency limit of the max-rate ladder, milliseconds.
pub const LADDER_P99_MS: f64 = 100.0;
/// Length of one ladder step, seconds.
pub const LADDER_STEP_S: f64 = 1.0;
/// Requests per latency window (see `Latencies`): 10 blocks of the
/// [`MIX`], 5.25 s at [`RATE`].
pub const WINDOW_REQUESTS: usize = 10 * BLOCK_REQUESTS;
/// Requests sent before timing starts.
pub const WARMUP_REQUESTS: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    Batch,
}

/// One request: its wire text (one or more lines, newline-terminated).
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub text: String,
}

/// How a reply ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Ok,
    /// Refused at admission (`queue-full`, `admission-deadline`).
    Shed,
    /// Any other `ERR` line.
    Err,
}

/// Classify a complete reply by its first line.
pub fn classify(lines: &[String]) -> Reply {
    match lines.first() {
        Some(l) if l.starts_with("ERR ") => {
            let kind = l
                .split_whitespace()
                .find_map(|t| t.strip_prefix("kind="))
                .unwrap_or("");
            if kind == "queue-full" || kind == "admission-deadline" {
                Reply::Shed
            } else {
                Reply::Err
            }
        }
        Some(_) => Reply::Ok,
        None => Reply::Err,
    }
}

/// Count one reply in the gate; `Ok` replies are left to the content
/// check. Returns whether the reply was `Ok`.
pub fn count_reply(gate: &mut Gate, lines: &[String]) -> bool {
    match classify(lines) {
        Reply::Ok => true,
        Reply::Shed => {
            gate.fail(Fail::Shed, lines[0].clone());
            false
        }
        Reply::Err => {
            gate.fail(Fail::Error, lines.first().cloned().unwrap_or_default());
            false
        }
    }
}

/// Request kinds of every block of [`BLOCK_REQUESTS`] requests: reads and
/// batches 4:1, as the workload is specified, plus one write so that
/// `write_*` is measured. The write share is an assumption: the smallest
/// whole number per block. Each write leaves a view behind on the server
/// (see README.md for what that costs later requests).
pub const MIX: [(Kind, usize); 3] = [(Kind::Read, 16), (Kind::Batch, 4), (Kind::Write, 1)];
pub const BLOCK_REQUESTS: usize = MIX[0].1 + MIX[1].1 + MIX[2].1;

/// The request stream: request `i` of the run seeded `seed`. Every block
/// of [`BLOCK_REQUESTS`] requests has the [`MIX`] in a seeded order.
/// Reads run through seeded permutations of the 45 read forms (15
/// group-by shapes, each plain, filtered, and with `having`); batch
/// group-bys rotate over wid, cid and tid, and each batch shocks
/// transporters and contracts alternately.
pub fn request(seed: u64, i: usize, db: &Database) -> Request {
    let (block, pos) = (i / BLOCK_REQUESTS, i % BLOCK_REQUESTS);
    let mut kinds: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    kinds.shuffle(&mut rng(seed, 0x5000 + block as u64));
    let kind = kinds[pos];
    // Ordinal of this request among the requests of its kind.
    let per_block = MIX.iter().find(|m| m.0 == kind).map_or(0, |m| m.1);
    let nth = block * per_block + kinds[..pos].iter().filter(|&&k| k == kind).count();
    let mut r = rng(seed, 0x9000_0000 + i as u64);
    let tenant = format!("t{}", i % CONNECTIONS);
    match kind {
        Kind::Read => {
            let all = shapes();
            let forms = all.len() * 3;
            let mut cycle: Vec<usize> = (0..forms).collect();
            cycle.shuffle(&mut rng(seed, 0x6000 + (nth / forms) as u64));
            let form = cycle[nth % forms];
            // The filtered variable rotates with each pass over the forms.
            let filter = form + nth / forms;
            let read = read_sql(&all[form / 3], form % 3, filter, &domains(db), &mut r);
            Request {
                kind,
                text: format!("QUERY {tenant} {}\n", read.sql),
            }
        }
        Kind::Batch => {
            let g = ["wid", "cid", "tid"][nth % 3];
            let mut text = format!(
                "QUERY {tenant} select {g}, sum(inv) from invest group by {g} SCENARIOS {BATCH_SCENARIOS}\n"
            );
            for k in 0..BATCH_SCENARIOS {
                let relation = if k % 2 == 0 {
                    "transporters"
                } else {
                    "contracts"
                };
                let rel = db.relation(relation).expect("shock relation");
                let row = r.random_range(0..rel.len());
                let values: Vec<String> = rel.row(row).iter().map(|v| v.to_string()).collect();
                let measure = rel.measure(row) * r.random_range(0.5..2.0);
                text.push_str(&format!(
                    "SCENARIO s{k} MEASURE {relation} {} {measure}\n",
                    values.join(",")
                ));
            }
            Request { kind, text }
        }
        Kind::Write => Request {
            kind,
            text: format!(
                "QUERY {tenant} create mpfview w{i} as (select pid, wid, \
                 measure = (* c.price, l.quantity) from contracts c, location l \
                 where c.pid = l.pid)\n"
            ),
        },
    }
}

/// A completed (or abandoned) request.
#[derive(Debug, Clone)]
pub struct Done {
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    /// `None` when no complete reply arrived before the run ended.
    pub done: Option<Instant>,
    /// The reply text, one line per `\n`, kept as one string so stored
    /// replies stay small until they are checked.
    pub reply: String,
    /// Lines in `reply`.
    pub lines: usize,
}

impl Done {
    pub fn reply_lines(&self) -> Vec<String> {
        self.reply.lines().map(str::to_string).collect()
    }
}

/// A reply is complete at `END`, or at a lone `ERR` line; `line` is the
/// reply's `n`-th line (from 1).
fn reply_complete(line: &str, n: usize) -> bool {
    line == "END" || (n == 1 && line.starts_with("ERR "))
}

/// Longest sleep of a client between polls of its socket. Socket read
/// timeouts are rounded to the kernel tick (up to 10 ms), which would
/// make the generator late; a short sleep is not.
const POLL: Duration = Duration::from_micros(250);

/// Drive one connection through its schedule: send each request when
/// due, read replies as they come, and give up `grace` after the last
/// request was due. The socket is non-blocking, so a full send buffer
/// never stops the client from reading replies.
fn client(
    addr: SocketAddr,
    schedule: Vec<(usize, Instant, String)>,
    grace: Duration,
) -> std::io::Result<Vec<Done>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let give_up = schedule.last().map_or_else(Instant::now, |s| s.1) + grace;
    let mut next = 0;
    // Due requests not yet fully written, with the bytes already written.
    let mut unsent: VecDeque<(usize, usize)> = VecDeque::new();
    let mut pending: VecDeque<Done> = VecDeque::new();
    let mut finished = Vec::with_capacity(schedule.len());
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let now = Instant::now();
        let mut progress = false;
        while next < schedule.len() && schedule[next].1 <= now {
            unsent.push_back((next, 0));
            next += 1;
        }
        while let Some((k, off)) = unsent.front_mut() {
            let bytes = schedule[*k].2.as_bytes();
            match stream.write(&bytes[*off..]) {
                Ok(n) => {
                    progress = true;
                    *off += n;
                    if *off == bytes.len() {
                        let (index, due, _) = &schedule[*k];
                        pending.push_back(Done {
                            index: *index,
                            due: *due,
                            sent: Instant::now(),
                            done: None,
                            reply: String::new(),
                            lines: 0,
                        });
                        unsent.pop_front();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut closed = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    progress = true;
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let at = Instant::now();
        let mut used = 0;
        while let Some(len) = buf[used..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[used..used + len]);
            let line = line.trim_end();
            used += len + 1;
            let Some(front) = pending.front_mut() else {
                continue; // a reply nobody waits for; the gate sees it missing
            };
            front.reply.push_str(line);
            front.reply.push('\n');
            front.lines += 1;
            if reply_complete(line, front.lines) {
                let mut d = pending.pop_front().expect("front exists");
                d.done = Some(at);
                finished.push(d);
            }
        }
        buf.drain(..used);
        let all_done = next == schedule.len() && unsent.is_empty() && pending.is_empty();
        if all_done || closed || at >= give_up {
            break;
        }
        if !progress {
            let until_due = schedule
                .get(next)
                .map_or(POLL, |s| s.1.saturating_duration_since(at));
            std::thread::sleep(until_due.min(POLL));
        }
    }
    finished.extend(pending);
    Ok(finished)
}

/// An embedded server on a loopback port, shut down on drop.
pub struct ServeWorld {
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    /// Same data, in process: the check path.
    pub twin: Database,
    pub seed: u64,
}

impl ServeWorld {
    pub fn start(seed: u64, scale: f64, config: ServeConfig) -> std::io::Result<ServeWorld> {
        let server = Server::new(supply_chain_db(seed, scale), config);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let s = Arc::clone(&server);
        let thread = std::thread::spawn(move || s.serve_tcp(listener));
        Ok(ServeWorld {
            server,
            addr,
            thread: Some(thread),
            twin: supply_chain_db(seed, scale),
            seed,
        })
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        if let Ok(mut s) = TcpStream::connect(self.addr) {
            let _ = s.write_all(b"SHUTDOWN\n");
            let _ = s.read(&mut [0u8; 16]);
        }
        match thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("server stopped with {e}"),
            Err(_) => eprintln!("server thread panicked"),
        }
    }
}

impl Drop for ServeWorld {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn setup(seed: u64, scale: f64) -> ServeWorld {
    let w = ServeWorld::start(seed, scale, ServeConfig::default()).expect("loopback server");
    // Warm-up: a few reads, one connection, sequentially.
    let schedule: Vec<(usize, Instant, String)> = (0..WARMUP_REQUESTS)
        .map(|i| {
            let read = read_sql(
                &[VARS[i % VARS.len()]],
                0,
                0,
                &domains(&w.twin),
                &mut rng(seed, 1),
            );
            (i, Instant::now(), format!("QUERY warm {}\n", read.sql))
        })
        .collect();
    let _ = client(w.addr, schedule, Duration::from_secs(5));
    w
}

/// Replies of one open-loop phase, in request order.
struct Phase {
    done: Vec<Done>,
    requests: Vec<Request>,
    rss: RssWindows,
}

/// Offer requests `first..first + n` at `rate` per second.
fn run_phase(w: &ServeWorld, first: usize, seconds: f64, rate: f64) -> Phase {
    let n = ((seconds * rate).round() as usize).max(1);
    let requests: Vec<Request> = (first..first + n)
        .map(|i| request(w.seed, i, &w.twin))
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut per_conn: Vec<Vec<(usize, Instant, String)>> = vec![Vec::new(); CONNECTIONS];
    for (k, req) in requests.iter().enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        per_conn[(first + k) % CONNECTIONS].push((k, due, req.text.clone()));
    }
    let grace = Duration::from_secs(5);
    let mut rss = RssWindows::default();
    let mut done: Vec<Done> = std::thread::scope(|s| {
        let handles: Vec<_> = per_conn
            .into_iter()
            .map(|sched| s.spawn(move || client(w.addr, sched, grace)))
            .collect();
        // This thread only watches memory while the clients run.
        while !handles.iter().all(|h| h.is_finished()) {
            rss.tick();
            std::thread::sleep(Duration::from_millis(20));
        }
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(Ok(d)) => d,
                Ok(Err(e)) => {
                    eprintln!("client connection failed: {e}");
                    Vec::new()
                }
                Err(_) => {
                    eprintln!("client thread panicked");
                    Vec::new()
                }
            })
            .collect()
    });
    done.sort_by_key(|d| d.index);
    Phase {
        requests,
        done,
        rss,
    }
}

fn select_of(sql: &str) -> Result<Query, String> {
    match parse(sql) {
        Ok(Statement::Select(q)) => Ok(q),
        other => Err(format!("{sql}: {other:?}")),
    }
}

/// The grant a default tenant's query runs under, minus the budgets:
/// one engine thread, as `ServeConfig::default()` leases.
fn check_limits() -> ExecLimits {
    ExecLimits::none().with_threads(ServeConfig::default().default_tenant.threads_per_query)
}

/// Check one `OK` reply against the in-process twin: read rows must equal
/// `Database::run` bit for bit; each scenario of a batch must equal its
/// sequential single-scenario run bit for bit; a write must be
/// acknowledged and its view must exist on the server.
pub fn check_reply(w: &ServeWorld, req: &Request, lines: &[String]) -> Result<(), String> {
    let mut head = req.text.lines();
    let first = head.next().unwrap_or("");
    let sql = first.splitn(3, ' ').nth(2).unwrap_or("");
    let rows: Vec<WireRow> = lines.iter().filter_map(|l| parse_row(l)).collect();
    let catalog = w.twin.catalog();
    match req.kind {
        Kind::Read => {
            let q = select_of(sql)?;
            let a = w
                .twin
                .run(QueryRequest::from(q).limits(check_limits()))
                .map_err(|e| format!("in-process run failed: {e}"))?;
            let names: Vec<&str> = a
                .relation
                .schema()
                .iter()
                .map(|v| catalog.name(v))
                .collect();
            if wire_matches(&rows, &a.relation, &names) {
                Ok(())
            } else {
                Err(format!("wire rows differ from Database::run: {sql}"))
            }
        }
        Kind::Batch => {
            let sql = sql.rsplit_once(" SCENARIOS ").map_or(sql, |(s, _)| s);
            let q = select_of(sql)?;
            let scenarios: Vec<Scenario> = head
                .map(parse_scenario_line)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("scenario line: {e}"))?;
            for sc in &scenarios {
                let a = w
                    .twin
                    .run(
                        QueryRequest::from(q.clone())
                            .scenario(sc.clone())
                            .limits(check_limits()),
                    )
                    .map_err(|e| format!("sequential scenario failed: {e}"))?;
                let names: Vec<&str> = a
                    .relation
                    .schema()
                    .iter()
                    .map(|v| catalog.name(v))
                    .collect();
                let mine: Vec<WireRow> = rows
                    .iter()
                    .filter(|r| r.scenario.as_deref() == Some(sc.name()))
                    .cloned()
                    .collect();
                if !wire_matches(&mine, &a.relation, &names) {
                    return Err(format!(
                        "scenario {} differs from its sequential run",
                        sc.name()
                    ));
                }
            }
            let tagged = rows.iter().filter(|r| r.scenario.is_some()).count();
            if tagged != rows.len() {
                return Err("untagged row in a scenario reply".into());
            }
            Ok(())
        }
        Kind::Write => {
            let name = sql.split_whitespace().nth(2).unwrap_or("");
            let acked = lines.first().map(String::as_str) == Some(&format!("OK view={name}"));
            if acked && w.server.db().view(name).is_ok() {
                Ok(())
            } else {
                Err(format!(
                    "write of view `{name}` not acknowledged: {lines:?}"
                ))
            }
        }
    }
}

/// Count, check and time every request of a phase.
fn settle(w: &ServeWorld, ph: &Phase, gate: &mut Gate) -> (Latencies, Samples) {
    let mut lat = Latencies {
        rss: ph.rss.clone(),
        ..Latencies::default()
    };
    let mut late = Samples::default();
    let n = ph.requests.len();
    for _ in 0..n {
        gate.attempt();
    }
    if ph.done.len() != n {
        for _ in ph.done.len()..n {
            gate.fail(Fail::Missing, "request lost by the client");
        }
    }
    // Measured time runs from the first due time to the latest reply.
    let first_due = ph.done.iter().map(|d| d.due).min();
    let mut last_done = first_due;
    for d in &ph.done {
        if d.index > 0 && d.index % WINDOW_REQUESTS == 0 {
            if let (Some(a), Some(b)) = (first_due, last_done) {
                lat.wall_s = (b - a).as_secs_f64();
            }
            lat.cut();
        }
        last_done = last_done.max(d.done);
        let req = &ph.requests[d.index];
        late.push(ms(d.sent - d.due));
        let Some(done) = d.done else {
            gate.fail(
                Fail::Missing,
                format!("no reply: {}", req.text.lines().next().unwrap_or("")),
            );
            continue;
        };
        match req.kind {
            Kind::Read => lat.read.push(ms(done - d.due)),
            Kind::Write => lat.write.push(ms(done - d.due)),
            Kind::Batch => lat.batch.push(ms(done - d.due)),
        }
        let lines = d.reply_lines();
        if count_reply(gate, &lines) {
            if let Err(e) = check_reply(w, req, &lines) {
                gate.fail(Fail::Wrong, e);
            }
        }
    }
    if let (Some(a), Some(b)) = (first_due, last_done) {
        lat.wall_s = (b - a).as_secs_f64();
    }
    (lat, late)
}

/// Engine-side sums from the server's registry, for the ledger.
#[derive(Debug, Default, Clone, Copy)]
struct EngineSums {
    query_ms: f64,
    optimize_ms: f64,
    execute_ms: f64,
    batch_ms: f64,
    queries: f64,
    batches: f64,
    fused: f64,
    converts: f64,
    chunked_ops: f64,
    trunk_hits: f64,
    trunk_builds: f64,
    fallback: f64,
    shed: f64,
    err: f64,
}

fn engine_sums(m: &MetricsRegistry) -> EngineSums {
    let h = |n: &str| m.histogram(n).map_or(0.0, |h| h.sum_us as f64 / 1e3);
    let c = |n: &str| m.counter(n) as f64;
    EngineSums {
        query_ms: h("engine.query_us"),
        optimize_ms: h("engine.optimize_us"),
        execute_ms: h("engine.execute_us"),
        batch_ms: h("engine.scenario.batch_us"),
        queries: c("engine.queries"),
        batches: c("engine.scenario.batches"),
        fused: c("engine.kernel.fused_join_aggs"),
        converts: c("engine.repr.sparse_converts") + c("engine.repr.dense_converts"),
        chunked_ops: c("engine.kernel.chunked_ops"),
        trunk_hits: c("engine.scenario.trunk_hits"),
        trunk_builds: c("engine.scenario.trunk_builds"),
        fallback: c("engine.fallback_attempts"),
        shed: c("serve.shed"),
        err: c("serve.err"),
    }
}

impl std::ops::Sub for EngineSums {
    type Output = EngineSums;
    fn sub(self, o: EngineSums) -> EngineSums {
        EngineSums {
            query_ms: self.query_ms - o.query_ms,
            optimize_ms: self.optimize_ms - o.optimize_ms,
            execute_ms: self.execute_ms - o.execute_ms,
            batch_ms: self.batch_ms - o.batch_ms,
            queries: self.queries - o.queries,
            batches: self.batches - o.batches,
            fused: self.fused - o.fused,
            converts: self.converts - o.converts,
            chunked_ops: self.chunked_ops - o.chunked_ops,
            trunk_hits: self.trunk_hits - o.trunk_hits,
            trunk_builds: self.trunk_builds - o.trunk_builds,
            fallback: self.fallback - o.fallback,
            shed: self.shed - o.shed,
            err: self.err - o.err,
        }
    }
}

/// Rising offered rates from [`RATE`]; the highest whose read p99 stays
/// within [`LADDER_P99_MS`] with no failed request.
fn ladder(w: &ServeWorld, first: usize, gate: &mut Gate) -> f64 {
    let mut best = 0.0;
    let mut rate = RATE;
    let mut next = first;
    while rate <= 2_000.0 {
        let ph = run_phase(w, next, LADDER_STEP_S, rate);
        next += ph.requests.len();
        let failed_before = gate.failed;
        let (lat, _) = settle(w, &ph, gate);
        if gate.failed > failed_before || lat.read.percentile(99.0) > LADDER_P99_MS {
            break;
        }
        best = rate;
        rate *= 2.0;
    }
    best
}

pub fn run(cfg: &Config) -> Outcome {
    let scale = cfg.scale.unwrap_or(DEFAULT_SCALE);
    let mut record = RunRecord::new(cfg, scale);
    record.client_threads = CONNECTIONS;
    record.connections = CONNECTIONS;
    // Two client threads plus one server connection thread each, running
    // its queries with the default grant's engine threads.
    let per_query = ServeConfig::default().default_tenant.threads_per_query;
    record.busy_threads = CONNECTIONS + CONNECTIONS * per_query;
    let mut make = || setup(cfg.seed, scale);
    let (w, setups) = SetupTimes::first(cfg.setups, &mut make);
    let mut gate = Gate::default();
    let mut metrics = Metrics::default();
    let mut reconciled = true;
    let registry = Arc::clone(w.server.metrics());
    let start_sums = engine_sums(&registry);
    if !cfg.trace {
        let ph = run_phase(&w, cfg.part * PART_STRIDE, cfg.seconds, RATE);
        let (lat, _) = settle(&w, &ph, &mut gate);
        lat.fill(&mut metrics);
    } else {
        let half = cfg.seconds / 2.0;
        let base = run_phase(&w, 0, half, RATE);
        let (base_lat, _) = settle(&w, &base, &mut gate);
        let before = engine_sums(&registry);
        let mut tracer = Tracer::new(true);
        let ph = run_phase(&w, base.requests.len(), half, RATE);
        let sums = engine_sums(&registry) - before;
        let (lat, late) = settle(&w, &ph, &mut gate);
        lat.fill(&mut metrics);
        // Engine figures of the served requests, from the server's
        // registry. It carries no peak or processed row counts, so
        // `execute.peak_rows` and `execute.rows_processed_per_row_out`
        // read 0 here; the twin only checks answers.
        let tally = EngineTally {
            queries: sums.queries as u64,
            optimize_ms: sums.optimize_ms,
            execute_ms: sums.execute_ms,
            fused: sums.fused as u64,
            converts: sums.converts as u64,
            chunked_ops: sums.chunked_ops as u64,
            fallback_attempts: sums.fallback as u64,
            ..EngineTally::default()
        };
        tally.fill(&mut metrics);

        // Spans: each request's due→done, split into the generator's
        // lateness (due→sent) and the wire (sent→done).
        let mut wire_ms = 0.0;
        for d in &ph.done {
            let Some(done) = d.done else { continue };
            let root = tracer.add(None, d.index as u64, "request", "other", d.due, done);
            tracer.add(root, d.index as u64, "late", "loadgen", d.due, d.sent);
            tracer.add(root, d.index as u64, "wire", "serve", d.sent, done);
            wire_ms += ms(done - d.sent);
        }
        // The server's own engine time, from its registry: every
        // `Database::run` (plain reads and each batch's baseline) and the
        // batches. A batch's baseline run is inside its batch time too;
        // its share is estimated as one mean query per batch.
        let mut ledger = tracer.ledger();
        let baseline_ms = sums.batches * ratio(sums.query_ms, sums.queries);
        let scenario_ms = (sums.batch_ms - baseline_ms).max(0.0);
        ledger.move_ms("serve", "optimizer", sums.optimize_ms);
        ledger.move_ms("serve", "algebra", sums.execute_ms);
        ledger.move_ms(
            "serve",
            "engine",
            sums.query_ms - sums.optimize_ms - sums.execute_ms,
        );
        ledger.move_ms("serve", "scenario", scenario_ms);
        let engine_ms = sums.query_ms + scenario_ms;
        reconciled = fill_ledger(&ledger, tally.queries, lat.total_ms(), &mut metrics);
        metrics.set(
            "serve.wire_overhead_ms",
            ratio(wire_ms - engine_ms, ph.done.len() as f64),
            "ms",
        );
        metrics.set(
            "scenario.trunk_hit_ratio",
            ratio(sums.trunk_hits, sums.trunk_hits + sums.trunk_builds),
            "ratio",
        );
        metrics.set(
            "scenario.batch_engine_ms",
            ratio(sums.batch_ms, sums.batches),
            "ms",
        );
        metrics.set("loadgen.late_p99_ms", late.percentile(99.0), "ms");
        metrics.set(
            "trace.overhead_ratio",
            trace_overhead(&lat, &base_lat),
            "ratio",
        );
        let parse_us: Vec<f64> = ph
            .requests
            .iter()
            .filter(|r| r.kind == Kind::Read)
            .map(|r| {
                let sql = r
                    .text
                    .trim_end()
                    .splitn(3, ' ')
                    .nth(2)
                    .unwrap_or("")
                    .to_string();
                let t = Instant::now();
                let _ = std::hint::black_box(parse(std::hint::black_box(&sql)));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        metrics.set("parse.us_per_stmt", median(&parse_us), "us");
        let first = base.requests.len() + ph.requests.len();
        metrics.set("max_rate_rps", ladder(&w, first, &mut gate), "1/s");
        let path = cfg
            .out_dir
            .join(format!("spans-serve_whatif-seed{}.jsonl", cfg.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    let total = engine_sums(&registry) - start_sums;
    metrics.set("serve.shed", total.shed, "count");
    metrics.set("serve.err", total.err, "count");
    metrics.set("error_ratio", gate.error_ratio(), "ratio");
    drop(w);
    setups.finish(&mut make, &mut metrics);
    Outcome {
        gate,
        metrics,
        record,
        reconciled,
        checked: Vec::new(),
    }
}
