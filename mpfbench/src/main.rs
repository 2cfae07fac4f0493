//! Command line: `mpfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints a run record, then the result line last.
//!
//! An untraced run measures in parts, each a child process of this
//! binary started with `--part <i>` (see `mpfbench::parts`).

use std::io::Read;
use std::process::ExitCode;

use mpfbench::{parts, run, select_metrics, Config};

/// The run's settings, and whether this process is one part of a run.
fn parse_args() -> Result<(Config, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let cfg = Config::new(&workload, seed, seconds, trace);
    match args.iter().any(|a| a == "--part") {
        false => Ok((cfg, false)),
        true if trace => Err("--part applies to untraced runs only".into()),
        true => {
            let part: usize = value("--part")?
                .parse()
                .map_err(|e| format!("--part: {e}"))?;
            // The parent already divided `--seconds` among the parts, and
            // sends the shapes earlier parts checked on standard input.
            let mut cfg = parts::part_config(&cfg, part);
            cfg.seconds = seconds;
            let mut input = String::new();
            std::io::stdin()
                .read_to_string(&mut input)
                .map_err(|e| format!("reading checked shapes: {e}"))?;
            cfg.checked = input.lines().map(str::to_string).collect();
            Ok((cfg, true))
        }
    }
}

/// The parent of an untraced run: run the parts and pool them.
fn run_parts(cfg: &Config) -> ExitCode {
    let pooled = match parts::run(cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mpfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for record in &pooled.records {
        println!("{record}");
    }
    let out = pooled.outcome();
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let (cfg, is_part) = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mpfbench: {e}");
            eprintln!("usage: mpfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if !cfg.trace && !is_part {
        return run_parts(&cfg);
    }
    let mut out = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mpfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &out.gate.notes {
        eprintln!("gate: {note}");
    }
    out.record.samples = ["samples.read", "samples.write", "samples.batch"]
        .map(|n| out.metrics.get(n).unwrap_or(0.0) as u64);
    println!("{}", out.record.to_json());
    if is_part {
        for line in parts::part_lines(&out) {
            println!("{line}");
        }
    }
    out.metrics = select_metrics(&out.metrics, cfg.trace);
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
