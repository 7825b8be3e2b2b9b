//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints a human-readable summary and the run record, then the result
//! line (the last line of standard output). Exits 0 only when every
//! checked output was correct.

use std::io::Write as _;
use std::path::PathBuf;

use xtuml_perfbench::harness::Params;
use xtuml_perfbench::report::{self, RunMeta};

fn usage() -> String {
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
        .to_owned()
}

fn parse_args() -> Result<(String, Params), String> {
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => params.seed = value.parse().map_err(|_| bad("bad seed"))?,
            "--seconds" => {
                params.seconds = value.parse().map_err(|_| bad("bad duration"))?;
                if !(params.seconds > 0.0 && params.seconds <= 600.0) {
                    return Err(bad("duration out of range"));
                }
            }
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1, got")),
                }
            }
            "--out" => params.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((workload, params))
}

/// Metrics printed in the summary and the record but not in the result
/// line: the sweep's partition rate under its own name (it is
/// `ops_per_s`), and unbounded ones: the median and p99 round time of
/// the batch workloads, the p99 request latency and the back-to-back
/// rate and ladder capacity of the daemon. On a shared host a median
/// moves with the share of fast spells in a run, a latency tail with the
/// neighbours, a closed-loop rate with the host's speed from second to
/// second, and a pass/fail rate search by whole rungs from run to run,
/// so none of them can carry a regression bound.
fn extras(workload: &str) -> Vec<(&'static str, &'static str, &'static str)> {
    let mut out = Vec::new();
    if workload != "serve_open" {
        out.push(("p50_ms", "p50_ms", "ms, not bounded"));
    }
    out.push(("p99_ms", "p99_ms", "ms, not bounded"));
    match workload {
        "repartition" => out.push(("partitions_per_s", "ops_per_s", "1/s, = ops_per_s")),
        "serve_open" => {
            out.push(("sustained_rps", "sustained_rps", "1/s, not bounded"));
            out.push(("slo_rps", "slo_rps", "1/s, not bounded"));
        }
        _ => {}
    }
    out
}

fn main() {
    let (workload, params) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match xtuml_perfbench::run_workload(&workload, &params) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    let decls = if params.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    let meta = RunMeta {
        workload: workload.clone(),
        seed: params.seed,
        traced: params.trace,
        seconds: params.seconds,
    };
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(
        stdout,
        "{workload} seed={} traced={} attempted={} failed={} fail_frac={}",
        params.seed,
        params.trace,
        outcome.attempted,
        outcome.failed,
        outcome.fail_frac()
    );
    for d in &decls {
        if let Some(v) = outcome.metrics.get(&d.name) {
            let _ = writeln!(stdout, "  {:<32} {v:>16.6} {}", d.name, d.unit);
        }
    }
    if !params.trace {
        for (label, name, unit) in extras(&workload) {
            if let Some(v) = outcome.metrics.get(name) {
                let _ = writeln!(stdout, "  {label:<32} {v:>16.6} {unit}");
            }
        }
    }
    let record = report::record(&meta, &outcome);
    let _ = writeln!(stdout, "record {record}");
    let log = params.out_dir.join("results.jsonl");
    let appended = std::fs::create_dir_all(&params.out_dir).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log)?;
        writeln!(f, "{record}")
    });
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append {}: {e}", log.display());
    }
    let _ = writeln!(stdout, "{}", report::result_line(&outcome, &decls));
    let _ = stdout.flush();
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    std::process::exit(if correct { 0 } else { 1 });
}
