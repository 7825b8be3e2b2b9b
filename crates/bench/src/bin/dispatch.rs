//! Null-action dispatch microbench (ISSUE 10, satellite e).
//!
//! Every `Ping` the null workload dispatches runs an **empty** action
//! body, so wall time is pure per-signal engine overhead: the scheduler
//! pick, the dispatch-slot lookup, and the trace-ring record. That is
//! precisely the surface the dispatch superloop optimizes, and this
//! harness pins it down without the pipeline workload's action-execution
//! noise.
//!
//! Before any timing is trusted, each configuration's traced run must
//! hold exactly `insts * pings` dispatches — a throughput number for a
//! run that did the wrong work would be meaningless. Timed columns:
//!
//! * `signals_per_sec` — trace ring on (the shipped default; this is the
//!   headline);
//! * `trace_off_signals_per_sec` — `--trace off`, isolating what the
//!   ring itself costs per dispatch.
//!
//! Results go to `BENCH_dispatch.json` in the current directory; with a
//! `BENCH_dispatch.baseline.json` present (a prior blessed run of this
//! harness on the same host) the report also carries the speedup against
//! it. CI gates on ≥0.9x of the blessed baseline — cross-host numbers
//! are NOT comparable, so the baseline must be re-blessed when the CI
//! host changes.
//!
//! Usage: `cargo run --release -p xtuml-bench --bin dispatch`
//!
//! `BENCH_ITERS=<n>` overrides the per-config iteration count (default 5).

use std::time::Instant;
use xtuml_bench::history;
use xtuml_bench::workloads::null_domain;
use xtuml_exec::{Simulation, TraceMode};

/// One measured configuration: `insts` instances of `Nil`, `pings`
/// signals queued on each. `insts == 1` keeps the scheduler's ready set
/// at a single instance throughout — the superloop's best case — while
/// larger counts force re-picks between batches.
struct Config {
    insts: usize,
    pings: u64,
    iters: u32,
}

struct Row {
    insts: usize,
    pings: u64,
    signals: u64,
    best_secs: f64,
    signals_per_sec: f64,
    off_signals_per_sec: f64,
}

fn build_sim(domain: &xtuml_core::model::Domain, insts: usize, pings: u64) -> Simulation<'_> {
    let mut sim = Simulation::new(domain);
    let handles: Vec<_> = (0..insts)
        .map(|_| sim.create("Nil").expect("create nil instance"))
        .collect();
    for &h in &handles {
        for _ in 0..pings {
            sim.inject(0, h, "Ping", vec![]).expect("inject ping");
        }
    }
    sim
}

fn run_once(domain: &xtuml_core::model::Domain, insts: usize, pings: u64, mode: TraceMode) -> f64 {
    let mut sim = build_sim(domain, insts, pings);
    sim.set_trace_mode(mode);
    let start = Instant::now();
    sim.run_to_quiescence().expect("run to quiescence");
    start.elapsed().as_secs_f64()
}

/// Conformance check before timing: every queued ping dispatched once.
///
/// Runs a *scaled-down* stimulus count: a wrong count is a per-dispatch
/// property, so a few thousand signals exercise every slot — and a
/// full-size traced run here would leave a multi-megabyte trace behind,
/// with the allocator in a churned state that measurably (and unevenly,
/// as the heap recovers over seconds) depresses the timed runs that
/// follow.
fn assert_dispatch_count(domain: &xtuml_core::model::Domain, insts: usize, pings: u64) {
    let pings = pings.min(4_096);
    let mut sim = build_sim(domain, insts, pings);
    sim.run_to_quiescence().expect("run to quiescence");
    assert_eq!(
        sim.trace().dispatch_count() as u64,
        pings * insts as u64,
        "insts={insts}: wrong dispatch count — timing would be meaningless"
    );
}

fn measure(domain: &xtuml_core::model::Domain, cfg: &Config) -> Row {
    assert_dispatch_count(domain, cfg.insts, cfg.pings);
    let signals = cfg.pings * cfg.insts as u64;
    // Interleave the columns round-robin and keep each column's best:
    // allocator and frequency state drift over the measurement window,
    // and a column measured only at the start (or only at the end) of it
    // picks up that drift as a phantom difference.
    let columns = [TraceMode::Full, TraceMode::Off];
    let mut bests = [f64::INFINITY; 2];
    for mode in columns {
        // Untimed warmup per column; the workload is deterministic, so
        // the later minimum is the least-noise sample.
        let _ = run_once(domain, cfg.insts, cfg.pings, mode);
    }
    for _ in 0..cfg.iters {
        for (i, mode) in columns.into_iter().enumerate() {
            let secs = run_once(domain, cfg.insts, cfg.pings, mode);
            if secs < bests[i] {
                bests[i] = secs;
            }
        }
    }
    let [best, off_best] = bests;
    Row {
        insts: cfg.insts,
        pings: cfg.pings,
        signals,
        best_secs: best,
        signals_per_sec: signals as f64 / best,
        off_signals_per_sec: signals as f64 / off_best,
    }
}

fn main() {
    let iters: u32 = std::env::var("BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let domain = null_domain();
    let configs = [
        Config {
            insts: 1,
            pings: 262_144,
            iters,
        },
        Config {
            insts: 16,
            pings: 16_384,
            iters,
        },
        Config {
            insts: 256,
            pings: 1_024,
            iters,
        },
    ];

    let rows: Vec<Row> = configs.iter().map(|c| measure(&domain, c)).collect();
    let total_signals: u64 = rows.iter().map(|r| r.signals).sum();
    let total_secs: f64 = rows.iter().map(|r| r.best_secs).sum();
    let off_secs: f64 = rows
        .iter()
        .map(|r| r.signals as f64 / r.off_signals_per_sec)
        .sum();
    let aggregate = total_signals as f64 / total_secs;
    let off_aggregate = total_signals as f64 / off_secs;

    let mut json = String::new();
    json.push_str("{\n  \"workload\": \"null_dispatch\",\n  \"engine\": \"bc\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"insts\": {}, \"pings\": {}, \"signals\": {}, \"best_secs\": {:.6}, \"signals_per_sec\": {:.0}, \"trace_off_signals_per_sec\": {:.0}}}{}\n",
            r.insts,
            r.pings,
            r.signals,
            r.best_secs,
            r.signals_per_sec,
            r.off_signals_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
        println!(
            "insts={:<4} pings={:<7} signals={:<7} best={:.3}ms  {:>12.0} signals/s  (off {:.0})",
            r.insts,
            r.pings,
            r.signals,
            r.best_secs * 1e3,
            r.signals_per_sec,
            r.off_signals_per_sec
        );
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"trace_off_aggregate_signals_per_sec\": {off_aggregate:.0},\n"
    ));
    // Keep the headline key *after* the other aggregate keys: the CI awk
    // takes the last line matching "aggregate_signals_per_sec" per file.
    json.push_str(&format!("  \"aggregate_signals_per_sec\": {aggregate:.0}"));
    println!("aggregate: {aggregate:.0} signals/s (trace off {off_aggregate:.0})");

    if let Ok(base) = std::fs::read_to_string("BENCH_dispatch.baseline.json") {
        if let Some(rate) = history::aggregate_rate(&base) {
            let speedup = aggregate / rate;
            json.push_str(&format!(
                ",\n  \"baseline_signals_per_sec\": {rate:.0},\n  \"speedup_vs_baseline\": {speedup:.2}"
            ));
            println!("baseline: {rate:.0} signals/s ({speedup:.2}x)");
        }
    } else {
        println!("(no baseline file)");
    }
    json.push_str("\n}\n");

    std::fs::write("BENCH_dispatch.json", json).expect("write BENCH_dispatch.json");
    history::append_with(
        "BENCH_history.jsonl",
        "dispatch_null",
        aggregate,
        &[(
            "trace_off_aggregate_signals_per_sec",
            format!("{off_aggregate:.0}"),
        )],
    )
    .expect("append BENCH_history.jsonl");
}
