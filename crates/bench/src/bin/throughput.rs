//! Self-timed interpreter throughput harness (no criterion needed).
//!
//! Runs the E3 pipeline workload — `stages` chained state machines each
//! forwarding a counted token, `feeds` tokens injected at stage 0 — with
//! actions on the register bytecode VM. Before any timing is trusted,
//! each configuration's trace must hold exactly `feeds * stages`
//! dispatches (every token is consumed once per stage) — a throughput
//! number for a run that did the wrong work would be meaningless.
//!
//! Results are written to `BENCH_interp.json` in the current directory,
//! headline `aggregate_signals_per_sec`. If a
//! `BENCH_interp.baseline.json` (a prior run of this same harness) is
//! present there, the report also includes the speedup against it.
//!
//! Usage: `cargo run --release -p xtuml-bench --bin throughput`
//!
//! `BENCH_ITERS=<n>` overrides the per-config iteration count (default 5);
//! large values give profilers enough samples to be useful.

use std::time::Instant;
use xtuml_bench::history;
use xtuml_bench::workloads::pipeline_domain;
use xtuml_core::value::Value;
use xtuml_exec::Simulation;

/// One measured configuration of the pipeline workload.
struct Config {
    stages: usize,
    feeds: u64,
    iters: u32,
}

struct Row {
    stages: usize,
    feeds: u64,
    signals: u64,
    best_secs: f64,
    signals_per_sec: f64,
}

fn build_sim(domain: &xtuml_core::model::Domain, stages: usize, feeds: u64) -> Simulation<'_> {
    let mut sim = Simulation::new(domain);
    let insts: Vec<_> = (0..stages)
        .map(|k| sim.create(&format!("Stage{k}")).expect("create stage"))
        .collect();
    for k in 0..stages.saturating_sub(1) {
        sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
            .expect("relate stages");
    }
    for i in 0..feeds {
        sim.inject(i, insts[0], "Feed", vec![Value::Int(0)])
            .expect("inject feed");
    }
    sim
}

fn run_once(stages: usize, feeds: u64) -> (u64, f64) {
    let domain = pipeline_domain(stages).expect("pipeline domain builds");
    let mut sim = build_sim(&domain, stages, feeds);
    let start = Instant::now();
    sim.run_to_quiescence().expect("run to quiescence");
    let elapsed = start.elapsed().as_secs_f64();
    // Every feed token is consumed exactly once per stage.
    (feeds * stages as u64, elapsed)
}

/// Conformance check before timing: the traced run must dispatch every
/// token once per stage, or the rate is vacuous.
fn assert_dispatch_count(stages: usize, feeds: u64) {
    let domain = pipeline_domain(stages).expect("pipeline domain builds");
    let mut sim = build_sim(&domain, stages, feeds);
    sim.run_to_quiescence().expect("run to quiescence");
    assert_eq!(
        sim.trace().dispatch_count() as u64,
        feeds * stages as u64,
        "stages={stages}: wrong dispatch count — timing would be meaningless"
    );
}

fn best_of(iters: u32, stages: usize, feeds: u64, signals: u64) -> f64 {
    // One untimed warmup, then keep the best of `iters` timed runs: the
    // workload is deterministic, so the minimum is the least-noise sample.
    let _ = run_once(stages, feeds);
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let (s, secs) = run_once(stages, feeds);
        assert_eq!(s, signals, "workload must be deterministic");
        if secs < best {
            best = secs;
        }
    }
    best
}

fn measure(cfg: &Config) -> Row {
    assert_dispatch_count(cfg.stages, cfg.feeds);
    let signals = cfg.feeds * cfg.stages as u64;
    let best = best_of(cfg.iters, cfg.stages, cfg.feeds, signals);
    Row {
        stages: cfg.stages,
        feeds: cfg.feeds,
        signals,
        best_secs: best,
        signals_per_sec: signals as f64 / best,
    }
}

fn main() {
    let iters: u32 = std::env::var("BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let configs = [
        Config {
            stages: 2,
            feeds: 2048,
            iters,
        },
        Config {
            stages: 8,
            feeds: 1024,
            iters,
        },
        Config {
            stages: 32,
            feeds: 512,
            iters,
        },
    ];

    let rows: Vec<Row> = configs.iter().map(measure).collect();
    let total_signals: u64 = rows.iter().map(|r| r.signals).sum();
    let total_secs: f64 = rows.iter().map(|r| r.best_secs).sum();
    let aggregate = total_signals as f64 / total_secs;

    let mut json = String::new();
    json.push_str("{\n  \"workload\": \"e3_pipeline\",\n  \"engine\": \"bc\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"stages\": {}, \"feeds\": {}, \"signals\": {}, \"best_secs\": {:.6}, \"signals_per_sec\": {:.0}}}{}\n",
            r.stages,
            r.feeds,
            r.signals,
            r.best_secs,
            r.signals_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
        println!(
            "stages={:<3} feeds={:<5} signals={:<6} best={:.3}ms  {:>12.0} signals/s",
            r.stages,
            r.feeds,
            r.signals,
            r.best_secs * 1e3,
            r.signals_per_sec
        );
    }
    json.push_str("  ],\n");
    // The CI awk takes the last line matching "aggregate_signals_per_sec"
    // per file.
    json.push_str(&format!("  \"aggregate_signals_per_sec\": {aggregate:.0}"));
    println!("aggregate: {aggregate:.0} signals/s");

    if let Ok(base) = std::fs::read_to_string("BENCH_interp.baseline.json") {
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

    std::fs::write("BENCH_interp.json", json).expect("write BENCH_interp.json");
    history::append("BENCH_history.jsonl", "interp_throughput", aggregate)
        .expect("append BENCH_history.jsonl");
}
