//! End-to-end benchmark of the xtuml toolchain with per-layer spans.
//!
//! Four workloads drive the repository's crates through their public
//! functions ([`sim_run`], [`sim_sharded`], [`repartition`],
//! [`serve_open`]). Each checks every output against a reference —
//! closed-form expectations, the abstract model's run, or an in-process
//! run of the same daemon script — and reports either the end-to-end
//! metrics (untraced run) or the per-layer metrics (traced run) declared
//! in `BENCHMARK.json`.

pub mod harness;
pub mod models;
pub mod repartition;
pub mod report;
pub mod serve_open;
pub mod sim_run;
pub mod sim_sharded;
pub mod spans;

use harness::Params;
use report::Outcome;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sim_run", "sim_sharded", "repartition", "serve_open"];

/// Runs the named workload.
///
/// # Errors
///
/// Returns an unknown workload name or a set-up failure.
pub fn run_workload(name: &str, params: &Params) -> Result<Outcome, String> {
    match name {
        "sim_run" => sim_run::run(params),
        "sim_sharded" => sim_sharded::run(params),
        "repartition" => repartition::run(params),
        "serve_open" => serve_open::run(params),
        other => Err(format!("unknown workload `{other}`")),
    }
}
