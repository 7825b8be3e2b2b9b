//! `sim_sharded`: the epoch-synchronous sharded engine (4 shards, 2
//! worker threads) on shard-safe many-core models at two widths.
//!
//! Set-up checks, untimed, that each width's trace is byte-identical to
//! a one-thread run of the same `(seed, shards)` and that its observable
//! reports equal the sequential engine's. Every timed run is checked
//! against the closed-form expectation.

use std::time::Instant;

use xtuml_core::model::Domain;
use xtuml_exec::{SchedPolicy, ShardedSimulation, Simulation};
use xtuml_obs::{Clock, Counter, Recorder};

use crate::harness::{self, JobOut, Params};
use crate::models::{self, Case};
use crate::report::Outcome;
use crate::spans::{Open, Tracer};

/// Shards per run.
pub const SHARDS: usize = 4;
/// Worker threads per run (at most the two cores the benchmark assumes).
pub const JOBS: usize = 2;
/// Traced runs that also record the engine's own epoch spans.
const SPAN_SAMPLES: usize = 8;

/// The two widths for `seed`: narrow (64 cores) and wide (4096 cores).
pub fn cases(seed: u64, tiny: bool) -> Vec<Case> {
    if tiny {
        return vec![
            models::manycore(seed, 4, 2, 3),
            models::manycore(seed, 16, 2, 1),
        ];
    }
    vec![
        models::manycore(seed, 64, 2, 31),
        models::manycore(seed, 4096, 2, 1),
    ]
}

/// Which case each job of a round runs: one narrow, two wide, so the
/// median job falls inside one width's latencies rather than on the
/// boundary between them.
const ROUND: [usize; 3] = [0, 1, 1];

fn sharded<'d>(
    domain: &'d Domain,
    case: &Case,
    seed: u64,
) -> Result<ShardedSimulation<'d>, String> {
    let mut sim =
        ShardedSimulation::with_policy(domain, SchedPolicy::seeded(seed).with_shards(SHARDS));
    let tc = &case.tc;
    let mut insts = Vec::with_capacity(tc.creates.len());
    for class in &tc.creates {
        insts.push(sim.create(class).map_err(|e| e.to_string())?);
    }
    for s in &tc.stimuli {
        sim.inject(s.time, insts[s.inst], &s.event, s.args.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(sim)
}

/// The untimed determinism checks: jobs-invariant trace and observables
/// equal to the sequential engine's.
fn determinism_ok(domain: &Domain, case: &Case, seed: u64) -> bool {
    let run = |jobs: usize| -> Option<(String, Vec<String>)> {
        let mut sim = sharded(domain, case, seed).ok()?;
        sim.run_to_quiescence(jobs).ok()?;
        let trace = sim.trace();
        Some((
            trace.render(domain),
            models::sorted_keys(&trace.observable(domain)),
        ))
    };
    let mut seq = Simulation::with_policy(domain, SchedPolicy::seeded(seed));
    let sequential = crate::sim_run::populate(&mut seq, case)
        .ok()
        .and_then(|()| seq.run_to_quiescence().ok())
        .map(|_| models::sorted_keys(&seq.trace().observable(domain)));
    match (run(1), run(JOBS), sequential) {
        (Some((one, _)), Some((two, observed)), Some(seq)) => one == two && observed == seq,
        _ => false,
    }
}

/// Epoch accounting from the engine's spans: per epoch, the pool's
/// fork-join wall time and the slowest shard's epoch span.
#[derive(Debug, Default)]
struct EpochStats {
    runs: u64,
    epochs: u64,
    wall_us: u64,
    work_us: u64,
    sync_us: u64,
}

impl EpochStats {
    /// Folds one run's spans in and mirrors them onto `tr` under `parent`.
    fn absorb(&mut self, rec: &Recorder, tr: &mut Tracer, parent: Open, base_ns: u64) {
        let Some(buf) = rec.spans() else { return };
        self.runs += 1;
        let events = buf.events();
        for fj in events.iter().filter(|e| e.cat == "pool") {
            let (from, to) = (fj.ts_us, fj.ts_us + fj.dur_us);
            let slowest = events
                .iter()
                .filter(|e| e.cat == "shard" && e.ts_us >= from && e.ts_us <= to)
                .map(|e| e.dur_us)
                .max()
                .unwrap_or(0);
            self.epochs += 1;
            self.wall_us += fj.dur_us;
            self.sync_us += fj.dur_us.saturating_sub(slowest);
            tr.record(
                parent,
                "shard.epoch",
                base_ns + from * 1000,
                base_ns + to * 1000,
            );
        }
        self.work_us += events
            .iter()
            .filter(|e| e.cat == "shard")
            .map(|e| e.dur_us)
            .sum::<u64>();
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up failure (a generated model that does not load).
pub fn run(params: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(params.trace, Instant::now(), 0);
    // Set-up is the program's: loading the generated model texts.
    let cases = cases(params.seed, params.tiny);
    let (domains, mut setup) = harness::repeat_setup(7, &mut tr, |t| {
        cases
            .iter()
            .map(|c| harness::load(&c.text, t))
            .collect::<Result<Vec<Domain>, String>>()
    })?;
    for (case, domain) in cases.iter().zip(&domains) {
        out.check(determinism_ok(domain, case, params.seed));
    }

    let mut counters = Recorder::new();
    let mut epochs = EpochStats::default();
    let mut run_ns_total = 0u64;
    let mut traced_jobs = 0usize;
    let pass = harness::measure(
        params,
        ROUND.len(),
        &mut tr,
        |t, _round, j| {
            let (case, domain) = (&cases[ROUND[j]], &domains[ROUND[j]]);
            let t0 = Instant::now();
            let built = t.span("exec.new", || sharded(domain, case, params.seed));
            let Ok(mut sim) = built else {
                return JobOut::default();
            };
            let with_spans = t.enabled() && traced_jobs < SPAN_SAMPLES;
            let clock_base = t.clock_ns();
            if t.enabled() {
                traced_jobs += 1;
                sim.attach_recorder(if with_spans {
                    Recorder::with_spans(Clock::start())
                } else {
                    Recorder::new()
                });
            }
            let run_t0 = Instant::now();
            let open = t.begin("exec.run");
            let ran = sim.run_to_quiescence(JOBS);
            t.end(open);
            let run_ns = run_t0.elapsed().as_nanos() as u64;
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let ok = t.span("verify.check", || {
                ran.is_ok()
                    && sim.trace().dispatch_count() as u64 == case.dispatches
                    && case.observables_match(&sim.trace().observable(domain))
            });
            if let Some(rec) = sim.take_recorder() {
                epochs.absorb(&rec, t, open, clock_base);
                counters.absorb(rec);
                run_ns_total += run_ns;
            }
            JobOut {
                wall_ns,
                signals: case.dispatches,
                ok,
            }
        },
        &mut setup,
        &mut out,
    );
    setup.finish(&mut out);

    if params.trace {
        let bytes = cases.iter().map(|c| c.text.len()).sum();
        harness::load_metrics(&tr, bytes, &mut out);
        let signals: u64 = pass.jobs().map(|j| j.signals).sum();
        out.set("exec.run_s", run_ns_total as f64 * 1e-9);
        out.set("exec.signals", signals as f64);
        out.set("exec.ns_per_signal", run_ns_total as f64 / signals as f64);
        crate::sim_run::counter_metrics(&counters, &mut out);
        let m = &counters.metrics;
        out.set("shard.epochs", m.get(Counter::Epochs) as f64);
        out.set(
            "shard.cross_shard_signals",
            m.get(Counter::CrossShardSignals) as f64,
        );
        out.set("shard.imbalance", m.epoch_imbalance().unwrap_or(0.0));
        out.set("pool.scopes", m.get(Counter::PoolScopes) as f64);
        out.set("pool.tasks", m.get(Counter::PoolTasks) as f64);
        let runs = epochs.runs.max(1) as f64;
        out.set(
            "shard.epoch_us",
            epochs.wall_us as f64 / epochs.epochs.max(1) as f64,
        );
        out.set("shard.work_s", epochs.work_us as f64 * 1e-6 / runs);
        out.set("shard.sync_s", epochs.sync_us as f64 * 1e-6 / runs);
        harness::finish_trace(params, "sim_sharded", &tr, &mut out);
    } else {
        harness::batch_metrics(&pass, &mut out);
    }
    Ok(out)
}
