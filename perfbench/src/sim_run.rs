//! `sim_run`: the sequential engine on five model families.
//!
//! Each round runs every family once from a fresh simulation: load the
//! parsed domain into a `Simulation` (default engine, full trace),
//! create the population, inject the stimuli and run to quiescence.
//! Every run is checked against its closed-form expectation: exact
//! dispatch count, exact final time and the observable signals.

use std::time::Instant;

use xtuml_core::model::Domain;
use xtuml_exec::{SchedPolicy, Simulation};
use xtuml_obs::{Counter, Recorder};

use crate::harness::{self, JobOut, Params};
use crate::models::{self, Case};
use crate::report::Outcome;
use crate::spans::Tracer;

/// Family names, in round order.
pub const FAMILIES: [&str; 5] = ["pipeline", "fanout", "ring", "manycore_wide", "timers"];

/// The five cases for `seed`. Full sizes give each family a similar
/// share of a round's time.
pub fn cases(seed: u64, tiny: bool) -> Vec<Case> {
    if tiny {
        return vec![
            models::pipeline(seed, 3, 5),
            models::fanout(seed, 2, 3),
            models::ring(seed, 4, 2, 9),
            models::manycore(seed, 8, 2, 3),
            models::timers(seed, 2, 2, 2, 2),
        ];
    }
    vec![
        models::pipeline(seed, 8, 1400),
        models::fanout(seed, 8, 450),
        models::ring(seed, 16, 12, 1000),
        models::manycore(seed, 2048, 1, 1),
        models::timers(seed, 200, 4, 24, 6),
    ]
}

/// Creates the case's population and injects its stimuli.
///
/// # Errors
///
/// Returns the engine's error for an unknown class, link or event.
pub fn populate(sim: &mut Simulation<'_>, case: &Case) -> Result<(), String> {
    let tc = &case.tc;
    let mut insts = Vec::with_capacity(tc.creates.len());
    for class in &tc.creates {
        insts.push(sim.create(class).map_err(|e| e.to_string())?);
    }
    for (a, b, assoc) in &tc.relates {
        sim.relate(insts[*a], insts[*b], assoc)
            .map_err(|e| e.to_string())?;
    }
    let mut stimuli: Vec<_> = tc.stimuli.iter().collect();
    stimuli.sort_by_key(|s| s.time);
    for s in stimuli {
        sim.inject(s.time, insts[s.inst], &s.event, s.args.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs one case on a fresh simulation; returns the timed result.
fn run_case(
    tr: &mut Tracer,
    case: &Case,
    domain: &Domain,
    seed: u64,
    counters: &mut Recorder,
) -> (JobOut, u64) {
    let t0 = Instant::now();
    let mut sim = tr.span("exec.new", || {
        Simulation::with_policy(domain, SchedPolicy::seeded(seed))
    });
    if tr.enabled() {
        sim.attach_recorder(Recorder::new());
    }
    let populated = tr.span("exec.populate", || populate(&mut sim, case));
    let run_t0 = Instant::now();
    let ran = tr.span("exec.run", || sim.run_to_quiescence());
    let run_ns = run_t0.elapsed().as_nanos() as u64;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let ok = tr.span("verify.check", || {
        populated.is_ok()
            && ran.is_ok()
            && sim.trace().dispatch_count() as u64 == case.dispatches
            && sim.now() == case.final_time
            && case.observables_match(&sim.trace().observable(domain))
    });
    if let Some(rec) = sim.take_recorder() {
        counters.absorb(rec);
    }
    let out = JobOut {
        wall_ns,
        signals: case.dispatches,
        ok,
    };
    (out, run_ns)
}

/// Copies the engine counters of a traced pass into per-layer metrics.
pub fn counter_metrics(rec: &Recorder, out: &mut Outcome) {
    let m = &rec.metrics;
    for (c, name) in [
        (Counter::TransitionsFired, "exec.transitions_fired"),
        (Counter::SignalsSent, "exec.signals_sent"),
        (Counter::SelfSignals, "exec.self_signals"),
        (Counter::TimersFired, "exec.timers_fired"),
        (Counter::BcActions, "exec.bc_actions"),
        (Counter::BcFallbacks, "exec.bc_fallbacks"),
    ] {
        out.add(name, m.get(c) as f64);
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

    let mut counters = Recorder::new();
    let mut family_ns = [0u64; FAMILIES.len()];
    let mut run_ns_total = 0u64;
    let pass = harness::measure(
        params,
        cases.len(),
        &mut tr,
        |t, _round, j| {
            let (job, run_ns) = run_case(t, &cases[j], &domains[j], params.seed, &mut counters);
            if t.enabled() {
                family_ns[j] += run_ns;
                run_ns_total += run_ns;
            }
            job
        },
        &mut setup,
        &mut out,
    );
    setup.finish(&mut out);

    if params.trace {
        let bytes = cases.iter().map(|c| c.text.len()).sum();
        harness::load_metrics(&tr, bytes, &mut out);
        let rounds = pass.rounds.len() as f64;
        let signals: u64 = pass.jobs().map(|j| j.signals).sum();
        out.set("exec.run_s", run_ns_total as f64 * 1e-9);
        out.set("exec.signals", signals as f64);
        out.set("exec.ns_per_signal", run_ns_total as f64 / signals as f64);
        for (j, fam) in FAMILIES.iter().enumerate() {
            let per = cases[j].dispatches as f64 * rounds;
            out.set(
                &format!("exec.ns_per_signal.{fam}"),
                family_ns[j] as f64 / per,
            );
        }
        counter_metrics(&counters, &mut out);
        harness::finish_trace(params, "sim_run", &tr, &mut out);
    } else {
        harness::batch_metrics(&pass, &mut out);
    }
    Ok(out)
}
