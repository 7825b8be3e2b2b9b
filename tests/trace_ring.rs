//! Trace-ring equivalence suite (ISSUE 10, satellite c).
//!
//! The packed trace ring replaced the per-dispatch `TraceEvent` enum
//! push; its contract is that nothing downstream can tell. This suite
//! locks three faces of that contract across the checked-in fuzz corpus
//! at shard counts {1, 2, 4}:
//!
//! 1. `Trace::render` over the ring is byte-identical to the legacy
//!    formatter applied to the materialized `TraceEvent` stream;
//! 2. `restore(snapshot(sim))` roundtrips mid-ring — including the
//!    payload/function side tables that actor signals and bridge calls
//!    index into;
//! 3. `TraceMode::Off` records nothing while leaving execution itself
//!    (simulated time, final state) untouched.

use std::fmt::Write as _;
use std::path::Path;
use xtuml_core::Domain;
use xtuml_exec::{SchedPolicy, ShardedSimulation, Simulation, Trace, TraceEvent, TraceMode};
use xtuml_fuzz::{generate, load_dir, parse_stim};
use xtuml_lang::parse_domain;
use xtuml_verify::TestCase;

const SEED: u64 = 11;

/// Shard counts a model may legally run at: shard-unsafe models are
/// restricted to the sequential path (1 shard).
fn shard_counts(domain: &Domain) -> &'static [usize] {
    if xtuml_exec::shard_safety(domain).is_ok() {
        &[1, 2, 4]
    } else {
        &[1]
    }
}

/// Generated-model sweep width (seeds `0..FUZZ_SEEDS`). Generated specs
/// include actor signals and bridge calls, which exercise the ring's
/// payload/function side tables and their rebasing on shard merge.
const FUZZ_SEEDS: u64 = 24;

fn cases() -> Vec<(String, Domain, TestCase)> {
    let mut out = Vec::new();
    for e in load_dir(Path::new("models/fuzz-corpus")).expect("corpus dir is readable") {
        let domain = parse_domain(&e.model)
            .unwrap_or_else(|err| panic!("{}: corpus model does not parse: {err}", e.name));
        let tc = parse_stim(&e.stim)
            .unwrap_or_else(|err| panic!("{}: corpus stim does not parse: {err}", e.name));
        out.push((e.name.clone(), domain, tc));
    }
    assert!(!out.is_empty(), "fuzz corpus must not be empty");
    for seed in 0..FUZZ_SEEDS {
        let spec = generate(seed);
        let domain = spec.lower().expect("generated specs lower by construction");
        out.push((format!("seed{seed}"), domain, spec.testcase()));
    }
    out
}

fn setup<'d>(
    domain: &'d Domain,
    tc: &TestCase,
    shards: usize,
    mode: TraceMode,
) -> ShardedSimulation<'d> {
    let policy = SchedPolicy::seeded(SEED).with_shards(shards);
    let mut sim = ShardedSimulation::with_policy(domain, policy);
    sim.set_trace_mode(mode);
    let mut handles = Vec::with_capacity(tc.creates.len());
    for class in &tc.creates {
        handles.push(sim.create(class).expect("create"));
    }
    for (a, b, assoc) in &tc.relates {
        sim.relate(handles[*a], handles[*b], assoc).expect("relate");
    }
    let mut stims = tc.stimuli.clone();
    stims.sort_by_key(|s| s.time);
    for s in &stims {
        sim.inject(s.time, handles[s.inst], &s.event, s.args.clone())
            .expect("inject");
    }
    sim
}

/// The legacy formatter, applied to materialized `TraceEvent`s — the
/// reference the ring's direct `render` must match byte for byte.
fn legacy_render(trace: &Trace, domain: &Domain) -> String {
    let events: Vec<TraceEvent> = trace.iter().collect();
    let mut out = String::new();
    for e in &events {
        match e {
            TraceEvent::Create { time, inst, class } => {
                let _ = writeln!(
                    out,
                    "[{time:>6}] create {inst} : {}",
                    domain.class(*class).name
                );
            }
            TraceEvent::Delete { time, inst } => {
                let _ = writeln!(out, "[{time:>6}] delete {inst}");
            }
            TraceEvent::Dispatch {
                time,
                inst,
                from,
                event,
                from_state,
                to_state,
                ..
            } => {
                let class = events.iter().find_map(|c| match c {
                    TraceEvent::Create {
                        inst: ci,
                        class: cc,
                        ..
                    } if ci == inst => Some(*cc),
                    _ => None,
                });
                let (ev_name, s0, s1) = match class {
                    Some(c) => {
                        let cls = domain.class(c);
                        let machine = cls.state_machine.as_ref();
                        (
                            cls.events[event.index()].name.clone(),
                            machine.map_or(from_state.to_string(), |m| {
                                m.state(*from_state).name.clone()
                            }),
                            machine
                                .map_or(to_state.to_string(), |m| m.state(*to_state).name.clone()),
                        )
                    }
                    None => (
                        event.to_string(),
                        from_state.to_string(),
                        to_state.to_string(),
                    ),
                };
                let from_s = from.map_or("<env>".to_owned(), |f| f.to_string());
                let _ = writeln!(
                    out,
                    "[{time:>6}] {from_s} -> {inst} : {ev_name} ({s0} -> {s1})"
                );
            }
            TraceEvent::Ignored { time, inst, event } => {
                let _ = writeln!(out, "[{time:>6}] {inst} ignored {event}");
            }
            TraceEvent::Dropped { time, inst, event } => {
                let _ = writeln!(out, "[{time:>6}] {inst} DROPPED {event}");
            }
            TraceEvent::ActorSignal {
                time,
                actor,
                event,
                args,
            } => {
                let a_decl = domain.actor(*actor);
                let _ = write!(
                    out,
                    "[{time:>6}] >> {}.{}(",
                    a_decl.name,
                    a_decl.events[event.index()].name
                );
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        let _ = write!(out, ", ");
                    }
                    let _ = write!(out, "{a}");
                }
                let _ = writeln!(out, ")");
            }
            TraceEvent::BridgeCall {
                time,
                actor,
                func,
                args,
            } => {
                let _ = write!(
                    out,
                    "[{time:>6}] :: {}::{}(",
                    domain.actor(*actor).name,
                    func
                );
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        let _ = write!(out, ", ");
                    }
                    let _ = write!(out, "{a}");
                }
                let _ = writeln!(out, ")");
            }
        }
    }
    out
}

#[test]
fn ring_render_is_byte_identical_to_legacy_event_render() {
    for (name, domain, tc) in &cases() {
        let mut sequential = None;
        for &shards in shard_counts(domain) {
            let mut sim = setup(domain, tc, shards, TraceMode::Full);
            sim.run_to_quiescence(1)
                .unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
            let direct = sim.trace().render(domain);
            let reference = legacy_render(sim.trace(), domain);
            assert_eq!(
                direct, reference,
                "{name}: ring render diverges from the legacy event render ({shards} shards)"
            );
            // Shard counts change the schedule, not the work: every run
            // dispatches what the shards=1 run dispatched and emits the
            // same per-actor observables.
            let run = (sim.trace().dispatch_count(), sim.trace().observable(domain));
            let (dispatches, observable) = sequential.get_or_insert_with(|| run.clone());
            assert_eq!(
                run.0, *dispatches,
                "{name}: dispatch count at {shards} shards"
            );
            let report = xtuml_verify::check_equivalence(observable, &run.1);
            assert!(
                report.is_equivalent(),
                "{name}: observables at {shards} shards differ from shards=1: {report:?}"
            );
        }
    }
}

#[test]
fn sequential_snapshot_roundtrips_mid_ring() {
    for (name, domain, tc) in &cases() {
        // Reference: the uninterrupted sequential run.
        let mut reference = Simulation::with_policy(domain, SchedPolicy::seeded(SEED));
        let mut handles = Vec::with_capacity(tc.creates.len());
        for class in &tc.creates {
            handles.push(reference.create(class).expect("create"));
        }
        for (a, b, assoc) in &tc.relates {
            reference
                .relate(handles[*a], handles[*b], assoc)
                .expect("relate");
        }
        let mut stims = tc.stimuli.clone();
        stims.sort_by_key(|s| s.time);
        for s in &stims {
            reference
                .inject(s.time, handles[s.inst], &s.event, s.args.clone())
                .expect("inject");
        }
        let mut total = 0u64;
        while reference.step().expect("reference step") {
            total += 1;
            assert!(total < 1_000_000, "{name}: runaway reference run");
        }

        // Cut mid-ring: the snapshot serializes a partially-filled
        // ring (records plus payload/function side tables); restore
        // must rebuild it and continue byte-identically.
        let mut sim = Simulation::with_policy(domain, SchedPolicy::seeded(SEED));
        let mut handles = Vec::with_capacity(tc.creates.len());
        for class in &tc.creates {
            handles.push(sim.create(class).expect("create"));
        }
        for (a, b, assoc) in &tc.relates {
            sim.relate(handles[*a], handles[*b], assoc).expect("relate");
        }
        for s in &stims {
            sim.inject(s.time, handles[s.inst], &s.event, s.args.clone())
                .expect("inject");
        }
        for _ in 0..total / 2 {
            assert!(sim.step().expect("step before cut"));
        }
        let bytes = sim.snapshot();
        let mut restored =
            Simulation::restore(domain, &bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        while restored.step().expect("restored step") {}
        assert_eq!(
            restored.trace(),
            reference.trace(),
            "{name}: restored trace diverges"
        );
        assert_eq!(
            restored.trace().render(domain),
            reference.trace().render(domain),
            "{name}: restored render diverges"
        );
        assert_eq!(
            restored.snapshot(),
            reference.snapshot(),
            "{name}: re-snapshot"
        );
    }
}

#[test]
fn trace_off_records_nothing_but_execution_is_unchanged() {
    for (name, domain, tc) in &cases() {
        for &shards in shard_counts(domain) {
            let mut full = setup(domain, tc, shards, TraceMode::Full);
            full.run_to_quiescence(1)
                .unwrap_or_else(|e| panic!("{name}: full run failed: {e}"));
            let mut off = setup(domain, tc, shards, TraceMode::Off);
            off.run_to_quiescence(1)
                .unwrap_or_else(|e| panic!("{name}: off run failed: {e}"));
            assert_eq!(off.trace().len(), 0, "{name}: off-mode ring not empty");
            assert_eq!(
                off.now(),
                full.now(),
                "{name}: trace mode changed simulated time ({shards} shards)"
            );
            assert_eq!(
                off.dropped_events(),
                full.dropped_events(),
                "{name}: trace mode changed drop accounting ({shards} shards)"
            );
        }
    }
}
