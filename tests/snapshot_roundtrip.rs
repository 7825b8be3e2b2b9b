//! Snapshot/restore conformance sweep (DESIGN §15).
//!
//! The snapshot contract: `restore(snapshot(sim))` continues
//! **byte-identically** to an uninterrupted run, at any legal capture
//! point — any dispatch boundary for the sequential engine, any epoch
//! barrier for the sharded one. This suite locks the contract across the
//! checked-in fuzz corpus plus a sweep of generated models, at shard
//! counts 1, 2 and 4, and checks the failure side too: corrupted or
//! truncated snapshots must decode to a structured [`SnapError`], never
//! a panic or a silently wrong simulation.

use std::path::Path;
use xtuml_core::{AssocId, Domain};
use xtuml_exec::{SchedPolicy, ShardedSimulation, Simulation, SnapError};
use xtuml_fuzz::{generate, load_dir, parse_stim};
use xtuml_lang::parse_domain;
use xtuml_verify::TestCase;

/// Generated-model sweep width (seeds `0..FUZZ_SEEDS`).
const FUZZ_SEEDS: u64 = 32;

/// Scheduler seed for every run in this suite; any value works, the
/// point is that both sides of each comparison share it.
const SEED: u64 = 7;

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

fn setup_seq<'d>(domain: &'d Domain, tc: &TestCase) -> Simulation<'d> {
    let mut sim = Simulation::with_policy(domain, SchedPolicy::seeded(SEED));
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

#[test]
fn sequential_snapshots_restore_byte_identically_at_every_cut() {
    for (name, domain, tc) in &cases() {
        // The uninterrupted reference run, stepped so the dispatch count
        // is known.
        let mut reference = setup_seq(domain, tc);
        let mut total = 0u64;
        while reference.step().expect("reference step") {
            total += 1;
            assert!(total < 1_000_000, "{name}: runaway reference run");
        }
        let want = reference.trace().clone();

        // Cut the run at the start, after one dispatch, and mid-stream;
        // restore must continue to the identical trace each time.
        for cut in [0, 1.min(total), total / 2] {
            let mut sim = setup_seq(domain, tc);
            for _ in 0..cut {
                assert!(sim.step().expect("step before cut"));
            }
            let bytes = sim.snapshot();
            let mut restored = Simulation::restore(domain, &bytes)
                .unwrap_or_else(|e| panic!("{name}: restore at cut {cut} failed: {e}"));
            assert_eq!(
                restored.snapshot(),
                bytes,
                "{name}: re-snapshot differs at cut {cut}"
            );
            restored
                .run_to_quiescence()
                .expect("continue after restore");
            assert_eq!(
                restored.trace(),
                &want,
                "{name}: trace diverged after restore at cut {cut}"
            );
        }

        // At quiescence the snapshot is a fixed point: the restored
        // simulation has nothing left to do and the trace is complete.
        let bytes = reference.snapshot();
        let mut restored = Simulation::restore(domain, &bytes).expect("restore at quiescence");
        assert_eq!(restored.run_to_quiescence().expect("idle run"), 0, "{name}");
        assert_eq!(restored.trace(), &want, "{name}: quiescent trace differs");
    }
}

/// Per-class create residues satisfying the sharded engine's colocation
/// precondition (mirrors the fuzz runner's padding scheme): classes
/// joined by a colocation association share a residue, distinct
/// components round-robin so the population still spreads over shards.
fn coloc_residues(domain: &Domain, coloc: &[AssocId]) -> Vec<usize> {
    let n = domain.classes.len();
    let mut rep: Vec<usize> = (0..n).collect();
    fn root(rep: &mut [usize], mut c: usize) -> usize {
        while rep[c] != c {
            rep[c] = rep[rep[c]];
            c = rep[c];
        }
        c
    }
    for &a in coloc {
        let assoc = domain.association(a);
        let (x, y) = (
            root(&mut rep, assoc.from.index()),
            root(&mut rep, assoc.to.index()),
        );
        rep[x] = y;
    }
    let mut assigned: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    (0..n)
        .map(|c| {
            let r = root(&mut rep, c);
            let next = assigned.len();
            *assigned.entry(r).or_insert(next) % 8
        })
        .collect()
}

fn setup_sharded<'d>(
    domain: &'d Domain,
    tc: &TestCase,
    residues: &[usize],
    shards: usize,
) -> ShardedSimulation<'d> {
    let mut sim =
        ShardedSimulation::with_policy(domain, SchedPolicy::seeded(SEED).with_shards(shards));
    let mut handles = Vec::with_capacity(tc.creates.len());
    let mut next = 0usize;
    for class in &tc.creates {
        let want = residues[domain.class_id(class).expect("class").index()];
        while next % 8 != want {
            sim.create(class).expect("pad create");
            next += 1;
        }
        handles.push(sim.create(class).expect("create"));
        next += 1;
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

#[test]
fn sharded_snapshots_restore_byte_identically_at_epoch_barriers() {
    let mut pauses = 0u64;
    for (name, domain, tc) in &cases() {
        let plan = xtuml_core::effects::analyze(domain);
        if !plan.admitted() {
            continue;
        }
        let coloc: Vec<AssocId> = plan.coloc_assocs.iter().copied().collect();
        let residues = coloc_residues(domain, &coloc);
        for shards in [1usize, 2, 4] {
            let mut reference = setup_sharded(domain, tc, &residues, shards);
            reference.run_to_quiescence(1).expect("reference run");
            if shards > 1 && reference.runtime_fallback().is_some() {
                continue;
            }
            let want = reference.trace().clone();

            // Pause at every epoch barrier, snapshot, tear the engine
            // down, rebuild it from the bytes and continue. (At shards
            // == 1 the engine delegates to the sequential schedule and
            // finishes in one call — the quiescent round trip below
            // still applies.)
            let mut sim = setup_sharded(domain, tc, &residues, shards);
            loop {
                match sim.run_epochs(1, 1).expect("epoch") {
                    Some(_) => break,
                    None => {
                        pauses += 1;
                        let bytes = sim.snapshot();
                        sim = ShardedSimulation::restore(domain, &bytes).unwrap_or_else(|e| {
                            panic!("{name} at {shards} shards: restore failed: {e}")
                        });
                        assert_eq!(
                            sim.snapshot(),
                            bytes,
                            "{name} at {shards} shards: re-snapshot differs"
                        );
                    }
                }
            }
            assert_eq!(
                sim.trace(),
                &want,
                "{name} at {shards} shards: trace diverged across restores"
            );

            // Quiescent snapshots round-trip too.
            let bytes = sim.snapshot();
            let restored =
                ShardedSimulation::restore(domain, &bytes).expect("restore at quiescence");
            assert_eq!(restored.trace(), &want, "{name}: quiescent trace differs");
        }
    }
    assert!(
        pauses >= 32,
        "only {pauses} epoch pauses across the sweep — the barrier path is undertested"
    );
}

#[test]
fn corrupt_and_truncated_snapshots_are_structured_errors() {
    let spec = generate(0);
    let domain = spec.lower().unwrap();
    let tc = spec.testcase();
    let mut sim = setup_seq(&domain, &tc);
    sim.run_to_quiescence().expect("run");
    let bytes = sim.snapshot();

    // Every strict prefix is a structured decode error, never a panic.
    for cut in 0..bytes.len() {
        assert!(
            Simulation::restore(&domain, &bytes[..cut]).is_err(),
            "prefix of {cut} bytes restored"
        );
    }

    // Header-field corruption maps to the specific error classes.
    assert_eq!(
        Simulation::restore(&domain, b"junk").unwrap_err(),
        SnapError::BadMagic
    );
    let mut v = bytes.clone();
    v[4] = 99; // version field
    assert_eq!(
        Simulation::restore(&domain, &v).unwrap_err(),
        SnapError::BadVersion(99)
    );
    let mut k = bytes.clone();
    k[8] = 7; // kind byte
    assert_eq!(
        Simulation::restore(&domain, &k).unwrap_err(),
        SnapError::BadKind(7)
    );

    // A sequential snapshot is not a sharded one, and vice versa.
    assert!(ShardedSimulation::restore(&domain, &bytes).is_err());
    let sharded = ShardedSimulation::with_policy(&domain, SchedPolicy::seeded(SEED).with_shards(2));
    assert!(Simulation::restore(&domain, &sharded.snapshot()).is_err());

    // A structurally different domain is a fingerprint mismatch.
    let other = generate(1).lower().unwrap();
    assert_eq!(
        Simulation::restore(&other, &bytes).unwrap_err(),
        SnapError::DomainMismatch
    );

    // Byte flips anywhere in the payload must decode to an error or to
    // some valid state — never panic, never allocate absurdly.
    for pos in (12..bytes.len()).step_by(3) {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0xFF;
        let _ = Simulation::restore(&domain, &flipped);
    }
}

/// Offset of the executor tag in both engines' snapshots: magic (4),
/// version (4), kind (1), domain fingerprint (8), then the policy — seed
/// (8), three flags (3), shard count (4).
const EXECUTOR_TAG: usize = 32;

/// Tag `1` (the bytecode VM) is what every snapshot writes; tag `0` was
/// written by runs on the retired compiled-frame walker, whose traces
/// were byte-identical, so it restores onto the VM too. Any other tag is
/// corrupt input.
fn check_executor_tags<S>(
    bytes: &[u8],
    restore: impl Fn(&[u8]) -> Result<S, SnapError>,
    finish: impl Fn(S) -> (xtuml_exec::Trace, Vec<u8>),
    want: &(xtuml_exec::Trace, Vec<u8>),
) {
    assert_eq!(bytes[EXECUTOR_TAG], 1, "snapshots write the VM tag");
    for tag in [0u8, 1] {
        let mut b = bytes.to_vec();
        b[EXECUTOR_TAG] = tag;
        let sim = restore(&b).unwrap_or_else(|e| panic!("tag {tag}: {e}"));
        assert!(
            finish(sim) == *want,
            "tag {tag}: run diverged after restore"
        );
    }
    for tag in [2u8, 3, 255] {
        let mut b = bytes.to_vec();
        b[EXECUTOR_TAG] = tag;
        assert!(
            matches!(restore(&b), Err(SnapError::Corrupt(_))),
            "tag {tag} must be a corrupt snapshot"
        );
    }
}

#[test]
fn executor_tags_restore_onto_the_vm_or_fail_as_corrupt() {
    // Sequential: cut mid-run, at a point with work still pending.
    let spec = generate(0);
    let domain = spec.lower().unwrap();
    let tc = spec.testcase();
    let mut reference = setup_seq(&domain, &tc);
    let mut total = 0u64;
    while reference.step().expect("reference step") {
        total += 1;
    }
    assert!(total >= 2, "the case must leave work after the cut");
    let want = (reference.trace().clone(), reference.snapshot());
    let mut sim = setup_seq(&domain, &tc);
    for _ in 0..total / 2 {
        assert!(sim.step().expect("step before cut"));
    }
    check_executor_tags(
        &sim.snapshot(),
        |b| Simulation::restore(&domain, b),
        |mut s| {
            s.run_to_quiescence().expect("restored run");
            (s.trace().clone(), s.snapshot())
        },
        &want,
    );

    // Sharded: paused at the first epoch barrier of an admitted model.
    let (domain, tc, residues) = (0..FUZZ_SEEDS)
        .find_map(|seed| {
            let spec = generate(seed);
            let domain = spec.lower().unwrap();
            let plan = xtuml_core::effects::analyze(&domain);
            let coloc: Vec<AssocId> = plan.coloc_assocs.iter().copied().collect();
            let residues = coloc_residues(&domain, &coloc);
            let tc = spec.testcase();
            let mut probe = setup_sharded(&domain, &tc, &residues, 2);
            let pauses = plan.admitted() && probe.run_epochs(1, 1).expect("epoch").is_none();
            pauses.then_some((domain, tc, residues))
        })
        .expect("some generated model pauses at an epoch barrier");
    let mut reference = setup_sharded(&domain, &tc, &residues, 2);
    reference.run_to_quiescence(1).expect("reference run");
    let want = (reference.trace().clone(), reference.snapshot());
    let mut sim = setup_sharded(&domain, &tc, &residues, 2);
    assert!(sim.run_epochs(1, 1).expect("epoch").is_none());
    check_executor_tags(
        &sim.snapshot(),
        |b| ShardedSimulation::restore(&domain, b),
        |mut s| {
            s.run_to_quiescence(1).expect("restored run");
            (s.trace().clone(), s.snapshot())
        },
        &want,
    );
}
