//! Determinism contract of the sharded engine.
//!
//! The guarantee under test: a sharded run's trace is a pure function of
//! `(seed, shards)` — the worker count (`jobs`) must never appear in the
//! output. Single-shard runs must reproduce the classic sequential
//! schedule byte-for-byte, and on confluent models the observable
//! projection must agree between the sequential and sharded schedules.

use xtuml_core::builder::{pipeline_domain, DomainBuilder};
use xtuml_core::ids::InstId;
use xtuml_core::model::Domain;
use xtuml_core::value::{DataType, Value};
use xtuml_exec::{shard_safety, SchedPolicy, ShardedSimulation, Simulation};

const SEEDS: u64 = 16;

/// Runs the sharded pipeline and renders its full trace.
fn sharded_pipeline_trace(
    domain: &Domain,
    stages: usize,
    seed: u64,
    shards: usize,
    jobs: usize,
) -> String {
    let policy = SchedPolicy::seeded(seed).with_shards(shards);
    let mut sim = ShardedSimulation::with_policy(domain, policy);
    let insts: Vec<_> = (0..stages)
        .map(|k| sim.create(&format!("Stage{k}")).unwrap())
        .collect();
    for k in 0..stages - 1 {
        sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
            .unwrap();
    }
    for i in 0..12 {
        sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
            .unwrap();
    }
    sim.run_to_quiescence(jobs).unwrap();
    sim.trace().render(domain)
}

#[test]
fn trace_is_invariant_under_worker_count() {
    let stages = 6;
    let domain = pipeline_domain(stages).unwrap();
    for shards in [2, 4, 8] {
        for seed in 0..SEEDS {
            let reference = sharded_pipeline_trace(&domain, stages, seed, shards, 1);
            for jobs in [2, 4, 8] {
                let got = sharded_pipeline_trace(&domain, stages, seed, shards, jobs);
                assert_eq!(
                    reference, got,
                    "seed {seed} shards {shards}: jobs=1 vs jobs={jobs} diverged"
                );
            }
        }
    }
}

#[test]
fn single_shard_reproduces_the_sequential_schedule() {
    let stages = 5;
    let domain = pipeline_domain(stages).unwrap();
    for seed in 0..SEEDS {
        let sharded = sharded_pipeline_trace(&domain, stages, seed, 1, 4);
        let mut sim = Simulation::with_policy(&domain, SchedPolicy::seeded(seed));
        let insts: Vec<_> = (0..stages)
            .map(|k| sim.create(&format!("Stage{k}")).unwrap())
            .collect();
        for k in 0..stages - 1 {
            sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                .unwrap();
        }
        for i in 0..12 {
            sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
                .unwrap();
        }
        sim.run_to_quiescence().unwrap();
        assert_eq!(
            sim.trace().render(&domain),
            sharded,
            "seed {seed}: shards=1 must replay the sequential engine exactly"
        );
    }
}

#[test]
fn sharded_runs_are_reproducible_and_distinct_across_shard_counts() {
    let stages = 6;
    let domain = pipeline_domain(stages).unwrap();
    for seed in 0..4 {
        let a = sharded_pipeline_trace(&domain, stages, seed, 4, 2);
        let b = sharded_pipeline_trace(&domain, stages, seed, 4, 2);
        assert_eq!(a, b, "same (seed, shards) must reproduce");
    }
}

#[test]
fn observable_output_agrees_between_sequential_and_sharded() {
    // The pipeline is confluent: every legal interleaving produces the
    // same observable outputs in the same order. The sharded schedule is
    // one more legal interleaving, so its observable projection must
    // match the sequential one.
    let stages = 6;
    let domain = pipeline_domain(stages).unwrap();
    let run_observable = |shards: usize, seed: u64| {
        let policy = SchedPolicy::seeded(seed).with_shards(shards);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        let insts: Vec<_> = (0..stages)
            .map(|k| sim.create(&format!("Stage{k}")).unwrap())
            .collect();
        for k in 0..stages - 1 {
            sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                .unwrap();
        }
        for i in 0..12 {
            sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
                .unwrap();
        }
        sim.run_to_quiescence(2).unwrap();
        sim.trace().observable(&domain)
    };
    let sequential = run_observable(1, 0);
    assert!(!sequential.is_empty());
    for shards in [2, 4, 8] {
        for seed in 0..4 {
            assert_eq!(
                run_observable(shards, seed),
                sequential,
                "confluent pipeline must produce identical observables (shards {shards}, seed {seed})"
            );
        }
    }
}

#[test]
fn sharded_runs_preserve_causality() {
    let stages = 8;
    let domain = pipeline_domain(stages).unwrap();
    for (shards, seed) in [(2, 1u64), (4, 7), (8, 13)] {
        let policy = SchedPolicy::seeded(seed).with_shards(shards);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        let insts: Vec<_> = (0..stages)
            .map(|k| sim.create(&format!("Stage{k}")).unwrap())
            .collect();
        for k in 0..stages - 1 {
            sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                .unwrap();
        }
        for i in 0..20 {
            sim.inject(i, insts[0], "Feed", vec![Value::Int(0)])
                .unwrap();
        }
        sim.run_to_quiescence(4).unwrap();
        assert_eq!(
            sim.trace().causality_violations(),
            0,
            "shards {shards} seed {seed}"
        );
    }
}

#[test]
fn shard_local_livelock_errors_instead_of_hanging() {
    // An action that unconditionally signals itself never quiesces, so
    // the shard's epoch can never end. The epoch must enforce the step
    // budget itself — the sequential engine errors with the same
    // message — and the error must be jobs-invariant like everything
    // else.
    let mut b = DomainBuilder::new("m");
    b.class("L")
        .event("Tick", &[])
        .state("Idle", "")
        .state("Spin", "gen Tick() to self;")
        .initial("Idle")
        .transition("Idle", "Tick", "Spin")
        .transition("Spin", "Tick", "Spin");
    let domain = b.build().unwrap();
    shard_safety(&domain).unwrap();

    let run = |shards: usize, jobs: usize| {
        let policy = SchedPolicy::seeded(0).with_shards(shards);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        sim.set_max_steps(10_000);
        let insts: Vec<_> = (0..4).map(|_| sim.create("L").unwrap()).collect();
        for t in &insts {
            sim.inject(0, *t, "Tick", vec![]).unwrap();
        }
        sim.run_to_quiescence(jobs).unwrap_err().to_string()
    };
    for shards in [2usize, 4] {
        let reference = run(shards, 1);
        assert!(reference.contains("livelock"), "{reference}");
        for jobs in [2usize, 4] {
            assert_eq!(reference, run(shards, jobs), "shards {shards}");
        }
    }
}

#[test]
fn shard_safety_accepts_signal_only_models_and_rejects_mutation() {
    let domain = pipeline_domain(4).unwrap();
    shard_safety(&domain).unwrap();

    // Creating a class something selects over is rejected (the created
    // instance would be visible to other shards' selects)...
    let mut b = DomainBuilder::new("m");
    b.class("Spawner")
        .event("Go", &[])
        .event("Probe", &[])
        .state("Idle", "")
        .state("Spawning", "v = create Spawner;")
        .state("Probing", "select many vs from Spawner;")
        .initial("Idle")
        .transition("Idle", "Go", "Spawning")
        .transition("Spawning", "Probe", "Probing");
    let err = shard_safety(&b.build().unwrap()).unwrap_err();
    assert!(err.to_string().contains("creates an instance"), "{err}");

    // ...a *confined* create (nothing selects the class) is admitted...
    let mut b = DomainBuilder::new("m");
    b.class("Spawner")
        .event("Go", &[])
        .state("Idle", "")
        .state("Spawning", "v = create Spawner;")
        .initial("Idle")
        .transition("Idle", "Go", "Spawning");
    shard_safety(&b.build().unwrap()).unwrap();

    // ...and writing another instance's attribute through a `select`
    // binding stays rejected: no shard placement makes it local.
    let mut b = DomainBuilder::new("m");
    b.class("Writer")
        .attr("x", DataType::Int)
        .event("Go", &[])
        .state("Idle", "")
        .state("Writing", "select any o from Writer;\no.x = 1;")
        .initial("Idle")
        .transition("Idle", "Go", "Writing");
    let err = shard_safety(&b.build().unwrap()).unwrap_err();
    assert!(err.to_string().contains("non-self attribute"), "{err}");
}

#[test]
fn unsafe_model_is_rejected_before_running() {
    // `delete` is never admitted: other shards replicate the population
    // and would keep dispatching to the deleted instance.
    let mut b = DomainBuilder::new("m");
    b.class("Reaper")
        .event("Go", &[])
        .state("Idle", "")
        .state("Reaping", "select any v from Reaper;\ndelete v;")
        .initial("Idle")
        .transition("Idle", "Go", "Reaping");
    let domain = b.build().unwrap();
    let policy = SchedPolicy::seeded(0).with_shards(4);
    let mut sim = ShardedSimulation::with_policy(&domain, policy);
    let s = sim.create("Reaper").unwrap();
    sim.inject(0, s, "Go", vec![]).unwrap();
    let err = sim.run_to_quiescence(2).unwrap_err();
    assert!(err.to_string().contains("not shard-safe"), "{err}");
}

/// A model admitted by the effect analysis (confined create + write to
/// the created instance): it must actually run sharded, stay
/// jobs-invariant, and allocate shard-congruent ids.
#[test]
fn admitted_create_runs_sharded_and_is_jobs_invariant() {
    let mut b = DomainBuilder::new("m");
    b.actor("OUT").event("spawned", &[("tag", DataType::Int)]);
    b.class("P")
        .event("Go", &[("tag", DataType::Int)])
        .state("Idle", "")
        .state(
            "Spawning",
            "k = create K;\nk.x = rcvd.tag;\ngen spawned(k.x) to OUT;",
        )
        .initial("Idle")
        .transition("Idle", "Go", "Spawning");
    b.class("K").attr("x", DataType::Int);
    let domain = b.build().unwrap();
    shard_safety(&domain).unwrap();

    let run = |shards: usize, jobs: usize| {
        let policy = SchedPolicy::seeded(7).with_shards(shards);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        let insts: Vec<_> = (0..6).map(|_| sim.create("P").unwrap()).collect();
        for (i, p) in insts.iter().enumerate() {
            sim.inject(0, *p, "Go", vec![Value::Int(i as i64)]).unwrap();
        }
        sim.run_to_quiescence(jobs).unwrap();
        assert!(sim.runtime_fallback().is_none());
        (sim.trace().render(&domain), sim.trace().observable(&domain))
    };
    for shards in [2usize, 4] {
        let (trace_j1, obs_j1) = run(shards, 1);
        for jobs in [2usize, 4] {
            let (trace_jn, obs_jn) = run(shards, jobs);
            assert_eq!(trace_j1, trace_jn, "shards {shards} jobs {jobs}");
            assert_eq!(obs_j1, obs_jn);
        }
        // Every spawner reported the tag it stored in its private K —
        // creation is shard-local, so no write was lost or aliased.
        let mut tags: Vec<i64> = obs_j1.iter().map(|o| o.args[0].as_int().unwrap()).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..6).collect::<Vec<i64>>(), "shards {shards}");
    }
}

/// Colocation-admitted navigation: the model writes a child attribute
/// only via one association. With colocated links it runs sharded; with
/// a link crossing shards it silently delegates to the sequential
/// engine and reports why.
#[test]
fn coloc_admission_checks_links_at_runtime() {
    let mut b = DomainBuilder::new("m");
    b.actor("OUT").event("sum", &[("v", DataType::Int)]);
    b.class("P")
        .event("Go", &[("v", DataType::Int)])
        .state("Idle", "")
        .state(
            "Writing",
            "any(self -> C[R1]).w = rcvd.v;\ngen sum(any(self -> C[R1]).w) to OUT;",
        )
        .initial("Idle")
        .transition("Idle", "Go", "Writing");
    b.class("C").attr("w", DataType::Int);
    b.association(
        "R1",
        "P",
        xtuml_core::model::Multiplicity::One,
        "C",
        xtuml_core::model::Multiplicity::One,
    );
    let domain = b.build().unwrap();
    shard_safety(&domain).unwrap();

    // Colocated population: parent 2k and child 2k+1 share a shard at
    // shards=2? No — 2k and 2k+1 differ mod 2. Interleave so pairs are
    // (0,2), (1,3): same parity, same shard at shards=2.
    let run = |coloc: bool, jobs: usize| {
        let policy = SchedPolicy::seeded(5).with_shards(2);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        if coloc {
            let p0 = sim.create("P").unwrap(); // id 0
            let p1 = sim.create("P").unwrap(); // id 1
            let c0 = sim.create("C").unwrap(); // id 2
            let c1 = sim.create("C").unwrap(); // id 3
            sim.relate(p0, c0, "R1").unwrap(); // 0-2: same shard
            sim.relate(p1, c1, "R1").unwrap(); // 1-3: same shard
            sim.inject(0, p0, "Go", vec![Value::Int(10)]).unwrap();
            sim.inject(0, p1, "Go", vec![Value::Int(20)]).unwrap();
        } else {
            let p0 = sim.create("P").unwrap(); // id 0
            let c0 = sim.create("C").unwrap(); // id 1: crosses shards
            sim.relate(p0, c0, "R1").unwrap();
            sim.inject(0, p0, "Go", vec![Value::Int(10)]).unwrap();
        }
        sim.run_to_quiescence(jobs).unwrap();
        let fb = sim.runtime_fallback().map(str::to_owned);
        (sim.trace().render(&domain), fb)
    };
    let (t1, fb1) = run(true, 1);
    let (t2, fb2) = run(true, 2);
    assert_eq!(t1, t2, "colocated run must be jobs-invariant");
    assert!(fb1.is_none() && fb2.is_none());
    assert!(t1.contains("sum"), "{t1}");

    let (_, fb) = run(false, 2);
    let reason = fb.expect("cross-shard link must trigger runtime fallback");
    assert!(reason.contains("R1"), "{reason}");
}

/// Sets up the standard pipeline workload on a sharded simulation.
fn setup_pipeline(sim: &mut ShardedSimulation<'_>, stages: usize) {
    let insts: Vec<_> = (0..stages)
        .map(|k| sim.create(&format!("Stage{k}")).unwrap())
        .collect();
    for k in 0..stages - 1 {
        sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
            .unwrap();
    }
    for i in 0..12 {
        sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
            .unwrap();
    }
}

#[test]
fn epoch_paused_run_matches_uninterrupted_run() {
    // run_epochs(jobs, 1) pauses at every barrier; driving the run one
    // epoch at a time must reproduce the uninterrupted trace exactly.
    let stages = 6;
    let domain = pipeline_domain(stages).unwrap();
    for (shards, seed) in [(2usize, 3u64), (4, 11)] {
        let reference = sharded_pipeline_trace(&domain, stages, seed, shards, 2);
        let policy = SchedPolicy::seeded(seed).with_shards(shards);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        setup_pipeline(&mut sim, stages);
        let mut pauses = 0u32;
        while sim.run_epochs(2, 1).unwrap().is_none() {
            pauses += 1;
            assert!(pauses < 10_000, "runaway epoch loop");
        }
        assert!(pauses > 0, "pipeline must take more than one epoch");
        assert!(sim.runtime_fallback().is_none());
        assert_eq!(sim.trace().render(&domain), reference, "shards {shards}");
    }
}

#[test]
fn snapshot_at_every_barrier_restores_byte_identically() {
    // Snapshot + restore at every epoch barrier, continuing each time in
    // the restored engine: the final trace must be byte-identical to an
    // uninterrupted run, and re-snapshotting a restored engine must
    // reproduce the snapshot bytes exactly.
    let stages = 6;
    let domain = pipeline_domain(stages).unwrap();
    for (shards, seed) in [(2usize, 3u64), (4, 11)] {
        let reference = sharded_pipeline_trace(&domain, stages, seed, shards, 2);
        let policy = SchedPolicy::seeded(seed).with_shards(shards);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        setup_pipeline(&mut sim, stages);
        let mut restores = 0u32;
        let total = loop {
            match sim.run_epochs(2, 1).unwrap() {
                Some(total) => break total,
                None => {
                    let bytes = sim.snapshot();
                    sim = ShardedSimulation::restore(&domain, &bytes).unwrap();
                    assert_eq!(sim.snapshot(), bytes, "re-snapshot must be stable");
                    restores += 1;
                    assert!(restores < 10_000, "runaway epoch loop");
                }
            }
        };
        assert!(restores > 0 && total > 0);
        assert_eq!(sim.trace().render(&domain), reference, "shards {shards}");

        // A post-quiescence snapshot round-trips the finished run too.
        let done = sim.snapshot();
        let back = ShardedSimulation::restore(&domain, &done).unwrap();
        assert_eq!(back.trace().render(&domain), reference);
        assert_eq!(back.now(), sim.now());
    }
}

#[test]
fn sharded_snapshot_preserves_timers_and_metrics() {
    // Timer-armed model: pause/snapshot/restore at every barrier while
    // timers are pending, with a recorder attached; the trace and the
    // deterministic metrics must match the uninterrupted run.
    let mut b = DomainBuilder::new("m");
    b.actor("OUT").event("fired", &[("tag", DataType::Int)]);
    b.class("T")
        .event("Arm", &[("tag", DataType::Int)])
        .event("Disarm", &[])
        .event("Late", &[("tag", DataType::Int)])
        .state("Idle", "")
        .state("Armed", "gen Late(rcvd.tag) to self after 10;")
        .state("Safe", "cancel Late;")
        .state("Fired", "gen fired(rcvd.tag) to OUT;")
        .initial("Idle")
        .transition("Idle", "Arm", "Armed")
        .transition("Armed", "Disarm", "Safe")
        .transition("Armed", "Late", "Fired");
    let domain = b.build().unwrap();
    let setup = |sim: &mut ShardedSimulation<'_>| {
        let insts: Vec<_> = (0..4).map(|_| sim.create("T").unwrap()).collect();
        for (i, t) in insts.iter().enumerate() {
            sim.inject(0, *t, "Arm", vec![Value::Int(i as i64)])
                .unwrap();
        }
        sim.inject(1, insts[2], "Disarm", vec![]).unwrap();
    };

    let policy = SchedPolicy::seeded(3).with_shards(4);
    let mut plain = ShardedSimulation::with_policy(&domain, policy);
    plain.attach_recorder(xtuml_obs::Recorder::new());
    setup(&mut plain);
    plain.run_to_quiescence(2).unwrap();
    let want_trace = plain.trace().render(&domain);
    let want_metrics = plain.take_recorder().unwrap().metrics.to_json();

    let mut sim = ShardedSimulation::with_policy(&domain, policy);
    sim.attach_recorder(xtuml_obs::Recorder::new());
    setup(&mut sim);
    let mut restores = 0u32;
    while sim.run_epochs(2, 1).unwrap().is_none() {
        let bytes = sim.snapshot();
        sim = ShardedSimulation::restore(&domain, &bytes).unwrap();
        restores += 1;
        assert!(restores < 10_000, "runaway epoch loop");
    }
    assert!(restores > 0);
    assert_eq!(sim.trace().render(&domain), want_trace);
    assert_eq!(
        sim.take_recorder().unwrap().metrics.to_json(),
        want_metrics,
        "deterministic metrics must survive snapshot/restore"
    );
}

#[test]
fn timers_and_cancellation_work_sharded() {
    // One instance per shard arms a timer; one disarms before it fires.
    let mut b = DomainBuilder::new("m");
    b.actor("OUT").event("fired", &[("tag", DataType::Int)]);
    b.class("T")
        .event("Arm", &[("tag", DataType::Int)])
        .event("Disarm", &[])
        .event("Late", &[("tag", DataType::Int)])
        .state("Idle", "")
        .state("Armed", "gen Late(rcvd.tag) to self after 10;")
        .state("Safe", "cancel Late;")
        .state("Fired", "gen fired(rcvd.tag) to OUT;")
        .initial("Idle")
        .transition("Idle", "Arm", "Armed")
        .transition("Armed", "Disarm", "Safe")
        .transition("Armed", "Late", "Fired");
    let domain = b.build().unwrap();
    let run = |shards: usize, jobs: usize| {
        let policy = SchedPolicy::seeded(3).with_shards(shards);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        let insts: Vec<_> = (0..4).map(|_| sim.create("T").unwrap()).collect();
        for (i, t) in insts.iter().enumerate() {
            sim.inject(0, *t, "Arm", vec![Value::Int(i as i64)])
                .unwrap();
        }
        // Disarm instance 2 before its timer can fire.
        sim.inject(1, insts[2], "Disarm", vec![]).unwrap();
        sim.run_to_quiescence(jobs).unwrap();
        (sim.trace().render(&domain), sim.trace().observable(&domain))
    };
    let (trace_j1, obs) = run(4, 1);
    let (trace_j4, obs_j4) = run(4, 4);
    assert_eq!(trace_j1, trace_j4, "timer traces must be jobs-invariant");
    assert_eq!(obs, obs_j4);
    let tags: Vec<i64> = obs.iter().map(|o| o.args[0].as_int().unwrap()).collect();
    assert_eq!(tags.len(), 3, "three timers fire, one was cancelled");
    assert!(!tags.contains(&2), "cancelled timer must not fire");
}

/// The pipeline setup plus one unrelated `Stage0`/`Stage1` pair, so a
/// late `relate` has something legal to link. Returns the pair.
fn setup_with_spare_pair(sim: &mut ShardedSimulation<'_>, stages: usize) -> (InstId, InstId) {
    setup_pipeline(sim, stages);
    (sim.create("Stage0").unwrap(), sim.create("Stage1").unwrap())
}

fn spare_pair_trace(domain: &Domain, stages: usize, shards: usize) -> String {
    let policy = SchedPolicy::seeded(5).with_shards(shards);
    let mut sim = ShardedSimulation::with_policy(domain, policy);
    setup_with_spare_pair(&mut sim, stages);
    sim.run_to_quiescence(2).unwrap();
    sim.trace().render(domain)
}

#[test]
fn inject_rejects_past_times_like_the_sequential_engine() {
    let stages = 6;
    let domain = pipeline_domain(stages).unwrap();
    for shards in [1usize, 4] {
        let policy = SchedPolicy::seeded(5).with_shards(shards);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        setup_pipeline(&mut sim, stages);
        // shards=1 finishes in one call; shards=4 pauses at a barrier.
        sim.run_epochs(2, 1).unwrap();
        assert!(sim.now() > 0, "shards {shards}");
        let err = sim
            .inject(0, InstId::new(0), "Feed", vec![Value::Int(0)])
            .unwrap_err();
        let want = format!("cannot inject at past time 0 (now {})", sim.now());
        assert!(err.to_string().contains(&want), "shards {shards}: {err}");

        // The same check and text as the sequential engine's.
        let mut seq = Simulation::with_policy(&domain, SchedPolicy::seeded(5));
        let last = seq.create(&format!("Stage{}", stages - 1)).unwrap();
        seq.inject(3, last, "Feed", vec![Value::Int(0)]).unwrap();
        seq.run_to_quiescence().unwrap();
        let seq_err = seq
            .inject(0, last, "Feed", vec![Value::Int(0)])
            .unwrap_err();
        let seq_want = format!("cannot inject at past time 0 (now {})", seq.now());
        assert!(seq_err.to_string().contains(&seq_want), "{seq_err}");
    }
}

#[test]
fn setup_is_closed_once_the_run_starts() {
    // Setup made while the run is paused at a barrier (or after it
    // finished) would never reach the engine, so it is an error — and
    // the rejected calls leave the run intact: resuming still produces
    // the uninterrupted trace.
    let stages = 6;
    let domain = pipeline_domain(stages).unwrap();
    for shards in [1usize, 4] {
        let reference = spare_pair_trace(&domain, stages, shards);
        let policy = SchedPolicy::seeded(5).with_shards(shards);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        let (a, b) = setup_with_spare_pair(&mut sim, stages);
        let paused = sim.run_epochs(2, 1).unwrap().is_none();
        assert_eq!(paused, shards > 1, "shards {shards}");
        let later = sim.now() + 5;
        let errors = [
            sim.create("Stage0").map(|_| ()),
            sim.relate(a, b, "R1"),
            sim.inject(later, a, "Feed", vec![Value::Int(0)]),
        ];
        for e in errors {
            let e = e.expect_err("setup after the run started must fail");
            assert!(e.to_string().contains("run has started"), "{e}");
        }
        sim.run_to_quiescence(2).unwrap();
        assert_eq!(sim.trace().render(&domain), reference, "shards {shards}");

        // A restored paused or finished run keeps setup closed too.
        let mut back = ShardedSimulation::restore(&domain, &sim.snapshot()).unwrap();
        assert!(back.create("Stage0").is_err(), "shards {shards}");
    }
}

#[test]
fn a_finished_run_is_not_run_again() {
    // A second run_to_quiescence after quiescence does nothing, as on
    // the sequential engine: no rewind of time or trace, no setup
    // totals counted twice.
    let stages = 6;
    let domain = pipeline_domain(stages).unwrap();
    for shards in [1usize, 4] {
        let policy = SchedPolicy::seeded(5).with_shards(shards);
        let mut sim = ShardedSimulation::with_policy(&domain, policy);
        sim.attach_recorder(xtuml_obs::Recorder::new());
        setup_pipeline(&mut sim, stages);
        assert!(sim.run_to_quiescence(2).unwrap() > 0);
        let (now, trace) = (sim.now(), sim.trace().clone());
        let rec = sim.take_recorder().unwrap();
        let metrics = rec.metrics.to_json();
        assert_eq!(
            rec.metrics.get(xtuml_obs::Counter::InstancesCreated),
            stages as u64
        );
        sim.attach_recorder(rec);

        assert_eq!(sim.run_to_quiescence(2).unwrap(), 0, "shards {shards}");
        assert_eq!(sim.run_epochs(2, 1).unwrap(), Some(0), "shards {shards}");
        assert_eq!(sim.now(), now, "shards {shards}");
        assert_eq!(sim.trace(), &trace, "shards {shards}");
        assert_eq!(
            sim.take_recorder().unwrap().metrics.to_json(),
            metrics,
            "shards {shards}"
        );

        // The finished state survives a snapshot round trip.
        let mut back = ShardedSimulation::restore(&domain, &sim.snapshot()).unwrap();
        assert_eq!(back.run_to_quiescence(2).unwrap(), 0, "shards {shards}");
        assert_eq!((back.now(), back.trace()), (now, &trace), "shards {shards}");
    }
}
