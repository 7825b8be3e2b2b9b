//! VM conformance: every action in the toolchain runs on the one bytecode
//! VM, so this suite pins what it does on real inputs rather than
//! comparing it with a twin executor.
//!
//! Over the shipped golden model, the checked-in fuzz corpus and the
//! bench workload generators, across shards ∈ {1, 2, 4} × jobs ∈ {1, 2}
//! (the matrix the fuzzer also sweeps): transcripts are pinned to their
//! sequential text, and workload runs must dispatch a closed-form number
//! of signals and render the pinned trace for their shard count, for any
//! worker count. The pins were recorded while a second executor (the
//! compiled-frame walker) was still held byte-identical to the VM.

use std::path::Path;
use xtuml::cli::{cmd_run_with, RunOptions};
use xtuml_bench::workloads::{fanout_case, manycore_case, pipeline_domain, ring_case};
use xtuml_core::model::Domain;
use xtuml_core::value::Value;
use xtuml_exec::{SchedPolicy, ShardedSimulation, Trace};
use xtuml_verify::TestCase;

const SHARDS: [usize; 3] = [1, 2, 4];
const JOBS: [usize; 2] = [1, 2];

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Every on-disk (model, stimulus) pair with its pinned transcript: the
/// golden doorbell model plus the minimized fuzz-corpus witnesses.
fn disk_cases() -> Vec<(String, String, String, &'static str)> {
    let mut cases = vec![(
        "doorbell".to_owned(),
        read("models/doorbell.xtuml"),
        read("models/doorbell.stim"),
        "ran to quiescence at t=1252 (9 dispatches)\n\
         SPEAKER.chime(1)\nSPEAKER.chime(2)\nSPEAKER.chime(3)\n",
    )];
    for e in xtuml::fuzz::load_dir(Path::new("models/fuzz-corpus")).expect("corpus readable") {
        let want = match e.name.as_str() {
            "seed2" => {
                "ran to quiescence at t=10 (9 dispatches)\n\
                 O1.o0(false)\nO1.o0(false)\nO1.o0(false)\n"
            }
            "seed5" => "ran to quiescence at t=13 (2 dispatches)\nO0.o0()\nO0.o0()\nO1.o0()\n",
            other => panic!("corpus entry {other} has no pinned transcript"),
        };
        cases.push((format!("corpus/{}", e.name), e.model, e.stim, want));
    }
    cases
}

#[test]
fn disk_models_print_their_pinned_transcripts() {
    for (name, model, stim, want) in disk_cases() {
        for shards in SHARDS {
            for jobs in JOBS {
                for seed in [0u64, 7] {
                    let opts = RunOptions {
                        seed,
                        jobs,
                        shards: Some(shards),
                        // Conformance legs must compare full traces.
                        trace: xtuml_exec::TraceMode::Full,
                    };
                    let got = cmd_run_with(&model, &stim, opts)
                        .unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
                    assert_eq!(
                        got, want,
                        "{name}: transcript drifted at seed={seed} shards={shards} jobs={jobs}"
                    );
                }
            }
        }
    }
}

/// FNV-1a digest of a rendered trace.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bench workload generators, driven through the sharded engine, with
/// their closed-form dispatch counts and the digests of their rendered
/// traces at shards 1, 2 and 4.
fn workload_cases() -> Vec<(Domain, TestCase, usize, [u64; 3])> {
    let mut pipeline = TestCase::new("pipeline-4");
    for k in 0..4 {
        pipeline.create(&format!("Stage{k}"));
    }
    for k in 0..3 {
        pipeline.relate(k, k + 1, &format!("R{}", k + 1));
    }
    for i in 0..8 {
        pipeline.inject(i, 0, "Feed", vec![Value::Int(i as i64)]);
    }
    vec![
        // Every feed is consumed once per stage.
        (
            pipeline_domain(4).expect("pipeline builds"),
            pipeline,
            8 * 4,
            [
                0x01cc_dcbe_651b_3ccf,
                0x8131_5797_374a_0f1c,
                0x0b5a_d955_68be_d1fa,
            ],
        ),
        // Each burst: the dispatcher, then one `Work` and one `Done`
        // per worker.
        (
            xtuml_bench::workloads::fanout_domain(3),
            fanout_case(3, 4),
            4 * (1 + 2 * 3),
            [
                0x33e1_e34d_a4cb_380b,
                0xe150_9a0f_3fcd_e45c,
                0x5651_51fa_9ae5_47e5,
            ],
        ),
        // One token, hops 9 down to 0.
        (
            xtuml_bench::workloads::ring_domain(4),
            ring_case(4, 9),
            10,
            [0xad61_2e4e_4501_c3c4; 3],
        ),
        // Every core counts its tick down from 6 to 0.
        (
            xtuml_bench::workloads::manycore_domain(4),
            manycore_case(4, 6),
            4 * 7,
            [
                0xb254_e789_49cc_c97f,
                0xf53c_ef73_2762_1506,
                0xf8b4_49d0_510c_a94a,
            ],
        ),
    ]
}

fn run_trace(domain: &Domain, tc: &TestCase, shards: usize, jobs: usize) -> Trace {
    let policy = SchedPolicy::seeded(0).with_shards(shards);
    let mut sim = ShardedSimulation::with_policy(domain, policy);
    let insts: Vec<_> = tc
        .creates
        .iter()
        .map(|c| sim.create(c).expect("create"))
        .collect();
    for (a, b, assoc) in &tc.relates {
        sim.relate(insts[*a], insts[*b], assoc).expect("relate");
    }
    for s in &tc.stimuli {
        sim.inject(s.time, insts[s.inst], &s.event, s.args.clone())
            .expect("inject");
    }
    sim.run_to_quiescence(jobs).expect("run");
    sim.trace().clone()
}

#[test]
fn workload_traces_match_closed_form_dispatch_counts() {
    for (domain, tc, dispatches, digests) in workload_cases() {
        for (shards, want) in SHARDS.into_iter().zip(digests) {
            let trace = run_trace(&domain, &tc, shards, 1);
            assert_eq!(
                trace.dispatch_count(),
                dispatches,
                "{}: dispatch count at shards={shards}",
                tc.name
            );
            assert_eq!(
                digest(&trace.render(&domain)),
                want,
                "{}: rendered trace drifted at shards={shards}",
                tc.name
            );
            for jobs in JOBS {
                assert_eq!(
                    run_trace(&domain, &tc, shards, jobs),
                    trace,
                    "{}: trace depends on jobs at shards={shards} jobs={jobs}",
                    tc.name
                );
            }
        }
    }
}

#[test]
fn unflagged_run_prints_the_pinned_doorbell_transcript() {
    // A plain run must keep printing the bytes every release printed.
    let (_, model, stim, want) = disk_cases().remove(0);
    assert_eq!(
        cmd_run_with(&model, &stim, RunOptions::default()).unwrap(),
        want
    );
}

/// A model whose only action has 65,536 frame slots (one per event
/// parameter), one more than the VM's u16 operands address, with a
/// script that creates an instance and sends it that event.
fn unencodable_model() -> (String, String) {
    const SLOTS: usize = u16::MAX as usize + 1;
    let params: Vec<String> = (0..SLOTS).map(|i| format!("p{i}: int")).collect();
    let model = format!(
        "domain Wide;\nclass C {{ event Go({}); initial S;\n\
         state S {{ }} state T {{ }}\non S: Go -> T; }}\n",
        params.join(", ")
    );
    let stim = format!("create c C\nat 0 c Go {}\n", vec!["0"; SLOTS].join(" "));
    (model, stim)
}

#[test]
fn an_unencodable_action_loads_and_fails_at_dispatch_with_x0016() {
    let (model, stim) = unencodable_model();
    let domain = xtuml_lang::parse_domain(&model).expect("the model is valid");
    let mut sim = xtuml_exec::Simulation::new(&domain);
    let c = sim.create("C").expect("the model loads");
    sim.inject(0, c, "Go", vec![Value::Int(0); u16::MAX as usize + 1])
        .expect("inject");
    let err = sim.run_to_quiescence().unwrap_err().to_string();
    assert!(err.contains("X0016") && err.contains("u16"), "{err}");

    // The CLI reports the same error and exits non-zero.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (model_path, stim_path) = (dir.join("wide.xtuml"), dir.join("wide.stim"));
    std::fs::write(&model_path, &model).unwrap();
    std::fs::write(&stim_path, &stim).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtuml"))
        .arg("run")
        .arg(&model_path)
        .arg(&stim_path)
        .output()
        .expect("the xtuml binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "run must fail: {stderr}");
    assert!(
        stderr.contains("X0016") && stderr.contains("u16"),
        "{stderr}"
    );
}
