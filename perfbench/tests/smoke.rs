//! Tiny-size runs of every workload through its correctness gate, and
//! exact counts that must not move unless the model semantics do.

use std::path::PathBuf;

use xtuml_exec::{SchedPolicy, Simulation};
use xtuml_perfbench::harness::Params;
use xtuml_perfbench::{repartition, report, run_workload, sim_run, WORKLOADS};

fn params(name: &str, trace: bool) -> Params {
    Params {
        seed: 1,
        seconds: 0.05,
        trace,
        tiny: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}-{trace}")),
    }
}

#[test]
fn every_workload_passes_its_gate_untraced() {
    for name in WORKLOADS {
        let out = run_workload(name, &params(name, false)).expect("set-up");
        assert!(out.attempted > 0, "{name}: nothing checked");
        assert_eq!(out.failed, 0, "{name}: {:?}", out.notes);
        for d in report::end_to_end() {
            let v = out.metrics.get(&d.name).copied();
            assert!(v.is_some_and(|v| v > 0.0), "{name}: {} = {v:?}", d.name);
        }
    }
}

#[test]
fn every_workload_passes_its_gate_traced_and_writes_a_valid_span_file() {
    for name in WORKLOADS {
        let p = params(name, true);
        let out = run_workload(name, &p).expect("set-up");
        assert_eq!(out.failed, 0, "{name}: {:?}", out.notes);
        assert!(out.metrics.contains_key("obs.overhead_frac"), "{name}");
        let file = p.out_dir.join(format!("spans-{name}-1.json"));
        let json = std::fs::read_to_string(&file).expect("span file written");
        assert!(xtuml_obs::check_chrome_trace(&json).is_ok(), "{name}");
        let declared: Vec<String> = report::per_layer()
            .into_iter()
            .chain(report::end_to_end())
            .map(|d| d.name)
            .collect();
        for key in out.metrics.keys() {
            assert!(
                declared.contains(key),
                "{name} sets undeclared metric {key}"
            );
        }
    }
}

#[test]
fn sim_run_dispatch_counts_and_final_times_are_exact() {
    let expect: [(u64, u64); 5] = [(15, 15), (15, 17), (20, 21), (64, 132), (49, 7111)];
    for (case, (dispatches, final_time)) in sim_run::cases(1, true).iter().zip(expect) {
        assert_eq!(
            (case.dispatches, case.final_time),
            (dispatches, final_time),
            "{}",
            case.family
        );
        let domain = xtuml_lang::parse_domain(&case.text).expect("model parses");
        let mut sim = Simulation::with_policy(&domain, SchedPolicy::seeded(1));
        sim_run::populate(&mut sim, case).expect("population");
        sim.run_to_quiescence().expect("runs");
        assert_eq!(
            sim.trace().dispatch_count() as u64,
            dispatches,
            "{}",
            case.family
        );
        assert_eq!(sim.now(), final_time, "{}", case.family);
        assert!(
            case.observables_match(&sim.trace().observable(&domain)),
            "{}",
            case.family
        );
    }
}

#[test]
fn repartition_codegen_and_cosim_counts_are_exact() {
    let (c_lines, vhdl_lines, stats) =
        repartition::round_counts(&params("counts", false)).expect("sweep");
    assert_eq!((c_lines, vhdl_lines), (4836, 4940));
    assert_eq!((stats.hw_cycles, stats.cpu_cycles), (28441, 35136));
    assert_eq!(
        (stats.msgs_sw_to_hw, stats.msgs_hw_to_sw, stats.bus_beats),
        (56, 56, 448)
    );
}
