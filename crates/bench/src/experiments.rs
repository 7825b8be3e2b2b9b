//! Experiment runners E1–E6 (see DESIGN.md §6).
//!
//! Each runner is deterministic given its parameters and returns a
//! [`Table`]; the `experiments` binary prints every table, and
//! EXPERIMENTS.md records a captured run alongside the paper-claim each
//! experiment operationalises.

use crate::report::Table;
use crate::workloads;
use std::time::Instant;
use xtuml_core::marks::{keys, ElemRef, MarkSet};
use xtuml_core::value::Value;
use xtuml_exec::{SchedPolicy, Simulation};
use xtuml_mda::ModelCompiler;
use xtuml_verify::drift::{simulate_generated_flow, simulate_manual_flow, DriftConfig};
use xtuml_verify::{check_equivalence, run_compiled, run_model, TestCase};

/// E1 — interface drift: manual dual-maintenance vs generated interface
/// (paper §1 motivation, §4 resolution).
pub fn e1_interface_drift(steps: usize, probs: &[f64], seeds: u64) -> Table {
    let mut t = Table::new(
        "E1 — interface drift: hand-maintained halves vs generated interface",
        &[
            "flow",
            "miss prob",
            "steps",
            "mean final mismatches",
            "runs diverged",
        ],
    );
    for &p in probs {
        let mut total = 0usize;
        let mut diverged = 0usize;
        for seed in 0..seeds {
            let r = simulate_manual_flow(&DriftConfig {
                steps,
                miss_probability: p,
                seed,
            });
            total += r.final_mismatches();
            diverged += usize::from(r.first_divergence().is_some());
        }
        t.row(vec![
            "manual".into(),
            format!("{p:.2}"),
            steps.to_string(),
            format!("{:.1}", total as f64 / seeds as f64),
            format!("{diverged}/{seeds}"),
        ]);
    }
    for &p in probs {
        let mut total = 0usize;
        let mut diverged = 0usize;
        for seed in 0..seeds {
            let r = simulate_generated_flow(&DriftConfig {
                steps,
                miss_probability: p,
                seed,
            });
            total += r.final_mismatches();
            diverged += usize::from(r.first_divergence().is_some());
        }
        t.row(vec![
            "generated".into(),
            format!("{p:.2}"),
            steps.to_string(),
            format!("{:.1}", total as f64 / seeds as f64),
            format!("{diverged}/{seeds}"),
        ]);
    }
    t
}

/// E2 — repartitioning: every 2^k mark placement of a k-stage pipeline
/// must preserve behaviour, and the only edited artefact is the mark set
/// (paper §4).
pub fn e2_repartition(stages: usize, feeds: usize) -> Table {
    let mut t = Table::new(
        "E2 — exhaustive repartition of the pipeline: behaviour preserved, only marks change",
        &[
            "partition (1=hw)",
            "marks changed vs all-sw",
            "channels",
            "C lines",
            "VHDL lines",
            "equivalent",
        ],
    );
    let domain = workloads::pipeline_domain(stages).expect("valid pipeline");
    let tc = TestCase::pipeline(stages, feeds);
    let model_trace = run_model(&domain, SchedPolicy::default(), &tc).expect("model runs");
    let baseline = MarkSet::new();
    for mask in 0..(1u32 << stages) {
        let mut marks = MarkSet::new();
        for k in 0..stages {
            if mask & (1 << k) != 0 {
                marks.mark_hardware(&format!("Stage{k}"));
            }
        }
        let design = ModelCompiler::new()
            .compile(&domain, &marks)
            .expect("pipeline compiles under every partition");
        let impl_trace = run_compiled(&design, &tc).expect("cosim runs");
        let report = check_equivalence(&model_trace, &impl_trace);
        t.row(vec![
            format!("{mask:0width$b}", width = stages),
            marks.diff_count(&baseline).to_string(),
            design.interface.channels.len().to_string(),
            design.c_lines().to_string(),
            design.vhdl_lines().to_string(),
            if report.is_equivalent() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

/// E3 — model-interpreter throughput vs model size (paper §2: executing
/// models with no implementation detail must be practical).
pub fn e3_interpreter(sizes: &[usize], feeds: usize) -> Table {
    let mut t = Table::new(
        "E3 — abstract-model interpreter throughput",
        &["stages", "events dispatched", "elapsed ms", "events/s"],
    );
    for &n in sizes {
        let domain = workloads::pipeline_domain(n).expect("valid pipeline");
        let mut sim = Simulation::new(&domain);
        let insts: Vec<_> = (0..n)
            .map(|k| sim.create(&format!("Stage{k}")).expect("create"))
            .collect();
        for k in 0..n - 1 {
            sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                .expect("relate");
        }
        for i in 0..feeds {
            sim.inject(i as u64, insts[0], "Feed", vec![Value::Int(0)])
                .expect("inject");
        }
        let start = Instant::now();
        let steps = sim.run_to_quiescence().expect("run");
        let dt = start.elapsed();
        let eps = steps as f64 / dt.as_secs_f64();
        t.row(vec![
            n.to_string(),
            steps.to_string(),
            format!("{:.2}", dt.as_secs_f64() * 1e3),
            format!("{eps:.0}"),
        ]);
    }
    t
}

/// E3b — interpreter throughput across model families (fan-out and ring
/// stress different scheduler paths than the pipeline).
pub fn e3_families(scale: usize, work: usize) -> Table {
    let mut t = Table::new(
        "E3b — interpreter throughput by model family",
        &[
            "family",
            "size",
            "events dispatched",
            "elapsed ms",
            "events/s",
        ],
    );
    let mut run = |family: &str, domain: &xtuml_core::model::Domain, tc: &TestCase| {
        let start = Instant::now();
        let mut sim = Simulation::new(domain);
        let mut insts = Vec::new();
        for class in &tc.creates {
            insts.push(sim.create(class).expect("create"));
        }
        for (a, b, assoc) in &tc.relates {
            sim.relate(insts[*a], insts[*b], assoc).expect("relate");
        }
        for st in &tc.stimuli {
            sim.inject(st.time, insts[st.inst], &st.event, st.args.clone())
                .expect("inject");
        }
        let steps = sim.run_to_quiescence().expect("run");
        let dt = start.elapsed();
        t.row(vec![
            family.to_owned(),
            scale.to_string(),
            steps.to_string(),
            format!("{:.2}", dt.as_secs_f64() * 1e3),
            format!("{:.0}", steps as f64 / dt.as_secs_f64()),
        ]);
    };
    let d = workloads::pipeline_domain(scale).expect("pipeline");
    run("pipeline", &d, &TestCase::pipeline(scale, work));
    let d = workloads::fanout_domain(scale);
    run("fan-out", &d, &workloads::fanout_case(scale, work));
    let d = workloads::ring_domain(scale.max(2));
    run(
        "ring",
        &d,
        &workloads::ring_case(scale.max(2), (work * scale) as i64),
    );
    t
}

/// E4 — co-simulation cost vs partition ratio and bus latency (substrate
/// scaling; also shows why one models *above* the implementation).
pub fn e4_cosim(stages: usize, feeds: usize, latencies: &[u64]) -> Table {
    let mut t = Table::new(
        "E4 — co-simulation cost vs hardware fraction and bus latency",
        &[
            "hw stages",
            "bus latency",
            "hw cycles",
            "cpu cycles",
            "bus msgs",
            "elapsed ms",
        ],
    );
    let domain = workloads::pipeline_domain(stages).expect("valid pipeline");
    let tc = TestCase::pipeline(stages, feeds);
    for hw_count in 0..=stages {
        for &lat in latencies {
            let mut marks = MarkSet::new();
            marks.set(ElemRef::domain(), keys::BUS_LATENCY, lat as i64);
            for k in 0..hw_count {
                marks.mark_hardware(&format!("Stage{k}"));
            }
            let design = ModelCompiler::new()
                .compile(&domain, &marks)
                .expect("compiles");
            let start = Instant::now();
            let mut sys = design.instantiate();
            let mut insts = Vec::new();
            for class in &tc.creates {
                insts.push(sys.create(class).expect("create"));
            }
            for (a, b, assoc) in &tc.relates {
                sys.relate(insts[*a], insts[*b], assoc).expect("relate");
            }
            for s in &tc.stimuli {
                sys.inject(s.time, insts[s.inst], &s.event, s.args.clone())
                    .expect("inject");
            }
            let stats = sys.run_to_quiescence().expect("cosim runs");
            let dt = start.elapsed();
            t.row(vec![
                format!("{hw_count}/{stages}"),
                lat.to_string(),
                stats.hw_cycles.to_string(),
                stats.cpu_cycles.to_string(),
                (stats.msgs_sw_to_hw + stats.msgs_hw_to_sw).to_string(),
                format!("{:.2}", dt.as_secs_f64() * 1e3),
            ]);
        }
    }
    t
}

/// E5 — causality under interleaving seeds and event-rule ablations
/// (paper §2: cause precedes effect).
pub fn e5_causality(seeds: u64, burst: usize) -> Table {
    let mut t = Table::new(
        "E5 — causality violations: event rules on vs ablated",
        &[
            "configuration",
            "seeds",
            "runs with violations",
            "total violations",
        ],
    );
    let domain = burst_domain(burst);
    let configs: [(&str, bool, bool); 3] = [
        ("rules on (production)", true, true),
        ("self-priority ablated", false, true),
        ("pair-order ablated", true, false),
    ];
    for (name, self_priority, pair_order) in configs {
        let mut runs_with = 0u64;
        let mut total = 0usize;
        for seed in 0..seeds {
            let policy = SchedPolicy {
                seed,
                self_priority,
                pair_order,
                ..SchedPolicy::default()
            };
            let mut sim = Simulation::with_policy(&domain, policy);
            let _recv = sim.create("Recv").expect("create");
            let send = sim.create("Send").expect("create");
            sim.inject(0, send, "Go", vec![]).expect("inject");
            sim.run_to_quiescence().expect("run");
            let v = sim.trace().causality_violations();
            total += v;
            runs_with += u64::from(v > 0);
        }
        t.row(vec![
            name.to_owned(),
            seeds.to_string(),
            runs_with.to_string(),
            total.to_string(),
        ]);
    }
    t
}

/// The sender/receiver burst model used by E5.
fn burst_domain(burst: usize) -> xtuml_core::model::Domain {
    use xtuml_core::builder::DomainBuilder;
    use xtuml_core::value::DataType;
    let mut b = DomainBuilder::new("burst");
    b.class("Recv")
        .attr("last", DataType::Int)
        .event("Msg", &[("k", DataType::Int)])
        .state("Idle", "")
        .state("Got", "self.last = rcvd.k;")
        .initial("Idle")
        .transition("Idle", "Msg", "Got")
        .transition("Got", "Msg", "Got");
    b.class("Send")
        .event("Go", &[])
        .state("Idle", "")
        .state(
            "Burst",
            &format!(
                "select any r from Recv;\n\
                 k = 0;\n\
                 while (k < {burst}) {{ gen Msg(k) to r; k = k + 1; }}"
            ),
        )
        .initial("Idle")
        .transition("Idle", "Go", "Burst");
    b.build().expect("burst model is valid")
}

/// E6 — generated-code size vs model size (paper §4: mapping rules
/// produce compilable text of two types).
pub fn e6_codegen(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E6 — generated artefact sizes (half of each pipeline marked hardware)",
        &[
            "stages",
            "model stmts",
            "channels",
            "interface words",
            "C lines",
            "VHDL lines",
        ],
    );
    for &n in sizes {
        let domain = workloads::pipeline_domain(n).expect("valid pipeline");
        let mut marks = MarkSet::new();
        for k in 0..n / 2 {
            marks.mark_hardware(&format!("Stage{}", 2 * k + 1));
        }
        let design = ModelCompiler::new()
            .compile(&domain, &marks)
            .expect("compiles");
        t.row(vec![
            n.to_string(),
            domain.action_weight().to_string(),
            design.interface.channels.len().to_string(),
            design.interface.total_words().to_string(),
            design.c_lines().to_string(),
            design.vhdl_lines().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_generated_flow_never_diverges_manual_does() {
        let t = e1_interface_drift(60, &[0.05, 0.2], 4);
        assert_eq!(t.rows.len(), 4);
        // Generated rows report zero mismatches, zero diverged runs.
        for row in &t.rows[2..] {
            assert_eq!(row[3], "0.0");
            assert_eq!(row[4], "0/4");
        }
        // Higher miss probability drifts at least as much.
        let m_low: f64 = t.rows[0][3].parse().unwrap();
        let m_high: f64 = t.rows[1][3].parse().unwrap();
        assert!(m_high >= m_low);
    }

    #[test]
    fn e2_all_partitions_equivalent_marks_only_edit() {
        let t = e2_repartition(3, 3);
        assert_eq!(t.rows.len(), 8);
        for row in &t.rows {
            assert_eq!(row[5], "yes", "partition {} diverged", row[0]);
        }
        // All-software row changed zero marks; others changed ≥1.
        assert_eq!(t.rows[0][1], "0");
        assert!(t.rows[1..].iter().all(|r| r[1] != "0"));
    }

    #[test]
    fn e3_reports_positive_throughput() {
        let t = e3_interpreter(&[2, 4], 50);
        for row in &t.rows {
            let eps: f64 = row[3].parse().unwrap();
            assert!(eps > 0.0);
        }
    }

    #[test]
    fn e3b_covers_three_families() {
        let t = e3_families(3, 4);
        let fams: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(fams, vec!["pipeline", "fan-out", "ring"]);
        for row in &t.rows {
            let steps: u64 = row[2].parse().unwrap();
            assert!(steps > 0);
        }
    }

    #[test]
    fn e4_bus_messages_scale_with_boundary() {
        let t = e4_cosim(3, 4, &[2]);
        // Row 0: all-sw (0 hw stages) → zero bus messages.
        assert_eq!(t.rows[0][4], "0");
        // Some split row must move messages.
        assert!(t.rows.iter().any(|r| r[4] != "0"));
        // The cycle columns of the EXPERIMENTS.md configuration, pinned:
        // the swrt and HW cost models consume each action's step count,
        // so any drift in step semantics moves these numbers.
        let t = e4_cosim(4, 6, &[1, 4, 16]);
        let cycles: Vec<[&str; 5]> = t
            .rows
            .iter()
            .map(|r| [&r[0], &r[1], &r[2], &r[3], &r[4]].map(String::as_str))
            .collect();
        assert_eq!(
            cycles,
            [
                ["0/4", "1", "2324", "4776", "0"],
                ["0/4", "4", "2324", "4776", "0"],
                ["0/4", "16", "2324", "4776", "0"],
                ["1/4", "1", "1737", "3600", "6"],
                ["1/4", "4", "1740", "3600", "6"],
                ["1/4", "16", "1752", "3600", "6"],
                ["2/4", "1", "1078", "2280", "6"],
                ["2/4", "4", "1081", "2280", "6"],
                ["2/4", "16", "1093", "2280", "6"],
                ["3/4", "1", "419", "960", "6"],
                ["3/4", "4", "422", "960", "6"],
                ["3/4", "16", "434", "960", "6"],
                ["4/4", "1", "101", "0", "0"],
                ["4/4", "4", "101", "0", "0"],
                ["4/4", "16", "101", "0", "0"],
            ]
        );
    }

    #[test]
    fn e5_rules_on_is_clean_ablations_violate() {
        let t = e5_causality(8, 40);
        assert_eq!(t.rows[0][2], "0", "production rules must be causal");
        let pair_violations: usize = t.rows[2][3].parse().unwrap();
        assert!(pair_violations > 0, "pair-order ablation must reorder");
    }

    #[test]
    fn e6_sizes_grow_with_model() {
        let t = e6_codegen(&[2, 6]);
        let c2: usize = t.rows[0][4].parse().unwrap();
        let c6: usize = t.rows[1][4].parse().unwrap();
        assert!(c6 > c2);
        let v2: usize = t.rows[0][5].parse().unwrap();
        let v6: usize = t.rows[1][5].parse().unwrap();
        assert!(v6 > v2);
    }
}
