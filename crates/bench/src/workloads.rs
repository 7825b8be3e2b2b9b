//! Workload generators for the experiments.
//!
//! Three model families, scalable by a size parameter:
//!
//! * **pipeline** — `n` stages forwarding a token (the paper-motivating
//!   dataflow SoC shape; re-exported from `xtuml_core::builder`);
//! * **fan-out** — one dispatcher broadcasting to `n` workers that each
//!   report to a collector (stress for signal fan-out and the scheduler);
//! * **ring** — `n` nodes passing a decrementing token around a ring
//!   (long causal chains; every hop is a potential boundary crossing);
//! * **many-core** — `n` independent cores each crunching a self-ticked
//!   countdown (shard-safe by construction; the scaling workload for the
//!   parallel engine, where every core can run on a different worker).

pub use xtuml_core::builder::pipeline_domain;
use xtuml_core::builder::DomainBuilder;
use xtuml_core::model::{Domain, Multiplicity};
use xtuml_core::value::{DataType, Value};
use xtuml_verify::TestCase;

/// Builds the fan-out domain: `Dispatcher` → `Worker{0..n}` → `Collector`.
///
/// # Panics
///
/// Panics if `workers` is zero (the builder output is validated, so any
/// failure is a bug in this generator).
pub fn fanout_domain(workers: usize) -> Domain {
    assert!(workers >= 1);
    let mut b = DomainBuilder::new("fanout");
    b.actor("SINK").event("out", &[("v", DataType::Int)]);
    let mut body = String::from("n = rcvd.v;\n");
    for k in 0..workers {
        body.push_str(&format!(
            "w{k} = any(self -> Worker{k}[RW{k}]);\ngen Work(n + {k}) to w{k};\n"
        ));
    }
    b.class("Dispatcher")
        .event("Burst", &[("v", DataType::Int)])
        .state("Idle", "")
        .state("Bursting", &body)
        .initial("Idle")
        .transition("Idle", "Burst", "Bursting")
        .transition("Bursting", "Burst", "Bursting");
    for k in 0..workers {
        b.class(&format!("Worker{k}"))
            .attr("acc", DataType::Int)
            .event("Work", &[("v", DataType::Int)])
            .state("Wait", "")
            .state(
                "Working",
                &format!(
                    "self.acc = self.acc + rcvd.v;\n\
                     c = any(self -> Collector[RC{k}]);\n\
                     gen Done(rcvd.v * 2) to c;"
                ),
            )
            .initial("Wait")
            .transition("Wait", "Work", "Working")
            .transition("Working", "Work", "Working");
        b.association(
            &format!("RW{k}"),
            "Dispatcher",
            Multiplicity::One,
            &format!("Worker{k}"),
            Multiplicity::One,
        );
        b.association(
            &format!("RC{k}"),
            &format!("Worker{k}"),
            Multiplicity::One,
            "Collector",
            Multiplicity::Many,
        );
    }
    // The collector batches one `out` per complete burst so the
    // observable value is order-independent — workers legitimately race
    // (and race differently on different partitions).
    b.class("Collector")
        .attr("subtotal", DataType::Int)
        .attr("seen", DataType::Int)
        .event("Done", &[("v", DataType::Int)])
        .state("Open", "")
        .state(
            "Counting",
            &format!(
                "self.subtotal = self.subtotal + rcvd.v;\n\
                 self.seen = self.seen + 1;\n\
                 if (self.seen == {workers}) {{\n\
                     gen out(self.subtotal) to SINK;\n\
                     self.seen = 0;\n\
                     self.subtotal = 0;\n\
                 }}"
            ),
        )
        .initial("Open")
        .transition("Open", "Done", "Counting")
        .transition("Counting", "Done", "Counting");
    b.build().expect("fan-out generator emits valid models")
}

/// A test case for the fan-out domain: `bursts` bursts into the
/// dispatcher.
pub fn fanout_case(workers: usize, bursts: usize) -> TestCase {
    let mut tc = TestCase::new(&format!("fanout-{workers}x{bursts}"));
    let d = tc.create("Dispatcher");
    let mut w = Vec::new();
    for k in 0..workers {
        w.push(tc.create(&format!("Worker{k}")));
    }
    let c = tc.create("Collector");
    for (k, wk) in w.iter().enumerate() {
        tc.relate(d, *wk, &format!("RW{k}"));
        tc.relate(*wk, c, &format!("RC{k}"));
    }
    for i in 0..bursts {
        tc.inject(i as u64, d, "Burst", vec![Value::Int(i as i64 * 10)]);
    }
    tc
}

/// Builds the ring domain: `Node{0..n}` passing a decrementing token.
///
/// # Panics
///
/// Panics if `nodes < 2`.
pub fn ring_domain(nodes: usize) -> Domain {
    assert!(nodes >= 2);
    let mut b = DomainBuilder::new("ring");
    b.actor("SINK").event("stopped", &[("at", DataType::Int)]);
    for k in 0..nodes {
        let next = (k + 1) % nodes;
        let body = format!(
            "if (rcvd.v > 0) {{\n\
                 nx = any(self -> Node{next}[RN{k}]);\n\
                 gen Token(rcvd.v - 1) to nx;\n\
             }}\n\
             else {{\n\
                 gen stopped({k}) to SINK;\n\
             }}"
        );
        b.class(&format!("Node{k}"))
            .attr("hops", DataType::Int)
            .event("Token", &[("v", DataType::Int)])
            .state("Idle", "")
            .state("Passing", &body)
            .initial("Idle")
            .transition("Idle", "Token", "Passing")
            .transition("Passing", "Token", "Passing");
    }
    for k in 0..nodes {
        let next = (k + 1) % nodes;
        b.association(
            &format!("RN{k}"),
            &format!("Node{k}"),
            Multiplicity::One,
            &format!("Node{next}"),
            Multiplicity::One,
        );
    }
    b.build().expect("ring generator emits valid models")
}

/// Builds the many-core domain: `cores` unconnected `Core{k}` machines.
/// Each `Tick(v)` folds `v` into a per-core accumulator and self-sends
/// `Tick(v - 1)` until the countdown hits zero, then reports the
/// accumulator to `SINK`. No core touches another's state, so the model
/// passes the shard-safety analysis and scales embarrassingly.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn manycore_domain(cores: usize) -> Domain {
    assert!(cores >= 1);
    let mut b = DomainBuilder::new("manycore");
    b.actor("SINK").event("out", &[("v", DataType::Int)]);
    for k in 0..cores {
        let body = format!(
            "self.acc = self.acc + rcvd.v * rcvd.v + {k};\n\
             if (rcvd.v > 0) {{\n\
                 gen Tick(rcvd.v - 1) to self;\n\
             }}\n\
             else {{\n\
                 gen out(self.acc) to SINK;\n\
             }}"
        );
        b.class(&format!("Core{k}"))
            .attr("acc", DataType::Int)
            .event("Tick", &[("v", DataType::Int)])
            .state("Idle", "")
            .state("Crunching", &body)
            .initial("Idle")
            .transition("Idle", "Tick", "Crunching")
            .transition("Crunching", "Tick", "Crunching");
    }
    b.build().expect("many-core generator emits valid models")
}

/// A test case for the many-core domain: every core starts a countdown
/// of `work` ticks at time 0.
pub fn manycore_case(cores: usize, work: i64) -> TestCase {
    let mut tc = TestCase::new(&format!("manycore-{cores}x{work}"));
    for k in 0..cores {
        tc.create(&format!("Core{k}"));
    }
    for k in 0..cores {
        tc.inject(0, k, "Tick", vec![Value::Int(work)]);
    }
    tc
}

/// Builds the null-action domain: a single `Nil` class whose `Ping`
/// transitions carry **empty** action bodies. Every dispatched signal
/// does no model work at all, so a run's wall time is pure engine
/// overhead — scheduler pick, dispatch-slot lookup, trace recording —
/// which is exactly what the dispatch microbench wants to isolate.
pub fn null_domain() -> Domain {
    let mut b = DomainBuilder::new("nulldisp");
    b.class("Nil")
        .event("Ping", &[])
        .state("Idle", "")
        .state("Spin", "")
        .initial("Idle")
        .transition("Idle", "Ping", "Spin")
        .transition("Spin", "Ping", "Spin");
    b.build().expect("null-action generator emits valid models")
}

/// A test case for the ring: one token with `hops` hops left.
pub fn ring_case(nodes: usize, hops: i64) -> TestCase {
    let mut tc = TestCase::new(&format!("ring-{nodes}x{hops}"));
    for k in 0..nodes {
        tc.create(&format!("Node{k}"));
    }
    for k in 0..nodes {
        tc.relate(k, (k + 1) % nodes, &format!("RN{k}"));
    }
    tc.inject(0, 0, "Token", vec![Value::Int(hops)]);
    tc
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::marks::MarkSet;
    use xtuml_exec::SchedPolicy;
    use xtuml_verify::{run_model, verify_partition};

    #[test]
    fn fanout_runs_and_counts() {
        let d = fanout_domain(4);
        let tc = fanout_case(4, 2);
        let obs = run_model(&d, SchedPolicy::default(), &tc).unwrap();
        // One batched report per batch of 4 dones. Bursts may interleave
        // (a legal concurrency outcome), so only the grand total is a
        // stable assertion: 2 * sum of (10i + k) over both bursts = 104.
        assert_eq!(obs.len(), 2);
        let total: i64 = obs.iter().map(|o| o.args[0].as_int().unwrap()).sum();
        assert_eq!(total, 104);
    }

    #[test]
    fn ring_terminates_at_expected_node() {
        let d = ring_domain(3);
        let tc = ring_case(3, 7);
        let obs = run_model(&d, SchedPolicy::default(), &tc).unwrap();
        assert_eq!(obs.len(), 1);
        // 7 hops from node 0 → token dies at node (0+7) mod 3 = 1.
        assert_eq!(obs[0].args, vec![Value::Int(1)]);
    }

    #[test]
    fn manycore_is_shard_safe_and_sums_each_countdown() {
        let d = manycore_domain(6);
        xtuml_exec::shard_safety(&d).expect("many-core workload must stay shard-safe");
        let tc = manycore_case(6, 4);
        let obs = run_model(&d, SchedPolicy::default(), &tc).unwrap();
        assert_eq!(obs.len(), 6);
        // Core k reports sum of v^2 for v=4..0 plus k per tick: 30 + 5k.
        let mut totals: Vec<i64> = obs.iter().map(|o| o.args[0].as_int().unwrap()).collect();
        totals.sort_unstable();
        assert_eq!(totals, vec![30, 35, 40, 45, 50, 55]);
    }

    #[test]
    fn null_domain_dispatches_without_doing_anything() {
        use xtuml_exec::{Simulation, TraceEvent};
        let d = null_domain();
        let mut sim = Simulation::new(&d);
        let nil = sim.create("Nil").unwrap();
        for _ in 0..16 {
            sim.inject(0, nil, "Ping", vec![]).unwrap();
        }
        sim.run_to_quiescence().unwrap();
        // One create, then exactly one dispatch per ping and nothing else:
        // the empty action sends, sets and creates nothing.
        let trace = sim.trace();
        assert_eq!(trace.dispatch_count(), 16);
        assert_eq!(trace.len(), 17);
        assert!(trace
            .iter()
            .skip(1)
            .all(|e| matches!(e, TraceEvent::Dispatch { .. })));
        assert_eq!(sim.now(), 16);
    }

    #[test]
    fn ring_partition_equivalence_holds() {
        let d = ring_domain(3);
        let tc = ring_case(3, 5);
        let mut marks = MarkSet::new();
        marks.mark_hardware("Node1");
        let report = verify_partition(&d, &marks, &tc).unwrap();
        assert!(report.is_equivalent(), "{:?}", report.divergences);
    }

    #[test]
    fn fanout_partition_equivalence_holds() {
        let d = fanout_domain(3);
        // One burst: the batched total is interleaving-independent.
        let tc = fanout_case(3, 1);
        let mut marks = MarkSet::new();
        marks.mark_hardware("Worker0");
        marks.mark_hardware("Worker2");
        let report = verify_partition(&d, &marks, &tc).unwrap();
        assert!(report.is_equivalent(), "{:?}", report.divergences);
    }
}
