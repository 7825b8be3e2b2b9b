//! Allocation scaling of the run phase: engine state must not allocate
//! per instance or per signal.
//!
//! A counting global allocator tallies heap allocations made by the
//! calling thread while `run_to_quiescence` executes a self-signalling
//! many-core model with no actor output, at two widths, sequentially
//! and at 4 shards on one worker thread (so every allocation happens on
//! the counted thread). Attribute slots live in one arena per store and
//! queued signals in one recycled node slab per engine, so widening the
//! model four-fold may only add the few doublings of those buffers.
//! Allocation counts are exact and host-independent, so the bound is
//! exact too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xtuml_core::builder::DomainBuilder;
use xtuml_core::model::Domain;
use xtuml_core::value::{DataType, Value};
use xtuml_exec::{SchedPolicy, ShardedSimulation, Simulation};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// A core counts down `Tick(v)` by signalling itself, accumulating into
/// its one attribute; nothing leaves the domain.
fn cores() -> Domain {
    let mut b = DomainBuilder::new("cores");
    b.class("Core")
        .attr("acc", DataType::Int)
        .event("Tick", &[("v", DataType::Int)])
        .state("Idle", "")
        .state(
            "Busy",
            "self.acc = self.acc + rcvd.v; if (rcvd.v > 0) { gen Tick(rcvd.v - 1) to self; }",
        )
        .initial("Idle")
        .transition("Idle", "Tick", "Busy")
        .transition("Busy", "Tick", "Busy");
    b.build().unwrap()
}

/// Every core gets two rounds of 4 ticks; returns (steps, run allocations).
fn sequential(domain: &Domain, n: usize) -> (u64, u64) {
    let mut sim = Simulation::with_policy(domain, SchedPolicy::seeded(3));
    for _ in 0..n {
        let c = sim.create("Core").unwrap();
        sim.inject(0, c, "Tick", vec![Value::Int(3)]).unwrap();
        sim.inject(100, c, "Tick", vec![Value::Int(3)]).unwrap();
    }
    let (steps, allocs) = counted(|| sim.run_to_quiescence().unwrap());
    (steps, allocs)
}

fn sharded(domain: &Domain, n: usize) -> (u64, u64) {
    let mut sim = ShardedSimulation::with_policy(domain, SchedPolicy::seeded(3).with_shards(4));
    for _ in 0..n {
        let c = sim.create("Core").unwrap();
        sim.inject(0, c, "Tick", vec![Value::Int(3)]).unwrap();
        sim.inject(100, c, "Tick", vec![Value::Int(3)]).unwrap();
    }
    let (steps, allocs) = counted(|| sim.run_to_quiescence(1).unwrap());
    (steps, allocs)
}

/// The run-phase growth from 1024 to 4096 cores may cover only buffer
/// doublings (a handful per growable buffer), never a per-instance or
/// per-signal cost: 3072 extra cores send 18432 extra signals.
const MAX_GROWTH: u64 = 48;

#[test]
fn run_phase_allocations_do_not_scale_with_instances() {
    let domain = cores();
    for (name, run) in [
        ("sequential", sequential as fn(&Domain, usize) -> (u64, u64)),
        ("shards=4 jobs=1", sharded),
    ] {
        let (small_steps, small) = run(&domain, 1024);
        let (big_steps, big) = run(&domain, 4096);
        assert_eq!(small_steps, 1024 * 8, "{name}");
        assert_eq!(big_steps, 4096 * 8, "{name}");
        assert!(
            big.saturating_sub(small) < MAX_GROWTH,
            "{name}: run allocations grew from {small} to {big} between 1024 and 4096 cores"
        );
    }
}
