//! # xtuml-exec — executing Executable UML models
//!
//! The model interpreter for the paper's §2 semantics:
//!
//! * every object instance carries a **concurrently executing state
//!   machine**;
//! * machines communicate **only by signals**;
//! * on receipt of a signal the destination state's actions **run to
//!   completion** before the next signal is processed by that instance;
//! * the receiver's actions execute **after** the action that sent the
//!   signal (cause precedes effect);
//! * signals an instance sends **to itself** are consumed before signals
//!   from other instances;
//! * signals between a given sender–receiver pair arrive **in send order**.
//!
//! "Concurrently executing" is a *specification* of allowed interleavings.
//! The interpreter realises it with a deterministic, seedable scheduler
//! ([`sched::SchedPolicy`]): one seed = one legal interleaving = one
//! reproducible trace; sweeping seeds explores the interleaving space. The
//! event rules themselves can be switched off individually — that exists
//! *only* so experiment E5 can demonstrate that ablating either rule
//! produces causality violations.
//!
//! ```
//! use xtuml_core::builder::DomainBuilder;
//! use xtuml_core::value::{DataType, Value};
//! use xtuml_exec::Simulation;
//!
//! let mut b = DomainBuilder::new("demo");
//! b.actor("OUT").event("done", &[("v", DataType::Int)]);
//! b.class("Counter")
//!     .attr("n", DataType::Int)
//!     .event("Bump", &[])
//!     .state("Idle", "")
//!     .state("Bumping", "self.n = self.n + 1; gen done(self.n) to OUT;")
//!     .initial("Idle")
//!     .transition("Idle", "Bump", "Bumping")
//!     .transition("Bumping", "Bump", "Bumping");
//! let domain = b.build()?;
//!
//! let mut sim = Simulation::new(&domain);
//! let c = sim.create("Counter")?;
//! sim.inject(0, c, "Bump", vec![])?;
//! sim.inject(1, c, "Bump", vec![])?;
//! sim.run_to_quiescence()?;
//! let outs = sim.trace().observable(&domain);
//! assert_eq!(outs.len(), 2);
//! assert_eq!(outs[1].args, vec![Value::Int(2)]);
//! # Ok::<(), xtuml_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
mod dispatch;
mod mailbox;
pub mod sched;
pub mod shard;
pub mod sim;
pub mod snapshot;
pub mod store;
pub mod trace;

pub use sched::SchedPolicy;
pub use shard::{shard_safety, ShardedSimulation};
pub use sim::{Engine, Simulation};
pub use snapshot::SnapError;
pub use store::ObjectStore;
pub use trace::{ObservableEvent, Trace, TraceEvent, TraceMode};
