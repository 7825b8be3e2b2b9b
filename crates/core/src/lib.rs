//! # xtuml-core — the Executable UML profile for SoC
//!
//! This crate defines the **Executable UML** metamodel described in Mellor,
//! Wolfe and McCausland, *"Why Systems-on-Chip Needs More UML like a Hole in
//! the Head"* (DATE 2005): a carefully selected, streamlined subset of UML
//! with a defined execution semantics.
//!
//! The essential elements (paper §2):
//!
//! * a set of [`Class`]es whose objects carry **concurrently executing
//!   state machines** ([`StateMachine`]),
//! * state machines that communicate **only by sending signals**
//!   ([`EventDecl`]),
//! * on receipt of a signal, the destination state's **actions run to
//!   completion** before the next signal is processed ([`action::Block`]),
//! * **marks** (paper §3) — lightweight, non-intrusive annotations kept
//!   *outside* the model ([`marks::MarkSet`]).
//!
//! The crate also provides the shared action executor: the bytecode VM
//! ([`bc`]) behind the execution-host contract ([`interp`]). The same VM
//! executes actions in the abstract model interpreter (`xtuml-exec`), in
//! the generated-hardware substrate and in the generated-software
//! substrate (`xtuml-mda`), which is how the paper's "defined behavior is
//! preserved" guarantee is made testable.
//!
//! ```
//! use xtuml_core::builder::DomainBuilder;
//! use xtuml_core::value::DataType;
//!
//! let mut d = DomainBuilder::new("blinker");
//! d.class("Led")
//!     .attr_default("on", DataType::Bool, false.into())
//!     .event("Toggle", &[])
//!     .state("Off", "self.on = false;")
//!     .state("On", "self.on = true;")
//!     .initial("Off")
//!     .transition("Off", "Toggle", "On")
//!     .transition("On", "Toggle", "Off");
//! let domain = d.build().expect("valid model");
//! assert_eq!(domain.classes.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod action;
pub mod bc;
pub mod builder;
pub mod code;
pub mod diag;
pub mod effects;
pub mod error;
pub mod ids;
pub mod interp;
pub mod lex;
pub mod lint;
pub mod marks;
pub mod model;
pub mod parse;
pub mod typeck;
pub mod validate;
pub mod value;

pub use error::{CoreError, Result};
pub use ids::{ActorId, AssocId, AttrId, ClassId, EventId, InstId, StateId};
pub use model::{
    Actor, Association, Attribute, Class, Domain, EventDecl, FuncDecl, Multiplicity, State,
    StateMachine, Transition, TransitionTarget,
};
pub use value::{DataType, Value};
