//! Compiled action code: the slot- and id-resolved form of action blocks.
//!
//! The AST in [`action`](crate::action) refers to everything by name —
//! variables, parameters, attributes, associations, events, actors. The
//! tree-walking evaluator used to re-resolve those names on every
//! execution: a `BTreeMap` lookup per variable access, a linear scan per
//! attribute access, a map lookup per navigation. Since a signal dispatch
//! is the hot operation of every execution platform in the workspace,
//! that cost was paid millions of times per run.
//!
//! This module compiles a [`Block`] once, at model-load time, into an IR
//! where every name is resolved:
//!
//! * variables and event parameters become **frame slots** — dense indices
//!   into a flat `Vec<Option<Value>>` owned by the
//!   [`ExecCtx`](crate::interp::ExecCtx);
//! * attributes, associations, classes, events and actors become their
//!   typed ids, resolvable statically because the (validated) action
//!   language gives every instance-typed expression a static class.
//!
//! Compilation mirrors the walk of [`typeck`](crate::typeck): parameters
//! occupy the first slots positionally, locals are appended in
//! first-textual-binding order, and the `gen ... to <name>` actor
//! fallback is decided by the same "not a bound local" rule. A block that
//! typechecks always compiles; ad-hoc (unvalidated) blocks may instead
//! surface resolution errors at compile time that the old evaluator would
//! have raised mid-run.

use crate::action::{Block, Expr, GenTarget, LValue, Stmt};
use crate::error::{CoreError, Result};
use crate::ids::{ActorId, AssocId, AttrId, ClassId, EventId, StateId};
use crate::model::{Domain, TransitionTarget};
use crate::value::{BinOp, DataType, UnOp, Value};

/// Index of a variable or parameter in the execution frame.
pub type Slot = usize;

/// A compiled expression; evaluation burns one fuel unit per node, like
/// the AST evaluator did.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A literal value.
    Lit(Value),
    /// A frame slot read (local variable or event parameter).
    Slot(Slot),
    /// The executing instance.
    SelfRef,
    /// The candidate instance inside a `where` clause.
    Selected,
    /// Attribute read; the attribute id is pre-resolved against the static
    /// class of the base expression.
    Attr(Box<CExpr>, AttrId),
    /// Association navigation; the association and the target class are
    /// pre-resolved, so no per-source class checks remain at run time.
    Nav {
        /// Source instance or set.
        base: Box<CExpr>,
        /// The association traversed.
        assoc: AssocId,
        /// The class reached (element class of the resulting set).
        target: ClassId,
    },
    /// Unary operator application.
    Unary(UnOp, Box<CExpr>),
    /// Binary operator application.
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    /// Synchronous bridge-function call on an actor.
    Bridge {
        /// The actor providing the function.
        actor: ActorId,
        /// Function name (resolved by the host at call time; bridge calls
        /// are rare and cross partition boundaries).
        func: String,
        /// Argument expressions.
        args: Vec<CExpr>,
    },
}

/// A compiled statement.
#[derive(Debug, Clone, PartialEq)]
pub enum CStmt {
    /// `x = expr;`
    AssignSlot {
        /// Destination slot.
        slot: Slot,
        /// Right-hand side.
        expr: CExpr,
    },
    /// `base.attr = expr;` — the value is evaluated before the base, as in
    /// the AST evaluator.
    AssignAttr {
        /// Instance whose attribute is written.
        base: CExpr,
        /// The attribute.
        attr: AttrId,
        /// Right-hand side.
        expr: CExpr,
    },
    /// `x = create Class;`
    Create {
        /// Slot receiving the new instance reference.
        slot: Slot,
        /// The class instantiated.
        class: ClassId,
    },
    /// `delete expr;`
    Delete {
        /// The instance to delete.
        expr: CExpr,
    },
    /// `select any x from Class [where filter];`
    SelectAny {
        /// Slot receiving the (possibly empty) reference.
        slot: Slot,
        /// The class selected from.
        class: ClassId,
        /// Optional `where` filter, evaluated with `selected` bound.
        filter: Option<CExpr>,
    },
    /// `select many xs from Class [where filter];`
    SelectMany {
        /// Slot receiving the set.
        slot: Slot,
        /// The class selected from.
        class: ClassId,
        /// Optional `where` filter.
        filter: Option<CExpr>,
    },
    /// `relate a to b across Rk;`
    Relate {
        /// One participant.
        a: CExpr,
        /// The other participant.
        b: CExpr,
        /// The association.
        assoc: AssocId,
    },
    /// `unrelate a from b across Rk;`
    Unrelate {
        /// One participant.
        a: CExpr,
        /// The other participant.
        b: CExpr,
        /// The association.
        assoc: AssocId,
    },
    /// `gen Ev(args) to target [after delay];`
    GenInst {
        /// The event, resolved against the target's static class.
        event: EventId,
        /// Argument expressions (evaluated before the target).
        args: Vec<CExpr>,
        /// Destination instance.
        target: CExpr,
        /// Optional delay (timer idiom).
        delay: Option<CExpr>,
    },
    /// `gen ev(args) to ACTOR;` — an observable output.
    GenActor {
        /// Destination actor.
        actor: ActorId,
        /// The actor event.
        event: EventId,
        /// Argument expressions.
        args: Vec<CExpr>,
    },
    /// `cancel Ev;` — cancels delayed events to `self`.
    Cancel {
        /// The event, resolved against the executing class.
        event: EventId,
    },
    /// `if (..) { .. } elif (..) { .. } else { .. }`
    If {
        /// Condition/body pairs in order.
        arms: Vec<(CExpr, Vec<CStmt>)>,
        /// Optional `else` body.
        otherwise: Option<Vec<CStmt>>,
    },
    /// `while (cond) { body }`
    While {
        /// Loop condition.
        cond: CExpr,
        /// Loop body.
        body: Vec<CStmt>,
    },
    /// `foreach x in set { body }`
    ForEach {
        /// Slot rebound to each element.
        slot: Slot,
        /// The set iterated.
        set: CExpr,
        /// Loop body.
        body: Vec<CStmt>,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return;`
    Return,
    /// A bare expression statement (e.g. a procedure bridge call).
    ExprStmt(CExpr),
}

/// The frame layout of a compiled action: which name lives in which slot.
///
/// Event parameters occupy slots `0..params()` positionally (matching the
/// argument order of the triggering event); locals follow in
/// first-textual-binding order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameLayout {
    pub(crate) names: Vec<String>,
    pub(crate) params: usize,
}

impl FrameLayout {
    /// Total number of slots (parameters + locals).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the frame holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of event-parameter slots (always the first slots).
    pub fn params(&self) -> usize {
        self.params
    }

    /// The name bound to a slot.
    pub fn name(&self, slot: Slot) -> &str {
        &self.names[slot]
    }

    /// Finds the slot of a local variable or parameter by name (locals
    /// shadow parameters, mirroring the evaluator's lookup order).
    pub fn slot(&self, name: &str) -> Option<Slot> {
        // Search locals first, then parameters.
        self.names[self.params..]
            .iter()
            .position(|n| n == name)
            .map(|i| i + self.params)
            .or_else(|| self.names[..self.params].iter().position(|n| n == name))
    }
}

/// One compiled action block, ready to lower to bytecode
/// ([`bc`](crate::bc)) and execute against any
/// [`ActionHost`](crate::interp::ActionHost).
#[derive(Debug, Clone, PartialEq)]
pub struct CAction {
    /// Class whose state machine owns this action (static type of `self`).
    pub self_class: ClassId,
    /// The compiled statements.
    pub code: Vec<CStmt>,
    /// Slot layout of the execution frame.
    pub layout: FrameLayout,
}

/// Compiles a block for execution with `self` of class `self_class` and
/// the given positional event parameters.
///
/// # Errors
///
/// Returns [`CoreError::Unresolved`] for unknown names and
/// [`CoreError::Runtime`] for statically-detectable misuse (arity
/// mismatches, navigating to the wrong class, `after` on actor signals).
pub fn compile_block(
    domain: &Domain,
    self_class: ClassId,
    params: &[(String, DataType)],
    block: &Block,
) -> Result<CAction> {
    let mut c = Compiler {
        domain,
        self_class,
        names: params.iter().map(|(n, _)| n.clone()).collect(),
        types: params.iter().map(|(_, t)| Some(*t)).collect(),
        params: params.len(),
        selected: Vec::new(),
    };
    let code = c.block(block)?;
    Ok(CAction {
        self_class,
        code,
        layout: FrameLayout {
            names: c.names,
            params: c.params,
        },
    })
}

/// All compiled state actions of a domain, keyed by
/// `(class, entry state, triggering event)`.
///
/// Only `(state, event)` pairs reachable through a transition are
/// compiled: a state's entry action runs exactly when an event drives a
/// transition into it (creation enters the initial state silently), and
/// the frame layout depends on the triggering event's parameters.
///
/// Construction is infallible; a block that fails to compile (possible
/// only for domains that skipped validation) stores its error and
/// reports it when — and only when — that pair is dispatched, matching
/// the old evaluator's lazy resolution errors.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// Per class: `states * events` entries, indexed
    /// `state * n_events + event`. Passive classes hold an empty vec.
    pub(crate) classes: Vec<ClassCode>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct ClassCode {
    pub(crate) n_events: usize,
    pub(crate) actions: Vec<Option<Result<CAction>>>,
    /// Dense `(state, event) -> target` dispatch table, same indexing as
    /// `actions`. Replaces the metamodel's map lookup on the hot path.
    pub(crate) targets: Vec<TransitionTarget>,
}

impl CompiledProgram {
    /// Compiles every event-reachable state action of the domain.
    pub fn new(domain: &Domain) -> CompiledProgram {
        let classes = domain
            .classes
            .iter()
            .enumerate()
            .map(|(ci, class)| {
                let Some(machine) = class.state_machine.as_ref() else {
                    return ClassCode::default();
                };
                let n_events = class.events.len();
                let mut actions: Vec<Option<Result<CAction>>> =
                    vec![None; machine.states.len() * n_events];
                let mut targets =
                    vec![TransitionTarget::CantHappen; machine.states.len() * n_events];
                for t in &machine.transitions {
                    targets[t.from.index() * n_events + t.event.index()] = t.target;
                    let TransitionTarget::To(state) = t.target else {
                        continue;
                    };
                    let idx = state.index() * n_events + t.event.index();
                    if actions[idx].is_none() {
                        let params = &class.events[t.event.index()].params;
                        actions[idx] = Some(compile_block(
                            domain,
                            ClassId::new(ci as u32),
                            params,
                            &machine.state(state).action,
                        ));
                    }
                }
                ClassCode {
                    n_events,
                    actions,
                    targets,
                }
            })
            .collect();
        CompiledProgram { classes }
    }

    /// The effect of `event` arriving while `class` is in `state`, from
    /// the dense dispatch table (equivalent to
    /// [`StateMachine::dispatch`](crate::model::StateMachine::dispatch)).
    pub fn target(&self, class: ClassId, state: StateId, event: EventId) -> TransitionTarget {
        self.classes
            .get(class.index())
            .and_then(|cc| cc.targets.get(state.index() * cc.n_events + event.index()))
            .copied()
            .unwrap_or(TransitionTarget::CantHappen)
    }

    /// The compiled action entered when `event` drives `class` into
    /// `state`, or `None` if no transition produces that pair.
    ///
    /// # Errors
    ///
    /// Returns the compilation error recorded for the pair, if any.
    pub fn action(
        &self,
        class: ClassId,
        state: StateId,
        event: EventId,
    ) -> Option<Result<&CAction>> {
        let cc = self.classes.get(class.index())?;
        let entry = cc
            .actions
            .get(state.index() * cc.n_events + event.index())?;
        entry.as_ref().map(|r| r.as_ref().map_err(CoreError::clone))
    }
}

// -- the compiler ----------------------------------------------------------

struct Compiler<'d> {
    domain: &'d Domain,
    self_class: ClassId,
    /// Slot names; `0..params` are event parameters.
    names: Vec<String>,
    /// Best-known static type per slot (`None` once a slot is rebound
    /// with a different type — only possible in unvalidated blocks).
    types: Vec<Option<DataType>>,
    params: usize,
    /// Stack of candidate classes for nested `where` clauses.
    selected: Vec<ClassId>,
}

impl Compiler<'_> {
    /// Finds a local variable's slot (parameters are not visible as bare
    /// variables; the evaluator kept them in a separate namespace).
    fn local(&self, name: &str) -> Option<Slot> {
        self.names[self.params..]
            .iter()
            .position(|n| n == name)
            .map(|i| i + self.params)
    }

    /// Binds a local, allocating a slot at first textual binding.
    fn bind(&mut self, name: &str, ty: Option<DataType>) -> Slot {
        match self.local(name) {
            Some(slot) => {
                if self.types[slot] != ty {
                    self.types[slot] = None;
                }
                slot
            }
            None => {
                self.names.push(name.to_owned());
                self.types.push(ty);
                self.names.len() - 1
            }
        }
    }

    fn class_of(&self, ty: Option<DataType>, what: &str) -> Result<ClassId> {
        ty.and_then(DataType::class).ok_or_else(|| {
            CoreError::runtime(format!(
                "cannot statically resolve the class of {what} (expected an \
                 instance-typed expression)"
            ))
        })
    }

    fn block(&mut self, block: &Block) -> Result<Vec<CStmt>> {
        block.stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<CStmt> {
        match stmt {
            Stmt::Assign { lhs, expr, .. } => {
                let (value, vty) = self.expr(expr)?;
                match lhs {
                    LValue::Var(name) => Ok(CStmt::AssignSlot {
                        slot: self.bind(name, vty),
                        expr: value,
                    }),
                    LValue::Attr(base, attr) => {
                        let (cb, bty) = self.expr(base)?;
                        let class = self.class_of(bty, &format!("`{base}`"))?;
                        let attr = resolve_attr(self.domain, class, attr)?;
                        Ok(CStmt::AssignAttr {
                            base: cb,
                            attr,
                            expr: value,
                        })
                    }
                }
            }
            Stmt::Create { var, class, .. } => {
                let class = self.domain.class_id(class)?;
                Ok(CStmt::Create {
                    slot: self.bind(var, Some(DataType::Inst(class))),
                    class,
                })
            }
            Stmt::Delete { expr, .. } => {
                let (e, _) = self.expr(expr)?;
                Ok(CStmt::Delete { expr: e })
            }
            Stmt::SelectAny {
                var, class, filter, ..
            } => {
                let class = self.domain.class_id(class)?;
                let filter = self.filter(class, filter.as_ref())?;
                Ok(CStmt::SelectAny {
                    slot: self.bind(var, Some(DataType::Inst(class))),
                    class,
                    filter,
                })
            }
            Stmt::SelectMany {
                var, class, filter, ..
            } => {
                let class = self.domain.class_id(class)?;
                let filter = self.filter(class, filter.as_ref())?;
                Ok(CStmt::SelectMany {
                    slot: self.bind(var, Some(DataType::Set(class))),
                    class,
                    filter,
                })
            }
            Stmt::Relate { a, b, assoc, .. } => Ok(CStmt::Relate {
                a: self.expr(a)?.0,
                b: self.expr(b)?.0,
                assoc: self.domain.assoc_id(assoc)?,
            }),
            Stmt::Unrelate { a, b, assoc, .. } => Ok(CStmt::Unrelate {
                a: self.expr(a)?.0,
                b: self.expr(b)?.0,
                assoc: self.domain.assoc_id(assoc)?,
            }),
            Stmt::Generate {
                event,
                args,
                target,
                delay,
                ..
            } => self.generate(event, args, target, delay.as_ref()),
            Stmt::Cancel { event, .. } => Ok(CStmt::Cancel {
                event: resolve_event(self.domain, self.self_class, event)?,
            }),
            Stmt::If {
                arms, otherwise, ..
            } => {
                let arms = arms
                    .iter()
                    .map(|(cond, body)| Ok((self.expr(cond)?.0, self.block(body)?)))
                    .collect::<Result<_>>()?;
                let otherwise = otherwise.as_ref().map(|b| self.block(b)).transpose()?;
                Ok(CStmt::If { arms, otherwise })
            }
            Stmt::While { cond, body, .. } => Ok(CStmt::While {
                cond: self.expr(cond)?.0,
                body: self.block(body)?,
            }),
            Stmt::ForEach { var, set, body, .. } => {
                let (set, sty) = self.expr(set)?;
                let elem = sty.and_then(DataType::class).map(DataType::Inst);
                let slot = self.bind(var, elem);
                Ok(CStmt::ForEach {
                    slot,
                    set,
                    body: self.block(body)?,
                })
            }
            Stmt::Break { .. } => Ok(CStmt::Break),
            Stmt::Continue { .. } => Ok(CStmt::Continue),
            Stmt::Return { .. } => Ok(CStmt::Return),
            Stmt::ExprStmt { expr, .. } => Ok(CStmt::ExprStmt(self.expr(expr)?.0)),
        }
    }

    fn filter(&mut self, class: ClassId, filter: Option<&Expr>) -> Result<Option<CExpr>> {
        let Some(f) = filter else { return Ok(None) };
        self.selected.push(class);
        let r = self.expr(f);
        self.selected.pop();
        Ok(Some(r?.0))
    }

    fn generate(
        &mut self,
        event: &str,
        args: &[Expr],
        target: &GenTarget,
        delay: Option<&Expr>,
    ) -> Result<CStmt> {
        let cargs: Vec<CExpr> = args
            .iter()
            .map(|a| self.expr(a).map(|(e, _)| e))
            .collect::<Result<_>>()?;
        // Actor fallback: a bare variable in target position that is not a
        // bound local but names an actor is an actor send (same rule as
        // the type checker and the old evaluator).
        let actor: Option<ActorId> = match target {
            GenTarget::Actor(name) => Some(self.domain.actor_id(name)?),
            GenTarget::Inst(Expr::Var(name)) if self.local(name).is_none() => {
                self.domain.actor_id(name).ok()
            }
            GenTarget::Inst(_) => None,
        };
        if let Some(actor) = actor {
            if delay.is_some() {
                return Err(CoreError::runtime(
                    "`after` is only valid for instance-directed signals",
                ));
            }
            let decl = self.domain.actor(actor);
            let event_id = decl
                .event_id(event)
                .ok_or_else(|| CoreError::unresolved("actor event", event))?;
            check_arity(&decl.events[event_id.index()].params, cargs.len(), event)?;
            return Ok(CStmt::GenActor {
                actor,
                event: event_id,
                args: cargs,
            });
        }
        let GenTarget::Inst(target_expr) = target else {
            unreachable!("actor targets handled above");
        };
        let (ct, tty) = self.expr(target_expr)?;
        let class = self.class_of(tty, &format!("`{target_expr}`"))?;
        let event_id = resolve_event(self.domain, class, event)?;
        check_arity(
            &self.domain.class(class).events[event_id.index()].params,
            cargs.len(),
            event,
        )?;
        let delay = delay.map(|d| self.expr(d).map(|(e, _)| e)).transpose()?;
        Ok(CStmt::GenInst {
            event: event_id,
            args: cargs,
            target: ct,
            delay,
        })
    }

    /// Compiles an expression, returning its best-known static type
    /// (`None` when the type is unknown or irrelevant — only instance and
    /// set classes are ever consumed downstream).
    fn expr(&mut self, expr: &Expr) -> Result<(CExpr, Option<DataType>)> {
        match expr {
            Expr::Lit(v) => Ok((CExpr::Lit(v.clone()), Some(v.data_type()))),
            Expr::Var(name) => {
                let slot = self
                    .local(name)
                    .ok_or_else(|| CoreError::unresolved("variable", name.clone()))?;
                Ok((CExpr::Slot(slot), self.types[slot]))
            }
            Expr::SelfRef => Ok((CExpr::SelfRef, Some(DataType::Inst(self.self_class)))),
            Expr::Selected => {
                let class = *self.selected.last().ok_or_else(|| {
                    CoreError::runtime("`selected` used outside a `where` clause")
                })?;
                Ok((CExpr::Selected, Some(DataType::Inst(class))))
            }
            Expr::Param(name) => {
                let slot = self.names[..self.params]
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| CoreError::unresolved("event parameter", name.clone()))?;
                Ok((CExpr::Slot(slot), self.types[slot]))
            }
            Expr::Attr(base, name) => {
                let (cb, bty) = self.expr(base)?;
                let class = self.class_of(bty, &format!("`{base}`"))?;
                let attr = resolve_attr(self.domain, class, name)?;
                let ty = self.domain.class(class).attribute(attr).ty;
                Ok((CExpr::Attr(Box::new(cb), attr), Some(ty)))
            }
            Expr::Nav(base, class_name, assoc_name) => {
                let (cb, bty) = self.expr(base)?;
                let assoc = self.domain.assoc_id(assoc_name)?;
                let want = self.domain.class_id(class_name)?;
                let src = self.class_of(bty, &format!("`{base}`"))?;
                let target = self.domain.nav_target(assoc, src)?;
                if target != want {
                    return Err(CoreError::runtime(format!(
                        "association {assoc_name} from {} reaches {}, not {}",
                        self.domain.class(src).name,
                        self.domain.class(target).name,
                        class_name
                    )));
                }
                Ok((
                    CExpr::Nav {
                        base: Box::new(cb),
                        assoc,
                        target: want,
                    },
                    Some(DataType::Set(want)),
                ))
            }
            Expr::Unary(op, e) => {
                let (ce, ety) = self.expr(e)?;
                // `any` is the only operator producing an instance type.
                let ty = match op {
                    UnOp::Any => ety.and_then(DataType::class).map(DataType::Inst),
                    _ => None,
                };
                Ok((CExpr::Unary(*op, Box::new(ce)), ty))
            }
            Expr::Binary(op, a, b) => {
                let (ca, _) = self.expr(a)?;
                let (cb, _) = self.expr(b)?;
                Ok((CExpr::Binary(*op, Box::new(ca), Box::new(cb)), None))
            }
            Expr::BridgeCall(actor, func, args) => {
                let actor_id = self.domain.actor_id(actor)?;
                let decl = self
                    .domain
                    .actor(actor_id)
                    .func(func)
                    .ok_or_else(|| CoreError::unresolved("bridge function", func.clone()))?;
                let ty = decl.ret;
                let cargs = args
                    .iter()
                    .map(|a| self.expr(a).map(|(e, _)| e))
                    .collect::<Result<_>>()?;
                Ok((
                    CExpr::Bridge {
                        actor: actor_id,
                        func: func.clone(),
                        args: cargs,
                    },
                    ty,
                ))
            }
        }
    }
}

fn check_arity(params: &[(String, DataType)], got: usize, event: &str) -> Result<()> {
    if params.len() != got {
        return Err(CoreError::runtime(format!(
            "event `{event}` takes {} argument(s), got {got}",
            params.len()
        )));
    }
    Ok(())
}

fn resolve_attr(domain: &Domain, class: ClassId, name: &str) -> Result<AttrId> {
    domain
        .class(class)
        .attr_id(name)
        .ok_or_else(|| CoreError::Unresolved {
            kind: "attribute",
            name: format!("{}.{name}", domain.class(class).name),
        })
}

fn resolve_event(domain: &Domain, class: ClassId, name: &str) -> Result<EventId> {
    domain
        .class(class)
        .event_id(name)
        .ok_or_else(|| CoreError::Unresolved {
            kind: "event",
            name: format!("{}.{name}", domain.class(class).name),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{pipeline_domain, DomainBuilder};
    use crate::model::Multiplicity;
    use crate::parse::parse_block;

    fn demo_domain() -> Domain {
        let mut b = DomainBuilder::new("demo");
        b.actor("OUT").event("done", &[("v", DataType::Int)]);
        b.class("Lamp").attr("on", DataType::Bool);
        b.class("Counter")
            .attr("n", DataType::Int)
            .event("Set", &[("v", DataType::Int)])
            .state("Idle", "")
            .state("Run", "self.n = rcvd.v; gen done(self.n) to OUT;")
            .initial("Idle")
            .transition("Idle", "Set", "Run")
            .transition("Run", "Set", "Run");
        b.association(
            "R1",
            "Counter",
            Multiplicity::One,
            "Lamp",
            Multiplicity::Many,
        );
        b.build().unwrap()
    }

    #[test]
    fn params_occupy_leading_slots() {
        let d = demo_domain();
        let counter = d.class_id("Counter").unwrap();
        let block = parse_block("x = rcvd.v; y = x + 1;").unwrap();
        let a = compile_block(&d, counter, &[("v".to_owned(), DataType::Int)], &block).unwrap();
        assert_eq!(a.layout.params(), 1);
        assert_eq!(a.layout.name(0), "v");
        assert_eq!(a.layout.slot("x"), Some(1));
        assert_eq!(a.layout.slot("y"), Some(2));
        assert_eq!(a.layout.len(), 3);
    }

    #[test]
    fn attrs_and_events_are_id_resolved() {
        let d = demo_domain();
        let counter = d.class_id("Counter").unwrap();
        let block = parse_block("self.n = self.n + 1; gen Set(self.n) to self;").unwrap();
        let a = compile_block(&d, counter, &[], &block).unwrap();
        let CStmt::AssignAttr { attr, .. } = &a.code[0] else {
            panic!("expected attr assignment, got {:?}", a.code[0]);
        };
        assert_eq!(*attr, d.class(counter).attr_id("n").unwrap());
        let CStmt::GenInst { event, .. } = &a.code[1] else {
            panic!("expected gen, got {:?}", a.code[1]);
        };
        assert_eq!(*event, d.class(counter).event_id("Set").unwrap());
    }

    #[test]
    fn unknown_names_fail_to_compile() {
        let d = demo_domain();
        let counter = d.class_id("Counter").unwrap();
        for src in [
            "x = nope + 1;",
            "self.zzz = 1;",
            "gen Nope() to self;",
            "x = self -> Lamp[R99];",
        ] {
            let block = parse_block(src).unwrap();
            assert!(
                compile_block(&d, counter, &[], &block).is_err(),
                "{src} should not compile"
            );
        }
    }

    #[test]
    fn navigation_is_class_checked() {
        let d = demo_domain();
        let counter = d.class_id("Counter").unwrap();
        let block = parse_block("x = self -> Counter[R1];").unwrap();
        let err = compile_block(&d, counter, &[], &block).unwrap_err();
        assert!(err.to_string().contains("reaches"));
    }

    #[test]
    fn actor_fallback_matches_typecheck_rule() {
        let d = demo_domain();
        let counter = d.class_id("Counter").unwrap();
        // OUT is not a local, so the generate resolves to the actor.
        let block = parse_block("gen done(1) to OUT;").unwrap();
        let a = compile_block(&d, counter, &[], &block).unwrap();
        assert!(matches!(a.code[0], CStmt::GenActor { .. }));
    }

    #[test]
    fn whole_domain_compiles_event_reachable_pairs() {
        let d = pipeline_domain(3).unwrap();
        let p = CompiledProgram::new(&d);
        for k in 0..3u32 {
            let class = d.class_id(&format!("Stage{k}")).unwrap();
            let c = d.class(class);
            let m = c.state_machine.as_ref().unwrap();
            let fwd = m.state_id("Forwarding").unwrap();
            let feed = c.event_id("Feed").unwrap();
            let action = p.action(class, fwd, feed).unwrap().unwrap();
            assert_eq!(action.layout.params(), 1, "Feed carries one parameter");
            // The initial state is never entered by an event.
            let waiting = m.state_id("Waiting").unwrap();
            assert!(p.action(class, waiting, feed).is_none());
        }
    }
}
