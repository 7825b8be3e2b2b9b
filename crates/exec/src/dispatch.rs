//! The per-signal engine core both schedulers share.
//!
//! [`Simulation`](crate::Simulation) and every shard of a
//! [`ShardedSimulation`](crate::ShardedSimulation) execute one signal
//! the same way: look up the pre-resolved dispatch slot, change state,
//! record the trace, and run the destination state's action to
//! completion against an [`ActionHost`]. This module is that common
//! part, written once:
//!
//! * [`Program`] — the compiled model: frames, bytecode, the executor
//!   selection with its dispatch table, and interned span names;
//! * [`Core`] — the mutable engine state (store, mailboxes, PRNG, trace,
//!   recorder, recycled buffers) and its single dispatch body;
//! * [`Host`] — the single [`ActionHost`] actions run against.
//!
//! What really differs between the schedulers inside a dispatch sits
//! behind the small [`Route`] seam: where sends and timers go, how a
//! created instance gets its id, whether actions may change the
//! population's structure or write instances they do not own, and
//! whether bridge calls reach registered handlers. The loops that decide
//! *when* to dispatch stay with each scheduler.

use crate::mailbox::Mailboxes;
use crate::sched::{SchedPolicy, SplitMix64};
use crate::sim::{BridgeFn, Engine};
use crate::snapshot::{self, Reader, SnapError, SnapResult, Writer};
use crate::store::ObjectStore;
use crate::trace::Trace;
use std::sync::Arc;
use xtuml_core::bc::{self, BcAction, BcEntry, BcProgram};
use xtuml_core::code::CompiledProgram;
use xtuml_core::error::{CoreError, Result};
use xtuml_core::ids::{ActorId, AssocId, AttrId, ClassId, EventId, InstId, StateId};
use xtuml_core::interp::{self, ActionHost, ExecCtx, Outcome};
use xtuml_core::model::{Domain, TransitionTarget};
use xtuml_core::value::Value;
use xtuml_obs::{Counter, Gauge, Metrics, Recorder, Sink as _};

/// A queued signal, in both schedulers' mailboxes. Argument payloads
/// are reference-counted so fan-out (timers, stimuli, trace records)
/// shares one allocation.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub(crate) from: Option<InstId>,
    pub(crate) event: EventId,
    pub(crate) args: Arc<[Value]>,
    pub(crate) seq: u64,
}

impl Envelope {
    /// True if the envelope belongs in `to`'s self queue: a signal `to`
    /// sent to itself, under the self-priority rule.
    #[inline]
    pub(crate) fn is_self(&self, to: InstId, self_priority: bool) -> bool {
        self_priority && self.from == Some(to)
    }
}

/// A delayed signal (`gen ... after`), due at `deadline`.
#[derive(Debug, Clone)]
pub(crate) struct Timer {
    pub(crate) deadline: u64,
    pub(crate) seq: u64,
    pub(crate) from: InstId,
    pub(crate) to: InstId,
    pub(crate) event: EventId,
    pub(crate) args: Arc<[Value]>,
}

/// An external stimulus: deliver `event` to `to` at `time`.
#[derive(Debug, Clone)]
pub(crate) struct Stimulus {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    pub(crate) to: InstId,
    pub(crate) event: EventId,
    pub(crate) args: Arc<[Value]>,
}

/// By-arity recycling pool for signal payload buffers.
///
/// A dispatched envelope's payload `Arc` dies at the end of its dispatch:
/// [`TraceEvent::Dispatch`](crate::TraceEvent::Dispatch) records no
/// arguments, so unless a timer or an actor-trace event still holds a
/// clone, the buffer is uniquely owned again and can be handed back to
/// the VM's next computed send instead of going through the allocator
/// twice (argument `Vec` + `Arc` payload) per signal. Pooling is
/// invisible to execution: buffers are only reissued when uniquely
/// owned, and the VM overwrites every slot before sending.
struct PayloadPool {
    /// `free[arity]` holds uniquely-owned buffers of exactly `arity` slots.
    free: [Vec<Arc<[Value]>>; PayloadPool::MAX_ARITY + 1],
}

impl PayloadPool {
    /// Largest pooled arity; wider signals are rare enough to take the
    /// allocator path.
    const MAX_ARITY: usize = 8;
    /// Per-arity retention cap, bounding pool memory on bursty workloads.
    const MAX_FREE: usize = 64;

    fn new() -> PayloadPool {
        PayloadPool {
            free: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Pops a uniquely-owned buffer of exactly `len` slots, if one is
    /// pooled.
    #[inline]
    fn take(&mut self, len: usize) -> Option<Arc<[Value]>> {
        self.free.get_mut(len)?.pop()
    }

    /// Returns a dispatched payload to the pool — if nothing else (a
    /// timer, the actor trace, a literal-payload table) still holds it.
    #[inline]
    fn recycle(&mut self, mut args: Arc<[Value]>) {
        if let Some(lane) = self.free.get_mut(args.len()) {
            if lane.len() < Self::MAX_FREE && Arc::get_mut(&mut args).is_some() {
                lane.push(args);
            }
        }
    }
}

/// How a resolved dispatch slot executes its action.
#[derive(Debug, Clone)]
enum Exec {
    /// Run the lowered bytecode action directly.
    Vm(Arc<BcAction>),
    /// Run the compiled frames. `fallback` marks slots the bytecode
    /// lowering could not encode under [`Engine::Bc`] (diagnostic
    /// X0016); those still count `BcFallbacks` per dispatch so the
    /// metrics goldens are unchanged.
    Frames { fallback: bool },
    /// The lowered body is provably effect-free ([`BcAction::is_nop`]):
    /// skip frame setup and execution entirely. The state change and
    /// trace record still happen in the dispatch body. `vm` records
    /// which engine the table was resolved for, so the per-dispatch
    /// `BcActions` counter stays byte-identical to a run that actually
    /// entered the VM.
    Nop { vm: bool },
}

/// One pre-resolved `(from_state, event)` dispatch decision.
#[derive(Debug, Clone)]
enum Slot {
    /// Transition to `to`, executing per `exec`.
    Run { to: StateId, exec: Exec },
    /// Declared ignore: consume silently.
    Ignore,
    /// Undeclared pair: error in strict mode, drop otherwise.
    CantHappen,
}

/// Dense per-class slot table, indexed `state * n_events + event`.
#[derive(Debug, Clone)]
struct ClassSlots {
    n_events: usize,
    slots: Vec<Slot>,
}

impl ClassSlots {
    #[inline]
    fn slot(&self, state: StateId, event: EventId) -> &Slot {
        &self.slots[state.index() * self.n_events + event.index()]
    }
}

/// Pre-resolved dispatch decisions for a whole domain.
///
/// Built once per engine selection. The dispatch hot path indexes it
/// with two loads instead of walking the transition table, re-checking
/// the engine, and probing the bytecode program per signal — and the
/// slot holds a direct reference to the lowered [`BcAction`]. Slots are
/// `Arc`-backed and the table is `Sync`, so shard workers share one copy
/// by reference.
#[derive(Debug, Clone)]
struct DispatchTable {
    /// Per class; `None` for passive classes (no state machine).
    classes: Vec<Option<ClassSlots>>,
    /// Slots resolved to the frame interpreter because the bytecode
    /// lowering bailed (X0016), under [`Engine::Bc`]. Static — decided
    /// once here, not re-discovered per signal.
    fallback_slots: usize,
}

impl DispatchTable {
    fn new(
        domain: &Domain,
        program: &CompiledProgram,
        bc: &BcProgram,
        engine: Engine,
    ) -> DispatchTable {
        let mut fallback_slots = 0;
        let classes = domain
            .classes
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let class = ClassId::new(ci as u32);
                let machine = c.state_machine.as_ref()?;
                let n_events = c.events.len();
                let mut slots = Vec::with_capacity(machine.states.len() * n_events);
                for s in 0..machine.states.len() {
                    for e in 0..n_events {
                        let (state, event) = (StateId::new(s as u32), EventId::new(e as u32));
                        slots.push(match program.target(class, state, event) {
                            TransitionTarget::To(to) => {
                                let exec = match engine {
                                    Engine::Bc => match bc.entry(class, to, event) {
                                        Some(BcEntry::Vm(a)) if a.is_nop() => {
                                            Exec::Nop { vm: true }
                                        }
                                        Some(BcEntry::Vm(a)) => Exec::Vm(Arc::clone(a)),
                                        // `Unsupported` (X0016) and failed
                                        // frame compiles both take the
                                        // frames path, which re-raises any
                                        // compile error lazily.
                                        _ => {
                                            fallback_slots += 1;
                                            Exec::Frames { fallback: true }
                                        }
                                    },
                                    // A lowered-and-nop body proves the
                                    // frames action it came from is
                                    // effect-free too — the frames engine
                                    // elides it the same way (no counters
                                    // fire either way on this path).
                                    Engine::Frames => match bc.entry(class, to, event) {
                                        Some(BcEntry::Vm(a)) if a.is_nop() => {
                                            Exec::Nop { vm: false }
                                        }
                                        _ => Exec::Frames { fallback: false },
                                    },
                                };
                                Slot::Run { to, exec }
                            }
                            TransitionTarget::Ignore => Slot::Ignore,
                            TransitionTarget::CantHappen => Slot::CantHappen,
                        });
                    }
                }
                Some(ClassSlots { n_events, slots })
            })
            .collect();
        DispatchTable {
            classes,
            fallback_slots,
        }
    }

    /// The slot table for `class`, or `None` for passive classes.
    #[inline]
    fn class(&self, class: ClassId) -> Option<&ClassSlots> {
        self.classes[class.index()].as_ref()
    }
}

/// Pre-interned span names, so `--profile` runs stop calling `format!`
/// per signal on the dispatch hot path.
#[derive(Debug, Clone)]
struct SpanNames {
    /// `rtc[class][event]` = `"Class.Event"`.
    rtc: Vec<Vec<String>>,
    /// `action[class][state]` = `"action Class.State"`.
    action: Vec<Vec<String>>,
}

impl SpanNames {
    fn new(domain: &Domain) -> SpanNames {
        let rtc = domain
            .classes
            .iter()
            .map(|c| {
                c.events
                    .iter()
                    .map(|e| format!("{}.{}", c.name, e.name))
                    .collect()
            })
            .collect();
        let action = domain
            .classes
            .iter()
            .map(|c| {
                c.state_machine.as_ref().map_or_else(Vec::new, |m| {
                    m.states
                        .iter()
                        .map(|s| format!("action {}.{}", c.name, s.name))
                        .collect()
                })
            })
            .collect();
        SpanNames { rtc, action }
    }
}

/// The compiled model both schedulers dispatch from: slot-resolved
/// frames, the bytecode lowered from them, the executor selection with
/// its pre-resolved dispatch table, and span names for profiling. It is
/// read-only while signals run, so shard workers share one by reference.
pub(crate) struct Program<'d> {
    pub(crate) domain: &'d Domain,
    code: CompiledProgram,
    pub(crate) bc: BcProgram,
    /// Action executor selection; [`Engine::Bc`] by default.
    pub(crate) engine: Engine,
    /// Rebuilt whenever the engine selection changes.
    table: DispatchTable,
    /// Built when a spans-enabled recorder attaches.
    spans: Option<SpanNames>,
}

impl<'d> Program<'d> {
    /// Compiles and lowers every action of `domain` once.
    pub(crate) fn new(domain: &'d Domain) -> Program<'d> {
        let code = CompiledProgram::new(domain);
        let bc = BcProgram::new(domain, &code);
        let table = DispatchTable::new(domain, &code, &bc, Engine::default());
        Program {
            domain,
            code,
            bc,
            engine: Engine::default(),
            table,
            spans: None,
        }
    }

    /// Selects the action executor and re-resolves the dispatch table
    /// for it.
    pub(crate) fn set_engine(&mut self, engine: Engine) {
        if engine != self.engine {
            self.engine = engine;
            self.table = DispatchTable::new(self.domain, &self.code, &self.bc, engine);
        }
    }

    /// Dispatch slots statically resolved to the frame interpreter
    /// because the bytecode lowering bailed (X0016).
    pub(crate) fn fallback_slots(&self) -> usize {
        self.table.fallback_slots
    }

    /// Installs `rec` in `slot`, interning span names first when it
    /// records spans.
    pub(crate) fn attach(&mut self, slot: &mut Option<Box<Recorder>>, rec: Recorder) {
        if rec.spans_enabled() && self.spans.is_none() {
            self.spans = Some(SpanNames::new(self.domain));
        }
        *slot = Some(Box::new(rec));
    }

    fn rtc_span(&self, class: ClassId, event: EventId) -> std::borrow::Cow<'_, str> {
        match &self.spans {
            Some(sn) => sn.rtc[class.index()][event.index()].as_str().into(),
            None => {
                let c = self.domain.class(class);
                format!("{}.{}", c.name, c.events[event.index()].name).into()
            }
        }
    }

    fn action_span(&self, class: ClassId, state: StateId) -> std::borrow::Cow<'_, str> {
        match &self.spans {
            Some(sn) => sn.action[class.index()][state.index()].as_str().into(),
            None => {
                let c = self.domain.class(class);
                let machine = c.state_machine.as_ref().expect("active class");
                format!("action {}.{}", c.name, machine.state(state).name).into()
            }
        }
    }
}

/// What differs between the schedulers inside one dispatch. The
/// sequential engine delivers everything at once and lets actions
/// change the population; a shard buffers cross-shard sends and timers
/// for the epoch barrier and confines actions to what it owns.
pub(crate) trait Route {
    /// Whether actions may delete instances and relate or unrelate them.
    const MUTABLE: bool;
    /// Whether actions may write `inst`'s attributes.
    fn owns(&self, inst: InstId) -> bool;
    /// Creates an instance of `class` in `store` and returns its id.
    fn alloc(&self, store: &mut ObjectStore, domain: &Domain, class: ClassId) -> InstId;
    /// The next signal sequence number.
    fn next_seq(&mut self) -> u64;
    /// Delivers a sent signal to `to`.
    fn post(&mut self, core: &mut Core, to: InstId, env: Envelope);
    /// Arms a delayed signal.
    fn arm(&mut self, core: &mut Core, timer: Timer);
    /// Cancels `inst`'s pending timers for `event`.
    fn cancel(&mut self, core: &mut Core, inst: InstId, event: EventId);
    /// Drops the pending timers of a deleted instance.
    fn forget(&mut self, inst: InstId);
    /// The handler registered for bridge calls on `actor`, if any.
    fn bridge(&mut self, actor: ActorId) -> Option<&mut BridgeFn>;
}

/// The mutable state of one engine — the sequential simulation, or one
/// shard between barriers — and its run-to-completion dispatch.
pub(crate) struct Core {
    pub(crate) store: ObjectStore,
    /// Per-instance signal queues and the ascending ready list the
    /// scheduler's random pick indexes.
    pub(crate) mail: Mailboxes<Envelope>,
    pub(crate) rng: SplitMix64,
    pub(crate) trace: Trace,
    /// Telemetry sink; `None` (the default) costs one predictable branch
    /// per instrumented site — the zero-cost-when-disabled contract.
    pub(crate) obs: Option<Box<Recorder>>,
    pub(crate) now: u64,
    /// Events dropped in non-strict mode.
    pub(crate) dropped: u64,
    strict: bool,
    self_priority: bool,
    /// Recycled execution frame: taken by each dispatch, returned after.
    frame_buf: Vec<Option<Value>>,
    /// Recycled candidate buffer for filtered selects (see
    /// [`ExecCtx::scratch`]).
    scratch_buf: Vec<InstId>,
    /// Recycled signal payload buffers, fed by finished dispatches and
    /// drained by the VM's computed sends; engine-local, so pooling never
    /// couples shards.
    payloads: PayloadPool,
}

impl Core {
    /// An engine at time 0 with no recorder.
    pub(crate) fn new(
        policy: &SchedPolicy,
        store: ObjectStore,
        mail: Mailboxes<Envelope>,
        rng: SplitMix64,
        trace: Trace,
    ) -> Core {
        Core {
            store,
            mail,
            rng,
            trace,
            obs: None,
            now: 0,
            dropped: 0,
            strict: policy.strict,
            self_priority: policy.self_priority,
            frame_buf: Vec::new(),
            scratch_buf: Vec::new(),
            payloads: PayloadPool::new(),
        }
    }

    #[inline]
    pub(crate) fn count(&mut self, c: Counter, n: u64) {
        if let Some(o) = self.obs.as_mut() {
            o.count(c, n);
        }
    }

    #[inline]
    pub(crate) fn gauge(&mut self, g: Gauge, v: u64) {
        if let Some(o) = self.obs.as_mut() {
            o.gauge_max(g, v);
        }
    }

    /// Queues `env` for `to` under the self-priority rule. Only live
    /// instances reach here: every enqueue path checks liveness first,
    /// and deletion clears the mailbox.
    #[inline]
    pub(crate) fn push(&mut self, to: InstId, env: Envelope) {
        self.mail.push(to, env.is_self(to, self.self_priority), env);
    }

    /// [`Core::push`], sampling the ready-set gauge.
    #[inline]
    pub(crate) fn enqueue(&mut self, to: InstId, env: Envelope) {
        self.push(to, env);
        self.gauge(Gauge::ReadySetMax, self.mail.ready().len() as u64);
    }

    /// The scheduler's draw over the ready list (nonempty).
    #[inline]
    pub(crate) fn pick(&mut self) -> InstId {
        let ready = self.mail.ready();
        ready[self.rng.below(ready.len())]
    }

    /// Moves `args` into a pooled buffer when one of the right arity is
    /// free, avoiding the double allocation (`Vec` + `Arc`) per payload.
    pub(crate) fn payload(&mut self, args: Vec<Value>) -> Arc<[Value]> {
        match self.payloads.take(args.len()) {
            Some(mut buf) => {
                let slots = Arc::get_mut(&mut buf).expect("pooled buffers are uniquely owned");
                for (slot, v) in slots.iter_mut().zip(args) {
                    *slot = v;
                }
                buf
            }
            None => Arc::from(args),
        }
    }

    /// Creates an instance of `class` with an id from `route`. Creation
    /// places the instance in its initial state **without** executing
    /// that state's entry action (xtUML creation semantics).
    pub(crate) fn create<R: Route>(
        &mut self,
        domain: &Domain,
        route: &mut R,
        class: ClassId,
    ) -> InstId {
        let inst = route.alloc(&mut self.store, domain, class);
        self.mail.grow_to(self.store.id_space());
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::InstancesCreated, 1);
            o.gauge_max(Gauge::LiveInstancesMax, self.store.live_count() as u64);
        }
        self.trace.push_create(self.now, inst, class);
        inst
    }

    /// Dispatches `env` to `inst`: one run-to-completion step, with the
    /// action's sends, timers and creations routed by `route`.
    pub(crate) fn dispatch<R: Route>(
        &mut self,
        prog: &Program<'_>,
        route: &mut R,
        inst: InstId,
        env: Envelope,
    ) -> Result<()> {
        let (class, from_state) = self.store.class_state(inst)?;
        let Some(cs) = prog.table.class(class) else {
            return Err(CoreError::runtime(format!(
                "signal sent to passive class {}",
                prog.domain.class(class).name
            )));
        };
        let mut rtc_span = false;
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::SignalsDispatched, 1);
            if o.spans_enabled() {
                rtc_span = true;
                let track = o.track;
                o.span_begin(track, "rtc", &prog.rtc_span(class, env.event));
            }
        }
        let out = match cs.slot(from_state, env.event) {
            Slot::Run { to, exec } => {
                let to_state = *to;
                self.store.set_state(inst, to_state)?;
                self.trace.push_dispatch(
                    self.now, inst, env.from, env.event, env.seq, from_state, to_state,
                );
                let mut action_span = false;
                if let Some(o) = self.obs.as_mut() {
                    o.count(Counter::TransitionsFired, 1);
                    if o.spans_enabled() {
                        action_span = true;
                        let track = o.track;
                        o.span_begin(track, "action", &prog.action_span(class, to_state));
                    }
                }
                let run = match exec {
                    Exec::Nop { vm } => {
                        // Provably effect-free body: no frame, no ctx, no
                        // VM entry. Counters must match a real execution.
                        if *vm {
                            self.count(Counter::BcActions, 1);
                        }
                        Ok(Outcome::Completed)
                    }
                    Exec::Vm(bca) => {
                        self.count(Counter::BcActions, 1);
                        self.run_action(prog, route, inst, class, &env.args, bca.n_regs, |h, c| {
                            bc::run_bc(h, c, bca)
                        })
                    }
                    Exec::Frames { fallback } => {
                        if *fallback {
                            self.count(Counter::BcFallbacks, 1);
                        }
                        // Only the frame interpreter needs the compiled
                        // action; a `Vm` slot implies the frame compile
                        // it lowered from succeeded.
                        let action =
                            prog.code
                                .action(class, to_state, env.event)
                                .ok_or_else(|| {
                                    CoreError::runtime(
                                        "internal: dispatched pair has no compiled action",
                                    )
                                })??;
                        let len = action.frame_len();
                        self.run_action(prog, route, inst, class, &env.args, len, |h, c| {
                            interp::run_code(h, c, action)
                        })
                    }
                };
                if action_span {
                    if let Some(o) = self.obs.as_mut() {
                        let track = o.track;
                        o.span_end(track);
                    }
                }
                run?;
                Ok(())
            }
            Slot::Ignore => {
                self.count(Counter::SignalsIgnored, 1);
                self.trace.push_ignored(self.now, inst, env.event);
                Ok(())
            }
            Slot::CantHappen => {
                if self.strict {
                    let c = prog.domain.class(class);
                    let machine = c.state_machine.as_ref().expect("active class");
                    Err(CoreError::CantHappen {
                        class: c.name.clone(),
                        state: machine.state(from_state).name.clone(),
                        event: c.events[env.event.index()].name.clone(),
                    })
                } else {
                    self.dropped += 1;
                    self.count(Counter::SignalsDropped, 1);
                    self.trace.push_dropped(self.now, inst, env.event);
                    Ok(())
                }
            }
        };
        if rtc_span {
            if let Some(o) = self.obs.as_mut() {
                let track = o.track;
                o.span_end(track);
            }
        }
        // The envelope is fully consumed: offer its payload buffer to the
        // next computed send.
        self.payloads.recycle(env.args);
        out
    }

    /// Runs one action body in a recycled frame of `frame_len` slots
    /// with `args` bound, against a [`Host`] over this core and `route`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn run_action<R: Route>(
        &mut self,
        prog: &Program<'_>,
        route: &mut R,
        inst: InstId,
        class: ClassId,
        args: &[Value],
        frame_len: usize,
        body: impl FnOnce(&mut Host<'_, '_, R>, &mut ExecCtx) -> Result<Outcome>,
    ) -> Result<Outcome> {
        let mut frame = std::mem::take(&mut self.frame_buf);
        frame.clear();
        frame.resize(frame_len, None);
        let mut ctx = ExecCtx::with_frame(inst, class, frame);
        ctx.scratch = std::mem::take(&mut self.scratch_buf);
        ctx.bind_args(args.iter().cloned());
        let mut host = Host {
            core: self,
            route,
            domain: prog.domain,
        };
        let r = body(&mut host, &mut ctx);
        self.frame_buf = std::mem::take(&mut ctx.frame);
        self.scratch_buf = std::mem::take(&mut ctx.scratch);
        r
    }
}

/// The [`ActionHost`] every action runs against: its engine's [`Core`],
/// with the scheduler-specific parts delegated to the [`Route`].
pub(crate) struct Host<'a, 'd, R> {
    core: &'a mut Core,
    route: &'a mut R,
    domain: &'d Domain,
}

impl<R: Route> Host<'_, '_, R> {
    /// What a shard rejects: structure mutation and writes to instances
    /// it does not own. Unreachable after [`crate::shard_safety`], but
    /// enforced anyway.
    fn unsupported(what: &str) -> CoreError {
        CoreError::runtime(format!(
            "{what} is not shard-safe; run with --jobs 1 (sequential)"
        ))
    }

    fn check_owned(&self, inst: InstId) -> Result<()> {
        if self.route.owns(inst) {
            Ok(())
        } else {
            Err(Self::unsupported("writing another shard's attribute"))
        }
    }
}

impl<R: Route> ActionHost for Host<'_, '_, R> {
    fn domain(&self) -> &Domain {
        self.domain
    }

    fn create(&mut self, class: ClassId) -> Result<InstId> {
        Ok(self.core.create(self.domain, self.route, class))
    }

    fn delete(&mut self, inst: InstId) -> Result<()> {
        if !R::MUTABLE {
            return Err(Self::unsupported("instance deletion"));
        }
        self.core.store.delete(inst)?;
        self.core.mail.clear(inst);
        self.route.forget(inst);
        self.core.count(Counter::InstancesDeleted, 1);
        self.core.trace.push_delete(self.core.now, inst);
        Ok(())
    }

    fn class_of(&self, inst: InstId) -> Result<ClassId> {
        self.core.store.class_of(inst)
    }

    fn attr_read(&self, inst: InstId, attr: AttrId) -> Result<Value> {
        self.core.store.attr_read(inst, attr)
    }

    fn attr_write(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        self.check_owned(inst)?;
        self.core.store.attr_write(self.domain, inst, attr, value)
    }

    fn attr_write_typed(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        self.check_owned(inst)?;
        self.core.store.attr_write_typed(inst, attr, value)
    }

    fn take_payload(&mut self, len: usize) -> Option<Arc<[Value]>> {
        self.core.payloads.take(len)
    }

    fn instances_of(&self, class: ClassId) -> Vec<InstId> {
        self.core.store.instances_of(class)
    }

    fn related(&self, inst: InstId, assoc: AssocId) -> Result<Vec<InstId>> {
        self.core.store.related(inst, assoc)
    }

    fn each_instance(&self, class: ClassId, f: &mut dyn FnMut(InstId)) {
        self.core.store.instances_iter(class).for_each(f);
    }

    fn first_instance_of(&self, class: ClassId) -> Option<InstId> {
        self.core.store.first_instance_of(class)
    }

    fn related_each(&self, inst: InstId, assoc: AssocId, f: &mut dyn FnMut(InstId)) -> Result<()> {
        self.core.store.related_iter(inst, assoc)?.for_each(f);
        Ok(())
    }

    fn relate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        if !R::MUTABLE {
            return Err(Self::unsupported("relating instances"));
        }
        self.core.store.relate(self.domain, a, b, assoc)
    }

    fn unrelate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        if !R::MUTABLE {
            return Err(Self::unsupported("unrelating instances"));
        }
        self.core.store.unrelate(a, b, assoc)
    }

    fn send(&mut self, from: InstId, to: InstId, event: EventId, args: Vec<Value>) -> Result<()> {
        self.send_arc(from, to, event, Arc::from(args))
    }

    fn send_arc(
        &mut self,
        from: InstId,
        to: InstId,
        event: EventId,
        args: Arc<[Value]>,
    ) -> Result<()> {
        self.core.store.class_of(to)?; // liveness check
        let seq = self.route.next_seq();
        if let Some(o) = self.core.obs.as_mut() {
            o.count(Counter::SignalsSent, 1);
            if from == to {
                o.count(Counter::SelfSignals, 1);
            }
        }
        let env = Envelope {
            from: Some(from),
            event,
            args,
            seq,
        };
        self.route.post(self.core, to, env);
        Ok(())
    }

    fn send_actor(
        &mut self,
        from: InstId,
        actor: ActorId,
        event: EventId,
        args: Vec<Value>,
    ) -> Result<()> {
        self.send_actor_arc(from, actor, event, Arc::from(args))
    }

    fn send_actor_arc(
        &mut self,
        _from: InstId,
        actor: ActorId,
        event: EventId,
        args: Arc<[Value]>,
    ) -> Result<()> {
        self.core.count(Counter::ActorSignals, 1);
        self.core
            .trace
            .push_actor_signal(self.core.now, actor, event, args);
        Ok(())
    }

    fn send_delayed(
        &mut self,
        from: InstId,
        to: InstId,
        event: EventId,
        args: Vec<Value>,
        delay: i64,
    ) -> Result<()> {
        self.core.store.class_of(to)?;
        let timer = Timer {
            deadline: self.core.now + delay as u64,
            seq: self.route.next_seq(),
            from,
            to,
            event,
            args: Arc::from(args),
        };
        self.core.count(Counter::TimersSet, 1);
        self.route.arm(self.core, timer);
        Ok(())
    }

    fn cancel_delayed(&mut self, inst: InstId, event: EventId) -> Result<()> {
        self.route.cancel(self.core, inst, event);
        Ok(())
    }

    fn bridge_call(&mut self, actor: ActorId, func: &str, args: Vec<Value>) -> Result<Value> {
        let decl = self
            .domain
            .actor(actor)
            .func(func)
            .ok_or_else(|| CoreError::unresolved("bridge function", func))?;
        let ret_ty = decl.ret;
        self.core.count(Counter::BridgeCalls, 1);
        self.core
            .trace
            .push_bridge_call(self.core.now, actor, func, Arc::from(args.as_slice()));
        if let Some(handler) = self.route.bridge(actor) {
            return handler(func, &args);
        }
        Ok(match ret_ty {
            Some(t) => Value::default_for(t),
            None => Value::Bool(false),
        })
    }
}

// ---------------------------------------------------------------------------
// Setup validation and snapshot codec shared by both schedulers
// ---------------------------------------------------------------------------

/// Validates a stimulus the same way for both schedulers — not in the
/// past, to a live instance, a declared event, matching arity — and
/// resolves the event's id.
pub(crate) fn resolve_stimulus(
    domain: &Domain,
    store: &ObjectStore,
    now: u64,
    time: u64,
    inst: InstId,
    event: &str,
    arity: usize,
) -> Result<EventId> {
    if time < now {
        return Err(CoreError::runtime(format!(
            "cannot inject at past time {time} (now {now})"
        )));
    }
    let c = domain.class(store.class_of(inst)?);
    let event_id = c
        .event_id(event)
        .ok_or_else(|| CoreError::unresolved("event", format!("{}.{event}", c.name)))?;
    let params = c.events[event_id.index()].params.len();
    if params != arity {
        return Err(CoreError::runtime(format!(
            "event `{event}` takes {params} argument(s), got {arity}"
        )));
    }
    Ok(event_id)
}

/// The error both schedulers raise when a run exceeds its step cap.
pub(crate) fn livelock(max_steps: u64) -> CoreError {
    CoreError::runtime(format!("exceeded max_steps ({max_steps}) — livelock?"))
}

/// Starts a snapshot of `kind`: the common header, then the scheduling
/// policy and the executor tag both engines lead with.
pub(crate) fn snap_begin(kind: u8, prog: &Program<'_>, policy: &SchedPolicy) -> Writer {
    let mut w = Writer::with_header(kind, prog.domain);
    w.u64(policy.seed);
    w.bool(policy.self_priority);
    w.bool(policy.pair_order);
    w.bool(policy.strict);
    w.u32(policy.shards as u32);
    w.u8(match prog.engine {
        Engine::Frames => 0,
        Engine::Bc => 1,
    });
    w
}

/// Opens a snapshot written by [`snap_begin`], failing unless it is of
/// `kind` (`what` names it in the error).
pub(crate) fn snap_open<'b>(
    bytes: &'b [u8],
    domain: &Domain,
    kind: u8,
    what: &str,
) -> SnapResult<(Reader<'b>, SchedPolicy, Engine)> {
    let (mut r, got) = Reader::open(bytes, domain)?;
    if got != kind {
        return Err(SnapError::Corrupt(format!(
            "expected a {what} snapshot, got kind {got}"
        )));
    }
    let policy = SchedPolicy {
        seed: r.u64()?,
        self_priority: r.bool()?,
        pair_order: r.bool()?,
        strict: r.bool()?,
        shards: r.u32()? as usize,
    };
    let engine = match r.u8()? {
        0 => Engine::Frames,
        1 => Engine::Bc,
        t => return Err(SnapError::Corrupt(format!("bad engine tag {t}"))),
    };
    Ok((r, policy, engine))
}

/// Writes every mailbox, in id order: the self queue, then the main
/// queue, each as a length and its envelopes front first.
pub(crate) fn snap_write_mail(w: &mut Writer, mail: &Mailboxes<Envelope>) {
    w.len(mail.id_space());
    for i in 0..mail.id_space() {
        let inst = InstId::new(i as u32);
        for to_self in [true, false] {
            w.len(mail.iter(inst, to_self).count());
            for e in mail.iter(inst, to_self) {
                snapshot::write_opt_inst(w, e.from);
                w.u32(u32::from(e.event));
                w.u64(e.seq);
                snapshot::write_values(w, &e.args);
            }
        }
    }
}

/// Reads the mailboxes [`snap_write_mail`] wrote for a store with
/// `id_space` ids; the ready list is rebuilt by the pushes.
pub(crate) fn snap_read_mail(
    r: &mut Reader<'_>,
    id_space: usize,
) -> SnapResult<Mailboxes<Envelope>> {
    let n = r.len(8)?;
    if n != id_space {
        return Err(SnapError::Corrupt(format!(
            "{n} instance queues for an id space of {id_space}"
        )));
    }
    let mut mail = Mailboxes::with_len(n);
    for i in 0..n {
        let inst = InstId::new(i as u32);
        for to_self in [true, false] {
            for _ in 0..r.len(10)? {
                let env = Envelope {
                    from: snapshot::read_opt_inst(r)?,
                    event: EventId::new(r.u32()?),
                    seq: r.u64()?,
                    args: snapshot::read_values(r)?,
                };
                mail.push(inst, to_self, env);
            }
        }
    }
    Ok(mail)
}

pub(crate) fn snap_write_timers(w: &mut Writer, timers: &[Timer]) {
    w.len(timers.len());
    for t in timers {
        w.u64(t.deadline);
        w.u64(t.seq);
        w.u32(u32::from(t.from));
        w.u32(u32::from(t.to));
        w.u32(u32::from(t.event));
        snapshot::write_values(w, &t.args);
    }
}

pub(crate) fn snap_read_timers(r: &mut Reader<'_>) -> SnapResult<Vec<Timer>> {
    let n = r.len(32)?;
    let mut timers = Vec::with_capacity(n);
    for _ in 0..n {
        timers.push(Timer {
            deadline: r.u64()?,
            seq: r.u64()?,
            from: InstId::new(r.u32()?),
            to: InstId::new(r.u32()?),
            event: EventId::new(r.u32()?),
            args: snapshot::read_values(r)?,
        });
    }
    Ok(timers)
}

pub(crate) fn snap_write_stimuli<'a>(
    w: &mut Writer,
    stimuli: impl ExactSizeIterator<Item = &'a Stimulus>,
) {
    w.len(stimuli.len());
    for s in stimuli {
        w.u64(s.time);
        w.u64(s.seq);
        w.u32(u32::from(s.to));
        w.u32(u32::from(s.event));
        snapshot::write_values(w, &s.args);
    }
}

pub(crate) fn snap_read_stimuli(r: &mut Reader<'_>) -> SnapResult<Vec<Stimulus>> {
    let n = r.len(28)?;
    let mut stimuli = Vec::with_capacity(n);
    for _ in 0..n {
        stimuli.push(Stimulus {
            time: r.u64()?,
            seq: r.u64()?,
            to: InstId::new(r.u32()?),
            event: EventId::new(r.u32()?),
            args: snapshot::read_values(r)?,
        });
    }
    Ok(stimuli)
}

pub(crate) fn snap_write_trace(w: &mut Writer, trace: &Trace) {
    w.len(trace.len());
    for e in trace.iter() {
        snapshot::write_trace_event(w, &e);
    }
}

pub(crate) fn snap_read_trace(r: &mut Reader<'_>, trace: &mut Trace) -> SnapResult<()> {
    let n = r.len(13)?;
    trace.reserve(n);
    for _ in 0..n {
        trace.push(snapshot::read_trace_event(r)?);
    }
    Ok(())
}

/// Writes an attached recorder's deterministic part: track, epoch
/// streaming flag and metrics.
pub(crate) fn snap_write_recorder(w: &mut Writer, rec: Option<&Recorder>) {
    match rec {
        Some(rec) => {
            w.bool(true);
            w.u32(rec.track);
            w.bool(rec.stream_epochs);
            snapshot::write_metrics(w, &rec.metrics.to_raw());
        }
        None => w.bool(false),
    }
}

/// Reads a recorder written by [`snap_write_recorder`]; it comes back
/// without a span buffer and with zeroed wall-clock timing.
pub(crate) fn snap_read_recorder(r: &mut Reader<'_>) -> SnapResult<Option<Box<Recorder>>> {
    if !r.bool()? {
        return Ok(None);
    }
    let mut rec = Recorder::new();
    rec.track = r.u32()?;
    rec.stream_epochs = r.bool()?;
    rec.metrics = Metrics::from_raw(snapshot::read_metrics(r)?);
    Ok(Some(Box::new(rec)))
}
