//! The model interpreter: run-to-completion signal dispatch over a whole
//! domain.
//!
//! A [`Simulation`] owns the instance population, per-instance signal
//! queues, delayed-signal timers and a stimulus script, and advances in
//! discrete steps: pick a ready instance (per the scheduling policy), pop
//! one signal respecting the event rules, look up the transition, execute
//! the destination state's actions to completion. Time advances by one
//! tick per consumed signal and jumps forward when only timers or future
//! stimuli remain.
//!
//! The dispatch hot path is allocation-light by design: state actions are
//! pre-compiled to slot-resolved code ([`CompiledProgram`]) at
//! construction, the set of ready instances is maintained incrementally
//! by the [`Mailboxes`] instead of rescanned per step, queued signals
//! live in one recycled node slab, signal payloads are shared
//! (`Arc<[Value]>`) rather than cloned per delivery, and one frame buffer
//! is recycled across dispatches.

use crate::mailbox::Mailboxes;
use crate::sched::{SchedPolicy, SplitMix64};
use crate::snapshot::{self, SnapError, SnapResult};
use crate::store::ObjectStore;
use crate::trace::{Trace, TraceMode};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use xtuml_core::bc::{self, BcAction, BcEntry, BcFallback, BcProgram};
use xtuml_core::code::CompiledProgram;
use xtuml_core::error::{CoreError, Result};
use xtuml_core::ids::{ActorId, AssocId, AttrId, ClassId, EventId, InstId, StateId};
use xtuml_core::interp::{self, ActionHost, ExecCtx};
use xtuml_core::model::{Domain, TransitionTarget};
use xtuml_core::value::Value;
use xtuml_obs::{Counter, Gauge, Recorder, Sink as _};

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

#[derive(Debug, Clone)]
struct TimerEntry {
    deadline: u64,
    seq: u64,
    from: InstId,
    to: InstId,
    event: EventId,
    args: Arc<[Value]>,
}

#[derive(Debug, Clone)]
struct Stimulus {
    time: u64,
    seq: u64,
    to: InstId,
    event: EventId,
    args: Arc<[Value]>,
}

// Stimuli live in a min-heap keyed by (time, seq); `seq` is globally
// unique, so the order is total and matches the old sorted delivery.
impl PartialEq for Stimulus {
    fn eq(&self, other: &Stimulus) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl Eq for Stimulus {}

impl PartialOrd for Stimulus {
    fn partial_cmp(&self, other: &Stimulus) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Stimulus {
    fn cmp(&self, other: &Stimulus) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Handler invoked for bridge calls on a given actor.
pub type BridgeFn = Box<dyn FnMut(&str, &[Value]) -> Result<Value>>;

/// Which action executor drives the dispatch hot path.
///
/// Both engines produce byte-identical traces; the bytecode VM is the
/// default because it is substantially faster. Actions the lowering cannot
/// encode fall back to compiled frames per-action (diagnostic `X0016`,
/// counted as `bc_fallbacks`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Walk slot-resolved compiled frames (`CompiledProgram`) AST-style.
    Frames,
    /// Execute register bytecode lowered from the compiled frames.
    #[default]
    Bc,
}

/// By-arity recycling pool for signal payload buffers.
///
/// A dispatched envelope's payload `Arc` dies at the end of its dispatch:
/// [`TraceEvent::Dispatch`] records no arguments, so unless a timer or an
/// actor-trace event still holds a clone, the buffer is uniquely owned
/// again and can be handed back to the VM's next computed send instead of
/// going through the allocator twice (argument `Vec` + `Arc` payload) per
/// signal. Pooling is invisible to execution: buffers are only reissued
/// when uniquely owned, and the VM overwrites every slot before sending.
pub(crate) struct PayloadPool {
    /// `free[arity]` holds uniquely-owned buffers of exactly `arity` slots.
    free: [Vec<Arc<[Value]>>; PayloadPool::MAX_ARITY + 1],
}

impl PayloadPool {
    /// Largest pooled arity; wider signals are rare enough to take the
    /// allocator path.
    const MAX_ARITY: usize = 8;
    /// Per-arity retention cap, bounding pool memory on bursty workloads.
    const MAX_FREE: usize = 64;

    pub(crate) fn new() -> PayloadPool {
        PayloadPool {
            free: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Pops a uniquely-owned buffer of exactly `len` slots, if one is
    /// pooled.
    #[inline]
    pub(crate) fn take(&mut self, len: usize) -> Option<Arc<[Value]>> {
        self.free.get_mut(len)?.pop()
    }

    /// Returns a dispatched payload to the pool — if nothing else (a
    /// timer, the actor trace, a literal-payload table) still holds it.
    #[inline]
    pub(crate) fn recycle(&mut self, mut args: Arc<[Value]>) {
        if let Some(lane) = self.free.get_mut(args.len()) {
            if lane.len() < Self::MAX_FREE && Arc::get_mut(&mut args).is_some() {
                lane.push(args);
            }
        }
    }
}

/// Moves `args` into a pooled buffer when one of the right arity is
/// free, avoiding the double allocation (`Vec` + `Arc`) per payload.
#[inline]
pub(crate) fn pooled_payload(pool: &mut PayloadPool, args: Vec<Value>) -> Arc<[Value]> {
    match pool.take(args.len()) {
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

/// How a resolved dispatch slot executes its action.
#[derive(Debug, Clone)]
pub(crate) enum Exec {
    /// Run the lowered bytecode action directly.
    Vm(Arc<BcAction>),
    /// Run the compiled frames. `fallback` marks slots the bytecode
    /// lowering could not encode under [`Engine::Bc`] (diagnostic
    /// X0016); those still count `BcFallbacks` per dispatch so the
    /// metrics goldens are unchanged.
    Frames { fallback: bool },
    /// The lowered body is provably effect-free ([`BcAction::is_nop`]):
    /// skip frame setup and execution entirely. The state change and
    /// trace record still happen in the shared dispatch path. `vm`
    /// records which engine the table was resolved for, so the
    /// per-dispatch `BcActions` counter stays byte-identical to a run
    /// that actually entered the VM.
    Nop { vm: bool },
}

/// One pre-resolved `(from_state, event)` dispatch decision.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// Transition to `to`, executing per `exec`.
    Run { to: StateId, exec: Exec },
    /// Declared ignore: consume silently.
    Ignore,
    /// Undeclared pair: error in strict mode, drop otherwise.
    CantHappen,
}

/// Dense per-class slot table, indexed `state * n_events + event`.
#[derive(Debug, Clone)]
pub(crate) struct ClassSlots {
    n_events: usize,
    slots: Vec<Slot>,
}

impl ClassSlots {
    #[inline]
    pub(crate) fn slot(&self, state: StateId, event: EventId) -> &Slot {
        &self.slots[state.index() * self.n_events + event.index()]
    }
}

/// Pre-resolved dispatch decisions for a whole domain.
///
/// Built once per engine selection at `Simulation` construction. The
/// dispatch hot path indexes it with two loads instead of walking the
/// transition table, re-checking the engine, and probing the bytecode
/// program per signal — and the slot holds a direct reference to the
/// lowered [`BcAction`], so no `Rc` of the whole program is cloned per
/// dispatch. Slots are `Arc`-backed and the table is `Sync`, so shard
/// workers share one copy by reference.
#[derive(Debug, Clone, Default)]
pub(crate) struct DispatchTable {
    /// Per class; `None` for passive classes (no state machine).
    classes: Vec<Option<ClassSlots>>,
    /// Slots resolved to the frame interpreter because the bytecode
    /// lowering bailed (X0016), under [`Engine::Bc`]. Static — decided
    /// once here, not re-discovered per signal.
    fallback_slots: usize,
}

impl DispatchTable {
    pub(crate) fn new(
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
    pub(crate) fn class(&self, class: ClassId) -> Option<&ClassSlots> {
        self.classes[class.index()].as_ref()
    }

    /// Slots that resolved to the frame interpreter under `Engine::Bc`
    /// because the lowering bailed (X0016).
    pub(crate) fn fallback_slots(&self) -> usize {
        self.fallback_slots
    }
}

/// Pre-interned span names, so `--profile` runs stop calling `format!`
/// per signal on the dispatch hot path.
#[derive(Debug, Clone)]
pub(crate) struct SpanNames {
    /// `rtc[class][event]` = `"Class.Event"`.
    rtc: Vec<Vec<String>>,
    /// `action[class][state]` = `"action Class.State"`.
    action: Vec<Vec<String>>,
}

impl SpanNames {
    pub(crate) fn new(domain: &Domain) -> SpanNames {
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

    #[inline]
    pub(crate) fn rtc(&self, class: ClassId, event: EventId) -> &str {
        &self.rtc[class.index()][event.index()]
    }

    #[inline]
    pub(crate) fn action(&self, class: ClassId, state: StateId) -> &str {
        &self.action[class.index()][state.index()]
    }
}

/// An executing Executable UML model. See the crate-level example.
pub struct Simulation<'d> {
    domain: &'d Domain,
    /// Slot-resolved action code, compiled once at construction.
    program: Rc<CompiledProgram>,
    /// Register bytecode lowered from `program`, once at construction.
    bc: Rc<BcProgram>,
    /// Action executor selection; [`Engine::Bc`] by default.
    engine: Engine,
    /// Pre-resolved `(class, state, event) → slot` dispatch decisions,
    /// rebuilt whenever the engine selection changes.
    table: DispatchTable,
    /// Pre-interned span names; built when a spans-enabled recorder
    /// attaches.
    spans: Option<SpanNames>,
    store: ObjectStore,
    /// Per-instance signal queues and the ascending ready list the
    /// scheduler's random pick indexes.
    mail: Mailboxes<Envelope>,
    timers: Vec<TimerEntry>,
    /// Pending external stimuli, kept sorted ascending by `(time, seq)`.
    /// Injection is overwhelmingly in time order, so maintaining the
    /// order on push is one back-element compare; delivery then streams
    /// `pop_front` over contiguous memory instead of sifting a binary
    /// heap per stimulus.
    stimuli: VecDeque<Stimulus>,
    now: u64,
    send_seq: u64,
    policy: SchedPolicy,
    rng: SplitMix64,
    trace: Trace,
    bridges: BTreeMap<ActorId, BridgeFn>,
    dropped: u64,
    max_steps: u64,
    /// Recycled execution frame: taken by each dispatch, returned after.
    frame_buf: Vec<Option<Value>>,
    /// Recycled candidate buffer for filtered selects (see
    /// [`ExecCtx::scratch`]).
    scratch_buf: Vec<InstId>,
    /// Recycled signal payload buffers, fed by finished dispatches and
    /// drained by the VM's computed sends.
    payloads: PayloadPool,
    /// Telemetry sink; `None` (the default) costs one predictable branch
    /// per instrumented site — the zero-cost-when-disabled contract.
    obs: Option<Box<Recorder>>,
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("domain", &self.domain.name)
            .field("now", &self.now)
            .field("live", &self.store.live_count())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl<'d> Simulation<'d> {
    /// Creates a simulation with the default (seed 0, strict) policy.
    pub fn new(domain: &'d Domain) -> Simulation<'d> {
        Simulation::with_policy(domain, SchedPolicy::default())
    }

    /// Creates a simulation with an explicit scheduling policy.
    pub fn with_policy(domain: &'d Domain, policy: SchedPolicy) -> Simulation<'d> {
        let program = Rc::new(CompiledProgram::new(domain));
        let bc = Rc::new(BcProgram::new(domain, &program));
        let table = DispatchTable::new(domain, &program, &bc, Engine::default());
        Simulation {
            domain,
            program,
            bc,
            engine: Engine::default(),
            table,
            spans: None,
            store: ObjectStore::new(domain.associations.len()),
            mail: Mailboxes::with_len(0),
            timers: Vec::new(),
            stimuli: VecDeque::new(),
            now: 0,
            send_seq: 0,
            policy,
            rng: SplitMix64::new(policy.seed),
            trace: Trace::new(),
            bridges: BTreeMap::new(),
            dropped: 0,
            max_steps: 10_000_000,
            frame_buf: Vec::new(),
            scratch_buf: Vec::new(),
            payloads: PayloadPool::new(),
            obs: None,
        }
    }

    /// Attaches a telemetry recorder; counters and (when the recorder
    /// carries a span buffer) spans are recorded from here on. Counter
    /// values are deterministic: a pure function of the seed for a given
    /// model and stimulus schedule.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        if rec.spans_enabled() && self.spans.is_none() {
            self.spans = Some(SpanNames::new(self.domain));
        }
        self.obs = Some(Box::new(rec));
    }

    /// Detaches and returns the recorder, if one is attached.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.obs.take().map(|b| *b)
    }

    /// The domain being executed.
    pub fn domain(&self) -> &'d Domain {
        self.domain
    }

    /// Current simulation time (ticks).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The instance population (read-only).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Number of events dropped in non-strict mode.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Caps the total number of dispatch steps per `run_*` call.
    pub fn set_max_steps(&mut self, max: u64) {
        self.max_steps = max;
    }

    /// Selects the action executor (default [`Engine::Bc`]) and
    /// re-resolves the dispatch table for it.
    pub fn set_engine(&mut self, engine: Engine) {
        if engine != self.engine {
            self.table = DispatchTable::new(self.domain, &self.program, &self.bc, engine);
        }
        self.engine = engine;
    }

    /// Sets the trace recording mode ([`TraceMode::Full`] by default).
    ///
    /// [`TraceMode::Off`] records nothing; differential and golden
    /// comparisons require `Full`.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace.set_mode(mode);
    }

    /// The currently selected action executor.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Actions the bytecode lowering could not encode; these dispatch via
    /// the frame interpreter instead (diagnostic `X0016`).
    pub fn bc_fallbacks(&self) -> &[BcFallback] {
        &self.bc.fallbacks
    }

    /// Number of dispatch slots statically resolved to the frame
    /// interpreter because the bytecode lowering bailed (X0016), under
    /// the current engine. Zero when the engine is [`Engine::Frames`].
    pub fn bc_fallback_slots(&self) -> usize {
        self.table.fallback_slots()
    }

    /// Registers a handler for synchronous bridge calls on `actor`.
    ///
    /// Unhandled calls are traced and return the function's declared
    /// default (zero) value.
    ///
    /// # Errors
    ///
    /// Fails if the actor is unknown.
    pub fn register_bridge(
        &mut self,
        actor: &str,
        f: impl FnMut(&str, &[Value]) -> Result<Value> + 'static,
    ) -> Result<()> {
        let id = self.domain.actor_id(actor)?;
        self.bridges.insert(id, Box::new(f));
        Ok(())
    }

    /// Creates an instance of the named class.
    ///
    /// Creation places the instance in its initial state **without**
    /// executing that state's entry action (xtUML creation semantics).
    ///
    /// # Errors
    ///
    /// Fails if the class is unknown.
    pub fn create(&mut self, class: &str) -> Result<InstId> {
        let id = self.domain.class_id(class)?;
        ActionHost::create(self, id)
    }

    /// Relates two instances across the named association.
    ///
    /// # Errors
    ///
    /// Propagates store errors (multiplicity, class mismatch, dangling).
    pub fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        let id = self.domain.assoc_id(assoc)?;
        self.store.relate(self.domain, a, b, id)
    }

    /// Schedules an external stimulus: deliver `event` to `inst` at
    /// absolute time `time` (must not be in the past).
    ///
    /// # Errors
    ///
    /// Fails on unknown events, dead instances, arity mismatches or past
    /// times.
    pub fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
        if time < self.now {
            return Err(CoreError::runtime(format!(
                "cannot inject at past time {time} (now {})",
                self.now
            )));
        }
        let class = self.store.class_of(inst)?;
        let c = self.domain.class(class);
        let event_id = c
            .event_id(event)
            .ok_or_else(|| CoreError::unresolved("event", format!("{}.{event}", c.name)))?;
        if c.events[event_id.index()].params.len() != args.len() {
            return Err(CoreError::runtime(format!(
                "event `{event}` takes {} argument(s), got {}",
                c.events[event_id.index()].params.len(),
                args.len()
            )));
        }
        self.send_seq += 1;
        let args = pooled_payload(&mut self.payloads, args);
        self.stim_insert(Stimulus {
            time,
            seq: self.send_seq,
            to: inst,
            event: event_id,
            args,
        });
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::StimuliInjected, 1);
            o.gauge_max(Gauge::StimulusHeapMax, self.stimuli.len() as u64);
        }
        Ok(())
    }

    /// Reads an attribute by name.
    ///
    /// # Errors
    ///
    /// Fails on unknown attributes or dangling instances.
    pub fn attr(&self, inst: InstId, name: &str) -> Result<Value> {
        let class = self.store.class_of(inst)?;
        let c = self.domain.class(class);
        let id = c
            .attr_id(name)
            .ok_or_else(|| CoreError::unresolved("attribute", format!("{}.{name}", c.name)))?;
        self.store.attr_read(inst, id)
    }

    /// The name of the instance's current state.
    ///
    /// # Errors
    ///
    /// Fails on dangling instances or passive classes.
    pub fn state_name(&self, inst: InstId) -> Result<&str> {
        let class = self.store.class_of(inst)?;
        let machine = self
            .domain
            .class(class)
            .state_machine
            .as_ref()
            .ok_or_else(|| CoreError::runtime("passive class has no states"))?;
        Ok(&machine.state(self.store.state_of(inst)?).name)
    }

    // -- the dispatch loop --------------------------------------------------

    /// Runs until no signal, timer or stimulus remains.
    ///
    /// Returns the number of dispatch steps taken.
    ///
    /// # Errors
    ///
    /// Propagates action runtime errors and, in strict mode, can't-happen
    /// events; fails if `max_steps` is exceeded.
    pub fn run_to_quiescence(&mut self) -> Result<u64> {
        if let Some(o) = self.obs.as_mut() {
            let track = o.track;
            o.span_begin(track, "sim", "run_to_quiescence");
        }
        let r = self.run_to_quiescence_inner();
        if let Some(o) = self.obs.as_mut() {
            let track = o.track;
            o.span_end(track);
        }
        r
    }

    fn run_to_quiescence_inner(&mut self) -> Result<u64> {
        let mut steps = 0u64;
        let cap = self.max_steps.saturating_add(1);
        loop {
            self.superloop(cap, &mut steps)?;
            if steps > self.max_steps {
                return Err(CoreError::runtime(format!(
                    "exceeded max_steps ({}) — livelock?",
                    self.max_steps
                )));
            }
            if !self.step()? {
                return Ok(steps);
            }
            steps += 1;
            if steps > self.max_steps {
                return Err(CoreError::runtime(format!(
                    "exceeded max_steps ({}) — livelock?",
                    self.max_steps
                )));
            }
        }
    }

    /// Runs at most `budget - *steps` dispatch steps through the
    /// superloop, batching while no interleaving concern exists. Callers
    /// fall back to [`Simulation::step`] for delivery and time jumps.
    ///
    /// The superloop is byte-identical to per-step dispatch because its
    /// preconditions make the skipped work provably dead: with no
    /// pending timer and no stimulus due at the current time,
    /// `deliver_due` is a no-op and no time jump can occur; and when a
    /// lone ready instance absorbs a scheduler draw, the draw is still
    /// consumed (`below(1)` advances the PRNG exactly like any pick) so
    /// the random stream — and hence every later pick — is unchanged.
    /// Stimuli scheduled for the *future* are fine: the loop re-checks
    /// the (sorted) queue front after every dispatch, since each
    /// dispatch advances `now` and can make the front due.
    fn superloop(&mut self, budget: u64, steps: &mut u64) -> Result<()> {
        while *steps < budget
            && !self.mail.ready().is_empty()
            && self.timers.is_empty()
            && self.stimuli.front().is_none_or(|s| s.time > self.now)
        {
            let pick = self.pick();
            // Same-instance batch: drain `pick`'s queues in a tight
            // inner loop, for as long as it provably remains the only
            // candidate.
            loop {
                let env = self.pop_envelope(pick);
                self.dispatch(pick, env)?;
                self.now += 1;
                *steps += 1;
                if *steps >= budget
                    || !self.timers.is_empty()
                    || self.stimuli.front().is_some_and(|s| s.time <= self.now)
                    || self.mail.ready() != [pick]
                {
                    break;
                }
                // The scheduler would re-draw over a single candidate;
                // consume that draw to keep the stream identical.
                self.rng.below(1);
            }
        }
        Ok(())
    }

    /// Runs at most `budget` dispatch steps, batching through the
    /// superloop (the serve daemon's step path). `ran` is incremented
    /// per dispatch — also on error, so callers can account fuel.
    /// Returns `true` when the run reached quiescence before the budget
    /// was exhausted.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run_to_quiescence`], except `max_steps`
    /// does not apply (the budget is the cap).
    pub fn run_steps(&mut self, budget: u64, ran: &mut u64) -> Result<bool> {
        loop {
            self.superloop(budget, ran)?;
            if *ran >= budget {
                return Ok(false);
            }
            if !self.step()? {
                return Ok(true);
            }
            *ran += 1;
        }
    }

    /// Runs until simulation time reaches `deadline` or quiescence.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run_to_quiescence`].
    pub fn run_until(&mut self, deadline: u64) -> Result<u64> {
        let mut steps = 0u64;
        while self.now < deadline {
            if !self.step()? {
                break;
            }
            steps += 1;
            if steps > self.max_steps {
                return Err(CoreError::runtime(format!(
                    "exceeded max_steps ({}) — livelock?",
                    self.max_steps
                )));
            }
        }
        Ok(steps)
    }

    /// Performs one dispatch step; returns `false` at quiescence.
    ///
    /// # Errors
    ///
    /// Propagates action errors and strict-mode can't-happen events.
    pub fn step(&mut self) -> Result<bool> {
        loop {
            // Pure signal traffic (no pending timer or stimulus) has
            // nothing to deliver; skip the scan entirely.
            if !self.timers.is_empty() || !self.stimuli.is_empty() {
                self.deliver_due();
            }
            if self.mail.ready().is_empty() {
                // Jump to the next timer/stimulus moment, if any.
                let next = self
                    .timers
                    .iter()
                    .map(|t| t.deadline)
                    .chain(self.stimuli.front().map(|s| s.time))
                    .min();
                match next {
                    Some(t) if t > self.now => {
                        self.now = t;
                        continue;
                    }
                    Some(_) => continue, // due now; deliver on next loop
                    None => return Ok(false),
                }
            }
            let pick = self.pick();
            let env = self.pop_envelope(pick);
            self.dispatch(pick, env)?;
            self.now += 1;
            return Ok(true);
        }
    }

    /// Inserts a stimulus, maintaining the `(time, seq)` sort. The
    /// common case — injection in nondecreasing time order — is a
    /// single compare against the back element.
    fn stim_insert(&mut self, s: Stimulus) {
        let in_order = self
            .stimuli
            .back()
            .is_none_or(|b| (b.time, b.seq) <= (s.time, s.seq));
        if in_order {
            self.stimuli.push_back(s);
        } else {
            let at = self
                .stimuli
                .partition_point(|q| (q.time, q.seq) < (s.time, s.seq));
            self.stimuli.insert(at, s);
        }
    }

    /// Moves due stimuli and timers into instance queues, in `(time, seq)`
    /// order.
    fn deliver_due(&mut self) {
        let now = self.now;
        if !self.timers.iter().any(|t| t.deadline <= now) {
            // Fast path (no due timer — in particular, pure signal
            // traffic): heap pops already come out in (time, seq) order,
            // the exact order the old collect-and-sort produced, because
            // `seq` is globally unique across timers and stimuli.
            while self.stimuli.front().is_some_and(|s| s.time <= now) {
                let s = self.stimuli.pop_front().expect("peeked above");
                if !self.store.is_alive(s.to) {
                    continue; // instance died while the stimulus was in flight
                }
                self.enqueue(
                    s.to,
                    Envelope {
                        from: None,
                        event: s.event,
                        args: s.args,
                        seq: s.seq,
                    },
                );
            }
            return;
        }
        // General path: merge due timers and due stimuli by (time, seq).
        // (time, seq, to, from, event, args)
        type Due = (u64, u64, InstId, Option<InstId>, EventId, Arc<[Value]>);
        let mut due: Vec<Due> = Vec::new();
        while self.stimuli.front().is_some_and(|s| s.time <= now) {
            let s = self.stimuli.pop_front().expect("peeked above");
            due.push((s.time, s.seq, s.to, None, s.event, s.args));
        }
        self.timers.retain(|t| {
            if t.deadline <= now {
                due.push((
                    t.deadline,
                    t.seq,
                    t.to,
                    Some(t.from),
                    t.event,
                    Arc::clone(&t.args),
                ));
                false
            } else {
                true
            }
        });
        // Deterministic delivery order: by (time, seq).
        due.sort_by_key(|(time, seq, ..)| (*time, *seq));
        for (_, seq, to, from, event, args) in due {
            if !self.store.is_alive(to) {
                continue; // instance died while the signal was in flight
            }
            if from.is_some() {
                if let Some(o) = self.obs.as_mut() {
                    o.count(Counter::TimersFired, 1);
                }
            }
            self.enqueue(
                to,
                Envelope {
                    from,
                    event,
                    args,
                    seq,
                },
            );
        }
    }

    /// Only live instances reach here: every enqueue path checks
    /// liveness first, and deletion clears the mailbox.
    fn enqueue(&mut self, to: InstId, env: Envelope) {
        self.mail
            .push(to, env.is_self(to, self.policy.self_priority), env);
    }

    /// The scheduler's draw over the ready list (nonempty).
    fn pick(&mut self) -> InstId {
        let ready = self.mail.ready();
        ready[self.rng.below(ready.len())]
    }

    fn pop_envelope(&mut self, inst: InstId) -> Envelope {
        let env = if self.policy.pair_order {
            self.mail.pop(inst)
        } else {
            // Ablation: pick a random position instead of the front.
            let k = self.rng.below(self.mail.len(inst));
            self.mail.remove_at(inst, k)
        };
        env.expect("ready instance has a signal")
    }

    fn dispatch(&mut self, inst: InstId, env: Envelope) -> Result<()> {
        // Detach the table so the slot borrow does not pin `self`
        // (actions need the host mutably). Dispatch is not reentrant, so
        // nothing observes the hole.
        let table = std::mem::take(&mut self.table);
        let out = self.dispatch_with(&table, inst, env);
        self.table = table;
        out
    }

    fn dispatch_with(&mut self, table: &DispatchTable, inst: InstId, env: Envelope) -> Result<()> {
        let (class, from_state) = self.store.class_state(inst)?;
        let Some(cs) = table.class(class) else {
            return Err(CoreError::runtime(format!(
                "signal sent to passive class {}",
                self.domain.class(class).name
            )));
        };
        let mut rtc_span = false;
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::SignalsDispatched, 1);
            if o.spans_enabled() {
                let track = o.track;
                match &self.spans {
                    Some(sn) => o.span_begin(track, "rtc", sn.rtc(class, env.event)),
                    None => {
                        let c = self.domain.class(class);
                        let name = format!("{}.{}", c.name, c.events[env.event.index()].name);
                        o.span_begin(track, "rtc", &name);
                    }
                }
                rtc_span = true;
            }
        }
        let out = match cs.slot(from_state, env.event) {
            Slot::Run { to, exec } => {
                let to_state = *to;
                self.store.set_state(inst, to_state)?;
                self.trace.push_dispatch(
                    self.now, inst, env.from, env.event, env.seq, from_state, to_state,
                );
                if let Some(o) = self.obs.as_mut() {
                    o.count(Counter::TransitionsFired, 1);
                    if o.spans_enabled() {
                        let track = o.track;
                        match &self.spans {
                            Some(sn) => o.span_begin(track, "action", sn.action(class, to_state)),
                            None => {
                                let c = self.domain.class(class);
                                let machine = c.state_machine.as_ref().expect("active class");
                                let name =
                                    format!("action {}.{}", c.name, machine.state(to_state).name);
                                o.span_begin(track, "action", &name);
                            }
                        }
                    }
                }
                let run = match exec {
                    Exec::Nop { vm } => {
                        // Provably effect-free body: no frame, no ctx, no
                        // VM entry. Counters must match a real execution.
                        if *vm {
                            if let Some(o) = self.obs.as_mut() {
                                o.count(Counter::BcActions, 1);
                            }
                        }
                        Ok(interp::Outcome::Completed)
                    }
                    Exec::Vm(bca) => {
                        if let Some(o) = self.obs.as_mut() {
                            o.count(Counter::BcActions, 1);
                        }
                        // Recycle one frame allocation across dispatches.
                        let mut frame = std::mem::take(&mut self.frame_buf);
                        frame.clear();
                        frame.resize(bca.n_regs, None);
                        let mut ctx = ExecCtx::with_frame(inst, class, frame);
                        ctx.scratch = std::mem::take(&mut self.scratch_buf);
                        ctx.bind_args(env.args.iter().cloned());
                        let r = bc::run_bc(self, &mut ctx, bca);
                        self.frame_buf = std::mem::take(&mut ctx.frame);
                        self.scratch_buf = std::mem::take(&mut ctx.scratch);
                        r
                    }
                    Exec::Frames { fallback } => {
                        if *fallback {
                            if let Some(o) = self.obs.as_mut() {
                                o.count(Counter::BcFallbacks, 1);
                            }
                        }
                        // The frame interpreter needs the compiled action.
                        // Clone the program handle so the action borrow
                        // does not pin `self` (which the interpreter needs
                        // mutably).
                        let program = Rc::clone(&self.program);
                        let action =
                            program.action(class, to_state, env.event).ok_or_else(|| {
                                CoreError::runtime(
                                    "internal: dispatched pair has no compiled action",
                                )
                            })??;
                        let mut frame = std::mem::take(&mut self.frame_buf);
                        frame.clear();
                        frame.resize(action.frame_len(), None);
                        let mut ctx = ExecCtx::with_frame(inst, class, frame);
                        ctx.scratch = std::mem::take(&mut self.scratch_buf);
                        ctx.bind_args(env.args.iter().cloned());
                        let r = interp::run_code(self, &mut ctx, action);
                        self.frame_buf = std::mem::take(&mut ctx.frame);
                        self.scratch_buf = std::mem::take(&mut ctx.scratch);
                        r
                    }
                };
                if let Some(o) = self.obs.as_mut() {
                    if o.spans_enabled() {
                        let track = o.track;
                        o.span_end(track);
                    }
                }
                run?;
                Ok(())
            }
            Slot::Ignore => {
                if let Some(o) = self.obs.as_mut() {
                    o.count(Counter::SignalsIgnored, 1);
                }
                self.trace.push_ignored(self.now, inst, env.event);
                Ok(())
            }
            Slot::CantHappen => {
                if self.policy.strict {
                    let c = self.domain.class(class);
                    let machine = c.state_machine.as_ref().expect("active class");
                    Err(CoreError::CantHappen {
                        class: c.name.clone(),
                        state: machine.state(from_state).name.clone(),
                        event: c.events[env.event.index()].name.clone(),
                    })
                } else {
                    self.dropped += 1;
                    if let Some(o) = self.obs.as_mut() {
                        o.count(Counter::SignalsDropped, 1);
                    }
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

    // -- snapshot / restore -------------------------------------------------

    /// Number of pending (not yet delivered) external stimuli — the
    /// bound the serve daemon's per-session backpressure checks against.
    pub fn pending_stimuli(&self) -> usize {
        self.stimuli.len()
    }

    /// Serializes the full execution state (DESIGN §15).
    ///
    /// Captures everything execution can observe: the population, signal
    /// queues, timers, pending stimuli, the scheduler PRNG state, the
    /// trace so far, and the deterministic metrics of an attached
    /// recorder. [`Simulation::restore`] continues **byte-identically**
    /// to an uninterrupted run. Not captured (see [`crate::snapshot`]):
    /// registered bridges, wall-clock telemetry, allocation caches.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = snapshot::Writer::with_header(snapshot::KIND_SEQUENTIAL, self.domain);
        w.u64(self.policy.seed);
        w.bool(self.policy.self_priority);
        w.bool(self.policy.pair_order);
        w.bool(self.policy.strict);
        w.u32(self.policy.shards as u32);
        w.u8(match self.engine {
            Engine::Frames => 0,
            Engine::Bc => 1,
        });
        w.u64(self.now);
        w.u64(self.send_seq);
        w.u64(self.dropped);
        w.u64(self.max_steps);
        w.u64(self.rng.state());
        self.store.snap_write(&mut w);
        snap_write_mail(&mut w, &self.mail);
        w.len(self.timers.len());
        for t in &self.timers {
            w.u64(t.deadline);
            w.u64(t.seq);
            w.u32(u32::from(t.from));
            w.u32(u32::from(t.to));
            w.u32(u32::from(t.event));
            snapshot::write_values(&mut w, &t.args);
        }
        // The queue invariant keeps stimuli sorted by the total
        // (time, seq) key, so plain iteration produces the same bytes
        // the old sort-then-write did.
        w.len(self.stimuli.len());
        for s in &self.stimuli {
            w.u64(s.time);
            w.u64(s.seq);
            w.u32(u32::from(s.to));
            w.u32(u32::from(s.event));
            snapshot::write_values(&mut w, &s.args);
        }
        w.len(self.trace.len());
        for e in self.trace.iter() {
            snapshot::write_trace_event(&mut w, &e);
        }
        match self.obs.as_deref() {
            Some(rec) => {
                w.bool(true);
                w.u32(rec.track);
                w.bool(rec.stream_epochs);
                snapshot::write_metrics(&mut w, &rec.metrics.to_raw());
            }
            None => w.bool(false),
        }
        w.finish()
    }

    /// Rebuilds a simulation from a [`Simulation::snapshot`] against the
    /// same domain.
    ///
    /// The restored simulation continues byte-identically to the one the
    /// snapshot was taken from. Bridges are **not** restored (re-register
    /// them); an attached recorder comes back with its deterministic
    /// metrics only (no span buffer, zeroed wall-clock timing).
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] — never panics — on truncated
    /// or corrupt input, version or kind mismatch, or a snapshot taken
    /// against a different domain.
    pub fn restore(domain: &'d Domain, bytes: &[u8]) -> SnapResult<Simulation<'d>> {
        let (mut r, kind) = snapshot::Reader::open(bytes, domain)?;
        if kind != snapshot::KIND_SEQUENTIAL {
            return Err(SnapError::Corrupt(format!(
                "expected a sequential snapshot, got kind {kind}"
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
        let mut sim = Simulation::with_policy(domain, policy);
        sim.set_engine(engine);
        sim.now = r.u64()?;
        sim.send_seq = r.u64()?;
        sim.dropped = r.u64()?;
        sim.max_steps = r.u64()?;
        sim.rng = SplitMix64::from_state(r.u64()?);
        sim.store = ObjectStore::snap_read(&mut r)?;
        let nq = r.len(8)?;
        if nq != sim.store.id_space() {
            return Err(SnapError::Corrupt(format!(
                "{nq} instance queues for an id space of {}",
                sim.store.id_space()
            )));
        }
        sim.mail = snap_read_mail(&mut r, nq)?;
        let nt = r.len(30)?;
        sim.timers = Vec::with_capacity(nt);
        for _ in 0..nt {
            sim.timers.push(TimerEntry {
                deadline: r.u64()?,
                seq: r.u64()?,
                from: InstId::new(r.u32()?),
                to: InstId::new(r.u32()?),
                event: EventId::new(r.u32()?),
                args: snapshot::read_values(&mut r)?,
            });
        }
        let ns = r.len(32)?;
        sim.stimuli.reserve(ns);
        for _ in 0..ns {
            // Snapshots write stimuli in (time, seq) order; stim_insert
            // keeps that invariant (and repairs a hand-edited snapshot).
            sim.stim_insert(Stimulus {
                time: r.u64()?,
                seq: r.u64()?,
                to: InstId::new(r.u32()?),
                event: EventId::new(r.u32()?),
                args: snapshot::read_values(&mut r)?,
            });
        }
        let ne = r.len(13)?;
        sim.trace.reserve(ne);
        for _ in 0..ne {
            sim.trace.push(snapshot::read_trace_event(&mut r)?);
        }
        if r.bool()? {
            let mut rec = Recorder::new();
            rec.track = r.u32()?;
            rec.stream_epochs = r.bool()?;
            rec.metrics = xtuml_obs::Metrics::from_raw(snapshot::read_metrics(&mut r)?);
            sim.obs = Some(Box::new(rec));
        }
        r.expect_end()?;
        Ok(sim)
    }
}

/// Writes every mailbox, in id order: the self queue, then the main
/// queue, each as a length and its envelopes front first.
pub(crate) fn snap_write_mail(w: &mut snapshot::Writer, mail: &Mailboxes<Envelope>) {
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

/// Reads `n` mailboxes written by [`snap_write_mail`] after its length
/// prefix, which the caller has read and checked; the ready list is
/// rebuilt by the pushes.
pub(crate) fn snap_read_mail(
    r: &mut snapshot::Reader<'_>,
    n: usize,
) -> SnapResult<Mailboxes<Envelope>> {
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

impl ActionHost for Simulation<'_> {
    fn domain(&self) -> &Domain {
        self.domain
    }

    fn create(&mut self, class: ClassId) -> Result<InstId> {
        let inst = self.store.create(self.domain, class);
        self.mail.grow_to(inst.index() + 1);
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::InstancesCreated, 1);
            o.gauge_max(Gauge::LiveInstancesMax, self.store.live_count() as u64);
        }
        self.trace.push_create(self.now, inst, class);
        Ok(inst)
    }

    fn delete(&mut self, inst: InstId) -> Result<()> {
        self.store.delete(inst)?;
        self.mail.clear(inst);
        self.timers.retain(|t| t.to != inst);
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::InstancesDeleted, 1);
        }
        self.trace.push_delete(self.now, inst);
        Ok(())
    }

    fn class_of(&self, inst: InstId) -> Result<ClassId> {
        self.store.class_of(inst)
    }

    fn attr_read(&self, inst: InstId, attr: AttrId) -> Result<Value> {
        self.store.attr_read(inst, attr)
    }

    fn attr_write(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        self.store.attr_write(self.domain, inst, attr, value)
    }

    fn attr_write_typed(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        self.store.attr_write_typed(inst, attr, value)
    }

    fn take_payload(&mut self, len: usize) -> Option<Arc<[Value]>> {
        self.payloads.take(len)
    }

    fn instances_of(&self, class: ClassId) -> Vec<InstId> {
        self.store.instances_of(class)
    }

    fn related(&self, inst: InstId, assoc: AssocId) -> Result<Vec<InstId>> {
        self.store.related(inst, assoc)
    }

    fn each_instance(&self, class: ClassId, f: &mut dyn FnMut(InstId)) {
        self.store.instances_iter(class).for_each(f);
    }

    fn first_instance_of(&self, class: ClassId) -> Option<InstId> {
        self.store.first_instance_of(class)
    }

    fn related_each(&self, inst: InstId, assoc: AssocId, f: &mut dyn FnMut(InstId)) -> Result<()> {
        self.store.related_iter(inst, assoc)?.for_each(f);
        Ok(())
    }

    fn relate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        self.store.relate(self.domain, a, b, assoc)
    }

    fn unrelate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        self.store.unrelate(a, b, assoc)
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
        self.store.class_of(to)?; // liveness check
        self.send_seq += 1;
        let env = Envelope {
            from: Some(from),
            event,
            args,
            seq: self.send_seq,
        };
        self.enqueue(to, env);
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::SignalsSent, 1);
            if from == to {
                o.count(Counter::SelfSignals, 1);
            }
            o.gauge_max(Gauge::ReadySetMax, self.mail.ready().len() as u64);
        }
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
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::ActorSignals, 1);
        }
        self.trace.push_actor_signal(self.now, actor, event, args);
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
        self.store.class_of(to)?;
        self.send_seq += 1;
        self.timers.push(TimerEntry {
            deadline: self.now + delay as u64,
            seq: self.send_seq,
            from,
            to,
            event,
            args: Arc::from(args),
        });
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::TimersSet, 1);
            o.gauge_max(Gauge::TimerListMax, self.timers.len() as u64);
        }
        Ok(())
    }

    fn cancel_delayed(&mut self, inst: InstId, event: EventId) -> Result<()> {
        let before = self.timers.len();
        self.timers.retain(|t| !(t.to == inst && t.event == event));
        if let Some(o) = self.obs.as_mut() {
            o.count(
                Counter::TimersCancelled,
                (before - self.timers.len()) as u64,
            );
        }
        Ok(())
    }

    fn bridge_call(&mut self, actor: ActorId, func: &str, args: Vec<Value>) -> Result<Value> {
        let a = self.domain.actor(actor);
        let decl = a
            .func(func)
            .ok_or_else(|| CoreError::unresolved("bridge function", func))?;
        let ret_ty = decl.ret;
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::BridgeCalls, 1);
        }
        self.trace
            .push_bridge_call(self.now, actor, func, Arc::from(args.as_slice()));
        if let Some(handler) = self.bridges.get_mut(&actor) {
            return handler(func, &args);
        }
        Ok(match ret_ty {
            Some(t) => Value::default_for(t),
            None => Value::Bool(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use xtuml_core::builder::{pipeline_domain, DomainBuilder};
    use xtuml_core::value::DataType;

    fn counter_domain() -> Domain {
        let mut b = DomainBuilder::new("demo");
        b.actor("OUT").event("done", &[("v", DataType::Int)]);
        b.class("Counter")
            .attr("n", DataType::Int)
            .event("Bump", &[])
            .event("Reset", &[])
            .state("Idle", "")
            .state("Bumping", "self.n = self.n + 1; gen done(self.n) to OUT;")
            .state("Zero", "self.n = 0;")
            .initial("Idle")
            .transition("Idle", "Bump", "Bumping")
            .transition("Bumping", "Bump", "Bumping")
            .transition("Bumping", "Reset", "Zero")
            .transition("Zero", "Bump", "Bumping")
            .ignore("Idle", "Reset");
        b.build().unwrap()
    }

    #[test]
    fn basic_dispatch_and_observables() {
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        sim.inject(0, c, "Bump", vec![]).unwrap();
        sim.inject(1, c, "Bump", vec![]).unwrap();
        sim.inject(2, c, "Reset", vec![]).unwrap();
        sim.inject(3, c, "Bump", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.attr(c, "n").unwrap(), Value::Int(1));
        assert_eq!(sim.state_name(c).unwrap(), "Bumping");
        let obs = sim.trace().observable(&d);
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].args, vec![Value::Int(1)]);
        assert_eq!(obs[1].args, vec![Value::Int(2)]);
        assert_eq!(obs[2].args, vec![Value::Int(1)]);
    }

    #[test]
    fn ignore_consumes_silently() {
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        sim.inject(0, c, "Reset", vec![]).unwrap(); // ignored in Idle
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.state_name(c).unwrap(), "Idle");
        assert!(sim
            .trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::Ignored { .. })));
    }

    #[test]
    fn cant_happen_errors_in_strict_mode() {
        let mut b = DomainBuilder::new("m");
        b.class("C")
            .event("E", &[])
            .event("F", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "E", "S");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let c = sim.create("C").unwrap();
        sim.inject(0, c, "F", vec![]).unwrap();
        let err = sim.run_to_quiescence().unwrap_err();
        assert!(matches!(err, CoreError::CantHappen { .. }));
    }

    #[test]
    fn cant_happen_dropped_in_lenient_mode() {
        let mut b = DomainBuilder::new("m");
        b.class("C")
            .event("E", &[])
            .event("F", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "E", "S");
        let d = b.build().unwrap();
        let mut sim = Simulation::with_policy(
            &d,
            SchedPolicy {
                strict: false,
                ..SchedPolicy::default()
            },
        );
        let c = sim.create("C").unwrap();
        sim.inject(0, c, "F", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.dropped_events(), 1);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut b = DomainBuilder::new("m");
        b.actor("OUT").event("fired", &[("tag", DataType::Int)]);
        b.class("T")
            .event("Arm", &[])
            .event("Late", &[("tag", DataType::Int)])
            .state("Idle", "")
            .state(
                "Armed",
                "gen Late(2) to self after 20;\n\
                 gen Late(1) to self after 10;",
            )
            .state("Fired", "gen fired(rcvd.tag) to OUT;")
            .initial("Idle")
            .transition("Idle", "Arm", "Armed")
            .transition("Armed", "Late", "Fired")
            .transition("Fired", "Late", "Fired");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let t = sim.create("T").unwrap();
        sim.inject(0, t, "Arm", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        let obs = sim.trace().observable(&d);
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].args, vec![Value::Int(1)]);
        assert_eq!(obs[1].args, vec![Value::Int(2)]);
        assert!(sim.now() >= 20);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut b = DomainBuilder::new("m");
        b.actor("OUT").event("fired", &[]);
        b.class("T")
            .event("Arm", &[])
            .event("Disarm", &[])
            .event("Late", &[])
            .state("Idle", "")
            .state("Armed", "gen Late() to self after 50;")
            .state("Safe", "cancel Late;")
            .state("Boom", "gen fired() to OUT;")
            .initial("Idle")
            .transition("Idle", "Arm", "Armed")
            .transition("Armed", "Disarm", "Safe")
            .transition("Armed", "Late", "Boom");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let t = sim.create("T").unwrap();
        sim.inject(0, t, "Arm", vec![]).unwrap();
        sim.inject(1, t, "Disarm", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert!(sim.trace().observable(&d).is_empty());
        assert_eq!(sim.state_name(t).unwrap(), "Safe");
    }

    #[test]
    fn self_events_preempt_external_ones() {
        // In state Work, the instance sends itself Finish. An external
        // Next is already queued. With self-priority, Finish must be
        // consumed first.
        let mut b = DomainBuilder::new("m");
        b.actor("OUT").event("seen", &[("which", DataType::Int)]);
        b.class("W")
            .event("Go", &[])
            .event("Next", &[])
            .event("Finish", &[])
            .state("Idle", "")
            .state("Work", "gen Finish() to self;")
            .state("Done", "gen seen(1) to OUT;")
            .state("Nexted", "gen seen(2) to OUT;")
            .initial("Idle")
            .transition("Idle", "Go", "Work")
            .transition("Work", "Finish", "Done")
            .transition("Work", "Next", "Nexted")
            .transition("Done", "Next", "Nexted")
            .ignore("Nexted", "Finish");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let w = sim.create("W").unwrap();
        sim.inject(0, w, "Go", vec![]).unwrap();
        sim.inject(0, w, "Next", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        let obs = sim.trace().observable(&d);
        let order: Vec<i64> = obs.iter().map(|o| o.args[0].as_int().unwrap()).collect();
        assert_eq!(order, vec![1, 2], "self event must be consumed first");
    }

    #[test]
    fn same_seed_same_trace_different_seed_may_differ() {
        let d = pipeline_domain(4).unwrap();
        let run = |seed: u64| {
            let mut sim = Simulation::with_policy(&d, SchedPolicy::seeded(seed));
            let insts: Vec<InstId> = (0..4)
                .map(|k| sim.create(&format!("Stage{k}")).unwrap())
                .collect();
            for k in 0..3 {
                sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                    .unwrap();
            }
            for i in 0..8 {
                sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
                    .unwrap();
            }
            sim.run_to_quiescence().unwrap();
            sim.trace().clone()
        };
        let t1 = run(1);
        let t2 = run(1);
        assert_eq!(t1, t2, "same seed must reproduce the trace exactly");
        // Observable outputs must be identical across seeds for this
        // deterministic pipeline (it is confluent).
        let t3 = run(99);
        assert_eq!(
            t1.observable(&d),
            t3.observable(&d),
            "pipeline output is interleaving-independent"
        );
    }

    #[test]
    fn causality_holds_with_rules_on() {
        let d = pipeline_domain(3).unwrap();
        let mut sim = Simulation::new(&d);
        let insts: Vec<InstId> = (0..3)
            .map(|k| sim.create(&format!("Stage{k}")).unwrap())
            .collect();
        for k in 0..2 {
            sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                .unwrap();
        }
        for i in 0..20 {
            sim.inject(i, insts[0], "Feed", vec![Value::Int(0)])
                .unwrap();
        }
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.trace().causality_violations(), 0);
    }

    #[test]
    fn pair_order_ablation_can_violate_causality() {
        // One sender fires many ordered signals at one receiver; with FIFO
        // off, some pair must eventually be dispatched out of order.
        let mut b = DomainBuilder::new("m");
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
                "select any r from Recv;\n\
                 k = 0;\n\
                 while (k < 50) { gen Msg(k) to r; k = k + 1; }",
            )
            .initial("Idle")
            .transition("Idle", "Go", "Burst");
        let d = b.build().unwrap();
        let mut violated = false;
        for seed in 0..10 {
            let mut sim = Simulation::with_policy(
                &d,
                SchedPolicy {
                    pair_order: false,
                    ..SchedPolicy::seeded(seed)
                },
            );
            let _r = sim.create("Recv").unwrap();
            let s = sim.create("Send").unwrap();
            sim.inject(0, s, "Go", vec![]).unwrap();
            sim.run_to_quiescence().unwrap();
            if sim.trace().causality_violations() > 0 {
                violated = true;
                break;
            }
        }
        assert!(violated, "ablating pair order must eventually reorder");
    }

    #[test]
    fn delete_drops_in_flight_signals() {
        let mut b = DomainBuilder::new("m");
        b.actor("OUT").event("late", &[]);
        b.class("Victim")
            .event("Poke", &[])
            .state("Idle", "")
            .state("Poked", "gen late() to OUT;")
            .initial("Idle")
            .transition("Idle", "Poke", "Poked")
            .transition("Poked", "Poke", "Poked");
        b.class("Killer")
            .event("Go", &[])
            .state("Idle", "")
            .state(
                "Kill",
                "select any v from Victim;\n\
                 gen Poke() to v after 100;\n\
                 delete v;",
            )
            .initial("Idle")
            .transition("Idle", "Go", "Kill");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let _v = sim.create("Victim").unwrap();
        let k = sim.create("Killer").unwrap();
        sim.inject(0, k, "Go", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert!(sim.trace().observable(&d).is_empty());
    }

    #[test]
    fn bridge_handler_receives_calls() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut b = DomainBuilder::new("m");
        b.actor("MATH")
            .func("abs", &[("v", DataType::Int)], Some(DataType::Int));
        b.class("C")
            .attr("r", DataType::Int)
            .event("E", &[])
            .state("Idle", "")
            .state("Calc", "self.r = MATH::abs(-5);")
            .initial("Idle")
            .transition("Idle", "E", "Calc");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let calls = Rc::new(RefCell::new(0));
        let calls2 = calls.clone();
        sim.register_bridge("MATH", move |func, args| {
            *calls2.borrow_mut() += 1;
            assert_eq!(func, "abs");
            Ok(Value::Int(args[0].as_int()?.abs()))
        })
        .unwrap();
        let c = sim.create("C").unwrap();
        sim.inject(0, c, "E", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.attr(c, "r").unwrap(), Value::Int(5));
        assert_eq!(*calls.borrow(), 1);
    }

    #[test]
    fn unregistered_bridge_returns_default() {
        let mut b = DomainBuilder::new("m");
        b.actor("MATH")
            .func("abs", &[("v", DataType::Int)], Some(DataType::Int));
        b.class("C")
            .attr("r", DataType::Int)
            .event("E", &[])
            .state("Idle", "")
            .state("Calc", "self.r = MATH::abs(-5) + 7;")
            .initial("Idle")
            .transition("Idle", "E", "Calc");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let c = sim.create("C").unwrap();
        sim.inject(0, c, "E", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.attr(c, "r").unwrap(), Value::Int(7));
    }

    #[test]
    fn inject_validates_event_and_time() {
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        assert!(sim.inject(0, c, "Nope", vec![]).is_err());
        assert!(sim.inject(0, c, "Bump", vec![Value::Int(1)]).is_err());
        sim.inject(5, c, "Bump", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert!(sim.inject(0, c, "Bump", vec![]).is_err(), "past time");
    }

    #[test]
    fn max_steps_guards_livelock() {
        let mut b = DomainBuilder::new("m");
        b.class("Loop")
            .event("E", &[])
            .state("A", "gen E() to self;")
            .initial("A")
            .transition("A", "E", "A");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        sim.set_max_steps(100);
        let c = sim.create("Loop").unwrap();
        sim.inject(0, c, "E", vec![]).unwrap();
        let err = sim.run_to_quiescence().unwrap_err();
        assert!(err.to_string().contains("max_steps"));
    }

    #[test]
    fn snapshot_mid_run_continues_byte_identically() {
        let d = pipeline_domain(4).unwrap();
        let setup = |sim: &mut Simulation| {
            let insts: Vec<InstId> = (0..4)
                .map(|k| sim.create(&format!("Stage{k}")).unwrap())
                .collect();
            for k in 0..3 {
                sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                    .unwrap();
            }
            for i in 0..12 {
                sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
                    .unwrap();
            }
        };
        let mut reference = Simulation::with_policy(&d, SchedPolicy::seeded(7));
        setup(&mut reference);
        reference.run_to_quiescence().unwrap();

        for cut in [0u64, 1, 5, 11] {
            let mut sim = Simulation::with_policy(&d, SchedPolicy::seeded(7));
            setup(&mut sim);
            for _ in 0..cut {
                assert!(sim.step().unwrap());
            }
            let bytes = sim.snapshot();
            let mut restored = Simulation::restore(&d, &bytes).unwrap();
            restored.run_to_quiescence().unwrap();
            assert_eq!(
                restored.trace(),
                reference.trace(),
                "divergence after restoring at step {cut}"
            );
            assert_eq!(restored.now(), reference.now());
            // A second snapshot of the same state is byte-identical.
            let mut again = Simulation::restore(&d, &bytes).unwrap();
            assert_eq!(again.snapshot(), bytes);
            again.run_to_quiescence().unwrap();
            assert_eq!(again.trace(), reference.trace());
        }
    }

    #[test]
    fn corrupt_snapshots_error_structurally() {
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        sim.inject(0, c, "Bump", vec![]).unwrap();
        let bytes = sim.snapshot();
        // Every truncation must produce SnapError, never a panic.
        for cut in 0..bytes.len() {
            assert!(Simulation::restore(&d, &bytes[..cut]).is_err());
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Simulation::restore(&d, &long).is_err());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        for i in 0..100 {
            sim.inject(i, c, "Bump", vec![]).unwrap();
        }
        sim.run_until(10).unwrap();
        assert!(sim.now() >= 10);
        let n = sim.attr(c, "n").unwrap().as_int().unwrap();
        assert!(n < 100);
    }
}
