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
//! The per-signal work — slot lookup, state change, trace, action
//! execution — is the engine core shared with every shard of the
//! sharded scheduler (`dispatch` module). This module adds what is
//! sequential: the step loop and its superloop, mid-stream delivery of
//! due stimuli and timers, and the routing seam under which every send
//! is delivered at once and actions may change the population.

use crate::dispatch::{self, Core, Envelope, Program, Route, Stimulus, Timer};
use crate::mailbox::Mailboxes;
use crate::sched::{SchedPolicy, SplitMix64};
use crate::snapshot::{self, SnapResult};
use crate::store::ObjectStore;
use crate::trace::{Trace, TraceMode};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use xtuml_core::error::{CoreError, Result};
use xtuml_core::ids::{ActorId, AssocId, ClassId, EventId, InstId};
use xtuml_core::model::Domain;
use xtuml_core::value::Value;
use xtuml_obs::{Counter, Gauge, Recorder, Sink as _};

/// Handler invoked for bridge calls on a given actor.
pub type BridgeFn = Box<dyn FnMut(&str, &[Value]) -> Result<Value>>;

/// The sequential side of the routing seam: every send is delivered at
/// once, timers wait in one list, actions may change the population, and
/// bridge calls reach registered handlers.
struct SeqRoute {
    timers: Vec<Timer>,
    send_seq: u64,
    bridges: BTreeMap<ActorId, BridgeFn>,
}

impl Route for SeqRoute {
    const MUTABLE: bool = true;

    fn owns(&self, _inst: InstId) -> bool {
        true
    }

    fn alloc(&self, store: &mut ObjectStore, domain: &Domain, class: ClassId) -> InstId {
        store.create(domain, class)
    }

    fn next_seq(&mut self) -> u64 {
        self.send_seq += 1;
        self.send_seq
    }

    fn post(&mut self, core: &mut Core, to: InstId, env: Envelope) {
        core.enqueue(to, env);
    }

    fn arm(&mut self, core: &mut Core, timer: Timer) {
        self.timers.push(timer);
        core.gauge(Gauge::TimerListMax, self.timers.len() as u64);
    }

    fn cancel(&mut self, core: &mut Core, inst: InstId, event: EventId) {
        let before = self.timers.len();
        self.timers.retain(|t| !(t.to == inst && t.event == event));
        core.count(
            Counter::TimersCancelled,
            (before - self.timers.len()) as u64,
        );
    }

    fn forget(&mut self, inst: InstId) {
        self.timers.retain(|t| t.to != inst);
    }

    fn bridge(&mut self, actor: ActorId) -> Option<&mut BridgeFn> {
        self.bridges.get_mut(&actor)
    }
}

/// An executing Executable UML model. See the crate-level example.
pub struct Simulation<'d> {
    prog: Program<'d>,
    core: Core,
    route: SeqRoute,
    /// Pending external stimuli, kept sorted ascending by `(time, seq)`.
    /// Injection is overwhelmingly in time order, so maintaining the
    /// order on push is one back-element compare; delivery then streams
    /// `pop_front` over contiguous memory instead of sifting a binary
    /// heap per stimulus.
    stimuli: VecDeque<Stimulus>,
    policy: SchedPolicy,
    max_steps: u64,
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("domain", &self.prog.domain.name)
            .field("now", &self.core.now)
            .field("live", &self.core.store.live_count())
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
        Simulation {
            prog: Program::new(domain),
            core: Core::new(
                &policy,
                ObjectStore::new(domain.associations.len()),
                Mailboxes::with_len(0),
                SplitMix64::new(policy.seed),
                Trace::new(),
            ),
            route: SeqRoute {
                timers: Vec::new(),
                send_seq: 0,
                bridges: BTreeMap::new(),
            },
            stimuli: VecDeque::new(),
            policy,
            max_steps: 10_000_000,
        }
    }

    /// Attaches a telemetry recorder; counters and (when the recorder
    /// carries a span buffer) spans are recorded from here on. Counter
    /// values are deterministic: a pure function of the seed for a given
    /// model and stimulus schedule.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        self.prog.attach(&mut self.core.obs, rec);
    }

    /// Detaches and returns the recorder, if one is attached.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.core.obs.take().map(|b| *b)
    }

    /// The domain being executed.
    pub fn domain(&self) -> &'d Domain {
        self.prog.domain
    }

    /// Current simulation time (ticks).
    pub fn now(&self) -> u64 {
        self.core.now
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// The instance population (read-only).
    pub fn store(&self) -> &ObjectStore {
        &self.core.store
    }

    /// Number of events dropped in non-strict mode.
    pub fn dropped_events(&self) -> u64 {
        self.core.dropped
    }

    /// Caps the total number of dispatch steps per `run_*` call.
    pub fn set_max_steps(&mut self, max: u64) {
        self.max_steps = max;
    }

    /// Sets the trace recording mode ([`TraceMode::Full`] by default).
    ///
    /// [`TraceMode::Off`] records nothing; differential and golden
    /// comparisons require `Full`.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.core.trace.set_mode(mode);
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
        let id = self.prog.domain.actor_id(actor)?;
        self.route.bridges.insert(id, Box::new(f));
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
        let id = self.prog.domain.class_id(class)?;
        Ok(self.create_of(id))
    }

    pub(crate) fn create_of(&mut self, class: ClassId) -> InstId {
        self.core.create(self.prog.domain, &mut self.route, class)
    }

    /// Relates two instances across the named association.
    ///
    /// # Errors
    ///
    /// Propagates store errors (multiplicity, class mismatch, dangling).
    pub fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        let id = self.prog.domain.assoc_id(assoc)?;
        self.relate_by(a, b, id)
    }

    pub(crate) fn relate_by(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        self.core.store.relate(self.prog.domain, a, b, assoc)
    }

    /// Schedules an external stimulus: deliver `event` to `inst` at
    /// absolute time `time` (must not be in the past).
    ///
    /// # Errors
    ///
    /// Fails on unknown events, dead instances, arity mismatches or past
    /// times.
    pub fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
        let event = dispatch::resolve_stimulus(
            self.prog.domain,
            &self.core.store,
            self.core.now,
            time,
            inst,
            event,
            args.len(),
        )?;
        let args = self.core.payload(args);
        self.schedule(time, inst, event, args);
        Ok(())
    }

    /// Schedules a validated stimulus.
    pub(crate) fn schedule(&mut self, time: u64, to: InstId, event: EventId, args: Arc<[Value]>) {
        let seq = self.route.next_seq();
        self.stim_insert(Stimulus {
            time,
            seq,
            to,
            event,
            args,
        });
        if let Some(o) = self.core.obs.as_mut() {
            o.count(Counter::StimuliInjected, 1);
            o.gauge_max(Gauge::StimulusHeapMax, self.stimuli.len() as u64);
        }
    }

    /// Reads an attribute by name.
    ///
    /// # Errors
    ///
    /// Fails on unknown attributes or dangling instances.
    pub fn attr(&self, inst: InstId, name: &str) -> Result<Value> {
        let c = self.prog.domain.class(self.core.store.class_of(inst)?);
        let id = c
            .attr_id(name)
            .ok_or_else(|| CoreError::unresolved("attribute", format!("{}.{name}", c.name)))?;
        self.core.store.attr_read(inst, id)
    }

    /// The name of the instance's current state.
    ///
    /// # Errors
    ///
    /// Fails on dangling instances or passive classes.
    pub fn state_name(&self, inst: InstId) -> Result<&str> {
        let class = self.core.store.class_of(inst)?;
        let machine = self
            .prog
            .domain
            .class(class)
            .state_machine
            .as_ref()
            .ok_or_else(|| CoreError::runtime("passive class has no states"))?;
        Ok(&machine.state(self.core.store.state_of(inst)?).name)
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
        if let Some(o) = self.core.obs.as_mut() {
            let track = o.track;
            o.span_begin(track, "sim", "run_to_quiescence");
        }
        let r = self.run_to_quiescence_inner();
        if let Some(o) = self.core.obs.as_mut() {
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
                return Err(dispatch::livelock(self.max_steps));
            }
            if !self.step()? {
                return Ok(steps);
            }
            steps += 1;
            if steps > self.max_steps {
                return Err(dispatch::livelock(self.max_steps));
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
            && !self.core.mail.ready().is_empty()
            && self.route.timers.is_empty()
            && self.stimuli.front().is_none_or(|s| s.time > self.core.now)
        {
            let pick = self.core.pick();
            // Same-instance batch: drain `pick`'s queues in a tight
            // inner loop, for as long as it provably remains the only
            // candidate.
            loop {
                let env = self.pop_envelope(pick);
                self.core.dispatch(&self.prog, &mut self.route, pick, env)?;
                self.core.now += 1;
                *steps += 1;
                if *steps >= budget
                    || !self.route.timers.is_empty()
                    || self
                        .stimuli
                        .front()
                        .is_some_and(|s| s.time <= self.core.now)
                    || self.core.mail.ready() != [pick]
                {
                    break;
                }
                // The scheduler would re-draw over a single candidate;
                // consume that draw to keep the stream identical.
                self.core.rng.below(1);
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
        while self.core.now < deadline {
            if !self.step()? {
                break;
            }
            steps += 1;
            if steps > self.max_steps {
                return Err(dispatch::livelock(self.max_steps));
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
            if !self.route.timers.is_empty() || !self.stimuli.is_empty() {
                self.deliver_due();
            }
            if self.core.mail.ready().is_empty() {
                // Jump to the next timer/stimulus moment, if any.
                let next = self
                    .route
                    .timers
                    .iter()
                    .map(|t| t.deadline)
                    .chain(self.stimuli.front().map(|s| s.time))
                    .min();
                match next {
                    Some(t) if t > self.core.now => {
                        self.core.now = t;
                        continue;
                    }
                    Some(_) => continue, // due now; deliver on next loop
                    None => return Ok(false),
                }
            }
            let pick = self.core.pick();
            let env = self.pop_envelope(pick);
            self.core.dispatch(&self.prog, &mut self.route, pick, env)?;
            self.core.now += 1;
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
        let now = self.core.now;
        if !self.route.timers.iter().any(|t| t.deadline <= now) {
            // Fast path (no due timer — in particular, pure signal
            // traffic): the sorted queue front already comes out in
            // (time, seq) order, the exact order the general merge
            // produces, because `seq` is globally unique across timers
            // and stimuli.
            while self.stimuli.front().is_some_and(|s| s.time <= now) {
                let s = self.stimuli.pop_front().expect("peeked above");
                if !self.core.store.is_alive(s.to) {
                    continue; // instance died while the stimulus was in flight
                }
                self.core.push(
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
        self.route.timers.retain(|t| {
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
            if !self.core.store.is_alive(to) {
                continue; // instance died while the signal was in flight
            }
            if from.is_some() {
                self.core.count(Counter::TimersFired, 1);
            }
            self.core.push(
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

    fn pop_envelope(&mut self, inst: InstId) -> Envelope {
        let env = if self.policy.pair_order {
            self.core.mail.pop(inst)
        } else {
            // Ablation: pick a random position instead of the front.
            let k = self.core.rng.below(self.core.mail.len(inst));
            self.core.mail.remove_at(inst, k)
        };
        env.expect("ready instance has a signal")
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
        let mut w = dispatch::snap_begin(snapshot::KIND_SEQUENTIAL, &self.prog, &self.policy);
        w.u64(self.core.now);
        w.u64(self.route.send_seq);
        w.u64(self.core.dropped);
        w.u64(self.max_steps);
        w.u64(self.core.rng.state());
        self.core.store.snap_write(&mut w);
        dispatch::snap_write_mail(&mut w, &self.core.mail);
        dispatch::snap_write_timers(&mut w, &self.route.timers);
        // The queue invariant keeps stimuli sorted by the total
        // (time, seq) key, so plain iteration writes them in that order.
        dispatch::snap_write_stimuli(&mut w, self.stimuli.iter());
        dispatch::snap_write_trace(&mut w, &self.core.trace);
        dispatch::snap_write_recorder(&mut w, self.core.obs.as_deref());
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
    /// Returns a structured [`SnapError`](crate::SnapError) — never
    /// panics — on truncated or corrupt input, version or kind mismatch,
    /// or a snapshot taken against a different domain.
    pub fn restore(domain: &'d Domain, bytes: &[u8]) -> SnapResult<Simulation<'d>> {
        let (mut r, policy) =
            dispatch::snap_open(bytes, domain, snapshot::KIND_SEQUENTIAL, "sequential")?;
        let mut sim = Simulation::with_policy(domain, policy);
        sim.core.now = r.u64()?;
        sim.route.send_seq = r.u64()?;
        sim.core.dropped = r.u64()?;
        sim.max_steps = r.u64()?;
        sim.core.rng = SplitMix64::from_state(r.u64()?);
        sim.core.store = ObjectStore::snap_read(&mut r)?;
        sim.core.mail = dispatch::snap_read_mail(&mut r, sim.core.store.id_space())?;
        sim.route.timers = dispatch::snap_read_timers(&mut r)?;
        // Snapshots write stimuli in (time, seq) order; stim_insert keeps
        // that invariant (and repairs a hand-edited snapshot).
        for s in dispatch::snap_read_stimuli(&mut r)? {
            sim.stim_insert(s);
        }
        dispatch::snap_read_trace(&mut r, &mut sim.core.trace)?;
        sim.core.obs = dispatch::snap_read_recorder(&mut r)?;
        r.expect_end()?;
        Ok(sim)
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
    fn many_argless_stimuli_round_trip() {
        // A stimulus without arguments encodes in 28 bytes; the restore
        // length check must not demand more per element.
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        for i in 0..100 {
            sim.inject(i, c, "Bump", vec![]).unwrap();
        }
        let bytes = sim.snapshot();
        let restored = Simulation::restore(&d, &bytes).unwrap();
        assert_eq!(restored.pending_stimuli(), 100);
        assert_eq!(restored.snapshot(), bytes);
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
