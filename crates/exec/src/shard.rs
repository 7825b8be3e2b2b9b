//! Deterministic sharded parallel execution.
//!
//! The paper's semantics make parallelism *legal*: instances are
//! concurrently executing state machines that communicate only by
//! signals, and each dispatch runs to completion. [`ShardedSimulation`]
//! exploits that. Instances are partitioned into `policy.shards` shards
//! by instance id (`id % shards`); execution proceeds in **epochs**:
//!
//! 1. due stimuli and timers are delivered into shard queues;
//! 2. every shard independently runs its local run-to-completion steps
//!    until it has no ready instance, buffering signals to other shards
//!    in a per-destination outbox and appending to a shard-local trace;
//! 3. at the **epoch barrier** the shard traces are concatenated in
//!    shard-id order, outboxes are routed (source shards in id order,
//!    each source's signals in send order — so signals between any
//!    sender–receiver pair stay FIFO), new timers are collected, and
//!    global time advances by the largest per-shard dispatch count.
//!
//! Every choice above is a pure function of the seed and the shard
//! count: shard `k` schedules with its own PRNG stream derived from
//! `policy.seed`, and the barrier merge is order-deterministic. The
//! worker count (`--jobs`) only decides how many shards execute
//! *concurrently* between barriers — the merged trace is byte-identical
//! whether the shards run on one thread or eight. `shards == 1`
//! delegates to the classic sequential [`Simulation`], so the historical
//! single-seed traces are preserved exactly.
//!
//! Not every model is shardable. [`shard_safety`] consults the
//! whole-model effect analysis (`xtuml_core::effects`) before any thread
//! starts: models whose actions only write `self` attributes and
//! communicate by signals shard without restriction, and the analysis
//! additionally *admits* reads of never-written attributes (replicas
//! hold the declared defaults), creation of classes nothing selects over
//! (ids are allocated congruent to the creating shard, so ownership
//! holds — see [`ObjectStore::create_with_id`]), and attribute access
//! confined to a single navigated association whose links are
//! shard-colocated. That last rule is a *runtime* precondition: the run
//! re-checks the setup links at the actual shard count and silently
//! delegates to the sequential engine when it fails (see
//! [`ShardedSimulation::runtime_fallback`]), keeping the trace a pure
//! function of `(seed, shards)`. Structure mutation
//! (`delete`/`relate`/`unrelate`) and irreconcilable non-self access
//! still reject — the latter as diagnostic `X0017 cross-shard-race`.

use crate::mailbox::Mailboxes;
use crate::sched::{SchedPolicy, SplitMix64};
use crate::sim::{
    snap_read_mail, snap_write_mail, DispatchTable, Engine, Envelope, Exec, PayloadPool,
    Simulation, Slot, SpanNames,
};
use crate::snapshot::{self, SnapError, SnapResult};
use crate::store::ObjectStore;
use crate::trace::{Trace, TraceMode};
use std::collections::VecDeque;
use std::sync::Arc;
use xtuml_core::bc::{self, BcFallback, BcProgram};
use xtuml_core::code::CompiledProgram;
use xtuml_core::error::{CoreError, Result};
use xtuml_core::ids::{ActorId, AssocId, AttrId, ClassId, EventId, InstId};
use xtuml_core::interp::{self, ActionHost, ExecCtx};
use xtuml_core::model::Domain;
use xtuml_core::value::Value;
use xtuml_obs::{Counter, EpochRow, Gauge, HistKind, Metrics, NullSink, Recorder, Sink};
use xtuml_pool::{stream_seed, Pool};

// ---------------------------------------------------------------------------
// Static shard-safety analysis
// ---------------------------------------------------------------------------

/// Checks whether a domain's actions are safe to execute sharded.
///
/// Safe actions may read/write `self` attributes, navigate associations,
/// select over the (static) population, generate signals (buffered at
/// the barrier), cancel their own timers, and call bridge functions
/// (default-return only — handler closures cannot cross threads). On
/// top of that, the effect analysis admits read-only access to
/// never-written attributes, writes to instances created in the same
/// run-to-completion step (creation-confined classes only), and access
/// confined to one shard-colocated association. What remains —
/// `delete`/`relate`/`unrelate`, unconfined creates, and non-self
/// access no admission rule covers — would race between shards and
/// rejects here.
///
/// # Errors
///
/// Returns a runtime error naming every offending class/state/construct,
/// so callers can report *why* a model must run sequentially.
pub fn shard_safety(domain: &Domain) -> Result<()> {
    let offenses = xtuml_core::lint::shard_offenses(domain);
    if offenses.is_empty() {
        Ok(())
    } else {
        let described: Vec<String> = offenses.iter().map(|o| o.describe()).collect();
        Err(CoreError::runtime(format!(
            "model is not shard-safe: {}",
            described.join("; ")
        )))
    }
}

// ---------------------------------------------------------------------------
// The sharded engine
// ---------------------------------------------------------------------------

/// A cross-shard signal buffered until the epoch barrier.
#[derive(Debug, Clone)]
struct OutboxEntry {
    to: InstId,
    env: Envelope,
}

/// A timer armed during an epoch, collected by the coordinator.
#[derive(Debug, Clone)]
struct PendingTimer {
    deadline: u64,
    seq: u64,
    from: InstId,
    to: InstId,
    event: EventId,
    args: Arc<[Value]>,
}

/// An external stimulus scheduled before the run.
#[derive(Debug, Clone)]
struct PendingStimulus {
    time: u64,
    seq: u64,
    to: InstId,
    event: EventId,
    args: Arc<[Value]>,
}

/// The live epoch engine between barriers: shard replicas plus the
/// coordinator's undelivered work. Held only while a run is paused at an
/// epoch barrier ([`ShardedSimulation::run_epochs`] returned `None`) —
/// exactly the points where every shard's epoch-local buffers are
/// drained, which is what makes the pause a valid snapshot point.
struct EngineState {
    shards: Vec<ShardState>,
    /// Not-yet-due external stimuli, sorted by `(time, seq)`.
    stimuli: VecDeque<PendingStimulus>,
    /// Armed timers, sorted by `(deadline, seq)` at every barrier.
    timers: Vec<PendingTimer>,
    total_steps: u64,
    epoch_no: u64,
}

/// A delivery that has come due at the top of an epoch:
/// `(time, seq, kind, from, to, event, args)`, where kind 0 is an
/// injected stimulus and 1 a timer — stimuli sort before timers at the
/// same instant because their seqs come from different counters.
type DueDelivery = (u64, u64, u8, Option<InstId>, InstId, EventId, Arc<[Value]>);

/// Everything one shard owns between barriers. `Send` by construction:
/// signal payloads are `Arc<[Value]>`, the store and trace are plain
/// data.
struct ShardState {
    id: usize,
    nshards: usize,
    /// Replica of the setup-time population. Admitted actions only
    /// write shard-owned instances and only read slots whose values
    /// match the owner's (never-written attributes, colocated links, or
    /// instances this shard created), so replicas only diverge in slots
    /// no other shard reads. Creation appends shard-congruent ids, so
    /// replica id spaces may diverge in length — created ids never
    /// escape their shard.
    store: ObjectStore,
    /// Signal queues over the replica's id space; the ready list holds
    /// local instances only, ascending by id.
    mail: Mailboxes<Envelope>,
    rng: SplitMix64,
    /// Per-shard send counter; globalised as `local*nshards + id` so
    /// sequence numbers stay strictly increasing per sending shard
    /// without cross-shard coordination.
    local_seq: u64,
    /// Epoch-local state, cleared at each barrier:
    trace: Trace,
    outbox: Vec<OutboxEntry>,
    new_timers: Vec<PendingTimer>,
    /// `(instance, event)` pairs cancelled this epoch, applied to the
    /// coordinator's timer list at the barrier.
    cancels: Vec<(InstId, EventId)>,
    dispatches: u64,
    dropped: u64,
    /// Remaining global dispatch budget at the top of the epoch. A local
    /// cycle (e.g. an action that unconditionally signals itself) never
    /// quiesces, so the epoch itself must enforce `max_steps` — the
    /// post-barrier total check would never be reached.
    step_budget: u64,
    /// The run's configured cap, for the error message.
    max_steps: u64,
    now: u64,
    strict: bool,
    self_priority: bool,
    frame_buf: Vec<Option<Value>>,
    /// Recycled candidate buffer for filtered selects (see
    /// [`ExecCtx::scratch`]).
    scratch_buf: Vec<InstId>,
    /// Per-shard recycled signal payload buffers (see
    /// [`PayloadPool`]); shard-local, so pooling never couples shards.
    payloads: PayloadPool,
    /// Per-shard telemetry, forked from the coordinator's recorder
    /// ([`Recorder::fork_shard`]) and absorbed back in shard-id order at
    /// the end of the run so merged snapshots never depend on `--jobs`.
    obs: Option<Recorder>,
    /// Epoch ordinal, set by the coordinator before each parallel
    /// section (for span names; 1-based).
    epoch: u64,
    /// Wall-clock nanoseconds this shard spent busy in the last epoch —
    /// the coordinator subtracts it from the epoch wall time to estimate
    /// barrier wait. Only measured while a recorder is attached.
    epoch_busy_ns: u64,
}

impl ShardState {
    fn owns(&self, inst: InstId) -> bool {
        inst.index() % self.nshards == self.id
    }

    fn next_seq(&mut self) -> u64 {
        self.local_seq += 1;
        self.local_seq * self.nshards as u64 + self.id as u64
    }

    fn enqueue(&mut self, to: InstId, env: Envelope) {
        self.mail.push(to, env.is_self(to, self.self_priority), env);
        if let Some(r) = self.obs.as_mut() {
            r.gauge_max(Gauge::ReadySetMax, self.mail.ready().len() as u64);
        }
    }

    /// Runs this shard's run-to-completion steps until no local instance
    /// is ready. Called between barriers, possibly on a worker thread.
    ///
    /// Bounded by `step_budget` (the global budget remaining when the
    /// epoch started): each shard checks against the full remaining
    /// budget independently, so whether a shard errors is a pure
    /// function of its own inputs — deterministic across worker counts —
    /// and a shard-local livelock fails like the sequential engine does
    /// instead of hanging the run.
    fn run_epoch(
        &mut self,
        domain: &Domain,
        program: &CompiledProgram,
        table: &DispatchTable,
        spans: Option<&SpanNames>,
    ) -> Result<()> {
        let timed = self.obs.is_some().then(std::time::Instant::now);
        if let Some(r) = self.obs.as_mut() {
            if r.spans_enabled() {
                let track = r.track;
                r.span_begin(track, "shard", &format!("epoch {}", self.epoch));
            }
        }
        let out = self.run_epoch_inner(domain, program, table, spans);
        if let Some(r) = self.obs.as_mut() {
            if r.spans_enabled() {
                let track = r.track;
                r.span_end(track);
            }
        }
        if let Some(t0) = timed {
            self.epoch_busy_ns = t0.elapsed().as_nanos() as u64;
        }
        out
    }

    fn run_epoch_inner(
        &mut self,
        domain: &Domain,
        program: &CompiledProgram,
        table: &DispatchTable,
        spans: Option<&SpanNames>,
    ) -> Result<()> {
        while !self.mail.ready().is_empty() {
            if self.dispatches >= self.step_budget {
                if let Some(r) = self.obs.as_mut() {
                    r.count(Counter::BudgetExhausted, 1);
                }
                return Err(CoreError::runtime(format!(
                    "exceeded max_steps ({}) — livelock?",
                    self.max_steps
                )));
            }
            let ready = self.mail.ready();
            let pick = ready[self.rng.below(ready.len())];
            // Same-instance batch (superloop): nothing is delivered
            // mid-epoch and shards never delete, so while `pick` stays
            // the only ready instance the next draw must re-select it —
            // drain its queues in a tight loop, consuming one PRNG draw
            // per signal to keep the stream identical.
            loop {
                let env = self.mail.pop(pick).expect("ready instance has a signal");
                self.dispatch(domain, program, table, spans, pick, env)?;
                self.dispatches += 1;
                if self.mail.ready() != [pick] || self.dispatches >= self.step_budget {
                    break;
                }
                self.rng.below(1); // the draw a re-pick would consume
            }
        }
        Ok(())
    }

    fn dispatch(
        &mut self,
        domain: &Domain,
        program: &CompiledProgram,
        table: &DispatchTable,
        spans: Option<&SpanNames>,
        inst: InstId,
        env: Envelope,
    ) -> Result<()> {
        let (class, from_state) = self.store.class_state(inst)?;
        let Some(cs) = table.class(class) else {
            return Err(CoreError::runtime(format!(
                "signal sent to passive class {}",
                domain.class(class).name
            )));
        };
        let mut rtc_span = false;
        if let Some(r) = self.obs.as_mut() {
            r.count(Counter::SignalsDispatched, 1);
            if r.spans_enabled() {
                rtc_span = true;
                let track = r.track;
                match spans {
                    Some(sn) => r.span_begin(track, "rtc", sn.rtc(class, env.event)),
                    None => {
                        let c = domain.class(class);
                        let name = format!("{}.{}", c.name, c.events[env.event.index()].name);
                        r.span_begin(track, "rtc", &name);
                    }
                }
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
                if let Some(r) = self.obs.as_mut() {
                    r.count(Counter::TransitionsFired, 1);
                    if r.spans_enabled() {
                        action_span = true;
                        let track = r.track;
                        match spans {
                            Some(sn) => r.span_begin(track, "action", sn.action(class, to_state)),
                            None => {
                                let c = domain.class(class);
                                let machine = c.state_machine.as_ref().expect("active class");
                                let name =
                                    format!("action {}.{}", c.name, machine.state(to_state).name);
                                r.span_begin(track, "action", &name);
                            }
                        }
                    }
                }
                let run = match exec {
                    Exec::Nop { vm } => {
                        // Provably effect-free body: no frame, no ctx, no
                        // VM entry. Counters must match a real execution.
                        if *vm {
                            if let Some(r) = self.obs.as_mut() {
                                r.count(Counter::BcActions, 1);
                            }
                        }
                        Ok(interp::Outcome::Completed)
                    }
                    Exec::Vm(bca) => {
                        if let Some(r) = self.obs.as_mut() {
                            r.count(Counter::BcActions, 1);
                        }
                        // Recycle one frame allocation across dispatches.
                        let mut frame = std::mem::take(&mut self.frame_buf);
                        frame.clear();
                        frame.resize(bca.n_regs, None);
                        let mut ctx = ExecCtx::with_frame(inst, class, frame);
                        ctx.scratch = std::mem::take(&mut self.scratch_buf);
                        ctx.bind_args(env.args.iter().cloned());
                        let mut host = ShardHost {
                            shard: self,
                            domain,
                        };
                        let r = bc::run_bc(&mut host, &mut ctx, bca);
                        self.frame_buf = std::mem::take(&mut ctx.frame);
                        self.scratch_buf = std::mem::take(&mut ctx.scratch);
                        r
                    }
                    Exec::Frames { fallback } => {
                        if *fallback {
                            if let Some(r) = self.obs.as_mut() {
                                r.count(Counter::BcFallbacks, 1);
                            }
                        }
                        // Only the frame interpreter needs the compiled
                        // action; a `Vm` slot implies the frame compile
                        // it lowered from succeeded.
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
                        let mut host = ShardHost {
                            shard: self,
                            domain,
                        };
                        let r = interp::run_code(&mut host, &mut ctx, action);
                        self.frame_buf = std::mem::take(&mut ctx.frame);
                        self.scratch_buf = std::mem::take(&mut ctx.scratch);
                        r
                    }
                };
                if action_span {
                    if let Some(r) = self.obs.as_mut() {
                        let track = r.track;
                        r.span_end(track);
                    }
                }
                run?;
                Ok(())
            }
            Slot::Ignore => {
                if let Some(r) = self.obs.as_mut() {
                    r.count(Counter::SignalsIgnored, 1);
                }
                self.trace.push_ignored(self.now, inst, env.event);
                Ok(())
            }
            Slot::CantHappen => {
                if self.strict {
                    let c = domain.class(class);
                    let machine = c.state_machine.as_ref().expect("active class");
                    Err(CoreError::CantHappen {
                        class: c.name.clone(),
                        state: machine.state(from_state).name.clone(),
                        event: c.events[env.event.index()].name.clone(),
                    })
                } else {
                    self.dropped += 1;
                    if let Some(r) = self.obs.as_mut() {
                        r.count(Counter::SignalsDropped, 1);
                    }
                    self.trace.push_dropped(self.now, inst, env.event);
                    Ok(())
                }
            }
        };
        if rtc_span {
            if let Some(r) = self.obs.as_mut() {
                let track = r.track;
                r.span_end(track);
            }
        }
        // The envelope is fully consumed: offer its payload buffer to
        // this shard's next computed send.
        self.payloads.recycle(env.args);
        out
    }
}

/// The [`ActionHost`] a sharded dispatch executes against: local sends
/// are delivered immediately, cross-shard sends and timers are buffered
/// for the barrier, creation allocates shard-congruent ids, and the
/// accesses the effect analysis blocks (structure mutation, non-owned
/// writes) are rejected (unreachable after [`shard_safety`], but
/// enforced anyway).
struct ShardHost<'a, 'd> {
    shard: &'a mut ShardState,
    domain: &'d Domain,
}

impl ShardHost<'_, '_> {
    fn unsupported(what: &str) -> CoreError {
        CoreError::runtime(format!(
            "{what} is not shard-safe; run with --jobs 1 (sequential)"
        ))
    }
}

impl ActionHost for ShardHost<'_, '_> {
    fn domain(&self) -> &Domain {
        self.domain
    }

    fn create(&mut self, class: ClassId) -> Result<InstId> {
        // Creation reaches a sharded dispatch only when the effect
        // analysis proved the class creation-confined (nothing selects
        // over it), so the instance stays private to this shard. Ids are
        // allocated congruent to the shard id so `owns()` holds for
        // every subsequent access and send; other shards' replicas never
        // learn the id, and a leaked id would hit a tombstone there —
        // a deterministic error, not a race.
        let s = &mut self.shard;
        let len = s.store.id_space();
        let rem = len % s.nshards;
        let want = if rem <= s.id {
            len + (s.id - rem)
        } else {
            len + s.nshards - rem + s.id
        };
        let inst = s
            .store
            .create_with_id(self.domain, class, InstId::new(want as u32));
        s.mail.grow_to(s.store.id_space());
        if let Some(r) = s.obs.as_mut() {
            r.count(Counter::InstancesCreated, 1);
            r.gauge_max(Gauge::LiveInstancesMax, s.store.live_count() as u64);
        }
        s.trace.push_create(s.now, inst, class);
        Ok(inst)
    }

    fn delete(&mut self, _inst: InstId) -> Result<()> {
        Err(Self::unsupported("instance deletion"))
    }

    fn class_of(&self, inst: InstId) -> Result<ClassId> {
        self.shard.store.class_of(inst)
    }

    fn attr_read(&self, inst: InstId, attr: AttrId) -> Result<Value> {
        self.shard.store.attr_read(inst, attr)
    }

    fn attr_write_typed(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        // Same ownership gate as `attr_write` — the bytecode VM writes
        // through this pre-typechecked entry point, and an admitted
        // model only ever writes shard-owned instances (self, created
        // here, or reached via a colocated link).
        if !self.shard.owns(inst) {
            return Err(Self::unsupported("writing another shard's attribute"));
        }
        self.shard.store.attr_write_typed(inst, attr, value)
    }

    fn take_payload(&mut self, len: usize) -> Option<Arc<[Value]>> {
        self.shard.payloads.take(len)
    }

    fn attr_write(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        if !self.shard.owns(inst) {
            return Err(Self::unsupported("writing another shard's attribute"));
        }
        self.shard.store.attr_write(self.domain, inst, attr, value)
    }

    fn instances_of(&self, class: ClassId) -> Vec<InstId> {
        self.shard.store.instances_of(class)
    }

    fn related(&self, inst: InstId, assoc: AssocId) -> Result<Vec<InstId>> {
        self.shard.store.related(inst, assoc)
    }

    fn each_instance(&self, class: ClassId, f: &mut dyn FnMut(InstId)) {
        self.shard.store.instances_iter(class).for_each(f);
    }

    fn first_instance_of(&self, class: ClassId) -> Option<InstId> {
        self.shard.store.first_instance_of(class)
    }

    fn related_each(&self, inst: InstId, assoc: AssocId, f: &mut dyn FnMut(InstId)) -> Result<()> {
        self.shard.store.related_iter(inst, assoc)?.for_each(f);
        Ok(())
    }

    fn relate(&mut self, _a: InstId, _b: InstId, _assoc: AssocId) -> Result<()> {
        Err(Self::unsupported("relating instances"))
    }

    fn unrelate(&mut self, _a: InstId, _b: InstId, _assoc: AssocId) -> Result<()> {
        Err(Self::unsupported("unrelating instances"))
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
        self.shard.store.class_of(to)?; // liveness (population is static)
        let seq = self.shard.next_seq();
        let env = Envelope {
            from: Some(from),
            event,
            args,
            seq,
        };
        let local = self.shard.owns(to);
        if let Some(r) = self.shard.obs.as_mut() {
            r.count(Counter::SignalsSent, 1);
            if from == to {
                r.count(Counter::SelfSignals, 1);
            }
            r.count(
                if local {
                    Counter::LocalShardSignals
                } else {
                    Counter::CrossShardSignals
                },
                1,
            );
            let shard_id = self.shard.id as u32;
            let lane = r.metrics.lane_mut(shard_id);
            lane.sent += 1;
            if !local {
                lane.cross_shard += 1;
            }
        }
        if local {
            self.shard.enqueue(to, env);
        } else {
            self.shard.outbox.push(OutboxEntry { to, env });
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
        if let Some(r) = self.shard.obs.as_mut() {
            r.count(Counter::ActorSignals, 1);
        }
        self.shard
            .trace
            .push_actor_signal(self.shard.now, actor, event, args);
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
        self.shard.store.class_of(to)?;
        let seq = self.shard.next_seq();
        let deadline = self.shard.now + delay as u64;
        self.shard.new_timers.push(PendingTimer {
            deadline,
            seq,
            from,
            to,
            event,
            args: Arc::from(args),
        });
        if let Some(r) = self.shard.obs.as_mut() {
            r.count(Counter::TimersSet, 1);
        }
        Ok(())
    }

    fn cancel_delayed(&mut self, inst: InstId, event: EventId) -> Result<()> {
        // Timers armed this epoch are still local; older ones live in
        // the coordinator and are removed at the barrier.
        let before = self.shard.new_timers.len();
        self.shard
            .new_timers
            .retain(|t| !(t.to == inst && t.event == event));
        let removed = (before - self.shard.new_timers.len()) as u64;
        if removed > 0 {
            if let Some(r) = self.shard.obs.as_mut() {
                r.count(Counter::TimersCancelled, removed);
            }
        }
        self.shard.cancels.push((inst, event));
        Ok(())
    }

    fn bridge_call(&mut self, actor: ActorId, func: &str, args: Vec<Value>) -> Result<Value> {
        let a = self.domain.actor(actor);
        let decl = a
            .func(func)
            .ok_or_else(|| CoreError::unresolved("bridge function", func))?;
        let ret_ty = decl.ret;
        if let Some(r) = self.shard.obs.as_mut() {
            r.count(Counter::BridgeCalls, 1);
        }
        self.shard
            .trace
            .push_bridge_call(self.shard.now, actor, func, Arc::from(args.as_slice()));
        Ok(match ret_ty {
            Some(t) => Value::default_for(t),
            None => Value::Bool(false),
        })
    }
}

/// The sharded counterpart of [`Simulation`]: same setup API (`create`,
/// `relate`, `inject`), then [`ShardedSimulation::run_to_quiescence`]
/// executes epochs with a caller-supplied worker count.
///
/// With `policy.shards <= 1` the run delegates to the sequential
/// [`Simulation`], reproducing historical traces exactly. With more
/// shards the trace is a pure function of `(seed, shards)` — see the
/// module docs for the guarantee and [`shard_safety`] for the model
/// classes this engine accepts.
pub struct ShardedSimulation<'d> {
    domain: &'d Domain,
    program: CompiledProgram,
    /// Register bytecode lowered from `program`, once at construction.
    bc: BcProgram,
    /// Action executor selection; [`Engine::Bc`] by default.
    engine: Engine,
    policy: SchedPolicy,
    store: ObjectStore,
    /// Setup-time relate calls, in call order (for sequential replay).
    setup_links: Vec<(InstId, InstId, AssocId)>,
    stimuli: Vec<PendingStimulus>,
    setup_seq: u64,
    max_steps: u64,
    trace: Trace,
    dropped: u64,
    now: u64,
    /// Attached telemetry recorder; `None` (the default) costs one
    /// predictable branch per instrumented site. Shard workers record
    /// into per-shard forks absorbed back in shard-id order, so the
    /// merged snapshot is a pure function of `(seed, shards)`.
    obs: Option<Box<Recorder>>,
    /// Why the last run delegated to the sequential engine at runtime
    /// despite static admission (a colocation precondition failed for
    /// the actual setup links and shard count); `None` otherwise.
    runtime_fallback: Option<String>,
    /// The paused epoch engine, `Some` only between a `run_epochs` pause
    /// and its resumption (always at an epoch barrier).
    engine_state: Option<EngineState>,
    /// Dense `(state × event) → slot` dispatch tables, pre-resolved for
    /// the selected engine (rebuilt on [`ShardedSimulation::set_engine`]).
    table: DispatchTable,
    /// Pre-interned span names, built on first recorder attach with
    /// spans enabled.
    spans: Option<SpanNames>,
}

impl std::fmt::Debug for ShardedSimulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulation")
            .field("domain", &self.domain.name)
            .field("policy", &self.policy)
            .field("live", &self.store.live_count())
            .finish_non_exhaustive()
    }
}

impl<'d> ShardedSimulation<'d> {
    /// Creates a sharded simulation with an explicit policy.
    pub fn with_policy(domain: &'d Domain, policy: SchedPolicy) -> ShardedSimulation<'d> {
        let program = CompiledProgram::new(domain);
        let bc = BcProgram::new(domain, &program);
        let table = DispatchTable::new(domain, &program, &bc, Engine::default());
        ShardedSimulation {
            domain,
            program,
            bc,
            engine: Engine::default(),
            table,
            spans: None,
            policy: policy.with_shards(policy.shards),
            store: ObjectStore::new(domain.associations.len()),
            setup_links: Vec::new(),
            stimuli: Vec::new(),
            setup_seq: 0,
            max_steps: 10_000_000,
            trace: Trace::new(),
            dropped: 0,
            now: 0,
            obs: None,
            runtime_fallback: None,
            engine_state: None,
        }
    }

    /// Attaches a telemetry recorder. Setup already performed still
    /// counts: the run snapshots population/stimulus totals at start.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        if rec.spans_enabled() && self.spans.is_none() {
            self.spans = Some(SpanNames::new(self.domain));
        }
        self.obs = Some(Box::new(rec));
    }

    /// Detaches and returns the recorder (with everything absorbed),
    /// if one was attached.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.obs.take().map(|b| *b)
    }

    /// The domain being executed.
    pub fn domain(&self) -> &'d Domain {
        self.domain
    }

    /// The execution trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current simulation time (ticks; epochs advance by their critical
    /// path in sharded runs).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of events dropped in non-strict mode.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Why the last [`ShardedSimulation::run_to_quiescence`] delegated
    /// to the sequential engine at runtime despite static admission:
    /// the effect analysis admitted the model on the precondition that
    /// some association's links be shard-colocated, and the actual setup
    /// links violated it at this shard count. `None` when the run
    /// executed sharded (or never needed the precondition).
    pub fn runtime_fallback(&self) -> Option<&str> {
        self.runtime_fallback.as_deref()
    }

    /// Caps the total number of dispatch steps per run.
    pub fn set_max_steps(&mut self, max: u64) {
        self.max_steps = max;
    }

    /// Selects the action executor (default [`Engine::Bc`]); `shards == 1`
    /// delegation passes the choice to the inner sequential engine.
    pub fn set_engine(&mut self, engine: Engine) {
        if engine != self.engine {
            self.engine = engine;
            self.table = DispatchTable::new(self.domain, &self.program, &self.bc, engine);
        }
    }

    /// Selects how much the trace ring records (default
    /// [`TraceMode::Full`]). [`TraceMode::Off`] must never be used in
    /// differential or golden comparisons.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace.set_mode(mode);
        // A restored mid-run engine already has live shard replicas.
        if let Some(st) = self.engine_state.as_mut() {
            for s in st.shards.iter_mut() {
                s.trace.set_mode(mode);
            }
        }
    }

    /// Number of `(class, state, event)` dispatch slots that resolved to
    /// the frame-interpreter fallback when the table was built for the
    /// bytecode engine (0 under [`Engine::Frames`], where every slot is
    /// a deliberate frames slot, not a fallback).
    pub fn bc_fallback_slots(&self) -> usize {
        self.table.fallback_slots()
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

    /// Creates an instance during setup (before the run).
    ///
    /// # Errors
    ///
    /// Fails if the class is unknown.
    pub fn create(&mut self, class: &str) -> Result<InstId> {
        let id = self.domain.class_id(class)?;
        let inst = self.store.create(self.domain, id);
        self.trace.push_create(0, inst, id);
        Ok(inst)
    }

    /// Relates two instances during setup.
    ///
    /// # Errors
    ///
    /// Propagates store errors (multiplicity, class mismatch, dangling).
    pub fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        let id = self.domain.assoc_id(assoc)?;
        self.store.relate(self.domain, a, b, id)?;
        self.setup_links.push((a, b, id));
        Ok(())
    }

    /// Schedules an external stimulus during setup.
    ///
    /// # Errors
    ///
    /// Fails on unknown events, dead instances or arity mismatches.
    pub fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
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
        self.setup_seq += 1;
        self.stimuli.push(PendingStimulus {
            time,
            seq: self.setup_seq,
            to: inst,
            event: event_id,
            args: Arc::from(args),
        });
        Ok(())
    }

    /// Runs epochs until quiescence, distributing shards over `jobs`
    /// worker threads. Returns the number of dispatch steps taken.
    ///
    /// The result — including the full trace — does not depend on
    /// `jobs`; it depends only on `(policy.seed, policy.shards)`.
    ///
    /// # Errors
    ///
    /// Fails if the model is not shard-safe ([`shard_safety`]), on action
    /// runtime errors (the lowest-id failing shard's error is reported,
    /// deterministically), and on `max_steps` exhaustion.
    pub fn run_to_quiescence(&mut self, jobs: usize) -> Result<u64> {
        if self.engine_state.is_none() && self.policy.shards <= 1 {
            self.runtime_fallback = None;
            return self.run_sequential();
        }
        let steps = self.run_epochs(jobs, u64::MAX)?;
        Ok(steps.expect("an unbounded epoch budget reaches quiescence"))
    }

    /// Runs at most `max_epochs` epochs (clamped to ≥ 1), pausing at the
    /// epoch barrier — the one point where every shard's epoch-local
    /// buffers are drained, so the engine can be captured exactly by
    /// [`ShardedSimulation::snapshot`]. Returns `Some(total_steps)` once
    /// the run reaches quiescence, `None` when it paused with work
    /// remaining; calling again resumes, and the eventual trace is
    /// byte-identical to an uninterrupted
    /// [`ShardedSimulation::run_to_quiescence`] no matter how often the
    /// run pauses. Time jumps to the next timer/stimulus deadline do not
    /// count as epochs — only barriers where shards actually dispatched.
    ///
    /// Two delegation paths run the sequential engine to completion and
    /// return `Some` regardless of `max_epochs`: `policy.shards <= 1`,
    /// and the colocation-precondition fallback
    /// ([`ShardedSimulation::runtime_fallback`]).
    ///
    /// # Errors
    ///
    /// As [`ShardedSimulation::run_to_quiescence`]. An error abandons any
    /// paused engine — a failing shard stopped mid-dispatch, which is not
    /// a barrier — so the next call starts a fresh run.
    pub fn run_epochs(&mut self, jobs: usize, max_epochs: u64) -> Result<Option<u64>> {
        let max_epochs = max_epochs.max(1);
        if self.engine_state.is_none() {
            self.runtime_fallback = None;
            if self.policy.shards <= 1 {
                return self.run_sequential().map(Some);
            }
            shard_safety(self.domain)?;
            let nshards = self.policy.shards;

            // Runtime leg of the colocation admission rule: the static
            // pass admitted access through these associations on the
            // promise that every link keeps both endpoints on one shard.
            // Check the actual setup links at the actual shard count; on
            // violation, delegate to the sequential engine (the trace
            // stays a pure function of `(seed, shards)` — this check
            // depends on nothing else).
            let plan = xtuml_core::effects::analyze(self.domain);
            for &assoc in &plan.coloc_assocs {
                if let Some(&(a, b, _)) = self
                    .setup_links
                    .iter()
                    .find(|&&(a, b, r)| r == assoc && a.index() % nshards != b.index() % nshards)
                {
                    self.runtime_fallback = Some(format!(
                        "association `{}` links {a} and {b} across shards at shards={nshards}; \
                         colocation precondition failed, running sequentially",
                        self.domain.association(assoc).name
                    ));
                    if let Some(r) = self.obs.as_mut() {
                        r.count(Counter::ShardFallbacks, 1);
                    }
                    return self.run_sequential().map(Some);
                }
            }
            if let Some(r) = self.obs.as_mut() {
                r.count(Counter::ShardAdmitted, 1);
            }

            // Telemetry: setup totals, then the run-level span. The
            // sharded setup methods never touch the recorder, so totals
            // recorded here match what a plain `Simulation` counts at
            // its call sites.
            if let Some(r) = self.obs.as_mut() {
                let live = self.store.live_count() as u64;
                r.count(Counter::InstancesCreated, live);
                r.gauge_max(Gauge::LiveInstancesMax, live);
                r.count(Counter::StimuliInjected, self.stimuli.len() as u64);
                r.gauge_max(Gauge::StimulusHeapMax, self.stimuli.len() as u64);
                if r.spans_enabled() {
                    let track = r.track;
                    r.span_begin(track, "sim", "sharded_run");
                }
            }

            // Split the setup population into shard replicas.
            let shards: Vec<ShardState> = (0..nshards)
                .map(|id| ShardState {
                    id,
                    nshards,
                    store: self.store.clone(),
                    mail: Mailboxes::with_len(self.store_len()),
                    // stream_seed even for shard 0: stream_seed(base, 0)
                    // != base, so a sharded run never replays the
                    // unsharded schedule by accident.
                    rng: SplitMix64::new(stream_seed(self.policy.seed, id as u64)),
                    local_seq: 0,
                    trace: Trace::with_mode(self.trace.mode()),
                    outbox: Vec::new(),
                    new_timers: Vec::new(),
                    cancels: Vec::new(),
                    dispatches: 0,
                    dropped: 0,
                    step_budget: self.max_steps,
                    max_steps: self.max_steps,
                    now: self.now,
                    strict: self.policy.strict,
                    self_priority: self.policy.self_priority,
                    frame_buf: Vec::new(),
                    scratch_buf: Vec::new(),
                    payloads: PayloadPool::new(),
                    obs: self.obs.as_ref().map(|r| r.fork_shard(id as u32)),
                    epoch: 0,
                    epoch_busy_ns: 0,
                })
                .collect();

            let mut stimuli = std::mem::take(&mut self.stimuli);
            stimuli.sort_by_key(|s| (s.time, s.seq));
            self.engine_state = Some(EngineState {
                shards,
                stimuli: stimuli.into(),
                timers: Vec::new(),
                total_steps: 0,
                epoch_no: 0,
            });
        }

        let pool = Pool::new(jobs);
        let nshards = self.policy.shards;
        // Taken out for the duration of the call: an error leaves the
        // engine abandoned (see above), success either pauses (putting
        // it back) or finishes (dropping it).
        let mut st = self.engine_state.take().expect("ensured above");
        let mut ran = 0u64;

        loop {
            // 1. Deliver due stimuli and timers into shard queues in
            // (time, kind, seq) order, stimuli before timers at the
            // same instant — setup seqs and shard-derived timer seqs
            // come from different counters, so the kind tag is what
            // keeps the order total and deterministic.
            let now = self.now;
            let mut due: Vec<DueDelivery> = Vec::new();
            while st.stimuli.front().is_some_and(|s| s.time <= now) {
                let s = st.stimuli.pop_front().expect("peeked above");
                due.push((s.time, s.seq, 0, None, s.to, s.event, s.args));
            }
            st.timers.retain(|t| {
                if t.deadline <= now {
                    due.push((
                        t.deadline,
                        t.seq,
                        1,
                        Some(t.from),
                        t.to,
                        t.event,
                        Arc::clone(&t.args),
                    ));
                    false
                } else {
                    true
                }
            });
            due.sort_by_key(|(time, seq, kind, ..)| (*time, *kind, *seq));
            if let Some(r) = self.obs.as_mut() {
                let fired = due.iter().filter(|d| d.2 == 1).count() as u64;
                if fired > 0 {
                    r.count(Counter::TimersFired, fired);
                }
            }
            for (_, seq, _, from, to, event, args) in due {
                let shard = &mut st.shards[to.index() % nshards];
                shard.enqueue(
                    to,
                    Envelope {
                        from,
                        event,
                        args,
                        seq,
                    },
                );
            }

            // 2. If nothing is ready anywhere, jump time or quiesce.
            if st.shards.iter().all(|s| s.mail.ready().is_empty()) {
                let next = st
                    .timers
                    .iter()
                    .map(|t| t.deadline)
                    .chain(st.stimuli.front().map(|s| s.time))
                    .min();
                match next {
                    Some(t) if t > self.now => {
                        self.now = t;
                        continue;
                    }
                    Some(_) => continue,
                    None => break,
                }
            }

            // 3. Run every shard to local quiescence, in parallel. Each
            // shard carries the remaining global dispatch budget so a
            // never-quiescing local cycle errors inside the epoch.
            let remaining = self.max_steps.saturating_sub(st.total_steps);
            st.epoch_no += 1;
            for s in st.shards.iter_mut() {
                s.now = self.now;
                s.step_budget = remaining;
                s.epoch = st.epoch_no;
            }
            let domain = self.domain;
            let program = &self.program;
            let table = &self.table;
            let spans = self.spans.as_ref();
            let epoch_t0 = self.obs.is_some().then(std::time::Instant::now);
            let mut null = NullSink;
            let sink: &mut dyn Sink = match self.obs.as_mut() {
                Some(r) => r.as_mut(),
                None => &mut null,
            };
            let outcomes = pool
                .try_map_mut_obs(sink, "epoch", &mut st.shards, |_, s| {
                    s.run_epoch(domain, program, table, spans)
                })
                .map_err(|e| CoreError::runtime(e.to_string()))?;
            let epoch_wall_ns = epoch_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);

            // 4. Barrier: merge traces in shard order; report the
            // lowest-id shard's error (deterministic across jobs).
            let mut epoch_dispatches = 0u64;
            for s in st.shards.iter_mut() {
                self.trace.append(&mut s.trace);
                self.dropped += s.dropped;
                s.dropped = 0;
                epoch_dispatches = epoch_dispatches.max(s.dispatches);
                st.total_steps += s.dispatches;
                if let Some(r) = self.obs.as_mut() {
                    r.observe(HistKind::EpochDispatches, s.dispatches);
                    r.observe(HistKind::EpochOutbox, s.outbox.len() as u64);
                    let lane = r.metrics.lane_mut(s.id as u32);
                    lane.dispatches += s.dispatches;
                    if s.dispatches > 0 {
                        lane.epochs_active += 1;
                    }
                    if r.stream_epochs {
                        r.metrics.epoch_rows.push(EpochRow {
                            epoch: st.epoch_no,
                            shard: s.id as u32,
                            dispatches: s.dispatches,
                            outbox: s.outbox.len() as u64,
                        });
                    }
                    // Barrier wait: epoch wall time minus this shard's
                    // busy time (wall-clock, segregated from metrics).
                    r.timing.barrier_wait_ns += epoch_wall_ns.saturating_sub(s.epoch_busy_ns);
                    s.epoch_busy_ns = 0;
                }
                s.dispatches = 0;
            }
            if let Some(r) = self.obs.as_mut() {
                r.count(Counter::Epochs, 1);
                r.count(Counter::EpochMaxDispatches, epoch_dispatches);
                r.timing.epochs_timed += 1;
            }
            outcomes.into_iter().collect::<Result<Vec<()>>>()?;
            if st.total_steps > self.max_steps {
                if let Some(r) = self.obs.as_mut() {
                    r.count(Counter::BudgetExhausted, 1);
                }
                return Err(CoreError::runtime(format!(
                    "exceeded max_steps ({}) — livelock?",
                    self.max_steps
                )));
            }

            // 5. Route outboxes: source shards in id order, each
            // source's signals in send order — per-pair FIFO holds
            // because a sender lives in exactly one shard.
            let routed: Vec<OutboxEntry> = st
                .shards
                .iter_mut()
                .flat_map(|s| s.outbox.drain(..))
                .collect();
            if let Some(r) = self.obs.as_mut() {
                r.gauge_max(Gauge::OutboxBurstMax, routed.len() as u64);
            }
            for OutboxEntry { to, env } in routed {
                st.shards[to.index() % nshards].enqueue(to, env);
            }

            // 6. Collect every shard's new timers first, then apply
            // every shard's cancellations. Two passes, not one:
            // `send_delayed` can arm a timer on another shard's
            // instance, so a cancel from a lower-id shard must also see
            // same-epoch timers armed by higher-id shards — interleaving
            // the passes would make the outcome depend on shard ids.
            for s in st.shards.iter_mut() {
                st.timers.append(&mut s.new_timers);
            }
            let mut cancelled = 0u64;
            for s in st.shards.iter_mut() {
                for (inst, event) in s.cancels.drain(..) {
                    let before = st.timers.len();
                    st.timers.retain(|t| !(t.to == inst && t.event == event));
                    cancelled += (before - st.timers.len()) as u64;
                }
            }
            st.timers.sort_by_key(|t| (t.deadline, t.seq));
            if let Some(r) = self.obs.as_mut() {
                if cancelled > 0 {
                    r.count(Counter::TimersCancelled, cancelled);
                }
                r.gauge_max(Gauge::TimerListMax, st.timers.len() as u64);
            }

            // 7. Advance time by the epoch's critical path: the busiest
            // shard's dispatch count (all shards ran concurrently).
            self.now += epoch_dispatches.max(1);

            // Pause at the barrier once the epoch budget is spent. Every
            // shard's epoch-local buffers were drained above, so this is
            // exactly a snapshot point; the next call picks up at step 1.
            ran += 1;
            if ran >= max_epochs {
                self.engine_state = Some(st);
                return Ok(None);
            }
        }
        // Fold per-shard recorders back in shard-id order — the merged
        // snapshot must not depend on worker scheduling — then close the
        // run-level span.
        if let Some(r) = self.obs.as_mut() {
            for s in st.shards.iter_mut() {
                if let Some(child) = s.obs.take() {
                    r.absorb(child);
                }
            }
            if r.spans_enabled() {
                let track = r.track;
                r.span_end(track);
            }
        }
        Ok(Some(st.total_steps))
    }

    /// The `shards == 1` path: replay setup into a classic sequential
    /// [`Simulation`] so single-shard runs reproduce historical traces
    /// byte-for-byte.
    fn run_sequential(&mut self) -> Result<u64> {
        let mut sim = Simulation::with_policy(self.domain, self.policy);
        sim.set_max_steps(self.max_steps);
        sim.set_engine(self.engine);
        // Hand the recorder to the inner simulation *before* replaying
        // setup: the replayed creates/injects then count exactly where a
        // plain instrumented `Simulation` counts them, so the shards==1
        // snapshot is byte-identical to the sequential engine's.
        if let Some(r) = self.obs.take() {
            sim.attach_recorder(*r);
        }
        sim.set_trace_mode(self.trace.mode());
        // Recreate the population in id order from the store (ids are
        // dense and setup never deletes); the store — not the trace — is
        // the source of truth so this works under `TraceMode::Off` too.
        for i in 0..self.store.id_space() {
            let id = InstId::new(i as u32);
            let class = self.store.class_of(id)?;
            let inst = ActionHost::create(&mut sim, class)?;
            debug_assert_eq!(inst, id);
        }
        for &(a, b, assoc) in &self.setup_links {
            ActionHost::relate(&mut sim, a, b, assoc)?;
        }
        let mut stimuli = std::mem::take(&mut self.stimuli);
        stimuli.sort_by_key(|s| (s.time, s.seq));
        for s in &stimuli {
            let class = self.store.class_of(s.to)?;
            let name = &self.domain.class(class).events[s.event.index()].name;
            sim.inject(s.time, s.to, name, s.args.to_vec())?;
        }
        let run = sim.run_to_quiescence();
        if let Some(r) = sim.take_recorder() {
            self.obs = Some(Box::new(r));
        }
        let steps = run?;
        self.dropped += sim.dropped_events();
        self.now = sim.now();
        self.trace = sim.trace().clone();
        Ok(steps)
    }

    fn store_len(&self) -> usize {
        // Instance ids are dense; live_count equals the id space here
        // because setup never deletes.
        self.store.live_count()
    }

    // -- snapshot / restore -------------------------------------------------

    /// Serializes the full engine state (DESIGN §15, kind 2).
    ///
    /// Valid before a run, after quiescence, and at any epoch barrier —
    /// i.e. whenever the caller can observe the simulation at all, since
    /// [`ShardedSimulation::run_epochs`] only ever pauses at barriers.
    /// Captures the setup population and pending stimuli, the trace so
    /// far, and (mid-run) every shard replica: store, queues, PRNG
    /// stream state, send counter, and deterministic metrics.
    /// [`ShardedSimulation::restore`] continues byte-identically to an
    /// uninterrupted run. Wall-clock telemetry (spans, `Timing`) and
    /// allocation caches are not captured, by design.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = snapshot::Writer::with_header(snapshot::KIND_SHARDED, self.domain);
        w.u64(self.policy.seed);
        w.bool(self.policy.self_priority);
        w.bool(self.policy.pair_order);
        w.bool(self.policy.strict);
        w.u32(self.policy.shards as u32);
        w.u8(match self.engine {
            Engine::Frames => 0,
            Engine::Bc => 1,
        });
        w.u64(self.max_steps);
        w.u64(self.now);
        w.u64(self.dropped);
        w.u64(self.setup_seq);
        self.store.snap_write(&mut w);
        w.len(self.setup_links.len());
        for &(a, b, assoc) in &self.setup_links {
            w.u32(u32::from(a));
            w.u32(u32::from(b));
            w.u32(u32::from(assoc));
        }
        w.len(self.stimuli.len());
        for s in &self.stimuli {
            snap_write_stim(&mut w, s);
        }
        w.len(self.trace.len());
        for e in self.trace.iter() {
            snapshot::write_trace_event(&mut w, &e);
        }
        match self.runtime_fallback.as_deref() {
            Some(why) => {
                w.bool(true);
                w.str(why);
            }
            None => w.bool(false),
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
        match self.engine_state.as_ref() {
            Some(st) => {
                w.bool(true);
                w.u64(st.total_steps);
                w.u64(st.epoch_no);
                w.len(st.stimuli.len());
                for s in &st.stimuli {
                    snap_write_stim(&mut w, s);
                }
                w.len(st.timers.len());
                for t in &st.timers {
                    w.u64(t.deadline);
                    w.u64(t.seq);
                    w.u32(u32::from(t.from));
                    w.u32(u32::from(t.to));
                    w.u32(u32::from(t.event));
                    snapshot::write_values(&mut w, &t.args);
                }
                w.len(st.shards.len());
                for s in &st.shards {
                    // Barrier invariant: epoch-local buffers are drained.
                    debug_assert!(s.trace.is_empty() && s.outbox.is_empty());
                    debug_assert!(s.new_timers.is_empty() && s.cancels.is_empty());
                    s.store.snap_write(&mut w);
                    snap_write_mail(&mut w, &s.mail);
                    w.u64(s.rng.state());
                    w.u64(s.local_seq);
                    match s.obs.as_ref() {
                        Some(rec) => {
                            w.bool(true);
                            snapshot::write_metrics(&mut w, &rec.metrics.to_raw());
                        }
                        None => w.bool(false),
                    }
                }
            }
            None => w.bool(false),
        }
        w.finish()
    }

    /// Rebuilds a sharded simulation from a
    /// [`ShardedSimulation::snapshot`] against the same domain.
    ///
    /// A mid-run snapshot resumes at the captured epoch barrier and the
    /// completed run's trace is byte-identical to an uninterrupted one.
    /// An attached recorder comes back with its deterministic metrics
    /// only (no span buffer, zeroed wall-clock timing).
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] — never panics — on truncated
    /// or corrupt input, version or kind mismatch, or a snapshot taken
    /// against a different domain.
    pub fn restore(domain: &'d Domain, bytes: &[u8]) -> SnapResult<ShardedSimulation<'d>> {
        let (mut r, kind) = snapshot::Reader::open(bytes, domain)?;
        if kind != snapshot::KIND_SHARDED {
            return Err(SnapError::Corrupt(format!(
                "expected a sharded-engine snapshot, got kind {kind}"
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
        let mut sim = ShardedSimulation::with_policy(domain, policy);
        sim.set_engine(engine); // rebuilds the dispatch table if != default
        sim.max_steps = r.u64()?;
        sim.now = r.u64()?;
        sim.dropped = r.u64()?;
        sim.setup_seq = r.u64()?;
        sim.store = ObjectStore::snap_read(&mut r)?;
        let nl = r.len(12)?;
        sim.setup_links.reserve(nl);
        for _ in 0..nl {
            sim.setup_links.push((
                InstId::new(r.u32()?),
                InstId::new(r.u32()?),
                AssocId::new(r.u32()?),
            ));
        }
        let ns = r.len(28)?;
        sim.stimuli.reserve(ns);
        for _ in 0..ns {
            sim.stimuli.push(snap_read_stim(&mut r)?);
        }
        let ne = r.len(13)?;
        sim.trace.reserve(ne);
        for _ in 0..ne {
            sim.trace.push(snapshot::read_trace_event(&mut r)?);
        }
        if r.bool()? {
            sim.runtime_fallback = Some(r.str()?);
        }
        if r.bool()? {
            let mut rec = Recorder::new();
            rec.track = r.u32()?;
            rec.stream_epochs = r.bool()?;
            rec.metrics = Metrics::from_raw(snapshot::read_metrics(&mut r)?);
            sim.obs = Some(Box::new(rec));
        }
        if r.bool()? {
            let total_steps = r.u64()?;
            let epoch_no = r.u64()?;
            let ns = r.len(28)?;
            let mut stimuli = VecDeque::with_capacity(ns);
            for _ in 0..ns {
                stimuli.push_back(snap_read_stim(&mut r)?);
            }
            let nt = r.len(32)?;
            let mut timers = Vec::with_capacity(nt);
            for _ in 0..nt {
                timers.push(PendingTimer {
                    deadline: r.u64()?,
                    seq: r.u64()?,
                    from: InstId::new(r.u32()?),
                    to: InstId::new(r.u32()?),
                    event: EventId::new(r.u32()?),
                    args: snapshot::read_values(&mut r)?,
                });
            }
            let nshards = r.len(29)?;
            if nshards != sim.policy.shards {
                return Err(SnapError::Corrupt(format!(
                    "{nshards} shard replicas for a policy of {} shards",
                    sim.policy.shards
                )));
            }
            let mut shards = Vec::with_capacity(nshards);
            for id in 0..nshards {
                let store = ObjectStore::snap_read(&mut r)?;
                let nq = r.len(8)?;
                if nq != store.id_space() {
                    return Err(SnapError::Corrupt(format!(
                        "shard {id}: {nq} instance queues for an id space of {}",
                        store.id_space()
                    )));
                }
                let mail = snap_read_mail(&mut r, nq)?;
                let rng = SplitMix64::from_state(r.u64()?);
                let local_seq = r.u64()?;
                let obs = if r.bool()? {
                    let raw = snapshot::read_metrics(&mut r)?;
                    let mut child = match sim.obs.as_deref() {
                        Some(root) => root.fork_shard(id as u32),
                        None => {
                            let mut c = Recorder::new();
                            c.track = id as u32 + 1;
                            c
                        }
                    };
                    child.metrics = Metrics::from_raw(raw);
                    Some(child)
                } else {
                    None
                };
                shards.push(ShardState {
                    id,
                    nshards,
                    store,
                    mail,
                    rng,
                    local_seq,
                    trace: Trace::new(),
                    outbox: Vec::new(),
                    new_timers: Vec::new(),
                    cancels: Vec::new(),
                    dispatches: 0,
                    dropped: 0,
                    step_budget: sim.max_steps,
                    max_steps: sim.max_steps,
                    now: sim.now,
                    strict: sim.policy.strict,
                    self_priority: sim.policy.self_priority,
                    frame_buf: Vec::new(),
                    scratch_buf: Vec::new(),
                    payloads: PayloadPool::new(),
                    obs,
                    epoch: epoch_no,
                    epoch_busy_ns: 0,
                });
            }
            sim.engine_state = Some(EngineState {
                shards,
                stimuli,
                timers,
                total_steps,
                epoch_no,
            });
        }
        r.expect_end()?;
        Ok(sim)
    }
}

fn snap_write_stim(w: &mut snapshot::Writer, s: &PendingStimulus) {
    w.u64(s.time);
    w.u64(s.seq);
    w.u32(u32::from(s.to));
    w.u32(u32::from(s.event));
    snapshot::write_values(w, &s.args);
}

fn snap_read_stim(r: &mut snapshot::Reader<'_>) -> SnapResult<PendingStimulus> {
    Ok(PendingStimulus {
        time: r.u64()?,
        seq: r.u64()?,
        to: InstId::new(r.u32()?),
        event: EventId::new(r.u32()?),
        args: snapshot::read_values(r)?,
    })
}
