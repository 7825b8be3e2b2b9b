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
//! whether the shards run on one thread or eight. Setup is held in one
//! classic sequential [`Simulation`]; `shards == 1` runs it in place, so
//! the historical single-seed traces are preserved exactly and the model
//! is compiled once.
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
//! runs the setup [`Simulation`] sequentially when it fails (see
//! [`ShardedSimulation::runtime_fallback`]), keeping the trace a pure
//! function of `(seed, shards)`. Structure mutation
//! (`delete`/`relate`/`unrelate`) and irreconcilable non-self access
//! still reject — the latter as diagnostic `X0017 cross-shard-race`.

use crate::dispatch::{self, Core, Envelope, Program, Route, Stimulus, Timer};
use crate::mailbox::Mailboxes;
use crate::sched::{SchedPolicy, SplitMix64};
use crate::sim::{BridgeFn, Simulation};
use crate::snapshot::{self, SnapError, SnapResult};
use crate::store::ObjectStore;
use crate::trace::{Trace, TraceMode};
use std::collections::VecDeque;
use std::sync::Arc;
use xtuml_core::error::{CoreError, Result};
use xtuml_core::ids::{ActorId, AssocId, ClassId, EventId, InstId};
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

/// A shard's side of the routing seam: sends to other shards and every
/// timer and cancellation wait in epoch-local buffers for the barrier,
/// created ids are congruent to the shard id, the population's structure
/// is fixed, writes are confined to owned instances, and bridge calls
/// return their defaults (handler closures cannot cross threads).
struct ShardRoute {
    id: usize,
    nshards: usize,
    /// Per-shard send counter; globalised as `local*nshards + id` so
    /// sequence numbers stay strictly increasing per sending shard
    /// without cross-shard coordination.
    local_seq: u64,
    /// Epoch-local buffers, drained at each barrier:
    outbox: Vec<OutboxEntry>,
    new_timers: Vec<Timer>,
    /// `(instance, event)` pairs cancelled this epoch, applied to the
    /// coordinator's timer list at the barrier.
    cancels: Vec<(InstId, EventId)>,
}

impl Route for ShardRoute {
    const MUTABLE: bool = false;

    fn owns(&self, inst: InstId) -> bool {
        inst.index() % self.nshards == self.id
    }

    fn alloc(&self, store: &mut ObjectStore, domain: &Domain, class: ClassId) -> InstId {
        // Creation reaches a sharded dispatch only when the effect
        // analysis proved the class creation-confined (nothing selects
        // over it), so the instance stays private to this shard. Ids are
        // allocated congruent to the shard id so `owns()` holds for
        // every subsequent access and send; other shards' replicas never
        // learn the id, and a leaked id would hit a tombstone there —
        // a deterministic error, not a race.
        let len = store.id_space();
        let rem = len % self.nshards;
        let want = if rem <= self.id {
            len + (self.id - rem)
        } else {
            len + self.nshards - rem + self.id
        };
        store.create_with_id(domain, class, InstId::new(want as u32))
    }

    fn next_seq(&mut self) -> u64 {
        self.local_seq += 1;
        self.local_seq * self.nshards as u64 + self.id as u64
    }

    fn post(&mut self, core: &mut Core, to: InstId, env: Envelope) {
        let local = self.owns(to);
        if let Some(r) = core.obs.as_mut() {
            r.count(
                if local {
                    Counter::LocalShardSignals
                } else {
                    Counter::CrossShardSignals
                },
                1,
            );
            let lane = r.metrics.lane_mut(self.id as u32);
            lane.sent += 1;
            if !local {
                lane.cross_shard += 1;
            }
        }
        if local {
            core.enqueue(to, env);
        } else {
            self.outbox.push(OutboxEntry { to, env });
        }
    }

    fn arm(&mut self, _core: &mut Core, timer: Timer) {
        self.new_timers.push(timer);
    }

    fn cancel(&mut self, core: &mut Core, inst: InstId, event: EventId) {
        // Timers armed this epoch are still local; older ones live in
        // the coordinator and are removed at the barrier.
        let before = self.new_timers.len();
        self.new_timers
            .retain(|t| !(t.to == inst && t.event == event));
        let removed = (before - self.new_timers.len()) as u64;
        if removed > 0 {
            core.count(Counter::TimersCancelled, removed);
        }
        self.cancels.push((inst, event));
    }

    fn forget(&mut self, _inst: InstId) {
        // Unreachable: deletion is rejected (`MUTABLE` is false).
    }

    fn bridge(&mut self, _actor: ActorId) -> Option<&mut BridgeFn> {
        None
    }
}

/// The live epoch engine between barriers: shard replicas plus the
/// coordinator's undelivered work. Held only while a run is paused at an
/// epoch barrier ([`ShardedSimulation::run_epochs`] returned `None`) —
/// exactly the points where every shard's epoch-local buffers are
/// drained, which is what makes the pause a valid snapshot point.
struct EngineState {
    shards: Vec<ShardState>,
    /// Not-yet-due external stimuli, sorted by `(time, seq)`.
    stimuli: VecDeque<Stimulus>,
    /// Armed timers, sorted by `(deadline, seq)` at every barrier.
    timers: Vec<Timer>,
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
///
/// The core's store is a replica of the setup-time population. Admitted
/// actions only write shard-owned instances and only read slots whose
/// values match the owner's (never-written attributes, colocated links,
/// or instances this shard created), so replicas only diverge in slots
/// no other shard reads. Creation appends shard-congruent ids, so replica
/// id spaces may diverge in length — created ids never escape their
/// shard. The mailboxes' ready list holds local instances only. The
/// core's trace is epoch-local, cleared at each barrier; its recorder is
/// forked from the coordinator's ([`Recorder::fork_shard`]) and absorbed
/// back in shard-id order at the end of the run so merged snapshots
/// never depend on `--jobs`.
struct ShardState {
    core: Core,
    route: ShardRoute,
    dispatches: u64,
    /// Remaining global dispatch budget at the top of the epoch. A local
    /// cycle (e.g. an action that unconditionally signals itself) never
    /// quiesces, so the epoch itself must enforce `max_steps` — the
    /// post-barrier total check would never be reached.
    step_budget: u64,
    /// The run's configured cap, for the error message.
    max_steps: u64,
    /// Epoch ordinal, set by the coordinator before each parallel
    /// section (for span names; 1-based).
    epoch: u64,
    /// Wall-clock nanoseconds this shard spent busy in the last epoch —
    /// the coordinator subtracts it from the epoch wall time to estimate
    /// barrier wait. Only measured while a recorder is attached.
    epoch_busy_ns: u64,
}

impl ShardState {
    /// Runs this shard's run-to-completion steps until no local instance
    /// is ready. Called between barriers, possibly on a worker thread.
    ///
    /// Bounded by `step_budget` (the global budget remaining when the
    /// epoch started): each shard checks against the full remaining
    /// budget independently, so whether a shard errors is a pure
    /// function of its own inputs — deterministic across worker counts —
    /// and a shard-local livelock fails like the sequential engine does
    /// instead of hanging the run.
    fn run_epoch(&mut self, prog: &Program<'_>) -> Result<()> {
        let timed = self.core.obs.is_some().then(std::time::Instant::now);
        if let Some(r) = self.core.obs.as_mut() {
            if r.spans_enabled() {
                let track = r.track;
                r.span_begin(track, "shard", &format!("epoch {}", self.epoch));
            }
        }
        let out = self.run_epoch_inner(prog);
        if let Some(r) = self.core.obs.as_mut() {
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

    fn run_epoch_inner(&mut self, prog: &Program<'_>) -> Result<()> {
        while !self.core.mail.ready().is_empty() {
            if self.dispatches >= self.step_budget {
                self.core.count(Counter::BudgetExhausted, 1);
                return Err(dispatch::livelock(self.max_steps));
            }
            let pick = self.core.pick();
            // Same-instance batch (superloop): nothing is delivered
            // mid-epoch and shards never delete, so while `pick` stays
            // the only ready instance the next draw must re-select it —
            // drain its queues in a tight loop, consuming one PRNG draw
            // per signal to keep the stream identical.
            loop {
                let env = self
                    .core
                    .mail
                    .pop(pick)
                    .expect("ready instance has a signal");
                self.core.dispatch(prog, &mut self.route, pick, env)?;
                self.dispatches += 1;
                if self.core.mail.ready() != [pick] || self.dispatches >= self.step_budget {
                    break;
                }
                self.core.rng.below(1); // the draw a re-pick would consume
            }
        }
        Ok(())
    }
}

/// The sharded counterpart of [`Simulation`]: same setup API (`create`,
/// `relate`, `inject`), then [`ShardedSimulation::run_to_quiescence`]
/// executes epochs with a caller-supplied worker count.
///
/// Setup lives in one [`Simulation`], so both schedulers share one
/// compiled program, one store, one trace and one stimulus list.
/// A `ShardedSimulation` runs once: setup closes when the run starts,
/// and a call after the run finished returns at once (DESIGN §15).
///
/// With `policy.shards <= 1` the run executes that setup `Simulation` in
/// place, so its trace is the sequential engine's exactly. With more
/// shards the trace is a pure function of `(seed, shards)` — see the
/// module docs for the guarantee and [`shard_safety`] for the model
/// classes this engine accepts.
pub struct ShardedSimulation<'d> {
    /// The setup state, and the whole engine when the run is sequential.
    /// A sharded run clones its store into the replicas, takes its
    /// pending stimuli, merges every epoch's trace into its trace and
    /// advances its time.
    sim: Simulation<'d>,
    /// Setup-time relate calls, in call order (for the runtime
    /// colocation check).
    setup_links: Vec<(InstId, InstId, AssocId)>,
    /// Attached telemetry recorder; `None` (the default) costs one
    /// predictable branch per instrumented site. Held here, not in the
    /// setup `Simulation`, so setup is counted once, at run start. Shard
    /// workers record into per-shard forks absorbed back in shard-id
    /// order, so the merged snapshot is a pure function of
    /// `(seed, shards)`.
    obs: Option<Box<Recorder>>,
    /// Why the last run delegated to the sequential engine at runtime
    /// despite static admission (a colocation precondition failed for
    /// the actual setup links and shard count); `None` otherwise.
    runtime_fallback: Option<String>,
    /// The paused epoch engine, `Some` only between a `run_epochs` pause
    /// and its resumption (always at an epoch barrier).
    engine_state: Option<EngineState>,
}

impl std::fmt::Debug for ShardedSimulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulation")
            .field("domain", &self.sim.prog.domain.name)
            .field("policy", &self.sim.policy)
            .field("live", &self.sim.core.store.live_count())
            .finish_non_exhaustive()
    }
}

impl<'d> ShardedSimulation<'d> {
    /// Creates a sharded simulation with an explicit policy.
    pub fn with_policy(domain: &'d Domain, policy: SchedPolicy) -> ShardedSimulation<'d> {
        ShardedSimulation {
            sim: Simulation::with_policy(domain, policy.with_shards(policy.shards)),
            setup_links: Vec::new(),
            obs: None,
            runtime_fallback: None,
            engine_state: None,
        }
    }

    /// Attaches a telemetry recorder. Setup already performed still
    /// counts: the run snapshots population/stimulus totals at start.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        self.sim.prog.attach(&mut self.obs, rec);
    }

    /// Detaches and returns the recorder (with everything absorbed),
    /// if one was attached.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.obs.take().map(|b| *b)
    }

    /// The domain being executed.
    pub fn domain(&self) -> &'d Domain {
        self.sim.domain()
    }

    /// The execution trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        self.sim.trace()
    }

    /// Current simulation time (ticks; epochs advance by their critical
    /// path in sharded runs).
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    /// Number of events dropped in non-strict mode.
    pub fn dropped_events(&self) -> u64 {
        self.sim.dropped_events()
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
        self.sim.set_max_steps(max);
    }

    /// Selects how much the trace ring records (default
    /// [`TraceMode::Full`]). [`TraceMode::Off`] must never be used in
    /// differential or golden comparisons.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.sim.set_trace_mode(mode);
        // A restored mid-run engine already has live shard replicas.
        if let Some(st) = self.engine_state.as_mut() {
            for s in st.shards.iter_mut() {
                s.core.trace.set_mode(mode);
            }
        }
    }

    /// Whether the run has started: it is paused at a barrier, or some
    /// injected stimulus has left the setup `Simulation` (taken by the
    /// sharded run, or delivered by the sequential one). Derived only
    /// from state the snapshot carries, so a restored simulation agrees
    /// with the original.
    fn started(&self) -> bool {
        self.engine_state.is_some() || self.sim.stimuli.len() as u64 != self.sim.route.send_seq
    }

    /// Fails once the run has started: setup made then would never reach
    /// the engine.
    fn setup_open(&self, what: &str) -> Result<()> {
        if self.started() {
            return Err(CoreError::runtime(format!(
                "cannot {what} after the run has started (a sharded simulation runs once)"
            )));
        }
        Ok(())
    }

    /// Creates an instance during setup (before the run).
    ///
    /// # Errors
    ///
    /// Fails if the class is unknown or the run has started.
    pub fn create(&mut self, class: &str) -> Result<InstId> {
        self.setup_open("create an instance")?;
        self.sim.create(class)
    }

    /// Relates two instances during setup.
    ///
    /// # Errors
    ///
    /// Propagates store errors (multiplicity, class mismatch, dangling);
    /// fails if the run has started.
    pub fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        self.setup_open("relate instances")?;
        self.sim.relate(a, b, assoc)?;
        let id = self.sim.prog.domain.assoc_id(assoc)?;
        self.setup_links.push((a, b, id));
        Ok(())
    }

    /// Schedules an external stimulus during setup.
    ///
    /// # Errors
    ///
    /// Fails on unknown events, dead instances, arity mismatches or past
    /// times, and once the run has started.
    pub fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
        if let Err(closed) = self.setup_open("inject a stimulus") {
            // A bad stimulus (a past time, above all) fails as it would
            // on the sequential engine before the closed setup does.
            let s = &self.sim;
            dispatch::resolve_stimulus(
                s.prog.domain,
                &s.core.store,
                s.core.now,
                time,
                inst,
                event,
                args.len(),
            )?;
            return Err(closed);
        }
        self.sim.inject(time, inst, event, args)
    }

    /// Runs epochs until quiescence, distributing shards over `jobs`
    /// worker threads. Returns the number of dispatch steps taken; 0
    /// once the run has finished.
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
    /// A call after the run finished returns `Some(0)` and changes
    /// nothing.
    ///
    /// Two paths run the setup [`Simulation`] in place, to completion,
    /// and return `Some` regardless of `max_epochs`: `policy.shards <= 1`,
    /// and the colocation-precondition fallback
    /// ([`ShardedSimulation::runtime_fallback`]).
    ///
    /// # Errors
    ///
    /// As [`ShardedSimulation::run_to_quiescence`]. An error ends the
    /// run: a failing shard stopped mid-dispatch, which is not a
    /// barrier, so the paused engine is dropped.
    pub fn run_epochs(&mut self, jobs: usize, max_epochs: u64) -> Result<Option<u64>> {
        let max_epochs = max_epochs.max(1);
        let nshards = self.sim.policy.shards;
        if self.engine_state.is_none() {
            if self.started() {
                return Ok(Some(0));
            }
            self.runtime_fallback = None;
            if nshards > 1 {
                shard_safety(self.sim.prog.domain)?;
                self.runtime_fallback = self.colocation_violation();
            }
            let sequential = nshards <= 1 || self.runtime_fallback.is_some();

            // Telemetry: admission and setup totals. The setup methods
            // never touch the recorder, so totals recorded here match
            // what a plain `Simulation` counts at its call sites (setup
            // creates and never deletes).
            if let Some(r) = self.obs.as_mut() {
                if self.runtime_fallback.is_some() {
                    r.count(Counter::ShardFallbacks, 1);
                } else if !sequential {
                    r.count(Counter::ShardAdmitted, 1);
                }
                let live = self.sim.core.store.live_count() as u64;
                r.count(Counter::InstancesCreated, live);
                r.gauge_max(Gauge::LiveInstancesMax, live);
                let pending = self.sim.stimuli.len() as u64;
                r.count(Counter::StimuliInjected, pending);
                r.gauge_max(Gauge::StimulusHeapMax, pending);
            }

            if sequential {
                // Run the setup simulation in place, recording into the
                // attached recorder.
                self.sim.core.obs = self.obs.take();
                let run = self.sim.run_to_quiescence();
                self.obs = self.sim.core.obs.take();
                return run.map(Some);
            }

            if let Some(r) = self.obs.as_mut() {
                if r.spans_enabled() {
                    let track = r.track;
                    r.span_begin(track, "sim", "sharded_run");
                }
            }

            // Split the setup population into shard replicas.
            let shards: Vec<ShardState> = (0..nshards)
                .map(|id| {
                    // stream_seed even for shard 0: stream_seed(base, 0)
                    // != base, so a sharded run never replays the
                    // unsharded schedule by accident.
                    let rng = SplitMix64::new(stream_seed(self.sim.policy.seed, id as u64));
                    // Instance ids are dense: setup never deletes.
                    let mail = Mailboxes::with_len(self.sim.core.store.id_space());
                    let obs = self.obs.as_ref().map(|r| Box::new(r.fork_shard(id as u32)));
                    self.replica(id, self.sim.core.store.clone(), mail, rng, 0, obs)
                })
                .collect();

            self.sim.sort_stimuli();
            self.engine_state = Some(EngineState {
                shards,
                stimuli: std::mem::take(&mut self.sim.stimuli),
                timers: Vec::new(),
                total_steps: 0,
                epoch_no: 0,
            });
        }

        let pool = Pool::new(jobs);
        let max_steps = self.sim.max_steps;
        // Taken out for the duration of the call: an error drops the
        // engine (see above), success either pauses (putting it back) or
        // finishes (dropping it).
        let mut st = self.engine_state.take().expect("ensured above");
        let mut ran = 0u64;

        loop {
            // 1. Deliver due stimuli and timers into shard queues in
            // (time, kind, seq) order, stimuli before timers at the
            // same instant — setup seqs and shard-derived timer seqs
            // come from different counters, so the kind tag is what
            // keeps the order total and deterministic.
            let now = self.sim.core.now;
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
                st.shards[to.index() % nshards].core.enqueue(
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
            if st.shards.iter().all(|s| s.core.mail.ready().is_empty()) {
                let next = st
                    .timers
                    .iter()
                    .map(|t| t.deadline)
                    .chain(st.stimuli.front().map(|s| s.time))
                    .min();
                match next {
                    Some(t) if t > now => {
                        self.sim.core.now = t;
                        continue;
                    }
                    Some(_) => continue,
                    None => break,
                }
            }

            // 3. Run every shard to local quiescence, in parallel. Each
            // shard carries the remaining global dispatch budget so a
            // never-quiescing local cycle errors inside the epoch.
            let remaining = max_steps.saturating_sub(st.total_steps);
            st.epoch_no += 1;
            for s in st.shards.iter_mut() {
                s.core.now = now;
                s.step_budget = remaining;
                s.epoch = st.epoch_no;
            }
            let prog = &self.sim.prog;
            let epoch_t0 = self.obs.is_some().then(std::time::Instant::now);
            let mut null = NullSink;
            let sink: &mut dyn Sink = match self.obs.as_mut() {
                Some(r) => r.as_mut(),
                None => &mut null,
            };
            let outcomes = pool
                .try_map_mut_obs(sink, "epoch", &mut st.shards, |_, s| s.run_epoch(prog))
                .map_err(|e| CoreError::runtime(e.to_string()))?;
            let epoch_wall_ns = epoch_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);

            // 4. Barrier: merge traces in shard order; report the
            // lowest-id shard's error (deterministic across jobs).
            let mut epoch_dispatches = 0u64;
            for s in st.shards.iter_mut() {
                self.sim.core.trace.append(&mut s.core.trace);
                self.sim.core.dropped += s.core.dropped;
                s.core.dropped = 0;
                epoch_dispatches = epoch_dispatches.max(s.dispatches);
                st.total_steps += s.dispatches;
                if let Some(r) = self.obs.as_mut() {
                    r.observe(HistKind::EpochDispatches, s.dispatches);
                    r.observe(HistKind::EpochOutbox, s.route.outbox.len() as u64);
                    let lane = r.metrics.lane_mut(s.route.id as u32);
                    lane.dispatches += s.dispatches;
                    if s.dispatches > 0 {
                        lane.epochs_active += 1;
                    }
                    if r.stream_epochs {
                        r.metrics.epoch_rows.push(EpochRow {
                            epoch: st.epoch_no,
                            shard: s.route.id as u32,
                            dispatches: s.dispatches,
                            outbox: s.route.outbox.len() as u64,
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
            if st.total_steps > max_steps {
                if let Some(r) = self.obs.as_mut() {
                    r.count(Counter::BudgetExhausted, 1);
                }
                return Err(dispatch::livelock(max_steps));
            }

            // 5. Route outboxes: source shards in id order, each
            // source's signals in send order — per-pair FIFO holds
            // because a sender lives in exactly one shard.
            let routed: Vec<OutboxEntry> = st
                .shards
                .iter_mut()
                .flat_map(|s| s.route.outbox.drain(..))
                .collect();
            if let Some(r) = self.obs.as_mut() {
                r.gauge_max(Gauge::OutboxBurstMax, routed.len() as u64);
            }
            for OutboxEntry { to, env } in routed {
                st.shards[to.index() % nshards].core.enqueue(to, env);
            }

            // 6. Collect every shard's new timers first, then apply
            // every shard's cancellations. Two passes, not one:
            // `send_delayed` can arm a timer on another shard's
            // instance, so a cancel from a lower-id shard must also see
            // same-epoch timers armed by higher-id shards — interleaving
            // the passes would make the outcome depend on shard ids.
            for s in st.shards.iter_mut() {
                st.timers.append(&mut s.route.new_timers);
            }
            let mut cancelled = 0u64;
            for s in st.shards.iter_mut() {
                for (inst, event) in s.route.cancels.drain(..) {
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
            self.sim.core.now += epoch_dispatches.max(1);

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
                if let Some(child) = s.core.obs.take() {
                    r.absorb(*child);
                }
            }
            if r.spans_enabled() {
                let track = r.track;
                r.span_end(track);
            }
        }
        Ok(Some(st.total_steps))
    }

    /// Runtime leg of the colocation admission rule: the static pass
    /// admitted access through these associations on the promise that
    /// every link keeps both endpoints on one shard. Checks the actual
    /// setup links at the actual shard count and says why the run must
    /// be sequential on violation — a pure function of the setup and
    /// `shards`, so the trace stays one of `(seed, shards)`.
    fn colocation_violation(&self) -> Option<String> {
        let domain = self.sim.prog.domain;
        let nshards = self.sim.policy.shards;
        let plan = xtuml_core::effects::analyze(domain);
        plan.coloc_assocs.iter().find_map(|&assoc| {
            let &(a, b, _) = self
                .setup_links
                .iter()
                .find(|&&(a, b, r)| r == assoc && a.index() % nshards != b.index() % nshards)?;
            Some(format!(
                "association `{}` links {a} and {b} across shards at shards={nshards}; \
                 colocation precondition failed, running sequentially",
                domain.association(assoc).name
            ))
        })
    }

    /// One shard replica over `store` and `mail` — the single place a
    /// [`ShardState`] is built, at run start and on restore.
    fn replica(
        &self,
        id: usize,
        store: ObjectStore,
        mail: Mailboxes<Envelope>,
        rng: SplitMix64,
        local_seq: u64,
        obs: Option<Box<Recorder>>,
    ) -> ShardState {
        let mut core = Core::new(
            &self.sim.policy,
            store,
            mail,
            rng,
            Trace::with_mode(self.sim.core.trace.mode()),
        );
        core.now = self.sim.core.now;
        core.obs = obs;
        ShardState {
            core,
            route: ShardRoute {
                id,
                nshards: self.sim.policy.shards,
                local_seq,
                outbox: Vec::new(),
                new_timers: Vec::new(),
                cancels: Vec::new(),
            },
            dispatches: 0,
            step_budget: self.sim.max_steps,
            max_steps: self.sim.max_steps,
            epoch: 0,
            epoch_busy_ns: 0,
        }
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
        let sim = &self.sim;
        let mut w = dispatch::snap_begin(snapshot::KIND_SHARDED, &sim.prog, &sim.policy);
        w.u64(sim.max_steps);
        w.u64(sim.core.now);
        w.u64(sim.core.dropped);
        w.u64(sim.route.send_seq);
        sim.core.store.snap_write(&mut w);
        w.len(self.setup_links.len());
        for &(a, b, assoc) in &self.setup_links {
            w.u32(u32::from(a));
            w.u32(u32::from(b));
            w.u32(u32::from(assoc));
        }
        // Pending setup stimuli in seq order, which is injection order.
        let mut stimuli: Vec<&Stimulus> = sim.stimuli.iter().collect();
        stimuli.sort_by_key(|s| s.seq);
        dispatch::snap_write_stimuli(&mut w, stimuli.into_iter());
        dispatch::snap_write_trace(&mut w, &sim.core.trace);
        match self.runtime_fallback.as_deref() {
            Some(why) => {
                w.bool(true);
                w.str(why);
            }
            None => w.bool(false),
        }
        dispatch::snap_write_recorder(&mut w, self.obs.as_deref());
        match self.engine_state.as_ref() {
            Some(st) => {
                w.bool(true);
                w.u64(st.total_steps);
                w.u64(st.epoch_no);
                dispatch::snap_write_stimuli(&mut w, st.stimuli.iter());
                dispatch::snap_write_timers(&mut w, &st.timers);
                w.len(st.shards.len());
                for s in &st.shards {
                    // Barrier invariant: epoch-local buffers are drained.
                    debug_assert!(s.core.trace.is_empty() && s.route.outbox.is_empty());
                    debug_assert!(s.route.new_timers.is_empty() && s.route.cancels.is_empty());
                    s.core.store.snap_write(&mut w);
                    dispatch::snap_write_mail(&mut w, &s.core.mail);
                    w.u64(s.core.rng.state());
                    w.u64(s.route.local_seq);
                    match s.core.obs.as_ref() {
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
        let (mut r, policy) =
            dispatch::snap_open(bytes, domain, snapshot::KIND_SHARDED, "sharded-engine")?;
        let mut out = ShardedSimulation::with_policy(domain, policy);
        let sim = &mut out.sim;
        sim.max_steps = r.u64()?;
        sim.core.now = r.u64()?;
        sim.core.dropped = r.u64()?;
        sim.route.send_seq = r.u64()?;
        sim.core.store = ObjectStore::snap_read(&mut r)?;
        sim.core.mail = Mailboxes::with_len(sim.core.store.id_space());
        let nl = r.len(12)?;
        out.setup_links.reserve(nl);
        for _ in 0..nl {
            out.setup_links.push((
                InstId::new(r.u32()?),
                InstId::new(r.u32()?),
                AssocId::new(r.u32()?),
            ));
        }
        for s in dispatch::snap_read_stimuli(&mut r)? {
            sim.stim_insert(s);
        }
        dispatch::snap_read_trace(&mut r, &mut sim.core.trace)?;
        if r.bool()? {
            out.runtime_fallback = Some(r.str()?);
        }
        out.obs = dispatch::snap_read_recorder(&mut r)?;
        if r.bool()? {
            let total_steps = r.u64()?;
            let epoch_no = r.u64()?;
            let stimuli = dispatch::snap_read_stimuli(&mut r)?.into();
            let timers = dispatch::snap_read_timers(&mut r)?;
            let nshards = r.len(29)?;
            if nshards != out.sim.policy.shards {
                return Err(SnapError::Corrupt(format!(
                    "{nshards} shard replicas for a policy of {} shards",
                    out.sim.policy.shards
                )));
            }
            let mut shards = Vec::with_capacity(nshards);
            for id in 0..nshards {
                let store = ObjectStore::snap_read(&mut r)?;
                let mail = dispatch::snap_read_mail(&mut r, store.id_space())?;
                let rng = SplitMix64::from_state(r.u64()?);
                let local_seq = r.u64()?;
                let obs = if r.bool()? {
                    let raw = snapshot::read_metrics(&mut r)?;
                    let mut child = match out.obs.as_deref() {
                        Some(root) => root.fork_shard(id as u32),
                        None => {
                            let mut c = Recorder::new();
                            c.track = id as u32 + 1;
                            c
                        }
                    };
                    child.metrics = Metrics::from_raw(raw);
                    Some(Box::new(child))
                } else {
                    None
                };
                shards.push(out.replica(id, store, mail, rng, local_seq, obs));
            }
            out.engine_state = Some(EngineState {
                shards,
                stimuli,
                timers,
                total_steps,
                epoch_no,
            });
        }
        r.expect_end()?;
        Ok(out)
    }
}
