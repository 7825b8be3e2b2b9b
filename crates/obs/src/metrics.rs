//! Deterministic metrics: counters, high-water gauges, log₂ histograms
//! and per-shard lanes.
//!
//! Everything in [`Metrics`] is a pure function of `(seed, shards)` for
//! a given model and stimulus schedule — worker count (`--jobs`) and
//! host speed must never leak in. Wall-clock measurements live in the
//! separate [`Timing`] struct and are rendered under a distinct
//! `"timing"` key so golden tests and cross-host comparisons can pin
//! the deterministic part byte-for-byte.

use crate::json::escape;
use std::fmt::Write as _;

/// The deterministic counter catalogue.
///
/// Counters are append-only: new entries go at the end so snapshot
/// layouts stay comparable across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Signal envelopes consumed by the dispatcher (fired + ignored + dropped).
    SignalsDispatched,
    /// Dispatches that actually took a transition and ran an action.
    TransitionsFired,
    /// Dispatches consumed by an `Ignore` transition cell.
    SignalsIgnored,
    /// Signals dropped (can't-happen cells, dead targets).
    SignalsDropped,
    /// Instance-to-instance signals sent by actions.
    SignalsSent,
    /// Signals an instance sent to itself (priority queue).
    SelfSignals,
    /// Signals emitted to external actors.
    ActorSignals,
    /// Bridge (wired function) calls made by actions.
    BridgeCalls,
    /// Timers armed (`send_delayed`).
    TimersSet,
    /// Timers cancelled before firing.
    TimersCancelled,
    /// Timers that fired and delivered their signal.
    TimersFired,
    /// External stimuli injected from the schedule.
    StimuliInjected,
    /// Instances created (setup plus action-driven).
    InstancesCreated,
    /// Instances deleted by actions.
    InstancesDeleted,
    /// Barrier-synchronised epochs executed by the sharded engine.
    Epochs,
    /// Signals routed across a shard boundary at a barrier.
    CrossShardSignals,
    /// Signals routed back into their sending shard at a barrier.
    LocalShardSignals,
    /// Sum over epochs of the busiest shard's dispatch count
    /// (denominator for the epoch-imbalance ratio).
    EpochMaxDispatches,
    /// Per-shard epochs that exhausted their dispatch budget.
    BudgetExhausted,
    /// Runs that fell back to sequential execution (shard-unsafe model).
    ShardFallbacks,
    /// Fallback because an action creates an instance.
    FallbackCreate,
    /// Fallback because an action deletes an instance.
    FallbackDelete,
    /// Fallback because an action relates instances.
    FallbackRelate,
    /// Fallback because an action unrelates instances.
    FallbackUnrelate,
    /// Fallback because an action reads a non-self attribute.
    FallbackNonSelfRead,
    /// Fallback because an action writes a non-self attribute.
    FallbackNonSelfWrite,
    /// Fork-join scopes opened on the worker pool.
    PoolScopes,
    /// Tasks distributed across fork-join scopes.
    PoolTasks,
    /// Hardware cycles simulated by the co-simulation executive.
    CosimHwCycles,
    /// CPU cycles consumed by the co-simulated software partition.
    CosimCpuCycles,
    /// Bus messages delivered sw→hw.
    CosimMsgsSwToHw,
    /// Bus messages delivered hw→sw.
    CosimMsgsHwToSw,
    /// Total bus beats moved by the co-simulation bridge.
    CosimBusBeats,
    /// Model compilations performed by the MDA pipeline.
    MdaCompiles,
    /// Action dispatches executed by the bytecode VM engine.
    BcActions,
    /// Always 0: every action runs on the VM, and an action the lowering
    /// cannot encode fails its dispatch (X0016) instead of falling back.
    /// Kept so snapshots and metric streams keep their layout.
    BcFallbacks,
    /// Sharded runs the effect analysis admitted to `shards > 1`
    /// (counted once per run that actually executes sharded; the
    /// `fallback_*` reasons above count the denied side).
    ShardAdmitted,
}

/// Every counter, in snapshot order.
pub const COUNTERS: &[Counter] = &[
    Counter::SignalsDispatched,
    Counter::TransitionsFired,
    Counter::SignalsIgnored,
    Counter::SignalsDropped,
    Counter::SignalsSent,
    Counter::SelfSignals,
    Counter::ActorSignals,
    Counter::BridgeCalls,
    Counter::TimersSet,
    Counter::TimersCancelled,
    Counter::TimersFired,
    Counter::StimuliInjected,
    Counter::InstancesCreated,
    Counter::InstancesDeleted,
    Counter::Epochs,
    Counter::CrossShardSignals,
    Counter::LocalShardSignals,
    Counter::EpochMaxDispatches,
    Counter::BudgetExhausted,
    Counter::ShardFallbacks,
    Counter::FallbackCreate,
    Counter::FallbackDelete,
    Counter::FallbackRelate,
    Counter::FallbackUnrelate,
    Counter::FallbackNonSelfRead,
    Counter::FallbackNonSelfWrite,
    Counter::PoolScopes,
    Counter::PoolTasks,
    Counter::CosimHwCycles,
    Counter::CosimCpuCycles,
    Counter::CosimMsgsSwToHw,
    Counter::CosimMsgsHwToSw,
    Counter::CosimBusBeats,
    Counter::MdaCompiles,
    Counter::BcActions,
    Counter::BcFallbacks,
    Counter::ShardAdmitted,
];

impl Counter {
    /// Snapshot key (stable, snake_case).
    pub fn name(self) -> &'static str {
        match self {
            Counter::SignalsDispatched => "signals_dispatched",
            Counter::TransitionsFired => "transitions_fired",
            Counter::SignalsIgnored => "signals_ignored",
            Counter::SignalsDropped => "signals_dropped",
            Counter::SignalsSent => "signals_sent",
            Counter::SelfSignals => "self_signals",
            Counter::ActorSignals => "actor_signals",
            Counter::BridgeCalls => "bridge_calls",
            Counter::TimersSet => "timers_set",
            Counter::TimersCancelled => "timers_cancelled",
            Counter::TimersFired => "timers_fired",
            Counter::StimuliInjected => "stimuli_injected",
            Counter::InstancesCreated => "instances_created",
            Counter::InstancesDeleted => "instances_deleted",
            Counter::Epochs => "epochs",
            Counter::CrossShardSignals => "cross_shard_signals",
            Counter::LocalShardSignals => "local_shard_signals",
            Counter::EpochMaxDispatches => "epoch_max_dispatches",
            Counter::BudgetExhausted => "budget_exhausted",
            Counter::ShardFallbacks => "shard_fallbacks",
            Counter::FallbackCreate => "fallback_create",
            Counter::FallbackDelete => "fallback_delete",
            Counter::FallbackRelate => "fallback_relate",
            Counter::FallbackUnrelate => "fallback_unrelate",
            Counter::FallbackNonSelfRead => "fallback_non_self_read",
            Counter::FallbackNonSelfWrite => "fallback_non_self_write",
            Counter::PoolScopes => "pool_scopes",
            Counter::PoolTasks => "pool_tasks",
            Counter::CosimHwCycles => "cosim_hw_cycles",
            Counter::CosimCpuCycles => "cosim_cpu_cycles",
            Counter::CosimMsgsSwToHw => "cosim_msgs_sw_to_hw",
            Counter::CosimMsgsHwToSw => "cosim_msgs_hw_to_sw",
            Counter::CosimBusBeats => "cosim_bus_beats",
            Counter::MdaCompiles => "mda_compiles",
            Counter::BcActions => "bc_actions",
            Counter::BcFallbacks => "bc_fallbacks",
            Counter::ShardAdmitted => "shard_admitted",
        }
    }
}

/// High-water-mark gauges (deterministic maxima, not wall-clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Deepest the pending-stimulus heap ever got.
    StimulusHeapMax,
    /// Largest ready set observed by the scheduler.
    ReadySetMax,
    /// Most armed timers alive at once.
    TimerListMax,
    /// Most live instances at once.
    LiveInstancesMax,
    /// Largest single-barrier outbox (cross-shard routing burst).
    OutboxBurstMax,
}

/// Every gauge, in snapshot order.
pub const GAUGES: &[Gauge] = &[
    Gauge::StimulusHeapMax,
    Gauge::ReadySetMax,
    Gauge::TimerListMax,
    Gauge::LiveInstancesMax,
    Gauge::OutboxBurstMax,
];

impl Gauge {
    /// Snapshot key (stable, snake_case).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::StimulusHeapMax => "stimulus_heap_max",
            Gauge::ReadySetMax => "ready_set_max",
            Gauge::TimerListMax => "timer_list_max",
            Gauge::LiveInstancesMax => "live_instances_max",
            Gauge::OutboxBurstMax => "outbox_burst_max",
        }
    }
}

/// Histogram families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistKind {
    /// Dispatches per shard per epoch (shape of the load balance).
    EpochDispatches,
    /// Cross-shard signals routed per shard per epoch.
    EpochOutbox,
}

/// Every histogram family, in snapshot order.
pub const HISTS: &[HistKind] = &[HistKind::EpochDispatches, HistKind::EpochOutbox];

impl HistKind {
    /// Snapshot key (stable, snake_case).
    pub fn name(self) -> &'static str {
        match self {
            HistKind::EpochDispatches => "epoch_dispatches",
            HistKind::EpochOutbox => "epoch_outbox",
        }
    }
}

/// Number of log₂ buckets: bucket 0 holds value 0, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, the last bucket is open-ended.
pub const HIST_BUCKETS: usize = 18;

/// A log₂ histogram of `u64` observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hist {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Log₂ buckets (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        let b = if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[b] += 1;
    }

    /// Folds another histogram in.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Per-shard deterministic totals, merged at barriers in shard order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLane {
    /// Shard index.
    pub shard: u32,
    /// Dispatches executed by this shard.
    pub dispatches: u64,
    /// Signals this shard sent (before routing).
    pub sent: u64,
    /// Of those, signals that crossed to another shard.
    pub cross_shard: u64,
    /// Epochs in which this shard dispatched at least one signal.
    pub epochs_active: u64,
}

/// One per-epoch, per-shard row for the JSONL stream (opt-in: only
/// recorded when epoch streaming is enabled, since long runs produce
/// many rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRow {
    /// Epoch index.
    pub epoch: u64,
    /// Shard index.
    pub shard: u32,
    /// Dispatches this shard executed in this epoch.
    pub dispatches: u64,
    /// Signals this shard routed out at the closing barrier.
    pub outbox: u64,
}

/// The deterministic metrics snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: Vec<u64>,
    gauges: Vec<u64>,
    hists: Vec<Hist>,
    /// Per-shard lanes, in shard order (empty for unsharded runs).
    pub lanes: Vec<ShardLane>,
    /// Per-epoch rows (populated only when epoch streaming is on).
    pub epoch_rows: Vec<EpochRow>,
}

/// The raw backing arrays of a [`Metrics`] snapshot, in catalogue order
/// — the serialization surface for simulation snapshots. All fields are
/// public so serializers can walk them without this crate knowing any
/// wire format; [`Metrics::from_raw`] re-normalizes lengths, so a raw
/// block written by an older catalogue still loads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRaw {
    /// Counter values, in [`COUNTERS`] order.
    pub counters: Vec<u64>,
    /// Gauge high-water marks, in [`GAUGES`] order.
    pub gauges: Vec<u64>,
    /// Histograms, in [`HISTS`] order.
    pub hists: Vec<Hist>,
    /// Per-shard lanes, in shard order.
    pub lanes: Vec<ShardLane>,
    /// Per-epoch rows.
    pub epoch_rows: Vec<EpochRow>,
}

impl Metrics {
    /// An all-zero snapshot.
    pub fn new() -> Metrics {
        Metrics {
            counters: vec![0; COUNTERS.len()],
            gauges: vec![0; GAUGES.len()],
            hists: vec![Hist::default(); HISTS.len()],
            lanes: Vec::new(),
            epoch_rows: Vec::new(),
        }
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, delta: u64) {
        self.counters[c as usize] += delta;
    }

    /// Reads a counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Raises a gauge to `v` if `v` is a new high-water mark.
    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, v: u64) {
        let slot = &mut self.gauges[g as usize];
        if v > *slot {
            *slot = v;
        }
    }

    /// Reads a gauge.
    #[inline]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&mut self, h: HistKind, v: u64) {
        self.hists[h as usize].observe(v);
    }

    /// Reads a histogram.
    pub fn hist(&self, h: HistKind) -> &Hist {
        &self.hists[h as usize]
    }

    /// The per-shard lane for `shard`, grown on demand.
    pub fn lane_mut(&mut self, shard: u32) -> &mut ShardLane {
        let want = shard as usize + 1;
        while self.lanes.len() < want {
            let next = self.lanes.len() as u32;
            self.lanes.push(ShardLane {
                shard: next,
                ..ShardLane::default()
            });
        }
        &mut self.lanes[shard as usize]
    }

    /// Extracts the raw backing arrays (for serialization).
    pub fn to_raw(&self) -> MetricsRaw {
        MetricsRaw {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            hists: self.hists.clone(),
            lanes: self.lanes.clone(),
            epoch_rows: self.epoch_rows.clone(),
        }
    }

    /// Rebuilds a snapshot from raw arrays, padding or truncating the
    /// catalogued vectors to the current catalogue lengths so a block
    /// recorded under an older (append-only) catalogue still loads.
    pub fn from_raw(raw: MetricsRaw) -> Metrics {
        let mut counters = raw.counters;
        counters.resize(COUNTERS.len(), 0);
        let mut gauges = raw.gauges;
        gauges.resize(GAUGES.len(), 0);
        let mut hists = raw.hists;
        hists.resize(HISTS.len(), Hist::default());
        Metrics {
            counters,
            gauges,
            hists,
            lanes: raw.lanes,
            epoch_rows: raw.epoch_rows,
        }
    }

    /// Folds `other` in: counters and histograms add, gauges take the
    /// max, lanes merge by shard index. The fold is commutative, so the
    /// merged snapshot does not depend on worker scheduling.
    pub fn merge(&mut self, other: &Metrics) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
        for lane in &other.lanes {
            let mine = self.lane_mut(lane.shard);
            mine.dispatches += lane.dispatches;
            mine.sent += lane.sent;
            mine.cross_shard += lane.cross_shard;
            mine.epochs_active += lane.epochs_active;
        }
        self.epoch_rows.extend(other.epoch_rows.iter().copied());
        self.epoch_rows.sort_by_key(|r| (r.epoch, r.shard));
    }

    /// Epoch load imbalance in `[0, 1]`: `0` means every shard matched
    /// the busiest shard every epoch; `1` means all work sat on one
    /// shard of many. Returns `None` for unsharded runs.
    pub fn epoch_imbalance(&self) -> Option<f64> {
        let shards = self.lanes.len() as u64;
        let max_sum = self.get(Counter::EpochMaxDispatches);
        if shards < 2 || max_sum == 0 {
            return None;
        }
        let total: u64 = self.lanes.iter().map(|l| l.dispatches).sum();
        let ideal = (max_sum * shards) as f64;
        Some(1.0 - total as f64 / ideal)
    }

    /// Fraction of routed signals that crossed a shard boundary.
    pub fn cross_shard_frac(&self) -> Option<f64> {
        let cross = self.get(Counter::CrossShardSignals);
        let local = self.get(Counter::LocalShardSignals);
        if cross + local == 0 {
            return None;
        }
        Some(cross as f64 / (cross + local) as f64)
    }

    /// Renders the deterministic snapshot as pretty-printed JSON. The
    /// full catalogue is emitted (zeros included) in catalogue order,
    /// so equal runs produce byte-identical documents.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {\n");
        for (i, c) in COUNTERS.iter().enumerate() {
            let comma = if i + 1 == COUNTERS.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{}\": {}{}", c.name(), self.get(*c), comma);
        }
        out.push_str("  },\n  \"gauges\": {\n");
        for (i, g) in GAUGES.iter().enumerate() {
            let comma = if i + 1 == GAUGES.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{}\": {}{}", g.name(), self.gauge(*g), comma);
        }
        out.push_str("  },\n  \"hists\": {\n");
        for (i, h) in HISTS.iter().enumerate() {
            let comma = if i + 1 == HISTS.len() { "" } else { "," };
            let hist = self.hist(*h);
            let _ = write!(
                out,
                "    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
                h.name(),
                hist.count,
                hist.sum,
                hist.max
            );
            for (j, b) in hist.buckets.iter().enumerate() {
                let bc = if j + 1 == HIST_BUCKETS { "" } else { ", " };
                let _ = write!(out, "{b}{bc}");
            }
            let _ = writeln!(out, "]}}{comma}");
        }
        out.push_str("  },\n  \"per_shard\": [");
        for (i, l) in self.lanes.iter().enumerate() {
            let comma = if i + 1 == self.lanes.len() { "" } else { "," };
            let _ = write!(
                out,
                "\n    {{\"shard\": {}, \"dispatches\": {}, \"sent\": {}, \"cross_shard\": {}, \"epochs_active\": {}}}{}",
                l.shard, l.dispatches, l.sent, l.cross_shard, l.epochs_active, comma
            );
        }
        if !self.lanes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the deterministic snapshot for humans: the counter
    /// catalogue, gauges, derived ratios and per-shard lanes.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for c in COUNTERS {
            let _ = writeln!(out, "  {:<26} {}", c.name(), self.get(*c));
        }
        out.push_str("gauges:\n");
        for g in GAUGES {
            let _ = writeln!(out, "  {:<26} {}", g.name(), self.gauge(*g));
        }
        if let Some(im) = self.epoch_imbalance() {
            let _ = writeln!(out, "derived:\n  {:<26} {:.3}", "epoch_imbalance", im);
            if let Some(cf) = self.cross_shard_frac() {
                let _ = writeln!(out, "  {:<26} {:.3}", "cross_shard_frac", cf);
            }
        }
        if !self.lanes.is_empty() {
            out.push_str("per-shard:\n");
            for l in &self.lanes {
                let _ = writeln!(
                    out,
                    "  shard {:<3} dispatches {:<8} sent {:<8} cross {:<8} active-epochs {}",
                    l.shard, l.dispatches, l.sent, l.cross_shard, l.epochs_active
                );
            }
        }
        out
    }

    /// Streams the snapshot as JSONL rows (one metric per line),
    /// prefixed by a `run` header row built from `header` key/value
    /// pairs (values are emitted raw, so pass pre-rendered JSON).
    pub fn to_jsonl(&self, header: &[(&str, String)]) -> String {
        let mut out = String::new();
        out.push_str("{\"kind\": \"run\"");
        for (k, v) in header {
            let _ = write!(out, ", \"{}\": {}", escape(k), v);
        }
        out.push_str("}\n");
        for c in COUNTERS {
            let _ = writeln!(
                out,
                "{{\"kind\": \"counter\", \"name\": \"{}\", \"value\": {}}}",
                c.name(),
                self.get(*c)
            );
        }
        for g in GAUGES {
            let _ = writeln!(
                out,
                "{{\"kind\": \"gauge\", \"name\": \"{}\", \"value\": {}}}",
                g.name(),
                self.gauge(*g)
            );
        }
        for l in &self.lanes {
            let _ = writeln!(
                out,
                "{{\"kind\": \"shard\", \"shard\": {}, \"dispatches\": {}, \"sent\": {}, \"cross_shard\": {}, \"epochs_active\": {}}}",
                l.shard, l.dispatches, l.sent, l.cross_shard, l.epochs_active
            );
        }
        for r in &self.epoch_rows {
            let _ = writeln!(
                out,
                "{{\"kind\": \"epoch\", \"epoch\": {}, \"shard\": {}, \"dispatches\": {}, \"outbox\": {}}}",
                r.epoch, r.shard, r.dispatches, r.outbox
            );
        }
        out
    }
}

/// Wall-clock measurements. **Nondeterministic by nature** — kept out
/// of [`Metrics`] so the deterministic snapshot stays pinnable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// Wall time of the whole run, nanoseconds.
    pub run_wall_ns: u64,
    /// Summed barrier wait: per epoch, coordinator epoch wall time
    /// minus each shard's own busy time (idle shards wait longer).
    pub barrier_wait_ns: u64,
    /// Epochs that contributed barrier measurements.
    pub epochs_timed: u64,
}

impl Timing {
    /// Folds another timing block in.
    pub fn merge(&mut self, other: &Timing) {
        self.run_wall_ns += other.run_wall_ns;
        self.barrier_wait_ns += other.barrier_wait_ns;
        self.epochs_timed += other.epochs_timed;
    }

    /// One JSONL row, flagged nondeterministic.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"kind\": \"timing\", \"deterministic\": false, \"run_wall_ns\": {}, \"barrier_wait_ns\": {}, \"epochs_timed\": {}}}\n",
            self.run_wall_ns, self.barrier_wait_ns, self.epochs_timed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_log2() {
        let mut h = Hist::default();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[11], 1); // 1024
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1); // clamp
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Metrics::new();
        a.add(Counter::SignalsSent, 3);
        a.gauge_max(Gauge::ReadySetMax, 5);
        a.lane_mut(1).dispatches = 7;
        let mut b = Metrics::new();
        b.add(Counter::SignalsSent, 4);
        b.gauge_max(Gauge::ReadySetMax, 2);
        b.lane_mut(0).dispatches = 9;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.get(Counter::SignalsSent), 7);
        assert_eq!(ab.gauge(Gauge::ReadySetMax), 5);
        assert_eq!(ab.lanes.len(), 2);
    }

    #[test]
    fn imbalance_ratio() {
        let mut m = Metrics::new();
        // Two shards, two epochs; busiest shard did 10 each epoch,
        // other shard idle: imbalance = 1 - 20/(2*20) = 0.5.
        m.lane_mut(0).dispatches = 20;
        m.lane_mut(1).dispatches = 0;
        m.add(Counter::EpochMaxDispatches, 20);
        assert_eq!(m.epoch_imbalance(), Some(0.5));
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = COUNTERS.iter().map(|c| c.name()).collect();
        names.extend(GAUGES.iter().map(|g| g.name()));
        names.extend(HISTS.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(n, names.len());
    }
}
