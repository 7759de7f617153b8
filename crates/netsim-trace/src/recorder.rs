//! The [`Recorder`] trait: the fixed observation vocabulary the engines
//! emit, and the no-op / fan-out plumbing around it.

use std::sync::Arc;

/// The `tid` the sharded engine's router (cut + cross-shard routing)
/// reports under — sorts after every real shard of the same round.
pub const SHARD_ROUTER: u32 = u32::MAX;

/// The engine phases a round (or async tick) decomposes into, plus the
/// enclosing [`Phase::Round`] span.  This is a *fixed vocabulary*: trace
/// consumers (the well-formedness check, the profiler report) reject
/// names outside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The enclosing span of one whole round (sync/sharded) or tick
    /// (async).
    Round,
    /// Fault-plan churn: crash/recover decisions at round start.
    Churn,
    /// Honest and Byzantine nodes consume inboxes and fill outboxes.
    NodeStep,
    /// The adversary inspects the cut and chooses its actions (including
    /// applying them).
    AdversaryCut,
    /// Envelope routing/delivery, including the fault-plan fate
    /// consultation and (sharded) the cross-shard exchange.
    Routing,
    /// Draining delay-deferred envelopes that came due this round.
    DeferredDrain,
}

/// Every phase, in span-nesting order.
pub const PHASES: [Phase; 6] = [
    Phase::Round,
    Phase::Churn,
    Phase::NodeStep,
    Phase::AdversaryCut,
    Phase::Routing,
    Phase::DeferredDrain,
];

impl Phase {
    /// The wire name (trace records, profiler reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Round => "round",
            Phase::Churn => "churn",
            Phase::NodeStep => "node-step",
            Phase::AdversaryCut => "adversary-cut",
            Phase::Routing => "routing",
            Phase::DeferredDrain => "deferred-drain",
        }
    }

    /// Dense index (stable across versions only within one process).
    pub fn index(self) -> usize {
        match self {
            Phase::Round => 0,
            Phase::Churn => 1,
            Phase::NodeStep => 2,
            Phase::AdversaryCut => 3,
            Phase::Routing => 4,
            Phase::DeferredDrain => 5,
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        PHASES.iter().copied().find(|p| p.name() == name)
    }
}

/// Monotone counters.  Each maps 1:1 onto a `RunMetrics` field (or an
/// engine-internal volume), so totals derived from a trace can be
/// cross-checked against the run's metrics bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Envelopes delivered into an inbox.
    MessagesDelivered,
    /// Envelopes the adversary (or an engine rule) discarded.
    MessagesDropped,
    /// Honest envelopes lost by the fault plan.
    MessagesLost,
    /// Honest envelopes deferred by the fault plan.
    MessagesDelayed,
    /// Deferred envelopes that expired before coming due.
    MessagesExpired,
    /// Honest nodes crashed by churn.
    ChurnCrashes,
    /// Honest nodes recovered by churn.
    ChurnRecoveries,
    /// Rounds (sync/sharded) or ticks (async) completed.
    Rounds,
    /// Envelopes that crossed a shard boundary through the router.
    CrossShardRouted,
    /// Idle ticks the sparse-ticking async engines jumped over without
    /// executing.  Skipped ticks still count into [`Counter::Rounds`]
    /// (they are observationally completed ticks); this counter reports
    /// how many of those were never visited, i.e. the work the
    /// next-event-time skip saved.
    TicksSkipped,
    /// Protocol `step` calls, added once per round (or tick) per shard by
    /// the node-step phase.  Trace-only: no `RunMetrics` field mirrors
    /// it, so reports are unchanged.  Exact per spec + seed, so it
    /// measures the work active-set rounds save without wall time.
    NodeSteps,
}

/// Every counter, in report order.
pub const COUNTERS: [Counter; 11] = [
    Counter::MessagesDelivered,
    Counter::MessagesDropped,
    Counter::MessagesLost,
    Counter::MessagesDelayed,
    Counter::MessagesExpired,
    Counter::ChurnCrashes,
    Counter::ChurnRecoveries,
    Counter::Rounds,
    Counter::CrossShardRouted,
    Counter::TicksSkipped,
    Counter::NodeSteps,
];

impl Counter {
    /// The wire name; matches the `RunMetrics` field where one exists.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MessagesDelivered => "messages_delivered",
            Counter::MessagesDropped => "messages_dropped",
            Counter::MessagesLost => "messages_lost",
            Counter::MessagesDelayed => "messages_delayed",
            Counter::MessagesExpired => "messages_expired",
            Counter::ChurnCrashes => "churn_crashes",
            Counter::ChurnRecoveries => "churn_recoveries",
            Counter::Rounds => "rounds",
            Counter::CrossShardRouted => "cross_shard_routed",
            Counter::TicksSkipped => "ticks_skipped",
            Counter::NodeSteps => "node_steps",
        }
    }

    /// Inverse of [`Counter::name`].
    pub fn from_name(name: &str) -> Option<Counter> {
        COUNTERS.iter().copied().find(|c| c.name() == name)
    }
}

/// High-water / occupancy gauges (recorders keep the maximum observed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gauge {
    /// High-water mark of the honest envelope arena.
    HonestArenaHighWater,
    /// High-water mark of the Byzantine-default envelope arena.
    ByzArenaHighWater,
    /// Events resident in the async engine's calendar queue.
    CalendarOccupancy,
    /// Envelopes parked in the delay ring.
    DelayRingPending,
}

/// Every gauge, in report order.
pub const GAUGES: [Gauge; 4] = [
    Gauge::HonestArenaHighWater,
    Gauge::ByzArenaHighWater,
    Gauge::CalendarOccupancy,
    Gauge::DelayRingPending,
];

impl Gauge {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::HonestArenaHighWater => "honest_arena_high_water",
            Gauge::ByzArenaHighWater => "byz_arena_high_water",
            Gauge::CalendarOccupancy => "calendar_occupancy",
            Gauge::DelayRingPending => "delay_ring_pending",
        }
    }

    /// Inverse of [`Gauge::name`].
    pub fn from_name(name: &str) -> Option<Gauge> {
        GAUGES.iter().copied().find(|g| g.name() == name)
    }
}

/// The observation sink the engines emit into.
///
/// Object-safe and `Send + Sync`: one recorder instance is shared by
/// every shard worker of a sharded run.  Implementations must tolerate
/// concurrent calls from different shards (distinct `shard` values);
/// calls for one shard arrive in that shard's deterministic program
/// order.
///
/// `time` is the engine's logical time: the round number for the sync
/// and sharded engines, the tick for the async engine.  Recorders must
/// never feed anything back into the engine — observation only.
pub trait Recorder: Send + Sync {
    /// A phase span opens at logical time `time` on `shard`.
    fn phase_begin(&self, shard: u32, time: u64, phase: Phase);
    /// The matching span closes.
    fn phase_end(&self, shard: u32, time: u64, phase: Phase);
    /// `counter` advanced by `delta` during `time` on `shard`.
    fn add(&self, shard: u32, time: u64, counter: Counter, delta: u64);
    /// `gauge` was observed at `value` during `time` on `shard`.
    fn gauge(&self, shard: u32, time: u64, gauge: Gauge, value: u64);
    /// The run is over; flush buffered output.  Engines never call this —
    /// the installer does, once, after the run completes.
    fn finish(&self) {}
}

/// The default recorder: every method is empty, so a monomorphized call
/// compiles to nothing and a dyn call is a single indirect jump that is
/// never taken (engines skip the call entirely when no recorder is
/// installed).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn phase_begin(&self, _: u32, _: u64, _: Phase) {}
    fn phase_end(&self, _: u32, _: u64, _: Phase) {}
    fn add(&self, _: u32, _: u64, _: Counter, _: u64) {}
    fn gauge(&self, _: u32, _: u64, _: Gauge, _: u64) {}
}

/// Broadcast every observation to several recorders (e.g. a
/// [`TraceWriter`](crate::TraceWriter) plus a
/// [`PhaseProfiler`](crate::PhaseProfiler) when both `--trace` and
/// `--profile` are requested).
#[derive(Clone, Default)]
pub struct Fanout {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl Fanout {
    /// An empty fan-out (behaves like [`NoopRecorder`]).
    pub fn new() -> Self {
        Fanout::default()
    }

    /// Add a sink.
    pub fn push(&mut self, sink: Arc<dyn Recorder>) {
        self.sinks.push(sink);
    }

    /// Number of sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Recorder for Fanout {
    fn phase_begin(&self, shard: u32, time: u64, phase: Phase) {
        for s in &self.sinks {
            s.phase_begin(shard, time, phase);
        }
    }
    fn phase_end(&self, shard: u32, time: u64, phase: Phase) {
        for s in &self.sinks {
            s.phase_end(shard, time, phase);
        }
    }
    fn add(&self, shard: u32, time: u64, counter: Counter, delta: u64) {
        for s in &self.sinks {
            s.add(shard, time, counter, delta);
        }
    }
    fn gauge(&self, shard: u32, time: u64, gauge: Gauge, value: u64) {
        for s in &self.sinks {
            s.gauge(shard, time, gauge, value);
        }
    }
    fn finish(&self) {
        for s in &self.sinks {
            s.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in PHASES {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        for c in COUNTERS {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        for g in GAUGES {
            assert_eq!(Gauge::from_name(g.name()), Some(g));
        }
        assert_eq!(Phase::from_name("bogus"), None);
    }

    #[test]
    fn recorder_is_object_safe_and_shareable() {
        let rec: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        rec.phase_begin(0, 0, Phase::Round);
        rec.phase_end(0, 0, Phase::Round);
        let mut fan = Fanout::new();
        fan.push(rec);
        assert_eq!(fan.len(), 1);
        fan.add(0, 0, Counter::Rounds, 1);
        fan.finish();
    }
}
