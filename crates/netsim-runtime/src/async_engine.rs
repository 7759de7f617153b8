//! The event-driven asynchronous engine: per-node virtual clocks over a
//! deterministic calendar event queue.
//!
//! [`SyncEngine`](crate::SyncEngine) materializes "a round" as a global
//! barrier: every node steps in lock-step, once per loop iteration.  The
//! deferred-delivery [`DelayRing`](crate::DelayRing) already smuggled
//! Δ-bounded asynchrony *inside* that barrier, but the barrier itself caps
//! what the simulator can express — every node is forced onto the same
//! clock.  [`AsyncEngine`] removes the barrier: virtual time advances in
//! discrete ticks, and a [`CalendarQueue`] of typed events decides what
//! happens at each tick —
//!
//! * **plan-tick events** consult the installed [`FaultPlan`] (churn
//!   transitions, and the advancement of round-windowed behaviours such
//!   as partitions), one per tick, self-rescheduling;
//! * **node-step events** fire each node's protocol state machine on its
//!   own cadence ([`ClockPlan`]): a node with period `p` steps every `p`
//!   ticks, consuming whatever arrived in its mailbox since its previous
//!   step;
//! * **deliver events** complete the fault layer's deferred deliveries at
//!   their due tick.
//!
//! Events are totally ordered by `(time, class, node, seq)` — see
//! [`EventKey`] — so a run is a pure function of its inputs: permuting the
//! *insertion* order of same-tick events can never change the order in
//! which they fire (locked down by a property test in
//! `tests/property_based.rs`).
//!
//! ## The synchronous-parity contract
//!
//! For a *synchronous* clock plan ([`ClockPlan::Uniform`]: every node's
//! clock advances 1 per tick), [`AsyncEngine`] produces **byte-identical**
//! [`RunResult`]s to [`SyncEngine`](crate::SyncEngine) for equal
//! `(topology, protocol, adversary, seed, fault plan)`.  Each tick then
//! drains exactly one plan-tick, one step per live node (in node order —
//! the queue's `node` tie-break *is* the sync engine's phase-1 loop
//! order), the adversary cut, action application, envelope routing (fault
//! plan consulted per envelope in the sync engine's exact order, so every
//! RNG stream stays aligned) and the due deferred deliveries — precisely
//! the synchronous round pipeline.  `tests/async_parity.rs` locks this
//! down over the golden fixtures, a fresh full-fault-stack spec, a
//! baseline workload and a batch case.
//!
//! With heterogeneous clocks ([`ClockPlan::Stratified`] /
//! [`ClockPlan::Jittered`]) the engine leaves the synchronous model: slow
//! nodes miss ticks entirely, mailboxes batch several ticks' arrivals into
//! one step, and a delayed envelope can overtake a slow recipient's entire
//! step cadence.  Runs remain fully deterministic (periods are spec- or
//! seed-derived; the queue order is total), which is what makes the new
//! scenario space regression-testable.
//!
//! ## The adversary cut
//!
//! The full-information adversary must see *all* messages queued at a
//! tick before any of them is routed — that is its contract.  The engine
//! therefore cuts each tick after the last node-step event: envelopes
//! gathered in node order, one `Adversary::act` per tick (every tick, so
//! the adversary RNG stream is tick-indexed and clock-plan-independent),
//! then routing.  Under `Uniform` clocks this is exactly the synchronous
//! phase 2; under heterogeneous clocks the adversary sees whichever nodes
//! stepped this tick — still full information, per tick.

use crate::adversary::{Adversary, AdversaryDecision, AdversaryView};
use crate::engine::{
    emit_metric_deltas, envelope_admissible, splitmix, EngineConfig, MetricsSnap, RunResult,
};
use crate::message::{Envelope, MessageSize};
use crate::metrics::RunMetrics;
use crate::node::{Action, NodeContext, NodeStatus, Outbox, Protocol};
use crate::topology::Topology;
use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan};
use netsim_graph::NodeId;
use netsim_trace::{Counter, Gauge, Phase, Recorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Per-node virtual clocks
// ---------------------------------------------------------------------------

/// How each node's virtual clock maps onto the global tick counter.
///
/// A node with period `p` runs one protocol step every `p` ticks (first
/// step at tick 0).  `Uniform` — every period 1 — is the synchronous
/// model, and under it the engine is contractually byte-identical to
/// [`SyncEngine`](crate::SyncEngine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClockPlan {
    /// Every node steps every tick (the synchronous model).
    #[default]
    Uniform,
    /// Every `every`-th node (`node % every == 0`) runs slow, at `period`
    /// ticks per step; the rest step every tick.  A deterministic,
    /// seed-independent heterogeneity: the same nodes are slow in every
    /// run of the spec.
    Stratified {
        /// Stride selecting the slow nodes (≥ 1; `1` = every node slow).
        every: u32,
        /// Step period of the slow nodes (≥ 1).
        period: u32,
    },
    /// Every node draws its period uniformly from `1..=max_period`,
    /// derived from the run seed (SplitMix64 per node) — decorrelated
    /// from every protocol RNG stream, and reproducible per spec+seed.
    Jittered {
        /// Largest period a node can draw (≥ 1; `1` = synchronous).
        max_period: u32,
    },
}

/// Seed-stream tag for [`ClockPlan::Jittered`] period derivation, keeping
/// clock randomness decorrelated from the node RNG streams (which use the
/// plain node index).
const CLOCK_STREAM: u64 = 0xC10C_0000_0000_0000;

impl ClockPlan {
    /// The step period of `node` under this plan (≥ 1), for a run seeded
    /// with `seed`.
    pub fn period_of(&self, node: usize, seed: u64) -> u64 {
        match *self {
            ClockPlan::Uniform => 1,
            ClockPlan::Stratified { every, period } => {
                if node.is_multiple_of(every.max(1) as usize) {
                    period.max(1) as u64
                } else {
                    1
                }
            }
            ClockPlan::Jittered { max_period } => {
                let max = max_period.max(1) as u64;
                splitmix(seed ^ CLOCK_STREAM, node as u64) % max + 1
            }
        }
    }

    /// True when every node's period is 1 — the plans for which the
    /// engine's synchronous-parity contract applies.
    pub fn is_synchronous(&self) -> bool {
        match *self {
            ClockPlan::Uniform => true,
            ClockPlan::Stratified { period, .. } => period == 1,
            ClockPlan::Jittered { max_period } => max_period == 1,
        }
    }

    /// Check the plan is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ClockPlan::Uniform => Ok(()),
            ClockPlan::Stratified { every: 0, .. } => {
                Err("stratified clocks need a stride of at least 1".into())
            }
            ClockPlan::Stratified { period: 0, .. } => {
                Err("stratified clocks need a period of at least 1".into())
            }
            ClockPlan::Stratified { .. } => Ok(()),
            ClockPlan::Jittered { max_period: 0 } => {
                Err("jittered clocks need a max period of at least 1".into())
            }
            ClockPlan::Jittered { .. } => Ok(()),
        }
    }

    /// Short stable label (used in engine descriptions and bench reports).
    pub fn describe(&self) -> String {
        match *self {
            ClockPlan::Uniform => "uniform".into(),
            ClockPlan::Stratified { every, period } => format!("strat-{every}x{period}"),
            ClockPlan::Jittered { max_period } => format!("jitter-{max_period}"),
        }
    }
}

// ---------------------------------------------------------------------------
// The calendar event queue
// ---------------------------------------------------------------------------

/// What kind of event fires; the second component of the total order.
///
/// Within one tick, all plan-ticks fire before all node-steps, and the
/// engine's adversary cut + routing happen between the node-steps and the
/// deliver events — which is exactly the synchronous engine's phase
/// pipeline, re-expressed as event classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// Consult the fault plan: churn transitions, partition-window
    /// advancement.  One per tick, self-rescheduling.
    PlanTick = 0,
    /// Run one node's protocol step.
    NodeStep = 1,
    /// Complete a deferred envelope delivery.
    Deliver = 2,
}

/// The total order on events: `(time, class, node, seq)`, lexicographic.
///
/// `time` is the virtual tick, `class` the event kind, `node` the owning
/// node (stepping node, or envelope recipient; 0 for plan ticks), and
/// `seq` a queue-assigned monotone counter that breaks the remaining ties
/// in first-pushed-first-fired order (it only ever decides between events
/// of the same class on the same node at the same tick — e.g. two
/// envelopes deferred to one recipient — where insertion order is itself
/// deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Virtual tick at which the event fires.
    pub time: u64,
    /// Event kind (orders the classes within a tick).
    pub class: EventClass,
    /// Owning node (tie-break within a class).
    pub node: u32,
    /// Queue-assigned monotone push counter (final tie-break).
    pub seq: u64,
}

/// One scheduled event.
#[derive(Clone, Debug)]
struct Event<E> {
    class: EventClass,
    node: u32,
    seq: u64,
    payload: E,
}

/// A bucket of events for one tick.
#[derive(Clone, Debug)]
struct TickBucket<E> {
    due: u64,
    items: Vec<Event<E>>,
}

/// Initial ring size (grown on demand, like [`DelayRing`](crate::DelayRing)).
const INITIAL_BUCKETS: usize = 8;

/// Hard cap on the ring: events further out than this window spill into a
/// `BTreeMap` side table, bounding ring memory no matter how far ahead a
/// fault plan defers an envelope.
const MAX_BUCKETS: usize = 4096;

/// A calendar queue of tick-bucketed events with the fixed total order of
/// [`EventKey`]; the discrete-event generalization of
/// [`DelayRing`](crate::DelayRing).
///
/// Buckets are a ring indexed by `tick % capacity` with a far-future
/// overflow side table (same memory discipline as the ring: drained
/// buckets keep their capacity, delays beyond the `MAX_BUCKETS` cap cost
/// O(events), never O(Δ)).  Unlike the ring, drained events come out
/// sorted by `(class, node, seq)` — *not* in insertion order — which is
/// what makes the drain order independent of how same-tick events were
/// interleaved at push time.
#[derive(Debug, Default)]
pub struct CalendarQueue<E> {
    buckets: Vec<TickBucket<E>>,
    overflow: BTreeMap<u64, Vec<Event<E>>>,
    scheduled: usize,
    next_seq: u64,
    /// Reusable sort buffer for class drains (capacity kept).
    drain_scratch: Vec<Event<E>>,
}

impl<E> CalendarQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS)
                .map(|_| TickBucket {
                    due: 0,
                    items: Vec::new(),
                })
                .collect(),
            overflow: BTreeMap::new(),
            scheduled: 0,
            next_seq: 0,
            drain_scratch: Vec::new(),
        }
    }

    /// Events currently scheduled (all classes).
    pub fn scheduled(&self) -> usize {
        self.scheduled
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.scheduled == 0
    }

    fn slot(&self, due: u64) -> usize {
        (due % self.buckets.len() as u64) as usize
    }

    /// Schedule `payload` as a `(time, class, node)` event.  Returns the
    /// key it was filed under (the `seq` component is queue-assigned).
    ///
    /// `time` may equal the tick currently being processed — the engine
    /// pushes recovery steps at the recovery tick itself — but classes
    /// already drained for that tick will not see the late event until
    /// their next drain, so callers must only push at the current tick
    /// for classes that have not yet drained (the engine drains classes
    /// in ascending order, which makes this easy to honour).
    ///
    /// # Panics
    ///
    /// Panics if `time < current`.  The ring files events by
    /// `time % capacity`, so an event pushed into the past would land in
    /// a bucket the drain cursor has already passed — silently lost until
    /// the tick counter wraps the ring, which is never.  A past push is
    /// always a caller bug (a mis-derived due tick), and losing an event
    /// would break the engines' determinism contract invisibly, so the
    /// queue refuses loudly instead of filing it as "due now".
    pub fn push(
        &mut self,
        current: u64,
        time: u64,
        class: EventClass,
        node: u32,
        payload: E,
    ) -> EventKey {
        assert!(
            time >= current,
            "CalendarQueue::push: event due at tick {time} is in the past \
             (current tick {current}); events cannot fire in the past"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Event {
            class,
            node,
            seq,
            payload,
        };
        self.scheduled += 1;
        // A tick that already has overflow items keeps accumulating there
        // (one side per tick keeps the drain complete in one pass).
        if !self.overflow.is_empty() {
            if let Some(spilled) = self.overflow.get_mut(&time) {
                spilled.push(event);
                return EventKey {
                    time,
                    class,
                    node,
                    seq,
                };
            }
        }
        let window = time.saturating_sub(current);
        if window >= MAX_BUCKETS as u64 {
            self.overflow.entry(time).or_default().push(event);
            return EventKey {
                time,
                class,
                node,
                seq,
            };
        }
        let window = window as usize;
        if window >= self.buckets.len() {
            self.grow(window + 1);
        }
        let mut event = Some(event);
        loop {
            let slot = self.slot(time);
            let bucket = &mut self.buckets[slot];
            if bucket.items.is_empty() {
                bucket.due = time;
            }
            if bucket.due == time {
                bucket.items.push(event.take().expect("pushed once"));
                return EventKey {
                    time,
                    class,
                    node,
                    seq,
                };
            }
            let doubled = 2 * self.buckets.len();
            if doubled > MAX_BUCKETS {
                self.overflow
                    .entry(time)
                    .or_default()
                    .push(event.take().expect("pushed once"));
                return EventKey {
                    time,
                    class,
                    node,
                    seq,
                };
            }
            self.grow(doubled);
        }
    }

    /// Move every event of `class` due at `tick` into `out`, sorted by
    /// `(node, seq)` — the [`EventKey`] order restricted to one
    /// `(time, class)` cell.  Events of other classes stay scheduled.
    ///
    /// `out` is cleared first; passing the same scratch vector every call
    /// keeps the drain allocation-free in steady state.
    pub fn drain_class_into(&mut self, tick: u64, class: EventClass, out: &mut Vec<(u32, E)>) {
        out.clear();
        if self.scheduled == 0 {
            return;
        }
        let mut scratch = std::mem::take(&mut self.drain_scratch);
        scratch.clear();
        let slot = self.slot(tick);
        let bucket = &mut self.buckets[slot];
        if bucket.due == tick && !bucket.items.is_empty() {
            extract_class(&mut bucket.items, class, &mut scratch);
        }
        if !self.overflow.is_empty() {
            let emptied = if let Some(spilled) = self.overflow.get_mut(&tick) {
                extract_class(spilled, class, &mut scratch);
                spilled.is_empty()
            } else {
                false
            };
            if emptied {
                self.overflow.remove(&tick);
            }
        }
        self.scheduled -= scratch.len();
        scratch.sort_by_key(|e| (e.node, e.seq));
        out.extend(scratch.drain(..).map(|e| (e.node, e.payload)));
        self.drain_scratch = scratch;
    }

    /// Drain *every* event due at `tick`, in full `(class, node, seq)`
    /// order.  This is the order contract the engine's per-class pipeline
    /// refines; the tie-break property test drives the queue through this
    /// entry point.
    pub fn drain_due(&mut self, tick: u64, mut consume: impl FnMut(EventKey, E)) {
        if self.scheduled == 0 {
            return;
        }
        let mut drained: Vec<Event<E>> = Vec::new();
        let slot = self.slot(tick);
        let bucket = &mut self.buckets[slot];
        if bucket.due == tick && !bucket.items.is_empty() {
            drained.append(&mut bucket.items);
        }
        if !self.overflow.is_empty() {
            if let Some(spilled) = self.overflow.remove(&tick) {
                drained.extend(spilled);
            }
        }
        self.scheduled -= drained.len();
        drained.sort_by_key(|e| (e.class, e.node, e.seq));
        for e in drained {
            consume(
                EventKey {
                    time: tick,
                    class: e.class,
                    node: e.node,
                    seq: e.seq,
                },
                e.payload,
            );
        }
    }

    /// The earliest tick at which any scheduled event fires, or `None`
    /// when the queue is empty.
    ///
    /// One pass over the ring's occupied buckets plus a first-key peek at
    /// the overflow table — O(capacity), not O(events).  The sparse-ticking
    /// engines consult it once per *executed* tick to find the next tick
    /// worth visiting, so over a run the total cost is O(events × ring
    /// capacity / events-per-tick), which is the O(events) shape the dense
    /// tick loop lacks.
    pub fn next_event_time(&self) -> Option<u64> {
        if self.scheduled == 0 {
            return None;
        }
        let ring_min = self
            .buckets
            .iter()
            .filter(|b| !b.items.is_empty())
            .map(|b| b.due)
            .min();
        let overflow_min = self.overflow.keys().next().copied();
        match (ring_min, overflow_min) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        }
    }

    /// Grow the ring to at least `min_buckets`, re-slotting outstanding
    /// buckets (same policy as [`DelayRing`](crate::DelayRing)).
    fn grow(&mut self, min_buckets: usize) {
        let new_len = min_buckets.next_power_of_two().max(2 * self.buckets.len());
        let old = std::mem::replace(
            &mut self.buckets,
            (0..new_len)
                .map(|_| TickBucket {
                    due: 0,
                    items: Vec::new(),
                })
                .collect(),
        );
        for bucket in old {
            if bucket.items.is_empty() {
                continue;
            }
            let slot = (bucket.due % new_len as u64) as usize;
            debug_assert!(self.buckets[slot].items.is_empty());
            self.buckets[slot] = bucket;
        }
    }
}

/// Move every event of `class` out of `items` into `into` (order within
/// `items` is irrelevant — callers sort by key afterwards).
fn extract_class<E>(items: &mut Vec<Event<E>>, class: EventClass, into: &mut Vec<Event<E>>) {
    let mut i = 0;
    while i < items.len() {
        if items[i].class == class {
            into.push(items.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Payload of a scheduled engine event (the class lives beside it in
/// [`Event`]; the two are kept consistent by construction).
enum EnginePayload<M> {
    /// Consult the fault plan for this tick.
    PlanTick,
    /// Step the owning node.
    NodeStep,
    /// Deliver a deferred envelope to the owning node.
    Deliver(Envelope<M>),
}

/// The event-driven asynchronous engine; see the module documentation.
pub struct AsyncEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol,
    A: Adversary<P>,
{
    topology: &'a T,
    states: Vec<P>,
    byzantine: Vec<bool>,
    adversary: A,
    config: EngineConfig,
    rngs: Vec<ChaCha8Rng>,
    adversary_rng: ChaCha8Rng,
    /// Per-node accumulating mailbox: everything delivered since the
    /// node's previous step (drained at each step; capacity kept).  The
    /// async replacement for the sync engine's double-buffered inboxes —
    /// with uniform clocks the two are indistinguishable, because every
    /// mailbox is drained every tick.
    mailboxes: Vec<Vec<Envelope<P::Message>>>,
    outboxes: Vec<Outbox<P::Message>>,
    actions: Vec<Action<P::Output>>,
    /// Per-node step period (from the [`ClockPlan`]).
    periods: Vec<u64>,
    /// Tick-scoped envelope arenas, gathered in node order (the queue's
    /// node tie-break), exactly like the sync engine's phase 2.
    honest_arena: Vec<Envelope<P::Message>>,
    byz_default: Vec<Envelope<P::Message>>,
    crashed_scratch: Vec<bool>,
    statuses: Vec<NodeStatus>,
    outputs: Vec<Option<P::Output>>,
    decided_round: Vec<Option<u64>>,
    metrics: RunMetrics,
    /// Fully processed ticks (the async generalization of the round
    /// counter; reported as `rounds`).
    time: u64,
    queue: CalendarQueue<EnginePayload<P::Message>>,
    /// Reusable drain scratch (cleared by the queue on every drain).
    scratch: Vec<(u32, EnginePayload<P::Message>)>,
    /// Deferred envelopes currently scheduled as deliver events; whatever
    /// remains when the run stops has expired.
    deferred_in_flight: u64,
    /// Whether the adversary licensed sparse ticking
    /// ([`Adversary::idle_passive`], cached at construction).  When a
    /// fault plan is installed its self-rescheduling plan-tick event makes
    /// every tick an event tick, so the flag alone never causes a skip
    /// the plan would have observed.
    skip_enabled: bool,
    /// Idle ticks jumped over by [`advance`](Self::advance) without being
    /// executed (they still count into `metrics.rounds`).
    ticks_skipped: u64,
    fault_plan: Option<Box<dyn FaultPlan>>,
    reset_state: Option<Box<dyn Fn(usize) -> P + Send>>,
    churned_down: Vec<bool>,
    /// Optional observer (tick phases map onto the synchronous phase
    /// vocabulary; the calendar-queue occupancy is this engine's extra
    /// gauge).  `None` costs one branch per phase boundary.
    recorder: Option<&'a dyn Recorder>,
}

impl<'a, T, P, A> AsyncEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol + Sync,
    P::Output: Send,
    A: Adversary<P>,
{
    /// Create an engine with the given clock plan.
    ///
    /// # Panics
    /// Panics if `states.len()` or `byzantine.len()` differ from the
    /// topology size.
    pub fn new(
        topology: &'a T,
        states: Vec<P>,
        byzantine: Vec<bool>,
        adversary: A,
        config: EngineConfig,
        seed: u64,
        clocks: ClockPlan,
    ) -> Self {
        let n = topology.len();
        assert_eq!(states.len(), n, "one protocol state per node required");
        assert_eq!(byzantine.len(), n, "byzantine mask must cover every node");
        // Node RNG streams are derived per node exactly as in `SyncEngine`
        // — the clock plan must never reach the protocol randomness.
        let rngs = (0..n)
            .map(|i| ChaCha8Rng::seed_from_u64(splitmix(seed, i as u64)))
            .collect();
        let periods: Vec<u64> = (0..n).map(|i| clocks.period_of(i, seed)).collect();
        let mut queue = CalendarQueue::new();
        for (i, _) in periods.iter().enumerate() {
            queue.push(
                0,
                0,
                EventClass::NodeStep,
                i as u32,
                EnginePayload::NodeStep,
            );
        }
        let skip_enabled = adversary.idle_passive();
        AsyncEngine {
            topology,
            states,
            byzantine,
            adversary,
            config,
            rngs,
            adversary_rng: ChaCha8Rng::seed_from_u64(splitmix(seed, u64::MAX)),
            mailboxes: vec![Vec::new(); n],
            outboxes: (0..n).map(|_| Outbox::new()).collect(),
            actions: vec![Action::Continue; n],
            periods,
            honest_arena: Vec::new(),
            byz_default: Vec::new(),
            crashed_scratch: Vec::with_capacity(n),
            statuses: vec![NodeStatus::Active; n],
            outputs: vec![None; n],
            decided_round: vec![None; n],
            metrics: RunMetrics::default(),
            time: 0,
            queue,
            scratch: Vec::new(),
            deferred_in_flight: 0,
            skip_enabled,
            ticks_skipped: 0,
            fault_plan: None,
            reset_state: None,
            churned_down: vec![false; n],
            recorder: None,
        }
    }

    /// Attach a [`Recorder`]; see
    /// [`SyncEngine::with_recorder`](crate::SyncEngine::with_recorder).
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// [`with_recorder`](Self::with_recorder) that is a no-op for `None`.
    pub fn with_recorder_opt(mut self, recorder: Option<&'a dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Install a [`FaultPlan`]; see
    /// [`SyncEngine::with_fault_plan`](crate::SyncEngine::with_fault_plan).
    /// Also schedules the self-rescheduling plan-tick event that consults
    /// the plan once per tick.
    pub fn with_fault_plan(mut self, plan: Box<dyn FaultPlan>) -> Self
    where
        P: Clone + Send + 'static,
    {
        let pristine: Vec<P> = self.states.clone();
        self.reset_state = Some(Box::new(move |i| pristine[i].clone()));
        self.fault_plan = Some(plan);
        self.queue.push(
            self.time,
            self.time,
            EventClass::PlanTick,
            0,
            EnginePayload::PlanTick,
        );
        self
    }

    /// [`with_fault_plan`](Self::with_fault_plan) that is a no-op for
    /// `None`.
    pub fn with_fault_plan_opt(self, plan: Option<Box<dyn FaultPlan>>) -> Self
    where
        P: Clone + Send + 'static,
    {
        match plan {
            Some(plan) => self.with_fault_plan(plan),
            None => self,
        }
    }

    /// Mark nodes as crashed before the first tick; see
    /// [`SyncEngine::with_initial_crashes`](crate::SyncEngine::with_initial_crashes).
    pub fn with_initial_crashes(mut self, crashed: &[bool]) -> Self {
        assert_eq!(
            crashed.len(),
            self.statuses.len(),
            "crash mask must cover every node"
        );
        for (status, &is_crashed) in self.statuses.iter_mut().zip(crashed) {
            if is_crashed {
                *status = NodeStatus::Crashed;
            }
        }
        self
    }

    /// The current virtual tick (number of ticks fully executed,
    /// including skipped idle ticks).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Idle ticks jumped over by the sparse-ticking skip so far.  Always
    /// zero under dense execution ([`step_tick`](Self::step_tick) in a
    /// loop), under a fault plan (its self-rescheduling plan-tick event
    /// occupies every tick), or when the adversary did not opt into
    /// [`Adversary::idle_passive`].
    pub fn ticks_skipped(&self) -> u64 {
        self.ticks_skipped
    }

    /// The per-node step periods resolved from the clock plan.
    pub fn periods(&self) -> &[u64] {
        &self.periods
    }

    /// Read access to the per-node protocol states (for instrumentation).
    pub fn states(&self) -> &[P] {
        &self.states
    }

    /// Node statuses so far.
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.statuses
    }

    /// Whether the stop condition has been reached (`max_rounds` caps the
    /// tick count; the all-decided check is the sync engine's, verbatim).
    pub fn finished(&self) -> bool {
        if self.time >= self.config.max_rounds {
            return true;
        }
        if self.config.stop_when_all_decided {
            let all_done = self
                .statuses
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.byzantine[*i])
                .all(|(_, s)| *s != NodeStatus::Active);
            if all_done {
                return true;
            }
        }
        false
    }

    /// Execute one virtual tick.  Returns `false` when the stop condition
    /// has been reached (the tick is still executed).
    pub fn step_tick(&mut self) -> bool {
        let n = self.topology.len();
        self.metrics.begin_round();
        let tick = self.time;

        // Observability: the tick maps onto the synchronous phase
        // vocabulary (plan tick = churn, class-1 drain = node-step, cut +
        // action application = adversary-cut, delivery = routing, class-2
        // drain = deferred-drain), all under tid 0.
        let rec = self.recorder;
        let snap = rec.map(|_| MetricsSnap::of(&self.metrics));
        if let Some(rec) = rec {
            rec.phase_begin(0, tick, Phase::Round);
            rec.phase_begin(0, tick, Phase::Churn);
        }

        // Class 0 — plan tick: churn transitions requested by the fault
        // plan, in plan order (identical to the sync engine's phase 0;
        // this is also where round-windowed plan behaviour such as
        // partitions advances).  The event reschedules itself for the next
        // tick, so the plan's RNG streams stay tick-indexed no matter what
        // the node clocks do.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.queue
            .drain_class_into(tick, EventClass::PlanTick, &mut scratch);
        if !scratch.is_empty() {
            self.queue.push(
                tick,
                tick + 1,
                EventClass::PlanTick,
                0,
                EnginePayload::PlanTick,
            );
            if let Some(plan) = self.fault_plan.as_mut() {
                for event in plan.begin_round(tick) {
                    match event {
                        ChurnEvent::Crash(v) => {
                            let i = v.index();
                            if i < n
                                && !self.byzantine[i]
                                && self.statuses[i] != NodeStatus::Crashed
                            {
                                self.statuses[i] = NodeStatus::Crashed;
                                self.churned_down[i] = true;
                                self.metrics.record_churn_crash();
                            }
                        }
                        ChurnEvent::Recover(v) => {
                            let i = v.index();
                            // Only churn-injected crashes are recoverable;
                            // see the sync engine.
                            if i < n
                                && self.churned_down[i]
                                && self.statuses[i] == NodeStatus::Crashed
                            {
                                if let Some(reset) = self.reset_state.as_ref() {
                                    self.states[i] = reset(i);
                                    self.outputs[i] = None;
                                    self.decided_round[i] = None;
                                    self.statuses[i] = NodeStatus::Active;
                                    self.churned_down[i] = false;
                                    self.mailboxes[i].clear();
                                    self.metrics.record_churn_recovery();
                                }
                            }
                        }
                    }
                }
            }
        }

        if let Some(rec) = rec {
            rec.phase_end(0, tick, Phase::Churn);
            rec.phase_begin(0, tick, Phase::NodeStep);
        }

        // Class 1 — node steps, in node order (the queue's tie-break).
        // Each due node consumes its accumulated mailbox, fills its
        // engine-owned outbox, and its envelopes move straight into the
        // tick arenas — still in global node order, because the steps
        // themselves are.  Crashed nodes skip the step but keep their
        // cadence (the event reschedules unconditionally), so a node
        // recovered by churn resumes on its original clock phase.
        self.honest_arena.clear();
        self.byz_default.clear();
        self.queue
            .drain_class_into(tick, EventClass::NodeStep, &mut scratch);
        let mut stepped = 0u64;
        for &(node, _) in scratch.iter() {
            let i = node as usize;
            self.queue.push(
                tick,
                tick + self.periods[i],
                EventClass::NodeStep,
                node,
                EnginePayload::NodeStep,
            );
            if self.statuses[i] == NodeStatus::Crashed {
                self.actions[i] = Action::Continue;
                continue;
            }
            let id = NodeId::from_index(i);
            let outbox = &mut self.outboxes[i];
            outbox.clear();
            let mailbox = std::mem::take(&mut self.mailboxes[i]);
            let ctx = NodeContext {
                id,
                round: tick,
                neighbors: self.topology.neighbors(id),
                decided: self.outputs[i].is_some(),
            };
            self.actions[i] = self.states[i].step(&ctx, &mailbox, outbox, &mut self.rngs[i]);
            stepped += 1;
            let mut mailbox = mailbox;
            mailbox.clear();
            self.mailboxes[i] = mailbox;
            let target: &mut Vec<Envelope<P::Message>> = if self.byzantine[i] {
                &mut self.byz_default
            } else {
                &mut self.honest_arena
            };
            outbox.drain_envelopes(id, |env| target.push(env));
        }

        if let Some(rec) = rec {
            rec.add(0, tick, Counter::NodeSteps, stepped);
            rec.phase_end(0, tick, Phase::NodeStep);
            rec.phase_begin(0, tick, Phase::AdversaryCut);
        }

        // Adversary cut: one full-information `act` per tick, every tick,
        // over the envelopes gathered above (sync engine's phase 2).
        self.crashed_scratch.clear();
        self.crashed_scratch
            .extend(self.statuses.iter().map(|s| *s == NodeStatus::Crashed));
        let decision = {
            let view = AdversaryView {
                round: tick,
                byzantine: &self.byzantine,
                crashed: &self.crashed_scratch,
                states: &self.states,
                honest_messages: &self.honest_arena,
                byzantine_default_messages: &self.byz_default,
            };
            self.adversary.act(&view, &mut self.adversary_rng)
        };

        // Apply actions (honest nodes only; sync engine's phase 3).  Nodes
        // that did not step this tick hold `Continue` — their previous
        // action was consumed when it was applied.
        for i in 0..n {
            if self.byzantine[i] || self.statuses[i] == NodeStatus::Crashed {
                continue;
            }
            match std::mem::replace(&mut self.actions[i], Action::Continue) {
                Action::Continue => {}
                Action::Decide(output) => {
                    if self.outputs[i].is_none() {
                        self.outputs[i] = Some(output);
                        self.decided_round[i] = Some(tick);
                        self.statuses[i] = NodeStatus::Decided;
                    }
                }
                Action::Crash => {
                    self.statuses[i] = NodeStatus::Crashed;
                }
            }
        }

        if let Some(rec) = rec {
            rec.gauge(
                0,
                tick,
                Gauge::HonestArenaHighWater,
                self.honest_arena.len() as u64,
            );
            rec.gauge(
                0,
                tick,
                Gauge::ByzArenaHighWater,
                self.byz_default.len() as u64,
            );
            rec.phase_end(0, tick, Phase::AdversaryCut);
            rec.phase_begin(0, tick, Phase::Routing);
        }

        // Routing: validate, account and deliver — honest arena first,
        // then the Byzantine path, with the fault plan consulted per
        // envelope in exactly the sync engine's phase-4 order (its RNG
        // stream depends on it).  Immediate deliveries land in mailboxes
        // now; deferred ones become deliver events at their due tick.
        let mut honest = std::mem::take(&mut self.honest_arena);
        for env in honest.drain(..) {
            self.deliver(tick, env, false);
        }
        self.honest_arena = honest;
        match decision {
            AdversaryDecision::FollowProtocol => {
                let mut byz = std::mem::take(&mut self.byz_default);
                for env in byz.drain(..) {
                    self.deliver(tick, env, false);
                }
                self.byz_default = byz;
            }
            AdversaryDecision::Replace(msgs) => {
                for env in msgs {
                    self.deliver(tick, env, true);
                }
            }
        }

        if let Some(rec) = rec {
            rec.phase_end(0, tick, Phase::Routing);
            rec.phase_begin(0, tick, Phase::DeferredDrain);
        }

        // Class 2 — deferred deliveries due this tick (sync engine's phase
        // 5).  An envelope whose recipient crashed while it was in flight
        // expires here, never delivered.
        self.queue
            .drain_class_into(tick, EventClass::Deliver, &mut scratch);
        for (node, payload) in scratch.drain(..) {
            let EnginePayload::Deliver(env) = payload else {
                unreachable!("Deliver events always carry an envelope");
            };
            self.deferred_in_flight -= 1;
            if self.statuses[node as usize] == NodeStatus::Crashed {
                self.metrics.record_fault_expired(1);
            } else {
                self.metrics.record_delivery(env.payload.message_size());
                self.mailboxes[node as usize].push(env);
            }
        }
        self.scratch = scratch;

        if let Some(rec) = rec {
            rec.phase_end(0, tick, Phase::DeferredDrain);
            rec.gauge(0, tick, Gauge::DelayRingPending, self.deferred_in_flight);
            rec.gauge(
                0,
                tick,
                Gauge::CalendarOccupancy,
                self.queue.scheduled() as u64,
            );
            emit_metric_deltas(
                rec,
                0,
                tick,
                snap.expect("snapshotted with recorder"),
                MetricsSnap::of(&self.metrics),
            );
            rec.add(0, tick, Counter::Rounds, 1);
            rec.phase_end(0, tick, Phase::Round);
        }

        self.time += 1;
        !self.finished()
    }

    /// Validate, account and deliver (or lose / defer) one envelope queued
    /// at `tick` (mirrors `SyncEngine::deliver`; the validation rules are
    /// literally shared via `envelope_admissible`).
    fn deliver(&mut self, tick: u64, env: Envelope<P::Message>, authored_by_adversary: bool) {
        if !envelope_admissible(
            self.topology,
            &self.statuses,
            &self.byzantine,
            &env,
            authored_by_adversary,
        ) {
            self.metrics.record_drop();
            return;
        }
        let fate = match self.fault_plan.as_mut() {
            Some(plan) if !self.byzantine[env.from.index()] => {
                plan.envelope_fate(tick, env.from, env.to)
            }
            _ => EnvelopeFate::Deliver,
        };
        match fate {
            // `Delay(0)` accounts as plain delivery in every engine (see
            // the cross-engine regression test in `sharded_async`).
            EnvelopeFate::Deliver | EnvelopeFate::Delay(0) => {
                self.metrics.record_delivery(env.payload.message_size());
                self.mailboxes[env.to.index()].push(env);
            }
            EnvelopeFate::Drop => self.metrics.record_fault_loss(),
            EnvelopeFate::Delay(delay) => {
                self.metrics.record_fault_delay();
                self.deferred_in_flight += 1;
                let to = env.to.0;
                self.queue.push(
                    tick,
                    tick + delay,
                    EventClass::Deliver,
                    to,
                    EnginePayload::Deliver(env),
                );
            }
        }
    }

    /// Jump over the span of dead ticks ahead of the current tick —
    /// ticks at which no event fires — performing the bulk accounting
    /// dense execution would have produced tick by tick.
    ///
    /// Only runs when the adversary opted into
    /// [`Adversary::idle_passive`]: an idle tick's only side effects are
    /// then `metrics.begin_round()` (an empty per-round slot), the
    /// recorder's `Rounds` increment, and `time += 1` — every one of
    /// which this skip replays in bulk, so a skipped span is
    /// observationally identical to executing the empty ticks.  With a
    /// fault plan installed the self-rescheduling plan-tick event is due
    /// every tick, so `next_event_time()` never exceeds the current tick
    /// and the skip is a no-op — plan RNG streams stay tick-indexed by
    /// construction, not by special-casing.
    fn skip_idle_ticks(&mut self) {
        if !self.skip_enabled {
            return;
        }
        let target = self
            .queue
            .next_event_time()
            .unwrap_or(self.config.max_rounds)
            .min(self.config.max_rounds);
        if target <= self.time {
            return;
        }
        let skipped = target - self.time;
        self.metrics.skip_rounds(skipped);
        self.ticks_skipped += skipped;
        if let Some(rec) = self.recorder {
            // Skipped ticks are completed ticks: trace-derived `rounds`
            // totals must keep matching `RunMetrics` bit-for-bit.
            rec.add(0, self.time, Counter::Rounds, skipped);
            rec.add(0, self.time, Counter::TicksSkipped, skipped);
        }
        self.time = target;
    }

    /// Advance to the next tick at which anything can happen and execute
    /// it: [`step_tick`](Self::step_tick) preceded by the sparse skip
    /// over idle ticks.  Returns `false` when the stop condition has been
    /// reached (possibly by the skip alone — the skip never crosses
    /// `max_rounds`).  This is what [`run`](Self::run) iterates; calling
    /// `step_tick` directly instead yields dense execution with
    /// byte-identical results.
    pub fn advance(&mut self) -> bool {
        self.skip_idle_ticks();
        if self.finished() {
            return false;
        }
        self.step_tick()
    }

    /// Run until the stop condition and return the result.
    pub fn run(mut self) -> RunResult<P::Output> {
        while !self.finished() {
            self.advance();
        }
        self.into_result()
    }

    /// Consume the engine and produce the result without running further.
    /// Deferred envelopes still scheduled — delayed past the run's final
    /// tick — count as expired, never delivered.
    pub fn into_result(mut self) -> RunResult<P::Output> {
        if self.deferred_in_flight > 0 {
            self.metrics.record_fault_expired(self.deferred_in_flight);
            if let Some(rec) = self.recorder {
                // Mirror the end-of-run expiries so trace-derived totals
                // keep matching `RunMetrics` bit-for-bit.
                rec.add(
                    0,
                    self.time,
                    Counter::MessagesExpired,
                    self.deferred_in_flight,
                );
            }
        }
        let completed = self
            .statuses
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.byzantine[*i])
            .all(|(_, s)| *s != NodeStatus::Active);
        let crashed = self
            .statuses
            .iter()
            .map(|s| *s == NodeStatus::Crashed)
            .collect();
        RunResult {
            outputs: self.outputs,
            decided_round: self.decided_round,
            crashed,
            statuses: self.statuses,
            metrics: self.metrics,
            completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::engine::SyncEngine;
    use crate::testkit::{assert_results_equal, flood_states, line_graph, MaxFlood, Shouter};
    use netsim_faults::FaultSpec;
    use netsim_graph::Csr;

    // -- CalendarQueue ------------------------------------------------------

    #[test]
    fn queue_drains_in_class_node_seq_order_regardless_of_insertion_order() {
        // Two insertion permutations of the same same-tick event set must
        // drain identically: the order is the key, not the push history.
        let events = [
            (EventClass::Deliver, 3u32, "d3"),
            (EventClass::NodeStep, 7, "s7"),
            (EventClass::PlanTick, 0, "p"),
            (EventClass::NodeStep, 2, "s2"),
            (EventClass::Deliver, 1, "d1"),
        ];
        let drain = |order: &[usize]| {
            let mut q: CalendarQueue<&'static str> = CalendarQueue::new();
            for &i in order {
                let (class, node, tag) = events[i];
                q.push(0, 5, class, node, tag);
            }
            let mut out = Vec::new();
            q.drain_due(5, |key, tag| out.push((key.class, key.node, tag)));
            assert!(q.is_empty());
            out
        };
        let a = drain(&[0, 1, 2, 3, 4]);
        let b = drain(&[4, 3, 2, 1, 0]);
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![
                (EventClass::PlanTick, 0, "p"),
                (EventClass::NodeStep, 2, "s2"),
                (EventClass::NodeStep, 7, "s7"),
                (EventClass::Deliver, 1, "d1"),
                (EventClass::Deliver, 3, "d3"),
            ]
        );
    }

    #[test]
    fn queue_seq_preserves_fifo_for_equal_keys() {
        // Two envelopes to the same recipient due the same tick keep their
        // push order — `seq` is the last tie-break.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(0, 2, EventClass::Deliver, 4, 100);
        q.push(0, 2, EventClass::Deliver, 4, 200);
        let mut out = Vec::new();
        q.drain_due(2, |_, v| out.push(v));
        assert_eq!(out, vec![100, 200]);
    }

    #[test]
    fn queue_far_future_events_take_the_overflow_path() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(0, u64::MAX / 2, EventClass::Deliver, 0, 1);
        q.push(0, 1_000_000_000, EventClass::Deliver, 0, 2);
        q.push(0, 3, EventClass::Deliver, 0, 3);
        assert_eq!(q.scheduled(), 3);
        assert!(q.buckets.len() <= MAX_BUCKETS);
        let mut out = Vec::new();
        q.drain_due(3, |_, v| out.push(v));
        q.drain_due(1_000_000_000, |_, v| out.push(v));
        q.drain_due(u64::MAX / 2, |_, v| out.push(v));
        assert_eq!(out, vec![3, 2, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_class_drains_leave_other_classes_scheduled() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(0, 1, EventClass::NodeStep, 2, 20);
        q.push(0, 1, EventClass::Deliver, 1, 10);
        q.push(0, 1, EventClass::NodeStep, 0, 0);
        let mut scratch = Vec::new();
        q.drain_class_into(1, EventClass::NodeStep, &mut scratch);
        assert_eq!(
            scratch.iter().map(|(n, v)| (*n, *v)).collect::<Vec<_>>(),
            vec![(0, 0), (2, 20)]
        );
        assert_eq!(q.scheduled(), 1, "the deliver event must stay scheduled");
        q.drain_class_into(1, EventClass::Deliver, &mut scratch);
        assert_eq!(scratch.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "events cannot fire in the past")]
    fn queue_rejects_pushes_into_the_past() {
        // Regression: a push with `time < current` used to be silently
        // filed as "due now" (`time.saturating_sub(current)` == 0) into a
        // ring bucket the drain had already passed, losing the event.  The
        // queue must refuse loudly instead.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(10, 9, EventClass::Deliver, 0, 1);
    }

    #[test]
    fn queue_next_event_time_tracks_ring_and_overflow() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.next_event_time(), None, "empty queue has no next event");
        // Far-future first: the overflow table alone answers.
        q.push(0, 1_000_000, EventClass::Deliver, 0, 1);
        assert_eq!(q.next_event_time(), Some(1_000_000));
        // A nearer ring event wins the min.
        q.push(0, 7, EventClass::NodeStep, 2, 2);
        assert_eq!(q.next_event_time(), Some(7));
        q.push(0, 3, EventClass::PlanTick, 0, 3);
        assert_eq!(q.next_event_time(), Some(3));
        // Draining the nearest tick advances the answer.
        let mut scratch = Vec::new();
        q.drain_class_into(3, EventClass::PlanTick, &mut scratch);
        assert_eq!(q.next_event_time(), Some(7));
        q.drain_class_into(7, EventClass::NodeStep, &mut scratch);
        assert_eq!(
            q.next_event_time(),
            Some(1_000_000),
            "only the overflow event remains"
        );
        q.drain_class_into(1_000_000, EventClass::Deliver, &mut scratch);
        assert_eq!(q.next_event_time(), None);
    }

    // -- ClockPlan ----------------------------------------------------------

    #[test]
    fn clock_plans_resolve_and_validate() {
        assert_eq!(ClockPlan::Uniform.period_of(17, 9), 1);
        assert!(ClockPlan::Uniform.is_synchronous());
        let strat = ClockPlan::Stratified {
            every: 3,
            period: 4,
        };
        assert_eq!(strat.period_of(0, 9), 4);
        assert_eq!(strat.period_of(1, 9), 1);
        assert_eq!(strat.period_of(3, 9), 4);
        assert!(!strat.is_synchronous());
        assert!(strat.validate().is_ok());
        assert!(ClockPlan::Stratified {
            every: 0,
            period: 2
        }
        .validate()
        .is_err());
        assert!(ClockPlan::Stratified {
            every: 2,
            period: 0
        }
        .validate()
        .is_err());
        assert!(ClockPlan::Jittered { max_period: 0 }.validate().is_err());
        let jitter = ClockPlan::Jittered { max_period: 3 };
        assert!(jitter.validate().is_ok());
        for node in 0..50 {
            let p = jitter.period_of(node, 123);
            assert!((1..=3).contains(&p));
            assert_eq!(p, jitter.period_of(node, 123), "seed-deterministic");
        }
        assert!(ClockPlan::Jittered { max_period: 1 }.is_synchronous());
        assert_eq!(ClockPlan::Uniform.describe(), "uniform");
        assert_eq!(strat.describe(), "strat-3x4");
        assert_eq!(jitter.describe(), "jitter-3");
    }

    // -- Sync parity --------------------------------------------------------

    #[test]
    fn uniform_clocks_match_the_sync_engine_on_clean_runs() {
        let n = 24;
        let g = line_graph(n);
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 3 * n as u64),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            42,
        )
        .run();
        let asynced = AsyncEngine::new(
            &g,
            flood_states(n, 3 * n as u64),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            42,
            ClockPlan::Uniform,
        )
        .run();
        assert_results_equal(&reference, &asynced, "clean uniform clocks");
    }

    #[test]
    fn uniform_clocks_match_the_sync_engine_under_the_full_fault_stack() {
        let n = 32;
        let g = line_graph(n);
        let spec = FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.15 },
            FaultSpec::Delay {
                max_delay: 3,
                rate: 0.3,
            },
            FaultSpec::Churn {
                rate: 0.04,
                downtime: 3,
            },
            FaultSpec::Partition {
                start: 2,
                duration: 5,
            },
        ]);
        let plan = |seed: u64| {
            spec.build_plan(n, &vec![true; n], seed ^ 0xFA17)
                .expect("plan")
        };
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 90),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            7,
        )
        .with_fault_plan(plan(7))
        .run();
        let asynced = AsyncEngine::new(
            &g,
            flood_states(n, 90),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            7,
            ClockPlan::Uniform,
        )
        .with_fault_plan(plan(7))
        .run();
        assert_results_equal(&reference, &asynced, "faulty uniform clocks");
        assert!(
            reference.metrics.messages_lost > 0 && reference.metrics.messages_delayed > 0,
            "the fault stack must actually have fired for this test to mean anything"
        );
    }

    #[test]
    fn uniform_clocks_match_the_sync_engine_under_an_adversary() {
        let n = 16;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        byz[9] = true;
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 30),
            byz.clone(),
            Shouter,
            EngineConfig::default(),
            3,
        )
        .run();
        let asynced = AsyncEngine::new(
            &g,
            flood_states(n, 30),
            byz.clone(),
            Shouter,
            EngineConfig::default(),
            3,
            ClockPlan::Uniform,
        )
        .run();
        assert_results_equal(&reference, &asynced, "adversarial uniform clocks");
        assert!(reference.metrics.messages_dropped > 0);
    }

    #[test]
    fn uniform_clocks_match_the_sync_engine_with_initial_crashes() {
        let n = 16;
        let g = line_graph(n);
        let mut crashed = vec![false; n];
        crashed[3] = true;
        crashed[12] = true;
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 50),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            5,
        )
        .with_initial_crashes(&crashed)
        .run();
        let asynced = AsyncEngine::new(
            &g,
            flood_states(n, 50),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            5,
            ClockPlan::Uniform,
        )
        .with_initial_crashes(&crashed)
        .run();
        assert_results_equal(&reference, &asynced, "initial crashes");
    }

    // -- Expiry regressions -------------------------------------------------

    #[test]
    fn envelopes_delayed_past_the_final_tick_expire_and_are_never_delivered() {
        // Regression test for the async expiry path: a deliver event still
        // scheduled when the run stops counts as `messages_expired`, never
        // delivered — equal to the sync engine on synchronous specs.
        struct DelayOne;
        impl FaultPlan for DelayOne {
            fn envelope_fate(&mut self, round: u64, from: NodeId, to: NodeId) -> EnvelopeFate {
                if round == 0 && from == NodeId(3) && to == NodeId(4) {
                    EnvelopeFate::Delay(1000)
                } else {
                    EnvelopeFate::Deliver
                }
            }
        }
        let n = 8;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 4,
            stop_when_all_decided: true,
        };
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 1000),
            vec![false; n],
            NullAdversary,
            cfg,
            11,
        )
        .with_fault_plan(Box::new(DelayOne))
        .run();
        let asynced = AsyncEngine::new(
            &g,
            flood_states(n, 1000),
            vec![false; n],
            NullAdversary,
            cfg,
            11,
            ClockPlan::Uniform,
        )
        .with_fault_plan(Box::new(DelayOne))
        .run();
        assert_results_equal(&reference, &asynced, "expiry at the cap");
        assert_eq!(asynced.metrics.messages_delayed, 1);
        assert_eq!(
            asynced.metrics.messages_expired, 1,
            "the deferred envelope must expire at the cap, not deliver"
        );
    }

    #[test]
    fn envelopes_delayed_to_a_recipient_that_crashes_in_flight_expire() {
        // The delayed-then-crashed-recipient case: the deliver event fires
        // at its due tick, finds the recipient crashed, and expires.
        struct DelayThenCrash;
        impl FaultPlan for DelayThenCrash {
            fn begin_round(&mut self, round: u64) -> Vec<ChurnEvent> {
                if round == 1 {
                    vec![ChurnEvent::Crash(NodeId(1))]
                } else {
                    Vec::new()
                }
            }
            fn envelope_fate(&mut self, round: u64, _from: NodeId, to: NodeId) -> EnvelopeFate {
                if round == 0 && to == NodeId(1) {
                    EnvelopeFate::Delay(2)
                } else {
                    EnvelopeFate::Deliver
                }
            }
        }
        let n = 4;
        let g = line_graph(n);
        let run_async = || {
            AsyncEngine::new(
                &g,
                flood_states(n, 12),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                6,
                ClockPlan::Uniform,
            )
            .with_fault_plan(Box::new(DelayThenCrash))
            .run()
        };
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 12),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            6,
        )
        .with_fault_plan(Box::new(DelayThenCrash))
        .run();
        let asynced = run_async();
        assert_results_equal(&reference, &asynced, "delay-then-crash expiry");
        assert!(asynced.crashed[1]);
        assert!(asynced.metrics.messages_expired > 0);
        assert_eq!(
            asynced.metrics.messages_delayed, asynced.metrics.messages_expired,
            "every deferred envelope was addressed to the crashed node"
        );
    }

    #[test]
    fn delay_past_a_slow_receivers_last_step_expires_at_the_cap() {
        // Heterogeneous leg of the expiry regression: the receiver's clock
        // is so slow it never steps again, and the envelope's due tick
        // lies past the cap — it must expire, never deliver, and never
        // count toward the delivered metrics.
        struct DelayFar;
        impl FaultPlan for DelayFar {
            fn envelope_fate(&mut self, round: u64, _from: NodeId, to: NodeId) -> EnvelopeFate {
                if round == 0 && to == NodeId(0) {
                    EnvelopeFate::Delay(500)
                } else {
                    EnvelopeFate::Deliver
                }
            }
        }
        let n = 6;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 10,
            stop_when_all_decided: true,
        };
        let result = AsyncEngine::new(
            &g,
            flood_states(n, 1000),
            vec![false; n],
            NullAdversary,
            cfg,
            3,
            // Node 0 is the slow stratum: one step every 64 ticks, so its
            // only step inside the cap is tick 0.
            ClockPlan::Stratified {
                every: 6,
                period: 64,
            },
        )
        .with_fault_plan(Box::new(DelayFar))
        .run();
        assert_eq!(result.metrics.messages_delayed, 1);
        assert_eq!(result.metrics.messages_expired, 1);
        assert_eq!(
            result.metrics.messages_delayed,
            result.metrics.messages_expired
        );
    }

    // -- Genuinely asynchronous behaviour ------------------------------------

    #[test]
    fn heterogeneous_clocks_are_deterministic_and_slow_nodes_step_less() {
        let n = 24;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 40,
            stop_when_all_decided: true,
        };
        let run = || {
            AsyncEngine::new(
                &g,
                flood_states(n, 30),
                vec![false; n],
                NullAdversary,
                cfg,
                9,
                ClockPlan::Stratified {
                    every: 4,
                    period: 3,
                },
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_results_equal(&a, &b, "heterogeneous determinism");
        // Slow nodes genuinely change the execution: the run differs from
        // the synchronous one.
        let sync = SyncEngine::new(
            &g,
            flood_states(n, 30),
            vec![false; n],
            NullAdversary,
            cfg,
            9,
        )
        .run();
        assert_ne!(
            a.metrics, sync.metrics,
            "stratified clocks must actually change the execution"
        );
    }

    #[test]
    fn jittered_clocks_derive_from_the_seed() {
        let n = 16;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 60,
            stop_when_all_decided: true,
        };
        let run = |seed: u64| {
            AsyncEngine::new(
                &g,
                flood_states(n, 40),
                vec![false; n],
                NullAdversary,
                cfg,
                seed,
                ClockPlan::Jittered { max_period: 4 },
            )
            .run()
        };
        let a = run(5);
        let b = run(5);
        assert_results_equal(&a, &b, "jittered determinism");
        let c = run(6);
        assert_ne!(
            (a.outputs, a.metrics),
            (c.outputs, c.metrics),
            "a different seed draws different periods and values"
        );
    }

    #[test]
    fn mailboxes_batch_arrivals_between_slow_steps() {
        // A slow node consumes everything that arrived since its previous
        // step in one batch — the max still propagates through it, just
        // later than on uniform clocks.
        let n = 12;
        let g = line_graph(n);
        let result = AsyncEngine::new(
            &g,
            flood_states(n, 8 * n as u64),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            21,
            ClockPlan::Stratified {
                every: 3,
                period: 4,
            },
        )
        .run();
        assert!(result.completed);
        let first = result.outputs[0].unwrap();
        assert!(
            result.outputs.iter().all(|o| *o == Some(first)),
            "the network max must still reach every node through slow hops"
        );
    }

    #[test]
    fn churned_nodes_resume_on_their_clock_phase() {
        use netsim_faults::{ChurnEvent, FaultPlan};
        struct Script;
        impl FaultPlan for Script {
            fn begin_round(&mut self, round: u64) -> Vec<ChurnEvent> {
                match round {
                    1 => vec![ChurnEvent::Crash(NodeId(2))],
                    4 => vec![ChurnEvent::Recover(NodeId(2))],
                    _ => Vec::new(),
                }
            }
        }
        let n = 8;
        let g = line_graph(n);
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 3 * n as u64),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            17,
        )
        .with_fault_plan(Box::new(Script))
        .run();
        let asynced = AsyncEngine::new(
            &g,
            flood_states(n, 3 * n as u64),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            17,
            ClockPlan::Uniform,
        )
        .with_fault_plan(Box::new(Script))
        .run();
        assert_results_equal(&reference, &asynced, "churn rejoin parity");
        assert_eq!(asynced.metrics.churn_crashes, 1);
        assert_eq!(asynced.metrics.churn_recoveries, 1);
        assert!(!asynced.crashed[2], "node 2 rejoined");
    }

    // -- Sparse ticking -------------------------------------------------------

    /// Run the given engine densely — every integer tick executed — and
    /// return the result plus the skip counter (which must stay zero).
    fn run_dense(
        mut engine: AsyncEngine<'_, Csr, MaxFlood, NullAdversary>,
    ) -> (RunResult<u64>, u64) {
        while !engine.finished() {
            engine.step_tick();
        }
        let skipped = engine.ticks_skipped();
        (engine.into_result(), skipped)
    }

    #[test]
    fn sparse_ticking_is_byte_identical_to_dense_on_heterogeneous_clocks() {
        let n = 18;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 600,
            stop_when_all_decided: true,
        };
        for clocks in [
            ClockPlan::Uniform,
            ClockPlan::Stratified {
                every: 3,
                period: 5,
            },
            ClockPlan::Jittered { max_period: 6 },
        ] {
            let mk = || {
                AsyncEngine::new(
                    &g,
                    flood_states(n, 200),
                    vec![false; n],
                    NullAdversary,
                    cfg,
                    13,
                    clocks,
                )
            };
            let (dense, dense_skips) = run_dense(mk());
            assert_eq!(dense_skips, 0, "step_tick loops never skip");
            let sparse = mk().run();
            assert_results_equal(&dense, &sparse, &format!("sparse {}", clocks.describe()));
        }
    }

    #[test]
    fn sparse_ticking_visits_o_events_ticks_on_an_idle_heavy_run() {
        // The acceptance scenario: every node on a slow clock (one step per
        // 64 ticks), so all but one in 64 ticks are dead.  The skip counter
        // must show that the ticks actually *visited* scale with the number
        // of node-step events, not with the tick span of the run.
        let n = 6;
        let g = line_graph(n);
        let period = 64u64;
        let ttl = 2000u64;
        let cfg = EngineConfig {
            max_rounds: 100_000,
            stop_when_all_decided: true,
        };
        let mk = || {
            AsyncEngine::new(
                &g,
                flood_states(n, ttl),
                vec![false; n],
                NullAdversary,
                cfg,
                29,
                ClockPlan::Stratified {
                    every: 1,
                    period: period as u32,
                },
            )
        };
        let mut sparse = mk();
        while !sparse.finished() {
            sparse.advance();
        }
        let span = sparse.time();
        let skipped = sparse.ticks_skipped();
        let visited = span - skipped;
        // Steps happen only at multiples of `period`, so the visited tick
        // count is bounded by the event ticks (span / period, plus the
        // final partial span), while the span itself is > ttl ticks.
        assert!(span > ttl, "the run must cover the idle-heavy span");
        assert!(
            visited <= span / period + 2,
            "sparse ticking must visit only event ticks: visited {visited} of {span}"
        );
        assert!(
            skipped > 30 * visited,
            "the overwhelming majority of ticks must be skipped \
             (skipped {skipped}, visited {visited})"
        );
        // And the skip is observationally free: byte-identical to dense.
        let sparse_result = sparse.into_result();
        let (dense, _) = run_dense(mk());
        assert_results_equal(&dense, &sparse_result, "idle-heavy sparse parity");
        assert_eq!(
            sparse_result.metrics.rounds, span,
            "skipped ticks still count as completed rounds"
        );
    }

    #[test]
    fn sparse_ticking_respects_the_round_cap_between_events() {
        // Next event beyond `max_rounds`: the skip must stop at the cap and
        // report exactly as many rounds as dense execution would.
        let n = 4;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 100,
            stop_when_all_decided: false,
        };
        let mk = || {
            AsyncEngine::new(
                &g,
                flood_states(n, 100_000),
                vec![false; n],
                NullAdversary,
                cfg,
                31,
                ClockPlan::Stratified {
                    every: 1,
                    period: 64,
                },
            )
        };
        let (dense, _) = run_dense(mk());
        let sparse = mk().run();
        assert_results_equal(&dense, &sparse, "cap-bounded sparse parity");
        assert_eq!(sparse.metrics.rounds, 100);
    }

    #[test]
    fn sparse_skip_reports_rounds_and_skips_to_the_recorder() {
        use netsim_trace::CounterSet;
        let n = 4;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 512,
            stop_when_all_decided: false,
        };
        let counters = CounterSet::new();
        let result = AsyncEngine::new(
            &g,
            flood_states(n, 100_000),
            vec![false; n],
            NullAdversary,
            cfg,
            37,
            ClockPlan::Stratified {
                every: 1,
                period: 32,
            },
        )
        .with_recorder(&counters)
        .run();
        let snap = counters.snapshot();
        assert_eq!(
            snap.total(Counter::Rounds),
            result.metrics.rounds,
            "trace-derived round totals must include skipped ticks"
        );
        let skipped = snap.total(Counter::TicksSkipped);
        assert!(skipped > 0, "the idle-heavy run must actually skip");
        assert!(skipped < result.metrics.rounds);
    }
}
