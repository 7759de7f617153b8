//! The synchronous round engine.
//!
//! One [`SyncEngine`] instance drives one protocol execution over a fixed
//! topology.  Rounds are processed in lock-step:
//!
//! 1. every node of the round's *active set* consumes the messages
//!    addressed to it in the previous round and queues its outgoing
//!    messages into an engine-owned, reused outbox (sequentially, in
//!    ascending node order — batch-level rayon parallelism lives in the
//!    simulation API one level up; every node still has its own RNG
//!    stream, so the schedule is deterministic);
//! 2. the full-information adversary inspects every state and every queued
//!    message and may replace the Byzantine nodes' outboxes;
//! 3. messages are validated against the topology (no edge → dropped),
//!    accounted, and delivered into the next round's inboxes.
//!
//! The engine stops when every honest node has decided (or crashed), or when
//! `max_rounds` is reached.
//!
//! ## Active-set rounds
//!
//! A round steps only the non-crashed nodes that have mail, whose
//! [`Protocol::next_wake`] names this round, or that churn just brought
//! back.  The trait's default wakes a node every round, so a protocol
//! that does not opt in is stepped exactly as before; one that does (the
//! flood and spanning-tree baselines) costs nothing while it waits.  Every
//! other per-round loop — outbox drain, action apply, inbox clearing —
//! runs over the same list, the crash mask and the honest-active count
//! behind the stop condition are kept up to date at each writer, so an
//! idle round costs O(active) rather than O(n).  The skipped steps are
//! unobservable by the wake contract, and the active set is stepped in
//! ascending node order, so the round arena, the fault plan's RNG stream
//! and every report byte are those of stepping every node (the other
//! engines still do, which makes them differential oracles for this one).
//!
//! ## Fault injection
//!
//! An optional [`FaultPlan`] (see [`netsim_faults`]) makes the *network*
//! imperfect.  It hooks into the loop at two points:
//!
//! * at every round boundary the plan may churn honest nodes — fail-stop
//!   them and later bring them back with a freshly reset protocol state;
//! * between outbox collection and inbox delivery, every validated honest
//!   envelope is given a fate: delivered, silently lost, or deferred up to
//!   `Δ` rounds (bounded-delay asynchrony).
//!
//! Byzantine envelopes never pass through the plan — the adversary already
//! controls that traffic, and fault injection models an unreliable network,
//! not extra adversarial power.  Lost and still-deferred envelopes are
//! never counted as delivered; see [`RunMetrics`] for the dedicated
//! counters.  With no plan installed the loop is exactly the classic
//! synchronous engine (a `None` check per round and per envelope).

use crate::adversary::{Adversary, AdversaryDecision, AdversaryView};
use crate::message::{Envelope, MessageSize};
use crate::metrics::RunMetrics;
use crate::node::{Action, NodeContext, NodeStatus, Outbox, Protocol};
use crate::ring::DelayRing;
use crate::topology::Topology;
use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan};
use netsim_graph::NodeId;
use netsim_trace::{Counter, Gauge, Phase, Recorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Snapshot of the `RunMetrics` counters a [`Recorder`] mirrors; taken at
/// a phase boundary so per-round deltas can be emitted without touching
/// the per-envelope accounting path.
#[derive(Clone, Copy, Default)]
pub(crate) struct MetricsSnap {
    delivered: u64,
    dropped: u64,
    lost: u64,
    delayed: u64,
    expired: u64,
    crashes: u64,
    recoveries: u64,
}

impl MetricsSnap {
    pub(crate) fn of(m: &RunMetrics) -> Self {
        MetricsSnap {
            delivered: m.messages_delivered,
            dropped: m.messages_dropped,
            lost: m.messages_lost,
            delayed: m.messages_delayed,
            expired: m.messages_expired,
            crashes: m.churn_crashes,
            recoveries: m.churn_recoveries,
        }
    }
}

/// Emit the per-round counter deltas between two snapshots (zero deltas
/// are suppressed by the recorders, but skipping them here keeps the dyn
/// call count minimal too).
pub(crate) fn emit_metric_deltas(
    rec: &dyn Recorder,
    shard: u32,
    time: u64,
    before: MetricsSnap,
    after: MetricsSnap,
) {
    let pairs = [
        (
            Counter::MessagesDelivered,
            after.delivered - before.delivered,
        ),
        (Counter::MessagesDropped, after.dropped - before.dropped),
        (Counter::MessagesLost, after.lost - before.lost),
        (Counter::MessagesDelayed, after.delayed - before.delayed),
        (Counter::MessagesExpired, after.expired - before.expired),
        (Counter::ChurnCrashes, after.crashes - before.crashes),
        (
            Counter::ChurnRecoveries,
            after.recoveries - before.recoveries,
        ),
    ];
    for (counter, delta) in pairs {
        if delta > 0 {
            rec.add(shard, time, counter, delta);
        }
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Hard cap on the number of rounds (safety net for protocols whose
    /// termination is being studied).
    pub max_rounds: u64,
    /// Stop as soon as every honest, non-crashed node has decided.
    pub stop_when_all_decided: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 100_000,
            stop_when_all_decided: true,
        }
    }
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult<O> {
    /// Output decided by each node (None for crashed / undecided nodes).
    pub outputs: Vec<Option<O>>,
    /// The round in which each node decided.
    pub decided_round: Vec<Option<u64>>,
    /// Which nodes crashed.
    pub crashed: Vec<bool>,
    /// Final status of each node.
    pub statuses: Vec<NodeStatus>,
    /// Message/round accounting.
    pub metrics: RunMetrics,
    /// True when every honest node decided or crashed before `max_rounds`.
    pub completed: bool,
}

impl<O> RunResult<O> {
    /// Number of honest nodes that decided, given the Byzantine mask used
    /// for the run.
    pub fn honest_decided(&self, byzantine: &[bool]) -> usize {
        self.outputs
            .iter()
            .enumerate()
            .filter(|(i, o)| !byzantine[*i] && o.is_some())
            .count()
    }
}

/// The synchronous engine; see the module documentation.
///
/// ## Buffer-reuse invariants (the zero-allocation hot path)
///
/// Every per-round buffer is owned by the engine and *cleared, never
/// dropped* between rounds, so after warm-up a round performs no heap
/// allocation on the honest path:
///
/// * `inboxes` holds the messages consumed this round; `next_inboxes`
///   receives this round's deliveries.  The two are swapped at the round
///   boundary and the stale side is cleared with its capacity kept.
/// * `outbox` is one reused [`Outbox`] (inline below 16 messages,
///   spilled capacity kept): each node steps into it and it is drained
///   into the round arenas straight away, so it is empty before every
///   `step`.
/// * `honest_arena` / `byz_default` are the round-scoped envelope arenas:
///   outbox messages are *moved* into them (the pre-refactor engine cloned
///   every envelope every round), the adversary views them by reference,
///   and delivery drains them in place.
/// * `deferred` is a [`DelayRing`] of round buckets (replacing a
///   `BTreeMap`): deferral and due-drain are O(1) and bucket capacity is
///   reused.
/// * `active`, `due_next`, `mailed` / `next_mailed` are the active-set
///   lists (node ids, capacity reused).  A node that asks to wake next
///   round is pushed onto `due_next`; when that list covers every live
///   node (every round of a protocol that keeps the default wake) it
///   simply becomes the next round's active list, with no merge, sort or
///   map operation.  Only later wakes go into the round-keyed `timers`.
///
/// Reports are byte-identical to the pre-refactor engine for equal spec and
/// seed: node order, RNG streams and the fault plan's consultation order
/// are unchanged (locked down by `tests/golden_reports.rs`).
pub struct SyncEngine<'a, T, P, A>
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
    /// Messages to consume this round (delivered last round).
    inboxes: Vec<Vec<Envelope<P::Message>>>,
    /// Messages delivered this round, consumed next round.
    next_inboxes: Vec<Vec<Envelope<P::Message>>>,
    /// The outgoing buffer every step writes into (drained after each).
    outbox: Outbox<P::Message>,
    /// Per-node action of the current round.
    actions: Vec<Action<P::Output>>,
    /// Round arena for honest envelopes (moved out of outboxes, drained by
    /// delivery; capacity reused).
    honest_arena: Vec<Envelope<P::Message>>,
    /// Round buffer for the Byzantine nodes' protocol-following envelopes.
    byz_default: Vec<Envelope<P::Message>>,
    /// `crashed[i]` mirrors `statuses[i] == Crashed`; every status writer
    /// keeps it in step, so the adversary view needs no per-round rebuild.
    crashed: Vec<bool>,
    statuses: Vec<NodeStatus>,
    /// Honest nodes still `Active` — the stop condition, without a scan.
    honest_active: usize,
    /// Nodes not crashed; `due_next` covering this many nodes means the
    /// next round is dense.
    live: usize,
    /// This round's active set: the nodes it steps, ascending.
    active: Vec<u32>,
    /// Nodes that asked to wake next round, ascending (pushed in `active`
    /// order); at a round's start, also the nodes churn just brought back.
    due_next: Vec<u32>,
    /// Wakes later than next round, keyed by round.  An entry is live only
    /// while `timer_of` still names its round (later answers supersede).
    timers: BTreeMap<u64, Vec<u32>>,
    /// The round of each node's live timer ([`NO_TIMER`] for none).
    timer_of: Vec<u64>,
    /// Nodes whose `inboxes` entry is non-empty (this round's mail).
    mailed: Vec<u32>,
    /// Nodes whose `next_inboxes` entry is non-empty.
    next_mailed: Vec<u32>,
    outputs: Vec<Option<P::Output>>,
    decided_round: Vec<Option<u64>>,
    metrics: RunMetrics,
    round: u64,
    fault_plan: Option<Box<dyn FaultPlan>>,
    /// Deferred envelopes bucketed by the round in which they are delivered
    /// (i.e. pushed into an inbox for consumption one round later).
    deferred: DelayRing<Envelope<P::Message>>,
    /// Produces a pristine protocol state for node `i`; installed together
    /// with a fault plan so churned nodes can rejoin reset.
    reset_state: Option<Box<dyn Fn(usize) -> P + Send>>,
    /// Nodes whose *current* crash was injected by churn.  A `Recover`
    /// event only revives these: nodes that fail-stopped any other way
    /// (initial crashes, protocol self-crash) stay down forever.
    churned_down: Vec<bool>,
    /// Observation sink, if one is installed.  `None` costs one branch per
    /// *phase boundary* (a handful per round, never per envelope), so the
    /// zero-allocation hot path is untouched.  Recorders only observe:
    /// they can never influence an RNG stream or a delivery order.
    recorder: Option<&'a dyn Recorder>,
}

impl<'a, T, P, A> SyncEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol + Sync,
    P::Output: Send,
    A: Adversary<P>,
{
    /// Create an engine.
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
    ) -> Self {
        let n = topology.len();
        assert_eq!(states.len(), n, "one protocol state per node required");
        assert_eq!(byzantine.len(), n, "byzantine mask must cover every node");
        let rngs = (0..n)
            .map(|i| ChaCha8Rng::seed_from_u64(splitmix(seed, i as u64)))
            .collect();
        let honest = byzantine.iter().filter(|&&b| !b).count();
        SyncEngine {
            topology,
            states,
            byzantine,
            adversary,
            config,
            rngs,
            adversary_rng: ChaCha8Rng::seed_from_u64(splitmix(seed, u64::MAX)),
            inboxes: vec![Vec::new(); n],
            next_inboxes: vec![Vec::new(); n],
            outbox: Outbox::new(),
            actions: vec![Action::Continue; n],
            honest_arena: Vec::new(),
            byz_default: Vec::new(),
            crashed: vec![false; n],
            honest_active: honest,
            live: n,
            active: Vec::with_capacity(n),
            // Every node steps in round 0.
            due_next: (0..n as u32).collect(),
            timers: BTreeMap::new(),
            timer_of: vec![NO_TIMER; n],
            mailed: Vec::new(),
            next_mailed: Vec::new(),
            statuses: vec![NodeStatus::Active; n],
            outputs: vec![None; n],
            decided_round: vec![None; n],
            metrics: RunMetrics::default(),
            round: 0,
            fault_plan: None,
            deferred: DelayRing::new(),
            reset_state: None,
            churned_down: vec![false; n],
            recorder: None,
        }
    }

    /// Install an observation [`Recorder`].  Purely additive: reports are
    /// byte-identical with and without one (locked down by the
    /// observability test suite).
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// [`with_recorder`](Self::with_recorder) that is a no-op for `None`.
    pub fn with_recorder_opt(mut self, recorder: Option<&'a dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Install a [`FaultPlan`]: the network may now lose, delay and defer
    /// honest traffic and churn honest nodes.
    ///
    /// Requires `P: Clone` because churned nodes rejoin with a *fresh*
    /// protocol state: the engine snapshots the initial states here and
    /// restores a node's snapshot when the plan recovers it.
    pub fn with_fault_plan(mut self, plan: Box<dyn FaultPlan>) -> Self
    where
        P: Clone + Send + 'static,
    {
        let pristine: Vec<P> = self.states.clone();
        self.reset_state = Some(Box::new(move |i| pristine[i].clone()));
        self.fault_plan = Some(plan);
        self
    }

    /// [`with_fault_plan`](Self::with_fault_plan) that is a no-op for
    /// `None` — the shape every spec-driven runner needs.
    pub fn with_fault_plan_opt(self, plan: Option<Box<dyn FaultPlan>>) -> Self
    where
        P: Clone + Send + 'static,
    {
        match plan {
            Some(plan) => self.with_fault_plan(plan),
            None => self,
        }
    }

    /// Mark nodes as crashed before the first round (fail-stop fault
    /// injection).  Crashed nodes never step and their messages are dropped,
    /// Byzantine ones included.
    pub fn with_initial_crashes(mut self, crashed: &[bool]) -> Self {
        assert_eq!(
            crashed.len(),
            self.statuses.len(),
            "crash mask must cover every node"
        );
        for (i, &is_crashed) in crashed.iter().enumerate() {
            if is_crashed {
                self.mark_crashed(i);
            }
        }
        let mask = &self.crashed;
        self.due_next.retain(|&i| !mask[i as usize]);
        self
    }

    /// The current round number (number of rounds fully executed).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Read access to the per-node protocol states (for instrumentation).
    pub fn states(&self) -> &[P] {
        &self.states
    }

    /// Node statuses so far.
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.statuses
    }

    /// Whether the stop condition has been reached.
    pub fn finished(&self) -> bool {
        if self.round >= self.config.max_rounds {
            return true;
        }
        self.config.stop_when_all_decided && self.honest_active == 0
    }

    /// Fail-stop node `i` (a no-op if it is down already), keeping the
    /// crash mask and the live / honest-active counts in step.
    fn mark_crashed(&mut self, i: usize) {
        match self.statuses[i] {
            NodeStatus::Crashed => return,
            NodeStatus::Active if !self.byzantine[i] => self.honest_active -= 1,
            _ => {}
        }
        self.statuses[i] = NodeStatus::Crashed;
        self.crashed[i] = true;
        self.live -= 1;
    }

    /// Record node `i`'s answer to [`Protocol::next_wake`] after it
    /// stepped in `round`.
    fn schedule_wake(&mut self, i: usize, round: u64) {
        match self.states[i].next_wake(round) {
            Some(wake) if wake <= round + 1 => {
                self.timer_of[i] = NO_TIMER;
                self.due_next.push(i as u32);
            }
            Some(wake) => {
                if self.timer_of[i] != wake {
                    self.timer_of[i] = wake;
                    self.timers.entry(wake).or_default().push(i as u32);
                }
            }
            None => self.timer_of[i] = NO_TIMER,
        }
    }

    /// Build this round's active set (ascending, crashed nodes excluded)
    /// from the nodes due now, their mail and churn recoveries.
    fn collect_active(&mut self, round: u64, churned: bool) {
        self.active.clear();
        let timers = match self.timers.first_entry() {
            Some(entry) if *entry.key() == round => entry.remove(),
            _ => Vec::new(),
        };
        if !churned && self.due_next.len() == self.live {
            // Dense round: the due list already names every live node, in
            // order, so every other source is a subset of it.
            std::mem::swap(&mut self.active, &mut self.due_next);
            return;
        }
        let timer_of = &self.timer_of;
        let crashed = &self.crashed;
        self.active.extend(
            self.due_next
                .drain(..)
                .chain(
                    timers
                        .into_iter()
                        .filter(|&i| timer_of[i as usize] == round),
                )
                .chain(self.mailed.iter().copied())
                .filter(|&i| !crashed[i as usize]),
        );
        self.active.sort_unstable();
        self.active.dedup();
    }

    /// Execute one round.  Returns `false` when the stop condition has been
    /// reached (the round is still executed).
    pub fn step_round(&mut self) -> bool {
        let n = self.topology.len();
        self.metrics.begin_round();
        let round = self.round;
        let rec = self.recorder;
        // The unsharded engine reports everything under shard (tid) 0.
        let shard = 0u32;
        let metrics_base = match rec {
            Some(r) => {
                r.phase_begin(shard, round, Phase::Round);
                r.phase_begin(shard, round, Phase::Churn);
                MetricsSnap::of(&self.metrics)
            }
            None => MetricsSnap::default(),
        };

        // Phase 0: churn transitions requested by the fault plan.  Only
        // honest nodes are touched; a recovered node rejoins with a fresh
        // protocol state and no memory of its previous incarnation, and
        // steps this very round.
        let mut churned = false;
        if let Some(plan) = self.fault_plan.as_mut() {
            for event in plan.begin_round(round) {
                match event {
                    ChurnEvent::Crash(v) => {
                        let i = v.index();
                        if i < n && !self.byzantine[i] && self.statuses[i] != NodeStatus::Crashed {
                            self.mark_crashed(i);
                            self.churned_down[i] = true;
                            self.metrics.record_churn_crash();
                            churned = true;
                        }
                    }
                    ChurnEvent::Recover(v) => {
                        let i = v.index();
                        // Only crashes the fault layer itself injected are
                        // recoverable: a node that fail-stopped any other
                        // way (initial crashes, protocol self-crash) must
                        // stay silent forever, even if a plan unknowingly
                        // names it.
                        if i < n && self.churned_down[i] && self.statuses[i] == NodeStatus::Crashed
                        {
                            if let Some(reset) = self.reset_state.as_ref() {
                                self.states[i] = reset(i);
                                self.outputs[i] = None;
                                self.decided_round[i] = None;
                                self.statuses[i] = NodeStatus::Active;
                                self.crashed[i] = false;
                                self.live += 1;
                                self.honest_active += 1;
                                self.churned_down[i] = false;
                                self.inboxes[i].clear();
                                self.due_next.push(i as u32);
                                self.metrics.record_churn_recovery();
                                churned = true;
                            }
                        }
                    }
                }
            }
        }
        self.collect_active(round, churned);

        if let Some(r) = rec {
            r.phase_end(shard, round, Phase::Churn);
            r.phase_begin(shard, round, Phase::NodeStep);
        }

        // Phase 1: run every active node against its inbox, in ascending
        // node order, and move what it queued — no clones — into the round
        // arena (honest senders, in node order) or the Byzantine-default
        // buffer.  Nodes outside the active set are crashed or idle: by
        // the wake contract an idle node's step would queue nothing and
        // change nothing, so it is skipped.
        //
        // This loop is sequential by design.  The workspace's rayon shim
        // intentionally refuses to split borrowed-slice pipelines (per-node
        // work is microseconds; spawning scoped threads every round costs
        // more than it buys — see `rayon`'s module docs), so a `par_iter`
        // chain here would run sequentially *and* materialize a fresh
        // `Vec<&mut _>` per adapter per round.  Parallelism lives one level
        // up, across the runs of a batch.  Determinism is unaffected either
        // way: each node owns its RNG stream and results land in node
        // order.
        self.honest_arena.clear();
        self.byz_default.clear();
        for &node in &self.active {
            let i = node as usize;
            let id = NodeId::from_index(i);
            let ctx = NodeContext {
                id,
                round,
                neighbors: self.topology.neighbors(id),
                decided: self.outputs[i].is_some(),
            };
            self.actions[i] =
                self.states[i].step(&ctx, &self.inboxes[i], &mut self.outbox, &mut self.rngs[i]);
            let target = if self.byzantine[i] {
                &mut self.byz_default
            } else {
                &mut self.honest_arena
            };
            self.outbox.drain_envelopes(id, |env| target.push(env));
        }

        if let Some(r) = rec {
            r.add(shard, round, Counter::NodeSteps, self.active.len() as u64);
            r.phase_end(shard, round, Phase::NodeStep);
            r.phase_begin(shard, round, Phase::AdversaryCut);
        }

        // Phase 2: the adversary inspects the round and intervenes.
        // `FollowProtocol` messages carry engine-stamped sender ids;
        // `Replace` messages are adversary-authored and their claimed sender
        // must be validated against the Byzantine mask below.
        let decision = {
            let view = AdversaryView {
                round,
                byzantine: &self.byzantine,
                crashed: &self.crashed,
                states: &self.states,
                honest_messages: &self.honest_arena,
                byzantine_default_messages: &self.byz_default,
            };
            self.adversary.act(&view, &mut self.adversary_rng)
        };

        // Phase 3: apply actions (honest nodes only; Byzantine nodes are
        // puppets of the adversary and their "decisions" are meaningless),
        // then ask every node still up when it next needs to step.
        let active = std::mem::take(&mut self.active);
        for &node in &active {
            let i = node as usize;
            let action = std::mem::replace(&mut self.actions[i], Action::Continue);
            if !self.byzantine[i] {
                match action {
                    Action::Continue => {}
                    Action::Decide(output) => {
                        if self.outputs[i].is_none() {
                            self.outputs[i] = Some(output);
                            self.decided_round[i] = Some(round);
                            self.statuses[i] = NodeStatus::Decided;
                            self.honest_active -= 1;
                        }
                    }
                    Action::Crash => {
                        self.mark_crashed(i);
                        continue;
                    }
                }
            }
            self.schedule_wake(i, round);
        }
        self.active = active;

        if let Some(r) = rec {
            r.gauge(
                shard,
                round,
                Gauge::HonestArenaHighWater,
                self.honest_arena.len() as u64,
            );
            r.gauge(
                shard,
                round,
                Gauge::ByzArenaHighWater,
                self.byz_default.len() as u64,
            );
            r.phase_end(shard, round, Phase::AdversaryCut);
            r.phase_begin(shard, round, Phase::Routing);
        }

        // Phase 4: validate, account and deliver messages for the next
        // round — honest arena first, then the Byzantine path, exactly the
        // pre-refactor order (the fault plan's RNG stream depends on it).
        let mut honest = std::mem::take(&mut self.honest_arena);
        for env in honest.drain(..) {
            self.deliver(round, env, false);
        }
        self.honest_arena = honest;
        match decision {
            AdversaryDecision::FollowProtocol => {
                let mut byz = std::mem::take(&mut self.byz_default);
                for env in byz.drain(..) {
                    self.deliver(round, env, false);
                }
                self.byz_default = byz;
            }
            AdversaryDecision::Replace(msgs) => {
                for env in msgs {
                    self.deliver(round, env, true);
                }
            }
        }

        if let Some(r) = rec {
            r.phase_end(shard, round, Phase::Routing);
            r.phase_begin(shard, round, Phase::DeferredDrain);
        }

        // Phase 5: deferred envelopes whose delay elapses this round arrive
        // now (for consumption next round, like any other delivery).  Their
        // size is accounted here — a message deferred forever is never
        // counted as delivered.
        {
            let metrics = &mut self.metrics;
            let crashed = &self.crashed;
            let next_inboxes = &mut self.next_inboxes;
            let next_mailed = &mut self.next_mailed;
            self.deferred.drain_due(round, |env| {
                let to = env.to.index();
                if crashed[to] {
                    metrics.record_fault_expired(1);
                } else {
                    metrics.record_delivery(env.payload.message_size());
                    post(next_inboxes, next_mailed, to, env);
                }
            });
        }

        if let Some(r) = rec {
            r.phase_end(shard, round, Phase::DeferredDrain);
            r.gauge(
                shard,
                round,
                Gauge::DelayRingPending,
                self.deferred.in_flight() as u64,
            );
            emit_metric_deltas(
                r,
                shard,
                round,
                metrics_base,
                MetricsSnap::of(&self.metrics),
            );
            r.add(shard, round, Counter::Rounds, 1);
            r.phase_end(shard, round, Phase::Round);
        }

        // Round boundary: this round's deliveries become next round's
        // inboxes; the consumed side is cleared with its capacity kept —
        // only the inboxes that held mail, including those of nodes churn
        // crashed before they could read it.
        std::mem::swap(&mut self.inboxes, &mut self.next_inboxes);
        std::mem::swap(&mut self.mailed, &mut self.next_mailed);
        for &node in &self.next_mailed {
            self.next_inboxes[node as usize].clear();
        }
        self.next_mailed.clear();

        self.round += 1;
        !self.finished()
    }

    /// Validate, account and deliver (or lose / defer) one envelope queued
    /// in `round`.
    fn deliver(&mut self, round: u64, env: Envelope<P::Message>, authored_by_adversary: bool) {
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
        // The fault layer only touches honest traffic: Byzantine
        // envelopes (protocol-following or adversary-authored) already
        // went through the adversary path and are delivered as-is.
        let fate = match self.fault_plan.as_mut() {
            Some(plan) if !self.byzantine[env.from.index()] => {
                plan.envelope_fate(round, env.from, env.to)
            }
            _ => EnvelopeFate::Deliver,
        };
        match fate {
            // A zero-round delay is indistinguishable from plain delivery,
            // so it must account as one: delivered now, never counted as
            // delayed.  Every engine shares this reading (pinned by the
            // cross-engine `Delay(0)` regression test).
            EnvelopeFate::Deliver | EnvelopeFate::Delay(0) => {
                self.metrics.record_delivery(env.payload.message_size());
                let to = env.to.index();
                post(&mut self.next_inboxes, &mut self.next_mailed, to, env);
            }
            EnvelopeFate::Drop => self.metrics.record_fault_loss(),
            EnvelopeFate::Delay(delay) => {
                self.metrics.record_fault_delay();
                self.deferred.push(round, round + delay, env);
            }
        }
    }

    /// Run until the stop condition and return the result.
    pub fn run(mut self) -> RunResult<P::Output> {
        while !self.finished() {
            self.step_round();
        }
        self.into_result()
    }

    /// Consume the engine and produce the result without running further.
    pub fn into_result(mut self) -> RunResult<P::Output> {
        let in_flight = self.deferred.in_flight() as u64;
        if in_flight > 0 {
            self.metrics.record_fault_expired(in_flight);
            // End-of-run expiry happens outside any round span; mirror it
            // so trace-derived totals still match the final metrics.
            if let Some(r) = self.recorder {
                r.add(0, self.round, Counter::MessagesExpired, in_flight);
            }
        }
        RunResult {
            completed: self.honest_active == 0,
            outputs: self.outputs,
            decided_round: self.decided_round,
            crashed: self.crashed,
            statuses: self.statuses,
            metrics: self.metrics,
        }
    }
}

/// [`SyncEngine::timer_of`] value of a node with no timer pending.
const NO_TIMER: u64 = u64::MAX;

/// Push a delivery into `to`'s inbox, listing `to` in `mailed` when this
/// is its first letter of the round (one predictable branch per envelope).
fn post<M>(inboxes: &mut [Vec<Envelope<M>>], mailed: &mut Vec<u32>, to: usize, env: Envelope<M>) {
    let inbox = &mut inboxes[to];
    if inbox.is_empty() {
        mailed.push(to as u32);
    }
    inbox.push(env);
}

/// Shared envelope validation, used verbatim by both engines so the rules
/// — and in particular the `from_ok` operator-precedence hazard fixed in
/// PR 1 — live in exactly one place.
///
/// A sender must exist and must not have crashed — a crashed node stays
/// silent forever, even a Byzantine one.  Adversary-authored envelopes
/// must additionally claim a Byzantine sender (identity non-forgeability:
/// the adversary may only speak through the nodes it controls).  The
/// `(from, to)` pair must be an edge, and the recipient must be alive.
pub(crate) fn envelope_admissible<T: Topology, M>(
    topology: &T,
    statuses: &[NodeStatus],
    byzantine: &[bool],
    env: &Envelope<M>,
    authored_by_adversary: bool,
) -> bool {
    let n = topology.len();
    let from_ok = env.from.index() < n
        && statuses[env.from.index()] != NodeStatus::Crashed
        && (!authored_by_adversary || byzantine[env.from.index()]);
    let edge_ok = env.to.index() < n && topology.can_send(env.from, env.to);
    let to_ok = env.to.index() < n && statuses[env.to.index()] != NodeStatus::Crashed;
    from_ok && edge_ok && to_ok
}

/// SplitMix64-style seed derivation so per-node RNG streams are independent.
/// Shared with the sharded engine: both derive node `i`'s stream the same
/// way, which is what makes their runs comparable seed-for-seed.
pub(crate) fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::testkit::{flood_states, line_graph, MaxFlood, Shouter, Val};

    #[test]
    fn max_flood_converges_on_a_line() {
        let n = 16;
        let g = line_graph(n);
        let engine = SyncEngine::new(
            &g,
            flood_states(n, 2 * n as u64),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            42,
        );
        let result = engine.run();
        assert!(result.completed);
        let first = result.outputs[0].unwrap();
        assert!(result.outputs.iter().all(|o| *o == Some(first)));
        assert!(result.metrics.rounds <= 2 * n as u64 + 1);
        assert!(result.metrics.messages_delivered > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let n = 12;
        let g = line_graph(n);
        let run = |seed| {
            SyncEngine::new(
                &g,
                flood_states(n, 40),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                seed,
            )
            .run()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
        assert_ne!(
            a.outputs, c.outputs,
            "different seeds should give different values"
        );
    }

    #[test]
    fn max_rounds_caps_execution() {
        let n = 8;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 3,
            stop_when_all_decided: true,
        };
        let result = SyncEngine::new(
            &g,
            flood_states(n, 1000),
            vec![false; n],
            NullAdversary,
            cfg,
            1,
        )
        .run();
        assert!(!result.completed);
        assert_eq!(result.metrics.rounds, 3);
    }

    #[test]
    fn adversary_messages_respect_topology() {
        let n = 8;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        let result = SyncEngine::new(
            &g,
            flood_states(n, 20),
            byz.clone(),
            Shouter,
            EngineConfig::default(),
            3,
        )
        .run();
        // Node 0 is adjacent to the Byzantine node 1, so the huge value
        // poisons it (this is exactly why the naive protocol fails).
        assert_eq!(result.outputs[0], Some(u64::MAX));
        // Node 5 is NOT adjacent to node 1; the illegal direct message was
        // dropped every round.
        assert!(result.metrics.messages_dropped > 0);
        assert!(result.honest_decided(&byz) == n - 1);
    }

    #[test]
    fn crashed_byzantine_sender_messages_are_dropped() {
        // Regression test for the `from_ok` operator-precedence hazard: the
        // old `a && b || (a && c)` validation let messages whose claimed
        // sender was a *crashed* Byzantine node through.  A crashed node must
        // stay silent forever, no matter who authors envelopes in its name.
        let n = 8;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        let mut crashed = vec![false; n];
        crashed[1] = true; // the Byzantine node fail-stops before round 0
        let engine = SyncEngine::new(
            &g,
            flood_states(n, 20),
            byz.clone(),
            Shouter, // keeps authoring envelopes claiming node 1 as sender
            EngineConfig::default(),
            3,
        )
        .with_initial_crashes(&crashed);
        let result = engine.run();
        // Node 0 must NOT be poisoned by u64::MAX from its crashed neighbour.
        assert_ne!(result.outputs[0], Some(u64::MAX));
        assert!(result.metrics.messages_dropped > 0);
    }

    #[test]
    fn adversary_cannot_forge_honest_sender_ids() {
        // Identity non-forgeability: adversary-authored envelopes claiming an
        // honest sender are dropped even when the edge exists.
        struct ForgeHonest;
        impl Adversary<MaxFlood> for ForgeHonest {
            fn act(
                &mut self,
                _view: &AdversaryView<'_, MaxFlood>,
                _rng: &mut ChaCha8Rng,
            ) -> AdversaryDecision<Val> {
                // Claim honest node 1 (a neighbour of node 0) as the sender.
                AdversaryDecision::Replace(vec![Envelope::new(NodeId(1), NodeId(0), Val(u64::MAX))])
            }
        }
        let n = 8;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[4] = true; // the adversary controls node 4, not node 1
        let result = SyncEngine::new(
            &g,
            flood_states(n, 20),
            byz,
            ForgeHonest,
            EngineConfig::default(),
            5,
        )
        .run();
        assert_ne!(
            result.outputs[0],
            Some(u64::MAX),
            "forged envelope must be dropped"
        );
        assert!(result.metrics.messages_dropped > 0);
    }

    /// Protocol that crashes immediately; used to test crash bookkeeping.
    #[derive(Clone)]
    struct CrashImmediately;
    impl Protocol for CrashImmediately {
        type Message = ();
        type Output = ();
        fn step(
            &mut self,
            _ctx: &NodeContext<'_>,
            _inbox: &[Envelope<()>],
            _outbox: &mut Outbox<()>,
            _rng: &mut ChaCha8Rng,
        ) -> Action<()> {
            Action::Crash
        }
    }

    #[test]
    fn total_loss_silences_honest_traffic_and_its_accounting() {
        // Regression test for the fault-layer accounting contract: an
        // envelope destroyed by the plan must never count toward the
        // delivered-message or byte (IDs/bits) metrics.
        use netsim_faults::IidLoss;
        let n = 8;
        let g = line_graph(n);
        let result = SyncEngine::new(
            &g,
            flood_states(n, 10),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            11,
        )
        .with_fault_plan(Box::new(IidLoss::new(1.0, 5)))
        .run();
        assert_eq!(result.metrics.messages_delivered, 0);
        assert_eq!(result.metrics.total_ids, 0);
        assert_eq!(result.metrics.total_bits, 0);
        assert!(result.metrics.messages_lost > 0);
        // Every node still decides — on its own value, having heard nobody.
        assert!(result.completed);
        let distinct: std::collections::HashSet<_> =
            result.outputs.iter().map(|o| o.unwrap()).collect();
        assert_eq!(distinct.len(), n, "no value ever propagated");
    }

    #[test]
    fn byzantine_envelopes_bypass_the_fault_layer() {
        // Total loss for honest traffic, yet the adversary's envelopes go
        // through the adversary path untouched: node 0 is still poisoned by
        // its Byzantine neighbour.
        use netsim_faults::IidLoss;
        let n = 8;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        let result = SyncEngine::new(
            &g,
            flood_states(n, 20),
            byz,
            Shouter,
            EngineConfig::default(),
            3,
        )
        .with_fault_plan(Box::new(IidLoss::new(1.0, 5)))
        .run();
        assert_eq!(
            result.outputs[0],
            Some(u64::MAX),
            "Byzantine traffic must not be lost"
        );
        assert!(result.metrics.messages_lost > 0, "honest traffic was");
        assert!(
            result.metrics.messages_delivered > 0,
            "the Byzantine deliveries are the only ones counted"
        );
    }

    #[test]
    fn delayed_messages_arrive_late_and_are_counted_once() {
        use netsim_faults::RandomDelay;
        let n = 12;
        let g = line_graph(n);
        let run = |plan: Option<Box<dyn FaultPlan>>| {
            let engine = SyncEngine::new(
                &g,
                flood_states(n, 6 * n as u64),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                21,
            );
            match plan {
                Some(p) => engine.with_fault_plan(p).run(),
                None => engine.run(),
            }
        };
        let clean = run(None);
        let delayed = run(Some(Box::new(RandomDelay::new(3, 1.0, 9))));
        assert!(delayed.completed);
        assert_eq!(
            delayed.outputs[0], clean.outputs[0],
            "delay reorders nothing on a flood of maxima; the value still wins"
        );
        assert!(delayed.metrics.messages_delayed > 0);
        // Conservation: every queued honest envelope is delivered, lost,
        // expired, or was rejected by validation — delivered ones exactly
        // once.
        assert_eq!(
            delayed.metrics.messages_delayed,
            delayed.metrics.messages_delivered + delayed.metrics.messages_expired,
            "all traffic was delayed here, so delivered + expired must add up"
        );
    }

    #[test]
    fn deferred_messages_to_a_crashed_recipient_expire_on_arrival() {
        // Regression test for the second expiry path: an envelope deferred
        // to a node that crashes while it is in flight must be counted as
        // expired in its due round — never as delivered.
        use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan};
        struct DelayThenCrash;
        impl FaultPlan for DelayThenCrash {
            fn begin_round(&mut self, round: u64) -> Vec<ChurnEvent> {
                // Crash node 1 after round 0's messages (to it) were
                // deferred to round 2.
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
        let result = SyncEngine::new(
            &g,
            flood_states(n, 12),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            6,
        )
        .with_fault_plan(Box::new(DelayThenCrash))
        .run();
        assert!(result.crashed[1]);
        assert!(
            result.metrics.messages_expired > 0,
            "in-flight envelopes to the crashed node must expire"
        );
        assert_eq!(
            result.metrics.messages_delayed, result.metrics.messages_expired,
            "every deferred envelope was addressed to the crashed node"
        );
    }

    #[test]
    fn deferred_messages_still_in_flight_expire_at_the_cap() {
        use netsim_faults::RandomDelay;
        let n = 8;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 3,
            stop_when_all_decided: true,
        };
        let result = SyncEngine::new(
            &g,
            flood_states(n, 1000),
            vec![false; n],
            NullAdversary,
            cfg,
            2,
        )
        .with_fault_plan(Box::new(RandomDelay::new(50, 1.0, 4)))
        .run();
        assert!(result.metrics.messages_expired > 0, "in-flight at the cap");
        assert_eq!(
            result.metrics.messages_delayed,
            result.metrics.messages_delivered + result.metrics.messages_expired
        );
    }

    #[test]
    fn churned_nodes_rejoin_with_reset_state() {
        use netsim_faults::{ChurnEvent, FaultPlan};
        // A scripted plan: crash node 2 at round 1, recover it at round 4.
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
        let result = SyncEngine::new(
            &g,
            flood_states(n, 3 * n as u64),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            17,
        )
        .with_fault_plan(Box::new(Script))
        .run();
        assert_eq!(result.metrics.churn_crashes, 1);
        assert_eq!(result.metrics.churn_recoveries, 1);
        assert!(!result.crashed[2], "node 2 rejoined");
        assert!(result.completed);
        // The reset node restarted the protocol from scratch and decided
        // again in its second life.
        assert!(result.outputs[2].is_some());
        assert!(result.decided_round[2].unwrap() >= 4, "decided post-rejoin");
    }

    #[test]
    fn churn_never_touches_byzantine_nodes() {
        use netsim_faults::NodeChurn;
        let n = 8;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        let honest: Vec<bool> = byz.iter().map(|b| !b).collect();
        // Churn everyone eligible, every round — and also hand the plan a
        // mask that (wrongly) marks the Byzantine node eligible, to check
        // the engine-side guard.
        let all = vec![true; n];
        let _ = honest;
        let result = SyncEngine::new(
            &g,
            flood_states(n, 10),
            byz.clone(),
            Shouter,
            EngineConfig {
                max_rounds: 6,
                stop_when_all_decided: true,
            },
            3,
        )
        .with_fault_plan(Box::new(NodeChurn::new(1.0, 2, &all, 8)))
        .run();
        assert!(
            !result.crashed[1],
            "the engine must refuse churn events on Byzantine nodes"
        );
        assert!(result.metrics.churn_crashes > 0);
    }

    #[test]
    fn churn_cannot_resurrect_nodes_that_crashed_for_other_reasons() {
        use netsim_faults::{ChurnEvent, FaultPlan};
        // A plan that (wrongly) claims node 3 as its own: crash at round 1
        // (ignored — node 3 is already down), recover at round 3.
        struct Script;
        impl FaultPlan for Script {
            fn begin_round(&mut self, round: u64) -> Vec<ChurnEvent> {
                match round {
                    1 => vec![ChurnEvent::Crash(NodeId(3))],
                    3 => vec![ChurnEvent::Recover(NodeId(3))],
                    _ => Vec::new(),
                }
            }
        }
        let n = 8;
        let g = line_graph(n);
        let mut crashed = vec![false; n];
        crashed[3] = true; // fail-stopped before round 0, NOT by churn
        let result = SyncEngine::new(
            &g,
            flood_states(n, 20),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            13,
        )
        .with_fault_plan(Box::new(Script))
        .with_initial_crashes(&crashed)
        .run();
        assert!(result.crashed[3], "a fail-stopped node stays down forever");
        assert_eq!(result.outputs[3], None);
        assert_eq!(result.metrics.churn_crashes, 0, "no transition happened");
        assert_eq!(result.metrics.churn_recoveries, 0);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        use netsim_faults::FaultSpec;
        let n = 16;
        let g = line_graph(n);
        let spec = FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.2 },
            FaultSpec::Delay {
                max_delay: 2,
                rate: 0.3,
            },
            FaultSpec::Churn {
                rate: 0.05,
                downtime: 3,
            },
            FaultSpec::Partition {
                start: 2,
                duration: 4,
            },
        ]);
        let run = |seed: u64| {
            let plan = spec
                .build_plan(n, &vec![true; n], seed ^ 0xFA17)
                .expect("plan");
            SyncEngine::new(
                &g,
                flood_states(n, 60),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                seed,
            )
            .with_fault_plan(plan)
            .run()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
        assert_ne!(
            (a.outputs, a.metrics),
            (c.outputs, c.metrics),
            "a different seed must change the faulty run"
        );
    }

    /// Logs every step it takes as `(round, inbox size)` — an
    /// instrumentation-only state change the wake contract otherwise
    /// forbids, so the tests can see exactly which rounds stepped it.
    /// Sends to its neighbours in the `send_at` rounds, decides once
    /// `decide_at` is reached, and wakes for nothing else.
    #[derive(Clone, Default)]
    struct Sleeper {
        send_at: Vec<u64>,
        decide_at: Option<u64>,
        log: Vec<(u64, usize)>,
    }

    impl Protocol for Sleeper {
        type Message = Val;
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &[Envelope<Val>],
            outbox: &mut Outbox<Val>,
            _rng: &mut ChaCha8Rng,
        ) -> Action<()> {
            self.log.push((ctx.round, inbox.len()));
            if self.send_at.contains(&ctx.round) {
                outbox.broadcast(ctx.neighbors.iter(), Val(ctx.round));
            }
            match self.decide_at {
                Some(at) if ctx.round >= at => Action::Decide(()),
                _ => Action::Continue,
            }
        }

        fn next_wake(&self, round: u64) -> Option<u64> {
            self.send_at
                .iter()
                .chain(&self.decide_at)
                .copied()
                .filter(|&r| r > round)
                .min()
        }
    }

    fn sleepers(n: usize) -> Vec<Sleeper> {
        vec![Sleeper::default(); n]
    }

    fn run_for(rounds: u64) -> EngineConfig {
        EngineConfig {
            max_rounds: rounds,
            stop_when_all_decided: false,
        }
    }

    /// Crash node 1 at round `crash`, recover it at round `recover`.
    struct BounceNode1 {
        crash: u64,
        recover: u64,
    }

    impl FaultPlan for BounceNode1 {
        fn begin_round(&mut self, round: u64) -> Vec<ChurnEvent> {
            if round == self.crash {
                vec![ChurnEvent::Crash(NodeId(1))]
            } else if round == self.recover {
                vec![ChurnEvent::Recover(NodeId(1))]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn a_node_with_a_far_timer_steps_exactly_at_that_round() {
        let n = 3;
        let g = line_graph(n);
        let mut states = sleepers(n);
        states[1].decide_at = Some(7);
        let counters = netsim_trace::CounterSet::new();
        let mut engine = SyncEngine::new(&g, states, vec![false; n], NullAdversary, run_for(12), 1)
            .with_recorder(&counters);
        while engine.step_round() {}
        assert_eq!(engine.states()[1].log, vec![(0, 0), (7, 0)]);
        assert_eq!(engine.states()[0].log, vec![(0, 0)], "no timer, no mail");
        assert_eq!(
            counters.snapshot().total(Counter::NodeSteps),
            4,
            "three steps in round 0, one at the timer"
        );
        let result = engine.into_result();
        assert_eq!(result.decided_round[1], Some(7));
        assert_eq!(result.metrics.rounds, 12);
    }

    #[test]
    fn a_churn_recovered_node_steps_in_the_round_it_rejoins() {
        let n = 3;
        let g = line_graph(n);
        let mut engine = SyncEngine::new(
            &g,
            sleepers(n),
            vec![false; n],
            NullAdversary,
            run_for(8),
            2,
        )
        .with_fault_plan(Box::new(BounceNode1 {
            crash: 2,
            recover: 5,
        }));
        while engine.step_round() {}
        // The recovery reset the state, so the log starts at the rejoin.
        assert_eq!(engine.states()[1].log, vec![(5, 0)]);
        let result = engine.into_result();
        assert!(!result.crashed[1]);
        assert_eq!(result.metrics.churn_crashes, 1);
        assert_eq!(result.metrics.churn_recoveries, 1);
    }

    #[test]
    fn a_churn_crashed_node_with_mail_pending_has_its_inbox_cleared() {
        let n = 3;
        let g = line_graph(n);
        let mut states = sleepers(n);
        // Node 0's round-1 letter reaches node 1's inbox for round 2,
        // where churn crashes node 1 before it can read it.
        states[0].send_at = vec![1];
        let mut engine = SyncEngine::new(&g, states, vec![false; n], NullAdversary, run_for(8), 3)
            .with_fault_plan(Box::new(BounceNode1 {
                crash: 2,
                recover: 3,
            }));
        for _ in 0..3 {
            engine.step_round();
        }
        assert!(engine.inboxes[1].is_empty() && engine.next_inboxes[1].is_empty());
        while engine.step_round() {}
        // The stale letter never reaches the rejoined node.
        assert_eq!(engine.states()[1].log, vec![(3, 0)]);
        assert_eq!(engine.into_result().metrics.messages_delivered, 1);
    }

    #[test]
    fn crashed_nodes_stop_participating() {
        let n = 4;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 5,
            stop_when_all_decided: true,
        };
        let result = SyncEngine::new(
            &g,
            vec![CrashImmediately; n],
            vec![false; n],
            NullAdversary,
            cfg,
            0,
        )
        .run();
        assert!(result.crashed.iter().all(|&c| c));
        assert!(
            result.completed,
            "all honest nodes crashed counts as completed"
        );
        assert_eq!(result.metrics.rounds, 1);
        assert!(result.outputs.iter().all(|o| o.is_none()));
    }
}
