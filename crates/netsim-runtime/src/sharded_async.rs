//! The sharded asynchronous engine: per-shard calendar queues and clock
//! domains, rendezvousing only at the cross-shard routing step.
//!
//! [`ShardedAsyncEngine`] combines node-id-range partitioning of the
//! per-node hot state (protocol states, RNG streams, outboxes, mailboxes,
//! envelope arenas and delivery metrics, split into `S` contiguous ranges
//! by [`shard_bounds`]) with [`AsyncEngine`]'s event-driven virtual time.
//! Each shard owns a private
//! [`CalendarQueue`] — its nodes' self-rescheduling step events plus the
//! deferred deliveries *addressed into* its node range — so the only
//! global synchronization points in a tick are the ones the semantics
//! force: the fault plan's churn consultation, the full-information
//! adversary cut over the gathered arenas, and the sequential routing
//! step that consults the fault plan per envelope in the unsharded
//! engine's exact order (its RNG stream depends on it).  The node-step
//! phase fans shards out over the rayon shim's scoped threads
//! (`for_each_shard`); with `S = 1` or one configured worker it is a
//! plain sequential loop.
//!
//! Under [`ClockPlan::Uniform`] this *is* the sharded synchronous engine:
//! every node steps every tick, so a tick is a round.  A spec's
//! `Sharded { shards }` engine resolves to exactly that.
//!
//! ## Determinism contract
//!
//! For equal `(topology, protocol, adversary, seed, fault plan, clock
//! plan)`, a [`ShardedAsyncEngine`] run is **byte-identical** to an
//! [`AsyncEngine`] run for every shard count — and therefore, under
//! [`ClockPlan::Uniform`], to [`SyncEngine`](crate::SyncEngine) as well.
//! Per-node RNG streams are seed-derived per node (not per shard), shard
//! concatenation order *is* global node order (shards are contiguous
//! ranges), each destination node lives in exactly one shard queue so
//! per-mailbox arrival order is preserved, per-shard metrics merge
//! ([`RunMetrics::absorb_shard`]) to the exact single-stream totals, and
//! per-shard queue `seq` counters only ever tie-break
//! same-`(time, class, node)` events — whose relative push order the
//! global routing order already fixes.
//!
//! ## Sparse ticking
//!
//! The engine skips idle ticks exactly like [`AsyncEngine`]: when the
//! adversary opted into [`Adversary::idle_passive`] and no fault plan is
//! installed (the plan must be consulted every tick), virtual time jumps
//! to the minimum [`CalendarQueue::next_event_time`] over all shard
//! queues, bulk-replaying the empty ticks' accounting so the results stay
//! byte-identical to dense execution.
//!
//! [`AsyncEngine`]: crate::async_engine::AsyncEngine

use crate::adversary::{Adversary, AdversaryDecision, AdversaryView};
use crate::async_engine::{CalendarQueue, ClockPlan, EventClass};
use crate::engine::{
    emit_metric_deltas, envelope_admissible, splitmix, EngineConfig, MetricsSnap, RunResult,
};
use crate::message::{Envelope, MessageSize};
use crate::metrics::RunMetrics;
use crate::node::{Action, NodeContext, NodeStatus, Outbox, Protocol};
use crate::topology::Topology;
use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan};
use netsim_graph::NodeId;
use netsim_trace::{Counter, Gauge, Phase, Recorder, SHARD_ROUTER};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Payload of a shard-queue event (no plan ticks: the fault plan is a
/// global concern, consulted once per tick outside the shard queues).
enum ShardEvent<M> {
    /// Step the owning node.
    NodeStep,
    /// Deliver a deferred envelope to the owning node.
    Deliver(Envelope<M>),
}

/// The per-shard mutable view used by the parallel node-step phase:
/// disjoint slices of the node-indexed engine state plus the shard-owned
/// queue, scratch and arenas.
struct ShardTask<'b, P: Protocol> {
    /// This shard's index (the `tid` its trace records report under).
    shard: u32,
    /// First global node id of this shard.
    start: usize,
    queue: &'b mut CalendarQueue<ShardEvent<P::Message>>,
    scratch: &'b mut Vec<(u32, ShardEvent<P::Message>)>,
    states: &'b mut [P],
    rngs: &'b mut [ChaCha8Rng],
    outboxes: &'b mut [Outbox<P::Message>],
    actions: &'b mut [Action<P::Output>],
    mailboxes: &'b mut [Vec<Envelope<P::Message>>],
    periods: &'b [u64],
    /// Shard-owned arena for its honest nodes' envelopes this tick.
    honest: &'b mut Vec<Envelope<P::Message>>,
    /// Shard-owned buffer for its Byzantine nodes' protocol-following
    /// envelopes.
    byz: &'b mut Vec<Envelope<P::Message>>,
}

/// Shard boundaries for `n` nodes over `shards` contiguous ranges: shard
/// `s` owns `bounds[s]..bounds[s + 1]`.  Ranges differ in size by at most
/// one node, cover `0..n` exactly, and the shard count is clamped to
/// `1..=max(n, 1)` so every shard is non-empty (for `n > 0`).
pub fn shard_bounds(n: usize, shards: usize) -> Vec<usize> {
    let s = shards.clamp(1, n.max(1));
    (0..=s).map(|i| i * n / s).collect()
}

/// Apply `f` to every task, recursively splitting the task list across the
/// rayon shim's scoped threads — but only as deep as the configured worker
/// count warrants ([`rayon::current_num_threads`], i.e. the
/// `RAYON_NUM_THREADS` / programmatic override the rest of the workspace
/// honours).  With one worker (or one shard) this is a plain sequential
/// loop: no threads are spawned, so `S > cores` never pays for more
/// fan-out than the machine can absorb, and results are identical either
/// way (that is the engine's contract).
fn for_each_shard<T: Send, F: Fn(&mut T) + Sync>(tasks: &mut [T], f: &F) {
    let threads = rayon::current_num_threads();
    let splits = if threads <= 1 {
        0
    } else {
        // Enough binary splits to occupy every worker (same policy as the
        // shim's own `drive`).
        (usize::BITS - (threads - 1).leading_zeros()) as usize
    };
    for_each_shard_rec(tasks, f, splits);
}

fn for_each_shard_rec<T: Send, F: Fn(&mut T) + Sync>(tasks: &mut [T], f: &F, splits_left: usize) {
    if tasks.len() <= 1 || splits_left == 0 {
        for task in tasks {
            f(task);
        }
        return;
    }
    let mid = tasks.len() / 2;
    let (left, right) = tasks.split_at_mut(mid);
    rayon::join(
        || for_each_shard_rec(left, f, splits_left - 1),
        || for_each_shard_rec(right, f, splits_left - 1),
    );
}

/// The sharded asynchronous engine; see the module documentation.
pub struct ShardedAsyncEngine<'a, T, P, A>
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
    /// Per-node accumulating mailbox (see [`AsyncEngine`]); shards view it
    /// through disjoint contiguous slices during the node-step phase.
    mailboxes: Vec<Vec<Envelope<P::Message>>>,
    outboxes: Vec<Outbox<P::Message>>,
    actions: Vec<Action<P::Output>>,
    /// Per-node step period (from the [`ClockPlan`]).
    periods: Vec<u64>,
    /// Shard boundaries: shard `s` owns nodes `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
    /// Destination shard of each node (contiguous ranges, precomputed).
    shard_of: Vec<u32>,
    /// One calendar queue per shard: the shard's node-step events plus
    /// the deferred deliveries addressed into its node range.
    shard_queues: Vec<CalendarQueue<ShardEvent<P::Message>>>,
    /// Per-shard reusable drain scratch.
    shard_scratch: Vec<Vec<(u32, ShardEvent<P::Message>)>>,
    /// Per-shard count of deferred envelopes currently scheduled as
    /// deliver events; whatever remains when the run stops has expired.
    shard_deferred_in_flight: Vec<u64>,
    /// Per-shard tick arenas, gathered in shard order (= global node
    /// order) at the adversary cut.
    shard_honest: Vec<Vec<Envelope<P::Message>>>,
    shard_byz: Vec<Vec<Envelope<P::Message>>>,
    honest_arena: Vec<Envelope<P::Message>>,
    byz_default: Vec<Envelope<P::Message>>,
    crashed_scratch: Vec<bool>,
    statuses: Vec<NodeStatus>,
    outputs: Vec<Option<P::Output>>,
    decided_round: Vec<Option<u64>>,
    /// Router-side accounting: rounds, validation drops, fault
    /// losses/delays, churn.  Merged with the shard metrics at the end.
    router_metrics: RunMetrics,
    /// Per-shard delivery-side accounting.
    shard_metrics: Vec<RunMetrics>,
    time: u64,
    /// Whether the adversary licensed sparse ticking (cached at
    /// construction); an installed fault plan additionally pins the
    /// engine to dense ticking, since the plan is consulted per tick.
    skip_enabled: bool,
    /// Idle ticks jumped over without being executed.
    ticks_skipped: u64,
    fault_plan: Option<Box<dyn FaultPlan>>,
    reset_state: Option<Box<dyn Fn(usize) -> P + Send>>,
    churned_down: Vec<bool>,
    recorder: Option<&'a dyn Recorder>,
    /// Per-destination-shard count of envelopes routed across a shard
    /// boundary this tick (recorder-only accounting).
    cross_shard_scratch: Vec<u64>,
}

impl<'a, T, P, A> ShardedAsyncEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol + Sync,
    P::Output: Send + Sync,
    A: Adversary<P>,
{
    /// Create an engine over `shards` contiguous node-id ranges with the
    /// given clock plan.  The shard count is clamped to `1..=n`.
    ///
    /// # Panics
    /// Panics if `states.len()` or `byzantine.len()` differ from the
    /// topology size.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        topology: &'a T,
        states: Vec<P>,
        byzantine: Vec<bool>,
        adversary: A,
        config: EngineConfig,
        seed: u64,
        shards: usize,
        clocks: ClockPlan,
    ) -> Self {
        let n = topology.len();
        assert_eq!(states.len(), n, "one protocol state per node required");
        assert_eq!(byzantine.len(), n, "byzantine mask must cover every node");
        let bounds = shard_bounds(n, shards);
        let shard_count = bounds.len() - 1;
        let mut shard_of = vec![0u32; n];
        for (s, w) in bounds.windows(2).enumerate() {
            for owner in &mut shard_of[w[0]..w[1]] {
                *owner = s as u32;
            }
        }
        // Node RNG streams are derived per *node*, exactly as in
        // `SyncEngine` — neither the shard layout nor the clock plan must
        // ever reach the protocol randomness.
        let rngs = (0..n)
            .map(|i| ChaCha8Rng::seed_from_u64(splitmix(seed, i as u64)))
            .collect();
        let periods: Vec<u64> = (0..n).map(|i| clocks.period_of(i, seed)).collect();
        let mut shard_queues: Vec<CalendarQueue<ShardEvent<P::Message>>> =
            (0..shard_count).map(|_| CalendarQueue::new()).collect();
        for (s, w) in bounds.windows(2).enumerate() {
            for i in w[0]..w[1] {
                shard_queues[s].push(0, 0, EventClass::NodeStep, i as u32, ShardEvent::NodeStep);
            }
        }
        let skip_enabled = adversary.idle_passive();
        ShardedAsyncEngine {
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
            bounds,
            shard_of,
            shard_queues,
            shard_scratch: (0..shard_count).map(|_| Vec::new()).collect(),
            shard_deferred_in_flight: vec![0; shard_count],
            shard_honest: (0..shard_count).map(|_| Vec::new()).collect(),
            shard_byz: (0..shard_count).map(|_| Vec::new()).collect(),
            honest_arena: Vec::new(),
            byz_default: Vec::new(),
            crashed_scratch: Vec::with_capacity(n),
            statuses: vec![NodeStatus::Active; n],
            outputs: vec![None; n],
            decided_round: vec![None; n],
            router_metrics: RunMetrics::default(),
            shard_metrics: vec![RunMetrics::default(); shard_count],
            time: 0,
            skip_enabled,
            ticks_skipped: 0,
            fault_plan: None,
            reset_state: None,
            churned_down: vec![false; n],
            recorder: None,
            cross_shard_scratch: vec![0; shard_count],
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
    /// The plan is consulted once per tick (the
    /// [`AsyncEngine`](crate::AsyncEngine)'s
    /// self-rescheduling plan-tick event, expressed as a global per-tick
    /// step here), which also pins the engine to dense ticking.
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

    /// Number of shards the engine actually runs with (after clamping).
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The current virtual tick (number of ticks fully executed,
    /// including skipped idle ticks).
    pub fn time(&self) -> u64 {
        self.time
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

    /// Idle ticks jumped over by the sparse-ticking skip so far; see
    /// [`AsyncEngine::ticks_skipped`](crate::AsyncEngine::ticks_skipped).
    pub fn ticks_skipped(&self) -> u64 {
        self.ticks_skipped
    }

    /// Whether the stop condition has been reached.
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
        self.router_metrics.begin_round();
        for metrics in &mut self.shard_metrics {
            metrics.begin_round();
        }
        let tick = self.time;

        let rec = self.recorder;
        let router_snap = rec.map(|_| MetricsSnap::of(&self.router_metrics));
        let shard_snaps: Vec<MetricsSnap> = if rec.is_some() {
            self.shard_metrics.iter().map(MetricsSnap::of).collect()
        } else {
            Vec::new()
        };
        if let Some(rec) = rec {
            for c in &mut self.cross_shard_scratch {
                *c = 0;
            }
            rec.phase_begin(SHARD_ROUTER, tick, Phase::Round);
            rec.phase_begin(SHARD_ROUTER, tick, Phase::Churn);
        }

        // Global step 0 — the fault plan's churn consultation, once per
        // tick (the async engine's plan-tick event, expressed directly):
        // global and sequential, exactly the unsharded order.
        if let Some(plan) = self.fault_plan.as_mut() {
            for event in plan.begin_round(tick) {
                match event {
                    ChurnEvent::Crash(v) => {
                        let i = v.index();
                        if i < n && !self.byzantine[i] && self.statuses[i] != NodeStatus::Crashed {
                            self.statuses[i] = NodeStatus::Crashed;
                            self.churned_down[i] = true;
                            self.router_metrics.record_churn_crash();
                        }
                    }
                    ChurnEvent::Recover(v) => {
                        let i = v.index();
                        if i < n && self.churned_down[i] && self.statuses[i] == NodeStatus::Crashed
                        {
                            if let Some(reset) = self.reset_state.as_ref() {
                                self.states[i] = reset(i);
                                self.outputs[i] = None;
                                self.decided_round[i] = None;
                                self.statuses[i] = NodeStatus::Active;
                                self.churned_down[i] = false;
                                self.mailboxes[i].clear();
                                self.router_metrics.record_churn_recovery();
                            }
                        }
                    }
                }
            }
        }

        if let Some(rec) = rec {
            rec.phase_end(SHARD_ROUTER, tick, Phase::Churn);
        }

        // Per-shard node steps: each shard drains its own queue's due
        // step events (node order within the shard — the queue's
        // tie-break), steps those nodes against its mailbox slice, and
        // reschedules them on their own clock.  Crashed nodes skip the
        // step but keep their cadence, so a churn-recovered node resumes
        // on its original clock phase.
        {
            let mut tasks: Vec<ShardTask<'_, P>> = Vec::with_capacity(self.shard_count());
            {
                let mut states = self.states.as_mut_slice();
                let mut rngs = self.rngs.as_mut_slice();
                let mut outboxes = self.outboxes.as_mut_slice();
                let mut actions = self.actions.as_mut_slice();
                let mut mailboxes = self.mailboxes.as_mut_slice();
                let mut periods = self.periods.as_slice();
                let mut queues = self.shard_queues.iter_mut();
                let mut scratches = self.shard_scratch.iter_mut();
                let mut honest = self.shard_honest.iter_mut();
                let mut byz = self.shard_byz.iter_mut();
                for (s, w) in self.bounds.windows(2).enumerate() {
                    let len = w[1] - w[0];
                    let (task_states, rest) = states.split_at_mut(len);
                    states = rest;
                    let (task_rngs, rest) = rngs.split_at_mut(len);
                    rngs = rest;
                    let (task_outboxes, rest) = outboxes.split_at_mut(len);
                    outboxes = rest;
                    let (task_actions, rest) = actions.split_at_mut(len);
                    actions = rest;
                    let (task_mailboxes, rest) = mailboxes.split_at_mut(len);
                    mailboxes = rest;
                    let (task_periods, rest) = periods.split_at(len);
                    periods = rest;
                    tasks.push(ShardTask {
                        shard: s as u32,
                        start: w[0],
                        queue: queues.next().expect("one queue per shard"),
                        scratch: scratches.next().expect("one scratch per shard"),
                        states: task_states,
                        rngs: task_rngs,
                        outboxes: task_outboxes,
                        actions: task_actions,
                        mailboxes: task_mailboxes,
                        periods: task_periods,
                        honest: honest.next().expect("one arena per shard"),
                        byz: byz.next().expect("one buffer per shard"),
                    });
                }
            }
            let statuses = &self.statuses;
            let outputs = &self.outputs;
            let byzantine = &self.byzantine;
            let topology = self.topology;
            for_each_shard(&mut tasks, &|task: &mut ShardTask<'_, P>| {
                if let Some(rec) = rec {
                    rec.phase_begin(task.shard, tick, Phase::NodeStep);
                }
                task.queue
                    .drain_class_into(tick, EventClass::NodeStep, task.scratch);
                let mut stepped = 0u64;
                for &(node, _) in task.scratch.iter() {
                    let i = node as usize;
                    let local = i - task.start;
                    task.queue.push(
                        tick,
                        tick + task.periods[local],
                        EventClass::NodeStep,
                        node,
                        ShardEvent::NodeStep,
                    );
                    if statuses[i] == NodeStatus::Crashed {
                        task.actions[local] = Action::Continue;
                        continue;
                    }
                    let id = NodeId::from_index(i);
                    let outbox = &mut task.outboxes[local];
                    outbox.clear();
                    let mailbox = std::mem::take(&mut task.mailboxes[local]);
                    let ctx = NodeContext {
                        id,
                        round: tick,
                        neighbors: topology.neighbors(id),
                        decided: outputs[i].is_some(),
                    };
                    task.actions[local] =
                        task.states[local].step(&ctx, &mailbox, outbox, &mut task.rngs[local]);
                    stepped += 1;
                    let mut mailbox = mailbox;
                    mailbox.clear();
                    task.mailboxes[local] = mailbox;
                    let target: &mut Vec<Envelope<P::Message>> =
                        if byzantine[i] { task.byz } else { task.honest };
                    outbox.drain_envelopes(id, |env| target.push(env));
                }
                if let Some(rec) = rec {
                    rec.add(task.shard, tick, Counter::NodeSteps, stepped);
                    rec.phase_end(task.shard, tick, Phase::NodeStep);
                }
            });
        }

        if let Some(rec) = rec {
            rec.phase_begin(SHARD_ROUTER, tick, Phase::AdversaryCut);
        }

        // Rendezvous, step 1: gather the shard arenas in shard order
        // (= global node order) and take the adversary cut — one
        // full-information `act` per executed tick, like [`AsyncEngine`].
        self.honest_arena.clear();
        self.byz_default.clear();
        for arena in &mut self.shard_honest {
            self.honest_arena.append(arena);
        }
        for buffer in &mut self.shard_byz {
            self.byz_default.append(buffer);
        }
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

        // Apply actions (honest nodes only).  Nodes that did not step
        // this tick hold `Continue`.
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
                SHARD_ROUTER,
                tick,
                Gauge::HonestArenaHighWater,
                self.honest_arena.len() as u64,
            );
            rec.gauge(
                SHARD_ROUTER,
                tick,
                Gauge::ByzArenaHighWater,
                self.byz_default.len() as u64,
            );
            rec.phase_end(SHARD_ROUTER, tick, Phase::AdversaryCut);
            rec.phase_begin(SHARD_ROUTER, tick, Phase::Routing);
        }

        // Rendezvous, step 2: validate, account and route every envelope
        // — honest stream first, then the Byzantine path, with the fault
        // plan consulted per envelope in exactly the unsharded engine's
        // order (its RNG stream depends on it).  Immediate deliveries
        // land in mailboxes now; deferred ones become deliver events in
        // the destination shard's queue.
        let mut honest = std::mem::take(&mut self.honest_arena);
        for env in honest.drain(..) {
            self.route(tick, env, false);
        }
        self.honest_arena = honest;
        match decision {
            AdversaryDecision::FollowProtocol => {
                let mut byz = std::mem::take(&mut self.byz_default);
                for env in byz.drain(..) {
                    self.route(tick, env, false);
                }
                self.byz_default = byz;
            }
            AdversaryDecision::Replace(msgs) => {
                for env in msgs {
                    self.route(tick, env, true);
                }
            }
        }

        if let Some(rec) = rec {
            rec.phase_end(SHARD_ROUTER, tick, Phase::Routing);
        }

        // Per-shard deferred drains: each shard completes the deliver
        // events due in its own queue this tick.  Each destination lives
        // in exactly one shard queue and the drain is `(node, seq)`
        // sorted, so per-mailbox arrival order matches the unsharded
        // async engine.
        {
            let statuses = &self.statuses;
            let mailboxes = &mut self.mailboxes;
            for (s, ((queue, scratch), (metrics, in_flight))) in self
                .shard_queues
                .iter_mut()
                .zip(self.shard_scratch.iter_mut())
                .zip(
                    self.shard_metrics
                        .iter_mut()
                        .zip(self.shard_deferred_in_flight.iter_mut()),
                )
                .enumerate()
            {
                if let Some(rec) = rec {
                    rec.phase_begin(s as u32, tick, Phase::DeferredDrain);
                }
                queue.drain_class_into(tick, EventClass::Deliver, scratch);
                for (node, payload) in scratch.drain(..) {
                    let ShardEvent::Deliver(env) = payload else {
                        unreachable!("Deliver events always carry an envelope");
                    };
                    *in_flight -= 1;
                    if statuses[node as usize] == NodeStatus::Crashed {
                        metrics.record_fault_expired(1);
                    } else {
                        metrics.record_delivery(env.payload.message_size());
                        mailboxes[node as usize].push(env);
                    }
                }
                if let Some(rec) = rec {
                    rec.phase_end(s as u32, tick, Phase::DeferredDrain);
                    rec.gauge(s as u32, tick, Gauge::DelayRingPending, *in_flight);
                    rec.gauge(
                        s as u32,
                        tick,
                        Gauge::CalendarOccupancy,
                        queue.scheduled() as u64,
                    );
                }
            }
        }

        if let Some(rec) = rec {
            for (s, (snap, after)) in shard_snaps
                .iter()
                .zip(self.shard_metrics.iter())
                .enumerate()
            {
                emit_metric_deltas(rec, s as u32, tick, *snap, MetricsSnap::of(after));
                let crossed = self.cross_shard_scratch[s];
                if crossed > 0 {
                    rec.add(s as u32, tick, Counter::CrossShardRouted, crossed);
                }
            }
            emit_metric_deltas(
                rec,
                SHARD_ROUTER,
                tick,
                router_snap.expect("snapshotted with recorder"),
                MetricsSnap::of(&self.router_metrics),
            );
            rec.add(SHARD_ROUTER, tick, Counter::Rounds, 1);
            rec.phase_end(SHARD_ROUTER, tick, Phase::Round);
        }

        self.time += 1;
        !self.finished()
    }

    /// Validate, account and route one envelope queued at `tick` into its
    /// destination shard (mirrors [`AsyncEngine`]'s `deliver` with the
    /// sharded engine's metrics partitioning; the validation rules are
    /// literally shared via [`envelope_admissible`]).
    fn route(&mut self, tick: u64, env: Envelope<P::Message>, authored_by_adversary: bool) {
        if !envelope_admissible(
            self.topology,
            &self.statuses,
            &self.byzantine,
            &env,
            authored_by_adversary,
        ) {
            self.router_metrics.record_drop();
            return;
        }
        let fate = match self.fault_plan.as_mut() {
            Some(plan) if !self.byzantine[env.from.index()] => {
                plan.envelope_fate(tick, env.from, env.to)
            }
            _ => EnvelopeFate::Deliver,
        };
        let dest_shard = self.shard_of[env.to.index()] as usize;
        if self.recorder.is_some() && self.shard_of[env.from.index()] as usize != dest_shard {
            self.cross_shard_scratch[dest_shard] += 1;
        }
        match fate {
            // `Delay(0)` accounts as plain delivery in every engine (see
            // the cross-engine regression test below).
            EnvelopeFate::Deliver | EnvelopeFate::Delay(0) => {
                self.shard_metrics[dest_shard].record_delivery(env.payload.message_size());
                self.mailboxes[env.to.index()].push(env);
            }
            EnvelopeFate::Drop => self.router_metrics.record_fault_loss(),
            EnvelopeFate::Delay(delay) => {
                self.router_metrics.record_fault_delay();
                self.shard_deferred_in_flight[dest_shard] += 1;
                let to = env.to.0;
                self.shard_queues[dest_shard].push(
                    tick,
                    tick + delay,
                    EventClass::Deliver,
                    to,
                    ShardEvent::Deliver(env),
                );
            }
        }
    }

    /// Jump over the span of dead ticks ahead of the current tick; see
    /// [`AsyncEngine`]'s sparse-ticking documentation.  The skip target is
    /// the minimum next event time over *all* shard queues — the earliest
    /// tick at which any clock domain has work.  An installed fault plan
    /// disables the skip outright: the plan is consulted every tick here
    /// (there is no plan-tick event occupying the queues), so every tick
    /// is an event tick for it.
    fn skip_idle_ticks(&mut self) {
        if !self.skip_enabled || self.fault_plan.is_some() {
            return;
        }
        let target = self
            .shard_queues
            .iter()
            .filter_map(|q| q.next_event_time())
            .min()
            .unwrap_or(self.config.max_rounds)
            .min(self.config.max_rounds);
        if target <= self.time {
            return;
        }
        let skipped = target - self.time;
        // Bulk-replay the empty ticks' accounting on the router *and*
        // every shard stream, keeping the per-round series aligned for
        // the end-of-run `absorb_shard` merge.
        self.router_metrics.skip_rounds(skipped);
        for metrics in &mut self.shard_metrics {
            metrics.skip_rounds(skipped);
        }
        self.ticks_skipped += skipped;
        if let Some(rec) = self.recorder {
            rec.add(SHARD_ROUTER, self.time, Counter::Rounds, skipped);
            rec.add(SHARD_ROUTER, self.time, Counter::TicksSkipped, skipped);
        }
        self.time = target;
    }

    /// Advance to the next tick at which anything can happen and execute
    /// it; see [`AsyncEngine::advance`](crate::AsyncEngine::advance).
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
    /// Deferred envelopes still scheduled expire in their destination
    /// shard, never delivered.
    pub fn into_result(mut self) -> RunResult<P::Output> {
        for (s, (metrics, in_flight)) in self
            .shard_metrics
            .iter_mut()
            .zip(self.shard_deferred_in_flight.iter())
            .enumerate()
        {
            if *in_flight > 0 {
                metrics.record_fault_expired(*in_flight);
                if let Some(rec) = self.recorder {
                    // Mirror the end-of-run expiries so trace-derived
                    // totals keep matching `RunMetrics` bit-for-bit.
                    rec.add(s as u32, self.time, Counter::MessagesExpired, *in_flight);
                }
            }
        }
        let mut metrics = self.router_metrics;
        for shard in &self.shard_metrics {
            metrics.absorb_shard(shard);
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
            metrics,
            completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::async_engine::AsyncEngine;
    use crate::distributed::DistributedSyncEngine;
    use crate::engine::SyncEngine;
    use crate::testkit::{assert_results_equal, flood_states, line_graph, Shouter};
    use netsim_faults::FaultSpec;
    use netsim_trace::CounterSet;

    const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

    // -- Parity with the unsharded async engine -----------------------------

    #[test]
    fn sharded_async_matches_async_for_every_shard_count_and_clock_plan() {
        let n = 18;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 400,
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
            let reference = AsyncEngine::new(
                &g,
                flood_states(n, 150),
                vec![false; n],
                NullAdversary,
                cfg,
                13,
                clocks,
            )
            .run();
            for shards in SHARD_COUNTS {
                let sharded = ShardedAsyncEngine::new(
                    &g,
                    flood_states(n, 150),
                    vec![false; n],
                    NullAdversary,
                    cfg,
                    13,
                    shards,
                    clocks,
                )
                .run();
                assert_results_equal(
                    &reference,
                    &sharded,
                    &format!("S={shards} clocks={}", clocks.describe()),
                );
            }
        }
    }

    #[test]
    fn sharded_async_matches_async_under_the_full_fault_stack() {
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
        for clocks in [
            ClockPlan::Uniform,
            ClockPlan::Stratified {
                every: 4,
                period: 3,
            },
        ] {
            let reference = AsyncEngine::new(
                &g,
                flood_states(n, 90),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                7,
                clocks,
            )
            .with_fault_plan(plan(7))
            .run();
            assert!(
                reference.metrics.messages_lost > 0 && reference.metrics.messages_delayed > 0,
                "the fault stack must actually have fired for this test to mean anything"
            );
            for shards in SHARD_COUNTS {
                let sharded = ShardedAsyncEngine::new(
                    &g,
                    flood_states(n, 90),
                    vec![false; n],
                    NullAdversary,
                    EngineConfig::default(),
                    7,
                    shards,
                    clocks,
                )
                .with_fault_plan(plan(7))
                .run();
                assert_results_equal(
                    &reference,
                    &sharded,
                    &format!("faulty S={shards} clocks={}", clocks.describe()),
                );
            }
        }
    }

    #[test]
    fn sharded_async_matches_async_under_an_adversary() {
        let n = 16;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        byz[9] = true;
        for clocks in [
            ClockPlan::Uniform,
            ClockPlan::Stratified {
                every: 3,
                period: 4,
            },
        ] {
            let reference = AsyncEngine::new(
                &g,
                flood_states(n, 30),
                byz.clone(),
                Shouter,
                EngineConfig::default(),
                3,
                clocks,
            )
            .run();
            assert!(reference.metrics.messages_dropped > 0);
            for shards in SHARD_COUNTS {
                let sharded = ShardedAsyncEngine::new(
                    &g,
                    flood_states(n, 30),
                    byz.clone(),
                    Shouter,
                    EngineConfig::default(),
                    3,
                    shards,
                    clocks,
                )
                .run();
                assert_results_equal(
                    &reference,
                    &sharded,
                    &format!("adversarial S={shards} clocks={}", clocks.describe()),
                );
            }
        }
    }

    #[test]
    fn sharded_async_matches_async_with_initial_crashes() {
        let n = 16;
        let g = line_graph(n);
        let mut crashed = vec![false; n];
        crashed[3] = true;
        crashed[12] = true;
        for clocks in [ClockPlan::Uniform, ClockPlan::Jittered { max_period: 3 }] {
            let reference = AsyncEngine::new(
                &g,
                flood_states(n, 50),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                5,
                clocks,
            )
            .with_initial_crashes(&crashed)
            .run();
            for shards in SHARD_COUNTS {
                let sharded = ShardedAsyncEngine::new(
                    &g,
                    flood_states(n, 50),
                    vec![false; n],
                    NullAdversary,
                    EngineConfig::default(),
                    5,
                    shards,
                    clocks,
                )
                .with_initial_crashes(&crashed)
                .run();
                assert_results_equal(
                    &reference,
                    &sharded,
                    &format!("initial crashes S={shards} clocks={}", clocks.describe()),
                );
            }
        }
    }

    // -- Parity with the synchronous reference on uniform clocks ------------

    #[test]
    fn uniform_clocks_match_the_sync_and_async_engines() {
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
        assert_results_equal(&reference, &asynced, "async");
        for shards in [1usize, 2, 3, 4, 8, 24, 100] {
            let sharded_async = ShardedAsyncEngine::new(
                &g,
                flood_states(n, 3 * n as u64),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                42,
                shards,
                ClockPlan::Uniform,
            )
            .run();
            assert_results_equal(&reference, &sharded_async, &format!("S={shards}"));
        }
    }

    #[test]
    fn cross_shard_delay_past_the_final_round_expires_and_is_never_delivered() {
        // Regression test for the cross-shard expiry path: a message
        // delayed past the run's final round whose *destination* lives in
        // a different shard than its sender must be counted as
        // `messages_expired` (in the destination shard's queue), never
        // delivered.
        struct DelayAcross;
        impl FaultPlan for DelayAcross {
            fn envelope_fate(&mut self, round: u64, from: NodeId, to: NodeId) -> EnvelopeFate {
                // With n = 8 and S = 2, shard 0 owns 0..4 and shard 1 owns
                // 4..8: the 3 → 4 edge crosses the shard boundary.
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
        .with_fault_plan(Box::new(DelayAcross))
        .run();
        let sharded = ShardedAsyncEngine::new(
            &g,
            flood_states(n, 1000),
            vec![false; n],
            NullAdversary,
            cfg,
            11,
            2,
            ClockPlan::Uniform,
        )
        .with_fault_plan(Box::new(DelayAcross))
        .run();
        assert_results_equal(&reference, &sharded, "cross-shard expiry");
        assert_eq!(
            sharded.metrics.messages_delayed, 1,
            "exactly the boundary-crossing envelope was deferred"
        );
        assert_eq!(
            sharded.metrics.messages_expired, 1,
            "the deferred envelope must expire at the cap, not deliver"
        );
    }

    // -- Delay(0) accounting (cross-engine regression) -----------------------

    /// Defers every honest envelope by zero rounds — must be
    /// indistinguishable from a plan that answers `Deliver`.
    struct DelayZero;
    impl FaultPlan for DelayZero {
        fn envelope_fate(&mut self, _round: u64, _from: NodeId, _to: NodeId) -> EnvelopeFate {
            EnvelopeFate::Delay(0)
        }
    }

    #[test]
    fn delay_zero_accounts_as_immediate_delivery_in_every_engine() {
        // Regression (cross-engine): `EnvelopeFate::Delay(0)` is immediate
        // delivery.  All engines must agree on the (delivered, delayed)
        // split — delivered counted now, `messages_delayed` untouched —
        // and produce results identical to a faultless run.
        let n = 12;
        let g = line_graph(n);
        let baseline = SyncEngine::new(
            &g,
            flood_states(n, 30),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            23,
        )
        .run();
        assert!(baseline.metrics.messages_delivered > 0);
        let check = |result: RunResult<u64>, label: &str| {
            assert_eq!(
                result.metrics.messages_delayed, 0,
                "{label}: Delay(0) must not count as delayed"
            );
            assert_eq!(
                result.metrics.messages_expired, 0,
                "{label}: nothing defers"
            );
            assert_results_equal(&baseline, &result, label);
        };
        check(
            SyncEngine::new(
                &g,
                flood_states(n, 30),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                23,
            )
            .with_fault_plan(Box::new(DelayZero))
            .run(),
            "sync",
        );
        check(
            AsyncEngine::new(
                &g,
                flood_states(n, 30),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                23,
                ClockPlan::Uniform,
            )
            .with_fault_plan(Box::new(DelayZero))
            .run(),
            "async",
        );
        check(
            ShardedAsyncEngine::new(
                &g,
                flood_states(n, 30),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                23,
                4,
                ClockPlan::Uniform,
            )
            .with_fault_plan(Box::new(DelayZero))
            .run(),
            "sharded-async",
        );
        check(
            DistributedSyncEngine::new(
                &g,
                flood_states(n, 30),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                23,
                4,
            )
            .with_fault_plan(Box::new(DelayZero))
            .run()
            .expect("in-process pipes are infallible"),
            "distributed",
        );
    }

    // -- Sparse ticking -------------------------------------------------------

    #[test]
    fn sparse_ticking_matches_dense_and_skips_idle_spans() {
        // Idle-heavy scenario on the sharded engine: all clocks slow, so
        // the shard queues agree that almost every tick is dead.  Sparse
        // execution must be byte-identical to dense while visiting only
        // O(events) ticks.
        let n = 8;
        let g = line_graph(n);
        let period = 32u64;
        let cfg = EngineConfig {
            max_rounds: 50_000,
            stop_when_all_decided: true,
        };
        let mk = |shards: usize| {
            ShardedAsyncEngine::new(
                &g,
                flood_states(n, 800),
                vec![false; n],
                NullAdversary,
                cfg,
                29,
                shards,
                ClockPlan::Stratified {
                    every: 1,
                    period: period as u32,
                },
            )
        };
        // Dense reference: step_tick visits every integer tick.
        let mut dense = mk(3);
        while !dense.finished() {
            dense.step_tick();
        }
        assert_eq!(dense.ticks_skipped(), 0, "step_tick loops never skip");
        let dense_result = dense.into_result();
        for shards in SHARD_COUNTS {
            let mut sparse = mk(shards);
            while !sparse.finished() {
                sparse.advance();
            }
            let span = sparse.time();
            let skipped = sparse.ticks_skipped();
            let visited = span - skipped;
            assert!(
                visited <= span / period + 2,
                "S={shards}: sparse ticking must visit only event ticks \
                 (visited {visited} of {span})"
            );
            assert!(skipped > 10 * visited, "S={shards}: most ticks skipped");
            assert_results_equal(
                &dense_result,
                &sparse.into_result(),
                &format!("sparse S={shards}"),
            );
        }
    }

    #[test]
    fn an_installed_fault_plan_pins_the_engine_to_dense_ticking() {
        // The plan is consulted once per tick here (there is no plan-tick
        // queue event), so sparse ticking must be disabled outright.
        struct Benign;
        impl FaultPlan for Benign {}
        let n = 6;
        let g = line_graph(n);
        let mut engine = ShardedAsyncEngine::new(
            &g,
            flood_states(n, 100),
            vec![false; n],
            NullAdversary,
            EngineConfig {
                max_rounds: 500,
                stop_when_all_decided: true,
            },
            11,
            2,
            ClockPlan::Stratified {
                every: 1,
                period: 16,
            },
        )
        .with_fault_plan(Box::new(Benign));
        while !engine.finished() {
            engine.advance();
        }
        assert_eq!(
            engine.ticks_skipped(),
            0,
            "a fault plan must disable the idle-tick skip"
        );
    }

    #[test]
    fn sparse_skip_reports_rounds_and_skips_to_the_recorder() {
        // Trace-vs-truth under skipping: the recorder's Rounds total must
        // still equal the metrics' rounds, and TicksSkipped reports the
        // saved work.
        let n = 6;
        let g = line_graph(n);
        let counters = CounterSet::new();
        let result = ShardedAsyncEngine::new(
            &g,
            flood_states(n, 200),
            vec![false; n],
            NullAdversary,
            EngineConfig {
                max_rounds: 10_000,
                stop_when_all_decided: true,
            },
            17,
            2,
            ClockPlan::Stratified {
                every: 1,
                period: 16,
            },
        )
        .with_recorder(&counters)
        .run();
        let snap = counters.snapshot();
        assert_eq!(
            snap.total(Counter::Rounds),
            result.metrics.rounds,
            "trace-derived rounds must match RunMetrics bit-for-bit"
        );
        assert!(
            snap.total(Counter::TicksSkipped) > 0,
            "the idle-heavy run must actually have skipped"
        );
        assert_eq!(
            snap.total(Counter::MessagesDelivered),
            result.metrics.messages_delivered,
        );
    }

    // -- Shard layout and fan-out ----------------------------------------------

    #[test]
    fn shard_bounds_cover_the_range_contiguously() {
        for (n, shards) in [(16, 4), (17, 4), (3, 8), (1, 1), (100, 7)] {
            let bounds = shard_bounds(n, shards);
            assert_eq!(*bounds.first().unwrap(), 0);
            assert_eq!(*bounds.last().unwrap(), n);
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
            assert!(bounds.len() - 1 <= shards.max(1));
            if n > 0 {
                // Clamping keeps every shard non-empty and balanced to ±1.
                let sizes: Vec<usize> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
                assert!(sizes.iter().all(|&s| s >= 1), "{n}/{shards}: {sizes:?}");
                let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{n}/{shards}: {sizes:?}");
            }
        }
        // Zero nodes still yields a well-formed (empty) single shard.
        assert_eq!(shard_bounds(0, 4), vec![0, 0]);
    }

    #[test]
    fn shard_count_reports_the_clamped_value() {
        let g = line_graph(4);
        let engine = ShardedAsyncEngine::new(
            &g,
            flood_states(4, 10),
            vec![false; 4],
            NullAdversary,
            EngineConfig::default(),
            0,
            64,
            ClockPlan::Uniform,
        );
        assert_eq!(engine.shard_count(), 4, "shards clamp to the node count");
    }

    #[test]
    fn single_worker_fan_out_is_sequential_and_results_are_unchanged() {
        // With one configured worker the shard loop must not spawn (the
        // splits budget is zero) and — the actual contract — results must
        // be identical to the multi-worker run.  The override is
        // process-global but harmless to concurrent tests: nothing in this
        // crate's suite may depend on the worker count.
        struct RestoreOverride;
        impl Drop for RestoreOverride {
            fn drop(&mut self) {
                rayon::set_num_threads_override(None);
            }
        }
        let _restore = RestoreOverride;
        let n = 24;
        let g = line_graph(n);
        let run = || {
            ShardedAsyncEngine::new(
                &g,
                flood_states(n, 60),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                13,
                6,
                ClockPlan::Uniform,
            )
            .run()
        };
        rayon::set_num_threads_override(Some(1));
        let sequential = run();
        rayon::set_num_threads_override(Some(8));
        let fanned_out = run();
        assert_results_equal(&sequential, &fanned_out, "worker-count independence");
    }
}
