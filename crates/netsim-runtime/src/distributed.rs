//! The distributed synchronous engine: shard workers behind a wire
//! protocol.
//!
//! [`DistributedSyncEngine`] executes the exact semantics of
//! [`SyncEngine`](crate::SyncEngine) over the same shard layout as the
//! [`ShardedAsyncEngine`](crate::ShardedAsyncEngine), but the shards are
//! **workers**: each owns a contiguous node-id range *privately* (its
//! protocol states, RNG streams, inbox double-buffers, deferred-delivery
//! ring and delivery-side metrics never leave it), and talks to a central
//! **coordinator** exclusively through `netsim-wire`'s versioned,
//! checksummed binary frames.
//!
//! Workers run over one of two transports, chosen per run and invisible to
//! the protocol (the transport is an execution knob, never a spec field):
//!
//! * **In-process pipes** (the default): one scoped thread per shard over
//!   an in-memory [`netsim_wire::pipe`] duplex — the hermetic mode the
//!   differential suites and CI use.
//! * **Remote sockets** ([`with_remote_fleet`]): the coordinator dials a
//!   fleet of worker *processes* (Unix-domain or TCP, round-robin over the
//!   address list) and carries a [`ShardAssignment`] in its hello — the
//!   node range, the determinism anchors (engine seed, initial crashes,
//!   pristine flag) and an opaque payload (the serialized run spec) from
//!   which the worker rebuilds its slice of the simulation and then calls
//!   [`serve_shard_session`].
//!
//! Nothing the two sides exchange is an in-process shortcut: every
//! per-round payload crosses the full handshake/frame/codec stack, so the
//! same conversation is byte-identical over pipes, Unix sockets, TCP
//! loopback, or a mix.
//!
//! [`with_remote_fleet`]: DistributedSyncEngine::with_remote_fleet
//!
//! ## The conversation
//!
//! Per round (coordinator ⇄ each worker, workers addressed in shard order):
//!
//! 1. **`RoundBegin { round, churn }`** → worker.  The coordinator owns the
//!    fault plan and consults it exactly like the unsharded engine (churn
//!    first, globally and sequentially — the plan's RNG stream depends on
//!    the order); only the *effective* events for the worker's range are
//!    forwarded.  The worker applies them (a recovery resets the node from
//!    its pristine state), steps its nodes, and drains its outboxes into
//!    its honest/Byzantine arenas in node order.
//! 2. **`Arenas { honest, byz, transitions }`** → coordinator.  This is the
//!    ROADMAP's observation made concrete: the *only* per-round state a
//!    worker must ship is its gathered envelope arena — plus the
//!    status transitions (`Decide`/`Crash`) its nodes took, which the
//!    coordinator needs for admissibility checks and the stop condition.
//! 3. The coordinator gathers arenas **in shard order** (= global node
//!    order), shows the single gathered stream to the adversary against the
//!    pre-action statuses, applies the reported transitions, and routes
//!    every envelope — honest stream first, then the Byzantine path — in
//!    the unsharded engine's exact order, consulting the fault plan with
//!    the identical RNG stream.
//! 4. **`Fates { deliveries, deferred }`** → worker.  Each worker receives
//!    the envelopes destined for its range (already in global route order)
//!    plus the deferred ones with their due rounds.  It records the
//!    deliveries in its own metrics, feeds its [`DelayRing`], drains what
//!    is due this round, and swaps its inbox double-buffer.
//!
//! At the end, **`Finish`** prompts each worker to expire its in-flight
//! deferrals and ship one final **`Done`** frame: its [`RunMetrics`], its
//! range's outputs and its decision rounds.  Outputs travel the wire in
//! both transports (a `Protocol::Output` must be a [`Wire`] type to run
//! distributed) — one code path, no join-based side channel.
//!
//! ## Failure semantics
//!
//! A worker channel failing mid-conversation — a torn frame, a dead
//! process, an incompatible hello — is **not** a panic: every wire
//! interaction surfaces as [`RunError::WorkerLost`] naming the shard and
//! the protocol step it died in.  A SIGKILLed worker process closes its
//! socket, the coordinator's next read sees EOF, and the run returns a
//! clean `Err` the caller (e.g. the campaign scheduler) can retry.
//!
//! ## Determinism contract
//!
//! For equal `(topology, protocol, adversary, seed, fault plan)`, a
//! distributed run is **byte-identical** to `SyncEngine` (and to
//! `ShardedAsyncEngine` on uniform clocks) for every shard count *and
//! every transport* — the differential suite
//! (`tests/distributed_parity.rs`) locks this down over the golden
//! fixtures.  One documented caveat: the coordinator shows the
//! adversary an empty `states` slice (worker-owned protocol states are not
//! shipped).  No adversary in this workspace reads `AdversaryView::states`;
//! one that did would need the states on the wire, which plain `Protocol`
//! types do not support.
//!
//! Observability: a [`Recorder`] observes the coordinator side only (churn,
//! adversary cut, routing and the router's metric deltas, all under
//! [`SHARD_ROUTER`]).  Worker-side deltas are not traced in distributed
//! mode — the shard metrics still merge into the run's exact totals.

use crate::adversary::{Adversary, AdversaryDecision, AdversaryView};
use crate::engine::{
    emit_metric_deltas, envelope_admissible, splitmix, EngineConfig, MetricsSnap, RunResult,
};
use crate::message::{Envelope, MessageSize, SizedMessage};
use crate::metrics::RunMetrics;
use crate::node::{Action, NodeContext, NodeStatus, Outbox, Protocol};
use crate::ring::DelayRing;
use crate::sharded_async::shard_bounds;
use crate::topology::Topology;
use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan};
use netsim_graph::NodeId;
use netsim_trace::{Counter, Gauge, Phase, Recorder, SHARD_ROUTER};
use netsim_wire::{
    decode_from_slice, duplex, encode_to_vec, read_frame, recv_hello, send_hello, write_frame,
    IoStream, PipeEnd, Reader, ShardAssignment, Wire, WireError, WireHello, SPEC_VERSION_ANY,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{Read, Write};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Errors.

/// Why a distributed run could not complete.
///
/// These are *engine* faults (a transport or peer failed), never protocol
/// results: a run that merely fails to decide still returns
/// `Ok(RunResult { completed: false, .. })`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A shard worker's channel failed mid-conversation: torn frame,
    /// closed socket (e.g. the worker process was killed), protocol
    /// violation or incompatible hello.
    WorkerLost {
        /// Which shard's channel failed.
        shard: usize,
        /// The protocol step the failure surfaced in (`"hello"`,
        /// `"round-begin"`, `"arenas"`, `"fates"`, `"finish"`, `"done"`).
        during: &'static str,
        /// The underlying error, stringified.
        detail: String,
    },
    /// The worker fleet could not be set up (bad address, refused dial).
    Fleet(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::WorkerLost {
                shard,
                during,
                detail,
            } => {
                write!(f, "shard worker {shard} lost during {during}: {detail}")
            }
            RunError::Fleet(msg) => write!(f, "worker fleet unavailable: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Shorthand for the per-step `WireError` → [`RunError::WorkerLost`]
/// mapping.
fn lost(shard: usize, during: &'static str) -> impl Fn(WireError) -> RunError {
    move |e| RunError::WorkerLost {
        shard,
        during,
        detail: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// The remote fleet knob.

/// Where (and how) to find process-level shard workers.
///
/// Handed to [`DistributedSyncEngine::with_remote_fleet`]; shard `s` dials
/// `addrs[s % addrs.len()]` (round-robin, so a fleet smaller than the
/// shard count serves several sessions per process, and a mixed
/// Unix/TCP address list yields a mixed-transport run).  The `payload`
/// rides the hello's [`ShardAssignment`] opaquely — for spec-driven runs
/// it is the serialized `RunSpec` the worker rebuilds its node range from.
#[derive(Clone, Debug)]
pub struct RemoteFleet {
    /// Worker addresses, `unix:<path>` or `host:port`.
    pub addrs: Vec<String>,
    /// Opaque application bytes shipped in every assignment.
    pub payload: Vec<u8>,
    /// Payload schema pin for the handshake ([`SPEC_VERSION_ANY`] to opt
    /// out).
    pub spec_version: u32,
    /// Read deadline for the handshake only (cleared once the hello
    /// verifies); a mute worker fails the run instead of hanging it.
    pub handshake_timeout: Duration,
}

impl RemoteFleet {
    /// A fleet with the default 10 s handshake deadline.
    pub fn new(addrs: Vec<String>, payload: Vec<u8>, spec_version: u32) -> Self {
        RemoteFleet {
            addrs,
            payload,
            spec_version,
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire encodings for the runtime's transferable types.

impl Wire for SizedMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ids.encode(out);
        self.bits.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SizedMessage {
            ids: u32::decode(r)?,
            bits: u32::decode(r)?,
        })
    }
}

impl<M: Wire> Wire for Envelope<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.0.encode(out);
        self.to.0.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Envelope {
            from: NodeId(u32::decode(r)?),
            to: NodeId(u32::decode(r)?),
            payload: M::decode(r)?,
        })
    }
}

impl Wire for RunMetrics {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rounds.encode(out);
        self.messages_delivered.encode(out);
        self.messages_dropped.encode(out);
        self.messages_lost.encode(out);
        self.messages_delayed.encode(out);
        self.messages_expired.encode(out);
        self.churn_crashes.encode(out);
        self.churn_recoveries.encode(out);
        self.total_ids.encode(out);
        self.total_bits.encode(out);
        self.max_message.encode(out);
        self.per_round_messages.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RunMetrics {
            rounds: u64::decode(r)?,
            messages_delivered: u64::decode(r)?,
            messages_dropped: u64::decode(r)?,
            messages_lost: u64::decode(r)?,
            messages_delayed: u64::decode(r)?,
            messages_expired: u64::decode(r)?,
            churn_crashes: u64::decode(r)?,
            churn_recoveries: u64::decode(r)?,
            total_ids: u64::decode(r)?,
            total_bits: u64::decode(r)?,
            max_message: SizedMessage::decode(r)?,
            per_round_messages: Vec::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// The shard-channel protocol.

/// Churn op codes on the wire.
const CHURN_CRASH: u8 = 0;
const CHURN_RECOVER: u8 = 1;
/// Status-transition op codes on the wire.
const TRANSITION_DECIDED: u8 = 0;
const TRANSITION_CRASHED: u8 = 1;

/// Coordinator → worker messages.
enum CoordMsg<M> {
    /// Open a round: effective churn events for the worker's range, in the
    /// plan's global order.
    RoundBegin { round: u64, churn: Vec<(u32, u8)> },
    /// The round's routing verdicts for this worker's destinations:
    /// immediate deliveries (in global route order) and deferred envelopes
    /// with their due rounds.
    Fates {
        deliveries: Vec<Envelope<M>>,
        deferred: Vec<(u64, Envelope<M>)>,
    },
    /// The run is over: expire in-flight deferrals and ship `Done`.
    Finish,
}

/// Worker → coordinator messages.
enum WorkerMsg<M, O> {
    /// The round's gathered outboxes (honest and Byzantine-default arenas,
    /// each in node order) plus the status transitions the worker's nodes
    /// took (`(global node id, TRANSITION_*)`, in node order).
    Arenas {
        honest: Vec<Envelope<M>>,
        byz: Vec<Envelope<M>>,
        transitions: Vec<(u32, u8)>,
    },
    /// The worker's final frame: delivery-side metrics, its range's
    /// outputs and decision rounds.
    Done {
        metrics: RunMetrics,
        outputs: Vec<Option<O>>,
        decided: Vec<Option<u64>>,
    },
}

impl<M: Wire> Wire for CoordMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CoordMsg::RoundBegin { round, churn } => {
                out.push(0);
                round.encode(out);
                churn.encode(out);
            }
            CoordMsg::Fates {
                deliveries,
                deferred,
            } => {
                out.push(1);
                deliveries.encode(out);
                deferred.encode(out);
            }
            CoordMsg::Finish => out.push(2),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(CoordMsg::RoundBegin {
                round: u64::decode(r)?,
                churn: Vec::decode(r)?,
            }),
            1 => Ok(CoordMsg::Fates {
                deliveries: Vec::decode(r)?,
                deferred: Vec::decode(r)?,
            }),
            2 => Ok(CoordMsg::Finish),
            other => Err(WireError::Corrupt(format!(
                "unknown coordinator message tag {other}"
            ))),
        }
    }
}

impl<M: Wire, O: Wire> Wire for WorkerMsg<M, O> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WorkerMsg::Arenas {
                honest,
                byz,
                transitions,
            } => {
                out.push(0);
                honest.encode(out);
                byz.encode(out);
                transitions.encode(out);
            }
            WorkerMsg::Done {
                metrics,
                outputs,
                decided,
            } => {
                out.push(1);
                metrics.encode(out);
                outputs.encode(out);
                decided.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(WorkerMsg::Arenas {
                honest: Vec::decode(r)?,
                byz: Vec::decode(r)?,
                transitions: Vec::decode(r)?,
            }),
            1 => Ok(WorkerMsg::Done {
                metrics: RunMetrics::decode(r)?,
                outputs: Vec::decode(r)?,
                decided: Vec::decode(r)?,
            }),
            other => Err(WireError::Corrupt(format!(
                "unknown worker message tag {other}"
            ))),
        }
    }
}

/// Send one codec message as one frame.
fn send_msg<W: Write, V: Wire>(w: &mut W, msg: &V) -> Result<(), WireError> {
    write_frame(w, &encode_to_vec(msg))
}

/// Receive one codec message from one frame (`scratch` is a reused buffer).
fn recv_msg<R: Read, V: Wire>(r: &mut R, scratch: &mut Vec<u8>) -> Result<V, WireError> {
    read_frame(r, scratch)?;
    decode_from_slice(scratch)
}

// ---------------------------------------------------------------------------
// The shard channel: one coordinator-side handle per worker, pipe or
// socket, behind one `Read + Write` face.

enum ShardChannel {
    /// In-memory duplex to a scoped worker thread.
    Pipe(PipeEnd),
    /// Socket to a worker process.
    Socket(IoStream),
}

impl Read for ShardChannel {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ShardChannel::Pipe(p) => p.read(buf),
            ShardChannel::Socket(s) => s.read(buf),
        }
    }
}

impl Write for ShardChannel {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ShardChannel::Pipe(p) => p.write(buf),
            ShardChannel::Socket(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ShardChannel::Pipe(p) => p.flush(),
            ShardChannel::Socket(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// The worker.

/// One shard worker's private state: a contiguous node range no other
/// thread (or process) can see.  Everything that crosses its boundary goes
/// through the wire protocol above.
struct Worker<'a, T, P: Protocol> {
    topology: &'a T,
    /// First global node id of this worker's range.
    start: usize,
    states: Vec<P>,
    /// Pristine clones for churn recovery (present iff a fault plan is
    /// installed, mirroring `SyncEngine::with_fault_plan`).
    pristine: Option<Vec<P>>,
    byzantine: Vec<bool>,
    statuses: Vec<NodeStatus>,
    rngs: Vec<ChaCha8Rng>,
    outputs: Vec<Option<P::Output>>,
    decided_round: Vec<Option<u64>>,
    inboxes: Vec<Vec<Envelope<P::Message>>>,
    next_inboxes: Vec<Vec<Envelope<P::Message>>>,
    outboxes: Vec<Outbox<P::Message>>,
    actions: Vec<Action<P::Output>>,
    /// Deferred envelopes in flight *towards* this worker's range.
    ring: DelayRing<Envelope<P::Message>>,
    /// Delivery-side accounting for this worker's range.
    metrics: RunMetrics,
    /// The round currently open (set by `RoundBegin`).
    round: u64,
}

/// Build a worker over a node range.  Per-node RNG streams derive from the
/// *global* node id (`start + local`), so the shard layout — and the
/// transport — never reaches the randomness.
fn make_worker<T, P>(
    topology: &T,
    start: usize,
    states: Vec<P>,
    byzantine: Vec<bool>,
    statuses: Vec<NodeStatus>,
    seed: u64,
    keep_pristine: bool,
) -> Worker<'_, T, P>
where
    T: Topology,
    P: Protocol + Clone,
{
    let len = states.len();
    debug_assert_eq!(byzantine.len(), len);
    debug_assert_eq!(statuses.len(), len);
    let pristine = keep_pristine.then(|| states.clone());
    Worker {
        topology,
        start,
        states,
        pristine,
        byzantine,
        statuses,
        rngs: (start..start + len)
            .map(|i| ChaCha8Rng::seed_from_u64(splitmix(seed, i as u64)))
            .collect(),
        outputs: vec![None; len],
        decided_round: vec![None; len],
        inboxes: vec![Vec::new(); len],
        next_inboxes: vec![Vec::new(); len],
        outboxes: (0..len).map(|_| Outbox::new()).collect(),
        actions: vec![Action::Continue; len],
        ring: DelayRing::new(),
        metrics: RunMetrics::default(),
        round: 0,
    }
}

/// The worker's post-handshake event loop: serve `CoordMsg`s until
/// `Finish`, then ship the final `Done` frame (metrics, outputs, decision
/// rounds) and return.
fn serve_worker<T, P, S>(mut w: Worker<'_, T, P>, chan: &mut S) -> Result<(), WireError>
where
    T: Topology,
    P: Protocol + Clone,
    P::Message: Wire,
    P::Output: Wire,
    S: Read + Write,
{
    let mut scratch = Vec::new();
    loop {
        match recv_msg::<_, CoordMsg<P::Message>>(chan, &mut scratch)? {
            CoordMsg::RoundBegin { round, churn } => {
                w.round = round;
                w.metrics.begin_round();
                // Effective churn for this range, pre-validated by the
                // coordinator (which owns the global guards).
                for (node, op) in churn {
                    let local = node as usize - w.start;
                    match op {
                        CHURN_CRASH => w.statuses[local] = NodeStatus::Crashed,
                        CHURN_RECOVER => {
                            let pristine = w.pristine.as_ref().ok_or_else(|| {
                                WireError::Corrupt("recovery event without a fault plan".into())
                            })?;
                            w.states[local] = pristine[local].clone();
                            w.outputs[local] = None;
                            w.decided_round[local] = None;
                            w.statuses[local] = NodeStatus::Active;
                            w.inboxes[local].clear();
                        }
                        other => {
                            return Err(WireError::Corrupt(format!("unknown churn op {other}")))
                        }
                    }
                }
                // Compute: step every non-crashed node against its inbox,
                // exactly the in-process engines' node-step phase.
                for local in 0..w.states.len() {
                    let i = w.start + local;
                    let outbox = &mut w.outboxes[local];
                    outbox.clear();
                    if w.statuses[local] == NodeStatus::Crashed {
                        w.actions[local] = Action::Continue;
                        continue;
                    }
                    let id = NodeId::from_index(i);
                    let ctx = NodeContext {
                        id,
                        round,
                        neighbors: w.topology.neighbors(id),
                        decided: w.outputs[local].is_some(),
                    };
                    w.actions[local] =
                        w.states[local].step(&ctx, &w.inboxes[local], outbox, &mut w.rngs[local]);
                }
                // Drain outboxes into the round's arenas, in node order.
                let mut honest = Vec::new();
                let mut byz = Vec::new();
                for local in 0..w.outboxes.len() {
                    let i = w.start + local;
                    let target = if w.byzantine[local] {
                        &mut byz
                    } else {
                        &mut honest
                    };
                    w.outboxes[local]
                        .drain_envelopes(NodeId::from_index(i), |env| target.push(env));
                }
                // Apply this range's actions locally and report the status
                // transitions.  The per-node guards are independent, so
                // applying here (before the coordinator's adversary cut)
                // and reporting is equivalent to the in-process engines'
                // global action phase — the coordinator defers *its* application
                // until after the adversary has seen the pre-action
                // statuses.
                let mut transitions = Vec::new();
                for local in 0..w.actions.len() {
                    if w.byzantine[local] || w.statuses[local] == NodeStatus::Crashed {
                        w.actions[local] = Action::Continue;
                        continue;
                    }
                    match std::mem::replace(&mut w.actions[local], Action::Continue) {
                        Action::Continue => {}
                        Action::Decide(output) => {
                            if w.outputs[local].is_none() {
                                w.outputs[local] = Some(output);
                                w.decided_round[local] = Some(round);
                                w.statuses[local] = NodeStatus::Decided;
                                transitions.push(((w.start + local) as u32, TRANSITION_DECIDED));
                            }
                        }
                        Action::Crash => {
                            w.statuses[local] = NodeStatus::Crashed;
                            transitions.push(((w.start + local) as u32, TRANSITION_CRASHED));
                        }
                    }
                }
                send_msg(
                    chan,
                    &WorkerMsg::<_, P::Output>::Arenas {
                        honest,
                        byz,
                        transitions,
                    },
                )?;
            }
            CoordMsg::Fates {
                deliveries,
                deferred,
            } => {
                // Immediate deliveries, already in global route order.
                for env in deliveries {
                    w.metrics.record_delivery(env.payload.message_size());
                    w.next_inboxes[env.to.index() - w.start].push(env);
                }
                for (due, env) in deferred {
                    w.ring.push(w.round, due, env);
                }
                // Phase 5: drain what is due this round (post-action
                // statuses, like the in-process engines).
                let Worker {
                    ring,
                    metrics,
                    next_inboxes,
                    statuses,
                    start,
                    round,
                    ..
                } = &mut w;
                ring.drain_due(*round, |env| {
                    if statuses[env.to.index() - *start] == NodeStatus::Crashed {
                        metrics.record_fault_expired(1);
                    } else {
                        metrics.record_delivery(env.payload.message_size());
                        next_inboxes[env.to.index() - *start].push(env);
                    }
                });
                // Round boundary: swap the inbox double-buffer.
                std::mem::swap(&mut w.inboxes, &mut w.next_inboxes);
                for inbox in &mut w.next_inboxes {
                    inbox.clear();
                }
            }
            CoordMsg::Finish => {
                let in_flight = w.ring.in_flight() as u64;
                if in_flight > 0 {
                    w.metrics.record_fault_expired(in_flight);
                }
                send_msg(
                    chan,
                    &WorkerMsg::<P::Message, P::Output>::Done {
                        metrics: w.metrics,
                        outputs: w.outputs,
                        decided: w.decided_round,
                    },
                )?;
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Process-level worker entry point.

/// Everything a process-level shard worker needs beyond its node range's
/// states and Byzantine mask — normally lifted straight off the
/// coordinator's hello via [`ShardServeConfig::from_assignment`].
#[derive(Clone, Debug)]
pub struct ShardServeConfig {
    /// First global node id of the range.
    pub start: usize,
    /// The engine seed (per-node RNG sub-streams derive from it by global
    /// node id).
    pub seed: u64,
    /// Keep pristine state clones for churn recovery (true iff the
    /// coordinator runs a fault plan).
    pub keep_pristine: bool,
    /// Global ids within the range that start crashed.
    pub crashed: Vec<u32>,
}

impl ShardServeConfig {
    /// Lift the serve parameters off a coordinator's [`ShardAssignment`].
    pub fn from_assignment(a: &ShardAssignment) -> Self {
        ShardServeConfig {
            start: a.start as usize,
            seed: a.seed,
            keep_pristine: a.pristine,
            crashed: a.crashed.clone(),
        }
    }
}

/// Serve one coordinator session over an already-handshaken channel: the
/// process-level worker's side of the engine, fed with the node range's
/// freshly built states (`states`/`byzantine` cover the range only).
///
/// Determinism: given states built identically to the coordinator's (the
/// spec-driven runners construct per-node states by global node id, so a
/// range chunk is trivially identical), the conversation — and therefore
/// the run result — is byte-identical to the in-process transport.
pub fn serve_shard_session<T, P, S>(
    topology: &T,
    states: Vec<P>,
    byzantine: Vec<bool>,
    cfg: &ShardServeConfig,
    chan: &mut S,
) -> Result<(), WireError>
where
    T: Topology,
    P: Protocol + Clone,
    P::Message: Wire,
    P::Output: Wire,
    S: Read + Write,
{
    let len = states.len();
    if byzantine.len() != len {
        return Err(WireError::Corrupt(format!(
            "byzantine mask covers {} nodes, range has {len}",
            byzantine.len()
        )));
    }
    let mut statuses = vec![NodeStatus::Active; len];
    for &id in &cfg.crashed {
        let local = (id as usize)
            .checked_sub(cfg.start)
            .filter(|&l| l < len)
            .ok_or_else(|| {
                WireError::Corrupt(format!(
                    "initial crash id {id} outside range {}..{}",
                    cfg.start,
                    cfg.start + len
                ))
            })?;
        statuses[local] = NodeStatus::Crashed;
    }
    let worker = make_worker(
        topology,
        cfg.start,
        states,
        byzantine,
        statuses,
        cfg.seed,
        cfg.keep_pristine,
    );
    serve_worker(worker, chan)
}

// ---------------------------------------------------------------------------
// The coordinator.

/// Validate, account and route one envelope into its destination worker's
/// delivery or deferral batch (the distributed form of
/// `SyncEngine`'s delivery step; validation is literally shared via
/// [`envelope_admissible`]).
#[allow(clippy::too_many_arguments)]
fn route_one<T: Topology, M: MessageSize>(
    topology: &T,
    statuses: &[NodeStatus],
    byzantine: &[bool],
    shard_of: &[u32],
    round: u64,
    env: Envelope<M>,
    authored_by_adversary: bool,
    fault_plan: &mut Option<Box<dyn FaultPlan>>,
    router_metrics: &mut RunMetrics,
    deliveries: &mut [Vec<Envelope<M>>],
    deferred: &mut [Vec<(u64, Envelope<M>)>],
) {
    if !envelope_admissible(topology, statuses, byzantine, &env, authored_by_adversary) {
        router_metrics.record_drop();
        return;
    }
    let fate = match fault_plan.as_mut() {
        Some(plan) if !byzantine[env.from.index()] => plan.envelope_fate(round, env.from, env.to),
        _ => EnvelopeFate::Deliver,
    };
    let dest = shard_of[env.to.index()] as usize;
    match fate {
        // `Delay(0)` accounts as plain delivery in every engine.
        EnvelopeFate::Deliver | EnvelopeFate::Delay(0) => deliveries[dest].push(env),
        EnvelopeFate::Drop => router_metrics.record_fault_loss(),
        EnvelopeFate::Delay(delay) => {
            router_metrics.record_fault_delay();
            deferred[dest].push((round + delay, env));
        }
    }
}

/// The coordinator's round loop over already-handshaken worker channels.
/// Transport-generic: the channels may be pipes to scoped threads or
/// sockets to worker processes — the conversation is identical.
#[allow(clippy::too_many_arguments)]
fn coordinate<T, P, A, S>(
    topology: &T,
    byzantine: Vec<bool>,
    mut adversary: A,
    config: EngineConfig,
    seed: u64,
    bounds: &[usize],
    mut statuses: Vec<NodeStatus>,
    mut fault_plan: Option<Box<dyn FaultPlan>>,
    recorder: Option<&dyn Recorder>,
    chans: &mut [S],
) -> Result<RunResult<P::Output>, RunError>
where
    T: Topology,
    P: Protocol,
    P::Message: Wire,
    P::Output: Wire,
    A: Adversary<P>,
    S: Read + Write,
{
    let n = topology.len();
    let shard_count = bounds.len() - 1;
    let mut shard_of = vec![0u32; n];
    for (s, w) in bounds.windows(2).enumerate() {
        for owner in &mut shard_of[w[0]..w[1]] {
            *owner = s as u32;
        }
    }
    let mut adversary_rng = ChaCha8Rng::seed_from_u64(splitmix(seed, u64::MAX));
    let mut churned_down = vec![false; n];
    let mut router_metrics = RunMetrics::default();
    let mut round: u64 = 0;
    let mut scratch = Vec::new();
    let mut crashed_scratch: Vec<bool> = Vec::with_capacity(n);

    loop {
        // Stop condition, identical to the other engines.
        if round >= config.max_rounds {
            break;
        }
        if config.stop_when_all_decided
            && statuses
                .iter()
                .zip(&byzantine)
                .filter(|(_, byz)| !**byz)
                .all(|(s, _)| *s != NodeStatus::Active)
        {
            break;
        }

        router_metrics.begin_round();
        let rec = recorder;
        let router_snap = rec.map(|_| MetricsSnap::of(&router_metrics));
        if let Some(rec) = rec {
            rec.phase_begin(SHARD_ROUTER, round, Phase::Round);
            rec.phase_begin(SHARD_ROUTER, round, Phase::Churn);
        }

        // Phase 0: churn — validated centrally in the plan's global
        // order (its RNG stream depends on it), then forwarded as
        // effective events to the owning workers.
        let mut shard_churn: Vec<Vec<(u32, u8)>> = vec![Vec::new(); shard_count];
        if let Some(plan) = fault_plan.as_mut() {
            for event in plan.begin_round(round) {
                match event {
                    ChurnEvent::Crash(v) => {
                        let i = v.index();
                        if i < n && !byzantine[i] && statuses[i] != NodeStatus::Crashed {
                            statuses[i] = NodeStatus::Crashed;
                            churned_down[i] = true;
                            router_metrics.record_churn_crash();
                            shard_churn[shard_of[i] as usize].push((i as u32, CHURN_CRASH));
                        }
                    }
                    ChurnEvent::Recover(v) => {
                        let i = v.index();
                        // Workers hold pristine states whenever a fault
                        // plan is installed, so the in-process engines'
                        // reset-availability guard is implied here.
                        if i < n && churned_down[i] && statuses[i] == NodeStatus::Crashed {
                            statuses[i] = NodeStatus::Active;
                            churned_down[i] = false;
                            router_metrics.record_churn_recovery();
                            shard_churn[shard_of[i] as usize].push((i as u32, CHURN_RECOVER));
                        }
                    }
                }
            }
        }
        if let Some(rec) = rec {
            rec.phase_end(SHARD_ROUTER, round, Phase::Churn);
        }

        // Open the round on every worker.
        for (s, chan) in chans.iter_mut().enumerate() {
            send_msg(
                chan,
                &CoordMsg::<P::Message>::RoundBegin {
                    round,
                    churn: std::mem::take(&mut shard_churn[s]),
                },
            )
            .map_err(lost(s, "round-begin"))?;
        }

        // Gather arenas in shard order (= global node order).
        let mut honest_arena: Vec<Envelope<P::Message>> = Vec::new();
        let mut byz_default: Vec<Envelope<P::Message>> = Vec::new();
        let mut transitions_all: Vec<(u32, u8)> = Vec::new();
        for (s, chan) in chans.iter_mut().enumerate() {
            match recv_msg::<_, WorkerMsg<P::Message, P::Output>>(chan, &mut scratch)
                .map_err(lost(s, "arenas"))?
            {
                WorkerMsg::Arenas {
                    honest,
                    byz,
                    transitions,
                } => {
                    honest_arena.extend(honest);
                    byz_default.extend(byz);
                    transitions_all.extend(transitions);
                }
                WorkerMsg::Done { .. } => {
                    return Err(RunError::WorkerLost {
                        shard: s,
                        during: "arenas",
                        detail: "worker sent its final frame mid-run".into(),
                    });
                }
            }
        }

        if let Some(rec) = rec {
            rec.phase_begin(SHARD_ROUTER, round, Phase::AdversaryCut);
        }
        // The adversary observes the gathered stream against the
        // pre-action statuses (worker-owned protocol states are not
        // shipped; see the module docs).
        crashed_scratch.clear();
        crashed_scratch.extend(statuses.iter().map(|s| *s == NodeStatus::Crashed));
        let decision = {
            let view = AdversaryView {
                round,
                byzantine: &byzantine,
                crashed: &crashed_scratch,
                states: &[],
                honest_messages: &honest_arena,
                byzantine_default_messages: &byz_default,
            };
            adversary.act(&view, &mut adversary_rng)
        };
        // Phase 3: apply the worker-reported transitions, after the
        // adversary observed the pre-action statuses.
        for &(node, op) in &transitions_all {
            statuses[node as usize] = if op == TRANSITION_DECIDED {
                NodeStatus::Decided
            } else {
                NodeStatus::Crashed
            };
        }
        if let Some(rec) = rec {
            rec.gauge(
                SHARD_ROUTER,
                round,
                Gauge::HonestArenaHighWater,
                honest_arena.len() as u64,
            );
            rec.gauge(
                SHARD_ROUTER,
                round,
                Gauge::ByzArenaHighWater,
                byz_default.len() as u64,
            );
            rec.phase_end(SHARD_ROUTER, round, Phase::AdversaryCut);
            rec.phase_begin(SHARD_ROUTER, round, Phase::Routing);
        }

        // Route every envelope in the unsharded engine's exact order:
        // honest stream first, then the Byzantine path.
        let mut deliveries: Vec<Vec<Envelope<P::Message>>> =
            (0..shard_count).map(|_| Vec::new()).collect();
        let mut deferred: Vec<Vec<(u64, Envelope<P::Message>)>> =
            (0..shard_count).map(|_| Vec::new()).collect();
        for env in honest_arena.drain(..) {
            route_one(
                topology,
                &statuses,
                &byzantine,
                &shard_of,
                round,
                env,
                false,
                &mut fault_plan,
                &mut router_metrics,
                &mut deliveries,
                &mut deferred,
            );
        }
        match decision {
            AdversaryDecision::FollowProtocol => {
                for env in byz_default.drain(..) {
                    route_one(
                        topology,
                        &statuses,
                        &byzantine,
                        &shard_of,
                        round,
                        env,
                        false,
                        &mut fault_plan,
                        &mut router_metrics,
                        &mut deliveries,
                        &mut deferred,
                    );
                }
            }
            AdversaryDecision::Replace(msgs) => {
                for env in msgs {
                    route_one(
                        topology,
                        &statuses,
                        &byzantine,
                        &shard_of,
                        round,
                        env,
                        true,
                        &mut fault_plan,
                        &mut router_metrics,
                        &mut deliveries,
                        &mut deferred,
                    );
                }
            }
        }
        if let Some(rec) = rec {
            rec.phase_end(SHARD_ROUTER, round, Phase::Routing);
        }

        // Scatter the fates back to the owning workers.
        for (s, chan) in chans.iter_mut().enumerate() {
            send_msg(
                chan,
                &CoordMsg::Fates {
                    deliveries: std::mem::take(&mut deliveries[s]),
                    deferred: std::mem::take(&mut deferred[s]),
                },
            )
            .map_err(lost(s, "fates"))?;
        }

        if let Some(rec) = rec {
            emit_metric_deltas(
                rec,
                SHARD_ROUTER,
                round,
                router_snap.expect("snapshotted with recorder"),
                MetricsSnap::of(&router_metrics),
            );
            rec.add(SHARD_ROUTER, round, Counter::Rounds, 1);
            rec.phase_end(SHARD_ROUTER, round, Phase::Round);
        }
        round += 1;
    }

    // Wind down: one `Done` frame per worker (shard order) carries its
    // metrics, outputs and decision rounds.
    for (s, chan) in chans.iter_mut().enumerate() {
        send_msg(chan, &CoordMsg::<P::Message>::Finish).map_err(lost(s, "finish"))?;
    }
    let mut metrics = router_metrics;
    let mut outputs = Vec::with_capacity(n);
    let mut decided_round = Vec::with_capacity(n);
    for (s, chan) in chans.iter_mut().enumerate() {
        match recv_msg::<_, WorkerMsg<P::Message, P::Output>>(chan, &mut scratch)
            .map_err(lost(s, "done"))?
        {
            WorkerMsg::Done {
                metrics: shard,
                outputs: shard_outputs,
                decided,
            } => {
                let expected = bounds[s + 1] - bounds[s];
                if shard_outputs.len() != expected || decided.len() != expected {
                    return Err(RunError::WorkerLost {
                        shard: s,
                        during: "done",
                        detail: format!(
                            "worker reported {} outputs / {} decisions for a {expected}-node range",
                            shard_outputs.len(),
                            decided.len()
                        ),
                    });
                }
                metrics.absorb_shard(&shard);
                outputs.extend(shard_outputs);
                decided_round.extend(decided);
            }
            WorkerMsg::Arenas { .. } => {
                return Err(RunError::WorkerLost {
                    shard: s,
                    during: "done",
                    detail: "worker sent arenas at finish".into(),
                });
            }
        }
    }
    let completed = statuses
        .iter()
        .zip(&byzantine)
        .filter(|(_, byz)| !**byz)
        .all(|(s, _)| *s != NodeStatus::Active);
    let crashed = statuses.iter().map(|s| *s == NodeStatus::Crashed).collect();
    Ok(RunResult {
        outputs,
        decided_round,
        crashed,
        statuses,
        metrics,
        completed,
    })
}

/// The distributed synchronous engine; see the module documentation.
pub struct DistributedSyncEngine<'a, T, P, A>
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
    seed: u64,
    shards: usize,
    fault_plan: Option<Box<dyn FaultPlan>>,
    initial_crashed: Vec<bool>,
    recorder: Option<&'a dyn Recorder>,
    spec_version: u32,
    fleet: Option<RemoteFleet>,
}

impl<'a, T, P, A> DistributedSyncEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol + Clone,
    P::Output: Send + Wire,
    P::Message: Wire,
    A: Adversary<P>,
{
    /// Create an engine over `shards` worker-owned contiguous node ranges.
    ///
    /// The shard count is clamped to `1..=n`, exactly like
    /// [`shard_bounds`].
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
        shards: usize,
    ) -> Self {
        let n = topology.len();
        assert_eq!(states.len(), n, "one protocol state per node required");
        assert_eq!(byzantine.len(), n, "byzantine mask must cover every node");
        DistributedSyncEngine {
            topology,
            states,
            byzantine,
            adversary,
            config,
            seed,
            shards,
            fault_plan: None,
            initial_crashed: vec![false; n],
            recorder: None,
            spec_version: SPEC_VERSION_ANY,
            fleet: None,
        }
    }

    /// Install a [`FaultPlan`]; workers keep pristine state clones for
    /// churn recovery, mirroring `SyncEngine::with_fault_plan`.
    pub fn with_fault_plan(mut self, plan: Box<dyn FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// [`with_fault_plan`](Self::with_fault_plan) that is a no-op for
    /// `None`.
    pub fn with_fault_plan_opt(mut self, plan: Option<Box<dyn FaultPlan>>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Mark nodes as crashed before the first round.
    pub fn with_initial_crashes(mut self, crashed: &[bool]) -> Self {
        assert_eq!(
            crashed.len(),
            self.initial_crashed.len(),
            "crash mask must cover every node"
        );
        self.initial_crashed.copy_from_slice(crashed);
        self
    }

    /// Attach a [`Recorder`] (coordinator-side instrumentation only; see
    /// the module docs).
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// [`with_recorder`](Self::with_recorder) that is a no-op for `None`.
    pub fn with_recorder_opt(mut self, recorder: Option<&'a dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Pin the handshake's payload-schema version (defaults to
    /// [`SPEC_VERSION_ANY`]; in-process workers always share the build, so
    /// the pin is exercised rather than load-bearing there — a remote
    /// fleet carries its own pin in [`RemoteFleet::spec_version`]).
    pub fn with_spec_version(mut self, spec_version: u32) -> Self {
        self.spec_version = spec_version;
        self
    }

    /// Run the workers as separate processes dialed from `fleet` instead
    /// of scoped threads over pipes.  `None` (or an empty address list)
    /// keeps the in-process transport — results are byte-identical either
    /// way.  Coordinator-side `states` are discarded in remote mode: each
    /// worker rebuilds its range deterministically from the assignment's
    /// payload.
    pub fn with_remote_fleet(mut self, fleet: Option<RemoteFleet>) -> Self {
        self.fleet = fleet;
        self
    }

    /// Number of workers the engine actually runs with (after clamping).
    pub fn shard_count(&self) -> usize {
        shard_bounds(self.topology.len(), self.shards).len() - 1
    }

    /// Run to the stop condition and return the result.
    ///
    /// # Errors
    /// A worker channel failing mid-conversation (a torn frame, a dead
    /// worker process, an incompatible hello) surfaces as
    /// [`RunError::WorkerLost`]; a fleet address that cannot be dialed as
    /// [`RunError::Fleet`].  This path never panics on wire faults.
    pub fn run(self) -> Result<RunResult<P::Output>, RunError>
    where
        P: Send,
    {
        let DistributedSyncEngine {
            topology,
            states,
            byzantine,
            adversary,
            config,
            seed,
            shards,
            fault_plan,
            initial_crashed,
            recorder,
            spec_version,
            fleet,
        } = self;
        let n = topology.len();
        let bounds = shard_bounds(n, shards);
        let mut statuses = vec![NodeStatus::Active; n];
        for (status, &is_crashed) in statuses.iter_mut().zip(&initial_crashed) {
            if is_crashed {
                *status = NodeStatus::Crashed;
            }
        }
        let pristine_needed = fault_plan.is_some();

        if let Some(fleet) = fleet.as_ref().filter(|f| !f.addrs.is_empty()) {
            // Remote transport: dial one socket per shard (round-robin
            // over the fleet) and hand each worker its assignment in the
            // hello.  The workers rebuild their states from the payload;
            // ours are not needed.
            drop(states);
            let mut chans: Vec<ShardChannel> = Vec::with_capacity(bounds.len() - 1);
            for (s, w) in bounds.windows(2).enumerate() {
                let addr = &fleet.addrs[s % fleet.addrs.len()];
                let mut stream = IoStream::connect(addr)
                    .map_err(|e| RunError::Fleet(format!("dialing {addr} for shard {s}: {e}")))?;
                let crashed: Vec<u32> = (w[0]..w[1])
                    .filter(|&i| initial_crashed[i])
                    .map(|i| i as u32)
                    .collect();
                let hello = WireHello::with_assignment(
                    fleet.spec_version,
                    ShardAssignment {
                        start: w[0] as u32,
                        end: w[1] as u32,
                        n: n as u32,
                        seed,
                        pristine: pristine_needed,
                        crashed,
                        payload: fleet.payload.clone(),
                    },
                );
                stream
                    .exchange_hello(&hello, fleet.handshake_timeout)
                    .map_err(lost(s, "hello"))?;
                chans.push(ShardChannel::Socket(stream));
            }
            coordinate::<T, P, A, _>(
                topology, byzantine, adversary, config, seed, &bounds, statuses, fault_plan,
                recorder, &mut chans,
            )
        } else {
            // In-process transport: one scoped worker thread per shard
            // over a pipe duplex.  Worker closures return `Result` and
            // never panic; when the coordinator errors out, dropping the
            // channels gives every worker EOF and the scope joins cleanly.
            let hello = WireHello::current(spec_version);
            std::thread::scope(|scope| {
                let mut chans: Vec<ShardChannel> = Vec::with_capacity(bounds.len() - 1);
                let mut state_iter = states.into_iter();
                for w in bounds.windows(2) {
                    let (start, end) = (w[0], w[1]);
                    let worker = make_worker(
                        topology,
                        start,
                        state_iter.by_ref().take(end - start).collect(),
                        byzantine[start..end].to_vec(),
                        statuses[start..end].to_vec(),
                        seed,
                        pristine_needed,
                    );
                    let (coord_end, mut worker_end) = duplex();
                    let worker_hello = hello.clone();
                    scope.spawn(move || -> Result<(), WireError> {
                        send_hello(&mut worker_end, &worker_hello)?;
                        let theirs = recv_hello(&mut worker_end)?;
                        theirs.check_compatible(&worker_hello)?;
                        serve_worker(worker, &mut worker_end)
                    });
                    chans.push(ShardChannel::Pipe(coord_end));
                }
                // Handshake every worker channel before the first round.
                for (s, chan) in chans.iter_mut().enumerate() {
                    send_hello(chan, &hello).map_err(lost(s, "hello"))?;
                    let theirs = recv_hello(chan).map_err(lost(s, "hello"))?;
                    theirs.check_compatible(&hello).map_err(lost(s, "hello"))?;
                }
                coordinate::<T, P, A, _>(
                    topology, byzantine, adversary, config, seed, &bounds, statuses, fault_plan,
                    recorder, &mut chans,
                )
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::engine::SyncEngine;
    use crate::testkit::{assert_results_equal, flood_states, line_graph, Shouter, Val};
    use netsim_faults::FaultSpec;
    use netsim_wire::Listener;

    #[test]
    fn wire_round_trips_for_runtime_types() {
        let env = Envelope::new(NodeId(7), NodeId(3), Val(0xDEAD_BEEF));
        let bytes = encode_to_vec(&env);
        let back: Envelope<Val> = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, env);

        let mut metrics = RunMetrics::default();
        metrics.begin_round();
        metrics.record_delivery(SizedMessage::new(2, 17));
        metrics.record_fault_delay();
        metrics.begin_round();
        metrics.record_fault_expired(3);
        metrics.record_churn_crash();
        let bytes = encode_to_vec(&metrics);
        let back: RunMetrics = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, metrics);

        // Truncation is a clean error for composite payloads too.
        assert!(decode_from_slice::<RunMetrics>(&bytes[..bytes.len() - 3]).is_err());

        // The final worker frame round-trips with outputs and decisions.
        let done = WorkerMsg::<Val, u64>::Done {
            metrics: back,
            outputs: vec![Some(9), None, Some(u64::MAX)],
            decided: vec![Some(4), None, Some(7)],
        };
        let bytes = encode_to_vec(&done);
        match decode_from_slice::<WorkerMsg<Val, u64>>(&bytes).unwrap() {
            WorkerMsg::Done {
                outputs, decided, ..
            } => {
                assert_eq!(outputs, vec![Some(9), None, Some(u64::MAX)]);
                assert_eq!(decided, vec![Some(4), None, Some(7)]);
            }
            WorkerMsg::Arenas { .. } => panic!("wrong tag"),
        }
    }

    #[test]
    fn distributed_clean_runs_match_the_unsharded_engine_for_every_shard_count() {
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
        for shards in [1usize, 2, 3, 4, 8, 24, 100] {
            let distributed = DistributedSyncEngine::new(
                &g,
                flood_states(n, 3 * n as u64),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                42,
                shards,
            )
            .run()
            .unwrap();
            assert_results_equal(&reference, &distributed, &format!("S={shards}"));
        }
    }

    #[test]
    fn distributed_faulty_runs_match_both_synchronous_engines() {
        // The full fault stack: loss + bounded delay + churn + partition.
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
        for shards in [1usize, 2, 4, 8] {
            let distributed = DistributedSyncEngine::new(
                &g,
                flood_states(n, 90),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                7,
                shards,
            )
            .with_fault_plan(plan(7))
            .run()
            .unwrap();
            assert_results_equal(&reference, &distributed, &format!("faulty S={shards}"));
        }
        assert!(
            reference.metrics.messages_lost > 0 && reference.metrics.messages_delayed > 0,
            "the fault stack must actually have fired for this test to mean anything"
        );
        assert!(
            reference.metrics.churn_crashes > 0,
            "churn must cross the wire for this test to mean anything"
        );
    }

    #[test]
    fn distributed_initial_crashes_match_the_unsharded_engine() {
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
        let distributed = DistributedSyncEngine::new(
            &g,
            flood_states(n, 50),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            5,
            4,
        )
        .with_initial_crashes(&crashed)
        .run()
        .unwrap();
        assert_results_equal(&reference, &distributed, "initial crashes");
    }

    #[test]
    fn distributed_adversarial_runs_match_the_unsharded_engine() {
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
        for shards in [2usize, 4, 8] {
            let distributed = DistributedSyncEngine::new(
                &g,
                flood_states(n, 30),
                byz.clone(),
                Shouter,
                EngineConfig::default(),
                3,
                shards,
            )
            .run()
            .unwrap();
            assert_results_equal(&reference, &distributed, &format!("adversarial S={shards}"));
        }
        assert!(reference.metrics.messages_dropped > 0);
    }

    #[test]
    fn cross_shard_delay_past_the_final_round_expires_in_the_worker_ring() {
        struct DelayAcross;
        impl FaultPlan for DelayAcross {
            fn envelope_fate(&mut self, round: u64, from: NodeId, to: NodeId) -> EnvelopeFate {
                // With n = 8 and S = 2, worker 0 owns 0..4 and worker 1
                // owns 4..8: the 3 → 4 edge crosses the worker boundary.
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
        let distributed = DistributedSyncEngine::new(
            &g,
            flood_states(n, 1000),
            vec![false; n],
            NullAdversary,
            cfg,
            11,
            2,
        )
        .with_fault_plan(Box::new(DelayAcross))
        .run()
        .unwrap();
        assert_results_equal(&reference, &distributed, "cross-shard expiry");
        assert_eq!(distributed.metrics.messages_delayed, 1);
        assert_eq!(
            distributed.metrics.messages_expired, 1,
            "the deferred envelope must expire in the destination worker's ring"
        );
    }

    #[test]
    fn shard_count_reports_the_clamped_value_and_spec_pin_is_accepted() {
        let g = line_graph(4);
        let engine = DistributedSyncEngine::new(
            &g,
            flood_states(4, 10),
            vec![false; 4],
            NullAdversary,
            EngineConfig::default(),
            0,
            64,
        )
        .with_spec_version(6);
        assert_eq!(engine.shard_count(), 4, "shards clamp to the node count");
        // Both sides pin spec 6 → the handshake passes and the run works.
        let result = engine.run().unwrap();
        assert!(result.completed);
    }

    /// A process-worker stand-in: accept `sessions` coordinator sessions,
    /// serving each in its own thread (a coordinator holds several
    /// sessions on one address concurrently), rebuild the assigned node
    /// range from the hello, and serve it — exactly what
    /// `byzcount-cli shard-worker` does, minus the spec parsing.
    fn spawn_flood_worker(
        listener: Listener,
        sessions: usize,
        ttl: u64,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut serving = Vec::new();
            for _ in 0..sessions {
                let mut stream = listener.accept().unwrap().expect("blocking accept");
                serving.push(std::thread::spawn(move || {
                    let theirs = stream
                        .exchange_hello(
                            &WireHello::current(SPEC_VERSION_ANY),
                            Duration::from_secs(5),
                        )
                        .unwrap();
                    let a = theirs.assignment.expect("coordinator sends an assignment");
                    let g = line_graph(a.n as usize);
                    let len = (a.end - a.start) as usize;
                    let cfg = ShardServeConfig::from_assignment(&a);
                    serve_shard_session(
                        &g,
                        flood_states(len, ttl),
                        vec![false; len],
                        &cfg,
                        &mut stream,
                    )
                    .unwrap();
                }));
            }
            for handle in serving {
                handle.join().unwrap();
            }
        })
    }

    #[test]
    fn remote_socket_workers_match_in_process_pipes_unix_tcp_and_mixed() {
        let n = 24;
        let ttl = 3 * n as u64;
        let g = line_graph(n);
        let reference = DistributedSyncEngine::new(
            &g,
            flood_states(n, ttl),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            42,
            2,
        )
        .run()
        .unwrap();
        let unix_addr = format!(
            "unix:{}",
            std::env::temp_dir()
                .join(format!("nsr-dist-{}.sock", std::process::id()))
                .display()
        );
        let unix_listener = Listener::bind(&unix_addr).unwrap();
        let tcp_listener = Listener::bind("127.0.0.1:0").unwrap();
        let tcp_addr = tcp_listener.local_addr().unwrap();
        // Three transport legs: all-unix (both shards via one listener),
        // all-tcp, and mixed (shard 0 unix, shard 1 tcp) — so each worker
        // serves 2 + 1 sessions.
        let unix_worker = spawn_flood_worker(unix_listener, 3, ttl);
        let tcp_worker = spawn_flood_worker(tcp_listener, 3, ttl);
        for (label, addrs) in [
            ("unix", vec![unix_addr.clone()]),
            ("tcp", vec![tcp_addr.clone()]),
            ("mixed", vec![unix_addr.clone(), tcp_addr.clone()]),
        ] {
            let remote = DistributedSyncEngine::new(
                &g,
                flood_states(n, ttl),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                42,
                2,
            )
            .with_remote_fleet(Some(RemoteFleet::new(addrs, Vec::new(), SPEC_VERSION_ANY)))
            .run()
            .unwrap();
            assert_results_equal(&reference, &remote, label);
        }
        unix_worker.join().unwrap();
        tcp_worker.join().unwrap();
        if let Some(path) = unix_addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn a_worker_dying_mid_run_is_a_clean_error_not_a_panic() {
        // The worker accepts, handshakes, answers the first round, then
        // drops the connection cold — exactly what SIGKILL does to a real
        // worker process.  The coordinator must surface
        // `RunError::WorkerLost`, never panic (regression for the eleven
        // panicking wire call sites this path used to have).
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let quitter = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap().expect("blocking accept");
            let theirs = stream
                .exchange_hello(
                    &WireHello::current(SPEC_VERSION_ANY),
                    Duration::from_secs(5),
                )
                .unwrap();
            assert!(
                theirs.assignment.is_some(),
                "assignment must ride the hello"
            );
            let mut scratch = Vec::new();
            let _round: CoordMsg<Val> = recv_msg(&mut stream, &mut scratch).unwrap();
            send_msg(
                &mut stream,
                &WorkerMsg::<Val, u64>::Arenas {
                    honest: Vec::new(),
                    byz: Vec::new(),
                    transitions: Vec::new(),
                },
            )
            .unwrap();
            // Drop the stream: the coordinator's next read sees EOF.
        });
        let n = 8;
        let g = line_graph(n);
        let err = DistributedSyncEngine::new(
            &g,
            flood_states(n, 20),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            1,
            1,
        )
        .with_remote_fleet(Some(RemoteFleet::new(
            vec![addr],
            Vec::new(),
            SPEC_VERSION_ANY,
        )))
        .run()
        .expect_err("a dead worker must fail the run cleanly");
        match err {
            RunError::WorkerLost { shard, .. } => assert_eq!(shard, 0),
            other => panic!("expected WorkerLost, got {other}"),
        }
        quitter.join().unwrap();
    }

    #[test]
    fn an_unreachable_fleet_is_a_clean_error() {
        let n = 4;
        let g = line_graph(n);
        let err = DistributedSyncEngine::new(
            &g,
            flood_states(n, 10),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            0,
            2,
        )
        .with_remote_fleet(Some(RemoteFleet::new(
            // A reserved port nobody listens on.
            vec!["127.0.0.1:1".into()],
            Vec::new(),
            SPEC_VERSION_ANY,
        )))
        .run()
        .expect_err("nothing listens there");
        assert!(matches!(err, RunError::Fleet(_)), "{err}");
    }
}
