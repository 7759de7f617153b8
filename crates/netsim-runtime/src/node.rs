//! The per-node protocol abstraction.
//!
//! A [`Protocol`] is a deterministic state machine driven once per round.
//! Each invocation receives the node's inbox (every message addressed to it
//! in the previous round), may enqueue messages into an [`Outbox`], and
//! returns an [`Action`]: keep going, decide on an output (while continuing
//! to forward messages, as the counting protocol requires), or crash
//! (Algorithm 2's voluntary shutdown on conflicting neighbourhood reports).
//! A protocol that only reacts to its inbox may also name, through
//! [`Protocol::next_wake`], the rounds at which it has nothing to do, so
//! the synchronous engine can skip its idle steps.

use crate::message::Envelope;
use netsim_graph::NodeId;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Life-cycle status of a node as tracked by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeStatus {
    /// Participating normally, no output decided yet.
    Active,
    /// Has decided an output but keeps participating (forwarding tokens).
    Decided,
    /// Crashed: sends and receives nothing from now on.
    Crashed,
}

/// What a node wants the engine to do after a round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action<O> {
    /// Keep running.
    Continue,
    /// Record `O` as this node's output.  The node keeps being scheduled
    /// (the counting protocol's decided nodes still forward other nodes'
    /// tokens); deciding twice keeps the first output.
    Decide(O),
    /// Stop participating entirely (crash failure).
    Crash,
}

/// Read-only per-round context handed to a protocol.
#[derive(Clone, Copy, Debug)]
pub struct NodeContext<'a> {
    /// This node's id.
    pub id: NodeId,
    /// The current round (0-based; round 0 is the first time `step` runs).
    pub round: u64,
    /// Nodes this node may send to this round.
    pub neighbors: &'a [u32],
    /// Whether this node has already decided an output.
    pub decided: bool,
}

/// Inline outbox slots: the common low-degree broadcast queues this many
/// messages without touching the heap; higher-degree nodes spill once and
/// the engine reuses the spilled buffer for every later round.
const OUTBOX_INLINE: usize = 16;

/// Outgoing message buffer for one node in one round.
///
/// Engine-owned and reused across rounds: the engine clears it before each
/// `step` and drains it afterwards, so the hot path performs no per-round
/// allocation (messages live inline below the 16-slot inline capacity, and any
/// spilled heap buffer keeps its capacity).
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    messages: smallvec::SmallVec<(NodeId, M), OUTBOX_INLINE>,
}

impl<M> Outbox<M> {
    /// Create an empty outbox.
    pub fn new() -> Self {
        Outbox {
            messages: smallvec::SmallVec::new(),
        }
    }

    /// Queue a message to a single recipient.
    pub fn send(&mut self, to: NodeId, payload: M) {
        self.messages.push((to, payload));
    }

    /// Queue the same message to many recipients.
    pub fn broadcast<'a, I>(&mut self, to: I, payload: M)
    where
        M: Clone,
        I: IntoIterator<Item = &'a u32>,
    {
        for &t in to {
            self.messages.push((NodeId(t), payload.clone()));
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// True when nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Drop any queued messages, keeping spilled capacity for reuse.
    pub fn clear(&mut self) {
        self.messages.clear();
    }

    /// Move every queued message out as an envelope stamped with the sender
    /// id, in queueing order, leaving the outbox empty and reusable.
    pub(crate) fn drain_envelopes(&mut self, from: NodeId, mut consume: impl FnMut(Envelope<M>)) {
        self.messages
            .drain_into(|(to, payload)| consume(Envelope { from, to, payload }));
    }

    /// Drain into envelopes stamped with the sender id.
    #[cfg(test)]
    pub(crate) fn into_envelopes(mut self, from: NodeId) -> Vec<Envelope<M>> {
        let mut out = Vec::with_capacity(self.len());
        self.drain_envelopes(from, |env| out.push(env));
        out
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

/// A synchronous per-node protocol.
pub trait Protocol: Send + Sized {
    /// The message type exchanged between nodes.
    type Message: Clone + Send + Sync + crate::message::MessageSize;
    /// The output a node eventually decides.
    type Output: Clone + Send + Sync;

    /// Run one round: consume the inbox, enqueue outgoing messages, and
    /// report the resulting action.
    fn step(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<Self::Message>],
        outbox: &mut Outbox<Self::Message>,
        rng: &mut ChaCha8Rng,
    ) -> Action<Self::Output>;

    /// The next round at which a step with an *empty* inbox could do
    /// anything, asked right after this node stepped in `round`; `None`
    /// means the node only needs to step again when a message arrives.
    ///
    /// Opting in promises that every empty-inbox `step` the answer lets
    /// an engine elide — rounds strictly between `round` and the named
    /// round, or every later round for `None` — would have (a) queued
    /// nothing, (b) returned [`Action::Continue`] or a repeat of an
    /// earlier [`Action::Decide`], (c) drawn nothing from `rng`, and
    /// (d) left the state unchanged.  Under that promise the
    /// [`SyncEngine`](crate::engine::SyncEngine) steps only the nodes
    /// that have mail, are due, or just rejoined after churn (active-set
    /// rounds) without changing any observable result: the skipped calls
    /// would have produced nothing, and every node keeps its own RNG
    /// stream.  A node with mail is always stepped, whatever it answered.
    ///
    /// Stepping more often than asked is always permitted, so engines
    /// that step every node every round stay correct.  The default,
    /// `Some(round + 1)`, asks for exactly that and suits any protocol
    /// that acts on its own clock (e.g. forwarding tokens every round).
    /// Answers at or before `round + 1` mean "next round".
    fn next_wake(&self, round: u64) -> Option<u64> {
        Some(round + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_send_and_broadcast() {
        let mut ob: Outbox<u64> = Outbox::new();
        assert!(ob.is_empty());
        ob.send(NodeId(1), 10);
        ob.broadcast([2u32, 3u32].iter(), 20);
        assert_eq!(ob.len(), 3);
        let envs = ob.into_envelopes(NodeId(0));
        assert_eq!(envs[0], Envelope::new(NodeId(0), NodeId(1), 10));
        assert_eq!(envs[1], Envelope::new(NodeId(0), NodeId(2), 20));
        assert_eq!(envs[2], Envelope::new(NodeId(0), NodeId(3), 20));
    }

    #[test]
    fn action_equality() {
        assert_eq!(Action::<u32>::Continue, Action::Continue);
        assert_eq!(Action::Decide(3u32), Action::Decide(3u32));
        assert_ne!(Action::Decide(3u32), Action::Decide(4u32));
    }
}
