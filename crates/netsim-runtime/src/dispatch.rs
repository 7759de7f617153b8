//! Engine selection: [`EngineKind`] names an engine, [`run_with_engine`]
//! runs a protocol on it.

use crate::adversary::Adversary;
use crate::async_engine::{AsyncEngine, ClockPlan};
use crate::distributed::{DistributedSyncEngine, RemoteFleet, RunError};
use crate::engine::{EngineConfig, RunResult, SyncEngine};
use crate::node::Protocol;
use crate::sharded_async::ShardedAsyncEngine;
use crate::topology::Topology;
use netsim_faults::FaultPlan;
use netsim_trace::Recorder;

/// Which engine implementation drives a run.
///
/// Shard counts are pure execution policy: for equal inputs every shard
/// count produces byte-identical results, so the choice only affects how
/// the run maps onto cores (or processes).  The clock plan of `Async` and
/// `ShardedAsync` is policy *plus* a clock model: under
/// [`ClockPlan::Uniform`] both are byte-identical to `Sync`, while
/// heterogeneous clock plans deliberately leave the synchronous model
/// (still fully deterministic per spec and seed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The classic single-owner [`SyncEngine`].
    #[default]
    Sync,
    /// The event-driven [`AsyncEngine`] with the given per-node clocks.
    Async {
        /// How node clocks map onto virtual time.
        clocks: ClockPlan,
    },
    /// A [`ShardedAsyncEngine`]: per-shard calendar queues and clock
    /// domains, rendezvousing only at routing.  With
    /// [`ClockPlan::Uniform`] this is the sharded synchronous engine.
    ShardedAsync {
        /// Number of shards (≥ 1; clamped to the node count).
        shards: usize,
        /// How node clocks map onto virtual time.
        clocks: ClockPlan,
    },
    /// A [`DistributedSyncEngine`]: shard workers owning private node
    /// ranges, speaking `netsim-wire`'s binary protocol to a central
    /// coordinator.  Synchronous semantics, byte-identical to `Sync`.
    Distributed {
        /// Number of shard workers (≥ 1; clamped to the node count).
        shards: usize,
    },
}

/// Run a protocol through the engine selected by `kind`.
///
/// This is the single dispatch point every workload goes through (the
/// counting protocols and all baselines, via their `Estimator`s), so an
/// engine knob in a `RunSpec` reaches every workload the same way.
///
/// * `fault_plan` makes the network lossy, slow, churning or partitioned
///   (`None` = a perfect network).
/// * `recorder` observes phase spans, counters and gauges.  With `None`
///   every instrumentation site is a single never-taken branch per phase
///   boundary, and the result is byte-identical either way — recorders
///   observe, they never steer.
/// * `fleet` is a *transport* knob for the distributed engine only: with
///   `kind = Distributed` and a non-empty fleet, workers are dialed as
///   separate processes; every other engine kind ignores it, and results
///   are byte-identical across transports.
///
/// # Errors
/// Only the distributed engine can fail (a lost worker channel surfaces
/// as [`RunError`]); every in-process engine is infallible and always
/// returns `Ok`.
#[allow(clippy::too_many_arguments)]
pub fn run_with_engine<T, P, A>(
    kind: EngineKind,
    topology: &T,
    states: Vec<P>,
    byzantine: Vec<bool>,
    adversary: A,
    config: EngineConfig,
    seed: u64,
    fault_plan: Option<Box<dyn FaultPlan>>,
    recorder: Option<&dyn Recorder>,
    fleet: Option<&RemoteFleet>,
) -> Result<RunResult<P::Output>, RunError>
where
    T: Topology,
    P: Protocol + Clone + Send + Sync + 'static,
    P::Output: Send + netsim_wire::Wire,
    P::Message: netsim_wire::Wire,
    A: Adversary<P>,
{
    match kind {
        EngineKind::Sync => Ok(SyncEngine::new(
            topology, states, byzantine, adversary, config, seed,
        )
        .with_fault_plan_opt(fault_plan)
        .with_recorder_opt(recorder)
        .run()),
        EngineKind::Async { clocks } => Ok(AsyncEngine::new(
            topology, states, byzantine, adversary, config, seed, clocks,
        )
        .with_fault_plan_opt(fault_plan)
        .with_recorder_opt(recorder)
        .run()),
        EngineKind::ShardedAsync { shards, clocks } => Ok(ShardedAsyncEngine::new(
            topology, states, byzantine, adversary, config, seed, shards, clocks,
        )
        .with_fault_plan_opt(fault_plan)
        .with_recorder_opt(recorder)
        .run()),
        EngineKind::Distributed { shards } => {
            DistributedSyncEngine::new(topology, states, byzantine, adversary, config, seed, shards)
                .with_fault_plan_opt(fault_plan)
                .with_recorder_opt(recorder)
                .with_remote_fleet(fleet.cloned())
                .run()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::testkit::{assert_results_equal, flood_states, line_graph};

    #[test]
    fn run_with_engine_dispatches_every_kind_identically() {
        let n = 12;
        let g = line_graph(n);
        let run = |kind: EngineKind| {
            run_with_engine(
                kind,
                &g,
                flood_states(n, 40),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                9,
                None,
                None,
                None,
            )
            .expect("in-process transports are infallible")
        };
        let sync = run(EngineKind::Sync);
        let asynced = run(EngineKind::Async {
            clocks: ClockPlan::Uniform,
        });
        assert_results_equal(&sync, &asynced, "run_with_engine (async)");
        let sharded_async = run(EngineKind::ShardedAsync {
            shards: 3,
            clocks: ClockPlan::Uniform,
        });
        assert_results_equal(&sync, &sharded_async, "run_with_engine (sharded-async)");
        let distributed = run(EngineKind::Distributed { shards: 3 });
        assert_results_equal(&sync, &distributed, "run_with_engine (distributed)");
        assert_eq!(EngineKind::default(), EngineKind::Sync);
    }
}
