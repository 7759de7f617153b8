//! The baseline estimators behind the unified [`Estimator`] interface.
//!
//! Each workload states once, in its [`EngineWorkload`] impl, how it builds
//! its node states and derives its round cap from a [`SimContext`];
//! [`Estimator::run`] and [`Estimator::serve_shard`] both take them from
//! there (through [`drive_engine`] and [`serve_engine_shard`]), so
//! baselines run through the same
//! [`SimulationBuilder`](byzcount_core::sim::SimulationBuilder), produce
//! the same [`RunReport`](byzcount_core::sim::RunReport)s and batch the
//! same way as the real protocols, on every engine.

use crate::attack::BaselineAttack;
use crate::{
    exponential_support_nodes, flood_diameter_nodes, flood_round_cap, geometric_support_nodes,
    spanning_tree_nodes, ExponentialSupportEstimator, FloodDiameterEstimator,
    GeometricSupportEstimator, SpanningTreeCounter,
};
use byzcount_core::sim::{
    drive_engine, serve_engine_shard, AttackSpec, EngineWorkload, Estimand, Estimator,
    ShardServeConfig, SimContext, SimError, WorkloadRun,
};
use netsim_graph::log2n;
use netsim_runtime::wire::IoStream;
use netsim_runtime::{NullAdversary, RunResult};
use std::ops::Range;

/// Map the spec-layer attack to the baseline crate's enum.
pub fn attack_from_spec(spec: AttackSpec) -> BaselineAttack {
    match spec {
        AttackSpec::None => BaselineAttack::None,
        AttackSpec::Inflate => BaselineAttack::Inflate,
        AttackSpec::Suppress => BaselineAttack::Suppress,
    }
}

/// Default flooding horizon: comfortably above expander diameters.
fn default_ttl(n: usize) -> u64 {
    (3.0 * log2n(n)).ceil() as u64 + 5
}

/// TTL precedence: explicit workload field, then the spec's round cap, then
/// the derived default.
fn resolve_ttl(explicit: Option<u64>, ctx: &SimContext<'_>, derived: u64) -> u64 {
    explicit
        .or(ctx.max_rounds.map(|m| m.saturating_sub(4).max(1)))
        .unwrap_or(derived)
}

/// Run `workload` with no adversary (baseline attacks live in the node
/// states) and convert its outputs to per-node estimates.
fn run_baseline<W, O>(
    workload: &W,
    ctx: &SimContext<'_>,
    estimand: Estimand,
    to_f64: impl Fn(O) -> f64,
) -> Result<WorkloadRun, SimError>
where
    W: EngineWorkload,
    W::Node: netsim_runtime::Protocol<Output = O>,
    O: Copy,
{
    let result: RunResult<O> = drive_engine(workload, ctx, NullAdversary)?;
    Ok(WorkloadRun {
        estimand,
        per_node: result.outputs.iter().map(|o| o.map(&to_f64)).collect(),
        crashed: result.crashed,
        metrics: result.metrics,
        completed: result.completed,
        counting: None,
    })
}

/// Geometric support estimation (estimates `log₂ n`).
#[derive(Clone, Copy, Debug)]
pub struct GeometricSupportWorkload {
    /// Flooding horizon (`None` = derive from `n`).
    pub ttl: Option<u64>,
    /// Byzantine behaviour.
    pub attack: AttackSpec,
}

impl GeometricSupportWorkload {
    fn ttl(&self, ctx: &SimContext<'_>) -> u64 {
        resolve_ttl(self.ttl, ctx, default_ttl(ctx.topology.len()))
    }
}

impl EngineWorkload for GeometricSupportWorkload {
    type Node = GeometricSupportEstimator;

    fn nodes(&self, ctx: &SimContext<'_>, range: Range<usize>) -> Vec<Self::Node> {
        let attack = attack_from_spec(self.attack);
        geometric_support_nodes(ctx.byzantine, attack, self.ttl(ctx), range)
    }

    fn max_rounds(&self, ctx: &SimContext<'_>) -> u64 {
        flood_round_cap(self.ttl(ctx))
    }
}

impl Estimator for GeometricSupportWorkload {
    fn name(&self) -> &'static str {
        "geometric-support"
    }

    fn estimand(&self) -> Estimand {
        Estimand::LogN
    }

    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError> {
        run_baseline(self, ctx, Estimand::LogN, |v| v as f64)
    }

    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        cfg: &ShardServeConfig,
        end: usize,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        serve_engine_shard(self, ctx, cfg, end, chan)
    }
}

/// Exponential support estimation (estimates `n`).
#[derive(Clone, Copy, Debug)]
pub struct ExponentialSupportWorkload {
    /// Flooding horizon (`None` = derive from `n`).
    pub ttl: Option<u64>,
    /// Byzantine behaviour.
    pub attack: AttackSpec,
}

impl ExponentialSupportWorkload {
    fn ttl(&self, ctx: &SimContext<'_>) -> u64 {
        resolve_ttl(self.ttl, ctx, default_ttl(ctx.topology.len()))
    }
}

impl EngineWorkload for ExponentialSupportWorkload {
    type Node = ExponentialSupportEstimator;

    fn nodes(&self, ctx: &SimContext<'_>, range: Range<usize>) -> Vec<Self::Node> {
        let attack = attack_from_spec(self.attack);
        exponential_support_nodes(ctx.byzantine, attack, self.ttl(ctx), range)
    }

    fn max_rounds(&self, ctx: &SimContext<'_>) -> u64 {
        flood_round_cap(self.ttl(ctx))
    }
}

impl Estimator for ExponentialSupportWorkload {
    fn name(&self) -> &'static str {
        "exponential-support"
    }

    fn estimand(&self) -> Estimand {
        Estimand::N
    }

    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError> {
        run_baseline(self, ctx, Estimand::N, |v| v)
    }

    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        cfg: &ShardServeConfig,
        end: usize,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        serve_engine_shard(self, ctx, cfg, end, chan)
    }
}

/// BFS spanning tree + converge-cast (estimates `n` exactly when honest).
#[derive(Clone, Copy, Debug)]
pub struct SpanningTreeWorkload {
    /// Round cap (`None` = derive from `n`).
    pub max_rounds: Option<u64>,
    /// Byzantine behaviour.
    pub attack: AttackSpec,
}

impl EngineWorkload for SpanningTreeWorkload {
    type Node = SpanningTreeCounter;

    fn nodes(&self, ctx: &SimContext<'_>, range: Range<usize>) -> Vec<Self::Node> {
        spanning_tree_nodes(ctx.byzantine, attack_from_spec(self.attack), range)
    }

    fn max_rounds(&self, ctx: &SimContext<'_>) -> u64 {
        let n = ctx.topology.len();
        // Converge-cast needs roughly two traversals plus slack; trees and
        // other high-diameter graphs get a cap linear in n.
        let derived = (4 * default_ttl(n)).max(2 * n as u64 + 8);
        self.max_rounds.or(ctx.max_rounds).unwrap_or(derived)
    }
}

impl Estimator for SpanningTreeWorkload {
    fn name(&self) -> &'static str {
        "spanning-tree"
    }

    fn estimand(&self) -> Estimand {
        Estimand::N
    }

    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError> {
        run_baseline(self, ctx, Estimand::N, |v| v as f64)
    }

    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        cfg: &ShardServeConfig,
        end: usize,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        serve_engine_shard(self, ctx, cfg, end, chan)
    }
}

/// Leader flood; first-arrival rounds proxy the diameter.
#[derive(Clone, Copy, Debug)]
pub struct FloodDiameterWorkload {
    /// Flooding horizon (`None` = derive from `n`).
    pub ttl: Option<u64>,
    /// Byzantine behaviour.
    pub attack: AttackSpec,
}

impl FloodDiameterWorkload {
    fn ttl(&self, ctx: &SimContext<'_>) -> u64 {
        let n = ctx.topology.len();
        resolve_ttl(self.ttl, ctx, default_ttl(n).max(n as u64))
    }
}

impl EngineWorkload for FloodDiameterWorkload {
    type Node = FloodDiameterEstimator;

    fn nodes(&self, ctx: &SimContext<'_>, range: Range<usize>) -> Vec<Self::Node> {
        let attack = attack_from_spec(self.attack);
        flood_diameter_nodes(ctx.byzantine, attack, self.ttl(ctx), range)
    }

    fn max_rounds(&self, ctx: &SimContext<'_>) -> u64 {
        flood_round_cap(self.ttl(ctx))
    }
}

impl Estimator for FloodDiameterWorkload {
    fn name(&self) -> &'static str {
        "flood-diameter"
    }

    fn estimand(&self) -> Estimand {
        Estimand::Diameter
    }

    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError> {
        run_baseline(self, ctx, Estimand::Diameter, |v| v as f64)
    }

    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        cfg: &ShardServeConfig,
        end: usize,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        serve_engine_shard(self, ctx, cfg, end, chan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcount_core::sim::TopologySpec;

    fn ctx_over<'a>(
        topo: &'a byzcount_core::sim::BuiltTopology,
        byz: &'a [bool],
    ) -> SimContext<'a> {
        SimContext {
            topology: topo,
            byzantine: byz,
            seed: 5,
            max_rounds: None,
            fault: &byzcount_core::sim::FaultSpec::None,
            fault_seed: 0,
            engine: byzcount_core::sim::EngineKind::Sync,
            recorder: None,
            fleet: None,
        }
    }

    #[test]
    fn all_four_baselines_run_via_the_estimator_trait() {
        let topo = TopologySpec::SmallWorldH { n: 200, d: 6 }.build(2).unwrap();
        let byz = vec![false; 200];
        let ctx = ctx_over(&topo, &byz);
        let estimators: Vec<Box<dyn Estimator>> = vec![
            Box::new(GeometricSupportWorkload {
                ttl: None,
                attack: AttackSpec::None,
            }),
            Box::new(ExponentialSupportWorkload {
                ttl: None,
                attack: AttackSpec::None,
            }),
            Box::new(SpanningTreeWorkload {
                max_rounds: None,
                attack: AttackSpec::None,
            }),
            Box::new(FloodDiameterWorkload {
                ttl: None,
                attack: AttackSpec::None,
            }),
        ];
        for est in estimators {
            let run = est
                .run(&ctx)
                .unwrap_or_else(|e| panic!("{}: {e}", est.name()));
            assert!(run.completed, "{} did not complete", est.name());
            assert_eq!(run.per_node.len(), 200, "{}", est.name());
            assert!(run.counting.is_none());
        }
    }

    #[test]
    fn spanning_tree_counts_exactly_when_honest() {
        let topo = TopologySpec::SmallWorldH { n: 300, d: 6 }.build(4).unwrap();
        let byz = vec![false; 300];
        let ctx = ctx_over(&topo, &byz);
        let run = SpanningTreeWorkload {
            max_rounds: None,
            attack: AttackSpec::None,
        }
        .run(&ctx)
        .unwrap();
        // The root (node 0) learns the exact count.
        assert_eq!(run.per_node[0], Some(300.0));
    }

    #[test]
    fn inflation_attack_shows_up_in_the_estimates() {
        let topo = TopologySpec::SmallWorldH { n: 200, d: 6 }.build(2).unwrap();
        let mut byz = vec![false; 200];
        byz[100] = true;
        let ctx = ctx_over(&topo, &byz);
        let clean = GeometricSupportWorkload {
            ttl: None,
            attack: AttackSpec::None,
        }
        .run(&ctx_over(&topo, &[false; 200]))
        .unwrap();
        let attacked = GeometricSupportWorkload {
            ttl: None,
            attack: AttackSpec::Inflate,
        }
        .run(&ctx)
        .unwrap();
        let max = |run: &WorkloadRun| {
            run.per_node
                .iter()
                .flatten()
                .fold(f64::MIN, |a, &b| a.max(b))
        };
        assert!(max(&attacked) > max(&clean), "inflated color must dominate");
    }
}
