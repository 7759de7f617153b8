//! The counting protocols' engine inputs, and the direct runners for
//! protocol-level work.
//!
//! [`counting_nodes`] and [`round_cap`] are the single definition of how a
//! counting run is built; the spec-driven path
//! ([`CountingEstimator`](crate::sim::CountingEstimator)) and the direct
//! runners below both take them from here.  The direct runners drive the
//! synchronous engine on a fault-free network; every other engine, fault
//! plan, recorder and worker fleet is reached through the
//! [`Simulation`](crate::sim::Simulation) API.

use crate::node::{CountingNode, Decision};
use crate::outcome::CountingOutcome;
use crate::params::ProtocolParams;
use crate::schedule::Schedule;
use netsim_runtime::{
    run_with_engine, Adversary, EngineConfig, EngineKind, NullAdversary, RunResult, Topology,
};

/// How many phases past the reference decision phase the engine allows
/// before giving up (safety cap; honest runs finish well before it).
const PHASE_SLACK_FACTOR: f64 = 3.0;
const PHASE_SLACK_EXTRA: u64 = 8;

/// Build the per-node protocol states for global node ids `range`.
///
/// The full run is `0..n`; shard workers build only their assigned chunk.
/// Construction is a pure function of `(params, verify)` per node, so a
/// chunk built remotely is identical to the coordinator's slice — the
/// distributed engine's byte-identity contract depends on this.
pub fn counting_nodes(
    params: &ProtocolParams,
    verify: bool,
    range: std::ops::Range<usize>,
) -> Vec<CountingNode> {
    range
        .map(|_| {
            if verify {
                CountingNode::byzantine_variant(*params)
            } else {
                CountingNode::basic_variant(*params)
            }
        })
        .collect()
}

/// Compute the engine round cap for a network of size `n`.
pub fn round_cap(params: &ProtocolParams, n: usize) -> u64 {
    let schedule = Schedule::new(params.d, params.epsilon);
    let reference = params.expected_decision_phase(n);
    let max_phase = (reference * PHASE_SLACK_FACTOR).ceil() as u64 + PHASE_SLACK_EXTRA;
    schedule.rounds_through_phase(max_phase)
}

/// Run the *Byzantine* counting protocol (Algorithm 2) over any topology
/// with an arbitrary adversary.
pub fn run_counting_with<T, A>(
    net: &T,
    params: &ProtocolParams,
    byzantine: &[bool],
    adversary: A,
    seed: u64,
) -> CountingOutcome
where
    T: Topology,
    A: Adversary<CountingNode>,
{
    run_sync(net, params, byzantine, adversary, true, seed)
}

/// Run the *basic* counting protocol (Algorithm 1) over any topology
/// without Byzantine nodes.
pub fn run_basic_counting<T: Topology>(
    net: &T,
    params: &ProtocolParams,
    seed: u64,
) -> CountingOutcome {
    run_sync(
        net,
        params,
        &vec![false; net.len()],
        NullAdversary,
        false,
        seed,
    )
}

/// Run the basic protocol (no verification) over any topology but *with*
/// Byzantine nodes and an adversary — used to demonstrate why Algorithm 1
/// alone is not Byzantine-tolerant.
pub fn run_basic_counting_with<T, A>(
    net: &T,
    params: &ProtocolParams,
    byzantine: &[bool],
    adversary: A,
    seed: u64,
) -> CountingOutcome
where
    T: Topology,
    A: Adversary<CountingNode>,
{
    run_sync(net, params, byzantine, adversary, false, seed)
}

fn run_sync<T, A>(
    net: &T,
    params: &ProtocolParams,
    byzantine: &[bool],
    adversary: A,
    verify: bool,
    seed: u64,
) -> CountingOutcome
where
    T: Topology,
    A: Adversary<CountingNode>,
{
    let n = net.len();
    assert_eq!(byzantine.len(), n, "byzantine mask must cover every node");
    let config = EngineConfig {
        max_rounds: round_cap(params, n),
        stop_when_all_decided: true,
    };
    let result = run_with_engine(
        EngineKind::Sync,
        net,
        counting_nodes(params, verify, 0..n),
        byzantine.to_vec(),
        adversary,
        config,
        seed,
        None,
        None,
        None,
    )
    .expect("in-process engines are infallible");
    counting_outcome(result, byzantine, params)
}

/// Assemble a [`CountingOutcome`] from an engine result.
pub(crate) fn counting_outcome(
    result: RunResult<Decision>,
    byzantine: &[bool],
    params: &ProtocolParams,
) -> CountingOutcome {
    CountingOutcome {
        n: result.outputs.len(),
        estimates: result
            .outputs
            .iter()
            .map(|o| o.as_ref().map(|d| d.phase))
            .collect(),
        decided_round: result.decided_round,
        crashed: result.crashed,
        byzantine: byzantine.to_vec(),
        params: *params,
        metrics: result.metrics,
        completed: result.completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::SmallWorldNetwork;

    #[test]
    fn round_cap_grows_with_n() {
        let p = ProtocolParams::new(8, 3, 0.6, 0.1, 1.0);
        assert!(round_cap(&p, 1 << 16) > round_cap(&p, 1 << 8));
        assert!(round_cap(&p, 256) > 50);
    }

    #[test]
    fn basic_counting_on_a_small_network_terminates_correctly() {
        let net = SmallWorldNetwork::generate_seeded(256, 8, 1).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let outcome = run_basic_counting(&net, &params, 7);
        assert!(
            outcome.completed,
            "all nodes must decide within the round cap"
        );
        let eval = outcome.evaluate();
        assert_eq!(eval.honest_total, 256);
        assert_eq!(eval.honest_crashed, 0);
        assert!(
            eval.good_fraction_of_honest > 0.9,
            "basic counting without faults should give almost everyone a good estimate \
             (got {}, reference {}, mean {})",
            eval.good_fraction_of_honest,
            eval.reference_phase,
            eval.mean_estimate
        );
    }

    #[test]
    fn byzantine_variant_without_faults_matches_basic() {
        let net = SmallWorldNetwork::generate_seeded(256, 8, 2).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let byz = vec![false; net.len()];
        let outcome = run_counting_with(&net, &params, &byz, NullAdversary, 3);
        assert!(outcome.completed);
        let eval = outcome.evaluate();
        assert_eq!(
            eval.honest_crashed, 0,
            "honest reports never trigger the crash rule"
        );
        assert!(eval.good_fraction_of_honest > 0.9, "{eval:?}");
    }

    #[test]
    fn estimates_scale_with_network_size() {
        // The decided phase must grow with n: that is what makes it an
        // estimate of log n at all.
        let small = SmallWorldNetwork::generate_seeded(128, 8, 4).unwrap();
        let large = SmallWorldNetwork::generate_seeded(2048, 8, 4).unwrap();
        let ps = ProtocolParams::for_network_default_expansion(&small, 0.6, 0.1);
        let pl = ProtocolParams::for_network_default_expansion(&large, 0.6, 0.1);
        let es = run_basic_counting(&small, &ps, 5).evaluate();
        let el = run_basic_counting(&large, &pl, 5).evaluate();
        assert!(
            el.mean_estimate > es.mean_estimate,
            "mean estimate must grow with n ({} vs {})",
            es.mean_estimate,
            el.mean_estimate
        );
    }

    #[test]
    #[should_panic(expected = "byzantine mask")]
    fn mask_length_is_checked() {
        let net = SmallWorldNetwork::generate_seeded(64, 8, 6).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let _ = run_counting_with(&net, &params, &[false; 3], NullAdversary, 0);
    }
}
