//! Active-set rounds in the `Sync` engine, checked against the engines
//! that still step every node.
//!
//! The flood-diameter and spanning-tree baselines opt into
//! `Protocol::next_wake`, so the `Sync` engine skips their idle steps.
//! The sharded and async engines step every node every round (which the
//! wake contract permits), so they are differential oracles: under a
//! Byzantine attack and a network that loses, delays, churns and
//! partitions, every report must stay byte-identical.  The `node_steps`
//! trace counter then shows the work the skipping saves — exactly, since
//! it is deterministic per spec and seed.

use byzcount::prelude::*;
use byzcount::sim::{execute, execute_recorded};
use byzcount::trace::{Counter, CounterSet};

/// Serialize a report with its embedded engine knob reset to the default:
/// the knob is the one spec field allowed to differ between engines.
fn normalized_json(report: &RunReport) -> String {
    let mut report = report.clone();
    report.spec.engine = EngineSpec::Sync;
    report.to_json()
}

fn harsh_network() -> FaultSpec {
    FaultSpec::Compose(vec![
        FaultSpec::Loss { rate: 0.1 },
        FaultSpec::Delay {
            max_delay: 2,
            rate: 0.3,
        },
        FaultSpec::Churn {
            rate: 0.05,
            downtime: 3,
        },
        FaultSpec::Partition {
            start: 3,
            duration: 4,
        },
    ])
}

fn baseline_spec(n: usize, workload: WorkloadSpec, fault: FaultSpec, seed: u64) -> RunSpec {
    Simulation::builder()
        .topology(TopologySpec::SmallWorldH { n, d: 6 })
        .workload(workload)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .fault(fault)
        .seed(seed)
        .build()
        .expect("baseline spec")
        .spec()
        .clone()
}

/// Total `node_steps` of one traced run, after checking the traced report
/// matches the untraced one.
fn node_steps(spec: &RunSpec) -> (RunReport, u64) {
    let counters = CounterSet::new();
    let report = execute_recorded(spec, Some(&counters)).expect("traced run");
    assert_eq!(
        report.to_json(),
        execute(spec).expect("untraced run").to_json(),
        "a recorder must not change the report"
    );
    (report, counters.snapshot().total(Counter::NodeSteps))
}

#[test]
fn skipping_baselines_match_the_dense_engines_under_attack_and_churn() {
    let workloads = [
        WorkloadSpec::FloodDiameter {
            ttl: None,
            attack: AttackSpec::Inflate,
        },
        WorkloadSpec::FloodDiameter {
            ttl: None,
            attack: AttackSpec::Suppress,
        },
        WorkloadSpec::SpanningTree {
            max_rounds: None,
            attack: AttackSpec::Inflate,
        },
        WorkloadSpec::SpanningTree {
            max_rounds: None,
            attack: AttackSpec::Suppress,
        },
    ];
    let dense = [
        EngineSpec::Sharded { shards: 2 },
        EngineSpec::Async {
            clocks: ClockPlan::Uniform,
        },
    ];
    let mut churned = 0;
    for workload in workloads {
        for seed in 0..4u64 {
            let spec = baseline_spec(128, workload.clone(), harsh_network(), 0xAC7_0000 + seed);
            let (reference, steps) = node_steps(&spec);
            let rounds = reference.rounds;
            assert!(
                steps < rounds * 128,
                "{workload:?} seed {seed}: {steps} steps over {rounds} rounds skipped nothing"
            );
            churned += reference.churn_crashes;
            let want = normalized_json(&reference);
            for engine in dense {
                let mut other = spec.clone();
                other.engine = engine;
                let report = execute(&other).unwrap_or_else(|e| panic!("{engine:?}: {e}"));
                assert_eq!(
                    normalized_json(&report),
                    want,
                    "{workload:?} seed {seed}: sync (skipping) diverged from {engine:?}"
                );
            }
        }
    }
    assert!(churned > 0, "the network must actually churn nodes");
}

#[test]
fn node_steps_count_the_saved_work_exactly() {
    let n = 1024usize;
    let flood = baseline_spec(
        n,
        WorkloadSpec::FloodDiameter {
            ttl: None,
            attack: AttackSpec::None,
        },
        FaultSpec::None,
        0xAC7_1000,
    );
    let (report, steps) = node_steps(&flood);
    assert!(
        steps * 100 < report.rounds * n as u64,
        "flood: {steps} steps over {} rounds of {n} nodes is not under 1%",
        report.rounds
    );
    assert_eq!(
        node_steps(&flood).1,
        steps,
        "flood steps must repeat exactly"
    );

    // Counting keeps the default wake, so every live node steps every
    // round on both engines.
    let counting = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n, d: 6 })
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::Combined)
        .seed(0xAC7_2000)
        .build()
        .expect("counting spec")
        .spec()
        .clone();
    let (_, sync_steps) = node_steps(&counting);
    let mut sharded = counting.clone();
    sharded.engine = EngineSpec::Sharded { shards: 2 };
    let (_, sharded_steps) = node_steps(&sharded);
    assert!(sync_steps > 0);
    assert_eq!(
        sync_steps, sharded_steps,
        "dense rounds step the same nodes"
    );
    assert_eq!(
        node_steps(&counting).1,
        sync_steps,
        "counting steps must repeat"
    );
}
