//! The workload × engine × recorder lock-down matrix.
//!
//! Every workload reaches the engines through the same path
//! (`execute` → `Estimator::run` / `Estimator::serve_shard` →
//! `run_with_engine`), and every engine promises byte-identical reports
//! on synchronous specs.  This suite runs all six `WorkloadSpec` variants
//! — the baselines with a Byzantine placement, a live attack and a lossy
//! network, the counting protocols under an adversary — on
//!
//! * the sharded engine (S = 2),
//! * the async engine under uniform clocks,
//! * the sharded-async engine (S = 2, uniform clocks),
//! * the distributed engine (S = 2) on in-process pipes, and
//! * the distributed engine (S = 2) on a Unix-socket fleet whose workers
//!   rebuild their node ranges through `serve_shard_conn`,
//!
//! each with and without a recorder installed, and asserts every report
//! (engine knob erased) is byte-identical to the untraced `Sync` report.

use byzcount::prelude::*;
use byzcount::trace::CounterSet;

/// Serialize a report with its embedded engine knob reset to the default:
/// the knob is the one spec field allowed to differ between engines.
fn normalized_json(report: &RunReport) -> String {
    let mut report = report.clone();
    report.spec.engine = EngineSpec::Sync;
    report.to_json()
}

/// One spec per `WorkloadSpec` variant, small enough for a debug build.
fn workload_specs() -> Vec<RunSpec> {
    let counting = |workload: WorkloadSpec, adversary: AdversarySpec, seed: u64| {
        Simulation::builder()
            .topology(TopologySpec::SmallWorld { n: 96, d: 6 })
            .workload(workload)
            .placement(PlacementSpec::RandomBudget { delta: 0.6 })
            .adversary(adversary)
            .seed(seed)
            .build()
            .expect("counting spec")
            .spec()
            .clone()
    };
    let baseline = |workload: WorkloadSpec, seed: u64| {
        Simulation::builder()
            .topology(TopologySpec::SmallWorldH { n: 96, d: 6 })
            .workload(workload)
            .placement(PlacementSpec::RandomBudget { delta: 0.6 })
            .fault(FaultSpec::Loss { rate: 0.05 })
            .seed(seed)
            .build()
            .expect("baseline spec")
            .spec()
            .clone()
    };
    vec![
        counting(
            WorkloadSpec::Basic,
            AdversarySpec::ColorInflation {
                timing: TimingSpec::Legal,
            },
            0x3A7_0001,
        ),
        counting(WorkloadSpec::Byzantine, AdversarySpec::Combined, 0x3A7_0002),
        baseline(
            WorkloadSpec::GeometricSupport {
                ttl: None,
                attack: AttackSpec::Inflate,
            },
            0x3A7_0003,
        ),
        baseline(
            WorkloadSpec::ExponentialSupport {
                ttl: None,
                attack: AttackSpec::Suppress,
            },
            0x3A7_0004,
        ),
        baseline(
            WorkloadSpec::SpanningTree {
                max_rounds: None,
                attack: AttackSpec::Inflate,
            },
            0x3A7_0005,
        ),
        baseline(
            WorkloadSpec::FloodDiameter {
                ttl: None,
                attack: AttackSpec::Suppress,
            },
            0x3A7_0006,
        ),
    ]
}

/// Spawn an in-test shard-worker fleet member: bind `addr` and serve every
/// accepted connection's shard session on its own thread, exactly as
/// `byzcount-cli shard-worker --listen` does.  The accept loop is
/// detached; it dies with the test process.
fn spawn_worker(addr: &str) -> String {
    use byzcount::campaign::net::Listener;
    use byzcount::sim::{serve_shard_conn, FullRegistry, SHARD_HELLO_TIMEOUT};
    let listener = Listener::bind(addr).unwrap_or_else(|e| panic!("bind {addr}: {e}"));
    let bound = listener.local_addr().expect("bound address");
    std::thread::spawn(move || loop {
        match listener.accept() {
            Ok(Some(mut stream)) => {
                std::thread::spawn(move || {
                    let _ = serve_shard_conn(&mut stream, &FullRegistry, SHARD_HELLO_TIMEOUT);
                });
            }
            Ok(None) => {}
            Err(_) => break,
        }
    });
    bound
}

fn tmp_sock(tag: &str) -> String {
    format!(
        "unix:{}",
        std::env::temp_dir()
            .join(format!("byz-matrix-{tag}-{}.sock", std::process::id()))
            .display()
    )
}

#[test]
fn every_workload_is_byte_identical_on_every_engine_with_and_without_a_recorder() {
    let fleet = vec![spawn_worker(&tmp_sock("a")), spawn_worker(&tmp_sock("b"))];
    let no_fleet: Vec<String> = Vec::new();
    let uniform = ClockPlan::Uniform;
    let engines: [(&str, EngineSpec, &[String]); 5] = [
        ("sharded-2", EngineSpec::Sharded { shards: 2 }, &no_fleet),
        ("async", EngineSpec::Async { clocks: uniform }, &no_fleet),
        (
            "sharded-async-2",
            EngineSpec::ShardedAsync {
                shards: 2,
                clocks: uniform,
            },
            &no_fleet,
        ),
        (
            "dist-2 pipes",
            EngineSpec::Distributed { shards: 2 },
            &no_fleet,
        ),
        ("dist-2 unix", EngineSpec::Distributed { shards: 2 }, &fleet),
    ];
    for spec in workload_specs() {
        let workload = spec.workload.name();
        let mut sync_spec = spec.clone();
        sync_spec.engine = EngineSpec::Sync;
        let reference = byzcount::sim::execute(&sync_spec)
            .unwrap_or_else(|e| panic!("{workload}: sync reference failed: {e}"));
        assert!(reference.rounds > 0, "{workload}: the reference never ran");
        let reference_json = normalized_json(&reference);
        for (label, engine, workers) in &engines {
            let mut engine_spec = spec.clone();
            engine_spec.engine = *engine;
            for traced in [false, true] {
                let counters = CounterSet::new();
                let recorder: Option<&dyn Recorder> = if traced { Some(&counters) } else { None };
                let report = byzcount::sim::execute_workers(&engine_spec, recorder, workers)
                    .unwrap_or_else(|e| panic!("{workload} on {label} (traced={traced}): {e}"));
                assert_eq!(
                    normalized_json(&report),
                    reference_json,
                    "{workload} on {label} (traced={traced}) diverged from the sync report"
                );
            }
        }
    }
    for addr in &fleet {
        if let Some(path) = addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
        }
    }
}
