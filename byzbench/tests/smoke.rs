//! Runs a tiny-size mode of every workload, untraced and traced, and
//! checks that each run is correct and emits exactly the metrics
//! `BENCHMARK.json` names, with their units.

use byzbench::{run, Options, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::collections::BTreeMap;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    serde_json::parse_value_complete(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(bench: &Value, key: &str) -> BTreeMap<String, String> {
    bench.as_obj().expect("object")[key]
        .as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let m = m.as_obj().expect("metric object");
            let field = |k: &str| m[k].as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let bench = benchmark_json();
    let ours = |list: &[(&str, &str)]| -> BTreeMap<String, String> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&bench, "end_to_end"), ours(&END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), ours(&PER_LAYER));
    let workloads: Vec<&str> = bench.as_obj().expect("object")["workloads"]
        .as_arr()
        .expect("workload list")
        .iter()
        .map(|w| {
            w.as_obj().expect("workload")["name"]
                .as_str()
                .expect("name")
        })
        .collect();
    assert_eq!(workloads, byzbench::workloads::WORKLOADS);
}

#[test]
fn every_workload_emits_every_metric_in_tiny_mode() {
    let bench = benchmark_json();
    for workload in byzbench::workloads::WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = Options {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.0,
                trace,
                tiny: true,
            };
            let outcome = run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(
                outcome.correct && outcome.failed == 0,
                "{workload} trace={trace}: {:?}",
                outcome.notes
            );
            let emitted: BTreeMap<String, String> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, declared(&bench, key), "{workload} trace={trace}");
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{workload}: an end-to-end metric read 0"
                );
            }
            let line: Value =
                serde_json::parse_value_complete(&outcome.json()).expect("result line is JSON");
            let keys: Vec<&String> = line.as_obj().expect("object").keys().collect();
            assert_eq!(keys.len(), 4);
        }
    }
}
