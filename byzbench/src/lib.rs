//! The byzcount benchmark.
//!
//! One run sets a workload up, computes the reference reports every
//! execution is checked against, then runs a closed loop for the given
//! number of seconds: each round of it repeats the set-up for a moment
//! (reporting the median set-up time) and then executes the workload.  Untraced runs (`trace = false`) report the
//! end-to-end metrics; traced runs alternate untraced and traced
//! executions and report the per-layer metrics, measured from outside by
//! timing calls into the workspace's public functions.  See `README.md`
//! next to this crate for the workloads and metrics.

pub mod fleet;
pub mod measure;
pub mod spans;
pub mod timed;
pub mod workloads;

use measure::{median, quantile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Exec, Mode, ScratchDir};

/// Each round of the timed loop starts with set-up passes for at least
/// this long (at least one, at most `SETUP_SLICE_MAX`), so `setup_s`
/// samples the same stretch of time as the executions.
const SETUP_SLICE: Duration = Duration::from_millis(100);
const SETUP_SLICE_MAX: usize = 100;

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("good_fraction", "fraction"),
];

/// Per-layer metrics: name and unit, grouped by crate.  A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    // netsim-graph, byzcount-adversary
    ("graph.build_s", "s"),
    ("placement.materialize_s", "s"),
    ("adversary.cut_s", "s"),
    // byzcount-core / byzcount-baselines
    ("node.step_s", "s"),
    ("node.build_s", "s"),
    ("report.build_s", "s"),
    ("protocol.honest_crashed", "count"),
    // netsim-runtime
    ("engine.routing_s", "s"),
    ("engine.round_self_s", "s"),
    ("engine.round_p50_us", "us"),
    ("engine.round_p90_us", "us"),
    ("engine.rounds", "count"),
    ("engine.messages_delivered", "count"),
    ("engine.cross_shard_routed", "count"),
    ("engine.arena_high_water", "count"),
    // netsim-faults
    ("faults.lost", "count"),
    ("faults.delayed", "count"),
    ("faults.expired", "count"),
    ("engine.deferred_drain_s", "s"),
    ("engine.churn_s", "s"),
    // netsim-wire + distributed engine
    ("wire.bytes", "bytes"),
    ("wire.chunks", "count"),
    ("wire.bytes_per_round", "bytes/round"),
    ("shard.busy_s", "s"),
    ("shard.wait_s", "s"),
    ("shard.rebuild_s", "s"),
    ("coord.busy_s", "s"),
    ("coord.wait_s", "s"),
    // byzcount-campaign
    ("wal.fsyncs", "count"),
    ("wal.fsync_p50_us", "us"),
    ("wal.fsync_p99_us", "us"),
    ("sweep.cell_p50_s", "s"),
    ("sweep.cell_max_s", "s"),
    ("sweep.util", "fraction"),
    ("sweep.retries", "count"),
    // the traced run itself
    ("trace.run_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unexplained_s", "s"),
];

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (see [`workloads::WORKLOADS`]).
    pub workload: String,
    /// Workload seed; every spec seed derives from it.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Report per-layer metrics from traced executions.
    pub trace: bool,
    /// Shrink every size (smoke tests).
    pub tiny: bool,
}

/// One metric of the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every execution matched its reference and no counter drifted.
    pub correct: bool,
    /// Timed executions attempted.
    pub attempted: u64,
    /// Executions that failed (error, panic, wrong report, drift).
    pub failed: u64,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run the benchmark.  `Err` means the workload could not be set up or
/// its reference could not be computed; no result line is produced.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let scratch = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    let outcome = {
        let dir = ScratchDir::create(scratch.clone())
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        let mut workload = workloads::build(&opts.workload, opts.seed, opts.tiny, &dir.0)?;
        let result = drive(workload.as_mut(), opts);
        drop(workload);
        result
    };
    // Succeeds only once no concurrent run still uses it.
    let _ = std::fs::remove_dir(".bench_tmp");
    outcome
}

fn drive(workload: &mut dyn workloads::Workload, opts: &Options) -> Result<Outcome, String> {
    let mut notes = vec![format!("provenance: {}", provenance(opts.seed))];

    let mut setup: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut set_up = |workload: &mut dyn workloads::Workload| -> Result<(), String> {
        for (name, value) in workload.setup(opts.trace)? {
            setup.entry(name).or_default().push(value);
        }
        Ok(())
    };
    set_up(workload)?;
    workload.reference()?;

    // The timed loop: untraced executions, interleaved with traced (and,
    // where the wire is relayed, counted) ones in a traced run.
    let modes = workload.modes(opts.trace);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut plain: Vec<Exec> = Vec::new();
    let mut traced: Vec<Exec> = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let slice = Instant::now();
        for _ in 0..SETUP_SLICE_MAX {
            set_up(workload)?;
            if slice.elapsed() >= SETUP_SLICE {
                break;
            }
        }
        for &mode in &modes {
            attempted += 1;
            match workload
                .execute(mode)
                .and_then(|e| check_counters(&mut counters, e))
            {
                Ok(exec) => {
                    for &(name, value) in &exec.layers {
                        layers.entry(name).or_default().push(value);
                    }
                    match mode {
                        Mode::Plain => plain.push(exec),
                        Mode::Traced => traced.push(exec),
                        Mode::Counted => {}
                    }
                }
                Err(why) => {
                    failed += 1;
                    notes.push(format!("FAILED execution {attempted}: {why}"));
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let col = |runs: &[Exec], f: fn(&Exec) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let run_s = col(&plain, |e| e.run_s);
    notes.push(format!(
        "run_s: median {:.4} s over {} samples (p25 {:.4}, p75 {:.4}): {:.4?}",
        median(&run_s),
        run_s.len(),
        quantile(&run_s, 0.25),
        quantile(&run_s, 0.75),
        run_s
    ));
    let setup_s = &setup["setup_s"];
    notes.push(format!(
        "setup_s: median {:.4} s over {} set-ups (p25 {:.4}, p75 {:.4})",
        median(setup_s),
        setup_s.len(),
        quantile(setup_s, 0.25),
        quantile(setup_s, 0.75)
    ));
    notes.push(format!("exact counters: {counters:?}"));

    let mut metrics = Vec::new();
    let ok = !plain.is_empty() && (!opts.trace || !traced.is_empty());
    if ok && !opts.trace {
        let values = [
            median(&run_s),
            median(setup_s),
            median(&col(&plain, |e| e.cpu_s)),
            median(&col(&plain, |e| e.peak_rss_mb)),
            median(&col(&plain, |e| e.good_fraction)),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push(Metric { name, value, unit });
        }
    } else if ok {
        let traced_run_s = median(&col(&traced, |e| e.run_s));
        let overhead = traced_run_s / median(&run_s) - 1.0;
        notes.push(format!(
            "trace.overhead_frac: {overhead:+.4} (traced run_s {traced_run_s:.4} s over {} samples)",
            traced.len()
        ));
        if let Some(rest) = layers.get("trace.unexplained_s") {
            notes.push(format!(
                "accounting: phase self times + node.build_s + report.build_s leave {:.4} s of the traced run_s unexplained ({:.2}%)",
                median(rest),
                100.0 * median(rest) / traced_run_s
            ));
        }
        for (name, unit) in PER_LAYER {
            let value = if name == "trace.overhead_frac" {
                overhead
            } else if let Some(&count) = counters.get(name) {
                count as f64
            } else if let Some(values) = layers.get(name).or_else(|| setup.get(name)) {
                median(values)
            } else {
                0.0
            };
            metrics.push(Metric { name, value, unit });
        }
    }
    Ok(Outcome {
        correct: ok && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Record the exact counters of the first execution and fail any later
/// execution whose counters differ.
fn check_counters(seen: &mut BTreeMap<&'static str, u64>, exec: Exec) -> Result<Exec, String> {
    for &(name, value) in &exec.counters {
        let first = *seen.entry(name).or_insert(value);
        if first != value {
            return Err(format!(
                "counter {name} drifted: {value}, first run had {first}"
            ));
        }
    }
    Ok(exec)
}

/// Where and on what this run was measured, as a JSON object.
fn provenance(seed: u64) -> String {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    // Only ask git inside a git checkout of its own, never a parent's.
    let commit = if std::path::Path::new(".git").exists() {
        command("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload_seed\": {seed}, \"git_commit\": \"{commit}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \"date\": \"{}\"}}",
        command("rustc", &["-V"]),
        utc_date()
    )
}

/// Today's UTC date, `YYYY-MM-DD`.
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Civil-from-days (proleptic Gregorian calendar).
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}
