//! The four workloads: their specs (all derived from the workload seed),
//! set-up, reference reports, and one checked, timed execution each.
//!
//! Every workload is a closed loop: one caller submits a run and waits
//! for its report before submitting the next.

pub use crate::fleet::Mode;
use crate::fleet::{Fleet, Session};
use crate::measure::{median, peak_rss_mb, process_cpu_s, quantile, reset_peak_rss, thread_cpu_s};
use crate::spans::{SpanRecorder, SpanSummary};
use crate::timed::{CallKind, TimedRegistry};
use byzcount::campaign::{
    run_campaign_telemetry, CampaignCell, CampaignSpec, CampaignStore, RunOutcome, RunnerConfig,
    Telemetry,
};
use byzcount::sim::{
    cell_seed, execute, AdversarySpec, AttackSpec, BatchSpec, EngineSpec, FaultSpec, FullRegistry,
    ParamsSpec, PlacementSpec, PreparedRun, Recorder, RunReport, RunSpec, ScenarioRegistry,
    SeedPolicy, TopologySpec, WorkloadSpec, SPEC_VERSION,
};
use byzcount::trace::{Counter, Gauge, Phase};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["counting-4k", "idle-flood-8k", "counting-dist2", "sweep"];

/// Named metric values.
pub type Values = Vec<(&'static str, f64)>;

/// One checked, timed execution.
#[derive(Clone, Debug, Default)]
pub struct Exec {
    /// Wall seconds from spec (prepared) to report.
    pub run_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Peak resident memory of the execution, MiB.
    pub peak_rss_mb: f64,
    /// Fraction of honest nodes ending with a good output.
    pub good_fraction: f64,
    /// Work counters that must repeat exactly for one seed.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-layer values (traced and counted executions only).
    pub layers: Values,
}

/// A workload the timed loop can set up, warm up and execute.
pub trait Workload {
    /// One set-up pass, timed; returns `setup_s` and, when `traced`, the
    /// set-up layers' own times.
    fn setup(&mut self, traced: bool) -> Result<Values, String>;
    /// Compute the reference reports the executions are checked against
    /// (untimed; doubles as the warm-up).
    fn reference(&mut self) -> Result<(), String>;
    /// One execution, checked against the reference.
    fn execute(&mut self, mode: Mode) -> Result<Exec, String>;
    /// The execution modes one round of the timed loop cycles through.
    fn modes(&self, trace: bool) -> Vec<Mode> {
        if trace {
            vec![Mode::Plain, Mode::Traced]
        } else {
            vec![Mode::Plain]
        }
    }
}

/// Build the named workload.  `tiny` shrinks every size for smoke tests.
pub fn build(
    name: &str,
    seed: u64,
    tiny: bool,
    scratch: &Path,
) -> Result<Box<dyn Workload>, String> {
    let pick = |full: usize, small: usize| if tiny { small } else { full };
    Ok(match name {
        "counting-4k" => {
            let n = pick(4096, 256);
            Box::new(Single::new(
                counting_spec(n, spec_seed(seed, name, n), EngineSpec::Sync),
                None,
            ))
        }
        "idle-flood-8k" => {
            let n = pick(8192, 256);
            Box::new(Single::new(flood_spec(n, spec_seed(seed, name, n)), None))
        }
        "counting-dist2" => {
            let n = pick(2048, 256);
            let spec = counting_spec(
                n,
                spec_seed(seed, name, n),
                EngineSpec::Distributed { shards: 2 },
            );
            let fleet =
                Fleet::start(scratch, 2).map_err(|e| format!("cannot start shard workers: {e}"))?;
            Box::new(Single::new(spec, Some(fleet)))
        }
        "sweep" => {
            let (sizes, seeds) = if tiny {
                (vec![128, 256], 2)
            } else {
                (vec![256, 512, 1024], 8)
            };
            Box::new(Sweep::new(seed, sizes, seeds, scratch))
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (known: {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// The spec seed of a workload: the workspace's cell-identity hash of
/// the workload's name and size, mixed into the workload seed.
fn spec_seed(seed: u64, name: &str, n: usize) -> u64 {
    cell_seed(seed, name, "bench", n)
}

/// Algorithm 2 on the full small-world overlay under the paper's
/// Byzantine budget `n^{1-δ}`, δ = 0.6, against the combined adversary.
fn counting_spec(n: usize, seed: u64, engine: EngineSpec) -> RunSpec {
    RunSpec {
        version: SPEC_VERSION,
        topology: TopologySpec::SmallWorld { n, d: 6 },
        workload: WorkloadSpec::Byzantine,
        placement: PlacementSpec::RandomBudget { delta: 0.6 },
        adversary: AdversarySpec::Combined,
        fault: FaultSpec::None,
        engine,
        params: ParamsSpec::Derived {
            delta: 0.6,
            epsilon: 0.1,
        },
        seed,
        max_rounds: None,
    }
}

/// The flood-diameter baseline on the expander `H` over a lossy,
/// delaying network: 5% loss plus delays of up to 2 rounds at rate 0.2.
fn flood_spec(n: usize, seed: u64) -> RunSpec {
    RunSpec {
        version: SPEC_VERSION,
        topology: TopologySpec::SmallWorldH { n, d: 6 },
        workload: WorkloadSpec::FloodDiameter {
            ttl: None,
            attack: AttackSpec::None,
        },
        placement: PlacementSpec::None,
        adversary: AdversarySpec::Null,
        fault: FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.05 },
            FaultSpec::Delay {
                max_delay: 2,
                rate: 0.2,
            },
        ]),
        engine: EngineSpec::Sync,
        params: ParamsSpec::Derived {
            delta: 0.6,
            epsilon: 0.1,
        },
        seed,
        max_rounds: None,
    }
}

/// The output-quality figure of a report: for the counting protocols the
/// fraction of honest nodes holding a factor-2 estimate of `log n`; for
/// a baseline without ground truth (the flood), the fraction of honest
/// nodes that produced an output at all.
fn good_fraction(report: &RunReport) -> f64 {
    report
        .good_fraction()
        .unwrap_or_else(|| report.honest_decided as f64 / report.honest_total.max(1) as f64)
}

/// Sanity checks a reference report must pass before it is trusted.
fn check_reference(report: &RunReport, spec: &RunSpec) -> Result<(), String> {
    let n = spec.topology.n();
    if report.n != n || report.honest_total + report.byzantine_count != n {
        return Err(format!(
            "reference report has n = {} for a spec of {n} nodes",
            report.n
        ));
    }
    if report.rounds == 0 || report.messages_delivered == 0 {
        return Err("reference run did no work".into());
    }
    if spec.workload.is_counting() && !report.completed {
        return Err("reference counting run did not complete".into());
    }
    let good = good_fraction(report);
    if good.is_nan() || good <= 0.0 {
        return Err("reference run has no good honest output".into());
    }
    Ok(())
}

/// Remove a run-private directory tree.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Create `path` (and its parents).
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Wall, CPU and peak-memory readings around one execution.
struct Window {
    t0: Instant,
    cpu0: f64,
    thread0: f64,
}

struct Closed {
    t0: Instant,
    t1: Instant,
    run_s: f64,
    cpu_s: f64,
    thread_cpu_s: f64,
    peak_rss_mb: f64,
}

impl Window {
    fn open() -> Result<Self, String> {
        reset_peak_rss().map_err(|e| format!("cannot reset peak RSS: {e}"))?;
        Ok(Window {
            cpu0: process_cpu_s(),
            thread0: thread_cpu_s(),
            t0: Instant::now(),
        })
    }

    fn close(self) -> Result<Closed, String> {
        let t1 = Instant::now();
        let thread1 = thread_cpu_s();
        let cpu1 = process_cpu_s();
        Ok(Closed {
            t0: self.t0,
            t1,
            run_s: (t1 - self.t0).as_secs_f64(),
            cpu_s: cpu1 - self.cpu0,
            thread_cpu_s: thread1 - self.thread0,
            peak_rss_mb: peak_rss_mb().map_err(|e| format!("cannot read VmHWM: {e}"))?,
        })
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

// ---------------------------------------------------------------------------
// One run per execution: counting-4k, idle-flood-8k, counting-dist2.

/// A workload whose execution is one [`PreparedRun`].
pub struct Single {
    spec: RunSpec,
    prepared: Option<PreparedRun>,
    /// The reference report's JSON (engine normalized to `Sync`).
    reference: Option<String>,
    fleet: Option<Fleet>,
}

impl Single {
    fn new(spec: RunSpec, fleet: Option<Fleet>) -> Self {
        Single {
            spec,
            prepared: None,
            reference: None,
            fleet,
        }
    }

    /// The report's JSON with the engine field set to `Sync`: engines are
    /// execution policy, so every engine's report must equal the `Sync`
    /// report in everything else.
    fn normalized(report: &RunReport) -> String {
        let mut report = report.clone();
        report.spec.engine = EngineSpec::Sync;
        report.to_json()
    }

    fn layers(
        &self,
        w: &Closed,
        report: &RunReport,
        spans: &SpanSummary,
        sessions: &[Session],
    ) -> Result<Values, String> {
        if let Some(why) = &spans.malformed {
            return Err(format!("malformed trace: {why}"));
        }
        // The distributed engine counts deliveries in its workers, which
        // report to no recorder; every engine counts rounds centrally.
        if spans.counter(Counter::Rounds) != report.rounds
            || (self.fleet.is_none()
                && spans.counter(Counter::MessagesDelivered) != report.messages_delivered)
        {
            return Err("trace counters disagree with the report".into());
        }
        let node_build = spans.first_round.map_or(0.0, |t| (t - w.t0).as_secs_f64());
        let report_build = spans
            .last_round_end
            .map_or(0.0, |t| (w.t1 - t).as_secs_f64());
        let phases: f64 = spans.self_s.iter().sum();
        let unexplained = w.run_s - node_build - phases - report_build;
        if unexplained < -1e-3 {
            return Err(format!(
                "spans explain more than the run's wall time ({unexplained:.4} s)"
            ));
        }
        let mut v: Values = vec![
            ("node.step_s", spans.self_of(Phase::NodeStep)),
            ("adversary.cut_s", spans.self_of(Phase::AdversaryCut)),
            ("engine.routing_s", spans.self_of(Phase::Routing)),
            (
                "engine.deferred_drain_s",
                spans.self_of(Phase::DeferredDrain),
            ),
            ("engine.churn_s", spans.self_of(Phase::Churn)),
            ("engine.round_self_s", spans.self_of(Phase::Round)),
            ("node.build_s", node_build),
            ("report.build_s", report_build),
            ("engine.round_p50_us", quantile(&spans.round_us, 0.5)),
            ("engine.round_p90_us", quantile(&spans.round_us, 0.9)),
            (
                "engine.arena_high_water",
                spans.gauge(Gauge::HonestArenaHighWater) as f64,
            ),
            ("protocol.honest_crashed", report.honest_crashed as f64),
            ("trace.run_s", w.run_s),
            ("trace.unexplained_s", unexplained),
        ];
        if !sessions.is_empty() {
            let max = |f: &dyn Fn(&Session) -> f64| sessions.iter().map(f).fold(0.0, f64::max);
            v.extend([
                ("shard.busy_s", max(&|s| s.cpu_s)),
                ("shard.wait_s", max(&|s| s.wall_s - s.cpu_s)),
                ("shard.rebuild_s", max(&|s| s.rebuild_s)),
                ("coord.busy_s", w.thread_cpu_s),
                ("coord.wait_s", w.run_s - w.thread_cpu_s),
            ]);
        }
        Ok(v)
    }
}

impl Workload for Single {
    fn setup(&mut self, traced: bool) -> Result<Values, String> {
        let t0 = Instant::now();
        let prepared = PreparedRun::new(&self.spec).map_err(|e| format!("set-up failed: {e}"))?;
        let mut v: Values = vec![("setup_s", t0.elapsed().as_secs_f64())];
        self.prepared = Some(prepared);
        if traced {
            v.extend(time_topology_and_placement(&self.spec)?);
        }
        Ok(v)
    }

    fn reference(&mut self) -> Result<(), String> {
        let mut spec = self.spec.clone();
        spec.engine = EngineSpec::Sync;
        let report = execute(&spec).map_err(|e| format!("reference run failed: {e}"))?;
        check_reference(&report, &spec)?;
        self.reference = Some(Self::normalized(&report));
        Ok(())
    }

    fn modes(&self, trace: bool) -> Vec<Mode> {
        match (trace, &self.fleet) {
            (false, _) => vec![Mode::Plain],
            (true, None) => vec![Mode::Plain, Mode::Traced],
            (true, Some(_)) => vec![Mode::Plain, Mode::Traced, Mode::Counted],
        }
    }

    fn execute(&mut self, mode: Mode) -> Result<Exec, String> {
        let prepared = self.prepared.as_ref().ok_or("execute before set-up")?;
        let reference = self.reference.as_ref().ok_or("execute before reference")?;
        let recorder = (mode == Mode::Traced).then(SpanRecorder::new);
        let remote = self.fleet.as_ref().map(|f| {
            f.set_mode(mode);
            prepared.remote_fleet(f.addrs().to_vec())
        });
        let window = Window::open()?;
        let result = catch_unwind(AssertUnwindSafe(|| {
            prepared.execute_fleet(
                &FullRegistry,
                recorder.as_ref().map(|r| r as &dyn Recorder),
                remote.as_ref(),
            )
        }));
        let w = window.close()?;
        let report = match result {
            Ok(Ok(report)) => report,
            Ok(Err(err)) => {
                self.fleet.as_ref().map(Fleet::drain);
                return Err(format!("run failed: {err}"));
            }
            Err(panic) => {
                self.fleet.as_ref().map(Fleet::drain);
                return Err(format!("run panicked: {}", panic_message(panic)));
            }
        };
        let sessions = match &self.fleet {
            Some(fleet) => fleet.sessions(fleet.addrs().len())?,
            None => Vec::new(),
        };
        if let Some(err) = sessions.iter().find_map(|s| s.error.as_ref()) {
            return Err(format!("shard session failed: {err}"));
        }
        if &Self::normalized(&report) != reference {
            return Err("report differs from the reference report".into());
        }
        let mut counters = vec![
            ("engine.rounds", report.rounds),
            ("engine.messages_delivered", report.messages_delivered),
            ("faults.lost", report.messages_lost),
            ("faults.delayed", report.messages_delayed),
            ("faults.expired", report.messages_expired),
        ];
        let mut layers = Vec::new();
        if let Some(rec) = &recorder {
            let spans = rec.summary();
            counters.push((
                "engine.cross_shard_routed",
                spans.counter(Counter::CrossShardRouted),
            ));
            layers = self.layers(&w, &report, &spans, &sessions)?;
        }
        if mode == Mode::Counted {
            let mut wire = crate::fleet::Traffic::default();
            for traffic in sessions
                .iter()
                .map(|s| s.traffic.ok_or("session was not relayed"))
            {
                let traffic = traffic?;
                wire.bytes += traffic.bytes;
                wire.chunks += traffic.chunks;
            }
            counters.push(("wire.bytes", wire.bytes));
            layers = vec![
                ("wire.chunks", wire.chunks as f64),
                (
                    "wire.bytes_per_round",
                    wire.bytes as f64 / report.rounds.max(1) as f64,
                ),
            ];
        }
        Ok(Exec {
            run_s: w.run_s,
            cpu_s: w.cpu_s,
            peak_rss_mb: w.peak_rss_mb,
            good_fraction: good_fraction(&report),
            counters,
            layers,
        })
    }
}

/// Time topology generation and Byzantine placement on their own.
fn time_topology_and_placement(spec: &RunSpec) -> Result<Values, String> {
    let t0 = Instant::now();
    let topology = spec
        .topology
        .build(spec.seed)
        .map_err(|e| format!("topology build failed: {e}"))?;
    let t1 = Instant::now();
    let mask = spec
        .placement
        .materialize(&topology, spec.seed)
        .map_err(|e| format!("placement failed: {e}"))?;
    let t2 = Instant::now();
    std::hint::black_box(mask);
    Ok(vec![
        ("graph.build_s", (t1 - t0).as_secs_f64()),
        ("placement.materialize_s", (t2 - t1).as_secs_f64()),
    ])
}

// ---------------------------------------------------------------------------
// sweep: a campaign of counting cells on two workers.

/// Worker threads of the sweep's campaign runner.
const SWEEP_WORKERS: usize = 2;

/// One campaign drive per execution.
pub struct Sweep {
    campaign: CampaignSpec,
    cells: Vec<CampaignCell>,
    references: Vec<String>,
    good_fraction: f64,
    root: PathBuf,
    drives: u64,
}

impl Sweep {
    fn new(seed: u64, sizes: Vec<usize>, seeds: u32, root: &Path) -> Self {
        let base = sizes[0];
        let batch = BatchSpec {
            version: SPEC_VERSION,
            run: counting_spec(base, 0, EngineSpec::Sync),
            seeds: SeedPolicy::Sequence {
                base: spec_seed(seed, "sweep", base),
                count: seeds,
            },
            sizes: Some(sizes),
        };
        let campaign = CampaignSpec::for_batch("sweep", batch);
        let cells = campaign.cells();
        Sweep {
            campaign,
            cells,
            references: Vec::new(),
            good_fraction: 0.0,
            root: root.to_path_buf(),
            drives: 0,
        }
    }
}

impl Workload for Sweep {
    fn setup(&mut self, traced: bool) -> Result<Values, String> {
        let t0 = Instant::now();
        for cell in &self.cells {
            let prepared =
                PreparedRun::new(&cell.spec).map_err(|e| format!("set-up failed: {e}"))?;
            std::hint::black_box(prepared);
        }
        let mut v: Values = vec![("setup_s", t0.elapsed().as_secs_f64())];
        if traced {
            let (mut graph, mut placement) = (0.0, 0.0);
            for cell in &self.cells {
                let t = time_topology_and_placement(&cell.spec)?;
                graph += t[0].1;
                placement += t[1].1;
            }
            v.extend([
                ("graph.build_s", graph),
                ("placement.materialize_s", placement),
            ]);
        }
        Ok(v)
    }

    fn reference(&mut self) -> Result<(), String> {
        // Standalone runs of every cell, on as many threads as the
        // campaign uses.
        let next = Mutex::new(0usize);
        let results: Mutex<Vec<Option<Result<RunReport, String>>>> =
            Mutex::new(vec![None; self.cells.len()]);
        std::thread::scope(|scope| {
            for _ in 0..SWEEP_WORKERS {
                scope.spawn(|| loop {
                    let i = {
                        let mut next = next.lock().expect("cell cursor");
                        *next += 1;
                        *next - 1
                    };
                    let Some(cell) = self.cells.get(i) else {
                        return;
                    };
                    let report = execute(&cell.spec).map_err(|e| e.to_string());
                    results.lock().expect("reference results")[i] = Some(report);
                });
            }
        });
        let mut fractions = Vec::new();
        for (cell, result) in self
            .cells
            .iter()
            .zip(results.into_inner().expect("reference results"))
        {
            let report = result
                .ok_or("reference cell not run")?
                .map_err(|e| format!("reference run of cell {} failed: {e}", cell.index))?;
            check_reference(&report, &cell.spec)?;
            fractions.push(good_fraction(&report));
            self.references.push(report.to_json());
        }
        self.good_fraction = fractions.iter().sum::<f64>() / fractions.len() as f64;
        Ok(())
    }

    fn execute(&mut self, mode: Mode) -> Result<Exec, String> {
        let traced = mode == Mode::Traced;
        if self.references.len() != self.cells.len() {
            return Err("execute before reference".into());
        }
        self.drives += 1;
        let mut campaign = self.campaign.clone();
        campaign.job = format!("sweep-{}", self.drives);
        let job_dir = ScratchDir(self.root.join(&campaign.job));
        let telemetry = Arc::new(Telemetry::new());
        let (mut store, resumed) = CampaignStore::open_or_create(&self.root, &campaign)
            .map_err(|e| format!("cannot create the campaign store: {e}"))?;
        if resumed {
            return Err("campaign store was not fresh".into());
        }
        store.attach_telemetry(Arc::clone(&telemetry));
        let store = Mutex::new(store);
        let timed = TimedRegistry::new();
        let registry: &dyn ScenarioRegistry = if traced { &timed } else { &FullRegistry };
        let config = RunnerConfig {
            workers: SWEEP_WORKERS,
            ..RunnerConfig::default()
        };
        let stop = AtomicBool::new(false);
        let window = Window::open()?;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_campaign_telemetry(&store, registry, config, &stop, Some(&telemetry), |_| {})
        }));
        let w = window.close()?;
        match outcome {
            Ok(Ok(RunOutcome::Complete)) => {}
            Ok(Ok(RunOutcome::Stopped)) => return Err("campaign stopped before completing".into()),
            Ok(Err(err)) => return Err(format!("campaign failed: {err}")),
            Err(panic) => return Err(format!("campaign panicked: {}", panic_message(panic))),
        }
        let store = store
            .into_inner()
            .map_err(|_| "campaign store lock poisoned")?;
        let mut totals = [0u64; 6];
        for (cell, reference) in self.cells.iter().zip(&self.references) {
            let report = store
                .report_of(cell.index)
                .ok_or_else(|| format!("campaign has no report for cell {}", cell.index))?;
            if &report.to_json() != reference {
                return Err(format!(
                    "cell {} differs from its standalone run",
                    cell.index
                ));
            }
            for (total, value) in totals.iter_mut().zip([
                report.rounds,
                report.messages_delivered,
                report.messages_lost,
                report.messages_delayed,
                report.messages_expired,
                report.honest_crashed as u64,
            ]) {
                *total += value;
            }
        }
        drop(store);
        drop(job_dir);
        let (fsyncs, p50_ns, _p90_ns, p99_ns) = telemetry.fsync_summary_ns();
        let counters = vec![
            ("engine.rounds", totals[0]),
            ("engine.messages_delivered", totals[1]),
            ("faults.lost", totals[2]),
            ("faults.delayed", totals[3]),
            ("faults.expired", totals[4]),
            ("wal.fsyncs", fsyncs),
        ];
        let mut layers = Vec::new();
        if traced {
            let cell_s: Vec<f64> = timed
                .take_calls()
                .iter()
                .filter(|c| c.kind == CallKind::Run)
                .map(|c| c.secs())
                .collect();
            layers = vec![
                ("wal.fsync_p50_us", p50_ns as f64 / 1e3),
                ("wal.fsync_p99_us", p99_ns as f64 / 1e3),
                ("sweep.cell_p50_s", median(&cell_s)),
                (
                    "sweep.cell_max_s",
                    cell_s.iter().copied().fold(0.0, f64::max),
                ),
                (
                    "sweep.util",
                    cell_s.iter().sum::<f64>() / (SWEEP_WORKERS as f64 * w.run_s),
                ),
                (
                    "sweep.retries",
                    cell_s.len().saturating_sub(self.cells.len()) as f64,
                ),
                ("protocol.honest_crashed", totals[5] as f64),
                ("trace.run_s", w.run_s),
            ];
        }
        Ok(Exec {
            run_s: w.run_s,
            cpu_s: w.cpu_s,
            peak_rss_mb: w.peak_rss_mb,
            good_fraction: self.good_fraction,
            counters,
            layers,
        })
    }
}
