//! End-to-end tests of the `byzcount-cli` binary: argument hardening
//! (unknown subcommands and malformed flag values must fail loudly on
//! stderr with a nonzero exit), a full serve → submit → watch smoke
//! over a Unix socket, and the distributed engine's process mode —
//! real `shard-worker` child processes serving socket shard sessions,
//! including a SIGKILL mid-run that must surface as a clean error.

use byzcount_core::sim::{
    AdversarySpec, AttackSpec, BatchSpec, EngineSpec, FaultSpec, ParamsSpec, PlacementSpec,
    RunSpec, SeedPolicy, TopologySpec, WorkloadSpec, SPEC_VERSION,
};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_byzcount-cli"))
}

fn run_cli(args: &[&str]) -> Output {
    bin()
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn byzcount-cli")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn unknown_subcommand_prints_usage_and_fails() {
    for argv in [
        vec!["frobnicate"],
        vec!["e99"],
        vec!["benchh"], // a typo'd name must not fall through to the options
        vec!["e1x", "--trials", "3"],
    ] {
        let out = run_cli(&argv);
        assert!(!out.status.success(), "{argv:?} must fail");
        let err = stderr_of(&out);
        assert!(err.contains("usage:"), "{argv:?} stderr: {err}");
        assert!(err.contains("unknown subcommand"), "{argv:?} stderr: {err}");
    }
}

#[test]
fn empty_invocation_prints_usage_and_fails() {
    let out = run_cli(&[]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("usage:"));
}

#[test]
fn malformed_flag_values_are_rejected_not_defaulted() {
    for (argv, needle) in [
        (vec!["e1", "--trials", "many"], "invalid --trials"),
        (vec!["e1", "--seed", "0x2a"], "invalid --seed"),
        (vec!["e1", "--d", "six"], "invalid --d"),
        (vec!["e1", "--delta", ""], "invalid --delta"),
        (vec!["e1", "--epsilon", "10%"], "invalid --epsilon"),
        (vec!["e1", "--n", "512,,1024"], "invalid --n"),
        (vec!["e1", "--bogus"], "unknown option"),
        (vec!["template", "nope"], "unknown template"),
        (vec!["bench", "--repeats", "0"], "invalid --repeats"),
        (vec!["serve"], "usage:"),
        (vec!["submit", "unix:/tmp/x.sock"], "usage:"),
        (vec!["status", "unix:/tmp/x.sock"], "usage:"),
        (vec!["watch", "unix:/tmp/x.sock"], "usage:"),
        (
            vec!["watch", "unix:/tmp/x.sock", "j", "--cursor", "minus"],
            "invalid --cursor",
        ),
        (vec!["shard-worker"], "requires --listen"),
        (
            vec!["shard-worker", "--bogus"],
            "unknown shard-worker option",
        ),
        (
            vec!["run", "nope.json", "--workers", ","],
            "invalid --workers",
        ),
    ] {
        let out = run_cli(&argv);
        assert!(!out.status.success(), "{argv:?} must fail");
        let err = stderr_of(&out);
        assert!(err.contains(needle), "{argv:?} stderr: {err}");
        assert!(err.contains("usage:"), "{argv:?} stderr: {err}");
    }
}

fn smoke_batch() -> BatchSpec {
    BatchSpec {
        version: SPEC_VERSION,
        run: RunSpec {
            version: SPEC_VERSION,
            topology: TopologySpec::SmallWorld { n: 64, d: 6 },
            workload: WorkloadSpec::Basic,
            placement: PlacementSpec::None,
            adversary: AdversarySpec::Null,
            fault: FaultSpec::None,
            engine: EngineSpec::Sync,
            params: ParamsSpec::Derived {
                delta: 0.6,
                epsilon: 0.1,
            },
            seed: 5,
            max_rounds: None,
        },
        seeds: SeedPolicy::Sequence { base: 5, count: 2 },
        sizes: None,
    }
}

/// Kills the server process on drop so a failing assertion cannot leak it.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_submit_watch_round_trip_over_unix_socket() {
    let dir = std::env::temp_dir().join(format!("byzcount-cli-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = format!("unix:{}", dir.join("svc.sock").display());
    let store: PathBuf = dir.join("store");
    let spec_path = dir.join("batch.json");
    std::fs::write(&spec_path, smoke_batch().to_json()).unwrap();

    let server = ServerGuard(
        bin()
            .args([
                "serve",
                &sock,
                "--store",
                store.to_str().unwrap(),
                "--workers",
                "1",
                "--snapshot-every",
                "1",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve"),
    );

    // Wait for the socket to come up.
    let sock_file = dir.join("svc.sock");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sock_file.exists() {
        assert!(Instant::now() < deadline, "server socket never appeared");
        std::thread::sleep(Duration::from_millis(25));
    }

    // Submit the tiny sweep under an explicit job id.
    let out = run_cli(&[
        "submit",
        &sock,
        spec_path.to_str().unwrap(),
        "--job",
        "smoke",
    ]);
    assert!(out.status.success(), "submit: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("submitted smoke (2 cells"), "{stdout}");

    // Stream records to completion: exactly one NDJSON line per cell,
    // no duplicates, no gaps.
    let out = run_cli(&["watch", &sock, "smoke", "--page", "1"]);
    assert!(out.status.success(), "watch: {}", stderr_of(&out));
    let lines: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(lines.len(), 2, "one record per cell: {lines:?}");
    for (k, line) in lines.iter().enumerate() {
        let value = serde_json::parse_value_complete(line).expect("record line parses");
        let seq = value.field("seq").clone();
        assert_eq!(
            serde_json::to_string(&seq).unwrap(),
            k.to_string(),
            "records arrive in seq order"
        );
    }

    // The status line is shell-parseable and reflects the finished job.
    let out = run_cli(&["status", &sock, "smoke"]);
    assert!(out.status.success(), "status: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("state=done completed=2 total=2"),
        "{stdout}"
    );

    // The merged report over the socket is byte-identical to running the
    // same batch locally.
    let merged = run_cli(&["watch", &sock, "smoke", "--merged"]);
    assert!(merged.status.success(), "merged: {}", stderr_of(&merged));
    let direct = run_cli(&["run", spec_path.to_str().unwrap()]);
    assert!(direct.status.success(), "run: {}", stderr_of(&direct));
    assert_eq!(
        String::from_utf8_lossy(&merged.stdout),
        String::from_utf8_lossy(&direct.stdout),
        "campaign result must be byte-identical to the one-shot run"
    );

    // Resubmitting the identical spec re-attaches instead of restarting.
    let again = run_cli(&[
        "submit",
        &sock,
        spec_path.to_str().unwrap(),
        "--job",
        "smoke",
    ]);
    assert!(again.status.success());
    assert!(
        String::from_utf8_lossy(&again.stdout).contains("resumed"),
        "identical resubmission must resume"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A running `shard-worker` child plus the address it actually bound
/// (TCP port 0 resolves on bind); killed on drop.
struct WorkerGuard {
    child: Child,
    addr: String,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `byzcount-cli shard-worker --listen <listen>` and wait for its
/// `listening on <addr>` banner — the synchronization point coordinators
/// rely on before dialing.
fn spawn_shard_worker(listen: &str) -> WorkerGuard {
    let mut child = bin()
        .args(["shard-worker", "--listen", listen])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn shard-worker");
    let stdout = child.stdout.take().expect("worker stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the worker banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected worker banner: {line:?}"))
        .to_string();
    WorkerGuard { child, addr }
}

fn dist_run_spec(n: usize, shards: u32, seed: u64) -> RunSpec {
    RunSpec {
        version: SPEC_VERSION,
        topology: TopologySpec::SmallWorld { n, d: 6 },
        workload: WorkloadSpec::Byzantine,
        placement: PlacementSpec::RandomBudget { delta: 0.6 },
        adversary: AdversarySpec::Combined,
        fault: FaultSpec::None,
        engine: EngineSpec::Distributed { shards },
        params: ParamsSpec::Derived {
            delta: 0.6,
            epsilon: 0.1,
        },
        seed,
        max_rounds: None,
    }
}

#[test]
fn shard_worker_processes_produce_byte_identical_reports() {
    // The process-mode parity contract, end to end through the real
    // binary: one Unix-socket worker and one TCP worker serve a dist-2
    // run whose report must be byte-identical to the in-process run of
    // the same spec (the transport is never a spec field).
    let dir = std::env::temp_dir().join(format!("byzcount-cli-sw-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("dist2.json");
    std::fs::write(&spec_path, dist_run_spec(128, 2, 7).to_json()).unwrap();

    let unix_worker = spawn_shard_worker(&format!("unix:{}", dir.join("w0.sock").display()));
    let tcp_worker = spawn_shard_worker("127.0.0.1:0");
    let fleet = format!("{},{}", unix_worker.addr, tcp_worker.addr);

    let in_process = run_cli(&["run", spec_path.to_str().unwrap()]);
    assert!(in_process.status.success(), "{}", stderr_of(&in_process));
    let remote = run_cli(&["run", spec_path.to_str().unwrap(), "--workers", &fleet]);
    assert!(remote.status.success(), "{}", stderr_of(&remote));
    assert_eq!(
        String::from_utf8_lossy(&in_process.stdout),
        String::from_utf8_lossy(&remote.stdout),
        "process-mode report must be byte-identical to the in-process run"
    );

    drop(unix_worker);
    drop(tcp_worker);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Open file descriptors of process `pid`, or `None` where `/proc` is
/// unavailable.
fn open_fds(pid: u32) -> Option<usize> {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .ok()
        .map(|dir| dir.count())
}

#[test]
fn sigkilled_shard_worker_surfaces_as_a_clean_error_not_a_panic() {
    // Kill-and-recover: SIGKILL the worker process mid-run.  The
    // coordinator must exit nonzero with a `WorkerLost`-style message on
    // stderr — never a panic, never a hang.  Both edges are pinned
    // without a sleep: the flood's horizon is so far away that the run
    // cannot finish before the kill, and the kill waits until the worker
    // has accepted both shards' sessions.
    let dir = std::env::temp_dir().join(format!("byzcount-cli-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("dist2-endless.json");
    let mut spec = dist_run_spec(256, 2, 11);
    spec.topology = TopologySpec::SmallWorldH { n: 256, d: 6 };
    spec.workload = WorkloadSpec::FloodDiameter {
        ttl: Some(1 << 40),
        attack: AttackSpec::None,
    };
    spec.placement = PlacementSpec::None;
    spec.adversary = AdversarySpec::Null;
    std::fs::write(&spec_path, spec.to_json()).unwrap();

    let mut worker = spawn_shard_worker(&format!("unix:{}", dir.join("victim.sock").display()));
    let idle_fds = open_fds(worker.child.id());
    let mut run = bin()
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "--workers",
            &worker.addr,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn run");
    let deadline = Instant::now() + Duration::from_secs(60);
    match idle_fds {
        // Each accepted shard session holds one more descriptor.
        Some(idle) => {
            while open_fds(worker.child.id()).unwrap_or(0) < idle + 2 {
                assert!(
                    Instant::now() < deadline,
                    "the coordinator never opened both shard sessions"
                );
                assert!(
                    run.try_wait().expect("poll run").is_none(),
                    "the run exited before the kill"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // No `/proc`: the run cannot finish, so only the dial must land
        // first, and it does within a second.
        None => std::thread::sleep(Duration::from_millis(1200)),
    }
    // SIGKILL, not a graceful shutdown: the worker gets no chance to
    // flush or close cleanly.
    worker.child.kill().expect("SIGKILL the worker");
    while run.try_wait().expect("poll run").is_none() {
        if Instant::now() >= deadline {
            let _ = run.kill();
            panic!("the coordinator hung after losing its worker");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = run.wait_with_output().expect("run exits");
    assert!(
        !out.status.success(),
        "a run whose worker died must fail, stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("shard worker") && err.contains("lost during"),
        "stderr must carry the WorkerLost error, got: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "a lost worker must never panic the coordinator: {err}"
    );

    drop(worker);
    let _ = std::fs::remove_dir_all(&dir);
}
