//! Two in-process shard workers for the distributed workload: benchmark
//! threads that accept coordinator connections on Unix sockets and serve
//! each through [`serve_shard_conn`], timing every session from outside.
//!
//! Socket traffic goes through `send`/`recv`, which the kernel's
//! per-process I/O counters do not see, so wire volume is measured by
//! relaying a session through an in-process socket pair and counting
//! what passes (only in [`Mode::Counted`] sessions, since the relay adds
//! a hop).

use crate::measure::thread_cpu_s;
use crate::timed::{CallKind, TimedRegistry};
use byzcount::runtime::wire::{IoStream, Listener};
use byzcount::sim::{serve_shard_conn, FullRegistry, SHARD_HELLO_TIMEOUT};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long to wait for a worker to report a session that must have
/// ended (the coordinator already returned).
const SESSION_REPORT_TIMEOUT: Duration = Duration::from_secs(30);

/// How the workers serve the next sessions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Directly, through the full registry.
    Plain,
    /// Through the timing registry (records `rebuild_s`).
    Traced,
    /// Directly, with the connection relayed to count its bytes.
    Counted,
}

/// Traffic a relayed session carried (both directions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes.
    pub bytes: u64,
    /// Chunks the bytes arrived in (one per relay read).
    pub chunks: u64,
}

/// One served coordinator connection, as the worker thread saw it.
#[derive(Clone, Debug)]
pub struct Session {
    /// Wall seconds from accept to the end of the session.
    pub wall_s: f64,
    /// CPU seconds the worker thread spent in the session.
    pub cpu_s: f64,
    /// Seconds from accept to entering the estimator's `serve_shard`
    /// (handshake plus rebuilding topology, placement and parameters);
    /// zero when the session was not traced.
    pub rebuild_s: f64,
    /// Traffic of a [`Mode::Counted`] session.
    pub traffic: Option<Traffic>,
    /// Why the session failed, if it did.
    pub error: Option<String>,
}

/// A running pool of shard-worker threads.
pub struct Fleet {
    addrs: Vec<String>,
    mode: Arc<AtomicU8>,
    stop: Arc<AtomicBool>,
    sessions: mpsc::Receiver<Session>,
    workers: Vec<JoinHandle<()>>,
}

impl Fleet {
    /// Bind `count` Unix sockets under `dir` and start one worker thread
    /// on each.
    pub fn start(dir: &Path, count: usize) -> io::Result<Fleet> {
        let mode = Arc::new(AtomicU8::new(Mode::Plain as u8));
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, sessions) = mpsc::channel();
        let mut fleet = Fleet {
            addrs: Vec::new(),
            mode,
            stop,
            sessions,
            workers: Vec::new(),
        };
        for i in 0..count {
            let addr = format!("unix:{}", dir.join(format!("w{i}.sock")).display());
            let listener = Listener::bind(&addr)?;
            let (mode, stop, tx) = (Arc::clone(&fleet.mode), Arc::clone(&fleet.stop), tx.clone());
            fleet.workers.push(
                std::thread::Builder::new()
                    .name(format!("shard-worker-{i}"))
                    .spawn(move || serve(listener, &mode, &stop, &tx))?,
            );
            fleet.addrs.push(addr);
        }
        Ok(fleet)
    }

    /// The workers' addresses, in shard order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// How the next sessions are served.
    pub fn set_mode(&self, mode: Mode) {
        self.mode.store(mode as u8, Ordering::SeqCst);
    }

    /// Wait for the reports of `count` sessions.
    pub fn sessions(&self, count: usize) -> Result<Vec<Session>, String> {
        (0..count)
            .map(|_| {
                self.sessions
                    .recv_timeout(SESSION_REPORT_TIMEOUT)
                    .map_err(|e| format!("shard worker did not report its session: {e}"))
            })
            .collect()
    }

    /// Drop any session reports already queued (after a failed run).
    pub fn drain(&self) {
        while self.sessions.try_recv().is_ok() {}
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake every blocking accept; the worker sees `stop` and returns.
        for addr in &self.addrs {
            let _ = IoStream::connect(addr);
        }
        for worker in self.workers.drain(..) {
            if worker.join().is_err() {
                eprintln!("byzbench: a shard worker thread panicked");
            }
        }
    }
}

fn serve(listener: Listener, mode: &AtomicU8, stop: &AtomicBool, tx: &mpsc::Sender<Session>) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match accepted {
            Ok(Some(stream)) => stream,
            Ok(None) => continue,
            Err(err) => {
                eprintln!("byzbench: shard worker accept failed: {err}");
                return;
            }
        };
        let mode = match mode.load(Ordering::SeqCst) {
            m if m == Mode::Traced as u8 => Mode::Traced,
            m if m == Mode::Counted as u8 => Mode::Counted,
            _ => Mode::Plain,
        };
        let session = match mode {
            Mode::Counted => match relayed(stream) {
                Ok((served, traffic)) => Session {
                    traffic: Some(traffic),
                    ..served
                },
                Err(err) => Session {
                    wall_s: 0.0,
                    cpu_s: 0.0,
                    rebuild_s: 0.0,
                    traffic: None,
                    error: Some(format!("relay failed: {err}")),
                },
            },
            _ => session(stream, mode == Mode::Traced),
        };
        if tx.send(session).is_err() {
            return;
        }
    }
}

/// Serve one connection on this thread.
fn session(mut stream: IoStream, traced: bool) -> Session {
    let start = Instant::now();
    let cpu0 = thread_cpu_s();
    let timed = TimedRegistry::new();
    let served = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            serve_shard_conn(&mut stream, &timed, SHARD_HELLO_TIMEOUT)
        } else {
            serve_shard_conn(&mut stream, &FullRegistry, SHARD_HELLO_TIMEOUT)
        }
    }));
    let cpu_s = thread_cpu_s() - cpu0;
    let wall_s = start.elapsed().as_secs_f64();
    drop(stream);
    let rebuild_s = timed
        .take_calls()
        .iter()
        .find(|c| c.kind == CallKind::ServeShard)
        .map_or(0.0, |c| (c.start - start).as_secs_f64());
    let error = match served {
        Ok(Ok(())) => None,
        Ok(Err(err)) => Some(err.to_string()),
        Err(_) => Some("shard session panicked".to_string()),
    };
    Session {
        wall_s,
        cpu_s,
        rebuild_s,
        traffic: None,
        error,
    }
}

/// Serve one connection through a counting relay: the worker speaks to
/// one end of a socket pair, and two pump threads copy between the other
/// end and the coordinator's connection.
fn relayed(outer: IoStream) -> io::Result<(Session, Traffic)> {
    let IoStream::Unix(outer) = outer else {
        return Err(io::Error::other("the relay supports Unix sockets only"));
    };
    let (inner, relay_end) = UnixStream::pair()?;
    let (outer_rd, relay_rd) = (outer.try_clone()?, relay_end.try_clone()?);
    std::thread::scope(|scope| {
        let inbound = scope.spawn(move || pump(outer_rd, relay_end));
        let outbound = scope.spawn(move || pump(relay_rd, outer));
        let served = session(IoStream::Unix(inner), false);
        let mut traffic = Traffic::default();
        for pump in [inbound, outbound] {
            let t = pump
                .join()
                .map_err(|_| io::Error::other("relay pump panicked"))??;
            traffic.bytes += t.bytes;
            traffic.chunks += t.chunks;
        }
        Ok((served, traffic))
    })
}

/// Copy `from` into `to` until `from` reaches end of stream, then shut
/// down `to`'s write half so the peer sees the end too.
fn pump(mut from: UnixStream, mut to: UnixStream) -> io::Result<Traffic> {
    let mut buf = vec![0u8; 1 << 16];
    let mut traffic = Traffic::default();
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        to.write_all(&buf[..n])?;
        traffic.bytes += n as u64;
        traffic.chunks += 1;
    }
    // The peer may already be gone; the count stands either way.
    let _ = to.shutdown(std::net::Shutdown::Write);
    Ok(traffic)
}
