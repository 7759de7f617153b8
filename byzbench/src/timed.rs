//! A [`ScenarioRegistry`] that wraps the full registry and times, from
//! outside, every call into the estimators it hands out: whole runs (one
//! campaign cell each) and the start of shard-worker sessions.

use byzcount::protocol::ProtocolParams;
use byzcount::runtime::wire::IoStream;
use byzcount::runtime::ShardServeConfig;
use byzcount::sim::{
    Estimand, Estimator, FullRegistry, RunSpec, ScenarioRegistry, SimContext, SimError, WorkloadRun,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which estimator entry point a [`Call`] timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// [`Estimator::run`]: one execution.
    Run,
    /// [`Estimator::serve_shard`]: one shard-worker session.
    ServeShard,
}

/// One timed estimator call.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Entry point.
    pub kind: CallKind,
    /// When the call was entered.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Call {
    /// Wall seconds the call took.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The full registry, with every estimator call logged.
#[derive(Clone, Default)]
pub struct TimedRegistry {
    calls: Arc<Mutex<Vec<Call>>>,
}

impl TimedRegistry {
    /// A registry with an empty call log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the calls logged so far.
    pub fn take_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("call log poisoned"))
    }
}

impl ScenarioRegistry for TimedRegistry {
    fn estimator(
        &self,
        spec: &RunSpec,
        params: &ProtocolParams,
    ) -> Result<Arc<dyn Estimator>, SimError> {
        Ok(Arc::new(TimedEstimator {
            inner: FullRegistry.estimator(spec, params)?,
            calls: Arc::clone(&self.calls),
        }))
    }
}

struct TimedEstimator {
    inner: Arc<dyn Estimator>,
    calls: Arc<Mutex<Vec<Call>>>,
}

impl TimedEstimator {
    fn log(&self, kind: CallKind, start: Instant) {
        let call = Call {
            kind,
            start,
            end: Instant::now(),
        };
        self.calls.lock().expect("call log poisoned").push(call);
    }
}

impl Estimator for TimedEstimator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimand(&self) -> Estimand {
        self.inner.estimand()
    }

    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError> {
        let start = Instant::now();
        let run = self.inner.run(ctx);
        self.log(CallKind::Run, start);
        run
    }

    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        cfg: &ShardServeConfig,
        end: usize,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        let start = Instant::now();
        let served = self.inner.serve_shard(ctx, cfg, end, chan);
        self.log(CallKind::ServeShard, start);
        served
    }
}
