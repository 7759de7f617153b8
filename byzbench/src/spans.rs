//! The benchmark's own [`Recorder`]: it timestamps the engine's phase
//! spans as they open and close and keeps, per phase, the total *self*
//! time (span duration minus the part of it its child spans cover).
//! Everything stays in memory until [`SpanRecorder::summary`].

use byzcount::trace::{Counter, Gauge, Phase, Recorder, COUNTERS, GAUGES, PHASES};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Open {
    phase: Phase,
    start: Instant,
    children: Duration,
}

#[derive(Default)]
struct State {
    /// Open spans per shard stream (each stream nests properly).
    open: BTreeMap<u32, Vec<Open>>,
    self_time: [Duration; PHASES.len()],
    round_us: Vec<f64>,
    first_round: Option<Instant>,
    last_round_end: Option<Instant>,
    counters: [u64; COUNTERS.len()],
    gauges: [u64; GAUGES.len()],
    /// First nesting violation seen, if any.
    malformed: Option<String>,
}

/// Records span timings for one execution.
#[derive(Default)]
pub struct SpanRecorder {
    state: Mutex<State>,
}

/// What one traced execution's spans add up to.
#[derive(Clone, Debug)]
pub struct SpanSummary {
    /// Self seconds per phase, indexed by [`Phase::index`].
    pub self_s: [f64; PHASES.len()],
    /// Duration of every round span, microseconds.
    pub round_us: Vec<f64>,
    /// When the first round span opened.
    pub first_round: Option<Instant>,
    /// When the last round span closed.
    pub last_round_end: Option<Instant>,
    /// Counter totals, indexed like [`COUNTERS`].
    pub counters: [u64; COUNTERS.len()],
    /// Gauge maxima, indexed like [`GAUGES`].
    pub gauges: [u64; GAUGES.len()],
    /// A span that closed out of order, if any.
    pub malformed: Option<String>,
}

impl SpanSummary {
    /// Self seconds of `phase`.
    pub fn self_of(&self, phase: Phase) -> f64 {
        self.self_s[phase.index()]
    }

    /// Total of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        let i = COUNTERS.iter().position(|c| *c == counter).expect("listed");
        self.counters[i]
    }

    /// Maximum observed value of `gauge`.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        let i = GAUGES.iter().position(|g| *g == gauge).expect("listed");
        self.gauges[i]
    }
}

impl SpanRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder poisoned by a panicking engine thread")
    }

    /// The recorded totals.
    pub fn summary(&self) -> SpanSummary {
        let st = self.state();
        let mut malformed = st.malformed.clone();
        if malformed.is_none() {
            if let Some((shard, stack)) = st.open.iter().find(|(_, s)| !s.is_empty()) {
                malformed = Some(format!(
                    "{} span(s) left open on shard {shard}",
                    stack.len()
                ));
            }
        }
        SpanSummary {
            self_s: st.self_time.map(|d| d.as_secs_f64()),
            round_us: st.round_us.clone(),
            first_round: st.first_round,
            last_round_end: st.last_round_end,
            counters: st.counters,
            gauges: st.gauges,
            malformed,
        }
    }
}

impl Recorder for SpanRecorder {
    fn phase_begin(&self, shard: u32, _time: u64, phase: Phase) {
        let now = Instant::now();
        let mut st = self.state();
        if phase == Phase::Round && st.first_round.is_none() {
            st.first_round = Some(now);
        }
        st.open.entry(shard).or_default().push(Open {
            phase,
            start: now,
            children: Duration::ZERO,
        });
    }

    fn phase_end(&self, shard: u32, time: u64, phase: Phase) {
        let now = Instant::now();
        let mut st = self.state();
        let stack = st.open.entry(shard).or_default();
        let Some(span) = stack.pop() else {
            st.malformed.get_or_insert(format!(
                "{} closed with nothing open (round {time})",
                phase.name()
            ));
            return;
        };
        if span.phase != phase {
            st.malformed.get_or_insert(format!(
                "{} closed while {} was open (round {time})",
                phase.name(),
                span.phase.name()
            ));
            return;
        }
        let duration = now - span.start;
        if let Some(parent) = stack.last_mut() {
            parent.children += duration;
        }
        st.self_time[phase.index()] += duration.saturating_sub(span.children);
        if phase == Phase::Round {
            st.round_us.push(duration.as_secs_f64() * 1e6);
            st.last_round_end = Some(now);
        }
    }

    fn add(&self, _shard: u32, _time: u64, counter: Counter, delta: u64) {
        let i = COUNTERS.iter().position(|c| *c == counter).expect("listed");
        self.state().counters[i] += delta;
    }

    fn gauge(&self, _shard: u32, _time: u64, gauge: Gauge, value: u64) {
        let i = GAUGES.iter().position(|g| *g == gauge).expect("listed");
        let mut st = self.state();
        st.gauges[i] = st.gauges[i].max(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let rec = SpanRecorder::new();
        rec.phase_begin(0, 0, Phase::Round);
        rec.phase_begin(0, 0, Phase::NodeStep);
        std::thread::sleep(Duration::from_millis(20));
        rec.phase_end(0, 0, Phase::NodeStep);
        rec.add(0, 0, Counter::Rounds, 1);
        rec.gauge(0, 0, Gauge::HonestArenaHighWater, 7);
        rec.gauge(0, 0, Gauge::HonestArenaHighWater, 3);
        rec.phase_end(0, 0, Phase::Round);
        let s = rec.summary();
        assert!(s.malformed.is_none());
        assert!(s.self_of(Phase::NodeStep) >= 0.02);
        assert!(s.self_of(Phase::Round) < s.self_of(Phase::NodeStep));
        assert_eq!(s.round_us.len(), 1);
        assert_eq!(s.counter(Counter::Rounds), 1);
        assert_eq!(s.gauge(Gauge::HonestArenaHighWater), 7);
    }

    #[test]
    fn mismatched_spans_are_reported() {
        let rec = SpanRecorder::new();
        rec.phase_begin(0, 0, Phase::Round);
        rec.phase_end(0, 0, Phase::Routing);
        assert!(rec.summary().malformed.is_some());
    }
}
