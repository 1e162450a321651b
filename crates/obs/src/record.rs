//! The recorder trait and its metric handles.
#![expect(
    clippy::disallowed_types,
    reason = "telemetry timestamps are observability metadata read inside obs only; they never feed campaign RNG streams or results"
)]

use std::time::Instant;

/// One recorded observation value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// A monotonically accumulated count (events, hits, strikes).
    Count(u64),
    /// A sampled level (throughput, utilization).
    Gauge(f64),
    /// An elapsed duration in seconds.
    Time(f64),
}

/// One event of a profile log: what happened, to which instance, when.
///
/// `t_us` is microseconds since the recorder's origin (monotonic,
/// relative — a log carries no wall-clock time). `name` identifies the
/// metric (`cell.exec`, `cache.mem_hit`, …); `scope` identifies the
/// instance it describes (a canonical cell key, a phase name, or `""`
/// for study-global events).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the recorder's origin.
    pub t_us: u64,
    /// Metric name, e.g. `cell.exec`.
    pub name: String,
    /// Instance label, e.g. a canonical cell key (`""` = global).
    pub scope: String,
    /// The observation.
    pub metric: Metric,
}

/// A sink for observability events.
///
/// Implementations stamp events with their own monotonic-relative
/// timestamps; instrumentation sites only name what happened.
/// Recorders are shared by reference across campaign worker threads,
/// so implementations must be `Sync`.
pub trait Recorder: Send + Sync {
    /// Whether this recorder consumes events. Instrumentation sites
    /// use this to skip clock reads and string formatting entirely, so
    /// an unprofiled run pays only a branch per event site.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one observation.
    fn record(&self, name: &str, scope: &str, metric: Metric);

    /// Flushes any buffered events to their destination (a no-op for
    /// recorders without one).
    fn flush(&self) {}
}

/// The default recorder: discards everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _name: &str, _scope: &str, _metric: Metric) {}
}

/// The shared default recorder instance; campaigns without telemetry
/// attached point here.
pub static NULL_RECORDER: NullRecorder = NullRecorder;

/// A counting handle bound to one `(name, scope)` pair.
#[derive(Clone, Copy)]
pub struct Counter<'r> {
    rec: &'r dyn Recorder,
    name: &'r str,
    scope: &'r str,
}

impl<'r> Counter<'r> {
    /// Binds a counter handle.
    pub fn new(rec: &'r dyn Recorder, name: &'r str, scope: &'r str) -> Counter<'r> {
        Counter { rec, name, scope }
    }

    /// Adds `n` to the counter (zero increments are not recorded).
    pub fn add(&self, n: u64) {
        if n > 0 && self.rec.enabled() {
            self.rec.record(self.name, self.scope, Metric::Count(n));
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A level-sampling handle bound to one `(name, scope)` pair.
#[derive(Clone, Copy)]
pub struct Gauge<'r> {
    rec: &'r dyn Recorder,
    name: &'r str,
    scope: &'r str,
}

impl<'r> Gauge<'r> {
    /// Binds a gauge handle.
    pub fn new(rec: &'r dyn Recorder, name: &'r str, scope: &'r str) -> Gauge<'r> {
        Gauge { rec, name, scope }
    }

    /// Records the current level.
    pub fn set(&self, value: f64) {
        if self.rec.enabled() {
            self.rec.record(self.name, self.scope, Metric::Gauge(value));
        }
    }
}

/// A running timer; records an elapsed-seconds [`Metric::Time`] event
/// when stopped or dropped.
///
/// Against a disabled recorder the timer never reads the clock and
/// never records. Clock reads stay inside this crate, so the
/// instrumented simulation crates contain no timing calls of their
/// own.
pub struct Timer<'r> {
    rec: &'r dyn Recorder,
    name: &'r str,
    scope: String,
    start: Option<Instant>,
}

impl<'r> Timer<'r> {
    /// Starts a timer (a no-op handle when the recorder is disabled).
    pub fn start(rec: &'r dyn Recorder, name: &'r str, scope: impl Into<String>) -> Timer<'r> {
        Timer {
            rec,
            name,
            scope: scope.into(),
            start: rec.enabled().then(Instant::now),
        }
    }

    /// Seconds since start (0.0 when the recorder is disabled).
    pub fn elapsed_s(&self) -> f64 {
        self.start.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }

    /// Stops the timer, records the elapsed time, and returns it.
    pub fn stop(mut self) -> f64 {
        self.finish()
    }

    /// Discards the timer without recording an event.
    pub fn cancel(mut self) {
        self.start = None;
    }

    fn finish(&mut self) -> f64 {
        match self.start.take() {
            None => 0.0,
            Some(s) => {
                let elapsed = s.elapsed().as_secs_f64();
                self.rec
                    .record(self.name, &self.scope, Metric::Time(elapsed));
                elapsed
            }
        }
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Debug, Default)]
    struct Capture(Mutex<Vec<(String, String, Metric)>>);

    impl Recorder for Capture {
        fn record(&self, name: &str, scope: &str, metric: Metric) {
            self.0.lock().expect("capture lock").push((
                name.to_string(),
                scope.to_string(),
                metric,
            ));
        }
    }

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        assert!(!NULL_RECORDER.enabled());
        Counter::new(&NULL_RECORDER, "x", "").add(5);
        Gauge::new(&NULL_RECORDER, "x", "").set(1.0);
        let t = Timer::start(&NULL_RECORDER, "x", "");
        assert_eq!(t.elapsed_s(), 0.0);
        assert_eq!(t.stop(), 0.0);
    }

    #[test]
    fn counter_skips_zero_increments() {
        let cap = Capture::default();
        let c = Counter::new(&cap, "hits", "cell-a");
        c.add(0);
        c.add(2);
        c.incr();
        let events = cap.0.lock().expect("capture lock").clone();
        assert_eq!(
            events,
            vec![
                ("hits".to_string(), "cell-a".to_string(), Metric::Count(2)),
                ("hits".to_string(), "cell-a".to_string(), Metric::Count(1)),
            ]
        );
    }

    #[test]
    fn timer_records_once_on_stop_or_drop() {
        let cap = Capture::default();
        let t = Timer::start(&cap, "work", "s");
        assert!(t.elapsed_s() >= 0.0);
        let elapsed = t.stop();
        {
            let _guard = Timer::start(&cap, "guard", "s");
        }
        let cancelled = Timer::start(&cap, "never", "s");
        cancelled.cancel();
        let events = cap.0.lock().expect("capture lock").clone();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].0, "work");
        assert_eq!(events[0].2, Metric::Time(elapsed));
        assert_eq!(events[1].0, "guard");
    }
}
