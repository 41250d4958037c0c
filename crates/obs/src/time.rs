//! Time sources for instrumentation.
//!
//! Every obs component that measures durations takes its time from a
//! [`TimeSource`] rather than calling `std::time` directly. Production code binds
//! [`MonotonicTime`]; tests bind [`ManualTime`] and advance it explicitly so
//! snapshots are a pure function of the recorded workload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait TimeSource: Send + Sync + std::fmt::Debug {
    fn now_nanos(&self) -> u64;
}

/// Wall-clock-backed time source (monotonic, anchored at construction).
#[derive(Debug)]
pub struct MonotonicTime {
    origin: Instant,
}

impl MonotonicTime {
    pub fn new() -> Self {
        MonotonicTime {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicTime {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for MonotonicTime {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Virtual clock: time moves only when a test advances it.
#[derive(Debug, Default)]
pub struct ManualTime {
    now_ns: AtomicU64,
}

impl ManualTime {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn advance_nanos(&self, ns: u64) {
        self.now_ns.fetch_add(ns, Ordering::SeqCst);
    }

    pub fn advance_millis(&self, ms: u64) {
        self.advance_nanos(ms * 1_000_000);
    }

    pub fn set_nanos(&self, ns: u64) {
        self.now_ns.store(ns, Ordering::SeqCst);
    }
}

impl TimeSource for ManualTime {
    fn now_nanos(&self) -> u64 {
        self.now_ns.load(Ordering::SeqCst)
    }
}

/// A restartable stopwatch over an injected [`TimeSource`].
#[derive(Debug, Clone)]
pub struct Stopwatch {
    clock: Arc<dyn TimeSource>,
    started_ns: u64,
}

impl Stopwatch {
    /// Start a stopwatch at the clock's current instant.
    pub fn start(clock: Arc<dyn TimeSource>) -> Self {
        let started_ns = clock.now_nanos();
        Stopwatch { clock, started_ns }
    }

    /// Nanoseconds since the last (re)start.
    pub fn elapsed_nanos(&self) -> u64 {
        self.clock.now_nanos().saturating_sub(self.started_ns)
    }

    /// Restart and return the elapsed nanoseconds of the lap that just ended.
    pub fn lap_nanos(&mut self) -> u64 {
        let now = self.clock.now_nanos();
        let lap = now.saturating_sub(self.started_ns);
        self.started_ns = now;
        lap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_time_advances_only_on_demand() {
        let t = ManualTime::new();
        assert_eq!(t.now_nanos(), 0);
        t.advance_millis(3);
        assert_eq!(t.now_nanos(), 3_000_000);
    }

    #[test]
    fn stopwatch_laps_under_virtual_clock() {
        let clock = Arc::new(ManualTime::new());
        let mut sw = Stopwatch::start(clock.clone());
        clock.advance_nanos(500);
        assert_eq!(sw.elapsed_nanos(), 500);
        assert_eq!(sw.lap_nanos(), 500);
        clock.advance_nanos(250);
        assert_eq!(sw.lap_nanos(), 250);
    }
}
