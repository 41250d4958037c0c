//! I/O-rate throttling with burst credits.
//!
//! Models the EC2 gp2-style behaviour the paper ran into (§5.1): sustained
//! key-value-store traffic exhausts a burst-credit bucket after which the
//! effective I/O rate collapses to a low baseline, which is why the authors
//! moved the sliding-window experiments off EC2. The throttle is a token
//! bucket refilled at `sustained_bytes_per_sec` with an initial burst credit;
//! callers charge it bytes and receive the *delay* they should simulate (the
//! benchmark harness converts the delay into spin time, tests just assert on
//! it).
//!
//! Every charge also feeds obs instruments — an event counter, an
//! induced-delay histogram, and a credits gauge — so throttling is visible
//! in registry snapshots instead of silently discarded by callers that
//! ignore the returned debt (the broker produce path does exactly that).
//! They are minted under `kafka.throttle.*` in the registry the throttle is
//! built with — the broker's, [`Broker::metrics_registry`](crate::Broker::metrics_registry).

use samzasql_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Mutex;

/// Token-bucket throttle with burst credits.
#[derive(Debug)]
pub struct IoThrottle {
    inner: Mutex<ThrottleState>,
    sustained_bytes_per_sec: f64,
    burst_bytes: f64,
    /// Total `charge` calls.
    charges: Counter,
    /// Total bytes charged.
    bytes_charged: Counter,
    /// Charges that induced a nonzero stall (ran past the burst pool).
    throttle_events: Counter,
    /// Per-event induced delay, in microseconds.
    induced_delay_us: Histogram,
    /// Cumulative induced delay, in microseconds.
    induced_delay_us_total: Counter,
    /// Remaining burst credits, in bytes.
    credits_gauge: Gauge,
}

#[derive(Debug)]
struct ThrottleState {
    /// Remaining burst credit in bytes.
    credits: f64,
    /// Accumulated debt in seconds that callers must stall for.
    debt_secs: f64,
    /// Logical clock of the last refill, in seconds.
    last_refill: f64,
}

impl IoThrottle {
    /// Create a throttle with a sustained rate and a burst-credit pool,
    /// publishing into `registry`.
    pub fn new(registry: &MetricsRegistry, sustained_bytes_per_sec: u64, burst_bytes: u64) -> Self {
        let counter = |name: &str| registry.counter(&format!("kafka.throttle.{name}"), &[]);
        let credits_gauge = registry.gauge("kafka.throttle.credits", &[]);
        credits_gauge.set(burst_bytes as i64);
        IoThrottle {
            inner: Mutex::new(ThrottleState {
                credits: burst_bytes as f64,
                debt_secs: 0.0,
                last_refill: 0.0,
            }),
            sustained_bytes_per_sec: sustained_bytes_per_sec as f64,
            burst_bytes: burst_bytes as f64,
            charges: counter("charges"),
            bytes_charged: counter("bytes_charged"),
            throttle_events: counter("events"),
            induced_delay_us: registry.histogram("kafka.throttle.induced_delay_us", &[]),
            induced_delay_us_total: counter("induced_delay_us_total"),
            credits_gauge,
        }
    }

    /// Charge `bytes` of traffic at logical time `now_secs`. Returns the
    /// number of seconds of stall the caller has incurred so far (cumulative
    /// debt). While burst credits remain, the stall stays zero.
    pub fn charge(&self, bytes: u64, now_secs: f64) -> f64 {
        let mut s = self.inner.lock().unwrap();
        // Refill credits for elapsed time, capped at the burst pool.
        let elapsed = (now_secs - s.last_refill).max(0.0);
        s.last_refill = now_secs;
        s.credits = (s.credits + elapsed * self.sustained_bytes_per_sec).min(self.burst_bytes);
        let b = bytes as f64;
        if s.credits >= b {
            s.credits -= b;
        } else {
            let uncovered = b - s.credits;
            s.credits = 0.0;
            let induced_secs = uncovered / self.sustained_bytes_per_sec;
            s.debt_secs += induced_secs;
            let induced_us = (induced_secs * 1e6) as u64;
            self.throttle_events.inc();
            self.induced_delay_us.record(induced_us);
            self.induced_delay_us_total.add(induced_us);
        }
        self.charges.inc();
        self.bytes_charged.add(bytes);
        self.credits_gauge.set(s.credits as i64);
        s.debt_secs
    }

    /// Remaining burst credits in bytes.
    pub fn credits(&self) -> u64 {
        self.inner.lock().unwrap().credits as u64
    }

    /// True once the burst pool has been exhausted at least to zero.
    pub fn is_throttling(&self) -> bool {
        let s = self.inner.lock().unwrap();
        s.debt_secs > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(registry: &MetricsRegistry) -> Option<u64> {
        registry.snapshot().counter("kafka.throttle.events", &[])
    }

    #[test]
    fn burst_credits_absorb_initial_traffic() {
        let registry = MetricsRegistry::new();
        let t = IoThrottle::new(&registry, 1000, 10_000);
        assert_eq!(t.charge(5000, 0.0), 0.0);
        assert!(!t.is_throttling());
        assert_eq!(t.credits(), 5000);
        assert_eq!(events(&registry), Some(0));
    }

    #[test]
    fn exhausted_credits_accumulate_debt() {
        let registry = MetricsRegistry::new();
        let t = IoThrottle::new(&registry, 1000, 1000);
        assert_eq!(t.charge(1000, 0.0), 0.0);
        let debt = t.charge(2000, 0.0);
        assert!(
            (debt - 2.0).abs() < 1e-9,
            "2000 uncovered bytes at 1000 B/s = 2 s, got {debt}"
        );
        assert!(t.is_throttling());
        assert_eq!(events(&registry), Some(1));
    }

    #[test]
    fn credits_refill_over_time_up_to_burst() {
        let t = IoThrottle::new(&MetricsRegistry::new(), 1000, 2000);
        t.charge(2000, 0.0); // drain
        t.charge(0, 1.0); // refill 1s * 1000 B/s
        assert_eq!(t.credits(), 1000);
        t.charge(0, 100.0); // refill far beyond pool; capped
        assert_eq!(t.credits(), 2000);
    }

    #[test]
    fn instruments_observe_throttling() {
        let registry = MetricsRegistry::new();
        let t = IoThrottle::new(&registry, 1000, 1000);
        t.charge(3000, 0.0);
        let snap = registry.snapshot_prefix("kafka.throttle.");
        assert_eq!(snap.counter("kafka.throttle.charges", &[]), Some(1));
        assert_eq!(
            snap.counter("kafka.throttle.bytes_charged", &[]),
            Some(3000)
        );
        assert_eq!(snap.counter("kafka.throttle.events", &[]), Some(1));
        // 2000 uncovered bytes at 1000 B/s = 2 s = 2_000_000 us.
        assert_eq!(
            snap.counter("kafka.throttle.induced_delay_us_total", &[]),
            Some(2_000_000)
        );
        let credits = snap
            .entries
            .iter()
            .find(|e| e.name == "kafka.throttle.credits");
        assert!(matches!(
            credits.map(|e| &e.value),
            Some(samzasql_obs::MetricValue::Gauge(0))
        ));
    }
}
