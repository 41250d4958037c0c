//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! Every client of the broker — a container's fetches and output flushes,
//! the checkpoint manager, changelog flushes — routes its broker calls
//! through a [`Retrier`], which retries errors that
//! [`KafkaError::is_retriable`] classifies as transient. Retries are
//! *bounded twice*: by an attempt cap and by a total backoff-time budget, so
//! a permanently failing partition surfaces [`KafkaError::RetriesExhausted`]
//! instead of hanging.
//!
//! Backoff is logical: the budget counts the backoff milliseconds the
//! policy schedules, and the retrier yields the thread between attempts
//! instead of sleeping, which keeps chaos tests fast and deterministic.

use crate::error::{KafkaError, Result};
use samzasql_obs::{Counter, Histogram, MetricsRegistry};

/// Retry configuration: exponential backoff with deterministic jitter,
/// capped by attempts and by a total backoff budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Ceiling for any single backoff.
    pub max_backoff_ms: u64,
    /// Fraction of each backoff randomized away (0.0 = none, 0.5 = up to
    /// half). Jitter is a pure function of `seed` and the attempt number, so
    /// a fixed seed reproduces the exact backoff schedule.
    pub jitter: f64,
    /// Total backoff budget in milliseconds (0 = attempts cap only). Once
    /// cumulative backoff would exceed this, the retrier gives up.
    pub budget_ms: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries at all: the first error is returned verbatim.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            jitter: 0.0,
            budget_ms: 0,
            seed: 0,
        }
    }

    /// The stack-wide default: enough attempts to ride out a leader election
    /// or a short injected outage, bounded tightly so permanent failures
    /// surface fast.
    pub fn default_client() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 1,
            max_backoff_ms: 64,
            jitter: 0.5,
            budget_ms: 1_000,
            seed: 0x5a5a_5a5a,
        }
    }

    /// Builder-style seed override (chaos scenarios pin this).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style attempt-cap override.
    pub fn attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// The backoff (ms) before retry number `attempt` (1-based). Exponential
    /// doubling from `base_backoff_ms`, capped at `max_backoff_ms`, with the
    /// jitter fraction deterministically subtracted.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ms.max(self.base_backoff_ms));
        if raw == 0 || self.jitter <= 0.0 {
            return raw;
        }
        let jitter_span = ((raw as f64) * self.jitter.clamp(0.0, 1.0)) as u64;
        if jitter_span == 0 {
            return raw;
        }
        let h = splitmix64(self.seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        raw - (h % (jitter_span + 1))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::default_client()
    }
}

/// SplitMix64: the deterministic hash behind jitter and fault schedules.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Retry instruments, cloneable so one bundle can span a container's
/// fetch, output, checkpoint, and changelog retriers. The container
/// mints them under `kafka.retry.*` ([`RetryMetrics::new`]); `Default`
/// gives unregistered handles to a retrier nobody publishes.
#[derive(Debug, Clone, Default)]
pub struct RetryMetrics {
    /// Retried attempts (each backoff-then-try counts once).
    pub retries: Counter,
    /// Operations abandoned after exhausting attempts or budget.
    pub giveups: Counter,
    /// Cumulative backoff time (ms) across all retries.
    pub backoff_ms: Counter,
    /// Backoff per retry (ms).
    pub backoff_hist_ms: Histogram,
}

impl RetryMetrics {
    /// Get or create the `kafka.retry.*` series with the given labels.
    pub fn new(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        RetryMetrics {
            retries: registry.counter("kafka.retry.retries", labels),
            giveups: registry.counter("kafka.retry.giveups", labels),
            backoff_ms: registry.counter("kafka.retry.backoff_ms", labels),
            backoff_hist_ms: registry.histogram("kafka.retry.backoff_hist_ms", labels),
        }
    }
}

/// A policy bound to a metrics sink: the object clients actually hold and
/// call [`run`](Retrier::run) on.
#[derive(Debug, Clone)]
pub struct Retrier {
    policy: RetryPolicy,
    metrics: RetryMetrics,
}

impl Retrier {
    /// A retrier over the given policy.
    pub fn new(policy: RetryPolicy) -> Self {
        Retrier {
            policy,
            metrics: RetryMetrics::default(),
        }
    }

    /// A retrier that never retries (first error wins).
    pub fn disabled() -> Self {
        Retrier::new(RetryPolicy::disabled())
    }

    /// Share an existing metrics sink (builder style).
    pub fn with_metrics(mut self, metrics: RetryMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    pub fn metrics(&self) -> &RetryMetrics {
        &self.metrics
    }

    /// Run `f`, retrying retriable errors per the policy. Non-retriable
    /// errors return immediately; exhaustion returns
    /// [`KafkaError::RetriesExhausted`] wrapping the last transient error.
    pub fn run<T>(&self, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt = 0u32;
        let mut spent_ms = 0u64;
        loop {
            attempt += 1;
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_retriable() => return Err(e),
                Err(e) => {
                    if attempt >= self.policy.max_attempts {
                        if attempt == 1 {
                            // Retries disabled: first error wins, verbatim.
                            return Err(e);
                        }
                        self.metrics.giveups.inc();
                        return Err(KafkaError::RetriesExhausted {
                            attempts: attempt,
                            last: Box::new(e),
                        });
                    }
                    let backoff = self.policy.backoff_ms(attempt);
                    if self.policy.budget_ms > 0 && spent_ms + backoff > self.policy.budget_ms {
                        self.metrics.giveups.inc();
                        return Err(KafkaError::RetriesExhausted {
                            attempts: attempt,
                            last: Box::new(e),
                        });
                    }
                    spent_ms += backoff;
                    self.metrics.retries.inc();
                    self.metrics.backoff_ms.add(backoff);
                    self.metrics.backoff_hist_ms.record(backoff);
                    // Logical backoff: yield so a spinning retry loop still
                    // lets other threads run, without paying wall time.
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl Default for Retrier {
    fn default() -> Self {
        Retrier::new(RetryPolicy::default_client())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn transient() -> KafkaError {
        KafkaError::PartitionUnavailable {
            topic: "t".into(),
            partition: 0,
        }
    }

    #[test]
    fn succeeds_after_transient_errors() {
        let r = Retrier::new(RetryPolicy::default_client());
        let left = Cell::new(3u32);
        let out: Result<u32> = r.run(|| {
            if left.get() > 0 {
                left.set(left.get() - 1);
                Err(transient())
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(r.metrics().retries.get(), 3);
        assert_eq!(r.metrics().giveups.get(), 0);
    }

    #[test]
    fn non_retriable_returns_immediately() {
        let r = Retrier::new(RetryPolicy::default_client());
        let calls = Cell::new(0u32);
        let out: Result<()> = r.run(|| {
            calls.set(calls.get() + 1);
            Err(KafkaError::UnknownTopic("t".into()))
        });
        assert!(matches!(out, Err(KafkaError::UnknownTopic(_))));
        assert_eq!(calls.get(), 1);
        assert_eq!(r.metrics().retries.get(), 0);
    }

    #[test]
    fn attempts_are_bounded() {
        let r = Retrier::new(RetryPolicy::default_client().attempts(4));
        let calls = Cell::new(0u32);
        let out: Result<()> = r.run(|| {
            calls.set(calls.get() + 1);
            Err(transient())
        });
        match out {
            Err(KafkaError::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 4);
                assert!(last.is_retriable());
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(calls.get(), 4, "exactly max_attempts calls, no spin");
        assert_eq!(r.metrics().giveups.get(), 1);
    }

    #[test]
    fn budget_bounds_total_backoff() {
        let policy = RetryPolicy {
            max_attempts: 1_000_000,
            base_backoff_ms: 10,
            max_backoff_ms: 10,
            jitter: 0.0,
            budget_ms: 45,
            seed: 1,
        };
        let r = Retrier::new(policy);
        let calls = Cell::new(0u32);
        let out: Result<()> = r.run(|| {
            calls.set(calls.get() + 1);
            Err(transient())
        });
        assert!(matches!(out, Err(KafkaError::RetriesExhausted { .. })));
        // 4 backoffs of 10ms fit a 45ms budget; the 5th would exceed it.
        assert_eq!(calls.get(), 5);
        assert_eq!(r.metrics().backoff_ms.get(), 40);
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let p = RetryPolicy::default_client().seed(42);
        let a: Vec<u64> = (1..8).map(|i| p.backoff_ms(i)).collect();
        let b: Vec<u64> = (1..8).map(|i| p.backoff_ms(i)).collect();
        assert_eq!(a, b);
        let other = RetryPolicy::default_client().seed(43);
        let c: Vec<u64> = (1..8).map(|i| other.backoff_ms(i)).collect();
        assert_ne!(a, c, "different seeds jitter differently");
        // Exponential shape survives jitter: later caps at max_backoff_ms.
        assert!(a.iter().all(|&d| d <= 64));
    }

    #[test]
    fn backoff_does_not_wall_sleep() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff_ms: 10_000,
            max_backoff_ms: 10_000,
            jitter: 0.0,
            budget_ms: 60_000,
            seed: 1,
        };
        let r = Retrier::new(policy);
        let start = std::time::Instant::now();
        let out: Result<()> = r.run(|| Err(transient()));
        assert!(matches!(out, Err(KafkaError::RetriesExhausted { .. })));
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        // Six 10 s backoffs fit the 60 s budget; the seventh would not.
        assert_eq!(r.metrics().backoff_ms.get(), 60_000);
        assert_eq!(r.metrics().retries.get(), 6);
    }
}
