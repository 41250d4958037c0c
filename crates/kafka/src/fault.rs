//! Seeded broker fault injection.
//!
//! A [`FaultInjector`] installed on a [`Broker`](crate::Broker) intercepts
//! every produce and fetch *before* the log is touched and, per policy,
//! turns it into a transient error or an unavailability window. Fail-fast
//! interception means injected produce failures never partially append —
//! the retry loops above never duplicate records because of the injector
//! itself.
//!
//! **Determinism.** Decisions are a pure function of
//! `(seed, topic, partition, op, per-partition op index)` — no shared RNG
//! state whose consumption order could vary across thread interleavings. Two
//! runs that issue the same operation sequence against a partition get the
//! identical fault schedule, which is what makes chaos failures replayable
//! from a seed.

use crate::error::{FaultOp, KafkaError, Result};
use crate::message::TopicPartition;
use crate::retry::splitmix64;
use samzasql_obs::Counter;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// When a fault spec fires, relative to the per-(topic, partition, op)
/// operation index (0-based).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSchedule {
    /// Fire with probability `p` per operation (hash-derived, seeded).
    Probability(f64),
    /// Fire on every `n`th operation (indices n-1, 2n-1, ...).
    EveryNth(u64),
    /// Fire for every operation with index in `[from, from + count)`.
    Window { from: u64, count: u64 },
    /// Fire on every operation.
    Always,
}

impl FaultSchedule {
    fn fires(&self, seed: u64, key_hash: u64, index: u64) -> bool {
        match self {
            FaultSchedule::Probability(p) => {
                if *p <= 0.0 {
                    return false;
                }
                if *p >= 1.0 {
                    return true;
                }
                let h = splitmix64(seed ^ key_hash ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d));
                (h as f64 / u64::MAX as f64) < *p
            }
            FaultSchedule::EveryNth(n) => *n > 0 && (index + 1).is_multiple_of(*n),
            FaultSchedule::Window { from, count } => index >= *from && index < from + count,
            FaultSchedule::Always => true,
        }
    }
}

/// What happens when a spec fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Return [`KafkaError::InjectedFault`] (retriable).
    TransientError,
    /// Return [`KafkaError::PartitionUnavailable`] (retriable) — models a
    /// partition whose replicas are all offline for the schedule's duration.
    Unavailable,
}

/// One injection rule: which operations it applies to and what it does.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Restrict to one topic (`None` = all topics).
    pub topic: Option<String>,
    /// Restrict to one partition (`None` = all partitions).
    pub partition: Option<u32>,
    /// Restrict to one operation (`None` = produce and fetch).
    pub op: Option<FaultOp>,
    pub kind: FaultKind,
    pub schedule: FaultSchedule,
}

impl FaultSpec {
    /// A spec applying to every topic, partition, and operation.
    pub fn any(kind: FaultKind, schedule: FaultSchedule) -> Self {
        FaultSpec {
            topic: None,
            partition: None,
            op: None,
            kind,
            schedule,
        }
    }

    /// Builder-style topic restriction.
    pub fn on_topic(mut self, topic: impl Into<String>) -> Self {
        self.topic = Some(topic.into());
        self
    }

    /// Builder-style partition restriction.
    pub fn on_partition(mut self, partition: u32) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Builder-style operation restriction.
    pub fn on_op(mut self, op: FaultOp) -> Self {
        self.op = Some(op);
        self
    }

    fn matches(&self, op: FaultOp, topic: &str, partition: u32) -> bool {
        self.op.is_none_or(|o| o == op)
            && self.topic.as_deref().is_none_or(|t| t == topic)
            && self.partition.is_none_or(|p| p == partition)
    }
}

/// Counters describing injector activity.
#[derive(Debug, Default)]
pub struct FaultMetrics {
    pub injected_errors: Counter,
    pub unavailable_hits: Counter,
}

fn fnv1a_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The injector itself. Install on a broker with
/// [`Broker::set_fault_injector`](crate::Broker::set_fault_injector); its
/// specs are fixed when it is built, so a chaos event that changes the
/// faults installs a new injector.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    specs: Vec<FaultSpec>,
    /// Per-(topic-partition, op) operation indices, advanced on every
    /// intercepted call whether or not a fault fires.
    counters: Mutex<HashMap<(TopicPartition, FaultOp), u64>>,
    pub metrics: FaultMetrics,
}

impl FaultInjector {
    /// An injector with no specs: it only counts operations.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            specs: Vec::new(),
            counters: Mutex::new(HashMap::new()),
            metrics: FaultMetrics::default(),
        }
    }

    /// Shared handle with the given seed and specs.
    pub fn with_specs(seed: u64, specs: Vec<FaultSpec>) -> Arc<Self> {
        Arc::new(FaultInjector {
            specs,
            ..FaultInjector::new(seed)
        })
    }

    /// Operations intercepted so far for `(topic, partition, op)`: the index
    /// the next such operation gets. A fresh injector starts every index at
    /// 0, so a [`FaultSchedule::Window`] from 0 covers the next operations.
    pub fn op_count(&self, topic: &str, partition: u32, op: FaultOp) -> u64 {
        self.counters
            .lock()
            .unwrap()
            .get(&(TopicPartition::new(topic, partition), op))
            .copied()
            .unwrap_or(0)
    }

    /// Intercept one operation: advance the per-partition index, evaluate
    /// specs in order, and return the first firing error. Called by the
    /// broker before touching the log.
    pub fn intercept(&self, op: FaultOp, topic: &str, partition: u32) -> Result<()> {
        let index = {
            let mut counters = self.counters.lock().unwrap();
            let c = counters
                .entry((TopicPartition::new(topic, partition), op))
                .or_insert(0);
            let i = *c;
            *c += 1;
            i
        };
        let key_hash = fnv1a_str(topic)
            ^ (partition as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ match op {
                FaultOp::Produce => 0x50,
                FaultOp::Fetch => 0xf0,
            };
        for spec in &self.specs {
            if !spec.matches(op, topic, partition) {
                continue;
            }
            if !spec.schedule.fires(self.seed, key_hash, index) {
                continue;
            }
            match &spec.kind {
                FaultKind::TransientError => {
                    self.metrics.injected_errors.inc();
                    return Err(KafkaError::InjectedFault {
                        op,
                        topic: topic.to_string(),
                        partition,
                    });
                }
                FaultKind::Unavailable => {
                    self.metrics.unavailable_hits.inc();
                    return Err(KafkaError::PartitionUnavailable {
                        topic: topic.to_string(),
                        partition,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_nth_fires_on_schedule() {
        let inj = FaultInjector::with_specs(
            1,
            vec![FaultSpec::any(
                FaultKind::TransientError,
                FaultSchedule::EveryNth(3),
            )],
        );
        let outcomes: Vec<bool> = (0..9)
            .map(|_| inj.intercept(FaultOp::Produce, "t", 0).is_err())
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(inj.metrics.injected_errors.get(), 3);
    }

    #[test]
    fn window_bounds_unavailability() {
        let inj = FaultInjector::with_specs(
            1,
            vec![FaultSpec::any(
                FaultKind::Unavailable,
                FaultSchedule::Window { from: 2, count: 3 },
            )],
        );
        let outcomes: Vec<bool> = (0..8)
            .map(|_| inj.intercept(FaultOp::Fetch, "t", 0).is_err())
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, true, true, false, false, false]
        );
        assert_eq!(inj.metrics.unavailable_hits.get(), 3);
    }

    #[test]
    fn probability_decisions_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::with_specs(
                seed,
                vec![FaultSpec::any(
                    FaultKind::TransientError,
                    FaultSchedule::Probability(0.5),
                )],
            );
            (0..64)
                .map(|_| inj.intercept(FaultOp::Produce, "orders", 3).is_err())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
        let fired = run(7).iter().filter(|b| **b).count();
        assert!((10..=54).contains(&fired), "roughly half fire: {fired}");
    }

    #[test]
    fn specs_scope_by_topic_partition_and_op() {
        let inj = FaultInjector::with_specs(
            1,
            vec![
                FaultSpec::any(FaultKind::TransientError, FaultSchedule::Always)
                    .on_topic("orders")
                    .on_partition(1)
                    .on_op(FaultOp::Produce),
            ],
        );
        assert!(inj.intercept(FaultOp::Produce, "orders", 1).is_err());
        assert!(inj.intercept(FaultOp::Produce, "orders", 0).is_ok());
        assert!(inj.intercept(FaultOp::Produce, "other", 1).is_ok());
        assert!(inj.intercept(FaultOp::Fetch, "orders", 1).is_ok());
    }

    #[test]
    fn op_counts_advance_per_partition() {
        let inj = FaultInjector::new(1);
        inj.intercept(FaultOp::Produce, "t", 0).unwrap();
        inj.intercept(FaultOp::Produce, "t", 0).unwrap();
        inj.intercept(FaultOp::Fetch, "t", 0).unwrap();
        assert_eq!(inj.op_count("t", 0, FaultOp::Produce), 2);
        assert_eq!(inj.op_count("t", 0, FaultOp::Fetch), 1);
        assert_eq!(inj.op_count("t", 1, FaultOp::Produce), 0);
    }
}
