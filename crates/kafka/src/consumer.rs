//! Poll-based consumer client.

use crate::broker::Broker;
use crate::error::{KafkaError, Result};
use crate::log::Record;
use crate::message::{Message, TopicPartition};
use crate::retry::Retrier;
use std::collections::BTreeMap;
use std::ops::Range;

/// A record delivered to a consumer, tagged with its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsumerRecord {
    pub topic: String,
    pub partition: u32,
    pub offset: u64,
    pub timestamp: i64,
    pub message: Message,
}

/// A manual-assignment consumer: the caller assigns topic-partitions and the
/// consumer round-robins fetches across them, tracking a position per
/// partition. Samza uses manual assignment because its job coordinator owns
/// partition placement.
pub struct Consumer {
    broker: Broker,
    /// Position (next offset to fetch) per assigned partition, ordered for
    /// deterministic polling.
    positions: BTreeMap<TopicPartition, u64>,
    /// Rotation cursor so successive polls don't starve later partitions.
    rotation: usize,
    /// Retry policy applied to each partition fetch inside `poll`.
    retrier: Retrier,
}

impl Consumer {
    pub fn new(broker: Broker) -> Self {
        Consumer {
            broker,
            positions: BTreeMap::new(),
            rotation: 0,
            retrier: Retrier::default(),
        }
    }

    /// Override the retrier (builder style).
    pub fn retry(mut self, retrier: Retrier) -> Self {
        self.retrier = retrier;
        self
    }

    /// This consumer's retrier (its metrics count retries/giveups).
    pub fn retrier(&self) -> &Retrier {
        &self.retrier
    }

    /// Assign a range of partitions of `topic`, starting at each partition's
    /// current log start offset.
    pub fn assign(&mut self, topic: &str, partitions: Range<u32>) {
        for p in partitions {
            let start = self.broker.start_offset(topic, p).unwrap_or(0);
            self.positions.insert(TopicPartition::new(topic, p), start);
        }
    }

    /// Assign one partition at an explicit starting offset.
    pub fn assign_at(&mut self, tp: TopicPartition, offset: u64) {
        self.positions.insert(tp, offset);
    }

    /// Currently assigned partitions, in order.
    pub fn assignment(&self) -> Vec<TopicPartition> {
        self.positions.keys().cloned().collect()
    }

    /// Current position (next offset) of a partition.
    pub fn position(&self, tp: &TopicPartition) -> Option<u64> {
        self.positions.get(tp).copied()
    }

    /// Move a partition's position.
    pub fn seek(&mut self, tp: &TopicPartition, offset: u64) -> Result<()> {
        match self.positions.get_mut(tp) {
            Some(pos) => {
                *pos = offset;
                Ok(())
            }
            None => Err(KafkaError::UnknownPartition {
                topic: tp.topic.clone(),
                partition: tp.partition,
            }),
        }
    }

    /// Rewind every assigned partition to its log start offset.
    pub fn seek_to_beginning(&mut self) {
        for (tp, pos) in self.positions.iter_mut() {
            *pos = self
                .broker
                .start_offset(&tp.topic, tp.partition)
                .unwrap_or(0);
        }
    }

    /// Fast-forward every assigned partition to its log end offset.
    pub fn seek_to_end(&mut self) {
        for (tp, pos) in self.positions.iter_mut() {
            *pos = self
                .broker
                .end_offset(&tp.topic, tp.partition)
                .unwrap_or(*pos);
        }
    }

    /// Seek every assigned partition to the earliest record with
    /// `timestamp >= ts` (Kafka `offsetsForTimes` + seek).
    pub fn seek_to_timestamp(&mut self, ts: i64) {
        for (tp, pos) in self.positions.iter_mut() {
            if let Some(topic) = self.broker.topic(&tp.topic) {
                if let Some(log) = topic.partition(tp.partition) {
                    *pos = log.read().unwrap().offset_for_timestamp(ts);
                }
            }
        }
    }

    /// Poll up to `max_records` across assigned partitions. Partitions are
    /// visited in rotating order; each successful fetch advances that
    /// partition's position past the records returned.
    pub fn poll(&mut self, max_records: usize) -> Vec<ConsumerRecord> {
        let tps: Vec<TopicPartition> = self.positions.keys().cloned().collect();
        if tps.is_empty() || max_records == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let n = tps.len();
        for i in 0..n {
            if out.len() >= max_records {
                break;
            }
            let tp = &tps[(self.rotation + i) % n];
            let pos = *self
                .positions
                .get(tp)
                .expect("assigned partition has a position");
            let budget = max_records - out.len();
            let attempt = self
                .retrier
                .run(|| self.broker.fetch(&tp.topic, tp.partition, pos, budget));
            let fetched = match attempt {
                Ok(f) => f,
                Err(KafkaError::OffsetOutOfRange { start, .. }) => {
                    // Retention ran past us: jump to the earliest retained
                    // record, like Kafka's `auto.offset.reset=earliest`.
                    self.positions.insert(tp.clone(), start);
                    continue;
                }
                Err(_) => continue,
            };
            if let Some(last) = fetched.records.last() {
                self.positions.insert(tp.clone(), last.offset + 1);
            }
            out.extend(fetched.records.into_iter().map(|r: Record| ConsumerRecord {
                topic: tp.topic.clone(),
                partition: tp.partition,
                offset: r.offset,
                timestamp: r.timestamp,
                message: r.message,
            }));
        }
        self.rotation = (self.rotation + 1) % n;
        out
    }

    /// Lag (records between position and log end) summed over the assignment.
    pub fn total_lag(&self) -> u64 {
        self.positions
            .iter()
            .map(|(tp, pos)| {
                self.broker
                    .end_offset(&tp.topic, tp.partition)
                    .unwrap_or(*pos)
                    .saturating_sub(*pos)
            })
            .sum()
    }

    /// The broker this consumer reads from.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }
}

impl std::fmt::Debug for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("assignment", &self.assignment())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::SegmentConfig;
    use crate::topic::TopicConfig;

    fn broker_with(topic: &str, partitions: u32) -> Broker {
        let b = Broker::new();
        b.create_topic(topic, TopicConfig::with_partitions(partitions))
            .unwrap();
        b
    }

    #[test]
    fn poll_drains_in_partition_order_within_partition() {
        let b = broker_with("t", 1);
        for i in 0..5u8 {
            b.produce("t", 0, Message::new(vec![i])).unwrap();
        }
        let mut c = Consumer::new(b);
        c.assign("t", 0..1);
        let recs = c.poll(10);
        let offsets: Vec<u64> = recs.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3, 4]);
        assert!(c.poll(10).is_empty(), "second poll at head is empty");
    }

    #[test]
    fn poll_rotates_across_partitions() {
        let b = broker_with("t", 2);
        for i in 0..4u8 {
            b.produce("t", (i % 2) as u32, Message::new(vec![i]))
                .unwrap();
        }
        let mut c = Consumer::new(b);
        c.assign("t", 0..2);
        // Budget of 2 per poll: first poll favours partition 0, next favours 1.
        let first = c.poll(2);
        let second = c.poll(2);
        assert_eq!(first.len() + second.len(), 4);
        let mut partitions: Vec<u32> = first.iter().chain(&second).map(|r| r.partition).collect();
        partitions.sort_unstable();
        assert_eq!(partitions, vec![0, 0, 1, 1]);
    }

    #[test]
    fn seek_and_position() {
        let b = broker_with("t", 1);
        for i in 0..5u8 {
            b.produce("t", 0, Message::new(vec![i])).unwrap();
        }
        let mut c = Consumer::new(b);
        c.assign("t", 0..1);
        let tp = TopicPartition::new("t", 0);
        c.seek(&tp, 3).unwrap();
        let recs = c.poll(10);
        assert_eq!(recs[0].offset, 3);
        assert_eq!(c.position(&tp), Some(5));
        c.seek_to_beginning();
        assert_eq!(c.position(&tp), Some(0));
        c.seek_to_end();
        assert_eq!(c.position(&tp), Some(5));
    }

    #[test]
    fn seek_unassigned_partition_errors() {
        let b = broker_with("t", 1);
        let mut c = Consumer::new(b);
        assert!(c.seek(&TopicPartition::new("t", 0), 0).is_err());
    }

    #[test]
    fn seek_to_timestamp_positions_at_first_newer_record() {
        let b = broker_with("t", 1);
        for ts in [100, 200, 300] {
            b.produce("t", 0, Message::new("x").at(ts)).unwrap();
        }
        let mut c = Consumer::new(b);
        c.assign("t", 0..1);
        c.seek_to_timestamp(150);
        assert_eq!(c.poll(1)[0].timestamp, 200);
    }

    #[test]
    fn retention_reset_jumps_to_earliest() {
        let b = Broker::new();
        b.create_topic(
            "t",
            TopicConfig::with_partitions(1).segment(SegmentConfig {
                segment_max_records: 2,
                retention_bytes: 4,
                retention_ms: 0,
            }),
        )
        .unwrap();
        let mut c = Consumer::new(b.clone());
        c.assign("t", 0..1); // position 0
        for i in 0..10u8 {
            b.produce("t", 0, Message::new(vec![i])).unwrap();
        }
        // Retention dropped offset 0; first poll resets, second poll reads.
        let recs1 = c.poll(100);
        let recs2 = c.poll(100);
        let got = recs1.len() + recs2.len();
        assert!(got > 0, "consumer recovers after falling behind retention");
        let all: Vec<u64> = recs1.iter().chain(&recs2).map(|r| r.offset).collect();
        assert!(
            all.windows(2).all(|w| w[1] == w[0] + 1),
            "still in order: {all:?}"
        );
    }

    #[test]
    fn poll_retries_through_injected_fetch_faults() {
        use crate::error::FaultOp;
        use crate::fault::{FaultInjector, FaultKind, FaultSchedule, FaultSpec};

        let b = broker_with("t", 1);
        for i in 0..3u8 {
            b.produce("t", 0, Message::new(vec![i])).unwrap();
        }
        b.set_fault_injector(Some(FaultInjector::with_specs(
            4,
            vec![FaultSpec::any(
                FaultKind::TransientError,
                FaultSchedule::Window { from: 0, count: 3 },
            )
            .on_op(FaultOp::Fetch)],
        )));
        let mut c = Consumer::new(b);
        c.assign("t", 0..1);
        let recs = c.poll(10);
        assert_eq!(recs.len(), 3, "first three fetch attempts retried away");
        assert!(c.retrier().metrics().retries.get() >= 3);
    }

    #[test]
    fn lag_counts_unread_records() {
        let b = broker_with("t", 2);
        for _ in 0..3 {
            b.produce("t", 0, Message::new("x")).unwrap();
        }
        b.produce("t", 1, Message::new("x")).unwrap();
        let mut c = Consumer::new(b);
        c.assign("t", 0..2);
        assert_eq!(c.total_lag(), 4);
        c.poll(2);
        assert_eq!(c.total_lag(), 2);
    }
}
