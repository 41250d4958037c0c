//! Producer client.

use crate::broker::Broker;
use crate::error::Result;
use crate::message::Message;
use crate::partitioner::Partitioner;
use crate::replication::AckMode;
use crate::retry::Retrier;

/// Metadata returned for each produced record, like Kafka's `RecordMetadata`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMetadata {
    pub partition: u32,
    pub offset: u64,
}

/// A producer bound to one broker with a partitioning strategy, ack mode,
/// and retry policy. Transient broker errors (injected faults, leader
/// elections, ISR shortfalls) are retried with backoff before surfacing;
/// injected errors fire before the log append, so a retried send never
/// duplicates a record.
#[derive(Debug)]
pub struct Producer {
    broker: Broker,
    partitioner: Partitioner,
    acks: AckMode,
    retrier: Retrier,
}

impl Producer {
    /// Producer using key-hash partitioning (the Kafka default).
    pub fn key_hash(broker: Broker) -> Self {
        Producer {
            broker,
            partitioner: Partitioner::key_hash(),
            acks: AckMode::Leader,
            retrier: Retrier::default(),
        }
    }

    /// Producer using round-robin partitioning.
    pub fn round_robin(broker: Broker) -> Self {
        Producer {
            broker,
            partitioner: Partitioner::round_robin(),
            acks: AckMode::Leader,
            retrier: Retrier::default(),
        }
    }

    /// Producer with an explicit partitioner.
    pub fn with_partitioner(broker: Broker, partitioner: Partitioner) -> Self {
        Producer {
            broker,
            partitioner,
            acks: AckMode::Leader,
            retrier: Retrier::default(),
        }
    }

    /// Override the acknowledgement mode (builder style).
    pub fn acks(mut self, acks: AckMode) -> Self {
        self.acks = acks;
        self
    }

    /// Override the retrier (builder style). Use
    /// [`Retrier::disabled`] to surface the first error verbatim.
    pub fn retry(mut self, retrier: Retrier) -> Self {
        self.retrier = retrier;
        self
    }

    /// This producer's retrier (its metrics count retries/giveups).
    pub fn retrier(&self) -> &Retrier {
        &self.retrier
    }

    /// Send a message; the partitioner picks the partition.
    pub fn send(&self, topic: &str, message: Message) -> Result<RecordMetadata> {
        let partitions = self.broker.partition_count(topic)?;
        let partition = self.partitioner.partition(&message, partitions);
        self.send_to(topic, partition, message)
    }

    /// Send directly to an explicit partition, bypassing the partitioner.
    pub fn send_to(&self, topic: &str, partition: u32, message: Message) -> Result<RecordMetadata> {
        // Message payloads are refcounted, so the per-attempt clone is cheap.
        let offset = self.retrier.run(|| {
            self.broker
                .produce_with_acks(topic, partition, message.clone(), self.acks)
        })?;
        Ok(RecordMetadata { partition, offset })
    }

    /// Send a batch to one topic: the partitioner assigns each message a
    /// partition, then every partition's run is appended under a single
    /// log-lock acquisition ([`Broker::produce_batch`]). Returns per-record
    /// metadata in input order.
    pub fn send_batch(&self, topic: &str, messages: Vec<Message>) -> Result<Vec<RecordMetadata>> {
        let partitions = self.broker.partition_count(topic)?;
        let total = messages.len();
        let mut groups: std::collections::BTreeMap<u32, (Vec<usize>, Vec<Message>)> =
            std::collections::BTreeMap::new();
        for (i, message) in messages.into_iter().enumerate() {
            let p = self.partitioner.partition(&message, partitions);
            let group = groups.entry(p).or_default();
            group.0.push(i);
            group.1.push(message);
        }
        let mut metadata = vec![
            RecordMetadata {
                partition: 0,
                offset: 0
            };
            total
        ];
        for (partition, (indices, msgs)) in groups {
            let offsets = self.retrier.run(|| {
                self.broker
                    .produce_batch(topic, partition, msgs.clone(), self.acks)
            })?;
            for (i, offset) in indices.into_iter().zip(offsets) {
                metadata[i] = RecordMetadata { partition, offset };
            }
        }
        Ok(metadata)
    }

    /// Send a batch directly to an explicit partition under one log-lock
    /// acquisition, bypassing the partitioner.
    pub fn send_batch_to(
        &self,
        topic: &str,
        partition: u32,
        messages: Vec<Message>,
    ) -> Result<Vec<RecordMetadata>> {
        let offsets = self.retrier.run(|| {
            self.broker
                .produce_batch(topic, partition, messages.clone(), self.acks)
        })?;
        Ok(offsets
            .into_iter()
            .map(|offset| RecordMetadata { partition, offset })
            .collect())
    }

    /// The broker this producer writes to.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicConfig;

    #[test]
    fn keyed_sends_stick_to_one_partition() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(8))
            .unwrap();
        let p = Producer::key_hash(b.clone());
        let first = p.send("t", Message::keyed("k", "1")).unwrap().partition;
        for i in 0..20 {
            let md = p.send("t", Message::keyed("k", format!("{i}"))).unwrap();
            assert_eq!(md.partition, first);
        }
        assert_eq!(b.end_offset("t", first).unwrap(), 21);
    }

    #[test]
    fn send_to_overrides_partitioner() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(4))
            .unwrap();
        let p = Producer::round_robin(b.clone());
        let md = p.send_to("t", 3, Message::new("x")).unwrap();
        assert_eq!(
            md,
            RecordMetadata {
                partition: 3,
                offset: 0
            }
        );
    }

    #[test]
    fn send_batch_returns_metadata_in_input_order() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(4))
            .unwrap();
        let p = Producer::key_hash(b.clone());
        let messages: Vec<Message> = (0..40)
            .map(|i| Message::keyed(format!("k{}", i % 5), format!("{i}")))
            .collect();
        let singles: Vec<RecordMetadata> = messages
            .iter()
            .map(|m| {
                let partitions = b.partition_count("t").unwrap();
                RecordMetadata {
                    partition: Partitioner::key_hash().partition(m, partitions),
                    offset: 0,
                }
            })
            .collect();
        let metadata = p.send_batch("t", messages).unwrap();
        assert_eq!(metadata.len(), 40);
        // Partition assignment matches the per-message partitioner, and
        // offsets increase within each partition in input order.
        let mut next: std::collections::HashMap<u32, u64> = Default::default();
        for (md, single) in metadata.iter().zip(&singles) {
            assert_eq!(md.partition, single.partition);
            let expect = next.entry(md.partition).or_insert(0);
            assert_eq!(md.offset, *expect);
            *expect += 1;
        }
    }

    #[test]
    fn send_batch_to_targets_one_partition() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(4))
            .unwrap();
        let p = Producer::round_robin(b.clone());
        let metadata = p
            .send_batch_to("t", 2, vec![Message::new("x"), Message::new("y")])
            .unwrap();
        assert_eq!(
            metadata,
            vec![
                RecordMetadata {
                    partition: 2,
                    offset: 0
                },
                RecordMetadata {
                    partition: 2,
                    offset: 1
                }
            ]
        );
        assert_eq!(b.end_offset("t", 2).unwrap(), 2);
    }

    #[test]
    fn send_rides_out_injected_transient_faults() {
        use crate::error::{FaultOp, KafkaError};
        use crate::fault::{FaultInjector, FaultKind, FaultSchedule, FaultSpec};

        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        // Every produce fails twice out of three (indices 0,1 fail; 2 ok...).
        b.set_fault_injector(Some(FaultInjector::with_specs(
            9,
            vec![FaultSpec::any(
                FaultKind::TransientError,
                FaultSchedule::Window { from: 0, count: 2 },
            )
            .on_op(FaultOp::Produce)],
        )));
        let p = Producer::key_hash(b.clone());
        let md = p.send("t", Message::new("x")).unwrap();
        assert_eq!(md.offset, 0, "no duplicate appends across retries");
        assert_eq!(b.end_offset("t", 0).unwrap(), 1);
        assert_eq!(p.retrier().metrics().retries.get(), 2);
        let snap = b.metrics_registry().snapshot();
        assert_eq!(snap.counter("kafka.broker.faults_injected", &[]), Some(2));

        // With retries disabled the injected error surfaces verbatim.
        b.set_fault_injector(Some(FaultInjector::with_specs(
            9,
            vec![FaultSpec::any(
                FaultKind::TransientError,
                FaultSchedule::Always,
            )],
        )));
        let p = Producer::key_hash(b).retry(Retrier::disabled());
        assert!(matches!(
            p.send("t", Message::new("y")),
            Err(KafkaError::InjectedFault { .. })
        ));
    }

    #[test]
    fn offsets_increase_per_partition() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(2))
            .unwrap();
        let p = Producer::with_partitioner(b, Partitioner::Fixed(1));
        let offs: Vec<u64> = (0..3)
            .map(|_| p.send("t", Message::new("x")).unwrap().offset)
            .collect();
        assert_eq!(offs, vec![0, 1, 2]);
    }
}
