//! # samzasql-kafka
//!
//! An in-memory, partitioned, replayable commit-log broker modelled on Apache
//! Kafka, built as the messaging substrate for the SamzaSQL reproduction.
//!
//! The broker implements the subset of Kafka semantics that Samza (and hence
//! SamzaSQL) relies on:
//!
//! * **Topics** split into a fixed number of **partitions**; each partition is
//!   an append-only, time-ordered, immutable sequence of records addressed by
//!   a dense, monotonically increasing **offset** (§3.1 of the paper).
//! * Ordering is guaranteed **within** a partition, never across partitions.
//! * Logs are **segmented** and support size/time based retention, so topics
//!   can retain "several hours to several days" of history for replay.
//! * **Producers** with pluggable partitioners (key-hash, round-robin,
//!   explicit).
//! * **Consumers** that poll by offset from explicitly assigned partitions;
//!   Samza's job model, not the broker, decides which task reads which
//!   partition.
//! * A lightweight **replication** simulation (leader/ISR/acks) and an
//!   **I/O throttle** that models EC2-style burst-credit exhaustion — the
//!   paper's §5.1 notes that key-value-heavy experiments got throttled on EC2.
//!
//! Everything lives in one process; "brokers" are shared-memory structures
//! guarded by per-partition locks so many producer/consumer threads can run
//! concurrently, which is what the benchmark harness does.
//!
//! ## Quick example
//!
//! ```
//! use samzasql_kafka::{Broker, TopicConfig, Message, Producer, Consumer};
//!
//! let broker = Broker::new();
//! broker.create_topic("orders", TopicConfig::with_partitions(4)).unwrap();
//!
//! let producer = Producer::key_hash(broker.clone());
//! producer.send("orders", Message::keyed("k1", "hello")).unwrap();
//!
//! let mut consumer = Consumer::new(broker.clone());
//! consumer.assign("orders", 0..4);
//! consumer.seek_to_beginning();
//! let records = consumer.poll(16);
//! assert_eq!(records.len(), 1);
//! ```

pub mod broker;
mod buf;
pub mod consumer;
pub mod error;
pub mod fault;
pub mod log;
pub mod message;
pub mod partitioner;
pub mod producer;
pub mod replication;
pub mod retry;
pub mod throttle;
pub mod topic;

pub use broker::Broker;
pub use buf::Bytes;
pub use consumer::{Consumer, ConsumerRecord};
pub use error::{FaultOp, KafkaError, Result};
pub use fault::{FaultInjector, FaultKind, FaultSchedule, FaultSpec};
pub use log::{FetchResult, PartitionLog, Record, SegmentConfig};
pub use message::{Message, TopicPartition};
pub use partitioner::Partitioner;
pub use producer::{Producer, RecordMetadata};
pub use replication::{AckMode, IsrDelta, ReplicationConfig};
pub use retry::{splitmix64, Clock, Retrier, RetryMetrics, RetryPolicy, SystemClock, VirtualClock};
pub use throttle::IoThrottle;
pub use topic::{Topic, TopicConfig};
