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
//! * Each partition's log is one in-memory `Vec` whose index is the offset,
//!   never trimmed from the front, so changelog and checkpoint topics replay
//!   from offset 0.
//! * Publishers pick the partition: keyed messages go to
//!   [`partitioner::hash_bytes`]`(key) % partitions`. Readers fetch by
//!   offset from the partitions Samza's job model assigns them; the broker
//!   keeps no consumer positions.
//! * A lightweight **replication** simulation (leader/ISR/acks, leader
//!   failover) and seeded **fault injection** (transient errors and
//!   unavailability windows), which the chaos tests drive.
//!
//! Everything lives in one process; "brokers" are shared-memory structures
//! guarded by per-partition locks so many container threads can append and
//! fetch concurrently, which is what the benchmark harness does.
//!
//! ## Quick example
//!
//! ```
//! use samzasql_kafka::{partitioner::hash_bytes, Broker, Message, TopicConfig};
//!
//! let broker = Broker::new();
//! broker.create_topic("orders", TopicConfig::with_partitions(4)).unwrap();
//!
//! let partition = hash_bytes(b"k1") % 4;
//! let offset = broker.produce("orders", partition, Message::keyed("k1", "hello")).unwrap();
//!
//! let fetched = broker.fetch("orders", partition, offset, 16).unwrap();
//! assert_eq!(fetched.records.len(), 1);
//! assert_eq!(fetched.records[0].message.value.as_ref(), b"hello");
//! ```

pub mod broker;
mod buf;
pub mod error;
pub mod fault;
pub mod log;
pub mod message;
pub mod partitioner;
pub mod replication;
pub mod retry;
pub mod topic;

pub use broker::Broker;
pub use buf::Bytes;
pub use error::{FaultOp, KafkaError, Result};
pub use fault::{FaultInjector, FaultKind, FaultSchedule, FaultSpec};
pub use log::{FetchResult, PartitionLog, Record};
pub use message::{Message, TopicPartition};
pub use replication::{AckMode, IsrDelta, ReplicationConfig};
pub use retry::{splitmix64, Retrier, RetryMetrics, RetryPolicy};
pub use topic::{Topic, TopicConfig};
