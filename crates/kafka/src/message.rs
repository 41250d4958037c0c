//! Messages and topic-partition addressing.

use crate::Bytes;
use std::fmt;

/// A message as handed to the broker by a producer.
///
/// Mirrors a Kafka record: an optional key (used for partitioning and
/// compaction-style semantics), an opaque value, and an event timestamp in
/// milliseconds. SamzaSQL requires the event timestamp to be present in the
/// *tuple* as well (§3.1); the envelope-level timestamp here corresponds to
/// Kafka's record timestamp, which the container hands to tasks with each
/// incoming message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Optional partitioning key.
    pub key: Option<Bytes>,
    /// Opaque payload.
    pub value: Bytes,
    /// Event-time timestamp in milliseconds since the epoch (or since the
    /// start of a simulated timeline). The broker stores it and never reads
    /// it.
    pub timestamp: i64,
}

impl Message {
    /// Create an un-keyed message with timestamp 0.
    pub fn new(value: impl Into<Bytes>) -> Self {
        Message {
            key: None,
            value: value.into(),
            timestamp: 0,
        }
    }

    /// Create a keyed message with timestamp 0.
    pub fn keyed(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        Message {
            key: Some(key.into()),
            value: value.into(),
            timestamp: 0,
        }
    }

    /// Attach an event timestamp (builder style).
    pub fn at(mut self, timestamp: i64) -> Self {
        self.timestamp = timestamp;
        self
    }

    /// Total payload size in bytes (key + value), counted by the broker's
    /// `bytes_in`/`bytes_out` metrics.
    pub fn payload_len(&self) -> usize {
        self.key.as_ref().map_or(0, |k| k.len()) + self.value.len()
    }
}

/// Identifies one partition of one topic, like Kafka's `TopicPartition`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicPartition {
    pub topic: String,
    pub partition: u32,
}

impl TopicPartition {
    pub fn new(topic: impl Into<String>, partition: u32) -> Self {
        TopicPartition {
            topic: topic.into(),
            partition,
        }
    }
}

impl fmt::Display for TopicPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.topic, self.partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_builders() {
        let m = Message::keyed("k", "v").at(42);
        assert_eq!(m.key.as_deref(), Some(b"k".as_ref()));
        assert_eq!(m.value.as_ref(), b"v");
        assert_eq!(m.timestamp, 42);
        assert_eq!(m.payload_len(), 2);
    }

    #[test]
    fn unkeyed_message_len() {
        let m = Message::new("hello");
        assert_eq!(m.payload_len(), 5);
        assert!(m.key.is_none());
    }

    #[test]
    fn topic_partition_display_and_ord() {
        let a = TopicPartition::new("orders", 0);
        let b = TopicPartition::new("orders", 1);
        assert!(a < b);
        assert_eq!(a.to_string(), "orders-0");
    }
}
