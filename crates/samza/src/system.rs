//! Message envelopes and the collector handed to tasks.
//!
//! Envelopes carry raw bytes; (de)serialization is the task's concern via
//! configured serdes. This matches the benchmark-relevant reality that the
//! paper profiles: a native filter job can forward the incoming Avro payload
//! *unchanged*, while SamzaSQL's generated operators must decode and
//! re-encode (Figure 4).

use samzasql_kafka::{Bytes, TopicPartition};
use std::sync::Arc;

/// A message delivered to a task, like Samza's `IncomingMessageEnvelope`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncomingMessageEnvelope {
    /// Source partition, shared by every envelope of one fetched slice.
    pub tp: Arc<TopicPartition>,
    pub offset: u64,
    /// Broker-level event timestamp.
    pub timestamp: i64,
    pub key: Option<Bytes>,
    pub payload: Bytes,
}

/// A message a task wants to send, like Samza's `OutgoingMessageEnvelope`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutgoingMessageEnvelope {
    /// Destination topic; a task that sends many messages to one topic
    /// holds it as an `Arc<str>` and shares it with every envelope.
    pub topic: Arc<str>,
    /// Explicit partition; `None` lets the producer's partitioner decide
    /// (hash of key when present).
    pub partition: Option<u32>,
    pub key: Option<Bytes>,
    pub payload: Bytes,
    pub timestamp: i64,
}

impl OutgoingMessageEnvelope {
    pub fn new(topic: impl Into<Arc<str>>, payload: impl Into<Bytes>) -> Self {
        OutgoingMessageEnvelope {
            topic: topic.into(),
            partition: None,
            key: None,
            payload: payload.into(),
            timestamp: 0,
        }
    }

    pub fn keyed(mut self, key: impl Into<Bytes>) -> Self {
        self.key = Some(key.into());
        self
    }

    pub fn to_partition(mut self, partition: u32) -> Self {
        self.partition = Some(partition);
        self
    }

    pub fn at(mut self, timestamp: i64) -> Self {
        self.timestamp = timestamp;
        self
    }
}

/// Buffers a task's outgoing messages; the container flushes it to the
/// producer after each process call.
#[derive(Debug, Default)]
pub struct MessageCollector {
    buffered: Vec<OutgoingMessageEnvelope>,
}

impl MessageCollector {
    pub fn new() -> Self {
        MessageCollector::default()
    }

    /// Queue a message for sending.
    pub fn send(&mut self, envelope: OutgoingMessageEnvelope) {
        self.buffered.push(envelope);
    }

    /// Drain everything queued so far.
    pub fn drain(&mut self) -> Vec<OutgoingMessageEnvelope> {
        std::mem::take(&mut self.buffered)
    }

    /// Drain everything queued so far into a caller-owned buffer, reusing
    /// its capacity (the container's flush path).
    pub fn drain_into(&mut self, buf: &mut Vec<OutgoingMessageEnvelope>) {
        buf.append(&mut self.buffered);
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.buffered.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buffered.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_buffers_and_drains() {
        let mut c = MessageCollector::new();
        assert!(c.is_empty());
        c.send(OutgoingMessageEnvelope::new("out", "a"));
        c.send(
            OutgoingMessageEnvelope::new("out", "b")
                .keyed("k")
                .to_partition(3)
                .at(9),
        );
        assert_eq!(c.len(), 2);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert!(c.is_empty());
        assert_eq!(drained[1].partition, Some(3));
        assert_eq!(drained[1].timestamp, 9);
        assert_eq!(drained[1].key.as_deref(), Some(b"k".as_ref()));
    }
}
