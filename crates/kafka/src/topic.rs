//! Topics: named collections of partitions.

use crate::log::PartitionLog;
use crate::replication::ReplicationConfig;
use std::sync::RwLock;

/// Creation-time configuration of a topic.
#[derive(Debug, Clone)]
pub struct TopicConfig {
    /// Number of partitions. Fixed at creation, like Kafka prior to
    /// partition expansion (the paper's benchmarks use a constant 32).
    pub partitions: u32,
    /// Replication simulation settings.
    pub replication: ReplicationConfig,
}

impl TopicConfig {
    /// A topic with `partitions` partitions and default replication settings.
    pub fn with_partitions(partitions: u32) -> Self {
        TopicConfig {
            partitions,
            replication: ReplicationConfig::default(),
        }
    }

    /// Builder-style override of replication configuration.
    pub fn replication(mut self, replication: ReplicationConfig) -> Self {
        self.replication = replication;
        self
    }
}

impl Default for TopicConfig {
    fn default() -> Self {
        TopicConfig::with_partitions(1)
    }
}

/// A topic: one lock-guarded [`PartitionLog`] per partition so concurrent
/// producers/consumers on different partitions never contend.
pub struct Topic {
    pub name: String,
    pub config: TopicConfig,
    partitions: Vec<RwLock<PartitionLog>>,
}

impl Topic {
    pub fn new(name: impl Into<String>, config: TopicConfig) -> Self {
        let name = name.into();
        let partitions = (0..config.partitions)
            .map(|p| RwLock::new(PartitionLog::new(name.clone(), p)))
            .collect();
        Topic {
            name,
            config,
            partitions,
        }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// Access one partition's log, if the index is valid.
    pub fn partition(&self, p: u32) -> Option<&RwLock<PartitionLog>> {
        self.partitions.get(p as usize)
    }
}

impl std::fmt::Debug for Topic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topic")
            .field("name", &self.name)
            .field("partitions", &self.partitions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    #[test]
    fn topic_creates_requested_partitions() {
        let t = Topic::new("orders", TopicConfig::with_partitions(32));
        assert_eq!(t.partition_count(), 32);
        assert!(t.partition(31).is_some());
        assert!(t.partition(32).is_none());
    }

    #[test]
    fn partitions_are_independent() {
        let t = Topic::new("orders", TopicConfig::with_partitions(2));
        t.partition(0)
            .unwrap()
            .write()
            .unwrap()
            .append(Message::new("a"));
        assert_eq!(t.partition(0).unwrap().read().unwrap().end_offset(), 1);
        assert_eq!(t.partition(1).unwrap().read().unwrap().end_offset(), 0);
    }
}
