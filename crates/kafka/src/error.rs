//! Error types for the broker substrate.

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, KafkaError>;

/// The broker operation an injected fault intercepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultOp {
    Produce,
    Fetch,
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOp::Produce => write!(f, "produce"),
            FaultOp::Fetch => write!(f, "fetch"),
        }
    }
}

/// Errors surfaced by broker operations and the retry loops around them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KafkaError {
    /// The referenced topic does not exist on the broker.
    UnknownTopic(String),
    /// The referenced partition index is out of range for the topic.
    UnknownPartition { topic: String, partition: u32 },
    /// A topic with this name already exists.
    TopicExists(String),
    /// The requested offset is below the log start (it was retained away) or
    /// past the log end.
    OffsetOutOfRange {
        topic: String,
        partition: u32,
        requested: u64,
        start: u64,
        end: u64,
    },
    /// Produce was rejected because not enough in-sync replicas acknowledged.
    NotEnoughReplicas { topic: String, partition: u32 },
    /// The partition's leader failed and a successor election is still in
    /// progress; the `epoch` is the one the next leader will serve under.
    LeaderNotAvailable {
        topic: String,
        partition: u32,
        epoch: u64,
    },
    /// The partition is administratively unavailable (injected outage).
    PartitionUnavailable { topic: String, partition: u32 },
    /// A transient broker failure injected by the fault injector.
    InjectedFault {
        op: FaultOp,
        topic: String,
        partition: u32,
    },
    /// A retried operation exhausted its attempt/budget limits; `last` is the
    /// final retriable error observed.
    RetriesExhausted {
        attempts: u32,
        last: Box<KafkaError>,
    },
    /// Invalid configuration value.
    InvalidConfig(String),
}

impl KafkaError {
    /// Whether a client may retry the failed operation and reasonably expect
    /// it to succeed later. Retriable errors describe *transient* broker
    /// conditions (replication lag, elections in flight, injected outages);
    /// everything else is a permanent protocol or configuration error that a
    /// retry loop must surface immediately.
    pub fn is_retriable(&self) -> bool {
        match self {
            KafkaError::NotEnoughReplicas { .. }
            | KafkaError::LeaderNotAvailable { .. }
            | KafkaError::PartitionUnavailable { .. }
            | KafkaError::InjectedFault { .. } => true,
            KafkaError::UnknownTopic(_)
            | KafkaError::UnknownPartition { .. }
            | KafkaError::TopicExists(_)
            | KafkaError::OffsetOutOfRange { .. }
            | KafkaError::RetriesExhausted { .. }
            | KafkaError::InvalidConfig(_) => false,
        }
    }

    /// The topic-partition this error refers to, when it carries one — so
    /// retry loops and chaos assertions can report which partition stalled.
    pub fn topic_partition(&self) -> Option<(&str, u32)> {
        match self {
            KafkaError::UnknownPartition { topic, partition }
            | KafkaError::OffsetOutOfRange {
                topic, partition, ..
            }
            | KafkaError::NotEnoughReplicas { topic, partition }
            | KafkaError::LeaderNotAvailable {
                topic, partition, ..
            }
            | KafkaError::PartitionUnavailable { topic, partition }
            | KafkaError::InjectedFault {
                topic, partition, ..
            } => Some((topic.as_str(), *partition)),
            KafkaError::RetriesExhausted { last, .. } => last.topic_partition(),
            _ => None,
        }
    }
}

impl fmt::Display for KafkaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KafkaError::UnknownTopic(t) => write!(f, "unknown topic: {t}"),
            KafkaError::UnknownPartition { topic, partition } => {
                write!(f, "unknown partition {partition} of topic {topic}")
            }
            KafkaError::TopicExists(t) => write!(f, "topic already exists: {t}"),
            KafkaError::OffsetOutOfRange { topic, partition, requested, start, end } => write!(
                f,
                "offset {requested} out of range for {topic}-{partition} (log spans [{start}, {end}))"
            ),
            KafkaError::NotEnoughReplicas { topic, partition } => {
                write!(f, "not enough in-sync replicas for {topic}-{partition}")
            }
            KafkaError::LeaderNotAvailable { topic, partition, epoch } => write!(
                f,
                "leader of {topic}-{partition} not available (election toward epoch {epoch})"
            ),
            KafkaError::PartitionUnavailable { topic, partition } => {
                write!(f, "partition {topic}-{partition} unavailable")
            }
            KafkaError::InjectedFault { op, topic, partition } => {
                write!(f, "injected transient {op} fault on {topic}-{partition}")
            }
            KafkaError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            KafkaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for KafkaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retriable_classification_covers_transients() {
        assert!(KafkaError::NotEnoughReplicas {
            topic: "t".into(),
            partition: 0
        }
        .is_retriable());
        assert!(KafkaError::LeaderNotAvailable {
            topic: "t".into(),
            partition: 0,
            epoch: 1
        }
        .is_retriable());
        assert!(KafkaError::PartitionUnavailable {
            topic: "t".into(),
            partition: 0
        }
        .is_retriable());
        assert!(KafkaError::InjectedFault {
            op: FaultOp::Produce,
            topic: "t".into(),
            partition: 0
        }
        .is_retriable());
        assert!(!KafkaError::UnknownTopic("t".into()).is_retriable());
        assert!(!KafkaError::RetriesExhausted {
            attempts: 3,
            last: Box::new(KafkaError::PartitionUnavailable {
                topic: "t".into(),
                partition: 0
            })
        }
        .is_retriable());
    }

    #[test]
    fn errors_carry_partition_context() {
        let e = KafkaError::NotEnoughReplicas {
            topic: "orders".into(),
            partition: 3,
        };
        assert_eq!(e.topic_partition(), Some(("orders", 3)));
        let wrapped = KafkaError::RetriesExhausted {
            attempts: 5,
            last: Box::new(e),
        };
        assert_eq!(wrapped.topic_partition(), Some(("orders", 3)));
        assert_eq!(
            KafkaError::InvalidConfig("x".into()).topic_partition(),
            None
        );
    }
}
