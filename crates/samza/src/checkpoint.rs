//! Checkpointing input positions to a checkpoint stream.
//!
//! §2: on failure "Samza … ensures streams will be replayed from the last
//! known checkpointed partition offset." Checkpoints are written to a
//! per-job checkpoint topic keyed by task name; recovery reads the topic and
//! keeps the newest checkpoint per task (Kafka's log-compaction read
//! semantics, done client-side).

use crate::error::Result;
use samzasql_kafka::{Broker, Bytes, Message, Retrier, TopicConfig, TopicPartition};
use std::collections::BTreeMap;

/// Header marking the length-prefixed v2 wire format.
const V2_HEADER: &[u8] = b"#v2\n";

/// Input positions of one task at one commit: topic-partition → next offset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Checkpoint {
    pub offsets: BTreeMap<TopicPartition, u64>,
}

impl Checkpoint {
    /// Serialize to the v2 text form: a `#v2\n` header followed by one
    /// `<topic_byte_len>:<topic>,<partition>,<offset>\n` record per entry.
    /// The length prefix makes the encoding unambiguous for *any* topic name
    /// — plain `topic,partition,offset` lines would lose the whole
    /// checkpoint when a topic contained a comma. (The paper's Samza stores
    /// checkpoints as JSON; a framed text format keeps this substrate
    /// dependency-free.)
    fn encode(&self) -> Bytes {
        let mut s = String::from_utf8(V2_HEADER.to_vec()).expect("ascii header");
        for (tp, off) in &self.offsets {
            s.push_str(&format!(
                "{}:{},{},{}\n",
                tp.topic.len(),
                tp.topic,
                tp.partition,
                off
            ));
        }
        Bytes::from(s)
    }

    /// Sequential scan of `<len>:<topic>,<partition>,<offset>\n` records
    /// after the header. The topic is sliced by byte length, so commas and
    /// newlines inside it cannot confuse the field separators that follow.
    /// Bytes without the header are not a checkpoint.
    fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        let mut offsets = BTreeMap::new();
        let mut rest = bytes.strip_prefix(V2_HEADER)?;
        while !rest.is_empty() {
            let colon = rest.iter().position(|&b| b == b':')?;
            let len: usize = std::str::from_utf8(&rest[..colon]).ok()?.parse().ok()?;
            rest = &rest[colon + 1..];
            if rest.len() < len {
                return None;
            }
            let topic = std::str::from_utf8(&rest[..len]).ok()?;
            rest = rest[len..].strip_prefix(b",")?;
            let comma = rest.iter().position(|&b| b == b',')?;
            let partition: u32 = std::str::from_utf8(&rest[..comma]).ok()?.parse().ok()?;
            rest = &rest[comma + 1..];
            let nl = rest.iter().position(|&b| b == b'\n')?;
            let offset: u64 = std::str::from_utf8(&rest[..nl]).ok()?.parse().ok()?;
            rest = &rest[nl + 1..];
            offsets.insert(TopicPartition::new(topic, partition), offset);
        }
        Some(Checkpoint { offsets })
    }
}

/// Writes and reads checkpoints for one job. Broker calls route through a
/// retrier: a checkpoint write riding out a transient broker fault is the
/// difference between a clean commit and a spurious container crash.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    broker: Broker,
    topic: String,
    retrier: Retrier,
}

impl CheckpointManager {
    /// Create the manager, ensuring the single-partition checkpoint topic
    /// exists (Samza's `__samza_checkpoint_<job>` analogue).
    pub fn new(broker: Broker, job_name: &str) -> Result<Self> {
        let topic = format!("__checkpoint_{job_name}");
        broker.ensure_topic(&topic, TopicConfig::with_partitions(1))?;
        Ok(CheckpointManager {
            broker,
            topic,
            retrier: Retrier::default(),
        })
    }

    /// Override the retrier (builder style); containers share one metrics
    /// sink across their checkpoint, changelog, and output retriers.
    pub fn with_retrier(mut self, retrier: Retrier) -> Self {
        self.retrier = retrier;
        self
    }

    /// Append a checkpoint for `task_name`.
    pub fn write(&self, task_name: &str, checkpoint: &Checkpoint) -> Result<()> {
        let message = Message::keyed(task_name.to_string(), checkpoint.encode());
        self.retrier
            .run(|| self.broker.produce(&self.topic, 0, message.clone()))?;
        Ok(())
    }

    /// Read the newest checkpoint for `task_name`, scanning the topic.
    pub fn read_last(&self, task_name: &str) -> Result<Option<Checkpoint>> {
        let mut offset = self.broker.start_offset(&self.topic, 0)?;
        let mut latest = None;
        loop {
            let batch = self
                .retrier
                .run(|| self.broker.fetch(&self.topic, 0, offset, 1024))?;
            if batch.records.is_empty() {
                break;
            }
            for rec in &batch.records {
                offset = rec.offset + 1;
                if rec.message.key.as_deref() == Some(task_name.as_bytes()) {
                    latest = Checkpoint::decode(&rec.message.value);
                }
            }
        }
        Ok(latest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samzasql_testkit::{cases, Rng};

    fn cp(pairs: &[(&str, u32, u64)]) -> Checkpoint {
        Checkpoint {
            offsets: pairs
                .iter()
                .map(|(t, p, o)| (TopicPartition::new(*t, *p), *o))
                .collect(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = cp(&[("orders", 0, 42), ("products", 3, 7)]);
        assert_eq!(Checkpoint::decode(&c.encode()), Some(c));
    }

    #[test]
    fn topics_with_commas_and_newlines_survive() {
        // Comma-separated lines would lose this checkpoint; v2 must not.
        let c = cp(&[
            ("orders,eu", 0, 42),
            ("a\nb", 1, 7),
            ("3:tricky", 2, 9),
            ("", 4, 11),
        ]);
        assert_eq!(Checkpoint::decode(&c.encode()), Some(c));
    }

    #[test]
    fn headerless_bytes_are_not_a_checkpoint() {
        let headerless = b"orders,0,42\nproducts,3,7\n";
        assert_eq!(Checkpoint::decode(headerless), None);
    }

    #[test]
    fn garbage_decodes_to_none_not_panic() {
        for bad in [
            &b"#v2\n9999:t,0,1\n"[..],
            &b"#v2\nx:t,0,1\n"[..],
            &b"#v2\n1:t0,1\n"[..],
            &b"#v2\n1:t,zero,1\n"[..],
            &b"\xff\xfe"[..],
        ] {
            assert_eq!(Checkpoint::decode(bad), None, "input {bad:?}");
        }
    }

    /// A topic name of up to 24 characters. Half of them are printable
    /// ASCII, so commas, colons and digits land inside topic names where a
    /// comma-separated format would fall apart; the other half are any character but a
    /// newline.
    fn topic_name(rng: &mut Rng) -> String {
        (0..rng.gen_range(0..=24))
            .map(|_| loop {
                let c = if rng.gen_bool(0.5) {
                    char::from(rng.gen_range(b' '..=b'~'))
                } else {
                    match char::from_u32(rng.gen_range(0..=0x10_FFFF)) {
                        Some(c) => c,
                        None => continue,
                    }
                };
                if c != '\n' {
                    break c;
                }
            })
            .collect()
    }

    /// Round-trip over arbitrary topic names.
    #[test]
    fn roundtrips_arbitrary_topic_names() {
        cases(256, 1, |rng| {
            let c = Checkpoint {
                offsets: (0..rng.gen_range(0..8))
                    .map(|_| {
                        let tp = TopicPartition::new(topic_name(rng), rng.gen_range(0u32..64));
                        (tp, rng.next_u64())
                    })
                    .collect(),
            };
            assert_eq!(Checkpoint::decode(&c.encode()), Some(c));
        });
    }

    #[test]
    fn last_write_wins() {
        let broker = Broker::new();
        let mgr = CheckpointManager::new(broker, "job").unwrap();
        mgr.write("Partition 0", &cp(&[("t", 0, 1)])).unwrap();
        mgr.write("Partition 0", &cp(&[("t", 0, 9)])).unwrap();
        mgr.write("Partition 1", &cp(&[("t", 1, 5)])).unwrap();
        assert_eq!(
            mgr.read_last("Partition 0").unwrap(),
            Some(cp(&[("t", 0, 9)]))
        );
        assert_eq!(
            mgr.read_last("Partition 1").unwrap(),
            Some(cp(&[("t", 1, 5)]))
        );
        assert_eq!(mgr.read_last("Partition 2").unwrap(), None);
    }

    #[test]
    fn managers_for_different_jobs_are_isolated() {
        let broker = Broker::new();
        let m1 = CheckpointManager::new(broker.clone(), "j1").unwrap();
        let m2 = CheckpointManager::new(broker, "j2").unwrap();
        m1.write("t", &cp(&[("x", 0, 1)])).unwrap();
        assert_eq!(m2.read_last("t").unwrap(), None);
    }
}
