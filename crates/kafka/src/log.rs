//! Append-only partition log.
//!
//! A [`PartitionLog`] is the unit of ordering in the broker: an immutable
//! sequence of [`Record`]s held in one `Vec`, where a record's offset is its
//! index. That is all SamzaSQL needs from Kafka's log (§3.1): dense offsets,
//! fetch by offset, and replay of changelog and checkpoint topics from the
//! start. Nothing trims the front, so the log start offset is always 0; only
//! leader failover removes records, from the tail.

use crate::error::{KafkaError, Result};
use crate::message::Message;
use std::ops::Range;

/// One record as stored in (and fetched from) the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Dense, per-partition sequence number: the record's index in the log.
    pub offset: u64,
    /// The message payload, with its producer-assigned event timestamp.
    pub message: Message,
}

/// Result of a fetch call: the records plus the high watermark at fetch time.
#[derive(Debug, Clone)]
pub struct FetchResult {
    pub records: Vec<Record>,
    /// Offset one past the last record in the log ("log end offset").
    pub high_watermark: u64,
}

/// An append-only, in-memory commit log for a single partition.
#[derive(Debug)]
pub struct PartitionLog {
    topic: String,
    partition: u32,
    records: Vec<Record>,
}

impl PartitionLog {
    pub fn new(topic: impl Into<String>, partition: u32) -> Self {
        PartitionLog {
            topic: topic.into(),
            partition,
            records: Vec::new(),
        }
    }

    /// Offset that will be assigned to the next appended record.
    pub fn end_offset(&self) -> u64 {
        self.records.len() as u64
    }

    /// First offset in the log ("log start offset"). Always 0: the log is
    /// never trimmed from the front.
    pub fn start_offset(&self) -> u64 {
        0
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append a message. Returns the assigned offset.
    pub fn append(&mut self, message: Message) -> u64 {
        self.extend(std::iter::once(message)).0.start
    }

    /// Append every message `messages` yields, in order, growing the log
    /// once by the iterator's length. Returns the assigned offsets and the
    /// payload bytes appended.
    pub fn extend(&mut self, messages: impl IntoIterator<Item = Message>) -> (Range<u64>, u64) {
        let first = self.end_offset();
        let mut bytes = 0u64;
        self.records
            .extend(messages.into_iter().zip(first..).map(|(message, offset)| {
                bytes += message.payload_len() as u64;
                Record { offset, message }
            }));
        (first..self.end_offset(), bytes)
    }

    /// Fetch up to `max_records` starting at `from_offset`.
    ///
    /// Fetching exactly at the log end returns an empty batch (a consumer
    /// polling at the head). Fetching beyond the end is an error, matching
    /// Kafka's `OFFSET_OUT_OF_RANGE`.
    pub fn fetch(&self, from_offset: u64, max_records: usize) -> Result<FetchResult> {
        let end = self.end_offset();
        if from_offset > end {
            return Err(KafkaError::OffsetOutOfRange {
                topic: self.topic.clone(),
                partition: self.partition,
                requested: from_offset,
                start: self.start_offset(),
                end,
            });
        }
        let from = from_offset as usize;
        let to = from.saturating_add(max_records).min(self.records.len());
        Ok(FetchResult {
            records: self.records[from..to].to_vec(),
            high_watermark: end,
        })
    }

    /// Truncate the log so `offset` becomes the new end offset, dropping
    /// every record at or past it. Used by leader failover: records beyond
    /// the committed offset were never replicated and die with the old
    /// leader. No-op when `offset >= end`.
    pub fn truncate_to(&mut self, offset: u64) {
        self.records
            .truncate(usize::try_from(offset).unwrap_or(usize::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(n: u8) -> PartitionLog {
        let mut log = PartitionLog::new("t", 0);
        for i in 0..n {
            log.append(Message::new(vec![i]));
        }
        log
    }

    fn offsets(out: &FetchResult) -> Vec<u64> {
        out.records.iter().map(|r| r.offset).collect()
    }

    #[test]
    fn offsets_are_dense_and_monotonic() {
        let mut log = PartitionLog::new("t", 0);
        for i in 0..10u8 {
            let off = log.append(Message::new(vec![i]));
            assert_eq!(off, i as u64);
        }
        assert_eq!(log.end_offset(), 10);
        assert_eq!(log.len(), 10);
    }

    #[test]
    fn fetch_starts_at_any_offset() {
        let log = log_of(18);
        for from in 0..18u64 {
            let out = log.fetch(from, 3).unwrap();
            let want: Vec<u64> = (from..(from + 3).min(18)).collect();
            assert_eq!(offsets(&out), want, "fetch from {from}");
            assert_eq!(out.records[0].message.value[..], [from as u8]);
            assert_eq!(out.high_watermark, 18);
        }
        assert_eq!(log.fetch(2, usize::MAX).unwrap().records.len(), 16);
    }

    #[test]
    fn fetch_at_head_is_empty() {
        let log = log_of(1);
        let out = log.fetch(1, 10).unwrap();
        assert!(out.records.is_empty());
    }

    #[test]
    fn fetch_out_of_range_errors() {
        let log = log_of(0);
        assert!(matches!(
            log.fetch(5, 1),
            Err(KafkaError::OffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn truncate_to_drops_tail() {
        let mut log = log_of(10);
        log.truncate_to(4);
        assert_eq!(log.end_offset(), 4);
        assert_eq!(log.len(), 4);
        assert_eq!(offsets(&log.fetch(0, 100).unwrap()), vec![0, 1, 2, 3]);
        // Appends continue densely from the truncation point.
        assert_eq!(log.append(Message::new("z")), 4);
        // Truncating at or past the end is a no-op.
        log.truncate_to(99);
        assert_eq!(log.end_offset(), 5);
    }

    #[test]
    fn truncate_to_start_empties_log() {
        let mut log = log_of(5);
        log.truncate_to(0);
        assert!(log.is_empty());
        assert_eq!(log.end_offset(), 0);
        assert_eq!(log.append(Message::new("a")), 0);
    }
}
