//! Segmented, append-only partition log.
//!
//! A [`PartitionLog`] is the unit of ordering in the broker: a time-ordered,
//! immutable sequence of [`Record`]s, each addressed by a dense offset. The
//! log is split into segments so retention can drop whole segments from
//! the front without shifting the remaining records — exactly the shape of an
//! on-disk Kafka log, just held in memory.

use crate::error::{KafkaError, Result};
use crate::message::Message;
use std::collections::VecDeque;

/// One record as stored in (and fetched from) the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Dense, per-partition sequence number.
    pub offset: u64,
    /// Event timestamp carried by the producer.
    pub timestamp: i64,
    /// Broker-assigned append time (logical milliseconds; see
    /// [`PartitionLog::append_at`]).
    pub append_time: i64,
    /// The message payload.
    pub message: Message,
}

/// Configuration for segment rolling and retention.
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Roll to a new segment after this many records.
    pub segment_max_records: usize,
    /// Retain at most this many bytes across the whole log (0 = unlimited).
    /// Oldest whole segments are dropped first; the active segment is never
    /// dropped.
    pub retention_bytes: u64,
    /// Retain records no older than this many milliseconds of *append* time
    /// relative to the latest append (0 = unlimited).
    pub retention_ms: i64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            segment_max_records: 4096,
            retention_bytes: 0,
            retention_ms: 0,
        }
    }
}

/// A contiguous run of records sharing storage.
#[derive(Debug)]
struct Segment {
    base_offset: u64,
    records: Vec<Record>,
    bytes: u64,
    /// Append time of the newest record in the segment.
    max_append_time: i64,
}

impl Segment {
    fn new(base_offset: u64) -> Self {
        Segment {
            base_offset,
            records: Vec::new(),
            bytes: 0,
            max_append_time: i64::MIN,
        }
    }

    fn next_offset(&self) -> u64 {
        self.base_offset + self.records.len() as u64
    }
}

/// Result of a fetch call: the records plus the high watermark at fetch time.
#[derive(Debug, Clone)]
pub struct FetchResult {
    pub records: Vec<Record>,
    /// Offset one past the last record in the log ("log end offset").
    pub high_watermark: u64,
}

/// An append-only, segmented, in-memory commit log for a single partition.
#[derive(Debug)]
pub struct PartitionLog {
    topic: String,
    partition: u32,
    config: SegmentConfig,
    segments: VecDeque<Segment>,
    /// First retained offset ("log start offset").
    start_offset: u64,
    total_bytes: u64,
    /// Logical clock used when the caller does not supply an append time.
    logical_now: i64,
}

impl PartitionLog {
    pub fn new(topic: impl Into<String>, partition: u32, config: SegmentConfig) -> Self {
        let mut segments = VecDeque::new();
        segments.push_back(Segment::new(0));
        PartitionLog {
            topic: topic.into(),
            partition,
            config,
            segments,
            start_offset: 0,
            total_bytes: 0,
            logical_now: 0,
        }
    }

    /// Offset that will be assigned to the next appended record.
    pub fn end_offset(&self) -> u64 {
        self.segments
            .back()
            .map(|s| s.next_offset())
            .unwrap_or(self.start_offset)
    }

    /// First retained offset.
    pub fn start_offset(&self) -> u64 {
        self.start_offset
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        (self.end_offset() - self.start_offset) as usize
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total retained payload bytes.
    pub fn retained_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Append a message using the internal logical clock for append time.
    pub fn append(&mut self, message: Message) -> u64 {
        self.logical_now += 1;
        let now = self.logical_now;
        self.append_at(message, now)
    }

    /// Append a message with an explicit append time. Returns the assigned
    /// offset. Retention is enforced after every append.
    pub fn append_at(&mut self, message: Message, append_time: i64) -> u64 {
        self.logical_now = self.logical_now.max(append_time);
        let bytes = message.payload_len() as u64;
        if self
            .segments
            .back()
            .map(|s| s.records.len() >= self.config.segment_max_records)
            .unwrap_or(true)
        {
            let next = self.end_offset();
            self.segments.push_back(Segment::new(next));
        }
        let seg = self.segments.back_mut().expect("active segment");
        let offset = seg.next_offset();
        seg.max_append_time = seg.max_append_time.max(append_time);
        seg.bytes += bytes;
        seg.records.push(Record {
            offset,
            timestamp: message.timestamp,
            append_time,
            message,
        });
        self.total_bytes += bytes;
        self.enforce_retention();
        offset
    }

    /// Fetch up to `max_records` starting at `from_offset`.
    ///
    /// Fetching exactly at the log end returns an empty batch (a consumer
    /// polling at the head). Fetching below the start offset or beyond the end
    /// is an error, matching Kafka's `OFFSET_OUT_OF_RANGE`.
    pub fn fetch(&self, from_offset: u64, max_records: usize) -> Result<FetchResult> {
        let end = self.end_offset();
        if from_offset > end || from_offset < self.start_offset {
            return Err(KafkaError::OffsetOutOfRange {
                topic: self.topic.clone(),
                partition: self.partition,
                requested: from_offset,
                start: self.start_offset,
                end,
            });
        }
        let mut records = Vec::new();
        if from_offset < end && max_records > 0 {
            // Binary search the segment containing from_offset: the first
            // one that ends past it (segment ends only grow along the log).
            let idx = self
                .segments
                .partition_point(|s| s.next_offset() <= from_offset);
            'outer: for seg in self.segments.iter().skip(idx) {
                let skip = from_offset.saturating_sub(seg.base_offset) as usize;
                for rec in seg.records.iter().skip(skip) {
                    if rec.offset < from_offset {
                        continue;
                    }
                    records.push(rec.clone());
                    if records.len() >= max_records {
                        break 'outer;
                    }
                }
            }
        }
        Ok(FetchResult {
            records,
            high_watermark: end,
        })
    }

    fn enforce_retention(&mut self) {
        // Size-based: drop oldest whole segments while over budget, keeping
        // the active (last) segment.
        if self.config.retention_bytes > 0 {
            while self.segments.len() > 1 && self.total_bytes > self.config.retention_bytes {
                let seg = self.segments.pop_front().expect("len > 1");
                self.total_bytes -= seg.bytes;
                self.start_offset = self.segments.front().expect("nonempty").base_offset;
            }
        }
        // Time-based: drop whole segments whose newest record is older than
        // the retention window relative to the logical now.
        if self.config.retention_ms > 0 {
            let cutoff = self.logical_now - self.config.retention_ms;
            while self.segments.len() > 1
                && self.segments.front().expect("nonempty").max_append_time < cutoff
            {
                let seg = self.segments.pop_front().expect("len > 1");
                self.total_bytes -= seg.bytes;
                self.start_offset = self.segments.front().expect("nonempty").base_offset;
            }
        }
    }

    /// Truncate the log so `offset` becomes the new end offset, dropping
    /// every record at or past it. Used by leader failover: records beyond
    /// the committed offset were never replicated and die with the old
    /// leader. No-op when `offset >= end`; truncating below the start
    /// offset clamps to the start (everything retained is dropped).
    pub fn truncate_to(&mut self, offset: u64) {
        let offset = offset.max(self.start_offset);
        if offset >= self.end_offset() {
            return;
        }
        while let Some(seg) = self.segments.back_mut() {
            if seg.base_offset >= offset {
                // Whole segment is past the truncation point.
                self.total_bytes -= seg.bytes;
                self.segments.pop_back();
                continue;
            }
            let keep = (offset - seg.base_offset) as usize;
            for rec in seg.records.drain(keep..) {
                seg.bytes -= rec.message.payload_len() as u64;
                self.total_bytes -= rec.message.payload_len() as u64;
            }
            seg.max_append_time = seg
                .records
                .iter()
                .map(|r| r.append_time)
                .max()
                .unwrap_or(i64::MIN);
            break;
        }
        if self.segments.is_empty() {
            self.segments.push_back(Segment::new(offset));
        }
    }

    /// Truncate everything (used by tests and compaction simulations).
    pub fn clear(&mut self) {
        let end = self.end_offset();
        self.segments.clear();
        self.segments.push_back(Segment::new(end));
        self.start_offset = end;
        self.total_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(seg_records: usize, retention_bytes: u64) -> PartitionLog {
        PartitionLog::new(
            "t",
            0,
            SegmentConfig {
                segment_max_records: seg_records,
                retention_bytes,
                retention_ms: 0,
            },
        )
    }

    #[test]
    fn offsets_are_dense_and_monotonic() {
        let mut log = log_with(4, 0);
        for i in 0..10u8 {
            let off = log.append(Message::new(vec![i]));
            assert_eq!(off, i as u64);
        }
        assert_eq!(log.end_offset(), 10);
        assert_eq!(log.len(), 10);
    }

    #[test]
    fn fetch_spans_segments() {
        let mut log = log_with(3, 0);
        for i in 0..10u8 {
            log.append(Message::new(vec![i]));
        }
        let out = log.fetch(2, 5).unwrap();
        assert_eq!(out.records.len(), 5);
        let offsets: Vec<u64> = out.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![2, 3, 4, 5, 6]);
        assert_eq!(out.high_watermark, 10);
    }

    #[test]
    fn fetch_finds_the_segment_of_any_offset() {
        // Five segments of four records: [0,4) [4,8) [8,12) [12,16) [16,18).
        let mut log = log_with(4, 0);
        for i in 0..18u8 {
            log.append(Message::new(vec![i]));
        }
        // First, middle and last segment; their first and last offsets and
        // the offsets either side of each boundary.
        for from in [0, 1, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 17] {
            let out = log.fetch(from, 3).unwrap();
            let offsets: Vec<u64> = out.records.iter().map(|r| r.offset).collect();
            let want: Vec<u64> = (from..(from + 3).min(18)).collect();
            assert_eq!(offsets, want, "fetch from {from}");
            assert_eq!(out.records[0].message.value[..], [from as u8]);
        }
        assert!(log.fetch(18, 3).unwrap().records.is_empty());
    }

    #[test]
    fn fetch_at_head_is_empty() {
        let mut log = log_with(4, 0);
        log.append(Message::new("a"));
        let out = log.fetch(1, 10).unwrap();
        assert!(out.records.is_empty());
    }

    #[test]
    fn fetch_out_of_range_errors() {
        let log = log_with(4, 0);
        assert!(matches!(
            log.fetch(5, 1),
            Err(KafkaError::OffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn size_retention_drops_oldest_segments() {
        // 1-byte messages, 2 records/segment, keep at most 4 bytes.
        let mut log = log_with(2, 4);
        for i in 0..10u8 {
            log.append(Message::new(vec![i]));
        }
        assert!(log.start_offset() > 0, "old segments must be dropped");
        assert!(log.retained_bytes() <= 4 + 2, "roughly within budget");
        // Reads below the start offset now fail.
        assert!(log.fetch(0, 1).is_err());
        // Reads at the start offset succeed.
        let out = log.fetch(log.start_offset(), 100).unwrap();
        assert_eq!(out.records.last().unwrap().offset, 9);
    }

    #[test]
    fn time_retention_drops_old_segments() {
        let mut log = PartitionLog::new(
            "t",
            0,
            SegmentConfig {
                segment_max_records: 2,
                retention_bytes: 0,
                retention_ms: 10,
            },
        );
        for t in 0..8 {
            log.append_at(Message::new("x"), t * 5);
        }
        // Newest append time is 35; cutoff 25 drops segments fully older.
        assert!(log.start_offset() > 0);
    }

    #[test]
    fn truncate_to_drops_tail_across_segments() {
        let mut log = log_with(3, 0);
        for i in 0..10u8 {
            log.append(Message::new(vec![i]));
        }
        log.truncate_to(4);
        assert_eq!(log.end_offset(), 4);
        assert_eq!(log.len(), 4);
        assert_eq!(log.retained_bytes(), 4);
        let out = log.fetch(0, 100).unwrap();
        let offsets: Vec<u64> = out.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3]);
        // Appends continue densely from the truncation point.
        assert_eq!(log.append(Message::new("z")), 4);
        // Truncating at or past the end is a no-op.
        log.truncate_to(99);
        assert_eq!(log.end_offset(), 5);
    }

    #[test]
    fn truncate_to_start_empties_log() {
        let mut log = log_with(2, 0);
        for i in 0..5u8 {
            log.append(Message::new(vec![i]));
        }
        log.truncate_to(0);
        assert!(log.is_empty());
        assert_eq!(log.end_offset(), 0);
        assert_eq!(log.append(Message::new("a")), 0);
    }

    #[test]
    fn clear_advances_start() {
        let mut log = log_with(4, 0);
        for i in 0..5u8 {
            log.append(Message::new(vec![i]));
        }
        log.clear();
        assert_eq!(log.start_offset(), 5);
        assert_eq!(log.end_offset(), 5);
        assert!(log.is_empty());
        // Appends continue from where the log left off.
        assert_eq!(log.append(Message::new("y")), 5);
    }
}
