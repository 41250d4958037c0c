//! Property tests over the commit log's core invariants under arbitrary
//! append/retention interleavings.

use samzasql_kafka::log::{PartitionLog, SegmentConfig};
use samzasql_kafka::Message;
use samzasql_testkit::{cases, Rng};

/// A random log configuration: small segments, optional byte retention.
fn config(rng: &mut Rng) -> SegmentConfig {
    SegmentConfig {
        segment_max_records: rng.gen_range(1usize..16),
        retention_bytes: if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(16u64..512)
        },
        retention_ms: 0,
    }
}

/// Offsets are dense and monotonically increasing regardless of
/// segmentation and retention; the retained window is always a suffix.
#[test]
fn offsets_dense_and_retention_keeps_suffix() {
    cases(128, 1, |rng| {
        let config = config(rng);
        let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1..200))
            .map(|_| {
                (0..rng.gen_range(0..32))
                    .map(|_| rng.gen_range(0..=u8::MAX))
                    .collect()
            })
            .collect();
        let mut log = PartitionLog::new("t", 0, config);
        for (i, p) in payloads.iter().enumerate() {
            let off = log.append(Message::new(p.clone()));
            assert_eq!(off, i as u64, "dense offsets");
        }
        let (start, end) = (log.start_offset(), log.end_offset());
        assert_eq!(end, payloads.len() as u64);
        assert!(start <= end);
        // Everything retained fetches back in order with original payloads.
        let fetched = log.fetch(start, payloads.len() + 1).unwrap();
        let mut expect = start;
        for rec in &fetched.records {
            assert_eq!(rec.offset, expect);
            assert_eq!(
                rec.message.value.as_ref(),
                payloads[rec.offset as usize].as_slice()
            );
            expect += 1;
        }
        assert_eq!(expect, end, "fetch returns the whole retained suffix");
    });
}

/// Fetching from any retained offset returns records starting exactly
/// there; fetching below the start errors.
#[test]
fn fetch_window_is_exact() {
    cases(128, 2, |rng| {
        let config = config(rng);
        let n = rng.gen_range(1usize..150);
        let mut log = PartitionLog::new("t", 0, config);
        for i in 0..n {
            log.append(Message::new(vec![i as u8]));
        }
        let start = log.start_offset();
        let end = log.end_offset();
        let from = rng.gen_range(start..=end);
        let out = log.fetch(from, 10_000).unwrap();
        assert_eq!(out.records.len() as u64, end - from);
        if let Some(first) = out.records.first() {
            assert_eq!(first.offset, from);
        }
        if start > 0 {
            assert!(log.fetch(start - 1, 1).is_err(), "below start errors");
        }
        assert!(log.fetch(end + 1, 1).is_err(), "beyond end errors");
    });
}
