//! Property tests over the commit log's core invariants: dense offsets,
//! exact fetch windows, and dense appends after a failover truncation.

use samzasql_kafka::log::PartitionLog;
use samzasql_kafka::Message;
use samzasql_testkit::{cases, Rng};

/// A log holding `n` one-byte messages, the `i`th holding `i as u8`.
fn log_of(n: usize) -> PartitionLog {
    let mut log = PartitionLog::new("t", 0);
    for i in 0..n {
        assert_eq!(log.append(Message::new(vec![i as u8])), i as u64);
    }
    log
}

/// Offsets `[from, to)` of a fetch starting at `from`, checked against the
/// payloads [`log_of`] wrote.
fn fetched_offsets(log: &PartitionLog, from: u64) -> Vec<u64> {
    let out = log.fetch(from, 10_000).unwrap();
    assert_eq!(out.high_watermark, log.end_offset());
    for rec in &out.records {
        assert_eq!(rec.message.value.as_ref(), [rec.offset as u8]);
    }
    out.records.iter().map(|r| r.offset).collect()
}

fn random_payloads(rng: &mut Rng) -> Vec<Vec<u8>> {
    (0..rng.gen_range(1..200))
        .map(|_| {
            (0..rng.gen_range(0..32))
                .map(|_| rng.gen_range(0..=u8::MAX))
                .collect()
        })
        .collect()
}

/// Offsets are dense and monotonically increasing, and the whole log
/// fetches back in order with the original payloads.
#[test]
fn offsets_dense_and_log_fetches_back_whole() {
    cases(128, 1, |rng| {
        let payloads = random_payloads(rng);
        let mut log = PartitionLog::new("t", 0);
        for (i, p) in payloads.iter().enumerate() {
            let off = log.append(Message::new(p.clone()));
            assert_eq!(off, i as u64, "dense offsets");
        }
        assert_eq!(log.start_offset(), 0);
        assert_eq!(log.end_offset(), payloads.len() as u64);
        let fetched = log.fetch(0, payloads.len() + 1).unwrap();
        assert_eq!(fetched.records.len(), payloads.len(), "the whole log");
        for (i, rec) in fetched.records.iter().enumerate() {
            assert_eq!(rec.offset, i as u64);
            assert_eq!(rec.message.value.as_ref(), payloads[i].as_slice());
        }
    });
}

/// Fetching from any offset in `[0, end]` returns records starting exactly
/// there and running to the end; fetching past the end errors.
#[test]
fn fetch_window_is_exact() {
    cases(128, 2, |rng| {
        let log = log_of(rng.gen_range(0usize..150));
        let end = log.end_offset();
        let from = rng.gen_range(0..=end);
        assert_eq!(fetched_offsets(&log, from), (from..end).collect::<Vec<_>>());
        assert!(log.fetch(end + 1, 1).is_err(), "beyond end errors");
    });
}

/// After `truncate_to(k)` the log ends at `k` (or stays put when `k` is past
/// the end), appends continue densely from there, and a fetch beyond the
/// new end errors.
#[test]
fn appends_after_truncation_stay_dense() {
    cases(128, 3, |rng| {
        let n = rng.gen_range(0usize..150);
        let mut log = log_of(n);
        let k = rng.gen_range(0..=n as u64 + 4);
        log.truncate_to(k);
        let end = k.min(n as u64);
        assert_eq!(log.end_offset(), end);
        assert!(log.fetch(end + 1, 1).is_err(), "beyond the new end errors");
        let more = rng.gen_range(0usize..20);
        for i in 0..more {
            let off = end + i as u64;
            assert_eq!(log.append(Message::new(vec![off as u8])), off);
        }
        let total = end + more as u64;
        assert_eq!(fetched_offsets(&log, 0), (0..total).collect::<Vec<_>>());
    });
}
