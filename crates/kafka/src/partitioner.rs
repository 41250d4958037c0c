//! Key-hash partition placement.
//!
//! §3.1: "How a stream is partitioned is defined by the publisher at
//! publishing time." Every publisher in the stack — the container's output
//! path, the shell and the benchmark loaders — places a keyed message on
//! partition `hash_bytes(key) % partitions`, the Kafka default, which keeps
//! co-partitioned joins aligned (§4.4).

use std::hash::{Hash, Hasher};

/// Stable hash used for key partitioning. Uses the std `DefaultHasher` seeded
/// deterministically so partition placement is reproducible across runs
/// (important for deterministic benchmarks and co-partitioning tests).
pub fn hash_bytes(bytes: &[u8]) -> u32 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    (h.finish() % u64::from(u32::MAX)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_hash_is_deterministic() {
        let first = hash_bytes(b"product-17") % 32;
        for _ in 0..10 {
            assert_eq!(hash_bytes(b"product-17") % 32, first);
        }
    }

    #[test]
    fn key_hash_spreads_keys() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            seen.insert(hash_bytes(format!("key-{i}").as_bytes()) % 16);
        }
        assert!(
            seen.len() >= 12,
            "200 keys over 16 partitions should hit most: {seen:?}"
        );
    }
}
