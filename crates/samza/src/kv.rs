//! Fault-tolerant task-local key-value storage.
//!
//! §2: "Each streaming task in a Samza job has managed local storage … The
//! state is modeled as a stream and Samza manages the snapshotting and
//! restoration by replaying the state stream in case of a task failure."
//!
//! The store keeps **serialized bytes**, exactly like Samza's RocksDB-backed
//! store: callers hand `put` encoded bytes and decode what `get` returns,
//! each through its own codec (SamzaSQL's operators use the object codec,
//! the native jobs Avro). An access costs what it really does here: one
//! search of the ordered map, the changelog entry a mutation buffers, and
//! one copy of the key per `put`. A `put` enters the map once on its key
//! copy; a range scan seeks its lower bound once and stops at the first
//! key past the upper one. Keys are [`Bytes`]: for a new key the map, the
//! pending changelog entry and the flushed changelog message share the
//! copy, a `put` that overwrites a present key logs the map's own key and
//! drops the copy, and scans and restores hand out shared clones. Values
//! arrive already encoded as `Bytes` and are never copied.
//! Figure 6's sliding window is "dominated by access to the key-value
//! store" for both SamzaSQL and native jobs because each tuple does several
//! of these accesses, a range scan and the serde around them, not because
//! any one access is slow.
//!
//! In front of the bytes sits a read cache of decoded rows, as Samza's
//! `CachedStore` puts an object cache in front of every task's store:
//! [`get_decoded`](KeyValueStore::get_decoded) decodes a key's value
//! through the caller's codec the first time it is read and keeps the row
//! in the key's own map entry, so later reads of that key until it changes
//! cost a map lookup and no serde. `put`, `delete` and `restore` replace or
//! drop the whole entry, so a stale row cannot outlive its bytes, and the
//! cache holds at most one row per live key: it needs no capacity setting
//! and no eviction. Stores whose callers never ask for a decoded row (the
//! windows) keep an empty slot beside each value and do no other work. Both
//! stream-to-relation joins, SamzaSQL's and the native one, probe their
//! relation through it; a probe that finds its row counts as a cache hit,
//! not as a get.
//!
//! Every mutation is mirrored to a changelog topic partition; restoring a
//! store means replaying that partition from the beginning (deletes are
//! tombstones: a null/empty value). Changelog writes are **buffered** as
//! the very messages the changelog will hold, and flushed by the container
//! during commit, immediately before the input checkpoint is written —
//! Samza's commit sequence (flush state, then checkpoint). The flush moves
//! its pending entries into the log in one append; an append the broker
//! rejects takes none of them, so a retry or the next commit sends the same
//! entries again. Flushing state first means a crash can never *lose* state
//! the checkpoint claims to have; the converse window — crash after the
//! changelog flush but before the checkpoint — leaves restored state
//! *ahead* of the checkpointed positions, so replay re-applies the
//! replayed input to the store: at-least-once state application, exactly
//! as in Samza. DESIGN.md §8 tabulates the per-boundary guarantees and
//! `tests/chaos.rs` asserts them.

use crate::error::Result;
use samzasql_kafka::{AckMode, Broker, Bytes, Message, Retrier};
use samzasql_obs::{Counter, MetricsRegistry};
use samzasql_serde::Value;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Read/write counters for a store, used to confirm KV-dominance claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMetricsSnapshot {
    pub gets: u64,
    pub cache_hits: u64,
    pub puts: u64,
    pub deletes: u64,
    pub range_scans: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
}

/// A store's access counters. A container mints them under
/// `samza.store.*` ([`StoreMetrics::new`]) and hands them to the stores it
/// builds; a store built on its own counts into unregistered handles.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    /// Reads of a value's bytes: every `get`, and every `get_decoded` whose
    /// row was not cached.
    pub gets: Counter,
    /// `get_decoded` calls answered by a cached row.
    pub cache_hits: Counter,
    pub puts: Counter,
    pub deletes: Counter,
    pub range_scans: Counter,
    pub bytes_written: Counter,
    pub bytes_read: Counter,
}

impl StoreMetrics {
    /// Get or create the `samza.store.*` series with the given labels.
    pub fn new(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        let counter = |name: &str| registry.counter(&format!("samza.store.{name}"), labels);
        StoreMetrics {
            gets: counter("gets"),
            cache_hits: counter("cache_hits"),
            puts: counter("puts"),
            deletes: counter("deletes"),
            range_scans: counter("range_scans"),
            bytes_written: counter("bytes_written"),
            bytes_read: counter("bytes_read"),
        }
    }
}

/// One key's map entry: its serialized value, and the row a reader decoded
/// from exactly those bytes. A write replaces the whole slot.
#[derive(Debug)]
struct Slot {
    bytes: Bytes,
    row: Option<Box<[Value]>>,
}

impl Slot {
    fn new(bytes: Bytes) -> Self {
        Slot { bytes, row: None }
    }
}

/// Byte-level ordered key-value store with optional changelog.
pub struct KeyValueStore {
    name: String,
    data: BTreeMap<Bytes, Slot>,
    /// Changelog destination: (broker, topic, partition).
    changelog: Option<(Broker, String, u32)>,
    /// Mutations not yet flushed to the changelog, as the messages the
    /// flush moves into the log (a delete's value is an empty tombstone).
    pending: Vec<Message>,
    metrics: StoreMetrics,
    /// Retry policy for changelog flush and restore traffic.
    retrier: Retrier,
}

impl KeyValueStore {
    /// Create an ephemeral store (no changelog).
    pub fn ephemeral(name: impl Into<String>) -> Self {
        KeyValueStore {
            name: name.into(),
            data: BTreeMap::new(),
            changelog: None,
            pending: Vec::new(),
            metrics: StoreMetrics::default(),
            retrier: Retrier::default(),
        }
    }

    /// Create a store whose mutations are mirrored to
    /// `changelog_topic`/`partition` on `broker`.
    pub fn with_changelog(
        name: impl Into<String>,
        broker: Broker,
        changelog_topic: impl Into<String>,
        partition: u32,
    ) -> Self {
        KeyValueStore {
            name: name.into(),
            data: BTreeMap::new(),
            changelog: Some((broker, changelog_topic.into(), partition)),
            pending: Vec::new(),
            metrics: StoreMetrics::default(),
            retrier: Retrier::default(),
        }
    }

    /// Override the retry policy for changelog flush/restore traffic, so a
    /// container can share one metrics sink across all its retriers.
    pub fn set_retrier(&mut self, retrier: Retrier) {
        self.retrier = retrier;
    }

    /// Count accesses into `metrics` from now on.
    pub fn set_metrics(&mut self, metrics: StoreMetrics) {
        self.metrics = metrics;
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Get the serialized value for a key.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.metrics.gets.inc();
        let v = self.data.get(key).map(|slot| slot.bytes.clone());
        if let Some(ref b) = v {
            self.metrics.bytes_read.add(b.len() as u64);
        }
        v
    }

    /// The row `key`'s value decodes to, through `decode`, or `None` when
    /// the key is absent. The first read after the key was written decodes
    /// its bytes and counts as a get; the row stays in the key's entry, so
    /// reads until the next `put`, `delete` or `restore` of the key return
    /// it without decoding and count as cache hits. Every reader of one key
    /// must decode it alike: the row is whichever the first reader built.
    pub fn get_decoded<E>(
        &mut self,
        key: &[u8],
        decode: impl FnOnce(&[u8]) -> std::result::Result<Vec<Value>, E>,
    ) -> std::result::Result<Option<&[Value]>, E> {
        let Some(slot) = self.data.get_mut(key) else {
            self.metrics.gets.inc();
            return Ok(None);
        };
        if slot.row.is_some() {
            self.metrics.cache_hits.inc();
        } else {
            self.metrics.gets.inc();
            self.metrics.bytes_read.add(slot.bytes.len() as u64);
            slot.row = Some(decode(&slot.bytes)?.into_boxed_slice());
        }
        Ok(slot.row.as_deref())
    }

    /// Put a serialized value; the changelog entry is buffered until
    /// [`flush_changelog`](Self::flush_changelog). The key is copied once
    /// and the map searched once: a new key's copy becomes the `Bytes` the
    /// map and the changelog entry share, and an overwrite logs the map's
    /// own key and drops the copy.
    pub fn put(&mut self, key: &[u8], value: Bytes) -> Result<()> {
        self.metrics.puts.inc();
        self.metrics
            .bytes_written
            .add((key.len() + value.len()) as u64);
        let logged = self.changelog.is_some().then(|| value.clone());
        let key = match self.data.entry(Bytes::copy_from_slice(key)) {
            Entry::Occupied(mut present) => {
                present.insert(Slot::new(value));
                present.key().clone()
            }
            Entry::Vacant(new) => {
                let key = new.key().clone();
                new.insert(Slot::new(value));
                key
            }
        };
        if let Some(value) = logged {
            self.pending.push(changelog_entry(key, value));
        }
        Ok(())
    }

    /// Delete a key; buffers a tombstone (empty value) for the changelog,
    /// under the removed entry's own key when there was one.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.metrics.deletes.inc();
        let removed = self.data.remove_entry(key);
        if self.changelog.is_some() {
            let key = match removed {
                Some((present, _)) => present,
                None => Bytes::copy_from_slice(key),
            };
            self.pending.push(changelog_entry(key, Bytes::new()));
        }
        Ok(())
    }

    /// Flush buffered mutations to the changelog topic. Called by the
    /// container at commit time, just before the checkpoint write, so the
    /// durable state never runs ahead of the checkpointed input positions.
    pub fn flush_changelog(&mut self) -> Result<()> {
        let Some((broker, topic, partition)) = &self.changelog else {
            self.pending.clear();
            return Ok(());
        };
        if self.pending.is_empty() {
            return Ok(());
        }
        // One batched append under retry. The broker rejects a batch before
        // taking anything from it, so a failed attempt leaves `pending`
        // whole for the next attempt (or, once retries give up, the next
        // commit), and a successful one moves every entry into the log and
        // leaves the buffer empty with its capacity.
        self.retrier
            .run(|| broker.produce_batch(topic, *partition, &mut self.pending, AckMode::Leader))?;
        Ok(())
    }

    /// Number of unflushed changelog entries (diagnostics).
    pub fn pending_changelog(&self) -> usize {
        self.pending.len()
    }

    /// Iterate keys in `[from, to)` in order, yielding `(key, value)` pairs.
    /// The scan seeks `from` once and stops at the first key `>= to`; an
    /// empty or inverted interval yields nothing.
    pub fn range(&self, from: &[u8], to: &[u8]) -> Vec<(Bytes, Bytes)> {
        self.metrics.range_scans.inc();
        let mut read = 0u64;
        let out: Vec<(Bytes, Bytes)> = self
            .data
            .range::<[u8], _>((Bound::Included(from), Bound::Unbounded))
            .take_while(|(k, _)| &k[..] < to)
            .map(|(k, slot)| {
                read += slot.bytes.len() as u64;
                (k.clone(), slot.bytes.clone())
            })
            .collect();
        self.metrics.bytes_read.add(read);
        out
    }

    /// Full scan in key order.
    pub fn all(&self) -> Vec<(Bytes, Bytes)> {
        self.metrics.range_scans.inc();
        self.data
            .iter()
            .map(|(k, slot)| (k.clone(), slot.bytes.clone()))
            .collect()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Replay the changelog partition from the beginning, rebuilding state.
    /// Used on task restart; the in-memory map is rebuilt exactly, and no
    /// decoded row survives it.
    pub fn restore(&mut self) -> Result<u64> {
        let Some((broker, topic, partition)) = self.changelog.clone() else {
            return Ok(0);
        };
        self.data.clear();
        let mut offset = broker.start_offset(&topic, partition)?;
        let mut applied = 0u64;
        loop {
            let batch = self
                .retrier
                .run(|| broker.fetch(&topic, partition, offset, 1024))?;
            if batch.records.is_empty() {
                break;
            }
            for rec in &batch.records {
                offset = rec.offset + 1;
                let key = rec.message.key.clone().unwrap_or_default();
                if rec.message.value.is_empty() {
                    self.data.remove(&key[..]);
                } else {
                    self.data.insert(key, Slot::new(rec.message.value.clone()));
                }
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Access the store's counters.
    pub fn metrics(&self) -> StoreMetricsSnapshot {
        let m = &self.metrics;
        StoreMetricsSnapshot {
            gets: m.gets.get(),
            cache_hits: m.cache_hits.get(),
            puts: m.puts.get(),
            deletes: m.deletes.get(),
            range_scans: m.range_scans.get(),
            bytes_written: m.bytes_written.get(),
            bytes_read: m.bytes_read.get(),
        }
    }
}

/// The changelog message for one mutation of `key`.
fn changelog_entry(key: Bytes, value: Bytes) -> Message {
    Message {
        key: Some(key),
        value,
        timestamp: 0,
    }
}

impl std::fmt::Debug for KeyValueStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyValueStore")
            .field("name", &self.name)
            .field("len", &self.data.len())
            .field(
                "changelog",
                &self.changelog.as_ref().map(|(_, t, p)| format!("{t}-{p}")),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samzasql_kafka::TopicConfig;

    #[test]
    fn basic_crud_and_order() {
        let mut s = KeyValueStore::ephemeral("s");
        s.put(b"b", Bytes::from_static(b"2")).unwrap();
        s.put(b"a", Bytes::from_static(b"1")).unwrap();
        s.put(b"c", Bytes::from_static(b"3")).unwrap();
        assert_eq!(s.get(b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.len(), 3);
        s.delete(b"b").unwrap();
        assert!(s.get(b"b").is_none());
        let keys: Vec<Bytes> = s.all().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![Bytes::from("a"), Bytes::from("c")]);
    }

    #[test]
    fn range_is_half_open() {
        let mut s = KeyValueStore::ephemeral("s");
        for k in ["a", "b", "c", "d"] {
            s.put(k.as_bytes(), Bytes::from_static(b"x")).unwrap();
        }
        let got: Vec<Bytes> = s.range(b"b", b"d").into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, vec![Bytes::from("b"), Bytes::from("c")]);
    }

    #[test]
    fn metrics_count_accesses() {
        let mut s = KeyValueStore::ephemeral("s");
        s.put(b"k", Bytes::from_static(b"vvvv")).unwrap();
        s.get(b"k");
        s.get(b"missing");
        s.range(b"a", b"z");
        s.delete(b"k").unwrap();
        let m = s.metrics();
        assert_eq!((m.puts, m.gets, m.range_scans, m.deletes), (1, 2, 1, 1));
        assert_eq!(m.bytes_written, 5);
        assert!(m.bytes_read >= 4);
    }

    #[test]
    fn changelog_restore_rebuilds_state_including_deletes() {
        let broker = Broker::new();
        broker
            .create_topic("clog", TopicConfig::with_partitions(2))
            .unwrap();
        let mut s = KeyValueStore::with_changelog("s", broker.clone(), "clog", 1);
        s.put(b"a", Bytes::from_static(b"1")).unwrap();
        s.put(b"b", Bytes::from_static(b"2")).unwrap();
        s.put(b"a", Bytes::from_static(b"1b")).unwrap();
        s.delete(b"b").unwrap();
        assert_eq!(s.pending_changelog(), 4, "writes buffered until flush");
        s.flush_changelog().unwrap();
        assert_eq!(s.pending_changelog(), 0);

        // Simulate a fresh task on another node: new store, same changelog.
        let mut restored = KeyValueStore::with_changelog("s", broker.clone(), "clog", 1);
        let applied = restored.restore().unwrap();
        assert_eq!(applied, 4);
        assert_eq!(restored.get(b"a").unwrap().as_ref(), b"1b");
        assert!(restored.get(b"b").is_none());
        assert_eq!(restored.len(), 1);
        // Partition 0 untouched.
        assert_eq!(broker.end_offset("clog", 0).unwrap(), 0);
    }

    #[test]
    fn failed_flush_keeps_pending_for_next_commit() {
        use samzasql_kafka::{FaultInjector, FaultKind, FaultOp, FaultSchedule, FaultSpec};

        let broker = Broker::new();
        broker
            .create_topic("clog", TopicConfig::with_partitions(1))
            .unwrap();
        let mut s = KeyValueStore::with_changelog("s", broker.clone(), "clog", 0);
        s.set_retrier(Retrier::disabled());
        s.put(b"a", Bytes::from_static(b"1")).unwrap();
        s.put(b"b", Bytes::from_static(b"2")).unwrap();
        s.delete(b"a").unwrap();
        // Permanently failing broker: flush errors, buffer survives.
        broker.set_fault_injector(Some(FaultInjector::with_specs(
            1,
            vec![
                FaultSpec::any(FaultKind::Unavailable, FaultSchedule::Always)
                    .on_op(FaultOp::Produce),
            ],
        )));
        assert!(s.flush_changelog().is_err());
        assert_eq!(
            s.pending_changelog(),
            3,
            "failed flush must not drop writes"
        );
        assert_eq!(broker.end_offset("clog", 0).unwrap(), 0);
        // Fault clears; the next flush writes every kept entry exactly
        // once, in mutation order.
        broker.set_fault_injector(None);
        s.flush_changelog().unwrap();
        assert_eq!(s.pending_changelog(), 0);
        let written: Vec<(Bytes, Bytes)> = broker
            .fetch("clog", 0, 0, 10)
            .unwrap()
            .records
            .into_iter()
            .map(|r| (r.message.key.unwrap(), r.message.value))
            .collect();
        assert_eq!(
            written,
            [("a", "1"), ("b", "2"), ("a", "")].map(|(k, v)| (Bytes::from(k), Bytes::from(v)))
        );
    }

    /// The map's key for `key`.
    fn map_key(s: &KeyValueStore, key: &[u8]) -> Bytes {
        s.data.keys().find(|k| &k[..] == key).unwrap().clone()
    }

    #[test]
    fn put_of_a_new_key_shares_one_copy_with_its_changelog_entry() {
        let broker = Broker::new();
        broker
            .create_topic("clog", TopicConfig::with_partitions(1))
            .unwrap();
        let mut s = KeyValueStore::with_changelog("s", broker.clone(), "clog", 0);
        s.put(b"k", Bytes::from_static(b"1")).unwrap();
        let logged = s.pending[0].key.clone().unwrap();
        assert_eq!(logged.as_ptr(), map_key(&s, b"k").as_ptr());
        // The flush moves the entry into the log: the changelog record
        // still shares the map's copy.
        s.flush_changelog().unwrap();
        let record = broker.fetch("clog", 0, 0, 1).unwrap().records.remove(0);
        assert_eq!(
            record.message.key.unwrap().as_ptr(),
            map_key(&s, b"k").as_ptr()
        );
    }

    #[test]
    fn put_of_a_present_key_logs_the_map_key() {
        let broker = Broker::new();
        broker
            .create_topic("clog", TopicConfig::with_partitions(1))
            .unwrap();
        let mut s = KeyValueStore::with_changelog("s", broker, "clog", 0);
        s.put(b"k", Bytes::from_static(b"1")).unwrap();
        let kept = map_key(&s, b"k");
        s.put(b"k", Bytes::from_static(b"2")).unwrap();
        assert_eq!(s.get(b"k").unwrap().as_ref(), b"2");
        assert_eq!(
            map_key(&s, b"k").as_ptr(),
            kept.as_ptr(),
            "the map keeps its key"
        );
        let logged = s.pending[1].key.clone().unwrap();
        assert_eq!(
            logged.as_ptr(),
            kept.as_ptr(),
            "the entry logs the map's key"
        );
    }

    /// The one-seek scan returns exactly what a two-bound `BTreeMap::range`
    /// returns, over random keys from a small alphabet (so many share the
    /// `from` prefix), including empty and `from == to` intervals; an
    /// inverted interval is empty.
    #[test]
    fn range_matches_a_two_bound_btree_range() {
        samzasql_testkit::cases(256, 22, |rng| {
            let key = |rng: &mut samzasql_testkit::Rng| -> Vec<u8> {
                let len = rng.gen_range(0..4);
                (0..len).map(|_| b'a' + rng.gen_range(0u8..3)).collect()
            };
            let mut s = KeyValueStore::ephemeral("s");
            let mut model = BTreeMap::new();
            for _ in 0..rng.gen_range(0..24) {
                let k = key(rng);
                let v = Bytes::from(vec![rng.gen_range(0u8..8)]);
                s.put(&k, v.clone()).unwrap();
                model.insert(k, v);
            }
            let from = key(rng);
            // Keys that extend `from` sit at the scan's start.
            for suffix in [b"a", b"c"] {
                if rng.gen_range(0..2) == 0 {
                    let k = [&from[..], suffix].concat();
                    s.put(&k, Bytes::from_static(b"p")).unwrap();
                    model.insert(k, Bytes::from_static(b"p"));
                }
            }
            let to = match rng.gen_range(0..4) {
                0 => from.clone(),
                1 => [&from[..], b"b"].concat(),
                _ => key(rng),
            };
            let got = s.range(&from, &to);
            let want: Vec<(Bytes, Bytes)> = if from <= to {
                model
                    .range::<[u8], _>((Bound::Included(&from[..]), Bound::Excluded(&to[..])))
                    .map(|(k, v)| (Bytes::from(k.clone()), v.clone()))
                    .collect()
            } else {
                Vec::new()
            };
            assert_eq!(got, want, "range {from:?}..{to:?}");
        });
    }

    /// Decode a test value: one `Int` per byte, so a row shows exactly
    /// which bytes it came from.
    fn bytes_row(bytes: &[u8]) -> std::result::Result<Vec<Value>, ()> {
        Ok(bytes.iter().map(|b| Value::Int(*b as i32)).collect())
    }

    fn row(bytes: &[u8]) -> Vec<Value> {
        bytes_row(bytes).unwrap()
    }

    #[test]
    fn decoded_row_is_cached_until_the_key_changes() {
        let mut s = KeyValueStore::ephemeral("s");
        s.put(b"k", Bytes::from_static(b"\x01\x02")).unwrap();
        let mut decodes = 0;
        for _ in 0..3 {
            let got = s.get_decoded(b"k", |b| {
                decodes += 1;
                bytes_row(b)
            });
            assert_eq!(got.unwrap(), Some(&row(&[1, 2])[..]));
        }
        assert_eq!(decodes, 1, "later reads hit the cached row");
        let m = s.metrics();
        assert_eq!((m.gets, m.cache_hits, m.bytes_read), (1, 2, 2));

        // A put replaces the row with the new bytes' decode.
        s.put(b"k", Bytes::from_static(b"\x03")).unwrap();
        assert_eq!(
            s.get_decoded(b"k", bytes_row).unwrap(),
            Some(&row(&[3])[..])
        );
        // A delete drops it.
        s.delete(b"k").unwrap();
        assert_eq!(s.get_decoded(b"k", bytes_row).unwrap(), None);
        s.put(b"k", Bytes::from_static(b"\x04")).unwrap();
        assert_eq!(
            s.get_decoded(b"k", bytes_row).unwrap(),
            Some(&row(&[4])[..])
        );
        let m = s.metrics();
        assert_eq!((m.gets, m.cache_hits), (4, 2), "absent keys count a get");
    }

    #[test]
    fn failed_decode_caches_nothing() {
        let mut s = KeyValueStore::ephemeral("s");
        s.put(b"k", Bytes::from_static(b"\x01")).unwrap();
        assert_eq!(s.get_decoded(b"k", |_| Err("corrupt")), Err("corrupt"));
        assert_eq!(
            s.get_decoded(b"k", bytes_row).unwrap(),
            Some(&row(&[1])[..])
        );
        assert_eq!(s.metrics().cache_hits, 0);
    }

    #[test]
    fn restore_drops_decoded_rows() {
        let broker = Broker::new();
        broker
            .create_topic("clog", TopicConfig::with_partitions(1))
            .unwrap();
        let mut s = KeyValueStore::with_changelog("s", broker.clone(), "clog", 0);
        s.put(b"k", Bytes::from_static(b"\x01")).unwrap();
        s.flush_changelog().unwrap();
        assert_eq!(
            s.get_decoded(b"k", bytes_row).unwrap(),
            Some(&row(&[1])[..])
        );
        // Another incarnation rewrites the key; this store restores it.
        let mut other = KeyValueStore::with_changelog("s", broker.clone(), "clog", 0);
        other.put(b"k", Bytes::from_static(b"\x02")).unwrap();
        other.flush_changelog().unwrap();
        s.restore().unwrap();
        assert_eq!(
            s.get_decoded(b"k", bytes_row).unwrap(),
            Some(&row(&[2])[..])
        );
    }

    /// Over random put/delete/get sequences on a few keys, every
    /// `get_decoded` equals a fresh decode of the key's current bytes.
    #[test]
    fn decoded_reads_match_a_fresh_decode() {
        samzasql_testkit::cases(256, 21, |rng| {
            let mut s = KeyValueStore::ephemeral("s");
            for _ in 0..rng.gen_range(1..64) {
                let key = [b'a' + rng.gen_range(0u8..4)];
                match rng.gen_range(0..4) {
                    0 => {
                        let len = rng.gen_range(0..4);
                        let value: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..8)).collect();
                        s.put(&key, Bytes::from(value)).unwrap();
                    }
                    1 => s.delete(&key).unwrap(),
                    _ => {
                        let fresh = s.get(&key).map(|b| row(&b));
                        let cached = s.get_decoded(&key, bytes_row).unwrap();
                        assert_eq!(cached, fresh.as_deref(), "key {key:?}");
                    }
                }
            }
        });
    }

    #[test]
    fn ephemeral_restore_is_noop() {
        let mut s = KeyValueStore::ephemeral("s");
        s.put(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(s.restore().unwrap(), 0);
        // Ephemeral restore clears nothing (no changelog to rebuild from).
        assert_eq!(s.get(b"k").unwrap().as_ref(), b"v");
    }
}
