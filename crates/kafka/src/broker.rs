//! The broker: topic registry and produce/fetch entry points.

use crate::error::{FaultOp, KafkaError, Result};
use crate::fault::FaultInjector;
use crate::log::{FetchResult, PartitionLog};
use crate::message::{Message, TopicPartition};
use crate::replication::{AckMode, ReplicaSet};
use crate::topic::{Topic, TopicConfig};
use samzasql_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Shared handle to the in-process broker "cluster".
///
/// Cloning is cheap (an `Arc`); every container, the checkpoint manager,
/// the stores' changelogs and the query shell hold clones of the same
/// broker.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

struct BrokerInner {
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    replicas: Mutex<HashMap<TopicPartition, ReplicaSet>>,
    /// The deployment's one metrics registry (see
    /// [`Broker::metrics_registry`]).
    registry: MetricsRegistry,
    counters: BrokerCounters,
    /// Seeded fault injector intercepting produce/fetch (off by default).
    injector: RwLock<Option<Arc<FaultInjector>>>,
    /// True once any topic was created with `replication_factor > 1`. Lets
    /// the hot produce/fetch paths skip the replica-set mutex entirely in
    /// the common single-replica configuration.
    has_replicated: AtomicBool,
    /// Wakes consumers parked in [`Broker::wait_for_append`].
    appends: AppendSignal,
}

/// The broker's `kafka.broker.*` traffic and failover counters.
struct BrokerCounters {
    messages_in: Counter,
    bytes_in: Counter,
    messages_out: Counter,
    bytes_out: Counter,
    isr_shrinks: Counter,
    isr_expands: Counter,
    leader_epoch_bumps: Counter,
    faults_injected: Counter,
}

impl BrokerCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        let counter = |name: &str| registry.counter(&format!("kafka.broker.{name}"), &[]);
        BrokerCounters {
            messages_in: counter("messages_in"),
            bytes_in: counter("bytes_in"),
            messages_out: counter("messages_out"),
            bytes_out: counter("bytes_out"),
            isr_shrinks: counter("isr_shrinks"),
            isr_expands: counter("isr_expands"),
            leader_epoch_bumps: counter("leader_epoch_bumps"),
            faults_injected: counter("faults_injected"),
        }
    }
}

/// Append notification for parked consumers: a sequence that every produce
/// call bumps, and a condition variable waiters block on. Producers take the
/// lock and notify only while someone is parked, so the produce path pays
/// two atomic operations when nobody waits. The mutex guards no data (it
/// only orders a notify against a waiter going to sleep), so a poisoned
/// lock is safe to recover.
#[derive(Default)]
struct AppendSignal {
    seq: AtomicU64,
    waiters: AtomicUsize,
    lock: std::sync::Mutex<()>,
    cv: Condvar,
}

impl AppendSignal {
    fn bump(&self) {
        // SeqCst on both sides: a waiter registers, then re-reads `seq`; a
        // producer bumps `seq`, then reads `waiters`. At least one of the
        // two sees the other, so a wake-up is never lost.
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_all();
        }
    }

    fn wait(&self, seen: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let moved = loop {
            if self.seq.load(Ordering::SeqCst) != seen {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            guard = self
                .cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        moved
    }
}

impl Broker {
    /// Create an empty broker with a fresh metrics registry.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        Broker {
            inner: Arc::new(BrokerInner {
                topics: RwLock::new(HashMap::new()),
                replicas: Mutex::new(HashMap::new()),
                counters: BrokerCounters::new(&registry),
                registry,
                injector: RwLock::new(None),
                has_replicated: AtomicBool::new(false),
                appends: AppendSignal::default(),
            }),
        }
    }

    /// The deployment's metrics registry. The broker's own series live
    /// here, and everything built over this broker — containers, their
    /// tasks and stores, the shell — mints its instruments here.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Install (or remove) a seeded fault injector. While installed, every
    /// produce and fetch consults it *before* touching the log, so injected
    /// produce errors never leave a partially-appended record behind and a
    /// client retry cannot duplicate data.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.inner.injector.write().unwrap() = injector;
    }

    /// The currently installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.inner.injector.read().unwrap().clone()
    }

    /// Run the fault injector for one operation; count surfaced errors.
    fn intercept(&self, op: FaultOp, topic: &str, partition: u32) -> Result<()> {
        let injector = self.inner.injector.read().unwrap().clone();
        if let Some(injector) = injector {
            if let Err(e) = injector.intercept(op, topic, partition) {
                self.inner.counters.faults_injected.inc();
                return Err(e);
            }
        }
        Ok(())
    }

    /// Run `f` on one partition's log; unknown topics and partitions fail
    /// before `f` runs.
    fn with_log<R>(
        &self,
        topic: &str,
        partition: u32,
        f: impl FnOnce(&RwLock<PartitionLog>) -> Result<R>,
    ) -> Result<R> {
        let t = self
            .topic(topic)
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))?;
        let log = t
            .partition(partition)
            .ok_or_else(|| unknown_partition(topic, partition))?;
        f(log)
    }

    /// Run `f` on one partition's replica set, under the replicas lock.
    fn with_replicas<R>(
        &self,
        topic: &str,
        partition: u32,
        f: impl FnOnce(&mut ReplicaSet) -> Result<R>,
    ) -> Result<R> {
        let mut reps = self.inner.replicas.lock().unwrap();
        let rs = reps
            .get_mut(&TopicPartition::new(topic, partition))
            .ok_or_else(|| unknown_partition(topic, partition))?;
        f(rs)
    }

    /// Election + ack gate for one partition. While a leader election is
    /// pending the operation fails with the retriable `LeaderNotAvailable`
    /// (each attempt advances the election, so retries alone complete it);
    /// once a leader exists, `acks=all` requires the configured minimum ISR.
    fn check_leader_and_acks(&self, topic: &str, partition: u32, acks: AckMode) -> Result<()> {
        if !self.inner.has_replicated.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut reps = self.inner.replicas.lock().unwrap();
        if let Some(rs) = reps.get_mut(&TopicPartition::new(topic, partition)) {
            if rs.election_pending() {
                let epoch = rs.leader_epoch();
                rs.note_attempt();
                return Err(KafkaError::LeaderNotAvailable {
                    topic: topic.to_string(),
                    partition,
                    epoch,
                });
            }
            rs.check_ack(acks, topic, partition)?;
        }
        Ok(())
    }

    /// Highest offset visible to fetches on this partition: the committed
    /// offset (high watermark) under replication, the log end otherwise.
    /// Capping visibility here is what makes leader failover safe — a record
    /// that could still be truncated away is never handed to a consumer.
    fn visible_end(&self, topic: &str, partition: u32, leader_end: u64) -> u64 {
        if !self.inner.has_replicated.load(Ordering::Relaxed) {
            return leader_end;
        }
        let reps = self.inner.replicas.lock().unwrap();
        reps.get(&TopicPartition::new(topic, partition))
            .map(|rs| rs.committed_offset(leader_end))
            .unwrap_or(leader_end)
    }

    /// Create a topic. Errors if it already exists.
    pub fn create_topic(&self, name: impl Into<String>, config: TopicConfig) -> Result<Arc<Topic>> {
        let name = name.into();
        if config.partitions == 0 {
            return Err(KafkaError::InvalidConfig(format!(
                "topic {name} must have at least one partition"
            )));
        }
        let mut topics = self.inner.topics.write().unwrap();
        if topics.contains_key(&name) {
            return Err(KafkaError::TopicExists(name));
        }
        let topic = Arc::new(Topic::new(name.clone(), config.clone()));
        {
            let mut reps = self.inner.replicas.lock().unwrap();
            for p in 0..config.partitions {
                reps.insert(
                    TopicPartition::new(name.clone(), p),
                    ReplicaSet::new(config.replication.clone()),
                );
            }
        }
        if config.replication.replication_factor > 1 {
            self.inner.has_replicated.store(true, Ordering::Relaxed);
        }
        topics.insert(name, topic.clone());
        Ok(topic)
    }

    /// Create the topic if absent, otherwise return the existing one.
    pub fn ensure_topic(&self, name: impl Into<String>, config: TopicConfig) -> Result<Arc<Topic>> {
        let name = name.into();
        if let Some(t) = self.topic(&name) {
            return Ok(t);
        }
        match self.create_topic(name.clone(), config) {
            Ok(t) => Ok(t),
            Err(KafkaError::TopicExists(_)) => {
                Ok(self.topic(&name).expect("topic raced into existence"))
            }
            Err(e) => Err(e),
        }
    }

    /// Look up a topic.
    pub fn topic(&self, name: &str) -> Option<Arc<Topic>> {
        self.inner.topics.read().unwrap().get(name).cloned()
    }

    /// List all topic names (sorted, for determinism).
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.topics.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Partition count of a topic.
    pub fn partition_count(&self, topic: &str) -> Result<u32> {
        self.topic(topic)
            .map(|t| t.partition_count())
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))
    }

    /// Append a message to a specific partition with default (leader) acks.
    /// Returns the assigned offset.
    pub fn produce(&self, topic: &str, partition: u32, message: Message) -> Result<u64> {
        self.produce_with_acks(topic, partition, message, AckMode::Leader)
    }

    /// Append with an explicit ack mode; `acks=all` consults the simulated
    /// in-sync replica set.
    pub fn produce_with_acks(
        &self,
        topic: &str,
        partition: u32,
        message: Message,
        acks: AckMode,
    ) -> Result<u64> {
        let offsets = self.append(topic, partition, acks, || std::iter::once(message))?;
        Ok(offsets.start)
    }

    /// Append a batch of messages to one partition, acquiring the partition
    /// log's write lock once for the whole batch (and checking acks once).
    /// The messages are moved out of `messages` only once the fault and ack
    /// gates have passed: a rejected call leaves the batch as it was, so a
    /// retry hands the same batch over again, and an accepted one leaves it
    /// empty with its capacity. Returns the assigned offsets, consecutive in
    /// input order since the lock is held across the batch.
    pub fn produce_batch(
        &self,
        topic: &str,
        partition: u32,
        mut messages: impl AsMut<Vec<Message>>,
        acks: AckMode,
    ) -> Result<Range<u64>> {
        let messages = messages.as_mut();
        if messages.is_empty() {
            return Ok(0..0);
        }
        self.append(topic, partition, acks, || messages.drain(..))
    }

    /// The one append path: fault and ack gates, then every message
    /// `take` yields under one write lock (the log grows once for the
    /// batch), then the traffic counters and one append signal. `take`
    /// runs only once the gates have passed. Returns the range of assigned
    /// offsets.
    fn append<I: IntoIterator<Item = Message>>(
        &self,
        topic: &str,
        partition: u32,
        acks: AckMode,
        take: impl FnOnce() -> I,
    ) -> Result<Range<u64>> {
        let (offsets, bytes) = self.with_log(topic, partition, |log| {
            self.intercept(FaultOp::Produce, topic, partition)?;
            self.check_leader_and_acks(topic, partition, acks)?;
            Ok(log.write().unwrap().extend(take()))
        })?;
        let counters = &self.inner.counters;
        counters.messages_in.add(offsets.end - offsets.start);
        counters.bytes_in.add(bytes);
        self.inner.appends.bump();
        Ok(offsets)
    }

    /// Fetch up to `max_records` from `topic`/`partition` starting at
    /// `offset`.
    pub fn fetch(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_records: usize,
    ) -> Result<FetchResult> {
        // Cap visibility at the high watermark: records not yet replicated
        // to the ISR could still be truncated by a leader failover, so
        // consumers must not see them. The cap is read before the log lock
        // is taken (`replication_tick` takes the replicas lock first, then a
        // log lock), and only records below it are copied.
        let visible = self.visible_end(topic, partition, u64::MAX);
        let mut result = self.with_log(topic, partition, |log| {
            self.intercept(FaultOp::Fetch, topic, partition)?;
            self.check_leader_and_acks(topic, partition, AckMode::None)?;
            let below_cap = usize::try_from(visible.saturating_sub(offset)).unwrap_or(usize::MAX);
            log.read()
                .unwrap()
                .fetch(offset, max_records.min(below_cap))
        })?;
        result.high_watermark = result.high_watermark.min(visible);
        let bytes: u64 = result
            .records
            .iter()
            .map(|r| r.message.payload_len() as u64)
            .sum();
        let counters = &self.inner.counters;
        counters.messages_out.add(result.records.len() as u64);
        counters.bytes_out.add(bytes);
        Ok(result)
    }

    /// First offset of a partition ("log start offset").
    pub fn start_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        self.with_log(topic, partition, |log| {
            Ok(log.read().unwrap().start_offset())
        })
    }

    /// Offset one past the newest record of a partition ("log end offset").
    pub fn end_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        self.with_log(topic, partition, |log| Ok(log.read().unwrap().end_offset()))
    }

    /// Advance the replication simulation for every partition (followers
    /// catch up, ISR recomputed, pending elections progress).
    pub fn replication_tick(&self) {
        let topics = self.inner.topics.read().unwrap();
        let mut reps = self.inner.replicas.lock().unwrap();
        let mut shrank = 0u64;
        let mut expanded = 0u64;
        for (tp, rs) in reps.iter_mut() {
            if let Some(t) = topics.get(&tp.topic) {
                if let Some(log) = t.partition(tp.partition) {
                    let end = log.read().unwrap().end_offset();
                    let delta = rs.tick(end);
                    shrank += delta.shrank as u64;
                    expanded += delta.expanded as u64;
                }
            }
        }
        self.inner.counters.isr_shrinks.add(shrank);
        self.inner.counters.isr_expands.add(expanded);
        // High watermarks may have moved, making records visible.
        self.inner.appends.bump();
    }

    /// The append sequence: it moves on every produce call (and whenever
    /// records may have become visible). Read it before polling, then hand
    /// it to [`wait_for_append`](Broker::wait_for_append) if the poll came
    /// back empty.
    pub fn append_seq(&self) -> u64 {
        self.inner.appends.seq.load(Ordering::SeqCst)
    }

    /// Block until the append sequence moves past `seen` or `timeout`
    /// passes. Returns whether it moved. One produce call wakes every
    /// waiter once, however many records it appends.
    pub fn wait_for_append(&self, seen: u64, timeout: Duration) -> bool {
        self.inner.appends.wait(seen, timeout)
    }

    /// Move the append sequence without appending, waking every waiter —
    /// for a consumer's owner that needs it to look at its flags now
    /// (stop, kill).
    pub fn wake_waiters(&self) {
        self.inner.appends.bump();
    }

    /// Threads currently inside [`wait_for_append`](Broker::wait_for_append).
    pub fn parked_waiters(&self) -> usize {
        self.inner.appends.waiters.load(Ordering::SeqCst)
    }

    /// Kill the leader of `topic`/`partition`: the most-caught-up in-sync
    /// follower is promoted, the log truncates to the committed offset
    /// (acknowledged-but-unreplicated records are lost, exactly as Kafka
    /// loses `acks=1` writes), the leader epoch bumps, and clients see the
    /// retriable `LeaderNotAvailable` until the election window passes.
    /// Returns the new leader epoch. Errors with `NotEnoughReplicas` when no
    /// in-sync follower exists to promote.
    pub fn fail_leader(&self, topic: &str, partition: u32) -> Result<u64> {
        self.with_log(topic, partition, |log| {
            self.with_replicas(topic, partition, |rs| {
                // Lock order everywhere is replicas -> log.
                let mut log = log.write().unwrap();
                let committed = rs.fail_leader(log.end_offset(), topic, partition)?;
                log.truncate_to(committed);
                self.inner.counters.leader_epoch_bumps.inc();
                Ok(rs.leader_epoch())
            })
        })
    }

    /// Fail follower `idx` of a partition's replica set (it stops
    /// replicating and leaves the ISR).
    pub fn fail_follower(&self, topic: &str, partition: u32, idx: usize) -> Result<()> {
        self.with_replicas(topic, partition, |rs| {
            if rs.fail_follower(idx, true) {
                self.inner.counters.isr_shrinks.inc();
            }
            Ok(())
        })
    }

    /// Restore a previously failed follower; it rejoins the ISR once caught
    /// up via [`replication_tick`](Broker::replication_tick).
    pub fn restore_follower(&self, topic: &str, partition: u32, idx: usize) -> Result<()> {
        self.with_replicas(topic, partition, |rs| {
            rs.restore_follower(idx);
            Ok(())
        })
    }

    /// Current leader epoch of a partition (0 until the first failover).
    pub fn leader_epoch(&self, topic: &str, partition: u32) -> Result<u64> {
        self.with_replicas(topic, partition, |rs| Ok(rs.leader_epoch()))
    }

    /// The committed offset (high watermark) of a partition — the highest
    /// offset fetches can observe under replication.
    pub fn high_watermark(&self, topic: &str, partition: u32) -> Result<u64> {
        let end = self.end_offset(topic, partition)?;
        Ok(self.visible_end(topic, partition, end))
    }
}

fn unknown_partition(topic: &str, partition: u32) -> KafkaError {
    KafkaError::UnknownPartition {
        topic: topic.to_string(),
        partition,
    }
}

impl Default for Broker {
    fn default() -> Self {
        Broker::new()
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("topics", &self.topic_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::ReplicationConfig;

    #[test]
    fn create_and_lookup_topics() {
        let b = Broker::new();
        b.create_topic("a", TopicConfig::with_partitions(2))
            .unwrap();
        assert!(b.topic("a").is_some());
        assert!(b.topic("b").is_none());
        assert_eq!(b.partition_count("a").unwrap(), 2);
        assert!(matches!(
            b.create_topic("a", TopicConfig::with_partitions(1)),
            Err(KafkaError::TopicExists(_))
        ));
    }

    #[test]
    fn zero_partition_topic_rejected() {
        let b = Broker::new();
        assert!(matches!(
            b.create_topic("bad", TopicConfig::with_partitions(0)),
            Err(KafkaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn ensure_topic_is_idempotent() {
        let b = Broker::new();
        let t1 = b
            .ensure_topic("t", TopicConfig::with_partitions(3))
            .unwrap();
        let t2 = b
            .ensure_topic("t", TopicConfig::with_partitions(5))
            .unwrap();
        assert_eq!(t1.partition_count(), 3);
        assert_eq!(t2.partition_count(), 3, "second ensure must not recreate");
    }

    #[test]
    fn produce_fetch_roundtrip() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        let o1 = b.produce("t", 0, Message::new("a")).unwrap();
        let o2 = b.produce("t", 0, Message::new("b")).unwrap();
        assert_eq!((o1, o2), (0, 1));
        let fetched = b.fetch("t", 0, 0, 10).unwrap();
        assert_eq!(fetched.records.len(), 2);
        assert_eq!(fetched.records[1].message.value.as_ref(), b"b");
        assert_eq!(fetched.high_watermark, 2);
    }

    #[test]
    fn produce_to_unknown_targets_errors() {
        let b = Broker::new();
        assert!(matches!(
            b.produce("nope", 0, Message::new("x")),
            Err(KafkaError::UnknownTopic(_))
        ));
        b.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        assert!(matches!(
            b.produce("t", 9, Message::new("x")),
            Err(KafkaError::UnknownPartition { .. })
        ));
    }

    #[test]
    fn acks_all_with_lagging_isr_fails_until_tick() {
        let b = Broker::new();
        let cfg = TopicConfig::with_partitions(1).replication(ReplicationConfig {
            replication_factor: 2,
            min_insync_replicas: 2,
            records_per_tick: 100,
            max_lag_records: 1,
            ..ReplicationConfig::default()
        });
        b.create_topic("t", cfg).unwrap();
        // Push the follower behind by producing with leader acks.
        for _ in 0..5 {
            b.produce("t", 0, Message::new("x")).unwrap();
        }
        // Follower lag is 5 > 1 ... but ISR only updates on tick; first force it.
        b.replication_tick(); // catches up fully (100 per tick)
        assert!(b
            .produce_with_acks("t", 0, Message::new("y"), AckMode::All)
            .is_ok());
    }

    #[test]
    fn fetch_behind_a_lagging_isr_returns_exactly_the_committed_records() {
        let b = Broker::new();
        let cfg = TopicConfig::with_partitions(1).replication(ReplicationConfig {
            replication_factor: 2,
            records_per_tick: 3,
            max_lag_records: 100,
            ..ReplicationConfig::default()
        });
        b.create_topic("t", cfg).unwrap();
        for i in 0..10 {
            b.produce("t", 0, Message::new(format!("m{i}"))).unwrap();
        }
        b.replication_tick(); // the in-sync follower holds offsets 0..3
        assert_eq!(b.high_watermark("t", 0).unwrap(), 3);

        let all = b.fetch("t", 0, 0, 100).unwrap();
        let offsets: Vec<u64> = all.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2]);
        assert_eq!(all.high_watermark, 3);
        assert_eq!(all.records[2].message.value.as_ref(), b"m2");

        let one = b.fetch("t", 0, 1, 1).unwrap();
        assert_eq!(one.records.len(), 1);
        assert_eq!((one.records[0].offset, one.high_watermark), (1, 3));

        // Past the committed offset but inside the log: empty, not an error.
        let uncommitted = b.fetch("t", 0, 5, 100).unwrap();
        assert!(uncommitted.records.is_empty());
        assert_eq!(uncommitted.high_watermark, 3);
        assert!(matches!(
            b.fetch("t", 0, 11, 100),
            Err(KafkaError::OffsetOutOfRange { .. })
        ));

        b.replication_tick();
        let later = b.fetch("t", 0, 3, 100).unwrap();
        assert_eq!(later.records.len(), 3);
        assert_eq!(later.high_watermark, 6);
    }

    #[test]
    fn produce_batch_assigns_consecutive_offsets() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(2))
            .unwrap();
        b.produce("t", 0, Message::new("seed")).unwrap();
        let mut batch = vec![Message::new("a"), Message::new("b"), Message::new("c")];
        let offs = b
            .produce_batch("t", 0, &mut batch, AckMode::Leader)
            .unwrap();
        assert_eq!(offs, 1..4);
        assert!(batch.is_empty(), "an accepted batch is moved into the log");
        assert!(b
            .produce_batch("t", 0, Vec::new(), AckMode::Leader)
            .unwrap()
            .is_empty());
        let fetched = b.fetch("t", 0, 1, 10).unwrap();
        assert_eq!(fetched.records.len(), 3);
        assert_eq!(fetched.records[2].message.value.as_ref(), b"c");
    }

    /// A produce that hits an injected fault takes nothing from the
    /// caller's batch and appends nothing; the retried call appends each
    /// message once, at consecutive offsets.
    #[test]
    fn faulted_produce_batch_keeps_the_batch_for_the_retry() {
        use crate::fault::{FaultKind, FaultSchedule, FaultSpec};
        use crate::retry::Retrier;

        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        // The first two produce calls on the partition fail.
        b.set_fault_injector(Some(FaultInjector::with_specs(
            7,
            vec![FaultSpec::any(
                FaultKind::TransientError,
                FaultSchedule::Window { from: 0, count: 2 },
            )
            .on_op(FaultOp::Produce)],
        )));
        let sent = vec![Message::new("a"), Message::new("b"), Message::new("c")];
        let mut batch = sent.clone();
        assert!(b
            .produce_batch("t", 0, &mut batch, AckMode::Leader)
            .is_err());
        assert_eq!(batch, sent, "a rejected batch is left as it was");
        assert_eq!(b.end_offset("t", 0).unwrap(), 0);
        assert_eq!(traffic(&b)[0], 0);

        // One more failed attempt, then the retrier's next one lands.
        let offs = Retrier::default()
            .run(|| b.produce_batch("t", 0, &mut batch, AckMode::Leader))
            .unwrap();
        assert_eq!(offs, 0..3);
        assert!(batch.is_empty());
        let fetched = b.fetch("t", 0, 0, 10).unwrap();
        let got: Vec<Message> = fetched.records.into_iter().map(|r| r.message).collect();
        assert_eq!(got, sent, "each message appended once, in order");
        assert_eq!(traffic(&b)[0], 3);
    }

    #[test]
    fn produce_batch_counts_all_records_in_metrics() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        b.produce_batch(
            "t",
            0,
            vec![Message::new("ab"), Message::new("cd")],
            AckMode::Leader,
        )
        .unwrap();
        assert_eq!(traffic(&b)[..2], [2, 4]);
    }

    /// `kafka.broker.{messages_in,bytes_in,messages_out,bytes_out}`.
    fn traffic(b: &Broker) -> [u64; 4] {
        let snap = b.metrics_registry().snapshot_prefix("kafka.broker.");
        ["messages_in", "bytes_in", "messages_out", "bytes_out"]
            .map(|name| snap.counter(&format!("kafka.broker.{name}"), &[]).unwrap())
    }

    #[test]
    fn metrics_track_traffic() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        b.produce("t", 0, Message::new("abcd")).unwrap();
        b.fetch("t", 0, 0, 10).unwrap();
        assert_eq!(traffic(&b), [1, 4, 1, 4]);
    }

    #[test]
    fn append_sequence_moves_once_per_produce_call() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        let s0 = b.append_seq();
        b.produce("t", 0, Message::new("a")).unwrap();
        assert_eq!(b.append_seq(), s0 + 1);
        b.produce_batch(
            "t",
            0,
            vec![Message::new("b"), Message::new("c"), Message::new("d")],
            AckMode::Leader,
        )
        .unwrap();
        assert_eq!(b.append_seq(), s0 + 2, "one bump per batch");
        // A moved sequence returns at once; an unmoved one times out.
        assert!(b.wait_for_append(s0, Duration::ZERO));
        assert!(!b.wait_for_append(b.append_seq(), Duration::ZERO));
        assert_eq!(b.parked_waiters(), 0);
    }

    #[test]
    fn produce_wakes_a_parked_waiter() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        let seen = b.append_seq();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let b = b.clone();
            // The park's own timeout is far beyond the receive guard below,
            // so only the produce's wake-up can end it in time.
            std::thread::spawn(move || {
                tx.send(b.wait_for_append(seen, Duration::from_secs(3600)))
                    .unwrap()
            })
        };
        while b.parked_waiters() == 0 {
            std::thread::yield_now();
        }
        b.produce("t", 0, Message::new("a")).unwrap();
        let moved = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the produce woke the parked waiter");
        assert!(moved);
        waiter.join().unwrap();
        assert_eq!(b.parked_waiters(), 0);
    }
}
