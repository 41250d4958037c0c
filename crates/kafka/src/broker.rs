//! The broker: topic registry and produce/fetch entry points.

use crate::error::{FaultOp, KafkaError, Result};
use crate::fault::FaultInjector;
use crate::log::FetchResult;
use crate::message::{Message, TopicPartition};
use crate::replication::{AckMode, ReplicaSet};
use crate::throttle::IoThrottle;
use crate::topic::{Topic, TopicConfig};
use samzasql_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
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
    throttle: RwLock<Option<Arc<IoThrottle>>>,
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
                throttle: RwLock::new(None),
                injector: RwLock::new(None),
                has_replicated: AtomicBool::new(false),
                appends: AppendSignal::default(),
            }),
        }
    }

    /// The deployment's metrics registry. The broker's own series live
    /// here, and everything built over this broker — containers, their
    /// tasks and stores, throttles, the shell — mints its instruments
    /// here.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Install an I/O throttle applied to all produce traffic (simulates the
    /// EC2 burst-credit behaviour; off by default). Build it over
    /// [`metrics_registry`](Self::metrics_registry) so §5.1-style
    /// throttling shows up in snapshots.
    pub fn set_throttle(&self, throttle: Option<Arc<IoThrottle>>) {
        *self.inner.throttle.write().unwrap() = throttle;
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
        let t = self
            .topic(topic)
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))?;
        let log = t
            .partition(partition)
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })?;
        self.intercept(FaultOp::Produce, topic, partition)?;
        self.check_leader_and_acks(topic, partition, acks)?;
        let bytes = message.payload_len() as u64;
        if let Some(throttle) = self.inner.throttle.read().unwrap().clone() {
            // Benchmarks feed a wall-clock derived logical time; unit tests
            // can interrogate the throttle directly. Debt is informational.
            let _ = throttle.charge(bytes, 0.0);
        }
        let offset = log.write().unwrap().append(message);
        self.inner.counters.messages_in.inc();
        self.inner.counters.bytes_in.add(bytes);
        self.inner.appends.bump();
        Ok(offset)
    }

    /// Append a batch of messages to one partition, acquiring the partition
    /// log's write lock once for the whole batch (and checking acks /
    /// charging the throttle once). Returns the assigned offsets in input
    /// order — consecutive, since the lock is held across the batch.
    pub fn produce_batch(
        &self,
        topic: &str,
        partition: u32,
        messages: Vec<Message>,
        acks: AckMode,
    ) -> Result<Vec<u64>> {
        if messages.is_empty() {
            return Ok(Vec::new());
        }
        let t = self
            .topic(topic)
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))?;
        let log = t
            .partition(partition)
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })?;
        self.intercept(FaultOp::Produce, topic, partition)?;
        self.check_leader_and_acks(topic, partition, acks)?;
        let count = messages.len() as u64;
        let bytes: u64 = messages.iter().map(|m| m.payload_len() as u64).sum();
        if let Some(throttle) = self.inner.throttle.read().unwrap().clone() {
            let _ = throttle.charge(bytes, 0.0);
        }
        let mut offsets = Vec::with_capacity(messages.len());
        {
            let mut log = log.write().unwrap();
            for message in messages {
                offsets.push(log.append(message));
            }
        }
        self.inner.counters.messages_in.add(count);
        self.inner.counters.bytes_in.add(bytes);
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
        let t = self
            .topic(topic)
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))?;
        let log = t
            .partition(partition)
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })?;
        self.intercept(FaultOp::Fetch, topic, partition)?;
        self.check_leader_and_acks(topic, partition, AckMode::None)?;
        let mut result = log.read().unwrap().fetch(offset, max_records)?;
        if self.inner.has_replicated.load(Ordering::Relaxed) {
            // Cap visibility at the high watermark: records not yet
            // replicated to the ISR could still be truncated by a leader
            // failover, so consumers must not see them.
            let visible = self.visible_end(topic, partition, result.high_watermark);
            if visible < result.high_watermark {
                result.records.retain(|r| r.offset < visible);
                result.high_watermark = visible;
            }
        }
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

    /// Earliest retained offset of a partition.
    pub fn start_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        let t = self
            .topic(topic)
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))?;
        let log = t
            .partition(partition)
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })?;
        let off = log.read().unwrap().start_offset();
        Ok(off)
    }

    /// Offset one past the newest record of a partition ("log end offset").
    pub fn end_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        let t = self
            .topic(topic)
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))?;
        let log = t
            .partition(partition)
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })?;
        let off = log.read().unwrap().end_offset();
        Ok(off)
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
        let t = self
            .topic(topic)
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))?;
        let log = t
            .partition(partition)
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })?;
        let mut reps = self.inner.replicas.lock().unwrap();
        let rs = reps
            .get_mut(&TopicPartition::new(topic, partition))
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })?;
        // Lock order everywhere is replicas -> log.
        let mut log = log.write().unwrap();
        let committed = rs.fail_leader(log.end_offset(), topic, partition)?;
        log.truncate_to(committed);
        self.inner.counters.leader_epoch_bumps.inc();
        Ok(rs.leader_epoch())
    }

    /// Fail follower `idx` of a partition's replica set (it stops
    /// replicating and leaves the ISR).
    pub fn fail_follower(&self, topic: &str, partition: u32, idx: usize) -> Result<()> {
        let mut reps = self.inner.replicas.lock().unwrap();
        let rs = reps
            .get_mut(&TopicPartition::new(topic, partition))
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })?;
        if rs.fail_follower(idx, true) {
            self.inner.counters.isr_shrinks.inc();
        }
        Ok(())
    }

    /// Restore a previously failed follower; it rejoins the ISR once caught
    /// up via [`replication_tick`](Broker::replication_tick).
    pub fn restore_follower(&self, topic: &str, partition: u32, idx: usize) -> Result<()> {
        let mut reps = self.inner.replicas.lock().unwrap();
        let rs = reps
            .get_mut(&TopicPartition::new(topic, partition))
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })?;
        rs.restore_follower(idx);
        Ok(())
    }

    /// Current leader epoch of a partition (0 until the first failover).
    pub fn leader_epoch(&self, topic: &str, partition: u32) -> Result<u64> {
        let reps = self.inner.replicas.lock().unwrap();
        reps.get(&TopicPartition::new(topic, partition))
            .map(|rs| rs.leader_epoch())
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })
    }

    /// The committed offset (high watermark) of a partition — the highest
    /// offset fetches can observe under replication.
    pub fn high_watermark(&self, topic: &str, partition: u32) -> Result<u64> {
        let end = self.end_offset(topic, partition)?;
        Ok(self.visible_end(topic, partition, end))
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
    use crate::log::SegmentConfig;
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
        let cfg = TopicConfig::with_partitions(1)
            .segment(SegmentConfig::default())
            .replication(ReplicationConfig {
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
    fn produce_batch_assigns_consecutive_offsets() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::with_partitions(2))
            .unwrap();
        b.produce("t", 0, Message::new("seed")).unwrap();
        let offs = b
            .produce_batch(
                "t",
                0,
                vec![Message::new("a"), Message::new("b"), Message::new("c")],
                AckMode::Leader,
            )
            .unwrap();
        assert_eq!(offs, vec![1, 2, 3]);
        assert!(b
            .produce_batch("t", 0, Vec::new(), AckMode::Leader)
            .unwrap()
            .is_empty());
        let fetched = b.fetch("t", 0, 1, 10).unwrap();
        assert_eq!(fetched.records.len(), 3);
        assert_eq!(fetched.records[2].message.value.as_ref(), b"c");
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
