//! Leader-failover and bounded-retry acceptance tests (ISSUE 4).
//!
//! * After `fail_leader()` mid-stream, no consumer ever observes a record
//!   beyond the pre-failover committed offset, and producers resume after
//!   the epoch bump via retries alone — no job restart, no reassignment.
//! * A permanently failing partition surfaces a non-retriable error within
//!   the configured attempt/budget limits instead of hanging.

use samzasql_kafka::{
    AckMode, Broker, Consumer, FaultInjector, FaultKind, FaultOp, FaultSchedule, FaultSpec,
    KafkaError, Message, Producer, ReplicationConfig, Retrier, RetryPolicy, TopicConfig,
};

/// A `kafka.broker.<name>` counter from the broker's registry.
fn broker_counter(b: &Broker, name: &str) -> u64 {
    b.metrics_registry()
        .snapshot()
        .counter(&format!("kafka.broker.{name}"), &[])
        .unwrap()
}

fn replicated_topic(broker: &Broker, name: &str) {
    broker
        .create_topic(
            name,
            TopicConfig::with_partitions(1).replication(ReplicationConfig {
                replication_factor: 3,
                min_insync_replicas: 2,
                records_per_tick: 4,
                max_lag_records: 1_000,
                election_ticks: 3,
            }),
        )
        .unwrap();
}

#[test]
fn fetch_visibility_is_capped_at_high_watermark() {
    let b = Broker::new();
    replicated_topic(&b, "t");
    let p = Producer::key_hash(b.clone());
    for i in 0..10u8 {
        p.send_to("t", 0, Message::new(vec![i])).unwrap();
    }
    // No ticks yet: nothing is replicated, nothing is visible.
    assert_eq!(b.high_watermark("t", 0).unwrap(), 0);
    let mut c = Consumer::new(b.clone());
    c.assign("t", 0..1);
    assert!(c.poll(100).is_empty(), "unreplicated records are invisible");
    // Two ticks replicate 8 records; exactly those become visible.
    b.replication_tick();
    b.replication_tick();
    assert_eq!(b.high_watermark("t", 0).unwrap(), 8);
    let offsets: Vec<u64> = c.poll(100).iter().map(|r| r.offset).collect();
    assert_eq!(offsets, (0..8).collect::<Vec<u64>>());
}

#[test]
fn leader_failover_loses_only_unreplicated_records_and_producers_resume() {
    let b = Broker::new();
    replicated_topic(&b, "t");
    let p = Producer::key_hash(b.clone());
    let mut c = Consumer::new(b.clone());
    c.assign("t", 0..1);

    let mut observed: Vec<u64> = Vec::new();
    for i in 0..20u8 {
        p.send_to("t", 0, Message::new(vec![i])).unwrap();
    }
    b.replication_tick();
    b.replication_tick(); // followers at 8 of 20
    observed.extend(c.poll(100).iter().map(|r| r.offset));

    let pre_committed = b.high_watermark("t", 0).unwrap();
    assert_eq!(pre_committed, 8);
    assert!(
        observed.iter().all(|&o| o < pre_committed),
        "no consumer may see past the committed offset: {observed:?}"
    );

    // Kill the leader. Offsets 8..20 were acknowledged with acks=1 but never
    // replicated — they die with the leader, as in Kafka.
    let epoch = b.fail_leader("t", 0).unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(b.leader_epoch("t", 0).unwrap(), 1);
    assert_eq!(
        b.end_offset("t", 0).unwrap(),
        pre_committed,
        "log truncates to the committed offset"
    );

    // While the election is pending, a non-retrying producer sees the
    // retriable LeaderNotAvailable carrying the new epoch.
    let bare = Producer::key_hash(b.clone()).retry(Retrier::disabled());
    match bare.send_to("t", 0, Message::new("x")) {
        Err(KafkaError::LeaderNotAvailable {
            topic,
            partition,
            epoch,
        }) => {
            assert_eq!((topic.as_str(), partition, epoch), ("t", 0, 1));
        }
        other => panic!("expected LeaderNotAvailable, got {other:?}"),
    }

    // The default producer rides the election out via retries alone.
    let md = p.send_to("t", 0, Message::new("resumed")).unwrap();
    assert_eq!(
        md.offset, pre_committed,
        "new writes continue from the truncation point"
    );
    assert!(p.retrier().metrics().retries.get() > 0);

    // The consumer (positioned at the old high watermark) keeps polling
    // through the failover and sees the new record once it replicates.
    b.replication_tick();
    let after: Vec<(u64, Vec<u8>)> = c
        .poll(100)
        .into_iter()
        .map(|r| (r.offset, r.message.value.to_vec()))
        .collect();
    assert_eq!(after, vec![(pre_committed, b"resumed".to_vec())]);
    observed.extend(after.iter().map(|(o, _)| *o));
    assert!(
        observed.windows(2).all(|w| w[1] == w[0] + 1),
        "offsets stay dense across failover: {observed:?}"
    );
    assert_eq!(broker_counter(&b, "leader_epoch_bumps"), 1);
}

#[test]
fn failover_without_in_sync_follower_is_refused() {
    let b = Broker::new();
    b.create_topic(
        "t",
        TopicConfig::with_partitions(1).replication(ReplicationConfig {
            replication_factor: 2,
            min_insync_replicas: 1,
            records_per_tick: 1,
            max_lag_records: 2,
            election_ticks: 3,
        }),
    )
    .unwrap();
    let p = Producer::key_hash(b.clone());
    for i in 0..10u8 {
        p.send_to("t", 0, Message::new(vec![i])).unwrap();
    }
    b.replication_tick(); // follower at 1, lag 9 > 2: ejected from ISR
    assert!(matches!(
        b.fail_leader("t", 0),
        Err(KafkaError::NotEnoughReplicas { .. })
    ));
    assert_eq!(b.leader_epoch("t", 0).unwrap(), 0);
    // The partition still serves traffic from the surviving leader.
    assert!(p.send_to("t", 0, Message::new("still-up")).is_ok());
}

#[test]
fn acks_all_respects_min_isr_after_follower_failure() {
    let b = Broker::new();
    replicated_topic(&b, "t");
    let p = Producer::key_hash(b.clone())
        .acks(AckMode::All)
        .retry(Retrier::disabled());
    p.send_to("t", 0, Message::new("a")).unwrap();
    // Kill both followers: ISR falls to the leader alone, below min 2.
    b.fail_follower("t", 0, 0).unwrap();
    b.fail_follower("t", 0, 1).unwrap();
    match p.send_to("t", 0, Message::new("b")) {
        Err(KafkaError::NotEnoughReplicas { topic, partition }) => {
            assert_eq!((topic.as_str(), partition), ("t", 0));
        }
        other => panic!("expected NotEnoughReplicas, got {other:?}"),
    }
    assert!(broker_counter(&b, "isr_shrinks") >= 2);
    // Restore one follower; after catching up, acks=all works again.
    b.restore_follower("t", 0, 0).unwrap();
    b.replication_tick();
    assert!(broker_counter(&b, "isr_expands") >= 1);
    p.send_to("t", 0, Message::new("c")).unwrap();
}

#[test]
fn permanently_failing_partition_surfaces_bounded_error() {
    let b = Broker::new();
    b.create_topic("t", TopicConfig::with_partitions(1))
        .unwrap();
    b.set_fault_injector(Some(FaultInjector::with_specs(
        11,
        vec![FaultSpec::any(FaultKind::Unavailable, FaultSchedule::Always).on_topic("t")],
    )));

    let started = std::time::Instant::now();
    let p = Producer::key_hash(b.clone());
    match p.send_to("t", 0, Message::new("doomed")) {
        Err(KafkaError::RetriesExhausted { attempts, last }) => {
            assert!(attempts <= p.retrier().policy().max_attempts);
            assert!(last.is_retriable(), "wrapped cause is the transient error");
            assert_eq!(last.topic_partition(), Some(("t", 0)));
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(p.retrier().metrics().giveups.get(), 1);

    // Fetch side: the consumer's retrier gives up too and poll returns
    // empty rather than hanging.
    let mut c = Consumer::new(b.clone());
    c.assign("t", 0..1);
    assert!(c.poll(10).is_empty());
    assert_eq!(c.retrier().metrics().giveups.get(), 1);

    // The virtual clock means "within budget" costs no wall time.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "bounded retries must not wall-sleep through the budget"
    );
    assert_eq!(b.end_offset("t", 0).unwrap(), 0, "nothing ever appended");
}

#[test]
fn injected_fetch_window_heals_and_consumption_catches_up() {
    let b = Broker::new();
    b.create_topic("t", TopicConfig::with_partitions(1))
        .unwrap();
    let p = Producer::key_hash(b.clone());
    for i in 0..50u8 {
        p.send_to("t", 0, Message::new(vec![i])).unwrap();
    }
    // Fetches 0..5 on the partition fail; everything after succeeds.
    b.set_fault_injector(Some(FaultInjector::with_specs(
        3,
        vec![FaultSpec::any(
            FaultKind::Unavailable,
            FaultSchedule::Window { from: 0, count: 5 },
        )
        .on_op(FaultOp::Fetch)],
    )));
    let mut c = Consumer::new(b.clone()).retry(Retrier::new(
        RetryPolicy::default_client().attempts(3), // too few for the window at first
    ));
    c.assign("t", 0..1);
    let mut got = Vec::new();
    for _ in 0..10 {
        got.extend(c.poll(16).into_iter().map(|r| r.offset));
    }
    assert_eq!(got, (0..50).collect::<Vec<u64>>(), "no loss, no duplicates");
}
