//! Cluster-simulation tests: job submission, parallel containers, failure
//! injection with state restore, and job isolation.

use samzasql_kafka::{Broker, Message, TopicConfig};
use samzasql_samza::{
    ClusterSim, IncomingMessageEnvelope, InputStreamConfig, JobConfig, MessageCollector,
    NodeConfig, OutgoingMessageEnvelope, Result, StoreConfig, StreamTask, TaskContext,
    TaskCoordinator, TaskFactory,
};
use samzasql_testkit::wait_until;
use std::sync::Arc;
use std::time::Duration;

struct Echo;
impl StreamTask for Echo {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        _ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        collector.send(OutgoingMessageEnvelope::new(
            "out",
            envelope.payload.clone(),
        ));
        Ok(())
    }
}

struct EchoFactory;
impl TaskFactory for EchoFactory {
    fn create(&self, _partition: u32) -> Box<dyn StreamTask> {
        Box::new(Echo)
    }
}

fn count_topic(broker: &Broker, topic: &str) -> u64 {
    let parts = broker.partition_count(topic).unwrap();
    (0..parts)
        .map(|p| broker.end_offset(topic, p).unwrap())
        .sum()
}

#[test]
fn submitted_job_processes_live_traffic() {
    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(4))
        .unwrap();
    broker
        .create_topic("out", TopicConfig::with_partitions(4))
        .unwrap();
    let cluster = ClusterSim::single_node(broker.clone());
    let cfg = JobConfig::new("echo")
        .input(InputStreamConfig::new("in"))
        .containers(2);
    let handle = cluster.submit(cfg, Arc::new(EchoFactory)).unwrap();

    for i in 0..200u32 {
        broker
            .produce("in", i % 4, Message::new(format!("{i}")))
            .unwrap();
    }
    wait_until("200 messages processed", Duration::from_secs(10), || {
        handle.processed() >= 200
    });
    handle.stop().unwrap();
    assert_eq!(count_topic(&broker, "out"), 200);
}

#[test]
fn duplicate_job_submission_rejected() {
    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    let cluster = ClusterSim::single_node(broker);
    let cfg = JobConfig::new("dup").input(InputStreamConfig::new("in"));
    let h = cluster.submit(cfg.clone(), Arc::new(EchoFactory)).unwrap();
    assert!(cluster.submit(cfg, Arc::new(EchoFactory)).is_err());
    h.stop().unwrap();
}

#[test]
fn capacity_limits_are_enforced() {
    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(4))
        .unwrap();
    let cluster = ClusterSim::new(broker, vec![NodeConfig::new("tiny", 1)]);
    let cfg = JobConfig::new("big")
        .input(InputStreamConfig::new("in"))
        .containers(4);
    assert!(cluster.submit(cfg, Arc::new(EchoFactory)).is_err());
}

#[test]
fn jobs_are_isolated() {
    // Two jobs; stopping one leaves the other running (masterless design).
    let broker = Broker::new();
    broker
        .create_topic("in1", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("in2", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("out", TopicConfig::with_partitions(1))
        .unwrap();
    let cluster = ClusterSim::single_node(broker.clone());
    let h1 = cluster
        .submit(
            JobConfig::new("j1").input(InputStreamConfig::new("in1")),
            Arc::new(EchoFactory),
        )
        .unwrap();
    let h2 = cluster
        .submit(
            JobConfig::new("j2").input(InputStreamConfig::new("in2")),
            Arc::new(EchoFactory),
        )
        .unwrap();
    h1.stop().unwrap();
    broker
        .produce("in2", 0, Message::new("still alive"))
        .unwrap();
    wait_until(
        "j2 processes after j1 stops",
        Duration::from_secs(10),
        || h2.processed() >= 1,
    );
    assert_eq!(cluster.running_jobs(), vec!["j2".to_string()]);
    h2.stop().unwrap();
}

/// Stateful counter task used to verify state restoration across a kill.
struct Counter;
impl StreamTask for Counter {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let key = envelope.key.clone().expect("keyed input");
        let store = ctx.store_mut("c")?;
        let n = store
            .get(&key)
            .map(|b| u64::from_le_bytes(b.as_ref().try_into().expect("8")))
            .unwrap_or(0)
            + 1;
        store.put(
            &key,
            samzasql_kafka::Bytes::copy_from_slice(&n.to_le_bytes()),
        )?;
        collector.send(OutgoingMessageEnvelope::new("out", format!("{n}")).keyed(key));
        Ok(())
    }
}

struct CounterFactory;
impl TaskFactory for CounterFactory {
    fn create(&self, _partition: u32) -> Box<dyn StreamTask> {
        Box::new(Counter)
    }
}

/// A respawned container mints the same `(job, container, task)` series
/// as the incarnation it replaces, so the series continue across the
/// respawn instead of resetting.
#[test]
fn task_series_continue_across_a_respawn() {
    let broker = Broker::new();
    for topic in ["in", "out"] {
        broker
            .create_topic(topic, TopicConfig::with_partitions(1))
            .unwrap();
    }
    let cluster = ClusterSim::single_node(broker.clone());
    let mut cfg = JobConfig::new("echo").input(InputStreamConfig::new("in"));
    // Every message is checkpointed as it is processed, so the respawn
    // replays nothing and the series counts each message once.
    cfg.commit_interval_messages = 1;
    let handle = cluster.submit(cfg, Arc::new(EchoFactory)).unwrap();
    let labels = [("job", "echo"), ("container", "0"), ("task", "0")];
    let processed = || {
        let snap = broker.metrics_registry().snapshot_prefix("samza.task.");
        snap.counter("samza.task.messages_processed", &labels)
            .unwrap()
    };

    for i in 0..30 {
        broker
            .produce("in", 0, Message::new(format!("{i}")))
            .unwrap();
    }
    wait_until("30 processed", Duration::from_secs(10), || {
        processed() == 30
    });
    handle.kill_container(0).unwrap();
    assert_eq!(cluster.container_generation("echo", 0), Some(1));
    // The replacement is built and running, and has seen no new input.
    let mut seen = vec![30, processed()];
    for i in 30..50 {
        broker
            .produce("in", 0, Message::new(format!("{i}")))
            .unwrap();
    }
    wait_until("50 processed", Duration::from_secs(10), || {
        seen.push(processed());
        seen[seen.len() - 1] >= 50
    });
    assert!(
        seen.windows(2).all(|w| w[0] <= w[1]),
        "messages_processed decreased across the respawn: {seen:?}"
    );
    assert_eq!(processed(), 50);
    handle.stop().unwrap();
}

#[test]
fn kill_and_restart_restores_state_and_resumes() {
    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("out", TopicConfig::with_partitions(1))
        .unwrap();
    let cluster = ClusterSim::new(
        broker.clone(),
        vec![NodeConfig::new("n0", 4), NodeConfig::new("n1", 4)],
    );
    let mut cfg = JobConfig::new("counter")
        .input(InputStreamConfig::new("in"))
        .store(StoreConfig::with_changelog("c", "counter"));
    // Commit often so the kill loses little (but possibly some) progress.
    cfg.commit_interval_messages = 1;
    let handle = cluster.submit(cfg, Arc::new(CounterFactory)).unwrap();

    for _ in 0..50 {
        broker.produce("in", 0, Message::keyed("k", "x")).unwrap();
    }
    wait_until("first 50 processed", Duration::from_secs(10), || {
        handle.processed() >= 50
    });

    handle.kill_container(0).unwrap();

    for _ in 0..50 {
        broker.produce("in", 0, Message::keyed("k", "x")).unwrap();
    }
    wait_until("remaining 50 processed", Duration::from_secs(10), || {
        handle.processed() >= 100
    });
    handle.stop().unwrap();

    // The final count must be exactly 100: the restored store continued from
    // the changelog; replayed messages (if the kill lost a commit) re-derive
    // the same per-message counts because state and input replay from the
    // same consistent point (§4.3's determinism claim).
    let mut last = None;
    let mut off = 0;
    loop {
        let batch = broker.fetch("out", 0, off, 1024).unwrap();
        if batch.records.is_empty() {
            break;
        }
        for r in batch.records {
            off = r.offset + 1;
            last = Some(String::from_utf8(r.message.value.to_vec()).unwrap());
        }
    }
    assert_eq!(last.as_deref(), Some("100"));
}

#[test]
fn killed_container_moves_to_least_loaded_node() {
    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    let cluster = ClusterSim::new(
        broker.clone(),
        vec![NodeConfig::new("n0", 2), NodeConfig::new("n1", 2)],
    );
    let handle = cluster
        .submit(
            JobConfig::new("mover").input(InputStreamConfig::new("in")),
            Arc::new(EchoFactory),
        )
        .unwrap();
    let before: u32 = cluster.node_usage().iter().map(|(_, used, _)| used).sum();
    handle.kill_container(0).unwrap();
    let after: u32 = cluster.node_usage().iter().map(|(_, used, _)| used).sum();
    assert_eq!(before, after, "restart keeps total slot usage constant");
    handle.stop().unwrap();
    let freed: u32 = cluster.node_usage().iter().map(|(_, used, _)| used).sum();
    assert_eq!(freed, 0, "stop frees all slots");
}
