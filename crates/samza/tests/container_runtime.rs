//! Integration tests for the container runtime: processing, output routing,
//! bootstrap-stream priority, checkpoint/commit behaviour,
//! and store state and counters across container replacement.

use samzasql_kafka::{Broker, Bytes, Message, TopicConfig};
use samzasql_samza::{
    Container, IncomingMessageEnvelope, InputStreamConfig, JobConfig, JobModel, MessageCollector,
    OutgoingMessageEnvelope, Result, StreamTask, TaskContext, TaskCoordinator, TaskFactory,
};
use std::sync::Arc;

/// Forwards every payload to `out`, uppercased, preserving keys.
struct ForwardTask;

impl StreamTask for ForwardTask {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        _ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let text = String::from_utf8(envelope.payload.to_vec()).expect("utf8 payload");
        let mut out = OutgoingMessageEnvelope::new("out", text.to_uppercase());
        if let Some(k) = &envelope.key {
            out = out.keyed(k.clone());
        }
        collector.send(out.at(envelope.timestamp));
        Ok(())
    }
}

struct ForwardFactory;
impl TaskFactory for ForwardFactory {
    fn create(&self, _partition: u32) -> Box<dyn StreamTask> {
        Box::new(ForwardTask)
    }
}

fn drain_topic(broker: &Broker, topic: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let parts = broker.partition_count(topic).unwrap();
    for p in 0..parts {
        let mut off = 0;
        loop {
            let batch = broker.fetch(topic, p, off, 1024).unwrap();
            if batch.records.is_empty() {
                break;
            }
            for r in batch.records {
                off = r.offset + 1;
                out.push((p, String::from_utf8(r.message.value.to_vec()).unwrap()));
            }
        }
    }
    out
}

#[test]
fn container_processes_and_routes_output() {
    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(2))
        .unwrap();
    broker
        .create_topic("out", TopicConfig::with_partitions(2))
        .unwrap();
    broker.produce("in", 0, Message::new("a")).unwrap();
    broker.produce("in", 1, Message::new("b")).unwrap();
    broker.produce("in", 0, Message::new("c")).unwrap();

    let cfg = JobConfig::new("fwd")
        .input(InputStreamConfig::new("in"))
        .containers(1);
    let model = JobModel::plan(&cfg, &broker).unwrap();
    let mut container = Container::new(
        broker.clone(),
        cfg,
        model.containers[0].clone(),
        &ForwardFactory,
    )
    .unwrap();
    let processed = container.run_until_caught_up().unwrap();
    assert_eq!(processed, 3);

    let out = drain_topic(&broker, "out");
    assert_eq!(out.len(), 3);
    // Keyless outputs follow the task partition: partition preserved.
    assert!(out.contains(&(0, "A".to_string())));
    assert!(out.contains(&(1, "B".to_string())));
    assert!(out.contains(&(0, "C".to_string())));
}

#[test]
fn keyed_output_routes_by_key_hash() {
    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("out", TopicConfig::with_partitions(8))
        .unwrap();
    for i in 0..20 {
        broker
            .produce(
                "in",
                0,
                Message::keyed(format!("key-{}", i % 2), format!("m{i}")),
            )
            .unwrap();
    }
    let cfg = JobConfig::new("fwd").input(InputStreamConfig::new("in"));
    let model = JobModel::plan(&cfg, &broker).unwrap();
    let mut container = Container::new(
        broker.clone(),
        cfg,
        model.containers[0].clone(),
        &ForwardFactory,
    )
    .unwrap();
    container.run_until_caught_up().unwrap();
    // Same key ⇒ same output partition: exactly ≤2 partitions used.
    let parts: std::collections::HashSet<u32> = drain_topic(&broker, "out")
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    assert!(
        parts.len() <= 2,
        "two keys may map to at most two partitions: {parts:?}"
    );
}

/// Records the topic order in which messages arrive, to verify bootstrap
/// priority.
struct OrderRecordingTask {
    seen: Arc<std::sync::Mutex<Vec<String>>>,
}

impl StreamTask for OrderRecordingTask {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        _ctx: &mut TaskContext,
        _collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        self.seen.lock().unwrap().push(envelope.tp.topic.clone());
        Ok(())
    }
}

#[test]
fn bootstrap_stream_fully_drains_before_other_inputs() {
    let broker = Broker::new();
    broker
        .create_topic("orders", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("products", TopicConfig::with_partitions(1))
        .unwrap();
    for i in 0..50 {
        broker
            .produce("orders", 0, Message::new(format!("o{i}")))
            .unwrap();
        broker
            .produce("products", 0, Message::new(format!("p{i}")))
            .unwrap();
    }
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    let factory = move |_p: u32| -> Box<dyn StreamTask> {
        Box::new(OrderRecordingTask {
            seen: seen2.clone(),
        })
    };
    let cfg = JobConfig::new("join")
        .input(InputStreamConfig::new("orders"))
        .input(InputStreamConfig::new("products").bootstrap());
    let model = JobModel::plan(&cfg, &broker).unwrap();
    let mut container =
        Container::new(broker.clone(), cfg, model.containers[0].clone(), &factory).unwrap();
    container.run_until_caught_up().unwrap();

    let order = seen.lock().unwrap();
    assert_eq!(order.len(), 100);
    let first_orders = order.iter().position(|t| t == "orders").unwrap();
    let last_products_before = order[..first_orders]
        .iter()
        .filter(|t| *t == "products")
        .count();
    assert_eq!(
        last_products_before, 50,
        "all 50 products (bootstrap) must be delivered before the first order"
    );
}

#[test]
fn late_bootstrap_records_still_delivered_after_catchup() {
    // Records appended to a bootstrap stream *after* init flow normally.
    let broker = Broker::new();
    broker
        .create_topic("orders", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("products", TopicConfig::with_partitions(1))
        .unwrap();
    broker.produce("products", 0, Message::new("p0")).unwrap();
    broker.produce("orders", 0, Message::new("o0")).unwrap();

    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    let factory = move |_p: u32| -> Box<dyn StreamTask> {
        Box::new(OrderRecordingTask {
            seen: seen2.clone(),
        })
    };
    let cfg = JobConfig::new("join2")
        .input(InputStreamConfig::new("orders"))
        .input(InputStreamConfig::new("products").bootstrap());
    let model = JobModel::plan(&cfg, &broker).unwrap();
    let mut container =
        Container::new(broker.clone(), cfg, model.containers[0].clone(), &factory).unwrap();
    container.run_until_caught_up().unwrap();
    // A product update arriving later is consumed like a normal input.
    broker.produce("products", 0, Message::new("p1")).unwrap();
    container.run_until_caught_up().unwrap();
    assert_eq!(seen.lock().unwrap().len(), 3);
}

/// Counts window() invocations.
#[test]
fn restart_resumes_from_checkpoint_not_from_start() {
    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("out", TopicConfig::with_partitions(1))
        .unwrap();
    for i in 0..10 {
        broker
            .produce("in", 0, Message::new(format!("m{i}")))
            .unwrap();
    }
    let cfg = JobConfig::new("resume").input(InputStreamConfig::new("in"));
    let model = JobModel::plan(&cfg, &broker).unwrap();

    // First incarnation: process everything and commit.
    let mut c1 = Container::new(
        broker.clone(),
        cfg.clone(),
        model.containers[0].clone(),
        &ForwardFactory,
    )
    .unwrap();
    assert_eq!(c1.run_until_caught_up().unwrap(), 10);
    drop(c1);

    // More input arrives, then a fresh container (simulating restart).
    for i in 10..13 {
        broker
            .produce("in", 0, Message::new(format!("m{i}")))
            .unwrap();
    }
    let mut c2 = Container::new(
        broker.clone(),
        cfg,
        model.containers[0].clone(),
        &ForwardFactory,
    )
    .unwrap();
    let reprocessed = c2.run_until_caught_up().unwrap();
    assert_eq!(reprocessed, 3, "only messages after the checkpoint replay");
    assert_eq!(
        drain_topic(&broker, "out").len(),
        13,
        "no duplicated output"
    );
}

#[test]
fn commit_interval_produces_periodic_checkpoints() {
    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    for i in 0..100 {
        broker
            .produce("in", 0, Message::new(format!("{i}")))
            .unwrap();
    }
    let mut cfg = JobConfig::new("commits").input(InputStreamConfig::new("in"));
    cfg.commit_interval_messages = 25;
    let model = JobModel::plan(&cfg, &broker).unwrap();
    let factory = |_p: u32| -> Box<dyn StreamTask> {
        struct Nop;
        impl StreamTask for Nop {
            fn process(
                &mut self,
                _: &IncomingMessageEnvelope,
                _: &mut TaskContext,
                _: &mut MessageCollector,
                _: &mut TaskCoordinator,
            ) -> Result<()> {
                Ok(())
            }
        }
        Box::new(Nop)
    };
    let mut container =
        Container::new(broker.clone(), cfg, model.containers[0].clone(), &factory).unwrap();
    container.run_until_caught_up().unwrap();
    let labels = [("job", "commits"), ("container", "0"), ("task", "0")];
    let commits = broker
        .metrics_registry()
        .snapshot()
        .counter("samza.task.commits", &labels);
    assert!(
        commits >= Some(4),
        "100 msgs / interval 25 → at least 4 commits, got {commits:?}"
    );
}

/// Task that uses a changelog-backed store to count per-key occurrences.
struct CountTask;

impl StreamTask for CountTask {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let key = envelope
            .key
            .clone()
            .unwrap_or_else(|| Bytes::from_static(b"_"));
        let store = ctx.store_mut("counts")?;
        let current = store
            .get(&key)
            .map(|b| u64::from_le_bytes(b.as_ref().try_into().expect("8 bytes")))
            .unwrap_or(0);
        let next = current + 1;
        store.put(&key, Bytes::copy_from_slice(&next.to_le_bytes()))?;
        collector.send(OutgoingMessageEnvelope::new("out", format!("{next}")).keyed(key));
        Ok(())
    }
}

#[test]
fn store_state_survives_container_replacement() {
    use samzasql_samza::StoreConfig;

    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("out", TopicConfig::with_partitions(1))
        .unwrap();
    let cfg = JobConfig::new("counting")
        .input(InputStreamConfig::new("in"))
        .store(StoreConfig::with_changelog("counts", "counting"));
    let factory = |_p: u32| -> Box<dyn StreamTask> { Box::new(CountTask) };
    let model = JobModel::plan(&cfg, &broker).unwrap();

    for _ in 0..5 {
        broker.produce("in", 0, Message::keyed("k", "x")).unwrap();
    }
    let mut c1 = Container::new(
        broker.clone(),
        cfg.clone(),
        model.containers[0].clone(),
        &factory,
    )
    .unwrap();
    c1.run_until_caught_up().unwrap();
    drop(c1); // container dies; in-memory store gone

    // Both incarnations count into the same `samza.store.*` series, so
    // each one's accesses are a delta of it.
    let labels = [
        ("job", "counting"),
        ("container", "0"),
        ("task", "0"),
        ("store", "counts"),
    ];
    let store_series = || {
        let snap = broker.metrics_registry().snapshot_prefix("samza.store.");
        ["gets", "puts", "bytes_read"].map(|name| {
            snap.counter(&format!("samza.store.{name}"), &labels)
                .unwrap()
        })
    };
    let before = store_series();
    assert_eq!(
        before[..2],
        [5, 5],
        "first incarnation: one get and put per message"
    );

    for _ in 0..3 {
        broker.produce("in", 0, Message::keyed("k", "x")).unwrap();
    }
    let mut c2 =
        Container::new(broker.clone(), cfg, model.containers[0].clone(), &factory).unwrap();
    c2.run_until_caught_up().unwrap();

    // The store's own counters are the registry's series.
    let after = store_series();
    let own = c2
        .task_context(0)
        .unwrap()
        .store("counts")
        .unwrap()
        .metrics();
    assert_eq!([own.gets, own.puts, own.bytes_read], after);
    let delta = [0, 1, 2].map(|i| after[i] - before[i]);
    assert_eq!(delta[..2], [3, 3], "restore counts no access");
    assert!(delta[2] > 0);

    // The count continued from 5 → final message says 8.
    let out = drain_topic(&broker, "out");
    assert_eq!(
        out.last().unwrap().1,
        "8",
        "restored store continues the count: {out:?}"
    );
}
