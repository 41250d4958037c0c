//! Bounded job execution (`run_bounded`): one container per task, run to
//! completion largest-first on one scoped worker thread per core, and the
//! output matches what one container produces serially — also on skewed
//! input. Also pins output routing when one flush spans topics with
//! different partition counts.

use samzasql_kafka::partitioner::hash_bytes;
use samzasql_kafka::{Broker, Message, TopicConfig};
use samzasql_samza::{
    run_bounded, worker_count, Container, IncomingMessageEnvelope, InputStreamConfig, JobConfig,
    JobModel, MessageCollector, OutgoingMessageEnvelope, Result, SamzaError, StreamTask,
    TaskContext, TaskCoordinator, TaskFactory,
};

const PARTITIONS: u32 = 8;

/// Forwards each payload to `out` (keyless, so it lands on the task's own
/// partition); emits a per-task summary at `window`. Fails on payload
/// `fail`, panics on payload `panic`.
struct EchoTask {
    seen: u64,
}

impl StreamTask for EchoTask {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        match &envelope.payload[..] {
            b"fail" => {
                return Err(SamzaError::Task {
                    task: ctx.task_name.clone(),
                    message: "bad record".into(),
                })
            }
            b"panic" => panic!("task blew up"),
            _ => {}
        }
        self.seen += 1;
        collector.send(OutgoingMessageEnvelope::new(
            "out",
            envelope.payload.clone(),
        ));
        Ok(())
    }

    fn window(
        &mut self,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let summary = format!("p{}:{}", ctx.partition, self.seen);
        collector.send(OutgoingMessageEnvelope::new("out", summary));
        Ok(())
    }
}

struct EchoFactory;
impl TaskFactory for EchoFactory {
    fn create(&self, _partition: u32) -> Box<dyn StreamTask> {
        Box::new(EchoTask { seen: 0 })
    }
}

fn broker_with_input() -> Broker {
    broker_with(|i| i % PARTITIONS)
}

/// Skewed input: partition 0 holds most records, partition 1 none, the rest
/// a few each.
fn broker_with_skewed_input() -> Broker {
    broker_with(|i| {
        if i % 10 < 7 {
            0
        } else {
            2 + i % (PARTITIONS - 2)
        }
    })
}

/// `in` and `out` on [`PARTITIONS`] partitions; record `i` of 200 goes to
/// input partition `partition_of(i)`.
fn broker_with(partition_of: impl Fn(u32) -> u32) -> Broker {
    let broker = Broker::new();
    for topic in ["in", "out"] {
        broker
            .create_topic(topic, TopicConfig::with_partitions(PARTITIONS))
            .unwrap();
    }
    for i in 0..200u32 {
        broker
            .produce("in", partition_of(i), Message::new(format!("m{i}")))
            .unwrap();
    }
    broker
}

fn config(name: &str) -> JobConfig {
    JobConfig::new(name).input(InputStreamConfig::new("in"))
}

/// Every record of `topic` as (partition, payload), partition then offset.
fn drain(broker: &Broker, topic: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for p in 0..broker.partition_count(topic).unwrap() {
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
fn worker_count_is_capped_by_work_and_at_least_one() {
    assert_eq!(worker_count(0), 1);
    assert_eq!(worker_count(1), 1);
    assert!(worker_count(PARTITIONS as usize) <= PARTITIONS as usize);
}

/// Run the echo job on one container, on this thread, over `broker`.
fn run_serial(broker: &Broker) {
    let cfg = config("serial").containers(1);
    let model = JobModel::plan(&cfg, broker).unwrap();
    let mut container = Container::new(
        broker.clone(),
        cfg,
        model.containers[0].clone(),
        &EchoFactory,
    )
    .unwrap();
    container.run_until_caught_up().unwrap();
    container.window_all().unwrap();
}

/// `run_bounded` over one copy of the input writes exactly what one serial
/// container writes over another.
fn assert_parallel_matches_serial(input: fn() -> Broker) {
    let serial = input();
    run_serial(&serial);
    let parallel = input();
    run_bounded(&parallel, config("parallel"), &EchoFactory).unwrap();
    let out = drain(&parallel, "out");
    assert_eq!(out, drain(&serial, "out"));
    // Every task ran its end-of-input window once.
    let summaries = out.iter().filter(|(_, v)| v.starts_with('p')).count();
    assert_eq!(summaries, PARTITIONS as usize);
}

#[test]
fn parallel_run_matches_one_serial_container() {
    assert_parallel_matches_serial(broker_with_input);
}

#[test]
fn skewed_input_matches_one_serial_container() {
    let input = broker_with_skewed_input();
    assert_eq!(input.end_offset("in", 0).unwrap(), 140);
    assert_eq!(input.end_offset("in", 1).unwrap(), 0);
    assert_parallel_matches_serial(broker_with_skewed_input);
}

#[test]
fn every_task_gets_a_container_of_its_own() {
    let broker = broker_with_skewed_input();
    run_bounded(&broker, config("placed"), &EchoFactory).unwrap();
    let snapshot = broker.metrics_registry().snapshot();
    let mut processed = 0;
    for p in 0..PARTITIONS {
        let id = p.to_string();
        let labels = [("job", "placed"), ("container", &id), ("task", &id)];
        processed += snapshot
            .counter("samza.task.messages_processed", &labels)
            .unwrap_or_else(|| panic!("task {p} not alone in container {p}"));
    }
    assert_eq!(processed, 200);
}

#[test]
fn failing_task_surfaces_as_error() {
    let broker = broker_with_input();
    broker
        .produce("in", PARTITIONS - 1, Message::new("fail"))
        .unwrap();
    let err = run_bounded(&broker, config("fails"), &EchoFactory).unwrap_err();
    assert!(err.to_string().contains("bad record"), "{err}");
    let last = (PARTITIONS - 1).to_string();
    let labels = [("job", "fails"), ("container", &last), ("task", &last)];
    let errors = broker.metrics_registry().snapshot();
    assert_eq!(
        errors.counter("samza.task.process_errors", &labels),
        Some(1)
    );
}

#[test]
#[should_panic(expected = "task blew up")]
fn panicking_task_re_raises() {
    let broker = broker_with_input();
    broker
        .produce("in", PARTITIONS - 1, Message::new("panic"))
        .unwrap();
    let _ = run_bounded(&broker, config("panics"), &EchoFactory);
}

/// Sends each input to two topics of different widths — keyed, keyless and
/// to an explicit partition — so one flush resolves several topics.
struct FanOutTask;

impl StreamTask for FanOutTask {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        _ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let key = envelope.key.clone().expect("keyed input");
        let payload = envelope.payload.clone();
        collector.send(OutgoingMessageEnvelope::new("out3", payload.clone()).keyed(key.clone()));
        collector.send(OutgoingMessageEnvelope::new("out5", payload.clone()).keyed(key));
        collector.send(OutgoingMessageEnvelope::new("out3", payload.clone()));
        collector.send(OutgoingMessageEnvelope::new("out5", payload).to_partition(4));
        Ok(())
    }
}

#[test]
fn one_flush_routes_each_topic_by_its_own_partition_count() {
    let broker = Broker::new();
    for (topic, partitions) in [("in", 2), ("out3", 3), ("out5", 5)] {
        broker
            .create_topic(topic, TopicConfig::with_partitions(partitions))
            .unwrap();
    }
    for i in 0..40u32 {
        broker
            .produce(
                "in",
                i % 2,
                Message::keyed(format!("k{i}"), format!("m{i}")),
            )
            .unwrap();
    }
    let cfg = JobConfig::new("fan").input(InputStreamConfig::new("in"));
    let model = JobModel::plan(&cfg, &broker).unwrap();
    let mut container = Container::new(broker.clone(), cfg, model.containers[0].clone(), &|_| {
        Box::new(FanOutTask) as Box<dyn StreamTask>
    })
    .unwrap();
    container.run_until_caught_up().unwrap();

    let mut want3 = Vec::new();
    let mut want5 = Vec::new();
    for i in 0..40u32 {
        let h = hash_bytes(format!("k{i}").as_bytes());
        want3.push((h % 3, format!("m{i}")));
        want3.push(((i % 2) % 3, format!("m{i}")));
        want5.push((h % 5, format!("m{i}")));
        want5.push((4, format!("m{i}")));
    }
    let sorted = |mut v: Vec<(u32, String)>| {
        v.sort();
        v
    };
    assert_eq!(sorted(drain(&broker, "out3")), sorted(want3));
    assert_eq!(sorted(drain(&broker, "out5")), sorted(want5));
}
