//! Idle containers park instead of spinning. A container whose step finds
//! no input blocks on the broker until a produce call (or its park
//! timeout), counting one `samza.container.idle_waits` per park; stop, kill
//! and crash wake it. Every wait below is on a condition, never a fixed
//! sleep.

use samzasql_kafka::{Broker, Message, TopicConfig};
use samzasql_samza::{
    ClusterSim, Container, IncomingMessageEnvelope, InputStreamConfig, JobConfig, JobModel,
    MessageCollector, OutgoingMessageEnvelope, Result, StreamTask, TaskContext, TaskCoordinator,
    TaskFactory,
};
use samzasql_testkit::wait_until;
use std::sync::Arc;
use std::time::Duration;

const PARTITIONS: u32 = 32;

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

fn broker() -> Broker {
    let broker = Broker::new();
    for topic in ["in", "out"] {
        broker
            .create_topic(topic, TopicConfig::with_partitions(PARTITIONS))
            .unwrap();
    }
    broker
}

fn config(containers: u32) -> JobConfig {
    JobConfig::new("echo")
        .input(InputStreamConfig::new("in"))
        .containers(containers)
}

/// Longest any wait below may take.
const WAIT: Duration = Duration::from_secs(30);

fn idle_waits(broker: &Broker, container: &str) -> u64 {
    broker
        .metrics_registry()
        .snapshot_prefix("samza.container.idle_waits")
        .counter(
            "samza.container.idle_waits",
            &[("job", "echo"), ("container", container)],
        )
        .unwrap_or(0)
}

#[test]
fn every_empty_step_parks_once_and_a_produce_ends_the_park() {
    let broker = broker();
    let cfg = config(1);
    let model = JobModel::plan(&cfg, &broker).unwrap();
    let cm = model.containers[0].clone();
    let mut container = Container::new(broker.clone(), cfg, cm, &EchoFactory).unwrap();
    container.init().unwrap();

    let stepper = std::thread::spawn(move || {
        let mut empty_steps = 0u64;
        while container.step_or_park().unwrap() == 0 {
            empty_steps += 1;
        }
        empty_steps
    });
    // Produce only once the container is blocked in the broker.
    wait_until("the container to park", WAIT, || {
        broker.parked_waiters() == 1
    });
    broker.produce("in", 3, Message::new("x")).unwrap();
    let empty_steps = stepper.join().unwrap();
    assert!(empty_steps >= 1);
    // One park per empty step, none after the step that processed.
    assert_eq!(idle_waits(&broker, "0"), empty_steps);
    assert_eq!(broker.parked_waiters(), 0);
}

#[test]
fn idle_job_parks_then_processes_a_later_produce() {
    let broker = broker();
    let cluster = ClusterSim::single_node(broker.clone());
    let handle = cluster.submit(config(2), Arc::new(EchoFactory)).unwrap();

    // Both container threads block in the broker: a spinning loop would
    // never be seen there.
    wait_until("both containers to park", WAIT, || {
        broker.parked_waiters() == 2
    });
    assert!(idle_waits(&broker, "0") >= 1);
    assert!(idle_waits(&broker, "1") >= 1);
    assert_eq!(handle.processed(), 0);

    // A kill wakes the parked incarnation; its replacement parks in turn.
    handle.kill_container(0).unwrap();
    wait_until("the replacement container to park", WAIT, || {
        broker.parked_waiters() == 2
    });

    for p in [0, PARTITIONS - 1] {
        broker.produce("in", p, Message::new("x")).unwrap();
    }
    wait_until("both records to be processed", WAIT, || {
        handle.processed() == 2
    });
    wait_until("both records to be echoed", WAIT, || {
        (0..PARTITIONS)
            .map(|p| broker.end_offset("out", p).unwrap())
            .sum::<u64>()
            == 2
    });

    // Stop wakes the parked containers and joins them.
    handle.stop().unwrap();
    assert_eq!(broker.parked_waiters(), 0);
}
