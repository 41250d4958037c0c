//! Chaos-style integration tests for the coordination service: the cluster
//! simulation's application masters and the SQL shell share one [`Coord`]
//! znode tree, and fault injection on it (forced session expiry) must drive
//! the same recovery path a real ZooKeeper outage would — container
//! rescheduling with changelog-restored state.

use samzasql::coord::Coord;
use samzasql::kafka::{Broker, Message, TopicConfig};
use samzasql::prelude::*;
use samzasql::samza::{
    IncomingMessageEnvelope, InputStreamConfig, JobConfig, MessageCollector,
    OutgoingMessageEnvelope, OutputStreamConfig, Result as SamzaResult, StoreConfig, StreamTask,
    TaskContext, TaskCoordinator, TaskFactory,
};
use samzasql::serde::SerdeFormat;
use samzasql_testkit::wait_until;
use std::sync::Arc;
use std::time::Duration;

/// Stateful counter: per-key running count held in a changelog-backed store,
/// so a rescheduled container must restore state to keep the count exact.
struct Counter;
impl StreamTask for Counter {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> SamzaResult<()> {
        let key = envelope.key.clone().expect("keyed input");
        let store = ctx.store_mut("c")?;
        let n = store
            .get(&key)
            .map(|b| u64::from_le_bytes(b.as_ref().try_into().expect("8 bytes")))
            .unwrap_or(0)
            + 1;
        store.put(
            &key,
            samzasql::kafka::Bytes::copy_from_slice(&n.to_le_bytes()),
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

fn last_output(broker: &Broker) -> Option<String> {
    let mut last = None;
    let mut off = 0;
    loop {
        let batch = broker.fetch("out", 0, off, 1024).unwrap();
        if batch.records.is_empty() {
            return last;
        }
        for r in batch.records {
            off = r.offset + 1;
            last = Some(String::from_utf8(r.message.value.to_vec()).unwrap());
        }
    }
}

/// The acceptance scenario: the cluster runs over a coordination service
/// the test holds; force-expiring a container's session fires the AM's
/// liveness watch and reschedules the container with changelog-restored
/// state, with the coordination metrics reflecting the expiry.
#[test]
fn forced_session_expiry_reschedules_container() {
    let coord = Coord::new();
    let broker = Broker::new();
    let cluster = ClusterSim::with_coord(
        broker.clone(),
        vec![NodeConfig::new("n0", 4), NodeConfig::new("n1", 4)],
        coord.clone(),
    );

    // --- stateful job whose container we will "partition away" ---
    broker
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("out", TopicConfig::with_partitions(1))
        .unwrap();
    let mut cfg = JobConfig::new("counter")
        .input(InputStreamConfig::avro("in"))
        .output(OutputStreamConfig::avro("out"))
        .store(StoreConfig::with_changelog(
            "c",
            "counter",
            SerdeFormat::Object,
        ));
    cfg.commit_interval_messages = 1;
    let handle = cluster.submit(cfg, Arc::new(CounterFactory)).unwrap();

    for _ in 0..50 {
        broker.produce("in", 0, Message::keyed("k", "x")).unwrap();
    }
    wait_until("first 50 processed", Duration::from_secs(10), || {
        handle.processed() >= 50
    });

    let before = coord.metrics();
    let session = cluster
        .container_session("counter", 0)
        .expect("container registered");
    assert!(
        coord.exists("/samza/jobs/counter/containers/0"),
        "liveness znode"
    );

    // --- chaos: the container's session dies (ZK partition / GC pause) ---
    coord.force_expire(session).unwrap();
    wait_until(
        "AM watch fires and reschedules the container",
        Duration::from_secs(10),
        || cluster.container_generation("counter", 0) == Some(1),
    );
    let new_session = cluster
        .container_session("counter", 0)
        .expect("rescheduled");
    assert_ne!(
        new_session, session,
        "replacement container owns a fresh session"
    );
    assert!(
        coord.exists("/samza/jobs/counter/containers/0"),
        "replacement re-registers its ephemeral liveness znode"
    );

    for _ in 0..50 {
        broker.produce("in", 0, Message::keyed("k", "x")).unwrap();
    }
    wait_until("remaining 50 processed", Duration::from_secs(10), || {
        handle.processed() >= 100
    });
    // Exactly 100: the replacement restored its store from the changelog and
    // resumed from the last checkpoint.
    assert_eq!(last_output(&broker).as_deref(), Some("100"));

    let after = coord.metrics();
    assert!(
        after.sessions_expired > before.sessions_expired,
        "container session expired"
    );
    assert!(
        after.watches_fired > before.watches_fired,
        "liveness watch fired"
    );
    assert!(
        after.ephemerals_reaped > before.ephemerals_reaped,
        "ephemerals reaped"
    );

    handle.stop().unwrap();
}

/// Deliberate restarts go through the same coordination machinery without
/// double-respawning: the AM closes the old session (watch fires, but the
/// handler sees the container already detached) and the replacement
/// re-registers.
#[test]
fn deliberate_restart_coexists_with_liveness_watches() {
    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(2))
        .unwrap();
    let cluster = ClusterSim::single_node(broker.clone());
    let handle = cluster
        .submit(
            JobConfig::new("echo")
                .input(InputStreamConfig::avro("in"))
                .containers(2),
            Arc::new(CounterFactoryLess),
        )
        .unwrap();
    let s0 = cluster.container_session("echo", 0).unwrap();
    handle.kill_container(0).unwrap();
    let s0b = cluster.container_session("echo", 0).unwrap();
    assert_ne!(s0, s0b);
    assert_eq!(cluster.container_generation("echo", 0), Some(1));
    assert_eq!(
        cluster.container_generation("echo", 1),
        Some(0),
        "other container untouched"
    );
    let m = cluster.coord().metrics();
    assert_eq!(
        m.sessions_expired, 0,
        "deliberate restart closes, never expires"
    );
    handle.stop().unwrap();
    assert!(
        !cluster.coord().exists("/samza/jobs/echo"),
        "stop_job clears the job subtree"
    );
}

struct CounterFactoryLess;
impl TaskFactory for CounterFactoryLess {
    fn create(&self, _partition: u32) -> Box<dyn StreamTask> {
        struct Noop;
        impl StreamTask for Noop {
            fn process(
                &mut self,
                _envelope: &IncomingMessageEnvelope,
                _ctx: &mut TaskContext,
                _collector: &mut MessageCollector,
                _coordinator: &mut TaskCoordinator,
            ) -> SamzaResult<()> {
                Ok(())
            }
        }
        Box::new(Noop)
    }
}

/// Step one / step two of two-step planning (§4.2) through the coordination
/// service: the shell stores the SQL and schema references under
/// `/samzasql/queries/<job>/…`, and the job's tasks re-plan from exactly
/// those znodes at init.
#[test]
fn shell_publishes_query_metadata_to_coordination_service() {
    let broker = Broker::new();
    broker
        .create_topic("orders", TopicConfig::with_partitions(2))
        .unwrap();
    let mut shell = SamzaSqlShell::new(broker.clone());
    shell
        .register_stream(
            "Orders",
            "orders",
            Schema::record(
                "Orders",
                vec![
                    ("rowtime", Schema::Timestamp),
                    ("productId", Schema::Int),
                    ("units", Schema::Int),
                ],
            ),
            "rowtime",
        )
        .unwrap();

    let sql = "SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 50";
    let mut handle = shell.submit(sql).unwrap();

    let coord = shell.coord();
    let jobs = coord.children("/samzasql/queries").unwrap();
    assert_eq!(jobs.len(), 1, "one job registered");
    let base = format!("/samzasql/queries/{}", jobs[0]);
    assert_eq!(coord.get(format!("{base}/sql")).unwrap(), sql);
    assert!(coord
        .get(format!("{base}/schema"))
        .unwrap()
        .ends_with("-value"));
    // The AM published the job model alongside.
    let job_base = format!("/samza/jobs/{}", jobs[0]);
    assert!(coord
        .get(format!("{job_base}/model"))
        .unwrap()
        .contains("\"containers\""));
    assert!(
        coord.exists(format!("{job_base}/containers/0")),
        "container liveness registered"
    );

    shell
        .produce(
            "Orders",
            Value::record(vec![
                ("rowtime", Value::Timestamp(1_000)),
                ("productId", Value::Int(7)),
                ("units", Value::Int(75)),
            ]),
        )
        .unwrap();
    let rows = handle.await_outputs(1, Duration::from_secs(5)).unwrap();
    assert_eq!(rows[0].field("units"), Some(&Value::Int(75)));
    handle.stop().unwrap();
}
