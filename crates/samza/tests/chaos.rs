//! Seeded chaos harness over the paper's four query shapes.
//!
//! Each scenario runs a job twice over identical input: once fault-free
//! (the baseline) and once under a seeded fault schedule composing container
//! kills, session expiry, dropped heartbeats, input-leader failover, and
//! transient broker errors. The chaos run must converge
//! to output equivalent to the baseline after at-least-once dedup — outputs
//! are keyed by the input record's identity (`partition-offset`), so dedup
//! is exact and any replayed emission must carry the identical value
//! (the determinism §4.3 claims).
//!
//! Reproduce a failing schedule with `CHAOS_SEED=<seed> cargo test -p
//! samzasql-samza --test chaos`.

use samzasql_kafka::{Broker, Message, ReplicationConfig, Retrier, TopicConfig};
use samzasql_samza::{
    apply_fault, ChaosFault, ChaosScenario, ClusterSim, CommitPoint, Container,
    IncomingMessageEnvelope, InputStreamConfig, JobConfig, JobModel, MessageCollector, NodeConfig,
    OutgoingMessageEnvelope, Result, ScenarioOptions, StoreConfig, StreamTask, TaskContext,
    TaskCoordinator, TaskFactory,
};
use samzasql_testkit::wait_until_reporting;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const OUT: &str = "out";
const PARTITIONS: u32 = 2;
/// Stream records produced per partition.
const PER_PART: u64 = 300;
/// Distinct keys in the join relation (broadcast to every partition).
const REL_KEYS: u64 = 20;
/// Ring length of the sliding-window shape.
const WINDOW: usize = 10;

/// Pinned seeds for the CI chaos pass; `CHAOS_SEED` overrides with one seed.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("CHAOS_SEED must be an unsigned integer")],
        Err(_) => vec![11, 23, 37, 41, 53, 67],
    }
}

/// Deterministic input value stream, shared by baseline and chaos runs.
fn val(p: u32, i: u64) -> i64 {
    ((i * 7 + p as u64 * 13) % 90) as i64
}

/// Output key tying an emission to the input record that produced it.
fn input_id(env: &IncomingMessageEnvelope) -> String {
    format!("{}-{}", env.tp.partition, env.offset)
}

fn parse_i64(bytes: &[u8]) -> i64 {
    std::str::from_utf8(bytes).unwrap().trim().parse().unwrap()
}

fn emit(collector: &mut MessageCollector, env: &IncomingMessageEnvelope, value: String) {
    collector.send(
        OutgoingMessageEnvelope::new(OUT, value)
            .keyed(input_id(env))
            .to_partition(env.tp.partition),
    );
}

// ---------------------------------------------------------------------------
// The four query shapes as stream tasks.
// ---------------------------------------------------------------------------

/// `SELECT * FROM in WHERE v % 3 = 0`
struct FilterTask;
impl StreamTask for FilterTask {
    fn process(
        &mut self,
        env: &IncomingMessageEnvelope,
        _ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let v = parse_i64(&env.payload);
        if v % 3 == 0 {
            emit(collector, env, v.to_string());
        }
        Ok(())
    }
}

/// `SELECT v * 2 + 1 FROM in`
struct ProjectTask;
impl StreamTask for ProjectTask {
    fn process(
        &mut self,
        env: &IncomingMessageEnvelope,
        _ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let v = parse_i64(&env.payload);
        emit(collector, env, (v * 2 + 1).to_string());
        Ok(())
    }
}

/// Sliding sum over the last [`WINDOW`] rows per partition, with the ring
/// held in a changelog-backed store — the shape whose recovery exercises
/// state restore plus input replay.
struct WindowTask;
impl StreamTask for WindowTask {
    fn process(
        &mut self,
        env: &IncomingMessageEnvelope,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let v = parse_i64(&env.payload);
        let store = ctx.store_mut("win")?;
        let mut ring: Vec<i64> = match store.get(b"ring") {
            Some(bytes) => std::str::from_utf8(&bytes)
                .unwrap()
                .split(',')
                .map(|s| s.parse().unwrap())
                .collect(),
            None => Vec::new(),
        };
        ring.push(v);
        if ring.len() > WINDOW {
            ring.remove(0);
        }
        let sum: i64 = ring.iter().sum();
        let encoded = ring
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",");
        store.put(b"ring", encoded.into())?;
        emit(collector, env, sum.to_string());
        Ok(())
    }
}

/// Stream-to-relation join: the `rel` bootstrap input (re-read in full on
/// every restart) builds an in-memory relation; `orders` rows join on it.
#[derive(Default)]
struct JoinTask {
    relation: BTreeMap<String, String>,
}
impl StreamTask for JoinTask {
    fn process(
        &mut self,
        env: &IncomingMessageEnvelope,
        _ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let text = std::str::from_utf8(&env.payload).unwrap().to_string();
        let (left, right) = text.split_once(',').unwrap();
        if env.tp.topic == "rel" {
            self.relation.insert(left.to_string(), right.to_string());
        } else {
            let name = self.relation.get(left).cloned().unwrap_or("?".into());
            emit(collector, env, format!("{name}:{right}"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Filter,
    Project,
    Window,
    Join,
}

impl Shape {
    fn factory(self) -> Arc<dyn TaskFactory> {
        match self {
            Shape::Filter => Arc::new(|_p: u32| -> Box<dyn StreamTask> { Box::new(FilterTask) }),
            Shape::Project => Arc::new(|_p: u32| -> Box<dyn StreamTask> { Box::new(ProjectTask) }),
            Shape::Window => Arc::new(|_p: u32| -> Box<dyn StreamTask> { Box::new(WindowTask) }),
            Shape::Join => {
                Arc::new(|_p: u32| -> Box<dyn StreamTask> { Box::new(JoinTask::default()) })
            }
        }
    }

    /// The non-bootstrap input the driver streams records into.
    fn stream_topic(self) -> &'static str {
        match self {
            Shape::Join => "orders",
            _ => "in",
        }
    }

    /// All input topics (leader-failover targets).
    fn inputs(self) -> Vec<String> {
        match self {
            Shape::Join => vec!["orders".into(), "rel".into()],
            _ => vec!["in".into()],
        }
    }

    fn config(self, job: &str) -> JobConfig {
        let mut cfg = JobConfig::new(job).containers(PARTITIONS);
        cfg.commit_interval_messages = 16;
        match self {
            Shape::Join => cfg
                .input(InputStreamConfig::new("rel").bootstrap())
                .input(InputStreamConfig::new("orders")),
            Shape::Window => cfg
                .input(InputStreamConfig::new("in"))
                .store(StoreConfig::with_changelog("win", job)),
            _ => cfg.input(InputStreamConfig::new("in")),
        }
    }

    /// Payload of the `i`-th stream record on partition `p`.
    fn payload(self, p: u32, i: u64) -> String {
        match self {
            Shape::Join => format!("{},{}", (i + p as u64) % REL_KEYS, val(p, i)),
            _ => val(p, i).to_string(),
        }
    }

    /// How many distinct output keys a complete run must produce.
    fn expected_keys(self) -> usize {
        match self {
            Shape::Filter => (0..PARTITIONS)
                .map(|p| (0..PER_PART).filter(|&i| val(p, i) % 3 == 0).count())
                .sum(),
            _ => (PARTITIONS as u64 * PER_PART) as usize,
        }
    }
}

// ---------------------------------------------------------------------------
// Harness plumbing.
// ---------------------------------------------------------------------------

fn replicated(partitions: u32) -> TopicConfig {
    TopicConfig::with_partitions(partitions).replication(ReplicationConfig {
        replication_factor: 3,
        min_insync_replicas: 2,
        records_per_tick: 4096,
        max_lag_records: 1_000_000,
        election_ticks: 2,
    })
}

/// Fresh broker + two-node cluster with the shape's topics created; the
/// join relation is produced (broadcast) up front, like a bounded table.
fn setup(shape: Shape) -> (Broker, ClusterSim) {
    let broker = Broker::new();
    broker
        .create_topic(shape.stream_topic(), replicated(PARTITIONS))
        .unwrap();
    broker
        .create_topic(OUT, TopicConfig::with_partitions(PARTITIONS))
        .unwrap();
    if shape == Shape::Join {
        broker.create_topic("rel", replicated(PARTITIONS)).unwrap();
        for p in 0..PARTITIONS {
            for k in 0..REL_KEYS {
                broker
                    .produce("rel", p, Message::new(format!("{k},n{k}")))
                    .unwrap();
            }
        }
        broker.replication_tick();
    }
    let cluster = ClusterSim::new(
        broker.clone(),
        vec![NodeConfig::new("n0", 8), NodeConfig::new("n1", 8)],
    );
    (broker, cluster)
}

/// Read the whole output topic, deduping at-least-once replays by keeping
/// the FIRST emission per input id (what a deduping downstream consumer
/// sees). With `strict`, any replayed emission must carry a value identical
/// to the first — true whenever crash recovery restores a state/checkpoint
/// pair from the same commit, i.e. for every fault except a surgical crash
/// between changelog flush and checkpoint write.
fn read_output(broker: &Broker, strict: bool) -> BTreeMap<String, String> {
    // The reader rides out injected broker faults like any other client.
    let retrier = samzasql_kafka::Retrier::default();
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    for p in 0..broker.partition_count(OUT).unwrap() {
        let end = broker.end_offset(OUT, p).unwrap();
        let mut offset = broker.start_offset(OUT, p).unwrap();
        while offset < end {
            let batch = retrier.run(|| broker.fetch(OUT, p, offset, 1024)).unwrap();
            if batch.records.is_empty() {
                break;
            }
            for rec in &batch.records {
                offset = rec.offset + 1;
                let key = String::from_utf8(rec.message.key.clone().unwrap().to_vec()).unwrap();
                let value = String::from_utf8(rec.message.value.to_vec()).unwrap();
                if let Some(prior) = seen.get(&key) {
                    if strict {
                        assert_eq!(
                            prior, &value,
                            "replayed emission for input {key} diverged — recovery is not \
                             deterministic"
                        );
                    }
                } else {
                    seen.insert(key, value);
                }
            }
        }
    }
    seen
}

fn dedup_output(broker: &Broker) -> BTreeMap<String, String> {
    read_output(broker, true)
}

/// Run one shape to completion, optionally under a chaos schedule, and
/// return the deduped output. Input is streamed in chunks so fault events
/// (keyed to messages processed) genuinely interleave with processing.
fn run_shape(
    shape: Shape,
    seed: u64,
    scenario: Option<&ChaosScenario>,
) -> BTreeMap<String, String> {
    let (broker, cluster) = setup(shape);
    let mode = if scenario.is_some() { "chaos" } else { "base" };
    let job = format!("{shape:?}-{seed}-{mode}").to_lowercase();
    let handle = cluster.submit(shape.config(&job), shape.factory()).unwrap();

    // Input appends ride out injected faults and leader elections.
    let retrier = Retrier::default();
    let inputs = shape.inputs();
    let no_events = [];
    let events = scenario.map_or(&no_events[..], |s| &s.events[..]);
    let expected = shape.expected_keys();

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut produced = 0u64;
    let mut next_event = 0usize;
    let mut last_processed = 0u64;
    let mut stalled_rounds = 0u32;
    const CHUNK: u64 = 25;
    loop {
        assert!(
            Instant::now() < deadline,
            "seed {seed} shape {shape:?}: no convergence \
             (produced {produced}/{PER_PART}, events {next_event}/{}, \
             output {}/{expected})",
            events.len(),
            dedup_output(&broker).len(),
        );
        if produced < PER_PART {
            for i in produced..(produced + CHUNK).min(PER_PART) {
                for p in 0..PARTITIONS {
                    let message = Message::new(shape.payload(p, i));
                    retrier
                        .run(|| broker.produce(shape.stream_topic(), p, message.clone()))
                        .unwrap();
                }
            }
            produced = (produced + CHUNK).min(PER_PART);
        }
        // Replication must keep pace or consumers stall at the high
        // watermark; the tick also drives pending leader elections.
        broker.replication_tick();

        let processed = handle.processed();
        stalled_rounds = if processed == last_processed {
            stalled_rounds + 1
        } else {
            0
        };
        last_processed = processed;
        while next_event < events.len()
            && (processed >= events[next_event].after_messages
                // The job drained ahead of the schedule: fire the remaining
                // faults anyway so every scenario applies its full schedule.
                || (produced >= PER_PART && stalled_rounds > 30))
        {
            let fault = &events[next_event].fault;
            if matches!(fault, ChaosFault::KillLeader { .. }) {
                // Let replication catch up first, so failover truncation
                // (acked-but-unreplicated loss) cannot eat input the
                // baseline processed — the equivalence target is recovery,
                // not the broker's (intended) acks=1 loss window.
                for _ in 0..3 {
                    broker.replication_tick();
                }
            }
            apply_fault(&cluster, &job, &inputs, fault).unwrap();
            stalled_rounds = 0;
            next_event += 1;
        }

        if produced >= PER_PART
            && next_event >= events.len()
            && dedup_output(&broker).len() >= expected
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // Quiesce: heal every standing fault, then stop (final commits).
    broker.set_fault_injector(None);
    std::thread::sleep(Duration::from_millis(20));
    handle.stop().unwrap();
    dedup_output(&broker)
}

// ---------------------------------------------------------------------------
// The chaos matrix: every shape × every pinned seed.
// ---------------------------------------------------------------------------

fn scenario_for(shape: Shape, seed: u64) -> ChaosScenario {
    ChaosScenario::generate(
        seed,
        &ScenarioOptions {
            events: 6,
            containers: PARTITIONS,
            replicated_inputs: shape.inputs().len(),
            partitions: PARTITIONS,
            first_at: 60,
            gap: 90,
        },
    )
}

fn chaos_matrix(shape: Shape) {
    let baseline = run_shape(shape, 0, None);
    assert_eq!(
        baseline.len(),
        shape.expected_keys(),
        "fault-free baseline must be complete"
    );
    for seed in chaos_seeds() {
        let scenario = scenario_for(shape, seed);
        assert_eq!(
            scenario,
            scenario_for(shape, seed),
            "fault schedule must be identical per seed"
        );
        let chaotic = run_shape(shape, seed, Some(&scenario));
        assert_eq!(
            chaotic, baseline,
            "seed {seed}: recovered output must equal the fault-free baseline \
             after dedup (schedule: {:?})",
            scenario.events
        );
    }
}

#[test]
fn filter_converges_under_chaos() {
    chaos_matrix(Shape::Filter);
}

#[test]
fn project_converges_under_chaos() {
    chaos_matrix(Shape::Project);
}

#[test]
fn sliding_window_converges_under_chaos() {
    chaos_matrix(Shape::Window);
}

#[test]
fn stream_to_relation_join_converges_under_chaos() {
    chaos_matrix(Shape::Join);
}

// ---------------------------------------------------------------------------
// Commit-ordering audit: crash at every boundary of the commit sequence.
// ---------------------------------------------------------------------------

fn crash_cfg(shape: Shape) -> JobConfig {
    let mut cfg = JobConfig::new("commit-crash")
        .input(InputStreamConfig::new("in"))
        .containers(1);
    if shape == Shape::Window {
        cfg = cfg.store(StoreConfig::with_changelog("win", "commit-crash"));
    }
    cfg.commit_interval_messages = 16;
    cfg
}

/// Run `shape` over `messages` inputs in a bare container, crash it at
/// `point` during a commit, restart a fresh incarnation (changelog restore +
/// checkpoint resume), and return (baseline, recovered-first-wins-dedup)
/// output maps. `strict` additionally requires every replayed emission to
/// match the original.
fn crash_at_commit_point(
    shape: Shape,
    point: CommitPoint,
    strict: bool,
    messages: u64,
) -> (BTreeMap<String, String>, BTreeMap<String, String>) {
    let mk_broker = || {
        let broker = Broker::new();
        broker
            .create_topic("in", TopicConfig::with_partitions(1))
            .unwrap();
        broker
            .create_topic(OUT, TopicConfig::with_partitions(1))
            .unwrap();
        for i in 0..messages {
            broker
                .produce("in", 0, Message::new(val(0, i).to_string()))
                .unwrap();
        }
        broker
    };
    let cfg = crash_cfg(shape);
    let factory = shape.factory();

    // Fault-free baseline.
    let clean = mk_broker();
    let model = JobModel::plan(&cfg, &clean).unwrap();
    let mut c = Container::new(
        clean.clone(),
        cfg.clone(),
        model.containers[0].clone(),
        &*factory,
    )
    .unwrap();
    c.run_until_caught_up().unwrap();
    let baseline = dedup_output(&clean);
    assert_eq!(baseline.len() as u64, messages);

    // Crash-at-boundary run.
    let broker = mk_broker();
    let model = JobModel::plan(&cfg, &broker).unwrap();
    let mut doomed = Container::new(
        broker.clone(),
        cfg.clone(),
        model.containers[0].clone(),
        &*factory,
    )
    .unwrap();
    doomed.arm_commit_crash(point);
    let err = doomed
        .run_until_caught_up()
        .expect_err("armed crash must fire");
    assert!(
        err.to_string().contains("injected crash"),
        "unexpected failure: {err}"
    );
    drop(doomed); // heap state dies with the incarnation

    let mut recovered =
        Container::new(broker.clone(), cfg, model.containers[0].clone(), &*factory).unwrap();
    recovered.run_until_caught_up().unwrap();
    (baseline, read_output(&broker, strict))
}

const ALL_POINTS: [CommitPoint; 4] = [
    CommitPoint::BeforeOutputFlush,
    CommitPoint::AfterOutputFlush,
    CommitPoint::AfterChangelogFlush,
    CommitPoint::AfterCheckpoint,
];

/// A stateless task replays identically, so recovery from a crash at EVERY
/// commit boundary is strictly baseline-equivalent — no loss, no divergence.
#[test]
fn stateless_crash_recovery_is_exact_at_every_boundary() {
    for point in ALL_POINTS {
        let (baseline, recovered) = crash_at_commit_point(Shape::Project, point, true, 100);
        assert_eq!(
            recovered, baseline,
            "stateless crash at {point:?} must recover exactly"
        );
    }
}

/// A stateful task recovers a consistent (state, checkpoint) pair — and
/// hence replays identically — at every boundary where the two were written
/// by the same commit.
#[test]
fn stateful_crash_recovery_is_exact_at_consistent_boundaries() {
    for point in [
        CommitPoint::BeforeOutputFlush,
        CommitPoint::AfterOutputFlush,
        CommitPoint::AfterCheckpoint,
    ] {
        let (baseline, recovered) = crash_at_commit_point(Shape::Window, point, true, 100);
        assert_eq!(
            recovered, baseline,
            "stateful crash at {point:?} must recover exactly"
        );
    }
}

/// The one boundary with at-least-once STATE semantics: a crash after the
/// changelog flush but before the checkpoint write leaves durable state
/// *ahead* of the checkpointed positions, so replay double-applies the
/// replayed input to the store (exactly Samza's semantics — changelog-first
/// ordering trades duplicate application for never LOSING state). A
/// deduping consumer keeping the first emission per input id still sees
/// baseline-equivalent output, because the pre-crash emissions were flushed
/// before the changelog.
#[test]
fn stateful_crash_between_changelog_and_checkpoint_is_at_least_once() {
    let (baseline, recovered) =
        crash_at_commit_point(Shape::Window, CommitPoint::AfterChangelogFlush, false, 100);
    assert_eq!(
        recovered, baseline,
        "first-emission dedup must still match the baseline"
    );
}

/// The final commit of `run_until_caught_up` runs the same sequence as the
/// periodic one. With fewer inputs than `commit_interval_messages` no
/// periodic commit runs, so a crash armed before or after the output flush
/// must fire in the final commit, and a fresh container must still recover
/// the fault-free output.
#[test]
fn final_commit_fires_output_flush_crash_points() {
    for shape in [Shape::Project, Shape::Window] {
        for point in [
            CommitPoint::BeforeOutputFlush,
            CommitPoint::AfterOutputFlush,
        ] {
            let (baseline, recovered) = crash_at_commit_point(shape, point, true, 10);
            assert_eq!(
                recovered, baseline,
                "{shape:?}: crash at {point:?} in the final commit must recover exactly"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster bookkeeping under repeated chaos.
// ---------------------------------------------------------------------------

/// Repeated kill/respawn cycles must never leak or double-count node slots:
/// after every round the job holds exactly `containers` slots across nodes,
/// each within capacity, and stopping releases them all.
#[test]
fn slot_accounting_survives_repeated_kill_and_respawn() {
    let (broker, cluster) = setup(Shape::Project);
    let handle = cluster
        .submit(Shape::Project.config("slots"), Shape::Project.factory())
        .unwrap();
    for i in 0..60u64 {
        for p in 0..PARTITIONS {
            broker
                .produce("in", p, Message::new(val(p, i).to_string()))
                .unwrap();
        }
    }
    broker.replication_tick();

    let assert_slots = |round: &str| {
        let usage = cluster.node_usage();
        let used: u32 = usage.iter().map(|(_, used, _)| used).sum();
        assert_eq!(
            used, PARTITIONS,
            "round {round}: job must hold exactly {PARTITIONS} slots, usage {usage:?}"
        );
        for (name, used, cap) in &usage {
            assert!(used <= cap, "round {round}: node {name} over capacity");
        }
    };
    assert_slots("initial");
    for round in 0..4 {
        for id in 0..PARTITIONS {
            cluster.kill_and_restart_container("slots", id).unwrap();
            assert_slots(&format!("kill {round}/{id}"));
        }
        let session = cluster
            .container_session("slots", round % PARTITIONS)
            .unwrap();
        cluster.coord().force_expire(session).unwrap();
        assert_slots(&format!("expire {round}"));
        broker.replication_tick();
    }
    handle.stop().unwrap();
    let usage = cluster.node_usage();
    assert!(
        usage.iter().all(|(_, used, _)| *used == 0),
        "stop must release every slot: {usage:?}"
    );
}

/// A task error crashes its container; the AM's liveness watch must respawn
/// a replacement that finishes the job (the step-error recovery path).
#[test]
fn task_error_crashes_container_and_am_respawns_it() {
    use std::sync::atomic::{AtomicBool, Ordering};

    struct FailOnce {
        tripped: Arc<AtomicBool>,
    }
    impl StreamTask for FailOnce {
        fn process(
            &mut self,
            env: &IncomingMessageEnvelope,
            _ctx: &mut TaskContext,
            collector: &mut MessageCollector,
            _coordinator: &mut TaskCoordinator,
        ) -> Result<()> {
            if env.offset == 20 && !self.tripped.swap(true, Ordering::SeqCst) {
                return Err(samzasql_samza::SamzaError::Task {
                    task: "failonce".into(),
                    message: "simulated poison-pill handler bug".into(),
                });
            }
            emit(collector, env, parse_i64(&env.payload).to_string());
            Ok(())
        }
    }

    let broker = Broker::new();
    broker
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic(OUT, TopicConfig::with_partitions(1))
        .unwrap();
    let cluster = ClusterSim::single_node(broker.clone());
    let tripped = Arc::new(AtomicBool::new(false));
    let t2 = tripped.clone();
    let factory = move |_p: u32| -> Box<dyn StreamTask> {
        Box::new(FailOnce {
            tripped: t2.clone(),
        })
    };
    let mut cfg = JobConfig::new("failonce").input(InputStreamConfig::new("in"));
    cfg.commit_interval_messages = 8;
    let handle = cluster.submit(cfg, Arc::new(factory)).unwrap();

    for i in 0..50u64 {
        broker
            .produce("in", 0, Message::new(i.to_string()))
            .unwrap();
    }
    wait_until_reporting(
        "the respawned container to finish the job",
        Duration::from_secs(30),
        || dedup_output(&broker).len() >= 50,
        || {
            format!(
                ": generation {:?}, output {}",
                cluster.container_generation("failonce", 0),
                dedup_output(&broker).len()
            )
        },
    );
    assert!(tripped.load(Ordering::SeqCst));
    assert!(
        cluster.container_generation("failonce", 0).unwrap() >= 1,
        "the failing incarnation must have been replaced"
    );
    handle.stop().unwrap();
}
