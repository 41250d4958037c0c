//! Throughput harness for the §5.1 evaluation.
//!
//! Methodology mirrors the paper: a topic with a fixed number of partitions
//! (32 in the paper) is preloaded with ~100-byte Avro messages; the query
//! job is started with *k* containers; throughput = messages processed /
//! wall-clock time. "The average throughput across containers was multiplied
//! by the container count to get the job throughput" — here containers run
//! as real threads in one process, so we measure the job directly.
//!
//! Both sides drive the batched execution path end-to-end: the container
//! hands each task whole fetch slices (`StreamTask::process_batch`), and
//! output flushes append per-partition runs under one log lock — so the
//! native/SamzaSQL gap isolates per-message serde cost, as in the paper.

use crate::native::{NativeTaskFactory, NativeTaskKind, NATIVE_STORE};
use samzasql_core::profile::{registry_totals, NodeStats};
use samzasql_core::shell::SamzaSqlShell;
use samzasql_core::tuple::{array_to_record, record_to_array};
use samzasql_kafka::partitioner::hash_bytes;
use samzasql_kafka::{Broker, Bytes, Message, TopicConfig};
use samzasql_samza::{ClusterSim, InputStreamConfig, JobConfig, StoreConfig};
use samzasql_serde::avro::AvroCodec;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::Value;
use samzasql_workload::{
    orders_schema, products_schema, OrdersGenerator, OrdersSpec, ProductsGenerator, ProductsSpec,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four evaluation queries of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalQuery {
    /// Figure 5a.
    Filter,
    /// Figure 5b.
    Project,
    /// Figure 6.
    SlidingWindow,
    /// Figure 5c.
    Join,
}

impl EvalQuery {
    /// The exact SQL from §5.1.
    pub fn sql(&self) -> &'static str {
        match self {
            EvalQuery::Filter => "SELECT STREAM * FROM Orders WHERE units > 50",
            EvalQuery::Project => "SELECT STREAM rowtime, productId, units FROM Orders",
            EvalQuery::SlidingWindow => {
                "SELECT STREAM rowtime, productId, units, \
                 SUM(units) OVER (PARTITION BY productId ORDER BY rowtime \
                 RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes FROM Orders"
            }
            EvalQuery::Join => {
                "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, \
                 Orders.units, Products.supplierId \
                 FROM Orders JOIN Products ON Orders.productId = Products.productId"
            }
        }
    }

    /// Figure label in the paper.
    pub fn figure(&self) -> &'static str {
        match self {
            EvalQuery::Filter => "5a",
            EvalQuery::Project => "5b",
            EvalQuery::Join => "5c",
            EvalQuery::SlidingWindow => "6",
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EvalQuery::Filter => "filter",
            EvalQuery::Project => "project",
            EvalQuery::Join => "join",
            EvalQuery::SlidingWindow => "sliding-window",
        }
    }

    fn needs_products(&self) -> bool {
        *self == EvalQuery::Join
    }
}

/// The RANGE of the Figure 6 window, `INTERVAL '5' MINUTE`, in ms.
pub const WINDOW_RANGE_MS: i64 = 300_000;

/// One throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Input messages processed.
    pub messages: u64,
    pub elapsed: Duration,
    pub msgs_per_sec: f64,
}

impl ThroughputResult {
    fn new(messages: u64, elapsed: Duration) -> Self {
        ThroughputResult {
            messages,
            elapsed,
            msgs_per_sec: messages as f64 / elapsed.as_secs_f64().max(1e-9),
        }
    }
}

/// Preload the workload: `n` orders from `orders` (and `products-changelog`
/// for joins) onto a fresh broker. Returns the expected total input-message
/// count.
pub fn setup_workload(
    broker: &Broker,
    query: EvalQuery,
    partitions: u32,
    orders: OrdersSpec,
    n: usize,
) -> u64 {
    broker
        .create_topic("orders", TopicConfig::with_partitions(partitions))
        .unwrap();
    let mut expected = n as u64;
    if query.needs_products() {
        broker
            .create_topic(
                "products-changelog",
                TopicConfig::with_partitions(partitions),
            )
            .unwrap();
        let mut pg = ProductsGenerator::new(ProductsSpec::default());
        let snapshot = pg.snapshot();
        expected += snapshot.len() as u64;
        for m in snapshot {
            let p = hash_bytes(m.key.as_ref().expect("keyed")) % partitions;
            broker.produce("products-changelog", p, m).unwrap();
        }
    }
    let mut gen = OrdersGenerator::new(orders);
    for m in gen.messages(n) {
        let p = hash_bytes(m.key.as_ref().expect("keyed")) % partitions;
        broker.produce("orders", p, m).unwrap();
    }
    expected
}

/// The tasks' processed-message counters, summed over the broker's jobs.
const PROCESSED: &str = "samza.task.messages_processed";

/// Longest park between progress checks. A step that processes input but
/// appends nothing (no row passed a filter, no commit fell due) moves no
/// sequence, and the cluster-side count moves only after a step returns,
/// so such progress is seen within this bound.
const RECHECK: Duration = Duration::from_millis(2);

/// Messages the tasks on `broker` have processed, from the registry their
/// containers publish into (the source the METRICS command reads).
fn registry_processed(broker: &Broker) -> u64 {
    broker
        .metrics_registry()
        .snapshot_prefix(PROCESSED)
        .counter_sum(PROCESSED)
}

/// Block until `check` reaches `expected`, or panic once `timeout` passes;
/// returns the time waited. Parks on `broker`'s append sequence between
/// checks, so progress that comes with an append is seen at once. A
/// container step bumps the registry count before it appends its output,
/// so a wait on [`registry_processed`] can return before the last step's
/// output flush.
fn wait_processed(
    broker: &Broker,
    check: impl Fn() -> u64,
    expected: u64,
    timeout: Duration,
) -> Duration {
    let start = Instant::now();
    loop {
        // Read the sequence first: an append after this read ends the park.
        let seen = broker.append_seq();
        if check() >= expected {
            return start.elapsed();
        }
        let waited = start.elapsed();
        assert!(
            waited < timeout,
            "benchmark stalled: {}/{} processed",
            check(),
            expected
        );
        broker.wait_for_append(seen, (timeout - waited).min(RECHECK));
    }
}

/// Measure SamzaSQL executing `query` with `containers` containers over `n`
/// preloaded messages on a `partitions`-partition topic.
pub fn measure_samzasql(
    query: EvalQuery,
    containers: u32,
    partitions: u32,
    n: usize,
) -> ThroughputResult {
    measure_samzasql_mode(query, containers, partitions, n, false, false).0
}

/// Measure SamzaSQL with the direct data API enabled (§7 item 5 ablation:
/// AvroToArray/ArrayToAvro removed from the generated job).
pub fn measure_samzasql_direct(
    query: EvalQuery,
    containers: u32,
    partitions: u32,
    n: usize,
) -> ThroughputResult {
    measure_samzasql_mode(query, containers, partitions, n, true, false).0
}

/// Measure SamzaSQL with per-operator profiling enabled; throughput comes
/// with the registry-sourced per-operator breakdown.
pub fn measure_samzasql_profiled(
    query: EvalQuery,
    containers: u32,
    partitions: u32,
    n: usize,
) -> (ThroughputResult, Vec<NodeStats>) {
    measure_samzasql_mode(query, containers, partitions, n, false, true)
}

fn measure_samzasql_mode(
    query: EvalQuery,
    containers: u32,
    partitions: u32,
    n: usize,
    direct_data_api: bool,
    profile: bool,
) -> (ThroughputResult, Vec<NodeStats>) {
    let (mut shell, expected) =
        samzasql_shell(query, containers, partitions, OrdersSpec::default(), n);
    shell.direct_data_api = direct_data_api;
    shell.profile_operators = profile;

    let start = Instant::now();
    let handle = shell.submit(query.sql()).unwrap();
    let broker = shell.broker().clone();
    let stall = Duration::from_secs(600);
    let _ = wait_processed(&broker, || registry_processed(&broker), expected, stall);
    let elapsed = start.elapsed();
    // The cluster adds a step's messages to its own count only after the
    // step returns, so wait for that count too before the job stops (a
    // stopped job's count reads 0).
    let cluster = profile.then(|| {
        let _ = wait_processed(&broker, || handle.processed(), expected, stall);
        handle.processed()
    });
    handle.stop().unwrap();
    let breakdown = match cluster {
        Some(cluster) => {
            // Cross-check the registry the containers published into
            // against the cluster-side count: each counts every input once.
            let processed = registry_processed(&broker);
            assert_eq!(
                processed, cluster,
                "registry and cluster counts differ ({expected} inputs)"
            );
            registry_totals(shell.metrics_registry(), None).0
        }
        None => Vec::new(),
    };
    (ThroughputResult::new(expected, elapsed), breakdown)
}

/// A shell over a freshly preloaded broker with `query`'s inputs
/// registered, ready to submit on `containers` containers. Returns the
/// shell and the expected input-message count.
fn samzasql_shell(
    query: EvalQuery,
    containers: u32,
    partitions: u32,
    orders: OrdersSpec,
    n: usize,
) -> (SamzaSqlShell, u64) {
    let broker = Broker::new();
    let expected = setup_workload(&broker, query, partitions, orders, n);
    let mut shell = SamzaSqlShell::new(broker);
    shell
        .register_stream("Orders", "orders", orders_schema(), "rowtime")
        .unwrap();
    // Orders are produced keyed by productId — matching declaration avoids a
    // repartition stage (the paper's jobs are likewise co-partitioned).
    shell.set_partition_key("Orders", "productId").unwrap();
    if query.needs_products() {
        shell
            .register_table(
                "Products",
                "products-changelog",
                products_schema(),
                "productId",
            )
            .unwrap();
    }
    shell.default_containers = containers;
    (shell, expected)
}

/// Measure the hand-written native Samza job for the same query.
pub fn measure_native(
    query: EvalQuery,
    containers: u32,
    partitions: u32,
    n: usize,
) -> ThroughputResult {
    let (broker, cfg, factory, expected) =
        native_job(query, containers, partitions, OrdersSpec::default(), n);
    let cluster = ClusterSim::single_node(broker.clone());

    let start = Instant::now();
    let handle = cluster.submit(cfg, Arc::new(factory)).unwrap();
    let stall = Duration::from_secs(600);
    let _ = wait_processed(&broker, || registry_processed(&broker), expected, stall);
    let elapsed = start.elapsed();
    handle.stop().unwrap();
    ThroughputResult::new(expected, elapsed)
}

/// Output topic of the native jobs.
const NATIVE_OUTPUT: &str = "native-output";

/// The native job for `query` over a freshly preloaded broker: the broker,
/// the job's config and task factory, and the expected input-message count.
fn native_job(
    query: EvalQuery,
    containers: u32,
    partitions: u32,
    orders: OrdersSpec,
    n: usize,
) -> (Broker, JobConfig, NativeTaskFactory, u64) {
    let broker = Broker::new();
    let expected = setup_workload(&broker, query, partitions, orders, n);
    broker
        .create_topic(NATIVE_OUTPUT, TopicConfig::with_partitions(partitions))
        .unwrap();
    let job = format!("native-{}", query.name());
    let mut cfg = JobConfig::new(&job)
        .input(InputStreamConfig::new("orders"))
        .containers(containers);
    let kind = match query {
        EvalQuery::Filter => NativeTaskKind::Filter,
        EvalQuery::Project => NativeTaskKind::Project,
        EvalQuery::Join => {
            cfg = cfg
                .input(InputStreamConfig::new("products-changelog").bootstrap())
                .store(StoreConfig::with_changelog(NATIVE_STORE, &job));
            NativeTaskKind::Join {
                products_topic: "products-changelog".into(),
            }
        }
        EvalQuery::SlidingWindow => {
            cfg = cfg.store(StoreConfig::with_changelog(NATIVE_STORE, &job));
            NativeTaskKind::SlidingWindow {
                window_ms: WINDOW_RANGE_MS,
            }
        }
    };
    let factory = NativeTaskFactory {
        kind,
        output: NATIVE_OUTPUT.into(),
    };
    (broker, cfg, factory, expected)
}

/// One run of the broker message-size experiment.
#[derive(Debug, Clone)]
pub struct MsgSizeRun {
    pub message_bytes: usize,
    pub produced: usize,
    pub consumed: usize,
    /// Value bytes of every consumed message.
    pub bytes_consumed: usize,
    pub elapsed: Duration,
}

impl MsgSizeRun {
    pub fn msgs_per_sec(&self) -> f64 {
        self.consumed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    pub fn mb_per_sec(&self) -> f64 {
        self.bytes_consumed as f64 / 1_000_000.0 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Broker message-size experiment (§5.1's rationale for 100-byte messages):
/// produce-then-consume `total_bytes` worth of messages of `message_bytes`
/// each, timed end to end.
pub fn measure_broker_msgsize(message_bytes: usize, total_bytes: usize) -> MsgSizeRun {
    let broker = Broker::new();
    broker
        .create_topic("t", TopicConfig::with_partitions(1))
        .unwrap();
    let n = (total_bytes / message_bytes).max(1);
    let payload = vec![b'x'; message_bytes];
    let start = Instant::now();
    for _ in 0..n {
        broker
            .produce("t", 0, Message::new(Bytes::copy_from_slice(&payload)))
            .unwrap();
    }
    let mut off = 0;
    let mut consumed = 0usize;
    let mut bytes_consumed = 0usize;
    while consumed < n {
        let batch = broker.fetch("t", 0, off, 4096).unwrap();
        if batch.records.is_empty() {
            break;
        }
        for r in &batch.records {
            off = r.offset + 1;
            consumed += 1;
            bytes_consumed += r.message.value.len();
        }
    }
    MsgSizeRun {
        message_bytes,
        produced: n,
        consumed,
        bytes_consumed,
        elapsed: start.elapsed(),
    }
}

/// Per-record codec costs behind the paper's §5.1 profiling claims, in
/// nanoseconds per record over Orders records.
#[derive(Debug, Clone)]
pub struct CodecCosts {
    pub avro_encode_ns: f64,
    pub object_encode_ns: f64,
    pub avro_decode_ns: f64,
    pub object_decode_ns: f64,
    /// Avro decode, `AvroToArray`, `ArrayToAvro`, Avro encode: the work the
    /// SamzaSQL scan and insert operators add per message (Figure 4).
    pub avro_array_roundtrip_ns: f64,
}

/// Time each codec step `iterations` times, cycling over a pool of distinct
/// generated orders.
pub fn measure_codecs(iterations: usize) -> CodecCosts {
    let iterations = iterations.max(1);
    let mut gen = OrdersGenerator::new(OrdersSpec::default());
    let records: Vec<Value> = (0..iterations.min(1_000))
        .map(|_| gen.next_value())
        .collect();
    let avro = AvroCodec::new(orders_schema());
    let object = ObjectCodec::new();
    let avro_bytes: Vec<Vec<u8>> = records.iter().map(|r| avro.encode(r).unwrap()).collect();
    let object_bytes: Vec<Vec<u8>> = records.iter().map(|r| object.encode(r).unwrap()).collect();
    let names: Arc<Vec<String>> = Arc::new(
        orders_schema()
            .fields()
            .unwrap()
            .iter()
            .map(|f| f.name.clone())
            .collect(),
    );
    let ns_per_record = |step: &dyn Fn(usize)| {
        let start = Instant::now();
        for i in 0..iterations {
            step(i % records.len());
        }
        start.elapsed().as_nanos() as f64 / iterations as f64
    };
    CodecCosts {
        avro_encode_ns: ns_per_record(&|i| {
            black_box(avro.encode(&records[i]).unwrap());
        }),
        object_encode_ns: ns_per_record(&|i| {
            black_box(object.encode(&records[i]).unwrap());
        }),
        avro_decode_ns: ns_per_record(&|i| {
            black_box(avro.decode(&avro_bytes[i]).unwrap());
        }),
        object_decode_ns: ns_per_record(&|i| {
            black_box(object.decode(&object_bytes[i]).unwrap());
        }),
        avro_array_roundtrip_ns: ns_per_record(&|i| {
            let tuple = record_to_array(avro.decode(&avro_bytes[i]).unwrap(), 0).unwrap();
            let back = array_to_record(tuple, &names).unwrap();
            black_box(avro.encode(&back).unwrap());
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{join_output_schema, project_output_schema, sliding_output_schema};
    use samzasql_serde::Schema;

    /// Every record of `topic`, decoded with `schema`, as a row of field
    /// values in position order. Int, Long and Timestamp widen to Long:
    /// the SQL and native jobs declare different integral types for the
    /// same columns.
    fn output_rows(broker: &Broker, topic: &str, schema: Schema) -> Vec<Vec<Value>> {
        let codec = AvroCodec::new(schema);
        let mut rows = Vec::new();
        for p in 0..broker.partition_count(topic).unwrap() {
            let mut off = broker.start_offset(topic, p).unwrap();
            loop {
                let batch = broker.fetch(topic, p, off, 1024).unwrap();
                if batch.records.is_empty() {
                    break;
                }
                for rec in batch.records {
                    off = rec.offset + 1;
                    let Value::Record(record) = codec.decode(&rec.message.value).unwrap() else {
                        panic!("{topic}: output is not a record");
                    };
                    rows.push(
                        record
                            .into_values()
                            .into_iter()
                            .map(|v| match v {
                                Value::Int(i) => Value::Long(i.into()),
                                Value::Timestamp(t) => Value::Long(t),
                                v => v,
                            })
                            .collect(),
                    );
                }
            }
        }
        rows
    }

    /// The rows as a sorted multiset (cross-partition order is free).
    fn multiset(rows: &[Vec<Value>]) -> Vec<String> {
        let mut keys: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        keys.sort();
        keys
    }

    /// Runs `query` to completion on one container, as the SQL stream job
    /// and then as the native job, each over its own broker preloaded with
    /// the same seeded input. Returns the SQL shell, the SQL job's output
    /// topic and the native job's broker.
    fn run_sql_and_native(
        query: EvalQuery,
        partitions: u32,
        orders: OrdersSpec,
        n: usize,
    ) -> (SamzaSqlShell, String, Broker) {
        let (mut shell, expected) = samzasql_shell(query, 1, partitions, orders.clone(), n);
        let handle = shell.submit(query.sql()).unwrap();
        let stall = Duration::from_secs(120);
        let done = || registry_processed(shell.broker());
        let _ = wait_processed(shell.broker(), done, expected, stall);
        let topic = handle.output_topic().to_string();
        handle.stop().unwrap();

        let (broker, cfg, factory, expected) = native_job(query, 1, partitions, orders, n);
        let cluster = ClusterSim::single_node(broker.clone());
        let handle = cluster.submit(cfg, Arc::new(factory)).unwrap();
        let _ = wait_processed(&broker, || registry_processed(&broker), expected, stall);
        handle.stop().unwrap();
        (shell, topic, broker)
    }

    /// Both sides of every SQL/native ratio do the same work: on the same
    /// seeded input, the SQL stream job and the native job write the same
    /// multiset of output rows. One order a second spreads the input over
    /// 50 minutes, so the 5-minute window expires most of what it stores.
    #[test]
    fn samzasql_and_native_write_the_same_rows() {
        let (partitions, n) = (4, 3_000);
        let orders = OrdersSpec {
            inter_arrival_ms: 1_000,
            ..OrdersSpec::default()
        };
        for query in [
            EvalQuery::Filter,
            EvalQuery::Project,
            EvalQuery::Join,
            EvalQuery::SlidingWindow,
        ] {
            let (shell, topic, broker) = run_sql_and_native(query, partitions, orders.clone(), n);
            let schema = shell
                .planner()
                .catalog()
                .registry()
                .latest(&format!("{topic}-value"))
                .unwrap()
                .schema;
            let sql = output_rows(shell.broker(), &topic, schema);
            let schema = match query {
                EvalQuery::Filter => orders_schema(),
                EvalQuery::Project => project_output_schema(),
                EvalQuery::Join => join_output_schema(),
                EvalQuery::SlidingWindow => sliding_output_schema(),
            };
            let native = output_rows(&broker, NATIVE_OUTPUT, schema);

            let name = query.name();
            assert!(!sql.is_empty(), "{name}: no output");
            assert_eq!(sql.len(), native.len(), "{name}: row counts differ");
            assert!(
                multiset(&sql) == multiset(&native),
                "{name}: SQL and native rows differ"
            );
        }
    }

    /// KV-store accesses of one job, read from the `samza.store.*` series.
    #[derive(Debug, PartialEq)]
    struct StoreWork {
        gets: u64,
        puts: u64,
        deletes: u64,
        range_scans: u64,
    }

    fn store_work(broker: &Broker) -> StoreWork {
        let snap = broker.metrics_registry().snapshot_prefix("samza.store.");
        let sum = |name: &str| snap.counter_sum(&format!("samza.store.{name}"));
        StoreWork {
            gets: sum("gets"),
            puts: sum("puts"),
            deletes: sum("deletes"),
            range_scans: sum("range_scans"),
        }
    }

    /// Each partition's orders as `(rowtime, productId)`, in offset order.
    type OrdersByPartition = Vec<Vec<(i64, i64)>>;

    /// The preloaded orders of each partition.
    fn orders_by_partition(broker: &Broker) -> OrdersByPartition {
        let codec = AvroCodec::new(orders_schema());
        (0..broker.partition_count("orders").unwrap())
            .map(|p| {
                let end = broker.end_offset("orders", p).unwrap();
                let batch = broker.fetch("orders", p, 0, end as usize).unwrap();
                batch
                    .records
                    .iter()
                    .map(|r| {
                        let t = codec.decode_to_tuple(&r.message.value).unwrap();
                        (t[0].as_i64().unwrap(), t[1].as_i64().unwrap())
                    })
                    .collect()
            })
            .collect()
    }

    /// The store work of `query`'s SQL and native jobs, their input, and
    /// the key and value bytes the SQL job wrote to its stores.
    fn store_work_of(
        query: EvalQuery,
        partitions: u32,
        orders: OrdersSpec,
        n: usize,
    ) -> (StoreWork, StoreWork, OrdersByPartition, u64) {
        let (shell, _, broker) = run_sql_and_native(query, partitions, orders, n);
        let sql_bytes = shell
            .broker()
            .metrics_registry()
            .snapshot_prefix("samza.store.")
            .counter_sum("samza.store.bytes_written");
        (
            store_work(shell.broker()),
            store_work(&broker),
            orders_by_partition(shell.broker()),
            sql_bytes,
        )
    }

    /// Distinct products of each partition, summed: the (task, key) pairs
    /// of the input.
    fn distinct_keys_per_task(input: &[Vec<(i64, i64)>]) -> u64 {
        input
            .iter()
            .map(|orders| {
                let keys: std::collections::BTreeSet<i64> =
                    orders.iter().map(|(_, k)| *k).collect();
                keys.len() as u64
            })
            .sum()
    }

    /// [`distinct_keys_per_task`] on an input where each partition's orders
    /// reach its task as one batch: they fit one container fetch (256
    /// records) and its task sees fewer records than the commit interval
    /// (1 024). On such an input this is the number of (batch, key) pairs
    /// the SQL window memoizes.
    fn distinct_keys_per_batch(input: &[Vec<(i64, i64)>]) -> u64 {
        assert!(
            input.iter().all(|orders| orders.len() < 256),
            "a partition must fit one 256-record container fetch to stay one batch"
        );
        distinct_keys_per_task(input)
    }

    /// Deterministic store-work gate: on a tiny seeded input, the KV work
    /// per input tuple of each path, counted from the registry. Both joins
    /// probe through the store's decoded-row cache, so each reads a
    /// relation key's bytes once per task. Native window tasks pay a store
    /// read per tuple; the SQL window memoizes per batch, so it reads once
    /// per distinct key per batch.
    #[test]
    fn store_work_per_tuple_is_pinned_on_both_paths() {
        let (partitions, n) = (4, 400);
        // Ten seconds between orders: each product's orders spread over
        // more than the 5-minute window, so the window purges.
        let orders = OrdersSpec {
            inter_arrival_ms: 10_000,
            ..OrdersSpec::default()
        };
        let n64 = n as u64;
        let products = ProductsSpec::default().products as u64;

        // Join: each relation row is one put on both paths. Each path reads
        // a product's bytes on its first probe in a task and answers every
        // later probe of it from the decoded row (the relation does not
        // change after the bootstrap).
        let (sql, native, input, _) = store_work_of(EvalQuery::Join, partitions, orders.clone(), n);
        let keys = distinct_keys_per_task(&input);
        assert!(keys < n64, "the input must repeat keys within a task");
        let join = StoreWork {
            gets: keys,
            puts: products,
            deletes: 0,
            range_scans: 0,
        };
        assert_eq!(native, join, "native join");
        assert_eq!(sql, join, "SQL join");

        // Window: per order, both paths store the message and range-scan
        // its group's expired messages, and delete the same expired
        // messages. Native reads and writes the group's sum per order; SQL
        // reads and writes the group's state once per batch.
        let (sql, native, input, sql_bytes) =
            store_work_of(EvalQuery::SlidingWindow, partitions, orders, n);
        let keys = distinct_keys_per_batch(&input);
        let expired = input
            .iter()
            .flatten()
            .filter(|(ts, key)| {
                let newest = input.iter().flatten().filter(|(_, k)| k == key);
                newest.map(|(t, _)| *t).max().unwrap() - WINDOW_RANGE_MS > *ts
            })
            .count() as u64;
        assert!(expired > 0, "the window must slide on this input");
        assert_eq!(
            native,
            StoreWork {
                gets: n64,
                puts: 2 * n64,
                deletes: expired,
                range_scans: n64
            },
            "native window"
        );
        assert_eq!(
            sql,
            StoreWork {
                gets: keys,
                puts: n64 + keys,
                deletes: expired,
                range_scans: n64
            },
            "SQL window"
        );
        // The SQL window's store keys and values, byte for byte: the state
        // bundles `A<op>/<group>` and messages `M<op>/<group>/<ts><seq>`
        // replay from the changelog, so their encoding must not drift.
        assert_eq!(sql_bytes, 67_540, "SQL window store bytes written");
    }

    #[test]
    fn join_processes_orders_plus_relation() {
        let n = 1_000;
        let sq = measure_samzasql(EvalQuery::Join, 1, 4, n);
        assert_eq!(sq.messages, n as u64 + 100, "orders + products snapshot");
    }

    #[test]
    fn sliding_window_runs() {
        let r = measure_samzasql(EvalQuery::SlidingWindow, 1, 2, 500);
        assert_eq!(r.messages, 500);
    }

    #[test]
    fn profiled_run_reports_operator_breakdown() {
        let (r, ops) = measure_samzasql_profiled(EvalQuery::Filter, 1, 2, 1_000);
        assert_eq!(r.messages, 1_000);
        assert!(!ops.is_empty(), "profiled run published no operator series");
        let rows_in: u64 = ops.iter().map(|o| o.rows_in).sum();
        assert!(rows_in >= 1_000, "operators saw {rows_in} rows");
    }

    /// Counts only: the throughput ordering is wall-clock, so `figures
    /// --fig msgsize` checks it at a larger N.
    #[test]
    fn msgsize_experiment_runs() {
        for size in [100, 10_000] {
            let run = measure_broker_msgsize(size, 500_000);
            let n = 500_000 / size;
            assert_eq!(run.produced, n, "{size} B");
            assert_eq!(
                run.consumed, n,
                "{size} B: every produced message is consumed"
            );
            assert_eq!(run.bytes_consumed, n * size, "{size} B");
        }
    }

    #[test]
    fn codec_costs_are_measured() {
        let c = measure_codecs(200);
        for ns in [
            c.avro_encode_ns,
            c.object_encode_ns,
            c.avro_decode_ns,
            c.object_decode_ns,
            c.avro_array_roundtrip_ns,
        ] {
            assert!(ns > 0.0 && ns.is_finite(), "{c:?}");
        }
    }
}
