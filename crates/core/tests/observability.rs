//! Integration tests for the unified observability subsystem: EXPLAIN
//! ANALYZE over the paper's four §5.1 query shapes (run through the same
//! containers as `query()`, over the whole input), the shell's METRICS
//! command, KV-store series, and the guarantee that enabling
//! metrics/profiling never changes query output — even under seeded broker
//! fault injection.

use samzasql_core::ops::STATE_STORE;
use samzasql_core::shell::SamzaSqlShell;
use samzasql_kafka::{Broker, FaultInjector, FaultKind, FaultSchedule, FaultSpec};
use samzasql_obs::MetricValue;
use samzasql_serde::Value;
use samzasql_testkit::Rng;
use samzasql_workload::{orders_schema, products_schema};
use std::collections::BTreeSet;

/// Shell over a fresh broker with the paper's Orders stream and Products
/// table registered and seeded with deterministic data.
fn seeded_shell(broker: Broker, seed: u64, orders: usize) -> SamzaSqlShell {
    let mut shell = SamzaSqlShell::new(broker);
    shell
        .register_stream("Orders", "orders", orders_schema(), "rowtime")
        .unwrap();
    shell.set_partition_key("Orders", "productId").unwrap();
    shell
        .register_table(
            "Products",
            "products-changelog",
            products_schema(),
            "productId",
        )
        .unwrap();
    let mut rng = Rng::new(seed);
    for p in 0..10 {
        shell
            .produce_relation(
                "Products",
                Value::record(vec![
                    ("productId", Value::Int(p)),
                    ("name", Value::String(format!("p{p}"))),
                    ("supplierId", Value::Int(p % 5)),
                ]),
            )
            .unwrap();
    }
    for i in 0..orders {
        shell
            .produce(
                "Orders",
                Value::record(vec![
                    ("rowtime", Value::Timestamp(i as i64 * 1_000)),
                    ("productId", Value::Int(rng.below(10) as i32)),
                    ("orderId", Value::Long(i as i64)),
                    ("units", Value::Int(rng.below(100) as i32)),
                    ("pad", Value::String("xxxxxxxx".into())),
                ]),
            )
            .unwrap();
    }
    shell
}

const FILTER: &str = "SELECT STREAM * FROM Orders WHERE units > 50";
const PROJECT: &str = "SELECT STREAM rowtime, productId, units FROM Orders";
const SLIDING_WINDOW: &str = "SELECT STREAM rowtime, productId, units, \
     SUM(units) OVER (PARTITION BY productId ORDER BY rowtime \
     RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes FROM Orders";
const S2R_JOIN: &str = "SELECT STREAM Orders.rowtime, Orders.productId, \
     Orders.units, Products.name, Products.supplierId \
     FROM Orders JOIN Products ON Orders.productId = Products.productId";

#[test]
fn explain_analyze_annotates_all_four_paper_shapes() {
    let mut shell = seeded_shell(Broker::new(), 21, 200);
    for (shape, sql) in [
        ("filter", FILTER),
        ("project", PROJECT),
        ("sliding-window", SLIDING_WINDOW),
        ("join", S2R_JOIN),
    ] {
        let report = shell
            .explain_analyze(&format!("EXPLAIN ANALYZE {sql}"))
            .unwrap();
        // Every operator line carries rows-in/rows-out, batch counts,
        // selectivity, and time share; scan leaves report rows and bytes.
        for needle in ["rows=", "batches=", "sel=", "time=", "bytes="] {
            assert!(
                report.contains(needle),
                "{shape}: missing {needle:?} in report:\n{report}"
            );
        }
        assert!(
            !report.contains("rows=0\u{2192}0"),
            "{shape}: sample run fed no rows:\n{report}"
        );
        let outputs: u64 = report
            .lines()
            .find_map(|l| l.strip_prefix("output rows: "))
            .expect("report ends with the sample row count")
            .parse()
            .unwrap();
        assert!(outputs > 0, "{shape}: sample produced no output:\n{report}");
    }
    // The join shape also reports relation-side scan traffic on the join
    // operator's line.
    let join_report = shell.explain_analyze(S2R_JOIN).unwrap();
    assert!(
        join_report.contains("rel_rows=10"),
        "join report misses relation rows:\n{join_report}"
    );
}

fn bounded(sql: &str) -> String {
    sql.replacen("SELECT STREAM", "SELECT", 1)
}

/// The number on a report's trailing `output rows:` line.
fn output_rows(report: &str) -> usize {
    let line = report.lines().find_map(|l| l.strip_prefix("output rows: "));
    line.unwrap_or_else(|| panic!("no output rows line in:\n{report}"))
        .parse()
        .unwrap()
}

#[test]
fn explain_analyze_scans_the_whole_input() {
    // More orders than the 10,000-row sample EXPLAIN ANALYZE used to read.
    let mut shell = seeded_shell(Broker::new(), 8, 12_000);
    let report = shell.explain_analyze(FILTER).unwrap();
    let scan = "ScanOp[topic=orders, format=avro]  rows=12000 ";
    assert!(report.contains(scan), "{report}");
}

#[test]
fn explain_analyze_runs_its_statement_in_containers() {
    let mut shell = seeded_shell(Broker::new(), 13, 300);
    shell.explain_analyze(FILTER).unwrap();
    shell.explain_analyze(S2R_JOIN).unwrap();
    // Each statement is one job with one task over the one-partition
    // inputs; the join's task also bootstraps the 10 Products.
    let snap = shell.metrics_registry().snapshot_prefix("samza.task.");
    for (job, records) in [("samzasql-q1", 300), ("samzasql-q2", 310)] {
        let labels = [("job", job), ("container", "0"), ("task", "0")];
        let processed = snap.counter("samza.task.messages_processed", &labels);
        assert_eq!(processed, Some(records), "{job}");
    }
}

#[test]
fn explain_analyze_output_rows_match_query() {
    let mut shell = seeded_shell(Broker::new(), 17, 400);
    for sql in [FILTER, PROJECT, SLIDING_WINDOW, S2R_JOIN] {
        let rows = shell.query(&bounded(sql)).unwrap().len();
        assert!(rows > 0, "{sql}: query returned nothing");
        let report = shell.explain_analyze(&bounded(sql)).unwrap();
        assert_eq!(output_rows(&report), rows, "bounded {sql}:\n{report}");
        // Each shape emits per row, so the STREAM form reports the same.
        let report = shell.explain_analyze(sql).unwrap();
        assert_eq!(output_rows(&report), rows, "{sql}:\n{report}");
    }
    // Orders keyed by orderId, joined on productId: the join needs a
    // repartition stage, and the report renders both stages.
    shell.set_partition_key("Orders", "orderId").unwrap();
    let join = bounded(S2R_JOIN);
    assert!(shell.explain(&join).unwrap().contains("RepartitionOp"));
    let rows = shell.query(&join).unwrap().len();
    assert_eq!(rows, 400, "every order joins one product");
    let report = shell.explain_analyze(&join).unwrap();
    assert!(report.contains("-- stage2 (repartition consumer) --"));
    assert_eq!(output_rows(&report), rows, "{report}");
}

#[test]
fn store_series_count_a_bounded_sliding_window() {
    let mut shell = seeded_shell(Broker::new(), 29, 250);
    shell.query(&bounded(SLIDING_WINDOW)).unwrap();
    let snap = shell.metrics_registry().snapshot_prefix("samza.store.");
    let task = [("job", "samzasql-q1"), ("container", "0"), ("task", "0")];
    let labels = [&task[..], &[("store", STATE_STORE)]].concat();
    assert!(snap.counter("samza.store.gets", &labels).unwrap() > 0);
    // Every put and delete is mirrored to the store's changelog.
    let writes = snap.counter_sum("samza.store.puts") + snap.counter_sum("samza.store.deletes");
    let changelog = format!("samzasql-q1-{STATE_STORE}-changelog");
    assert!(writes > 0);
    assert_eq!(writes, shell.broker().end_offset(&changelog, 0).unwrap());
}

/// One published series family: (name, kind, sorted label keys).
type Series = (String, &'static str, Vec<String>);

/// The series `docs/OBSERVABILITY.md`'s catalogue lists: one row per
/// family, `prefix.{a,b}` names expanded, label keys in backticks.
fn documented_series() -> BTreeSet<Series> {
    let doc = include_str!("../../../docs/OBSERVABILITY.md");
    let catalogue = doc.split("## Series catalogue").nth(1).unwrap();
    let catalogue = catalogue.split("\n## ").next().unwrap();
    let mut series = BTreeSet::new();
    for row in catalogue.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let kind = ["counter", "gauge", "histogram"]
            .into_iter()
            .find(|k| *k == cells[2])
            .unwrap_or_else(|| panic!("unknown kind in {row}"));
        let mut keys: Vec<String> = cells[3]
            .split(", ")
            .filter_map(|l| l.strip_prefix('`')?.strip_suffix('`'))
            .map(String::from)
            .collect();
        keys.sort();
        let family = cells[1].trim_matches('`');
        let names: Vec<String> = match family.split_once('{') {
            Some((prefix, members)) => members
                .trim_end_matches('}')
                .split(',')
                .map(|m| format!("{prefix}{m}"))
                .collect(),
            None => vec![family.to_string()],
        };
        for name in names {
            series.insert((name, kind, keys.clone()));
        }
    }
    series
}

fn published_series(shell: &SamzaSqlShell) -> BTreeSet<Series> {
    let snap = shell.metrics_registry().snapshot();
    snap.entries
        .into_iter()
        .map(|e| {
            let kind = match e.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            // Labels are sorted, so their keys are too.
            (e.name, kind, e.labels.into_iter().map(|(k, _)| k).collect())
        })
        .collect()
}

#[test]
fn the_four_shapes_publish_exactly_the_documented_series() {
    let broker = Broker::new();
    let mut shell = seeded_shell(broker, 41, 200);
    shell.profile_operators = true;
    for sql in [FILTER, PROJECT, SLIDING_WINDOW, S2R_JOIN] {
        let rows = shell.query(&bounded(sql)).unwrap();
        assert!(!rows.is_empty(), "{sql}");
    }
    assert_eq!(published_series(&shell), documented_series());
}

#[test]
fn metrics_command_renders_broker_task_and_operator_series() {
    let mut shell = seeded_shell(Broker::new(), 33, 120);
    shell.profile_operators = true;
    let rows = shell
        .query("SELECT * FROM Orders WHERE units > 50")
        .unwrap();
    assert!(!rows.is_empty());

    let all = shell.metrics("METRICS");
    for series in [
        "kafka.broker.messages_in",
        "samza.task.messages_processed",
        "core.operator.rows_in",
        "core.scan.rows",
    ] {
        assert!(all.contains(series), "missing {series} in:\n{all}");
    }
    // Prefix filtering narrows to one namespace.
    let broker_only = shell.metrics("METRICS kafka.broker.");
    assert!(broker_only.contains("kafka.broker.bytes_in"));
    assert!(!broker_only.contains("samza.task."));
    assert!(shell
        .metrics("METRICS no.such.prefix")
        .starts_with("no metrics"));

    // The same registry snapshot renders as valid Prometheus exposition.
    let prom = samzasql_obs::render_prometheus(&shell.metrics_registry().snapshot());
    samzasql_obs::validate_prometheus(&prom).unwrap();
}

/// Run a stateful bounded query under seeded transient-fault injection on
/// the input topics and return the raw bytes of the output topic.
fn chaos_query_output(seed: u64, profile: bool) -> Vec<Vec<u8>> {
    let broker = Broker::new();
    let mut shell = seeded_shell(broker.clone(), seed, 300);
    shell.profile_operators = profile;
    // Faults land after the inputs are seeded, so only the job's fetch path
    // (which retries) sees them — the injection schedule is derived from
    // the seed and the operation sequence, identical across both runs.
    let injector = FaultInjector::with_specs(
        seed,
        vec![
            FaultSpec::any(FaultKind::TransientError, FaultSchedule::Probability(0.2))
                .on_topic("orders"),
            FaultSpec::any(FaultKind::TransientError, FaultSchedule::EveryNth(7))
                .on_topic("products-changelog"),
        ],
    );
    broker.set_fault_injector(Some(injector));
    let rows = shell
        .query("SELECT productId, COUNT(*) AS c, SUM(units) AS su FROM Orders GROUP BY productId")
        .unwrap();
    assert!(!rows.is_empty());
    broker.set_fault_injector(None);

    let mut raw = Vec::new();
    for p in 0..broker.partition_count("samzasql-q1-output").unwrap() {
        let mut off = 0;
        loop {
            let batch = broker.fetch("samzasql-q1-output", p, off, 1024).unwrap();
            if batch.records.is_empty() {
                break;
            }
            for rec in batch.records {
                off = rec.offset + 1;
                raw.push(rec.message.value.to_vec());
            }
        }
    }
    raw
}

#[test]
fn metrics_enabled_chaos_run_output_is_byte_identical_to_disabled() {
    for seed in [5, 91] {
        let profiled = chaos_query_output(seed, true);
        let plain = chaos_query_output(seed, false);
        assert_eq!(
            profiled, plain,
            "profiling changed query output bytes (seed {seed})"
        );
    }
}
