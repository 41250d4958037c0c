//! Property test for the batched pipeline: for the paper's four §5.1 query
//! shapes, routing a message sequence through [`MessageRouter::route_batch`]
//! in arbitrary batch splits produces *byte-identical* output to routing the
//! same sequence one message at a time — including relation tombstones
//! mid-stream and the end-of-input flush.
//!
//! This is the refactor's safety net: batching is purely an execution-
//! strategy change, never a semantics change.

use samzasql_core::router::MessageRouter;
use samzasql_core::udaf::UdafRegistry;
use samzasql_kafka::{Bytes, Message};
use samzasql_planner::{Catalog, Planner};
use samzasql_samza::KeyValueStore;
use samzasql_serde::avro::AvroCodec;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::Value;
use samzasql_testkit::Rng;
use samzasql_workload::{orders_schema, products_schema};
use std::sync::Arc;

fn planner() -> Planner {
    let mut catalog = Catalog::new();
    catalog
        .register_stream("Orders", "orders", orders_schema(), "rowtime")
        .unwrap();
    catalog.set_partition_key("Orders", "productId").unwrap();
    catalog
        .register_table("Products", "products-changelog", products_schema())
        .unwrap();
    catalog.set_partition_key("Products", "productId").unwrap();
    Planner::new(catalog)
}

fn build_router(sql: &str) -> MessageRouter {
    let planned = planner().plan(sql).unwrap();
    MessageRouter::build(&planned, &UdafRegistry::new()).unwrap()
}

fn order_message(rng: &mut Rng, seq: i64) -> Message {
    let product = rng.below(10) as i32;
    let value = Value::record(vec![
        // Mostly increasing rowtimes with jitter, so sliding windows see
        // occasional out-of-order (late) tuples on both paths.
        (
            "rowtime",
            Value::Timestamp(seq * 1_000 + rng.below(5_000) as i64 - 2_500),
        ),
        ("productId", Value::Int(product)),
        ("orderId", Value::Long(seq)),
        ("units", Value::Int(rng.below(100) as i32)),
        ("pad", Value::String("xxxxxxxx".into())),
    ]);
    Message {
        key: Some(Bytes::from(
            ObjectCodec::new().encode(&Value::Int(product)).unwrap(),
        )),
        value: Bytes::from(AvroCodec::new(orders_schema()).encode(&value).unwrap()),
        timestamp: 0,
    }
}

fn product_message(rng: &mut Rng) -> Message {
    let product = rng.below(10) as i32;
    if rng.below(4) == 0 {
        // Tombstone: empty payload deletes the relation row mid-stream.
        Message {
            key: Some(Bytes::from(
                ObjectCodec::new().encode(&Value::Int(product)).unwrap(),
            )),
            value: Bytes::new(),
            timestamp: 0,
        }
    } else {
        let value = Value::record(vec![
            ("productId", Value::Int(product)),
            ("name", Value::String(format!("p{product}"))),
            ("supplierId", Value::Int(rng.below(5) as i32)),
        ]);
        Message {
            key: Some(Bytes::from(
                ObjectCodec::new().encode(&Value::Int(product)).unwrap(),
            )),
            value: Bytes::from(AvroCodec::new(products_schema()).encode(&value).unwrap()),
            timestamp: 0,
        }
    }
}

/// Build the input sequence: `(topic, message)` pairs. For joins, a relation
/// snapshot leads (mirroring the bootstrap phase) and further upserts and
/// tombstones interleave with the order stream.
fn input_sequence(rng: &mut Rng, n: usize, with_products: bool) -> Vec<(&'static str, Message)> {
    let mut seq = Vec::new();
    if with_products {
        for _ in 0..10 {
            seq.push(("products-changelog", product_message(rng)));
        }
    }
    for i in 0..n {
        if with_products && rng.below(5) == 0 {
            seq.push(("products-changelog", product_message(rng)));
        }
        seq.push(("orders", order_message(rng, i as i64)));
    }
    seq
}

/// Encoded outputs flattened into comparable bytes.
fn fingerprint(
    outputs: &[samzasql_core::ops::insert::EncodedOutput],
) -> Vec<(Vec<u8>, i64, Option<Vec<u8>>)> {
    outputs
        .iter()
        .map(|o| {
            (
                o.payload.to_vec(),
                o.timestamp,
                o.key.as_ref().map(|k| k.to_vec()),
            )
        })
        .collect()
}

/// Run `messages` through a fresh router one message at a time (the
/// reference path), returning outputs + flush outputs.
fn run_reference(
    sql: &str,
    messages: &[(&'static str, Message)],
) -> Vec<(Vec<u8>, i64, Option<Vec<u8>>)> {
    let mut router = build_router(sql);
    let mut store = KeyValueStore::ephemeral("ref");
    let mut outputs = Vec::new();
    for (topic, m) in messages {
        outputs.extend(
            router
                .route(topic, m.key.as_ref(), &m.value, Some(&mut store))
                .unwrap(),
        );
    }
    outputs.extend(router.flush(Some(&mut store)).unwrap());
    fingerprint(&outputs)
}

/// Run `messages` through a fresh router in random batch splits, feeding
/// each split's consecutive same-topic runs to `route_batch` — exactly how
/// the container delivers fetch slices.
fn run_batched(
    sql: &str,
    messages: &[(&'static str, Message)],
    rng: &mut Rng,
) -> Vec<(Vec<u8>, i64, Option<Vec<u8>>)> {
    let mut router = build_router(sql);
    let mut store = KeyValueStore::ephemeral("batched");
    let mut outputs = Vec::new();
    route_in_random_splits(&mut router, &mut store, messages, rng, &mut outputs);
    router.flush_into(Some(&mut store), &mut outputs).unwrap();
    fingerprint(&outputs)
}

fn route_in_random_splits(
    router: &mut MessageRouter,
    store: &mut KeyValueStore,
    messages: &[(&'static str, Message)],
    rng: &mut Rng,
    outputs: &mut Vec<samzasql_core::ops::insert::EncodedOutput>,
) {
    let mut i = 0;
    while i < messages.len() {
        let batch = (1 + rng.below(17) as usize).min(messages.len() - i);
        let slice = &messages[i..i + batch];
        let mut j = 0;
        while j < slice.len() {
            let topic = slice[j].0;
            let mut k = j + 1;
            while k < slice.len() && slice[k].0 == topic {
                k += 1;
            }
            router
                .route_batch(
                    topic,
                    slice[j..k].iter().map(|(_, m)| (m.key.as_ref(), &m.value)),
                    Some(store),
                    outputs,
                )
                .unwrap();
            j = k;
        }
        i += batch;
    }
}

fn check_equivalence(sql: &str, with_products: bool, seed: u64) {
    let mut gen_rng = Rng::new(seed);
    let messages = input_sequence(&mut gen_rng, 300, with_products);
    let reference = run_reference(sql, &messages);
    assert!(
        !reference.is_empty(),
        "shape produced no output — test would be vacuous: {sql}"
    );
    for trial in 0..8 {
        let mut split_rng = Rng::new(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(trial + 1)));
        let batched = run_batched(sql, &messages, &mut split_rng);
        assert_eq!(
            batched, reference,
            "batched output diverged (seed {seed}, trial {trial}): {sql}"
        );
    }
}

#[test]
fn filter_batched_equals_per_message() {
    check_equivalence("SELECT STREAM * FROM Orders WHERE units > 50", false, 7);
}

#[test]
fn project_batched_equals_per_message() {
    check_equivalence(
        "SELECT STREAM rowtime, productId, units FROM Orders",
        false,
        11,
    );
}

#[test]
fn sliding_window_batched_equals_per_message() {
    check_equivalence(
        "SELECT STREAM rowtime, productId, units, \
         SUM(units) OVER (PARTITION BY productId ORDER BY rowtime \
         RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes FROM Orders",
        false,
        13,
    );
}

const JOIN: &str = "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, \
     Orders.units, Products.supplierId \
     FROM Orders JOIN Products ON Orders.productId = Products.productId";

#[test]
fn stream_to_relation_join_batched_equals_per_message() {
    check_equivalence(JOIN, true, 17);
}

/// The profiler tallies scan rows, bytes and tombstones per batch and adds
/// them to its counters once per `route_batch`; the totals are still those
/// of every message routed, whatever the batch splits.
#[test]
fn profiled_scan_counts_are_the_per_message_totals() {
    let messages = input_sequence(&mut Rng::new(23), 300, true);
    let mut expected: Vec<(String, u64, u64, u64)> = ["orders", "products-changelog"]
        .iter()
        .map(|topic| {
            let payloads = messages.iter().filter(|(t, _)| t == topic);
            let (tombstones, rows): (Vec<_>, Vec<_>) =
                payloads.partition(|(_, m)| m.value.is_empty());
            let bytes = rows.iter().map(|(_, m)| m.value.len() as u64).sum();
            (
                topic.to_string(),
                rows.len() as u64,
                bytes,
                tombstones.len() as u64,
            )
        })
        .collect();
    expected.sort();
    assert!(expected.iter().all(|e| e.1 > 0) && expected[1].3 > 0);
    for seed in [1, 2, 3] {
        let mut router = build_router(JOIN);
        router.enable_profiling(Arc::new(samzasql_obs::MonotonicTime::new()));
        let mut store = KeyValueStore::ephemeral("profiled");
        let mut outputs = Vec::new();
        let mut rng = Rng::new(seed);
        route_in_random_splits(&mut router, &mut store, &messages, &mut rng, &mut outputs);
        let mut counted: Vec<(String, u64, u64, u64)> = router
            .profile()
            .unwrap()
            .entries
            .into_iter()
            .map(|e| (e.topic, e.rows, e.bytes, e.tombstones))
            .collect();
        counted.sort();
        assert_eq!(counted, expected, "split seed {seed}");
    }
}
