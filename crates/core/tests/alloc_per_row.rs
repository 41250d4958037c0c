//! Deterministic allocation gates for the filter path (§5.1, Figure 4), the
//! stream-to-relation join (Figure 5c) and the sliding-window path
//! (Figure 6).
//!
//! A counting global allocator tallies heap allocations (including
//! reallocations) made by the calling thread only, so the other tests of
//! this binary, running on their own threads, do not disturb the counts.
//! Each gate routes seeded Orders through `SamzaSqlTask::process_batch`
//! after a warm-up batch has grown every reusable buffer, and pins how many
//! allocations the measured batches cost. Wall-clock noise cannot move
//! these numbers; a change to them is a change to the code.

use samzasql_coord::Coord;
use samzasql_core::ops::STATE_STORE;
use samzasql_core::task::{SamzaSqlTask, TaskPlanSource};
use samzasql_core::udaf::UdafRegistry;
use samzasql_kafka::{Broker, Bytes, TopicConfig, TopicPartition};
use samzasql_obs::MetricsRegistry;
use samzasql_planner::{Catalog, Planner};
use samzasql_samza::{
    IncomingMessageEnvelope, KeyValueStore, MessageCollector, StoreMetricsSnapshot, StreamTask,
    TaskContext, TaskCoordinator,
};
use samzasql_workload::{
    orders_schema, products_schema, OrdersGenerator, OrdersSpec, ProductsGenerator, ProductsSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// `Some(n)` while the thread is counting: `n` allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting was on");
    (n, out)
}

const JOB: &str = "alloc-gate";

/// A task running `sql` over the Orders stream and the Products relation
/// (changelog topic `products`), and its partition-0 context; the caller
/// registers any store and then calls `init`.
fn orders_task(sql: &str) -> (SamzaSqlTask, TaskContext) {
    let mut catalog = Catalog::new();
    catalog
        .register_stream("Orders", "orders", orders_schema(), "rowtime")
        .unwrap();
    catalog.set_partition_key("Orders", "productId").unwrap();
    catalog
        .register_table("Products", "products", products_schema())
        .unwrap();
    catalog.set_partition_key("Products", "productId").unwrap();
    let coord = Coord::new();
    coord
        .upsert(format!("/samzasql/queries/{JOB}/sql"), sql)
        .unwrap();
    let task = SamzaSqlTask::new(
        JOB,
        "out",
        coord,
        TaskPlanSource::Replan {
            planner: Arc::new(Planner::new(catalog)),
        },
        Arc::new(UdafRegistry::new()),
    );
    let ctx = TaskContext::new("Partition 0", 0, vec![], MetricsRegistry::new());
    (task, ctx)
}

fn filter_task() -> (SamzaSqlTask, TaskContext) {
    let (mut task, mut ctx) = orders_task("SELECT STREAM * FROM Orders WHERE units > 50");
    task.init(&mut ctx).unwrap();
    (task, ctx)
}

fn envelopes(
    gen: &mut OrdersGenerator,
    n: usize,
    first_offset: u64,
) -> Vec<IncomingMessageEnvelope> {
    on_topic("orders", gen.messages(n), first_offset)
}

fn on_topic(
    topic: &str,
    messages: Vec<samzasql_kafka::Message>,
    first_offset: u64,
) -> Vec<IncomingMessageEnvelope> {
    let tp = Arc::new(TopicPartition::new(topic, 0));
    messages
        .into_iter()
        .zip(first_offset..)
        .map(|(m, offset)| IncomingMessageEnvelope {
            tp: tp.clone(),
            offset,
            timestamp: m.timestamp,
            key: m.key,
            payload: m.value,
        })
        .collect()
}

/// Per input row: the Avro decode's value array and its `pad` string, and
/// the fresh tuple array `AvroToArray` copies the values into.
const ALLOCS_PER_INPUT_ROW: u64 = 3;
/// Per output row: the encoded payload, copied once out of the insert
/// operator's reused buffer. The envelope shares the task's topic name.
const ALLOCS_PER_OUTPUT_ROW: u64 = 1;

#[test]
fn filter_batch_allocations_per_row_are_pinned() {
    const N: usize = 500;
    let (mut task, mut ctx) = filter_task();
    let mut gen = OrdersGenerator::new(OrdersSpec::default());
    let mut collector = MessageCollector::new();
    let mut coordinator = TaskCoordinator::default();
    let mut sent = Vec::new();

    // Warm-up: a larger batch grows every reusable buffer (router staging,
    // output staging, encode buffer, collector) past what the measured
    // batch needs.
    let warm = envelopes(&mut gen, 2 * N, 0);
    task.process_batch(&warm, &mut ctx, &mut collector, &mut coordinator)
        .unwrap();
    collector.drain_into(&mut sent);
    sent.clear();

    let batch = envelopes(&mut gen, N, 2 * N as u64);
    let (allocs, processed) = allocations(|| {
        task.process_batch(&batch, &mut ctx, &mut collector, &mut coordinator)
            .unwrap()
    });
    assert_eq!(processed, N);
    let outputs = collector.len() as u64;
    assert!(
        outputs > N as u64 / 4 && outputs < 3 * N as u64 / 4,
        "the filter passes about half the orders, got {outputs} of {N}"
    );
    let expected = ALLOCS_PER_INPUT_ROW * N as u64 + ALLOCS_PER_OUTPUT_ROW * outputs;
    assert_eq!(
        allocs, expected,
        "{N} input rows and {outputs} output rows made {allocs} allocations, \
         expected {ALLOCS_PER_INPUT_ROW} per input row + {ALLOCS_PER_OUTPUT_ROW} per output row"
    );
    collector.drain_into(&mut sent);
    assert!(sent.iter().all(|env| &*env.topic == "out"));
}

#[test]
fn bytes_clone_shares_and_copy_allocates_once() {
    let data = vec![7u8; 100];
    let (copies, b) = allocations(|| Bytes::copy_from_slice(&data));
    assert_eq!(copies, 1, "copy_from_slice is one allocation");
    let (clones, c) = allocations(|| b.clone());
    assert_eq!(clones, 0, "a clone bumps a refcount");
    assert_eq!(c.as_ptr(), b.as_ptr());
}

/// Figure 6's query: a 5-minute sliding SUM per product.
const WINDOW_SQL: &str = "SELECT STREAM rowtime, productId, units, \
     SUM(units) OVER (PARTITION BY productId ORDER BY rowtime \
     RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes FROM Orders";

/// Per order while nothing expires: the Avro decode's value array and its
/// `pad` string, the fresh tuple array (with room for the SUM column the
/// window appends, so it never grows), the message-store value and key
/// (each copied once out of the operator's reused buffers into what the
/// store keeps), the projected output tuple, and the encoded output
/// payload.
const WINDOW_ALLOCS_PER_ORDER: u64 = 7;

/// The no-purge stretch: 200 orders over 85 products. Its budget is
/// 7 allocations per order (1 400) plus about 9 per product the batch
/// touches (the group key the batch memoizes, the state bundle's decode and
/// its re-encode, and the key copy the store's one-search `put` makes and
/// drops when it overwrites the bundle, about 765) plus the ordered maps'
/// node splits: 2 202, 11.0 per order. It was 2 118 while `put` searched
/// the map twice to reuse a present key (one copy fewer for each of the 84
/// bundles the batch overwrites); before the scan made room for the SUM
/// column 2 318, and before message keys and values were built in reused
/// buffers and the store copied each key once, 6 052. The commit after the
/// batch is not counted, so the changelog message vectors commits no longer
/// build move neither pin.
const WINDOW_NO_PURGE_ALLOCS: u64 = 2202;
/// State bundles the no-purge stretch overwrites: every product it touches
/// but the one it meets for the first time.
const WINDOW_NO_PURGE_OVERWRITES: u64 = 84;
/// The purge stretch: 300 orders, most of which expire an older message of
/// their product; each purging order also pays for its range scan's result
/// and the decode of every expired message, and each of the 94 bundles it
/// overwrites for a key copy (3 424 with the two-search `put`, 3 724 before
/// the scan made room for the SUM column, 9 491 before the reused buffers).
const WINDOW_PURGE_ALLOCS: u64 = 3518;
const WINDOW_PURGE_OVERWRITES: u64 = 94;

#[test]
fn window_batch_allocations_are_pinned() {
    // One order every 500 ms over 100 products: the first 600 orders span
    // under 5 minutes, so nothing expires; from then on each order expires
    // about one of its product's older messages.
    let mut gen = OrdersGenerator::new(OrdersSpec {
        inter_arrival_ms: 500,
        ..OrdersSpec::default()
    });
    let (mut task, mut ctx) = orders_task(WINDOW_SQL);
    let broker = Broker::new();
    broker
        .create_topic("changelog", TopicConfig::with_partitions(1))
        .unwrap();
    ctx.register_store(KeyValueStore::with_changelog(
        STATE_STORE,
        broker,
        "changelog",
        0,
    ));
    task.init(&mut ctx).unwrap();
    let mut collector = MessageCollector::new();
    let mut coordinator = TaskCoordinator::default();
    let mut sent = Vec::new();
    // State bundles a batch overwrites: its puts are one per order plus one
    // per group it touches, and the store grows by one key per order and
    // per new group, less what the purge deletes.
    let overwrites = |ctx: &TaskContext, before: (StoreMetricsSnapshot, usize), orders: u64| {
        let store = ctx.store(STATE_STORE).unwrap();
        let (m, len) = (store.metrics(), store.len());
        let groups = m.puts - before.0.puts - orders;
        let grown = (len + (m.deletes - before.0.deletes) as usize - before.1) as u64;
        groups - (grown - orders)
    };
    let snapshot = |ctx: &TaskContext| {
        let store = ctx.store(STATE_STORE).unwrap();
        (store.metrics(), store.len())
    };
    let mut run = |batch: &[IncomingMessageEnvelope], ctx: &mut TaskContext| {
        let (allocs, processed) = allocations(|| {
            task.process_batch(batch, ctx, &mut collector, &mut coordinator)
                .unwrap()
        });
        assert_eq!(processed, batch.len());
        assert_eq!(collector.len(), batch.len(), "one output row per order");
        collector.drain_into(&mut sent);
        sent.clear();
        // Commit: the changelog buffer empties and keeps its capacity.
        ctx.flush_changelogs().unwrap();
        allocs
    };

    // Warm-up: 400 orders grow the router, operator, store and collector
    // buffers past what either measured batch needs.
    run(&envelopes(&mut gen, 400, 0), &mut ctx);
    let deletes = |ctx: &TaskContext| ctx.store(STATE_STORE).unwrap().metrics().deletes;
    assert_eq!(deletes(&ctx), 0);

    let no_purge = envelopes(&mut gen, 200, 400);
    let before = snapshot(&ctx);
    let allocs = run(&no_purge, &mut ctx);
    assert_eq!(deletes(&ctx), 0, "nothing expires in the first 5 minutes");
    assert_eq!(overwrites(&ctx, before, 200), WINDOW_NO_PURGE_OVERWRITES);
    assert!(allocs >= WINDOW_ALLOCS_PER_ORDER * 200);
    assert_eq!(allocs, WINDOW_NO_PURGE_ALLOCS, "200 orders, no purges");

    let purge = envelopes(&mut gen, 300, 600);
    let before = snapshot(&ctx);
    let allocs = run(&purge, &mut ctx);
    assert_eq!(overwrites(&ctx, before, 300), WINDOW_PURGE_OVERWRITES);
    let expired = deletes(&ctx);
    assert!(
        expired > 200,
        "most orders expire an older message of their product, {expired} expired"
    );
    assert_eq!(allocs, WINDOW_PURGE_ALLOCS, "300 orders with purges");
}

/// Figure 5c's query: Orders joined with the Products relation.
const JOIN_SQL: &str = "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, \
     Orders.units, Products.supplierId \
     FROM Orders JOIN Products ON Orders.productId = Products.productId";

/// Per order once every product's row is decoded: the Avro decode's value
/// array and its `pad` string, the fresh tuple array (with room for the
/// relation columns, which the join appends in place), the clone of the
/// product's `name`, the projected output tuple, and the encoded output
/// payload. The probe key is built in the operator's reused buffer and the
/// product's row comes from the store's decoded-row cache, so neither
/// allocates.
const JOIN_ALLOCS_PER_ORDER: u64 = 6;

#[test]
fn join_batch_allocations_are_pinned() {
    const N: usize = 500;
    let (mut task, mut ctx) = orders_task(JOIN_SQL);
    ctx.register_store(KeyValueStore::ephemeral(STATE_STORE));
    task.init(&mut ctx).unwrap();
    let mut collector = MessageCollector::new();
    let mut coordinator = TaskCoordinator::default();
    let mut sent = Vec::new();

    // Bootstrap the whole relation, then a warm-up batch grows every
    // reusable buffer and probes every product once.
    let products = ProductsGenerator::new(ProductsSpec::default()).snapshot();
    let mut gen = OrdersGenerator::new(OrdersSpec::default());
    let warm = envelopes(&mut gen, 2 * N, 0);
    for batch in [on_topic("products", products, 0), warm] {
        task.process_batch(&batch, &mut ctx, &mut collector, &mut coordinator)
            .unwrap();
        collector.drain_into(&mut sent);
        sent.clear();
    }
    let gets = |ctx: &TaskContext| ctx.store(STATE_STORE).unwrap().metrics().gets;
    let warm_gets = gets(&ctx);

    let batch = envelopes(&mut gen, N, 2 * N as u64);
    let (allocs, processed) = allocations(|| {
        task.process_batch(&batch, &mut ctx, &mut collector, &mut coordinator)
            .unwrap()
    });
    assert_eq!(processed, N);
    assert_eq!(collector.len(), N, "every order joins one product");
    assert_eq!(
        allocs,
        JOIN_ALLOCS_PER_ORDER * N as u64,
        "{N} orders made {allocs} allocations, expected {JOIN_ALLOCS_PER_ORDER} per order"
    );
    assert_eq!(gets(&ctx), warm_gets, "every probe hits a decoded row");
}
