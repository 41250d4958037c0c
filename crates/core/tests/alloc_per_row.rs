//! Deterministic allocation gate for the filter path (§5.1, Figure 4).
//!
//! A counting global allocator tallies heap allocations (including
//! reallocations) made by the calling thread only, so the other tests of
//! this binary, running on their own threads, do not disturb the counts.
//! The gate routes seeded Orders through `SamzaSqlTask::process_batch`
//! after a warm-up batch has grown every reusable buffer, and pins how many
//! allocations each input row and each output row costs. Wall-clock noise
//! cannot move these numbers; a change to them is a change to the code.

use samzasql_coord::Coord;
use samzasql_core::task::{SamzaSqlTask, TaskPlanSource};
use samzasql_core::udaf::UdafRegistry;
use samzasql_kafka::{Bytes, TopicPartition};
use samzasql_obs::MetricsRegistry;
use samzasql_planner::{Catalog, Planner};
use samzasql_samza::{
    IncomingMessageEnvelope, MessageCollector, StreamTask, TaskContext, TaskCoordinator,
};
use samzasql_workload::{orders_schema, OrdersGenerator, OrdersSpec};
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

fn filter_task() -> (SamzaSqlTask, TaskContext) {
    let mut catalog = Catalog::new();
    catalog
        .register_stream("Orders", "orders", orders_schema(), "rowtime")
        .unwrap();
    catalog.set_partition_key("Orders", "productId").unwrap();
    let coord = Coord::new();
    coord
        .upsert(
            format!("/samzasql/queries/{JOB}/sql"),
            "SELECT STREAM * FROM Orders WHERE units > 50",
        )
        .unwrap();
    let mut task = SamzaSqlTask::new(
        JOB,
        "out",
        coord,
        TaskPlanSource::Replan {
            planner: Arc::new(Planner::new(catalog)),
        },
        Arc::new(UdafRegistry::new()),
    );
    let mut ctx = TaskContext::new("Partition 0", 0, vec![], MetricsRegistry::new());
    task.init(&mut ctx).unwrap();
    (task, ctx)
}

fn envelopes(
    gen: &mut OrdersGenerator,
    n: usize,
    first_offset: u64,
) -> Vec<IncomingMessageEnvelope> {
    let tp = Arc::new(TopicPartition::new("orders", 0));
    gen.messages(n)
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
