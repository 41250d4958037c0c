//! End-to-end tests for hopping windows with alignment.

use samzasql_core::shell::SamzaSqlShell;
use samzasql_kafka::{Broker, TopicConfig};
use samzasql_serde::{Schema, Value};
use std::time::Duration;

fn orders_shell() -> SamzaSqlShell {
    let broker = Broker::new();
    broker
        .create_topic("orders", TopicConfig::with_partitions(1))
        .unwrap();
    let mut shell = SamzaSqlShell::new(broker);
    shell
        .register_stream(
            "Orders",
            "orders",
            Schema::record(
                "Orders",
                vec![
                    ("rowtime", Schema::Timestamp),
                    ("productId", Schema::Int),
                    ("orderId", Schema::Long),
                    ("units", Schema::Int),
                ],
            ),
            "rowtime",
        )
        .unwrap();
    shell
}

fn order(ts: i64, units: i32) -> Value {
    Value::record(vec![
        ("rowtime", Value::Timestamp(ts)),
        ("productId", Value::Int(1)),
        ("orderId", Value::Long(ts)),
        ("units", Value::Int(units)),
    ])
}

/// Listing 5's shape: total orders within a 2-hour period beginning 30
/// minutes past each hour, emitted every 90 minutes.
#[test]
fn listing5_hop_with_alignment_end_to_end() {
    let mut shell = orders_shell();
    let mut handle = shell
        .submit(
            "SELECT STREAM START(rowtime), END(rowtime), COUNT(*) FROM Orders \
             GROUP BY HOP(rowtime, INTERVAL '1:30' HOUR TO MINUTE, \
             INTERVAL '2' HOUR, TIME '0:30')",
        )
        .unwrap();
    let min = 60_000i64;
    // Orders at 0:40, 1:00, 2:10, and a watermark-advancing one at 6:00.
    for ts in [40 * min, 60 * min, 130 * min, 360 * min] {
        shell.produce("Orders", order(ts, 1)).unwrap();
    }
    // Window starts: 0:30 + k*1:30 → 0:30, 2:00, 3:30 … each 2h long.
    // [0:30, 2:30): orders at 0:40, 1:00, 2:10 → 3.
    let rows = handle.await_outputs(2, Duration::from_secs(10)).unwrap();
    let first = rows
        .iter()
        .find(|r| r.field("start_0") == Some(&Value::Timestamp(30 * min)))
        .unwrap_or_else(|| panic!("no [0:30,2:30) window in {rows:?}"));
    assert_eq!(first.field("end_1"), Some(&Value::Timestamp(150 * min)));
    assert_eq!(first.field("count_2"), Some(&Value::Long(3)));
    handle.stop().unwrap();
}

/// Windows before the alignment offset are also well-defined (negative k).
#[test]
fn hop_alignment_handles_records_before_offset() {
    let mut shell = orders_shell();
    let mut handle = shell
        .submit(
            "SELECT STREAM START(rowtime), COUNT(*) FROM Orders \
             GROUP BY HOP(rowtime, INTERVAL '10' SECOND, INTERVAL '10' SECOND, TIME '0:00:05')",
        )
        .unwrap();
    // Record at t=2s: its tumble-with-align-5s window is [-5s, 5s).
    shell.produce("Orders", order(2_000, 1)).unwrap();
    shell.produce("Orders", order(30_000, 1)).unwrap(); // closes it
    let rows = handle.await_outputs(1, Duration::from_secs(10)).unwrap();
    assert_eq!(rows[0].field("start_0"), Some(&Value::Timestamp(-5_000)));
    assert_eq!(rows[0].field("count_1"), Some(&Value::Long(1)));
    handle.stop().unwrap();
}
