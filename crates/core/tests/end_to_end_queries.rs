//! End-to-end tests: every paper query executed through the full stack —
//! shell → planner → job config → metadata store → task-side re-planning →
//! message router → operators → output topic.

use samzasql_core::shell::SamzaSqlShell;
use samzasql_kafka::{Broker, TopicConfig};
use samzasql_serde::{Schema, Value};
use samzasql_testkit::wait_until;
use std::time::Duration;

fn orders_schema() -> Schema {
    Schema::record(
        "Orders",
        vec![
            ("rowtime", Schema::Timestamp),
            ("productId", Schema::Int),
            ("orderId", Schema::Long),
            ("units", Schema::Int),
        ],
    )
}

fn order(ts: i64, product: i32, order_id: i64, units: i32) -> Value {
    Value::record(vec![
        ("rowtime", Value::Timestamp(ts)),
        ("productId", Value::Int(product)),
        ("orderId", Value::Long(order_id)),
        ("units", Value::Int(units)),
    ])
}

fn shell_with_orders(partitions: u32) -> SamzaSqlShell {
    let broker = Broker::new();
    broker
        .create_topic("orders", TopicConfig::with_partitions(partitions))
        .unwrap();
    let mut shell = SamzaSqlShell::new(broker);
    shell
        .register_stream("Orders", "orders", orders_schema(), "rowtime")
        .unwrap();
    shell.set_partition_key("Orders", "productId").unwrap();
    shell
}

// ------------------------------------------------------------- streaming

#[test]
fn streaming_filter_query() {
    let mut shell = shell_with_orders(2);
    let mut handle = shell
        .submit("SELECT STREAM * FROM Orders WHERE units > 50")
        .unwrap();
    for i in 0..20 {
        shell
            .produce("Orders", order(i, (i % 3) as i32, i, (i * 10) as i32))
            .unwrap();
    }
    // units > 50 ⇒ i*10 > 50 ⇒ i in 6..20 ⇒ 14 rows.
    let rows = handle.await_outputs(14, Duration::from_secs(10)).unwrap();
    assert_eq!(rows.len(), 14);
    for r in &rows {
        assert!(r.field("units").unwrap().as_i64().unwrap() > 50);
    }
    handle.stop().unwrap();
}

#[test]
fn streaming_projection_keeps_timestamp() {
    let mut shell = shell_with_orders(2);
    let mut handle = shell
        .submit("SELECT STREAM rowtime, productId, units FROM Orders")
        .unwrap();
    assert!(handle.warnings.is_empty(), "{:?}", handle.warnings);
    shell.produce("Orders", order(42, 7, 1, 30)).unwrap();
    let rows = handle.await_outputs(1, Duration::from_secs(10)).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].field("rowtime"), Some(&Value::Timestamp(42)));
    assert_eq!(rows[0].field("productId"), Some(&Value::Int(7)));
    assert_eq!(rows[0].field("units"), Some(&Value::Int(30)));
    assert_eq!(rows[0].field("orderId"), None, "projected away");
    handle.stop().unwrap();
}

#[test]
fn timestamp_drop_warning_surfaces_on_handle() {
    let mut shell = shell_with_orders(1);
    let handle = shell
        .submit("SELECT STREAM productId, units FROM Orders")
        .unwrap();
    assert!(handle.warnings.iter().any(|w| w.contains("timestamp")));
    handle.stop().unwrap();
}

#[test]
fn streaming_sliding_window_running_sums() {
    let mut shell = shell_with_orders(1);
    let mut handle = shell
        .submit(
            "SELECT STREAM rowtime, productId, units, \
             SUM(units) OVER (PARTITION BY productId ORDER BY rowtime \
             RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes FROM Orders",
        )
        .unwrap();
    // Product 1: units 10 at t=0, 20 at t=1min, 5 at t=10min (first two expire).
    shell.produce("Orders", order(0, 1, 1, 10)).unwrap();
    shell.produce("Orders", order(60_000, 1, 2, 20)).unwrap();
    shell.produce("Orders", order(600_000, 1, 3, 5)).unwrap();
    let rows = handle.await_outputs(3, Duration::from_secs(10)).unwrap();
    assert_eq!(rows.len(), 3);
    let sums: Vec<i64> = rows
        .iter()
        .map(|r| r.field("unitsLastFiveMinutes").unwrap().as_i64().unwrap())
        .collect();
    assert_eq!(sums, vec![10, 30, 5]);
    handle.stop().unwrap();
}

#[test]
fn streaming_tumbling_window_counts() {
    let mut shell = shell_with_orders(1);
    let mut handle = shell
        .submit(
            "SELECT STREAM START(rowtime), COUNT(*) FROM Orders \
             GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)",
        )
        .unwrap();
    let hour = 3_600_000;
    // 3 orders in hour 0, 2 in hour 1, 1 in hour 2 (closes hour 1).
    for (i, ts) in [10, 20, 30, hour + 1, hour + 2, 2 * hour + 1]
        .iter()
        .enumerate()
    {
        shell.produce("Orders", order(*ts, 1, i as i64, 1)).unwrap();
    }
    let rows = handle.await_outputs(2, Duration::from_secs(10)).unwrap();
    assert_eq!(rows.len(), 2, "hours 0 and 1 closed: {rows:?}");
    assert_eq!(rows[0].field("count_1"), Some(&Value::Long(3)));
    assert_eq!(rows[1].field("count_1"), Some(&Value::Long(2)));
    handle.stop().unwrap();
}

#[test]
fn streaming_stream_to_relation_join() {
    let broker = Broker::new();
    broker
        .create_topic("orders", TopicConfig::with_partitions(2))
        .unwrap();
    broker
        .create_topic("products-changelog", TopicConfig::with_partitions(2))
        .unwrap();
    let mut shell = SamzaSqlShell::new(broker);
    shell
        .register_stream("Orders", "orders", orders_schema(), "rowtime")
        .unwrap();
    shell.set_partition_key("Orders", "productId").unwrap();
    shell
        .register_table(
            "Products",
            "products-changelog",
            Schema::record(
                "Products",
                vec![
                    ("productId", Schema::Int),
                    ("name", Schema::String),
                    ("supplierId", Schema::Int),
                ],
            ),
            "productId",
        )
        .unwrap();
    // Relation first (bootstrap), then the stream.
    for pid in 0..4 {
        shell
            .produce_relation(
                "Products",
                Value::record(vec![
                    ("productId", Value::Int(pid)),
                    ("name", Value::String(format!("product-{pid}"))),
                    ("supplierId", Value::Int(100 + pid)),
                ]),
            )
            .unwrap();
    }
    let mut handle = shell
        .submit(
            "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, \
             Orders.units, Products.supplierId \
             FROM Orders JOIN Products ON Orders.productId = Products.productId",
        )
        .unwrap();
    for i in 0..10 {
        shell
            .produce("Orders", order(i, (i % 4) as i32, i, 5))
            .unwrap();
    }
    let rows = handle.await_outputs(10, Duration::from_secs(10)).unwrap();
    assert_eq!(rows.len(), 10);
    for r in &rows {
        let pid = r.field("productId").unwrap().as_i64().unwrap();
        let sid = r.field("supplierId").unwrap().as_i64().unwrap();
        assert_eq!(sid, 100 + pid, "joined supplier matches product: {r}");
    }
    handle.stop().unwrap();
}

#[test]
fn join_reflects_relation_updates_and_deletes() {
    let broker = Broker::new();
    broker
        .create_topic("orders", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("products-changelog", TopicConfig::with_partitions(1))
        .unwrap();
    let mut shell = SamzaSqlShell::new(broker);
    shell
        .register_stream("Orders", "orders", orders_schema(), "rowtime")
        .unwrap();
    shell.set_partition_key("Orders", "productId").unwrap();
    shell
        .register_table(
            "Products",
            "products-changelog",
            Schema::record(
                "Products",
                vec![
                    ("productId", Schema::Int),
                    ("name", Schema::String),
                    ("supplierId", Schema::Int),
                ],
            ),
            "productId",
        )
        .unwrap();
    shell
        .produce_relation(
            "Products",
            Value::record(vec![
                ("productId", Value::Int(1)),
                ("name", Value::String("a".into())),
                ("supplierId", Value::Int(100)),
            ]),
        )
        .unwrap();
    let mut handle = shell
        .submit(
            "SELECT STREAM Orders.rowtime, Orders.productId, Products.supplierId \
             FROM Orders JOIN Products ON Orders.productId = Products.productId",
        )
        .unwrap();
    shell.produce("Orders", order(1, 1, 1, 5)).unwrap();
    let rows = handle.await_outputs(1, Duration::from_secs(10)).unwrap();
    assert_eq!(rows[0].field("supplierId"), Some(&Value::Int(100)));

    // Update the relation, then join again.
    shell
        .produce_relation(
            "Products",
            Value::record(vec![
                ("productId", Value::Int(1)),
                ("name", Value::String("a".into())),
                ("supplierId", Value::Int(200)),
            ]),
        )
        .unwrap();
    // The product, order 1, and now the update: wait until the join
    // operator has applied it (relation changelog records included).
    wait_until("3 processed", Duration::from_secs(10), || {
        handle.processed() >= 3
    });
    shell.produce("Orders", order(2, 1, 2, 5)).unwrap();
    let rows = handle.await_outputs(1, Duration::from_secs(10)).unwrap();
    assert_eq!(rows[0].field("supplierId"), Some(&Value::Int(200)));

    // Delete the relation row; further orders stop joining.
    shell.delete_relation("Products", &Value::Int(1)).unwrap();
    wait_until("5 processed", Duration::from_secs(10), || {
        handle.processed() >= 5
    });
    shell.produce("Orders", order(3, 1, 3, 5)).unwrap();
    let rows = handle.await_outputs(1, Duration::from_millis(300)).unwrap();
    assert!(
        rows.is_empty(),
        "deleted relation row no longer joins: {rows:?}"
    );
    handle.stop().unwrap();
}

#[test]
fn streaming_stream_to_stream_packet_join() {
    let broker = Broker::new();
    broker
        .create_topic("packetsr1", TopicConfig::with_partitions(1))
        .unwrap();
    broker
        .create_topic("packetsr2", TopicConfig::with_partitions(1))
        .unwrap();
    let mut shell = SamzaSqlShell::new(broker);
    let packet_schema = |name: &str| {
        Schema::record(
            name,
            vec![
                ("rowtime", Schema::Timestamp),
                ("sourcetime", Schema::Timestamp),
                ("packetId", Schema::Long),
            ],
        )
    };
    shell
        .register_stream(
            "PacketsR1",
            "packetsr1",
            packet_schema("PacketsR1"),
            "rowtime",
        )
        .unwrap();
    shell
        .register_stream(
            "PacketsR2",
            "packetsr2",
            packet_schema("PacketsR2"),
            "rowtime",
        )
        .unwrap();
    let mut handle = shell
        .submit(
            "SELECT STREAM GREATEST(PacketsR1.rowtime, PacketsR2.rowtime) AS rowtime, \
             PacketsR1.sourcetime, PacketsR1.packetId, \
             PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel \
             FROM PacketsR1 JOIN PacketsR2 ON \
             PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND \
             AND PacketsR2.rowtime + INTERVAL '2' SECOND \
             AND PacketsR1.packetId = PacketsR2.packetId",
        )
        .unwrap();
    let packet = |ts: i64, id: i64| {
        Value::record(vec![
            ("rowtime", Value::Timestamp(ts)),
            ("sourcetime", Value::Timestamp(ts)),
            ("packetId", Value::Long(id)),
        ])
    };
    // Packet 1 travels R1→R2 in 800ms (joins); packet 2 takes 5s (outside window).
    shell.produce("PacketsR1", packet(1_000, 1)).unwrap();
    shell.produce("PacketsR2", packet(1_800, 1)).unwrap();
    shell.produce("PacketsR1", packet(2_000, 2)).unwrap();
    shell.produce("PacketsR2", packet(7_000, 2)).unwrap();
    let rows = handle.await_outputs(1, Duration::from_secs(10)).unwrap();
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!(rows[0].field("packetId"), Some(&Value::Long(1)));
    assert_eq!(rows[0].field("timeToTravel"), Some(&Value::Long(800)));
    assert_eq!(
        rows[0].field("rowtime"),
        Some(&Value::Timestamp(1_800)),
        "GREATEST of the two"
    );
    handle.stop().unwrap();
}

// --------------------------------------------------------------- bounded

#[test]
fn bounded_query_reads_history() {
    let mut shell = shell_with_orders(2);
    for i in 0..10 {
        shell
            .produce("Orders", order(i, (i % 2) as i32, i, (i * 10) as i32))
            .unwrap();
    }
    // Absence of STREAM: history-as-table (§3.3).
    let rows = shell
        .query("SELECT * FROM Orders WHERE units >= 50")
        .unwrap();
    assert_eq!(rows.len(), 5);
}

#[test]
fn bounded_aggregate_with_having() {
    let mut shell = shell_with_orders(1);
    for i in 0..9 {
        shell
            .produce("Orders", order(i, (i % 3) as i32, i, 10))
            .unwrap();
    }
    shell.produce("Orders", order(100, 0, 99, 10)).unwrap();
    // Product 0 has 4 orders, products 1 and 2 have 3.
    let rows = shell
        .query("SELECT productId, COUNT(*) AS c FROM Orders GROUP BY productId HAVING COUNT(*) > 3")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].field("productId"), Some(&Value::Int(0)));
    assert_eq!(rows[0].field("c"), Some(&Value::Long(4)));
}

#[test]
fn bounded_order_by_limit() {
    let mut shell = shell_with_orders(1);
    for (i, units) in [30, 10, 50, 20, 40].iter().enumerate() {
        shell
            .produce("Orders", order(i as i64, 1, i as i64, *units))
            .unwrap();
    }
    let rows = shell
        .query("SELECT units FROM Orders ORDER BY units DESC LIMIT 3")
        .unwrap();
    let units: Vec<i64> = rows
        .iter()
        .map(|r| r.field("units").unwrap().as_i64().unwrap())
        .collect();
    assert_eq!(units, vec![50, 40, 30]);
}

#[test]
fn view_definition_then_bounded_consumption() {
    // Listing 3's HourlyOrderTotals, bounded.
    let mut shell = shell_with_orders(1);
    let hour = 3_600_000i64;
    // Product 1: 3 orders in hour 0 (15 units); product 2: 1 order (30 units).
    shell.produce("Orders", order(10, 1, 1, 5)).unwrap();
    shell.produce("Orders", order(20, 1, 2, 5)).unwrap();
    shell.produce("Orders", order(30, 1, 3, 5)).unwrap();
    shell.produce("Orders", order(hour / 2, 2, 4, 30)).unwrap();
    shell
        .execute_ddl(
            "CREATE VIEW HourlyOrderTotals (rowtime, productId, c, su) AS \
             SELECT FLOOR(rowtime TO HOUR), productId, COUNT(*), SUM(units) \
             FROM Orders GROUP BY FLOOR(rowtime TO HOUR), productId",
        )
        .unwrap();
    let rows = shell
        .query("SELECT rowtime, productId FROM HourlyOrderTotals WHERE c > 2 OR su > 10")
        .unwrap();
    assert_eq!(rows.len(), 2, "both products qualify: {rows:?}");
}

#[test]
fn bounded_case_expression() {
    let mut shell = shell_with_orders(1);
    shell.produce("Orders", order(1, 1, 1, 5)).unwrap();
    shell.produce("Orders", order(2, 1, 2, 50)).unwrap();
    let rows = shell
        .query("SELECT orderId, CASE WHEN units > 10 THEN 'big' ELSE 'small' END AS sz FROM Orders")
        .unwrap();
    assert_eq!(rows[0].field("sz"), Some(&Value::String("small".into())));
    assert_eq!(rows[1].field("sz"), Some(&Value::String("big".into())));
}

// ----------------------------------------------------------- extensions

#[test]
fn user_defined_aggregate_in_query() {
    use samzasql_core::udaf::GeometricMean;
    let mut shell = shell_with_orders(1);
    shell.register_udaf("GEO_MEAN", std::sync::Arc::new(GeometricMean));
    shell.produce("Orders", order(1, 1, 1, 2)).unwrap();
    shell.produce("Orders", order(2, 1, 2, 8)).unwrap();
    let rows = shell
        .query("SELECT productId, GEO_MEAN(units) AS g FROM Orders GROUP BY productId")
        .unwrap();
    assert_eq!(rows.len(), 1);
    match rows[0].field("g") {
        Some(Value::Double(v)) => assert!((v - 4.0).abs() < 1e-9, "gm(2,8)=4, got {v}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn repartition_split_runs_as_two_jobs() {
    // Orders partitioned by orderId, joined on productId ⇒ repartition stage.
    let broker = Broker::new();
    broker
        .create_topic("orders", TopicConfig::with_partitions(2))
        .unwrap();
    broker
        .create_topic("products-changelog", TopicConfig::with_partitions(2))
        .unwrap();
    let mut shell = SamzaSqlShell::new(broker);
    shell
        .register_stream("Orders", "orders", orders_schema(), "rowtime")
        .unwrap();
    shell.set_partition_key("Orders", "orderId").unwrap();
    shell
        .register_table(
            "Products",
            "products-changelog",
            Schema::record(
                "Products",
                vec![
                    ("productId", Schema::Int),
                    ("name", Schema::String),
                    ("supplierId", Schema::Int),
                ],
            ),
            "productId",
        )
        .unwrap();
    assert!(shell
        .explain(
            "SELECT STREAM Orders.rowtime, Products.supplierId \
             FROM Orders JOIN Products ON Orders.productId = Products.productId"
        )
        .unwrap()
        .contains("RepartitionOp"));
    for pid in 0..4 {
        shell
            .produce_relation(
                "Products",
                Value::record(vec![
                    ("productId", Value::Int(pid)),
                    ("name", Value::String("p".into())),
                    ("supplierId", Value::Int(100 + pid)),
                ]),
            )
            .unwrap();
    }
    let mut handle = shell
        .submit(
            "SELECT STREAM Orders.rowtime, Products.supplierId \
             FROM Orders JOIN Products ON Orders.productId = Products.productId",
        )
        .unwrap();
    for i in 0..8 {
        shell
            .produce("Orders", order(i, (i % 4) as i32, 1_000 + i, 5))
            .unwrap();
    }
    let rows = handle.await_outputs(8, Duration::from_secs(10)).unwrap();
    assert_eq!(
        rows.len(),
        8,
        "all orders joined after repartitioning: {rows:?}"
    );
    handle.stop().unwrap();
}

#[test]
fn explain_and_errors_through_shell() {
    let mut shell = shell_with_orders(1);
    let plan = shell
        .explain("SELECT STREAM * FROM Orders WHERE units > 50")
        .unwrap();
    assert!(plan.contains("FilterOp"));
    assert!(
        shell.submit("SELECT * FROM Orders").is_err(),
        "bounded via submit rejected"
    );
    assert!(
        shell.query("SELECT STREAM * FROM Orders").is_err(),
        "stream via query rejected"
    );
    assert!(shell.query("SELECT ghost FROM Orders").is_err());
}

#[test]
fn kappa_pipeline_query_over_query_output() {
    // Compose: query 1 filters large orders to its output topic; register
    // that topic as a stream; query 2 windows over it.
    let mut shell = shell_with_orders(1);
    let q1 = shell
        .submit("SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 20")
        .unwrap();
    let out1 = q1.output_topic().to_string();
    shell
        .register_stream(
            "BigOrders",
            &out1,
            Schema::record(
                "BigOrders",
                vec![
                    ("rowtime", Schema::Timestamp),
                    ("productId", Schema::Int),
                    ("units", Schema::Int),
                ],
            ),
            "rowtime",
        )
        .unwrap();
    let mut q2 = shell
        .submit(
            "SELECT STREAM rowtime, productId, units, \
             COUNT(*) OVER (PARTITION BY productId ORDER BY rowtime \
             RANGE INTERVAL '1' HOUR PRECEDING) bigOrdersLastHour FROM BigOrders",
        )
        .unwrap();
    for i in 0..6 {
        shell
            .produce("Orders", order(i * 1_000, 1, i, (i * 10) as i32))
            .unwrap();
    }
    // units > 20 ⇒ i in 3..6 ⇒ 3 rows through both stages.
    let rows = q2.await_outputs(3, Duration::from_secs(10)).unwrap();
    assert_eq!(rows.len(), 3, "{rows:?}");
    let counts: Vec<i64> = rows
        .iter()
        .map(|r| r.field("bigOrdersLastHour").unwrap().as_i64().unwrap())
        .collect();
    assert_eq!(
        counts,
        vec![1, 2, 3],
        "running count over the derived stream"
    );
    q2.stop().unwrap();
    q1.stop().unwrap();
}

#[test]
fn direct_data_api_produces_identical_results() {
    // §7 item 5: the optimized code path must change performance only.
    let run = |direct: bool| -> Vec<Value> {
        let mut shell = shell_with_orders(2);
        shell.direct_data_api = direct;
        let mut handle = shell
            .submit("SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 30")
            .unwrap();
        for i in 0..40 {
            shell
                .produce("Orders", order(i, (i % 3) as i32, i, (i % 7) as i32 * 10))
                .unwrap();
        }
        let rows = handle.await_outputs(22, Duration::from_secs(10)).unwrap();
        handle.stop().unwrap();
        rows
    };
    // Containers fill the two output partitions concurrently, so how rows
    // of different partitions interleave depends on when the handle polls.
    // Rows of one product share a partition and keep their order.
    let by_product = |mut rows: Vec<Value>| {
        rows.sort_by_key(|r| r.field("productId").unwrap().as_i64());
        rows
    };
    let proto = by_product(run(false));
    let direct = by_product(run(true));
    assert!(!proto.is_empty());
    assert_eq!(proto, direct, "direct data API must be result-identical");
}
