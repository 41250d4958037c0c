//! # samzasql
//!
//! A from-scratch Rust reproduction of **SamzaSQL** ("SamzaSQL: Scalable
//! Fast Data Management with Streaming SQL", IPDPS Workshops 2016): a
//! streaming SQL engine that compiles standard SQL with minimal stream
//! extensions into operator DAGs executed on a Samza-like distributed
//! stream-processing runtime over a Kafka-like partitioned log.
//!
//! This crate is the facade over the workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`kafka`] | `samzasql-kafka` | in-memory partitioned commit-log broker |
//! | [`serde`] | `samzasql-serde` | schemas, Avro-like/object codecs, registry |
//! | [`samza`] | `samzasql-samza` | stream tasks, containers, local state, cluster sim |
//! | [`parser`] | `samzasql-parser` | SQL + streaming extensions (STREAM, TUMBLE/HOP, OVER) |
//! | [`planner`] | `samzasql-planner` | catalog, validator, optimizer, physical plans |
//! | [`coord`] | `samzasql-coord` | ZooKeeper-style metadata and liveness: znodes, sessions, ephemeral nodes, deletion watches |
//! | [`core`] | `samzasql-core` | operators, message router, shell — the paper's contribution |
//! | [`analyze`] | `samzasql-analyze` | static plan analysis gating job submission |
//! | [`obs`] | `samzasql-obs` | metrics registry, tracing spans, exporters |
//! | [`workload`] | `samzasql-workload` | synthetic evaluation workloads |
//!
//! ## Quick start
//!
//! ```
//! use samzasql::prelude::*;
//!
//! let broker = Broker::new();
//! broker.create_topic("orders", TopicConfig::with_partitions(4)).unwrap();
//!
//! let mut shell = SamzaSqlShell::new(broker);
//! shell.register_stream("Orders", "orders", Schema::record("Orders", vec![
//!     ("rowtime", Schema::Timestamp),
//!     ("productId", Schema::Int),
//!     ("units", Schema::Int),
//! ]), "rowtime").unwrap();
//!
//! // Continuous query (Kappa style): SELECT STREAM …
//! let mut big_orders = shell.submit(
//!     "SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 50"
//! ).unwrap();
//!
//! shell.produce("Orders", Value::record(vec![
//!     ("rowtime", Value::Timestamp(1_000)),
//!     ("productId", Value::Int(7)),
//!     ("units", Value::Int(75)),
//! ])).unwrap();
//!
//! let rows = big_orders.await_outputs(1, std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(rows[0].field("units"), Some(&Value::Int(75)));
//! big_orders.stop().unwrap();
//! ```

pub use samzasql_analyze as analyze;
pub use samzasql_coord as coord;
pub use samzasql_core as core;
pub use samzasql_kafka as kafka;
pub use samzasql_obs as obs;
pub use samzasql_parser as parser;
pub use samzasql_planner as planner;
pub use samzasql_samza as samza;
pub use samzasql_serde as serde;
pub use samzasql_workload as workload;

/// The items most applications need.
pub mod prelude {
    pub use samzasql_coord::Coord;
    pub use samzasql_core::shell::{QueryHandle, SamzaSqlShell};
    pub use samzasql_core::udaf::{UdafRegistry, UserAggregate};
    pub use samzasql_kafka::{Broker, Message, TopicConfig};
    pub use samzasql_samza::{ClusterSim, NodeConfig};
    pub use samzasql_serde::{Schema, Value};
}
