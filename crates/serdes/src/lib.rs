//! # samzasql-serde
//!
//! Message formats for the SamzaSQL reproduction: a schema model, an
//! Avro-like compact binary codec, a deliberately generic self-describing
//! "object" codec (standing in for the Kryo-based Java object
//! serde the paper profiles in §5.1), and a schema registry.
//!
//! The paper's performance story hinges on serialization:
//!
//! * SamzaSQL's generated jobs pay `AvroToArray` / `ArrayToAvro` conversions
//!   at the scan and insert operators (Figure 4), costing 30–40% throughput
//!   on filter/project versus native jobs that touch Avro directly.
//! * SamzaSQL's stream-to-relation join caches the relation in the local
//!   key-value store through a *generic object serde* (Kryo in the paper)
//!   that profiling showed to be "more than two times slower" than Avro.
//!
//! Both codecs here are real implementations with those organic cost
//! characteristics: [`avro`] is schema-driven and writes no field metadata;
//! [`object`] is self-describing and writes type tags and field names.
//!
//! ```
//! use samzasql_serde::{Schema, Value, avro::AvroCodec};
//!
//! let schema = Schema::record("Order", vec![
//!     ("rowtime", Schema::Long),
//!     ("productId", Schema::Int),
//!     ("units", Schema::Int),
//! ]);
//! let value = Value::record(vec![
//!     ("rowtime", Value::Long(1000)),
//!     ("productId", Value::Int(7)),
//!     ("units", Value::Int(30)),
//! ]);
//! let codec = AvroCodec::new(schema);
//! let bytes = codec.encode(&value).unwrap();
//! assert_eq!(codec.decode(&bytes).unwrap(), value);
//! ```

pub mod avro;
pub mod error;
pub mod object;
pub mod registry;
pub mod schema;
pub mod serde_api;
pub mod value;

pub use error::{Result, SerdeError};
pub use registry::{RegisteredSchema, SchemaRegistry};
pub use schema::{Field, Schema};
pub use serde_api::{BoxedSerde, Serde, SerdeFormat};
pub use value::{Record, Value};
