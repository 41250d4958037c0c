//! Scan operator: decode incoming messages and convert to array tuples.
//!
//! The default ([`ScanOp::new`]) is the prototype's path and is where
//! SamzaSQL pays the `AvroToArray` step of Figure 4: the payload is decoded
//! through the stream's serde into a generic record (whose field names are
//! the codec's shared table, as with Java's `GenericData.Record`), then its
//! values are copied into a fresh positional array, the tuple the expression
//! layer uses.
//!
//! [`ScanOp::direct`] is the paper's §7 future-work item 5, implemented: a
//! "SamzaSQL-specific code generation framework which avoids AvroToArray …
//! by generating expressions that directly work on a SamzaSQL-specific
//! message abstraction" — the codec decodes straight into the array tuple,
//! skipping record materialization. The ablation bench compares the modes.

use crate::error::Result;
use crate::tuple::{record_to_array, Tuple};
use samzasql_serde::avro::AvroCodec;
use samzasql_serde::BoxedSerde;

enum ScanMode {
    /// Generic serde → record → array (the prototype's Figure-4 flow).
    Generic(BoxedSerde),
    /// Direct decode to the array tuple (§7 item 5).
    Direct(AvroCodec),
}

/// Entry point of the router for one input topic.
pub struct ScanOp {
    mode: ScanMode,
    arity: usize,
    /// Columns the `AvroToArray` copy makes room for: the widest row on the
    /// scan's path to the sink, so operators that append columns to its
    /// tuples do not reallocate them.
    width: usize,
}

impl ScanOp {
    /// Prototype path: serde decode + `AvroToArray`.
    pub fn new(serde: BoxedSerde, arity: usize) -> Self {
        ScanOp {
            mode: ScanMode::Generic(serde),
            arity,
            width: arity,
        }
    }

    /// Optimized path: decode directly into the array tuple.
    pub fn direct(codec: AvroCodec, arity: usize) -> Self {
        ScanOp {
            mode: ScanMode::Direct(codec),
            arity,
            width: arity,
        }
    }

    /// Make room for `width` columns in every tuple the `AvroToArray` copy
    /// builds (the direct path decodes into the codec's own array).
    pub fn with_width(mut self, width: usize) -> Self {
        self.width = width.max(self.arity);
        self
    }

    /// Decode a payload into a tuple. Empty payloads are tombstones and
    /// yield `None`.
    pub fn decode(&self, payload: &[u8]) -> Result<Option<Tuple>> {
        if payload.is_empty() {
            return Ok(None);
        }
        let tuple = match &self.mode {
            ScanMode::Generic(serde) => {
                let value = serde.deserialize(payload)?;
                record_to_array(value, self.width)?
            }
            ScanMode::Direct(codec) => codec.decode_to_tuple(payload)?,
        };
        if tuple.len() != self.arity {
            return Err(crate::error::CoreError::Operator(format!(
                "scan decoded {} columns, expected {}",
                tuple.len(),
                self.arity
            )));
        }
        Ok(Some(tuple))
    }
}

impl std::fmt::Debug for ScanOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanOp")
            .field("arity", &self.arity)
            .field("width", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samzasql_serde::serde_api::build_serde;
    use samzasql_serde::{Schema, SerdeFormat, Value};

    #[test]
    fn decodes_avro_to_array() {
        let schema = Schema::record("R", vec![("a", Schema::Int), ("b", Schema::String)]);
        let serde = build_serde(SerdeFormat::Avro, schema);
        let v = Value::record(vec![("a", Value::Int(1)), ("b", Value::String("x".into()))]);
        let bytes = serde.serialize(&v).unwrap();
        let scan = ScanOp::new(serde, 2);
        let tuple = scan.decode(&bytes).unwrap().unwrap();
        assert_eq!(tuple, vec![Value::Int(1), Value::String("x".into())]);
    }

    #[test]
    fn tuples_have_room_for_the_path_width() {
        let schema = Schema::record("R", vec![("a", Schema::Int)]);
        let serde = build_serde(SerdeFormat::Avro, schema);
        let bytes = serde
            .serialize(&Value::record(vec![("a", Value::Int(1))]))
            .unwrap();
        let scan = ScanOp::new(serde, 1).with_width(3);
        let tuple = scan.decode(&bytes).unwrap().unwrap();
        assert_eq!((tuple.len(), tuple.capacity()), (1, 3));
    }

    #[test]
    fn empty_payload_is_tombstone() {
        let serde = build_serde(
            SerdeFormat::Avro,
            Schema::record("R", vec![("a", Schema::Int)]),
        );
        let scan = ScanOp::new(serde, 1);
        assert_eq!(scan.decode(&[]).unwrap(), None);
    }

    #[test]
    fn direct_mode_decodes_without_record_step() {
        let schema = Schema::record("R", vec![("a", Schema::Int), ("b", Schema::String)]);
        let codec = samzasql_serde::avro::AvroCodec::new(schema.clone());
        let v = Value::record(vec![("a", Value::Int(1)), ("b", Value::String("x".into()))]);
        let bytes = codec.encode(&v).unwrap();
        let scan = ScanOp::direct(codec, 2);
        let tuple = scan.decode(&bytes).unwrap().unwrap();
        assert_eq!(tuple, vec![Value::Int(1), Value::String("x".into())]);
    }

    #[test]
    fn corrupt_payload_errors() {
        let serde = build_serde(
            SerdeFormat::Avro,
            Schema::record("R", vec![("a", Schema::String)]),
        );
        let scan = ScanOp::new(serde, 1);
        assert!(scan.decode(&[200, 1, 2]).is_err());
    }
}
