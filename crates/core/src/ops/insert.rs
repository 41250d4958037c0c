//! Stream insert operator: array → record → encoded output message.
//!
//! The `ArrayToAvro` step of Figure 4: the final operator wraps the array
//! tuple in a record and encodes it with the output stream's serde. It also
//! recovers the event timestamp for the outgoing envelope when the output
//! schema retained a timestamp column.
//!
//! Every record the operator builds shares one column-name table, as Java
//! Avro records share their schema, so the wrap moves the tuple's values in
//! and copies no names; the schema walk inside the serde remains the
//! paper-faithful per-message cost.
//!
//! The operator serializes into one buffer it owns and reuses, then copies
//! the finished bytes into the outgoing payload: each payload (and each
//! object-coded key) is one exact-size allocation, with no growth
//! reallocation on the way.

use crate::error::Result;
use crate::ops::encode_once;
use crate::tuple::{array_to_record, Tuple};
use samzasql_kafka::Bytes;
use samzasql_serde::BoxedSerde;
use std::sync::Arc;

/// Encoded output of the insert operator.
#[derive(Debug, Clone)]
pub struct EncodedOutput {
    pub payload: Bytes,
    pub timestamp: i64,
    /// Partitioning key for the output message (set by repartition stages).
    pub key: Option<Bytes>,
}

/// Terminal operator of the router.
pub struct InsertOp {
    serde: BoxedSerde,
    /// Output column names, shared by every record the operator builds.
    names: Arc<Vec<String>>,
    ts_index: Option<usize>,
    /// Column whose object-coded value keys the outgoing message.
    key_index: Option<usize>,
    key_codec: samzasql_serde::object::ObjectCodec,
    /// §7 item 5: encode the array tuple directly, skipping `ArrayToAvro`.
    direct: Option<samzasql_serde::avro::AvroCodec>,
    /// Encode buffer, cleared and reused for every key and payload.
    buf: Vec<u8>,
}

impl InsertOp {
    pub fn new(serde: BoxedSerde, names: Vec<String>, ts_index: Option<usize>) -> Self {
        InsertOp {
            serde,
            names: Arc::new(names),
            ts_index,
            key_index: None,
            key_codec: samzasql_serde::object::ObjectCodec::new(),
            direct: None,
            buf: Vec::new(),
        }
    }

    /// Enable the direct data-API path (§7 item 5): the tuple is encoded
    /// positionally, with no intermediate record.
    pub fn with_direct(mut self, codec: samzasql_serde::avro::AvroCodec) -> Self {
        self.direct = Some(codec);
        self
    }

    /// Key outgoing messages by the given column (repartitioning, §7).
    pub fn with_key(mut self, key_index: usize) -> Self {
        self.key_index = Some(key_index);
        self
    }

    /// Encode a tuple (`ArrayToAvro` + serialize; or the direct path).
    /// Takes the tuple by value: column values move into the record instead
    /// of being cloned.
    pub fn encode(&mut self, tuple: Tuple) -> Result<EncodedOutput> {
        let timestamp = self
            .ts_index
            .and_then(|i| tuple.get(i))
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        let key = match self.key_index.and_then(|i| tuple.get(i)) {
            Some(v) => Some(encode_once(&self.key_codec, v, &mut self.buf)?),
            None => None,
        };
        self.buf.clear();
        match &self.direct {
            Some(codec) => codec.encode_tuple_into(&tuple, &mut self.buf)?,
            None => {
                let record = array_to_record(tuple, &self.names)?;
                self.serde.serialize_into(&record, &mut self.buf)?;
            }
        }
        let payload = Bytes::copy_from_slice(&self.buf);
        Ok(EncodedOutput {
            payload,
            timestamp,
            key,
        })
    }

    /// Encode a whole batch, draining `tuples` into `out`.
    pub fn encode_batch(
        &mut self,
        tuples: &mut Vec<Tuple>,
        out: &mut Vec<EncodedOutput>,
    ) -> Result<()> {
        out.reserve(tuples.len());
        for tuple in tuples.drain(..) {
            out.push(self.encode(tuple)?);
        }
        Ok(())
    }
}

impl std::fmt::Debug for InsertOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InsertOp")
            .field("names", &self.names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samzasql_serde::serde_api::build_serde;
    use samzasql_serde::{Schema, SerdeFormat, Value};

    #[test]
    fn encodes_with_timestamp_extraction() {
        let schema = Schema::record(
            "O",
            vec![("rowtime", Schema::Timestamp), ("units", Schema::Int)],
        );
        let serde = build_serde(SerdeFormat::Avro, schema);
        let mut op = InsertOp::new(
            serde.clone(),
            vec!["rowtime".into(), "units".into()],
            Some(0),
        );
        let out = op
            .encode(vec![Value::Timestamp(42), Value::Int(7)])
            .unwrap();
        assert_eq!(out.timestamp, 42);
        let decoded = serde.deserialize(&out.payload).unwrap();
        assert_eq!(decoded.field("units"), Some(&Value::Int(7)));
    }

    #[test]
    fn reused_buffer_writes_the_codecs_bytes() {
        let schema = Schema::record(
            "O",
            vec![("rowtime", Schema::Timestamp), ("pad", Schema::String)],
        );
        let codec = samzasql_serde::avro::AvroCodec::new(schema.clone());
        let names = vec!["rowtime".to_string(), "pad".to_string()];
        let serde = build_serde(SerdeFormat::Avro, schema);
        let keyed = InsertOp::new(serde.clone(), names.clone(), None).with_key(1);
        let direct = InsertOp::new(serde, names, None).with_direct(codec.clone());
        let key_codec = samzasql_serde::object::ObjectCodec::new();
        for (mut op, has_key) in [(keyed, true), (direct, false)] {
            // A long row, then a short one: the buffer is cleared, not appended to.
            for pad in ["x".repeat(300), "y".to_string()] {
                let tuple = vec![Value::Timestamp(5), Value::String(pad)];
                let out = op.encode(tuple.clone()).unwrap();
                assert_eq!(&out.payload[..], &codec.encode_tuple(&tuple).unwrap()[..]);
                let key = out.key.map(|k| k.to_vec());
                let expected = has_key.then(|| key_codec.encode(&tuple[1]).unwrap());
                assert_eq!(key, expected);
            }
        }
    }

    #[test]
    fn missing_timestamp_defaults_to_zero() {
        let schema = Schema::record("O", vec![("units", Schema::Int)]);
        let mut op = InsertOp::new(
            build_serde(SerdeFormat::Avro, schema),
            vec!["units".into()],
            None,
        );
        assert_eq!(op.encode(vec![Value::Int(1)]).unwrap().timestamp, 0);
    }

    #[test]
    fn batch_encodes_survive_an_arity_error() {
        let schema = Schema::record("O", vec![("units", Schema::Int)]);
        let serde = build_serde(SerdeFormat::Avro, schema);
        let mut op = InsertOp::new(serde.clone(), vec!["units".into()], None);
        let mut tuples = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let mut out = Vec::new();
        op.encode_batch(&mut tuples, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        let second = serde.deserialize(&out[1].payload).unwrap();
        assert_eq!(second.field("units"), Some(&Value::Int(2)));
        // an arity error fails that tuple only
        assert!(op.encode(vec![Value::Int(1), Value::Int(2)]).is_err());
        let third = op.encode(vec![Value::Int(3)]).unwrap();
        assert_eq!(
            serde.deserialize(&third.payload).unwrap().field("units"),
            Some(&Value::Int(3))
        );
    }
}
