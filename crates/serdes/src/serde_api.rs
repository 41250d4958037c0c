//! The pluggable Serde API (Samza's `Serde` interface).
//!
//! Samza "provides a message serialization and deserialization API called
//! *Serde* … to support different message formats" (§2). Runtime components
//! hold a [`BoxedSerde`] and neither know nor care which format is behind it.

use crate::avro::AvroCodec;
use crate::error::Result;
use crate::object::ObjectCodec;
use crate::schema::Schema;
use crate::value::Value;
use std::sync::Arc;

/// Object-safe serializer/deserializer for [`Value`]s.
pub trait Serde: Send + Sync {
    /// Serialize a value to bytes.
    fn serialize(&self, value: &Value) -> Result<Vec<u8>>;
    /// Append the serialized value to `out`, so a caller can reuse one
    /// buffer across messages. The wire bytes are those of
    /// [`serialize`](Self::serialize); the built-in formats write straight
    /// into `out`.
    fn serialize_into(&self, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        out.extend_from_slice(&self.serialize(value)?);
        Ok(())
    }
    /// Deserialize bytes back to a value.
    fn deserialize(&self, bytes: &[u8]) -> Result<Value>;
    /// Format name for configuration and diagnostics.
    fn format(&self) -> SerdeFormat;
}

/// Shareable serde handle.
pub type BoxedSerde = Arc<dyn Serde>;

/// The built-in formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerdeFormat {
    Avro,
    Object,
}

impl std::fmt::Display for SerdeFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerdeFormat::Avro => write!(f, "avro"),
            SerdeFormat::Object => write!(f, "object"),
        }
    }
}

impl Serde for AvroCodec {
    fn serialize(&self, value: &Value) -> Result<Vec<u8>> {
        self.encode(value)
    }
    fn serialize_into(&self, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        self.encode_into(value, out)
    }
    fn deserialize(&self, bytes: &[u8]) -> Result<Value> {
        self.decode(bytes)
    }
    fn format(&self) -> SerdeFormat {
        SerdeFormat::Avro
    }
}

impl Serde for ObjectCodec {
    fn serialize(&self, value: &Value) -> Result<Vec<u8>> {
        self.encode(value)
    }
    fn serialize_into(&self, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        self.encode_into(value, out)
    }
    fn deserialize(&self, bytes: &[u8]) -> Result<Value> {
        self.decode(bytes)
    }
    fn format(&self) -> SerdeFormat {
        SerdeFormat::Object
    }
}

/// Build a serde of the requested format over `schema` (ignored by the
/// schema-free object codec).
pub fn build_serde(format: SerdeFormat, schema: Schema) -> BoxedSerde {
    match format {
        SerdeFormat::Avro => Arc::new(AvroCodec::new(schema)),
        SerdeFormat::Object => Arc::new(ObjectCodec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_formats_roundtrip_through_trait_object() {
        let schema = Schema::record("R", vec![("a", Schema::Int), ("b", Schema::String)]);
        let v = Value::record(vec![("a", Value::Int(1)), ("b", Value::String("x".into()))]);
        for format in [SerdeFormat::Avro, SerdeFormat::Object] {
            let serde = build_serde(format, schema.clone());
            assert_eq!(serde.format(), format);
            let bytes = serde.serialize(&v).unwrap();
            assert_eq!(serde.deserialize(&bytes).unwrap(), v, "format {format}");
        }
    }

    #[test]
    fn serialize_into_appends_the_serialized_bytes() {
        let schema = Schema::record("R", vec![("a", Schema::Int), ("b", Schema::String)]);
        let v = Value::record(vec![
            ("a", Value::Int(-3)),
            ("b", Value::String("yz".into())),
        ]);
        for format in [SerdeFormat::Avro, SerdeFormat::Object] {
            let serde = build_serde(format, schema.clone());
            let mut buf = vec![0xAB];
            serde.serialize_into(&v, &mut buf).unwrap();
            assert_eq!(buf[0], 0xAB, "format {format}: appends");
            assert_eq!(
                buf[1..],
                serde.serialize(&v).unwrap()[..],
                "format {format}"
            );
        }
    }

    #[test]
    fn format_display_names() {
        assert_eq!(SerdeFormat::Avro.to_string(), "avro");
        assert_eq!(SerdeFormat::Object.to_string(), "object");
    }
}
