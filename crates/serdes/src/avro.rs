//! Avro-like compact binary codec.
//!
//! Schema-driven: the wire format carries *no* field names or type tags, so
//! it is compact and fast — exactly the property that makes the paper's
//! native Samza jobs faster than SamzaSQL's Kryo-backed state serde. The
//! encoding follows Avro's binary spec in spirit:
//!
//! * `int`/`long`/`timestamp`: zig-zag varint
//! * `float`/`double`: little-endian IEEE 754
//! * `boolean`: one byte
//! * `string`/`bytes`: varint length prefix + raw bytes
//! * `optional` (union null|T): varint branch index 0 or 1
//! * `array`/`map`: varint count + items (single block, no negative-count
//!   block-size extension)
//! * `record`: fields in schema order
//!
//! Decoded records share field names the way Java's `GenericData.Record`
//! shares its schema: the codec builds the top-level record's name table
//! once, and every [`Record`] it decodes holds a reference to it. Nested
//! records build a table per decode.

use crate::error::{Result, SerdeError};
use crate::schema::{Field, Schema};
use crate::value::{Record, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Encode/decode values against a fixed schema.
#[derive(Debug, Clone)]
pub struct AvroCodec {
    schema: Schema,
    /// Field names of a top-level record schema, shared by every record
    /// [`decode`](Self::decode) returns.
    names: Option<Arc<Vec<String>>>,
}

impl AvroCodec {
    pub fn new(schema: Schema) -> Self {
        let names = schema.fields().map(name_table);
        AvroCodec { schema, names }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Encode `value` against the codec's schema.
    pub fn encode(&self, value: &Value) -> Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(value, &mut buf)?;
        Ok(buf)
    }

    /// Append the encoding of `value` to `out`, so a caller can reuse one
    /// buffer across messages. On error `out` may hold a partial encoding.
    pub fn encode_into(&self, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        encode_value(&self.schema, value, out)
    }

    /// Decode a buffer produced by [`encode`](Self::encode).
    pub fn decode(&self, bytes: &[u8]) -> Result<Value> {
        let mut cursor = Cursor { buf: bytes, pos: 0 };
        let v = match (&self.schema, &self.names) {
            (Schema::Record { fields, .. }, Some(names)) => Value::Record(Record::new(
                Arc::clone(names),
                decode_fields(fields, &mut cursor)?,
            )?),
            (schema, _) => decode_value(schema, &mut cursor)?,
        };
        if cursor.pos != bytes.len() {
            return Err(SerdeError::Corrupt(format!(
                "{} trailing bytes after value",
                bytes.len() - cursor.pos
            )));
        }
        Ok(v)
    }

    /// Decode a top-level record directly to a positional array of field
    /// values, skipping field-name materialization — the shape generated
    /// code consumes ("a tuple represented as an array in memory", §5.1).
    /// Errors when the codec's schema is not a record.
    pub fn decode_to_tuple(&self, bytes: &[u8]) -> Result<Vec<Value>> {
        let Schema::Record { fields, .. } = &self.schema else {
            return Err(SerdeError::SchemaMismatch {
                expected: "record".into(),
                found: self.schema.type_name(),
            });
        };
        let mut cursor = Cursor { buf: bytes, pos: 0 };
        let vals = decode_fields(fields, &mut cursor)?;
        if cursor.pos != bytes.len() {
            return Err(SerdeError::Corrupt(format!(
                "{} trailing bytes after record",
                bytes.len() - cursor.pos
            )));
        }
        Ok(vals)
    }

    /// Encode a positional array of field values against the codec's record
    /// schema — the inverse of [`decode_to_tuple`](Self::decode_to_tuple)
    /// (the insert operator's `ArrayToAvro` without intermediate naming).
    pub fn encode_tuple(&self, tuple: &[Value]) -> Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(64);
        self.encode_tuple_into(tuple, &mut buf)?;
        Ok(buf)
    }

    /// Append the encoding of a positional tuple to `out` (see
    /// [`encode_tuple`](Self::encode_tuple) and
    /// [`encode_into`](Self::encode_into)).
    pub fn encode_tuple_into(&self, tuple: &[Value], out: &mut Vec<u8>) -> Result<()> {
        let Schema::Record { fields, .. } = &self.schema else {
            return Err(SerdeError::SchemaMismatch {
                expected: "record".into(),
                found: self.schema.type_name(),
            });
        };
        if fields.len() != tuple.len() {
            return Err(SerdeError::SchemaMismatch {
                expected: format!("record with {} fields", fields.len()),
                found: format!("tuple with {} values", tuple.len()),
            });
        }
        for (f, v) in fields.iter().zip(tuple) {
            encode_value(&f.schema, v, out)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- encoding

/// Zig-zag encode a signed 64-bit integer to the varint wire form.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn write_long(v: i64, out: &mut Vec<u8>) {
    write_varint(zigzag_encode(v), out);
}

fn encode_value(schema: &Schema, value: &Value, out: &mut Vec<u8>) -> Result<()> {
    match (schema, value) {
        (Schema::Null, Value::Null) => Ok(()),
        (Schema::Boolean, Value::Boolean(b)) => {
            out.push(u8::from(*b));
            Ok(())
        }
        (Schema::Int, Value::Int(v)) => {
            write_long(*v as i64, out);
            Ok(())
        }
        (Schema::Long, Value::Long(v)) | (Schema::Timestamp, Value::Timestamp(v)) => {
            write_long(*v, out);
            Ok(())
        }
        // Accept Long where Timestamp expected and vice versa — planner
        // treats them as the same physical type.
        (Schema::Timestamp, Value::Long(v)) | (Schema::Long, Value::Timestamp(v)) => {
            write_long(*v, out);
            Ok(())
        }
        (Schema::Float, Value::Float(v)) => {
            out.extend_from_slice(&v.to_le_bytes());
            Ok(())
        }
        (Schema::Double, Value::Double(v)) => {
            out.extend_from_slice(&v.to_le_bytes());
            Ok(())
        }
        (Schema::String, Value::String(s)) => {
            write_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
            Ok(())
        }
        (Schema::Bytes, Value::Bytes(b)) => {
            write_varint(b.len() as u64, out);
            out.extend_from_slice(b);
            Ok(())
        }
        (Schema::Optional(_), Value::Null) => {
            write_varint(0, out);
            Ok(())
        }
        (Schema::Optional(inner), v) => {
            write_varint(1, out);
            encode_value(inner, v, out)
        }
        (Schema::Array(inner), Value::Array(items)) => {
            write_varint(items.len() as u64, out);
            for item in items {
                encode_value(inner, item, out)?;
            }
            Ok(())
        }
        (Schema::Map(inner), Value::Map(m)) => {
            write_varint(m.len() as u64, out);
            for (k, v) in m {
                write_varint(k.len() as u64, out);
                out.extend_from_slice(k.as_bytes());
                encode_value(inner, v, out)?;
            }
            Ok(())
        }
        (Schema::Record { fields, .. }, Value::Record(record)) => {
            if fields.len() != record.len() {
                return Err(SerdeError::SchemaMismatch {
                    expected: format!("record with {} fields", fields.len()),
                    found: format!("record with {} fields", record.len()),
                });
            }
            for (f, v) in fields.iter().zip(record.values()) {
                encode_value(&f.schema, v, out)?;
            }
            Ok(())
        }
        (s, v) => Err(SerdeError::SchemaMismatch {
            expected: s.type_name(),
            found: v.type_name().to_string(),
        }),
    }
}

// ---------------------------------------------------------------- decoding

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn read_byte(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| SerdeError::Corrupt("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn read_slice(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|e| *e <= self.buf.len())
            .ok_or_else(|| SerdeError::Corrupt("length prefix exceeds buffer".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn read_varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_byte()?;
            if shift >= 64 {
                return Err(SerdeError::VarintOverflow);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn read_long(&mut self) -> Result<i64> {
        Ok(zigzag_decode(self.read_varint()?))
    }
}

fn decode_value(schema: &Schema, c: &mut Cursor<'_>) -> Result<Value> {
    match schema {
        Schema::Null => Ok(Value::Null),
        Schema::Boolean => Ok(Value::Boolean(c.read_byte()? != 0)),
        Schema::Int => {
            let v = c.read_long()?;
            i32::try_from(v)
                .map(Value::Int)
                .map_err(|_| SerdeError::Corrupt(format!("int out of range: {v}")))
        }
        Schema::Long => Ok(Value::Long(c.read_long()?)),
        Schema::Timestamp => Ok(Value::Timestamp(c.read_long()?)),
        Schema::Float => {
            let raw: [u8; 4] = c.read_slice(4)?.try_into().expect("slice of 4");
            Ok(Value::Float(f32::from_le_bytes(raw)))
        }
        Schema::Double => {
            let raw: [u8; 8] = c.read_slice(8)?.try_into().expect("slice of 8");
            Ok(Value::Double(f64::from_le_bytes(raw)))
        }
        Schema::String => {
            let len = c.read_varint()? as usize;
            let raw = c.read_slice(len)?;
            String::from_utf8(raw.to_vec())
                .map(Value::String)
                .map_err(|_| SerdeError::InvalidUtf8)
        }
        Schema::Bytes => {
            let len = c.read_varint()? as usize;
            Ok(Value::Bytes(c.read_slice(len)?.to_vec()))
        }
        Schema::Optional(inner) => match c.read_varint()? {
            0 => Ok(Value::Null),
            1 => decode_value(inner, c),
            n => Err(SerdeError::Corrupt(format!("invalid union branch {n}"))),
        },
        Schema::Array(inner) => {
            let len = c.read_varint()? as usize;
            let mut items = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                items.push(decode_value(inner, c)?);
            }
            Ok(Value::Array(items))
        }
        Schema::Map(inner) => {
            let len = c.read_varint()? as usize;
            let mut m = BTreeMap::new();
            for _ in 0..len {
                let klen = c.read_varint()? as usize;
                let key = String::from_utf8(c.read_slice(klen)?.to_vec())
                    .map_err(|_| SerdeError::InvalidUtf8)?;
                m.insert(key, decode_value(inner, c)?);
            }
            Ok(Value::Map(m))
        }
        Schema::Record { fields, .. } => Ok(Value::Record(Record::new(
            name_table(fields),
            decode_fields(fields, c)?,
        )?)),
    }
}

/// The values of a record's fields, in schema order.
fn decode_fields(fields: &[Field], c: &mut Cursor<'_>) -> Result<Vec<Value>> {
    let mut vals = Vec::with_capacity(fields.len());
    for f in fields {
        vals.push(decode_value(&f.schema, c)?);
    }
    Ok(vals)
}

fn name_table(fields: &[Field]) -> Arc<Vec<String>> {
    Arc::new(fields.iter().map(|f| f.name.clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(schema: Schema, value: Value) {
        let codec = AvroCodec::new(schema);
        let bytes = codec.encode(&value).unwrap();
        assert_eq!(codec.decode(&bytes).unwrap(), value);
    }

    #[test]
    fn zigzag_is_involutive_on_samples() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 42_000_000_000] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(Schema::Boolean, Value::Boolean(true));
        roundtrip(Schema::Int, Value::Int(-12345));
        roundtrip(Schema::Long, Value::Long(1 << 50));
        roundtrip(Schema::Float, Value::Float(3.5));
        roundtrip(Schema::Double, Value::Double(-2.25e10));
        roundtrip(Schema::String, Value::String("héllo".into()));
        roundtrip(Schema::Bytes, Value::Bytes(vec![0, 255, 7]));
        roundtrip(Schema::Timestamp, Value::Timestamp(1_700_000_000_000));
    }

    #[test]
    fn optional_roundtrip() {
        roundtrip(Schema::Int.optional(), Value::Null);
        roundtrip(Schema::Int.optional(), Value::Int(9));
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(
            Schema::Array(Box::new(Schema::Int)),
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
        );
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), Value::Long(1));
        m.insert("b".to_string(), Value::Long(2));
        roundtrip(Schema::Map(Box::new(Schema::Long)), Value::Map(m));
    }

    #[test]
    fn record_roundtrip() {
        let schema = Schema::record(
            "Orders",
            vec![
                ("rowtime", Schema::Timestamp),
                ("productId", Schema::Int),
                ("orderId", Schema::Long),
                ("units", Schema::Int),
                ("pad", Schema::String),
            ],
        );
        let value = Value::record(vec![
            ("rowtime", Value::Timestamp(1000)),
            ("productId", Value::Int(7)),
            ("orderId", Value::Long(99)),
            ("units", Value::Int(30)),
            ("pad", Value::String("x".repeat(60))),
        ]);
        roundtrip(schema, value);
    }

    #[test]
    fn decodes_share_the_codec_name_table() {
        let codec = AvroCodec::new(Schema::record(
            "R",
            vec![("a", Schema::Int), ("b", Schema::String)],
        ));
        let v = Value::record(vec![("a", Value::Int(1)), ("b", Value::String("x".into()))]);
        let bytes = codec.encode(&v).unwrap();
        let (Value::Record(first), Value::Record(second)) =
            (codec.decode(&bytes).unwrap(), codec.decode(&bytes).unwrap())
        else {
            panic!("a record schema decodes to records");
        };
        assert!(Arc::ptr_eq(first.names(), second.names()));
        assert_eq!(Value::Record(first), v);
    }

    #[test]
    fn nested_record_roundtrip() {
        let inner = Schema::record("I", vec![("x", Schema::Long)]);
        let schema = Schema::record("O", vec![("i", inner), ("n", Schema::Int)]);
        let value = Value::record(vec![
            ("i", Value::record(vec![("x", Value::Long(5))])),
            ("n", Value::Int(2)),
        ]);
        roundtrip(schema, value);
    }

    #[test]
    fn no_field_names_on_wire() {
        let schema = Schema::record("R", vec![("somewhat_long_field_name", Schema::Int)]);
        let codec = AvroCodec::new(schema);
        let bytes = codec
            .encode(&Value::record(vec![(
                "somewhat_long_field_name",
                Value::Int(1),
            )]))
            .unwrap();
        assert_eq!(
            bytes.len(),
            1,
            "schema-driven encoding writes only the datum"
        );
    }

    #[test]
    fn mismatched_value_is_rejected() {
        let codec = AvroCodec::new(Schema::Int);
        let err = codec.encode(&Value::String("no".into())).unwrap_err();
        assert!(matches!(err, SerdeError::SchemaMismatch { .. }));
    }

    #[test]
    fn wrong_arity_record_rejected() {
        let codec = AvroCodec::new(Schema::record("R", vec![("a", Schema::Int)]));
        let err = codec
            .encode(&Value::record(vec![
                ("a", Value::Int(1)),
                ("b", Value::Int(2)),
            ]))
            .unwrap_err();
        assert!(matches!(err, SerdeError::SchemaMismatch { .. }));
    }

    #[test]
    fn truncated_input_is_corrupt() {
        let codec = AvroCodec::new(Schema::String);
        let bytes = codec.encode(&Value::String("hello".into())).unwrap();
        assert!(codec.decode(&bytes[..3]).is_err());
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let codec = AvroCodec::new(Schema::Int);
        let mut bytes = codec.encode(&Value::Int(5)).unwrap().to_vec();
        bytes.push(0);
        assert!(matches!(codec.decode(&bytes), Err(SerdeError::Corrupt(_))));
    }

    #[test]
    fn invalid_union_branch_rejected() {
        let codec = AvroCodec::new(Schema::Int.optional());
        assert!(codec.decode(&[4]).is_err());
    }

    #[test]
    fn timestamp_long_interchange() {
        let codec = AvroCodec::new(Schema::Timestamp);
        let bytes = codec.encode(&Value::Long(77)).unwrap();
        assert_eq!(codec.decode(&bytes).unwrap(), Value::Timestamp(77));
    }
}
