//! Self-describing generic "object" codec — the Kryo stand-in.
//!
//! §5.1: "Kryo based Java object deserialization used in SamzaSQL['s join]
//! implementation is more than two times slower than Avro based
//! deserialization used in Samza's Java API based implementation."
//!
//! This codec reproduces the *cause* of that gap: like Kryo serializing
//! generic objects, it is schema-free and writes a type tag for every value,
//! a class-name header for every record, and the full field-name string for
//! every record field, so both the byte volume and the decode work (tag
//! dispatch, string reads, name allocation) are intrinsically higher than
//! the schema-driven [`crate::avro`] codec.
//!
//! The decode gap is exactly what that extra work costs;
//! `figures --fig ablation` measures the object/Avro decode ratio, and
//! EXPERIMENTS.md reports it.

use crate::error::{Result, SerdeError};
use crate::value::{Record, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The "class name" written with every record object, mirroring Kryo's
/// unregistered-class header.
const RECORD_CLASS_NAME: &str = "org.apache.samza.sql.data.GenericTuple";

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_LONG: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_DOUBLE: u8 = 5;
const TAG_STRING: u8 = 6;
const TAG_BYTES: u8 = 7;
const TAG_TIMESTAMP: u8 = 8;
const TAG_ARRAY: u8 = 9;
const TAG_MAP: u8 = 10;
const TAG_RECORD: u8 = 11;

/// Schema-free, self-describing codec.
#[derive(Debug, Clone, Default)]
pub struct ObjectCodec;

impl ObjectCodec {
    pub fn new() -> Self {
        ObjectCodec
    }

    /// Encode any value without a schema.
    pub fn encode(&self, value: &Value) -> Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(128);
        self.encode_into(value, &mut buf)?;
        Ok(buf)
    }

    /// Append the encoding of `value` to `out`, so a caller can reuse one
    /// buffer across values.
    pub fn encode_into(&self, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        encode(value, out);
        Ok(())
    }

    /// Append the encoding of `Value::Array(items.to_vec())` to `out`
    /// without building the array, so a caller can encode a tuple (or a
    /// list of key values) it only borrows.
    pub fn encode_array_into(&self, items: &[Value], out: &mut Vec<u8>) -> Result<()> {
        encode_array(items, out);
        Ok(())
    }

    /// Decode a buffer produced by [`encode`](Self::encode).
    pub fn decode(&self, bytes: &[u8]) -> Result<Value> {
        let mut pos = 0usize;
        let v = decode(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(SerdeError::Corrupt(format!(
                "{} trailing bytes after value",
                bytes.len() - pos
            )));
        }
        Ok(v)
    }
}

fn write_len(len: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    write_len(s.len(), out);
    out.extend_from_slice(s.as_bytes());
}

fn encode(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Boolean(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(v) => {
            out.push(TAG_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Long(v) => {
            out.push(TAG_LONG);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float(v) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Double(v) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::String(s) => {
            out.push(TAG_STRING);
            write_str(s, out);
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            write_len(b.len(), out);
            out.extend_from_slice(b);
        }
        Value::Timestamp(v) => {
            out.push(TAG_TIMESTAMP);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Array(items) => encode_array(items, out),
        Value::Map(m) => {
            out.push(TAG_MAP);
            write_len(m.len(), out);
            for (k, v) in m {
                write_str(k, out);
                encode(v, out);
            }
        }
        Value::Record(record) => {
            out.push(TAG_RECORD);
            // Kryo-style class registration header: unregistered classes
            // write their fully-qualified name with every object.
            write_str(RECORD_CLASS_NAME, out);
            write_len(record.len(), out);
            for (name, v) in record.iter() {
                write_str(name, out);
                encode(v, out);
            }
        }
    }
}

fn encode_array(items: &[Value], out: &mut Vec<u8>) {
    out.push(TAG_ARRAY);
    write_len(items.len(), out);
    for item in items {
        encode(item, out);
    }
}

fn read_byte(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| SerdeError::Corrupt("unexpected end of input".into()))?;
    *pos += 1;
    Ok(b)
}

fn read_slice<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8]> {
    let end = pos
        .checked_add(len)
        .filter(|e| *e <= buf.len())
        .ok_or_else(|| SerdeError::Corrupt("length prefix exceeds buffer".into()))?;
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

fn read_len(buf: &[u8], pos: &mut usize) -> Result<usize> {
    let raw: [u8; 4] = read_slice(buf, pos, 4)?.try_into().expect("slice of 4");
    Ok(u32::from_le_bytes(raw) as usize)
}

fn read_string(buf: &[u8], pos: &mut usize) -> Result<String> {
    let len = read_len(buf, pos)?;
    String::from_utf8(read_slice(buf, pos, len)?.to_vec()).map_err(|_| SerdeError::InvalidUtf8)
}

fn decode(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = read_byte(buf, pos)?;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => Ok(Value::Boolean(read_byte(buf, pos)? != 0)),
        TAG_INT => {
            let raw: [u8; 4] = read_slice(buf, pos, 4)?.try_into().expect("4");
            Ok(Value::Int(i32::from_le_bytes(raw)))
        }
        TAG_LONG => {
            let raw: [u8; 8] = read_slice(buf, pos, 8)?.try_into().expect("8");
            Ok(Value::Long(i64::from_le_bytes(raw)))
        }
        TAG_FLOAT => {
            let raw: [u8; 4] = read_slice(buf, pos, 4)?.try_into().expect("4");
            Ok(Value::Float(f32::from_le_bytes(raw)))
        }
        TAG_DOUBLE => {
            let raw: [u8; 8] = read_slice(buf, pos, 8)?.try_into().expect("8");
            Ok(Value::Double(f64::from_le_bytes(raw)))
        }
        TAG_STRING => Ok(Value::String(read_string(buf, pos)?)),
        TAG_BYTES => {
            let len = read_len(buf, pos)?;
            Ok(Value::Bytes(read_slice(buf, pos, len)?.to_vec()))
        }
        TAG_TIMESTAMP => {
            let raw: [u8; 8] = read_slice(buf, pos, 8)?.try_into().expect("8");
            Ok(Value::Timestamp(i64::from_le_bytes(raw)))
        }
        TAG_ARRAY => {
            let len = read_len(buf, pos)?;
            let mut items = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                items.push(decode(buf, pos)?);
            }
            Ok(Value::Array(items))
        }
        TAG_MAP => {
            let len = read_len(buf, pos)?;
            let mut m = BTreeMap::new();
            for _ in 0..len {
                let k = read_string(buf, pos)?;
                m.insert(k, decode(buf, pos)?);
            }
            Ok(Value::Map(m))
        }
        TAG_RECORD => {
            // Reflective reconstruction, as Kryo's FieldSerializer does it:
            // resolve the class by name, then set each field through the
            // class's field table.
            let class = read_string(buf, pos)?;
            if class != RECORD_CLASS_NAME {
                return Err(SerdeError::Corrupt(format!("unknown record class {class}")));
            }
            // Unlike the Avro codec, which shares one name table, every
            // decoded record allocates its own field names.
            let len = read_len(buf, pos)?;
            let mut names = Vec::with_capacity(len.min(1024));
            let mut values = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                names.push(read_string(buf, pos)?);
                values.push(decode(buf, pos)?);
            }
            Ok(Value::Record(Record::new(Arc::new(names), values)?))
        }
        t => Err(SerdeError::Corrupt(format!("unknown type tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avro::AvroCodec;

    fn sample_record() -> Value {
        Value::record(vec![
            ("rowtime", Value::Timestamp(1000)),
            ("productId", Value::Int(7)),
            ("orderId", Value::Long(99)),
            ("units", Value::Int(30)),
            ("pad", Value::String("x".repeat(60))),
        ])
    }

    #[test]
    fn roundtrip_all_types() {
        let codec = ObjectCodec::new();
        let values = vec![
            Value::Null,
            Value::Boolean(false),
            Value::Int(-5),
            Value::Long(1 << 40),
            Value::Float(1.5),
            Value::Double(2.5),
            Value::String("abc".into()),
            Value::Bytes(vec![1, 2]),
            Value::Timestamp(7),
            Value::Array(vec![Value::Int(1), Value::Null]),
            sample_record(),
        ];
        for v in values {
            let bytes = codec.encode(&v).unwrap();
            assert_eq!(codec.decode(&bytes).unwrap(), v, "roundtrip failed for {v}");
        }
    }

    #[test]
    fn records_roundtrip_with_their_names() {
        let codec = ObjectCodec::new();
        let v = sample_record();
        let Value::Record(decoded) = codec.decode(&codec.encode(&v).unwrap()).unwrap() else {
            panic!("a record decodes to a record");
        };
        let names: Vec<&str> = decoded.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["rowtime", "productId", "orderId", "units", "pad"]);
        assert_eq!(decoded.get("units"), Some(&Value::Int(30)));
        assert_eq!(Value::Record(decoded), v);
    }

    #[test]
    fn object_encoding_is_larger_than_avro() {
        let v = sample_record();
        let avro = AvroCodec::new(v.infer_schema()).encode(&v).unwrap();
        let obj = ObjectCodec::new().encode(&v).unwrap();
        assert!(
            obj.len() > avro.len() + 20,
            "self-describing encoding must carry tags+names: avro={} obj={}",
            avro.len(),
            obj.len()
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(ObjectCodec::new().decode(&[200]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let codec = ObjectCodec::new();
        let mut bytes = codec.encode(&Value::Int(1)).unwrap().to_vec();
        bytes.push(0);
        assert!(codec.decode(&bytes).is_err());
    }

    #[test]
    fn truncated_record_rejected() {
        let codec = ObjectCodec::new();
        let bytes = codec.encode(&sample_record()).unwrap();
        assert!(codec.decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn nested_structures_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Array(vec![sample_record()]));
        let v = Value::Map(m);
        let codec = ObjectCodec::new();
        assert_eq!(codec.decode(&codec.encode(&v).unwrap()).unwrap(), v);
    }
}
