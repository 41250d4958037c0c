//! Runtime values (datums) flowing through operators.
//!
//! A [`Record`] is shaped like Avro's Java `GenericData.Record`: a reference
//! to a field-name table plus one value per field. Every record an
//! [`AvroCodec`](crate::avro::AvroCodec) decodes shares the table the codec
//! built from its schema, so decoding allocates no field names; the
//! self-describing [`crate::object`] codec reads the names off the wire and
//! builds a table per record, as Kryo does.

use crate::error::{Result, SerdeError};
use crate::schema::Schema;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A dynamically typed SamzaSQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Boolean(bool),
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
    String(String),
    Bytes(Vec<u8>),
    /// Event-time milliseconds.
    Timestamp(i64),
    Array(Vec<Value>),
    Map(BTreeMap<String, Value>),
    Record(Record),
}

/// A record: a shared field-name table and the field values, in the same
/// order.
///
/// The table sits behind an `Arc<Vec<String>>` rather than an
/// `Arc<[String]>`: the thin pointer keeps [`Value`] at 32 bytes.
#[derive(Clone, PartialEq)]
pub struct Record {
    names: Arc<Vec<String>>,
    values: Vec<Value>,
}

impl Record {
    /// A record over `names`, one value per name. Errors when the counts
    /// differ.
    pub fn new(names: Arc<Vec<String>>, values: Vec<Value>) -> Result<Record> {
        if names.len() != values.len() {
            return Err(SerdeError::SchemaMismatch {
                expected: format!("record with {} fields", names.len()),
                found: format!("{} values", values.len()),
            });
        }
        Ok(Record { names, values })
    }

    /// The field-name table, shared with every record built over it.
    pub fn names(&self) -> &Arc<Vec<String>> {
        &self.names
    }

    /// The field values, in field order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The field values, in field order, without the names.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for a record without fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Field value by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// `(name, value)` pairs in field order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.names.iter().map(String::as_str).zip(&self.values)
    }
}

/// Formats as the list of `(name, value)` pairs.
impl std::fmt::Debug for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Value {
    /// Convenience constructor for records.
    pub fn record(fields: Vec<(&str, Value)>) -> Value {
        let (names, values) = fields.into_iter().map(|(n, v)| (n.to_string(), v)).unzip();
        Value::Record(Record {
            names: Arc::new(names),
            values,
        })
    }

    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Record field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Record(record) => record.get(name),
            _ => None,
        }
    }

    /// Runtime type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Boolean(_) => "boolean",
            Value::Int(_) => "int",
            Value::Long(_) => "long",
            Value::Float(_) => "float",
            Value::Double(_) => "double",
            Value::String(_) => "string",
            Value::Bytes(_) => "bytes",
            Value::Timestamp(_) => "timestamp",
            Value::Array(_) => "array",
            Value::Map(_) => "map",
            Value::Record(_) => "record",
        }
    }

    /// Numeric widening to `f64` for arithmetic/comparison across numeric
    /// types, `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Long(v) | Value::Timestamp(v) => Some(*v as f64),
            Value::Float(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view (ints, longs, timestamps).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v as i64),
            Value::Long(v) | Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison semantics: NULL compares as unknown (`None`); numerics
    /// compare across widths; strings, booleans, bytes compare naturally.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (String(a), String(b)) => Some(a.cmp(b)),
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (Bytes(a), Bytes(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// The schema this value would naturally carry (best-effort inference,
    /// used by the planner to type literals).
    pub fn infer_schema(&self) -> Schema {
        match self {
            Value::Null => Schema::Null,
            Value::Boolean(_) => Schema::Boolean,
            Value::Int(_) => Schema::Int,
            Value::Long(_) => Schema::Long,
            Value::Float(_) => Schema::Float,
            Value::Double(_) => Schema::Double,
            Value::String(_) => Schema::String,
            Value::Bytes(_) => Schema::Bytes,
            Value::Timestamp(_) => Schema::Timestamp,
            Value::Array(items) => Schema::Array(Box::new(
                items
                    .first()
                    .map(Value::infer_schema)
                    .unwrap_or(Schema::Null),
            )),
            Value::Map(m) => Schema::Map(Box::new(
                m.values()
                    .next()
                    .map(Value::infer_schema)
                    .unwrap_or(Schema::Null),
            )),
            Value::Record(record) => Schema::Record {
                name: "inferred".into(),
                fields: record
                    .iter()
                    .map(|(n, v)| crate::schema::Field {
                        name: n.to_string(),
                        schema: v.infer_schema(),
                    })
                    .collect(),
            },
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::String(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(
                f,
                "0x{}",
                b.iter().map(|x| format!("{x:02x}")).collect::<String>()
            ),
            Value::Timestamp(t) => write!(f, "@{t}"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Record(record) => {
                write!(f, "(")?;
                for (i, (k, v)) in record.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}={v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparisons_widen() {
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Long(3)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Double(2.5).sql_cmp(&Value::Int(3)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Timestamp(10).sql_cmp(&Value::Long(5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn mixed_type_comparison_is_unknown() {
        assert_eq!(Value::String("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn record_field_access() {
        let v = Value::record(vec![("a", Value::Int(1)), ("b", Value::String("x".into()))]);
        assert_eq!(v.field("a"), Some(&Value::Int(1)));
        assert_eq!(v.field("c"), None);
        assert_eq!(Value::Int(1).field("a"), None);
    }

    /// 32 bytes keeps a tuple of five Orders columns in 160 bytes. An
    /// `Arc<[String]>` name table (a fat pointer) made `Value` 40 bytes, and
    /// that slowed the sliding-window job, which moves whole tuples in and
    /// out of its per-group state.
    #[test]
    fn value_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    #[test]
    fn record_new_rejects_an_arity_mismatch() {
        let names = Arc::new(vec!["a".to_string(), "b".to_string()]);
        assert!(matches!(
            Record::new(names.clone(), vec![Value::Int(1)]),
            Err(SerdeError::SchemaMismatch { .. })
        ));
        let r = Record::new(names, vec![Value::Int(1), Value::Null]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("b"), Some(&Value::Null));
    }

    #[test]
    fn records_compare_by_names_and_values() {
        let names = Arc::new(vec!["a".to_string()]);
        let shared = Record::new(names, vec![Value::Int(1)]).unwrap();
        assert_eq!(
            Value::Record(shared.clone()),
            Value::record(vec![("a", Value::Int(1))])
        );
        assert_ne!(
            Value::Record(shared),
            Value::record(vec![("b", Value::Int(1))])
        );
    }

    #[test]
    fn debug_lists_name_value_pairs() {
        let v = Value::record(vec![("a", Value::Int(1))]);
        assert_eq!(format!("{v:?}"), r#"Record([("a", Int(1))])"#);
    }

    #[test]
    fn display_is_readable() {
        let v = Value::record(vec![
            ("a", Value::Int(1)),
            ("b", Value::Array(vec![Value::Boolean(true)])),
        ]);
        assert_eq!(v.to_string(), "(a=1, b=[true])");
    }

    #[test]
    fn infer_schema_roundtrips_record_shape() {
        let v = Value::record(vec![("t", Value::Timestamp(1)), ("n", Value::Int(2))]);
        let s = v.infer_schema();
        assert_eq!(s.field_index("t"), Some(0));
        assert_eq!(s.field("n").unwrap().schema, Schema::Int);
    }
}
