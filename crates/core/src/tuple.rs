//! Array tuples and the Avro↔array conversions of Figure 4.
//!
//! §5.1: "The current prototype implementation of SamzaSQL implements SQL
//! expressions on top of a tuple represented as an array in memory, and we
//! convert incoming messages to an array at the scan operator and the array
//! back to an Avro record in the stream insert operator." Those two
//! conversions (`AvroToArray` / `ArrayToAvro`) are the measured cause of
//! SamzaSQL's 30–40% filter/project throughput deficit versus native Samza
//! jobs, so they are real work here, not a simulated delay.
//!
//! The record on the Avro side is a [`Record`]: like Java's
//! `GenericData.Record`, it references a field-name table shared by every
//! record of one schema, so neither conversion copies field names.

use crate::error::{CoreError, Result};
use samzasql_serde::{Record, Value};
use std::sync::Arc;

/// The in-memory tuple: one `Value` per column, in schema order.
pub type Tuple = Vec<Value>;

/// `AvroToArray`: copy a decoded record's field values into a fresh
/// positional array, the tuple the expression layer operates on. Field
/// order must already match the schema (the Avro codec guarantees that).
/// The array has room for `width` columns, or for the record's fields when
/// they are more, so operators that append columns to the tuple (a join's
/// relation columns, a window's aggregates) extend it in place.
pub fn record_to_array(value: Value, width: usize) -> Result<Tuple> {
    match value {
        Value::Record(record) => {
            let values = record.into_values();
            let mut tuple = Tuple::with_capacity(values.len().max(width));
            tuple.extend(values);
            Ok(tuple)
        }
        other => Err(CoreError::Operator(format!(
            "scan expected a record message, got {}",
            other.type_name()
        ))),
    }
}

/// `ArrayToAvro`: wrap an array tuple as a record over the shared name
/// table `names`, for encoding at the stream insert operator. The column
/// values move into the record; errors when the tuple's arity differs from
/// the table's.
pub fn array_to_record(tuple: Tuple, names: &Arc<Vec<String>>) -> Result<Value> {
    Ok(Value::Record(Record::new(Arc::clone(names), tuple)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_record_array() {
        let rec = Value::record(vec![("a", Value::Int(1)), ("b", Value::String("x".into()))]);
        let arr = record_to_array(rec.clone(), 0).unwrap();
        assert_eq!(arr, vec![Value::Int(1), Value::String("x".into())]);
        assert_eq!(arr.capacity(), 2);
        assert_eq!(record_to_array(rec.clone(), 5).unwrap().capacity(), 5);
        let names = Arc::new(vec!["a".to_string(), "b".to_string()]);
        let back = array_to_record(arr, &names).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn non_record_rejected() {
        assert!(record_to_array(Value::Int(1), 0).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let names = Arc::new(vec!["a".to_string(), "b".to_string()]);
        assert!(array_to_record(vec![Value::Int(1)], &names).is_err());
    }
}
