//! Property-based tests over the codecs: roundtrip identity, cross-codec
//! agreement, and corruption resilience (decoders must error, never panic).

use samzasql_serde::avro::AvroCodec;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::{Schema, Value};
use samzasql_testkit::{cases, Rng};

fn random_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    (0..rng.gen_range(0..max_len))
        .map(|_| rng.gen_range(0..=u8::MAX))
        .collect()
}

/// A normal (finite, non-zero, non-subnormal) double of either sign: NaN
/// breaks PartialEq-based roundtrip checks.
fn normal_f64(rng: &mut Rng) -> f64 {
    let sign = rng.gen_range(0u64..2) << 63;
    let exponent = rng.gen_range(1u64..2047) << 52;
    let mantissa = rng.next_u64() >> 12;
    f64::from_bits(sign | exponent | mantissa)
}

/// One primitive field with a value of its schema.
fn field(rng: &mut Rng) -> (Schema, Value) {
    match rng.gen_range(0..8) {
        0 => (Schema::Int, Value::Int(rng.next_u64() as i32)),
        1 => (Schema::Long, Value::Long(rng.next_u64() as i64)),
        2 => (Schema::Boolean, Value::Boolean(rng.gen_bool(0.5))),
        3 => (Schema::Double, Value::Double(normal_f64(rng))),
        4 => {
            let s = (0..rng.gen_range(0..=40))
                .map(|_| match rng.gen_range(0..63) {
                    62 => ' ',
                    _ => char::from(rng.alphanumeric()),
                })
                .collect();
            (Schema::String, Value::String(s))
        }
        5 => (Schema::Timestamp, Value::Timestamp(rng.next_u64() as i64)),
        6 => (Schema::Bytes, Value::Bytes(random_bytes(rng, 32))),
        _ => {
            let value = if rng.gen_bool(0.5) {
                Value::Null
            } else {
                Value::Int(rng.next_u64() as i32)
            };
            (Schema::Int.optional(), value)
        }
    }
}

/// A (schema, value) pair for a flat record of random primitive fields —
/// the shape every SamzaSQL tuple has.
fn record(rng: &mut Rng) -> (Schema, Value) {
    let fields: Vec<(Schema, Value)> = (0..rng.gen_range(1..8)).map(|_| field(rng)).collect();
    let schema = Schema::Record {
        name: "P".into(),
        fields: fields
            .iter()
            .enumerate()
            .map(|(i, (s, _))| samzasql_serde::Field {
                name: format!("f{i}"),
                schema: s.clone(),
            })
            .collect(),
    };
    let names: Vec<String> = (0..fields.len()).map(|i| format!("f{i}")).collect();
    let value = Value::record(
        names
            .iter()
            .map(String::as_str)
            .zip(fields.into_iter().map(|(_, v)| v))
            .collect(),
    );
    (schema, value)
}

/// A value of any shape: a primitive, or (while `depth` lasts) an array,
/// a map or a record of nested values.
fn nested(rng: &mut Rng, depth: u32) -> Value {
    let kinds = if depth == 0 { 1 } else { 4 };
    match rng.gen_range(0..kinds) {
        0 => field(rng).1,
        1 => Value::Array(
            (0..rng.gen_range(0..5))
                .map(|_| nested(rng, depth - 1))
                .collect(),
        ),
        2 => Value::Map(
            (0..rng.gen_range(0..4))
                .map(|i| (format!("k{i}"), nested(rng, depth - 1)))
                .collect(),
        ),
        _ => {
            let names: Vec<String> = (0..rng.gen_range(1..4)).map(|i| format!("f{i}")).collect();
            Value::record(
                names
                    .iter()
                    .map(|n| (n.as_str(), nested(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

#[test]
fn object_array_encodes_in_place_to_the_array_bytes() {
    cases(256, 7, |rng| {
        let items: Vec<Value> = (0..rng.gen_range(0..8)).map(|_| nested(rng, 3)).collect();
        let codec = ObjectCodec::new();
        let whole = codec.encode(&Value::Array(items.clone())).unwrap();
        // Appends after what the buffer already holds, like `encode_into`.
        let mut out = vec![0xAB];
        codec.encode_array_into(&items, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[1..], whole[..]);
    });
}

#[test]
fn avro_roundtrip() {
    cases(256, 1, |rng| {
        let (schema, value) = record(rng);
        let codec = AvroCodec::new(schema);
        let bytes = codec.encode(&value).unwrap();
        assert_eq!(codec.decode(&bytes).unwrap(), value);
    });
}

#[test]
fn object_roundtrip() {
    cases(256, 2, |rng| {
        let (_, value) = record(rng);
        let codec = ObjectCodec::new();
        let bytes = codec.encode(&value).unwrap();
        assert_eq!(codec.decode(&bytes).unwrap(), value);
    });
}

#[test]
fn object_encoding_never_smaller_than_avro() {
    cases(256, 3, |rng| {
        let (schema, value) = record(rng);
        let avro = AvroCodec::new(schema).encode(&value).unwrap();
        let obj = ObjectCodec::new().encode(&value).unwrap();
        // Self-describing format always carries at least the tag overhead.
        assert!(obj.len() >= avro.len());
    });
}

#[test]
fn avro_decode_never_panics_on_garbage() {
    cases(256, 4, |rng| {
        let (schema, value) = record(rng);
        let codec = AvroCodec::new(schema);
        let mut bytes = codec.encode(&value).unwrap();
        if bytes.is_empty() {
            return;
        }
        for _ in 0..rng.gen_range(1..4) {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= rng.gen_range(0..=u8::MAX);
        }
        // Either decodes to *something* or errors — must not panic.
        let _ = codec.decode(&bytes);
    });
}

#[test]
fn object_decode_never_panics_on_garbage() {
    cases(256, 5, |rng| {
        let raw = random_bytes(rng, 256);
        let _ = ObjectCodec::new().decode(&raw);
    });
}

#[test]
fn truncation_is_detected_or_decodes_prefix() {
    cases(256, 6, |rng| {
        let (schema, value) = record(rng);
        let cut = rng.gen_range(0usize..64);
        let codec = AvroCodec::new(schema);
        let bytes = codec.encode(&value).unwrap();
        if cut < bytes.len() && cut > 0 {
            // A strict prefix can never decode to the original value: either
            // it errors, or (because trailing-byte checking is exact) fails.
            let truncated = &bytes[..bytes.len() - cut];
            if let Ok(v) = codec.decode(truncated) {
                assert_ne!(v, value)
            }
        }
    });
}
