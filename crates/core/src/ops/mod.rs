//! The SamzaSQL operator layer (§4.2–§4.4).
//!
//! Operators are nodes of the message router's DAG. Each consumes array
//! tuples and produces zero or more output tuples; stateful operators
//! (windows, joins) keep their state in the task's fault-tolerant key-value
//! store, so Samza's changelog/checkpoint machinery makes them recover
//! exactly as §4.3 describes.
//!
//! All stateful operators share one store (`STATE_STORE`) and isolate their
//! entries with an operator-id key prefix, mirroring how SamzaSQL configures
//! a single managed store per task.

pub mod acc;
pub mod filter;
pub mod insert;
pub mod join_relation;
pub mod join_stream;
pub mod project;
pub mod scan;
pub mod sort;
pub mod window_agg;
pub mod window_sliding;

use crate::error::Result;
use crate::tuple::Tuple;
use samzasql_kafka::Bytes;
use samzasql_samza::KeyValueStore;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::Value;

/// Name of the shared task-local state store.
pub const STATE_STORE: &str = "samzasql-state";

/// Which input of a binary operator a tuple arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Single,
    Left,
    Right,
}

/// Runtime context handed to operators on every call.
pub struct OpCtx<'a> {
    /// The shared state store, when the job configured one.
    pub store: Option<&'a mut KeyValueStore>,
    /// Count of tuples discarded for arriving too late (§3's timeout
    /// expiration policy); surfaced in metrics.
    pub late_discards: &'a mut u64,
}

impl<'a> OpCtx<'a> {
    /// Borrow the store or fail (stateful operator in a stateless job —
    /// a configuration bug).
    pub fn store(&mut self) -> Result<&mut KeyValueStore> {
        self.store.as_deref_mut().ok_or_else(|| {
            crate::error::CoreError::Operator(
                "operator requires local state but no store is configured".into(),
            )
        })
    }
}

/// A streaming SQL operator, processing tuples a batch at a time.
///
/// The router pushes batches through the DAG: `input` is drained by the
/// callee and outputs are appended to the shared `out` buffer, so a chain of
/// operators reuses two ping-pong buffers instead of allocating a `Vec` per
/// node per tuple.
pub trait Operator: Send {
    /// Process a batch of tuples that arrived on `side`. Implementations
    /// drain `input` (taking tuples by value) and append outputs to `out`
    /// in arrival order.
    fn process_batch(
        &mut self,
        side: Side,
        input: &mut Vec<Tuple>,
        out: &mut Vec<Tuple>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()>;

    /// A deletion arrived on a relation changelog (tombstone): `key` is the
    /// raw message key. Only the stream-to-relation join reacts.
    fn on_tombstone(
        &mut self,
        _side: Side,
        _key: &[u8],
        _out: &mut Vec<Tuple>,
        _ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        Ok(())
    }

    /// Flush pending state at end-of-input (bounded queries) — emits final
    /// windows, sorted buffers, relational aggregates into `out`.
    fn flush(&mut self, _out: &mut Vec<Tuple>, _ctx: &mut OpCtx<'_>) -> Result<()> {
        Ok(())
    }

    /// Operator name for EXPLAIN/debugging.
    fn name(&self) -> &'static str;
}

/// Order-preserving big-endian encoding of an i64 (sign bit flipped so the
/// byte order matches numeric order). Used in store keys for timestamps and
/// window starts.
pub fn encode_i64(v: i64) -> [u8; 8] {
    ((v as u64) ^ (1u64 << 63)).to_be_bytes()
}

/// Object-encode `value` into the operator's reused `buf`, then copy it into
/// one exact-size allocation (a store value or a message key).
pub(crate) fn encode_once(codec: &ObjectCodec, value: &Value, buf: &mut Vec<u8>) -> Result<Bytes> {
    buf.clear();
    codec.encode_into(value, buf)?;
    Ok(Bytes::copy_from_slice(buf))
}

/// Inverse of [`encode_i64`].
pub fn decode_i64(bytes: &[u8]) -> i64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    (u64::from_be_bytes(raw) ^ (1u64 << 63)) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_encoding_preserves_order() {
        let samples = [i64::MIN, -5_000, -1, 0, 1, 42, 1 << 40, i64::MAX];
        for w in samples.windows(2) {
            assert!(
                encode_i64(w[0]) < encode_i64(w[1]),
                "{} !< {} in encoded space",
                w[0],
                w[1]
            );
            assert_eq!(decode_i64(&encode_i64(w[0])), w[0]);
        }
    }
}
