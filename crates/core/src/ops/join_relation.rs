//! Stream-to-relation join (§4.4).
//!
//! The relation arrives as a changelog stream configured as a **bootstrap
//! stream**: Samza withholds the other inputs until the changelog is fully
//! consumed, so by the time stream tuples flow the operator has "a cached
//! copy of the partitions of the relation assigned to it in the local
//! storage". Later changelog records keep the cache current; tombstones
//! (empty payloads) delete.
//!
//! The cache values are serialized through the **generic object codec** —
//! the Kryo stand-in — which is precisely the serde the paper's profiling
//! blames for the join running ~2× slower than the native Avro-based
//! implementation (§5.1). A probe reads its relation row through the
//! store's decoded-row cache ([`KeyValueStore::get_decoded`]), the same
//! mechanism the native join probes through: the object decode and the
//! by-name rebuild run once per relation key until the key changes, and a
//! cached probe costs a map lookup. The probe key `R<op>/<object-coded key>`
//! is built in a buffer the operator reuses, its head written once, and the
//! drained stream tuple becomes the output row, with the relation columns
//! cloned into it.
//!
//! [`KeyValueStore::get_decoded`]: samzasql_samza::KeyValueStore::get_decoded

use crate::error::{CoreError, Result};
use crate::expr::CompiledExpr;
use crate::ops::{encode_once, OpCtx, Operator, Side};
use crate::tuple::Tuple;
use samzasql_parser::ast::JoinKind;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::{Record, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Joins a stream against a bootstrap-cached relation.
pub struct StreamToRelationJoinOp {
    /// Extracts the join key from a stream tuple.
    stream_key: CompiledExpr,
    /// Index of the key column in relation tuples.
    relation_key: usize,
    /// Relation column names: cache entries are stored as *named* records
    /// through the object codec, reproducing the self-describing (Kryo-like)
    /// serialization the paper's profiling blames (§5.1). One table serves
    /// every record the operator caches.
    relation_names: Arc<Vec<String>>,
    /// Output order: stream columns first when true.
    stream_is_left: bool,
    kind: JoinKind,
    /// Residual predicate over the combined row.
    residual: Option<CompiledExpr>,
    codec: ObjectCodec,
    /// Encode buffer reused for every cached relation record.
    buf: Vec<u8>,
    /// Store key buffer: `R<op>/`, written once, then the key suffix.
    key: Vec<u8>,
    /// Length of the `R<op>/` head of `key`.
    head: usize,
}

impl StreamToRelationJoinOp {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        op_id: impl Into<String>,
        stream_key: CompiledExpr,
        relation_key: usize,
        relation_names: Vec<String>,
        stream_is_left: bool,
        kind: JoinKind,
        residual: Option<CompiledExpr>,
    ) -> Self {
        let op_id = op_id.into();
        let key = format!("R{op_id}/").into_bytes();
        StreamToRelationJoinOp {
            stream_key,
            relation_key,
            relation_names: Arc::new(relation_names),
            stream_is_left,
            kind,
            residual,
            codec: ObjectCodec::new(),
            buf: Vec::new(),
            head: key.len(),
            key,
        }
    }

    /// Point the key buffer at the relation row keyed by `key`.
    fn set_key(&mut self, key: &Value) -> Result<()> {
        self.key.truncate(self.head);
        self.codec.encode_into(key, &mut self.key)?;
        Ok(())
    }
}

/// Generic-object (Kryo-style) reconstruction of a cached relation row: the
/// decoded object is accessed through its field table by name, not
/// positionally — wire order is not trusted, exactly like reflective
/// deserialization of a generic tuple object.
fn decode_relation_row(codec: &ObjectCodec, names: &[String], bytes: &[u8]) -> Result<Tuple> {
    match codec.decode(bytes)? {
        Value::Record(record) => {
            let table: BTreeMap<&str, &Value> = record.iter().collect();
            Ok(names
                .iter()
                .map(|n| table.get(n.as_str()).map_or(Value::Null, |v| (*v).clone()))
                .collect())
        }
        other => Err(CoreError::Operator(format!(
            "relation cache entry is not a record: {}",
            other.type_name()
        ))),
    }
}

impl Operator for StreamToRelationJoinOp {
    fn process_batch(
        &mut self,
        side: Side,
        input: &mut Vec<Tuple>,
        out: &mut Vec<Tuple>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        match side {
            // Relation changelog records: upsert the cache.
            Side::Right => {
                for tuple in input.drain(..) {
                    let key = tuple.get(self.relation_key).cloned().unwrap_or(Value::Null);
                    self.set_key(&key)?;
                    // Cache as a named record: the generic-object serde writes
                    // class + field names, like Kryo serializing a POJO.
                    let record = Value::Record(Record::new(self.relation_names.clone(), tuple)?);
                    let encoded = encode_once(&self.codec, &record, &mut self.buf)?;
                    ctx.store()?.put(&self.key, encoded)?;
                }
                Ok(())
            }
            // Stream tuples: probe the relation through the store's
            // decoded-row cache, and extend the stream tuple into the
            // joined row.
            _ => {
                let width = self.relation_names.len();
                for mut tuple in input.drain(..) {
                    let key = self.stream_key.eval(&tuple);
                    self.set_key(&key)?;
                    let relation = ctx.store()?.get_decoded(&self.key, |bytes| {
                        decode_relation_row(&self.codec, &self.relation_names, bytes)
                    })?;
                    match (relation, self.kind) {
                        (Some(rel), _) if self.stream_is_left => tuple.extend_from_slice(rel),
                        (Some(rel), _) => {
                            tuple.splice(0..0, rel.iter().cloned());
                        }
                        (None, JoinKind::Left) if self.stream_is_left => {
                            tuple.resize(tuple.len() + width, Value::Null)
                        }
                        (None, JoinKind::Right) if !self.stream_is_left => {
                            tuple.splice(0..0, std::iter::repeat_n(Value::Null, width));
                        }
                        (None, _) => continue,
                    }
                    if let Some(residual) = &self.residual {
                        if !residual.eval_bool(&tuple) {
                            continue;
                        }
                    }
                    out.push(tuple);
                }
                Ok(())
            }
        }
    }

    fn on_tombstone(
        &mut self,
        side: Side,
        key: &[u8],
        _out: &mut Vec<Tuple>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        if side == Side::Right {
            // The changelog's message key carries the relation key encoded by
            // the producer; our changelog convention writes the object-coded
            // key value, the same suffix a probe key carries.
            self.key.truncate(self.head);
            self.key.extend_from_slice(key);
            ctx.store()?.delete(&self.key)?;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "StreamToRelationJoinOp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::compile;
    use samzasql_planner::ScalarExpr;
    use samzasql_samza::KeyValueStore;
    use samzasql_serde::Schema;

    /// Batch-of-one driver mirroring the old per-tuple API.
    fn process(
        j: &mut StreamToRelationJoinOp,
        side: Side,
        tuple: Tuple,
        ctx: &mut OpCtx<'_>,
    ) -> Result<Vec<Tuple>> {
        let mut input = vec![tuple];
        let mut out = Vec::new();
        j.process_batch(side, &mut input, &mut out, ctx)?;
        Ok(out)
    }

    fn op(kind: JoinKind) -> StreamToRelationJoinOp {
        // Stream: (rowtime, productId, units); relation: (productId, supplierId).
        StreamToRelationJoinOp::new(
            "0",
            compile(&ScalarExpr::input(1, Schema::Int)),
            0,
            vec!["productId".into(), "supplierId".into()],
            true,
            kind,
            None,
        )
    }

    fn order(ts: i64, product: i32, units: i32) -> Tuple {
        vec![Value::Timestamp(ts), Value::Int(product), Value::Int(units)]
    }

    fn product(id: i32, supplier: i32) -> Tuple {
        vec![Value::Int(id), Value::Int(supplier)]
    }

    #[test]
    fn bootstrap_then_probe() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = op(JoinKind::Inner);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        // Bootstrap phase: relation records arrive first (Side::Right).
        assert!(process(&mut j, Side::Right, product(7, 70), &mut ctx)
            .unwrap()
            .is_empty());
        assert!(process(&mut j, Side::Right, product(8, 80), &mut ctx)
            .unwrap()
            .is_empty());
        // Stream probes.
        let out = process(&mut j, Side::Left, order(1, 7, 5), &mut ctx).unwrap();
        assert_eq!(
            out,
            vec![vec![
                Value::Timestamp(1),
                Value::Int(7),
                Value::Int(5),
                Value::Int(7),
                Value::Int(70)
            ]]
        );
        // Miss on inner join drops the tuple.
        assert!(process(&mut j, Side::Left, order(2, 99, 1), &mut ctx)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn relation_updates_overwrite() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = op(JoinKind::Inner);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        process(&mut j, Side::Right, product(7, 70), &mut ctx).unwrap();
        process(&mut j, Side::Right, product(7, 71), &mut ctx).unwrap();
        let out = process(&mut j, Side::Left, order(1, 7, 5), &mut ctx).unwrap();
        assert_eq!(out[0][4], Value::Int(71), "latest relation state wins");
    }

    #[test]
    fn left_join_pads_nulls_on_miss() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = op(JoinKind::Left);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        let out = process(&mut j, Side::Left, order(1, 42, 9), &mut ctx).unwrap();
        assert_eq!(out[0][3], Value::Null);
        assert_eq!(out[0][4], Value::Null);
    }

    #[test]
    fn tombstone_removes_cache_entry() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = op(JoinKind::Inner);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        process(&mut j, Side::Right, product(7, 70), &mut ctx).unwrap();
        // Tombstone key = object-coded key value.
        let key_bytes = ObjectCodec::new().encode(&Value::Int(7)).unwrap();
        j.on_tombstone(Side::Right, &key_bytes, &mut Vec::new(), &mut ctx)
            .unwrap();
        assert!(process(&mut j, Side::Left, order(1, 7, 5), &mut ctx)
            .unwrap()
            .is_empty());
    }

    /// A relation update and a tombstone arriving between two order batches
    /// change the second batch's output, although the first batch left
    /// both keys' rows in the store's decoded-row cache.
    #[test]
    fn relation_changes_between_batches_reach_the_next_probe() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = op(JoinKind::Inner);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        let mut relation = vec![product(7, 70), product(8, 80)];
        j.process_batch(Side::Right, &mut relation, &mut Vec::new(), &mut ctx)
            .unwrap();
        let batch = |j: &mut StreamToRelationJoinOp, ctx: &mut OpCtx<'_>| {
            let mut orders = vec![order(1, 7, 5), order(2, 8, 6), order(3, 7, 1)];
            let mut out = Vec::new();
            j.process_batch(Side::Left, &mut orders, &mut out, ctx)
                .unwrap();
            out.iter()
                .map(|row| (row[1].clone(), row[4].clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            batch(&mut j, &mut ctx),
            [(7, 70), (8, 80), (7, 70)].map(|(p, s)| (Value::Int(p), Value::Int(s)))
        );

        let mut update = vec![product(7, 71)];
        j.process_batch(Side::Right, &mut update, &mut Vec::new(), &mut ctx)
            .unwrap();
        let key_bytes = ObjectCodec::new().encode(&Value::Int(8)).unwrap();
        j.on_tombstone(Side::Right, &key_bytes, &mut Vec::new(), &mut ctx)
            .unwrap();
        assert_eq!(
            batch(&mut j, &mut ctx),
            [(7, 71), (7, 71)].map(|(p, s)| (Value::Int(p), Value::Int(s)))
        );
        let m = store.metrics();
        assert_eq!(
            (m.gets, m.cache_hits),
            (4, 2),
            "first batch: 2 decodes and 1 hit; second: 1 decode, 1 absent key, 1 hit"
        );
    }

    #[test]
    fn relation_first_join_puts_relation_columns_first() {
        // Relation on the left: (productId, supplierId, rowtime, productId, units).
        let mut j = StreamToRelationJoinOp::new(
            "0",
            compile(&ScalarExpr::input(1, Schema::Int)),
            0,
            vec!["productId".into(), "supplierId".into()],
            false,
            JoinKind::Right,
            None,
        );
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        process(&mut j, Side::Right, product(7, 70), &mut ctx).unwrap();
        let mut orders = vec![order(1, 7, 5), order(2, 9, 6)];
        let mut out = Vec::new();
        j.process_batch(Side::Left, &mut orders, &mut out, &mut ctx)
            .unwrap();
        let int = Value::Int;
        assert_eq!(
            out,
            vec![
                vec![int(7), int(70), Value::Timestamp(1), int(7), int(5)],
                vec![
                    Value::Null,
                    Value::Null,
                    Value::Timestamp(2),
                    int(9),
                    int(6)
                ],
            ]
        );
    }

    #[test]
    fn residual_predicate_filters_joined_rows() {
        // Residual: supplierId > 75 over combined (rowtime, productId, units, productId, supplierId).
        let residual = compile(&ScalarExpr::Binary {
            op: samzasql_planner::BinOp::Gt,
            left: Box::new(ScalarExpr::input(4, Schema::Int)),
            right: Box::new(ScalarExpr::Literal(Value::Int(75))),
            ty: Schema::Boolean,
        });
        let mut j = StreamToRelationJoinOp::new(
            "0",
            compile(&ScalarExpr::input(1, Schema::Int)),
            0,
            vec!["productId".into(), "supplierId".into()],
            true,
            JoinKind::Inner,
            Some(residual),
        );
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        process(&mut j, Side::Right, product(1, 70), &mut ctx).unwrap();
        process(&mut j, Side::Right, product(2, 80), &mut ctx).unwrap();
        assert!(process(&mut j, Side::Left, order(1, 1, 5), &mut ctx)
            .unwrap()
            .is_empty());
        assert_eq!(
            process(&mut j, Side::Left, order(1, 2, 5), &mut ctx)
                .unwrap()
                .len(),
            1
        );
    }
}
