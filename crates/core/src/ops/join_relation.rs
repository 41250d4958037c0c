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
//! implementation (§5.1). Every distinct key of a stream batch pays one
//! store `get` plus an object decode.

use crate::error::Result;
use crate::expr::CompiledExpr;
use crate::ops::{encode_once, OpCtx, Operator, Side};
use crate::tuple::Tuple;
use samzasql_parser::ast::JoinKind;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::{Record, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Joins a stream against a bootstrap-cached relation.
pub struct StreamToRelationJoinOp {
    op_id: String,
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
        StreamToRelationJoinOp {
            op_id: op_id.into(),
            stream_key,
            relation_key,
            relation_names: Arc::new(relation_names),
            stream_is_left,
            kind,
            residual,
            codec: ObjectCodec::new(),
            buf: Vec::new(),
        }
    }

    fn cache_key(&self, key: &Value) -> Result<Vec<u8>> {
        let mut k = format!("R{}/", self.op_id).into_bytes();
        k.extend_from_slice(&self.codec.encode(key)?);
        Ok(k)
    }

    fn combine(&self, stream: &Tuple, relation: Option<&Tuple>) -> Tuple {
        let nulls;
        let rel: &Tuple = match relation {
            Some(r) => r,
            None => {
                nulls = vec![Value::Null; self.relation_names.len()];
                &nulls
            }
        };
        if self.stream_is_left {
            stream.iter().chain(rel.iter()).cloned().collect()
        } else {
            rel.iter().chain(stream.iter()).cloned().collect()
        }
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
                    let ck = self.cache_key(&key)?;
                    // Cache as a named record: the generic-object serde writes
                    // class + field names, like Kryo serializing a POJO.
                    let record = Value::Record(Record::new(self.relation_names.clone(), tuple)?);
                    let encoded = encode_once(&self.codec, &record, &mut self.buf)?;
                    ctx.store()?.put(&ck, encoded)?;
                }
                Ok(())
            }
            // Stream tuples: probe the cache. A batch carries one side only
            // (relation updates arrive in their own changelog-topic batches,
            // and the router drains buffered work before applying a
            // tombstone), so probe results can be memoized per batch: one
            // store get + Kryo-style decode per distinct key, not per tuple.
            _ => {
                let mut probes: HashMap<Vec<u8>, Option<Tuple>> = HashMap::new();
                for tuple in input.drain(..) {
                    let key = self.stream_key.eval(&tuple);
                    let ck = self.cache_key(&key)?;
                    if !probes.contains_key(&ck) {
                        let hit = ctx.store()?.get(&ck);
                        let relation = match hit {
                            Some(bytes) => match self.codec.decode(&bytes)? {
                                Value::Record(record) => {
                                    // Generic-object (Kryo-style) reconstruction:
                                    // the decoded object is accessed through its
                                    // field table by name, not positionally —
                                    // wire order is not trusted, exactly like
                                    // reflective deserialization of a generic
                                    // tuple object.
                                    let table: BTreeMap<&str, &Value> = record.iter().collect();
                                    Some(
                                        self.relation_names
                                            .iter()
                                            .map(|n| {
                                                table
                                                    .get(n.as_str())
                                                    .map_or(Value::Null, |v| (*v).clone())
                                            })
                                            .collect::<Tuple>(),
                                    )
                                }
                                _ => None,
                            },
                            None => None,
                        };
                        probes.insert(ck.clone(), relation);
                    }
                    let relation = probes.get(&ck).expect("just inserted");
                    let combined = match (relation, self.kind) {
                        (Some(rel), _) => self.combine(&tuple, Some(rel)),
                        (None, JoinKind::Left) if self.stream_is_left => self.combine(&tuple, None),
                        (None, JoinKind::Right) if !self.stream_is_left => {
                            self.combine(&tuple, None)
                        }
                        (None, _) => continue,
                    };
                    if let Some(residual) = &self.residual {
                        if !residual.eval_bool(&combined) {
                            continue;
                        }
                    }
                    out.push(combined);
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
            // key value, matching cache_key's suffix.
            let mut ck = format!("R{}/", self.op_id).into_bytes();
            ck.extend_from_slice(key);
            ctx.store()?.delete(&ck)?;
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
