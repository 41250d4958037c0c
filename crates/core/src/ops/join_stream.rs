//! Stream-to-stream sliding-window join (§3.8.1).
//!
//! The window lives in the join condition: `L.ts BETWEEN R.ts - lower AND
//! R.ts + upper`. The operator is a symmetric hash join: each side keeps its
//! recent tuples in the KV store keyed by `(equi key, ts, seq)`; an arriving
//! tuple probes the opposite side's store for key-equal tuples inside the
//! time bound, emits matches, stores itself, and purges opposite-side tuples
//! that can no longer match anything (event time has moved past them).

use crate::error::Result;
use crate::expr::CompiledExpr;
use crate::ops::{encode_i64, encode_once, OpCtx, Operator, Side};
use crate::tuple::Tuple;
use samzasql_parser::ast::JoinKind;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::Value;

/// Symmetric windowed join.
pub struct StreamToStreamJoinOp {
    op_id: String,
    /// Join key extractors, one per side.
    left_key: CompiledExpr,
    right_key: CompiledExpr,
    /// Timestamp column index on each side's tuples.
    left_ts: usize,
    right_ts: usize,
    /// `left.ts ∈ [right.ts - lower, right.ts + upper]`.
    lower_ms: i64,
    upper_ms: i64,
    residual: Option<CompiledExpr>,
    codec: ObjectCodec,
    /// Encode buffer reused for every stored tuple.
    buf: Vec<u8>,
    seq: u64,
}

impl StreamToStreamJoinOp {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        op_id: impl Into<String>,
        kind: JoinKind,
        left_key: CompiledExpr,
        right_key: CompiledExpr,
        left_ts: usize,
        right_ts: usize,
        lower_ms: i64,
        upper_ms: i64,
        residual: Option<CompiledExpr>,
    ) -> Result<Self> {
        if kind != JoinKind::Inner {
            return Err(crate::error::CoreError::Operator(
                "stream-to-stream joins support INNER JOIN only".into(),
            ));
        }
        Ok(StreamToStreamJoinOp {
            op_id: op_id.into(),
            left_key,
            right_key,
            left_ts,
            right_ts,
            lower_ms,
            upper_ms,
            residual,
            codec: ObjectCodec::new(),
            buf: Vec::new(),
            seq: 0,
        })
    }

    fn side_prefix(&self, side: Side, key: &Value) -> Result<Vec<u8>> {
        let tag = if side == Side::Left { 'L' } else { 'R' };
        let mut k = format!("{tag}{}/", self.op_id).into_bytes();
        k.extend_from_slice(&self.codec.encode(key)?);
        k.push(b'/');
        Ok(k)
    }

    /// The probe window on the *other* side for a tuple at `ts` on `side`.
    ///
    /// Condition: `L.ts >= R.ts - lower && L.ts <= R.ts + upper`.
    /// * left arrival at `t`: matching right tuples have
    ///   `R.ts ∈ [t - upper, t + lower]`.
    /// * right arrival at `t`: matching left tuples have
    ///   `L.ts ∈ [t - lower, t + upper]`.
    fn probe_window(&self, side: Side, ts: i64) -> (i64, i64) {
        if side == Side::Left {
            (ts - self.upper_ms, ts + self.lower_ms)
        } else {
            (ts - self.lower_ms, ts + self.upper_ms)
        }
    }

    fn combine(&self, side: Side, this: &Tuple, other: &Tuple) -> Tuple {
        if side == Side::Left {
            this.iter().chain(other.iter()).cloned().collect()
        } else {
            other.iter().chain(this.iter()).cloned().collect()
        }
    }
}

impl StreamToStreamJoinOp {
    /// Probe + store one tuple, appending matches to `out`.
    fn process_one(
        &mut self,
        side: Side,
        tuple: Tuple,
        out: &mut Vec<Tuple>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        let (key, ts) = match side {
            Side::Left => (
                self.left_key.eval(&tuple),
                tuple.get(self.left_ts).and_then(|v| v.as_i64()),
            ),
            _ => (
                self.right_key.eval(&tuple),
                tuple.get(self.right_ts).and_then(|v| v.as_i64()),
            ),
        };
        let ts = ts.ok_or_else(|| {
            crate::error::CoreError::Operator("stream join: NULL timestamp".into())
        })?;
        if key.is_null() {
            return Ok(()); // NULL keys never join
        }
        let other_side = if side == Side::Left {
            Side::Right
        } else {
            Side::Left
        };
        let other_prefix = self.side_prefix(other_side, &key)?;
        let (lo, hi) = self.probe_window(side, ts);

        // Purge opposite-side tuples too old to ever match again, assuming
        // per-partition monotonic timestamps (§3.8.1).
        let slack = self.lower_ms + self.upper_ms;
        let mut purge_hi = other_prefix.clone();
        purge_hi.extend_from_slice(&encode_i64(ts - slack - 1));
        {
            let store = ctx.store()?;
            let stale = store.range(&other_prefix, &purge_hi);
            for (k, _) in stale {
                store.delete(&k)?;
            }
        }

        // Probe the opposite side within [lo, hi].
        let mut from = other_prefix.clone();
        from.extend_from_slice(&encode_i64(lo));
        let mut to = other_prefix.clone();
        to.extend_from_slice(&encode_i64(hi.saturating_add(1)));
        let matches = ctx.store()?.range(&from, &to);
        for (_, v) in matches {
            if let Value::Array(other_tuple) = self.codec.decode(&v)? {
                let combined = self.combine(side, &tuple, &other_tuple);
                if let Some(residual) = &self.residual {
                    if !residual.eval_bool(&combined) {
                        continue;
                    }
                }
                out.push(combined);
            }
        }

        // Store this tuple on its own side for future probes.
        let mut own_key = self.side_prefix(side, &key)?;
        own_key.extend_from_slice(&encode_i64(ts));
        own_key.extend_from_slice(&self.seq.to_be_bytes());
        self.seq += 1;
        let encoded = encode_once(&self.codec, &Value::Array(tuple), &mut self.buf)?;
        ctx.store()?.put(&own_key, encoded)?;
        Ok(())
    }
}

impl Operator for StreamToStreamJoinOp {
    fn process_batch(
        &mut self,
        side: Side,
        input: &mut Vec<Tuple>,
        out: &mut Vec<Tuple>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        // The symmetric join interleaves probes with inserts and purges, so
        // each tuple runs the full probe/store cycle; batching still saves
        // the per-tuple output vector of the old pull API.
        for tuple in input.drain(..) {
            self.process_one(side, tuple, out, ctx)?;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "StreamToStreamJoinOp"
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
        j: &mut StreamToStreamJoinOp,
        side: Side,
        tuple: Tuple,
        ctx: &mut OpCtx<'_>,
    ) -> Result<Vec<Tuple>> {
        let mut input = vec![tuple];
        let mut out = Vec::new();
        j.process_batch(side, &mut input, &mut out, ctx)?;
        Ok(out)
    }

    /// Packets schema: (rowtime, sourcetime, packetId) on both sides.
    fn join(lower: i64, upper: i64) -> StreamToStreamJoinOp {
        StreamToStreamJoinOp::new(
            "0",
            JoinKind::Inner,
            compile(&ScalarExpr::input(2, Schema::Long)),
            compile(&ScalarExpr::input(2, Schema::Long)),
            0,
            0,
            lower,
            upper,
            None,
        )
        .unwrap()
    }

    fn packet(ts: i64, id: i64) -> Tuple {
        vec![
            Value::Timestamp(ts),
            Value::Timestamp(ts - 1),
            Value::Long(id),
        ]
    }

    #[test]
    fn matches_within_window_on_same_key() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = join(2_000, 2_000);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        // R1 packet at t=1000, R2 same id at t=2500: |Δ| = 1500 ≤ 2000 ⇒ join.
        assert!(process(&mut j, Side::Left, packet(1_000, 42), &mut ctx)
            .unwrap()
            .is_empty());
        let out = process(&mut j, Side::Right, packet(2_500, 42), &mut ctx).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 6, "left ++ right columns");
        assert_eq!(out[0][0], Value::Timestamp(1_000), "left side first");
        assert_eq!(out[0][3], Value::Timestamp(2_500));
    }

    #[test]
    fn different_keys_never_match() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = join(2_000, 2_000);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        process(&mut j, Side::Left, packet(1_000, 1), &mut ctx).unwrap();
        assert!(process(&mut j, Side::Right, packet(1_000, 2), &mut ctx)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn outside_window_is_dropped() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = join(2_000, 2_000);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        process(&mut j, Side::Left, packet(1_000, 42), &mut ctx).unwrap();
        assert!(process(&mut j, Side::Right, packet(9_000, 42), &mut ctx)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn symmetric_probe_finds_matches_from_either_side() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = join(2_000, 2_000);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        // Right arrives first this time.
        process(&mut j, Side::Right, packet(1_000, 7), &mut ctx).unwrap();
        let out = process(&mut j, Side::Left, packet(1_500, 7), &mut ctx).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0][0],
            Value::Timestamp(1_500),
            "left side first in output"
        );
    }

    #[test]
    fn multiple_matches_all_emitted() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = join(2_000, 2_000);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        process(&mut j, Side::Left, packet(1_000, 5), &mut ctx).unwrap();
        process(&mut j, Side::Left, packet(1_200, 5), &mut ctx).unwrap();
        let out = process(&mut j, Side::Right, packet(2_000, 5), &mut ctx).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn asymmetric_bounds() {
        // left.ts BETWEEN right.ts - 0 AND right.ts + 1000:
        // left must be at or after right, within 1000.
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = join(0, 1_000);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        process(&mut j, Side::Right, packet(1_000, 1), &mut ctx).unwrap();
        // left at 900 < right 1000 ⇒ no match (lower bound 0).
        assert!(process(&mut j, Side::Left, packet(900, 1), &mut ctx)
            .unwrap()
            .is_empty());
        // left at 1500 ∈ [1000, 2000] ⇒ match.
        assert_eq!(
            process(&mut j, Side::Left, packet(1_500, 1), &mut ctx)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn old_entries_get_purged() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut late = 0;
        let mut j = join(1_000, 1_000);
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        process(&mut j, Side::Left, packet(1_000, 3), &mut ctx).unwrap();
        let before = ctx.store().unwrap().len();
        // A much later right tuple for the same key purges the stale left.
        process(&mut j, Side::Right, packet(100_000, 3), &mut ctx).unwrap();
        // Store holds: the new right tuple; the old left one is gone.
        let after = ctx.store().unwrap().len();
        assert_eq!(before, 1);
        assert_eq!(after, 1, "stale left entry purged, right entry stored");
    }

    #[test]
    fn non_inner_join_rejected() {
        assert!(StreamToStreamJoinOp::new(
            "0",
            JoinKind::Left,
            compile(&ScalarExpr::input(2, Schema::Long)),
            compile(&ScalarExpr::input(2, Schema::Long)),
            0,
            0,
            1,
            1,
            None,
        )
        .is_err());
    }
}
