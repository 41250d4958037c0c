//! The sliding-window operator — Algorithm 1 of the paper, literally.
//!
//! ```text
//! input: tuple
//! save messages in message store;
//! if uninitialized window state then
//!     initialize window state;
//! get tuple timestamp;
//! update window bounds;
//! add a reference to the tuple into the window store;
//! purge messages and adjust aggregate values;
//! compute new aggregate values adding current tuple;
//! send latest aggregate values downstream;
//! ```
//!
//! All state lives in the task's fault-tolerant KV store (message store,
//! aggregate state, window bounds), so restore-and-replay reproduces the
//! same outputs (§4.3). Every tuple costs several store reads and writes
//! through a serde — which is why Figure 6 finds sliding-window throughput
//! dominated by KV access for SamzaSQL *and* native jobs alike.
//!
//! Retractable aggregates (SUM/COUNT/AVG, retractable UDAFs) are adjusted
//! incrementally on purge; non-retractable ones (MIN/MAX) force a recompute
//! over the retained window messages.

use crate::error::Result;
use crate::expr::CompiledExpr;
use crate::ops::acc::{accs_from_value, accs_to_value, Acc, CompiledAgg};
use crate::ops::{encode_i64, encode_once, OpCtx, Operator, Side};
use crate::tuple::Tuple;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::Value;
use std::collections::BTreeMap;

/// Per-group window state: aggregate accumulators, message sequence
/// counter, and the max event time seen (the window upper bound).
type WindowState = (Vec<Acc>, u64, i64);

/// Time- or tuple-domain sliding window appending aggregate columns.
pub struct SlidingWindowOp {
    /// Key prefix isolating this operator's entries in the shared store.
    op_id: String,
    partition_by: Vec<CompiledExpr>,
    ts_index: usize,
    /// RANGE frame in ms; `None` with `rows: None` means unbounded.
    range_ms: Option<i64>,
    rows: Option<u64>,
    aggs: Vec<CompiledAgg>,
    codec: ObjectCodec,
    /// Encode buffer reused for every store value.
    buf: Vec<u8>,
}

impl SlidingWindowOp {
    pub fn new(
        op_id: impl Into<String>,
        partition_by: Vec<CompiledExpr>,
        ts_index: usize,
        range_ms: Option<i64>,
        rows: Option<u64>,
        aggs: Vec<CompiledAgg>,
    ) -> Self {
        SlidingWindowOp {
            op_id: op_id.into(),
            partition_by,
            ts_index,
            range_ms,
            rows,
            aggs,
            codec: ObjectCodec::new(),
            buf: Vec::new(),
        }
    }

    fn group_key(&self, tuple: &Tuple) -> Result<Vec<u8>> {
        let vals: Vec<Value> = self.partition_by.iter().map(|e| e.eval(tuple)).collect();
        Ok(self.codec.encode(&Value::Array(vals))?.to_vec())
    }

    fn msg_prefix(&self, group: &[u8]) -> Vec<u8> {
        let mut k = format!("M{}/", self.op_id).into_bytes();
        k.extend_from_slice(group);
        k.push(b'/');
        k
    }

    fn meta_key(&self, tag: u8, group: &[u8]) -> Vec<u8> {
        let mut k = vec![tag];
        k.extend_from_slice(format!("{}/", self.op_id).as_bytes());
        k.extend_from_slice(group);
        k
    }
}

impl SlidingWindowOp {
    /// Load a group's state bundle from the store, or initialize it.
    fn load_state(&self, group: &[u8], ctx: &mut OpCtx<'_>) -> Result<WindowState> {
        let state_key = self.meta_key(b'A', group);
        match ctx.store()?.get(&state_key) {
            Some(bytes) => match self.codec.decode(&bytes)? {
                Value::Array(parts) if parts.len() == 3 => {
                    let accs = accs_from_value(&parts[0])?;
                    let seq = parts[1].as_i64().unwrap_or(0) as u64;
                    let max_ts = parts[2].as_i64().unwrap_or(i64::MIN);
                    Ok((accs, seq, max_ts))
                }
                _ => Err(crate::error::CoreError::Operator(
                    "corrupt sliding-window state".into(),
                )),
            },
            None => Ok((self.aggs.iter().map(|a| a.init()).collect(), 0, i64::MIN)),
        }
    }
}

impl Operator for SlidingWindowOp {
    fn process_batch(
        &mut self,
        _side: Side,
        input: &mut Vec<Tuple>,
        out: &mut Vec<Tuple>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        // State bundles are cached per group for the whole batch — "aggregate
        // state, window bounds, messages task instance has seen" (§4.3) — and
        // written back once per group, so repeated keys within a batch cost
        // one store read and one store write instead of one per tuple. The
        // message store stays write-through: purge and recompute range-scan
        // it per tuple.
        let mut states: BTreeMap<Vec<u8>, WindowState> = BTreeMap::new();

        for tuple in input.drain(..) {
            let ts = tuple
                .get(self.ts_index)
                .and_then(|v| v.as_i64())
                .ok_or_else(|| {
                    crate::error::CoreError::Operator("sliding window: NULL timestamp".into())
                })?;
            let group = self.group_key(&tuple)?;
            if !states.contains_key(&group) {
                let state = self.load_state(&group, ctx)?;
                states.insert(group.clone(), state);
            }
            let state = states.get_mut(&group).expect("just inserted");
            let (ref mut accs, ref mut seq, ref mut max_ts) = *state;

            // Out-of-order arrival beyond the retained window: the paper's
            // timeout-expiration policy discards it (§3).
            if let Some(range) = self.range_ms {
                if *max_ts != i64::MIN && ts < *max_ts - range {
                    *ctx.late_discards += 1;
                    continue;
                }
            }
            let new_max = (*max_ts).max(ts);

            // Save the message in the message store (Algorithm 1 line 1).
            let prefix = self.msg_prefix(&group);
            let mut msg_key = prefix.clone();
            msg_key.extend_from_slice(&encode_i64(ts));
            msg_key.extend_from_slice(&seq.to_be_bytes());
            let encoded_msg =
                encode_once(&self.codec, &Value::Array(tuple.clone()), &mut self.buf)?;
            let store = ctx.store()?;
            store.put(&msg_key, encoded_msg)?;

            // Purge expired messages, adjusting aggregates (lines 8–9).
            let mut need_recompute = false;
            let mut expired: Vec<Vec<u8>> = Vec::new();
            match (self.range_ms, self.rows) {
                (Some(range), _) => {
                    let cutoff = new_max - range;
                    // Range [prefix .. prefix+encode(cutoff)) = strictly older.
                    let mut hi = prefix.clone();
                    hi.extend_from_slice(&encode_i64(cutoff));
                    for (k, v) in store.range(&prefix, &hi) {
                        let old: Tuple = match self.codec.decode(&v)? {
                            Value::Array(items) => items,
                            _ => continue,
                        };
                        for (spec, acc) in self.aggs.iter().zip(accs.iter_mut()) {
                            if !spec.retract(acc, &old) {
                                need_recompute = true;
                            }
                        }
                        expired.push(k);
                    }
                }
                (None, Some(rows)) => {
                    // Tuple-domain frame: current row + `rows` preceding. Drop
                    // the oldest entries beyond the frame.
                    let mut hi = prefix.clone();
                    hi.extend_from_slice(&encode_i64(i64::MAX));
                    let keep = rows as usize + 1;
                    let mut all = store.range(&prefix, &hi);
                    while all.len() > keep {
                        let (k, v) = all.remove(0);
                        let old: Tuple = match self.codec.decode(&v)? {
                            Value::Array(items) => items,
                            _ => continue,
                        };
                        for (spec, acc) in self.aggs.iter().zip(accs.iter_mut()) {
                            if !spec.retract(acc, &old) {
                                need_recompute = true;
                            }
                        }
                        expired.push(k);
                    }
                }
                (None, None) => {} // unbounded: nothing expires
            }
            for k in &expired {
                store.delete(k)?;
            }

            // Fold in the new tuple (line 10).
            for (spec, acc) in self.aggs.iter().zip(accs.iter_mut()) {
                spec.add(acc, &tuple);
            }

            // Non-invertible aggregates: recompute from retained messages.
            if need_recompute {
                let mut hi = prefix.clone();
                hi.extend_from_slice(&encode_i64(i64::MAX));
                let retained = store.range(&prefix, &hi);
                *accs = self.aggs.iter().map(|a| a.init()).collect();
                for (_, v) in retained {
                    if let Value::Array(items) = self.codec.decode(&v)? {
                        for (spec, acc) in self.aggs.iter().zip(accs.iter_mut()) {
                            spec.add(acc, &items);
                        }
                    }
                }
            }

            *seq += 1;
            *max_ts = new_max;

            // Emit input tuple + latest aggregate values (line 11).
            let mut row = tuple;
            for (spec, acc) in self.aggs.iter().zip(accs.iter()) {
                row.push(spec.result(acc));
            }
            out.push(row);
        }

        // Persist one state bundle per group touched by this batch.
        for (group, (accs, seq, max_ts)) in &states {
            let state_key = self.meta_key(b'A', group);
            let state = Value::Array(vec![
                accs_to_value(accs),
                Value::Long(*seq as i64),
                Value::Long(*max_ts),
            ]);
            let encoded = encode_once(&self.codec, &state, &mut self.buf)?;
            ctx.store()?.put(&state_key, encoded)?;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "SlidingWindowOp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::compile;
    use crate::udaf::UdafRegistry;
    use samzasql_planner::{AggCall, AggFunc, ScalarExpr};
    use samzasql_samza::KeyValueStore;
    use samzasql_serde::Schema;

    fn sum_units() -> CompiledAgg {
        CompiledAgg::new(
            &AggCall {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::input(2, Schema::Int)),
                distinct: false,
                output_name: "s".into(),
            },
            &UdafRegistry::new(),
        )
        .unwrap()
    }

    fn min_units() -> CompiledAgg {
        CompiledAgg::new(
            &AggCall {
                func: AggFunc::Min,
                arg: Some(ScalarExpr::input(2, Schema::Int)),
                distinct: false,
                output_name: "m".into(),
            },
            &UdafRegistry::new(),
        )
        .unwrap()
    }

    fn op(range_ms: Option<i64>, rows: Option<u64>, aggs: Vec<CompiledAgg>) -> SlidingWindowOp {
        SlidingWindowOp::new(
            "0",
            vec![compile(&ScalarExpr::input(1, Schema::Int))], // partition by productId
            0,
            range_ms,
            rows,
            aggs,
        )
    }

    fn tup(ts: i64, product: i32, units: i32) -> Tuple {
        vec![Value::Timestamp(ts), Value::Int(product), Value::Int(units)]
    }

    fn run(op: &mut SlidingWindowOp, store: &mut KeyValueStore, tuples: Vec<Tuple>) -> Vec<Tuple> {
        let mut late = 0;
        let mut out = Vec::new();
        let mut input = tuples;
        let mut ctx = OpCtx {
            store: Some(store),
            late_discards: &mut late,
        };
        op.process_batch(Side::Single, &mut input, &mut out, &mut ctx)
            .unwrap();
        out
    }

    #[test]
    fn emits_per_tuple_with_running_sum() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut w = op(Some(100), None, vec![sum_units()]);
        let out = run(
            &mut w,
            &mut store,
            vec![tup(0, 1, 10), tup(50, 1, 20), tup(200, 1, 5)],
        );
        // t=0: sum 10; t=50: 30; t=200: first two expired (cutoff 100) ⇒ 5.
        let sums: Vec<Value> = out.iter().map(|t| t[3].clone()).collect();
        assert_eq!(sums, vec![Value::Long(10), Value::Long(30), Value::Long(5)]);
    }

    #[test]
    fn partitions_are_independent() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut w = op(Some(1_000), None, vec![sum_units()]);
        let out = run(
            &mut w,
            &mut store,
            vec![tup(0, 1, 10), tup(1, 2, 99), tup(2, 1, 5)],
        );
        assert_eq!(out[1][3], Value::Long(99), "product 2 isolated");
        assert_eq!(out[2][3], Value::Long(15), "product 1 accumulates 10+5");
    }

    #[test]
    fn min_recomputes_after_purge() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut w = op(Some(100), None, vec![min_units()]);
        let out = run(
            &mut w,
            &mut store,
            vec![tup(0, 1, 3), tup(50, 1, 7), tup(180, 1, 9)],
        );
        // At t=180 the t=0 tuple (min 3) expired; window = {7?, 9}: 7 is at
        // t=50 < 80 cutoff ⇒ also expired; min = 9.
        assert_eq!(out[2][3], Value::Int(9));
    }

    #[test]
    fn rows_frame_keeps_last_n_plus_current() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut w = op(None, Some(1), vec![sum_units()]);
        let out = run(
            &mut w,
            &mut store,
            vec![tup(0, 1, 1), tup(1, 1, 2), tup(2, 1, 4), tup(3, 1, 8)],
        );
        let sums: Vec<Value> = out.iter().map(|t| t[3].clone()).collect();
        // ROWS 1 PRECEDING: current + previous.
        assert_eq!(
            sums,
            vec![
                Value::Long(1),
                Value::Long(3),
                Value::Long(6),
                Value::Long(12)
            ]
        );
    }

    #[test]
    fn unbounded_frame_never_purges() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut w = op(None, None, vec![sum_units()]);
        let out = run(&mut w, &mut store, (0..5).map(|i| tup(i, 1, 1)).collect());
        assert_eq!(out.last().unwrap()[3], Value::Long(5));
    }

    #[test]
    fn late_tuples_discarded_and_counted() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut w = op(Some(100), None, vec![sum_units()]);
        let mut late = 0;
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        let mut out = Vec::new();
        w.process_batch(
            Side::Single,
            &mut vec![tup(1_000, 1, 1), tup(500, 1, 1)],
            &mut out,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(out.len(), 1, "only the on-time tuple emits");
        assert_eq!(late, 1);
    }

    #[test]
    fn state_survives_store_restore() {
        use samzasql_kafka::{Broker, TopicConfig};
        let broker = Broker::new();
        broker
            .create_topic("clog", TopicConfig::with_partitions(1))
            .unwrap();
        let mut store = KeyValueStore::with_changelog("s", broker.clone(), "clog", 0);
        let mut w = op(Some(1_000), None, vec![sum_units()]);
        run(&mut w, &mut store, vec![tup(0, 1, 10), tup(1, 1, 20)]);
        store.flush_changelog().unwrap(); // commit before the "failure"

        // New store + operator (fresh task), restore from changelog.
        let mut store2 = KeyValueStore::with_changelog("s", broker, "clog", 0);
        store2.restore().unwrap();
        let mut w2 = op(Some(1_000), None, vec![sum_units()]);
        let out = run(&mut w2, &mut store2, vec![tup(2, 1, 5)]);
        assert_eq!(
            out[0][3],
            Value::Long(35),
            "restored window continues: 10+20+5"
        );
    }
}
