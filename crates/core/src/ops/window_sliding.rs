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
use crate::ops::{encode_i64, OpCtx, Operator, Side};
use crate::tuple::Tuple;
use samzasql_kafka::Bytes;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::Value;
use std::collections::BTreeMap;

/// Per-group window state: aggregate accumulators, message sequence
/// counter, and the max event time seen (the window upper bound).
type WindowState = (Vec<Acc>, u64, i64);

/// Time- or tuple-domain sliding window appending aggregate columns.
///
/// Store keys, with `<group>` the object encoding of the PARTITION BY values
/// as an array:
/// - `A<op_id>/<group>`: the group's state bundle;
/// - `M<op_id>/<group>/<ts><seq>`: one retained message, `ts` order-encoded
///   ([`encode_i64`]) and `seq` big-endian, so a group's messages scan in
///   event-time order.
///
/// Every key is built in a buffer the operator reuses across tuples; the
/// store copies a key only when it keeps a new one.
pub struct SlidingWindowOp {
    /// `M<op_id>/`: head of this operator's message keys.
    msg_head: Vec<u8>,
    /// `A<op_id>/`: head of this operator's state keys.
    state_head: Vec<u8>,
    partition_by: Vec<CompiledExpr>,
    ts_index: usize,
    /// RANGE frame in ms; `None` with `rows: None` means unbounded.
    range_ms: Option<i64>,
    rows: Option<u64>,
    aggs: Vec<CompiledAgg>,
    codec: ObjectCodec,
    /// The current tuple's PARTITION BY values.
    group_vals: Vec<Value>,
    /// Their encoding: the current tuple's group key.
    group: Vec<u8>,
    /// `M<op_id>/<group>/`: the current group's message-key prefix.
    prefix: Vec<u8>,
    /// A full store key (message or state key).
    key: Vec<u8>,
    /// Exclusive upper bound of a range scan over the current group.
    bound: Vec<u8>,
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
        let op_id = op_id.into();
        SlidingWindowOp {
            msg_head: format!("M{op_id}/").into_bytes(),
            state_head: format!("A{op_id}/").into_bytes(),
            partition_by,
            ts_index,
            range_ms,
            rows,
            aggs,
            codec: ObjectCodec::new(),
            group_vals: Vec::new(),
            group: Vec::new(),
            prefix: Vec::new(),
            key: Vec::new(),
            bound: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Load the current group's state bundle from the store, or initialize
    /// it.
    fn load_state(&mut self, ctx: &mut OpCtx<'_>) -> Result<WindowState> {
        build_key(&mut self.key, &[&self.state_head, &self.group]);
        match ctx.store()?.get(&self.key) {
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

/// Overwrite `buf` with the concatenation of `parts`.
fn build_key(buf: &mut Vec<u8>, parts: &[&[u8]]) {
    buf.clear();
    for part in parts {
        buf.extend_from_slice(part);
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
            self.group_vals.clear();
            self.group_vals
                .extend(self.partition_by.iter().map(|e| e.eval(&tuple)));
            self.group.clear();
            self.codec
                .encode_array_into(&self.group_vals, &mut self.group)?;
            // One lookup per tuple; the owned group key is built only when
            // the group first appears in the batch.
            let state = match states.get_mut(&self.group[..]) {
                Some(state) => state,
                None => {
                    let state = self.load_state(ctx)?;
                    states.entry(self.group.clone()).or_insert(state)
                }
            };
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
            build_key(&mut self.prefix, &[&self.msg_head, &self.group, b"/"]);
            build_key(
                &mut self.key,
                &[&self.prefix, &encode_i64(ts), &seq.to_be_bytes()],
            );
            self.buf.clear();
            self.codec.encode_array_into(&tuple, &mut self.buf)?;
            let store = ctx.store()?;
            store.put(&self.key, Bytes::copy_from_slice(&self.buf))?;

            // Purge expired messages, adjusting aggregates (lines 8–9).
            let mut need_recompute = false;
            match (self.range_ms, self.rows) {
                (Some(range), _) => {
                    // Range [prefix .. prefix+encode(cutoff)) = strictly older.
                    let cutoff = new_max - range;
                    build_key(&mut self.bound, &[&self.prefix, &encode_i64(cutoff)]);
                    for (k, v) in store.range(&self.prefix, &self.bound) {
                        let old: Tuple = match self.codec.decode(&v)? {
                            Value::Array(items) => items,
                            _ => continue,
                        };
                        for (spec, acc) in self.aggs.iter().zip(accs.iter_mut()) {
                            if !spec.retract(acc, &old) {
                                need_recompute = true;
                            }
                        }
                        store.delete(&k)?;
                    }
                }
                (None, Some(rows)) => {
                    // Tuple-domain frame: current row + `rows` preceding. Drop
                    // the oldest entries beyond the frame.
                    build_key(&mut self.bound, &[&self.prefix, &encode_i64(i64::MAX)]);
                    let keep = rows as usize + 1;
                    let mut all = store.range(&self.prefix, &self.bound);
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
                        store.delete(&k)?;
                    }
                }
                (None, None) => {} // unbounded: nothing expires
            }

            // Fold in the new tuple (line 10).
            for (spec, acc) in self.aggs.iter().zip(accs.iter_mut()) {
                spec.add(acc, &tuple);
            }

            // Non-invertible aggregates: recompute from retained messages.
            if need_recompute {
                build_key(&mut self.bound, &[&self.prefix, &encode_i64(i64::MAX)]);
                let retained = store.range(&self.prefix, &self.bound);
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
            build_key(&mut self.key, &[&self.state_head, group]);
            let state = [
                accs_to_value(accs),
                Value::Long(*seq as i64),
                Value::Long(*max_ts),
            ];
            self.buf.clear();
            self.codec.encode_array_into(&state, &mut self.buf)?;
            ctx.store()?
                .put(&self.key, Bytes::copy_from_slice(&self.buf))?;
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
    fn two_groups_leave_exactly_their_state_and_message_keys() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut w = op(Some(100), None, vec![sum_units()]);
        // Product 1 at t=0 is purged by its t=200 tuple; product 2 keeps t=10.
        let input = vec![tup(0, 1, 10), tup(10, 2, 5), tup(200, 1, 7)];
        run(&mut w, &mut store, input.clone());

        // Group key: the object encoding of `[Int(product)]` (array tag 9,
        // length 1, int tag 2, little-endian i32).
        let group = |p: u8| vec![9, 1, 0, 0, 0, 2, p, 0, 0, 0];
        let state_key = |p: u8| [b"A0/".to_vec(), group(p)].concat();
        // `M0/<group>/`, the order-encoded timestamp, the big-endian seq.
        let msg_key = |p: u8, ts: u8, seq: u8| {
            let ts = [0x80, 0, 0, 0, 0, 0, 0, ts];
            let seq = [0, 0, 0, 0, 0, 0, 0, seq];
            [
                b"M0/".to_vec(),
                group(p),
                b"/".to_vec(),
                ts.to_vec(),
                seq.to_vec(),
            ]
            .concat()
        };
        let keys: Vec<Vec<u8>> = store.all().into_iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(
            keys,
            vec![
                state_key(1),
                state_key(2),
                msg_key(1, 200, 1),
                msg_key(2, 10, 0)
            ]
        );

        // Message values are the object-coded input tuples.
        let codec = ObjectCodec::new();
        let msg = store.get(&msg_key(1, 200, 1)).unwrap();
        assert_eq!(
            msg[..],
            codec.encode(&Value::Array(input[2].clone())).unwrap()[..]
        );
        // State bundle: [accumulators, next seq, max event time].
        let state = codec.decode(&store.get(&state_key(1)).unwrap()).unwrap();
        let Value::Array(parts) = state else {
            panic!("state bundle is an array")
        };
        assert_eq!(parts[1..], [Value::Long(2), Value::Long(200)]);
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
