//! Hopping/tumbling streaming aggregate operator (§3.6, §4.3).
//!
//! Event-time windows with watermark-driven emission:
//!
//! * a **tumbling** window of size `S` is the special case of a hopping
//!   window with `emit == retain == S`;
//! * a **hopping** window `HOP(ts, emit, retain, align)` opens a window
//!   every `emit` ms, each covering `retain` ms, with the first boundary
//!   shifted by `align`; `retain` need not be a multiple of `emit`;
//! * the watermark is the maximum event time seen; a window whose end has
//!   passed the watermark is finalized and emitted ("early results policy"
//!   — results go out as soon as the boundary condition is met, §3);
//! * tuples older than the oldest open window are discarded and counted as
//!   late (timeout expiration, §3).
//!
//! The `START`/`END` aggregates are overwritten with the exact window bounds
//! at emission. All per-window accumulators live in the KV store, keyed by
//! `(window start, group key)` in sort order so closed windows are found
//! with one range scan.
//!
//! `GroupWindow::None` (bounded relational aggregates) accumulates per key
//! and emits everything at [`Operator::flush`].

use crate::error::Result;
use crate::expr::CompiledExpr;
use crate::ops::acc::{accs_from_value, accs_to_value, Acc, CompiledAgg};
use crate::ops::{decode_i64, encode_i64, encode_once, OpCtx, Operator, Side};
use crate::tuple::Tuple;
use samzasql_kafka::Bytes;
use samzasql_planner::GroupWindow;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::Value;
use std::collections::BTreeMap;

/// Per-batch cache of window accumulators: decoded accs plus a dirty flag.
/// Keys repeat heavily within a batch (same group, adjacent timestamps), so
/// caching saves a store get + object decode per repeat; dirty entries are
/// written back before any closed-window range scan so the store view stays
/// exactly what the per-tuple execution would have produced.
type AccCache = BTreeMap<Vec<u8>, (Vec<Acc>, bool)>;

/// Streaming GROUP BY aggregate operator.
pub struct WindowAggOp {
    op_id: String,
    window: GroupWindow,
    keys: Vec<CompiledExpr>,
    aggs: Vec<CompiledAgg>,
    codec: ObjectCodec,
    /// Encode buffer reused for every store value.
    buf: Vec<u8>,
}

impl WindowAggOp {
    pub fn new(
        op_id: impl Into<String>,
        window: GroupWindow,
        keys: Vec<CompiledExpr>,
        aggs: Vec<CompiledAgg>,
    ) -> Self {
        WindowAggOp {
            op_id: op_id.into(),
            window,
            keys,
            aggs,
            codec: ObjectCodec::new(),
            buf: Vec::new(),
        }
    }

    /// (emit, retain, align, ts_index) of the window, tumble normalized.
    fn params(&self) -> Option<(i64, i64, i64, usize)> {
        match &self.window {
            GroupWindow::Tumble { ts_index, size_ms } => Some((*size_ms, *size_ms, 0, *ts_index)),
            GroupWindow::Hop {
                ts_index,
                emit_ms,
                retain_ms,
                align_ms,
            } => Some((*emit_ms, *retain_ms, *align_ms, *ts_index)),
            GroupWindow::None => None,
        }
    }

    fn window_prefix(&self) -> Vec<u8> {
        format!("W{}/", self.op_id).into_bytes()
    }

    fn window_key(&self, start: i64, group: &[u8]) -> Vec<u8> {
        let mut k = self.window_prefix();
        k.extend_from_slice(&encode_i64(start));
        k.push(b'/');
        k.extend_from_slice(group);
        k
    }

    fn group_key(&self, tuple: &Tuple) -> Result<(Vec<u8>, Vec<Value>)> {
        let vals: Vec<Value> = self.keys.iter().map(|e| e.eval(tuple)).collect();
        Ok((
            self.codec.encode(&Value::Array(vals.clone()))?.to_vec(),
            vals,
        ))
    }

    fn wm_key(&self) -> Vec<u8> {
        format!("wm{}", self.op_id).into_bytes()
    }

    /// Window starts whose window `[start, start+retain)` contains `ts`.
    fn window_starts(ts: i64, emit: i64, retain: i64, align: i64) -> Vec<i64> {
        // start = align + k*emit with start in (ts - retain, ts].
        let lo = ts - retain + 1;
        let k_lo = (lo - align).div_euclid(emit) + i64::from((lo - align).rem_euclid(emit) != 0);
        let k_hi = (ts - align).div_euclid(emit);
        (k_lo..=k_hi).map(|k| align + k * emit).collect()
    }

    /// Write dirty cached accumulators back to the store.
    fn flush_cache(&mut self, cache: &mut AccCache, ctx: &mut OpCtx<'_>) -> Result<()> {
        for (k, (accs, dirty)) in cache.iter_mut() {
            if *dirty {
                let encoded = encode_once(&self.codec, &accs_to_value(accs), &mut self.buf)?;
                ctx.store()?.put(k, encoded)?;
                *dirty = false;
            }
        }
        Ok(())
    }

    /// Finalize windows whose end passed the watermark; emit key+agg rows
    /// into `out`. Emitted keys are deleted from the store and dropped from
    /// `cache` (a re-opened window must start from a fresh accumulator).
    fn emit_closed(
        &self,
        watermark: i64,
        retain: i64,
        cache: &mut AccCache,
        out: &mut Vec<Tuple>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        let store = ctx.store()?;
        let prefix = self.window_prefix();
        // Closed ⇔ start + retain <= watermark ⇔ start <= watermark - retain.
        let boundary = watermark - retain;
        let mut hi = prefix.clone();
        hi.extend_from_slice(&encode_i64(boundary));
        hi.push(b'/' + 1); // one past any key with start == boundary
        let closed = store.range(&prefix, &hi);
        for (k, v) in closed {
            let start = decode_i64(&k[prefix.len()..]);
            let group_bytes = &k[prefix.len() + 9..];
            let group_vals = match self.codec.decode(group_bytes)? {
                Value::Array(items) => items,
                _ => Vec::new(),
            };
            let mut accs = accs_from_value(&self.codec.decode(&v)?)?;
            // Exact window bounds for START/END (§3.6).
            for acc in accs.iter_mut() {
                match acc {
                    Acc::Start(s) => *s = Some(start),
                    Acc::End(e) => *e = Some(start + retain),
                    _ => {}
                }
            }
            let mut row = group_vals;
            for (spec, acc) in self.aggs.iter().zip(&accs) {
                row.push(spec.result(acc));
            }
            out.push(row);
            store.delete(&k)?;
            cache.remove(&k[..]);
        }
        Ok(())
    }
}

impl Operator for WindowAggOp {
    fn process_batch(
        &mut self,
        _side: Side,
        input: &mut Vec<Tuple>,
        out: &mut Vec<Tuple>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        let Some((emit, retain, align, ts_index)) = self.params() else {
            // Plain relational aggregate: accumulate per key in memory and
            // write each distinct key once per batch; emit at flush.
            let mut groups: BTreeMap<Vec<u8>, Vec<Acc>> = BTreeMap::new();
            for tuple in input.drain(..) {
                let (group, _) = self.group_key(&tuple)?;
                let mut key = format!("K{}/", self.op_id).into_bytes();
                key.extend_from_slice(&group);
                if !groups.contains_key(&key) {
                    let store = ctx.store()?;
                    let accs: Vec<Acc> = match store.get(&key) {
                        Some(bytes) => accs_from_value(&self.codec.decode(&bytes)?)?,
                        None => self.aggs.iter().map(|a| a.init()).collect(),
                    };
                    groups.insert(key.clone(), accs);
                }
                let accs = groups.get_mut(&key).expect("just inserted");
                for (spec, acc) in self.aggs.iter().zip(accs.iter_mut()) {
                    spec.add(acc, &tuple);
                }
            }
            for (key, accs) in &groups {
                let encoded = encode_once(&self.codec, &accs_to_value(accs), &mut self.buf)?;
                ctx.store()?.put(key, encoded)?;
            }
            return Ok(());
        };

        // Watermark read once per batch, written back once if it advanced.
        let wm_key = self.wm_key();
        let entry_watermark: i64 = ctx
            .store()?
            .get(&wm_key)
            .map(|b| i64::from_le_bytes(b.as_ref().try_into().unwrap_or([0; 8])))
            .unwrap_or(i64::MIN);
        let mut watermark = entry_watermark;
        let mut cache: AccCache = AccCache::new();

        for tuple in input.drain(..) {
            let ts = tuple
                .get(ts_index)
                .and_then(|v| v.as_i64())
                .ok_or_else(|| {
                    crate::error::CoreError::Operator("window aggregate: NULL timestamp".into())
                })?;
            // Late-arrival policy: the newest window containing ts starts at
            // or before ts and ends by ts + retain. If that end has already
            // passed the watermark (ts <= watermark - retain), every window
            // this tuple belongs to is closed — discard it (§3 timeout
            // expiration).
            if watermark != i64::MIN && ts <= watermark - retain {
                *ctx.late_discards += 1;
                continue;
            }
            let (group, _) = self.group_key(&tuple)?;

            // Fold the tuple into every window containing it.
            for start in Self::window_starts(ts, emit, retain, align) {
                let wk = self.window_key(start, &group);
                if !cache.contains_key(&wk) {
                    let store = ctx.store()?;
                    let accs: Vec<Acc> = match store.get(&wk) {
                        Some(bytes) => accs_from_value(&self.codec.decode(&bytes)?)?,
                        None => self.aggs.iter().map(|a| a.init()).collect(),
                    };
                    cache.insert(wk.clone(), (accs, false));
                }
                let entry = cache.get_mut(&wk).expect("just inserted");
                for (spec, acc) in self.aggs.iter().zip(entry.0.iter_mut()) {
                    spec.add(acc, &tuple);
                }
                entry.1 = true;
            }

            // Advance the watermark and emit any closed windows.
            if ts > watermark {
                watermark = ts;
                self.flush_cache(&mut cache, ctx)?;
                self.emit_closed(ts, retain, &mut cache, out, ctx)?;
            }
        }

        self.flush_cache(&mut cache, ctx)?;
        if watermark > entry_watermark {
            ctx.store()?
                .put(&wm_key, Bytes::copy_from_slice(&watermark.to_le_bytes()))?;
        }
        Ok(())
    }

    fn flush(&mut self, out: &mut Vec<Tuple>, ctx: &mut OpCtx<'_>) -> Result<()> {
        match self.params() {
            Some((_, retain, _, _)) => {
                // End of bounded input: close every remaining window.
                self.emit_closed(i64::MAX, retain, &mut AccCache::new(), out, ctx)
            }
            None => {
                // Relational aggregate: emit all groups, in key order.
                let prefix = format!("K{}/", self.op_id).into_bytes();
                let mut hi = prefix.clone();
                hi.push(0xff);
                let store = ctx.store()?;
                let entries = store.range(&prefix, &hi);
                for (k, v) in entries {
                    let group_vals = match self.codec.decode(&k[prefix.len()..])? {
                        Value::Array(items) => items,
                        _ => Vec::new(),
                    };
                    let accs = accs_from_value(&self.codec.decode(&v)?)?;
                    let mut row = group_vals;
                    for (spec, acc) in self.aggs.iter().zip(&accs) {
                        row.push(spec.result(acc));
                    }
                    out.push(row);
                    store.delete(&k)?;
                }
                Ok(())
            }
        }
    }

    fn name(&self) -> &'static str {
        "WindowAggOp"
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

    fn agg(func: AggFunc, arg: Option<usize>) -> CompiledAgg {
        CompiledAgg::new(
            &AggCall {
                func,
                arg: arg.map(|i| {
                    ScalarExpr::input(
                        i,
                        if i == 0 {
                            Schema::Timestamp
                        } else {
                            Schema::Int
                        },
                    )
                }),
                distinct: false,
                output_name: "a".into(),
            },
            &UdafRegistry::new(),
        )
        .unwrap()
    }

    fn tup(ts: i64, product: i32, units: i32) -> Tuple {
        vec![Value::Timestamp(ts), Value::Int(product), Value::Int(units)]
    }

    fn run(op: &mut WindowAggOp, store: &mut KeyValueStore, tuples: Vec<Tuple>) -> Vec<Tuple> {
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

    fn flush(op: &mut WindowAggOp, store: &mut KeyValueStore) -> Vec<Tuple> {
        let mut late = 0;
        let mut ctx = OpCtx {
            store: Some(store),
            late_discards: &mut late,
        };
        let mut out = Vec::new();
        op.flush(&mut out, &mut ctx).unwrap();
        out
    }

    #[test]
    fn window_start_computation() {
        // Tumble 10: ts=25 ⇒ [20,30).
        assert_eq!(WindowAggOp::window_starts(25, 10, 10, 0), vec![20]);
        // Hop emit=5 retain=10: ts=12 ⇒ starts 5 and 10.
        assert_eq!(WindowAggOp::window_starts(12, 5, 10, 0), vec![5, 10]);
        // Alignment shifts boundaries: align=3, emit=10, retain=10, ts=12 ⇒ start 3.
        assert_eq!(WindowAggOp::window_starts(12, 10, 10, 3), vec![3]);
        // Retain not a multiple of emit (§3.6): emit=4, retain=10, ts=11 ⇒
        // starts in (1, 11] stepping 4: {4, 8}.
        assert_eq!(WindowAggOp::window_starts(11, 4, 10, 0), vec![4, 8]);
    }

    #[test]
    fn tumbling_counts_per_hour() {
        // Listing 4 shape: COUNT(*) per 1h tumble (scaled to 10ms windows).
        let mut store = KeyValueStore::ephemeral("s");
        let mut op = WindowAggOp::new(
            "0",
            GroupWindow::Tumble {
                ts_index: 0,
                size_ms: 10,
            },
            vec![],
            vec![agg(AggFunc::Start, Some(0)), agg(AggFunc::CountStar, None)],
        );
        let out = run(
            &mut op,
            &mut store,
            vec![tup(1, 1, 1), tup(5, 1, 1), tup(12, 1, 1), tup(25, 1, 1)],
        );
        // Watermark 12 closes [0,10) → (START=0, COUNT=2); wm 25 closes [10,20).
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![Value::Timestamp(0), Value::Long(2)]);
        assert_eq!(out[1], vec![Value::Timestamp(10), Value::Long(1)]);
        // Flush closes the open [20,30) window.
        let rest = flush(&mut op, &mut store);
        assert_eq!(rest, vec![vec![Value::Timestamp(20), Value::Long(1)]]);
    }

    #[test]
    fn group_keys_partition_windows() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut op = WindowAggOp::new(
            "0",
            GroupWindow::Tumble {
                ts_index: 0,
                size_ms: 10,
            },
            vec![compile(&ScalarExpr::input(1, Schema::Int))],
            vec![agg(AggFunc::Sum, Some(2))],
        );
        run(
            &mut op,
            &mut store,
            vec![tup(1, 1, 10), tup(2, 2, 20), tup(3, 1, 5)],
        );
        let mut rows = flush(&mut op, &mut store);
        rows.sort_by_key(|r| r[0].as_i64());
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Long(15)],
                vec![Value::Int(2), Value::Long(20)],
            ]
        );
    }

    #[test]
    fn hopping_window_emits_overlapping_aggregates() {
        // emit=5, retain=10: each tuple lands in two windows.
        let mut store = KeyValueStore::ephemeral("s");
        let mut op = WindowAggOp::new(
            "0",
            GroupWindow::Hop {
                ts_index: 0,
                emit_ms: 5,
                retain_ms: 10,
                align_ms: 0,
            },
            vec![],
            vec![
                agg(AggFunc::Start, Some(0)),
                agg(AggFunc::End, Some(0)),
                agg(AggFunc::CountStar, None),
            ],
        );
        // Window [-5,5) closes while processing (watermark reaches 7); the
        // remaining two close at flush.
        let mut rows = run(&mut op, &mut store, vec![tup(2, 1, 1), tup(7, 1, 1)]);
        rows.extend(flush(&mut op, &mut store));
        rows.sort_by_key(|r| r[0].as_i64());
        // Windows: [-5,5) has tuple@2; [0,10) has both; [5,15) has tuple@7.
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            vec![Value::Timestamp(-5), Value::Timestamp(5), Value::Long(1)]
        );
        assert_eq!(
            rows[1],
            vec![Value::Timestamp(0), Value::Timestamp(10), Value::Long(2)]
        );
        assert_eq!(
            rows[2],
            vec![Value::Timestamp(5), Value::Timestamp(15), Value::Long(1)]
        );
    }

    #[test]
    fn late_tuples_discarded() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut op = WindowAggOp::new(
            "0",
            GroupWindow::Tumble {
                ts_index: 0,
                size_ms: 10,
            },
            vec![],
            vec![agg(AggFunc::CountStar, None)],
        );
        let mut late = 0;
        let mut ctx = OpCtx {
            store: Some(&mut store),
            late_discards: &mut late,
        };
        let mut out = Vec::new();
        // Two separate batches: the late tuple arrives after the watermark
        // has been persisted by the first batch.
        op.process_batch(Side::Single, &mut vec![tup(100, 1, 1)], &mut out, &mut ctx)
            .unwrap();
        op.process_batch(Side::Single, &mut vec![tup(50, 1, 1)], &mut out, &mut ctx)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(
            late, 1,
            "tuple for a closed window is discarded (§3 timeout policy)"
        );
    }

    #[test]
    fn relational_aggregate_flushes_groups() {
        let mut store = KeyValueStore::ephemeral("s");
        let mut op = WindowAggOp::new(
            "0",
            GroupWindow::None,
            vec![compile(&ScalarExpr::input(1, Schema::Int))],
            vec![agg(AggFunc::CountStar, None), agg(AggFunc::Sum, Some(2))],
        );
        let streamed = run(
            &mut op,
            &mut store,
            vec![tup(1, 7, 10), tup(2, 7, 20), tup(3, 9, 1)],
        );
        assert!(streamed.is_empty(), "relational agg only emits at flush");
        let mut rows = flush(&mut op, &mut store);
        rows.sort_by_key(|r| r[0].as_i64());
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(7), Value::Long(2), Value::Long(30)],
                vec![Value::Int(9), Value::Long(1), Value::Long(1)],
            ]
        );
    }
}
