//! The message router: "a DAG of streaming SQL operators responsible for
//! flowing messages through query operators" (§4.2).
//!
//! The router is generated from the physical plan during task initialization
//! (step two of two-step planning). Scans are the entry points (one per
//! input topic); the stream-insert operator is the sink; everything in
//! between is an [`Operator`] node with a parent edge (and a [`Side`] tag so
//! binary joins know which input a tuple arrived on).

use crate::error::{CoreError, Result};
use crate::expr::compile;
use crate::ops::acc::CompiledAgg;
use crate::ops::filter::FilterOp;
use crate::ops::insert::{EncodedOutput, InsertOp};
use crate::ops::join_relation::StreamToRelationJoinOp;
use crate::ops::join_stream::StreamToStreamJoinOp;
use crate::ops::project::ProjectOp;
use crate::ops::scan::ScanOp;
use crate::ops::sort::SortOp;
use crate::ops::window_agg::WindowAggOp;
use crate::ops::window_sliding::SlidingWindowOp;
use crate::ops::{OpCtx, Operator, Side};
use crate::profile::{
    EntryProfile, EntryStats, NodeProfile, NodeStats, PlanBinding, RouterProfile, RouterProfiler,
};
use crate::tuple::Tuple;
use crate::udaf::UdafRegistry;
use samzasql_kafka::Bytes;
use samzasql_planner::{PhysicalPlan, PlannedQuery, ScalarExpr};

use samzasql_samza::KeyValueStore;
use samzasql_serde::serde_api::build_serde;
use samzasql_serde::{Schema, SerdeFormat};

/// Everything the router needs to instantiate a query stage's operators.
///
/// For ordinary jobs this is derived 1:1 from a [`PlannedQuery`]; repartition
/// splits (§7) produce one spec per stage with modified physical plans.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub sql: String,
    pub physical: PhysicalPlan,
    pub output_names: Vec<String>,
    pub output_types: Vec<Schema>,
    pub order_by: Vec<(ScalarExpr, bool)>,
    pub limit: Option<u64>,
    pub is_stream: bool,
    /// Column keying output messages (repartition stages).
    pub output_key: Option<usize>,
    /// §7 future-work item 5, implemented: skip the `AvroToArray` /
    /// `ArrayToAvro` steps by decoding/encoding array tuples directly
    /// ("SamzaSQL Data API" codegen). Off by default — the prototype path.
    pub direct_data_api: bool,
}

impl QuerySpec {
    /// Derive the spec of a single-stage job from a planned query.
    pub fn from_planned(planned: &PlannedQuery) -> QuerySpec {
        QuerySpec {
            sql: planned.sql.clone(),
            physical: planned.physical.clone(),
            output_names: planned.output_names.clone(),
            output_types: planned.output_types.clone(),
            order_by: planned.order_by.clone(),
            limit: planned.limit,
            is_stream: planned.is_stream,
            output_key: None,
            direct_data_api: false,
        }
    }

    /// The output record schema.
    pub fn output_schema(&self, record_name: &str) -> Schema {
        Schema::Record {
            name: record_name.to_string(),
            fields: self
                .output_names
                .iter()
                .zip(&self.output_types)
                .map(|(n, t)| samzasql_serde::Field {
                    name: n.clone(),
                    schema: t.clone(),
                })
                .collect(),
        }
    }
}

/// Destination of a tuple: an operator node input, or the sink.
type Dest = Option<(usize, Side)>;

struct Entry {
    topic: String,
    scan: ScanOp,
    dest: Dest,
    /// Tuples from this entry feed a relation cache (tombstones apply).
    is_relation: bool,
}

/// The generated operator DAG for one task.
///
/// Batches flow through the DAG in *reusable* buffers: every node owns a
/// pair of input buffers (slot 0 for `Single`/`Left` tuples, slot 1 for
/// `Right`), and one shared scratch buffer ping-pongs through the
/// decreasing-index pass of [`MessageRouter::route_batch`]. Steady state
/// allocates nothing per tuple for stateless pipelines — buffers keep their
/// capacity across batches.
pub struct MessageRouter {
    entries: Vec<Entry>,
    nodes: Vec<Box<dyn Operator>>,
    parents: Vec<Dest>,
    insert: InsertOp,
    late_discards: u64,
    direct_data_api: bool,
    /// Per-node input buffers: slot 0 = `Single`/`Left`, slot 1 = `Right`.
    inbufs: Vec<[Vec<Tuple>; 2]>,
    /// The exact [`Side`] last pushed into each slot (joins need `Left` vs
    /// `Single` delivered precisely as the plan tagged the edge).
    in_sides: Vec<[Side; 2]>,
    /// Shared output staging buffer, ping-ponged between node invocations.
    scratch: Vec<Tuple>,
    /// Tuples awaiting sink encoding.
    sink: Vec<Tuple>,
    /// Physical-plan pre-order → node/entry mapping, recorded during
    /// construction (powers EXPLAIN ANALYZE; see [`crate::profile`]).
    bindings: Vec<PlanBinding>,
    /// The bounded-query sort node, if one was added above the plan root.
    sort_node: Option<usize>,
    /// Per-operator instruments; `None` until profiling is enabled.
    profiler: Option<RouterProfiler>,
}

impl MessageRouter {
    /// Generate the router from a planned query (operator + router
    /// generation of Figure 3's second step).
    pub fn build(planned: &PlannedQuery, udafs: &UdafRegistry) -> Result<MessageRouter> {
        Self::build_spec(&QuerySpec::from_planned(planned), udafs)
    }

    /// Generate the router from a stage spec.
    pub fn build_spec(planned: &QuerySpec, udafs: &UdafRegistry) -> Result<MessageRouter> {
        let mut insert = InsertOp::new(
            build_serde(SerdeFormat::Avro, planned.output_schema("Output")),
            planned.output_names.clone(),
            output_ts_index(&planned.output_names, &planned.output_types),
        );
        if let Some(k) = planned.output_key {
            insert = insert.with_key(k);
        }
        if planned.direct_data_api {
            insert = insert.with_direct(samzasql_serde::avro::AvroCodec::new(
                planned.output_schema("Output"),
            ));
        }
        let mut router = MessageRouter {
            entries: Vec::new(),
            nodes: Vec::new(),
            parents: Vec::new(),
            insert,
            late_discards: 0,
            direct_data_api: false,
            inbufs: Vec::new(),
            in_sides: Vec::new(),
            scratch: Vec::new(),
            sink: Vec::new(),
            bindings: Vec::new(),
            sort_node: None,
            profiler: None,
        };
        // Bounded queries may carry ORDER BY / LIMIT: a sort node at the root.
        let root_dest: Dest = if !planned.order_by.is_empty() || planned.limit.is_some() {
            let keys = planned
                .order_by
                .iter()
                .map(|(e, asc)| (compile(e), *asc))
                .collect();
            let sort = router.add_node(Box::new(SortOp::new(keys, planned.limit)), None);
            router.sort_node = Some(sort);
            Some((sort, Side::Single))
        } else {
            None
        };
        router.direct_data_api = planned.direct_data_api;
        router.build_plan(&planned.physical, root_dest, udafs, 0)?;
        Ok(router)
    }

    fn add_node(&mut self, op: Box<dyn Operator>, parent: Dest) -> usize {
        self.nodes.push(op);
        self.parents.push(parent);
        self.inbufs.push([Vec::new(), Vec::new()]);
        self.in_sides.push([Side::Single, Side::Right]);
        self.nodes.len() - 1
    }

    /// Record that the plan node just visited is backed by operator `id`.
    fn bind_node(&mut self, id: usize) {
        self.bindings.push(PlanBinding::Node {
            node: id,
            relation_entry: None,
        });
    }

    /// Attach per-operator profiling instruments, timed against `clock`.
    /// Every subsequent `process_batch` records rows-in/rows-out/batches
    /// and busy time per node, and every scan entry records decoded rows,
    /// bytes, and tombstones. Idempotent (re-enabling resets the counters).
    pub fn enable_profiling(&mut self, clock: std::sync::Arc<dyn samzasql_obs::TimeSource>) {
        self.profiler = Some(RouterProfiler::new(
            clock,
            self.nodes.len(),
            self.entries.len(),
        ));
    }

    /// Mint the profiler's instruments in a metrics registry, replacing
    /// its unregistered ones: node series under `core.operator.*` labeled
    /// `op=<name>#<node index>` (the names [`profile`](Self::profile)
    /// reports), entry series under `core.scan.*` labeled `topic=<topic>`,
    /// all carrying the `base` labels (conventionally `job`/`task`). No-op
    /// until [`enable_profiling`](Self::enable_profiling) has run.
    pub fn register_profile(
        &mut self,
        registry: &samzasql_obs::MetricsRegistry,
        base: &[(&str, &str)],
    ) {
        let Some(p) = &mut self.profiler else { return };
        for (i, (node, live)) in self.nodes.iter().zip(&mut p.nodes).enumerate() {
            let op = format!("{}#{}", node.name(), i);
            *live = NodeProfile::new(registry, &[base, &[("op", op.as_str())]].concat());
        }
        for (entry, live) in self.entries.iter().zip(&mut p.entries) {
            let labels = [base, &[("topic", entry.topic.as_str())]].concat();
            *live = EntryProfile::new(registry, &labels);
        }
    }

    /// Snapshot the profile (None until profiling is enabled).
    pub fn profile(&self) -> Option<RouterProfile> {
        let p = self.profiler.as_ref()?;
        Some(RouterProfile {
            nodes: p
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| NodeStats {
                    name: format!("{}#{}", self.nodes[i].name(), i),
                    rows_in: n.rows_in.get(),
                    rows_out: n.rows_out.get(),
                    batches: n.batches.get(),
                    busy_ns: n.busy_ns.get(),
                })
                .collect(),
            entries: p
                .entries
                .iter()
                .enumerate()
                .map(|(i, e)| EntryStats {
                    topic: self.entries[i].topic.clone(),
                    rows: e.rows.get(),
                    bytes: e.bytes.get(),
                    tombstones: e.tombstones.get(),
                })
                .collect(),
            bindings: self.bindings.clone(),
            sort_node: self.sort_node,
        })
    }

    /// Add `plan`'s operators, feeding `dest`. `width` is the widest row
    /// the operators above `plan` produce; each scan makes room for the
    /// widest row on its path to the sink.
    fn build_plan(
        &mut self,
        plan: &PhysicalPlan,
        dest: Dest,
        udafs: &UdafRegistry,
        width: usize,
    ) -> Result<()> {
        let op_id = format!("{}", self.nodes.len());
        let width = width.max(plan.output_types().len());
        match plan {
            PhysicalPlan::Scan {
                topic,
                types,
                format,
                ..
            } => {
                let schema = Schema::Record {
                    name: "Row".into(),
                    fields: plan
                        .output_names()
                        .iter()
                        .zip(types)
                        .map(|(n, t)| samzasql_serde::Field {
                            name: n.clone(),
                            schema: t.clone(),
                        })
                        .collect(),
                };
                let scan = if self.direct_data_api && *format == SerdeFormat::Avro {
                    ScanOp::direct(samzasql_serde::avro::AvroCodec::new(schema), types.len())
                } else {
                    ScanOp::new(build_serde(*format, schema), types.len()).with_width(width)
                };
                self.entries.push(Entry {
                    topic: topic.clone(),
                    scan,
                    dest,
                    is_relation: false,
                });
                self.bindings
                    .push(PlanBinding::Entry(self.entries.len() - 1));
                Ok(())
            }
            PhysicalPlan::Filter { input, predicate } => {
                let id = self.add_node(Box::new(FilterOp::new(compile(predicate))), dest);
                self.bind_node(id);
                self.build_plan(input, Some((id, Side::Single)), udafs, width)
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                let compiled = exprs.iter().map(compile).collect();
                let id = self.add_node(Box::new(ProjectOp::new(compiled)), dest);
                self.bind_node(id);
                self.build_plan(input, Some((id, Side::Single)), udafs, width)
            }
            PhysicalPlan::WindowAggregate {
                input,
                window,
                keys,
                aggs,
                ..
            } => {
                let compiled_keys = keys.iter().map(compile).collect();
                let compiled_aggs: Vec<CompiledAgg> = aggs
                    .iter()
                    .map(|a| CompiledAgg::new(a, udafs))
                    .collect::<Result<_>>()?;
                let id = self.add_node(
                    Box::new(WindowAggOp::new(
                        op_id,
                        window.clone(),
                        compiled_keys,
                        compiled_aggs,
                    )),
                    dest,
                );
                self.bind_node(id);
                self.build_plan(input, Some((id, Side::Single)), udafs, width)
            }
            PhysicalPlan::SlidingWindow {
                input,
                partition_by,
                ts_index,
                range_ms,
                rows,
                aggs,
            } => {
                let compiled_keys = partition_by.iter().map(compile).collect();
                let compiled_aggs: Vec<CompiledAgg> = aggs
                    .iter()
                    .map(|a| CompiledAgg::new(a, udafs))
                    .collect::<Result<_>>()?;
                let id = self.add_node(
                    Box::new(SlidingWindowOp::new(
                        op_id,
                        compiled_keys,
                        *ts_index,
                        *range_ms,
                        *rows,
                        compiled_aggs,
                    )),
                    dest,
                );
                self.bind_node(id);
                self.build_plan(input, Some((id, Side::Single)), udafs, width)
            }
            PhysicalPlan::StreamToStreamJoin {
                left,
                right,
                kind,
                equi,
                time_bound,
                residual,
            } => {
                if equi.len() != 1 {
                    return Err(CoreError::Operator(
                        "stream-to-stream joins support exactly one equi key".into(),
                    ));
                }
                let (lk, rk) = equi[0];
                let left_types = left.output_types();
                let right_types = right.output_types();
                let op = StreamToStreamJoinOp::new(
                    op_id,
                    *kind,
                    compile(&ScalarExpr::input(lk, left_types[lk].clone())),
                    compile(&ScalarExpr::input(rk, right_types[rk].clone())),
                    time_bound.left_ts,
                    time_bound.right_ts,
                    time_bound.lower_ms,
                    time_bound.upper_ms,
                    residual.as_ref().map(compile),
                )?;
                let id = self.add_node(Box::new(op), dest);
                self.bind_node(id);
                self.build_plan(left, Some((id, Side::Left)), udafs, width)?;
                self.build_plan(right, Some((id, Side::Right)), udafs, width)
            }
            PhysicalPlan::StreamToRelationJoin {
                stream,
                relation_topic,
                relation_names,
                relation_types,
                relation_key,
                equi,
                stream_is_left,
                kind,
                residual,
            } => {
                let (sk, _) = equi[0];
                let stream_types = stream.output_types();
                let op = StreamToRelationJoinOp::new(
                    op_id,
                    compile(&ScalarExpr::input(sk, stream_types[sk].clone())),
                    *relation_key,
                    relation_names.clone(),
                    *stream_is_left,
                    *kind,
                    residual.as_ref().map(compile),
                );
                let id = self.add_node(Box::new(op), dest);
                // Relation changelog entry (bootstrap stream).
                let rel_schema = Schema::Record {
                    name: "Relation".into(),
                    fields: relation_names
                        .iter()
                        .zip(relation_types)
                        .map(|(n, t)| samzasql_serde::Field {
                            name: n.clone(),
                            schema: t.clone(),
                        })
                        .collect(),
                };
                self.entries.push(Entry {
                    topic: relation_topic.clone(),
                    scan: ScanOp::new(
                        build_serde(SerdeFormat::Avro, rel_schema),
                        relation_types.len(),
                    ),
                    dest: Some((id, Side::Right)),
                    is_relation: true,
                });
                self.bindings.push(PlanBinding::Node {
                    node: id,
                    relation_entry: Some(self.entries.len() - 1),
                });
                self.build_plan(stream, Some((id, Side::Left)), udafs, width)
            }
            PhysicalPlan::Repartition { .. } => Err(CoreError::Operator(
                "repartition stages must be split into separate jobs before router \
                 generation (the shell does this)"
                    .into(),
            )),
        }
    }

    /// Route a batch of incoming messages from one topic through the DAG,
    /// appending encoded outputs for the job's output stream to `outputs`.
    ///
    /// All messages are decoded into the entry nodes' input buffers first,
    /// then the DAG runs once over whole batches ([`Self::run_dag`]). The
    /// one ordering hazard is a relation tombstone arriving mid-batch: any
    /// buffered work is drained *before* the cache delete so earlier stream
    /// tuples still probe the pre-delete relation state, exactly as the
    /// per-message path behaved.
    pub fn route_batch<'a>(
        &mut self,
        topic: &str,
        messages: impl IntoIterator<Item = (Option<&'a Bytes>, &'a Bytes)>,
        mut store: Option<&mut KeyValueStore>,
        outputs: &mut Vec<EncodedOutput>,
    ) -> Result<()> {
        let scanned = self.scan_messages(topic, messages, &mut store);
        // Scan counts reach the instruments once per batch, also when a
        // message failed to decode part-way through it.
        if let Some(p) = &mut self.profiler {
            p.flush_scan_tally();
        }
        scanned?;
        self.run_dag(&mut store)?;
        let mut sink = std::mem::take(&mut self.sink);
        let result = self.insert.encode_batch(&mut sink, outputs);
        self.sink = sink;
        result
    }

    /// Decode each message through every scan entry of `topic` into its
    /// destination buffer; relation tombstones are applied in order.
    fn scan_messages<'a>(
        &mut self,
        topic: &str,
        messages: impl IntoIterator<Item = (Option<&'a Bytes>, &'a Bytes)>,
        store: &mut Option<&mut KeyValueStore>,
    ) -> Result<()> {
        for (key, payload) in messages {
            for ei in 0..self.entries.len() {
                if self.entries[ei].topic != topic {
                    continue;
                }
                let dest = self.entries[ei].dest;
                let is_relation = self.entries[ei].is_relation;
                match self.entries[ei].scan.decode(payload)? {
                    Some(tuple) => {
                        if let Some(p) = &mut self.profiler {
                            let t = &mut p.scan_tally[ei];
                            t.rows += 1;
                            t.bytes += payload.len() as u64;
                        }
                        self.push_dest(dest, tuple)
                    }
                    None => {
                        if let Some(p) = &mut self.profiler {
                            p.scan_tally[ei].tombstones += 1;
                        }
                        // Tombstone: only meaningful for relation caches.
                        if is_relation {
                            if let (Some((node, side)), Some(k)) = (dest, key) {
                                // Drain buffered tuples so pre-tombstone
                                // probes see the pre-delete cache state.
                                self.run_dag(store)?;
                                let mut staged = std::mem::take(&mut self.scratch);
                                {
                                    let mut ctx = OpCtx {
                                        store: store.as_deref_mut(),
                                        late_discards: &mut self.late_discards,
                                    };
                                    self.nodes[node].on_tombstone(
                                        side,
                                        k,
                                        &mut staged,
                                        &mut ctx,
                                    )?;
                                }
                                let parent = self.parents[node];
                                self.dispatch(parent, &mut staged);
                                self.scratch = staged;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Route one incoming message through the DAG; returns encoded outputs
    /// for the job's output stream. Batch-of-one wrapper around
    /// [`Self::route_batch`] — also the reference path the batched pipeline
    /// is property-tested against.
    pub fn route(
        &mut self,
        topic: &str,
        key: Option<&Bytes>,
        payload: &Bytes,
        store: Option<&mut KeyValueStore>,
    ) -> Result<Vec<EncodedOutput>> {
        let mut outputs = Vec::new();
        self.route_batch(topic, std::iter::once((key, payload)), store, &mut outputs)?;
        Ok(outputs)
    }

    /// Deliver a freshly decoded tuple to its destination buffer.
    fn push_dest(&mut self, dest: Dest, tuple: Tuple) {
        match dest {
            None => self.sink.push(tuple),
            Some((node, side)) => {
                let slot = (side == Side::Right) as usize;
                self.in_sides[node][slot] = side;
                self.inbufs[node][slot].push(tuple);
            }
        }
    }

    /// Move a staged batch into its destination buffer (keeps `staged`'s
    /// allocation, leaving it empty for reuse).
    fn dispatch(&mut self, dest: Dest, staged: &mut Vec<Tuple>) {
        match dest {
            None => self.sink.append(staged),
            Some((node, side)) => {
                let slot = (side == Side::Right) as usize;
                self.in_sides[node][slot] = side;
                self.inbufs[node][slot].append(staged);
            }
        }
    }

    /// Run every buffered batch through the DAG.
    ///
    /// `build_plan` adds each operator before recursing into its inputs, so
    /// a child node always has a larger index than its parent — one pass in
    /// decreasing index order fully propagates every batch to the sink.
    fn run_dag(&mut self, store: &mut Option<&mut KeyValueStore>) -> Result<()> {
        for i in (0..self.nodes.len()).rev() {
            self.drain_node(i, store)?;
        }
        Ok(())
    }

    /// Process node `i`'s pending input buffers (if any), dispatching its
    /// output batch to the parent. Buffers are recycled: the drained input
    /// goes back into the slot and the staging buffer becomes the next
    /// scratch.
    fn drain_node(&mut self, i: usize, store: &mut Option<&mut KeyValueStore>) -> Result<()> {
        for slot in 0..2 {
            if self.inbufs[i][slot].is_empty() {
                continue;
            }
            let side = self.in_sides[i][slot];
            let mut input = std::mem::take(&mut self.inbufs[i][slot]);
            let mut staged = std::mem::take(&mut self.scratch);
            let rows_in = input.len() as u64;
            let start_ns = self.profiler.as_ref().map(|p| p.clock.now_nanos());
            {
                let mut ctx = OpCtx {
                    store: store.as_deref_mut(),
                    late_discards: &mut self.late_discards,
                };
                self.nodes[i].process_batch(side, &mut input, &mut staged, &mut ctx)?;
            }
            if let (Some(p), Some(start)) = (&self.profiler, start_ns) {
                let n = &p.nodes[i];
                n.rows_in.add(rows_in);
                n.rows_out.add(staged.len() as u64);
                n.batches.inc();
                n.busy_ns.add(p.clock.now_nanos().saturating_sub(start));
            }
            input.clear();
            self.inbufs[i][slot] = input;
            let parent = self.parents[i];
            self.dispatch(parent, &mut staged);
            self.scratch = staged;
        }
        Ok(())
    }

    /// End-of-input flush for bounded queries: flush every node child-first
    /// so flushed tuples still traverse their downstream operators.
    /// Appends encoded outputs to `outputs`.
    pub fn flush_into(
        &mut self,
        mut store: Option<&mut KeyValueStore>,
        outputs: &mut Vec<EncodedOutput>,
    ) -> Result<()> {
        for i in (0..self.nodes.len()).rev() {
            // Anything a child flushed into this node's buffers goes
            // through before the node itself flushes.
            self.drain_node(i, &mut store)?;
            let mut staged = std::mem::take(&mut self.scratch);
            let start_ns = self.profiler.as_ref().map(|p| p.clock.now_nanos());
            {
                let mut ctx = OpCtx {
                    store: store.as_deref_mut(),
                    late_discards: &mut self.late_discards,
                };
                self.nodes[i].flush(&mut staged, &mut ctx)?;
            }
            if let (Some(p), Some(start)) = (&self.profiler, start_ns) {
                let n = &p.nodes[i];
                n.rows_out.add(staged.len() as u64);
                n.busy_ns.add(p.clock.now_nanos().saturating_sub(start));
            }
            let parent = self.parents[i];
            self.dispatch(parent, &mut staged);
            self.scratch = staged;
        }
        let mut sink = std::mem::take(&mut self.sink);
        let result = self.insert.encode_batch(&mut sink, outputs);
        self.sink = sink;
        result
    }

    /// End-of-input flush returning the encoded outputs.
    pub fn flush(&mut self, store: Option<&mut KeyValueStore>) -> Result<Vec<EncodedOutput>> {
        let mut outputs = Vec::new();
        self.flush_into(store, &mut outputs)?;
        Ok(outputs)
    }

    /// Topics this router consumes.
    pub fn input_topics(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.topic.clone()).collect()
    }

    /// Tuples discarded as late so far.
    pub fn late_discards(&self) -> u64 {
        self.late_discards
    }

    /// Number of operator nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

impl std::fmt::Debug for MessageRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ops: Vec<&str> = self.nodes.iter().map(|n| n.name()).collect();
        f.debug_struct("MessageRouter")
            .field("entries", &self.input_topics())
            .field("nodes", &ops)
            .finish()
    }
}

/// Find the timestamp column in the output, preferring a `rowtime` name,
/// falling back to the first Timestamp-typed column.
fn output_ts_index(names: &[String], types: &[Schema]) -> Option<usize> {
    names
        .iter()
        .position(|n| n.eq_ignore_ascii_case("rowtime"))
        .or_else(|| types.iter().position(|t| *t == Schema::Timestamp))
}
