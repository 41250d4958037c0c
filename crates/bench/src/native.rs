//! Hand-written native Samza API implementations of the four evaluation
//! queries (§5.1) — the baselines SamzaSQL is compared against.
//!
//! The implementations follow the paper's description of what the native
//! jobs do differently:
//!
//! * The native jobs read Avro like Java **SpecificRecord** code: generated
//!   classes with positional field access, no per-decode field-name
//!   materialization ([`AvroCodec::decode_to_tuple`]). SamzaSQL's generic
//!   layer works on GenericRecord-style decoded values plus the
//!   array-conversion steps of Figure 4 — that asymmetry is the measured
//!   overhead.
//! * **Filter**: "directly reads from incoming Avro message and writes back
//!   the message into the output stream without any modification" — decode
//!   to test the predicate, then forward the *original payload bytes*.
//! * **Project**: "we create Avro messages directly from incoming Avro
//!   messages" — decode, build the projected record, encode; no
//!   array-tuple intermediate.
//! * **Join**: caches the Products relation in the KV store through the
//!   **Avro** serde (where SamzaSQL uses the Kryo-like object serde that
//!   profiling found >2× slower, §5.1), and probes it through the store's
//!   decoded-row cache, as SamzaSQL's join does: a relation key is decoded
//!   once until it changes.
//! * **Sliding window**: the same Algorithm-1 logic, hand-written over
//!   records, storing the already-encoded Avro payload bytes directly.
//!
//! Like the SQL insert operator, every native task encodes into one buffer
//! it reuses and copies each finished payload once, and shares its output
//! topic name with every envelope it sends, so neither path pays an
//! allocation the other does not.

use samzasql_kafka::Bytes;
use samzasql_samza::{
    IncomingMessageEnvelope, MessageCollector, OutgoingMessageEnvelope, Result, SamzaError,
    StreamTask, TaskContext, TaskCoordinator, TaskFactory,
};
use samzasql_serde::avro::AvroCodec;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::{Schema, Value};
use samzasql_workload::{orders_schema, products_schema};
use std::sync::Arc;

/// Store name used by the stateful native tasks.
pub const NATIVE_STORE: &str = "native-state";

/// Encode a positional record into the task's reused `buf`, then copy it
/// into one exact-size payload.
fn encode_payload(codec: &AvroCodec, buf: &mut Vec<u8>, fields: &[Value]) -> Result<Bytes> {
    buf.clear();
    codec.encode_tuple_into(fields, buf)?;
    Ok(Bytes::copy_from_slice(buf))
}

// --------------------------------------------------------------- filter

/// `SELECT STREAM * FROM Orders WHERE units > 50`, native API.
pub struct NativeFilterTask {
    codec: AvroCodec,
    output: Arc<str>,
}

impl NativeFilterTask {
    pub fn new(output: &str) -> Self {
        NativeFilterTask {
            codec: AvroCodec::new(orders_schema()),
            output: output.into(),
        }
    }
}

impl StreamTask for NativeFilterTask {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        _ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        // SpecificRecord-style read: positional fields, no name lookups.
        let record = self.codec.decode_to_tuple(&envelope.payload)?;
        let units = record[3].as_i64().unwrap_or(0);
        if units > 50 {
            // Forward the incoming Avro payload unchanged.
            collector.send(
                OutgoingMessageEnvelope::new(Arc::clone(&self.output), envelope.payload.clone())
                    .at(envelope.timestamp),
            );
        }
        Ok(())
    }
}

// -------------------------------------------------------------- project

/// `SELECT STREAM rowtime, productId, units FROM Orders`, native API.
pub struct NativeProjectTask {
    in_codec: AvroCodec,
    out_codec: AvroCodec,
    output: Arc<str>,
    buf: Vec<u8>,
}

/// Output schema of the projection.
pub fn project_output_schema() -> Schema {
    Schema::record(
        "OrdersProjected",
        vec![
            ("rowtime", Schema::Timestamp),
            ("productId", Schema::Int),
            ("units", Schema::Int),
        ],
    )
}

impl NativeProjectTask {
    pub fn new(output: &str) -> Self {
        NativeProjectTask {
            in_codec: AvroCodec::new(orders_schema()),
            out_codec: AvroCodec::new(project_output_schema()),
            output: output.into(),
            buf: Vec::new(),
        }
    }
}

impl StreamTask for NativeProjectTask {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        _ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let record = self.in_codec.decode_to_tuple(&envelope.payload)?;
        // Build the projected Avro record directly from the decoded fields
        // (SpecificRecord getters → SpecificRecord constructor).
        let payload = encode_payload(
            &self.out_codec,
            &mut self.buf,
            &[record[0].clone(), record[1].clone(), record[3].clone()],
        )?;
        collector.send(
            OutgoingMessageEnvelope::new(Arc::clone(&self.output), payload).at(envelope.timestamp),
        );
        Ok(())
    }
}

// ----------------------------------------------------------------- join

/// The §5.1 join query, native API: bootstrap Products into the KV store
/// with the **Avro** value serde, probe per order.
pub struct NativeJoinTask {
    orders_codec: AvroCodec,
    products_codec: AvroCodec,
    out_codec: AvroCodec,
    key_codec: ObjectCodec,
    products_topic: String,
    output: Arc<str>,
    buf: Vec<u8>,
    /// Store key buffer, reused for every product key.
    key: Vec<u8>,
}

/// Output schema of the join.
pub fn join_output_schema() -> Schema {
    Schema::record(
        "OrdersWithSupplier",
        vec![
            ("rowtime", Schema::Timestamp),
            ("orderId", Schema::Long),
            ("productId", Schema::Int),
            ("units", Schema::Int),
            ("supplierId", Schema::Int),
        ],
    )
}

impl NativeJoinTask {
    pub fn new(products_topic: &str, output: &str) -> Self {
        NativeJoinTask {
            orders_codec: AvroCodec::new(orders_schema()),
            products_codec: AvroCodec::new(products_schema()),
            out_codec: AvroCodec::new(join_output_schema()),
            key_codec: ObjectCodec::new(),
            products_topic: products_topic.to_string(),
            output: output.into(),
            buf: Vec::new(),
            key: Vec::new(),
        }
    }

    /// Point the key buffer at the product keyed by `id`.
    fn set_key(&mut self, id: &Value) -> Result<()> {
        self.key.clear();
        self.key_codec
            .encode_into(id, &mut self.key)
            .map_err(SamzaError::Serde)
    }
}

impl StreamTask for NativeJoinTask {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        if envelope.tp.topic == self.products_topic {
            // Relation side (bootstrap): cache product rows as Avro bytes.
            if envelope.payload.is_empty() {
                if let Some(k) = &envelope.key {
                    ctx.store_mut(NATIVE_STORE)?.delete(k)?;
                }
                return Ok(());
            }
            let product = self.products_codec.decode_to_tuple(&envelope.payload)?;
            self.set_key(&product[0])?;
            // Store the incoming Avro payload directly — no re-encode.
            ctx.store_mut(NATIVE_STORE)?
                .put(&self.key, envelope.payload.clone())?;
            return Ok(());
        }
        // Stream side: decode the order, probe the cache (Avro deserialize
        // when the product's row is not decoded yet).
        let order = self.orders_codec.decode_to_tuple(&envelope.payload)?;
        self.set_key(&order[1])?;
        let Some(product) = ctx
            .store_mut(NATIVE_STORE)?
            .get_decoded(&self.key, |bytes| {
                self.products_codec.decode_to_tuple(bytes)
            })?
        else {
            return Ok(());
        };
        let payload = encode_payload(
            &self.out_codec,
            &mut self.buf,
            &[
                order[0].clone(),
                order[2].clone(),
                order[1].clone(),
                order[3].clone(),
                product[2].clone(),
            ],
        )?;
        collector.send(
            OutgoingMessageEnvelope::new(Arc::clone(&self.output), payload).at(envelope.timestamp),
        );
        Ok(())
    }
}

// ------------------------------------------------------- sliding window

/// The §5.1 sliding-window query, native API: per-product running
/// `SUM(units)` over the last 5 minutes, Algorithm-1 state in the KV store.
pub struct NativeSlidingWindowTask {
    in_codec: AvroCodec,
    out_codec: AvroCodec,
    output: Arc<str>,
    buf: Vec<u8>,
    window_ms: i64,
    seq: u64,
}

/// Output schema of the sliding-window query.
pub fn sliding_output_schema() -> Schema {
    Schema::record(
        "OrdersWindowed",
        vec![
            ("rowtime", Schema::Timestamp),
            ("productId", Schema::Int),
            ("units", Schema::Int),
            ("unitsLastFiveMinutes", Schema::Long),
        ],
    )
}

impl NativeSlidingWindowTask {
    pub fn new(output: &str, window_ms: i64) -> Self {
        NativeSlidingWindowTask {
            in_codec: AvroCodec::new(orders_schema()),
            out_codec: AvroCodec::new(sliding_output_schema()),
            output: output.into(),
            buf: Vec::new(),
            window_ms,
            seq: 0,
        }
    }

    fn msg_key(product: i64, ts: i64, seq: u64) -> Vec<u8> {
        let mut k = format!("m/{product}/").into_bytes();
        k.extend_from_slice(&((ts as u64) ^ (1 << 63)).to_be_bytes());
        k.extend_from_slice(&seq.to_be_bytes());
        k
    }
}

impl StreamTask for NativeSlidingWindowTask {
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        let order = self.in_codec.decode_to_tuple(&envelope.payload)?;
        let ts = order[0].as_i64().unwrap_or(0);
        let product = order[1].as_i64().unwrap_or(0);
        let units = order[3].as_i64().unwrap_or(0);

        let agg_key = format!("a/{product}").into_bytes();
        let store = ctx.store_mut(NATIVE_STORE)?;

        // Load aggregate state.
        let mut sum: i64 = store
            .get(&agg_key)
            .map(|b| i64::from_le_bytes(b.as_ref().try_into().unwrap_or([0; 8])))
            .unwrap_or(0);

        // Save the message in the message store (Algorithm 1 keeps the
        // messages themselves, not a digest): the already-encoded Avro
        // payload goes in directly.
        let mkey = Self::msg_key(product, ts, self.seq);
        self.seq += 1;
        store.put(&mkey, envelope.payload.clone())?;

        // Purge expired messages, adjusting the sum (Avro-decode each
        // expired message to retract its units).
        let cutoff = ts - self.window_ms;
        let lo = Self::msg_key(product, i64::MIN, 0);
        let hi = Self::msg_key(product, cutoff, 0);
        for (k, v) in store.range(&lo, &hi) {
            let old = self.in_codec.decode_to_tuple(&v)?;
            sum -= old[3].as_i64().unwrap_or(0);
            store.delete(&k)?;
        }

        sum += units;
        store.put(&agg_key, Bytes::copy_from_slice(&sum.to_le_bytes()))?;

        let payload = encode_payload(
            &self.out_codec,
            &mut self.buf,
            &[
                Value::Timestamp(ts),
                Value::Int(product as i32),
                Value::Int(units as i32),
                Value::Long(sum),
            ],
        )?;
        collector.send(
            OutgoingMessageEnvelope::new(Arc::clone(&self.output), payload).at(envelope.timestamp),
        );
        Ok(())
    }
}

// ------------------------------------------------------------ factories

/// Factory wrapper for the native tasks.
pub enum NativeTaskKind {
    Filter,
    Project,
    Join { products_topic: String },
    SlidingWindow { window_ms: i64 },
}

/// Creates native tasks of one kind.
pub struct NativeTaskFactory {
    pub kind: NativeTaskKind,
    pub output: String,
}

impl TaskFactory for NativeTaskFactory {
    fn create(&self, _partition: u32) -> Box<dyn StreamTask> {
        match &self.kind {
            NativeTaskKind::Filter => Box::new(NativeFilterTask::new(&self.output)),
            NativeTaskKind::Project => Box::new(NativeProjectTask::new(&self.output)),
            NativeTaskKind::Join { products_topic } => {
                Box::new(NativeJoinTask::new(products_topic, &self.output))
            }
            NativeTaskKind::SlidingWindow { window_ms } => {
                Box::new(NativeSlidingWindowTask::new(&self.output, *window_ms))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samzasql_kafka::{Broker, TopicConfig};
    use samzasql_samza::{Container, InputStreamConfig, JobConfig, JobModel, StoreConfig};
    use samzasql_workload::{OrdersGenerator, OrdersSpec, ProductsGenerator, ProductsSpec};

    fn drain(broker: &Broker, topic: &str) -> Vec<Bytes> {
        let mut out = Vec::new();
        for p in 0..broker.partition_count(topic).unwrap() {
            let mut off = 0;
            loop {
                let b = broker.fetch(topic, p, off, 1024).unwrap();
                if b.records.is_empty() {
                    break;
                }
                for r in b.records {
                    off = r.offset + 1;
                    out.push(r.message.value);
                }
            }
        }
        out
    }

    #[test]
    fn native_filter_forwards_matching_payloads_unchanged() {
        let broker = Broker::new();
        broker
            .create_topic("orders", TopicConfig::with_partitions(2))
            .unwrap();
        broker
            .create_topic("out", TopicConfig::with_partitions(2))
            .unwrap();
        let mut gen = OrdersGenerator::new(OrdersSpec::default());
        let mut over50 = 0;
        let codec = AvroCodec::new(orders_schema());
        for m in gen.messages(100) {
            if codec
                .decode(&m.value)
                .unwrap()
                .field("units")
                .unwrap()
                .as_i64()
                .unwrap()
                > 50
            {
                over50 += 1;
            }
            let p = samzasql_kafka::partitioner::hash_bytes(m.key.as_ref().unwrap()) % 2;
            broker.produce("orders", p, m).unwrap();
        }
        let cfg = JobConfig::new("nf").input(InputStreamConfig::new("orders"));
        let factory = NativeTaskFactory {
            kind: NativeTaskKind::Filter,
            output: "out".into(),
        };
        let model = JobModel::plan(&cfg, &broker).unwrap();
        for cm in &model.containers {
            Container::new(broker.clone(), cfg.clone(), cm.clone(), &factory)
                .unwrap()
                .run_until_caught_up()
                .unwrap();
        }
        let outs = drain(&broker, "out");
        assert_eq!(outs.len(), over50);
        // Forwarded payloads decode as full Orders records (pass-through).
        assert!(codec.decode(&outs[0]).unwrap().field("pad").is_some());
    }

    #[test]
    fn native_join_matches_supplier() {
        let broker = Broker::new();
        broker
            .create_topic("orders", TopicConfig::with_partitions(2))
            .unwrap();
        broker
            .create_topic("products", TopicConfig::with_partitions(2))
            .unwrap();
        broker
            .create_topic("out", TopicConfig::with_partitions(2))
            .unwrap();
        let mut pg = ProductsGenerator::new(ProductsSpec::default());
        for m in pg.snapshot() {
            let p = samzasql_kafka::partitioner::hash_bytes(m.key.as_ref().unwrap()) % 2;
            broker.produce("products", p, m).unwrap();
        }
        let mut og = OrdersGenerator::new(OrdersSpec::default());
        for m in og.messages(200) {
            let p = samzasql_kafka::partitioner::hash_bytes(m.key.as_ref().unwrap()) % 2;
            broker.produce("orders", p, m).unwrap();
        }
        let cfg = JobConfig::new("nj")
            .input(InputStreamConfig::new("orders"))
            .input(InputStreamConfig::new("products").bootstrap())
            .store(StoreConfig::with_changelog(NATIVE_STORE, "nj"));
        let factory = NativeTaskFactory {
            kind: NativeTaskKind::Join {
                products_topic: "products".into(),
            },
            output: "out".into(),
        };
        let model = JobModel::plan(&cfg, &broker).unwrap();
        for cm in &model.containers {
            Container::new(broker.clone(), cfg.clone(), cm.clone(), &factory)
                .unwrap()
                .run_until_caught_up()
                .unwrap();
        }
        let outs = drain(&broker, "out");
        assert_eq!(outs.len(), 200, "every order has a product (dense ids)");
        let codec = AvroCodec::new(join_output_schema());
        let rec = codec.decode(&outs[0]).unwrap();
        assert!(rec.field("supplierId").unwrap().as_i64().is_some());
    }

    /// A product update and a tombstone arriving between two order batches
    /// change the second batch's output, although the first batch left
    /// both products' rows in the store's decoded-row cache.
    #[test]
    fn native_join_sees_relation_changes_between_batches() {
        use samzasql_kafka::TopicPartition;
        use samzasql_obs::MetricsRegistry;
        use samzasql_samza::KeyValueStore;

        let mut task = NativeJoinTask::new("products", "out");
        let mut ctx = TaskContext::new("Partition 0", 0, vec![], MetricsRegistry::new());
        ctx.register_store(KeyValueStore::ephemeral(NATIVE_STORE));
        let mut collector = MessageCollector::new();
        let mut coordinator = TaskCoordinator::default();
        let products_codec = AvroCodec::new(products_schema());
        let orders_codec = AvroCodec::new(orders_schema());
        let key_codec = ObjectCodec::new();
        let envelope =
            |topic: &str, key: Option<Bytes>, payload: Vec<u8>| IncomingMessageEnvelope {
                tp: Arc::new(TopicPartition::new(topic, 0)),
                offset: 0,
                timestamp: 0,
                key,
                payload: Bytes::from(payload),
            };
        let product = |id: i32, supplier: i32| {
            let row = Value::record(vec![
                ("productId", Value::Int(id)),
                ("name", Value::String(format!("product-{id}"))),
                ("supplierId", Value::Int(supplier)),
            ]);
            let key = key_codec.encode(&Value::Int(id)).unwrap();
            envelope(
                "products",
                Some(Bytes::from(key)),
                products_codec.encode(&row).unwrap(),
            )
        };
        let order = |id: i64, product: i32| {
            let row = Value::record(vec![
                ("rowtime", Value::Timestamp(id)),
                ("productId", Value::Int(product)),
                ("orderId", Value::Long(id)),
                ("units", Value::Int(1)),
                ("pad", Value::String("x".into())),
            ]);
            envelope("orders", None, orders_codec.encode(&row).unwrap())
        };
        let out_codec = AvroCodec::new(join_output_schema());
        let mut run = |task: &mut NativeJoinTask, ctx: &mut TaskContext, batch: &[_]| {
            task.process_batch(batch, ctx, &mut collector, &mut coordinator)
                .unwrap();
            collector
                .drain()
                .iter()
                .map(|env| {
                    let row = out_codec.decode_to_tuple(&env.payload).unwrap();
                    (row[2].as_i64().unwrap(), row[4].as_i64().unwrap())
                })
                .collect::<Vec<_>>()
        };

        run(&mut task, &mut ctx, &[product(7, 70), product(8, 80)]);
        let orders = [order(1, 7), order(2, 8), order(3, 7)];
        assert_eq!(
            run(&mut task, &mut ctx, &orders),
            [(7, 70), (8, 80), (7, 70)]
        );
        let tombstone = envelope(
            "products",
            Some(Bytes::from(key_codec.encode(&Value::Int(8)).unwrap())),
            Vec::new(),
        );
        run(&mut task, &mut ctx, &[product(7, 71), tombstone]);
        assert_eq!(run(&mut task, &mut ctx, &orders), [(7, 71), (7, 71)]);
        let m = ctx.store(NATIVE_STORE).unwrap().metrics();
        assert_eq!(
            (m.gets, m.cache_hits),
            (4, 2),
            "first batch: 2 decodes and 1 hit; second: 1 decode, 1 absent key, 1 hit"
        );
    }

    #[test]
    fn native_sliding_window_running_sum() {
        let broker = Broker::new();
        broker
            .create_topic("orders", TopicConfig::with_partitions(1))
            .unwrap();
        broker
            .create_topic("out", TopicConfig::with_partitions(1))
            .unwrap();
        // Hand-crafted orders: product 1, units 10 @0, 20 @60s, 5 @10min.
        let codec = AvroCodec::new(orders_schema());
        for (ts, units) in [(0i64, 10), (60_000, 20), (600_000, 5)] {
            let v = Value::record(vec![
                ("rowtime", Value::Timestamp(ts)),
                ("productId", Value::Int(1)),
                ("orderId", Value::Long(ts)),
                ("units", Value::Int(units)),
                ("pad", Value::String("x".into())),
            ]);
            broker
                .produce(
                    "orders",
                    0,
                    samzasql_kafka::Message::new(codec.encode(&v).unwrap()).at(ts),
                )
                .unwrap();
        }
        let cfg = JobConfig::new("nw")
            .input(InputStreamConfig::new("orders"))
            .store(StoreConfig::with_changelog(NATIVE_STORE, "nw"));
        let factory = NativeTaskFactory {
            kind: NativeTaskKind::SlidingWindow { window_ms: 300_000 },
            output: "out".into(),
        };
        let model = JobModel::plan(&cfg, &broker).unwrap();
        Container::new(broker.clone(), cfg, model.containers[0].clone(), &factory)
            .unwrap()
            .run_until_caught_up()
            .unwrap();
        let outs = drain(&broker, "out");
        let out_codec = AvroCodec::new(sliding_output_schema());
        let sums: Vec<i64> = outs
            .iter()
            .map(|b| {
                out_codec
                    .decode(b)
                    .unwrap()
                    .field("unitsLastFiveMinutes")
                    .unwrap()
                    .as_i64()
                    .unwrap()
            })
            .collect();
        assert_eq!(sums, vec![10, 30, 5], "same results as the SQL operator");
    }
}
