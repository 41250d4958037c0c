//! The SamzaSQL shell — the SqlLine/JDBC front door of Figure 2.
//!
//! The shell owns the catalog + planner, talks to the broker and the
//! simulated YARN cluster, and performs **step one** of two-step planning
//! (§4.2): plan the query, generate the Samza job configuration, store plan
//! metadata (the SQL text, schema references) in the ZooKeeper-like
//! coordination service under `/samzasql/queries/<job>/…`, and submit the
//! job. Tasks re-plan from that metadata at init.
//!
//! Two execution paths mirror the paper's data model (§3.3):
//!
//! * [`SamzaSqlShell::submit`] — `SELECT STREAM …`: a continuous job on the
//!   cluster, observed through a [`QueryHandle`].
//! * [`SamzaSqlShell::query`] — no `STREAM` keyword: the stream is read as a
//!   bounded historical table; the query runs to completion synchronously
//!   and returns its rows.
//!
//! [`SamzaSqlShell::explain_analyze`] runs a statement through the same
//! bounded stage runner as `query`, with operator profiling on, and renders
//! the profile its tasks published into the metrics registry.

use crate::error::{CoreError, Result};
use crate::profile::render_explain_analyze;
use crate::router::{MessageRouter, QuerySpec};
use crate::task::{SamzaSqlTaskFactory, TaskPlanSource};
use crate::udaf::{UdafRegistry, UserAggregate};
use samzasql_coord::Coord;
use samzasql_kafka::{Broker, Bytes, Message, TopicConfig};
use samzasql_obs::{MetricsRegistry, MonotonicTime, TimeSource};
use samzasql_planner::{Catalog, PhysicalPlan, PlannedQuery, Planner};
use samzasql_samza::{ClusterSim, InputStreamConfig, JobConfig, JobHandle, StoreConfig};
use samzasql_serde::avro::AvroCodec;
use samzasql_serde::object::ObjectCodec;
use samzasql_serde::{Schema, SerdeFormat, Value};
use std::sync::Arc;

/// The interactive entry point to SamzaSQL.
pub struct SamzaSqlShell {
    broker: Broker,
    cluster: ClusterSim,
    coord: Coord,
    planner: Planner,
    udafs: UdafRegistry,
    query_counter: u64,
    /// Containers per stage of a job started by [`submit`](Self::submit).
    /// Defaults to one per core (`samza::worker_count`, the rule bounded
    /// queries use); job planning caps it at the stage's task count, so a
    /// one-partition stream still runs on one container. Set it to pin the
    /// count, as the paper's 1/2/4-container experiments do.
    pub default_containers: u32,
    /// Compile queries with the direct SamzaSQL Data API (§7 item 5): skip
    /// the AvroToArray/ArrayToAvro steps. Off by default (prototype path).
    pub direct_data_api: bool,
    /// Record per-operator profiles (rows in/out, batches, busy time) for
    /// submitted/executed jobs into the shell's metrics registry. Off by
    /// default; `EXPLAIN ANALYZE` profiles regardless.
    pub profile_operators: bool,
    /// The clock operator profiling measures busy time against.
    clock: Arc<dyn TimeSource>,
}

impl SamzaSqlShell {
    /// Shell over a broker with a single-node cluster.
    pub fn new(broker: Broker) -> Self {
        let cluster = ClusterSim::single_node(broker.clone());
        Self::with_cluster(broker, cluster)
    }

    /// Shell over an explicit cluster simulation, which must run over
    /// `broker` (its containers publish into that broker's registry). Query
    /// metadata lives in the cluster's coordination service, so tasks (and
    /// anyone else holding the `Coord`) read exactly what the shell wrote.
    pub fn with_cluster(broker: Broker, cluster: ClusterSim) -> Self {
        // Deny-by-default static analysis: plans with Error-severity
        // diagnostics never reach job submission.
        let mut planner = Planner::new(Catalog::new());
        planner.add_check(Arc::new(samzasql_analyze::GatingAnalyzer));
        SamzaSqlShell {
            broker,
            coord: cluster.coord().clone(),
            cluster,
            planner,
            udafs: UdafRegistry::new(),
            query_counter: 0,
            default_containers: samzasql_samza::worker_count(usize::MAX) as u32,
            direct_data_api: false,
            profile_operators: false,
            clock: Arc::new(MonotonicTime::new()),
        }
    }

    /// The broker this shell talks to.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The coordination service carrying query metadata
    /// (`/samzasql/queries/<job>/{sql,schema,output}`).
    pub fn coord(&self) -> &Coord {
        &self.coord
    }

    /// The planner/catalog.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The broker's metrics registry, which broker, container, task, store
    /// and operator series publish into.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        self.broker.metrics_registry()
    }

    // ------------------------------------------------------------- catalog

    /// Register a stream (creating its topic with one partition if absent).
    pub fn register_stream(
        &mut self,
        name: &str,
        topic: &str,
        schema: Schema,
        timestamp_field: &str,
    ) -> Result<()> {
        self.broker
            .ensure_topic(topic, TopicConfig::with_partitions(1))?;
        self.planner
            .catalog_mut()
            .register_stream(name, topic, schema, timestamp_field)?;
        Ok(())
    }

    /// Register a table backed by a changelog topic, keyed (and partitioned)
    /// by `key_column`.
    pub fn register_table(
        &mut self,
        name: &str,
        changelog_topic: &str,
        schema: Schema,
        key_column: &str,
    ) -> Result<()> {
        self.broker
            .ensure_topic(changelog_topic, TopicConfig::with_partitions(1))?;
        self.planner
            .catalog_mut()
            .register_table(name, changelog_topic, schema)?;
        self.planner
            .catalog_mut()
            .set_partition_key(name, key_column)?;
        Ok(())
    }

    /// Declare the column a stream's producer partitions by (enables the
    /// planner's repartition decision, §7).
    pub fn set_partition_key(&mut self, name: &str, key_column: &str) -> Result<()> {
        self.planner
            .catalog_mut()
            .set_partition_key(name, key_column)?;
        Ok(())
    }

    /// Register a user-defined aggregate function.
    pub fn register_udaf(&mut self, name: &str, func: Arc<dyn UserAggregate>) {
        self.udafs.register(name, func);
    }

    /// Execute DDL (`CREATE VIEW`).
    pub fn execute_ddl(&mut self, sql: &str) -> Result<String> {
        Ok(self.planner.execute_ddl(sql)?)
    }

    /// EXPLAIN a query: physical plan with per-stage partitioning
    /// annotations.
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(self.planner.explain(sql)?)
    }

    /// ANALYZE a query: run the static plan analyzer and pretty-print its
    /// diagnostics (codes, severities, source spans) without submitting
    /// anything. Accepts either a bare statement or `ANALYZE <sql>`.
    pub fn analyze(&self, sql: &str) -> Result<String> {
        let stmt = sql.trim();
        let stmt = match stmt.get(..7) {
            Some(kw)
                if kw.eq_ignore_ascii_case("analyze")
                    && stmt[7..].starts_with(|c: char| c.is_whitespace()) =>
            {
                stmt[7..].trim_start()
            }
            _ => stmt,
        };
        let diags = samzasql_analyze::analyze_sql(&self.planner, stmt);
        if diags.is_empty() {
            return Ok("no diagnostics: plan is clean".to_string());
        }
        Ok(diags.render())
    }

    /// Render the shell's metrics registry as aligned text. Accepts a bare
    /// prefix, `METRICS` (everything), or `METRICS <prefix>` (only series
    /// whose dotted name starts with the prefix).
    pub fn metrics(&self, command: &str) -> String {
        let trimmed = command.trim();
        let prefix = if trimmed.eq_ignore_ascii_case("metrics") {
            ""
        } else {
            strip_keyword(trimmed, "metrics").unwrap_or(trimmed)
        };
        let snap = if prefix.is_empty() {
            self.metrics_registry().snapshot()
        } else {
            self.metrics_registry().snapshot_prefix(prefix)
        };
        if snap.entries.is_empty() {
            return format!("no metrics{}", {
                if prefix.is_empty() {
                    String::new()
                } else {
                    format!(" under prefix {prefix:?}")
                }
            });
        }
        samzasql_obs::render_text(&snap)
    }

    /// `EXPLAIN ANALYZE <sql>`: run the statement exactly as
    /// [`query`](Self::query) runs a bounded one — same stages, same jobs,
    /// through [`run_bounded`](samzasql_samza::run_bounded) over all the
    /// input present now — with per-operator profiling on, and print the
    /// physical plan of every stage annotated with the rows-in/rows-out,
    /// batch counts, selectivity, and share of operator busy time its tasks
    /// recorded. Accepts either a bare statement or the full
    /// `EXPLAIN ANALYZE` form.
    ///
    /// The counts are read back from the metrics registry: each stage's
    /// `core.operator.*` and `core.scan.*` series (labeled with the stage's
    /// `job`) summed across its tasks. Like `query()`, the statement creates
    /// its output (and repartition) topics and publishes its metadata to the
    /// coordination service. A bounded statement flushes at end of input,
    /// so the trailing `output rows:` line equals the number of rows
    /// `query()` returns for it. A `STREAM` statement reports what its
    /// continuous tasks would have done with the input present now: it
    /// does not flush, so open windows stay open.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        let stmt = sql.trim();
        let stmt = strip_keyword(stmt, "explain")
            .and_then(|rest| strip_keyword(rest, "analyze"))
            .unwrap_or(stmt);
        let (planned, stages, output_topic) = self.prepare(stmt)?;
        self.run_stages(&stages, true)?;

        let mut out = String::new();
        for (i, stage) in stages.iter().enumerate() {
            // Bindings and node names come from a router built from the
            // stage's spec and never run: node names are deterministic, so
            // they match the `op` labels the tasks published.
            let mut router = MessageRouter::build_spec(&stage.spec, &self.udafs)?;
            router.enable_profiling(self.clock.clone());
            let profile = router
                .profile()
                .expect("profiling enabled above")
                .with_registry_totals(self.metrics_registry(), &stage.job);
            if stages.len() > 1 {
                let role = ["producer", "consumer"][i];
                out.push_str(&format!("-- stage{} (repartition {role}) --\n", i + 1));
            }
            out.push_str(&render_explain_analyze(&stage.spec.physical, &profile));
        }
        let mut rows = 0;
        for p in 0..self.broker.partition_count(&output_topic)? {
            rows += self.broker.end_offset(&output_topic, p)?
                - self.broker.start_offset(&output_topic, p)?;
        }
        // query() applies the global LIMIT over the tasks' partition slices.
        let rows = rows.min(planned.limit.unwrap_or(u64::MAX));
        out.push_str(&format!("output rows: {rows}\n"));
        Ok(out)
    }

    // ------------------------------------------------------------ producing

    fn encode_for(&self, name: &str, value: &Value) -> Result<(String, Message)> {
        let obj = self.planner.catalog().get(name)?;
        let topic = obj
            .topic
            .clone()
            .ok_or_else(|| CoreError::Shell(format!("{name} has no backing topic")))?;
        let codec = AvroCodec::new(obj.schema.clone());
        let payload = Bytes::from(codec.encode(value)?);
        let timestamp = obj
            .timestamp_field
            .as_deref()
            .and_then(|f| value.field(f))
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        let key = obj
            .partition_key
            .as_deref()
            .and_then(|f| value.field(f))
            .map(|v| ObjectCodec::new().encode(v).map(Bytes::from))
            .transpose()?;
        Ok((
            topic,
            Message {
                key,
                value: payload,
                timestamp,
            },
        ))
    }

    /// Publish a tuple to a registered stream (Avro-encoded; keyed by the
    /// stream's declared partition key when set).
    pub fn produce(&self, stream: &str, value: Value) -> Result<()> {
        let (topic, message) = self.encode_for(stream, &value)?;
        let partitions = self.broker.partition_count(&topic)?;
        let partition = match &message.key {
            Some(k) => samzasql_kafka::partitioner::hash_bytes(k) % partitions,
            None => 0,
        };
        self.broker.produce(&topic, partition, message)?;
        Ok(())
    }

    /// Publish an upsert to a table's changelog.
    pub fn produce_relation(&self, table: &str, value: Value) -> Result<()> {
        self.produce(table, value)
    }

    /// Publish a deletion (tombstone) to a table's changelog.
    pub fn delete_relation(&self, table: &str, key: &Value) -> Result<()> {
        let obj = self.planner.catalog().get(table)?;
        let topic = obj
            .topic
            .clone()
            .ok_or_else(|| CoreError::Shell(format!("{table} has no backing topic")))?;
        let key_bytes = ObjectCodec::new().encode(key)?;
        let partitions = self.broker.partition_count(&topic)?;
        let partition = samzasql_kafka::partitioner::hash_bytes(&key_bytes) % partitions;
        self.broker.produce(
            &topic,
            partition,
            Message {
                key: Some(Bytes::from(key_bytes)),
                value: Bytes::new(),
                timestamp: 0,
            },
        )?;
        Ok(())
    }

    // ----------------------------------------------------------- execution

    fn next_query_id(&mut self) -> u64 {
        self.query_counter += 1;
        self.query_counter
    }

    /// The task factory for one stage; its tasks record per-operator
    /// profiles into the shell's registry when `profile` is set.
    fn task_factory(
        &self,
        stage: &Stage,
        udafs: &Arc<UdafRegistry>,
        profile: bool,
    ) -> SamzaSqlTaskFactory {
        SamzaSqlTaskFactory {
            job_name: stage.job.clone(),
            output_topic: stage.output.clone(),
            coord: self.coord.clone(),
            source: stage.source.clone(),
            udafs: udafs.clone(),
            profiling: profile.then(|| self.clock.clone()),
        }
    }

    fn output_partitions(&self, physical: &PhysicalPlan) -> Result<u32> {
        let mut max = 1;
        for (topic, _) in physical.input_topics() {
            max = max.max(self.broker.partition_count(&topic)?);
        }
        Ok(max)
    }

    /// Build the job configuration for one stage (the shell half of two-step
    /// planning).
    fn job_config(&self, job_name: &str, spec: &QuerySpec, containers: u32) -> JobConfig {
        let mut cfg = JobConfig::new(job_name).containers(containers);
        for (topic, bootstrap) in spec.physical.input_topics() {
            let mut input = InputStreamConfig::new(topic);
            if bootstrap {
                input = input.bootstrap();
            }
            cfg = cfg.input(input);
        }
        if spec.physical.needs_local_state() || !spec.order_by.is_empty() || spec.limit.is_some() {
            cfg = cfg.store(StoreConfig::with_changelog(
                crate::ops::STATE_STORE,
                job_name,
            ));
        }
        cfg
    }

    /// Step one of two-step planning (§4.2): store the streaming query and
    /// schema references in the coordination service, where tasks re-plan
    /// from at init.
    fn publish_query(&self, job_name: &str, sql: &str, output_topic: &str) {
        let base = format!("/samzasql/queries/{job_name}");
        let _ = self.coord.upsert(format!("{base}/sql"), sql);
        let _ = self
            .coord
            .upsert(format!("{base}/schema"), format!("{output_topic}-value"));
        let _ = self.coord.upsert(format!("{base}/output"), output_topic);
    }

    /// Plan and register everything for a query; returns the plan, its
    /// stages, and the final output topic.
    fn prepare(&mut self, sql: &str) -> Result<(PlannedQuery, Vec<Stage>, String)> {
        let planned = self.planner.plan(sql)?;
        let qid = self.next_query_id();
        let job_base = format!("samzasql-q{qid}");
        let output_topic = format!("{job_base}-output");
        let out_partitions = self.output_partitions(&planned.physical)?;
        self.broker
            .ensure_topic(&output_topic, TopicConfig::with_partitions(out_partitions))?;
        self.planner
            .catalog()
            .registry()
            .register(
                &format!("{output_topic}-value"),
                planned.output_schema("Output"),
            )
            .map_err(CoreError::Serde)?;

        // The intermediate topic carries the re-keyed stream (§7).
        let inter_topic = format!("{job_base}-repartition");
        let stages = match split_repartition(&planned, &inter_topic) {
            Some((stage1, stage2)) => {
                self.broker
                    .ensure_topic(&inter_topic, TopicConfig::with_partitions(out_partitions))?;
                let job1 = format!("{job_base}-stage1");
                self.publish_query(&job1, sql, &inter_topic);
                self.publish_query(&job_base, sql, &output_topic);
                vec![
                    Stage {
                        job: job1,
                        source: TaskPlanSource::Fixed(Arc::new(stage1.clone())),
                        spec: stage1,
                        output: inter_topic,
                    },
                    Stage {
                        job: job_base,
                        source: TaskPlanSource::Fixed(Arc::new(stage2.clone())),
                        spec: stage2,
                        output: output_topic.clone(),
                    },
                ]
            }
            None => {
                let mut spec = QuerySpec::from_planned(&planned);
                spec.direct_data_api = self.direct_data_api;
                self.publish_query(&job_base, sql, &output_topic);
                let source = if self.direct_data_api {
                    TaskPlanSource::Fixed(Arc::new(spec.clone()))
                } else {
                    TaskPlanSource::Replan {
                        planner: Arc::new(self.planner.clone()),
                    }
                };
                vec![Stage {
                    job: job_base,
                    spec,
                    source,
                    output: output_topic.clone(),
                }]
            }
        };
        Ok((planned, stages, output_topic))
    }

    /// Run every stage of a prepared statement over what its inputs hold
    /// now, through [`run_bounded`](samzasql_samza::run_bounded) — one
    /// container per task, pulled largest-first (by input records) by one
    /// worker per core. A stage's containers all finish before the next
    /// stage starts, so a later stage is sized by what the earlier one
    /// wrote.
    fn run_stages(&self, stages: &[Stage], profile: bool) -> Result<()> {
        let udafs = Arc::new(self.udafs.clone());
        for stage in stages {
            // The container layout is decided by run_bounded.
            let cfg = self.job_config(&stage.job, &stage.spec, 1);
            let factory = self.task_factory(stage, &udafs, profile);
            samzasql_samza::run_bounded(&self.broker, cfg, &factory)?;
        }
        Ok(())
    }

    /// Submit a continuous (`SELECT STREAM`) query to the cluster.
    ///
    /// Each stage becomes one job on the cluster simulation, placed on
    /// [`default_containers`](Self::default_containers) containers (at most
    /// one per task); tasks, one per input partition, are packed onto them
    /// round-robin. Every container runs on its own thread until the handle
    /// is stopped. A container whose step finds no input parks until a
    /// produce call reaches the broker, so an idle query leaves the cores
    /// free.
    pub fn submit(&mut self, sql: &str) -> Result<QueryHandle> {
        let (planned, stages, output_topic) = self.prepare(sql)?;
        if !planned.is_stream {
            return Err(CoreError::Shell(
                "query has no STREAM keyword; use query() for historical execution".into(),
            ));
        }
        let containers = self.default_containers;
        let udafs = Arc::new(self.udafs.clone());
        let mut jobs = Vec::new();
        for stage in &stages {
            let cfg = self.job_config(&stage.job, &stage.spec, containers);
            let factory = self.task_factory(stage, &udafs, self.profile_operators);
            jobs.push(self.cluster.submit(cfg, Arc::new(factory))?);
        }
        Ok(QueryHandle {
            jobs,
            broker: self.broker.clone(),
            output_topic,
            output_schema: planned.output_schema("Output"),
            positions: Vec::new(),
            warnings: planned.warnings,
            lints: planned.lints,
        })
    }

    /// Execute a bounded (historical) query synchronously and return its
    /// rows as records.
    ///
    /// The query's streams are read as tables (§3.3): its stages run over
    /// what their inputs hold now (see [`run_stages`](Self::run_stages)).
    /// The output topic is then read back on the same kind of pool: each
    /// output partition is one work item, sized by its record count, and
    /// the decoded partitions are concatenated in partition order.
    ///
    /// Row order: a single-stage query returns rows partition by partition,
    /// then by offset within a partition — every task writes only its own
    /// output partition, so this order does not depend on thread timing.
    /// A query with a repartition stage interleaves rows from concurrent
    /// containers in the intermediate topic, so its result is defined only
    /// as a multiset. `ORDER BY` sorts the whole result (stably), then
    /// `LIMIT` truncates it.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Value>> {
        let (planned, stages, output_topic) = self.prepare(sql)?;
        if planned.is_stream {
            return Err(CoreError::Shell(
                "continuous query; use submit() and a QueryHandle".into(),
            ));
        }
        self.run_stages(&stages, self.profile_operators)?;
        let mut rows = self.read_topic(&output_topic, planned.output_schema("Output"))?;
        // ORDER BY / LIMIT: each task sorted and limited its own partition
        // slice; the shell (JDBC-driver side) does the global merge. Sort
        // keys are evaluated once per row; a NULL key compares as equal.
        if !planned.order_by.is_empty() {
            let keys: Vec<(crate::expr::CompiledExpr, bool)> = planned
                .order_by
                .iter()
                .map(|(e, asc)| (crate::expr::compile(e), *asc))
                .collect();
            let mut keyed: Vec<(Vec<Value>, Value)> = rows
                .into_iter()
                .map(|row| {
                    let tuple = crate::tuple::record_to_array(row.clone(), 0).unwrap_or_default();
                    (keys.iter().map(|(k, _)| k.eval(&tuple)).collect(), row)
                })
                .collect();
            keyed.sort_by(|(a, _), (b, _)| {
                for ((ka, kb), (_, asc)) in a.iter().zip(b).zip(&keys) {
                    let ord = ka.sql_cmp(kb).unwrap_or(std::cmp::Ordering::Equal);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            rows = keyed.into_iter().map(|(_, row)| row).collect();
        }
        if let Some(n) = planned.limit {
            rows.truncate(n as usize);
        }
        Ok(rows)
    }

    /// Decode every record of `topic`, partition by partition, then by
    /// offset. Each partition is one work item of
    /// [`largest_first`](samzasql_samza::largest_first), sized by its
    /// record count; the decoded partitions are concatenated in partition
    /// order.
    fn read_topic(&self, topic: &str, schema: Schema) -> Result<Vec<Value>> {
        let mut sized = Vec::new();
        for p in 0..self.broker.partition_count(topic)? {
            let start = self.broker.start_offset(topic, p)?;
            let records = self.broker.end_offset(topic, p)? - start;
            sized.push((records, (p, start)));
        }
        let parts = samzasql_samza::largest_first(sized, |(p, start)| {
            // A codec per partition: its rows share the codec's name table,
            // and pool threads do not bump one shared reference count.
            let codec = AvroCodec::new(schema.clone());
            let mut rows = Vec::new();
            decode_partition(&self.broker, topic, p, start, &codec, &mut rows)?;
            Ok::<_, CoreError>(rows)
        })?;
        let mut rows = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            rows.extend(part);
        }
        Ok(rows)
    }
}

/// Decode partition `partition` of `topic` from offset `from` up to its
/// current end, appending the records to `rows`. Returns the offset after
/// the last record read (`from` when there was none).
fn decode_partition(
    broker: &Broker,
    topic: &str,
    partition: u32,
    from: u64,
    codec: &AvroCodec,
    rows: &mut Vec<Value>,
) -> Result<u64> {
    let mut off = from;
    loop {
        let batch = broker.fetch(topic, partition, off, 1024)?;
        if batch.records.is_empty() {
            return Ok(off);
        }
        for rec in batch.records {
            off = rec.offset + 1;
            rows.push(codec.decode(&rec.message.value)?);
        }
    }
}

impl std::fmt::Debug for SamzaSqlShell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamzaSqlShell")
            .field("catalog", &self.planner.catalog().names())
            .field("queries", &self.query_counter)
            .finish()
    }
}

/// Handle to a running continuous query.
pub struct QueryHandle {
    jobs: Vec<JobHandle>,
    broker: Broker,
    output_topic: String,
    output_schema: Schema,
    /// Per-partition read positions into the output topic.
    positions: Vec<u64>,
    /// Planner warnings surfaced to the user.
    pub warnings: Vec<String>,
    /// Static-analyzer lints (Warning/Note diagnostics) attached to the plan.
    pub lints: Vec<String>,
}

impl QueryHandle {
    /// The query's output topic (other jobs can consume it — Kappa-style
    /// pipeline composition).
    pub fn output_topic(&self) -> &str {
        &self.output_topic
    }

    /// Messages processed so far across the query's jobs.
    pub fn processed(&self) -> u64 {
        self.jobs.iter().map(|j| j.processed()).sum()
    }

    /// Poll new output rows (decoded records), non-blocking.
    pub fn poll_outputs(&mut self) -> Result<Vec<Value>> {
        let partitions = self.broker.partition_count(&self.output_topic)?;
        self.positions.resize(partitions as usize, 0);
        let codec = AvroCodec::new(self.output_schema.clone());
        let mut rows = Vec::new();
        for p in 0..partitions {
            let pos = &mut self.positions[p as usize];
            *pos = decode_partition(&self.broker, &self.output_topic, p, *pos, &codec, &mut rows)?;
        }
        Ok(rows)
    }

    /// Block until at least `n` output rows arrived or `timeout` elapsed;
    /// returns everything collected. Between polls the caller parks on the
    /// broker until the next append.
    pub fn await_outputs(&mut self, n: usize, timeout: std::time::Duration) -> Result<Vec<Value>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut rows = Vec::new();
        loop {
            // Read the sequence before polling, so an append landing
            // between the poll and the wait still wakes the wait.
            let seen = self.broker.append_seq();
            rows.extend(self.poll_outputs()?);
            let now = std::time::Instant::now();
            if rows.len() >= n || now >= deadline {
                return Ok(rows);
            }
            self.broker.wait_for_append(seen, deadline - now);
        }
    }

    /// Kill-and-restart a container of the query's (first) job — failure
    /// injection for tests.
    pub fn kill_container(&self, container_id: u32) -> Result<()> {
        if let Some(job) = self.jobs.first() {
            job.kill_container(container_id)?;
        }
        Ok(())
    }

    /// Stop the query's jobs.
    pub fn stop(self) -> Result<()> {
        for job in self.jobs {
            job.stop()?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("output_topic", &self.output_topic)
            .finish()
    }
}

/// Strip a leading SQL keyword (case-insensitive, followed by whitespace);
/// returns the remainder or None when `stmt` does not start with it.
fn strip_keyword<'a>(stmt: &'a str, keyword: &str) -> Option<&'a str> {
    let n = keyword.len();
    match stmt.get(..n) {
        Some(head)
            if head.eq_ignore_ascii_case(keyword)
                && stmt[n..].starts_with(|c: char| c.is_whitespace()) =>
        {
            Some(stmt[n..].trim_start())
        }
        _ => None,
    }
}

/// One job of a prepared statement; a repartitioned query has two.
struct Stage {
    /// Job name, also the `job` label of the stage's metric series.
    job: String,
    spec: QuerySpec,
    /// How the stage's tasks obtain their plan.
    source: TaskPlanSource,
    /// The topic the stage writes.
    output: String,
}

/// Find the first `Repartition` node (pre-order) and split the query
/// around it: stage 1 is the subplan below it, which becomes its own job
/// writing output keyed by the repartition key to `inter_topic`; stage 2 is
/// the original plan with the repartition subtree replaced by a scan of
/// `inter_topic`.
fn split_repartition(planned: &PlannedQuery, inter_topic: &str) -> Option<(QuerySpec, QuerySpec)> {
    fn find(plan: &mut PhysicalPlan) -> Option<&mut PhysicalPlan> {
        match plan {
            PhysicalPlan::Repartition { .. } => Some(plan),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::WindowAggregate { input, .. }
            | PhysicalPlan::SlidingWindow { input, .. } => find(input),
            PhysicalPlan::StreamToStreamJoin { left, right, .. } => {
                find(left).or_else(|| find(right))
            }
            PhysicalPlan::StreamToRelationJoin { stream, .. } => find(stream),
            PhysicalPlan::Scan { .. } => None,
        }
    }

    let mut physical = planned.physical.clone();
    let node = find(&mut physical)?;
    let PhysicalPlan::Repartition { input, key_index } = &*node else {
        unreachable!("find returns a Repartition node");
    };
    let (below, key_index) = ((**input).clone(), *key_index);
    let names = below.output_names();
    let types = below.output_types();
    let ts_index = names
        .iter()
        .position(|n| n.eq_ignore_ascii_case("rowtime"))
        .or_else(|| types.iter().position(|t| *t == Schema::Timestamp));
    *node = PhysicalPlan::Scan {
        topic: inter_topic.to_string(),
        names: names.clone(),
        types: types.clone(),
        format: SerdeFormat::Avro,
        bounded: !planned.is_stream,
        ts_index,
    };
    let stage1 = QuerySpec {
        sql: planned.sql.clone(),
        physical: below,
        output_names: names,
        output_types: types,
        order_by: Vec::new(),
        limit: None,
        is_stream: planned.is_stream,
        output_key: Some(key_index),
        direct_data_api: false,
    };
    let mut stage2 = QuerySpec::from_planned(planned);
    stage2.physical = physical;
    Some((stage1, stage2))
}
