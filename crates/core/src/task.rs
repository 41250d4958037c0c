//! The SamzaSQL stream task.
//!
//! One instance runs per partition (Samza's `GroupByPartition`). At `init` it
//! performs **step two** of two-step planning (§4.2): it reads the streaming
//! SQL query from the coordination service (the ZooKeeper stand-in, under
//! `/samzasql/queries/<job>/sql`), re-plans it with the same planner the
//! shell used, and generates its operators and message router. `process`
//! then routes every delivered message through the operator DAG and emits
//! encoded results to the job's output stream.

use crate::error::Result as CoreResult;
use crate::ops::STATE_STORE;
use crate::router::{MessageRouter, QuerySpec};
use crate::udaf::UdafRegistry;
use samzasql_coord::Coord;
use samzasql_obs::TimeSource;
use samzasql_planner::Planner;
use samzasql_samza::{
    IncomingMessageEnvelope, MessageCollector, OutgoingMessageEnvelope, Result as SamzaResult,
    SamzaError, StreamTask, TaskContext, TaskCoordinator, TaskFactory,
};
use std::sync::Arc;

/// How a task obtains its query plan at init.
#[derive(Clone)]
pub enum TaskPlanSource {
    /// Re-plan the SQL stored in the coordination service (normal jobs — the
    /// faithful two-step flow).
    Replan { planner: Arc<Planner> },
    /// Use a fixed stage spec (repartition-split jobs, where a stage is not
    /// expressible as standalone SQL).
    Fixed(Arc<QuerySpec>),
}

/// The generated streaming task executing one query (stage).
pub struct SamzaSqlTask {
    job_name: String,
    output_topic: String,
    coord: Coord,
    source: TaskPlanSource,
    udafs: Arc<UdafRegistry>,
    router: Option<MessageRouter>,
    /// Bounded queries flush window/sort state when `window()` fires.
    bounded: bool,
    /// Reusable staging buffer for encoded outputs (capacity persists
    /// across batches).
    out_buf: Vec<crate::ops::insert::EncodedOutput>,
    /// Per-operator profiling: the clock busy time is measured against
    /// (None = profiling off, zero overhead).
    profiling: Option<Arc<dyn TimeSource>>,
}

impl SamzaSqlTask {
    pub fn new(
        job_name: impl Into<String>,
        output_topic: impl Into<String>,
        coord: Coord,
        source: TaskPlanSource,
        udafs: Arc<UdafRegistry>,
    ) -> Self {
        SamzaSqlTask {
            job_name: job_name.into(),
            output_topic: output_topic.into(),
            coord,
            source,
            udafs,
            router: None,
            bounded: false,
            out_buf: Vec::new(),
            profiling: None,
        }
    }

    /// Enable per-operator profiling for this task instance, timed against
    /// `clock` (builder style).
    pub fn with_profiling(mut self, clock: Arc<dyn TimeSource>) -> Self {
        self.profiling = Some(clock);
        self
    }

    /// Drain `out_buf` into the collector as outgoing envelopes.
    fn send_outputs(&mut self, collector: &mut MessageCollector) {
        for out in self.out_buf.drain(..) {
            let mut env = OutgoingMessageEnvelope::new(self.output_topic.clone(), out.payload)
                .at(out.timestamp);
            if let Some(k) = out.key {
                env = env.keyed(k);
            }
            collector.send(env);
        }
    }

    fn build_router(&mut self, ctx: &TaskContext) -> CoreResult<()> {
        // The coordination service must carry the query — the shell wrote it
        // in step one. This is the handoff §4.2 describes.
        let sql = self
            .coord
            .get(format!("/samzasql/queries/{}/sql", self.job_name))
            .map_err(|_| {
                crate::error::CoreError::Shell(format!(
                    "coordination service has no query for job {}",
                    self.job_name
                ))
            })?;
        let (router, bounded) = match &self.source {
            TaskPlanSource::Replan { planner } => {
                let planned = planner.plan(&sql)?;
                (
                    MessageRouter::build(&planned, &self.udafs)?,
                    !planned.is_stream,
                )
            }
            TaskPlanSource::Fixed(spec) => (
                MessageRouter::build_spec(spec, &self.udafs)?,
                !spec.is_stream,
            ),
        };
        self.bounded = bounded;
        let mut router = router;
        if let Some(clock) = &self.profiling {
            router.enable_profiling(clock.clone());
            let task = ctx.partition.to_string();
            router.register_profile(
                &ctx.metrics_registry,
                &[("job", self.job_name.as_str()), ("task", task.as_str())],
            );
        }
        self.router = Some(router);
        Ok(())
    }
}

impl StreamTask for SamzaSqlTask {
    fn init(&mut self, ctx: &mut TaskContext) -> SamzaResult<()> {
        self.build_router(ctx).map_err(SamzaError::from)
    }

    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        coordinator: &mut TaskCoordinator,
    ) -> SamzaResult<()> {
        self.process_batch(std::slice::from_ref(envelope), ctx, collector, coordinator)
            .map(|_| ())
    }

    fn process_batch(
        &mut self,
        envelopes: &[IncomingMessageEnvelope],
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> SamzaResult<usize> {
        let router = self.router.as_mut().expect("init ran before process");
        let mut store = ctx.store_mut(STATE_STORE).ok();
        // Route each consecutive same-topic run as one batch.
        let mut i = 0;
        while i < envelopes.len() {
            let topic = &envelopes[i].tp.topic;
            let mut j = i + 1;
            while j < envelopes.len() && envelopes[j].tp.topic == *topic {
                j += 1;
            }
            router
                .route_batch(
                    topic,
                    envelopes[i..j].iter().map(|e| (e.key.as_ref(), &e.payload)),
                    store.as_deref_mut(),
                    &mut self.out_buf,
                )
                .map_err(SamzaError::from)?;
            i = j;
        }
        self.send_outputs(collector);
        Ok(envelopes.len())
    }

    fn window(
        &mut self,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> SamzaResult<()> {
        if !self.bounded {
            return Ok(());
        }
        let router = self.router.as_mut().expect("init ran before window");
        let store = ctx.store_mut(STATE_STORE).ok();
        router
            .flush_into(store, &mut self.out_buf)
            .map_err(SamzaError::from)?;
        self.send_outputs(collector);
        Ok(())
    }
}

/// Factory creating one [`SamzaSqlTask`] per partition.
pub struct SamzaSqlTaskFactory {
    pub job_name: String,
    pub output_topic: String,
    pub coord: Coord,
    pub source: TaskPlanSource,
    pub udafs: Arc<UdafRegistry>,
    /// Clock for per-operator profiling (None = off).
    pub profiling: Option<Arc<dyn TimeSource>>,
}

impl TaskFactory for SamzaSqlTaskFactory {
    fn create(&self, _partition: u32) -> Box<dyn StreamTask> {
        let task = SamzaSqlTask::new(
            self.job_name.clone(),
            self.output_topic.clone(),
            self.coord.clone(),
            self.source.clone(),
            self.udafs.clone(),
        );
        Box::new(match &self.profiling {
            Some(clock) => task.with_profiling(clock.clone()),
            None => task,
        })
    }
}
