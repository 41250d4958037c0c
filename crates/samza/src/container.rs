//! The container: runs a set of task instances against the broker.
//!
//! One container = one thread in the cluster simulation. The container owns
//! the per-task consumer positions, enforces bootstrap-stream priority,
//! flushes collectors to the producer, runs the end-of-input window call,
//! and commits checkpoints. Killing a container loses all its in-memory
//! state — exactly the failure the changelog/checkpoint machinery recovers
//! from.

use crate::checkpoint::{Checkpoint, CheckpointManager};
use crate::config::JobConfig;
use crate::coordinator::ContainerModel;
use crate::error::Result;
use crate::kv::{KeyValueStore, StoreMetrics};
use crate::system::{IncomingMessageEnvelope, MessageCollector, OutgoingMessageEnvelope};
use crate::task::{StreamTask, TaskContext, TaskCoordinator, TaskFactory};
use samzasql_kafka::partitioner::hash_bytes;
use samzasql_kafka::{
    AckMode, Broker, KafkaError, Message, Retrier, RetryMetrics, TopicConfig, TopicPartition,
};
use samzasql_obs::{Counter, MetricsRegistry};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// How many records a task fetches from one partition per step.
const FETCH_BATCH: usize = 256;

/// Longest an idle container parks in [`Container::step_or_park`] before
/// stepping again without new input, so a parked container's heartbeat
/// keeps flowing.
const IDLE_PARK: Duration = Duration::from_millis(10);

struct TaskInstance {
    ctx: TaskContext,
    task: Box<dyn StreamTask>,
    /// Next offset to fetch per input partition.
    positions: BTreeMap<TopicPartition, u64>,
    /// Bootstrap partitions not yet drained to their captured target.
    bootstrap_pending: BTreeMap<TopicPartition, u64>,
    /// Rotation cursor across input partitions.
    rotation: usize,
    processed_since_commit: u64,
    shutdown: bool,
    /// Reusable buffers for flushing the collector (capacity persists
    /// across flushes).
    out_scratch: OutScratch,
    counters: TaskCounters,
}

/// A task's flush buffers: the envelopes drained from its collector, and
/// the run of messages bound for one partition that each append empties.
#[derive(Default)]
struct OutScratch {
    envelopes: Vec<OutgoingMessageEnvelope>,
    run: Vec<Message>,
}

/// A task's `samza.task.*` counters.
struct TaskCounters {
    messages_processed: Counter,
    messages_sent: Counter,
    process_errors: Counter,
    commits: Counter,
    window_calls: Counter,
}

impl TaskCounters {
    fn new(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        let counter = |name: &str| registry.counter(&format!("samza.task.{name}"), labels);
        TaskCounters {
            messages_processed: counter("messages_processed"),
            messages_sent: counter("messages_sent"),
            process_errors: counter("process_errors"),
            commits: counter("commits"),
            window_calls: counter("window_calls"),
        }
    }
}

/// Boundaries inside the commit sequence where a crash can be injected.
///
/// The sequence is: flush pending output → flush state changelogs → write
/// the input checkpoint. Crashing at each boundary and restarting must
/// recover to output equivalent (after at-least-once dedup) to a fault-free
/// run — the ordering guarantees that a checkpoint never claims input whose
/// state/output effects were not yet durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPoint {
    /// Before any of the commit's flushes: everything since the last commit
    /// is lost and replayed.
    BeforeOutputFlush,
    /// Output is durable, state and checkpoint are not: replay duplicates
    /// output (at-least-once) but state converges.
    AfterOutputFlush,
    /// Output and state are durable, the checkpoint is not: replay re-applies
    /// input against restored state.
    AfterChangelogFlush,
    /// The full commit landed; the crash loses only post-commit progress.
    AfterCheckpoint,
}

/// One-shot injected-crash error surfaced as a task failure so the cluster's
/// crash-recovery path (respawn + restore) takes over.
fn crash_if_armed(armed: &Cell<Option<CommitPoint>>, point: CommitPoint, task: &str) -> Result<()> {
    if armed.get() == Some(point) {
        armed.set(None);
        return Err(crate::error::SamzaError::Task {
            task: task.to_string(),
            message: format!("injected crash at {point:?}"),
        });
    }
    Ok(())
}

/// A running (or runnable) container.
pub struct Container {
    broker: Broker,
    config: JobConfig,
    model: ContainerModel,
    checkpoints: CheckpointManager,
    tasks: Vec<TaskInstance>,
    initialized: bool,
    /// Retrier cloned into the fetch/flush, checkpoint and changelog paths
    /// (same policy, one `kafka.retry.*` sink).
    retrier: Retrier,
    /// Armed commit-boundary crash (test hook), consumed on first trigger.
    commit_crash: Cell<Option<CommitPoint>>,
    /// Parks after empty steps (`samza.container.idle_waits`).
    idle_waits: Counter,
}

impl Container {
    /// Build a container for `model`. Tasks are created via the factory but
    /// not yet initialized; call [`init`](Self::init) (or any run method,
    /// which initializes lazily).
    ///
    /// Every instrument the container and its tasks and stores count into
    /// is minted here, in the broker's registry: `samza.task.*` labeled
    /// `job`/`container`/`task`, `samza.store.*` with a `store` label
    /// added, and `kafka.retry.*` and `samza.container.idle_waits` labeled
    /// `job`/`container`. The series are get-or-create, so a respawned
    /// incarnation of the same container continues its predecessor's.
    pub fn new(
        broker: Broker,
        config: JobConfig,
        model: ContainerModel,
        factory: &dyn TaskFactory,
    ) -> Result<Self> {
        let registry = broker.metrics_registry();
        let job = config.name.as_str();
        let container = model.container_id.to_string();
        let container_labels = [("job", job), ("container", container.as_str())];
        let retrier =
            Retrier::default().with_metrics(RetryMetrics::new(registry, &container_labels));
        let idle_waits = registry.counter("samza.container.idle_waits", &container_labels);
        let checkpoints =
            CheckpointManager::new(broker.clone(), &config.name)?.with_retrier(retrier.clone());
        let mut tasks = Vec::with_capacity(model.tasks.len());
        for tm in &model.tasks {
            let task = tm.partition.to_string();
            let labels = [
                ("job", job),
                ("container", container.as_str()),
                ("task", task.as_str()),
            ];
            let mut ctx = TaskContext::new(
                tm.task_name.clone(),
                tm.partition,
                tm.input_partitions.clone(),
                registry.clone(),
            );
            // `init` restores the stores from their changelogs.
            for store_cfg in &config.stores {
                let mut store = KeyValueStore::with_changelog(
                    store_cfg.name.clone(),
                    broker.clone(),
                    store_cfg.changelog_topic.clone(),
                    tm.partition,
                );
                store.set_retrier(retrier.clone());
                let store_labels = [&labels[..], &[("store", store_cfg.name.as_str())]].concat();
                store.set_metrics(StoreMetrics::new(registry, &store_labels));
                ctx.register_store(store);
            }
            tasks.push(TaskInstance {
                task: factory.create(tm.partition),
                ctx,
                positions: BTreeMap::new(),
                bootstrap_pending: BTreeMap::new(),
                rotation: 0,
                processed_since_commit: 0,
                shutdown: false,
                out_scratch: OutScratch::default(),
                counters: TaskCounters::new(registry, &labels),
            });
        }
        Ok(Container {
            broker,
            config,
            model,
            checkpoints,
            tasks,
            initialized: false,
            retrier,
            commit_crash: Cell::new(None),
            idle_waits,
        })
    }

    /// Arm a one-shot crash at `point` in the next commit sequence. The
    /// injected failure surfaces as a task error, which the cluster treats
    /// exactly like a container crash — the recovery path under test.
    pub fn arm_commit_crash(&self, point: CommitPoint) {
        self.commit_crash.set(Some(point));
    }

    /// Initialize every task: restore stores, position inputs from
    /// checkpoints, capture bootstrap targets, then call `StreamTask::init`.
    pub fn init(&mut self) -> Result<()> {
        if self.initialized {
            return Ok(());
        }
        // Ensure changelog topics exist with one partition per task
        // (changelog partition == task partition, Samza's convention). The
        // job's task count is the max partition count across its inputs —
        // computed from input metadata, NOT from this container's task
        // subset, so whichever container initializes first creates the topic
        // at full width.
        let mut job_partitions = 1u32;
        for input in &self.config.inputs {
            job_partitions = job_partitions.max(self.broker.partition_count(&input.topic)?);
        }
        for store_cfg in &self.config.stores {
            self.broker.ensure_topic(
                &store_cfg.changelog_topic,
                TopicConfig::with_partitions(job_partitions),
            )?;
        }
        let bootstrap_topics: BTreeSet<&str> = self
            .config
            .inputs
            .iter()
            .filter(|i| i.bootstrap)
            .map(|i| i.topic.as_str())
            .collect();

        for ti in &mut self.tasks {
            for store_cfg in &self.config.stores {
                ti.ctx.store_mut(&store_cfg.name)?.restore()?;
            }
            // Positions: checkpoint for regular inputs; log start for
            // bootstrap inputs (they are always re-read in full so the task
            // can rebuild derived caches).
            let checkpoint = self.checkpoints.read_last(&ti.ctx.task_name)?;
            for tp in &ti.ctx.input_partitions {
                let is_bootstrap = bootstrap_topics.contains(tp.topic.as_str());
                let start = self.broker.start_offset(&tp.topic, tp.partition)?;
                let pos = if is_bootstrap {
                    start
                } else {
                    checkpoint
                        .as_ref()
                        .and_then(|c| c.offsets.get(tp).copied())
                        .unwrap_or(start)
                        .max(start)
                };
                ti.positions.insert(tp.clone(), pos);
                if is_bootstrap {
                    let target = self.broker.end_offset(&tp.topic, tp.partition)?;
                    if target > pos {
                        ti.bootstrap_pending.insert(tp.clone(), target);
                    }
                }
            }
            ti.task.init(&mut ti.ctx)?;
        }
        self.initialized = true;
        Ok(())
    }

    /// Run one scheduling step: each task polls a batch (bootstrap inputs
    /// first) and processes it. Returns the number of messages processed
    /// across all tasks.
    pub fn step(&mut self) -> Result<u64> {
        self.init()?;
        let mut processed = 0u64;
        for idx in 0..self.tasks.len() {
            processed += self.step_task(idx)?;
        }
        Ok(processed)
    }

    /// One turn of a continuous container's loop: a [`step`](Self::step),
    /// and if it processed nothing, a park until some produce call moves
    /// the broker's append sequence or `IDLE_PARK` (10 ms) passes. The sequence
    /// is read before the step, so an append that races the step ends the
    /// park at once. Returns the step's processed count.
    pub fn step_or_park(&mut self) -> Result<u64> {
        let seen = self.broker.append_seq();
        let processed = self.step()?;
        if processed == 0 {
            self.idle_waits.inc();
            self.broker.wait_for_append(seen, IDLE_PARK);
        }
        Ok(processed)
    }

    fn step_task(&mut self, idx: usize) -> Result<u64> {
        let commit_interval = self.config.commit_interval_messages;
        // Cheap Arc-backed clones so the task borrow below doesn't conflict.
        let broker = self.broker.clone();
        let checkpoints = self.checkpoints.clone();
        let retrier = self.retrier.clone();
        let commit_crash = &self.commit_crash;
        let ti = &mut self.tasks[idx];
        if ti.shutdown {
            return Ok(0);
        }

        // Choose which partitions may deliver: pending bootstrap partitions
        // exclusively, until all are drained (§2, Bootstrap Streams).
        let candidates: Vec<TopicPartition> = if ti.bootstrap_pending.is_empty() {
            ti.ctx.input_partitions.clone()
        } else {
            ti.bootstrap_pending.keys().cloned().collect()
        };
        if candidates.is_empty() {
            return Ok(0);
        }

        // Fetch one contiguous slice per partition under a shared budget,
        // so each slice can be handed to the task whole.
        let mut slices: Vec<Vec<IncomingMessageEnvelope>> = Vec::new();
        let mut fetched_total = 0usize;
        let n = candidates.len();
        for i in 0..n {
            if fetched_total >= FETCH_BATCH {
                break;
            }
            let tp = &candidates[(ti.rotation + i) % n];
            let pos = *ti.positions.get(tp).expect("assigned partition");
            // Transient broker faults are ridden out here; OffsetOutOfRange
            // is non-retriable, so it passes through the retrier verbatim
            // and the position-reset path still works.
            let attempt = retrier
                .run(|| broker.fetch(&tp.topic, tp.partition, pos, FETCH_BATCH - fetched_total));
            let fetched = match attempt {
                Ok(f) => f,
                Err(KafkaError::OffsetOutOfRange { start, .. }) => {
                    ti.positions.insert(tp.clone(), start);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            if fetched.records.is_empty() {
                continue;
            }
            let shared_tp = Arc::new(tp.clone());
            let slice: Vec<IncomingMessageEnvelope> = fetched
                .records
                .into_iter()
                .map(|rec| IncomingMessageEnvelope {
                    tp: Arc::clone(&shared_tp),
                    offset: rec.offset,
                    timestamp: rec.message.timestamp,
                    key: rec.message.key,
                    payload: rec.message.value,
                })
                .collect();
            fetched_total += slice.len();
            slices.push(slice);
        }
        ti.rotation = (ti.rotation + 1) % n;

        let mut collector = MessageCollector::new();
        let mut coordinator = TaskCoordinator::default();
        let mut processed = 0u64;
        let task_partition = ti.ctx.partition;
        for slice in &slices {
            let mut i = 0usize;
            while i < slice.len() {
                // Hand the task as much of the slice as fits before the next
                // commit boundary, so batching never changes *when* commits
                // fire relative to the message stream.
                let mut take = slice.len() - i;
                if commit_interval > 0 {
                    take = take.min((commit_interval - ti.processed_since_commit) as usize);
                }
                let consumed = ti
                    .task
                    .process_batch(
                        &slice[i..i + take],
                        &mut ti.ctx,
                        &mut collector,
                        &mut coordinator,
                    )
                    .inspect_err(|_| ti.counters.process_errors.inc())?;
                if consumed == 0 {
                    return Err(crate::error::SamzaError::Task {
                        task: ti.ctx.task_name.clone(),
                        message: "process_batch consumed no envelopes".into(),
                    });
                }
                let consumed = consumed.min(take);
                // Positions advance as messages are *processed*, so a
                // mid-batch checkpoint never claims unprocessed input.
                let last = &slice[i + consumed - 1];
                *ti.positions
                    .get_mut(&*last.tp)
                    .expect("fetched from an assigned partition") = last.offset + 1;
                processed += consumed as u64;
                ti.processed_since_commit += consumed as u64;
                ti.counters.messages_processed.add(consumed as u64);
                // Commit when the interval elapses or the task asked for it.
                if coordinator.take_commit()
                    || (commit_interval > 0 && ti.processed_since_commit >= commit_interval)
                {
                    ti.processed_since_commit = 0;
                    Self::commit_task(
                        ti,
                        &mut collector,
                        &broker,
                        &retrier,
                        &checkpoints,
                        commit_crash,
                    )?;
                }
                i += consumed;
            }
        }

        // Flush whatever remains buffered after the batch.
        Self::flush_outputs(
            &broker,
            &retrier,
            &mut collector,
            &mut ti.out_scratch,
            &ti.counters.messages_sent,
            task_partition,
        )?;

        // Bootstrap bookkeeping: a pending partition is done once its
        // position reaches the end offset captured at init.
        ti.bootstrap_pending
            .retain(|tp, target| ti.positions.get(tp).is_none_or(|pos| pos < target));
        if coordinator.shutdown_requested() {
            ti.shutdown = true;
        }
        Ok(processed)
    }

    /// Samza's commit sequence for one task: flush pending output, flush
    /// state changelogs, then checkpoint input positions. Durability
    /// strictly leads the checkpoint, so a crash at any boundary replays
    /// input rather than losing effects. An armed [`CommitPoint`] crash
    /// fires at its boundary.
    fn commit_task(
        ti: &mut TaskInstance,
        collector: &mut MessageCollector,
        broker: &Broker,
        retrier: &Retrier,
        checkpoints: &CheckpointManager,
        commit_crash: &Cell<Option<CommitPoint>>,
    ) -> Result<()> {
        crash_if_armed(
            commit_crash,
            CommitPoint::BeforeOutputFlush,
            &ti.ctx.task_name,
        )?;
        Self::flush_outputs(
            broker,
            retrier,
            collector,
            &mut ti.out_scratch,
            &ti.counters.messages_sent,
            ti.ctx.partition,
        )?;
        crash_if_armed(
            commit_crash,
            CommitPoint::AfterOutputFlush,
            &ti.ctx.task_name,
        )?;
        ti.ctx.flush_changelogs()?;
        crash_if_armed(
            commit_crash,
            CommitPoint::AfterChangelogFlush,
            &ti.ctx.task_name,
        )?;
        let cp = Checkpoint {
            offsets: ti.positions.clone(),
        };
        checkpoints.write(&ti.ctx.task_name, &cp)?;
        ti.counters.commits.inc();
        crash_if_armed(
            commit_crash,
            CommitPoint::AfterCheckpoint,
            &ti.ctx.task_name,
        )
    }

    /// Send everything the collector buffered, routing by explicit partition,
    /// key hash, or (keyless) the task's own partition — which preserves
    /// input partitioning on derived streams.
    ///
    /// Envelopes are grouped by destination so every (topic, partition) run
    /// is appended through [`Broker::produce_batch`] under one log-lock
    /// acquisition. The stable sort preserves send order within each
    /// partition, which is all the log guarantees anyway.
    fn flush_outputs(
        broker: &Broker,
        retrier: &Retrier,
        collector: &mut MessageCollector,
        scratch: &mut OutScratch,
        sent: &Counter,
        task_partition: u32,
    ) -> Result<()> {
        let OutScratch {
            envelopes: scratch,
            run,
        } = scratch;
        // A run a failed flush left behind was never appended.
        run.clear();
        collector.drain_into(scratch);
        sent.add(scratch.len() as u64);
        if scratch.is_empty() {
            return Ok(());
        }
        // Partition counts, looked up once per distinct topic per flush
        // (every lookup takes the broker's topic-map lock).
        let mut counts: Vec<(Arc<str>, u32)> = Vec::new();
        for env in scratch.iter_mut() {
            if env.partition.is_none() {
                let count = match counts.iter().find(|(topic, _)| **topic == *env.topic) {
                    Some(&(_, count)) => count,
                    None => {
                        let count = broker.partition_count(&env.topic)?;
                        counts.push((Arc::clone(&env.topic), count));
                        count
                    }
                };
                env.partition = Some(match &env.key {
                    Some(k) => hash_bytes(k) % count,
                    None => task_partition % count,
                });
            }
        }
        scratch.sort_by(|a, b| (&*a.topic, a.partition).cmp(&(&*b.topic, b.partition)));
        // Each accepted append moves the run's messages into the log and
        // leaves the run buffer empty for the next run. The broker rejects a
        // faulted batch before taking anything from it, so a retried append
        // sends the same run again and never duplicates records.
        let mut i = 0;
        while i < scratch.len() {
            let topic = Arc::clone(&scratch[i].topic);
            let partition = scratch[i].partition.expect("resolved above");
            let mut j = i;
            while j < scratch.len()
                && *scratch[j].topic == *topic
                && scratch[j].partition == Some(partition)
            {
                let env = &mut scratch[j];
                run.push(Message {
                    key: env.key.take(),
                    value: std::mem::take(&mut env.payload),
                    timestamp: env.timestamp,
                });
                j += 1;
            }
            retrier.run(|| broker.produce_batch(&topic, partition, &mut *run, AckMode::Leader))?;
            i = j;
        }
        scratch.clear();
        Ok(())
    }

    /// Run steps until every task's inputs are fully drained (no lag), then
    /// commit all tasks. Intended for finite test/bench workloads.
    pub fn run_until_caught_up(&mut self) -> Result<u64> {
        self.init()?;
        let mut total = 0u64;
        loop {
            let processed = self.step()?;
            total += processed;
            if self.tasks.iter().all(|t| t.shutdown) {
                break;
            }
            if processed == 0 && self.total_lag()? == 0 {
                break;
            }
        }
        self.commit_all()?;
        Ok(total)
    }

    /// Invoke `StreamTask::window` on every task once and flush the
    /// resulting output. Used by bounded (historical) SamzaSQL queries to
    /// trigger end-of-input flushing after the inputs are drained.
    pub fn window_all(&mut self) -> Result<()> {
        self.init()?;
        let broker = self.broker.clone();
        let retrier = self.retrier.clone();
        for ti in &mut self.tasks {
            let mut collector = MessageCollector::new();
            let mut coordinator = TaskCoordinator::default();
            ti.task
                .window(&mut ti.ctx, &mut collector, &mut coordinator)?;
            ti.counters.window_calls.inc();
            let task_partition = ti.ctx.partition;
            Self::flush_outputs(
                &broker,
                &retrier,
                &mut collector,
                &mut ti.out_scratch,
                &ti.counters.messages_sent,
                task_partition,
            )?;
        }
        Ok(())
    }

    /// Run the full commit sequence for every task now, exactly as the
    /// periodic commit does (nothing is buffered between steps, so the
    /// output flush has nothing to send).
    pub fn commit_all(&mut self) -> Result<()> {
        let mut collector = MessageCollector::new();
        for ti in &mut self.tasks {
            Self::commit_task(
                ti,
                &mut collector,
                &self.broker,
                &self.retrier,
                &self.checkpoints,
                &self.commit_crash,
            )?;
        }
        Ok(())
    }

    /// Unprocessed records across all tasks and inputs.
    pub fn total_lag(&self) -> Result<u64> {
        let mut lag = 0u64;
        for ti in &self.tasks {
            for (tp, pos) in &ti.positions {
                lag += self
                    .broker
                    .end_offset(&tp.topic, tp.partition)?
                    .saturating_sub(*pos);
            }
        }
        Ok(lag)
    }

    /// Number of tasks whose bootstrap phase is still pending.
    pub fn tasks_bootstrapping(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| !t.bootstrap_pending.is_empty())
            .count()
    }

    /// The container id within the job.
    pub fn container_id(&self) -> u32 {
        self.model.container_id
    }

    /// Access a task's context by partition (test/diagnostic hook).
    pub fn task_context(&self, partition: u32) -> Option<&TaskContext> {
        self.tasks
            .iter()
            .find(|t| t.ctx.partition == partition)
            .map(|t| &t.ctx)
    }
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Container")
            .field("job", &self.config.name)
            .field("id", &self.model.container_id)
            .field("tasks", &self.tasks.len())
            .finish()
    }
}
