//! The task API: what user code (and SamzaSQL's generated operator tasks)
//! implements.

use crate::error::Result;
use crate::kv::KeyValueStore;
use crate::system::{IncomingMessageEnvelope, MessageCollector};
use samzasql_kafka::TopicPartition;
use samzasql_obs::MetricsRegistry;
use std::collections::BTreeMap;

/// Lets a task signal the container, like Samza's `TaskCoordinator`.
#[derive(Debug, Default)]
pub struct TaskCoordinator {
    commit_requested: bool,
    shutdown_requested: bool,
}

impl TaskCoordinator {
    /// Request an immediate checkpoint after this process call.
    pub fn commit(&mut self) {
        self.commit_requested = true;
    }

    /// Request that the whole container shut down cleanly.
    pub fn shutdown(&mut self) {
        self.shutdown_requested = true;
    }

    /// Take and clear the commit flag.
    pub(crate) fn take_commit(&mut self) -> bool {
        std::mem::take(&mut self.commit_requested)
    }

    /// Observe the shutdown flag.
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }
}

/// Per-task runtime context: identity, assigned partitions, local stores.
pub struct TaskContext {
    /// Task name, e.g. `"Partition 3"` (Samza's default task naming).
    pub task_name: String,
    /// The partition id this task owns across all inputs.
    pub partition: u32,
    /// Input partitions assigned to this task.
    pub input_partitions: Vec<TopicPartition>,
    /// Local stores by configured name.
    stores: BTreeMap<String, KeyValueStore>,
    /// The deployment's metrics registry, where a task mints any
    /// instruments of its own (Samza's `TaskContext.getMetricsRegistry`).
    pub metrics_registry: MetricsRegistry,
}

impl TaskContext {
    pub fn new(
        task_name: impl Into<String>,
        partition: u32,
        input_partitions: Vec<TopicPartition>,
        metrics_registry: MetricsRegistry,
    ) -> Self {
        TaskContext {
            task_name: task_name.into(),
            partition,
            input_partitions,
            stores: BTreeMap::new(),
            metrics_registry,
        }
    }

    /// Register a store under its configured name (done by the container
    /// when it builds the task; the store is restored from its changelog
    /// at task initialization).
    pub fn register_store(&mut self, store: KeyValueStore) {
        self.stores.insert(store.name().to_string(), store);
    }

    /// Borrow a store mutably by name.
    pub fn store_mut(&mut self, name: &str) -> Result<&mut KeyValueStore> {
        self.optional_store_mut(name)
            .ok_or_else(|| crate::error::SamzaError::UnknownStore(name.to_string()))
    }

    /// Borrow a store mutably by name, if the task has one; unlike
    /// [`store_mut`](Self::store_mut), a missing store builds no error.
    pub fn optional_store_mut(&mut self, name: &str) -> Option<&mut KeyValueStore> {
        self.stores.get_mut(name)
    }

    /// Borrow a store by name.
    pub fn store(&self, name: &str) -> Result<&KeyValueStore> {
        self.stores
            .get(name)
            .ok_or_else(|| crate::error::SamzaError::UnknownStore(name.to_string()))
    }

    /// Names of all registered stores, in order.
    pub fn store_names(&self) -> Vec<String> {
        self.stores.keys().cloned().collect()
    }

    /// Flush every store's buffered changelog entries (commit path).
    pub fn flush_changelogs(&mut self) -> Result<()> {
        for store in self.stores.values_mut() {
            store.flush_changelog()?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for TaskContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskContext")
            .field("task_name", &self.task_name)
            .field("partition", &self.partition)
            .field("stores", &self.store_names())
            .finish()
    }
}

/// The streaming task interface (Samza's `StreamTask` + `InitableTask` +
/// `WindowableTask` folded into one trait with default no-op hooks).
pub trait StreamTask: Send {
    /// Called once before any message is delivered, after store restore and
    /// after bootstrap inputs are identified. SamzaSQL performs its
    /// task-side query planning and operator generation here (§4.2).
    fn init(&mut self, _ctx: &mut TaskContext) -> Result<()> {
        Ok(())
    }

    /// Called for every delivered message.
    fn process(
        &mut self,
        envelope: &IncomingMessageEnvelope,
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        coordinator: &mut TaskCoordinator,
    ) -> Result<()>;

    /// Called with a whole fetched batch for one partition; returns how many
    /// envelopes were consumed (the container advances its checkpoint
    /// position past exactly that many).
    ///
    /// The default loops [`StreamTask::process`], stopping early when the
    /// task requests a commit so per-message checkpoint semantics are
    /// preserved for third-party tasks. Batch-aware tasks (SamzaSQL's
    /// generated operator task) override this to run whole batches through
    /// their pipeline.
    fn process_batch(
        &mut self,
        envelopes: &[IncomingMessageEnvelope],
        ctx: &mut TaskContext,
        collector: &mut MessageCollector,
        coordinator: &mut TaskCoordinator,
    ) -> Result<usize> {
        for (i, envelope) in envelopes.iter().enumerate() {
            self.process(envelope, ctx, collector, coordinator)?;
            if coordinator.commit_requested {
                return Ok(i + 1);
            }
        }
        Ok(envelopes.len())
    }

    /// Called once per task at end of input, after every input is drained
    /// (`WindowableTask`): only `Container::window_all` calls it, which
    /// `bounded::run_bounded` runs for bounded queries. Windowed and
    /// relational aggregates flush their final results here.
    fn window(
        &mut self,
        _ctx: &mut TaskContext,
        _collector: &mut MessageCollector,
        _coordinator: &mut TaskCoordinator,
    ) -> Result<()> {
        Ok(())
    }
}

/// Creates one task instance per partition; the factory is the runtime
/// analogue of the `task.class` configuration entry.
pub trait TaskFactory: Send + Sync {
    fn create(&self, partition: u32) -> Box<dyn StreamTask>;
}

impl<F> TaskFactory for F
where
    F: Fn(u32) -> Box<dyn StreamTask> + Send + Sync,
{
    fn create(&self, partition: u32) -> Box<dyn StreamTask> {
        self(partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_flags() {
        let mut c = TaskCoordinator::default();
        assert!(!c.take_commit());
        c.commit();
        assert!(c.take_commit());
        assert!(!c.take_commit(), "commit flag clears after take");
        assert!(!c.shutdown_requested());
        c.shutdown();
        assert!(c.shutdown_requested());
    }

    #[test]
    fn context_store_registry() {
        let mut ctx = TaskContext::new("Partition 0", 0, vec![], MetricsRegistry::new());
        assert!(ctx.store("s").is_err());
        ctx.register_store(KeyValueStore::ephemeral("s"));
        assert!(ctx.store("s").is_ok());
        assert!(ctx.store_mut("s").is_ok());
        assert_eq!(ctx.store_names(), vec!["s".to_string()]);
    }

    #[test]
    fn closure_task_factory() {
        struct Nop;
        impl StreamTask for Nop {
            fn process(
                &mut self,
                _: &IncomingMessageEnvelope,
                _: &mut TaskContext,
                _: &mut MessageCollector,
                _: &mut TaskCoordinator,
            ) -> Result<()> {
                Ok(())
            }
        }
        let factory = |_p: u32| -> Box<dyn StreamTask> { Box::new(Nop) };
        let _task = factory.create(7);
    }
}
