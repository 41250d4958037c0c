//! # samzasql-samza
//!
//! A Samza-like distributed stream-processing runtime, built as the execution
//! substrate for SamzaSQL. It reproduces the Samza features the paper's §2
//! singles out:
//!
//! * **Fault-tolerant local state** — each task owns key-value stores whose
//!   writes are mirrored to a changelog stream; on failure the store is
//!   rebuilt by replaying the changelog ([`kv`]).
//! * **Durability** — input positions are checkpointed to a checkpoint
//!   stream; after a failure the task resumes from the last checkpoint and
//!   the broker replays everything after it ([`checkpoint`]).
//! * **Masterless design** — each job has its own application master inside
//!   the simulated cluster; failures in one job never touch another
//!   ([`cluster`]).
//! * **Bootstrap streams** — inputs flagged `bootstrap` are fully drained
//!   (to their end offset captured at start) before any other input is
//!   delivered; SamzaSQL builds stream-to-relation joins on this
//!   ([`container`]).
//!
//! The deployment model follows Samza: a **job** is a set of **tasks** (one
//! per input partition, Samza's default partition grouping) packed into
//! **containers**; containers are threads placed on simulated cluster
//! **nodes** by the job's application master. A ZooKeeper-like coordination
//! service (`samzasql-coord`) carries planner metadata between the SamzaSQL
//! shell and task initialization per the paper's two-step planning, tracks
//! container liveness through ephemeral znodes, and drives failure recovery
//! through watches ([`cluster`]). Bounded (historical) jobs bypass the
//! cluster: one container per task, run to completion largest-first by one
//! scoped worker thread per core ([`bounded`]).

pub mod bounded;
pub mod chaos;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod container;
pub mod coordinator;
pub mod error;
pub mod kv;
pub mod system;
pub mod task;

pub use bounded::{largest_first, run_bounded, worker_count};
pub use chaos::{apply_fault, ChaosEvent, ChaosFault, ChaosScenario, ScenarioOptions};
pub use checkpoint::{Checkpoint, CheckpointManager};
pub use cluster::{ClusterSim, JobHandle, NodeConfig};
pub use config::{InputStreamConfig, JobConfig, StoreConfig};
pub use container::{CommitPoint, Container};
pub use coordinator::{ContainerModel, JobModel, TaskModel};
pub use error::{Result, SamzaError};
pub use kv::{KeyValueStore, StoreMetrics, StoreMetricsSnapshot};
pub use system::{IncomingMessageEnvelope, MessageCollector, OutgoingMessageEnvelope};
pub use task::{StreamTask, TaskContext, TaskCoordinator, TaskFactory};
