//! Job coordination: partition→task grouping and task→container packing.
//!
//! Samza's default `GroupByPartition` grouper: partition *i* of **every**
//! input stream goes to the task named `"Partition i"`. This is what keeps
//! co-partitioned stream-to-relation joins aligned (§4.4: "We assume that
//! change log streams are partitioned in the same way as the other input
//! streams so that data from relations and streams belonging to matching
//! partitions will … end up in the same streaming task").
//!
//! Tasks are then packed round-robin into containers; containers are the
//! unit of placement and failure.

use crate::config::JobConfig;
use crate::error::{Result, SamzaError};
use samzasql_kafka::{Broker, TopicPartition};

/// One task: a name, its partition id, and the input partitions it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskModel {
    pub task_name: String,
    pub partition: u32,
    pub input_partitions: Vec<TopicPartition>,
}

/// One container: an id and the tasks packed into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerModel {
    pub container_id: u32,
    pub tasks: Vec<TaskModel>,
}

/// The full placement of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobModel {
    pub job_name: String,
    pub containers: Vec<ContainerModel>,
}

impl JobModel {
    /// Compute the job model from the configuration and live topic metadata.
    pub fn plan(config: &JobConfig, broker: &Broker) -> Result<JobModel> {
        config.validate()?;
        // Task count = max partition count across inputs (GroupByPartition).
        let mut max_partitions = 0u32;
        let mut input_counts = Vec::with_capacity(config.inputs.len());
        for input in &config.inputs {
            let count = broker.partition_count(&input.topic)?;
            max_partitions = max_partitions.max(count);
            input_counts.push((input.topic.clone(), count));
        }
        if max_partitions == 0 {
            return Err(SamzaError::Config(format!(
                "job {}: inputs have no partitions",
                config.name
            )));
        }
        let mut tasks = Vec::with_capacity(max_partitions as usize);
        for p in 0..max_partitions {
            let input_partitions: Vec<TopicPartition> = input_counts
                .iter()
                .filter(|(_, count)| p < *count)
                .map(|(topic, _)| TopicPartition::new(topic.clone(), p))
                .collect();
            tasks.push(TaskModel {
                task_name: format!("Partition {p}"),
                partition: p,
                input_partitions,
            });
        }
        // Pack tasks round-robin into containers; cap container count at the
        // task count (extra containers would idle — Samza logs and drops
        // them).
        let container_count = config.container_count.min(max_partitions);
        let mut containers: Vec<ContainerModel> = (0..container_count)
            .map(|container_id| ContainerModel {
                container_id,
                tasks: Vec::new(),
            })
            .collect();
        for (i, task) in tasks.into_iter().enumerate() {
            containers[i % container_count as usize].tasks.push(task);
        }
        Ok(JobModel {
            job_name: config.name.clone(),
            containers,
        })
    }

    /// Total number of tasks.
    pub fn task_count(&self) -> usize {
        self.containers.iter().map(|c| c.tasks.len()).sum()
    }

    /// All task models, in partition order.
    pub fn all_tasks(&self) -> Vec<&TaskModel> {
        let mut tasks: Vec<&TaskModel> = self
            .containers
            .iter()
            .flat_map(|c| c.tasks.iter())
            .collect();
        tasks.sort_by_key(|t| t.partition);
        tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InputStreamConfig;
    use samzasql_kafka::TopicConfig;

    fn setup(orders_parts: u32, products_parts: u32) -> (Broker, JobConfig) {
        let b = Broker::new();
        b.create_topic("orders", TopicConfig::with_partitions(orders_parts))
            .unwrap();
        b.create_topic("products", TopicConfig::with_partitions(products_parts))
            .unwrap();
        let cfg = JobConfig::new("j")
            .input(InputStreamConfig::new("orders"))
            .input(InputStreamConfig::new("products").bootstrap());
        (b, cfg)
    }

    #[test]
    fn group_by_partition_aligns_inputs() {
        let (b, cfg) = setup(4, 4);
        let model = JobModel::plan(&cfg, &b).unwrap();
        assert_eq!(model.task_count(), 4);
        let tasks = model.all_tasks();
        for (p, task) in tasks.iter().enumerate() {
            assert_eq!(task.partition, p as u32);
            assert_eq!(
                task.input_partitions,
                vec![
                    TopicPartition::new("orders", p as u32),
                    TopicPartition::new("products", p as u32)
                ]
            );
        }
    }

    #[test]
    fn uneven_partition_counts_skip_missing() {
        let (b, cfg) = setup(4, 2);
        let model = JobModel::plan(&cfg, &b).unwrap();
        assert_eq!(model.task_count(), 4);
        let tasks = model.all_tasks();
        assert_eq!(
            tasks[3].input_partitions,
            vec![TopicPartition::new("orders", 3)]
        );
        assert_eq!(tasks[1].input_partitions.len(), 2);
    }

    #[test]
    fn round_robin_container_packing() {
        let (b, cfg) = setup(8, 8);
        let model = JobModel::plan(&cfg.containers(3), &b).unwrap();
        assert_eq!(model.containers.len(), 3);
        let sizes: Vec<usize> = model.containers.iter().map(|c| c.tasks.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2]);
        // Every partition appears exactly once.
        let mut parts: Vec<u32> = model
            .containers
            .iter()
            .flat_map(|c| c.tasks.iter().map(|t| t.partition))
            .collect();
        parts.sort_unstable();
        assert_eq!(parts, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn container_count_capped_at_task_count() {
        let (b, cfg) = setup(2, 2);
        let model = JobModel::plan(&cfg.containers(10), &b).unwrap();
        assert_eq!(model.containers.len(), 2);
    }

    #[test]
    fn unknown_topic_fails_planning() {
        let b = Broker::new();
        let cfg = JobConfig::new("j").input(InputStreamConfig::new("missing"));
        assert!(JobModel::plan(&cfg, &b).is_err());
    }
}
