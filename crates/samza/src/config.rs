//! Job configuration — the runtime analogue of Samza's property file.
//!
//! §2: "Samza's deployment unit consists of a job package and a property
//! based configuration file. The configuration file specifies the streaming
//! task implementation, input and output configurations, Serdes … local
//! storage configurations." Here a job's configuration holds only what the
//! container acts on: the inputs it reads, the stores it restores and
//! commits, and the container and commit counts. SamzaSQL's tasks take
//! their serdes and output topic from the plan they rebuild out of the
//! coordination service (§4.2), so none of those live here.

use crate::error::{Result, SamzaError};

/// One input stream of a job.
#[derive(Debug, Clone)]
pub struct InputStreamConfig {
    pub topic: String,
    /// Bootstrap streams are fully drained before other inputs deliver.
    pub bootstrap: bool,
}

impl InputStreamConfig {
    pub fn new(topic: impl Into<String>) -> Self {
        InputStreamConfig {
            topic: topic.into(),
            bootstrap: false,
        }
    }

    /// Mark this input as a bootstrap stream.
    pub fn bootstrap(mut self) -> Self {
        self.bootstrap = true;
        self
    }
}

/// Configuration of one task-local key-value store and its changelog.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    pub name: String,
    /// Changelog topic the store is mirrored to and restored from.
    pub changelog_topic: String,
}

impl StoreConfig {
    /// A store with changelog named `{job}-{store}-changelog` by convention.
    pub fn with_changelog(name: impl Into<String>, job: &str) -> Self {
        let name = name.into();
        StoreConfig {
            changelog_topic: format!("{job}-{name}-changelog"),
            name,
        }
    }
}

/// Full job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    pub name: String,
    pub inputs: Vec<InputStreamConfig>,
    pub stores: Vec<StoreConfig>,
    /// Number of containers the job's tasks are packed into.
    pub container_count: u32,
    /// Commit (checkpoint) every N processed messages per task.
    pub commit_interval_messages: u64,
}

impl JobConfig {
    pub fn new(name: impl Into<String>) -> Self {
        JobConfig {
            name: name.into(),
            inputs: Vec::new(),
            stores: Vec::new(),
            container_count: 1,
            commit_interval_messages: 1024,
        }
    }

    pub fn input(mut self, input: InputStreamConfig) -> Self {
        self.inputs.push(input);
        self
    }

    pub fn store(mut self, store: StoreConfig) -> Self {
        self.stores.push(store);
        self
    }

    pub fn containers(mut self, count: u32) -> Self {
        self.container_count = count;
        self
    }

    /// Validate structural invariants before submission.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(SamzaError::Config("job name must not be empty".into()));
        }
        if self.inputs.is_empty() {
            return Err(SamzaError::Config(format!(
                "job {} has no inputs",
                self.name
            )));
        }
        if self.container_count == 0 {
            return Err(SamzaError::Config(format!(
                "job {} must have at least one container",
                self.name
            )));
        }
        if self.inputs.iter().all(|i| i.bootstrap) {
            return Err(SamzaError::Config(format!(
                "job {}: all inputs are bootstrap streams; nothing to process after bootstrap",
                self.name
            )));
        }
        let mut store_names: Vec<&str> = self.stores.iter().map(|s| s.name.as_str()).collect();
        store_names.sort_unstable();
        store_names.dedup();
        if store_names.len() != self.stores.len() {
            return Err(SamzaError::Config(format!(
                "job {}: duplicate store names",
                self.name
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> JobConfig {
        JobConfig::new("j").input(InputStreamConfig::new("orders"))
    }

    #[test]
    fn valid_config_passes() {
        assert!(base().validate().is_ok());
    }

    #[test]
    fn empty_name_and_inputs_rejected() {
        assert!(JobConfig::new("")
            .input(InputStreamConfig::new("t"))
            .validate()
            .is_err());
        assert!(JobConfig::new("j").validate().is_err());
    }

    #[test]
    fn zero_containers_rejected() {
        assert!(base().containers(0).validate().is_err());
    }

    #[test]
    fn all_bootstrap_inputs_rejected() {
        let cfg = JobConfig::new("j").input(InputStreamConfig::new("rel").bootstrap());
        assert!(cfg.validate().is_err());
        // A bootstrap plus a regular input is the valid join shape.
        let cfg = cfg.input(InputStreamConfig::new("orders"));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn duplicate_stores_rejected() {
        let cfg = base()
            .store(StoreConfig::with_changelog("s", "j"))
            .store(StoreConfig::with_changelog("s", "j"));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn changelog_naming_convention() {
        let s = StoreConfig::with_changelog("win", "myjob");
        assert_eq!(s.changelog_topic, "myjob-win-changelog");
    }
}
