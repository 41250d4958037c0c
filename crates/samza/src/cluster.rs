//! Cluster simulation: nodes, per-job application masters, container
//! placement, and failure injection.
//!
//! The paper deploys Samza on YARN with ZooKeeper; each job gets an
//! application master that "makes scheduling and resource management
//! decisions on behalf of its job" (§2, *Masterless Design*). Here a
//! [`ClusterSim`] holds a set of nodes with container capacities. Submitting
//! a job plans its [`JobModel`], places one thread per container on a node
//! with free capacity (each container receives its
//! [`ContainerModel`](crate::coordinator::ContainerModel) in process), and
//! returns a [`JobHandle`].
//!
//! **Liveness is coordination-driven.** Every container incarnation owns a
//! coordination session (heartbeated from the container thread) and an
//! ephemeral znode `/samza/jobs/<job>/containers/<id>`. The job's AM arms a
//! deletion watch on that node; when the session expires — crash,
//! force-expiry, dropped heartbeats — the node vanishes, the watch fires,
//! and the AM reschedules the container on a node with capacity. The
//! replacement restores state from changelogs and resumes from the last
//! checkpoint, which is exactly the recovery path §4.3 describes.

use crate::config::JobConfig;
use crate::container::Container;
use crate::coordinator::JobModel;
use crate::error::{Result, SamzaError};
use crate::task::TaskFactory;
use samzasql_coord::{Coord, CoordError, SessionId};
use samzasql_kafka::Broker;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;

/// Session timeout for container liveness. The coordination clock is manual,
/// so sessions only expire when a test advances it or force-expires them;
/// the generous value keeps tests that `advance` it to expire other
/// sessions from collaterally killing containers.
pub(crate) const CONTAINER_SESSION_TIMEOUT_MS: u64 = 60_000;

/// Capacity description of one simulated node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    pub name: String,
    /// Maximum containers this node can host.
    pub container_slots: u32,
}

impl NodeConfig {
    pub fn new(name: impl Into<String>, container_slots: u32) -> Self {
        NodeConfig {
            name: name.into(),
            container_slots,
        }
    }
}

#[derive(Debug)]
struct Node {
    config: NodeConfig,
    used_slots: u32,
}

struct RunningContainer {
    node_index: usize,
    stop: Arc<AtomicBool>,
    /// Crash flag: exit immediately without the final commit.
    crash: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<()>>>,
    /// Messages processed by this container incarnation plus predecessors.
    processed: Arc<AtomicU64>,
    /// Incarnation counter (bumps on every restart).
    generation: u32,
    /// Coordination session whose ephemeral node advertises liveness.
    session: SessionId,
}

struct JobState {
    config: JobConfig,
    model: JobModel,
    factory: Arc<dyn TaskFactory>,
    containers: HashMap<u32, RunningContainer>,
}

/// Handle to a submitted job: observe progress, inject failures, stop it.
#[derive(Clone)]
pub struct JobHandle {
    cluster: ClusterSim,
    job_name: String,
}

/// The simulated cluster (nodes + jobs). Cloneable shared handle.
#[derive(Clone)]
pub struct ClusterSim {
    inner: Arc<Mutex<ClusterState>>,
    broker: Broker,
    coord: Coord,
}

struct ClusterState {
    nodes: Vec<Node>,
    jobs: HashMap<String, JobState>,
}

fn coord_err(e: CoordError) -> SamzaError {
    SamzaError::Cluster(format!("coordination: {e}"))
}

impl ClusterSim {
    /// Create a cluster over `broker` with the given nodes and a fresh
    /// coordination service.
    pub fn new(broker: Broker, nodes: Vec<NodeConfig>) -> Self {
        ClusterSim::with_coord(broker, nodes, Coord::new())
    }

    /// Create a cluster sharing an existing coordination service (so tests
    /// can drive expiry and watch the same znode tree the AM uses).
    pub fn with_coord(broker: Broker, nodes: Vec<NodeConfig>, coord: Coord) -> Self {
        ClusterSim {
            inner: Arc::new(Mutex::new(ClusterState {
                nodes: nodes
                    .into_iter()
                    .map(|config| Node {
                        config,
                        used_slots: 0,
                    })
                    .collect(),
                jobs: HashMap::new(),
            })),
            broker,
            coord,
        }
    }

    /// A single-node cluster with ample capacity — the common test setup.
    pub fn single_node(broker: Broker) -> Self {
        ClusterSim::new(broker, vec![NodeConfig::new("node-0", 1024)])
    }

    /// The coordination service backing job metadata and liveness.
    pub fn coord(&self) -> &Coord {
        &self.coord
    }

    /// Znode path advertising a container's liveness.
    fn container_path(job_name: &str, container_id: u32) -> String {
        format!("/samza/jobs/{job_name}/containers/{container_id}")
    }

    /// Submit a job: plan its model, place containers, start their threads,
    /// and arm liveness watches.
    pub fn submit(&self, config: JobConfig, factory: Arc<dyn TaskFactory>) -> Result<JobHandle> {
        let model = JobModel::plan(&config, &self.broker)?;
        let mut registrations = Vec::new();
        {
            let mut st = self.inner.lock().unwrap();
            if st.jobs.contains_key(&config.name) {
                return Err(SamzaError::Cluster(format!(
                    "job {} already running",
                    config.name
                )));
            }
            let mut job = JobState {
                config: config.clone(),
                model: model.clone(),
                factory,
                containers: HashMap::new(),
            };
            for cm in &model.containers {
                let node_index = Self::find_slot(&mut st.nodes).ok_or_else(|| {
                    SamzaError::Cluster(format!(
                        "no node capacity for container {} of job {}",
                        cm.container_id, config.name
                    ))
                })?;
                let session = self.coord.create_session(CONTAINER_SESSION_TIMEOUT_MS);
                let rc = Self::launch(
                    &self.broker,
                    &self.coord,
                    session,
                    &job.config,
                    &job.model,
                    cm.container_id,
                    &*job.factory,
                    node_index,
                    0,
                    Arc::new(AtomicU64::new(0)),
                )?;
                job.containers.insert(cm.container_id, rc);
                registrations.push((cm.container_id, session, 0u32));
            }
            st.jobs.insert(config.name.clone(), job);
        }
        // Outside the cluster lock: a liveness node that is already gone is
        // handled on this thread, and that handler takes the lock.
        for (container_id, session, generation) in registrations {
            self.register_liveness(&config.name, container_id, session, generation);
        }
        Ok(JobHandle {
            cluster: self.clone(),
            job_name: config.name,
        })
    }

    fn find_slot(nodes: &mut [Node]) -> Option<usize> {
        let idx = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.used_slots < n.config.container_slots)
            .min_by_key(|(_, n)| n.used_slots)
            .map(|(i, _)| i)?;
        nodes[idx].used_slots += 1;
        Some(idx)
    }

    #[allow(clippy::too_many_arguments)]
    fn launch(
        broker: &Broker,
        coord: &Coord,
        session: SessionId,
        config: &JobConfig,
        model: &JobModel,
        container_id: u32,
        factory: &dyn TaskFactory,
        node_index: usize,
        generation: u32,
        processed: Arc<AtomicU64>,
    ) -> Result<RunningContainer> {
        let cm = model
            .containers
            .iter()
            .find(|c| c.container_id == container_id)
            .expect("container id from model")
            .clone();
        let mut container = Container::new(broker.clone(), config.clone(), cm, factory)?;
        let stop = Arc::new(AtomicBool::new(false));
        let crash = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let crash2 = crash.clone();
        let processed2 = processed.clone();
        let coord2 = coord.clone();
        let thread = std::thread::Builder::new()
            .name(format!("{}-c{}-g{}", config.name, container_id, generation))
            .spawn(move || -> Result<()> {
                container.init()?;
                while !stop2.load(Ordering::Relaxed) && !crash2.load(Ordering::Relaxed) {
                    // Advertise liveness. A failed heartbeat means the
                    // session already expired — the AM is (or will be)
                    // replacing this incarnation; keep draining until the
                    // crash flag lands rather than racing it.
                    let _ = coord2.heartbeat(session);
                    // An empty step parks until new input may have arrived;
                    // stop, kill and crash wake the park.
                    let n = match container.step_or_park() {
                        Ok(n) => n,
                        Err(e) => {
                            // A step error IS a container crash. Retire the
                            // session from a helper thread so the ephemeral
                            // node vanishes and the AM's liveness watch
                            // respawns a replacement; closing it from this
                            // thread would self-deadlock (the watch handler
                            // joins this very thread).
                            let coord3 = coord2.clone();
                            std::thread::spawn(move || {
                                let _ = coord3.close_session(session);
                            });
                            return Err(e);
                        }
                    };
                    processed2.fetch_add(n, Ordering::Relaxed);
                }
                if !crash2.load(Ordering::Relaxed) {
                    container.commit_all()?;
                }
                Ok(())
            })
            .expect("spawn container thread");
        Ok(RunningContainer {
            node_index,
            stop,
            crash,
            thread: Some(thread),
            processed,
            generation,
            session,
        })
    }

    /// Create the container's ephemeral liveness node and arm the AM's
    /// deletion watch on it. Must be called WITHOUT the cluster lock held.
    fn register_liveness(
        &self,
        job_name: &str,
        container_id: u32,
        session: SessionId,
        generation: u32,
    ) {
        let path = Self::container_path(job_name, container_id);
        // The session may already be dead (e.g. force-expired immediately
        // after launch); arming the watch below then finds the node absent.
        let _ = self
            .coord
            .create_ephemeral(session, path.as_str(), generation.to_string());
        // The watch turns the node's disappearance into a reschedule. Its
        // callback holds only a weak reference to the cluster state so a
        // dropped cluster does not live on inside the coordination service.
        let weak: Weak<Mutex<ClusterState>> = Arc::downgrade(&self.inner);
        let broker = self.broker.clone();
        let coord = self.coord.clone();
        let job = job_name.to_string();
        let armed = self.coord.watch_deleted(path, move || {
            let Some(inner) = weak.upgrade() else { return };
            let cluster = ClusterSim {
                inner,
                broker,
                coord,
            };
            cluster.on_container_node_deleted(&job, container_id);
        });
        if !armed {
            // The node vanished before the watch was armed (session expired
            // in the creation window), so nothing will fire: handle the loss
            // directly.
            self.on_container_node_deleted(job_name, container_id);
        }
    }

    /// AM reaction to a container's liveness node disappearing: if the
    /// registered incarnation's session is really gone, tear the incarnation
    /// down and reschedule a successor.
    fn on_container_node_deleted(&self, job_name: &str, container_id: u32) {
        // Phase 1: detach the dead incarnation under the lock.
        let mut rc = {
            let mut st = self.inner.lock().unwrap();
            let Some(job) = st.jobs.get_mut(job_name) else {
                return;
            };
            let Some(rc) = job.containers.get(&container_id) else {
                // Deliberate kill/stop already detached it; nothing to do.
                return;
            };
            if self.coord.session_alive(rc.session) {
                // Stale watch: a newer incarnation already owns the slot.
                return;
            }
            let rc = job.containers.remove(&container_id).expect("present above");
            st.nodes[rc.node_index].used_slots -= 1;
            rc
        };
        // The session died, so the incarnation never commits: crash it.
        rc.crash.store(true, Ordering::Relaxed);
        self.broker.wake_waiters();
        if let Some(t) = rc.thread.take() {
            let _ = t.join();
        }
        let _ = self.respawn(job_name, container_id, rc.generation + 1, rc.processed);
    }

    /// Schedule a fresh incarnation of a container (new session, new node
    /// placement), then advertise and watch its liveness.
    fn respawn(
        &self,
        job_name: &str,
        container_id: u32,
        generation: u32,
        processed: Arc<AtomicU64>,
    ) -> Result<()> {
        let session = self.coord.create_session(CONTAINER_SESSION_TIMEOUT_MS);
        {
            let mut st = self.inner.lock().unwrap();
            let st_ref = &mut *st;
            let job = st_ref
                .jobs
                .get_mut(job_name)
                .ok_or_else(|| SamzaError::Cluster(format!("job {job_name} vanished")))?;
            let new_node = Self::find_slot(&mut st_ref.nodes)
                .ok_or_else(|| SamzaError::Cluster("no capacity for restart".into()))?;
            let rc = Self::launch(
                &self.broker,
                &self.coord,
                session,
                &job.config,
                &job.model,
                container_id,
                &*job.factory,
                new_node,
                generation,
                processed,
            )?;
            job.containers.insert(container_id, rc);
        }
        self.register_liveness(job_name, container_id, session, generation);
        Ok(())
    }

    /// Kill a container (simulated node/process failure): its thread is
    /// stopped *without* a final commit, its in-memory state discarded, and a
    /// replacement container is scheduled, restoring from changelog +
    /// checkpoint.
    pub fn kill_and_restart_container(&self, job_name: &str, container_id: u32) -> Result<()> {
        // Phase 1: take the dying container out under the lock.
        let mut rc = {
            let mut st = self.inner.lock().unwrap();
            let job = st
                .jobs
                .get_mut(job_name)
                .ok_or_else(|| SamzaError::Cluster(format!("unknown job {job_name}")))?;
            let rc = job.containers.remove(&container_id).ok_or_else(|| {
                SamzaError::Cluster(format!("unknown container {container_id} of {job_name}"))
            })?;
            st.nodes[rc.node_index].used_slots -= 1;
            rc
        };
        // Abrupt kill: the crash flag makes the thread exit WITHOUT its
        // final commit, so uncheckpointed progress is genuinely lost and
        // must be replayed by the replacement. Heap state drops with the
        // container.
        rc.crash.store(true, Ordering::Relaxed);
        self.broker.wake_waiters();
        if let Some(t) = rc.thread.take() {
            let _ = t.join();
        }
        // Retire the incarnation's session: its ephemeral node disappears
        // and the armed watch fires, but the handler sees the container
        // already detached (removed above) and stands down — this deliberate
        // restart owns the reschedule.
        let _ = self.coord.close_session(rc.session);
        // Phase 2: reschedule on (possibly another) node.
        self.respawn(job_name, container_id, rc.generation + 1, rc.processed)
    }

    /// Stop a job cleanly: signal every container, join threads, retire
    /// their sessions, and drop the job's znode subtree.
    pub fn stop_job(&self, job_name: &str) -> Result<()> {
        let containers = {
            let mut st = self.inner.lock().unwrap();
            let job = st
                .jobs
                .remove(job_name)
                .ok_or_else(|| SamzaError::Cluster(format!("unknown job {job_name}")))?;
            for rc in job.containers.values() {
                st.nodes[rc.node_index].used_slots -= 1;
            }
            job.containers
        };
        for rc in containers.values() {
            rc.stop.store(true, Ordering::Relaxed);
        }
        self.broker.wake_waiters();
        for (_, mut rc) in containers {
            if let Some(t) = rc.thread.take() {
                t.join()
                    .map_err(|_| SamzaError::Cluster("container thread panicked".into()))??;
            }
            let _ = self.coord.close_session(rc.session);
        }
        self.coord
            .delete_recursive(format!("/samza/jobs/{job_name}"))
            .map_err(coord_err)?;
        Ok(())
    }

    /// Total messages processed by a job so far (across restarts).
    pub fn job_processed(&self, job_name: &str) -> u64 {
        let st = self.inner.lock().unwrap();
        st.jobs
            .get(job_name)
            .map(|j| {
                j.containers
                    .values()
                    .map(|c| c.processed.load(Ordering::Relaxed))
                    .sum()
            })
            .unwrap_or(0)
    }

    /// The coordination session of a container's current incarnation.
    pub fn container_session(&self, job_name: &str, container_id: u32) -> Option<SessionId> {
        let st = self.inner.lock().unwrap();
        st.jobs
            .get(job_name)?
            .containers
            .get(&container_id)
            .map(|rc| rc.session)
    }

    /// The generation (incarnation count) of a container.
    pub fn container_generation(&self, job_name: &str, container_id: u32) -> Option<u32> {
        let st = self.inner.lock().unwrap();
        st.jobs
            .get(job_name)?
            .containers
            .get(&container_id)
            .map(|rc| rc.generation)
    }

    /// Names of running jobs, sorted.
    pub fn running_jobs(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.lock().unwrap().jobs.keys().cloned().collect();
        names.sort();
        names
    }

    /// Used slots per node (diagnostics).
    pub fn node_usage(&self) -> Vec<(String, u32, u32)> {
        self.inner
            .lock()
            .unwrap()
            .nodes
            .iter()
            .map(|n| {
                (
                    n.config.name.clone(),
                    n.used_slots,
                    n.config.container_slots,
                )
            })
            .collect()
    }

    /// The broker this cluster executes against.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }
}

impl JobHandle {
    /// Messages processed so far.
    pub fn processed(&self) -> u64 {
        self.cluster.job_processed(&self.job_name)
    }

    /// Kill + restart one container.
    pub fn kill_container(&self, container_id: u32) -> Result<()> {
        self.cluster
            .kill_and_restart_container(&self.job_name, container_id)
    }

    /// Stop the job and join its containers.
    pub fn stop(self) -> Result<()> {
        self.cluster.stop_job(&self.job_name)
    }

    /// Job name.
    pub fn name(&self) -> &str {
        &self.job_name
    }
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("jobs", &self.running_jobs())
            .field("nodes", &self.node_usage())
            .finish()
    }
}
