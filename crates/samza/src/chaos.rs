//! Seeded chaos scenarios: composable fault schedules over a running job.
//!
//! A [`ChaosScenario`] is a pure function of its seed — the same seed always
//! yields the same fault kinds, targets, parameters, and injection points —
//! so a failing chaos run is reproducible by printing one number. Scenarios
//! compose every failure mode the stack recovers from:
//!
//! * container kill + restart (state restore from changelog, resume from
//!   checkpoint),
//! * coordination-session expiry and dropped heartbeats (the AM's liveness
//!   watch reschedules the container),
//! * broker leader failover on a replicated input (log truncation to the
//!   committed offset, epoch bump, producers/consumers resume via retries),
//! * transient broker errors (ridden out by the retry layer).
//!
//! The driver loop that pumps a scenario against a cluster lives in the
//! chaos integration tests; this module owns generation and application so
//! tests, benchmarks, and the CI suite share one scenario vocabulary.

use crate::cluster::{ClusterSim, CONTAINER_SESSION_TIMEOUT_MS};
use crate::error::Result;
use samzasql_kafka::{splitmix64, FaultInjector, FaultKind, FaultSchedule, FaultSpec};

/// One injectable fault, fully parameterized at generation time so applying
/// it needs no further randomness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosFault {
    /// Abruptly kill a container (no final commit) and restart it, possibly
    /// on another node.
    KillContainer { container_id: u32 },
    /// Force-expire the container's coordination session; the AM's liveness
    /// watch notices the vanished ephemeral node and reschedules.
    ExpireSession { container_id: u32 },
    /// Silently drop the container's heartbeats, then advance the
    /// coordination clock past the session timeout in steps small enough for
    /// healthy containers to keep their sessions alive.
    DropHeartbeats { container_id: u32 },
    /// Fail the leader of a replicated input partition: the log truncates to
    /// the committed offset, the epoch bumps, and clients ride out the
    /// election via retries. Refused (and skipped) when no in-sync follower
    /// exists or the topic is unreplicated.
    KillLeader { input_index: usize, partition: u32 },
    /// Install a fault injector that fails the next `window` produce and
    /// fetch operations per partition with a retriable error, then heals.
    TransientBrokerErrors { seed: u64, window: u64 },
}

impl std::fmt::Display for ChaosFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosFault::KillContainer { container_id } => {
                write!(f, "kill-container({container_id})")
            }
            ChaosFault::ExpireSession { container_id } => {
                write!(f, "expire-session({container_id})")
            }
            ChaosFault::DropHeartbeats { container_id } => {
                write!(f, "drop-heartbeats({container_id})")
            }
            ChaosFault::KillLeader {
                input_index,
                partition,
            } => write!(f, "kill-leader(input {input_index}, p{partition})"),
            ChaosFault::TransientBrokerErrors { window, .. } => {
                write!(f, "transient-broker-errors(window {window})")
            }
        }
    }
}

/// A fault plus the point in the job's progress (total messages processed,
/// including replays) at which it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    pub after_messages: u64,
    pub fault: ChaosFault,
}

/// Shape parameters for scenario generation.
#[derive(Debug, Clone)]
pub struct ScenarioOptions {
    /// Number of fault events in the scenario.
    pub events: usize,
    /// Container ids eligible for kill/expiry faults (`0..containers`).
    pub containers: u32,
    /// Number of input topics eligible for leader failover (0 disables
    /// [`ChaosFault::KillLeader`], substituting a container kill).
    pub replicated_inputs: usize,
    /// Partitions per input topic (leader-failover target range).
    pub partitions: u32,
    /// Progress point of the first event.
    pub first_at: u64,
    /// Base gap (in processed messages) between consecutive events.
    pub gap: u64,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions {
            events: 6,
            containers: 1,
            replicated_inputs: 0,
            partitions: 1,
            first_at: 50,
            gap: 120,
        }
    }
}

/// A deterministic fault schedule: `generate(seed, opts)` is a pure
/// function, so two runs with the same seed inject identical faults at
/// identical progress points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosScenario {
    pub seed: u64,
    pub events: Vec<ChaosEvent>,
}

impl ChaosScenario {
    /// Build the schedule for `seed`. Fault kinds rotate (offset by the
    /// seed) so every scenario of five or more events exercises every kind
    /// available under `opts`.
    pub fn generate(seed: u64, opts: &ScenarioOptions) -> Self {
        let mut rng_i = 0u64;
        let mut rng = move || {
            rng_i += 1;
            splitmix64(seed ^ rng_i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        };
        let kinds = 5u64;
        let mut at = opts.first_at;
        let mut events = Vec::with_capacity(opts.events);
        for i in 0..opts.events {
            let r = rng();
            let container_id = if opts.containers > 0 {
                (r % opts.containers as u64) as u32
            } else {
                0
            };
            let kind = (seed.wrapping_add(i as u64)) % kinds;
            let fault = match kind {
                0 => ChaosFault::KillContainer { container_id },
                1 => ChaosFault::ExpireSession { container_id },
                2 => ChaosFault::DropHeartbeats { container_id },
                3 if opts.replicated_inputs > 0 => ChaosFault::KillLeader {
                    input_index: (r >> 8) as usize % opts.replicated_inputs,
                    partition: ((r >> 16) % opts.partitions.max(1) as u64) as u32,
                },
                3 => ChaosFault::KillContainer { container_id },
                _ => ChaosFault::TransientBrokerErrors {
                    seed: rng(),
                    // Strictly fewer consecutive faults than the default
                    // client's attempt budget, so retries ride them out.
                    window: 3 + (r >> 24) % 4,
                },
            };
            events.push(ChaosEvent {
                after_messages: at,
                fault,
            });
            at += opts.gap + rng() % opts.gap.max(1);
        }
        ChaosScenario { seed, events }
    }

    /// Apply the `index`-th event's fault to a running job. `inputs` names
    /// the job's (replicated) input topics for leader-failover targeting.
    pub fn apply(
        &self,
        cluster: &ClusterSim,
        job: &str,
        inputs: &[String],
        index: usize,
    ) -> Result<()> {
        apply_fault(cluster, job, inputs, &self.events[index].fault)
    }
}

/// Inject one fault against a live cluster/job. Faults whose target has
/// already recovered past them (e.g. a session that a respawn replaced) are
/// skipped, not errors — chaos schedules race the recovery they provoke.
pub fn apply_fault(
    cluster: &ClusterSim,
    job: &str,
    inputs: &[String],
    fault: &ChaosFault,
) -> Result<()> {
    match fault {
        ChaosFault::KillContainer { container_id } => {
            cluster.kill_and_restart_container(job, *container_id)?;
        }
        ChaosFault::ExpireSession { container_id } => {
            if let Some(session) = cluster.container_session(job, *container_id) {
                // Expiry deletes the ephemeral liveness node; the AM's watch
                // fires synchronously and respawns the container.
                let _ = cluster.coord().force_expire(session);
            }
        }
        ChaosFault::DropHeartbeats { container_id } => {
            if let Some(session) = cluster.container_session(job, *container_id) {
                let _ = cluster.coord().set_drop_heartbeats(session, true);
                // Advance the manual clock past the session timeout in
                // steps, waking parked containers and sleeping between them
                // so healthy container threads (which heartbeat every
                // scheduling loop) keep their sessions alive; only the muted
                // one expires.
                for _ in 0..8 {
                    cluster.coord().advance(CONTAINER_SESSION_TIMEOUT_MS / 6);
                    cluster.broker().wake_waiters();
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
        ChaosFault::KillLeader {
            input_index,
            partition,
        } => {
            if !inputs.is_empty() {
                let topic = &inputs[input_index % inputs.len()];
                // Refused elections (no in-sync follower) are a legitimate
                // outcome: the partition keeps serving from the old leader.
                let _ = cluster.broker().fail_leader(topic, *partition);
            }
        }
        ChaosFault::TransientBrokerErrors { seed, window } => {
            cluster
                .broker()
                .set_fault_injector(Some(FaultInjector::with_specs(
                    *seed,
                    vec![FaultSpec::any(
                        FaultKind::TransientError,
                        FaultSchedule::Window {
                            from: 0,
                            count: *window,
                        },
                    )],
                )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let opts = ScenarioOptions {
            events: 12,
            containers: 3,
            replicated_inputs: 2,
            partitions: 4,
            ..ScenarioOptions::default()
        };
        let a = ChaosScenario::generate(42, &opts);
        let b = ChaosScenario::generate(42, &opts);
        assert_eq!(a, b, "same seed, same schedule");
        let c = ChaosScenario::generate(43, &opts);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn schedules_are_monotone_and_cover_all_kinds() {
        let opts = ScenarioOptions {
            events: 6,
            containers: 2,
            replicated_inputs: 1,
            partitions: 2,
            ..ScenarioOptions::default()
        };
        let s = ChaosScenario::generate(7, &opts);
        assert_eq!(s.events.len(), 6);
        assert!(
            s.events
                .windows(2)
                .all(|w| w[0].after_messages < w[1].after_messages),
            "injection points strictly increase"
        );
        let kinds: std::collections::BTreeSet<u8> = s
            .events
            .iter()
            .map(|e| match e.fault {
                ChaosFault::KillContainer { .. } => 0,
                ChaosFault::ExpireSession { .. } => 1,
                ChaosFault::DropHeartbeats { .. } => 2,
                ChaosFault::KillLeader { .. } => 3,
                ChaosFault::TransientBrokerErrors { .. } => 4,
            })
            .collect();
        assert_eq!(kinds.len(), 5, "six events cover all five fault kinds");
    }

    #[test]
    fn kill_leader_is_substituted_without_replicated_inputs() {
        let opts = ScenarioOptions {
            events: 12,
            containers: 2,
            replicated_inputs: 0,
            ..ScenarioOptions::default()
        };
        let s = ChaosScenario::generate(3, &opts);
        assert!(s
            .events
            .iter()
            .all(|e| !matches!(e.fault, ChaosFault::KillLeader { .. })));
    }

    #[test]
    fn transient_windows_stay_under_retry_budget() {
        for seed in 0..32u64 {
            let s = ChaosScenario::generate(seed, &ScenarioOptions::default());
            for e in &s.events {
                if let ChaosFault::TransientBrokerErrors { window, .. } = e.fault {
                    assert!(
                        window < 8,
                        "window {window} must stay below the default attempt cap"
                    );
                }
            }
        }
    }
}
