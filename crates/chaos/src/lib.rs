//! Deterministic fault-injection harness (chaos testing for the facility).
//!
//! Everything here is driven by a single `u64` seed so any failure is
//! reproducible bit-for-bit:
//!
//! - [`FaultPlan`] derives disk-fault probabilities and an adversarial
//!   network schedule from a seed. [`ScheduledPolicy`] plugs the schedule
//!   into [`tabs_net::Network`] as a [`tabs_net::DatagramPolicy`]
//!   (deterministic drop / duplicate / delay-reorder decisions).
//! - [`CrashController`] arms one registered crash point (see
//!   [`registry`]) on one node and, the instant execution reaches it,
//!   makes the node *dead to the world*: its log device and disks stop
//!   accepting writes ([`tabs_wal::LogFaults`], [`tabs_kernel::DiskFaults`])
//!   and it is detached and partitioned from the network. The thread that
//!   hit the point keeps running, but nothing it does escapes volatile
//!   memory — exactly the failure model of a machine losing power, without
//!   having to kill OS threads.
//! - [`ChaosRunner`] sweeps every registered crash point over canonical
//!   bank-transfer workloads (single-node and distributed two-phase
//!   commit), reboots, recovers, and checks the [`runner`] module's
//!   invariant oracle: atomicity, durability of reported-committed work,
//!   conservation of money, no leaked locks, and idempotent re-recovery.
//!
//! Every failure message starts with `seed=<N> crash_point=<name>` so a
//! red run can be replayed exactly.

pub mod controller;
pub mod migrate;
pub mod overload;
pub mod plan;
pub mod replicate;
pub mod runner;

pub use controller::{CrashController, KillLog, NodeFaults};
pub use migrate::MIGRATION_POINTS;
pub use overload::OverloadKillRun;
pub use plan::{ChaosRng, DiskFaultSpec, FaultPlan, NetSchedule, ScheduledPolicy};
pub use replicate::{ReplicationLatency, REPLICATION_POINTS};
pub use runner::{
    registry, ChaosRunner, Outcome, PartitionRun, Xfer, GROUP_COMMIT_POINTS, PAIRWISE_ARMS,
    SINGLE_NODE_POINTS, TWO_PC_POINTS,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_concatenates_all_layer_crash_points() {
        let reg = registry();
        assert_eq!(
            reg.len(),
            tabs_wal::CRASH_POINTS.len()
                + tabs_rm::CRASH_POINTS.len()
                + tabs_tm::CRASH_POINTS.len()
                + tabs_shard::CRASH_POINTS.len()
                + tabs_shard::REP_CRASH_POINTS.len()
        );
        // No duplicates and stable naming convention: `<layer>.<step>.<edge>`.
        let mut sorted: Vec<_> = reg.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), reg.len(), "crash-point names must be unique");
        for p in &reg {
            assert!(
                p.starts_with("wal.")
                    || p.starts_with("rm.")
                    || p.starts_with("tm.")
                    || p.starts_with("shard.")
                    || p.starts_with("rep."),
                "unexpected crash-point prefix: {p}"
            );
        }
    }

    #[test]
    fn sweep_points_cover_the_registry_exactly() {
        let mut swept: Vec<&str> = Vec::new();
        swept.extend_from_slice(SINGLE_NODE_POINTS);
        swept.extend_from_slice(GROUP_COMMIT_POINTS);
        swept.extend_from_slice(TWO_PC_POINTS);
        swept.extend_from_slice(MIGRATION_POINTS);
        swept.extend_from_slice(REPLICATION_POINTS);
        swept.sort_unstable();
        swept.dedup();
        let mut reg = registry();
        reg.sort_unstable();
        assert_eq!(swept, reg, "sweep lists must partition the registry");
    }
}
