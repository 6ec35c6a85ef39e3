//! The §5 performance-evaluation methodology.
//!
//! "The analysis that we propose is based on the notion that each
//! benchmark is substantially made up of the repetitious execution of a
//! collection of primitive operations, such as disk reads or inter-node
//! datagrams. … the pre-commit latency of a transaction that is due to the
//! execution of primitive operations is a sum of the primitive operation
//! times weighted by the numbers of primitive operations performed."
//!
//! This crate reproduces that methodology over the real (reimplemented)
//! system:
//!
//! - [`cost`] — the primitive-operation cost tables: Table 5-1 (measured
//!   Perq T2 times) and Table 5-5 (achievable times).
//! - [`mod@bench`] — the fourteen benchmark transactions of Table 5-4, driven
//!   against a live three-node cluster with instrumented counters, split
//!   into pre-commit and commit phases exactly as Tables 5-2 and 5-3
//!   split them.
//! - [`groupcommit`] — the group-commit microbenchmark: stable-storage
//!   forces per committed transaction, batched versus the seed
//!   one-force-per-commit path.
//! - [`partition`] — the partition-recovery microbenchmark: in-doubt
//!   resolution latency after a coordinator crash, cooperative
//!   termination versus the retransmit-timeout-only baseline.
//! - [`fastpath`] — the commit fast paths (1PC, read-only voter
//!   drop-out), counted exactly per transaction shape beside the full
//!   two-phase-commit price of the same shapes.
//! - [`overload`] — the admission-control bench: a 3×-capacity spike
//!   against shedding and end-to-end deadlines, gated on a
//!   metastability oracle (goodput retention, bounded admitted-work
//!   tails, post-spike re-convergence).
//! - [`model`] — predicted latency (counts × costs), the
//!   "Improved TABS Architecture" and "New Primitive Times" projections,
//!   and the §5.2/§7 latency-accounting compositions.
//! - [`paper`] — the published numbers, for side-by-side comparison.
//! - [`tables`] — ASCII renderers regenerating every table.
//! - [`ablations`] — the design choices DESIGN.md §4 calls out, each
//!   checked on counts and outcomes: value vs operation logging,
//!   time-out vs detection, recovery scan vs log length, type-specific
//!   locking.
//!
//! The `tables` binary (`src/bin/tables.rs`) runs each of them and exits 1
//! when a workload's gate fails.

pub mod ablations;
pub mod bench;
pub mod cost;
pub mod fastpath;
pub mod groupcommit;
pub mod model;
pub mod overload;
pub mod paper;
pub mod partition;
pub mod replicate;
pub mod tables;

pub use bench::{benchmarks, run_all, BenchResult, BenchWorld, Benchmark, CommitClass};
pub use cost::{CostTable, ACHIEVABLE, PERQ_T2};
pub use fastpath::FastpathRun;
pub use groupcommit::GroupCommitResult;
pub use model::{improved_counts, predicted_ms, Projection};
pub use overload::OverloadRun;
pub use partition::PartitionResult;
pub use replicate::ReplicateResult;

use std::time::Duration;

/// The nearest-rank `p`-th percentile (0–100) of `sorted`, which must be
/// in ascending order; `Duration::ZERO` when there are no samples.
pub fn percentile(sorted: &[Duration], p: u32) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[(sorted.len() - 1) * p as usize / 100]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let ms = Duration::from_millis;
        let sorted = [ms(10), ms(20), ms(30)];
        assert_eq!(percentile(&sorted, 0), ms(10));
        assert_eq!(percentile(&sorted, 50), ms(20));
        assert_eq!(percentile(&sorted, 99), ms(20));
        assert_eq!(percentile(&sorted, 100), ms(30));
        assert_eq!(percentile(&[], 50), Duration::ZERO);
    }
}
