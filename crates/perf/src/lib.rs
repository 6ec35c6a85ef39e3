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
//! - [`contention`] — the deadlock-resolution microbenchmark comparing
//!   the paper's time-out policy against the probe-based detector
//!   (p50/p95 resolution latency, victims per second).
//! - [`groupcommit`] — the group-commit microbenchmark: stable-storage
//!   forces per committed transaction, batched versus the seed
//!   one-force-per-commit path.
//! - [`partition`] — the partition-recovery microbenchmark: in-doubt
//!   resolution latency after a coordinator crash, cooperative
//!   termination versus the retransmit-timeout-only baseline.
//! - [`mod@load`] — the sustained load generator: open- and closed-loop
//!   drivers over the bank and mixed-server scenarios.
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
//! - [`report`] — the [`Workload`] trait unifying every bench
//!   entrypoint, the serializable [`BenchReport`] rows they emit, and the
//!   versioned `BENCH_*.json` format.
//! - [`tables`] — ASCII renderers regenerating every table.

pub mod bench;
pub mod contention;
pub mod cost;
pub mod fastpath;
pub mod groupcommit;
pub mod load;
pub mod model;
pub mod overload;
pub mod paper;
pub mod partition;
pub mod replicate;
pub mod report;
pub mod scale;
pub mod tables;

pub use bench::{benchmarks, run_all, BenchResult, BenchWorld, Benchmark, CommitClass};
pub use contention::{ContentionResult, ContentionWorkload};
pub use cost::{CostTable, ACHIEVABLE, PERQ_T2};
pub use fastpath::{FastpathRun, FastpathWorkload};
pub use groupcommit::{GroupCommitResult, GroupCommitWorkload};
pub use load::{LoadProfile, LoadResult, LoadWorkload};
pub use model::{improved_counts, predicted_ms, Projection};
pub use overload::{OverloadRun, OverloadWorkload};
pub use paper::PaperWorkload;
pub use partition::{PartitionResult, PartitionWorkload};
pub use replicate::{ReplicateResult, ReplicateWorkload};
pub use report::{
    registry, BenchFile, BenchReport, Json, RunOpts, Workload, WorkloadOutput, BENCH_SCHEMA_VERSION,
};
pub use scale::{ScaleRun, ScaleWorkload};

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
