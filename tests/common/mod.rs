//! Helpers shared by the cross-crate integration suites.
//!
//! The cluster-building implementations live in `tabs_servers::harness`
//! so the perf scenarios use the same code; this module re-exports them
//! for the test binaries and adds the [`AccountingMeter`], the
//! message/force-accounting oracle the fast-path and group-commit suites
//! assert exact per-commit costs with. Each suite is compiled as its own
//! test binary, so not every helper is used by every binary.
#![allow(unused_imports, dead_code)]

use std::sync::Arc;
use std::time::Duration;

use tabs_core::{Cluster, MetricsSnapshot};
use tabs_kernel::{NodeId, PerfSnapshot, PrimitiveOp};

pub use tabs_servers::harness::{
    boot_with_array, boot_with_array_cells, client_for, spawn_suite, ServerSuite,
};

/// Exact message/force accounting over a measured window, per node.
///
/// Wraps each node's Table 5-1 primitive counters and its named-counter
/// registry into before/after deltas, so a test can assert "this
/// workload cost exactly N datagrams and M forces on node k" instead of
/// eyeballing totals that include boot and seeding noise. Start the
/// meter after setup, run the workload, then read [`AccountingMeter::delta`].
///
/// A distributed commit returns at the commit point, with the
/// participants' commit forces and acknowledgements still in flight, so
/// both edges of the window first wait for the cluster's phase-2 chasers
/// to drain ([`Cluster::quiesce`]): setup traffic stays out of the
/// window and every measured commit's full cost lands inside it.
pub struct AccountingMeter {
    cluster: Arc<Cluster>,
    nodes: Vec<NodeId>,
    perf_before: Vec<PerfSnapshot>,
    metrics_before: Vec<MetricsSnapshot>,
}

/// One node's accounting deltas over the meter's window.
pub struct NodeAccounting {
    /// The node measured.
    pub node: NodeId,
    /// Inter-node datagrams this node sent during the window.
    pub datagrams: u64,
    /// Stable-storage forces this node paid during the window.
    pub forces: u64,
    primitives: PerfSnapshot,
    metrics_before: MetricsSnapshot,
    metrics_now: MetricsSnapshot,
}

impl NodeAccounting {
    /// Delta of any Table 5-1 primitive-operation count.
    pub fn primitive(&self, op: PrimitiveOp) -> u64 {
        self.primitives.get(op)
    }

    /// Delta of a named metrics counter (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics_now.counter(name) - self.metrics_before.counter(name)
    }
}

fn quiesce(cluster: &Cluster) {
    assert!(cluster.quiesce(Duration::from_secs(5)), "phase 2 never drained");
}

impl AccountingMeter {
    /// Starts a window over `nodes`, snapshotting their counters now.
    pub fn start(cluster: &Arc<Cluster>, nodes: &[NodeId]) -> Self {
        quiesce(cluster);
        Self {
            cluster: Arc::clone(cluster),
            nodes: nodes.to_vec(),
            perf_before: nodes.iter().map(|&id| cluster.perf(id).snapshot()).collect(),
            metrics_before: nodes.iter().map(|&id| cluster.metrics(id).snapshot()).collect(),
        }
    }

    /// The per-node deltas since [`AccountingMeter::start`], in the
    /// node order given there. The window stays open: calling again
    /// returns fresh deltas against the same start point.
    pub fn delta(&self) -> Vec<NodeAccounting> {
        quiesce(&self.cluster);
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let primitives = self.cluster.perf(id).snapshot().since(&self.perf_before[i]);
                NodeAccounting {
                    node: id,
                    datagrams: primitives.get(PrimitiveOp::Datagram),
                    forces: primitives.get(PrimitiveOp::StableStorageWrite),
                    primitives,
                    metrics_before: self.metrics_before[i].clone(),
                    metrics_now: self.cluster.metrics(id).snapshot(),
                }
            })
            .collect()
    }

    /// Sum of datagram deltas across all metered nodes.
    pub fn total_datagrams(&self) -> u64 {
        self.delta().iter().map(|d| d.datagrams).sum()
    }

    /// Sum of force deltas across all metered nodes.
    pub fn total_forces(&self) -> u64 {
        self.delta().iter().map(|d| d.forces).sum()
    }
}
