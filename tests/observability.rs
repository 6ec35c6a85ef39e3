//! Integration tests for the tabs-obs observability layer: causal order
//! of traced 2PC phases across a two-node cluster, exact agreement
//! between the metrics registry and the underlying `PerfCounters`, and
//! the group-commit surface (window bound, disabled-mode parity with the
//! seed force counts, and the commit-path audit).

use std::sync::Arc;
use std::time::{Duration, Instant};

use tabs_core::prelude::*;
use tabs_kernel::PrimitiveOp;
use tabs_servers::{IntArrayClient, IntArrayServer};

mod common;
use common::AccountingMeter;

/// Boots a traced two-node cluster with one array server per node and
/// returns it together with a client pair bound to node 1's app.
fn traced_world(cluster: &Arc<Cluster>) -> (Node, Node, IntArrayClient, IntArrayClient) {
    let n1 = cluster.boot_node(NodeId(1));
    let n2 = cluster.boot_node(NodeId(2));
    let a1 = IntArrayServer::spawn(&n1, "obs-a1", 32).expect("local array");
    let _a2 = IntArrayServer::spawn(&n2, "obs-a2", 32).expect("remote array");
    n1.recover().expect("recover node 1");
    n2.recover().expect("recover node 2");
    let (remote_port, _) = n1
        .resolve("obs-a2", 1, Duration::from_secs(2))
        .into_iter()
        .next()
        .expect("remote array resolvable");
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), a1.send_right());
    let remote = IntArrayClient::new(app, remote_port);
    (n1, n2, local, remote)
}

/// A committed two-node write must leave a trace whose 2PC phases appear
/// in causal order on the correct nodes: the coordinator (n1) sends
/// PREPARE before the participant (n2) receives it, the participant
/// votes before the coordinator collects the vote, the decision follows
/// the vote, and the ack closes the exchange. Both nodes must also have
/// forced their logs for this transaction.
#[test]
fn two_node_write_traces_all_2pc_phases_in_causal_order() {
    let cluster = Cluster::with_config(ClusterConfig::default().trace(true));
    let (n1, n2, local, remote) = traced_world(&cluster);

    let app = n1.app();
    let tid = app.begin_transaction(Tid::NULL).expect("begin");
    local.set(tid, 3, 111).expect("local write");
    remote.set(tid, 4, 222).expect("remote write");
    assert!(app.end_transaction(tid).expect("end").is_committed());
    // The caller holds Committed from the commit point on; the decision
    // and its ack are traced once phase 2 has drained.
    assert!(cluster.quiesce(Duration::from_secs(5)), "phase 2 never drained");

    let tl = cluster.timeline();
    let phases = [
        tl.position(tid, NodeId(1), |e| matches!(e, TraceEvent::PrepareSend { .. })),
        tl.position(tid, NodeId(2), |e| matches!(e, TraceEvent::PrepareRecv { .. })),
        tl.position(tid, NodeId(2), |e| matches!(e, TraceEvent::VoteSend { .. })),
        tl.position(tid, NodeId(1), |e| matches!(e, TraceEvent::VoteRecv { .. })),
        tl.position(tid, NodeId(1), |e| matches!(e, TraceEvent::DecisionSend { .. })),
        tl.position(tid, NodeId(2), |e| matches!(e, TraceEvent::DecisionRecv { .. })),
        tl.position(tid, NodeId(2), |e| matches!(e, TraceEvent::AckSend { .. })),
        tl.position(tid, NodeId(1), |e| matches!(e, TraceEvent::AckRecv { .. })),
    ];
    let phases: Vec<usize> = phases
        .into_iter()
        .enumerate()
        .map(|(i, p)| p.unwrap_or_else(|| panic!("2PC phase {i} missing from trace")))
        .collect();
    for pair in phases.windows(2) {
        assert!(pair[0] < pair[1], "2PC phases out of causal order: {phases:?}");
    }

    // Commit is durable on both sides: each node forced its log at least
    // once on behalf of this transaction (participant prepare force,
    // coordinator commit force).
    for node in [NodeId(1), NodeId(2)] {
        assert!(
            tl.position(tid, node, |e| matches!(e, TraceEvent::LogForce { .. })).is_some(),
            "no log force traced on {node}"
        );
    }

    // The swimlane rendering carries every phase for human consumption.
    let lane = tl.render_swimlane(tid);
    for needle in ["PREPARE", "VOTE(yes)", "COMMIT", "ACK", "LOG-FORCE"] {
        assert!(lane.contains(needle), "swimlane missing {needle}:\n{lane}");
    }

    n1.shutdown();
    n2.shutdown();
}

/// The metrics registry wraps the node's `PerfCounters` rather than
/// keeping a copy, so over any workload the primitive deltas seen
/// through `Metrics::snapshot` must equal the deltas seen through
/// `Cluster::perf` exactly — not approximately.
#[test]
fn metrics_deltas_match_perf_counters_exactly() {
    let cluster = Cluster::with_config(ClusterConfig::default().trace(true));
    let (n1, n2, local, remote) = traced_world(&cluster);

    let metrics_before: Vec<MetricsSnapshot> =
        [NodeId(1), NodeId(2)].iter().map(|id| cluster.metrics(*id).snapshot()).collect();
    let perf_before: Vec<_> =
        [NodeId(1), NodeId(2)].iter().map(|id| cluster.perf(*id).snapshot()).collect();

    let app = n1.app();
    for round in 0..3u32 {
        let tid = app.begin_transaction(Tid::NULL).expect("begin");
        local.set(tid, 0, i64::from(round)).expect("local write");
        remote.set(tid, 1, i64::from(round) * 10).expect("remote write");
        assert!(app.end_transaction(tid).expect("end").is_committed());
    }
    // `end_transaction` returns at the commit point: n2's commit force and
    // its `CommitAck` must land before two snapshots taken one after the
    // other can be compared.
    assert!(cluster.quiesce(Duration::from_secs(5)), "phase 2 never drained");

    for (i, id) in [NodeId(1), NodeId(2)].into_iter().enumerate() {
        let metrics_delta =
            cluster.metrics(id).snapshot().primitives.since(&metrics_before[i].primitives);
        let perf_delta = cluster.perf(id).snapshot().since(&perf_before[i]);
        assert_eq!(metrics_delta, perf_delta, "metrics and perf counter deltas diverge on {id}");
        // The workload actually moved the counters: every committed
        // distributed write costs datagrams and stable-storage writes.
        assert!(perf_delta.get(PrimitiveOp::Datagram) > 0, "no datagrams counted on {id}");
        assert!(
            perf_delta.get(PrimitiveOp::StableStorageWrite) > 0,
            "no log forces counted on {id}"
        );
    }

    n1.shutdown();
    n2.shutdown();
}

/// A lone committer must not wait out an unbounded batch: its force is
/// issued within the configured group-commit window and the batched
/// force is visible on the timeline with a batch of one.
#[test]
fn lone_committer_is_forced_within_the_group_commit_window() {
    let cluster =
        Cluster::with_config(ClusterConfig::default().trace(true).group_commit(
            GroupCommitConfig { max_delay: Duration::from_millis(25), max_batch: 8 },
        ));
    let n1 = cluster.boot_node(NodeId(1));
    let a1 = IntArrayServer::spawn(&n1, "gc-lone", 4).expect("array");
    n1.recover().expect("recover");
    let app = n1.app();
    let client = IntArrayClient::new(app.clone(), a1.send_right());

    let start = Instant::now();
    let tid = app.begin_transaction(Tid::NULL).expect("begin");
    client.set(tid, 0, 7).expect("write");
    assert!(app.end_transaction(tid).expect("end").is_committed());
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "lone committer stalled far beyond the 25ms window: {elapsed:?}"
    );

    // The commit rode a batch of exactly one, and the record is durable.
    let batched: Vec<u64> = cluster
        .trace(NodeId(1))
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::LogForceBatched { batch_size, .. } => Some(batch_size),
            _ => None,
        })
        .collect();
    assert!(
        batched.contains(&1),
        "no batch-of-one force traced for the lone committer: {batched:?}"
    );
    assert_eq!(cluster.metrics(NodeId(1)).snapshot().counter("wal.group.batches") as usize, {
        batched.len()
    });
    n1.shutdown();
}

/// With `group_commit` unset (the default) the commit path must be
/// byte-identical to the seed: one stable-storage write per committed
/// local transaction, no group counters, no batched trace events.
#[test]
fn disabled_group_commit_reproduces_seed_force_counts() {
    let cluster = Cluster::with_config(ClusterConfig::default().trace(true));
    let n1 = cluster.boot_node(NodeId(1));
    let a1 = IntArrayServer::spawn(&n1, "gc-off", 4).expect("array");
    n1.recover().expect("recover");
    let app = n1.app();
    let client = IntArrayClient::new(app.clone(), a1.send_right());

    let meter = AccountingMeter::start(&cluster, &[NodeId(1)]);
    for round in 0..3i64 {
        let tid = app.begin_transaction(Tid::NULL).expect("begin");
        client.set(tid, 0, round).expect("write");
        assert!(app.end_transaction(tid).expect("end").is_committed());
    }
    let delta = &meter.delta()[0];
    assert_eq!(delta.forces, 3, "seed parity: exactly one commit force per transaction");
    assert_eq!(delta.datagrams, 0, "local commits must not touch the network");

    assert_eq!(delta.counter("wal.group.batches"), 0);
    assert_eq!(delta.counter("wal.group.batched_commits"), 0);
    assert!(
        !cluster
            .trace(NodeId(1))
            .snapshot()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::LogForceBatched { .. })),
        "disabled group commit must not emit batched-force events"
    );
    n1.shutdown();
}

/// Commit-path force audit: under a five-transaction workload (three
/// local, two distributed) every commit-path force — local commits,
/// coordinator commits, participant prepares and participant commits —
/// must go through the batched path. A future caller bypassing group
/// commit shows up as a stable-storage write with no matching batch.
#[test]
fn audit_all_commit_path_forces_ride_the_batched_path() {
    let cluster = Cluster::with_config(
        ClusterConfig::default()
            .trace(true)
            .group_commit(GroupCommitConfig { max_delay: Duration::from_millis(5), max_batch: 8 }),
    );
    let (n1, n2, local, remote) = traced_world(&cluster);
    let app = n1.app();

    let nodes = [NodeId(1), NodeId(2)];
    let meter = AccountingMeter::start(&cluster, &nodes);

    // Three local transactions: one commit force each on node 1.
    for round in 0..3i64 {
        let tid = app.begin_transaction(Tid::NULL).expect("begin");
        local.set(tid, 0, round).expect("local write");
        assert!(app.end_transaction(tid).expect("end").is_committed());
    }
    // Two distributed transactions: a coordinator commit force on node 1,
    // a prepare force and a commit force on node 2, each.
    for round in 0..2i64 {
        let tid = app.begin_transaction(Tid::NULL).expect("begin");
        local.set(tid, 1, round).expect("local write");
        remote.set(tid, 2, round).expect("remote write");
        assert!(app.end_transaction(tid).expect("end").is_committed());
    }

    // Expected commit-path force counts per node for the 5-transaction
    // workload: n1 = 3 local + 2 coordinator commits; n2 = 2 prepares +
    // 2 participant commits.
    for (delta, expected) in meter.delta().iter().zip([5u64, 4u64]) {
        let id = delta.node;
        assert_eq!(
            delta.counter("wal.group.batched_commits"),
            expected,
            "{id}: commit-path forces missing from the batched path (bypass?)"
        );
        assert_eq!(
            delta.forces,
            delta.counter("wal.group.batches"),
            "{id}: stable-storage writes not accounted as batches — a commit-path force \
             bypassed group commit"
        );
    }
    n1.shutdown();
    n2.shutdown();
}
