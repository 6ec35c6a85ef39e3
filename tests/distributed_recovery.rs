//! Integration tests: distributed transactions under crashes.
//!
//! These span the whole stack — kernel, WAL, recovery, 2PC, the
//! Communication Manager's proxies and the server library.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tabs_codec::Decode;
use tabs_core::{Cluster, NodeId, Tid, TmTimeouts};
use tabs_net::{DatagramFate, DatagramPolicy};
use tabs_proto::{CommitMsg, Datagram};
use tabs_servers::IntArrayClient;
use tabs_tm::TxPhase;

mod common;
use common::{boot_with_array, client_for};

#[test]
fn participant_crash_before_prepare_aborts_transaction() {
    let cluster = Cluster::new();
    let (n1, a1) = boot_with_array(&cluster, 1, "a");
    let (n2, _a2) = boot_with_array(&cluster, 2, "b");
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), a1.send_right());
    let remote = client_for(&n1, "b");

    let t = app.begin_transaction(Tid::NULL).unwrap();
    local.set(t, 0, 1).unwrap();
    remote.set(t, 0, 2).unwrap();
    // The participant dies before the coordinator commits.
    n2.crash();
    // Commit cannot gather the vote: the transaction aborts.
    assert!(app.end_transaction(t).unwrap().is_aborted(), "commit must fail");
    // Local effects were rolled back.
    let t2 = app.begin_transaction(Tid::NULL).unwrap();
    assert_eq!(local.get(t2, 0).unwrap(), 0);
    app.end_transaction(t2).unwrap();
    n1.shutdown();
}

#[test]
fn rebooted_participant_learns_commit_outcome() {
    let cluster = Cluster::new();
    let (n1, a1) = boot_with_array(&cluster, 1, "a");
    let (n2, _a2) = boot_with_array(&cluster, 2, "b");
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), a1.send_right());
    let remote = client_for(&n1, "b");

    // Run a full committed distributed transaction first.
    let t = app.begin_transaction(Tid::NULL).unwrap();
    local.set(t, 0, 10).unwrap();
    remote.set(t, 0, 20).unwrap();
    assert!(app.end_transaction(t).unwrap().is_committed());

    // Crash and reboot the participant: its durable state must hold the
    // committed remote value.
    n2.crash();
    let (n2, _a2b) = boot_with_array(&cluster, 2, "b");
    let app2 = n2.app();
    let local2 = client_for(&n2, "b");
    let t2 = app2.begin_transaction(Tid::NULL).unwrap();
    assert_eq!(local2.get(t2, 0).unwrap(), 20);
    app2.end_transaction(t2).unwrap();
    n1.shutdown();
    n2.shutdown();
}

/// Loses every `Commit` decision datagram while armed; all other
/// traffic (prepares, votes, inquiries, heartbeats) passes.
struct LoseCommitDecisions(AtomicBool);

impl DatagramPolicy for LoseCommitDecisions {
    fn route(&self, _from: NodeId, _to: NodeId, body: &[u8]) -> DatagramFate {
        let decision =
            matches!(Datagram::decode_all(body), Ok(Datagram::Commit(CommitMsg::Commit { .. })));
        if decision && self.0.load(Ordering::Relaxed) {
            DatagramFate::Drop
        } else {
            DatagramFate::Deliver
        }
    }
}

#[test]
fn acknowledged_commit_survives_losing_every_decision_and_the_coordinator() {
    // The client holds `Committed` from the commit point on — before any
    // participant has heard the decision. Here no participant ever does:
    // every Commit datagram is lost, then the coordinator crashes, taking
    // its pending phase-2 chase with it. The durable commit record plus
    // the participant's Inquire must still land the transaction.
    let snappy = TmTimeouts {
        retransmit: Duration::from_millis(20),
        vote_deadline: Duration::from_millis(200),
        ack_deadline: Duration::from_secs(5),
    };
    let cluster = Cluster::new();
    let lossy = Arc::new(LoseCommitDecisions(AtomicBool::new(true)));
    cluster.network().set_datagram_policy(Arc::clone(&lossy) as Arc<dyn DatagramPolicy>);
    let (n1, a1) = boot_with_array(&cluster, 1, "a");
    let (n2, a2) = boot_with_array(&cluster, 2, "b");
    n1.tm.set_timeouts(snappy);
    n2.tm.set_timeouts(snappy);
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), a1.send_right());
    let remote = client_for(&n1, "b");

    let t = app.begin_transaction(Tid::NULL).unwrap();
    local.set(t, 0, 10).unwrap();
    remote.set(t, 0, 20).unwrap();
    let asked = Instant::now();
    assert!(app.end_transaction(t).unwrap().is_committed());
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "the commit acknowledgement waited on phase 2 ({:?})",
        asked.elapsed()
    );
    // The participant is in doubt, its locks held, and the coordinator's
    // chaser keeps trying in vain.
    assert!(!cluster.quiesce(Duration::from_millis(100)), "a lost decision was acknowledged?");
    assert_eq!(n2.tm.phase(t), Some(TxPhase::Prepared));
    assert!(a2.server().locks().locked_object_count() > 0);
    assert!(cluster.metrics(NodeId(1)).counter("tm.phase2.retransmits").get() > 0);
    assert_eq!(cluster.metrics(NodeId(1)).counter("tm.phase2.pending").get(), 1);

    // The coordinator dies with the decision undelivered, and comes back
    // on its disks; the wire stops losing datagrams.
    drop((local, remote, a1));
    n1.crash();
    lossy.0.store(false, Ordering::Relaxed);
    let (n1, a1) = boot_with_array(&cluster, 1, "a");
    n1.tm.set_timeouts(snappy);

    // The in-doubt participant pulls the outcome: commit.
    let deadline = Instant::now() + Duration::from_secs(10);
    while n2.tm.phase(t) != Some(TxPhase::Committed) {
        assert!(Instant::now() < deadline, "in-doubt participant never resolved");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(n2.tm.in_doubt_tids().is_empty());
    while a2.server().locks().locked_object_count() > 0 {
        assert!(Instant::now() < deadline, "participant locks never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    let read = |node: &tabs_core::Node, name: &str| {
        let app = node.app();
        let client = client_for(node, name);
        let t = app.begin_transaction(Tid::NULL).unwrap();
        let v = client.get(t, 0).unwrap();
        app.end_transaction(t).unwrap();
        v
    };
    assert_eq!((read(&n1, "a"), read(&n2, "b")), (10, 20), "an acknowledged commit was lost");

    // Re-recovery is idempotent: crash everything twice more.
    drop((a1, a2));
    n1.crash();
    n2.crash();
    for round in 0..2 {
        let (n1, a1) = boot_with_array(&cluster, 1, "a");
        let (n2, a2) = boot_with_array(&cluster, 2, "b");
        assert_eq!((read(&n1, "a"), read(&n2, "b")), (10, 20), "re-recovery round {round}");
        assert_eq!(a1.server().locks().locked_object_count(), 0);
        assert_eq!(a2.server().locks().locked_object_count(), 0);
        drop((a1, a2));
        n1.crash();
        n2.crash();
    }
}

#[test]
fn three_node_commit_survives_participant_reboot() {
    let cluster = Cluster::new();
    let (n1, a1) = boot_with_array(&cluster, 1, "a");
    let (n2, _a2) = boot_with_array(&cluster, 2, "b");
    let (n3, _a3) = boot_with_array(&cluster, 3, "c");
    let app = n1.app();
    let ca = IntArrayClient::new(app.clone(), a1.send_right());
    let cb = client_for(&n1, "b");
    let cc = client_for(&n1, "c");

    let t = app.begin_transaction(Tid::NULL).unwrap();
    ca.set(t, 0, 1).unwrap();
    cb.set(t, 0, 2).unwrap();
    cc.set(t, 0, 3).unwrap();
    assert!(app.end_transaction(t).unwrap().is_committed());

    // Both participants reboot; durable values persist.
    n2.crash();
    n3.crash();
    let (n2, _b2) = boot_with_array(&cluster, 2, "b");
    let (n3, _c2) = boot_with_array(&cluster, 3, "c");
    for (node, want) in [(&n2, 2i64), (&n3, 3i64)] {
        let app = node.app();
        let name = if want == 2 { "b" } else { "c" };
        let client = client_for(node, name);
        let t = app.begin_transaction(Tid::NULL).unwrap();
        assert_eq!(client.get(t, 0).unwrap(), want);
        app.end_transaction(t).unwrap();
    }
    n1.shutdown();
    n2.shutdown();
    n3.shutdown();
}

#[test]
fn repeated_crashes_converge() {
    // Crash the same node three times with mixed committed/uncommitted
    // work; every recovery must land on exactly the committed state.
    let cluster = Cluster::new();
    let mut expected: i64 = 0;
    for round in 1..=3 {
        let (node, arr) = boot_with_array(&cluster, 1, "data");
        let app = node.app();
        let client = IntArrayClient::new(app.clone(), arr.send_right());
        // Check the carried-over value first.
        let t = app.begin_transaction(Tid::NULL).unwrap();
        assert_eq!(client.get(t, 0).unwrap(), expected, "round {round}");
        app.end_transaction(t).unwrap();
        // One committed update.
        expected = round * 100;
        let exp = expected;
        app.run(|t| client.set(t, 0, exp)).unwrap();
        // One uncommitted update rides into the crash.
        let t = app.begin_transaction(Tid::NULL).unwrap();
        client.set(t, 0, -1).unwrap();
        node.rm.force(None).unwrap();
        drop(arr);
        node.crash();
    }
    let (node, arr) = boot_with_array(&cluster, 1, "data");
    let app = node.app();
    let client = IntArrayClient::new(app.clone(), arr.send_right());
    let t = app.begin_transaction(Tid::NULL).unwrap();
    assert_eq!(client.get(t, 0).unwrap(), 300);
    app.end_transaction(t).unwrap();
    node.shutdown();
}

#[test]
fn lossy_network_still_commits() {
    // 2PC datagrams are retransmitted, so a moderately lossy network only
    // slows commit down.
    let cluster = Cluster::with_config(
        tabs_core::ClusterConfig::default()
            .net(tabs_core::NetConfig::default().datagram_loss(0.3).seed(7)),
    );
    let (n1, a1) = boot_with_array(&cluster, 1, "a");
    let (n2, _a2) = boot_with_array(&cluster, 2, "b");
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), a1.send_right());
    let remote = client_for(&n1, "b");
    for i in 0..5 {
        let t = app.begin_transaction(Tid::NULL).unwrap();
        local.set(t, 0, i).unwrap();
        remote.set(t, 0, i).unwrap();
        assert!(app.end_transaction(t).unwrap().is_committed(), "iteration {i}");
    }
    n1.shutdown();
    n2.shutdown();
}

#[test]
fn partition_blocks_commit_then_heals() {
    let cluster = Cluster::new();
    let (n1, a1) = boot_with_array(&cluster, 1, "a");
    let (n2, _a2) = boot_with_array(&cluster, 2, "b");
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), a1.send_right());
    let remote = client_for(&n1, "b");

    // Do remote work, then partition before commit.
    let t = app.begin_transaction(Tid::NULL).unwrap();
    local.set(t, 0, 5).unwrap();
    remote.set(t, 0, 5).unwrap();
    cluster.network().partition(NodeId(1), NodeId(2));
    // Votes cannot arrive: the coordinator aborts after its deadline.
    assert!(app.end_transaction(t).unwrap().is_aborted());

    // After healing, a fresh transaction commits normally.
    cluster.network().heal(NodeId(1), NodeId(2));
    let t2 = app.begin_transaction(Tid::NULL).unwrap();
    local.set(t2, 0, 6).unwrap();
    remote.set(t2, 0, 6).unwrap();
    assert!(app.end_transaction(t2).unwrap().is_committed());
    n1.shutdown();
    n2.shutdown();
}

#[test]
fn subtransaction_with_remote_work_merges_into_parent_commit() {
    // §2.1.3 + §3.2.3: a subtransaction performs operations on a remote
    // node, commits into its parent, and the parent's top-level 2PC must
    // carry the subtransaction's tid (the merged set) so the remote
    // participant prepares and commits that work too.
    let cluster = Cluster::new();
    let (n1, a1) = boot_with_array(&cluster, 1, "a");
    let (n2, _a2) = boot_with_array(&cluster, 2, "b");
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), a1.send_right());
    let remote = client_for(&n1, "b");

    let top = app.begin_transaction(Tid::NULL).unwrap();
    local.set(top, 0, 1).unwrap();

    // The subtransaction does the remote write.
    let sub = app.begin_transaction(top).unwrap();
    remote.set(sub, 0, 2).unwrap();
    assert!(app.end_transaction(sub).unwrap().is_committed(), "subtransaction commits into parent");

    assert!(app.end_transaction(top).unwrap().is_committed(), "top-level 2PC commits");

    // The remote value is durable and visible.
    let t = app.begin_transaction(Tid::NULL).unwrap();
    assert_eq!(remote.get(t, 0).unwrap(), 2);
    app.end_transaction(t).unwrap();

    // The remote node wrote Begin(sub, parent=top) + Prepare + Commit:
    // its log can recover the subtransaction's work under the top tid.
    let recs = n2.rm.log().durable_entries();
    assert!(recs.iter().any(
        |e| matches!(e.record, tabs_wal::LogRecord::Begin { tid, parent } if tid == sub && parent == top)
    ), "remote node learned the subtransaction's ancestry at prepare time");

    // Crash the remote node and recover: the committed remote value holds.
    n2.crash();
    let (n2, _b) = boot_with_array(&cluster, 2, "b");
    let app2 = n2.app();
    let local2 = client_for(&n2, "b");
    let t = app2.begin_transaction(Tid::NULL).unwrap();
    assert_eq!(local2.get(t, 0).unwrap(), 2, "subtransaction work survived the crash");
    app2.end_transaction(t).unwrap();
    n1.shutdown();
    n2.shutdown();
}

#[test]
fn aborted_subtransaction_remote_work_rolled_back_while_parent_commits() {
    let cluster = Cluster::new();
    let (n1, a1) = boot_with_array(&cluster, 1, "a");
    let (n2, _a2) = boot_with_array(&cluster, 2, "b");
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), a1.send_right());
    let remote = client_for(&n1, "b");

    let top = app.begin_transaction(Tid::NULL).unwrap();
    local.set(top, 0, 7).unwrap();
    let sub = app.begin_transaction(top).unwrap();
    remote.set(sub, 0, 99).unwrap();
    app.abort_transaction(sub).unwrap();
    // The parent tolerates the subtransaction failure and commits.
    assert!(app.end_transaction(top).unwrap().is_committed());

    // Remote work of the aborted subtransaction is gone (poll: the abort
    // datagram propagates asynchronously).
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    loop {
        let t = app.begin_transaction(Tid::NULL).unwrap();
        let v = remote.get(t, 0);
        let _ = app.end_transaction(t);
        match v {
            Ok(0) => break,
            Ok(other) => panic!("remote shows {other}, expected rollback to 0"),
            Err(_) => {
                assert!(std::time::Instant::now() < deadline, "remote abort never landed");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // Parent's local work committed.
    let t = app.begin_transaction(Tid::NULL).unwrap();
    assert_eq!(local.get(t, 0).unwrap(), 7);
    app.end_transaction(t).unwrap();
    n1.shutdown();
    n2.shutdown();
}

#[test]
fn stale_proxy_after_remote_restart_is_recoverable() {
    // §3.1.3: data servers are "permanent entities that must persist
    // despite node failures, even though the ports through which they are
    // accessed change." After the remote node reboots, the old proxy's
    // target port is gone; invalidating the name and re-resolving finds
    // the re-registered server.
    let cluster = Cluster::new();
    let (n1, _a1) = boot_with_array(&cluster, 1, "a");
    let (n2, _a2) = boot_with_array(&cluster, 2, "b");
    let app = n1.app();
    let remote = client_for(&n1, "b");
    app.run(|t| remote.set(t, 0, 5)).unwrap();

    // The remote node restarts: same permanent data, fresh ports.
    n2.crash();
    let (n2, _b2) = boot_with_array(&cluster, 2, "b");

    // The old proxy now points at a dead port on the rebooted node.
    let t = app.begin_transaction(Tid::NULL).unwrap();
    assert!(remote.get(t, 0).is_err(), "stale proxy fails visibly");
    app.abort_transaction(t).unwrap();

    // Invalidate the cached name and re-resolve: service restored, and
    // the committed value survived the reboot.
    n1.ns.invalidate("b");
    let fresh = client_for(&n1, "b");
    let t = app.begin_transaction(Tid::NULL).unwrap();
    assert_eq!(fresh.get(t, 0).unwrap(), 5);
    app.end_transaction(t).unwrap();
    n1.shutdown();
    n2.shutdown();
}
