//! Minority-kill replication sweep: arms every `rep.*` crash point (and
//! every `tm.*` two-phase-commit point) with a replica-set member as the
//! victim, over a replicated bank shard with transfers in flight, and
//! checks that the majority never stops committing.
//!
//! The scenario is a three-node cluster whose single bank shard is
//! replicated on all three nodes (leader 1, followers 2 and 3). Node 3
//! also hosts the client router, so the victim is always a *minority* of
//! the replica set: the leader or follower 2. The armed
//! [`CrashController`] makes the victim dead to the world the instant
//! any hooked layer reaches the armed point — the client's write
//! fan-out, a resync probe, the victim's own Recovery/Transaction
//! Manager, or the coordinator's commit protocol. The oracle then
//! demands exactly what the replication layer promises:
//!
//! 1. **Non-blocking commit** — once the survivors suspect the victim, a
//!    fresh transfer must commit (the replica set's missing vote is
//!    waived by the majority, never waited out).
//! 2. **Convergent rejoin** — the victim reboots on its surviving disks,
//!    is resynced from a survivor, and every member's full shard
//!    snapshot must be byte-identical; no member is left in doubt.
//! 3. **The standard oracle** — after a full-cluster crash and reboot:
//!    conservation, durability of reported-committed transfers, drained
//!    lock tables, replica equality again, and idempotent re-recovery.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tabs_codec::Decode;
use tabs_core::{Cluster, Node, NodeId, Tid};
use tabs_kernel::CrashHooks;
use tabs_shard::{
    resolve_owner_port, shard_name, Partitioning, Replicator, ResyncOptions, ShardClient, ShardMap,
    ShardServer, OP_SNAP,
};

use crate::controller::{CrashController, KillLog, NodeFaults};
use crate::migrate::{boot_sharded, poll_key, poll_shard_locks_drained, shard_transfer};
use crate::runner::{
    check_model, install_fault_disk, install_fault_log, Outcome, Xfer, BASE, CHAOS_TIMEOUTS,
    PARTITION_HEARTBEAT, TWO_PC_POINTS,
};

/// The crash points the replication sweep owns in the registry: the
/// client write fan-out pair and the resync sequence. The sweep *also*
/// re-arms every [`TWO_PC_POINTS`] entry with a replica as the victim,
/// but those stay owned by the distributed sweep's list — each registry
/// point appears in exactly one sweep list.
pub const REPLICATION_POINTS: &[&str] = tabs_shard::REP_CRASH_POINTS;

/// The replicated service under test.
const SERVICE: &str = "bank";
/// Slots in the single shard: global keys 0..4.
const SLOTS: u64 = 4;
/// The accounts the workload moves money between.
const ACCOUNTS: [u64; 4] = [0, 1, 2, 3];

/// One shard, fully replicated: leader on node 1, followers on 2 and 3.
fn replicated_map() -> ShardMap {
    ShardMap {
        service: SERVICE.into(),
        version: 1,
        partitioning: Partitioning::Hash,
        owners: vec![NodeId(1)],
        replicas: vec![vec![NodeId(2), NodeId(3)]],
    }
}

/// Reads one member's full shard snapshot (inside a throwaway
/// transaction, so its shared locks release immediately).
fn member_snapshot(node: &Node, map: &ShardMap, member: NodeId) -> Result<Vec<i64>, String> {
    let name = shard_name(&map.service, 0);
    let mut last = String::new();
    for _ in 0..3 {
        let port = resolve_owner_port(&node.ns, &node.cm, &name, member, Duration::from_secs(3))
            .ok_or_else(|| format!("no port for {name} on {member}"))?;
        let app = node.app();
        let t = match app.begin_transaction(Tid::NULL) {
            Ok(t) => t,
            Err(e) => {
                last = e.to_string();
                continue;
            }
        };
        let r = app.call(&port, t, OP_SNAP, Vec::new());
        let _ = app.abort_transaction(t);
        match r {
            Ok(blob) => {
                return Vec::<i64>::decode_all(&blob)
                    .map_err(|e| format!("snapshot of {member} does not decode: {e}"));
            }
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Err(format!("snapshot of {member} failed: {last}"))
}

/// Arms each point in [`REPLICATION_POINTS`] and [`TWO_PC_POINTS`] with
/// the shard leader and again with a follower as the victim. Returns the
/// set of points that actually killed a node.
pub fn sweep_replication(seed: u64) -> Result<BTreeSet<&'static str>, String> {
    let mut killed = BTreeSet::new();
    let mut points: Vec<&'static str> = REPLICATION_POINTS.to_vec();
    points.extend_from_slice(TWO_PC_POINTS);
    for &point in &points {
        for kill_leader in [false, true] {
            let kills = crate::runner::with_coverage_retries(seed, |s| {
                replication_scenario(s, point, kill_leader)
            })?;
            for (p, _node) in kills {
                killed.insert(p);
            }
        }
    }
    Ok(killed)
}

/// Measured commit latencies over the replicated bank shard, for the
/// `tables replicate` perf workload.
#[derive(Debug, Clone)]
pub struct ReplicationLatency {
    /// Per-transfer end-to-end latency, committed transfers only.
    pub latencies: Vec<Duration>,
    /// Transfers that committed.
    pub committed: u64,
    /// Transfers that aborted or ended unknown.
    pub aborted: u64,
}

/// Boots the three-member replicated bank shard and measures per-transfer
/// commit latency from the router node — healthy, or with follower 2
/// killed first (`kill_replica`). The killed mode waits for the failure
/// detector to suspect the corpse before measuring, so the numbers are
/// the steady state the 3x acceptance gate is about: commits flowing
/// through the surviving majority via the quorum waiver, not the
/// one-time suspicion delay.
pub fn replication_latency(
    seed: u64,
    kill_replica: bool,
    transfers: u32,
) -> Result<ReplicationLatency, String> {
    let label = if kill_replica { "replica-killed" } else { "healthy" };
    let fail = |m: String| format!("seed={seed} replicate/{label}: {m}");

    let cluster = Cluster::with_config(
        tabs_core::ClusterConfig::default()
            .heartbeat(PARTITION_HEARTBEAT)
            .replication(tabs_core::ReplicationPolicy::enabled()),
    );
    let map = replicated_map();
    if !cluster.commit_shard_map(SERVICE, map.version, map.to_blob()) {
        return Err(fail("seeding the durable map store failed".into()));
    }
    let (n1, c1, s1) = boot_sharded(&cluster, 1, &map).map_err(&fail)?;
    let mut m2 = Some(boot_sharded(&cluster, 2, &map).map_err(&fail)?);
    let (n3, c3, s3) = boot_sharded(&cluster, 3, &map).map_err(&fail)?;
    for n in [&n1, &m2.as_ref().unwrap().0, &n3] {
        n.tm.set_timeouts(CHAOS_TIMEOUTS);
    }

    let app = n3.app();
    let client = ShardClient::new(&n3, SERVICE).map_err(|e| fail(format!("router: {e}")))?;
    client.set_call_deadline(Duration::from_millis(1500));
    for &key in &ACCOUNTS {
        app.run(|t| client.set(t, key, BASE)).map_err(|e| fail(format!("seed key {key}: {e}")))?;
    }
    for &(from, to) in &[(0u64, 1u64), (2, 3)] {
        let _ = shard_transfer(&app, &client, from, to, 1); // warm ports
    }

    if kill_replica {
        let (vn, vc, vs) = m2.take().expect("member 2 rig present");
        drop((vc, vs));
        vn.crash();
        cluster.detach(NodeId(2));
        let deadline = Instant::now() + Duration::from_secs(2);
        while !n3.cm.is_suspected(NodeId(2)) {
            if Instant::now() >= deadline {
                return Err(fail("router never suspected the killed replica".into()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let pairs = [(0u64, 1u64), (2, 3), (1, 2), (3, 0)];
    let mut out = ReplicationLatency {
        latencies: Vec::with_capacity(transfers as usize),
        committed: 0,
        aborted: 0,
    };
    for i in 0..transfers {
        let (from, to) = pairs[i as usize % pairs.len()];
        let start = Instant::now();
        let outcome = shard_transfer(&app, &client, from, to, 1);
        let took = start.elapsed();
        if outcome == Outcome::Committed {
            out.latencies.push(took);
            out.committed += 1;
        } else {
            out.aborted += 1;
        }
    }
    if out.committed == 0 {
        return Err(fail("no transfer committed — nothing to measure".into()));
    }

    drop(client);
    drop((c1, s1, c3, s3));
    n1.crash();
    if let Some((n, c, s)) = m2 {
        drop((c, s));
        n.crash();
    }
    n3.crash();
    Ok(out)
}

/// One minority-kill scenario; see the module docs for the shape.
fn replication_scenario(
    seed: u64,
    point: &'static str,
    kill_leader: bool,
) -> Result<Vec<(&'static str, NodeId)>, String> {
    let victim_id = if kill_leader { NodeId(1) } else { NodeId(2) };
    let label = format!("{point}@{}", if kill_leader { "leader" } else { "follower" });
    let fail = |m: String| format!("seed={seed} crash_point={label} {m}");

    let cluster = Cluster::with_config(
        tabs_core::ClusterConfig::default()
            .heartbeat(PARTITION_HEARTBEAT)
            .replication(tabs_core::ReplicationPolicy::enabled()),
    );
    let f1 = NodeFaults::new(seed ^ 0xC1);
    let f2 = NodeFaults::new(seed ^ 0xC2);
    install_fault_log(&cluster, 1, &f1);
    install_fault_log(&cluster, 2, &f2);
    let map = replicated_map();
    install_fault_disk(&cluster, 1, &shard_name(SERVICE, 0), &f1);
    install_fault_disk(&cluster, 2, &shard_name(SERVICE, 0), &f2);
    if !cluster.commit_shard_map(SERVICE, map.version, map.to_blob()) {
        return Err(fail("seeding the durable map store failed".into()));
    }

    // Every member hosts the shard; the victim's rig lives in an Option
    // so its reboot can swap the handles in place.
    let mut m1 = Some(boot_sharded(&cluster, 1, &map).map_err(&fail)?);
    let mut m2 = Some(boot_sharded(&cluster, 2, &map).map_err(&fail)?);
    let (n3, c3, s3) = boot_sharded(&cluster, 3, &map).map_err(&fail)?;
    for n in [&m1.as_ref().unwrap().0, &m2.as_ref().unwrap().0, &n3] {
        n.tm.set_timeouts(CHAOS_TIMEOUTS);
    }

    let app = n3.app();
    let client =
        Arc::new(ShardClient::new(&n3, SERVICE).map_err(|e| fail(format!("router: {e}")))?);
    client.set_call_deadline(Duration::from_millis(1500));
    for &key in &ACCOUNTS {
        app.run(|t| client.set(t, key, BASE)).map_err(|e| fail(format!("seed key {key}: {e}")))?;
    }

    // Arm the victim on every replication surface: the armed point kills
    // it wherever the point fires — the victim's own RM/WAL/TM, the
    // coordinator's TM (its 2PC steps for the replica group), the
    // client's write fan-out, or the resync probe.
    let kills: KillLog = Arc::new(Mutex::new(Vec::new()));
    let peers: Vec<NodeId> =
        [NodeId(1), NodeId(2), NodeId(3)].into_iter().filter(|&p| p != victim_id).collect();
    let victim_faults = if kill_leader { f1.clone() } else { f2.clone() };
    let ctl = CrashController::new(
        &cluster,
        victim_id,
        peers,
        Some(point),
        victim_faults,
        Arc::clone(&kills),
    );
    {
        let victim_node =
            if kill_leader { &m1.as_ref().unwrap().0 } else { &m2.as_ref().unwrap().0 };
        ctl.install(victim_node);
    }
    ctl.install(&n3);
    client.set_crash_hooks(Arc::clone(&ctl) as Arc<dyn CrashHooks>);
    let probe = Replicator::new();
    probe.set_crash_hooks(Arc::clone(&ctl) as Arc<dyn CrashHooks>);

    // Transfers keep flowing through the replicated shard while a resync
    // probe (a healthy-cluster leader-to-follower copy, normally an
    // idempotent no-op) crosses the `rep.resync.*` points concurrently.
    let wl_client = Arc::clone(&client);
    let wl_app = app.clone();
    let workload = std::thread::spawn(move || {
        let mut xfers = Vec::new();
        for &(from, to) in &[(0u64, 2u64), (1u64, 3u64), (0u64, 1u64), (3u64, 2u64)] {
            let outcome = shard_transfer(&wl_app, &wl_client, from, to, 10);
            xfers.push(Xfer { from: from as usize, to: to as usize, amount: 10, outcome });
            std::thread::sleep(Duration::from_millis(5));
        }
        xfers
    });
    std::thread::sleep(Duration::from_millis(8));
    let probe_opts = ResyncOptions { resolve_wait: Duration::from_secs(1), copy_attempts: 3 };
    let _ = probe.resync(&n3, &map, 0, NodeId(1), NodeId(2), &probe_opts);
    probe.clear_crash_hooks();

    let mut xfers = workload.join().map_err(|_| fail("workload thread panicked".into()))?;
    client.clear_crash_hooks();
    if !ctl.was_killed() {
        return Err(fail("armed point never fired — the sweep does not cover it".into()));
    }

    // Non-blocking commit: once the survivors suspect the victim, a
    // fresh transfer must commit through the two-member majority.
    let suspect_deadline = Instant::now() + Duration::from_secs(2);
    while !n3.cm.is_suspected(victim_id) {
        if Instant::now() >= suspect_deadline {
            return Err(fail("survivors never suspected the dead replica".into()));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let confirm_deadline = Instant::now() + Duration::from_secs(6);
    let mut confirmed = false;
    for _ in 0..10 {
        let outcome = shard_transfer(&app, &client, 2, 3, 5);
        xfers.push(Xfer { from: 2, to: 3, amount: 5, outcome });
        if outcome == Outcome::Committed {
            confirmed = true;
            break;
        }
        if Instant::now() >= confirm_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if !confirmed {
        return Err(fail(
            "commits did not continue with a dead minority (non-blocking commit violated)".into(),
        ));
    }

    // "Replace the machine, keep the disks": reboot the victim on its
    // surviving non-volatile state and repair it from a survivor.
    {
        let slot = if kill_leader { &mut m1 } else { &mut m2 };
        let (vn, vc, vs) = slot.take().expect("victim rig present");
        drop((vc, vs));
        vn.crash();
        let nv = ctl.revive();
        let (cv, sv) = ShardServer::spawn_all(&nv, &map, SLOTS)
            .map_err(|e| fail(format!("re-spawn victim shards: {e}")))?;
        nv.tm.set_timeouts(CHAOS_TIMEOUTS);
        nv.recover().map_err(|e| fail(format!("recover rebooted victim: {e}")))?;
        *slot = Some((nv, cv, sv));
    }
    let repair = Replicator::new();
    repair
        .resync(&n3, &map, 0, NodeId(3), victim_id, &ResyncOptions::default())
        .map_err(|e| fail(format!("repair resync after rejoin: {e}")))?;

    // No member may be left in doubt or holding locks, and every
    // member's shard snapshot must be identical — the rejoined minority
    // converged. Commits (the repair copy included) are acknowledged at
    // the commit point, so first let every live coordinator's phase 2
    // drain; the polls below then only wait for in-doubt resolution.
    cluster.quiesce(CHAOS_TIMEOUTS.ack_deadline);
    let in_doubt_deadline = Instant::now() + Duration::from_secs(8);
    {
        let r1 = m1.as_ref().expect("member 1 rig present");
        let r2 = m2.as_ref().expect("member 2 rig present");
        for (who, node, servers) in [("n1", &r1.0, &r1.2), ("n2", &r2.0, &r2.2), ("n3", &n3, &s3)] {
            loop {
                let tids = node.tm.in_doubt_tids();
                if tids.is_empty() {
                    break;
                }
                if Instant::now() >= in_doubt_deadline {
                    return Err(fail(format!("{who} left unresolved Tids: {tids:?}")));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            if let Err(e) = poll_shard_locks_drained(servers, who, in_doubt_deadline) {
                // Name the holders: "leaked 1 lock" alone is undebuggable.
                let mut detail = String::new();
                for s in servers {
                    let seg = s.server().segment().id();
                    for slot in 0..SLOTS {
                        let obj = tabs_kernel::ObjectId::new(seg, slot * 8, 8);
                        let h = s.server().locks().holders(obj);
                        if !h.is_empty() {
                            detail.push_str(&format!(" shard{} slot{slot}: {h:?}", s.shard()));
                        }
                    }
                }
                return Err(fail(format!("{e} —{detail}")));
            }
        }
    }
    let mut snaps = Vec::new();
    for &member in &[NodeId(1), NodeId(2), NodeId(3)] {
        snaps.push(member_snapshot(&n3, &map, member).map_err(&fail)?);
    }
    if snaps[1] != snaps[0] || snaps[2] != snaps[0] {
        return Err(fail(format!("replicas diverged after rejoin: {snaps:?}")));
    }

    // Full-cluster crash, reboot on the surviving disks, standard oracle.
    std::thread::sleep(Duration::from_millis(150));
    let killed: Vec<(&'static str, NodeId)> = kills.lock().clone();
    drop(client);
    drop((c3, s3));
    for (n, c, s) in [m1, m2].into_iter().flatten() {
        drop((c, s));
        n.crash();
    }
    n3.crash();
    for (a, b) in [(1u16, 2u16), (1, 3), (2, 3)] {
        cluster.network().heal(NodeId(a), NodeId(b));
    }
    f1.clear();
    f2.clear();

    let first = recovered_replica_state(seed, &cluster, &label, &xfers)?;
    let second = recovered_replica_state(seed, &cluster, &label, &xfers)?;
    if first != second {
        return Err(fail(format!(
            "re-recovery not idempotent: first {first:?}, second {second:?}"
        )));
    }
    Ok(killed)
}

/// Reboots all three members, recovers, runs the oracle over the
/// balances read through a fresh router, checks the replicas are still
/// identical, and crashes everything again.
fn recovered_replica_state(
    seed: u64,
    cluster: &Arc<Cluster>,
    label: &str,
    xfers: &[Xfer],
) -> Result<Vec<i64>, String> {
    let fail = |m: String| format!("seed={seed} crash_point={label} {m}");
    let (version, blob) =
        cluster.shard_map(SERVICE).ok_or_else(|| fail("durable map store is empty".into()))?;
    let map = ShardMap::from_blob(&blob)
        .map_err(|e| fail(format!("durable map v{version} does not decode: {e}")))?;

    // The transfer coordinator (node 3) comes back first: rebooted
    // members resolve their in-doubt transactions by inquiring at it.
    let (n3, c3, s3) = boot_sharded(cluster, 3, &map).map_err(&fail)?;
    let (n1, c1, s1) = boot_sharded(cluster, 1, &map).map_err(&fail)?;
    let (n2, c2, s2) = boot_sharded(cluster, 2, &map).map_err(&fail)?;

    let deadline = Instant::now() + Duration::from_secs(8);
    poll_shard_locks_drained(&s1, "rebooted leader", deadline).map_err(&fail)?;
    poll_shard_locks_drained(&s2, "rebooted follower 2", deadline).map_err(&fail)?;
    poll_shard_locks_drained(&s3, "rebooted follower 3", deadline).map_err(&fail)?;

    let app = n3.app();
    let client = ShardClient::new(&n3, SERVICE).map_err(|e| fail(format!("re-router: {e}")))?;
    let mut balances = Vec::with_capacity(ACCOUNTS.len());
    for &key in &ACCOUNTS {
        balances.push(poll_key(&app, &client, key, deadline).map_err(&fail)?);
    }
    let base = vec![BASE; ACCOUNTS.len()];
    check_model(&balances, &base, xfers).map_err(&fail)?;
    let mut snaps = Vec::new();
    for &member in &[NodeId(1), NodeId(2), NodeId(3)] {
        snaps.push(member_snapshot(&n3, &map, member).map_err(&fail)?);
    }
    if snaps[1] != snaps[0] || snaps[2] != snaps[0] {
        return Err(fail(format!("replicas diverged after recovery: {snaps:?}")));
    }

    drop(client);
    drop((s1, s2, s3));
    drop((c1, c2, c3));
    n1.crash();
    n2.crash();
    n3.crash();
    Ok(balances)
}
