//! Crash-point sweeps and the invariant oracle.
//!
//! The canonical workloads are bank transfers: a single-node bank with
//! four accounts, and a distributed transfer between accounts on two
//! nodes (coordinator and participant of two-phase commit). After every
//! scenario — killed node or not — the cluster is crashed, rebooted and
//! recovered, and the oracle checks:
//!
//! 1. **Conservation / atomicity** — the recovered balances equal the
//!    seeded base plus every reported-committed transfer plus *some
//!    subset* of the unresolved ones (a transfer in flight at the kill
//!    may land or vanish, but never half-apply).
//! 2. **Durability** — a transfer reported committed to the client is
//!    always present after recovery.
//! 3. **No leaked locks** — every server's lock count drains to zero once
//!    in-doubt transactions resolve.
//! 4. **Idempotent re-recovery** — crashing and recovering again changes
//!    nothing.
//!
//! Every failure string starts with `seed=<N> crash_point=<name>`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tabs_app_lib::AppHandle;
use tabs_core::{Cluster, Node, NodeId, Tid};
use tabs_kernel::{FaultDisk, MemDisk};
use tabs_servers::{IntArrayClient, IntArrayServer};
use tabs_tm::TmTimeouts;
use tabs_wal::FaultLogDevice;

use crate::controller::{CrashController, KillLog, NodeFaults};
use crate::plan::FaultPlan;

/// Every crash point registered across the write-ahead log, the Recovery
/// Manager and the Transaction Manager, in layer order.
pub fn registry() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = Vec::new();
    v.extend_from_slice(tabs_wal::CRASH_POINTS);
    v.extend_from_slice(tabs_rm::CRASH_POINTS);
    v.extend_from_slice(tabs_tm::CRASH_POINTS);
    v.extend_from_slice(tabs_shard::CRASH_POINTS);
    v.extend_from_slice(tabs_shard::REP_CRASH_POINTS);
    v
}

/// Crash points exercised by local (single-node) transactions. A
/// sole-writer commit is a single-participant 1PC, so the two sides of
/// its commit force are swept here too: a kill before the force must
/// leave no trace of the transfer, a kill after it the whole transfer.
pub const SINGLE_NODE_POINTS: &[&str] = &[
    "wal.append.before",
    "wal.append.after",
    "wal.force.before",
    "wal.force.after",
    "rm.commit.before",
    "rm.commit.after",
    "rm.abort.before",
    "rm.abort.after",
    "tm.1pc.before-force",
    "tm.1pc.after-force",
];

/// Crash points exercised only with group commit enabled: the default
/// cluster never routes a force through the batch leader, so the
/// group-commit sweep runs its own concurrent-committer workload.
pub const GROUP_COMMIT_POINTS: &[&str] = &["wal.group.before-force", "wal.group.after-force"];

/// Crash points exercised only by the two-phase-commit protocol; the
/// distributed sweep arms each on the coordinator and on the participant.
pub const TWO_PC_POINTS: &[&str] = &[
    "rm.prepare.before",
    "rm.prepare.after",
    "tm.prepare.sent",
    "tm.vote.logged",
    "tm.commit.logged",
    "tm.ack.sent",
];

/// Coordinator+participant double-kill combinations: both nodes die in
/// one scenario, at different protocol steps.
pub const PAIRWISE_ARMS: &[(&str, &str)] = &[
    // Both die in phase one: presumed abort must clean everything up.
    ("tm.prepare.sent", "tm.vote.logged"),
    // Coordinator dies with the commit record durable, participant dies
    // prepared: recovery must drive the in-doubt work to commit.
    ("tm.commit.logged", "rm.prepare.after"),
    // Both die after the decision is fully durable on each side.
    ("rm.commit.after", "tm.ack.sent"),
];

/// Aggressive protocol timeouts used while a kill is armed, so scenarios
/// where a node dies mid-protocol resolve in milliseconds, not seconds.
pub(crate) const CHAOS_TIMEOUTS: TmTimeouts = TmTimeouts {
    retransmit: Duration::from_millis(25),
    vote_deadline: Duration::from_millis(800),
    ack_deadline: Duration::from_millis(300),
};

/// Timeouts for the partition-tolerance scenario. The vote deadline is
/// deliberately long: it is the retransmit-timeout-only baseline's only
/// trigger for in-doubt resolution, which is exactly the delay cooperative
/// termination exists to cut.
const PARTITION_TIMEOUTS: TmTimeouts = TmTimeouts {
    retransmit: Duration::from_millis(25),
    vote_deadline: Duration::from_millis(1500),
    ack_deadline: Duration::from_millis(300),
};

/// Heartbeat tuning for the partition-tolerance and replication
/// scenarios: suspicion after ~30ms of silence, far inside the
/// baseline's 1.5s vote deadline.
pub(crate) const PARTITION_HEARTBEAT: tabs_core::HeartbeatConfig = tabs_core::HeartbeatConfig {
    interval: Duration::from_millis(10),
    suspect_after: 3,
    probe_cap: Duration::from_millis(200),
};

const LOG_CAP: u64 = 8 << 20;
pub(crate) const BASE: i64 = 100;

/// What the client was told about one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Reported committed: must be present after recovery.
    Committed,
    /// Reported aborted: must be absent after recovery.
    Aborted,
    /// The client got an error (typically because the node died mid-call):
    /// the transfer may be fully present or fully absent.
    Unknown,
}

/// Measurements from one [`ChaosRunner::partition_rejoin_scenario`] run.
#[derive(Debug, Clone, Copy)]
pub struct PartitionRun {
    /// Time from the coordinator's kill until the survivor's last
    /// in-doubt transaction resolved.
    pub resolution: Duration,
    /// Local transactions the survivor committed inside that window.
    pub survivor_commits: u64,
}

/// One attempted transfer of the workload, for the oracle's shadow model.
#[derive(Debug, Clone, Copy)]
pub struct Xfer {
    /// Index of the debited account in the flattened balance vector.
    pub from: usize,
    /// Index of the credited account.
    pub to: usize,
    /// Amount moved.
    pub amount: i64,
    /// What the client observed.
    pub outcome: Outcome,
}

/// Checks the recovered `balances` against base-plus-committed plus some
/// subset of the unknown transfers.
pub(crate) fn check_model(balances: &[i64], base: &[i64], xfers: &[Xfer]) -> Result<(), String> {
    let total: i64 = balances.iter().sum();
    let expect_total: i64 = base.iter().sum();
    if total != expect_total {
        return Err(format!(
            "conservation violated: balances {balances:?} sum to {total}, seeded {expect_total} \
             (a transfer half-applied)"
        ));
    }
    let mut committed = base.to_vec();
    let mut unknown: Vec<&Xfer> = Vec::new();
    for x in xfers {
        match x.outcome {
            Outcome::Committed => {
                committed[x.from] -= x.amount;
                committed[x.to] += x.amount;
            }
            Outcome::Aborted => {}
            Outcome::Unknown => unknown.push(x),
        }
    }
    assert!(unknown.len() <= 16, "oracle subset enumeration capped at 16 unknowns");
    for mask in 0u32..(1 << unknown.len()) {
        let mut candidate = committed.clone();
        for (i, x) in unknown.iter().enumerate() {
            if mask & (1 << i) != 0 {
                candidate[x.from] -= x.amount;
                candidate[x.to] += x.amount;
            }
        }
        if candidate == balances {
            return Ok(());
        }
    }
    Err(format!(
        "balances {balances:?} match no legal outcome: base {base:?}, \
         committed-applied {committed:?}, {} unknown transfer(s) {unknown:?}",
        unknown.len()
    ))
}

/// Boots `id`, spawns an integer-array server named `name`, recovers.
pub(crate) fn boot_array(
    cluster: &Arc<Cluster>,
    id: u16,
    name: &str,
    cells: u64,
) -> Result<(Node, IntArrayServer), String> {
    let node = cluster.boot_node(NodeId(id));
    let arr =
        IntArrayServer::spawn(&node, name, cells).map_err(|e| format!("spawn {name}: {e}"))?;
    node.recover().map_err(|e| format!("recover n{id}: {e}"))?;
    Ok((node, arr))
}

/// Registers a fault-wrapped in-memory disk for `name`'s segment on `id`
/// (must run before the segment is first added).
pub(crate) fn install_fault_disk(cluster: &Arc<Cluster>, id: u16, name: &str, faults: &NodeFaults) {
    cluster.disks().insert(
        &format!("{}.{}-segment", NodeId(id), name),
        FaultDisk::new(MemDisk::new(64), Arc::clone(&faults.disk)) as Arc<dyn tabs_kernel::Disk>,
    );
}

/// Installs a fault-wrapped log device for `id` (before the first boot).
pub(crate) fn install_fault_log(cluster: &Arc<Cluster>, id: u16, faults: &NodeFaults) {
    cluster.set_log_device(
        NodeId(id),
        FaultLogDevice::new(LOG_CAP, Arc::clone(&faults.log)) as Arc<dyn tabs_wal::LogDevice>,
    );
}

/// Reads one cell, retrying while in-doubt relocks or transient faults
/// make it fail.
pub(crate) fn poll_read(
    app: &AppHandle,
    client: &IntArrayClient,
    cell: u64,
    deadline: Instant,
) -> Result<i64, String> {
    loop {
        let t = match app.begin_transaction(Tid::NULL) {
            Ok(t) => t,
            Err(e) => return Err(format!("begin for read: {e}")),
        };
        let r = client.get(t, cell);
        let _ = app.abort_transaction(t);
        match r {
            Ok(v) => return Ok(v),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(format!("read cell {cell} never became available: {e}")),
        }
    }
}

/// Polls a server's lock table down to zero held objects.
pub(crate) fn poll_locks_drained(
    arr: &IntArrayServer,
    who: &str,
    deadline: Instant,
) -> Result<(), String> {
    loop {
        let held = arr.server().locks().locked_object_count();
        if held == 0 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("{who} leaked {held} lock(s) after recovery"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One money transfer inside a fresh top-level transaction; debit and
/// credit may live on different nodes.
fn transfer(
    app: &AppHandle,
    debit: &IntArrayClient,
    debit_cell: u64,
    credit: &IntArrayClient,
    credit_cell: u64,
    amount: i64,
) -> Outcome {
    let t = match app.begin_transaction(Tid::NULL) {
        Ok(t) => t,
        Err(_) => return Outcome::Unknown,
    };
    if debit.add(t, debit_cell, -amount).is_err() || credit.add(t, credit_cell, amount).is_err() {
        return match app.abort_transaction(t) {
            Ok(()) => Outcome::Aborted,
            Err(_) => Outcome::Unknown,
        };
    }
    match app.end_transaction(t) {
        Ok(o) if o.is_committed() => Outcome::Committed,
        Ok(_) => Outcome::Aborted,
        Err(_) => Outcome::Unknown,
    }
}

/// Bounded coverage retry for the kill-sweep scenarios. "Armed point
/// never fired" is a *coverage* miss, not a safety violation: under
/// scheduler noise the swept flow can abort early (a drain deadline
/// runs out, an injected fault exhausts the copy attempts) before it
/// ever reaches a late crash point, so the armed kill has nothing to
/// fire on. Such runs are retried on a perturbed seed for a fresh
/// interleaving. Safety failures — conservation, leaked locks,
/// idempotency — propagate immediately and are never retried.
pub(crate) fn with_coverage_retries<T>(
    seed: u64,
    mut scenario: impl FnMut(u64) -> Result<T, String>,
) -> Result<T, String> {
    const COVERAGE_ATTEMPTS: u64 = 3;
    let mut attempt = 0;
    loop {
        match scenario(seed.wrapping_add(attempt << 56)) {
            Err(e) if e.contains("armed point never fired") && attempt + 1 < COVERAGE_ATTEMPTS => {
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Sweeps crash points over the canonical workloads and checks the
/// oracle after every scenario.
pub struct ChaosRunner {
    seed: u64,
}

impl ChaosRunner {
    /// A runner whose every scenario derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn fail(&self, point: &str, msg: String) -> String {
        format!("seed={} crash_point={} {}", self.seed, point, msg)
    }

    // ---- Single-node sweep -------------------------------------------

    /// Arms each point in [`SINGLE_NODE_POINTS`] over the single-node bank
    /// workload. Returns the set of points that actually killed the node.
    pub fn sweep_single_node(&self) -> Result<BTreeSet<&'static str>, String> {
        let mut killed = BTreeSet::new();
        for &point in SINGLE_NODE_POINTS {
            if self.single_node_scenario(point)? {
                killed.insert(point);
            }
        }
        Ok(killed)
    }

    /// Runs the single-node bank workload with `point` armed; returns
    /// whether the node was killed at it.
    fn single_node_scenario(&self, point: &'static str) -> Result<bool, String> {
        let fail = |m: String| self.fail(point, m);
        let cluster = Cluster::new();
        let faults = NodeFaults::new(self.seed ^ 0x51);
        install_fault_log(&cluster, 1, &faults);
        install_fault_disk(&cluster, 1, "bank", &faults);

        // Boot and seed four accounts with `BASE` each (no hooks yet: the
        // kill must land inside the chaos workload, not the setup).
        let (node, arr) = boot_array(&cluster, 1, "bank", 4).map_err(&fail)?;
        let app = node.app();
        let client = IntArrayClient::new(app.clone(), arr.send_right());
        app.run(|t| {
            for cell in 0..4 {
                client.set(t, cell, BASE)?;
            }
            Ok(())
        })
        .map_err(|e| fail(format!("seeding failed: {e}")))?;

        let kills: KillLog = Arc::new(Mutex::new(Vec::new()));
        let ctl = CrashController::new(
            &cluster,
            NodeId(1),
            vec![],
            Some(point),
            faults.clone(),
            Arc::clone(&kills),
        );
        ctl.install(&node);

        // The workload: three committed transfers and one deliberate
        // abort, so commit, force and abort paths all cross their crash
        // points.
        let mut xfers = Vec::new();
        for (from, to, amount, abort_intent) in
            [(0, 1, 10, false), (2, 3, 7, true), (1, 2, 5, false), (3, 0, 3, false)]
        {
            let outcome = if abort_intent {
                let t = match app.begin_transaction(Tid::NULL) {
                    Ok(t) => t,
                    Err(_) => return Err(fail("begin failed before kill".into())),
                };
                let ops_ok =
                    client.add(t, from, -amount).is_ok() && client.add(t, to, amount).is_ok();
                let _ = ops_ok;
                match app.abort_transaction(t) {
                    Ok(()) => Outcome::Aborted,
                    Err(_) => Outcome::Unknown,
                }
            } else {
                transfer(&app, &client, from, &client, to, amount)
            };
            xfers.push(Xfer { from: from as usize, to: to as usize, amount, outcome });
        }

        let was_killed = ctl.was_killed();
        drop(client);
        drop(arr);
        node.crash();
        faults.clear();

        // Reboot, recover, check the oracle, then prove re-recovery is
        // idempotent with a second crash/reboot cycle.
        let balances = self.recovered_balances(&cluster, point, &xfers, 4)?;
        let again = self.recovered_balances(&cluster, point, &xfers, 4)?;
        if balances != again {
            return Err(fail(format!(
                "re-recovery not idempotent: first {balances:?}, second {again:?}"
            )));
        }
        Ok(was_killed)
    }

    /// Reboots the single bank node, recovers, checks the oracle over
    /// `cells` accounts and crashes it again (leaving the cluster ready
    /// for another cycle).
    fn recovered_balances(
        &self,
        cluster: &Arc<Cluster>,
        point: &str,
        xfers: &[Xfer],
        cells: u64,
    ) -> Result<Vec<i64>, String> {
        let fail = |m: String| self.fail(point, m);
        let (node, arr) = boot_array(cluster, 1, "bank", cells).map_err(&fail)?;
        let app = node.app();
        let client = IntArrayClient::new(app.clone(), arr.send_right());
        let deadline = Instant::now() + Duration::from_secs(8);
        poll_locks_drained(&arr, "bank server", deadline).map_err(&fail)?;
        let mut balances = Vec::new();
        for cell in 0..cells {
            balances.push(poll_read(&app, &client, cell, deadline).map_err(&fail)?);
        }
        let base = vec![BASE; cells as usize];
        check_model(&balances, &base, xfers).map_err(&fail)?;
        drop(client);
        drop(arr);
        node.crash();
        Ok(balances)
    }

    // ---- Group-commit sweep ------------------------------------------

    /// Arms each point in [`GROUP_COMMIT_POINTS`] over a concurrent bank
    /// workload on a cluster with group commit enabled (the only way a
    /// force reaches the batch leader). Returns the points that killed.
    pub fn sweep_group_commit(&self) -> Result<BTreeSet<&'static str>, String> {
        let mut killed = BTreeSet::new();
        for &point in GROUP_COMMIT_POINTS {
            if self.group_commit_scenario(point)? {
                killed.insert(point);
            }
        }
        Ok(killed)
    }

    /// Runs a concurrent single-node bank workload (four committer
    /// threads on disjoint account pairs, group commit enabled) with
    /// `point` armed; returns whether the node was killed at it. Every
    /// ticket that resolved durable must survive recovery — the oracle's
    /// durability check is exactly the group-commit correctness claim.
    fn group_commit_scenario(&self, point: &'static str) -> Result<bool, String> {
        const CELLS: u64 = 8;
        const THREADS: u64 = CELLS / 2;
        let fail = |m: String| self.fail(point, m);
        let cluster = Cluster::with_config(tabs_core::ClusterConfig::default().group_commit(
            tabs_core::GroupCommitConfig {
                max_delay: Duration::from_millis(5),
                max_batch: THREADS as usize,
            },
        ));
        let faults = NodeFaults::new(self.seed ^ 0x6C);
        install_fault_log(&cluster, 1, &faults);
        install_fault_disk(&cluster, 1, "bank", &faults);

        let (node, arr) = boot_array(&cluster, 1, "bank", CELLS).map_err(&fail)?;
        let app = node.app();
        let client = IntArrayClient::new(app.clone(), arr.send_right());
        app.run(|t| {
            for cell in 0..CELLS {
                client.set(t, cell, BASE)?;
            }
            Ok(())
        })
        .map_err(|e| fail(format!("seeding failed: {e}")))?;

        let kills: KillLog = Arc::new(Mutex::new(Vec::new()));
        let ctl = CrashController::new(
            &cluster,
            NodeId(1),
            vec![],
            Some(point),
            faults.clone(),
            Arc::clone(&kills),
        );
        ctl.install(&node);

        // Concurrent committers racing into the same batch window, each
        // transferring within its own disjoint account pair so the oracle
        // can tell exactly which transfers landed.
        let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let app = app.clone();
                let client = client.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let (from, to) = (2 * i, 2 * i + 1);
                    barrier.wait();
                    let mut xfers = Vec::new();
                    for amount in [10, 3] {
                        let outcome = transfer(&app, &client, from, &client, to, amount);
                        xfers.push(Xfer { from: from as usize, to: to as usize, amount, outcome });
                    }
                    xfers
                })
            })
            .collect();
        let mut xfers = Vec::new();
        for h in handles {
            xfers.extend(h.join().map_err(|_| fail("committer thread panicked".into()))?);
        }

        let was_killed = ctl.was_killed();
        drop(client);
        drop(arr);
        node.crash();
        faults.clear();

        let balances = self.recovered_balances(&cluster, point, &xfers, CELLS)?;
        let again = self.recovered_balances(&cluster, point, &xfers, CELLS)?;
        if balances != again {
            return Err(fail(format!(
                "re-recovery not idempotent: first {balances:?}, second {again:?}"
            )));
        }
        Ok(was_killed)
    }

    // ---- Distributed sweep -------------------------------------------

    /// Arms every [`TWO_PC_POINTS`] entry on the coordinator and on the
    /// participant (plus the [`PAIRWISE_ARMS`] double kills) over the
    /// distributed-transfer workload. Returns the points that killed.
    ///
    /// Some role/point combinations can never fire (the coordinator never
    /// logs a vote for its own transaction, the participant never sends
    /// prepares); those scenarios simply run to completion and the oracle
    /// still checks the result.
    pub fn sweep_distributed(&self) -> Result<BTreeSet<&'static str>, String> {
        let mut killed = BTreeSet::new();
        for &point in TWO_PC_POINTS {
            for coordinator in [true, false] {
                let (coord, part) =
                    if coordinator { (Some(point), None) } else { (None, Some(point)) };
                for (p, _node) in self.distributed_scenario(coord, part)? {
                    killed.insert(p);
                }
            }
        }
        for &(coord, part) in PAIRWISE_ARMS {
            for (p, _node) in self.distributed_scenario(Some(coord), Some(part))? {
                killed.insert(p);
            }
        }
        Ok(killed)
    }

    /// Arms each point in [`crate::migrate::MIGRATION_POINTS`] on the
    /// migration's source node and again on its destination node, over a
    /// sharded bank workload with a live migration in flight. See
    /// [`crate::migrate`].
    pub fn sweep_migration(&self) -> Result<BTreeSet<&'static str>, String> {
        crate::migrate::sweep_migration(self.seed)
    }

    /// Arms each point in [`crate::replicate::REPLICATION_POINTS`] (and
    /// every [`TWO_PC_POINTS`] entry) with a replica-set member as the
    /// victim, over a replicated bank shard with transfers in flight.
    /// See [`crate::replicate`].
    pub fn sweep_replication(&self) -> Result<BTreeSet<&'static str>, String> {
        crate::replicate::sweep_replication(self.seed)
    }

    /// Overloads a two-node cluster (more spike workers than the
    /// admission limit, end-to-end deadlines on) and kills the
    /// participant mid-spike with a plain [`Node::crash`] — no armed
    /// crash point. The oracle demands engaged shedding, zero commits
    /// past an expired deadline, conservation, drained locks and
    /// idempotent re-recovery. See [`crate::overload`].
    pub fn overload_kill_scenario(&self) -> Result<crate::overload::OverloadKillRun, String> {
        crate::overload::overload_kill_scenario(self.seed)
    }

    /// Measures per-transfer commit latency over the replicated bank
    /// shard, healthy or with one follower killed first. Powers the
    /// `tables replicate` workload; see [`crate::replicate`].
    pub fn replication_latency(
        &self,
        kill_replica: bool,
        transfers: u32,
    ) -> Result<crate::replicate::ReplicationLatency, String> {
        crate::replicate::replication_latency(self.seed, kill_replica, transfers)
    }

    fn arm_label(coord: Option<&str>, part: Option<&str>) -> String {
        match (coord, part) {
            (Some(c), Some(p)) => format!("{c}@coordinator+{p}@participant"),
            (Some(c), None) => format!("{c}@coordinator"),
            (None, Some(p)) => format!("{p}@participant"),
            (None, None) => "none".into(),
        }
    }

    /// One distributed-transfer scenario: node 1 coordinates transfers
    /// from its account to node 2's; `coord`/`part` arm kills on the
    /// respective roles. Returns the kills that happened.
    fn distributed_scenario(
        &self,
        coord: Option<&'static str>,
        part: Option<&'static str>,
    ) -> Result<Vec<(&'static str, NodeId)>, String> {
        let label = Self::arm_label(coord, part);
        let fail = |m: String| self.fail(&label, m);

        let cluster = Cluster::new();
        let f1 = NodeFaults::new(self.seed ^ 0xD1);
        let f2 = NodeFaults::new(self.seed ^ 0xD2);
        install_fault_log(&cluster, 1, &f1);
        install_fault_log(&cluster, 2, &f2);
        install_fault_disk(&cluster, 1, "acct-a", &f1);
        install_fault_disk(&cluster, 2, "acct-b", &f2);

        let (n1, a1) = boot_array(&cluster, 1, "acct-a", 1).map_err(&fail)?;
        let (n2, a2) = boot_array(&cluster, 2, "acct-b", 1).map_err(&fail)?;
        n1.tm.set_timeouts(CHAOS_TIMEOUTS);
        n2.tm.set_timeouts(CHAOS_TIMEOUTS);

        let app = n1.app();
        let local = IntArrayClient::new(app.clone(), a1.send_right());
        let found = n1.resolve("acct-b", 1, Duration::from_secs(3));
        if found.len() != 1 {
            return Err(fail("name service never resolved acct-b".into()));
        }
        let remote = IntArrayClient::new(app.clone(), found[0].0.clone());
        app.run(|t| local.set(t, 0, BASE)).map_err(|e| fail(format!("seed A: {e}")))?;
        let app2 = n2.app();
        let local2 = IntArrayClient::new(app2.clone(), a2.send_right());
        app2.run(|t| local2.set(t, 0, BASE)).map_err(|e| fail(format!("seed B: {e}")))?;

        let kills: KillLog = Arc::new(Mutex::new(Vec::new()));
        let c1 = CrashController::new(
            &cluster,
            NodeId(1),
            vec![NodeId(2)],
            coord,
            f1.clone(),
            Arc::clone(&kills),
        );
        c1.install(&n1);
        let c2 = CrashController::new(
            &cluster,
            NodeId(2),
            vec![NodeId(1)],
            part,
            f2.clone(),
            Arc::clone(&kills),
        );
        c2.install(&n2);

        // Three distributed transfers A -> B. After a kill the remaining
        // attempts fail fast; their outcomes are recorded all the same.
        let mut xfers = Vec::new();
        for _ in 0..3 {
            let outcome = transfer(&app, &local, 0, &remote, 0, 10);
            xfers.push(Xfer { from: 0, to: 1, amount: 10, outcome });
        }

        // Let in-flight protocol threads settle, then lose all volatile
        // state on both machines and reboot them with faults cleared.
        std::thread::sleep(Duration::from_millis(150));
        let killed: Vec<(&'static str, NodeId)> = kills.lock().clone();
        drop((local, remote, local2));
        drop((a1, a2));
        n1.crash();
        n2.crash();
        cluster.network().heal(NodeId(1), NodeId(2));
        f1.clear();
        f2.clear();

        let first = self.distributed_recovered_balances(&cluster, &label, &xfers)?;
        let second = self.distributed_recovered_balances(&cluster, &label, &xfers)?;
        if first != second {
            return Err(fail(format!(
                "re-recovery not idempotent: first {first:?}, second {second:?}"
            )));
        }
        Ok(killed)
    }

    /// Reboots both nodes, recovers, waits for in-doubt resolution, runs
    /// the oracle and crashes both again.
    fn distributed_recovered_balances(
        &self,
        cluster: &Arc<Cluster>,
        label: &str,
        xfers: &[Xfer],
    ) -> Result<Vec<i64>, String> {
        let fail = |m: String| self.fail(label, m);
        // The coordinator must come back first: rebooted participants
        // resolve their in-doubt transactions by inquiring at it.
        let (n1, a1) = boot_array(cluster, 1, "acct-a", 1).map_err(&fail)?;
        let (n2, a2) = boot_array(cluster, 2, "acct-b", 1).map_err(&fail)?;
        let deadline = Instant::now() + Duration::from_secs(8);
        poll_locks_drained(&a1, "coordinator server", deadline).map_err(&fail)?;
        poll_locks_drained(&a2, "participant server", deadline).map_err(&fail)?;
        let app1 = n1.app();
        let c1 = IntArrayClient::new(app1.clone(), a1.send_right());
        let app2 = n2.app();
        let c2 = IntArrayClient::new(app2.clone(), a2.send_right());
        let a = poll_read(&app1, &c1, 0, deadline).map_err(&fail)?;
        let b = poll_read(&app2, &c2, 0, deadline).map_err(&fail)?;
        check_model(&[a, b], &[BASE, BASE], xfers).map_err(&fail)?;
        drop((c1, c2));
        drop((a1, a2));
        n1.crash();
        n2.crash();
        Ok(vec![a, b])
    }

    // ---- Partition / rejoin scenario ---------------------------------

    /// Kills the coordinator of a two-node cluster at `tm.commit.logged`
    /// (commit record durable, decision never sent), reboots it on its
    /// surviving disks with [`CrashController::revive`] while the
    /// participant keeps serving, and measures how long the participant's
    /// in-doubt transaction stays unresolved.
    ///
    /// With `cooperative` the cluster runs the heartbeat failure detector
    /// ([`PARTITION_HEARTBEAT`]) and the cooperative termination protocol;
    /// without it, resolution waits for the retransmit-timeout watchdog
    /// ([`PARTITION_TIMEOUTS`]'s vote deadline). The audit demands zero
    /// leaked locks, zero unresolved Tids on both nodes, an uninterrupted
    /// stream of survivor commits, and model-consistent balances.
    pub fn partition_rejoin_scenario(&self, cooperative: bool) -> Result<PartitionRun, String> {
        let label: &str =
            if cooperative { "tm.commit.logged@partition" } else { "tm.commit.logged@baseline" };
        let fail = |m: String| self.fail(label, m);

        let mut config = tabs_core::ClusterConfig::default();
        if cooperative {
            config = config.heartbeat(PARTITION_HEARTBEAT);
        }
        let cluster = Cluster::with_config(config);
        let f1 = NodeFaults::new(self.seed ^ 0xB1);
        let f2 = NodeFaults::new(self.seed ^ 0xB2);
        install_fault_log(&cluster, 1, &f1);
        install_fault_log(&cluster, 2, &f2);
        install_fault_disk(&cluster, 1, "acct-a", &f1);
        install_fault_disk(&cluster, 2, "acct-b", &f2);

        // Node 2's array has a second cell the survivor workload commits
        // to while cell 0 sits under the in-doubt transaction's lock.
        let (n1, a1) = boot_array(&cluster, 1, "acct-a", 1).map_err(&fail)?;
        let (n2, a2) = boot_array(&cluster, 2, "acct-b", 2).map_err(&fail)?;
        n1.tm.set_timeouts(PARTITION_TIMEOUTS);
        n2.tm.set_timeouts(PARTITION_TIMEOUTS);

        let app = n1.app();
        let local = IntArrayClient::new(app.clone(), a1.send_right());
        let found = n1.resolve("acct-b", 1, Duration::from_secs(3));
        if found.len() != 1 {
            return Err(fail("name service never resolved acct-b".into()));
        }
        let remote = IntArrayClient::new(app.clone(), found[0].0.clone());
        app.run(|t| local.set(t, 0, BASE)).map_err(|e| fail(format!("seed A: {e}")))?;
        let app2 = n2.app();
        let local2 = IntArrayClient::new(app2.clone(), a2.send_right());
        app2.run(|t| {
            local2.set(t, 0, BASE)?;
            local2.set(t, 1, BASE)
        })
        .map_err(|e| fail(format!("seed B: {e}")))?;

        let kills: KillLog = Arc::new(Mutex::new(Vec::new()));
        let ctl = CrashController::new(
            &cluster,
            NodeId(1),
            vec![NodeId(2)],
            Some("tm.commit.logged"),
            f1.clone(),
            Arc::clone(&kills),
        );
        ctl.install(&n1);

        // Survivor workload: node 2 keeps committing local increments to
        // its second cell throughout the coordinator's outage. Any error
        // is a liveness failure — a partitioned-away coordinator must not
        // stall the survivor's local transactions.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let commits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let survivor = {
            let (app2, local2) = (app2.clone(), local2.clone());
            let (stop, commits) = (Arc::clone(&stop), Arc::clone(&commits));
            std::thread::spawn(move || -> Result<u64, String> {
                let mut done = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    app2.run(|t| local2.add(t, 1, 1))
                        .map_err(|e| format!("survivor commit #{done} failed: {e}"))?;
                    done += 1;
                    commits.store(done, std::sync::atomic::Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(done)
            })
        };

        // The transfer that dies mid-commit: the kill fires inside
        // end_transaction, so it runs on its own thread while this one
        // watches for the kill.
        let xfer_thread = {
            let (app, local, remote) = (app.clone(), local.clone(), remote.clone());
            std::thread::spawn(move || transfer(&app, &local, 0, &remote, 0, 10))
        };
        let arm_deadline = Instant::now() + Duration::from_secs(5);
        while !ctl.was_killed() {
            if Instant::now() >= arm_deadline {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                return Err(fail("tm.commit.logged never fired on the coordinator".into()));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let t_kill = Instant::now();
        let commits_at_kill = commits.load(std::sync::atomic::Ordering::Relaxed);

        // The participant voted yes before the coordinator could log the
        // decision, so it must be in doubt right now.
        let in_doubt_deadline = t_kill + Duration::from_millis(500);
        while n2.tm.in_doubt_tids().is_empty() {
            if Instant::now() >= in_doubt_deadline {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                return Err(fail("participant never entered the in-doubt window".into()));
            }
            std::thread::sleep(Duration::from_micros(500));
        }

        // "Replace the machine, keep the disks": discard volatile state
        // and reboot the dead coordinator while the survivor serves.
        std::thread::sleep(Duration::from_millis(40));
        drop((local, remote));
        drop(a1);
        n1.crash();
        let n1b = ctl.revive();
        let a1b = IntArrayServer::spawn(&n1b, "acct-a", 1)
            .map_err(|e| fail(format!("re-spawn acct-a: {e}")))?;
        n1b.tm.set_timeouts(PARTITION_TIMEOUTS);
        n1b.recover().map_err(|e| fail(format!("recover rebooted n1: {e}")))?;

        // Resolution: the survivor's in-doubt set drains once the
        // termination protocol finds the durable commit record.
        let resolve_deadline = t_kill + Duration::from_secs(30);
        while !n2.tm.in_doubt_tids().is_empty() {
            if Instant::now() >= resolve_deadline {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                return Err(fail(format!(
                    "in-doubt transactions never resolved: {:?}",
                    n2.tm.in_doubt_tids()
                )));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let resolution = t_kill.elapsed();
        let survivor_commits =
            commits.load(std::sync::atomic::Ordering::Relaxed).saturating_sub(commits_at_kill);

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total_commits =
            survivor.join().map_err(|_| fail("survivor thread panicked".into()))?.map_err(&fail)?;
        let outcome = xfer_thread.join().map_err(|_| fail("transfer thread panicked".into()))?;
        if survivor_commits == 0 {
            return Err(fail("survivor committed nothing during the outage".into()));
        }

        // Full-cluster audit: no leaked locks, no unresolved Tids, and
        // balances the model accepts (the commit record was durable, so
        // the transfer must have landed whatever the client was told).
        // Commits are acknowledged at the commit point: let the live
        // coordinators' phase 2 drain before reading participant state.
        cluster.quiesce(PARTITION_TIMEOUTS.ack_deadline);
        let deadline = Instant::now() + Duration::from_secs(8);
        poll_locks_drained(&a1b, "rebooted coordinator server", deadline).map_err(&fail)?;
        poll_locks_drained(&a2, "survivor server", deadline).map_err(&fail)?;
        for (who, tm) in [("rebooted coordinator", &n1b.tm), ("survivor", &n2.tm)] {
            let tids = tm.in_doubt_tids();
            if !tids.is_empty() {
                return Err(fail(format!("{who} left unresolved Tids: {tids:?}")));
            }
        }
        let app1b = n1b.app();
        let c1b = IntArrayClient::new(app1b.clone(), a1b.send_right());
        let a = poll_read(&app1b, &c1b, 0, deadline).map_err(&fail)?;
        let b = poll_read(&app2, &local2, 0, deadline).map_err(&fail)?;
        let xfers = [Xfer { from: 0, to: 1, amount: 10, outcome }];
        check_model(&[a, b], &[BASE, BASE], &xfers).map_err(&fail)?;
        if a != BASE - 10 || b != BASE + 10 {
            return Err(fail(format!(
                "durable commit record did not survive the reboot: balances [{a}, {b}]"
            )));
        }
        let side = poll_read(&app2, &local2, 1, deadline).map_err(&fail)?;
        if side != BASE + total_commits as i64 {
            return Err(fail(format!(
                "survivor cell lost updates: read {side}, expected {}",
                BASE + total_commits as i64
            )));
        }

        drop((c1b, local2));
        drop((a1b, a2));
        n1b.crash();
        n2.crash();
        Ok(PartitionRun { resolution, survivor_commits })
    }

    // ---- Deterministic disk-fault scenarios --------------------------

    /// A torn sector write (header updated, payload stale) under a
    /// committed transfer must be repaired by redo at recovery.
    pub fn torn_write_scenario(&self) -> Result<(), String> {
        let point = "disk.torn-write";
        let fail = |m: String| self.fail(point, m);
        let cluster = Cluster::new();
        let faults = NodeFaults::new(self.seed ^ 0x70);
        install_fault_log(&cluster, 1, &faults);
        install_fault_disk(&cluster, 1, "bank", &faults);
        let (node, arr) = boot_array(&cluster, 1, "bank", 4).map_err(&fail)?;
        let app = node.app();
        let client = IntArrayClient::new(app.clone(), arr.send_right());
        app.run(|t| {
            for cell in 0..4 {
                client.set(t, cell, BASE)?;
            }
            Ok(())
        })
        .map_err(|e| fail(format!("seeding failed: {e}")))?;
        let xfers = [Xfer {
            from: 0,
            to: 1,
            amount: 25,
            outcome: transfer(&app, &client, 0, &client, 1, 25),
        }];
        if xfers[0].outcome != Outcome::Committed {
            return Err(fail("healthy transfer did not commit".into()));
        }
        // The next sector write tears: the page header advances but the
        // payload stays stale — exactly what a power cut mid-write leaves.
        faults.disk.tear_next_write();
        let _ = node.pool.flush_all();
        drop(client);
        drop(arr);
        node.crash();
        faults.clear();
        let _ = self.recovered_balances(&cluster, point, &xfers, 4)?;
        Ok(())
    }

    /// Transient sector read errors must fail operations visibly, then
    /// clear on retry without corrupting anything.
    pub fn transient_read_scenario(&self) -> Result<(), String> {
        let point = "disk.transient-read";
        let fail = |m: String| self.fail(point, m);
        let cluster = Cluster::new();
        let faults = NodeFaults::new(self.seed ^ 0x71);
        install_fault_log(&cluster, 1, &faults);
        install_fault_disk(&cluster, 1, "bank", &faults);
        let (node, arr) = boot_array(&cluster, 1, "bank", 4).map_err(&fail)?;
        let app = node.app();
        let client = IntArrayClient::new(app.clone(), arr.send_right());
        app.run(|t| {
            for cell in 0..4 {
                client.set(t, cell, BASE)?;
            }
            Ok(())
        })
        .map_err(|e| fail(format!("seeding failed: {e}")))?;
        // Push everything to disk, then read through the faulty disk.
        // The cache is dropped before every attempt so each read faults
        // the page back in and draws from the error probability; at
        // p=0.9 the chance of never observing a failure in 64 draws is
        // negligible, for any seed.
        node.pool.flush_all().map_err(|e| fail(format!("flush: {e}")))?;
        faults.disk.set_read_error_prob(0.9);
        let mut failures = 0u32;
        for _ in 0..64 {
            node.pool.invalidate_volatile();
            let t = app.begin_transaction(Tid::NULL).map_err(|e| fail(format!("begin: {e}")))?;
            let r = client.get(t, 0);
            let _ = app.abort_transaction(t);
            match r {
                Ok(v) if v != BASE => {
                    return Err(fail(format!("transient errors corrupted data: read {v}")));
                }
                Ok(_) => {}
                Err(_) => failures += 1,
            }
        }
        if failures == 0 {
            return Err(fail("p=0.9 read-error injection never fired".into()));
        }
        // Errors are transient: with the fault cleared the data is intact.
        faults.disk.set_read_error_prob(0.0);
        node.pool.invalidate_volatile();
        let t = app.begin_transaction(Tid::NULL).map_err(|e| fail(format!("begin: {e}")))?;
        let value = client.get(t, 0).map_err(|e| fail(format!("healthy re-read: {e}")))?;
        let _ = app.abort_transaction(t);
        if value != BASE {
            return Err(fail(format!("transient errors corrupted data: read {value}")));
        }
        drop(client);
        drop(arr);
        node.shutdown();
        Ok(())
    }

    // ---- Random fault plans (property entry point) -------------------

    /// Runs the distributed workload under `plan`'s disk faults and
    /// network schedule (no crash points), heals, recovers and checks the
    /// oracle. This is the entry point for property tests.
    pub fn run_plan(&self, plan: &FaultPlan) -> Result<(), String> {
        let label = "none";
        let fail = |m: String| self.fail(label, m);
        let cluster = Cluster::new();
        let f1 = NodeFaults::new(plan.seed ^ 0xA1);
        let f2 = NodeFaults::new(plan.seed ^ 0xA2);
        install_fault_log(&cluster, 1, &f1);
        install_fault_log(&cluster, 2, &f2);
        install_fault_disk(&cluster, 1, "acct-a", &f1);
        install_fault_disk(&cluster, 2, "acct-b", &f2);
        let (n1, a1) = boot_array(&cluster, 1, "acct-a", 1).map_err(&fail)?;
        let (n2, a2) = boot_array(&cluster, 2, "acct-b", 1).map_err(&fail)?;
        n1.tm.set_timeouts(CHAOS_TIMEOUTS);
        n2.tm.set_timeouts(CHAOS_TIMEOUTS);
        let app = n1.app();
        let local = IntArrayClient::new(app.clone(), a1.send_right());
        let found = n1.resolve("acct-b", 1, Duration::from_secs(3));
        if found.len() != 1 {
            return Err(fail("name service never resolved acct-b".into()));
        }
        let remote = IntArrayClient::new(app.clone(), found[0].0.clone());
        app.run(|t| local.set(t, 0, BASE)).map_err(|e| fail(format!("seed A: {e}")))?;
        let app2 = n2.app();
        let local2 = IntArrayClient::new(app2.clone(), a2.send_right());
        app2.run(|t| local2.set(t, 0, BASE)).map_err(|e| fail(format!("seed B: {e}")))?;
        // Flush and drop caches so the faulty disks actually serve reads.
        n1.pool.flush_all().map_err(|e| fail(format!("flush n1: {e}")))?;
        n2.pool.flush_all().map_err(|e| fail(format!("flush n2: {e}")))?;
        n1.pool.invalidate_volatile();
        n2.pool.invalidate_volatile();

        // Arm the plan: adversarial datagram schedule plus disk faults.
        cluster.network().set_datagram_policy(plan.policy());
        for f in [&f1, &f2] {
            f.disk.set_read_error_prob(plan.disk.read_error_prob);
            f.disk.set_torn_write_prob(plan.disk.torn_write_prob);
        }

        let mut xfers = Vec::new();
        for _ in 0..4 {
            let outcome = transfer(&app, &local, 0, &remote, 0, 10);
            xfers.push(Xfer { from: 0, to: 1, amount: 10, outcome });
            // Write-back under the torn-write probability: any tear is
            // repaired by redo after the crash below.
            let _ = n1.pool.flush_all();
            let _ = n2.pool.flush_all();
        }

        // Heal the world, then crash both nodes and recover.
        cluster.network().clear_datagram_policy();
        f1.clear();
        f2.clear();
        std::thread::sleep(Duration::from_millis(150));
        drop((local, remote, local2));
        drop((a1, a2));
        n1.crash();
        n2.crash();
        let first = self.distributed_recovered_balances(&cluster, label, &xfers)?;
        let second = self.distributed_recovered_balances(&cluster, label, &xfers)?;
        if first != second {
            return Err(fail(format!(
                "re-recovery not idempotent: first {first:?}, second {second:?}"
            )));
        }
        Ok(())
    }

    /// Runs a single-node sequential workload under `plan`'s disk faults
    /// with tracing enabled and returns the rendered `(tid, event)`
    /// sequence — the determinism fingerprint: the same seed must produce
    /// the same fingerprint on every run.
    pub fn trace_fingerprint(&self, plan: &FaultPlan) -> Result<Vec<String>, String> {
        let fail = |m: String| self.fail("none", m);
        let cluster = Cluster::with_config(tabs_core::ClusterConfig::default().trace(true));
        let faults = NodeFaults::new(plan.seed ^ 0xF1);
        install_fault_log(&cluster, 1, &faults);
        install_fault_disk(&cluster, 1, "bank", &faults);
        let (node, arr) = boot_array(&cluster, 1, "bank", 4).map_err(&fail)?;
        let app = node.app();
        let client = IntArrayClient::new(app.clone(), arr.send_right());
        app.run(|t| {
            for cell in 0..4 {
                client.set(t, cell, BASE)?;
            }
            Ok(())
        })
        .map_err(|e| fail(format!("seeding failed: {e}")))?;
        node.pool.flush_all().map_err(|e| fail(format!("flush: {e}")))?;
        node.pool.invalidate_volatile();
        faults.disk.set_read_error_prob(plan.disk.read_error_prob);
        faults.disk.set_torn_write_prob(plan.disk.torn_write_prob);
        for (from, to, amount) in [(0u64, 1u64, 10i64), (2, 3, 7), (1, 2, 5), (3, 0, 3)] {
            let _ = transfer(&app, &client, from, &client, to, amount);
        }
        faults.clear();
        let fingerprint = cluster
            .trace(NodeId(1))
            .snapshot()
            .into_iter()
            .map(|r| format!("{} {:?}", r.tid, r.event))
            .collect();
        drop(client);
        drop(arr);
        node.crash();
        Ok(fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accepts_committed_and_subset_of_unknowns() {
        let base = [100, 100];
        let xfers = [
            Xfer { from: 0, to: 1, amount: 10, outcome: Outcome::Committed },
            Xfer { from: 0, to: 1, amount: 10, outcome: Outcome::Unknown },
        ];
        // Unknown absent.
        check_model(&[90, 110], &base, &xfers).unwrap();
        // Unknown landed.
        check_model(&[80, 120], &base, &xfers).unwrap();
        // Committed missing: durability violation.
        assert!(check_model(&[100, 100], &base, &xfers).is_err());
        // Half-applied: conservation violation.
        let err = check_model(&[80, 110], &base, &xfers).unwrap_err();
        assert!(err.contains("conservation"), "{err}");
    }

    #[test]
    fn model_rejects_aborted_effects() {
        let base = [100, 100];
        let xfers = [Xfer { from: 0, to: 1, amount: 10, outcome: Outcome::Aborted }];
        check_model(&[100, 100], &base, &xfers).unwrap();
        assert!(check_model(&[90, 110], &base, &xfers).is_err());
    }

    #[test]
    fn failure_strings_carry_seed_and_crash_point() {
        let r = ChaosRunner::new(1234);
        let s = r.fail("tm.vote.logged", "boom".into());
        assert!(s.contains("seed=1234"), "{s}");
        assert!(s.contains("crash_point=tm.vote.logged"), "{s}");
    }

    #[test]
    fn coverage_retries_reseed_only_coverage_misses() {
        // A coverage miss ("armed point never fired") gets fresh,
        // perturbed-seed attempts; the retry succeeds once the point fires.
        let mut seeds = Vec::new();
        let out = with_coverage_retries(7, |s| {
            seeds.push(s);
            if seeds.len() < 3 {
                Err(format!("seed={s} armed point never fired — the sweep does not cover it"))
            } else {
                Ok(s)
            }
        });
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds[0], 7, "first attempt runs the caller's seed unperturbed");
        assert!(seeds[1] != seeds[0] && seeds[2] != seeds[1], "retries perturb the seed");
        assert_eq!(out, Ok(seeds[2]));

        // Budget exhausted: the coverage miss propagates.
        let out =
            with_coverage_retries(7, |s| Err::<(), _>(format!("seed={s} armed point never fired")));
        assert!(out.unwrap_err().contains("armed point never fired"));

        // A safety failure is never retried — one attempt, immediate error.
        let mut attempts = 0;
        let out = with_coverage_retries(7, |_| {
            attempts += 1;
            Err::<(), _>("seed=7 crash_point=x conservation violated".into())
        });
        assert!(out.is_err());
        assert_eq!(attempts, 1, "safety failures must not be reseeded away");
    }
}
