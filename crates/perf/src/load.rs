//! Sustained load generator: open- and closed-loop drivers over the bank
//! and mixed-server scenarios.
//!
//! The §5 benchmarks measure one transaction at a time; this module
//! measures the system under *sustained concurrency*, where the lock
//! table, the commit path and the session layer are all contended at
//! once. Two driver disciplines:
//!
//! - **closed loop** — N client threads, each issuing its next
//!   transaction as soon as the previous one finishes (plus optional
//!   think time). Throughput self-limits to what the system sustains.
//! - **open loop** — transactions arrive on a fixed schedule regardless
//!   of completions; latency is measured from the *scheduled arrival*,
//!   so queueing delay under overload is visible instead of hidden.
//!
//! Two scenarios:
//!
//! - **bank** — transfers between random accounts of one integer array.
//!   Unordered acquisition is deadlock-prone (the detector resolves
//!   victims); ordered acquisition is deadlock-free pure contention. Every
//!   bank run re-checks conservation of the total balance afterwards.
//! - **mixed** — array, weak-queue and B-tree operations across two
//!   nodes, so the datagram/session hot path carries a share of the
//!   traffic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tabs_app_lib::{AppError, AppHandle};
use tabs_core::{Cluster, ClusterConfig, GroupCommitConfig, Node, NodeId, Tid};
use tabs_kernel::PrimitiveOp;
use tabs_lock::{LockManager, StdMode, WaitStats};
use tabs_servers::harness::{client_for, spawn_suite};
use tabs_servers::{BTreeClient, IntArrayClient, IntArrayServer, WeakQueueClient};

use crate::report::{BenchReport, RunOpts, Workload, WorkloadOutput};

/// Starting balance of every bank account.
const INITIAL_BALANCE: i64 = 100;

/// What the load generator drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Transfers between random accounts of one integer array, mixed
    /// with read-only audits of random account pairs.
    Bank {
        /// Number of accounts (smaller = hotter locks).
        accounts: u64,
        /// Acquire the two account locks in index order (deadlock-free
        /// pure contention) instead of transfer order (deadlock-prone).
        ordered: bool,
        /// Percentage of transactions that are read-only audits (shared
        /// locks, no commit-path log force).
        audit_pct: u8,
    },
    /// Array + weak-queue + B-tree operations across two nodes.
    Mixed,
}

/// How transactions are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// N client threads, next transaction after the previous completes.
    Closed {
        /// Concurrent client threads.
        clients: u32,
        /// Pause between a completion and the next issue.
        think: Duration,
    },
    /// Fixed arrival schedule served by a worker pool.
    Open {
        /// Scheduled arrivals per second.
        rate_tps: u32,
        /// Worker threads draining the schedule.
        workers: u32,
    },
}

/// A complete load-run configuration, built fluently:
///
/// ```
/// use std::time::Duration;
/// use tabs_perf::load::LoadProfile;
///
/// let profile = LoadProfile::bank(16)
///     .closed(8, Duration::ZERO)
///     .duration(Duration::from_millis(500))
///     .seed(7);
/// assert_eq!(profile.seed, 7);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct LoadProfile {
    /// What to drive.
    pub scenario: Scenario,
    /// How to issue transactions.
    pub mode: Mode,
    /// Target wall-clock measurement window.
    pub duration: Duration,
    /// Seed for the per-thread RNG streams.
    pub seed: u64,
    /// Batch commit-path log forces (amortizes the per-commit force so
    /// sustained concurrency is bounded by locking, not the log device).
    pub group_commit: bool,
}

impl LoadProfile {
    fn base(scenario: Scenario) -> Self {
        Self {
            scenario,
            mode: Mode::Closed { clients: 8, think: Duration::ZERO },
            duration: Duration::from_secs(2),
            seed: 42,
            group_commit: false,
        }
    }

    /// Deadlock-prone bank transfers over `accounts` accounts.
    pub fn bank(accounts: u64) -> Self {
        Self::base(Scenario::Bank { accounts, ordered: false, audit_pct: 0 })
    }

    /// Deadlock-free (index-ordered) bank transfers — pure lock
    /// contention.
    pub fn bank_ordered(accounts: u64) -> Self {
        Self::base(Scenario::Bank { accounts, ordered: true, audit_pct: 0 })
    }

    /// For bank scenarios: make `pct`% of transactions read-only audits
    /// (two shared-locked reads, no commit-path force). No effect on the
    /// mixed scenario.
    pub fn audit_pct(mut self, pct: u8) -> Self {
        if let Scenario::Bank { audit_pct, .. } = &mut self.scenario {
            *audit_pct = pct.min(100);
        }
        self
    }

    /// The two-node mixed-server scenario.
    pub fn mixed() -> Self {
        Self::base(Scenario::Mixed)
    }

    /// Closed-loop driving: `clients` threads with `think` between
    /// transactions.
    pub fn closed(mut self, clients: u32, think: Duration) -> Self {
        self.mode = Mode::Closed { clients: clients.max(1), think };
        self
    }

    /// Open-loop driving: `rate_tps` scheduled arrivals per second
    /// served by `workers` threads.
    pub fn open(mut self, rate_tps: u32, workers: u32) -> Self {
        self.mode = Mode::Open { rate_tps: rate_tps.max(1), workers: workers.max(1) };
        self
    }

    /// Measurement window.
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable or disable group commit for the run.
    pub fn group_commit(mut self, enabled: bool) -> Self {
        self.group_commit = enabled;
        self
    }

    /// Scenario label for reports.
    pub fn scenario_label(&self) -> String {
        match self.scenario {
            Scenario::Bank { ordered: false, .. } => "bank".into(),
            Scenario::Bank { ordered: true, .. } => "bank-ordered".into(),
            Scenario::Mixed => "mixed".into(),
        }
    }

    /// Mode label for reports ("closed/8", "open/400").
    pub fn mode_label(&self) -> String {
        match self.mode {
            Mode::Closed { clients, .. } => format!("closed/{clients}"),
            Mode::Open { rate_tps, .. } => format!("open/{rate_tps}"),
        }
    }
}

/// Everything one load run measured.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// The configuration that produced the run.
    pub profile: LoadProfile,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that aborted (deadlock victims, time-outs, …).
    pub aborted: u64,
    /// Aborts classified as deadlock resolutions.
    pub deadlocks: u64,
    /// Per-transaction latencies, sorted ascending. Closed-loop latency
    /// runs issue→completion; open-loop latency runs *scheduled
    /// arrival*→completion, so it includes queueing delay.
    pub latencies: Vec<Duration>,
    /// Actual measurement window (≥ the profile's target under overload).
    pub elapsed: Duration,
    /// Inter-node datagrams the window cost.
    pub datagrams: u64,
    /// Stable-storage forces the window cost.
    pub forces: u64,
    /// Session receives that forwarded payload bytes without copying.
    pub zero_copy: u64,
    /// Session receives that fell back to an owned decode.
    pub fallback: u64,
    /// Wakeup behaviour of the contended server's lock table over the
    /// window (zeroed for scenarios that don't instrument it).
    pub lock_waits: WaitStats,
    /// Scenario invariant re-checked after the run (bank: total balance
    /// conserved). Always true for scenarios with no invariant.
    pub invariant_ok: bool,
}

impl LoadResult {
    /// The `p`-th percentile (0–100) of transaction latency.
    pub fn percentile(&self, p: u32) -> Duration {
        crate::percentile(&self.latencies, p)
    }

    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The run as a serializable report row.
    pub fn to_report(&self) -> BenchReport {
        let mut r = BenchReport {
            workload: "load".into(),
            scenario: self.profile.scenario_label(),
            mode: self.profile.mode_label(),
            duration_ms: self.elapsed.as_secs_f64() * 1e3,
            committed: self.committed,
            aborted: self.aborted,
            throughput_tps: self.throughput(),
            p50_ms: self.percentile(50).as_secs_f64() * 1e3,
            p95_ms: self.percentile(95).as_secs_f64() * 1e3,
            p99_ms: self.percentile(99).as_secs_f64() * 1e3,
            messages_per_commit: self.datagrams as f64 / (self.committed as f64).max(1.0),
            forces_per_commit: self.forces as f64 / (self.committed as f64).max(1.0),
            deadlocks_resolved: self.deadlocks,
            ..BenchReport::default()
        };
        let cfg = &mut r.config;
        cfg.insert("seed".into(), self.profile.seed.to_string());
        cfg.insert("group_commit".into(), self.profile.group_commit.to_string());
        cfg.insert("invariant_ok".into(), self.invariant_ok.to_string());
        cfg.insert("rx_zero_copy".into(), self.zero_copy.to_string());
        cfg.insert("rx_fallback".into(), self.fallback.to_string());
        cfg.insert("lock_waits".into(), self.lock_waits.waits.to_string());
        cfg.insert("lock_wakeups".into(), self.lock_waits.wakeups.to_string());
        cfg.insert("lock_spurious_wakeups".into(), self.lock_waits.spurious.to_string());
        match self.profile.scenario {
            Scenario::Bank { accounts, audit_pct, .. } => {
                cfg.insert("accounts".into(), accounts.to_string());
                cfg.insert("audit_pct".into(), audit_pct.to_string());
            }
            Scenario::Mixed => {}
        }
        match self.profile.mode {
            Mode::Closed { think, .. } => {
                cfg.insert("think_ms".into(), format!("{}", think.as_secs_f64() * 1e3));
            }
            Mode::Open { workers, .. } => {
                cfg.insert("workers".into(), workers.to_string());
            }
        }
        r
    }
}

/// ASCII table over any set of load results.
pub fn render(results: &[LoadResult]) -> String {
    let mut out = String::new();
    out.push_str("Sustained load\n");
    out.push_str(
        "scenario       mode          tx/sec   p50 lat   p95 lat   commits   aborts  dlocks   \
         msgs/c   forces/c\n",
    );
    out.push_str(
        "-------------------------------------------------------------------------------------\
         ------------\n",
    );
    for r in results {
        let report = r.to_report();
        out.push_str(&format!(
            "{:<14} {:<11} {:>8.1} {:>9} {:>9} {:>9} {:>8} {:>7} {:>8.2} {:>10.2}\n",
            report.scenario,
            report.mode,
            report.throughput_tps,
            format!("{:.1?}", r.percentile(50)),
            format!("{:.1?}", r.percentile(95)),
            r.committed,
            r.aborted,
            r.deadlocks,
            report.messages_per_commit,
            report.forces_per_commit,
        ));
    }
    out
}

type TxnFn = Arc<dyn Fn(Tid, &mut StdRng) -> Result<(), AppError> + Send + Sync>;

/// A booted scenario: cluster, issuing app, transaction body, and the
/// post-run invariant check.
struct World {
    cluster: Arc<Cluster>,
    nodes: Vec<Node>,
    node_ids: Vec<NodeId>,
    app: AppHandle,
    txn: TxnFn,
    check: Box<dyn Fn() -> bool>,
    /// The contended server's lock manager, when the scenario has one
    /// worth instrumenting.
    locks: Option<Arc<LockManager<StdMode>>>,
    _keep: Vec<Box<dyn std::any::Any>>,
}

impl World {
    fn shutdown(self) {
        for n in self.nodes {
            n.shutdown();
        }
    }
}

fn cluster_config(profile: &LoadProfile) -> ClusterConfig {
    let mut config = ClusterConfig::default().deadlock_detection(true);
    if profile.group_commit {
        config = config
            .group_commit(GroupCommitConfig { max_delay: Duration::from_millis(2), max_batch: 64 });
    }
    config
}

fn bank_world(accounts: u64, ordered: bool, audit_pct: u8, profile: &LoadProfile) -> World {
    let accounts = accounts.max(2);
    let cluster = Cluster::with_config(cluster_config(profile));
    let node = cluster.boot_node(NodeId(1));
    let arr = IntArrayServer::spawn(&node, "bank", accounts).expect("bank array");
    node.recover().expect("recover bank node");
    let app = node.app();
    let client = IntArrayClient::new(app.clone(), arr.send_right());
    app.run(|t| {
        for a in 0..accounts {
            client.set(t, a, INITIAL_BALANCE)?;
        }
        Ok(())
    })
    .expect("seed accounts");

    let c = client.clone();
    let txn: TxnFn = Arc::new(move |t, rng| {
        let from = rng.gen_range(0..accounts);
        let mut to = rng.gen_range(0..accounts - 1);
        if to >= from {
            to += 1;
        }
        if rng.gen_range(0..100) < u32::from(audit_pct) {
            // Read-only audit: shared locks, no commit-path force.
            c.get(t, from)?;
            c.get(t, to)?;
            return Ok(());
        }
        // Ordered mode acquires the lower-indexed account first, which
        // rules out lock-order cycles; transfer direction is unchanged.
        let (first, d_first, second, d_second) =
            if ordered && from > to { (to, 1, from, -1) } else { (from, -1, to, 1) };
        c.add(t, first, d_first)?;
        c.add(t, second, d_second)?;
        Ok(())
    });

    let chk_app = app.clone();
    let chk = client.clone();
    let check = Box::new(move || {
        chk_app
            .run_with_retries(5, |t| {
                let mut sum = 0i64;
                for a in 0..accounts {
                    sum += chk.get(t, a)?;
                }
                Ok(sum)
            })
            .map(|sum| sum == accounts as i64 * INITIAL_BALANCE)
            .unwrap_or(false)
    });

    World {
        cluster,
        node_ids: vec![NodeId(1)],
        nodes: vec![node],
        app,
        txn,
        check,
        locks: Some(Arc::clone(arr.locks())),
        _keep: vec![Box::new(arr)],
    }
}

fn mixed_world(profile: &LoadProfile) -> World {
    const CELLS: u64 = 64;
    let seed = profile.seed;
    let cluster = Cluster::with_config(cluster_config(profile));
    let n1 = cluster.boot_node(NodeId(1));
    let n2 = cluster.boot_node(NodeId(2));
    let suite = spawn_suite(&n1, CELLS, 4096, 64);
    let remote_arr = IntArrayServer::spawn(&n2, "mixed-remote", CELLS).expect("remote array");
    n1.recover().expect("recover node 1");
    n2.recover().expect("recover node 2");

    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), suite.array.send_right());
    let remote = client_for(&n1, "mixed-remote");
    let queue = WeakQueueClient::new(app.clone(), suite.queue.send_right());
    let btree = BTreeClient::new(app.clone(), suite.btree.send_right());

    let tag = Arc::new(AtomicU64::new(seed));
    let txn: TxnFn = Arc::new(move |t, rng| {
        match rng.gen_range(0u32..100) {
            0..=39 => {
                local.add(t, rng.gen_range(0..CELLS), 1)?;
            }
            40..=64 => {
                remote.add(t, rng.gen_range(0..CELLS), 1)?;
            }
            65..=77 => {
                queue.enqueue(t, rng.gen_range(0..1_000_000))?;
            }
            78..=90 => {
                queue.dequeue(t)?;
            }
            _ => {
                let key = format!("k{:03}", rng.gen_range(0..32));
                let val = tag.fetch_add(1, Ordering::Relaxed).to_be_bytes();
                btree.put(t, key.as_bytes(), &val)?;
            }
        }
        Ok(())
    });

    World {
        cluster,
        node_ids: vec![NodeId(1), NodeId(2)],
        nodes: vec![n1, n2],
        app,
        txn,
        check: Box::new(|| true),
        locks: Some(Arc::clone(suite.array.locks())),
        _keep: vec![Box::new(suite), Box::new(remote_arr)],
    }
}

#[derive(Default)]
struct ThreadStats {
    committed: u64,
    aborted: u64,
    deadlocks: u64,
    latencies: Vec<Duration>,
}

fn is_deadlock(e: &AppError) -> bool {
    e.to_string().contains("deadlock")
}

/// Runs one transaction end to end; `Ok(true)` committed, `Ok(false)`
/// aborted cleanly, `Err` carries the abort reason for classification.
fn run_one(app: &AppHandle, txn: &TxnFn, rng: &mut StdRng) -> Result<bool, AppError> {
    let t = app.begin_transaction(Tid::NULL)?;
    match txn(t, rng) {
        Ok(()) => Ok(app.end_transaction(t)?.is_committed()),
        Err(e) => {
            let _ = app.abort_transaction(t);
            Err(e)
        }
    }
}

fn record(stats: &mut ThreadStats, outcome: Result<bool, AppError>, latency: Duration) {
    stats.latencies.push(latency);
    match outcome {
        Ok(true) => stats.committed += 1,
        Ok(false) => stats.aborted += 1,
        Err(e) => {
            stats.aborted += 1;
            if is_deadlock(&e) {
                stats.deadlocks += 1;
            }
        }
    }
}

fn thread_rng_for(seed: u64, thread: u32) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(thread) + 1))
}

fn drive_closed(
    world: &World,
    clients: u32,
    think: Duration,
    duration: Duration,
    seed: u64,
) -> (Vec<ThreadStats>, Duration) {
    let start = Instant::now();
    let deadline = start + duration;
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let app = world.app.clone();
            let txn = Arc::clone(&world.txn);
            std::thread::spawn(move || {
                let mut rng = thread_rng_for(seed, i);
                let mut stats = ThreadStats::default();
                while Instant::now() < deadline {
                    let t0 = Instant::now();
                    let outcome = run_one(&app, &txn, &mut rng);
                    record(&mut stats, outcome, t0.elapsed());
                    if !think.is_zero() {
                        std::thread::sleep(think);
                    }
                }
                stats
            })
        })
        .collect();
    let stats = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
    (stats, start.elapsed())
}

fn drive_open(
    world: &World,
    rate_tps: u32,
    workers: u32,
    duration: Duration,
    seed: u64,
) -> (Vec<ThreadStats>, Duration) {
    let interval = Duration::from_secs_f64(1.0 / f64::from(rate_tps));
    let next = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            let app = world.app.clone();
            let txn = Arc::clone(&world.txn);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut rng = thread_rng_for(seed, i);
                let mut stats = ThreadStats::default();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let offset = interval.mul_f64(idx as f64);
                    if offset >= duration {
                        break;
                    }
                    let arrival = start + offset;
                    let now = Instant::now();
                    if arrival > now {
                        std::thread::sleep(arrival - now);
                    }
                    let outcome = run_one(&app, &txn, &mut rng);
                    // From the scheduled arrival, so backlog queueing
                    // shows up in the tail instead of vanishing.
                    record(&mut stats, outcome, arrival.elapsed());
                }
                stats
            })
        })
        .collect();
    let stats = handles.into_iter().map(|h| h.join().expect("worker thread")).collect();
    (stats, start.elapsed())
}

/// Runs one load profile to completion and returns its measurements.
pub fn run(profile: &LoadProfile) -> LoadResult {
    let world = match profile.scenario {
        Scenario::Bank { accounts, ordered, audit_pct } => {
            bank_world(accounts, ordered, audit_pct, profile)
        }
        Scenario::Mixed => mixed_world(profile),
    };

    let perf_before = world.cluster.perf_all();
    let rx_before: Vec<_> =
        world.node_ids.iter().map(|&id| world.cluster.metrics(id).snapshot()).collect();
    let waits_before = world.locks.as_ref().map(|l| l.wait_stats()).unwrap_or_default();

    let (stats, elapsed) = match profile.mode {
        Mode::Closed { clients, think } => {
            drive_closed(&world, clients, think, profile.duration, profile.seed)
        }
        Mode::Open { rate_tps, workers } => {
            drive_open(&world, rate_tps, workers, profile.duration, profile.seed)
        }
    };

    let delta = world.cluster.perf_all().since(&perf_before);
    let (mut zero_copy, mut fallback) = (0u64, 0u64);
    for (&id, before) in world.node_ids.iter().zip(&rx_before) {
        let now = world.cluster.metrics(id).snapshot();
        zero_copy +=
            now.counter("cm.session.rx.zero_copy") - before.counter("cm.session.rx.zero_copy");
        fallback +=
            now.counter("cm.session.rx.fallback") - before.counter("cm.session.rx.fallback");
    }

    let mut result = LoadResult {
        profile: profile.clone(),
        committed: 0,
        aborted: 0,
        deadlocks: 0,
        latencies: Vec::new(),
        elapsed,
        datagrams: delta.get(PrimitiveOp::Datagram),
        forces: delta.get(PrimitiveOp::StableStorageWrite),
        zero_copy,
        fallback,
        lock_waits: world.locks.as_ref().map(|l| l.wait_stats()).unwrap_or_default() - waits_before,
        invariant_ok: false,
    };
    for s in stats {
        result.committed += s.committed;
        result.aborted += s.aborted;
        result.deadlocks += s.deadlocks;
        result.latencies.extend(s.latencies);
    }
    result.latencies.sort();
    result.invariant_ok = (world.check)();
    world.shutdown();
    result
}

/// The `tables load` workload: the contended bank scenario (eight hot
/// accounts, 32 closed-loop clients), an open-loop bank run and the
/// mixed-server scenario.
pub struct LoadWorkload;

impl Workload for LoadWorkload {
    fn name(&self) -> &'static str {
        "load"
    }

    fn describe(&self) -> &'static str {
        "sustained load: bank/mixed scenarios, open/closed loop"
    }

    fn run(&self, opts: &RunOpts) -> Result<WorkloadOutput, String> {
        let duration = if opts.quick { Duration::from_millis(400) } else { Duration::from_secs(4) };
        let mut out = WorkloadOutput::default();

        let contended = run(&LoadProfile::bank_ordered(8)
            .closed(32, Duration::ZERO)
            .duration(duration)
            .seed(opts.seed));

        let open_rate = if opts.quick { 100 } else { 300 };
        let open =
            run(&LoadProfile::bank(32).open(open_rate, 8).duration(duration).seed(opts.seed));

        let mixed = run(&LoadProfile::mixed()
            .closed(8, Duration::from_millis(1))
            .duration(duration)
            .seed(opts.seed));

        let results = [contended, open, mixed];
        out.text = render(&results);
        let waits = results[0].lock_waits;
        out.text.push_str(&format!(
            "\ncontended bank: {} lock waits, {} wakeups, {} spurious\n",
            waits.waits, waits.wakeups, waits.spurious
        ));

        for r in &results {
            if r.committed == 0 {
                out.gate_failure = Some(format!(
                    "load {} {} committed no transactions",
                    r.profile.scenario_label(),
                    r.profile.mode_label()
                ));
            }
            if !r.invariant_ok {
                out.gate_failure = Some(format!(
                    "load {} {} violated its scenario invariant (bank balance not conserved)",
                    r.profile.scenario_label(),
                    r.profile.mode_label()
                ));
            }
            out.reports.push(r.to_report());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_bank_commits_and_conserves_balance() {
        let r = run(&LoadProfile::bank(8)
            .closed(4, Duration::ZERO)
            .duration(Duration::from_millis(300))
            .seed(7));
        assert!(r.committed > 0, "closed-loop bank must make progress");
        assert!(r.invariant_ok, "total balance must be conserved");
        assert_eq!(r.latencies.len() as u64, r.committed + r.aborted);
        assert!(r.forces > 0, "committed transfers force the log");
        let report = r.to_report();
        assert_eq!(report.workload, "load");
        assert_eq!(report.scenario, "bank");
        assert_eq!(report.mode, "closed/4");
        assert_eq!(report.config.get("accounts").map(String::as_str), Some("8"));
    }

    #[test]
    fn ordered_bank_never_deadlocks() {
        let r = run(&LoadProfile::bank_ordered(4)
            .closed(8, Duration::ZERO)
            .duration(Duration::from_millis(300))
            .seed(11));
        assert!(r.committed > 0);
        assert!(r.invariant_ok);
        assert_eq!(r.deadlocks, 0, "index-ordered acquisition cannot cycle");
    }

    #[test]
    fn open_loop_issues_the_scheduled_arrivals() {
        let rate = 200u32;
        let window = Duration::from_millis(400);
        let r = run(&LoadProfile::bank(32).open(rate, 4).duration(window).seed(3));
        let scheduled = (window.as_secs_f64() * f64::from(rate)).ceil() as u64;
        let issued = r.committed + r.aborted;
        assert!(issued > 0, "open loop must issue transactions");
        assert!(
            issued <= scheduled,
            "no more than the schedule: issued {issued}, scheduled {scheduled}"
        );
        assert!(
            issued * 2 >= scheduled,
            "workers should keep up with a modest rate: issued {issued} of {scheduled}"
        );
        assert!(r.invariant_ok);
    }

    #[test]
    fn mixed_scenario_reaches_the_remote_server() {
        let r = run(&LoadProfile::mixed()
            .closed(4, Duration::ZERO)
            .duration(Duration::from_millis(300))
            .seed(5));
        assert!(r.committed > 0);
        assert!(r.datagrams > 0, "remote array calls must cross the network");
        assert!(r.to_report().messages_per_commit > 0.0);
        assert!(r.zero_copy > 0, "session receive path should forward borrowed payloads");
    }
}
