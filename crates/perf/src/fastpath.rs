//! Commit fast paths: what the 1PC and read-only-voter paths cost,
//! counted exactly, beside the full two-phase-commit price of the same
//! transactions.
//!
//! The workload is a deterministic two-node bank: the coordinator node
//! owns one integer array (the *sole-writer* target) and the remote node
//! another (the *read-only audit* target). Each round issues a fixed
//! 8:2 mix of
//!
//! - **remote audits** — two shared-locked reads of the remote array;
//!   the remote participant logged nothing, so it votes read-only and
//!   drops out of phase 2, and
//! - **local transfers** — a two-account transfer on the coordinator's
//!   own array; the coordinator is the sole writer with no children, so
//!   it commits in one phase.
//!
//! Datagram and stable-storage-force deltas are taken around every
//! transaction from the kernel's Table 5-1 primitive counters, so the
//! per-shape costs are exact counts, not estimates. The full-2PC column
//! is not run; it is the protocol's price for the same shapes: an audit
//! would pay Prepare, VoteYes, Commit and CommitAck plus the
//! participant's prepare and commit forces and the coordinator's commit
//! force, and a sole-writer transfer a forced prepare before its commit.
//!
//! | per commit        | full 2PC (priced)   | fast paths (measured) |
//! |-------------------|---------------------|-----------------------|
//! | remote audit      | 4 msgs / 3 forces   | 2 msgs / 0 forces     |
//! | local transfer    | 0 msgs / 2 forces   | 0 msgs / 1 force      |
//!
//! The gate requires the measured column exactly. Counts are
//! deterministic, so it holds in `--quick` runs too.

use std::time::{Duration, Instant};

use tabs_core::{Cluster, NodeId, TmTimeouts};
use tabs_kernel::PrimitiveOp;
use tabs_servers::harness::client_for;
use tabs_servers::{IntArrayClient, IntArrayServer};

/// Accounts per array.
const ACCOUNTS: u64 = 8;
/// Starting balance of every account.
const INITIAL_BALANCE: i64 = 100;
/// Remote read-only audits per round.
const AUDITS_PER_ROUND: u64 = 8;
/// Sole-writer local transfers per round.
const WRITES_PER_ROUND: u64 = 2;

/// Timeouts that make the datagram counts exact: the retransmit interval
/// is far longer than the in-process network takes to deliver a vote or
/// an ack, so no prepare or decision datagram is ever sent twice, however
/// the scheduler treats a loaded single core.
const FASTPATH_TIMEOUTS: TmTimeouts = TmTimeouts {
    retransmit: Duration::from_secs(2),
    vote_deadline: Duration::from_secs(5),
    ack_deadline: Duration::from_secs(5),
};

/// What one transaction shape cost over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeCost {
    /// Transactions of this shape that committed.
    pub commits: u64,
    /// Inter-node datagrams they sent.
    pub datagrams: u64,
    /// Stable-storage forces they cost.
    pub forces: u64,
}

impl ShapeCost {
    /// The full-2PC price of one remote read-only audit.
    pub const FULL_2PC_AUDIT: ShapeCost = ShapeCost { commits: 1, datagrams: 4, forces: 3 };
    /// The full-2PC price of one sole-writer local transfer.
    pub const FULL_2PC_TRANSFER: ShapeCost = ShapeCost { commits: 1, datagrams: 0, forces: 2 };
    /// What one remote read-only audit must cost on the fast path.
    pub const FAST_AUDIT: ShapeCost = ShapeCost { commits: 1, datagrams: 2, forces: 0 };
    /// What one sole-writer local transfer must cost on the fast path.
    pub const FAST_TRANSFER: ShapeCost = ShapeCost { commits: 1, datagrams: 0, forces: 1 };

    /// Adds one committed transaction's deltas.
    fn add(&mut self, delta: &tabs_kernel::PerfSnapshot) {
        self.commits += 1;
        self.datagrams += delta.get(PrimitiveOp::Datagram);
        self.forces += delta.get(PrimitiveOp::StableStorageWrite);
    }

    /// Whether every commit cost exactly `per` (whose `commits` is 1).
    pub fn each_costs(&self, per: ShapeCost) -> bool {
        self.datagrams == self.commits * per.datagrams && self.forces == self.commits * per.forces
    }

    /// `datagrams / forces` per commit, for the report table.
    fn per_commit(&self) -> String {
        let n = (self.commits as f64).max(1.0);
        format!("{:.2} / {:.2}", self.datagrams as f64 / n, self.forces as f64 / n)
    }
}

/// Measurements from one run of the fast-path workload.
#[derive(Debug, Clone)]
pub struct FastpathRun {
    /// Remote read-only audits.
    pub audits: ShapeCost,
    /// Sole-writer local transfers.
    pub transfers: ShapeCost,
    /// Per-transaction latencies, sorted ascending.
    pub latencies: Vec<Duration>,
    /// `tm.commit.1pc` delta on the coordinator.
    pub one_pc: u64,
    /// `tm.prepare.readonly` delta on the remote participant.
    pub readonly_votes: u64,
    /// Both arrays conserved their total balance after the run.
    pub invariant_ok: bool,
}

impl FastpathRun {
    /// The `p`-th percentile (0–100) of transaction latency.
    pub fn percentile(&self, p: u32) -> Duration {
        crate::percentile(&self.latencies, p)
    }
}

/// Waits for every decided transaction's phase 2 to finish, so the
/// participants' commit forces and acknowledgements are all accounted
/// before a snapshot is taken.
fn settle(cluster: &Cluster) -> Result<(), String> {
    if cluster.quiesce(Duration::from_secs(5)) {
        Ok(())
    } else {
        Err("phase 2 never drained".into())
    }
}

/// Runs `rounds` of the deterministic 8:2 audit/transfer schedule on a
/// fresh two-node cluster and returns exact per-shape message and force
/// accounting.
pub fn run(rounds: u64, seed: u64) -> Result<FastpathRun, String> {
    let fail = |m: String| format!("fastpath {m}");
    let cluster = Cluster::new();
    let n1 = cluster.boot_node(NodeId(1));
    let n2 = cluster.boot_node(NodeId(2));
    let local_arr = IntArrayServer::spawn(&n1, "fp-local", ACCOUNTS)
        .map_err(|e| fail(format!("spawn local array: {e}")))?;
    let remote_arr = IntArrayServer::spawn(&n2, "fp-remote", ACCOUNTS)
        .map_err(|e| fail(format!("spawn remote array: {e}")))?;
    n1.recover().map_err(|e| fail(format!("recover node 1: {e}")))?;
    n2.recover().map_err(|e| fail(format!("recover node 2: {e}")))?;
    n1.tm.set_timeouts(FASTPATH_TIMEOUTS);
    n2.tm.set_timeouts(FASTPATH_TIMEOUTS);

    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), local_arr.send_right());
    let remote = client_for(&n1, "fp-remote");
    app.run(|t| {
        for a in 0..ACCOUNTS {
            local.set(t, a, INITIAL_BALANCE)?;
            remote.set(t, a, INITIAL_BALANCE)?;
        }
        Ok(())
    })
    .map_err(|e| fail(format!("seeding failed: {e}")))?;

    let audit = |from: u64, to: u64| {
        app.run(|t| {
            remote.get(t, from)?;
            remote.get(t, to)?;
            Ok(())
        })
    };
    let transfer = |from: u64, to: u64, amount: i64| {
        app.run(|t| {
            local.add(t, from, -amount)?;
            local.add(t, to, amount)?;
            Ok(())
        })
    };

    // Warm up both transaction shapes so name-server lookups and session
    // establishment land outside the measured window, then wait for the
    // warm-up's phase 2 to drain.
    audit(0, 1).map_err(|e| fail(format!("warmup audit: {e}")))?;
    transfer(0, 1, 1).map_err(|e| fail(format!("warmup transfer: {e}")))?;
    transfer(1, 0, 1).map_err(|e| fail(format!("warmup transfer undo: {e}")))?;
    settle(&cluster).map_err(&fail)?;

    let m1_before = cluster.metrics(NodeId(1)).snapshot();
    let m2_before = cluster.metrics(NodeId(2)).snapshot();

    // Neither shape has a phase 2, so everything a commit costs has
    // been counted by the time it returns: the read-only vote is sent
    // before the coordinator can decide, and the 1PC force is the commit.
    let mut audits = ShapeCost::default();
    let mut transfers = ShapeCost::default();
    let mut latencies = Vec::new();
    for round in 0..rounds {
        let base = seed.wrapping_add(round);
        for i in 0..AUDITS_PER_ROUND {
            let from = (base.wrapping_mul(7).wrapping_add(i)) % ACCOUNTS;
            let to = (from + 1 + i % (ACCOUNTS - 1)) % ACCOUNTS;
            let before = cluster.perf_all();
            let t0 = Instant::now();
            audit(from, to).map_err(|e| fail(format!("audit failed: {e}")))?;
            latencies.push(t0.elapsed());
            audits.add(&cluster.perf_all().since(&before));
        }
        for i in 0..WRITES_PER_ROUND {
            let from = (base.wrapping_add(3 * i)) % ACCOUNTS;
            let to = (from + 1) % ACCOUNTS;
            let before = cluster.perf_all();
            let t0 = Instant::now();
            transfer(from, to, 1).map_err(|e| fail(format!("transfer failed: {e}")))?;
            latencies.push(t0.elapsed());
            transfers.add(&cluster.perf_all().since(&before));
        }
    }

    let m1 = cluster.metrics(NodeId(1)).snapshot();
    let m2 = cluster.metrics(NodeId(2)).snapshot();
    let one_pc = m1.counter("tm.commit.1pc") - m1_before.counter("tm.commit.1pc");
    let readonly_votes =
        m2.counter("tm.prepare.readonly") - m2_before.counter("tm.prepare.readonly");

    let total = ACCOUNTS as i64 * INITIAL_BALANCE;
    let sums = app
        .run_with_retries(5, |t| {
            let mut l = 0i64;
            let mut r = 0i64;
            for a in 0..ACCOUNTS {
                l += local.get(t, a)?;
                r += remote.get(t, a)?;
            }
            Ok((l, r))
        })
        .map_err(|e| fail(format!("invariant read failed: {e}")))?;

    latencies.sort();
    let run = FastpathRun {
        audits,
        transfers,
        latencies,
        one_pc,
        readonly_votes,
        invariant_ok: sums == (total, total),
    };
    drop(local);
    drop(remote);
    drop(local_arr);
    drop(remote_arr);
    n1.shutdown();
    n2.shutdown();
    Ok(run)
}

/// ASCII table: each shape's measured cost beside its full-2PC price.
pub fn render(run: &FastpathRun) -> String {
    let mut out = String::new();
    out.push_str("Commit fast paths (remote read-only audits + sole-writer transfers, 8:2)\n");
    out.push_str("per commit       commits   fast paths (msgs / forces)   full 2PC, priced\n");
    out.push_str("------------------------------------------------------------------------\n");
    for (shape, cost, full) in [
        ("remote audit", run.audits, ShapeCost::FULL_2PC_AUDIT),
        ("local transfer", run.transfers, ShapeCost::FULL_2PC_TRANSFER),
    ] {
        out.push_str(&format!(
            "{shape:<16} {:>7} {:>28} {:>18}\n",
            cost.commits,
            cost.per_commit(),
            full.per_commit(),
        ));
    }
    out.push_str(&format!(
        "\n1pc commits {}, read-only votes {}, p50 {:.1?}\n",
        run.one_pc,
        run.readonly_votes,
        run.percentile(50)
    ));
    out
}

/// The acceptance gate: every audit cost 2 datagrams and no force, every
/// transfer no datagram and 1 force, and the counters saw each shape.
pub fn gate(run: &FastpathRun) -> Option<String> {
    if !run.invariant_ok {
        return Some("fastpath violated balance conservation".into());
    }
    if !run.audits.each_costs(ShapeCost::FAST_AUDIT)
        || !run.transfers.each_costs(ShapeCost::FAST_TRANSFER)
    {
        return Some(format!(
            "fast paths cost {:?} over the audits and {:?} over the transfers (gate: 2 datagrams \
             / 0 forces per audit, 0 / 1 per transfer)",
            run.audits, run.transfers
        ));
    }
    if run.one_pc != run.transfers.commits || run.readonly_votes != run.audits.commits {
        return Some(format!(
            "fastpath counted {} 1PC commits for {} transfers and {} read-only votes for {} audits",
            run.one_pc, run.transfers.commits, run.readonly_votes, run.audits.commits
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_policy_hits_both_fast_paths_and_conserves_balances() {
        let r = run(2, 7).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.audits.commits, 2 * AUDITS_PER_ROUND);
        assert_eq!(r.transfers.commits, 2 * WRITES_PER_ROUND);
        assert!(r.invariant_ok, "balances must be conserved");
        assert_eq!(r.one_pc, 2 * WRITES_PER_ROUND, "every local transfer is a 1PC");
        assert_eq!(
            r.readonly_votes,
            2 * AUDITS_PER_ROUND,
            "every audit draws a read-only vote on the participant"
        );
        // Sole-writer commits send nothing and force once; audits cost
        // Prepare + VoteReadOnly and force nothing.
        assert_eq!((r.audits.datagrams, r.audits.forces), (2 * AUDITS_PER_ROUND * 2, 0));
        assert_eq!((r.transfers.datagrams, r.transfers.forces), (0, 2 * WRITES_PER_ROUND));
        assert_eq!(gate(&r), None);
    }

    /// The gate separates the fast paths from the full-2PC price: a run
    /// whose audits or transfers cost what full 2PC charges fails it.
    #[test]
    fn gate_rejects_full_two_phase_costs() {
        let times = |per: ShapeCost, n: u64| ShapeCost {
            commits: n,
            datagrams: n * per.datagrams,
            forces: n * per.forces,
        };
        let counted = |audits: ShapeCost, transfers: ShapeCost| FastpathRun {
            audits,
            transfers,
            latencies: Vec::new(),
            one_pc: transfers.commits,
            readonly_votes: audits.commits,
            invariant_ok: true,
        };
        let fast_audits = times(ShapeCost::FAST_AUDIT, 8);
        let fast_transfers = times(ShapeCost::FAST_TRANSFER, 2);
        assert_eq!(gate(&counted(fast_audits, fast_transfers)), None);
        let full_audits = times(ShapeCost::FULL_2PC_AUDIT, 8);
        assert!(gate(&counted(full_audits, fast_transfers)).is_some());
        let full_transfers = times(ShapeCost::FULL_2PC_TRANSFER, 2);
        assert!(gate(&counted(fast_audits, full_transfers)).is_some());
    }
}
