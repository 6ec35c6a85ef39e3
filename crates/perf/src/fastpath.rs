//! Commit fast-path comparison: the 1PC / read-only-voter fast paths
//! versus a pessimistic full-2PC baseline, measured with the same
//! message/force accounting the rest of the perf suite uses.
//!
//! The workload is a deterministic two-node bank: the coordinator node
//! owns one integer array (the *sole-writer* target) and the remote node
//! another (the *read-only audit* target). Each round issues a fixed
//! 8:2 mix of
//!
//! - **remote audits** — two shared-locked reads of the remote array;
//!   the remote participant holds only S-locks at commit, and
//! - **local transfers** — a two-account transfer on the coordinator's
//!   own array; the coordinator is the sole writer with no children.
//!
//! The same seeded schedule runs once under
//! [`CommitPathPolicy::Full`] — every participant is forced through both
//! phases and both log forces, the classical pessimistic presumed-nothing
//! cost model — and once under [`CommitPathPolicy::Fast`]. Datagram and
//! stable-storage-force deltas come from the kernel's Table 5-1
//! primitive counters, so per-commit costs are exact counts, not
//! estimates:
//!
//! | per commit        | full 2PC            | fast paths          |
//! |-------------------|---------------------|---------------------|
//! | remote audit      | 4 msgs / 3 forces   | 2 msgs / 0 forces   |
//! | local transfer    | 0 msgs / 2 forces   | 0 msgs / 1 force    |
//!
//! At the 8:2 mix the expected ratios are 2.0x fewer datagrams per
//! commit and 14x fewer forces per commit; the gate requires >= 2x on
//! both. Counts are deterministic, so the gate holds in `--quick` runs
//! too.

use std::time::{Duration, Instant};

use tabs_core::{Cluster, ClusterConfig, CommitPathPolicy, NodeId, TmTimeouts};
use tabs_kernel::PrimitiveOp;
use tabs_servers::harness::client_for;
use tabs_servers::{IntArrayClient, IntArrayServer};

use crate::report::{BenchReport, RunOpts, Workload, WorkloadOutput};

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

/// Measurements from one policy's run of the fast-path workload.
#[derive(Debug, Clone)]
pub struct FastpathRun {
    /// Which commit-path policy the cluster ran.
    pub policy: CommitPathPolicy,
    /// Transactions that committed (the whole schedule, or the run fails).
    pub committed: u64,
    /// Inter-node datagrams the measured window cost.
    pub datagrams: u64,
    /// Stable-storage forces the measured window cost.
    pub forces: u64,
    /// Wall clock over the measured window.
    pub elapsed: Duration,
    /// Per-transaction latencies, sorted ascending.
    pub latencies: Vec<Duration>,
    /// `tm.commit.1pc` delta (zero except under `Fast`).
    pub one_pc: u64,
    /// `tm.prepare.readonly` delta (zero except under `Fast`).
    pub readonly_votes: u64,
    /// Both arrays conserved their total balance after the run.
    pub invariant_ok: bool,
    /// Schedule seed.
    pub seed: u64,
    /// Rounds of the 8:2 mix.
    pub rounds: u64,
}

impl FastpathRun {
    /// Datagrams per committed transaction.
    pub fn messages_per_commit(&self) -> f64 {
        self.datagrams as f64 / (self.committed as f64).max(1.0)
    }

    /// Log forces per committed transaction.
    pub fn forces_per_commit(&self) -> f64 {
        self.forces as f64 / (self.committed as f64).max(1.0)
    }

    /// The `p`-th percentile (0–100) of transaction latency.
    pub fn percentile(&self, p: u32) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = (self.latencies.len() - 1) * p as usize / 100;
        self.latencies[idx]
    }

    /// Label used in report rows.
    pub fn policy_label(&self) -> &'static str {
        match self.policy {
            CommitPathPolicy::Seed => "seed",
            CommitPathPolicy::Fast => "fast-path",
            CommitPathPolicy::Full => "full-2pc",
        }
    }

    /// The run as a serializable report row.
    pub fn to_report(&self) -> BenchReport {
        let mut r = BenchReport {
            workload: "fastpath".into(),
            scenario: "bank-remote-audit".into(),
            mode: self.policy_label().into(),
            duration_ms: self.elapsed.as_secs_f64() * 1e3,
            committed: self.committed,
            aborted: 0,
            throughput_tps: self.committed as f64 / self.elapsed.as_secs_f64().max(1e-9),
            p50_ms: self.percentile(50).as_secs_f64() * 1e3,
            p95_ms: self.percentile(95).as_secs_f64() * 1e3,
            p99_ms: self.percentile(99).as_secs_f64() * 1e3,
            messages_per_commit: self.messages_per_commit(),
            forces_per_commit: self.forces_per_commit(),
            deadlocks_resolved: 0,
            ..BenchReport::default()
        };
        let cfg = &mut r.config;
        cfg.insert("seed".into(), self.seed.to_string());
        cfg.insert("rounds".into(), self.rounds.to_string());
        cfg.insert("audits_per_round".into(), AUDITS_PER_ROUND.to_string());
        cfg.insert("writes_per_round".into(), WRITES_PER_ROUND.to_string());
        cfg.insert("one_pc_commits".into(), self.one_pc.to_string());
        cfg.insert("readonly_votes".into(), self.readonly_votes.to_string());
        cfg.insert("invariant_ok".into(), self.invariant_ok.to_string());
        r
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
/// fresh two-node cluster under `policy` and returns exact per-commit
/// message and force accounting.
pub fn run_policy(policy: CommitPathPolicy, rounds: u64, seed: u64) -> Result<FastpathRun, String> {
    let fail = |m: String| format!("fastpath[{policy:?}] {m}");
    let cluster = Cluster::with_config(ClusterConfig::default().commit_paths(policy));
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

    let perf_before = cluster.perf_all();
    let m1_before = cluster.metrics(NodeId(1)).snapshot();
    let m2_before = cluster.metrics(NodeId(2)).snapshot();

    let start = Instant::now();
    let mut committed = 0u64;
    let mut latencies = Vec::new();
    for round in 0..rounds {
        let base = seed.wrapping_add(round);
        for i in 0..AUDITS_PER_ROUND {
            let from = (base.wrapping_mul(7).wrapping_add(i)) % ACCOUNTS;
            let to = (from + 1 + i % (ACCOUNTS - 1)) % ACCOUNTS;
            let t0 = Instant::now();
            audit(from, to).map_err(|e| fail(format!("audit failed: {e}")))?;
            latencies.push(t0.elapsed());
            committed += 1;
        }
        for i in 0..WRITES_PER_ROUND {
            let from = (base.wrapping_add(3 * i)) % ACCOUNTS;
            let to = (from + 1) % ACCOUNTS;
            let t0 = Instant::now();
            transfer(from, to, 1).map_err(|e| fail(format!("transfer failed: {e}")))?;
            latencies.push(t0.elapsed());
            committed += 1;
        }
    }
    let elapsed = start.elapsed();

    // Let participant-side commits and their acks finish before the
    // after-snapshot, so every commit's full cost is attributed.
    settle(&cluster).map_err(&fail)?;
    let delta = cluster.perf_all().since(&perf_before);
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
        policy,
        committed,
        datagrams: delta.get(PrimitiveOp::Datagram),
        forces: delta.get(PrimitiveOp::StableStorageWrite),
        elapsed,
        latencies,
        one_pc,
        readonly_votes,
        invariant_ok: sums == (total, total),
        seed,
        rounds,
    };
    drop(local);
    drop(remote);
    drop(local_arr);
    drop(remote_arr);
    n1.shutdown();
    n2.shutdown();
    Ok(run)
}

/// ASCII table over the policy runs.
pub fn render(runs: &[FastpathRun]) -> String {
    let mut out = String::new();
    out.push_str("Commit fast paths (remote read-only audits + sole-writer transfers, 8:2)\n");
    out.push_str("policy      commits   msgs/commit   forces/commit   1pc   ro-votes       p50\n");
    out.push_str("--------------------------------------------------------------------------\n");
    for r in runs {
        out.push_str(&format!(
            "{:<11} {:>7} {:>13.2} {:>15.2} {:>5} {:>10} {:>9}\n",
            r.policy_label(),
            r.committed,
            r.messages_per_commit(),
            r.forces_per_commit(),
            r.one_pc,
            r.readonly_votes,
            format!("{:.1?}", r.percentile(50)),
        ));
    }
    out
}

/// The `tables fastpath` workload: the same deterministic schedule under
/// the pessimistic full-2PC baseline and under the fast paths, gated on
/// >= 2x fewer datagrams *and* forces per commit.
pub struct FastpathWorkload;

impl Workload for FastpathWorkload {
    fn name(&self) -> &'static str {
        "fastpath"
    }

    fn describe(&self) -> &'static str {
        "commit fast paths: 1PC + read-only voter drop-out vs a full-2PC baseline"
    }

    fn run(&self, opts: &RunOpts) -> Result<WorkloadOutput, String> {
        let rounds = if opts.quick { 3 } else { 10 };
        let full = run_policy(CommitPathPolicy::Full, rounds, opts.seed)?;
        let fast = run_policy(CommitPathPolicy::Fast, rounds, opts.seed)?;

        let msg_ratio = full.messages_per_commit() / fast.messages_per_commit().max(1e-9);
        let force_ratio = full.forces_per_commit() / fast.forces_per_commit().max(1e-9);

        let mut out = WorkloadOutput::default();
        let runs = [full, fast];
        out.text = render(&runs);
        out.text.push_str(&format!(
            "\nfast paths vs full 2PC: {msg_ratio:.2}x fewer datagrams/commit, {force_ratio:.2}x \
             fewer forces/commit (gate: >= 2x on both)\n"
        ));

        for r in &runs {
            if r.committed == 0 {
                out.gate_failure =
                    Some(format!("fastpath {} committed no transactions", r.policy_label()));
            }
            if !r.invariant_ok {
                out.gate_failure =
                    Some(format!("fastpath {} violated balance conservation", r.policy_label()));
            }
            out.reports.push(r.to_report());
        }
        let [_, fast] = &runs;
        if fast.one_pc == 0 {
            out.gate_failure = Some("fastpath fast-path run never took the 1PC path".into());
        }
        if fast.readonly_votes == 0 {
            out.gate_failure =
                Some("fastpath fast-path run never recorded a read-only vote".into());
        }
        // Counts are deterministic, so the ratio gate applies to quick
        // runs as well.
        if out.gate_failure.is_none() && (msg_ratio < 2.0 || force_ratio < 2.0) {
            out.gate_failure = Some(format!(
                "fast paths saved only {msg_ratio:.2}x datagrams/commit and {force_ratio:.2}x \
                 forces/commit (gate: >= 2x on both)"
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_policy_hits_both_fast_paths_and_conserves_balances() {
        let r = run_policy(CommitPathPolicy::Fast, 2, 7).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.committed, 2 * (AUDITS_PER_ROUND + WRITES_PER_ROUND));
        assert!(r.invariant_ok, "balances must be conserved");
        assert_eq!(r.one_pc, 2 * WRITES_PER_ROUND, "every local transfer is a 1PC");
        assert_eq!(
            r.readonly_votes,
            2 * AUDITS_PER_ROUND,
            "every audit draws a read-only vote on the participant"
        );
        // Sole-writer commits send nothing; audits cost Prepare +
        // VoteReadOnly and force nothing.
        assert_eq!(r.datagrams, 2 * AUDITS_PER_ROUND * 2);
        assert_eq!(r.forces, 2 * WRITES_PER_ROUND);
    }

    #[test]
    fn full_policy_pays_both_phases_everywhere() {
        let r = run_policy(CommitPathPolicy::Full, 1, 7).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.committed, AUDITS_PER_ROUND + WRITES_PER_ROUND);
        assert!(r.invariant_ok);
        assert_eq!(r.one_pc, 0);
        assert_eq!(r.readonly_votes, 0);
        // Audits: PrepareFull + VoteYes + Commit + CommitAck; transfers
        // stay local. Forces: 3 per audit, 2 per sole-writer transfer.
        assert_eq!(r.datagrams, AUDITS_PER_ROUND * 4);
        assert_eq!(r.forces, AUDITS_PER_ROUND * 3 + WRITES_PER_ROUND * 2);
    }

    #[test]
    fn workload_report_rows_round_trip_and_pass_the_gate() {
        let out = FastpathWorkload
            .run(&RunOpts { quick: true, ..RunOpts::default() })
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(out.gate_failure.is_none(), "gate failed: {:?}", out.gate_failure);
        assert_eq!(out.reports.len(), 2);
        assert_eq!(out.reports[0].mode, "full-2pc");
        assert_eq!(out.reports[1].mode, "fast-path");
        assert!(out.reports[0].messages_per_commit >= 2.0 * out.reports[1].messages_per_commit);
        assert!(out.reports[0].forces_per_commit >= 2.0 * out.reports[1].forces_per_commit);
        for r in &out.reports {
            assert_eq!(r.config.get("invariant_ok").map(String::as_str), Some("true"));
        }
    }
}
