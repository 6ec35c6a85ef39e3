//! Group-commit microbenchmark: stable-storage forces per committed
//! transaction, batched versus the seed path.
//!
//! Table 5-3 charges every committing update transaction one log force,
//! and the paper's analysis shows that force dominating commit latency.
//! Group commit amortizes it: committers queued inside one window share
//! a single device force. This benchmark drives `committers` concurrent
//! threads, each committing `rounds` single-cell transactions against
//! its own account, and measures forces per commit in both modes — the
//! batched mode should push the ratio toward 1/batch while the unbatched
//! mode stays at 1: exactly 1 when commits do not overlap, and short of
//! it only by the commits whose record a neighbour's force had already
//! carried to disk (their own force moves nothing and is not counted).

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tabs_core::{Cluster, ClusterConfig, GroupCommitConfig, NodeId, Tid};
use tabs_kernel::PrimitiveOp;
use tabs_servers::{IntArrayClient, IntArrayServer};

/// One mode's measurements over a full run.
#[derive(Debug, Clone)]
pub struct GroupCommitResult {
    /// Whether group commit was enabled.
    pub enabled: bool,
    /// Concurrent committer threads.
    pub committers: u32,
    /// Transactions that committed.
    pub commits: u64,
    /// Transactions that failed (lock time-outs under contention).
    pub aborts: u64,
    /// Stable-storage writes the workload cost (Table 5-1 primitive).
    pub forces: u64,
    /// Covering forces issued by batch leaders (`wal.group.batches`).
    pub batches: u64,
    /// Committers resolved by a batched force (`wal.group.batched_commits`).
    pub batched_commits: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
}

impl GroupCommitResult {
    /// Stable-storage forces per committed transaction — the figure the
    /// batched mode drives toward 1/batch.
    pub fn forces_per_commit(&self) -> f64 {
        self.forces as f64 / (self.commits as f64).max(1.0)
    }

    /// Mean committers amortized into one batched force.
    pub fn mean_batch(&self) -> f64 {
        self.batched_commits as f64 / (self.batches as f64).max(1.0)
    }

    /// Mode label for the table.
    pub fn mode(&self) -> &'static str {
        if self.enabled {
            "group-commit"
        } else {
            "unbatched"
        }
    }
}

/// Runs `committers` threads, each committing `rounds` transactions on
/// its own cell, with group commit on or off.
pub fn run(enabled: bool, committers: u32, rounds: u32) -> GroupCommitResult {
    let mut config = ClusterConfig::default();
    if enabled {
        config = config.group_commit(GroupCommitConfig {
            max_delay: Duration::from_millis(10),
            max_batch: committers as usize,
        });
    }
    let cluster = Cluster::with_config(config);
    let node = cluster.boot_node(NodeId(1));
    let arr = IntArrayServer::spawn(&node, "gc-bench", u64::from(committers)).expect("array");
    node.recover().expect("recover");
    let app = node.app();
    let client = IntArrayClient::new(app.clone(), arr.send_right());
    app.run(|t| {
        for cell in 0..u64::from(committers) {
            client.set(t, cell, 0)?;
        }
        Ok(())
    })
    .expect("seed cells");

    // Snapshot after seeding so only the workload's forces are measured.
    let forces_before = cluster.perf(NodeId(1)).get(PrimitiveOp::StableStorageWrite);
    let snap_before = cluster.metrics(NodeId(1)).snapshot();

    let barrier = Arc::new(Barrier::new(committers as usize));
    let start = Instant::now();
    let handles: Vec<_> = (0..committers)
        .map(|i| {
            let app = app.clone();
            let client = client.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let cell = u64::from(i);
                let (mut commits, mut aborts) = (0u64, 0u64);
                for _ in 0..rounds {
                    let committed = app
                        .begin_transaction(Tid::NULL)
                        .ok()
                        .filter(|t| client.add(*t, cell, 1).is_ok())
                        .is_some_and(|t| {
                            app.end_transaction(t).map(|o| o.is_committed()).unwrap_or(false)
                        });
                    if committed {
                        commits += 1;
                    } else {
                        aborts += 1;
                    }
                }
                (commits, aborts)
            })
        })
        .collect();
    let (mut commits, mut aborts) = (0u64, 0u64);
    for h in handles {
        let (c, a) = h.join().expect("committer thread");
        commits += c;
        aborts += a;
    }
    let elapsed = start.elapsed();

    let forces = cluster.perf(NodeId(1)).get(PrimitiveOp::StableStorageWrite) - forces_before;
    let snap = cluster.metrics(NodeId(1)).snapshot();
    let result = GroupCommitResult {
        enabled,
        committers,
        commits,
        aborts,
        forces,
        batches: snap.counter("wal.group.batches") - snap_before.counter("wal.group.batches"),
        batched_commits: snap.counter("wal.group.batched_commits")
            - snap_before.counter("wal.group.batched_commits"),
        elapsed,
    };
    node.shutdown();
    result
}

/// Runs both modes with the same shape and returns (unbatched, batched).
pub fn compare(committers: u32, rounds: u32) -> (GroupCommitResult, GroupCommitResult) {
    let unbatched = run(false, committers, rounds);
    let batched = run(true, committers, rounds);
    (unbatched, batched)
}

/// The amortization gate over one `compare` run: the batched mode pays
/// under half a force per commit, and at least 4× fewer than unbatched.
pub fn gate(unbatched: &GroupCommitResult, batched: &GroupCommitResult) -> Option<String> {
    let ratio = reduction(unbatched, batched);
    if batched.forces_per_commit() >= 0.5 {
        Some(format!(
            "batched mode paid {:.3} forces/commit (gate: < 0.5)",
            batched.forces_per_commit()
        ))
    } else if ratio < 4.0 {
        Some(format!("only {ratio:.1}x force reduction (gate: >= 4x)"))
    } else {
        None
    }
}

/// How many times fewer forces per commit the batched mode paid.
fn reduction(unbatched: &GroupCommitResult, batched: &GroupCommitResult) -> f64 {
    unbatched.forces_per_commit() / batched.forces_per_commit().max(1e-9)
}

/// ASCII table over any set of group-commit results; an (unbatched,
/// batched) pair also gets its force reduction.
pub fn render(results: &[GroupCommitResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Commit-path log forces ({} concurrent committers)\n",
        results.first().map(|r| r.committers).unwrap_or(0),
    ));
    out.push_str(
        "mode           commits   aborts   forces   forces/commit   mean batch   elapsed\n",
    );
    out.push_str(
        "---------------------------------------------------------------------------------\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:<14} {:>7} {:>8} {:>8} {:>15.3} {:>12.1} {:>9}\n",
            r.mode(),
            r.commits,
            r.aborts,
            r.forces,
            r.forces_per_commit(),
            r.mean_batch(),
            format!("{:.0?}", r.elapsed),
        ));
    }
    if let [unbatched, batched] = results {
        out.push_str(&format!("force reduction: {:.1}x\n", reduction(unbatched, batched)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_forces_amortize_and_unbatched_stay_at_one() {
        let (unbatched, batched) = compare(8, 5);
        assert_eq!(unbatched.commits + unbatched.aborts, 40);
        // Exactly one force per commit — where the count is determinate.
        // Among concurrent committers, one preempted between appending its
        // commit record and forcing it finds a neighbour's force has
        // covered it, and its own force, moving nothing, is not counted;
        // one committer at a time has no neighbours.
        let serial = run(false, 1, 40);
        assert_eq!((serial.commits, serial.forces), (40, 40), "seed path: one force per commit");
        assert!(unbatched.forces <= unbatched.commits, "more forces than commits");
        assert_eq!(unbatched.batches, 0, "no batches without group commit");
        assert!(
            batched.forces_per_commit() < 0.5,
            "8 committers should share forces: {} forces / {} commits",
            batched.forces,
            batched.commits
        );
        assert!(
            unbatched.forces_per_commit() / batched.forces_per_commit() >= 2.0,
            "batching should at least halve forces per commit"
        );
        assert_eq!(
            batched.batches, batched.forces,
            "every commit-path force is a batch in this workload"
        );
    }
}
