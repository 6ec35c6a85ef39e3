//! Replication degradation microbenchmark: commit latency through the
//! replicated bank shard with the full replica set alive versus one
//! follower dead.
//!
//! The scenario (shared with the chaos harness) is the three-node
//! cluster whose single bank shard is replicated on all three members;
//! transfers route through node 3. The *healthy* mode measures the
//! steady state: every write fans out to all three members and commit
//! collects the whole replica set's votes. The *replica-killed* mode
//! crashes follower 2 first, waits until the failure detector suspects
//! it, then measures again: writes skip the corpse, and commit waives
//! its missing vote through the surviving majority.
//!
//! The acceptance gate — checked by `tables replicate` and
//! `tests/prop_replication.rs`'s CI stage — is a replica-killed p50
//! within 3x the healthy p50: losing a minority must cost retries and
//! suspicion bookkeeping, never a blocking wait.

use std::time::Duration;

use tabs_chaos::{ChaosRunner, ReplicationLatency};

/// One mode's measurements over the replicated shard.
#[derive(Debug, Clone)]
pub struct ReplicateResult {
    /// Whether follower 2 was killed before measuring.
    pub killed: bool,
    /// The measured run.
    pub run: ReplicationLatency,
}

impl ReplicateResult {
    /// The `p`-th percentile (0–100) of committed-transfer latency.
    pub fn percentile(&self, p: u32) -> Duration {
        let mut sorted = self.run.latencies.clone();
        sorted.sort();
        crate::percentile(&sorted, p)
    }

    /// Median commit latency — the gated figure.
    pub fn p50(&self) -> Duration {
        self.percentile(50)
    }

    /// Mode label for the table.
    pub fn mode(&self) -> &'static str {
        if self.killed {
            "replica-killed"
        } else {
            "healthy"
        }
    }
}

/// Runs one mode with `transfers` measured transfers.
pub fn run(killed: bool, transfers: u32, seed: u64) -> Result<ReplicateResult, String> {
    let runner = ChaosRunner::new(seed);
    let run = runner.replication_latency(killed, transfers)?;
    Ok(ReplicateResult { killed, run })
}

/// Runs both modes with the same shape and returns (healthy, killed).
pub fn compare(transfers: u32, seed: u64) -> Result<(ReplicateResult, ReplicateResult), String> {
    let healthy = run(false, transfers, seed)?;
    let killed = run(true, transfers, seed)?;
    Ok((healthy, killed))
}

/// The degradation gate: the replica-killed p50 is within 3x the healthy
/// p50.
pub fn gate(healthy: &ReplicateResult, killed: &ReplicateResult) -> Option<String> {
    (killed.p50() > healthy.p50() * 3).then(|| {
        format!(
            "replica-killed p50 {:?} exceeds 3x the healthy p50 {:?}",
            killed.p50(),
            healthy.p50()
        )
    })
}

/// ASCII table over any set of replication results.
pub fn render(results: &[ReplicateResult]) -> String {
    let mut out = String::new();
    out.push_str("Replicated-shard commit latency (3-member replica set)\n");
    out.push_str("mode              p50      p95      committed   aborted\n");
    out.push_str("-------------------------------------------------------\n");
    for r in results {
        out.push_str(&format!(
            "{:<15} {:>7} {:>8} {:>11} {:>9}\n",
            r.mode(),
            format!("{:.1?}", r.p50()),
            format!("{:.1?}", r.percentile(95)),
            r.run.committed,
            r.run.aborted,
        ));
    }
    if let [healthy, killed] = results {
        let ratio = killed.p50().as_secs_f64() / healthy.p50().as_secs_f64().max(f64::EPSILON);
        out.push_str(&format!(
            "\nreplica-killed p50 is {ratio:.2}x the healthy p50 (gate: within 3x)\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(killed: bool, ms: &[u64]) -> ReplicateResult {
        ReplicateResult {
            killed,
            run: ReplicationLatency {
                latencies: ms.iter().map(|&m| Duration::from_millis(m)).collect(),
                committed: ms.len() as u64,
                aborted: 1,
            },
        }
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let r = result(false, &[30, 10, 20]);
        assert_eq!(r.percentile(0), Duration::from_millis(10));
        assert_eq!(r.p50(), Duration::from_millis(20));
        assert_eq!(r.percentile(100), Duration::from_millis(30));
    }

    #[test]
    fn render_reports_the_degradation_ratio() {
        let healthy = result(false, &[10, 10, 10]);
        let killed = result(true, &[20, 20, 20]);
        let table = render(&[healthy, killed]);
        assert!(table.contains("replica-killed"), "{table}");
        assert!(table.contains("2.00x the healthy p50"), "{table}");
    }
}
