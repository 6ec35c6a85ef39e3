//! Partition-recovery microbenchmark: time-to-resolution for an in-doubt
//! participant after a coordinator crash.
//!
//! The scenario (shared with the chaos harness) kills a two-node
//! cluster's coordinator at `tm.commit.logged` — the commit record is
//! durable but the decision never leaves the machine — then reboots it on
//! its surviving disks while the participant keeps serving local
//! transactions. The participant's prepared branch is in doubt the whole
//! time; this benchmark measures how long.
//!
//! Two modes: *cooperative* runs the heartbeat failure detector, whose
//! suspicion immediately triggers the termination protocol (inquiry at
//! the coordinator plus outcome queries to fellow participants);
//! *retransmit-timeout* waits out the vote deadline before inquiring, as
//! the seed system did. The acceptance gate — asserted by
//! `tests/prop_partition.rs` and checked by `tables partition` — is a
//! cooperative p50 under 25% of the baseline's.

use std::time::Duration;

use tabs_chaos::ChaosRunner;

/// One mode's measurements over repeated partition/rejoin scenarios.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// Whether the heartbeat failure detector and cooperative
    /// termination were enabled.
    pub cooperative: bool,
    /// Per-iteration time from coordinator kill to in-doubt resolution.
    pub resolutions: Vec<Duration>,
    /// Local transactions the survivor committed inside the in-doubt
    /// windows, summed over iterations (liveness evidence: the outage
    /// never stalled the healthy node).
    pub survivor_commits: u64,
}

impl PartitionResult {
    /// The `p`-th percentile (0–100) of time-to-resolution.
    pub fn percentile(&self, p: u32) -> Duration {
        let mut sorted = self.resolutions.clone();
        sorted.sort();
        crate::percentile(&sorted, p)
    }

    /// Median time-to-resolution — the headline figure.
    pub fn p50(&self) -> Duration {
        self.percentile(50)
    }

    /// Worst observed time-to-resolution.
    pub fn max(&self) -> Duration {
        self.percentile(100)
    }

    /// Mode label for the table.
    pub fn mode(&self) -> &'static str {
        if self.cooperative {
            "cooperative"
        } else {
            "retransmit-timeout"
        }
    }
}

/// Runs `iters` partition/rejoin scenarios in one mode; iteration `i`
/// derives its fault RNG streams from `seed + i`.
pub fn run(cooperative: bool, iters: u32, seed: u64) -> Result<PartitionResult, String> {
    let mut resolutions = Vec::with_capacity(iters as usize);
    let mut survivor_commits = 0u64;
    for i in 0..iters {
        let runner = ChaosRunner::new(seed.wrapping_add(u64::from(i)));
        let one = runner.partition_rejoin_scenario(cooperative)?;
        resolutions.push(one.resolution);
        survivor_commits += one.survivor_commits;
    }
    Ok(PartitionResult { cooperative, resolutions, survivor_commits })
}

/// Runs both modes with the same shape and returns
/// (retransmit-timeout baseline, cooperative).
pub fn compare(iters: u32, seed: u64) -> Result<(PartitionResult, PartitionResult), String> {
    let baseline = run(false, iters, seed)?;
    let cooperative = run(true, iters, seed)?;
    Ok((baseline, cooperative))
}

/// The acceptance gate: the cooperative p50 is under 25% of the
/// retransmit-timeout baseline's.
pub fn gate(baseline: &PartitionResult, coop: &PartitionResult) -> Option<String> {
    (coop.p50() * 4 >= baseline.p50()).then(|| {
        format!(
            "cooperative p50 {:?} is not under 25% of the baseline's {:?}",
            coop.p50(),
            baseline.p50()
        )
    })
}

/// ASCII table over any set of partition results.
pub fn render(results: &[PartitionResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "In-doubt resolution after coordinator crash ({} run(s) per mode)\n",
        results.first().map(|r| r.resolutions.len()).unwrap_or(0),
    ));
    out.push_str("mode                   p50 resolution   worst   survivor commits\n");
    out.push_str("------------------------------------------------------------------\n");
    for r in results {
        out.push_str(&format!(
            "{:<22} {:>14} {:>7} {:>18}\n",
            r.mode(),
            format!("{:.1?}", r.p50()),
            format!("{:.1?}", r.max()),
            r.survivor_commits,
        ));
    }
    if let [baseline, coop] = results {
        let ratio = coop.p50().as_secs_f64() / baseline.p50().as_secs_f64().max(f64::EPSILON);
        out.push_str(&format!(
            "\ncooperative p50 is {:.1}% of the retransmit-timeout baseline\n",
            ratio * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let r = PartitionResult {
            cooperative: true,
            resolutions: vec![
                Duration::from_millis(30),
                Duration::from_millis(10),
                Duration::from_millis(20),
            ],
            survivor_commits: 3,
        };
        assert_eq!(r.percentile(0), Duration::from_millis(10));
        assert_eq!(r.p50(), Duration::from_millis(20));
        assert_eq!(r.max(), Duration::from_millis(30));
    }

    #[test]
    fn render_reports_the_acceptance_ratio() {
        let baseline = PartitionResult {
            cooperative: false,
            resolutions: vec![Duration::from_millis(1000)],
            survivor_commits: 100,
        };
        let coop = PartitionResult {
            cooperative: true,
            resolutions: vec![Duration::from_millis(100)],
            survivor_commits: 100,
        };
        let table = render(&[baseline, coop]);
        assert!(table.contains("retransmit-timeout"), "{table}");
        assert!(table.contains("10.0% of the retransmit-timeout baseline"), "{table}");
    }
}
