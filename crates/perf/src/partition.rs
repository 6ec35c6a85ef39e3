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

use crate::report::{BenchReport, RunOpts, Workload, WorkloadOutput};

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

    /// Mode label for tables and reports.
    pub fn mode(&self) -> &'static str {
        if self.cooperative {
            "cooperative"
        } else {
            "retransmit-timeout"
        }
    }

    /// The run as a serializable report row. The latency percentiles are
    /// *in-doubt resolution* latencies — `config.latency_kind` records
    /// that. `committed` counts the survivor's local commits inside the
    /// in-doubt windows (liveness evidence).
    pub fn to_report(&self) -> BenchReport {
        let total: Duration = self.resolutions.iter().sum();
        let mut r = BenchReport {
            workload: "partition".into(),
            scenario: "coordinator-crash".into(),
            mode: self.mode().into(),
            duration_ms: total.as_secs_f64() * 1e3,
            committed: self.survivor_commits,
            p50_ms: self.p50().as_secs_f64() * 1e3,
            p95_ms: self.percentile(95).as_secs_f64() * 1e3,
            p99_ms: self.percentile(99).as_secs_f64() * 1e3,
            ..BenchReport::default()
        };
        r.config.insert("latency_kind".into(), "in-doubt-resolution".into());
        r.config.insert("iters".into(), self.resolutions.len().to_string());
        r
    }
}

/// The `tables partition` workload: cooperative termination versus the
/// retransmit-timeout baseline, with the p50 < 25% acceptance gate.
pub struct PartitionWorkload;

impl Workload for PartitionWorkload {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn describe(&self) -> &'static str {
        "in-doubt resolution after a coordinator crash: cooperative vs retransmit-timeout"
    }

    fn run(&self, opts: &RunOpts) -> Result<WorkloadOutput, String> {
        let iters = opts.iters.unwrap_or(if opts.quick { 2 } else { 5 });
        let (baseline, coop) = compare(iters, opts.seed)?;
        let gate_failure = (coop.p50() * 4 >= baseline.p50()).then(|| {
            format!(
                "cooperative p50 {:?} is not under 25% of the baseline's {:?}",
                coop.p50(),
                baseline.p50()
            )
        });
        Ok(WorkloadOutput {
            text: render(&[baseline.clone(), coop.clone()]),
            reports: vec![baseline.to_report(), coop.to_report()],
            gate_failure,
        })
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
