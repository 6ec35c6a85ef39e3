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

use crate::report::{BenchReport, RunOpts, Workload, WorkloadOutput};

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

    /// Mode label for tables and reports.
    pub fn mode(&self) -> &'static str {
        if self.killed {
            "replica-killed"
        } else {
            "healthy"
        }
    }

    /// The run as a serializable report row.
    pub fn to_report(&self) -> BenchReport {
        let total: Duration = self.run.latencies.iter().sum();
        let secs = total.as_secs_f64();
        let mut r = BenchReport {
            workload: "replicate".into(),
            scenario: "replica-set-3".into(),
            mode: self.mode().into(),
            duration_ms: secs * 1e3,
            committed: self.run.committed,
            aborted: self.run.aborted,
            throughput_tps: if secs > 0.0 { self.run.committed as f64 / secs } else { 0.0 },
            p50_ms: self.p50().as_secs_f64() * 1e3,
            p95_ms: self.percentile(95).as_secs_f64() * 1e3,
            p99_ms: self.percentile(99).as_secs_f64() * 1e3,
            ..BenchReport::default()
        };
        r.config.insert("replicas".into(), "3".into());
        r.config.insert("transfers".into(), (self.run.committed + self.run.aborted).to_string());
        r
    }
}

/// The `tables replicate` workload: healthy versus replica-killed commit
/// latency, with the 3x degradation acceptance gate.
pub struct ReplicateWorkload;

impl Workload for ReplicateWorkload {
    fn name(&self) -> &'static str {
        "replicate"
    }

    fn describe(&self) -> &'static str {
        "replicated-shard commit latency: full replica set vs one follower killed"
    }

    fn run(&self, opts: &RunOpts) -> Result<WorkloadOutput, String> {
        let transfers = opts.iters.unwrap_or(if opts.quick { 60 } else { 200 });
        let (healthy, killed) = compare(transfers, opts.seed)?;
        let gate_failure = (killed.p50() > healthy.p50() * 3).then(|| {
            format!(
                "replica-killed p50 {:?} exceeds 3x the healthy p50 {:?}",
                killed.p50(),
                healthy.p50()
            )
        });
        Ok(WorkloadOutput {
            text: render(&[healthy.clone(), killed.clone()]),
            reports: vec![healthy.to_report(), killed.to_report()],
            gate_failure,
        })
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

    /// The gated row must survive the BENCH json round trip unchanged —
    /// byte-identical re-serialization via the file wrapper.
    #[test]
    fn report_rows_round_trip_through_bench_json() {
        let file = crate::report::BenchFile::new(
            "2026-08-09",
            vec![result(false, &[10, 20]).to_report(), result(true, &[15, 30]).to_report()],
        );
        let json = file.to_json();
        let parsed = crate::report::BenchFile::parse(&json).expect("replicate rows parse");
        assert_eq!(parsed, file, "parse(to_json) must be identity");
        assert_eq!(parsed.to_json(), json, "re-serialization must be byte-identical");
    }

    /// Re-running the workload upserts its rows in place of duplicating
    /// them: same workload/scenario/mode/config key, refreshed numbers.
    #[test]
    fn rerun_rows_upsert_instead_of_duplicating() {
        let mut file = crate::report::BenchFile::new(
            "2026-08-09",
            vec![result(false, &[10]).to_report(), result(true, &[20]).to_report()],
        );
        let before = file.runs.len();
        let refreshed = result(true, &[40]).to_report();
        file.upsert(vec![result(false, &[30]).to_report(), refreshed.clone()]);
        assert_eq!(file.runs.len(), before, "rerun must not add rows");
        let killed_row = file
            .runs
            .iter()
            .find(|r| r.workload == "replicate" && r.mode == "replica-killed")
            .expect("killed row present");
        assert_eq!(killed_row, &refreshed, "upsert must refresh the row in place");
    }
}
