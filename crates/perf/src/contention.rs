//! Contention microbenchmark: time-out-only versus probe-based deadlock
//! resolution.
//!
//! The paper resolves deadlocks exclusively by lock time-out (§2.1.3);
//! the detector is the classic alternative the authors cite. This
//! benchmark quantifies the difference on the worst case both must
//! handle: repeated two-node opposite-order lock acquisition. Each round
//! manufactures one genuine cross-node cycle and measures how long the
//! system takes to break it — from the moment the cycle closes until
//! both sides are unblocked (one aborted, one committed).
//!
//! With time-outs only, every resolution costs the full configured
//! time-out. With detection, probes find the cycle in a few scan
//! intervals regardless of the time-out, so the time-out can be set
//! generously without hurting contended latency.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tabs_app_lib::AppHandle;
use tabs_core::{Cluster, ClusterConfig, NodeId, Tid};
use tabs_servers::{IntArrayClient, IntArrayServer};

use crate::report::{BenchReport, RunOpts, Workload, WorkloadOutput};

/// One mode's measurements over a full run.
#[derive(Debug, Clone)]
pub struct ContentionResult {
    /// Whether the deadlock detector was running.
    pub detect: bool,
    /// The configured lock time-out (the backstop in both modes).
    pub lock_timeout: Duration,
    /// Per-round resolution latency: cycle closed → both sides unblocked.
    pub resolutions: Vec<Duration>,
    /// Transactions that committed.
    pub commits: u64,
    /// Transactions that aborted (the resolution victims).
    pub aborts: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
}

impl ContentionResult {
    /// The `p`-th percentile (0–100) of resolution latency.
    pub fn percentile(&self, p: u32) -> Duration {
        let mut sorted = self.resolutions.clone();
        sorted.sort();
        crate::percentile(&sorted, p)
    }

    /// Median resolution latency.
    pub fn p50(&self) -> Duration {
        self.percentile(50)
    }

    /// Tail resolution latency.
    pub fn p95(&self) -> Duration {
        self.percentile(95)
    }

    /// Deadlock victims resolved per second of wall-clock time.
    pub fn aborts_per_sec(&self) -> f64 {
        self.aborts as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Mode label for tables and reports.
    pub fn mode(&self) -> &'static str {
        if self.detect {
            "detect"
        } else {
            "timeout-only"
        }
    }

    /// The run as a serializable report row. The latency percentiles are
    /// *deadlock-resolution* latencies (cycle closed → both sides
    /// unblocked), not transaction latencies — `config.latency_kind`
    /// records that.
    pub fn to_report(&self) -> BenchReport {
        let mut r = BenchReport {
            workload: "contention".into(),
            scenario: "two-node-cycle".into(),
            mode: self.mode().into(),
            duration_ms: self.elapsed.as_secs_f64() * 1e3,
            committed: self.commits,
            aborted: self.aborts,
            throughput_tps: self.commits as f64 / self.elapsed.as_secs_f64().max(1e-9),
            p50_ms: self.p50().as_secs_f64() * 1e3,
            p95_ms: self.p95().as_secs_f64() * 1e3,
            p99_ms: self.percentile(99).as_secs_f64() * 1e3,
            deadlocks_resolved: self.aborts,
            ..BenchReport::default()
        };
        r.config.insert("latency_kind".into(), "resolution".into());
        r.config.insert("rounds".into(), self.resolutions.len().to_string());
        r.config
            .insert("lock_timeout_ms".into(), format!("{}", self.lock_timeout.as_secs_f64() * 1e3));
        r
    }
}

/// The `tables contention` workload: both resolution modes side by side.
pub struct ContentionWorkload;

impl Workload for ContentionWorkload {
    fn name(&self) -> &'static str {
        "contention"
    }

    fn describe(&self) -> &'static str {
        "deadlock-resolution latency: time-out-only vs probe-based detection"
    }

    fn run(&self, opts: &RunOpts) -> Result<WorkloadOutput, String> {
        let rounds = if opts.quick { 6 } else { opts.iters.unwrap_or(40) };
        let timeout = Duration::from_millis(400);
        let timeout_only = run(false, rounds, timeout);
        let detect = run(true, rounds, timeout);
        Ok(WorkloadOutput {
            text: render(&[timeout_only.clone(), detect.clone()]),
            reports: vec![timeout_only.to_report(), detect.to_report()],
            gate_failure: None,
        })
    }
}

/// Runs `rounds` manufactured two-node deadlocks with the given
/// resolution mode and measures each round's resolution latency.
pub fn run(detect: bool, rounds: u32, lock_timeout: Duration) -> ContentionResult {
    let cluster = Cluster::with_config(
        ClusterConfig::default().deadlock_detection(detect).lock_timeout(lock_timeout),
    );
    let n1 = cluster.boot_node(NodeId(1));
    let n2 = cluster.boot_node(NodeId(2));
    let a1 = IntArrayServer::spawn(&n1, "cnt-a", 4).expect("array a");
    let a2 = IntArrayServer::spawn(&n2, "cnt-b", 4).expect("array b");
    n1.recover().expect("recover n1");
    n2.recover().expect("recover n2");

    let resolve = |node: &tabs_core::Node, name: &str| {
        node.resolve(name, 1, Duration::from_secs(3)).into_iter().next().expect("resolvable").0
    };
    let app1 = n1.app();
    let app2 = n2.app();
    let c1_local = IntArrayClient::new(app1.clone(), a1.send_right());
    let c1_remote = IntArrayClient::new(app1.clone(), resolve(&n1, "cnt-b"));
    let c2_local = IntArrayClient::new(app2.clone(), a2.send_right());
    let c2_remote = IntArrayClient::new(app2.clone(), resolve(&n2, "cnt-a"));

    app1.run(|t| {
        c1_local.set(t, 0, 0)?;
        c1_remote.set(t, 0, 0)
    })
    .expect("seed cells");

    let mut result = ContentionResult {
        detect,
        lock_timeout,
        resolutions: Vec::with_capacity(rounds as usize),
        commits: 0,
        aborts: 0,
        elapsed: Duration::ZERO,
    };
    let run_start = Instant::now();
    for _ in 0..rounds {
        // Both sides grab their local lock, rendezvous so the cycle is
        // guaranteed, then reach across. The round's resolution latency
        // is the slower side's wait: the victim learns of its abort, the
        // survivor acquires the freed lock.
        let barrier = Arc::new(Barrier::new(2));
        let side = |app: AppHandle,
                    local: IntArrayClient,
                    remote: IntArrayClient,
                    barrier: Arc<Barrier>| {
            std::thread::spawn(move || {
                let t = app.begin_transaction(Tid::NULL).expect("begin");
                local.add(t, 0, 1).expect("local lock");
                barrier.wait();
                let start = Instant::now();
                let committed = match remote.add(t, 0, 1) {
                    Ok(_) => app.end_transaction(t).expect("end").is_committed(),
                    Err(_) => {
                        let _ = app.abort_transaction(t);
                        false
                    }
                };
                (committed, start.elapsed())
            })
        };
        let h1 = side(app1.clone(), c1_local.clone(), c1_remote.clone(), Arc::clone(&barrier));
        let h2 = side(app2.clone(), c2_local.clone(), c2_remote.clone(), barrier);
        let (ok1, el1) = h1.join().expect("side 1");
        let (ok2, el2) = h2.join().expect("side 2");
        result.resolutions.push(el1.max(el2));
        result.commits += (ok1 as u64) + (ok2 as u64);
        result.aborts += (!ok1 as u64) + (!ok2 as u64);
    }
    result.elapsed = run_start.elapsed();
    n1.shutdown();
    n2.shutdown();
    result
}

/// Runs both modes and renders the side-by-side comparison table.
pub fn compare(rounds: u32, lock_timeout: Duration) -> String {
    let timeout_only = run(false, rounds, lock_timeout);
    let detect = run(true, rounds, lock_timeout);
    render(&[timeout_only, detect])
}

/// ASCII table over any set of contention results.
pub fn render(results: &[ContentionResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Deadlock resolution under contention ({} rounds each, lock time-out {:?})\n",
        results.first().map(|r| r.resolutions.len()).unwrap_or(0),
        results.first().map(|r| r.lock_timeout).unwrap_or(Duration::ZERO),
    ));
    out.push_str(
        "mode           p50 resolution   p95 resolution   commits   aborts   aborts/sec\n",
    );
    out.push_str("-----------------------------------------------------------------------------\n");
    for r in results {
        out.push_str(&format!(
            "{:<14} {:>14} {:>16} {:>9} {:>8} {:>12.1}\n",
            r.mode(),
            format!("{:.2?}", r.p50()),
            format!("{:.2?}", r.p95()),
            r.commits,
            r.aborts,
            r.aborts_per_sec(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_beats_the_timeout_by_a_wide_margin() {
        // Short run, generous margin: with a 400ms time-out the
        // time-out-only mode cannot resolve faster than 400ms, while
        // detection should land in a few scan intervals.
        let timeout = Duration::from_millis(400);
        let with_detect = run(true, 3, timeout);
        assert_eq!(with_detect.resolutions.len(), 3);
        assert_eq!(with_detect.commits, 3, "one side commits each round");
        assert_eq!(with_detect.aborts, 3, "one victim each round");
        assert!(
            with_detect.p95() < timeout / 2,
            "detection should beat the time-out backstop: p95 {:?}",
            with_detect.p95()
        );
        let without = run(false, 1, timeout);
        assert!(
            without.p50() >= timeout / 2,
            "time-out-only resolution should cost about the time-out: p50 {:?}",
            without.p50()
        );
        assert!(without.p50() > with_detect.p95(), "detection strictly faster");
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let r = ContentionResult {
            detect: true,
            lock_timeout: Duration::from_secs(1),
            resolutions: vec![
                Duration::from_millis(30),
                Duration::from_millis(10),
                Duration::from_millis(20),
            ],
            commits: 3,
            aborts: 3,
            elapsed: Duration::from_secs(1),
        };
        assert_eq!(r.p50(), Duration::from_millis(20));
        assert_eq!(r.percentile(0), Duration::from_millis(10));
        assert_eq!(r.percentile(100), Duration::from_millis(30));
        assert_eq!(ContentionResult { resolutions: vec![], ..r }.p50(), Duration::ZERO);
    }

    /// `tables contention --json` rows must survive the `BENCH_*.json`
    /// round trip and satisfy every `tables checkbench` liveness rule
    /// (parseable schema, committed > 0, `invariant_ok` absent or true).
    #[test]
    fn report_rows_round_trip_through_a_bench_file_and_pass_checkbench_rules() {
        use crate::report::BenchFile;

        let result = ContentionResult {
            detect: false,
            lock_timeout: Duration::from_millis(400),
            resolutions: vec![Duration::from_millis(410), Duration::from_millis(430)],
            commits: 2,
            aborts: 2,
            elapsed: Duration::from_secs(1),
        };
        let file = BenchFile::new("2026-08-09", vec![result.to_report()]);
        let parsed = BenchFile::parse(&file.to_json()).expect("round trip");
        assert_eq!(parsed.runs.len(), 1);
        let row = &parsed.runs[0];
        assert_eq!(row.workload, "contention");
        assert_eq!(row.scenario, "two-node-cycle");
        assert_eq!(row.mode, "timeout-only");
        assert_eq!(row.committed, 2);
        assert_eq!(row.deadlocks_resolved, 2);
        assert!((row.p50_ms - 410.0).abs() < 1e-6);
        assert_eq!(row.config.get("latency_kind").map(String::as_str), Some("resolution"));
        assert_eq!(row.config.get("rounds").map(String::as_str), Some("2"));
        // The checkbench liveness rules the CLI applies to every row.
        assert!(row.committed > 0);
        assert!(row.config.get("invariant_ok").is_none_or(|v| v == "true"));
    }
}
