//! Scale-out bench over the sharded bank: the same offered load on one,
//! two, four and eight nodes, with per-node stable storage modelled by
//! [`LatencyLogDevice`] so the log force is a real bottleneck.
//!
//! The log manager holds its buffer lock across the device force, so one
//! node's commits serialize on one force latency — exactly the paper's
//! stable-storage-bound regime. Spreading the service's shards over N
//! nodes multiplies the cluster's aggregate force bandwidth by N; with
//! locality-aware clients (~90% of transfers stay inside the worker's
//! home shard and commit through the single-participant 1PC fast path,
//! one force each) aggregate committed throughput scales close to
//! linearly. The gate requires >= 2x at four nodes versus one.
//!
//! Worker count and transfer mix are identical across node counts; the
//! only variable is how many nodes the four shards are spread over.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tabs_core::{Cluster, Node, NodeId, Tid};
use tabs_kernel::PrimitiveOp;
use tabs_shard::{Partitioning, ShardClient, ShardMap, ShardServer};
use tabs_wal::LatencyLogDevice;

use crate::report::{BenchReport, RunOpts, Workload, WorkloadOutput};

/// The sharded service name.
const SERVICE: &str = "bank";
/// Fixed shard count (spread over 1, 2, 4 or 8 nodes).
const SHARDS: u32 = 8;
/// Accounts per shard.
const SLOTS: u64 = 8;
/// Starting balance of every account.
const INITIAL_BALANCE: i64 = 100;
/// Per-force stable-storage latency the log device models.
const FORCE_LATENCY: Duration = Duration::from_micros(1000);
/// Log-device capacity (ample for the measured window).
const LOG_CAP: u64 = 64 << 20;
/// Same-shard transfers per 10 attempts; the remainder cross shards.
const LOCAL_PER_10: u64 = 9;

/// Measurements from one node-count configuration.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// Nodes the eight shards were spread over.
    pub nodes: u16,
    /// Transfers committed inside the window, summed over workers.
    pub committed: u64,
    /// Transfers aborted inside the window (lock conflicts, deadlocks).
    pub aborted: u64,
    /// The measured window.
    pub elapsed: Duration,
    /// Per-transfer latencies, sorted ascending.
    pub latencies: Vec<Duration>,
    /// Inter-node datagrams over the window.
    pub datagrams: u64,
    /// Stable-storage forces over the window.
    pub forces: u64,
    /// The bank conserved its total balance after the window.
    pub invariant_ok: bool,
}

impl ScaleRun {
    /// Aggregate committed transfers per second.
    pub fn throughput(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The `p`-th percentile (0–100) of transfer latency.
    pub fn percentile(&self, p: u32) -> Duration {
        crate::percentile(&self.latencies, p)
    }

    /// The run as a serializable report row.
    pub fn to_report(&self, seed: u64) -> BenchReport {
        let mut r = BenchReport {
            workload: "scale".into(),
            scenario: "bank-sharded".into(),
            mode: format!("nodes/{}", self.nodes),
            duration_ms: self.elapsed.as_secs_f64() * 1e3,
            committed: self.committed,
            aborted: self.aborted,
            throughput_tps: self.throughput(),
            p50_ms: self.percentile(50).as_secs_f64() * 1e3,
            p95_ms: self.percentile(95).as_secs_f64() * 1e3,
            p99_ms: self.percentile(99).as_secs_f64() * 1e3,
            messages_per_commit: self.datagrams as f64 / (self.committed as f64).max(1.0),
            forces_per_commit: self.forces as f64 / (self.committed as f64).max(1.0),
            deadlocks_resolved: 0,
            ..BenchReport::default()
        };
        let cfg = &mut r.config;
        cfg.insert("seed".into(), seed.to_string());
        cfg.insert("shards".into(), SHARDS.to_string());
        cfg.insert("accounts".into(), (SHARDS as u64 * SLOTS).to_string());
        cfg.insert("workers".into(), SHARDS.to_string());
        cfg.insert("force_latency_us".into(), FORCE_LATENCY.as_micros().to_string());
        cfg.insert("local_per_10".into(), LOCAL_PER_10.to_string());
        cfg.insert("invariant_ok".into(), self.invariant_ok.to_string());
        r
    }
}

/// Shard-to-node assignment for `nodes` nodes: shard `s` lives on node
/// `s % nodes + 1`.
fn map_for(nodes: u16) -> ShardMap {
    ShardMap {
        service: SERVICE.into(),
        version: 1,
        partitioning: Partitioning::Hash,
        owners: (0..SHARDS).map(|s| NodeId((s as u16 % nodes) + 1)).collect(),
        replicas: vec![Vec::new(); SHARDS as usize],
    }
}

/// One worker's deterministic transfer stream, until `deadline`.
fn worker(
    app: &tabs_app_lib::AppHandle,
    client: &ShardClient,
    map: &ShardMap,
    home: u32,
    mut rng: u64,
    deadline: Instant,
) -> (u64, u64, Vec<Duration>) {
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut latencies = Vec::new();
    while Instant::now() < deadline {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let a = (rng >> 33) % SLOTS;
        let b = (a + 1 + (rng >> 17) % (SLOTS - 1)) % SLOTS;
        let from = map.global_key(home, a);
        // ~90% of transfers stay in the worker's home shard (one server,
        // 1PC fast path); the rest credit the next shard over (2PC).
        let to = if (rng >> 7) % 10 < LOCAL_PER_10 {
            map.global_key(home, b)
        } else {
            map.global_key((home + 1) % SHARDS, a)
        };
        let t0 = Instant::now();
        let outcome = app.begin_transaction(Tid::NULL).and_then(|t| {
            match client.add(t, from, -1).and_then(|_| client.add(t, to, 1)) {
                Ok(_) => app.end_transaction(t),
                Err(e) => {
                    let _ = app.abort_transaction(t);
                    Err(e)
                }
            }
        });
        match outcome {
            Ok(o) if o.is_committed() => {
                committed += 1;
                latencies.push(t0.elapsed());
            }
            _ => aborted += 1,
        }
    }
    (committed, aborted, latencies)
}

/// Runs the fixed worker pool against the service spread over `nodes`
/// nodes and measures aggregate committed throughput.
pub fn run_nodes(nodes: u16, window: Duration, seed: u64) -> Result<ScaleRun, String> {
    let fail = |m: String| format!("scale[nodes={nodes}] {m}");
    let map = map_for(nodes);
    let cluster = Cluster::new();
    for id in 1..=nodes {
        cluster.set_log_device(NodeId(id), LatencyLogDevice::new(LOG_CAP, FORCE_LATENCY));
    }
    let mut booted: Vec<Node> = Vec::new();
    for id in 1..=nodes {
        let node = cluster.boot_node(NodeId(id));
        ShardServer::spawn_all(&node, &map, SLOTS)
            .map_err(|e| fail(format!("spawn shards n{id}: {e}")))?;
        node.recover().map_err(|e| fail(format!("recover n{id}: {e}")))?;
        booted.push(node);
    }
    booted[0].ns.publish_map(SERVICE, map.version, map.to_blob());

    // Locality-aware clients: each worker runs on its home shard's owner
    // node, so its same-shard transfers are wholly local.
    let mut clients: Vec<(tabs_app_lib::AppHandle, Arc<ShardClient>)> = Vec::new();
    for shard in 0..SHARDS {
        let owner = &booted[(map.owner(shard).0 - 1) as usize];
        let client =
            ShardClient::new(owner, SERVICE).map_err(|e| fail(format!("router s{shard}: {e}")))?;
        clients.push((owner.app(), Arc::new(client)));
    }

    let (seed_app, seed_client) = &clients[0];
    seed_app
        .run(|t| {
            for key in 0..SHARDS as u64 * SLOTS {
                seed_client.set(t, key, INITIAL_BALANCE)?;
            }
            Ok(())
        })
        .map_err(|e| fail(format!("seeding failed: {e}")))?;

    let perf_before = cluster.perf_all();
    let start = Instant::now();
    let deadline = start + window;
    let results: Vec<(u64, u64, Vec<Duration>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|shard| {
                let (app, client) = &clients[shard as usize];
                let map = &map;
                scope.spawn(move || {
                    worker(app, client, map, shard, seed ^ (0x9E37 + shard as u64), deadline)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let elapsed = start.elapsed();
    let delta = cluster.perf_all().since(&perf_before);

    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut latencies = Vec::new();
    for (c, a, l) in results {
        committed += c;
        aborted += a;
        latencies.extend(l);
    }
    latencies.sort();

    let expect_total = SHARDS as i64 * SLOTS as i64 * INITIAL_BALANCE;
    let total = seed_app
        .run_with_retries(5, |t| {
            let mut sum = 0i64;
            for key in 0..SHARDS as u64 * SLOTS {
                sum += seed_client.get(t, key)?;
            }
            Ok(sum)
        })
        .map_err(|e| fail(format!("invariant read failed: {e}")))?;

    let run = ScaleRun {
        nodes,
        committed,
        aborted,
        elapsed,
        latencies,
        datagrams: delta.get(PrimitiveOp::Datagram),
        forces: delta.get(PrimitiveOp::StableStorageWrite),
        invariant_ok: total == expect_total,
    };
    drop(clients);
    for n in booted {
        n.shutdown();
    }
    Ok(run)
}

/// ASCII table over the node-count runs.
pub fn render(runs: &[ScaleRun]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Sharded bank scale-out ({SHARDS} shards, {} accounts, {}us/force, 9:1 local:remote)\n",
        SHARDS as u64 * SLOTS,
        FORCE_LATENCY.as_micros(),
    ));
    out.push_str("nodes   committed   aborted   agg tps       p50       p95   forces/commit\n");
    out.push_str("-------------------------------------------------------------------------\n");
    for r in runs {
        out.push_str(&format!(
            "{:<7} {:>9} {:>9} {:>9.0} {:>9} {:>9} {:>15.2}\n",
            r.nodes,
            r.committed,
            r.aborted,
            r.throughput(),
            format!("{:.1?}", r.percentile(50)),
            format!("{:.1?}", r.percentile(95)),
            r.forces as f64 / (r.committed as f64).max(1.0),
        ));
    }
    out
}

/// The `tables scale` workload: the sharded bank on 1, 2, 4 and 8
/// nodes, gated on >= 2x aggregate committed throughput at four nodes.
pub struct ScaleWorkload;

impl Workload for ScaleWorkload {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn describe(&self) -> &'static str {
        "sharded bank scale-out: aggregate committed tps on 1, 2, 4 and 8 nodes"
    }

    fn run(&self, opts: &RunOpts) -> Result<WorkloadOutput, String> {
        let window =
            if opts.quick { Duration::from_millis(500) } else { Duration::from_millis(1200) };
        let node_counts: &[u16] = if opts.quick { &[1, 4] } else { &[1, 2, 4, 8] };
        let mut runs = Vec::new();
        for &n in node_counts {
            runs.push(run_nodes(n, window, opts.seed)?);
        }

        let one = runs.first().ok_or("scale ran no configurations")?;
        let four = runs.iter().find(|r| r.nodes == 4).ok_or("scale never ran the 4-node point")?;
        let speedup = four.throughput() / one.throughput().max(1e-9);

        let mut out = WorkloadOutput { text: render(&runs), ..Default::default() };
        out.text.push_str(&format!(
            "\n4 nodes vs 1: {speedup:.2}x aggregate committed throughput (gate: >= 2x)\n"
        ));
        if let Some(eight) = runs.iter().find(|r| r.nodes == 8) {
            out.text.push_str(&format!(
                "8 nodes vs 1: {:.2}x aggregate committed throughput\n",
                eight.throughput() / one.throughput().max(1e-9)
            ));
        }
        for r in &runs {
            if r.committed == 0 {
                out.gate_failure = Some(format!("scale nodes={} committed no transfers", r.nodes));
            }
            if !r.invariant_ok {
                out.gate_failure =
                    Some(format!("scale nodes={} violated balance conservation", r.nodes));
            }
            out.reports.push(r.to_report(opts.seed));
        }
        if out.gate_failure.is_none() && speedup < 2.0 {
            out.gate_failure = Some(format!(
                "4 nodes delivered only {speedup:.2}x the 1-node throughput (gate: >= 2x)"
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spread_is_even_and_local_keys_stay_home() {
        for nodes in [1u16, 2, 4, 8] {
            let map = map_for(nodes);
            assert_eq!(map.shards(), SHARDS);
            for s in 0..SHARDS {
                assert!(map.owner(s).0 >= 1 && map.owner(s).0 <= nodes);
            }
            for s in 0..SHARDS {
                for slot in 0..SLOTS {
                    assert_eq!(map.shard_of(map.global_key(s, slot)), s);
                }
            }
        }
    }

    #[test]
    fn single_node_run_commits_and_conserves() {
        let r = run_nodes(1, Duration::from_millis(150), 7).unwrap_or_else(|e| panic!("{e}"));
        assert!(r.committed > 0, "no transfers committed");
        assert!(r.invariant_ok, "balance conservation violated");
    }

    #[test]
    fn scale_rows_roundtrip_byte_identically() {
        // A measured scale row must survive emit → parse → re-emit with
        // the exact same bytes, so dated bench files diff cleanly.
        let r = run_nodes(1, Duration::from_millis(120), 11).unwrap_or_else(|e| panic!("{e}"));
        let file = crate::BenchFile::new("2026-08-09", vec![r.to_report(11)]);
        let text = file.to_json();
        let parsed = crate::BenchFile::parse(&text).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(parsed, file);
        assert_eq!(parsed.to_json(), text, "re-emitted bytes differ");
        assert_eq!(parsed.runs[0].config.get("invariant_ok").map(String::as_str), Some("true"));
    }

    #[test]
    fn four_node_run_beats_one_node_throughput() {
        let one = run_nodes(1, Duration::from_millis(400), 7).unwrap_or_else(|e| panic!("{e}"));
        let four = run_nodes(4, Duration::from_millis(400), 7).unwrap_or_else(|e| panic!("{e}"));
        assert!(one.invariant_ok && four.invariant_ok);
        assert!(
            four.throughput() > one.throughput(),
            "4 nodes ({:.0} tps) did not beat 1 node ({:.0} tps)",
            four.throughput(),
            one.throughput()
        );
    }
}
