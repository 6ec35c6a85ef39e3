//! The fourteen benchmark transactions of §5, driven against a live
//! three-node cluster.
//!
//! "The benchmarks are among the simplest that can be designed to produce
//! the desired system behavior. There are four dimensions of system
//! behavior that the benchmarks exercise. First, some benchmarks are
//! read-only while others modify data. Second, benchmarks either cause no
//! page faults, cause random page faults, or read pages sequentially.
//! Third, benchmarks either perform a single data server operation on each
//! node or perform multiple data server operations on one of the nodes.
//! Finally, benchmarks perform operations on one, two, or three nodes."
//!
//! The paging benchmarks use a large array "more than three times the
//! available physical memory" — here 1024 pages against a 256-frame
//! buffer pool (the paper used 5000 pages against a Perq's memory).
//!
//! Each run splits counter deltas at the commit point, reproducing the
//! paper's separation into the pre-commit counts (Table 5-2) and commit
//! counts (Table 5-3).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tabs_app_lib::{AppError, AppHandle};
use tabs_core::{Cluster, ClusterConfig, Node, NodeId, Tid};
use tabs_kernel::{PerfSnapshot, PAGE_SIZE};
use tabs_servers::harness::client_for;
use tabs_servers::{IntArrayClient, IntArrayServer};

/// Pool frames per node in the benchmark cluster.
pub const POOL_PAGES: usize = 256;
/// Pages in each "large" paging array (4× the pool, as the paper's 5000
/// pages exceeded 3× physical memory).
pub const BIG_PAGES: u64 = 1024;
/// Cells per page (one-word integers).
pub const CELLS_PER_PAGE: u64 = PAGE_SIZE as u64 / 8;

/// Which commit-protocol row of Table 5-3 a benchmark exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitClass {
    /// 1 Node, Read Only.
    OneNodeRead,
    /// 1 Node, Write.
    OneNodeWrite,
    /// 2 Node, Read Only.
    TwoNodeRead,
    /// 2 Node, Write.
    TwoNodeWrite,
    /// 3 Node, Read Only.
    ThreeNodeRead,
    /// 3 Node, Write.
    ThreeNodeWrite,
}

impl CommitClass {
    /// Row label matching Table 5-3.
    pub fn label(&self) -> &'static str {
        match self {
            CommitClass::OneNodeRead => "1 Node, Read Only",
            CommitClass::OneNodeWrite => "1 Node, Write",
            CommitClass::TwoNodeRead => "2 Node, Read Only",
            CommitClass::TwoNodeWrite => "2 Node, Write",
            CommitClass::ThreeNodeRead => "3 Node, Read Only",
            CommitClass::ThreeNodeWrite => "3 Node, Write",
        }
    }
}

/// The live cluster the benchmarks run against.
pub struct BenchWorld {
    /// The cluster (counters, network).
    pub cluster: Arc<Cluster>,
    _servers: Vec<IntArrayServer>,
    nodes: Vec<Node>,
    /// Application handle on node 1.
    pub app: AppHandle,
    /// Small resident array on node 1.
    pub local_small: IntArrayClient,
    /// Large paging array on node 1.
    pub local_big: IntArrayClient,
    /// Small arrays on nodes 2 and 3 (via Communication Manager proxies).
    pub remote_small: Vec<IntArrayClient>,
    /// Large paging array on node 2.
    pub remote_big: IntArrayClient,
    seq_cursor: AtomicU64,
    remote_seq_cursor: AtomicU64,
    rng: Mutex<StdRng>,
}

impl BenchWorld {
    /// Boots the three-node benchmark cluster with all arrays in place.
    pub fn new() -> Self {
        let cluster = Cluster::with_config(ClusterConfig::default().pool_pages(POOL_PAGES));
        let mut nodes = Vec::new();
        let mut servers = Vec::new();
        for i in 1..=3u16 {
            let node = cluster.boot_node(NodeId(i));
            let small =
                IntArrayServer::spawn(&node, &format!("small{i}"), 100).expect("small array");
            servers.push(small);
            if i <= 2 {
                let big =
                    IntArrayServer::spawn(&node, &format!("big{i}"), BIG_PAGES * CELLS_PER_PAGE)
                        .expect("big array");
                servers.push(big);
            }
            node.recover().expect("recovery");
            nodes.push(node);
        }
        let n1 = &nodes[0];
        let app = n1.app();
        let local_small = client_for(n1, "small1");
        let local_big = client_for(n1, "big1");
        let remote_small = vec![client_for(n1, "small2"), client_for(n1, "small3")];
        let remote_big = client_for(n1, "big2");
        Self {
            _servers: servers,
            cluster,
            nodes,
            app,
            local_small,
            local_big,
            remote_small,
            remote_big,
            seq_cursor: AtomicU64::new(0),
            remote_seq_cursor: AtomicU64::new(0),
            rng: Mutex::new(StdRng::seed_from_u64(0x5eed)),
        }
    }

    /// Sequentially advancing cell index on the local big array: one new
    /// page per call.
    pub fn next_seq_cell(&self) -> u64 {
        let page = self.seq_cursor.fetch_add(1, Ordering::Relaxed) % BIG_PAGES;
        page * CELLS_PER_PAGE
    }

    /// Sequential cursor for the remote big array.
    pub fn next_remote_seq_cell(&self) -> u64 {
        let page = self.remote_seq_cursor.fetch_add(1, Ordering::Relaxed) % BIG_PAGES;
        page * CELLS_PER_PAGE
    }

    /// Uniformly random cell on the local big array.
    pub fn random_cell(&self) -> u64 {
        let page = self.rng.lock().gen_range(0..BIG_PAGES);
        page * CELLS_PER_PAGE
    }

    /// Orderly shutdown of the whole cluster.
    pub fn shutdown(self) {
        for n in self.nodes {
            n.shutdown();
        }
    }
}

impl Default for BenchWorld {
    fn default() -> Self {
        Self::new()
    }
}

type BenchFn = Arc<dyn Fn(&BenchWorld, Tid) -> Result<(), AppError> + Send + Sync>;

/// One benchmark definition.
pub struct Benchmark {
    /// Row label matching Table 5-4.
    pub name: &'static str,
    /// Nodes the benchmark touches.
    pub nodes: usize,
    /// Whether it modifies data.
    pub writes: bool,
    /// The commit-protocol class (Table 5-3 row).
    pub commit_class: CommitClass,
    /// The transaction body.
    pub body: BenchFn,
}

/// Measured results for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Row label.
    pub name: &'static str,
    /// Commit class.
    pub commit_class: CommitClass,
    /// Transactions measured.
    pub iters: u32,
    /// Mean elapsed wall time per transaction, microseconds.
    pub elapsed_us: f64,
    /// Mean pre-commit primitive counts per transaction (Table 5-2 row).
    pub pre_counts: [f64; 9],
    /// Mean commit-phase primitive counts per transaction (Table 5-3 row).
    pub commit_counts: [f64; 9],
}

impl BenchResult {
    /// Total per-transaction counts (pre-commit + commit).
    pub fn total_counts(&self) -> [f64; 9] {
        let mut t = [0.0; 9];
        for (i, slot) in t.iter_mut().enumerate() {
            *slot = self.pre_counts[i] + self.commit_counts[i];
        }
        t
    }
}

fn snapshot_to_f(delta: PerfSnapshot) -> [f64; 9] {
    let mut out = [0.0; 9];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = delta.0[i] as f64;
    }
    out
}

/// How long a count run waits for phase 2 to drain before snapshotting.
const QUIESCE: Duration = Duration::from_secs(5);

/// Runs one benchmark: `warmup` unmeasured transactions, then `iters`
/// measured ones, splitting counters at the commit point.
///
/// Elapsed time is what the caller waits: it stops when `end_transaction`
/// returns, at the commit point. The commit-phase counts are cluster-wide
/// totals, so each one is read only after the participants' share of
/// phase 2 has drained ([`tabs_core::Cluster::quiesce`]).
pub fn run(bench: &Benchmark, world: &BenchWorld, warmup: u32, iters: u32) -> BenchResult {
    for _ in 0..warmup {
        let _ = world.app.run(|tid| (bench.body)(world, tid));
    }
    world.cluster.quiesce(QUIESCE);
    let mut pre = [0.0f64; 9];
    let mut com = [0.0f64; 9];
    let mut elapsed = Duration::ZERO;
    let mut measured = 0u32;
    for _ in 0..iters {
        let s0 = world.cluster.perf_all();
        let t0 = Instant::now();
        let tid = match world.app.begin_transaction(Tid::NULL) {
            Ok(t) => t,
            Err(_) => continue,
        };
        if (bench.body)(world, tid).is_err() {
            let _ = world.app.abort_transaction(tid);
            continue;
        }
        let s1 = world.cluster.perf_all();
        if !world.app.end_transaction(tid).is_ok_and(|o| o.is_committed()) {
            continue;
        }
        elapsed += t0.elapsed();
        world.cluster.quiesce(QUIESCE);
        let s2 = world.cluster.perf_all();
        let dpre = snapshot_to_f(s1.since(&s0));
        let dcom = snapshot_to_f(s2.since(&s1));
        for i in 0..9 {
            pre[i] += dpre[i];
            com[i] += dcom[i];
        }
        measured += 1;
    }
    let n = measured.max(1) as f64;
    for i in 0..9 {
        pre[i] /= n;
        com[i] /= n;
    }
    BenchResult {
        name: bench.name,
        commit_class: bench.commit_class,
        iters: measured,
        elapsed_us: elapsed.as_secs_f64() * 1e6 / n,
        pre_counts: pre,
        commit_counts: com,
    }
}

/// The fourteen benchmarks of Table 5-4, in table order.
pub fn benchmarks() -> Vec<Benchmark> {
    let mut v: Vec<Benchmark> = Vec::new();

    v.push(Benchmark {
        name: "1 Local Read, No Paging",
        nodes: 1,
        writes: false,
        commit_class: CommitClass::OneNodeRead,
        body: Arc::new(|w, t| w.local_small.get(t, 0).map(|_| ())),
    });
    v.push(Benchmark {
        name: "5 Local Read, No Paging",
        nodes: 1,
        writes: false,
        commit_class: CommitClass::OneNodeRead,
        body: Arc::new(|w, t| {
            for _ in 0..5 {
                w.local_small.get(t, 0)?;
            }
            Ok(())
        }),
    });
    v.push(Benchmark {
        name: "1 Local Read, Seq. Paging",
        nodes: 1,
        writes: false,
        commit_class: CommitClass::OneNodeRead,
        body: Arc::new(|w, t| {
            let cell = w.next_seq_cell();
            w.local_big.get(t, cell).map(|_| ())
        }),
    });
    v.push(Benchmark {
        name: "1 Local Read, Random Paging",
        nodes: 1,
        writes: false,
        commit_class: CommitClass::OneNodeRead,
        body: Arc::new(|w, t| {
            let cell = w.random_cell();
            w.local_big.get(t, cell).map(|_| ())
        }),
    });
    v.push(Benchmark {
        name: "1 Local Write, No Paging",
        nodes: 1,
        writes: true,
        commit_class: CommitClass::OneNodeWrite,
        body: Arc::new(|w, t| w.local_small.set(t, 0, 1)),
    });
    v.push(Benchmark {
        name: "5 Local Write, No Paging",
        nodes: 1,
        writes: true,
        commit_class: CommitClass::OneNodeWrite,
        body: Arc::new(|w, t| {
            for i in 0..5 {
                w.local_small.set(t, i, 1)?;
            }
            Ok(())
        }),
    });
    v.push(Benchmark {
        name: "1 Local Write, Seq. Paging",
        nodes: 1,
        writes: true,
        commit_class: CommitClass::OneNodeWrite,
        body: Arc::new(|w, t| {
            let cell = w.next_seq_cell();
            w.local_big.set(t, cell, 1)
        }),
    });
    v.push(Benchmark {
        name: "1 Lcl Rd, 1 Rem Rd, No Paging",
        nodes: 2,
        writes: false,
        commit_class: CommitClass::TwoNodeRead,
        body: Arc::new(|w, t| {
            w.local_small.get(t, 0)?;
            w.remote_small[0].get(t, 0).map(|_| ())
        }),
    });
    v.push(Benchmark {
        name: "1 Lcl Rd, 5 Rem Rd, No Paging",
        nodes: 2,
        writes: false,
        commit_class: CommitClass::TwoNodeRead,
        body: Arc::new(|w, t| {
            w.local_small.get(t, 0)?;
            for _ in 0..5 {
                w.remote_small[0].get(t, 0)?;
            }
            Ok(())
        }),
    });
    v.push(Benchmark {
        name: "1 Lcl Rd, 1 Rem Rd, Seq. Paging",
        nodes: 2,
        writes: false,
        commit_class: CommitClass::TwoNodeRead,
        body: Arc::new(|w, t| {
            let lc = w.next_seq_cell();
            w.local_big.get(t, lc)?;
            let rc = w.next_remote_seq_cell();
            w.remote_big.get(t, rc).map(|_| ())
        }),
    });
    v.push(Benchmark {
        name: "1 Lcl Wr, 1 Rem Wr, No Paging",
        nodes: 2,
        writes: true,
        commit_class: CommitClass::TwoNodeWrite,
        body: Arc::new(|w, t| {
            w.local_small.set(t, 0, 1)?;
            w.remote_small[0].set(t, 0, 1)
        }),
    });
    v.push(Benchmark {
        name: "1 Lcl Wr, 1 Rem Wr, Seq. Paging",
        nodes: 2,
        writes: true,
        commit_class: CommitClass::TwoNodeWrite,
        body: Arc::new(|w, t| {
            let lc = w.next_seq_cell();
            w.local_big.set(t, lc, 1)?;
            let rc = w.next_remote_seq_cell();
            w.remote_big.set(t, rc, 1)
        }),
    });
    v.push(Benchmark {
        name: "1 Lcl Rd, 1 Rem Rd, 1 Rem Rd, NP",
        nodes: 3,
        writes: false,
        commit_class: CommitClass::ThreeNodeRead,
        body: Arc::new(|w, t| {
            w.local_small.get(t, 0)?;
            w.remote_small[0].get(t, 0)?;
            w.remote_small[1].get(t, 0).map(|_| ())
        }),
    });
    v.push(Benchmark {
        name: "1 Lcl Wr, 1 Rem Wr, 1 Rem Wr, NP",
        nodes: 3,
        writes: true,
        commit_class: CommitClass::ThreeNodeWrite,
        body: Arc::new(|w, t| {
            w.local_small.set(t, 0, 1)?;
            w.remote_small[0].set(t, 0, 1)?;
            w.remote_small[1].set(t, 0, 1)
        }),
    });
    v
}

/// Runs every benchmark against one shared world.
pub fn run_all(warmup: u32, iters: u32) -> Vec<BenchResult> {
    let world = BenchWorld::new();
    let results = benchmarks().iter().map(|b| run(b, &world, warmup, iters)).collect();
    world.shutdown();
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabs_kernel::PrimitiveOp;

    /// One shared world; each check runs a couple of benchmarks against it.
    #[test]
    fn benchmark_counts_match_expected_shapes() {
        let world = BenchWorld::new();
        let all = benchmarks();
        let by_name = |n: &str| all.iter().find(|b| b.name == n).unwrap();

        // 1 local read: exactly one data-server call, no stable write.
        let r = run(by_name("1 Local Read, No Paging"), &world, 3, 10);
        assert_eq!(r.iters, 10);
        let t = r.total_counts();
        assert!((t[PrimitiveOp::DataServerCall as usize] - 1.0).abs() < 0.01, "{t:?}");
        assert_eq!(t[PrimitiveOp::StableStorageWrite as usize], 0.0, "read-only commit is free");
        assert_eq!(t[PrimitiveOp::Datagram as usize], 0.0);

        // 5 local reads: five data-server calls; the increment over one
        // read deduces the per-operation cost, as §5.1 describes.
        let r5 = run(by_name("5 Local Read, No Paging"), &world, 3, 10);
        let t5 = r5.total_counts();
        assert!((t5[PrimitiveOp::DataServerCall as usize] - 5.0).abs() < 0.01);

        // 1 local write: one stable-storage write on the commit path, and
        // the log-spool message in the pre-commit phase.
        let w = run(by_name("1 Local Write, No Paging"), &world, 3, 10);
        assert!((w.commit_counts[PrimitiveOp::StableStorageWrite as usize] - 1.0).abs() < 0.01);
        assert!(w.pre_counts[PrimitiveOp::SmallContiguousMessage as usize] > 0.0);

        world.shutdown();
    }

    #[test]
    fn paging_benchmarks_fault() {
        let world = BenchWorld::new();
        let all = benchmarks();
        let by_name = |n: &str| all.iter().find(|b| b.name == n).unwrap();

        let seq = run(by_name("1 Local Read, Seq. Paging"), &world, 5, 20);
        let t = seq.total_counts();
        let seq_reads = t[PrimitiveOp::SequentialRead as usize];
        assert!(seq_reads > 0.5, "sequential paging reads faulted ({seq_reads}/txn)");

        let rnd = run(by_name("1 Local Read, Random Paging"), &world, 5, 20);
        let tr = rnd.total_counts();
        assert!(
            tr[PrimitiveOp::RandomAccessPagedIo as usize] > 0.4,
            "random paging faulted ({tr:?})"
        );
        world.shutdown();
    }

    #[test]
    fn remote_benchmarks_use_sessions_and_datagrams() {
        let world = BenchWorld::new();
        let all = benchmarks();
        let by_name = |n: &str| all.iter().find(|b| b.name == n).unwrap();

        let rr = run(by_name("1 Lcl Rd, 1 Rem Rd, No Paging"), &world, 2, 5);
        let t = rr.total_counts();
        assert!((t[PrimitiveOp::InterNodeDataServerCall as usize] - 1.0).abs() < 0.01);
        assert!((t[PrimitiveOp::DataServerCall as usize] - 1.0).abs() < 0.01);
        // Read-only 2PC: prepare + read-only vote = 2 datagrams.
        assert!((rr.commit_counts[PrimitiveOp::Datagram as usize] - 2.0).abs() < 0.51);

        let rw = run(by_name("1 Lcl Wr, 1 Rem Wr, No Paging"), &world, 2, 5);
        // Write 2PC costs more datagrams than read-only (prepare, yes,
        // commit, ack = 4).
        assert!(
            rw.commit_counts[PrimitiveOp::Datagram as usize]
                > rr.commit_counts[PrimitiveOp::Datagram as usize] + 1.0,
            "write commit {} vs read commit {}",
            rw.commit_counts[PrimitiveOp::Datagram as usize],
            rr.commit_counts[PrimitiveOp::Datagram as usize]
        );
        // Both sides force: two stable-storage writes total.
        assert!(rw.commit_counts[PrimitiveOp::StableStorageWrite as usize] >= 1.9);
        world.shutdown();
    }

    #[test]
    fn three_node_write_exceeds_two_node_write() {
        let world = BenchWorld::new();
        let all = benchmarks();
        let by_name = |n: &str| all.iter().find(|b| b.name == n).unwrap();
        let two = run(by_name("1 Lcl Wr, 1 Rem Wr, No Paging"), &world, 2, 5);
        let three = run(by_name("1 Lcl Wr, 1 Rem Wr, 1 Rem Wr, NP"), &world, 2, 5);
        assert!(
            three.total_counts()[PrimitiveOp::Datagram as usize]
                > two.total_counts()[PrimitiveOp::Datagram as usize],
            "three-node commit sends more datagrams"
        );
        assert!(
            three.total_counts()[PrimitiveOp::StableStorageWrite as usize]
                > two.total_counts()[PrimitiveOp::StableStorageWrite as usize]
        );
        world.shutdown();
    }
}
