//! The system under test: the one file that calls the product. Everything
//! here goes through public functions of the product crates; nothing in
//! the product knows the benchmark exists.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use tabs_core::{
    AppHandle, Cluster, ClusterConfig, HeartbeatConfig, NetConfig, Node, NodeId, ReplicationPolicy,
    Tid, TraceEvent, TraceRecord,
};
use tabs_kernel::{
    BufferPool, Disk, Kernel, MemDisk, Message, ObjectId, PageId, PerfCounters, PortClass,
    PrimitiveOp, Sector, SegmentId, SegmentSpec,
};
use tabs_lock::{DeadlockPolicy, LockManager, StdMode};
use tabs_net::Network;
use tabs_servers::{IntArrayClient, IntArrayServer};
use tabs_shard::{shard_segment_name, Partitioning, ShardClient, ShardMap, ShardServer};
use tabs_wal::{LatencyLogDevice, LogManager, LogRecord, MemLogDevice};

use crate::spans::{SpanKind, Spans};
use crate::stats;
use crate::workload::{Op, Spec, Topology};

const SERVICE: &str = "bank";
const LOG_CAPACITY: u64 = 64 << 20;
const CELL: u64 = 8;

/// A `MemDisk` that times every sector I/O and, when the workload asks
/// for a slow device, busy-waits it out to `delay`. Busy-waiting, not
/// sleeping: a sleeping I/O hands the core to the other client and makes
/// throughput depend on scheduler placement.
pub struct TimedDisk {
    inner: Arc<MemDisk>,
    delay_ns: AtomicU64,
    ios: AtomicU64,
    busy_ns: AtomicU64,
}

impl TimedDisk {
    fn new(sectors: u64, delay: Duration) -> Arc<Self> {
        Arc::new(Self {
            inner: MemDisk::new(sectors),
            delay_ns: AtomicU64::new(delay.as_nanos() as u64),
            ios: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        })
    }

    fn timed<R>(&self, io: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = io();
        let delay = Duration::from_nanos(self.delay_ns.load(Ordering::Relaxed));
        while start.elapsed() < delay {
            std::hint::spin_loop();
        }
        self.ios.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

impl Disk for TimedDisk {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }

    fn read(&self, idx: u64) -> std::io::Result<Sector> {
        self.timed(|| self.inner.read(idx))
    }

    fn write(&self, idx: u64, sector: &Sector) -> std::io::Result<()> {
        self.timed(|| self.inner.write(idx, sector))
    }

    fn sync(&self) -> std::io::Result<()> {
        self.inner.sync()
    }
}

/// Counter name → running total, summed over nodes. Deltas of two
/// snapshots divided by committed transactions give the per-layer counts.
pub type Counters = BTreeMap<&'static str, u64>;

/// `later - earlier`, per counter.
pub fn counters_since(later: &Counters, earlier: &Counters) -> Counters {
    later
        .iter()
        .map(|(k, v)| (*k, v.saturating_sub(earlier.get(k).copied().unwrap_or(0))))
        .collect()
}

/// The servers of one booted cluster.
enum Servers {
    /// One array per node (a single node, or the three of `bank_2pc`).
    Arrays(Vec<IntArrayServer>),
    /// One replica of the single shard per node.
    Shards { map: ShardMap, replicas: Vec<ShardServer> },
}

/// A booted cluster running one workload's topology.
pub struct World {
    spec: Spec,
    cluster: Arc<Cluster>,
    nodes: Vec<Node>,
    servers: Servers,
    disks: Vec<Arc<TimedDisk>>,
}

fn node_count(spec: &Spec) -> u16 {
    if spec.topology == Topology::Single {
        1
    } else {
        3
    }
}

fn pages_for(cells: u64) -> u64 {
    (cells * CELL).div_ceil(tabs_kernel::PAGE_SIZE as u64).max(1)
}

impl World {
    /// Boots the workload's cluster on fresh storage: `ClusterConfig::
    /// default()` plus only what the topology needs.
    pub fn boot(spec: &Spec, traced: bool) -> Result<World, String> {
        let delay = Duration::from_micros(spec.net_delay_us);
        let mut config = ClusterConfig::default().trace(traced);
        if !delay.is_zero() {
            config =
                config.net(NetConfig::default().datagram_latency(delay).session_latency(delay));
        }
        if spec.topology == Topology::Replicated {
            config = config
                .heartbeat(HeartbeatConfig {
                    interval: Duration::from_millis(10),
                    suspect_after: 3,
                    probe_cap: Duration::from_millis(200),
                })
                .replication(ReplicationPolicy::enabled());
        }
        let cluster = Cluster::with_config(config);
        let mut disks = Vec::new();
        for n in 1..=node_count(spec) {
            let id = NodeId(n);
            if spec.force_delay_us > 0 {
                let force = Duration::from_micros(spec.force_delay_us);
                cluster.set_log_device(id, LatencyLogDevice::new(LOG_CAPACITY, force));
            }
            let (segment, cells) = match spec.topology {
                Topology::Single => ("bank-segment".to_string(), spec.accounts),
                Topology::TwoPc { per_node } => (format!("bank{n}-segment"), per_node),
                Topology::Replicated => (shard_segment_name(SERVICE, 0), spec.accounts),
            };
            let disk = TimedDisk::new(pages_for(cells), Duration::from_micros(spec.disk_delay_us));
            cluster.disks().insert(&format!("{id}.{segment}"), Arc::clone(&disk) as Arc<dyn Disk>);
            disks.push(disk);
        }
        if spec.topology == Topology::Replicated {
            let map = replicated_map();
            if !cluster.commit_shard_map(SERVICE, map.version, map.to_blob()) {
                return Err("seeding the shard map store failed".into());
            }
        }
        let (nodes, servers, _) = assemble(&cluster, spec)?;
        Ok(World { spec: *spec, cluster, nodes, servers, disks })
    }

    /// A client: the application handle on the issuing node plus the
    /// stubs it calls. One per driver thread.
    pub fn client(&self) -> Result<Client, String> {
        let Servers::Arrays(arrays) = &self.servers else {
            let home = &self.nodes[2];
            let router = ShardClient::new(home, SERVICE).map_err(|e| format!("router: {e}"))?;
            return Ok(Client { app: home.app(), route: Route::Shard(Box::new(router)) });
        };
        let home = &self.nodes[0];
        let app = home.app();
        let mut stubs = vec![IntArrayClient::new(app.clone(), arrays[0].send_right())];
        for n in 2..=arrays.len() {
            let name = format!("bank{n}");
            let found = home.resolve(&name, 1, Duration::from_secs(3));
            let (port, _) = found.first().ok_or(format!("{name} did not resolve"))?;
            stubs.push(IntArrayClient::new(app.clone(), port.clone()));
        }
        let per_stub = self.spec.accounts / arrays.len() as u64;
        Ok(Client { app, route: Route::Arrays { stubs, per_stub } })
    }

    /// A snapshot of every product counter the per-layer metrics read.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        let perf = self.cluster.perf_all();
        c.insert(
            "kernel.msgs",
            perf.get(PrimitiveOp::SmallContiguousMessage)
                + perf.get(PrimitiveOp::LargeContiguousMessage)
                + perf.get(PrimitiveOp::PointerMessage),
        );
        c.insert("kernel.local_calls", perf.get(PrimitiveOp::DataServerCall));
        c.insert("cm.remote_calls", perf.get(PrimitiveOp::InterNodeDataServerCall));
        c.insert("net.datagrams", perf.get(PrimitiveOp::Datagram));
        c.insert("wal.forces", perf.get(PrimitiveOp::StableStorageWrite));
        let mut add = |name: &'static str, v: u64| *c.entry(name).or_insert(0) += v;
        for node in &self.nodes {
            let m = self.cluster.metrics(node.id).snapshot();
            add("cm.rx_zero_copy", m.counter("cm.session.rx.zero_copy"));
            add("cm.rx_fallback", m.counter("cm.session.rx.fallback"));
            add("tm.quorum_commits", m.counter("tm.rep.quorum_commits"));
            add("wal.records", node.rm.log().next_lsn().0);
            add("wal.bytes", node.rm.log().usage().0);
            let pool = node.pool.stats();
            add("vm.faults", pool.faults);
            add("vm.hits", pool.hits);
            add("vm.evictions", pool.evictions);
            add("vm.writebacks", pool.writebacks);
        }
        for locks in self.lock_managers() {
            let w = locks.wait_stats();
            add("lock.waits", w.waits);
            add("lock.wakeups", w.wakeups);
            add("lock.spurious", w.spurious);
        }
        for disk in &self.disks {
            add("storage.ios", disk.ios.load(Ordering::Relaxed));
            add("storage.io_ns", disk.busy_ns.load(Ordering::Relaxed));
        }
        c
    }

    fn lock_managers(&self) -> Vec<&Arc<LockManager<StdMode>>> {
        match &self.servers {
            Servers::Arrays(arrays) => arrays.iter().map(|a| a.locks()).collect(),
            Servers::Shards { replicas, .. } => {
                replicas.iter().map(|s| s.server().locks()).collect()
            }
        }
    }

    /// Objects still locked on any server; 0 once the load has drained.
    pub fn locked_objects(&self) -> usize {
        self.lock_managers().iter().map(|l| l.locked_object_count()).sum()
    }

    /// Ends the measured part of a run: from here on the disks answer at
    /// memory speed, so the output checks do not wait out injected I/O.
    pub fn stop_disk_delays(&self) {
        for disk in &self.disks {
            disk.delay_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Every account's balance as the recoverable segments hold it, read
    /// through the pager (no locks: call only after the load has drained).
    /// Replicas of the shard must agree with each other.
    pub fn balances(&self) -> Result<Vec<i64>, String> {
        let read = |server: &tabs_core::DataServer, slots: &mut dyn Iterator<Item = u64>| {
            slots
                .map(|s| server.segment().read_i64(s * CELL).map_err(|e| format!("read: {e}")))
                .collect::<Result<Vec<i64>, String>>()
        };
        match &self.servers {
            Servers::Arrays(arrays) => arrays.iter().try_fold(Vec::new(), |mut all, a| {
                all.extend(read(a.server(), &mut (0..a.cells()))?);
                Ok(all)
            }),
            Servers::Shards { map, replicas } => {
                let mut copies = replicas.iter().map(|s| {
                    read(s.server(), &mut (0..self.spec.accounts).map(|k| map.local_slot(k)))
                });
                let leader = copies.next().expect("three replicas")?;
                copies.try_fold(leader, |leader, follower| {
                    (follower? == leader).then_some(leader).ok_or("replicas diverge".to_string())
                })
            }
        }
    }

    /// Crashes every node (volatile state is discarded; only forced log
    /// records and written-back pages survive), reboots them on the same
    /// storage and runs recovery. Returns the recovered world, the
    /// reboot-and-recover time and the log records recovery scanned.
    pub fn crash_and_recover(self) -> Result<(World, Duration, usize), String> {
        let World { spec, cluster, nodes, servers, disks } = self;
        drop(servers);
        for node in nodes {
            node.crash();
        }
        let start = Instant::now();
        let (nodes, servers, scanned) = assemble(&cluster, &spec)?;
        let took = start.elapsed();
        Ok((World { spec, cluster, nodes, servers, disks }, took, scanned))
    }

    /// Orderly teardown; joins every thread the cluster started.
    pub fn shutdown(self) {
        drop(self.servers);
        for node in self.nodes {
            node.shutdown();
        }
    }

    /// Time per committed transaction spent in the intervals the
    /// product's own trace events delimit, over the transactions the
    /// per-node trace rings still hold in full (none unless the world was
    /// booted traced).
    pub fn trace_intervals(&self) -> TraceIntervals {
        let mut out = TraceIntervals::default();
        let mut by_tid: HashMap<Tid, Vec<TraceRecord>> = HashMap::new();
        for node in &self.nodes {
            let trace = self.cluster.trace(node.id);
            out.dropped += trace.dropped();
            for r in trace.snapshot() {
                if !r.tid.is_null() {
                    by_tid.entry(r.tid).or_default().push(r);
                }
            }
        }
        for (tid, mut recs) in by_tid {
            recs.sort_by_key(|r| (r.node, r.seq));
            let at_home = |e: &TraceEvent| recs.iter().any(|r| r.node == tid.node && r.event == *e);
            if at_home(&TraceEvent::TxnBegin { parent: Tid::NULL })
                && at_home(&TraceEvent::TxnCommit)
            {
                out.txns += 1;
                out.add(&recs);
            }
        }
        out
    }
}

fn replicated_map() -> ShardMap {
    ShardMap {
        service: SERVICE.into(),
        version: 1,
        partitioning: Partitioning::Hash,
        owners: vec![NodeId(1)],
        replicas: vec![vec![NodeId(2), NodeId(3)]],
    }
}

/// Boots every node of `spec` on `cluster`'s storage, spawns its servers
/// and recovers it. Returns the log records recovery scanned.
fn assemble(cluster: &Arc<Cluster>, spec: &Spec) -> Result<(Vec<Node>, Servers, usize), String> {
    let mut nodes = Vec::new();
    let mut arrays = Vec::new();
    let mut replicas = Vec::new();
    let mut scanned = 0;
    for n in 1..=node_count(spec) {
        let node = cluster.boot_node(NodeId(n));
        match spec.topology {
            Topology::Single => arrays.push(spawn_array(&node, "bank", spec.accounts)?),
            Topology::TwoPc { per_node } => {
                arrays.push(spawn_array(&node, &format!("bank{n}"), per_node)?)
            }
            Topology::Replicated => {
                let (_, mut servers) =
                    ShardServer::spawn_all(&node, &replicated_map(), spec.accounts)
                        .map_err(|e| format!("spawn shard on n{n}: {e}"))?;
                replicas.push(servers.remove(0));
            }
        }
        scanned += node.recover().map_err(|e| format!("recover n{n}: {e}"))?.records_scanned;
        nodes.push(node);
    }
    let servers = if spec.topology == Topology::Replicated {
        Servers::Shards { map: replicated_map(), replicas }
    } else {
        Servers::Arrays(arrays)
    };
    Ok((nodes, servers, scanned))
}

fn spawn_array(node: &Node, name: &str, cells: u64) -> Result<IntArrayServer, String> {
    IntArrayServer::spawn(node, name, cells).map_err(|e| format!("spawn {name}: {e}"))
}

enum Route {
    /// Account `a` lives in cell `a % per_stub` of array `a / per_stub`;
    /// stub 0 is on the application's own node.
    Arrays {
        stubs: Vec<IntArrayClient>,
        per_stub: u64,
    },
    Shard(Box<ShardClient>),
}

/// One driver thread's handle on the system.
pub struct Client {
    app: AppHandle,
    route: Route,
}

impl Client {
    fn call(
        &self,
        spans: &mut impl Spans,
        tid: Tid,
        account: u64,
        delta: Option<i64>,
    ) -> Result<i64, String> {
        let r = match &self.route {
            Route::Arrays { stubs, per_stub } => {
                let (stub, cell) = ((account / per_stub) as usize, account % per_stub);
                let kind = if stub == 0 { SpanKind::CallLocal } else { SpanKind::CallRemote };
                spans.span(kind, || match delta {
                    Some(d) => stubs[stub].add(tid, cell, d),
                    None => stubs[stub].get(tid, cell),
                })
            }
            Route::Shard(router) => spans.span(SpanKind::CallShard, || match delta {
                Some(d) => router.add(tid, account, d),
                None => router.get(tid, account),
            }),
        };
        r.map_err(|e| e.to_string())
    }

    /// Runs one transaction end to end. `Ok` means the commit was
    /// acknowledged; anything else counts as failed.
    pub fn exec(&self, op: Op, spans: &mut impl Spans) -> Result<(), String> {
        let tid = spans
            .span(SpanKind::Begin, || self.app.begin_transaction(Tid::NULL))
            .map_err(|e| e.to_string())?;
        let (lo, hi, d_lo) = match op {
            Op::Transfer { lo, hi, d_lo } => (lo, hi, Some(d_lo)),
            Op::Audit { lo, hi } => (lo, hi, None),
        };
        let body = self
            .call(spans, tid, lo, d_lo)
            .and_then(|_| self.call(spans, tid, hi, d_lo.map(|d| -d)));
        if let Err(e) = body {
            let _ = self.app.abort_transaction(tid);
            return Err(e);
        }
        let end = if op.is_audit() { SpanKind::EndAudit } else { SpanKind::EndTransfer };
        match spans.span(end, || self.app.end_transaction(tid)) {
            Ok(outcome) if outcome.is_committed() => Ok(()),
            Ok(_) => Err("aborted at commit".into()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Sums of the intervals between pairs of the product's trace events.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceIntervals {
    /// Committed transactions the sums below cover.
    pub txns: u64,
    /// Events lost to trace-ring wrap-around, all nodes.
    pub dropped: u64,
    /// `LockWait` → the `LockAcquire` of the same object.
    pub lock_wait_us: f64,
    /// A transaction's last `LogAppend` → the `LogForce` that made it
    /// durable (forces the log attributes to another committer's record
    /// are not charged twice).
    pub force_wait_us: f64,
    /// First `PrepareSend` → last `VoteRecv` at the coordinator.
    pub prepare_round_us: f64,
    /// First `DecisionSend` → last `AckRecv` at the coordinator.
    pub decision_round_us: f64,
}

impl TraceIntervals {
    /// Adds one transaction's records, sorted by `(node, seq)`.
    fn add(&mut self, recs: &[TraceRecord]) {
        let us =
            |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e6;
        let mut waiting: Option<(ObjectId, Instant)> = None;
        let mut appended: Option<(NodeId, Instant)> = None;
        let mut prepare: (Option<Instant>, Option<Instant>) = (None, None);
        let mut decision: (Option<Instant>, Option<Instant>) = (None, None);
        for r in recs {
            match &r.event {
                TraceEvent::LockWait { object, .. } => waiting = Some((*object, r.at)),
                TraceEvent::LockAcquire { object, .. } => {
                    if let Some((_, since)) = waiting.take_if(|(o, _)| o == object) {
                        self.lock_wait_us += us(since, r.at);
                    }
                }
                TraceEvent::LogAppend { .. } => appended = Some((r.node, r.at)),
                TraceEvent::LogForce { .. } => {
                    if let Some((_, since)) = appended.take_if(|(n, _)| *n == r.node) {
                        self.force_wait_us += us(since, r.at);
                    }
                }
                TraceEvent::PrepareSend { .. } => prepare.0 = prepare.0.or(Some(r.at)),
                TraceEvent::VoteRecv { .. } => prepare.1 = Some(r.at),
                TraceEvent::DecisionSend { .. } => decision.0 = decision.0.or(Some(r.at)),
                TraceEvent::AckRecv { .. } => decision.1 = Some(r.at),
                _ => {}
            }
        }
        if let (Some(from), Some(to)) = prepare {
            self.prepare_round_us += us(from, to);
        }
        if let (Some(from), Some(to)) = decision {
            self.decision_round_us += us(from, to);
        }
    }
}

/// This implementation's Table 5-1: the median cost in microseconds of
/// one call of each layer's public function, on an idle single-thread
/// rig with no injected delay. `budget` is split evenly over the probes.
pub fn probes(budget: Duration) -> Result<Vec<(&'static str, f64)>, String> {
    const CALLS: usize = 20_000;
    let slice = budget / 12;
    let time = |batch: usize, f: &mut dyn FnMut()| stats::time_batches(slice, CALLS, batch, f);

    // kernel: a request to a system port and its reply.
    let kernel = Kernel::new(NodeId(90));
    let (tx, rx) = kernel.allocate_port(PortClass::System);
    tabs_kernel::process::spawn_server(&kernel, "echo", rx, |m| Some(Message::new(m.op, vec![])));
    let kernel_port_roundtrip_us = time(1, &mut || {
        let msg = Message::new(1, vec![0; 16]);
        tabs_kernel::process::call_system(&kernel, &tx, msg, Duration::from_secs(1)).expect("echo");
    });
    kernel.shutdown();
    kernel.join_all();

    // servers / cm / tm: a two-node cluster with no injected delay.
    let cluster = Cluster::new();
    let n1 = cluster.boot_node(NodeId(1));
    let n2 = cluster.boot_node(NodeId(2));
    let a1 = spawn_array(&n1, "probe1", 64)?;
    let a2 = spawn_array(&n2, "probe2", 64)?;
    n1.recover().map_err(|e| e.to_string())?;
    n2.recover().map_err(|e| e.to_string())?;
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), a1.send_right());
    let found = n1.resolve("probe2", 1, Duration::from_secs(3));
    let remote =
        IntArrayClient::new(app.clone(), found.first().ok_or("probe2 unresolved")?.0.clone());
    let tm_empty_txn_us = time(1, &mut || {
        let t = app.begin_transaction(Tid::NULL).expect("begin");
        app.end_transaction(t).expect("end");
    });
    let tid = app.begin_transaction(Tid::NULL).map_err(|e| e.to_string())?;
    let servers_local_call_us = time(1, &mut || {
        local.get(tid, 0).expect("local get");
    });
    let cm_remote_call_us = time(1, &mut || {
        remote.get(tid, 0).expect("remote get");
    });
    app.end_transaction(tid).map_err(|e| e.to_string())?;
    drop((a1, a2));
    n1.shutdown();
    n2.shutdown();

    // net: one-way delivery between two attached endpoints.
    let net = Network::new();
    let e1 = net.attach(NodeId(1), PerfCounters::new());
    let e2 = net.attach(NodeId(2), PerfCounters::new());
    let net_datagram_us = time(1, &mut || {
        e1.send_datagram(NodeId(2), vec![0; 32]).expect("send");
        e2.recv_datagram(Duration::from_secs(1)).expect("datagram");
    });
    let net_session_us = time(1, &mut || {
        e1.send_session(NodeId(2), vec![0; 32]).expect("send");
        e2.recv_session(Duration::from_secs(1)).expect("session");
    });

    // lock: uncontended acquire+release, then the hand-off to a waiter.
    let seg = SegmentId { node: NodeId(1), index: 0 };
    let object = ObjectId::new(seg, 0, 8);
    let tid_of = |seq| Tid { node: NodeId(1), incarnation: 1, seq };
    let locks = LockManager::<StdMode>::shared(DeadlockPolicy::Timeout);
    let long = Duration::from_secs(5);
    let lock_acquire_release_us = time(16, &mut || {
        locks.lock(tid_of(1), object, StdMode::Exclusive, long).expect("free lock");
        locks.release_all(tid_of(1));
    });
    let lock_handoff_us = lock_handoff_us(&locks, object, slice);

    // wal: append of a one-word value record; a force that moves it.
    let log = LogManager::open(MemLogDevice::new(LOG_CAPACITY), PerfCounters::new())
        .map_err(|e| e.to_string())?;
    let record =
        || LogRecord::ValueUpdate { tid: tid_of(1), object, old: vec![0; 8], new: vec![1; 8] };
    let wal_append_us = time(16, &mut || {
        log.append(record());
    });
    let wal_force_us = stats::median_us(slice, CALLS, &mut || {
        log.append(record());
        let start = Instant::now();
        log.force(None).expect("force");
        start.elapsed()
    });

    // vm: a hit on a resident page; a fault into a full default-sized
    // pool (victim scan plus a MemDisk read of a clean page).
    const PAGES: u32 = 5000;
    let pool = BufferPool::new(ClusterConfig::default().pool_pages, PerfCounters::new());
    pool.register_segment(SegmentSpec {
        id: seg,
        name: "probe".into(),
        disk: MemDisk::new(u64::from(PAGES)),
        base_sector: 0,
        pages: PAGES,
    })
    .map_err(|e| e.to_string())?;
    let mut next = 0u32;
    let mut touch_next = || {
        pool.with_page(PageId { segment: seg, page: next % PAGES }, |d| d[0]).expect("page");
        next += 1;
    };
    (0..pool.capacity()).for_each(|_| touch_next());
    let vm_fault_us = time(1, &mut touch_next);
    let resident = PageId { segment: seg, page: (next - 1) % PAGES };
    let vm_hit_us = time(16, &mut || {
        pool.with_page(resident, |d| d[0]).expect("page");
    });
    Ok(vec![
        ("probe.kernel.port_roundtrip_us", kernel_port_roundtrip_us),
        ("probe.servers.local_call_us", servers_local_call_us),
        ("probe.cm.remote_call_us", cm_remote_call_us),
        ("probe.net.datagram_us", net_datagram_us),
        ("probe.net.session_us", net_session_us),
        ("probe.lock.acquire_release_us", lock_acquire_release_us),
        ("probe.lock.handoff_us", lock_handoff_us),
        ("probe.wal.append_us", wal_append_us),
        ("probe.wal.force_us", wal_force_us),
        ("probe.vm.hit_us", vm_hit_us),
        ("probe.vm.fault_us", vm_fault_us),
        ("probe.tm.empty_txn_us", tm_empty_txn_us),
    ])
}

/// Median time from a holder's release to the return of `lock` in a
/// waiter parked behind it.
fn lock_handoff_us(locks: &Arc<LockManager<StdMode>>, object: ObjectId, budget: Duration) -> f64 {
    let holder = Tid { node: NodeId(1), incarnation: 1, seq: 1 };
    let waiter = Tid { node: NodeId(1), incarnation: 1, seq: 2 };
    let long = Duration::from_secs(5);
    let (go, gone) = mpsc::channel::<()>();
    let (woke, woken) = mpsc::channel::<Instant>();
    std::thread::scope(|s| {
        s.spawn(move || {
            while gone.recv().is_ok() {
                locks.lock(waiter, object, StdMode::Exclusive, long).expect("hand-off");
                let at = Instant::now();
                locks.release_all(waiter);
                woke.send(at).expect("prober alive");
            }
        });
        let us = stats::median_us(budget, 2_000, &mut || {
            locks.lock(holder, object, StdMode::Exclusive, long).expect("free lock");
            let parked = locks.wait_stats().waits + 1;
            go.send(()).expect("waiter alive");
            while locks.wait_stats().waits < parked {
                std::thread::yield_now();
            }
            // `waits` ticks just before the waiter parks: let it get there.
            let counted = Instant::now();
            while counted.elapsed() < Duration::from_micros(50) {
                std::hint::spin_loop();
            }
            let released = Instant::now();
            locks.release_all(holder);
            woken.recv().expect("waiter woke").saturating_duration_since(released)
        });
        drop(go);
        us
    })
}
