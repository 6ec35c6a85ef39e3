//! TABS node assembly and multi-node cluster harness (Figure 3-1).
//!
//! "At each node, there is one instance of the TABS facilities and one or
//! more user-programmed data servers and/or applications. … The TABS
//! facilities are made up of four processes … called Name Server,
//! Communication Manager, Recovery Manager, and Transaction Manager."
//!
//! A [`Cluster`] owns everything that survives node crashes: the network,
//! the disk registry, log devices, segment tables and node incarnation
//! counters. [`Cluster::boot_node`] assembles a [`Node`] — kernel, buffer
//! pool, the four system components, and application handles. Crashing a
//! node ([`Node::crash`]) discards all volatile state; re-booting it runs
//! crash recovery against the surviving non-volatile storage.
//!
//! This crate is also the facade: it re-exports the subsystem crates under
//! one roof (see [`prelude`]).

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

pub use tabs_app_lib::{AppError, AppHandle, CommitOutcome};
pub use tabs_cm::{CommManager, FailureDetector, HeartbeatConfig};
pub use tabs_detect::{DetectConfig, Detector};
pub use tabs_kernel::{
    BufferPool, DiskRegistry, FileDisk, Kernel, MemDisk, NodeId, ObjectId, PageId, PerfCounters,
    PortId, SegmentId, SegmentSpec, Tid,
};
pub use tabs_net::{NetConfig, Network};
pub use tabs_ns::NameServer;
pub use tabs_obs::{
    KernelTraceBridge, Metrics, MetricsSnapshot, Timeline, TraceCollector, TraceEvent, TraceRecord,
};
pub use tabs_proto::{Deadline, DeadlinePolicy, RetryBudget, RetryPolicy};
pub use tabs_rm::{RecoveryManager, RecoveryReport};
pub use tabs_server_lib::{DataServer, Dispatch, OpCtx, ServerConfig, ServerDeps};
pub use tabs_tm::{ReplicationPolicy, TmTimeouts, TransactionManager};
pub use tabs_wal::GroupCommitConfig;

/// Commonly used items for applications and data servers.
pub mod prelude {
    pub use crate::{Cluster, ClusterConfig, GroupCommitConfig, Node};
    pub use tabs_app_lib::{AppError, AppHandle, CommitOutcome};
    pub use tabs_cm::{FailureDetector, HeartbeatConfig};
    pub use tabs_detect::{DetectConfig, Detector};
    pub use tabs_kernel::{NodeId, ObjectId, PerfCounters, SegmentId, Tid, PAGE_SIZE};
    pub use tabs_lock::{DeadlockPolicy, StdMode};
    pub use tabs_net::{NetConfig, Network};
    pub use tabs_obs::{Metrics, MetricsSnapshot, Timeline, TraceCollector, TraceEvent};
    pub use tabs_proto::ServerError;
    pub use tabs_server_lib::{DataServer, Dispatch, OpCtx, ServerConfig, ServerDeps};
}

/// Per-node persistent name → (segment index, pages) table.
type SegTable = HashMap<String, (u32, u32)>;

/// Cluster-wide configuration. Construct with [`ClusterConfig::default`]
/// and the builder methods; the struct is `#[non_exhaustive]` so new knobs
/// can be added without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClusterConfig {
    /// Buffer-pool frames per node. The paper's Perq held roughly a third
    /// of the 5000-page benchmark array, hence the default.
    pub pool_pages: usize,
    /// Log device capacity in bytes.
    pub log_capacity: u64,
    /// Network behaviour.
    pub net: NetConfig,
    /// Default lock time-out handed to data servers.
    pub lock_timeout: Duration,
    /// When set, recoverable segments and logs live in real files under
    /// this directory (surviving even process restarts); otherwise they
    /// use in-memory devices that survive only simulated node crashes.
    pub storage_dir: Option<std::path::PathBuf>,
    /// When true, booting a node installs a [`TraceCollector`] and wires
    /// every subsystem's trace hooks, so [`Cluster::timeline`] can render
    /// per-transaction swimlanes.
    pub trace: bool,
    /// When true, every booted node runs a distributed deadlock
    /// [`Detector`]: cross-node waits-for cycles are found by edge-chasing
    /// probes and broken promptly instead of waiting out the lock
    /// time-out (which remains the backstop).
    pub detect: bool,
    /// When set, commit-path log forces (commit and prepare records) go
    /// through the group-commit scheduler: concurrent committers share
    /// one device force, bounded by the window's max delay and max batch.
    /// `None` (the default) keeps the seed behaviour — one force per
    /// committing transaction.
    pub group_commit: Option<GroupCommitConfig>,
    /// When set, every booted node runs a heartbeat [`FailureDetector`]:
    /// silent peers are suspected, in-doubt transactions whose coordinator
    /// is suspected resolve through cooperative termination, transactions
    /// spanning a suspected child abort instead of hanging, and calls to
    /// suspects fail fast with a typed retryable error. `None` (the
    /// default) keeps the seed behaviour — time-outs only.
    pub heartbeat: Option<HeartbeatConfig>,
    /// When set, every booted node's Transaction Manager treats a
    /// registered replica set as one logical 2PC participant: missing
    /// votes from suspected-dead members are waived once a majority of
    /// their group is durably prepared, and phase-2 acknowledgements
    /// from dead members are abandoned instead of chased (the rejoining
    /// member resolves the outcome from the durable decision record).
    /// `None` (the default) keeps the seed behaviour — every enlisted
    /// participant must vote.
    pub replication: Option<ReplicationPolicy>,
    /// When set, every top-level transaction begun through [`Node::app`]
    /// is assigned the policy's end-to-end budget as an absolute
    /// deadline that rides its calls: servers reject expired work before
    /// touching objects, lock waits cap at the remaining budget, and the
    /// Transaction Manager aborts commits it cannot finish in time.
    /// `None` (the default) keeps the seed behaviour — no deadline field
    /// on the wire, byte-identical request encodings.
    pub deadlines: Option<DeadlinePolicy>,
    /// When set, every data server built from [`Node::server_config`] /
    /// [`Node::deps`] caps its in-flight transactions at this limit and
    /// sheds excess new work with `ServerError::Overloaded` before lock
    /// acquisition. `None` (the default) accepts unboundedly.
    pub admission_limit: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            pool_pages: 1536,
            log_capacity: 64 << 20,
            net: NetConfig::default(),
            lock_timeout: Duration::from_millis(300),
            storage_dir: None,
            trace: false,
            detect: false,
            group_commit: None,
            heartbeat: None,
            replication: None,
            deadlines: None,
            admission_limit: None,
        }
    }
}

impl ClusterConfig {
    /// Sets the buffer-pool frame count per node.
    pub fn pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages;
        self
    }

    /// Sets the log device capacity in bytes.
    pub fn log_capacity(mut self, bytes: u64) -> Self {
        self.log_capacity = bytes;
        self
    }

    /// Sets the network behaviour.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Sets the default lock time-out handed to data servers.
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// Puts recoverable segments and logs in real files under `dir`.
    pub fn storage_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.storage_dir = Some(dir.into());
        self
    }

    /// Enables (or disables) transaction tracing on every booted node.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Enables (or disables) distributed deadlock detection on every
    /// booted node.
    pub fn deadlock_detection(mut self, enabled: bool) -> Self {
        self.detect = enabled;
        self
    }

    /// Enables group commit: commit-path log forces on every booted node
    /// are batched under `cfg`'s window.
    pub fn group_commit(mut self, cfg: GroupCommitConfig) -> Self {
        self.group_commit = Some(cfg);
        self
    }

    /// Enables the heartbeat failure detector (and with it cooperative
    /// 2PC termination and fail-fast remote calls) on every booted node.
    pub fn heartbeat(mut self, cfg: HeartbeatConfig) -> Self {
        self.heartbeat = Some(cfg);
        self
    }

    /// Enables the replicated-participant commit integration (majority
    /// vote waiver and dead-member ack abandonment) on every booted node.
    /// Quorum groups themselves are registered per node from the shard
    /// map (see `tabs_shard::ShardServer::spawn_all`).
    pub fn replication(mut self, policy: ReplicationPolicy) -> Self {
        self.replication = Some(policy);
        self
    }

    /// Assigns every top-level transaction an end-to-end deadline budget.
    pub fn deadlines(mut self, policy: DeadlinePolicy) -> Self {
        self.deadlines = Some(policy);
        self
    }

    /// Caps in-flight transactions per data server; excess new work is
    /// shed with `ServerError::Overloaded` before lock acquisition.
    pub fn admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = Some(limit.max(1));
        self
    }
}

/// Everything that survives node crashes, plus the wire between nodes.
pub struct Cluster {
    net: Network,
    disks: Arc<DiskRegistry>,
    log_devices: Mutex<HashMap<NodeId, Arc<dyn tabs_wal::LogDevice>>>,
    /// Persistent name → (segment index, pages) tables per node, so a
    /// restarted node maps the same segments to the same identifiers.
    seg_tables: Mutex<HashMap<NodeId, SegTable>>,
    incarnations: Mutex<HashMap<NodeId, u32>>,
    perfs: Mutex<HashMap<NodeId, Arc<PerfCounters>>>,
    traces: Mutex<HashMap<NodeId, Arc<TraceCollector>>>,
    metrics: Mutex<HashMap<NodeId, Arc<Metrics>>>,
    /// The Transaction Manager of each node's latest boot, for
    /// [`Cluster::quiesce`].
    tms: Mutex<HashMap<NodeId, Weak<TransactionManager>>>,
    /// Durable anchor for versioned shard maps: service → (version,
    /// encoded map). Models the replicated cluster-configuration store a
    /// real deployment would keep the placement map in; like `disks` and
    /// `seg_tables` it survives node crashes, so a rebooted node's Name
    /// Server is re-seeded with the newest committed map and a stale old
    /// owner can never serve a migrated shard again.
    shard_maps: Mutex<HashMap<String, (u64, Vec<u8>)>>,
    config: ClusterConfig,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("net", &self.net).finish()
    }
}

impl Cluster {
    /// Creates a cluster with default configuration.
    pub fn new() -> Arc<Self> {
        Self::with_config(ClusterConfig::default())
    }

    /// Creates a cluster with explicit configuration.
    pub fn with_config(config: ClusterConfig) -> Arc<Self> {
        Arc::new(Self {
            net: Network::with_config(config.net.clone()),
            disks: DiskRegistry::new(),
            log_devices: Mutex::new(HashMap::new()),
            seg_tables: Mutex::new(HashMap::new()),
            incarnations: Mutex::new(HashMap::new()),
            perfs: Mutex::new(HashMap::new()),
            traces: Mutex::new(HashMap::new()),
            metrics: Mutex::new(HashMap::new()),
            tms: Mutex::new(HashMap::new()),
            shard_maps: Mutex::new(HashMap::new()),
            config,
        })
    }

    /// The shared network (for partitions and fault injection).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The cluster's disk registry. Fault-injection harnesses pre-register
    /// wrapped disks here (under `"{node}.{segment}"` names) before the
    /// segment is created, so every write goes through the wrapper.
    pub fn disks(&self) -> &Arc<DiskRegistry> {
        &self.disks
    }

    /// Pre-installs the log device `node` will use at its next boot
    /// (replacing any existing device). Fault-injection harnesses use this
    /// to slide a fault-injecting device under the write-ahead log.
    pub fn set_log_device(&self, id: NodeId, dev: Arc<dyn tabs_wal::LogDevice>) {
        self.log_devices.lock().insert(id, dev);
    }

    /// Commits a shard map to the cluster's durable map store iff
    /// `version` is strictly newer than the stored one. This is the
    /// linearization point of a shard-ownership change: migration engines
    /// call it *after* the shard's data is durably copied and *before*
    /// announcing the new map through the Name Servers, so a crash
    /// anywhere in between leaves either the old complete placement or
    /// the new complete placement, never a split. Returns whether the map
    /// was committed.
    pub fn commit_shard_map(&self, service: &str, version: u64, map: Vec<u8>) -> bool {
        let mut maps = self.shard_maps.lock();
        match maps.get(service) {
            Some((held, _)) if *held >= version => false,
            _ => {
                maps.insert(service.to_string(), (version, map));
                true
            }
        }
    }

    /// The newest durably committed `(version, encoded-map)` for
    /// `service`, if any.
    pub fn shard_map(&self, service: &str) -> Option<(u64, Vec<u8>)> {
        self.shard_maps.lock().get(service).cloned()
    }

    /// Per-node primitive counters (persistent across restarts so that
    /// benchmark measurements span crashes).
    pub fn perf(&self, id: NodeId) -> Arc<PerfCounters> {
        Arc::clone(self.perfs.lock().entry(id).or_default())
    }

    /// Per-node trace collector (created on first use, persistent across
    /// node restarts so one timeline can span crashes). Events are only
    /// fed into it when the cluster was configured with
    /// [`ClusterConfig::trace`].
    pub fn trace(&self, id: NodeId) -> Arc<TraceCollector> {
        Arc::clone(
            self.traces
                .lock()
                .entry(id)
                .or_insert_with(|| TraceCollector::new(id, tabs_obs::DEFAULT_TRACE_CAPACITY)),
        )
    }

    /// Per-node metric registry, wrapping the node's [`PerfCounters`] so
    /// the nine Table 5-1 primitive counters stay the single source of
    /// truth.
    pub fn metrics(&self, id: NodeId) -> Arc<Metrics> {
        let perf = self.perf(id);
        Arc::clone(self.metrics.lock().entry(id).or_insert_with(|| Metrics::new(perf)))
    }

    /// A merged, causally ordered timeline over every node traced so far.
    pub fn timeline(&self) -> Timeline {
        let collectors: Vec<Arc<TraceCollector>> = self.traces.lock().values().cloned().collect();
        Timeline::from_collectors(&collectors)
    }

    /// Waits until every booted node's phase-2 chaser has nothing pending
    /// (see [`TransactionManager::await_phase2`]); returns whether that
    /// happened within `timeout`.
    ///
    /// A distributed commit is acknowledged to its caller at the commit
    /// point, while the participants are still applying the decision. Code
    /// that reads participant-side state right after `end_transaction` —
    /// counters, lock tables, logs, trace positions — calls this first, so
    /// every decided transaction has been applied and acknowledged
    /// cluster-wide. Crashed nodes hold no pending chases.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let tms: Vec<_> = self.tms.lock().values().filter_map(Weak::upgrade).collect();
        tms.iter().all(|tm| tm.await_phase2(deadline.saturating_duration_since(Instant::now())))
    }

    /// Aggregated counter snapshot across all nodes ever booted.
    pub fn perf_all(&self) -> tabs_kernel::PerfSnapshot {
        let perfs = self.perfs.lock();
        let mut total = tabs_kernel::PerfSnapshot::default();
        for p in perfs.values() {
            total = total.plus(&p.snapshot());
        }
        total
    }

    /// Boots (or re-boots) a node. After booting, register segments and
    /// data servers, then call [`Node::recover`] before serving requests.
    pub fn boot_node(self: &Arc<Self>, id: NodeId) -> Node {
        let incarnation = {
            let mut inc = self.incarnations.lock();
            let v = inc.entry(id).or_insert(0);
            *v += 1;
            *v
        };
        let perf = self.perf(id);
        let kernel = Kernel::with_counters_epoch(id, Arc::clone(&perf), incarnation);
        let pool = BufferPool::new(self.config.pool_pages, Arc::clone(&perf));
        let log_device = {
            let mut devs = self.log_devices.lock();
            match devs.get(&id) {
                Some(d) => Arc::clone(d),
                None => {
                    let dev: Arc<dyn tabs_wal::LogDevice> = match &self.config.storage_dir {
                        Some(dir) => {
                            std::fs::create_dir_all(dir).expect("storage dir");
                            tabs_wal::FileLogDevice::open(
                                &dir.join(format!("{id}.log")),
                                self.config.log_capacity,
                            )
                            .expect("log file")
                        }
                        None => tabs_wal::MemLogDevice::new(self.config.log_capacity),
                    };
                    devs.insert(id, Arc::clone(&dev));
                    dev
                }
            }
        };
        let log =
            tabs_wal::LogManager::open(log_device, Arc::clone(&perf)).expect("log device scan");
        if let Some(gc) = self.config.group_commit {
            log.set_group_commit(Some(gc));
            let metrics = self.metrics(id);
            log.set_group_metrics(
                metrics.counter("wal.group.batches"),
                metrics.counter("wal.group.batched_commits"),
            );
        }
        let rm = RecoveryManager::new(id, log, Arc::clone(&pool), Arc::clone(&perf));
        pool.set_gate(rm.gate());
        let tm = TransactionManager::new(id, incarnation, Arc::clone(&rm), Arc::clone(&perf));
        if let Some(policy) = self.config.replication {
            tm.set_replication(policy);
            let metrics = self.metrics(id);
            tm.set_replication_metrics(
                metrics.counter("tm.rep.quorum_commits"),
                metrics.counter("tm.rep.acks_abandoned"),
            );
        }
        if self.config.deadlines.is_some() {
            tm.set_deadline_metrics(self.metrics(id).counter("deadline.expired"));
        }
        {
            // The commit paths taken are visible in the registry (1PC
            // commits, read-only votes), and so is the background half of
            // commit: what the chaser re-sent, what it gave up on, what it
            // owes.
            let metrics = self.metrics(id);
            tm.set_fastpath_metrics(
                metrics.counter("tm.commit.1pc"),
                metrics.counter("tm.prepare.readonly"),
            );
            tm.set_phase2_metrics(
                metrics.counter("tm.phase2.retransmits"),
                metrics.counter("tm.phase2.expired"),
                metrics.counter("tm.phase2.pending"),
            );
        }
        self.tms.lock().insert(id, Arc::downgrade(&tm));
        let ns = NameServer::new(id);
        // Seed the fresh Name Server from the durable map store: a node
        // that crashed mid-migration reboots already knowing the newest
        // committed shard placement, so it fences itself off shards it
        // lost while down instead of serving stale data.
        for (service, (version, map)) in self.shard_maps.lock().iter() {
            ns.adopt_map(service, *version, map.clone());
        }
        let endpoint = self.net.attach(id, Arc::clone(&perf));
        // Datagrams dropped on their way to this node (loss, partitions,
        // chaos schedules, or dying with a detached inbox) are visible in
        // the node's metric registry.
        self.net.install_drop_counter(id, self.metrics(id).counter("net.datagram.dropped"));
        let trace = self.config.trace.then(|| self.trace(id));
        if let Some(t) = &trace {
            // Wire every layer's hook to the one per-node collector: the
            // kernel pager and port space, the write-ahead log (via the
            // Recovery Manager), the commit protocol, and the wire.
            let bridge = KernelTraceBridge::new(Arc::clone(t));
            kernel.set_trace(bridge.clone());
            pool.set_trace(bridge);
            rm.set_trace(Arc::clone(t));
            tm.set_trace(Arc::clone(t));
            endpoint.set_trace(Arc::clone(t));
        }
        let detect = self.config.detect.then(|| {
            let d = Detector::new(id, Arc::clone(&tm) as _, DetectConfig::default());
            if let Some(t) = &trace {
                d.set_trace(Arc::clone(t));
            }
            d
        });
        let fd = self.config.heartbeat.map(|hb| {
            let f = FailureDetector::new(id, hb);
            if let Some(t) = &trace {
                f.set_trace(Arc::clone(t));
            }
            // Watch every node currently on the wire; nodes that boot
            // later are picked up from their first heartbeat.
            for peer in self.net.attached_nodes() {
                f.watch(peer);
            }
            // With a detector present, in-doubt transactions resolve
            // cooperatively instead of waiting out retransmit time-outs.
            tm.set_cooperative_termination(true);
            f
        });
        if incarnation > 1 {
            // A reboot on the same durable disks: make the rejoin visible
            // in the timeline (the epoch bump keeps new Tids unique).
            if let Some(t) = &trace {
                t.record(Tid::NULL, TraceEvent::NodeRejoin { node: id, incarnation });
            }
        }
        let cm = CommManager::start_full(
            kernel.clone(),
            endpoint,
            Arc::clone(&tm),
            Arc::clone(&ns),
            detect.clone(),
            fd.clone(),
        );
        {
            // Session receive-path accounting: frames relayed without a
            // payload copy vs. owned-decode fallbacks.
            let metrics = self.metrics(id);
            cm.set_rx_metrics(
                metrics.counter("cm.session.rx.zero_copy"),
                metrics.counter("cm.session.rx.fallback"),
            );
        }
        if let Some(d) = &detect {
            d.start(&kernel);
        }
        if let Some(f) = &fd {
            f.start(&kernel);
        }
        Node {
            id,
            kernel,
            pool,
            rm,
            tm,
            ns,
            cm,
            detect,
            fd,
            trace,
            retry_budget: RetryBudget::new(100),
            cluster: Arc::clone(self),
        }
    }

    /// Detaches a node from the network without orderly shutdown (used
    /// together with [`Node::crash`]).
    pub fn detach(&self, id: NodeId) {
        self.net.detach(id);
    }
}

/// One booted TABS node: the Accent kernel plus the four TABS system
/// components of Figure 3-1.
pub struct Node {
    /// Node identity.
    pub id: NodeId,
    /// The Accent-kernel emulation.
    pub kernel: Kernel,
    /// The buffer pool over this node's recoverable segments.
    pub pool: Arc<BufferPool>,
    /// Recovery Manager.
    pub rm: Arc<RecoveryManager>,
    /// Transaction Manager.
    pub tm: Arc<TransactionManager>,
    /// Name Server.
    pub ns: Arc<NameServer>,
    /// Communication Manager.
    pub cm: Arc<CommManager>,
    detect: Option<Arc<Detector>>,
    fd: Option<Arc<FailureDetector>>,
    trace: Option<Arc<TraceCollector>>,
    /// The node-wide retry token bucket every [`Node::app`] handle (and
    /// through them the shard routers) draws from: one bounded retry
    /// budget per node, not one per call path.
    retry_budget: Arc<RetryBudget>,
    cluster: Arc<Cluster>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node").field("id", &self.id).finish()
    }
}

impl Node {
    /// Creates (or re-opens after a crash) a named recoverable segment of
    /// `pages` pages, backed by a disk that survives crashes.
    pub fn add_segment(&self, name: &str, pages: u32) -> SegmentId {
        let index = {
            let mut tables = self.cluster.seg_tables.lock();
            let table = tables.entry(self.id).or_default();
            let next = table.len() as u32;
            let entry = table.entry(name.to_string()).or_insert((next, pages));
            assert_eq!(entry.1, pages, "segment {name} re-opened with a different size");
            entry.0
        };
        let id = SegmentId { node: self.id, index };
        let disk_name = format!("{}.{}", self.id, name);
        let disk = match &self.cluster.config.storage_dir {
            None => self.cluster.disks.get_or_create_mem(&disk_name, u64::from(pages)),
            Some(dir) => match self.cluster.disks.get(&disk_name) {
                Some(d) => d,
                None => {
                    std::fs::create_dir_all(dir).expect("storage dir");
                    let path = dir.join(format!("{disk_name}.disk"));
                    let d: std::sync::Arc<dyn tabs_kernel::Disk> = if path.exists() {
                        tabs_kernel::FileDisk::open(&path).expect("open disk")
                    } else {
                        tabs_kernel::FileDisk::create(&path, u64::from(pages)).expect("create disk")
                    };
                    self.cluster.disks.insert(&disk_name, std::sync::Arc::clone(&d));
                    d
                }
            },
        };
        self.pool
            .register_segment(SegmentSpec {
                id,
                name: name.to_string(),
                disk,
                base_sector: 0,
                pages,
            })
            .expect("segment registration");
        id
    }

    /// This node's trace collector, when the cluster traces.
    pub fn trace(&self) -> Option<&Arc<TraceCollector>> {
        self.trace.as_ref()
    }

    /// The cluster this node belongs to — its durable cluster-wide
    /// facilities (disks, segment tables, the shard-map store).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// This node's deadlock detector, when the cluster detects.
    pub fn detector(&self) -> Option<&Arc<Detector>> {
        self.detect.as_ref()
    }

    /// This node's failure detector, when the cluster heartbeats.
    pub fn failure_detector(&self) -> Option<&Arc<FailureDetector>> {
        self.fd.as_ref()
    }

    /// The failure detector's per-node reachability view: every watched
    /// peer and whether it currently looks reachable (empty without a
    /// failure detector).
    pub fn reachability(&self) -> Vec<(NodeId, bool)> {
        self.fd.as_ref().map(|f| f.reachability()).unwrap_or_default()
    }

    /// Dependencies handed to data servers built on the server library.
    pub fn deps(&self) -> ServerDeps {
        let mut deps =
            ServerDeps::new(self.kernel.clone(), Arc::clone(&self.rm), Arc::clone(&self.tm));
        if let Some(t) = &self.trace {
            deps = deps.with_trace(Arc::clone(t));
        }
        if let Some(d) = &self.detect {
            deps = deps.with_detect(Arc::clone(d));
        }
        if self.cluster.config.admission_limit.is_some() || self.cluster.config.deadlines.is_some()
        {
            let metrics = self.cluster.metrics(self.id);
            deps = deps.with_admission_metrics(
                metrics.counter("admission.shed"),
                metrics.counter("deadline.expired"),
            );
        }
        deps
    }

    /// A [`ServerConfig`] for a data server on this node, honouring the
    /// cluster's configured lock time-out and admission limit.
    pub fn server_config(&self, name: &str, segment: SegmentId) -> ServerConfig {
        let mut config =
            ServerConfig::new(name, segment).with_lock_timeout(self.cluster.config.lock_timeout);
        if let Some(limit) = self.cluster.config.admission_limit {
            config = config.with_admission_limit(limit);
        }
        config
    }

    /// An application handle (Table 3-2 interface), wired to the node's
    /// shared retry budget and — when the cluster configures deadlines —
    /// the end-to-end deadline policy.
    pub fn app(&self) -> AppHandle {
        let mut app = AppHandle::new(self.kernel.clone(), Arc::clone(&self.tm))
            .with_retry_budget(Arc::clone(&self.retry_budget));
        if let Some(policy) = self.cluster.config.deadlines {
            app = app.with_deadlines(policy);
        }
        if self.cluster.config.admission_limit.is_some() || self.cluster.config.deadlines.is_some()
        {
            app = app.with_retry_metrics(
                self.cluster.metrics(self.id).counter("retry.budget_exhausted"),
            );
        }
        app
    }

    /// Runs crash recovery: must be called after all data servers have
    /// registered their segments and recovery handlers, before requests
    /// are accepted (the §3.1.1 startup order).
    pub fn recover(&self) -> Result<RecoveryReport, tabs_rm::RmError> {
        let report = self.rm.recover()?;
        self.tm.load_recovery(&report.committed, &report.aborted, &report.in_doubt);
        Ok(report)
    }

    /// Registers a data server's object with the Name Server.
    pub fn register_server(
        &self,
        server: &DataServer,
        name: &str,
        type_name: &str,
        object: ObjectId,
    ) {
        self.ns.register(name, type_name, server.port_id(), object);
    }

    /// Resolves a name to `(send-right, object)` pairs, transparently
    /// proxying remote ports through the Communication Manager.
    pub fn resolve(
        &self,
        name: &str,
        desired: usize,
        max_wait: Duration,
    ) -> Vec<(tabs_kernel::SendRight, ObjectId)> {
        self.ns
            .lookup(name, desired, max_wait)
            .into_iter()
            .filter_map(|e| self.cm.resolve_port(e.port).map(|sr| (sr, e.object)))
            .collect()
    }

    /// Takes a checkpoint: the Transaction Manager supplies live
    /// transaction states, the Recovery Manager writes the record
    /// (§3.2.2).
    pub fn checkpoint(&self) -> Result<(), tabs_rm::RmError> {
        self.rm.checkpoint(self.tm.active_states())?;
        Ok(())
    }

    /// Simulates a node crash: the node vanishes from the network, every
    /// process (and the phase-2 chaser) wakes and exits, and all volatile
    /// state (buffer pool frames, un-forced log records, lock tables,
    /// transaction registry, decisions still being chased) is lost.
    /// Non-volatile storage survives in the cluster.
    pub fn crash(self) {
        self.cluster.net.detach(self.id);
        self.kernel.shutdown();
        self.kernel.join_all();
        self.tm.stop_phase2();
        self.pool.invalidate_volatile();
        // Local registrations die with the node; permanent names come back
        // when servers re-register after reboot.
        self.ns.clear_local();
    }

    /// Orderly shutdown (flush + crash); used at the end of examples.
    pub fn shutdown(self) {
        let _ = self.pool.flush_all();
        let _ = self.rm.force(None);
        self.crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabs_lock::StdMode;
    use tabs_proto::ServerError;

    /// Builds the simplest possible cell server on `node`.
    fn cell_server(node: &Node, name: &str) -> DataServer {
        let seg = node.add_segment(&format!("{name}-seg"), 16);
        let ds = DataServer::new(&node.deps(), ServerConfig::new(name, seg)).unwrap();
        ds.accept_requests(Arc::new(|ctx, opcode, args| {
            let idx = u64::from_le_bytes(args[..8].try_into().unwrap());
            let obj = ctx.create_object_id(idx * 8, 8);
            match opcode {
                1 => {
                    ctx.lock_object(obj, StdMode::Shared)?;
                    ctx.read_object(obj)
                }
                2 => {
                    ctx.lock_object(obj, StdMode::Exclusive)?;
                    ctx.pin_and_buffer(obj)?;
                    ctx.write_raw(obj, &args[8..16])?;
                    ctx.log_and_unpin(obj)?;
                    Ok(vec![])
                }
                _ => Err(ServerError::BadRequest("opcode".into())),
            }
        }));
        node.register_server(&ds, name, "cells", ObjectId::new(seg, 0, 8));
        ds
    }

    fn get(app: &AppHandle, s: &tabs_kernel::SendRight, tid: Tid, idx: u64) -> u64 {
        let out = app.call(s, tid, 1, idx.to_le_bytes().to_vec()).unwrap();
        u64::from_le_bytes(out[..8].try_into().unwrap())
    }

    fn set(app: &AppHandle, s: &tabs_kernel::SendRight, tid: Tid, idx: u64, v: u64) {
        let mut args = idx.to_le_bytes().to_vec();
        args.extend_from_slice(&v.to_le_bytes());
        app.call(s, tid, 2, args).unwrap();
    }

    #[test]
    fn single_node_lifecycle() {
        let cluster = Cluster::new();
        let node = cluster.boot_node(NodeId(1));
        let ds = cell_server(&node, "cells");
        node.recover().unwrap();
        let app = node.app();
        let s = ds.send_right();
        let tid = app.begin_transaction(Tid::NULL).unwrap();
        set(&app, &s, tid, 0, 41);
        assert_eq!(get(&app, &s, tid, 0), 41);
        assert!(app.end_transaction(tid).unwrap().is_committed());
        node.shutdown();
    }

    #[test]
    fn crash_and_recover_node() {
        let cluster = Cluster::new();
        let node = cluster.boot_node(NodeId(1));
        let ds = cell_server(&node, "cells");
        node.recover().unwrap();
        let app = node.app();
        let s = ds.send_right();

        // Commit 7 → survives; write 9 uncommitted → rolled back.
        let t1 = app.begin_transaction(Tid::NULL).unwrap();
        set(&app, &s, t1, 0, 7);
        assert!(app.end_transaction(t1).unwrap().is_committed());
        let t2 = app.begin_transaction(Tid::NULL).unwrap();
        set(&app, &s, t2, 1, 9);
        node.rm.force(None).unwrap();

        node.crash();

        // Reboot: same segment table, recovery restores invariants.
        let node = cluster.boot_node(NodeId(1));
        let ds = cell_server(&node, "cells");
        let report = node.recover().unwrap();
        assert!(report.committed.contains(&t1));
        assert!(report.aborted.contains(&t2));
        let app = node.app();
        let s = ds.send_right();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        assert_eq!(get(&app, &s, t, 0), 7);
        assert_eq!(get(&app, &s, t, 1), 0);
        app.end_transaction(t).unwrap();
        node.shutdown();
    }

    #[test]
    fn two_node_distributed_write_transaction() {
        let cluster = Cluster::new();
        let n1 = cluster.boot_node(NodeId(1));
        let n2 = cluster.boot_node(NodeId(2));
        let ds1 = cell_server(&n1, "cells-a");
        let _ds2 = cell_server(&n2, "cells-b");
        n1.recover().unwrap();
        n2.recover().unwrap();

        // Node 1's application finds node 2's server by broadcast lookup.
        let remote = n1.resolve("cells-b", 1, Duration::from_secs(2));
        assert_eq!(remote.len(), 1);
        let (remote_s, _oid) = &remote[0];

        let app = n1.app();
        let tid = app.begin_transaction(Tid::NULL).unwrap();
        set(&app, &ds1.send_right(), tid, 0, 100);
        set(&app, remote_s, tid, 0, 200);
        assert!(app.end_transaction(tid).unwrap().is_committed());
        assert!(cluster.quiesce(Duration::from_secs(5)));

        // Both nodes see committed values in fresh transactions.
        let t2 = app.begin_transaction(Tid::NULL).unwrap();
        assert_eq!(get(&app, &ds1.send_right(), t2, 0), 100);
        assert_eq!(get(&app, remote_s, t2, 0), 200);
        app.end_transaction(t2).unwrap();

        // Node 2's log holds prepare + commit records (it was a 2PC
        // participant).
        let recs = n2.rm.log().durable_entries();
        assert!(recs.iter().any(|e| matches!(e.record, tabs_wal::LogRecord::Prepare { .. })));
        assert!(recs.iter().any(|e| matches!(e.record, tabs_wal::LogRecord::Commit { .. })));

        n1.shutdown();
        n2.shutdown();
    }

    #[test]
    fn distributed_abort_rolls_back_remote_work() {
        let cluster = Cluster::new();
        let n1 = cluster.boot_node(NodeId(1));
        let n2 = cluster.boot_node(NodeId(2));
        let ds1 = cell_server(&n1, "a");
        let ds2 = cell_server(&n2, "b");
        n1.recover().unwrap();
        n2.recover().unwrap();
        let remote = n1.resolve("b", 1, Duration::from_secs(2));
        let (remote_s, _) = &remote[0];

        let app = n1.app();
        let tid = app.begin_transaction(Tid::NULL).unwrap();
        set(&app, &ds1.send_right(), tid, 0, 1);
        set(&app, remote_s, tid, 0, 2);
        app.abort_transaction(tid).unwrap();

        // Remote value rolled back (checked in a fresh transaction once
        // the abort propagates and releases locks).
        let app2 = n2.app();
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        loop {
            let t = app2.begin_transaction(Tid::NULL).unwrap();
            let out = app2.call(&ds2.send_right(), t, 1, 0u64.to_le_bytes().to_vec());
            let done = match out {
                Ok(bytes) => {
                    let v = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                    assert_eq!(v, 0);
                    true
                }
                Err(_) => false, // still locked; abort in flight
            };
            let _ = app2.end_transaction(t);
            if done {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "abort never landed");
            std::thread::sleep(Duration::from_millis(20));
        }
        n1.shutdown();
        n2.shutdown();
    }

    #[test]
    fn participant_crash_before_decision_recovers_in_doubt_and_resolves() {
        let cluster = Cluster::new();
        let n1 = cluster.boot_node(NodeId(1));
        let n2 = cluster.boot_node(NodeId(2));
        let _ds1 = cell_server(&n1, "a");
        let ds2 = cell_server(&n2, "b");
        n1.recover().unwrap();
        n2.recover().unwrap();
        let remote = n1.resolve("b", 1, Duration::from_secs(2));
        let (remote_s, _) = &remote[0];

        let app = n1.app();
        let tid = app.begin_transaction(Tid::NULL).unwrap();
        set(&app, remote_s, tid, 0, 55);
        // Simulate: node 2 prepared (force prepare record directly), then
        // crashed before any decision arrived.
        n2.rm.log_begin(tid, Tid::NULL);
        n2.rm.log_prepare(tid, NodeId(1)).unwrap();
        drop(ds2);
        n2.crash();

        // Meanwhile the coordinator resolves the transaction: for the
        // test we record the outcome as committed on node 1 directly (its
        // prepare round could not reach the crashed node 2).
        n1.rm.log_begin(tid, Tid::NULL);
        n1.rm.log_commit(tid).unwrap();
        n1.tm.load_recovery(&[tid], &[], &[]);

        // Reboot node 2: recovery finds the in-doubt transaction, asks
        // node 1, and commits it.
        let n2 = cluster.boot_node(NodeId(2));
        let _ds2 = cell_server(&n2, "b");
        let report = n2.recover().unwrap();
        assert_eq!(report.in_doubt.len(), 1);
        assert_eq!(report.in_doubt[0].0, tid);
        // Wait for the inquiry to resolve.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while n2.tm.phase(tid) != Some(tabs_tm::TxPhase::Committed) {
            assert!(std::time::Instant::now() < deadline, "in-doubt never resolved");
            std::thread::sleep(Duration::from_millis(20));
        }
        n1.shutdown();
        n2.shutdown();
    }

    #[test]
    fn failure_detector_suspects_crash_and_clears_on_rejoin() {
        let hb = HeartbeatConfig {
            interval: Duration::from_millis(5),
            suspect_after: 3,
            probe_cap: Duration::from_millis(40),
        };
        let cluster = Cluster::with_config(ClusterConfig::default().heartbeat(hb).trace(true));
        let n1 = cluster.boot_node(NodeId(1));
        let n2 = cluster.boot_node(NodeId(2));
        let wait_for = |pred: &dyn Fn() -> bool, what: &str| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !pred() {
                assert!(std::time::Instant::now() < deadline, "timed out: {what}");
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        // Heartbeats flow: node 1 sees node 2 as reachable.
        wait_for(&|| n1.reachability().contains(&(NodeId(2), true)), "peer seen");
        n2.crash();
        wait_for(
            &|| n1.failure_detector().unwrap().is_suspected(NodeId(2)),
            "crashed peer suspected",
        );
        assert!(!n1.cm.is_reachable(NodeId(2)));
        // Reboot on the same durable state: heartbeats resume, suspicion
        // clears without any help from node 1.
        let n2 = cluster.boot_node(NodeId(2));
        wait_for(
            &|| !n1.failure_detector().unwrap().is_suspected(NodeId(2)),
            "rebooted peer reachable again",
        );
        // The rejoin (incarnation 2) is visible in the timeline.
        assert!(cluster.timeline().records().iter().any(|r| matches!(
            r.event,
            TraceEvent::NodeRejoin { node: NodeId(2), incarnation: 2 }
        )));
        n1.shutdown();
        n2.shutdown();
    }

    #[test]
    fn checkpoint_smoke() {
        let cluster = Cluster::new();
        let node = cluster.boot_node(NodeId(1));
        let ds = cell_server(&node, "cells");
        node.recover().unwrap();
        let app = node.app();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        set(&app, &ds.send_right(), t, 0, 5);
        node.checkpoint().unwrap();
        assert!(app.end_transaction(t).unwrap().is_committed());
        // The checkpoint recorded the in-flight transaction.
        let has_ckpt = node
            .rm
            .log()
            .durable_entries()
            .iter()
            .any(|e| matches!(&e.record, tabs_wal::LogRecord::Checkpoint { active, .. } if active.iter().any(|(x, _)| *x == t)));
        assert!(has_ckpt);
        node.shutdown();
    }

    #[test]
    fn file_backed_cluster_survives_crash() {
        let dir = std::env::temp_dir().join(format!("tabs-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster = Cluster::with_config(ClusterConfig::default().storage_dir(dir.clone()));
        let node = cluster.boot_node(NodeId(1));
        let ds = cell_server(&node, "cells");
        node.recover().unwrap();
        let app = node.app();
        let s = ds.send_right();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        set(&app, &s, t, 0, 321);
        assert!(app.end_transaction(t).unwrap().is_committed());
        node.crash();

        // Reboot against the same on-disk files.
        let node = cluster.boot_node(NodeId(1));
        let ds = cell_server(&node, "cells");
        node.recover().unwrap();
        let app = node.app();
        let s = ds.send_right();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        assert_eq!(get(&app, &s, t, 0), 321);
        app.end_transaction(t).unwrap();
        node.shutdown();
        // The log and segment files really exist on disk.
        assert!(dir.join("n1.log").exists());
        assert!(dir.join("n1.cells-seg.disk").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_perf_aggation_spans_nodes() {
        let cluster = Cluster::new();
        let n1 = cluster.boot_node(NodeId(1));
        let n2 = cluster.boot_node(NodeId(2));
        let ds1 = cell_server(&n1, "x");
        n1.recover().unwrap();
        n2.recover().unwrap();
        let app = n1.app();
        let before = cluster.perf_all();
        let t = app.begin_transaction(Tid::NULL).unwrap();
        set(&app, &ds1.send_right(), t, 0, 1);
        app.end_transaction(t).unwrap();
        let delta = cluster.perf_all().since(&before);
        assert!(delta.get(tabs_kernel::PrimitiveOp::DataServerCall) >= 1);
        assert!(delta.get(tabs_kernel::PrimitiveOp::StableStorageWrite) >= 1);
        n1.shutdown();
        n2.shutdown();
    }
}
