//! The Transaction Manager (§3.2.3).
//!
//! "The Transaction Manager's major responsibilities are implementing
//! commit protocols and allocating globally unique transaction
//! identifiers. Application processes and data servers send the Transaction
//! Manager messages to begin a transaction, to attempt to commit a
//! transaction, or to force a transaction to be aborted. The
//! tree-structured two-phase commit protocol used by the Transaction
//! Manager is based on a spanning tree where a node A is a parent of
//! another node B if and only if A were the first node to invoke an
//! operation on behalf of the transaction on B."
//!
//! Subtransactions (§2.1.3): "a subtransaction is not committed until its
//! top-level parent transaction commits, but a subtransaction can abort
//! without causing its parent transaction to abort." On subtransaction
//! commit the child's locks and enlistments transfer to the parent; its
//! tid joins the commit's *merged* set so remote participants recognize
//! its log records and locks at prepare time.
//!
//! Commit acknowledgement (§5.3, "Improved TABS Architecture"): a
//! distributed commit returns to its caller at the commit point — the
//! forced commit record — after sending each `Commit` datagram once;
//! delivery of the decision is the [`phase2`] chaser's job.

mod phase2;

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use tabs_kernel::crash::CrashHookSlot;
use tabs_kernel::{crash_point, CrashHooks, NodeId, PerfCounters, PrimitiveOp, Tid, WorkerPool};
use tabs_obs::{Counter, TraceCollector, TraceEvent, Vote as ObsVote};
use tabs_proto::{CommitMsg, Deadline};
use tabs_rm::RecoveryManager;
use tabs_wal::TxState;

/// Errors from transaction management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TmError {
    /// Unknown or already-terminated transaction.
    Unknown(Tid),
    /// The transaction was already aborted (`TransactionIsAborted`).
    Aborted(Tid),
    /// Recovery-manager failure on the commit/abort path.
    Rm(String),
    /// A distributed commit could not gather votes in time.
    VoteTimeout(Tid),
}

impl std::fmt::Display for TmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TmError::Unknown(t) => write!(f, "unknown transaction {t}"),
            TmError::Aborted(t) => write!(f, "transaction {t} is aborted"),
            TmError::Rm(e) => write!(f, "recovery manager failure: {e}"),
            TmError::VoteTimeout(t) => write!(f, "vote collection timed out for {t}"),
        }
    }
}

impl std::error::Error for TmError {}

/// A local data server's hooks into transaction termination.
///
/// A data server enlists once per transaction ("sent by a data server the
/// first time it is asked to perform an operation on behalf of a particular
/// transaction; doing so enables the Transaction Manager to know which
/// servers it must inform when the transaction is being terminated").
pub trait Participant: Send + Sync {
    /// Phase 1: flush any buffered log data for `tid` and report whether
    /// the server performed updates on its behalf (false = read-only).
    fn prepare(&self, tid: Tid) -> Result<bool, String>;

    /// The transaction is resolved: release `tid`'s locks and clean up.
    fn finish(&self, tid: Tid, committed: bool);

    /// A subtransaction committed into its parent: transfer its locks.
    fn commit_subtransaction(&self, child: Tid, parent: Tid);
}

/// Outbound datagram path and spanning-tree queries, supplied by the
/// Communication Manager ("the information about a node's relation to the
/// nodes directly above and below it in the spanning tree is kept by its
/// Communication Manager", §3.2.3).
pub trait CommitTransport: Send + Sync {
    /// Sends a two-phase-commit datagram to `to`.
    fn send(&self, to: NodeId, msg: CommitMsg);

    /// Commit-tree children recorded for `tid`.
    fn children(&self, tid: Tid) -> Vec<NodeId>;

    /// Commit-tree parent, when `tid`'s work here was remotely initiated.
    fn parent(&self, tid: Tid) -> Option<NodeId>;

    /// Best-effort broadcast of a commit datagram to every other node
    /// (cooperative termination queries). Default: no peers.
    fn broadcast(&self, _msg: CommitMsg) {}

    /// Whether `to` is currently suspected unreachable by the failure
    /// detector. Default: never (no detector wired).
    fn unreachable(&self, _to: NodeId) -> bool {
        false
    }

    /// Whether every operation this node sent to `child` on behalf of
    /// `tid` targeted a replica-scoped port — a server whose writes the
    /// child's replica group fans out to every member. Only then may a
    /// quorum waiver stand in for the child's missing vote: its prepared
    /// state is held by the surviving members. A child with work outside
    /// its group (an unreplicated server it happens to host) must vote
    /// for itself, or the commit would silently drop those writes. A
    /// child with no recorded work for `tid` is vacuously replica-only.
    /// Default: `false` — transports that do not track call footprints
    /// disable the waiver entirely.
    fn replica_only(&self, _tid: Tid, _child: NodeId) -> bool {
        false
    }
}

/// A transport for single-node configurations: no remote sites ever.
#[derive(Debug, Default)]
pub struct NullTransport;

impl CommitTransport for NullTransport {
    fn send(&self, _to: NodeId, _msg: CommitMsg) {}
    fn children(&self, _tid: Tid) -> Vec<NodeId> {
        Vec::new()
    }
    fn parent(&self, _tid: Tid) -> Option<NodeId> {
        None
    }
}

/// Lifecycle phase of a transaction known to this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxPhase {
    /// Running normally.
    Running,
    /// Voted yes, awaiting the coordinator's decision (in doubt).
    Prepared,
    /// Committed (top-level, or subtransaction merged into its parent).
    Committed,
    /// Aborted.
    Aborted,
}

/// Incoming vote bookkeeping for an in-progress distributed commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vote {
    Yes,
    ReadOnly,
    No,
}

struct TxInfo {
    parent: Tid,
    phase: TxPhase,
    /// Local servers enlisted, keyed by server name.
    participants: HashMap<String, Arc<dyn Participant>>,
    /// This tid plus every committed-subtransaction descendant.
    merged: Vec<Tid>,
    /// Votes received from commit-tree children (during phase 1).
    votes: HashMap<NodeId, Vote>,
    /// Children that voted yes (need phase 2).
    yes_children: Vec<NodeId>,
    /// Parent node when this transaction's work here is remote-initiated.
    remote_parent: Option<NodeId>,
    /// The coordinator has every vote and is writing (or has written) the
    /// commit record: from here on an asynchronous abort — a suspicion
    /// callback, a deadlock victim notice — must lose, or it would undo a
    /// transaction whose commit is being acknowledged.
    deciding: bool,
    /// An abort has marked this transaction `Aborted` and is still
    /// applying its undo and releasing its locks. Nobody else releases
    /// anything of the transaction until this clears (waiters sleep on
    /// the TM's `cond`): a lock released between the mark and the undo
    /// would let a waiter read — and write over — a value the undo is
    /// about to restore.
    undoing: bool,
}

impl TxInfo {
    fn new(parent: Tid, tid: Tid) -> Self {
        Self {
            parent,
            phase: TxPhase::Running,
            participants: HashMap::new(),
            merged: vec![tid],
            votes: HashMap::new(),
            yes_children: Vec::new(),
            remote_parent: None,
            deciding: false,
            undoing: false,
        }
    }
}

/// Two-phase-commit timing knobs.
///
/// Defaults match the paper-era behaviour; fault-injection harnesses
/// shorten them so "coordinator presumed dead" scenarios resolve in
/// milliseconds instead of seconds.
#[derive(Debug, Clone, Copy)]
pub struct TmTimeouts {
    /// Retransmission interval for unacknowledged commit datagrams.
    pub retransmit: Duration,
    /// Total time to wait for votes before presuming failure and aborting.
    pub vote_deadline: Duration,
    /// Total time the phase-2 chaser keeps retransmitting a decision
    /// before giving up on its acknowledgements.
    pub ack_deadline: Duration,
}

impl Default for TmTimeouts {
    fn default() -> Self {
        Self {
            retransmit: Duration::from_millis(100),
            vote_deadline: Duration::from_secs(5),
            ack_deadline: Duration::from_secs(5),
        }
    }
}

/// How the Transaction Manager treats participants that belong to a
/// declared replica set (a *quorum group*, registered with
/// [`TransactionManager::set_quorum_groups`]).
///
/// Both switches default off, which preserves the seed protocol byte for
/// byte: every child must vote and every yes-voter must acknowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicationPolicy {
    /// Phase 1: a missing vote from a suspected-unreachable group member
    /// is waived once a majority of its group is durably prepared (the
    /// group votes yes as one logical participant).
    pub majority_vote: bool,
    /// Phase 2: stop chasing acknowledgements from suspected-unreachable
    /// group members (a surviving majority already has the decision; the
    /// dead member learns it from recovery or cooperative termination).
    pub abandon_dead_acks: bool,
}

impl ReplicationPolicy {
    /// Both replication integrations enabled.
    pub fn enabled() -> Self {
        Self { majority_vote: true, abandon_dead_acks: true }
    }
}

/// Crash-points the Transaction Manager fires (see `tabs_kernel::crash`):
/// one per two-phase-commit state transition, plus the two sides of the
/// single-participant 1PC commit force.
pub const CRASH_POINTS: &[&str] = &[
    "tm.prepare.sent",
    "tm.vote.logged",
    "tm.commit.logged",
    "tm.ack.sent",
    "tm.1pc.before-force",
    "tm.1pc.after-force",
];

/// The Transaction Manager of one node.
pub struct TransactionManager {
    node: NodeId,
    incarnation: u32,
    seq: AtomicU64,
    rm: Arc<RecoveryManager>,
    transport: Mutex<Arc<dyn CommitTransport>>,
    inner: Mutex<HashMap<Tid, TxInfo>>,
    cond: Condvar,
    /// Durable outcomes remembered for coordinator inquiries (loaded from
    /// crash recovery, appended to at runtime).
    outcomes: Mutex<HashMap<Tid, bool>>,
    perf: Arc<PerfCounters>,
    trace: Mutex<Option<Arc<TraceCollector>>>,
    crash: CrashHookSlot,
    timeouts: Mutex<TmTimeouts>,
    /// Cooperative termination: on coordinator suspicion, in-doubt
    /// participants also query fellow participants for the outcome.
    cooperative: AtomicBool,
    /// Whether [`Self::load_recovery`] has replayed the durable log.
    /// Until then this node cannot *prove* an unknown transaction was
    /// never committed, so presumed-abort replies are withheld.
    recovered: AtomicBool,
    /// Tids with a live resolver thread (avoids duplicate resolvers when
    /// the watchdog and a suspicion callback race).
    resolving: Mutex<HashSet<Tid>>,
    /// Coroutine cache for inbound two-phase-commit datagrams that may
    /// block (log forces, lock waits): reuses parked workers instead of
    /// spawning a thread per `Prepare`/`Commit`/`Abort`.
    workers: Arc<WorkerPool>,
    /// `tm.commit.1pc`: single-participant one-phase commits taken.
    one_pc_commits: Mutex<Option<Counter>>,
    /// `tm.prepare.readonly`: read-only votes this participant sent.
    readonly_votes: Mutex<Option<Counter>>,
    /// Replica-set integration switches (both off = seed protocol).
    replication: Mutex<ReplicationPolicy>,
    /// Declared replica sets (each a node-level group that votes as one
    /// logical participant under [`ReplicationPolicy::majority_vote`]).
    quorum_groups: Mutex<Vec<Vec<NodeId>>>,
    /// `tm.rep.quorum_commits`: commits that waived a dead group member.
    quorum_commits: Mutex<Option<Counter>>,
    /// `tm.rep.acks_abandoned`: phase-2 acks abandoned to dead members.
    acks_abandoned: Mutex<Option<Counter>>,
    /// End-to-end deadlines registered per top-level transaction; the
    /// coordinator refuses to launch a commit it cannot finish in budget.
    deadlines: Mutex<HashMap<Tid, Deadline>>,
    /// `deadline.expired`: commits refused (aborted) for expired budget.
    deadline_expired: Mutex<Option<Counter>>,
    /// Decisions still owed an acknowledgement, and the one background
    /// thread that chases them (see [`phase2`]).
    phase2: Arc<phase2::Phase2>,
}

impl Drop for TransactionManager {
    fn drop(&mut self) {
        // May run on the chaser thread itself (it briefly holds a strong
        // reference per tick), so signal without joining.
        self.phase2.stop(false);
    }
}

impl std::fmt::Debug for TransactionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionManager")
            .field("node", &self.node)
            .field("incarnation", &self.incarnation)
            .finish()
    }
}

impl TransactionManager {
    /// Creates the Transaction Manager. `incarnation` must increase across
    /// node restarts so identifiers stay globally unique.
    pub fn new(
        node: NodeId,
        incarnation: u32,
        rm: Arc<RecoveryManager>,
        perf: Arc<PerfCounters>,
    ) -> Arc<Self> {
        let tm = Arc::new(Self {
            node,
            incarnation,
            seq: AtomicU64::new(1),
            rm,
            transport: Mutex::new(Arc::new(NullTransport)),
            inner: Mutex::new(HashMap::new()),
            cond: Condvar::new(),
            outcomes: Mutex::new(HashMap::new()),
            perf,
            trace: Mutex::new(None),
            crash: CrashHookSlot::new(None),
            timeouts: Mutex::new(TmTimeouts::default()),
            cooperative: AtomicBool::new(false),
            recovered: AtomicBool::new(false),
            resolving: Mutex::new(HashSet::new()),
            workers: WorkerPool::new(&format!("tm-{}", node.0)),
            one_pc_commits: Mutex::new(None),
            readonly_votes: Mutex::new(None),
            replication: Mutex::new(ReplicationPolicy::default()),
            quorum_groups: Mutex::new(Vec::new()),
            quorum_commits: Mutex::new(None),
            acks_abandoned: Mutex::new(None),
            deadlines: Mutex::new(HashMap::new()),
            deadline_expired: Mutex::new(None),
            phase2: Arc::default(),
        });
        phase2::Phase2::start(&tm);
        tm
    }

    /// Selects the replica-set policy. [`ReplicationPolicy::default`]
    /// (both switches off) restores the seed protocol.
    pub fn set_replication(&self, policy: ReplicationPolicy) {
        *self.replication.lock() = policy;
    }

    fn replication(&self) -> ReplicationPolicy {
        *self.replication.lock()
    }

    /// Registers the declared replica sets. Each group lists the nodes of
    /// one replica set (leader plus followers); under
    /// [`ReplicationPolicy::majority_vote`] the coordinator treats a group
    /// as a single logical participant that has voted yes once a majority
    /// of its members is durably prepared.
    pub fn set_quorum_groups(&self, groups: Vec<Vec<NodeId>>) {
        *self.quorum_groups.lock() = groups;
    }

    /// Appends one replica set to the declared quorum groups, so a node
    /// hosting several replicated services can register each set without
    /// stomping the others. Re-registering a group with the same
    /// membership (in any order — a leader handoff reorders the set
    /// without changing it) is a no-op.
    pub fn add_quorum_group(&self, group: Vec<NodeId>) {
        let same_members =
            |a: &[NodeId], b: &[NodeId]| a.len() == b.len() && a.iter().all(|m| b.contains(m));
        let mut groups = self.quorum_groups.lock();
        if !groups.iter().any(|g| same_members(g, &group)) {
            groups.push(group);
        }
    }

    /// The currently registered quorum groups (a copy).
    pub fn quorum_group_list(&self) -> Vec<Vec<NodeId>> {
        self.quorum_groups.lock().clone()
    }

    /// Wires the replication counters (`tm.rep.quorum_commits` and
    /// `tm.rep.acks_abandoned`).
    pub fn set_replication_metrics(&self, quorum_commits: Counter, acks_abandoned: Counter) {
        *self.quorum_commits.lock() = Some(quorum_commits);
        *self.acks_abandoned.lock() = Some(acks_abandoned);
    }

    /// Wires the `deadline.expired` counter (commits refused for budget).
    pub fn set_deadline_metrics(&self, expired: Counter) {
        *self.deadline_expired.lock() = Some(expired);
    }

    /// Registers the end-to-end deadline of `tid`. The coordinator will
    /// abort rather than launch a commit it cannot finish in budget; an
    /// unregistered transaction commits on the seed path unchanged.
    pub fn set_deadline(&self, tid: Tid, deadline: Deadline) {
        self.deadlines.lock().insert(tid, deadline);
    }

    /// The registered deadline of `tid`, if any.
    pub fn deadline(&self, tid: Tid) -> Option<Deadline> {
        self.deadlines.lock().get(&tid).copied()
    }

    /// Whether a missing vote from `child` can be waived: some registered
    /// group contains it and a majority of that group's members is
    /// already durably prepared here (voted yes/read-only, or is this
    /// coordinator itself, whose own commit record is the decision).
    ///
    /// This is the group-membership half of the waiver only. The caller
    /// must additionally confirm the child's *footprint* is confined to
    /// replica-scoped work ([`CommitTransport::replica_only`]): a group
    /// member that also did unreplicated work for the transaction has
    /// state no surviving replica holds, so its silence must abort.
    fn quorum_waivable(
        &self,
        child: NodeId,
        votes: &HashMap<NodeId, Vote>,
        groups: &[Vec<NodeId>],
    ) -> bool {
        groups.iter().any(|g| {
            g.contains(&child) && {
                let durable = g
                    .iter()
                    .filter(|m| {
                        **m == self.node
                            || matches!(votes.get(m), Some(Vote::Yes) | Some(Vote::ReadOnly))
                    })
                    .count();
                2 * durable > g.len()
            }
        })
    }

    /// Whether `node` belongs to any registered replica set.
    fn in_quorum_group(&self, node: NodeId) -> bool {
        self.quorum_groups.lock().iter().any(|g| g.contains(&node))
    }

    /// Wires the fast-path counters (`tm.commit.1pc` and
    /// `tm.prepare.readonly`); they tick on the 1PC branch and on each
    /// read-only vote.
    pub fn set_fastpath_metrics(&self, one_pc: Counter, read_only: Counter) {
        *self.one_pc_commits.lock() = Some(one_pc);
        *self.readonly_votes.lock() = Some(read_only);
    }

    /// Enables the cooperative termination protocol: in-doubt resolvers
    /// broadcast [`CommitMsg::OutcomeQuery`] to fellow participants in
    /// addition to inquiring at the coordinator, and
    /// [`Self::peer_suspected`] reacts to failure-detector suspicions.
    pub fn set_cooperative_termination(&self, on: bool) {
        self.cooperative.store(on, Ordering::Relaxed);
    }

    /// Replaces the two-phase-commit timing knobs.
    pub fn set_timeouts(&self, t: TmTimeouts) {
        *self.timeouts.lock() = t;
    }

    fn timeouts(&self) -> TmTimeouts {
        *self.timeouts.lock()
    }

    /// Installs crash-point hooks fired at the [`CRASH_POINTS`]
    /// two-phase-commit state transitions.
    pub fn set_crash_hooks(&self, hooks: Arc<dyn CrashHooks>) {
        *self.crash.lock() = Some(hooks);
    }

    /// Installs the Communication Manager's transport.
    pub fn set_transport(&self, t: Arc<dyn CommitTransport>) {
        *self.transport.lock() = t;
    }

    fn transport(&self) -> Arc<dyn CommitTransport> {
        Arc::clone(&self.transport.lock())
    }

    /// Attaches a trace collector: transaction begins and every
    /// two-phase-commit datagram this manager sends or receives (including
    /// retransmissions) are recorded against the transaction's identifier.
    pub fn set_trace(&self, trace: Arc<TraceCollector>) {
        *self.trace.lock() = Some(trace);
    }

    fn emit(&self, tid: Tid, event: TraceEvent) {
        if let Some(t) = self.trace.lock().as_ref() {
            t.record(tid, event);
        }
    }

    fn send_traced(&self, transport: &Arc<dyn CommitTransport>, to: NodeId, msg: CommitMsg) {
        if let Some((tid, event)) = commit_msg_send_event(to, &msg) {
            self.emit(tid, event);
        }
        transport.send(to, msg);
    }

    /// This node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn count_call(&self) {
        // Begin/End/Abort are message exchanges with the TM process: one
        // request and one reply, both small (§5 message accounting).
        self.perf.record(PrimitiveOp::SmallContiguousMessage);
        self.perf.record(PrimitiveOp::SmallContiguousMessage);
    }

    /// `BeginTransaction` (Table 3-2): creates a subtransaction of
    /// `parent`, or a new top-level transaction when `parent` is
    /// [`Tid::NULL`].
    pub fn begin(&self, parent: Tid) -> Result<Tid, TmError> {
        self.count_call();
        if !parent.is_null() {
            let inner = self.inner.lock();
            match inner.get(&parent) {
                Some(info) if info.phase == TxPhase::Running => {}
                Some(_) => return Err(TmError::Aborted(parent)),
                None => return Err(TmError::Unknown(parent)),
            }
        }
        let tid = Tid {
            node: self.node,
            incarnation: self.incarnation,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
        };
        self.rm.log_begin(tid, parent);
        self.inner.lock().insert(tid, TxInfo::new(parent, tid));
        self.emit(tid, TraceEvent::TxnBegin { parent });
        Ok(tid)
    }

    /// Records that `server` performed its first operation for `tid`
    /// (creating the registry entry for remote-initiated transactions).
    pub fn enlist(&self, tid: Tid, server: &str, p: Arc<dyn Participant>) {
        // The server's one-time notification message.
        self.perf.record(PrimitiveOp::SmallContiguousMessage);
        let mut inner = self.inner.lock();
        let info = inner.entry(tid).or_insert_with(|| TxInfo::new(Tid::NULL, tid));
        info.participants.entry(server.to_string()).or_insert(p);
    }

    /// Current phase of `tid`, if known.
    pub fn phase(&self, tid: Tid) -> Option<TxPhase> {
        self.inner.lock().get(&tid).map(|i| i.phase)
    }

    /// Whether `tid` has been aborted (drives the `TransactionIsAborted`
    /// notification of Table 3-2).
    pub fn is_aborted(&self, tid: Tid) -> bool {
        match self.phase(tid) {
            Some(phase) => phase == TxPhase::Aborted,
            // No live entry: consult the durable outcomes (a resolved and
            // forgotten transaction); unknown tids are not "aborted".
            None => self.outcomes.lock().get(&tid) == Some(&false),
        }
    }

    /// Returns once the abort that marked `tid` aborted has applied its
    /// undo and released its locks. A server that finds
    /// [`TransactionManager::is_aborted`] true calls this before
    /// releasing anything of that transaction itself.
    pub fn await_undo(&self, tid: Tid) {
        let mut inner = self.inner.lock();
        while inner.get(&tid).is_some_and(|i| i.undoing) {
            self.cond.wait(&mut inner);
        }
    }

    /// States of live transactions, for Recovery Manager checkpoints.
    pub fn active_states(&self) -> Vec<(Tid, TxState)> {
        self.inner
            .lock()
            .iter()
            .filter_map(|(tid, info)| match info.phase {
                TxPhase::Running => Some((*tid, TxState::Active)),
                TxPhase::Prepared => Some((*tid, TxState::Prepared)),
                _ => None,
            })
            .collect()
    }

    /// Number of live (running or prepared) transactions in which the
    /// named server is enlisted as a participant.
    ///
    /// Shard migration's drain step polls this on the source node: once
    /// no in-flight transaction still involves the migrating shard's
    /// server — the server's identity (its enlistment name) survives the
    /// ownership change — its data is quiescent and safe to copy (new
    /// writes are already refused by the shard fence).
    pub fn active_enlistments(&self, server: &str) -> usize {
        self.inner
            .lock()
            .values()
            .filter(|info| matches!(info.phase, TxPhase::Running | TxPhase::Prepared))
            .filter(|info| info.participants.contains_key(server))
            .count()
    }

    /// `EndTransaction` (Table 3-2): attempts to commit. Returns `true` on
    /// commit, `false` if the transaction was (or had to be) aborted.
    pub fn end(&self, tid: Tid) -> Result<bool, TmError> {
        self.count_call();
        let (parent, phase) = {
            let inner = self.inner.lock();
            let info = inner.get(&tid).ok_or(TmError::Unknown(tid))?;
            (info.parent, info.phase)
        };
        match phase {
            TxPhase::Running => {}
            TxPhase::Aborted => {
                // Aborted underneath the application (deadlock victim,
                // suspicion callback). Children may have enlisted after
                // the abort ran — tell them again.
                self.renotify_abort(tid);
                return Ok(false);
            }
            _ => return Ok(true),
        }
        if parent.is_null() {
            self.commit_top_level(tid)
        } else {
            self.commit_subtransaction(tid, parent)
        }
    }

    /// `AbortTransaction` (Table 3-2): forces `tid` (and its unresolved
    /// subtransactions) to abort.
    pub fn abort(&self, tid: Tid) -> Result<(), TmError> {
        self.count_call();
        self.abort_internal(tid)
    }

    fn abort_internal(&self, tid: Tid) -> Result<(), TmError> {
        let (merged, participants) = {
            let mut inner = self.inner.lock();
            let info = match inner.get_mut(&tid) {
                Some(i) => i,
                None => return Err(TmError::Unknown(tid)),
            };
            if info.phase == TxPhase::Aborted {
                // Already aborted — but not necessarily *fully* notified:
                // an asynchronous abort (suspicion callback, deadlock
                // victim) can run while the transaction's calls are still
                // fanning out, and a child reached after that abort read
                // the (then-empty) child set never hears the decision. A
                // repeated abort re-chases whatever children exist now;
                // the phase was set before any notification, so a child
                // registered after this check is covered by the abort
                // that observed it.
                drop(inner);
                self.renotify_abort(tid);
                return Ok(());
            }
            if info.deciding {
                // Too late: the commit decision has been claimed.
                return Err(TmError::Unknown(tid));
            }
            info.phase = TxPhase::Aborted;
            info.undoing = true;
            (info.merged.clone(), info.participants.clone())
        };
        self.undo_and_release(tid, &merged, &participants)?;
        self.outcomes.lock().insert(tid, false);
        self.deadlines.lock().remove(&tid);
        // Tell remote children (of every merged tid) to abort; the chaser
        // collects their acks so the caller is not delayed.
        self.notify_abort(tid, &merged);
        self.cond.notify_all();
        Ok(())
    }

    /// The body of an abort that has just marked `tid` `Aborted` and
    /// `undoing`: undo newest-first across the merged set, release every
    /// participant's locks, then let the waiting re-releases through.
    fn undo_and_release(
        &self,
        tid: Tid,
        merged: &[Tid],
        participants: &HashMap<String, Arc<dyn Participant>>,
    ) -> Result<(), TmError> {
        let undone = merged
            .iter()
            .rev()
            .try_for_each(|t| self.rm.abort(*t).map_err(|e| TmError::Rm(e.to_string())));
        if undone.is_ok() {
            for p in participants.values() {
                for t in merged {
                    p.finish(*t, false);
                }
            }
        }
        if let Some(info) = self.inner.lock().get_mut(&tid) {
            info.undoing = false;
        }
        self.cond.notify_all();
        undone
    }

    /// Re-delivers an already-decided abort to the transaction's *current*
    /// participants and commit-tree children. Undo is not re-applied (the
    /// first abort did that — and is waited for, if it is still at it);
    /// this only sweeps up enlistments that raced the first abort — a
    /// server reached after the abort read an empty child set would
    /// otherwise hold its locks forever.
    fn renotify_abort(&self, tid: Tid) {
        let (merged, participants) = {
            let mut inner = self.inner.lock();
            while inner.get(&tid).is_some_and(|i| i.undoing) {
                self.cond.wait(&mut inner);
            }
            match inner.get(&tid) {
                Some(i) => (i.merged.clone(), i.participants.clone()),
                None => return,
            }
        };
        for p in participants.values() {
            for t in &merged {
                p.finish(*t, false);
            }
        }
        self.notify_abort(tid, &merged);
    }

    /// Sends `Abort` to the commit-tree children of every merged tid and
    /// hands their acknowledgements to the phase-2 chaser.
    fn notify_abort(&self, tid: Tid, merged: &[Tid]) {
        let transport = self.transport();
        let mut children: HashSet<NodeId> = HashSet::new();
        for t in merged {
            children.extend(transport.children(*t));
        }
        if !children.is_empty() {
            self.start_phase2(tid, children, CommitMsg::Abort { tid }, None);
        }
    }

    /// Commit of a subtransaction: transfer locks/enlistments to the
    /// parent; the child's effects become permanent only with the top
    /// level (§2.1.3).
    fn commit_subtransaction(&self, tid: Tid, parent: Tid) -> Result<bool, TmError> {
        let mut inner = self.inner.lock();
        // The parent must still be running.
        match inner.get(&parent) {
            Some(p) if p.phase == TxPhase::Running => {}
            _ => return Err(TmError::Unknown(parent)),
        }
        let info = inner.get_mut(&tid).ok_or(TmError::Unknown(tid))?;
        if info.phase != TxPhase::Running {
            return Ok(info.phase == TxPhase::Committed);
        }
        info.phase = TxPhase::Committed;
        let child_merged = info.merged.clone();
        let child_parts: Vec<(String, Arc<dyn Participant>)> =
            info.participants.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect();
        for (_, p) in &child_parts {
            for t in &child_merged {
                p.commit_subtransaction(*t, parent);
            }
        }
        let pinfo = inner.get_mut(&parent).expect("checked above");
        pinfo.merged.extend(child_merged);
        for (name, p) in child_parts {
            pinfo.participants.entry(name).or_insert(p);
        }
        Ok(true)
    }

    /// Top-level commit: phase 1 over local participants and the commit
    /// tree, then the forced commit record — the commit point. Local
    /// participants finish and each yes-voter is sent `Commit` once
    /// before this returns; collecting the acknowledgements is left to
    /// the phase-2 chaser, so the caller never waits for a round that
    /// cannot change the outcome.
    fn commit_top_level(&self, tid: Tid) -> Result<bool, TmError> {
        // Deadline gate: a prepare round launched past the budget cannot
        // finish in time, and worse, it pins every participant's locks
        // through a doomed vote collection. Abort up front instead — the
        // participants' undo and lock release run the normal abort path,
        // so nothing leaks. No registered deadline ⇒ seed path untouched.
        if let Some(d) = self.deadline(tid) {
            if d.is_expired() {
                if let Some(c) = self.deadline_expired.lock().as_ref() {
                    c.inc();
                }
                self.deadlines.lock().remove(&tid);
                self.abort_internal(tid)?;
                return Ok(false);
            }
        }
        let (merged, participants) = {
            let inner = self.inner.lock();
            let info = inner.get(&tid).ok_or(TmError::Unknown(tid))?;
            (info.merged.clone(), info.participants.clone())
        };

        // Phase 1 (local): every enlisted server prepares each merged tid.
        let mut updates = false;
        for p in participants.values() {
            for t in &merged {
                match p.prepare(*t) {
                    Ok(u) => updates |= u,
                    Err(_) => {
                        self.abort_internal(tid)?;
                        return Ok(false);
                    }
                }
            }
        }

        // Phase 1 (remote): prepare the commit-tree children.
        let transport = self.transport();
        let mut children: HashSet<NodeId> = HashSet::new();
        for t in &merged {
            children.extend(transport.children(*t));
        }
        let children: Vec<NodeId> = children.into_iter().collect();
        let mut remote_yes: Vec<NodeId> = Vec::new();
        if !children.is_empty() {
            match self.collect_votes(tid, &merged, &children) {
                Ok((yes, any_updates)) => {
                    updates |= any_updates;
                    remote_yes = yes;
                }
                Err(_) => {
                    self.abort_internal(tid)?;
                    return Ok(false);
                }
            }
        }

        // Decision. Read-only transactions need no commit record or force
        // (the cheap path of Table 5-3, "1 Node, Read Only"). The commit
        // force below goes through the RM's batched commit path: with
        // group commit enabled, concurrent committers share one device
        // force.
        // Claim the decision under the registry lock. An abort that got in
        // first (suspicion callback, deadlock victim) has already undone
        // the work and wins; one that comes later is refused.
        {
            let mut inner = self.inner.lock();
            let info = inner.get_mut(&tid).ok_or(TmError::Unknown(tid))?;
            if info.phase == TxPhase::Aborted {
                drop(inner);
                self.renotify_abort(tid);
                return Ok(false);
            }
            info.deciding = true;
        }
        let log_commit = || {
            self.rm.log_commit(tid).map_err(|e| {
                // The decision did not reach the log: release the claim so
                // a later abort can still clean up.
                if let Some(info) = self.inner.lock().get_mut(&tid) {
                    info.deciding = false;
                }
                TmError::Rm(e.to_string())
            })
        };
        if updates && children.is_empty() {
            // Single-participant 1PC: this coordinator is the sole writer
            // (no commit-tree children registered), so a prepare phase
            // would protect nothing — the commit record alone is the
            // atomic event. One log force, zero 2PC datagrams.
            crash_point!(&self.crash, "tm.1pc.before-force");
            log_commit()?;
            crash_point!(&self.crash, "tm.1pc.after-force");
            if let Some(c) = self.one_pc_commits.lock().as_ref() {
                c.inc();
            }
            self.emit(tid, TraceEvent::CommitPath { one_phase: true, read_only: false });
        } else if updates {
            log_commit()?;
            crash_point!(&self.crash, "tm.commit.logged");
        }
        // Outcome before phase: an `Inquire` that finds the phase already
        // decided must also find the outcome, or it would presume abort.
        self.outcomes.lock().insert(tid, true);
        {
            let mut inner = self.inner.lock();
            if let Some(info) = inner.get_mut(&tid) {
                info.phase = TxPhase::Committed;
                info.yes_children = remote_yes.clone();
            }
        }

        // Phase 2: local finish + remote commit to yes-voters only.
        for p in participants.values() {
            for t in &merged {
                p.finish(*t, true);
            }
        }
        if !remote_yes.is_empty() {
            self.start_phase2(tid, remote_yes, CommitMsg::Commit { tid }, None);
        }
        self.deadlines.lock().remove(&tid);
        Ok(true)
    }

    /// Sends Prepare to every child and waits for all votes, with
    /// retransmission. Returns (yes-voters, any-updates).
    ///
    /// Under [`ReplicationPolicy::majority_vote`], a child that belongs
    /// to a registered quorum group and is suspected unreachable has its
    /// missing vote waived once a majority of its group is durably
    /// prepared: the group voted yes as one logical participant, so the
    /// commit proceeds on the surviving members. A live `No` still aborts
    /// — the waiver only stands in for silence, never for refusal.
    fn collect_votes(
        &self,
        tid: Tid,
        merged: &[Tid],
        children: &[NodeId],
    ) -> Result<(Vec<NodeId>, bool), TmError> {
        let transport = self.transport();
        let timeouts = self.timeouts();
        let deadline = Instant::now() + timeouts.vote_deadline;
        let groups: Vec<Vec<NodeId>> = if self.replication().majority_vote {
            self.quorum_groups.lock().clone()
        } else {
            Vec::new()
        };
        let msg = CommitMsg::Prepare { tid, merged: merged.to_vec() };
        for &c in children {
            self.send_traced(&transport, c, msg.clone());
        }
        crash_point!(&self.crash, "tm.prepare.sent");
        let mut inner = self.inner.lock();
        loop {
            let info = inner.get(&tid).ok_or(TmError::Unknown(tid))?;
            if info.phase == TxPhase::Aborted {
                // Aborted underneath us (deadlock victim, or a suspicion
                // callback killed the transaction); stop waiting.
                return Err(TmError::VoteTimeout(tid));
            }
            if info.votes.values().any(|v| *v == Vote::No) {
                return Err(TmError::VoteTimeout(tid)); // treated as abort
            }
            let missing: Vec<NodeId> =
                children.iter().copied().filter(|c| !info.votes.contains_key(c)).collect();
            if missing.is_empty() {
                let yes: Vec<NodeId> = children
                    .iter()
                    .copied()
                    .filter(|c| info.votes.get(c) == Some(&Vote::Yes))
                    .collect();
                let any_updates = !yes.is_empty();
                return Ok((yes, any_updates));
            }
            if !groups.is_empty() {
                let votes = info.votes.clone();
                if missing.iter().all(|&c| self.quorum_waivable(c, &votes, &groups)) {
                    // Unlocked: reachability and footprint queries go to
                    // the Communication Manager. The waiver needs the
                    // missing member dead AND its work for every merged
                    // tid confined to replica-scoped servers — a member
                    // with unreplicated writes has state no surviving
                    // replica holds, so it must vote for itself.
                    let all_dead = parking_lot::MutexGuard::unlocked(&mut inner, || {
                        missing.iter().all(|&c| {
                            transport.unreachable(c)
                                && merged.iter().all(|t| transport.replica_only(*t, c))
                        })
                    });
                    if all_dead {
                        let info = inner.get(&tid).ok_or(TmError::Unknown(tid))?;
                        if info.phase == TxPhase::Aborted {
                            return Err(TmError::VoteTimeout(tid));
                        }
                        // Votes may have raced in while the lock was
                        // released: a late No still aborts (the waiver
                        // stands in for silence, never for refusal), and
                        // a late Yes/ReadOnly shrinks the missing set —
                        // re-evaluate rather than waive against a stale
                        // snapshot.
                        if info.votes.values().any(|v| *v == Vote::No) {
                            return Err(TmError::VoteTimeout(tid));
                        }
                        let still_missing: Vec<NodeId> = children
                            .iter()
                            .copied()
                            .filter(|c| !info.votes.contains_key(c))
                            .collect();
                        if still_missing != missing {
                            continue;
                        }
                        let yes: Vec<NodeId> = children
                            .iter()
                            .copied()
                            .filter(|c| info.votes.get(c) == Some(&Vote::Yes))
                            .collect();
                        if let Some(c) = self.quorum_commits.lock().as_ref() {
                            c.inc();
                        }
                        self.emit(tid, TraceEvent::ReplicaQuorum { waived: missing.len() as u32 });
                        // Force a commit record unconditionally: a waived
                        // member may hold prepared writes, and its in-doubt
                        // resolution must find a durable positive answer.
                        return Ok((yes, true));
                    }
                }
            }
            let timed_out =
                self.cond.wait_until(&mut inner, Instant::now() + timeouts.retransmit).timed_out();
            if Instant::now() >= deadline {
                return Err(TmError::VoteTimeout(tid));
            }
            if timed_out {
                // Retransmit to children that have not voted — unless one
                // of them is suspected unreachable *and* no quorum group
                // can cover for it, in which case waiting out the full
                // vote deadline is pointless: presume failure now and
                // abort (the durable abort record lets the child learn
                // the outcome whenever it asks). A suspected member whose
                // group majority is durable is not fatal — the waiver
                // above commits without it.
                let info = inner.get(&tid).ok_or(TmError::Unknown(tid))?;
                let missing: Vec<NodeId> =
                    children.iter().copied().filter(|c| !info.votes.contains_key(c)).collect();
                let votes = info.votes.clone();
                let failed = parking_lot::MutexGuard::unlocked(&mut inner, || {
                    if missing.iter().any(|&c| {
                        transport.unreachable(c)
                            && !(self.quorum_waivable(c, &votes, &groups)
                                && merged.iter().all(|t| transport.replica_only(*t, c)))
                    }) {
                        return true;
                    }
                    for c in missing {
                        self.send_traced(&transport, c, msg.clone());
                    }
                    false
                });
                if failed {
                    return Err(TmError::VoteTimeout(tid));
                }
            }
        }
    }

    /// Entry point for incoming two-phase-commit datagrams, called by the
    /// Communication Manager's datagram loop.
    pub fn handle(self: &Arc<Self>, from: NodeId, msg: CommitMsg) {
        if let Some((tid, event)) = commit_msg_recv_event(from, &msg) {
            self.emit(tid, event);
        }
        match msg {
            CommitMsg::Prepare { tid, merged } => {
                let tm = Arc::clone(self);
                self.workers.execute(move || tm.handle_prepare(from, tid, merged));
            }
            CommitMsg::VoteYes { tid, from } => self.record_vote(tid, from, Vote::Yes),
            CommitMsg::VoteReadOnly { tid, from } => self.record_vote(tid, from, Vote::ReadOnly),
            CommitMsg::VoteNo { tid, from } => self.record_vote(tid, from, Vote::No),
            CommitMsg::Commit { tid } => {
                let tm = Arc::clone(self);
                self.workers.execute(move || tm.handle_commit(from, tid));
            }
            CommitMsg::CommitAck { tid, from } | CommitMsg::AbortAck { tid, from } => {
                self.settle_phase2(tid, from);
            }
            CommitMsg::Abort { tid } => {
                let tm = Arc::clone(self);
                self.workers.execute(move || tm.handle_abort(from, tid));
            }
            CommitMsg::Inquire { tid, from } => {
                let outcome = self.outcomes.lock().get(&tid).copied();
                let reply = match outcome {
                    Some(true) => Some(CommitMsg::Commit { tid }),
                    Some(false) => Some(CommitMsg::Abort { tid }),
                    None => {
                        // Presumed abort applies only when this node
                        // *provably* never logged a commit for `tid`. If
                        // the transaction is still in flight here (votes
                        // being collected, or we are in doubt ourselves)
                        // the decision is pending — stay silent and let
                        // the inquirer retry, rather than answering Abort
                        // moments before the commit record is forced.
                        // Likewise before log replay: a rebooting node
                        // does not yet know what it committed.
                        let pending = matches!(
                            self.inner.lock().get(&tid).map(|i| i.phase),
                            Some(TxPhase::Running) | Some(TxPhase::Prepared)
                        );
                        if pending || !self.recovered.load(Ordering::Acquire) {
                            None
                        } else {
                            Some(CommitMsg::Abort { tid })
                        }
                    }
                };
                if let Some(reply) = reply {
                    self.send_traced(&self.transport(), from, reply);
                }
            }
            CommitMsg::OutcomeQuery { tid, from } => {
                // A peer may answer only from durable positive knowledge;
                // a peer that does not know the outcome stays silent —
                // presuming abort is the coordinator's prerogative alone.
                if let Some(committed) = self.outcomes.lock().get(&tid).copied() {
                    self.send_traced(
                        &self.transport(),
                        from,
                        CommitMsg::OutcomeAnswer { tid, from: self.node, committed },
                    );
                }
            }
            CommitMsg::OutcomeAnswer { tid, committed, .. } => {
                let tm = Arc::clone(self);
                self.workers.execute(move || {
                    if committed {
                        tm.apply_commit_decision(tid, None);
                    } else {
                        let merged = tm.inner.lock().get(&tid).map(|i| i.merged.clone());
                        if let Some(merged) = merged {
                            let _ = tm.abort_local_tree(tid, &merged);
                        }
                    }
                });
            }
        }
    }

    fn record_vote(&self, tid: Tid, from: NodeId, vote: Vote) {
        let mut inner = self.inner.lock();
        if let Some(info) = inner.get_mut(&tid) {
            info.votes.insert(from, vote);
        }
        self.cond.notify_all();
    }

    /// Participant side of phase 1: prepare the local subtree and vote.
    fn handle_prepare(self: Arc<Self>, from: NodeId, tid: Tid, merged: Vec<Tid>) {
        let transport = self.transport();
        // Idempotence: if already prepared or resolved, re-vote accordingly.
        {
            let inner = self.inner.lock();
            if let Some(info) = inner.get(&tid) {
                match info.phase {
                    TxPhase::Prepared => {
                        drop(inner);
                        self.send_traced(
                            &transport,
                            from,
                            CommitMsg::VoteYes { tid, from: self.node },
                        );
                        return;
                    }
                    TxPhase::Committed => {
                        drop(inner);
                        self.send_traced(
                            &transport,
                            from,
                            CommitMsg::CommitAck { tid, from: self.node },
                        );
                        return;
                    }
                    TxPhase::Aborted => {
                        drop(inner);
                        self.send_traced(
                            &transport,
                            from,
                            CommitMsg::VoteNo { tid, from: self.node },
                        );
                        return;
                    }
                    TxPhase::Running => {}
                }
            }
        }

        // Gather local participants across all merged tids.
        let mut participants: HashMap<String, Arc<dyn Participant>> = HashMap::new();
        {
            let mut inner = self.inner.lock();
            let entry = inner.entry(tid).or_insert_with(|| TxInfo::new(Tid::NULL, tid));
            entry.remote_parent = Some(from);
            for t in &merged {
                if let Some(info) = inner.get(t) {
                    for (k, v) in &info.participants {
                        participants.entry(k.clone()).or_insert_with(|| Arc::clone(v));
                    }
                }
            }
            if let Some(info) = inner.get(&tid) {
                for (k, v) in &info.participants {
                    participants.entry(k.clone()).or_insert_with(|| Arc::clone(v));
                }
            }
            // Attach the merged set's participants to the top-level entry
            // so phase 2 (commit or abort) can finish them — they were
            // enlisted under subtransaction tids.
            if let Some(info) = inner.get_mut(&tid) {
                for (k, v) in &participants {
                    info.participants.entry(k.clone()).or_insert_with(|| Arc::clone(v));
                }
            }
        }

        let mut updates = false;
        for p in participants.values() {
            for t in &merged {
                match p.prepare(*t) {
                    Ok(u) => updates |= u,
                    Err(_) => {
                        self.send_traced(
                            &transport,
                            from,
                            CommitMsg::VoteNo { tid, from: self.node },
                        );
                        let _ = self.abort_local_tree(tid, &merged);
                        return;
                    }
                }
            }
        }

        // Descend: this node coordinates its own children in the tree.
        let mut children: HashSet<NodeId> = HashSet::new();
        for t in &merged {
            children.extend(transport.children(*t));
        }
        children.remove(&from);
        let children: Vec<NodeId> = children.into_iter().collect();
        let mut yes_children = Vec::new();
        if !children.is_empty() {
            match self.collect_votes(tid, &merged, &children) {
                Ok((yes, child_updates)) => {
                    updates |= child_updates;
                    yes_children = yes;
                }
                Err(_) => {
                    self.send_traced(&transport, from, CommitMsg::VoteNo { tid, from: self.node });
                    let _ = self.abort_local_tree(tid, &merged);
                    return;
                }
            }
        }

        if updates {
            // Parent tids for remote-origin merged records, then the forced
            // prepare record (batched with concurrent committers when
            // group commit is on); only now may we vote yes.
            for t in &merged {
                if *t != tid {
                    self.rm.log_begin(*t, tid);
                }
            }
            if self.rm.log_prepare(tid, from).is_err() {
                self.send_traced(&transport, from, CommitMsg::VoteNo { tid, from: self.node });
                return;
            }
            crash_point!(&self.crash, "tm.vote.logged");
            {
                let mut inner = self.inner.lock();
                if let Some(info) = inner.get_mut(&tid) {
                    info.phase = TxPhase::Prepared;
                    info.yes_children = yes_children;
                    info.merged = merged.clone();
                }
            }
            self.send_traced(&transport, from, CommitMsg::VoteYes { tid, from: self.node });
            // We are now in doubt: if no decision arrives within the vote
            // deadline, start pulling the outcome instead of waiting for
            // coordinator retransmissions that may never come.
            self.spawn_decision_watchdog(tid, from);
        } else {
            // Read-only subtree: vote and forget (no phase 2 needed).
            {
                let mut inner = self.inner.lock();
                if let Some(info) = inner.get_mut(&tid) {
                    info.phase = TxPhase::Committed;
                }
            }
            for p in participants.values() {
                for t in &merged {
                    p.finish(*t, true);
                }
            }
            if let Some(c) = self.readonly_votes.lock().as_ref() {
                c.inc();
            }
            self.emit(tid, TraceEvent::CommitPath { one_phase: false, read_only: true });
            self.send_traced(&transport, from, CommitMsg::VoteReadOnly { tid, from: self.node });
        }
    }

    /// Participant side of phase 2 (commit).
    fn handle_commit(self: Arc<Self>, from: NodeId, tid: Tid) {
        if !self.inner.lock().contains_key(&tid) {
            // Already resolved and forgotten: just re-ack.
            let ack = CommitMsg::CommitAck { tid, from: self.node };
            self.send_traced(&self.transport(), from, ack);
            return;
        }
        self.apply_commit_decision(tid, Some(from));
    }

    /// Acknowledges an applied commit decision to the commit-tree parent.
    fn ack_commit(&self, tid: Tid, parent: NodeId) {
        self.send_traced(&self.transport(), parent, CommitMsg::CommitAck { tid, from: self.node });
        crash_point!(&self.crash, "tm.ack.sent");
    }

    /// Applies a known commit decision to a prepared transaction (from the
    /// coordinator's phase 2 or a peer's [`CommitMsg::OutcomeAnswer`]).
    /// Idempotent. `ack_to` names the parent that sent the decision: it
    /// is acknowledged once this node's own subtree has acknowledged — at
    /// once for a leaf, by the phase-2 chaser for an intermediate node —
    /// and not at all if the commit record could not be logged (the
    /// transaction stays in doubt for the coordinator's retransmission).
    fn apply_commit_decision(self: &Arc<Self>, tid: Tid, ack_to: Option<NodeId>) {
        let (merged, participants, yes_children, phase) = {
            let inner = self.inner.lock();
            match inner.get(&tid) {
                Some(info) => (
                    info.merged.clone(),
                    info.participants.clone(),
                    info.yes_children.clone(),
                    info.phase,
                ),
                None => return,
            }
        };
        if phase == TxPhase::Prepared {
            if self.rm.log_commit(tid).is_err() {
                return;
            }
            crash_point!(&self.crash, "tm.commit.logged");
            self.outcomes.lock().insert(tid, true);
            {
                let mut inner = self.inner.lock();
                if let Some(info) = inner.get_mut(&tid) {
                    info.phase = TxPhase::Committed;
                }
            }
            for p in participants.values() {
                for t in &merged {
                    p.finish(*t, true);
                }
            }
            self.cond.notify_all();
            if !yes_children.is_empty() {
                self.start_phase2(tid, yes_children, CommitMsg::Commit { tid }, ack_to);
                return;
            }
        }
        // A retransmitted decision that finds the subtree still being
        // chased is not acknowledged here: the chaser answers the parent
        // when the subtree has, so acks always travel leaf-first.
        if let Some(parent) = ack_to.filter(|_| !self.phase2_will_ack_parent(tid)) {
            self.ack_commit(tid, parent);
        }
    }

    /// Participant side of abort.
    fn handle_abort(self: Arc<Self>, from: NodeId, tid: Tid) {
        let transport = self.transport();
        let merged = {
            let inner = self.inner.lock();
            inner.get(&tid).map(|i| i.merged.clone())
        };
        if let Some(merged) = merged {
            let _ = self.abort_local_tree(tid, &merged);
        }
        self.send_traced(&transport, from, CommitMsg::AbortAck { tid, from: self.node });
    }

    fn abort_local_tree(&self, tid: Tid, merged: &[Tid]) -> Result<(), TmError> {
        let participants = {
            let mut inner = self.inner.lock();
            let info = match inner.get_mut(&tid) {
                Some(i) => i,
                None => return Ok(()),
            };
            if info.phase == TxPhase::Aborted {
                return Ok(());
            }
            info.phase = TxPhase::Aborted;
            info.undoing = true;
            info.participants.clone()
        };
        self.undo_and_release(tid, merged, &participants)?;
        self.outcomes.lock().insert(tid, false);
        // Propagate to this node's own children.
        let transport = self.transport();
        let mut children: HashSet<NodeId> = HashSet::new();
        for t in merged {
            children.extend(transport.children(*t));
        }
        for c in children {
            self.send_traced(&transport, c, CommitMsg::Abort { tid });
        }
        self.cond.notify_all();
        Ok(())
    }

    /// Loads durable outcomes discovered by crash recovery, and registers
    /// in-doubt transactions for resolution.
    pub fn load_recovery(
        self: &Arc<Self>,
        committed: &[Tid],
        aborted: &[Tid],
        in_doubt: &[(Tid, NodeId)],
    ) {
        {
            let mut o = self.outcomes.lock();
            for t in committed {
                o.insert(*t, true);
            }
            for t in aborted {
                o.insert(*t, false);
            }
        }
        // Only now — with every durable outcome loaded — may an unknown
        // tid be presumed aborted. A live participant inquiring between
        // reboot and log replay must not draw an Abort for a transaction
        // whose commit record is sitting on disk.
        self.recovered.store(true, Ordering::Release);
        let mut inner = self.inner.lock();
        for (tid, coord) in in_doubt {
            let info = inner.entry(*tid).or_insert_with(|| TxInfo::new(Tid::NULL, *tid));
            info.phase = TxPhase::Prepared;
            info.remote_parent = Some(*coord);
        }
        drop(inner);
        // Pull the outcome of each in-doubt transaction until resolved.
        for (tid, coord) in in_doubt.iter().copied() {
            self.spawn_resolver(tid, coord, Duration::from_secs(10));
        }
    }

    /// Transactions still in doubt (voted yes, awaiting the decision) at
    /// this node — the post-scenario audit's "unresolved Tids".
    pub fn in_doubt_tids(&self) -> Vec<Tid> {
        self.inner
            .lock()
            .iter()
            .filter(|(_, i)| i.phase == TxPhase::Prepared)
            .map(|(t, _)| *t)
            .collect()
    }

    /// Failure-detector callback: `peer` is suspected unreachable.
    ///
    /// Participant side: every in-doubt transaction whose coordinator is
    /// the suspect gets an immediate resolver (Inquire at the coordinator
    /// plus, cooperatively, an outcome query broadcast to fellow
    /// participants). Coordinator side: a still-running transaction that
    /// already spans the suspect can never prepare there, so it is aborted
    /// now with a durable abort record — when the suspect rejoins, its
    /// inquiry finds an authoritative answer instead of a hung commit.
    pub fn peer_suspected(self: &Arc<Self>, peer: NodeId) {
        if !self.cooperative.load(Ordering::Relaxed) {
            return;
        }
        let snapshot: Vec<(Tid, TxPhase, Option<NodeId>, Vec<Tid>)> = self
            .inner
            .lock()
            .iter()
            .map(|(tid, i)| (*tid, i.phase, i.remote_parent, i.merged.clone()))
            .collect();
        let transport = self.transport();
        for (tid, phase, remote_parent, merged) in snapshot {
            match phase {
                TxPhase::Prepared if remote_parent == Some(peer) => {
                    self.spawn_resolver(tid, peer, self.timeouts().vote_deadline * 24);
                }
                TxPhase::Running if tid.node == self.node => {
                    let spans_suspect =
                        merged.iter().any(|t| transport.children(*t).contains(&peer));
                    if spans_suspect {
                        let _ = self.abort_internal(tid);
                    }
                }
                _ => {}
            }
        }
    }

    /// Waits out the vote deadline after voting yes; if the decision still
    /// has not arrived, assumes the coordinator is gone and starts pulling.
    fn spawn_decision_watchdog(self: &Arc<Self>, tid: Tid, coord: NodeId) {
        let tm = Arc::clone(self);
        std::thread::spawn(move || {
            let timeouts = tm.timeouts();
            let deadline = Instant::now() + timeouts.vote_deadline;
            while Instant::now() < deadline {
                if !matches!(tm.phase(tid), Some(TxPhase::Prepared)) {
                    return;
                }
                std::thread::sleep(timeouts.retransmit);
            }
            tm.spawn_resolver(tid, coord, timeouts.vote_deadline * 24);
        });
    }

    /// Starts one resolver thread for an in-doubt transaction (no-op if
    /// one is already running). The resolver inquires at the coordinator
    /// with exponential backoff and — when cooperative termination is on —
    /// broadcasts [`CommitMsg::OutcomeQuery`] to fellow participants, so
    /// any node that durably knows the outcome can end the doubt.
    fn spawn_resolver(self: &Arc<Self>, tid: Tid, coord: NodeId, patience: Duration) {
        if !self.resolving.lock().insert(tid) {
            return;
        }
        let tm = Arc::clone(self);
        std::thread::spawn(move || {
            let timeouts = tm.timeouts();
            let deadline = Instant::now() + patience;
            let mut backoff = timeouts.retransmit;
            let cap = timeouts.retransmit * 8;
            while Instant::now() < deadline {
                if !matches!(tm.phase(tid), Some(TxPhase::Prepared)) {
                    break;
                }
                let transport = tm.transport();
                tm.send_traced(&transport, coord, CommitMsg::Inquire { tid, from: tm.node });
                if tm.cooperative.load(Ordering::Relaxed) {
                    tm.emit(tid, TraceEvent::TerminationQuery { to: coord });
                    transport.broadcast(CommitMsg::OutcomeQuery { tid, from: tm.node });
                }
                // Exponential backoff between probes, but keep checking
                // for resolution at retransmit granularity so an answer
                // ends the doubt promptly.
                let wake = Instant::now() + backoff;
                while Instant::now() < wake {
                    if !matches!(tm.phase(tid), Some(TxPhase::Prepared)) {
                        tm.resolving.lock().remove(&tid);
                        return;
                    }
                    std::thread::sleep(timeouts.retransmit.min(Duration::from_millis(25)));
                }
                backoff = (backoff * 2).min(cap);
            }
            tm.resolving.lock().remove(&tid);
        });
    }
}

/// Maps an outbound commit datagram to its trace event (`None` for
/// recovery traffic with a dedicated event or no event of its own:
/// `Inquire` and `OutcomeQuery`, which is traced as `TerminationQuery`).
fn commit_msg_send_event(to: NodeId, msg: &CommitMsg) -> Option<(Tid, TraceEvent)> {
    Some(match msg {
        CommitMsg::Prepare { tid, .. } => (*tid, TraceEvent::PrepareSend { to }),
        CommitMsg::VoteYes { tid, .. } => (*tid, TraceEvent::VoteSend { to, vote: ObsVote::Yes }),
        CommitMsg::VoteReadOnly { tid, .. } => {
            (*tid, TraceEvent::VoteSend { to, vote: ObsVote::ReadOnly })
        }
        CommitMsg::VoteNo { tid, .. } => (*tid, TraceEvent::VoteSend { to, vote: ObsVote::No }),
        CommitMsg::Commit { tid } => (*tid, TraceEvent::DecisionSend { to, commit: true }),
        CommitMsg::Abort { tid } => (*tid, TraceEvent::DecisionSend { to, commit: false }),
        CommitMsg::CommitAck { tid, .. } | CommitMsg::AbortAck { tid, .. } => {
            (*tid, TraceEvent::AckSend { to })
        }
        CommitMsg::Inquire { .. } | CommitMsg::OutcomeQuery { .. } => return None,
        CommitMsg::OutcomeAnswer { tid, committed, .. } => {
            (*tid, TraceEvent::DecisionSend { to, commit: *committed })
        }
    })
}

/// Inbound counterpart of [`commit_msg_send_event`].
fn commit_msg_recv_event(from: NodeId, msg: &CommitMsg) -> Option<(Tid, TraceEvent)> {
    Some(match msg {
        CommitMsg::Prepare { tid, .. } => (*tid, TraceEvent::PrepareRecv { from }),
        CommitMsg::VoteYes { tid, .. } => (*tid, TraceEvent::VoteRecv { from, vote: ObsVote::Yes }),
        CommitMsg::VoteReadOnly { tid, .. } => {
            (*tid, TraceEvent::VoteRecv { from, vote: ObsVote::ReadOnly })
        }
        CommitMsg::VoteNo { tid, .. } => (*tid, TraceEvent::VoteRecv { from, vote: ObsVote::No }),
        CommitMsg::Commit { tid } => (*tid, TraceEvent::DecisionRecv { from, commit: true }),
        CommitMsg::Abort { tid } => (*tid, TraceEvent::DecisionRecv { from, commit: false }),
        CommitMsg::CommitAck { tid, .. } | CommitMsg::AbortAck { tid, .. } => {
            (*tid, TraceEvent::AckRecv { from })
        }
        CommitMsg::Inquire { .. } | CommitMsg::OutcomeQuery { .. } => return None,
        CommitMsg::OutcomeAnswer { tid, committed, .. } => {
            (*tid, TraceEvent::DecisionRecv { from, commit: *committed })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabs_kernel::{BufferPool, MemDisk, SegmentId, SegmentSpec};
    use tabs_wal::{LogManager, MemLogDevice};

    fn make_rm(node: NodeId) -> (Arc<RecoveryManager>, Arc<BufferPool>) {
        let perf = PerfCounters::new();
        let pool = BufferPool::new(16, Arc::clone(&perf));
        let disk = MemDisk::new(64);
        pool.register_segment(SegmentSpec {
            id: SegmentId { node, index: 0 },
            name: "t".into(),
            disk,
            base_sector: 0,
            pages: 64,
        })
        .unwrap();
        let log = LogManager::open(MemLogDevice::new(1 << 20), Arc::clone(&perf)).unwrap();
        let rm = RecoveryManager::new(node, log, Arc::clone(&pool), perf);
        pool.set_gate(rm.gate());
        (rm, pool)
    }

    fn make_tm(node: NodeId) -> (Arc<TransactionManager>, Arc<RecoveryManager>, Arc<BufferPool>) {
        let (rm, pool) = make_rm(node);
        let tm = TransactionManager::new(node, 1, Arc::clone(&rm), PerfCounters::new());
        (tm, rm, pool)
    }

    /// A participant that records lifecycle events.
    #[derive(Default)]
    struct TracePart {
        log: Mutex<Vec<String>>,
        has_updates: std::sync::atomic::AtomicBool,
        fail_prepare: std::sync::atomic::AtomicBool,
    }

    impl Participant for TracePart {
        fn prepare(&self, tid: Tid) -> Result<bool, String> {
            if self.fail_prepare.load(Ordering::Relaxed) {
                return Err("refused".into());
            }
            self.log.lock().push(format!("prepare {tid}"));
            Ok(self.has_updates.load(Ordering::Relaxed))
        }
        fn finish(&self, tid: Tid, committed: bool) {
            self.log.lock().push(format!("finish {tid} {committed}"));
        }
        fn commit_subtransaction(&self, child: Tid, parent: Tid) {
            self.log.lock().push(format!("subcommit {child}->{parent}"));
        }
    }

    #[test]
    fn begin_allocates_unique_tids() {
        let (tm, _rm, _p) = make_tm(NodeId(1));
        let a = tm.begin(Tid::NULL).unwrap();
        let b = tm.begin(Tid::NULL).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.node, NodeId(1));
        assert_eq!(a.incarnation, 1);
    }

    #[test]
    fn begin_subtransaction_requires_live_parent() {
        let (tm, _rm, _p) = make_tm(NodeId(1));
        let top = tm.begin(Tid::NULL).unwrap();
        let sub = tm.begin(top).unwrap();
        assert_ne!(sub, top);
        let bogus = Tid { node: NodeId(9), incarnation: 1, seq: 99 };
        assert!(matches!(tm.begin(bogus), Err(TmError::Unknown(_))));
        tm.abort(top).unwrap();
        assert!(matches!(tm.begin(top), Err(TmError::Aborted(_))));
    }

    #[test]
    fn local_read_only_commit_writes_no_commit_record() {
        let (tm, rm, _p) = make_tm(NodeId(1));
        let part = Arc::new(TracePart::default());
        let t = tm.begin(Tid::NULL).unwrap();
        tm.enlist(t, "srv", part.clone());
        assert!(tm.end(t).unwrap());
        let has_commit = rm
            .log()
            .all_entries()
            .iter()
            .any(|e| matches!(e.record, tabs_wal::LogRecord::Commit { .. }));
        assert!(!has_commit, "read-only commit skips the forced record");
        let log = part.log.lock().clone();
        assert!(log.iter().any(|l| l.starts_with("prepare")));
        assert!(log.iter().any(|l| l.contains("finish") && l.contains("true")));
    }

    #[test]
    fn local_write_commit_forces_commit_record() {
        let (tm, rm, _p) = make_tm(NodeId(1));
        let part = Arc::new(TracePart::default());
        part.has_updates.store(true, Ordering::Relaxed);
        let t = tm.begin(Tid::NULL).unwrap();
        tm.enlist(t, "srv", part);
        assert!(tm.end(t).unwrap());
        let durable = rm.log().durable_entries();
        assert!(durable.iter().any(|e| matches!(e.record, tabs_wal::LogRecord::Commit { .. })));
    }

    #[test]
    fn failed_prepare_aborts() {
        let (tm, _rm, _p) = make_tm(NodeId(1));
        let part = Arc::new(TracePart::default());
        part.fail_prepare.store(true, Ordering::Relaxed);
        let t = tm.begin(Tid::NULL).unwrap();
        tm.enlist(t, "srv", part.clone());
        assert!(!tm.end(t).unwrap());
        assert_eq!(tm.phase(t), Some(TxPhase::Aborted));
        assert!(part.log.lock().iter().any(|l| l.contains("finish") && l.contains("false")));
    }

    #[test]
    fn subtransaction_commit_transfers_to_parent() {
        let (tm, _rm, _p) = make_tm(NodeId(1));
        let part = Arc::new(TracePart::default());
        let top = tm.begin(Tid::NULL).unwrap();
        let sub = tm.begin(top).unwrap();
        tm.enlist(sub, "srv", part.clone());
        assert!(tm.end(sub).unwrap());
        assert!(part.log.lock().iter().any(|l| l.starts_with(&format!("subcommit {sub}"))));
        // Parent commit finishes the child's participant too.
        assert!(tm.end(top).unwrap());
        let log = part.log.lock().clone();
        assert!(log.iter().any(|l| l == &format!("finish {sub} true")));
    }

    #[test]
    fn subtransaction_abort_leaves_parent_running() {
        let (tm, _rm, _p) = make_tm(NodeId(1));
        let top = tm.begin(Tid::NULL).unwrap();
        let sub = tm.begin(top).unwrap();
        tm.abort(sub).unwrap();
        assert_eq!(tm.phase(sub), Some(TxPhase::Aborted));
        assert_eq!(tm.phase(top), Some(TxPhase::Running));
        assert!(tm.end(top).unwrap());
    }

    #[test]
    fn end_on_aborted_returns_false() {
        let (tm, _rm, _p) = make_tm(NodeId(1));
        let t = tm.begin(Tid::NULL).unwrap();
        tm.abort(t).unwrap();
        assert!(!tm.end(t).unwrap());
        assert!(tm.is_aborted(t));
    }

    #[test]
    fn active_states_for_checkpoint() {
        let (tm, _rm, _p) = make_tm(NodeId(1));
        let a = tm.begin(Tid::NULL).unwrap();
        let b = tm.begin(Tid::NULL).unwrap();
        tm.abort(b).unwrap();
        let states = tm.active_states();
        assert!(states.contains(&(a, TxState::Active)));
        assert!(!states.iter().any(|(t, _)| *t == b));
    }

    // ---- Two-node distributed commit through a loopback transport ----

    /// Routes CommitMsgs synchronously between two TransactionManagers and
    /// exposes a static spanning tree (node 1 is parent of node 2 for every
    /// tid once marked).
    struct Loopback {
        peers: Mutex<HashMap<NodeId, Arc<TransactionManager>>>,
        children_of: Mutex<HashMap<NodeId, Vec<NodeId>>>,
        sent: Mutex<Vec<(NodeId, CommitMsg)>>,
        /// Nodes this transport reports as suspected-unreachable.
        dead: Mutex<HashSet<NodeId>>,
        /// Nodes whose incoming phase-2 decisions are silently dropped
        /// (they voted but will never ack — died mid-commit).
        drop_decisions_to: Mutex<HashSet<NodeId>>,
        /// Nodes whose footprint includes *unreplicated* work: the
        /// transport reports them not replica-only, so the quorum waiver
        /// must refuse to stand in for their missing vote.
        plain: Mutex<HashSet<NodeId>>,
        /// Fired on every reachability probe with the probed node — lets
        /// a test inject traffic precisely inside the waiver's unlocked
        /// window.
        #[allow(clippy::type_complexity)]
        on_unreachable: Mutex<Option<Box<dyn Fn(NodeId) + Send>>>,
        /// Fired on every send with the destination and the datagram.
        #[allow(clippy::type_complexity)]
        on_send: Mutex<Option<Box<dyn Fn(NodeId, &CommitMsg) + Send>>>,
        me: NodeId,
    }

    impl Loopback {
        /// Wires one transport per manager, every manager a peer of every
        /// other; returned in the order given.
        fn mesh(tms: &[&Arc<TransactionManager>]) -> Vec<Arc<Loopback>> {
            tms.iter()
                .map(|tm| {
                    let t = Arc::new(Loopback {
                        peers: Mutex::new(HashMap::new()),
                        children_of: Mutex::new(HashMap::new()),
                        sent: Mutex::new(Vec::new()),
                        dead: Mutex::new(HashSet::new()),
                        drop_decisions_to: Mutex::new(HashSet::new()),
                        plain: Mutex::new(HashSet::new()),
                        on_unreachable: Mutex::new(None),
                        on_send: Mutex::new(None),
                        me: tm.node(),
                    });
                    for peer in tms.iter().filter(|p| p.node() != tm.node()) {
                        t.peers.lock().insert(peer.node(), Arc::clone(peer));
                    }
                    tm.set_transport(Arc::clone(&t) as Arc<dyn CommitTransport>);
                    t
                })
                .collect()
        }

        fn pair(
            a: &Arc<TransactionManager>,
            b: &Arc<TransactionManager>,
        ) -> (Arc<Loopback>, Arc<Loopback>) {
            let mut mesh = Self::mesh(&[a, b]);
            let tb = mesh.pop().expect("two transports");
            (mesh.pop().expect("two transports"), tb)
        }

        /// How many datagrams matching `pred` this transport was asked to
        /// send (delivered or dropped).
        fn count_sent(&self, pred: impl Fn(&NodeId, &CommitMsg) -> bool) -> usize {
            self.sent.lock().iter().filter(|(to, m)| pred(to, m)).count()
        }

        fn set_children(&self, children: Vec<NodeId>) {
            self.children_of.lock().insert(self.me, children);
        }

        fn mark_dead(&self, node: NodeId) {
            self.dead.lock().insert(node);
        }

        fn mark_plain(&self, node: NodeId) {
            self.plain.lock().insert(node);
        }
    }

    impl CommitTransport for Loopback {
        fn send(&self, to: NodeId, msg: CommitMsg) {
            self.sent.lock().push((to, msg.clone()));
            if let Some(hook) = self.on_send.lock().as_ref() {
                hook(to, &msg);
            }
            if matches!(msg, CommitMsg::Commit { .. } | CommitMsg::Abort { .. })
                && self.drop_decisions_to.lock().contains(&to)
            {
                return;
            }
            let peer = self.peers.lock().get(&to).cloned();
            if let Some(p) = peer {
                let from = self.me;
                p.handle(from, msg);
            }
        }
        fn unreachable(&self, to: NodeId) -> bool {
            if let Some(hook) = self.on_unreachable.lock().as_ref() {
                hook(to);
            }
            self.dead.lock().contains(&to)
        }
        fn replica_only(&self, _tid: Tid, child: NodeId) -> bool {
            !self.plain.lock().contains(&child)
        }
        fn children(&self, _tid: Tid) -> Vec<NodeId> {
            self.children_of.lock().get(&self.me).cloned().unwrap_or_default()
        }
        fn parent(&self, _tid: Tid) -> Option<NodeId> {
            None
        }
        fn broadcast(&self, msg: CommitMsg) {
            let peers: Vec<_> = self.peers.lock().values().cloned().collect();
            for p in peers {
                p.handle(self.me, msg.clone());
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn two_node_rig() -> (
        Arc<TransactionManager>,
        Arc<TransactionManager>,
        Arc<Loopback>,
        Arc<Loopback>,
        Arc<RecoveryManager>,
        Arc<RecoveryManager>,
    ) {
        let (tm1, rm1, _p1) = make_tm(NodeId(1));
        let (tm2, rm2, _p2) = make_tm(NodeId(2));
        let (t1, t2) = Loopback::pair(&tm1, &tm2);
        (tm1, tm2, t1, t2, rm1, rm2)
    }

    #[test]
    fn two_node_write_commit() {
        let (tm1, tm2, t1, _t2, rm1, rm2) = two_node_rig();
        t1.set_children(vec![NodeId(2)]);
        let part1 = Arc::new(TracePart::default());
        part1.has_updates.store(true, Ordering::Relaxed);
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);

        let t = tm1.begin(Tid::NULL).unwrap();
        tm1.enlist(t, "s1", part1.clone());
        tm2.enlist(t, "s2", part2.clone()); // remote work happened on node 2
        assert!(tm1.end(t).unwrap());
        assert!(tm1.await_phase2(Duration::from_secs(5)), "node 2 never acknowledged");

        // Both logs carry durable records; node 2 prepared then committed.
        let recs2 = rm2.log().durable_entries();
        assert!(recs2.iter().any(|e| matches!(e.record, tabs_wal::LogRecord::Prepare { .. })));
        assert!(recs2.iter().any(|e| matches!(e.record, tabs_wal::LogRecord::Commit { .. })));
        assert!(rm1
            .log()
            .durable_entries()
            .iter()
            .any(|e| matches!(e.record, tabs_wal::LogRecord::Commit { .. })));
        assert!(part2.log.lock().iter().any(|l| l.contains("finish") && l.contains("true")));
        assert_eq!(tm2.phase(t), Some(TxPhase::Committed));
    }

    #[test]
    fn two_node_read_only_skips_phase_two() {
        let (tm1, tm2, t1, t2, rm1, rm2) = two_node_rig();
        t1.set_children(vec![NodeId(2)]);
        let part2 = Arc::new(TracePart::default()); // read-only
        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", part2.clone());
        assert!(tm1.end(t).unwrap());
        // No prepare or commit records anywhere: fully read-only.
        assert!(rm1.log().durable_entries().is_empty());
        assert!(rm2.log().durable_entries().is_empty());
        // Messages: exactly one Prepare and one VoteReadOnly.
        let sent1 = t1.sent.lock().clone();
        assert_eq!(sent1.len(), 1);
        assert!(matches!(sent1[0].1, CommitMsg::Prepare { .. }));
        let sent2 = t2.sent.lock().clone();
        assert_eq!(sent2.len(), 1);
        assert!(matches!(sent2[0].1, CommitMsg::VoteReadOnly { .. }));
    }

    #[test]
    fn fast_policy_sole_writer_commits_in_one_phase() {
        let (tm, rm, _p) = make_tm(NodeId(1));
        let one_pc = Counter::default();
        let read_only = Counter::default();
        tm.set_fastpath_metrics(one_pc.clone(), read_only.clone());
        let part = Arc::new(TracePart::default());
        part.has_updates.store(true, Ordering::Relaxed);
        let t = tm.begin(Tid::NULL).unwrap();
        tm.enlist(t, "srv", part);
        assert!(tm.end(t).unwrap());
        // One forced commit record, no prepare record, and the 1PC
        // counter ticked: single-participant commit skipped phase 1.
        let durable = rm.log().durable_entries();
        assert!(durable.iter().any(|e| matches!(e.record, tabs_wal::LogRecord::Commit { .. })));
        assert!(!durable.iter().any(|e| matches!(e.record, tabs_wal::LogRecord::Prepare { .. })));
        assert_eq!(one_pc.get(), 1);
        assert_eq!(read_only.get(), 0);
    }

    #[test]
    fn fast_policy_read_only_voter_matches_seed_wire_traffic() {
        let (tm1, tm2, t1, t2, rm1, rm2) = two_node_rig();
        let read_only = Counter::default();
        tm2.set_fastpath_metrics(Counter::default(), read_only.clone());
        t1.set_children(vec![NodeId(2)]);
        let part2 = Arc::new(TracePart::default()); // read-only
        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", part2);
        assert!(tm1.end(t).unwrap());
        // The read-only voter's whole cost: no records, one Prepare out,
        // one VoteReadOnly back — plus the counter.
        assert!(rm1.log().durable_entries().is_empty());
        assert!(rm2.log().durable_entries().is_empty());
        let sent1 = t1.sent.lock().clone();
        assert_eq!(sent1.len(), 1);
        assert!(matches!(sent1[0].1, CommitMsg::Prepare { .. }));
        let sent2 = t2.sent.lock().clone();
        assert_eq!(sent2.len(), 1);
        assert!(matches!(sent2[0].1, CommitMsg::VoteReadOnly { .. }));
        assert_eq!(read_only.get(), 1);
    }

    #[test]
    fn quorum_waives_dead_minority_member_and_commits() {
        // Replica set {1, 2, 3}: the coordinator leads, node 2 is a live
        // follower, node 3 is dead. Two of three are durable, so the
        // missing vote is waived and the commit proceeds.
        let (tm1, tm2, t1, _t2, rm1, _rm2) = two_node_rig();
        tm1.set_replication(ReplicationPolicy::enabled());
        tm1.set_quorum_groups(vec![vec![NodeId(1), NodeId(2), NodeId(3)]]);
        let quorum = Counter::default();
        tm1.set_replication_metrics(quorum.clone(), Counter::default());
        t1.set_children(vec![NodeId(2), NodeId(3)]);
        t1.mark_dead(NodeId(3));
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);

        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", part2.clone());
        assert!(tm1.end(t).unwrap(), "minority death must not block the commit");
        assert!(tm1.await_phase2(Duration::from_secs(5)), "node 2 never acknowledged");
        assert_eq!(tm2.phase(t), Some(TxPhase::Committed));
        assert_eq!(quorum.get(), 1);
        assert!(rm1
            .log()
            .durable_entries()
            .iter()
            .any(|e| matches!(e.record, tabs_wal::LogRecord::Commit { .. })));
        // The dead member was asked to prepare but excluded from phase 2:
        // it learns the outcome from the durable record when it rejoins.
        let sent1 = t1.sent.lock().clone();
        assert!(sent1
            .iter()
            .any(|(to, m)| *to == NodeId(3) && matches!(m, CommitMsg::Prepare { .. })));
        assert!(!sent1
            .iter()
            .any(|(to, m)| *to == NodeId(3) && matches!(m, CommitMsg::Commit { .. })));
    }

    #[test]
    fn unreplicated_footprint_blocks_the_waiver_and_aborts() {
        // Same replica set {1, 2, 3} with node 3 dead — but node 3's
        // footprint includes unreplicated work (the transport reports it
        // not replica-only). No surviving member holds that state, so
        // presume-abort must win over the quorum waiver: committing would
        // silently drop the dead node's unreplicated writes.
        let (tm1, tm2, t1, _t2, _rm1, _rm2) = two_node_rig();
        tm1.set_replication(ReplicationPolicy::enabled());
        tm1.set_quorum_groups(vec![vec![NodeId(1), NodeId(2), NodeId(3)]]);
        tm1.set_timeouts(TmTimeouts {
            retransmit: Duration::from_millis(10),
            vote_deadline: Duration::from_millis(300),
            ack_deadline: Duration::from_millis(300),
        });
        t1.set_children(vec![NodeId(2), NodeId(3)]);
        t1.mark_dead(NodeId(3));
        t1.mark_plain(NodeId(3));
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);

        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", part2.clone());
        assert!(
            !tm1.end(t).unwrap(),
            "a dead member with unreplicated writes must abort, not be waived"
        );
        let deadline = Instant::now() + Duration::from_secs(2);
        while tm2.phase(t) != Some(TxPhase::Aborted) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(tm2.phase(t), Some(TxPhase::Aborted));
    }

    #[test]
    fn late_no_vote_during_the_waiver_window_still_aborts() {
        // Replica set {1, 2, 3}: node 2 votes Yes, node 3 looks dead, so
        // the waiver fast-path engages for node 3's missing vote. While
        // the coordinator is outside its lock probing reachability, node
        // 3's No vote lands — the waiver must notice it on re-lock and
        // abort: it stands in for silence, never for refusal.
        let (tm1, tm2, t1, _t2, _rm1, _rm2) = two_node_rig();
        tm1.set_replication(ReplicationPolicy::enabled());
        tm1.set_quorum_groups(vec![vec![NodeId(1), NodeId(2), NodeId(3)]]);
        t1.set_children(vec![NodeId(2), NodeId(3)]);
        t1.mark_dead(NodeId(3));
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);

        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", part2.clone());
        // The unreachability probe itself delivers the straggling No —
        // landing it precisely inside the unlocked window between the
        // waiver's reachability check and its commit decision.
        let tm1_handle = Arc::clone(&tm1);
        *t1.on_unreachable.lock() = Some(Box::new(move |probed| {
            if probed == NodeId(3) {
                tm1_handle.handle(NodeId(3), CommitMsg::VoteNo { tid: t, from: NodeId(3) });
            }
        }));
        assert!(
            !tm1.end(t).unwrap(),
            "a No vote racing the waiver's unlocked window must abort the commit"
        );
        // The abort reaches node 2 asynchronously (its worker pool).
        let deadline = Instant::now() + Duration::from_secs(2);
        while tm2.phase(t) != Some(TxPhase::Aborted) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(tm2.phase(t), Some(TxPhase::Aborted));
    }

    #[test]
    fn dead_majority_aborts_instead_of_waiving() {
        // Replica set {2, 3} without the coordinator: node 3 is dead and
        // node 2 alone is not a majority, so the seed fast-abort fires.
        let (tm1, tm2, t1, _t2, _rm1, _rm2) = two_node_rig();
        tm1.set_replication(ReplicationPolicy::enabled());
        tm1.set_quorum_groups(vec![vec![NodeId(2), NodeId(3)]]);
        tm1.set_timeouts(TmTimeouts {
            retransmit: Duration::from_millis(10),
            vote_deadline: Duration::from_millis(300),
            ack_deadline: Duration::from_millis(300),
        });
        t1.set_children(vec![NodeId(2), NodeId(3)]);
        t1.mark_dead(NodeId(3));
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);

        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", part2.clone());
        assert!(!tm1.end(t).unwrap(), "no quorum group majority: presume failure and abort");
        // Node 2 applies the abort on its worker pool and acknowledges;
        // dead node 3 is abandoned at the chaser's first tick.
        assert!(tm1.await_phase2(Duration::from_secs(5)), "abort chase never drained");
        assert_eq!(tm2.phase(t), Some(TxPhase::Aborted));
        assert!(part2.log.lock().iter().any(|l| l.contains("finish") && l.contains("false")));
    }

    #[test]
    fn acks_from_members_that_died_mid_commit_are_abandoned() {
        // Node 2 votes yes, then dies before acknowledging the decision:
        // the committer never waits for it, and the chaser abandons the
        // member at its first tick instead of retransmitting to the ack
        // deadline (the rejoining member resolves from the record).
        let (tm1, tm2, t1, _t2, _rm1, _rm2) = two_node_rig();
        tm1.set_replication(ReplicationPolicy::enabled());
        tm1.set_quorum_groups(vec![vec![NodeId(1), NodeId(2)]]);
        let abandoned = Counter::default();
        tm1.set_replication_metrics(Counter::default(), abandoned.clone());
        let (retransmits, expired) = (Counter::default(), Counter::default());
        tm1.set_phase2_metrics(retransmits.clone(), expired.clone(), Counter::default());
        tm1.set_timeouts(TmTimeouts {
            retransmit: Duration::from_millis(10),
            vote_deadline: Duration::from_secs(5),
            ack_deadline: Duration::from_secs(5),
        });
        t1.set_children(vec![NodeId(2)]);
        t1.drop_decisions_to.lock().insert(NodeId(2));
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);

        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", part2);
        // The member dies once the decision is made (the first phase-2
        // datagram is the one the transport loses).
        let dying = Arc::clone(&t1);
        *t1.on_send.lock() = Some(Box::new(move |to, m| {
            if matches!(m, CommitMsg::Commit { .. }) {
                dying.mark_dead(to);
            }
        }));
        let start = Instant::now();
        assert!(tm1.end(t).unwrap());
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "a dead member must not delay the committing caller"
        );
        assert!(
            tm1.await_phase2(Duration::from_secs(2)),
            "abandonment must empty the chaser well before the ack deadline"
        );
        assert_eq!(abandoned.get(), 1);
        assert_eq!((retransmits.get(), expired.get()), (0, 0));
        assert_eq!(t1.count_sent(|_, m| matches!(m, CommitMsg::Commit { .. })), 1);
        // The member never saw the decision: still prepared (in doubt),
        // to be resolved by recovery or cooperative termination.
        assert_eq!(tm2.phase(t), Some(TxPhase::Prepared));
    }

    #[test]
    fn commit_returns_at_the_commit_point_not_at_the_acknowledgement() {
        // The Commit datagram to node 2 is lost, so no CommitAck can come
        // back. The caller holds its answer right after the commit force
        // (the old blocking wait sat here until `ack_deadline`, 5 s);
        // node 2 is still prepared with its locks held; once the wire
        // heals, the chaser's retransmission delivers the decision and
        // the acknowledgement empties the pending map.
        let (tm1, tm2, t1, t2, rm1, _rm2) = two_node_rig();
        let (retransmits, expired, pending) =
            (Counter::default(), Counter::default(), Counter::default());
        tm1.set_phase2_metrics(retransmits.clone(), expired.clone(), pending.clone());
        tm1.set_timeouts(TmTimeouts {
            retransmit: Duration::from_millis(10),
            vote_deadline: Duration::from_secs(5),
            ack_deadline: Duration::from_secs(5),
        });
        t1.set_children(vec![NodeId(2)]);
        t1.drop_decisions_to.lock().insert(NodeId(2));
        let part1 = Arc::new(TracePart::default());
        part1.has_updates.store(true, Ordering::Relaxed);
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);

        let t = tm1.begin(Tid::NULL).unwrap();
        tm1.enlist(t, "s1", part1.clone());
        tm2.enlist(t, "s2", part2.clone());
        let start = Instant::now();
        assert!(tm1.end(t).unwrap());
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "end() waited for an acknowledgement that cannot change the outcome"
        );
        // The commit point has passed: record durable, coordinator-side
        // participant finished, exactly one Commit sent inline.
        assert!(rm1
            .log()
            .durable_entries()
            .iter()
            .any(|e| matches!(e.record, tabs_wal::LogRecord::Commit { .. })));
        assert!(part1.log.lock().iter().any(|l| l == &format!("finish {t} true")));
        assert!(t1.count_sent(|_, m| matches!(m, CommitMsg::Commit { .. })) >= 1);
        // The participant has not heard: prepared, locks held (no finish).
        assert_eq!(tm2.phase(t), Some(TxPhase::Prepared));
        assert!(!part2.log.lock().iter().any(|l| l.starts_with("finish")));
        assert_eq!(pending.get(), 1);
        assert!(!tm1.await_phase2(Duration::from_millis(50)), "nothing acknowledged yet");

        t1.drop_decisions_to.lock().clear();
        assert!(tm1.await_phase2(Duration::from_secs(5)), "retransmission never got through");
        assert_eq!(tm2.phase(t), Some(TxPhase::Committed));
        assert!(part2.log.lock().iter().any(|l| l == &format!("finish {t} true")));
        assert_eq!(pending.get(), 0);
        assert!(retransmits.get() >= 1, "the decision reached node 2 by retransmission");
        assert_eq!(expired.get(), 0);
        assert_eq!(t2.count_sent(|_, m| matches!(m, CommitMsg::CommitAck { .. })), 1);
    }

    #[test]
    fn abort_racing_a_claimed_commit_decision_is_refused() {
        // A suspicion callback (or deadlock-victim notice) snapshots the
        // transaction while it is still collecting votes and calls abort
        // after the coordinator has decided: the abort must lose, not
        // undo a commit the client is being told about.
        let (tm1, tm2, t1, _t2, _rm1, _rm2) = two_node_rig();
        t1.set_children(vec![NodeId(2)]);
        let part1 = Arc::new(TracePart::default());
        part1.has_updates.store(true, Ordering::Relaxed);
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);
        let t = tm1.begin(Tid::NULL).unwrap();
        tm1.enlist(t, "s1", part1.clone());
        tm2.enlist(t, "s2", part2.clone());
        let late_abort = Arc::new(Mutex::new(None));
        let (tm, seen) = (Arc::clone(&tm1), Arc::clone(&late_abort));
        *t1.on_send.lock() = Some(Box::new(move |_, m| {
            if matches!(m, CommitMsg::Commit { .. }) {
                *seen.lock() = Some(tm.abort(t));
            }
        }));
        assert!(tm1.end(t).unwrap());
        assert!(matches!(*late_abort.lock(), Some(Err(TmError::Unknown(_)))));
        assert!(tm1.await_phase2(Duration::from_secs(5)));
        assert_eq!(tm1.phase(t), Some(TxPhase::Committed));
        assert_eq!(tm2.phase(t), Some(TxPhase::Committed));
        assert!(!tm1.is_aborted(t));
        for part in [&part1, &part2] {
            assert!(!part.log.lock().iter().any(|l| l.contains("finish") && l.contains("false")));
        }
        assert_eq!(t1.count_sent(|_, m| matches!(m, CommitMsg::Abort { .. })), 0);
    }

    #[test]
    fn repeated_abort_releases_nothing_ahead_of_the_first_aborts_undo() {
        // An asynchronous abort (deadlock victim, suspicion) is still
        // between marking the transaction and releasing its locks when the
        // application, handed the victim's error, aborts it too. The
        // repeat must not re-release ahead of the first: a waiter let in
        // before the undo would have its write overwritten by it.
        struct Held {
            entered: Mutex<std::sync::mpsc::Sender<()>>,
            go: Mutex<std::sync::mpsc::Receiver<()>>,
            finishes: AtomicU64,
        }
        impl Participant for Held {
            fn prepare(&self, _tid: Tid) -> Result<bool, String> {
                Ok(true)
            }
            fn finish(&self, _tid: Tid, _committed: bool) {
                if self.finishes.fetch_add(1, Ordering::SeqCst) == 0 {
                    self.entered.lock().send(()).unwrap();
                    self.go.lock().recv().unwrap();
                }
            }
            fn commit_subtransaction(&self, _child: Tid, _parent: Tid) {}
        }
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel();
        let part = Arc::new(Held {
            entered: Mutex::new(entered_tx),
            go: Mutex::new(go_rx),
            finishes: AtomicU64::new(0),
        });
        let (tm, _rm, _p) = make_tm(NodeId(1));
        let t = tm.begin(Tid::NULL).unwrap();
        tm.enlist(t, "s", part.clone());
        let tm1 = Arc::clone(&tm);
        let first = std::thread::spawn(move || tm1.abort(t));
        entered_rx.recv_timeout(Duration::from_secs(5)).expect("first abort reached release");
        assert!(tm.is_aborted(t));
        // Every way back in waits: a second abort, an `end` that finds the
        // transaction aborted, a server's zombie guard.
        let tm2 = Arc::clone(&tm);
        let second = std::thread::spawn(move || tm2.abort(t));
        let tm3 = Arc::clone(&tm);
        let ended = std::thread::spawn(move || tm3.end(t));
        let tm4 = Arc::clone(&tm);
        let guard = std::thread::spawn(move || tm4.await_undo(t));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(part.finishes.load(Ordering::SeqCst), 1, "a repeat released early");
        assert!(!guard.is_finished(), "the zombie guard did not wait for the undo");
        // The wait is per transaction: another one aborts meanwhile.
        let other = tm.begin(Tid::NULL).unwrap();
        tm.enlist(other, "s", part.clone());
        tm.abort(other).unwrap();
        assert_eq!(part.finishes.load(Ordering::SeqCst), 2);
        go_tx.send(()).unwrap();
        first.join().unwrap().unwrap();
        second.join().unwrap().unwrap();
        assert!(!ended.join().unwrap().unwrap());
        guard.join().unwrap();
        assert_eq!(part.finishes.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn a_chase_that_is_never_acknowledged_expires_visibly() {
        let (tm1, tm2, t1, _t2, _rm1, _rm2) = two_node_rig();
        let (retransmits, expired, pending) =
            (Counter::default(), Counter::default(), Counter::default());
        tm1.set_phase2_metrics(retransmits.clone(), expired.clone(), pending.clone());
        tm1.set_timeouts(TmTimeouts {
            retransmit: Duration::from_millis(10),
            vote_deadline: Duration::from_secs(5),
            ack_deadline: Duration::from_millis(60),
        });
        t1.set_children(vec![NodeId(2)]);
        t1.drop_decisions_to.lock().insert(NodeId(2));
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);
        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", part2);
        assert!(tm1.end(t).unwrap());
        assert!(tm1.await_phase2(Duration::from_secs(5)), "the chase never gave up");
        assert_eq!(expired.get(), 1);
        assert!(retransmits.get() >= 1);
        assert_eq!(pending.get(), 0);
        // The outcome is still there for the in-doubt member to pull.
        assert_eq!(tm2.phase(t), Some(TxPhase::Prepared));
        assert!(tm1.outcomes.lock().get(&t) == Some(&true));
    }

    #[test]
    fn intermediate_node_acknowledges_its_parent_after_its_subtree() {
        // Chain 1 -> 2 -> 3. Node 3 never hears the decision, so node 2
        // must withhold its CommitAck and node 1's chase stays pending;
        // when node 3 finally acknowledges, the acks travel leaf-first.
        let (tm1, _rm1, _p1) = make_tm(NodeId(1));
        let (tm2, _rm2, _p2) = make_tm(NodeId(2));
        let (tm3, _rm3, _p3) = make_tm(NodeId(3));
        let mesh = Loopback::mesh(&[&tm1, &tm2, &tm3]);
        let (t1, t2) = (&mesh[0], &mesh[1]);
        t1.set_children(vec![NodeId(2)]);
        t2.set_children(vec![NodeId(3)]);
        t2.drop_decisions_to.lock().insert(NodeId(3));
        for tm in [&tm1, &tm2] {
            tm.set_timeouts(TmTimeouts {
                retransmit: Duration::from_millis(10),
                vote_deadline: Duration::from_secs(5),
                ack_deadline: Duration::from_secs(5),
            });
        }
        let part3 = Arc::new(TracePart::default());
        part3.has_updates.store(true, Ordering::Relaxed);
        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", Arc::new(TracePart::default()));
        tm3.enlist(t, "s3", part3);

        assert!(tm1.end(t).unwrap());
        // Long enough for node 1 to retransmit Commit to node 2 several
        // times: a repeated decision must not shake the ack loose early.
        assert!(!tm1.await_phase2(Duration::from_millis(100)));
        assert_eq!(tm2.phase(t), Some(TxPhase::Committed));
        assert_eq!(tm3.phase(t), Some(TxPhase::Prepared));
        assert_eq!(
            t2.count_sent(|_, m| matches!(m, CommitMsg::CommitAck { .. })),
            0,
            "node 2 acknowledged before its subtree had"
        );

        t2.drop_decisions_to.lock().clear();
        assert!(tm1.await_phase2(Duration::from_secs(5)));
        assert!(tm2.await_phase2(Duration::ZERO), "node 1 drained before node 2");
        assert_eq!(tm3.phase(t), Some(TxPhase::Committed));
        // (At least: a Commit retransmitted as the chase completes may
        // draw a second, harmless ack.)
        assert!(
            t2.count_sent(|to, m| *to == NodeId(1) && matches!(m, CommitMsg::CommitAck { .. }))
                >= 1
        );
    }

    #[test]
    fn acknowledged_abort_is_sent_once_and_leaves_nothing_pending() {
        // The old background chase re-sent Abort to every child every
        // retransmit interval for the whole ack deadline without ever
        // looking at the acknowledgements. The chaser stops at the ack.
        let (tm1, tm2, t1, t2, _rm1, _rm2) = two_node_rig();
        let (retransmits, pending) = (Counter::default(), Counter::default());
        tm1.set_phase2_metrics(retransmits.clone(), Counter::default(), pending.clone());
        tm1.set_timeouts(TmTimeouts {
            retransmit: Duration::from_millis(5),
            vote_deadline: Duration::from_secs(5),
            ack_deadline: Duration::from_secs(5),
        });
        t1.set_children(vec![NodeId(2)]);
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);
        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", part2);
        tm1.abort(t).unwrap();
        assert!(tm1.await_phase2(Duration::from_secs(5)), "the child never acknowledged");
        assert_eq!(tm2.phase(t), Some(TxPhase::Aborted));
        // Many retransmit intervals later there is still just the one.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(t1.count_sent(|_, m| matches!(m, CommitMsg::Abort { .. })), 1);
        assert_eq!(t2.count_sent(|_, m| matches!(m, CommitMsg::AbortAck { .. })), 1);
        assert_eq!((retransmits.get(), pending.get()), (0, 0));
    }

    #[test]
    fn two_node_abort_propagates() {
        let (tm1, tm2, t1, _t2, _rm1, rm2) = two_node_rig();
        t1.set_children(vec![NodeId(2)]);
        let part2 = Arc::new(TracePart::default());
        part2.has_updates.store(true, Ordering::Relaxed);
        let t = tm1.begin(Tid::NULL).unwrap();
        tm2.enlist(t, "s2", part2.clone());
        tm1.abort(t).unwrap();
        // Node 2 applies the abort on its worker pool, then acknowledges.
        assert!(tm1.await_phase2(Duration::from_secs(5)), "node 2 never acknowledged");
        assert_eq!(tm2.phase(t), Some(TxPhase::Aborted));
        assert!(part2.log.lock().iter().any(|l| l.contains("finish") && l.contains("false")));
        assert!(rm2
            .log()
            .all_entries()
            .iter()
            .any(|e| matches!(e.record, tabs_wal::LogRecord::Abort { .. })));
    }

    #[test]
    fn remote_prepare_failure_aborts_whole_transaction() {
        let (tm1, tm2, t1, _t2, _rm1, _rm2) = two_node_rig();
        t1.set_children(vec![NodeId(2)]);
        let part1 = Arc::new(TracePart::default());
        part1.has_updates.store(true, Ordering::Relaxed);
        let part2 = Arc::new(TracePart::default());
        part2.fail_prepare.store(true, Ordering::Relaxed);
        let t = tm1.begin(Tid::NULL).unwrap();
        tm1.enlist(t, "s1", part1.clone());
        tm2.enlist(t, "s2", part2);
        assert!(!tm1.end(t).unwrap());
        assert_eq!(tm1.phase(t), Some(TxPhase::Aborted));
        assert!(part1.log.lock().iter().any(|l| l.contains("finish") && l.contains("false")));
    }

    #[test]
    fn inquire_gets_presumed_abort_for_unknown_only_after_log_replay() {
        let (tm1, _tm2, t1, t2, _rm1, _rm2) = two_node_rig();
        let ghost = Tid { node: NodeId(1), incarnation: 1, seq: 999 };
        // Before node 1 has replayed its log it cannot prove the ghost
        // was never committed: the inquiry must draw no answer.
        t2.send(NodeId(1), CommitMsg::Inquire { tid: ghost, from: NodeId(2) });
        assert!(
            t1.sent.lock().is_empty(),
            "pre-recovery node answered an Inquire with presumed abort"
        );
        // After replay (empty log) the absence of a commit record is
        // proof, and presumed abort applies.
        tm1.load_recovery(&[], &[], &[]);
        t2.send(NodeId(1), CommitMsg::Inquire { tid: ghost, from: NodeId(2) });
        assert!(t1
            .sent
            .lock()
            .iter()
            .any(|(to, m)| *to == NodeId(2) && matches!(m, CommitMsg::Abort { .. })));
    }

    #[test]
    fn in_doubt_resolution_commits_via_inquire() {
        let (tm1, tm2, _t1, _t2, _rm1, _rm2) = two_node_rig();
        let t = tm1.begin(Tid::NULL).unwrap();
        // Simulate: node 1 committed t durably; node 2 recovered in doubt.
        tm1.outcomes.lock().insert(t, true);
        let part2 = Arc::new(TracePart::default());
        tm2.enlist(t, "s2", part2.clone());
        {
            let mut inner = tm2.inner.lock();
            inner.get_mut(&t).unwrap().phase = TxPhase::Prepared;
        }
        tm2.load_recovery(&[], &[], &[(t, NodeId(1))]);
        for _ in 0..100 {
            if tm2.phase(t) == Some(TxPhase::Committed) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(tm2.phase(t), Some(TxPhase::Committed));
        assert!(part2.log.lock().iter().any(|l| l.contains("finish") && l.contains("true")));
    }

    #[test]
    fn inquire_stays_silent_while_decision_is_pending() {
        let (tm1, _tm2, t1, t2, _rm1, _rm2) = two_node_rig();
        let t = tm1.begin(Tid::NULL).unwrap();
        // Decision in flight at node 1 (phase Running, no durable outcome):
        // an Inquire must NOT draw presumed abort — the commit record may
        // be about to land.
        t2.send(NodeId(1), CommitMsg::Inquire { tid: t, from: NodeId(2) });
        assert!(
            t1.sent.lock().is_empty(),
            "pending transaction answered an Inquire; presumed abort only \
             applies when the outcome provably was never logged"
        );
        // Once durably aborted, the same Inquire gets an authoritative answer.
        tm1.abort(t).unwrap();
        t2.send(NodeId(1), CommitMsg::Inquire { tid: t, from: NodeId(2) });
        assert!(t1
            .sent
            .lock()
            .iter()
            .any(|(to, m)| *to == NodeId(2) && matches!(m, CommitMsg::Abort { .. })));
    }

    #[test]
    fn cooperative_termination_resolves_via_peer_answer() {
        // Nodes 2 and 3 were fellow participants under coordinator node 1,
        // which is unreachable (absent from the loopback peer map). Node 3
        // durably knows t committed; node 2 is in doubt. The outcome-query
        // broadcast must end node 2's doubt without the coordinator.
        let (tm2, _rm2, _p2) = make_tm(NodeId(2));
        let (tm3, _rm3, _p3) = make_tm(NodeId(3));
        let (_t2, _t3) = Loopback::pair(&tm2, &tm3);
        tm2.set_cooperative_termination(true);
        let t = Tid { node: NodeId(1), incarnation: 1, seq: 7 };
        tm3.outcomes.lock().insert(t, true);
        let part2 = Arc::new(TracePart::default());
        tm2.enlist(t, "s2", part2.clone());
        {
            let mut inner = tm2.inner.lock();
            inner.get_mut(&t).unwrap().phase = TxPhase::Prepared;
        }
        tm2.load_recovery(&[], &[], &[(t, NodeId(1))]);
        for _ in 0..200 {
            if tm2.phase(t) == Some(TxPhase::Committed) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(tm2.phase(t), Some(TxPhase::Committed));
        assert!(part2.log.lock().iter().any(|l| l.contains("finish") && l.contains("true")));
        assert!(tm2.in_doubt_tids().is_empty());
    }

    #[test]
    fn outcome_query_for_unknown_tid_stays_silent() {
        let (_tm1, _tm2, t1, t2, _rm1, _rm2) = two_node_rig();
        let ghost = Tid { node: NodeId(9), incarnation: 1, seq: 1 };
        t2.send(NodeId(1), CommitMsg::OutcomeQuery { tid: ghost, from: NodeId(2) });
        assert!(
            t1.sent.lock().is_empty(),
            "a peer without durable knowledge must not answer an outcome query"
        );
    }

    #[test]
    fn suspected_child_aborts_running_coordinator_transaction() {
        let (tm1, _tm2, t1, _t2, rm1, _rm2) = two_node_rig();
        tm1.set_cooperative_termination(true);
        t1.set_children(vec![NodeId(2)]);
        let t = tm1.begin(Tid::NULL).unwrap();
        let part = Arc::new(TracePart::default());
        tm1.enlist(t, "s1", part);
        // The failure detector reports node 2 (a spanning-tree child of t)
        // unreachable before prepare: the coordinator aborts durably now.
        tm1.peer_suspected(NodeId(2));
        for _ in 0..100 {
            if tm1.phase(t) == Some(TxPhase::Aborted) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(tm1.phase(t), Some(TxPhase::Aborted));
        assert!(rm1
            .log()
            .all_entries()
            .iter()
            .any(|e| matches!(e.record, tabs_wal::LogRecord::Abort { .. })));
    }

    #[test]
    fn suspected_coordinator_starts_resolution_for_in_doubt() {
        // tm2 in doubt under coordinator node 3 (reachable via loopback):
        // the suspicion callback alone must pull the outcome.
        let (tm2, _rm2, _p2) = make_tm(NodeId(2));
        let (tm3, _rm3, _p3) = make_tm(NodeId(3));
        let (_t2, _t3) = Loopback::pair(&tm2, &tm3);
        tm2.set_cooperative_termination(true);
        let t = Tid { node: NodeId(3), incarnation: 1, seq: 4 };
        tm3.outcomes.lock().insert(t, false);
        let part2 = Arc::new(TracePart::default());
        tm2.enlist(t, "s2", part2.clone());
        {
            let mut inner = tm2.inner.lock();
            let info = inner.get_mut(&t).unwrap();
            info.phase = TxPhase::Prepared;
            info.remote_parent = Some(NodeId(3));
        }
        tm2.peer_suspected(NodeId(3));
        for _ in 0..200 {
            if tm2.phase(t) == Some(TxPhase::Aborted) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(tm2.phase(t), Some(TxPhase::Aborted));
        assert!(part2.log.lock().iter().any(|l| l.contains("finish") && l.contains("false")));
    }
}
