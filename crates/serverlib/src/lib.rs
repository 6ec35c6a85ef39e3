//! The TABS server library (§3.1.1, Table 3-1).
//!
//! Data servers are programmed against this library. It supplies:
//!
//! - **Startup**: `InitServer` / `ReadPermanentData` / `RecoverServer` /
//!   `AcceptRequests` — constructor, segment mapping, recovery-handler
//!   registration and the request loop.
//! - **Address arithmetic**: `CreateObjectID` /
//!   `ConvertObjectIDtoVirtualAddress` — [`OpCtx::create_object_id`] and
//!   [`OpCtx::object_offset`].
//! - **Locking**: `LockObject`, `ConditionallyLockObject`,
//!   `IsObjectLocked`, `LockAndMark`. "All unlocking is done automatically
//!   by the server library at commit or abort time."
//! - **Paging control & logging**: `PinObject`, `UnPinObject`,
//!   `UnPinAllObjects`, `PinAndBuffer`, `LogAndUnPin`,
//!   `PinAndBufferMarkedObjects`, `LogAndUnPinMarkedObjects` — plus the
//!   operation-logging primitive the paper lists as future work (§7).
//! - **Transaction management**: `ExecuteTransaction` runs a procedure in
//!   a new top-level transaction (used by the I/O server, §4.3).
//!
//! **Coroutine model** (§2.1.1/§3.1.1): "Lightweight processes use a
//! coroutine mechanism embedded within every data server. The server
//! library treats each incoming request as a separate coroutine
//! invocation. A coroutine switch is performed only when an operation
//! waits, e.g., for a lock or for starting a transaction." Here the
//! server's request port is a *served port*: each request runs on the
//! thread of whoever sent it — that thread is the coroutine's stack — but
//! *serialized by the server monitor*; the monitor is released exactly at
//! the paper's wait points, so data servers enjoy the same monitor
//! semantics the weak queue server relies on for its unlocked tail pointer
//! (§4.2). A request therefore never queues behind one parked in a lock
//! wait: every caller brought its own stack.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use tabs_detect::Detector;
use tabs_kernel::{Kernel, MappedSegment, Message, ObjectId, PortClass, PortId, SegmentId, Tid};
use tabs_lock::{DeadlockPolicy, LockError, LockManager, StdMode};
use tabs_obs::{Counter, TraceCollector};
use tabs_proto::{Deadline, RequestRef, ServerError};
use tabs_rm::{OperationHandler, RecoveryManager};
use tabs_tm::{Participant, TransactionManager};

use tabs_codec::DecodeRef;

pub mod quorum;

pub use quorum::{QuorumError, QuorumPolicy};

/// Everything a data server needs from its node.
#[derive(Clone)]
pub struct ServerDeps {
    /// The node's kernel.
    pub kernel: Kernel,
    /// The node's Recovery Manager.
    pub rm: Arc<RecoveryManager>,
    /// The node's Transaction Manager.
    pub tm: Arc<TransactionManager>,
    /// Optional trace collector; servers built from these deps record
    /// their lock activity against it.
    pub trace: Option<Arc<TraceCollector>>,
    /// Optional distributed deadlock detector; servers built from these
    /// deps export their waits-for edges to it.
    pub detect: Option<Arc<Detector>>,
    /// `admission.shed` counter: requests rejected by the admission gate.
    pub admission_shed: Option<Counter>,
    /// `deadline.expired` counter: requests rejected (or waits cut short)
    /// because their end-to-end deadline had passed.
    pub deadline_expired: Option<Counter>,
}

impl ServerDeps {
    /// Bundles the node facilities a data server needs.
    pub fn new(kernel: Kernel, rm: Arc<RecoveryManager>, tm: Arc<TransactionManager>) -> Self {
        Self {
            kernel,
            rm,
            tm,
            trace: None,
            detect: None,
            admission_shed: None,
            deadline_expired: None,
        }
    }

    /// Attaches the node's trace collector.
    pub fn with_trace(mut self, trace: Arc<TraceCollector>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches the node's distributed deadlock detector.
    pub fn with_detect(mut self, detect: Arc<Detector>) -> Self {
        self.detect = Some(detect);
        self
    }

    /// Wires the node's overload counters: `admission.shed` (requests
    /// rejected by the admission gate) and `deadline.expired` (work
    /// rejected because its budget ran out).
    pub fn with_admission_metrics(mut self, shed: Counter, expired: Counter) -> Self {
        self.admission_shed = Some(shed);
        self.deadline_expired = Some(expired);
        self
    }
}

/// Configuration for one data server. Construct with
/// [`ServerConfig::new`] and the builder methods; the struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking callers.
#[derive(Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Server name (used for Transaction Manager enlistment and threads).
    pub name: String,
    /// The recoverable segment holding the server's permanent data.
    pub segment: SegmentId,
    /// Lock wait time-out (the paper's deadlock resolution, §2.1.3).
    pub lock_timeout: Duration,
    /// Deadlock policy; `Timeout` is the paper's, `Detect` the extension.
    pub deadlock_policy: DeadlockPolicy,
    /// Admission limit: the maximum number of transactions this server
    /// will have in flight at once. A request that would *admit a new
    /// transaction* past the limit is shed with
    /// [`ServerError::Overloaded`] before it enlists, locks, or logs
    /// anything; requests of already-admitted transactions always pass
    /// (shedding those would strand partially-done work in 2PC). `None`
    /// (the default) accepts unboundedly, the seed behaviour.
    pub admission_limit: Option<usize>,
    /// The `retry_after_hint` returned with [`ServerError::Overloaded`]:
    /// how long shed clients should wait before retrying.
    pub retry_after_hint: Duration,
}

impl ServerConfig {
    /// A standard configuration.
    pub fn new(name: &str, segment: SegmentId) -> Self {
        Self {
            name: name.to_string(),
            segment,
            lock_timeout: Duration::from_millis(300),
            deadlock_policy: DeadlockPolicy::Timeout,
            admission_limit: None,
            retry_after_hint: Duration::from_millis(5),
        }
    }

    /// Overrides the lock wait time-out ("time-outs, which are explicitly
    /// set by system users", §2.1.3).
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// Overrides the deadlock policy (`Timeout` is the paper's; `Detect`
    /// the waits-for-graph extension).
    pub fn with_deadlock_policy(mut self, policy: DeadlockPolicy) -> Self {
        self.deadlock_policy = policy;
        self
    }

    /// Caps concurrent in-flight transactions; excess new work is shed
    /// with [`ServerError::Overloaded`] before touching any object.
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = Some(limit.max(1));
        self
    }

    /// Overrides the backoff hint shed clients receive.
    pub fn with_retry_after_hint(mut self, hint: Duration) -> Self {
        self.retry_after_hint = hint;
        self
    }
}

type OpRedo = Box<dyn Fn(ObjectId, &[u8]) -> Result<(), String> + Send + Sync>;
type OpUndo = Box<dyn Fn(ObjectId, &[u8]) -> Result<(), String> + Send + Sync>;

/// Per-transaction server-side bookkeeping.
#[derive(Default)]
struct TxCtx {
    /// Pinned objects (for `UnPinAllObjects` and leak checks).
    pinned: Vec<ObjectId>,
    /// Old images captured by `PinAndBuffer`, awaiting `LogAndUnPin`.
    buffered: HashMap<ObjectId, Vec<u8>>,
    /// The `LockAndMark` "to be modified" queue.
    marked: Vec<ObjectId>,
    /// Whether the transaction performed updates here (drives the
    /// read-only commit optimization).
    updates: bool,
    /// The earliest end-to-end deadline seen on this transaction's
    /// requests; lock waits cap themselves at its remaining budget.
    deadline: Option<Deadline>,
}

struct ServerInner {
    name: String,
    rm: Arc<RecoveryManager>,
    tm: Arc<TransactionManager>,
    locks: Arc<LockManager<StdMode>>,
    segment: MappedSegment,
    seg_id: SegmentId,
    lock_timeout: Duration,
    admission_limit: Option<usize>,
    retry_after_hint: Duration,
    admission_shed: Option<Counter>,
    deadline_expired: Option<Counter>,
    /// The coroutine monitor: at most one request body runs at a time.
    monitor: Mutex<()>,
    tx: Mutex<HashMap<Tid, TxCtx>>,
    ops: Mutex<HashMap<String, (OpRedo, OpUndo)>>,
}

/// One data server built on the server library.
#[derive(Clone)]
pub struct DataServer {
    inner: Arc<ServerInner>,
    port: PortId,
    send: tabs_kernel::SendRight,
    rx: Arc<Mutex<Option<tabs_kernel::ReceiveRight>>>,
}

impl std::fmt::Debug for DataServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataServer")
            .field("name", &self.inner.name)
            .field("port", &self.port)
            .finish()
    }
}

/// The dispatch function a server supplies to `AcceptRequests`.
pub type Dispatch =
    Arc<dyn Fn(&OpCtx<'_>, u32, &[u8]) -> Result<Vec<u8>, ServerError> + Send + Sync>;

impl DataServer {
    /// `InitServer` + `ReadPermanentData`: creates the server, maps its
    /// recoverable segment, allocates its request port, and registers its
    /// recovery handler with the Recovery Manager (`RecoverServer`).
    ///
    /// The segment must already be registered with the node's buffer pool.
    pub fn new(deps: &ServerDeps, config: ServerConfig) -> Result<Self, ServerError> {
        let segment = MappedSegment::new(Arc::clone(deps.rm.pool()), config.segment)
            .map_err(|e| ServerError::Storage(e.to_string()))?;
        let (send, rx) = deps.kernel.allocate_port(PortClass::DataServer);
        let inner = Arc::new(ServerInner {
            name: config.name,
            rm: Arc::clone(&deps.rm),
            tm: Arc::clone(&deps.tm),
            locks: LockManager::shared(config.deadlock_policy),
            segment,
            seg_id: config.segment,
            lock_timeout: config.lock_timeout,
            admission_limit: config.admission_limit,
            retry_after_hint: config.retry_after_hint,
            admission_shed: deps.admission_shed.clone(),
            deadline_expired: deps.deadline_expired.clone(),
            monitor: Mutex::new(()),
            tx: Mutex::new(HashMap::new()),
            ops: Mutex::new(HashMap::new()),
        });
        if let Some(trace) = &deps.trace {
            inner.locks.set_trace(Arc::clone(trace));
        }
        if let Some(detect) = &deps.detect {
            // Export this server's waits-for edges to the node's
            // distributed deadlock detector.
            detect.register_source(Arc::clone(&inner.locks) as _);
        }
        // `RecoverServer`: the Recovery Manager dispatches this server's
        // operation-logged records (and in-doubt relocks) through us.
        deps.rm.register_handler(
            config.segment,
            Arc::new(ServerRecovery { inner: Arc::clone(&inner) }),
        );
        Ok(DataServer { port: send.id(), send, inner, rx: Arc::new(Mutex::new(Some(rx))) })
    }

    /// The server's request port (register it with the Name Server).
    pub fn port_id(&self) -> PortId {
        self.port
    }

    /// A send right to this server (local callers).
    pub fn send_right(&self) -> tabs_kernel::SendRight {
        self.send.clone()
    }

    /// The server's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The mapped recoverable segment, for initialization-time access
    /// before requests are accepted.
    pub fn segment(&self) -> &MappedSegment {
        &self.inner.segment
    }

    /// The server's lock manager (exposed for tests and tools).
    pub fn locks(&self) -> &Arc<LockManager<StdMode>> {
        &self.inner.locks
    }

    /// Registers redo/undo functions for an operation-logged operation
    /// (the operation-logging primitives of §7's future-work list).
    pub fn register_operation(
        &self,
        name: &str,
        redo: impl Fn(ObjectId, &[u8]) -> Result<(), String> + Send + Sync + 'static,
        undo: impl Fn(ObjectId, &[u8]) -> Result<(), String> + Send + Sync + 'static,
    ) {
        self.inner.ops.lock().insert(name.to_string(), (Box::new(redo), Box::new(undo)));
    }

    /// `AcceptRequests`: serves the request port. From here on a request
    /// sent to it is a coroutine invocation on the sender's thread,
    /// serialized by the server monitor.
    pub fn accept_requests(&self, dispatch: Dispatch) {
        let rx = self.rx.lock().take().expect("accept_requests called twice");
        let inner = Arc::clone(&self.inner);
        let participant: Arc<dyn Participant> =
            Arc::new(ServerParticipant { inner: Arc::clone(&self.inner) });
        rx.serve(move |msg| ServerInner::serve_one(&inner, &dispatch, &participant, msg));
    }
}

impl ServerInner {
    /// One request, on its sender's thread: the gates, the operation, the
    /// reply (already queued when the sender's `send` returns).
    fn serve_one(
        inner: &Arc<ServerInner>,
        dispatch: &Dispatch,
        participant: &Arc<dyn Participant>,
        msg: Message,
    ) {
        let result = Self::admit_and_run(inner, dispatch, participant, &msg.body);
        if let Some(r) = msg.reply {
            let _ = r.send_unmetered(tabs_proto::rpc::response_message(result));
        }
    }

    fn admit_and_run(
        inner: &Arc<ServerInner>,
        dispatch: &Dispatch,
        participant: &Arc<dyn Participant>,
        body: &[u8],
    ) -> Result<Vec<u8>, ServerError> {
        // Borrowed decode: the argument bytes are dispatched straight out
        // of the message buffer instead of being copied per request.
        let req =
            RequestRef::decode_ref_all(body).map_err(|e| ServerError::BadRequest(e.to_string()))?;
        // TransactionIsAborted: refuse work for aborted transactions.
        if !req.tid.is_null() && inner.tm.is_aborted(req.tid) {
            return Err(ServerError::Aborted(format!("{}", req.tid)));
        }
        // Deadline gate: work whose end-to-end budget has already run out
        // is refused here — before the admission check, the enlistment,
        // the monitor, and any lock or log — so retry storms of expired
        // work cost the server nothing but this decode.
        if req.deadline.is_some_and(|d| d.is_expired()) {
            if let Some(c) = &inner.deadline_expired {
                c.inc();
            }
            return Err(ServerError::DeadlineExceeded);
        }
        if !req.tid.is_null() {
            let mut tx = inner.tx.lock();
            // Admission gate: a request that would admit a *new*
            // transaction past the in-flight limit is shed before it
            // enlists, locks, or logs anything (so rejection leaks nothing
            // — no 2PC state, no WAL records, no locks). Requests of
            // already-admitted transactions always pass: shedding those
            // would strand partially-done work.
            if inner.admission_limit.is_some_and(|limit| tx.len() >= limit)
                && !tx.contains_key(&req.tid)
            {
                drop(tx);
                if let Some(c) = &inner.admission_shed {
                    c.inc();
                }
                return Err(ServerError::Overloaded { retry_after_hint: inner.retry_after_hint });
            }
            // Enlist with the Transaction Manager on first contact (§3.2.3).
            match tx.entry(req.tid) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(TxCtx { deadline: req.deadline, ..TxCtx::default() });
                    drop(tx);
                    inner.tm.enlist(req.tid, &inner.name, Arc::clone(participant));
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    // Later requests tighten (never loosen) the budget.
                    if let Some(d) = req.deadline {
                        let ctx = e.get_mut();
                        ctx.deadline = Some(ctx.deadline.map_or(d, |prev| prev.min(d)));
                    }
                }
            }
        }
        // Enter the monitor: the coroutine runs. It runs on the caller's
        // stack — an application thread or a Communication Manager relay
        // worker — so a panicking operation fails its own call and
        // nothing else; unwinding drops the context, which releases the
        // monitor.
        catch_unwind(AssertUnwindSafe(|| {
            let guard = inner.monitor.lock();
            let ctx = OpCtx { server: inner, tid: req.tid, guard: RefCell::new(Some(guard)) };
            dispatch(&ctx, req.opcode, req.args)
        }))
        .unwrap_or_else(|_| Err(ServerError::Other(format!("{}: operation panicked", inner.name))))
    }

    fn tx_updates(&self, tid: Tid) -> bool {
        self.tx.lock().get(&tid).map(|c| c.updates).unwrap_or(false)
    }

    fn tx_deadline(&self, tid: Tid) -> Option<Deadline> {
        self.tx.lock().get(&tid).and_then(|c| c.deadline)
    }
}

/// The Transaction Manager's participant hooks for a library server.
struct ServerParticipant {
    inner: Arc<ServerInner>,
}

impl Participant for ServerParticipant {
    fn prepare(&self, tid: Tid) -> Result<bool, String> {
        // The checkpoint protocol requires no pins survive an operation;
        // a transaction that leaked pins is refused (programming error).
        let tx = self.inner.tx.lock();
        if let Some(ctx) = tx.get(&tid) {
            if !ctx.pinned.is_empty() {
                return Err(format!("transaction {tid} left {} objects pinned", ctx.pinned.len()));
            }
            if !ctx.buffered.is_empty() {
                return Err(format!("transaction {tid} has unlogged buffered objects"));
            }
            Ok(ctx.updates)
        } else {
            Ok(false)
        }
    }

    fn finish(&self, tid: Tid, _committed: bool) {
        // "All unlocking is done automatically by the server library at
        // commit or abort time" (§3.1.1). Undo itself was already applied
        // by the Recovery Manager on the abort path.
        self.inner.locks.release_all(tid);
        self.inner.tx.lock().remove(&tid);
    }

    fn commit_subtransaction(&self, child: Tid, parent: Tid) {
        self.inner.locks.transfer(child, parent);
        let mut tx = self.inner.tx.lock();
        let child_ctx = tx.remove(&child);
        if let Some(cc) = child_ctx {
            let pc = tx.entry(parent).or_default();
            pc.updates |= cc.updates;
            pc.pinned.extend(cc.pinned);
        }
    }
}

/// The Recovery Manager's dispatch into this server for operation-logged
/// records and in-doubt relocking.
struct ServerRecovery {
    inner: Arc<ServerInner>,
}

impl OperationHandler for ServerRecovery {
    fn redo(&self, object: ObjectId, name: &str, redo: &[u8]) -> Result<(), String> {
        let ops = self.inner.ops.lock();
        let (redo_fn, _) = ops.get(name).ok_or_else(|| format!("unknown op {name}"))?;
        redo_fn(object, redo)
    }

    fn undo(&self, object: ObjectId, name: &str, undo: &[u8]) -> Result<(), String> {
        let ops = self.inner.ops.lock();
        let (_, undo_fn) = ops.get(name).ok_or_else(|| format!("unknown op {name}"))?;
        undo_fn(object, undo)
    }

    fn relock(&self, tid: Tid, object: ObjectId) {
        // Recovery runs before requests are accepted: no contention.
        let _ = self.inner.locks.try_lock(tid, object, StdMode::Exclusive);
        // Re-enlist with the Transaction Manager: when the in-doubt
        // transaction's outcome arrives, the phase-2 finish must reach
        // this server to release the relocked objects (without this, an
        // in-doubt transaction resolved after recovery leaked its locks).
        let mut tx = self.inner.tx.lock();
        if let std::collections::hash_map::Entry::Vacant(e) = tx.entry(tid) {
            e.insert(TxCtx::default());
            drop(tx);
            let participant: Arc<dyn Participant> =
                Arc::new(ServerParticipant { inner: Arc::clone(&self.inner) });
            self.inner.tm.enlist(tid, &self.inner.name, participant);
        }
    }
}

/// The per-request context handed to dispatch functions: the server
/// library interface of Table 3-1 plus the segment view.
pub struct OpCtx<'a> {
    server: &'a Arc<ServerInner>,
    /// The requesting transaction.
    pub tid: Tid,
    guard: RefCell<Option<MutexGuard<'a, ()>>>,
}

impl<'a> OpCtx<'a> {
    /// Runs `f` with the server monitor released — the coroutine switch at
    /// a wait point.
    fn coroutine_wait<R>(&self, f: impl FnOnce() -> R) -> R {
        let held = self.guard.borrow_mut().take();
        drop(held);
        let r = f();
        *self.guard.borrow_mut() = Some(self.server.monitor.lock());
        r
    }

    // ---- Address arithmetic ----

    /// `CreateObjectID(VirtualAddress, Length)`: an object identifier for
    /// `len` bytes at byte offset `offset` of the recoverable segment.
    pub fn create_object_id(&self, offset: u64, len: u32) -> ObjectId {
        ObjectId::new(self.server.seg_id, offset, len)
    }

    /// `ConvertObjectIDtoVirtualAddress`: the byte offset back out.
    pub fn object_offset(&self, object: ObjectId) -> u64 {
        object.offset
    }

    // ---- Locking ----

    /// `LockObject`: acquires `mode`, waiting (with the server's time-out,
    /// capped at the transaction's remaining deadline budget) if
    /// unavailable; the monitor is released while waiting.
    pub fn lock_object(&self, object: ObjectId, mode: StdMode) -> Result<(), ServerError> {
        if !self.server.locks.try_lock(self.tid, object, mode) {
            // A transaction with 50ms of budget must not block the full
            // configured lock time-out: the wait is min(timeout,
            // remaining). The lock manager's time-out path releases the
            // queue slot and batons the wakeup to successors, so an
            // expiring waiter never strands the FIFO queue.
            let deadline = self.server.tx_deadline(self.tid);
            let timeout = match deadline {
                Some(d) => d.cap(self.server.lock_timeout),
                None => self.server.lock_timeout,
            };
            let locks = Arc::clone(&self.server.locks);
            let tid = self.tid;
            self.coroutine_wait(move || locks.lock(tid, object, mode, timeout)).map_err(
                |e| match e {
                    LockError::Timeout(_) => {
                        if deadline.is_some_and(|d| d.is_expired()) {
                            if let Some(c) = &self.server.deadline_expired {
                                c.inc();
                            }
                            ServerError::DeadlineExceeded
                        } else {
                            ServerError::LockTimeout
                        }
                    }
                    LockError::Deadlock(_) => ServerError::Deadlock,
                },
            )?;
        }
        // The transaction may have been aborted before this grant: while
        // the request was blocked (deadlock victim, remote abort), or —
        // on the immediate-grant path — before the request even reached
        // this server (a delayed or duplicate call racing the abort
        // datagram). In both cases the abort already released the
        // transaction's locks and undid its updates, so a lock granted
        // *now* would never be swept up again. The Transaction Manager
        // marks the phase aborted before any release, so checking after
        // the grant is race-free: refuse the grant rather than write as
        // a zombie after rollback.
        if self.server.tm.is_aborted(self.tid) {
            // Not ahead of that abort's undo: a waiter let in now could
            // read a value the undo is about to restore.
            self.server.tm.await_undo(self.tid);
            self.server.locks.release_all(self.tid);
            return Err(ServerError::Aborted(format!("{} aborted before lock grant", self.tid)));
        }
        Ok(())
    }

    /// `ConditionallyLockObject`: acquires only if immediately available.
    pub fn conditionally_lock_object(&self, object: ObjectId, mode: StdMode) -> bool {
        if !self.server.locks.try_lock(self.tid, object, mode) {
            return false;
        }
        // Same zombie guard as `lock_object`: a grant for an
        // already-aborted transaction would never be released.
        if self.server.tm.is_aborted(self.tid) {
            self.server.tm.await_undo(self.tid);
            self.server.locks.release_all(self.tid);
            return false;
        }
        true
    }

    /// `IsObjectLocked`: whether any transaction holds a lock on `object`.
    pub fn is_object_locked(&self, object: ObjectId) -> bool {
        self.server.locks.is_locked(object)
    }

    // ---- Paging control ----

    fn pool(&self) -> Arc<tabs_kernel::BufferPool> {
        Arc::clone(self.server.segment.pool())
    }

    /// `PinObject`: prevents the object's pages from being paged out.
    pub fn pin_object(&self, object: ObjectId) -> Result<(), ServerError> {
        let pool = self.pool();
        for page in object.pages() {
            pool.pin(page).map_err(|e| ServerError::Storage(e.to_string()))?;
        }
        self.server.tx.lock().entry(self.tid).or_default().pinned.push(object);
        Ok(())
    }

    /// `UnPinObject`.
    pub fn unpin_object(&self, object: ObjectId) -> Result<(), ServerError> {
        let pool = self.pool();
        for page in object.pages() {
            pool.unpin(page).map_err(|e| ServerError::Storage(e.to_string()))?;
        }
        if let Some(ctx) = self.server.tx.lock().get_mut(&self.tid) {
            if let Some(i) = ctx.pinned.iter().position(|o| *o == object) {
                ctx.pinned.remove(i);
            }
        }
        Ok(())
    }

    /// `UnPinAllObjects`.
    pub fn unpin_all_objects(&self) -> Result<(), ServerError> {
        let pinned: Vec<ObjectId> = self
            .server
            .tx
            .lock()
            .get_mut(&self.tid)
            .map(|c| std::mem::take(&mut c.pinned))
            .unwrap_or_default();
        let pool = self.pool();
        for object in pinned {
            for page in object.pages() {
                pool.unpin(page).map_err(|e| ServerError::Storage(e.to_string()))?;
            }
        }
        Ok(())
    }

    // ---- Data access ----

    /// Reads the object's current bytes.
    pub fn read_object(&self, object: ObjectId) -> Result<Vec<u8>, ServerError> {
        self.server
            .segment
            .read_vec(object.offset, object.len as usize)
            .map_err(|e| ServerError::Storage(e.to_string()))
    }

    /// Writes bytes *without* logging. For volatile-reconstructible data
    /// only (e.g. the weak queue's tail pointer, §4.2) — not failure
    /// atomic.
    pub fn write_raw(&self, object: ObjectId, data: &[u8]) -> Result<(), ServerError> {
        if data.len() != object.len as usize {
            return Err(ServerError::BadRequest("size mismatch".into()));
        }
        self.server
            .segment
            .write(object.offset, data)
            .map_err(|e| ServerError::Storage(e.to_string()))
    }

    /// The mapped segment, for richer typed access.
    pub fn segment(&self) -> &MappedSegment {
        &self.server.segment
    }

    // ---- Logging (value) ----

    /// `PinAndBuffer`: pins the object and copies its existing (old) value
    /// into a buffer in anticipation of a modification.
    pub fn pin_and_buffer(&self, object: ObjectId) -> Result<(), ServerError> {
        self.pin_object(object)?;
        let old = self.read_object(object)?;
        self.server.tx.lock().entry(self.tid).or_default().buffered.insert(object, old);
        Ok(())
    }

    /// `LogAndUnPin`: sends the buffered old value and the existing (new)
    /// value to the Recovery Manager, then unpins the object.
    pub fn log_and_unpin(&self, object: ObjectId) -> Result<(), ServerError> {
        let old = self
            .server
            .tx
            .lock()
            .get_mut(&self.tid)
            .and_then(|c| c.buffered.remove(&object))
            .ok_or_else(|| ServerError::BadRequest("object was not buffered".into()))?;
        let new = self.read_object(object)?;
        self.server.rm.log_value_update(self.tid, object, old, new);
        self.server.tx.lock().entry(self.tid).or_default().updates = true;
        self.unpin_object(object)
    }

    // ---- Locking + logging batches (the B-tree path, §4.4) ----

    /// `LockAndMark`: locks the object and enqueues it on the
    /// "to be modified" queue.
    pub fn lock_and_mark(&self, object: ObjectId, mode: StdMode) -> Result<(), ServerError> {
        self.lock_object(object, mode)?;
        self.server.tx.lock().entry(self.tid).or_default().marked.push(object);
        Ok(())
    }

    /// `PinAndBufferMarkedObjects`: pins every marked object and buffers
    /// its current (old) value.
    pub fn pin_and_buffer_marked_objects(&self) -> Result<(), ServerError> {
        let marked: Vec<ObjectId> =
            self.server.tx.lock().get(&self.tid).map(|c| c.marked.clone()).unwrap_or_default();
        for object in marked {
            if !self
                .server
                .tx
                .lock()
                .get(&self.tid)
                .map(|c| c.buffered.contains_key(&object))
                .unwrap_or(false)
            {
                self.pin_and_buffer(object)?;
            }
        }
        Ok(())
    }

    /// `LogAndUnPinMarkedObjects`: logs old/new for every marked object,
    /// unpins them all, and clears the queue.
    pub fn log_and_unpin_marked_objects(&self) -> Result<(), ServerError> {
        let marked: Vec<ObjectId> = self
            .server
            .tx
            .lock()
            .get_mut(&self.tid)
            .map(|c| std::mem::take(&mut c.marked))
            .unwrap_or_default();
        for object in marked {
            let buffered = self
                .server
                .tx
                .lock()
                .get(&self.tid)
                .map(|c| c.buffered.contains_key(&object))
                .unwrap_or(false);
            if buffered {
                self.log_and_unpin(object)?;
            }
        }
        Ok(())
    }

    // ---- Logging (operation) ----

    /// Spools an operation-logging record for a registered operation. The
    /// caller has already applied the operation to the mapped segment.
    pub fn log_operation(
        &self,
        object: ObjectId,
        name: &str,
        undo_args: Vec<u8>,
        redo_args: Vec<u8>,
    ) -> Result<(), ServerError> {
        if !self.server.ops.lock().contains_key(name) {
            return Err(ServerError::BadRequest(format!("operation {name} not registered")));
        }
        self.server.rm.log_operation(self.tid, object, name, undo_args, redo_args);
        self.server.tx.lock().entry(self.tid).or_default().updates = true;
        Ok(())
    }

    // ---- Transaction management ----

    /// `ExecuteTransaction`: runs `f` within a new top-level transaction
    /// (used by servers that must commit effects independently of the
    /// client's transaction, like the I/O server, §4.3). Starting a
    /// transaction is a wait point: the monitor is released around the
    /// begin/commit exchanges.
    pub fn execute_transaction(
        &self,
        f: impl FnOnce(&OpCtx<'a>) -> Result<Vec<u8>, ServerError>,
    ) -> Result<Vec<u8>, ServerError> {
        let tm = Arc::clone(&self.server.tm);
        let new_tid = self
            .coroutine_wait(|| tm.begin(Tid::NULL))
            .map_err(|e| ServerError::Other(e.to_string()))?;
        // Enlist ourselves so commit reaches this server's participant.
        {
            let mut tx = self.server.tx.lock();
            tx.entry(new_tid).or_default();
        }
        let participant: Arc<dyn Participant> =
            Arc::new(ServerParticipant { inner: Arc::clone(self.server) });
        tm.enlist(new_tid, &self.server.name, participant);
        let sub_ctx = OpCtx {
            server: self.server,
            tid: new_tid,
            guard: RefCell::new(self.guard.borrow_mut().take()),
        };
        let result = f(&sub_ctx);
        // Return the monitor guard to the outer context.
        *self.guard.borrow_mut() = sub_ctx.guard.borrow_mut().take();
        drop(sub_ctx);
        match &result {
            Ok(_) => {
                let committed = self
                    .coroutine_wait(|| tm.end(new_tid))
                    .map_err(|e| ServerError::Other(e.to_string()))?;
                if !committed {
                    return Err(ServerError::Aborted(format!("{new_tid}")));
                }
            }
            Err(_) => {
                let _ = self.coroutine_wait(|| tm.abort(new_tid));
            }
        }
        result
    }

    /// Whether the current transaction performed updates on this server.
    pub fn has_updates(&self) -> bool {
        self.server.tx_updates(self.tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tabs_kernel::{BufferPool, MemDisk, NodeId, PerfCounters, SegmentSpec};
    use tabs_wal::{LogManager, MemLogDevice};

    // A tiny rig: one node's kernel/rm/tm plus one data server exposing a
    // u64-cell interface (opcode 1 = get(idx), opcode 2 = set(idx, val)).

    struct Rig {
        deps: ServerDeps,
        pool: Arc<BufferPool>,
    }

    fn seg() -> SegmentId {
        SegmentId { node: NodeId(1), index: 0 }
    }

    fn rig() -> Rig {
        let kernel = Kernel::new(NodeId(1));
        let perf = Arc::clone(kernel.perf());
        let pool = BufferPool::new(32, Arc::clone(&perf));
        pool.register_segment(SegmentSpec {
            id: seg(),
            name: "cells".into(),
            disk: MemDisk::new(64),
            base_sector: 0,
            pages: 64,
        })
        .unwrap();
        let log = LogManager::open(MemLogDevice::new(1 << 20), Arc::clone(&perf)).unwrap();
        let rm = RecoveryManager::new(NodeId(1), log, Arc::clone(&pool), perf);
        pool.set_gate(rm.gate());
        let tm = TransactionManager::new(NodeId(1), 1, Arc::clone(&rm), PerfCounters::new());
        Rig { deps: ServerDeps::new(kernel, rm, tm), pool }
    }

    fn cell_dispatch() -> Dispatch {
        Arc::new(|ctx, opcode, args| {
            let idx = u64::from_le_bytes(args[..8].try_into().unwrap());
            let obj = ctx.create_object_id(idx * 8, 8);
            match opcode {
                1 => {
                    ctx.lock_object(obj, StdMode::Shared)?;
                    ctx.read_object(obj)
                }
                2 => {
                    let val = &args[8..16];
                    ctx.lock_object(obj, StdMode::Exclusive)?;
                    ctx.pin_and_buffer(obj)?;
                    ctx.write_raw(obj, val)?;
                    ctx.log_and_unpin(obj)?;
                    Ok(vec![])
                }
                _ => Err(ServerError::BadRequest("opcode".into())),
            }
        })
    }

    fn start_cell_server(r: &Rig) -> DataServer {
        let ds = DataServer::new(&r.deps, ServerConfig::new("cells", seg())).unwrap();
        ds.accept_requests(cell_dispatch());
        ds
    }

    fn get(r: &Rig, ds: &DataServer, tid: Tid, idx: u64) -> Result<u64, tabs_proto::RpcError> {
        let out =
            tabs_proto::call(&r.deps.kernel, &ds.send_right(), tid, 1, idx.to_le_bytes().to_vec())?;
        Ok(u64::from_le_bytes(out[..8].try_into().unwrap()))
    }

    fn set(
        r: &Rig,
        ds: &DataServer,
        tid: Tid,
        idx: u64,
        val: u64,
    ) -> Result<(), tabs_proto::RpcError> {
        let mut args = idx.to_le_bytes().to_vec();
        args.extend_from_slice(&val.to_le_bytes());
        tabs_proto::call(&r.deps.kernel, &ds.send_right(), tid, 2, args)?;
        Ok(())
    }

    #[test]
    fn set_get_commit_cycle() {
        let r = rig();
        let ds = start_cell_server(&r);
        let t = r.deps.tm.begin(Tid::NULL).unwrap();
        set(&r, &ds, t, 3, 42).unwrap();
        assert_eq!(get(&r, &ds, t, 3).unwrap(), 42);
        assert!(r.deps.tm.end(t).unwrap());
        // Locks were released automatically at commit.
        assert_eq!(ds.locks().locked_object_count(), 0);
        // A fresh transaction sees the committed value.
        let t2 = r.deps.tm.begin(Tid::NULL).unwrap();
        assert_eq!(get(&r, &ds, t2, 3).unwrap(), 42);
        r.deps.tm.end(t2).unwrap();
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn abort_restores_old_value_and_releases_locks() {
        let r = rig();
        let ds = start_cell_server(&r);
        let t0 = r.deps.tm.begin(Tid::NULL).unwrap();
        set(&r, &ds, t0, 1, 10).unwrap();
        assert!(r.deps.tm.end(t0).unwrap());

        let t = r.deps.tm.begin(Tid::NULL).unwrap();
        set(&r, &ds, t, 1, 99).unwrap();
        r.deps.tm.abort(t).unwrap();
        assert_eq!(ds.locks().locked_object_count(), 0);
        let t2 = r.deps.tm.begin(Tid::NULL).unwrap();
        assert_eq!(get(&r, &ds, t2, 1).unwrap(), 10, "undo restored the value");
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn write_conflict_times_out() {
        let r = rig();
        let ds = start_cell_server(&r);
        let t1 = r.deps.tm.begin(Tid::NULL).unwrap();
        set(&r, &ds, t1, 2, 5).unwrap();
        let t2 = r.deps.tm.begin(Tid::NULL).unwrap();
        let err = set(&r, &ds, t2, 2, 6).unwrap_err();
        assert_eq!(err, tabs_proto::RpcError::Server(ServerError::LockTimeout));
        r.deps.tm.abort(t1).unwrap();
        r.deps.tm.abort(t2).unwrap();
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn shared_readers_coexist_via_monitor_release() {
        // Two concurrent reads of the same cell under different
        // transactions: the monitor serializes bodies but shared locks let
        // both complete.
        let r = rig();
        let ds = start_cell_server(&r);
        let t1 = r.deps.tm.begin(Tid::NULL).unwrap();
        let t2 = r.deps.tm.begin(Tid::NULL).unwrap();
        assert_eq!(get(&r, &ds, t1, 0).unwrap(), 0);
        assert_eq!(get(&r, &ds, t2, 0).unwrap(), 0);
        r.deps.tm.end(t1).unwrap();
        r.deps.tm.end(t2).unwrap();
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    /// Spins until `n` requests in all have parked in `ds`'s lock table.
    fn await_lock_waits(ds: &DataServer, n: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ds.locks().wait_stats().waits < n {
            assert!(std::time::Instant::now() < deadline, "no request parked in a lock wait");
            std::thread::yield_now();
        }
    }

    /// A second caller completes while the first is parked in a lock wait.
    #[test]
    fn writer_waits_for_reader_then_proceeds() {
        let r = rig();
        let ds = start_cell_server(&r);
        let t1 = r.deps.tm.begin(Tid::NULL).unwrap();
        assert_eq!(get(&r, &ds, t1, 4).unwrap(), 0); // shared lock held
        let r2 = Rig { deps: r.deps.clone(), pool: Arc::clone(&r.pool) };
        let ds2 = ds.clone();
        let t2 = r.deps.tm.begin(Tid::NULL).unwrap();
        // The writer parks in the lock wait on its own stack, with the
        // monitor released.
        let h = std::thread::spawn(move || set(&r2, &ds2, t2, 4, 7));
        await_lock_waits(&ds, 1);
        // Nothing queues behind it: the reader's next request runs on the
        // reader's stack and completes.
        assert_eq!(get(&r, &ds, t1, 5).unwrap(), 0);
        // Commit the reader; the writer acquires and finishes.
        assert!(r.deps.tm.end(t1).unwrap());
        h.join().unwrap().unwrap();
        assert!(r.deps.tm.end(t2).unwrap());
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn deadline_expiring_inside_a_lock_wait_bounds_a_local_call() {
        // A local call runs on the caller's thread, so no client-side
        // response time-out bounds it: the server-side gates must.
        const LOCK_TIMEOUT: Duration = Duration::from_secs(5);
        const BUDGET: Duration = Duration::from_millis(50);
        let r = rig();
        let ds = DataServer::new(
            &r.deps,
            ServerConfig::new("cells", seg()).with_lock_timeout(LOCK_TIMEOUT),
        )
        .unwrap();
        ds.accept_requests(cell_dispatch());
        let holder = r.deps.tm.begin(Tid::NULL).unwrap();
        set(&r, &ds, holder, 2, 5).unwrap();
        let late = r.deps.tm.begin(Tid::NULL).unwrap();
        let start = std::time::Instant::now();
        let err = tabs_proto::rpc::call_with_deadline(
            &r.deps.kernel,
            &ds.send_right(),
            late,
            1,
            2u64.to_le_bytes().to_vec(),
            Deadline::after(BUDGET),
        )
        .unwrap_err();
        assert_eq!(err, tabs_proto::RpcError::Server(ServerError::DeadlineExceeded));
        assert!(start.elapsed() >= BUDGET, "the wait was cut short");
        assert!(start.elapsed() < LOCK_TIMEOUT / 4, "took {:?}", start.elapsed());
        r.deps.tm.abort(late).unwrap();
        assert!(r.deps.tm.end(holder).unwrap());
        assert_eq!(ds.locks().locked_object_count(), 0);
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn panicking_operation_fails_only_its_own_call() {
        let r = rig();
        let ds = DataServer::new(&r.deps, ServerConfig::new("cells", seg())).unwrap();
        let cells = cell_dispatch();
        ds.accept_requests(Arc::new(move |ctx, opcode, args| match opcode {
            9 => panic!("server bug"),
            _ => cells(ctx, opcode, args),
        }));
        let t = r.deps.tm.begin(Tid::NULL).unwrap();
        set(&r, &ds, t, 0, 3).unwrap();
        // The panic stops at the server boundary: this thread gets a
        // typed error, not an unwind...
        let err = tabs_proto::call(&r.deps.kernel, &ds.send_right(), t, 9, vec![]).unwrap_err();
        assert!(matches!(err, tabs_proto::RpcError::Server(ServerError::Other(_))), "{err:?}");
        // ...and the monitor was released: the server keeps serving, this
        // transaction included.
        assert_eq!(get(&r, &ds, t, 0).unwrap(), 3);
        assert!(r.deps.tm.end(t).unwrap());
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn crash_recovery_through_server_library() {
        // Commit one value, leave another uncommitted, crash, recover.
        let r = rig();
        let ds = start_cell_server(&r);
        let t1 = r.deps.tm.begin(Tid::NULL).unwrap();
        set(&r, &ds, t1, 0, 77).unwrap();
        assert!(r.deps.tm.end(t1).unwrap());
        let t2 = r.deps.tm.begin(Tid::NULL).unwrap();
        set(&r, &ds, t2, 1, 88).unwrap(); // never committed
        r.deps.rm.force(None).unwrap();

        // Crash: volatile state vanishes.
        r.pool.invalidate_volatile();
        let report = r.deps.rm.recover().unwrap();
        assert!(report.committed.contains(&t1));
        assert!(report.aborted.contains(&t2));
        let seg_map = ds.segment();
        assert_eq!(seg_map.read_u64(0).unwrap(), 77);
        assert_eq!(seg_map.read_u64(8).unwrap(), 0);
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn marked_objects_batch() {
        let r = rig();
        let ds = DataServer::new(&r.deps, ServerConfig::new("batch", seg())).unwrap();
        ds.accept_requests(Arc::new(|ctx, opcode, _args| {
            match opcode {
                // Update three cells with the LockAndMark protocol: all
                // locks first, then pin/buffer, modify, log/unpin.
                1 => {
                    let objs: Vec<ObjectId> =
                        (0..3).map(|i| ctx.create_object_id(i * 8, 8)).collect();
                    for o in &objs {
                        ctx.lock_and_mark(*o, StdMode::Exclusive)?;
                    }
                    ctx.pin_and_buffer_marked_objects()?;
                    for (i, o) in objs.iter().enumerate() {
                        ctx.write_raw(*o, &(100 + i as u64).to_le_bytes())?;
                    }
                    ctx.log_and_unpin_marked_objects()?;
                    Ok(vec![])
                }
                _ => Err(ServerError::BadRequest("opcode".into())),
            }
        }));
        let t = r.deps.tm.begin(Tid::NULL).unwrap();
        tabs_proto::call(&r.deps.kernel, &ds.send_right(), t, 1, vec![]).unwrap();
        assert!(r.deps.tm.end(t).unwrap());
        assert_eq!(ds.segment().read_u64(0).unwrap(), 100);
        assert_eq!(ds.segment().read_u64(8).unwrap(), 101);
        assert_eq!(ds.segment().read_u64(16).unwrap(), 102);
        // No pins leaked.
        assert!(!r.pool.is_pinned(tabs_kernel::PageId { segment: seg(), page: 0 }));
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn execute_transaction_commits_independently() {
        let r = rig();
        let ds = DataServer::new(&r.deps, ServerConfig::new("io", seg())).unwrap();
        ds.accept_requests(Arc::new(|ctx, opcode, _args| match opcode {
            1 => {
                // Record output under a server-owned top-level transaction
                // (the I/O server pattern, §4.3).
                ctx.execute_transaction(|inner| {
                    let obj = inner.create_object_id(0, 8);
                    inner.lock_object(obj, StdMode::Exclusive)?;
                    inner.pin_and_buffer(obj)?;
                    inner.write_raw(obj, &555u64.to_le_bytes())?;
                    inner.log_and_unpin(obj)?;
                    Ok(vec![])
                })
            }
            _ => Err(ServerError::BadRequest("opcode".into())),
        }));
        let t = r.deps.tm.begin(Tid::NULL).unwrap();
        tabs_proto::call(&r.deps.kernel, &ds.send_right(), t, 1, vec![]).unwrap();
        // Abort the *client* transaction: the ExecuteTransaction effect
        // survives because it committed under its own top-level tid.
        r.deps.tm.abort(t).unwrap();
        assert_eq!(ds.segment().read_u64(0).unwrap(), 555);
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn subtransaction_lock_transfer_through_participant() {
        let r = rig();
        let ds = start_cell_server(&r);
        let top = r.deps.tm.begin(Tid::NULL).unwrap();
        let sub = r.deps.tm.begin(top).unwrap();
        set(&r, &ds, sub, 6, 60).unwrap();
        // Child commits into parent: its exclusive lock transfers.
        assert!(r.deps.tm.end(sub).unwrap());
        let obj = ObjectId::new(seg(), 48, 8);
        assert!(ds.locks().holds(top, obj));
        assert!(!ds.locks().holds(sub, obj));
        assert!(r.deps.tm.end(top).unwrap());
        let t2 = r.deps.tm.begin(Tid::NULL).unwrap();
        assert_eq!(get(&r, &ds, t2, 6).unwrap(), 60);
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn aborted_transaction_refused_service() {
        let r = rig();
        let ds = start_cell_server(&r);
        let t = r.deps.tm.begin(Tid::NULL).unwrap();
        set(&r, &ds, t, 0, 1).unwrap();
        r.deps.tm.abort(t).unwrap();
        let err = set(&r, &ds, t, 0, 2).unwrap_err();
        assert!(matches!(err, tabs_proto::RpcError::Server(ServerError::Aborted(_))));
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }

    #[test]
    fn pin_leak_fails_prepare() {
        let r = rig();
        let ds = DataServer::new(&r.deps, ServerConfig::new("leaky", seg())).unwrap();
        ds.accept_requests(Arc::new(|ctx, _opcode, _args| {
            let obj = ctx.create_object_id(0, 8);
            ctx.lock_object(obj, StdMode::Exclusive)?;
            ctx.pin_object(obj)?; // leaked on purpose
            Ok(vec![])
        }));
        let t = r.deps.tm.begin(Tid::NULL).unwrap();
        tabs_proto::call(&r.deps.kernel, &ds.send_right(), t, 1, vec![]).unwrap();
        // Prepare refuses; the transaction aborts.
        assert!(!r.deps.tm.end(t).unwrap());
        r.deps.kernel.shutdown();
        r.deps.kernel.join_all();
    }
}
