//! Lock-based synchronization for transactions on abstract objects.
//!
//! §2.1.3: "TABS has chosen to use locking … To obtain synchronized access
//! to an object, a transaction must first obtain a lock on all or part of
//! it. A lock is granted unless another transaction already holds an
//! incompatible lock. … With type-specific locking, implementors can obtain
//! increased concurrency by defining type-specific lock modes and lock
//! protocols … TABS, like many other systems, currently relies on
//! time-outs" for deadlock resolution; distributed/local deadlock
//! *detection* (Obermarck-style waits-for cycles) is the extension the
//! paper cites, implemented here as an alternative [`DeadlockPolicy`].
//!
//! Subtransaction semantics follow §2.1.3: "With respect to
//! synchronization, a subtransaction behaves as a completely separate
//! transaction" — locks are *not* inherited downward, so two
//! subtransactions of one parent can deadlock against each other. When a
//! subtransaction commits, its locks transfer to the parent
//! ([`LockManager::transfer`]); when it aborts, they are released.

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use tabs_kernel::{ObjectId, Tid};
use tabs_obs::{TraceCollector, TraceEvent};

/// A lock-mode lattice with a compatibility relation.
///
/// Implement this to define type-specific lock modes (§2.1.3). The relation
/// must be symmetric: `a.compatible(b) == b.compatible(a)`.
pub trait LockMode: Copy + Eq + Hash + Debug + Send + Sync + 'static {
    /// Whether two holders in these modes may coexist on one object.
    fn compatible(&self, other: &Self) -> bool;
}

/// The standard shared/exclusive modes used by most TABS data servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StdMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode for StdMode {
    fn compatible(&self, other: &Self) -> bool {
        matches!((self, other), (StdMode::Shared, StdMode::Shared))
    }
}

/// Example type-specific modes for a counter-like abstract type: increments
/// commute with each other, so `Increment` is self-compatible — the
/// concurrency gain type-specific locking buys (§2.1.3, Schwarz & Spector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterMode {
    /// Observes the counter value; excludes increments.
    Read,
    /// Blind increment; compatible with other increments.
    Increment,
}

impl LockMode for CounterMode {
    fn compatible(&self, other: &Self) -> bool {
        matches!((self, other), (CounterMode::Increment, CounterMode::Increment))
    }
}

/// How lock waits that cannot be granted are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlockPolicy {
    /// The paper's policy: wait until a caller-supplied time-out expires.
    Timeout,
    /// Waits-for-graph cycle detection: a request that would close a cycle
    /// fails immediately with [`LockError::Deadlock`].
    Detect,
}

/// Errors from lock acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The wait exceeded the supplied time-out (the holder may be wedged
    /// or the system deadlocked; the paper's resolution is to abort).
    Timeout(ObjectId),
    /// Granting the lock would create a waits-for cycle.
    Deadlock(ObjectId),
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Timeout(o) => write!(f, "lock wait timed out on {o}"),
            LockError::Deadlock(o) => write!(f, "deadlock detected acquiring {o}"),
        }
    }
}

impl std::error::Error for LockError {}

/// Number of lock-table stripes. Sixteen keeps the per-stripe tables
/// small and spreads unrelated objects over sixteen tiny mutexes per
/// server.
const STRIPES: usize = 16;

/// One parked waiter in a per-object wait queue. Each waiter parks on its
/// own condition variable so a release can wake exactly the waiters it
/// makes grantable.
struct Waiter<M: LockMode> {
    tid: Tid,
    mode: M,
    cond: Arc<Condvar>,
}

/// Granted-lock state for one stripe of the table. Grants, conditional
/// locks and releases touch exactly one stripe (hashed from the
/// [`ObjectId`]), so unrelated objects never contend on one mutex.
struct StripeState<M: LockMode> {
    /// Granted locks per object (objects hashing to this stripe).
    holders: HashMap<ObjectId, Vec<(Tid, M)>>,
    /// Objects locked per transaction *in this stripe* (for release_all /
    /// transfer).
    by_tx: HashMap<Tid, HashSet<ObjectId>>,
    /// FIFO wait queues per object: a release wakes the longest grantable
    /// prefix of the released object's queue and nobody else.
    queues: HashMap<ObjectId, Vec<Waiter<M>>>,
}

impl<M: LockMode> Default for StripeState<M> {
    fn default() -> Self {
        Self { holders: HashMap::new(), by_tx: HashMap::new(), queues: HashMap::new() }
    }
}

/// Wait-side state, shared across stripes. Waiting is the cold path (a
/// blocked request parks anyway), so one mutex over the waits-for graph
/// keeps cross-stripe cycle detection and the exported wait graph exact.
///
/// Lock order: a stripe mutex may be held while taking `waits`, never the
/// reverse.
struct WaitState {
    /// Waits-for edges, maintained while requests block (Detect policy and
    /// introspection).
    waits_for: HashMap<Tid, HashSet<Tid>>,
    /// Waiters flagged as deadlock victims by an external detector; their
    /// pending `lock` call returns [`LockError::Deadlock`] on wakeup.
    victims: HashSet<Tid>,
    /// Where each blocked waiter is parked (stripe index and object), so
    /// `abort_waiter` can wake exactly that waiter.
    waiting_in: HashMap<Tid, (usize, ObjectId)>,
}

/// A source of waits-for edges plus a victim-wakeup hook, implemented by
/// every [`LockManager`] regardless of mode lattice. The distributed
/// deadlock detector (`tabs-detect`) aggregates these per node.
pub trait WaitGraphSource: Send + Sync {
    /// Snapshot of blocked→holder edges. Only edges whose holder still
    /// holds at least one lock are reported (stale edges are cleared on
    /// release, but a snapshot taken mid-release must not resurrect them).
    fn wait_graph(&self) -> Vec<(Tid, Tid)>;

    /// Flags `tid` as a deadlock victim if it is currently blocked here;
    /// its pending `lock` call wakes and fails with
    /// [`LockError::Deadlock`]. Returns whether a waiter was flagged.
    fn abort_waiter(&self, tid: Tid) -> bool;
}

/// A lock manager, generic over the mode lattice.
///
/// Each data server embeds one (§2.1.3: "servers implement locking
/// locally"), so lock tables are per-server, not global — exactly the
/// property that lets TABS servers tailor their locking.
///
/// The granted-lock table is split into sixteen stripes keyed by the
/// object-id hash: grants, conditional locks and releases lock one
/// stripe, and each stripe keeps a FIFO wait queue per object — a
/// release wakes the longest grantable prefix of the released object's
/// queue and nothing else, so a storm of waiters on one hot object costs
/// one wakeup per release instead of one per waiter. The waits-for graph
/// stays global (waiting is the cold path), so cross-stripe deadlock
/// cycles are still detected exactly.
pub struct LockManager<M: LockMode = StdMode> {
    stripes: Box<[Mutex<StripeState<M>>]>,
    waits: Mutex<WaitState>,
    policy: DeadlockPolicy,
    trace: Mutex<Option<Arc<TraceCollector>>>,
    /// Fast-path guard for [`Self::emit`]: tracing is off for production
    /// servers, and the hot acquire path must not take the trace mutex
    /// just to find that out.
    trace_on: AtomicBool,
    stats: WaitCounters,
}

/// Internal wakeup-behaviour counters (plain relaxed atomics; the wait
/// path is already serialized by the stripe mutex, these only count).
#[derive(Default)]
struct WaitCounters {
    waits: AtomicU64,
    wakeups: AtomicU64,
    spurious: AtomicU64,
}

/// A snapshot of the wait path's wakeup behaviour, for benchmarks and
/// tests that quantify what lock waiting costs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WaitStats {
    /// `lock` calls that had to park at least once.
    pub waits: u64,
    /// Condvar wakeups of parked waiters (non-timeout returns).
    pub wakeups: u64,
    /// Wakeups after which the waiter was still blocked and parked again.
    /// A release wakes only waiters it makes grantable, so this counts
    /// races: a request that took the lock between a waiter's wakeup and
    /// its recheck.
    pub spurious: u64,
}

impl std::ops::Sub for WaitStats {
    type Output = WaitStats;

    fn sub(self, rhs: WaitStats) -> WaitStats {
        WaitStats {
            waits: self.waits.saturating_sub(rhs.waits),
            wakeups: self.wakeups.saturating_sub(rhs.wakeups),
            spurious: self.spurious.saturating_sub(rhs.spurious),
        }
    }
}

impl<M: LockMode> Default for LockManager<M> {
    fn default() -> Self {
        Self::new(DeadlockPolicy::Timeout)
    }
}

impl<M: LockMode> std::fmt::Debug for LockManager<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("objects", &self.locked_object_count())
            .field("stripes", &self.stripes.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl<M: LockMode> LockManager<M> {
    /// Creates a lock manager with the given deadlock-resolution policy.
    pub fn new(policy: DeadlockPolicy) -> Self {
        Self {
            stripes: (0..STRIPES).map(|_| Mutex::default()).collect(),
            waits: Mutex::new(WaitState {
                waits_for: HashMap::new(),
                victims: HashSet::new(),
                waiting_in: HashMap::new(),
            }),
            policy,
            trace: Mutex::new(None),
            trace_on: AtomicBool::new(false),
            stats: WaitCounters::default(),
        }
    }

    /// Creates a shared lock manager.
    pub fn shared(policy: DeadlockPolicy) -> Arc<Self> {
        Arc::new(Self::new(policy))
    }

    /// The stripe an object's locks live in.
    fn stripe_of(&self, object: ObjectId) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        object.hash(&mut h);
        (h.finish() as usize) % self.stripes.len()
    }

    /// Attaches a trace collector; grants, waits and time-outs are
    /// recorded as lock [`TraceEvent`]s.
    pub fn set_trace(&self, trace: Arc<TraceCollector>) {
        *self.trace.lock() = Some(trace);
        self.trace_on.store(true, Ordering::Release);
    }

    /// Wakeup-behaviour counters since construction (monotonic; callers
    /// diff two snapshots to scope a measurement window).
    pub fn wait_stats(&self) -> WaitStats {
        WaitStats {
            waits: self.stats.waits.load(Ordering::Relaxed),
            wakeups: self.stats.wakeups.load(Ordering::Relaxed),
            spurious: self.stats.spurious.load(Ordering::Relaxed),
        }
    }

    fn emit(&self, tid: Tid, event: TraceEvent) {
        if !self.trace_on.load(Ordering::Acquire) {
            return;
        }
        if let Some(t) = self.trace.lock().as_ref() {
            t.record(tid, event);
        }
    }

    fn blockers(state: &StripeState<M>, object: ObjectId, tid: Tid, mode: M) -> Vec<Tid> {
        state
            .holders
            .get(&object)
            .map(|hs| {
                hs.iter()
                    .filter(|(t, m)| *t != tid && !mode.compatible(m))
                    .map(|(t, _)| *t)
                    .collect()
            })
            .unwrap_or_default()
    }

    fn grant(state: &mut StripeState<M>, object: ObjectId, tid: Tid, mode: M) {
        let hs = state.holders.entry(object).or_default();
        if !hs.iter().any(|(t, m)| *t == tid && *m == mode) {
            hs.push((tid, mode));
        }
        state.by_tx.entry(tid).or_default().insert(object);
    }

    /// Would granting `tid` → … → `tid` close a cycle if `tid` waited on
    /// each transaction in `on`? The waits-for graph is global, so cycles
    /// spanning any mix of stripes are found.
    fn creates_cycle(waits: &WaitState, tid: Tid, on: &[Tid]) -> bool {
        // DFS from each blocker through waits_for, looking for tid.
        let mut stack: Vec<Tid> = on.to_vec();
        let mut seen: HashSet<Tid> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == tid {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = waits.waits_for.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Clears `tid`'s wait-side registration (edges and parked-stripe
    /// entry).
    fn clear_wait(waits: &mut WaitState, tid: Tid) {
        waits.waits_for.remove(&tid);
        waits.waiting_in.remove(&tid);
    }

    /// Removes `tid` from `object`'s wait queue.
    fn dequeue(state: &mut StripeState<M>, object: ObjectId, tid: Tid) {
        if let Some(q) = state.queues.get_mut(&object) {
            if let Some(pos) = q.iter().position(|w| w.tid == tid) {
                q.remove(pos);
            }
            if q.is_empty() {
                state.queues.remove(&object);
            }
        }
    }

    /// Wakes the longest grantable prefix of `object`'s wait queue: every
    /// waiter compatible with the current holders and with the waiters
    /// woken before it. Stopping at the first blocked waiter keeps grants
    /// FIFO-fair (later compatible readers do not overtake a blocked
    /// writer forever). Called whenever `object`'s holders shrink or a
    /// waiter leaves its queue — a woken waiter that exits by timeout or
    /// victim abort passes the baton here, so a free lock is never left
    /// with its waiters all asleep.
    fn wake_object(state: &StripeState<M>, object: ObjectId) {
        let Some(queue) = state.queues.get(&object) else { return };
        let no_holders = Vec::new();
        let holders = state.holders.get(&object).unwrap_or(&no_holders);
        let mut woken: Vec<(Tid, M)> = Vec::new();
        for w in queue {
            let blocked = holders
                .iter()
                .chain(woken.iter())
                .any(|(t, m)| *t != w.tid && !w.mode.compatible(m));
            if blocked {
                break;
            }
            woken.push((w.tid, w.mode));
            w.cond.notify_one();
        }
    }

    /// `LockObject` (Table 3-1): acquires `mode` on `object` for `tid`,
    /// waiting up to `timeout` if an incompatible lock is held.
    pub fn lock(
        &self,
        tid: Tid,
        object: ObjectId,
        mode: M,
        timeout: Duration,
    ) -> Result<(), LockError> {
        let deadline = Instant::now() + timeout;
        let idx = self.stripe_of(object);
        let stripe = &self.stripes[idx];
        let mut waited = false;
        let mut parks: u64 = 0;
        // The per-object queue entry's condition variable, once queued.
        let mut queued: Option<Arc<Condvar>> = None;
        let mut state = stripe.lock();
        loop {
            if waited {
                // An external detector may have picked this waiter as a
                // deadlock victim while it was blocked; surface the same
                // error the local cycle check would have produced. (A
                // fresh request can't be a victim: flags are only set on
                // registered waiters, and registering happens below.)
                let mut waits = self.waits.lock();
                if waits.victims.remove(&tid) {
                    Self::clear_wait(&mut waits, tid);
                    drop(waits);
                    if queued.is_some() {
                        Self::dequeue(&mut state, object, tid);
                        Self::wake_object(&state, object);
                    }
                    return Err(LockError::Deadlock(object));
                }
            }
            let blockers = Self::blockers(&state, object, tid, mode);
            if blockers.is_empty() {
                Self::grant(&mut state, object, tid, mode);
                if waited {
                    Self::clear_wait(&mut self.waits.lock(), tid);
                }
                if queued.is_some() {
                    Self::dequeue(&mut state, object, tid);
                }
                drop(state);
                self.emit(tid, TraceEvent::LockAcquire { object, mode: format!("{mode:?}") });
                return Ok(());
            }
            {
                let mut waits = self.waits.lock();
                if self.policy == DeadlockPolicy::Detect
                    && Self::creates_cycle(&waits, tid, &blockers)
                {
                    Self::clear_wait(&mut waits, tid);
                    drop(waits);
                    if queued.is_some() {
                        Self::dequeue(&mut state, object, tid);
                        Self::wake_object(&state, object);
                    }
                    return Err(LockError::Deadlock(object));
                }
                waits.waits_for.insert(tid, blockers.into_iter().collect());
                waits.waiting_in.insert(tid, (idx, object));
            }
            if queued.is_none() {
                let cond = Arc::new(Condvar::new());
                state.queues.entry(object).or_default().push(Waiter {
                    tid,
                    mode,
                    cond: Arc::clone(&cond),
                });
                queued = Some(cond);
            }
            if !waited {
                // Emit outside the stripe mutex: tracing must never extend
                // the lock-table critical section (the grant and timeout
                // paths already drop it first).
                waited = true;
                self.stats.waits.fetch_add(1, Ordering::Relaxed);
                drop(state);
                self.emit(tid, TraceEvent::LockWait { object, mode: format!("{mode:?}") });
                state = stripe.lock();
                continue;
            }
            parks += 1;
            if parks > 1 {
                // The previous wakeup found the object still blocked: a
                // spurious wakeup.
                self.stats.spurious.fetch_add(1, Ordering::Relaxed);
            }
            let cond = queued.as_ref().expect("a blocked request is queued before it parks");
            let timed_out = cond.wait_until(&mut state, deadline).timed_out();
            if !timed_out {
                self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            }
            if timed_out {
                Self::clear_wait(&mut self.waits.lock(), tid);
                // Leave the queue and pass the baton: a release may have
                // woken only this waiter moments ago, and its successors
                // must not sleep on a now-free lock.
                Self::dequeue(&mut state, object, tid);
                Self::wake_object(&state, object);
                drop(state);
                self.emit(tid, TraceEvent::LockTimeout { object, mode: format!("{mode:?}") });
                return Err(LockError::Timeout(object));
            }
        }
    }

    /// `ConditionallyLockObject` (Table 3-1): acquires the lock only if it
    /// is immediately available. Touches one stripe, never the wait state.
    pub fn try_lock(&self, tid: Tid, object: ObjectId, mode: M) -> bool {
        let mut state = self.stripes[self.stripe_of(object)].lock();
        if Self::blockers(&state, object, tid, mode).is_empty() {
            Self::grant(&mut state, object, tid, mode);
            true
        } else {
            false
        }
    }

    /// `IsObjectLocked` (Table 3-1): whether *any* transaction holds a lock
    /// on `object`. Added to the server library for the weak queue (§4.2).
    pub fn is_locked(&self, object: ObjectId) -> bool {
        let state = self.stripes[self.stripe_of(object)].lock();
        state.holders.get(&object).map(|h| !h.is_empty()).unwrap_or(false)
    }

    /// Whether `tid` itself holds a lock on `object` in any mode.
    pub fn holds(&self, tid: Tid, object: ObjectId) -> bool {
        let state = self.stripes[self.stripe_of(object)].lock();
        state.holders.get(&object).map(|h| h.iter().any(|(t, _)| *t == tid)).unwrap_or(false)
    }

    /// Current holders of `object`.
    pub fn holders(&self, object: ObjectId) -> Vec<(Tid, M)> {
        let state = self.stripes[self.stripe_of(object)].lock();
        state.holders.get(&object).cloned().unwrap_or_default()
    }

    /// Objects locked by `tid`.
    pub fn locked_by(&self, tid: Tid) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = Vec::new();
        for stripe in self.stripes.iter() {
            let state = stripe.lock();
            if let Some(s) = state.by_tx.get(&tid) {
                v.extend(s.iter().copied());
            }
        }
        v.sort();
        v
    }

    /// Whether `tid` holds at least one lock in any stripe.
    fn holds_any(&self, tid: Tid) -> bool {
        self.stripes.iter().any(|s| s.lock().by_tx.contains_key(&tid))
    }

    /// Releases every lock held by `tid` (done automatically by the server
    /// library at commit or abort, §3.1.1) and wakes the grantable prefix
    /// of each released object's wait queue.
    pub fn release_all(&self, tid: Tid) {
        // Clear the granted state stripe by stripe BEFORE touching the
        // wait graph: a `wait_graph` snapshot between the two phases
        // filters edges through the (already emptied) holder tables, so
        // no exported edge can still point at this transaction once its
        // edges are gone.
        for stripe in self.stripes.iter() {
            let mut state = stripe.lock();
            if let Some(objects) = state.by_tx.remove(&tid) {
                for object in objects {
                    if let Some(hs) = state.holders.get_mut(&object) {
                        hs.retain(|(t, _)| *t != tid);
                        if hs.is_empty() {
                            state.holders.remove(&object);
                        }
                    }
                    Self::wake_object(&state, object);
                }
            }
        }
        {
            let mut waits = self.waits.lock();
            Self::clear_wait(&mut waits, tid);
            // Also clear other waiters' edges *to* tid: it holds nothing
            // any more, so the exported wait graph must not keep pointing
            // at it. (Woken waiters recompute their real blockers anyway.)
            waits.waits_for.retain(|_, on| {
                on.remove(&tid);
                !on.is_empty()
            });
            waits.victims.remove(&tid);
        }
    }

    /// Moves all of `from`'s locks to `to` (subtransaction commit: the
    /// parent assumes the child's locks).
    pub fn transfer(&self, from: Tid, to: Tid) {
        for stripe in self.stripes.iter() {
            let mut state = stripe.lock();
            if let Some(objects) = state.by_tx.remove(&from) {
                for object in &objects {
                    if let Some(hs) = state.holders.get_mut(object) {
                        for entry in hs.iter_mut() {
                            if entry.0 == from {
                                entry.0 = to;
                            }
                        }
                        // Merge duplicate (to, mode) pairs.
                        let mut seen = HashSet::new();
                        hs.retain(|e| seen.insert(*e));
                    }
                    // The rename may unblock a waiter the new holder no
                    // longer conflicts with (self-compatibility).
                    Self::wake_object(&state, *object);
                }
                state.by_tx.entry(to).or_default().extend(objects);
            }
        }
        {
            let mut waits = self.waits.lock();
            Self::clear_wait(&mut waits, from);
            // Waiters blocked on the child are now really blocked on the
            // parent; redirect their edges so the wait graph stays
            // truthful.
            for on in waits.waits_for.values_mut() {
                if on.remove(&from) {
                    on.insert(to);
                }
            }
        }
    }

    /// Number of distinct locked objects (introspection for tests).
    pub fn locked_object_count(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().holders.len()).sum()
    }
}

impl<M: LockMode> WaitGraphSource for LockManager<M> {
    fn wait_graph(&self) -> Vec<(Tid, Tid)> {
        // Snapshot the edges under the wait mutex, then filter holders
        // against the stripes WITHOUT holding it (lock order is stripe →
        // waits, so stripes must not be taken under waits). `release_all`
        // empties a transaction's stripe entries before clearing its
        // edges, so any edge still present here whose holder has fully
        // released filters out — a snapshot taken mid-release never
        // resurrects a stale edge.
        let edges: Vec<(Tid, Tid)> = {
            let waits = self.waits.lock();
            waits
                .waits_for
                .iter()
                .flat_map(|(waiter, on)| on.iter().map(move |holder| (*waiter, *holder)))
                .collect()
        };
        let mut holds: HashMap<Tid, bool> = HashMap::new();
        let mut out: Vec<(Tid, Tid)> = edges
            .into_iter()
            .filter(|(_, holder)| *holds.entry(*holder).or_insert_with(|| self.holds_any(*holder)))
            .collect();
        out.sort();
        out
    }

    fn abort_waiter(&self, tid: Tid) -> bool {
        // Flag under the wait mutex, then wake exactly the victim's own
        // condition variable. Locking its stripe's mutex before notifying
        // closes the race with a waiter that has registered but not yet
        // parked: registration happens with the stripe mutex held, so
        // acquiring it here means the victim is either already parked
        // (and gets the notify) or will re-check the flag at its loop top
        // before parking.
        let parked = {
            let mut waits = self.waits.lock();
            // Only flag transactions actually blocked here; otherwise the
            // flag would linger and poison an unrelated later wait.
            if !waits.waits_for.contains_key(&tid) {
                return false;
            }
            waits.victims.insert(tid);
            waits.waiting_in.get(&tid).copied()
        };
        if let Some((idx, object)) = parked {
            let state = self.stripes[idx].lock();
            if let Some(w) = state.queues.get(&object).and_then(|q| q.iter().find(|w| w.tid == tid))
            {
                w.cond.notify_one();
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabs_kernel::{NodeId, SegmentId};

    fn tid(s: u64) -> Tid {
        Tid { node: NodeId(1), incarnation: 1, seq: s }
    }

    fn obj(o: u64) -> ObjectId {
        ObjectId::new(SegmentId { node: NodeId(1), index: 0 }, o * 8, 8)
    }

    const T: Duration = Duration::from_millis(50);

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::<StdMode>::default();
        lm.lock(tid(1), obj(1), StdMode::Shared, T).unwrap();
        lm.lock(tid(2), obj(1), StdMode::Shared, T).unwrap();
        assert_eq!(lm.holders(obj(1)).len(), 2);
    }

    #[test]
    fn exclusive_blocks_and_times_out() {
        let lm = LockManager::<StdMode>::default();
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        let err = lm.lock(tid(2), obj(1), StdMode::Shared, T).unwrap_err();
        assert_eq!(err, LockError::Timeout(obj(1)));
    }

    #[test]
    fn reacquire_same_mode_is_noop() {
        let lm = LockManager::<StdMode>::default();
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        assert_eq!(lm.holders(obj(1)).len(), 1);
    }

    #[test]
    fn upgrade_shared_to_exclusive_when_sole_holder() {
        let lm = LockManager::<StdMode>::default();
        lm.lock(tid(1), obj(1), StdMode::Shared, T).unwrap();
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        // Another reader is now excluded.
        assert!(!lm.try_lock(tid(2), obj(1), StdMode::Shared));
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let lm = LockManager::<StdMode>::default();
        lm.lock(tid(1), obj(1), StdMode::Shared, T).unwrap();
        lm.lock(tid(2), obj(1), StdMode::Shared, T).unwrap();
        assert!(matches!(
            lm.lock(tid(1), obj(1), StdMode::Exclusive, T),
            Err(LockError::Timeout(_))
        ));
    }

    #[test]
    fn conditional_lock() {
        let lm = LockManager::<StdMode>::default();
        assert!(lm.try_lock(tid(1), obj(1), StdMode::Exclusive));
        assert!(!lm.try_lock(tid(2), obj(1), StdMode::Exclusive));
        assert!(lm.try_lock(tid(1), obj(2), StdMode::Shared));
    }

    #[test]
    fn is_locked_and_holds() {
        let lm = LockManager::<StdMode>::default();
        assert!(!lm.is_locked(obj(1)));
        lm.lock(tid(1), obj(1), StdMode::Shared, T).unwrap();
        assert!(lm.is_locked(obj(1)));
        assert!(lm.holds(tid(1), obj(1)));
        assert!(!lm.holds(tid(2), obj(1)));
    }

    #[test]
    fn release_all_wakes_waiters() {
        let lm = Arc::new(LockManager::<StdMode>::default());
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            lm2.lock(tid(2), obj(1), StdMode::Exclusive, Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(20));
        lm.release_all(tid(1));
        assert!(waiter.join().unwrap().is_ok());
        assert!(lm.locked_by(tid(1)).is_empty());
        assert!(lm.holds(tid(2), obj(1)));
    }

    #[test]
    fn transfer_moves_locks_to_parent() {
        let lm = LockManager::<StdMode>::default();
        let child = tid(2);
        let parent = tid(1);
        lm.lock(child, obj(1), StdMode::Exclusive, T).unwrap();
        lm.lock(child, obj(2), StdMode::Shared, T).unwrap();
        lm.lock(parent, obj(2), StdMode::Shared, T).unwrap();
        lm.transfer(child, parent);
        assert!(lm.holds(parent, obj(1)));
        assert!(!lm.holds(child, obj(1)));
        assert_eq!(lm.locked_by(parent), vec![obj(1), obj(2)]);
        // No duplicate holder entries after merging.
        assert_eq!(lm.holders(obj(2)).len(), 1);
    }

    #[test]
    fn deadlock_detection_breaks_cycle() {
        let lm = Arc::new(LockManager::<StdMode>::new(DeadlockPolicy::Detect));
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        lm.lock(tid(2), obj(2), StdMode::Exclusive, T).unwrap();
        // tid(2) waits for obj(1) in the background.
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            lm2.lock(tid(2), obj(1), StdMode::Exclusive, Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(30));
        // tid(1) → obj(2) closes the cycle and is refused immediately.
        let err = lm.lock(tid(1), obj(2), StdMode::Exclusive, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, LockError::Deadlock(obj(2)));
        // Resolving by aborting tid(1) lets the waiter through.
        lm.release_all(tid(1));
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn self_deadlock_between_subtransactions() {
        // §2.1.3: two subtransactions of one parent can deadlock because a
        // subtransaction behaves as a completely separate transaction.
        let lm = LockManager::<StdMode>::default();
        let sub_a = tid(10);
        let sub_b = tid(11);
        lm.lock(sub_a, obj(1), StdMode::Exclusive, T).unwrap();
        assert!(matches!(
            lm.lock(sub_b, obj(1), StdMode::Exclusive, T),
            Err(LockError::Timeout(_))
        ));
    }

    #[test]
    fn counter_mode_increments_commute() {
        let lm = LockManager::<CounterMode>::default();
        lm.lock(tid(1), obj(1), CounterMode::Increment, T).unwrap();
        lm.lock(tid(2), obj(1), CounterMode::Increment, T).unwrap();
        // A reader is excluded while increments are pending.
        assert!(!lm.try_lock(tid(3), obj(1), CounterMode::Read));
        lm.release_all(tid(1));
        lm.release_all(tid(2));
        assert!(lm.try_lock(tid(3), obj(1), CounterMode::Read));
    }

    #[test]
    fn compat_matrices_are_symmetric() {
        for a in [StdMode::Shared, StdMode::Exclusive] {
            for b in [StdMode::Shared, StdMode::Exclusive] {
                assert_eq!(a.compatible(&b), b.compatible(&a));
            }
        }
        for a in [CounterMode::Read, CounterMode::Increment] {
            for b in [CounterMode::Read, CounterMode::Increment] {
                assert_eq!(a.compatible(&b), b.compatible(&a));
            }
        }
    }

    #[test]
    fn wait_graph_exports_blocked_edges() {
        let lm = Arc::new(LockManager::<StdMode>::default());
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            lm2.lock(tid(2), obj(1), StdMode::Exclusive, Duration::from_secs(5))
        });
        while lm.wait_graph().is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(lm.wait_graph(), vec![(tid(2), tid(1))]);
        lm.release_all(tid(1));
        waiter.join().unwrap().unwrap();
        assert!(lm.wait_graph().is_empty());
        lm.release_all(tid(2));
    }

    #[test]
    fn aborted_holder_leaves_no_stale_wait_edges() {
        // Satellite: once a holder releases (commit or abort), no exported
        // edge may still point at it — even if its waiters have not yet
        // been rescheduled to recompute their blockers.
        let lm = Arc::new(LockManager::<StdMode>::default());
        lm.lock(tid(1), obj(1), StdMode::Shared, T).unwrap();
        lm.lock(tid(3), obj(1), StdMode::Shared, T).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            lm2.lock(tid(2), obj(1), StdMode::Exclusive, Duration::from_secs(5))
        });
        while lm.wait_graph().len() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // tid(1) aborts. The waiter thread has not necessarily woken yet,
        // but the snapshot must already have dropped the tid(2)→tid(1)
        // edge (checked under the same mutex as the release).
        lm.release_all(tid(1));
        for (_, holder) in lm.wait_graph() {
            assert_ne!(holder, tid(1), "stale edge to released holder");
        }
        lm.release_all(tid(3));
        waiter.join().unwrap().unwrap();
        lm.release_all(tid(2));
    }

    #[test]
    fn abort_waiter_wakes_victim_with_deadlock_error() {
        let lm = Arc::new(LockManager::<StdMode>::default());
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            lm2.lock(tid(2), obj(1), StdMode::Exclusive, Duration::from_secs(30))
        });
        while lm.wait_graph().is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let start = Instant::now();
        assert!(lm.abort_waiter(tid(2)));
        assert_eq!(waiter.join().unwrap(), Err(LockError::Deadlock(obj(1))));
        assert!(start.elapsed() < Duration::from_secs(5), "victim should wake promptly");
        // The victim holds nothing and left no residue.
        assert!(lm.wait_graph().is_empty());
        assert!(!lm.holds(tid(2), obj(1)));
    }

    #[test]
    fn abort_waiter_ignores_transactions_not_blocked_here() {
        let lm = LockManager::<StdMode>::default();
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        assert!(!lm.abort_waiter(tid(1)), "holder is not a waiter");
        assert!(!lm.abort_waiter(tid(9)), "unknown tid is not a waiter");
        // A later legitimate wait by tid(9) must not be poisoned.
        assert!(matches!(lm.lock(tid(9), obj(1), StdMode::Shared, T), Err(LockError::Timeout(_))));
    }

    #[test]
    fn transfer_redirects_wait_edges_to_parent() {
        let lm = Arc::new(LockManager::<StdMode>::default());
        let child = tid(2);
        let parent = tid(1);
        lm.lock(child, obj(1), StdMode::Exclusive, T).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            lm2.lock(tid(3), obj(1), StdMode::Exclusive, Duration::from_secs(5))
        });
        while lm.wait_graph().is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        lm.transfer(child, parent);
        // Snapshot taken before the waiter reschedules already points at
        // the parent, never at the vanished child.
        for (_, holder) in lm.wait_graph() {
            assert_eq!(holder, parent);
        }
        lm.release_all(parent);
        waiter.join().unwrap().unwrap();
        lm.release_all(tid(3));
    }

    #[test]
    fn contention_stress() {
        let lm = Arc::new(LockManager::<StdMode>::default());
        let counter = Arc::new(Mutex::new(0u32));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let lm = Arc::clone(&lm);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for i in 0..50 {
                        let me = tid(t * 1000 + i);
                        lm.lock(me, obj(1), StdMode::Exclusive, Duration::from_secs(10)).unwrap();
                        {
                            let mut c = counter.lock();
                            *c += 1;
                        }
                        lm.release_all(me);
                    }
                });
            }
        });
        assert_eq!(*counter.lock(), 400);
        assert_eq!(lm.locked_object_count(), 0);
    }

    /// Finds two objects that hash to different stripes (the whole point
    /// of the cross-stripe tests below).
    fn cross_stripe_pair(lm: &LockManager<StdMode>) -> (ObjectId, ObjectId) {
        let a = obj(1);
        for o in 2..200 {
            let b = obj(o);
            if lm.stripe_of(b) != lm.stripe_of(a) {
                return (a, b);
            }
        }
        panic!("no cross-stripe pair among 200 objects");
    }

    #[test]
    fn concurrent_acquire_release_across_stripes() {
        // Many threads each exercise lock/release over objects spread
        // across every stripe; conflict semantics must hold throughout
        // (the exclusive section below would corrupt `hits` otherwise).
        let lm = LockManager::<StdMode>::shared(DeadlockPolicy::Timeout);
        let hits = Arc::new(Mutex::new(vec![0i64; 8]));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let lm = Arc::clone(&lm);
                let hits = Arc::clone(&hits);
                std::thread::spawn(move || {
                    for round in 0..50u64 {
                        let id = tid(t * 1000 + round + 1);
                        let o = obj((t + round) % 8);
                        lm.lock(id, o, StdMode::Exclusive, Duration::from_secs(5)).unwrap();
                        {
                            let mut h = hits.lock();
                            let idx = ((t + round) % 8) as usize;
                            let v = h[idx];
                            std::thread::yield_now();
                            h[idx] = v + 1;
                        }
                        lm.release_all(id);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(hits.lock().iter().sum::<i64>(), 400);
        assert_eq!(lm.locked_object_count(), 0);
        assert!(lm.wait_graph().is_empty());
    }

    #[test]
    fn local_detect_refuses_cross_stripe_cycle() {
        // T1 holds A (stripe i), T2 holds B (stripe j != i). T2 blocks on
        // A; T1 then requesting B would close a cycle spanning both
        // stripes — the Detect policy must refuse it even though each
        // stripe alone sees only one edge.
        let lm = LockManager::<StdMode>::shared(DeadlockPolicy::Detect);
        let (a, b) = cross_stripe_pair(&lm);
        lm.lock(tid(1), a, StdMode::Exclusive, T).unwrap();
        lm.lock(tid(2), b, StdMode::Exclusive, T).unwrap();
        let lm2 = Arc::clone(&lm);
        let blocked = std::thread::spawn(move || {
            lm2.lock(tid(2), a, StdMode::Exclusive, Duration::from_secs(5))
        });
        while lm.wait_graph().is_empty() {
            std::thread::yield_now();
        }
        let err = lm.lock(tid(1), b, StdMode::Exclusive, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, LockError::Deadlock(b));
        lm.release_all(tid(1));
        blocked.join().unwrap().unwrap();
        lm.release_all(tid(2));
    }

    #[test]
    fn abort_waiter_resolves_cross_stripe_cycle() {
        // The external-detector path: two waiters parked on different
        // stripes form a cycle; abort_waiter must find the victim's
        // stripe and wake exactly it with a deadlock error.
        let lm = LockManager::<StdMode>::shared(DeadlockPolicy::Timeout);
        let (a, b) = cross_stripe_pair(&lm);
        lm.lock(tid(1), a, StdMode::Exclusive, T).unwrap();
        lm.lock(tid(2), b, StdMode::Exclusive, T).unwrap();
        let lm1 = Arc::clone(&lm);
        let w1 = std::thread::spawn(move || {
            lm1.lock(tid(1), b, StdMode::Exclusive, Duration::from_secs(10))
        });
        let lm2 = Arc::clone(&lm);
        let w2 = std::thread::spawn(move || {
            lm2.lock(tid(2), a, StdMode::Exclusive, Duration::from_secs(10))
        });
        while lm.wait_graph().len() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(lm.wait_graph(), vec![(tid(1), tid(2)), (tid(2), tid(1))]);
        assert!(lm.abort_waiter(tid(2)));
        let err = w2.join().unwrap().unwrap_err();
        assert_eq!(err, LockError::Deadlock(a));
        lm.release_all(tid(2));
        w1.join().unwrap().unwrap();
        lm.release_all(tid(1));
        assert_eq!(lm.locked_object_count(), 0);
    }

    #[test]
    fn release_wakes_only_waiters_on_touched_stripes() {
        // A waiter parked on stripe(B) must still wake when its blocker
        // releases, while an unrelated holder on another stripe releasing
        // does not grant it anything.
        let lm = LockManager::<StdMode>::shared(DeadlockPolicy::Timeout);
        let (a, b) = cross_stripe_pair(&lm);
        lm.lock(tid(1), b, StdMode::Exclusive, T).unwrap();
        lm.lock(tid(3), a, StdMode::Exclusive, T).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            lm2.lock(tid(2), b, StdMode::Exclusive, Duration::from_secs(5))
        });
        while lm.wait_graph().is_empty() {
            std::thread::yield_now();
        }
        // Unrelated release on a different stripe: waiter stays parked.
        lm.release_all(tid(3));
        assert_eq!(lm.wait_graph(), vec![(tid(2), tid(1))]);
        lm.release_all(tid(1));
        waiter.join().unwrap().unwrap();
        assert!(lm.holds(tid(2), b));
        lm.release_all(tid(2));
    }

    /// Parks `n` exclusive waiters for distinct transactions on `o` and
    /// returns their join handles once all are registered.
    fn park_exclusive_waiters(
        lm: &Arc<LockManager<StdMode>>,
        o: ObjectId,
        ids: &[u64],
    ) -> Vec<std::thread::JoinHandle<Result<(), LockError>>> {
        let handles: Vec<_> = ids
            .iter()
            .map(|&s| {
                let lm = Arc::clone(lm);
                std::thread::spawn(move || {
                    let r = lm.lock(tid(s), o, StdMode::Exclusive, Duration::from_secs(10));
                    if r.is_ok() {
                        lm.release_all(tid(s));
                    }
                    r
                })
            })
            .collect();
        while lm.wait_graph().iter().map(|(w, _)| w).collect::<HashSet<_>>().len() < ids.len() {
            std::thread::yield_now();
        }
        handles
    }

    #[test]
    fn exclusive_herd_wakes_without_spurious_wakeups() {
        // Four exclusive waiters pile onto one object. As
        // the lock hands down the queue, each release must wake exactly
        // the next grantable waiter — never the whole herd.
        let lm = LockManager::<StdMode>::shared(DeadlockPolicy::Timeout);
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        let handles = park_exclusive_waiters(&lm, obj(1), &[2, 3, 4, 5]);
        lm.release_all(tid(1));
        for h in handles {
            h.join().unwrap().unwrap();
        }
        let stats = lm.wait_stats();
        assert_eq!(stats.waits, 4);
        assert_eq!(stats.spurious, 0, "a precise wakeup must only wake a waiter it can grant");
        assert_eq!(lm.locked_object_count(), 0);
    }

    #[test]
    fn readers_wake_together_behind_a_writer() {
        // Two shared waiters behind an exclusive holder form a compatible
        // prefix: one release wakes both at once.
        let lm = LockManager::<StdMode>::shared(DeadlockPolicy::Timeout);
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        let readers: Vec<_> = [2u64, 3]
            .iter()
            .map(|&s| {
                let lm = Arc::clone(&lm);
                std::thread::spawn(move || {
                    lm.lock(tid(s), obj(1), StdMode::Shared, Duration::from_secs(10))
                })
            })
            .collect();
        while lm.wait_graph().len() < 2 {
            std::thread::yield_now();
        }
        lm.release_all(tid(1));
        for r in readers {
            r.join().unwrap().unwrap();
        }
        assert_eq!(lm.holders(obj(1)).len(), 2);
        assert_eq!(lm.wait_stats().spurious, 0);
    }

    #[test]
    fn timed_out_waiter_leaves_the_queue_cleanly() {
        // W1 times out while parked behind the holder; W2, parked after
        // W1, must still be woken by the eventual release (the departed
        // waiter cannot leave a hole in the queue's wake order).
        let lm = LockManager::<StdMode>::shared(DeadlockPolicy::Timeout);
        lm.lock(tid(1), obj(1), StdMode::Exclusive, T).unwrap();
        let lm1 = Arc::clone(&lm);
        let w1 = std::thread::spawn(move || {
            lm1.lock(tid(2), obj(1), StdMode::Exclusive, Duration::from_millis(200))
        });
        let lm2 = Arc::clone(&lm);
        let w2 = std::thread::spawn(move || {
            lm2.lock(tid(3), obj(1), StdMode::Exclusive, Duration::from_secs(10))
        });
        while lm.wait_graph().len() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(w1.join().unwrap().unwrap_err(), LockError::Timeout(obj(1)));
        lm.release_all(tid(1));
        w2.join().unwrap().unwrap();
        assert!(lm.holds(tid(3), obj(1)));
        lm.release_all(tid(3));
    }

    #[test]
    fn upgrade_wakes_when_the_other_reader_releases() {
        // T1 (shared) waits to upgrade behind T2's shared hold. T2's
        // release must wake T1 even though T1 itself still holds the
        // object — self-compatibility in the wake computation.
        let lm = LockManager::<StdMode>::shared(DeadlockPolicy::Timeout);
        lm.lock(tid(1), obj(1), StdMode::Shared, T).unwrap();
        lm.lock(tid(2), obj(1), StdMode::Shared, T).unwrap();
        let lm1 = Arc::clone(&lm);
        let upgrader = std::thread::spawn(move || {
            lm1.lock(tid(1), obj(1), StdMode::Exclusive, Duration::from_secs(10))
        });
        while lm.wait_graph().is_empty() {
            std::thread::yield_now();
        }
        lm.release_all(tid(2));
        upgrader.join().unwrap().unwrap();
        assert!(!lm.try_lock(tid(3), obj(1), StdMode::Shared));
        lm.release_all(tid(1));
    }
}
