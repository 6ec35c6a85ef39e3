//! The log manager: volatile buffer + force protocol over a log device.
//!
//! §3.2.2: "All log records are written into a volatile buffer until the
//! buffer fills or until the buffer is forced to non-volatile storage by
//! either the write-ahead-log or commit protocols."

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use tabs_codec::{Decode, Encode};
use tabs_kernel::crash::CrashHookSlot;
use tabs_kernel::{crash_point, CrashHooks, PerfCounters, PrimitiveOp, Tid};
use tabs_obs::{Counter, TraceCollector, TraceEvent};

use crate::device::LogDevice;
use crate::records::{LogEntry, LogRecord, Lsn};

/// Errors from the log layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Device-level failure.
    Io(String),
    /// A durable record failed to decode (corruption past the torn-write
    /// detector).
    Codec(String),
    /// The device is full and reclamation could not make room.
    Full,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "log i/o error: {e}"),
            WalError::Codec(e) => write!(f, "log corruption: {e}"),
            WalError::Full => write!(f, "log device full"),
        }
    }
}

impl std::error::Error for WalError {}

/// The group-commit window: how long a batch leader may wait for peer
/// committers and how many it collects before forcing regardless.
///
/// Commit-path forces ([`LogManager::force_batched`]) from concurrent
/// committers are amortized into one device force per window. A lone
/// committer is delayed at most `max_delay`; a window that fills to
/// `max_batch` queued committers forces immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Longest a batch leader waits for peer committers before forcing.
    pub max_delay: Duration,
    /// Queued-committer count that triggers an immediate force.
    pub max_batch: usize,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        Self { max_delay: Duration::from_millis(2), max_batch: 32 }
    }
}

/// Counters surfacing the amortization (`wal.group.*` in the node's
/// metric registry). Stable-storage write counts themselves stay in
/// [`PerfCounters`] — Table 5-1 remains the single source of truth.
struct GroupMetrics {
    /// Covering forces issued by batch leaders (`wal.group.batches`).
    batches: Counter,
    /// Committers whose ticket a batched force resolved
    /// (`wal.group.batched_commits`).
    batched_commits: Counter,
}

/// Shared state of the group-commit window.
struct GroupState {
    /// Highest LSN any queued committer needs durable.
    high: Lsn,
    /// Committers that arrived since a leader last fixed its target —
    /// the ones no force is aimed at yet, the next leader included.
    waiters: usize,
    /// Windows closed so far: bumped each time a leader claims `waiters`.
    window: u64,
    /// Whether a leader is collecting a batch or forcing right now.
    leader_active: bool,
}

struct Inner {
    /// Appended but not yet durable (lost at crash).
    buffer: Vec<LogEntry>,
    /// Durable records, mirroring the device for fast scans.
    durable: Vec<LogEntry>,
    next_lsn: u64,
    /// Highest durable LSN.
    durable_lsn: Lsn,
    /// First LSN dropped by a failed device write: records from here on
    /// left the buffer but never reached stable storage, so any force
    /// covering them must fail rather than report an empty-buffer success
    /// (a committer must never be told "durable" for a lost record).
    lost_from: Option<Lsn>,
    /// Backward-chain tails: last LSN written per transaction.
    chain: HashMap<Tid, Lsn>,
}

/// One node's interface to the common log.
pub struct LogManager {
    device: Arc<dyn LogDevice>,
    inner: Mutex<Inner>,
    perf: Arc<PerfCounters>,
    trace: Mutex<Option<Arc<TraceCollector>>>,
    crash: CrashHookSlot,
    group_cfg: Mutex<Option<GroupCommitConfig>>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    group_metrics: Mutex<Option<GroupMetrics>>,
}

/// Crash-points the log manager fires (see `tabs_kernel::crash`). The
/// `wal.group.*` pair brackets the batch leader's covering force and only
/// fires when group commit is enabled.
pub const CRASH_POINTS: &[&str] = &[
    "wal.append.before",
    "wal.append.after",
    "wal.force.before",
    "wal.force.after",
    "wal.group.before-force",
    "wal.group.after-force",
];

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("LogManager")
            .field("durable", &inner.durable.len())
            .field("buffered", &inner.buffer.len())
            .field("next_lsn", &inner.next_lsn)
            .finish()
    }
}

impl LogManager {
    /// Opens the log on `device`, recovering the durable record sequence.
    /// Buffered (un-forced) records from before a crash are gone, exactly
    /// as in the paper's model.
    pub fn open(device: Arc<dyn LogDevice>, perf: Arc<PerfCounters>) -> Result<Self, WalError> {
        let frames = device.scan().map_err(|e| WalError::Io(e.to_string()))?;
        let mut durable = Vec::with_capacity(frames.len());
        for f in &frames {
            let entry = LogEntry::decode_all(f).map_err(|e| WalError::Codec(e.to_string()))?;
            durable.push(entry);
        }
        let next_lsn = durable.last().map(|e| e.lsn.0 + 1).unwrap_or(1);
        let durable_lsn = durable.last().map(|e| e.lsn).unwrap_or(Lsn::ZERO);
        // Rebuild the backward-chain tails from the durable records, so a
        // transaction recovered in-doubt can still be undone through
        // `backward_chain` after a reboot.
        let mut chain = HashMap::new();
        for e in &durable {
            if let Some(tid) = e.record.tid() {
                chain.insert(tid, e.lsn);
            }
        }
        Ok(Self {
            device,
            inner: Mutex::new(Inner {
                buffer: Vec::new(),
                durable,
                next_lsn,
                durable_lsn,
                lost_from: None,
                chain,
            }),
            perf,
            trace: Mutex::new(None),
            crash: CrashHookSlot::new(None),
            group_cfg: Mutex::new(None),
            group: Mutex::new(GroupState {
                high: Lsn::ZERO,
                waiters: 0,
                window: 0,
                leader_active: false,
            }),
            group_cv: Condvar::new(),
            group_metrics: Mutex::new(None),
        })
    }

    /// Enables (`Some`) or disables (`None`) the group-commit window for
    /// [`LogManager::force_batched`]. Disabled, the batched entry point is
    /// byte-identical to [`LogManager::force`] — the seed commit path.
    pub fn set_group_commit(&self, cfg: Option<GroupCommitConfig>) {
        *self.group_cfg.lock() = cfg;
    }

    /// Wires the `wal.group.batches` / `wal.group.batched_commits`
    /// counters a batch leader bumps per covering force.
    pub fn set_group_metrics(&self, batches: Counter, batched_commits: Counter) {
        *self.group_metrics.lock() = Some(GroupMetrics { batches, batched_commits });
    }

    /// Attaches a trace collector; appends and forces are recorded as
    /// [`TraceEvent::LogAppend`] / [`TraceEvent::LogForce`].
    pub fn set_trace(&self, trace: Arc<TraceCollector>) {
        *self.trace.lock() = Some(trace);
    }

    /// Installs crash-point hooks fired at the [`CRASH_POINTS`] boundaries.
    pub fn set_crash_hooks(&self, hooks: Arc<dyn CrashHooks>) {
        *self.crash.lock() = Some(hooks);
    }

    fn emit(&self, tid: Tid, event: TraceEvent) {
        if let Some(t) = self.trace.lock().as_ref() {
            t.record(tid, event);
        }
    }

    /// Appends `record`, linking it into its transaction's backward chain.
    /// The record is volatile until [`LogManager::force`].
    pub fn append(&self, record: LogRecord) -> Lsn {
        crash_point!(&self.crash, "wal.append.before");
        let mut inner = self.inner.lock();
        let lsn = Lsn(inner.next_lsn);
        inner.next_lsn += 1;
        let record_tid = record.tid();
        let prev = record_tid.and_then(|tid| inner.chain.get(&tid).copied());
        if let Some(tid) = record_tid {
            inner.chain.insert(tid, lsn);
        }
        inner.buffer.push(LogEntry { lsn, prev, record });
        drop(inner);
        self.emit(record_tid.unwrap_or(Tid::NULL), TraceEvent::LogAppend { lsn: lsn.0 });
        crash_point!(&self.crash, "wal.append.after");
        lsn
    }

    /// Forces all records with LSN ≤ `upto` (or everything buffered when
    /// `None`) to the device. One Stable-Storage-Write primitive is counted
    /// per force that moves data.
    pub fn force(&self, upto: Option<Lsn>) -> Result<Lsn, WalError> {
        crash_point!(&self.crash, "wal.force.before");
        let mut inner = self.inner.lock();
        let limit = upto.unwrap_or(Lsn(u64::MAX));
        if let Some(lost) = inner.lost_from {
            if limit >= lost {
                // An earlier device failure dropped records from `lost`
                // on: they can never become durable, so a force covering
                // them must not report success (the empty buffer below
                // would otherwise look like an already-satisfied force).
                return Err(WalError::Io(format!(
                    "records from {lost:?} were lost by an earlier device failure"
                )));
            }
        }
        if inner.buffer.first().is_none_or(|e| e.lsn > limit) {
            // Nothing to do: no stable-storage write is counted and no
            // `LogForce` event is emitted — a force that moved no data
            // must not show up as a phantom force on timelines.
            return Ok(inner.durable_lsn);
        }
        let split = inner.buffer.partition_point(|e| e.lsn <= limit);
        let to_write: Vec<LogEntry> = inner.buffer.drain(..split).collect();
        let write = || -> Result<(), WalError> {
            for entry in &to_write {
                self.device
                    .append(&entry.encode_to_vec())
                    .map_err(|e| WalError::Io(e.to_string()))?;
            }
            self.device.force().map_err(|e| WalError::Io(e.to_string()))
        };
        if let Err(e) = write() {
            let first = to_write.first().expect("non-empty batch").lsn;
            inner.lost_from = Some(inner.lost_from.map_or(first, |l| l.min(first)));
            return Err(e);
        }
        self.perf.record(PrimitiveOp::StableStorageWrite);
        if let Some(last) = to_write.last() {
            inner.durable_lsn = last.lsn;
        }
        // Attribute the force to the newest transaction it made durable
        // (typically the commit or prepare record that demanded it).
        let force_tid = to_write.iter().rev().find_map(|e| e.record.tid()).unwrap_or(Tid::NULL);
        inner.durable.extend(to_write);
        let durable_lsn = inner.durable_lsn;
        drop(inner);
        self.emit(force_tid, TraceEvent::LogForce { lsn: durable_lsn.0 });
        crash_point!(&self.crash, "wal.force.after");
        Ok(durable_lsn)
    }

    /// Appends `record` and immediately forces through it.
    ///
    /// This is the *immediate* force path — recovery, checkpointing and
    /// the write-ahead-log gate need durability right now, with no batch
    /// window. Commit-path callers (commit and prepare records) should go
    /// through [`LogManager::force_batched`] instead so concurrent
    /// committers share one device force.
    pub fn append_forced(&self, record: LogRecord) -> Result<Lsn, WalError> {
        let lsn = self.append(record);
        self.force(Some(lsn))?;
        Ok(lsn)
    }

    /// Commit-path force: blocks until a force covering `lsn` has
    /// returned, sharing one device force among every committer queued in
    /// the same group-commit window.
    ///
    /// With group commit disabled this is exactly `force(Some(lsn))` —
    /// the seed path, byte-identical primitive counts. Enabled, the first
    /// arriving committer becomes the batch *leader* (leader-piggyback:
    /// no dedicated batcher thread): it waits up to the configured
    /// `max_delay` for peers — returning early once `max_batch` are
    /// queued — then issues one `device.force()` covering the highest
    /// queued LSN and wakes every satisfied waiter. The durability
    /// argument is the ticket: this call returns `Ok` only after a force
    /// covering `lsn` has returned from the device, so a transaction
    /// reported committed is always on stable storage.
    pub fn force_batched(&self, lsn: Lsn) -> Result<Lsn, WalError> {
        let Some(cfg) = *self.group_cfg.lock() else {
            return self.force(Some(lsn));
        };
        let mut g = self.group.lock();
        g.waiters += 1;
        let arrived_in = g.window;
        if g.high < lsn {
            g.high = lsn;
        }
        // Poke a collecting leader: the window may just have filled.
        self.group_cv.notify_all();
        let result = loop {
            if self.durable_lsn() >= lsn {
                break Ok(self.durable_lsn());
            }
            if g.leader_active {
                // Ride the in-flight batch (or the next one).
                self.group_cv.wait(&mut g);
                continue;
            }
            // Leader-piggyback: this committer forces for the batch.
            g.leader_active = true;
            let deadline = Instant::now() + cfg.max_delay;
            while g.waiters < cfg.max_batch {
                if self.group_cv.wait_until(&mut g, deadline).timed_out() {
                    break;
                }
            }
            let target = g.high;
            // Everyone who has arrived is at or below `target`: claim
            // them. A committer this force satisfies may lap the others
            // and arrive again before they have woken up and left; were
            // they still counted, its next window would look full and it
            // would force alone.
            let batch = std::mem::take(&mut g.waiters) as u64;
            g.window += 1;
            drop(g);
            crash_point!(&self.crash, "wal.group.before-force");
            let before = self.durable_lsn();
            let forced = self.force(Some(target));
            crash_point!(&self.crash, "wal.group.after-force");
            if matches!(&forced, Ok(durable) if *durable > before) {
                // The force moved data: account the batch. (If a
                // concurrent immediate force already covered the window,
                // no batch happened and none is counted.)
                if let Some(m) = self.group_metrics.lock().as_ref() {
                    m.batches.inc();
                    m.batched_commits.add(batch);
                }
                self.emit(
                    Tid::NULL,
                    TraceEvent::LogForceBatched { lsn: target.0, batch_size: batch },
                );
            }
            g = self.group.lock();
            g.leader_active = false;
            if forced.is_ok() && g.high <= target {
                g.high = Lsn::ZERO;
            }
            self.group_cv.notify_all();
            break forced;
        };
        if g.window == arrived_in {
            // Leaving unclaimed — an immediate force, or a neighbour's
            // before this call, had covered `lsn`: not part of the next
            // window either.
            g.waiters -= 1;
        }
        result
    }

    /// Highest LSN guaranteed durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.inner.lock().durable_lsn
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.inner.lock().next_lsn)
    }

    /// Every durable record, in LSN order (what crash recovery sees).
    pub fn durable_entries(&self) -> Vec<LogEntry> {
        self.inner.lock().durable.clone()
    }

    /// Every record including the volatile tail (what in-flight abort
    /// processing walks).
    pub fn all_entries(&self) -> Vec<LogEntry> {
        let inner = self.inner.lock();
        let mut v = inner.durable.clone();
        v.extend(inner.buffer.iter().cloned());
        v
    }

    /// Fetches one record by LSN (durable or buffered).
    pub fn entry(&self, lsn: Lsn) -> Option<LogEntry> {
        let inner = self.inner.lock();
        // LSNs are dense, but truncation may have removed a prefix; search
        // by binary partition on the durable part first.
        let d = &inner.durable;
        if let Ok(i) = d.binary_search_by_key(&lsn, |e| e.lsn) {
            return Some(d[i].clone());
        }
        inner.buffer.iter().find(|e| e.lsn == lsn).cloned()
    }

    /// The last LSN written by `tid`, the tail of its backward chain.
    pub fn chain_tail(&self, tid: Tid) -> Option<Lsn> {
        self.inner.lock().chain.get(&tid).copied()
    }

    /// Walks the backward chain of `tid` from its tail: the transaction's
    /// records, newest first.
    pub fn backward_chain(&self, tid: Tid) -> Vec<LogEntry> {
        let mut out = Vec::new();
        let mut cursor = self.chain_tail(tid);
        while let Some(lsn) = cursor {
            match self.entry(lsn) {
                Some(e) => {
                    cursor = e.prev;
                    out.push(e);
                }
                None => break,
            }
        }
        out
    }

    /// Discards durable records with LSN < `keep_from` (log reclamation).
    /// Buffered records are never discarded.
    pub fn truncate_before(&self, keep_from: Lsn) -> Result<usize, WalError> {
        let mut inner = self.inner.lock();
        let n = inner.durable.partition_point(|e| e.lsn < keep_from);
        if n == 0 {
            return Ok(0);
        }
        self.device.truncate_front(n).map_err(|e| WalError::Io(e.to_string()))?;
        inner.durable.drain(..n);
        Ok(n)
    }

    /// Bytes used and device capacity, for the reclamation trigger.
    pub fn usage(&self) -> (u64, u64) {
        (self.device.len_bytes(), self.device.capacity_bytes())
    }

    /// The underlying device (shared with a restarted node).
    pub fn device(&self) -> Arc<dyn LogDevice> {
        Arc::clone(&self.device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemLogDevice;
    use proptest::prelude::*;
    use tabs_kernel::NodeId;

    fn tid(s: u64) -> Tid {
        Tid { node: NodeId(1), incarnation: 1, seq: s }
    }

    fn manager() -> (LogManager, Arc<MemLogDevice>) {
        let dev = MemLogDevice::new(1 << 20);
        let lm =
            LogManager::open(Arc::clone(&dev) as Arc<dyn LogDevice>, PerfCounters::new()).unwrap();
        (lm, dev)
    }

    #[test]
    fn lsns_are_dense_and_monotonic() {
        let (lm, _) = manager();
        let a = lm.append(LogRecord::Begin { tid: tid(1), parent: Tid::NULL });
        let b = lm.append(LogRecord::Commit { tid: tid(1) });
        assert_eq!(a, Lsn(1));
        assert_eq!(b, Lsn(2));
        assert_eq!(lm.next_lsn(), Lsn(3));
    }

    #[test]
    fn unforced_records_lost_on_reopen() {
        let (lm, dev) = manager();
        lm.append(LogRecord::Begin { tid: tid(1), parent: Tid::NULL });
        lm.append_forced(LogRecord::Begin { tid: tid(2), parent: Tid::NULL }).unwrap();
        lm.append(LogRecord::Commit { tid: tid(2) }); // never forced
        drop(lm); // crash
        let lm2 = LogManager::open(dev as Arc<dyn LogDevice>, PerfCounters::new()).unwrap();
        let entries = lm2.durable_entries();
        // Both begins were forced (force writes everything ≤ the target
        // LSN), the commit was not.
        assert_eq!(entries.len(), 2);
        assert!(matches!(entries[1].record, LogRecord::Begin { .. }));
        // New LSNs continue after the durable tail.
        assert_eq!(lm2.next_lsn(), Lsn(3));
    }

    #[test]
    fn backward_chain_rebuilt_after_reopen() {
        // A transaction left in-doubt by a crash must still be undoable
        // after reboot: `open` rebuilds the chain tails from the durable
        // records.
        let dev = MemLogDevice::new(1 << 20);
        let lm =
            LogManager::open(Arc::clone(&dev) as Arc<dyn LogDevice>, PerfCounters::new()).unwrap();
        let t = tid(9);
        lm.append(LogRecord::Begin { tid: t, parent: Tid::NULL });
        lm.append(LogRecord::Commit { tid: t });
        lm.force(None).unwrap();
        drop(lm); // crash
        let lm2 = LogManager::open(dev as Arc<dyn LogDevice>, PerfCounters::new()).unwrap();
        let chain = lm2.backward_chain(t);
        assert_eq!(chain.len(), 2, "chain tail survives reopen");
        assert!(matches!(chain[0].record, LogRecord::Commit { .. }));
        assert!(matches!(chain[1].record, LogRecord::Begin { .. }));
    }

    #[test]
    fn force_counts_stable_storage_writes() {
        let dev = MemLogDevice::new(1 << 20);
        let perf = PerfCounters::new();
        let lm = LogManager::open(dev as Arc<dyn LogDevice>, Arc::clone(&perf)).unwrap();
        lm.append(LogRecord::Begin { tid: tid(1), parent: Tid::NULL });
        lm.force(None).unwrap();
        lm.force(None).unwrap(); // empty force: no write counted
        assert_eq!(perf.get(PrimitiveOp::StableStorageWrite), 1);
    }

    #[test]
    fn partial_force_respects_lsn_bound() {
        let (lm, _) = manager();
        let a = lm.append(LogRecord::Begin { tid: tid(1), parent: Tid::NULL });
        let _b = lm.append(LogRecord::Begin { tid: tid(2), parent: Tid::NULL });
        lm.force(Some(a)).unwrap();
        assert_eq!(lm.durable_lsn(), a);
        assert_eq!(lm.durable_entries().len(), 1);
        assert_eq!(lm.all_entries().len(), 2);
    }

    #[test]
    fn backward_chain_walks_one_transaction() {
        let (lm, _) = manager();
        let t1 = tid(1);
        let t2 = tid(2);
        lm.append(LogRecord::Begin { tid: t1, parent: Tid::NULL });
        lm.append(LogRecord::Begin { tid: t2, parent: Tid::NULL });
        lm.append(LogRecord::Commit { tid: t2 });
        lm.append(LogRecord::Commit { tid: t1 });
        let chain: Vec<_> = lm.backward_chain(t1).iter().map(|e| e.lsn).collect();
        assert_eq!(chain, vec![Lsn(4), Lsn(1)]);
        let chain2: Vec<_> = lm.backward_chain(t2).iter().map(|e| e.lsn).collect();
        assert_eq!(chain2, vec![Lsn(3), Lsn(2)]);
    }

    #[test]
    fn chain_spans_buffer_and_durable() {
        let (lm, _) = manager();
        let t = tid(1);
        lm.append_forced(LogRecord::Begin { tid: t, parent: Tid::NULL }).unwrap();
        lm.append(LogRecord::Abort { tid: t });
        let chain = lm.backward_chain(t);
        assert_eq!(chain.len(), 2);
        assert!(matches!(chain[0].record, LogRecord::Abort { .. }));
        assert!(matches!(chain[1].record, LogRecord::Begin { .. }));
    }

    #[test]
    fn truncation_drops_prefix_only() {
        let (lm, _) = manager();
        for i in 1..=5 {
            lm.append_forced(LogRecord::Begin { tid: tid(i), parent: Tid::NULL }).unwrap();
        }
        let dropped = lm.truncate_before(Lsn(3)).unwrap();
        assert_eq!(dropped, 2);
        let entries = lm.durable_entries();
        assert_eq!(entries.first().unwrap().lsn, Lsn(3));
        // Lookup by LSN still works after truncation.
        assert!(lm.entry(Lsn(2)).is_none());
        assert!(lm.entry(Lsn(4)).is_some());
    }

    #[test]
    fn usage_reflects_appends() {
        let (lm, _) = manager();
        let (used0, cap) = lm.usage();
        assert_eq!(used0, 0);
        assert_eq!(cap, 1 << 20);
        lm.append_forced(LogRecord::Begin { tid: tid(1), parent: Tid::NULL }).unwrap();
        assert!(lm.usage().0 > 0);
    }

    #[test]
    fn failed_force_poisons_the_lost_records() {
        // Regression: a failed device write drains the buffered records,
        // and before the `lost_from` poison a retry covering them hit the
        // empty-buffer early return and reported success — a committer
        // could be told "durable" for a record that no longer exists.
        let faults = crate::LogFaults::new();
        let dev = crate::FaultLogDevice::new(1 << 20, Arc::clone(&faults));
        let lm = LogManager::open(dev as Arc<dyn LogDevice>, PerfCounters::new()).unwrap();
        let a = lm.append_forced(LogRecord::Begin { tid: tid(1), parent: Tid::NULL }).unwrap();
        let b = lm.append(LogRecord::Commit { tid: tid(1) });
        faults.halt();
        assert!(lm.force(Some(b)).is_err(), "halted device must fail the force");
        faults.clear();
        // The commit record is gone: forcing over it must keep failing,
        // while forces the durable prefix already covers still succeed.
        assert!(lm.force(Some(b)).is_err(), "lost records must never report durable");
        assert!(lm.force_batched(b).is_err());
        assert_eq!(lm.force(Some(a)).unwrap(), a);
        assert_eq!(lm.durable_lsn(), a);
    }

    #[test]
    fn empty_force_emits_no_trace_event() {
        // Regression: a force that moves no data must not show up as a
        // phantom `LogForce` on timelines.
        let (lm, _) = manager();
        let trace = TraceCollector::new(NodeId(1), 64);
        lm.set_trace(Arc::clone(&trace));
        let lsn = lm.append(LogRecord::Begin { tid: tid(1), parent: Tid::NULL });
        lm.force(Some(lsn)).unwrap();
        lm.force(Some(lsn)).unwrap(); // nothing left to move
        lm.force(None).unwrap(); // nothing left at all
        let forces = trace
            .snapshot()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::LogForce { .. }))
            .count();
        assert_eq!(forces, 1, "only the data-moving force is on the timeline");
    }

    #[test]
    fn force_batched_without_config_matches_seed_path() {
        // Group commit disabled (the default): force_batched is exactly
        // force(Some(lsn)) — one stable-storage write per data-moving
        // force, no batch metrics, no batched trace events.
        let dev = MemLogDevice::new(1 << 20);
        let perf = PerfCounters::new();
        let lm = LogManager::open(dev as Arc<dyn LogDevice>, Arc::clone(&perf)).unwrap();
        let trace = TraceCollector::new(NodeId(1), 64);
        lm.set_trace(Arc::clone(&trace));
        let batches = Counter::default();
        let batched_commits = Counter::default();
        lm.set_group_metrics(batches.clone(), batched_commits.clone());
        for i in 1..=3 {
            let lsn = lm.append(LogRecord::Commit { tid: tid(i) });
            lm.force_batched(lsn).unwrap();
        }
        assert_eq!(perf.get(PrimitiveOp::StableStorageWrite), 3);
        assert_eq!(batches.get(), 0);
        assert_eq!(batched_commits.get(), 0);
        assert!(!trace
            .snapshot()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::LogForceBatched { .. })));
    }

    #[test]
    fn lone_committer_is_forced_within_the_window() {
        // A committer with no peers must not wait beyond max_delay.
        let dev = MemLogDevice::new(1 << 20);
        let perf = PerfCounters::new();
        let lm = LogManager::open(dev as Arc<dyn LogDevice>, Arc::clone(&perf)).unwrap();
        lm.set_group_commit(Some(GroupCommitConfig {
            max_delay: Duration::from_millis(50),
            max_batch: 64,
        }));
        let lsn = lm.append(LogRecord::Commit { tid: tid(1) });
        let start = Instant::now();
        let durable = lm.force_batched(lsn).unwrap();
        assert!(durable >= lsn);
        assert_eq!(lm.durable_lsn(), lsn);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "lone committer delayed far beyond the window: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn committer_already_covered_is_not_counted_into_the_next_window() {
        // Preempted between append and force, a committer can arrive to
        // find an immediate force has covered it. It leaves unclaimed and
        // must take its count with it, or the next window would open one
        // phantom fuller.
        let dev = MemLogDevice::new(1 << 20);
        let lm = LogManager::open(dev as Arc<dyn LogDevice>, PerfCounters::new()).unwrap();
        lm.set_group_commit(Some(GroupCommitConfig {
            max_delay: Duration::from_millis(1),
            max_batch: 2,
        }));
        let batches = Counter::default();
        let batched_commits = Counter::default();
        lm.set_group_metrics(batches.clone(), batched_commits.clone());
        let covered = lm.append(LogRecord::Commit { tid: tid(1) });
        lm.force(None).unwrap();
        assert_eq!(lm.force_batched(covered).unwrap(), covered);
        assert_eq!(lm.group.lock().waiters, 0);
        let lsn = lm.append(LogRecord::Commit { tid: tid(2) });
        lm.force_batched(lsn).unwrap();
        assert_eq!((batches.get(), batched_commits.get()), (1, 1));
    }

    #[test]
    fn concurrent_committers_share_one_force() {
        // With a generous window, N committers arriving together should
        // be amortized into far fewer than N device forces.
        const COMMITTERS: u64 = 8;
        let dev = MemLogDevice::new(1 << 20);
        let perf = PerfCounters::new();
        let lm = Arc::new(LogManager::open(dev as Arc<dyn LogDevice>, Arc::clone(&perf)).unwrap());
        lm.set_group_commit(Some(GroupCommitConfig {
            max_delay: Duration::from_millis(20),
            max_batch: COMMITTERS as usize,
        }));
        let batches = Counter::default();
        let batched_commits = Counter::default();
        lm.set_group_metrics(batches.clone(), batched_commits.clone());
        let barrier = Arc::new(std::sync::Barrier::new(COMMITTERS as usize));
        let handles: Vec<_> = (1..=COMMITTERS)
            .map(|i| {
                let lm = Arc::clone(&lm);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let lsn = lm.append(LogRecord::Commit { tid: tid(i) });
                    lm.force_batched(lsn).map(|durable| (lsn, durable))
                })
            })
            .collect();
        let mut high = Lsn::ZERO;
        for h in handles {
            let (lsn, durable) = h.join().expect("committer").expect("force");
            assert!(durable >= lsn, "ticket resolved before the covering force");
            high = high.max(lsn);
        }
        assert_eq!(lm.durable_lsn(), high);
        let forces = perf.get(PrimitiveOp::StableStorageWrite);
        assert!(forces < COMMITTERS, "{COMMITTERS} committers should share forces, saw {forces}");
        // A committer whose LSN was covered by a force it never
        // registered with is satisfied without riding a batch, so the
        // rider count is bounded by — not always equal to — COMMITTERS.
        assert!(batched_commits.get() <= COMMITTERS);
        assert!(batched_commits.get() >= batches.get(), "every batch has at least one rider");
        assert_eq!(batches.get(), forces, "one batch accounted per data-moving force");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Durability prefix property: after any sequence of appends and
        /// partial forces followed by a crash, exactly the records with
        /// LSN ≤ the last force target survive — never a gap, never a
        /// torn suffix.
        #[test]
        fn prop_durable_prefix(
            appends in proptest::collection::vec(any::<bool>(), 1..40),
        ) {
            let dev = MemLogDevice::new(8 << 20);
            let lm = LogManager::open(
                Arc::clone(&dev) as Arc<dyn LogDevice>,
                PerfCounters::new(),
            )
            .unwrap();
            let mut last_forced = 0u64;
            let mut appended = 0u64;
            for force_now in appends {
                appended += 1;
                let lsn = lm.append(LogRecord::Begin {
                    tid: tid(appended),
                    parent: Tid::NULL,
                });
                prop_assert_eq!(lsn.0, appended);
                if force_now {
                    lm.force(Some(lsn)).unwrap();
                    last_forced = appended;
                }
            }
            drop(lm); // crash: buffered tail vanishes
            let lm2 = LogManager::open(dev as Arc<dyn LogDevice>, PerfCounters::new())
                .unwrap();
            let durable = lm2.durable_entries();
            prop_assert_eq!(durable.len() as u64, last_forced);
            for (i, e) in durable.iter().enumerate() {
                prop_assert_eq!(e.lsn.0, i as u64 + 1, "dense LSNs, no gaps");
            }
            // New appends continue after the whole pre-crash sequence.
            prop_assert_eq!(lm2.next_lsn().0, last_forced + 1);
        }

        /// Backward chains always reach every record of the transaction,
        /// newest first, regardless of interleaving.
        #[test]
        fn prop_backward_chains_complete(
            writers in proptest::collection::vec(1u64..4, 1..30),
        ) {
            let (lm, _) = manager();
            let mut per_tx: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            for w in &writers {
                lm.append(LogRecord::Begin { tid: tid(*w), parent: Tid::NULL });
                *per_tx.entry(*w).or_insert(0) += 1;
            }
            for (w, count) in per_tx {
                let chain = lm.backward_chain(tid(w));
                prop_assert_eq!(chain.len() as u64, count);
                for pair in chain.windows(2) {
                    prop_assert!(pair[0].lsn > pair[1].lsn, "newest first");
                }
            }
        }
    }

    #[test]
    fn reopen_continues_lsn_sequence_after_truncation() {
        let (lm, dev) = manager();
        for i in 1..=4 {
            lm.append_forced(LogRecord::Begin { tid: tid(i), parent: Tid::NULL }).unwrap();
        }
        lm.truncate_before(Lsn(3)).unwrap();
        drop(lm);
        let lm2 = LogManager::open(dev as Arc<dyn LogDevice>, PerfCounters::new()).unwrap();
        assert_eq!(lm2.next_lsn(), Lsn(5));
        assert_eq!(lm2.durable_entries().len(), 2);
    }
}
