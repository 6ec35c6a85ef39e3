//! Ablations of the design choices DESIGN.md §4 calls out. Each row is
//! gated on counts and outcomes, never on wall time; the times are printed
//! beside them for the reader.
//!
//! 1. **Value vs operation logging** (§2.1.3, §7: "we plan to empirically
//!    compare the relative merits of value and operation logging"): the
//!    same logical update of a 200-byte object, logged both ways. Value
//!    logging writes old and new images of the whole object; operation
//!    logging writes one small record. Gate: fewer operation-log bytes per
//!    update.
//! 2. **Deadlock time-out vs detection** (§2.1.3): two transactions built
//!    to collide. Gate: detection refuses the cycle-closing request with
//!    `LockError::Deadlock`; the time-out policy refuses it with
//!    `LockError::Timeout`, after burning the whole wait.
//! 3. **Checkpoint interval** (§2.1.3): recovery after 50, 200 and 800
//!    committed transactions since the last truncation. Gate: the records
//!    recovery scans rise strictly with the log's length.
//! 4. **Type-specific locking** (§2.1.3, §4.6): two open transactions
//!    increment the same object. Gate: on the operation-logged counter
//!    both commuting `add`s commit; on the strictly locked integer array
//!    the second `add` is refused.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tabs_core::{Cluster, ClusterConfig, NodeId, ObjectId, SegmentId, Tid};
use tabs_lock::{DeadlockPolicy, LockError, LockManager, StdMode};
use tabs_servers::{CounterClient, CounterServer, IntArrayClient, IntArrayServer};

/// Size of the object row 1 updates.
const OBJECT_BYTES: usize = 200;
/// Committed-transaction counts row 3 recovers after.
pub const RECOVERY_TXNS: [u64; 3] = [50, 200, 800];
/// Lock time-out of the time-out policy in row 2.
const DEADLOCK_TIMEOUT: Duration = Duration::from_millis(30);
/// Lock time-out of row 4's cluster: how long the refused `add` waits.
const LOCKING_TIMEOUT: Duration = Duration::from_millis(100);

/// Row 1: one logging discipline's cost per committed update.
#[derive(Debug, Clone, Copy)]
pub struct LoggingCost {
    /// Log bytes per committed update (`LogManager::usage` delta).
    pub bytes: u64,
    /// Mean time per committed update.
    pub per_update: Duration,
}

/// Row 2: how one resolution policy ended the cycle-closing request.
#[derive(Debug, Clone)]
pub struct DeadlockOutcome {
    /// The lock manager's policy.
    pub policy: DeadlockPolicy,
    /// The request's result: a refusal, or `Ok` if it was granted.
    pub result: Result<(), LockError>,
    /// How long the request took to come back.
    pub resolved_in: Duration,
}

impl DeadlockOutcome {
    /// The request's result as the table and the gate name it.
    fn outcome(&self) -> &'static str {
        match self.result {
            Ok(()) => "granted",
            Err(LockError::Timeout(_)) => "refused: Timeout",
            Err(LockError::Deadlock(_)) => "refused: Deadlock",
        }
    }
}

/// Row 3: one recovery after `txns` committed transactions.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryScan {
    /// Committed transactions in the log.
    pub txns: u64,
    /// Durable log records recovery scanned.
    pub records_scanned: usize,
    /// Recovery wall time.
    pub elapsed: Duration,
}

/// Row 4: two open transactions incrementing one object.
#[derive(Debug, Clone)]
pub struct LockingOutcome {
    /// Of the two commuting `add`s on the counter, how many committed.
    pub commuting_committed: u32,
    /// Time for both commuting transactions to commit.
    pub commuting_elapsed: Duration,
    /// The second exclusive `add`'s result on the array.
    pub exclusive_second: Result<(), String>,
    /// Time for the exclusive pair to finish.
    pub exclusive_elapsed: Duration,
}

/// All four rows.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// Committed updates per logging discipline.
    pub updates: u64,
    /// Row 1, value logging.
    pub value_logging: LoggingCost,
    /// Row 1, operation logging.
    pub operation_logging: LoggingCost,
    /// Row 2: time-out, then detection.
    pub deadlock: [DeadlockOutcome; 2],
    /// Row 3, one entry per [`RECOVERY_TXNS`] count.
    pub recovery: Vec<RecoveryScan>,
    /// Row 4.
    pub locking: LockingOutcome,
}

/// Runs every row: `updates` committed updates per logging discipline.
pub fn run(updates: u64) -> Result<Ablations, String> {
    let (value_logging, operation_logging) = logging(updates)?;
    let deadlock = [
        deadlock(DeadlockPolicy::Timeout, DEADLOCK_TIMEOUT),
        deadlock(DeadlockPolicy::Detect, Duration::from_secs(5)),
    ];
    let recovery = RECOVERY_TXNS.iter().map(|&n| recovery_scan(n)).collect::<Result<_, _>>()?;
    Ok(Ablations {
        updates,
        value_logging,
        operation_logging,
        deadlock,
        recovery,
        locking: locking()?,
    })
}

/// Row 1 on one node: `updates` value-logged, then `updates`
/// operation-logged, updates of the same object, each committed alone.
fn logging(updates: u64) -> Result<(LoggingCost, LoggingCost), String> {
    let cluster = Cluster::new();
    let node = cluster.boot_node(NodeId(1));
    let seg = node.add_segment("ablate", 4);
    node.recover().map_err(|e| format!("recover: {e}"))?;
    let object = ObjectId::new(seg, 0, OBJECT_BYTES as u32);
    let one = 1u64.to_le_bytes().to_vec();
    let measure = |update: &dyn Fn(Tid)| -> Result<LoggingCost, String> {
        let before = node.rm.log().usage().0;
        let start = Instant::now();
        for _ in 0..updates {
            let tid = node.tm.begin(Tid::NULL).map_err(|e| format!("begin: {e}"))?;
            update(tid);
            node.rm.log_commit(tid).map_err(|e| format!("commit: {e}"))?;
        }
        let n = updates.max(1);
        Ok(LoggingCost {
            bytes: (node.rm.log().usage().0 - before) / n,
            per_update: start.elapsed() / n as u32,
        })
    };
    let value = measure(&|tid| {
        node.rm.log_value_update(tid, object, vec![0; OBJECT_BYTES], vec![1; OBJECT_BYTES]);
    })?;
    let operation = measure(&|tid| {
        node.rm.log_operation(tid, object, "add", one.clone(), one.clone());
    })?;
    node.shutdown();
    Ok((value, operation))
}

/// Row 2 for one policy: T1 and T2 each hold one lock, T2 queues for
/// T1's, then T1 asks for T2's and closes the cycle.
fn deadlock(policy: DeadlockPolicy, timeout: Duration) -> DeadlockOutcome {
    let seg = SegmentId { node: NodeId(1), index: 0 };
    let (a, b) = (ObjectId::new(seg, 0, 8), ObjectId::new(seg, 256, 8));
    let t1 = Tid { node: NodeId(1), incarnation: 1, seq: 1 };
    let t2 = Tid { node: NodeId(1), incarnation: 1, seq: 2 };
    let lm = Arc::new(LockManager::<StdMode>::new(policy));
    lm.lock(t1, a, StdMode::Exclusive, timeout).expect("free lock");
    lm.lock(t2, b, StdMode::Exclusive, timeout).expect("free lock");
    let waiter = {
        let lm = Arc::clone(&lm);
        std::thread::spawn(move || lm.lock(t2, a, StdMode::Exclusive, timeout))
    };
    // T2 must be queued before T1 closes the cycle, or T2 would be the
    // one refused.
    while lm.wait_stats().waits == 0 && !waiter.is_finished() {
        std::thread::sleep(Duration::from_micros(100));
    }
    let start = Instant::now();
    let result = lm.lock(t1, b, StdMode::Exclusive, timeout);
    let resolved_in = start.elapsed();
    lm.release_all(t1);
    let _ = waiter.join();
    lm.release_all(t2);
    DeadlockOutcome { policy, result, resolved_in }
}

/// Row 3 for one count: commits `txns` one-cell updates, crashes the node
/// and recovers it from the log alone.
fn recovery_scan(txns: u64) -> Result<RecoveryScan, String> {
    let cluster = Cluster::new();
    let node = cluster.boot_node(NodeId(1));
    let seg = node.add_segment("data", 64);
    node.recover().map_err(|e| format!("recover: {e}"))?;
    for i in 0..txns {
        let tid = node.tm.begin(Tid::NULL).map_err(|e| format!("begin: {e}"))?;
        let o = ObjectId::new(seg, (i % 64) * 8, 8);
        node.rm.log_value_update(tid, o, vec![0; 8], i.to_le_bytes().to_vec());
        node.rm.log_commit(tid).map_err(|e| format!("commit: {e}"))?;
    }
    node.crash();
    let node = cluster.boot_node(NodeId(1));
    node.add_segment("data", 64);
    let start = Instant::now();
    let report = node.recover().map_err(|e| format!("recover after crash: {e}"))?;
    let elapsed = start.elapsed();
    node.shutdown();
    Ok(RecoveryScan { txns, records_scanned: report.records_scanned, elapsed })
}

/// Row 4: the same two-transaction increment against the counter's
/// commuting `add` locks and against the array's exclusive locks.
fn locking() -> Result<LockingOutcome, String> {
    let cluster = Cluster::with_config(ClusterConfig::default().lock_timeout(LOCKING_TIMEOUT));
    let node = cluster.boot_node(NodeId(1));
    let ctr_srv = CounterServer::spawn(&node, "tsl-ctr", 4).map_err(|e| e.to_string())?;
    let arr_srv = IntArrayServer::spawn(&node, "tsl-arr", 4).map_err(|e| e.to_string())?;
    node.recover().map_err(|e| format!("recover: {e}"))?;
    let app = node.app();
    let ctr = CounterClient::new(app.clone(), ctr_srv.send_right());
    let arr = IntArrayClient::new(app.clone(), arr_srv.send_right());
    let begin = || app.begin_transaction(Tid::NULL).map_err(|e| format!("begin: {e}"));
    let committed = |t: Tid| app.end_transaction(t).is_ok_and(|o| o.is_committed());

    let start = Instant::now();
    let (t1, t2) = (begin()?, begin()?);
    let adds = [ctr.add(t1, 0, 1), ctr.add(t2, 0, 1)];
    let commuting_committed =
        adds.iter().zip([t1, t2]).filter(|(add, t)| add.is_ok() && committed(*t)).count() as u32;
    let commuting_elapsed = start.elapsed();

    let start = Instant::now();
    let (t1, t2) = (begin()?, begin()?);
    arr.add(t1, 0, 1).map_err(|e| format!("first exclusive add: {e}"))?;
    let exclusive_second = arr.add(t2, 0, 1).map(|_| ()).map_err(|e| e.to_string());
    if !committed(t1) {
        return Err("the first exclusive add did not commit".into());
    }
    let _ = app.abort_transaction(t2);
    let exclusive_elapsed = start.elapsed();
    node.shutdown();
    Ok(LockingOutcome {
        commuting_committed,
        commuting_elapsed,
        exclusive_second,
        exclusive_elapsed,
    })
}

/// The four checks; the first that fails, if any.
pub fn gate(a: &Ablations) -> Option<String> {
    if a.operation_logging.bytes >= a.value_logging.bytes {
        return Some(format!(
            "operation logging wrote {} log bytes per update, value logging {} (gate: fewer)",
            a.operation_logging.bytes, a.value_logging.bytes
        ));
    }
    for d in &a.deadlock {
        let expected = match d.policy {
            DeadlockPolicy::Timeout => "refused: Timeout",
            DeadlockPolicy::Detect => "refused: Deadlock",
        };
        if d.outcome() != expected {
            return Some(format!(
                "{:?} policy: cycle-closing request {} (gate: {expected})",
                d.policy,
                d.outcome()
            ));
        }
    }
    if a.recovery.windows(2).any(|w| w[1].records_scanned <= w[0].records_scanned) {
        let scanned: Vec<_> = a.recovery.iter().map(|r| (r.txns, r.records_scanned)).collect();
        return Some(format!(
            "recovery scanned (txns, records) {scanned:?} (gate: strictly rising with the log)"
        ));
    }
    if a.locking.commuting_committed != 2 {
        return Some(format!(
            "{} of 2 commuting adds committed (gate: both)",
            a.locking.commuting_committed
        ));
    }
    if a.locking.exclusive_second.is_ok() {
        return Some("the second exclusive add was granted (gate: refused)".into());
    }
    None
}

/// ASCII table of the four rows.
pub fn render(a: &Ablations) -> String {
    let mut out = String::new();
    out.push_str("Ablations (gated on counts and outcomes; times are for reading only)\n\n");
    out.push_str(&format!(
        "1. value vs operation logging, {}-byte object, {} committed updates each\n",
        OBJECT_BYTES, a.updates
    ));
    for (label, c) in [("value", a.value_logging), ("operation", a.operation_logging)] {
        out.push_str(&format!(
            "   {label:<10} {:>5} log bytes/update {:>10}/update\n",
            c.bytes,
            format!("{:.1?}", c.per_update)
        ));
    }
    out.push_str("\n2. deadlock resolution on a guaranteed two-transaction cycle\n");
    for d in &a.deadlock {
        out.push_str(&format!(
            "   {:<10} {:<18} after {:>9}\n",
            format!("{:?}", d.policy),
            d.outcome(),
            format!("{:.1?}", d.resolved_in)
        ));
    }
    out.push_str("\n3. recovery scan vs committed transactions since the last truncation\n");
    for r in &a.recovery {
        out.push_str(&format!(
            "   {:>5} txns {:>6} records scanned {:>10}\n",
            r.txns,
            r.records_scanned,
            format!("{:.2?}", r.elapsed)
        ));
    }
    let l = &a.locking;
    out.push_str("\n4. two open transactions incrementing one object\n");
    out.push_str(&format!(
        "   commuting add locks  {} of 2 committed {:>22}\n",
        l.commuting_committed,
        format!("{:.1?}", l.commuting_elapsed)
    ));
    out.push_str(&format!(
        "   exclusive locks      second add {:<18} {:>9}\n",
        if l.exclusive_second.is_err() { "refused" } else { "granted" },
        format!("{:.1?}", l.exclusive_elapsed)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_passes_its_gate() {
        let a = run(20).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(gate(&a), None, "{}", render(&a));
    }

    /// Each row's check fails on its own bad case.
    #[test]
    fn gate_rejects_each_failed_row() {
        let object = ObjectId::new(SegmentId { node: NodeId(1), index: 0 }, 0, 8);
        let cost = |bytes| LoggingCost { bytes, per_update: Duration::ZERO };
        let outcome =
            |policy, result| DeadlockOutcome { policy, result, resolved_in: Duration::ZERO };
        let scan =
            |txns, records_scanned| RecoveryScan { txns, records_scanned, elapsed: Duration::ZERO };
        let good = Ablations {
            updates: 1,
            value_logging: cost(458),
            operation_logging: cost(80),
            deadlock: [
                outcome(DeadlockPolicy::Timeout, Err(LockError::Timeout(object))),
                outcome(DeadlockPolicy::Detect, Err(LockError::Deadlock(object))),
            ],
            recovery: vec![scan(50, 100), scan(200, 400), scan(800, 1600)],
            locking: LockingOutcome {
                commuting_committed: 2,
                commuting_elapsed: Duration::ZERO,
                exclusive_second: Err("lock wait timed out".into()),
                exclusive_elapsed: Duration::ZERO,
            },
        };
        assert_eq!(gate(&good), None);
        let bad = |spoil: &dyn Fn(&mut Ablations)| {
            let mut a = good.clone();
            spoil(&mut a);
            gate(&a)
        };
        assert!(bad(&|a| a.operation_logging = cost(458)).is_some());
        assert!(bad(&|a| a.deadlock[0].result = Err(LockError::Deadlock(object))).is_some());
        assert!(bad(&|a| a.deadlock[1].result = Err(LockError::Timeout(object))).is_some());
        assert!(bad(&|a| a.deadlock[1].result = Ok(())).is_some());
        assert!(bad(&|a| a.recovery[2].records_scanned = 400).is_some());
        assert!(bad(&|a| a.locking.commuting_committed = 1).is_some());
        assert!(bad(&|a| a.locking.exclusive_second = Ok(())).is_some());
    }
}
