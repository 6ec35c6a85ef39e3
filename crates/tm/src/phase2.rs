//! The phase-2 chaser: delivery of a decision that is already durable.
//!
//! Under presumed abort the coordinator's forced commit record *is* the
//! commit point: once it is on stable storage no acknowledgement can
//! change the outcome. The committer therefore sends each decision
//! datagram once, inline, registers the transaction here and returns to
//! its caller; everything that merely *delivers* the decision —
//! retransmission to silent children, abandoning quorum-group members
//! that died, giving up at the ack deadline, and (on an intermediate
//! commit-tree node) acknowledging the parent once the subtree has —
//! happens on one long-lived thread per Transaction Manager. Aborts ride
//! the same mechanism.
//!
//! The thread parks while nothing is pending, is not woken by a commit
//! whose first retransmit falls after the instant it already sleeps to
//! (under steady load, every commit), and otherwise sleeps until the
//! earliest retransmit or deadline instant; acknowledgements drain the
//! pending map from the datagram path without involving it. Pending
//! chases are volatile: a crash loses them, and participants left in
//! doubt pull the outcome from the durable record (`Inquire` /
//! `OutcomeQuery`).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use tabs_kernel::{NodeId, Tid};
use tabs_obs::Counter;
use tabs_proto::CommitMsg;

use crate::TransactionManager;

/// One decision still owed to some commit-tree children.
struct Chase {
    /// Children that have not acknowledged (or been abandoned).
    targets: HashSet<NodeId>,
    msg: CommitMsg,
    next_retransmit: Instant,
    deadline: Instant,
    /// Intermediate tree node: the parent to `CommitAck` once the
    /// subtree has acknowledged, keeping the ack order root-last.
    ack_parent: Option<NodeId>,
}

#[derive(Default)]
struct State {
    chases: HashMap<Tid, Chase>,
    /// The instant the chaser thread sleeps to; `None` while it is parked
    /// in its untimed wait. A new chase notifies it only when parked or
    /// due sooner — under steady load, never.
    next_wake: Option<Instant>,
    stop: bool,
    /// `tm.phase2.retransmits`: decision datagrams re-sent on a tick.
    retransmits: Counter,
    /// `tm.phase2.expired`: chases given up at the ack deadline.
    expired: Counter,
    /// `tm.phase2.pending`: current size of the pending map.
    pending: Counter,
}

/// The pending map and the thread that ticks over it.
#[derive(Default)]
pub(crate) struct Phase2 {
    state: Mutex<State>,
    /// Wakes the chaser thread (first chase after a park, or stop).
    wake: Condvar,
    /// Signalled whenever the pending map becomes empty.
    drained: Condvar,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Phase2 {
    /// Spawns the chaser thread for `tm`. The thread holds only a weak
    /// reference, so dropping the manager ends it.
    pub(crate) fn start(tm: &Arc<TransactionManager>) {
        let weak = Arc::downgrade(tm);
        let shared = Arc::clone(&tm.phase2);
        let handle = std::thread::Builder::new()
            .name(format!("{}-tm-phase2", tm.node))
            .spawn(move || shared.run(weak))
            .expect("spawn phase-2 chaser");
        *tm.phase2.thread.lock() = Some(handle);
    }

    fn run(&self, tm: Weak<TransactionManager>) {
        let mut st = self.state.lock();
        while !st.stop {
            let next = st.chases.values().map(|c| c.next_retransmit.min(c.deadline)).min();
            match next {
                None => {
                    st.next_wake = None;
                    self.wake.wait(&mut st);
                }
                Some(at) if Instant::now() < at => {
                    st.next_wake = Some(at);
                    self.wake.wait_until(&mut st, at);
                }
                Some(_) => {
                    let Some(tm) = tm.upgrade() else { return };
                    // `tm` moves into the closure: were this the last
                    // reference, its drop (which locks the state to stop
                    // us) must not run under our own guard.
                    parking_lot::MutexGuard::unlocked(&mut st, move || tm.phase2_tick());
                }
            }
        }
    }

    /// Ends the chaser thread and forgets every pending chase (volatile
    /// state, lost with the node).
    pub(crate) fn stop(&self, join: bool) {
        {
            let mut st = self.state.lock();
            st.stop = true;
            st.chases.clear();
            st.pending.set(0);
        }
        self.wake.notify_all();
        self.drained.notify_all();
        if join {
            if let Some(h) = self.thread.lock().take() {
                let _ = h.join();
            }
        }
    }

    fn publish(&self, st: &State) {
        st.pending.set(st.chases.len() as u64);
        if st.chases.is_empty() {
            self.drained.notify_all();
        }
    }
}

impl TransactionManager {
    /// Wires the phase-2 observability: `retransmits` and `expired` tick
    /// on the chaser thread, `pending` is a reading of the pending map's
    /// size (`tm.phase2.retransmits` / `.expired` / `.pending`).
    pub fn set_phase2_metrics(&self, retransmits: Counter, expired: Counter, pending: Counter) {
        let mut st = self.phase2.state.lock();
        st.retransmits = retransmits;
        st.expired = expired;
        st.pending = pending;
    }

    /// Waits until no decision of this coordinator is still owed an
    /// acknowledgement — every participant of every transaction decided
    /// so far has applied the outcome, released its locks and been heard
    /// from (or was abandoned / expired). Returns whether the pending map
    /// emptied within `timeout`. The one sync point for code that reads
    /// participant-side state right after `end`.
    pub fn await_phase2(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.phase2.state.lock();
        while !st.chases.is_empty() {
            if self.phase2.drained.wait_until(&mut st, deadline).timed_out() {
                return st.chases.is_empty();
            }
        }
        true
    }

    /// Ends the phase-2 chaser and joins its thread; pending chases are
    /// dropped like the rest of the node's volatile state. Called when
    /// the node crashes or shuts down.
    pub fn stop_phase2(&self) {
        self.phase2.stop(true);
    }

    /// Sends `msg` to each of `targets` once, now, and leaves the rest of
    /// its delivery to the chaser. A transaction already being chased
    /// (an abort re-notified to late-enlisted children) gains the new
    /// targets. `ack_parent` is acknowledged once every target has.
    pub(crate) fn start_phase2(
        &self,
        tid: Tid,
        targets: impl IntoIterator<Item = NodeId>,
        msg: CommitMsg,
        ack_parent: Option<NodeId>,
    ) {
        let targets: Vec<NodeId> = targets.into_iter().collect();
        let timeouts = self.timeouts();
        let now = Instant::now();
        // Registered before the sends: an acknowledgement may come back
        // on the sending thread itself (in-process transports).
        {
            let mut st = self.phase2.state.lock();
            if st.stop {
                return;
            }
            let chase = st.chases.entry(tid).or_insert_with(|| Chase {
                targets: HashSet::new(),
                msg: msg.clone(),
                next_retransmit: now + timeouts.retransmit,
                deadline: now + timeouts.ack_deadline,
                ack_parent,
            });
            chase.targets.extend(targets.iter().copied());
            let due = chase.next_retransmit.min(chase.deadline);
            self.phase2.publish(&st);
            if st.next_wake.is_none_or(|at| due < at) {
                self.phase2.wake.notify_one();
            }
        }
        let transport = self.transport();
        for c in targets {
            self.send_traced(&transport, c, msg.clone());
        }
    }

    /// Whether a pending chase of `tid` will acknowledge a parent when it
    /// completes (this node is an intermediate one with its subtree
    /// still outstanding).
    pub(crate) fn phase2_will_ack_parent(&self, tid: Tid) -> bool {
        self.phase2.state.lock().chases.get(&tid).is_some_and(|c| c.ack_parent.is_some())
    }

    /// `from` no longer owes an acknowledgement for `tid` (it arrived, or
    /// the member was abandoned). The last one completes the chase.
    pub(crate) fn settle_phase2(&self, tid: Tid, from: NodeId) {
        let ack_parent = {
            let mut st = self.phase2.state.lock();
            let Some(chase) = st.chases.get_mut(&tid) else { return };
            chase.targets.remove(&from);
            if !chase.targets.is_empty() {
                return;
            }
            let chase = st.chases.remove(&tid).expect("present above");
            self.phase2.publish(&st);
            chase.ack_parent
        };
        if let Some(parent) = ack_parent {
            self.ack_commit(tid, parent);
        }
    }

    /// One pass of the chaser thread over the pending map: give up on
    /// chases past their deadline, retransmit the due ones, and abandon
    /// quorum-group members that died mid-commit instead of chasing them
    /// (their surviving replicas hold the data; the dead member resolves
    /// the outcome from the durable decision record when it rejoins).
    fn phase2_tick(&self) {
        let now = Instant::now();
        let retransmit = self.timeouts().retransmit;
        let mut due: Vec<(Tid, Vec<NodeId>, CommitMsg)> = Vec::new();
        let mut expired: Vec<(Tid, Option<NodeId>)> = Vec::new();
        let retransmits = {
            let mut st = self.phase2.state.lock();
            st.chases.retain(|tid, c| {
                if now >= c.deadline {
                    expired.push((*tid, c.ack_parent));
                    return false;
                }
                if now >= c.next_retransmit {
                    c.next_retransmit = now + retransmit;
                    due.push((*tid, c.targets.iter().copied().collect(), c.msg.clone()));
                }
                true
            });
            st.expired.add(expired.len() as u64);
            self.phase2.publish(&st);
            st.retransmits.clone()
        };
        let transport = self.transport();
        let abandon = self.replication().abandon_dead_acks;
        for (tid, targets, msg) in due {
            for c in targets {
                if abandon && self.in_quorum_group(c) && transport.unreachable(c) {
                    if let Some(counter) = self.acks_abandoned.lock().as_ref() {
                        counter.inc();
                    }
                    self.settle_phase2(tid, c);
                } else {
                    retransmits.inc();
                    self.send_traced(&transport, c, msg.clone());
                }
            }
        }
        // An intermediate node that gave up on its subtree still answers
        // its parent, as the blocking wait did when it ran out of time.
        for (tid, ack_parent) in expired {
            if let Some(parent) = ack_parent {
                self.ack_commit(tid, parent);
            }
        }
    }
}
