//! Ports: the kernel's inter-process communication primitive.
//!
//! Accent semantics (§2.1.1): many processes may hold *send rights* to a
//! port, exactly one holds the *receive right*; rights can be transmitted
//! in messages along with ordinary data. Each node runs one [`Kernel`]
//! instance; sends are counted against the node's primitive-operation
//! counters according to the message class.
//!
//! A *queued* port holds messages until the holder of the receive right
//! asks for them. A *served* port ([`ReceiveRight::serve`]) has handed its
//! receive right to the kernel with a handler: a send to it *is* the
//! handler's invocation, on the sender's thread (§5.3: no message passing
//! between co-located components). Accounting does not tell them apart.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use crate::ids::{NodeId, PortId};
use crate::msg::Message;
use crate::perfctr::PerfCounters;

/// What kind of process the port belongs to; drives primitive accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortClass {
    /// A TABS system process (Transaction Manager, Recovery Manager,
    /// Communication Manager, Name Server) or the kernel itself.
    System,
    /// A user data server on this node; RPCs count as Data Server Calls.
    DataServer,
    /// A Communication Manager proxy for a data server on a remote node;
    /// RPCs count as Inter-Node Data Server Calls.
    RemoteDataServer,
    /// A one-shot reply port.
    Reply,
}

/// Error returned when a send cannot be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The receive right was deallocated or never existed.
    DeadPort,
    /// The node's kernel has shut down (node crash).
    NodeDown,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::DeadPort => write!(f, "send to dead port"),
            SendError::NodeDown => write!(f, "node is down"),
        }
    }
}

impl std::error::Error for SendError {}

/// Error returned when a receive cannot complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The node's kernel has shut down; the process should exit.
    ShutDown,
    /// `recv_timeout` elapsed with no message.
    Timeout,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::ShutDown => write!(f, "kernel shut down"),
            RecvError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for RecvError {}

type Handler = Arc<dyn Fn(Message) + Send + Sync>;

/// How a port in the node's table takes delivery.
enum Port {
    Queued(Sender<Message>),
    Served(Handler),
}

pub(crate) struct KernelInner {
    node: NodeId,
    next_port: AtomicU64,
    /// Every port a right can be minted for from its [`PortId`]. Reply
    /// ports are not here: their rights carry the queue.
    ports: Mutex<HashMap<u64, Port>>,
    perf: Arc<PerfCounters>,
    trace: Mutex<Option<Arc<dyn crate::trace::TraceSink>>>,
    alive: AtomicBool,
    /// Receivers select on this; dropping the paired sender wakes them all.
    shutdown_rx: Receiver<()>,
    shutdown_tx: Mutex<Option<Sender<()>>>,
    pub(crate) processes: Mutex<Vec<(String, std::thread::JoinHandle<()>)>>,
}

/// One node's kernel: port registry, process registry, counters.
///
/// Cloning is cheap (shared handle). A simulated node crash is
/// [`Kernel::shutdown`]: every blocked receive wakes with
/// [`RecvError::ShutDown`], sends start failing, and volatile state is lost
/// when the owning structures drop.
#[derive(Clone)]
pub struct Kernel {
    inner: Arc<KernelInner>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("node", &self.inner.node).finish()
    }
}

impl Kernel {
    /// Boots a kernel for `node` with fresh counters.
    pub fn new(node: NodeId) -> Self {
        Self::with_counters(node, PerfCounters::new())
    }

    /// Boots a kernel sharing an existing counter set (used when a node is
    /// restarted and measurements should continue across the crash).
    pub fn with_counters(node: NodeId, perf: Arc<PerfCounters>) -> Self {
        Self::with_counters_epoch(node, perf, 0)
    }

    /// Boots a kernel whose port indices start in a per-incarnation
    /// namespace: port identifiers from before a crash never collide with
    /// ports of the rebooted node (Accent port names were unique per
    /// boot), so stale rights fail visibly instead of reaching the wrong
    /// receiver.
    pub fn with_counters_epoch(node: NodeId, perf: Arc<PerfCounters>, epoch: u32) -> Self {
        let (shutdown_tx, shutdown_rx) = channel::bounded(0);
        Kernel {
            inner: Arc::new(KernelInner {
                node,
                next_port: AtomicU64::new(u64::from(epoch) << 32 | 1),
                ports: Mutex::new(HashMap::new()),
                perf,
                trace: Mutex::new(None),
                alive: AtomicBool::new(true),
                shutdown_rx,
                shutdown_tx: Mutex::new(Some(shutdown_tx)),
                processes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The node this kernel runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The node's primitive-operation counters.
    pub fn perf(&self) -> &Arc<PerfCounters> {
        &self.inner.perf
    }

    /// Installs an observability sink for port sends.
    pub fn set_trace(&self, trace: Arc<dyn crate::trace::TraceSink>) {
        *self.inner.trace.lock() = Some(trace);
    }

    /// Whether the kernel is still running.
    pub fn is_alive(&self) -> bool {
        self.inner.alive.load(Ordering::Acquire)
    }

    /// Allocates a port, returning the send and receive rights.
    pub fn allocate_port(&self, class: PortClass) -> (SendRight, ReceiveRight) {
        let index = self.inner.next_port.fetch_add(1, Ordering::Relaxed);
        let id = PortId { node: self.inner.node, index };
        let (tx, rx) = channel::unbounded();
        // A reply right only ever travels inside a message, never minted
        // from its id: it carries its queue and stays off the node-wide table.
        let queue = if class == PortClass::Reply {
            Some(tx)
        } else {
            self.inner.ports.lock().insert(index, Port::Queued(tx));
            None
        };
        let recv =
            ReceiveRight { id, rx, kernel: Arc::clone(&self.inner), in_table: queue.is_none() };
        (SendRight { id, class, kernel: Arc::clone(&self.inner), queue }, recv)
    }

    /// Mints a send right for an existing local port (the Name Server
    /// stores port identifiers; resolution turns them back into rights).
    /// Returns `None` for remote or dead ports.
    pub fn make_send_right(&self, port: PortId, class: PortClass) -> Option<SendRight> {
        if port.node != self.inner.node {
            return None;
        }
        let ports = self.inner.ports.lock();
        if ports.contains_key(&port.index) {
            Some(SendRight { id: port, class, kernel: Arc::clone(&self.inner), queue: None })
        } else {
            None
        }
    }

    /// Simulates a node crash: all receives wake with `ShutDown`, all
    /// future sends fail, and the port table is cleared. Volatile state
    /// held by the node's processes is lost when their threads exit.
    pub fn shutdown(&self) {
        self.inner.alive.store(false, Ordering::Release);
        // Dropping the sender closes the shutdown channel, waking every
        // receiver blocked in `select`.
        self.inner.shutdown_tx.lock().take();
        // Dropped after the lock: a handler may own what owns a port.
        let _table = std::mem::take(&mut *self.inner.ports.lock());
    }

    /// Waits for every process spawned on this kernel to exit. Call after
    /// [`Kernel::shutdown`].
    pub fn join_all(&self) {
        let handles: Vec<_> = self.inner.processes.lock().drain(..).collect();
        for (_name, h) in handles {
            let _ = h.join();
        }
    }

    /// Spawns a named "Accent process" (an OS thread owned by this kernel).
    pub fn spawn<F>(&self, name: &str, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let handle = std::thread::Builder::new()
            .name(format!("{}-{}", self.inner.node, name))
            .spawn(f)
            .expect("thread spawn");
        self.inner.processes.lock().push((name.to_string(), handle));
    }
}

/// A cloneable right to send messages to one port.
#[derive(Clone)]
pub struct SendRight {
    id: PortId,
    class: PortClass,
    kernel: Arc<KernelInner>,
    /// The queue itself, for a port that is not in the node's table.
    queue: Option<Sender<Message>>,
}

impl std::fmt::Debug for SendRight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SendRight").field("id", &self.id).field("class", &self.class).finish()
    }
}

impl SendRight {
    /// The port this right sends to.
    pub fn id(&self) -> PortId {
        self.id
    }

    /// The port's class (drives RPC accounting).
    pub fn class(&self) -> PortClass {
        self.class
    }

    /// Whether the port lives on `node`.
    pub fn is_local_to(&self, node: NodeId) -> bool {
        self.id.node == node
    }

    /// Sends `msg`, counting it against the node's message counters.
    pub fn send(&self, msg: Message) -> Result<(), SendError> {
        self.kernel.perf.record(msg.class());
        let trace = self.kernel.trace.lock().clone();
        if let Some(trace) = trace {
            trace.port_send(self.id, msg.class(), msg.body.len());
        }
        self.send_unmetered(msg)
    }

    /// Sends without touching the counters. Used by the RPC layer, which
    /// accounts a whole call as one Data-Server-Call primitive instead of
    /// counting its constituent messages.
    /// To a served port this runs the handler before returning.
    pub fn send_unmetered(&self, msg: Message) -> Result<(), SendError> {
        if !self.kernel.alive.load(Ordering::Acquire) {
            return Err(SendError::NodeDown);
        }
        if let Some(queue) = &self.queue {
            return queue.send(msg).map_err(|_| SendError::DeadPort);
        }
        let handler = match self.kernel.ports.lock().get(&self.id.index) {
            // Enqueued under the table lock, so `serve` can tell that no
            // send is still on its way into the queue.
            Some(Port::Queued(tx)) => return tx.send(msg).map_err(|_| SendError::DeadPort),
            Some(Port::Served(handler)) => Arc::clone(handler),
            None => return Err(SendError::DeadPort),
        };
        // The table lock is released: a handler may send to any port.
        handler(msg);
        Ok(())
    }
}

/// The unique right to receive messages from one port.
///
/// Dropping the receive right deallocates the port; subsequent sends fail
/// with [`SendError::DeadPort`].
pub struct ReceiveRight {
    id: PortId,
    rx: Receiver<Message>,
    kernel: Arc<KernelInner>,
    /// Whether dropping this right must remove the port's table entry.
    in_table: bool,
}

impl std::fmt::Debug for ReceiveRight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReceiveRight").field("id", &self.id).finish()
    }
}

impl ReceiveRight {
    /// The port this right receives from.
    pub fn id(&self) -> PortId {
        self.id
    }

    /// Hands the receive right to the kernel: from now on every send to
    /// this port runs `handler` on the sender's thread (concurrent senders
    /// run it concurrently; a panic unwinds into the sender) and returns
    /// when it does. Messages already queued go through it first, in
    /// order. The port lives until [`Kernel::shutdown`]; handlers running
    /// then finish on their callers' threads.
    pub fn serve(mut self, handler: impl Fn(Message) + Send + Sync + 'static) {
        let handler: Handler = Arc::new(handler);
        loop {
            while let Some(msg) = self.try_recv() {
                handler(msg);
            }
            let mut ports = self.kernel.ports.lock();
            // Sends enqueue under this lock: an empty queue stays empty.
            if self.rx.is_empty() {
                if let Some(port) = ports.get_mut(&self.id.index) {
                    *port = Port::Served(handler);
                }
                self.in_table = false; // the entry outlives this right
                return;
            }
        }
    }

    /// Blocks until a message arrives or the kernel shuts down.
    pub fn recv(&self) -> Result<Message, RecvError> {
        crossbeam::channel::select! {
            recv(self.rx) -> m => m.map_err(|_| RecvError::ShutDown),
            recv(self.kernel.shutdown_rx) -> _ => {
                // The shutdown channel only ever errors (sender dropped);
                // drain any message raced in ahead of the shutdown.
                match self.rx.try_recv() {
                    Ok(m) => Ok(m),
                    Err(_) => Err(RecvError::ShutDown),
                }
            }
        }
    }

    /// Blocks up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
        crossbeam::channel::select! {
            recv(self.rx) -> m => m.map_err(|_| RecvError::ShutDown),
            recv(self.kernel.shutdown_rx) -> _ => {
                match self.rx.try_recv() {
                    Ok(m) => Ok(m),
                    Err(_) => Err(RecvError::ShutDown),
                }
            }
            default(timeout) => Err(RecvError::Timeout),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.rx.try_recv().ok()
    }
}

impl Drop for ReceiveRight {
    fn drop(&mut self) {
        if self.in_table {
            self.kernel.ports.lock().remove(&self.id.index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfctr::PrimitiveOp;

    #[test]
    fn send_and_receive() {
        let k = Kernel::new(NodeId(1));
        let (tx, rx) = k.allocate_port(PortClass::System);
        tx.send(Message::new(7, vec![1, 2, 3])).unwrap();
        let m = rx.recv().unwrap();
        assert_eq!(m.op, 7);
        assert_eq!(m.body, vec![1, 2, 3]);
    }

    #[test]
    fn send_counts_message_class() {
        let k = Kernel::new(NodeId(1));
        let (tx, _rx) = k.allocate_port(PortClass::System);
        tx.send(Message::new(1, vec![0; 10])).unwrap();
        tx.send(Message::new(1, vec![0; 1100])).unwrap();
        tx.send(Message::pointer(1, vec![0; 4096])).unwrap();
        tx.send_unmetered(Message::new(1, vec![])).unwrap();
        let s = k.perf().snapshot();
        assert_eq!(s.get(PrimitiveOp::SmallContiguousMessage), 1);
        assert_eq!(s.get(PrimitiveOp::LargeContiguousMessage), 1);
        assert_eq!(s.get(PrimitiveOp::PointerMessage), 1);
    }

    #[test]
    fn dead_port_send_fails() {
        let k = Kernel::new(NodeId(1));
        let (tx, rx) = k.allocate_port(PortClass::System);
        drop(rx);
        assert_eq!(tx.send(Message::new(1, vec![])), Err(SendError::DeadPort));
    }

    #[test]
    fn shutdown_wakes_blocked_receiver() {
        let k = Kernel::new(NodeId(1));
        let (_tx, rx) = k.allocate_port(PortClass::System);
        let k2 = k.clone();
        let waiter = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        k2.shutdown();
        assert!(matches!(waiter.join().unwrap(), Err(RecvError::ShutDown)));
    }

    #[test]
    fn shutdown_fails_future_sends() {
        let k = Kernel::new(NodeId(1));
        let (tx, _rx) = k.allocate_port(PortClass::System);
        k.shutdown();
        assert_eq!(tx.send(Message::new(1, vec![])), Err(SendError::NodeDown));
    }

    #[test]
    fn recv_timeout_elapses() {
        let k = Kernel::new(NodeId(1));
        let (_tx, rx) = k.allocate_port(PortClass::System);
        assert!(matches!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvError::Timeout)));
    }

    #[test]
    fn rights_transfer_in_messages() {
        let k = Kernel::new(NodeId(1));
        let (main_tx, main_rx) = k.allocate_port(PortClass::System);
        let (inner_tx, inner_rx) = k.allocate_port(PortClass::Reply);
        main_tx.send(Message::new(1, vec![]).with_port(inner_tx)).unwrap();
        let mut m = main_rx.recv().unwrap();
        let carried = m.ports.pop().unwrap();
        carried.send(Message::new(2, vec![9])).unwrap();
        assert_eq!(inner_rx.recv().unwrap().body, vec![9]);
    }

    #[test]
    fn spawn_and_join() {
        let k = Kernel::new(NodeId(1));
        let (tx, rx) = k.allocate_port(PortClass::System);
        k.spawn("echo", move || loop {
            match rx.recv() {
                Ok(m) => {
                    if let Some(reply) = m.reply {
                        let _ = reply.send(Message::new(m.op + 1, m.body));
                    }
                }
                Err(_) => return,
            }
        });
        let (rtx, rrx) = k.allocate_port(PortClass::Reply);
        tx.send(Message::new(5, vec![1]).with_reply(rtx)).unwrap();
        let r = rrx.recv().unwrap();
        assert_eq!(r.op, 6);
        k.shutdown();
        k.join_all();
    }

    #[test]
    fn message_racing_shutdown_still_delivered() {
        let k = Kernel::new(NodeId(1));
        let (tx, rx) = k.allocate_port(PortClass::System);
        tx.send(Message::new(3, vec![])).unwrap();
        k.shutdown();
        // A message already queued before shutdown should be drained.
        assert!(rx.recv().is_ok());
        assert!(matches!(rx.recv(), Err(RecvError::ShutDown)));
    }

    #[test]
    fn served_handler_runs_on_the_sending_thread() {
        let k = Kernel::new(NodeId(1));
        let (tx, rx) = k.allocate_port(PortClass::DataServer);
        let id = tx.id();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let seen_tx = Mutex::new(seen_tx);
        rx.serve(move |m| {
            seen_tx.lock().send((std::thread::current().id(), m.op)).unwrap();
        });
        tx.send_unmetered(Message::new(1, vec![])).unwrap();
        // The handler has already run when the send returns.
        assert_eq!(seen_rx.try_recv().unwrap(), (std::thread::current().id(), 1));
        // A right minted from the port identifier reaches it too, from
        // whichever thread holds it.
        let minted = k.make_send_right(id, PortClass::DataServer).expect("served port is live");
        let sender = std::thread::spawn(move || {
            minted.send(Message::new(2, vec![])).unwrap();
            std::thread::current().id()
        });
        let sender = sender.join().unwrap();
        assert_eq!(seen_rx.try_recv().unwrap(), (sender, 2));
        // Metered sends are still counted.
        assert_eq!(k.perf().get(PrimitiveOp::SmallContiguousMessage), 1);
    }

    #[test]
    fn serve_delivers_the_backlog_first_and_in_order() {
        let k = Kernel::new(NodeId(1));
        let (tx, rx) = k.allocate_port(PortClass::System);
        for op in 1..=3 {
            tx.send(Message::new(op, vec![])).unwrap();
        }
        let ops = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&ops);
        rx.serve(move |m| seen.lock().push(m.op));
        assert_eq!(*ops.lock(), vec![1, 2, 3], "backlog handled before serve returns");
        tx.send(Message::new(4, vec![])).unwrap();
        assert_eq!(*ops.lock(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn served_port_dies_with_the_kernel() {
        let k = Kernel::new(NodeId(1));
        let (tx, rx) = k.allocate_port(PortClass::DataServer);
        let id = tx.id();
        rx.serve(|_| panic!("no send may reach the handler after shutdown"));
        k.shutdown();
        assert_eq!(tx.send(Message::new(1, vec![])), Err(SendError::NodeDown));
        assert!(k.make_send_right(id, PortClass::DataServer).is_none());
    }

    #[test]
    fn served_handler_may_send_to_other_ports() {
        // No table lock is held while a handler runs: it can reply, send
        // to a queued port, and call into another served port.
        let k = Kernel::new(NodeId(1));
        let (inner_tx, inner_rx) = k.allocate_port(PortClass::DataServer);
        inner_rx.serve(|m| {
            let reply = m.reply.expect("reply port");
            reply.send(Message::new(m.op + 1, m.body)).unwrap();
        });
        let (log_tx, log_rx) = k.allocate_port(PortClass::System);
        let (outer_tx, outer_rx) = k.allocate_port(PortClass::DataServer);
        outer_rx.serve(move |m| {
            log_tx.send(Message::new(m.op, vec![])).unwrap();
            inner_tx.send(m).unwrap();
        });
        let (rtx, rrx) = k.allocate_port(PortClass::Reply);
        outer_tx.send(Message::new(5, vec![7]).with_reply(rtx)).unwrap();
        // Both were there before the outer send returned.
        assert_eq!(log_rx.try_recv().unwrap().op, 5);
        let r = rrx.try_recv().expect("reply already queued");
        assert_eq!((r.op, r.body), (6, vec![7]));
    }

    #[test]
    fn reply_rights_carry_their_queue() {
        let k = Kernel::new(NodeId(1));
        let (rtx, rrx) = k.allocate_port(PortClass::Reply);
        // Not in the node's table: nothing can be minted from the id...
        assert!(k.make_send_right(rtx.id(), PortClass::Reply).is_none());
        // ...the right itself (and its clones) is the way in.
        rtx.clone().send(Message::new(1, vec![])).unwrap();
        assert_eq!(rrx.recv().unwrap().op, 1);
        // Dead once the receive right is gone, down once the node is.
        let (dead_tx, dead_rx) = k.allocate_port(PortClass::Reply);
        drop(dead_rx);
        assert_eq!(dead_tx.send(Message::new(1, vec![])), Err(SendError::DeadPort));
        k.shutdown();
        assert_eq!(rtx.send(Message::new(2, vec![])), Err(SendError::NodeDown));
        assert!(matches!(rrx.recv(), Err(RecvError::ShutDown)));
    }
}
