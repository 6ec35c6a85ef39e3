//! The Communication Manager (§3.2.4).
//!
//! "The Communication Manager is the only process that has access to the
//! network. It implements three forms of network communication: datagrams
//! for the distributed two-phase commit; reliable session communication for
//! implementing remote procedure calls; and broadcasting for name lookup by
//! the Name Server."
//!
//! Transparent remote invocation (§2.1.2): "inter-node communication is
//! achieved by interposing a pair of processes, called Communication
//! Managers, between the sender of a message and its intended recipient on
//! a remote node. The Communication Manager supplies the sender with a
//! local port to use" — the [`CommManager::resolve_port`] ports here, classed as
//! `RemoteDataServer` so calls through them count as Inter-Node Data Server
//! Calls.
//!
//! The Communication Manager also "scans any transaction identifiers
//! included in messages and is responsible for constructing the local
//! portion of the spanning tree that the Transaction Manager uses during
//! two-phase commit", recording the node's parent, whether the transaction
//! was initiated remotely, and the list of children.

pub mod beat;

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use tabs_codec::{Decode, DecodeRef, Encode, Reader, Writer};
use tabs_detect::{Detector, ProbeTransport};
use tabs_kernel::{Kernel, Message, NodeId, PortClass, PortId, PrimitiveOp, SendRight, Tid};
use tabs_net::{Endpoint, NetError};
use tabs_ns::{Broadcast, NameServer};
use tabs_obs::Counter;
use tabs_proto::{
    BeatMsg, CommitMsg, Datagram, Deadline, DetectMsg, NsMsg, RequestRef, RetryPolicy, ServerError,
    SessionFrame, SessionFrameRef,
};
use tabs_tm::{CommitTransport, TransactionManager};

pub use beat::{BeatTransport, FailureDetector, HeartbeatConfig, SuspicionSink};

/// How long the relay waits for a local data server to answer a forwarded
/// remote request before reporting failure to the caller.
const RELAY_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll granularity of the receive loops (they must notice node shutdown).
const POLL: Duration = Duration::from_millis(25);

struct SpanningTree {
    /// Commit-tree children per transaction: nodes this node first invoked
    /// operations on. The flag records whether *every* call sent to that
    /// child so far targeted a replica-scoped port (see
    /// [`CommManager::mark_replica_port`]) — the footprint the quorum
    /// waiver needs before standing in for a dead child's vote.
    children: HashMap<Tid, HashMap<NodeId, bool>>,
    /// Commit-tree parent per transaction (set when work arrives from a
    /// remote node for a transaction not seen before).
    parent: HashMap<Tid, NodeId>,
}

struct CmState {
    tree: SpanningTree,
    /// In-flight outbound calls awaiting session replies, with the
    /// transaction each call works for (the deadlock detector tracks
    /// where a transaction may be blocked remotely).
    pending: HashMap<u64, (SendRight, Tid)>,
    /// Proxy send rights already created, per remote port.
    proxies: HashMap<PortId, SendRight>,
    /// Remote ports declared replica-scoped: servers whose writes a
    /// replication layer fans out to every member of a quorum group, so
    /// surviving members hold any state a dead member prepared there.
    replica_ports: HashSet<PortId>,
}

/// Counters surfacing how the session receive path handles payloads
/// (`cm.session.rx.*` in the node's metric registry).
struct RxMetrics {
    /// Frames whose payload bytes were handed on without a per-message
    /// copy (`cm.session.rx.zero_copy`).
    zero_copy: Counter,
    /// Frames that fell back to an owned decode — malformed payloads and
    /// relay responses that failed validation
    /// (`cm.session.rx.fallback`).
    fallback: Counter,
}

/// The Communication Manager of one node.
pub struct CommManager {
    kernel: Kernel,
    endpoint: Arc<Endpoint>,
    tm: Arc<TransactionManager>,
    ns: Arc<NameServer>,
    detect: Option<Arc<Detector>>,
    fd: Option<Arc<FailureDetector>>,
    state: Mutex<CmState>,
    next_call: AtomicU64,
    rx_metrics: Mutex<Option<RxMetrics>>,
    /// Inbound remote-call relays: the relay's send *runs* the local
    /// server's operation, lock waits included, so it must stay off the
    /// session loop — on a reused parked worker, not a fresh thread.
    workers: Arc<tabs_kernel::WorkerPool>,
}

impl std::fmt::Debug for CommManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommManager").field("node", &self.kernel.node()).finish()
    }
}

impl CommManager {
    /// Boots the Communication Manager: wires itself into the Transaction
    /// Manager (commit transport) and Name Server (broadcast), and spawns
    /// the session and datagram receive loops.
    pub fn start(
        kernel: Kernel,
        endpoint: Endpoint,
        tm: Arc<TransactionManager>,
        ns: Arc<NameServer>,
    ) -> Arc<Self> {
        Self::start_with_detector(kernel, endpoint, tm, ns, None)
    }

    /// [`CommManager::start`] with an optional distributed deadlock
    /// detector, which gets its datagram transport and remote-call
    /// registrations from this Communication Manager.
    pub fn start_with_detector(
        kernel: Kernel,
        endpoint: Endpoint,
        tm: Arc<TransactionManager>,
        ns: Arc<NameServer>,
        detect: Option<Arc<Detector>>,
    ) -> Arc<Self> {
        Self::start_full(kernel, endpoint, tm, ns, detect, None)
    }

    /// [`CommManager::start_with_detector`] plus an optional failure
    /// detector. When present, the failure detector gets its heartbeat
    /// transport from this Communication Manager and its suspicions feed
    /// the Transaction Manager (cooperative termination for in-doubt
    /// transactions) and Name Server (cache invalidation). The caller
    /// still [`FailureDetector::start`]s it.
    pub fn start_full(
        kernel: Kernel,
        endpoint: Endpoint,
        tm: Arc<TransactionManager>,
        ns: Arc<NameServer>,
        detect: Option<Arc<Detector>>,
        fd: Option<Arc<FailureDetector>>,
    ) -> Arc<Self> {
        let cm = Arc::new(Self {
            kernel: kernel.clone(),
            endpoint: Arc::new(endpoint),
            tm: Arc::clone(&tm),
            ns: Arc::clone(&ns),
            detect,
            fd,
            state: Mutex::new(CmState {
                tree: SpanningTree { children: HashMap::new(), parent: HashMap::new() },
                pending: HashMap::new(),
                proxies: HashMap::new(),
                replica_ports: HashSet::new(),
            }),
            next_call: AtomicU64::new(1),
            rx_metrics: Mutex::new(None),
            workers: tabs_kernel::WorkerPool::new(&format!("cm-{}", kernel.node().0)),
        });
        tm.set_transport(Arc::new(CmCommitTransport { cm: Arc::clone(&cm) }));
        ns.set_transport(Arc::new(CmBroadcast { cm: Arc::clone(&cm) }));
        if let Some(d) = &cm.detect {
            d.set_transport(Arc::new(CmProbeTransport { cm: Arc::clone(&cm) }));
        }
        if let Some(f) = &cm.fd {
            f.set_transport(Arc::new(CmBeatTransport { cm: Arc::clone(&cm) }));
            f.add_sink(Arc::new(CmSuspicionSink { tm: Arc::clone(&tm), ns: Arc::clone(&ns) }));
        }

        let cm_s = Arc::clone(&cm);
        kernel.spawn("comm-mgr-session", move || cm_s.session_loop());
        let cm_d = Arc::clone(&cm);
        kernel.spawn("comm-mgr-datagram", move || cm_d.datagram_loop());
        cm
    }

    /// This node.
    pub fn node(&self) -> NodeId {
        self.kernel.node()
    }

    /// Wires the `cm.session.rx.zero_copy` / `cm.session.rx.fallback`
    /// counters the session receive loop bumps per frame.
    pub fn set_rx_metrics(&self, zero_copy: Counter, fallback: Counter) {
        *self.rx_metrics.lock() = Some(RxMetrics { zero_copy, fallback });
    }

    fn count_rx(&self, zero_copy: bool) {
        if let Some(m) = self.rx_metrics.lock().as_ref() {
            if zero_copy {
                m.zero_copy.inc();
            } else {
                m.fallback.inc();
            }
        }
    }

    /// Returns a local send right for `port`: the port itself when local,
    /// or a Communication Manager proxy when remote. The proxy's class is
    /// `RemoteDataServer`, so calls through it count as Inter-Node Data
    /// Server Calls (§5.1).
    pub fn resolve_port(self: &Arc<Self>, port: PortId) -> Option<SendRight> {
        if port.node == self.kernel.node() {
            return self.kernel.make_send_right(port, PortClass::DataServer);
        }
        if let Some(p) = self.state.lock().proxies.get(&port) {
            return Some(p.clone());
        }
        // The interposed local port is a served port: the caller's own
        // thread forwards the request (which never waits for the answer)
        // and then waits on its reply port.
        let (proxy, rx) = self.kernel.allocate_port(PortClass::RemoteDataServer);
        let cm = Arc::clone(self);
        rx.serve(move |msg| cm.forward_call(port, msg));
        self.state.lock().proxies.insert(port, proxy.clone());
        Some(proxy)
    }

    /// Sends one proxied request over the session to the remote node.
    fn forward_call(&self, remote: PortId, msg: Message) {
        let reply = match msg.reply {
            Some(r) => r,
            None => return, // one-way messages are not proxied
        };
        // Only the transaction id and deadline are needed here; the
        // encoded request is forwarded verbatim as the session frame's
        // trailing bytes (the deadline rides along inside them).
        let (tid, deadline) = match RequestRef::decode_ref_all(&msg.body) {
            Ok(r) => (r.tid, r.deadline),
            Err(_) => {
                let _ = reply.send_unmetered(tabs_proto::rpc::response_message(Err(
                    ServerError::BadRequest("undecodable proxied request".into()),
                )));
                return;
            }
        };
        let call_id = self.next_call.fetch_add(1, Ordering::Relaxed);
        self.state.lock().pending.insert(call_id, (reply, tid));
        // While this call is outstanding the transaction may be blocked
        // (e.g. on a lock) at the remote node; tell the deadlock detector
        // where to forward probes that chase it.
        if let (Some(d), false) = (&self.detect, tid.is_null()) {
            d.remote_call_begin(tid, remote.node);
        }
        // Spanning tree: the first operation this node sends to
        // `remote.node` on behalf of the transaction makes that node our
        // child; the Communication Manager tells the Transaction Manager
        // (one message, §3.2.3). Register BEFORE sending: the remote reply
        // can race this thread, and the client must never reach commit
        // with the child still unrecorded (the un-prepared child would
        // leak its locks). The child's replica-only flag is the AND over
        // all calls sent to it: one call to an unreplicated port and the
        // quorum waiver may no longer cover for its missing vote.
        let newly_registered = if !tid.is_null() {
            let mut state = self.state.lock();
            let replica = state.replica_ports.contains(&remote);
            let children = state.tree.children.entry(tid).or_default();
            match children.entry(remote.node) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(replica);
                    true
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    *e.get_mut() &= replica;
                    false
                }
            }
        } else {
            false
        };
        if newly_registered {
            self.kernel.perf().record(PrimitiveOp::SmallContiguousMessage);
        }
        // Build the `SessionFrame::Call` encoding by hand: tag, call id
        // and target port followed by the request bytes exactly as they
        // arrived, instead of decoding the request into an owned value
        // only to re-encode it. (`RequestRef::raw` above proves the body
        // IS the request encoding.)
        let mut w = Writer::with_capacity(msg.body.len() + 16);
        w.put_u8(0);
        call_id.encode(&mut w);
        remote.encode(&mut w);
        w.put_slice(&msg.body);
        if let Err(e) = self.send_session_retrying(remote.node, w.into_vec(), call_id, deadline) {
            // Session failure after bounded retries (§3.2.4 failure
            // detection): fail the call with a typed retryable error
            // instead of hanging — and roll back the child registration,
            // since the node never received work.
            if newly_registered {
                let mut state = self.state.lock();
                if let Some(children) = state.tree.children.get_mut(&tid) {
                    children.remove(&remote.node);
                }
            }
            if let (Some(d), false) = (&self.detect, tid.is_null()) {
                d.remote_call_end(tid, remote.node);
            }
            if !e.is_partition() {
                // A crash, not a partition: the node will reboot with
                // fresh ports, so cached name entries and proxies for it
                // can only mislead. Callers re-resolve through the name
                // service; a partitioned peer keeps its state, so its
                // entries stay cached and the same session is retried.
                self.ns.invalidate_node(remote.node);
                self.drop_proxies_for(remote.node);
            }
            if let Some((reply, _)) = self.state.lock().pending.remove(&call_id) {
                let _ = reply
                    .send_unmetered(tabs_proto::rpc::response_message(Err(ServerError::from(e))));
            }
        }
    }

    /// Sends a session frame, retrying with decorrelated-jitter backoff
    /// (the shared [`RetryPolicy`], seeded by the call id) while the
    /// destination is partitioned or merely suspected. A crashed
    /// destination fails immediately (retrying a dead session is
    /// pointless); a destination still suspect after the retry budget
    /// fails with [`NetError::NodeUnreachable`], which maps to the typed
    /// retryable [`ServerError::Unavailable`].
    ///
    /// When the proxied request carries an end-to-end deadline, every
    /// backoff sleep is capped at its remaining budget and retrying stops
    /// at expiry: a session retry can never out-sleep the transaction it
    /// serves.
    fn send_session_retrying(
        &self,
        to: NodeId,
        body: Vec<u8>,
        call_id: u64,
        deadline: Option<Deadline>,
    ) -> Result<(), NetError> {
        const MAX_ATTEMPTS: u32 = 4;
        let mut policy = RetryPolicy::new(call_id)
            .base(Duration::from_millis(5))
            .max_attempts(MAX_ATTEMPTS - 1)
            .deadline(deadline);
        loop {
            let last_err = if !self.suspected(to) {
                match self.endpoint.send_session(to, body.clone()) {
                    Ok(()) => return Ok(()),
                    Err(e) if !e.is_partition() => return Err(e),
                    Err(e) => e,
                }
            } else {
                NetError::NodeUnreachable(to)
            };
            if !policy.pause() {
                return Err(last_err);
            }
        }
    }

    /// Whether the failure detector currently suspects `node`.
    fn suspected(&self, node: NodeId) -> bool {
        self.fd.as_ref().map(|f| f.is_suspected(node)).unwrap_or(false)
    }

    /// Drops cached proxies for ports hosted by `node` (its ports die with
    /// it; the replacements after reboot have fresh indices).
    fn drop_proxies_for(&self, node: NodeId) {
        self.state.lock().proxies.retain(|port, _| port.node != node);
    }

    /// The session receive loop: inbound remote calls and replies.
    ///
    /// Frames are decoded as borrowed [`SessionFrameRef`] views: a call's
    /// request bytes are split out of the receive buffer and handed to
    /// the relay without a copy, and a reply's payload is re-framed into
    /// the local [`tabs_proto::Response`] straight from the buffer.
    fn session_loop(self: Arc<Self>) {
        while self.kernel.is_alive() {
            let mut msg = match self.endpoint.recv_session(POLL) {
                Some(m) => m,
                None => continue,
            };
            // Scalars are extracted from the borrowed view first so the
            // buffer can be re-used (drained / replied from) afterwards.
            enum Action {
                Call { call_id: u64, target_port: PortId, tid: Tid, opcode: u32, skip: usize },
                Reply { call_id: u64 },
                Drop,
            }
            let action = match SessionFrameRef::decode_ref_all(&msg.body) {
                Ok(SessionFrameRef::Call { call_id, target_port, request }) => Action::Call {
                    call_id,
                    target_port,
                    tid: request.tid,
                    opcode: request.opcode,
                    skip: msg.body.len() - request.raw.len(),
                },
                Ok(SessionFrameRef::Reply { call_id, .. }) => Action::Reply { call_id },
                Err(_) => Action::Drop,
            };
            match action {
                Action::Call { call_id, target_port, tid, opcode, skip } => {
                    // The encoded request is the frame's trailing suffix;
                    // draining the header leaves the request bytes in the
                    // original allocation — zero-copy hand-off.
                    msg.body.drain(..skip);
                    self.count_rx(true);
                    self.handle_inbound_call(msg.from, call_id, target_port, tid, opcode, msg.body);
                }
                Action::Reply { call_id } => {
                    let reply = self.state.lock().pending.remove(&call_id);
                    if let Some((r, tid)) = reply {
                        if let (Some(d), false) = (&self.detect, tid.is_null()) {
                            d.remote_call_end(tid, msg.from);
                        }
                        // Re-decode borrowed now that the pending entry is
                        // claimed; the payload goes into the response
                        // message straight from the receive buffer.
                        match SessionFrameRef::decode_ref_all(&msg.body) {
                            Ok(SessionFrameRef::Reply { result, .. }) => {
                                self.count_rx(true);
                                let m = match &result {
                                    Ok(v) => tabs_proto::rpc::response_message_ref(Ok(v)),
                                    Err(e) => tabs_proto::rpc::response_message_ref(Err(e)),
                                };
                                let _ = r.send_unmetered(m);
                            }
                            _ => self.count_rx(false),
                        }
                    }
                }
                Action::Drop => self.count_rx(false),
            }
        }
    }

    /// Delivers a remote call to the local data server and relays the
    /// response back on the session. `request_bytes` is the encoded
    /// [`tabs_proto::Request`] exactly as it arrived off the wire.
    fn handle_inbound_call(
        self: &Arc<Self>,
        from: NodeId,
        call_id: u64,
        target_port: PortId,
        tid: Tid,
        opcode: u32,
        request_bytes: Vec<u8>,
    ) {
        // Spanning tree: first inter-node message received on behalf of a
        // transaction records our parent and tells the Transaction Manager
        // that remote sites are involved (§3.2.3).
        if !tid.is_null() {
            let mut state = self.state.lock();
            if let std::collections::hash_map::Entry::Vacant(e) = state.tree.parent.entry(tid) {
                e.insert(from);
                self.kernel.perf().record(PrimitiveOp::SmallContiguousMessage);
            }
        }
        let cm = Arc::clone(self);
        let kernel = self.kernel.clone();
        self.workers.execute(move || {
            let response = match kernel.make_send_right(target_port, PortClass::System) {
                Some(target) => {
                    // Local delivery + reply: two local messages on this
                    // node (the call was already counted once, as an
                    // Inter-Node Data Server Call, on the calling node).
                    kernel.perf().record(PrimitiveOp::SmallContiguousMessage);
                    let (rtx, rrx) = kernel.allocate_port(PortClass::Reply);
                    let m = Message::new(opcode, request_bytes).with_reply(rtx);
                    match target.send_unmetered(m) {
                        Ok(()) => match rrx.recv_timeout(RELAY_TIMEOUT) {
                            Ok(resp) => {
                                kernel.perf().record(PrimitiveOp::SmallContiguousMessage);
                                Ok(resp.body)
                            }
                            Err(_) => Err(ServerError::Other("server timeout".into())),
                        },
                        // The send never entered the server: the port
                        // closed (e.g. the node rebooted and its servers
                        // re-registered on fresh ports). Retryable — the
                        // caller should re-resolve and try again.
                        Err(_) => Err(ServerError::Unavailable(target_port.node)),
                    }
                }
                // Unknown port: same story — the request was never
                // delivered, so retrying after re-resolution is safe.
                None => Err(ServerError::Unavailable(target_port.node)),
            };
            // A server's reply body is already the encoded
            // `tabs_proto::Response`, whose result encoding is exactly
            // `SessionFrame::Reply`'s — validate it and splice it into the
            // frame verbatim instead of decoding the payload into an owned
            // vector and re-encoding it.
            let frame_bytes = match response {
                Ok(body) if Self::valid_response(&body) => {
                    cm.count_rx(true);
                    let mut w = Writer::with_capacity(body.len() + 12);
                    w.put_u8(1);
                    call_id.encode(&mut w);
                    w.put_slice(&body);
                    w.into_vec()
                }
                Ok(_) => {
                    cm.count_rx(false);
                    let result = Err(ServerError::Other("relay decode: invalid response".into()));
                    SessionFrame::Reply { call_id, result }.encode_to_vec()
                }
                Err(e) => SessionFrame::Reply { call_id, result: Err(e) }.encode_to_vec(),
            };
            // Retry partitions briefly: dropping the reply would leave the
            // caller waiting out its full relay timeout for nothing.
            let _ = cm.send_session_retrying(from, frame_bytes, call_id, None);
        });
    }

    /// Whether `body` is a well-formed encoded [`tabs_proto::Response`]
    /// (checked without copying its payload out).
    fn valid_response(body: &[u8]) -> bool {
        let mut r = Reader::new(body);
        let ok = match r.get_u8() {
            Ok(0) => <&[u8]>::decode_ref(&mut r).is_ok(),
            Ok(1) => ServerError::decode(&mut r).is_ok(),
            _ => false,
        };
        ok && r.is_empty()
    }

    /// The datagram receive loop: two-phase commit and name service.
    fn datagram_loop(self: Arc<Self>) {
        while self.kernel.is_alive() {
            let pkt = match self.endpoint.recv_datagram(POLL) {
                Some(p) => p,
                None => continue,
            };
            match Datagram::decode_all(&pkt.body) {
                Ok(Datagram::Commit(msg)) => {
                    // Record additional crash-detection info: an incoming
                    // Prepare for a tid whose work came from this parent.
                    self.tm.handle(pkt.from, msg);
                }
                Ok(Datagram::Ns(msg)) => self.ns.handle(msg),
                Ok(Datagram::Detect(msg)) => {
                    if let Some(d) = &self.detect {
                        d.handle(pkt.from, msg);
                    }
                }
                Ok(Datagram::Beat(msg)) => {
                    if let Some(f) = &self.fd {
                        f.handle(pkt.from, msg);
                    }
                }
                Ok(Datagram::Shard(msg)) => self.ns.handle_shard(msg),
                Err(_) => {}
            }
        }
    }

    /// Declares the remote server behind `right` replica-scoped: its
    /// writes are fanned out by a replication layer to every member of a
    /// quorum group registered with the Transaction Manager, so calls
    /// through it keep a child's replica-only footprint flag true. A
    /// local right (no proxy, hence no child registration) is a no-op.
    pub fn mark_replica_port(&self, right: &SendRight) {
        let mut state = self.state.lock();
        // `right` is the caller-facing proxy; the spanning tree records
        // children by the *remote* port the proxy forwards to, so map the
        // proxy back to it.
        let remote = state
            .proxies
            .iter()
            .find(|(_, proxy)| proxy.id() == right.id())
            .map(|(remote, _)| *remote);
        if let Some(remote) = remote {
            state.replica_ports.insert(remote);
        }
    }

    fn tree_children(&self, tid: Tid) -> Vec<NodeId> {
        self.state
            .lock()
            .tree
            .children
            .get(&tid)
            .map(|s| {
                let mut v: Vec<NodeId> = s.keys().copied().collect();
                v.sort();
                v
            })
            .unwrap_or_default()
    }

    /// Whether every call this node sent to `child` for `tid` targeted a
    /// replica-scoped port. Vacuously true when no work was sent (nothing
    /// to lose); false the moment any call touched an unreplicated port.
    fn tree_replica_only(&self, tid: Tid, child: NodeId) -> bool {
        self.state
            .lock()
            .tree
            .children
            .get(&tid)
            .and_then(|m| m.get(&child))
            .copied()
            .unwrap_or(true)
    }

    fn tree_parent(&self, tid: Tid) -> Option<NodeId> {
        self.state.lock().tree.parent.get(&tid).copied()
    }

    /// Whether `node` currently looks reachable: attached, not partitioned
    /// from us, and not suspected by the failure detector.
    pub fn is_reachable(&self, node: NodeId) -> bool {
        self.endpoint.is_reachable(node) && !self.suspected(node)
    }

    /// Whether the failure detector currently suspects `node` (always
    /// false without one). This is the leader-handoff query: shard
    /// routers consult it to fail over from a dead shard leader to a
    /// follower replica instead of retrying the corpse.
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.suspected(node)
    }

    /// The failure detector, when one is running.
    pub fn failure_detector(&self) -> Option<&Arc<FailureDetector>> {
        self.fd.as_ref()
    }

    /// The failure detector's per-node reachability view (empty without a
    /// failure detector).
    pub fn reachability(&self) -> Vec<(NodeId, bool)> {
        self.fd.as_ref().map(|f| f.reachability()).unwrap_or_default()
    }
}

/// Routes failure-detector suspicions into the rest of the node: the
/// Transaction Manager starts cooperative termination (or aborts
/// transactions that can no longer prepare everywhere), and the Name
/// Server drops cache entries that would route calls at the suspect.
struct CmSuspicionSink {
    tm: Arc<TransactionManager>,
    ns: Arc<NameServer>,
}

impl SuspicionSink for CmSuspicionSink {
    fn peer_suspected(&self, peer: NodeId) {
        self.ns.invalidate_node(peer);
        self.tm.peer_suspected(peer);
    }
}

/// The failure detector's view of the Communication Manager: heartbeats
/// ride the same unreliable datagram channel as two-phase commit.
struct CmBeatTransport {
    cm: Arc<CommManager>,
}

impl BeatTransport for CmBeatTransport {
    fn send(&self, to: NodeId, msg: BeatMsg) {
        let body = Datagram::Beat(msg).encode_to_vec();
        let _ = self.cm.endpoint.send_datagram(to, body);
    }

    fn broadcast(&self, msg: BeatMsg) {
        let body = Datagram::Beat(msg).encode_to_vec();
        let _ = self.cm.endpoint.broadcast(body);
    }
}

/// The Transaction Manager's view of the Communication Manager.
struct CmCommitTransport {
    cm: Arc<CommManager>,
}

impl CommitTransport for CmCommitTransport {
    fn send(&self, to: NodeId, msg: CommitMsg) {
        let body = Datagram::Commit(msg).encode_to_vec();
        let _ = self.cm.endpoint.send_datagram(to, body);
    }

    fn children(&self, tid: Tid) -> Vec<NodeId> {
        self.cm.tree_children(tid)
    }

    fn parent(&self, tid: Tid) -> Option<NodeId> {
        self.cm.tree_parent(tid)
    }

    fn broadcast(&self, msg: CommitMsg) {
        let body = Datagram::Commit(msg).encode_to_vec();
        let _ = self.cm.endpoint.broadcast(body);
    }

    fn unreachable(&self, to: NodeId) -> bool {
        self.cm.suspected(to) || self.cm.endpoint.connectivity(to).is_err()
    }

    fn replica_only(&self, tid: Tid, child: NodeId) -> bool {
        self.cm.tree_replica_only(tid, child)
    }
}

/// The deadlock detector's view of the Communication Manager: probes ride
/// the same unreliable datagram channel as two-phase commit (§3.2.3).
struct CmProbeTransport {
    cm: Arc<CommManager>,
}

impl ProbeTransport for CmProbeTransport {
    fn send(&self, to: NodeId, msg: DetectMsg) {
        let body = Datagram::Detect(msg).encode_to_vec();
        let _ = self.cm.endpoint.send_datagram(to, body);
    }

    fn broadcast(&self, msg: DetectMsg) {
        let body = Datagram::Detect(msg).encode_to_vec();
        let _ = self.cm.endpoint.broadcast(body);
    }
}

/// The Name Server's view of the Communication Manager.
struct CmBroadcast {
    cm: Arc<CommManager>,
}

impl Broadcast for CmBroadcast {
    fn broadcast(&self, msg: NsMsg) {
        let body = Datagram::Ns(msg).encode_to_vec();
        let _ = self.cm.endpoint.broadcast(body);
    }

    fn send(&self, to: NodeId, msg: NsMsg) {
        let body = Datagram::Ns(msg).encode_to_vec();
        let _ = self.cm.endpoint.send_datagram(to, body);
    }

    fn broadcast_shard(&self, msg: tabs_proto::ShardMsg) {
        let body = Datagram::Shard(msg).encode_to_vec();
        let _ = self.cm.endpoint.broadcast(body);
    }

    fn send_shard(&self, to: NodeId, msg: tabs_proto::ShardMsg) {
        let body = Datagram::Shard(msg).encode_to_vec();
        let _ = self.cm.endpoint.send_datagram(to, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabs_kernel::{BufferPool, MemDisk, ObjectId, SegmentId, SegmentSpec};
    use tabs_net::Network;
    use tabs_proto::Request;
    use tabs_rm::RecoveryManager;
    use tabs_wal::{LogManager, MemLogDevice};

    struct NodeRig {
        kernel: Kernel,
        cm: Arc<CommManager>,
        tm: Arc<TransactionManager>,
        ns: Arc<NameServer>,
    }

    fn boot(net: &Network, id: u16) -> NodeRig {
        let node = NodeId(id);
        let kernel = Kernel::new(node);
        let perf = Arc::clone(kernel.perf());
        let pool = BufferPool::new(16, Arc::clone(&perf));
        pool.register_segment(SegmentSpec {
            id: SegmentId { node, index: 0 },
            name: "t".into(),
            disk: MemDisk::new(16),
            base_sector: 0,
            pages: 16,
        })
        .unwrap();
        let log = LogManager::open(MemLogDevice::new(1 << 20), Arc::clone(&perf)).unwrap();
        let rm = RecoveryManager::new(node, log, pool, Arc::clone(&perf));
        let tm = TransactionManager::new(node, 1, rm, Arc::clone(&perf));
        let ns = NameServer::new(node);
        let endpoint = net.attach(node, perf);
        let cm = CommManager::start(kernel.clone(), endpoint, Arc::clone(&tm), Arc::clone(&ns));
        NodeRig { kernel, cm, tm, ns }
    }

    fn oid(node: u16) -> ObjectId {
        ObjectId::new(SegmentId { node: NodeId(node), index: 0 }, 0, 8)
    }

    /// Serves a trivial echo data server on `rig` and registers it.
    fn start_echo_server(rig: &NodeRig, name: &str) -> PortId {
        let (tx, rx) = rig.kernel.allocate_port(PortClass::DataServer);
        let port_id = tx.id();
        rx.serve(|m| {
            let mut out = Request::decode_all(&m.body).unwrap().args;
            out.reverse();
            if let Some(r) = m.reply {
                let _ = r.send_unmetered(tabs_proto::rpc::response_message(Ok(out)));
            }
        });
        rig.ns.register(name, "echo", port_id, oid(rig.kernel.node().0));
        port_id
    }

    fn shutdown(rig: NodeRig) {
        rig.kernel.shutdown();
        rig.kernel.join_all();
    }

    #[test]
    fn local_resolution_returns_direct_port() {
        let net = Network::new();
        let a = boot(&net, 1);
        let port = start_echo_server(&a, "echo");
        let right = a.cm.resolve_port(port).unwrap();
        assert_eq!(right.class(), PortClass::DataServer);
        let out = tabs_proto::call(&a.kernel, &right, Tid::NULL, 1, vec![1, 2, 3]).unwrap();
        assert_eq!(out, vec![3, 2, 1]);
        shutdown(a);
    }

    #[test]
    fn remote_call_via_proxy() {
        let net = Network::new();
        let a = boot(&net, 1);
        let b = boot(&net, 2);
        let port = start_echo_server(&b, "echo-b");
        // Node 1 resolves node 2's port: gets a proxy.
        let right = a.cm.resolve_port(port).unwrap();
        assert_eq!(right.class(), PortClass::RemoteDataServer);
        assert!(right.is_local_to(NodeId(1)), "proxy port is local");
        let out = tabs_proto::call(&a.kernel, &right, Tid::NULL, 1, vec![5, 6]).unwrap();
        assert_eq!(out, vec![6, 5]);
        // Accounting: one inter-node data server call on node 1.
        assert_eq!(a.kernel.perf().get(PrimitiveOp::InterNodeDataServerCall), 1);
        assert_eq!(a.kernel.perf().get(PrimitiveOp::DataServerCall), 0);
        shutdown(a);
        shutdown(b);
    }

    #[test]
    fn proxies_are_cached() {
        let net = Network::new();
        let a = boot(&net, 1);
        let b = boot(&net, 2);
        let port = start_echo_server(&b, "x");
        let r1 = a.cm.resolve_port(port).unwrap();
        let r2 = a.cm.resolve_port(port).unwrap();
        assert_eq!(r1.id(), r2.id());
        shutdown(a);
        shutdown(b);
    }

    #[test]
    fn spanning_tree_records_children_and_parent() {
        let net = Network::new();
        let a = boot(&net, 1);
        let b = boot(&net, 2);
        let port = start_echo_server(&b, "y");
        let tid = a.tm.begin(Tid::NULL).unwrap();
        let right = a.cm.resolve_port(port).unwrap();
        tabs_proto::call(&a.kernel, &right, tid, 1, vec![1]).unwrap();
        assert_eq!(a.cm.tree_children(tid), vec![NodeId(2)]);
        // Node 2 learned its parent when the call arrived.
        for _ in 0..50 {
            if b.cm.tree_parent(tid).is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(b.cm.tree_parent(tid), Some(NodeId(1)));
        shutdown(a);
        shutdown(b);
    }

    #[test]
    fn replica_footprint_is_the_and_over_all_calls_to_a_child() {
        let net = Network::new();
        let a = boot(&net, 1);
        let b = boot(&net, 2);
        let rep_port = start_echo_server(&b, "rep");
        let plain_port = start_echo_server(&b, "plain");
        let rep = a.cm.resolve_port(rep_port).unwrap();
        let plain = a.cm.resolve_port(plain_port).unwrap();
        a.cm.mark_replica_port(&rep);

        // A transaction that only touches the replica-scoped port keeps
        // child 2 waivable...
        let t1 = a.tm.begin(Tid::NULL).unwrap();
        tabs_proto::call(&a.kernel, &rep, t1, 1, vec![1]).unwrap();
        assert!(a.cm.tree_replica_only(t1, NodeId(2)));
        // ...and a child with no recorded work is vacuously replica-only.
        assert!(a.cm.tree_replica_only(t1, NodeId(3)));

        // One call to an unreplicated port on the same node poisons the
        // flag for that transaction, even with replica calls around it.
        let t2 = a.tm.begin(Tid::NULL).unwrap();
        tabs_proto::call(&a.kernel, &rep, t2, 1, vec![2]).unwrap();
        tabs_proto::call(&a.kernel, &plain, t2, 1, vec![3]).unwrap();
        tabs_proto::call(&a.kernel, &rep, t2, 1, vec![4]).unwrap();
        assert!(!a.cm.tree_replica_only(t2, NodeId(2)));
        // t1's footprint is unaffected.
        assert!(a.cm.tree_replica_only(t1, NodeId(2)));

        let _ = a.tm.end(t1);
        let _ = a.tm.end(t2);
        shutdown(a);
        shutdown(b);
    }

    #[test]
    fn remote_call_to_dead_node_fails_cleanly() {
        let net = Network::new();
        let a = boot(&net, 1);
        let b = boot(&net, 2);
        let port = start_echo_server(&b, "z");
        let right = a.cm.resolve_port(port).unwrap();
        // Crash node 2.
        net.detach(NodeId(2));
        b.kernel.shutdown();
        b.kernel.join_all();
        let err = tabs_proto::call(&a.kernel, &right, Tid::NULL, 1, vec![1]).unwrap_err();
        // Typed and retryable: the caller can re-resolve and reissue.
        match err {
            tabs_proto::RpcError::Server(e) => {
                assert!(matches!(e, ServerError::Unavailable(NodeId(2))));
                assert!(e.is_retryable());
            }
            other => panic!("expected server error, got {other:?}"),
        }
        shutdown(a);
    }

    #[test]
    fn remote_node_killed_mid_call_yields_typed_unavailable() {
        // The server on node 2 holds the first call until told to go on;
        // node 2 dies under it. The caller forwarded the request on its
        // own thread and is parked on its reply port: it must get the
        // budget's typed error, and the next call — which finds the
        // session gone — the retryable `Unavailable`.
        let net = Network::new();
        let a = boot(&net, 1);
        let b = boot(&net, 2);
        let (tx, rx) = b.kernel.allocate_port(PortClass::DataServer);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let entered_tx = Mutex::new(entered_tx);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        rx.serve(move |_m| {
            entered_tx.lock().send(()).unwrap();
            let _ = release_rx.lock().recv_timeout(Duration::from_secs(5));
        });
        let right = a.cm.resolve_port(tx.id()).unwrap();
        let (k, r) = (a.kernel.clone(), right.clone());
        let caller = std::thread::spawn(move || {
            let d = Deadline::after(Duration::from_millis(300));
            tabs_proto::rpc::call_with_deadline(&k, &r, Tid::NULL, 1, vec![1], d)
        });
        entered_rx.recv_timeout(Duration::from_secs(5)).expect("call reached node 2");
        net.detach(NodeId(2));
        b.kernel.shutdown();
        drop(release_tx);
        b.kernel.join_all();
        let err = caller.join().unwrap().unwrap_err();
        assert_eq!(err, tabs_proto::RpcError::Server(ServerError::DeadlineExceeded));
        let err = tabs_proto::call(&a.kernel, &right, Tid::NULL, 1, vec![1]).unwrap_err();
        assert_eq!(err, tabs_proto::RpcError::Server(ServerError::Unavailable(NodeId(2))));
        shutdown(a);
    }

    #[test]
    fn served_ports_leave_the_call_accounting_where_it_was() {
        // One local and one remote call through served ports, priced in
        // the paper's primitives exactly as the queued ports priced them.
        let net = Network::new();
        let a = boot(&net, 1);
        let b = boot(&net, 2);
        let local = a.cm.resolve_port(start_echo_server(&a, "here")).unwrap();
        let remote = a.cm.resolve_port(start_echo_server(&b, "there")).unwrap();
        let tid = a.tm.begin(Tid::NULL).unwrap();
        let before = (a.kernel.perf().snapshot(), b.kernel.perf().snapshot());

        tabs_proto::call(&a.kernel, &local, tid, 1, vec![1]).unwrap();
        let d = a.kernel.perf().snapshot().since(&before.0);
        assert_eq!(d.get(PrimitiveOp::DataServerCall), 1);
        assert_eq!(d.get(PrimitiveOp::InterNodeDataServerCall), 0);
        assert_eq!(d.get(PrimitiveOp::SmallContiguousMessage), 0);

        tabs_proto::call(&a.kernel, &remote, tid, 1, vec![2]).unwrap();
        let d = a.kernel.perf().snapshot().since(&before.0);
        assert_eq!(d.get(PrimitiveOp::DataServerCall), 1);
        assert_eq!(d.get(PrimitiveOp::InterNodeDataServerCall), 1);
        // The Communication Manager telling the Transaction Manager about
        // the new child (§3.2.3).
        assert_eq!(d.get(PrimitiveOp::SmallContiguousMessage), 1);
        // Node 2: parent notice + relay delivery + relay reply; the reply
        // was complete before the relay sent its frame.
        let d = b.kernel.perf().snapshot().since(&before.1);
        assert_eq!(d.get(PrimitiveOp::SmallContiguousMessage), 3);
        assert_eq!(d.get(PrimitiveOp::DataServerCall), 0);
        assert_eq!(d.get(PrimitiveOp::InterNodeDataServerCall), 0);
        let _ = a.tm.abort(tid);
        shutdown(a);
        shutdown(b);
    }

    #[test]
    fn broadcast_name_lookup_across_nodes() {
        let net = Network::new();
        let a = boot(&net, 1);
        let b = boot(&net, 2);
        let port = start_echo_server(&b, "directory");
        // Node 1 has never heard of "directory"; broadcast resolves it.
        let found = a.ns.lookup("directory", 1, Duration::from_secs(2));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].port, port);
        // End-to-end: resolve + call through the proxy.
        let right = a.cm.resolve_port(found[0].port).unwrap();
        let out = tabs_proto::call(&a.kernel, &right, Tid::NULL, 1, vec![9, 8]).unwrap();
        assert_eq!(out, vec![8, 9]);
        shutdown(a);
        shutdown(b);
    }

    #[test]
    fn commit_datagrams_reach_remote_tm() {
        let net = Network::new();
        let a = boot(&net, 1);
        let b = boot(&net, 2);
        let port = start_echo_server(&b, "w");
        let tid = a.tm.begin(Tid::NULL).unwrap();
        let right = a.cm.resolve_port(port).unwrap();
        tabs_proto::call(&a.kernel, &right, tid, 1, vec![1]).unwrap();
        // Committing on node 1 runs 2PC over the real datagram path; the
        // remote subtree is read-only (echo server never enlists), so this
        // is the cheap read-only distributed commit.
        assert!(a.tm.end(tid).unwrap());
        assert!(a.kernel.perf().get(PrimitiveOp::Datagram) >= 1);
        shutdown(a);
        shutdown(b);
    }

    #[test]
    fn silent_peer_becomes_suspected_and_queryable() {
        // Node 1 runs a failure detector; the watched peer 2 does not
        // exist, so its pongs never come and suspicion sets in. The
        // public query is what shard routers use for leader failover.
        let net = Network::new();
        let node = NodeId(1);
        let kernel = Kernel::new(node);
        let perf = Arc::clone(kernel.perf());
        let pool = BufferPool::new(16, Arc::clone(&perf));
        pool.register_segment(SegmentSpec {
            id: SegmentId { node, index: 0 },
            name: "t".into(),
            disk: MemDisk::new(16),
            base_sector: 0,
            pages: 16,
        })
        .unwrap();
        let log = LogManager::open(MemLogDevice::new(1 << 20), Arc::clone(&perf)).unwrap();
        let rm = RecoveryManager::new(node, log, pool, Arc::clone(&perf));
        let tm = TransactionManager::new(node, 1, rm, Arc::clone(&perf));
        let ns = NameServer::new(node);
        let endpoint = net.attach(node, Arc::clone(&perf));
        let hb = HeartbeatConfig {
            interval: Duration::from_millis(5),
            suspect_after: 2,
            probe_cap: Duration::from_millis(50),
        };
        let fd = FailureDetector::new(node, hb);
        let cm = CommManager::start_full(
            kernel.clone(),
            endpoint,
            Arc::clone(&tm),
            Arc::clone(&ns),
            None,
            Some(Arc::clone(&fd)),
        );
        fd.watch(NodeId(2));
        assert!(!cm.is_suspected(NodeId(2)));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !cm.is_suspected(NodeId(2)) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            fd.tick();
        }
        assert!(cm.is_suspected(NodeId(2)));
        assert!(!cm.is_reachable(NodeId(2)));
        kernel.shutdown();
        kernel.join_all();
    }
}
