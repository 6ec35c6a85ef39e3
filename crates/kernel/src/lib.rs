//! An Accent-kernel emulation: the substrate beneath the TABS facility.
//!
//! The TABS prototype (Spector et al., SOSP 1985) was built on the Accent
//! operating-system kernel, which supplied heavyweight processes, ports,
//! typed messages (with transferable port rights and copy-on-write "pointer"
//! transfers), and demand paging of *recoverable segments* integrated with
//! the Recovery Manager through a three-message write-ahead-log protocol.
//!
//! This crate reproduces that substrate in-process:
//!
//! - [`port`] — ports with single-receiver / many-sender rights, typed
//!   messages that can carry further send rights, message-class
//!   accounting (small / large / pointer) matching the paper's §5
//!   taxonomy, and *served* ports whose handler runs on the sender's thread.
//! - [`process`] — "Accent processes" as named OS threads owned by a node's
//!   kernel instance, with cooperative shutdown used to simulate crashes.
//! - [`storage`] — 512-byte-sector disks with per-sector header space (the
//!   Perq disk header that holds the operation-logging sequence number),
//!   in-memory and file-backed, surviving node crashes in a registry.
//! - [`vm`] — recoverable segments mapped through a bounded buffer pool,
//!   enforcing the write-ahead-log invariant via a [`vm::WalGate`] callback
//!   (the kernel↔Recovery-Manager protocol of §3.2.1), with pin/unpin
//!   paging-control primitives used by the server library.
//! - [`perfctr`] — counters for the nine primitive operations of Table 5-1,
//!   from which the performance-evaluation harness derives Tables 5-2…5-4.
//! - [`workers`] — a cache of reusable threads for message handlers that
//!   may block (inbound 2PC datagrams, Communication Manager relays).

pub mod crash;
pub mod ids;
pub mod msg;
pub mod perfctr;
pub mod port;
pub mod process;
pub mod storage;
pub mod trace;
pub mod vm;
pub mod workers;

pub use crash::{CrashHookSlot, CrashHooks};
pub use ids::{NodeId, ObjectId, PageId, PortId, SegmentId, Tid, PAGE_SIZE};
pub use msg::{Message, Transfer, SMALL_MESSAGE_LIMIT};
pub use perfctr::{PerfCounters, PerfSnapshot, PrimitiveOp};
pub use port::{Kernel, PortClass, ReceiveRight, RecvError, SendError, SendRight};
pub use storage::{
    Disk, DiskFaults, DiskRegistry, FaultDisk, FileDisk, MemDisk, Sector, SECTOR_SIZE,
};
pub use trace::TraceSink;
pub use vm::{BufferPool, MappedSegment, NullWalGate, SegmentSpec, VmError, WalGate};
pub use workers::WorkerPool;
