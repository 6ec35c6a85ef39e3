//! Property tests for the commit fast paths: whatever schedule of
//! transfers and audits a seed derives,
//!
//! 1. a sole-writer commit costs exactly one log force and zero 2PC
//!    datagrams (the 1PC path), and
//! 2. a read-only participant's WAL is byte-for-byte untouched across
//!    prepare (the read-only voter drop-out).

mod common;

use std::sync::Arc;

use common::AccountingMeter;
use proptest::prelude::*;
use tabs_core::prelude::*;
use tabs_servers::harness::client_for;
use tabs_servers::{IntArrayClient, IntArrayServer};

const CELLS: u64 = 8;
const BASE: i64 = 100;

/// A two-node world: the coordinator owns `pf-local`, the remote node
/// owns `pf-remote`, both seeded with [`BASE`] per cell.
struct Rig {
    cluster: Arc<Cluster>,
    n1: Node,
    n2: Node,
    local: IntArrayClient,
    remote: IntArrayClient,
    _keep: Vec<Box<dyn std::any::Any>>,
}

fn rig() -> Rig {
    let cluster = Cluster::new();
    let n1 = cluster.boot_node(NodeId(1));
    let n2 = cluster.boot_node(NodeId(2));
    let la = IntArrayServer::spawn(&n1, "pf-local", CELLS).expect("local array");
    let ra = IntArrayServer::spawn(&n2, "pf-remote", CELLS).expect("remote array");
    n1.recover().expect("recover node 1");
    n2.recover().expect("recover node 2");
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), la.send_right());
    let remote = client_for(&n1, "pf-remote");
    app.run(|t| {
        for c in 0..CELLS {
            local.set(t, c, BASE)?;
            remote.set(t, c, BASE)?;
        }
        Ok(())
    })
    .expect("seed balances");
    Rig { cluster, n1, n2, local, remote, _keep: vec![Box::new(la), Box::new(ra)] }
}

impl Rig {
    fn shutdown(self) {
        self.n1.shutdown();
        self.n2.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 3,
        .. ProptestConfig::default()
    })]

    /// Every sole-writer commit is a 1PC: exactly one log force on the
    /// coordinator, nothing on the participant node, and zero datagrams
    /// anywhere.
    #[test]
    fn sole_writer_commit_is_one_force_and_zero_datagrams(
        transfers in proptest::collection::vec((0..CELLS, 0..CELLS, 1..5i64), 1..6)
    ) {
        let r = rig();
        let app = r.n1.app();
        for (from, to, amount) in transfers {
            let meter = AccountingMeter::start(&r.cluster, &[NodeId(1), NodeId(2)]);
            app.run(|t| {
                r.local.add(t, from, -amount)?;
                r.local.add(t, to, amount)?;
                Ok(())
            })
            .expect("sole-writer transfer");
            let d = meter.delta();
            prop_assert_eq!(d[0].datagrams + d[1].datagrams, 0, "1PC commit sent datagrams");
            prop_assert_eq!(d[0].forces, 1, "1PC commit must cost exactly one force");
            prop_assert_eq!(d[1].forces, 0, "the uninvolved node forced its log");
            prop_assert_eq!(d[0].counter("tm.commit.1pc"), 1, "1PC counter must tick once");
        }
        r.shutdown();
    }

    /// A read-only participant writes nothing to its WAL across prepare:
    /// its log length is unchanged, it pays no forces, and every audit
    /// draws exactly one read-only vote.
    #[test]
    fn read_only_participant_wal_is_untouched(
        audits in proptest::collection::vec((0..CELLS, 0..CELLS), 1..8)
    ) {
        let r = rig();
        let app = r.n1.app();
        // The meter's start waits out the rig's seeding commit, whose
        // participant-side commit record is still landing on node 2.
        let meter = AccountingMeter::start(&r.cluster, &[NodeId(2)]);
        let wal_before = r.n2.rm.log().all_entries().len();
        for &(a, b) in &audits {
            app.run(|t| {
                r.remote.get(t, a)?;
                r.remote.get(t, b)?;
                Ok(())
            })
            .expect("read-only audit");
        }
        prop_assert_eq!(
            r.n2.rm.log().all_entries().len(),
            wal_before,
            "read-only prepare appended to the participant WAL"
        );
        let d = &meter.delta()[0];
        prop_assert_eq!(d.forces, 0, "read-only participant forced its log");
        prop_assert_eq!(d.counter("tm.prepare.readonly"), audits.len() as u64);
        r.shutdown();
    }
}
