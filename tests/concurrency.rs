//! Integration tests: concurrent transactions, invariants, and the weak
//! queue under parallel producers/consumers.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tabs_core::{Cluster, ClusterConfig, NodeId, Tid};
use tabs_servers::{IntArrayClient, IntArrayServer, WeakQueueClient, WeakQueueServer};

mod common;
use common::boot_with_array_cells;

#[test]
fn concurrent_transfers_conserve_money() {
    // Classic serializability check: N accounts, concurrent random
    // transfers with retries; the total is invariant. Two inputs: locks
    // taken in index order (no cycles, so pure waiting under the lock
    // time-out), and in transfer order with the deadlock detector on, so
    // cycles form and the detector's victims abort and retry.
    for (config, ordered) in [
        (ClusterConfig::default(), true),
        (ClusterConfig::default().deadlock_detection(true), false),
    ] {
        transfers_conserve_money(Cluster::with_config(config), ordered);
    }
}

fn transfers_conserve_money(cluster: Arc<Cluster>, ordered: bool) {
    let (node, arr) = boot_with_array_cells(&cluster, 1, "accounts", 8);
    let app = node.app();
    let client = IntArrayClient::new(app.clone(), arr.send_right());
    const ACCOUNTS: u64 = 4;
    const PER_ACCOUNT: i64 = 1000;
    app.run(|t| {
        for a in 0..ACCOUNTS {
            client.set(t, a, PER_ACCOUNT)?;
        }
        Ok(())
    })
    .unwrap();

    let succeeded = Arc::new(AtomicI64::new(0));
    std::thread::scope(|s| {
        for worker in 0..4u64 {
            let app = app.clone();
            let client = client.clone();
            let succeeded = Arc::clone(&succeeded);
            s.spawn(move || {
                let mut state = worker.wrapping_mul(0x9e3779b97f4a7c15) | 1;
                let mut rand = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..15 {
                    let from = rand() % ACCOUNTS;
                    let to = (from + 1 + rand() % (ACCOUNTS - 1)) % ACCOUNTS;
                    let amount = (rand() % 50) as i64;
                    // Retry on lock time-outs and deadlock victims (the
                    // paper's resolution aborts one side; retry is the
                    // standard response).
                    let (first, second) =
                        if ordered && from > to { (to, from) } else { (from, to) };
                    let r = app.run_with_retries(8, |t| {
                        let d_first = if first == from { -amount } else { amount };
                        client.add(t, first, d_first)?;
                        client.add(t, second, -d_first)?;
                        Ok(())
                    });
                    if r.is_ok() {
                        succeeded.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert!(
        succeeded.load(Ordering::Relaxed) >= 45,
        "most transfers should eventually succeed (ordered={ordered}), got {}",
        succeeded.load(Ordering::Relaxed)
    );
    let total: i64 = {
        let t = app.begin_transaction(Tid::NULL).unwrap();
        let sum = (0..ACCOUNTS).map(|a| client.get(t, a).unwrap()).sum();
        app.end_transaction(t).unwrap();
        sum
    };
    assert_eq!(total, PER_ACCOUNT * ACCOUNTS as i64, "money conserved (ordered={ordered})");
    node.shutdown();
}

#[test]
fn weak_queue_parallel_producers_and_consumers() {
    let cluster = Cluster::new();
    let node = cluster.boot_node(NodeId(1));
    let q = WeakQueueServer::spawn(&node, "jobs", 128).unwrap();
    node.recover().unwrap();
    let app = node.app();
    let client = WeakQueueClient::new(app.clone(), q.send_right());

    const PRODUCERS: i64 = 3;
    const ITEMS: i64 = 12;
    let consumed: Arc<parking_lot::Mutex<Vec<i64>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let app = app.clone();
            let client = client.clone();
            s.spawn(move || {
                for i in 0..ITEMS {
                    let value = p * 1000 + i;
                    app.run_with_retries(10, |t| client.enqueue(t, value)).expect("enqueue");
                }
            });
        }
        for _ in 0..2 {
            let app = app.clone();
            let client = client.clone();
            let consumed = Arc::clone(&consumed);
            s.spawn(move || {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                loop {
                    if consumed.lock().len() as i64 >= PRODUCERS * ITEMS {
                        return;
                    }
                    if std::time::Instant::now() > deadline {
                        return;
                    }
                    let got = app.run_with_retries(10, |t| client.dequeue(t));
                    match got {
                        Ok(Some(v)) => consumed.lock().push(v),
                        Ok(None) => std::thread::sleep(std::time::Duration::from_millis(5)),
                        Err(_) => {}
                    }
                }
            });
        }
    });

    let got = consumed.lock();
    assert_eq!(got.len() as i64, PRODUCERS * ITEMS, "every enqueued item dequeued exactly once");
    let mut sorted = got.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len() as i64, PRODUCERS * ITEMS, "no duplicates");
    node.shutdown();
}

#[test]
fn lock_timeout_aborts_one_of_two_colliders() {
    let cluster = Cluster::new();
    let (node, arr) = boot_with_array_cells(&cluster, 1, "hot", 4);
    let app = node.app();
    let client = IntArrayClient::new(app.clone(), arr.send_right());

    let t1 = app.begin_transaction(Tid::NULL).unwrap();
    client.set(t1, 0, 1).unwrap();
    // A second writer on the same cell times out (deadlock resolution by
    // time-out, §2.1.3).
    let t2 = app.begin_transaction(Tid::NULL).unwrap();
    let err = client.set(t2, 0, 2).unwrap_err();
    assert!(format!("{err}").contains("lock"), "got: {err}");
    app.abort_transaction(t2).unwrap();
    assert!(app.end_transaction(t1).unwrap().is_committed());
    node.shutdown();
}

#[test]
fn cross_node_deadlock_broken_well_before_timeout() {
    // Two nodes, one account array on each, and two transactions that
    // transfer in opposite orders: T1 (home n1) locks acct1 then wants
    // acct2, T2 (home n2) locks acct2 then wants acct1. With timeouts
    // alone this would stall for the full lock time-out (2s here); the
    // probe-based detector must find the cross-node cycle and abort one
    // victim well before that — we require resolution in under 25% of
    // the configured time-out.
    const TIMEOUT: Duration = Duration::from_secs(2);
    let cluster = Cluster::with_config(
        ClusterConfig::default().deadlock_detection(true).lock_timeout(TIMEOUT),
    );
    let n1 = cluster.boot_node(NodeId(1));
    let n2 = cluster.boot_node(NodeId(2));
    let a1 = IntArrayServer::spawn(&n1, "acct1", 4).unwrap();
    let a2 = IntArrayServer::spawn(&n2, "acct2", 4).unwrap();
    n1.recover().unwrap();
    n2.recover().unwrap();

    let app1 = n1.app();
    let app2 = n2.app();
    // Each node gets its own client pair, resolving the remote array
    // through the name server.
    let resolve = |node: &tabs_core::Node, name: &str| {
        let found = node.resolve(name, 1, Duration::from_secs(3));
        assert_eq!(found.len(), 1, "{name} resolvable");
        found.into_iter().next().unwrap().0
    };
    let c1_local = IntArrayClient::new(app1.clone(), a1.send_right());
    let c1_remote = IntArrayClient::new(app1.clone(), resolve(&n1, "acct2"));
    let c2_local = IntArrayClient::new(app2.clone(), a2.send_right());
    let c2_remote = IntArrayClient::new(app2.clone(), resolve(&n2, "acct1"));

    const OPENING: i64 = 1000;
    app1.run(|t| {
        c1_local.set(t, 0, OPENING)?;
        c1_remote.set(t, 0, OPENING)
    })
    .unwrap();

    // Both sides take their local lock, rendezvous, then reach for the
    // other's — a guaranteed cross-node cycle.
    let barrier = Arc::new(Barrier::new(2));
    let run_side = |app: tabs_core::AppHandle,
                    local: IntArrayClient,
                    remote: IntArrayClient,
                    barrier: Arc<Barrier>| {
        std::thread::spawn(move || {
            let t = app.begin_transaction(Tid::NULL).unwrap();
            local.add(t, 0, -10).unwrap();
            barrier.wait();
            let start = Instant::now();
            match remote.add(t, 0, 10) {
                Ok(_) => {
                    assert!(app.end_transaction(t).unwrap().is_committed());
                    (true, start.elapsed())
                }
                Err(_) => {
                    let _ = app.abort_transaction(t);
                    (false, start.elapsed())
                }
            }
        })
    };
    let h1 = run_side(app1.clone(), c1_local.clone(), c1_remote.clone(), Arc::clone(&barrier));
    let h2 = run_side(app2, c2_local, c2_remote, barrier);
    let (ok1, el1) = h1.join().unwrap();
    let (ok2, el2) = h2.join().unwrap();

    // Exactly one side survives and commits; the other is the victim.
    assert!(
        ok1 ^ ok2,
        "exactly one transaction should survive the deadlock (got ok1={ok1}, ok2={ok2})"
    );
    // The acceptance bar: resolved in < 25% of the lock time-out. The
    // victim's abort and the survivor's wakeup must both beat it.
    let bound = TIMEOUT / 4;
    assert!(el1 < bound, "side 1 resolved in {el1:?}, want < {bound:?}");
    assert!(el2 < bound, "side 2 resolved in {el2:?}, want < {bound:?}");

    // Money conserved: only the survivor's transfer applied.
    let total: i64 = {
        let t = app1.begin_transaction(Tid::NULL).unwrap();
        let sum = c1_local.get(t, 0).unwrap() + c1_remote.get(t, 0).unwrap();
        app1.end_transaction(t).unwrap();
        sum
    };
    assert_eq!(total, 2 * OPENING, "money conserved across deadlock resolution");
    // The remote calls' frames were forwarded from the receive buffer,
    // never decoded into owned copies and re-encoded.
    for node in [NodeId(1), NodeId(2)] {
        let m = cluster.metrics(node).snapshot();
        assert!(m.counter("cm.session.rx.zero_copy") > 0, "{node:?}: no zero-copy frames");
        assert_eq!(m.counter("cm.session.rx.fallback"), 0, "{node:?}: fallback frames");
    }
    n1.shutdown();
    n2.shutdown();
}

#[test]
fn many_small_transactions_under_checkpoints() {
    // Sustained update load with periodic checkpoints and reclamation;
    // the log must not grow without bound and the data must stay right.
    let cluster = Cluster::new();
    let (node, arr) = boot_with_array_cells(&cluster, 1, "counters", 16);
    let app = node.app();
    let client = IntArrayClient::new(app.clone(), arr.send_right());

    for round in 0..10i64 {
        for cell in 0..16u64 {
            let v = round * 16 + cell as i64;
            app.run(|t| client.set(t, cell, v)).unwrap();
        }
        node.checkpoint().unwrap();
        node.rm.reclaim(None).unwrap();
    }
    let (used, cap) = node.rm.log().usage();
    assert!(used < cap / 4, "reclamation kept the log small: {used}/{cap}");
    // Crash and verify the final values anyway.
    drop(arr);
    node.crash();
    let (node, arr) = boot_with_array_cells(&cluster, 1, "counters", 16);
    let app = node.app();
    let client = IntArrayClient::new(app.clone(), arr.send_right());
    let t = app.begin_transaction(Tid::NULL).unwrap();
    for cell in 0..16u64 {
        assert_eq!(client.get(t, cell).unwrap(), 9 * 16 + cell as i64);
    }
    app.end_transaction(t).unwrap();
    node.shutdown();
}
