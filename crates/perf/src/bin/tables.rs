//! The bench CLI: the §5 tables, the gated workloads and the ablations
//! behind one declarative subcommand table.
//!
//! ```text
//! tables [<command>] [--quick] [--seed N] [--iters N] [--warmup N]
//! ```
//!
//! Run `tables --help` for the command list. Without a command the full
//! §5 report is regenerated (`all`).
//!
//! Workloads with acceptance gates exit 1 when a gate fails:
//! `groupcommit` (forces/commit < 0.5 and ≥ 4× reduction), `fastpath`
//! (exactly 2 datagrams and 0 forces per remote read-only audit, 0 and 1
//! per sole-writer transfer), `partition` (cooperative p50 under 25% of the
//! retransmit-timeout baseline), `replicate` (replica-killed p50 commit
//! latency within 3× the healthy baseline), `overload` (liveness, and on
//! full-length runs the metastability oracle: 3×-spike goodput ≥ 70% of
//! saturation, admitted work's p99 within the end-to-end budget,
//! post-spike re-convergence), `ablations` (each design-choice row on its
//! counts and outcomes). Usage errors exit 2.

use std::time::Duration;

use tabs_perf::{
    ablations, bench, fastpath, groupcommit, overload, partition, replicate, tables, BenchResult,
};

/// Shared command-line flags.
struct Flags {
    quick: bool,
    seed: u64,
    iters: Option<u32>,
    warmup: Option<u32>,
}

/// One subcommand: a name, a `--help` line, and a handler returning the
/// process exit code.
struct Command {
    name: &'static str,
    about: &'static str,
    run: fn(&Flags) -> i32,
}

/// The whole CLI, in `--help` order.
const COMMANDS: &[Command] = &[
    Command {
        name: "all",
        about: "full section 5 report: every regenerated table (the default)",
        run: |f| measured_table(f, tables::full_report),
    },
    Command {
        name: "groupcommit",
        about: "commit-path log forces: batched vs one-force-per-commit",
        run: groupcommit,
    },
    Command {
        name: "fastpath",
        about: "commit fast paths: exact 1PC + read-only voter costs vs the full-2PC price",
        run: fastpath,
    },
    Command {
        name: "partition",
        about: "in-doubt resolution after a coordinator crash",
        run: partition,
    },
    Command {
        name: "replicate",
        about: "replicated-shard commit latency: full replica set vs one follower killed",
        run: replicate,
    },
    Command {
        name: "overload",
        about: "3x-capacity spike vs admission control + deadlines (metastability oracle)",
        run: overload,
    },
    Command {
        name: "ablations",
        about: "design-choice ablations, gated on counts and outcomes",
        run: ablations,
    },
    Command {
        name: "table5_1",
        about: "measured primitive times (static)",
        run: |_| print_table(tables::table_5_1()),
    },
    Command {
        name: "table5_2",
        about: "pre-commit primitive counts, measured",
        run: |f| measured_table(f, tables::table_5_2),
    },
    Command {
        name: "table5_3",
        about: "commit primitive counts, measured",
        run: |f| measured_table(f, tables::table_5_3),
    },
    Command {
        name: "table5_4",
        about: "benchmark latencies vs the paper",
        run: |f| measured_table(f, tables::table_5_4),
    },
    Command {
        name: "table5_4_priced",
        about: "Table 5-4's priced columns alone (counts x cost tables, deterministic)",
        run: |f| measured_table(f, tables::table_5_4_priced),
    },
    Command {
        name: "table5_5",
        about: "achievable primitive times (static)",
        run: |_| print_table(tables::table_5_5()),
    },
    Command {
        name: "shapes",
        about: "benchmark shape report, measured",
        run: |f| measured_table(f, tables::shape_report),
    },
    Command {
        name: "accounting",
        about: "latency accounting, measured",
        run: |f| measured_table(f, tables::accounting),
    },
    Command {
        name: "trace",
        about: "swimlane demos: 2PC, deadlock, partition, shard migration",
        run: trace,
    },
    Command { name: "chaos", about: "crash-point sweeps against the invariant oracle", run: chaos },
];

fn usage(mut to: impl std::io::Write) {
    let _ =
        writeln!(to, "Usage: tables [<command>] [--quick] [--seed N] [--iters N] [--warmup N]\n");
    let _ = writeln!(to, "Commands (default: all):");
    for c in COMMANDS {
        let _ = writeln!(to, "  {:<12} {}", c.name, c.about);
    }
    let _ = writeln!(
        to,
        "\nFlags:\n  --quick       shrink iteration counts / windows for CI liveness runs\n  \
         --seed N      deterministic seed (chaos scenarios, workload schedules)\n  \
         --iters N     iteration override (per-command meaning)\n  \
         --warmup N    warmup transactions before measuring\n  \
         --help        this text"
    );
}

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = Flags { quick: false, seed: 0xC4A0_05ED, iters: None, warmup: None };
    let mut command: Option<String> = None;

    let bad = |what: &str| -> i32 {
        eprintln!("tables: {what}\n");
        usage(std::io::stderr());
        2
    };

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                usage(std::io::stdout());
                return 0;
            }
            "--quick" => flags.quick = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => flags.seed = v,
                None => return bad("--seed needs a number"),
            },
            "--iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => flags.iters = Some(v),
                None => return bad("--iters needs a number"),
            },
            "--warmup" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => flags.warmup = Some(v),
                None => return bad("--warmup needs a number"),
            },
            flag if flag.starts_with('-') => {
                return bad(&format!("unknown flag '{flag}'"));
            }
            positional if command.is_none() => command = Some(positional.to_string()),
            extra => return bad(&format!("unexpected argument '{extra}'")),
        }
    }

    let name = command.as_deref().unwrap_or("all");
    match COMMANDS.iter().find(|c| c.name == name) {
        Some(c) => (c.run)(&flags),
        None => bad(&format!("unknown command '{name}'")),
    }
}

/// Prints a gated workload's table, or its run error, and maps a failed
/// gate or run to exit 1.
fn finish(name: &str, flags: &Flags, outcome: Result<(String, Option<String>), String>) -> i32 {
    let failure = match outcome {
        Ok((text, gate)) => {
            print!("{text}");
            gate
        }
        Err(e) => Some(e),
    };
    match failure {
        None => 0,
        Some(e) => {
            eprintln!("{name} FAILED: {e}");
            eprintln!("reproduce with: tables {name} --seed {}", flags.seed);
            1
        }
    }
}

fn groupcommit(flags: &Flags) -> i32 {
    let rounds = if flags.quick { 5 } else { flags.iters.unwrap_or(40) };
    let (unbatched, batched) = groupcommit::compare(8, rounds);
    let gate = groupcommit::gate(&unbatched, &batched);
    finish("groupcommit", flags, Ok((groupcommit::render(&[unbatched, batched]), gate)))
}

fn fastpath(flags: &Flags) -> i32 {
    let rounds = if flags.quick { 3 } else { 10 };
    let outcome =
        fastpath::run(rounds, flags.seed).map(|r| (fastpath::render(&r), fastpath::gate(&r)));
    finish("fastpath", flags, outcome)
}

fn partition(flags: &Flags) -> i32 {
    let iters = flags.iters.unwrap_or(if flags.quick { 2 } else { 5 });
    let outcome = partition::compare(iters, flags.seed).map(|(baseline, coop)| {
        let gate = partition::gate(&baseline, &coop);
        (partition::render(&[baseline, coop]), gate)
    });
    finish("partition", flags, outcome)
}

fn replicate(flags: &Flags) -> i32 {
    let transfers = flags.iters.unwrap_or(if flags.quick { 60 } else { 200 });
    let outcome = replicate::compare(transfers, flags.seed).map(|(healthy, killed)| {
        let gate = replicate::gate(&healthy, &killed);
        (replicate::render(&[healthy, killed]), gate)
    });
    finish("replicate", flags, outcome)
}

fn overload(flags: &Flags) -> i32 {
    let (run, gate) = overload::run_gated(flags.quick, flags.seed);
    finish("overload", flags, Ok((overload::render(&run), gate)))
}

fn ablations(flags: &Flags) -> i32 {
    let updates = flags.iters.map_or(if flags.quick { 100 } else { 1000 }, u64::from);
    let outcome = ablations::run(updates).map(|a| (ablations::render(&a), ablations::gate(&a)));
    finish("ablations", flags, outcome)
}

fn print_table(text: String) -> i32 {
    print!("{text}");
    0
}

/// Boots the benchmark cluster, runs the fourteen benchmarks with the
/// shared `--iters`/`--warmup`/`--quick` semantics, and prints one
/// rendering of the results.
fn measured_table(flags: &Flags, render: fn(&[BenchResult]) -> String) -> i32 {
    let warmup = flags.warmup.unwrap_or(if flags.quick { 2 } else { 8 });
    let iters = flags.iters.unwrap_or(if flags.quick { 3 } else { 40 });
    eprintln!("booting three-node cluster; {iters} iterations per benchmark …");
    print_table(render(&bench::run_all(warmup, iters)))
}

/// Boots a traced two-node cluster, commits one distributed write, and
/// renders the transaction's swimlane timeline plus the coordinator's
/// metric registry.
fn trace(_flags: &Flags) -> i32 {
    use tabs_core::prelude::*;
    use tabs_servers::{IntArrayClient, IntArrayServer};

    eprintln!("booting two-node traced cluster …");
    let cluster =
        Cluster::with_config(ClusterConfig::default().trace(true).deadlock_detection(true));
    let n1 = cluster.boot_node(NodeId(1));
    let n2 = cluster.boot_node(NodeId(2));
    let a1 = IntArrayServer::spawn(&n1, "arr-1", 64).expect("local array");
    let a2 = IntArrayServer::spawn(&n2, "arr-2", 64).expect("remote array");
    n1.recover().expect("recover node 1");
    n2.recover().expect("recover node 2");

    let (remote_port, _) = n1
        .resolve("arr-2", 1, Duration::from_secs(2))
        .into_iter()
        .next()
        .expect("remote array resolvable");
    let app = n1.app();
    let local = IntArrayClient::new(app.clone(), a1.send_right());
    let remote = IntArrayClient::new(app.clone(), remote_port);

    let tid = app.begin_transaction(Tid::NULL).expect("begin");
    local.set(tid, 0, 17).expect("local write");
    remote.set(tid, 0, 34).expect("remote write");
    let outcome = app.end_transaction(tid).expect("end");
    assert!(outcome.is_committed(), "distributed write must commit");

    // The commit returned at the commit point; wait for phase 2 to drain
    // so the timeline holds the whole protocol exchange.
    assert!(cluster.quiesce(Duration::from_secs(5)), "phase 2 never drained");
    print!("{}", cluster.timeline().render_swimlane(tid));

    // Second act: a manufactured cross-node deadlock, so the detector's
    // probe exchange and victim broadcast show up in a swimlane too.
    eprintln!();
    eprintln!("manufacturing a cross-node deadlock for the detector …");
    let app2 = n2.app();
    let c2_local = IntArrayClient::new(app2.clone(), a2.send_right());
    let (r1_port, _) = n2
        .resolve("arr-1", 1, Duration::from_secs(2))
        .into_iter()
        .next()
        .expect("arr-1 resolvable from node 2");
    let c2_remote = IntArrayClient::new(app2.clone(), r1_port);

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let side = |app: tabs_core::AppHandle,
                first: IntArrayClient,
                second: IntArrayClient,
                barrier: std::sync::Arc<std::sync::Barrier>| {
        std::thread::spawn(move || {
            let t = app.begin_transaction(Tid::NULL).expect("begin");
            first.add(t, 1, 1).expect("first lock");
            barrier.wait();
            match second.add(t, 1, 1) {
                Ok(_) => {
                    app.end_transaction(t).expect("end");
                    (t, false)
                }
                Err(_) => {
                    let _ = app.abort_transaction(t);
                    (t, true)
                }
            }
        })
    };
    let h1 = side(app.clone(), local, remote, std::sync::Arc::clone(&barrier));
    let h2 = side(app2, c2_local, c2_remote, barrier);
    let (t1, dead1) = h1.join().expect("side 1");
    let (t2, dead2) = h2.join().expect("side 2");
    assert!(dead1 ^ dead2, "exactly one side must be the deadlock victim");
    let (victim, survivor) = if dead1 { (t1, t2) } else { (t2, t1) };
    // Probes are traced under the waiter whose scan initiated them, so
    // the exchange may land in either lane; render both.
    eprintln!("victim {victim} — its swimlane (victim broadcast, abort):");
    print!("{}", cluster.timeline().render_swimlane(victim));
    eprintln!();
    eprintln!("survivor {survivor} — its swimlane (probes, resumed lock, commit):");
    print!("{}", cluster.timeline().render_swimlane(survivor));

    eprintln!();
    eprintln!("node 1 metrics after the traced transactions:");
    eprint!("{}", cluster.metrics(NodeId(1)).render());

    n1.shutdown();
    n2.shutdown();

    // Third act: a partition on a heartbeat cluster — suspicion, heal,
    // and a node rebooting into a fresh incarnation. The failure
    // detector traces outside any transaction, so its swimlane rides the
    // null-transaction lane.
    eprintln!();
    eprintln!("partitioning a heartbeat cluster: suspicion, heal, rejoin …");
    let hb = tabs_core::HeartbeatConfig {
        interval: Duration::from_millis(10),
        suspect_after: 3,
        probe_cap: Duration::from_millis(100),
    };
    let pc = Cluster::with_config(ClusterConfig::default().trace(true).heartbeat(hb));
    let p1 = pc.boot_node(NodeId(1));
    let p2 = pc.boot_node(NodeId(2));
    p1.recover().expect("recover partition-demo node 1");
    p2.recover().expect("recover partition-demo node 2");

    let reaches = |node: &tabs_core::Node, peer: NodeId, up: bool, what: &str| {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !node.reachability().iter().any(|&(n, u)| n == peer && u == up) {
            assert!(std::time::Instant::now() < deadline, "never observed {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    // Let heartbeats flow first: a peer never heard from is not watched,
    // so there would be nothing to suspect.
    reaches(&p1, NodeId(2), true, "initial heartbeats");
    pc.network().partition(NodeId(1), NodeId(2));
    reaches(&p1, NodeId(2), false, "suspicion of the partitioned peer");
    pc.network().heal(NodeId(1), NodeId(2));
    reaches(&p1, NodeId(2), true, "reachability after heal");

    // Node 2 reboots on its durable disks: incarnation bump plus rejoin.
    p2.crash();
    let p2b = pc.boot_node(NodeId(2));
    p2b.recover().expect("recover rejoined node 2");

    print!("{}", pc.timeline().render_swimlane(Tid::NULL));
    p1.shutdown();
    p2b.shutdown();

    // Fourth act: reconfiguration — a live shard migration on a traced
    // sharded cluster. The engine's events (migration-start, the durable
    // ownership flip, shard-map-update, migration-done) happen outside
    // any one transaction, so they ride the null-transaction lane; the
    // copy itself is an ordinary distributed transaction.
    eprintln!();
    eprintln!("migrating a bank shard between live nodes …");
    use tabs_shard::{MigrateOptions, Migrator, Partitioning, ShardClient, ShardMap, ShardServer};
    let sc = Cluster::with_config(ClusterConfig::default().trace(true));
    let s1 = sc.boot_node(NodeId(1));
    let s2 = sc.boot_node(NodeId(2));
    let map = ShardMap {
        service: "bank".into(),
        version: 1,
        partitioning: Partitioning::Hash,
        owners: vec![NodeId(1), NodeId(1)],
        replicas: vec![Vec::new(); 2],
    };
    let (c1, _src_servers) = ShardServer::spawn_all(&s1, &map, 8).expect("source shard servers");
    let (c2, _dst_servers) =
        ShardServer::spawn_all(&s2, &map, 8).expect("destination shard servers");
    s1.recover().expect("recover shard source");
    s2.recover().expect("recover shard destination");
    s1.ns.publish_map("bank", map.version, map.to_blob());

    let bank = ShardClient::new(&s2, "bank").expect("shard router");
    let app_s2 = s2.app();
    let t = app_s2.begin_transaction(Tid::NULL).expect("begin");
    bank.set(t, 1, 500).expect("seed balance");
    assert!(app_s2.end_transaction(t).expect("end").is_committed(), "seed write must commit");

    let moved = Migrator::new()
        .migrate(&s1, &c1, &s2, &c2, 1, &MigrateOptions::default())
        .expect("live migration");
    eprintln!("shard bank.s1 now on node {} (map v{})", moved.owner(1), moved.version);

    let t = app_s2.begin_transaction(Tid::NULL).expect("begin");
    assert_eq!(bank.get(t, 1).expect("read after migration"), 500, "moved balance must survive");
    assert!(app_s2.end_transaction(t).expect("end").is_committed(), "read must commit");

    print!("{}", sc.timeline().render_swimlane(Tid::NULL));
    s1.shutdown();
    s2.shutdown();
    0
}

/// Runs the full crash-point sweeps plus the deterministic disk-fault
/// scenarios and reports coverage; exits non-zero with a reproduction
/// line on any invariant violation.
fn chaos(flags: &Flags) -> i32 {
    use tabs_chaos::{registry, ChaosRunner};

    let seed = flags.seed;
    eprintln!("chaos sweep, seed={seed} …");
    let runner = ChaosRunner::new(seed);
    let mut killed = std::collections::BTreeSet::new();
    let outcome = runner
        .sweep_single_node()
        .map(|k| killed.extend(k))
        .and_then(|()| runner.sweep_group_commit().map(|k| killed.extend(k)))
        .and_then(|()| runner.sweep_distributed().map(|k| killed.extend(k)))
        .and_then(|()| runner.sweep_migration().map(|k| killed.extend(k)))
        .and_then(|()| runner.sweep_replication().map(|k| killed.extend(k)))
        .and_then(|()| runner.torn_write_scenario())
        .and_then(|()| runner.transient_read_scenario());
    if let Err(e) = outcome {
        eprintln!("chaos FAILED: {e}");
        eprintln!("reproduce with: tables chaos --seed {seed}");
        return 1;
    }
    println!("crash points killed and recovered ({}):", killed.len());
    for p in &killed {
        println!("  {p}");
    }
    let missing: Vec<&str> = registry().into_iter().filter(|p| !killed.contains(p)).collect();
    if !missing.is_empty() {
        eprintln!("chaos FAILED: seed={seed} crash_point=none unswept points: {missing:?}");
        return 1;
    }
    println!("all {} registered crash points swept; invariants held.", killed.len());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn help_text() -> String {
        let mut buf = Vec::new();
        usage(&mut buf);
        String::from_utf8(buf).expect("help is UTF-8")
    }

    /// Satellite guard against CLI/doc drift: `--help` must list every
    /// entry in the dispatch table.
    #[test]
    fn help_covers_the_whole_dispatch_table() {
        let help = help_text();
        for c in COMMANDS {
            assert!(
                help.lines().any(|l| l.trim_start().starts_with(&format!("{} ", c.name))),
                "--help does not list subcommand '{}'",
                c.name
            );
        }
    }

    /// The README subcommand table must mention every subcommand too.
    #[test]
    fn readme_subcommand_table_covers_the_dispatch_table() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the workspace root");
        for c in COMMANDS {
            assert!(
                readme.contains(&format!("`{}`", c.name)),
                "README subcommand table does not mention `{}`",
                c.name
            );
        }
    }
}
