//! Chaos sweep: every registered crash point, armed one scenario at a
//! time (plus coordinator+participant double kills), must actually kill a
//! node somewhere in the sweep, and every scenario must recover to a
//! state the invariant oracle accepts.
//!
//! Any failure message printed here starts with `seed=<N>
//! crash_point=<name>` — rerun with that seed to replay the exact
//! scenario.

use std::collections::BTreeSet;

use tabs_chaos::{
    registry, ChaosRunner, GROUP_COMMIT_POINTS, MIGRATION_POINTS, REPLICATION_POINTS,
    SINGLE_NODE_POINTS, TWO_PC_POINTS,
};

/// Fixed sweep seed: sweeps are exhaustive over crash points, so the seed
/// only picks the disk-fault RNG streams; any value must pass.
const SEED: u64 = 0xC4A0_05ED;

#[test]
fn crash_point_sweeps_cover_the_entire_registry() {
    let runner = ChaosRunner::new(SEED);

    let single = runner.sweep_single_node().unwrap_or_else(|e| panic!("{e}"));
    for &p in SINGLE_NODE_POINTS {
        assert!(
            single.contains(p),
            "seed={SEED} crash_point={p} armed on the bank workload but never killed the node"
        );
    }

    let group = runner.sweep_group_commit().unwrap_or_else(|e| panic!("{e}"));
    for &p in GROUP_COMMIT_POINTS {
        assert!(
            group.contains(p),
            "seed={SEED} crash_point={p} armed on the group-commit workload but never killed \
             the node"
        );
    }

    // A sole-writer commit takes the 1PC branch and never reaches
    // `tm.commit.logged`, so only a distributed commit can kill there.
    let distributed = runner.sweep_distributed().unwrap_or_else(|e| panic!("{e}"));
    for &p in TWO_PC_POINTS {
        assert!(
            distributed.contains(p),
            "seed={SEED} crash_point={p} armed on the distributed workload but never killed a \
             node"
        );
    }

    let migration = runner.sweep_migration().unwrap_or_else(|e| panic!("{e}"));
    for &p in MIGRATION_POINTS {
        assert!(
            migration.contains(p),
            "seed={SEED} crash_point={p} armed on the shard-migration workload but never \
             killed a node"
        );
    }

    let replication = runner.sweep_replication().unwrap_or_else(|e| panic!("{e}"));
    for &p in REPLICATION_POINTS {
        assert!(
            replication.contains(p),
            "seed={SEED} crash_point={p} armed on the replicated-shard workload but never \
             killed a node"
        );
    }

    // The acceptance gate: the union of points that actually killed a
    // node must equal the registry. A registered point no sweep can reach
    // is a test failure, not a silent gap.
    let mut killed: BTreeSet<&str> = single.into_iter().collect();
    killed.extend(group);
    killed.extend(distributed);
    killed.extend(migration);
    killed.extend(replication);
    let reg: BTreeSet<&str> = registry().into_iter().collect();
    let missing: Vec<&&str> = reg.difference(&killed).collect();
    assert!(
        missing.is_empty(),
        "seed={SEED} crash_point=none registered crash points never killed a node: {missing:?}"
    );
    let unregistered: Vec<&&str> = killed.difference(&reg).collect();
    assert!(
        unregistered.is_empty(),
        "seed={SEED} crash_point=none kills at unregistered points: {unregistered:?}"
    );
}

#[test]
fn torn_sector_write_is_repaired_by_recovery() {
    ChaosRunner::new(SEED).torn_write_scenario().unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn transient_read_errors_fail_visibly_then_clear() {
    ChaosRunner::new(SEED).transient_read_scenario().unwrap_or_else(|e| panic!("{e}"));
}
