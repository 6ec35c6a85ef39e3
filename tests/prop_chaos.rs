//! Property tests over random fault plans: whatever disk faults and
//! adversarial network schedule a seed derives, the invariant oracle must
//! hold after recovery — and the whole run must be deterministic, i.e.
//! the same seed must produce byte-identical trace event sequences.

use proptest::prelude::*;

use tabs_chaos::{
    registry, ChaosRunner, FaultPlan, GROUP_COMMIT_POINTS, MIGRATION_POINTS, PAIRWISE_ARMS,
    REPLICATION_POINTS, SINGLE_NODE_POINTS, TWO_PC_POINTS,
};

/// Registry-completeness gate: every crash point registered anywhere in
/// the stack must appear in exactly one sweep list, and every pairwise
/// double-kill arm must reference swept points. Adding a `crash_point!`
/// to any crate without teaching a sweep to reach it fails here — before
/// the expensive sweeps even run.
#[test]
fn every_registered_crash_point_has_a_sweep_entry() {
    let mut swept: Vec<&str> = Vec::new();
    swept.extend_from_slice(SINGLE_NODE_POINTS);
    swept.extend_from_slice(GROUP_COMMIT_POINTS);
    swept.extend_from_slice(TWO_PC_POINTS);
    swept.extend_from_slice(MIGRATION_POINTS);
    swept.extend_from_slice(REPLICATION_POINTS);
    let unique: std::collections::BTreeSet<&str> = swept.iter().copied().collect();
    assert_eq!(unique.len(), swept.len(), "a crash point appears in two sweep lists");
    let reg: std::collections::BTreeSet<&str> = registry().into_iter().collect();
    let missing: Vec<&&str> = reg.difference(&unique).collect();
    assert!(missing.is_empty(), "registered crash points no sweep covers: {missing:?}");
    let stale: Vec<&&str> = unique.difference(&reg).collect();
    assert!(stale.is_empty(), "sweep lists name unregistered crash points: {stale:?}");
    for &(coord, part) in PAIRWISE_ARMS {
        assert!(reg.contains(coord), "pairwise arm references unregistered point {coord}");
        assert!(reg.contains(part), "pairwise arm references unregistered point {part}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// Random torn-write/read-error probabilities plus a random
    /// drop/duplicate/delay datagram schedule never break atomicity,
    /// durability, conservation, or lock hygiene.
    #[test]
    fn random_fault_plans_never_violate_invariants(seed in any::<u64>()) {
        let plan = FaultPlan::from_seed(seed);
        let runner = ChaosRunner::new(seed);
        if let Err(e) = runner.run_plan(&plan) {
            prop_assert!(false, "{}", e);
        }
    }

    /// The harness is deterministic: replaying a seed yields the exact
    /// same observable event sequence (per `tabs-obs` tracing).
    #[test]
    fn same_seed_yields_byte_identical_traces(seed in any::<u64>()) {
        let plan = FaultPlan::from_seed(seed);
        let runner = ChaosRunner::new(seed);
        let first = runner.trace_fingerprint(&plan).unwrap_or_else(|e| panic!("{e}"));
        let second = runner.trace_fingerprint(&plan).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(first, second, "seed={} crash_point=none trace diverged", seed);
    }
}
