#!/usr/bin/env bash
# Repo CI gate: formatting, lints, then the tier-1 build + test cycle.
# Run from the workspace root; fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> served ports + observability, 10x beside a CPU hog (bounded, 60 s): first red fails"
# A snapshot taken before phase 2 drained only went red with the cores
# busy; the served-port tests assert who runs where, so they ride along.
hogs=()
for _ in $(seq "$(nproc)"); do
    # The time-out only reaps a hog orphaned by a killed ci.sh: the runs
    # below end, or are ended, well inside it.
    timeout 120 sh -c 'while :; do :; done' &
    hogs+=($!)
done
trap 'kill "${hogs[@]}" 2>/dev/null || true' EXIT
stage_end=$((SECONDS + 60))
for run in $(seq 10); do
    left=$((stage_end - SECONDS))
    if [ "$left" -le 0 ]; then
        echo "stage out of its 60 s before run $run of 10" >&2
        exit 1
    fi
    if ! out=$(timeout "$left" cargo test -q -p tabs-kernel -p tabs-server-lib -p tabs-cm \
        -p tabs-servers --lib --test observability 2>&1); then
        echo "$out" >&2
        echo "run $run of 10 under load failed (or ran the stage past its 60 s)" >&2
        exit 1
    fi
done
if ! kill -0 "${hogs[@]}" 2>/dev/null; then
    echo "a CPU hog died before the runs ended: they did not all run under load" >&2
    exit 1
fi
kill "${hogs[@]}" 2>/dev/null || true
trap - EXIT

echo "==> chaos sweep (bounded): cargo test -q -p tabs-chaos --test chaos_sweep"
if ! cargo test -q -p tabs-chaos --test chaos_sweep; then
    echo "chaos sweep failed: the assertion output above carries a" >&2
    echo "'seed=<N> crash_point=<name>' line; replay it exactly with" >&2
    echo "  cargo run -p tabs-perf --bin tables -- chaos --seed <N>" >&2
    exit 1
fi

echo "==> deadlock detection (bounded): unit + cross-node + adversarial-net sweep"
cargo clippy -p tabs-detect --all-targets -- -D warnings
cargo test -q -p tabs-detect
cargo test -q -p tabs-servers --test concurrency cross_node_deadlock
if ! cargo test -q -p tabs-detect --test probe_chaos; then
    echo "probe chaos sweep failed: the assertion output above carries a" >&2
    echo "'seed=<N>' — rerun that seed's datagram schedule exactly by" >&2
    echo "editing SEEDS in crates/detect/tests/probe_chaos.rs" >&2
    exit 1
fi

echo "==> group commit (bounded): durability sweep + amortization gate"
if ! cargo test -q -p tabs-chaos --test prop_group_commit; then
    echo "group-commit durability sweep failed: the assertion output above" >&2
    echo "carries a 'seed=<N> crash_point=<name>' line; replay it with" >&2
    echo "  ChaosRunner::new(seed).sweep_group_commit()" >&2
    exit 1
fi
cargo run -q -p tabs-perf --release --bin tables -- groupcommit --quick

echo "==> partition tolerance (bounded): convergence properties + resolution gate"
if ! cargo test -q -p tabs-chaos --test prop_partition; then
    echo "partition property sweep failed: the assertion output above carries" >&2
    echo "a 'seed=<N> crash_point=<label>' line; replay the scenario with" >&2
    echo "  ChaosRunner::new(seed).partition_rejoin_scenario(...)" >&2
    exit 1
fi
cargo run -q -p tabs-perf --release --bin tables -- partition --quick

echo "==> commit fast paths (bounded): count properties + exact-count gated run"
if ! cargo test -q -p tabs-chaos --test prop_fastpath; then
    echo "fast-path property suite failed: the proptest output above carries" >&2
    echo "the minimal failing schedule of sole-writer transfers or read-only" >&2
    echo "audits whose forces, datagrams or counters were off" >&2
    exit 1
fi
cargo run -q -p tabs-perf --release --bin tables -- fastpath --quick

echo "==> shard migration (bounded): kill-mid-migration sweep"
if ! cargo test -q -p tabs-chaos --test prop_migration migration_sweep_covers_every_point; then
    echo "migration chaos sweep failed: the assertion output above carries a" >&2
    echo "'seed=<N> crash_point=shard.migrate.<step>' line; replay it with" >&2
    echo "  ChaosRunner::new(seed).sweep_migration()" >&2
    exit 1
fi

echo "==> replication (bounded): minority-kill sweep + degradation gate"
if ! cargo test -q -p tabs-chaos --test prop_replication replication_sweep_covers_every_point; then
    echo "replication chaos sweep failed: the assertion output above carries" >&2
    echo "a 'seed=<N> crash_point=<name>@<victim>' line; replay it with" >&2
    echo "  ChaosRunner::new(seed).sweep_replication()" >&2
    exit 1
fi
cargo test -q -p tabs-servers --test repdir_differential
cargo run -q -p tabs-perf --release --bin tables -- replicate --quick

echo "==> overload (bounded): deadline/shed properties + mid-spike-kill chaos + quick gated run"
cargo test -q -p tabs-servers --test deadlines
if ! cargo test -q -p tabs-chaos --test prop_overload; then
    echo "overload chaos scenario failed: the assertion output above carries" >&2
    echo "a 'seed=<N> crash_point=overload+node-kill' line; replay it with" >&2
    echo "  ChaosRunner::new(seed).overload_kill_scenario()" >&2
    exit 1
fi
cargo run -q -p tabs-perf --release --bin tables -- overload --quick

echo "==> ablations (bounded): each design-choice row gated on counts and outcomes"
cargo run -q -p tabs-perf --release --bin tables -- ablations --quick

echo "==> benchmark (bounded): fmt, clippy, unit tests, 2 s smoke run + result-file check"
# benchmark/ is its own workspace (BENCHMARK.json); check.sh builds it
# offline into the root target directory. Numbers come from the full
# 'bash benchmark/run.sh', never from this smoke run.
bash benchmark/check.sh

echo "CI green."
