#!/usr/bin/env bash
# The TABS benchmark. Run from anywhere; works from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out DIR] [<workload>...]
#       every workload (or the ones named), each in its own process,
#       untraced then traced; prints every metric, checks the outputs and
#       writes DIR/result.json (default benchmark/out).
#   benchmark/run.sh compare A.json B.json
#       applies BENCHMARK.json's bounds to B against A; non-zero exit on a
#       regression.
#   benchmark/run.sh check RESULT.json
#       validates a result file against BENCHMARK.json.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, as the harness named in BENCHMARK.json invokes it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The product is built from source, into the root workspace's target
# directory unless the caller chose another.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/tabs-benchmark"

# One core for the whole process. Left to the scheduler on two virtual
# cores, every port hand-off wakes the idle core, and throughput is a
# third of the one-core figure and bimodal; pinned, the CPU-bound
# workloads measure the code path and repeat.
pin=()
if command -v taskset >/dev/null; then
    pin=(taskset -c "$(($(nproc) - 1))")
fi

case "${1:-}" in
compare | check) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec ${pin[@]+"${pin[@]}"} "$bin" "$@"
    fi
done
exec ${pin[@]+"${pin[@]}"} "$bin" suite "$@"
