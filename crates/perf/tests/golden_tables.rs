//! Golden test for the paper's primitive-count tables.
//!
//! Tables 5-2 and 5-3 count primitives (data-server calls, messages,
//! datagrams, stable-storage writes), never time, so at a fixed
//! iteration count they render byte for byte the same on every run. This
//! pins them: a change that moves any count — a commit path that sends
//! one more message or forces the log once more — fails here, with both
//! renderings printed. If the move is intended, regenerate the files with
//!
//! ```text
//! cargo run --release -p tabs-bench --bin tables -- table5_2 --iters 5 --warmup 2 \
//!     > crates/perf/tests/golden/table5_2.txt
//! cargo run --release -p tabs-bench --bin tables -- table5_3 --iters 5 --warmup 2 \
//!     > crates/perf/tests/golden/table5_3.txt
//! ```

use tabs_perf::{run_all, tables};

#[test]
fn tables_5_2_and_5_3_match_the_checked_in_counts() {
    let results = run_all(2, 5);
    for (name, rendered, golden) in [
        ("Table 5-2", tables::table_5_2(&results), include_str!("golden/table5_2.txt")),
        ("Table 5-3", tables::table_5_3(&results), include_str!("golden/table5_3.txt")),
    ] {
        assert_eq!(
            rendered, golden,
            "{name} moved.\n--- rendered ---\n{rendered}--- golden ---\n{golden}"
        );
    }
}
