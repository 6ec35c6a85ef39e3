//! Golden tests for the paper's primitive-count tables and Table 5-4's
//! priced columns.
//!
//! Tables 5-2 and 5-3 count primitives (data-server calls, messages,
//! datagrams, stable-storage writes), never time, so at a fixed
//! iteration count they render byte for byte the same on every run.
//! Table 5-4's `pred-ours`, `improved` and `new-prims` columns are those
//! counts priced by the cost tables, so they are deterministic too. This
//! pins all three: a change that moves any count — a commit path that
//! sends one more message or forces the log once more — fails here, with
//! both renderings printed. If the move is intended, regenerate the files
//! with
//!
//! ```text
//! for t in table5_2 table5_3 table5_4_priced; do
//!     cargo run -q --release -p tabs-perf --bin tables -- $t --iters 5 --warmup 2 \
//!         > crates/perf/tests/golden/$t.txt
//! done
//! ```

use tabs_perf::{run_all, tables};

fn assert_golden(name: &str, rendered: &str, golden: &str) {
    assert_eq!(
        rendered, golden,
        "{name} moved.\n--- rendered ---\n{rendered}--- golden ---\n{golden}"
    );
}

#[test]
fn tables_5_2_and_5_3_match_the_checked_in_counts() {
    let results = run_all(2, 5);
    assert_golden("Table 5-2", &tables::table_5_2(&results), include_str!("golden/table5_2.txt"));
    assert_golden("Table 5-3", &tables::table_5_3(&results), include_str!("golden/table5_3.txt"));
}

#[test]
fn table_5_4_priced_columns_match_the_checked_in_file() {
    let results = run_all(2, 5);
    let golden = include_str!("golden/table5_4_priced.txt");
    assert_golden("Table 5-4 (priced)", &tables::table_5_4_priced(&results), golden);
}
