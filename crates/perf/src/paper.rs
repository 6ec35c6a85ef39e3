//! Published reference numbers from the paper, for side-by-side
//! comparison in the regenerated tables.
//!
//! Table 5-4 is transcribed in full. Tables 5-2 and 5-3 are transcribed
//! where the scanned source is legible; entries whose digits are unclear
//! in the scan are `None` and rendered as `?` (the regenerated tables rely
//! on *our measured* counts either way — the paper columns are reference
//! only).

/// One Table 5-4 row of published times (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct PaperTimes {
    /// Benchmark label (matching `bench::benchmarks()` names).
    pub name: &'static str,
    /// "System Time Predicted by Primitives".
    pub predicted: f64,
    /// "Measured TABS Process Time".
    pub tabs_process: f64,
    /// "Measured Elapsed Time".
    pub elapsed: f64,
    /// "Improved TABS Architecture" projection.
    pub improved: f64,
    /// "New Primitive Times" projection.
    pub new_primitives: f64,
}

/// Table 5-4 as published.
pub const TABLE_5_4: [PaperTimes; 14] = [
    PaperTimes {
        name: "1 Local Read, No Paging",
        predicted: 53.0,
        tabs_process: 41.0,
        elapsed: 110.0,
        improved: 107.0,
        new_primitives: 67.0,
    },
    PaperTimes {
        name: "5 Local Read, No Paging",
        predicted: 157.0,
        tabs_process: 41.0,
        elapsed: 217.0,
        improved: 213.0,
        new_primitives: 80.0,
    },
    PaperTimes {
        name: "1 Local Read, Seq. Paging",
        predicted: 71.0,
        tabs_process: 41.0,
        elapsed: 126.0,
        improved: 123.0,
        new_primitives: 75.0,
    },
    PaperTimes {
        name: "1 Local Read, Random Paging",
        predicted: 81.0,
        tabs_process: 41.0,
        elapsed: 140.0,
        improved: 137.0,
        new_primitives: 98.0,
    },
    PaperTimes {
        name: "1 Local Write, No Paging",
        predicted: 156.0,
        tabs_process: 83.0,
        elapsed: 247.0,
        improved: 228.0,
        new_primitives: 136.0,
    },
    PaperTimes {
        name: "5 Local Write, No Paging",
        predicted: 302.0,
        tabs_process: 119.0,
        elapsed: 467.0,
        improved: 424.0,
        new_primitives: 225.0,
    },
    PaperTimes {
        name: "1 Local Write, Seq. Paging",
        predicted: 232.0,
        tabs_process: 104.0,
        elapsed: 371.0,
        improved: 345.0,
        new_primitives: 249.0,
    },
    PaperTimes {
        name: "1 Lcl Rd, 1 Rem Rd, No Paging",
        predicted: 306.0,
        tabs_process: 223.0,
        elapsed: 469.0,
        improved: 459.0,
        new_primitives: 228.0,
    },
    PaperTimes {
        name: "1 Lcl Rd, 5 Rem Rd, No Paging",
        predicted: 662.0,
        tabs_process: 368.0,
        elapsed: 829.0,
        improved: 819.0,
        new_primitives: 268.0,
    },
    PaperTimes {
        name: "1 Lcl Rd, 1 Rem Rd, Seq. Paging",
        predicted: 341.0,
        tabs_process: 226.0,
        elapsed: 514.0,
        improved: 504.0,
        new_primitives: 257.0,
    },
    PaperTimes {
        name: "1 Lcl Wr, 1 Rem Wr, No Paging",
        predicted: 697.0,
        tabs_process: 407.0,
        elapsed: 989.0,
        improved: 775.0,
        new_primitives: 442.0,
    },
    PaperTimes {
        name: "1 Lcl Wr, 1 Rem Wr, Seq. Paging",
        predicted: 864.0,
        tabs_process: 441.0,
        elapsed: 1125.0,
        improved: 873.0,
        new_primitives: 539.0,
    },
    PaperTimes {
        name: "1 Lcl Rd, 1 Rem Rd, 1 Rem Rd, NP",
        predicted: 416.0,
        tabs_process: 381.0,
        elapsed: 621.0,
        improved: 611.0,
        new_primitives: 282.0,
    },
    PaperTimes {
        name: "1 Lcl Wr, 1 Rem Wr, 1 Rem Wr, NP",
        predicted: 831.0,
        tabs_process: 670.0,
        elapsed: 1200.0,
        improved: 968.0,
        new_primitives: 534.0,
    },
];

/// One Table 5-2 row of published pre-commit primitive counts. Column
/// order: data-server calls, remote data-server calls, small local
/// messages, large local messages, sequential page reads, random page I/O.
#[derive(Debug, Clone, Copy)]
pub struct PaperPreCounts {
    /// Benchmark label.
    pub name: &'static str,
    /// Counts; `None` where the scanned table is illegible.
    pub counts: [Option<f64>; 6],
}

/// Table 5-2 as published (best-effort transcription).
pub const TABLE_5_2: [PaperPreCounts; 14] = [
    PaperPreCounts {
        name: "1 Local Read, No Paging",
        counts: [Some(1.0), None, Some(4.0), None, None, None],
    },
    PaperPreCounts {
        name: "5 Local Read, No Paging",
        counts: [Some(5.0), None, Some(4.0), None, None, None],
    },
    PaperPreCounts {
        name: "1 Local Read, Seq. Paging",
        counts: [Some(1.0), None, Some(4.0), None, Some(0.86), None],
    },
    PaperPreCounts {
        name: "1 Local Read, Random Paging",
        counts: [Some(1.0), None, Some(4.0), None, None, Some(1.0)],
    },
    PaperPreCounts {
        name: "1 Local Write, No Paging",
        counts: [Some(1.0), None, Some(6.0), Some(1.0), None, None],
    },
    PaperPreCounts {
        name: "5 Local Write, No Paging",
        counts: [Some(5.0), None, Some(14.0), Some(5.0), None, None],
    },
    PaperPreCounts {
        name: "1 Local Write, Seq. Paging",
        counts: [Some(1.0), None, Some(10.0), Some(1.0), None, None],
    },
    PaperPreCounts {
        name: "1 Lcl Rd, 1 Rem Rd, No Paging",
        counts: [Some(1.0), Some(1.0), Some(8.0), None, None, None],
    },
    PaperPreCounts {
        name: "1 Lcl Rd, 5 Rem Rd, No Paging",
        counts: [Some(1.0), Some(5.0), Some(8.0), None, None, None],
    },
    PaperPreCounts {
        name: "1 Lcl Rd, 1 Rem Rd, Seq. Paging",
        counts: [Some(1.0), Some(1.0), Some(8.0), None, None, None],
    },
    PaperPreCounts {
        name: "1 Lcl Wr, 1 Rem Wr, No Paging",
        counts: [Some(1.0), Some(1.0), Some(12.0), Some(2.0), None, None],
    },
    PaperPreCounts {
        name: "1 Lcl Wr, 1 Rem Wr, Seq. Paging",
        counts: [Some(1.0), Some(1.0), Some(20.0), Some(2.0), None, None],
    },
    PaperPreCounts {
        name: "1 Lcl Rd, 1 Rem Rd, 1 Rem Rd, NP",
        counts: [Some(1.0), Some(2.0), Some(11.0), Some(1.0), None, None],
    },
    PaperPreCounts {
        name: "1 Lcl Wr, 1 Rem Wr, 1 Rem Wr, NP",
        counts: [Some(1.0), Some(2.0), Some(17.0), Some(3.0), None, None],
    },
];

/// One Table 5-3 row of published commit-phase counts. Column order:
/// datagrams, small local messages, large local messages, pointer
/// messages, stable-storage writes.
#[derive(Debug, Clone, Copy)]
pub struct PaperCommitCounts {
    /// Commit-protocol label.
    pub name: &'static str,
    /// Counts; `None` where illegible. The 2.5 datagrams of the 3-node
    /// read case are the paper's half-datagram parallel-send estimate.
    pub counts: [Option<f64>; 5],
}

/// Table 5-3 as published (best-effort transcription).
pub const TABLE_5_3: [PaperCommitCounts; 6] = [
    PaperCommitCounts { name: "1 Node, Read Only", counts: [None, Some(5.0), None, None, None] },
    PaperCommitCounts {
        name: "1 Node, Write",
        counts: [None, Some(8.0), None, Some(1.0), Some(1.0)],
    },
    PaperCommitCounts {
        name: "2 Node, Read Only",
        counts: [Some(2.0), Some(11.0), Some(1.0), None, None],
    },
    PaperCommitCounts {
        name: "2 Node, Write",
        counts: [Some(4.0), Some(17.0), Some(5.0), None, Some(1.0)],
    },
    PaperCommitCounts {
        name: "3 Node, Read Only",
        counts: [Some(2.5), Some(11.0), Some(1.0), None, None],
    },
    PaperCommitCounts {
        name: "3 Node, Write",
        counts: [Some(5.0), Some(17.0), Some(5.0), None, Some(1.0)],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_5_4_internally_consistent() {
        for row in &TABLE_5_4 {
            // Predicted + process time approximately accounts for elapsed
            // in single-node rows (§5.2: "Predicted System Time plus
            // Measured TABS Process Time should approximately yield
            // Measured Elapsed Time").
            if !row.name.contains("Rem") {
                let sum = row.predicted + row.tabs_process;
                let err = (sum - row.elapsed).abs() / row.elapsed;
                assert!(err < 0.20, "{}: {sum} vs {}", row.name, row.elapsed);
            }
            // Projections never exceed measured elapsed time.
            assert!(row.improved <= row.elapsed);
            assert!(row.new_primitives <= row.improved);
        }
    }

    #[test]
    fn benchmark_names_match_bench_module() {
        let names: Vec<&str> = crate::bench::benchmarks().iter().map(|b| b.name).collect();
        for row in &TABLE_5_4 {
            assert!(names.contains(&row.name), "missing benchmark {}", row.name);
        }
        assert_eq!(names.len(), TABLE_5_4.len());
    }
}
