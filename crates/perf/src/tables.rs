//! ASCII renderers that regenerate every table of the paper's §5.

use std::collections::BTreeMap;

use tabs_kernel::PrimitiveOp;

use crate::bench::{BenchResult, CommitClass};
use crate::cost::{ACHIEVABLE, PERQ_T2};
use crate::model::Projection;
use crate::paper;

fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        String::new()
    } else if (v - v.round()).abs() < 0.05 {
        format!("{:.0}", v)
    } else {
        format!("{:.2}", v)
    }
}

/// Table 5-1: primitive operation times.
pub fn table_5_1() -> String {
    let mut out = String::new();
    out.push_str("Table 5-1: Primitive Operation Times (milliseconds)\n");
    out.push_str(&format!("{:<32} {:>12}\n", "Primitive", "Perq T2 (ms)"));
    for op in PrimitiveOp::ALL {
        out.push_str(&format!("{:<32} {:>12}\n", op.label(), fmt_f(PERQ_T2.cost(op))));
    }
    out
}

/// Table 5-5: achievable primitive operation times.
pub fn table_5_5() -> String {
    let mut out = String::new();
    out.push_str("Table 5-5: Achievable Primitive Operation Times (milliseconds)\n");
    out.push_str(&format!("{:<32} {:>10} {:>12}\n", "Primitive", "Perq (ms)", "Achievable"));
    for op in PrimitiveOp::ALL {
        out.push_str(&format!(
            "{:<32} {:>10} {:>12}\n",
            op.label(),
            fmt_f(PERQ_T2.cost(op)),
            fmt_f(ACHIEVABLE.cost(op))
        ));
    }
    out
}

/// Table 5-2: pre-commit primitive counts — measured from the instrumented
/// run, with the paper's published counts alongside.
pub fn table_5_2(results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("Table 5-2: Pre-Commit Primitive Counts (per transaction)\n");
    out.push_str(
        "measured = this implementation; (paper) = published counts, ? = illegible scan\n\n",
    );
    out.push_str(&format!(
        "{:<34} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}\n",
        "Benchmark", "DS Call", "Rem DS", "Small Msg", "Large Msg", "Seq Read", "Rand I/O"
    ));
    for r in results {
        let paper_row = paper::TABLE_5_2.iter().find(|p| p.name == r.name);
        let m = r.pre_counts;
        let cols = [
            m[PrimitiveOp::DataServerCall as usize],
            m[PrimitiveOp::InterNodeDataServerCall as usize],
            m[PrimitiveOp::SmallContiguousMessage as usize],
            m[PrimitiveOp::LargeContiguousMessage as usize],
            m[PrimitiveOp::SequentialRead as usize],
            m[PrimitiveOp::RandomAccessPagedIo as usize],
        ];
        let mut line = format!("{:<34}", r.name);
        for (i, c) in cols.iter().enumerate() {
            let p = paper_row.and_then(|pr| pr.counts[i]);
            let cell = match p {
                Some(pv) => format!("{}({})", fmt_f(*c), fmt_f(pv)),
                None => fmt_f(*c),
            };
            line.push_str(&format!(" {cell:>11}"));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Table 5-3: commit primitive counts per commit-protocol class.
pub fn table_5_3(results: &[BenchResult]) -> String {
    // Representative benchmark per commit class: the simplest one.
    let mut per_class: BTreeMap<&'static str, [f64; 9]> = BTreeMap::new();
    let order = [
        CommitClass::OneNodeRead,
        CommitClass::OneNodeWrite,
        CommitClass::TwoNodeRead,
        CommitClass::TwoNodeWrite,
        CommitClass::ThreeNodeRead,
        CommitClass::ThreeNodeWrite,
    ];
    for class in order {
        if let Some(r) = results
            .iter()
            .find(|r| r.commit_class == class && !r.name.contains('5') && !r.name.contains("Seq"))
        {
            per_class.insert(class.label(), r.commit_counts);
        }
    }
    let mut out = String::new();
    out.push_str("Table 5-3: Commit Primitive Counts (per transaction)\n");
    out.push_str(
        "measured = this implementation; (paper) = published counts, ? = illegible scan\n\n",
    );
    out.push_str(&format!(
        "{:<22} {:>11} {:>11} {:>11} {:>11} {:>11}\n",
        "Commit Protocol", "Datagram", "Small Msg", "Large Msg", "Pointer", "Stable Wr"
    ));
    for class in order {
        let label = class.label();
        let Some(m) = per_class.get(label) else { continue };
        let paper_row = paper::TABLE_5_3.iter().find(|p| p.name == label);
        let cols = [
            m[PrimitiveOp::Datagram as usize],
            m[PrimitiveOp::SmallContiguousMessage as usize],
            m[PrimitiveOp::LargeContiguousMessage as usize],
            m[PrimitiveOp::PointerMessage as usize],
            m[PrimitiveOp::StableStorageWrite as usize],
        ];
        let mut line = format!("{label:<22}");
        for (i, c) in cols.iter().enumerate() {
            let p = paper_row.and_then(|pr| pr.counts[i]);
            let cell = match p {
                Some(pv) => format!("{}({})", fmt_f(*c), fmt_f(pv)),
                None => fmt_f(*c),
            };
            line.push_str(&format!(" {cell:>11}"));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Table 5-4: benchmark times — our measured microseconds, our
/// model-predicted Perq milliseconds (counts × Table 5-1), the paper's
/// published columns, and the two projections applied to our counts.
pub fn table_5_4(results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("Table 5-4: Benchmark Times\n");
    out.push_str("ours-us    = measured elapsed on this implementation (microseconds)\n");
    out.push_str("pred-ours  = our measured counts x Table 5-1 Perq times (ms)\n");
    out.push_str("pred/elaps = the paper's published predicted / elapsed times (ms)\n");
    out.push_str("impr/new   = projections from our counts (ms) vs the paper's (ms)\n\n");
    out.push_str(&format!(
        "{:<34} {:>8} {:>9} {:>9} {:>9} {:>13} {:>13}\n",
        "Benchmark", "ours-us", "pred-ours", "pred", "elapsed", "improved", "new-prims"
    ));
    for r in results {
        let p = Projection::of(r);
        let pr = paper::TABLE_5_4.iter().find(|x| x.name == r.name);
        let (ppred, pelapsed, pimpr, pnew) = pr
            .map(|x| (x.predicted, x.elapsed, x.improved, x.new_primitives))
            .unwrap_or((0.0, 0.0, 0.0, 0.0));
        out.push_str(&format!(
            "{:<34} {:>8.0} {:>9.0} {:>9.0} {:>9.0} {:>6.0}({:>4.0}) {:>6.0}({:>4.0})\n",
            r.name,
            r.elapsed_us,
            p.predicted_ms,
            ppred,
            pelapsed,
            p.improved_ms,
            pimpr,
            p.new_primitives_ms,
            pnew,
        ));
    }
    out
}

/// Table 5-4's priced columns alone: our counts × Table 5-1 times
/// (`pred-ours`), the improved-architecture counts × Table 5-1 times
/// (`improved`) and × Table 5-5 times (`new-prims`). Counts are
/// deterministic at fixed iterations, so this rendering is too; `ours-us`,
/// a wall time, is left out.
pub fn table_5_4_priced(results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("Table 5-4, priced columns (ms): our counts x Table 5-1 (pred-ours),\n");
    out.push_str(
        "improved-architecture counts x Table 5-1 (improved) and x Table 5-5 (new-prims)\n\n",
    );
    out.push_str(&format!(
        "{:<34} {:>9} {:>9} {:>9}\n",
        "Benchmark", "pred-ours", "improved", "new-prims"
    ));
    for r in results {
        let p = Projection::of(r);
        out.push_str(&format!(
            "{:<34} {:>9.1} {:>9.1} {:>9.1}\n",
            r.name, p.predicted_ms, p.improved_ms, p.new_primitives_ms
        ));
    }
    out
}

/// Shape comparison: the latency ratios that must reproduce regardless of
/// absolute hardware speed.
pub fn shape_report(results: &[BenchResult]) -> String {
    let get = |name: &str| results.iter().find(|r| r.name == name);
    let mut out = String::new();
    out.push_str("Shape comparison (ratios; paper from Table 5-4 elapsed, ours from both\n");
    out.push_str("measured microseconds and modelled milliseconds)\n\n");
    out.push_str(&format!("{:<44} {:>7} {:>9} {:>9}\n", "Ratio", "paper", "ours-us", "ours-ms"));
    let mut row = |label: &str, a: &str, b: &str, paper_ratio: f64| {
        if let (Some(x), Some(y)) = (get(a), get(b)) {
            let us = x.elapsed_us / y.elapsed_us;
            let ms = Projection::of(x).predicted_ms / Projection::of(y).predicted_ms;
            out.push_str(&format!("{:<44} {:>7.2} {:>9.2} {:>9.2}\n", label, paper_ratio, us, ms));
        }
    };
    row(
        "write / read (local, no paging)",
        "1 Local Write, No Paging",
        "1 Local Read, No Paging",
        247.0 / 110.0,
    );
    row(
        "5 reads / 1 read (local)",
        "5 Local Read, No Paging",
        "1 Local Read, No Paging",
        217.0 / 110.0,
    );
    row(
        "5 writes / 1 write (local)",
        "5 Local Write, No Paging",
        "1 Local Write, No Paging",
        467.0 / 247.0,
    );
    row(
        "remote read / local read",
        "1 Lcl Rd, 1 Rem Rd, No Paging",
        "1 Local Read, No Paging",
        469.0 / 110.0,
    );
    row(
        "remote write / local write",
        "1 Lcl Wr, 1 Rem Wr, No Paging",
        "1 Local Write, No Paging",
        989.0 / 247.0,
    );
    row(
        "3-node read / 2-node read",
        "1 Lcl Rd, 1 Rem Rd, 1 Rem Rd, NP",
        "1 Lcl Rd, 1 Rem Rd, No Paging",
        621.0 / 469.0,
    );
    row(
        "3-node write / 2-node write",
        "1 Lcl Wr, 1 Rem Wr, 1 Rem Wr, NP",
        "1 Lcl Wr, 1 Rem Wr, No Paging",
        1200.0 / 989.0,
    );
    row(
        "seq-paging read / resident read",
        "1 Local Read, Seq. Paging",
        "1 Local Read, No Paging",
        126.0 / 110.0,
    );
    row(
        "random-paging read / resident read",
        "1 Local Read, Random Paging",
        "1 Local Read, No Paging",
        140.0 / 110.0,
    );
    out
}

/// The §5.2 accounting narrative, recomputed from our counts.
pub fn accounting(results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("Latency accounting (the Section 5.2 narrative, over our counts)\n\n");
    if let (Some(r), Some(w)) = (
        results.iter().find(|r| r.name == "1 Local Read, No Paging"),
        results.iter().find(|r| r.name == "1 Local Write, No Paging"),
    ) {
        let pr = Projection::of(r).predicted_ms;
        let pw = Projection::of(w).predicted_ms;
        out.push_str(&format!(
            "modelled simple read:  {:.1} ms   (paper predicted 53, measured 110)\n",
            pr
        ));
        out.push_str(&format!(
            "modelled simple write: {:.1} ms   (paper predicted 156, measured 247)\n",
            pw
        ));
        out.push_str(&format!(
            "write - read difference: {:.1} ms  (paper: 137 ms, of which 78 ms is the\n",
            pw - pr
        ));
        let stable = w.total_counts()[PrimitiveOp::StableStorageWrite as usize]
            * PERQ_T2.cost(PrimitiveOp::StableStorageWrite);
        out.push_str(&format!(
            "stable-storage force; ours attributes {:.1} ms to the force)\n",
            stable
        ));
    }
    out.push('\n');
    out.push_str("Section 7 compositions (modelled):\n");
    for (label, ms) in crate::model::conclusions_model() {
        out.push_str(&format!("  {:<48} {:>8.0} ms\n", label, ms));
    }
    out
}

/// Every table in one report.
pub fn full_report(results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str(&table_5_1());
    out.push('\n');
    out.push_str(&table_5_2(results));
    out.push('\n');
    out.push_str(&table_5_3(results));
    out.push('\n');
    out.push_str(&table_5_4(results));
    out.push('\n');
    out.push_str(&table_5_5());
    out.push('\n');
    out.push_str(&shape_report(results));
    out.push('\n');
    out.push_str(&accounting(results));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = table_5_1();
        assert!(t1.contains("Data Server Call"));
        assert!(t1.contains("26.1"));
        let t5 = table_5_5();
        assert!(t5.contains("Achievable"));
        assert!(t5.contains("2.5"));
    }

    #[test]
    fn dynamic_tables_render_from_fake_results() {
        let mut counts = [0.0; 9];
        counts[PrimitiveOp::DataServerCall as usize] = 1.0;
        counts[PrimitiveOp::SmallContiguousMessage as usize] = 4.0;
        let fake: Vec<BenchResult> = crate::bench::benchmarks()
            .iter()
            .map(|b| BenchResult {
                name: b.name,
                commit_class: b.commit_class,
                iters: 1,
                elapsed_us: 100.0,
                pre_counts: counts,
                commit_counts: [0.0; 9],
            })
            .collect();
        let report = full_report(&fake);
        assert!(report.contains("Table 5-2"));
        assert!(report.contains("Table 5-3"));
        assert!(report.contains("Table 5-4"));
        assert!(report.contains("1 Local Read, No Paging"));
        assert!(report.contains("Shape comparison"));
    }
}
