//! One run of one workload: set-up, phases, output checks, and the
//! metrics computed from them. The untraced run yields the end-to-end
//! metrics; the traced run yields the per-layer account.

use std::time::{Duration, Instant};

use crate::driver::{self, Attempt, Model, Phase, CLIENTS, GRACE};
use crate::json::Value;
use crate::spans::{self, Span, SpanKind};
use crate::stats::{self, Quartiles};
use crate::sut::{self, Client, World};
use crate::workload::{arrival_schedule, Spec};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Closed-loop time run and discarded before the first measured slice.
const WARM_UP: Duration = Duration::from_secs(1);
/// Width of the windows `tps` is the median of.
const WINDOW_S: f64 = 0.5;
/// Length of one closed or open slice; a run alternates them.
const SLICE_S: f64 = 1.0;
/// A run whose throughput windows spread wider than this is `noisy`.
const NOISY_IQR_SHARE: f64 = 0.15;

/// One reported number. `spread` is the first and third quartile of the
/// sub-windows (or repeats) the value is the median of.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<(f64, f64)>,
}

impl Metric {
    fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Self { name: name.into(), unit, value, spread: None }
    }

    fn with_spread(name: &str, unit: &'static str, q: Quartiles) -> Self {
        Self { name: name.into(), unit, value: q.median, spread: Some((q.q1, q.q3)) }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The throughput windows spread too wide to trust the run.
    pub noisy: bool,
    /// The declared metrics of this kind of run.
    pub metrics: Vec<Metric>,
    /// Context that is not a declared metric; `None` was not measurable.
    pub info: Vec<(&'static str, Option<f64>)>,
    /// Output checks that failed; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Why the first few failed transactions failed.
    pub errors: Vec<String>,
}

impl Run {
    /// Every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// `{name: {value, unit}}`, with the quartiles when `spread` is set.
    fn metrics_json(&self, spread: bool) -> Value {
        Value::obj(self.metrics.iter().map(|m| {
            let quartile = |q: fn(&(f64, f64)) -> f64| {
                m.spread.as_ref().filter(|_| spread).and_then(|s| Value::num(q(s)))
            };
            let fields = [
                ("value", Value::num(m.value)),
                ("unit", Some(Value::Str(m.unit.into()))),
                ("q1", quartile(|s| s.0)),
                ("q3", quartile(|s| s.1)),
            ];
            (m.name.clone(), Some(Value::obj(fields)))
        }))
    }

    /// The line the benchmark contract asks for on standard output.
    pub fn contract_line(&self) -> String {
        Value::obj([
            ("correct", Some(Value::Bool(self.correct()))),
            ("attempted", Value::num(self.attempted as f64)),
            ("failed", Value::num(self.failed as f64)),
            ("metrics", Some(self.metrics_json(false))),
        ])
        .render()
    }

    /// The full record `run.sh` collects into its result file.
    pub fn to_json(&self) -> Value {
        let info = self.info.iter().map(|(k, v)| (*k, v.and_then(Value::num)));
        let texts = |v: &[String]| Value::Arr(v.iter().map(|t| Value::Str(t.clone())).collect());
        Value::obj([
            ("workload", Some(Value::Str(self.workload.into()))),
            ("seed", Value::num(self.seed as f64)),
            ("trace", Value::num(f64::from(u8::from(self.traced)))),
            ("correct", Some(Value::Bool(self.correct()))),
            ("attempted", Value::num(self.attempted as f64)),
            ("failed", Value::num(self.failed as f64)),
            ("noisy", Some(Value::Bool(self.noisy))),
            ("metrics", Some(self.metrics_json(true))),
            ("info", Some(Value::obj(info))),
            ("problems", Some(texts(&self.problems))),
            ("errors", Some(texts(&self.errors))),
        ])
    }

    /// Human-readable report: every metric by name with its unit.
    pub fn print(&self) {
        let kind = if self.traced { "traced" } else { "untraced" };
        println!("== {} seed {} ({kind}) ==", self.workload, self.seed);
        for m in &self.metrics {
            let spread =
                m.spread.map(|(a, b)| format!("  [q1 {a:.4}, q3 {b:.4}]")).unwrap_or_default();
            println!("  {:<34} {:>14.4} {}{spread}", m.name, m.value, m.unit);
        }
        for (k, v) in &self.info {
            match v {
                Some(v) => println!("  ({k} = {v:.4})"),
                None => println!("  ({k} not measurable)"),
            }
        }
        println!(
            "  attempted {} failed {} correct {}{}",
            self.attempted,
            self.failed,
            self.correct(),
            if self.noisy { "  NOISY" } else { "" }
        );
        for p in &self.problems {
            println!("  FAILED CHECK: {p}");
        }
        for e in &self.errors {
            println!("  failed transaction: {e}");
        }
    }
}

/// What a run's phases add up to: attempts, failures, the balances the
/// acknowledged commits must have left, and the output checks that failed.
struct Tally {
    attempted: u64,
    failed: u64,
    model: Model,
    errors: Vec<String>,
    problems: Vec<String>,
}

impl Tally {
    fn new(spec: &Spec) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            model: Model::new(spec.accounts),
            errors: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempts.len() as u64;
        self.failed += phase.failed();
        self.model.merge(&phase.model);
        let room = 5usize.saturating_sub(self.errors.len());
        self.errors.extend(phase.errors.iter().take(room).cloned());
    }

    fn check(&mut self, when: &str, world: &World) {
        if let Err(e) = world.balances().and_then(|b| self.model.check(&b)) {
            self.problems.push(format!("{when}: {e}"));
        }
    }
}

/// A booted world and the clients that drive it.
struct Rig {
    world: World,
    clients: Vec<Client>,
}

impl Rig {
    /// Boot, the clients, and the warm-up transactions: what `setup_s`
    /// times. Returns the warm-up beside the rig.
    fn set_up(spec: &Spec, seed: u64, traced: bool) -> Result<(Rig, Phase), String> {
        let world = World::boot(spec, traced)?;
        let clients = (0..CLIENTS).map(|_| world.client()).collect::<Result<Vec<_>, _>>()?;
        let warm = driver::warm_up(&clients, spec, seed, spec.warmup_txns);
        Ok((Rig { world, clients }, warm))
    }

    fn shutdown(self) {
        drop(self.clients);
        self.world.shutdown();
    }

    /// The output checks. After the load has drained: no lock left held
    /// and every balance equal to what the acknowledged commits sum to.
    /// Then every node crashes, reboots and recovers, and the balances
    /// must still match — an acknowledged commit missing after recovery
    /// fails the run. Returns the reboot-and-recover time in ms and the
    /// records recovery scanned.
    fn verify(self, tally: &mut Tally) -> Result<(f64, usize), String> {
        drop(self.clients);
        let world = self.world;
        world.stop_disk_delays();
        let drained = Instant::now();
        while world.locked_objects() > 0 && drained.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        if world.locked_objects() > 0 {
            let held = world.locked_objects();
            tally.problems.push(format!("{held} objects still locked after the drain"));
        }
        tally.check("before the crash", &world);
        let (world, took, scanned) = world.crash_and_recover()?;
        tally.check("after crash and recovery", &world);
        world.shutdown();
        Ok((took.as_secs_f64() * 1e3, scanned))
    }
}

/// Latencies in ms of `attempts`, ascending. A failed attempt counts
/// with the longest latency its slice could have seen, so it is missing
/// from every percentile it does not reach.
fn latencies_ms<'a>(attempts: impl Iterator<Item = &'a Attempt>, penalty_ms: f64) -> Vec<f64> {
    stats::sorted(
        &attempts.map(|a| if a.ok { a.latency_ms() } else { penalty_ms }).collect::<Vec<_>>(),
    )
}

/// A latency percentile of the open slices: the median, with quartiles,
/// of the percentile taken in each slice — one stalled slice moves a
/// pooled tail percentile, not the median of the slices'.
fn open_metric(
    name: &str,
    slices: &[Phase],
    keep: impl Fn(&Attempt) -> bool,
    penalty_ms: f64,
    p: f64,
) -> Result<Metric, String> {
    let per_slice: Vec<f64> = slices
        .iter()
        .filter_map(|s| {
            let lat = latencies_ms(s.attempts.iter().filter(|a| keep(a)), penalty_ms);
            stats::percentile(&lat, p)
        })
        .collect();
    let q = Quartiles::of(&per_slice).ok_or(format!("{name}: the open slices had no sample"))?;
    Ok(Metric::with_spread(name, "ms", q))
}

fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

fn cores() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// The untraced run: set-up (repeated, for a steady `setup_s`), a
/// discarded warm-up, then rounds of one closed and one open slice, and
/// the checks. Closed and open load alternate so that both sample the
/// whole run: the host's speed drifts over seconds, and a phase that
/// sat in one half of the run would see only one side of a drift.
pub fn untraced(spec: &'static Spec, seed: u64, seconds: f64) -> Result<Run, String> {
    let load_at_start = load_average();

    let mut setups = Vec::new();
    let mut last: Option<(Rig, Phase)> = None;
    for _ in 0..SETUPS {
        if let Some((rig, _)) = last.take() {
            rig.shutdown();
        }
        let start = Instant::now();
        last = Some(Rig::set_up(spec, seed, false)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let (rig, warm) = last.expect("at least one set-up");
    let clients = &rig.clients;
    let mut tally = Tally::new(spec);
    tally.count(&warm);
    tally.count(&driver::closed(clients, spec, seed ^ 0xD15C, WARM_UP));

    let rounds = ((seconds / (2.0 * SLICE_S)) as usize).max(1);
    let slice_s = seconds / (2 * rounds) as f64;
    let (mut closed, mut open) = (Vec::new(), Vec::new());
    for round in 0..rounds as u64 {
        let seed = seed ^ (round << 32);
        closed.push(driver::closed(clients, spec, seed, Duration::from_secs_f64(slice_s)));
        let schedule = arrival_schedule(seed, spec.open_rate, slice_s);
        open.push(driver::open(clients, spec, seed, &schedule));
    }
    closed.iter().chain(&open).for_each(|phase| tally.count(phase));
    rig.verify(&mut tally)?;

    let rates: Vec<f64> = closed
        .iter()
        .flat_map(|c| {
            let ends: Vec<f64> = c.attempts.iter().filter(|a| a.ok).map(|a| a.end_s).collect();
            stats::window_rates(&ends, slice_s, WINDOW_S)
        })
        .collect();
    let tps = Quartiles::of(&rates).ok_or("a closed slice is shorter than a throughput window")?;
    let setup = Quartiles::of(&setups).expect("at least one set-up");
    let penalty_ms = (slice_s + GRACE.as_secs_f64()) * 1e3;
    let metrics = vec![
        Metric::with_spread("setup_s", "s", setup),
        Metric::with_spread("tps", "tx/s", tps),
        open_metric("p50_ms", &open, |a| !a.audit, penalty_ms, 50.0)?,
        open_metric("p95_ms", &open, |a| !a.audit, penalty_ms, 95.0)?,
        open_metric("audit_p50_ms", &open, |a| a.audit, penalty_ms, 50.0)?,
    ];

    let arrivals = || open.iter().flat_map(|o| &o.attempts);
    let transfers = latencies_ms(arrivals().filter(|a| !a.audit), penalty_ms);
    let lags = stats::sorted(&arrivals().map(Attempt::gen_lag_us).collect::<Vec<_>>());
    let backlog = open.iter().map(|o| o.elapsed_s - slice_s).fold(f64::MIN, f64::max);
    let info = vec![
        ("cores", Some(cores())),
        ("load_average_at_start", load_at_start),
        ("driver.window_iqr_share", Some(tps.iqr_share())),
        ("driver.closed_committed", Some(closed.iter().map(Phase::committed).sum::<u64>() as f64)),
        ("driver.open_transfers", Some(transfers.len() as f64)),
        ("driver.open_audits", Some(arrivals().filter(|a| a.audit).count() as f64)),
        ("driver.open_backlog_s", Some(backlog)),
        ("driver.p99_ms", stats::percentile_supported(&transfers, 99.0, 10)),
        ("driver.gen_lag_p50_us", stats::percentile(&lags, 50.0)),
        ("driver.gen_lag_p95_us", stats::percentile(&lags, 95.0)),
    ];
    Ok(Run {
        workload: spec.name,
        seed,
        traced: false,
        attempted: tally.attempted,
        failed: tally.failed,
        noisy: tps.iqr_share() > NOISY_IQR_SHARE,
        metrics,
        info,
        problems: tally.problems,
        errors: tally.errors,
    })
}

/// `(metric, counter)`: counter deltas reported per committed transaction.
const PER_TXN: [(&str, &str, &str); 17] = [
    ("kernel.msgs_per_txn", "kernel.msgs", "1/txn"),
    ("kernel.local_calls_per_txn", "kernel.local_calls", "1/txn"),
    ("cm.remote_calls_per_txn", "cm.remote_calls", "1/txn"),
    ("cm.rx_zero_copy_per_txn", "cm.rx_zero_copy", "1/txn"),
    ("cm.rx_fallback_per_txn", "cm.rx_fallback", "1/txn"),
    ("net.datagrams_per_txn", "net.datagrams", "1/txn"),
    ("wal.forces_per_txn", "wal.forces", "1/txn"),
    ("wal.records_per_txn", "wal.records", "1/txn"),
    ("wal.bytes_per_txn", "wal.bytes", "B/txn"),
    ("vm.faults_per_txn", "vm.faults", "1/txn"),
    ("vm.writebacks_per_txn", "vm.writebacks", "1/txn"),
    ("vm.evictions_per_txn", "vm.evictions", "1/txn"),
    ("storage.ios_per_txn", "storage.ios", "1/txn"),
    ("lock.waits_per_txn", "lock.waits", "1/txn"),
    ("lock.wakeups_per_txn", "lock.wakeups", "1/txn"),
    ("lock.spurious_wakeups_per_txn", "lock.spurious", "1/txn"),
    ("tm.quorum_commits_per_txn", "tm.quorum_commits", "1/txn"),
];

/// Span metrics: time per committed transaction inside each kind of call
/// (zero where the workload never makes it), medians of the calls every
/// transaction makes, and the driver's own share.
fn span_metrics(clients: &[Vec<Span>], committed: f64, out: &mut Vec<Metric>) -> f64 {
    let all = || clients.iter().flatten();
    for kind in SpanKind::CHILDREN {
        // A fold from 0.0: `sum` of no floats is -0.0.
        let total = all().filter(|s| s.kind == kind).fold(0.0, |sum, s| sum + s.dur_us());
        out.push(Metric::new(&format!("{}_us_per_txn", kind.name()), "us/txn", total / committed));
    }
    for kind in [SpanKind::Begin, SpanKind::EndTransfer, SpanKind::EndAudit] {
        let durs =
            stats::sorted(&all().filter(|s| s.kind == kind).map(Span::dur_us).collect::<Vec<_>>());
        if let Some(p50) = stats::percentile(&durs, 50.0) {
            out.push(Metric::new(&format!("{}_p50_us", kind.name()), "us", p50));
        }
    }
    let selfs: Vec<f64> = clients.iter().flat_map(|c| spans::self_times_us(c)).collect();
    if let Some(p50) = stats::percentile(&stats::sorted(&selfs), 50.0) {
        out.push(Metric::new("driver.self_p50_us", "us", p50));
    }
    let txns: Vec<f64> = all().filter(|s| s.kind == SpanKind::Txn).map(Span::dur_us).collect();
    stats::mean(&txns).unwrap_or(f64::NAN)
}

/// The paper's Table 5-4 for this run: primitive counts per transaction
/// priced by the probes plus the delays the workload injects. A plain
/// sum, as in the paper — rounds that overlap (parallel prepares) make
/// it an upper bound, so the unattributed share can be negative.
fn predicted_us(spec: &Spec, per_txn: impl Fn(&str) -> f64, price: impl Fn(&str) -> f64) -> f64 {
    let (net, force, disk) =
        (spec.net_delay_us as f64, spec.force_delay_us as f64, spec.disk_delay_us as f64);
    price("probe.tm.empty_txn_us")
        + per_txn("kernel.local_calls") * price("probe.servers.local_call_us")
        + per_txn("cm.remote_calls") * (price("probe.cm.remote_call_us") + 2.0 * net)
        + per_txn("net.datagrams") * (price("probe.net.datagram_us") + net)
        + per_txn("wal.forces") * (price("probe.wal.force_us") + force)
        + per_txn("vm.faults") * price("probe.vm.fault_us")
        + per_txn("storage.ios") * disk
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The traced run: layer probes, an untraced closed loop for the tracing
/// overhead, then a closed loop with the product's trace and the
/// benchmark's spans on, and the checks. When `trace_out` is given the
/// spans are written there as JSON lines.
pub fn traced(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace_out: Option<&std::path::Path>,
) -> Result<Run, String> {
    let mut tally = Tally::new(spec);
    let probes = sut::probes(Duration::from_secs_f64(seconds / 4.0))?;

    let (rig, warm) = Rig::set_up(spec, seed, false)?;
    tally.count(&warm);
    let plain = driver::closed(&rig.clients, spec, seed, Duration::from_secs_f64(seconds / 4.0));
    tally.count(&plain);
    tally.check("untraced comparison loop", &rig.world);
    rig.shutdown();
    let plain_tps = plain.committed() as f64 / plain.elapsed_s;

    // A fresh world on fresh storage: its balances start from zero again.
    tally.model = Model::new(spec.accounts);
    let (rig, warm) = Rig::set_up(spec, seed, true)?;
    tally.count(&warm);
    let before = rig.world.counters();
    let (phase, client_spans) =
        driver::closed_traced(&rig.clients, spec, seed, Duration::from_secs_f64(seconds / 2.0));
    let counters = sut::counters_since(&rig.world.counters(), &before);
    let intervals = rig.world.trace_intervals();
    tally.count(&phase);
    let (recover_ms, recover_records) = rig.verify(&mut tally)?;
    if let Some(path) = trace_out {
        spans::write_jsonl(path, &client_spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let committed = phase.committed().max(1) as f64;
    let per_txn = |counter: &str| counters.get(counter).copied().unwrap_or(0) as f64 / committed;
    let mut metrics: Vec<Metric> = PER_TXN
        .iter()
        .map(|(name, counter, unit)| Metric::new(name, unit, per_txn(counter)))
        .collect();
    let accesses = per_txn("vm.hits") + per_txn("vm.faults");
    metrics.push(Metric::new("vm.hit_ratio", "ratio", per_txn("vm.hits") / accesses));
    metrics.push(Metric::new("storage.io_us_per_txn", "us/txn", per_txn("storage.io_ns") / 1e3));

    let traced_txns = intervals.txns.max(1) as f64;
    for (name, total) in [
        ("lock.wait_us_per_txn", intervals.lock_wait_us),
        ("wal.force_wait_us_per_txn", intervals.force_wait_us),
        ("tm.prepare_round_us_per_txn", intervals.prepare_round_us),
        ("tm.decision_round_us_per_txn", intervals.decision_round_us),
    ] {
        metrics.push(Metric::new(name, "us/txn", total / traced_txns));
    }
    metrics.push(Metric::new("obs.trace_txns", "count", intervals.txns as f64));
    metrics.push(Metric::new("obs.trace_dropped", "count", intervals.dropped as f64));
    let traced_tps = phase.committed() as f64 / phase.elapsed_s;
    metrics.push(Metric::new("obs.trace_overhead_share", "ratio", 1.0 - traced_tps / plain_tps));

    let measured_us = span_metrics(&client_spans, committed, &mut metrics);
    metrics.extend(probes.iter().map(|(name, us)| Metric::new(name, "us", *us)));
    let price =
        |name: &str| probes.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, us)| *us);
    let predicted = predicted_us(spec, per_txn, price);
    metrics.push(Metric::new("model.measured_us", "us", measured_us));
    metrics.push(Metric::new("model.predicted_us", "us", predicted));
    metrics.push(Metric::new("model.unattributed_share", "ratio", 1.0 - predicted / measured_us));

    metrics.push(Metric::new("rm.recover_ms", "ms", recover_ms));
    metrics.push(Metric::new("rm.recover_records", "count", recover_records as f64));
    metrics.push(Metric::new("core.rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN)));

    let info = vec![
        ("cores", Some(cores())),
        ("driver.untraced_tps", Some(plain_tps)),
        ("driver.traced_tps", Some(traced_tps)),
    ];
    Ok(Run {
        workload: spec.name,
        seed,
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        noisy: false,
        metrics,
        info,
        problems: tally.problems,
        errors: tally.errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(metrics: Vec<Metric>, info: Vec<(&'static str, Option<f64>)>) -> Run {
        Run {
            workload: "bank_local",
            seed: 1,
            traced: false,
            attempted: 10,
            failed: 0,
            noisy: false,
            metrics,
            info,
            problems: Vec::new(),
            errors: Vec::new(),
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let run = run_with(vec![Metric::new("tps", "tx/s", 1234.5)], vec![("cores", Some(2.0))]);
        assert_eq!(
            run.contract_line(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"tps":{"value":1234.5,"unit":"tx/s"}}}"#
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut run = run_with(vec![Metric::new("tps", "tx/s", 1.0)], Vec::new());
        run.errors.push("lock time-out".into());
        assert!(run.correct(), "a failed transaction is counted, not a wrong output");
        let model = Model { expected: vec![0, 0] };
        run.problems.extend(model.check(&[1, 0]).err());
        assert!(!run.correct());
        assert!(run.contract_line().starts_with(r#"{"correct":false,"#));
    }

    #[test]
    fn unmeasured_info_and_spread_are_absent_from_the_record() {
        let run = run_with(
            vec![Metric::new("p50_ms", "ms", 0.25)],
            vec![("driver.p99_ms", None), ("cores", Some(2.0))],
        );
        let json = run.to_json();
        assert!(json.get("info").unwrap().get("driver.p99_ms").is_none());
        assert_eq!(json.get("info").unwrap().get("cores").unwrap().as_f64(), Some(2.0));
        let p50 = json.get("metrics").unwrap().get("p50_ms").unwrap();
        assert!(p50.get("q1").is_none() && p50.get("q3").is_none());
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn failed_attempts_push_the_percentiles_up() {
        let attempt = |ok| Attempt { due_s: 0.0, start_s: 0.0, end_s: 0.001, audit: false, ok };
        let (good, bad) = (attempt(true), attempt(false));
        let half_failed = [good, bad, good, bad];
        let lat = latencies_ms(half_failed.iter(), 5000.0);
        assert_eq!(stats::percentile(&lat, 50.0), Some(1.0));
        assert_eq!(stats::percentile(&lat, 75.0), Some(5000.0));
    }

    #[test]
    fn prediction_sums_counts_times_prices_plus_injected_delays() {
        let spec = crate::workload::spec("bank_2pc").unwrap();
        let per_txn = |c: &str| match c {
            "cm.remote_calls" => 2.0,
            "net.datagrams" => 8.0,
            "wal.forces" => 5.0,
            _ => 0.0,
        };
        let price = |_: &str| 10.0;
        // 10 + 2*(10+400) + 8*(10+200) + 5*(10+500)
        assert_eq!(predicted_us(spec, per_txn, price), 10.0 + 820.0 + 1680.0 + 2550.0);
    }
}
