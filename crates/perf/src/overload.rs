//! Overload bench: admission control and end-to-end deadlines under a
//! 3× capacity spike, gated on a *metastability oracle*.
//!
//! Metastable failure is the overload signature this subsystem exists to
//! rule out: a load spike fills the system with work that can no longer
//! finish in time, every client retries, and goodput stays collapsed even
//! after the spike passes because all capacity services doomed work. The
//! defenses under test are the admission gate (shed *new* transactions
//! before they touch locks or the log) and end-to-end deadlines (stop
//! spending capacity on work whose client has already given up).
//!
//! The bench runs one cluster through three phases:
//!
//! 1. **saturate** — closed-loop clients measure the saturation goodput:
//!    what the node sustains when offered exactly what it can admit.
//! 2. **spike** — an open-loop arrival schedule at 3× the measured
//!    saturation rate. Arrivals the admission gate sheds fail fast and
//!    count as shed, not as latency.
//! 3. **recover** — the offered rate drops to half of saturation; a
//!    system free of metastable backlog re-converges to serving it.
//!
//! The oracle (full-length runs; `--quick` is liveness only):
//!
//! - spike goodput ≥ 70% of saturation goodput — shedding keeps admitted
//!   work productive instead of thrashing;
//! - p99 latency of *admitted* (committed) work during the spike stays
//!   within the end-to-end budget — overload queueing is pushed to the
//!   rejected arrivals, never the admitted ones;
//! - recovery goodput ≥ 70% of the offered post-spike rate — no
//!   metastable residue;
//! - the spike actually engaged the defenses (`admission.shed` > 0), and
//!   the bank balance is conserved across all three phases.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tabs_app_lib::{AppError, AppHandle};
use tabs_core::{Cluster, ClusterConfig, DeadlinePolicy, Node, NodeId, Tid};
use tabs_proto::ServerError;
use tabs_servers::{IntArrayClient, IntArrayServer};

/// Bank accounts (index-ordered transfers: contention without deadlock
/// noise, so aborts during the spike are attributable to the defenses).
const ACCOUNTS: u64 = 64;

/// Accounts touched per transfer (a contiguous, index-ordered block with
/// alternating debits and credits).
const SPAN: u64 = 2;

/// Starting balance of every account.
const INITIAL_BALANCE: i64 = 100;

/// Closed-loop clients in the saturation phase; also the admission limit,
/// so calibration itself runs unshedded.
const CLIENTS: u32 = 8;

/// Open-loop worker pool for the spike/recovery phases. Above the
/// admission limit so the gate (not the pool) is what bounds in-flight
/// work, but not so far above it that client-side thread thrash, rather
/// than overload, dominates the measurement.
const WORKERS: u32 = 12;

/// End-to-end budget per transaction during the bench.
const BUDGET: Duration = Duration::from_millis(250);

/// Drain window between phases: in-flight work from the previous phase
/// (and the log maintenance it triggered) finishes before the next
/// window opens, so each phase measures its own regime. The oracle's
/// recovery claim is about the post-spike steady state, not the
/// transition instant.
const SETTLE: Duration = Duration::from_millis(250);

/// Full-length oracle attempts: the gates bound a timing property
/// measured on whatever host runs the bench, so one descheduled run is
/// retried on a fresh cluster rather than reported as metastability.
/// Liveness and conservation failures are never retried.
const ORACLE_ATTEMPTS: u64 = 3;

/// How one arrival ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Committed within budget; carries the service latency.
    Committed,
    /// Rejected by the admission gate before touching any object.
    Shed,
    /// Rejected (or aborted) because the end-to-end deadline passed.
    Expired,
    /// Any other abort (lock time-out, contention victim).
    Aborted,
}

/// One attempt's fate: like [`Outcome`] but a shed attempt still carries
/// the server's backoff hint, which a well-behaved client honors.
enum Attempt {
    Committed,
    Shed { retry_after_hint: Duration },
    Expired,
    Aborted,
}

/// One phase's measurements.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Phase label ("saturate", "spike", "recover").
    pub phase: &'static str,
    /// Driver label ("closed/8", "open/1200").
    pub mode: String,
    /// Committed arrivals.
    pub committed: u64,
    /// Arrivals shed by the admission gate.
    pub shed: u64,
    /// Arrivals rejected or aborted past their deadline.
    pub expired: u64,
    /// Other aborts.
    pub aborted: u64,
    /// Service latencies of committed arrivals, sorted ascending.
    pub latencies: Vec<Duration>,
    /// Wall-clock window.
    pub elapsed: Duration,
    /// Offered rate for open-loop phases (0 for closed loop).
    pub offered_tps: u32,
}

impl PhaseResult {
    /// Committed transactions per second.
    pub fn goodput(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The `p`-th percentile (0–100) of committed-work latency.
    pub fn percentile(&self, p: u32) -> Duration {
        crate::percentile(&self.latencies, p)
    }
}

/// A complete three-phase overload run.
#[derive(Debug, Clone)]
pub struct OverloadRun {
    /// Saturation calibration.
    pub saturate: PhaseResult,
    /// The 3× spike.
    pub spike: PhaseResult,
    /// Post-spike recovery.
    pub recover: PhaseResult,
    /// `admission.shed` counted by the node over the whole run.
    pub shed_counter: u64,
    /// `deadline.expired` counted by the node over the whole run.
    pub expired_counter: u64,
    /// Bank balance conserved after all three phases.
    pub invariant_ok: bool,
}

struct World {
    nodes: Vec<Node>,
    cluster: Arc<Cluster>,
    app: AppHandle,
    client: IntArrayClient,
    _keep: Vec<Box<dyn std::any::Any>>,
}

fn boot(admission_limit: usize) -> World {
    let cluster = Cluster::with_config(
        ClusterConfig::default()
            .deadlines(DeadlinePolicy::with_budget(BUDGET))
            .admission_limit(admission_limit),
    );
    let node = cluster.boot_node(NodeId(1));
    let arr = IntArrayServer::spawn(&node, "bank", ACCOUNTS).expect("bank array");
    node.recover().expect("recover bank node");
    let app = node.app();
    let client = IntArrayClient::new(app.clone(), arr.send_right());
    app.run(|t| {
        for a in 0..ACCOUNTS {
            client.set(t, a, INITIAL_BALANCE)?;
        }
        Ok(())
    })
    .expect("seed accounts");
    World { nodes: vec![node], cluster, app, client, _keep: vec![Box::new(arr)] }
}

fn classify(result: Result<bool, AppError>) -> Attempt {
    match result {
        Ok(true) => Attempt::Committed,
        // The TM's commit-time deadline gate reports "aborted", but a
        // closed-loop phase never runs past budget, so blame is exact
        // enough for the phase tallies; the counters are authoritative.
        Ok(false) => Attempt::Aborted,
        Err(AppError::Server(ServerError::Overloaded { retry_after_hint })) => {
            Attempt::Shed { retry_after_hint }
        }
        Err(AppError::Server(ServerError::DeadlineExceeded)) => Attempt::Expired,
        Err(_) => Attempt::Aborted,
    }
}

/// One index-ordered block-transfer attempt, end to end: alternating
/// debits and credits over [`SPAN`] consecutive accounts (sum zero, so
/// conservation holds), acquired in ascending index order (deadlock
/// free).
fn one_attempt(app: &AppHandle, client: &IntArrayClient, rng: &mut StdRng) -> Attempt {
    let base = rng.gen_range(0..ACCOUNTS - SPAN + 1);
    let t = match app.begin_transaction(Tid::NULL) {
        Ok(t) => t,
        Err(e) => return classify(Err(e)),
    };
    let body = (0..SPAN).try_for_each(|i| {
        let delta = if i % 2 == 0 { -1 } else { 1 };
        client.add(t, base + i, delta).map(|_| ())
    });
    match body {
        Ok(()) => classify(app.end_transaction(t).map(|o| o.is_committed())),
        Err(e) => {
            let _ = app.abort_transaction(t);
            classify(Err(e))
        }
    }
}

/// One *arrival*: a well-behaved client whose end-to-end budget runs
/// from `give_up - BUDGET` — for open-loop phases, the *scheduled*
/// arrival, so work the backlog has already doomed is dropped for free
/// instead of serviced uselessly. Within budget, the client honors the
/// server's `retry_after_hint` on a shed, pacing its retries until an
/// attempt is admitted or time runs out. Returns the arrival's outcome
/// and the latency of its *final attempt* — the service time of admitted
/// work, which is what the metastability oracle bounds (pacing delay
/// belongs to the rejected attempts, not the admitted one).
fn one_arrival(
    app: &AppHandle,
    client: &IntArrayClient,
    rng: &mut StdRng,
    give_up: Instant,
    muzzle: &mut Instant,
) -> (Outcome, Duration) {
    loop {
        let t0 = Instant::now();
        if t0 >= give_up {
            // Too late to even try: the client has already given up.
            return (Outcome::Expired, Duration::ZERO);
        }
        if t0 < *muzzle {
            // A recent Overloaded hint still applies: the circuit is
            // open, so this arrival is turned away client-side without
            // costing the server a rejection round-trip. It re-closes
            // when the hint lapses (the next arrival probes).
            if *muzzle >= give_up {
                return (Outcome::Shed, Duration::ZERO);
            }
            std::thread::sleep(*muzzle - t0);
            continue;
        }
        match one_attempt(app, client, rng) {
            Attempt::Committed => return (Outcome::Committed, t0.elapsed()),
            Attempt::Expired => return (Outcome::Expired, t0.elapsed()),
            Attempt::Aborted => return (Outcome::Aborted, t0.elapsed()),
            Attempt::Shed { retry_after_hint } => {
                // Honor the hint not just for this arrival but for every
                // arrival this client issues until it lapses.
                *muzzle = Instant::now() + retry_after_hint;
                if *muzzle >= give_up {
                    return (Outcome::Shed, t0.elapsed());
                }
                std::thread::sleep(retry_after_hint);
            }
        }
    }
}

#[derive(Default)]
struct Tally {
    committed: u64,
    shed: u64,
    expired: u64,
    aborted: u64,
    latencies: Vec<Duration>,
}

impl Tally {
    fn record(&mut self, outcome: Outcome, latency: Duration) {
        match outcome {
            Outcome::Committed => {
                self.committed += 1;
                self.latencies.push(latency);
            }
            Outcome::Shed => self.shed += 1,
            Outcome::Expired => self.expired += 1,
            Outcome::Aborted => self.aborted += 1,
        }
    }
}

fn fold(
    phase: &'static str,
    mode: String,
    offered: u32,
    parts: Vec<Tally>,
    elapsed: Duration,
) -> PhaseResult {
    let mut r = PhaseResult {
        phase,
        mode,
        committed: 0,
        shed: 0,
        expired: 0,
        aborted: 0,
        latencies: Vec::new(),
        elapsed,
        offered_tps: offered,
    };
    for t in parts {
        r.committed += t.committed;
        r.shed += t.shed;
        r.expired += t.expired;
        r.aborted += t.aborted;
        r.latencies.extend(t.latencies);
    }
    r.latencies.sort();
    r
}

fn rng_for(seed: u64, thread: u32) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(thread) + 1))
}

/// Closed-loop phase: each client issues its next transfer as soon as the
/// previous completes.
fn drive_closed(world: &World, duration: Duration, seed: u64) -> PhaseResult {
    let start = Instant::now();
    let deadline = start + duration;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let app = world.app.clone();
            let client = world.client.clone();
            std::thread::spawn(move || {
                let mut rng = rng_for(seed, i);
                let mut tally = Tally::default();
                let mut muzzle = Instant::now();
                while Instant::now() < deadline {
                    let give_up = Instant::now() + BUDGET;
                    let (outcome, latency) =
                        one_arrival(&app, &client, &mut rng, give_up, &mut muzzle);
                    tally.record(outcome, latency);
                }
                tally
            })
        })
        .collect();
    let parts = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
    fold("saturate", format!("closed/{CLIENTS}"), 0, parts, start.elapsed())
}

/// Open-loop phase: arrivals on a fixed schedule at `rate_tps`, served by
/// a worker pool. Latency is service time of admitted work (issue to
/// commit), not queueing delay of the schedule — the oracle's claim is
/// about what happens to work the system *accepts*.
fn drive_open(
    world: &World,
    phase: &'static str,
    rate_tps: u32,
    duration: Duration,
    seed: u64,
) -> PhaseResult {
    let interval = Duration::from_secs_f64(1.0 / f64::from(rate_tps.max(1)));
    let next = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..WORKERS)
        .map(|i| {
            let app = world.app.clone();
            let client = world.client.clone();
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut rng = rng_for(seed, i);
                let mut tally = Tally::default();
                let mut muzzle = Instant::now();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let offset = interval.mul_f64(idx as f64);
                    if offset >= duration {
                        break;
                    }
                    let arrival = start + offset;
                    let now = Instant::now();
                    if arrival > now {
                        std::thread::sleep(arrival - now);
                    }
                    // The budget runs from the scheduled arrival: backlog
                    // eats into it, and hopelessly late work is dropped.
                    let (outcome, latency) =
                        one_arrival(&app, &client, &mut rng, arrival + BUDGET, &mut muzzle);
                    tally.record(outcome, latency);
                }
                tally
            })
        })
        .collect();
    let parts = handles.into_iter().map(|h| h.join().expect("worker thread")).collect();
    fold(phase, format!("open/{rate_tps}"), rate_tps, parts, start.elapsed())
}

/// Runs the three-phase overload scenario on one cluster.
pub fn run(phase_duration: Duration, seed: u64) -> OverloadRun {
    let world = boot(CLIENTS as usize);
    let metrics_before = world.cluster.metrics(NodeId(1)).snapshot();

    let saturate = drive_closed(&world, phase_duration, seed);
    std::thread::sleep(SETTLE);
    let spike_rate = (saturate.goodput() * 3.0).ceil().max(50.0) as u32;
    let spike = drive_open(&world, "spike", spike_rate, phase_duration, seed.wrapping_add(1));
    std::thread::sleep(SETTLE);
    let recover_rate = (saturate.goodput() / 2.0).ceil().max(10.0) as u32;
    let recover = drive_open(&world, "recover", recover_rate, phase_duration, seed.wrapping_add(2));

    let metrics = world.cluster.metrics(NodeId(1)).snapshot();
    let shed_counter = metrics.counter("admission.shed") - metrics_before.counter("admission.shed");
    let expired_counter =
        metrics.counter("deadline.expired") - metrics_before.counter("deadline.expired");

    let invariant_ok = world
        .app
        .run_with_retries(5, |t| {
            let mut sum = 0i64;
            for a in 0..ACCOUNTS {
                sum += world.client.get(t, a)?;
            }
            Ok(sum)
        })
        .map(|sum| sum == ACCOUNTS as i64 * INITIAL_BALANCE)
        .unwrap_or(false);

    for n in world.nodes {
        n.shutdown();
    }
    OverloadRun { saturate, spike, recover, shed_counter, expired_counter, invariant_ok }
}

/// ASCII table over the three phases.
pub fn render(run: &OverloadRun) -> String {
    let mut out = String::new();
    out.push_str("Overload: admission control + end-to-end deadlines\n");
    out.push_str(
        "phase      mode        goodput   p50 lat   p99 lat   commits     shed  expired   aborts\n",
    );
    out.push_str(
        "---------------------------------------------------------------------------------------\n",
    );
    for p in [&run.saturate, &run.spike, &run.recover] {
        out.push_str(&format!(
            "{:<10} {:<11} {:>8.1} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}\n",
            p.phase,
            p.mode,
            p.goodput(),
            format!("{:.1?}", p.percentile(50)),
            format!("{:.1?}", p.percentile(99)),
            p.committed,
            p.shed,
            p.expired,
            p.aborted,
        ));
    }
    out.push_str(&format!(
        "\nspike goodput {:.0}% of saturation; node counters: admission.shed={} \
         deadline.expired={}; balance conserved: {}\n",
        100.0 * run.spike.goodput() / run.saturate.goodput().max(1e-9),
        run.shed_counter,
        run.expired_counter,
        run.invariant_ok,
    ));
    out
}

/// Runs the scenario for `tables overload` and returns the run its gate
/// was evaluated on, with the verdict. A quick run (400 ms phases) checks
/// liveness only; a full-length run (2 s phases) also evaluates the
/// metastability oracle, and a run failing only that timing oracle is
/// retried on a fresh cluster, up to three runs in all.
pub fn run_gated(quick: bool, seed: u64) -> (OverloadRun, Option<String>) {
    let phase = if quick { Duration::from_millis(400) } else { Duration::from_secs(2) };
    let attempts = if quick { 1 } else { ORACLE_ATTEMPTS };
    let mut tried = 0;
    loop {
        let run = run(phase, seed.wrapping_add(tried << 8));
        tried += 1;
        // Only the timing oracle retries; a liveness or conservation
        // failure is a bug, not host noise, and fails immediately.
        if let Some(failure) = liveness_failure(&run) {
            return (run, Some(failure));
        }
        let failure = if quick { None } else { oracle_failure(&run) };
        match failure {
            Some(f) if tried < attempts => {
                eprintln!("overload: attempt {tried}/{attempts} failed, retrying: {f}");
            }
            _ => return (run, failure),
        }
    }
}

/// The always-on gates: every phase makes progress, the spike engages
/// the admission gate, and the bank balance is conserved.
fn liveness_failure(run: &OverloadRun) -> Option<String> {
    for p in [&run.saturate, &run.spike, &run.recover] {
        if p.committed == 0 {
            return Some(format!("overload phase '{}' committed no transactions", p.phase));
        }
    }
    if !run.invariant_ok {
        return Some("bank balance not conserved across the overload run".into());
    }
    if run.shed_counter == 0 {
        return Some(
            "the 3x spike never engaged the admission gate (admission.shed == 0); \
             the bench is not exercising overload"
                .into(),
        );
    }
    None
}

/// The metastability oracle. Needs full-length windows; quick mode is a
/// liveness check only.
fn oracle_failure(run: &OverloadRun) -> Option<String> {
    let ratio = run.spike.goodput() / run.saturate.goodput().max(1e-9);
    if ratio < 0.7 {
        return Some(format!(
            "metastability oracle: spike goodput is {:.0}% of saturation (gate: >= 70%) \
             — admitted work is thrashing under overload",
            ratio * 100.0
        ));
    }
    let p99 = run.spike.percentile(99);
    if p99 > BUDGET {
        return Some(format!(
            "metastability oracle: p99 of admitted work under the spike is {p99:.1?}, \
             past the {BUDGET:.0?} end-to-end budget — overload queueing is leaking \
             into admitted work"
        ));
    }
    let offered = f64::from(run.recover.offered_tps);
    if run.recover.goodput() < 0.7 * offered {
        return Some(format!(
            "metastability oracle: post-spike goodput {:.1} tps never re-converged to \
             the offered {offered:.1} tps (gate: >= 70%) — metastable residue",
            run.recover.goodput()
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_phases_commit_and_conserve() {
        let r = run(Duration::from_millis(300), 7);
        assert!(r.saturate.committed > 0, "saturation phase must make progress");
        assert!(r.spike.committed > 0, "admitted work must still commit under the spike");
        assert!(r.recover.committed > 0, "recovery phase must make progress");
        assert!(r.invariant_ok, "total balance must be conserved");
        assert!(r.shed_counter > 0, "a 3x spike against a {CLIENTS}-wide gate must shed");
        assert!(
            r.spike.shed + r.spike.expired > 0,
            "a 3x spike must turn some arrivals away (shed give-ups or client-side expiry)"
        );
    }
}
