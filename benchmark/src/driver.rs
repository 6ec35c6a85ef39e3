//! The load drivers: a closed loop (each client issues its next
//! transaction when the last one completes) and an open loop (arrivals
//! on a schedule fixed before the phase starts), plus the model of what
//! the acknowledged commits must have left behind.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::spans::{NoSpans, Recorder, Span, Spans};
use crate::sut::Client;
use crate::workload::{Op, OpStream, Spec};

/// Never more client threads than cores, never more than two.
pub const CLIENTS: usize = 2;

/// How long after the end of an open phase a scheduled transaction may
/// still complete before it counts as failed.
pub const GRACE: Duration = Duration::from_secs(2);

/// One attempted transaction. Times are seconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempt {
    /// When it was due: the arrival time in an open phase, the issue
    /// time in a closed one.
    pub due_s: f64,
    pub start_s: f64,
    pub end_s: f64,
    pub audit: bool,
    /// The commit was acknowledged.
    pub ok: bool,
}

impl Attempt {
    /// Latency as a user sees it: from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.end_s - self.due_s) * 1e3
    }

    /// How late the generator issued it.
    pub fn gen_lag_us(&self) -> f64 {
        (self.start_s - self.due_s) * 1e6
    }
}

/// Expected balance of every account: the sum of the acknowledged
/// transfers (adds commute, so order does not matter).
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    pub expected: Vec<i64>,
}

impl Model {
    pub fn new(accounts: u64) -> Self {
        Self { expected: vec![0; accounts as usize] }
    }

    pub fn apply(&mut self, op: Op) {
        if let Op::Transfer { lo, hi, d_lo } = op {
            self.expected[lo as usize] += d_lo;
            self.expected[hi as usize] -= d_lo;
        }
    }

    pub fn merge(&mut self, other: &Model) {
        for (a, b) in self.expected.iter_mut().zip(&other.expected) {
            *a += b;
        }
    }

    /// Checks the balances the system holds against the model: every
    /// account as expected, and therefore the total conserved at zero.
    pub fn check(&self, actual: &[i64]) -> Result<(), String> {
        if actual.len() != self.expected.len() {
            return Err(format!(
                "{} accounts read, {} expected",
                actual.len(),
                self.expected.len()
            ));
        }
        let total: i64 = actual.iter().sum();
        if total != 0 {
            return Err(format!("total balance {total}, expected 0: money was not conserved"));
        }
        match actual.iter().zip(&self.expected).position(|(a, e)| a != e) {
            Some(i) => Err(format!(
                "account {i} holds {} but acknowledged commits sum to {}",
                actual[i], self.expected[i]
            )),
            None => Ok(()),
        }
    }
}

/// What one phase produced, all clients together.
pub struct Phase {
    pub attempts: Vec<Attempt>,
    pub model: Model,
    /// The first few failure reasons, for the report.
    pub errors: Vec<String>,
    /// Wall-clock length of the phase in seconds.
    pub elapsed_s: f64,
}

impl Phase {
    fn from_shares(spec: &Spec, shares: Vec<Share>, elapsed_s: f64) -> Self {
        let mut phase = Phase {
            attempts: Vec::new(),
            model: Model::new(spec.accounts),
            errors: Vec::new(),
            elapsed_s,
        };
        for share in shares {
            phase.attempts.extend(share.attempts);
            phase.model.merge(&share.model);
            phase.errors.extend(share.errors);
        }
        phase
    }

    pub fn committed(&self) -> u64 {
        self.attempts.iter().filter(|a| a.ok).count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.attempts.len() as u64 - self.committed()
    }
}

/// One client's share of a phase.
struct Share {
    attempts: Vec<Attempt>,
    model: Model,
    errors: Vec<String>,
}

impl Share {
    fn new(spec: &Spec) -> Self {
        Self { attempts: Vec::new(), model: Model::new(spec.accounts), errors: Vec::new() }
    }

    /// Runs `op` and records the attempt; `due` is when it should have
    /// been issued.
    fn run(&mut self, client: &Client, op: Op, spans: &mut impl Spans, t0: Instant, due: Instant) {
        let start = Instant::now();
        let result = spans.txn(|s| client.exec(op, s));
        let end = Instant::now();
        let since = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
        let ok = result.is_ok();
        match result {
            Ok(()) => self.model.apply(op),
            Err(e) if self.errors.len() < 5 => self.errors.push(e),
            Err(_) => {}
        }
        self.attempts.push(Attempt {
            due_s: since(due),
            start_s: since(start),
            end_s: since(end),
            audit: op.is_audit(),
            ok,
        });
    }
}

/// Runs `body` on one thread per client, all starting at the same
/// instant `t0`, and folds their shares into one phase.
fn run_clients<S: Spans + Send>(
    clients: &[Client],
    spec: &Spec,
    mut spans: Vec<S>,
    body: impl Fn(usize, &Client, &mut Share, &mut S, Instant) + Sync,
) -> (Phase, Vec<S>) {
    let t0 = Instant::now() + Duration::from_millis(20);
    let shares: Vec<Share> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .zip(spans.iter_mut())
            .enumerate()
            .map(|(i, (client, spans))| {
                let body = &body;
                s.spawn(move || {
                    let mut share = Share::new(spec);
                    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
                    body(i, client, &mut share, spans, t0);
                    share
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let phase = Phase::from_shares(spec, shares, t0.elapsed().as_secs_f64());
    (phase, spans)
}

fn closed_with<S: Spans + Send>(
    clients: &[Client],
    spec: &Spec,
    seed: u64,
    length: Duration,
    spans: Vec<S>,
) -> (Phase, Vec<S>) {
    run_clients(clients, spec, spans, |i, client, share, spans, t0| {
        let mut ops = OpStream::new(spec, seed, i as u64);
        let deadline = t0 + length;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            share.run(client, ops.next_op(), spans, t0, now);
        }
    })
}

/// A closed phase: every client in a loop, no think time, for `length`.
pub fn closed(clients: &[Client], spec: &Spec, seed: u64, length: Duration) -> Phase {
    closed_with(clients, spec, seed, length, clients.iter().map(|_| NoSpans).collect()).0
}

/// [`closed`] with the benchmark's spans recorded around every call;
/// returns each client's span log beside the phase.
pub fn closed_traced(
    clients: &[Client],
    spec: &Spec,
    seed: u64,
    length: Duration,
) -> (Phase, Vec<Vec<Span>>) {
    let epoch = Instant::now();
    let recorders = clients.iter().map(|_| Recorder::new(epoch)).collect();
    let (phase, recorders) = closed_with(clients, spec, seed, length, recorders);
    (phase, recorders.into_iter().map(Recorder::into_spans).collect())
}

/// `count` transactions, one at a time, taking the clients in turn so
/// that each has made its first calls: the warm-up that ends set-up.
pub fn warm_up(clients: &[Client], spec: &Spec, seed: u64, count: u32) -> Phase {
    let mut share = Share::new(spec);
    let mut ops = OpStream::new(spec, seed, 1000);
    let t0 = Instant::now();
    for client in clients.iter().cycle().take(count as usize) {
        share.run(client, ops.next_op(), &mut NoSpans, t0, Instant::now());
    }
    Phase::from_shares(spec, vec![share], t0.elapsed().as_secs_f64())
}

/// An open phase: transaction `i` of a seeded stream is due at
/// `schedule[i]` seconds whatever the system is doing; one worker per
/// client issues them in order and times each from its due time. An
/// arrival still waiting [`GRACE`] after the last one was due is
/// abandoned and counts as failed.
pub fn open(clients: &[Client], spec: &Spec, seed: u64, schedule: &[f64]) -> Phase {
    let mut stream = OpStream::new(spec, seed, 2000);
    let ops: Vec<Op> = schedule.iter().map(|_| stream.next_op()).collect();
    let give_up = Duration::from_secs_f64(schedule.last().copied().unwrap_or(0.0)) + GRACE;
    let next = AtomicUsize::new(0);
    let workers = clients.iter().map(|_| NoSpans).collect();
    let (phase, _) = run_clients(clients, spec, workers, |_, client, share, spans, t0| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&due_s) = schedule.get(i) else { return };
        let due = t0 + Duration::from_secs_f64(due_s);
        let now = Instant::now();
        if now > t0 + give_up {
            let late = (now - t0).as_secs_f64();
            let (audit, ok) = (ops[i].is_audit(), false);
            share.attempts.push(Attempt { due_s, start_s: late, end_s: late, audit, ok });
            continue;
        }
        wait_until(due);
        share.run(client, ops[i], spans, t0, due);
    });
    phase
}

/// Sleeps until shortly before `due`, then yields the core in a loop
/// until it arrives: a bare `sleep` overshoots by the kernel's timer
/// slack, which would put tens of microseconds of generator lag into
/// every latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    if let Some(ahead) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(ahead);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accepts_what_the_commits_sum_to() {
        let mut m = Model::new(4);
        m.apply(Op::Transfer { lo: 0, hi: 3, d_lo: -1 });
        m.apply(Op::Transfer { lo: 0, hi: 1, d_lo: 1 });
        m.apply(Op::Audit { lo: 1, hi: 2 });
        assert_eq!(m.expected, vec![0, -1, 0, 1]);
        assert_eq!(m.check(&[0, -1, 0, 1]), Ok(()));
    }

    #[test]
    fn broken_model_check_is_an_error() {
        let mut m = Model::new(3);
        m.apply(Op::Transfer { lo: 0, hi: 2, d_lo: -1 });
        // A lost update: the debit landed, the credit did not.
        assert!(m.check(&[-1, 0, 0]).unwrap_err().contains("not conserved"));
        // Conserved, but not what was acknowledged.
        assert!(m.check(&[0, -1, 1]).unwrap_err().contains("account 0"));
        assert!(m.check(&[-1, 0]).is_err());
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lag_is_reported() {
        let a = Attempt { due_s: 1.0, start_s: 1.004, end_s: 1.010, audit: false, ok: true };
        assert!((a.latency_ms() - 10.0).abs() < 1e-9);
        assert!((a.gen_lag_us() - 4000.0).abs() < 1e-6);
    }
}
