//! The benchmark's own spans: one per public call into the product, each
//! a child of its transaction's span. Kept in memory, written at exit.

use std::io::Write;
use std::time::Instant;

/// Which boundary a span was recorded at; the name is `<layer>.<what>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The whole transaction, driver side; every other span's parent.
    Txn,
    Begin,
    CallLocal,
    CallRemote,
    CallShard,
    EndTransfer,
    EndAudit,
}

impl SpanKind {
    pub const CHILDREN: [SpanKind; 6] = [
        SpanKind::Begin,
        SpanKind::CallLocal,
        SpanKind::CallRemote,
        SpanKind::CallShard,
        SpanKind::EndTransfer,
        SpanKind::EndAudit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "driver.txn",
            SpanKind::Begin => "applib.begin",
            SpanKind::CallLocal => "servers.call_local",
            SpanKind::CallRemote => "servers.call_remote",
            SpanKind::CallShard => "shard.call",
            SpanKind::EndTransfer => "applib.end_transfer",
            SpanKind::EndAudit => "applib.end_audit",
        }
    }
}

/// One recorded span. `txn` identifies the transaction (and therefore
/// the parent [`SpanKind::Txn`] span) within its client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub txn: u32,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Where the adapter reports the calls it makes. The untraced run uses
/// [`NoSpans`], which compiles to the bare call.
pub trait Spans: Sized {
    /// Runs `f` as one call into the product.
    fn span<R>(&mut self, kind: SpanKind, f: impl FnOnce() -> R) -> R;

    /// Runs `f` as the next transaction: its span is the parent of every
    /// span `f` records.
    fn txn<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R;
}

/// Records nothing.
pub struct NoSpans;

impl Spans for NoSpans {
    fn span<R>(&mut self, _kind: SpanKind, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn txn<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
}

/// One client's in-memory span log.
pub struct Recorder {
    epoch: Instant,
    txn: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// All recorders of one run share `epoch`, so their spans line up.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, txn: 0, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Spans for Recorder {
    fn span<R>(&mut self, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { txn: self.txn, kind, start_ns, end_ns });
        r
    }

    fn txn<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        self.txn += 1;
        let at = self.spans.len();
        self.spans.push(Span { txn: self.txn, kind: SpanKind::Txn, start_ns: 0, end_ns: 0 });
        let start_ns = self.now_ns();
        let r = f(self);
        self.spans[at].start_ns = start_ns;
        self.spans[at].end_ns = self.now_ns();
        r
    }
}

/// Self time of every transaction span in one client's log: its duration
/// minus the part of that interval its children cover (children of one
/// transaction run one after another, so their durations add).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < spans.len() {
        let parent = spans[i];
        debug_assert_eq!(parent.kind, SpanKind::Txn);
        let mut covered = 0u64;
        i += 1;
        while i < spans.len() && spans[i].kind != SpanKind::Txn {
            let c = spans[i];
            covered += c.end_ns.min(parent.end_ns) - c.start_ns.max(parent.start_ns);
            i += 1;
        }
        out.push((parent.end_ns - parent.start_ns - covered) as f64 / 1e3);
    }
    out
}

/// Writes one JSON object per span: name, start, end, and the span that
/// caused it (`client/txn` names the parent transaction span).
pub fn write_jsonl(path: &std::path::Path, clients: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, spans) in clients.iter().enumerate() {
        for s in spans {
            let id = format!("{client}/{}", s.txn);
            let parent = if s.kind == SpanKind::Txn { "null".into() } else { format!("\"{id}\"") };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"txn\":\"{id}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(txn: u32, kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span { txn, kind, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, SpanKind::Txn, 1_000, 11_000),
            span(1, SpanKind::Begin, 1_500, 2_500),
            span(1, SpanKind::CallLocal, 3_000, 6_000),
            span(1, SpanKind::EndTransfer, 6_000, 10_000),
            span(2, SpanKind::Txn, 20_000, 21_000),
        ];
        assert_eq!(self_times_us(&spans), vec![2.0, 1.0]);
    }

    #[test]
    fn recorder_nests_children_under_their_transaction() {
        let mut rec = Recorder::new(Instant::now());
        for _ in 0..2 {
            rec.txn(|r| {
                r.span(SpanKind::Begin, || ());
                r.span(SpanKind::EndAudit, || ());
            });
        }
        let spans = rec.into_spans();
        let kinds: Vec<_> = spans.iter().map(|s| (s.txn, s.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (1, SpanKind::Txn),
                (1, SpanKind::Begin),
                (1, SpanKind::EndAudit),
                (2, SpanKind::Txn),
                (2, SpanKind::Begin),
                (2, SpanKind::EndAudit),
            ]
        );
        let parent = spans[0];
        for child in &spans[1..3] {
            assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        }
        assert_eq!(self_times_us(&spans).len(), 2);
    }
}
