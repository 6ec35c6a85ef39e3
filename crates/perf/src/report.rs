//! Unified bench reporting: the [`Workload`] trait every bench
//! entrypoint implements, and the serializable [`BenchReport`] rows they
//! all emit.
//!
//! Reports persist as versioned `BENCH_<date>.json` files (schema below)
//! so every PR leaves a perf trajectory instead of unreproducible gate
//! text. The workspace is hermetic — no serde — so the JSON emitter and
//! the validating parser are hand-rolled here.
//!
//! # `BENCH_*.json` schema (version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "generated": "2026-08-09",
//!   "runs": [
//!     {
//!       "workload": "load",
//!       "scenario": "bank-contended",
//!       "mode": "closed/32",
//!       "config": {"accounts": "16", "group_commit": "false"},
//!       "duration_ms": 4000.0,
//!       "committed": 1234,
//!       "aborted": 56,
//!       "throughput_tps": 308.5,
//!       "p50_ms": 12.0, "p95_ms": 40.1, "p99_ms": 80.9,
//!       "messages_per_commit": 0.0,
//!       "forces_per_commit": 1.0,
//!       "deadlocks_resolved": 41
//!     }
//!   ]
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version stamp of the `BENCH_*.json` schema. Bump when a field is
/// renamed or removed; adding fields is backward compatible.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One measured run, as every workload reports it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// Which workload produced the row ("load", "contention", …).
    pub workload: String,
    /// Scenario within the workload ("bank-contended", "mixed", …).
    pub scenario: String,
    /// Driver mode ("closed/32", "open/500", "baseline", …).
    pub mode: String,
    /// Free-form configuration knobs that distinguish this run
    /// (accounts, group commit, …). Sorted for stable output.
    pub config: BTreeMap<String, String>,
    /// Measured wall-clock window, milliseconds.
    pub duration_ms: f64,
    /// Transactions committed inside the window.
    pub committed: u64,
    /// Transactions aborted inside the window (any reason).
    pub aborted: u64,
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// Median transaction latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Inter-node datagrams per committed transaction.
    pub messages_per_commit: f64,
    /// Stable-storage forces per committed transaction.
    pub forces_per_commit: f64,
    /// Deadlocks broken during the window (victim aborts observed).
    pub deadlocks_resolved: u64,
}

/// A whole `BENCH_<date>.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// [`BENCH_SCHEMA_VERSION`] at write time.
    pub schema: u64,
    /// ISO date the file was generated ("2026-08-09").
    pub generated: String,
    /// All runs, in execution order.
    pub runs: Vec<BenchReport>,
}

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn num(v: f64, out: &mut String) {
    // JSON has no NaN/Infinity; clamp to null-safe zero.
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

impl BenchReport {
    /// Serializes the row as one JSON object.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(256);
        o.push_str("{\"workload\": ");
        esc(&self.workload, &mut o);
        o.push_str(", \"scenario\": ");
        esc(&self.scenario, &mut o);
        o.push_str(", \"mode\": ");
        esc(&self.mode, &mut o);
        o.push_str(", \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            esc(k, &mut o);
            o.push_str(": ");
            esc(v, &mut o);
        }
        o.push_str("}, \"duration_ms\": ");
        num(self.duration_ms, &mut o);
        let _ = write!(o, ", \"committed\": {}, \"aborted\": {}", self.committed, self.aborted);
        o.push_str(", \"throughput_tps\": ");
        num(self.throughput_tps, &mut o);
        o.push_str(", \"p50_ms\": ");
        num(self.p50_ms, &mut o);
        o.push_str(", \"p95_ms\": ");
        num(self.p95_ms, &mut o);
        o.push_str(", \"p99_ms\": ");
        num(self.p99_ms, &mut o);
        o.push_str(", \"messages_per_commit\": ");
        num(self.messages_per_commit, &mut o);
        o.push_str(", \"forces_per_commit\": ");
        num(self.forces_per_commit, &mut o);
        let _ = write!(o, ", \"deadlocks_resolved\": {}}}", self.deadlocks_resolved);
        o
    }

    /// The row's identity: two rows with the same key describe the same
    /// measurement and may not coexist in one bench file. Config is part
    /// of the key so legitimately distinct runs (same mode, different
    /// knob) are not conflated.
    pub fn key(&self) -> String {
        let mut k = format!("{}/{}/{}", self.workload, self.scenario, self.mode);
        for (name, v) in &self.config {
            let _ = write!(k, " {name}={v}");
        }
        k
    }

    /// Rebuilds a row from a parsed JSON object.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let mut r = BenchReport {
            workload: v.get_str("workload")?,
            scenario: v.get_str("scenario")?,
            mode: v.get_str("mode")?,
            duration_ms: v.get_num("duration_ms")?,
            committed: v.get_num("committed")? as u64,
            aborted: v.get_num("aborted")? as u64,
            throughput_tps: v.get_num("throughput_tps")?,
            p50_ms: v.get_num("p50_ms")?,
            p95_ms: v.get_num("p95_ms")?,
            p99_ms: v.get_num("p99_ms")?,
            messages_per_commit: v.get_num("messages_per_commit")?,
            forces_per_commit: v.get_num("forces_per_commit")?,
            deadlocks_resolved: v.get_num("deadlocks_resolved")? as u64,
            config: BTreeMap::new(),
        };
        match v.get("config") {
            Some(Json::Obj(pairs)) => {
                for (k, val) in pairs {
                    match val {
                        Json::Str(s) => {
                            r.config.insert(k.clone(), s.clone());
                        }
                        other => return Err(format!("config.{k}: expected string, got {other:?}")),
                    }
                }
            }
            Some(other) => return Err(format!("config: expected object, got {other:?}")),
            None => return Err("missing field config".into()),
        }
        Ok(r)
    }
}

impl BenchFile {
    /// A file stamped with the current schema version.
    pub fn new(generated: impl Into<String>, runs: Vec<BenchReport>) -> Self {
        Self { schema: BENCH_SCHEMA_VERSION, generated: generated.into(), runs }
    }

    /// Serializes the whole file (pretty enough to diff in review).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        let _ = write!(o, "{{\n  \"schema\": {},\n  \"generated\": ", self.schema);
        esc(&self.generated, &mut o);
        o.push_str(",\n  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            o.push_str("    ");
            o.push_str(&r.to_json());
            if i + 1 < self.runs.len() {
                o.push(',');
            }
            o.push('\n');
        }
        o.push_str("  ]\n}\n");
        o
    }

    /// Replaces rows whose [`BenchReport::key`] matches an incoming row
    /// and appends the rest, preserving file order. `tables --json` uses
    /// this to grow a dated bench file across invocations: re-running a
    /// workload refreshes its rows instead of duplicating them.
    pub fn upsert(&mut self, rows: Vec<BenchReport>) {
        for row in rows {
            match self.runs.iter_mut().find(|r| r.key() == row.key()) {
                Some(slot) => *slot = row,
                None => self.runs.push(row),
            }
        }
    }

    /// Parses and validates a `BENCH_*.json` document: schema version,
    /// required fields and field types all checked; duplicate report
    /// rows (same [`BenchReport::key`]) are rejected.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let schema = v.get_num("schema")? as u64;
        if schema != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {schema} (this tool reads version \
                 {BENCH_SCHEMA_VERSION}; regenerate the file with the current `tables --json`)"
            ));
        }
        let generated = v.get_str("generated")?;
        let runs = match v.get("runs") {
            Some(Json::Arr(items)) => {
                items.iter().map(BenchReport::from_json).collect::<Result<Vec<_>, _>>()?
            }
            Some(other) => return Err(format!("runs: expected array, got {other:?}")),
            None => return Err("missing field runs".into()),
        };
        let mut seen = std::collections::BTreeSet::new();
        for r in &runs {
            if !seen.insert(r.key()) {
                return Err(format!(
                    "duplicate report row {} (two rows share workload/scenario/mode and every \
                     config knob; merge or relabel them)",
                    r.key()
                ));
            }
        }
        Ok(Self { schema, generated, runs })
    }
}

/// Minimal JSON value, just enough to round-trip and validate bench
/// files without a serde dependency.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// content rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing content at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required string field.
    pub fn get_str(&self, key: &str) -> Result<String, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            Some(other) => Err(format!("{key}: expected string, got {other:?}")),
            None => Err(format!("missing field {key}")),
        }
    }

    /// Required numeric field.
    pub fn get_num(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            Some(other) => Err(format!("{key}: expected number, got {other:?}")),
            None => Err(format!("missing field {key}")),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        s.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{s}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            // Surrogates are not expected in bench files.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8).
                    let s = std::str::from_utf8(&self.b[self.i..]).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            pairs.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

/// Options every workload run takes from the command line.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Cut iteration counts / durations for CI liveness runs.
    pub quick: bool,
    /// Deterministic seed for scenarios that randomize.
    pub seed: u64,
    /// Iteration override (workload-specific meaning), when given.
    pub iters: Option<u32>,
    /// Warmup override, when given.
    pub warmup: Option<u32>,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self { quick: false, seed: 42, iters: None, warmup: None }
    }
}

/// What one workload run produces: human-readable output, serializable
/// rows, and an optional failed perf gate.
#[derive(Debug, Clone, Default)]
pub struct WorkloadOutput {
    /// Rendered tables / summary for the terminal.
    pub text: String,
    /// Rows for the `BENCH_*.json` trajectory.
    pub reports: Vec<BenchReport>,
    /// Set when the workload's perf gate failed (the CLI exits non-zero).
    pub gate_failure: Option<String>,
}

/// A named bench entrypoint (`tables <name>` runs it).
pub trait Workload {
    /// Subcommand name.
    fn name(&self) -> &'static str;
    /// One-line description for `--help`.
    fn describe(&self) -> &'static str;
    /// Runs the workload and reports.
    fn run(&self, opts: &RunOpts) -> Result<WorkloadOutput, String>;
}

/// Every registered workload, in `--help` order.
pub fn registry() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crate::load::LoadWorkload),
        Box::new(crate::contention::ContentionWorkload),
        Box::new(crate::groupcommit::GroupCommitWorkload),
        Box::new(crate::fastpath::FastpathWorkload),
        Box::new(crate::partition::PartitionWorkload),
        Box::new(crate::replicate::ReplicateWorkload),
        Box::new(crate::scale::ScaleWorkload),
        Box::new(crate::overload::OverloadWorkload),
        Box::new(crate::paper::PaperWorkload),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut config = BTreeMap::new();
        config.insert("group_commit".into(), "false".into());
        config.insert("accounts".into(), "16".into());
        BenchReport {
            workload: "load".into(),
            scenario: "bank-contended".into(),
            mode: "closed/32".into(),
            config,
            duration_ms: 4000.5,
            committed: 1234,
            aborted: 56,
            throughput_tps: 308.25,
            p50_ms: 12.0,
            p95_ms: 40.125,
            p99_ms: 80.5,
            messages_per_commit: 2.5,
            forces_per_commit: 1.0,
            deadlocks_resolved: 41,
        }
    }

    #[test]
    fn bench_file_roundtrip() {
        let file = BenchFile::new("2026-08-09", vec![sample(), BenchReport::default()]);
        let text = file.to_json();
        let parsed = BenchFile::parse(&text).unwrap();
        assert_eq!(parsed, file);
    }

    #[test]
    fn schema_field_names_are_stable() {
        // Downstream tooling greps these exact keys; renaming any of them
        // is a schema break and must bump BENCH_SCHEMA_VERSION.
        let text = BenchFile::new("2026-08-09", vec![sample()]).to_json();
        for key in [
            "\"schema\"",
            "\"generated\"",
            "\"runs\"",
            "\"workload\"",
            "\"scenario\"",
            "\"mode\"",
            "\"config\"",
            "\"duration_ms\"",
            "\"committed\"",
            "\"aborted\"",
            "\"throughput_tps\"",
            "\"p50_ms\"",
            "\"p95_ms\"",
            "\"p99_ms\"",
            "\"messages_per_commit\"",
            "\"forces_per_commit\"",
            "\"deadlocks_resolved\"",
        ] {
            assert!(text.contains(key), "schema key {key} missing from {text}");
        }
        assert_eq!(BENCH_SCHEMA_VERSION, 1);
    }

    #[test]
    fn emitted_files_reparse_byte_identically() {
        // emit → parse → re-emit must reproduce the exact bytes, so bench
        // files stay diffable across tool invocations.
        let text = BenchFile::new("2026-08-09", vec![sample(), BenchReport::default()]).to_json();
        assert_eq!(BenchFile::parse(&text).unwrap().to_json(), text);
    }

    #[test]
    fn parse_rejects_duplicate_rows() {
        let dup = BenchFile::new("2026-08-09", vec![sample(), sample()]);
        let err = BenchFile::parse(&dup.to_json()).unwrap_err();
        assert!(err.contains("duplicate report row"), "unhelpful error: {err}");
        assert!(err.contains("load/bank-contended/closed/32"), "key missing from: {err}");

        // Same mode but a different config knob is a different run.
        let mut other = sample();
        other.config.insert("group_commit".into(), "true".into());
        let ok = BenchFile::new("2026-08-09", vec![sample(), other]);
        assert!(BenchFile::parse(&ok.to_json()).is_ok());
    }

    #[test]
    fn wrong_schema_error_names_both_versions() {
        let err =
            BenchFile::parse("{\"schema\": 2, \"generated\": \"x\", \"runs\": []}").unwrap_err();
        assert!(err.contains("unsupported schema version 2"), "unhelpful error: {err}");
        assert!(err.contains("version 1"), "expected version missing from: {err}");
    }

    #[test]
    fn upsert_replaces_matching_keys_and_appends_new_rows() {
        let mut file = BenchFile::new("2026-08-09", vec![sample()]);
        let mut refreshed = sample();
        refreshed.committed = 9999;
        let mut new_mode = sample();
        new_mode.mode = "closed/64".into();
        file.upsert(vec![refreshed.clone(), new_mode.clone()]);
        assert_eq!(file.runs, vec![refreshed, new_mode]);
        // The merged file still parses (no duplicate keys).
        assert!(BenchFile::parse(&file.to_json()).is_ok());
    }

    #[test]
    fn parse_rejects_wrong_schema_and_bad_shapes() {
        assert!(BenchFile::parse("{\"schema\": 2, \"generated\": \"x\", \"runs\": []}").is_err());
        assert!(BenchFile::parse("{\"schema\": 1, \"generated\": \"x\"}").is_err());
        assert!(BenchFile::parse("{\"schema\": 1, \"generated\": \"x\", \"runs\": {}}").is_err());
        assert!(BenchFile::parse("not json").is_err());
        assert!(BenchFile::parse("{} trailing").is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut r = sample();
        r.scenario = "quote\" slash\\ newline\n tab\t".into();
        r.config.insert("weird \"key\"".into(), "v\\".into());
        let file = BenchFile::new("2026-08-09", vec![r]);
        assert_eq!(BenchFile::parse(&file.to_json()).unwrap(), file);
    }

    #[test]
    fn json_parser_handles_primitives() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -1.5e2 ").unwrap(), Json::Num(-150.0));
        assert_eq!(
            Json::parse("[1, \"a\", {\"k\": false}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("a".into()),
                Json::Obj(vec![("k".into(), Json::Bool(false))]),
            ])
        );
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn nonfinite_numbers_serialize_as_zero() {
        let mut r = sample();
        r.throughput_tps = f64::NAN;
        r.p99_ms = f64::INFINITY;
        let parsed = BenchFile::parse(&BenchFile::new("d", vec![r]).to_json()).unwrap();
        assert_eq!(parsed.runs[0].throughput_tps, 0.0);
        assert_eq!(parsed.runs[0].p99_ms, 0.0);
    }
}
