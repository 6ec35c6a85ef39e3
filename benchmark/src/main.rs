//! The TABS benchmark. Run through `benchmark/run.sh` from the repository
//! root; see `benchmark/README.md`.
//!
//! ```text
//! tabs-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! tabs-benchmark suite [--seed N] [--seconds S] [--out DIR] [W…]  every workload, both runs
//! tabs-benchmark compare A.json B.json                           bounds applied, B against A
//! tabs-benchmark check RESULT.json                               result against BENCHMARK.json
//! ```

mod compare;
mod driver;
mod json;
mod measure;
mod spans;
mod stats;
mod sut;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use compare::{Declared, Verdict};
use json::Value;

/// `--flag value` pairs and the positional words around them.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args { flags: Vec::new(), words: Vec::new() };
        let mut raw = raw;
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), value));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
            None => Ok(default),
        }
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

/// One run of one workload; prints the report and, last, the contract
/// line. Fails (non-zero exit) when an output check does.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.flag("workload").ok_or("--workload is required")?;
    let spec = workload::spec(name).ok_or(format!("unknown workload {name}"))?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", 16.0)?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    let run = match args.flag("trace").unwrap_or("0") {
        "0" => measure::untraced(spec, seed, seconds)?,
        "1" => measure::traced(spec, seed, seconds, args.flag("trace-out").map(Path::new))?,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    run.print();
    if let Some(path) = args.flag("result") {
        std::fs::write(path, run.to_json().render()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", run.contract_line());
    Ok(run.correct())
}

/// Every workload (or the ones named), each run in its own process,
/// untraced then traced; one result file.
fn suite(args: &Args) -> Result<bool, String> {
    let decl = Declared::load()?;
    let names: Vec<&str> = if args.words.is_empty() {
        decl.workloads.iter().map(String::as_str).collect()
    } else {
        args.words.iter().map(String::as_str).collect()
    };
    let seed = args.flag("seed").unwrap_or("1");
    let seconds = args.flag("seconds").unwrap_or("16");
    let out = PathBuf::from(args.flag("out").unwrap_or("benchmark/out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for name in names {
        for trace in ["0", "1"] {
            let result = out.join(format!("{name}.{trace}.json"));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--seed", seed, "--seconds", seconds, "--trace", trace]);
            cmd.arg("--result").arg(&result);
            if trace == "1" {
                cmd.arg("--trace-out").arg(out.join(format!("{name}.trace.jsonl")));
            }
            let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            all_ok &= status.success();
            match read_json(&result.to_string_lossy()) {
                Ok(run) => runs.push(run),
                Err(e) => println!("{name} (trace {trace}) left no result: {e}"),
            }
        }
    }
    let result = Value::obj([
        ("schema", Value::num(1.0)),
        ("seed", Some(Value::Str(seed.into()))),
        ("seconds", Some(Value::Str(seconds.into()))),
        ("runs", Some(Value::Arr(runs))),
    ]);
    let path = out.join("result.json");
    std::fs::write(&path, result.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("usage: compare A.json B.json".into());
    };
    let rows = compare::compare(&Declared::load()?, &read_json(a)?, &read_json(b)?);
    compare::print_rows(&rows);
    let bad = rows.iter().filter(|r| matches!(r.verdict, Verdict::Regression | Verdict::Missing));
    Ok(bad.count() == 0)
}

fn check_file(args: &Args) -> Result<bool, String> {
    let [_, path] = args.words.as_slice() else {
        return Err("usage: check RESULT.json".into());
    };
    let problems = compare::check(&Declared::load()?, &read_json(path)?);
    for p in &problems {
        println!("check: {p}");
    }
    if problems.is_empty() {
        println!("check: {path} matches BENCHMARK.json");
    }
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some("suite") => suite(&Args { words: args.words[1..].to_vec(), ..args }),
            Some("compare") => compare_files(&args),
            Some("check") => check_file(&args),
            Some(other) => Err(format!("unknown command {other}")),
            None => run_one(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tabs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
