//! The service benchmark: four workloads over TCP loopback, end-to-end
//! metrics from untraced runs, a per-layer breakdown from traced runs, and
//! every run's outputs verified by replay. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path examples/perf/Cargo.toml -- \
//!     [--workload NAME|all] [--seed S] [--seconds W] [--trace [0|1]] [--out DIR]
//! cargo run --release --manifest-path examples/perf/Cargo.toml -- --smoke
//! cargo run --release --manifest-path examples/perf/Cargo.toml -- compare PARENT_DIR CHANGE_DIR
//! cargo test --release --example perf
//! ```
//!
//! The same sources build as the package in this directory, which is what
//! `BENCHMARK.json` runs, and as the root package's `perf` example.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": true, "attempted": N, "failed": F, "metrics": {...}}` — the
//! end-to-end metrics, or with `--trace` the per-layer ones. A run whose
//! outputs do not verify exits with status 1 and prints no metrics.

mod compare;
mod json;
mod layers;
mod load;
mod run;
mod stats;
mod trace;
mod verify;
mod workload;

use std::error::Error;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use run::{Outcome, RunConfig};

/// Every end-to-end metric with its unit, as `BENCHMARK.json` declares it.
const END_TO_END: [(&str, &str); 4] = [
    ("throughput_melem_s", "Melem/s"),
    ("latency_p1_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, as `BENCHMARK.json` declares it.
const PER_LAYER: [(&str, &str); 33] = [
    ("client.encode_ns.mean", "ns"),
    ("client.encode_ns.p99", "ns"),
    ("client.send_ns.mean", "ns"),
    ("client.send_ns.p99", "ns"),
    ("client.wait_us.mean", "us"),
    ("client.wait_us.p99", "us"),
    ("client.decode_ns.mean", "ns"),
    ("client.decode_ns.p99", "ns"),
    ("loadgen.lag_p99_us", "us"),
    ("protocol.decode_ns.mean", "ns"),
    ("protocol.decode_ns.p99", "ns"),
    ("protocol.encode_ns.mean", "ns"),
    ("protocol.encode_ns.p99", "ns"),
    ("protocol.bytes_per_elem", "B/elem"),
    ("sampler.feed_ns_per_elem.mean", "ns"),
    ("sampler.feed_ns_per_elem.p99", "ns"),
    ("sampler.read_us.mean", "us"),
    ("sampler.read_us.p99", "us"),
    ("sampler.admitted_share", "ratio"),
    ("estimator.record_ns_per_elem.mean", "ns"),
    ("estimator.record_ns_per_elem.p99", "ns"),
    ("core.memory_coins_ns_per_elem", "ns"),
    ("wal.append_us.mean", "us"),
    ("wal.append_us.p99", "us"),
    ("wal.fsync_us.mean", "us"),
    ("wal.fsync_us.p99", "us"),
    ("wal.bytes_per_elem", "B/elem"),
    ("mesh.replica_apply_us.mean", "us"),
    ("mesh.replica_apply_us.p99", "us"),
    ("server.residual_us", "us"),
    ("server.residual_share", "ratio"),
    ("server.worker_op_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// Run length when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn usage() -> String {
    "usage: perf [--workload NAME|all] [--seed S] [--seconds W] [--trace [0|1]] [--out DIR]\n\
     \x20      perf --smoke [--seed S]\n\
     \x20      perf compare PARENT_DIR CHANGE_DIR\n\
     workloads: "
        .to_string()
        + &workload::NAMES.join(", ")
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(".perf"),
        smoke: false,
    };
    let mut args = args.by_ref().peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            // `--trace` alone or followed by 1 turns tracing on; `--trace 0` off.
            "--trace" => {
                parsed.trace = args.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload != "all" && !workload::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let result = if args.peek().map(String::as_str) == Some("compare") {
        args.next();
        compare::main(args.collect())
    } else {
        match parse_args(args) {
            Ok(args) => bench(&args),
            Err(message) => Err(format!("{message}\n{}", usage()).into()),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perf: {err}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), Box<dyn Error>> {
    if args.smoke {
        let mut lines = Vec::new();
        for outcome in smoke(args.seed)? {
            print_summary(&outcome, true);
            lines.push((outcome.workload, result_line(&outcome, true)?));
        }
        println!("{}", combined_line(&lines));
        return Ok(());
    }
    std::fs::create_dir_all(&args.out)?;
    if args.workload != "all" {
        let cfg = RunConfig::full(args.seed, args.seconds, args.trace, Some(args.out.clone()));
        let outcome = run::run(&args.workload, &cfg)?;
        print_summary(&outcome, args.trace);
        let line = result_line(&outcome, args.trace)?;
        let path = args.out.join(format!(
            "result-{}-seed{}-trace{}.json",
            outcome.workload,
            args.seed,
            u8::from(args.trace)
        ));
        std::fs::write(&path, results_file(&outcome, args, &line).to_string() + "\n")?;
        println!("{line}");
        return Ok(());
    }
    // One child process per workload, so each has its own threads and its
    // own peak resident set.
    let exe = std::env::current_exe()?;
    let mut lines = Vec::new();
    for name in workload::NAMES {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .arg("--out")
            .arg(&args.out)
            .stderr(Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!("workload {name} failed ({})", output.status).into());
        }
        let last = stdout.lines().last().ok_or("a child printed nothing")?;
        lines.push((name, json::parse(last)?));
    }
    println!("{}", combined_line(&lines));
    Ok(())
}

/// Runs every workload briefly with verification on (and tracing, so the
/// per-layer path runs too), in-process.
fn smoke(seed: u64) -> Result<Vec<Outcome>, Box<dyn Error>> {
    workload::NAMES.iter().map(|name| run::run(name, &RunConfig::smoke(seed))).collect()
}

fn metrics_object(metrics: &[run::Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The metrics a result line reports, checked against the declared set.
fn reported(outcome: &Outcome, traced: bool) -> Result<&[run::Metric], String> {
    let (metrics, declared) = if traced {
        (&outcome.per_layer, &PER_LAYER[..])
    } else {
        (&outcome.end_to_end, &END_TO_END[..])
    };
    let names = metrics.iter().map(|m| (m.0, m.2));
    if !names.eq(declared.iter().copied()) {
        return Err(format!("{}: the metrics differ from the declared set", outcome.workload));
    }
    Ok(metrics)
}

/// The result line: end-to-end metrics, or per-layer ones for a traced run.
fn result_line(outcome: &Outcome, traced: bool) -> Result<Value, String> {
    let metrics = reported(outcome, traced)?;
    Ok(Value::Obj(vec![
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), metrics_object(metrics)),
    ]))
}

/// One line for several workloads' result lines: counts summed, metrics
/// named `<workload>.<metric>`.
fn combined_line(lines: &[(&str, Value)]) -> Value {
    let sum = |key| lines.iter().filter_map(|(_, l)| l.get(key)?.as_f64()).sum();
    let metrics = lines
        .iter()
        .flat_map(|(workload, line)| {
            let metrics = line.get("metrics").map(Value::members).unwrap_or_default();
            metrics.iter().map(move |(name, value)| (format!("{workload}.{name}"), value.clone()))
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::Num(sum("attempted"))),
        ("failed".into(), Value::Num(sum("failed"))),
        ("metrics".into(), Value::Obj(metrics)),
    ])
}

fn print_summary(outcome: &Outcome, traced: bool) {
    println!("== {} ({})", outcome.workload, if traced { "traced" } else { "untraced" });
    let metrics = if traced { &outcome.per_layer } else { &outcome.end_to_end };
    for (name, value, unit) in metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!("  requests: {} attempted, {} failed", outcome.attempted, outcome.failed);
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it (a checkout without `.git` reports none).
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(id) = std::fs::read_to_string(PathBuf::from(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference)?.strip_suffix(' ').map(str::to_string))
}

/// The results file: the result line plus what is needed to compare it
/// later — workload, seed, run length, machine, commit, sample counts.
fn results_file(outcome: &Outcome, args: &Args, line: &Value) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let commit = git_head().unwrap_or_else(|| "unknown".into());
    let str_value = |s: &str| Value::Str(s.to_string());
    Value::Obj(vec![
        ("workload".into(), str_value(outcome.workload)),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("commit".into(), Value::Str(commit)),
        (
            "machine".into(),
            Value::Obj(vec![
                ("cpu".into(), Value::Str(cpu)),
                ("available_parallelism".into(), Value::Num(cpus as f64)),
                ("kernel".into(), Value::Str(kernel)),
            ]),
        ),
        ("end_to_end".into(), metrics_object(&outcome.end_to_end)),
        (
            "context".into(),
            Value::Obj(
                outcome.extra.iter().map(|&(k, v)| (k.to_string(), Value::Num(v))).collect(),
            ),
        ),
        ("result".into(), line.clone()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .map(Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    /// The repository root, whichever package these tests were built in:
    /// the root package (as its `perf` example) or the one in this
    /// directory.
    fn repo_root() -> PathBuf {
        let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        if manifest_dir.join("BENCHMARK.json").exists() {
            manifest_dir
        } else {
            manifest_dir.join("../..")
        }
    }

    /// The `[profile.release]` table of a manifest, one line per setting.
    fn release_profile(manifest: &str) -> Vec<String> {
        let text = std::fs::read_to_string(repo_root().join(manifest)).unwrap();
        text.lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect()
    }

    #[test]
    fn the_benchmark_builds_with_the_repository_release_profile() {
        let root = release_profile("Cargo.toml");
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(release_profile("examples/perf/Cargo.toml"), root);
    }

    #[test]
    fn emitted_names_are_exactly_those_benchmark_json_declares() {
        let path = repo_root().join("BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .map(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, workload::NAMES);
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn arguments_parse_in_the_documented_form() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload mixed_rw --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("mixed_rw", 7, 12.0, true));
        assert!(!args("--trace 0").unwrap().trace);
        assert!(args("--trace --seed 3").unwrap().trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--bogus").is_err());
    }

    /// All four workloads with half-second windows, verification and
    /// tracing on: the harness end to end in a few seconds.
    #[test]
    fn smoke_runs_every_workload_and_emits_every_declared_metric() {
        let started = std::time::Instant::now();
        let outcomes = smoke(11).unwrap();
        for outcome in &outcomes {
            assert_eq!(outcome.failed, 0, "{}", outcome.workload);
            reported(outcome, false).unwrap();
            reported(outcome, true).unwrap();
            for &(name, value, _) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
                assert!(value.is_finite(), "{}: {name} = {value}", outcome.workload);
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        // Unoptimized builds run the sampler far slower; time only release.
        assert!(cfg!(debug_assertions) || elapsed < 20.0, "the smoke run took {elapsed:.1} s");
    }
}
