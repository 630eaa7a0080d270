//! `perf compare PARENT_DIR CHANGE_DIR`: judges a change against its parent
//! from two sets of untraced results files, run as interleaved pairs.
//!
//! Runs pair up per workload by their recorded seed, and paired runs must
//! have measured equally long windows; a run without a partner is an error.
//! Each end-to-end metric gets each side's median and quartiles, the share
//! of pairs the change wins, and a verdict against the bound
//! `BENCHMARK.json` declares. Failed requests are judged as an error share
//! that may not grow at all, and no gain counts on a workload where the
//! change failed more requests than the parent.

use std::collections::BTreeMap;
use std::error::Error;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{judge, Better, Bound, Side, Verdict};

/// One untraced results file, reduced.
#[derive(Clone, Debug, Default)]
struct RunFile {
    seconds: f64,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

impl RunFile {
    fn error_share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

/// Per workload, per seed: one side's runs.
type Runs = BTreeMap<String, BTreeMap<u64, RunFile>>;

/// One workload's (parent, change) runs, in seed order.
type Pairs<'a> = Vec<(&'a RunFile, &'a RunFile)>;

/// Each end-to-end metric's name, bound and direction.
type Bounds = Vec<(String, Bound, Better)>;

fn load(dir: &Path) -> Result<Runs, Box<dyn Error>> {
    let mut runs = Runs::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("result-") && name.ends_with(".json")) {
            continue;
        }
        let doc = json::parse(&std::fs::read_to_string(&path)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace") == Some(&Value::Bool(true)) {
            continue; // per-layer numbers carry no bound
        }
        let field = |key| doc.get(key).ok_or(format!("{}: no {key:?}", path.display()));
        let workload = field("workload")?.as_str().ok_or("a workload that is not a string")?;
        let seed = field("seed")?.as_f64().ok_or("a seed that is not a number")? as u64;
        let result = field("result")?;
        let count = |key| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let mut run = RunFile {
            seconds: field("seconds")?.as_f64().ok_or("a run length that is not a number")?,
            attempted: count("attempted"),
            failed: count("failed"),
            metrics: BTreeMap::new(),
        };
        for (metric, value) in result.get("metrics").map(Value::members).unwrap_or_default() {
            let value =
                value.get("value").and_then(Value::as_f64).ok_or("a metric without a value")?;
            run.metrics.insert(metric.clone(), value);
        }
        if runs.entry(workload.to_string()).or_default().insert(seed, run).is_some() {
            return Err(
                format!("{}: two runs of {workload} with seed {seed}", dir.display()).into()
            );
        }
    }
    Ok(runs)
}

/// Pairs each workload's parent and change runs by seed, in seed order.
/// Fails when a run has no partner or a pair measured different windows.
fn pair<'a>(parent: &'a Runs, change: &'a Runs) -> Result<Vec<(&'a str, Pairs<'a>)>, String> {
    if let Some(w) = change.keys().find(|w| !parent.contains_key(*w)) {
        return Err(format!("{w}: results on the change side only"));
    }
    let mut out = Vec::new();
    for (workload, parent_runs) in parent {
        let change_runs = change.get(workload).ok_or(format!("{workload}: no change results"))?;
        let unpaired: Vec<u64> = parent_runs
            .keys()
            .filter(|s| !change_runs.contains_key(s))
            .chain(change_runs.keys().filter(|s| !parent_runs.contains_key(s)))
            .copied()
            .collect();
        if !unpaired.is_empty() {
            return Err(format!("{workload}: seeds {unpaired:?} have results on one side only"));
        }
        let mut pairs = Vec::new();
        for (seed, p) in parent_runs {
            let c = &change_runs[seed];
            if p.seconds != c.seconds {
                return Err(format!(
                    "{workload} seed {seed}: windows of {} s and {} s",
                    p.seconds, c.seconds
                ));
            }
            pairs.push((p, c));
        }
        out.push((workload.as_str(), pairs));
    }
    Ok(out)
}

/// Bound and direction of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Bounds, Box<dyn Error>> {
    let doc = json::parse(
        &std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run compare from the repository root): {e}"))?,
    )?;
    let mut out = Vec::new();
    for metric in doc.get("end_to_end").map(Value::as_array).unwrap_or_default() {
        let name = metric.get("name").and_then(Value::as_str).ok_or("a metric without a name")?;
        let bound =
            metric.get("bound").and_then(Value::as_f64).ok_or("a metric without a bound")?;
        let better = metric
            .get("better")
            .and_then(Value::as_str)
            .and_then(Better::parse)
            .ok_or("bad 'better'")?;
        out.push((name.to_string(), Bound::Relative(bound), better));
    }
    Ok(out)
}

pub fn main(args: Vec<String>) -> Result<(), Box<dyn Error>> {
    let [parent, change] = args.as_slice() else {
        return Err("usage: perf compare PARENT_DIR CHANGE_DIR".into());
    };
    let (parent, change) = (load(Path::new(parent))?, load(Path::new(change))?);
    let mut bounds = bounds()?;
    bounds.push(("error_share".into(), Bound::Absolute(0.0), Better::Lower));
    println!(
        "{:<20} {:<20} {:>5} {:>30} {:>30} {:>5}  verdict",
        "metric", "workload", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for (workload, runs) in pair(&parent, &change)? {
        let parent_failed: f64 = runs.iter().map(|(p, _)| p.failed).sum();
        let change_failed: f64 = runs.iter().map(|(_, c)| c.failed).sum();
        let errors_rose = change_failed > parent_failed;
        for (metric, bound, better) in &bounds {
            let value = |run: &RunFile| match metric.as_str() {
                "error_share" => Some(run.error_share()),
                name => run.metrics.get(name).copied(),
            };
            let pairs: Option<Vec<(f64, f64)>> =
                runs.iter().map(|(p, c)| Some((value(p)?, value(c)?))).collect();
            let pairs = pairs.ok_or(format!("{workload}: a run without {metric}"))?;
            let (parent_values, change_values): (Vec<f64>, Vec<f64>) =
                pairs.iter().copied().unzip();
            let (Some((verdict, wins)), Some(p), Some(c)) = (
                judge(&pairs, *bound, *better),
                Side::of(&parent_values),
                Side::of(&change_values),
            ) else {
                println!(
                    "{metric:<20} {workload:<20} {:>5}  (needs at least two pairs)",
                    pairs.len()
                );
                continue;
            };
            regressed |= verdict == Verdict::Regressed;
            let label = if verdict == Verdict::Gain && errors_rose {
                "gain withheld: more requests failed"
            } else {
                verdict.label()
            };
            let side = |s: &Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{metric:<20} {workload:<20} {:>5} {:>30} {:>30} {:>4.0}%  {label}",
                pairs.len(),
                side(&p),
                side(&c),
                wins * 100.0,
            );
        }
    }
    if regressed {
        println!("at least one metric regressed beyond its bound");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(workload: &str, seeds: &[u64], seconds: f64) -> Runs {
        let side = seeds.iter().map(|&s| (s, RunFile { seconds, ..RunFile::default() })).collect();
        Runs::from([(workload.to_string(), side)])
    }

    #[test]
    fn runs_pair_by_seed_and_unpaired_or_mismatched_runs_fail() {
        // Seed 10 sorts after seed 2, and both sides pair seed for seed.
        let (p, c) = (runs("w", &[10, 2, 3], 12.0), runs("w", &[3, 10, 2], 12.0));
        let paired = pair(&p, &c).unwrap();
        assert_eq!(paired.len(), 1);
        assert_eq!(paired[0].1.len(), 3);
        let err = pair(&p, &runs("w", &[2, 3, 11], 12.0)).unwrap_err();
        assert!(err.contains("[10, 11]"), "{err}");
        assert!(pair(&p, &runs("w", &[2, 3], 12.0)).is_err(), "unequal counts");
        assert!(pair(&p, &runs("w", &[2, 3, 10], 10.0)).is_err(), "different windows");
        assert!(pair(&p, &runs("v", &[2, 3, 10], 12.0)).is_err(), "another workload");
    }
}
