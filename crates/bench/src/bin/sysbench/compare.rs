//! `sysbench compare`: parent runs against change runs, one row per
//! metric × workload, judged by the bounds the catalogue fixes.

use crate::catalog::{Better, END_TO_END};
use crate::stats::{quartiles, Quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Fewest decided pairs `improved` is ever handed out over.
const MIN_PAIRS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Spread wider than the bound and the two sides' runs overlap: the
    /// benchmark cannot tell.
    Unresolved,
    /// Per-layer metrics carry no bound and get no verdict.
    Unjudged,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unjudged => "-",
        }
    }
}

/// One side's runs of one metric on one workload, in file order.
#[derive(Debug, Default, Clone)]
struct Side {
    values: Vec<f64>,
    unit: String,
}

#[derive(Debug, Default)]
struct Runs {
    /// Keyed by (workload, metric); `[parent, change]`.
    metrics: BTreeMap<(String, String), [Side; 2]>,
    /// Keyed by workload: summed `[attempted, failed]` per side.
    ops: BTreeMap<String, [[u64; 2]; 2]>,
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    serde::field(v.as_map().ok_or("expected an object")?, key).map_err(|e| e.to_string())
}

fn string(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

fn count(v: &Value) -> Result<u64, String> {
    v.as_f64().map(|f| f as u64).ok_or_else(|| "expected a count".to_owned())
}

fn load(runs: &mut Runs, side: usize, body: &str) -> Result<(), String> {
    let doc: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    for w in get(&doc, "workloads")?.as_seq().ok_or("workloads is not a list")? {
        let workload = string(get(w, "name")?)?.to_owned();
        let ops = runs.ops.entry(workload.clone()).or_default();
        ops[side][0] += count(get(w, "attempted")?)?;
        ops[side][1] += count(get(w, "failed")?)?;
        for m in get(w, "metrics")?.as_seq().ok_or("metrics is not a list")? {
            let key = (workload.clone(), string(get(m, "name")?)?.to_owned());
            let entry = &mut runs.metrics.entry(key).or_default()[side];
            entry.values.push(get(m, "value")?.as_f64().ok_or("value is not a number")?);
            entry.unit = string(get(m, "unit")?)?.to_owned();
        }
    }
    Ok(())
}

/// The bound of an end-to-end metric, `None` for per-layer ones.
fn bound_of(metric: &str) -> Option<(f64, Better)> {
    END_TO_END.iter().find(|m| m.name == metric).and_then(|m| Some((m.bound?, m.better)))
}

/// How much worse `change` is than `parent`, as a share of `parent`
/// (negative when better).
fn worse_by(parent: f64, change: f64, better: Better) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (change - parent) / parent.abs(),
        Better::Higher => (parent - change) / parent.abs(),
    }
}

pub fn judge(parent: &[f64], change: &[f64], bound: f64, better: Better) -> Verdict {
    let (p, c) = (quartiles(parent), quartiles(change));
    let beats = |a: f64, b: f64| worse_by(b, a, better) < 0.0;
    let every =
        |f: &dyn Fn(f64, f64) -> bool| change.iter().all(|&x| parent.iter().all(|&y| f(x, y)));
    let apart = every(&|x, y| beats(x, y)) || every(&|x, y| beats(y, x));
    if p.spread().max(c.spread()) > bound && !apart {
        return Verdict::Unresolved;
    }
    let worse = worse_by(p.median, c.median, better);
    if worse > bound {
        return Verdict::Regressed;
    }
    // A gain: the change wins nine tenths of the pairs (ties count for
    // neither) and the medians differ by more than the parent's own spread —
    // over at least `MIN_PAIRS` pairs, or one lucky run reads as a gain.
    let pairs = parent.iter().zip(change);
    let wins = pairs.clone().filter(|(&y, &x)| beats(x, y)).count();
    let decided = pairs.filter(|(y, x)| x != y).count();
    let clear = (c.median - p.median).abs() > (p.q3 - p.q1).abs();
    if worse < 0.0 && decided >= MIN_PAIRS && wins * 10 >= decided * 9 && clear {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn cell(q: &Quartiles) -> String {
    format!("{:.5} [{:.5} .. {:.5}] n={}", q.median, q.q1, q.q3, q.n)
}

/// Returns true when something regressed or more operations failed.
fn render(runs: &Runs) -> bool {
    let mut bad = false;
    println!(
        "{:<20} {:<34} {:<44} {:<44} {:<38} verdict",
        "workload",
        "metric",
        "parent: median [q1 .. q3]",
        "change: median [q1 .. q3]",
        "change / parent (base)"
    );
    for ((workload, metric), [parent, change]) in &runs.metrics {
        if parent.values.is_empty() || change.values.is_empty() {
            println!("{workload:<20} {metric:<34} present on one side only");
            continue;
        }
        let (p, c) = (quartiles(&parent.values), quartiles(&change.values));
        let verdict = match bound_of(metric) {
            Some((bound, better)) => judge(&parent.values, &change.values, bound, better),
            None => Verdict::Unjudged,
        };
        bad |= verdict == Verdict::Regressed;
        let ratio =
            if p.median == 0.0 { "n/a".to_owned() } else { format!("{:.4}", c.median / p.median) };
        let base = format!("{ratio} (base {:.5} {})", p.median, parent.unit);
        println!(
            "{workload:<20} {metric:<34} {:<44} {:<44} {base:<38} {}",
            cell(&p),
            cell(&c),
            verdict.as_str()
        );
    }
    for (workload, [[pa, pf], [ca, cf]]) in &runs.ops {
        let frac = |failed: u64, attempted: u64| failed as f64 / attempted.max(1) as f64;
        let rose = frac(*cf, *ca) > frac(*pf, *pa);
        bad |= rose;
        println!(
            "{workload:<20} failed ops: parent {pf} of {pa}, change {cf} of {ca}{}",
            if rose { "  <- failed_frac rose" } else { "" }
        );
    }
    bad
}

pub fn main(files: &[String]) -> ExitCode {
    if files.len() < 2 || !files.len().is_multiple_of(2) {
        eprintln!("sysbench compare: give result files in pairs: PARENT.json CHANGE.json ...");
        return ExitCode::from(2);
    }
    let mut runs = Runs::default();
    for (i, path) in files.iter().enumerate() {
        let loaded = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|body| load(&mut runs, i % 2, &body));
        if let Err(e) = loaded {
            eprintln!("sysbench compare: {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if render(&runs) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_pairs() {
        let scale = |f: f64| STEADY.map(|v| v * f);
        // 20 % slower on a lower-is-better metric with a 10 % bound.
        assert_eq!(judge(&STEADY, &scale(1.2), 0.10, Better::Lower), Verdict::Regressed);
        // ... which is an improvement when higher is better.
        assert_eq!(judge(&STEADY, &scale(1.2), 0.10, Better::Higher), Verdict::Improved);
        assert_eq!(judge(&STEADY, &scale(0.8), 0.10, Better::Lower), Verdict::Improved);
        // 3 % worse is inside the bound.
        assert_eq!(judge(&STEADY, &scale(1.03), 0.10, Better::Lower), Verdict::Unchanged);
        assert_eq!(judge(&STEADY, &STEADY, 0.10, Better::Lower), Verdict::Unchanged);
        // Spread wider than the bound and overlapping runs: cannot tell.
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            judge(&noisy, &noisy.map(|v| v * 1.3), 0.10, Better::Lower),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        assert_eq!(judge(&noisy, &noisy.map(|v| v * 0.2), 0.10, Better::Lower), Verdict::Improved);
        // A single pair can regress, but never reads as a gain.
        assert_eq!(judge(&[10.0], &[12.0], 0.10, Better::Lower), Verdict::Regressed);
        assert_eq!(judge(&[10.0], &[5.0], 0.10, Better::Lower), Verdict::Unchanged);
    }

    fn doc(push_ms: f64, failed: u64) -> String {
        format!(
            r#"{{"schema":"sysbench-results-v1","workloads":[{{"name":"insitu_steady","attempted":100,
            "failed":{failed},"metrics":[{{"name":"push_p50_ms","unit":"ms","value":{push_ms}}},
            {{"name":"rsz.compress_mibps","unit":"MiB/s","value":200.0}}]}}]}}"#
        )
    }

    #[test]
    fn files_load_in_pairs_and_regressions_or_new_failures_fail_the_comparison() {
        let load_pairs = |pairs: &[(String, String)]| {
            let mut runs = Runs::default();
            for (parent, change) in pairs {
                load(&mut runs, 0, parent).unwrap();
                load(&mut runs, 1, change).unwrap();
            }
            runs
        };
        let clean = load_pairs(&[(doc(50.0, 0), doc(50.5, 0)), (doc(50.2, 0), doc(49.9, 0))]);
        let key = ("insitu_steady".to_owned(), "push_p50_ms".to_owned());
        assert_eq!(clean.metrics[&key][0].values, [50.0, 50.2]);
        assert_eq!(clean.metrics[&key][1].values, [50.5, 49.9]);
        assert!(!render(&clean));
        assert!(render(&load_pairs(&[(doc(50.0, 0), doc(70.0, 0))])), "40 % slower push regresses");
        assert!(render(&load_pairs(&[(doc(50.0, 0), doc(50.0, 1))])), "a new failed op fails it");
        assert!(load(&mut Runs::default(), 0, "{}").is_err());
    }
}
