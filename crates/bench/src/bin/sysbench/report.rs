//! What a run leaves behind: the table on stdout, the results JSON (and the
//! span file of a traced run) under `--out`, the one-line verdict.

use crate::catalog::SPECS;
use crate::host;
use crate::run::{Options, Outcome};
use serde::Value;
use std::path::PathBuf;

pub const SCHEMA: &str = "sysbench-results-v1";

fn suffix(trace: bool) -> &'static str {
    if trace {
        "-trace"
    } else {
        ""
    }
}

pub fn results_path(opts: &Options, workload: &str) -> PathBuf {
    opts.out.join(format!("results-{workload}{}.json", suffix(opts.trace)))
}

pub fn trace_path(opts: &Options, workload: &str) -> PathBuf {
    opts.out.join(format!("trace-{workload}.json"))
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// The last line of a run: `correct`, `attempted`, `failed` and every
/// metric of the run's kind with all its digits.
pub fn verdict_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            (m.name.to_owned(), map(vec![("value", Value::F64(m.value)), ("unit", text(m.unit))]))
        })
        .collect();
    let line = map(vec![
        ("correct", Value::Bool(o.correct())),
        ("attempted", Value::U64(o.attempted)),
        ("failed", Value::U64(o.failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always renders")
}

pub fn print(o: &Outcome) {
    let s = &o.spec;
    println!(
        "== {} (seed {}, {} rounds, {} caller{}, {}) ==",
        s.name,
        o.seed,
        o.rounds,
        s.callers(),
        if s.callers() == 1 { "" } else { "s" },
        if o.trace { "traced: per-layer metrics" } else { "tracing off: end-to-end metrics" }
    );
    println!("   {}", s.why);
    for m in &o.metrics {
        let spread = if m.samples > 1 {
            format!("[{:.6} .. {:.6}] n={}", m.q1, m.q3, m.samples)
        } else {
            String::new()
        };
        let unmeasured =
            m.name == "gridlab.par_speedup" && m.value == 0.0 && host::parallelism() == 1;
        if unmeasured {
            println!("  {:<36} {:>16} {:<6}", m.name, "unmeasured", m.unit);
        } else {
            println!("  {:<36} {:>16.6} {:<6} {spread}", m.name, m.value, m.unit);
        }
    }
    let ops: Vec<String> = o.op_counts.iter().map(|(k, n)| format!("{k} {n}")).collect();
    println!("  ops: {} attempted, {} failed ({})", o.attempted, o.failed, ops.join(", "));
    for note in &o.notes {
        println!("  {note}");
    }
    for note in o.ledger.iter().flat_map(|l| l.notes()) {
        println!("  {note}");
    }
    for f in &o.failures {
        println!("  FAILED {f}");
    }
}

fn workload_json(o: &Outcome) -> Value {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            map(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("value", Value::F64(m.value)),
                ("q1", Value::F64(m.q1)),
                ("q3", Value::F64(m.q3)),
                ("samples", Value::U64(m.samples as u64)),
            ])
        })
        .collect();
    map(vec![
        ("name", text(o.spec.name)),
        ("rounds", Value::U64(o.rounds as u64)),
        ("callers", Value::U64(o.spec.callers() as u64)),
        ("attempted", Value::U64(o.attempted)),
        ("failed", Value::U64(o.failed)),
        ("correct", Value::Bool(o.correct())),
        (
            "op_counts",
            Value::Map(
                o.op_counts.iter().map(|(k, n)| ((*k).to_owned(), Value::U64(*n))).collect(),
            ),
        ),
        ("metrics", Value::Seq(metrics)),
        ("notes", Value::Seq(o.notes.iter().chain(&o.failures).map(|n| text(n)).collect())),
    ])
}

fn document(opts: &Options, workloads: Vec<Value>) -> Value {
    map(vec![
        ("schema", text(SCHEMA)),
        ("commit", text(&host::commit())),
        ("available_parallelism", Value::U64(host::parallelism() as u64)),
        ("simd", text(crate::adapter::simd_backend())),
        ("seed", Value::U64(opts.seed)),
        ("seconds", Value::F64(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("workloads", Value::Seq(workloads)),
    ])
}

fn write_json(path: &PathBuf, doc: &Value) -> Result<(), String> {
    let body = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Results of one workload (and its spans, when traced) under `--out`.
pub fn write(o: &Outcome, opts: &Options) -> Result<(), String> {
    write_json(&results_path(opts, o.spec.name), &document(opts, vec![workload_json(o)]))?;
    if let Some(l) = &o.ledger {
        write_json(&trace_path(opts, o.spec.name), &l.rec.to_json())?;
    }
    Ok(())
}

/// After a run of every workload: the children's files folded into one
/// `results[-trace].json`, the form `compare` is usually fed.
pub fn merge(opts: &Options) -> Result<PathBuf, String> {
    let mut workloads = Vec::new();
    for spec in &SPECS {
        let path = results_path(opts, spec.name);
        let body =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))?;
        let listed =
            doc.as_map().and_then(|m| serde::field(m, "workloads").ok()).and_then(Value::as_seq);
        workloads
            .extend(listed.ok_or(format!("{}: no workloads", path.display()))?.iter().cloned());
    }
    let path = opts.out.join(format!("results{}.json", suffix(opts.trace)));
    write_json(&path, &document(opts, workloads))?;
    Ok(path)
}
