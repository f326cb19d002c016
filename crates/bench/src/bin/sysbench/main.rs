//! `sysbench` — the system benchmark: four workloads, fifteen end-to-end
//! metrics, an outside-in layer ledger. See `README.md` beside this file.
//!
//! ```text
//! sysbench run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
//! sysbench compare PARENT.json CHANGE.json [PARENT2.json CHANGE2.json …]
//! sysbench list
//! ```

mod adapter;
mod catalog;
mod compare;
mod host;
mod ledger;
mod report;
mod rounds;
mod run;
mod setup;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sysbench run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]\n\
         \x20      sysbench compare PARENT.json CHANGE.json [PARENT2.json CHANGE2.json ...]\n\
         \x20      sysbench list"
    );
    ExitCode::from(2)
}

/// Results land under the build directory unless `--out` says otherwise —
/// never under a tracked path.
fn default_out() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("sysbench")
}

struct RunArgs {
    workload: Option<String>,
    opts: run::Options,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        opts: run::Options {
            seed: 42,
            seconds: catalog::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            out: default_out(),
        },
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.opts.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => parsed.opts.out = PathBuf::from(value("--out")?),
            // Bare `--trace` or `--trace 1` turn tracing on; `--trace 0` off.
            "--trace" => {
                parsed.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(parsed.opts.seconds >= 0.0 && parsed.opts.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(parsed)
}

/// One workload in this process: measure, print, write, and end with the
/// one-line JSON verdict.
fn run_one(name: &str, opts: &run::Options) -> ExitCode {
    let Some(spec) = catalog::spec(name) else {
        eprintln!("sysbench: no workload {name:?}; see `sysbench list`");
        return ExitCode::from(2);
    };
    match run::run_workload(spec, opts) {
        Ok(outcome) => {
            report::print(&outcome);
            if let Err(e) = report::write(&outcome, opts) {
                eprintln!("sysbench: cannot write results: {e}");
                return ExitCode::FAILURE;
            }
            println!("{}", report::verdict_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sysbench: {name}: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload, each in a fresh child process so peak memory and warm
/// state never leak from one into the next.
fn run_all(args: &[String], opts: &run::Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sysbench: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for spec in &catalog::SPECS {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(["--workload", spec.name])
            .args(args)
            .status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("sysbench: workload {} did not complete", spec.name);
            failed = true;
        }
    }
    match report::merge(opts) {
        Ok(path) => println!("results: {}", path.display()),
        Err(e) => {
            eprintln!("sysbench: cannot merge results: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(RunArgs { workload: Some(name), opts }) => run_one(&name, &opts),
            Ok(RunArgs { workload: None, opts }) => run_all(rest, &opts),
            Err(e) => {
                eprintln!("sysbench: {e}");
                usage()
            }
        },
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        Some((cmd, [])) if cmd == "list" => {
            catalog::print_list();
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{END_TO_END, PER_LAYER, SPECS};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn run_arguments_parse_the_driver_form_and_the_bare_trace_flag() {
        let a =
            parse_run(&args("--workload posthoc_store --seed 7 --seconds 3 --trace 0")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("posthoc_store"));
        assert_eq!((a.opts.seed, a.opts.seconds, a.opts.trace), (7, 3.0, false));
        assert!(parse_run(&args("--trace 1")).unwrap().opts.trace);
        let bare = parse_run(&args("--trace --seed 9")).unwrap();
        assert!(bare.opts.trace && bare.opts.seed == 9 && bare.workload.is_none());
        assert_eq!(parse_run(&[]).unwrap().opts.seed, 42);
        assert!(parse_run(&args("--seed")).is_err());
        assert!(parse_run(&args("--seconds -1")).is_err());
        assert!(parse_run(&args("--frobnicate")).is_err());
    }

    fn smoke(seed: u64, trace: bool, tag: &str) -> run::Options {
        let out = std::env::temp_dir().join(format!("sysbench-smoke-{}-{tag}", std::process::id()));
        run::Options { seed, seconds: 0.0, trace, smoke: true, out }
    }

    /// Every workload end to end at smoke scale, untraced and traced: no
    /// failed op, every catalogued metric emitted under its own name, the
    /// results and span files written, nothing left in the scratch dir; the
    /// server tenant that hops amplitude refreshes, the steady loop never.
    #[test]
    fn every_workload_runs_clean_at_smoke_scale() {
        for spec in SPECS {
            for trace in [false, true] {
                let opts = smoke(42, trace, spec.name);
                let o =
                    run::run_workload(spec, &opts).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert_eq!(o.failed, 0, "{} trace={trace}: {:?}", spec.name, o.failures);
                assert!(o.attempted > 0 && o.correct() && o.rounds >= 2);
                let table = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
                let names: Vec<_> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
                let wanted: Vec<_> = table.iter().map(|m| (m.name, m.unit)).collect();
                assert_eq!(names, wanted, "{}", spec.name);
                assert!(
                    o.metrics.iter().all(|m| m.value.is_finite()),
                    "{}: {:?}",
                    spec.name,
                    o.metrics
                );
                let get = |n: &str| o.metrics.iter().find(|m| m.name == n).unwrap().value;
                if trace {
                    let fires = spec.name == "server_durable";
                    assert_eq!(get("adaptive-config.refreshes") > 0.0, fires, "{}", spec.name);
                    assert!(get("cosmoanalysis.pk_max_dev") > 0.0);
                } else {
                    // The contract wants end-to-end metrics that never read 0
                    // (at 16³ in a debug build the overhead is all noise).
                    let zero: Vec<_> = o
                        .metrics
                        .iter()
                        .filter(|m| m.value <= 0.0 && m.name != "adaptive_overhead_ms")
                        .collect();
                    assert!(zero.is_empty(), "{}: {zero:?}", spec.name);
                    assert!(get("max_err_over_bound") <= 1.0 + 1e-9);
                    assert_eq!(get("ok_frac"), 1.0);
                }
                report::write(&o, &opts).unwrap();
                let parsed: serde::Value = serde_json::from_str(&report::verdict_line(&o)).unwrap();
                let keys: Vec<_> =
                    parsed.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert!(report::results_path(&opts, spec.name).exists());
                assert_eq!(report::trace_path(&opts, spec.name).exists(), trace);
                let left: Vec<_> = std::fs::read_dir(&opts.out).unwrap().flatten().collect();
                assert!(
                    left.iter().all(|e| !e.file_name().to_string_lossy().starts_with("scratch-")),
                    "scratch directory left behind"
                );
                std::fs::remove_dir_all(&opts.out).unwrap();
            }
        }
    }

    /// Count-like metrics repeat exactly for one seed and move with another.
    #[test]
    fn exact_metrics_repeat_per_seed_and_move_with_the_seed() {
        let exact = ["compression_ratio", "ratio_gain_vs_static", "max_err_over_bound", "ok_frac"];
        let run = |seed, tag| {
            let opts = smoke(seed, false, tag);
            let o = run::run_workload(SPECS[1], &opts).unwrap();
            std::fs::remove_dir_all(&opts.out).unwrap();
            exact.map(|n| o.metrics.iter().find(|m| m.name == n).unwrap().value)
        };
        let (a, b, c) = (run(42, "rep-a"), run(42, "rep-b"), run(43, "rep-c"));
        assert_eq!(a, b, "same seed, same counts");
        assert_ne!(a[0], c[0], "another seed, other inputs");
    }

    /// The cheap series builder is the generator's own output, bit for bit.
    #[test]
    fn nyx_series_equals_the_generators_fields() {
        use adapter::FieldKind::{BaryonDensity, Temperature};
        for kind in [BaryonDensity, Temperature] {
            let series = adapter::nyx_series(16, 5, kind, &[54.0, 45.0]);
            assert_eq!(series[0], adapter::nyx_generate(16, 5, kind, 54.0));
            assert_eq!(series[1], adapter::nyx_generate(16, 5, kind, 45.0));
        }
        assert_ne!(
            adapter::nyx_series(16, 6, BaryonDensity, &[54.0])[0],
            adapter::nyx_series(16, 5, BaryonDensity, &[54.0])[0]
        );
    }
}
