//! One workload from set-up to verdict: set up (several times, for a
//! median), run identical rounds until `--seconds` are used, verify, and
//! read the metrics off the samples.

use crate::adapter;
use crate::catalog::{Better, MetricDef, Spec, END_TO_END, PART_WINDOW, SETUPS};
use crate::host::{self, Scratch};
use crate::ledger::Ledger;
use crate::rounds::{Caller, Runner, MIB};
use crate::setup::set_up;
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `cargo test` scale.
    pub smoke: bool,
    pub out: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles of the samples behind `value` (the noise floor inside
    /// one run) and their count; all equal to `value` for exact counts.
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Measured {
    pub fn exact(def: &MetricDef, value: f64) -> Self {
        Self { name: def.name, unit: def.unit, value, q1: value, q3: value, samples: 1 }
    }

    /// Median and quartiles of `samples`.
    pub fn of(def: &MetricDef, samples: &[f64]) -> Self {
        let s = stats::sorted(samples);
        Self {
            name: def.name,
            unit: def.unit,
            value: stats::quantile_sorted(&s, 0.5),
            q1: stats::quantile_sorted(&s, 0.25),
            q3: stats::quantile_sorted(&s, 0.75),
            samples: s.len(),
        }
    }

    /// The quietest stretch of the run. The host's interference only ever
    /// adds time and comes in bursts (co-tenants on the memory system move
    /// a whole run's median by 20 %), so of all windows of consecutive
    /// samples the best one is the steadiest estimate of the undisturbed
    /// cost. The quartiles across windows say how disturbed the run was.
    pub fn quietest(def: &MetricDef, per_window: &[f64]) -> Self {
        let s = stats::sorted(per_window);
        let best = match def.better {
            Better::Lower => s.first(),
            Better::Higher => s.last(),
        };
        Self { value: best.copied().unwrap_or(0.0), ..Self::of(def, per_window) }
    }
}

#[derive(Debug)]
pub struct Outcome {
    pub spec: Spec,
    pub seed: u64,
    pub trace: bool,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the operator.
    pub failures: Vec<String>,
    /// End-to-end metrics (tracing off) or per-layer metrics (tracing on).
    pub metrics: Vec<Measured>,
    pub op_counts: BTreeMap<&'static str, u64>,
    pub notes: Vec<String>,
    pub ledger: Option<Ledger>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// `stat` of every window over every caller's series.
fn windows(
    callers: &[Caller],
    w: usize,
    series: fn(&Caller) -> &[f64],
    stat: fn(&[f64]) -> f64,
) -> Vec<f64> {
    callers.iter().flat_map(|c| stats::windows(series(c), w, stat)).collect()
}

/// The end-to-end metrics, in catalogue order.
fn end_to_end(runner: &Runner, setup_s: &[f64], worst: f64) -> Vec<Measured> {
    let (spec, s) = (runner.spec, &runner.s);
    let def = |name: &str| END_TO_END.iter().find(|m| m.name == name).expect("catalogued");
    let quietest = |name: &str, per_window: &[f64]| Measured::quietest(def(name), per_window);
    let exact = |name: &str, v: f64| Measured::exact(def(name), v);
    let first = |v: &[f64]| v.first().copied().unwrap_or(0.0);

    let push = windows(&s.callers, spec.push_window, |c| &c.push_ms, stats::median);
    // Closed loop, callers always blocked in a push: throughput is callers
    // over mean latency (Little's law), read from the same quiet windows.
    let per_push_mib = (spec.callers() * spec.field_bytes()) as f64 / MIB;
    let ingest: Vec<f64> = windows(&s.callers, spec.push_window, |c| &c.push_ms, stats::mean)
        .iter()
        .map(|ms| per_push_mib / (ms / 1e3))
        .collect();
    // Push and static floors are each read from their own quietest window:
    // a difference taken pair by pair keeps the noise of both.
    let paired = windows(&s.callers, spec.pair_window(), |c| &c.paired_push_ms, stats::median);
    let fixed = windows(&s.callers, spec.pair_window(), |c| &c.static_ms, stats::median);
    let by_window: Vec<f64> = paired.iter().zip(&fixed).map(|(p, f)| p - f).collect();
    let mut overhead = Measured::of(def("adaptive_overhead_ms"), &by_window);
    overhead.value = stats::min(&paired) - stats::min(&fixed);

    // A scan is a fixed sequence of independent reads, so its undisturbed
    // cost is the sum over frames of each frame's quietest read in any scan.
    // (Whole scans are many tiny parallel decodes, the op the host's
    // scheduler noise hits hardest: the quietest whole scan spread 13-22 %
    // over ten runs, this 6 %.)
    let scan_mib = (spec.frames * spec.field_bytes()) as f64 / MIB;
    let per_scan: Vec<f64> =
        s.scans.iter().map(|scan| scan_mib / (scan.iter().sum::<f64>() / 1e3)).collect();
    let floor_ms: f64 = (0..spec.frames)
        .map(|f| stats::min(&s.scans.iter().map(|scan| scan[f]).collect::<Vec<_>>()))
        .sum();
    let mut read = Measured::of(def("read_mibps"), &per_scan);
    read.value = if floor_ms > 0.0 { scan_mib / (floor_ms / 1e3) } else { 0.0 };
    let part = stats::windows(&s.part_uniform_us, PART_WINDOW, stats::median);
    let ok = 1.0 - s.failed as f64 / s.attempted.max(1) as f64;
    vec![
        Measured::of(def("setup_s"), setup_s),
        quietest("push_p50_ms", &push),
        quietest("ingest_mibps", &ingest),
        overhead,
        exact("compression_ratio", first(&s.ratio)),
        exact("ratio_gain_vs_static", runner.ratio_gain()),
        exact("max_err_over_bound", worst),
        read,
        quietest("read_part_p50_us", &part),
        quietest("recover_ms", &s.recover_ms),
        quietest("compact_mibps", &s.compact_mibps),
        exact("ok_frac", ok),
        exact("peak_rss_mib", host::peak_rss_mib()),
    ]
}

pub fn run_workload(spec: Spec, opts: &Options) -> Result<Outcome, String> {
    let spec = if opts.smoke { spec.smoke() } else { spec };
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let scratch = Scratch::create(&opts.out).map_err(|e| e.to_string())?;
    let dec = adapter::decomposition(spec.n, spec.brick);

    // Set-up runs several times so `setup_s` is a median, not one draw;
    // only the last result is kept (earlier ones are dropped first, so the
    // peak resident set is that of one set-up).
    let setups = if opts.trace {
        1
    } else if opts.smoke {
        2
    } else {
        SETUPS
    };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..setups {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(set_up(&spec, &dec, opts.seed, &scratch)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut runner = Runner::new(spec, dec, &scratch, prepared.expect("set up"), opts.seed);

    // Identical rounds until the time is used; at least two, so the
    // exact-repeat check has something to compare. A traced run alternates
    // untraced and traced rounds: the tracing overhead is read between them.
    let started = Instant::now();
    let mut rounds = 0;
    let mut ledger = opts.trace.then(|| Ledger::new(started));
    while rounds < 2 || started.elapsed().as_secs_f64() < opts.seconds {
        let before: Vec<usize> = runner.s.callers.iter().map(|c| c.push_ms.len()).collect();
        if rounds % 2 == 1 {
            runner.ledger = ledger.take();
        }
        runner.round();
        let traced = runner.ledger.is_some();
        ledger = runner.ledger.take().or(ledger);
        if let Some(l) = ledger.as_mut() {
            for (c, before) in runner.s.callers.iter().zip(before) {
                l.round_pushes(traced, &c.push_ms[before..]);
            }
        }
        rounds += 1;
    }
    let (worst, pk_dev) = runner.verify(opts.trace);

    let mut notes = Vec::new();
    let metrics = match ledger.as_mut() {
        Some(l) => l.finish(&runner, opts, pk_dev),
        None => {
            let s = &runner.s;
            notes.push(format!(
                "{rounds} rounds; {} pushes ({} paired), {} frame reads, {} uniform partition reads, {} restarts",
                s.callers.iter().map(|c| c.push_ms.len()).sum::<usize>(),
                s.callers.iter().map(|c| c.static_ms.len()).sum::<usize>(),
                s.scans.len() * spec.frames,
                s.part_uniform_us.len(),
                s.recover_ms.len()
            ));
            notes.push(format!(
                "timings are the quietest window's (pushes {}, pairs {}, partition reads \
                 {PART_WINDOW}) or op's (each frame read, restart, re-tier); [q1 .. q3] over all",
                spec.push_window,
                spec.pair_window()
            ));
            end_to_end(&runner, &setup_s, worst)
        }
    };
    let s = &runner.s;
    Ok(Outcome {
        spec,
        seed: opts.seed,
        trace: opts.trace,
        rounds,
        attempted: s.attempted,
        failed: s.failed,
        failures: s.failures.clone(),
        metrics,
        op_counts: s.op_counts.clone(),
        notes,
        ledger,
    })
}
