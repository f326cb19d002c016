//! What sysbench measures: the four workloads, the end-to-end metrics with
//! their bounds, the per-layer metrics with the end-to-end metric each
//! should move. `BENCHMARK.json` at the repo root must agree with these
//! tables name for name (a test below checks it).

use crate::adapter::{CodecId, FieldKind};

/// How a workload's pushes reach storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// One in-memory `StreamSession`; containers are dropped.
    Memory,
    /// One session appending to a stream file on the caller's thread.
    Durable,
    /// `StreamServer`, 2 workers, queue 8, 4 durable tenants, 2 client
    /// threads × 2 tenants; tenant 3 hops amplitude every `hop_every`.
    Server,
}

pub const SERVER_TENANTS: usize = 4;
pub const SERVER_CLIENTS: usize = 2;
pub const SERVER_WORKERS: usize = 2;
pub const SERVER_QUEUE: usize = 8;
/// Auto-checkpoint cadence and the server tenants' hot horizon.
pub const CHECKPOINT_EVERY: usize = 8;
/// Cold frames are re-compressed at `COLD_SIGMA`·σ of the series' first field.
pub const COLD_SIGMA: f64 = 0.8;
/// Every series visits four adjacent redshifts in a 6-step ping-pong, so
/// adjacent pushes are adjacent redshifts.
pub const REDSHIFTS: [f64; 4] = [54.0, 51.0, 48.0, 45.0];
pub const STEP_CYCLE: [usize; 6] = [0, 1, 2, 3, 2, 1];
/// Every `STATIC_EVERY`-th push of a caller is paired with a static
/// compress. Coprime with the 6-step cycle, so six consecutive pairs visit
/// every step once (every 4th would only ever pair two of the redshifts).
pub const STATIC_EVERY: usize = 5;
/// Six consecutive pairs of a caller are one visit of every step of the
/// cycle: the unit `ratio_gain_vs_static` is counted over.
pub const PAIR_GROUP: usize = 6;
/// Quiet-window length for partition reads: fits inside one round of every
/// workload and is long enough for a steady median.
pub const PART_WINDOW: usize = 128;
/// `run_seconds` of `BENCHMARK.json`: how long one workload measures when
/// `--seconds` is not given.
pub const RUN_SECONDS: u64 = 20;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One workload: an operating point and the op counts of one round. The
/// measured scale is fixed here, not by flags; `--seconds` only decides how
/// many identical rounds run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Grid edge and partition edge in cells.
    pub n: usize,
    pub brick: usize,
    pub field: FieldKind,
    pub codecs: &'static [CodecId],
    /// P(k)+halo mode (`with_halo(2.2·mean, 1e6)`) or FFT-only.
    pub halo: bool,
    pub ingest: Ingest,
    /// Steady pushes per round (per tenant under `Ingest::Server`).
    pub pushes: usize,
    /// Consecutive pushes of one caller a quiet window holds: whole cycles,
    /// so every window prices the same mix of fields.
    pub push_window: usize,
    /// Frames of the primed store the read / restart / re-tier phases use,
    /// and how many of them stay hot. `frames - 1` is a multiple of
    /// `CHECKPOINT_EVERY`, so the store's checkpoint describes exactly the
    /// prefix a tear in the last frame leaves.
    pub frames: usize,
    pub horizon: usize,
    /// `reconstruct_partition` calls per pattern (uniform, newest) per round.
    pub part_reads: usize,
    /// Crash-restarts per round.
    pub restarts: usize,
    /// Pushes between tenant 3's amplitude hops.
    pub hop_every: usize,
}

const RSZ: &[CodecId] = &[CodecId::Rsz];

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "insitu_steady",
        why: "128^3 density, 512 rsz partitions of 16^3, P(k)+halo mode, in memory: codec kernels and the three pre-compress field walks do nearly all the work, server and file layers almost none.",
        n: 128,
        brick: 16,
        field: FieldKind::BaryonDensity,
        codecs: RSZ,
        halo: true,
        ingest: Ingest::Memory,
        pushes: 12,
        frames: 9,
        horizon: 4,
        part_reads: 128,
        hop_every: 64,
        push_window: 12,
        restarts: 2,
    },
    Spec {
        name: "insitu_small_mixed",
        why: "64^3 temperature, 512 partitions of 8^3, both codecs: per-partition fixed costs (brick copy, Huffman table, wrap+FNV, codec choice) dominate; a kernel gain barely shows, a per-brick gain shows first.",
        n: 64,
        brick: 8,
        field: FieldKind::Temperature,
        codecs: &CodecId::ALL,
        halo: false,
        ingest: Ingest::Memory,
        pushes: 48,
        frames: 17,
        horizon: 8,
        part_reads: 256,
        hop_every: 64,
        push_window: 12,
        restarts: 4,
    },
    Spec {
        name: "server_durable",
        why: "4 durable 32^3 tenants behind StreamServer, 2 blocking clients: admission, queue hop, idle tiers, append, flush and checkpoints are most of a push; kernel gains barely move it, worker-loop gains do.",
        n: 32,
        brick: 16,
        field: FieldKind::Temperature,
        codecs: RSZ,
        halo: false,
        ingest: Ingest::Server,
        pushes: 128,
        frames: 129,
        horizon: CHECKPOINT_EVERY,
        part_reads: 256,
        hop_every: 64,
        push_window: 48,
        restarts: 16,
    },
    Spec {
        name: "posthoc_store",
        why: "49-frame 64^3 mixed-codec tiered stream: scans, random reads (uniform ones thrash the 16-frame manifest window), crash recovery and re-tiering dominate, so a write-side gain that costs reads shows.",
        n: 64,
        brick: 8,
        field: FieldKind::Temperature,
        codecs: &CodecId::ALL,
        halo: false,
        ingest: Ingest::Durable,
        pushes: 24,
        frames: 49,
        horizon: 16,
        part_reads: 1000,
        hop_every: 64,
        push_window: 12,
        restarts: 4,
    },
];

impl Spec {
    /// The `cargo test` scale: 8³ in eight bricks and a handful of ops, same
    /// code paths (a debug build compresses 16³ ten times slower).
    pub fn smoke(mut self) -> Self {
        self.brick = 4;
        self.n = 8;
        self.pushes = if self.ingest == Ingest::Server { CHECKPOINT_EVERY } else { 6 };
        self.restarts = 1;
        self.frames = CHECKPOINT_EVERY + 1;
        self.horizon = 3;
        self.part_reads = 8;
        self.hop_every = 3;
        self
    }

    /// Quiet-window length for the paired pushes and their static
    /// compresses: whole pair groups, half as many samples as a push window.
    pub fn pair_window(&self) -> usize {
        self.push_window / 2
    }

    pub fn field_bytes(&self) -> usize {
        self.n * self.n * self.n * 4
    }

    pub fn partitions(&self) -> usize {
        (self.n / self.brick).pow(3)
    }

    /// Caller threads the harness itself runs (the program's rayon fan-out
    /// and server workers are its own business).
    pub fn callers(&self) -> usize {
        if self.ingest == Ingest::Server {
            SERVER_CLIENTS
        } else {
            1
        }
    }
}

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: share of the parent's median it may worsen by.
    pub bound: Option<f64>,
    /// End-to-end: definition. Per-layer: the public call timed, then the
    /// end-to-end metric and workload it should move.
    pub about: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    about: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), about }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    about: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, about }
}

use Better::{Higher, Lower};

/// Measured with tracing off; every workload reports every one, and none
/// ever reads 0. Timings are read from the run's quietest window (see
/// `run::Measured::quietest`). `push_p90_ms` and `pk_max_dev` were demoted
/// to per-layer metrics: neither can be held inside a bound on this host
/// (see README, "What was demoted").
pub const END_TO_END: [MetricDef; 13] = [
    e2e("setup_s", "s", Lower, 0.25, "input generation + cold calibration + priming the store; median of the run's set-ups"),
    e2e("push_p50_ms", "ms", Lower, 0.25, "caller-observed time of one steady push (field clone outside the timer): median of the quietest window of consecutive pushes"),
    e2e("ingest_mibps", "MiB/s", Higher, 0.25, "uncompressed field bytes pushed per second the callers are blocked: callers x field bytes / mean push time of the quietest window"),
    e2e("adaptive_overhead_ms", "ms", Lower, 0.25, "paired push - static compress of the same field at the mean assigned bound, each the median of its quietest window of pairs: what adaptivity (and, behind the server, service) costs on top of compressing; absolute so a faster codec does not worsen it"),
    e2e("compression_ratio", "x", Higher, 0.15, "uncompressed bytes / stored bytes of one round's ingest (containers in memory, final file bytes where durable); exact per seed"),
    e2e("ratio_gain_vs_static", "x", Higher, 0.06, "adaptive ratio / static ratio at the matched mean bound, over the paired pushes; exact per seed"),
    e2e("max_err_over_bound", "ratio", Lower, 0.01, "max over verified partitions of pointwise error / assigned bound after decode; above 1+1e-9 is a failed op; exact per seed"),
    e2e("read_mibps", "MiB/s", Higher, 0.25, "decoded field bytes / time of open + reconstruct_frame over every frame of the tiered store, each frame at its quietest read"),
    e2e("read_part_p50_us", "us", Lower, 0.25, "median reconstruct_partition, uniform over all frames of the tiered store, quietest window"),
    e2e("recover_ms", "ms", Lower, 0.25, "torn stream -> recover -> restore -> first accepted durable push returns; quietest restart"),
    e2e("compact_mibps", "MiB/s", Higher, 0.25, "field bytes re-tiered / compact_stream_file time on a fresh un-compacted copy; quietest round"),
    e2e("ok_frac", "frac", Higher, 0.001, "1 - failed/attempted ops (typed errors incl. Overloaded, bound violations, identity mismatches); the never-zero form of failed_frac"),
    e2e("peak_rss_mib", "MiB", Lower, 0.20, "VmHWM of the workload's process"),
];

/// From the traced run. Zero on a workload that never enters the layer.
pub const PER_LAYER: [MetricDef; 61] = [
    layer("gridlab.summarize_ms", "ms", Lower, "stats::summarize(field) -> adaptive_overhead_ms @ insitu_steady"),
    layer("gridlab.extract_ms", "ms", Lower, "sum of Field3::extract over partitions -> adaptive_overhead_ms, push_p50_ms @ insitu_small_mixed"),
    layer("gridlab.assemble_ms", "ms", Lower, "Decomposition::assemble per frame -> read_mibps @ posthoc_store"),
    layer("gridlab.par_speedup", "x", Higher, "serial (extract + Container::compress) replay / reported timings.compress; 0 = unmeasured on one core -> ingest_mibps @ insitu_steady"),
    layer("adaptive-config.features_ms", "ms", Lower, "InSituPipeline::extract_features -> adaptive_overhead_ms @ insitu_steady"),
    layer("adaptive-config.optimize_ms", "ms", Lower, "Optimizer::optimize -> adaptive_overhead_ms @ insitu_small_mixed (2 codecs x 512)"),
    layer("adaptive-config.drift_ms", "ms", Lower, "session::drift_residuals -> adaptive_overhead_ms @ insitu_*"),
    layer("adaptive-config.unattributed_ms", "ms", Lower, "whole push - (summarize + features + optimize + reported compress wall + drift): non-finite screen, policy resolve, result assembly, history -> adaptive_overhead_ms @ insitu_*"),
    layer("adaptive-config.calibrate_ms", "ms", Lower, "the cold first push -> setup_s"),
    layer("adaptive-config.refresh_step_ms", "ms", Lower, "push_snapshot_deferred + RefreshTask::step, median step -> push_p90_ms @ server_durable"),
    layer("adaptive-config.refreshes", "count", Lower, "refreshes of one round's sessions (exact) -> push_p90_ms @ server_durable; 0 on insitu_*"),
    layer("adaptive-config.drift_residual", "ratio", Lower, "median SnapshotStats::drift_residual of the traced pushes -> explains refreshes"),
    layer("adaptive-config.checkpoint_us", "us", Lower, "StreamSession::save_to -> push_p90_ms @ server_durable"),
    layer("adaptive-config.restore_us", "us", Lower, "read checkpoint + StreamSession::restore -> recover_ms"),
    layer("adaptive-config.partitions_rsz", "count", Higher, "codec_counts() of one push (exact) -> explains compression_ratio"),
    layer("adaptive-config.partitions_zfp", "count", Higher, "codec_counts() of one push (exact) -> explains compression_ratio"),
    layer("rsz.compress_mibps", "MiB/s", Higher, "serial per-brick CodecId::Rsz.compress_slice_with, reused scratch, field bytes / time -> push_p50_ms, ingest_mibps @ insitu_steady; compact_mibps; ~none @ server_durable"),
    layer("rsz.decompress_mibps", "MiB/s", Higher, "serial CodecId::Rsz.decompress_slice_with -> read_mibps, compact_mibps @ posthoc_store"),
    layer("rsz.payload_bytes", "B", Lower, "rsz payload bytes of one push (exact) -> compression_ratio"),
    layer("rsz.compress_bw_frac", "frac", Higher, "computed bytes (field in + payload out) / time, over host.triad_gibps; 0 when the triad is cache-assisted"),
    layer("zfplite.compress_mibps", "MiB/s", Higher, "same through CodecId::Zfp -> push_p50_ms @ insitu_small_mixed; 0 @ insitu_steady"),
    layer("zfplite.decompress_mibps", "MiB/s", Higher, "same through CodecId::Zfp -> read_mibps @ posthoc_store"),
    layer("zfplite.payload_bytes", "B", Lower, "zfp payload bytes of one push (exact) -> compression_ratio"),
    layer("zfplite.compress_bw_frac", "frac", Higher, "as rsz.compress_bw_frac"),
    layer("codec-core.wrap_us", "us", Lower, "per container: Container::compress - kernel replay -> push_p50_ms @ insitu_small_mixed"),
    layer("codec-core.fnv_mibps", "MiB/s", Higher, "fnv1a64(payload) -> push_p50_ms @ insitu_small_mixed, read_part_p50_us"),
    layer("codec-core.verify_us", "us", Lower, "Container::from_bytes per stored container -> read_part_p50_us"),
    layer("codec-core.append_ms", "ms", Lower, "StreamFileWriter::append_frame (+ cadence checkpoint) -> push_p50_ms @ server_durable"),
    layer("codec-core.finish_ms", "ms", Lower, "StreamFileWriter::finish -> stream-server.close_ms"),
    layer("codec-core.open_us", "us", Lower, "StreamFileReader::open -> read_mibps"),
    layer("codec-core.read_container_hot_us", "us", Lower, "read_container_into over the newest frames (manifest window fits) -> read_part_p50_us"),
    layer("codec-core.read_container_cold_us", "us", Lower, "read_container_into uniform over all frames (window thrashes @ posthoc_store) -> read_part_p50_us, read_mibps"),
    layer("codec-core.recover_mibps", "MiB/s", Higher, "StreamFileWriter::recover, stream bytes / time -> recover_ms"),
    layer("codec-core.compact_frame_ms", "ms", Lower, "CompactionTask::step, median frame -> compact_mibps"),
    layer("codec-core.compact_shrink", "x", Higher, "bytes_before / bytes_after of the store's re-tiering (exact) -> compression_ratio @ server_durable"),
    layer("codec-core.write_amp", "x", Lower, "/proc/self/io wchar over the durable ingest / final stored bytes -> ingest_mibps @ server_durable"),
    layer("stream-server.admission_us", "us", Lower, "try_push return -> push_p50_ms @ server_durable"),
    layer("stream-server.overhead_ms", "ms", Lower, "server push median - the same pushes through a plain session + writer on the caller thread -> push_p50_ms, ingest_mibps @ server_durable; 0 elsewhere"),
    layer("stream-server.service_p50_ms", "ms", Lower, "stats().push_service p50 (log-bucketed) -> push_p50_ms @ server_durable"),
    layer("stream-server.queue_wait_ms", "ms", Lower, "observed median - service p50 -> push_p90_ms @ server_durable"),
    layer("stream-server.compaction_steps", "count", Lower, "stats() over one round (idle-driven, varies) -> explains ingest_mibps"),
    layer("stream-server.refresh_steps", "count", Lower, "stats() over one round (idle-driven, varies) -> push_p90_ms @ server_durable"),
    layer("stream-server.overloaded", "count", Lower, "stats() -> ok_frac"),
    layer("stream-server.degraded", "count", Lower, "stats(); ladder is off, must read 0"),
    layer("stream-server.checkpoint_failures", "count", Lower, "stats() -> ok_frac"),
    layer("stream-server.register_ms", "ms", Lower, "register, median tenant -> setup_s"),
    layer("stream-server.close_ms", "ms", Lower, "closing the round's tenants: drain + final re-tier + finish; beside ingest_mibps"),
    layer("fftlite.fft3_ms", "ms", Lower, "Fft3::forward on a verified frame; verification cost only, a baseline for analysis-side work"),
    layer("cosmoanalysis.power_spectrum_ms", "ms", Lower, "power_spectrum on a verified frame; verification cost only"),
    layer("cosmoanalysis.halo_ms", "ms", Lower, "find_halos on a verified frame; verification cost only"),
    layer("telemetry.render_us", "us", Lower, "metrics().render_prometheus() before shutdown; guards the exposition cost"),
    layer("telemetry.series", "count", Lower, "lines of that exposition"),
    layer("nyxlite.generate_s", "s", Lower, "NyxConfig::generate at the workload's grid -> setup_s"),
    layer("host.memcpy_gibps", "GiB/s", Higher, "harness copy kernel, bytes read + written; denominator only"),
    layer("host.triad_gibps", "GiB/s", Higher, "harness a = b + s*c kernel, 3 arrays; denominator of *_bw_frac"),
    layer("host.cache_assisted", "count", Lower, "1 when the bandwidth arrays were under 4 x LLC (then *_bw_frac are 0)"),
    layer("cosmoanalysis.pk_max_dev", "ratio", Lower, "max over k<10 and the store's hot frames of |P'(k)/P(k) - 1| (paper target 0.01); exact per seed but moves 30-60 % between seeds, so no bound can hold it"),
    layer("harness.push_p90_ms", "ms", Lower, "90th percentile over the traced run's untraced pushes; the host's bursts land in it (20 % between runs), so it is reported, not bounded"),
    layer("harness.push_untraced_ms", "ms", Lower, "whole-push median of the quietest untraced round of the traced run"),
    layer("harness.push_traced_ms", "ms", Lower, "whole-push median of the quietest round under the span recorder"),
    layer("harness.trace_overhead_ms", "ms", Lower, "traced - untraced: what tracing costs"),
];

/// `sysbench list`.
pub fn print_list() {
    println!("workloads (closed loops; callers <= 2):");
    for s in &SPECS {
        println!("  {:<20} {}", s.name, s.why);
    }
    println!("\nend-to-end metrics (tracing off; every workload reports all):");
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        println!(
            "  {:<22} {:>6} {:>6}-is-better  may worsen {:>5.1} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            bound * 100.0,
            m.about
        );
    }
    println!("\nper-layer metrics (traced run) -> what each should move:");
    for m in &PER_LAYER {
        println!("  {:<36} {:>6} {:>6}-is-better  {}", m.name, m.unit, m.better.as_str(), m.about);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
        serde::field(v.as_map().expect("object"), key).unwrap_or_else(|e| panic!("{key}: {e}"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    /// `BENCHMARK.json` and the tables above name the same things.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc: Value = serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("valid JSON");
        let keys: Vec<&str> = doc.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(get(&doc, "run_seconds").as_f64(), Some(RUN_SECONDS as f64));
        let paths: Vec<&str> = get(&doc, "paths").as_seq().unwrap().iter().map(text).collect();
        assert_eq!(paths, ["crates/bench/src/bin/sysbench"]);

        let workloads = get(&doc, "workloads").as_seq().unwrap();
        assert_eq!(workloads.len(), SPECS.len());
        for (w, s) in workloads.iter().zip(&SPECS) {
            assert_eq!(text(get(w, "name")), s.name);
            assert_eq!(text(get(w, "why")), s.why);
            assert!(
                valid_name(s.name) && s.why.len() <= 200 && !s.why.contains('\n'),
                "{}",
                s.name
            );
        }

        let mut seen = BTreeSet::new();
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = get(&doc, key).as_seq().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}: count differs");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(text(get(j, "name")), m.name, "{key}");
                assert_eq!(text(get(j, "unit")), m.unit, "{}", m.name);
                assert_eq!(text(get(j, "better")), m.better.as_str(), "{}", m.name);
                assert_eq!(j.as_map().unwrap().len(), if m.bound.is_some() { 4 } else { 3 });
                if let Some(bound) = m.bound {
                    assert_eq!(get(j, "bound").as_f64(), Some(bound), "{}", m.name);
                    assert!((0.0..=0.25).contains(&bound), "{}", m.name);
                }
                assert!(valid_name(m.name), "bad metric name {:?}", m.name);
                assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
                assert!(seen.insert(m.name), "{} is listed twice", m.name);
            }
        }
        for s in &SPECS {
            assert!(seen.insert(s.name), "{} names a workload and a metric", s.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn specs_keep_the_store_and_cycle_invariants() {
        for s in SPECS.iter().copied().chain(SPECS.iter().map(|s| s.smoke())) {
            assert_eq!(s.n % s.brick, 0, "{}", s.name);
            assert!(s.partitions() >= 2, "{}", s.name);
            assert_eq!((s.frames - 1) % CHECKPOINT_EVERY, 0, "{}", s.name);
            assert!(s.horizon < s.frames, "{}", s.name);
            if s.ingest != Ingest::Server {
                assert_eq!(s.pushes % STEP_CYCLE.len(), 0, "{}: rounds are whole cycles", s.name);
                assert_eq!(s.push_window % STEP_CYCLE.len(), 0, "{}: windows too", s.name);
                assert_eq!(s.pair_window() % PAIR_GROUP, 0, "{}: and pair windows", s.name);
            } else {
                assert_eq!(s.frames, s.pushes + 1, "{}: the store is tenant 0's stream", s.name);
            }
            assert!(s.callers() <= 2);
        }
        assert!(spec("posthoc_store").is_some() && spec("nope").is_none());
    }
}
