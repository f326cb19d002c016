//! The outside-in layer ledger of a traced run: after each whole operation
//! the same input is replayed one public call at a time, each call under a
//! span, so a push's time is reconciled against its layers and whatever no
//! layer claims is reported as `adaptive-config.unattributed_ms`.

use crate::adapter::{
    self, CodecId, CodecScratch, Decomposition, Field, InSituPipeline, Reader, ServerStats,
    SnapshotRecord,
};
use crate::catalog::{Ingest, PER_LAYER, REDSHIFTS, STEP_CYCLE};
use crate::host;
use crate::rounds::{ClientLog, Runner, MIB};
use crate::run::{Measured, Options};
use crate::setup::{splitmix, tenant_config};
use crate::stats;
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const GIB: f64 = (1u64 << 30) as f64;
/// `read_container_into` probes per pattern per traced round.
const CONTAINER_PROBES: usize = 64;

/// The sample series of one codec backend (layer names are crate names).
struct CodecSeries {
    compress: &'static str,
    /// Computed bytes moved (field in + payload out) per second: the
    /// numerator of `bw_frac`, never reported itself.
    computed: &'static str,
    decompress: &'static str,
    payload: &'static str,
    bw_frac: &'static str,
}

const SERIES: [CodecSeries; 2] = [
    CodecSeries {
        compress: "rsz.compress_mibps",
        computed: "rsz.compress_computed_gibps",
        decompress: "rsz.decompress_mibps",
        payload: "rsz.payload_bytes",
        bw_frac: "rsz.compress_bw_frac",
    },
    CodecSeries {
        compress: "zfplite.compress_mibps",
        computed: "zfplite.compress_computed_gibps",
        decompress: "zfplite.decompress_mibps",
        payload: "zfplite.payload_bytes",
        bw_frac: "zfplite.compress_bw_frac",
    },
];

fn slot(codec: CodecId) -> usize {
    match codec {
        CodecId::Rsz => 0,
        CodecId::Zfp => 1,
    }
}

/// Seconds and field bytes a codec's kernels took, per backend.
type Decoded = [(f64, usize); 2];

#[derive(Debug)]
pub struct Ledger {
    pub rec: Recorder,
    origin: Instant,
    /// Samples by series name; most are per-layer metric names.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Whole-push median of every untraced and of every traced round.
    pub untraced_push_p50: Vec<f64>,
    pub traced_push_p50: Vec<f64>,
    bandwidth: Option<host::Bandwidth>,
    scratch: CodecScratch,
}

impl Ledger {
    pub fn new(origin: Instant) -> Self {
        Self {
            rec: Recorder::new(origin),
            origin,
            samples: BTreeMap::new(),
            untraced_push_p50: Vec::new(),
            traced_push_p50: Vec::new(),
            bandwidth: None,
            scratch: CodecScratch::default(),
        }
    }

    /// The time axis client-thread recorders share with this one.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// One caller's whole-push times of the round just run.
    pub fn round_pushes(&mut self, traced: bool, push_ms: &[f64]) {
        let p50 = stats::median(push_ms);
        if traced {
            self.traced_push_p50.push(p50);
            self.samples.entry("push_whole_ms").or_default().extend(push_ms);
        } else {
            self.untraced_push_p50.push(p50);
            self.samples.entry("push_untraced_ms").or_default().extend(push_ms);
        }
    }

    pub fn sample(&mut self, series: &'static str, value: f64) {
        self.samples.entry(series).or_default().push(value);
    }

    fn sample_decoded(&mut self, decoded: Decoded) {
        for (series, (secs, bytes)) in SERIES.iter().zip(decoded) {
            if bytes > 0 {
                self.sample(series.decompress, bytes as f64 / MIB / secs);
            }
        }
    }

    fn timed<R>(&mut self, series: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let (out, ms) = self.rec.span(series, op, f);
        self.sample(series, ms);
        (out, ms)
    }

    /// Re-enact one accepted push on `field`, layer by layer.
    pub fn replay_push(
        &mut self,
        op: u64,
        pipeline: &InSituPipeline,
        dec: &Decomposition,
        field: &Field,
        record: &SnapshotRecord,
        push_ms: f64,
    ) {
        let ledger = self.rec.enter("ledger", op);
        let (_, summarize) =
            self.timed("gridlab.summarize_ms", op, || adapter::summarize_sigma(field));
        let (features, features_ms) = self.timed("adaptive-config.features_ms", op, || {
            adapter::extract_features(pipeline, field)
        });
        let (_, optimize) = self.timed("adaptive-config.optimize_ms", op, || {
            adapter::optimize(pipeline, &features, record.stats.eb_avg)
        });
        let (bricks, extract) =
            self.timed("gridlab.extract_ms", op, || adapter::extract_bricks(field, dec));

        // The codec kernels alone: serial, per brick, reused scratch.
        let plan = || record.result.ebs.iter().zip(&record.result.codecs);
        let span = self.rec.enter("kernel.compress", op);
        let mut payloads = Vec::with_capacity(bricks.len());
        let mut kernel = [(0.0f64, 0usize, 0usize); 2];
        for (brick, (&eb, &codec)) in bricks.iter().zip(plan()) {
            let t = Instant::now();
            let payload = adapter::kernel_compress(codec, brick, eb, &mut self.scratch);
            let acc = &mut kernel[slot(codec)];
            acc.0 += t.elapsed().as_secs_f64();
            acc.1 += brick.len() * 4;
            acc.2 += payload.len();
            payloads.push((codec, payload));
        }
        let kernel_ms = self.rec.exit(span);
        for (series, (secs, bytes_in, bytes_out)) in SERIES.iter().zip(kernel) {
            if bytes_in > 0 {
                self.sample(series.compress, bytes_in as f64 / MIB / secs);
                self.sample(series.computed, (bytes_in + bytes_out) as f64 / GIB / secs);
            }
            self.sample(series.payload, bytes_out as f64);
        }

        // The same bricks through the container wrapper: the difference is
        // the wrap (header, checksum, copy, telemetry).
        let (wrapped, container_ms) = self.rec.span("codec-core.container", op, || {
            bricks
                .iter()
                .zip(plan())
                .map(|(brick, (&eb, &codec))| adapter::container_compress(codec, brick, eb).len())
                .sum::<usize>()
        });
        std::hint::black_box(wrapped);
        self.sample("codec-core.wrap_us", (container_ms - kernel_ms) * 1e3 / bricks.len() as f64);

        let payload_bytes: usize = payloads.iter().map(|(_, p)| p.len()).sum();
        let (digest, fnv_ms) = self.rec.span("codec-core.fnv", op, || {
            payloads.iter().fold(0u64, |acc, (_, p)| acc ^ adapter::fnv(p))
        });
        std::hint::black_box(digest);
        self.sample("codec-core.fnv_mibps", payload_bytes as f64 / MIB / (fnv_ms / 1e3));

        let span = self.rec.enter("kernel.decompress", op);
        let mut decoded = Decoded::default();
        for (codec, payload) in &payloads {
            let t = Instant::now();
            if let Ok(brick) = adapter::kernel_decompress(*codec, payload, &mut self.scratch) {
                let acc = &mut decoded[slot(*codec)];
                acc.0 += t.elapsed().as_secs_f64();
                acc.1 += brick.len() * 4;
            }
        }
        self.rec.exit(span);
        self.sample_decoded(decoded);

        let (_, drift) = self.timed("adaptive-config.drift_ms", op, || {
            adapter::drift_residuals(record, pipeline).len()
        });
        self.rec.exit(ledger);

        let compress_wall = record.stats.timings.compress.as_secs_f64() * 1e3;
        let claimed = summarize + features_ms + optimize + compress_wall + drift;
        self.sample("adaptive-config.unattributed_ms", push_ms - claimed);
        self.sample("gridlab.par_speedup", (extract + container_ms) / compress_wall);
        self.sample("adaptive-config.drift_residual", record.stats.drift_residual);
        let (rsz, zfp) = adapter::codec_counts(record);
        self.sample("adaptive-config.partitions_rsz", rsz as f64);
        self.sample("adaptive-config.partitions_zfp", zfp as f64);
    }

    /// Re-enact the read side: container reads in both access patterns,
    /// then one cold and one hot frame decoded step by step.
    pub fn replay_read(
        &mut self,
        reader: &Reader,
        dec: &Decomposition,
        frames: usize,
        newest: usize,
        rng: &mut u64,
    ) {
        let partitions = dec.num_partitions();
        let mut buf = Vec::new();
        let patterns = [
            ("codec-core.read_container_cold_us", frames),
            ("codec-core.read_container_hot_us", newest),
        ];
        for (series, span) in patterns {
            for _ in 0..CONTAINER_PROBES {
                let r = splitmix(rng);
                let f = frames - 1 - (r % span as u64) as usize;
                let p = (r >> 32) as usize % partitions;
                let t = Instant::now();
                if adapter::read_container_into(reader, f, p, &mut buf).is_ok() {
                    self.sample(series, t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        for frame in [0, frames - 1] {
            let op = frame as u64;
            let whole = self.rec.enter("read_frame", op);
            let mut bricks = Vec::with_capacity(partitions);
            let mut decoded = Decoded::default();
            for p in 0..partitions {
                if adapter::read_container_into(reader, frame, p, &mut buf).is_err() {
                    continue;
                }
                let bytes = std::mem::take(&mut buf);
                let (parsed, ms) =
                    self.rec.span("codec-core.verify", op, || adapter::container_from_bytes(bytes));
                self.sample("codec-core.verify_us", ms * 1e3);
                let Ok(container) = parsed else { continue };
                let t = Instant::now();
                let codec = container.codec();
                let brick = adapter::kernel_decompress(
                    codec,
                    adapter::payload(&container),
                    &mut self.scratch,
                );
                if let Ok(brick) = brick {
                    let acc = &mut decoded[slot(codec)];
                    acc.0 += t.elapsed().as_secs_f64();
                    acc.1 += brick.len() * 4;
                    bricks.push(brick);
                }
            }
            self.sample_decoded(decoded);
            let (assembled, _) =
                self.timed("gridlab.assemble_ms", op, || adapter::assemble(dec, &bricks));
            std::hint::black_box(assembled.is_ok());
            self.rec.exit(whole);
        }
    }

    /// The restart's two halves alone: the recovery scan and the restore.
    pub fn replay_restart(&mut self, torn: &Path, torn_bytes: &[u8], ckpt: &[u8]) {
        let ckpt_file = adapter::ckpt_path(torn);
        if std::fs::write(torn, torn_bytes).is_err() || std::fs::write(&ckpt_file, ckpt).is_err() {
            return;
        }
        let (kept, ms) = self.rec.span("codec-core.recover", 0, || adapter::recover_scan(torn));
        if kept.is_ok() {
            self.sample("codec-core.recover_mibps", torn_bytes.len() as f64 / MIB / (ms / 1e3));
        }
        let (session, ms) = self.rec.span("adaptive-config.restore", 0, || {
            std::fs::read(&ckpt_file)
                .map_err(|e| e.to_string())
                .and_then(|b| adapter::restore_session(&b))
        });
        let Ok(session) = session else { return };
        self.sample("adaptive-config.restore_us", ms * 1e3);
        let probe = torn.with_extension("ckpt-probe");
        let (saved, ms) = self
            .rec
            .span("adaptive-config.checkpoint", 0, || adapter::save_checkpoint(&session, &probe));
        if saved.is_ok() {
            self.sample("adaptive-config.checkpoint_us", ms * 1e3);
        }
    }

    /// `compact_stream_file` taken apart: every `CompactionTask::step` timed.
    pub fn replay_retier(&mut self, work: &Path, base: &[u8], horizon: usize, eb: f64) {
        if std::fs::write(work, base).is_err() {
            return;
        }
        let Ok((writer, Some(mut task))) = adapter::begin_file_compaction(work, horizon, eb) else {
            return;
        };
        let whole = self.rec.enter("compact", 0);
        let mut frame = 0;
        loop {
            let (done, ms) = self
                .rec
                .span("codec-core.compact_frame", frame, || adapter::compaction_step(&mut task));
            self.sample("codec-core.compact_frame_ms", ms);
            frame += 1;
            if !matches!(done, Ok(false)) {
                break;
            }
        }
        self.rec.exit(whole);
        // Dropped unfinalised: the task removes its temp file, `work` is scratch.
        drop((writer, task));
    }

    /// Fold one server client's traced pushes in.
    pub fn server_client(&mut self, log: &mut ClientLog) {
        if let Some(rec) = log.rec.take() {
            self.rec.absorb(rec);
        }
        for &ms in &log.admission_ms {
            self.sample("stream-server.admission_us", ms * 1e3);
        }
        for &d in &log.drift {
            self.sample("adaptive-config.drift_residual", d);
        }
    }

    /// Fold one server round's own counters in.
    pub fn server_round(&mut self, stats: &ServerStats, close_ms: f64, write_amp: f64) {
        self.sample("stream-server.service_p50_ms", stats.push_service.p50 as f64 / 1e6);
        self.sample("stream-server.compaction_steps", stats.compaction_steps as f64);
        self.sample("stream-server.refresh_steps", stats.refresh_steps as f64);
        self.sample("stream-server.overloaded", stats.overloaded as f64);
        self.sample("stream-server.degraded", stats.degraded as f64);
        self.sample("stream-server.checkpoint_failures", stats.checkpoint_failures as f64);
        self.sample("stream-server.close_ms", close_ms);
        self.sample("codec-core.write_amp", write_amp);
    }

    fn median(&self, series: &str) -> f64 {
        self.samples.get(series).map_or(0.0, |v| stats::median(v))
    }

    /// Close the ledger: the one-off layer timings, the host roofline, and
    /// every per-layer metric in catalogue order (0 where the workload never
    /// entered the layer).
    pub fn finish(&mut self, runner: &Runner, opts: &Options, pk_max_dev: f64) -> Vec<Measured> {
        let spec = runner.spec;
        let written = &runner.p.written;
        let store = &written[0];
        let seed = opts.seed;

        // Layers set-up already timed while writing the store.
        self.sample("adaptive-config.calibrate_ms", store.calibrate_ms);
        self.sample("codec-core.finish_ms", store.finish_ms);
        for &ms in written.iter().flat_map(|w| &w.append_ms) {
            self.sample("codec-core.append_ms", ms);
        }
        for &n in &runner.s.refreshes {
            self.sample("adaptive-config.refreshes", n);
        }
        self.sample("codec-core.compact_shrink", store.shrink);

        let traced_push = self.median("push_whole_ms");
        if spec.ingest == Ingest::Server {
            let direct: Vec<f64> = written.iter().flat_map(|w| w.push_ms.iter().copied()).collect();
            self.sample("stream-server.overhead_ms", traced_push - stats::median(&direct));
            let service = self.median("stream-server.service_p50_ms");
            self.sample("stream-server.queue_wait_ms", traced_push - service);
            // The layers under the server, which no caller can see from
            // outside: tenant 0's first pushes replayed through a plain
            // session, then the hop tenant's with refreshes handed back as
            // steps.
            let (cfg, _) = tenant_config(&spec, &runner.dec, &runner.p.inputs, 0);
            let mut session = adapter::new_session(cfg);
            for k in 0..=2 * STEP_CYCLE.len() {
                let field = runner.p.inputs.field(0, k);
                let t = Instant::now();
                let Ok(record) = adapter::push(&mut session, field) else { continue };
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if k > 0 {
                    self.replay_push(
                        k as u64,
                        adapter::pipeline(&session),
                        &runner.dec,
                        field,
                        &record,
                        ms,
                    );
                }
            }
            let last = written.len() - 1;
            let (cfg, _) = tenant_config(&spec, &runner.dec, &runner.p.inputs, last);
            let mut session = adapter::new_session(cfg);
            for k in 0..=2 * spec.hop_every {
                let field = runner.p.inputs.field(last, k);
                if let Ok((_, steps)) = adapter::push_deferred_stepped(&mut session, field) {
                    for ms in steps {
                        self.sample("adaptive-config.refresh_step_ms", ms);
                    }
                }
            }
        }

        // Analysis kernels on one verified frame: verification cost only.
        let frame = runner.p.inputs.field(0, spec.frames - 1);
        self.timed("fftlite.fft3_ms", 0, || adapter::fft3_forward(frame));
        self.timed("cosmoanalysis.power_spectrum_ms", 0, || adapter::power_spectrum(frame).len());
        self.timed("cosmoanalysis.halo_ms", 0, || adapter::find_halos(frame));
        let (_, ms) = self.rec.span("nyxlite.generate", 0, || {
            adapter::nyx_generate(spec.n, seed, spec.field, REDSHIFTS[0]).len()
        });
        self.sample("nyxlite.generate_s", ms / 1e3);

        let bw = host::measure_bandwidth(if opts.smoke { 1 << 20 } else { host::ARRAY_CAP });
        self.sample("host.memcpy_gibps", bw.memcpy_gibps);
        self.sample("host.triad_gibps", bw.triad_gibps);
        self.sample("host.cache_assisted", f64::from(u8::from(bw.cache_assisted)));
        self.bandwidth = Some(bw);
        for series in &SERIES {
            let frac =
                if bw.cache_assisted { 0.0 } else { self.median(series.computed) / bw.triad_gibps };
            self.sample(series.bw_frac, frac);
        }
        if host::parallelism() == 1 {
            // One core cannot show a parallel speed-up: unmeasured, not 1.0.
            self.samples.insert("gridlab.par_speedup", vec![0.0]);
        }
        self.sample("cosmoanalysis.pk_max_dev", pk_max_dev);
        let untraced_pushes =
            self.samples.get("push_untraced_ms").map_or(&[][..], |v| v.as_slice());
        let p90 = stats::p90(untraced_pushes).0;
        self.sample("harness.push_p90_ms", p90);
        // Quietest round of each kind, as the end-to-end metrics read it.
        let (untraced, traced) =
            (stats::min(&self.untraced_push_p50), stats::min(&self.traced_push_p50));
        self.sample("harness.push_untraced_ms", untraced);
        self.sample("harness.push_traced_ms", traced);
        self.sample("harness.trace_overhead_ms", traced - untraced);

        PER_LAYER
            .iter()
            .map(|m| Measured::of(m, self.samples.get(m.name).map_or(&[][..], |v| v.as_slice())))
            .collect()
    }

    /// For the operator: what the bandwidth kernels ran over, and where the
    /// traced time went by span (self time = span − children).
    pub fn notes(&self) -> Vec<String> {
        let kib = |b: u64| format!("{} KiB", b / 1024);
        let caches: Vec<String> = host::cache_sizes().into_iter().map(kib).collect();
        let arrays = self.bandwidth.map_or_else(String::new, |bw| {
            format!(
                "; bandwidth arrays {} each, LLC {}{}",
                kib(bw.array_bytes),
                kib(bw.llc_bytes),
                if bw.cache_assisted { " -> cache-assisted, *_bw_frac omitted" } else { "" }
            )
        });
        let host = format!(
            "host: {} cores, caches [{}], simd {}{arrays}",
            host::parallelism(),
            caches.join(", "),
            adapter::simd_backend()
        );
        let mut own: Vec<(&str, f64)> = self
            .rec
            .self_ms_by_name()
            .into_iter()
            .map(|(name, v)| (name, v.iter().sum()))
            .collect();
        own.sort_by(|a, b| b.1.total_cmp(&a.1));
        let total: f64 = own.iter().map(|(_, ms)| ms).sum();
        let top: Vec<String> = own
            .iter()
            .take(8)
            .map(|(name, ms)| format!("{name} {:.1} %", 100.0 * ms / total.max(f64::MIN_POSITIVE)))
            .collect();
        vec![host, format!("traced self time: {}", top.join(", "))]
    }
}
