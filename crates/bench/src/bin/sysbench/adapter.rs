//! Every call sysbench makes into the product crates, and nothing else.
//!
//! Each layer is entered through the highest-level public function that
//! isolates it, so an API change in the product touches this one file (in a
//! benchmark-only PR). Typed product errors are flattened to `String`: the
//! harness only counts them as failed operations.

use std::path::{Path, PathBuf};

pub use adaptive_config::{
    CodecId, Container, InSituPipeline, PartitionFeature, PipelineResult, SessionConfig,
    SnapshotRecord, StreamSession,
};
pub use codec_core::{CodecScratch, CompactionReport, CompactionTask, StreamFileWriter};
pub use gridlab::{Decomposition, Dim3};
pub use nyxlite::FieldKind;
pub use stream_server::{ServerStats, TenantId};

pub type Field = gridlab::Field3<f32>;
pub type Reader = codec_core::StreamFileReader<codec_core::FileSource>;
pub type Server = stream_server::StreamServer<f32>;
pub type Res<T> = Result<T, String>;

fn flat<T, E: std::fmt::Display>(r: Result<T, E>) -> Res<T> {
    r.map_err(|e| e.to_string())
}

// ---- inputs -------------------------------------------------------------

/// One field at several redshifts with frozen phases — what
/// `NyxConfig::generate(z).field(kind)` returns, minus the five fields and
/// the repeated mode generation nobody pushes (10× cheaper at 128³; the
/// equivalence is pinned by a test).
pub fn nyx_series(n: usize, seed: u64, kind: FieldKind, redshifts: &[f64]) -> Vec<Field> {
    let cfg = nyxlite::NyxConfig::new(n, seed);
    let dims = Dim3::cube(n);
    let modes = nyxlite::grf::grf_modes(dims, &cfg.spectrum, seed);
    let delta = nyxlite::grf::field_from_modes(dims, &modes);
    let p = &cfg.params;
    redshifts
        .iter()
        .map(|&z| {
            let rho = nyxlite::fields::lognormal_density(
                &delta,
                p.rho_b_mean,
                p.bias_b * cfg.sigma_at(z),
            );
            match kind {
                FieldKind::BaryonDensity => rho.cast(),
                FieldKind::Temperature => {
                    nyxlite::fields::temperature_field(&rho, p.rho_b_mean, p, seed).cast()
                }
                other => panic!("sysbench pushes density or temperature, not {other}"),
            }
        })
        .collect()
}

/// The generator's own entry point (timed as `nyxlite.generate_s`).
pub fn nyx_generate(n: usize, seed: u64, kind: FieldKind, z: f64) -> Field {
    nyxlite::NyxConfig::new(n, seed).generate(z).field(kind).clone()
}

/// Two regimes of four fields each for the tenant whose amplitude hops: a
/// calm universe and a loud one with other modes (the `scenarios`
/// regime-shift recipe). Under `SigmaScaled` a hop is self-similar, so it
/// takes ×1200 to trip the default 0.5 drift threshold at every hop on
/// every seed tried (residual ≥ 1.0; the recipe's ×40 reads 0.45).
pub fn hop_series(n: usize, seed: u64) -> Vec<Field> {
    let creep = |i: usize| 1.0 + 0.03 * i as f64;
    let calm = (0..4).map(|i| scenarios::smooth_grf(n, seed, 0.1 * creep(i)));
    let loud = (0..4).map(|i| scenarios::smooth_grf(n, seed ^ 0x4242, 120.0 * creep(i)));
    calm.chain(loud).collect()
}

pub fn decomposition(n: usize, brick: usize) -> Decomposition {
    Decomposition::new(Dim3::cube(n), Dim3::cube(brick)).expect("brick edge divides the grid")
}

pub fn mean(field: &Field) -> f64 {
    gridlab::stats::mean(field.as_slice())
}

/// The session's first pre-compress walk (Welford σ).
pub fn summarize_sigma(field: &Field) -> f64 {
    gridlab::stats::summarize(field.as_slice()).std_dev()
}

// ---- session ------------------------------------------------------------

/// `SigmaScaled(0.1)`; `halo` is the boundary threshold of the paper's
/// P(k)+halo mode (mass-fault budget 1e6 — see the README sizing notes).
pub fn session_config(
    dec: &Decomposition,
    codecs: &[CodecId],
    halo: Option<f64>,
    checkpoint_every: usize,
) -> SessionConfig {
    let cfg = SessionConfig::new(dec.clone(), adaptive_config::QualityPolicy::SigmaScaled(0.1))
        .with_codecs(codecs)
        .with_checkpoint_every(checkpoint_every);
    match halo {
        Some(t_boundary) => cfg.with_halo(t_boundary, 1e6),
        None => cfg,
    }
}

pub fn new_session(cfg: SessionConfig) -> StreamSession {
    StreamSession::new(cfg)
}

pub fn push(session: &mut StreamSession, field: &Field) -> Res<SnapshotRecord> {
    flat(session.push_snapshot(field))
}

/// A push whose drift refresh is handed back as steps; returns the record
/// and the milliseconds of each `RefreshTask::step`.
pub fn push_deferred_stepped(
    session: &mut StreamSession,
    field: &Field,
) -> Res<(SnapshotRecord, Vec<f64>)> {
    let (record, task) = flat(session.push_snapshot_deferred(field))?;
    let mut steps = Vec::new();
    if let Some(mut task) = task {
        while !task.is_done() {
            let t = std::time::Instant::now();
            task.step();
            steps.push(t.elapsed().as_secs_f64() * 1e3);
        }
        session.install_refresh(task);
    }
    Ok((record, steps))
}

pub fn pipeline(session: &StreamSession) -> &InSituPipeline {
    session.pipeline().expect("set-up calibrated the session")
}

pub fn refreshes(session: &StreamSession) -> usize {
    session.refreshes()
}

/// The traditional baseline: the primary codec at one bound everywhere.
pub fn static_compress(pipeline: &InSituPipeline, field: &Field, eb: f64) -> PipelineResult {
    pipeline.run_traditional(field, eb)
}

pub fn reconstruct(result: &PipelineResult, dec: &Decomposition) -> Res<Field> {
    flat(result.reconstruct(dec))
}

pub fn save_checkpoint(session: &StreamSession, path: &Path) -> Res<u64> {
    flat(session.save_to(path))
}

pub fn restore_session(bytes: &[u8]) -> Res<StreamSession> {
    flat(StreamSession::restore(bytes))
}

// ---- the push's layers, one public call each ------------------------------

pub fn extract_features(pipeline: &InSituPipeline, field: &Field) -> Vec<PartitionFeature> {
    pipeline.extract_features(field)
}

/// `Optimizer::optimize` at the budget the push resolved.
pub fn optimize(pipeline: &InSituPipeline, features: &[PartitionFeature], eb_avg: f64) -> usize {
    let mut target = pipeline.config().target;
    target.eb_avg = eb_avg;
    pipeline.optimizer.optimize(features, &target).ebs.len()
}

pub fn drift_residuals(record: &SnapshotRecord, pipeline: &InSituPipeline) -> Vec<f64> {
    adaptive_config::session::drift_residuals(&record.result, &pipeline.optimizer.models)
}

/// `(rsz, zfp)` partitions of one push.
pub fn codec_counts(record: &SnapshotRecord) -> (usize, usize) {
    let count = |id| record.result.codecs.iter().filter(|&&c| c == id).count();
    (count(CodecId::Rsz), count(CodecId::Zfp))
}

pub fn extract_bricks(field: &Field, dec: &Decomposition) -> Vec<Field> {
    dec.iter().map(|p| field.extract(p.origin, p.dims)).collect()
}

pub fn brick_of(field: &Field, dec: &Decomposition, partition: usize) -> Field {
    let p = dec.partition(partition).expect("partition id in range");
    field.extract(p.origin, p.dims)
}

pub fn assemble(dec: &Decomposition, bricks: &[Field]) -> Res<Field> {
    flat(dec.assemble(bricks))
}

pub fn kernel_compress(codec: CodecId, brick: &Field, eb: f64, s: &mut CodecScratch) -> Vec<u8> {
    codec.compress_slice_with(brick.as_slice(), brick.dims(), eb, s)
}

pub fn kernel_decompress(codec: CodecId, payload: &[u8], s: &mut CodecScratch) -> Res<Field> {
    let (values, dims) = flat(codec.decompress_slice_with::<f32>(payload, s))?;
    flat(Field::from_vec(dims, values))
}

/// The codec payload inside a stored container (wrapper stripped).
pub fn payload(c: &Container) -> &[u8] {
    &c.as_bytes()[c.len() - c.payload_len()..]
}

pub fn container_compress(codec: CodecId, brick: &Field, eb: f64) -> Container {
    Container::compress(codec, brick.as_slice(), brick.dims(), eb)
}

/// Wrapper parse + structure checks of stored container bytes.
pub fn container_from_bytes(bytes: Vec<u8>) -> Res<Container> {
    flat(Container::from_bytes(bytes))
}

pub fn fnv(bytes: &[u8]) -> u64 {
    codec_core::fnv1a64(bytes)
}

// ---- stream files -----------------------------------------------------------

pub fn ckpt_path(stream: &Path) -> PathBuf {
    let mut os = stream.as_os_str().to_owned();
    os.push(".ckpt");
    PathBuf::from(os)
}

/// A plain `StreamSession` + `StreamFileWriter` on the caller's thread,
/// composed exactly as a server worker composes them: push, append,
/// auto-checkpoint to `<stream>.ckpt` at the session's cadence. It is both
/// the durable single-session ingest path and the server's oracle.
pub struct Durable {
    pub session: StreamSession,
    writer: StreamFileWriter,
    ckpt: PathBuf,
}

impl Durable {
    pub fn create(session: StreamSession, stream: &Path) -> Res<Self> {
        let partitions = session.config().dec.num_partitions();
        let writer = flat(StreamFileWriter::create(stream, partitions))?;
        Ok(Self { session, writer, ckpt: ckpt_path(stream) })
    }

    /// Restart after a crash: scan-recover the stream, restore the session
    /// from the checkpoint next to it. Returns the frames that survived.
    pub fn resume(stream: &Path) -> Res<(Self, usize)> {
        let (writer, report) = flat(StreamFileWriter::recover(stream))?;
        let ckpt = ckpt_path(stream);
        let session = restore_session(&flat(std::fs::read(&ckpt))?)?;
        Ok((Self { session, writer, ckpt }, report.frames_kept))
    }

    pub fn push(&mut self, field: &Field) -> Res<SnapshotRecord> {
        let record = push(&mut self.session, field)?;
        self.append(&record)?;
        Ok(record)
    }

    /// The persist half of a durable push.
    pub fn append(&mut self, record: &SnapshotRecord) -> Res<()> {
        flat(self.writer.append_frame(&record.result.containers))?;
        if self.session.should_checkpoint() {
            save_checkpoint(&self.session, &self.ckpt)?;
        }
        Ok(())
    }

    /// Completes the stream; hands the (still warm) session back.
    pub fn finish(self) -> Res<(StreamSession, u64)> {
        let len = flat(self.writer.finish())?;
        Ok((self.session, len))
    }
}

/// `compact_stream_file` taken apart so each `CompactionTask::step` can be
/// timed: recover the finished stream, begin a run.
pub fn begin_file_compaction(
    stream: &Path,
    horizon: usize,
    eb: f64,
) -> Res<(StreamFileWriter, Option<CompactionTask>)> {
    let (writer, _) = flat(StreamFileWriter::recover(stream))?;
    let task =
        flat(CompactionTask::begin(&writer, codec_core::CompactionConfig::new(horizon, eb)))?;
    Ok((writer, task))
}

pub fn compaction_step(task: &mut CompactionTask) -> Res<bool> {
    flat(task.step::<f32>())
}

/// `StreamFileWriter::recover` alone; returns frames kept.
pub fn recover_scan(stream: &Path) -> Res<usize> {
    flat(StreamFileWriter::recover(stream)).map(|(_, report)| report.frames_kept)
}

/// Re-tier a finished stream on disk past `horizon` at bound `eb`.
pub fn compact_file(stream: &Path, horizon: usize, eb: f64) -> Res<Option<CompactionReport>> {
    flat(codec_core::compact_stream_file::<f32>(
        stream,
        codec_core::CompactionConfig::new(horizon, eb),
    ))
}

pub fn open_reader(stream: &Path) -> Res<Reader> {
    flat(Reader::open(stream))
}

pub fn reader_shape(r: &Reader) -> (usize, usize, usize) {
    (r.frames(), r.partitions(), r.cold_frames())
}

pub fn reconstruct_frame(r: &Reader, frame: usize, dec: &Decomposition) -> Res<Field> {
    flat(r.reconstruct_frame::<f32>(frame, dec))
}

pub fn reconstruct_partition(r: &Reader, frame: usize, partition: usize) -> Res<Field> {
    flat(r.reconstruct_partition::<f32>(frame, partition))
}

pub fn read_container_into(r: &Reader, frame: usize, part: usize, buf: &mut Vec<u8>) -> Res<()> {
    flat(r.read_container_into(frame, part, buf))
}

// ---- server -------------------------------------------------------------------

/// Degrade ladder off: a push is served at full quality or refused.
pub fn start_server(workers: usize, queue_capacity: usize) -> Server {
    Server::start(stream_server::ServerConfig {
        workers,
        queue_capacity,
        degrade_threshold: 1.0,
        degrade_ladder: Vec::new(),
        global_budget: None,
    })
}

/// A durable tenant (`SyncPolicy::Flush`) re-tiered past `horizon` at `eb`
/// in batches of four.
pub fn register(
    server: &Server,
    session: SessionConfig,
    stream: &Path,
    horizon: usize,
    eb: f64,
) -> Res<TenantId> {
    let policy = stream_server::CompactionPolicy::new(horizon, eb).with_min_batch(4);
    let tenant = stream_server::TenantConfig::new(session)
        .with_stream(stream, codec_core::SyncPolicy::Flush)
        .with_compaction(policy);
    flat(server.register(tenant))
}

/// A blocking push, admission timed apart from the wait:
/// `(admission ms, record)`.
pub fn server_push(server: &Server, tenant: TenantId, field: Field) -> Res<(f64, SnapshotRecord)> {
    let t = std::time::Instant::now();
    let ticket = flat(server.try_push(tenant, field))?;
    let admission_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((admission_ms, flat(ticket.wait())?.record))
}

pub fn close_tenant(server: &Server, tenant: TenantId) -> Res<Option<u64>> {
    flat(server.close_tenant(tenant))
}

pub fn server_stats(server: &Server) -> ServerStats {
    server.stats()
}

pub fn render_prometheus(server: &Server) -> String {
    server.metrics().render_prometheus()
}

pub fn shutdown(server: Server) -> Res<()> {
    flat(server.shutdown())
}

// ---- analysis -----------------------------------------------------------------

pub fn fft3_forward(field: &Field) -> usize {
    let d = field.dims();
    let mut buf: Vec<fftlite::Complex64> =
        field.as_slice().iter().map(|&v| fftlite::Complex64::real(f64::from(v))).collect();
    fftlite::Fft3::new(d.nx, d.ny, d.nz).forward(&mut buf);
    buf.len()
}

/// Raw-value spectrum — fair to density and temperature alike, and a
/// reconstruction is never re-normalised by its own drifted mean.
pub fn power_spectrum(field: &Field) -> Vec<f64> {
    cosmoanalysis::power_spectrum(field, cosmoanalysis::SpectrumKind::Raw).power
}

/// Halo catalogue at the thresholds the workloads use (2.2× / 4× mean).
pub fn find_halos(field: &Field) -> usize {
    let cfg = cosmoanalysis::HaloFinderConfig::relative_to_mean(mean(field), 2.2, 4.0);
    cosmoanalysis::find_halos(field, &cfg).len()
}

pub fn simd_backend() -> &'static str {
    portable_simd::backend().name()
}
