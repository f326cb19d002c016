//! The measured rounds. Every workload is the same life-cycle at its own
//! operating point — the simulation pushes, storage holds, the analyst reads
//! back, the operator restarts and re-tiers — so every end-to-end metric is
//! defined on every workload; the op counts in [`Spec`] decide which phase
//! dominates. Rounds are identical and self-contained.

use crate::adapter::{self, Decomposition, Durable, Field, InSituPipeline, Res, SnapshotRecord};
use crate::catalog::{
    Ingest, Spec, CHECKPOINT_EVERY, PAIR_GROUP, SERVER_CLIENTS, SERVER_QUEUE, SERVER_TENANTS,
    SERVER_WORKERS, STATIC_EVERY, STEP_CYCLE,
};
use crate::host::{self, Scratch};
use crate::ledger::Ledger;
use crate::setup::{splitmix, store_path, tenant_config, tiered_path, Prepared};
use crate::stats;
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

pub const MIB: f64 = (1u64 << 20) as f64;

/// One caller thread's timings, in the order it made the calls.
#[derive(Debug, Default)]
pub struct Caller {
    pub push_ms: Vec<f64>,
    /// Every `STATIC_EVERY`-th push again, beside the static compress of the
    /// same field at the mean bound that push assigned.
    pub paired_push_ms: Vec<f64>,
    pub static_ms: Vec<f64>,
    /// Pushes made so far (decides which are paired).
    pushed: usize,
}

/// Everything the rounds sample, in op order.
#[derive(Debug, Default)]
pub struct Samples {
    pub callers: Vec<Caller>,
    /// One row per complete scan of the tiered store: the time of each
    /// `reconstruct_frame`, the first one carrying the open.
    pub scans: Vec<Vec<f64>>,
    pub part_uniform_us: Vec<f64>,
    pub part_recent_us: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub compact_mibps: Vec<f64>,
    /// Exact counts, one per round — but `gain` of a single caller one per
    /// `PAIR_GROUP` pairs, the stretch after which its pairs have visited
    /// every step of the cycle once.
    pub ratio: Vec<f64>,
    pub gain: Vec<f64>,
    pub refreshes: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub op_counts: BTreeMap<&'static str, u64>,
}

impl Samples {
    fn count(&mut self, kind: &'static str, n: u64) {
        self.attempted += n;
        *self.op_counts.entry(kind).or_default() += n;
    }

    /// Count one operation; a typed error is a failed one.
    pub fn op<T>(&mut self, kind: &'static str, r: Res<T>) -> Option<T> {
        self.count(kind, 1);
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{kind}: {e}"));
                None
            }
        }
    }

    /// Count an operation that may have produced a wrong result.
    pub fn check(&mut self, kind: &'static str, ok: bool, what: impl FnOnce() -> String) {
        self.count(kind, 1);
        if !ok {
            self.fail(format!("{kind}: {}", what()));
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// Static ÷ adaptive stored bytes over `pairs` of `(adaptive, static)`.
fn gain_over(pairs: &[(usize, usize)]) -> f64 {
    let (adaptive, fixed) = pairs.iter().fold((0, 0), |acc, (a, b)| (acc.0 + a, acc.1 + b));
    fixed as f64 / adaptive.max(1) as f64
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One push as its caller saw it, and — every `STATIC_EVERY`-th — the paired
/// static compress. Returns the stored bytes `(adaptive, static)` of a pair.
fn note_push(
    caller: &mut Caller,
    pipeline: &InSituPipeline,
    field: &Field,
    record: &SnapshotRecord,
    ms: f64,
) -> Option<(usize, usize)> {
    caller.push_ms.push(ms);
    caller.pushed += 1;
    if !caller.pushed.is_multiple_of(STATIC_EVERY) {
        return None;
    }
    let t = Instant::now();
    let fixed = adapter::static_compress(pipeline, field, stats::mean(&record.result.ebs));
    caller.static_ms.push(ms_since(t));
    caller.paired_push_ms.push(ms);
    Some((record.result.compressed_bytes, fixed.compressed_bytes))
}

/// What one client thread of a server round brings back.
pub struct ClientLog {
    pub caller: Caller,
    pub rec: Option<Recorder>,
    pub admission_ms: Vec<f64>,
    pub drift: Vec<f64>,
    /// Stored bytes `(adaptive, static)` of each pair.
    pairs: Vec<(usize, usize)>,
    errors: Vec<String>,
}

pub struct Runner<'a> {
    pub spec: Spec,
    pub dec: Decomposition,
    pub scratch: &'a Scratch,
    pub p: Prepared,
    pub s: Samples,
    /// `Some` while a traced round runs.
    pub ledger: Option<Ledger>,
    pub rng: u64,
    /// The newest cycle of single-caller pushes, kept for verification.
    pub recent: Vec<(usize, SnapshotRecord)>,
    /// Stored bytes `(adaptive, static)` of the single caller's pairs since
    /// its last whole group.
    pair_group: Vec<(usize, usize)>,
}

impl<'a> Runner<'a> {
    pub fn new(
        spec: Spec,
        dec: Decomposition,
        scratch: &'a Scratch,
        p: Prepared,
        seed: u64,
    ) -> Self {
        let mut s = Samples::default();
        s.callers.resize_with(spec.callers(), Caller::default);
        let rng = seed ^ 0x5ca1_ab1e;
        Self {
            spec,
            dec,
            scratch,
            p,
            s,
            ledger: None,
            rng,
            recent: Vec::new(),
            pair_group: Vec::new(),
        }
    }

    /// `ratio_gain_vs_static`: the first whole unit's, or — in a run too
    /// short to finish one — whatever pairs there are.
    pub fn ratio_gain(&self) -> f64 {
        self.s.gain.first().copied().unwrap_or_else(|| gain_over(&self.pair_group))
    }

    pub fn round(&mut self) {
        match self.spec.ingest {
            Ingest::Memory | Ingest::Durable => self.ingest_single(),
            Ingest::Server => self.ingest_server(),
        }
        self.read_back();
        self.restart();
        self.retier();
    }

    /// `spec.pushes` steady pushes into the warm session — in memory, or
    /// appended to a fresh stream file that the round finishes.
    fn ingest_single(&mut self) {
        let spec = self.spec;
        let mut session = self.p.session.take().expect("single-caller ingest keeps a session");
        let live = self.scratch.path("live.strm");
        let mut durable = None;
        if spec.ingest == Ingest::Durable {
            durable = self.s.op("create", Durable::create(session.clone(), &live));
            if durable.is_none() {
                self.p.session = Some(session);
                return;
            }
        }
        let wchar = host::io_wchar();
        let refreshes_before = adapter::refreshes(&session);
        let mut stored = 0;
        // A traced round replays its pushes layer by layer only after the
        // last one: replaying in between would evict what the next push
        // finds warm and read as tracing overhead.
        let mut replays = Vec::new();
        self.recent.clear();
        for i in 0..spec.pushes {
            let k = self.p.next + i;
            let field = self.p.inputs.field(0, k);
            let op = self.s.attempted;
            let whole = self.ledger.as_mut().map(|l| l.rec.enter("push", op));
            let t = Instant::now();
            let pushed = match durable.as_mut() {
                Some(d) => adapter::push(&mut d.session, field),
                None => adapter::push(&mut session, field),
            };
            let session_ms = ms_since(t);
            let pushed = pushed.and_then(|record| match durable.as_mut() {
                Some(d) => d.append(&record).map(|()| record),
                None => Ok(record),
            });
            let ms = ms_since(t);
            if let (Some(l), Some(id)) = (self.ledger.as_mut(), whole) {
                l.rec.exit(id);
            }
            let Some(record) = self.s.op("push", pushed) else { continue };
            stored += record.result.compressed_bytes;
            let active = durable.as_ref().map_or(&session, |d| &d.session);
            let pipeline = adapter::pipeline(active);
            self.pair_group.extend(note_push(&mut self.s.callers[0], pipeline, field, &record, ms));
            if self.pair_group.len() == PAIR_GROUP {
                self.s.gain.push(gain_over(&self.pair_group));
                self.pair_group.clear();
            }
            if let Some(l) = self.ledger.as_mut() {
                if durable.is_some() {
                    l.sample("codec-core.append_ms", ms - session_ms);
                }
                replays.push((op, k, record.clone(), session_ms));
            }
            if i + STEP_CYCLE.len() >= spec.pushes {
                self.recent.push((k, record));
            }
        }
        self.p.next += spec.pushes;
        if let Some(l) = self.ledger.as_mut() {
            let pipeline = adapter::pipeline(durable.as_ref().map_or(&session, |d| &d.session));
            for (op, k, record, session_ms) in replays {
                let field = self.p.inputs.field(0, k);
                l.replay_push(op, pipeline, &self.dec, field, &record, session_ms);
            }
        }
        if let Some(d) = durable {
            if let Some((s, len)) = self.s.op("finish", d.finish()) {
                session = s;
                stored = len as usize;
                if let Some(l) = self.ledger.as_mut() {
                    l.sample(
                        "codec-core.write_amp",
                        (host::io_wchar() - wchar) as f64 / len as f64,
                    );
                }
            }
        }
        self.s.ratio.push((spec.pushes * spec.field_bytes()) as f64 / stored as f64);
        self.s.refreshes.push((adapter::refreshes(&session) - refreshes_before) as f64);
        self.p.session = Some(session);
    }

    /// One server episode: fresh durable tenants, a cold push each, then
    /// two blocking clients × two tenants, then every tenant closed and its
    /// file compared with the plain-session oracle.
    fn ingest_server(&mut self) {
        let spec = self.spec;
        let wchar = host::io_wchar();
        let server = adapter::start_server(SERVER_WORKERS, SERVER_QUEUE);
        let paths: Vec<PathBuf> =
            (0..SERVER_TENANTS).map(|t| self.scratch.path(&format!("tenant{t}.strm"))).collect();
        let mut ids = Vec::new();
        for (t, path) in paths.iter().enumerate() {
            let (cfg, eb_cold) = tenant_config(&spec, &self.dec, &self.p.inputs, t);
            let started = Instant::now();
            let id = adapter::register(&server, cfg, path, spec.horizon, eb_cold);
            if let Some(l) = self.ledger.as_mut() {
                l.sample("stream-server.register_ms", ms_since(started));
            }
            let cold = id.and_then(|id| {
                let field = self.p.inputs.field(t, 0).clone();
                adapter::server_push(&server, id, field).map(|_| id)
            });
            match self.s.op("register", cold) {
                Some(id) => ids.push(id),
                None => return,
            }
        }

        let barrier = Barrier::new(SERVER_CLIENTS);
        let origin = self.ledger.as_ref().map(Ledger::origin);
        let (inputs, pipeline, base_op) = (&self.p.inputs, &self.p.pipeline, self.s.attempted);
        let (server_ref, ids_ref, barrier_ref) = (&server, &ids, &barrier);
        let mut callers = std::mem::take(&mut self.s.callers);
        // Every episode pairs the same pushes, so its counts repeat exactly.
        callers.iter_mut().for_each(|c| c.pushed = 0);
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = callers
                .into_iter()
                .enumerate()
                .map(|(c, caller)| {
                    scope.spawn(move || {
                        let mut log = ClientLog {
                            caller,
                            rec: origin.map(Recorder::new),
                            admission_ms: Vec::new(),
                            drift: Vec::new(),
                            pairs: Vec::new(),
                            errors: Vec::new(),
                        };
                        barrier_ref.wait();
                        let mut op = base_op + (c * spec.pushes * SERVER_TENANTS) as u64;
                        for k in 1..=spec.pushes {
                            for t in (c..SERVER_TENANTS).step_by(SERVER_CLIENTS) {
                                let field = inputs.field(t, k);
                                let copy = field.clone();
                                let span = log.rec.as_mut().map(|r| r.enter("push", op));
                                let started = Instant::now();
                                let pushed = adapter::server_push(server_ref, ids_ref[t], copy);
                                let ms = ms_since(started);
                                if let (Some(r), Some(id)) = (log.rec.as_mut(), span) {
                                    r.exit(id);
                                }
                                op += 1;
                                match pushed {
                                    Ok((admission_ms, record)) => {
                                        log.admission_ms.push(admission_ms);
                                        log.drift.push(record.stats.drift_residual);
                                        log.pairs.extend(note_push(
                                            &mut log.caller,
                                            pipeline,
                                            field,
                                            &record,
                                            ms,
                                        ));
                                    }
                                    Err(e) => log.errors.push(e),
                                }
                            }
                        }
                        log
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });

        let stats = adapter::server_stats(&server);
        if let Some(l) = self.ledger.as_mut() {
            let t = Instant::now();
            let text = adapter::render_prometheus(&server);
            l.sample("telemetry.render_us", ms_since(t) * 1e3);
            l.sample(
                "telemetry.series",
                text.lines().filter(|x| !x.starts_with('#')).count() as f64,
            );
        }
        let t = Instant::now();
        let mut stored = 0u64;
        for &id in &ids {
            if let Some(len) = self.s.op("close", adapter::close_tenant(&server, id)) {
                stored += len.unwrap_or(0);
            }
        }
        let close_ms = ms_since(t);
        self.s.op("shutdown", adapter::shutdown(server));

        let mut pairs = Vec::new();
        for mut log in logs {
            if let Some(l) = self.ledger.as_mut() {
                l.server_client(&mut log);
            }
            self.s.count("push", (spec.pushes * SERVER_TENANTS / SERVER_CLIENTS) as u64);
            for e in log.errors {
                self.s.fail(format!("push: {e}"));
            }
            pairs.extend(log.pairs);
            self.s.callers.push(log.caller);
        }
        for (t, path) in paths.iter().enumerate() {
            let same = std::fs::read(path).is_ok_and(|bytes| bytes == self.p.written[t].tiered);
            self.s.check("identity", same, || {
                format!("tenant {t}'s file differs from the plain-session oracle")
            });
        }
        let held = (SERVER_TENANTS * spec.frames * spec.field_bytes()) as f64;
        self.s.ratio.push(held / stored as f64);
        self.s.gain.push(gain_over(&pairs));
        self.s.refreshes.push(self.p.written.iter().map(|w| w.refreshes as f64).sum());
        if let Some(l) = self.ledger.as_mut() {
            l.server_round(&stats, close_ms, (host::io_wchar() - wchar) as f64 / stored as f64);
        }
    }

    /// The analyst: open the tiered store, decode every frame in order,
    /// then `reconstruct_partition` uniformly over all frames and over the
    /// newest ones.
    fn read_back(&mut self) {
        let spec = self.spec;
        let path = tiered_path(&store_path(self.scratch, 0));
        let mut t = Instant::now();
        let Some(reader) = self.s.op("open", adapter::open_reader(&path)) else { return };
        let open_us = ms_since(t) * 1e3;
        let mut scan = Vec::with_capacity(spec.frames);
        for f in 0..spec.frames {
            let frame = adapter::reconstruct_frame(&reader, f, &self.dec);
            if self.s.op("read_frame", frame).is_some() {
                scan.push(ms_since(t));
            }
            t = Instant::now();
        }
        if scan.len() == spec.frames {
            self.s.scans.push(scan);
        }

        let newest = spec.horizon.min(CHECKPOINT_EVERY);
        for (span, uniform) in [(spec.frames, true), (newest, false)] {
            for _ in 0..spec.part_reads {
                let r = splitmix(&mut self.rng);
                let f = spec.frames - 1 - (r % span as u64) as usize;
                let p = (r >> 32) as usize % spec.partitions();
                let t = Instant::now();
                let brick = adapter::reconstruct_partition(&reader, f, p);
                let us = ms_since(t) * 1e3;
                if self.s.op("read_partition", brick).is_some() {
                    let into = if uniform {
                        &mut self.s.part_uniform_us
                    } else {
                        &mut self.s.part_recent_us
                    };
                    into.push(us);
                }
            }
        }
        if let Some(l) = self.ledger.as_mut() {
            l.sample("codec-core.open_us", open_us);
            l.replay_read(&reader, &self.dec, spec.frames, newest, &mut self.rng);
        }
    }

    /// The operator after a crash: the store torn inside its last frame →
    /// recover → restore → the lost snapshot pushed again. The finished file
    /// must equal the uninterrupted one.
    fn restart(&mut self) {
        let spec = self.spec;
        let store = &self.p.written[0];
        let torn = self.scratch.path("torn.strm");
        for _ in 0..spec.restarts {
            let staged = std::fs::write(&torn, &store.base[..store.tear_at])
                .and_then(|()| std::fs::write(adapter::ckpt_path(&torn), &store.ckpt));
            if self.s.op("stage", staged.map_err(|e| e.to_string())).is_none() {
                return;
            }
            let t = Instant::now();
            let resumed = Durable::resume(&torn).and_then(|(mut d, kept)| {
                d.push(self.p.inputs.field(0, spec.frames - 1)).map(|_| (d, kept))
            });
            let ms = ms_since(t);
            let Some((d, kept)) = self.s.op("recover", resumed) else { return };
            self.s.recover_ms.push(ms);
            self.s.check("recover_frames", kept == spec.frames - 1, || {
                format!("recovery kept {kept} frames, the tear left {}", spec.frames - 1)
            });
            let finished = d.finish().and_then(|_| std::fs::read(&torn).map_err(|e| e.to_string()));
            let same = finished.is_ok_and(|bytes| bytes == store.base);
            self.s.check("identity", same, || {
                "resumed stream differs from the uninterrupted one".into()
            });
        }
        if let Some(l) = self.ledger.as_mut() {
            l.replay_restart(&torn, &store.base[..store.tear_at], &store.ckpt);
        }
    }

    /// The operator re-tiering: `compact_stream_file` over a fresh
    /// un-compacted copy; the result must equal the store's tiered file.
    fn retier(&mut self) {
        let spec = self.spec;
        let store = &self.p.written[0];
        let work = self.scratch.path("work.strm");
        let staged = std::fs::write(&work, &store.base).map_err(|e| e.to_string());
        if self.s.op("stage", staged).is_none() {
            return;
        }
        let t = Instant::now();
        let report = adapter::compact_file(&work, spec.horizon, store.eb_cold);
        let secs = t.elapsed().as_secs_f64();
        if self.s.op("compact", report).is_none() {
            return;
        }
        let cold = spec.frames - spec.horizon;
        self.s.compact_mibps.push((cold * spec.field_bytes()) as f64 / MIB / secs);
        let same = std::fs::read(&work).is_ok_and(|bytes| bytes == store.tiered);
        self.s.check("identity", same, || "re-tiered copy differs from the store's".into());
        if let Some(l) = self.ledger.as_mut() {
            l.replay_retier(&work, &store.base, spec.horizon, store.eb_cold);
        }
    }
}
