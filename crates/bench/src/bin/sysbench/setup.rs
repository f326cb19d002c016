//! Set-up: everything a workload needs before the first measured round —
//! seeded inputs, calibrated sessions, and the primed store the read /
//! restart / re-tier phases work on. Its wall time is `setup_s`.

use crate::adapter::{self, Decomposition, Durable, Field, InSituPipeline, Res, StreamSession};
use crate::catalog::{
    Ingest, Spec, CHECKPOINT_EVERY, COLD_SIGMA, REDSHIFTS, SERVER_TENANTS, STEP_CYCLE,
};
use crate::host::Scratch;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The server tenant whose amplitude hops.
const HOP_TENANT: usize = 3;

fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(tenant as u64)
}

/// The harness's own seeded stream (tear offsets, read patterns).
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything the program sees of `--seed`: per tenant, the fields its
/// pushes cycle through.
pub struct Inputs {
    tenants: Vec<Vec<Field>>,
    hop_every: usize,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let server = spec.ingest == Ingest::Server;
        let tenants = (0..if server { SERVER_TENANTS } else { 1 })
            .map(|t| {
                if server && t == HOP_TENANT {
                    adapter::hop_series(spec.n, tenant_seed(seed, t))
                } else {
                    adapter::nyx_series(spec.n, tenant_seed(seed, t), spec.field, &REDSHIFTS)
                }
            })
            .collect();
        Self { tenants, hop_every: spec.hop_every }
    }

    /// The field of a tenant's `k`-th push (0 is the cold one).
    pub fn field(&self, tenant: usize, k: usize) -> &Field {
        let fields = &self.tenants[tenant];
        let regime = if fields.len() > REDSHIFTS.len() { (k / self.hop_every) % 2 } else { 0 };
        &fields[REDSHIFTS.len() * regime + STEP_CYCLE[k % STEP_CYCLE.len()]]
    }

    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }
}

/// One tenant's stream as a plain session + writer produce it: the primed
/// store of the read / restart / re-tier phases, and (re-tiered) the oracle
/// a server tenant's file must equal byte for byte.
pub struct Written {
    /// Finished, un-compacted; its checkpoint describes `frames - 1` frames.
    pub base: Vec<u8>,
    pub ckpt: Vec<u8>,
    /// `base` re-tiered past the horizon.
    pub tiered: Vec<u8>,
    /// Per frame, per partition: the bound the push assigned.
    pub ebs: Vec<Vec<f64>>,
    pub eb_cold: f64,
    /// Seeded offset inside the last frame where the restart phase tears.
    pub tear_at: usize,
    /// `bytes_before / bytes_after` of the re-tiering.
    pub shrink: f64,
    pub refreshes: usize,
    /// Layer timings set-up takes in passing (the ledger reports them).
    pub calibrate_ms: f64,
    pub push_ms: Vec<f64>,
    pub append_ms: Vec<f64>,
    pub finish_ms: f64,
}

pub fn tenant_config(
    spec: &Spec,
    dec: &Decomposition,
    inputs: &Inputs,
    tenant: usize,
) -> (adapter::SessionConfig, f64) {
    let first = inputs.field(tenant, 0);
    let halo = spec.halo.then(|| 2.2 * adapter::mean(first));
    let cfg = adapter::session_config(dec, spec.codecs, halo, CHECKPOINT_EVERY);
    (cfg, COLD_SIGMA * adapter::summarize_sigma(first))
}

fn io<T>(r: std::io::Result<T>) -> Res<T> {
    r.map_err(|e| e.to_string())
}

/// Write `spec.frames` frames of `tenant`'s series to `path` through
/// [`Durable`], then re-tier a copy. Returns the warm session too.
fn write_stream(
    spec: &Spec,
    dec: &Decomposition,
    inputs: &Inputs,
    tenant: usize,
    seed: u64,
    path: &Path,
) -> Res<(Written, StreamSession)> {
    let (cfg, eb_cold) = tenant_config(spec, dec, inputs, tenant);
    let mut d = Durable::create(adapter::new_session(cfg), path)?;
    let (mut ebs, mut push_ms, mut append_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut calibrate_ms, mut before_last) = (0.0, 0);
    for k in 0..spec.frames {
        if k + 1 == spec.frames {
            before_last = io(std::fs::metadata(path))?.len();
        }
        let t = Instant::now();
        let record = adapter::push(&mut d.session, inputs.field(tenant, k))?;
        let pushed = t.elapsed().as_secs_f64() * 1e3;
        d.append(&record)?;
        let whole = t.elapsed().as_secs_f64() * 1e3;
        if k == 0 {
            calibrate_ms = pushed;
        } else {
            push_ms.push(whole);
            append_ms.push(whole - pushed);
        }
        ebs.push(record.result.ebs);
    }
    let after_last = io(std::fs::metadata(path))?.len();
    let t = Instant::now();
    let (session, _) = d.finish()?;
    let finish_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut rng = tenant_seed(seed, tenant) ^ 0x7ea2;
    let tear_at = before_last + 1 + splitmix(&mut rng) % (after_last - before_last - 1);
    let base = io(std::fs::read(path))?;

    let tiered_path = tiered_path(path);
    io(std::fs::write(&tiered_path, &base))?;
    let report = adapter::compact_file(&tiered_path, spec.horizon, eb_cold)?;
    let written = Written {
        ckpt: io(std::fs::read(adapter::ckpt_path(path)))?,
        tiered: io(std::fs::read(&tiered_path))?,
        base,
        ebs,
        eb_cold,
        tear_at: tear_at as usize,
        shrink: report.map_or(1.0, |r| r.bytes_before as f64 / r.bytes_after as f64),
        refreshes: adapter::refreshes(&session),
        calibrate_ms,
        push_ms,
        append_ms,
        finish_ms,
    };
    Ok((written, session))
}

/// What set-up hands to the measured rounds.
pub struct Prepared {
    pub inputs: Inputs,
    /// Per tenant; tenant 0's is the primed store.
    pub written: Vec<Written>,
    /// The warm session the single-caller ingest modes keep pushing into
    /// (`None` under the server, whose rounds register fresh tenants).
    pub session: Option<StreamSession>,
    /// Next push index of that session's series.
    pub next: usize,
    /// A calibrated pipeline for the static pairs (any tenant's field).
    pub pipeline: InSituPipeline,
}

/// Tenant `tenant`'s finished, un-compacted stream (its checkpoint beside it).
pub fn store_path(scratch: &Scratch, tenant: usize) -> PathBuf {
    scratch.path(&format!("store{tenant}.strm"))
}

/// The re-tiered copy beside a stream.
pub fn tiered_path(stream: &Path) -> PathBuf {
    stream.with_extension("tiered")
}

pub fn set_up(spec: &Spec, dec: &Decomposition, seed: u64, scratch: &Scratch) -> Res<Prepared> {
    let inputs = Inputs::generate(spec, seed);
    let mut written = Vec::new();
    let mut session = None;
    for tenant in 0..inputs.tenants() {
        let (w, s) = write_stream(spec, dec, &inputs, tenant, seed, &store_path(scratch, tenant))?;
        written.push(w);
        session.get_or_insert(s);
    }
    let session = session.expect("at least one tenant");
    let pipeline = adapter::pipeline(&session).clone();
    let keep = spec.ingest != Ingest::Server;
    Ok(Prepared { inputs, written, session: keep.then_some(session), next: spec.frames, pipeline })
}
