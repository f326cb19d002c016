//! Output verification: untimed, after the rounds. Every miss is a failed
//! operation, so a wrong answer can never read as a fast one.

use crate::adapter::{self, Decomposition, Field};
use crate::catalog::{Ingest, CHECKPOINT_EVERY, STEP_CYCLE};
use crate::rounds::{Runner, Samples};
use crate::setup::{splitmix, store_path, tiered_path};
use std::collections::BTreeMap;

/// Pointwise slack on the bound check: f32 round-off, nothing more.
const BOUND_SLACK: f64 = 1.0 + 1e-9;

/// Largest pointwise error over assigned bound of `recon` against
/// `original`, one checked op per partition.
fn check_frame(
    s: &mut Samples,
    dec: &Decomposition,
    original: &Field,
    recon: &Field,
    bounds: &[f64],
    extra: f64,
) -> f64 {
    let mut worst = 0.0f64;
    let a = adapter::extract_bricks(original, dec);
    let b = adapter::extract_bricks(recon, dec);
    for (p, ((x, y), &eb)) in a.iter().zip(&b).zip(bounds).enumerate() {
        let err = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(u, v)| (f64::from(*u) - f64::from(*v)).abs())
            .fold(0.0, f64::max);
        let over = err / (eb + extra);
        worst = worst.max(over);
        s.check("bound", over <= BOUND_SLACK, || {
            format!("partition {p}: error {err:e} over bound {:e}", eb + extra)
        });
    }
    worst
}

impl Runner<'_> {
    /// `(max_err_over_bound, pk_max_dev)` over the store, the other
    /// tenants' streams and the newest ingest outputs. The spectra cost two
    /// FFTs per hot frame, so only a traced run (which reports them) asks.
    pub fn verify(&mut self, with_spectra: bool) -> (f64, f64) {
        let spec = self.spec;
        let (mut worst, mut pk_dev) = (0.0f64, 0.0f64);
        let mut spectra: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let cold = spec.frames - spec.horizon;
        for tenant in 0..self.p.written.len() {
            // Tenant 0 is the store (every frame); the other oracles are
            // what the server's files were compared with (every 8th frame).
            let path = tiered_path(&store_path(self.scratch, tenant));
            let Some(reader) = self.s.op("open", adapter::open_reader(&path)) else { continue };
            let shape = adapter::reader_shape(&reader);
            self.s.check("shape", shape == (spec.frames, spec.partitions(), cold), || {
                format!("tenant {tenant}: stream is {shape:?}")
            });
            let stride = if tenant == 0 { 1 } else { CHECKPOINT_EVERY };
            for f in (0..spec.frames).step_by(stride) {
                let recon = adapter::reconstruct_frame(&reader, f, &self.dec);
                let Some(recon) = self.s.op("read_frame", recon) else { continue };
                let original = self.p.inputs.field(tenant, f);
                let written = &self.p.written[tenant];
                let extra = if f < cold { written.eb_cold } else { 0.0 };
                let over =
                    check_frame(&mut self.s, &self.dec, original, &recon, &written.ebs[f], extra);
                worst = worst.max(over);
                if tenant > 0 {
                    continue;
                }
                // reconstruct_partition ≡ the matching brick of the frame.
                let p = splitmix(&mut self.rng) as usize % spec.partitions();
                let brick = adapter::reconstruct_partition(&reader, f, p);
                if let Some(brick) = self.s.op("read_partition", brick) {
                    let same = brick == adapter::brick_of(&recon, &self.dec, p);
                    self.s.check("identity", same, || {
                        format!("frame {f} partition {p}: partition read differs from the frame's brick")
                    });
                }
                if with_spectra && f >= cold {
                    // P(k) at the contracted quality: hot frames only.
                    let k = STEP_CYCLE[f % STEP_CYCLE.len()];
                    let reference =
                        spectra.entry(k).or_insert_with(|| adapter::power_spectrum(original));
                    let got = adapter::power_spectrum(&recon);
                    for (p0, p1) in reference.iter().zip(&got).take(9) {
                        if *p0 > 0.0 {
                            pk_dev = pk_dev.max((p1 / p0 - 1.0).abs());
                        }
                    }
                }
            }
        }
        // The newest cycle the single-caller ingest produced.
        for (k, record) in std::mem::take(&mut self.recent) {
            let recon = adapter::reconstruct(&record.result, &self.dec);
            if let Some(recon) = self.s.op("decode", recon) {
                let original = self.p.inputs.field(0, k);
                let bounds = &record.result.ebs;
                worst =
                    worst.max(check_frame(&mut self.s, &self.dec, original, &recon, bounds, 0.0));
            }
        }
        if spec.ingest == Ingest::Durable {
            let live = adapter::open_reader(&self.scratch.path("live.strm"));
            if let Some(reader) = self.s.op("open", live) {
                let shape = adapter::reader_shape(&reader);
                self.s.check("shape", shape == (spec.pushes, spec.partitions(), 0), || {
                    format!("live stream is {shape:?}")
                });
            }
        }
        // Exact-repeat metrics must not move between identical rounds.
        for (name, v) in [("ratio", self.s.ratio.clone()), ("gain", self.s.gain.clone())] {
            let steady = v.windows(2).all(|w| w[0] == w[1]);
            self.s.check("repeat", steady, || format!("{name} moved between rounds: {v:?}"));
        }
        (worst, pk_dev)
    }
}
