//! Compression-ratio (bit-rate) modeling — paper §3.5, Eq. 15, Fig. 9/10.
//!
//! Empirically, SZ's bit rate against the error bound follows a power law
//! per partition, `b_m = C_m · eb^c`, with the exponent `c` shared across
//! partitions/fields/snapshots and only the coefficient `C_m` varying.
//! Measuring `C_m` per partition by trial compression would defeat the
//! purpose, so the paper predicts it from the partition **mean value**
//! through a logarithmic fit — the single cheapest feature that tracks
//! compressibility on Nyx-like data.
//!
//! [`RatioModel::calibrate`] performs the paper's two-step procedure on a
//! handful of sample partitions (one-off, offline or first-snapshot):
//! 1. sweep a few bounds per sample, fit per-partition `(C_m, c_m)` in
//!    log-log space, share `c = mean(c_m)`;
//! 2. re-fit each `C_m` under the shared `c`, then fit
//!    `C(mean) = a₀ + a₁·ln(mean)` across samples.
//!
//! The law is codec-agnostic: any error-bounded backend traces a
//! rate-vs-bound curve the power law can approximate (transform codecs
//! trace a flatter, log-like curve — the paper's Fig. 10(b) observes
//! exactly this looser fit for ZFP). [`RatioModel::calibrate_codec`] fits
//! the same model against any [`codec_core::CodecId`] backend, measuring
//! each codec's intrinsic payload bytes, and [`CodecModelBank`] holds one
//! fitted model per enabled codec so the optimizer can price every
//! (codec, bound) combination.

use crate::math::{linear_fit, r_squared};
use codec_core::{CodecId, Container};
use gridlab::{Dim3, Field3, Scalar};
use rsz::{compress_slice, SzConfig};
use serde::{Deserialize, Serialize};

/// The per-partition features the in situ layer ships to the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionFeature {
    /// Mean value of the partition (bit-rate model input).
    pub mean: f64,
    /// Boundary cells measured at `eb_ref` (halo model input; 0 for
    /// non-density fields).
    pub boundary_cells_ref: f64,
    /// Reference bound for `boundary_cells_ref`.
    pub eb_ref: f64,
    /// Cells in the partition.
    pub cells: usize,
}

impl From<gridlab::stats::PartitionFeatures> for PartitionFeature {
    fn from(f: gridlab::stats::PartitionFeatures) -> Self {
        Self {
            mean: f.mean,
            boundary_cells_ref: f.boundary_cells as f64,
            eb_ref: f.eb_ref,
            cells: f.cells,
        }
    }
}

/// Fitted bit-rate model `b(mean, eb) = C(mean) · eb^c`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatioModel {
    /// Shared power-law exponent (negative: bigger bound ⇒ fewer bits).
    pub c: f64,
    /// Intercept of the logarithmic coefficient fit.
    pub a0: f64,
    /// Slope of the logarithmic coefficient fit.
    pub a1: f64,
}

/// Floor for predicted coefficients/bit rates so inversions stay finite.
const C_FLOOR: f64 = 1e-4;

/// Why a calibration attempt was rejected. Non-finite inputs used to
/// leak NaN coefficients into the bank (where `NaN > threshold` is
/// silently `false` and the drift detector goes blind); they are now a
/// typed error at the fit boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CalibrationError {
    /// A sample partition's mean is NaN/∞ — the field carries non-finite
    /// cells and the `mean → C` fit would be poisoned.
    NonFiniteMean { brick: usize, mean: f64 },
    /// A trial compression reported a NaN/∞ bit rate at this bound.
    NonFiniteRate { brick: usize, eb: f64, rate: f64 },
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFiniteMean { brick, mean } => {
                write!(f, "sample brick {brick} has non-finite mean {mean}")
            }
            Self::NonFiniteRate { brick, eb, rate } => {
                write!(f, "sample brick {brick} measured non-finite bit rate {rate} at eb {eb}")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Per-sample diagnostics from calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// `(mean, fitted C_m)` per sample partition.
    pub samples: Vec<(f64, f64)>,
    /// Per-sample exponents before sharing.
    pub exponents: Vec<f64>,
    /// R² of the `C(mean)` logarithmic fit.
    pub c_fit_r2: f64,
}

impl RatioModel {
    /// Coefficient for a partition with the given mean.
    pub fn coefficient(&self, mean: f64) -> f64 {
        let x = ln_mean(mean);
        (self.a0 + self.a1 * x).max(C_FLOOR)
    }

    /// Predicted bit rate (bits/value) for one partition.
    pub fn predict_bitrate(&self, mean: f64, eb: f64) -> f64 {
        assert!(eb > 0.0);
        self.coefficient(mean) * eb.powf(self.c)
    }

    /// Predicted overall bit rate for equal-size partitions (Eq. 15:
    /// `B = Σ b_m / M`).
    pub fn predict_overall_bitrate(&self, means: &[f64], ebs: &[f64]) -> f64 {
        assert_eq!(means.len(), ebs.len());
        assert!(!means.is_empty());
        means.iter().zip(ebs).map(|(&m, &e)| self.predict_bitrate(m, e)).sum::<f64>()
            / means.len() as f64
    }

    /// Predicted compression ratio against `bits_per_value` originals.
    pub fn predict_ratio(&self, means: &[f64], ebs: &[f64], bits_per_value: f64) -> f64 {
        bits_per_value / self.predict_overall_bitrate(means, ebs)
    }

    /// Invert the per-partition law: bound that hits a target bit rate.
    pub fn eb_for_bitrate(&self, mean: f64, bitrate: f64) -> f64 {
        assert!(bitrate > 0.0);
        (bitrate / self.coefficient(mean)).powf(1.0 / self.c)
    }

    /// Calibrate on sample bricks with an error-bound sweep, measuring
    /// through bare `rsz` containers under `base` (the legacy single-codec
    /// path; radius/lossless settings of `base` are honoured).
    ///
    /// `bricks` should be a representative handful of partitions (the
    /// paper samples 16 of 512 for Fig. 9); `eb_sweep` needs ≥ 2 bounds.
    pub fn calibrate<T: Scalar>(
        bricks: &[&Field3<T>],
        eb_sweep: &[f64],
        base: &SzConfig,
    ) -> Result<(RatioModel, CalibrationReport), CalibrationError> {
        Self::calibrate_by(bricks, eb_sweep, |brick, eb| {
            let mut cfg = *base;
            cfg.mode = rsz::ErrorMode::Abs(eb);
            let c = compress_slice(brick.as_slice(), brick.dims(), &cfg);
            8.0 * c.len() as f64 / brick.len() as f64
        })
    }

    /// Calibrate against a codec backend, measuring its intrinsic payload
    /// bytes (the constant v2 wrapper overhead is excluded so it cannot
    /// pollute the power-law fit; for `rsz` this reproduces the legacy
    /// single-codec calibration exactly).
    pub fn calibrate_codec<T: Scalar>(
        codec: CodecId,
        bricks: &[&Field3<T>],
        eb_sweep: &[f64],
    ) -> Result<(RatioModel, CalibrationReport), CalibrationError> {
        Self::calibrate_by(bricks, eb_sweep, |brick, eb| {
            let c = Container::compress(codec, brick.as_slice(), brick.dims(), eb);
            8.0 * c.payload_len() as f64 / brick.len() as f64
        })
    }

    /// The paper's two-step fit over an arbitrary bit-rate measurement
    /// (bits/value at a given bound).
    ///
    /// Rejects non-finite sample means and measured rates with a typed
    /// [`CalibrationError`] (a NaN anywhere in the fit would otherwise
    /// propagate into every later prediction, where `NaN > threshold`
    /// comparisons silently disable the drift detector). Zero-variance
    /// sample sets — all bricks sharing one mean, e.g. a constant field —
    /// degrade to a flat `C(mean)` fit instead of panicking the
    /// least-squares solver on degenerate abscissae.
    pub fn calibrate_by<T: Scalar>(
        bricks: &[&Field3<T>],
        eb_sweep: &[f64],
        measure: impl Fn(&Field3<T>, f64) -> f64,
    ) -> Result<(RatioModel, CalibrationReport), CalibrationError> {
        assert!(bricks.len() >= 2, "need at least two sample partitions");
        assert!(eb_sweep.len() >= 2, "need at least two bounds in the sweep");
        let ln_ebs: Vec<f64> = eb_sweep.iter().map(|e| e.ln()).collect();

        // Pass 1: measure bit rates, fit per-brick exponents.
        let mut exponents = Vec::with_capacity(bricks.len());
        let mut ln_rates: Vec<Vec<f64>> = Vec::with_capacity(bricks.len());
        let mut means = Vec::with_capacity(bricks.len());
        for (b, brick) in bricks.iter().enumerate() {
            let mean = gridlab::stats::mean(brick.as_slice());
            if !mean.is_finite() {
                return Err(CalibrationError::NonFiniteMean { brick: b, mean });
            }
            means.push(mean);
            let mut rates = Vec::with_capacity(eb_sweep.len());
            for &eb in eb_sweep {
                let rate = measure(brick, eb);
                if !rate.is_finite() {
                    return Err(CalibrationError::NonFiniteRate { brick: b, eb, rate });
                }
                rates.push(rate.max(1e-6).ln());
            }
            let (_, slope) = linear_fit(&ln_ebs, &rates);
            exponents.push(slope);
            ln_rates.push(rates);
        }
        let c_shared = exponents.iter().sum::<f64>() / exponents.len() as f64;

        // Pass 2: C_m under the shared exponent, then the logarithmic fit.
        let coeffs: Vec<f64> = ln_rates
            .iter()
            .map(|rates| {
                let ln_c =
                    rates.iter().zip(&ln_ebs).map(|(lb, le)| lb - c_shared * le).sum::<f64>()
                        / rates.len() as f64;
                ln_c.exp()
            })
            .collect();
        let xs: Vec<f64> = means.iter().map(|&m| ln_mean(m)).collect();
        let spread = xs.iter().fold(f64::NEG_INFINITY, |a, &x| a.max(x))
            - xs.iter().fold(f64::INFINITY, |a, &x| a.min(x));
        let (a0, a1) = if spread > 1e-12 {
            linear_fit(&xs, &coeffs)
        } else {
            // Identical means (constant field): C cannot depend on the
            // mean, so fit the constant model C(mean) = mean(C_m).
            (coeffs.iter().sum::<f64>() / coeffs.len() as f64, 0.0)
        };
        let r2 = r_squared(&xs, &coeffs, a0, a1);

        Ok((
            RatioModel { c: c_shared, a0, a1 },
            CalibrationReport {
                samples: means.into_iter().zip(coeffs).collect(),
                exponents,
                c_fit_r2: r2,
            },
        ))
    }
}

/// Log-feature of a mean value, guarded for non-positive means (velocity
/// fields can average near zero; the guard keeps the feature finite).
fn ln_mean(mean: f64) -> f64 {
    (mean.abs() + 1e-9).ln()
}

/// Extract [`PartitionFeature`]s for every brick of a decomposed field —
/// the in situ feature-extraction step, a view over
/// [`Decomposition::scan`](gridlab::Decomposition::scan)'s one in-place
/// pass.
pub fn extract_features<T: Scalar>(
    field: &Field3<T>,
    dec: &gridlab::Decomposition,
    t_boundary: f64,
    eb_ref: f64,
) -> Vec<PartitionFeature> {
    features_of_scans(&dec.scan(field, t_boundary - eb_ref, t_boundary + eb_ref), eb_ref)
}

/// The features in per-partition scan records taken over
/// `(t_boundary − eb_ref, t_boundary + eb_ref)`.
pub(crate) fn features_of_scans(
    scans: &[gridlab::stats::Scan],
    eb_ref: f64,
) -> Vec<PartitionFeature> {
    scans.iter().map(|s| gridlab::stats::PartitionFeatures::of_scan(s, eb_ref).into()).collect()
}

/// Measure the actual bit rate of one brick at one bound (ground truth for
/// model validation).
pub fn measured_bitrate<T: Scalar>(brick: &Field3<T>, eb: f64) -> f64 {
    let c = compress_slice(brick.as_slice(), brick.dims(), &SzConfig::abs(eb));
    8.0 * c.len() as f64 / brick.len() as f64
}

/// Convenience: split a field and return the per-partition bricks that
/// calibration samples from (every `stride`-th partition).
pub fn sample_bricks<T: Scalar>(
    field: &Field3<T>,
    dec: &gridlab::Decomposition,
    stride: usize,
) -> Vec<Field3<T>> {
    assert!(stride >= 1);
    dec.iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0)
        .map(|(_, p)| field.extract(p.origin, p.dims))
        .collect()
}

/// Extract the bricks for an explicit partition-id list — the localised
/// drift-refresh path samples exactly the partitions whose residual
/// tripped the threshold rather than a blind stride.
pub fn bricks_at<T: Scalar>(
    field: &Field3<T>,
    dec: &gridlab::Decomposition,
    ids: &[usize],
) -> Vec<Field3<T>> {
    ids.iter()
        .map(|&id| {
            let p = dec.partition(id).expect("partition id in range");
            field.extract(p.origin, p.dims)
        })
        .collect()
}

/// Dimensions helper re-exported for the bench crate's workload builders.
pub fn brick_dims(dec: &gridlab::Decomposition) -> Dim3 {
    dec.brick()
}

/// One fitted [`RatioModel`] per enabled codec backend — the optimizer's
/// pricing table for the joint (codec, bound) decision. The first entry is
/// the **primary** codec: the baseline for traditional runs and the model
/// legacy single-codec call sites read.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecModelBank {
    entries: Vec<(CodecId, RatioModel)>,
}

/// Serialized as the (priority-ordered) entry list — the shape a session
/// checkpoint persists so a restarted run skips recalibration.
impl Serialize for CodecModelBank {
    fn to_value(&self) -> serde::Value {
        self.entries.to_value()
    }
}

/// The inverse of the [`Serialize`] impl, with the constructor's
/// invariants re-checked as *errors*: a corrupted or hand-edited
/// checkpoint must fail the restore, not panic it.
impl Deserialize for CodecModelBank {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = Vec::<(CodecId, RatioModel)>::from_value(v)?;
        if entries.is_empty() {
            return Err(serde::Error::custom("model bank needs at least one codec model"));
        }
        for (i, (a, _)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(b, _)| b == a) {
                return Err(serde::Error::custom(format!("duplicate codec {a} in model bank")));
            }
        }
        Ok(Self { entries })
    }
}

impl CodecModelBank {
    /// Build from per-codec fits. Order is selection-priority order: ties
    /// in predicted cost go to the earlier entry.
    pub fn new(entries: Vec<(CodecId, RatioModel)>) -> Self {
        assert!(!entries.is_empty(), "bank needs at least one codec model");
        for (i, (a, _)) in entries.iter().enumerate() {
            assert!(entries[..i].iter().all(|(b, _)| b != a), "duplicate codec {a} in bank");
        }
        Self { entries }
    }

    /// A single-codec bank (the legacy shape).
    pub fn single(codec: CodecId, model: RatioModel) -> Self {
        Self::new(vec![(codec, model)])
    }

    /// Calibrate one model per codec on the same sample bricks/sweep.
    /// Returns the bank plus every codec's diagnostics.
    pub fn calibrate<T: Scalar>(
        codecs: &[CodecId],
        bricks: &[&Field3<T>],
        eb_sweep: &[f64],
    ) -> Result<(Self, Vec<(CodecId, CalibrationReport)>), CalibrationError> {
        assert!(!codecs.is_empty(), "need at least one codec");
        let mut entries = Vec::with_capacity(codecs.len());
        let mut reports = Vec::with_capacity(codecs.len());
        for &codec in codecs {
            let (model, report) = RatioModel::calibrate_codec(codec, bricks, eb_sweep)?;
            entries.push((codec, model));
            reports.push((codec, report));
        }
        Ok((Self::new(entries), reports))
    }

    /// The model fitted for `codec`, if enabled.
    pub fn get(&self, codec: CodecId) -> Option<&RatioModel> {
        self.entries.iter().find(|(c, _)| *c == codec).map(|(_, m)| m)
    }

    /// The primary (first) codec and its model.
    pub fn primary(&self) -> (CodecId, &RatioModel) {
        let (c, m) = &self.entries[0];
        (*c, m)
    }

    /// All `(codec, model)` pairs in priority order.
    pub fn entries(&self) -> &[(CodecId, RatioModel)] {
        &self.entries
    }

    /// Number of enabled codecs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridlab::Decomposition;

    /// Bricks with controllable roughness: higher `amp` ⇒ more bits.
    fn brick(n: usize, amp: f64, offset: f64, seed: u64) -> Field3<f32> {
        let mut state = seed;
        Field3::from_fn(Dim3::cube(n), |x, y, z| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (offset
                + amp
                    * ((x as f64 * 0.8).sin()
                        + (y as f64 * 0.6).cos()
                        + (z as f64 * 0.9).sin()
                        + noise)) as f32
        })
    }

    fn calibrated() -> (RatioModel, CalibrationReport) {
        // Mean tracks amplitude so the mean→C relation is learnable,
        // mirroring lognormal density data where bright partitions are
        // also rough partitions.
        let bricks: Vec<Field3<f32>> = (0..6)
            .map(|i| {
                let amp = 2.0f64.powi(i);
                brick(12, amp, 10.0 * amp, 17 + i as u64)
            })
            .collect();
        let refs: Vec<&Field3<f32>> = bricks.iter().collect();
        RatioModel::calibrate(&refs, &[0.05, 0.1, 0.2, 0.4, 0.8], &SzConfig::abs(1.0))
            .expect("finite bricks calibrate")
    }

    #[test]
    fn exponent_is_negative() {
        let (model, report) = calibrated();
        assert!(model.c < 0.0, "c = {}", model.c);
        assert!(report.exponents.iter().all(|&e| e < 0.0));
    }

    #[test]
    fn bitrate_prediction_tracks_measurement() {
        let (model, _) = calibrated();
        // Validate on a held-out brick inside the calibration range.
        let held = brick(12, 3.0, 30.0, 999);
        let mean = gridlab::stats::mean(held.as_slice());
        for eb in [0.1, 0.4] {
            let predicted = model.predict_bitrate(mean, eb);
            let measured = measured_bitrate(&held, eb);
            let rel = (predicted - measured).abs() / measured;
            assert!(rel < 0.5, "eb {eb}: predicted {predicted}, measured {measured}");
        }
    }

    #[test]
    fn coefficient_grows_with_mean_on_this_family() {
        let (model, report) = calibrated();
        assert!(report.c_fit_r2 > 0.6, "r2 {}", report.c_fit_r2);
        assert!(model.coefficient(100.0) > model.coefficient(1.0));
    }

    #[test]
    fn overall_bitrate_is_partition_average() {
        let (model, _) = calibrated();
        let means = [5.0, 50.0];
        let ebs = [0.1, 0.1];
        let overall = model.predict_overall_bitrate(&means, &ebs);
        let manual = (model.predict_bitrate(5.0, 0.1) + model.predict_bitrate(50.0, 0.1)) / 2.0;
        assert!((overall - manual).abs() < 1e-12);
    }

    #[test]
    fn eb_for_bitrate_inverts_prediction() {
        let (model, _) = calibrated();
        let mean = 20.0;
        let eb = 0.3;
        let b = model.predict_bitrate(mean, eb);
        let back = model.eb_for_bitrate(mean, b);
        assert!((back - eb).abs() < 1e-9, "{back} vs {eb}");
    }

    #[test]
    fn ratio_is_bits_over_bitrate() {
        let (model, _) = calibrated();
        let means = [10.0, 20.0];
        let ebs = [0.2, 0.2];
        let r = model.predict_ratio(&means, &ebs, 32.0);
        assert!((r - 32.0 / model.predict_overall_bitrate(&means, &ebs)).abs() < 1e-12);
    }

    #[test]
    fn features_extraction_matches_manual() {
        let f = brick(16, 2.0, 20.0, 5);
        let dec = Decomposition::cubic(16, 2).unwrap();
        let feats = extract_features(&f, &dec, 20.0, 1.0);
        assert_eq!(feats.len(), 8);
        let bricks = dec.split(&f);
        for (feat, b) in feats.iter().zip(&bricks) {
            assert!((feat.mean - gridlab::stats::mean(b.as_slice())).abs() < 1e-9);
            assert_eq!(feat.cells, 8 * 8 * 8);
        }
    }

    #[test]
    fn sample_bricks_stride() {
        let f = brick(16, 1.0, 0.0, 2);
        let dec = Decomposition::cubic(16, 4).unwrap();
        assert_eq!(sample_bricks(&f, &dec, 1).len(), 64);
        assert_eq!(sample_bricks(&f, &dec, 4).len(), 16);
        assert_eq!(brick_dims(&dec), Dim3::cube(4));
    }

    #[test]
    fn coefficient_floor_keeps_model_finite() {
        let model = RatioModel { c: -0.5, a0: -100.0, a1: 0.0 };
        assert!(model.coefficient(1.0) >= 1e-4);
        assert!(model.predict_bitrate(1.0, 0.1).is_finite());
        assert!(model.eb_for_bitrate(1.0, 0.5).is_finite());
    }

    #[test]
    fn per_codec_calibration_fits_both_backends() {
        let bricks: Vec<Field3<f32>> = (0..4)
            .map(|i| {
                let amp = 3.0f64.powi(i);
                brick(12, amp, 10.0 * amp, 31 + i as u64)
            })
            .collect();
        let refs: Vec<&Field3<f32>> = bricks.iter().collect();
        let sweep = [0.05, 0.1, 0.2, 0.4, 0.8];
        let (bank, reports) =
            CodecModelBank::calibrate(&CodecId::ALL, &refs, &sweep).expect("finite bricks");
        assert_eq!(bank.len(), 2);
        assert_eq!(reports.len(), 2);
        for (codec, model) in bank.entries() {
            assert!(model.c < 0.0, "{codec}: rate must fall with the bound, c = {}", model.c);
        }
        assert_eq!(bank.primary().0, CodecId::Rsz);
        assert!(bank.get(CodecId::Zfp).is_some());
    }

    #[test]
    fn nan_laced_bricks_are_a_typed_error_not_a_nan_model() {
        let good = brick(8, 2.0, 20.0, 1);
        let mut bad = brick(8, 2.0, 20.0, 2);
        bad.as_mut_slice()[7] = f32::NAN;
        let refs = [&good, &bad];
        let err = RatioModel::calibrate(&refs, &[0.1, 0.4], &SzConfig::abs(1.0)).unwrap_err();
        assert!(matches!(err, CalibrationError::NonFiniteMean { brick: 1, .. }), "{err}");
    }

    #[test]
    fn non_finite_measured_rate_is_a_typed_error() {
        let a = brick(8, 2.0, 20.0, 1);
        let b = brick(8, 2.0, 40.0, 2);
        let refs = [&a, &b];
        let err = RatioModel::calibrate_by(&refs, &[0.1, 0.4], |_, eb| {
            if eb > 0.2 {
                f64::INFINITY
            } else {
                4.0
            }
        })
        .unwrap_err();
        assert!(matches!(err, CalibrationError::NonFiniteRate { brick: 0, .. }), "{err}");
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn constant_bricks_calibrate_to_a_flat_finite_model() {
        // All sample means identical → degenerate ln-mean abscissae. This
        // used to panic linear_fit ("x values are degenerate"); now it
        // must degrade to a mean-independent coefficient.
        let a = Field3::<f32>::constant(Dim3::cube(8), 7.25);
        let b = Field3::<f32>::constant(Dim3::cube(8), 7.25);
        let refs = [&a, &b];
        let (model, _) =
            RatioModel::calibrate(&refs, &[0.1, 0.4], &SzConfig::abs(1.0)).expect("flat fit");
        assert_eq!(model.a1, 0.0);
        assert!(model.a0.is_finite() && model.c.is_finite());
        assert!(model.predict_bitrate(7.25, 0.1).is_finite());
    }

    #[test]
    fn bricks_at_extracts_the_requested_partitions() {
        let f = brick(16, 1.0, 0.0, 2);
        let dec = Decomposition::cubic(16, 4).unwrap();
        let picked = bricks_at(&f, &dec, &[3, 17]);
        assert_eq!(picked.len(), 2);
        let all = dec.split(&f);
        assert_eq!(picked[0].as_slice(), all[3].as_slice());
        assert_eq!(picked[1].as_slice(), all[17].as_slice());
    }

    #[test]
    fn bank_rejects_duplicates_and_empties() {
        let m = RatioModel { c: -0.5, a0: 0.5, a1: 0.3 };
        assert!(std::panic::catch_unwind(|| CodecModelBank::new(vec![])).is_err());
        assert!(std::panic::catch_unwind(|| CodecModelBank::new(vec![
            (CodecId::Rsz, m),
            (CodecId::Rsz, m),
        ]))
        .is_err());
        let bank = CodecModelBank::single(CodecId::Zfp, m);
        assert_eq!(bank.primary().0, CodecId::Zfp);
        assert!(bank.get(CodecId::Rsz).is_none());
    }
}
