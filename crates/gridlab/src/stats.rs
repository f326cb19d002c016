//! Per-partition feature extraction.
//!
//! The paper's in situ overhead budget hinges on these being cheap: the
//! optimizer needs only the **mean value** of each partition (bit-rate model,
//! Eq. 15), plus — for baryon density — the **boundary-cell count** within
//! `(t_boundary − eb, t_boundary + eb)` (halo-finder model, Eq. 13).
//! Histogram and entropy are provided for model calibration and validation
//! (entropy is the "better but more expensive" compressibility proxy the
//! paper mentions before settling on the mean).
//!
//! ## One moments kernel
//!
//! Mean, variance, min/max, the boundary-cell count and the non-finite
//! screen all come from one kernel, [`scan_rows`]: a cache-resident block
//! is walked twice — lane-parallel sum → mean, then lane-parallel centred
//! squares — so there is no per-cell division, no loop-carried dependency
//! longer than one add per lane, and no sum of raw squares to cancel
//! catastrophically on cosmology's ~9-decade dynamic ranges. Blocks
//! combine through [`Moments::merge`] (Chan et al.'s pairwise update).
//! [`summarize`] folds fixed-size blocks of a slice left to right;
//! [`Decomposition::scan`](crate::Decomposition::scan) runs the kernel over
//! each partition's z-pencils in place. The association order of every
//! floating-point sum is written out in this file (fixed-width lane
//! arrays, a fixed lane fold, a left fold over blocks), so results are a
//! pure function of the input and of the block/partition geometry —
//! never of the instruction set the build vectorises for or of the
//! thread that ran a block.

use crate::{Field3, Scalar};

/// Summary statistics of a slice of scalar values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    /// Population variance.
    pub variance: f64,
}

impl Summary {
    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Value range `max - min`.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Mergeable moments of a set of values: what [`Summary`] is finalised
/// from, in the form that combines across blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    pub count: usize,
    pub mean: f64,
    /// Sum of squared deviations from `mean`.
    pub m2: f64,
    pub min: f64,
    pub max: f64,
}

impl Moments {
    /// Moments of the union of two disjoint sets (Chan, Golub & LeVeque's
    /// pairwise update). Not associative in floating point: callers fold
    /// in a fixed order (block order, partition-id order).
    pub fn merge(self, other: Moments) -> Moments {
        let count = self.count + other.count;
        let delta = other.mean - self.mean;
        let weight = other.count as f64 / count as f64;
        Moments {
            count,
            mean: self.mean + delta * weight,
            m2: self.m2 + other.m2 + delta * delta * (self.count as f64 * weight),
            min: if other.min < self.min { other.min } else { self.min },
            max: if other.max > self.max { other.max } else { self.max },
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        self.m2 / self.count as f64
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Finalise into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean,
            min: self.min,
            max: self.max,
            variance: self.variance(),
        }
    }
}

/// What one fused pass over a block of values reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scan {
    /// NaN/∞ cells. When non-zero the moments are meaningless (NaN or
    /// infinite) and the caller should reject the input.
    pub non_finite: usize,
    pub moments: Moments,
    /// Cells in the open interval `(lo, hi)` the scan was asked about —
    /// [`count_in_range`], fused.
    pub boundary_cells: usize,
}

/// Independent accumulators per reduction: lane `l` takes cells
/// `l, l + LANES, …` of each row, and the lanes fold in the fixed order of
/// [`fold_lanes`]. Four `f64` lanes are two baseline-x86-64 vectors per
/// accumulator, so all of [`FirstPass`] stays in registers; eight measured
/// 30 % slower on 16-cell pencils and no faster on long rows.
const LANES: usize = 4;

/// Cells per block of [`summarize`]: 32 KiB of `f64`, so the second
/// (centred-squares) pass re-reads the block from L1.
const BLOCK_CELLS: usize = 4096;

fn fold_lanes(a: &[f64; LANES]) -> f64 {
    (a[0] + a[1]) + (a[2] + a[3])
}

/// First-pass accumulators: sum, min, max and the in-range count, lane by
/// lane.
struct FirstPass {
    sum: [f64; LANES],
    min: [f64; LANES],
    max: [f64; LANES],
    in_range: [u64; LANES],
    lo: f64,
    hi: f64,
}

impl FirstPass {
    #[inline(always)]
    fn cell(&mut self, l: usize, x: f64) {
        self.sum[l] += x;
        // Comparisons rather than `f64::min`/`max`: one instruction per
        // lane, and a NaN cell never displaces a finite extreme.
        self.min[l] = if x < self.min[l] { x } else { self.min[l] };
        self.max[l] = if x > self.max[l] { x } else { self.max[l] };
        self.in_range[l] += ((x > self.lo) & (x < self.hi)) as u64;
    }

    // Kept out of line: as its own single-loop function the lane arrays
    // vectorise; inlined into the caller's loop over rows they are spilled
    // to scalars (1.5x slower on 16-cell pencils). `chunks_exact` for the
    // same reason: the full-width loop needs a compile-time trip count.
    #[inline(never)]
    fn row<T: Scalar>(&mut self, row: &[T]) {
        let mut chunks = row.chunks_exact(LANES);
        for c in &mut chunks {
            for (l, v) in c.iter().enumerate() {
                self.cell(l, v.to_f64());
            }
        }
        for (l, v) in chunks.remainder().iter().enumerate() {
            self.cell(l, v.to_f64());
        }
    }
}

/// Second pass over one row: squared deviations from `mean`, lane by lane.
#[inline(never)]
fn centred_squares<T: Scalar>(row: &[T], mean: f64, sq: &mut [f64; LANES]) {
    let mut chunks = row.chunks_exact(LANES);
    for c in &mut chunks {
        for (s, v) in sq.iter_mut().zip(c) {
            let d = v.to_f64() - mean;
            *s += d * d;
        }
    }
    for (s, v) in sq.iter_mut().zip(chunks.remainder()) {
        let d = v.to_f64() - mean;
        *s += d * d;
    }
}

/// The fused kernel: one block of values, handed over as rows (a brick's
/// z-pencils in place, or a single contiguous slice), reduced to its
/// non-finite count, moments and `(lo, hi)` boundary-cell count.
///
/// The rows are walked twice (sum → mean, then centred squares), so the
/// block should be cache-sized; larger inputs are cut into blocks by the
/// caller and combined with [`Moments::merge`]. Panics on an empty block.
pub fn scan_rows<'a, T: Scalar>(
    rows: impl Iterator<Item = &'a [T]> + Clone,
    lo: f64,
    hi: f64,
) -> Scan {
    let mut first = FirstPass {
        sum: [0.0; LANES],
        min: [f64::INFINITY; LANES],
        max: [f64::NEG_INFINITY; LANES],
        in_range: [0; LANES],
        lo,
        hi,
    };
    let mut count = 0usize;
    // `for_each`, not `for`: nested-pencil iterators drive ~20 % faster
    // through internal iteration.
    rows.clone().for_each(|row| {
        first.row(row);
        count += row.len();
    });
    assert!(count > 0, "cannot scan an empty block");
    let sum = fold_lanes(&first.sum);
    // A NaN or ±∞ cell makes its lane's sum, and so the folded sum,
    // non-finite: the screen costs nothing on clean blocks, and a poisoned
    // block is recounted exactly.
    let non_finite = if sum.is_finite() {
        0
    } else {
        rows.clone().map(|row| row.iter().filter(|v| !v.is_finite()).count()).sum()
    };
    let min = first.min.iter().fold(f64::INFINITY, |a, &b| if b < a { b } else { a });
    let max = first.max.iter().fold(f64::NEG_INFINITY, |a, &b| if b > a { b } else { a });
    let (mean, m2) = if min == max {
        // A constant block: exact, whatever rounding `sum / count` has.
        (min, 0.0)
    } else {
        let mean = sum / count as f64;
        let mut sq = [0.0; LANES];
        rows.for_each(|row| centred_squares(row, mean, &mut sq));
        (mean, fold_lanes(&sq))
    };
    Scan {
        non_finite,
        moments: Moments { count, mean, m2, min, max },
        boundary_cells: first.in_range.iter().sum::<u64>() as usize,
    }
}

/// Summary of a value slice: [`scan_rows`] over fixed-size blocks, merged
/// left to right.
///
/// Per-block centred squares plus Chan merges keep the variance
/// numerically stable for the huge dynamic ranges of cosmology fields
/// (densities span ~9 decades) and for large mean offsets.
pub fn summarize<T: Scalar>(values: &[T]) -> Summary {
    assert!(!values.is_empty(), "cannot summarize an empty slice");
    values
        .chunks(BLOCK_CELLS)
        .map(|block| scan_rows(std::iter::once(block), 0.0, 0.0).moments)
        .reduce(Moments::merge)
        .expect("non-empty slice has a first block")
        .summary()
}

/// Convenience wrapper over [`summarize`] for a field.
pub fn summarize_field<T: Scalar>(f: &Field3<T>) -> Summary {
    summarize(f.as_slice())
}

/// Mean value only — the single cheapest feature; used in situ per partition.
pub fn mean<T: Scalar>(values: &[T]) -> f64 {
    assert!(!values.is_empty());
    values.iter().map(|v| v.to_f64()).sum::<f64>() / values.len() as f64
}

/// Fixed-width histogram over `[lo, hi)` with `bins` buckets.
///
/// Values outside the range are clamped into the first/last bucket so the
/// total count always equals the input length (matches how the paper's
/// error-distribution plots are binned).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Build a histogram of `values`.
    pub fn build<T: Scalar>(values: &[T], lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo, "invalid histogram spec");
        let mut counts = vec![0u64; bins];
        let w = (hi - lo) / bins as f64;
        for v in values {
            let x = v.to_f64();
            let b = if x < lo {
                0
            } else if x >= hi {
                bins - 1
            } else {
                (((x - lo) / w) as usize).min(bins - 1)
            };
            counts[b] += 1;
        }
        Self { lo, hi, counts }
    }

    /// Histogram spanning the data's own min/max.
    pub fn auto<T: Scalar>(values: &[T], bins: usize) -> Self {
        let s = summarize(values);
        let (lo, hi) = if s.max > s.min { (s.min, s.max) } else { (s.min, s.min + 1.0) };
        Self::build(values, lo, hi, bins)
    }

    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bin width.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.bins() as f64
    }

    /// Center of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width()
    }

    /// Shannon entropy (bits) of the bin occupancy distribution.
    pub fn entropy_bits(&self) -> f64 {
        let total = self.total() as f64;
        if total == 0.0 {
            return 0.0;
        }
        self.counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                -p * p.log2()
            })
            .sum()
    }

    /// Coefficient of variation of bin counts — a quick uniformity score.
    /// A perfectly uniform histogram scores 0.
    pub fn uniformity_cv(&self) -> f64 {
        let n = self.bins() as f64;
        let mean = self.total() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }
}

/// Count of values in the open interval `(lo, hi)`.
///
/// With `lo = t_boundary − eb`, `hi = t_boundary + eb` this is the paper's
/// `n_bc` — the number of halo-boundary cells whose candidacy lossy error can
/// flip (Eq. 13).
pub fn count_in_range<T: Scalar>(values: &[T], lo: f64, hi: f64) -> usize {
    values
        .iter()
        .filter(|v| {
            let x = v.to_f64();
            x > lo && x < hi
        })
        .count()
}

/// The paper's per-partition feature record, extracted in one pass.
///
/// `boundary_cells` is `n_bc` measured at the reference bound
/// `eb_ref` (the paper extracts once at `eb = 1.0` and scales linearly:
/// `n_bc(eb) ≈ n_bc(eb_ref) · eb / eb_ref`, valid because the local value
/// histogram is approximately flat at halo-threshold scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionFeatures {
    /// Mean of all cells — drives the bit-rate model.
    pub mean: f64,
    /// Cells within `(t_boundary − eb_ref, t_boundary + eb_ref)`.
    pub boundary_cells: usize,
    /// Reference bound the boundary-cell count was taken at.
    pub eb_ref: f64,
    /// Cell count of the partition.
    pub cells: usize,
}

impl PartitionFeatures {
    /// The features of a block [`scan_rows`] (or
    /// [`Decomposition::scan`](crate::Decomposition::scan)) already walked
    /// with `(lo, hi) = (t_boundary − eb_ref, t_boundary + eb_ref)`.
    pub fn of_scan(scan: &Scan, eb_ref: f64) -> Self {
        assert!(eb_ref > 0.0);
        Self {
            mean: scan.moments.mean,
            boundary_cells: scan.boundary_cells,
            eb_ref,
            cells: scan.moments.count,
        }
    }

    /// Extract features in a single fused pass over the brick.
    pub fn extract<T: Scalar>(values: &[T], t_boundary: f64, eb_ref: f64) -> Self {
        let scan = scan_rows(std::iter::once(values), t_boundary - eb_ref, t_boundary + eb_ref);
        Self::of_scan(&scan, eb_ref)
    }

    /// Linearly rescale the boundary-cell count to a different error bound
    /// (the paper's `n_bc = n × eb` relation, §4.2 / Fig. 14 discussion).
    pub fn boundary_cells_at(&self, eb: f64) -> f64 {
        self.boundary_cells as f64 * eb / self.eb_ref
    }
}

/// Shannon entropy (bits/value) of the values quantized into `2·half_bins`
/// buckets of width `quantum` centred on the data mean.
///
/// This mirrors the quantization-code entropy that lower-bounds the Huffman
/// stage of an SZ-style compressor; it is the expensive compressibility
/// feature the paper replaces with the mean.
pub fn quantized_entropy_bits<T: Scalar>(values: &[T], quantum: f64, half_bins: usize) -> f64 {
    assert!(quantum > 0.0 && half_bins > 0);
    let m = mean(values);
    let lo = m - quantum * half_bins as f64;
    let hi = m + quantum * half_bins as f64;
    Histogram::build(values, lo, hi, 2 * half_bins).entropy_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dim3;

    #[test]
    fn summary_of_known_values() {
        let s = summarize(&[1.0f64, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert!((s.std_dev() - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.range(), 3.0);
    }

    #[test]
    fn welford_matches_naive_on_large_offsets() {
        // A mean offset of 1e9 would destroy a naive sum-of-squares variance.
        let vals: Vec<f64> = (0..1000).map(|i| 1e9 + (i % 10) as f64).collect();
        let s = summarize(&vals);
        let naive_mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((s.mean - naive_mean).abs() < 1e-3);
        assert!((s.variance - 8.25).abs() < 1e-3);
    }

    #[test]
    fn constant_values_have_exactly_zero_variance() {
        // 0.1 is not a dyadic rational: `sum / count` need not round back
        // to it, the constant-block branch must.
        for n in [1usize, 3, LANES + 1, BLOCK_CELLS, 3 * BLOCK_CELLS + 7] {
            let s = summarize(&vec![0.1f64; n]);
            assert_eq!((s.mean, s.variance, s.min, s.max), (0.1, 0.0, 0.1, 0.1), "n = {n}");
        }
    }

    #[test]
    fn blocked_summary_matches_two_pass_reference() {
        // Spans several blocks plus a ragged tail, over ~9 decades.
        let vals: Vec<f32> =
            (0..2 * BLOCK_CELLS + 1234).map(|i| (((i * 37) % 2003) as f32 * 0.01).exp()).collect();
        let n = vals.len() as f64;
        let mean = vals.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var = vals.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
        let s = summarize(&vals);
        assert!((s.mean - mean).abs() <= 1e-12 * mean, "{} vs {mean}", s.mean);
        assert!((s.variance - var).abs() <= 1e-10 * var, "{} vs {var}", s.variance);
        assert_eq!(s.min, vals.iter().fold(f64::INFINITY, |a, &v| a.min(v as f64)));
        assert_eq!(s.max, vals.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v as f64)));
    }

    #[test]
    fn merge_is_the_moments_of_the_union() {
        let (a, b) = ([1.0f64, 2.0, 3.0], [10.0f64, 20.0, 30.0, 40.0, 50.0]);
        let of = |v: &[f64]| scan_rows(std::iter::once(v), 0.0, 0.0).moments;
        let merged = of(&a).merge(of(&b));
        let all: Vec<f64> = a.iter().chain(&b).copied().collect();
        let whole = of(&all);
        assert_eq!(merged.count, 8);
        assert!((merged.mean - whole.mean).abs() < 1e-12);
        assert!((merged.m2 - whole.m2).abs() < 1e-9);
        assert_eq!((merged.min, merged.max), (1.0, 50.0));
    }

    #[test]
    fn scan_counts_every_non_finite_cell() {
        // +∞ and −∞ in one lane sum to NaN, NaN alone stays NaN, a lone ∞
        // stays ∞: each must trip the screen and be counted exactly.
        let mut vals = vec![1.0f32; 64];
        for poison in [
            vec![(3, f32::NAN)],
            vec![(0, f32::INFINITY)],
            vec![(1, f32::INFINITY), (1 + LANES, f32::NEG_INFINITY)],
            vec![(5, f32::NAN), (6, f32::INFINITY), (63, f32::NEG_INFINITY)],
        ] {
            for &(i, v) in &poison {
                vals[i] = v;
            }
            let rows = vals.chunks(10); // ragged pencils: 6 of 10 + one of 4
            assert_eq!(scan_rows(rows, 0.0, 2.0).non_finite, poison.len(), "{poison:?}");
            for &(i, _) in &poison {
                vals[i] = 1.0;
            }
        }
        let clean = scan_rows(vals.chunks(10), 0.0, 2.0);
        assert_eq!((clean.non_finite, clean.boundary_cells), (0, 64));
    }

    #[test]
    fn histogram_counts_and_clamping() {
        let vals = [-1.0f64, 0.0, 0.5, 0.99, 5.0];
        let h = Histogram::build(&vals, 0.0, 1.0, 2);
        assert_eq!(h.total(), 5);
        // -1 clamps into bin 0; 0.5, 0.99 land in bin 1; 5.0 clamps into bin 1.
        assert_eq!(h.counts, vec![2, 3]);
        assert!((h.width() - 0.5).abs() < 1e-12);
        assert!((h.center(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_auto_covers_data() {
        let vals = [2.0f32, 4.0, 6.0];
        let h = Histogram::auto(&vals, 4);
        assert_eq!(h.lo, 2.0);
        assert_eq!(h.hi, 6.0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn entropy_extremes() {
        let uniform = Histogram { lo: 0.0, hi: 1.0, counts: vec![5, 5, 5, 5] };
        assert!((uniform.entropy_bits() - 2.0).abs() < 1e-12);
        assert!((uniform.uniformity_cv()).abs() < 1e-12);
        let point = Histogram { lo: 0.0, hi: 1.0, counts: vec![20, 0, 0, 0] };
        assert_eq!(point.entropy_bits(), 0.0);
        assert!(point.uniformity_cv() > 1.0);
    }

    #[test]
    fn count_in_range_is_open_interval() {
        let vals = [1.0f64, 2.0, 3.0];
        assert_eq!(count_in_range(&vals, 1.0, 3.0), 1); // endpoints excluded
        assert_eq!(count_in_range(&vals, 0.0, 4.0), 3);
    }

    #[test]
    fn features_fused_pass_matches_separate() {
        let f = Field3::from_fn(Dim3::cube(8), |x, y, z| (x + y + z) as f64);
        let vals = f.as_slice();
        let t = 10.0;
        let ebr = 2.0;
        let feat = PartitionFeatures::extract(vals, t, ebr);
        assert!((feat.mean - mean(vals)).abs() < 1e-12);
        assert_eq!(feat.boundary_cells, count_in_range(vals, t - ebr, t + ebr));
        assert_eq!(feat.cells, 512);
    }

    #[test]
    fn boundary_cells_scale_linearly() {
        let feat = PartitionFeatures { mean: 0.0, boundary_cells: 100, eb_ref: 1.0, cells: 1000 };
        assert!((feat.boundary_cells_at(0.5) - 50.0).abs() < 1e-12);
        assert!((feat.boundary_cells_at(2.0) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn quantized_entropy_constant_field_is_zero() {
        let vals = vec![5.0f32; 100];
        assert_eq!(quantized_entropy_bits(&vals, 0.1, 8), 0.0);
    }

    #[test]
    fn quantized_entropy_spread_is_positive() {
        let vals: Vec<f64> = (0..128).map(|i| i as f64 * 0.1).collect();
        assert!(quantized_entropy_bits(&vals, 0.1, 64) > 3.0);
    }
}
