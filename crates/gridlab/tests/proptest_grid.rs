//! Property tests for the grid substrate: index algebra, brick extraction,
//! statistics, the fused partition scan, and the snapshot wire format.

use gridlab::partition::PAR_SCAN_MIN_CELLS;
use gridlab::stats::{
    count_in_range, scan_rows, summarize, Histogram, Moments, PartitionFeatures, Scan,
};
use gridlab::{io, Decomposition, Dim3, Field3, Scalar};
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = Dim3> {
    (1usize..=8, 1usize..=8, 1usize..=8).prop_map(|(x, y, z)| Dim3::new(x, y, z))
}

fn arb_field() -> impl Strategy<Value = Field3<f32>> {
    arb_dims().prop_flat_map(|d| {
        proptest::collection::vec(-1.0e5f32..1.0e5f32, d.len())
            .prop_map(move |v| Field3::from_vec(d, v).expect("sized"))
    })
}

/// Input families the moments kernel must survive.
#[derive(Debug, Clone, Copy)]
enum Family {
    /// Nine decades, like a cosmological density.
    Lognormal,
    /// A 1e9 offset under a ~1e3 spread: raw squares would cancel.
    Offset,
    /// One value everywhere (not a dyadic rational).
    Constant,
    /// Lognormal with ~5 % NaN.
    NanLaced,
    /// Lognormal with ~5 % +∞ / −∞.
    InfLaced,
}

const FAMILIES: [Family; 5] =
    [Family::Lognormal, Family::Offset, Family::Constant, Family::NanLaced, Family::InfLaced];

fn family_field<T: Scalar>(dims: Dim3, family: Family, seed: u64) -> Field3<T> {
    let mut state = seed;
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    Field3::from_fn(dims, |_, _, _| {
        let u = unit();
        let lognormal = (9.0 * std::f64::consts::LN_10 * u).exp();
        let lace = unit() < 0.05;
        T::from_f64(match family {
            Family::Lognormal => lognormal,
            Family::Offset => 1e9 + 1e3 * u,
            Family::Constant => 0.1 + seed as f64,
            Family::NanLaced if lace => f64::NAN,
            Family::InfLaced if lace => [f64::INFINITY, f64::NEG_INFINITY][(u < 0.5) as usize],
            Family::NanLaced | Family::InfLaced => lognormal,
        })
    })
}

/// Every field of a scan record, floats as bits (NaN moments of a poisoned
/// partition must compare equal to themselves).
fn scan_bits(s: &Scan) -> (usize, usize, [u64; 4], usize) {
    let m = s.moments;
    (s.non_finite, m.count, [m.mean, m.m2, m.min, m.max].map(f64::to_bits), s.boundary_cells)
}

/// The scan of `field` against what `extract` + plain iterator code says
/// about each brick, and the merged moments against an f64 two-pass
/// reference over the whole field.
fn check_scan<T: Scalar>(
    dec: &Decomposition,
    family: Family,
    seed: u64,
    lo: f64,
    hi: f64,
) -> Result<(), TestCaseError> {
    let field: Field3<T> = family_field(dec.domain(), family, seed);
    let scans = dec.scan(&field, lo, hi);
    prop_assert_eq!(scans.len(), dec.num_partitions());
    for (p, scan) in dec.iter().zip(&scans) {
        let brick = field.extract(p.origin, p.dims);
        let values: Vec<f64> = brick.as_slice().iter().map(|v| v.to_f64()).collect();
        prop_assert_eq!(scan.moments.count, values.len());
        prop_assert_eq!(scan.boundary_cells, count_in_range(brick.as_slice(), lo, hi));
        prop_assert_eq!(scan.non_finite, values.iter().filter(|v| !v.is_finite()).count());
        if scan.non_finite == 0 {
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            prop_assert!(
                (scan.moments.mean - mean).abs() <= 1e-12 * mean.abs(),
                "partition {} mean {} vs {mean}",
                p.id,
                scan.moments.mean
            );
            prop_assert_eq!(scan.moments.min, values.iter().copied().fold(f64::INFINITY, f64::min));
            prop_assert_eq!(
                scan.moments.max,
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            );
        }
    }
    let merged = scans.iter().map(|s| s.moments).reduce(Moments::merge).expect("partitions");
    match family {
        Family::NanLaced | Family::InfLaced => {}
        // Exactly zero, where a reference's own rounding would not be.
        Family::Constant => prop_assert_eq!(merged.variance(), 0.0),
        Family::Lognormal | Family::Offset => {
            // Corrected two-pass reference: the Σd term removes the
            // first-order effect of the reference mean's own rounding.
            let n = field.len() as f64;
            let mean = field.as_slice().iter().map(|v| v.to_f64()).sum::<f64>() / n;
            let (d1, d2) = field.as_slice().iter().fold((0.0, 0.0), |(d1, d2), v| {
                let d = v.to_f64() - mean;
                (d1 + d, d2 + d * d)
            });
            let variance = (d2 - d1 * d1 / n) / n;
            prop_assert!(
                (merged.variance() - variance).abs() <= 1e-10 * variance,
                "{family:?}: merged variance {} vs {variance}",
                merged.variance()
            );
        }
    }
    Ok(())
}

proptest! {
    // Fields past the fan-out threshold: few cases, each ~1.5 M cells.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fanned_out_scan_is_bit_identical_to_the_inline_driver(
        brick in (5usize..=12, 5usize..=12, 5usize..=19),
        family in 0usize..FAMILIES.len(),
        seed in 0u64..1000,
    ) {
        let brick = Dim3::new(brick.0, brick.1, brick.2);
        let per_axis = (1..).find(|c| brick.len() * c * c * c >= PAR_SCAN_MIN_CELLS).expect("grows");
        let domain = Dim3::new(brick.nx * per_axis, brick.ny * per_axis, brick.nz * per_axis);
        let dec = Decomposition::new(domain, brick).expect("tiles");
        let field: Field3<f32> = family_field(domain, FAMILIES[family], seed);
        let fanned_out = dec.scan(&field, 10.0, 1e4);
        // The inline driver: the public per-brick kernel, one partition at
        // a time on this thread.
        let inline = dec.iter().map(|p| scan_rows(field.pencils(p.origin, p.dims), 10.0, 1e4));
        prop_assert_eq!(fanned_out.len(), dec.num_partitions());
        for (a, b) in fanned_out.iter().zip(inline) {
            prop_assert_eq!(scan_bits(a), scan_bits(&b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scan_matches_extract_and_two_pass_references(
        brick in (1usize..=5, 1usize..=7, 1usize..=9),
        counts in (1usize..=3, 1usize..=3, 1usize..=3),
        family in 0usize..FAMILIES.len(),
        seed in 0u64..1000,
        lo in 0.0f64..1e3,
        width in 0.0f64..1e6,
    ) {
        let brick = Dim3::new(brick.0, brick.1, brick.2);
        let domain = Dim3::new(brick.nx * counts.0, brick.ny * counts.1, brick.nz * counts.2);
        let dec = Decomposition::new(domain, brick).expect("tiles");
        check_scan::<f32>(&dec, FAMILIES[family], seed, lo, lo + width)?;
        check_scan::<f64>(&dec, FAMILIES[family], seed, lo, lo + width)?;
    }

    #[test]
    fn index_coords_roundtrip(d in arb_dims(), i in 0usize..512) {
        prop_assume!(i < d.len());
        let (x, y, z) = d.coords(i);
        prop_assert_eq!(d.index(x, y, z), i);
        prop_assert!(x < d.nx && y < d.ny && z < d.nz);
    }

    #[test]
    fn extract_insert_roundtrip(f in arb_field()) {
        let d = f.dims();
        // Extract a random sub-brick deterministically derived from dims.
        let bx = 1 + d.nx / 2;
        let by = 1 + d.ny / 2;
        let bz = 1 + d.nz / 2;
        let brick = Dim3::new(bx.min(d.nx), by.min(d.ny), bz.min(d.nz));
        let b = f.extract((0, 0, 0), brick);
        let mut g = Field3::<f32>::zeros(d);
        g.insert((0, 0, 0), &b);
        for x in 0..brick.nx {
            for y in 0..brick.ny {
                for z in 0..brick.nz {
                    prop_assert_eq!(g.get(x, y, z), f.get(x, y, z));
                }
            }
        }
    }

    #[test]
    fn split_assemble_identity(n in 2usize..=8, parts in 1usize..=4, seed in 0u64..300) {
        prop_assume!(n.is_multiple_of(parts));
        let mut state = seed;
        let f = Field3::from_fn(Dim3::cube(n), |_, _, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as f32
        });
        let dec = Decomposition::cubic(n, parts).expect("divides");
        prop_assert_eq!(dec.assemble(&dec.split(&f)).expect("assembles"), f);
    }

    #[test]
    fn partition_of_cell_consistent_with_origins(n in 2usize..=8, parts in 1usize..=4) {
        prop_assume!(n.is_multiple_of(parts));
        let dec = Decomposition::cubic(n, parts).expect("divides");
        for p in dec.iter() {
            let (ox, oy, oz) = p.origin;
            prop_assert_eq!(dec.partition_of_cell(ox, oy, oz), p.id);
        }
    }

    #[test]
    fn summary_bounds_are_tight(f in arb_field()) {
        let s = summarize(f.as_slice());
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.variance >= 0.0);
        prop_assert_eq!(s.count, f.len());
        for v in f.as_slice() {
            prop_assert!((*v as f64) >= s.min && (*v as f64) <= s.max);
        }
    }

    #[test]
    fn histogram_conserves_count(f in arb_field(), bins in 1usize..40) {
        let h = Histogram::auto(f.as_slice(), bins);
        prop_assert_eq!(h.total() as usize, f.len());
        prop_assert_eq!(h.bins(), bins);
    }

    #[test]
    fn range_count_monotone_in_width(f in arb_field(), center in -1e4f64..1e4, w in 0.0f64..1e4) {
        let narrow = count_in_range(f.as_slice(), center - w, center + w);
        let wide = count_in_range(f.as_slice(), center - 2.0 * w, center + 2.0 * w);
        prop_assert!(wide >= narrow);
    }

    #[test]
    fn fused_features_match_separate_passes(f in arb_field(), t in -1e4f64..1e4, eb in 1e-3f64..1e4) {
        let feat = PartitionFeatures::extract(f.as_slice(), t, eb);
        let mean = f.as_slice().iter().map(|v| *v as f64).sum::<f64>() / f.len() as f64;
        prop_assert!((feat.mean - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert_eq!(feat.boundary_cells, count_in_range(f.as_slice(), t - eb, t + eb));
    }

    #[test]
    fn io_roundtrip(f in arb_field()) {
        let bytes = io::to_bytes(&f);
        let g: Field3<f32> = io::from_bytes(&bytes).expect("parses");
        prop_assert_eq!(f, g);
    }

    #[test]
    fn io_rejects_any_truncation(f in arb_field(), cut in 1usize..64) {
        let bytes = io::to_bytes(&f);
        prop_assume!(cut < bytes.len());
        prop_assert!(io::from_bytes::<f32>(&bytes[..bytes.len() - cut]).is_err());
    }
}
