//! The pipeline's determinism contract: compressing partitions through the
//! parallel brick map must produce containers **byte-identical** to a
//! strictly serial walk over the same partitions, and reconstructions must
//! be bit-identical — including when the optimizer mixes codec backends
//! within one snapshot. This is what makes the parallel engine a pure
//! performance change — simulation outputs cannot depend on the worker
//! count or scheduling order. The same holds one level up: a whole
//! session push (fused pre-compress scan → σ-scaled budget → optimizer →
//! compression) equals a serial reference assembled from the public
//! per-brick pieces.

use adaptive_config::optimizer::QualityTarget;
use adaptive_config::pipeline::{InSituPipeline, PipelineConfig};
use adaptive_config::session::{QualityPolicy, SessionConfig, StreamSession};
use adaptive_config::PartitionFeature;
use codec_core::{CodecId, CodecScratch, Container};
use gridlab::stats::{scan_rows, Moments, PartitionFeatures};
use gridlab::{Decomposition, Dim3, Field3};

/// Mixed smooth/rough field so partitions differ wildly in cost and
/// unpredictable-cell counts (the load-imbalance case the dynamic
/// scheduler exists for) — and so the multi-codec optimizer genuinely
/// mixes backends.
fn contrast_field(n: usize) -> Field3<f32> {
    let mut state = 3u64;
    Field3::from_fn(Dim3::cube(n), |x, y, z| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        if x >= n / 2 && y >= n / 2 {
            (200.0 + 80.0 * noise + (z as f64 * 0.9).sin() * 40.0) as f32
        } else {
            (10.0 + 0.5 * (x as f64 * 0.2).sin() + 0.1 * noise) as f32
        }
    })
}

/// Serial reference for `InSituPipeline::compress_with`: one partition at a
/// time, in id order, on the calling thread, through one reused scratch.
fn serial_containers(
    field: &Field3<f32>,
    dec: &Decomposition,
    codecs: &[CodecId],
    ebs: &[f64],
) -> Vec<Container> {
    let mut scratch = CodecScratch::default();
    dec.iter()
        .map(|p| {
            let brick = field.extract(p.origin, p.dims);
            Container::compress_with(
                codecs[p.id],
                brick.as_slice(),
                brick.dims(),
                ebs[p.id],
                &mut scratch,
            )
        })
        .collect()
}

fn pipeline(
    n: usize,
    parts: usize,
    eb_avg: f64,
    codecs: &[CodecId],
) -> (InSituPipeline, Field3<f32>) {
    let field = contrast_field(n);
    let dec = Decomposition::cubic(n, parts).unwrap();
    let cfg = PipelineConfig::new(dec, QualityTarget::fft_only(eb_avg)).with_codecs(codecs);
    let (p, _) = InSituPipeline::calibrate(cfg, &field, 3, &[0.05, 0.1, 0.2, 0.4, 0.8])
        .expect("finite field calibrates");
    (p, field)
}

#[test]
fn parallel_adaptive_containers_match_serial_bytes() {
    let (p, field) = pipeline(32, 4, 0.2, &[CodecId::Rsz]);
    let run = p.run_adaptive(&field);
    let reference = serial_containers(&field, &p.config().dec, &run.codecs, &run.ebs);
    assert_eq!(run.containers.len(), reference.len());
    for (id, (par, ser)) in run.containers.iter().zip(&reference).enumerate() {
        assert_eq!(
            par.as_bytes(),
            ser.as_bytes(),
            "partition {id}: parallel container differs from serial"
        );
    }
}

#[test]
fn parallel_traditional_containers_match_serial_bytes() {
    let (p, field) = pipeline(32, 4, 0.2, &[CodecId::Rsz]);
    let run = p.run_traditional(&field, 0.15);
    let reference = serial_containers(&field, &p.config().dec, &run.codecs, &run.ebs);
    for (id, (par, ser)) in run.containers.iter().zip(&reference).enumerate() {
        assert_eq!(par.as_bytes(), ser.as_bytes(), "partition {id} differs");
    }
}

#[test]
fn mixed_codec_parallel_containers_match_serial_bytes() {
    // The multi-codec path: workers pick up partitions with *different*
    // codecs in scheduler order, all through one per-thread CodecScratch —
    // cross-codec scratch state must never leak into the bytes.
    let (p, field) = pipeline(32, 4, 0.2, &CodecId::ALL);
    let run = p.run_adaptive(&field);
    let reference = serial_containers(&field, &p.config().dec, &run.codecs, &run.ebs);
    assert_eq!(run.containers.len(), reference.len());
    for (id, (par, ser)) in run.containers.iter().zip(&reference).enumerate() {
        assert_eq!(
            par.as_bytes(),
            ser.as_bytes(),
            "partition {id} ({}): parallel v2 container differs from serial",
            run.codecs[id]
        );
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Scheduling order varies run to run; output must not — codec
    // assignment included.
    let (p, field) = pipeline(16, 2, 0.3, &CodecId::ALL);
    let first = p.run_adaptive(&field);
    for round in 0..3 {
        let again = p.run_adaptive(&field);
        assert_eq!(again.ebs, first.ebs, "round {round}: optimizer drifted");
        assert_eq!(again.codecs, first.codecs, "round {round}: codec choice drifted");
        for (id, (a, b)) in again.containers.iter().zip(&first.containers).enumerate() {
            assert_eq!(a.as_bytes(), b.as_bytes(), "round {round}, partition {id}");
        }
    }
}

#[test]
fn parallel_reconstruction_is_bit_identical_to_serial_decode() {
    let (p, field) = pipeline(32, 4, 0.2, &CodecId::ALL);
    let run = p.run_adaptive(&field);
    // Parallel path: PipelineResult::reconstruct (par_iter decode).
    let recon_par: Field3<f32> = run.reconstruct(&p.config().dec).unwrap();
    // Serial path: decode each container on this thread, assemble.
    let bricks: Vec<Field3<f32>> =
        run.containers.iter().map(|c| c.decode_field::<f32>().unwrap()).collect();
    let recon_ser = p.config().dec.assemble(&bricks).unwrap();
    let a = recon_par.as_slice();
    let b = recon_ser.as_slice();
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        assert!(
            a[i].to_bits() == b[i].to_bits(),
            "cell {i}: parallel {} vs serial {} differ in bits",
            a[i],
            b[i]
        );
    }
}

#[test]
fn whole_push_matches_a_serial_reference_built_from_the_per_brick_scan() {
    // 8³ bricks make the optimizer mix codecs. (That the scan's fanned-out
    // driver equals its inline one on larger fields is gridlab's property
    // suite; here the scan is one input of a whole push.)
    let n = 64;
    let field = contrast_field(n);
    let dec = Decomposition::cubic(n, 8).unwrap();
    let fraction = 0.05;
    let mut cfg = SessionConfig::new(dec.clone(), QualityPolicy::SigmaScaled(fraction))
        .with_codecs(&CodecId::ALL);
    cfg.calib_stride = 32; // 16 sample bricks: keeps the debug-build run short
    let eb_ref = cfg.eb_ref;
    let mut session = StreamSession::new(cfg);
    let rec = session.push_snapshot(&field).unwrap();

    // The reference: one partition at a time on this thread, moments
    // folded in id order, then the optimizer and the codecs serially.
    let scans: Vec<_> =
        dec.iter().map(|p| scan_rows(field.pencils(p.origin, p.dims), -eb_ref, eb_ref)).collect();
    let sigma = scans.iter().map(|s| s.moments).reduce(Moments::merge).unwrap().std_dev();
    let eb_avg = fraction * sigma;
    assert_eq!(rec.stats.eb_avg.to_bits(), eb_avg.to_bits(), "σ-scaled budget differs");
    let features: Vec<PartitionFeature> =
        scans.iter().map(|s| PartitionFeatures::of_scan(s, eb_ref).into()).collect();
    assert_eq!(rec.result.features, features);
    let optimizer = &session.pipeline().unwrap().optimizer;
    let decision = optimizer.optimize(&features, &QualityTarget::fft_only(eb_avg));
    let bits = |ebs: &[f64]| ebs.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&rec.result.ebs), bits(&decision.ebs));
    assert_eq!(rec.result.codecs, decision.codecs);
    assert!(rec.result.codec_counts().iter().all(|&(_, n)| n > 0), "not a mixed-codec push");

    let reference = serial_containers(&field, &dec, &decision.codecs, &decision.ebs);
    for (id, (par, ser)) in rec.result.containers.iter().zip(&reference).enumerate() {
        assert_eq!(par.as_bytes(), ser.as_bytes(), "partition {id} differs");
    }
}
