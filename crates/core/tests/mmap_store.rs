//! The zero-copy checkpoint store, end to end: a hub in mmap mode serves
//! weights straight out of the page cache (`ModelState::weights_mapped`),
//! bit-identical to the deserialize mode across every prediction surface
//! (batch, sweep, single-query serve) and under thread-parallel readers
//! sharing one mapped state; legacy BLMY v1 checkpoints — pinned by a
//! committed fixture — still recall in both modes.

use bellamy_core::train::pretrain;
use bellamy_core::{
    Bellamy, BellamyConfig, ContextProperties, ModelHub, ModelKey, PredictQuery, Predictor,
    PretrainConfig, RecallMode, Service, TrainingSample,
};
use bellamy_encoding::PropertyValue;
use bellamy_nn::Checkpoint;
use std::path::PathBuf;
use std::sync::Arc;

/// A small deterministic corpus (seeded by `salt` so distinct tests train
/// distinguishable models); hand-built to keep the fixture regeneration
/// path free of the trace generators.
fn corpus(salt: u64) -> Vec<TrainingSample> {
    (0..18)
        .map(|i| {
            let x = 2.0 + (i % 6) as f64 * 2.0;
            TrainingSample {
                scale_out: x,
                runtime_s: 90.0 + 350.0 / x + 2.0 * ((i + salt as usize) % 5) as f64,
                props: ContextProperties {
                    essential: vec![
                        PropertyValue::Number(2048 + 256 * (i as u64 % 4) + salt),
                        PropertyValue::text("c4.2xlarge"),
                    ],
                    optional: vec![],
                },
            }
        })
        .collect()
}

fn trained_model(seed: u64) -> (Bellamy, Vec<TrainingSample>) {
    let samples = corpus(seed);
    let mut model = Bellamy::new(BellamyConfig::default(), seed);
    pretrain(
        &mut model,
        &samples,
        &PretrainConfig {
            epochs: 3,
            ..PretrainConfig::default()
        },
        seed,
    );
    (model, samples)
}

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bellamy-mmap-{tag}-{}", std::process::id()))
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("pretrained-v1.blmy")
}

/// Regenerates the committed v1 fixture. Ignored by default — run it
/// explicitly (`cargo test -p bellamy-core --test mmap_store
/// regenerate_v1_fixture -- --ignored`) only when the fixture must change,
/// and commit the result; the point of the fixture is that *checked-in
/// bytes* from before the v2 format keep decoding.
#[test]
#[ignore = "writes the committed fixture; run explicitly to regenerate"]
fn regenerate_v1_fixture() {
    let (model, _) = trained_model(23);
    let bytes = model.to_checkpoint().to_bytes_v1();
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), bytes).unwrap();
}

#[test]
fn committed_v1_fixture_recalls_in_both_modes() {
    let bytes = std::fs::read(fixture_path()).expect("committed v1 fixture present");
    assert_eq!(&bytes[..4], b"BLMY");
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        1,
        "the fixture must stay a version-1 file, or it proves nothing"
    );

    // Decoding the fixture and re-encoding it (the writer now emits v2)
    // must not move a single weight.
    let ck = Checkpoint::from_bytes(&bytes).expect("v1 fixture decodes");
    let reencoded = Checkpoint::from_bytes(&ck.to_bytes()).expect("v2 re-encode decodes");
    let a = Bellamy::from_checkpoint(&ck).expect("fixture model");
    let b = Bellamy::from_checkpoint(&reencoded).expect("re-encoded model");
    let probe = corpus(23);
    for s in &probe {
        assert_eq!(
            a.predict(s.scale_out, &s.props).unwrap().to_bits(),
            b.predict(s.scale_out, &s.props).unwrap().to_bits(),
            "v1 -> v2 re-encode must be bit-exact"
        );
    }

    // The hub recalls the fixture in both modes. A v1 file has no aligned
    // payload sections, so even the mmap-mode hub materializes owned
    // weights — the mode is a strategy, not a format requirement.
    for mode in [RecallMode::Deserialize, RecallMode::Mmap] {
        let dir = unique_dir(&format!("v1-fixture-{}", mode.as_str()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
        std::fs::copy(fixture_path(), dir.join(format!("{}.blmy", key.id()))).unwrap();

        let hub = ModelHub::at(&dir).unwrap().with_recall_mode(mode);
        let state = hub.recall(&key).expect("v1 checkpoint must keep recalling");
        assert!(
            !state.weights_mapped(),
            "v1 has no mappable payload sections"
        );
        for s in probe.iter().take(4) {
            assert_eq!(
                state.predict(s.scale_out, &s.props).to_bits(),
                a.predict(s.scale_out, &s.props).unwrap().to_bits(),
                "hub recall ({}) must match the direct decode",
                mode.as_str()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn mapped_recall_is_bit_identical_to_deserialize_across_all_surfaces() {
    let (model, samples) = trained_model(31);
    let dir = unique_dir("parity");
    let _ = std::fs::remove_dir_all(&dir);
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    ModelHub::at(&dir).unwrap().publish(&key, &model).unwrap();

    let owned = ModelHub::at(&dir)
        .unwrap()
        .with_recall_mode(RecallMode::Deserialize)
        .recall(&key)
        .unwrap();
    let mapped = ModelHub::at(&dir)
        .unwrap()
        .with_recall_mode(RecallMode::Mmap)
        .recall(&key)
        .unwrap();
    assert!(!owned.weights_mapped());
    assert!(
        mapped.weights_mapped(),
        "an mmap-mode recall of a v2 checkpoint must borrow the file"
    );
    assert_eq!(owned.params_fingerprint(), mapped.params_fingerprint());

    // predict_batch, query by query.
    let queries: Vec<PredictQuery<'_>> = samples
        .iter()
        .map(|s| PredictQuery {
            scale_out: s.scale_out,
            props: &s.props,
        })
        .collect();
    let mut predictor = Predictor::new();
    let from_owned = predictor.predict_batch(&owned, &queries).to_vec();
    let from_mapped = predictor.predict_batch(&mapped, &queries).to_vec();
    for (a, b) in from_owned.iter().zip(from_mapped.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "predict_batch must not move");
    }

    // predict_sweep.
    let xs: Vec<f64> = (2..=12).map(|x| x as f64).collect();
    let sweep_owned = predictor
        .predict_sweep(&owned, &samples[0].props, &xs)
        .to_vec();
    let sweep_mapped = predictor
        .predict_sweep(&mapped, &samples[0].props, &xs)
        .to_vec();
    for (a, b) in sweep_owned.iter().zip(sweep_mapped.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "predict_sweep must not move");
    }

    // The serving front door.
    let service = Service::in_memory();
    let client_owned = service.client_for_state(Arc::clone(&owned));
    let client_mapped = service.client_for_state(Arc::clone(&mapped));
    for s in samples.iter().take(6) {
        assert_eq!(
            client_owned
                .predict(s.scale_out, &s.props)
                .unwrap()
                .to_bits(),
            client_mapped
                .predict(s.scale_out, &s.props)
                .unwrap()
                .to_bits(),
            "served predictions must not move"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fast_tier_kernels_run_over_mapped_weights() {
    // The Fast (FMA) tier issues the same aligned vector loads as the Exact
    // SIMD tier, so the mapped-storage alignment contract (page-aligned map
    // base + 64-byte-aligned payload sections) must carry it too. This
    // drives the FMA kernel table *directly* over matrices still borrowing
    // the checkpoint file and pins down:
    //
    // - FMA loads over mapped weights neither fault nor diverge: results
    //   are bit-identical to the same kernels over materialized copies,
    // - the Fast tier over mapped weights stays inside the documented ULP
    //   envelope of the Exact scalar kernels (`within_envelope`).
    //
    // (Tier dispatch is process-wide, so the *served* Fast-predict path over
    // mapped weights is exercised by the CI `BELLAMY_KERNEL=fma` leg running
    // the parity tests above through the Fast table.)
    use bellamy_linalg::{kernels, within_envelope};

    let Some(fast) = kernels::fma() else {
        return; // no FMA hardware: nothing to prove
    };
    let exact = kernels::scalar();

    let (model, _) = trained_model(59);
    let dir = unique_dir("fma-mapped");
    let _ = std::fs::remove_dir_all(&dir);
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    ModelHub::at(&dir).unwrap().publish(&key, &model).unwrap();

    // Also prove the serving-level recall really maps on this platform, so
    // the kernel-level assertions below speak for the hub path.
    let state = ModelHub::at(&dir)
        .unwrap()
        .with_recall_mode(RecallMode::Mmap)
        .recall(&key)
        .unwrap();
    assert!(state.weights_mapped());

    let ck = Checkpoint::map(dir.join(format!("{}.blmy", key.id()))).unwrap();
    let mut mapped_seen = 0;
    for (_, param) in ck.params.iter() {
        let w = &param.value;
        if !w.is_mapped() {
            continue;
        }
        mapped_seen += 1;
        let (k, n) = (w.rows(), w.cols());
        let m = 3;
        let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.37) - 5.0).collect();
        let owned = w.clone(); // clone() materializes into owned storage
        assert!(!owned.is_mapped());

        let mut out_mapped = vec![0.0; m * n];
        let mut out_owned = vec![0.0; m * n];
        let mut out_exact = vec![0.0; m * n];
        fast.matmul(&a, w.as_slice(), &mut out_mapped, m, k, n);
        fast.matmul(&a, owned.as_slice(), &mut out_owned, m, k, n);
        exact.matmul(&a, w.as_slice(), &mut out_exact, m, k, n);

        let ws = w.as_slice();
        for (idx, ((got, want), ex)) in out_mapped
            .iter()
            .zip(&out_owned)
            .zip(&out_exact)
            .enumerate()
        {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "FMA over mapped vs owned storage must be bit-identical"
            );
            // Same envelope the accuracy harness pins: 16 ULPs, or a
            // 4(k+1)·eps relative bound against the cancellation-safe
            // running magnitude sum |a_ip · w_pj|.
            let (i, j) = (idx / n, idx % n);
            let magnitude: f64 = (0..k).map(|p| (a[i * k + p] * ws[p * n + j]).abs()).sum();
            let rel_tol = 4.0 * (k + 1) as f64 * f64::EPSILON;
            assert!(
                within_envelope(*ex, *got, 16, rel_tol, magnitude),
                "FMA over mapped weights left the Exact envelope: {ex:?} vs {got:?}"
            );
        }

        // axpy straight out of the file mapping (mapped side is read-only,
        // so the mapped slice is the x operand).
        let mut y = vec![1.0; k * n];
        fast.axpy(0.5, w.as_slice(), &mut y);
        let mut y_owned = vec![1.0; k * n];
        fast.axpy(0.5, owned.as_slice(), &mut y_owned);
        for (a, b) in y.iter().zip(&y_owned) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    assert!(
        mapped_seen >= 2,
        "a v2 mmap recall should expose several mapped parameter matrices, saw {mapped_seen}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eight_threads_share_one_mapped_state_bit_identically() {
    let (model, samples) = trained_model(47);
    let dir = unique_dir("threads");
    let _ = std::fs::remove_dir_all(&dir);
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    ModelHub::at(&dir).unwrap().publish(&key, &model).unwrap();

    let hub = ModelHub::at(&dir)
        .unwrap()
        .with_recall_mode(RecallMode::Mmap);
    let state = hub.recall(&key).unwrap();
    assert!(state.weights_mapped());

    // The single-threaded baseline, computed before the race.
    let queries: Vec<PredictQuery<'_>> = samples
        .iter()
        .map(|s| PredictQuery {
            scale_out: s.scale_out,
            props: &s.props,
        })
        .collect();
    let baseline: Vec<u64> = Predictor::new()
        .predict_batch(&state, &queries)
        .iter()
        .map(|p| p.to_bits())
        .collect();

    // Eight threads hammer the same mapped pages through private
    // predictors: same bits every round on every thread, no tearing, no
    // aliasing hazards (the map is immutable, so there is nothing to
    // tear — this pins that down).
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (state, queries, baseline) = (&state, &queries, &baseline);
            scope.spawn(move || {
                let mut predictor = Predictor::new();
                for _ in 0..20 {
                    let got = predictor.predict_batch(state, queries);
                    for (g, want) in got.iter().zip(baseline.iter()) {
                        assert_eq!(g.to_bits(), *want, "mapped reads must never tear");
                    }
                }
            });
        }
    });

    std::fs::remove_dir_all(&dir).ok();
}
