//! Determinism guarantees: every artifact — dataset, samples, workloads,
//! training, serialization — is a pure function of its seeds. This is what
//! makes EXPERIMENTS.md reproducible bit-for-bit.

use learned_cardinalities::prelude::*;

#[test]
fn dataset_workloads_and_models_are_reproducible() {
    let build = || {
        let db = lc_imdb::generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(77);
        let samples = SampleSet::draw(&db, 20, &mut rng);
        let data = workloads::synthetic(&db, &samples, 300, 2, 55).queries;
        let cfg = TrainConfig { epochs: 4, hidden: 16, ..TrainConfig::default() };
        let trained = train(&db, 20, &data, cfg);
        (db, data, trained)
    };
    let (db_a, data_a, trained_a) = build();
    let (db_b, data_b, trained_b) = build();

    assert_eq!(db_a.total_rows(), db_b.total_rows());
    assert_eq!(data_a.len(), data_b.len());
    for (a, b) in data_a.iter().zip(&data_b) {
        assert_eq!(a.query, b.query);
        assert_eq!(a.cardinality, b.cardinality);
        assert_eq!(a.sample_counts, b.sample_counts);
    }
    assert_eq!(trained_a.report.epoch_val_mean_qerror, trained_b.report.epoch_val_mean_qerror);
    assert_eq!(trained_a.estimator.to_bytes(), trained_b.estimator.to_bytes());
}

#[test]
fn serialized_model_reproduces_estimates_across_processes() {
    // Simulates deployment: the bytes are the only thing that crosses the
    // process boundary.
    let db = lc_imdb::generate(&ImdbConfig::tiny());
    let mut rng = SmallRng::seed_from_u64(78);
    let samples = SampleSet::draw(&db, 20, &mut rng);
    let data = workloads::synthetic(&db, &samples, 250, 2, 56).queries;
    let cfg = TrainConfig { epochs: 3, hidden: 16, ..TrainConfig::default() };
    let trained = train(&db, 20, &data, cfg);

    let bytes = trained.estimator.to_bytes();
    let restored = MscnEstimator::from_bytes(&bytes).unwrap();
    assert_eq!(trained.estimator.estimate_cards(&data[..25]), restored.estimate_cards(&data[..25]));
    // Double round-trip is byte-identical.
    assert_eq!(bytes, restored.to_bytes());
}

/// Train the shared reference model and serialize weights + a slice of
/// estimates — the fingerprint the cross-kernel test compares across
/// subprocesses. Covers both precisions: the f32 pipeline AND the int8
/// quantized artifact with its estimates, so the integer `maddubs`-style
/// kernels are held to the same cross-dispatch bitwise contract as the
/// f32 FMA kernels.
fn kernel_fingerprint() -> Vec<u8> {
    let db = lc_imdb::generate(&ImdbConfig::tiny());
    let mut rng = SmallRng::seed_from_u64(80);
    let samples = SampleSet::draw(&db, 20, &mut rng);
    let data = workloads::synthetic(&db, &samples, 250, 2, 58).queries;
    let cfg = TrainConfig { epochs: 3, hidden: 16, ..TrainConfig::default() };
    let trained = train(&db, 20, &data, cfg);
    let mut bytes = trained.estimator.to_bytes();
    // Estimates ride along so the check covers the inference path too,
    // not just the training trajectory.
    for est in trained.estimator.estimate_cards(&data[..20]) {
        bytes.extend_from_slice(&est.to_le_bytes());
    }
    // The quantized twin: publish-time conversion plus int8 inference.
    let quantized = lc_core::QuantizedMscn::quantize(&trained.estimator);
    bytes.extend_from_slice(&quantized.to_bytes());
    for est in quantized.estimate_cards(&data[..20]) {
        bytes.extend_from_slice(&est.to_le_bytes());
    }
    bytes
}

/// The fingerprint's FNV-1a-64, pinned: every test leg (thread count ×
/// kernel) fails on any moved training or estimate bit, not only on the
/// two kernel paths disagreeing. A declared fingerprint change re-pins
/// this value. Pinned where it was computed (x86-64 Linux), since `libm`
/// and the vector tiers differ elsewhere. The value also depends on the
/// host C library: `f32::exp` (sigmoid, q-error loss) and the label
/// normalizer's `f64` `ln`/`exp` call it, and a libm that rounds one of
/// them differently moves the hash. On such a host, re-pin the value
/// that host's test run prints; never loosen the check.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn training_fingerprint_is_pinned() {
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let hash = fnv1a(&kernel_fingerprint());
    assert_eq!(hash, 0x6fd1_49c7_f185_6e0f, "the trained bytes moved: FNV-1a {hash:#018x}");
}

/// Subprocess arm of the cross-kernel test: inert in a normal run; with
/// `LC_FINGERPRINT_OUT` set it writes [`kernel_fingerprint`] to that
/// path (the parent sets `LC_KERNEL` per spawn — dispatch is resolved
/// once per process, which is why this needs a subprocess at all).
#[test]
fn subprocess_kernel_fingerprint_helper() {
    let Some(path) = std::env::var_os("LC_FINGERPRINT_OUT") else { return };
    std::fs::write(path, kernel_fingerprint()).expect("write fingerprint");
}

/// `LC_KERNEL=avx2` and `LC_KERNEL=scalar` must produce byte-identical
/// trained weights *and* estimates — the SIMD micro-kernels and their
/// `mul_add` fallback share one accumulation order by construction, and
/// this is the end-to-end proof at model level.
#[test]
fn weights_and_estimates_are_bitwise_identical_across_kernel_paths() {
    if !lc_nn::avx2_available() {
        return; // only one real dispatch path exists: nothing to compare
    }
    let exe = std::env::current_exe().expect("test binary path");
    let fingerprints: Vec<Vec<u8>> = ["avx2", "scalar"]
        .iter()
        .map(|kernel| {
            let out =
                std::env::temp_dir().join(format!("lc_kernel_fp_{}_{kernel}", std::process::id()));
            // `output()`, not `status()`: the child's libtest report is
            // captured, so it never interleaves with this run's own lines.
            let child = std::process::Command::new(&exe)
                .args(["subprocess_kernel_fingerprint_helper", "--exact", "--test-threads", "1"])
                .env("LC_KERNEL", kernel)
                .env("LC_FINGERPRINT_OUT", &out)
                .output()
                .expect("spawn fingerprint subprocess");
            assert!(
                child.status.success(),
                "LC_KERNEL={kernel} subprocess failed:\n{}{}",
                String::from_utf8_lossy(&child.stdout),
                String::from_utf8_lossy(&child.stderr)
            );
            let bytes = std::fs::read(&out).expect("read fingerprint");
            let _ = std::fs::remove_file(&out);
            assert!(!bytes.is_empty());
            bytes
        })
        .collect();
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "avx2 and scalar kernel paths must train and estimate byte-identically"
    );
}

#[test]
fn different_seeds_give_different_models() {
    let db = lc_imdb::generate(&ImdbConfig::tiny());
    let mut rng = SmallRng::seed_from_u64(79);
    let samples = SampleSet::draw(&db, 20, &mut rng);
    let data = workloads::synthetic(&db, &samples, 250, 2, 57).queries;
    let a = train(
        &db,
        20,
        &data,
        TrainConfig { epochs: 2, hidden: 16, seed: 1, ..TrainConfig::default() },
    );
    let b = train(
        &db,
        20,
        &data,
        TrainConfig { epochs: 2, hidden: 16, seed: 2, ..TrainConfig::default() },
    );
    assert_ne!(a.estimator.to_bytes(), b.estimator.to_bytes());
}
