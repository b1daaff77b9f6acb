//! MSCN featurization and inference latency (§4.7: "the prediction time of
//! our model is in the order of a few milliseconds" on a GPU through
//! PyTorch; a tuned implementation should be far below that).

use criterion::{criterion_group, criterion_main, Criterion};
use lc_bench::BenchFixture;
use lc_core::{train, FeatureMode, QuantizedMscn, TrainConfig};

fn bench_inference(c: &mut Criterion) {
    let f = BenchFixture::small();
    let cfg =
        TrainConfig { epochs: 3, hidden: 64, mode: FeatureMode::Bitmaps, ..TrainConfig::default() };
    let trained = train(&f.db, f.samples.sample_size(), f.queries(), cfg);
    let est = trained.estimator;
    // The int8 twin of the same weights — published once, like the
    // serving registry does, then measured on the identical workload so
    // the f32-vs-int8 rows are directly comparable.
    let qest = QuantizedMscn::quantize(&est);
    let queries = f.queries();
    eprintln!(
        "model bytes: f32 {} -> int8 {}",
        est.model().num_params() * 4,
        qest.resident_bytes()
    );

    let mut group = c.benchmark_group("mscn");
    group.bench_function("featurize/per_query", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            est.featurizer().featurize(q)
        })
    });
    group.bench_function("inference/single_query", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = queries[i % queries.len()].clone();
            i += 1;
            est.estimate_cards(std::slice::from_ref(&q))
        })
    });
    group.bench_function("single_query_quant", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = queries[i % queries.len()].clone();
            i += 1;
            qest.estimate_cards(std::slice::from_ref(&q))
        })
    });
    group.bench_function("inference/batch_256", |b| b.iter(|| est.estimate_cards(queries)));
    group.bench_function("inference/batch_256_quant", |b| b.iter(|| qest.estimate_cards(queries)));
    group.bench_function("serialize/to_bytes", |b| b.iter(|| est.to_bytes()));
    group.bench_function("quantize/publish", |b| b.iter(|| QuantizedMscn::quantize(&est)));
    group.finish();
}

/// `LC_BENCH_QUICK=1` shrinks the run to a smoke test (CI).
fn config() -> Criterion {
    let quick = std::env::var("LC_BENCH_QUICK").is_ok_and(|v| v != "0");
    let (meas, warm, samples) = if quick { (400, 100, 10) } else { (4000, 500, 20) };
    Criterion::default()
        .sample_size(samples)
        .measurement_time(std::time::Duration::from_millis(meas))
        .warm_up_time(std::time::Duration::from_millis(warm))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_inference
}
criterion_main!(benches);
