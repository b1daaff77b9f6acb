//! Cost of one training epoch (the unit behind §4.7's 39-minute /
//! 100-epoch GPU training run), plus the data-parallel scaling curve of
//! the sharded trainer at 1/2/4 workers. The unsuffixed benches use the
//! default (hardware-derived) worker count — they are the numbers
//! tracked against `BENCH_baseline.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use lc_bench::BenchFixture;
use lc_core::{train, FeatureMode, TrainConfig};
use lc_nn::LossKind;

fn bench_training(c: &mut Criterion) {
    let f = BenchFixture::small();
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    let base = TrainConfig {
        epochs: 1,
        hidden: 64,
        batch_size: 128,
        loss: LossKind::MeanQError,
        ..TrainConfig::default()
    };
    for (name, mode) in
        [("epoch/no_samples", FeatureMode::NoSamples), ("epoch/bitmaps", FeatureMode::Bitmaps)]
    {
        group.bench_function(name, |b| {
            b.iter(|| {
                train(&f.db, f.samples.sample_size(), f.queries(), TrainConfig { mode, ..base })
            })
        });
    }
    // Data-parallel scaling: same work, explicit worker counts. The
    // trained weights are bitwise identical across all three (asserted in
    // lc-core's tests); only the wall clock may differ.
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("epoch/bitmaps_t{threads}"), |b| {
            b.iter(|| {
                let cfg = TrainConfig { mode: FeatureMode::Bitmaps, threads, ..base };
                train(&f.db, f.samples.sample_size(), f.queries(), cfg)
            })
        });
    }
    group.finish();
}

/// `LC_BENCH_QUICK=1` shrinks the run to a smoke test (CI).
fn config() -> Criterion {
    let quick = std::env::var("LC_BENCH_QUICK").is_ok_and(|v| v != "0");
    let (meas, warm) = if quick { (500, 100) } else { (6000, 500) };
    Criterion::default()
        .measurement_time(std::time::Duration::from_millis(meas))
        .warm_up_time(std::time::Duration::from_millis(warm))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_training
}
criterion_main!(benches);
