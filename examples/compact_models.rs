//! Compact models: the distillation × quantization frontier, measured.
//!
//! Trains an f32 MSCN teacher, distills students at a grid of hidden
//! widths against the teacher's soft outputs, quantizes every model to
//! int8, and evaluates all of them on a held-out workload — printing
//! model bytes next to q-error so the compression cost is a number, not
//! a guess.
//!
//! Writes the grid to `COMPACT_baseline.json` in the working directory
//! (the checked-in copy is at the repository root) so the compression
//! frontier is a tracked artifact, and asserts the serving acceptance
//! gate: the int8 model at the teacher's width (what `serve --quantized`
//! deploys) keeps median q-error within 1.5× of the f32 teacher.
//!
//! ```text
//! cargo run --release --example compact_models
//! ```

use lc_eval::CompactionFrontier;
use learned_cardinalities::prelude::*;

fn main() {
    let db = lc_imdb::generate(&ImdbConfig {
        num_titles: 4_000,
        num_companies: 400,
        num_persons: 3_000,
        num_keywords: 600,
        seed: 31,
    });
    let mut rng = SmallRng::seed_from_u64(9);
    let samples = SampleSet::draw(&db, 64, &mut rng);

    let training = workloads::synthetic(&db, &samples, 2_000, 2, 17).queries;
    let held_out = workloads::synthetic(&db, &samples, 400, 2, 18).queries;
    let cfg = TrainConfig { epochs: 16, hidden: 64, batch_size: 128, ..TrainConfig::default() };
    println!("training f32 teacher (hidden {}, {} queries) ...", cfg.hidden, training.len());
    let teacher = train(&db, 64, &training, cfg).estimator;

    // Students learn from the teacher's soft outputs on the training
    // stream; every point is judged on the same held-out workload.
    let widths = [8, 16, 32, 64];
    println!("distilling students at widths {widths:?} and quantizing each to int8 ...\n");
    let frontier = CompactionFrontier::measure(
        &teacher,
        &training,
        &held_out,
        &widths,
        TrainConfig { epochs: 10, ..cfg },
    );

    println!(
        "{:<10} {:>6} {:>9} {:>8} {:>8} {:>8} {:>12}",
        "model", "width", "bytes", "median", "p95", "p99", "vs teacher"
    );
    println!(
        "{:<10} {:>6} {:>9} {:>8.2} {:>8.2} {:>8.1} {:>11.2}x",
        "teacher",
        frontier.teacher_hidden,
        frontier.teacher_bytes,
        frontier.teacher.median,
        frontier.teacher.p95,
        frontier.teacher.p99,
        1.0,
    );
    for p in &frontier.points {
        println!(
            "{:<10} {:>6} {:>9} {:>8.2} {:>8.2} {:>8.1} {:>11.2}x",
            if p.quantized { "int8" } else { "f32" },
            p.hidden,
            p.bytes,
            p.stats.median,
            p.stats.p95,
            p.stats.p99,
            p.median_vs_teacher,
        );
    }

    let path = "COMPACT_baseline.json";
    std::fs::write(path, frontier.to_json() + "\n").expect("write frontier");

    // The serving acceptance gate: `serve --quantized` deploys the int8
    // model at the teacher's width, and that operating point must stay
    // within 1.5x of the teacher's median q-error while using at most a
    // third of the bytes.
    let served = frontier.point(frontier.teacher_hidden, true).expect("teacher-width int8 point");
    println!(
        "\nwrote {path}. served operating point (int8, width {}): {} bytes ({:.1}% of f32), \
         median q-error {:.2} ({:.2}x teacher)",
        served.hidden,
        served.bytes,
        100.0 * served.bytes as f64 / frontier.teacher_bytes as f64,
        served.stats.median,
        served.median_vs_teacher,
    );
    assert!(
        served.median_vs_teacher <= 1.5,
        "int8 median q-error {:.2}x the f32 teacher exceeds the 1.5x gate",
        served.median_vs_teacher,
    );
    assert!(
        served.bytes * 3 <= frontier.teacher_bytes,
        "int8 model ({} bytes) is not <= 1/3 of the f32 teacher ({} bytes)",
        served.bytes,
        frontier.teacher_bytes,
    );
}
