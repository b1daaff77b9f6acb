//! Set-up shared by every workload: the database, the materialized
//! samples, the bootstrap model, the labeled query stream drawn from
//! `--seed` and the reference answers every served estimate is checked
//! against.
//!
//! The database, the samples (the `BenchFixture::small()` configuration
//! of the criterion benches: 8k titles, 64 samples per table) and the
//! bootstrap model are fixed; the query streams depend on the seed. The
//! program under test never sees the seed, only the generated queries.

use std::collections::HashSet;
use std::hash::Hasher;

use lc_core::{train, FeatureMode, MscnEstimator, TrainConfig};
use lc_engine::{Database, FxHasher, SampleSet};
use lc_imdb::ImdbConfig;
use lc_query::{label_queries, GeneratorConfig, LabeledQuery, Query, QueryGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every size the benchmark uses, in one place, so `--quick` is the same
/// program on a smaller fixture. Quick numbers are never compared.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub imdb: ImdbConfig,
    pub sample_size: usize,
    /// Hidden width of every model the benchmark trains.
    pub hidden: usize,
    /// Labeled 0–2-join queries the bootstrap model is trained on.
    pub bootstrap_queries: usize,
    pub bootstrap_epochs: usize,
    /// Further unique labeled queries: the probe/eval stream.
    pub stream_queries: usize,
    /// `plan`: size of the Zipf hot set (a prefix of the stream).
    pub hot_queries: usize,
    /// Estimate-cache capacity of the served service.
    pub cache_capacity: usize,
    /// `probe`: round trips per round.
    pub probe_round: usize,
    /// `plan`: probes per connection per step, steps per round, steps in
    /// the pre-generated schedule.
    pub plan_window: usize,
    pub plan_steps: usize,
    pub plan_schedule_steps: usize,
    /// `embed`: block size, blocks per round, one-query calls per round.
    pub embed_block: usize,
    pub embed_blocks: usize,
    pub embed_singles: usize,
    /// `train`: corpus, epochs, held-out evaluation queries.
    pub train_queries: usize,
    pub train_epochs: usize,
    pub heldout_queries: usize,
    /// `heal`: in-distribution pairs, shifted pairs, and how many of the
    /// last shifted answers are scored.
    pub heal_steady: usize,
    pub heal_shifted: usize,
    pub heal_scored: usize,
    /// `heal`: epochs of the background retrain (`DriftConfig`'s default
    /// in the measured configuration).
    pub heal_retrain_epochs: usize,
    /// Layer replays use at most this many of the workload's queries.
    pub replay_queries: usize,
    /// Discarded warm-up before the first timed round, seconds.
    pub warmup_s: f64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// A run measures at least this many rounds, however short
    /// `--seconds`.
    pub min_rounds: usize,
}

impl Scale {
    /// The measured configuration (ISSUE 13).
    pub fn full() -> Self {
        Scale {
            imdb: ImdbConfig {
                num_titles: 8_000,
                num_companies: 800,
                num_persons: 6_000,
                num_keywords: 1_200,
                seed: 99,
            },
            sample_size: 64,
            hidden: 64,
            bootstrap_queries: 4_096,
            bootstrap_epochs: 10,
            stream_queries: 8_192,
            hot_queries: 1_024,
            cache_capacity: 4_096,
            probe_round: 8_192,
            plan_window: 32,
            plan_steps: 512,
            plan_schedule_steps: 2_048,
            embed_block: 256,
            embed_blocks: 64,
            embed_singles: 4_096,
            train_queries: 8_192,
            train_epochs: 8,
            heldout_queries: 4_096,
            heal_steady: 1_024,
            heal_shifted: 6_144,
            heal_scored: 2_048,
            heal_retrain_epochs: 12,
            replay_queries: 2_048,
            warmup_s: 1.0,
            setups: 3,
            min_rounds: 5,
        }
    }

    /// The smoke configuration behind `--quick`: tiny database, 256-query
    /// corpus, every ratio (cache : stream, hot : cache) kept.
    pub fn quick() -> Self {
        Scale {
            imdb: ImdbConfig::tiny(),
            sample_size: 32,
            hidden: 16,
            bootstrap_queries: 256,
            bootstrap_epochs: 3,
            stream_queries: 512,
            hot_queries: 64,
            cache_capacity: 256,
            probe_round: 512,
            plan_window: 32,
            plan_steps: 16,
            plan_schedule_steps: 64,
            embed_block: 64,
            embed_blocks: 4,
            embed_singles: 128,
            train_queries: 512,
            train_epochs: 2,
            heldout_queries: 128,
            heal_steady: 64,
            heal_shifted: 1_536,
            heal_scored: 256,
            // A debug build retrains 20× slower but its syscalls are no
            // slower: keep the retrain shorter than a round.
            heal_retrain_epochs: 3,
            replay_queries: 256,
            warmup_s: 0.05,
            setups: 1,
            min_rounds: 2,
        }
    }
}

/// What set-up builds once and every workload reads.
pub struct Fixture {
    pub scale: Scale,
    pub db: Database,
    pub samples: SampleSet,
    /// The bootstrap model's training corpus.
    pub bootstrap: Vec<LabeledQuery>,
    /// The probe/eval stream: unique, labeled with engine ground truth,
    /// disjoint from `bootstrap`.
    pub stream: Vec<LabeledQuery>,
    /// The model every service starts from.
    pub model: MscnEstimator,
    /// `model.estimate_cards(stream)`: the answer oracle.
    pub reference: Vec<f64>,
}

/// Seed of the bootstrap corpus. Fixed: the served model is part of the
/// system under test, like the database, not one of its inputs — with a
/// model per `--seed` the q-error metrics spread 7 % from seed to seed
/// on the model alone, and no accuracy regression below that would show.
const BOOTSTRAP_SEED: u64 = 7;

/// Which join counts [`labeled_queries`] draws.
#[derive(Clone, Copy)]
enum Joins {
    /// Uniform in `0..=n`, the paper's training distribution (§3.3).
    UpTo(usize),
    Exactly(usize),
}

/// `n` unique, non-empty labeled queries, none of them in `exclude`.
fn labeled_queries(
    db: &Database,
    samples: &SampleSet,
    n: usize,
    joins: Joins,
    seed: u64,
    exclude: &HashSet<&Query>,
) -> Vec<LabeledQuery> {
    let max_joins = match joins {
        Joins::UpTo(j) | Joins::Exactly(j) => j,
    };
    let mut generator = QueryGenerator::new(db, GeneratorConfig { max_joins, seed });
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let want = (n - out.len()).max(256);
        let mut batch = match joins {
            Joins::UpTo(_) => generator.generate_unique(want),
            Joins::Exactly(j) => generator.generate_unique_with_joins(want, j),
        };
        batch.retain(|q| !exclude.contains(q));
        out.extend(label_queries(db, samples, batch, true));
    }
    out.truncate(n);
    out
}

impl Fixture {
    /// Build the fixture for `seed` (deterministic: same seed, same bytes).
    pub fn build(scale: Scale, seed: u64) -> Self {
        let db = lc_imdb::generate(&scale.imdb);
        let mut rng = SmallRng::seed_from_u64(1);
        let samples = SampleSet::draw(&db, scale.sample_size, &mut rng);
        let none = HashSet::new();
        let bootstrap = labeled_queries(
            &db,
            &samples,
            scale.bootstrap_queries,
            Joins::UpTo(2),
            BOOTSTRAP_SEED,
            &none,
        );
        let trained_on: HashSet<&Query> = bootstrap.iter().map(|q| &q.query).collect();
        // The seeds are mixed so that no `--seed` replays the bootstrap
        // generator's stream.
        let stream_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x57_2e_a3;
        let stream = labeled_queries(
            &db,
            &samples,
            scale.stream_queries,
            Joins::UpTo(2),
            stream_seed,
            &trained_on,
        );
        let config = train_config(&scale, scale.bootstrap_epochs);
        let model = train(&db, scale.sample_size, &bootstrap, config).estimator;
        let reference = model.estimate_cards(&stream);
        drop(trained_on);
        Fixture { scale, db, samples, bootstrap, stream, model, reference }
    }

    /// `n` unique, non-empty labeled queries with exactly `joins` joins —
    /// the shifted traffic of `heal` (§4.3: more joins than trained on).
    pub fn shifted_queries(&self, n: usize, joins: usize, seed: u64) -> Vec<LabeledQuery> {
        let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5a17_ed00;
        labeled_queries(&self.db, &self.samples, n, Joins::Exactly(joins), seed, &HashSet::new())
    }
}

/// The training configuration of every `lc_core::train` call the
/// benchmark makes: one thread, so the kernels are measured, not the
/// worker pool.
pub fn train_config(scale: &Scale, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        hidden: scale.hidden,
        batch_size: 256,
        mode: FeatureMode::Bitmaps,
        threads: 1,
        ..TrainConfig::default()
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty domain");
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The `plan` schedule: for each step, `2 × window` stream indices — per
/// connection one window, half of it drawn Zipf(1.1) from the hot prefix
/// of the stream and half taken in order from the rest (never repeated
/// within a cache lifetime), shuffled together.
pub fn plan_schedule(scale: &Scale, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x91a7_0001);
    let zipf = Zipf::new(scale.hot_queries, 1.1);
    let cold = scale.stream_queries - scale.hot_queries;
    let window = scale.plan_window;
    let mut next_cold = 0usize;
    let mut out = Vec::with_capacity(scale.plan_schedule_steps * 2 * window);
    for _ in 0..2 * scale.plan_schedule_steps {
        let start = out.len();
        for i in 0..window {
            if i % 2 == 0 {
                out.push(zipf.sample(&mut rng) as u32);
            } else {
                out.push((scale.hot_queries + next_cold % cold) as u32);
                next_cold += 1;
            }
        }
        // Fisher–Yates within the window, so hits and misses interleave
        // on the connection.
        for i in (start + 1..out.len()).rev() {
            let j = rng.gen_range(start..=i);
            out.swap(i, j);
        }
    }
    out
}

/// The fingerprint every workload prints for its inputs: the
/// repository's own `FxHasher`, which has no per-process key.
#[derive(Clone, Copy, Default)]
pub struct Fingerprint(FxHasher);

impl Fingerprint {
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    pub fn u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    /// Hash of the canonical encodings and labels of `queries`.
    pub fn queries(&mut self, queries: &[LabeledQuery]) {
        let mut buf = Vec::new();
        for q in queries {
            buf.clear();
            q.query.encode(&mut buf);
            self.bytes(&buf);
            self.u64(q.cardinality);
        }
    }

    pub fn finish(self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_seeded_and_head_heavy() {
        let z = Zipf::new(1024, 1.1);
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..4096).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let (a, b, c) = (draw(7), draw(7), draw(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&r| r < 1024));
        let head = a.iter().filter(|&&r| r < 10).count();
        let tail = a.iter().filter(|&&r| r >= 512).count();
        // Σ_{k≤10} k^-1.1 / Σ_{k≤1024} k^-1.1 ≈ 0.50.
        assert!((1800..2300).contains(&head), "head {head}");
        assert!(tail < 400, "tail {tail}");
    }

    #[test]
    fn plan_schedule_fingerprint_follows_the_seed() {
        let scale = Scale::quick();
        let fp = |seed| {
            let mut f = Fingerprint::default();
            for i in plan_schedule(&scale, seed) {
                f.u64(u64::from(i));
            }
            f.finish()
        };
        assert_eq!(fp(3), fp(3));
        assert_ne!(fp(3), fp(4));
        let schedule = plan_schedule(&scale, 3);
        let per_step = 2 * scale.plan_window;
        assert_eq!(schedule.len(), scale.plan_schedule_steps * per_step);
        for window in schedule.chunks(scale.plan_window) {
            let hot = window.iter().filter(|&&i| (i as usize) < scale.hot_queries).count();
            assert_eq!(hot, scale.plan_window / 2, "half of every window is hot");
        }
        assert!(schedule.iter().all(|&i| (i as usize) < scale.stream_queries));
    }

    #[test]
    fn fixture_fingerprint_follows_the_seed() {
        let fp = |seed| {
            let f = Fixture::build(Scale::quick(), seed);
            let mut h = Fingerprint::default();
            h.queries(&f.bootstrap);
            h.queries(&f.stream);
            for r in &f.reference {
                h.u64(r.to_bits());
            }
            h.finish()
        };
        assert_eq!(fp(11), fp(11));
        assert_ne!(fp(11), fp(12));
    }
}
