//! `serve` — the estimation server binary.
//!
//! Boots a database snapshot + materialized samples, obtains a model
//! (either by training a bootstrap MSCN in-process or by loading a
//! serialized snapshot from `--model`), and serves the wire protocol
//! until killed. Requests run on the reactor shards that accepted them:
//! each shard batches what one readiness pass decoded and runs the
//! forward pass itself, so the process has no inference worker threads
//! to size. Protocol v2 clients can stream execution feedback back;
//! the drift monitor watches per-join-template rolling q-error and
//! retrains + republishes the model in the background when a template
//! drifts. Watch it with the sibling `lc-top` binary:
//!
//! ```text
//! cargo run --release -p lc-serve --bin serve -- --addr 127.0.0.1:7878 &
//! cargo run --release -p lc-serve --bin lc-top -- --addr 127.0.0.1:7878
//! ```
//!
//! Flags (all optional):
//!
//! * `--addr HOST:PORT`    listen address          (default 127.0.0.1:7878)
//! * `--model PATH`        load `MscnEstimator::to_bytes` output instead
//!   of training (must have been trained with sample size 64)
//! * `--queries N`         bootstrap training corpus size  (default 400)
//! * `--epochs N`          bootstrap training epochs       (default 3)
//! * `--hidden N`          bootstrap hidden width          (default 32)
//! * `--cache-capacity N`  estimate-cache entries, 0 disables (default 4096)
//! * `--max-batch N`       requests per forward pass, at most (default 64)
//! * `--shards N`          reactor shards, 0 = one per core (default 0)
//! * `--max-conns N`       open-connection cap, 0 = unlimited
//!   (default 65536)
//! * `--inflight-budget N` per-shard estimates in flight before
//!   shedding, 0 = never shed               (default 1024)
//! * `--retry-after-ms N`  retry hint carried by shed Busy frames
//!   (default 20)
//! * `--drift-window N`    rolling q-error window per template (default 64)
//! * `--drift-min-samples N`  observations before a window may trip
//!   (default 32)
//! * `--drift-threshold X` mean q-error that counts as drift (default 4.0)
//! * `--drift-min-corpus N` feedback corpus size before retraining
//!   (default 96)
//! * `--retrain-epochs N`  epochs per incremental retrain  (default 12)
//! * `--quantized`         serve int8 post-training-quantized weights
//!   ([`compact_pipeline`](lc_serve::compact_pipeline)): the registry's
//!   pipeline builder quantizes the trained base model at
//!   startup and again on every self-healing republish, so the resident
//!   footprint stays ~4x smaller across retrains.
//! * `--student-width N`   distill the bootstrap/loaded teacher into an
//!   N-wide student before serving (0 = off). Combined with
//!   `--quantized` this is the full compaction path: distill, then
//!   quantize the student. Re-runs on every republish so drift
//!   retraining keeps producing compact models.
//!
//! Runtime tuning (`LC_KERNEL`, `LC_TRAIN_THREADS`, `LC_INFER_THREADS`,
//! `LC_PIN_WORKERS`) is read once at startup via
//! [`lc_nn::RuntimeConfig::from_env`].

use std::process::exit;
use std::sync::Arc;

use lc_core::{train, FeatureMode, MscnEstimator, TrainConfig};
use lc_engine::SampleSet;
use lc_imdb::ImdbConfig;
use lc_query::workloads;
use lc_serve::flags::get;
use lc_serve::{
    compact_pipeline, serve, BatcherConfig, CacheConfig, DriftConfig, EstimationService,
    FrontConfig, ModelRegistry, ServeConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Sample size every served model must be trained with: the server
/// annotates every query with samples of this size.
const SAMPLE_SIZE: usize = 64;

const FLAGS: &[&str] = &[
    "addr",
    "model",
    "queries",
    "epochs",
    "hidden",
    "cache-capacity",
    "max-batch",
    "shards",
    "max-conns",
    "inflight-budget",
    "retry-after-ms",
    "drift-window",
    "drift-min-samples",
    "drift-threshold",
    "drift-min-corpus",
    "retrain-epochs",
    "student-width",
];

const SWITCHES: &[&str] = &["quantized"];

fn main() {
    if let Err(message) = run() {
        eprintln!("serve: {message}");
        exit(1);
    }
}

fn run() -> Result<(), String> {
    // Resolve LC_* tuning once, up front; everything downstream (kernel
    // dispatch, worker pools, trainer) reads this installed config.
    lc_nn::RuntimeConfig::from_env().install();
    // Anchor the metrics clock now so MetricsSnapshot.uptime_ns measures
    // from process start, not from the first recorded span.
    lc_obs::init();
    let flags = lc_serve::flags::parse_with_switches(FLAGS, SWITCHES)?;
    let addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".into());
    let queries: usize = get(&flags, "queries", 400)?;
    let epochs: usize = get(&flags, "epochs", 3)?;
    let hidden: usize = get(&flags, "hidden", 32)?;
    let cache_capacity: usize = get(&flags, "cache-capacity", 4096)?;
    let max_batch: usize = get(&flags, "max-batch", 64)?;
    let front_defaults = FrontConfig::default();
    let shards: usize = get(&flags, "shards", front_defaults.shards)?;
    let max_conns: usize = get(&flags, "max-conns", front_defaults.max_connections)?;
    let inflight_budget: usize = get(&flags, "inflight-budget", front_defaults.inflight_budget)?;
    let retry_after_ms: u32 = get(&flags, "retry-after-ms", front_defaults.retry_after_ms)?;
    let drift_defaults = DriftConfig::default();
    let drift_window: usize = get(&flags, "drift-window", drift_defaults.window)?;
    let drift_min_samples: usize = get(&flags, "drift-min-samples", drift_defaults.min_samples)?;
    let drift_threshold: f64 = get(&flags, "drift-threshold", drift_defaults.qerror_threshold)?;
    let drift_min_corpus: usize = get(&flags, "drift-min-corpus", drift_defaults.min_corpus)?;
    let retrain_epochs: usize = get(&flags, "retrain-epochs", drift_defaults.retrain.epochs)?;
    let quantized = get(&flags, "quantized", false)?;
    let student_width: usize = get(&flags, "student-width", 0)?;
    if max_batch == 0 {
        return Err("--max-batch must be at least 1".into());
    }

    eprintln!("serve: generating database snapshot + samples ...");
    let db = lc_imdb::generate(&ImdbConfig::tiny());
    let mut rng = SmallRng::seed_from_u64(1);
    let samples = SampleSet::draw(&db, SAMPLE_SIZE, &mut rng);

    // The synthetic bootstrap corpus trains the model (unless --model
    // supplied the weights). Distillation also needs the corpus: the
    // student learns from the teacher's soft labels over these queries
    // (including when the teacher itself came from --model).
    let need_corpus = !flags.contains_key("model") || student_width > 0;
    let data = if need_corpus {
        workloads::synthetic(&db, &samples, queries, 2, 7).queries
    } else {
        Vec::new()
    };

    let estimator = match flags.get("model") {
        Some(path) => {
            eprintln!("serve: loading model from {path} ...");
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let est = MscnEstimator::from_bytes(&bytes)
                .map_err(|e| format!("cannot decode {path}: {e}"))?;
            // A mismatched sample size would make runtime featurization
            // index out of bounds on the first request; refuse up front.
            let trained_with = est.featurizer().sample_size();
            if trained_with != SAMPLE_SIZE {
                return Err(format!(
                    "{path} was trained with sample size {trained_with}, but this server \
                     annotates queries with sample size {SAMPLE_SIZE}"
                ));
            }
            est
        }
        None => {
            let cfg = TrainConfig {
                epochs,
                hidden,
                mode: FeatureMode::Bitmaps,
                ..TrainConfig::default()
            };
            eprintln!("serve: training bootstrap model ({queries} queries, {epochs} epochs) ...");
            train(&db, SAMPLE_SIZE, &data, cfg).estimator
        }
    };
    let params = estimator.model().num_params();

    let registry = if quantized || student_width > 0 {
        if student_width > 0 {
            eprintln!("serve: distilling {student_width}-wide student ...");
        }
        if quantized {
            eprintln!("serve: quantizing weights to int8 ...");
        }
        let student = (student_width > 0).then(|| {
            let config = TrainConfig {
                epochs: epochs.max(6),
                hidden: student_width,
                mode: FeatureMode::Bitmaps,
                ..TrainConfig::default()
            };
            (data, config)
        });
        Arc::new(ModelRegistry::with_pipeline(estimator, compact_pipeline(student, quantized)))
    } else {
        Arc::new(ModelRegistry::new(estimator))
    };
    let config = ServeConfig {
        cache: CacheConfig { capacity: cache_capacity, ..CacheConfig::default() },
        batcher: BatcherConfig { max_batch, ..BatcherConfig::default() },
        drift: DriftConfig {
            window: drift_window,
            min_samples: drift_min_samples,
            qerror_threshold: drift_threshold,
            min_corpus: drift_min_corpus,
            retrain: TrainConfig { epochs: retrain_epochs, ..drift_defaults.retrain },
            ..drift_defaults
        },
        front: FrontConfig { shards, max_connections: max_conns, inflight_budget, retry_after_ms },
    };
    let service = Arc::new(EstimationService::new(db, samples, Arc::clone(&registry), config));
    let handle = serve(Arc::clone(&service), addr.as_str())
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // The startup banner goes to stdout: scripts wait for it. The kernel
    // name says which compute dispatch path (`LC_KERNEL`) this process
    // resolved to — the first thing to check when serving latency looks
    // off on new hardware. The placement says whether a retrain will
    // preempt a shard (it shares a CPU only when the shard CPUs are all
    // of the process's).
    let shard_cpus = service.serving_cpus();
    let mut model = String::new();
    if student_width > 0 {
        model.push_str(&format!("{student_width}-wide student "));
    }
    model.push_str(if quantized { "int8 model" } else { "model" });
    println!(
        "lc-serve listening on {} ({} v{}, {} params, {} resident bytes, {} kernels, {} shard{}, \
         shard CPUs {}, retrainer CPUs {:?}, cache {}, max batch {}, inflight budget {}, drift \
         threshold {} over {}-obs windows)",
        handle.local_addr(),
        model,
        registry.active_version(),
        params,
        registry.resident_bytes(),
        lc_nn::kernel_name(),
        handle.shard_count(),
        if handle.shard_count() == 1 { "" } else { "s" },
        if shard_cpus.is_empty() { "unpinned".to_string() } else { format!("{shard_cpus:?}") },
        service.retrain_cpus(),
        cache_capacity,
        max_batch,
        inflight_budget,
        drift_threshold,
        drift_window,
    );
    handle.wait();
    Ok(())
}
