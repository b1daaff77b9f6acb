//! The versioned model registry with atomic hot-swap.
//!
//! A serving deployment retrains MSCN continuously (§5 "Updates") and must
//! roll the new snapshot in — or a bad one back — without draining
//! traffic. The registry keeps every registered model behind an
//! `Arc<ModelSnapshot>`; [`ModelRegistry::current`] hands the active
//! snapshot to a caller in O(1), and [`ModelRegistry::activate`] swaps the
//! active pointer atomically. In-flight micro-batches keep the `Arc` they
//! grabbed at flush time, so a hot-swap never pauses or corrupts them —
//! old snapshots die when their last batch drops the reference.
//!
//! A snapshot serves through an object-safe
//! `Arc<dyn Estimator + Send + Sync>` **pipeline**, not a concrete
//! estimator type: the default pipeline is the trained
//! [`MscnEstimator`](lc_core::MscnEstimator) itself, but
//! [`ModelRegistry::with_pipeline`] accepts a builder closure that
//! derives the served estimator from each trained base model (e.g. the
//! distilled or int8 model of [`compact_pipeline`]). The builder runs
//! again on every [`ModelRegistry::publish`], so a background retrain
//! re-derives the whole pipeline around the new base weights — the
//! retrainer itself keeps warm-starting from [`ModelSnapshot::base`], the
//! raw MSCN weights, untouched by the wrapping.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use lc_core::serialize::DecodeError;
use lc_core::{distill, Estimator, MscnEstimator, QuantizedMscn, TrainConfig};
use lc_obs::metrics;
use lc_query::LabeledQuery;

/// Builds the serving pipeline around a trained base model. Re-invoked
/// on every publish/register so retrained weights get the same wrapping.
pub type PipelineBuilder =
    Box<dyn Fn(&MscnEstimator) -> Arc<dyn Estimator + Send + Sync> + Send + Sync>;

/// The compaction pipeline `serve --student-width` / `--quantized`
/// serves: each published base model is distilled into a student trained
/// with `config` on the teacher's answers over `corpus` (when `student`
/// is given), and the result is quantized to int8 (when `quantized`).
/// The steps run inside the builder, so every drift retrain is compacted
/// the same way before it serves.
pub fn compact_pipeline(
    student: Option<(Vec<LabeledQuery>, TrainConfig)>,
    quantized: bool,
) -> PipelineBuilder {
    Box::new(move |base| {
        let student = student.as_ref().map(|(corpus, config)| distill(base, corpus, *config));
        let model = student.as_ref().unwrap_or(base);
        if quantized {
            Arc::new(QuantizedMscn::quantize(model))
        } else {
            Arc::new(model.clone())
        }
    })
}

/// An immutable, versioned trained-model snapshot.
pub struct ModelSnapshot {
    /// Monotonically increasing registry version (first model is 1).
    pub version: u32,
    /// The trained base model — what retraining warm-starts from and
    /// what serialization ships.
    base: MscnEstimator,
    /// The serving pipeline built around [`ModelSnapshot::base`] — what
    /// the micro-batcher actually runs.
    pub estimator: Arc<dyn Estimator + Send + Sync>,
}

impl ModelSnapshot {
    /// The raw trained MSCN model this snapshot's pipeline wraps.
    pub fn base(&self) -> &MscnEstimator {
        &self.base
    }
}

impl std::fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSnapshot")
            .field("version", &self.version)
            .field("estimator", &self.estimator.name())
            .finish()
    }
}

/// Error returned by registry operations that name a version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No snapshot with this version is registered.
    UnknownVersion(u32),
    /// The operation cannot apply to the currently active version.
    VersionActive(u32),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownVersion(v) => write!(f, "unknown model version {v}"),
            RegistryError::VersionActive(v) => write!(f, "model version {v} is active"),
        }
    }
}

impl std::error::Error for RegistryError {}

struct Inner {
    versions: BTreeMap<u32, Arc<ModelSnapshot>>,
    active: Arc<ModelSnapshot>,
    next_version: u32,
}

/// Thread-safe registry of versioned model snapshots.
///
/// The lock is held only for pointer bookkeeping — never across
/// inference — so readers contend for nanoseconds regardless of model
/// size.
pub struct ModelRegistry {
    inner: RwLock<Inner>,
    /// Rebuilds the serving pipeline around each registered base model.
    builder: PipelineBuilder,
}

impl ModelRegistry {
    /// Create a registry whose version 1 is `initial`, active, serving
    /// the base model directly (the identity pipeline).
    pub fn new(initial: MscnEstimator) -> Self {
        Self::with_pipeline(initial, Box::new(|base| Arc::new(base.clone())))
    }

    /// Create a registry whose snapshots serve through the pipeline
    /// `builder` derives from each trained base model. The builder runs
    /// now for `initial` and again on every publish/register, so
    /// retrained weights keep the same wrapping.
    pub fn with_pipeline(initial: MscnEstimator, builder: PipelineBuilder) -> Self {
        let estimator = builder(&initial);
        let snapshot = Arc::new(ModelSnapshot { version: 1, base: initial, estimator });
        let mut versions = BTreeMap::new();
        versions.insert(1, Arc::clone(&snapshot));
        let reg = ModelRegistry {
            inner: RwLock::new(Inner { versions, active: snapshot, next_version: 2 }),
            builder,
        };
        reg.refresh_model_gauges();
        reg
    }

    /// Bytes the registered serving pipelines keep resident, summed over
    /// every version still in the registry (`Estimator::model_bytes`).
    /// This is what `model.bytes` reports: the cache/memory footprint of
    /// models that can serve traffic right now, so a quantized deployment
    /// shows up as a ~4x smaller number than its f32 twin.
    pub fn resident_bytes(&self) -> usize {
        self.read().versions.values().map(|s| s.estimator.model_bytes()).sum()
    }

    /// Re-derive the `model.bytes` / `model.resident_count` gauges from
    /// the current registry contents. Called after every mutation so the
    /// dashboard's models row never goes stale.
    fn refresh_model_gauges(&self) {
        let (bytes, count, quantized) = {
            let inner = self.read();
            let bytes: usize = inner.versions.values().map(|s| s.estimator.model_bytes()).sum();
            (bytes, inner.versions.len(), inner.active.estimator.is_quantized())
        };
        metrics::MODEL_BYTES.set(bytes as u64);
        metrics::MODEL_RESIDENT_COUNT.set(count as u64);
        metrics::MODEL_QUANTIZED.set(u64::from(quantized));
    }

    fn snapshot(&self, version: u32, base: MscnEstimator) -> Arc<ModelSnapshot> {
        let estimator = (self.builder)(&base);
        Arc::new(ModelSnapshot { version, base, estimator })
    }

    /// Register a trained base model without activating it; returns its
    /// version. The pipeline builder wraps it exactly as it wrapped the
    /// initial model.
    pub fn register(&self, base: MscnEstimator) -> u32 {
        let snapshot = {
            let mut inner = self.write();
            let version = inner.next_version;
            inner.next_version += 1;
            version
        };
        // Build the pipeline outside the lock (it may train/clone), then
        // take the lock again only to insert.
        let built = self.snapshot(snapshot, base);
        self.write().versions.insert(snapshot, built);
        self.refresh_model_gauges();
        snapshot
    }

    /// Decode and register a serialized snapshot (the deployment path: a
    /// trainer ships `MscnEstimator::to_bytes` output over the network or
    /// from disk). Corrupt bytes are rejected without touching the
    /// registry state.
    pub fn register_bytes(&self, bytes: &[u8]) -> Result<u32, DecodeError> {
        Ok(self.register(MscnEstimator::from_bytes(bytes)?))
    }

    /// Atomically make `version` the model served to new requests.
    /// In-flight batches keep whatever snapshot they already hold.
    pub fn activate(&self, version: u32) -> Result<(), RegistryError> {
        let mut inner = self.write();
        let snapshot =
            inner.versions.get(&version).ok_or(RegistryError::UnknownVersion(version))?;
        inner.active = Arc::clone(snapshot);
        metrics::MODEL_VERSION.set(u64::from(version));
        drop(inner);
        self.refresh_model_gauges();
        Ok(())
    }

    /// Register and immediately activate — the one-call hot-swap.
    pub fn publish(&self, base: MscnEstimator) -> u32 {
        let version = {
            let mut inner = self.write();
            let version = inner.next_version;
            inner.next_version += 1;
            version
        };
        let snapshot = self.snapshot(version, base);
        let mut inner = self.write();
        inner.versions.insert(version, Arc::clone(&snapshot));
        inner.active = snapshot;
        metrics::REGISTRY_PUBLISHES.inc();
        metrics::MODEL_VERSION.set(u64::from(version));
        drop(inner);
        self.refresh_model_gauges();
        version
    }

    /// Drop a non-active snapshot (e.g. after a successful rollout, to
    /// bound memory). The active version cannot be retired.
    pub fn retire(&self, version: u32) -> Result<(), RegistryError> {
        let mut inner = self.write();
        if inner.active.version == version {
            return Err(RegistryError::VersionActive(version));
        }
        inner.versions.remove(&version).ok_or(RegistryError::UnknownVersion(version))?;
        drop(inner);
        self.refresh_model_gauges();
        Ok(())
    }

    /// The active snapshot. O(1): one `Arc` clone under a read lock.
    pub fn current(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.read().active)
    }

    /// Version of the active snapshot.
    pub fn active_version(&self) -> u32 {
        self.read().active.version
    }

    /// All registered versions, ascending.
    pub fn versions(&self) -> Vec<u32> {
        self.read().versions.keys().copied().collect()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().expect("model registry lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().expect("model registry lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::{train, FeatureMode, TrainConfig};
    use lc_engine::SampleSet;
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::{workloads, LabeledQuery};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fixture() -> (MscnEstimator, MscnEstimator, Vec<LabeledQuery>) {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(21);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 120, 2, 33).queries;
        let cfg = TrainConfig {
            epochs: 2,
            hidden: 16,
            mode: FeatureMode::SampleCounts,
            ..TrainConfig::default()
        };
        let a = train(&db, 24, &data, cfg).estimator;
        let b = train(&db, 24, &data, TrainConfig { seed: 99, ..cfg }).estimator;
        (a, b, data)
    }

    #[test]
    fn versions_are_monotonic_and_activation_is_explicit() {
        let (a, b, _) = fixture();
        let reg = ModelRegistry::new(a);
        assert_eq!(reg.active_version(), 1);
        let v2 = reg.register(b.clone());
        assert_eq!(v2, 2);
        // register() does not activate.
        assert_eq!(reg.active_version(), 1);
        reg.activate(v2).unwrap();
        assert_eq!(reg.active_version(), 2);
        assert_eq!(reg.versions(), vec![1, 2]);
        // Rollback is just activating an older version.
        reg.activate(1).unwrap();
        assert_eq!(reg.active_version(), 1);
        assert_eq!(reg.activate(77), Err(RegistryError::UnknownVersion(77)));
        // publish = register + activate.
        let v3 = reg.publish(b);
        assert_eq!(v3, 3);
        assert_eq!(reg.active_version(), 3);
    }

    #[test]
    fn retire_refuses_the_active_version() {
        let (a, b, _) = fixture();
        let reg = ModelRegistry::new(a);
        let v2 = reg.publish(b);
        assert_eq!(reg.retire(v2), Err(RegistryError::VersionActive(v2)));
        reg.retire(1).unwrap();
        assert_eq!(reg.versions(), vec![v2]);
        assert_eq!(reg.retire(1), Err(RegistryError::UnknownVersion(1)));
    }

    #[test]
    fn register_bytes_roundtrips_and_rejects_corruption() {
        let (a, _, data) = fixture();
        let bytes = a.to_bytes();
        let reg = ModelRegistry::new(a);
        let v2 = reg.register_bytes(&bytes).unwrap();
        reg.activate(v2).unwrap();
        let before = reg.current();
        // Same weights → same estimates.
        let direct: Vec<f64> = data[..10].iter().map(|q| before.estimator.estimate(q)).collect();
        let reg_est: Vec<f64> =
            data[..10].iter().map(|q| reg.current().estimator.estimate(q)).collect();
        assert_eq!(direct, reg_est);
        // Corrupt bytes leave the registry untouched.
        let versions_before = reg.versions();
        assert!(reg.register_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert_eq!(reg.versions(), versions_before);
    }

    /// The pipeline builder wraps every registered base model — the
    /// initial one and everything published later — and the raw base
    /// weights stay reachable for retraining.
    #[test]
    fn pipeline_builder_wraps_every_publish() {
        struct Halver(Arc<dyn Estimator + Send + Sync>);
        impl Estimator for Halver {
            fn name(&self) -> &str {
                "halver"
            }
            fn estimate_all(&self, queries: &[LabeledQuery]) -> Vec<f64> {
                self.0.estimate_all(queries).into_iter().map(|e| (e / 2.0).max(1.0)).collect()
            }
        }
        let (a, b, data) = fixture();
        let direct_a: Vec<f64> = a.estimate_all(&data[..6]);
        let direct_b: Vec<f64> = b.estimate_all(&data[..6]);
        let reg = ModelRegistry::with_pipeline(
            a,
            Box::new(|base| Arc::new(Halver(Arc::new(base.clone())))),
        );
        let snap = reg.current();
        assert_eq!(snap.estimator.name(), "halver");
        for (wrapped, direct) in snap.estimator.estimate_all(&data[..6]).iter().zip(&direct_a) {
            assert_eq!(*wrapped, (direct / 2.0).max(1.0));
        }
        // The base model is served unwrapped through `base()`.
        assert_eq!(snap.base().estimate_all(&data[..6]), direct_a);
        // publish() rebuilds the pipeline around the new base weights.
        reg.publish(b);
        let snap2 = reg.current();
        assert_eq!(snap2.version, 2);
        assert_eq!(snap2.estimator.name(), "halver");
        for (wrapped, direct) in snap2.estimator.estimate_all(&data[..6]).iter().zip(&direct_b) {
            assert_eq!(*wrapped, (direct / 2.0).max(1.0));
        }
        assert_eq!(snap2.base().estimate_all(&data[..6]), direct_b);
    }

    /// The int8 serving pipeline: publish-time quantization happens in
    /// the builder, so every version the registry holds is the compact
    /// artifact, and `resident_bytes` reflects the shrunken footprint.
    #[test]
    fn quantized_pipeline_shrinks_resident_bytes_and_survives_publish() {
        let (a, b, data) = fixture();
        let f32_bytes = a.model_bytes();
        assert!(f32_bytes > 0);
        let reg = ModelRegistry::with_pipeline(a, compact_pipeline(None, true));
        let snap = reg.current();
        assert!(snap.estimator.is_quantized());
        let v1_bytes = reg.resident_bytes();
        // The ≤1/3 footprint target is asserted in lc-core on a
        // realistic width; this fixture is tiny (hidden 16), so the
        // per-channel f32 scales/biases weigh relatively more — just
        // require a clear shrink here.
        assert!(
            v1_bytes * 2 <= f32_bytes,
            "int8 resident bytes {v1_bytes} should be well under f32 {f32_bytes}"
        );
        for est in snap.estimator.estimate_all(&data[..6]) {
            assert!(est.is_finite() && est >= 1.0);
        }
        // A drift-driven republish re-derives the quantized pipeline
        // around the new base weights; both versions stay resident.
        reg.publish(b);
        assert!(reg.current().estimator.is_quantized());
        let both = reg.resident_bytes();
        assert!(both > v1_bytes && both <= f32_bytes);
        // Retiring the old version releases its share.
        reg.retire(1).unwrap();
        assert_eq!(reg.resident_bytes(), both - v1_bytes);
    }

    #[test]
    fn hot_swap_under_concurrent_readers_never_tears() {
        let (a, b, data) = fixture();
        // Expected estimates per version, computed up front.
        let expect_v1: Vec<f64> = data[..8].iter().map(|q| a.estimate(q)).collect();
        let expect_v2: Vec<f64> = data[..8].iter().map(|q| b.estimate(q)).collect();
        let reg = ModelRegistry::new(a);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let mut readers = Vec::new();
            for _ in 0..3 {
                readers.push(s.spawn(|| {
                    let mut seen_v2 = false;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = reg.current();
                        let got: Vec<f64> =
                            data[..8].iter().map(|q| snap.estimator.estimate(q)).collect();
                        // Whatever the swap timing, a snapshot is always
                        // internally consistent: its version's exact
                        // estimates, never a mixture.
                        match snap.version {
                            1 => assert_eq!(got, expect_v1),
                            2 => {
                                assert_eq!(got, expect_v2);
                                seen_v2 = true;
                            }
                            v => panic!("unexpected version {v}"),
                        }
                    }
                    seen_v2
                }));
            }
            // Let readers spin on v1, then hot-swap.
            std::thread::sleep(std::time::Duration::from_millis(30));
            let v2 = reg.publish(b.clone());
            assert_eq!(v2, 2);
            std::thread::sleep(std::time::Duration::from_millis(30));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let any_saw_v2 = readers.into_iter().any(|r| r.join().expect("reader panicked"));
            assert!(any_saw_v2, "no reader ever observed the hot-swapped model");
        });
    }
}
