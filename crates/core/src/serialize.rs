//! Versioned binary model persistence.
//!
//! The paper reports the footprint of MSCN "when serialized to disk"
//! (§4.7: 1.6–2.6 MiB at paper scale); this module provides that
//! serialization. The format is a little-endian byte layout written with
//! the `bytes` crate — no external serde format is needed for a flat
//! struct of `f32` tensors, and the explicit layout keeps the file format
//! stable and auditable.

use bytes::{Buf, BufMut};

use crate::featurize::{FeatureMode, Featurizer, FeaturizerParts};
use crate::model::MscnModel;
use crate::train::MscnEstimator;

const MAGIC: u32 = 0x4D53_434E; // "MSCN"
const VERSION: u32 = 1;

/// Error raised by [`MscnEstimator::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn mode_tag(mode: FeatureMode) -> u8 {
    match mode {
        FeatureMode::NoSamples => 0,
        FeatureMode::SampleCounts => 1,
        FeatureMode::Bitmaps => 2,
        FeatureMode::PredicateBitmaps => 3,
    }
}

fn mode_from_tag(tag: u8) -> Result<FeatureMode, DecodeError> {
    match tag {
        0 => Ok(FeatureMode::NoSamples),
        1 => Ok(FeatureMode::SampleCounts),
        2 => Ok(FeatureMode::Bitmaps),
        3 => Ok(FeatureMode::PredicateBitmaps),
        t => Err(DecodeError(format!("unknown feature mode tag {t}"))),
    }
}

/// Bounds check shared by every decoder in the crate.
pub(crate) fn need(data: &[u8], n: usize) -> Result<(), DecodeError> {
    if data.remaining() < n {
        return Err(DecodeError("truncated buffer".into()));
    }
    Ok(())
}

/// Append the featurizer section (mode, dims, one-hot layouts, value
/// ranges, label normalization) to `buf` — shared by the f32 and int8
/// model formats, which must keep byte-identical featurizer encodings.
pub(crate) fn write_featurizer(buf: &mut Vec<u8>, featurizer: &Featurizer) {
    let p = featurizer.to_parts();
    buf.put_u8(mode_tag(p.mode));
    buf.put_u32_le(p.num_tables as u32);
    buf.put_u32_le(p.num_joins as u32);
    buf.put_u32_le(p.num_columns as u32);
    buf.put_u32_le(p.sample_size as u32);
    buf.put_u32_le(p.column_index.len() as u32);
    for cols in &p.column_index {
        buf.put_u32_le(cols.len() as u32);
        for &g in cols {
            buf.put_u32_le(if g == usize::MAX { u32::MAX } else { g as u32 });
        }
    }
    buf.put_u32_le(p.value_range.len() as u32);
    for &(lo, hi) in &p.value_range {
        buf.put_i64_le(lo);
        buf.put_i64_le(hi);
    }
    buf.put_f64_le(p.min_log);
    buf.put_f64_le(p.max_log);
}

/// Parse the featurizer section written by [`write_featurizer`],
/// consuming it from the front of `data`. Every count is bounds-checked
/// against the remaining input before reservation, so corrupt counts
/// error instead of allocating.
pub(crate) fn read_featurizer(data: &mut &[u8]) -> Result<Featurizer, DecodeError> {
    need(data, 1 + 5 * 4)?;
    let mode = mode_from_tag(data.get_u8())?;
    let num_tables = data.get_u32_le() as usize;
    let num_joins = data.get_u32_le() as usize;
    let num_columns = data.get_u32_le() as usize;
    let sample_size = data.get_u32_le() as usize;
    let n_tables = data.get_u32_le() as usize;
    // Each table entry is at least one length word; checking up front
    // bounds the Vec reservation by the actual input size, so a corrupt
    // count cannot trigger an absurd allocation.
    need(data, 4 * n_tables)?;
    let mut column_index = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        need(data, 4)?;
        let n = data.get_u32_le() as usize;
        need(data, 4 * n)?;
        let cols = (0..n)
            .map(|_| {
                let v = data.get_u32_le();
                if v == u32::MAX {
                    usize::MAX
                } else {
                    v as usize
                }
            })
            .collect();
        column_index.push(cols);
    }
    need(data, 4)?;
    let n_ranges = data.get_u32_le() as usize;
    need(data, 16 * n_ranges + 16)?;
    let value_range = (0..n_ranges).map(|_| (data.get_i64_le(), data.get_i64_le())).collect();
    let min_log = data.get_f64_le();
    let max_log = data.get_f64_le();
    let featurizer = Featurizer::from_parts(FeaturizerParts {
        mode,
        num_tables,
        num_joins,
        num_columns,
        sample_size,
        column_index,
        value_range,
        min_log,
        max_log,
    });
    // Loading derives the outputs of the featurizer's constant rows: one
    // row per table of at most `1 + (table_dim − num_tables)` entries and
    // one entry per join. The table and join weights of any model at
    // least as wide as its table count take more bytes than that, so
    // refusing a header whose constant rows outnumber the bytes that
    // follow keeps a hostile one from making a load cost more than linear
    // in its input.
    let row_width = (featurizer.table_dim() - num_tables) as u128 + 1;
    let constant_entries = num_tables as u128 * row_width + num_joins as u128;
    if constant_entries > data.remaining() as u128 {
        return Err(DecodeError(format!(
            "featurizer implies {constant_entries} constant-row entries, more than the {} \
             network bytes that follow",
            data.remaining()
        )));
    }
    Ok(featurizer)
}

impl MscnEstimator {
    /// Serialize the trained estimator (network + featurization state) to
    /// a self-contained byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.model().num_params() * 4 + 1024);
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(VERSION);
        write_featurizer(&mut buf, self.featurizer());
        // Network.
        buf.put_u32_le(self.model().hidden() as u32);
        for mlp in self.model().mlps() {
            for layer in mlp.layers() {
                buf.put_u32_le(layer.input_dim() as u32);
                buf.put_u32_le(layer.output_dim() as u32);
                for &w in layer.weights().data() {
                    buf.put_f32_le(w);
                }
                for &b in layer.bias() {
                    buf.put_f32_le(b);
                }
            }
        }
        buf
    }

    /// Deserialize an estimator written by [`MscnEstimator::to_bytes`].
    ///
    /// Strict: the buffer must contain exactly one well-formed payload.
    /// Truncated, corrupt, or trailing-byte input returns a
    /// [`DecodeError`] — this function never panics, so it is safe to feed
    /// it bytes received from the network (the `lc_serve` model registry
    /// loads snapshots through this path).
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, DecodeError> {
        need(data, 8)?;
        if data.get_u32_le() != MAGIC {
            return Err(DecodeError("bad magic".into()));
        }
        let version = data.get_u32_le();
        if version != VERSION {
            return Err(DecodeError(format!("unsupported version {version}")));
        }
        let featurizer = read_featurizer(&mut data)?;

        need(data, 4)?;
        let hidden = data.get_u32_le() as usize;
        // The architecture is fully determined by the featurizer dims and
        // `hidden`, so the exact byte length of the network section is
        // known before any weight is read. Requiring equality (not just
        // sufficiency) rejects both truncated payloads and trailing
        // garbage in one check, and does so *before* allocating the model
        // — a corrupt `hidden` cannot provoke a giant allocation. u128
        // arithmetic keeps adversarial dimension products from wrapping.
        fn mlp_bytes(input: usize, hidden: usize, output: usize) -> u128 {
            let (i, h, o) = (input as u128, hidden as u128, output as u128);
            // Two layers, each: u32 input + u32 output dims, then
            // f32 weights (in×out) and f32 biases (out).
            (8 + 4 * (i * h + h)) + (8 + 4 * (h * o + o))
        }
        let (td, jd, pd) = (featurizer.table_dim(), featurizer.join_dim(), featurizer.pred_dim());
        let expected = mlp_bytes(td, hidden, hidden)
            + mlp_bytes(jd, hidden, hidden)
            + mlp_bytes(pd, hidden, hidden)
            + mlp_bytes(3 * hidden, hidden, 1);
        if data.remaining() as u128 != expected {
            return Err(DecodeError(format!(
                "network payload size mismatch: expected {expected} bytes for dims \
                 ({td},{jd},{pd})×{hidden}, found {}",
                data.remaining()
            )));
        }
        let mut model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            hidden,
            0,
        );
        for mlp in model.mlps_mut() {
            for layer in mlp.layers_mut() {
                need(data, 8)?;
                let input = data.get_u32_le() as usize;
                let output = data.get_u32_le() as usize;
                if input != layer.input_dim() || output != layer.output_dim() {
                    return Err(DecodeError(format!(
                        "layer shape mismatch: file {input}x{output}, expected {}x{}",
                        layer.input_dim(),
                        layer.output_dim()
                    )));
                }
                need(data, 4 * (input * output + output))?;
                let w = (0..input * output).map(|_| data.get_f32_le()).collect();
                let b = (0..output).map(|_| data.get_f32_le()).collect();
                layer.load(w, b);
            }
        }
        Ok(MscnEstimator::from_parts(model, featurizer))
    }

    /// Size in bytes of the serialized estimator (§4.7's footprint metric).
    pub fn serialized_size(&self) -> usize {
        self.to_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainConfig};
    use lc_engine::SampleSet;
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::workloads;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn trained(mode: FeatureMode) -> (crate::train::TrainedModel, Vec<lc_query::LabeledQuery>) {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(31);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 120, 2, 23).queries;
        let cfg = TrainConfig { epochs: 2, hidden: 16, mode, ..TrainConfig::default() };
        (train(&db, 24, &data, cfg), data)
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        for mode in [FeatureMode::NoSamples, FeatureMode::SampleCounts, FeatureMode::Bitmaps] {
            let (t, data) = trained(mode);
            let bytes = t.estimator.to_bytes();
            let restored = MscnEstimator::from_bytes(&bytes).expect("decode");
            let a = t.estimator.estimate_cards(&data[..20]);
            let b = restored.estimate_cards(&data[..20]);
            assert_eq!(a, b, "{mode:?}: predictions changed after roundtrip");
        }
    }

    #[test]
    fn size_tracks_parameter_count() {
        let (t, _) = trained(FeatureMode::Bitmaps);
        let size = t.estimator.serialized_size();
        let params = t.estimator.model().num_params();
        assert!(size >= params * 4, "size {size} < 4*params {}", params * 4);
        assert!(size < params * 4 + 4096, "metadata overhead too large: {size}");
    }

    #[test]
    fn rejects_corrupt_buffers() {
        let (t, _) = trained(FeatureMode::SampleCounts);
        let mut bytes = t.estimator.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(MscnEstimator::from_bytes(&bad).is_err());
        // Truncation.
        bytes.truncate(bytes.len() / 2);
        assert!(MscnEstimator::from_bytes(&bytes).is_err());
        // Empty.
        assert!(MscnEstimator::from_bytes(&[]).is_err());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let (t, _) = trained(FeatureMode::NoSamples);
        let mut bytes = t.estimator.to_bytes();
        bytes.push(0);
        let err = MscnEstimator::from_bytes(&bytes).unwrap_err();
        assert!(err.0.contains("size mismatch"), "unexpected error: {err}");
        // A whole second copy appended must fail too.
        let mut doubled = t.estimator.to_bytes();
        doubled.extend(t.estimator.to_bytes());
        assert!(MscnEstimator::from_bytes(&doubled).is_err());
    }

    #[test]
    fn every_truncation_errors_without_panicking() {
        let (t, _) = trained(FeatureMode::SampleCounts);
        let bytes = t.estimator.to_bytes();
        // Exhaustive over the metadata region (where parsing branches
        // live), strided through the large flat weight region.
        let cuts = (0..256.min(bytes.len()))
            .chain((256..bytes.len()).step_by(97))
            .chain(bytes.len().saturating_sub(8)..bytes.len());
        for cut in cuts {
            assert!(
                MscnEstimator::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut}/{} decoded successfully",
                bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_counts_error_instead_of_allocating() {
        let (t, _) = trained(FeatureMode::Bitmaps);
        let bytes = t.estimator.to_bytes();
        // Overwrite each metadata count word (after magic+version+mode:
        // num_tables, num_joins, num_columns, sample_size, n_tables) with
        // u32::MAX; decode must fail cleanly, not OOM or panic.
        for word in 0..5 {
            let at = 9 + 4 * word;
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(MscnEstimator::from_bytes(&bad).is_err(), "corrupt word {word} accepted");
        }
        // A corrupt hidden width likewise fails via the exact-size check.
        // `hidden` sits right after the featurizer section; find it by
        // re-encoding with a sentinel... simpler: flip the last 4 bytes of
        // the buffer (inside the output layer's bias) is a value change,
        // not a structural one, so instead corrupt the first network word
        // by truncating to the featurizer section + a bogus hidden.
        let meta_len = bytes.len() - network_bytes(&t.estimator);
        let mut bogus = bytes[..meta_len].to_vec();
        bogus.extend(u32::MAX.to_le_bytes());
        assert!(MscnEstimator::from_bytes(&bogus).is_err());
    }

    /// Loading derives the outputs of the featurizer's constant rows, so a
    /// header implying more constant-row entries than the bytes after it
    /// is refused first. Hidden width 0 makes every weight tensor empty,
    /// so the exact-size check alone would let a huge sample size through.
    #[test]
    fn constant_rows_cannot_outgrow_the_input() {
        let (t, _) = trained(FeatureMode::Bitmaps);
        let bytes = t.estimator.to_bytes();
        let meta_len = bytes.len() - network_bytes(&t.estimator);
        let mut hostile = bytes[..meta_len].to_vec();
        let sample_size = 1u32 << 20;
        hostile[21..25].copy_from_slice(&sample_size.to_le_bytes());
        hostile.extend(0u32.to_le_bytes());
        let (td, jd, pd) = t.estimator.model().input_dims();
        let td = td - 24 + sample_size as usize;
        for (input, output) in [(td, 0), (0, 0), (jd, 0), (0, 0), (pd, 0), (0, 0), (0, 0), (0, 1)] {
            hostile.extend((input as u32).to_le_bytes());
            hostile.extend((output as u32).to_le_bytes());
        }
        hostile.extend(0f32.to_le_bytes());
        let err = MscnEstimator::from_bytes(&hostile).unwrap_err();
        assert!(err.0.contains("constant-row entries"), "unexpected error: {err}");
    }

    /// Byte length of the serialized network section (dims headers +
    /// weights + biases), mirroring the encoder's layout.
    fn network_bytes(est: &MscnEstimator) -> usize {
        // 4 bytes for `hidden`, then per layer: 8 header + 4 per param.
        4 + est.model().mlps().iter().map(|m| m.layers().len() * 8).sum::<usize>()
            + 4 * est.model().num_params()
    }
}
