//! Query featurization (§3.1) and sample enrichment (§3.4).
//!
//! * table element: one-hot table id ‖ sample feature (per
//!   [`FeatureMode`]);
//! * join element: one-hot join id;
//! * predicate element: one-hot column id ‖ one-hot operator ‖ literal
//!   normalized into `[0,1]` by the column's min/max;
//! * target: `log(cardinality)` min/max-normalized to `[0,1]` over the
//!   training set ([`LabelNorm`]).
//!
//! Some element rows carry nothing specific to a query: every join row,
//! and every table row whose samples all qualify (in
//! [`FeatureMode::NoSamples`], every table row). The featurizer decides
//! which — it is the one place feature positions are decided — and emits
//! them once, as [`Featurizer::constant_rows`]; a model derives their
//! set-MLP outputs when it is built or loaded.
//!
//! In a serving block ([`Featurizer::featurize_into_sparse_batch`]) an
//! element's index therefore names either a stack row or a model
//! constant ([`crate::batch::CONSTANT`]). Constants are never stacked;
//! every other distinct row is stacked once per module, and each repeat
//! (the same table under the same bitmap, the same predicate on another
//! query) points at it. Segments count elements, not rows, and every
//! constant or repeat is one set-MLP row the forward pass does not
//! compute.

use std::hash::Hasher;

use lc_engine::{Bitmap, Database, FxHasher, JoinId, TableId};
use lc_nn::SparseRows;
use lc_query::{LabeledQuery, Query};

use crate::batch::{RaggedBatch, CONSTANT};

/// Which §3.4 sample information enriches the table features — the three
/// model variants of Fig. 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureMode {
    /// Query features only ("MSCN (no samples)").
    NoSamples,
    /// One qualifying-sample cardinality per base table
    /// ("MSCN (#samples)").
    SampleCounts,
    /// One qualifying-sample bitmap per base table ("MSCN (bitmaps)") —
    /// the paper's full model.
    Bitmaps,
    /// The §5 "More bitmaps" extension: the per-table conjunction bitmap
    /// *plus* one bitmap per individual predicate, attached to that
    /// predicate's feature vector. Increases the chance that some bitmap
    /// carries signal under selective conjunctions.
    PredicateBitmaps,
}

impl FeatureMode {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureMode::NoSamples => "MSCN (no samples)",
            FeatureMode::SampleCounts => "MSCN (#samples)",
            FeatureMode::Bitmaps => "MSCN (bitmaps)",
            FeatureMode::PredicateBitmaps => "MSCN (predicate bitmaps)",
        }
    }
}

/// The three set modules, in concatenation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Set {
    /// The table set `T_q`.
    Tables,
    /// The join set `J_q`.
    Joins,
    /// The predicate set `P_q`.
    Preds,
}

impl Set {
    /// All three, in concatenation order (a module's position here is its
    /// position in every per-module array of the model and the batch).
    pub const ALL: [Set; 3] = [Set::Tables, Set::Joins, Set::Preds];

    /// Number of elements of this set in `q`.
    fn len(self, q: &LabeledQuery) -> usize {
        match self {
            Set::Tables => q.query.tables().len(),
            Set::Joins => q.query.joins().len(),
            Set::Preds => q.query.predicates().len(),
        }
    }
}

/// Invertible log-min/max normalization of cardinalities (§3.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabelNorm {
    min_log: f64,
    max_log: f64,
}

impl LabelNorm {
    /// Fit on the training cardinalities.
    ///
    /// # Panics
    /// If `cards` is empty or contains a zero (the training pipeline skips
    /// empty results, §3.3).
    pub fn fit(cards: impl IntoIterator<Item = u64>) -> Self {
        let mut min_log = f64::INFINITY;
        let mut max_log = f64::NEG_INFINITY;
        let mut any = false;
        for c in cards {
            assert!(c > 0, "cardinality 0 cannot be log-normalized");
            let l = (c as f64).ln();
            min_log = min_log.min(l);
            max_log = max_log.max(l);
            any = true;
        }
        assert!(any, "cannot fit LabelNorm on an empty training set");
        if max_log <= min_log {
            max_log = min_log + 1.0;
        }
        LabelNorm { min_log, max_log }
    }

    /// Normalize a cardinality into `[0,1]` (clamped).
    pub fn normalize(&self, card: u64) -> f32 {
        let l = (card.max(1) as f64).ln();
        (((l - self.min_log) / (self.max_log - self.min_log)).clamp(0.0, 1.0)) as f32
    }

    /// Invert the normalization.
    pub fn denormalize(&self, y: f32) -> f64 {
        (y as f64 * (self.max_log - self.min_log) + self.min_log).exp()
    }

    /// `log(c_max) − log(c_min)`: the q-error loss scale.
    pub fn scale(&self) -> f32 {
        (self.max_log - self.min_log) as f32
    }

    /// Largest cardinality seen during training (used by §4.4/§4.5 to
    /// identify out-of-range evaluation queries).
    pub fn max_card(&self) -> f64 {
        self.max_log.exp()
    }
}

/// One featurized query: the CSR rows of its three sets plus the
/// normalized target.
#[derive(Clone, Debug)]
pub struct FeaturizedQuery {
    /// One row of width [`Featurizer::table_dim`] per participating table.
    pub tables: SparseRows,
    /// One row of width [`Featurizer::join_dim`] per join edge (no rows
    /// for base-table queries).
    pub joins: SparseRows,
    /// One row of width [`Featurizer::pred_dim`] per predicate (possibly
    /// none).
    pub preds: SparseRows,
    /// Normalized target, if the query is labeled for training.
    pub target: f32,
}

/// Encoder from [`LabeledQuery`] to model inputs, bound to a database
/// snapshot (for schema layout and value normalization) and a training-set
/// label normalization.
#[derive(Clone, Debug)]
pub struct Featurizer {
    mode: FeatureMode,
    num_tables: usize,
    num_joins: usize,
    num_columns: usize,
    sample_size: usize,
    /// Per (table, column): global data-column index, or usize::MAX for keys.
    column_index: Vec<Vec<usize>>,
    /// Per global data column: (min, max) for value normalization.
    value_range: Vec<(i64, i64)>,
    label_norm: LabelNorm,
}

impl Featurizer {
    /// Build the encoder. `sample_size` must match the [`lc_engine::SampleSet`]
    /// used to annotate queries; `training_cards` fits the label
    /// normalization (use the training split only).
    pub fn fit(
        db: &Database,
        mode: FeatureMode,
        sample_size: usize,
        training_cards: impl IntoIterator<Item = u64>,
    ) -> Self {
        let schema = db.schema();
        let num_tables = schema.num_tables();
        let num_joins = schema.num_joins();
        let num_columns = schema.total_data_columns();
        let mut column_index = Vec::with_capacity(num_tables);
        let mut value_range = vec![(0i64, 0i64); num_columns];
        for ti in 0..num_tables {
            let t = TableId(ti as u16);
            let def = schema.table(t);
            let mut per_col = vec![usize::MAX; def.columns.len()];
            for (ci, slot) in per_col.iter_mut().enumerate() {
                if let Some(g) = schema.global_data_column_index(t, ci) {
                    *slot = g;
                    let s = db.column_stats(t, ci);
                    value_range[g] = (s.min, s.max);
                }
            }
            column_index.push(per_col);
        }
        Featurizer {
            mode,
            num_tables,
            num_joins,
            num_columns,
            sample_size,
            column_index,
            value_range,
            label_norm: LabelNorm::fit(training_cards),
        }
    }

    /// The sample feature mode.
    pub fn mode(&self) -> FeatureMode {
        self.mode
    }

    /// The materialized-sample size this featurizer was fitted for.
    /// Queries must be annotated against a sample set of exactly this
    /// size (bitmap widths and count normalization bake it in) — a
    /// serving deployment should check this before accepting a model.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Label normalization fitted on the training set.
    pub fn label_norm(&self) -> &LabelNorm {
        &self.label_norm
    }

    /// Width of a table feature row.
    pub fn table_dim(&self) -> usize {
        self.num_tables
            + match self.mode {
                FeatureMode::NoSamples => 0,
                FeatureMode::SampleCounts => 1,
                FeatureMode::Bitmaps | FeatureMode::PredicateBitmaps => self.sample_size,
            }
    }

    /// Width of a join feature row.
    pub fn join_dim(&self) -> usize {
        self.num_joins
    }

    /// Width of a predicate feature row.
    pub fn pred_dim(&self) -> usize {
        self.num_columns
            + 3
            + 1
            + if self.mode == FeatureMode::PredicateBitmaps { self.sample_size } else { 0 }
    }

    /// Width of a feature row of `set`.
    fn dim(&self, set: Set) -> usize {
        match set {
            Set::Tables => self.table_dim(),
            Set::Joins => self.join_dim(),
            Set::Preds => self.pred_dim(),
        }
    }

    /// The constant element rows of `set`, stacked: row `id` is the row
    /// of every element that [`Featurizer::featurize_into_sparse_batch`]
    /// indexes as constant `id` of `set` — table `id` with all of its
    /// samples qualifying, join `id`'s one-hot; predicates have none.
    /// Emitted like any other rows, as the elements of one query that
    /// holds every table and every join with all samples qualifying.
    pub fn constant_rows(&self, set: Set) -> SparseRows {
        let every = LabeledQuery {
            query: Query::new(
                (0..self.num_tables as u16).map(TableId).collect(),
                (0..self.num_joins as u16).map(JoinId).collect(),
                vec![],
            ),
            cardinality: 0,
            sample_counts: vec![self.sample_size as u32; self.num_tables],
            bitmaps: vec![Bitmap::ones(self.sample_size); self.num_tables],
            pred_bitmaps: vec![],
        };
        let mut rows = SparseRows::new(self.dim(set));
        (0..set.len(&every)).for_each(|i| self.push_row(set, &every, i, &mut rows));
        rows
    }

    /// The constant row element `i` of `set` in `q` emits, if it emits
    /// one: a join's, always; a table's when the mode reads no samples or
    /// all `sample_size` of them qualify. The annotation counts a table's
    /// qualifying samples out of its bitmap, and that bitmap is no longer
    /// than `sample_size` ([`Featurizer::check_sample_width`]), so a full
    /// count means every bitmap position is set.
    fn constant_id(&self, set: Set, q: &LabeledQuery, i: usize) -> Option<u32> {
        match set {
            Set::Tables => {
                let all_qualify = self.mode == FeatureMode::NoSamples
                    || q.sample_counts[i] as usize == self.sample_size;
                all_qualify.then(|| q.query.tables()[i].index() as u32)
            }
            Set::Joins => Some(q.query.joins()[i].index() as u32),
            Set::Preds => None,
        }
    }

    /// Check, once per element, that the sample bitmap element `i` of
    /// `set` in `q` carries is no longer than `sample_size`. Bitmap
    /// positions are feature columns, so a query annotated against a
    /// larger sample set would name columns past the model's input width.
    ///
    /// # Panics
    /// If the bitmap is longer, naming both sizes.
    fn check_sample_width(&self, set: Set, q: &LabeledQuery, i: usize) {
        let bitmap = match set {
            Set::Tables => &q.bitmaps[i],
            Set::Joins => return,
            Set::Preds => &q.pred_bitmaps[i],
        };
        assert!(
            bitmap.len() <= self.sample_size,
            "query annotated against {} samples, but the featurizer was fitted for sample size {}",
            bitmap.len(),
            self.sample_size
        );
    }

    /// Normalize a literal by its column's min/max (§3.1). The literal
    /// may be any i64 a client sends, so the differences are taken in
    /// i128; converting the exact difference to f64 rounds it the same
    /// way the i64 difference did wherever that one did not overflow.
    fn normalize_value(&self, global_col: usize, v: i64) -> f32 {
        let (min, max) = self.value_range[global_col];
        if max <= min {
            return 0.0;
        }
        let (v, min, max) = (i128::from(v), i128::from(min), i128::from(max));
        (((v - min) as f64 / (max - min) as f64).clamp(0.0, 1.0)) as f32
    }

    /// Emit the nonzero `(index, value)` pairs of table-element row `i`
    /// of `q`, in strictly ascending index order. The three `emit_*_row`
    /// methods are the only place feature positions are decided.
    fn emit_table_row(&self, q: &LabeledQuery, i: usize, f: &mut impl FnMut(u32, f32)) {
        f(q.query.tables()[i].index() as u32, 1.0);
        match self.mode {
            FeatureMode::NoSamples => {}
            FeatureMode::SampleCounts => {
                let v = q.sample_counts[i] as f32 / self.sample_size as f32;
                if v != 0.0 {
                    f(self.num_tables as u32, v);
                }
            }
            FeatureMode::Bitmaps | FeatureMode::PredicateBitmaps => {
                for pos in q.bitmaps[i].iter_ones() {
                    f((self.num_tables + pos) as u32, 1.0);
                }
            }
        }
    }

    /// Emit the nonzeros of join-element row `i` of `q` (ascending).
    fn emit_join_row(&self, q: &LabeledQuery, i: usize, f: &mut impl FnMut(u32, f32)) {
        f(q.query.joins()[i].index() as u32, 1.0);
    }

    /// Emit the nonzeros of predicate-element row `pi` of `q` (ascending:
    /// column one-hot < operator one-hot < literal slot < bitmap bits).
    fn emit_pred_row(&self, q: &LabeledQuery, pi: usize, f: &mut impl FnMut(u32, f32)) {
        let p = &q.query.predicates()[pi];
        let g = self.column_index[p.table.index()][p.column];
        debug_assert_ne!(g, usize::MAX, "predicate on key column");
        f(g as u32, 1.0);
        f((self.num_columns + p.op.index()) as u32, 1.0);
        let v = self.normalize_value(g, p.value);
        if v != 0.0 {
            f((self.num_columns + 3) as u32, v);
        }
        if self.mode == FeatureMode::PredicateBitmaps {
            let base = self.num_columns + 4;
            for pos in q.pred_bitmaps[pi].iter_ones() {
                f((base + pos) as u32, 1.0);
            }
        }
    }

    /// Emit the nonzeros of element row `i` of `set` in `q`.
    fn emit_row(&self, set: Set, q: &LabeledQuery, i: usize, f: &mut impl FnMut(u32, f32)) {
        match set {
            Set::Tables => self.emit_table_row(q, i, f),
            Set::Joins => self.emit_join_row(q, i, f),
            Set::Preds => self.emit_pred_row(q, i, f),
        }
    }

    /// Append element row `i` of `set` in `q` to `rows` as one closed row.
    fn push_row(&self, set: Set, q: &LabeledQuery, i: usize, rows: &mut SparseRows) {
        self.emit_row(set, q, i, &mut |idx, val| rows.push_entry_trusted(idx, val));
        rows.finish_row();
    }

    /// Whether element row `i` of `set` in `q` has exactly the entries
    /// of `stored`, bit for bit — checked against the emitter's output,
    /// so a repeated row is confirmed without being pushed.
    fn emits(&self, set: Set, q: &LabeledQuery, i: usize, stored: (&[u32], &[f32])) -> bool {
        let (indices, values) = stored;
        let (mut k, mut same) = (0, true);
        self.emit_row(set, q, i, &mut |idx, val| {
            same &= (indices.get(k) == Some(&idx))
                & (values.get(k).map(|v| v.to_bits()) == Some(val.to_bits()));
            k += 1;
        });
        same && k == indices.len()
    }

    /// A hash of what the emitter reads for element row `i` of `set` in
    /// `q`: the block builder's key for finding a repeated row. A row is
    /// compared entry by entry before it is shared, so the key decides
    /// only how often sharing is found, never what a row holds. Join rows
    /// are constants and never looked up.
    fn row_key(&self, set: Set, q: &LabeledQuery, i: usize) -> u64 {
        let mut h = FxHasher::default();
        match set {
            Set::Tables => {
                h.write_usize(q.query.tables()[i].index());
                match self.mode {
                    FeatureMode::NoSamples => {}
                    FeatureMode::SampleCounts => h.write_u32(q.sample_counts[i]),
                    FeatureMode::Bitmaps | FeatureMode::PredicateBitmaps => {
                        q.bitmaps[i].words().iter().for_each(|&w| h.write_u64(w))
                    }
                }
            }
            Set::Joins => unreachable!("join rows are constants"),
            Set::Preds => {
                let p = &q.query.predicates()[i];
                let g = self.column_index[p.table.index()][p.column];
                h.write_usize(g);
                h.write_usize(p.op.index());
                // The emitted literal, not the raw one: literals past the
                // column's range clamp to the same row.
                h.write_u32(self.normalize_value(g, p.value).to_bits());
                if self.mode == FeatureMode::PredicateBitmaps {
                    q.pred_bitmaps[i].words().iter().for_each(|&w| h.write_u64(w));
                }
            }
        }
        h.finish()
    }

    /// Encode one annotated query on its own — the unit a training corpus
    /// is made of (`CorpusSparse::build` stacks them). Every element,
    /// constant or not, gets a row of its own. Serving featurizes whole
    /// blocks with [`Featurizer::featurize_into_sparse_batch`].
    ///
    /// # Panics
    /// If `q` was annotated against more than `sample_size` samples.
    pub fn featurize(&self, q: &LabeledQuery) -> FeaturizedQuery {
        let mut out = FeaturizedQuery {
            tables: SparseRows::new(self.table_dim()),
            joins: SparseRows::new(self.join_dim()),
            preds: SparseRows::new(self.pred_dim()),
            target: self.label_norm.normalize(q.cardinality.max(1)),
        };
        let stacks = [&mut out.tables, &mut out.joins, &mut out.preds];
        for (set, rows) in Set::ALL.into_iter().zip(stacks) {
            for i in 0..set.len(q) {
                self.check_sample_width(set, q, i);
                self.push_row(set, q, i, rows);
            }
        }
        out
    }

    /// Featurize a block of queries into a **reused** batch: the CSR
    /// stacks, element indexes, segment maps, and targets are rebuilt in
    /// place (buffer capacity carries over from the previous call), so a
    /// warm batch costs at most one emitter walk and one lookup per set
    /// element and nothing else.
    ///
    /// An element whose row is constant ([`Featurizer::constant_rows`])
    /// is recorded as that constant ([`CONSTANT`]` | id`) and neither
    /// stacked nor looked up. Each module's stack holds every other
    /// distinct row once, in order of first occurrence; a repeated row is
    /// compared against its earlier copy instead of being pushed, and its
    /// element points at that copy. The batch names constants, so it is
    /// for the forward pass only: `MscnModel::backward_scratch` trains on
    /// batches that name none ([`RaggedBatch::assemble_into`]).
    ///
    /// # Panics
    /// If a query was annotated against more than `sample_size` samples.
    pub fn featurize_into_sparse_batch(&self, queries: &[LabeledQuery], out: &mut RaggedBatch) {
        let RaggedBatch {
            tables_sp,
            table_segs,
            table_index,
            joins_sp,
            join_segs,
            join_index,
            preds_sp,
            pred_segs,
            pred_index,
            targets,
            lookups: [table_lookup, join_lookup, pred_lookup],
            origins: _,
        } = out;
        let mut modules = [
            (Set::Tables, self.table_dim(), tables_sp, table_segs, table_index, table_lookup),
            (Set::Joins, self.join_dim(), joins_sp, join_segs, join_index, join_lookup),
            (Set::Preds, self.pred_dim(), preds_sp, pred_segs, pred_index, pred_lookup),
        ];
        // A lone query has no other query to share rows with.
        let share = queries.len() > 1;
        for (set, dim, rows, segs, index, lookup) in &mut modules {
            rows.clear(*dim);
            segs.clear();
            index.clear();
            if share {
                lookup.reset(queries.iter().map(|q| set.len(q)).sum());
            }
        }
        targets.clear();
        for q in queries {
            targets.push(self.label_norm.normalize(q.cardinality.max(1)));
            for (set, _, rows, segs, index, lookup) in &mut modules {
                let (set, n) = (*set, set.len(q));
                segs.push((index.len() as u32, n as u32));
                for i in 0..n {
                    self.check_sample_width(set, q, i);
                    if let Some(id) = self.constant_id(set, q, i) {
                        index.push(CONSTANT | id);
                        continue;
                    }
                    let next = rows.rows() as u32;
                    let stack = &**rows;
                    let earlier = if share {
                        let same = |r: u32| self.emits(set, q, i, stack.row(r as usize));
                        lookup.find_or_reserve(self.row_key(set, q, i), next, same)
                    } else {
                        None
                    };
                    index.push(earlier.unwrap_or_else(|| {
                        self.push_row(set, q, i, rows);
                        next
                    }));
                }
            }
        }
    }

    /// Raw pieces for (de)serialization.
    pub(crate) fn to_parts(&self) -> FeaturizerParts {
        FeaturizerParts {
            mode: self.mode,
            num_tables: self.num_tables,
            num_joins: self.num_joins,
            num_columns: self.num_columns,
            sample_size: self.sample_size,
            column_index: self.column_index.clone(),
            value_range: self.value_range.clone(),
            min_log: self.label_norm.min_log,
            max_log: self.label_norm.max_log,
        }
    }

    pub(crate) fn from_parts(p: FeaturizerParts) -> Self {
        Featurizer {
            mode: p.mode,
            num_tables: p.num_tables,
            num_joins: p.num_joins,
            num_columns: p.num_columns,
            sample_size: p.sample_size,
            column_index: p.column_index,
            value_range: p.value_range,
            label_norm: LabelNorm { min_log: p.min_log, max_log: p.max_log },
        }
    }
}

/// Flattened featurizer state for serialization.
pub(crate) struct FeaturizerParts {
    pub mode: FeatureMode,
    pub num_tables: usize,
    pub num_joins: usize,
    pub num_columns: usize,
    pub sample_size: usize,
    pub column_index: Vec<Vec<usize>>,
    pub value_range: Vec<(i64, i64)>,
    pub min_log: f64,
    pub max_log: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_engine::{CmpOp, Predicate, SampleSet};
    use lc_imdb::{generate, ImdbConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fixture() -> (Database, SampleSet) {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(5);
        let samples = SampleSet::draw(&db, 40, &mut rng);
        (db, samples)
    }

    #[test]
    fn label_norm_roundtrip_and_clamp() {
        let norm = LabelNorm::fit([1u64, 10, 100, 100_000]);
        for c in [1u64, 10, 5_000, 100_000] {
            let y = norm.normalize(c);
            assert!((0.0..=1.0).contains(&y));
            let back = norm.denormalize(y);
            assert!((back - c as f64).abs() / (c as f64) < 1e-4, "{c} -> {back}");
        }
        // Out-of-range cardinalities clamp to the boundary.
        assert_eq!(norm.normalize(10_000_000), 1.0);
        assert!((norm.max_card() - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn dims_depend_on_mode() {
        let (db, samples) = fixture();
        for (mode, extra) in [
            (FeatureMode::NoSamples, 0),
            (FeatureMode::SampleCounts, 1),
            (FeatureMode::Bitmaps, samples.sample_size()),
        ] {
            let f = Featurizer::fit(&db, mode, samples.sample_size(), [1u64, 100]);
            assert_eq!(f.table_dim(), 6 + extra, "{mode:?}");
            assert_eq!(f.join_dim(), 5);
            assert_eq!(f.pred_dim(), 10 + 3 + 1);
        }
    }

    #[test]
    fn encodes_one_hots_and_values() {
        let (db, samples) = fixture();
        let f = Featurizer::fit(&db, FeatureMode::Bitmaps, samples.sample_size(), [1u64, 1000]);
        let year_col = db.schema().table(TableId(0)).column_index("production_year").unwrap();
        let stats = db.column_stats(TableId(0), year_col);
        let mid = (stats.min + stats.max) / 2;
        let q = Query::new(
            vec![TableId(0), TableId(1)],
            vec![JoinId(0)],
            vec![Predicate { table: TableId(0), column: year_col, op: CmpOp::Gt, value: mid }],
        );
        let labeled = LabeledQuery::compute(&db, &samples, q);
        let fq = f.featurize(&labeled);
        assert_eq!(fq.tables.rows(), 2);
        assert_eq!(fq.joins.rows(), 1);
        assert_eq!(fq.preds.rows(), 1);
        // Table one-hots: first row is title (index 0), second mc (index 1).
        assert_eq!(fq.tables.row(0).0[0], 0);
        assert_eq!(fq.tables.row(1).0[0], 1);
        // Join one-hot: the single nonzero of the row.
        assert_eq!(fq.joins.row(0), (&[0u32][..], &[1.0f32][..]));
        // Predicate row: global col one-hot (title.production_year = 1),
        // operator Gt (index 2 of 3), value ~0.5 in the literal slot.
        let (idx, vals) = fq.preds.row(0);
        assert_eq!(idx, &[1, 10 + 2, 13]);
        assert_eq!(&vals[..2], &[1.0, 1.0]);
        assert!((0.3..0.7).contains(&vals[2]), "normalized mid-value {}", vals[2]);
        // Literals from the wire span all of i64: the extremes clamp to
        // the ends of the column's range instead of wrapping around.
        for (value, slot) in [(i64::MIN, 0.0), (i64::MAX, 1.0)] {
            let predicate = Predicate { table: TableId(0), column: year_col, op: CmpOp::Gt, value };
            let q = Query::new(vec![TableId(0)], vec![], vec![predicate]);
            let fq = f.featurize(&LabeledQuery::compute(&db, &samples, q));
            let (idx, vals) = fq.preds.row(0);
            let literal = if idx.last() == Some(&13) { vals[vals.len() - 1] } else { 0.0 };
            assert_eq!(literal, slot, "literal {value}");
        }
        // Bitmap bits mirror the labeled bitmaps: every entry past the
        // one-hot is a set sample bit.
        let (idx, vals) = fq.tables.row(0);
        assert!(idx[1..].iter().all(|&j| j >= 6) && vals.iter().all(|&v| v == 1.0));
        assert_eq!(idx.len() - 1, labeled.sample_counts[0] as usize);
    }

    /// A repeated row is shared only when the emitter reproduces the
    /// stored entries exactly: a stored row that is shorter, longer, or
    /// off in one value is a different row, whatever its key.
    #[test]
    fn emits_confirms_only_an_identical_row() {
        let (db, samples) = fixture();
        let f = Featurizer::fit(&db, FeatureMode::Bitmaps, samples.sample_size(), [1u64, 1000]);
        let year_col = db.schema().table(TableId(0)).column_index("production_year").unwrap();
        let stats = db.column_stats(TableId(0), year_col);
        let p = Predicate { table: TableId(0), column: year_col, op: CmpOp::Lt, value: stats.max };
        let q = LabeledQuery::compute(&db, &samples, Query::new(vec![TableId(0)], vec![], vec![p]));
        let fq = f.featurize(&q);
        for (set, (idx, vals)) in [(Set::Tables, fq.tables.row(0)), (Set::Preds, fq.preds.row(0))] {
            assert!(f.emits(set, &q, 0, (idx, vals)), "{set:?}: the row itself");
            let n = idx.len();
            assert!(!f.emits(set, &q, 0, (&idx[..n - 1], &vals[..n - 1])), "{set:?}: shorter");
            let longer = ([idx, &[idx[n - 1] + 1]].concat(), [vals, &[1.0]].concat());
            assert!(!f.emits(set, &q, 0, (&longer.0, &longer.1)), "{set:?}: longer");
            let mut off = vals.to_vec();
            off[n - 1] += 0.5;
            assert!(!f.emits(set, &q, 0, (idx, &off)), "{set:?}: one value off");
        }
    }

    /// The two consumers of the emitters — per-query [`Featurizer::featurize`]
    /// stacked by `CorpusSparse` + `assemble_indexed` (training), and the
    /// block builder [`Featurizer::featurize_into_sparse_batch`] (serving)
    /// — must describe exactly the same elements: each batch's rows read
    /// through its index (stack rows, or constant rows for the builder's
    /// tagged elements) are the same rows, with the same segments and
    /// targets, while the builder's stacks hold each distinct
    /// non-constant row once.
    #[test]
    fn sparse_batch_builder_matches_assemble_indexed() {
        let (db, samples) = fixture();
        for (seed, mode) in [
            (21, FeatureMode::NoSamples),
            (22, FeatureMode::SampleCounts),
            (23, FeatureMode::Bitmaps),
            (24, FeatureMode::PredicateBitmaps),
        ] {
            let f = Featurizer::fit(&db, mode, samples.sample_size(), [1u64, 800]);
            let mut gen = lc_query::QueryGenerator::new(
                &db,
                lc_query::GeneratorConfig { max_joins: 2, seed },
            );
            let mut labeled: Vec<LabeledQuery> = gen
                .generate_unique(25)
                .into_iter()
                .map(|q| LabeledQuery::compute(&db, &samples, q))
                .collect();
            // Whole repeated queries on top of the rows unique queries
            // already share.
            labeled.extend_from_within(3..9);
            let feats: Vec<FeaturizedQuery> = labeled.iter().map(|q| f.featurize(q)).collect();
            let (td, jd, pd) = (f.table_dim(), f.join_dim(), f.pred_dim());
            let corpus = crate::batch::CorpusSparse::build(&feats, td, jd, pd);
            let all: Vec<usize> = (0..feats.len()).collect();
            let via_assemble = RaggedBatch::assemble_indexed(&feats, &corpus, &all, td, jd, pd);

            // Stale buffers from a previous (different) block must be
            // fully overwritten.
            let mut reused = RaggedBatch::empty();
            f.featurize_into_sparse_batch(&labeled[..5], &mut reused);
            f.featurize_into_sparse_batch(&labeled, &mut reused);
            let (elementwise, want) = (reused.expanded(&f), via_assemble.expanded(&f));
            assert_eq!(elementwise.tables_sp, want.tables_sp, "{mode:?}: CSR tables");
            assert_eq!(elementwise.joins_sp, want.joins_sp, "{mode:?}: CSR joins");
            assert_eq!(elementwise.preds_sp, want.preds_sp, "{mode:?}: CSR preds");
            assert_eq!(reused.table_segs, via_assemble.table_segs, "{mode:?}: table segs");
            assert_eq!(reused.join_segs, via_assemble.join_segs, "{mode:?}: join segs");
            assert_eq!(reused.pred_segs, via_assemble.pred_segs, "{mode:?}: pred segs");
            assert_eq!(reused.targets, via_assemble.targets, "{mode:?}: targets");
            assert_eq!(reused.len(), labeled.len(), "{mode:?}: batch length");

            for (rows, index) in [
                (&reused.tables_sp, &reused.table_index),
                (&reused.joins_sp, &reused.join_index),
                (&reused.preds_sp, &reused.pred_index),
            ] {
                let distinct: Vec<_> = (0..rows.rows()).map(|r| rows.row(r)).collect();
                for (r, row) in distinct.iter().enumerate() {
                    assert!(!distinct[..r].contains(row), "{mode:?}: row {r} is stacked twice");
                    assert!(index.contains(&(r as u32)), "{mode:?}: row {r} is unused");
                }
                assert!(rows.rows() < index.len(), "{mode:?}: the repeated queries share rows");
            }
            let tagged = |index: &[u32]| index.iter().filter(|&&e| e & CONSTANT != 0).count();
            assert_eq!(tagged(&reused.join_index), reused.join_index.len(), "{mode:?}: joins");
            assert_eq!(reused.joins_sp.rows(), 0, "{mode:?}: no join row is stacked");
            assert!(tagged(&reused.table_index) > 0, "{mode:?}: some tables are constants");
            assert_eq!(tagged(&reused.pred_index), 0, "{mode:?}: predicates never are");
        }
    }

    /// A table element is a constant exactly when the mode reads no
    /// samples or all of them qualify — not for a table smaller than the
    /// sample, whose bitmap leaves positions clear — and a constant
    /// element emits its constant row, entry for entry.
    #[test]
    fn constant_elements_emit_their_constant_row() {
        let db = generate(&ImdbConfig::tiny());
        // One table smaller than the sample: the smallest.
        let rows = |t: u16| db.table(TableId(t)).num_rows();
        let small = (0..6).min_by_key(|&t| rows(t)).unwrap();
        let samples = SampleSet::draw(&db, rows(small) + 1, &mut SmallRng::seed_from_u64(8));
        let kind = db.schema().table(TableId(0)).column_index("kind_id").unwrap();
        let stats = db.column_stats(TableId(0), kind);
        let any_kind =
            Predicate { table: TableId(0), column: kind, op: CmpOp::Gt, value: stats.min - 1 };
        let mut queries: Vec<Query> =
            (0..6).map(|t| Query::new(vec![TableId(t)], vec![], vec![])).collect();
        queries.push(Query::new(vec![TableId(0)], vec![], vec![any_kind]));
        queries.push(Query::new(vec![TableId(0), TableId(1)], vec![JoinId(0)], vec![]));
        let labeled: Vec<_> =
            queries.into_iter().map(|q| LabeledQuery::compute(&db, &samples, q)).collect();
        for mode in [
            FeatureMode::NoSamples,
            FeatureMode::SampleCounts,
            FeatureMode::Bitmaps,
            FeatureMode::PredicateBitmaps,
        ] {
            let f = Featurizer::fit(&db, mode, samples.sample_size(), [1u64, 1000]);
            let constants = [f.constant_rows(Set::Tables), f.constant_rows(Set::Joins)];
            assert_eq!((constants[0].rows(), constants[1].rows()), (6, 5), "{mode:?}");
            assert_eq!(f.constant_rows(Set::Preds).rows(), 0, "{mode:?}");
            for q in &labeled {
                let fq = f.featurize(q);
                for (i, &count) in q.sample_counts.iter().enumerate() {
                    let full = count as usize == samples.sample_size();
                    let id = f.constant_id(Set::Tables, q, i);
                    assert_eq!(id.is_some(), mode == FeatureMode::NoSamples || full, "{mode:?}");
                    if let Some(id) = id {
                        assert_eq!(fq.tables.row(i), constants[0].row(id as usize), "{mode:?}");
                    }
                }
                for i in 0..fq.joins.rows() {
                    let id = f.constant_id(Set::Joins, q, i).expect("joins are constants");
                    assert_eq!(fq.joins.row(i), constants[1].row(id as usize), "{mode:?}");
                }
            }
            // Title is fully sampled unless it is the small table; the
            // predicate every row passes leaves its row as constant as
            // without it. The small table's row is never constant unless
            // no samples are read.
            let title = f.constant_id(Set::Tables, &labeled[0], 0);
            assert_eq!(f.constant_id(Set::Tables, &labeled[6], 0), title, "{mode:?}");
            let small_row = f.constant_id(Set::Tables, &labeled[small as usize], 0);
            assert_eq!(small_row.is_some(), mode == FeatureMode::NoSamples, "{mode:?}");
            let constant = |t: usize| f.constant_id(Set::Tables, &labeled[t], 0).is_some();
            assert_eq!((0..6).filter(|&t| constant(t)).count(), 5 + small_row.is_some() as usize);
        }
    }

    /// A query annotated against a larger sample set than the featurizer
    /// was fitted for would name feature columns past the model's input
    /// width; the featurizer stops instead, in release builds too.
    #[test]
    #[should_panic(expected = "sample size")]
    fn a_larger_sample_set_is_rejected() {
        let (db, samples) = fixture();
        let f = Featurizer::fit(&db, FeatureMode::Bitmaps, 16, [1u64, 1000]);
        let q = LabeledQuery::compute(&db, &samples, Query::new(vec![TableId(2)], vec![], vec![]));
        f.featurize_into_sparse_batch(&[q], &mut RaggedBatch::empty());
    }

    #[test]
    fn base_table_query_has_empty_join_set() {
        let (db, samples) = fixture();
        let f = Featurizer::fit(&db, FeatureMode::SampleCounts, samples.sample_size(), [1u64, 10]);
        let q = Query::new(vec![TableId(3)], vec![], vec![]);
        let labeled = LabeledQuery::compute(&db, &samples, q);
        let fq = f.featurize(&labeled);
        assert_eq!(fq.tables.rows(), 1);
        assert_eq!(fq.joins.rows(), 0);
        assert_eq!(fq.preds.rows(), 0);
        // No predicates -> all samples qualify -> count feature = 1.0.
        assert_eq!(fq.tables.row(0), (&[3u32, 6][..], &[1.0f32, 1.0][..]));
    }
}
