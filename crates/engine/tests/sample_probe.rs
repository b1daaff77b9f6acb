//! Differential test of the materialized sample probe: the column-major
//! evaluator behind [`SampleSet::predicate_bitmap`] must agree, position
//! by position, with [`row_matches_all`] over the base rows the sample was
//! drawn from — the executor's path and the reference here.
//!
//! Covered on purpose: nullable columns (NULL never matches), all three
//! operators, literals at and just beyond the column domains' edges and at
//! `i64::MIN` / `i64::MAX`, sample sizes on both sides of a 64-bit word
//! boundary, and tables smaller than the sample size (positions beyond
//! the sample stay zero). CI runs this file at `PROPTEST_CASES=4096`.

use proptest::collection::vec;
use proptest::option::weighted;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lc_engine::predicate::row_matches_all;
use lc_engine::{
    Bitmap, CmpOp, Column, ColumnDef, Database, Predicate, SampleSet, Schema, Table, TableDef,
    TableId,
};

const SAMPLE_SIZES: [usize; 6] = [1, 50, 64, 65, 130, 1000];

/// Column 2 holds only these, so `<`/`>` run into the ends of `i64`.
const EXTREMES: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];

/// Literals: the ends of `i64`, and the edges of the `-3..=3` domain of
/// columns 0 and 1 from both sides.
const LITERALS: [i64; 10] = [i64::MIN, i64::MIN + 1, -4, -3, -2, 0, 3, 4, i64::MAX - 1, i64::MAX];

const T: TableId = TableId(0);

#[derive(Debug, Clone)]
struct Case {
    /// Column 0: nullable, small domain.
    sparse: Vec<Option<i64>>,
    /// Column 1: never NULL (no validity mask in the base column).
    dense: Vec<i64>,
    /// Column 2: nullable, indexes into [`EXTREMES`].
    extreme: Vec<Option<usize>>,
    sample_size: usize,
    draw_seed: u64,
    /// `(column, operator index, literal index)`.
    predicates: Vec<(usize, usize, usize)>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    // Up to 1,199 rows: below and above every sample size but the first.
    (1usize..1200).prop_flat_map(|rows| {
        (
            vec(weighted(0.8, -3i64..4), rows),
            vec(-3i64..4, rows),
            vec(weighted(0.9, 0usize..EXTREMES.len()), rows),
            0usize..SAMPLE_SIZES.len(),
            0u64..u64::MAX,
            vec((0usize..3, 0usize..3, 0usize..LITERALS.len()), 1..5),
        )
            .prop_map(|(sparse, dense, extreme, size, draw_seed, predicates)| Case {
                sparse,
                dense,
                extreme,
                sample_size: SAMPLE_SIZES[size],
                draw_seed,
                predicates,
            })
    })
}

fn build(case: &Case) -> Database {
    let def = TableDef {
        name: "t".into(),
        columns: vec![
            ColumnDef::nullable_data("sparse"),
            ColumnDef::data("dense"),
            ColumnDef::nullable_data("extreme"),
        ],
    };
    let table = Table::new(vec![
        Column::from_nullable(case.sparse.clone()),
        Column::from_values(case.dense.clone()),
        Column::from_nullable(case.extreme.iter().map(|e| e.map(|i| EXTREMES[i])).collect()),
    ]);
    Database::new(Schema::new(vec![def], vec![], T), vec![table])
}

/// The bitmap `preds` must produce, from the base rows.
fn reference(db: &Database, samples: &SampleSet, preds: &[Predicate]) -> Bitmap {
    let mut expected = Bitmap::new(samples.sample_size());
    for (pos, &row) in samples.table(T).row_ids.iter().enumerate() {
        if row_matches_all(db.table(T), preds, row as usize) {
            expected.set(pos);
        }
    }
    expected
}

proptest! {
    #[test]
    fn materialized_probe_matches_base_rows(case in case_strategy()) {
        let db = build(&case);
        let samples =
            SampleSet::draw(&db, case.sample_size, &mut SmallRng::seed_from_u64(case.draw_seed));
        let sampled = case.sample_size.min(case.dense.len());
        prop_assert_eq!(samples.table(T).row_ids.len(), sampled);
        prop_assert_eq!(samples.present(T), &reference(&db, &samples, &[]));

        let preds: Vec<Predicate> = case
            .predicates
            .iter()
            .map(|&(column, op, lit)| Predicate {
                table: T,
                column,
                op: CmpOp::ALL[op],
                value: LITERALS[lit],
            })
            .collect();
        let mut conjunction = samples.present(T).clone();
        for p in &preds {
            let alone = samples.predicate_bitmap(p);
            prop_assert_eq!(alone.len(), case.sample_size);
            prop_assert_eq!(&alone, &reference(&db, &samples, std::slice::from_ref(p)), "{:?}", p);
            conjunction &= &alone;
        }
        prop_assert_eq!(conjunction, reference(&db, &samples, &preds));
    }
}
