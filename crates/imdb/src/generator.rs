//! The dataset generator: schema construction plus correlated row synthesis.

use lc_engine::{Column, ColumnDef, Database, JoinEdge, Schema, Table, TableDef, TableId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dist::{recency_skewed_year, skewed_count, WeightedPool, Zipf};
use crate::names::*;
use crate::ImdbConfig;

/// The six-table JOB-light star schema. `title` is the center; every fact
/// table joins it via `movie_id = title.id`.
pub fn imdb_schema() -> Schema {
    let title = TableDef {
        name: TITLE.into(),
        columns: vec![
            ColumnDef::primary_key(ID),
            ColumnDef::data(KIND_ID),
            ColumnDef::nullable_data(PRODUCTION_YEAR),
            ColumnDef::nullable_data(EPISODE_NR),
        ],
    };
    let fact = |name: &str, extra: Vec<ColumnDef>| {
        let mut columns = vec![ColumnDef::foreign_key(MOVIE_ID, TableId(0))];
        columns.extend(extra);
        TableDef { name: name.into(), columns }
    };
    let tables = vec![
        title,
        fact(MOVIE_COMPANIES, vec![ColumnDef::data(COMPANY_ID), ColumnDef::data(COMPANY_TYPE_ID)]),
        fact(CAST_INFO, vec![ColumnDef::data(PERSON_ID), ColumnDef::data(ROLE_ID)]),
        fact(MOVIE_INFO, vec![ColumnDef::data(INFO_TYPE_ID)]),
        fact(MOVIE_INFO_IDX, vec![ColumnDef::data(INFO_TYPE_ID)]),
        fact(MOVIE_KEYWORD, vec![ColumnDef::data(KEYWORD_ID)]),
    ];
    let joins = (1..tables.len())
        .map(|i| JoinEdge {
            fact: TableId(i as u16),
            fact_col: 0,
            center: TableId(0),
            center_col: 0,
        })
        .collect();
    Schema::new(tables, joins, TableId(0))
}

/// Decade bucket of a year within the `[YEAR_LO, YEAR_HI]` domain.
fn decade(year: i64) -> usize {
    ((year - YEAR_LO) / 10).clamp(0, (YEAR_HI - YEAR_LO) / 10) as usize
}

fn num_decades() -> usize {
    decade(YEAR_HI) + 1
}

/// Year position in `[0,1]`; NULL years map to the overall mean.
fn year_norm(year: Option<i64>) -> f64 {
    match year {
        Some(y) => (y - YEAR_LO) as f64 / (YEAR_HI - YEAR_LO) as f64,
        None => 0.55,
    }
}

/// Kind mix as a function of production year: TV formats and video games
/// only exist in later decades, which correlates `kind_id` with
/// `production_year` *within* the title table.
fn kind_weights(year: Option<i64>) -> [f64; NUM_KINDS as usize] {
    let t = year_norm(year);
    [
        0.45 - 0.15 * t,               // 1 movie
        0.02 + 0.08 * t,               // 2 tv_series
        (0.35 * (t - 0.4)).max(0.005), // 3 tv_episode (post-1950s)
        0.01 + 0.07 * t,               // 4 video
        (0.10 * (t - 0.7)).max(0.002), // 5 video_game (post-1980s)
        0.22 - 0.10 * t,               // 6 short
        0.08,                          // 7 documentary
    ]
}

fn pick_weighted<R: Rng>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// An entity (company or person) with an activity window over years and a
/// Zipfian popularity weight. The window is what creates the join-crossing
/// correlation: the entity only attaches to movies whose production year
/// falls inside it.
struct EraEntity {
    lo: i64,
    hi: i64,
    weight: f64,
}

fn era_entities<R: Rng>(
    rng: &mut R,
    n: usize,
    alpha: f64,
    min_len: i64,
    max_len: i64,
) -> Vec<EraEntity> {
    (0..n)
        .map(|i| {
            let len = rng.gen_range(min_len..=max_len);
            let lo = rng.gen_range(YEAR_LO..=(YEAR_HI - len));
            EraEntity { lo, hi: lo + len, weight: 1.0 / ((i + 1) as f64).powf(alpha) }
        })
        .collect()
}

/// Per-decade weighted pools of entity ids (1-based), plus a global pool
/// used for NULL years and as a small noise floor.
struct EraPools {
    by_decade: Vec<WeightedPool<i64>>,
    global: WeightedPool<i64>,
}

impl EraPools {
    fn build(entities: &[EraEntity]) -> Self {
        let by_decade = (0..num_decades())
            .map(|d| {
                let dlo = YEAR_LO + 10 * d as i64;
                let dhi = dlo + 9;
                WeightedPool::new(entities.iter().enumerate().filter_map(|(i, e)| {
                    (e.lo <= dhi && e.hi >= dlo).then_some((i as i64 + 1, e.weight))
                }))
            })
            .collect();
        let global =
            WeightedPool::new(entities.iter().enumerate().map(|(i, e)| (i as i64 + 1, e.weight)));
        EraPools { by_decade, global }
    }

    /// Sample an entity active around `year` (with a little era noise so the
    /// correlation is strong but not deterministic).
    fn sample<R: Rng>(&self, rng: &mut R, year: Option<i64>) -> i64 {
        let pool = match year {
            Some(y) if rng.gen::<f64>() > 0.05 => {
                let p = &self.by_decade[decade(y)];
                if p.is_empty() {
                    &self.global
                } else {
                    p
                }
            }
            _ => &self.global,
        };
        pool.sample(rng).expect("global pool is never empty")
    }
}

struct Titles {
    kinds: Vec<i64>,
    years: Vec<Option<i64>>,
    episode_nrs: Vec<Option<i64>>,
}

fn generate_titles<R: Rng>(rng: &mut R, n: usize) -> Titles {
    let mut kinds = Vec::with_capacity(n);
    let mut years = Vec::with_capacity(n);
    let mut episode_nrs = Vec::with_capacity(n);
    for _ in 0..n {
        let year = if rng.gen::<f64>() < 0.04 {
            None
        } else {
            Some(recency_skewed_year(rng, YEAR_LO, YEAR_HI + 1))
        };
        let kind = pick_weighted(rng, &kind_weights(year)) as i64 + 1;
        let episode_nr = if kind == 3 { Some(skewed_count(rng, 24.0, 500) as i64) } else { None };
        kinds.push(kind);
        years.push(year);
        episode_nrs.push(episode_nr);
    }
    Titles { kinds, years, episode_nrs }
}

/// Generate the full correlated database. Deterministic in `cfg.seed`.
pub fn generate(cfg: &ImdbConfig) -> Database {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let schema = imdb_schema();
    let n = cfg.num_titles;

    let titles = generate_titles(&mut rng, n);

    let companies = era_entities(&mut rng, cfg.num_companies, 0.85, 12, 45);
    let company_pools = EraPools::build(&companies);
    let persons = era_entities(&mut rng, cfg.num_persons, 1.05, 8, 45);
    let person_pools = EraPools::build(&persons);
    let kw_band = (cfg.num_keywords as i64 / NUM_KINDS).max(1);
    let kw_global = Zipf::new(cfg.num_keywords, 1.05);
    let kw_band_zipf = Zipf::new(kw_band as usize, 1.05);
    let mi_global = Zipf::new(NUM_INFO_TYPES as usize, 0.9);
    let mi_band_zipf = Zipf::new(15, 0.9);
    let mi_idx_zipf = Zipf::new((INFO_IDX_HI - INFO_IDX_LO + 1) as usize, 0.7);

    // Per-kind role multipliers: different production kinds employ different
    // role mixes (e.g. documentaries are narrator/self-heavy, episodes are
    // writer-light), correlating `role_id` with `kind_id` across the join.
    let role_base = [0.30, 0.22, 0.09, 0.08, 0.07, 0.06, 0.05, 0.05, 0.04, 0.02, 0.02];
    let role_mult = |kind: i64, role: usize| -> f64 {
        match (kind, role + 1) {
            (7, 8) | (7, 9) => 4.0,   // documentary: guest/self-style roles
            (3, 4) => 0.3,            // episodes: fewer writers per record
            (5, 10) | (5, 11) => 3.0, // video games: crew-style roles
            (1, 1) | (1, 2) => 1.4,   // movies: actor/actress heavy
            _ => 1.0,
        }
    };

    let mut mc_movie = Vec::new();
    let mut mc_company = Vec::new();
    let mut mc_type = Vec::new();
    let mut ci_movie = Vec::new();
    let mut ci_person = Vec::new();
    let mut ci_role = Vec::new();
    let mut mi_movie = Vec::new();
    let mut mi_type = Vec::new();
    let mut mix_movie = Vec::new();
    let mut mix_type = Vec::new();
    let mut mk_movie = Vec::new();
    let mut mk_keyword = Vec::new();

    for movie in 0..n {
        let movie_id = movie as i64;
        let kind = titles.kinds[movie];
        let year = titles.years[movie];
        let t = year_norm(year);

        // movie_companies: fan-out grows over time; company chosen by era.
        let n_mc = skewed_count(&mut rng, 1.2 + 1.0 * t, 8);
        for _ in 0..n_mc {
            mc_movie.push(movie_id);
            mc_company.push(company_pools.sample(&mut rng, year));
            // Older records skew towards distribution-type entries.
            let p_production = 0.55 + 0.35 * t;
            mc_type.push(if rng.gen::<f64>() < p_production { 1 } else { 2 });
        }

        // cast_info: kind-dependent cast size, era-matched persons.
        let cast_mean = match kind {
            1 => 6.5,
            2 => 5.0,
            3 => 3.2,
            4 => 3.0,
            7 => 2.2,
            _ => 2.6,
        };
        let n_ci = skewed_count(&mut rng, cast_mean, 25);
        for _ in 0..n_ci {
            ci_movie.push(movie_id);
            ci_person.push(person_pools.sample(&mut rng, year));
            let weights: Vec<f64> = (0..11).map(|r| role_base[r] * role_mult(kind, r)).collect();
            ci_role.push(pick_weighted(&mut rng, &weights) as i64 + 1);
        }

        // movie_info: info types cluster in a kind-specific band.
        let n_mi = skewed_count(&mut rng, 2.8, 9);
        for _ in 0..n_mi {
            mi_movie.push(movie_id);
            let ty = if rng.gen::<f64>() < 0.5 {
                let band_lo = (kind - 1) * 15 + 1;
                (band_lo + mi_band_zipf.sample(&mut rng) as i64).min(NUM_INFO_TYPES)
            } else {
                mi_global.sample(&mut rng) as i64 + 1
            };
            mi_type.push(ty);
        }

        // movie_info_idx: rating/vote records, much likelier for recent
        // titles (join-crossing correlation with production_year).
        let p_rated = match year {
            Some(_) => 0.08 + 0.85 * t * t,
            None => 0.30,
        };
        if rng.gen::<f64>() < p_rated {
            let n_mix = skewed_count(&mut rng, 1.4, 4);
            for _ in 0..n_mix {
                mix_movie.push(movie_id);
                mix_type.push(INFO_IDX_LO + mi_idx_zipf.sample(&mut rng) as i64);
            }
        }

        // movie_keyword: movies are keyword-rich, other kinds sparse; 15%
        // of titles have none at all.
        if rng.gen::<f64>() >= 0.15 {
            let kw_mean = if kind == 1 { 4.5 } else { 2.2 };
            let n_mk = skewed_count(&mut rng, kw_mean, 15);
            for _ in 0..n_mk {
                mk_movie.push(movie_id);
                let kw = if rng.gen::<f64>() < 0.6 {
                    let band_lo = (kind - 1) * kw_band;
                    (band_lo + kw_band_zipf.sample(&mut rng) as i64) % cfg.num_keywords as i64
                } else {
                    kw_global.sample(&mut rng) as i64
                };
                mk_keyword.push(kw + 1);
            }
        }
    }

    let title_table = Table::new(vec![
        Column::from_values((0..n as i64).collect()),
        Column::from_values(titles.kinds),
        Column::from_nullable(titles.years),
        Column::from_nullable(titles.episode_nrs),
    ]);
    let mc = Table::new(vec![
        Column::from_values(mc_movie),
        Column::from_values(mc_company),
        Column::from_values(mc_type),
    ]);
    let ci = Table::new(vec![
        Column::from_values(ci_movie),
        Column::from_values(ci_person),
        Column::from_values(ci_role),
    ]);
    let mi = Table::new(vec![Column::from_values(mi_movie), Column::from_values(mi_type)]);
    let mix = Table::new(vec![Column::from_values(mix_movie), Column::from_values(mix_type)]);
    let mk = Table::new(vec![Column::from_values(mk_movie), Column::from_values(mk_keyword)]);

    Database::new(schema, vec![title_table, mc, ci, mi, mix, mk])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_engine::{FxHashSet, JoinId};

    fn db() -> Database {
        generate(&ImdbConfig::tiny())
    }

    #[test]
    fn schema_shape() {
        let s = imdb_schema();
        assert_eq!(s.num_tables(), 6);
        assert_eq!(s.num_joins(), 5);
        assert_eq!(s.table_id(TITLE), Some(TableId(0)));
        assert_eq!(s.total_data_columns(), 10);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = db();
        let b = db();
        assert_eq!(a.total_rows(), b.total_rows());
        for ti in 0..6 {
            let t = TableId(ti as u16);
            for c in 0..a.schema().table(t).columns.len() {
                assert_eq!(a.column_stats(t, c), b.column_stats(t, c));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = db();
        let mut cfg = ImdbConfig::tiny();
        cfg.seed = 777;
        let b = generate(&cfg);
        assert_ne!(a.total_rows(), b.total_rows());
    }

    #[test]
    fn fanouts_in_expected_ranges() {
        let db = db();
        let n = db.table(TableId(0)).num_rows() as f64;
        let mc = db.table(TableId(1)).num_rows() as f64;
        let ci = db.table(TableId(2)).num_rows() as f64;
        assert!((1.0..4.0).contains(&(mc / n)), "mc fanout {}", mc / n);
        assert!((2.0..9.0).contains(&(ci / n)), "ci fanout {}", ci / n);
    }

    #[test]
    fn stored_fanouts_equal_a_recount() {
        let db = db();
        let center_rows = db.table(db.schema().center).num_rows();
        for (j, edge) in db.schema().joins.iter().enumerate() {
            let mut recount = vec![0u32; center_rows];
            for row in 0..db.table(edge.fact).num_rows() {
                recount[db.table(edge.fact).column(edge.fact_col).raw(row) as usize] += 1;
            }
            assert_eq!(db.fanout(JoinId(j as u16)), recount, "join {j}");
        }
    }

    #[test]
    fn episode_nr_only_for_episodes() {
        let db = db();
        let t = db.table(TableId(0));
        for row in 0..t.num_rows() {
            let kind = t.column(1).raw(row);
            let ep = t.column(3).value(row);
            if kind != 3 {
                assert_eq!(ep, None, "row {row}: non-episode with episode_nr");
            } else {
                assert!(ep.is_some(), "row {row}: episode without episode_nr");
            }
        }
    }

    #[test]
    fn company_era_correlation_is_present() {
        // Companies attached to pre-1940 movies and post-2005 movies should
        // be largely disjoint sets: the era mechanism at work. An
        // independence-based estimator cannot see this.
        let db = db();
        let title = db.table(TableId(0));
        let mc = db.table(TableId(1));
        let mut old: FxHashSet<i64> = FxHashSet::default();
        let mut new: FxHashSet<i64> = FxHashSet::default();
        for row in 0..mc.num_rows() {
            let movie = mc.column(0).raw(row) as usize;
            let company = mc.column(1).raw(row);
            match title.column(2).value(movie) {
                Some(y) if y < 1940 => {
                    old.insert(company);
                }
                Some(y) if y > 2005 => {
                    new.insert(company);
                }
                _ => {}
            }
        }
        assert!(!old.is_empty() && !new.is_empty());
        let inter = old.intersection(&new).count() as f64;
        let union = old.union(&new).count() as f64;
        let jaccard = inter / union;
        assert!(jaccard < 0.35, "era correlation too weak: jaccard {jaccard}");
    }

    #[test]
    fn rating_records_skew_recent() {
        let db = db();
        let title = db.table(TableId(0));
        let mix = db.table(TableId(4));
        let mut recent = 0u32;
        let mut old = 0u32;
        for row in 0..mix.num_rows() {
            let movie = mix.column(0).raw(row) as usize;
            match title.column(2).value(movie) {
                Some(y) if y >= 1990 => recent += 1,
                Some(y) if y < 1990 => old += 1,
                _ => {}
            }
        }
        assert!(
            recent as f64 > 1.3 * old as f64,
            "rating records should skew recent: {recent} vs {old}"
        );
    }

    #[test]
    fn key_domains_are_one_based_and_bounded() {
        let cfg = ImdbConfig::tiny();
        let db = generate(&cfg);
        let comp = db.column_stats(TableId(1), 1);
        assert!(comp.min >= 1 && comp.max <= cfg.num_companies as i64);
        let pers = db.column_stats(TableId(2), 1);
        assert!(pers.min >= 1 && pers.max <= cfg.num_persons as i64);
        let kw = db.column_stats(TableId(5), 1);
        assert!(kw.min >= 1 && kw.max <= cfg.num_keywords as i64);
        let kind = db.column_stats(TableId(0), 1);
        assert!(kind.min >= 1 && kind.max <= NUM_KINDS);
    }
}
