//! Column statistics for the optimizer's cost model.
//!
//! Two tiers, mirroring what real systems keep:
//!
//! * **basic statistics** — row count, exact per-column distinct counts and null
//!   fractions, computed in one pass over the table. This is what the engine maintains
//!   automatically (and caches per table — see [`Table::stats`](crate::Table::stats));
//! * **analyzed statistics** — everything a sampled `ANALYZE` adds: per-column
//!   [equi-depth histograms](Histogram), most-common-value (MCV) lists and min/max,
//!   built from a reservoir sample drawn with the workspace's deterministic
//!   [`SmallRng`] (the build environment has no `rand` crate).
//!
//! The optimizer reads them off that per-table cache: with histograms available, range
//! predicates (`<`, `>`, `BETWEEN`) and skew-aware equality predicates get measured
//! selectivities instead of the magic constants the seed cost model used. The
//! [`q_error`] metric quantifies how much that helps: it is the factor by which an
//! estimate misses the observed actual, the standard cardinality-accuracy measure
//! (Moerkotte et al., "Preventing bad plans by bounding the impact of cardinality
//! estimation errors").

pub mod histogram;

pub use histogram::Histogram;

use decorr_common::{value::GroupKey, Row, Schema, SmallRng, Value};
use std::collections::{HashMap, HashSet};

/// The q-error of a cardinality (or cost) estimate: `max(est/actual, actual/est)`,
/// with both sides floored at 1.0 so empty results and sub-row estimates do not blow
/// the metric up. 1.0 is a perfect estimate; q-errors multiply along a plan, which is
/// why bounding them bounds plan quality.
pub fn q_error(estimate: f64, actual: f64) -> f64 {
    let est = if estimate.is_finite() {
        estimate.max(1.0)
    } else {
        f64::MAX
    };
    let act = if actual.is_finite() {
        actual.max(1.0)
    } else {
        f64::MAX
    };
    (est / act).max(act / est)
}

/// Reservoir size of a sampled `ANALYZE`: at most this many rows are sampled per table.
const SAMPLE_SIZE: usize = 8_192;
/// Upper bound on equi-depth histogram buckets per numeric column.
const HISTOGRAM_BUCKETS: usize = 32;
/// Most-common-value list length per column.
const MCV_COUNT: usize = 8;
/// Seed of the deterministic sampling RNG (stable plans across runs).
const SAMPLE_SEED: u64 = 0x5EED_57A7;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStatistics {
    /// Column name (unqualified).
    pub name: String,
    /// Exact distinct (non-NULL) value count, from the full-table pass.
    pub distinct_count: usize,
    /// Fraction of rows where the column is NULL.
    pub null_fraction: f64,
    /// Smallest sampled numeric value (`None` for non-numeric or all-NULL).
    pub min: Option<f64>,
    /// Largest sampled numeric value (`None` for non-numeric or all-NULL).
    pub max: Option<f64>,
    /// Most common sampled values with their frequency among *all* sampled rows
    /// (NULLs included in the denominator), descending. Empty without `ANALYZE`.
    pub mcvs: Vec<(Value, f64)>,
    /// Equi-depth histogram over the sampled non-NULL numeric values. `None` without
    /// `ANALYZE` or for non-numeric columns.
    pub histogram: Option<Histogram>,
}

impl ColumnStatistics {
    /// Selectivity of `column = value` using MCVs and the histogram when available;
    /// `None` when this column has no analyzed statistics usable for the value.
    pub fn equality_selectivity(&self, value: &Value) -> Option<f64> {
        if value.is_null() {
            // SQL equality with NULL never matches.
            return Some(0.0);
        }
        if let Some((_, freq)) = self
            .mcvs
            .iter()
            .find(|(mcv, _)| mcv.sql_eq(value) == Some(true))
        {
            return Some(*freq);
        }
        if self.mcvs.is_empty() && self.histogram.is_none() {
            return None; // not analyzed
        }
        // Not an MCV. For numeric values covered by the histogram, use the containing
        // bucket's fraction divided by its distinct count (bucket-local density) — in
        // particular this estimates ~0 for values outside the sampled [min, max]
        // domain, which the rest-mass model cannot.
        if let (Some(histogram), Ok(v)) = (self.histogram.as_ref(), value.as_float()) {
            return Some(histogram.selectivity_eq(v) * (1.0 - self.null_fraction));
        }
        // Non-numeric fallback: distribute the non-MCV mass uniformly over the
        // remaining distinct values (the classic MCV + equal-frequency-rest model).
        let mcv_mass: f64 = self.mcvs.iter().map(|(_, f)| f).sum();
        let rest_ndv = self.distinct_count.saturating_sub(self.mcvs.len()).max(1);
        let rest_mass = (1.0 - self.null_fraction - mcv_mass).max(0.0);
        Some(rest_mass / rest_ndv as f64)
    }

    /// Selectivity of a (half-)open numeric interval on this column, via the
    /// histogram. `None` when no histogram exists (not analyzed / non-numeric).
    pub fn range_selectivity(
        &self,
        lo: Option<(f64, bool)>,
        hi: Option<(f64, bool)>,
    ) -> Option<f64> {
        let histogram = self.histogram.as_ref()?;
        Some(histogram.selectivity_interval(lo, hi) * (1.0 - self.null_fraction))
    }
}

/// Full statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStatistics {
    /// Exact number of rows in the table when statistics were computed.
    pub row_count: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStatistics>,
    /// True when histograms/MCVs were built by a sampled `ANALYZE`.
    pub analyzed: bool,
    /// Rows the `ANALYZE` sample held (0 for basic statistics).
    pub sampled_rows: usize,
}

impl TableStatistics {
    /// Basic statistics: one full pass for row count, exact distinct counts and null
    /// fractions. No histograms or MCVs.
    ///
    /// `runs` are the table's rows in scan order, as the storage layer holds them: one
    /// slice per chunk. The statistics depend on the concatenation only, not on where
    /// the run boundaries fall.
    pub fn basic(schema: &Schema, runs: &[&[Row]]) -> TableStatistics {
        let ncols = schema.len();
        let row_count: usize = runs.iter().map(|run| run.len()).sum();
        let mut sets: Vec<HashSet<GroupKey>> = vec![HashSet::new(); ncols];
        let mut nulls = vec![0usize; ncols];
        for row in runs.iter().copied().flatten() {
            for (i, v) in row.values.iter().enumerate() {
                if v.is_null() {
                    nulls[i] += 1;
                } else {
                    sets[i].insert(v.group_key());
                }
            }
        }
        let columns = schema
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| ColumnStatistics {
                name: c.name.clone(),
                distinct_count: sets[i].len(),
                null_fraction: if row_count == 0 {
                    0.0
                } else {
                    nulls[i] as f64 / row_count as f64
                },
                min: None,
                max: None,
                mcvs: vec![],
                histogram: None,
            })
            .collect();
        TableStatistics {
            row_count,
            columns,
            analyzed: false,
            sampled_rows: 0,
        }
    }

    /// Analyzed statistics: [`basic`](TableStatistics::basic) plus per-column
    /// histograms, MCV lists and min/max built from a reservoir sample of at most 8 192
    /// rows (algorithm R over the deterministic [`SmallRng`]).
    pub fn analyzed(schema: &Schema, runs: &[&[Row]]) -> TableStatistics {
        TableStatistics::sampled(schema, runs, SAMPLE_SIZE)
    }

    /// [`analyzed`](TableStatistics::analyzed) over a reservoir of `sample_size` rows.
    fn sampled(schema: &Schema, runs: &[&[Row]], sample_size: usize) -> TableStatistics {
        let mut stats = TableStatistics::basic(schema, runs);
        let rows = runs.iter().copied().flatten();
        let sample = reservoir_sample(rows, sample_size, SAMPLE_SEED);
        stats.analyzed = true;
        stats.sampled_rows = sample.len();
        if sample.is_empty() {
            return stats;
        }
        for (i, col) in stats.columns.iter_mut().enumerate() {
            fill_sampled_column(col, &sample, i);
        }
        stats
    }

    /// Column statistics by (case-insensitive) name.
    pub fn column(&self, name: &str) -> Option<&ColumnStatistics> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Exact distinct count with the pessimistic all-distinct fallback for unknown
    /// columns (matching the seed cost model's behaviour).
    pub fn distinct_count(&self, column: &str) -> usize {
        self.column(column)
            .map(|c| c.distinct_count)
            .unwrap_or(self.row_count)
            .max(1)
    }

    /// Estimated selectivity of an equality predicate on `column` against an unknown
    /// value (1 / distinct count — the seed model).
    pub fn equality_selectivity(&self, column: &str) -> f64 {
        1.0 / self.distinct_count(column) as f64
    }

    /// Estimated selectivity of `column = value` for a *known* comparison value:
    /// MCV frequency or histogram-bucket estimate when analyzed, otherwise the
    /// 1 / distinct-count fallback.
    pub fn equality_selectivity_value(&self, column: &str, value: &Value) -> f64 {
        self.column(column)
            .and_then(|c| c.equality_selectivity(value))
            .unwrap_or_else(|| self.equality_selectivity(column))
    }

    /// Estimated selectivity of a numeric interval on `column` from its equi-depth
    /// histogram; `None` when the column has no histogram (not analyzed, or
    /// non-numeric) so the caller can fall back to its default constants.
    pub fn range_selectivity(
        &self,
        column: &str,
        lo: Option<(f64, bool)>,
        hi: Option<(f64, bool)>,
    ) -> Option<f64> {
        self.column(column)?.range_selectivity(lo, hi)
    }
}

/// Builds the sampled portion of one [`ColumnStatistics`] (MCVs, min/max, histogram)
/// from `sample`.
fn fill_sampled_column(col: &mut ColumnStatistics, sample: &[Row], i: usize) {
    // MCVs: count sampled occurrences per value (any type).
    let mut counts: HashMap<GroupKey, (Value, u64)> = HashMap::new();
    let mut numeric = Vec::with_capacity(sample.len());
    for row in sample {
        let v = row.get(i);
        if v.is_null() {
            continue;
        }
        counts
            .entry(v.group_key())
            .or_insert_with(|| (v.clone(), 0))
            .1 += 1;
        if let Ok(f) = v.as_float() {
            numeric.push(f);
        }
    }
    let mut by_count: Vec<(Value, u64)> = counts.into_values().collect();
    // Deterministic order: frequency descending, then value order.
    by_count.sort_by(|(va, ca), (vb, cb)| cb.cmp(ca).then_with(|| va.total_cmp(vb)));
    col.mcvs = by_count
        .iter()
        .take(MCV_COUNT)
        .filter(|(_, c)| *c >= 2) // singleton "common values" are noise
        .map(|(v, c)| (v.clone(), *c as f64 / sample.len() as f64))
        .collect();
    if !numeric.is_empty() {
        col.min = numeric.iter().copied().reduce(f64::min);
        col.max = numeric.iter().copied().reduce(f64::max);
        col.histogram = Histogram::equi_depth(numeric, HISTOGRAM_BUCKETS);
    }
}

/// Reservoir sampling (algorithm R): a uniform sample of `k` rows in one pass,
/// deterministic for a given seed. Returns clones of the sampled rows.
fn reservoir_sample<'a>(rows: impl Iterator<Item = &'a Row>, k: usize, seed: u64) -> Vec<Row> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut reservoir: Vec<Row> = Vec::new();
    for (i, row) in rows.enumerate() {
        if i < k {
            reservoir.push(row.clone());
            continue;
        }
        let j = rng.gen_range_usize(0, i + 1);
        if j < k {
            reservoir[j] = row.clone();
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("grp", DataType::Int),
            Column::new("name", DataType::Str),
        ])
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::str(format!("row{}", i % 3)),
                ])
            })
            .collect()
    }

    #[test]
    fn q_error_metric() {
        assert_eq!(q_error(100.0, 100.0), 1.0);
        assert_eq!(q_error(10.0, 100.0), 10.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        // Floored at one row on both sides: an estimate of 0.3 for 0 actual rows is
        // treated as 1-vs-1.
        assert_eq!(q_error(0.3, 0.0), 1.0);
        assert!(q_error(f64::INFINITY, 10.0).is_finite());
    }

    #[test]
    fn basic_statistics_match_seed_behaviour() {
        let rows = rows(100);
        let stats = TableStatistics::basic(&schema(), &[&rows]);
        assert_eq!(stats.row_count, 100);
        assert!(!stats.analyzed);
        assert_eq!(stats.distinct_count("k"), 100);
        assert_eq!(stats.distinct_count("grp"), 4);
        assert_eq!(stats.distinct_count("nosuch"), 100);
        assert!(stats.column("grp").unwrap().histogram.is_none());
        assert!((stats.equality_selectivity("grp") - 0.25).abs() < 1e-9);
        // Without ANALYZE there is no histogram to serve ranges from.
        assert!(stats
            .range_selectivity("k", None, Some((49.0, true)))
            .is_none());
    }

    #[test]
    fn analyzed_statistics_add_histograms_and_mcvs() {
        let rows = rows(1000);
        let stats = TableStatistics::analyzed(&schema(), &[&rows]);
        assert!(stats.analyzed);
        assert_eq!(stats.sampled_rows, 1000, "small tables sample everything");
        let k = stats.column("k").unwrap();
        let hist = k.histogram.as_ref().expect("numeric column histogram");
        assert_eq!(k.min, Some(0.0));
        assert_eq!(k.max, Some(999.0));
        // Range selectivity of k < 100 ≈ 10%.
        let sel = k.range_selectivity(None, Some((99.0, true))).unwrap();
        assert!((sel - 0.1).abs() < 0.05, "sel {sel} hist {hist:?}");
        // grp has 4 heavy values → all MCVs, each ≈ 25%.
        let grp = stats.column("grp").unwrap();
        assert_eq!(grp.mcvs.len(), 4);
        let eq = grp.equality_selectivity(&Value::Int(1)).unwrap();
        assert!((eq - 0.25).abs() < 0.05, "eq {eq}");
        // The table-level entry points the cost model calls resolve the column by name
        // and fall back to 1 / distinct-count for unknown values/columns.
        assert_eq!(stats.equality_selectivity_value("grp", &Value::Int(1)), eq);
        assert_eq!(
            stats.range_selectivity("k", None, Some((99.0, true))),
            Some(sel)
        );
        assert!(stats.equality_selectivity_value("nosuch", &Value::Int(1)) > 0.0);
        // Strings get MCVs but no histogram.
        let name = stats.column("name").unwrap();
        assert!(name.histogram.is_none());
        assert!(!name.mcvs.is_empty());
    }

    #[test]
    fn equality_falls_back_to_rest_mass_for_non_mcvs() {
        // A heavy hitter plus a uniform tail: the tail values' estimated selectivity
        // comes from the non-MCV mass spread over the remaining distinct count.
        let schema = Schema::new(vec![Column::new("v", DataType::Int)]);
        let mut data: Vec<Row> = vec![Row::new(vec![Value::Int(7)]); 500];
        data.extend((0..500).map(|i| Row::new(vec![Value::Int(1000 + i)])));
        let stats = TableStatistics::analyzed(&schema, &[&data]);
        let v = stats.column("v").unwrap();
        let heavy = v.equality_selectivity(&Value::Int(7)).unwrap();
        assert!((heavy - 0.5).abs() < 0.05, "heavy {heavy}");
        let tail = v.equality_selectivity(&Value::Int(1001)).unwrap();
        assert!(tail < 0.01, "tail {tail}");
        assert_eq!(v.equality_selectivity(&Value::Null), Some(0.0));
        // Values outside the sampled domain estimate ~0 (the rest-mass model can't).
        let outside = v.equality_selectivity(&Value::Int(9_999_999)).unwrap();
        assert_eq!(outside, 0.0, "out-of-domain equality must estimate zero");
    }

    #[test]
    fn null_fractions_scale_selectivities() {
        let schema = Schema::new(vec![Column::new("v", DataType::Int)]);
        let mut data: Vec<Row> = (0..500).map(|i| Row::new(vec![Value::Int(i)])).collect();
        data.extend((0..500).map(|_| Row::new(vec![Value::Null])));
        let stats = TableStatistics::analyzed(&schema, &[&data]);
        let v = stats.column("v").unwrap();
        assert!((v.null_fraction - 0.5).abs() < 1e-9);
        assert_eq!(
            stats.distinct_count("v"),
            500,
            "NULLs are not a distinct value"
        );
        // The whole non-null domain is half the rows.
        let all = v.range_selectivity(None, None).unwrap();
        assert!((all - 0.5).abs() < 0.01, "all {all}");
    }

    #[test]
    fn reservoir_sampling_is_deterministic_and_uniformish() {
        let rows: Vec<Row> = (0..10_000).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let a = reservoir_sample(rows.iter(), 1000, 42);
        let b = reservoir_sample(rows.iter(), 1000, 42);
        assert_eq!(a, b, "same seed, same sample");
        assert_eq!(a.len(), 1000);
        // A uniform sample's mean index should be near the middle.
        let mean: f64 =
            a.iter().map(|r| r.get(0).as_float().unwrap()).sum::<f64>() / a.len() as f64;
        assert!((mean - 5000.0).abs() < 600.0, "mean {mean}");
    }

    #[test]
    fn empty_table_statistics_are_sane() {
        let stats = TableStatistics::analyzed(&schema(), &[]);
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.distinct_count("k"), 1);
        assert!(stats.column("k").unwrap().histogram.is_none());
    }

    #[test]
    fn statistics_depend_on_the_rows_not_on_where_the_runs_split() {
        let rows = rows(1000);
        let schema = schema();
        let whole: Vec<&[Row]> = vec![&rows];
        let mut split: Vec<&[Row]> = rows.chunks(250).collect();
        split.insert(2, &[]);
        assert_eq!(
            TableStatistics::basic(&schema, &split),
            TableStatistics::basic(&schema, &whole)
        );
        // Under the reservoir cap (every row sampled) and over it (the sampler's draws
        // follow the row sequence, not the runs).
        for sample_size in [SAMPLE_SIZE, 100] {
            let direct = TableStatistics::sampled(&schema, &whole, sample_size);
            assert_eq!(direct.sampled_rows, sample_size.min(1000));
            assert_eq!(
                direct.distinct_count("k"),
                1000,
                "distinct counts are exact"
            );
            assert_eq!(
                TableStatistics::sampled(&schema, &split, sample_size),
                direct
            );
        }
    }
}
