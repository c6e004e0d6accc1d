//! Inputs: seeded flights tables, reference summaries computed straight from
//! them, and the per-instance spill directory of the out-of-core workload.

use hillview_columnar::{Predicate, Table, Value};
use hillview_data::{generate_flights, FlightsConfig};
use hillview_sketch::count::{CountSketch, CountSummary};
use hillview_sketch::distinct::{DistinctSketch, DistinctSummary};
use hillview_sketch::range::{RangeSketch, RangeSummary};
use hillview_sketch::{Sketch, Summary, TableView};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Simulated servers.
pub const WORKERS: usize = 2;

/// Numeric columns whose exact range every dataset check compares.
pub const RANGE_COLUMNS: [&str; 2] = ["Distance", "DepDelay"];

/// Column whose distinct count O9 estimates.
pub const DISTINCT_COLUMN: &str = "FlightNum";

/// SplitMix64 finaliser: derives independent seeds from one.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate each worker's share of `rows` flights from `seed`.
pub fn generate(rows: usize, seed: u64) -> Vec<Table> {
    (0..WORKERS)
        .map(|w| generate_flights(&FlightsConfig::new(rows / WORKERS, mix(seed, w as u64))))
        .collect()
}

/// Exact, partition-invariant summaries of a dataset, computed from the
/// generated tables without the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Rows.
    pub rows: u64,
    /// Range of each of [`RANGE_COLUMNS`].
    pub ranges: Vec<RangeSummary>,
    /// HyperLogLog registers of [`DISTINCT_COLUMN`].
    pub distinct: DistinctSummary,
    /// Exact distinct count of [`DISTINCT_COLUMN`].
    pub distinct_exact: u64,
}

fn fold<S: Sketch>(sketch: &S, views: &[TableView], filter: Option<&Predicate>) -> S::Summary {
    views
        .iter()
        .map(|v| match filter {
            Some(p) => sketch.summarize_filtered(v, p, 0),
            None => sketch.summarize(v, 0),
        })
        .map(|s| s.expect("reference kernels run on generated flights"))
        .fold(sketch.identity(), |acc, s| acc.merge(&s))
}

impl Reference {
    /// Summaries of `tables`, optionally narrowed by `filter`.
    pub fn of(tables: &[Table], filter: Option<&Predicate>) -> Reference {
        let views: Vec<TableView> = tables
            .iter()
            .map(|t| TableView::full(Arc::new(t.clone())))
            .collect();
        let rows: CountSummary = fold(&CountSketch::rows(), &views, filter);
        let ranges = RANGE_COLUMNS
            .iter()
            .map(|c| fold(&RangeSketch::new(c), &views, filter))
            .collect();
        let distinct = fold(&DistinctSketch::new(DISTINCT_COLUMN), &views, filter);
        let mut exact = HashSet::new();
        for v in &views {
            let kept = match filter {
                Some(p) => hillview_sketch::filtered_view(v, p).expect("band predicate compiles"),
                None => v.clone(),
            };
            let col = kept
                .table()
                .column_by_name(DISTINCT_COLUMN)
                .expect("flights have FlightNum");
            for r in kept.iter_rows() {
                if let Value::Int(n) = col.value(r) {
                    exact.insert(n);
                }
            }
        }
        Reference {
            rows: rows.rows,
            ranges,
            distinct,
            distinct_exact: exact.len() as u64,
        }
    }
}

/// Share of rows the drill-down band selects.
const BAND_SHARE: f64 = 0.30;

/// The drill-down band: a `Distance` range `[lo, hi)` placed by `seed` and
/// holding as close to [`BAND_SHARE`] of the rows as ties allow, so every
/// seed drills into a child of about the same size.
pub fn distance_band(tables: &[Table], seed: u64) -> Predicate {
    let mut d: Vec<f64> = Vec::new();
    for t in tables {
        let col = t.column_by_name("Distance").expect("flights have Distance");
        d.extend((0..t.num_rows()).filter_map(|r| col.value(r).as_f64()));
    }
    d.sort_by(f64::total_cmp);
    let n = d.len();
    let target = (BAND_SHARE * n as f64) as usize;
    let u = (mix(seed, 0xBA4D) >> 11) as f64 / (1u64 << 53) as f64;
    let lo = d[((1.0 - BAND_SHARE) * u * n as f64) as usize];
    let first = d.partition_point(|x| *x < lo);
    let below = |hi: f64| d.partition_point(|x| *x < hi) - first;
    // `hi` at the target row excludes its ties; the next distinct value
    // includes them. Take whichever lands nearer the target.
    let hi = d[(first + target).min(n - 1)];
    let next = d[d.partition_point(|x| *x <= hi).min(n - 1)];
    let hi = if target.abs_diff(below(hi)) <= target.abs_diff(below(next)) || next == hi {
        hi
    } else {
        next
    };
    Predicate::range("Distance", lo, hi)
}

static INSTANCE: AtomicU64 = AtomicU64::new(0);

/// A directory unique to this process and instance, removed on drop
/// (including while a panic unwinds).
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `<base>/<pid>-<instance>`.
    pub fn new(base: &Path) -> std::io::Result<Self> {
        let n = INSTANCE.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("spill-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Succeeds only once the last instance is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_selects_about_thirty_percent() {
        let tables = generate(20_000, 7);
        let all = Reference::of(&tables, None);
        for seed in 0..8 {
            let band = Reference::of(&tables, Some(&distance_band(&tables, seed)));
            let share = band.rows as f64 / all.rows as f64;
            assert!((0.25..0.35).contains(&share), "seed {seed}: {share}");
        }
    }

    #[test]
    fn scratch_dirs_are_distinct_and_removed() {
        let base = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let a = ScratchDir::new(&base).unwrap();
        let b = ScratchDir::new(&base).unwrap();
        assert_ne!(a.path(), b.path());
        let pa = a.path().to_path_buf();
        drop(a);
        assert!(!pa.exists());
        drop(b);
        assert!(!base.exists());
    }
}
