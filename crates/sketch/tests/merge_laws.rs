//! Property tests for the sketch merge laws (paper §4.1).
//!
//! For every summary type: merge is commutative, associative, and has the
//! sketch identity as unit; and for exact (non-sampled) sketches,
//! `summarize(D1 ⊎ D2) = merge(summarize(D1), summarize(D2))` over random
//! data and random partition splits.

use hillview_columnar::column::{Column, DictColumn, F64Column};
use hillview_columnar::{ColumnKind, MembershipSet, SortOrder, StrMatchKind, Table};
use hillview_sketch::bottomk::BottomKSketch;
use hillview_sketch::buckets::BucketSpec;
use hillview_sketch::count::CountSketch;
use hillview_sketch::distinct::DistinctSketch;
use hillview_sketch::find::FindSketch;
use hillview_sketch::heatmap::HeatmapSketch;
use hillview_sketch::heavy::{MisraGriesSketch, SampledHeavyHittersSketch};
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::nextk::NextKSketch;
use hillview_sketch::pca::PcaSketch;
use hillview_sketch::quantile::QuantileSketch;
use hillview_sketch::range::RangeSketch;
use hillview_sketch::stacked::StackedHistogramSketch;
use hillview_sketch::traits::{Sketch, Summary};
use hillview_sketch::TableView;
use proptest::prelude::*;
use std::sync::Arc;

/// Relative-tolerance comparison for merged f64 accumulators: partitioning
/// regroups the additions, so sums agree to rounding, not bit-for-bit.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Random table: numeric column X in [0, 100) with nulls, category column C.
fn table_strategy() -> impl Strategy<Value = Table> {
    let rows = proptest::collection::vec(
        (
            proptest::option::weighted(0.9, 0.0f64..100.0),
            0usize..5usize,
        ),
        1..200,
    );
    rows.prop_map(|rows| {
        let cats = ["aa", "bb", "cc", "dd", "ee"];
        Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(rows.iter().map(|(x, _)| *x))),
            )
            .column(
                "C",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(
                    rows.iter().map(|(_, c)| Some(cats[*c])),
                )),
            )
            .build()
            .unwrap()
    })
}

/// Split `n` rows into three disjoint views by `split` percentages.
fn three_way_split(table: Arc<Table>, cut1: usize, cut2: usize) -> Vec<TableView> {
    let n = table.num_rows();
    let c1 = (cut1 % (n + 1)).min(n);
    let c2 = c1 + (cut2 % (n - c1 + 1));
    [(0..c1), (c1..c2), (c2..n)]
        .into_iter()
        .map(|r| {
            TableView::with_members(
                table.clone(),
                Arc::new(MembershipSet::from_rows(r.map(|i| i as u32).collect(), n)),
            )
        })
        .collect()
}

/// Assert the full merge-law battery for an exact sketch, returning the
/// error string on failure so proptest can shrink.
fn check_exact_sketch<S>(
    sketch: &S,
    table: Arc<Table>,
    cut1: usize,
    cut2: usize,
) -> Result<(), TestCaseError>
where
    S: Sketch,
    S::Summary: PartialEq + std::fmt::Debug,
{
    let whole = TableView::full(table.clone());
    let parts = three_way_split(table, cut1, cut2);
    let direct = sketch.summarize(&whole, 7).unwrap();
    let s: Vec<_> = parts
        .iter()
        .map(|p| sketch.summarize(p, 7).unwrap())
        .collect();
    // Mergeability.
    let merged = s[0].merge(&s[1]).merge(&s[2]);
    prop_assert_eq!(&merged, &direct, "summarize(⊎) == fold(merge)");
    // Commutativity & associativity.
    let ab_c = s[0].merge(&s[1]).merge(&s[2]);
    let a_bc = s[0].merge(&s[1].merge(&s[2]));
    prop_assert_eq!(&ab_c, &a_bc, "associative");
    let ba = s[1].merge(&s[0]);
    let ab = s[0].merge(&s[1]);
    prop_assert_eq!(&ba, &ab, "commutative");
    // Identity.
    let with_id = direct.merge(&sketch.identity());
    prop_assert_eq!(&with_id, &direct, "identity is unit");
    // Split law: recursive range-split execution (the engine's parallel
    // leaf plan, run serially) reproduces the whole-partition summary
    // bit-for-bit for exact sketches.
    let grain = (cut1 % 64) + 1;
    prop_assert!(
        hillview_sketch::traits::split_law_holds(sketch, &whole, grain, 7),
        "split law at grain {}",
        grain
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        check_exact_sketch(&CountSketch::of_column("X"), Arc::new(t), c1, c2)?;
    }

    #[test]
    fn range_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        check_exact_sketch(&RangeSketch::new("X"), Arc::new(t), c1, c2)?;
    }

    #[test]
    fn histogram_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 13));
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn string_histogram_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = HistogramSketch::streaming(
            "C",
            BucketSpec::strings(vec!["aa".into(), "cc".into()]),
        );
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn heatmap_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = HeatmapSketch::streaming(
            "X",
            "C",
            BucketSpec::numeric(0.0, 100.0, 5),
            BucketSpec::strings(vec!["aa".into(), "cc".into(), "ee".into()]),
        );
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn stacked_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = StackedHistogramSketch::streaming(
            "X",
            "C",
            BucketSpec::numeric(0.0, 100.0, 4),
            BucketSpec::strings(vec!["aa".into(), "bb".into(), "cc".into()]),
        );
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn hll_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        check_exact_sketch(&DistinctSketch::new("C"), Arc::new(t), c1, c2)?;
    }

    /// With and without a start key: the start is some row's own key (or
    /// none), so the page begins strictly after a value present in the data.
    #[test]
    fn nextk_merge_laws(
        t in table_strategy(),
        c1 in 0usize..200,
        c2 in 0usize..200,
        start_row in (any::<bool>(), any::<usize>()),
    ) {
        let order = SortOrder::ascending(&["C", "X"]);
        let sk = match start_row {
            (false, _) => NextKSketch::first_page(order, 7),
            (true, r) => {
                let key = order.resolve(&t).unwrap().key(&t, r % t.num_rows());
                NextKSketch::after(order, key, 7)
            }
        };
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    #[test]
    fn bottomk_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        check_exact_sketch(&BottomKSketch::new("C", 8), Arc::new(t), c1, c2)?;
    }

    #[test]
    fn find_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let sk = FindSketch::new(
            "C",
            "a",
            StrMatchKind::Substring,
            SortOrder::ascending(&["C", "X"]),
        );
        check_exact_sketch(&sk, Arc::new(t), c1, c2)?;
    }

    /// At rate 1.0 the sampled heavy-hitters sketch counts every row exactly
    /// and keeps all distinct values; both `summarize` and `merge` finish
    /// with the same (count desc, value asc) sort, so the summary is
    /// partition-invariant and the full exact battery applies.
    #[test]
    fn sampled_heavy_hitters_merge_laws(
        t in table_strategy(),
        c1 in 0usize..200,
        c2 in 0usize..200,
    ) {
        check_exact_sketch(&SampledHeavyHittersSketch::new("C", 4, 1.0), Arc::new(t), c1, c2)?;
    }

    /// Moments power sums are f64 additions regrouped by the partitioning:
    /// counts and extrema merge exactly, the sums to rounding. Commutativity
    /// and the identity unit stay bitwise (IEEE `a+b == b+a`, and the power
    /// sums of X ∈ [0, 100) are non-negative so `x + 0.0 == x`).
    #[test]
    fn moments_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let table = Arc::new(t);
        let sk = MomentsSketch::new("X", 4);
        let whole = TableView::full(table.clone());
        let parts = three_way_split(table, c1, c2);
        let direct = sk.summarize(&whole, 7).unwrap();
        let s: Vec<_> = parts.iter().map(|p| sk.summarize(p, 7).unwrap()).collect();
        let merged = s[0].merge(&s[1]).merge(&s[2]);
        prop_assert_eq!(merged.present, direct.present);
        prop_assert_eq!(merged.missing, direct.missing);
        prop_assert_eq!(merged.min, direct.min);
        prop_assert_eq!(merged.max, direct.max);
        for (m, d) in merged.sums.iter().zip(&direct.sums) {
            prop_assert!(close(*m, *d), "power sum {} vs {}", m, d);
        }
        let a_bc = s[0].merge(&s[1].merge(&s[2]));
        prop_assert_eq!(a_bc.present, merged.present);
        for (g, m) in a_bc.sums.iter().zip(&merged.sums) {
            prop_assert!(close(*g, *m), "regrouped power sum {} vs {}", g, m);
        }
        prop_assert_eq!(s[1].merge(&s[0]), s[0].merge(&s[1]), "commutative");
        prop_assert_eq!(direct.merge(&sk.identity()), direct, "identity is unit");
    }

    /// Complete-case PCA accumulators behave like the moments sums: exact
    /// counts, rounding-level Σx / Σxᵢxⱼ under regrouped partition merges.
    #[test]
    fn pca_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let table = Arc::new(t);
        let sk = PcaSketch::new(&["X"], 1.0);
        let whole = TableView::full(table.clone());
        let parts = three_way_split(table, c1, c2);
        let direct = sk.summarize(&whole, 7).unwrap();
        let s: Vec<_> = parts.iter().map(|p| sk.summarize(p, 7).unwrap()).collect();
        let merged = s[0].merge(&s[1]).merge(&s[2]);
        prop_assert_eq!(merged.m, direct.m);
        prop_assert_eq!(merged.count, direct.count);
        for (m, d) in merged.sums.iter().zip(&direct.sums) {
            prop_assert!(close(*m, *d), "column sum {} vs {}", m, d);
        }
        for (m, d) in merged.prods.iter().zip(&direct.prods) {
            prop_assert!(close(*m, *d), "co-moment {} vs {}", m, d);
        }
        prop_assert_eq!(s[1].merge(&s[0]), s[0].merge(&s[1]), "commutative");
        prop_assert_eq!(direct.merge(&sk.identity()), direct, "identity is unit");
    }

    /// At rate 1.0 with the cap above any generated table, the quantile
    /// sample is the whole population and merging only concatenates — so the
    /// merged key *multiset* must equal the direct one under any partition
    /// split, grouping, or operand order, even though the raw key order is
    /// concatenation-dependent.
    #[test]
    fn quantile_merge_laws(t in table_strategy(), c1 in 0usize..200, c2 in 0usize..200) {
        let table = Arc::new(t);
        let sk = QuantileSketch::new(SortOrder::ascending(&["C", "X"]), 1.0, 100_000);
        let whole = TableView::full(table.clone());
        let parts = three_way_split(table, c1, c2);
        let direct = sk.summarize(&whole, 7).unwrap();
        let s: Vec<_> = parts.iter().map(|p| sk.summarize(p, 7).unwrap()).collect();
        let sorted_keys = |sm: &hillview_sketch::quantile::QuantileSummary| {
            let mut keys = sm.keys();
            keys.sort();
            keys
        };
        let merged = s[0].merge(&s[1]).merge(&s[2]);
        prop_assert_eq!(merged.population, direct.population);
        prop_assert_eq!(merged.cap, direct.cap);
        prop_assert_eq!(sorted_keys(&merged), sorted_keys(&direct), "key multiset");
        let a_bc = s[0].merge(&s[1].merge(&s[2]));
        prop_assert_eq!(a_bc.population, merged.population);
        prop_assert_eq!(sorted_keys(&a_bc), sorted_keys(&merged), "associative up to order");
        let ba = s[1].merge(&s[0]);
        let ab = s[0].merge(&s[1]);
        prop_assert_eq!(ba.population, ab.population);
        prop_assert_eq!(sorted_keys(&ba), sorted_keys(&ab), "commutative up to order");
        let with_id = direct.merge(&sk.identity());
        prop_assert_eq!(with_id.population, direct.population);
        prop_assert_eq!(sorted_keys(&with_id), sorted_keys(&direct), "identity is unit");
    }

    /// Misra-Gries is not exactly partition-invariant (the summary depends on
    /// arrival order), but the heavy-hitter *guarantee* must survive merging:
    /// any item with true frequency > total/k appears in the merged counters.
    #[test]
    fn misra_gries_guarantee_survives_merge(
        t in table_strategy(),
        c1 in 0usize..200,
        c2 in 0usize..200,
    ) {
        let table = Arc::new(t);
        let k = 3usize;
        let sk = MisraGriesSketch::new("C", k);
        let parts = three_way_split(table.clone(), c1, c2);
        let merged = parts
            .iter()
            .map(|p| sk.summarize(p, 0).unwrap())
            .fold(sk.identity(), |acc, s| acc.merge(&s));
        // Exact counts for comparison.
        let col = table.column_by_name("C").unwrap();
        let mut exact = std::collections::HashMap::new();
        for i in 0..table.num_rows() {
            *exact.entry(col.value(i).to_string()).or_insert(0u64) += 1;
        }
        let total = table.num_rows() as u64;
        for (v, count) in exact {
            if count > total / k as u64 {
                let found = merged
                    .counters
                    .iter()
                    .any(|(val, _)| val.to_string() == v);
                prop_assert!(found, "heavy item {} (count {}) missing", v, count);
            }
        }
    }

    /// Flipping any bit of a quantile encoding gives a structured error or a
    /// summary that survives its own round trip — never a panic.
    #[test]
    fn quantile_bit_flips_decode_structurally(t in table_strategy(), flip in any::<usize>()) {
        use hillview_net::Wire;
        use hillview_sketch::quantile::QuantileSummary;
        let v = TableView::full(Arc::new(t));
        let q = QuantileSketch::new(SortOrder::with_directions(&[("C", true), ("X", false)]), 1.0, 32)
            .summarize(&v, 0)
            .unwrap();
        let mut bytes = q.to_bytes().to_vec();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) = QuantileSummary::from_bytes(bytes.into()) {
            prop_assert_eq!(QuantileSummary::from_bytes(decoded.to_bytes()).unwrap(), decoded);
        }
    }

    /// Wire round-trips on randomly generated summaries.
    #[test]
    fn summaries_roundtrip_wire(t in table_strategy()) {
        use hillview_net::Wire;
        let v = TableView::full(Arc::new(t));
        let h = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 9))
            .summarize(&v, 0)
            .unwrap();
        prop_assert_eq!(
            hillview_sketch::histogram::HistogramSummary::from_bytes(h.to_bytes()).unwrap(),
            h
        );
        let n = NextKSketch::first_page(SortOrder::ascending(&["X"]), 5)
            .summarize(&v, 0)
            .unwrap();
        prop_assert_eq!(
            hillview_sketch::nextk::NextKSummary::from_bytes(n.to_bytes()).unwrap(),
            n
        );
    }
}
