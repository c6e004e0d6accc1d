//! Scan-equivalence property tests: every chunked kernel must produce
//! **bit-identical** summaries to its per-row reference implementation,
//! across random tables, membership representations (full / dense / sparse /
//! contiguous-range / empty), null densities from 0% to ~100%, and sampling
//! rates. This is the contract that lets the chunked scan layer replace the
//! per-row path wholesale.

use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
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
use hillview_sketch::stacked::StackedHistogramSketch;
use hillview_sketch::traits::Sketch;
use hillview_sketch::{Scope, TableView};
use proptest::prelude::*;
use std::sync::Arc;

const CATS: [&str; 6] = ["aa", "bb", "cc", "dd", "ee", "ff"];

/// Random mixed-type table. `null_p` drives the Double column's null
/// density anywhere from 0% to ~100%; the Int and Category columns carry
/// their own sparser null flags.
fn table_strategy() -> impl Strategy<Value = Table> {
    (
        0.0f64..1.1, // > 1.0 ⇒ fully-null Double column sometimes
        proptest::collection::vec(
            (
                (0.0f64..1.0, -50.0f64..150.0),
                (0.0f64..1.0, -100i64..100),
                (0.0f64..1.0, 0usize..6),
            ),
            1..300,
        ),
    )
        .prop_map(|(null_p, rows)| {
            Table::builder()
                .column(
                    "X",
                    ColumnKind::Double,
                    Column::Double(F64Column::from_options(
                        rows.iter().map(|r| (r.0 .0 >= null_p).then_some(r.0 .1)),
                    )),
                )
                .column(
                    "I",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        rows.iter().map(|r| (r.1 .0 >= 0.15).then_some(r.1 .1)),
                    )),
                )
                .column(
                    "C",
                    ColumnKind::Category,
                    Column::Cat(DictColumn::from_strings(
                        rows.iter().map(|r| (r.2 .0 >= 0.1).then(|| CATS[r.2 .1])),
                    )),
                )
                .build()
                .unwrap()
        })
}

/// Build a membership set of the requested shape over `n` rows. Covers
/// every representation the chunk iterator decomposes differently.
fn membership(kind: usize, raw: &[u32], cuts: (f64, f64), n: usize) -> MembershipSet {
    match kind {
        0 => MembershipSet::full(n),
        1 => MembershipSet::from_rows(Vec::new(), n),
        // Sparse-ish: arbitrary rows (representation picked by selectivity).
        2 => MembershipSet::from_rows(raw.iter().map(|r| r % n as u32).collect(), n),
        // Dense: ~70% of rows, which lands above the sparse threshold.
        3 => MembershipSet::from_rows(
            (0..n as u32)
                .filter(|r| r % 10 != 3 && r % 7 != 1)
                .collect(),
            n,
        ),
        // Contiguous range: exercises all-ones word coalescing.
        _ => {
            let a = ((cuts.0 * n as f64) as usize).min(n);
            let b = ((cuts.1 * n as f64) as usize).min(n);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            MembershipSet::from_rows((lo as u32..hi as u32).collect(), n)
        }
    }
}

fn num_spec() -> BucketSpec {
    BucketSpec::numeric(-50.0, 150.0, 17)
}

fn str_spec() -> BucketSpec {
    BucketSpec::strings(vec!["aa".into(), "cc".into(), "ee".into()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_numeric_streaming_matches_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        for col in ["X", "I"] {
            let sk = HistogramSketch::streaming(col, num_spec());
            prop_assert_eq!(
                sk.summarize(&v, 0).unwrap(),
                sk.summarize_rowwise(&v, 0).unwrap()
            );
        }
    }

    #[test]
    fn histogram_sampled_matches_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        rate in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let sk = HistogramSketch::sampled("X", num_spec(), rate);
        prop_assert_eq!(
            sk.summarize(&v, seed).unwrap(),
            sk.summarize_rowwise(&v, seed).unwrap()
        );
    }

    #[test]
    fn histogram_string_matches_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let sk = HistogramSketch::streaming("C", str_spec());
        prop_assert_eq!(
            sk.summarize(&v, 0).unwrap(),
            sk.summarize_rowwise(&v, 0).unwrap()
        );
    }

    #[test]
    fn heatmap_matches_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        rate in 0.3f64..1.2, // crosses the streaming/sampled boundary
        seed in any::<u64>(),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let sk = HeatmapSketch::sampled("X", "C", num_spec(), str_spec(), rate);
        prop_assert_eq!(
            sk.summarize(&v, seed).unwrap(),
            sk.summarize_rowwise(&v, seed).unwrap()
        );
    }

    #[test]
    fn stacked_matches_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let sk = StackedHistogramSketch::streaming("I", "C", num_spec(), str_spec());
        prop_assert_eq!(
            sk.summarize(&v, 0).unwrap(),
            sk.summarize_rowwise(&v, 0).unwrap()
        );
    }

    /// Moments must match *bit for bit*: the chunked scan visits rows in
    /// the same order, so even floating-point power sums are identical.
    #[test]
    fn moments_match_reference_bitwise(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        for col in ["X", "I"] {
            let sk = MomentsSketch::new(col, 4);
            let chunked = sk.summarize(&v, 0).unwrap();
            let rowwise = sk.summarize_rowwise(&v, 0).unwrap();
            prop_assert_eq!(chunked.present, rowwise.present);
            prop_assert_eq!(chunked.missing, rowwise.missing);
            prop_assert_eq!(chunked.min, rowwise.min);
            prop_assert_eq!(chunked.max, rowwise.max);
            for (c, r) in chunked.sums.iter().zip(&rowwise.sums) {
                prop_assert!(
                    c.to_bits() == r.to_bits(),
                    "power sums differ bitwise: {c} vs {r}"
                );
            }
        }
    }

    #[test]
    fn bottomk_matches_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let sk = BottomKSketch::new("C", 8);
        prop_assert_eq!(
            sk.summarize(&v, 0).unwrap(),
            sk.summarize_rowwise(&v, 0).unwrap()
        );
    }

    /// The in-place comparator against the materialized-key reference:
    /// random per-column directions over Category, Int and the nullable
    /// Double column, starting after a member row's key or at the top.
    #[test]
    fn nextk_matches_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        k in 1usize..8,
        dirs in (any::<bool>(), any::<bool>(), any::<bool>()),
        start_pick in (any::<bool>(), any::<usize>()),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let order = SortOrder::with_directions(&[("C", dirs.0), ("X", dirs.1), ("I", dirs.2)]);
        let members: Vec<usize> = v.iter_rows().collect();
        let start = match start_pick {
            (true, i) if !members.is_empty() => {
                let row = members[i % members.len()];
                Some(order.resolve(v.table()).unwrap().key(v.table(), row))
            }
            _ => None,
        };
        let sk = match start {
            None => NextKSketch::first_page(order, k),
            Some(key) => NextKSketch::after(order, key, k),
        }
        .with_display(&["X"]);
        prop_assert_eq!(
            sk.summarize(&v, 0).unwrap(),
            sk.summarize_rowwise(&v, 0).unwrap()
        );
    }

    /// Misra-Gries is order-sensitive; chunked enumeration preserves row
    /// order, so the counter sets must agree exactly — including on the
    /// dictionary fast path.
    #[test]
    fn misra_gries_matches_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        k in 1usize..6,
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        for col in ["C", "I"] {
            let sk = MisraGriesSketch::new(col, k);
            prop_assert_eq!(
                sk.summarize(&v, 0).unwrap(),
                sk.summarize_rowwise(&v, 0).unwrap()
            );
        }
    }

    #[test]
    fn sampled_heavy_hitters_match_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        rate in 0.05f64..1.2,
        seed in any::<u64>(),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        for col in ["C", "X"] {
            let sk = SampledHeavyHittersSketch::new(col, 4, rate);
            prop_assert_eq!(
                sk.summarize(&v, seed).unwrap(),
                sk.summarize_rowwise(&v, seed).unwrap()
            );
        }
    }

    /// Count's word-popcount missing tally vs a naive per-row filter.
    #[test]
    fn count_matches_naive(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let n = t.num_rows();
        let table = Arc::new(t);
        let v = TableView::with_members(table.clone(), Arc::new(membership(kind, &raw, cuts, n)));
        for col_name in ["X", "I", "C"] {
            let s = CountSketch::of_column(col_name).summarize(&v, 0).unwrap();
            let col = table.column_by_name(col_name).unwrap();
            let naive = v.iter_rows().filter(|&r| col.is_null(r)).count() as u64;
            prop_assert_eq!(s.missing, naive, "column {}", col_name);
            prop_assert_eq!(s.rows, v.len() as u64);
        }
    }

    /// HLL registers: the chunked dictionary fast path and the chunked
    /// generic path must build the identical register array.
    #[test]
    fn distinct_matches_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        for col in ["X", "I", "C"] {
            let sk = DistinctSketch::new(col);
            prop_assert_eq!(
                sk.summarize(&v, 0).unwrap(),
                sk.summarize_rowwise(&v, 0).unwrap(),
                "column {}", col
            );
        }
    }

    /// Find-text: chunked row enumeration preserves the scan order the
    /// first-match and count logic depend on.
    #[test]
    fn find_matches_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        query in "[a-f]{1,2}",
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let sk = FindSketch::new(
            "C",
            &query,
            StrMatchKind::Substring,
            SortOrder::ascending(&["I", "X"]),
        );
        prop_assert_eq!(
            sk.summarize(&v, 0).unwrap(),
            sk.summarize_rowwise(&v, 0).unwrap()
        );
    }

    /// PCA accumulates floating-point sums in row order, so the chunked
    /// path must match *bit for bit*, streaming and sampled.
    #[test]
    fn pca_matches_reference_bitwise(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        rate in 0.3f64..1.2, // crosses the streaming/sampled boundary
        seed in any::<u64>(),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let sk = PcaSketch::new(&["X", "I"], rate);
        let chunked = sk.summarize(&v, seed).unwrap();
        let rowwise = sk.summarize_rowwise(&v, seed).unwrap();
        prop_assert_eq!(chunked.count, rowwise.count);
        for (c, r) in chunked.sums.iter().zip(&rowwise.sums) {
            prop_assert!(c.to_bits() == r.to_bits(), "sums differ bitwise: {} vs {}", c, r);
        }
        for (c, r) in chunked.prods.iter().zip(&rowwise.prods) {
            prop_assert!(c.to_bits() == r.to_bits(), "prods differ bitwise: {} vs {}", c, r);
        }
    }

    /// The same kernel over the same logical data must produce identical
    /// results whichever physical encoding backs the integer column — the
    /// chunk decoder is invisible to kernels.
    #[test]
    fn kernels_agree_across_encodings(
        vals in proptest::collection::vec((0.0f64..1.0, -40i64..40), 1..300),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        use hillview_columnar::{I64Storage, NullMask};
        let n = vals.len();
        let data: Vec<i64> = vals.iter().map(|r| r.1).collect();
        let nulls = NullMask::from_flags(vals.iter().map(|r| r.0 < 0.15), n);
        let mut columns: Vec<I64Column> = vec![
            I64Column::plain(data.clone(), nulls.clone()),
        ];
        if let Some(s) = I64Storage::bit_packed_of(&data) {
            columns.push(I64Column::with_storage(s, nulls.clone()));
        }
        if let Some(s) = I64Storage::run_length_of(&data) {
            columns.push(I64Column::with_storage(s, nulls.clone()));
        }
        // Delta needs ascending data: a sorted copy of the same values,
        // compared between plain and delta storage.
        let mut ascending = data.clone();
        ascending.sort_unstable();
        let mut delta_columns: Vec<I64Column> =
            vec![I64Column::plain(ascending.clone(), nulls.clone())];
        if let Some(s) = I64Storage::delta_of(&ascending) {
            delta_columns.push(I64Column::with_storage(s, nulls.clone()));
        }
        let members = Arc::new(membership(kind, &raw, cuts, n));
        let hist = HistogramSketch::streaming("V", num_spec());
        let moments = MomentsSketch::new("V", 3);
        for group in [columns, delta_columns] {
            let mut results = Vec::new();
            for col in group {
                let t = Table::builder()
                    .column("V", ColumnKind::Int, Column::Int(col))
                    .build()
                    .unwrap();
                let v = TableView::with_members(Arc::new(t), members.clone());
                let h = hist.summarize(&v, 0).unwrap();
                let m = moments.summarize(&v, 0).unwrap();
                results.push((h, m.present, m.missing, m.min, m.max,
                    m.sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>()));
            }
            for r in &results[1..] {
                prop_assert_eq!(r, &results[0]);
            }
        }
    }

    /// Work-stealing split execution must be bit-identical to the serial
    /// per-partition summary for every kernel with an exact merge:
    /// recursively split at any grain, summarize each sub-range, fold in
    /// range order — same bytes as one unsplit pass. Covers split grain ×
    /// membership representations × null densities; sampled variants pin
    /// that partition-wide samples are clipped (not re-drawn) per range.
    #[test]
    fn split_execution_bit_identical_for_exact_kernels(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        grain in 1usize..96,
        rate in 0.2f64..1.2,
        seed in any::<u64>(),
    ) {
        use hillview_sketch::traits::split_law_holds;
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        prop_assert!(split_law_holds(
            &HistogramSketch::streaming("X", num_spec()), &v, grain, seed));
        prop_assert!(split_law_holds(
            &HistogramSketch::sampled("X", num_spec(), rate.min(0.95)), &v, grain, seed));
        prop_assert!(split_law_holds(
            &HistogramSketch::streaming("C", str_spec()), &v, grain, seed));
        prop_assert!(split_law_holds(
            &HeatmapSketch::sampled("X", "C", num_spec(), str_spec(), rate), &v, grain, seed));
        prop_assert!(split_law_holds(
            &StackedHistogramSketch::streaming("I", "C", num_spec(), str_spec()), &v, grain, seed));
        prop_assert!(split_law_holds(&CountSketch::of_column("X"), &v, grain, seed));
        prop_assert!(split_law_holds(&CountSketch::rows(), &v, grain, seed));
        prop_assert!(split_law_holds(&BottomKSketch::new("C", 8), &v, grain, seed));
        prop_assert!(split_law_holds(&DistinctSketch::new("I"), &v, grain, seed));
        prop_assert!(split_law_holds(
            &SampledHeavyHittersSketch::new("C", 4, rate), &v, grain, seed));
        prop_assert!(split_law_holds(
            &NextKSketch::first_page(SortOrder::ascending(&["C", "I"]), 5).with_display(&["X"]),
            &v, grain, seed));
        prop_assert!(split_law_holds(
            &FindSketch::new("C", "a", StrMatchKind::Substring, SortOrder::ascending(&["I", "X"])),
            &v, grain, seed));
        prop_assert!(split_law_holds(
            &hillview_sketch::range::RangeSketch::new("X"), &v, grain, seed));
        // Quantile below its cap is a pure concatenation in range order.
        prop_assert!(split_law_holds(
            &QuantileSketch::new(SortOrder::ascending(&["I", "X"]), 1.0, 100_000),
            &v, grain, seed));
    }

    /// Order-sensitive and floating-point kernels (Misra-Gries, moments,
    /// PCA): split execution is a *deterministic* function of (data,
    /// grain, seed) — the engine folds sub-ranges in range order — and at
    /// grain >= partition size it degenerates to exactly the serial
    /// summary. Aggregate invariants (totals, counts, min/max) match the
    /// serial pass at every grain.
    #[test]
    fn split_execution_deterministic_for_order_sensitive_kernels(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        grain in 1usize..96,
        k in 1usize..6,
    ) {
        use hillview_sketch::traits::summarize_split;
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));

        let mg = MisraGriesSketch::new("C", k);
        let serial = mg.summarize(&v, 0).unwrap();
        let split = summarize_split(&mg, &v, &Scope::default(), grain, 0).unwrap();
        let split2 = summarize_split(&mg, &v, &Scope::default(), grain, 0).unwrap();
        prop_assert_eq!(&split, &split2, "MG split fold is deterministic");
        prop_assert_eq!(split.total, serial.total);
        prop_assert!(split.counters.len() <= k);
        // Whole-partition grain degenerates to the serial pass.
        let whole = summarize_split(&mg, &v, &Scope::default(), n.max(1), 0).unwrap();
        prop_assert_eq!(&whole, &serial);

        let mo = MomentsSketch::new("X", 3);
        let serial = mo.summarize(&v, 0).unwrap();
        let split = summarize_split(&mo, &v, &Scope::default(), grain, 0).unwrap();
        prop_assert_eq!(split.present, serial.present);
        prop_assert_eq!(split.missing, serial.missing);
        prop_assert_eq!(split.min, serial.min);
        prop_assert_eq!(split.max, serial.max);
        for (s, w) in split.sums.iter().zip(&serial.sums) {
            let tol = 1e-9 * w.abs().max(1.0);
            prop_assert!((s - w).abs() <= tol, "sum {s} vs {w}");
        }
        let whole = summarize_split(&mo, &v, &Scope::default(), n.max(1), 0).unwrap();
        prop_assert_eq!(&whole, &serial);

        let pca = PcaSketch::new(&["X", "I"], 1.0);
        let serial = pca.summarize(&v, 0).unwrap();
        let split = summarize_split(&pca, &v, &Scope::default(), grain, 0).unwrap();
        prop_assert_eq!(split.count, serial.count);
        let whole = summarize_split(&pca, &v, &Scope::default(), n.max(1), 0).unwrap();
        prop_assert_eq!(&whole, &serial);
    }

    /// Split execution is invisible to the encoding layer: identical
    /// summaries whichever physical storage backs the column, at any
    /// grain — split boundaries land mid-word, mid-run, anywhere.
    #[test]
    fn split_agrees_across_encodings(
        vals in proptest::collection::vec((0.0f64..1.0, -40i64..40), 1..300),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        grain in 1usize..96,
    ) {
        use hillview_columnar::{I64Storage, NullMask};
        use hillview_sketch::traits::summarize_split;
        let n = vals.len();
        let data: Vec<i64> = vals.iter().map(|r| r.1).collect();
        let nulls = NullMask::from_flags(vals.iter().map(|r| r.0 < 0.15), n);
        let mut columns: Vec<I64Column> = vec![I64Column::plain(data.clone(), nulls.clone())];
        if let Some(s) = I64Storage::bit_packed_of(&data) {
            columns.push(I64Column::with_storage(s, nulls.clone()));
        }
        if let Some(s) = I64Storage::run_length_of(&data) {
            columns.push(I64Column::with_storage(s, nulls.clone()));
        }
        // Split boundaries land mid-block for delta storage too: compare
        // plain vs delta over a sorted copy of the same values.
        let mut ascending = data.clone();
        ascending.sort_unstable();
        let mut delta_columns: Vec<I64Column> =
            vec![I64Column::plain(ascending.clone(), nulls.clone())];
        if let Some(s) = I64Storage::delta_of(&ascending) {
            delta_columns.push(I64Column::with_storage(s, nulls.clone()));
        }
        let members = Arc::new(membership(kind, &raw, cuts, n));
        let hist = HistogramSketch::streaming("V", num_spec());
        let mg = MisraGriesSketch::new("V", 4);
        for group in [columns, delta_columns] {
            let mut results = Vec::new();
            for col in group {
                let t = Table::builder()
                    .column("V", ColumnKind::Int, Column::Int(col))
                    .build()
                    .unwrap();
                let v = TableView::with_members(Arc::new(t), members.clone());
                let h = summarize_split(&hist, &v, &Scope::default(), grain, 0).unwrap();
                let m = summarize_split(&mg, &v, &Scope::default(), grain, 0).unwrap();
                results.push((h, m));
            }
            for r in &results[1..] {
                prop_assert_eq!(r, &results[0]);
            }
        }
    }

    /// With the `simd` feature on, every kernel's summary is byte-identical
    /// between the vector codegen and the forced-scalar fallback, across
    /// encodings × membership representations × null densities × sampling.
    /// (CI additionally runs the whole suite with the feature off; the
    /// fallback is the same code either way, so the two builds agree.)
    #[cfg(feature = "simd")]
    #[test]
    fn simd_on_off_summaries_byte_identical(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        rate in 0.3f64..1.2,
        seed in any::<u64>(),
    ) {
        use hillview_columnar::simd::set_force_scalar;
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let hist_x = HistogramSketch::streaming("X", num_spec());
        let hist_i = HistogramSketch::streaming("I", num_spec());
        let hist_s = HistogramSketch::sampled("X", num_spec(), rate.min(0.95));
        let hist_c = HistogramSketch::streaming("C", str_spec());
        let mom_x = MomentsSketch::new("X", 4);
        let mom_i = MomentsSketch::new("I", 4);
        let heat = HeatmapSketch::sampled("X", "C", num_spec(), str_spec(), rate);
        let stack = StackedHistogramSketch::streaming("I", "C", num_spec(), str_spec());
        let count = CountSketch::of_column("X");
        let hh = SampledHeavyHittersSketch::new("C", 4, rate);
        let run = |scalar: bool| {
            set_force_scalar(scalar);
            let mom_bits = |m: &hillview_sketch::moments::MomentsSummary| {
                (
                    m.present,
                    m.missing,
                    m.min.map(f64::to_bits),
                    m.max.map(f64::to_bits),
                    m.sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                )
            };
            let out = (
                hist_x.summarize(&v, seed).unwrap(),
                hist_i.summarize(&v, seed).unwrap(),
                hist_s.summarize(&v, seed).unwrap(),
                hist_c.summarize(&v, seed).unwrap(),
                mom_bits(&mom_x.summarize(&v, seed).unwrap()),
                mom_bits(&mom_i.summarize(&v, seed).unwrap()),
                heat.summarize(&v, seed).unwrap(),
                stack.summarize(&v, seed).unwrap(),
                count.summarize(&v, seed).unwrap(),
                hh.summarize(&v, seed).unwrap(),
            );
            set_force_scalar(false);
            out
        };
        let fast = run(false);
        let slow = run(true);
        prop_assert_eq!(fast, slow);
    }

    /// Quantile keys: chunked row enumeration vs a naive per-row walk with
    /// the same down-sampling.
    #[test]
    fn quantile_matches_naive(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        cap in 1usize..64,
    ) {
        let n = t.num_rows();
        let table = Arc::new(t);
        let v = TableView::with_members(table.clone(), Arc::new(membership(kind, &raw, cuts, n)));
        let order = SortOrder::ascending(&["I", "X"]);
        let sk = QuantileSketch::new(order.clone(), 1.0, cap);
        let s = sk.summarize(&v, 0).unwrap();
        let resolved = order.resolve(&table).unwrap();
        let mut naive: Vec<_> = v.iter_rows().map(|r| resolved.key(&table, r)).collect();
        if naive.len() > cap {
            let stride = naive.len().div_ceil(cap);
            naive = naive.into_iter().step_by(stride).collect();
        }
        prop_assert_eq!(s.keys(), naive);
        prop_assert_eq!(s.population, v.len() as u64);
    }
}
