//! Fusion-law property tests: for every kernel, filtered scopes
//! (`summarize_scoped` with a filter, whole-partition or bounded) must
//! reproduce the two-pass execution — materialize the predicate into a
//! membership set with `filter_members`, then sketch it — **bit for bit**,
//! across random tables, predicate shapes, membership representations,
//! null densities, split grains, and physical encodings. Because the
//! two-pass side is itself pinned to the per-row reference by
//! `scan_equivalence.rs`, these laws chain to `fused ≡ two-pass ≡ rowwise`.
//!
//! Float- and order-sensitive kernels (moments, PCA, Misra-Gries) are held
//! to the same bit-exact bar: the fused pass visits the surviving rows in
//! the same order the two-pass scan does, so even power sums agree to the
//! last bit. Split laws are checked over leaf ranges planned from the
//! *parent* membership — exactly how the engine plans fused leaves before
//! any filter has been materialized.

use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::{ColumnKind, MembershipSet, Predicate, SortOrder, StrMatchKind, Table};
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
use hillview_sketch::traits::{fused_law_holds, summarize_split, Sketch};
#[cfg(feature = "simd")]
use hillview_sketch::view::filtered_view;
use hillview_sketch::{Scope, TableView};
use proptest::prelude::*;
use std::sync::Arc;

const CATS: [&str; 6] = ["aa", "bb", "cc", "dd", "ee", "ff"];

/// Random mixed-type table (same shape as `scan_equivalence.rs`): `null_p`
/// drives the Double column's null density from 0% to ~100%.
fn table_strategy() -> impl Strategy<Value = Table> {
    (
        0.0f64..1.1,
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

/// Membership of the requested representation (full / empty / sparse /
/// dense / contiguous range) over `n` rows.
fn membership(kind: usize, raw: &[u32], cuts: (f64, f64), n: usize) -> MembershipSet {
    match kind {
        0 => MembershipSet::full(n),
        1 => MembershipSet::from_rows(Vec::new(), n),
        2 => MembershipSet::from_rows(raw.iter().map(|r| r % n as u32).collect(), n),
        3 => MembershipSet::from_rows(
            (0..n as u32)
                .filter(|r| r % 10 != 3 && r % 7 != 1)
                .collect(),
            n,
        ),
        _ => {
            let a = ((cuts.0 * n as f64) as usize).min(n);
            let b = ((cuts.1 * n as f64) as usize).min(n);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            MembershipSet::from_rows((lo as u32..hi as u32).collect(), n)
        }
    }
}

/// Predicate family covering every leaf the block compiler special-cases:
/// numeric range (zone-map skippable), integer range, dictionary equality
/// (code zone maps), text match, the exact-complement `Not`, and an `And`
/// that makes the second leaf see a partial selection word.
fn predicate(pick: usize, bounds: (f64, f64), cat: usize) -> Predicate {
    let (a, b) = bounds;
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match pick {
        0 => Predicate::range("X", lo, hi),
        1 => Predicate::range("I", lo, hi),
        2 => Predicate::equals("C", CATS[cat]),
        3 => Predicate::range("X", lo, hi).not(),
        4 => Predicate::range("X", lo, hi).and(Predicate::equals("C", CATS[cat])),
        _ => Predicate::str_match("C", "a", StrMatchKind::Substring, false),
    }
}

fn num_spec() -> BucketSpec {
    BucketSpec::numeric(-50.0, 150.0, 17)
}

fn str_spec() -> BucketSpec {
    BucketSpec::strings(vec!["aa".into(), "cc".into(), "ee".into()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fusion law, all 14 kernels: fused ≡ two-pass, whole-partition
    /// and per parent-planned leaf range. `fused_law_holds` compares the
    /// range summaries leaf by leaf, so this also pins the fused split
    /// plumbing the cluster's work-stealing leaves run on.
    #[test]
    fn fused_law_all_kernels(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        grain in 1usize..96,
        seed in any::<u64>(),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);
        macro_rules! law {
            ($sk:expr) => {
                prop_assert!(
                    fused_law_holds(&$sk, &v, &p, grain, seed),
                    "fusion law failed for {} under {:?}", $sk.name(), p
                );
            };
        }
        law!(CountSketch::rows());
        law!(CountSketch::of_column("X"));
        law!(HistogramSketch::streaming("X", num_spec()));
        law!(HistogramSketch::streaming("C", str_spec()));
        law!(HeatmapSketch::sampled("X", "C", num_spec(), str_spec(), 1.0));
        law!(StackedHistogramSketch::streaming("I", "C", num_spec(), str_spec()));
        law!(MomentsSketch::new("X", 4));
        law!(BottomKSketch::new("C", 8));
        law!(NextKSketch::first_page(SortOrder::ascending(&["C", "I"]), 5).with_display(&["X"]));
        law!(MisraGriesSketch::new("C", 4));
        law!(SampledHeavyHittersSketch::new("C", 4, 1.0));
        law!(DistinctSketch::new("I"));
        law!(FindSketch::new("C", "a", StrMatchKind::Substring, SortOrder::ascending(&["I", "X"])));
        law!(PcaSketch::new(&["X", "I"], 1.0));
        law!(RangeSketch::new("X"));
        law!(QuantileSketch::new(SortOrder::ascending(&["I", "X"]), 1.0, 100_000));
    }

    /// Sampled kernels that fuse by falling back to the two-pass filtered
    /// view — samples must draw from the *filtered* membership — keep the
    /// law bit-for-bit at every rate. (Quantile and sampled heavy hitters
    /// now sample the filtered stream directly; their contract is pinned by
    /// `fused_sampling_matches_hash_threshold_reference` below instead.)
    #[test]
    fn fused_law_sampled_kernels(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        grain in 1usize..96,
        rate in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);
        prop_assert!(fused_law_holds(
            &HistogramSketch::sampled("X", num_spec(), rate), &v, &p, grain, seed));
        prop_assert!(fused_law_holds(
            &HeatmapSketch::sampled("X", "C", num_spec(), str_spec(), rate), &v, &p, grain, seed));
        prop_assert!(fused_law_holds(
            &PcaSketch::new(&["X", "I"], rate), &v, &p, grain, seed));
    }

    /// The fused-sampling distribution contract: under a fused plan,
    /// quantile and sampled heavy hitters draw the sample from the filtered
    /// stream with the stateless hash-threshold test
    /// [`hillview_columnar::row_sampled`]. The sampled row *set* is pinned
    /// exactly — it must equal the rowwise-filtered membership intersected
    /// with `row_sampled` — which both fixes the per-row inclusion
    /// probability (uniform at `rate`, independent across rows) and makes
    /// the sample a pure function of `(membership, predicate, rate, seed)`.
    /// Tiling is pinned too: leaf ranges fold to the unsplit summary.
    #[test]
    fn fused_sampling_matches_hash_threshold_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        grain in 1usize..96,
        rate in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        use hillview_columnar::predicate::filter_members_rowwise;
        use hillview_columnar::row_sampled;

        let n = t.num_rows();
        let table = Arc::new(t);
        let v = TableView::with_members(
            table.clone(), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);

        // Reference sample: rowwise-filtered membership ∩ hash test.
        let filtered = filter_members_rowwise(&table, &p, v.members()).unwrap();
        let sample: Vec<usize> = filtered
            .iter()
            .filter(|&r| row_sampled(r as u64, rate, seed))
            .collect();

        // Sampled heavy hitters: counts over the reference sample, exactly.
        let hh = SampledHeavyHittersSketch::new("C", 4, rate);
        let fused = hh.summarize_filtered(&v, &p, seed).unwrap();
        let col = table.column_by_name("C").unwrap();
        let mut want: std::collections::HashMap<hillview_columnar::Value, u64> =
            std::collections::HashMap::new();
        let mut present = 0u64;
        for &r in &sample {
            let val = col.value(r);
            if !val.is_missing() {
                present += 1;
                *want.entry(val).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(fused.sampled, present);
        let mut got: Vec<_> = fused.counts.clone();
        got.sort();
        let mut want: Vec<_> = want.into_iter().collect();
        want.sort();
        prop_assert_eq!(got, want);
        // Tiling: parent-planned leaves fold to the unsplit fused summary.
        prop_assert_eq!(
            summarize_split(&hh, &v, &Scope { rows: None, filter: Some(&p) }, grain, seed).unwrap(),
            fused
        );

        // Quantile: keys of the reference sample (cap chosen above any
        // plausible sample size, so no thinning confounds the comparison),
        // population = the full filtered membership.
        let order = SortOrder::ascending(&["I", "X"]);
        let qs = QuantileSketch::new(order.clone(), rate, 100_000);
        let fused = qs.summarize_filtered(&v, &p, seed).unwrap();
        prop_assert_eq!(fused.population, filtered.len() as u64);
        let resolved = order.resolve(&table).unwrap();
        let want_keys: Vec<_> = sample.iter().map(|&r| resolved.key(&table, r)).collect();
        prop_assert_eq!(&fused.keys(), &want_keys);
        prop_assert_eq!(
            summarize_split(&qs, &v, &Scope { rows: None, filter: Some(&p) }, grain, seed).unwrap().keys(),
            want_keys
        );
    }

    /// Chain the law to the per-row reference: the fused pass must equal
    /// the rowwise kernel walked over the rowwise-filtered membership.
    #[test]
    fn fused_matches_rowwise_reference(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        seed in any::<u64>(),
    ) {
        use hillview_columnar::predicate::filter_members_rowwise;
        let n = t.num_rows();
        let table = Arc::new(t);
        let v = TableView::with_members(
            table.clone(), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);
        let narrowed = TableView::with_members(
            table.clone(),
            Arc::new(filter_members_rowwise(&table, &p, v.members()).unwrap()),
        );
        let hist = HistogramSketch::streaming("X", num_spec());
        prop_assert_eq!(
            hist.summarize_filtered(&v, &p, seed).unwrap(),
            hist.summarize_rowwise(&narrowed, seed).unwrap()
        );
        let mg = MisraGriesSketch::new("C", 4);
        prop_assert_eq!(
            mg.summarize_filtered(&v, &p, seed).unwrap(),
            mg.summarize_rowwise(&narrowed, seed).unwrap()
        );
        let mo = MomentsSketch::new("X", 4);
        let fused = mo.summarize_filtered(&v, &p, seed).unwrap();
        let rowwise = mo.summarize_rowwise(&narrowed, seed).unwrap();
        prop_assert_eq!(fused.present, rowwise.present);
        prop_assert_eq!(fused.missing, rowwise.missing);
        prop_assert_eq!(fused.min, rowwise.min);
        prop_assert_eq!(fused.max, rowwise.max);
        for (f, r) in fused.sums.iter().zip(&rowwise.sums) {
            prop_assert!(f.to_bits() == r.to_bits(), "power sums differ: {f} vs {r}");
        }
        let ds = DistinctSketch::new("C");
        prop_assert_eq!(
            ds.summarize_filtered(&v, &p, seed).unwrap(),
            ds.summarize_rowwise(&narrowed, seed).unwrap()
        );
        let fs = FindSketch::new(
            "C", "a", StrMatchKind::Substring, SortOrder::ascending(&["I", "X"]));
        prop_assert_eq!(
            fs.summarize_filtered(&v, &p, seed).unwrap(),
            fs.summarize_rowwise(&narrowed, seed).unwrap()
        );
    }

    /// Fused split law for exact-merge kernels: folding parent-planned
    /// leaves of a filtered bounded scope equals the unsplit fused pass
    /// at every grain — what keeps PR 3's parallel leaves and PR 6's
    /// retry-on-failure sites correct under fusion.
    #[test]
    fn fused_split_equals_unsplit_for_exact_kernels(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        grain in 1usize..96,
        seed in any::<u64>(),
    ) {
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);
        macro_rules! split_law {
            ($sk:expr) => {{
                let sk = $sk;
                prop_assert_eq!(
                    summarize_split(&sk, &v, &Scope { rows: None, filter: Some(&p) }, grain, seed).unwrap(),
                    sk.summarize_filtered(&v, &p, seed).unwrap(),
                    "fused split law failed for {} under {:?}", sk.name(), &p
                );
            }};
        }
        split_law!(CountSketch::rows());
        split_law!(CountSketch::of_column("X"));
        split_law!(HistogramSketch::streaming("X", num_spec()));
        split_law!(HistogramSketch::streaming("C", str_spec()));
        split_law!(StackedHistogramSketch::streaming("I", "C", num_spec(), str_spec()));
        split_law!(BottomKSketch::new("C", 8));
        split_law!(DistinctSketch::new("I"));
        split_law!(NextKSketch::first_page(SortOrder::ascending(&["C", "I"]), 5));
        split_law!(FindSketch::new(
            "C", "a", StrMatchKind::Substring, SortOrder::ascending(&["I", "X"])));
        split_law!(RangeSketch::new("X"));
        split_law!(QuantileSketch::new(SortOrder::ascending(&["I", "X"]), 1.0, 100_000));
    }

    /// The fusion law is invisible to the encoding layer: identical fused
    /// summaries whichever physical storage backs the integer column, with
    /// split boundaries landing mid-word, mid-run, mid-delta-block.
    #[test]
    fn fused_law_across_encodings(
        vals in proptest::collection::vec((0.0f64..1.0, -40i64..40), 1..300),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        bounds in (-50.0f64..50.0, -50.0f64..50.0),
        grain in 1usize..96,
    ) {
        use hillview_columnar::{I64Storage, NullMask};
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
        // Delta needs ascending data: sorted copy, plain vs delta.
        let mut ascending = data.clone();
        ascending.sort_unstable();
        let mut delta_columns: Vec<I64Column> =
            vec![I64Column::plain(ascending.clone(), nulls.clone())];
        if let Some(s) = I64Storage::delta_of(&ascending) {
            delta_columns.push(I64Column::with_storage(s, nulls.clone()));
        }
        let members = Arc::new(membership(kind, &raw, cuts, n));
        let (a, b) = bounds;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let p = Predicate::range("V", lo, hi);
        let hist = HistogramSketch::streaming("V", num_spec());
        let mo = MomentsSketch::new("V", 3);
        for group in [columns, delta_columns] {
            let mut results = Vec::new();
            for col in group {
                let t = Table::builder()
                    .column("V", ColumnKind::Int, Column::Int(col))
                    .build()
                    .unwrap();
                let v = TableView::with_members(Arc::new(t), members.clone());
                prop_assert!(fused_law_holds(&hist, &v, &p, grain, 0));
                let h = hist.summarize_filtered(&v, &p, 0).unwrap();
                let m = mo.summarize_filtered(&v, &p, 0).unwrap();
                results.push((h, m.present, m.missing, m.min, m.max,
                    m.sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>()));
            }
            for r in &results[1..] {
                prop_assert_eq!(r, &results[0]);
            }
        }
    }

    /// With the `simd` feature on, the fused path's summaries are
    /// byte-identical between the vector codegen and the forced-scalar
    /// fallback — and both still satisfy the fusion law.
    #[cfg(feature = "simd")]
    #[test]
    fn fused_simd_on_off_byte_identical(
        t in table_strategy(),
        kind in 0usize..5,
        raw in proptest::collection::vec(any::<u32>(), 0..200),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        pick in 0usize..6,
        bounds in (-60.0f64..160.0, -60.0f64..160.0),
        cat in 0usize..6,
        seed in any::<u64>(),
    ) {
        use hillview_columnar::simd::set_force_scalar;
        let n = t.num_rows();
        let v = TableView::with_members(Arc::new(t), Arc::new(membership(kind, &raw, cuts, n)));
        let p = predicate(pick, bounds, cat);
        let hist = HistogramSketch::streaming("X", num_spec());
        let stack = StackedHistogramSketch::streaming("I", "C", num_spec(), str_spec());
        let count = CountSketch::of_column("X");
        let mo = MomentsSketch::new("X", 4);
        let run = |scalar: bool| {
            set_force_scalar(scalar);
            let m = mo.summarize_filtered(&v, &p, seed).unwrap();
            let out = (
                hist.summarize_filtered(&v, &p, seed).unwrap(),
                stack.summarize_filtered(&v, &p, seed).unwrap(),
                count.summarize_filtered(&v, &p, seed).unwrap(),
                (m.present, m.missing, m.min.map(f64::to_bits), m.max.map(f64::to_bits),
                 m.sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>()),
            );
            set_force_scalar(false);
            out
        };
        let fast = run(false);
        let slow = run(true);
        prop_assert_eq!(&fast, &slow);
        // Both modes also satisfy the law against the (scalar) two-pass.
        let narrowed = filtered_view(&v, &p).unwrap();
        prop_assert_eq!(&fast.0, &hist.summarize(&narrowed, seed).unwrap());
    }
}
