//! Sampled quantile estimation for the scroll bar.
//!
//! Paper App. C.1: when the user drags the scroll bar to pixel `j` of `V`,
//! the spreadsheet must display rows starting near relative rank `j/V`. A
//! uniform sample of `O(ε⁻² log 1/δ)` rows suffices (Theorem 2); with
//! ε = 1/2V that is `O(V²)` rows — independent of the dataset size.
//!
//! **Layout.** A [`QuantileSummary`] holds its sample as one flat buffer of
//! `width × n` values, key-major (key `i` is `values[i·w .. (i+1)·w]`),
//! plus one direction vector for the whole summary, so a sampled row costs
//! `width` value pushes and no per-key allocation. On the wire the buffer
//! travels column by column, after the width, the directions and the total
//! value count.
//!
//! **Summarize and merge.** Each leaf Bernoulli-samples rows at the
//! caller-chosen rate and appends their sort-column values. Merge appends
//! one buffer to the other; when the result exceeds the cap it keeps every
//! `stride`-th key of the concatenation (both inputs are uniform samples at
//! equal rate, so the thinned concatenation stays uniform).
//!
//! **Rank selection.** [`QuantileSummary::quantile`] selects the key of
//! rank `round(q·(n−1))` with `select_nth_unstable` over key indices, in
//! expected linear time, and materializes only that one [`RowKey`].

use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::{scan_rows, Selection};
use hillview_columnar::{row_sampled, RowKey, SortOrder, Value};
use hillview_net::{Error as WireError, Result as WireResult, Wire, WireReader, WireWriter};
use std::cmp::Ordering;

/// Sampled quantile sketch over a sort order.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// The active sort order whose keys are sampled.
    pub order: SortOrder,
    /// Row sampling rate.
    pub rate: f64,
    /// Cap on retained keys per summary (≈ the paper's O(V²) budget).
    pub cap: usize,
}

impl QuantileSketch {
    /// Sample sort keys at `rate`, keeping at most `cap` per summary.
    pub fn new(order: SortOrder, rate: f64, cap: usize) -> Self {
        QuantileSketch {
            order,
            rate,
            cap: cap.max(1),
        }
    }

    /// The paper's sample budget for a `v`-pixel scroll bar: `O(V²)`;
    /// we use 4V² which keeps the rank error well under one pixel.
    pub fn sample_budget(scrollbar_pixels: usize) -> usize {
        4 * scrollbar_pixels * scrollbar_pixels
    }
}

/// A uniform sample of sort keys plus the population size it represents.
///
/// An empty sort order has zero-width keys: every row ties, there is no
/// rank to find, and the summary keeps no keys.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSummary {
    /// Per-sort-column descending flags; their count is the key width.
    descending: Vec<bool>,
    /// Sampled keys, flat and key-major, in sample order (unsorted).
    values: Vec<Value>,
    /// Rows in the underlying (filtered) population.
    pub population: u64,
    /// Down-sampling cap.
    pub cap: usize,
}

impl QuantileSummary {
    fn empty(descending: Vec<bool>, cap: usize) -> Self {
        QuantileSummary {
            descending,
            values: Vec::new(),
            population: 0,
            cap,
        }
    }

    fn width(&self) -> usize {
        self.descending.len()
    }

    /// Number of sampled keys.
    pub fn len(&self) -> usize {
        self.values.len().checked_div(self.width()).unwrap_or(0)
    }

    /// True if no key was sampled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn key_values(&self, i: usize) -> &[Value] {
        let w = self.width();
        &self.values[i * w..(i + 1) * w]
    }

    /// Key `i` of the sample, materialized.
    fn key(&self, i: usize) -> RowKey {
        RowKey::new(self.key_values(i).to_vec(), self.descending.clone())
    }

    /// Every sampled key, materialized, in sample order.
    pub fn keys(&self) -> Vec<RowKey> {
        (0..self.len()).map(|i| self.key(i)).collect()
    }

    /// Order keys `a` and `b` exactly as [`RowKey`]'s `Ord` does.
    fn cmp_keys(&self, a: usize, b: usize) -> Ordering {
        for ((x, y), &desc) in self
            .key_values(a)
            .iter()
            .zip(self.key_values(b))
            .zip(&self.descending)
        {
            let ord = x.cmp(y);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// The key at relative rank `q ∈ [0, 1]`, if any rows were sampled.
    pub fn quantile(&self, q: f64) -> Option<RowKey> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * (n - 1) as f64).round()) as usize;
        let mut order: Vec<usize> = (0..n).collect();
        let (_, &mut nth, _) = order.select_nth_unstable_by(rank, |&a, &b| self.cmp_keys(a, b));
        Some(self.key(nth))
    }
}

/// Thin a flat key buffer of width `width` to at most `cap` keys by keeping
/// every `stride`-th one — deterministic uniform thinning.
fn thinned(values: Vec<Value>, width: usize, cap: usize) -> Vec<Value> {
    let n = values.len().checked_div(width).unwrap_or(0);
    if n <= cap {
        return values;
    }
    let stride = n.div_ceil(cap);
    values
        .chunks_exact(width)
        .step_by(stride)
        .flatten()
        .cloned()
        .collect()
}

impl Summary for QuantileSummary {
    fn merge(&self, other: &Self) -> Self {
        let cap = self.cap.max(other.cap);
        // The identity (or an empty leaf) carries the same directions as
        // every other summary of its sketch; prefer a side with keys.
        let descending = if self.is_empty() {
            &other.descending
        } else {
            &self.descending
        };
        debug_assert!(
            self.is_empty() || other.is_empty() || self.descending == other.descending,
            "merging quantile samples of different sort orders"
        );
        QuantileSummary {
            values: thinned(
                [&self.values[..], &other.values].concat(),
                descending.len(),
                cap,
            ),
            descending: descending.clone(),
            population: self.population + other.population,
            cap,
        }
    }
}

impl Wire for QuantileSummary {
    fn encode(&self, w: &mut WireWriter) {
        let width = self.width();
        w.put_varint(width as u64);
        for &d in &self.descending {
            w.put_u8(d as u8);
        }
        let n = self.len();
        w.put_varint((n * width) as u64);
        for c in 0..width {
            for i in 0..n {
                self.values[i * width + c].encode(w);
            }
        }
        w.put_varint(self.population);
        w.put_varint(self.cap as u64);
    }

    fn decode(r: &mut WireReader) -> WireResult<Self> {
        let width = r.get_len("quantile width")?;
        if width > r.remaining() {
            return Err(WireError::Truncated {
                context: "quantile directions",
            });
        }
        let mut descending = Vec::with_capacity(width);
        for _ in 0..width {
            descending.push(match r.get_u8()? {
                0 => false,
                1 => true,
                tag => {
                    return Err(WireError::BadTag {
                        context: "quantile direction",
                        tag,
                    })
                }
            });
        }
        let count = r.get_len("quantile values")?;
        let misaligned = if width == 0 {
            count != 0
        } else {
            count % width != 0
        };
        if misaligned {
            return Err(WireError::BadLength {
                context: "quantile value count not a multiple of the key width",
                len: count as u64,
            });
        }
        // Every value takes at least one byte: refuse impossible counts
        // before allocating for them.
        if count > r.remaining() {
            return Err(WireError::Truncated {
                context: "quantile values",
            });
        }
        let n = count.checked_div(width).unwrap_or(0);
        let mut values = vec![Value::Missing; count];
        for c in 0..width {
            for i in 0..n {
                values[i * width + c] = Value::decode(r)?;
            }
        }
        Ok(QuantileSummary {
            descending,
            values,
            population: r.get_varint()?,
            cap: r.get_len("quantile cap")?,
        })
    }
}

impl Sketch for QuantileSketch {
    type Summary = QuantileSummary;

    fn name(&self) -> &'static str {
        "quantile"
    }

    /// Sub-range populations count the membership rows in the bounds (not
    /// the sample), so split partials sum to the partition population
    /// exactly; merged keys stay a uniform sample.
    fn summarize_scoped(
        &self,
        view: &TableView,
        scope: &Scope<'_>,
        seed: u64,
    ) -> SketchResult<QuantileSummary> {
        let table = view.table();
        let resolved = self.order.resolve(table)?;
        let width = resolved.indexes().len();
        // Unfiltered sampling pre-draws a partition-wide sample
        // (representation-dependent walk, clipped to the bounds). Under
        // fusion the sample must come from the *filtered* stream, so each
        // surviving row is instead tested with the stateless hash-threshold
        // decision [`row_sampled`] — a pure function of `(row, rate, seed)`,
        // which keeps split tiling exact and the one-pass structure intact
        // (no materialized membership, no second decode).
        let hash_sample = self.rate < 1.0 && scope.filter.is_some();
        let sample = (self.rate < 1.0 && scope.filter.is_none()).then_some((self.rate, seed));
        let bounded = match scope.rows {
            None => view.len(),
            Some((lo, hi)) => view.members().count_range(lo, hi),
        };
        // Room for the expected sample, never more than the scan can push.
        let expected = (bounded as f64 * self.rate.clamp(0.0, 1.0)) as usize + 64;
        let mut values = Vec::with_capacity(expected.min(bounded).min(2 * self.cap) * width);
        let body = |sel: &Selection<'_>| {
            scan_rows(sel, |row| {
                if !hash_sample || row_sampled(row as u64, self.rate, seed) {
                    values.extend(
                        resolved
                            .indexes()
                            .iter()
                            .map(|&c| table.column(c).value(row)),
                    );
                }
            });
            Ok(())
        };
        // The population is the rows the summary speaks for: the filtered
        // membership under fusion, the bounded membership otherwise.
        let population = match scope.filter {
            Some(_) => scope.scan_counted(view, sample, body)?.1,
            None => {
                scope.scan(view, sample, body)?;
                bounded as u64
            }
        };
        Ok(QuantileSummary {
            values: thinned(values, width, self.cap),
            descending: resolved.descending().to_vec(),
            population,
            cap: self.cap,
        })
    }

    fn splittable(&self) -> bool {
        true
    }

    fn identity(&self) -> QuantileSummary {
        let descending = self.order.columns().iter().map(|c| c.descending).collect();
        QuantileSummary::empty(descending, self.cap)
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        // At rate >= 1 every key is taken and cap-thinning is
        // deterministic, so the summary is seed-independent.
        (self.rate >= 1.0).then(|| format!("{:?}|{}", self.order, self.cap).into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::{ColumnKind, Table, Value};
    use std::sync::Arc;

    fn view(n: i64) -> TableView {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..n).map(Some))),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    fn key_val(k: &RowKey) -> i64 {
        match &k.values()[0] {
            Value::Int(v) => *v,
            _ => panic!("expected int key"),
        }
    }

    #[test]
    fn median_estimate_is_close() {
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 0.2, 100_000);
        let s = sk.summarize(&view(100_000), 3).unwrap();
        let med = key_val(&s.quantile(0.5).unwrap());
        assert!((45_000..55_000).contains(&med), "median estimate {med}");
        let p10 = key_val(&s.quantile(0.1).unwrap());
        assert!((5_000..15_000).contains(&p10), "p10 {p10}");
    }

    #[test]
    fn extremes_map_to_ends() {
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 1.0, 1_000_000);
        let s = sk.summarize(&view(1000), 0).unwrap();
        assert_eq!(key_val(&s.quantile(0.0).unwrap()), 0);
        assert_eq!(key_val(&s.quantile(1.0).unwrap()), 999);
    }

    #[test]
    fn merge_preserves_accuracy() {
        let v = view(50_000);
        let t = v.table().clone();
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 0.3, 2_000);
        use hillview_columnar::MembershipSet;
        let a = sk
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows((0..25_000).collect(), 50_000)),
                ),
                1,
            )
            .unwrap();
        let b = sk
            .summarize(
                &TableView::with_members(
                    t,
                    Arc::new(MembershipSet::from_rows((25_000..50_000).collect(), 50_000)),
                ),
                2,
            )
            .unwrap();
        let m = a.merge(&b);
        assert_eq!(m.population, 50_000);
        assert!(m.len() <= 2_000);
        let med = key_val(&m.quantile(0.5).unwrap());
        assert!((20_000..30_000).contains(&med), "median {med}");
    }

    #[test]
    fn cap_enforced_at_leaf() {
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 1.0, 50);
        let s = sk.summarize(&view(10_000), 0).unwrap();
        assert!(s.len() <= 50);
        // Even capped, quantiles remain roughly correct.
        let med = key_val(&s.quantile(0.5).unwrap());
        assert!((3_000..7_000).contains(&med), "median {med}");
    }

    #[test]
    fn empty_has_no_quantile() {
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 0.5, 10);
        assert!(sk.identity().quantile(0.5).is_none());
    }

    #[test]
    fn sample_budget_is_quadratic() {
        assert_eq!(QuantileSketch::sample_budget(10), 400);
        assert_eq!(QuantileSketch::sample_budget(100), 40_000);
    }

    #[test]
    fn wire_corruption_returns_structured_errors() {
        use hillview_net::Error;
        let order = SortOrder::with_directions(&[("X", true), ("X", false)]);
        let s = QuantileSketch::new(order, 1.0, 64)
            .summarize(&view(20), 0)
            .unwrap();
        let full = s.to_bytes();
        assert_eq!(QuantileSummary::from_bytes(full.clone()).unwrap(), s);
        // Truncated anywhere: an error, never a shorter sample.
        for cut in 0..full.len() {
            assert!(
                QuantileSummary::from_bytes(full.slice(0..cut)).is_err(),
                "cut {cut}"
            );
        }
        // A value count that is not a multiple of the key width.
        let mut w = WireWriter::new();
        w.put_varint(2);
        w.put_u8(0);
        w.put_u8(1);
        w.put_varint(3);
        for v in 0..3 {
            Value::Int(v).encode(&mut w);
        }
        w.put_varint(3);
        w.put_varint(64);
        assert!(matches!(
            QuantileSummary::from_bytes(w.finish()),
            Err(Error::BadLength { len: 3, .. })
        ));
        // A direction tag other than 0 or 1.
        let mut w = WireWriter::new();
        w.put_varint(1);
        w.put_u8(7);
        w.put_varint(0);
        w.put_varint(0);
        w.put_varint(64);
        assert!(matches!(
            QuantileSummary::from_bytes(w.finish()),
            Err(Error::BadTag { tag: 7, .. })
        ));
        // A value count claiming more values than bytes remain.
        let mut w = WireWriter::new();
        w.put_varint(1);
        w.put_u8(0);
        w.put_varint(1 << 20);
        assert!(matches!(
            QuantileSummary::from_bytes(w.finish()),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn quantile_selects_the_sorted_rank() {
        let order = SortOrder::with_directions(&[("X", true)]);
        let s = QuantileSketch::new(order, 1.0, 1_000)
            .summarize(&view(101), 0)
            .unwrap();
        let mut sorted = s.keys();
        sorted.sort();
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
            let rank = (q * 100.0_f64).round() as usize;
            assert_eq!(s.quantile(q).unwrap(), sorted[rank], "q {q}");
        }
        assert_eq!(key_val(&s.quantile(0.0).unwrap()), 100, "descending");
    }

    #[test]
    fn wire_roundtrip() {
        let sk = QuantileSketch::new(SortOrder::ascending(&["X"]), 1.0, 64);
        let s = sk.summarize(&view(100), 0).unwrap();
        assert_eq!(QuantileSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
