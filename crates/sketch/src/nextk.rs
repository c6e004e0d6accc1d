//! The "next K items" summary that renders the tabular view.
//!
//! Paper §4.3: *"This vizketch is used to render a tabular view of the
//! spreadsheet given the current row shown at the top R (or R = ⊥ ...). We
//! are also given a column sort order, and the number K of rows to show.
//! This vizketch returns the contents of the K distinct rows that follow R
//! in the sort order."* Duplicate rows (equal sort keys) are aggregated with
//! repetition counts (§3.3 "Aggregate duplicates and show repetition
//! counts").
//!
//! **Summarize.** The leaf keeps the top K as a `Vec` of at most K
//! distinct keys, ascending. Each selected row is ordered against keys
//! straight from typed column storage
//! ([`ResolvedSortOrder::cmp_row`](hillview_columnar::ResolvedSortOrder::cmp_row)):
//! rows at or before the start key R are dropped, and so are rows after
//! the current K-th key once K keys are held. A surviving row is located by
//! binary search; a duplicate only bumps its count. A [`RowKey`] and its
//! display [`Row`] are built only when a row enters the top K, evicting the
//! largest key if that overflows K. Most rows of a large scan therefore cost
//! one or two in-place comparisons and no allocation.
//!
//! **Merge.** Union the two key sets, add the counts of equal keys, keep
//! the K smallest. This is a lattice with exact count addition, so any
//! partitioning folds back to exactly the unpartitioned summary.

use crate::traits::{Sketch, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::scan::scan_rows;
use hillview_columnar::{Row, RowKey, SortOrder};
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Next-K-rows sketch.
#[derive(Debug, Clone)]
pub struct NextKSketch {
    /// Active sort order; its columns are also the deduplication key.
    pub order: SortOrder,
    /// Extra columns to materialize for display (beyond the sort columns).
    pub display: Vec<Arc<str>>,
    /// Exclusive start key (`None` starts at the beginning).
    pub start: Option<RowKey>,
    /// Number of distinct rows to return.
    pub k: usize,
}

impl NextKSketch {
    /// First `k` rows of the dataset in `order`.
    pub fn first_page(order: SortOrder, k: usize) -> Self {
        NextKSketch {
            order,
            display: Vec::new(),
            start: None,
            k: k.max(1),
        }
    }

    /// The `k` rows strictly after `start`.
    pub fn after(order: SortOrder, start: RowKey, k: usize) -> Self {
        NextKSketch {
            order,
            display: Vec::new(),
            start: Some(start),
            k: k.max(1),
        }
    }

    /// Also materialize these columns for display.
    pub fn with_display(mut self, cols: &[&str]) -> Self {
        self.display = cols.iter().map(|c| Arc::from(*c)).collect();
        self
    }
}

/// Up to K (key, display row, repetition count) entries, ascending by key.
#[derive(Debug, Clone, PartialEq)]
pub struct NextKSummary {
    /// Capacity.
    pub k: usize,
    /// Ascending by sort key; counts aggregate duplicate keys.
    pub rows: Vec<(RowKey, Row, u64)>,
    /// Rows matching (i.e. after `start`) in the scanned data, including
    /// those beyond the first K — drives the scroll-position indicator.
    pub matched: u64,
}

impl NextKSummary {
    fn zero(k: usize) -> Self {
        NextKSummary {
            k,
            rows: Vec::new(),
            matched: 0,
        }
    }
}

impl Summary for NextKSummary {
    fn merge(&self, other: &Self) -> Self {
        let k = self.k.max(other.k);
        let mut map: BTreeMap<RowKey, (Row, u64)> = BTreeMap::new();
        for (key, row, count) in self.rows.iter().chain(&other.rows) {
            map.entry(key.clone())
                .and_modify(|(_, c)| *c += count)
                .or_insert_with(|| (row.clone(), *count));
        }
        let rows: Vec<(RowKey, Row, u64)> = map
            .into_iter()
            .take(k)
            .map(|(key, (row, count))| (key, row, count))
            .collect();
        NextKSummary {
            k,
            rows,
            matched: self.matched + other.matched,
        }
    }
}

impl Wire for NextKSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.k as u64);
        w.put_varint(self.rows.len() as u64);
        for (key, row, count) in &self.rows {
            key.encode(w);
            row.encode(w);
            w.put_varint(*count);
        }
        w.put_varint(self.matched);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        let k = r.get_len("nextk k")?;
        let n = r.get_len("nextk rows")?;
        let mut rows = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let key = RowKey::decode(r)?;
            let row = Row::decode(r)?;
            let count = r.get_varint()?;
            rows.push((key, row, count));
        }
        Ok(NextKSummary {
            k,
            rows,
            matched: r.get_varint()?,
        })
    }
}

impl Sketch for NextKSketch {
    type Summary = NextKSummary;

    fn name(&self) -> &'static str {
        "next-items"
    }

    /// The k-smallest-keys set is a lattice with exact duplicate-count
    /// addition, so split partials fold back to exactly the unsplit
    /// summary.
    fn summarize_scoped(
        &self,
        view: &TableView,
        scope: &Scope<'_>,
        _seed: u64,
    ) -> SketchResult<NextKSummary> {
        let table = view.table();
        let resolved = self.order.resolve(table)?;
        let display_idx: Vec<usize> = self
            .display
            .iter()
            .map(|c| table.schema().index_of(c))
            .collect::<Result<_, _>>()?;

        let mut top: Vec<(RowKey, Row, u64)> = Vec::with_capacity(self.k.min(1024));
        let mut matched = 0u64;
        scope.scan(view, None, |sel| {
            scan_rows(sel, |row| {
                if let Some(start) = &self.start {
                    if resolved.cmp_row(table, row, start) != Ordering::Greater {
                        return;
                    }
                }
                matched += 1;
                if top.len() == self.k {
                    // k == 0 keeps nothing.
                    let Some(last) = top.last_mut() else { return };
                    match resolved.cmp_row(table, row, &last.0) {
                        Ordering::Greater => return,
                        Ordering::Equal => {
                            last.2 += 1;
                            return;
                        }
                        Ordering::Less => {}
                    }
                }
                match top
                    .binary_search_by(|(key, _, _)| resolved.cmp_row(table, row, key).reverse())
                {
                    Ok(i) => top[i].2 += 1,
                    Err(i) => {
                        let key = resolved.key(table, row);
                        let mut values = key.values().to_vec();
                        values.extend(display_idx.iter().map(|&c| table.column(c).value(row)));
                        top.insert(i, (key, Row::new(values), 1));
                        top.truncate(self.k);
                    }
                }
            });
            Ok(())
        })?;
        Ok(NextKSummary {
            k: self.k,
            rows: top,
            matched,
        })
    }

    fn splittable(&self) -> bool {
        true
    }

    fn identity(&self) -> NextKSummary {
        NextKSummary::zero(self.k)
    }

    /// A page is a pure function of the data (no sampling, no seed); the
    /// bytes cover everything that shapes it: the order with its
    /// directions, the display columns, the start key and `k`.
    fn cache_identity(&self) -> Option<Vec<u8>> {
        Some(
            format!(
                "{:?}|{:?}|{:?}|{}",
                self.order, self.display, self.start, self.k
            )
            .into_bytes(),
        )
    }
}

impl NextKSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(&self, view: &TableView, _seed: u64) -> SketchResult<NextKSummary> {
        let table = view.table();
        let resolved = self.order.resolve(table)?;
        let display_idx: Vec<usize> = self
            .display
            .iter()
            .map(|c| table.schema().index_of(c))
            .collect::<Result<_, _>>()?;
        let mut map: BTreeMap<RowKey, (Row, u64)> = BTreeMap::new();
        let mut matched = 0u64;
        for row in view.iter_rows() {
            let key = resolved.key(table, row);
            if let Some(start) = &self.start {
                if key <= *start {
                    continue;
                }
            }
            matched += 1;
            if map.len() == self.k {
                let largest = map.keys().next_back().expect("non-empty");
                if key > *largest {
                    continue;
                }
            }
            match map.get_mut(&key) {
                Some((_, c)) => *c += 1,
                None => {
                    let mut values = key.values().to_vec();
                    values.extend(display_idx.iter().map(|&c| table.column(c).value(row)));
                    map.insert(key, (Row::new(values), 1));
                    if map.len() > self.k {
                        let largest = map.keys().next_back().expect("over capacity").clone();
                        map.remove(&largest);
                    }
                }
            }
        }
        Ok(NextKSummary {
            k: self.k,
            rows: map
                .into_iter()
                .map(|(key, (row, count))| (key, row, count))
                .collect(),
            matched,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, DictColumn, I64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table, Value};

    fn view() -> TableView {
        let carriers = ["UA", "AA", "DL", "AA", "UA", "AA"];
        let delays = [10i64, 5, 7, 5, 2, 30];
        let t = Table::builder()
            .column(
                "Carrier",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(carriers.iter().map(|&c| Some(c)))),
            )
            .column(
                "Delay",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(delays.iter().map(|&d| Some(d)))),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn first_page_sorted_with_dup_counts() {
        let sk = NextKSketch::first_page(SortOrder::ascending(&["Carrier", "Delay"]), 3);
        let s = sk.summarize(&view(), 0).unwrap();
        assert_eq!(s.rows.len(), 3);
        // (AA,5) ×2, (AA,30), (DL,7)
        assert_eq!(s.rows[0].0.values(), &[Value::str("AA"), Value::Int(5)]);
        assert_eq!(s.rows[0].2, 2, "duplicates aggregated");
        assert_eq!(s.rows[1].0.values(), &[Value::str("AA"), Value::Int(30)]);
        assert_eq!(s.rows[2].0.values(), &[Value::str("DL"), Value::Int(7)]);
        assert_eq!(s.matched, 6);
    }

    #[test]
    fn paging_continues_after_start_key() {
        let order = SortOrder::ascending(&["Carrier", "Delay"]);
        let first = NextKSketch::first_page(order.clone(), 2)
            .summarize(&view(), 0)
            .unwrap();
        let last_key = first.rows.last().unwrap().0.clone();
        let next = NextKSketch::after(order, last_key, 2)
            .summarize(&view(), 0)
            .unwrap();
        assert_eq!(next.rows[0].0.values(), &[Value::str("DL"), Value::Int(7)]);
        assert_eq!(next.rows[1].0.values(), &[Value::str("UA"), Value::Int(2)]);
    }

    #[test]
    fn merge_selects_globally_smallest() {
        let v = view();
        let t = v.table().clone();
        let order = SortOrder::ascending(&["Carrier", "Delay"]);
        let sk = NextKSketch::first_page(order, 3);
        let a = sk
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows(vec![0, 1, 2], 6)),
                ),
                0,
            )
            .unwrap();
        let b = sk
            .summarize(
                &TableView::with_members(t, Arc::new(MembershipSet::from_rows(vec![3, 4, 5], 6))),
                0,
            )
            .unwrap();
        let merged = a.merge(&b);
        let whole = sk.summarize(&view(), 0).unwrap();
        assert_eq!(merged, whole, "merge law holds exactly");
    }

    #[test]
    fn descending_sort() {
        let order = SortOrder::with_directions(&[("Delay", true)]);
        let s = NextKSketch::first_page(order, 2)
            .summarize(&view(), 0)
            .unwrap();
        assert_eq!(s.rows[0].0.values(), &[Value::Int(30)]);
        assert_eq!(s.rows[1].0.values(), &[Value::Int(10)]);
    }

    #[test]
    fn display_columns_materialized() {
        let order = SortOrder::ascending(&["Delay"]);
        let sk = NextKSketch::first_page(order, 1).with_display(&["Carrier"]);
        let s = sk.summarize(&view(), 0).unwrap();
        // Row = sort key values + display values.
        assert_eq!(s.rows[0].1.values, vec![Value::Int(2), Value::str("UA")]);
    }

    #[test]
    fn k_bounds_summary_size() {
        let sk = NextKSketch::first_page(SortOrder::ascending(&["Delay"]), 2);
        let s = sk.summarize(&view(), 0).unwrap();
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.matched, 6, "matched counts everything scanned");
    }

    #[test]
    fn identity_is_unit() {
        let sk = NextKSketch::first_page(SortOrder::ascending(&["Delay"]), 3);
        let s = sk.summarize(&view(), 0).unwrap();
        assert_eq!(sk.identity().merge(&s), s);
        assert_eq!(s.merge(&sk.identity()), s);
    }

    #[test]
    fn wire_roundtrip() {
        let sk = NextKSketch::first_page(SortOrder::ascending(&["Carrier", "Delay"]), 4)
            .with_display(&["Delay"]);
        let s = sk.summarize(&view(), 0).unwrap();
        assert_eq!(NextKSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
