//! Partition views: the data a sketch's `summarize` sees.
//!
//! A view pairs an immutable [`Table`] (one micropartition of columnar data)
//! with a [`MembershipSet`] selecting which of its rows belong to the
//! current (possibly filtered) dataset — the paper's §5.6 derived-table
//! representation, where filtered tables share storage with their parents.

use crate::traits::SketchResult;
use hillview_columnar::scan::{rows_in_range, Selection};
use hillview_columnar::{filter_members, FrameFilter, MembershipSet, Predicate, Table};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

/// The rows one [`Sketch::summarize_scoped`](crate::Sketch::summarize_scoped)
/// call covers: the members of a partition view, optionally bounded to a
/// row range and optionally narrowed by a predicate fused into the scan.
///
/// `Scope::default()` is the whole partition, unfiltered. The bounds are
/// *absolute* partition row indexes — filtering narrows the membership but
/// never renumbers rows — so split plans computed from the parent
/// membership stay valid under fusion. See the crate docs ("Writing a
/// vizketch") for the tiling, fusion and sampling contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope<'p> {
    /// Row bounds `lo..hi`; `None` covers the whole partition.
    pub rows: Option<(usize, usize)>,
    /// Predicate evaluated inside the scan; `None` keeps every member.
    pub filter: Option<&'p Predicate>,
}

impl Scope<'_> {
    /// Run a kernel's scan `body` over the rows this scope selects from
    /// `view` and return its result. Use [`Scope::scan_counted`] when the
    /// kernel also needs the number of rows the body was shown.
    ///
    /// `sample` is `Some((rate, seed))` for a sampled kernel. The sample is
    /// drawn partition-wide and *clipped* to the bounds, never re-drawn per
    /// sub-range, so split execution tiles exactly. A sampled, filtered
    /// scope first materializes the filter and draws from the narrowed
    /// membership (the two-pass execution), because a sample of the
    /// unfiltered membership is a different row set.
    ///
    /// The body sees a single-pass selection under a filter: it must drain
    /// it (once) for the match count to be complete.
    pub(crate) fn scan<R>(
        &self,
        view: &TableView,
        sample: Option<(f64, u64)>,
        body: impl FnOnce(&Selection<'_>) -> SketchResult<R>,
    ) -> SketchResult<R> {
        Ok(self.run(view, sample, false, body)?.0)
    }

    /// [`Scope::scan`], also returning the number of rows the body was
    /// shown: the filter's match count under fusion, the selection size
    /// otherwise.
    pub(crate) fn scan_counted<R>(
        &self,
        view: &TableView,
        sample: Option<(f64, u64)>,
        body: impl FnOnce(&Selection<'_>) -> SketchResult<R>,
    ) -> SketchResult<(R, u64)> {
        self.run(view, sample, true, body)
    }

    /// The shared scan. An unfiltered selection is only counted when
    /// `count` asks for it (a popcount pass over a dense membership); the
    /// fused count is free, read back from the filter.
    fn run<R>(
        &self,
        view: &TableView,
        sample: Option<(f64, u64)>,
        count: bool,
        body: impl FnOnce(&Selection<'_>) -> SketchResult<R>,
    ) -> SketchResult<(R, u64)> {
        if let (Some(_), Some(pred)) = (sample, self.filter) {
            let narrowed = filtered_view(view, pred)?;
            let unfiltered = Scope {
                rows: self.rows,
                filter: None,
            };
            return unfiltered.run(&narrowed, sample, count, body);
        }
        let drawn = sample.map(|(rate, seed)| view.sample_rows(rate, seed));
        let base = match (&drawn, self.rows) {
            (Some(rows), None) => Selection::Rows(rows),
            (Some(rows), Some((lo, hi))) => Selection::Rows(rows_in_range(rows, lo, hi)),
            (None, None) => Selection::Members(view.members()),
            (None, Some((lo, hi))) => Selection::members_in(view.members(), lo, hi),
        };
        match self.filter {
            None => {
                let out = body(&base)?;
                let rows = if count { base.count() as u64 } else { 0 };
                Ok((out, rows))
            }
            Some(pred) => {
                let ff = RefCell::new(FrameFilter::compile(pred, view.table())?);
                let out = body(&Selection::Filtered {
                    base: &base,
                    filter: &ff,
                })?;
                let matched = ff.borrow().matched();
                Ok((out, matched))
            }
        }
    }
}

/// Materialize `predicate` over `view` into a narrowed view — the
/// **two-pass** execution of a filtered query (filter to a membership set,
/// then sketch it). This is the reference the fused one-pass path is pinned
/// against, and what [`Scope`] falls back to for sampled kernels, whose
/// sample must be drawn from the *filtered* membership.
pub fn filtered_view(view: &TableView, predicate: &Predicate) -> SketchResult<TableView> {
    let members = filter_members(view.table(), predicate, view.members())?;
    Ok(TableView::with_members(
        view.table().clone(),
        Arc::new(members),
    ))
}

/// A memoized sample draw: `((rate bits, seed), rows)`.
type SampleMemo = Option<((u64, u64), Arc<Vec<u32>>)>;

/// One partition's worth of (possibly filtered) data.
#[derive(Debug, Clone)]
pub struct TableView {
    table: Arc<Table>,
    members: Arc<MembershipSet>,
    /// Memo for the most recent partition-wide sample, keyed by
    /// `(rate bits, seed)` and shared across clones of this view. Split
    /// sub-tasks all request the identical sample (the splitting contract
    /// forbids re-drawing per range), so one draw serves every piece; a
    /// single slot bounds memory on views that live across many queries in
    /// the worker's dataset cache.
    sample_memo: Arc<Mutex<SampleMemo>>,
}

impl TableView {
    /// View over every row of `table`.
    pub fn full(table: Arc<Table>) -> Self {
        let n = table.num_rows();
        TableView {
            table,
            members: Arc::new(MembershipSet::full(n)),
            sample_memo: Arc::new(Mutex::new(None)),
        }
    }

    /// View over a subset of rows.
    pub fn with_members(table: Arc<Table>, members: Arc<MembershipSet>) -> Self {
        debug_assert_eq!(members.universe(), table.num_rows());
        TableView {
            table,
            members,
            sample_memo: Arc::new(Mutex::new(None)),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The membership set.
    pub fn members(&self) -> &Arc<MembershipSet> {
        &self.members
    }

    /// Number of rows present in the view.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterate present row indexes in ascending order.
    pub fn iter_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter()
    }

    /// Uniform row sample at `rate`, deterministic in `seed` (§5.6).
    ///
    /// The draw is memoized: when split sub-tasks of one partition all ask
    /// for the same `(rate, seed)` — which the splitting contract
    /// guarantees — only the first actually walks the membership; the rest
    /// share the `Arc`. Sampling is a pure function of
    /// `(members, rate, seed)`, so a racing double-draw is harmless.
    pub fn sample_rows(&self, rate: f64, seed: u64) -> Arc<Vec<u32>> {
        let key = (rate.to_bits(), seed);
        if let Some((k, sample)) = &*self.sample_memo.lock().unwrap() {
            if *k == key {
                return sample.clone();
            }
        }
        let drawn = Arc::new(self.members.sample(rate, seed));
        *self.sample_memo.lock().unwrap() = Some((key, drawn.clone()));
        drawn
    }

    /// Derive a narrower view by intersecting membership.
    pub fn restrict(&self, members: &MembershipSet) -> TableView {
        TableView {
            table: self.table.clone(),
            members: Arc::new(self.members.intersect(members)),
            sample_memo: Arc::new(Mutex::new(None)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::ColumnKind;

    fn table(n: usize) -> Arc<Table> {
        Arc::new(
            Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options((0..n as i64).map(Some))),
                )
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn full_view_covers_table() {
        let v = TableView::full(table(10));
        assert_eq!(v.len(), 10);
        assert_eq!(v.iter_rows().count(), 10);
    }

    #[test]
    fn filtered_view() {
        let t = table(10);
        let m = Arc::new(MembershipSet::from_rows(vec![1, 3, 5], 10));
        let v = TableView::with_members(t, m);
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter_rows().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn restrict_intersects() {
        let v = TableView::full(table(10));
        let v2 = v.restrict(&MembershipSet::from_rows(vec![0, 2, 9], 10));
        assert_eq!(v2.iter_rows().collect::<Vec<_>>(), vec![0, 2, 9]);
        let v3 = v2.restrict(&MembershipSet::from_rows(vec![2, 3], 10));
        assert_eq!(v3.iter_rows().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn sampling_is_deterministic() {
        let v = TableView::full(table(1000));
        assert_eq!(v.sample_rows(0.3, 5), v.sample_rows(0.3, 5));
    }
}
