//! The `Sketch`/`Summary` abstraction (paper §4.1, Appendix A).

use crate::view::{Scope, TableView};
use hillview_columnar::Predicate;
use hillview_net::Wire;
use std::fmt;

/// Errors a sketch can raise while summarizing a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// Underlying columnar error (unknown column, type mismatch...).
    Column(String),
    /// The sketch was configured with invalid parameters.
    BadConfig(String),
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::Column(m) => write!(f, "column error: {m}"),
            SketchError::BadConfig(m) => write!(f, "bad sketch configuration: {m}"),
        }
    }
}

impl std::error::Error for SketchError {}

impl From<hillview_columnar::Error> for SketchError {
    fn from(e: hillview_columnar::Error) -> Self {
        SketchError::Column(e.to_string())
    }
}

/// Result alias for sketch operations.
pub type SketchResult<T> = Result<T, SketchError>;

/// A mergeable summary (paper §4.1).
///
/// `merge` must be associative and commutative with the sketch's identity
/// summary as unit — the execution tree merges summaries in whatever order
/// partitions happen to complete, so any other behaviour would make results
/// depend on timing. These laws are property-tested per summary type.
pub trait Summary: Clone + Send + Sync + 'static {
    /// Combine two summaries of disjoint data partitions.
    fn merge(&self, other: &Self) -> Self;
}

/// A mergeable summarization method bound to concrete parameters
/// (column names, bucket boundaries, sampling rates...).
///
/// Implementations must be deterministic functions of `(view, scope,
/// seed)`: the engine logs seeds in its redo log and replays sketches after
/// failures, expecting bit-identical summaries (paper §5.8). The crate docs
/// ("Writing a vizketch") give the full contract.
pub trait Sketch: Send + Sync + 'static {
    /// The summary type this sketch produces.
    type Summary: Summary + Wire;

    /// A short stable name, used for computation-cache keys and diagnostics.
    fn name(&self) -> &'static str;

    /// Summarize the rows of one partition view that `scope` covers — the
    /// one scan entry point every caller goes through.
    ///
    /// Contract: bounded scopes tile the partition (folding consecutive
    /// ranges ascending from [`Sketch::identity`] is a valid summary of the
    /// whole), and a filtered scope is bit-identical to the two-pass
    /// execution over [`filtered_view`](crate::view::filtered_view) with
    /// the same bounds.
    fn summarize_scoped(
        &self,
        view: &TableView,
        scope: &Scope<'_>,
        seed: u64,
    ) -> SketchResult<Self::Summary>;

    /// Summarize a whole partition view.
    fn summarize(&self, view: &TableView, seed: u64) -> SketchResult<Self::Summary> {
        self.summarize_scoped(view, &Scope::default(), seed)
    }

    /// Summarize the rows of `view` that satisfy `predicate`, with the
    /// predicate fused into the scan.
    fn summarize_filtered(
        &self,
        view: &TableView,
        predicate: &Predicate,
        seed: u64,
    ) -> SketchResult<Self::Summary> {
        let scope = Scope {
            rows: None,
            filter: Some(predicate),
        };
        self.summarize_scoped(view, &scope, seed)
    }

    /// True when this sketch honours bounded scopes, letting the executor
    /// split one partition into row-range sub-tasks and fold the partials
    /// with [`Summary::merge`]. Defaults to `false`: the engine then only
    /// passes bounds covering the whole partition.
    fn splittable(&self) -> bool {
        false
    }

    /// The merge identity (summary of an empty partition).
    fn identity(&self) -> Self::Summary;

    /// Cacheability declaration: `Some(bytes)` when this sketch's summary
    /// is a pure function of `(data, membership, predicate)` — independent
    /// of the seed and of any per-run state — so the engine may serve a
    /// stored result for a repeated identical query. The bytes encode the
    /// sketch's **parameters** (column names, bucket boundaries, k, ...)
    /// and feed the engine's structural query key alongside the canonical
    /// predicate and the dataset version; two sketches with equal names and
    /// equal identity bytes must produce bit-identical summaries on
    /// identical inputs.
    ///
    /// Defaults to `None` (never cached): correct for seed-dependent
    /// kernels (sampling rate < 1), kernels with per-call state, and any
    /// sketch that doesn't opt in.
    fn cache_identity(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Check the mergeability law on concrete data: summarizing the union must
/// equal merging the parts. Exact sketches satisfy this bit-for-bit when
/// given the same effective sampling behaviour; used by tests.
pub fn merge_law_holds<S>(sketch: &S, whole: &TableView, parts: &[TableView], seed: u64) -> bool
where
    S: Sketch,
    S::Summary: PartialEq,
{
    let direct = match sketch.summarize(whole, seed) {
        Ok(s) => s,
        Err(_) => return false,
    };
    let mut merged = sketch.identity();
    for p in parts {
        match sketch.summarize(p, seed) {
            Ok(s) => merged = merged.merge(&s),
            Err(_) => return false,
        }
    }
    direct == merged
}

/// The leaf ranges of the engine's split plan: recursively halve the
/// partition's [`SplittableSelection`](hillview_columnar::SplittableSelection)
/// (within `rows`, if bounded) until each piece holds at most `grain`
/// selected rows, in ascending order. A pure function of
/// `(membership, rows, grain)`.
fn split_ranges(
    view: &TableView,
    rows: Option<(usize, usize)>,
    grain: usize,
) -> Vec<(usize, usize)> {
    use hillview_columnar::SplittableSelection;

    fn collect(part: SplittableSelection<'_>, grain: usize, out: &mut Vec<(usize, usize)>) {
        if part.weight() > grain {
            if let Some((l, r)) = part.split() {
                collect(l, grain, out);
                collect(r, grain, out);
                return;
            }
        }
        out.push(part.bounds());
    }

    let part = match rows {
        None => SplittableSelection::new(view.members()),
        Some((lo, hi)) => SplittableSelection::with_bounds(view.members(), lo, hi),
    };
    let mut ranges = Vec::new();
    collect(part, grain.max(1), &mut ranges);
    ranges
}

/// The split execution plan the engine runs in parallel, executed serially:
/// call [`Sketch::summarize_scoped`] on every leaf range of the plan
/// (computed from the *parent* membership, so a filter in `scope` never
/// changes the plan) and fold the partials ascending from
/// [`Sketch::identity`].
///
/// The leaf set and fold order are fixed, so this is the *reference* the
/// work-stealing executor must reproduce bit-for-bit whatever the thread
/// count or steal order — the parallel-equivalence property tests compare
/// against it. For sketches whose merge is exact (integer counts,
/// lattices) the result also equals the unsplit summary bit-for-bit.
pub fn summarize_split<S: Sketch>(
    sketch: &S,
    view: &TableView,
    scope: &Scope<'_>,
    grain: usize,
    seed: u64,
) -> SketchResult<S::Summary> {
    let mut acc = sketch.identity();
    for rows in split_ranges(view, scope.rows, grain) {
        let leaf = Scope {
            rows: Some(rows),
            filter: scope.filter,
        };
        acc = acc.merge(&sketch.summarize_scoped(view, &leaf, seed)?);
    }
    Ok(acc)
}

/// Check that range-split execution reproduces the whole-partition summary
/// exactly: `summarize_split` at `grain` must equal `summarize`. Holds for
/// every sketch whose merge is exact (bucket counts, lattices, HLL
/// registers); order-sensitive or floating-point-summing sketches
/// (Misra-Gries, moments, PCA) are instead pinned by determinism of the
/// split fold itself. Used by tests.
pub fn split_law_holds<S>(sketch: &S, view: &TableView, grain: usize, seed: u64) -> bool
where
    S: Sketch,
    S::Summary: PartialEq,
{
    match (
        sketch.summarize(view, seed),
        summarize_split(sketch, view, &Scope::default(), grain, seed),
    ) {
        (Ok(direct), Ok(split)) => direct == split,
        _ => false,
    }
}

/// Check the fusion law on concrete data: filtered scopes must reproduce
/// the two-pass execution (filter to a membership set, then sketch)
/// bit-for-bit — both whole-partition and per leaf of the split plan
/// computed from the parent membership. Used by tests.
pub fn fused_law_holds<S>(
    sketch: &S,
    view: &TableView,
    predicate: &Predicate,
    grain: usize,
    seed: u64,
) -> bool
where
    S: Sketch,
    S::Summary: PartialEq,
{
    let Ok(narrowed) = crate::view::filtered_view(view, predicate) else {
        return false;
    };
    let mut ranges = vec![None];
    if sketch.splittable() {
        // Leaf by leaf over the *same* parent-derived ranges: each visits
        // identical rows in identical order, so this holds even for
        // floating-point-summing kernels.
        ranges.extend(split_ranges(view, None, grain).into_iter().map(Some));
    }
    ranges.into_iter().all(|rows| {
        let fused = Scope {
            rows,
            filter: Some(predicate),
        };
        let two_pass = Scope { rows, filter: None };
        match (
            sketch.summarize_scoped(view, &fused, seed),
            sketch.summarize_scoped(&narrowed, &two_pass, seed),
        ) {
            (Ok(f), Ok(t)) => f == t,
            _ => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = SketchError::BadConfig("zero buckets".into());
        assert!(e.to_string().contains("zero buckets"));
        let e: SketchError = hillview_columnar::Error::UnknownColumn("X".into()).into();
        assert!(e.to_string().contains('X'));
    }
}
