//! # hillview-sketch
//!
//! The mergeable-summary substrate of Hillview-RS.
//!
//! Paper §4.1: *"a mergeable summarization method consists of two functions
//! `summarize(D)` and `merge(S, S')` ... `summarize(D1 ⊎ D2) =
//! merge(summarize(D1), summarize(D2))`."* Every query in Hillview — charts,
//! tabular views, auxiliary statistics — is expressed as such a pair, which
//! is what lets the engine parallelize blindly and stream partial results.
//!
//! This crate contains the summarization algorithms themselves, independent
//! of display resolution (the `hillview-viz` crate layers the
//! visualization-driven parameter choices on top):
//!
//! * [`histogram`]/[`heatmap`]/[`stacked`] — bucket-count kernels, exact
//!   (streaming) and sampled.
//! * [`moments`]/[`range`] — column statistics (App. B.3 "Moments").
//! * [`distinct`] — HyperLogLog distinct counting (App. B.3).
//! * [`heavy`] — Misra-Gries and sampling heavy hitters (App. B.2/C.3).
//! * [`bottomk`] — bottom-k sampling over distinct strings, for equi-width
//!   string buckets (App. B.1).
//! * [`quantile`] — sampled quantiles for the scroll bar (App. C.1).
//! * [`nextk`] — the "next K items" tabular-view summary (§4.3).
//! * [`find`] — find-text in sort order (App. B.2).
//! * [`pca`] — sampled correlation-matrix sketch plus a Jacobi eigensolver
//!   for principal component analysis (App. B.3).
//!
//! All summaries implement the [`Summary`] merge law (property-tested) and
//! [`Wire`](hillview_net::Wire) serialization, and all randomized sketches
//! are deterministic in an explicit seed — the engine's replay-based fault
//! tolerance depends on that (paper §5.8).
//!
//! ## Writing a vizketch
//!
//! Implement [`Summary::merge`] on the summary type, and on the sketch
//! [`Sketch::summarize_scoped`] and [`Sketch::identity`]. The engine owns
//! partitioning, splitting and filtering (paper §4.1, §5.5): every call it
//! makes goes through `summarize_scoped(view, &scope, seed)`, and
//! [`Sketch::summarize`]/[`Sketch::summarize_filtered`] are provided
//! wrappers over it. A [`Scope`] names the rows one call covers; the
//! contract for honouring it:
//!
//! * **Tiling.** `scope.rows = Some((lo, hi))` bounds the scan to absolute
//!   partition rows `lo..hi`. Folding consecutive bounded summaries
//!   ascending from `identity()` must be a valid summary of the whole
//!   partition — bit-identical to the unbounded one when the merge is
//!   exact. Bounded scopes only arrive when [`Sketch::splittable`] returns
//!   `true`; otherwise the bounds cover the whole partition.
//! * **Fusion.** `scope.filter = Some(p)` must give exactly the summary of
//!   the two-pass execution: materialize `p` with [`filtered_view`], then
//!   summarize with the same bounds. Filtering narrows rows but never
//!   renumbers them, so bounds stay valid under a filter.
//! * **Sampling.** Sampled kernels draw one partition-wide sample from the
//!   seed and clip it to the bounds — never re-sample a sub-range — so
//!   split execution stays deterministic. Under a filter the sample must
//!   come from the filtered rows.
//!
//! In-crate kernels get all three from one helper, `Scope::scan`: it builds
//! the bounded selection (or clipped sample), fuses the compiled filter
//! into it and falls back to the two-pass path for sampled filtered
//! scopes; `Scope::scan_counted` also reports the scanned row count. The
//! equivalence suites under
//! `tests/` pin every kernel against the contract.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod bind;
pub mod bottomk;
pub mod buckets;
pub mod count;
pub mod distinct;
pub mod eigen;
pub mod find;
pub mod hashutil;
pub mod heatmap;
pub mod heavy;
pub mod histogram;
pub mod moments;
pub mod nextk;
pub mod pca;
pub mod quantile;
pub mod range;
pub mod stacked;
pub mod traits;
pub mod view;

pub use buckets::BucketSpec;
pub use traits::{Sketch, SketchError, SketchResult, Summary};
pub use view::{filtered_view, Scope, TableView};
