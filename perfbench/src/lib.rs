//! # hillview-perfbench
//!
//! One end-to-end benchmark of the spreadsheet: the paper's Figure 4
//! operations (O1–O11), driven through the public `Spreadsheet` API over an
//! in-process cluster of two workers with one pool thread each, by one
//! client thread in a closed loop. Four workloads each load one layer most:
//!
//! * `explore` — O1–O11 on heap data, sketch caches cleared before every
//!   operation: kernels, leaf pool, merge and the aggregation tree.
//! * `revisit` — O5–O11 with the sketch cache kept warm: cache lookups and
//!   the fixed per-tree floor.
//! * `drilldown` — each pass derives a filtered child with a UDF column and
//!   runs O1–O11 on it: derivations, planner and predicate compilation.
//! * `cold_parts` — spilled hvc part files, everything evicted before each
//!   operation: reopening storage, parsing headers, faulting blocks.
//!
//! An untraced run reports the end-to-end metrics; a traced run records a
//! span around each call into a layer and reports per-layer metrics. The
//! benchmark only calls public functions and reads public counters.

pub mod data;
pub mod json;
pub mod ops;
pub mod run;
pub mod stats;
pub mod trace;

pub use run::{run, Config, Outcome, Workload, WORKLOADS};
