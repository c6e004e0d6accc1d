//! # hillview-core
//!
//! The Hillview-RS engine: a distributed execution tree specialized to run
//! vizketches (paper §5), plus the [`Spreadsheet`] facade that maps
//! spreadsheet actions onto it.
//!
//! The cluster is simulated inside one process (the paper's servers become
//! workers with their own thread pools) but keeps the paper's structure
//! and discipline:
//!
//! * **Execution trees** ([`cluster`]): a query fans out from the root to
//!   per-worker aggregation nodes and leaf micropartitions; summaries are
//!   serialized across every edge and merged upward. Nodes propagate
//!   *partially merged* results on a batching interval so the client sees
//!   progressive updates (§5.3), and queries are cancellable (§5.3).
//! * **Workers** ([`worker`]): per-server thread pools executing leaf
//!   summarize calls; all state is soft (§5.7) — datasets live in a cache
//!   keyed by [`DatasetId`] and can vanish at any time.
//! * **Storage independence** ([`dataset`]): data enters via [`DataSource`]
//!   implementations with arbitrary horizontal partitioning (§2).
//! * **Out-of-core storage tiers** ([`HvcDirSource`]): a directory of
//!   `hvc` part files loads *mapped* — headers only at load time, column
//!   payloads faulted in block-granular through a per-worker byte-budgeted
//!   [`BlockCache`](hillview_columnar::BlockCache)
//!   ([`ClusterConfig::block_cache_bytes`], env-overridable with
//!   `HILLVIEW_BLOCK_CACHE_BYTES`) as scans touch them. Zone-map-skipped
//!   blocks are never read at all, so a filtered query over a dataset far
//!   larger than memory faults in only the selected band; results are
//!   bit-identical to heap-resident execution.
//!   [`Cluster::dataset_mapped_bytes`] and [`Cluster::block_cache_stats`]
//!   surface the accounting ([`Cluster::dataset_heap_bytes`] counts only
//!   owned payloads). With the `ooc` cargo feature, mapped columns are
//!   zero-copy mmap windows and cold chunks are evicted past the budget;
//!   without it, a portable pread path lazily fills pinned buffers.
//! * **Caches** ([`worker`], [`cache`]): an in-memory column/data cache
//!   in front of the repository, plus a bounded per-worker LRU
//!   sketch-result cache for deterministic summaries (§5.4), keyed by
//!   structural query identity with single-flight coalescing.
//! * **Fault tolerance** ([`redo`], [`engine`]): the root logs every
//!   dataset-producing operation as a [`Lineage`] record (with seeds), and
//!   that record is the only description of the derivation: workers
//!   materialize it with `derive(id, &Lineage)`, whether it is new or
//!   being replayed. Queries and derivations share one bounded retry loop:
//!   when a worker reports a missing dataset — eviction or restart — the
//!   root lazily replays the lineage on that worker; a dead worker is
//!   restarted and the chain the operation reads is replayed onto it;
//!   other transient faults back off and retry (§5.7–5.8).
//! * **Spreadsheet** ([`spreadsheet`]): the user-facing API — tabular
//!   views, scrolling, filtering, charts, heavy hitters, PCA — implemented
//!   exclusively with vizketches (§7.3: sketches are "the sole way to
//!   access data in the system").
//! * **Fault injection** ([`fault`]): a seeded, deterministic adversary
//!   for the whole tree — frame drops/duplicates/corruption/delays, leaf
//!   panics and stalls, worker kills and evictions — every decision a
//!   pure function of `(seed, epoch, site)` so failing chaos schedules
//!   replay exactly (§5.8).
//!
//! ## Failure semantics
//!
//! Every query terminates in bounded time with exactly one of three
//! outcomes — never a hang, a process abort, or a silently partial
//! answer:
//!
//! 1. **A complete result**, bit-identical to a fault-free run
//!    ([`QueryOutcome::coverage`]` == 1.0`). Transient faults (evictions,
//!    worker crashes, lost or corrupted frames, leaf panics) are healed by
//!    lineage replay and the engine's bounded [`RetryPolicy`]; §5.8
//!    determinism — logged seeds, range-ordered folds — guarantees the
//!    recovered bytes match.
//! 2. **A structured error** ([`EngineError`]): the retry budget is
//!    exhausted ([`EngineError::RetriesExhausted`] wraps the final
//!    cause), the query's [`QueryOptions::deadline`] fires
//!    ([`EngineError::DeadlineExceeded`]), or the failure is
//!    deterministic (bad column, unknown dataset) and retrying would be
//!    pointless.
//! 3. **An honestly-labelled degraded result** (opt-in via
//!    [`QueryOptions::allow_degraded`]): after the retry budget, one
//!    final tree tolerates worker failures and folds the survivors,
//!    reporting `coverage < 1.0` and the excluded
//!    [`QueryOutcome::failed_workers`].
//!
//! The mechanisms behind this: panics are isolated at the pool thread,
//! the leaf task, the aggregation node, and the root's fan-out join
//! (surfacing as retryable [`EngineError::LeafPanicked`], with leaf work
//! weights conserved so lost completions are detected); root-link frames
//! carry checksums so corruption is dropped, duplicated finals are
//! guarded, and re-sends come from the batching loop; aggregation nodes
//! heartbeat every batch tick so the root's per-worker liveness sweep
//! ([`ClusterConfig::worker_timeout`]) converts silence into
//! [`EngineError::WorkerDown`] instead of waiting forever; and the
//! computation cache only ever stores complete, uncancelled folds.
//! The chaos suite (`crates/core/tests/chaos.rs`) drives seeded fault
//! schedules across sketch × fault-class grids to enforce exactly this
//! trichotomy.
//!
//! ## Fused filtered-query planning and the sketch-result cache
//!
//! [`Engine::filter_lazy`] records a filter's lineage without touching
//! the cluster; each query against the lazy dataset makes a three-way,
//! cost-based choice:
//!
//! 1. **Fused** — ship the AND-composed predicate chain down the tree;
//!    every leaf runs the sketch's fused entry point (predicate and
//!    kernel in one block pass, no membership set materialized — see the
//!    `hillview-columnar` crate docs, "Query execution pipeline"). The
//!    first query always fuses: it pays at most one full pass and
//!    materializing could not beat that.
//! 2. **Materialize, then reuse** — from the second query on, the engine
//!    estimates the predicate's per-block cost from zone maps plus a
//!    bounded probe ([`Cluster::estimate_filter`]): fusing costs
//!    `1 − skip_fraction` of a pass per query, while a materialized
//!    membership costs one pass once and `selectivity` per query after.
//!    When the projected fused overhead across the queries seen so far
//!    exceeds the one-time materialization cost, the chain promotes
//!    ancestors-first into cached membership sets and the classic
//!    two-pass path takes over. Non-selective predicates (fused cost ≈
//!    per-query materialized cost) never promote.
//! 3. **Cached membership reuse** — once an ancestor is materialized,
//!    later lazy chains compose only the unmaterialized suffix on top of
//!    it.
//!
//! [`Engine::run_filtered`] exposes the one-shot (always-fused) form
//! directly. Split plans and fold order under fusion are those of the
//! *unfiltered* membership — filtering narrows rows, never renumbers
//! them — so fused execution is deterministic across thread counts.
//!
//! Deterministic summaries land in a per-worker, byte-bounded LRU
//! [`SketchCache`] (§5.4) under a *structural* key: the dataset's
//! lineage-derived content version — for fused trees, the parent version
//! with the predicate's canonical bytes folded in, exactly as
//! materializing the filter would — crossed with the sketch's 128-bit
//! parameter identity. Canonically-equal predicate respellings
//! (AND-operand order, double negation) therefore share entries, while
//! fused and two-pass plans for the same logical query never do (their
//! fold boundaries may legally differ in float ulps, so sharing would
//! make results cache-state-dependent). Identical in-flight queries
//! coalesce onto one scan (single-flight); degraded, cancelled, or
//! failed trees abandon their flight without writing, so the cache only
//! ever stores complete, uncancelled folds. Counters are surfaced via
//! [`Cluster::cache_stats`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod cluster;
pub mod dataset;
pub mod engine;
pub mod erased;
pub mod error;
pub mod fault;
pub mod pool;
pub mod progress;
pub mod redo;
pub mod spreadsheet;
pub mod worker;

pub use cache::{CacheKey, CacheStats, SketchCache};
pub use cluster::{Cluster, ClusterConfig, QueryOptions, QueryOutcome};
pub use dataset::{DataSource, DatasetId, FnSource, HvcDirSource, Lineage, SourceSpec};
pub use engine::{Engine, RetryPolicy};
pub use error::{EngineError, EngineResult};
pub use fault::{FaultAction, FaultPlan, FaultSite, FaultSpec};
pub use progress::CancellationToken;
pub use spreadsheet::{OpStats, Spreadsheet};
