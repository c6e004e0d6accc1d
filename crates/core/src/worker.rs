//! Worker nodes: per-server soft state, caches, and leaf execution.
//!
//! A worker models one server of the paper's testbed: it owns a slice of
//! every dataset (as micropartition [`TableView`]s), a thread pool that
//! executes leaf `summarize` calls, an in-memory data cache, and a
//! bounded sketch-result cache for deterministic summaries (§5.4,
//! [`SketchCache`]). All of it is soft state (§5.7): `evict_all`/`kill`
//! erase it, and the root reconstructs it by replaying lineage.
//!
//! Datasets come into being through one entry point,
//! [`Worker::derive`]`(id, &Lineage)`: the root's redo-log record is the
//! only description of a load, filter or map, so a fresh derivation and a
//! lineage replay run the same code. Every materialized dataset carries a
//! content *version*, a pure function of its lineage record and its
//! parent's version: loads hash the source spec, filters fold the parent
//! version with the predicate's canonical bytes, maps fold the UDF and
//! column names. The version is what makes cache keys structural — two
//! queries share an entry exactly when their lineage proves identical
//! contents.

use crate::cache::{CacheStats, SketchCache};
use crate::dataset::{DatasetId, Lineage, SourceRegistry, SourceSpec};
use crate::error::{EngineError, EngineResult};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::pool::ThreadPool;
use hillview_columnar::predicate::filter_members;
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{fnv1a, BlockCache, BlockCacheStats, Predicate, Table, FNV_OFFSET};
use hillview_sketch::TableView;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One materialized dataset on a worker: its partitions plus the
/// lineage-derived content version the sketch cache keys on.
struct DatasetEntry {
    views: Arc<Vec<TableView>>,
    version: u64,
}

/// Content version of the dataset `lineage` derives, a pure function of
/// the lineage record and the parent's version (`parent`; ignored for
/// loads). A load hashes its source spec, so a reload after eviction
/// revalidates old cache entries. A filter chains the parent version with
/// the predicate's *canonical* bytes — And/Or order, double negation, and
/// compiler-equivalent numeric bounds all collapse to one identity; `table`
/// is a parent table the predicate canonicalizes against. A map chains the
/// UDF and the new column's name.
fn content_version(lineage: &Lineage, parent: u64, table: Option<&Table>) -> u64 {
    match lineage {
        Lineage::Loaded { spec } => {
            let h = fnv1a(FNV_OFFSET, b"load\0");
            let h = fnv1a(h, spec.source.as_bytes());
            fnv1a(h, &spec.snapshot.to_le_bytes())
        }
        Lineage::Filtered { predicate, .. } => {
            let h = fnv1a(parent, b"filter\0");
            fnv1a(h, &predicate.canonical_bytes(table))
        }
        Lineage::Mapped {
            udf, new_column, ..
        } => {
            let h = fnv1a(parent, b"map\0");
            let h = fnv1a(h, udf.as_bytes());
            let h = fnv1a(h, &[0]);
            fnv1a(h, new_column.as_bytes())
        }
    }
}

/// One simulated server.
pub struct Worker {
    /// Worker index within the cluster.
    pub id: usize,
    num_workers: usize,
    micropartition_rows: usize,
    pool: Arc<ThreadPool>,
    datasets: Mutex<HashMap<DatasetId, DatasetEntry>>,
    comp_cache: SketchCache,
    /// Byte-budgeted residency cache for out-of-core (mapped) datasets:
    /// every chunk a scan faults in is charged here, and under the `ooc`
    /// feature cold chunks past the budget are evicted back to the file.
    /// Unused (zero-cost) when every source is in-memory.
    block_cache: Arc<BlockCache>,
    alive: AtomicBool,
    sources: SourceRegistry,
    udfs: UdfRegistry,
    /// Cumulative rows loaded from sources (diagnostics).
    rows_loaded: AtomicU64,
    /// Cumulative encoded bytes of loaded datasets (footprint diagnostics).
    bytes_loaded: AtomicU64,
    /// Leaf sub-tasks executed on this worker's pool (diagnostics: a value
    /// above the partition count proves intra-partition splitting ran).
    leaf_tasks: AtomicU64,
    /// Armed fault plan, if any (chaos tests; `None` in production).
    faults: Mutex<Option<Arc<FaultPlan>>>,
    /// Engine-visible operations handled so far — the "Nth message"
    /// counter fault plans key kill/evict decisions on.
    ops: AtomicU64,
}

impl Worker {
    /// Create a worker with `threads` pool threads, a sketch-result
    /// cache bounded at `cache_budget` bytes, and a block-residency cache
    /// bounded at `block_cache_budget` bytes (`0` means unbounded).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        num_workers: usize,
        threads: usize,
        micropartition_rows: usize,
        cache_budget: usize,
        block_cache_budget: usize,
        sources: SourceRegistry,
        udfs: UdfRegistry,
    ) -> Self {
        Worker {
            id,
            num_workers,
            micropartition_rows,
            pool: Arc::new(ThreadPool::new(threads, &format!("worker{id}"))),
            datasets: Mutex::new(HashMap::new()),
            comp_cache: SketchCache::new(cache_budget),
            block_cache: if block_cache_budget == 0 {
                BlockCache::unbounded()
            } else {
                BlockCache::new(block_cache_budget)
            },
            alive: AtomicBool::new(true),
            sources,
            udfs,
            rows_loaded: AtomicU64::new(0),
            bytes_loaded: AtomicU64::new(0),
            leaf_tasks: AtomicU64::new(0),
            faults: Mutex::new(None),
            ops: AtomicU64::new(0),
        }
    }

    /// Arm a fault plan on this worker (kill/evict at operation
    /// boundaries, panic/stall at leaf tasks).
    pub fn arm_faults(&self, plan: Arc<FaultPlan>) {
        *self.faults.lock() = Some(plan);
    }

    /// Remove any armed fault plan.
    pub fn disarm_faults(&self) {
        *self.faults.lock() = None;
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().clone()
    }

    /// Fault-injection point at an engine-visible operation boundary
    /// (a derivation or a query fan-out). Consults the armed plan with
    /// this worker's next operation index; a `Kill` decision crashes the
    /// worker, an `Evict` decision drops `dataset`'s soft state. Both then
    /// surface through the ordinary failure paths (`WorkerDown`,
    /// `DatasetMissing`) that recovery already handles.
    pub(crate) fn fault_op(&self, dataset: DatasetId) {
        let Some(plan) = self.fault_plan() else {
            return;
        };
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        match plan.decide(FaultSite::WorkerOp {
            worker: self.id,
            index,
        }) {
            Some(FaultAction::Kill) => self.kill(),
            Some(FaultAction::Evict) => self.evict(dataset),
            _ => {}
        }
    }

    /// Fault-injection point at the head of a leaf sub-task; returns a
    /// panic/stall decision for the leaf identified by its deterministic
    /// split coordinates.
    pub(crate) fn leaf_fault(&self, partition: u32, lo: usize) -> Option<FaultAction> {
        let plan = self.fault_plan()?;
        match plan.decide(FaultSite::Leaf {
            worker: self.id,
            partition,
            lo: lo as u64,
        }) {
            a @ Some(FaultAction::PanicLeaf) | a @ Some(FaultAction::StallLeaf(_)) => a,
            _ => None,
        }
    }

    /// The worker's thread pool (used by the execution tree for leaves).
    /// Shared so leaf tasks can re-submit their split halves.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Leaf sub-tasks executed so far (diagnostics; exceeds the partition
    /// count of a query exactly when intra-partition splitting happened).
    pub fn leaf_tasks_executed(&self) -> u64 {
        // lint: allow(relaxed, monotonic diagnostics counter; no data is published through it)
        self.leaf_tasks.load(Ordering::Relaxed)
    }

    /// Record one executed leaf sub-task.
    pub(crate) fn note_leaf_task(&self) {
        // lint: allow(relaxed, monotonic diagnostics counter; no data is published through it)
        self.leaf_tasks.fetch_add(1, Ordering::Relaxed);
    }

    /// True while the worker is up.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Fault injection: the worker "crashes" — all soft state is lost and
    /// queries against it fail until [`Worker::restart`].
    pub fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
        self.datasets.lock().clear();
        self.comp_cache.clear();
    }

    /// Bring a crashed worker back, empty ("Worker nodes are stateless, so
    /// restarting the node after a failure is equivalent to deleting all
    /// cached datasets", §5.8).
    pub fn restart(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }

    /// Drop all cached datasets but stay alive — models cache expiry or
    /// memory pressure; the next query triggers lazy reconstruction.
    pub fn evict_all(&self) {
        self.datasets.lock().clear();
        self.comp_cache.clear();
    }

    /// Drop one dataset and its cached summaries.
    pub fn evict(&self, id: DatasetId) {
        self.datasets.lock().remove(&id);
        self.comp_cache.evict_dataset(id);
    }

    /// Whether the worker currently materializes `id`.
    pub fn has_dataset(&self, id: DatasetId) -> bool {
        self.datasets.lock().contains_key(&id)
    }

    /// This worker's partitions of `id`, if materialized.
    pub fn partitions(&self, id: DatasetId) -> Option<Arc<Vec<TableView>>> {
        self.datasets.lock().get(&id).map(|e| e.views.clone())
    }

    /// The lineage-derived content version of `id`, if materialized.
    pub fn dataset_version(&self, id: DatasetId) -> Option<u64> {
        self.datasets.lock().get(&id).map(|e| e.version)
    }

    /// The content version a filter of `parent` by `predicate` would
    /// carry — the exact version [`Worker::derive`] assigns, computed
    /// without materializing anything. Fused queries key their cache
    /// entries on it, so a canonically-equal predicate hits the same
    /// entry whether or not the membership was ever materialized under a
    /// different textual spelling.
    pub fn filtered_version(&self, parent: DatasetId, predicate: &Predicate) -> Option<u64> {
        let (views, version) = self.entry(parent)?;
        let lineage = Lineage::Filtered {
            parent,
            predicate: predicate.clone(),
        };
        let table = views.first().map(|v| v.table().as_ref());
        Some(content_version(&lineage, version, table))
    }

    /// `id`'s partitions and content version, if materialized.
    fn entry(&self, id: DatasetId) -> Option<(Arc<Vec<TableView>>, u64)> {
        let d = self.datasets.lock();
        d.get(&id).map(|e| (e.views.clone(), e.version))
    }

    /// Total rows across this worker's partitions of `id`.
    pub fn dataset_rows(&self, id: DatasetId) -> usize {
        self.partitions(id)
            .map(|p| p.iter().map(|v| v.len()).sum())
            .unwrap_or(0)
    }

    /// Approximate in-memory footprint of this worker's partitions of `id`,
    /// in bytes. Reflects the *encoded* column payloads (compressed columns
    /// report their packed size), so tests and capacity planning can assert
    /// the compression ratio a load achieved. Mapped (out-of-core) columns
    /// are *excluded* — they are file windows, not heap; see
    /// [`Worker::dataset_mapped_bytes`].
    pub fn dataset_heap_bytes(&self, id: DatasetId) -> usize {
        self.partitions(id)
            .map(|p| p.iter().map(|v| v.table().heap_bytes()).sum())
            .unwrap_or(0)
    }

    /// Bytes of `id`'s partitions that are windows over mapped files
    /// rather than owned heap payloads — the out-of-core complement of
    /// [`Worker::dataset_heap_bytes`]. Counts the *addressable* span;
    /// how much of it is actually resident is a property of the
    /// [`Worker::block_cache`], not the dataset.
    pub fn dataset_mapped_bytes(&self, id: DatasetId) -> usize {
        self.partitions(id)
            .map(|p| p.iter().map(|v| v.table().mapped_bytes()).sum())
            .unwrap_or(0)
    }

    /// The worker's block-residency cache (out-of-core sources charge
    /// faulted chunks here).
    pub fn block_cache(&self) -> &Arc<BlockCache> {
        &self.block_cache
    }

    /// Counter snapshot of the block-residency cache.
    pub fn block_cache_stats(&self) -> BlockCacheStats {
        self.block_cache.stats()
    }

    /// Rows loaded from sources so far.
    pub fn rows_loaded(&self) -> u64 {
        // lint: allow(relaxed, monotonic diagnostics counter; no data is published through it)
        self.rows_loaded.load(Ordering::Relaxed)
    }

    /// Encoded bytes of datasets loaded from sources so far (the in-memory
    /// footprint counterpart of [`Worker::rows_loaded`]).
    pub fn bytes_loaded(&self) -> u64 {
        // lint: allow(relaxed, monotonic diagnostics counter; no data is published through it)
        self.bytes_loaded.load(Ordering::Relaxed)
    }

    /// Sketch-result cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.comp_cache.stats().hits
    }

    /// The worker's sketch-result cache (execution tree, tests).
    pub fn cache(&self) -> &SketchCache {
        &self.comp_cache
    }

    /// Counter snapshot of the sketch-result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.comp_cache.stats()
    }

    fn check_alive(&self) -> EngineResult<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(EngineError::WorkerDown(self.id))
        }
    }

    /// Materialize `id` on this worker as its redo-log record `lineage`
    /// describes — the one derivation entry point, used for fresh
    /// derivations and lineage replay alike (paper §5.7).
    ///
    /// * A load reads this worker's partitions from the source (the leaf
    ///   of every lineage chain: "the recursion ends when data is read
    ///   from disk").
    /// * A filter keeps the parent's tables and narrows each partition's
    ///   membership with the block-wise predicate pipeline
    ///   ([`hillview_columnar::predicate::filter_members`]): frame-word
    ///   evaluation with zone-map block skipping, intersected word-wise
    ///   with the parent membership (§5.6).
    /// * A map adds a column computed by the named UDF to each
    ///   partition's table (§5.6); it lives only in this soft state.
    ///
    /// A missing parent is [`EngineError::DatasetMissing`], which the
    /// engine heals by replaying the parent's chain first.
    pub fn derive(&self, id: DatasetId, lineage: &Lineage) -> EngineResult<()> {
        self.fault_op(lineage.parent().unwrap_or(id));
        self.check_alive()?;
        let (views, version) = match lineage {
            Lineage::Loaded { spec } => (self.load_views(spec)?, content_version(lineage, 0, None)),
            Lineage::Filtered { parent, predicate } => {
                let (parents, version) = self.parent_entry(*parent)?;
                let table = parents.first().map(|v| v.table().as_ref());
                let version = content_version(lineage, version, table);
                let predicate = predicate.clone();
                let views = self.derive_partitions(&parents, move |view| {
                    let members = filter_members(view.table(), &predicate, view.members())?;
                    Ok(TableView::with_members(
                        view.table().clone(),
                        Arc::new(members),
                    ))
                })?;
                (views, version)
            }
            Lineage::Mapped {
                parent,
                udf,
                new_column,
            } => {
                let (parents, version) = self.parent_entry(*parent)?;
                let version = content_version(lineage, version, None);
                let (udfs, udf, new_column) = (self.udfs.clone(), udf.clone(), new_column.clone());
                let views = self.derive_partitions(&parents, move |view| {
                    let col = udfs
                        .materialize(&udf, view.table())
                        .map_err(EngineError::from)?;
                    let table = view.table().with_column(&new_column, col)?;
                    Ok(TableView::with_members(
                        Arc::new(table),
                        view.members().clone(),
                    ))
                })?;
                (views, version)
            }
        };
        self.datasets.lock().insert(
            id,
            DatasetEntry {
                views: Arc::new(views),
                version,
            },
        );
        Ok(())
    }

    /// The parent a derivation reads, or the miss the engine replays.
    fn parent_entry(&self, parent: DatasetId) -> EngineResult<(Arc<Vec<TableView>>, u64)> {
        self.entry(parent).ok_or(EngineError::DatasetMissing {
            worker: self.id,
            dataset: parent,
        })
    }

    /// This worker's partitions of a source snapshot, with oversized
    /// tables split into micropartitions (paper §5.3) — except mapped
    /// tables: slicing decodes every value, which would fault the whole
    /// file in. They stay one partition and rely on intra-partition leaf
    /// splitting for parallelism.
    fn load_views(&self, spec: &SourceSpec) -> EngineResult<Vec<TableView>> {
        let source = self.sources.get(&spec.source)?;
        let tables = source.load_with_cache(
            self.id,
            self.num_workers,
            self.micropartition_rows,
            spec.snapshot,
            &self.block_cache,
        )?;
        let mut views = Vec::new();
        for t in tables {
            if t.num_rows() > self.micropartition_rows && t.mapped_bytes() == 0 {
                for part in hillview_storage::partition_table(&t, self.micropartition_rows) {
                    views.push(TableView::full(Arc::new(part)));
                }
            } else {
                views.push(TableView::full(Arc::new(t)));
            }
        }
        let rows: usize = views.iter().map(|v| v.len()).sum();
        let bytes: usize = views.iter().map(|v| v.table().heap_bytes()).sum();
        // lint: allow(relaxed, monotonic diagnostics counters; the dataset itself is published via the mutex in `derive`)
        self.rows_loaded.fetch_add(rows as u64, Ordering::Relaxed);
        // lint: allow(relaxed, monotonic diagnostics counters; the dataset itself is published via the mutex in `derive`)
        self.bytes_loaded.fetch_add(bytes as u64, Ordering::Relaxed);
        Ok(views)
    }

    /// Apply `f` to every parent partition in parallel on the pool and
    /// gather the results in partition order; the first error wins.
    fn derive_partitions(
        &self,
        parents: &[TableView],
        f: impl Fn(&TableView) -> EngineResult<TableView> + Send + Sync + 'static,
    ) -> EngineResult<Vec<TableView>> {
        let f = Arc::new(f);
        let n = parents.len();
        let (tx, rx) = crossbeam::channel::bounded(n.max(1));
        for (i, view) in parents.iter().enumerate() {
            let (view, f, tx) = (view.clone(), f.clone(), tx.clone());
            self.pool.submit(move || {
                let _ = tx.send((i, f(&view)));
            });
        }
        drop(tx);
        let mut out: Vec<Option<TableView>> = vec![None; n];
        for _ in 0..n {
            // A panicking task drops its sender unsent; once every other
            // task has reported, the channel disconnects.
            let (i, r) = rx.recv().map_err(|_| EngineError::WorkerDown(self.id))?;
            out[i] = Some(r?);
        }
        out.into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.ok_or_else(|| {
                    EngineError::Internal(format!("derivation produced no partition {i}"))
                })
            })
            .collect()
    }
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Worker{}(alive={}, datasets={})",
            self.id,
            self.is_alive(),
            self.datasets.lock().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FnSource;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::{ColumnKind, Table, Value};

    fn test_worker() -> Arc<Worker> {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("nums", |w, _n, _mp, _snap| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (0..100).map(|i| Some(i + w as i64 * 1000)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let mut udfs = UdfRegistry::with_builtins();
        udfs.register_sum("X2", "X", "X");
        Arc::new(Worker::new(0, 2, 2, 30, 1 << 20, 0, sources, udfs))
    }

    fn spec() -> SourceSpec {
        SourceSpec {
            source: Arc::from("nums"),
            snapshot: 0,
        }
    }

    fn load(spec: SourceSpec) -> Lineage {
        Lineage::Loaded { spec }
    }

    fn filter(parent: u64, predicate: Predicate) -> Lineage {
        Lineage::Filtered {
            parent: DatasetId(parent),
            predicate,
        }
    }

    fn map(parent: u64, udf: &str, new_column: &str) -> Lineage {
        Lineage::Mapped {
            parent: DatasetId(parent),
            udf: Arc::from(udf),
            new_column: Arc::from(new_column),
        }
    }

    #[test]
    fn load_splits_into_micropartitions() {
        let w = test_worker();
        w.derive(DatasetId(1), &load(spec())).unwrap();
        let parts = w.partitions(DatasetId(1)).unwrap();
        assert_eq!(parts.len(), 4, "100 rows at 30/partition");
        assert_eq!(w.dataset_rows(DatasetId(1)), 100);
        assert_eq!(w.rows_loaded(), 100);
    }

    #[test]
    fn load_reports_compressed_footprint() {
        // A sorted low-cardinality column: the encoding layer must land the
        // dataset at a fraction of the 8-bytes-per-value plain footprint.
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("sorted", |_w, _n, _mp, _snap| {
            let t = Table::builder()
                .column(
                    "Bucket",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options((0..40_000).map(|i| Some(i / 100)))),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let w = Arc::new(Worker::new(
            0,
            1,
            1,
            10_000,
            1 << 20,
            0,
            sources,
            UdfRegistry::with_builtins(),
        ));
        w.derive(
            DatasetId(1),
            &load(SourceSpec {
                source: Arc::from("sorted"),
                snapshot: 0,
            }),
        )
        .unwrap();
        let plain_bytes = 40_000 * 8;
        let actual = w.dataset_heap_bytes(DatasetId(1));
        assert!(actual > 0);
        assert!(
            actual * 4 <= plain_bytes,
            "footprint {actual} not >=4x below plain {plain_bytes}"
        );
        assert_eq!(w.bytes_loaded(), actual as u64);
        w.evict(DatasetId(1));
        assert_eq!(w.dataset_heap_bytes(DatasetId(1)), 0);
    }

    #[test]
    fn filter_narrows_membership() {
        let w = test_worker();
        w.derive(DatasetId(1), &load(spec())).unwrap();
        w.derive(DatasetId(2), &filter(1, Predicate::range("X", 0.0, 50.0)))
            .unwrap();
        assert_eq!(w.dataset_rows(DatasetId(2)), 50);
        // Parent untouched.
        assert_eq!(w.dataset_rows(DatasetId(1)), 100);
        // Tables are shared, not copied.
        let p1 = w.partitions(DatasetId(1)).unwrap();
        let p2 = w.partitions(DatasetId(2)).unwrap();
        assert!(Arc::ptr_eq(p1[0].table(), p2[0].table()));
    }

    #[test]
    fn map_adds_derived_column() {
        let w = test_worker();
        w.derive(DatasetId(1), &load(spec())).unwrap();
        w.derive(DatasetId(3), &map(1, "X2", "Doubled")).unwrap();
        let parts = w.partitions(DatasetId(3)).unwrap();
        let t = parts[0].table();
        assert_eq!(t.get(5, "Doubled").unwrap(), Value::Double(10.0));
        assert_eq!(t.num_columns(), 2);
    }

    #[test]
    fn scripted_faults_evict_then_kill_surface_as_structured_errors() {
        let w = test_worker();
        w.derive(DatasetId(1), &load(spec())).unwrap();
        w.arm_faults(Arc::new(FaultPlan::scripted([
            (
                FaultSite::WorkerOp {
                    worker: 0,
                    index: 0,
                },
                FaultAction::Evict,
            ),
            (
                FaultSite::WorkerOp {
                    worker: 0,
                    index: 1,
                },
                FaultAction::Kill,
            ),
        ])));
        // Op 0: the parent is evicted right before the filter reads it.
        let err = w
            .derive(DatasetId(2), &filter(1, Predicate::range("X", 0.0, 50.0)))
            .unwrap_err();
        assert!(matches!(err, EngineError::DatasetMissing { .. }), "{err}");
        // Op 1: the worker is killed at the next boundary.
        let err = w.derive(DatasetId(1), &load(spec())).unwrap_err();
        assert!(matches!(err, EngineError::WorkerDown(0)), "{err}");
        // Disarmed + restarted, the worker heals completely.
        w.disarm_faults();
        w.restart();
        w.derive(DatasetId(1), &load(spec())).unwrap();
        assert_eq!(w.dataset_rows(DatasetId(1)), 100);
    }

    #[test]
    fn filter_of_filter_composes() {
        let w = test_worker();
        w.derive(DatasetId(1), &load(spec())).unwrap();
        w.derive(DatasetId(2), &filter(1, Predicate::range("X", 0.0, 50.0)))
            .unwrap();
        w.derive(DatasetId(3), &filter(2, Predicate::range("X", 25.0, 100.0)))
            .unwrap();
        assert_eq!(w.dataset_rows(DatasetId(3)), 25);
    }

    #[test]
    fn missing_parent_reports_dataset_missing() {
        let w = test_worker();
        let e = w
            .derive(DatasetId(9), &filter(8, Predicate::True))
            .unwrap_err();
        assert!(matches!(
            e,
            EngineError::DatasetMissing {
                dataset: DatasetId(8),
                ..
            }
        ));
    }

    #[test]
    fn kill_drops_state_and_rejects_work() {
        let w = test_worker();
        w.derive(DatasetId(1), &load(spec())).unwrap();
        w.kill();
        assert!(!w.is_alive());
        assert!(!w.has_dataset(DatasetId(1)));
        assert!(matches!(
            w.derive(DatasetId(1), &load(spec())),
            Err(EngineError::WorkerDown(0))
        ));
        w.restart();
        assert!(w.is_alive());
        assert!(
            !w.has_dataset(DatasetId(1)),
            "restart does not restore data"
        );
        w.derive(DatasetId(1), &load(spec())).unwrap();
        assert_eq!(w.dataset_rows(DatasetId(1)), 100);
    }

    #[test]
    fn eviction_is_soft() {
        let w = test_worker();
        w.derive(DatasetId(1), &load(spec())).unwrap();
        w.evict(DatasetId(1));
        assert!(!w.has_dataset(DatasetId(1)));
        assert!(w.is_alive(), "eviction is not a crash");
    }

    #[test]
    fn sketch_cache_round_trip_and_eviction() {
        use crate::cache::{CacheKey, Lookup};
        use bytes::Bytes;
        let w = test_worker();
        let key = CacheKey {
            dataset: DatasetId(1),
            version: 42,
            query: [7, 8],
        };
        match w.cache().lookup(key) {
            Lookup::Miss(g) => g.complete(Bytes::from_static(b"summary")),
            _ => panic!("fresh cache must miss"),
        }
        match w.cache().lookup(key) {
            Lookup::Hit(b) => assert_eq!(b, Bytes::from_static(b"summary")),
            _ => panic!("stored entry must hit"),
        }
        assert_eq!(w.cache_hits(), 1);
        w.evict(DatasetId(1));
        assert!(
            matches!(w.cache().lookup(key), Lookup::Miss(_)),
            "evicting the dataset drops its cache entries"
        );
    }

    #[test]
    fn dataset_versions_chain_through_lineage() {
        let w = test_worker();
        w.derive(DatasetId(1), &load(spec())).unwrap();
        let base = w.dataset_version(DatasetId(1)).unwrap();
        // Reload after eviction: same spec, same version.
        w.evict(DatasetId(1));
        w.derive(DatasetId(1), &load(spec())).unwrap();
        assert_eq!(w.dataset_version(DatasetId(1)).unwrap(), base);
        // A different snapshot is different content.
        w.derive(
            DatasetId(5),
            &load(SourceSpec {
                source: Arc::from("nums"),
                snapshot: 1,
            }),
        )
        .unwrap();
        assert_ne!(w.dataset_version(DatasetId(5)).unwrap(), base);
        // Canonically-equal predicates derive the same filtered version;
        // semantically distinct ones never do.
        let a = Predicate::range("X", 0.0, 50.0).and(Predicate::range("X", 10.0, 100.0));
        let b = Predicate::range("X", 10.0, 100.0).and(Predicate::range("X", 0.0, 50.0));
        let c = Predicate::range("X", 0.0, 49.0);
        let va = w.filtered_version(DatasetId(1), &a).unwrap();
        assert_eq!(va, w.filtered_version(DatasetId(1), &b).unwrap());
        assert_ne!(va, w.filtered_version(DatasetId(1), &c).unwrap());
        // Materializing the filter assigns exactly the predicted version.
        w.derive(DatasetId(2), &filter(1, a)).unwrap();
        assert_eq!(w.dataset_version(DatasetId(2)).unwrap(), va);
        // Mapped datasets fold the UDF identity in.
        w.derive(DatasetId(3), &map(1, "X2", "Doubled")).unwrap();
        let vm = w.dataset_version(DatasetId(3)).unwrap();
        assert_ne!(vm, base);
        w.derive(DatasetId(4), &map(1, "X2", "Tripled")).unwrap();
        assert_ne!(w.dataset_version(DatasetId(4)).unwrap(), vm);
    }

    #[test]
    fn unknown_source_is_unregistered() {
        let w = test_worker();
        let bad = SourceSpec {
            source: Arc::from("nope"),
            snapshot: 0,
        };
        assert!(matches!(
            w.derive(DatasetId(1), &load(bad)),
            Err(EngineError::Unregistered(_))
        ));
    }

    #[test]
    fn unknown_udf_errors() {
        let w = test_worker();
        w.derive(DatasetId(1), &load(spec())).unwrap();
        assert!(w.derive(DatasetId(2), &map(1, "nope", "Y")).is_err());
    }
}
