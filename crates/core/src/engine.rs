//! The root-node engine: dataset management, query execution, recovery.
//!
//! [`Engine`] wraps a [`Cluster`] with the root's durable state — the redo
//! log and dataset-id allocator — and implements the paper's lazy recovery
//! protocol (§5.7). Every dataset-producing operation records a
//! [`Lineage`] and materializes it with `derive(id, &Lineage)`; replay
//! runs the same derivation from the same record on one worker. Queries
//! and derivations share one bounded retry loop that owns the whole
//! failure classification: when a worker reports a missing dataset, the
//! root replays the lineage chain *on that worker only* and retries; when
//! a worker is down, it is restarted stateless (§5.8) and the chain the
//! operation reads is replayed onto it; other transient faults back off
//! and retry.

use crate::cluster::{Cluster, QueryOptions, QueryOutcome};
use crate::dataset::{DatasetId, Lineage, SourceSpec};
use crate::erased::{erase, ErasedSketch};
use crate::error::{EngineError, EngineResult};
use crate::redo::RedoLog;
use hillview_columnar::{Predicate, SelectivityEstimate};
use hillview_net::Wire;
use hillview_sketch::Sketch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bounded retry with exponential backoff, replacing the old ad-hoc
/// fixed-count recovery loops. An attempt is retried only when its error
/// [`EngineError::is_retryable`] — transient infrastructure faults — and
/// the budget is hard: once exhausted the caller gets
/// [`EngineError::RetriesExhausted`] wrapping the final failure (or, under
/// [`QueryOptions::allow_degraded`], a coverage-labelled partial result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts, including the first. `1` means never retry.
    pub attempts: u32,
    /// Sleep before the first retry; doubles on each subsequent retry.
    pub base_backoff: Duration,
    /// Cap on the per-retry sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (tests observing raw failures).
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            ..Default::default()
        }
    }

    /// Backoff before 1-based retry number `retry`:
    /// `base_backoff * 2^(retry-1)`, capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        self.base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff)
    }
}

/// A filter derivation whose membership has not been materialized: queries
/// against it compile the predicate into the sketch's own block pass.
struct PendingFilter {
    parent: DatasetId,
    predicate: Predicate,
    /// Queries served so far; from the second query on, the planner
    /// weighs fused per-query cost against one-time materialization
    /// ([`Engine::plan_query`]).
    queries: u32,
    /// Zone-map + probe selectivity estimate for the *composed* chain,
    /// computed on the second query and reused for every later promotion
    /// decision — tagged with the root dataset's version fingerprint at
    /// estimation time, so a reload under the same id (new snapshot, new
    /// lineage version) invalidates it instead of steering the planner
    /// with statistics of data that no longer exists.
    estimate: Option<(u64, SelectivityEstimate)>,
}

/// The root node: cluster + redo log + recovery.
pub struct Engine {
    cluster: Arc<Cluster>,
    log: RedoLog,
    next_id: AtomicU64,
    /// Lazily-derived filtered datasets ([`Engine::filter_lazy`]): the id
    /// exists only in the redo log and this table until promoted.
    pending_filters: parking_lot::Mutex<HashMap<DatasetId, PendingFilter>>,
    /// Restart dead workers automatically during queries (on by default;
    /// tests can disable it to observe raw failures).
    pub auto_recover: bool,
    /// Retry budget of the retry loop every query and derivation runs in.
    pub retry: RetryPolicy,
}

impl Engine {
    /// Wrap a cluster.
    pub fn new(cluster: Arc<Cluster>) -> Self {
        Engine {
            cluster,
            log: RedoLog::new(),
            next_id: AtomicU64::new(1),
            pending_filters: parking_lot::Mutex::new(HashMap::new()),
            auto_recover: true,
            retry: RetryPolicy::default(),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The redo log (read-only access for inspection).
    pub fn redo_log(&self) -> &RedoLog {
        &self.log
    }

    fn fresh_id(&self) -> DatasetId {
        DatasetId(self.next_id.fetch_add(1, Ordering::SeqCst))
    }

    /// Load a dataset from a registered source on every worker; logged.
    pub fn load(&self, source: &str, snapshot: u64) -> EngineResult<DatasetId> {
        let id = self.fresh_id();
        let spec = SourceSpec {
            source: Arc::from(source),
            snapshot,
        };
        self.derive(id, Lineage::Loaded { spec })?;
        Ok(id)
    }

    /// Re-load a root dataset *in place* at a new snapshot: the id keeps
    /// naming "this source", but its contents — and its lineage-derived
    /// content version — change. The redo-log entry is rewritten so
    /// replay reconstructs the new snapshot, every *derived* dataset
    /// (filtered/mapped descendants) is evicted cluster-wide so lazy
    /// replay rebuilds it from the new data, and cached planning
    /// artifacts keyed by version fingerprint (pending-filter
    /// [`SelectivityEstimate`]s) invalidate themselves on next use.
    /// Errors on derived datasets: reload the chain's root instead.
    pub fn reload(&self, dataset: DatasetId, snapshot: u64) -> EngineResult<()> {
        let spec = match self.log.lineage(dataset) {
            Some(Lineage::Loaded { spec }) => spec,
            Some(_) => {
                return Err(EngineError::Source(format!(
                    "dataset {dataset} is derived; reload its root load instead"
                )))
            }
            None => return Err(EngineError::UnknownDataset(dataset)),
        };
        let spec = SourceSpec {
            source: spec.source,
            snapshot,
        };
        // Descendants materialized from the old snapshot are stale:
        // evict them everywhere so the ordinary missing-dataset replay
        // path rebuilds them against the new contents on demand.
        for (id, _) in self.log.all() {
            if id != dataset && self.log.chain(id).iter().any(|(c, _)| *c == dataset) {
                for w in 0..self.cluster.num_workers() {
                    self.cluster.worker(w).evict(id);
                }
            }
        }
        self.derive(dataset, Lineage::Loaded { spec })
    }

    /// Derive a filtered dataset; logged (paper §5.6 "Selection"). The
    /// narrowed membership is materialized on every worker immediately, so
    /// repeat queries reuse it through the two-pass path. For a filter that
    /// will likely be queried once (brushing a chart region), prefer
    /// [`Engine::filter_lazy`] or [`Engine::run_filtered`].
    pub fn filter(&self, parent: DatasetId, predicate: Predicate) -> EngineResult<DatasetId> {
        self.ensure_materialized(parent)?;
        let id = self.fresh_id();
        self.derive(id, Lineage::Filtered { parent, predicate })?;
        Ok(id)
    }

    /// Derive a filtered dataset *lazily*: nothing is materialized now.
    /// The first query against the returned id runs fused — the predicate
    /// chain down to the nearest materialized ancestor is compiled into
    /// the sketch's block pass, one decode per frame, no membership set.
    /// From the second query on, a cost model built from zone maps and a
    /// bounded probe ([`Cluster::estimate_filter`]) decides when to
    /// promote the chain to materialized membership: promotion happens
    /// once the projected fused overhead across the queries seen so far
    /// exceeds the one-time materialization pass, so selective predicates
    /// under sustained interaction get the cached two-pass path while
    /// non-selective ones keep fusing forever.
    pub fn filter_lazy(&self, parent: DatasetId, predicate: Predicate) -> DatasetId {
        let id = self.fresh_id();
        // Logged like an eager filter: lineage replay materializes the
        // chain identically if a worker ever needs it reconstructed.
        self.log.record(
            id,
            Lineage::Filtered {
                parent,
                predicate: predicate.clone(),
            },
        );
        self.pending_filters.lock().insert(
            id,
            PendingFilter {
                parent,
                predicate,
                queries: 0,
                estimate: None,
            },
        );
        id
    }

    /// Derive a mapped dataset with a UDF column; logged (§5.6).
    pub fn map(&self, parent: DatasetId, udf: &str, new_column: &str) -> EngineResult<DatasetId> {
        self.ensure_materialized(parent)?;
        let id = self.fresh_id();
        let lineage = Lineage::Mapped {
            parent,
            udf: Arc::from(udf),
            new_column: Arc::from(new_column),
        };
        self.derive(id, lineage)?;
        Ok(id)
    }

    /// Record `lineage` as `id`'s redo-log entry, then materialize it on
    /// every worker within the retry loop. A re-run overwrites the same id
    /// with identical contents, so retrying any transient failure —
    /// including a replay that itself hits a fault — is sound.
    fn derive(&self, id: DatasetId, lineage: Lineage) -> EngineResult<()> {
        self.log.record(id, lineage.clone());
        self.with_retries(lineage.parent(), || self.cluster.derive(id, &lineage))
    }

    /// Materialize the pending-filter chain ending at `dataset` (ancestors
    /// first — each link's parent must exist before the link itself),
    /// switching the ids to the cached-membership two-pass path. No-op for
    /// datasets that were never lazily derived.
    fn ensure_materialized(&self, dataset: DatasetId) -> EngineResult<()> {
        // Snapshot the chain under the lock, run cluster ops outside it
        // (they replay and retry, and can take arbitrarily long).
        let chain: Vec<(DatasetId, DatasetId, Predicate)> = {
            let pending = self.pending_filters.lock();
            let mut chain = Vec::new();
            let mut cur = dataset;
            while let Some(pf) = pending.get(&cur) {
                chain.push((cur, pf.parent, pf.predicate.clone()));
                cur = pf.parent;
            }
            chain
        };
        for (id, parent, predicate) in chain.into_iter().rev() {
            self.derive(id, Lineage::Filtered { parent, predicate })?;
            self.pending_filters.lock().remove(&id);
        }
        Ok(())
    }

    /// Resolve `dataset` into an execution plan: the dataset to run the
    /// tree against plus an optional fused predicate. A pending lazy
    /// filter composes its predicate chain (ancestor-first AND) down to
    /// the nearest materialized dataset — cached-membership reuse: an
    /// already-promoted ancestor anchors the chain, only the lazy suffix
    /// fuses. From the second query on, a cost model decides whether to
    /// keep fusing or promote the chain to materialized membership.
    ///
    /// The model, in units of one full scan of the parent: a fused query
    /// reads every block the predicate cannot prove all-false, so it
    /// costs `f = 1 − skip_fraction` *per query*. Materializing costs one
    /// full pass *once*, after which each query touches only selected
    /// rows: `s = selectivity` per query. With `q` queries so far, fusing
    /// has spent `q·f` while the materialized plan would have spent
    /// `f + q·s` (the first query always fuses); promote when the gap
    /// `q·(f − s)` exceeds the materialization pass `f`. Non-selective
    /// predicates (`f ≈ s`) never promote — materializing them buys
    /// nothing per query — and an empty estimate (`blocks == 0`, e.g. all
    /// workers dead) conservatively keeps fusing.
    fn plan_query(&self, dataset: DatasetId) -> EngineResult<(DatasetId, Option<Predicate>)> {
        let queries = {
            let mut pending = self.pending_filters.lock();
            match pending.get_mut(&dataset) {
                None => return Ok((dataset, None)),
                Some(pf) => {
                    pf.queries += 1;
                    pf.queries
                }
            }
        };
        let (root, composed) = {
            let pending = self.pending_filters.lock();
            let mut preds = Vec::new();
            let mut cur = dataset;
            while let Some(pf) = pending.get(&cur) {
                preds.push(pf.predicate.clone());
                cur = pf.parent;
            }
            // Ancestor-first AND: the coarse (usually more selective in
            // sequence) parent predicate short-circuits before child
            // terms. Empty only if another thread promoted the chain
            // between locks.
            match preds.into_iter().rev().reduce(|a, b| a.and(b)) {
                Some(p) => (cur, p),
                None => return Ok((dataset, None)),
            }
        };
        if queries >= 2 {
            // Bind the cached estimate before matching: a guard temporary
            // in the scrutinee would outlive the re-lock in the None arm.
            // Only an estimate taken at the root's *current* version
            // fingerprint counts — a reload changed the data under the
            // same id, so stale statistics must re-probe, not steer.
            let fingerprint = self.cluster.dataset_version_fingerprint(root);
            let cached = self
                .pending_filters
                .lock()
                .get(&dataset)
                .and_then(|pf| pf.estimate)
                .filter(|(v, _)| *v == fingerprint)
                .map(|(_, e)| e);
            let est = match cached {
                Some(e) => e,
                None => {
                    // Estimate outside the lock (it probes real blocks),
                    // then store it back; a racing query at worst
                    // re-estimates the same chain.
                    let e = self.cluster.estimate_filter(root, &composed);
                    if let Some(pf) = self.pending_filters.lock().get_mut(&dataset) {
                        pf.estimate = Some((fingerprint, e));
                    }
                    e
                }
            };
            let fused_cost = 1.0 - est.skip_fraction();
            let per_query = est.selectivity();
            if (queries as f64) * (fused_cost - per_query) > fused_cost {
                self.ensure_materialized(dataset)?;
                return Ok((dataset, None));
            }
        }
        Ok((root, Some(composed)))
    }

    /// The one bounded retry loop, shared by queries and derivations: run
    /// `attempt` until it succeeds, within the [`RetryPolicy`] budget,
    /// classifying each failure:
    ///
    /// * [`EngineError::DatasetMissing`] — replay the missing dataset's
    ///   lineage chain on the reporting worker;
    /// * [`EngineError::WorkerDown`] — restart the worker stateless and
    ///   replay the chain of `reads`, the dataset every attempt reads
    ///   (`None` for a load, which reads only its source); without
    ///   [`Engine::auto_recover`] a dead worker stays dead, so the failure
    ///   is deterministic and surfaces raw;
    /// * any other [retryable](EngineError::is_retryable) error — back off
    ///   and retry; a non-retryable one returns at once.
    ///
    /// A replay can itself hit a fault (the worker is killed mid-replay):
    /// a transient replay failure consumes the attempt instead of escaping
    /// the loop. When the budget runs out the caller gets
    /// [`EngineError::RetriesExhausted`] wrapping the last failure.
    fn with_retries<T>(
        &self,
        reads: Option<DatasetId>,
        mut attempt: impl FnMut() -> EngineResult<T>,
    ) -> EngineResult<T> {
        let attempts = self.retry.attempts.max(1);
        let mut made = 0;
        loop {
            let e = match attempt() {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_retryable() => return Err(e),
                Err(e) => e,
            };
            let recovered = match e {
                EngineError::DatasetMissing { worker, dataset } => self.replay(worker, dataset),
                EngineError::WorkerDown(w) if self.auto_recover => {
                    self.cluster.worker(w).restart();
                    reads.map_or(Ok(()), |d| self.replay(w, d))
                }
                EngineError::WorkerDown(_) => return Err(e),
                _ => Ok(()),
            };
            let last = match recovered {
                Err(re) if !re.is_retryable() => return Err(re),
                Err(re) => re,
                Ok(()) => e,
            };
            made += 1;
            if made == attempts {
                return Err(EngineError::RetriesExhausted {
                    attempts,
                    last: Box::new(last),
                });
            }
            std::thread::sleep(self.retry.backoff(made));
        }
    }

    /// Reconstruct `dataset` on `worker` by replaying its lineage chain
    /// (paper §5.7: "This may require re-executing other queries, that
    /// produced the source objects; the recursion ends when data is read
    /// from disk"). Each link runs the same derivation as when it was
    /// first made, from the same redo-log record.
    pub fn replay(&self, worker: usize, dataset: DatasetId) -> EngineResult<()> {
        let chain = self.log.chain(dataset);
        if chain.is_empty() {
            return Err(EngineError::UnknownDataset(dataset));
        }
        let w = self.cluster.worker(worker);
        if !w.is_alive() {
            if self.auto_recover {
                w.restart();
            } else {
                return Err(EngineError::WorkerDown(worker));
            }
        }
        for (id, lineage) in chain {
            if !w.has_dataset(id) {
                self.cluster.derive_on(worker, id, &lineage)?;
            }
        }
        Ok(())
    }

    /// Run a typed sketch with automatic recovery; returns the summary and
    /// the query's traffic/latency stats.
    pub fn run<S: Sketch>(
        &self,
        dataset: DatasetId,
        sketch: S,
        opts: &QueryOptions,
    ) -> EngineResult<(S::Summary, QueryOutcome)> {
        let erased = erase(sketch);
        let outcome = self.run_erased(dataset, &erased, opts)?;
        let summary = S::Summary::from_bytes(outcome.bytes.clone())?;
        Ok((summary, outcome))
    }

    /// Run a typed sketch over `dataset` narrowed by `predicate`, without
    /// deriving a dataset: the one-shot "filter + sketch" query. The
    /// predicate compiles into the sketch's block pass at every leaf (one
    /// decode per frame, zone maps pruning both stages); no membership is
    /// materialized and no dataset id is allocated.
    pub fn run_filtered<S: Sketch>(
        &self,
        dataset: DatasetId,
        predicate: Predicate,
        sketch: S,
        opts: &QueryOptions,
    ) -> EngineResult<(S::Summary, QueryOutcome)> {
        let erased = erase(sketch);
        let outcome = self.run_filtered_erased(dataset, predicate, &erased, opts)?;
        let summary = S::Summary::from_bytes(outcome.bytes.clone())?;
        Ok((summary, outcome))
    }

    /// Erased form of [`Engine::run_filtered`]. If `dataset` is itself a
    /// pending lazy filter, its chain composes under the ad-hoc predicate.
    pub fn run_filtered_erased(
        &self,
        dataset: DatasetId,
        predicate: Predicate,
        sketch: &Arc<dyn ErasedSketch>,
        opts: &QueryOptions,
    ) -> EngineResult<QueryOutcome> {
        let (root, base) = self.plan_query(dataset)?;
        let fused = match base {
            Some(b) => b.and(predicate),
            None => predicate,
        };
        self.run_planned(root, Some(fused), sketch, opts)
    }

    /// Run an erased sketch with automatic recovery. The reported duration
    /// covers the whole user-visible wait, including any lineage replays
    /// (cold reads show up here, Figure 6).
    ///
    /// Attempts are bounded by [`RetryPolicy`]; only
    /// [retryable](EngineError::is_retryable) failures are retried, and an
    /// [`QueryOptions::deadline`] spans *all* attempts, not each one. When
    /// the budget runs out, [`QueryOptions::allow_degraded`] permits one
    /// final attempt that excludes failed workers and returns the
    /// survivors' merge labelled with [`QueryOutcome::coverage`]` < 1`;
    /// otherwise the caller gets [`EngineError::RetriesExhausted`].
    pub fn run_erased(
        &self,
        dataset: DatasetId,
        sketch: &Arc<dyn ErasedSketch>,
        opts: &QueryOptions,
    ) -> EngineResult<QueryOutcome> {
        let (root, fused) = self.plan_query(dataset)?;
        self.run_planned(root, fused, sketch, opts)
    }

    /// Run `sketch` over `root` (a materialized dataset), optionally
    /// narrowed by a fused predicate, inside the retry loop; then, if the
    /// budget ran out and the caller opted in, one degraded tree.
    fn run_planned(
        &self,
        root: DatasetId,
        fused: Option<Predicate>,
        sketch: &Arc<dyn ErasedSketch>,
        opts: &QueryOptions,
    ) -> EngineResult<QueryOutcome> {
        let started = std::time::Instant::now();
        // The deadline spans *all* attempts, not each one.
        let remaining = || -> EngineResult<Option<Duration>> {
            match opts.deadline {
                None => Ok(None),
                Some(d) => d.checked_sub(started.elapsed()).map(Some).ok_or(
                    EngineError::DeadlineExceeded {
                        elapsed: started.elapsed(),
                    },
                ),
            }
        };
        // One tree. The reported times cover the whole user-visible wait,
        // earlier attempts and lineage replays included (cold reads show
        // up here, Figure 6).
        let tree = |deadline: Option<Duration>, tolerate_failures: bool| {
            let attempt_opts = QueryOptions {
                deadline,
                // Never cache on the degraded path: per-worker shard
                // summaries of *survivors* would be sound, but a shared
                // cache key must only ever hold complete folds.
                cache: opts.cache && !tolerate_failures,
                tolerate_failures,
                ..opts.clone()
            };
            let mut outcome =
                self.cluster
                    .run_erased_filtered(root, fused.as_ref(), sketch, &attempt_opts)?;
            let replay_overhead = started.elapsed().saturating_sub(outcome.duration);
            outcome.first_partial = outcome.first_partial.map(|fp| fp + replay_overhead);
            outcome.duration = started.elapsed();
            Ok(outcome)
        };
        let result = self.with_retries(Some(root), || {
            // A cancelled query is not retried.
            if opts.cancel.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
            tree(remaining()?, false)
        });
        match result {
            // Opt-in graceful degradation: one last tree that tolerates
            // worker failures and folds the survivors, honestly labelled.
            Err(exhausted @ EngineError::RetriesExhausted { .. }) if opts.allow_degraded => {
                tree(remaining()?, true).or(Err(exhausted))
            }
            r => r,
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine({:?}, {} logged ops)",
            self.cluster,
            self.log.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::dataset::{FnSource, SourceRegistry};
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::udf::UdfRegistry;
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::count::CountSketch;
    use hillview_sketch::histogram::HistogramSketch;
    use hillview_sketch::BucketSpec;

    fn engine() -> Engine {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("nums", |w, _n, _mp, snap| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (0..5_000).map(|i| Some((i + w as i64 * 5_000 + snap as i64) % 100)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let mut udfs = UdfRegistry::with_builtins();
        udfs.register_sum("XX", "X", "X");
        let cluster = Cluster::new(ClusterConfig::test(), sources, udfs);
        Engine::new(cluster)
    }

    #[test]
    fn load_filter_map_pipeline() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        assert_eq!(e.cluster().dataset_rows(base), 10_000);
        let small = e.filter(base, Predicate::range("X", 0.0, 10.0)).unwrap();
        assert_eq!(e.cluster().dataset_rows(small), 1_000);
        let mapped = e.map(small, "XX", "Doubled").unwrap();
        let (sum, _) = e
            .run(
                mapped,
                CountSketch::of_column("Doubled"),
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(sum.rows, 1_000);
        assert_eq!(e.redo_log().len(), 3);
    }

    #[test]
    fn eviction_recovers_transparently() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let filtered = e.filter(base, Predicate::range("X", 0.0, 50.0)).unwrap();
        // Evict everything everywhere (cache expiry / memory pressure).
        e.cluster().evict_all();
        let (sum, _) = e
            .run(filtered, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 5_000, "replay reconstructed filter lineage");
    }

    #[test]
    fn worker_crash_recovers_transparently() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        e.cluster().worker(1).kill();
        let (sum, _) = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 10_000, "restarted worker reloaded its shard");
    }

    #[test]
    fn crash_recovery_disabled_surfaces_error() {
        let mut e = engine();
        e.auto_recover = false;
        let base = e.load("nums", 0).unwrap();
        e.cluster().worker(0).kill();
        let err = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap_err();
        assert_eq!(err, EngineError::WorkerDown(0));
    }

    #[test]
    fn recovery_reconverges_to_identical_results() {
        // The core §5.8 determinism claim: a replayed (sampled) query gives
        // the same bytes as before the crash because seeds are preserved.
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let sk = HistogramSketch::sampled("X", BucketSpec::numeric(0.0, 100.0, 10), 0.3);
        let opts = QueryOptions {
            seed: 1234,
            ..Default::default()
        };
        let (before, _) = e.run(base, sk.clone(), &opts).unwrap();
        e.cluster().worker(0).kill();
        let (after, _) = e.run(base, sk, &opts).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn partial_eviction_replays_only_missing_worker() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let w0_loads_before = e.cluster().worker(0).rows_loaded();
        e.cluster().worker(1).evict_all();
        let (sum, _) = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 10_000);
        assert_eq!(
            e.cluster().worker(0).rows_loaded(),
            w0_loads_before,
            "healthy worker did not reload"
        );
    }

    #[test]
    fn unknown_dataset_errors() {
        let e = engine();
        let err = e
            .run(DatasetId(77), CountSketch::rows(), &QueryOptions::default())
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownDataset(DatasetId(77)));
    }

    #[test]
    fn bounded_retry_wraps_persistent_failure() {
        use crate::fault::{FaultAction, FaultPlan, FaultSite};
        let mut e = engine();
        e.retry = RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
        };
        let base = e.load("nums", 0).unwrap();
        // Kill worker 0 at every operation boundary, forever: recovery
        // (restart + replay) re-dies each attempt, so the budget — not an
        // unbounded loop — must end the query, with the cause preserved.
        e.cluster()
            .arm_faults(FaultPlan::scripted((0..10_000).map(|i| {
                (
                    FaultSite::WorkerOp {
                        worker: 0,
                        index: i,
                    },
                    FaultAction::Kill,
                )
            })));
        let err = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap_err();
        match err {
            EngineError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(last.is_retryable(), "wrapped cause was transient: {last}");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        // Disarm and the same engine heals transparently.
        e.cluster().disarm_faults();
        let (sum, _) = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 10_000);
    }

    #[test]
    fn degraded_query_folds_survivors_with_honest_coverage() {
        use crate::fault::{FaultAction, FaultPlan, FaultSite};
        let mut e = engine();
        e.retry = RetryPolicy {
            attempts: 2,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
        };
        let base = e.load("nums", 0).unwrap();
        // Worker 1 dies at every operation boundary; worker 0 is healthy.
        e.cluster()
            .arm_faults(FaultPlan::scripted((0..10_000).map(|i| {
                (
                    FaultSite::WorkerOp {
                        worker: 1,
                        index: i,
                    },
                    FaultAction::Kill,
                )
            })));
        let opts = QueryOptions {
            allow_degraded: true,
            ..Default::default()
        };
        let (sum, outcome) = e.run(base, CountSketch::rows(), &opts).unwrap();
        assert_eq!(sum.rows, 5_000, "survivor's shard only");
        assert_eq!(outcome.failed_workers, vec![1]);
        assert!(
            outcome.coverage > 0.0 && outcome.coverage < 1.0,
            "degraded result labelled: coverage={}",
            outcome.coverage
        );
        // Without the opt-in, the same schedule is an error, not a
        // silently partial answer.
        let err = e
            .run(base, CountSketch::rows(), &QueryOptions::default())
            .unwrap_err();
        assert!(matches!(err, EngineError::RetriesExhausted { .. }), "{err}");
    }

    #[test]
    fn lazy_filter_fuses_first_query_then_promotes() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let lazy = e.filter_lazy(base, Predicate::range("X", 0.0, 10.0));
        // Nothing materialized: the id lives only in the redo log and the
        // pending table.
        assert!(!e.cluster().worker(0).has_dataset(lazy));
        assert_eq!(e.cluster().dataset_rows(lazy), 0);
        // First query runs fused against the parent — still no membership.
        let (sum, _) = e
            .run(lazy, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 1_000);
        assert!(
            !e.cluster().worker(0).has_dataset(lazy),
            "one-shot query stayed fused"
        );
        // The second query promotes the chain to materialized membership
        // (cached two-pass reuse), with the identical result.
        let (sum2, _) = e
            .run(lazy, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum2.rows, 1_000);
        assert!(
            e.cluster().worker(0).has_dataset(lazy),
            "repeat interaction materialized the membership"
        );
        assert_eq!(e.cluster().dataset_rows(lazy), 1_000);
    }

    #[test]
    fn lazy_filter_chain_composes_down_to_materialized_ancestor() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let a = e.filter_lazy(base, Predicate::range("X", 0.0, 50.0));
        let b = e.filter_lazy(a, Predicate::range("X", 25.0, 100.0));
        let (sum, _) = e
            .run(b, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 2_500, "AND of both links: X in [25,50)");
        assert!(!e.cluster().worker(0).has_dataset(a));
        assert!(!e.cluster().worker(0).has_dataset(b));
        // Promotion materializes the whole chain, ancestors first.
        let (sum2, _) = e
            .run(b, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum2.rows, 2_500);
        assert!(e.cluster().worker(0).has_dataset(a));
        assert!(e.cluster().worker(0).has_dataset(b));
    }

    #[test]
    fn reload_swaps_snapshot_in_place_and_invalidates_descendants() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let v0 = e.cluster().dataset_version_fingerprint(base);
        let filtered = e.filter(base, Predicate::range("X", 0.0, 10.0)).unwrap();
        assert_eq!(e.cluster().dataset_rows(filtered), 1_000);
        e.reload(base, 7).unwrap();
        assert_ne!(
            e.cluster().dataset_version_fingerprint(base),
            v0,
            "a new snapshot is new content, so the fingerprint must move"
        );
        assert!(
            !e.cluster().worker(0).has_dataset(filtered),
            "derived datasets built from the old snapshot must be evicted"
        );
        // The evicted descendant replays lazily against the new snapshot.
        let (sum, _) = e
            .run(filtered, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 1_000, "values stay mod 100, band still 10%");
        // Only root loads can reload.
        assert!(e.reload(filtered, 1).is_err());
        assert!(matches!(
            e.reload(DatasetId(999), 1),
            Err(EngineError::UnknownDataset(_))
        ));
    }

    #[test]
    fn reload_refreshes_cached_selectivity_estimate() {
        // A source whose selectivity flips with the snapshot: snapshot 0
        // puts every value inside the predicate band (non-selective — the
        // planner must never promote), snapshot 1 is a sorted ramp where
        // the band selects a sliver and zone maps skip almost everything
        // (strongly promotable).
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("flip", |w, _n, _mp, snap| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options((0..5_000).map(|i| {
                        Some(if snap == 0 {
                            i % 10
                        } else {
                            i + w as i64 * 5_000
                        })
                    }))),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let cluster = Cluster::new(ClusterConfig::test(), sources, UdfRegistry::with_builtins());
        let e = Engine::new(cluster);
        let base = e.load("flip", 0).unwrap();
        let lazy = e.filter_lazy(base, Predicate::range("X", 0.0, 10.0));
        for _ in 0..4 {
            let (sum, _) = e
                .run(lazy, CountSketch::rows(), &QueryOptions::default())
                .unwrap();
            assert_eq!(sum.rows, 10_000);
        }
        assert!(
            !e.cluster().worker(0).has_dataset(lazy),
            "non-selective predicate must keep fusing"
        );
        // Reload at the selective snapshot. The cached estimate was taken
        // at the old fingerprint, so the next query must re-probe — and
        // the fresh statistics promote immediately. A stale estimate
        // (f ≈ s ≈ 1) would keep fusing forever.
        e.reload(base, 1).unwrap();
        let (sum, _) = e
            .run(lazy, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 10, "sorted ramp: only X in [0,10) survives");
        assert!(
            e.cluster().worker(0).has_dataset(lazy),
            "refreshed estimate must promote the now-selective chain"
        );
    }

    #[test]
    fn one_shot_filtered_query_matches_materialized_path() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let pred = Predicate::range("X", 20.0, 40.0);
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 10));
        let ops_before = e.redo_log().len();
        let (fused, _) = e
            .run_filtered(base, pred.clone(), sk.clone(), &QueryOptions::default())
            .unwrap();
        assert_eq!(e.redo_log().len(), ops_before, "no dataset derived");
        let materialized = e.filter(base, pred).unwrap();
        let (two_pass, _) = e.run(materialized, sk, &QueryOptions::default()).unwrap();
        assert_eq!(fused, two_pass);
    }

    #[test]
    fn fused_queries_cache_under_predicate_identity() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let opts = QueryOptions::default();
        // Unfiltered and fused queries over the same sketch coexist in
        // the cache — the fused key folds the predicate's canonical
        // bytes into the dataset version, so neither poisons the other.
        let (all, _) = e.run(base, CountSketch::rows(), &opts).unwrap();
        assert_eq!(all.rows, 10_000);
        let pred = Predicate::range("X", 0.0, 10.0);
        let (sum, _) = e
            .run_filtered(base, pred.clone(), CountSketch::rows(), &opts)
            .unwrap();
        assert_eq!(sum.rows, 1_000);
        let (again, _) = e.run(base, CountSketch::rows(), &opts).unwrap();
        assert_eq!(again.rows, 10_000);
        // Repeating the fused query — and a canonically-equal respelling
        // of it (double negation cancels) — serves pure cache hits.
        let hits_before = e.cluster().cache_stats().hits;
        let (sum2, _) = e
            .run_filtered(base, pred.clone(), CountSketch::rows(), &opts)
            .unwrap();
        assert_eq!(sum2.rows, 1_000);
        let (sum3, _) = e
            .run_filtered(base, pred.not().not(), CountSketch::rows(), &opts)
            .unwrap();
        assert_eq!(sum3.rows, 1_000);
        assert_eq!(
            e.cluster().cache_stats().hits - hits_before,
            4,
            "two fused repeats x two workers hit the predicate-keyed entry"
        );
    }

    #[test]
    fn nonselective_lazy_filter_never_promotes() {
        // X in [0,100) passes every row: fusing costs the same full pass
        // a materialized membership would, so the planner keeps fusing no
        // matter how often the dataset is queried.
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let lazy = e.filter_lazy(base, Predicate::range("X", 0.0, 100.0));
        for _ in 0..5 {
            let (sum, _) = e
                .run(lazy, CountSketch::rows(), &QueryOptions::default())
                .unwrap();
            assert_eq!(sum.rows, 10_000);
        }
        assert!(
            !e.cluster().worker(0).has_dataset(lazy),
            "materializing a pass-everything predicate buys nothing"
        );
    }

    #[test]
    fn fused_query_survives_worker_crash() {
        let e = engine();
        let base = e.load("nums", 0).unwrap();
        let lazy = e.filter_lazy(base, Predicate::range("X", 0.0, 10.0));
        e.cluster().worker(1).kill();
        let (sum, _) = e
            .run(lazy, CountSketch::rows(), &QueryOptions::default())
            .unwrap();
        assert_eq!(sum.rows, 1_000, "restart + replay of the fused root");
    }

    #[test]
    fn snapshots_reload_identically() {
        let e = engine();
        let a = e.load("nums", 7).unwrap();
        let (s1, _) = e
            .run(
                a,
                HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 5)),
                &QueryOptions::default(),
            )
            .unwrap();
        e.cluster().evict_all();
        let (s2, _) = e
            .run(
                a,
                HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 5)),
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(s1, s2, "snapshot semantics: reload is identical");
    }
}
