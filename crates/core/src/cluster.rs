//! The simulated cluster and its execution trees.
//!
//! A query runs as the paper's two-phase tree (Fig. 1): the root broadcasts
//! the sketch to every worker's aggregation node; each aggregation node
//! fans leaf tasks onto the worker's thread pool, merges completions, and
//! — every [`ClusterConfig::batch_interval`] — ships its current partial
//! merge to the root ("nodes periodically propagate partially merged
//! results of the vizketch without waiting for all children to respond",
//! §5.3). The root folds per-worker partials, streams progressive results
//! to the client callback, and returns the final merge. Every edge message
//! is wire-encoded and byte-counted.
//!
//! ## Intra-partition parallelism
//!
//! A leaf is no longer one task per micropartition: for splittable
//! sketches, the initial per-partition task *recursively splits* its
//! row range in balanced halves (`SplittableSelection`) until each piece
//! holds at most [`ClusterConfig::leaf_grain_rows`] selected rows, pushing
//! the peeled halves onto the pool's work-stealing deques. Idle pool
//! threads steal the largest pending pieces, so one skewed micropartition
//! saturates every core instead of serializing the query.
//!
//! Sub-task partials arrive in completion order and feed the progressive
//! partial stream, but the *final* worker summary folds them sorted by
//! `(partition, range start)`. Split boundaries depend only on the
//! membership shape and the (fixed) grain, so the folded result is a pure
//! function of `(data, sketch, seed, grain)` — bit-identical across thread
//! counts, steal interleavings, and replay after failures (§5.8). Progress
//! is reported in row-weighted work units per completed sub-task.

use crate::cache::{CacheKey, CacheStats, Lookup};
use crate::dataset::{DatasetId, Lineage, SourceRegistry};
use crate::erased::ErasedSketch;
use crate::error::{EngineError, EngineResult};
use crate::fault::{self, FaultAction, FaultPlan, FaultSite};
use crate::progress::{CancellationToken, Partial, PartialCallback};
use crate::worker::Worker;
use bytes::Bytes;
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{
    estimate_selectivity, fnv1a as fnv_mix, Predicate, SelectivityEstimate, FNV_OFFSET,
};
use hillview_net::{
    link_pair, FrameFault, LinkConfig, LinkSender, Wire as _, WireReader, WireWriter,
};
use hillview_sketch::Scope;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster topology and timing parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated servers.
    pub workers: usize,
    /// Pool threads per server (the paper's cores).
    pub threads_per_worker: usize,
    /// Rows per micropartition (paper §5.3: 10–20M; scaled down here).
    pub micropartition_rows: usize,
    /// Partial-result aggregation window (paper §5.3: 100 ms).
    pub batch_interval: Duration,
    /// Delay model for tree edges.
    pub link: LinkConfig,
    /// Target selected rows per leaf sub-task: a splittable sketch's
    /// partition is recursively halved until each piece holds at most this
    /// many rows. Must be a pure config constant (never derived from load
    /// or thread count) — the split plan determines the floating-point
    /// fold structure, so it must be identical across runs and replays for
    /// results to reproduce bit-for-bit (§5.8).
    pub leaf_grain_rows: usize,
    /// Liveness bound: if the root hears nothing from a worker's
    /// aggregation node for this long (summaries *or* heartbeats — nodes
    /// heartbeat every [`ClusterConfig::batch_interval`] even when idle),
    /// the worker is declared down. Must comfortably exceed the batch
    /// interval plus worst-case link delay, or healthy-but-slow workers
    /// get falsely convicted.
    pub worker_timeout: Duration,
    /// Byte budget of each worker's sketch-result cache (§5.4): merged
    /// worker-level summaries, LRU-evicted past this bound.
    pub cache_budget_bytes: usize,
    /// Byte budget of each worker's block-residency cache: chunks of
    /// mapped (out-of-core) columns faulted in by scans are charged here,
    /// and — under the `ooc` feature — evicted LRU past this bound so a
    /// worker can browse datasets far larger than its memory. `0` means
    /// unbounded. Overridable at cluster construction with the
    /// `HILLVIEW_BLOCK_CACHE_BYTES` environment variable (CI shrinks it to
    /// force eviction churn without rebuilding configs).
    pub block_cache_bytes: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 2,
            threads_per_worker: 2,
            micropartition_rows: 50_000,
            batch_interval: Duration::from_millis(100),
            link: LinkConfig::instant(),
            leaf_grain_rows: 65_536,
            worker_timeout: Duration::from_secs(2),
            cache_budget_bytes: 32 << 20,
            block_cache_bytes: 256 << 20,
        }
    }
}

impl ClusterConfig {
    /// Small fast topology for unit tests.
    pub fn test() -> Self {
        ClusterConfig {
            workers: 2,
            threads_per_worker: 2,
            micropartition_rows: 1_000,
            batch_interval: Duration::from_millis(2),
            link: LinkConfig::instant(),
            leaf_grain_rows: 65_536,
            worker_timeout: Duration::from_millis(500),
            cache_budget_bytes: 32 << 20,
            block_cache_bytes: 256 << 20,
        }
    }

    /// The effective block-cache budget: the `HILLVIEW_BLOCK_CACHE_BYTES`
    /// environment variable when set and parseable, else
    /// [`ClusterConfig::block_cache_bytes`].
    pub fn effective_block_cache_bytes(&self) -> usize {
        std::env::var("HILLVIEW_BLOCK_CACHE_BYTES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(self.block_cache_bytes)
    }
}

/// Per-query options.
#[derive(Clone)]
pub struct QueryOptions {
    /// Seed for randomized sketches (logged for replay determinism, §5.8).
    pub seed: u64,
    /// Cooperative cancellation.
    pub cancel: CancellationToken,
    /// Client callback for progressive results.
    pub on_partial: Option<PartialCallback>,
    /// Use the per-worker sketch-result cache (on by default). The key is
    /// *structural* — dataset lineage version (canonical predicate bytes
    /// folded in for fused trees) × 128-bit sketch identity — so this is
    /// purely an off-switch for measurements and degraded attempts, never
    /// a correctness knob. Sketches without a
    /// [cache identity](crate::erased::ErasedSketch::cache_identity)
    /// (seed-dependent sampling, positional kernels) never cache
    /// regardless (§5.4: only deterministic summaries are sound).
    pub cache: bool,
    /// Total wall-clock budget for the query; when exceeded the tree is
    /// torn down and the query fails with
    /// [`EngineError::DeadlineExceeded`]. `None` means unbounded (but the
    /// per-worker [`ClusterConfig::worker_timeout`] still catches silent
    /// workers).
    pub deadline: Option<Duration>,
    /// Graceful degradation (opt-in): when `true`, the
    /// [`Engine`](crate::engine::Engine) may — after exhausting its retry budget —
    /// return a summary folded from the surviving workers only, honestly
    /// labelled with [`QueryOutcome::coverage`] `< 1` and the failed
    /// worker set, instead of an error.
    pub allow_degraded: bool,
    /// Tolerate worker failures in this single tree: a failed worker is
    /// excluded from the fold instead of failing the query. Set internally
    /// by the engine's final degraded attempt; hidden because outcomes
    /// bypass recovery/replay — use [`QueryOptions::allow_degraded`].
    #[doc(hidden)]
    pub tolerate_failures: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            seed: 0,
            cancel: CancellationToken::default(),
            on_partial: None,
            cache: true,
            deadline: None,
            allow_degraded: false,
            tolerate_failures: false,
        }
    }
}

impl std::fmt::Debug for QueryOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueryOptions(seed={}, cache={})", self.seed, self.cache)
    }
}

/// Outcome of one query: the final summary bytes plus traffic/timing stats.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Final merged summary, wire-encoded.
    pub bytes: Bytes,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Bytes received by the root across the query.
    pub root_bytes: u64,
    /// Messages received by the root.
    pub root_messages: u64,
    /// Time until the first partial result reached the client.
    pub first_partial: Option<Duration>,
    /// Number of partial updates delivered.
    pub partials: usize,
    /// Fraction of the estimated total work represented in the final
    /// summary. `1.0` for a complete result; `< 1.0` only for a degraded
    /// result (failed workers excluded under
    /// [`QueryOptions::allow_degraded`]), estimated with the same
    /// machinery as the progressive-progress fraction.
    pub coverage: f64,
    /// Workers whose contribution is missing from a degraded result
    /// (empty for complete results).
    pub failed_workers: Vec<usize>,
}

/// One message from a worker's aggregation node to the root. Progress is
/// in row-weighted work units (selected rows + 1 per micropartition), so
/// split sub-tasks advance the bar smoothly.
struct WorkerMsg {
    worker: u32,
    work_done: u64,
    work_total: u64,
    is_final: bool,
    payload: MsgPayload,
}

enum MsgPayload {
    Summary(Vec<u8>),
    /// Liveness beacon: sent on every batch tick with no new merge so the
    /// root's `worker_timeout` sweep can tell "slow" from "dead".
    Heartbeat,
    Failure(Failure),
}

/// Why an aggregation node gave up; the root rebuilds the structured
/// [`EngineError`] with [`Failure::into_error`].
enum Failure {
    DatasetMissing(u64),
    WorkerDown,
    Error(String),
    /// A leaf task (or the aggregation node itself) panicked; carries the
    /// panic message.
    LeafPanicked(String),
}

impl Failure {
    /// The node-side form of a leaf error. Panics stay structured end to
    /// end; every other error travels as its message.
    fn of(e: EngineError) -> Self {
        match e {
            EngineError::LeafPanicked { message, .. } => Failure::LeafPanicked(message),
            other => Failure::Error(other.to_string()),
        }
    }

    /// The root-side error this failure reports for `worker`.
    fn into_error(self, worker: usize) -> EngineError {
        match self {
            Failure::DatasetMissing(d) => EngineError::DatasetMissing {
                worker,
                dataset: DatasetId(d),
            },
            Failure::WorkerDown => EngineError::WorkerDown(worker),
            Failure::Error(e) => EngineError::Sketch(e),
            Failure::LeafPanicked(message) => EngineError::LeafPanicked { worker, message },
        }
    }
}

// Root-link frames carry an FNV-1a checksum of their body so a corrupted
// frame (fault injection or a real flaky transport) is *detected* and
// dropped instead of silently merging garbage — a single flipped bit
// inside summary bytes would otherwise decode fine and skew the result.
impl WorkerMsg {
    fn encode(&self) -> Bytes {
        let body = self.encode_body();
        let mut framed = WireWriter::new();
        framed.put_varint(fnv_mix(FNV_OFFSET, &body));
        framed.put_bytes(&body);
        framed.finish()
    }

    fn encode_body(&self) -> Bytes {
        let mut w = WireWriter::new();
        w.put_varint(self.worker as u64);
        w.put_varint(self.work_done);
        w.put_varint(self.work_total);
        w.put_u8(self.is_final as u8);
        match &self.payload {
            MsgPayload::Summary(b) => {
                w.put_u8(0);
                w.put_bytes(b);
            }
            MsgPayload::Failure(Failure::DatasetMissing(d)) => {
                w.put_u8(1);
                w.put_varint(*d);
            }
            MsgPayload::Failure(Failure::WorkerDown) => w.put_u8(2),
            MsgPayload::Failure(Failure::Error(e)) => {
                w.put_u8(3);
                w.put_str(e);
            }
            MsgPayload::Heartbeat => w.put_u8(4),
            MsgPayload::Failure(Failure::LeafPanicked(m)) => {
                w.put_u8(5);
                w.put_str(m);
            }
        }
        w.finish()
    }

    fn decode(bytes: Bytes) -> EngineResult<Self> {
        let mut r = WireReader::new(bytes);
        let sum = r.get_varint()?;
        let body = r.get_bytes()?;
        if fnv_mix(FNV_OFFSET, &body) != sum {
            return Err(EngineError::Wire("WorkerMsg checksum mismatch".into()));
        }
        let mut r = WireReader::new(Bytes::from(body));
        let worker = u32::decode(&mut r)?;
        let work_done = r.get_varint()?;
        let work_total = r.get_varint()?;
        let is_final = r.get_u8()? != 0;
        let payload = match r.get_u8()? {
            0 => MsgPayload::Summary(r.get_bytes()?),
            1 => MsgPayload::Failure(Failure::DatasetMissing(r.get_varint()?)),
            2 => MsgPayload::Failure(Failure::WorkerDown),
            3 => MsgPayload::Failure(Failure::Error(r.get_str()?)),
            4 => MsgPayload::Heartbeat,
            5 => MsgPayload::Failure(Failure::LeafPanicked(r.get_str()?)),
            tag => {
                return Err(EngineError::Wire(format!("bad WorkerMsg tag {tag}")));
            }
        };
        Ok(WorkerMsg {
            worker,
            work_done,
            work_total,
            is_final,
            payload,
        })
    }
}

/// An aggregation node's end of the root link: every message it sends
/// names its worker and the node's total work (`0` until known).
struct RootLink<'a> {
    worker: u32,
    work_total: u64,
    tx: &'a LinkSender,
}

impl RootLink<'_> {
    fn send(&self, work_done: u64, is_final: bool, payload: MsgPayload) {
        let msg = WorkerMsg {
            worker: self.worker,
            work_done,
            work_total: self.work_total,
            is_final,
            payload,
        };
        let _ = self.tx.send(msg.encode());
    }

    /// The node's final frame: it gives up with `failure`.
    fn fail(&self, work_done: u64, failure: Failure) {
        self.send(work_done, true, MsgPayload::Failure(failure));
    }
}

/// The root's state for one execution tree: each worker's latest summary
/// and progress, and the single failure transition every failure path —
/// failure frames, the liveness sweep, channel disconnect — goes through.
struct RootState {
    tolerate: bool,
    latest: Vec<Option<Bytes>>,
    done: Vec<u64>,
    total: Vec<u64>,
    /// A worker is *resolved* once its contribution is settled: final
    /// summary received, or (tolerate mode) failure accepted and the
    /// worker excluded from the fold.
    resolved: Vec<bool>,
    final_seen: Vec<bool>,
    resolved_count: usize,
    failed_workers: Vec<usize>,
    error: Option<EngineError>,
}

impl RootState {
    fn new(n: usize, tolerate: bool) -> Self {
        RootState {
            tolerate,
            latest: vec![None; n],
            done: vec![0; n],
            total: vec![0; n],
            resolved: vec![false; n],
            final_seen: vec![false; n],
            resolved_count: 0,
            failed_workers: Vec::new(),
            error: None,
        }
    }

    /// True while some worker is unresolved and no error ended the tree.
    fn running(&self) -> bool {
        self.resolved_count < self.resolved.len() && self.error.is_none()
    }

    /// Worker `w` failed with `e`. Tolerating failures, the worker is
    /// excluded from the fold; otherwise the first error ends the tree.
    fn fail(&mut self, w: usize, e: EngineError) {
        if !self.tolerate {
            self.error.get_or_insert(e);
        } else if !self.resolved[w] {
            self.resolved[w] = true;
            self.latest[w] = None;
            self.failed_workers.push(w);
            self.resolved_count += 1;
        }
    }

    /// Declare every unresolved worker `w` with `down(w)` down.
    fn fail_unresolved(&mut self, down: impl Fn(usize) -> bool) {
        for w in 0..self.resolved.len() {
            if !self.resolved[w] && down(w) {
                self.fail(w, EngineError::WorkerDown(w));
            }
        }
    }

    /// The share of the estimated total work that `part(worker, estimate)`
    /// sums to, in `[0, 1]`. A worker that has not reported a work total
    /// yet is estimated at the mean of those that have, so neither early
    /// progress nor the coverage of a degraded result is overstated.
    fn share(&self, part: impl Fn(usize, f64) -> f64) -> f64 {
        let reported: Vec<u64> = self.total.iter().copied().filter(|&t| t > 0).collect();
        let mean = (reported.iter().sum::<u64>() as f64 / reported.len().max(1) as f64).max(1.0);
        let est: Vec<f64> = self
            .total
            .iter()
            .map(|&t| if t == 0 { mean } else { t as f64 })
            .collect();
        let total: f64 = est.iter().sum();
        let part: f64 = est.iter().enumerate().map(|(w, &e)| part(w, e)).sum();
        if total == 0.0 {
            0.0
        } else {
            (part / total).clamp(0.0, 1.0)
        }
    }

    /// Progressive-progress fraction: work done over estimated work.
    fn progress(&self) -> f64 {
        self.share(|w, _| self.done[w] as f64)
    }

    /// Fraction of the estimated work the final fold covers: `1.0` unless
    /// failed workers were excluded.
    fn coverage(&self) -> f64 {
        if self.failed_workers.is_empty() {
            1.0
        } else {
            self.share(|w, est| if self.final_seen[w] { est } else { 0.0 })
        }
    }
}

/// The simulated cluster: N workers plus the root's view of them.
pub struct Cluster {
    cfg: ClusterConfig,
    workers: Vec<Arc<Worker>>,
    faults: parking_lot::Mutex<Option<Arc<FaultPlan>>>,
}

impl Cluster {
    /// Build a cluster; every worker shares the source and UDF registries.
    pub fn new(cfg: ClusterConfig, sources: SourceRegistry, udfs: UdfRegistry) -> Arc<Self> {
        let block_cache_bytes = cfg.effective_block_cache_bytes();
        let workers = (0..cfg.workers)
            .map(|id| {
                Arc::new(Worker::new(
                    id,
                    cfg.workers,
                    cfg.threads_per_worker,
                    cfg.micropartition_rows,
                    cfg.cache_budget_bytes,
                    block_cache_bytes,
                    sources.clone(),
                    udfs.clone(),
                ))
            })
            .collect();
        Arc::new(Cluster {
            cfg,
            workers,
            faults: parking_lot::Mutex::new(None),
        })
    }

    /// Arm a deterministic fault plan on the whole tree: worker operation
    /// boundaries, leaf tasks, and every aggregation-node→root link consult
    /// it. The plan's epoch is bumped once per execution-tree launch so
    /// random plans re-roll on retry (§5.8 determinism: the schedule is
    /// still a pure function of the seed and the attempt sequence).
    pub fn arm_faults(&self, plan: FaultPlan) {
        let plan = Arc::new(plan);
        *self.faults.lock() = Some(plan.clone());
        for w in &self.workers {
            w.arm_faults(plan.clone());
        }
    }

    /// Remove any armed fault plan from the cluster and its workers.
    pub fn disarm_faults(&self) {
        *self.faults.lock() = None;
        for w in &self.workers {
            w.disarm_faults();
        }
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().clone()
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Access a worker (tests, fault injection).
    pub fn worker(&self, i: usize) -> &Arc<Worker> {
        &self.workers[i]
    }

    /// Total rows of `dataset` across live workers.
    pub fn dataset_rows(&self, dataset: DatasetId) -> usize {
        self.workers.iter().map(|w| w.dataset_rows(dataset)).sum()
    }

    /// Total encoded in-memory bytes of `dataset` across live workers
    /// (compressed columns report their packed size). Mapped out-of-core
    /// columns are excluded; see [`Cluster::dataset_mapped_bytes`].
    pub fn dataset_heap_bytes(&self, dataset: DatasetId) -> usize {
        self.workers
            .iter()
            .map(|w| w.dataset_heap_bytes(dataset))
            .sum()
    }

    /// Total file-window bytes of `dataset` across live workers: the
    /// addressable span of mapped (out-of-core) columns. Residency of that
    /// span is bounded by each worker's block cache, not by this figure.
    pub fn dataset_mapped_bytes(&self, dataset: DatasetId) -> usize {
        self.workers
            .iter()
            .map(|w| w.dataset_mapped_bytes(dataset))
            .sum()
    }

    /// Aggregate block-residency cache counters across all workers
    /// (faults, faulted bytes, hits, evictions; budgets and resident
    /// bytes sum).
    pub fn block_cache_stats(&self) -> hillview_columnar::BlockCacheStats {
        let mut acc = hillview_columnar::BlockCacheStats::default();
        for w in &self.workers {
            acc.merge(&w.block_cache_stats());
        }
        acc
    }

    /// Drop all cached data everywhere (cold-start experiments).
    pub fn evict_all(&self) {
        for w in &self.workers {
            w.evict_all();
        }
    }

    /// Aggregate sketch-result cache counters across all workers
    /// (hits/misses/insertions/evictions/coalesced flights, resident
    /// entries and bytes). Budgets sum, so `bytes <= budget` still holds
    /// cluster-wide.
    pub fn cache_stats(&self) -> CacheStats {
        self.workers
            .iter()
            .map(|w| w.cache_stats())
            .fold(CacheStats::default(), CacheStats::merge)
    }

    /// Fingerprint of `dataset`'s lineage-derived content version across
    /// the workers currently materializing it. Changes exactly when the
    /// dataset's contents change under the same id — e.g. a root-load
    /// [`reload`](crate::engine::Engine::reload) at a new snapshot — so
    /// cached planning artifacts (selectivity estimates) can detect
    /// staleness without re-probing. Workers without the dataset
    /// contribute nothing; a fully-evicted dataset fingerprints as the
    /// empty fold, which conservatively invalidates.
    pub fn dataset_version_fingerprint(&self, dataset: DatasetId) -> u64 {
        let mut h = FNV_OFFSET;
        for w in &self.workers {
            if let Some(v) = w.dataset_version(dataset) {
                h = fnv_mix(h, &v.to_le_bytes());
            }
        }
        h
    }

    /// Estimate the selectivity of `predicate` over `dataset` from zone
    /// maps plus a bounded per-partition block probe — no full scan, no
    /// execution tree. Dead workers and missing partitions contribute
    /// nothing (a conservative estimate is fine: the planner only uses
    /// this to rank fuse vs. materialize, and `blocks == 0` degrades to
    /// "never promote").
    pub fn estimate_filter(
        &self,
        dataset: DatasetId,
        predicate: &Predicate,
    ) -> SelectivityEstimate {
        let mut est = SelectivityEstimate::default();
        for w in &self.workers {
            if !w.is_alive() {
                continue;
            }
            let Some(views) = w.partitions(dataset) else {
                continue;
            };
            for v in views.iter() {
                if let Ok(e) = estimate_selectivity(v.table(), predicate, 2) {
                    est = est.merge(&e);
                }
            }
        }
        est
    }

    /// Materialize `id` on every worker, in parallel, as its redo-log
    /// record `lineage` describes ([`Worker::derive`]). The first failing
    /// worker's error wins; a panicking worker op maps to a structured,
    /// retryable [`EngineError::LeafPanicked`] instead of taking the root
    /// down with it.
    pub fn derive(&self, id: DatasetId, lineage: &Lineage) -> EngineResult<()> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter()
                .map(|w| scope.spawn(|| w.derive(id, lineage)))
                .collect();
            let mut result = Ok(());
            for (worker, h) in handles.into_iter().enumerate() {
                let r = h.join().unwrap_or_else(|payload| {
                    Err(EngineError::LeafPanicked {
                        worker,
                        message: fault::panic_message(payload),
                    })
                });
                if result.is_ok() {
                    result = r;
                }
            }
            result
        })
    }

    /// Materialize `id` on one worker only (lineage replay).
    pub fn derive_on(&self, worker: usize, id: DatasetId, lineage: &Lineage) -> EngineResult<()> {
        self.workers[worker].derive(id, lineage)
    }

    /// Run an erased sketch over `dataset` as one execution tree.
    pub fn run_erased(
        &self,
        dataset: DatasetId,
        sketch: &Arc<dyn ErasedSketch>,
        opts: &QueryOptions,
    ) -> EngineResult<QueryOutcome> {
        self.run_erased_filtered(dataset, None, sketch, opts)
    }

    /// Run an erased sketch over `dataset`, optionally narrowed by a fused
    /// predicate: instead of materializing a filtered membership first,
    /// every leaf compiles `filter` into the sketch's own block pass — the
    /// predicate evaluates per 64-row frame, its match word ANDs into the
    /// selection word, and surviving lanes feed the kernel directly (one
    /// decode per frame, zone maps pruning for both stages).
    pub fn run_erased_filtered(
        &self,
        dataset: DatasetId,
        filter: Option<&Predicate>,
        sketch: &Arc<dyn ErasedSketch>,
        opts: &QueryOptions,
    ) -> EngineResult<QueryOutcome> {
        let filter: Option<Arc<Predicate>> = filter.map(|p| Arc::new(p.clone()));
        let started = Instant::now();
        let (tx, rx) = link_pair(self.cfg.link);
        // Internal token: stops this tree's outstanding work on errors
        // without cancelling the caller's query (which may retry after
        // recovery). Leaves observe both tokens.
        let tree_cancel = CancellationToken::new();

        // One epoch per tree launch: a random fault plan re-rolls every
        // site on retry (transient faults heal), while the schedule stays
        // a pure function of (seed, attempt index) — §5.8 replayability.
        let plan = self.fault_plan();
        if let Some(p) = &plan {
            p.bump_epoch();
        }

        // Structural query identity: half of the sketch-result cache key.
        // `None` (caller opted out, or the sketch has no deterministic
        // identity) disables caching for this tree on every worker.
        let query: Option<[u64; 2]> = if opts.cache {
            sketch
                .cache_identity()
                .map(|ident| query_hash(sketch.name(), &ident))
        } else {
            None
        };

        // Launch one aggregation node per worker.
        let mut aggregators = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            let worker = worker.clone();
            let sketch = sketch.clone();
            // Each aggregator gets its own link clone; arming the
            // frame-fault hook gives it a fresh sequence counter, so a
            // `Frame { worker, index }` site names the index-th frame
            // *this* node sends — deterministic under replay.
            let tx = match &plan {
                Some(p) => {
                    let p = p.clone();
                    let wid = worker.id;
                    tx.clone().with_faults(Arc::new(move |index, _len| {
                        match p.decide(FaultSite::Frame { worker: wid, index }) {
                            Some(FaultAction::DropFrame) => FrameFault::Drop,
                            Some(FaultAction::DuplicateFrame) => FrameFault::Duplicate,
                            Some(FaultAction::CorruptFrame(seed)) => FrameFault::Corrupt { seed },
                            Some(FaultAction::DelayFrame(d)) => FrameFault::Delay(d),
                            _ => FrameFault::Deliver,
                        }
                    }))
                }
                None => tx.clone(),
            };
            let cancel = opts.cancel.clone();
            let tree = tree_cancel.clone();
            let seed = opts.seed;
            let batch = self.cfg.batch_interval;
            let grain = self.cfg.leaf_grain_rows;
            let flt = filter.clone();
            aggregators.push(std::thread::spawn(move || {
                aggregate_worker(
                    worker, sketch, dataset, flt, seed, cancel, tree, tx, batch, query, grain,
                );
            }));
        }
        drop(tx);

        // Root merge loop.
        let n = self.workers.len();
        let mut root = RootState::new(n, opts.tolerate_failures);
        let mut last_heard: Vec<Instant> = vec![Instant::now(); n];
        let mut first_partial = None;
        let mut partials = 0usize;
        while root.running() {
            if opts.cancel.is_cancelled() {
                break;
            }
            if let Some(d) = opts.deadline {
                if started.elapsed() > d {
                    root.error = Some(EngineError::DeadlineExceeded {
                        elapsed: started.elapsed(),
                    });
                    break;
                }
            }
            // Liveness sweep on every iteration (heartbeats from healthy
            // workers keep the channel busy, so a quiet-tick-only sweep
            // could starve): a worker silent past `worker_timeout` —
            // aggregation nodes heartbeat every batch tick even when no
            // leaf has finished — is declared down.
            root.fail_unresolved(|w| last_heard[w].elapsed() > self.cfg.worker_timeout);
            let frame = match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Some(f)) => f,
                Ok(None) => continue,
                Err(_) => {
                    // Every aggregation node hung up. Any unresolved
                    // worker died without shipping a final frame (its
                    // thread panicked past all guards, or its finale was
                    // lost) — this must break the loop, never hang.
                    root.fail_unresolved(|_| true);
                    break;
                }
            };
            let msg = match WorkerMsg::decode(frame) {
                Ok(m) if (m.worker as usize) < n => m,
                // Corrupt frame (checksum mismatch, bad tag, truncated,
                // or an out-of-range worker id): drop it. The sender is
                // alive and its next batch tick re-ships the running
                // summary; a lost *final* frame is converted to a worker
                // failure by the liveness sweep. Never fatal at the root.
                _ => continue,
            };
            let w = msg.worker as usize;
            last_heard[w] = Instant::now();
            if root.resolved[w] {
                // Duplicate final or frames racing a failure verdict.
                continue;
            }
            match msg.payload {
                MsgPayload::Summary(bytes) => {
                    root.latest[w] = Some(Bytes::from(bytes));
                    root.done[w] = msg.work_done;
                    root.total[w] = msg.work_total;
                    if msg.is_final {
                        root.final_seen[w] = true;
                        root.resolved[w] = true;
                        root.resolved_count += 1;
                    }
                    // Progressive delivery to the client. A failing fold
                    // ends the tree like any other root error: through
                    // the teardown below, never by returning past it.
                    let Some(cb) = &opts.on_partial else {
                        first_partial.get_or_insert(started.elapsed());
                        continue;
                    };
                    match self.fold(sketch, &root.latest) {
                        Ok(summary) => {
                            first_partial.get_or_insert(started.elapsed());
                            partials += 1;
                            cb(&Partial {
                                fraction: root.progress(),
                                work_done: root.done.iter().sum(),
                                work_total: root.total.iter().sum(),
                                summary,
                            });
                        }
                        Err(e) => root.error = Some(e),
                    }
                }
                MsgPayload::Heartbeat => {
                    root.done[w] = msg.work_done;
                    root.total[w] = msg.work_total;
                }
                MsgPayload::Failure(f) => root.fail(w, f.into_error(w)),
            }
        }

        // Stop outstanding work, then release aggregator threads.
        if root.error.is_some() || opts.cancel.is_cancelled() || !root.failed_workers.is_empty() {
            tree_cancel.cancel();
        }
        let root_bytes = rx.metrics().bytes();
        let root_messages = rx.metrics().messages();
        drop(rx);
        for a in aggregators {
            let _ = a.join();
        }
        if let Some(e) = root.error {
            return Err(e);
        }

        // Degraded-mode accounting. Zero survivors is not a result.
        if !root.failed_workers.is_empty() && root.failed_workers.len() == n {
            return Err(EngineError::WorkerDown(root.failed_workers[0]));
        }
        Ok(QueryOutcome {
            bytes: self.fold(sketch, &root.latest)?,
            duration: started.elapsed(),
            root_bytes,
            root_messages,
            first_partial,
            partials,
            coverage: root.coverage(),
            failed_workers: root.failed_workers,
        })
    }

    /// Fold per-worker partials, in worker order, with the sketch's merge,
    /// starting from its identity.
    fn fold(
        &self,
        sketch: &Arc<dyn ErasedSketch>,
        latest: &[Option<Bytes>],
    ) -> EngineResult<Bytes> {
        let slots: Vec<&Bytes> = latest.iter().flatten().collect();
        sketch.fold_bytes(&slots)
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cluster({} workers)", self.workers.len())
    }
}

/// One sub-task completion flowing from a pool thread to the aggregation
/// node: which partition, where its range started (the fold key), how many
/// work units it covered, and the summary bytes (or `None` if skipped by
/// cancellation).
struct LeafMsg {
    partition: u32,
    lo: usize,
    work: u64,
    result: EngineResult<Option<Bytes>>,
}

/// Execute one leaf sub-task. While the piece is larger than `grain`
/// selected rows, peel off balanced right halves onto the pool — they land
/// on this thread's deque, where idle siblings steal them — then summarize
/// the remaining leftmost piece and report it keyed by range start.
///
/// With a fused `filter`, the leaf's scope carries it: the predicate is
/// compiled once per leaf and evaluated inside the block scan, so no
/// filtered membership ever exists. Split bounds and work weights stay
/// those of the *unfiltered* membership — filtering narrows rows, never
/// renumbers them — so the split plan (and therefore the deterministic
/// fold order) is identical with and without a filter.
///
/// `bonus` is 1 on the initial per-partition task (the extra work unit
/// that makes empty partitions observable) and 0 on split-off halves;
/// weights are conserved exactly across splits, so the aggregation node
/// detects completion when reported work matches the precomputed total.
#[allow(clippy::too_many_arguments)]
fn run_leaf_task(
    worker: Arc<Worker>,
    view: hillview_sketch::TableView,
    sketch: Arc<dyn ErasedSketch>,
    filter: Option<Arc<Predicate>>,
    partition: u32,
    lo: usize,
    hi: usize,
    weight: usize,
    bonus: u64,
    grain: usize,
    seed: u64,
    cancel: CancellationToken,
    tree: CancellationToken,
    tx: crossbeam::channel::Sender<LeafMsg>,
) {
    use hillview_columnar::SplittableSelection;

    worker.note_leaf_task();
    // Cancellation skips pieces not yet started (§5.3) — including any
    // splitting they would have done.
    let cancelled = cancel.is_cancelled() || tree.is_cancelled();
    let (mut lo, mut hi, mut weight) = (lo, hi, weight);
    if !cancelled {
        let mut part = SplittableSelection::with_weight(view.members(), lo, hi, weight);
        while part.weight() > grain {
            let Some((left, right)) = part.split() else {
                break;
            };
            let (rlo, rhi) = right.bounds();
            let rweight = right.weight();
            let w2 = worker.clone();
            let v2 = view.clone();
            let s2 = sketch.clone();
            let f2 = filter.clone();
            let c2 = cancel.clone();
            let t2 = tree.clone();
            let tx2 = tx.clone();
            worker.pool().submit(move || {
                run_leaf_task(
                    w2, v2, s2, f2, partition, rlo, rhi, rweight, 0, grain, seed, c2, t2, tx2,
                );
            });
            part = left;
        }
        (lo, hi) = part.bounds();
        weight = part.weight();
    }
    let result = if cancelled {
        Ok(None)
    } else {
        // Panic isolation: a panicking summarize (organic bug or injected
        // fault) must surface as a structured, retryable error that still
        // carries this piece's work weight — weight conservation is what
        // lets the aggregation node distinguish "done" from "lost".
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match worker.leaf_fault(partition, lo) {
                // lint: allow(panic, deliberate fault injection; caught by the catch_unwind directly above)
                Some(FaultAction::PanicLeaf) => panic!(
                    "injected leaf panic (worker {}, partition {partition}, lo {lo})",
                    worker.id
                ),
                Some(FaultAction::StallLeaf(d)) => std::thread::sleep(d),
                _ => {}
            }
            let scope = Scope {
                rows: Some((lo, hi)),
                filter: filter.as_deref(),
            };
            sketch.summarize_to_bytes(&view, &scope, seed).map(Some)
        }));
        match run {
            Ok(r) => r,
            Err(payload) => Err(EngineError::LeafPanicked {
                worker: worker.id,
                message: fault::panic_message(payload),
            }),
        }
    };
    let _ = tx.send(LeafMsg {
        partition,
        lo,
        work: weight as u64 + bonus,
        result,
    });
}

/// 128-bit query identity for the sketch-result cache: two independent
/// FNV-1a streams over (stream tag, sketch name, 0, cache-identity bytes).
/// Two streams because 64 bits of FNV over arbitrary parameter encodings
/// is too collidable for a cache whose hits silently replace computation.
fn query_hash(name: &str, identity: &[u8]) -> [u64; 2] {
    let mut out = [FNV_OFFSET, FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15];
    for (i, h) in out.iter_mut().enumerate() {
        let mut state = fnv_mix(*h, &[i as u8]);
        state = fnv_mix(state, name.as_bytes());
        state = fnv_mix(state, &[0]);
        *h = fnv_mix(state, identity);
    }
    out
}

/// The aggregation-node body for one worker (paper Fig. 1): fan leaf tasks
/// (splitting oversized partitions into sub-range tasks), merge
/// completions, ship batched partials to the root.
///
/// This wrapper is the node's crash barrier: if the body itself panics the
/// root still receives a final frame carrying the panic message, so the
/// merge loop terminates with a structured error instead of waiting out
/// the liveness timeout (or, before timeouts existed, hanging forever).
#[allow(clippy::too_many_arguments)]
fn aggregate_worker(
    worker: Arc<Worker>,
    sketch: Arc<dyn ErasedSketch>,
    dataset: DatasetId,
    filter: Option<Arc<Predicate>>,
    seed: u64,
    cancel: CancellationToken,
    tree_cancel: CancellationToken,
    tx: LinkSender,
    batch: Duration,
    query: Option<[u64; 2]>,
    grain: usize,
) {
    let mut link = RootLink {
        worker: worker.id as u32,
        work_total: 0,
        tx: &tx,
    };
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        aggregate_worker_inner(
            &worker,
            sketch,
            dataset,
            filter,
            seed,
            cancel,
            tree_cancel,
            &mut link,
            batch,
            query,
            grain,
        );
    })) {
        link.fail(0, Failure::LeafPanicked(fault::panic_message(payload)));
    }
}

#[allow(clippy::too_many_arguments)]
fn aggregate_worker_inner(
    worker: &Arc<Worker>,
    sketch: Arc<dyn ErasedSketch>,
    dataset: DatasetId,
    filter: Option<Arc<Predicate>>,
    seed: u64,
    cancel: CancellationToken,
    tree_cancel: CancellationToken,
    link: &mut RootLink<'_>,
    batch: Duration,
    query: Option<[u64; 2]>,
    grain: usize,
) {
    // Fault-injection point for "the worker fails *mid-query*": a Kill or
    // Evict decided here happens after the root committed to this tree.
    worker.fault_op(dataset);

    if !worker.is_alive() {
        return link.fail(0, Failure::WorkerDown);
    }
    let Some(views) = worker.partitions(dataset) else {
        return link.fail(0, Failure::DatasetMissing(dataset.0));
    };
    if views.is_empty() {
        let identity = sketch.identity_bytes().to_vec();
        return link.send(0, true, MsgPayload::Summary(identity));
    }

    // Work units: selected rows plus one per partition (the +1 keeps empty
    // partitions observable). Split halves conserve their weight exactly,
    // so completion is "reported work == precomputed total".
    let total_work: u64 = views.iter().map(|v| v.len() as u64 + 1).sum();
    link.work_total = total_work;

    // Sketch-result cache (paper §5.4), keyed structurally: the dataset's
    // lineage version — with the fused predicate's *canonical* bytes
    // folded in exactly as materializing it would — crossed with the
    // sketch's 128-bit query identity. A fused tree therefore shares
    // entries with any canonically-equal respelling of itself, but never
    // with the materialized two-pass plan (different fold boundaries may
    // legally differ in float ulps; cross-plan sharing would make results
    // cache-state-dependent). A hit reports the same row-weighted work
    // total as the compute path would, so the root's progress fraction
    // never mixes incomparable units across workers.
    let cache_key: Option<CacheKey> = query.and_then(|q| {
        let version = match &filter {
            Some(p) => worker.filtered_version(dataset, p),
            None => worker.dataset_version(dataset),
        }?;
        Some(CacheKey {
            dataset,
            version,
            query: q,
        })
    });
    let cache = worker.cache();
    let mut flight = None;
    if let Some(key) = cache_key {
        // Single-flight: if another tree is already computing this exact
        // key, wait for it in `batch`-sized slices — heartbeating between
        // slices so the root's liveness sweep sees us — instead of
        // duplicating the scan.
        let mut waited = false;
        loop {
            match cache.lookup(key) {
                Lookup::Hit(hit) => {
                    if waited {
                        cache.note_coalesced();
                    }
                    return link.send(total_work, true, MsgPayload::Summary(hit.to_vec()));
                }
                Lookup::Miss(guard) => {
                    flight = Some(guard);
                    break;
                }
                Lookup::InFlight => {
                    if cancel.is_cancelled() || tree_cancel.is_cancelled() {
                        break;
                    }
                    waited = true;
                    link.send(0, false, MsgPayload::Heartbeat);
                    cache.wait(&key, batch);
                }
            }
        }
    }
    // Non-splittable sketches run one task per partition, as before.
    let grain = if sketch.splittable() {
        grain.max(1)
    } else {
        usize::MAX
    };

    let (leaf_tx, leaf_rx) = crossbeam::channel::unbounded::<LeafMsg>();
    for (i, view) in views.iter().enumerate() {
        // Leaf seed mixes the query seed with worker and partition indexes
        // so samples are independent yet reproducible (§5.8). Sub-tasks of
        // one partition share its seed: each draws the partition-wide
        // sample and clips it to its range.
        let leaf_seed = seed
            ^ (worker.id as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ (i as u64).wrapping_mul(0xC2B2AE3D27D4EB4F);
        let universe = view.members().universe();
        let w2 = worker.clone();
        let v2 = view.clone();
        let s2 = sketch.clone();
        let f2 = filter.clone();
        let c2 = cancel.clone();
        let t2 = tree_cancel.clone();
        let tx2 = leaf_tx.clone();
        let weight = view.len();
        worker.pool().submit(move || {
            run_leaf_task(
                w2, v2, s2, f2, i as u32, 0, universe, weight, 1, grain, leaf_seed, c2, t2, tx2,
            );
        });
    }
    drop(leaf_tx);

    // Collect completions; propagate partials every `batch`. A partial
    // folds the running `acc` with the pieces that arrived since the last
    // one, in completion order, so each piece is decoded once per frame it
    // joins. It only feeds the transient partial stream; the final summary
    // is folded deterministically below.
    let mut pieces: Vec<(u32, usize, Bytes)> = Vec::new();
    let mut acc = sketch.identity_bytes();
    let mut folded = 0usize;
    let mut done_work = 0u64;
    let mut skipped = 0u64;
    while done_work < total_work {
        match leaf_rx.recv_timeout(batch) {
            Ok(msg) => {
                match msg.result {
                    Ok(Some(bytes)) => pieces.push((msg.partition, msg.lo, bytes)),
                    // Cancelled piece: counts as completed-with-nothing.
                    Ok(None) => skipped += 1,
                    Err(e) => return link.fail(done_work, Failure::of(e)),
                }
                done_work += msg.work;
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                if folded < pieces.len() {
                    let fresh = std::iter::once(&acc).chain(pieces[folded..].iter().map(|p| &p.2));
                    match sketch.fold_bytes(&fresh.collect::<Vec<_>>()) {
                        Ok(merged) => acc = merged,
                        Err(e) => return link.fail(done_work, Failure::of(e)),
                    }
                    folded = pieces.len();
                    link.send(done_work, false, MsgPayload::Summary(acc.to_vec()));
                } else {
                    // Nothing new merged this tick: heartbeat so the
                    // root's liveness sweep can tell slow from dead.
                    link.send(done_work, false, MsgPayload::Heartbeat);
                }
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
    }

    // The leaf channel can only disconnect short of the work total if
    // completions were *lost* — a pool thread died past every in-task
    // guard (the pool's own catch_unwind backstop swallows the panic but
    // not the piece's weight). Folding the surviving pieces would
    // silently drop rows; report the loss instead.
    if done_work < total_work {
        let wid = link.worker;
        return link.fail(
            done_work,
            Failure::LeafPanicked(format!(
                "leaf completions lost on worker {wid}: {done_work}/{total_work} work units reported"
            )),
        );
    }

    // Deterministic final fold: partials sorted by (partition, range
    // start). The piece set is a pure function of (membership, grain), so
    // this fold — unlike the completion-order `acc` — is bit-identical
    // across thread counts, steal orders, and replays, even for
    // order-sensitive merges (Misra-Gries) and floating-point sums.
    pieces.sort_by_key(|&(p, lo, _)| (p, lo));
    let ordered: Vec<&Bytes> = pieces.iter().map(|p| &p.2).collect();
    let final_acc = match sketch.fold_bytes(&ordered) {
        Ok(merged) => merged,
        Err(e) => return link.fail(done_work, Failure::of(e)),
    };

    // Cache only complete summaries: a tree cancelled mid-flight (user
    // cancel or a sibling worker's failure) leaves the fold partial, and
    // caching it would silently corrupt every later query (§5.4 caches
    // must hold deterministic, complete results). Every early return
    // above drops the flight guard un-completed, which abandons the
    // in-flight slot and wakes coalesced waiters to take over.
    if let Some(guard) = flight {
        if skipped == 0 && !cancel.is_cancelled() && !tree_cancel.is_cancelled() {
            guard.complete(final_acc.clone());
        }
    }
    link.send(done_work, true, MsgPayload::Summary(final_acc.to_vec()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FnSource, SourceSpec};
    use crate::erased::erase;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::count::{CountSketch, CountSummary};
    use hillview_sketch::histogram::{HistogramSketch, HistogramSummary};
    use hillview_sketch::BucketSpec;

    fn cluster(workers: usize) -> Arc<Cluster> {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("nums", |w, _n, _mp, _snap| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (0..10_000).map(|i| Some((i + w as i64 * 10_000) % 100)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let mut cfg = ClusterConfig::test();
        cfg.workers = workers;
        Cluster::new(cfg, sources, UdfRegistry::with_builtins())
    }

    fn load(c: &Cluster) -> DatasetId {
        let id = DatasetId(1);
        c.derive(
            id,
            &Lineage::Loaded {
                spec: SourceSpec {
                    source: Arc::from("nums"),
                    snapshot: 0,
                },
            },
        )
        .unwrap();
        id
    }

    #[test]
    fn count_query_spans_workers() {
        let c = cluster(3);
        let ds = load(&c);
        let outcome = c
            .run_erased(ds, &erase(CountSketch::rows()), &QueryOptions::default())
            .unwrap();
        let s = CountSummary::from_bytes(outcome.bytes).unwrap();
        assert_eq!(s.rows, 30_000);
        assert!(outcome.root_bytes > 0);
        assert!(outcome.root_messages >= 3, "≥1 message per worker");
    }

    #[test]
    fn histogram_query_merges_across_partitions() {
        let c = cluster(2);
        let ds = load(&c);
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 10));
        let outcome = c
            .run_erased(ds, &erase(sk), &QueryOptions::default())
            .unwrap();
        let s = HistogramSummary::from_bytes(outcome.bytes).unwrap();
        assert_eq!(s.buckets, vec![2000; 10]);
        assert_eq!(s.rows_inspected, 20_000);
    }

    #[test]
    fn partial_results_stream_to_client() {
        let c = cluster(2);
        let ds = load(&c);
        let seen = Arc::new(parking_lot::Mutex::new(Vec::<f64>::new()));
        let seen2 = seen.clone();
        let opts = QueryOptions {
            on_partial: Some(Arc::new(move |p: &Partial| {
                seen2.lock().push(p.fraction);
            })),
            ..Default::default()
        };
        let outcome = c
            .run_erased(ds, &erase(CountSketch::rows()), &opts)
            .unwrap();
        let fractions = seen.lock().clone();
        assert!(!fractions.is_empty(), "client saw partial updates");
        assert!(outcome.first_partial.is_some());
        assert!(
            fractions.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "monotone progress: {fractions:?}"
        );
        assert!((fractions.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn missing_dataset_reported_with_worker() {
        let c = cluster(2);
        let e = c
            .run_erased(
                DatasetId(99),
                &erase(CountSketch::rows()),
                &QueryOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(e, EngineError::DatasetMissing { .. }));
    }

    #[test]
    fn dead_worker_reported() {
        let c = cluster(2);
        let ds = load(&c);
        c.worker(1).kill();
        let e = c
            .run_erased(ds, &erase(CountSketch::rows()), &QueryOptions::default())
            .unwrap_err();
        assert_eq!(e, EngineError::WorkerDown(1));
    }

    #[test]
    fn sketch_error_propagates_from_leaves() {
        let c = cluster(2);
        let ds = load(&c);
        let e = c
            .run_erased(
                ds,
                &erase(CountSketch::of_column("Nope")),
                &QueryOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(e, EngineError::Sketch(_)));
    }

    #[test]
    fn computation_cache_serves_second_query() {
        let c = cluster(2);
        let ds = load(&c);
        let opts = QueryOptions::default();
        let a = c
            .run_erased(ds, &erase(CountSketch::rows()), &opts)
            .unwrap();
        let hits_before = c.cache_stats().hits;
        let b = c
            .run_erased(ds, &erase(CountSketch::rows()), &opts)
            .unwrap();
        let stats = c.cache_stats();
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(stats.hits - hits_before, 2, "both workers hit their cache");
        assert!(stats.bytes > 0 && stats.entries >= 2);
    }

    #[test]
    fn failed_tree_never_caches_partial_summaries() {
        // Regression: a worker failure cancels the tree; surviving workers
        // skip leaves and must NOT cache their incomplete summaries.
        let c = cluster(2);
        let ds = load(&c);
        c.worker(0).kill();
        let opts = QueryOptions::default();
        let _ = c.run_erased(ds, &erase(CountSketch::rows()), &opts);
        c.worker(0).restart();
        c.derive_on(
            0,
            ds,
            &Lineage::Loaded {
                spec: SourceSpec {
                    source: Arc::from("nums"),
                    snapshot: 0,
                },
            },
        )
        .unwrap();
        let outcome = c
            .run_erased(ds, &erase(CountSketch::rows()), &opts)
            .unwrap();
        let s = CountSummary::from_bytes(outcome.bytes).unwrap();
        assert_eq!(s.rows, 20_000, "no stale partial summary served");
    }

    #[test]
    fn cancellation_returns_partial_cleanly() {
        let c = cluster(2);
        let ds = load(&c);
        let cancel = CancellationToken::new();
        cancel.cancel(); // cancel before starting: all leaves skipped
        let opts = QueryOptions {
            cancel: cancel.clone(),
            ..Default::default()
        };
        let outcome = c.run_erased(ds, &erase(CountSketch::rows()), &opts);
        // Either an identity result or an early return; never a hang/panic.
        if let Ok(o) = outcome {
            let s = CountSummary::from_bytes(o.bytes).unwrap();
            assert!(s.rows <= 30_000);
        }
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let c = cluster(2);
        let ds = load(&c);
        let sk = HistogramSketch::sampled("X", BucketSpec::numeric(0.0, 100.0, 10), 0.2);
        let opts = QueryOptions {
            seed: 42,
            ..Default::default()
        };
        let a = c.run_erased(ds, &erase(sk.clone()), &opts).unwrap();
        let b = c.run_erased(ds, &erase(sk), &opts).unwrap();
        assert_eq!(a.bytes, b.bytes, "same seed ⇒ identical summaries");
    }

    /// Cluster with an explicit thread count and leaf grain, holding one
    /// worker with a 40k-row low-cardinality dataset (8 micropartitions).
    fn split_cluster(threads: usize, grain: usize) -> Arc<Cluster> {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("skewed", |_w, _n, _mp, _snap| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (0..40_000).map(|i| Some((i * 7919) % 100)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let cfg = ClusterConfig {
            workers: 1,
            threads_per_worker: threads,
            micropartition_rows: 5_000,
            batch_interval: Duration::from_millis(2),
            link: LinkConfig::instant(),
            leaf_grain_rows: grain,
            ..ClusterConfig::test()
        };
        Cluster::new(cfg, sources, UdfRegistry::with_builtins())
    }

    fn load_skewed(c: &Cluster) -> DatasetId {
        let id = DatasetId(1);
        c.derive(
            id,
            &Lineage::Loaded {
                spec: SourceSpec {
                    source: Arc::from("skewed"),
                    snapshot: 0,
                },
            },
        )
        .unwrap();
        id
    }

    #[test]
    fn split_execution_matches_unsplit_bytes_for_exact_sketches() {
        // Tiny grain (forces ~8 sub-tasks per partition) vs huge grain (no
        // splitting): integer-merge sketches must produce identical bytes.
        use hillview_sketch::heavy::SampledHeavyHittersSketch;
        let split = split_cluster(4, 512);
        let unsplit = split_cluster(2, usize::MAX);
        let (da, db) = (load_skewed(&split), load_skewed(&unsplit));
        let sketches: Vec<Arc<dyn crate::erased::ErasedSketch>> = vec![
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 10),
            )),
            erase(HistogramSketch::sampled(
                "X",
                BucketSpec::numeric(0.0, 100.0, 10),
                0.25,
            )),
            erase(CountSketch::of_column("X")),
            erase(SampledHeavyHittersSketch::new("X", 4, 0.5)),
        ];
        for sk in sketches {
            let opts = QueryOptions {
                seed: 99,
                ..Default::default()
            };
            let a = split.run_erased(da, &sk, &opts).unwrap();
            let b = unsplit.run_erased(db, &sk, &opts).unwrap();
            assert_eq!(a.bytes, b.bytes, "sketch {}", sk.name());
        }
        // The split cluster really did split: more leaf tasks than the 8
        // partitions per query.
        assert!(
            split.worker(0).leaf_tasks_executed() > 4 * 8,
            "leaf tasks {} show no intra-partition splitting",
            split.worker(0).leaf_tasks_executed()
        );
        assert_eq!(unsplit.worker(0).leaf_tasks_executed(), 4 * 8);
    }

    #[test]
    fn split_results_independent_of_thread_count() {
        // Order-sensitive (Misra-Gries) and floating-point (moments)
        // sketches: the split plan and range-ordered fold are fixed, so
        // 1-thread and 4-thread execution produce identical bytes.
        use hillview_sketch::heavy::MisraGriesSketch;
        use hillview_sketch::moments::MomentsSketch;
        let one = split_cluster(1, 700);
        let four = split_cluster(4, 700);
        let (da, db) = (load_skewed(&one), load_skewed(&four));
        let sketches: Vec<Arc<dyn crate::erased::ErasedSketch>> = vec![
            erase(MisraGriesSketch::new("X", 5)),
            erase(MomentsSketch::new("X", 4)),
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 16),
            )),
        ];
        for sk in sketches {
            let opts = QueryOptions::default();
            let a = one.run_erased(da, &sk, &opts).unwrap();
            let b = four.run_erased(db, &sk, &opts).unwrap();
            assert_eq!(a.bytes, b.bytes, "sketch {}", sk.name());
            // Re-running on the same cluster is also stable.
            let a2 = one.run_erased(da, &sk, &opts).unwrap();
            assert_eq!(a.bytes, a2.bytes, "sketch {} re-run", sk.name());
        }
    }

    #[test]
    fn split_progress_reports_row_weighted_work() {
        let c = split_cluster(2, 512);
        let ds = load_skewed(&c);
        let seen = Arc::new(parking_lot::Mutex::new(Vec::<(u64, u64)>::new()));
        let seen2 = seen.clone();
        let opts = QueryOptions {
            on_partial: Some(Arc::new(move |p: &Partial| {
                seen2.lock().push((p.work_done, p.work_total));
            })),
            ..Default::default()
        };
        let sk = erase(HistogramSketch::streaming(
            "X",
            BucketSpec::numeric(0.0, 100.0, 10),
        ));
        c.run_erased(ds, &sk, &opts).unwrap();
        let partials = seen.lock().clone();
        assert!(!partials.is_empty());
        let (done, total) = *partials.last().unwrap();
        // 40k rows + 8 partitions worth of work units.
        assert_eq!(total, 40_000 + 8);
        assert_eq!(done, total, "final partial reports complete work");
        assert!(
            partials.windows(2).all(|w| w[0].0 <= w[1].0),
            "work progress is monotone: {partials:?}"
        );
    }

    #[test]
    fn results_independent_of_worker_count() {
        // Partition-invariance: the same logical dataset spread over 1 vs 4
        // workers yields identical exact summaries.
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("span", |w, n, _mp, _snap| {
            // 40k logical rows split contiguously across n workers.
            let per = 40_000 / n as i64;
            let lo = w as i64 * per;
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (lo..lo + per).map(|i| Some(i % 100)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let mut results = Vec::new();
        for workers in [1usize, 4] {
            let mut cfg = ClusterConfig::test();
            cfg.workers = workers;
            let c = Cluster::new(cfg, sources.clone(), UdfRegistry::new());
            let ds = DatasetId(5);
            c.derive(
                ds,
                &Lineage::Loaded {
                    spec: SourceSpec {
                        source: Arc::from("span"),
                        snapshot: 0,
                    },
                },
            )
            .unwrap();
            let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 20));
            let o = c
                .run_erased(ds, &erase(sk), &QueryOptions::default())
                .unwrap();
            results.push(o.bytes);
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn fused_tree_matches_materialized_filter_for_exact_sketches() {
        // Integer-merge sketches: a fused tree over the parent must equal
        // a plain tree over the materialized filtered dataset byte-for-
        // byte, even though the two trees split along different plans
        // (fused splits the unfiltered membership, two-pass the narrowed
        // one — both folds are exact sums, so the bytes agree).
        use hillview_sketch::distinct::DistinctSketch;
        let c = split_cluster(4, 512);
        let ds = load_skewed(&c);
        let pred = Predicate::range("X", 10.0, 60.0);
        let filtered = DatasetId(2);
        c.derive(
            filtered,
            &Lineage::Filtered {
                parent: ds,
                predicate: pred.clone(),
            },
        )
        .unwrap();
        let sketches: Vec<Arc<dyn crate::erased::ErasedSketch>> = vec![
            erase(CountSketch::rows()),
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 10),
            )),
            erase(DistinctSketch::new("X")),
        ];
        for sk in sketches {
            let opts = QueryOptions {
                seed: 7,
                ..Default::default()
            };
            let fused = c.run_erased_filtered(ds, Some(&pred), &sk, &opts).unwrap();
            let two_pass = c.run_erased(filtered, &sk, &opts).unwrap();
            assert_eq!(fused.bytes, two_pass.bytes, "sketch {}", sk.name());
        }
    }

    #[test]
    fn fused_tree_deterministic_across_thread_counts() {
        // The fused split plan derives from the *unfiltered* membership and
        // the grain — both fixed — so order-sensitive (Misra-Gries) and
        // floating-point (moments) sketches produce identical bytes on 1
        // and 4 threads, exactly like the unfiltered trees do.
        use hillview_sketch::heavy::MisraGriesSketch;
        use hillview_sketch::moments::MomentsSketch;
        let one = split_cluster(1, 700);
        let four = split_cluster(4, 700);
        let (da, db) = (load_skewed(&one), load_skewed(&four));
        let pred = Predicate::range("X", 5.0, 95.0);
        let sketches: Vec<Arc<dyn crate::erased::ErasedSketch>> = vec![
            erase(MisraGriesSketch::new("X", 5)),
            erase(MomentsSketch::new("X", 4)),
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 16),
            )),
        ];
        for sk in sketches {
            let opts = QueryOptions::default();
            let a = one
                .run_erased_filtered(da, Some(&pred), &sk, &opts)
                .unwrap();
            let b = four
                .run_erased_filtered(db, Some(&pred), &sk, &opts)
                .unwrap();
            assert_eq!(a.bytes, b.bytes, "sketch {}", sk.name());
            let a2 = one
                .run_erased_filtered(da, Some(&pred), &sk, &opts)
                .unwrap();
            assert_eq!(a.bytes, a2.bytes, "sketch {} re-run", sk.name());
        }
    }

    #[test]
    fn fused_and_unfiltered_queries_cache_without_collision() {
        // The structural key folds the fused predicate's canonical bytes
        // into the dataset version, so the fused and unfiltered entries
        // for the same sketch coexist — and canonically-equal respellings
        // of the predicate share the fused entry.
        let c = cluster(2);
        let ds = load(&c);
        let opts = QueryOptions::default();
        let pred = Predicate::range("X", 0.0, 50.0);
        let sk = erase(CountSketch::rows());
        let narrowed = c.run_erased_filtered(ds, Some(&pred), &sk, &opts).unwrap();
        assert_eq!(
            CountSummary::from_bytes(narrowed.bytes).unwrap().rows,
            10_000
        );
        let full = c.run_erased(ds, &sk, &opts).unwrap();
        assert_eq!(CountSummary::from_bytes(full.bytes).unwrap().rows, 20_000);

        // Repeats of both shapes are pure cache hits.
        let hits_before = c.cache_stats().hits;
        let narrowed2 = c.run_erased_filtered(ds, Some(&pred), &sk, &opts).unwrap();
        let full2 = c.run_erased(ds, &sk, &opts).unwrap();
        assert_eq!(
            CountSummary::from_bytes(narrowed2.bytes).unwrap().rows,
            10_000
        );
        assert_eq!(CountSummary::from_bytes(full2.bytes).unwrap().rows, 20_000);
        assert_eq!(c.cache_stats().hits - hits_before, 4);

        // A canonically-equal respelling (`p AND true` canonicalizes to
        // `p`) hits the same fused entry instead of recomputing.
        let respelled = pred.clone().and(Predicate::True);
        let hits_before = c.cache_stats().hits;
        let narrowed3 = c
            .run_erased_filtered(ds, Some(&respelled), &sk, &opts)
            .unwrap();
        assert_eq!(
            CountSummary::from_bytes(narrowed3.bytes).unwrap().rows,
            10_000
        );
        assert_eq!(c.cache_stats().hits - hits_before, 2);
    }

    #[test]
    fn concurrent_identical_queries_coalesce_onto_one_flight() {
        let c = cluster(2);
        let ds = load(&c);
        let sk = erase(CountSketch::rows());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (c, sk) = (&c, &sk);
                    scope.spawn(move || {
                        c.run_erased(ds, sk, &QueryOptions::default())
                            .unwrap()
                            .bytes
                    })
                })
                .collect();
            let results: Vec<Bytes> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results {
                assert_eq!(r, &results[0]);
            }
        });
        let stats = c.cache_stats();
        // Exactly one scan per worker; the other three trees either hit
        // the finished entry or coalesced onto the in-flight scan.
        assert_eq!(stats.insertions, 2, "{stats:?}");
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.hits, 6, "{stats:?}");
    }

    #[test]
    fn worker_msg_decode_rejects_corruption() {
        // Satellite of the wire-corruption work: every mutation of an
        // encoded root-link frame must yield a structured error (checksum
        // or parse), never a panic — and single-bit flips must never
        // decode into a different valid message.
        let msg = WorkerMsg {
            worker: 1,
            work_done: 12_345,
            work_total: 99_999,
            is_final: true,
            payload: MsgPayload::Summary(vec![7u8; 64]),
        };
        let good = msg.encode();
        assert!(WorkerMsg::decode(good.clone()).is_ok());
        // Truncations at every boundary.
        for cut in 0..good.len() {
            let t = Bytes::from(good[..cut].to_vec());
            assert!(WorkerMsg::decode(t).is_err(), "truncated at {cut}");
        }
        // Every single-bit flip: must error, or — when the flip lands in
        // varint overflow bits that don't change the decoded value —
        // decode to the *identical* message. Never a different one.
        let reference = msg.encode_body();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut m = good.to_vec();
                m[byte] ^= 1 << bit;
                if let Ok(decoded) = WorkerMsg::decode(Bytes::from(m)) {
                    assert_eq!(
                        decoded.encode_body(),
                        reference,
                        "bit flip at byte {byte} bit {bit} decoded to a different message"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_msg_frame_matches_known_answer() {
        // The root link's frame layout and checksum (FNV-1a 64 of the
        // body) are pinned byte for byte: varint checksum, varint body
        // length, then the body.
        let msg = WorkerMsg {
            worker: 1,
            work_done: 300,
            work_total: 301,
            is_final: true,
            payload: MsgPayload::Failure(Failure::Error("boom".into())),
        };
        let body: &[u8] = &[1, 172, 2, 173, 2, 1, 3, 4, b'b', b'o', b'o', b'm'];
        assert_eq!(&msg.encode_body()[..], body);
        assert_eq!(fnv_mix(FNV_OFFSET, body), 0x9503_b1c9_2a97_c4a8);
        let mut frame = vec![168, 137, 223, 212, 146, 185, 236, 129, 149, 1, 12];
        frame.extend_from_slice(body);
        assert_eq!(&msg.encode()[..], &frame[..]);
    }

    /// Leaves sleep, then emit the piece `[1]`; a worker's fold of pieces
    /// is `[2]`. Folding worker summaries alone — which only the root
    /// does — fails.
    struct RootFoldFails;

    impl ErasedSketch for RootFoldFails {
        fn name(&self) -> &'static str {
            "root-fold-fails"
        }
        fn summarize_to_bytes(
            &self,
            _view: &hillview_sketch::TableView,
            _scope: &Scope<'_>,
            _seed: u64,
        ) -> EngineResult<Bytes> {
            std::thread::sleep(Duration::from_millis(20));
            Ok(Bytes::from_static(&[1]))
        }
        fn splittable(&self) -> bool {
            false
        }
        fn fold_bytes(&self, pieces: &[&Bytes]) -> EngineResult<Bytes> {
            if pieces.iter().any(|p| p[..] == [1]) {
                Ok(Bytes::from_static(&[2]))
            } else if pieces.is_empty() {
                Ok(self.identity_bytes())
            } else {
                Err(EngineError::Sketch("root fold failed".into()))
            }
        }
        fn identity_bytes(&self) -> Bytes {
            Bytes::from_static(&[0])
        }
        fn cache_identity(&self) -> Option<Vec<u8>> {
            Some(Vec::new())
        }
    }

    #[test]
    fn failing_progressive_fold_tears_the_tree_down() {
        // Any summary reaching the root fails its fold, so the error and
        // the assertions below hold whatever the timing. The leaves' 20 ms
        // (10 partitions per worker on 2 pool threads) only make a return
        // before the tree is joined visible: the first partial arrives
        // long before the last leaf starts.
        let c = cluster(2);
        let ds = load(&c);
        let opts = QueryOptions {
            on_partial: Some(Arc::new(|_: &Partial| {})),
            ..Default::default()
        };
        let sk: Arc<dyn ErasedSketch> = Arc::new(RootFoldFails);
        let e = c.run_erased(ds, &sk, &opts).unwrap_err();
        assert_eq!(e, EngineError::Sketch("root fold failed".into()));
        // Joined aggregation nodes have accounted for every leaf task
        // (cancelled ones run as no-ops), so all 20 have started...
        let leaf_tasks = || -> u64 { (0..2).map(|w| c.worker(w).leaf_tasks_executed()).sum() };
        let insertions = || c.cache_stats().insertions;
        assert_eq!(leaf_tasks(), 20, "returned before the tree was joined");
        let before = insertions();
        // ...and nothing of the tree runs after the call returned: no
        // leaf starts, no flight guard completes into the cache.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(leaf_tasks(), 20, "leaves started after the call returned");
        assert_eq!(
            insertions(),
            before,
            "a cache entry landed after the call returned"
        );
    }

    #[test]
    fn aggregator_death_without_final_frame_terminates_root_loop() {
        // Regression for the root-merge-loop hang: a worker whose
        // aggregation node dies without ever shipping a final frame (here:
        // every frame it sends is dropped) must be detected by the
        // liveness sweep — the query errors out instead of hanging.
        let mut cfg = ClusterConfig::test();
        cfg.worker_timeout = Duration::from_millis(200);
        let c = {
            let mut sources = SourceRegistry::new();
            sources.register(Arc::new(FnSource::new("nums", |w, _n, _mp, _snap| {
                let t = Table::builder()
                    .column(
                        "X",
                        ColumnKind::Int,
                        Column::Int(I64Column::from_options(
                            (0..10_000).map(|i| Some((i + w as i64 * 10_000) % 100)),
                        )),
                    )
                    .build()
                    .unwrap();
                Ok(vec![t])
            })));
            Cluster::new(cfg, sources, UdfRegistry::with_builtins())
        };
        let ds = load(&c);
        // Drop every frame worker 1's node sends, finals included.
        c.arm_faults(FaultPlan::scripted((0..64).map(|i| {
            (
                FaultSite::Frame {
                    worker: 1,
                    index: i,
                },
                FaultAction::DropFrame,
            )
        })));
        let started = Instant::now();
        let e = c
            .run_erased(ds, &erase(CountSketch::rows()), &QueryOptions::default())
            .unwrap_err();
        assert_eq!(e, EngineError::WorkerDown(1));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "liveness sweep bounded the wait"
        );
    }

    #[test]
    fn injected_leaf_panic_surfaces_structured() {
        let c = cluster(2);
        let ds = load(&c);
        c.arm_faults(FaultPlan::scripted([(
            FaultSite::Leaf {
                worker: 0,
                partition: 0,
                lo: 0,
            },
            FaultAction::PanicLeaf,
        )]));
        let e = c
            .run_erased(ds, &erase(CountSketch::rows()), &QueryOptions::default())
            .unwrap_err();
        match e {
            EngineError::LeafPanicked { worker, message } => {
                assert_eq!(worker, 0);
                assert!(message.contains("injected leaf panic"), "{message}");
            }
            other => panic!("expected LeafPanicked, got {other:?}"),
        }
        // The panic was isolated: disarm and the same cluster still works.
        c.disarm_faults();
        let o = c
            .run_erased(ds, &erase(CountSketch::rows()), &QueryOptions::default())
            .unwrap();
        let s = CountSummary::from_bytes(o.bytes).unwrap();
        assert_eq!(s.rows, 20_000);
    }

    #[test]
    fn duplicated_and_corrupted_frames_do_not_skew_results() {
        // Duplicate every frame worker 0 sends (finals included — the
        // duplicate-final guard is what keeps the count exact) and corrupt
        // worker 1's first frame. A stalled leaf on worker 1 guarantees
        // its frame 0 is a partial/heartbeat, not the final: the corrupt
        // frame is dropped by the checksum and later frames carry the
        // result through.
        let c = cluster(2);
        let ds = load(&c);
        let mut rules: Vec<(FaultSite, FaultAction)> = Vec::new();
        for i in 0..64 {
            rules.push((
                FaultSite::Frame {
                    worker: 0,
                    index: i,
                },
                FaultAction::DuplicateFrame,
            ));
        }
        rules.push((
            FaultSite::Frame {
                worker: 1,
                index: 0,
            },
            FaultAction::CorruptFrame(0xDEAD_BEEF),
        ));
        rules.push((
            FaultSite::Leaf {
                worker: 1,
                partition: 0,
                lo: 0,
            },
            FaultAction::StallLeaf(Duration::from_millis(50)),
        ));
        c.arm_faults(FaultPlan::scripted(rules));
        let o = c
            .run_erased(ds, &erase(CountSketch::rows()), &QueryOptions::default())
            .unwrap();
        let s = CountSummary::from_bytes(o.bytes).unwrap();
        assert_eq!(s.rows, 20_000, "exact despite dup + corrupt frames");
        assert_eq!(o.coverage, 1.0);
        assert!(o.failed_workers.is_empty());
    }

    #[test]
    fn tolerate_mode_folds_survivors_with_honest_coverage() {
        let c = cluster(2);
        let ds = load(&c);
        c.worker(1).kill();
        let opts = QueryOptions {
            tolerate_failures: true,
            ..Default::default()
        };
        let o = c
            .run_erased(ds, &erase(CountSketch::rows()), &opts)
            .unwrap();
        let s = CountSummary::from_bytes(o.bytes).unwrap();
        assert_eq!(s.rows, 10_000, "survivor's shard only");
        assert_eq!(o.failed_workers, vec![1]);
        assert!(
            o.coverage > 0.0 && o.coverage < 1.0,
            "coverage honestly strict: {}",
            o.coverage
        );
    }

    #[test]
    fn tolerate_mode_with_no_survivors_errors() {
        let c = cluster(2);
        let ds = load(&c);
        c.worker(0).kill();
        c.worker(1).kill();
        let opts = QueryOptions {
            tolerate_failures: true,
            ..Default::default()
        };
        let e = c
            .run_erased(ds, &erase(CountSketch::rows()), &opts)
            .unwrap_err();
        assert!(matches!(e, EngineError::WorkerDown(_)));
    }

    #[test]
    fn deadline_exceeded_is_structured_and_bounded() {
        let c = cluster(2);
        let ds = load(&c);
        // Stall every initial leaf long enough to blow a tiny deadline.
        let rules: Vec<(FaultSite, FaultAction)> = (0..2)
            .flat_map(|w| {
                (0..10u32).map(move |p| {
                    (
                        FaultSite::Leaf {
                            worker: w,
                            partition: p,
                            lo: 0,
                        },
                        FaultAction::StallLeaf(Duration::from_millis(120)),
                    )
                })
            })
            .collect();
        c.arm_faults(FaultPlan::scripted(rules));
        let opts = QueryOptions {
            deadline: Some(Duration::from_millis(40)),
            ..Default::default()
        };
        let started = Instant::now();
        let e = c
            .run_erased(ds, &erase(CountSketch::rows()), &opts)
            .unwrap_err();
        assert!(matches!(e, EngineError::DeadlineExceeded { .. }), "{e}");
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
