//! The workload runner: set-up, measured passes, checks and metrics.

use crate::data::{self, Reference, ScratchDir, WORKERS};
use crate::json::Json;
use crate::ops::{self, Expect, Op, OpResult, Traced, TreeRecord, ALL_OPS, DISPLAY};
use crate::stats::{geomean, mean, median, quantile, tail_level};
use crate::trace::Tracer;
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{BlockCache, BlockCacheStats, Predicate, SegmentMode, Table};
use hillview_core::dataset::SourceRegistry;
use hillview_core::{
    CacheStats, Cluster, ClusterConfig, DatasetId, Engine, FnSource, HvcDirSource, QueryOptions,
    Spreadsheet,
};
use hillview_sketch::count::CountSketch;
use hillview_sketch::distinct::DistinctSketch;
use hillview_sketch::range::RangeSketch;
use hillview_storage::{partition_table, SpillingWriter};
use hillview_viz::cdf::CdfViz;
use hillview_viz::histogram::HistogramViz;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four workloads; each is the only one where one layer does most of
/// the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// O1–O11 on heap data with every sketch cache cleared before each.
    Explore,
    /// O5–O11 re-rendered with the sketch cache kept warm.
    Revisit,
    /// Each pass derives a filtered child with a UDF column and runs
    /// O1–O11 on it.
    Drilldown,
    /// Spilled part files, everything evicted before each operation.
    ColdParts,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::Explore,
    Workload::Revisit,
    Workload::Drilldown,
    Workload::ColdParts,
];

impl Workload {
    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Revisit => "revisit",
            Workload::Drilldown => "drilldown",
            Workload::ColdParts => "cold_parts",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// The operations of one pass. O4 and O6 never run cold (Figure 6).
    pub fn ops(self) -> &'static [Op] {
        match self {
            Workload::Explore | Workload::Drilldown => &ALL_OPS,
            Workload::Revisit => &ALL_OPS[4..],
            Workload::ColdParts => &[
                Op::O1,
                Op::O2,
                Op::O3,
                Op::O5,
                Op::O7,
                Op::O8,
                Op::O9,
                Op::O10,
                Op::O11,
            ],
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time after set-up.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny data and a single pass: exercises every path and check quickly.
    pub smoke: bool,
}

/// Sizes derived from [`Config::smoke`].
#[derive(Debug, Clone, Copy)]
struct Scale {
    rows: usize,
    micropartition_rows: usize,
    setup_reps: usize,
}

impl Scale {
    fn of(smoke: bool) -> Scale {
        if smoke {
            Scale {
                rows: 20_000,
                micropartition_rows: 5_000,
                setup_reps: 1,
            }
        } else {
            // Flights at 5x: the paper's 650M rows scaled down 1000-fold.
            Scale {
                rows: 650_000,
                micropartition_rows: 100_000,
                setup_reps: 3,
            }
        }
    }

    fn topology(&self) -> String {
        format!(
            "{WORKERS} workers x 1 pool thread, {} rows per micropartition and spill part",
            self.micropartition_rows
        )
    }
}

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// `BENCHMARK.json` name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations and dataset checks attempted.
    pub attempted: u64,
    /// Of those, how many errored or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Full report: metadata, every metric, per-operation table, failures.
    pub report: Json,
    /// Spans as JSON lines (traced runs).
    pub spans: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }
}

/// Operations attempted and failed; failures are counted, never retried.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(format!("{what}: {f}"));
            }
        }
    }
}

/// Cluster-wide counters, differenced around each pass (saturating: a
/// restarted worker starts its counters afresh).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    cache: CacheStats,
    block: BlockCacheStats,
    leaf_tasks: u64,
    panicked: u64,
}

impl Counters {
    fn read(cluster: &Cluster) -> Counters {
        let workers = (0..cluster.num_workers()).map(|w| cluster.worker(w));
        Counters {
            cache: cluster.cache_stats(),
            block: cluster.block_cache_stats(),
            leaf_tasks: workers.clone().map(|w| w.leaf_tasks_executed()).sum(),
            panicked: workers.map(|w| w.pool().tasks_panicked() as u64).sum(),
        }
    }

    fn since(&self, b: &Counters) -> Counters {
        let (c, bc) = (&self.cache, &b.cache);
        let (k, bk) = (&self.block, &b.block);
        Counters {
            cache: CacheStats {
                hits: c.hits.saturating_sub(bc.hits),
                misses: c.misses.saturating_sub(bc.misses),
                insertions: c.insertions.saturating_sub(bc.insertions),
                evictions: c.evictions.saturating_sub(bc.evictions),
                coalesced: c.coalesced.saturating_sub(bc.coalesced),
                ..*c
            },
            block: BlockCacheStats {
                faults: k.faults.saturating_sub(bk.faults),
                bytes_faulted: k.bytes_faulted.saturating_sub(bk.bytes_faulted),
                hits: k.hits.saturating_sub(bk.hits),
                evictions: k.evictions.saturating_sub(bk.evictions),
                ..*k
            },
            leaf_tasks: self.leaf_tasks.saturating_sub(b.leaf_tasks),
            panicked: self.panicked.saturating_sub(b.panicked),
        }
    }
}

/// What the dataset checks compare against.
struct Truth {
    base: Reference,
    band: Predicate,
    child: Reference,
}

/// Set-up cost of one instance.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    generate_s: f64,
    spill_s: f64,
    load_s: f64,
    warmup_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate_s + self.spill_s + self.load_s + self.warmup_s
    }
}

/// One cluster with the workload's dataset loaded.
struct Instance {
    engine: Arc<Engine>,
    base: DatasetId,
    setup: SetupTimes,
    file_bytes: u64,
    heap_bytes: usize,
    mapped_bytes: usize,
    parts: Vec<PathBuf>,
    // Declared last: dropped after the engine has released its files.
    _spill: Option<ScratchDir>,
}

/// Where spill directories and run outputs live: inside the benchmark's
/// own directory of the checkout it was built from.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn engine_over(sources: SourceRegistry, scale: &Scale) -> Arc<Engine> {
    let mut udfs = UdfRegistry::with_builtins();
    udfs.register_ratio("Speed", "Distance", "AirTime");
    let cfg = ClusterConfig {
        workers: WORKERS,
        threads_per_worker: 1,
        micropartition_rows: scale.micropartition_rows,
        // Generous liveness bound: a loaded two-core host must not turn a
        // slow aggregation node into a spurious failure.
        worker_timeout: Duration::from_secs(30),
        ..ClusterConfig::default()
    };
    Arc::new(Engine::new(Cluster::new(cfg, sources, udfs)))
}

fn evict_everywhere(engine: &Engine, ids: &[DatasetId]) {
    let cluster = engine.cluster();
    for w in 0..cluster.num_workers() {
        for id in ids {
            cluster.worker(w).evict(*id);
        }
    }
}

/// Everything measured in one pass.
#[derive(Debug, Default)]
struct PassRecord {
    wall_s: f64,
    traced: bool,
    delta: Counters,
    derive_ms: f64,
    replay_ms: Vec<f64>,
    ops: Vec<(Op, OpResult)>,
}

struct Bench<'a> {
    cfg: &'a Config,
    scale: Scale,
    truth: Option<Truth>,
    tally: Tally,
    tracer: Tracer,
    trees: RefCell<Vec<TreeRecord>>,
}

impl Bench<'_> {
    fn truth(&self) -> &Truth {
        self.truth
            .as_ref()
            .expect("truth is computed by the first set-up")
    }

    /// Generate, spill (cold workload), load and warm up one instance.
    fn setup(&mut self) -> Result<Instance, String> {
        let mut times = SetupTimes::default();
        let started = Instant::now();
        let tables = data::generate(self.scale.rows, self.cfg.seed);
        let mp = self.scale.micropartition_rows;
        times.generate_s = started.elapsed().as_secs_f64();
        if self.truth.is_none() {
            let band = data::distance_band(&tables, self.cfg.seed);
            self.truth = Some(Truth {
                base: Reference::of(&tables, None),
                child: Reference::of(&tables, Some(&band)),
                band,
            });
        }

        let mut sources = SourceRegistry::new();
        let mut spill = None;
        let mut file_bytes = 0;
        let mut parts = Vec::new();
        if self.cfg.workload == Workload::ColdParts {
            let dir = ScratchDir::new(&bench_dir().join(".scratch")).map_err(|e| e.to_string())?;
            let started = Instant::now();
            let mut writer = SpillingWriter::new(dir.path(), mp).map_err(|e| e.to_string())?;
            for t in &tables {
                writer.push(t).map_err(|e| e.to_string())?;
            }
            let manifest = writer.finish().map_err(|e| e.to_string())?;
            times.spill_s = started.elapsed().as_secs_f64();
            parts = manifest.paths().map(Path::to_path_buf).collect();
            for p in &parts {
                file_bytes += std::fs::metadata(p).map_err(|e| e.to_string())?.len();
            }
            sources.register(Arc::new(HvcDirSource::new("flights", dir.path())));
            spill = Some(dir);
        } else {
            let started = Instant::now();
            let shares: Arc<Vec<Vec<Table>>> =
                Arc::new(tables.iter().map(|t| partition_table(t, mp)).collect());
            times.generate_s += started.elapsed().as_secs_f64();
            sources.register(Arc::new(FnSource::new(
                "flights",
                move |w, _n, _mp, _snap| Ok(shares[w].clone()),
            )));
        }
        drop(tables);

        let engine = engine_over(sources, &self.scale);
        let started = Instant::now();
        let base = engine.load("flights", 1).map_err(|e| e.to_string())?;
        times.load_s = started.elapsed().as_secs_f64();
        let mut inst = Instance {
            heap_bytes: engine.cluster().dataset_heap_bytes(base),
            mapped_bytes: engine.cluster().dataset_mapped_bytes(base),
            engine,
            base,
            setup: times,
            file_bytes,
            parts,
            _spill: spill,
        };

        let started = Instant::now();
        let warm = self.pass(&inst, u64::MAX, false);
        inst.setup.warmup_s = started.elapsed().as_secs_f64();
        self.record_ops(&warm, "warm-up");
        self.check_datasets(&inst);
        Ok(inst)
    }

    fn record_ops(&mut self, pass: &PassRecord, when: &str) {
        for (op, r) in &pass.ops {
            self.tally
                .record(&format!("{when} {}", op.name()), r.failure.clone());
        }
    }

    /// Compare exact, partition-invariant summaries of the base dataset (and
    /// of a drill-down child) with the reference computed from the generated
    /// tables, and check that streaming histogram and CDF totals equal the
    /// row count.
    fn check_datasets(&mut self, inst: &Instance) {
        let truth = self.truth();
        let base = check_dataset(&inst.engine, inst.base, &truth.base);
        let child = (self.cfg.workload == Workload::Drilldown).then(|| {
            let engine = &inst.engine;
            let filtered = engine.filter_lazy(inst.base, truth.band.clone());
            let child = engine
                .map(filtered, "Speed", "Speed")
                .map_err(|e| e.to_string());
            let r = child.and_then(|c| {
                let r = check_dataset(engine, c, &truth.child);
                evict_everywhere(engine, &[c]);
                r
            });
            evict_everywhere(engine, &[filtered]);
            r
        });
        self.tally.record("base dataset check", base.err());
        if let Some(r) = child {
            self.tally.record("drill-down child check", r.err());
        }
    }

    /// One pass of the workload's script. `traced` passes go through the
    /// traced path; the others through the `Spreadsheet` API.
    fn pass(&self, inst: &Instance, pass_no: u64, traced: bool) -> PassRecord {
        let engine = &inst.engine;
        let cluster = engine.cluster();
        // Untraced passes record nothing, not even the harness's own spans.
        let off = Tracer::new(false);
        let tracer = if traced { &self.tracer } else { &off };
        let seed = data::mix(self.cfg.seed, 0x9A55 ^ pass_no);
        let mirror = Traced::new(engine, tracer);
        mirror.set_seed(seed);
        let mut rec = PassRecord {
            traced,
            ..PassRecord::default()
        };
        let truth = self.truth();
        let before = Counters::read(cluster);
        let started = Instant::now();

        // The sheet the operations run on; drill-down derives a child.
        let mut derived = Vec::new();
        let (ds, expect) = if self.cfg.workload == Workload::Drilldown {
            let t = Instant::now();
            let child = if traced {
                tracer.span("engine.derive", || {
                    let f = engine.filter_lazy(inst.base, truth.band.clone());
                    derived.push(f);
                    engine.map(f, "Speed", "Speed")
                })
            } else {
                let sheet = Spreadsheet::new(engine.clone(), inst.base, DISPLAY);
                sheet.filtered(truth.band.clone()).and_then(|f| {
                    derived.push(f.dataset());
                    f.with_column("Speed", "Speed").map(|c| c.dataset())
                })
            };
            rec.derive_ms += t.elapsed().as_secs_f64() * 1e3;
            match child {
                Ok(c) => {
                    derived.push(c);
                    (c, truth.child.distinct_exact)
                }
                Err(e) => {
                    let failed = OpResult {
                        failure: Some(format!("derive: {e}")),
                        ..OpResult::default()
                    };
                    rec.ops.push((Op::O1, failed));
                    rec.wall_s = started.elapsed().as_secs_f64();
                    return rec;
                }
            }
        } else {
            (inst.base, truth.base.distinct_exact)
        };
        let expect = Expect {
            distinct_exact: expect,
        };
        let sheet = Spreadsheet::new(engine.clone(), ds, DISPLAY);
        sheet.set_seed(seed);

        for &op in self.cfg.workload.ops() {
            match self.cfg.workload {
                Workload::Explore => tracer.span("cluster.clear_cache", || {
                    for w in 0..cluster.num_workers() {
                        cluster.worker(w).cache().clear();
                    }
                }),
                Workload::ColdParts => {
                    tracer.span("cluster.evict_all", || cluster.evict_all());
                    if traced {
                        // The replay the engine would do on its first
                        // failed attempt, made explicit so it can be timed.
                        for w in 0..cluster.num_workers() {
                            let t = Instant::now();
                            let r = tracer.span("engine.replay", || engine.replay(w, ds));
                            rec.replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            if let Err(e) = r {
                                rec.ops.push((
                                    op,
                                    OpResult {
                                        failure: Some(format!("replay: {e}")),
                                        ..OpResult::default()
                                    },
                                ));
                            }
                        }
                    }
                }
                Workload::Revisit | Workload::Drilldown => {}
            }
            let r = if traced {
                mirror.run_op(op, ds, expect)
            } else {
                ops::run_sheet(op, &sheet, expect)
            };
            if let Some(d) = r.derived {
                tracer.span("cluster.evict", || evict_everywhere(engine, &[d]));
            }
            rec.derive_ms += r.derive.as_secs_f64() * 1e3;
            rec.ops.push((op, r));
        }
        if !derived.is_empty() {
            tracer.span("cluster.evict", || evict_everywhere(engine, &derived));
        }
        rec.wall_s = started.elapsed().as_secs_f64();
        rec.delta = Counters::read(cluster).since(&before);
        if traced {
            self.trees
                .borrow_mut()
                .extend(mirror.trees.borrow().iter().copied());
        }
        rec
    }
}

/// Exact summaries of `ds` must equal `reference`, and streaming histogram
/// and CDF totals must equal its row count.
fn check_dataset(engine: &Engine, ds: DatasetId, reference: &Reference) -> Result<(), String> {
    let opts = QueryOptions::default();
    let run_err = |e: hillview_core::EngineError| e.to_string();
    let rows = engine
        .run(ds, CountSketch::rows(), &opts)
        .map_err(run_err)?
        .0
        .rows;
    if rows != reference.rows {
        return Err(format!("row count {rows} != reference {}", reference.rows));
    }
    for (col, want) in data::RANGE_COLUMNS.iter().zip(&reference.ranges) {
        let got = engine
            .run(ds, RangeSketch::new(col), &opts)
            .map_err(run_err)?
            .0;
        if &got != want {
            return Err(format!("range of {col} {got:?} != reference {want:?}"));
        }
    }
    let distinct = engine
        .run(ds, DistinctSketch::new(data::DISTINCT_COLUMN), &opts)
        .map_err(run_err)?
        .0;
    if distinct != reference.distinct {
        return Err("distinct registers differ from the reference".to_string());
    }
    let range = &reference.ranges[1];
    let column = data::RANGE_COLUMNS[1];
    let sketches = [
        HistogramViz::new(column, DISPLAY)
            .exact()
            .prepare_numeric(range),
        CdfViz::new(column, DISPLAY).exact().prepare(range),
    ];
    for sketch in sketches {
        let sketch = sketch.map_err(|e| e.to_string())?;
        let h = engine.run(ds, sketch, &opts).map_err(run_err)?.0;
        let total = h.total_in_buckets() + h.missing + h.out_of_range;
        if total != rows {
            return Err(format!("streaming histogram total {total} != rows {rows}"));
        }
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` without
/// running git; `unknown` outside a repository.
fn git_commit() -> String {
    let git = bench_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(s) = std::fs::read_to_string(git.join(reference)) {
        return s.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Median time of `reps` runs of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut() -> Result<Duration, String>) -> Result<f64, String> {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        xs.push(ms(f()?));
    }
    Ok(median(&xs))
}

/// Per-layer numbers timed in isolation after the measured passes.
struct Isolated {
    probe_ms: f64,
    open_ms: f64,
    kernel_ms: Vec<f64>,
}

impl Bench<'_> {
    /// Passes of the workload's script for `--seconds`. A traced run
    /// alternates untraced and traced passes, so the two can be compared
    /// within one process.
    fn measure(&mut self, inst: &Instance) -> Vec<PassRecord> {
        let started = Instant::now();
        let min_passes = if self.cfg.trace { 2 } else { 1 };
        let mut passes: Vec<PassRecord> = Vec::new();
        loop {
            let traced = self.cfg.trace && passes.len() % 2 == 1;
            let p = self.pass(inst, passes.len() as u64, traced);
            self.record_ops(&p, "pass");
            passes.push(p);
            let done = passes.len() >= min_passes;
            if done && (self.cfg.smoke || started.elapsed().as_secs_f64() >= self.cfg.seconds) {
                return passes;
            }
        }
    }

    /// Storage opens and sketch kernels, each timed on its own.
    fn isolated(&self, inst: &Instance) -> Result<Isolated, String> {
        let tracer = &self.tracer;
        let reps = if self.cfg.smoke { 1 } else { 3 };
        // Header probe and mapped open of every spilled part.
        let probe_ms = median_ms(reps, || {
            let t = Instant::now();
            for p in &inst.parts {
                tracer
                    .span("storage.probe", || hillview_storage::probe_file(p))
                    .map_err(|e| e.to_string())?;
            }
            Ok(t.elapsed())
        })?;
        let open_ms = median_ms(reps, || {
            let cache = BlockCache::unbounded();
            let t = Instant::now();
            for p in &inst.parts {
                tracer
                    .span("storage.open", || {
                        hillview_storage::read_file_mapped(p, &cache, SegmentMode::Auto)
                    })
                    .map_err(|e| e.to_string())?;
            }
            Ok(t.elapsed())
        })?;

        // Each operation's render-phase sketches on one thread, over
        // resident partitions: block faults are the block cache's share of
        // a cold operation, not the kernel's.
        let engine = &inst.engine;
        if self.cfg.workload == Workload::ColdParts {
            for w in 0..WORKERS {
                engine.replay(w, inst.base).map_err(|e| e.to_string())?;
            }
        }
        let mut kernel_ms = vec![0.0; ALL_OPS.len()];
        for &op in self.cfg.workload.ops() {
            let (ds, derived) = if self.cfg.workload == Workload::Drilldown {
                let f = engine.filter_lazy(inst.base, self.truth().band.clone());
                let c = engine.map(f, "Speed", "Speed").map_err(|e| e.to_string())?;
                (c, vec![c, f])
            } else {
                (inst.base, Vec::new())
            };
            kernel_ms[op.index()] = median_ms(reps, || ops::kernel_time(op, engine, ds, tracer))?;
            evict_everywhere(engine, &derived);
        }
        Ok(Isolated {
            probe_ms,
            open_ms,
            kernel_ms,
        })
    }
}

/// Run one workload as `cfg` says.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let scale = Scale::of(cfg.smoke);
    let mut bench = Bench {
        cfg,
        scale,
        truth: None,
        tally: Tally::default(),
        tracer: Tracer::new(cfg.trace),
        trees: RefCell::new(Vec::new()),
    };

    // The measured instance is set up first, so the peak resident set
    // covers one set-up and the measured passes. The further set-ups only time
    // set-up again; they run after the peak is read.
    let inst = bench.setup()?;
    let mut setups = vec![inst.setup];
    let started = Instant::now();
    let passes = bench.measure(&inst);
    let measured_s = started.elapsed().as_secs_f64();
    bench.check_datasets(&inst);
    let peak_rss = peak_rss_mb();
    let isolated = if cfg.trace {
        Some(bench.isolated(&inst)?)
    } else {
        None
    };
    let resident_bytes = inst.engine.cluster().block_cache_stats().resident_bytes;
    let (file_bytes, heap_bytes, mapped_bytes) =
        (inst.file_bytes, inst.heap_bytes, inst.mapped_bytes);
    drop(inst);
    for _ in 1..scale.setup_reps {
        setups.push(bench.setup()?.setup);
    }

    let ops = cfg.workload.ops();
    let untraced: Vec<&PassRecord> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&PassRecord> = passes.iter().filter(|p| p.traced).collect();
    let mut dur = vec![Vec::new(); ALL_OPS.len()];
    let mut first = vec![Vec::new(); ALL_OPS.len()];
    for p in &untraced {
        for (op, r) in &p.ops {
            if r.failure.is_none() {
                dur[op.index()].push(ms(r.duration));
                first[op.index()].push(ms(r.first));
            }
        }
    }
    let op_median: Vec<f64> = dur.iter().map(|d| median(d)).collect();
    let first_median: Vec<f64> = first.iter().map(|d| median(d)).collect();
    let script_values = |v: &[f64]| -> Vec<f64> { ops.iter().map(|o| v[o.index()]).collect() };
    let samples = untraced.len();
    let (tail_q, tail_name) = tail_level(samples);
    let tails: Vec<f64> = dur.iter().map(|d| quantile(d, tail_q)).collect();

    let pass_wall: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let setup_total: Vec<f64> = setups.iter().map(|s| s.total()).collect();
    let setup_of = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let e2e = vec![
        ("op_ms_geomean", geomean(&script_values(&op_median)), "ms"),
        (
            "first_ms_geomean",
            geomean(&script_values(&first_median)),
            "ms",
        ),
        ("pass_s", median(&pass_wall), "s"),
        ("setup_s", median(&setup_total), "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];

    // Per-layer numbers.
    let per_pass = |f: &dyn Fn(&PassRecord) -> f64| mean(&passes.iter().map(f).collect::<Vec<_>>());
    let untraced_per_pass =
        |f: &dyn Fn(&PassRecord) -> f64| mean(&untraced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let total = passes.iter().fold(Counters::default(), |acc, p| Counters {
        cache: acc.cache.merge(p.delta.cache),
        block: {
            let mut b = acc.block;
            b.merge(&p.delta.block);
            b
        },
        leaf_tasks: acc.leaf_tasks + p.delta.leaf_tasks,
        panicked: acc.panicked + p.delta.panicked,
    });
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let trees = bench.trees.borrow();
    let tree_ms: Vec<f64> = trees.iter().map(|t| t.ms).collect();
    let hit_ms: Vec<f64> = trees.iter().filter(|t| t.cache_hit).map(|t| t.ms).collect();
    let replay_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.replay_ms.iter().copied())
        .collect();
    let mb = |b: f64| b / (1024.0 * 1024.0);

    let mut layer: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| layer.push((name.to_string(), v, unit));
    for op in ALL_OPS {
        put(
            &format!("spreadsheet.{}_ms", op.name()),
            op_median[op.index()],
            "ms",
        );
    }
    for op in ALL_OPS {
        put(
            &format!("spreadsheet.{}_first_ms", op.name()),
            first_median[op.index()],
            "ms",
        );
    }
    put(
        "spreadsheet.tail_ms_geomean",
        geomean(&script_values(&tails)),
        "ms",
    );
    put("spreadsheet.samples_per_op", samples as f64, "count");
    put(
        "spreadsheet.trees_per_pass",
        untraced_per_pass(&|p| p.ops.iter().map(|(_, r)| r.trees as f64).sum()),
        "count",
    );
    put("engine.tree_ms_p50", median(&tree_ms), "ms");
    put("engine.hit_tree_ms_p50", median(&hit_ms), "ms");
    put("engine.replay_ms", median(&replay_ms), "ms");
    put(
        "engine.derive_ms",
        median(&passes.iter().map(|p| p.derive_ms).collect::<Vec<_>>()),
        "ms",
    );
    put(
        "engine.partials_per_pass",
        untraced_per_pass(&|p| p.ops.iter().map(|(_, r)| r.partials as f64).sum()),
        "count",
    );
    put(
        "engine.coverage_min",
        trees.iter().map(|t| t.coverage).fold(1.0, f64::min),
        "ratio",
    );
    put(
        "sketch_cache.hits",
        per_pass(&|p| p.delta.cache.hits as f64),
        "count",
    );
    put(
        "sketch_cache.misses",
        per_pass(&|p| p.delta.cache.misses as f64),
        "count",
    );
    put(
        "sketch_cache.coalesced",
        per_pass(&|p| p.delta.cache.coalesced as f64),
        "count",
    );
    put(
        "sketch_cache.insertions",
        per_pass(&|p| p.delta.cache.insertions as f64),
        "count",
    );
    put(
        "sketch_cache.evictions",
        per_pass(&|p| p.delta.cache.evictions as f64),
        "count",
    );
    put(
        "sketch_cache.hit_ratio",
        ratio(total.cache.hits, total.cache.misses),
        "ratio",
    );
    put(
        "worker.leaf_tasks_per_pass",
        per_pass(&|p| p.delta.leaf_tasks as f64),
        "count",
    );
    put("pool.tasks_panicked", total.panicked as f64, "count");
    put(
        "block_cache.faults",
        per_pass(&|p| p.delta.block.faults as f64),
        "count",
    );
    put(
        "block_cache.bytes_faulted_mb",
        per_pass(&|p| mb(p.delta.block.bytes_faulted as f64)),
        "MiB",
    );
    put(
        "block_cache.hits",
        per_pass(&|p| p.delta.block.hits as f64),
        "count",
    );
    put(
        "block_cache.hit_ratio",
        ratio(total.block.hits, total.block.faults),
        "ratio",
    );
    put(
        "block_cache.evictions",
        per_pass(&|p| p.delta.block.evictions as f64),
        "count",
    );
    put("block_cache.resident_mb", mb(resident_bytes as f64), "MiB");
    put(
        "net.root_kb_per_pass",
        untraced_per_pass(&|p| {
            p.ops.iter().map(|(_, r)| r.root_bytes as f64).sum::<f64>() / 1024.0
        }),
        "KiB",
    );
    put(
        "net.root_messages_per_pass",
        untraced_per_pass(&|p| p.ops.iter().map(|(_, r)| r.root_messages as f64).sum()),
        "count",
    );
    put("data.generate_s", setup_of(|s| s.generate_s), "s");
    put("storage.spill_s", setup_of(|s| s.spill_s), "s");
    put("storage.file_mb", mb(file_bytes as f64), "MiB");
    put("cluster.heap_mb", mb(heap_bytes as f64), "MiB");
    put("cluster.mapped_mb", mb(mapped_bytes as f64), "MiB");
    let failed_frac = bench.tally.failed as f64 / bench.tally.attempted.max(1) as f64;
    put("failed_frac", failed_frac, "ratio");

    if let Some(iso) = isolated {
        let traced_passes = traced.len().max(1) as f64;
        put("storage.probe_ms", iso.probe_ms, "ms");
        put("storage.open_ms", iso.open_ms, "ms");
        for op in ALL_OPS {
            put(
                &format!("sketch.{}_kernel_ms", op.name()),
                iso.kernel_ms[op.index()],
                "ms",
            );
        }
        let op_sum: f64 = script_values(&op_median).iter().sum();
        let kernel_sum: f64 = script_values(&iso.kernel_ms).iter().sum();
        let share = if op_sum > 0.0 {
            kernel_sum / op_sum
        } else {
            0.0
        };
        put("sketch.kernel_share", share, "ratio");

        let render_ms: f64 = bench
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "viz.render")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum();
        put("viz.render_ms_per_pass", render_ms / traced_passes, "ms");
        let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        put(
            "trace.overhead_frac",
            median(&traced_wall) / median(&pass_wall) - 1.0,
            "ratio",
        );
        // The storage and kernel spans are isolated replays, not part of a
        // pass; their layers are left out of the per-pass self times.
        let self_ms = bench.tracer.self_ms_by_layer();
        for l in ["spreadsheet", "engine", "viz", "cluster"] {
            let v = self_ms.get(l).copied().unwrap_or(0.0) / traced_passes;
            put(&format!("trace.{l}_self_ms_per_pass"), v, "ms");
        }
    }

    let correct = bench.tally.failed == 0;
    let e2e_metrics: Vec<Metric> = e2e
        .into_iter()
        .map(|(n, v, u)| Metric {
            name: n.into(),
            value: v,
            unit: u,
        })
        .collect();
    let layer_metrics: Vec<Metric> = layer
        .into_iter()
        .map(|(n, v, u)| Metric {
            name: n,
            value: v,
            unit: u,
        })
        .collect();

    let metric_json = |ms: &[Metric]| {
        Json::obj(ms.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    };
    let per_op = Json::Arr(
        ops.iter()
            .map(|op| {
                let i = op.index();
                Json::obj([
                    ("op", Json::str(op.name())),
                    ("samples", Json::Num(dur[i].len() as f64)),
                    ("median_ms", Json::Num(op_median[i])),
                    ("first_median_ms", Json::Num(first_median[i])),
                    ("tail_ms", Json::Num(tails[i])),
                    (
                        "samples_ms",
                        Json::Arr(dur[i].iter().map(|x| Json::Num(*x)).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let report = Json::obj([
        (
            "meta",
            Json::obj([
                ("workload", Json::str(cfg.workload.name())),
                ("seed", Json::Num(cfg.seed as f64)),
                ("trace", Json::Bool(cfg.trace)),
                ("smoke", Json::Bool(cfg.smoke)),
                ("rows", Json::Num(scale.rows as f64)),
                ("topology", Json::str(scale.topology())),
                ("load", Json::str("closed loop, one client thread")),
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
                ),
                ("simd_active", Json::Bool(hillview_columnar::simd::active())),
                (
                    "simd_force_scalar",
                    Json::Bool(hillview_columnar::simd::force_scalar()),
                ),
                // Every crate is built with its default features: no `simd`
                // kernels, and the portable pread tier for mapped columns.
                ("features", Json::Arr(Vec::new())),
                (
                    "block_cache_bytes_env",
                    std::env::var("HILLVIEW_BLOCK_CACHE_BYTES").map_or(Json::Null, Json::Str),
                ),
                ("git_commit", Json::str(git_commit())),
                ("setup_reps", Json::Num(setups.len() as f64)),
                (
                    "setup_s",
                    Json::Arr(setup_total.iter().map(|s| Json::Num(*s)).collect()),
                ),
                ("passes", Json::Num(passes.len() as f64)),
                (
                    "pass_s_samples",
                    Json::Arr(pass_wall.iter().map(|x| Json::Num(*x)).collect()),
                ),
                ("untraced_passes", Json::Num(untraced.len() as f64)),
                ("traced_passes", Json::Num(traced.len() as f64)),
                ("measured_s", Json::Num(measured_s)),
                ("median_samples", Json::Num(samples as f64)),
                ("tail_percentile", Json::str(tail_name)),
                ("engine_trees", Json::Num(trees.len() as f64)),
                ("cache_hit_trees", Json::Num(hit_ms.len() as f64)),
            ]),
        ),
        ("end_to_end", metric_json(&e2e_metrics)),
        ("per_layer", metric_json(&layer_metrics)),
        ("ops", per_op),
        (
            "failures",
            Json::Arr(
                bench
                    .tally
                    .failures
                    .iter()
                    .map(|f| Json::str(f.clone()))
                    .collect(),
            ),
        ),
    ]);
    Ok(Outcome {
        correct,
        attempted: bench.tally.attempted,
        failed: bench.tally.failed,
        metrics: if cfg.trace {
            layer_metrics
        } else {
            e2e_metrics
        },
        report,
        spans: cfg.trace.then(|| bench.tracer.to_json_lines()),
    })
}
