//! The paper's Figure 4 operations, three ways: through the public
//! `Spreadsheet` API (untraced runs), as the same sequence of engine and
//! viz calls with a span around each (traced runs), and as an isolated
//! single-thread replay of each operation's render-phase kernels.

use crate::trace::Tracer;
use hillview_columnar::{Predicate, SortOrder, Value};
use hillview_core::{DatasetId, Engine, QueryOptions, Spreadsheet};
use hillview_sketch::bottomk::BottomKSketch;
use hillview_sketch::count::CountSketch;
use hillview_sketch::distinct::DistinctSketch;
use hillview_sketch::range::{RangeSketch, RangeSummary};
use hillview_sketch::{Sketch, TableView};
use hillview_viz::cdf::{CdfRendering, CdfViz};
use hillview_viz::display::DisplaySpec;
use hillview_viz::heatmap::{AxisInfo, HeatmapViz};
use hillview_viz::heavyviz::{HeavyHittersRendering, HeavyHittersViz};
use hillview_viz::histogram::HistogramViz;
use hillview_viz::render::{BarChart, ColorGrid};
use hillview_viz::stacked::{StackedRendering, StackedViz};
use hillview_viz::tableview::{TablePage, TableViewViz};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The display every chart renders for (Figure 5's harness uses the same).
pub const DISPLAY: DisplaySpec = DisplaySpec {
    width_px: 600,
    height_px: 200,
};

/// Rows of a table page.
pub const PAGE_ROWS: usize = 20;

/// Scroll-bar pixel O4 drags to.
const SCROLL_PIXEL: usize = 50;

const O2_COLUMNS: [&str; 5] = ["Year", "Month", "DayOfMonth", "CRSDepTime", "FlightNum"];

/// One of the paper's Figure 4 operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Sort by one numeric column.
    O1,
    /// Sort by five columns.
    O2,
    /// Sort by one string column.
    O3,
    /// Scroll-bar drag: quantile, then the page there.
    O4,
    /// Range, then histogram and CDF.
    O5,
    /// Filter, then O5 on the filtered sheet.
    O6,
    /// String histogram.
    O7,
    /// Heavy hitters by sampling.
    O8,
    /// Distinct count.
    O9,
    /// Stacked histogram and CDF.
    O10,
    /// Heat map.
    O11,
}

/// Figure 4, in order.
pub const ALL_OPS: [Op; 11] = [
    Op::O1,
    Op::O2,
    Op::O3,
    Op::O4,
    Op::O5,
    Op::O6,
    Op::O7,
    Op::O8,
    Op::O9,
    Op::O10,
    Op::O11,
];

impl Op {
    /// `O1` … `O11`.
    pub fn name(self) -> &'static str {
        [
            "O1", "O2", "O3", "O4", "O5", "O6", "O7", "O8", "O9", "O10", "O11",
        ][self as usize]
    }

    /// Position in [`ALL_OPS`].
    pub fn index(self) -> usize {
        self as usize
    }
}

fn o6_filter() -> Predicate {
    Predicate::equals("Carrier", "UA")
}

/// What one operation cost, and what went wrong with it, if anything.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    /// Time to the final view.
    pub duration: Duration,
    /// Time to the first partial view (the final time when none came).
    pub first: Duration,
    /// Bytes the root received.
    pub root_bytes: u64,
    /// Messages the root received.
    pub root_messages: u64,
    /// Partial views delivered.
    pub partials: usize,
    /// Execution trees run.
    pub trees: usize,
    /// Time spent deriving a sheet inside the operation (O6's filter).
    pub derive: Duration,
    /// The sheet derived inside the operation, for the caller to evict.
    pub derived: Option<DatasetId>,
    /// An error, or the output check that failed.
    pub failure: Option<String>,
}

/// What an operation's output is checked against.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Exact distinct count of the O9 column on the sheet's rows.
    pub distinct_exact: u64,
}

type Checked = Result<(), String>;

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Checked {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// A rendered cell, ordered the way the engine sorts values: missing first.
#[derive(Debug, PartialEq, PartialOrd)]
enum Key {
    Missing,
    Num(f64),
    Text(String),
}

fn parse_cell(s: &str) -> Key {
    if s == Value::Missing.to_string() {
        return Key::Missing;
    }
    let num = s.strip_prefix('@').unwrap_or(s);
    match num.parse::<f64>() {
        Ok(v) => Key::Num(v),
        Err(_) => Key::Text(s.to_string()),
    }
}

/// A page is full and ascending in its first `key_columns` cells.
fn check_page(page: &TablePage, key_columns: usize) -> Checked {
    ensure(page.rows.len() == PAGE_ROWS, || {
        format!("page has {} rows, wanted {PAGE_ROWS}", page.rows.len())
    })?;
    let keys: Vec<Vec<Key>> = page
        .rows
        .iter()
        .map(|(cells, _)| {
            cells
                .iter()
                .take(key_columns)
                .map(|c| parse_cell(c))
                .collect()
        })
        .collect();
    ensure(keys.windows(2).all(|w| w[0] <= w[1]), || {
        "page rows are not in ascending key order".to_string()
    })
}

fn check_bars(chart: &BarChart) -> Checked {
    let tallest = chart.heights_px.iter().copied().max().unwrap_or(0);
    ensure(
        chart.max_count > 0 && tallest as usize == chart.height_px,
        || format!("histogram tallest bar {tallest}px of {}px", chart.height_px),
    )
}

fn check_cdf(cdf: &CdfRendering) -> Checked {
    let monotone = cdf.heights_px.windows(2).all(|w| w[0] <= w[1]);
    let last = cdf.heights_px.last().copied().unwrap_or(0);
    ensure(monotone && last as usize == cdf.height_px, || {
        format!(
            "CDF monotone={monotone}, ends at {last}px of {}px",
            cdf.height_px
        )
    })
}

fn check_heavy(hh: &HeavyHittersRendering) -> Checked {
    ensure(!hh.items.is_empty() && hh.total > 0, || {
        "heavy hitters are empty".to_string()
    })
}

/// HyperLogLog with 2^12 registers has a 1.6% standard error; 10% is six
/// standard errors.
fn check_distinct(estimate: f64, exact: u64) -> Checked {
    let err = (estimate - exact as f64).abs() / (exact.max(1) as f64);
    ensure(err <= 0.10, || {
        format!("distinct estimate {estimate:.0} vs exact {exact}")
    })
}

fn check_stacked(s: &StackedRendering) -> Checked {
    ensure(!s.bar_px.is_empty() && s.max_count > 0, || {
        "stacked histogram is empty".to_string()
    })
}

fn check_grid(g: &ColorGrid) -> Checked {
    ensure(g.bx > 0 && g.by > 0 && g.max_count > 0, || {
        "heat map is empty".to_string()
    })
}

fn from_stats(s: hillview_core::OpStats) -> OpResult {
    OpResult {
        duration: s.duration,
        first: s.first_partial.unwrap_or(s.duration),
        root_bytes: s.root_bytes,
        root_messages: s.root_messages,
        partials: s.partials,
        trees: s.trees,
        derive: Duration::ZERO,
        derived: None,
        failure: None,
    }
}

fn settle<T>(
    r: Result<(T, hillview_core::OpStats), String>,
    check: impl FnOnce(&T) -> Checked,
) -> OpResult {
    match r {
        Ok((out, stats)) => {
            let mut res = from_stats(stats);
            res.failure = check(&out).err();
            res
        }
        Err(e) => OpResult {
            failure: Some(e),
            ..OpResult::default()
        },
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Run `op` through the public spreadsheet API and check its output.
pub fn run_sheet(op: Op, sheet: &Spreadsheet, expect: Expect) -> OpResult {
    match op {
        Op::O1 => settle(
            sheet.sort_view(&["DepDelay"], PAGE_ROWS).map_err(err),
            |p| check_page(p, 1),
        ),
        Op::O2 => settle(sheet.sort_view(&O2_COLUMNS, PAGE_ROWS).map_err(err), |p| {
            check_page(p, 5)
        }),
        Op::O3 => settle(sheet.sort_view(&["TailNum"], PAGE_ROWS).map_err(err), |p| {
            check_page(p, 1)
        }),
        Op::O4 => settle(
            sheet
                .scroll_to(&O2_COLUMNS, SCROLL_PIXEL, PAGE_ROWS)
                .map_err(err),
            |p| check_page(p, 5),
        ),
        Op::O5 => settle(
            sheet
                .histogram_with_cdf("DepDelay", None)
                .map(|(c, d, s)| ((c, d), s))
                .map_err(err),
            |(c, d)| check_bars(c).and_then(|_| check_cdf(d)),
        ),
        Op::O6 => {
            // The derivation is part of the operation, as in Figure 5.
            let started = Instant::now();
            let filtered = match sheet.filtered(o6_filter()) {
                Ok(f) => f,
                Err(e) => {
                    return OpResult {
                        failure: Some(err(e)),
                        ..OpResult::default()
                    }
                }
            };
            let derive = started.elapsed();
            let mut res = settle(
                filtered
                    .histogram_with_cdf("DepDelay", None)
                    .map(|(c, d, s)| ((c, d), s))
                    .map_err(err),
                |(c, d)| check_bars(c).and_then(|_| check_cdf(d)),
            );
            res.duration += derive;
            res.first += derive;
            res.derive = derive;
            res.derived = Some(filtered.dataset());
            res
        }
        Op::O7 => settle(sheet.string_histogram("Origin").map_err(err), check_bars),
        Op::O8 => settle(
            sheet.heavy_hitters_sampling("Carrier", 10).map_err(err),
            check_heavy,
        ),
        Op::O9 => settle(
            sheet
                .distinct_count(crate::data::DISTINCT_COLUMN)
                .map_err(err),
            |e| check_distinct(*e, expect.distinct_exact),
        ),
        Op::O10 => settle(
            sheet
                .stacked_histogram_with_cdf("CRSDepTime", "Carrier")
                .map(|(s, c, st)| ((s, c), st))
                .map_err(err),
            |(s, c)| check_stacked(s).and_then(|_| check_cdf(c)),
        ),
        Op::O11 => settle(
            sheet.heatmap("Distance", "AirTime").map_err(err),
            check_grid,
        ),
    }
}

/// One execution tree run by the traced path.
#[derive(Debug, Clone, Copy)]
pub struct TreeRecord {
    /// `QueryOutcome::duration`, in milliseconds.
    pub ms: f64,
    /// Every worker answered from its sketch cache.
    pub cache_hit: bool,
    /// `QueryOutcome::coverage`.
    pub coverage: f64,
}

/// The traced path: each operation as the engine and viz calls the
/// spreadsheet makes, with a span around each call.
pub struct Traced<'a> {
    engine: &'a Arc<Engine>,
    tracer: &'a Tracer,
    seed: Cell<u64>,
    /// Every tree this path ran.
    pub trees: RefCell<Vec<TreeRecord>>,
}

/// Per-operation accumulator mirroring `OpStats`.
#[derive(Default)]
struct Acc {
    res: OpResult,
    first: Option<Duration>,
}

impl<'a> Traced<'a> {
    /// A traced path over `engine`, recording into `tracer`.
    pub fn new(engine: &'a Arc<Engine>, tracer: &'a Tracer) -> Self {
        Traced {
            engine,
            tracer,
            seed: Cell::new(0),
            trees: RefCell::new(Vec::new()),
        }
    }

    /// Reset the sampling seed sequence, as `Spreadsheet::set_seed` does.
    pub fn set_seed(&self, seed: u64) {
        self.seed.set(seed);
    }

    fn next_seed(&self) -> u64 {
        let s = self.seed.get();
        self.seed.set(s.wrapping_add(0x9E37_79B9));
        s
    }

    fn run<S: Sketch>(
        &self,
        ds: DatasetId,
        sketch: S,
        seed: u64,
        acc: &mut Acc,
    ) -> Result<S::Summary, String> {
        let cluster = self.engine.cluster();
        let before = cluster.cache_stats();
        let opts = QueryOptions {
            seed,
            ..QueryOptions::default()
        };
        let (summary, o) = self
            .tracer
            .span("engine.run", || self.engine.run(ds, sketch, &opts))
            .map_err(err)?;
        let after = cluster.cache_stats();
        let cache_hit = after.misses == before.misses
            && after.coalesced == before.coalesced
            && after.hits.saturating_sub(before.hits) >= cluster.num_workers() as u64;
        self.trees.borrow_mut().push(TreeRecord {
            ms: o.duration.as_secs_f64() * 1e3,
            cache_hit,
            coverage: o.coverage,
        });
        if acc.first.is_none() {
            acc.first = o.first_partial.map(|fp| acc.res.duration + fp);
        }
        acc.res.duration += o.duration;
        acc.res.root_bytes += o.root_bytes;
        acc.res.root_messages += o.root_messages;
        acc.res.partials += o.partials;
        acc.res.trees += 1;
        Ok(summary)
    }

    fn prepare<T>(
        &self,
        f: impl FnOnce() -> Result<T, hillview_sketch::SketchError>,
    ) -> Result<T, String> {
        self.tracer.span("viz.prepare", f).map_err(err)
    }

    fn render<T>(&self, f: impl FnOnce() -> T) -> T {
        self.tracer.span("viz.render", f)
    }

    fn page(&self, ds: DatasetId, cols: &[&str], acc: &mut Acc) -> Result<TablePage, String> {
        let (viz, sketch) = self.prepare(|| {
            let viz = TableViewViz::new(SortOrder::ascending(cols), PAGE_ROWS);
            let sketch = viz.page_after(None);
            Ok((viz, sketch))
        })?;
        let summary = self.run(ds, sketch, 0, acc)?;
        Ok(self.render(|| viz.render(&summary)))
    }

    fn scroll(&self, ds: DatasetId, acc: &mut Acc) -> Result<TablePage, String> {
        let count = self.run(ds, CountSketch::rows(), 0, acc)?.rows;
        let viz = TableViewViz::new(SortOrder::ascending(&O2_COLUMNS), PAGE_ROWS);
        let q = self.prepare(|| Ok(viz.scrollbar_quantile(count)))?;
        let q = self.run(ds, q, self.next_seed(), acc)?;
        let start = q.quantile(viz.pixel_to_quantile(SCROLL_PIXEL));
        let page = self.prepare(|| Ok(viz.page_after(start)))?;
        let summary = self.run(ds, page, 0, acc)?;
        Ok(self.render(|| viz.render(&summary)))
    }

    fn cdf(
        &self,
        ds: DatasetId,
        col: &str,
        range: &RangeSummary,
        acc: &mut Acc,
    ) -> Result<CdfRendering, String> {
        let viz = CdfViz::new(col, DISPLAY);
        let sketch = self.prepare(|| viz.prepare(range))?;
        let summary = self.run(ds, sketch, self.next_seed(), acc)?;
        Ok(self.render(|| viz.render(&summary)))
    }

    fn histogram_cdf(
        &self,
        ds: DatasetId,
        col: &str,
        acc: &mut Acc,
    ) -> Result<(BarChart, CdfRendering), String> {
        let range = self.run(ds, RangeSketch::new(col), 0, acc)?;
        let viz = HistogramViz::new(col, DISPLAY);
        let sketch = self.prepare(|| viz.prepare_numeric(&range))?;
        let summary = self.run(ds, sketch.clone(), self.next_seed(), acc)?;
        let chart = self.render(|| viz.render(&sketch, &summary));
        Ok((chart, self.cdf(ds, col, &range, acc)?))
    }

    fn axis_info(&self, ds: DatasetId, col: &str, acc: &mut Acc) -> Result<AxisInfo, String> {
        let range = self.run(ds, RangeSketch::new(col), 0, acc)?;
        if range.min.is_some() {
            return Ok(AxisInfo::Numeric(range));
        }
        Ok(AxisInfo::Strings(self.run(
            ds,
            BottomKSketch::new(col, 512),
            0,
            acc,
        )?))
    }

    fn script(&self, op: Op, ds: DatasetId, expect: Expect, acc: &mut Acc) -> Checked {
        match op {
            Op::O1 => check_page(&self.page(ds, &["DepDelay"], acc)?, 1),
            Op::O2 => check_page(&self.page(ds, &O2_COLUMNS, acc)?, 5),
            Op::O3 => check_page(&self.page(ds, &["TailNum"], acc)?, 1),
            Op::O4 => check_page(&self.scroll(ds, acc)?, 5),
            Op::O5 => {
                let (c, d) = self.histogram_cdf(ds, "DepDelay", acc)?;
                check_bars(&c).and_then(|_| check_cdf(&d))
            }
            Op::O6 => {
                let started = Instant::now();
                let filtered = self
                    .tracer
                    .span("engine.derive", || self.engine.filter_lazy(ds, o6_filter()));
                acc.res.derive = started.elapsed();
                acc.res.derived = Some(filtered);
                acc.res.duration += acc.res.derive;
                let (c, d) = self.histogram_cdf(filtered, "DepDelay", acc)?;
                check_bars(&c).and_then(|_| check_cdf(&d))
            }
            Op::O7 => {
                let bk = self.run(ds, BottomKSketch::new("Origin", 512), 0, acc)?;
                let viz = HistogramViz::new("Origin", DISPLAY).exact();
                let sketch = self.prepare(|| viz.prepare_strings(&bk))?;
                let summary = self.run(ds, sketch.clone(), self.next_seed(), acc)?;
                check_bars(&self.render(|| viz.render(&sketch, &summary)))
            }
            Op::O8 => {
                let count = self.run(ds, CountSketch::rows(), 0, acc)?.rows;
                let viz = HeavyHittersViz::sampling("Carrier", 10);
                let sketch = self.prepare(|| Ok(viz.prepare_sampling(count)))?;
                let summary = self.run(ds, sketch, self.next_seed(), acc)?;
                check_heavy(&self.render(|| viz.render_sampling(&summary, count)))
            }
            Op::O9 => {
                let summary = self.run(
                    ds,
                    DistinctSketch::new(crate::data::DISTINCT_COLUMN),
                    0,
                    acc,
                )?;
                check_distinct(summary.estimate(), expect.distinct_exact)
            }
            Op::O10 => {
                let rx = self.run(ds, RangeSketch::new("CRSDepTime"), 0, acc)?;
                let y = self.axis_info(ds, "Carrier", acc)?;
                let viz = StackedViz::new("CRSDepTime", "Carrier", DISPLAY);
                let sketch =
                    self.prepare(|| viz.prepare(&AxisInfo::Numeric(rx.clone()), &y, rx.present))?;
                let summary = self.run(ds, sketch, self.next_seed(), acc)?;
                check_stacked(&self.render(|| viz.render(&summary)))?;
                check_cdf(&self.cdf(ds, "CRSDepTime", &rx, acc)?)
            }
            Op::O11 => {
                let x = self.axis_info(ds, "Distance", acc)?;
                let y = self.axis_info(ds, "AirTime", acc)?;
                let count = self.run(ds, CountSketch::rows(), 0, acc)?.rows;
                let viz = HeatmapViz::new("Distance", "AirTime", DISPLAY);
                let sketch = self.prepare(|| viz.prepare(&x, &y, count))?;
                let summary = self.run(ds, sketch, self.next_seed(), acc)?;
                check_grid(&self.render(|| viz.render(&summary)))
            }
        }
    }

    /// Run `op` on `ds` inside an operation span and check its output.
    pub fn run_op(&self, op: Op, ds: DatasetId, expect: Expect) -> OpResult {
        let mut acc = Acc::default();
        let checked = self.tracer.op(|| self.script(op, ds, expect, &mut acc));
        acc.res.first = acc.first.map_or(acc.res.duration, |f| f + acc.res.derive);
        acc.res.failure = checked.err();
        acc.res
    }
}

fn time_kernel<S: Sketch>(
    sketch: &S,
    views: &[TableView],
    filter: Option<&Predicate>,
    seed: u64,
) -> Result<Duration, String> {
    let started = Instant::now();
    for v in views {
        let s = match filter {
            Some(p) => sketch.summarize_filtered(v, p, seed),
            None => sketch.summarize(v, seed),
        };
        std::hint::black_box(s.map_err(err)?);
    }
    Ok(started.elapsed())
}

/// Replay `op`'s render-phase sketches with `Sketch::summarize` over every
/// partition of `ds` on the calling thread. The preparation phase runs
/// through the engine first and is not timed.
pub fn kernel_time(
    op: Op,
    engine: &Arc<Engine>,
    ds: DatasetId,
    tracer: &Tracer,
) -> Result<Duration, String> {
    let cluster = engine.cluster();
    let mut views = Vec::new();
    for w in 0..cluster.num_workers() {
        let parts = cluster
            .worker(w)
            .partitions(ds)
            .ok_or_else(|| format!("dataset {ds} is not resident on worker {w}"))?;
        views.extend(parts.iter().cloned());
    }
    let seed = 0x5EED;
    let timed = |f: &dyn Fn() -> Result<Duration, String>| tracer.span("sketch.kernel", f);
    let page = |cols: &[&str]| -> Result<Duration, String> {
        let viz = TableViewViz::new(SortOrder::ascending(cols), PAGE_ROWS);
        timed(&|| time_kernel(&viz.page_after(None), &views, None, 0))
    };
    let histogram_cdf = |col: &str, filter: Option<&Predicate>, range: &RangeSummary| {
        let h = HistogramViz::new(col, DISPLAY)
            .prepare_numeric(range)
            .map_err(err)?;
        let c = CdfViz::new(col, DISPLAY).prepare(range).map_err(err)?;
        timed(&|| {
            Ok(time_kernel(&h, &views, filter, seed)? + time_kernel(&c, &views, filter, seed)?)
        })
    };
    match op {
        Op::O1 => page(&["DepDelay"]),
        Op::O2 => page(&O2_COLUMNS),
        Op::O3 => page(&["TailNum"]),
        Op::O4 => {
            let count = prep(engine, ds, CountSketch::rows())?.rows;
            let viz = TableViewViz::new(SortOrder::ascending(&O2_COLUMNS), PAGE_ROWS);
            let q = viz.scrollbar_quantile(count);
            let start = engine
                .run(
                    ds,
                    q.clone(),
                    &QueryOptions {
                        seed,
                        ..QueryOptions::default()
                    },
                )
                .map_err(err)?
                .0
                .quantile(viz.pixel_to_quantile(SCROLL_PIXEL));
            let page = viz.page_after(start);
            timed(&|| {
                Ok(time_kernel(&q, &views, None, seed)? + time_kernel(&page, &views, None, 0)?)
            })
        }
        Op::O5 => histogram_cdf(
            "DepDelay",
            None,
            &prep(engine, ds, RangeSketch::new("DepDelay"))?,
        ),
        Op::O6 => {
            let filter = o6_filter();
            let filtered = engine.filter_lazy(ds, filter.clone());
            let range = prep(engine, filtered, RangeSketch::new("DepDelay"))?;
            histogram_cdf("DepDelay", Some(&filter), &range)
        }
        Op::O7 => {
            let bk = prep(engine, ds, BottomKSketch::new("Origin", 512))?;
            let viz = HistogramViz::new("Origin", DISPLAY).exact();
            let sketch = viz.prepare_strings(&bk).map_err(err)?;
            timed(&|| time_kernel(&sketch, &views, None, seed))
        }
        Op::O8 => {
            let count = prep(engine, ds, CountSketch::rows())?.rows;
            let sketch = HeavyHittersViz::sampling("Carrier", 10).prepare_sampling(count);
            timed(&|| time_kernel(&sketch, &views, None, seed))
        }
        Op::O9 => {
            let sketch = DistinctSketch::new(crate::data::DISTINCT_COLUMN);
            timed(&|| time_kernel(&sketch, &views, None, 0))
        }
        Op::O10 => {
            let rx = prep(engine, ds, RangeSketch::new("CRSDepTime"))?;
            let y = axis_info(engine, ds, "Carrier")?;
            let viz = StackedViz::new("CRSDepTime", "Carrier", DISPLAY);
            let stacked = viz
                .prepare(&AxisInfo::Numeric(rx.clone()), &y, rx.present)
                .map_err(err)?;
            let cdf = CdfViz::new("CRSDepTime", DISPLAY)
                .prepare(&rx)
                .map_err(err)?;
            timed(&|| {
                Ok(time_kernel(&stacked, &views, None, seed)?
                    + time_kernel(&cdf, &views, None, seed)?)
            })
        }
        Op::O11 => {
            let x = axis_info(engine, ds, "Distance")?;
            let y = axis_info(engine, ds, "AirTime")?;
            let count = prep(engine, ds, CountSketch::rows())?.rows;
            let sketch = HeatmapViz::new("Distance", "AirTime", DISPLAY)
                .prepare(&x, &y, count)
                .map_err(err)?;
            timed(&|| time_kernel(&sketch, &views, None, seed))
        }
    }
}

/// Run a preparation-phase sketch through the engine.
fn prep<S: Sketch>(engine: &Engine, ds: DatasetId, sketch: S) -> Result<S::Summary, String> {
    Ok(engine
        .run(ds, sketch, &QueryOptions::default())
        .map_err(err)?
        .0)
}

fn axis_info(engine: &Engine, ds: DatasetId, col: &str) -> Result<AxisInfo, String> {
    let range = prep(engine, ds, RangeSketch::new(col))?;
    if range.min.is_some() {
        Ok(AxisInfo::Numeric(range))
    } else {
        Ok(AxisInfo::Strings(prep(
            engine,
            ds,
            BottomKSketch::new(col, 512),
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_order_like_the_engine() {
        assert!(parse_cell("(missing)") < parse_cell("-5"));
        assert!(parse_cell("-5") < parse_cell("3"));
        assert!(parse_cell("9") < parse_cell("10"));
        assert!(parse_cell("N00001") < parse_cell("N00002"));
        assert!(parse_cell("@100") < parse_cell("@200"));
    }

    #[test]
    fn distinct_check_allows_hll_error_only() {
        assert!(check_distinct(5_900.0, 5_999).is_ok());
        assert!(check_distinct(7_000.0, 5_999).is_err());
    }
}
