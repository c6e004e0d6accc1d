//! The spreadsheet facade: user actions → vizketch executions.
//!
//! This is Hillview's public API surface. Every operation follows the
//! paper's two-phase structure (§5.3): a *preparation* tree computes
//! data-wide parameters (row counts, ranges, string quantiles — all cached,
//! since they are deterministic and reused), then a *rendering* tree runs
//! the vizketch parameterized for the display. The operation names O1–O11
//! match Figure 4 of the paper and are exercised one-to-one by the
//! benchmark harness.

use crate::cluster::{QueryOptions, QueryOutcome};
use crate::dataset::DatasetId;
use crate::engine::Engine;
use crate::error::EngineResult;
use crate::progress::{CancellationToken, PartialCallback};
use hillview_columnar::{Predicate, RowKey, SortOrder, StrMatchKind};
use hillview_sketch::bottomk::{BottomKSketch, BottomKSummary};
use hillview_sketch::count::CountSketch;
use hillview_sketch::distinct::DistinctSketch;
use hillview_sketch::find::{FindSketch, FindSummary};
use hillview_sketch::heavy::MisraGriesSketch;
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::nextk::NextKSummary;
use hillview_sketch::pca::{PcaSketch, PcaSummary};
use hillview_sketch::range::{RangeSketch, RangeSummary};
use hillview_sketch::Sketch;
use hillview_viz::cdf::{CdfRendering, CdfViz};
use hillview_viz::display::DisplaySpec;
use hillview_viz::heatmap::{AxisInfo, HeatmapViz};
use hillview_viz::heavyviz::{HeavyHittersRendering, HeavyHittersViz};
use hillview_viz::histogram::HistogramViz;
use hillview_viz::render::{BarChart, ColorGrid};
use hillview_viz::stacked::{StackedRendering, StackedViz};
use hillview_viz::tableview::{TablePage, TableViewViz};
use hillview_viz::trellis::TrellisViz;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Latency/traffic statistics of one spreadsheet operation (possibly
/// spanning several execution trees).
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Total wall-clock time.
    pub duration: Duration,
    /// Bytes the root received.
    pub root_bytes: u64,
    /// Messages the root received.
    pub root_messages: u64,
    /// Time until the first partial visualization, if any arrived.
    /// Render phase only: preparation trees never set it, even when they
    /// deliver partials, so it times the first partial of the chart the
    /// user asked for (offset by the preparation time before it).
    pub first_partial: Option<Duration>,
    /// Partial updates delivered to the client.
    pub partials: usize,
    /// Execution trees launched.
    pub trees: usize,
}

impl OpStats {
    fn absorb(&mut self, o: &QueryOutcome) {
        // `first_partial` is relative to its own tree; offset by the time
        // already spent in earlier phases of this operation.
        if self.first_partial.is_none() {
            self.first_partial = o.first_partial.map(|fp| self.duration + fp);
        }
        self.duration += o.duration;
        self.root_bytes += o.root_bytes;
        self.root_messages += o.root_messages;
        self.partials += o.partials;
        self.trees += 1;
    }

    /// Carry a preparation phase's counts into this operation: time,
    /// bytes, messages, partials and trees. `first_partial` stays render
    /// phase only.
    fn add_preparation(&mut self, prep: &OpStats) {
        self.duration += prep.duration;
        self.root_bytes += prep.root_bytes;
        self.root_messages += prep.root_messages;
        self.partials += prep.partials;
        self.trees += prep.trees;
    }
}

/// A spreadsheet session over one (possibly derived) dataset.
pub struct Spreadsheet {
    engine: Arc<Engine>,
    dataset: DatasetId,
    display: DisplaySpec,
    seed: AtomicU64,
    /// Partial-result callback applied to rendering-phase queries.
    pub on_partial: Option<PartialCallback>,
    /// Cancellation for long renders.
    pub cancel: CancellationToken,
}

impl Spreadsheet {
    /// Open a spreadsheet on an already-loaded dataset.
    pub fn new(engine: Arc<Engine>, dataset: DatasetId, display: DisplaySpec) -> Self {
        Spreadsheet {
            engine,
            dataset,
            display,
            seed: AtomicU64::new(0x5EED),
            on_partial: None,
            cancel: CancellationToken::new(),
        }
    }

    /// Load `source` and open a spreadsheet on it.
    pub fn open(
        engine: Arc<Engine>,
        source: &str,
        snapshot: u64,
        display: DisplaySpec,
    ) -> EngineResult<Self> {
        let dataset = engine.load(source, snapshot)?;
        Ok(Self::new(engine, dataset, display))
    }

    /// The dataset this sheet views.
    pub fn dataset(&self) -> DatasetId {
        self.dataset
    }

    /// The engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Fix the RNG seed base (tests, replay determinism).
    pub fn set_seed(&self, seed: u64) {
        self.seed.store(seed, Ordering::SeqCst);
    }

    fn next_seed(&self) -> u64 {
        self.seed.fetch_add(0x9E37_79B9, Ordering::SeqCst)
    }

    // Caching needs no per-call-site keys anymore: the worker cache keys
    // every query structurally (dataset version × sketch identity), so
    // deterministic preparation sketches cache automatically and
    // seed-dependent ones are excluded by their own `cache_identity`.
    fn opts(&self, seed: u64) -> QueryOptions {
        QueryOptions {
            seed,
            cancel: self.cancel.clone(),
            on_partial: self.on_partial.clone(),
            ..Default::default()
        }
    }

    /// Run one execution tree of this operation over the sheet's dataset
    /// and add its traffic and timing to `stats`.
    fn run<S: Sketch>(
        &self,
        sketch: S,
        seed: u64,
        stats: &mut OpStats,
    ) -> EngineResult<S::Summary> {
        let (summary, outcome) = self.engine.run(self.dataset, sketch, &self.opts(seed))?;
        stats.absorb(&outcome);
        Ok(summary)
    }

    // -----------------------------------------------------------------
    // Preparation-phase helpers (cached, deterministic).
    // -----------------------------------------------------------------

    /// Total rows (cached).
    pub fn row_count(&self) -> EngineResult<(u64, OpStats)> {
        let mut stats = OpStats::default();
        let sum = self.run(CountSketch::rows(), 0, &mut stats)?;
        Ok((sum.rows, stats))
    }

    /// Numeric range of a column (cached).
    pub fn range_of(&self, column: &str) -> EngineResult<(RangeSummary, OpStats)> {
        let mut stats = OpStats::default();
        let sum = self.run(RangeSketch::new(column), 0, &mut stats)?;
        Ok((sum, stats))
    }

    /// Bottom-k distinct-string quantiles of a column (cached).
    pub fn string_quantiles(&self, column: &str) -> EngineResult<(BottomKSummary, OpStats)> {
        let mut stats = OpStats::default();
        let sum = self.run(BottomKSketch::new(column, 512), 0, &mut stats)?;
        Ok((sum, stats))
    }

    // -----------------------------------------------------------------
    // Tabular views (O1–O4)
    // -----------------------------------------------------------------

    /// O1/O2/O3: (re)sort the view and show the first page.
    pub fn sort_view(&self, columns: &[&str], rows: usize) -> EngineResult<(TablePage, OpStats)> {
        self.page_after(columns, None, rows)
    }

    /// Scroll/page: the `rows` rows after `start` under the sort order.
    pub fn page_after(
        &self,
        columns: &[&str],
        start: Option<RowKey>,
        rows: usize,
    ) -> EngineResult<(TablePage, OpStats)> {
        let viz = TableViewViz::new(SortOrder::ascending(columns), rows);
        let mut stats = OpStats::default();
        let summary: NextKSummary = self.run(viz.page_after(start), 0, &mut stats)?;
        Ok((viz.render(&summary), stats))
    }

    /// O4: scroll-bar drag — quantile probe, then the page at that rank.
    pub fn scroll_to(
        &self,
        columns: &[&str],
        scrollbar_pixel: usize,
        rows: usize,
    ) -> EngineResult<(TablePage, OpStats)> {
        let mut stats = OpStats::default();
        let (count, s0) = self.row_count()?;
        stats.add_preparation(&s0);

        let viz = TableViewViz::new(SortOrder::ascending(columns), rows);
        let q = self.run(viz.scrollbar_quantile(count), self.next_seed(), &mut stats)?;
        let start = q.quantile(viz.pixel_to_quantile(scrollbar_pixel));
        let summary: NextKSummary = self.run(viz.page_after(start), 0, &mut stats)?;
        Ok((viz.render(&summary), stats))
    }

    /// Find the next row matching a text query in sort order (§3.3).
    pub fn find_text(
        &self,
        column: &str,
        query: &str,
        kind: StrMatchKind,
        case_insensitive: bool,
        order_columns: &[&str],
        after: Option<RowKey>,
    ) -> EngineResult<(FindSummary, OpStats)> {
        let mut sketch = FindSketch::new(column, query, kind, SortOrder::ascending(order_columns));
        if case_insensitive {
            sketch = sketch.case_insensitive();
        }
        if let Some(k) = after {
            sketch = sketch.after(k);
        }
        let mut stats = OpStats::default();
        let sum = self.run(sketch, 0, &mut stats)?;
        Ok((sum, stats))
    }

    // -----------------------------------------------------------------
    // Charts (O5–O7, O10, O11)
    // -----------------------------------------------------------------

    /// O5: range + (histogram & CDF) on a numeric column.
    pub fn histogram_with_cdf(
        &self,
        column: &str,
        buckets: Option<usize>,
    ) -> EngineResult<(BarChart, CdfRendering, OpStats)> {
        let mut stats = OpStats::default();
        let (range, s0) = self.range_of(column)?;
        stats.add_preparation(&s0);

        let mut viz = HistogramViz::new(column, self.display);
        if let Some(b) = buckets {
            viz = viz.with_buckets(b);
        }
        let sketch = viz.prepare_numeric(&range)?;
        let summary = self.run(sketch.clone(), self.next_seed(), &mut stats)?;
        let chart = viz.render(&sketch, &summary);

        let cdf_viz = CdfViz::new(column, self.display);
        let cdf_sketch = cdf_viz.prepare(&range)?;
        let cdf_summary = self.run(cdf_sketch, self.next_seed(), &mut stats)?;
        Ok((chart, cdf_viz.render(&cdf_summary), stats))
    }

    /// O7: distinct-string buckets + histogram on a string column.
    pub fn string_histogram(&self, column: &str) -> EngineResult<(BarChart, OpStats)> {
        let mut stats = OpStats::default();
        let (bk, s0) = self.string_quantiles(column)?;
        stats.add_preparation(&s0);

        let viz = HistogramViz::new(column, self.display).exact();
        let sketch = viz.prepare_strings(&bk)?;
        let summary = self.run(sketch.clone(), self.next_seed(), &mut stats)?;
        Ok((viz.render(&sketch, &summary), stats))
    }

    /// O10: ranges + (stacked histogram & CDF).
    pub fn stacked_histogram_with_cdf(
        &self,
        col_x: &str,
        col_y: &str,
    ) -> EngineResult<(StackedRendering, CdfRendering, OpStats)> {
        let mut stats = OpStats::default();
        let (rx, s0) = self.range_of(col_x)?;
        stats.add_preparation(&s0);
        let (y_info, s1) = self.axis_info(col_y)?;
        stats.add_preparation(&s1);

        let viz = StackedViz::new(col_x, col_y, self.display);
        let sketch = viz.prepare(&AxisInfo::Numeric(rx.clone()), &y_info, rx.present)?;
        let summary = self.run(sketch, self.next_seed(), &mut stats)?;
        let rendering = viz.render(&summary);

        let cdf_viz = CdfViz::new(col_x, self.display);
        let cdf_sketch = cdf_viz.prepare(&rx)?;
        let cdf_summary = self.run(cdf_sketch, self.next_seed(), &mut stats)?;
        Ok((rendering, cdf_viz.render(&cdf_summary), stats))
    }

    /// O11: heat map of two numeric columns.
    pub fn heatmap(&self, col_x: &str, col_y: &str) -> EngineResult<(ColorGrid, OpStats)> {
        let mut stats = OpStats::default();
        let (x_info, s0) = self.axis_info(col_x)?;
        stats.add_preparation(&s0);
        let (y_info, s1) = self.axis_info(col_y)?;
        stats.add_preparation(&s1);
        let (count, s2) = self.row_count()?;
        stats.add_preparation(&s2);

        let viz = HeatmapViz::new(col_x, col_y, self.display);
        let sketch = viz.prepare(&x_info, &y_info, count)?;
        let summary = self.run(sketch, self.next_seed(), &mut stats)?;
        Ok((viz.render(&summary), stats))
    }

    /// Trellis of heat maps grouped by `col_w` (Fig. 2).
    pub fn trellis_heatmap(
        &self,
        col_w: &str,
        col_x: &str,
        col_y: &str,
        groups: usize,
    ) -> EngineResult<(Vec<ColorGrid>, OpStats)> {
        let mut stats = OpStats::default();
        let (w_info, s0) = self.axis_info(col_w)?;
        let (x_info, s1) = self.axis_info(col_x)?;
        let (y_info, s2) = self.axis_info(col_y)?;
        let (count, s3) = self.row_count()?;
        for s in [&s0, &s1, &s2, &s3] {
            stats.add_preparation(s);
        }
        let viz = TrellisViz::new(col_w, col_x, col_y, self.display, groups);
        let sketch = viz.prepare(&w_info, &x_info, &y_info, count)?;
        let summary = self.run(sketch, self.next_seed(), &mut stats)?;
        Ok((viz.render(&summary), stats))
    }

    /// Phase-1 info for an axis: numeric range or string quantiles.
    fn axis_info(&self, column: &str) -> EngineResult<(AxisInfo, OpStats)> {
        let (range, stats) = self.range_of(column)?;
        if range.min.is_some() {
            return Ok((AxisInfo::Numeric(range), stats));
        }
        let (bk, s2) = self.string_quantiles(column)?;
        let mut stats = stats;
        stats.add_preparation(&s2);
        Ok((AxisInfo::Strings(bk), stats))
    }

    // -----------------------------------------------------------------
    // Analyses (O8, O9, PCA)
    // -----------------------------------------------------------------

    /// O8: heavy hitters by sampling.
    pub fn heavy_hitters_sampling(
        &self,
        column: &str,
        k: usize,
    ) -> EngineResult<(HeavyHittersRendering, OpStats)> {
        let mut stats = OpStats::default();
        let (count, s0) = self.row_count()?;
        stats.add_preparation(&s0);

        let viz = HeavyHittersViz::sampling(column, k);
        let sketch = viz.prepare_sampling(count);
        let summary = self.run(sketch, self.next_seed(), &mut stats)?;
        Ok((viz.render_sampling(&summary, count), stats))
    }

    /// Heavy hitters via Misra-Gries (exact guarantee, full scan).
    pub fn heavy_hitters_streaming(
        &self,
        column: &str,
        k: usize,
    ) -> EngineResult<(HeavyHittersRendering, OpStats)> {
        let viz = HeavyHittersViz::streaming(column, k);
        let mut stats = OpStats::default();
        let summary = self.run(MisraGriesSketch::new(column, k), 0, &mut stats)?;
        Ok((viz.render_streaming(&summary), stats))
    }

    /// O9: approximate distinct count (HyperLogLog).
    pub fn distinct_count(&self, column: &str) -> EngineResult<(f64, OpStats)> {
        let mut stats = OpStats::default();
        let summary = self.run(DistinctSketch::new(column), 0, &mut stats)?;
        Ok((summary.estimate(), stats))
    }

    /// Column summary: count, missing, min/max, mean, variance (App. B.3).
    pub fn moments(
        &self,
        column: &str,
        k: usize,
    ) -> EngineResult<(hillview_sketch::moments::MomentsSummary, OpStats)> {
        let mut stats = OpStats::default();
        let summary = self.run(MomentsSketch::new(column, k), 0, &mut stats)?;
        Ok((summary, stats))
    }

    /// Principal component analysis over numeric columns (App. B.3).
    pub fn pca(&self, columns: &[&str], rate: f64) -> EngineResult<(PcaSummary, OpStats)> {
        let mut stats = OpStats::default();
        let summary = self.run(PcaSketch::new(columns, rate), self.next_seed(), &mut stats)?;
        Ok((summary, stats))
    }

    // -----------------------------------------------------------------
    // Derivations (§5.6)
    // -----------------------------------------------------------------

    /// Derive a filtered sheet (zooming a chart region, O6's first step).
    /// Lazy: the first chart rendered on the new sheet runs fused (the
    /// predicate rides inside the sketch's block pass); sustained
    /// interaction materializes the membership for cached two-pass reuse.
    pub fn filtered(&self, predicate: Predicate) -> EngineResult<Spreadsheet> {
        let ds = self.engine.filter_lazy(self.dataset, predicate);
        let sheet = Spreadsheet::new(self.engine.clone(), ds, self.display);
        Ok(sheet)
    }

    /// Derive a sheet with an extra UDF column.
    pub fn with_column(&self, udf: &str, new_column: &str) -> EngineResult<Spreadsheet> {
        let ds = self.engine.map(self.dataset, udf, new_column)?;
        Ok(Spreadsheet::new(self.engine.clone(), ds, self.display))
    }
}

impl std::fmt::Debug for Spreadsheet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Spreadsheet({})", self.dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::dataset::{FnSource, SourceRegistry};
    use hillview_columnar::udf::UdfRegistry;
    use hillview_data::{generate_flights, FlightsConfig};
    use hillview_sketch::nextk::NextKSketch;
    use hillview_storage::partition_table;

    fn sheet() -> Spreadsheet {
        sheet_with(ClusterConfig::test())
    }

    fn sheet_with(cfg: ClusterConfig) -> Spreadsheet {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("flights", |w, n, mp, snap| {
            let t = generate_flights(&FlightsConfig::new(8_000, snap ^ w as u64));
            let _ = n;
            Ok(partition_table(&t, mp))
        })));
        let mut udfs = UdfRegistry::with_builtins();
        udfs.register_ratio("Speed", "Distance", "AirTime");
        let cluster = Cluster::new(cfg, sources, udfs);
        let engine = Arc::new(Engine::new(cluster));
        Spreadsheet::open(engine, "flights", 1, DisplaySpec::new(200, 100)).unwrap()
    }

    /// A batch interval far beyond any test query: no partial frame or
    /// heartbeat fires, so every tree's root traffic is exactly one final
    /// frame per worker.
    fn quiet_sheet() -> Spreadsheet {
        sheet_with(ClusterConfig {
            batch_interval: Duration::from_secs(60),
            worker_timeout: Duration::from_secs(600),
            ..ClusterConfig::test()
        })
    }

    #[test]
    fn o1_sort_numeric() {
        let s = sheet();
        let (page, stats) = s.sort_view(&["DepDelay"], 10).unwrap();
        assert_eq!(page.rows.len(), 10);
        assert!(stats.root_bytes > 0);
        // First row is the most-negative delay (missing sorts first but the
        // key itself is shown).
        assert!(!page.rows[0].0[0].is_empty());
    }

    #[test]
    fn o2_sort_five_columns() {
        let s = sheet();
        let (page, _) = s
            .sort_view(&["Year", "Month", "DayOfMonth", "Carrier", "FlightNum"], 5)
            .unwrap();
        assert_eq!(page.headers.len(), 5);
        assert_eq!(page.rows.len(), 5);
    }

    #[test]
    fn o3_sort_string() {
        let s = sheet();
        let (page, _) = s.sort_view(&["Origin"], 8).unwrap();
        // Ascending airport codes.
        let codes: Vec<&String> = page.rows.iter().map(|(r, _)| &r[0]).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn o4_scrollbar_quantile() {
        let s = sheet();
        let (page, stats) = s.scroll_to(&["Distance"], 50, 5).unwrap();
        assert!(!page.rows.is_empty());
        assert!(stats.trees >= 2, "quantile + next-items trees");
    }

    #[test]
    fn scroll_to_counts_the_messages_of_all_three_trees() {
        let s = quiet_sheet();
        let workers = s.engine.cluster().num_workers() as u64;
        s.set_seed(11);
        let (_, stats) = s.scroll_to(&["Distance"], 50, 5).unwrap();
        assert_eq!(stats.trees, 3, "row count, quantile, page");

        // The same three trees, one by one.
        s.set_seed(11);
        let (count, s0) = s.row_count().unwrap();
        let viz = TableViewViz::new(SortOrder::ascending(&["Distance"]), 5);
        let (q, o1) = s
            .engine
            .run(
                s.dataset,
                viz.scrollbar_quantile(count),
                &s.opts(s.next_seed()),
            )
            .unwrap();
        let start = q.quantile(viz.pixel_to_quantile(50));
        let (_, o2) = s
            .engine
            .run(s.dataset, viz.page_after(start), &s.opts(0))
            .unwrap();
        let trees = [s0.root_messages, o1.root_messages, o2.root_messages];
        assert_eq!(trees, [workers; 3], "one final frame per worker per tree");
        assert_eq!(stats.root_messages, trees.iter().sum::<u64>());
    }

    #[test]
    fn repeated_sort_view_hits_every_worker_cache() {
        let s = sheet();
        let cluster = s.engine.cluster().clone();
        let stats = || -> Vec<_> {
            (0..cluster.num_workers())
                .map(|w| cluster.worker(w).cache_stats())
                .collect()
        };
        let cols = ["Carrier", "DepDelay"];
        let (first, _) = s.sort_view(&cols, 5).unwrap();
        let before = stats();
        let (again, _) = s.sort_view(&cols, 5).unwrap();
        assert_eq!(first, again);
        for (b, a) in before.iter().zip(stats()) {
            assert_eq!(a.hits, b.hits + 1, "repeated page served from the cache");
        }

        // The identity ignores the seed...
        let order = SortOrder::ascending(&cols);
        let base = NextKSketch::first_page(order.clone(), 5);
        let before = stats();
        s.engine.run(s.dataset, base, &s.opts(0xABCD)).unwrap();
        for (b, a) in before.iter().zip(stats()) {
            assert_eq!(a.hits, b.hits + 1, "another seed still hits");
        }

        // ...but changing any one field that shapes the page misses.
        let start = s
            .engine
            .run(
                s.dataset,
                NextKSketch::first_page(order.clone(), 1),
                &s.opts(0),
            )
            .unwrap()
            .0
            .rows[0]
            .0
            .clone();
        let variants = [
            NextKSketch::first_page(
                SortOrder::with_directions(&[("Carrier", false), ("DepDelay", true)]),
                5,
            ),
            NextKSketch::first_page(order.clone(), 5).with_display(&["Origin"]),
            NextKSketch::after(order.clone(), start, 5),
            NextKSketch::first_page(order, 6),
        ];
        for (i, sk) in variants.into_iter().enumerate() {
            let before = stats();
            s.engine.run(s.dataset, sk, &s.opts(0)).unwrap();
            for (b, a) in before.iter().zip(stats()) {
                assert_eq!(a.hits, b.hits, "variant {i} must not hit");
                assert_eq!(a.misses, b.misses + 1, "variant {i} computes");
            }
        }
    }

    #[test]
    fn o5_histogram_and_cdf() {
        let s = sheet();
        let (chart, cdf, stats) = s.histogram_with_cdf("DepDelay", Some(20)).unwrap();
        assert_eq!(chart.heights_px.len(), 20);
        assert_eq!(*chart.heights_px.iter().max().unwrap() as usize, 100);
        assert!(cdf.heights_px.windows(2).all(|w| w[0] <= w[1]));
        assert!(stats.trees >= 3, "range + histogram + cdf");
    }

    #[test]
    fn o6_filter_then_histogram() {
        let s = sheet();
        let ua = s.filtered(Predicate::equals("Carrier", "UA")).unwrap();
        let (count, _) = ua.row_count().unwrap();
        let (all, _) = s.row_count().unwrap();
        assert!(count > 0 && count < all);
        let (chart, _, _) = ua.histogram_with_cdf("DepDelay", Some(10)).unwrap();
        assert_eq!(chart.heights_px.len(), 10);
    }

    #[test]
    fn o7_string_histogram() {
        let s = sheet();
        let (chart, _) = s.string_histogram("Origin").unwrap();
        assert!(chart.heights_px.len() > 10, "many airports");
        assert!(chart.max_count > 0);
    }

    #[test]
    fn o8_heavy_hitters_sampling() {
        let s = sheet();
        let (hh, _) = s.heavy_hitters_sampling("Carrier", 5).unwrap();
        assert!(!hh.items.is_empty());
        // WN is the most common carrier in the generator.
        assert_eq!(hh.items[0].0.to_string(), "WN");
    }

    #[test]
    fn o9_distinct_count() {
        let s = sheet();
        let (est, _) = s.distinct_count("Carrier").unwrap();
        assert!((est - 14.0).abs() < 1.5, "14 carriers, estimated {est}");
    }

    #[test]
    fn o10_stacked_histogram() {
        let s = sheet();
        let (stacked, cdf, _) = s
            .stacked_histogram_with_cdf("CRSDepTime", "Carrier")
            .unwrap();
        assert!(!stacked.bar_px.is_empty());
        assert!(!cdf.heights_px.is_empty());
    }

    #[test]
    fn o11_heatmap() {
        let s = sheet();
        let (grid, stats) = s.heatmap("Distance", "AirTime").unwrap();
        assert!(grid.bx > 0 && grid.by > 0);
        assert!(grid.max_count > 0);
        // Heatmaps ship Bx×By cells — the largest summaries (paper Fig. 5).
        assert!(stats.root_bytes > 500);
    }

    #[test]
    fn find_text_flow() {
        let s = sheet();
        let (found, _) = s
            .find_text(
                "Origin",
                "SFO",
                StrMatchKind::Exact,
                false,
                &["FlightDate"],
                None,
            )
            .unwrap();
        assert!(found.matches_total > 0);
        assert!(found.first.is_some());
    }

    #[test]
    fn udf_column_then_chart() {
        let s = sheet();
        let with_speed = s.with_column("Speed", "Speed").unwrap();
        let (chart, _, _) = with_speed.histogram_with_cdf("Speed", Some(10)).unwrap();
        assert_eq!(chart.heights_px.len(), 10);
    }

    #[test]
    fn moments_summary() {
        let s = sheet();
        let (m, _) = s.moments("Distance", 2).unwrap();
        assert!(m.present > 0);
        assert!(m.mean().unwrap() > 100.0);
        assert!(m.variance().unwrap() > 0.0);
    }

    #[test]
    fn pca_on_delay_columns() {
        let s = sheet();
        let (p, _) = s.pca(&["DepDelay", "ArrDelay", "Distance"], 1.0).unwrap();
        let corr = p.correlation().unwrap();
        // Departure and arrival delay are strongly correlated by design.
        assert!(corr.get(0, 1) > 0.5, "corr {}", corr.get(0, 1));
        let eig = p.principal_components().unwrap();
        assert!(eig.values[0] >= eig.values[1]);
    }

    #[test]
    fn preparation_results_are_cached() {
        let s = sheet();
        let _ = s.range_of("DepDelay").unwrap();
        let hits_before: u64 = (0..s.engine().cluster().num_workers())
            .map(|i| s.engine().cluster().worker(i).cache_hits())
            .sum();
        let _ = s.range_of("DepDelay").unwrap();
        let hits_after: u64 = (0..s.engine().cluster().num_workers())
            .map(|i| s.engine().cluster().worker(i).cache_hits())
            .sum();
        assert!(hits_after > hits_before, "second range served from cache");
    }

    #[test]
    fn trellis_renders_groups() {
        let s = sheet();
        let (grids, _) = s
            .trellis_heatmap("Carrier", "Distance", "AirTime", 4)
            .unwrap();
        assert_eq!(grids.len(), 4);
    }
}
