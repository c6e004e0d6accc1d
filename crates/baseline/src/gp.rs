//! A general-purpose analytics engine (the Spark stand-in).
//!
//! Runs against the same loaded cluster datasets as Hillview, with the same
//! per-worker parallelism, but follows the general-engine contract: every
//! operator produces its *full, exact* result and ships it to the driver
//! through the same byte-counted links. No sampling, no display-resolution
//! truncation, no partial results. Per §7.1 the baseline is even given an
//! advantage: results are not rendered, only collected.

use bytes::Bytes;
use hillview_columnar::{RowKey, SortOrder, Value};
use hillview_core::dataset::DatasetId;
use hillview_core::error::{EngineError, EngineResult};
use hillview_core::Cluster;
use hillview_net::{link_pair, LinkSender, Wire, WireReader, WireWriter};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one general-purpose query.
#[derive(Debug, Clone)]
pub struct GpOutcome<T> {
    /// The exact result.
    pub result: T,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Bytes the driver received from executors.
    pub driver_bytes: u64,
}

/// The general-purpose engine over a Hillview cluster's datasets.
pub struct GpEngine {
    cluster: Arc<Cluster>,
}

/// A value→count table shipped in full (the shape of an exact group-by).
type CountMap = Vec<(Value, u64)>;
/// Exact 2-D group-by result: `((x, y), count)` pairs.
pub type PairCounts = Vec<((Value, Value), u64)>;

fn encode_counts(counts: &CountMap) -> Bytes {
    let mut w = WireWriter::new();
    w.put_varint(counts.len() as u64);
    for (v, c) in counts {
        v.encode(&mut w);
        w.put_varint(*c);
    }
    w.finish()
}

fn decode_counts(bytes: Bytes) -> EngineResult<CountMap> {
    let mut r = WireReader::new(bytes);
    let n = r.get_len("gp counts")?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let v = Value::decode(&mut r)?;
        let c = r.get_varint()?;
        out.push((v, c));
    }
    Ok(out)
}

impl GpEngine {
    /// Wrap a cluster whose datasets this engine will query.
    pub fn new(cluster: Arc<Cluster>) -> Self {
        GpEngine { cluster }
    }

    /// Run `per_worker` on every worker's partitions in parallel; each
    /// worker ships its full result bytes to the driver, which folds with
    /// `combine`. This is the generic "shuffle to driver" skeleton.
    fn collect<T: Send>(
        &self,
        per_worker: impl Fn(usize) -> EngineResult<Bytes> + Send + Sync,
        decode: impl Fn(Bytes) -> EngineResult<T>,
        combine: impl Fn(Vec<T>) -> T,
    ) -> EngineResult<GpOutcome<T>> {
        let started = Instant::now();
        let (tx, rx) = link_pair(self.cluster.config().link);
        let n = self.cluster.num_workers();
        std::thread::scope(|scope| -> EngineResult<()> {
            let mut handles = Vec::new();
            for w in 0..n {
                let per_worker = &per_worker;
                let tx: LinkSender = tx.clone();
                handles.push(scope.spawn(move || -> EngineResult<()> {
                    let bytes = per_worker(w)?;
                    tx.send(bytes).map_err(EngineError::from)
                }));
            }
            let mut result = Ok(());
            for h in handles {
                let r = h.join().expect("gp worker panicked");
                if result.is_ok() {
                    result = r;
                }
            }
            result
        })?;
        drop(tx);
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            let frame = rx.recv()?;
            parts.push(decode(frame)?);
        }
        let driver_bytes = rx.metrics().bytes();
        let result = combine(parts);
        Ok(GpOutcome {
            result,
            duration: started.elapsed(),
            driver_bytes,
        })
    }

    fn partitions_of(
        &self,
        worker: usize,
        dataset: DatasetId,
    ) -> EngineResult<Arc<Vec<hillview_sketch::TableView>>> {
        self.cluster
            .worker(worker)
            .partitions(dataset)
            .ok_or(EngineError::DatasetMissing { worker, dataset })
    }

    /// Exact sort: every worker sorts *all* of its keys and ships them; the
    /// driver merges and returns the first `k` (O1–O3 shape). The shipped
    /// volume is proportional to the data — the general-engine hallmark.
    pub fn sort_first_k(
        &self,
        dataset: DatasetId,
        columns: &[&str],
        k: usize,
    ) -> EngineResult<GpOutcome<Vec<RowKey>>> {
        let order = SortOrder::ascending(columns);
        self.collect(
            |w| {
                let parts = self.partitions_of(w, dataset)?;
                let mut keys: Vec<RowKey> = Vec::new();
                for view in parts.iter() {
                    let resolved = order.resolve(view.table()).map_err(EngineError::from)?;
                    for row in view.iter_rows() {
                        keys.push(resolved.key(view.table(), row));
                    }
                }
                keys.sort();
                Ok(keys.to_bytes())
            },
            |b| Vec::<RowKey>::from_bytes(b).map_err(EngineError::from),
            |parts| {
                let mut all: Vec<RowKey> = parts.into_iter().flatten().collect();
                all.sort();
                all.truncate(k);
                all
            },
        )
    }

    /// Exact quantile: full sort shipped, driver indexes the rank (O4).
    pub fn quantile(
        &self,
        dataset: DatasetId,
        columns: &[&str],
        q: f64,
    ) -> EngineResult<GpOutcome<Option<RowKey>>> {
        let order = SortOrder::ascending(columns);
        let sorted = self.collect(
            |w| {
                let parts = self.partitions_of(w, dataset)?;
                let mut keys: Vec<RowKey> = Vec::new();
                for view in parts.iter() {
                    let resolved = order.resolve(view.table()).map_err(EngineError::from)?;
                    for row in view.iter_rows() {
                        keys.push(resolved.key(view.table(), row));
                    }
                }
                keys.sort();
                Ok(keys.to_bytes())
            },
            |b| Vec::<RowKey>::from_bytes(b).map_err(EngineError::from),
            |parts| {
                let mut all: Vec<RowKey> = parts.into_iter().flatten().collect();
                all.sort();
                all
            },
        )?;
        let result = if sorted.result.is_empty() {
            None
        } else {
            let idx = ((q.clamp(0.0, 1.0)) * (sorted.result.len() - 1) as f64).round() as usize;
            Some(sorted.result[idx].clone())
        };
        Ok(GpOutcome {
            result,
            duration: sorted.duration,
            driver_bytes: sorted.driver_bytes,
        })
    }

    /// Exact group-by-value counts (the general engine's "histogram": it
    /// does not know about buckets or pixels, so it groups by raw value and
    /// ships every group — O5/O7's comparison point).
    pub fn group_count(
        &self,
        dataset: DatasetId,
        column: &str,
    ) -> EngineResult<GpOutcome<CountMap>> {
        self.collect(
            |w| {
                let parts = self.partitions_of(w, dataset)?;
                let mut counts: HashMap<Value, u64> = HashMap::new();
                for view in parts.iter() {
                    let col = view
                        .table()
                        .column_by_name(column)
                        .map_err(EngineError::from)?;
                    for row in view.iter_rows() {
                        *counts.entry(col.value(row)).or_insert(0) += 1;
                    }
                }
                let vec: CountMap = counts.into_iter().collect();
                Ok(encode_counts(&vec))
            },
            decode_counts,
            |parts| {
                let mut all: HashMap<Value, u64> = HashMap::new();
                for part in parts {
                    for (v, c) in part {
                        *all.entry(v).or_insert(0) += c;
                    }
                }
                let mut vec: CountMap = all.into_iter().collect();
                vec.sort_by(|a, b| a.0.cmp(&b.0));
                vec
            },
        )
    }

    /// Exact 2-D group-by (the heat-map comparison, O11).
    pub fn group_count_2d(
        &self,
        dataset: DatasetId,
        col_x: &str,
        col_y: &str,
    ) -> EngineResult<GpOutcome<PairCounts>> {
        self.collect(
            |w| {
                let parts = self.partitions_of(w, dataset)?;
                let mut counts: HashMap<(Value, Value), u64> = HashMap::new();
                for view in parts.iter() {
                    let cx = view
                        .table()
                        .column_by_name(col_x)
                        .map_err(EngineError::from)?;
                    let cy = view
                        .table()
                        .column_by_name(col_y)
                        .map_err(EngineError::from)?;
                    for row in view.iter_rows() {
                        *counts.entry((cx.value(row), cy.value(row))).or_insert(0) += 1;
                    }
                }
                let mut w2 = WireWriter::new();
                w2.put_varint(counts.len() as u64);
                for ((x, y), c) in counts {
                    x.encode(&mut w2);
                    y.encode(&mut w2);
                    w2.put_varint(c);
                }
                Ok(w2.finish())
            },
            |b| {
                let mut r = WireReader::new(b);
                let n = r.get_len("gp 2d")?;
                let mut out = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let x = Value::decode(&mut r)?;
                    let y = Value::decode(&mut r)?;
                    let c = r.get_varint()?;
                    out.push(((x, y), c));
                }
                Ok(out)
            },
            |parts| {
                let mut all: HashMap<(Value, Value), u64> = HashMap::new();
                for part in parts {
                    for (k, c) in part {
                        *all.entry(k).or_insert(0) += c;
                    }
                }
                all.into_iter().collect()
            },
        )
    }

    /// Exact distinct values: ships the whole distinct set (O9's shape).
    pub fn distinct(&self, dataset: DatasetId, column: &str) -> EngineResult<GpOutcome<u64>> {
        let counted = self.group_count(dataset, column)?;
        Ok(GpOutcome {
            result: counted
                .result
                .iter()
                .filter(|(v, _)| !v.is_missing())
                .count() as u64,
            duration: counted.duration,
            driver_bytes: counted.driver_bytes,
        })
    }

    /// Exact top-k by frequency (O8's comparison): full group-by, then the
    /// driver sorts the complete group table.
    pub fn top_k(
        &self,
        dataset: DatasetId,
        column: &str,
        k: usize,
    ) -> EngineResult<GpOutcome<CountMap>> {
        let mut counted = self.group_count(dataset, column)?;
        counted
            .result
            .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        counted.result.truncate(k);
        Ok(counted)
    }
}

impl std::fmt::Debug for GpEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GpEngine({:?})", self.cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::udf::UdfRegistry;
    use hillview_columnar::{ColumnKind, Table};
    use hillview_core::dataset::{FnSource, Lineage, SourceRegistry, SourceSpec};
    use hillview_core::ClusterConfig;

    fn setup() -> (Arc<Cluster>, DatasetId) {
        let mut sources = SourceRegistry::new();
        sources.register(Arc::new(FnSource::new("nums", |w, _n, _mp, _s| {
            let t = Table::builder()
                .column(
                    "X",
                    ColumnKind::Int,
                    Column::Int(I64Column::from_options(
                        (0..5_000).map(|i| Some((i + w as i64 * 5_000) % 100)),
                    )),
                )
                .build()
                .unwrap();
            Ok(vec![t])
        })));
        let c = Cluster::new(ClusterConfig::test(), sources, UdfRegistry::new());
        let ds = DatasetId(1);
        c.derive(
            ds,
            &Lineage::Loaded {
                spec: SourceSpec {
                    source: Arc::from("nums"),
                    snapshot: 0,
                },
            },
        )
        .unwrap();
        (c, ds)
    }

    #[test]
    fn exact_sort_returns_smallest_keys() {
        let (c, ds) = setup();
        let gp = GpEngine::new(c);
        let o = gp.sort_first_k(ds, &["X"], 5).unwrap();
        let got: Vec<i64> = o
            .result
            .iter()
            .map(|k| k.values()[0].as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![0, 0, 0, 0, 0], "100 copies of each value");
        // Shipped every key: 10_000 keys ≫ the 5 returned.
        assert!(o.driver_bytes > 10_000, "bytes {}", o.driver_bytes);
    }

    #[test]
    fn exact_quantile() {
        let (c, ds) = setup();
        let gp = GpEngine::new(c);
        let o = gp.quantile(ds, &["X"], 0.5).unwrap();
        let v = o.result.unwrap().values()[0].as_i64().unwrap();
        assert!((45..=55).contains(&v), "median {v}");
    }

    #[test]
    fn group_count_is_exact() {
        let (c, ds) = setup();
        let gp = GpEngine::new(c);
        let o = gp.group_count(ds, "X").unwrap();
        assert_eq!(o.result.len(), 100);
        assert!(o.result.iter().all(|(_, c)| *c == 100));
    }

    #[test]
    fn distinct_and_topk() {
        let (c, ds) = setup();
        let gp = GpEngine::new(c);
        assert_eq!(gp.distinct(ds, "X").unwrap().result, 100);
        let o = gp.top_k(ds, "X", 3).unwrap();
        assert_eq!(o.result.len(), 3);
        assert!(o.result.iter().all(|(_, c)| *c == 100));
    }

    #[test]
    fn gp_ships_more_bytes_than_hillview() {
        use hillview_core::erased::erase;
        use hillview_core::QueryOptions;
        use hillview_sketch::histogram::HistogramSketch;
        use hillview_sketch::BucketSpec;
        let (c, ds) = setup();
        // Hillview: 10-bucket histogram summary.
        let hv = c
            .run_erased(
                ds,
                &erase(HistogramSketch::streaming(
                    "X",
                    BucketSpec::numeric(0.0, 100.0, 10),
                )),
                &QueryOptions::default(),
            )
            .unwrap();
        // GP: exact group-by of all 100 values.
        let gp = GpEngine::new(c).group_count(ds, "X").unwrap();
        assert!(
            gp.driver_bytes > 2 * hv.root_bytes,
            "gp {} vs hillview {}",
            gp.driver_bytes,
            hv.root_bytes
        );
    }

    #[test]
    fn missing_dataset_errors() {
        let (c, _) = setup();
        let gp = GpEngine::new(c);
        assert!(matches!(
            gp.group_count(DatasetId(42), "X"),
            Err(EngineError::DatasetMissing { .. })
        ));
    }

    #[test]
    fn heatmap_2d_group() {
        let (c, ds) = setup();
        let gp = GpEngine::new(c);
        let o = gp.group_count_2d(ds, "X", "X").unwrap();
        assert_eq!(o.result.len(), 100, "diagonal pairs only");
    }
}
