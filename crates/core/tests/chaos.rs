//! Chaos suite: seeded fault schedules across a sketch × fault-class grid.
//!
//! This is the enforcement arm of the crate's failure-semantics contract
//! (see `hillview_core` crate docs): under an armed [`FaultPlan`] every
//! query must terminate in bounded time with exactly one of
//!
//! 1. a complete result, bit-identical to the fault-free baseline
//!    (`coverage == 1.0`);
//! 2. a structured [`EngineError`] — never a hang, a panic that escapes
//!    the engine, or a process abort;
//! 3. an honestly-labelled degraded result (`coverage < 1.0` with
//!    non-empty `failed_workers`), and only when the caller opted in.
//!
//! Afterwards the *same* engine — faults disarmed — must heal completely:
//! a re-run with the same cache key returns bytes bit-identical to the
//! clean baseline, proving no partial summary polluted the computation
//! cache.
//!
//! The schedule is a pure function of the plan seed (§5.8 determinism),
//! so every assertion message carries the seed: re-run with
//! `CHAOS_SEED_BASE=<seed> CHAOS_SEEDS=1` to replay a failure exactly.
//! CI sets `CHAOS_SEEDS=64`; the local default keeps the suite quick.

use hillview_columnar::column::{Column, I64Column};
use hillview_columnar::udf::UdfRegistry;
use hillview_columnar::{ColumnKind, Table};
use hillview_core::cluster::ClusterConfig;
use hillview_core::dataset::SourceRegistry;
use hillview_core::erased::erase;
use hillview_core::{
    Cluster, DatasetId, Engine, EngineError, FaultPlan, FaultSpec, FnSource, QueryOptions,
    RetryPolicy,
};
use hillview_sketch::count::CountSketch;
use hillview_sketch::heavy::MisraGriesSketch;
use hillview_sketch::histogram::HistogramSketch;
use hillview_sketch::moments::MomentsSketch;
use hillview_sketch::BucketSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS_PER_WORKER: i64 = 2_000;

/// A fresh 2-worker engine over a deterministic integer shard per worker,
/// with a tight retry budget so even pathological schedules stay fast.
fn chaos_engine() -> Engine {
    chaos_engine_with_cache_budget(ClusterConfig::test().cache_budget_bytes)
}

/// Same fixture with an explicit sketch-cache budget, for churn tests that
/// need evictions to actually happen.
fn chaos_engine_with_cache_budget(cache_budget_bytes: usize) -> Engine {
    let mut sources = SourceRegistry::new();
    sources.register(Arc::new(FnSource::new("chaos", |w, _n, _mp, snap| {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options(
                    (0..ROWS_PER_WORKER).map(|i| Some((i * 7 + w as i64 * 13 + snap as i64) % 100)),
                )),
            )
            .build()
            .unwrap();
        Ok(vec![t])
    })));
    let mut cfg = ClusterConfig::test();
    cfg.cache_budget_bytes = cache_budget_bytes;
    let mut udfs = UdfRegistry::with_builtins();
    udfs.register_sum("XX", "X", "X");
    let cluster = Cluster::new(cfg, sources, udfs);
    let mut engine = Engine::new(cluster);
    engine.retry = RetryPolicy {
        attempts: 4,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(5),
    };
    engine
}

/// The sketch grid: one representative per summary shape (scalar count,
/// bucketed histogram, bounded-size heavy hitters, numeric moments).
fn sketch_grid() -> Vec<(&'static str, Arc<dyn hillview_core::erased::ErasedSketch>)> {
    vec![
        ("count", erase(CountSketch::rows())),
        (
            "histogram",
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 10),
            )),
        ),
        ("misra-gries", erase(MisraGriesSketch::new("X", 8))),
        ("moments", erase(MomentsSketch::new("X", 4))),
    ]
}

fn seed_range() -> impl Iterator<Item = u64> {
    let base: u64 = std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let count: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    (0..count).map(move |i| base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Every query under chaos terminates with a complete bit-identical
/// result, a structured error, or an opted-in labelled degraded result —
/// and the healed engine always reconverges to the clean baseline.
#[test]
fn seeded_chaos_grid_preserves_failure_semantics() {
    // Hard per-query wall-clock bound: worker_timeout (500ms in the test
    // config) × 4 attempts plus stalls and backoffs sits well under this.
    const QUERY_BOUND: Duration = Duration::from_secs(30);
    // Outcome tallies across the whole grid, printed for CI triage and
    // used to assert the adversary is not a silent no-op.
    let (mut complete, mut degraded, mut errored, mut healed_from_fault) = (0u32, 0u32, 0u32, 0u32);
    for (nth, plan_seed) in seed_range().enumerate() {
        let engine = chaos_engine();
        let data = engine.load("chaos", plan_seed).unwrap();
        // Clean baselines first, before any fault is armed.
        let grid = sketch_grid();
        let baselines: Vec<_> = grid
            .iter()
            .map(|(name, sk)| {
                let opts = QueryOptions {
                    seed: 42,
                    ..Default::default()
                };
                let outcome = engine
                    .run_erased(data, sk, &opts)
                    .unwrap_or_else(|e| panic!("clean baseline {name} failed: {e}"));
                outcome.bytes
            })
            .collect();

        engine
            .cluster()
            .arm_faults(FaultPlan::seeded(plan_seed, FaultSpec::chaos()));
        for (i, (name, sk)) in grid.iter().enumerate() {
            // Alternate the degradation opt-in across the grid so both
            // the strict and the tolerant contract get exercised.
            let allow_degraded = (nth + i) % 2 == 0;
            let opts = QueryOptions {
                seed: 42,
                deadline: Some(Duration::from_secs(20)),
                allow_degraded,
                ..Default::default()
            };
            let started = Instant::now();
            let result = engine.run_erased(data, sk, &opts);
            let elapsed = started.elapsed();
            assert!(
                elapsed < QUERY_BOUND,
                "seed {plan_seed:#x} sketch {name}: query took {elapsed:?} — not bounded"
            );
            match result {
                Ok(outcome) if outcome.coverage >= 1.0 => {
                    complete += 1;
                    assert_eq!(
                        outcome.bytes, baselines[i],
                        "seed {plan_seed:#x} sketch {name}: complete result diverged from \
                         fault-free baseline"
                    );
                    assert!(
                        outcome.failed_workers.is_empty(),
                        "seed {plan_seed:#x} sketch {name}: full coverage but failed \
                         workers {:?}",
                        outcome.failed_workers
                    );
                }
                Ok(outcome) => {
                    degraded += 1;
                    assert!(
                        allow_degraded,
                        "seed {plan_seed:#x} sketch {name}: degraded result \
                         (coverage {}) without opt-in",
                        outcome.coverage
                    );
                    assert!(
                        !outcome.failed_workers.is_empty(),
                        "seed {plan_seed:#x} sketch {name}: coverage {} < 1 but no \
                         failed workers named",
                        outcome.coverage
                    );
                    assert!(
                        outcome.coverage > 0.0,
                        "seed {plan_seed:#x} sketch {name}: zero-coverage result \
                         should have been an error"
                    );
                }
                // Any structured error is within contract; specific
                // classes are pinned by unit tests. What must never
                // happen — hangs, escaped panics, aborts — fails the
                // bound above or the harness itself.
                Err(_e) => errored += 1,
            }
        }
        healed_from_fault += engine
            .cluster()
            .fault_plan()
            .map_or(0, |p| u32::from(p.faults_fired() > 0));

        // Heal: disarm and re-run the grid. The cache keys every query
        // structurally, so the healed re-runs address the very entries
        // the chaos runs would have written. Whatever the chaos run did —
        // succeeded (cache holds complete folds), failed (cache must hold
        // nothing) — the healed engine must reconverge to the clean
        // baseline bit-for-bit.
        engine.cluster().disarm_faults();
        for (i, (name, sk)) in grid.iter().enumerate() {
            let opts = QueryOptions {
                seed: 42,
                ..Default::default()
            };
            let outcome = engine.run_erased(data, sk, &opts).unwrap_or_else(|e| {
                panic!("seed {plan_seed:#x} sketch {name}: healed engine failed: {e}")
            });
            assert_eq!(
                outcome.bytes, baselines[i],
                "seed {plan_seed:#x} sketch {name}: healed re-run diverged — \
                 a faulted query polluted the computation cache"
            );
            assert!(
                (outcome.coverage - 1.0).abs() < f64::EPSILON,
                "seed {plan_seed:#x} sketch {name}: healed run not full coverage"
            );
        }
    }
    eprintln!(
        "chaos grid: {complete} complete, {degraded} degraded, {errored} errored; \
         faults fired in {healed_from_fault} seed(s)"
    );
    assert!(
        healed_from_fault > 0,
        "the seeded adversary never injected a single fault — the chaos \
         suite is vacuous; check FaultSpec::chaos() rates and site wiring"
    );
}

/// The outcome trichotomy holds on the **fused** filtered-query path too:
/// under an armed plan every one-shot `(predicate, sketch)` query — which
/// runs `summarize_filtered` at the leaves and bypasses the computation
/// cache — completes bit-identical to the fault-free fused baseline,
/// errors structurally, or degrades only with opt-in; and the healed
/// engine reconverges.
#[test]
fn seeded_chaos_fused_queries_preserve_failure_semantics() {
    use hillview_columnar::Predicate;
    const QUERY_BOUND: Duration = Duration::from_secs(30);
    let (mut complete, mut degraded, mut errored, mut fired) = (0u32, 0u32, 0u32, 0u32);
    for (nth, plan_seed) in seed_range().enumerate() {
        let engine = chaos_engine();
        let data = engine.load("chaos", plan_seed).unwrap();
        let grid = sketch_grid();
        let pred = || Predicate::range("X", 20.0, 70.0);
        let baselines: Vec<_> = grid
            .iter()
            .map(|(name, sk)| {
                let opts = QueryOptions {
                    seed: 42,
                    ..Default::default()
                };
                engine
                    .run_filtered_erased(data, pred(), sk, &opts)
                    .unwrap_or_else(|e| panic!("clean fused baseline {name} failed: {e}"))
                    .bytes
            })
            .collect();

        engine
            .cluster()
            .arm_faults(FaultPlan::seeded(plan_seed, FaultSpec::chaos()));
        for (i, (name, sk)) in grid.iter().enumerate() {
            let allow_degraded = (nth + i) % 2 == 0;
            let opts = QueryOptions {
                seed: 42,
                deadline: Some(Duration::from_secs(20)),
                allow_degraded,
                ..Default::default()
            };
            let started = Instant::now();
            let result = engine.run_filtered_erased(data, pred(), sk, &opts);
            let elapsed = started.elapsed();
            assert!(
                elapsed < QUERY_BOUND,
                "seed {plan_seed:#x} fused {name}: query took {elapsed:?} — not bounded"
            );
            match result {
                Ok(outcome) if outcome.coverage >= 1.0 => {
                    complete += 1;
                    assert_eq!(
                        outcome.bytes, baselines[i],
                        "seed {plan_seed:#x} fused {name}: complete result diverged \
                         from fault-free fused baseline"
                    );
                }
                Ok(outcome) => {
                    degraded += 1;
                    assert!(
                        allow_degraded,
                        "seed {plan_seed:#x} fused {name}: degraded result without opt-in"
                    );
                    assert!(
                        !outcome.failed_workers.is_empty(),
                        "seed {plan_seed:#x} fused {name}: coverage {} < 1 but no \
                         failed workers named",
                        outcome.coverage
                    );
                }
                Err(_e) => errored += 1,
            }
        }
        fired += engine
            .cluster()
            .fault_plan()
            .map_or(0, |p| u32::from(p.faults_fired() > 0));

        engine.cluster().disarm_faults();
        for (i, (name, sk)) in grid.iter().enumerate() {
            let opts = QueryOptions {
                seed: 42,
                ..Default::default()
            };
            let outcome = engine
                .run_filtered_erased(data, pred(), sk, &opts)
                .unwrap_or_else(|e| {
                    panic!("seed {plan_seed:#x} fused {name}: healed engine failed: {e}")
                });
            assert_eq!(
                outcome.bytes, baselines[i],
                "seed {plan_seed:#x} fused {name}: healed fused re-run diverged"
            );
        }
    }
    eprintln!(
        "fused chaos grid: {complete} complete, {degraded} degraded, {errored} errored; \
         faults fired in {fired} seed(s)"
    );
    assert!(
        fired > 0,
        "the seeded adversary never injected a fault into a fused query run"
    );
}

/// Derivations run in the same retry loop as queries. Under an armed plan
/// `filter`, `map` and `reload` each end with exactly the expected rows
/// materialized on every worker, or with a structured `RetriesExhausted`
/// — never a panic, a hang or another error. Disarmed, the engine then
/// serves every dataset at its expected count, replaying whatever the
/// faults destroyed.
#[test]
fn seeded_chaos_derivations_end_complete_or_exhausted() {
    use hillview_columnar::Predicate;
    const OP_BOUND: Duration = Duration::from_secs(30);
    let (mut complete, mut exhausted, mut fired) = (0u32, 0u32, 0u32);
    for plan_seed in seed_range() {
        let reloaded_snapshot = plan_seed ^ 1;
        let pred = || Predicate::range("X", 20.0, 70.0);
        let count = |engine: &Engine, ds: DatasetId| {
            engine
                .run(ds, CountSketch::rows(), &QueryOptions::default())
                .unwrap_or_else(|e| panic!("seed {plan_seed:#x}: count of {ds} failed: {e}"))
                .0
                .rows as usize
        };
        // Expected counts from a fault-free engine.
        let band = |snapshot: u64| {
            let reference = chaos_engine();
            let data = reference.load("chaos", snapshot).unwrap();
            let filtered = reference.filter(data, pred()).unwrap();
            count(&reference, filtered)
        };
        let (band_before, band_after) = (band(plan_seed), band(reloaded_snapshot));
        let all_rows = 2 * ROWS_PER_WORKER as usize;

        let engine = chaos_engine();
        let data = engine.load("chaos", plan_seed).unwrap();
        engine
            .cluster()
            .arm_faults(FaultPlan::seeded(plan_seed, FaultSpec::chaos()));
        // Runs one derivation and checks its outcome; `Some` on success.
        let mut derive =
            |op: &str, expected: usize, run: &dyn Fn() -> Result<DatasetId, EngineError>| {
                let started = Instant::now();
                let result = run();
                let elapsed = started.elapsed();
                assert!(
                    elapsed < OP_BOUND,
                    "seed {plan_seed:#x} {op}: took {elapsed:?} — not bounded"
                );
                match result {
                    Ok(id) => {
                        complete += 1;
                        assert_eq!(
                            engine.cluster().dataset_rows(id),
                            expected,
                            "seed {plan_seed:#x} {op}: succeeded with the wrong rows"
                        );
                        Some(id)
                    }
                    Err(EngineError::RetriesExhausted { .. }) => {
                        exhausted += 1;
                        None
                    }
                    Err(e) => panic!("seed {plan_seed:#x} {op}: unstructured failure {e}"),
                }
            };
        let filtered = derive("filter", band_before, &|| engine.filter(data, pred()));
        let mapped =
            filtered.and_then(|f| derive("map", band_before, &|| engine.map(f, "XX", "Doubled")));
        derive("reload", all_rows, &|| {
            engine.reload(data, reloaded_snapshot).map(|()| data)
        });
        fired += engine
            .cluster()
            .fault_plan()
            .map_or(0, |p| u32::from(p.faults_fired() > 0));

        // Heal: the reload rewrote the redo log whether or not it
        // finished, and evicted the derived datasets, so replay rebuilds
        // everything against the new snapshot.
        engine.cluster().disarm_faults();
        assert_eq!(
            count(&engine, data),
            all_rows,
            "seed {plan_seed:#x}: healed base"
        );
        for ds in filtered.into_iter().chain(mapped) {
            assert_eq!(
                count(&engine, ds),
                band_after,
                "seed {plan_seed:#x}: healed derived dataset {ds}"
            );
        }
    }
    eprintln!(
        "derivation chaos: {complete} complete, {exhausted} exhausted; \
         faults fired in {fired} seed(s)"
    );
    assert!(
        fired > 0,
        "the seeded adversary never injected a fault into a derivation"
    );
}

/// The scripted (epoch-blind) side of the plan: a persistent kill schedule
/// exhausts the retry budget with a structured, cause-preserving error,
/// and never caches anything under the failing key.
#[test]
fn scripted_persistent_kill_never_caches_partial_state() {
    use hillview_core::{FaultAction, FaultSite};
    let engine = chaos_engine();
    let data = engine.load("chaos", 0).unwrap();
    let sk = erase(CountSketch::rows());
    let clean = engine
        .run_erased(data, &sk, &QueryOptions::default())
        .unwrap();
    // Forget the clean run's cache entries (and datasets — lineage replay
    // restores them) so the faulted queries below actually execute, and
    // would write the very structural key the healed re-run reads if they
    // ever — wrongly — cached a partial fold.
    engine.cluster().evict_all();

    engine
        .cluster()
        .arm_faults(FaultPlan::scripted((0..100_000).map(|i| {
            (
                FaultSite::WorkerOp {
                    worker: 0,
                    index: i,
                },
                FaultAction::Kill,
            )
        })));
    let err = engine
        .run_erased(data, &sk, &QueryOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::RetriesExhausted { .. }),
        "persistent kill should exhaust the budget, got {err}"
    );

    engine.cluster().disarm_faults();
    let healed = engine
        .run_erased(data, &sk, &QueryOptions::default())
        .unwrap();
    assert_eq!(
        healed.bytes, clean.bytes,
        "failed query left partial state under its cache key"
    );
}

/// A degraded or failed tree must never populate a predicate-keyed cache
/// entry on the worker it abandoned. A persistently-killed worker 0 ends
/// the fused query in either an honestly-labelled degraded result or a
/// structured error (both are within the trichotomy; which one is a race
/// between the liveness sweep and the tolerant final attempt) — either
/// way the killed worker's cache must record zero insertions for the
/// whole episode, and the healed engine — reading the *same* structural
/// key — must reconverge to the complete fused baseline.
#[test]
fn degraded_fused_tree_never_populates_predicate_keyed_entries() {
    use hillview_columnar::Predicate;
    use hillview_core::{FaultAction, FaultSite};
    let engine = chaos_engine();
    let data = engine.load("chaos", 7).unwrap();
    let sk = erase(HistogramSketch::streaming(
        "X",
        BucketSpec::numeric(0.0, 100.0, 10),
    ));
    let pred = || Predicate::range("X", 15.0, 85.0);
    let clean = engine
        .run_filtered_erased(data, pred(), &sk, &QueryOptions::default())
        .unwrap();
    // Forget the clean run's entries so the degraded episode below starts
    // cold: any insertion from here on is attributable to a faulted tree.
    engine.cluster().evict_all();
    let w0_insertions = engine.cluster().worker(0).cache_stats().insertions;

    engine
        .cluster()
        .arm_faults(FaultPlan::scripted((0..100_000).map(|i| {
            (
                FaultSite::WorkerOp {
                    worker: 0,
                    index: i,
                },
                FaultAction::Kill,
            )
        })));
    let opts = QueryOptions {
        allow_degraded: true,
        deadline: Some(Duration::from_secs(20)),
        ..Default::default()
    };
    match engine.run_filtered_erased(data, pred(), &sk, &opts) {
        Ok(degraded) => assert!(
            degraded.coverage < 1.0 && degraded.failed_workers.contains(&0),
            "persistent kill of worker 0 should degrade the fused query \
             (coverage {}, failed {:?})",
            degraded.coverage,
            degraded.failed_workers
        ),
        Err(e) => assert!(
            e.is_retryable() || matches!(e, EngineError::RetriesExhausted { .. }),
            "persistent kill should surface a structured retryable/exhausted \
             error, got {e}"
        ),
    }
    assert_eq!(
        engine.cluster().worker(0).cache_stats().insertions,
        w0_insertions,
        "the killed worker cached state under the query's predicate key \
         while its tree was dying"
    );

    engine.cluster().disarm_faults();
    let healed = engine
        .run_filtered_erased(data, pred(), &sk, &QueryOptions::default())
        .unwrap();
    assert!(
        (healed.coverage - 1.0).abs() < f64::EPSILON,
        "healed fused run not full coverage"
    );
    assert_eq!(
        healed.bytes, clean.bytes,
        "healed fused re-run diverged — the degraded tree polluted a \
         predicate-keyed cache entry"
    );
}

/// Churn a deliberately tiny sketch cache with many distinct predicate
/// identities, across seeds. Evictions must actually fire, warm repeats
/// must actually hit, and every answer — fresh fold, cached entry, or
/// re-fold after eviction — must stay bit-identical to an uncached
/// reference of the same query.
#[test]
fn seeded_cache_churn_evicts_without_corrupting_results() {
    use hillview_columnar::Predicate;
    for plan_seed in seed_range().take(4) {
        // ~2 KB per worker: a handful of histogram/moments entries at
        // most, so 16 distinct predicates cycle the LRU several times.
        let engine = chaos_engine_with_cache_budget(2048);
        let data = engine.load("chaos", plan_seed).unwrap();
        let sketches = [
            erase(HistogramSketch::streaming(
                "X",
                BucketSpec::numeric(0.0, 100.0, 10),
            )),
            erase(MomentsSketch::new("X", 4)),
        ];
        let uncached = QueryOptions {
            cache: false,
            ..Default::default()
        };
        let mut state = plan_seed | 1;
        for _ in 0..16 {
            // Splitmix-style step: the predicate sequence is a pure
            // function of the seed, so failures replay exactly.
            state = state
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(27)
                .wrapping_add(0x243F_6A88_85A3_08D3);
            let lo = (state % 60) as f64;
            let hi = lo + 10.0 + (state >> 8 & 0x1F) as f64;
            let pred = Predicate::range("X", lo, hi);
            for sk in &sketches {
                let reference = engine
                    .run_filtered_erased(data, pred.clone(), sk, &uncached)
                    .unwrap();
                let cold = engine
                    .run_filtered_erased(data, pred.clone(), sk, &QueryOptions::default())
                    .unwrap();
                let warm = engine
                    .run_filtered_erased(data, pred.clone(), sk, &QueryOptions::default())
                    .unwrap();
                assert_eq!(
                    reference.bytes, cold.bytes,
                    "seed {plan_seed:#x} pred [{lo}, {hi}): cached fold diverged \
                     from uncached reference under churn"
                );
                assert_eq!(
                    cold.bytes, warm.bytes,
                    "seed {plan_seed:#x} pred [{lo}, {hi}): warm repeat diverged \
                     from the entry its own miss stored"
                );
            }
        }
        let stats = engine.cluster().cache_stats();
        assert!(
            stats.evictions > 0,
            "seed {plan_seed:#x}: churn over a {}-byte budget never evicted \
             (insertions {}, bytes {}) — the budget is not being enforced",
            2048,
            stats.insertions,
            stats.bytes
        );
        assert!(
            stats.hits > 0,
            "seed {plan_seed:#x}: warm repeats never hit the cache"
        );
        assert!(
            stats.bytes <= 2048 * engine.cluster().num_workers() as u64,
            "seed {plan_seed:#x}: cache grew past its budget ({} bytes)",
            stats.bytes
        );
    }
}
