//! Smoke mode over every workload, untraced and traced: all output checks
//! run on tiny data, and every metric `BENCHMARK.json` lists is reported.

use hillview_perfbench::{run, Config, WORKLOADS};

/// Metric names listed in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 7,
                seconds: 0.0,
                trace,
                smoke: true,
            };
            let outcome = run(&cfg).expect("smoke run");
            let what = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct, "{what}: {}", outcome.report.render());
            assert_eq!(outcome.failed, 0, "{what}");
            assert!(outcome.attempted > 0, "{what}");
            let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
            let want = listed(if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(names, want, "{what}");
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
            }
            if !trace {
                for m in &outcome.metrics {
                    assert!(m.value > 0.0, "{what}: {} is zero", m.name);
                }
            }
        }
    }
}
