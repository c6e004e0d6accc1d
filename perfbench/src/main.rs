//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Prints the full report as one JSON line, then the result line
//! (`correct`, `attempted`, `failed`, `metrics`) last. The report and, for
//! traced runs, the spans are also written under `out/` in the benchmark's
//! directory.

use hillview_perfbench::{run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <explore|revisit|drilldown|cold_parts> --seed <n> \
         --seconds <s> --trace <0|1> [--smoke]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(v) = args.next() else {
            return usage(&format!("{a} needs a value"));
        };
        match a.as_str() {
            "--workload" => match Workload::parse(&v) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {v:?}")),
            },
            "--seed" => match v.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {v:?}")),
            },
            "--seconds" => match v.parse::<f64>() {
                Ok(s) if s >= 0.0 => seconds = s,
                _ => return usage(&format!("bad seconds {v:?}")),
            },
            "--trace" => match v.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {v:?}")),
            },
            _ => return usage(&format!("unknown argument {a:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}-trace{}", workload.name(), seed, u8::from(trace));
    let report = outcome.report.render();
    let written = std::fs::create_dir_all(&out)
        .and_then(|_| std::fs::write(out.join(format!("report-{stem}.json")), &report))
        .and_then(|_| match &outcome.spans {
            Some(s) => std::fs::write(out.join(format!("spans-{stem}.jsonl")), s),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write the report: {e}");
    }
    println!("{report}");
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
