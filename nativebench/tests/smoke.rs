//! The benchmark's own tests: a tiny run of every workload prints every
//! metric `BENCHMARK.json` names, with its unit, and a flipped delivered
//! byte is caught.
//!
//! ```bash
//! cargo test --release --offline --manifest-path nativebench/Cargo.toml
//! ```

use obs::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["bulk_1k", "rpc_64_udp", "lossy_1k", "churn_512"];
/// Exit code of a workload its host cannot run (no UDP socket).
const NOT_RUN: i32 = 3;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nativebench"))
        .args(["--seed", "7", "--seconds", "1", "--tiny"])
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// The JSON result on the last line of standard output.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

/// `name → unit` for one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `name → unit` of the metrics a result printed.
fn printed(res: &Json) -> BTreeMap<String, String> {
    let Some(Json::Obj(metrics)) = res.get("metrics") else { panic!("no metrics object") };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has no value");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(list);
        for w in WORKLOADS {
            let out = bench(&["--workload", w, "--trace", trace]);
            if w == "rpc_64_udp" && out.status.code() == Some(NOT_RUN) {
                eprintln!("{w}: not run on this host (no UDP socket)");
                continue;
            }
            assert!(out.status.success(), "{w} trace {trace} failed: {out:?}");
            let res = result(&out);
            assert_eq!(res.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert_eq!(res.get("failed").and_then(Json::as_f64), Some(0.0), "{w}");
            assert!(res.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0, "{w}");
            assert_eq!(printed(&res), want, "{w} trace {trace}");
            if trace == "1" {
                assert_ledger_covers_the_op(w, &res);
            }
        }
    }
}

/// Per path, the layer shares and the unattributed remainder sum to the
/// traced op time, and the remainder (the benchmark's own loop) is small.
fn assert_ledger_covers_the_op(w: &str, res: &Json) {
    let Some(Json::Obj(metrics)) = res.get("metrics") else { panic!("no metrics object") };
    let value = |name: &str| metrics[name].get("value").and_then(Json::as_f64).expect("value");
    for path in ["ilp", "non_ilp"] {
        let prefix = format!("{path}.share.");
        let total: f64 =
            metrics.iter().filter(|(k, _)| k.starts_with(&prefix)).map(|(k, _)| value(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{w} {path}: shares sum to {total}");
        let rest = value(&format!("{path}.share.unattributed"));
        assert!((0.0..0.25).contains(&rest), "{w} {path}: unattributed share {rest}");
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in ["bulk_1k", "churn_512"] {
        let res = result(&bench(&["--workload", w, "--trace", "0"]));
        let Some(Json::Obj(metrics)) = res.get("metrics") else { panic!("no metrics") };
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(v > 0.0, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn a_flipped_delivered_byte_fails_the_run() {
    for w in ["bulk_1k", "churn_512"] {
        let out = bench(&["--workload", w, "--trace", "0", "--inject-corruption"]);
        assert!(!out.status.success(), "{w}: a corrupted delivery must exit non-zero");
        let res = result(&out);
        assert_eq!(res.get("correct"), Some(&Json::Bool(false)), "{w}");
        let failed = res.get("failed").and_then(Json::as_f64).expect("failed");
        let attempted = res.get("attempted").and_then(Json::as_f64).expect("attempted");
        assert!(failed / attempted > 0.0, "{w}: fail_ratio must be > 0");
    }
}
