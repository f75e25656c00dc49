//! Sub-second runs of the two service workloads, and the shape of what a
//! run prints.

use std::time::Duration;

use rupicola_benchmark::{run, Config, Report, Workload};
use rupicola_lang::json::{parse, Json};

fn smoke(workload: Workload, trace: bool) -> Report {
    let config = Config {
        workload,
        seed: 7,
        run_for: Duration::from_millis(300),
        trace,
    };
    let report = run(&config).expect("the benchmark sets up");
    assert!(report.correct(), "{:?}", report.first_problem);
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "{:?}", report.first_problem);
    report
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = parse(&text).expect("BENCHMARK.json parses");
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric of a printed metrics object.
fn printed(metrics: &Json) -> Vec<(String, String)> {
    let Json::Obj(pairs) = metrics else {
        panic!("metrics is an object")
    };
    pairs
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Some(Json::U64(_) | Json::F64(_))),
                "{name} value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn check_lines(report: &Report, key: &str) {
    let result = parse(&report.result_line()).expect("result line parses");
    let Json::Obj(pairs) = &result else {
        panic!("result line is an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(printed(result.get("metrics").unwrap()), listed(key));

    let detail = parse(&report.detail_line()).expect("detail line parses");
    assert_eq!(
        detail.get("workload").and_then(Json::as_str),
        Some(report.workload.name())
    );
    assert_eq!(printed(detail.get("metrics").unwrap()), listed(key));
    assert_eq!(detail.get("layers").is_some(), report.trace);
}

#[test]
fn warm_hits_traced_smoke_run() {
    let report = smoke(Workload::WarmHits, true);
    check_lines(&report, "per_layer");
    assert_eq!(
        report.get("service.hits"),
        Some(1.0),
        "every warm-hits call is one verified hit"
    );
    assert!(report.get("service.verify_ms").unwrap() > 0.0);
}

#[test]
fn mixed_batch_plain_smoke_run() {
    let report = smoke(Workload::MixedBatch, false);
    check_lines(&report, "end_to_end");
    for metric in [
        "setup_s",
        "throughput_rps",
        "latency_p50_ms",
        "peak_rss_mb",
        "gen_over_hand",
        "rv_dyn_instrs",
        "rv_static_instrs",
    ] {
        assert!(report.get(metric).unwrap() > 0.0, "{metric}");
    }
}

#[test]
fn benchmark_json_lists_the_workloads() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let spec = parse(&text).unwrap();
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
}
