//! Re-validates the full benchmark suite and prints a per-program report:
//! derivation size, side conditions, checker coverage, and the certified
//! artifacts' statistics. The CI-style entry point for the correctness
//! claims ("all code written in Rupicola comes with proofs", §4.3).
//!
//! Run with `cargo run -p rupicola-bench --bin validate`.

use rupicola_bench::json::{write_results, Json};
use rupicola_core::check::{check_with, CheckConfig};
use rupicola_ext::standard_dbs;
use rupicola_service::suite_via_store;

fn main() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    println!(
        "{:<8} {:>6} {:>7} {:>7} {:>8} {:>8} {:>9} {:>7}",
        "program", "stmts", "lemmas", "sides", "vectors", "skipped", "invchks", "poison²"
    );
    let mut failures = 0;
    let mut rows: Vec<Json> = Vec::new();
    // One cached suite pass (verified cache loads, compilation of the
    // misses through the server); checking then consumes the results in
    // deterministic suite order. Note cached artifacts are checked twice —
    // once by the verified load, once here — which is exactly the point:
    // this binary's claim is independent of where the artifact came from.
    let (results, cache) = suite_via_store(&dbs);
    for compiled_entry in results {
        let name = compiled_entry.name;
        match compiled_entry.result {
            Err(e) => {
                failures += 1;
                println!("{name:<8} COMPILATION FAILED: {e}");
                rows.push(Json::obj([
                    ("program", Json::str(name)),
                    ("certified", Json::Bool(false)),
                    ("error", Json::str(format!("compilation failed: {e}"))),
                ]));
            }
            Ok(compiled) => match check_with(&compiled, &dbs, &config) {
                Err(e) => {
                    failures += 1;
                    println!("{name:<8} CHECK FAILED: {e}");
                    rows.push(Json::obj([
                        ("program", Json::str(name)),
                        ("certified", Json::Bool(false)),
                        ("error", Json::str(format!("check failed: {e}"))),
                    ]));
                }
                Ok(report) => {
                    println!(
                        "{:<8} {:>6} {:>7} {:>7} {:>8} {:>8} {:>9} {:>7}",
                        name,
                        compiled.function.statement_count(),
                        compiled.derivation.size(),
                        compiled.derivation.side_cond_count,
                        report.vectors_run,
                        report.vectors_skipped,
                        report.invariant_checks,
                        if report.poison_pair { "yes" } else { "no" },
                    );
                    rows.push(Json::obj([
                        ("program", Json::str(name)),
                        ("certified", Json::Bool(true)),
                        ("statements", Json::U64(compiled.function.statement_count() as u64)),
                        ("derivation_nodes", Json::U64(compiled.derivation.size() as u64)),
                        ("side_conditions", Json::U64(compiled.derivation.side_cond_count as u64)),
                        ("vectors_run", Json::U64(report.vectors_run as u64)),
                        ("vectors_skipped", Json::U64(report.vectors_skipped as u64)),
                        ("invariant_checks", Json::U64(report.invariant_checks as u64)),
                        ("poison_pair", Json::Bool(report.poison_pair)),
                    ]));
                }
            },
        }
    }
    println!(
        "\ncache: {} hit(s), {} miss(es), {} eviction(s)",
        cache.hits, cache.misses, cache.evictions
    );
    let summary = Json::obj([
        ("programs", Json::Arr(rows)),
        ("failures", Json::U64(failures as u64)),
        ("all_certified", Json::Bool(failures == 0)),
        ("cache", cache.to_json()),
    ]);
    match write_results("validate.json", &summary) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\nfailed to write results: {e}"),
    }
    if failures == 0 {
        println!("\nall programs certified ✓");
    } else {
        println!("\n{failures} program(s) FAILED");
        std::process::exit(1);
    }
}
