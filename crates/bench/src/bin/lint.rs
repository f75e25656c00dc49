//! Runs the independent static-analysis layer over the full benchmark
//! suite plus the lemma-library linter over the standard hint databases.
//!
//! The per-program analyses are derivation-blind (dataflow over the
//! generated Bedrock2 code, cross-checked against the certificate's
//! footprint), so a clean run is evidence independent of the trusted
//! checker. The exit code is nonzero on any program finding or any
//! library-level *error*; library warnings (e.g. lemmas unreachable for
//! the benchmark goal shapes) are reported but tolerated, since the
//! databases serve programs beyond this suite.
//!
//! Run with `cargo run --release -p rupicola-bench --bin lint`.

use rupicola_analysis::{analyze_with_dbs, lemma_lint, ProbeSuite, Severity};
use rupicola_bench::json::{write_results, Json};
use rupicola_ext::standard_dbs;
use rupicola_service::suite_via_store;

fn main() {
    let dbs = standard_dbs();
    let mut program_findings = 0usize;
    let mut suites: Vec<ProbeSuite> = Vec::new();
    let mut rows: Vec<Json> = Vec::new();

    println!("{:<8} {:>8} {:>8} {:>8}", "program", "errors", "warnings", "verdict");
    // One cached suite pass (verified cache loads first, compilation of
    // the misses through the server) shared by both analysis layers: the
    // per-program dataflow lints and the lemma-library linter's probe
    // suites below both consume these same compiled artifacts, instead of
    // each re-running the compiler — and on a warm store, instead of
    // running it at all.
    let (results, cache) = suite_via_store(&dbs);
    for compiled_entry in results {
        let name = compiled_entry.name;
        let compiled = match compiled_entry.result {
            Ok(c) => c,
            Err(e) => {
                println!("{name:<8} COMPILATION FAILED: {e}");
                std::process::exit(1);
            }
        };
        let report = analyze_with_dbs(&compiled, Some(&dbs));
        let errors = report.errors().count();
        let warnings = report.warnings().count();
        program_findings += report.findings.len();
        println!(
            "{:<8} {:>8} {:>8} {:>8}",
            name,
            errors,
            warnings,
            if report.is_clean() { "clean" } else { "DIRTY" },
        );
        for f in &report.findings {
            println!("         {f}");
        }
        rows.push(Json::obj([
            ("program", Json::str(name)),
            ("errors", Json::U64(errors as u64)),
            ("warnings", Json::U64(warnings as u64)),
            (
                "findings",
                Json::Arr(report.findings.iter().map(|f| Json::str(f.to_string())).collect()),
            ),
        ]));
        match ProbeSuite::from_compiled(&compiled) {
            Ok(s) => suites.push(s),
            Err(e) => {
                // Already surfaced as a certificate finding above.
                println!("         (no probe suite: {e})");
            }
        }
    }

    println!("\nlemma library ({} probe suites):", suites.len());
    let library = lemma_lint::run(&dbs, &suites);
    let mut library_errors = 0usize;
    if library.is_empty() {
        println!("  clean");
    }
    for f in &library {
        if f.severity() == Severity::Error {
            library_errors += 1;
        }
        println!("  {f}");
    }

    let summary = Json::obj([
        ("programs", Json::Arr(rows)),
        ("program_findings", Json::U64(program_findings as u64)),
        ("library_errors", Json::U64(library_errors as u64)),
        (
            "library_warnings",
            Json::U64((library.len() - library_errors) as u64),
        ),
        (
            "library_findings",
            Json::Arr(library.iter().map(|f| Json::str(f.to_string())).collect()),
        ),
        ("clean", Json::Bool(program_findings == 0 && library_errors == 0)),
        ("cache", cache.to_json()),
    ]);
    match write_results("lint.json", &summary) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\nfailed to write results: {e}"),
    }

    if program_findings > 0 || library_errors > 0 {
        println!(
            "\n{program_findings} program finding(s), {library_errors} library error(s) — lint FAILED"
        );
        std::process::exit(1);
    }
    println!("\nall programs lint clean ✓");
}
