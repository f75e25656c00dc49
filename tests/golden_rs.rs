//! Golden-snapshot tests for the Rust renderings of the benchmark suite —
//! both routes: the certified body (`<name>.rs`) and the
//! translation-validated optimized body (`<name>.opt.rs`).
//!
//! `tests/golden_c.rs` pins the C printer; this file pins the Rust printer
//! that the bench crate's build script feeds to rustc, plus the output of
//! the full optimization pipeline. The pipeline is required to be
//! deterministic, so its output is snapshot-stable: any pass change that
//! perturbs emitted code fails loudly in review rather than silently
//! shifting benchmark numbers.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! BLESS=1 cargo test --test golden_rs
//! ```
//!
//! and commit the diff under `tests/golden_rs/`.

use rupicola::analysis::rust_regions;
use rupicola::bedrock::rsprint::function_to_rust;
use rupicola::core::EngineLimits;
use rupicola::core::check::CheckConfig;
use rupicola::ext::standard_dbs;
use rupicola::programs::suite;
use rupicola::{compile_entries, default_workers, optimize_compiled, PipelineConfig};
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden_rs")
}

#[test]
fn rust_output_matches_checked_in_goldens() {
    let bless = rupicola::service::env::flag("BLESS").expect("BLESS");
    let dir = golden_dir();
    let dbs = standard_dbs();
    let pipeline = PipelineConfig::full();
    let check = CheckConfig::default();
    let mut mismatches = Vec::new();
    let mut compare = |name: &str, file: String, rendered: &str| {
        let path = dir.join(&file);
        if bless {
            fs::create_dir_all(&dir).expect("create golden dir");
            fs::write(&path, rendered).expect("write golden");
            return;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden {} ({e}); run `BLESS=1 cargo test --test golden_rs` \
                 once and commit the result",
                path.display()
            )
        });
        if rendered != golden {
            mismatches.push(format!(
                "{name}: Rust output drifted from tests/golden_rs/{file}\n\
                 --- golden ---\n{golden}\n--- current ---\n{rendered}"
            ));
        }
    };
    let results = compile_entries(&suite(), &dbs, &EngineLimits::default(), default_workers());
    for r in results {
        let mut compiled = r.result.expect("suite compiles");
        // The regions the bench build script prints with, so the goldens
        // pin exactly the benchmarked code.
        let regions = rust_regions(&compiled);
        let rendered = function_to_rust(&compiled.function, &regions).expect("transpiles");
        compare(r.name, format!("{}.rs", r.name), &rendered);
        // The optimized leg: run the full translation-validated pipeline
        // and pin its output too. A program the pipeline leaves untouched
        // (no `optimized` body) snapshots its certified body, matching the
        // bench build script's fallback.
        let report = optimize_compiled(&mut compiled, &dbs, &pipeline, &check);
        assert_eq!(
            report.rolled_back_count(),
            0,
            "{}: pass rolled back on the suite:\n{report}",
            r.name
        );
        let opt_fn = compiled.optimized.as_ref().unwrap_or(&compiled.function);
        let rendered_opt = function_to_rust(opt_fn, &regions).expect("opt transpiles");
        compare(r.name, format!("{}.opt.rs", r.name), &rendered_opt);
    }
    assert!(
        mismatches.is_empty(),
        "{} golden mismatch(es); if the change is intentional, re-bless:\n\n{}",
        mismatches.len(),
        mismatches.join("\n\n")
    );
}

#[test]
fn goldens_cover_exactly_the_suite_both_routes() {
    if rupicola::service::env::flag("BLESS").expect("BLESS") {
        return; // the blessing run may be mid-update
    }
    let mut expect: Vec<String> = suite()
        .iter()
        .flat_map(|e| {
            [format!("{}.rs", e.info.name), format!("{}.opt.rs", e.info.name)]
        })
        .collect();
    expect.sort();
    let mut have: Vec<String> = fs::read_dir(golden_dir())
        .expect("tests/golden_rs exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    have.sort();
    assert_eq!(have, expect, "tests/golden_rs/ out of sync with the suite");
}
