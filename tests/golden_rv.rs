//! Golden-snapshot tests for the RISC-V listings of the benchmark suite —
//! both routes: the validated spill-all lowering (`<name>.s`) and the
//! fully-optimized pipeline output (`<name>.opt.s`).
//!
//! `tests/golden_rs.rs` pins the Rust printer; this file pins the machine
//! backend. The lowering pipeline is required to be deterministic
//! (the allocator sorts by weight with name tiebreaks, the peepholes are
//! pure rewrites), so its output is snapshot-stable: an allocator or
//! peephole change that perturbs emitted code fails loudly in review
//! rather than silently shifting instruction counts.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! BLESS=1 cargo test --test golden_rv
//! ```
//!
//! and commit the diff under `tests/golden_rv/`.

use rupicola::bedrock::rv::listing;
use rupicola::core::EngineLimits;
use rupicola::core::check::CheckConfig;
use rupicola::ext::standard_dbs;
use rupicola::programs::suite;
use rupicola::{compile_entries, default_workers, lower_validated, RvPipelineConfig};
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden_rv")
}

#[test]
fn rv_listings_match_checked_in_goldens() {
    let bless = rupicola::service::env::flag("BLESS").expect("BLESS");
    let dir = golden_dir();
    let dbs = standard_dbs();
    // The snapshot pins *which code is emitted*, not the validator's
    // strength (rvbench and the battery cover that in release); a couple
    // of vectors keeps the per-stage validation honest at debug speed.
    let check = CheckConfig { vectors: 2, ..CheckConfig::default() };
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
                "{name}: missing golden {} ({e}); run `BLESS=1 cargo test --test golden_rv` \
                 once and commit the result",
                path.display()
            )
        });
        if rendered != golden {
            mismatches.push(format!(
                "{name}: RISC-V listing drifted from tests/golden_rv/{file}\n\
                 --- golden ---\n{golden}\n--- current ---\n{rendered}"
            ));
        }
    };
    let results = compile_entries(&suite(), &dbs, &EngineLimits::default(), default_workers());
    for r in results {
        let compiled = r.result.expect("suite compiles");
        let (naive, _) = lower_validated(&compiled, &RvPipelineConfig::none(), &check)
            .unwrap_or_else(|e| panic!("{}: naive route: {e}", r.name));
        compare(r.name, format!("{}.s", r.name), &listing(&naive.asm));
        let (full, report) = lower_validated(&compiled, &RvPipelineConfig::full(), &check)
            .unwrap_or_else(|e| panic!("{}: full route: {e}", r.name));
        assert_eq!(
            report.rolled_back_count(),
            0,
            "{}: stage rolled back on the suite:\n{report}",
            r.name
        );
        compare(r.name, format!("{}.opt.s", r.name), &listing(&full.asm));
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
        .flat_map(|e| [format!("{}.s", e.info.name), format!("{}.opt.s", e.info.name)])
        .collect();
    expect.sort();
    let mut have: Vec<String> = fs::read_dir(golden_dir())
        .expect("tests/golden_rv exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    have.sort();
    assert_eq!(have, expect, "tests/golden_rv/ out of sync with the suite");
}
