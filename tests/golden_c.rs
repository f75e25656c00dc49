//! Golden-snapshot tests for the C renderings of the benchmark suite.
//!
//! The suite driver is required to be *byte*-output-preserving across
//! worker counts; `parallel_determinism` checks that the engine agrees
//! with itself across them, and these snapshots pin the output against
//! the checked-in goldens so that any engine change that perturbs emitted
//! code — even one that perturbs every configuration identically — fails
//! loudly in review.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! BLESS=1 cargo test --test golden_c
//! ```
//!
//! and commit the diff under `tests/golden/`.

use rupicola::bedrock::cprint::function_to_c;
use rupicola::core::EngineLimits;
use rupicola::ext::standard_dbs;
use rupicola::programs::suite;
use rupicola::{compile_entries, default_workers};
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

#[test]
fn c_output_matches_checked_in_goldens() {
    // Strict flag parse: `BLESS=yes` or `BLESS=` is an error, not a silent
    // bless (or silent non-bless) — only 0/1/true/false/unset are valid.
    let bless = rupicola::service::env::flag("BLESS").expect("BLESS");
    let dir = golden_dir();
    let dbs = standard_dbs();
    let mut mismatches = Vec::new();
    let results = compile_entries(&suite(), &dbs, &EngineLimits::default(), default_workers());
    for r in results {
        let compiled = r.result.expect("suite compiles");
        let rendered = function_to_c(&compiled.function);
        let path = dir.join(format!("{}.c", r.name));
        if bless {
            fs::create_dir_all(&dir).expect("create golden dir");
            fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden {} ({e}); run `BLESS=1 cargo test --test golden_c` \
                 once and commit the result",
                r.name,
                path.display()
            )
        });
        if rendered != golden {
            mismatches.push(format!(
                "{name}: C output drifted from tests/golden/{name}.c\n\
                 --- golden ---\n{golden}\n--- current ---\n{rendered}",
                name = r.name
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} golden mismatch(es); if the change is intentional, re-bless:\n\n{}",
        mismatches.len(),
        mismatches.join("\n\n")
    );
}

#[test]
fn goldens_cover_exactly_the_suite() {
    if rupicola::service::env::flag("BLESS").expect("BLESS") {
        return; // the blessing run may be mid-update
    }
    let mut expect: Vec<String> =
        suite().iter().map(|e| format!("{}.c", e.info.name)).collect();
    expect.sort();
    let mut have: Vec<String> = fs::read_dir(golden_dir())
        .expect("tests/golden exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    have.sort();
    assert_eq!(have, expect, "tests/golden/ out of sync with the suite");
}
