//! Corruption totality: the verified load must be a *total* function of
//! the file contents. DESIGN.md §12 claims any environmental corruption
//! collapses to eviction-and-recompile; this battery makes the claim
//! exhaustive rather than sampled — a stored envelope is truncated at
//! **every** byte offset, every header field (`format`, `key`,
//! `program`) has **every bit of every byte** flipped, and **every byte**
//! of the artifact body has a bit flipped while the key's certificate is
//! cached. No outcome may be a panic, and no served artifact may fail
//! the checker or differ from the artifact that was stored.
//!
//! The envelope deliberately contains non-ASCII text (derivation focus
//! strings use `↦`), so truncation and bit flips routinely produce
//! invalid UTF-8 — which must surface as eviction (corruption), not as a
//! retry loop or an I/O error.

use rupicola::core::check::{check_with, CheckConfig};
use rupicola::core::fnspec::{ArgSpec, FnSpec, RetSpec};
use rupicola::core::EngineLimits;
use rupicola::ext::standard_dbs;
use rupicola::lang::dsl::*;
use rupicola::lang::Model;
use rupicola::sep::ScalarKind;
use rupicola::service::store::LoadOutcome;
use rupicola::service::{FsBackend, ShardedStore};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rupicola-totality-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn word_spec(name: &str) -> FnSpec {
    FnSpec::new(
        name,
        vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
        vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
    )
}

/// A small program keeps the envelope — and the O(bytes) sweep — small
/// without weakening the property: the verification ladder is the same
/// for every artifact.
fn small_artifact() -> (Model, FnSpec) {
    let model =
        Model::new("inc", ["x"], let_n("y", word_add(var("x"), word_lit(1)), var("y")));
    (model, word_spec("inc"))
}

#[test]
fn truncation_at_every_byte_offset_evicts_or_serves_certified() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let (model, spec) = small_artifact();
    let cf = rupicola::core::compile(&model, &spec, &dbs).unwrap();
    let root = scratch("trunc");
    // Quarantine off: this test evicts the same key thousands of times on
    // purpose. Full-strength check config so a surviving Hit is held to
    // the same bar the test re-checks it against.
    let store = ShardedStore::open_with(
        &root,
        1,
        |_| Box::new(FsBackend),
        |s| s.with_quarantine_after(0).with_check_config(CheckConfig::default()),
    )
    .unwrap();
    let key = store.key_for(&model, &spec, &dbs, &limits);
    let path = store.put(key, &cf).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    assert!(pristine.len() > 512, "envelope suspiciously small: {}", pristine.len());

    for cut in 0..=pristine.len() {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Evicted { .. } => {
                assert!(!path.exists(), "offset {cut}: eviction must delete the file");
            }
            LoadOutcome::Hit(loaded) => {
                // Only the full-length "truncation" should land here, and
                // a served artifact must certify and answer this request.
                assert_eq!(loaded.cf.model, model, "offset {cut}");
                assert_eq!(loaded.cf.spec, spec, "offset {cut}");
                check_with(&loaded.cf, &dbs, &CheckConfig::default()).unwrap_or_else(|e| {
                    panic!("offset {cut}: served artifact fails the checker: {e}")
                });
            }
            LoadOutcome::Miss => panic!("offset {cut}: the file exists; a miss is impossible"),
            LoadOutcome::Unavailable { reason } => {
                panic!("offset {cut}: corruption must never look like an outage: {reason}")
            }
        }
    }
    assert!(!store.any_degraded(), "corruption must never flip the store into degraded mode");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bit_flips_in_every_header_field_evict() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let (model, spec) = small_artifact();
    let cf = rupicola::core::compile(&model, &spec, &dbs).unwrap();
    let root = scratch("header-flip");
    let store =
        ShardedStore::open_with(&root, 1, |_| Box::new(FsBackend), |s| s.with_quarantine_after(0))
            .unwrap();
    let key = store.key_for(&model, &spec, &dbs, &limits);
    let path = store.put(key, &cf).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let text = String::from_utf8(pristine.clone()).unwrap();

    // Locate each header field's bytes: from the opening quote of its
    // name through its value, up to (not including) the field delimiter.
    let mut regions: Vec<(&str, std::ops::Range<usize>)> = Vec::new();
    for field in ["format", "key", "program"] {
        let needle = format!("\"{field}\":");
        let start = text.find(&needle).unwrap_or_else(|| panic!("envelope lost `{field}`"));
        let end = start
            + text[start..]
                .find(['\n', ','])
                .unwrap_or_else(|| panic!("unterminated `{field}` field"));
        regions.push((field, start..end));
    }

    let mut flips = 0usize;
    let mut benign = 0usize;
    for (field, region) in regions {
        for at in region {
            for bit in 0..8u8 {
                let mut corrupt = pristine.clone();
                corrupt[at] ^= 1 << bit;
                std::fs::write(&path, &corrupt).unwrap();
                flips += 1;
                // The format version, key echo, and program name are each
                // cross-checked against the request, so almost every flip
                // evicts. The exceptions are representation-only flips the
                // parser is entitled to tolerate (e.g. a space becoming a
                // leading zero) — those must serve a *certified* answer to
                // *this* request, which is the soundness contract.
                match store.load_verified(&model, &spec, &dbs, &limits) {
                    LoadOutcome::Evicted { .. } => {
                        assert!(!path.exists(), "{field} byte {at} bit {bit}");
                    }
                    LoadOutcome::Hit(loaded) => {
                        benign += 1;
                        assert_eq!(loaded.cf.model, model, "{field} byte {at} bit {bit}");
                        assert_eq!(loaded.cf.spec, spec, "{field} byte {at} bit {bit}");
                        check_with(&loaded.cf, &dbs, &CheckConfig::default()).unwrap_or_else(|e| {
                            panic!(
                                "{field} byte {at} bit {bit}: served artifact fails: {e}"
                            )
                        });
                    }
                    other => panic!(
                        "{field} byte {at} bit {bit}: expected eviction or certified hit, \
                         got {other:?}"
                    ),
                }
            }
        }
    }
    assert!(flips > 100, "the sweep should cover every header byte, got {flips}");
    assert_eq!(store.stats().evictions, flips - benign);
    assert!(
        benign * 20 < flips,
        "header flips should be overwhelmingly material: {benign}/{flips} benign"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Every byte of the artifact body flipped while the key's certificate is
/// cached (DESIGN.md §10): each flip must end in an eviction, or in a hit
/// that serves exactly the stored function and witness. A flip must
/// never be served on the strength of the certificate checked for the
/// pristine artifact.
#[test]
fn bit_flips_in_every_body_byte_evict_or_serve_the_stored_artifact() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let (model, spec) = small_artifact();
    let cf = rupicola::core::compile(&model, &spec, &dbs).unwrap();
    let root = scratch("body-flip");
    let store =
        ShardedStore::open_with(&root, 1, |_| Box::new(FsBackend), |s| s.with_quarantine_after(0))
            .unwrap();
    let key = store.key_for(&model, &spec, &dbs, &limits);
    let path = store.put(key, &cf).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let text = String::from_utf8(pristine.clone()).unwrap();
    // The body: the `artifact` field's value, up to the envelope's
    // closing brace.
    let field = "\"artifact\":";
    let start = text.find(field).expect("envelope lost its artifact") + field.len();
    let end = text.trim_end().len() - 1;
    assert!(end - start > 512, "artifact body suspiciously small: {}", end - start);

    let mut benign = 0usize;
    for at in start..end {
        // A verified hit first, so the key's certificate is cached.
        std::fs::write(&path, &pristine).unwrap();
        assert!(
            matches!(store.load_verified(&model, &spec, &dbs, &limits), LoadOutcome::Hit(_)),
            "byte {at}: the pristine artifact must hit"
        );
        let mut corrupt = pristine.clone();
        corrupt[at] ^= 1 << (at % 8);
        std::fs::write(&path, &corrupt).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Evicted { .. } => assert!(!path.exists(), "byte {at}"),
            LoadOutcome::Hit(loaded) => {
                benign += 1;
                assert_eq!(loaded.cf.function, cf.function, "byte {at}");
                assert_eq!(loaded.cf.derivation, cf.derivation, "byte {at}");
            }
            other => panic!("byte {at}: expected eviction or the stored artifact, got {other:?}"),
        }
    }
    let flips = end - start;
    let stats = store.stats();
    assert_eq!(stats.evictions, flips - benign);
    assert_eq!(stats.hits, flips + benign, "every pristine load and benign flip hits");
    assert!(benign * 20 < flips, "body flips should be overwhelmingly material: {benign}/{flips}");
    let _ = std::fs::remove_dir_all(&root);
}
