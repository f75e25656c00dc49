//! Parser totality: every parser that reads text from outside the process
//! — the JSON tree parser, the artifact pull reader (directly and through
//! a 1-shard store load), the JSON-lines request parser and the RISC-V
//! listing parser — answers malformed input with an error, never a panic
//! or a stack overflow. The inputs: nesting 100,000 levels deep, integer
//! literals of 21 and more digits, every truncation of every suite
//! envelope, random bytes, and random single-byte edits of a suite
//! envelope.

use rupicola::bedrock::rv::{listing, parse_listing};
use rupicola::core::check::{check_with, CheckConfig};
use rupicola::core::fnspec::FnSpec;
use rupicola::core::serial::read_compiled_function;
use rupicola::core::EngineLimits;
use rupicola::ext::standard_dbs;
use rupicola::lang::codec::{read_expr, read_text};
use rupicola::lang::json;
use rupicola::lang::Model;
use rupicola::programs::suite;
use rupicola::service::store::LoadOutcome;
use rupicola::service::{parse_request, FsBackend, ShardedStore};
use rupicola_minicheck::check;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rupicola-parsers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The seven suite programs filed in a 1-shard store at `root`, with
/// quarantine off (the sweeps evict one key thousands of times).
struct Filed {
    store: ShardedStore,
    root: PathBuf,
    programs: Vec<Program>,
}

/// One filed program: its request, the file its envelope lives in, and
/// the envelope text as the store wrote it.
struct Program {
    model: Model,
    spec: FnSpec,
    path: PathBuf,
    envelope: String,
}

impl Filed {
    fn new(tag: &str) -> Filed {
        let root = scratch(tag);
        let store = ShardedStore::open_with(
            &root,
            1,
            |_| Box::new(FsBackend),
            |s| s.with_quarantine_after(0),
        )
        .unwrap();
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let programs = suite()
            .into_iter()
            .map(|entry| {
                let (model, spec) = ((entry.model)(), (entry.spec)());
                let cf = (entry.compiled)().unwrap();
                let key = store.key_for(&model, &spec, &dbs, &limits);
                let path = store.put(key, &cf).unwrap();
                let envelope = std::fs::read_to_string(&path).unwrap();
                Program {
                    model,
                    spec,
                    path,
                    envelope,
                }
            })
            .collect();
        Filed {
            store,
            root,
            programs,
        }
    }

    /// Files `bytes` as `p`'s envelope and loads it: an eviction, or a
    /// hit that answers this request and certifies.
    fn load(&self, p: &Program, bytes: &[u8]) -> LoadOutcome {
        let dbs = standard_dbs();
        std::fs::write(&p.path, bytes).unwrap();
        let outcome = self
            .store
            .load_verified(&p.model, &p.spec, &dbs, &EngineLimits::default());
        match &outcome {
            LoadOutcome::Evicted { .. } => assert!(!p.path.exists(), "eviction deletes the file"),
            LoadOutcome::Hit(loaded) => {
                assert_eq!(loaded.cf.model, p.model);
                assert_eq!(loaded.cf.spec, p.spec);
                check_with(&loaded.cf, &dbs, &CheckConfig::default())
                    .expect("a served artifact certifies");
            }
            other => panic!(
                "{}: the file exists on a healthy disk: {other:?}",
                p.spec.name
            ),
        }
        outcome
    }
}

impl Drop for Filed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The artifact's text inside an envelope laid out as the store writes
/// it: everything after the `artifact` key but the closing brace.
fn artifact_text(envelope: &str) -> Option<&str> {
    let (_, rest) = envelope.split_once("\"artifact\":")?;
    rest.strip_suffix('}')
}

/// Runs every text parser on `text`; none may panic. Returns whether the
/// tree parser and the artifact reader accepted it.
fn parse_everywhere(text: &str) -> (bool, bool) {
    let _ = parse_request(text);
    let _ = parse_listing(text);
    (
        json::parse(text).is_ok(),
        read_text(text, |r| read_compiled_function(r, None)).is_ok(),
    )
}

#[test]
fn deep_nesting_is_an_error_everywhere() {
    let filed = Filed::new("nesting");
    let p = &filed.programs[0];
    let depth = 100_000;
    let inputs = [
        "[".repeat(depth),
        "[".repeat(depth) + &"]".repeat(depth),
        "{\"a\":".repeat(depth),
        "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth),
        // Nesting the expression decoder recurses through, once per level.
        "[\"copy\",".repeat(depth) + "[\"var\",\"x\"]" + &"]".repeat(depth),
    ];
    for text in &inputs {
        assert_eq!(parse_everywhere(text), (false, false));
        assert!(read_text(text, read_expr).is_err());
        let request = format!("{{\"op\":\"compile\",\"program\":{text}}}");
        assert!(parse_request(&request).is_err());
        assert!(matches!(
            filed.load(p, text.as_bytes()),
            LoadOutcome::Evicted { .. }
        ));
    }
}

#[test]
fn integer_literals_of_21_digits_and_more_are_errors() {
    let filed = Filed::new("integers");
    let p = &filed.programs[0];
    let artifact = artifact_text(&p.envelope).unwrap();
    for digits in [21, 22, 40, 400] {
        let huge: String = "123456789".chars().cycle().take(digits).collect();
        assert_eq!(parse_everywhere(&huge), (false, false), "{digits} digits");
        assert!(json::parse(&format!("[{huge}]")).is_err());
        let request =
            format!("{{\"op\":\"compile\",\"program\":\"fnv1a\",\"deadline_ms\":{huge}}}");
        assert!(parse_request(&request).is_err());
        assert!(parse_listing(&format!("  li x5, {huge}")).is_err());
        // In the envelope's header and in the artifact: a node count.
        let format = p
            .envelope
            .replacen("\"format\":6", &format!("\"format\":{huge}"), 1);
        let count = p
            .envelope
            .replacen("\"node_count\":", &format!("\"node_count\":{huge}"), 1);
        for envelope in [format, count] {
            assert_ne!(envelope, p.envelope);
            assert!(json::parse(&envelope).is_err());
            assert!(matches!(
                filed.load(p, envelope.as_bytes()),
                LoadOutcome::Evicted { .. }
            ));
        }
        let artifact = artifact.replacen("\"node_count\":", &format!("\"node_count\":{huge}"), 1);
        assert!(read_text(&artifact, |r| read_compiled_function(r, None)).is_err());
    }
}

/// Every proper prefix of every suite envelope is malformed JSON.
/// `parse_request` reads its line with `json::parse` first and
/// `parse_listing` sees a one-line text either way, so those two sweep
/// the smallest envelope's prefixes and the prefixes of a request line.
#[test]
fn every_truncation_of_every_suite_envelope_fails_to_parse() {
    let filed = Filed::new("truncation-parse");
    for p in &filed.programs {
        let text = &p.envelope;
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            assert!(
                json::parse(&text[..cut]).is_err(),
                "{}: prefix of {cut} bytes",
                p.spec.name
            );
        }
        assert!(json::parse(text).is_ok());
    }
    let smallest = filed
        .programs
        .iter()
        .map(|p| p.envelope.as_str())
        .min_by_key(|t| t.len());
    let request = r#"{"op":"compile","program":"fnv1a","deadline_ms":125,"tenant":"t"}"#;
    for text in [smallest.unwrap(), request] {
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            assert!(
                parse_request(&text[..cut]).is_err(),
                "prefix of {cut} bytes"
            );
            let _ = parse_listing(&text[..cut]);
        }
    }
    assert!(parse_request(request).is_ok());
}

/// Every proper prefix of every suite envelope evicts and the whole
/// envelope hits; the artifact reader rejects every proper prefix of the
/// artifact text and reads the whole one.
#[test]
fn every_truncation_of_every_suite_envelope_evicts() {
    let filed = Filed::new("truncation-load");
    for p in &filed.programs {
        let text = &p.envelope;
        for cut in 0..text.len() {
            let outcome = filed.load(p, &text.as_bytes()[..cut]);
            assert!(
                matches!(outcome, LoadOutcome::Evicted { .. }),
                "{}: {cut}",
                p.spec.name
            );
        }
        assert!(matches!(
            filed.load(p, text.as_bytes()),
            LoadOutcome::Hit(_)
        ));
        let artifact = artifact_text(text).unwrap();
        for cut in (0..artifact.len()).filter(|&cut| artifact.is_char_boundary(cut)) {
            assert!(read_text(&artifact[..cut], |r| read_compiled_function(r, None)).is_err());
        }
        assert!(read_text(artifact, |r| read_compiled_function(r, None)).is_ok());
    }
}

/// A machine-code listing read back from every truncation: a cut at a
/// line boundary is itself a listing, any other cut is at worst an error.
#[test]
fn every_truncation_of_a_listing_parses_or_errors() {
    let cf = rupicola::programs::crc32::compiled().unwrap();
    let art = rupicola::rv::lower_allocated(&cf.function, &Default::default()).unwrap();
    let text = listing(&art.asm);
    assert_eq!(parse_listing(&text).unwrap(), art.asm);
    for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
        let _ = parse_listing(&text[..cut]);
    }
}

#[test]
fn random_bytes_are_errors_everywhere() {
    let filed = Filed::new("random");
    let p = &filed.programs[0];
    check("random_bytes_are_errors_everywhere", 300, |rng| {
        let len = rng.range(0, 200);
        let bytes = rng.bytes(len);
        let text = String::from_utf8_lossy(&bytes);
        let (_, artifact) = parse_everywhere(&text);
        assert!(!artifact, "random text read as an artifact: {text:?}");
        assert!(matches!(filed.load(p, &bytes), LoadOutcome::Evicted { .. }));
    });
}

#[test]
fn random_single_byte_edits_of_a_suite_envelope_evict_or_serve_certified() {
    let filed = Filed::new("edits");
    check("random_single_byte_edits_of_a_suite_envelope", 200, |rng| {
        let p = rng.pick(&filed.programs);
        let mut bytes = p.envelope.clone().into_bytes();
        let at = rng.range(0, bytes.len());
        bytes[at] ^= 1 + rng.below(255) as u8;
        if let Ok(text) = std::str::from_utf8(&bytes) {
            parse_everywhere(text);
            if let Some(artifact) = artifact_text(text) {
                let _ = read_text(artifact, |r| read_compiled_function(r, None));
            }
        }
        filed.load(p, &bytes);
    });
}
