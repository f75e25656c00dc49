//! Integration battery for the persistent compilation service: artifact
//! round-trips, fingerprint stability, verified-load soundness under
//! corruption, and the warm-cache zero-derivation guarantee.

use rupicola::core::check::{check_with, CheckConfig};
use rupicola::core::derive::DerivationNode;
use rupicola::core::serial::{
    encode_compiled_function, encode_loop_invariant, encode_side_cond_record,
    read_compiled_function,
};
use rupicola::core::{CompiledFunction, EngineLimits};
use rupicola::ext::standard_dbs;
use rupicola::lang::codec::read_text;
use rupicola::lang::json;
use rupicola::programs::parallel::on_deep_stack;
use rupicola::programs::{perf_suite, suite};
use rupicola::core::fnspec::FnSpec;
use rupicola::core::HintDbs;
use rupicola::lang::Model;
use rupicola::service::fingerprint::{
    content_digest, fingerprint, text_digest, Fingerprint, FingerprintInputs,
};
use rupicola::service::store::{LoadOutcome, LOAD_CHECK_VECTORS};
use rupicola::service::{
    compile_suite_cached, CompileJob, FsBackend, JobOutcome, Provenance, Server, ShardedStore,
    TenantTable, WitnessEdit,
};
use rupicola_minicheck::check;
use std::path::PathBuf;

/// The key of a request with no pipeline, public policy and no RISC-V.
fn key(model: &Model, spec: &FnSpec, dbs: &HintDbs, limits: &EngineLimits) -> Fingerprint {
    fingerprint(&FingerprintInputs::new(model, spec, dbs, limits))
}

/// A 1-shard (root layout), 1-worker server at `root`.
fn serial_server(root: &std::path::Path) -> Server {
    Server::new(ShardedStore::open(root, 1).unwrap(), TenantTable::default(), 1)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rupicola-itest-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `deserialize(serialize(cf))` is structurally the identity for `cf`,
/// through both *rendered texts* (not just the value tree): the indented
/// one and the compact one the store writes. The decoded artifact still
/// certifies.
fn assert_round_trips(name: &str, cf: &CompiledFunction) {
    let encoded = encode_compiled_function(cf);
    for (leg, text) in [("indented", encoded.render()), ("compact", encoded.render_compact())] {
        let (back, _) = read_text(&text, |r| read_compiled_function(r, None))
            .unwrap_or_else(|e| panic!("{name}: {leg} decode failed: {e}"));
        assert_eq!(back.function, cf.function, "{name} ({leg})");
        assert_eq!(back.linked, cf.linked, "{name} ({leg})");
        assert_eq!(back.derivation, cf.derivation, "{name} ({leg})");
        assert_eq!(back.model, cf.model, "{name} ({leg})");
        assert_eq!(back.spec, cf.spec, "{name} ({leg})");
        assert_eq!(back.optimized, cf.optimized, "{name} ({leg})");
        assert_eq!(back.stats, cf.stats, "{name} ({leg})");
        if leg == "compact" {
            check_with(&back, &standard_dbs(), &CheckConfig::default()).unwrap_or_else(|e| {
                panic!("{name}: round-tripped artifact fails check: {e}")
            });
        }
    }
}

/// Every benchmark program's artifact round-trips through both renderings.
#[test]
fn serialization_round_trips_all_seven_programs() {
    for entry in suite() {
        let cf = (entry.compiled)()
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.info.name));
        assert_round_trips(entry.info.name, &cf);
    }
}

/// The perf-suite programs beyond the seven round-trip too, among them
/// `chacha20_block`, whose ~670-statement let-spine nested past the
/// parser's depth limit before the codec went spine-flat. Deep stack:
/// checking and comparing that witness recurses once per statement.
#[test]
fn serialization_round_trips_the_rest_of_the_perf_suite() {
    let seven: Vec<&str> = suite().iter().map(|e| e.info.name).collect();
    let rest: Vec<_> =
        perf_suite().into_iter().filter(|e| !seven.contains(&e.info.name)).collect();
    assert_eq!(rest.len(), 4);
    for entry in rest {
        on_deep_stack(|| {
            let cf = (entry.compiled)()
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.info.name));
            assert_round_trips(entry.info.name, &cf);
        });
    }
}

/// Reading an artifact with known certified fields gives what a plain
/// read gives, for every perf-suite artifact, whether the known text is
/// the artifact's own (the fields are cloned) or another program's (they
/// are decoded); either way the certified text it returns is the
/// artifact's own, `function` through `spec`. Deep stack: comparing
/// `chacha20_block`'s witness recurses once per statement.
#[test]
fn known_certified_fields_read_like_a_plain_decode_for_the_perf_suite() {
    let artifacts: Vec<(&str, String)> = perf_suite()
        .into_iter()
        .map(|entry| {
            on_deep_stack(|| {
                let cf = (entry.compiled)()
                    .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.info.name));
                (entry.info.name, encode_compiled_function(&cf).render_compact())
            })
        })
        .collect();
    assert_eq!(artifacts.len(), 11);
    let plain = |text: &str| {
        read_text(text, |r| {
            read_compiled_function(r, None).map(|(cf, certified)| (cf, certified.to_string()))
        })
        .unwrap()
    };
    for (i, (name, text)) in artifacts.iter().enumerate() {
        let (other, other_text) = &artifacts[(i + 1) % artifacts.len()];
        on_deep_stack(|| {
            let (cf, certified) = plain(text);
            assert!(text.starts_with(&format!("{{{certified},\"optimized\":")), "{name}");
            let (other_cf, other_certified) = plain(other_text);
            let knowns = [(name, (&*certified, &cf)), (other, (&*other_certified, &other_cf))];
            for (whose, known) in knowns {
                let (back, back_certified) =
                    read_text(text, |r| read_compiled_function(r, Some(known)))
                        .unwrap_or_else(|e| panic!("{name} knowing {whose}'s fields: {e}"));
                assert!(back == cf, "{name} knowing {whose}'s fields: another function");
                assert_eq!(back_certified, certified, "{name} knowing {whose}'s fields");
            }
        });
    }
}

/// The store files and serves `chacha20_block`, the deepest perf-suite
/// witness: a 1-shard put, then a verified hit whose function and
/// derivation equal the fresh compile.
#[test]
fn chacha20_block_round_trips_through_the_store() {
    on_deep_stack(|| {
        let dbs = standard_dbs();
        let model = rupicola::programs::chacha20_block::model();
        let spec = rupicola::programs::chacha20_block::spec();
        let limits = rupicola::programs::chacha20_block::limits(EngineLimits::default());
        let cf = rupicola::core::compile_with_limits(&model, &spec, &dbs, limits).unwrap();
        let root = scratch("chacha20");
        let store = ShardedStore::open(&root, 1).unwrap();
        let key = store.key_for(&model, &spec, &dbs, &limits);
        store.put(key, &cf).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Hit(loaded) => {
                assert_eq!(loaded.cf.function, cf.function);
                assert_eq!(loaded.cf.derivation, cf.derivation);
            }
            LoadOutcome::Evicted { reason } => panic!("chacha20_block evicted: {reason}"),
            other => panic!("chacha20_block: expected a hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    });
}

/// The v5 encoding of a derivation node: each child nested as an object.
fn v5_node(n: &DerivationNode) -> json::Json {
    json::Json::obj([
        ("lemma", json::Json::str(n.lemma.as_ref())),
        ("focus", json::Json::str(n.focus.clone())),
        ("side_conds", json::Json::Arr(n.side_conds.iter().map(encode_side_cond_record).collect())),
        ("invariant", n.invariant.as_ref().map_or(json::Json::Null, encode_loop_invariant)),
        ("children", json::Json::Arr(n.children.iter().map(v5_node).collect())),
    ])
}

/// Undoes format 6's flat chains in an encoded term, at every level:
/// `["seq", a, b, c]` becomes `["seq", a, ["seq", b, c]]` and
/// `["let", x, v, y, w, body]` becomes `["let", x, v, ["let", y, w, body]]`.
fn v5_chains(j: json::Json) -> json::Json {
    use json::Json;
    match j {
        Json::Arr(items) => {
            let mut items: Vec<Json> = items.into_iter().map(v5_chains).collect();
            let link = match items.first().and_then(Json::as_str) {
                Some("seq") => 1,
                Some("let") => 2,
                _ => return Json::Arr(items),
            };
            let tag = items.remove(0);
            let mut chain = items.pop().expect("a chain ends in a term");
            while !items.is_empty() {
                let mut node = vec![tag.clone()];
                node.extend(items.drain(items.len() - link..));
                node.push(chain);
                chain = Json::Arr(node);
            }
            chain
        }
        Json::Obj(fields) => Json::Obj(fields.into_iter().map(|(k, v)| (k, v5_chains(v))).collect()),
        other => other,
    }
}

/// An envelope in the v5 layout (indented, `"format": 5`, nested
/// codecs, a valid digest) filed under the v6 key path is never served:
/// it evicts naming its format version, and the next request compiles
/// and files a v6 envelope in the compact form, which the request after
/// that hits.
#[test]
fn a_v5_envelope_evicts_and_the_next_request_files_v6() {
    use json::Json;
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let model = rupicola::programs::upstr::model();
    let spec = rupicola::programs::upstr::spec();
    let cf = rupicola::programs::upstr::compiled().unwrap();
    let mut artifact = encode_compiled_function(&cf);
    let Json::Obj(fields) = &mut artifact else { panic!("artifact is an object") };
    let (_, derivation) = fields.iter_mut().find(|(k, _)| k == "derivation").unwrap();
    let Json::Obj(fields) = derivation else { panic!("derivation is an object") };
    let (_, root) = fields.iter_mut().find(|(k, _)| k == "root").unwrap();
    *root = v5_node(&cf.derivation.root);
    let artifact = v5_chains(artifact);

    let root = scratch("v5-envelope");
    let server = serial_server(&root);
    let store = server.store();
    let key = store.key_for(&model, &spec, &dbs, &limits);
    let path = store.shard(0).path_for("upstr", key);
    let envelope = Json::obj([
        ("format", Json::U64(5)),
        ("key", Json::str(key.as_hex())),
        ("program", Json::str("upstr")),
        ("digest", Json::str(content_digest(&artifact))),
        ("artifact", artifact),
    ]);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(&path, envelope.render()).unwrap();
    match store.load_verified(&model, &spec, &dbs, &limits) {
        LoadOutcome::Evicted { reason } => assert!(reason.contains("format version 5"), "{reason}"),
        other => panic!("a v5 envelope must evict, got {other:?}"),
    }
    assert!(!path.exists());

    let request = |want: Provenance| {
        let response = server.run_batch(&[CompileJob::named("upstr")], &dbs).remove(0);
        match response.outcome {
            JobOutcome::Done(done) => {
                assert_eq!(done.provenance, want);
                assert_eq!(done.result.unwrap().function, cf.function);
            }
            other => panic!("upstr not resolved: {other:?}"),
        }
    };
    request(Provenance::Compiled);
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = json::parse(&text).unwrap();
    assert_eq!(parsed.get("format").and_then(Json::as_u64), Some(6));
    assert_eq!(parsed.render_compact(), text, "the store files the compact rendering");
    request(Provenance::Cache);
    let _ = std::fs::remove_dir_all(&root);
}

/// Deterministic, semantically-targeted corruptions: every one must be
/// *evicted* by the verified load, and the subsequent pass must recompile
/// and re-store a good artifact.
#[test]
fn targeted_corruption_evicts_and_recompiles() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let entry = suite().into_iter().find(|e| e.info.name == "upstr").unwrap();
    let model = (entry.model)();
    let spec = (entry.spec)();
    let cf = (entry.compiled)().unwrap();

    type Corruption = Box<dyn Fn(&str) -> String>;
    let corruptions: Vec<(&str, Corruption)> = vec![
        ("truncated", Box::new(|t: &str| t[..t.len() / 2].to_string())),
        ("not json", Box::new(|_t: &str| "][".to_string())),
        (
            "counter tampered",
            Box::new(|t: &str| t.replacen("\"node_count\":", "\"node_count\":1", 1)),
        ),
        (
            "lemma renamed",
            Box::new(|t: &str| t.replace("compile_array_map", "compile_array_mop")),
        ),
        (
            "format bumped",
            Box::new(|t: &str| {
                let current = format!("\"format\":{}", rupicola::service::FORMAT_VERSION);
                t.replacen(&current, "\"format\":999", 1)
            }),
        ),
    ];
    let root = scratch("targeted-corruption");
    // This test evicts the same key once per corruption; quarantine (which
    // has its own test) would kick in after the third and refuse the heal.
    let store =
        ShardedStore::open_with(&root, 1, |_| Box::new(FsBackend), |s| s.with_quarantine_after(0))
            .unwrap();
    let key = store.key_for(&model, &spec, &dbs, &limits);
    let path = store.put(key, &cf).unwrap();
    let pristine = std::fs::read_to_string(&path).unwrap();
    for (what, corrupt) in corruptions {
        let bad = corrupt(&pristine);
        assert_ne!(bad, pristine, "{what}: corruption was a no-op");
        std::fs::write(&path, bad).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Evicted { .. } => {}
            other => panic!("{what}: expected eviction, got {other:?}"),
        }
        assert!(!path.exists(), "{what}: eviction must delete the artifact");
        // Recompile-and-restore: a fresh compile and put heal the store.
        let healed = rupicola::core::compile(&model, &spec, &dbs).unwrap();
        store.put(key, &healed).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Hit(loaded) => assert_eq!(loaded.cf.function, cf.function),
            other => panic!("{what}: healed store should hit, got {other:?}"),
        }
        std::fs::write(&path, &pristine).unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Randomized single-bit flips over the stored artifact. The property is
/// the soundness contract, not a fixed outcome: a flip either gets the
/// artifact evicted (and a recompile serves the request), or the load
/// still hits — in which case the store has already re-checked the
/// artifact and cross-checked its model and spec against the request, so
/// what was served is a *certified* answer to the *right* request.
#[test]
fn random_bit_flips_never_yield_an_unverified_artifact() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let entry = suite().into_iter().find(|e| e.info.name == "fasta").unwrap();
    let model = (entry.model)();
    let spec = (entry.spec)();
    let cf = (entry.compiled)().unwrap();
    let root = scratch("bitflip");
    // Full certification strength on load: the property below re-checks
    // every served artifact under `CheckConfig::default()`, so the store
    // must verify at the same strength (the fast 4-vector default could
    // legitimately serve a flip that only vector 11 distinguishes).
    // Quarantine off: 48 flips against one key would trip it long before
    // the property finishes exercising the evict-or-certify contract.
    let store = ShardedStore::open_with(
        &root,
        1,
        |_| Box::new(FsBackend),
        |s| s.with_check_config(CheckConfig::default()).with_quarantine_after(0),
    )
    .unwrap();
    let key = store.key_for(&model, &spec, &dbs, &limits);
    let path = store.put(key, &cf).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    check("bit flips are evicted or re-verified", 48, |rng| {
        let mut bytes = pristine.clone();
        let at = rng.range(0, bytes.len() - 1);
        let bit = 1u8 << rng.below(8);
        bytes[at] ^= bit;
        std::fs::write(&path, &bytes).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Evicted { .. } => {
                // The poisoned file is gone; a fresh put heals the slot.
                assert!(!path.exists());
                store.put(key, &cf).unwrap();
            }
            LoadOutcome::Hit(loaded) => {
                // Flip was immaterial (e.g. inside a focus label): the
                // served artifact still passed the checker on this load,
                // and must be for the requested inputs.
                assert_eq!(loaded.cf.model, model);
                assert_eq!(loaded.cf.spec, spec);
                check_with(&loaded.cf, &dbs, &CheckConfig::default())
                    .expect("served artifact must certify under the full config");
                std::fs::write(&path, &pristine).unwrap();
            }
            LoadOutcome::Miss => panic!("artifact file exists; miss is impossible"),
            LoadOutcome::Unavailable { reason } => {
                panic!("healthy filesystem, no faults injected: {reason}")
            }
        }
    });
    let _ = std::fs::remove_dir_all(&root);
}

/// A key's cached certificate vouches only for the witness it was
/// checked against. After the entry exists, an envelope filed under the
/// key with a *valid* digest but a different witness — one side
/// condition stripped of the hypotheses it needs — is evicted by a
/// freshly built structural check; and a valid-digest envelope with the
/// cached witness but a miscomputing optimized body is evicted by
/// re-validation against the cached certificate.
#[test]
fn a_cached_certificate_never_vouches_for_another_witness() {
    use rupicola::core::check::{check_with, CheckError};
    use rupicola::opt::mutants::PassMutant;
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let model = rupicola::programs::utf8::model();
    let spec = rupicola::programs::utf8::spec();
    let cf = rupicola::programs::utf8::compiled().unwrap();
    let load_check = CheckConfig { vectors: LOAD_CHECK_VECTORS, ..CheckConfig::default() };
    // The first side condition whose hypotheses the checker needs.
    let forged = (0..)
        .map_while(|n| WitnessEdit::DropHyps(n).apply(&cf))
        .find(|edited| {
            matches!(check_with(edited, &dbs, &load_check), Err(CheckError::SideCondition { .. }))
        })
        .expect("utf8 has a side condition that needs its hypotheses");
    assert_ne!(forged.derivation, cf.derivation);

    let root = scratch("cert-reuse");
    let store =
        ShardedStore::open_with(&root, 1, |_| Box::new(FsBackend), |s| s.with_quarantine_after(0))
            .unwrap();
    let key = store.key_for(&model, &spec, &dbs, &limits);
    let hit = |what: &str| match store.load_verified(&model, &spec, &dbs, &limits) {
        LoadOutcome::Hit(loaded) => {
            assert_eq!(loaded.cf.function, cf.function, "{what}");
            assert_eq!(loaded.cf.derivation, cf.derivation, "{what}");
        }
        other => panic!("{what}: expected a hit, got {other:?}"),
    };
    let evicted = |what: &str| match store.load_verified(&model, &spec, &dbs, &limits) {
        LoadOutcome::Evicted { reason } => reason,
        other => panic!("{what}: expected an eviction, got {other:?}"),
    };

    // The first hit builds the key's entry; the second reuses it.
    store.put(key, &cf).unwrap();
    hit("first load");
    hit("second load");
    assert_eq!(store.stats().cert_reuses, 1);

    // A different witness under the same key, digest and all.
    store.put(key, &forged).unwrap();
    let reason = evicted("forged witness");
    assert!(reason.contains("re-check failed: side condition"), "{reason}");
    assert_eq!(store.stats().cert_reuses, 1, "a different witness must not reuse the entry");

    // The eviction dropped the entry: the next hit builds a fresh one.
    store.put(key, &cf).unwrap();
    hit("healed load");
    assert_eq!(store.stats().cert_reuses, 1);
    hit("healed reuse");
    assert_eq!(store.stats().cert_reuses, 2);

    // The cached witness with a miscomputing optimized body: the entry
    // is reused, and the body fails re-validation against it.
    let broken = CompiledFunction {
        optimized: Some(PassMutant::DropLiveStore.apply(&cf.function).expect("applicable")),
        ..cf.clone()
    };
    store.put(key, &broken).unwrap();
    let reason = evicted("miscomputing optimized body");
    assert!(reason.contains("optimized body failed re-validation"), "{reason}");
    assert_eq!(store.stats().cert_reuses, 3);
    assert_eq!(store.stats().to_json().get("cert_reuses").and_then(json::Json::as_u64), Some(3));
    let _ = std::fs::remove_dir_all(&root);
}

/// An envelope's artifact text and the offset it starts at (a plain
/// store's envelope ends with its artifact).
fn artifact_of(envelope: &str) -> (usize, &str) {
    let at = envelope.find("\"artifact\":").expect("an artifact") + "\"artifact\":".len();
    (at, &envelope[at..envelope.len() - 1])
}

/// A fresh decode of the artifact filed at `path`, if it decodes.
fn decode_file(path: &std::path::Path) -> Option<CompiledFunction> {
    let envelope = std::fs::read_to_string(path).unwrap();
    read_text(artifact_of(&envelope).1, |r| read_compiled_function(r, None)).ok().map(|(cf, _)| cf)
}

/// For every suite program, a hit that reuses its key's certificate
/// serves exactly what a fresh decode of the file reads, and
/// `cert_reuses` rises on exactly the loads whose certified text
/// (`function` through `spec`) is the text the key's entry was built
/// from. A one-byte flip inside that text, filed under a digest of its
/// own bytes, never reuses the entry, whether the load then hits or
/// evicts.
#[test]
fn a_reusing_hit_serves_a_fresh_decode_and_a_flipped_certified_byte_never_reuses() {
    const FLIPS: usize = 5;
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let root = scratch("byte-reuse");
    let store =
        ShardedStore::open_with(&root, 1, |_| Box::new(FsBackend), |s| s.with_quarantine_after(0))
            .unwrap();
    for entry in suite() {
        let name = entry.info.name;
        let (model, spec) = ((entry.model)(), (entry.spec)());
        let cf = (entry.compiled)().unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        let key = store.key_for(&model, &spec, &dbs, &(entry.limits)(limits));
        // Loads the file at `path`: checks that it reused the key's entry
        // exactly when `reuse`, and that a hit serves the file's fresh
        // decode. Returns whether it hit.
        let load = |what: &str, reuse: bool, path: &std::path::Path| {
            let fresh = decode_file(path);
            let before = store.stats().cert_reuses;
            let outcome = store.load_verified(&model, &spec, &dbs, &(entry.limits)(limits));
            assert_eq!(store.stats().cert_reuses - before, usize::from(reuse), "{name}: {what}");
            match outcome {
                LoadOutcome::Hit(loaded) => {
                    assert!(Some(loaded.cf) == fresh, "{name}: {what} serves another function");
                    true
                }
                LoadOutcome::Evicted { .. } => false,
                other => panic!("{name}: {what}: {other:?}"),
            }
        };
        let path = store.put(key, &cf).unwrap();
        assert!(load("first load", false, &path));
        assert!(load("second load", true, &path));
        assert!(load("third load", true, &path));
        let pristine = std::fs::read_to_string(&path).unwrap();
        let (at, artifact) = artifact_of(&pristine);
        let certified = 1..artifact.find(",\"optimized\":").expect("an optimized field");
        let digest = format!("\"digest\":\"{}\"", text_digest(artifact));
        for k in 0..FLIPS {
            let mut pos = at + certified.start + k * certified.len() / FLIPS;
            while !pristine.as_bytes()[pos].is_ascii() {
                pos += 1;
            }
            assert!(pos < at + certified.end, "{name}: flip {k} left the certified text");
            let mut bytes = pristine.clone().into_bytes();
            bytes[pos] ^= 0x01;
            let flipped = String::from_utf8(bytes).unwrap();
            let redigested = format!("\"digest\":\"{}\"", text_digest(artifact_of(&flipped).1));
            std::fs::write(&path, flipped.replacen(&digest, &redigested, 1)).unwrap();
            load(&format!("byte {pos} flipped"), false, &path);
            std::fs::write(&path, &pristine).unwrap();
            assert!(load(&format!("restored after byte {pos}"), false, &path));
            assert!(load(&format!("reused after byte {pos}"), true, &path));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Lint-on-load (`served`'s `SERVED_LINT=1`) re-runs the analysis lints
/// on every load. A clean suite artifact still hits. A valid-digest
/// envelope whose certified body reads an unassigned local on a branch
/// no input takes passes the checker's differential body phase, so only
/// the lints can see it: it evicts with lint-on-load on and is served
/// with it off.
#[test]
fn lint_on_load_evicts_a_lint_error_the_body_phase_cannot_see() {
    use rupicola::bedrock::{BExpr, BinOp, Cmd};
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let model = rupicola::programs::fnv1a::model();
    let spec = rupicola::programs::fnv1a::spec();
    let cf = rupicola::programs::fnv1a::compiled().unwrap();
    let load_check = CheckConfig { vectors: LOAD_CHECK_VECTORS, ..CheckConfig::default() };
    // `if (a ^ a) { a = never_assigned }` ahead of the certified body.
    let arg = BExpr::var(cf.function.args[0].clone());
    let dead = Cmd::if_(
        BExpr::op(BinOp::Xor, arg.clone(), arg),
        Cmd::set(cf.function.args[0].clone(), BExpr::var("never_assigned")),
        Cmd::Skip,
    );
    let mut linted = cf.clone();
    linted.function.body = Cmd::seq([dead, cf.function.body.clone()]);
    check_with(&linted, &dbs, &load_check).expect("the checker cannot see a dead read");

    for lint_on_load in [true, false] {
        let root = scratch(&format!("lint-on-load-{lint_on_load}"));
        let store = ShardedStore::open_with(
            &root,
            1,
            |_| Box::new(FsBackend),
            |s| s.with_lint_on_load(lint_on_load),
        )
        .unwrap();
        let key = store.key_for(&model, &spec, &dbs, &limits);
        store.put(key, &cf).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Hit(loaded) => assert_eq!(loaded.cf.function, cf.function),
            other => panic!("clean artifact, lint-on-load {lint_on_load}: {other:?}"),
        }
        store.put(key, &linted).unwrap();
        match (lint_on_load, store.load_verified(&model, &spec, &dbs, &limits)) {
            (true, LoadOutcome::Evicted { reason }) => {
                assert!(reason.starts_with("lint-on-load failed: error:"), "{reason}");
                assert!(reason.contains("`never_assigned`"), "{reason}");
            }
            (false, LoadOutcome::Hit(loaded)) => assert_eq!(loaded.cf.function, linted.function),
            (_, other) => panic!("linted artifact, lint-on-load {lint_on_load}: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Same request in a *different process* produces the same key (the store
/// is shareable across runs — the whole point of persistence). The child
/// re-executes this test binary with `RUPICOLA_FP_CHILD=1`, which makes
/// this same test print its keys and exit; the parent diffs.
#[test]
fn fingerprints_stable_across_processes() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let mine: Vec<String> = suite()
        .iter()
        .map(|e| {
            format!(
                "{}={}",
                e.info.name,
                key(&(e.model)(), &(e.spec)(), &dbs, &limits).as_hex()
            )
        })
        .collect();
    if std::env::var_os("RUPICOLA_FP_CHILD").is_some() {
        for line in &mine {
            println!("FPLINE {line}");
        }
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args(["fingerprints_stable_across_processes", "--exact", "--nocapture"])
        .env("RUPICOLA_FP_CHILD", "1")
        .output()
        .expect("re-exec test binary");
    assert!(out.status.success(), "child failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The harness's `test <name> ... ` prefix shares a line with the first
    // FPLINE under --nocapture, so split on the marker rather than the prefix.
    let theirs: Vec<&str> =
        stdout.lines().filter_map(|l| l.split("FPLINE ").nth(1)).collect();
    assert_eq!(theirs.len(), 7, "child printed {stdout}");
    for (a, b) in mine.iter().zip(theirs) {
        assert_eq!(a, b, "fingerprint differs across processes");
    }
}

/// Changing the lemma set or the registration order changes the key;
/// identical rebuilds don't.
#[test]
fn fingerprints_track_hint_db_identity() {
    let limits = EngineLimits::default();
    let entry = suite().into_iter().find(|e| e.info.name == "m3s").unwrap();
    let model = (entry.model)();
    let spec = (entry.spec)();
    let base = key(&model, &spec, &standard_dbs(), &limits);

    // Identical rebuild: same key.
    assert_eq!(base, key(&model, &spec, &standard_dbs(), &limits));

    // One more lemma (same behavior class, appended): different key.
    let mut extra = standard_dbs();
    extra.register_expr(rupicola::ext::arith::ExprLit);
    assert_ne!(base, key(&model, &spec, &extra, &limits));

    // Same lemma set, different order: different key. The first-match
    // lemma loop makes order semantically relevant, so it must be part of
    // the identity.
    let mut reordered = standard_dbs();
    reordered.register_expr_front(rupicola::ext::arith::ExprLit);
    assert_ne!(
        key(&model, &spec, &extra, &limits),
        key(&model, &spec, &reordered, &limits)
    );
}

/// Every suite program's key under store defaults (full pipeline,
/// public policy, no RISC-V, default limits), pinned to the hex values
/// artifacts have been filed under since format version 6. Existing
/// stores and any replay of the store's key derivation depend on these:
/// a change here orphans every stored artifact and must come with a
/// `FORMAT_VERSION` bump.
#[test]
fn suite_keys_are_pinned() {
    let root = scratch("pinned-keys");
    let store = ShardedStore::open(&root, 1).unwrap();
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let keys: Vec<(&str, String)> = suite()
        .iter()
        .map(|e| (e.info.name, store.key_for(&(e.model)(), &(e.spec)(), &dbs, &limits).as_hex()))
        .collect();
    let keys: Vec<(&str, &str)> = keys.iter().map(|(n, k)| (*n, k.as_str())).collect();
    let pinned = [
        ("fnv1a", "2fb3e36d0ba3f716"),
        ("utf8", "c0fb6644cc8882ed"),
        ("upstr", "3d9754cbcb914642"),
        ("m3s", "55b6389d6abe63b4"),
        ("ip", "3adae59bcd2328aa"),
        ("fasta", "0c8a2e180da0bd1a"),
        ("crc32", "ee642f7b07bc2e3c"),
    ];
    assert_eq!(keys, pinned);
    let _ = std::fs::remove_dir_all(&root);
}

/// The acceptance-criterion test: after a cold pass, a warm suite pass
/// serves all 7 programs from the store (zero engine derivations) with
/// every load re-checked, and the artifacts are bit-for-bit the cold ones.
#[test]
fn warm_suite_pass_performs_zero_derivations() {
    let root = scratch("warm-zero");
    let server = serial_server(&root);
    let dbs = standard_dbs();

    let cold = compile_suite_cached(&server, &dbs);
    assert!(cold.iter().all(|r| r.provenance == Provenance::Compiled));
    let warm = compile_suite_cached(&server, &dbs);
    assert_eq!(warm.len(), 7);
    // Every program came from the store — the engine compiled nothing.
    assert!(
        warm.iter().all(|r| r.provenance == Provenance::Cache),
        "warm pass recompiled something: {warm:?}"
    );
    let stats = server.store().stats();
    assert_eq!(stats.hits, 7);
    assert_eq!(stats.evictions, 0);
    assert!(stats.verify_nanos > 0, "loads must actually re-verify");
    for (c, w) in cold.iter().zip(warm.iter()) {
        let (c, w) = (c.result.as_ref().unwrap(), w.result.as_ref().unwrap());
        assert_eq!(c.function, w.function);
        assert_eq!(c.derivation, w.derivation);
        assert_eq!(c.stats, w.stats, "build-time stats must survive the cache");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Protocol smoke over the JSON-lines front-end: a mixed batch against a
/// warm 1-shard, 1-worker server reports cached results and coherent
/// counters.
#[test]
fn batch_protocol_end_to_end() {
    let root = scratch("protocol");
    let server = serial_server(&root);
    let dbs = standard_dbs();
    // Warm the store.
    compile_suite_cached(&server, &dbs);

    let input = "{\"op\":\"compile\",\"program\":\"crc32\"}\n{\"op\":\"suite\"}\n{\"op\":\"stats\"}\n";
    let mut out = Vec::new();
    let n = rupicola::service::serve(input.as_bytes(), &mut out, &server, &dbs).unwrap();
    assert_eq!(n, 3);
    let lines: Vec<json::Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| json::parse(l).unwrap())
        .collect();
    assert_eq!(lines[0].get("program").and_then(json::Json::as_str), Some("crc32"));
    assert_eq!(lines[0].get("cached").and_then(json::Json::as_bool), Some(true));
    assert_eq!(lines[1].get("cached").and_then(json::Json::as_u64), Some(7));
    let cache = lines[2].get("cache").expect("stats payload");
    assert!(cache.get("hits").and_then(json::Json::as_u64).unwrap() >= 7);
    assert_eq!(cache.get("evictions").and_then(json::Json::as_u64), Some(0));
    let _ = std::fs::remove_dir_all(&root);
}

/// The digest a load compares — FNV-1a over the artifact's stored bytes —
/// equals the content digest the store files, for every perf-suite
/// artifact, and the stored envelope carries exactly those bytes.
#[test]
fn the_stored_bytes_digest_equals_the_content_digest_for_the_perf_suite() {
    let root = scratch("text-digest");
    let store = ShardedStore::open(&root, 1).unwrap();
    let dbs = standard_dbs();
    let entries = perf_suite();
    assert_eq!(entries.len(), 11);
    for entry in entries {
        on_deep_stack(|| {
            let cf = (entry.compiled)()
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.info.name));
            let encoded = encode_compiled_function(&cf);
            let compact = encoded.render_compact();
            assert_eq!(text_digest(&compact), content_digest(&encoded), "{}", entry.info.name);
            let limits = (entry.limits)(EngineLimits::default());
            let key = store.key_for(&(entry.model)(), &(entry.spec)(), &dbs, &limits);
            let text = std::fs::read_to_string(store.put(key, &cf).unwrap()).unwrap();
            let filed = format!("\"digest\":\"{}\",\"artifact\":{compact}}}", text_digest(&compact));
            assert!(text.ends_with(&filed), "{}: the envelope files other bytes", entry.info.name);
        });
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A v6 envelope re-indented by hand decodes as well as the compact one,
/// but its artifact's bytes are no longer the ones the digest covers: it
/// evicts naming the digest, and the next request files the compact
/// envelope again, which the request after that hits.
#[test]
fn a_reindented_envelope_evicts_and_the_next_request_files_a_compact_one() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let model = rupicola::programs::upstr::model();
    let spec = rupicola::programs::upstr::spec();
    let root = scratch("reindented");
    let server = serial_server(&root);
    let store = server.store();
    let key = store.key_for(&model, &spec, &dbs, &limits);
    let path = store.shard(0).path_for("upstr", key);
    let request = |want: Provenance| {
        let response = server.run_batch(&[CompileJob::named("upstr")], &dbs).remove(0);
        match response.outcome {
            JobOutcome::Done(done) => assert_eq!(done.provenance, want),
            other => panic!("upstr not resolved: {other:?}"),
        }
    };
    request(Provenance::Compiled);
    let compact = std::fs::read_to_string(&path).unwrap();
    let indented = json::parse(&compact).unwrap().render();
    assert_ne!(indented, compact);
    std::fs::write(&path, &indented).unwrap();
    match store.load_verified(&model, &spec, &dbs, &limits) {
        LoadOutcome::Evicted { reason } => assert!(reason.contains("digest"), "{reason}"),
        other => panic!("a re-indented envelope must evict, got {other:?}"),
    }
    assert!(!path.exists());
    request(Provenance::Compiled);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), compact);
    request(Provenance::Cache);
    let _ = std::fs::remove_dir_all(&root);
}

/// Files `artifact` — arbitrary text — for `upstr` in a 1-shard store,
/// in a v6 envelope whose digest covers exactly that text, and returns
/// the eviction reason of the next load.
fn evict_text_artifact(tag: &str, artifact: &str) -> String {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let model = rupicola::programs::upstr::model();
    let spec = rupicola::programs::upstr::spec();
    let root = scratch(tag);
    let store = ShardedStore::open(&root, 1).unwrap();
    let key = store.key_for(&model, &spec, &dbs, &limits);
    let path = store.shard(0).path_for("upstr", key);
    let envelope = format!(
        "{{\"format\":{},\"key\":\"{}\",\"program\":\"upstr\",\"digest\":\"{}\",\"artifact\":{artifact}}}",
        rupicola::service::FORMAT_VERSION,
        key.as_hex(),
        text_digest(artifact),
    );
    std::fs::write(&path, envelope).unwrap();
    let reason = match store.load_verified(&model, &spec, &dbs, &limits) {
        LoadOutcome::Evicted { reason } => reason,
        other => panic!("{tag}: expected an eviction, got {other:?}"),
    };
    assert!(!path.exists(), "{tag}: eviction must delete the artifact");
    let _ = std::fs::remove_dir_all(&root);
    reason
}

/// Each artifact has one accepted structure: the same fields in another
/// order evict, even under a digest computed over their own bytes.
#[test]
fn an_artifact_with_reordered_fields_evicts_under_its_own_digest() {
    use json::Json;
    let cf = rupicola::programs::upstr::compiled().unwrap();
    let Json::Obj(mut fields) = encode_compiled_function(&cf) else {
        panic!("artifact is an object")
    };
    let model = fields.iter().position(|(k, _)| k == "model").unwrap();
    let spec = fields.iter().position(|(k, _)| k == "spec").unwrap();
    fields.swap(model, spec);
    let reason = evict_text_artifact("reordered", &Json::Obj(fields).render_compact());
    assert!(reason.starts_with("decode:") && reason.contains("expected key `model`"), "{reason}");
}

/// A 100,000-deep expression under a valid digest evicts at the reader's
/// nesting limit instead of overflowing the decoder's stack.
#[test]
fn a_depth_bomb_under_a_valid_digest_evicts() {
    use json::Json;
    let cf = rupicola::programs::upstr::compiled().unwrap();
    let Json::Obj(mut fields) = encode_compiled_function(&cf) else {
        panic!("artifact is an object")
    };
    let (_, model) = fields.iter_mut().find(|(k, _)| k == "model").unwrap();
    let Json::Obj(model) = model else { panic!("model is an object") };
    let (_, body) = model.iter_mut().find(|(k, _)| k == "body").unwrap();
    *body = Json::str("BOMB");
    let depth = 100_000;
    let bomb = "[\"copy\",".repeat(depth) + "[\"var\",\"s\"]" + &"]".repeat(depth);
    let artifact = Json::Obj(fields).render_compact().replacen("\"BOMB\"", &bomb, 1);
    let reason = evict_text_artifact("depth-bomb", &artifact);
    assert!(reason.contains("nesting too deep"), "{reason}");
}
