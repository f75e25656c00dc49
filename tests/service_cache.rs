//! Integration battery for the persistent compilation service: artifact
//! round-trips, fingerprint stability, verified-load soundness under
//! corruption, and the warm-cache zero-derivation guarantee.

use rupicola::core::check::{check_with, CheckConfig};
use rupicola::core::serial::{decode_compiled_function, encode_compiled_function};
use rupicola::core::EngineLimits;
use rupicola::ext::standard_dbs;
use rupicola::lang::json;
use rupicola::programs::suite;
use rupicola::core::fnspec::FnSpec;
use rupicola::core::HintDbs;
use rupicola::lang::Model;
use rupicola::service::fingerprint::{fingerprint, Fingerprint, FingerprintInputs};
use rupicola::service::store::LoadOutcome;
use rupicola::service::{
    compile_suite_cached, FsBackend, Provenance, Server, ShardedStore, TenantTable,
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

/// `deserialize(serialize(cf))` is structurally the identity for every
/// benchmark program, through the *rendered text* (not just the value
/// tree), for every field the artifact carries.
#[test]
fn serialization_round_trips_all_seven_programs() {
    for entry in suite() {
        let cf = (entry.compiled)()
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.info.name));
        let text = encode_compiled_function(&cf).render();
        let parsed = json::parse(&text)
            .unwrap_or_else(|e| panic!("{}: rendered JSON unparseable: {e}", entry.info.name));
        let back = decode_compiled_function(&parsed)
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", entry.info.name));
        assert_eq!(back.function, cf.function, "{}", entry.info.name);
        assert_eq!(back.linked, cf.linked, "{}", entry.info.name);
        assert_eq!(back.derivation, cf.derivation, "{}", entry.info.name);
        assert_eq!(back.model, cf.model, "{}", entry.info.name);
        assert_eq!(back.spec, cf.spec, "{}", entry.info.name);
        assert_eq!(back.stats, cf.stats, "{}", entry.info.name);
        // And the decoded artifact still certifies.
        check_with(&back, &standard_dbs(), &CheckConfig::default())
            .unwrap_or_else(|e| panic!("{}: round-tripped artifact fails check: {e}", entry.info.name));
    }
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
            Box::new(|t: &str| t.replacen("\"node_count\": ", "\"node_count\": 1", 1)),
        ),
        (
            "lemma renamed",
            Box::new(|t: &str| t.replace("compile_array_map", "compile_array_mop")),
        ),
        (
            "format bumped",
            Box::new(|t: &str| {
                let current = format!("\"format\": {}", rupicola::service::FORMAT_VERSION);
                t.replacen(&current, "\"format\": 999", 1)
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
/// artifacts have been filed under since format version 5. Existing
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
        ("fnv1a", "9f56fdd3d7a418dd"),
        ("utf8", "b475d9bf38997bef"),
        ("upstr", "93db81e5b524536f"),
        ("m3s", "efa3a08f55737b7d"),
        ("ip", "5027adb6a3d09c31"),
        ("fasta", "89b36f98599e87ef"),
        ("crc32", "d60cc0e64cbbf5d8"),
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
