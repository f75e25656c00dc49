//! Property battery for the sharded store's routing function
//! (DESIGN.md §14): fingerprint→shard assignment is a pure, stable,
//! uniform function of the key prefix, and the 1-shard configuration
//! keeps the on-disk format every store has written since before
//! sharding — envelope paths and bytes are pinned, the regression anchor
//! that keeps every stored artifact valid.

use rupicola::core::EngineLimits;
use rupicola::ext::standard_dbs;
use rupicola::programs::{fnv1a, suite};
use rupicola::service::fingerprint::Fingerprint;
use rupicola::service::store::LoadOutcome;
use rupicola::service::{shard_of_key, shard_root, ShardedStore};
use rupicola_minicheck::{check, Rng};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("rupicola-routing-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Routing is a pure function of the key: stable across calls (and hence
/// across runs — it reads no ambient state), in range, dependent only on
/// the top 16 bits.
#[test]
fn routing_is_stable_pure_and_prefix_determined() {
    check("routing stable and prefix-determined", 300, |rng: &mut Rng| {
        let key = Fingerprint(rng.next_u64());
        let nshards = (rng.below(64) + 1) as usize;
        let shard = shard_of_key(key, nshards);
        assert!(shard < nshards);
        assert_eq!(shard, shard_of_key(key, nshards), "same key, same shard");
        // Only the prefix matters: scrambling the low 48 bits never moves
        // the key.
        let scrambled = Fingerprint((key.0 & 0xffff_0000_0000_0000) | (rng.next_u64() >> 16));
        assert_eq!(shard, shard_of_key(scrambled, nshards));
        // And 1 shard maps everything to 0 (the plain-store layout).
        assert_eq!(shard_of_key(key, 1), 0);
    });
}

/// Assignment survives store open/close: an artifact stored through one
/// `ShardedStore` is found by a *fresh* `ShardedStore` over the same root
/// (same shard directory), for every program.
#[test]
fn routing_survives_store_reopen() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let root = scratch("reopen");
    let keys: Vec<(Fingerprint, PathBuf)> = {
        let store = ShardedStore::open(&root, 8).unwrap();
        suite()
            .iter()
            .map(|e| {
                let cf = (e.compiled)().unwrap();
                let key = store.key_for(&(e.model)(), &(e.spec)(), &dbs, &limits);
                let path = store.put(key, &cf).unwrap();
                (key, path)
            })
            .collect()
    }; // first store closed here
    let reopened = ShardedStore::open(&root, 8).unwrap();
    for (entry, (key, path)) in suite().iter().zip(&keys) {
        assert_eq!(
            reopened.key_for(&(entry.model)(), &(entry.spec)(), &dbs, &limits),
            *key,
            "{}: fingerprint stable across open/close",
            entry.info.name
        );
        let expected_dir = shard_root(&root, reopened.shard_of(*key), 8);
        assert_eq!(path.parent().unwrap(), expected_dir, "{}", entry.info.name);
        match reopened.load_verified(&(entry.model)(), &(entry.spec)(), &dbs, &limits) {
            LoadOutcome::Hit(_) => {}
            other => panic!("{}: expected hit after reopen, got {other:?}", entry.info.name),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Uniformity: across 1k random fingerprints, every shard's load is
/// within 2x of the uniform expectation, for several shard counts. (FNV
/// output bits are uniform; the router scales the top 16 bits, so the
/// bound holds with huge margin — the property pins against a future
/// router accidentally folding low-entropy bits.)
#[test]
fn routing_is_uniform_within_2x_over_1k_random_keys() {
    for nshards in [2usize, 4, 8, 16] {
        check(&format!("uniform over {nshards} shards"), 1, |rng: &mut Rng| {
            let mut counts = vec![0usize; nshards];
            for _ in 0..1000 {
                counts[shard_of_key(Fingerprint(rng.next_u64()), nshards)] += 1;
            }
            let expected = 1000 / nshards;
            for (shard, &n) in counts.iter().enumerate() {
                assert!(
                    n <= 2 * expected && n >= expected / 2,
                    "shard {shard}/{nshards}: {n} keys vs uniform {expected} (2x bound)"
                );
            }
        });
    }
}

/// The 1-shard layout is the on-disk format every store before sharding
/// wrote: each suite envelope lives at `<root>/<program>-<key>.json`, no
/// `shard-*` directory exists, a reopened store serves every artifact,
/// and the envelope bytes hash (FNV-1a/64) to the values pinned below.
/// Envelopes carry no timings, so their bytes are deterministic; a change
/// here orphans every stored artifact and must come with a
/// `FORMAT_VERSION` bump.
#[test]
fn one_shard_envelopes_are_pinned_at_the_root() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let root = scratch("flat");
    let store = ShardedStore::open(&root, 1).unwrap();
    let mut hashes = Vec::new();
    for entry in suite() {
        let key = store.key_for(&(entry.model)(), &(entry.spec)(), &dbs, &limits);
        let path = store.put(key, &(entry.compiled)().unwrap()).unwrap();
        assert_eq!(path, root.join(format!("{}-{key}.json", entry.info.name)));
        let bytes = std::fs::read(&path).unwrap();
        hashes.push((entry.info.name, format!("{:016x}", fnv1a::reference(&bytes))));
    }
    assert!(
        !std::fs::read_dir(&root)
            .unwrap()
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().starts_with("shard-")),
        "1-shard config must not create shard directories"
    );
    let reopened = ShardedStore::open(&root, 1).unwrap();
    for entry in suite() {
        match reopened.load_verified(&(entry.model)(), &(entry.spec)(), &dbs, &limits) {
            LoadOutcome::Hit(_) => {}
            other => panic!("{}: expected hit after reopen, got {other:?}", entry.info.name),
        }
    }
    let hashes: Vec<(&str, &str)> = hashes.iter().map(|(n, h)| (*n, h.as_str())).collect();
    let pinned = [
        ("fnv1a", "1847f68e587bd091"),
        ("utf8", "76ebd5090f842fad"),
        ("upstr", "24bfb023118e9933"),
        ("m3s", "2755c01e9d8a912d"),
        ("ip", "807d75ebc10be3ab"),
        ("fasta", "270e01a40e04d3fd"),
        ("crc32", "38cd6992ecf98049"),
    ];
    assert_eq!(hashes, pinned);
    let _ = std::fs::remove_dir_all(&root);
}
