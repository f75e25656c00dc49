//! Integration battery for RISC-V machine artifacts in the service store:
//! an rv-keyed store's put lowers and validates the machine artifact
//! itself and files it in the envelope under the rv-pipeline fingerprint,
//! every load differentially re-validates it and serves it beside the
//! certificate, a corrupted machine artifact is evicted, and a server
//! over an rv-keyed store caches. Each store check runs at 1 shard (the
//! root layout) and at 8.

use rupicola::core::check::CheckConfig;
use rupicola::core::EngineLimits;
use rupicola::ext::standard_dbs;
use rupicola::programs::suite;
use rupicola::service::store::LoadOutcome;
use rupicola::service::{
    shard_root, CompileJob, FsBackend, JobOutcome, Provenance, Server, ShardedStore, TenantTable,
};
use rupicola::{lower_validated, RvPipelineConfig};
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rupicola-rvstore-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn upstr() -> (rupicola::lang::Model, rupicola::core::fnspec::FnSpec, rupicola::core::CompiledFunction)
{
    let entry = suite().into_iter().find(|e| e.info.name == "upstr").unwrap();
    ((entry.model)(), (entry.spec)(), (entry.compiled)().unwrap())
}

/// A store keyed under the full RISC-V lowering pipeline.
fn rv_store(root: &Path, shards: usize) -> ShardedStore {
    ShardedStore::open_with(root, shards, |_| Box::new(FsBackend), |s| {
        s.with_rv_pipeline(RvPipelineConfig::full())
    })
    .unwrap()
}

fn round_trip(shards: usize) {
    let root = scratch(&format!("roundtrip-{shards}"));
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let (model, spec, cf) = upstr();
    let (art, _) =
        lower_validated(&cf, &RvPipelineConfig::full(), &CheckConfig::default()).unwrap();

    let store = rv_store(&root, shards);
    let key = store.key_for(&model, &spec, &dbs, &limits);
    // The rv pipeline is part of the key: a plain store disagrees.
    let plain = ShardedStore::open_degraded(scratch("plainkey"), shards);
    assert_ne!(key, plain.key_for(&model, &spec, &dbs, &limits));

    // The put lowers and files the machine artifact the key promises.
    let path = store.put(key, &cf).unwrap();
    assert_eq!(path.parent().unwrap(), shard_root(&root, store.shard_of(key), shards));
    match store.load_verified(&model, &spec, &dbs, &limits) {
        LoadOutcome::Hit(loaded) => {
            assert_eq!(loaded.cf.function, cf.function);
            assert_eq!(
                loaded.rv.as_ref(),
                Some(&art),
                "machine artifact must round-trip bit-for-bit"
            );
        }
        other => panic!("{shards} shard(s): expected hit, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn rv_artifact_round_trips_through_the_store() {
    round_trip(1);
}

#[test]
fn rv_artifact_round_trips_through_the_sharded_store() {
    round_trip(8);
}

fn evictions(shards: usize) {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let (model, spec, cf) = upstr();

    // (corruption name, raw-text edit applied to the stored envelope)
    type Edit = Box<dyn Fn(&str) -> String>;
    let corruptions: Vec<(&str, Edit)> = vec![
        // A wrong-width load in the machine code: decodes fine, fails the
        // differential re-validation.
        ("widened load", Box::new(|t: &str| t.replacen("lbu", "lhu", 1))),
        // Machine code from some *other* pipeline configuration.
        (
            "pipeline identity tampered",
            Box::new(|t: &str| {
                t.replacen(&RvPipelineConfig::full().identity_string(), "lower", 1)
            }),
        ),
        // The rv block dropped wholesale — an rv-keyed store must not
        // serve a hit without its machine artifact.
        ("rv block dropped", Box::new(|t: &str| t.replacen("\"rv\"", "\"xx\"", 1))),
    ];
    for (tag, edit) in corruptions {
        let root = scratch(&format!("evict-{shards}-{}", tag.replace(' ', "-")));
        let store = rv_store(&root, shards);
        let key = store.key_for(&model, &spec, &dbs, &limits);
        let path = store.put(key, &cf).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let corrupted = edit(&text);
        assert_ne!(text, corrupted, "{tag}: the edit must change the envelope");
        fs::write(&path, corrupted).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Evicted { reason } => {
                assert!(!path.exists(), "{tag}: evicted artifact must be deleted ({reason})");
            }
            other => panic!("{tag} ({shards} shard(s)): expected eviction, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn corrupted_rv_artifact_is_evicted() {
    for shards in [1, 8] {
        evictions(shards);
    }
}

/// A server over an rv-keyed store files what it compiles: the second
/// identical batch is a verified hit, and the hit's machine artifact is
/// the one a fresh validated lowering of the served certificate yields.
#[test]
fn an_rv_keyed_server_caches() {
    let root = scratch("server");
    let server = Server::new(rv_store(&root, 1), TenantTable::default(), 1);
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let jobs = [CompileJob::named("upstr")];
    let run = || match server.run_batch(&jobs, &dbs).remove(0).outcome {
        JobOutcome::Done(done) => *done,
        other => panic!("upstr not resolved: {other:?}"),
    };
    assert_eq!(run().provenance, Provenance::Compiled);
    let warm = run();
    assert_eq!(warm.provenance, Provenance::Cache);
    let stats = server.store().stats();
    assert_eq!((stats.stores, stats.hits, stats.write_failures), (1, 1, 0));

    let served = warm.result.unwrap();
    let (art, _) =
        lower_validated(&served, &RvPipelineConfig::full(), &CheckConfig::default()).unwrap();
    let (model, spec, _) = upstr();
    match server.store().load_verified(&model, &spec, &dbs, &limits) {
        LoadOutcome::Hit(hit) => {
            assert_eq!(hit.cf.function, served.function);
            assert_eq!(hit.rv.as_ref(), Some(&art));
        }
        other => panic!("expected hit, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}
