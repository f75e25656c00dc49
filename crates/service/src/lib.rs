//! Persistent proof-carrying compilation service.
//!
//! Relational compilation is proof search: every run of the engine
//! produces not just Bedrock2 code but a [`Derivation`] witness that an
//! independent checker re-validates. That makes compilation *cacheable
//! without trust*: an artifact persisted to disk can be reloaded later —
//! by a different process, on a different day — and re-checked exactly as
//! a fresh compilation would be, so the cache can be wrong, stale, or
//! corrupted without ever being able to smuggle a bad artifact past the
//! caller. This crate builds that service layer out of these pieces:
//!
//! - [`fingerprint`](mod@fingerprint) — stable structural keys: FNV-1a/64 over the
//!   canonical encoding of one [`FingerprintInputs`] (model, spec,
//!   hint-db identity, engine limits, pipeline / CT-policy / RISC-V
//!   identities, format version). Same inputs ⇒ same key across
//!   processes; changing a lemma, the registration order, or the budgets
//!   changes the key.
//! - [`store`] — one stripe of the content-addressed on-disk store, with
//!   *verified loads*: decode, cross-check the stored inputs against the
//!   request, re-run the checker (optionally the analysis lints), and
//!   evict on any failure. Counters ([`CacheStats`]) account every hit,
//!   miss, eviction, store, and verify-nanosecond.
//! - [`shard`] — the lock-striped [`ShardedStore`], the only way to load
//!   or put (one [`ShardedStore::put`], one
//!   [`ShardedStore::load_verified`]): fingerprints route to independent
//!   store stripes, each behind a `RwLock` — loads verify under the read
//!   guard and settle under the write guard, so one stripe still verifies
//!   concurrently. One shard files artifacts at the store root.
//! - [`server`], [`tenant`] — the one request path (DESIGN.md §14): a
//!   [`Server`] admits each job against its tenant's quota, runs
//!   [`resolve_one`] (verified load → compile on miss → optimize → put)
//!   on a work-stealing pool, and settles in request order.
//!   `workers = 1` is the serial configuration, not a separate path.
//!   [`compile_suite_cached`] is one server batch over the suite; a fully
//!   warm run performs zero derivations. Verified loads are what make
//!   sharing safe: artifacts serve mutually untrusting tenants because
//!   every load re-certifies.
//! - [`batch`] — the JSON-lines front-end (`served` binary): queued
//!   `ping`/`compile`/`suite`/`stats` requests become one server batch,
//!   answered in request order.
//!
//! The service layer additionally assumes a *hostile environment*
//! (DESIGN.md §12): all store I/O goes through a [`backend::Backend`]
//! seam, transient faults are retried with bounded backoff ([`retry`]),
//! persistent outages flip the store into degraded compile-without-cache
//! mode, and a seeded fault-injecting [`chaos::ChaosBackend`] plus the
//! `chaosbench` binary exercise the whole stack under torn writes, bit
//! flips and I/O errors — gating that faults collapse to retries, misses,
//! evictions or degraded compiles, never wrong answers.
//!
//! [`Derivation`]: rupicola_core::derive::Derivation

pub mod backend;
pub mod batch;
pub mod chaos;
pub mod env;
pub mod fingerprint;
pub mod retry;
pub mod server;
pub mod shard;
pub mod store;
pub mod tenant;

pub use backend::{Backend, FsBackend};
pub use batch::{parse_request, serve, Request};
pub use chaos::{ChaosBackend, FaultCounts, FaultPlan};
pub use fingerprint::{fingerprint, Fingerprint, FingerprintInputs, FORMAT_VERSION};
pub use retry::{classify, with_retry, ErrorClass, RetryOutcome, RetryPolicy};
pub use server::{
    compile_suite_cached, resolve_one, suite_via_store, CachedResult, CompileJob, JobOutcome,
    JobResponse, Provenance, Server,
};
pub use shard::{shard_of_key, shard_root, ShardedStore, DEFAULT_SHARDS};
pub use store::{
    store_root_from_env, CacheStats, LoadOutcome, Store, StoreLock, Verified, DEFAULT_ROOT,
    STORE_ENV,
};
pub use tenant::{
    Admission, Rejection, TenantPolicy, TenantStats, TenantTable, DEFAULT_TENANT,
};
