//! `served` — the multi-tenant compilation service front-end.
//!
//! Reads JSON-lines requests from stdin until EOF, answers on stdout
//! through the one request path (`rupicola_service::serve` over a
//! `Server`; protocol in `rupicola_service::batch`):
//!
//! ```text
//! $ printf '%s\n' '{"op":"ping"}' '{"op":"suite"}' '{"op":"stats"}' | served
//! $ printf '%s\n' '{"op":"compile","program":"fnv1a","tenant":"acme"}' | served
//! ```
//!
//! Store root: `$SERVICE_STORE` if set (must be non-empty valid Unicode;
//! anything else is a hard error, not a silent fallback), else
//! `results/store`. Knobs (all *set but invalid* values are fatal):
//!
//! | variable        | default              | meaning |
//! |-----------------|----------------------|---------|
//! | `SERVED_SHARDS` | 1                    | store stripes (1 = plain single-store layout) |
//! | `SERVED_WORKERS`| available parallelism| scheduler threads (1 = serial, in request order) |
//! | `SERVED_LINT`   | off                  | run analysis lints on every cache load |
//!
//! # Failure behavior
//!
//! *Configuration* errors are loud and fatal; *environmental* failures
//! degrade. If the store root cannot be opened (permissions, read-only
//! filesystem, …) `served` warns on stderr and answers the whole batch in
//! **degraded** compile-without-cache mode — every response then carries
//! `"degraded":true` — instead of refusing service. A shard that fails
//! *during* the batch degrades per-shard the same way (DESIGN.md §12, §14).
//!
//! Cross-process serialization is **per-shard**: the batch's requests are
//! scanned up front, their fingerprints routed, and only the *touched*
//! shards' advisory locks (`<shard>/.lock`) are acquired — in ascending
//! shard order, so concurrent `served` processes cannot deadlock, and
//! processes whose batches touch disjoint shards run fully in parallel
//! instead of serializing on one root-wide lock. Locks held by dead
//! processes are broken automatically.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | batch answered (possibly with in-band `{"ok":false}` lines, possibly degraded) |
//! | 2    | unusable configuration (an env knob set but invalid), a live lock holder kept a touched shard busy past the wait budget, or stdin/stdout I/O failed |
//!
//! Per-request failures (unknown program, failed compile, expired
//! deadline, quota rejection, malformed line) are never exit codes: they
//! are `{"ok":false}` response lines, so one bad request cannot take down
//! a batch.

use std::collections::BTreeSet;
use std::io::{Read as _, Write as _};
use std::time::Duration;

use rupicola_core::EngineLimits;
use rupicola_ext::standard_dbs;
use rupicola_programs::parallel::default_workers;
use rupicola_programs::suite;
use rupicola_service::{env, parse_request, serve, Request, Server, ShardedStore, TenantTable};

/// How long to wait for another `served` process to release a touched
/// shard.
const LOCK_WAIT: Duration = Duration::from_secs(30);

/// The shards this batch's compile work routes to: parse every request,
/// fingerprint every named program (a `suite` request names them all),
/// map keys to stripes. Malformed lines and unknown programs compile
/// nothing, so they touch nothing.
fn touched_shards(
    input: &str,
    store: &ShardedStore,
    dbs: &rupicola_core::HintDbs,
) -> BTreeSet<usize> {
    let all = suite();
    let limits = EngineLimits::default();
    let mut programs: BTreeSet<&str> = BTreeSet::new();
    for line in input.lines().filter(|l| !l.trim().is_empty()) {
        match parse_request(line) {
            Ok(Request::Compile { program, .. }) => {
                if let Some(entry) = all.iter().find(|e| e.info.name == program) {
                    programs.insert(entry.info.name);
                }
            }
            Ok(Request::Suite) => programs.extend(all.iter().map(|e| e.info.name)),
            Ok(Request::Ping | Request::Stats) | Err(_) => {}
        }
    }
    programs
        .into_iter()
        .filter_map(|name| all.iter().find(|e| e.info.name == name))
        .map(|entry| {
            // The key deliberately ignores `max_wall_ms`, so deadline'd
            // requests route identically; tenant limit overrides would
            // shift the key, but `served` runs every tenant under the
            // default policy.
            let key = store.key_for(&(entry.model)(), &(entry.spec)(), dbs, &limits);
            store.shard_of(key)
        })
        .collect()
}

fn main() {
    let result = (|| -> Result<usize, String> {
        // Configuration errors (a *set but invalid* env var) stay fatal:
        // silently proceeding would run a batch the operator did not ask
        // for. Environmental errors below degrade instead.
        let lint = env::flag("SERVED_LINT")?;
        let nshards: usize = env::parsed_or("SERVED_SHARDS", 1)?;
        let workers: usize = env::parsed_or("SERVED_WORKERS", default_workers())?;
        if nshards == 0 || workers == 0 {
            return Err("SERVED_SHARDS and SERVED_WORKERS must be >= 1".to_string());
        }
        let root = rupicola_service::store_root_from_env()?;
        let dbs = standard_dbs();

        // The scheduler interleaves reads with compiles, so the
        // whole batch is buffered up front (it is line-oriented and small
        // next to the work it names) — which also lets the shard locks be
        // scoped to exactly the stripes the batch touches.
        let mut input = String::new();
        std::io::stdin()
            .read_to_string(&mut input)
            .map_err(|e| format!("I/O error reading stdin: {e}"))?;

        let store = match ShardedStore::open_with(
            &root,
            nshards,
            |_| Box::new(rupicola_service::FsBackend),
            |s| s.with_lint_on_load(lint),
        ) {
            Ok(store) => store,
            Err(e) => {
                eprintln!(
                    "served: warning: {e}; degrading to compile-without-cache for this batch"
                );
                ShardedStore::open_degraded(&root, nshards)
            }
        };
        // Serialize against other processes on the touched stripes only.
        // A dead holder's lock is broken automatically; a live one that
        // outlasts the wait budget is a configuration problem, not
        // something to degrade around (two unserialized writers on one
        // shard is what the lock prevents). A degraded store writes
        // nothing, so it locks nothing.
        let _locks = if store.all_degraded() {
            Vec::new()
        } else {
            store.lock_shards(touched_shards(&input, &store, &dbs), LOCK_WAIT)?
        };

        let server = Server::new(store, TenantTable::default(), workers);
        let stdout = std::io::stdout();
        let n = serve(input.as_bytes(), stdout.lock(), &server, &dbs)
            .map_err(|e| format!("I/O error: {e}"))?;
        let stats = server.store().stats();
        eprintln!(
            "served: {n} request(s) over {} shard(s) x {} worker(s){}; cache: {} hit(s), \
             {} miss(es), {} eviction(s), {} store(s), {} unavailable, {} retries",
            server.store().shard_count(),
            server.workers(),
            if server.store().any_degraded() { " [degraded]" } else { "" },
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.stores,
            stats.unavailable,
            stats.retries
        );
        Ok(n)
    })();
    if let Err(message) = result {
        let _ = writeln!(std::io::stderr(), "served: error: {message}");
        std::process::exit(2);
    }
}
