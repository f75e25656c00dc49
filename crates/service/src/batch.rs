//! The JSON-lines front-end: the wire protocol of the `served` binary.
//!
//! Protocol (one JSON object per line, responses in request order). A
//! request line is RFC 8259 JSON, read by [`rupicola_lang::json::parse`]:
//! a raw control character inside a string, a leading zero or a number
//! like `1.` makes the line malformed.
//!
//! ```text
//! request  := {"op":"ping"}                         health check
//!           | {"op":"compile","program":<name>}     compile one suite program
//!           | {"op":"compile","program":<name>,
//!              "deadline_ms":<u64>,                 … under a wall-clock deadline
//!              "tenant":<id>}                       … billed to a tenant
//!           | {"op":"suite"}                        compile the whole suite
//!           | {"op":"stats"}                        report cache and tenant counters
//! response := {"ok":true, "op":..., ...}            per-request payload
//!           | {"ok":false, "error":<message>, ...}  malformed request / failed compile
//! ```
//!
//! [`serve`] reads every queued request up front (to end-of-input),
//! expands them into one [`Server::run_batch`] — a `compile` is one job, a
//! `suite` is one job per program under the default tenant — and answers
//! each request in order from the batch's responses. There is no separate
//! serial mode: a [`Server`] with one worker runs the batch inline, in
//! request order, so an in-batch duplicate is a verified hit on the
//! artifact its first occurrence stored. `stats` responses reflect the
//! counters after the batch's resolution (loads and stores included).
//!
//! Failure reporting is **in-band** (DESIGN.md §12): a malformed line
//! never aborts the batch (it yields `{"ok":false}` in its slot), a
//! request whose wall-clock deadline expires yields `{"ok":false,
//! "deadline_exceeded":true}`, admission backpressure yields
//! `{"ok":false,"rejected":true,"reason":"queue_full"}`, and every
//! response carries a `"degraded":true` flag when a store stripe has
//! fallen back to compile-without-cache mode — so a client can tell "the
//! answer is late/unpersisted" from "the answer is wrong" without parsing
//! stderr. The store key deliberately ignores deadlines, so deadline'd
//! requests share artifacts with undeadline'd ones.

use std::io::{BufRead, Write};

use crate::server::{CompileJob, JobOutcome, JobResponse, Provenance, Server};
use rupicola_core::{CompileError, HintDbs, ResourceKind};
use rupicola_lang::json::{parse, Json};
use rupicola_programs::suite;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Health check: liveness, store root, backend, degraded flag,
    /// format version. Touches neither disk nor engine.
    Ping,
    /// Compile (or serve from cache) one named suite program, optionally
    /// under a per-request wall-clock deadline in milliseconds and on
    /// behalf of a named tenant.
    Compile {
        /// Suite program name.
        program: String,
        /// Optional wall-clock budget
        /// ([`EngineLimits::max_wall_ms`](rupicola_core::EngineLimits::max_wall_ms)).
        deadline_ms: Option<u64>,
        /// Optional tenant id — admission control and per-tenant
        /// accounting ([`crate::tenant`]); `None` bills the default
        /// tenant.
        tenant: Option<String>,
    },
    /// Compile the whole suite.
    Suite,
    /// Report the store's cache counters and per-tenant accounting.
    Stats,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, missing/unknown
/// `op`, a missing `program` field, or a non-integer `deadline_ms`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let j = parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let op = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field `op`".to_string())?;
    match op {
        "ping" => Ok(Request::Ping),
        "compile" => {
            let program = j
                .get("program")
                .and_then(Json::as_str)
                .ok_or_else(|| "`compile` needs a string field `program`".to_string())?;
            let deadline_ms = match j.get("deadline_ms") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| "`deadline_ms` must be a non-negative integer".to_string())?,
                ),
            };
            let tenant = match j.get("tenant") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| "`tenant` must be a string".to_string())?
                        .to_string(),
                ),
            };
            Ok(Request::Compile { program: program.to_string(), deadline_ms, tenant })
        }
        "suite" => Ok(Request::Suite),
        "stats" => Ok(Request::Stats),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Whether a compile error is a wall-clock deadline expiry (reported
/// in-band as `"deadline_exceeded":true`).
fn is_deadline_exceeded(e: &CompileError) -> bool {
    matches!(
        e,
        CompileError::ResourceExhausted { resource: ResourceKind::WallClock, .. }
    )
}

/// Renders one job response as a protocol line payload.
fn program_response(r: &JobResponse, degraded: bool) -> Json {
    let mut fields = vec![("ok", Json::Bool(r.is_ok())), ("program", Json::str(r.program.clone()))];
    match &r.outcome {
        JobOutcome::Done(result) => match &result.result {
            Ok(cf) => fields.extend([
                ("cached", Json::Bool(result.provenance == Provenance::Cache)),
                ("statements", Json::U64(cf.function.statement_count() as u64)),
                ("derivation_nodes", Json::U64(cf.derivation.node_count as u64)),
                ("side_conditions", Json::U64(cf.derivation.side_cond_count as u64)),
                ("lemma_applications", Json::U64(cf.stats.lemma_applications as u64)),
            ]),
            Err(e) => {
                fields.push(("error", Json::str(format!("{e}"))));
                if is_deadline_exceeded(e) {
                    fields.push(("deadline_exceeded", Json::Bool(true)));
                }
            }
        },
        JobOutcome::Rejected(rejection) => fields.extend([
            ("rejected", Json::Bool(true)),
            ("reason", Json::str(rejection.reason())),
            ("error", Json::str(rejection.to_string())),
        ]),
        JobOutcome::UnknownProgram => {
            fields.push(("error", Json::str(format!("unknown program `{}`", r.program))));
        }
    }
    fields.push(("tenant", Json::str(r.tenant.clone())));
    if degraded {
        fields.push(("degraded", Json::Bool(true)));
    }
    Json::obj(fields)
}

/// Runs one JSON-lines batch through `server`: reads requests from
/// `input` until end-of-input, resolves every compile job they expand to
/// in one [`Server::run_batch`], writes one response line per request to
/// `output`.
///
/// Returns the number of requests answered (including error responses).
///
/// # Errors
///
/// Only I/O errors on `input`/`output` are fatal; bad requests, failed
/// compilations, expired deadlines, admission rejections and a degraded
/// store are all reported in-band.
pub fn serve(
    input: impl BufRead,
    mut output: impl Write,
    server: &Server,
    dbs: &HintDbs,
) -> std::io::Result<usize> {
    // Phase 1: read and parse every queued request.
    let mut requests: Vec<Result<Request, String>> = Vec::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        requests.push(parse_request(&line));
    }

    // Phase 2: one scheduler batch over every compile job any request
    // expands to. `jobs_of[i]` is the half-open range of job indices
    // request `i` owns.
    let mut jobs: Vec<CompileJob> = Vec::new();
    let mut jobs_of: Vec<std::ops::Range<usize>> = Vec::with_capacity(requests.len());
    for req in &requests {
        let start = jobs.len();
        match req {
            Ok(Request::Compile { program, deadline_ms, tenant }) => {
                jobs.push(CompileJob {
                    tenant: tenant.clone(),
                    program: program.clone(),
                    deadline_ms: *deadline_ms,
                });
            }
            Ok(Request::Suite) => {
                jobs.extend(suite().iter().map(|e| CompileJob::named(e.info.name)));
            }
            Ok(Request::Ping | Request::Stats) | Err(_) => {}
        }
        jobs_of.push(start..jobs.len());
    }
    let responses = server.run_batch(&jobs, dbs);
    let store = server.store();
    let degraded = store.any_degraded();

    // Phase 3: answer in request order.
    let mut answered = 0;
    for (req, range) in requests.iter().zip(jobs_of) {
        let line = match req {
            Err(message) => {
                Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message.clone()))])
            }
            Ok(Request::Ping) => {
                // Store-health counters ride along so an operator's ping
                // doubles as a fault-layer check: a positive retry count or
                // a quarantined key is visible before anything compiles.
                let stats = store.stats();
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("ping")),
                    ("store", Json::str(store.root().display().to_string())),
                    ("backend", Json::str(store.backend_name())),
                    ("shards", Json::U64(store.shard_count() as u64)),
                    ("workers", Json::U64(server.workers() as u64)),
                    ("degraded", Json::Bool(degraded)),
                    ("format", Json::U64(crate::fingerprint::FORMAT_VERSION)),
                    ("retries", Json::U64(stats.retries)),
                    ("quarantined", Json::U64(stats.quarantined as u64)),
                    ("write_failures", Json::U64(stats.write_failures as u64)),
                ])
            }
            Ok(Request::Stats) => {
                let tenants: Vec<(String, Json)> = server
                    .tenant_stats()
                    .iter()
                    .map(|(name, s)| (name.clone(), s.to_json()))
                    .collect();
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("stats")),
                    ("degraded", Json::Bool(degraded)),
                    ("shards", Json::U64(store.shard_count() as u64)),
                    ("cache", store.stats().to_json()),
                    ("tenants", Json::Obj(tenants)),
                ])
            }
            Ok(Request::Compile { .. }) => program_response(&responses[range.start], degraded),
            Ok(Request::Suite) => {
                let rows: Vec<Json> =
                    responses[range].iter().map(|r| program_response(r, degraded)).collect();
                let cached = rows
                    .iter()
                    .filter(|r| r.get("cached").and_then(Json::as_bool) == Some(true))
                    .count();
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("suite")),
                    ("degraded", Json::Bool(degraded)),
                    ("cached", Json::U64(cached as u64)),
                    ("programs", Json::Arr(rows)),
                ])
            }
        };
        output.write_all(line.render_compact().as_bytes())?;
        output.write_all(b"\n")?;
        answered += 1;
    }
    output.flush()?;
    Ok(answered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosBackend, FaultPlan};
    use crate::shard::ShardedStore;
    use crate::tenant::{TenantTable, DEFAULT_TENANT};
    use rupicola_ext::standard_dbs;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let root = std::env::temp_dir()
            .join(format!("rupicola-batch-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// A 1-shard, `workers`-wide server over `store`.
    fn server_over(store: ShardedStore, workers: usize) -> Server {
        Server::new(store, TenantTable::default(), workers)
    }

    /// The serial configuration: one shard (the root layout), one
    /// worker.
    fn serial_server(tag: &str) -> Server {
        server_over(ShardedStore::open(scratch(tag), 1).unwrap(), 1)
    }

    fn run(input: &str, server: &Server) -> Vec<Json> {
        let dbs = standard_dbs();
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, server, &dbs).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| parse(l).unwrap())
            .collect()
    }

    #[test]
    fn parse_request_accepts_the_grammar() {
        assert_eq!(
            parse_request(r#"{"op":"compile","program":"fnv1a"}"#).unwrap(),
            Request::Compile { program: "fnv1a".into(), deadline_ms: None, tenant: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"compile","program":"fnv1a","deadline_ms":250}"#).unwrap(),
            Request::Compile { program: "fnv1a".into(), deadline_ms: Some(250), tenant: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"compile","program":"fnv1a","tenant":"acme"}"#).unwrap(),
            Request::Compile {
                program: "fnv1a".into(),
                deadline_ms: None,
                tenant: Some("acme".into())
            }
        );
        assert!(parse_request(r#"{"op":"compile","program":"fnv1a","tenant":7}"#).is_err());
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"suite"}"#).unwrap(), Request::Suite);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert!(parse_request(r#"{"op":"compile","program":"fnv1a","deadline_ms":"soon"}"#)
            .is_err());
        assert!(parse_request(r#"{"op":"reboot"}"#).is_err());
        assert!(parse_request(r#"{"program":"fnv1a"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn parse_request_rejects_a_raw_tab_as_invalid_json() {
        let err = parse_request("{\"op\":\"compile\",\"program\":\"fnv\t1a\"}").unwrap_err();
        assert!(err.starts_with("invalid JSON: "), "{err}");
    }

    #[test]
    fn batch_answers_in_order_and_deduplicates_work() {
        let server = serial_server("order");
        let input = "\
{\"op\":\"compile\",\"program\":\"fnv1a\"}\n\
{\"op\":\"compile\",\"program\":\"fnv1a\"}\n\
{\"op\":\"stats\"}\n\
{\"op\":\"compile\",\"program\":\"nosuch\"}\n\
bogus\n";
        let responses = run(input, &server);
        assert_eq!(responses.len(), 5);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(responses[0].get("program").and_then(Json::as_str), Some("fnv1a"));
        assert_eq!(responses[0].get("cached").and_then(Json::as_bool), Some(false));
        // With one worker the duplicate runs after the first occurrence
        // stored its artifact: it is a verified hit, not a second compile.
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(responses[1].get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(server.store().stats().stores, 1, "fnv1a compiled and stored exactly once");
        // Stats reflect the batch's resolution.
        let cache = responses[2].get("cache").unwrap();
        assert_eq!(cache.get("stores").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(responses[3].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[4].get("ok").and_then(Json::as_bool), Some(false));
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn suite_request_reports_cache_provenance() {
        let server = serial_server("suite");
        let cold = run("{\"op\":\"suite\"}\n", &server);
        assert_eq!(cold[0].get("cached").and_then(Json::as_u64), Some(0));
        assert_eq!(cold[0].get("programs").and_then(Json::as_arr).unwrap().len(), 7);
        let warm = run("{\"op\":\"suite\"}\n", &server);
        assert_eq!(warm[0].get("cached").and_then(Json::as_u64), Some(7));
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn two_workers_on_one_shard_verify_in_parallel_and_answer_identically() {
        // Warm the store through the serial configuration, then answer the
        // same warm suite with one worker and with two over the same
        // one-shard root: the stripe's read guard lets both workers
        // verify at once, and the answers must not change.
        let root = scratch("two-workers");
        let serial = server_over(ShardedStore::open(&root, 1).unwrap(), 1);
        run("{\"op\":\"suite\"}\n", &serial);
        let one = run("{\"op\":\"suite\"}\n", &serial);
        drop(serial);
        let wide = server_over(ShardedStore::open(&root, 1).unwrap(), 2);
        let before = wide.store().stats();
        let two = run("{\"op\":\"suite\"}\n", &wide);
        let after = wide.store().stats();
        assert_eq!(one, two, "worker count must not change a single answer byte");
        assert_eq!(two[0].get("cached").and_then(Json::as_u64), Some(7));
        assert_eq!(after.hits - before.hits, 7);
        assert!(after.verify_nanos > before.verify_nanos, "every hit re-verified");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn ping_reports_health_without_compiling() {
        let server = serial_server("ping");
        let responses = run("{\"op\":\"ping\"}\n", &server);
        assert_eq!(responses.len(), 1);
        let ping = &responses[0];
        assert_eq!(ping.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ping.get("op").and_then(Json::as_str), Some("ping"));
        assert_eq!(ping.get("backend").and_then(Json::as_str), Some("fs"));
        assert_eq!(ping.get("degraded").and_then(Json::as_bool), Some(false));
        assert_eq!(ping.get("shards").and_then(Json::as_u64), Some(1));
        assert_eq!(ping.get("workers").and_then(Json::as_u64), Some(1));
        assert_eq!(
            ping.get("format").and_then(Json::as_u64),
            Some(crate::fingerprint::FORMAT_VERSION)
        );
        assert!(ping
            .get("store")
            .and_then(Json::as_str)
            .is_some_and(|s| s.contains("rupicola-batch-test-ping")));
        // The health counters are present and zero on a fresh store.
        assert_eq!(ping.get("retries").and_then(Json::as_u64), Some(0));
        assert_eq!(ping.get("quarantined").and_then(Json::as_u64), Some(0));
        assert_eq!(ping.get("write_failures").and_then(Json::as_u64), Some(0));
        // Liveness only: no loads, no compiles, no stores.
        let stats = server.store().stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (0, 0, 0));
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn ping_surfaces_fault_layer_counters() {
        // Every write fails (reads are fine): the compile succeeds but the
        // store-back burns its retries, and the ping answered later in the
        // same batch must surface both counters.
        let plan = FaultPlan { write_eio: 1000, ..FaultPlan::calm(3) };
        let store = ShardedStore::open_with(
            scratch("faulty-ping"),
            1,
            |_| Box::new(ChaosBackend::new(plan)),
            |s| s,
        )
        .unwrap();
        let server = server_over(store, 1);
        let responses =
            run("{\"op\":\"compile\",\"program\":\"fnv1a\"}\n{\"op\":\"ping\"}\n", &server);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
        let ping = &responses[1];
        assert!(
            ping.get("retries").and_then(Json::as_u64).is_some_and(|r| r > 0),
            "write retries visible in ping: {ping:?}"
        );
        assert!(
            ping.get("write_failures").and_then(Json::as_u64).is_some_and(|w| w > 0),
            "write failures visible in ping: {ping:?}"
        );
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn degraded_store_answers_the_batch_and_says_so() {
        // A store that cannot touch disk at all: every response must still
        // arrive (compile-without-cache) and carry the degraded flag.
        let server = server_over(ShardedStore::open_degraded(scratch("degraded"), 1), 1);
        let responses =
            run("{\"op\":\"ping\"}\n{\"op\":\"compile\",\"program\":\"fnv1a\"}\n", &server);
        assert_eq!(responses[0].get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true), "{responses:?}");
        assert_eq!(responses[1].get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[1].get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(server.store().stats().stores, 0, "degraded store persists nothing");
    }

    #[test]
    fn expired_deadline_is_reported_in_band() {
        let server = serial_server("deadline");
        // deadline_ms:0 expires at the first judgment — deterministically,
        // because the engine checks the clock inclusively.
        let responses =
            run("{\"op\":\"compile\",\"program\":\"fnv1a\",\"deadline_ms\":0}\n", &server);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[0].get("deadline_exceeded").and_then(Json::as_bool), Some(true));
        assert!(responses[0]
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("wall-clock")));
        // A generous deadline compiles normally and is persisted under the
        // same key an undeadline'd request would use.
        let responses = run(
            "{\"op\":\"compile\",\"program\":\"fnv1a\",\"deadline_ms\":600000}\n",
            &server,
        );
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
        assert!(responses[0].get("deadline_exceeded").is_none());
        assert_eq!(server.store().stats().stores, 1);
        // …which an undeadline'd request now hits.
        let responses = run("{\"op\":\"compile\",\"program\":\"fnv1a\"}\n", &server);
        assert_eq!(responses[0].get("cached").and_then(Json::as_bool), Some(true));
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn multi_tenant_protocol_round() {
        let server = server_over(ShardedStore::open(scratch("proto"), 2).unwrap(), 3);
        let input = "{\"op\":\"ping\"}\n\
             {\"op\":\"compile\",\"program\":\"fnv1a\",\"tenant\":\"acme\"}\n\
             {\"op\":\"suite\"}\n\
             {\"op\":\"stats\"}\n\
             bogus\n";
        let lines = run(input, &server);
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0].get("shards").and_then(Json::as_u64), Some(2));
        assert_eq!(lines[0].get("workers").and_then(Json::as_u64), Some(3));
        assert_eq!(lines[1].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(lines[1].get("tenant").and_then(Json::as_str), Some("acme"));
        assert_eq!(lines[2].get("programs").and_then(Json::as_arr).unwrap().len(), 7);
        let tenants = lines[3].get("tenants").expect("tenant accounting in stats");
        assert!(tenants.get("acme").is_some());
        assert!(tenants.get(DEFAULT_TENANT).is_some());
        assert_eq!(lines[4].get("ok").and_then(Json::as_bool), Some(false));
        let _ = std::fs::remove_dir_all(server.store().root());
    }
}
