//! `warm-hits` and `mixed-batch`: the multi-tenant server over an
//! 8-shard store with the full optimization pipeline, on the 7-program
//! suite. (The perf suite's `chacha20_block` cannot go through the store:
//! its artifact renders to gigabytes of JSON nested past the parser's
//! depth limit.)

use std::path::Path;
use std::time::{Duration, Instant};

use rupicola_bedrock::BFunction;
use rupicola_core::check::{check_with, CheckConfig};
use rupicola_core::derive::Derivation;
use rupicola_core::fnspec::FnSpec;
use rupicola_core::serial::decode_compiled_function;
use rupicola_core::{compile_with_limits, EngineLimits, HintDbs};
use rupicola_lang::json::Json;
use rupicola_lang::Model;
use rupicola_opt::{optimize_compiled, validate_candidate_with_policy, PipelineConfig};
use rupicola_programs::SuiteEntry;
use rupicola_service::store::LOAD_CHECK_VECTORS;
use rupicola_service::{
    CacheStats, CompileJob, FsBackend, JobOutcome, JobResponse, LoadOutcome, Provenance, Server,
    ShardedStore, TenantTable,
};

use crate::codegen;
use crate::host::HostClock;
use crate::spans::Spans;
use crate::stats::{nearest_rank, sorted};
use crate::sys::{self, Scratch};
use crate::{
    count_compile, emit_compile_rates, emit_trace, plan, repeated_setup, traced_block, Config,
    Report, TraceTotals, Workload, COMPILE_COUNTERS,
};

const SHARDS: usize = 8;
const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
/// Jobs per mixed-batch client call.
const BATCH: usize = 8;
/// Scheduler workers of the server. One, not two: with two or more
/// workers `run_work_stealing` can deadlock — a worker holds its own
/// deque's lock while it locks a victim's to steal, so two workers whose
/// deques empty at the same moment wait on each other forever. With one
/// worker the server runs a batch inline.
const WORKERS: usize = 1;
/// warm-hits calls per traced/untraced block of a traced run.
const WARM_BLOCK: u64 = 16;

struct Program {
    name: &'static str,
    model: Model,
    spec: FnSpec,
    entry: SuiteEntry,
}

struct Reference {
    function: BFunction,
    derivation: Derivation,
}

/// A pre-warmed server and the inputs its clients send.
struct Fixture {
    server: Server,
    dbs: HintDbs,
    programs: Vec<Program>,
}

/// The system's set-up: databases, suite, store, server, and one warm-up
/// batch that compiles and files every program.
fn setup(root: &Path) -> Result<Fixture, String> {
    let dbs = rupicola_ext::standard_dbs();
    let programs: Vec<Program> = rupicola_programs::suite()
        .iter()
        .map(|e| Program {
            name: e.info.name,
            model: (e.model)(),
            spec: (e.spec)(),
            entry: e.clone(),
        })
        .collect();
    let store = ShardedStore::open_with(
        root,
        SHARDS,
        |_| Box::new(FsBackend),
        |s| s.with_pipeline(PipelineConfig::full()),
    )?;
    let server = Server::new(store, TenantTable::default(), WORKERS);
    let warmup: Vec<CompileJob> = programs.iter().map(|p| CompileJob::named(p.name)).collect();
    for r in server.run_batch(&warmup, &dbs) {
        if !r.is_ok() {
            return Err(format!(
                "warm-up batch: {} failed: {:?}",
                r.program, r.outcome
            ));
        }
    }
    Ok(Fixture {
        server,
        dbs,
        programs,
    })
}

/// Checks one response for program `p` against the reference: its
/// function always; with `audit`, also its derivation and a fresh checker
/// run. A response with another provenance than `expect` is a failure.
fn check_response(
    report: &mut Report,
    fx: &Fixture,
    reference: &[Reference],
    p: usize,
    r: &JobResponse,
    expect: Provenance,
    audit: bool,
) {
    let name = fx.programs[p].name;
    let result = match &r.outcome {
        JobOutcome::Done(result) => result,
        other => return report.fail(format!("{name}: not served: {other:?}")),
    };
    let cf = match &result.result {
        Ok(cf) => cf,
        Err(e) => return report.fail(format!("{name}: {e}")),
    };
    if cf.function != reference[p].function {
        return report.wrong_answer(format!("{name}: function differs from the reference"));
    }
    if audit {
        if cf.derivation != reference[p].derivation {
            return report.wrong_answer(format!("{name}: derivation differs from the reference"));
        }
        if let Err(e) = check_with(cf, &fx.dbs, &CheckConfig::default()) {
            return report.wrong_answer(format!("{name}: served answer fails the checker: {e}"));
        }
    }
    if result.provenance != expect {
        report.fail(format!(
            "{name}: served as {:?}, expected {expect:?}",
            result.provenance
        ));
    }
}

/// Adds the store's counter deltas over one traced call.
fn count_store(spans: &mut Spans, before: &CacheStats, after: &CacheStats) {
    spans.count("service.hits", (after.hits - before.hits) as f64);
    spans.count("service.misses", (after.misses - before.misses) as f64);
    spans.count(
        "service.evictions",
        (after.evictions - before.evictions) as f64,
    );
    spans.count("service.stores", (after.stores - before.stores) as f64);
    let nanos = after.verify_nanos - before.verify_nanos;
    spans.add(
        "service.verify_ms",
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX)),
    );
}

/// Re-runs a verified hit's ladder through its public steps, each in its
/// own span: the request's model and spec, the whole load, then both key
/// computations, read, parse, digest, decode, checker and optimized-body
/// re-validation on the artifact file behind it.
fn replay_ladder(fx: &Fixture, p: &Program, spans: &mut Spans) -> Result<(), String> {
    let store = fx.server.store();
    let limits = EngineLimits::default();
    let load_check = CheckConfig {
        vectors: LOAD_CHECK_VECTORS,
        ..CheckConfig::default()
    };
    // The server rebuilds the request's model and spec from the suite
    // entry before it loads.
    spans.time("server.build_ms", || ((p.entry.model)(), (p.entry.spec)()));
    match spans.time("service.load_ms", || {
        store.load_verified(&p.model, &p.spec, &fx.dbs, &limits)
    }) {
        LoadOutcome::Hit(_) => {}
        other => {
            return Err(format!(
                "{}: replayed load was not a hit: {other:?}",
                p.name
            ))
        }
    }
    // The routing key, then the shard's own key under its lock: the load
    // path computes both.
    let key = spans.time("service.key_ms", || {
        store.key_for(&p.model, &p.spec, &fx.dbs, &limits)
    });
    let path = {
        let shard = store.shard(store.shard_of(key));
        spans.time("service.key_ms", || {
            shard.key_for(&p.model, &p.spec, &fx.dbs, &limits)
        });
        shard.path_for(p.name, key)
    };
    let text = spans
        .time("service.read_ms", || std::fs::read_to_string(&path))
        .map_err(|e| format!("{}: read {}: {e}", p.name, path.display()))?;
    spans.count("service.artifact_bytes", text.len() as f64);
    let envelope = spans
        .time("lang.json_parse_ms", || rupicola_lang::json::parse(&text))
        .map_err(|e| format!("{}: {e}", p.name))?;
    let artifact = envelope
        .get("artifact")
        .ok_or_else(|| format!("{}: no artifact", p.name))?;
    // The store's content digest: FNV-1a/64 over the compact rendering.
    let digest = spans.time("service.digest_ms", || {
        format!(
            "{:016x}",
            rupicola_programs::fnv1a::reference(artifact.render_compact().as_bytes())
        )
    });
    if envelope.get("digest").and_then(Json::as_str) != Some(digest.as_str()) {
        return Err(format!(
            "{}: replayed digest differs from the envelope's",
            p.name
        ));
    }
    let cf = spans
        .time("core.decode_ms", || decode_compiled_function(artifact))
        .map_err(|e| format!("{}: decode: {e}", p.name))?;
    spans
        .time("core.check_ms", || check_with(&cf, &fx.dbs, &load_check))
        .map_err(|e| format!("{}: check: {e}", p.name))?;
    if let Some(optimized) = &cf.optimized {
        spans
            .time("opt.revalidate_ms", || {
                validate_candidate_with_policy(&cf, optimized, &fx.dbs, &load_check, None)
            })
            .map_err(|e| format!("{}: revalidate: {e}", p.name))?;
    }
    Ok(())
}

/// Re-runs one mixed batch serially through the public pieces of the
/// server's per-job path: compile, optimize, key and put for the cold job,
/// a verified load for each warm one.
fn replay_batch(
    fx: &Fixture,
    jobs: &[(usize, usize)],
    cold_at: usize,
    spans: &mut Spans,
) -> Result<(), String> {
    let store = fx.server.store();
    let limits = EngineLimits::default();
    for (k, &(_, p)) in jobs.iter().enumerate() {
        let p = &fx.programs[p];
        if k != cold_at {
            match spans.time("service.load_ms", || {
                store.load_verified(&p.model, &p.spec, &fx.dbs, &limits)
            }) {
                LoadOutcome::Hit(_) => continue,
                other => {
                    return Err(format!(
                        "{}: replayed load was not a hit: {other:?}",
                        p.name
                    ))
                }
            }
        }
        let mut cf = spans
            .time("core.compile_ms", || {
                compile_with_limits(&p.model, &p.spec, &fx.dbs, limits)
            })
            .map_err(|e| format!("{}: compile: {e}", p.name))?;
        let pipeline = store.pipeline();
        spans.time("opt.optimize_ms", || {
            optimize_compiled(&mut cf, &fx.dbs, &pipeline, &CheckConfig::default())
        });
        let key = spans.time("service.key_ms", || {
            store.key_for(&cf.model, &cf.spec, &fx.dbs, &limits)
        });
        spans
            .time("service.put_ms", || store.put(key, &cf))
            .map_err(|e| format!("{}: put: {e}", p.name))?;
        count_compile(spans, &cf);
        let s = cf.stats;
        spans.count("opt.passes_applied", s.opt_passes_applied as f64);
        spans.count("opt.rollbacks", s.opt_passes_rolled_back as f64);
        spans.count("opt.sites_rewritten", s.opt_sites_rewritten as f64);
    }
    Ok(())
}

/// Deletes the artifact of `p` so its next request compiles cold.
fn expire(fx: &Fixture, p: &Program) -> Result<(), String> {
    let store = fx.server.store();
    let key = store.key_for(&p.model, &p.spec, &fx.dbs, &EngineLimits::default());
    let path = store.shard(store.shard_of(key)).path_for(p.name, key);
    match std::fs::remove_file(&path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot expire {}: {e}", path.display())),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub(crate) fn run(config: &Config, report: &mut Report) -> Result<(), String> {
    let warm = config.workload == Workload::WarmHits;
    // Reference answers from the fault-free compile, before set-up.
    let reference: Vec<Reference> = rupicola_programs::suite()
        .iter()
        .map(|e| {
            (e.compiled)()
                .map(|cf| Reference {
                    function: cf.function,
                    derivation: cf.derivation,
                })
                .map_err(|err| format!("reference compile of {}: {err}", e.info.name))
        })
        .collect::<Result<_, _>>()?;

    let scratch = Scratch::new(config.workload.name())?;
    let mut clock = HostClock::new()?;
    let fx = repeated_setup(config, report, &mut clock, |i| {
        setup(&scratch.path().join(format!("setup-{i}")))
    })?;
    let n = fx.programs.len();

    let mut spans = Spans::default();
    let (mut plain, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut warm_done, mut cold_done) = (Vec::new(), Vec::new());
    if !config.trace {
        sys::reset_peak_rss()?;
    }
    let start = Instant::now();
    let (mut call, mut answers) = (0u64, 0u64);
    loop {
        // `(tenant, program)` per job, the call's class (the program that
        // sets its cost) and the position of the cold job, if any.
        let (jobs, class, cold_at) = if warm {
            let p = plan::warm_request(config.seed, call, n);
            (vec![(0, p)], p, None)
        } else {
            let b = plan::mixed_batch(config.seed, call, n, TENANTS.len(), BATCH);
            expire(&fx, &fx.programs[b.churn])?;
            (b.jobs, b.churn, Some(b.cold_at))
        };
        let traced = traced_block(config.trace, call, if warm { WARM_BLOCK } else { 1 });
        let requests: Vec<CompileJob> = jobs
            .iter()
            .map(|&(t, p)| {
                let job = CompileJob::named(fx.programs[p].name);
                if warm {
                    job
                } else {
                    job.tenant(TENANTS[t])
                }
            })
            .collect();

        if !config.trace {
            clock.tick();
        }
        let before = traced.then(|| fx.server.store().stats());
        let t = Instant::now();
        let responses = fx.server.run_batch(&requests, &fx.dbs);
        let took = t.elapsed();
        let after = traced.then(|| fx.server.store().stats());

        report.attempted += jobs.len() as u64;
        if responses.len() != jobs.len() {
            report.fail(format!(
                "{} jobs, {} responses",
                jobs.len(),
                responses.len()
            ));
        }
        for (k, (r, &(_, p))) in responses.iter().zip(&jobs).enumerate() {
            let cold = cold_at == Some(k);
            let expect = if cold {
                Provenance::Compiled
            } else {
                Provenance::Cache
            };
            let audit = cold || plan::audited(config.seed, answers);
            answers += 1;
            check_response(report, &fx, &reference, p, r, expect, audit);
            if traced {
                let done = r.latency_nanos as f64 / 1e6;
                if cold {
                    cold_done.push(done)
                } else {
                    warm_done.push(done)
                }
            }
        }

        if let (Some(before), Some(after)) = (before, after) {
            traced_ms.push(ms(took));
            spans.add("server.batch_ms", took);
            count_store(&mut spans, &before, &after);
            match cold_at {
                None => replay_ladder(&fx, &fx.programs[class], &mut spans)?,
                Some(cold_at) => replay_batch(&fx, &jobs, cold_at, &mut spans)?,
            }
        } else {
            plain.push((class, t + took / 2, ms(took)));
        }
        call += 1;
        if start.elapsed() >= config.run_for || !report.correct() {
            break;
        }
    }
    report.secs = start.elapsed().as_secs_f64();

    if !config.trace {
        // Before the statistics over the calls allocate: their size grows
        // with the number of calls, which varies with host speed.
        report.set("peak_rss_mb", sys::peak_rss_mib()?, 1);
        clock.finish(report, &plain, if warm { 1.0 } else { BATCH as f64 });
        return codegen::emitted_code(config.seed, report);
    }
    let traced_n = traced_ms.len() as u64;
    let plain_ms: Vec<f64> = plain.iter().map(|&(_, _, ms)| ms).collect();
    if warm {
        let span = |name: &str| Duration::from_secs_f64(spans.ms(name) / 1e3);
        let batch = span("server.batch_ms");
        let parts: Duration = WARM_ATTRIBUTED.iter().map(|l| span(l)).sum();
        spans.add(
            "server.overhead_ms",
            batch.saturating_sub(span("service.load_ms") + span("server.build_ms")),
        );
        spans.add("service.residual_ms", batch.saturating_sub(parts));
        let totals = TraceTotals {
            plain_ms: &plain_ms,
            traced_ms: &traced_ms,
            attributed: &WARM_ATTRIBUTED,
        };
        emit_trace(
            report,
            &spans,
            &totals,
            &[
                ("server.batch_ms", None),
                ("server.build_ms", Some("server.batch_ms")),
                ("server.overhead_ms", Some("server.batch_ms")),
                ("service.load_ms", Some("server.batch_ms")),
                ("service.key_ms", Some("service.load_ms")),
                ("service.read_ms", Some("service.load_ms")),
                ("service.verify_ms", Some("service.load_ms")),
                ("lang.json_parse_ms", Some("service.verify_ms")),
                ("service.digest_ms", Some("service.verify_ms")),
                ("core.decode_ms", Some("service.verify_ms")),
                ("core.check_ms", Some("service.verify_ms")),
                ("opt.revalidate_ms", Some("service.verify_ms")),
                ("service.residual_ms", Some("server.batch_ms")),
            ],
            &[
                "service.hits",
                "service.misses",
                "service.evictions",
                "service.stores",
                "service.artifact_bytes",
            ],
        );
    } else {
        let attributed = [
            "core.compile_ms",
            "opt.optimize_ms",
            "service.key_ms",
            "service.put_ms",
            "service.load_ms",
        ];
        let totals = TraceTotals {
            plain_ms: &plain_ms,
            traced_ms: &traced_ms,
            attributed: &attributed,
        };
        let counters = [
            "service.hits",
            "service.misses",
            "service.evictions",
            "service.stores",
            "opt.passes_applied",
            "opt.rollbacks",
            "opt.sites_rewritten",
        ];
        emit_trace(
            report,
            &spans,
            &totals,
            &[
                ("server.batch_ms", None),
                ("core.compile_ms", None),
                ("opt.optimize_ms", None),
                ("service.key_ms", None),
                ("service.put_ms", None),
                ("service.load_ms", None),
                ("service.verify_ms", Some("service.load_ms")),
            ],
            &[&COMPILE_COUNTERS[..], &counters].concat(),
        );
        // The replayed work is serial; the batch spreads it over the
        // server's workers.
        if let Some(share) = report.get("trace.attributed_share") {
            report.set("server.utilization", share / WORKERS as f64, traced_n);
        }
        emit_compile_rates(report, &spans, traced_n);
        if !cold_done.is_empty() {
            let (w, c) = (sorted(&warm_done), sorted(&cold_done));
            report.set(
                "server.warm_done_p50_ms",
                nearest_rank(&w, 50),
                w.len() as u64,
            );
            report.set(
                "server.warm_done_p99_ms",
                nearest_rank(&w, 99),
                w.len() as u64,
            );
            report.set(
                "server.cold_done_p50_ms",
                nearest_rank(&c, 50),
                c.len() as u64,
            );
        }
    }
    Ok(())
}

/// The attributed part of a warm-hits call: the request build and the
/// load's key, read and verify steps (verify from the store's own timer
/// inside the call; its parse, digest, decode, check and re-validation
/// parts come from the replay).
const WARM_ATTRIBUTED: [&str; 4] = [
    "server.build_ms",
    "service.key_ms",
    "service.read_ms",
    "service.verify_ms",
];
