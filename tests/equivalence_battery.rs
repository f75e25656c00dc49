//! Equivalence battery for the engine's outputs.
//!
//! The engine tries every lemma in registration order for every goal and
//! every solver in order for every side condition; nothing caches or
//! filters that search. `perf_suite_witness_text_is_pinned` pins the
//! derivation text of every perf-suite and CT-suite program against a
//! hash, so any change to lemma search, focus rendering or hypothesis
//! snapshots that alters a witness fails here, not only changes that reach
//! the emitted code. `perf_suite_optimized_code_is_pinned` does the same
//! for what those programs end up as: the optimized C, the lowered RISC-V
//! listing and the checker's report.
//!
//! The property test goes beyond the standard databases: it samples random
//! *subsets* of the lemma library (preserving registration order, which is
//! semantically significant — first match wins) and requires every suite
//! program to either fail with a typed [`CompileError`] or compile to code
//! the trusted checker accepts. A crippled library may make a program
//! uncompilable; it must never make the engine emit a wrong answer or
//! escape with a panic.
//!
//! `optimized_body_matches_unoptimized_observable_behavior` re-checks the
//! optimizer's output externally, by running both bodies in the
//! interpreter.

use rupicola::bedrock::cprint::function_to_c;
use rupicola::bedrock::interp::NoExternals;
use rupicola::bedrock::rv::listing;
use rupicola::bedrock::{ExecState, Interpreter, Program};
use rupicola::core::check::{check_with, differential_inputs, CheckConfig};
use rupicola::core::derive::DerivationNode;
use rupicola::core::{compile, compile_with_limits, CompileError, EngineLimits, HintDbs};
use rupicola::ext::standard_dbs;
use rupicola::programs::parallel::on_deep_stack;
use rupicola::programs::{ct_suite, perf_suite, suite, SuiteEntry};
use rupicola::{lower_validated, optimize_compiled, PipelineConfig, RvPipelineConfig};
use rupicola_minicheck::{check, Rng};

/// Rebuilds `base` with the lemmas selected by `keep_stmt`/`keep_expr`, in
/// the original registration order, and with every solver.
fn subset_dbs(base: &HintDbs, keep_stmt: &[bool], keep_expr: &[bool]) -> HintDbs {
    let mut dbs = HintDbs::new();
    for (l, keep) in base.stmt_lemmas().iter().zip(keep_stmt) {
        if *keep {
            dbs.register_stmt_arc(l.clone());
        }
    }
    for (l, keep) in base.expr_lemmas().iter().zip(keep_expr) {
        if *keep {
            dbs.register_expr_arc(l.clone());
        }
    }
    for s in base.solvers() {
        dbs.register_solver_arc(s.clone());
    }
    dbs
}

#[test]
fn random_lemma_subsets_compile_to_checked_code_or_typed_errors() {
    let base = standard_dbs();
    let n_stmt = base.stmt_lemmas().len();
    let n_expr = base.expr_lemmas().len();
    let config = CheckConfig::default();
    let (mut compiled, mut failed) = (0usize, 0usize);
    check("equivalence/random-subsets", 24, |rng: &mut Rng| {
        // Bias toward large subsets so a healthy fraction of cases still
        // compile (tiny subsets mostly exercise the typed-error path).
        let keep = |rng: &mut Rng, n: usize| -> Vec<bool> {
            (0..n).map(|_| rng.below(8) != 0).collect()
        };
        let keep_stmt = keep(rng, n_stmt);
        let keep_expr = keep(rng, n_expr);
        let dbs = subset_dbs(&base, &keep_stmt, &keep_expr);
        for entry in suite() {
            let name = entry.info.name;
            // `compile` returns `Result<_, CompileError>`: a panic escaping
            // it fails the case, so reaching the `Err` arm is the typed
            // error path.
            let result: Result<_, CompileError> =
                compile(&(entry.model)(), &(entry.spec)(), &dbs);
            match result {
                Ok(cf) => {
                    check_with(&cf, &dbs, &config).unwrap_or_else(|e| {
                        panic!("{name}: subset library emitted code the checker rejects: {e}")
                    });
                    compiled += 1;
                }
                Err(_) => failed += 1,
            }
        }
    });
    assert!(compiled > 0, "no case compiled anything: the generator is too sparse");
    assert!(failed > 0, "no case failed: the generator never cripples the library");
}

#[test]
fn optimized_body_matches_unoptimized_observable_behavior() {
    // The optimization pipeline is validated internally (checker + lints +
    // differential, per pass, with rollback). This leg re-checks the end
    // result *externally*: run the certified body and the final optimized
    // body side by side on the checker's concretized inputs and demand
    // byte-identical observable behavior — return words, final heap, and
    // event trace. Unlike the internal differential, this does not trust
    // any `rupicola_opt` comparison code: it drives the interpreter
    // directly from this test.
    let dbs = standard_dbs();
    let pipeline = PipelineConfig::full();
    let config = CheckConfig::default();
    let mut optimized_count = 0;
    for entry in suite() {
        let name = entry.info.name;
        let (model, spec) = ((entry.model)(), (entry.spec)());
        let mut cf = compile(&model, &spec, &dbs).expect("suite compiles");
        let report = optimize_compiled(&mut cf, &dbs, &pipeline, &config);
        assert_eq!(report.rolled_back_count(), 0, "{name}: rollback on suite:\n{report}");
        let Some(opt) = &cf.optimized else { continue };
        optimized_count += 1;
        assert_ne!(*opt, cf.function, "{name}: optimized body set but identical");

        let mut prog_orig = Program::new();
        prog_orig.insert(cf.function.clone());
        let mut prog_opt = Program::new();
        prog_opt.insert(opt.clone());
        for f in &cf.linked {
            prog_orig.insert(f.clone());
            prog_opt.insert(f.clone());
        }
        let interp_orig = Interpreter::new(&prog_orig);
        let interp_opt = Interpreter::new(&prog_opt);
        let inputs = differential_inputs(&cf, &config);
        assert!(!inputs.is_empty(), "{name}: no differential inputs");
        for input in inputs {
            let mut st_o = ExecState::new(input.mem.clone());
            let res_o = interp_orig
                .call_with_locals(name, &input.args, &mut st_o, &mut NoExternals, config.max_fuel);
            let mut st_c = ExecState::new(input.mem);
            let res_c = interp_opt
                .call_with_locals(name, &input.args, &mut st_c, &mut NoExternals, config.max_fuel);
            match (res_o, res_c) {
                (Err(_), Err(_)) => {}
                (Ok((rets_o, _)), Ok((rets_c, _))) => {
                    assert_eq!(rets_o, rets_c, "{name}: returns differ on [{}]", input.desc);
                    assert_eq!(st_o.mem, st_c.mem, "{name}: heap differs on [{}]", input.desc);
                    assert_eq!(st_o.trace, st_c.trace, "{name}: trace differs on [{}]", input.desc);
                }
                (o, c) => panic!(
                    "{name}: fault behavior differs on [{}]: orig {o:?} vs opt {c:?}",
                    input.desc
                ),
            }
        }
    }
    assert!(optimized_count >= 3, "only {optimized_count} suite programs optimized");
}

/// The FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Feeds one field into an FNV-1a hash. Every field ends in a `0xff`
/// byte, which no UTF-8 string contains, so field boundaries cannot alias.
fn feed(h: &mut u64, s: &str) {
    for b in s.bytes().chain([0xff]) {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Every perf-suite and CT-suite program, in pin order.
fn pinned_entries() -> Vec<SuiteEntry> {
    perf_suite().into_iter().chain(ct_suite().into_iter().map(|e| e.entry)).collect()
}

/// FNV-1a over the witness text of a derivation: a preorder walk feeding
/// each node's lemma name and focus string, then each side-condition
/// record and its hypotheses as `Display` renders them.
fn witness_text_hash(root: &DerivationNode) -> u64 {
    let mut h = FNV_BASIS;
    root.walk(&mut |node| {
        feed(&mut h, &node.lemma);
        feed(&mut h, &node.focus);
        for sc in &node.side_conds {
            feed(&mut h, &sc.to_string());
            for hyp in sc.hyps.iter() {
                feed(&mut h, &hyp.to_string());
            }
        }
    });
    h
}

/// The derivation text of every perf-suite and CT-suite program, pinned.
/// The goldens pin only the emitted C, Rust and RISC-V; this pins the
/// witness bytes (focus renderings, side conditions, hypothesis snapshots)
/// that the store files and the checker re-reads, so a printer, goal-copy
/// or lemma-search change that alters them fails here. Hashed from the
/// tree rather than from its JSON encoding, so a codec change leaves the
/// pin alone.
#[test]
fn perf_suite_witness_text_is_pinned() {
    let dbs = standard_dbs();
    let entries = pinned_entries();
    let hashes: Vec<(&str, String)> = entries
        .iter()
        .map(|entry| {
            let hash = on_deep_stack(|| {
                let cf = compile_with_limits(
                    &(entry.model)(),
                    &(entry.spec)(),
                    &dbs,
                    (entry.limits)(EngineLimits::default()),
                )
                .unwrap_or_else(|e| panic!("{} compiles: {e}", entry.info.name));
                witness_text_hash(&cf.derivation.root)
            });
            (entry.info.name, format!("{hash:016x}"))
        })
        .collect();
    let hashes: Vec<(&str, &str)> = hashes.iter().map(|(n, h)| (*n, h.as_str())).collect();
    let pinned: [(&str, &str); 14] = [
        ("fnv1a", "5d2d28b5fbdd5034"),
        ("utf8", "925c3a7e83b42c3b"),
        ("upstr", "28a607d343b7ad42"),
        ("m3s", "b04bc538681ce92f"),
        ("ip", "7b811510ab653878"),
        ("fasta", "65aaedb8453f4f5f"),
        ("crc32", "d7eed39169b95dd4"),
        ("chacha20_block", "46ba2047a23b2b96"),
        ("poly_acc", "9bdc35e6b38061f3"),
        ("hex_enc", "b39ec503966a680e"),
        ("hex_dec", "f41aeade384dc59e"),
        ("ct_memcmp", "ddbaf26a6e731c69"),
        ("ct_select", "73ae98bda31c2123"),
        ("chacha_qr", "6374958a5524ebcf"),
    ];
    assert_eq!(hashes, pinned);
}

/// The code every perf-suite and CT-suite program ends up as, pinned: one
/// FNV-1a per program over the C rendering of the optimized body (the
/// certified body when no pass applied), the RISC-V listing of the fully
/// lowered artifact, and the `Debug` text of the checker's report. The
/// goldens pin the emitted code of the seven main-suite programs only;
/// this covers the rest, `chacha20_block`'s load-CSE sites included, and
/// the checker's vector, invariant and fuel counts.
#[test]
fn perf_suite_optimized_code_is_pinned() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    let entries = pinned_entries();
    let hashes: Vec<(&str, String)> = entries
        .iter()
        .map(|entry| {
            let name = entry.info.name;
            let hash = on_deep_stack(|| {
                let mut cf = compile_with_limits(
                    &(entry.model)(),
                    &(entry.spec)(),
                    &dbs,
                    (entry.limits)(EngineLimits::default()),
                )
                .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
                let report = check_with(&cf, &dbs, &config)
                    .unwrap_or_else(|e| panic!("{name} checks: {e}"));
                optimize_compiled(&mut cf, &dbs, &PipelineConfig::full(), &config);
                let (artifact, _) = lower_validated(&cf, &RvPipelineConfig::full(), &config)
                    .unwrap_or_else(|e| panic!("{name} lowers: {e}"));
                let mut h = FNV_BASIS;
                feed(&mut h, &function_to_c(cf.optimized.as_ref().unwrap_or(&cf.function)));
                feed(&mut h, &listing(&artifact.asm));
                feed(&mut h, &format!("{report:?}"));
                h
            });
            (name, format!("{hash:016x}"))
        })
        .collect();
    let hashes: Vec<(&str, &str)> = hashes.iter().map(|(n, h)| (*n, h.as_str())).collect();
    let pinned: [(&str, &str); 14] = [
        ("fnv1a", "1f11cd91cd3228e8"),
        ("utf8", "7aadb6b2abd4258b"),
        ("upstr", "338336b22781344e"),
        ("m3s", "f523e7f938454815"),
        ("ip", "e7d13a526f280403"),
        ("fasta", "7229c0f8c3452470"),
        ("crc32", "5ed0135604404456"),
        ("chacha20_block", "f5e446d5c8731c4b"),
        ("poly_acc", "5d23df7785a62435"),
        ("hex_enc", "bb8651a245b70e05"),
        ("hex_dec", "76f262cc45536baf"),
        ("ct_memcmp", "854e071eeaa9e6f4"),
        ("ct_select", "ed9f4789d76ec515"),
        ("chacha_qr", "9714f28a4c5fd5d6"),
    ];
    assert_eq!(hashes, pinned);
}
