//! Equivalence battery for the throughput layer.
//!
//! The dispatch index and the solver memo cache are *performance* features:
//! by construction they must not change which lemma discharges a goal, the
//! recorded witness, or the emitted code. These tests check that claim
//! end-to-end, the way translation validation would: run the indexed
//! engine and the forced-linear oracle (every lemma tried in registration
//! order, memo cache off) on the same inputs and require byte-identical
//! artifacts. The two modes share every other line of engine code, so
//! `perf_suite_witness_text_is_pinned` pins the derivation text itself
//! against a hash, catching a change both modes would make identically.
//!
//! The property test goes further than the standard databases: it samples
//! random *subsets* of the lemma library (preserving registration order,
//! which is semantically significant — first match wins) and requires the
//! two engines to agree on every suite program, including agreeing that a
//! crippled library fails to compile. A dispatch-index bug — a lemma
//! bucketed under the wrong head constructor — shows up here as the indexed
//! engine failing (or worse, picking a later lemma) where the linear scan
//! succeeds.

use rupicola::bedrock::cprint::function_to_c;
use rupicola::bedrock::interp::NoExternals;
use rupicola::bedrock::{ExecState, Interpreter, Program};
use rupicola::core::check::{differential_inputs, CheckConfig};
use rupicola::core::derive::DerivationNode;
use rupicola::core::{compile, compile_with_limits, DispatchMode, EngineLimits, HintDbs};
use rupicola::ext::standard_dbs;
use rupicola::programs::parallel::on_deep_stack;
use rupicola::programs::{perf_suite, suite};
use rupicola::{optimize_compiled, PipelineConfig};
use rupicola_minicheck::{check, Rng};

/// Rebuilds `base` with the lemmas selected by `keep_stmt`/`keep_expr`, in
/// the original registration order, and with every solver. Returns the pair
/// (indexed, forced-linear) over the *same* library.
fn subset_dbs(base: &HintDbs, keep_stmt: &[bool], keep_expr: &[bool]) -> (HintDbs, HintDbs) {
    let mut indexed = HintDbs::new();
    let mut linear = HintDbs::new();
    for (l, keep) in base.stmt_lemmas().iter().zip(keep_stmt) {
        if *keep {
            indexed.register_stmt_arc(l.clone());
            linear.register_stmt_arc(l.clone());
        }
    }
    for (l, keep) in base.expr_lemmas().iter().zip(keep_expr) {
        if *keep {
            indexed.register_expr_arc(l.clone());
            linear.register_expr_arc(l.clone());
        }
    }
    for s in base.solvers() {
        indexed.register_solver_arc(s.clone());
        linear.register_solver_arc(s.clone());
    }
    indexed.set_dispatch_mode(DispatchMode::Indexed);
    linear.set_dispatch_mode(DispatchMode::Linear);
    (indexed, linear)
}

/// Compiles every suite program under both engines and asserts agreement:
/// same success/failure verdict, and on success byte-identical Bedrock2,
/// C rendering, and `Derivation` tree.
fn assert_engines_agree(indexed: &HintDbs, linear: &HintDbs) {
    for entry in suite() {
        let name = entry.info.name;
        let (model, spec) = ((entry.model)(), (entry.spec)());
        let fast = compile(&model, &spec, indexed);
        let slow = compile(&model, &spec, linear);
        assert_eq!(
            fast.is_ok(),
            slow.is_ok(),
            "{name}: engines disagree on compilability (indexed: {fast:?}, linear: {slow:?})"
        );
        let (Ok(fast), Ok(slow)) = (fast, slow) else { continue };
        assert_eq!(fast.function, slow.function, "{name}: Bedrock2 output differs");
        assert_eq!(
            function_to_c(&fast.function),
            function_to_c(&slow.function),
            "{name}: C rendering differs"
        );
        assert_eq!(fast.derivation, slow.derivation, "{name}: derivation tree differs");
        assert_eq!(
            fast.derivation.node_count, slow.derivation.node_count,
            "{name}: witness node counts differ"
        );
    }
}

#[test]
fn indexed_engine_matches_linear_on_standard_dbs() {
    let base = standard_dbs();
    let all_stmt = vec![true; base.stmt_lemmas().len()];
    let all_expr = vec![true; base.expr_lemmas().len()];
    let (indexed, linear) = subset_dbs(&base, &all_stmt, &all_expr);
    assert_engines_agree(&indexed, &linear);
}

#[test]
fn indexed_engine_matches_linear_on_random_lemma_subsets() {
    let base = standard_dbs();
    let n_stmt = base.stmt_lemmas().len();
    let n_expr = base.expr_lemmas().len();
    check("equivalence/random-subsets", 24, |rng: &mut Rng| {
        // Bias toward large subsets so a healthy fraction of cases still
        // compile (all-lemmas is exercised by the test above; tiny subsets
        // mostly check that both engines fail identically).
        let keep = |rng: &mut Rng, n: usize| -> Vec<bool> {
            (0..n).map(|_| rng.below(8) != 0).collect()
        };
        let keep_stmt = keep(rng, n_stmt);
        let keep_expr = keep(rng, n_expr);
        let (indexed, linear) = subset_dbs(&base, &keep_stmt, &keep_expr);
        assert_engines_agree(&indexed, &linear);
    });
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

/// FNV-1a over the witness text of a derivation: a preorder walk feeding
/// each node's lemma name and focus string, then each side-condition
/// record and its hypotheses as `Display` renders them. Every field ends
/// in a `0xff` byte, which no UTF-8 string contains, so field boundaries
/// cannot alias.
fn witness_text_hash(root: &DerivationNode) -> u64 {
    fn feed(h: &mut u64, s: &str) {
        for b in s.bytes().chain([0xff]) {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
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

/// The derivation text of every perf-suite program, pinned. The goldens
/// pin only the emitted C, Rust and RISC-V; this pins the witness bytes
/// (focus renderings, side conditions, hypothesis snapshots) that the
/// store files and the checker re-reads, so a printer or goal-copy change
/// that alters them fails here. Hashed rather than serialized: the
/// `chacha20_block` derivation is too deep for the JSON codec's nesting
/// limit.
#[test]
fn perf_suite_witness_text_is_pinned() {
    let dbs = standard_dbs();
    let hashes: Vec<(&str, String)> = perf_suite()
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
    let pinned: [(&str, &str); 11] = [
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
    ];
    assert_eq!(hashes, pinned);
}

#[test]
fn memo_cache_does_not_change_artifacts() {
    // Same dispatch mode, cache on vs off: the memo can only change *how
    // fast* a side condition is discharged, never by which solver or with
    // what record.
    let mut cached = standard_dbs();
    cached.set_solver_memo(true);
    let mut uncached = standard_dbs();
    uncached.set_solver_memo(false);
    for entry in suite() {
        let name = entry.info.name;
        let (model, spec) = ((entry.model)(), (entry.spec)());
        let with_memo = compile(&model, &spec, &cached).expect("suite compiles");
        let without = compile(&model, &spec, &uncached).expect("suite compiles");
        assert_eq!(with_memo.function, without.function, "{name}: Bedrock2 differs");
        assert_eq!(with_memo.derivation, without.derivation, "{name}: derivation differs");
        assert!(
            with_memo.stats.solver_cache_hits + with_memo.stats.solver_cache_misses
                >= without.stats.solver_cache_hits,
            "{name}: cache counters malformed"
        );
        assert_eq!(
            without.stats.solver_cache_hits, 0,
            "{name}: disabled cache must record no hits"
        );
    }
}
