//! Failure injection: the safety net must actually catch things.
//!
//! The design claims (DESIGN.md §7): deliberately wrong lemmas are caught
//! by the checker; unsupported constructs surface residual goals rather
//! than wrong code; out-of-bounds accesses trap in the interpreter; and
//! forged witnesses are rejected.

use rupicola::bedrock::{AccessSize, BExpr, BinOp, Cmd};
use rupicola::core::check::{check, check_with, CheckConfig, CheckError};
use rupicola::core::derive::DerivationNode;
use rupicola::core::fnspec::{ArgSpec, FnSpec, RetSpec};
use rupicola::core::{
    compile, Applied, CompileError, Compiler, StmtGoal, StmtLemma,
};
use rupicola::ext::standard_dbs;
use rupicola::lang::dsl::*;
use rupicola::lang::{ElemKind, Expr, Model};
use rupicola::sep::ScalarKind;

fn word_spec(name: &str) -> FnSpec {
    FnSpec::new(
        name,
        vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
        vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
    )
}

/// A deliberately wrong lemma: compiles `let y := x + 1` as `y = x + 2`.
/// The (untrusted) search accepts it; the (trusted) checker must not.
struct OffByOneLemma;

impl StmtLemma for OffByOneLemma {
    fn name(&self) -> &'static str {
        "bogus_let_plus_one"
    }
    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::Prim { op: rupicola::lang::PrimOp::WAdd, .. } = value.as_ref() else {
            return None;
        };
        let mut g = goal.clone();
        g.locals.set(
            name.clone(),
            rupicola::sep::SymValue::Scalar(ScalarKind::Word, Expr::Var(name.clone())),
        );
        g.prog = body.as_ref().clone();
        let (k_cmd, k_node) = match cx.compile_stmt(&g) {
            Ok(x) => x,
            Err(e) => return Some(Err(e)),
        };
        Some(Ok(Applied::Closed {
            cmd: Cmd::seq([
                Cmd::set(
                    name.clone(),
                    BExpr::op(BinOp::Add, BExpr::var("x"), BExpr::lit(2)), // wrong!
                ),
                k_cmd,
            ]),
            node: DerivationNode::leaf(self.name(), "bogus").with_child(k_node),
        }))
    }
}

#[test]
fn wrong_lemma_is_caught_by_differential_validation() {
    let model = Model::new("inc", ["x"], let_n("y", word_add(var("x"), word_lit(1)), var("y")));
    let mut dbs = standard_dbs();
    dbs.register_stmt_front(OffByOneLemma);
    let compiled = compile(&model, &word_spec("inc"), &dbs).unwrap();
    // The search happily used the bogus lemma…
    assert_eq!(compiled.derivation.root.lemma, "bogus_let_plus_one");
    // …and the checker rejects the result.
    let err = check(&compiled, &dbs).unwrap_err();
    assert!(matches!(err, CheckError::Mismatch { .. }), "got {err:?}");
}

#[test]
fn forged_witness_with_unknown_lemma_is_rejected() {
    let model = Model::new("idw", ["x"], var("x"));
    let dbs = standard_dbs();
    let mut compiled = compile(&model, &word_spec("idw"), &dbs).unwrap();
    compiled.derivation = rupicola::core::derive::Derivation::new(DerivationNode::leaf(
        "lemma_nobody_registered",
        "x",
    ));
    let err = check(&compiled, &dbs).unwrap_err();
    assert_eq!(err, CheckError::UnknownLemma("lemma_nobody_registered".into()));
}

#[test]
fn unsupported_construct_surfaces_residual_goal_not_wrong_code() {
    // General recursion is not in the source language; the closest thing —
    // an unregistered extern — must stop compilation with a readable goal.
    let model = Model::new(
        "mystery",
        ["x"],
        let_n("y", extern_op("collatz_step", vec![var("x")]), var("y")),
    );
    let err = compile(&model, &word_spec("mystery"), &standard_dbs()).unwrap_err();
    let CompileError::ResidualGoal { goal, hint } = err else {
        panic!("expected residual goal, got {err}");
    };
    assert!(goal.contains("collatz_step"), "{goal}");
    assert!(hint.contains("ExprLemma"), "{hint}");
}

#[test]
fn oob_code_traps_in_the_interpreter_and_fails_the_check() {
    // Hand-forge a compiled function that reads one past the end.
    let model = Model::new("peek_past", ["s"], array_len_b(var("s")));
    let spec = FnSpec::new(
        "peek_past",
        vec![
            ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
            ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
        ],
        vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
    );
    let dbs = standard_dbs();
    let mut compiled = compile(&model, &spec, &dbs).unwrap();
    compiled.function.body = Cmd::seq([
        Cmd::set(
            "out",
            BExpr::load(
                AccessSize::One,
                BExpr::op(BinOp::Add, BExpr::var("s"), BExpr::var("len")),
            ),
        ),
    ]);
    let err = check(&compiled, &dbs).unwrap_err();
    assert!(matches!(err, CheckError::TargetStuck { .. }), "got {err:?}");
}

#[test]
fn tampered_loop_invariant_is_rejected_at_the_loop_head() {
    // Take the valid upstr derivation and corrupt the recorded invariant's
    // map body; the runtime loop-head evaluation must disagree.
    let dbs = standard_dbs();
    let mut compiled = rupicola::programs::upstr::compiled().unwrap();
    fn corrupt(n: &mut DerivationNode) {
        if let Some(inv) = &mut n.invariant {
            if let rupicola::core::invariant::LoopInvariantKind::ArrayMapInPlace { f, .. } =
                &mut inv.kind
            {
                *f = byte_lit(0); // claims the loop zeroes the array
            }
        }
        for c in &mut n.children {
            corrupt(c);
        }
    }
    corrupt(&mut compiled.derivation.root);
    let err = check(&compiled, &dbs).unwrap_err();
    assert!(matches!(err, CheckError::InvariantViolated { .. }), "got {err:?}");
}

#[test]
fn late_corruption_of_a_finished_element_is_rejected_at_the_next_loop_head() {
    // upstr's map-in-place, with a body that at iteration 5 flips a bit
    // of element 0, finished four iterations earlier. The invariant covers
    // the whole array at every head, so the head right after the write
    // (counter 6) must object before the differential sees the output.
    let dbs = standard_dbs();
    let mut compiled = rupicola::programs::upstr::compiled().unwrap();
    let mut counter = None;
    compiled.derivation.root.walk(&mut |n| {
        if let Some(inv) = &n.invariant {
            counter = Some(inv.index_local.clone());
        }
    });
    let counter = counter.expect("upstr records its loop invariant");
    fn corrupt_at_5(c: &mut Cmd, counter: &str) {
        match c {
            Cmd::While { body, .. } => {
                let flip = Cmd::store(
                    AccessSize::One,
                    BExpr::var("s"),
                    BExpr::op(
                        BinOp::Xor,
                        BExpr::load(AccessSize::One, BExpr::var("s")),
                        BExpr::lit(0x80),
                    ),
                );
                let at_5 = BExpr::op(BinOp::Eq, BExpr::var(counter), BExpr::lit(5));
                let old = std::mem::replace(body.as_mut(), Cmd::Skip);
                **body = Cmd::seq([Cmd::if_(at_5, flip, Cmd::Skip), old]);
            }
            Cmd::Seq(a, b) => {
                corrupt_at_5(a, counter);
                corrupt_at_5(b, counter);
            }
            _ => {}
        }
    }
    corrupt_at_5(&mut compiled.function.body, &counter);
    let err = check(&compiled, &dbs).unwrap_err();
    match &err {
        CheckError::InvariantViolated { detail, .. } => {
            assert!(detail.starts_with("iteration 6: memory is"), "{detail}");
        }
        other => panic!("expected an invariant violation, got {other:?}"),
    }
}

#[test]
fn mutating_a_non_output_array_is_rejected() {
    // The model mutates `s` but the spec does not declare it an output —
    // the implicit ensures clause says the caller's memory is unchanged,
    // so the (otherwise internally consistent) compilation must not
    // certify.
    let model = Model::new(
        "sneaky_write",
        ["s"],
        let_n(
            "s",
            array_put_b(var("s"), word_lit(0), byte_lit(0xEE)),
            word_lit(7),
        ),
    );
    let spec = FnSpec::new(
        "sneaky_write",
        vec![
            ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
            ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
        ],
        vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
    )
    .with_hint(rupicola::core::Hyp::LtU(word_lit(0), array_len_b(var("s"))));
    let dbs = standard_dbs();
    let compiled = compile(&model, &spec, &dbs).unwrap();
    let err = check(&compiled, &dbs).unwrap_err();
    match &err {
        CheckError::Mismatch { detail, .. } => {
            assert!(detail.contains("not an output"), "{detail}");
        }
        other => panic!("expected a memory-footprint mismatch, got {other:?}"),
    }
}

#[test]
fn monadic_loop_cannot_smuggle_mutation_across_iterations() {
    // Inside a monadic loop body, a `put` rebinding is iteration-local at
    // the source level (the accumulator is the only loop-carried value),
    // but a naive compilation's store persists. The checker's footprint
    // comparison catches the divergence.
    use rupicola::core::fnspec::TraceSpec;
    use rupicola::core::MonadCtx;
    use rupicola::lang::MonadKind;
    let body = bind(
        MonadKind::Io,
        "s",
        ret(
            MonadKind::Io,
            array_put_b(var("s"), word_lit(0), byte_of_word(var("i"))),
        ),
        bind(
            MonadKind::Io,
            "_",
            io_write(word_of_byte(array_get_b(var("s"), word_lit(0)))),
            ret(MonadKind::Io, var("acc")),
        ),
    );
    let model = Model::new(
        "smuggle",
        ["s"],
        bind(
            MonadKind::Io,
            "acc",
            range_fold_m(MonadKind::Io, "i", "acc", body, word_lit(0), word_lit(1), word_lit(3)),
            ret(MonadKind::Io, var("acc")),
        ),
    );
    let spec = FnSpec::new(
        "smuggle",
        vec![
            ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
            ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
        ],
        vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
    )
    .with_monad(MonadCtx::Monadic(MonadKind::Io))
    .with_trace(TraceSpec::MirrorsSource)
    .with_hint(rupicola::core::Hyp::LtU(word_lit(0), array_len_b(var("s"))));
    let dbs = standard_dbs();
    // Either the compiler declines, or the checker rejects the result;
    // in no case does an unsound function certify.
    match compile(&model, &spec, &dbs) {
        Err(_) => {}
        Ok(compiled) => {
            let err = check(&compiled, &dbs).unwrap_err();
            assert!(matches!(err, CheckError::Mismatch { .. }), "got {err:?}");
        }
    }
}

/// A lemma with an injected implementation bug: it panics whenever it is
/// consulted. The engine must convert the panic into a typed error instead
/// of aborting the process.
struct PanickyLemma;

impl StmtLemma for PanickyLemma {
    fn name(&self) -> &'static str {
        "panicky"
    }
    fn try_apply(
        &self,
        _goal: &StmtGoal,
        _cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        panic!("injected lemma bug");
    }
}

#[test]
fn panicking_lemma_yields_typed_error_not_abort() {
    let model = Model::new("inc", ["x"], let_n("y", word_add(var("x"), word_lit(1)), var("y")));
    let mut dbs = standard_dbs();
    dbs.register_stmt_front(PanickyLemma);
    let err = compile(&model, &word_spec("inc"), &dbs).unwrap_err();
    let CompileError::LemmaPanicked { lemma, message, .. } = err else {
        panic!("expected LemmaPanicked, got {err}");
    };
    assert_eq!(lemma, "panicky");
    assert!(message.contains("injected lemma bug"), "{message}");
    // The pipeline survives: the same model compiles fine without the
    // faulty extension.
    let ok = compile(&model, &word_spec("inc"), &standard_dbs()).unwrap();
    check(&ok, &standard_dbs()).unwrap();
}

/// A non-productive lemma: it "makes progress" by recursing on the exact
/// same goal, so the search never terminates on its own.
struct LoopForeverLemma;

impl StmtLemma for LoopForeverLemma {
    fn name(&self) -> &'static str {
        "loop_forever"
    }
    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        Some(cx.compile_stmt(goal).map(|(cmd, node)| Applied::Closed {
            cmd,
            node: DerivationNode::leaf(self.name(), "loop").with_child(node),
        }))
    }
}

#[test]
fn non_productive_recursion_exhausts_budget_not_the_stack() {
    use rupicola::core::{compile_with_limits, EngineLimits, ResourceKind};
    let model = Model::new("idw", ["x"], var("x"));
    let mut dbs = standard_dbs();
    dbs.register_stmt_front(LoopForeverLemma);
    let err =
        compile_with_limits(&model, &word_spec("idw"), &dbs, EngineLimits::tight()).unwrap_err();
    let CompileError::ResourceExhausted { resource, limit, path } = err else {
        panic!("expected ResourceExhausted, got {err}");
    };
    assert!(
        matches!(resource, ResourceKind::RecursionDepth | ResourceKind::LemmaApplications),
        "got {resource}"
    );
    assert!(limit > 0);
    // The partial derivation path shows the runaway lemma.
    assert!(path.iter().any(|l| l == "loop_forever"), "{path:?}");
}

#[test]
fn expired_deadline_is_a_typed_error_not_a_hang() {
    use rupicola::core::{compile_with_limits, EngineLimits, ResourceKind};
    let model = Model::new("idw", ["x"], var("x"));
    let dbs = standard_dbs();
    // `Some(0)` means "no time at all": the first judgment entry trips
    // the deadline deterministically, with the usual typed error.
    let limits = EngineLimits::default().with_deadline_ms(0);
    let err = compile_with_limits(&model, &word_spec("idw"), &dbs, limits).unwrap_err();
    let CompileError::ResourceExhausted { resource, limit, .. } = err else {
        panic!("expected ResourceExhausted, got {err}");
    };
    assert!(matches!(resource, ResourceKind::WallClock), "got {resource}");
    assert_eq!(limit, 0);
    // And without a deadline the same request compiles fine.
    compile_with_limits(&model, &word_spec("idw"), &dbs, EngineLimits::default()).unwrap();
}

/// A lemma that burns through the fresh-name supply without producing
/// anything.
struct NameHogLemma;

impl StmtLemma for NameHogLemma {
    fn name(&self) -> &'static str {
        "name_hog"
    }
    fn try_apply(
        &self,
        _goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        loop {
            let _ = cx.fresh_var("hog");
        }
    }
}

#[test]
fn fresh_name_exhaustion_is_a_typed_error() {
    use rupicola::core::{compile_with_limits, EngineLimits, ResourceKind};
    let model = Model::new("idw", ["x"], var("x"));
    let mut dbs = standard_dbs();
    dbs.register_stmt_front(NameHogLemma);
    let err =
        compile_with_limits(&model, &word_spec("idw"), &dbs, EngineLimits::tight()).unwrap_err();
    let CompileError::ResourceExhausted { resource, .. } = err else {
        panic!("expected ResourceExhausted, got {err}");
    };
    assert!(matches!(resource, ResourceKind::FreshNames), "got {resource}");
}

/// A solver with an injected bug: it panics on every query. The engine
/// must treat it as "cannot solve" and fall through to the next solver.
struct PanickySolver;

impl rupicola::core::solver::SideSolver for PanickySolver {
    fn name(&self) -> &'static str {
        "panicky_solver"
    }
    fn solve(&self, _cond: &rupicola::core::SideCond, _hyps: &[rupicola::core::HypRef]) -> bool {
        panic!("injected solver bug");
    }
}

#[test]
fn panicking_solver_falls_through_to_the_next_one() {
    // Division generates a NonZero side condition; the panicking solver is
    // consulted first, and `lia` still discharges the obligation.
    let model = Model::new("div3", ["x"], let_n("y", word_divu(var("x"), word_lit(3)), var("y")));
    let mut dbs = standard_dbs();
    dbs.register_solver_front(PanickySolver);
    let compiled = compile(&model, &word_spec("div3"), &dbs).unwrap();
    let mut recorded = Vec::new();
    compiled.derivation.root.walk(&mut |n| {
        for sc in &n.side_conds {
            recorded.push(sc.solver.clone());
        }
    });
    assert!(recorded.iter().all(|s| s != "panicky_solver"), "{recorded:?}");
    assert!(recorded.iter().any(|s| s == "lia"), "{recorded:?}");
    check(&compiled, &dbs).unwrap();
}

#[test]
fn every_structural_mutant_class_is_killed_by_its_layer() {
    use rupicola::core::faultinject::{expect_killed, mutants, MutationClass};
    let dbs = standard_dbs();
    let config = CheckConfig { vectors: 6, ..CheckConfig::default() };
    let compiled = rupicola::programs::upstr::compiled().unwrap();
    let all = mutants(&compiled);
    // The always-generated classes must be present.
    for class in [MutationClass::ForgedSideCond, MutationClass::MismatchedRetSlot] {
        assert!(all.iter().any(|m| m.class == class), "no {class} mutants generated");
    }
    for m in all.iter().filter(|m| m.class.is_structural()) {
        let err = expect_killed(m, &dbs, &config)
            .unwrap_or_else(|| panic!("structural mutant survived: [{}] {}", m.class, m.description));
        match m.class {
            // Stale-counter corruptions die in the integrity layer.
            MutationClass::DroppedSideCond | MutationClass::TruncatedDerivation => {
                assert!(matches!(err, CheckError::WitnessCorrupted { .. }), "got {err:?}");
            }
            // A forged record has consistent counters; re-solving kills it.
            MutationClass::ForgedSideCond => {
                assert!(matches!(err, CheckError::SideCondition { .. }), "got {err:?}");
            }
            // ABI mismatches die in differential comparison.
            MutationClass::MismatchedRetSlot => {
                assert!(matches!(err, CheckError::Mismatch { .. }), "got {err:?}");
            }
            _ => unreachable!("filtered to structural classes"),
        }
    }
}

#[test]
fn fault_matrix_reports_full_structural_kill_rate() {
    use rupicola::core::faultinject::run_matrix;
    let dbs = standard_dbs();
    let config = CheckConfig { vectors: 6, ..CheckConfig::default() };
    for program in [
        rupicola::programs::fnv1a::compiled().unwrap(),
        rupicola::programs::m3s::compiled().unwrap(),
    ] {
        let matrix = run_matrix(&program, &dbs, &config);
        assert!(matrix.generated() > 0);
        assert!(
            matrix.structural_clean(),
            "{}: structural survivors: {:?}",
            program.function.name,
            matrix.survivors
        );
    }
}

#[test]
fn vacuous_preconditions_are_not_silent() {
    // A spec whose hints exclude every generated input must fail loudly
    // (insufficient coverage), not report success.
    let model = Model::new("idq", ["x"], var("x"));
    let spec = word_spec("idq").with_hint(rupicola::core::Hyp::LtU(var("x"), word_lit(0)));
    let dbs = standard_dbs();
    let compiled = compile(&model, &spec, &dbs).unwrap();
    let err = check_with(&compiled, &dbs, &CheckConfig::default()).unwrap_err();
    assert!(matches!(err, CheckError::InsufficientCoverage { .. }), "got {err:?}");
}
