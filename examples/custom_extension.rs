//! User-facing extensibility: adding a new operation to the compiler.
//!
//! The §4.1.1 experience: a user wants a saturating increment `sat_inc`
//! in their models. The recipe is (1) register the operation's semantics,
//! (2) plug an unfolding hint (or a bespoke lemma) into the hint
//! databases, (3) compile — and when step 2 is skipped, the compiler does
//! not guess: it prints the residual goal from which "the shape of missing
//! lemmas" can be read off.
//!
//! Run with `cargo run --example custom_extension`.

use rupicola::bedrock::{BExpr, BinOp, Cmd};
use rupicola::core::check::{check_with, CheckConfig};
use rupicola::core::derive::DerivationNode;
use rupicola::core::fnspec::{ArgSpec, FnSpec, RetSpec};
use rupicola::core::{Applied, CompileError, Compiler, StmtGoal, StmtLemma};
use rupicola::ext::helpers::rebind_scalar;
use rupicola::ext::standard_dbs;
use rupicola::ext::unfold::UnfoldExpr;
use rupicola::lang::dsl::*;
use rupicola::lang::{Expr, Model, Value};
use rupicola::sep::ScalarKind;

/// The bespoke-lemma route for `let/n y := sat_inc(x) in k`: emit
/// `y = x + (x < MAX)`, then hand the continuation `k` back to the engine.
/// The lemma decides and compiles its prefix from the goal it is shown;
/// the goal edit (bind `y`, record its definition, focus on `k`) runs only
/// once the lemma has applied, and the engine compiles the continuation.
struct SatIncLet;

impl StmtLemma for SatIncLet {
    fn name(&self) -> &'static str {
        "compile_sat_inc"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::Extern { tag, args } = value.as_ref() else { return None };
        if tag != "sat_inc" || args.len() != 1 {
            return None;
        }
        Some(cx.compile_expr(&args[0], goal).map(|(x, x_node)| {
            let bump = BExpr::op(BinOp::LtU, x.clone(), BExpr::lit(u64::MAX));
            let cmd = Cmd::set(name.clone(), BExpr::op(BinOp::Add, x, bump));
            let node = DerivationNode::leaf(self.name(), cx.focus_let(name, value)).with_child(x_node);
            let edit = rebind_scalar(cx, goal, name, ScalarKind::Word, value, body);
            Applied::then(vec![cmd], node, edit)
        }))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A model using an operation the standard compiler has never heard of.
    let model = Model::new(
        "bump",
        ["x"],
        let_n("y", extern_op("sat_inc", vec![var("x")]), var("y")),
    );
    let spec = FnSpec::new(
        "bump",
        vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
        vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
    );

    // Step 0: without an extension, compilation stops at a residual goal.
    let plain = standard_dbs();
    match rupicola::core::compile(&model, &spec, &plain) {
        Err(e) => println!("== without the extension, the compiler asks for guidance ==\n{e}\n"),
        Ok(_) => unreachable!("sat_inc is not in the standard databases"),
    }

    // Step 1: the operation's semantics (used by evaluation & validation).
    let mut config = CheckConfig::default();
    config.externs.register_fn("sat_inc", 1, |args| {
        let x = args[0].as_word().unwrap_or(0);
        Ok(Value::Word(x.saturating_add(1)))
    });

    // Step 2: the compilation hint — a branchless unfolding:
    //   sat_inc x = x + (x < MAX)   (adds 1 except at the top, where +0).
    let mut dbs = standard_dbs();
    dbs.register_expr(UnfoldExpr::new("sat_inc", |args| {
        let x = args[0].clone();
        word_add(
            x.clone(),
            word_of_bool(word_ltu(x, word_lit(u64::MAX))),
        )
    }));

    // Step 3: compile and validate.
    let compiled = rupicola::core::compile(&model, &spec, &dbs)?;
    let report = check_with(&compiled, &dbs, &config)?;
    println!(
        "== with the extension ==\nderivation:\n{}\nchecked on {} vectors ✓\n",
        compiled.derivation, report.vectors_run
    );
    println!(
        "generated C:\n{}",
        rupicola::bedrock::cprint::function_to_c(&compiled.function)
    );

    // Step 2, the other way: a bespoke statement lemma, registered ahead
    // of the generic binding, that hands its continuation back.
    let mut bespoke = standard_dbs();
    bespoke.register_stmt_front(SatIncLet);
    let compiled = rupicola::core::compile(&model, &spec, &bespoke)?;
    let report = check_with(&compiled, &bespoke, &config)?;
    println!(
        "== with a bespoke statement lemma ==\nderivation:\n{}\nchecked on {} vectors ✓\n",
        compiled.derivation, report.vectors_run
    );

    // A *wrong* unfolding does not certify: the checker rejects it.
    let mut wrong = standard_dbs();
    wrong.register_expr(UnfoldExpr::new("sat_inc", |args| {
        word_add(args[0].clone(), word_lit(2)) // off by one: not an increment
    }));
    let miscompiled = rupicola::core::compile(&model, &spec, &wrong)?;
    let err = check_with(&miscompiled, &wrong, &config)
        .expect_err("the checker must reject the wrong unfolding");
    println!("== a wrong extension is caught by the checker ==\n{err}");
    Ok(())
}
