//! Property-based compiler metatheory: on randomized well-formed models,
//! every successful derivation must pass the trusted checker — i.e. the
//! composed lemma library never produces a witness the validator rejects.

use rupicola::core::check::{check_with, CheckConfig};
use rupicola::core::fnspec::{ArgSpec, FnSpec, RetSpec};
use rupicola::ext::standard_dbs;
use rupicola::lang::dsl::*;
use rupicola::lang::{ElemKind, Expr, Model};
use rupicola::sep::ScalarKind;
use rupicola_minicheck::{check, Rng};

fn quick_config() -> CheckConfig {
    CheckConfig { vectors: 6, ..CheckConfig::default() }
}

/// Random pure word expressions over one variable (kind-correct by
/// construction).
fn arb_word_expr(rng: &mut Rng, var_name: &str, depth: usize) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => var(var_name),
            1 => word_lit(rng.below(1000)),
            _ => word_lit(rng.next_u64()),
        };
    }
    let a = arb_word_expr(rng, var_name, depth - 1);
    let b = arb_word_expr(rng, var_name, depth - 1);
    match rng.below(8) {
        0 => word_add(a, b),
        1 => word_sub(a, b),
        2 => word_mul(a, b),
        3 => word_and(a, b),
        4 => word_or(a, b),
        5 => word_xor(a, b),
        6 => word_shl(a, word_lit(7)),
        _ => word_shr(a, word_lit(3)),
    }
}

/// Random pure byte expressions over one variable.
fn arb_byte_expr(rng: &mut Rng, var_name: &str, depth: usize) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return if rng.bool() { var(var_name) } else { byte_lit(rng.byte()) };
    }
    let a = arb_byte_expr(rng, var_name, depth - 1);
    let b = arb_byte_expr(rng, var_name, depth - 1);
    match rng.below(6) {
        0 => byte_and(a, b),
        1 => byte_or(a, b),
        2 => byte_xor(a, b),
        3 => byte_add(a, b),
        4 => byte_sub(a, b),
        _ => byte_shr(a, byte_lit(1)),
    }
}

fn scalar_spec(name: &str) -> FnSpec {
    FnSpec::new(
        name,
        vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
        vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
    )
}

fn array_spec(name: &str, ret: RetSpec) -> FnSpec {
    FnSpec::new(
        name,
        vec![
            ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
            ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
        ],
        vec![ret],
    )
}

/// Chains of scalar lets over random word expressions compile and
/// certify, and the RV64 backend agrees with the Bedrock2 interpreter.
#[test]
fn straightline_models_certify() {
    check("straightline_models_certify", 24, |rng| {
        let e1 = arb_word_expr(rng, "x", 4);
        let e2 = arb_word_expr(rng, "y", 4);
        let x = rng.next_u64();
        let model = Model::new(
            "straight",
            ["x"],
            let_n("y", e1, let_n("z", e2, var("z"))),
        );
        let dbs = standard_dbs();
        let compiled = rupicola::core::compile(&model, &scalar_spec("straight"), &dbs).unwrap();
        check_with(&compiled, &dbs, &quick_config()).unwrap();
        // Cross-backend agreement on a random input.
        use rupicola::bedrock::{ExecState, Interpreter, Memory, NoExternals, Program};
        let mut program = Program::new();
        program.insert(compiled.function.clone());
        let interp = Interpreter::new(&program);
        let mut state = ExecState::new(Memory::new());
        let r1 = interp.call("straight", &[x], &mut state, &mut NoExternals, 100_000).unwrap();
        let art =
            rupicola::rv::lower_allocated(&compiled.function, &Default::default()).unwrap();
        let mut mem = Memory::new();
        let r2 = rupicola::rv::run_artifact(&art, &mut mem, &[x], 100_000).unwrap().rets;
        assert_eq!(r1, r2);
    });
}

/// In-place maps with random byte bodies compile and certify (with
/// runtime invariant checking at every loop head).
#[test]
fn random_map_models_certify() {
    check("random_map_models_certify", 24, |rng| {
        let f = arb_byte_expr(rng, "b", 3);
        let model = Model::new(
            "mapped",
            ["s"],
            let_n("s", array_map_b("b", f, var("s")), var("s")),
        );
        let dbs = standard_dbs();
        let compiled = rupicola::core::compile(
            &model,
            &array_spec("mapped", RetSpec::InPlace { param: "s".into() }),
            &dbs,
        )
        .unwrap();
        let report = check_with(&compiled, &dbs, &quick_config()).unwrap();
        assert!(report.invariant_checks > 0);
    });
}

/// Folds with random word bodies over (acc, element) compile and
/// certify.
#[test]
fn random_fold_models_certify() {
    check("random_fold_models_certify", 24, |rng| {
        let f0 = arb_word_expr(rng, "acc", 4);
        let init = rng.next_u64();
        // Mix the element in so the fold actually reads the array.
        let f = word_xor(f0, word_of_byte(var("b")));
        let model = Model::new(
            "folded",
            ["s"],
            let_n("h", array_fold_b("acc", "b", f, word_lit(init), var("s")), var("h")),
        );
        let dbs = standard_dbs();
        let compiled = rupicola::core::compile(
            &model,
            &array_spec("folded", RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }),
            &dbs,
        )
        .unwrap();
        check_with(&compiled, &dbs, &quick_config()).unwrap();
    });
}

/// Conditional bindings with random scalar branches certify, and the
/// branch condition's hypotheses never mislead the solver.
#[test]
fn random_conditionals_certify() {
    check("random_conditionals_certify", 24, |rng| {
        let t = arb_word_expr(rng, "x", 4);
        let e = arb_word_expr(rng, "x", 4);
        let c = rng.next_u64();
        let model = Model::new(
            "condy",
            ["x"],
            let_n(
                "y",
                ite(word_ltu(var("x"), word_lit(c)), t, e),
                var("y"),
            ),
        );
        let dbs = standard_dbs();
        let compiled = rupicola::core::compile(&model, &scalar_spec("condy"), &dbs).unwrap();
        check_with(&compiled, &dbs, &quick_config()).unwrap();
    });
}

/// Whole random *programs*: a chain of mixed statements — scalar lets,
/// in-place maps, folds, conditionals — over one array and one scalar,
/// assembled in random order. Every successful derivation certifies;
/// this is the composition stress test (ghost renaming, length
/// equations and loop invariants interacting across statements).
#[test]
fn random_statement_chains_certify() {
    check("random_statement_chains_certify", 24, |rng| {
        let n_steps = rng.range(1, 5);
        let steps: Vec<(u64, Expr, Expr)> = (0..n_steps)
            .map(|_| {
                (rng.below(4), arb_byte_expr(rng, "b", 3), arb_word_expr(rng, "x", 4))
            })
            .collect();
        let ret_scalar = rng.bool();
        // Build the body inside-out.
        let mut body = if ret_scalar {
            pair(var("x"), var("s"))
        } else {
            pair(word_lit(0), var("s"))
        };
        for (kind, bexpr, wexpr) in steps.into_iter().rev() {
            body = match kind {
                0 => let_n("s", array_map_b("b", bexpr, var("s")), body),
                1 => let_n(
                    "x",
                    array_fold_b("acc", "b", word_xor(var("acc"), word_of_byte(bexpr)), wexpr, var("s")),
                    body,
                ),
                2 => let_n("x", wexpr, body),
                _ => let_n(
                    "x",
                    ite(word_ltu(var("x"), word_lit(1000)), wexpr, var("x")),
                    body,
                ),
            };
        }
        let model = Model::new("chain", ["s", "x"], body);
        let spec = FnSpec::new(
            "chain",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word },
            ],
            vec![
                RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word },
                RetSpec::InPlace { param: "s".into() },
            ],
        );
        let dbs = standard_dbs();
        let compiled = rupicola::core::compile(&model, &spec, &dbs).unwrap();
        check_with(&compiled, &dbs, &quick_config()).unwrap();
    });
}

/// Two stacked maps (rebinding the same name twice) certify: the ghost
/// renaming discipline composes.
#[test]
fn stacked_maps_certify() {
    check("stacked_maps_certify", 24, |rng| {
        let f = arb_byte_expr(rng, "b", 3);
        let g = arb_byte_expr(rng, "b", 3);
        let model = Model::new(
            "twice",
            ["s"],
            let_n(
                "s",
                array_map_b("b", f, var("s")),
                let_n("s", array_map_b("b", g, var("s")), var("s")),
            ),
        );
        let dbs = standard_dbs();
        let compiled = rupicola::core::compile(
            &model,
            &array_spec("twice", RetSpec::InPlace { param: "s".into() }),
            &dbs,
        )
        .unwrap();
        check_with(&compiled, &dbs, &quick_config()).unwrap();
    });
}
