//! External function calls: linking against separately verified Bedrock2.
//!
//! Bedrock2 supports "linking against separately compiled (or handwritten)
//! verified fragments" (§3.2); Rupicola's feature list includes "external
//! function calls" (§3). A [`CallLemma`] maps a source-level operation
//! (`Extern { tag, … }`) to a `call` of a user-supplied Bedrock2 function:
//! the callee is registered with the compiler ([`rupicola_core::Compiler::link`])
//! and ships with the compiled artifact, and the checker validates the
//! *pair* — the source operation's semantics against the linked program —
//! differentially.

use rupicola_core::derive::DerivationNode;
use rupicola_core::{Applied, CompileError, Compiler, StmtGoal, StmtLemma};
use rupicola_bedrock::{BFunction, Cmd};
use rupicola_lang::Expr;
use rupicola_sep::{ScalarKind, SymValue};
use std::fmt;

/// Compiles `let/n x := op(args…) in k` to `x = callee(args…)` for a
/// word-valued operation backed by a verified Bedrock2 callee.
#[derive(Clone)]
pub struct CallLemma {
    tag: String,
    callee: BFunction,
}

impl fmt::Debug for CallLemma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CallLemma")
            .field("tag", &self.tag)
            .field("callee", &self.callee.name)
            .finish()
    }
}

impl CallLemma {
    /// Creates a call lemma binding the source operation `tag` to `callee`.
    ///
    /// The callee must take word arguments (one per operation argument)
    /// and return exactly one word.
    pub fn new(tag: impl Into<String>, callee: BFunction) -> Self {
        CallLemma { tag: tag.into(), callee }
    }
}

impl StmtLemma for CallLemma {
    fn name(&self) -> &'static str {
        "compile_extern_call"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::Extern { tag, args } = value.as_ref() else { return None };
        if tag != &self.tag {
            return None;
        }
        if args.len() != self.callee.args.len() || self.callee.rets.len() != 1 {
            return Some(Err(CompileError::Spec(format!(
                "call lemma for `{tag}`: callee `{}` has arity {}→{}, operation has {} argument(s)",
                self.callee.name,
                self.callee.args.len(),
                self.callee.rets.len(),
                args.len(),
            ))));
        }
        Some(self.apply(goal, cx, name, args, body))
    }
}

impl CallLemma {
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        args: &[Expr],
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(
            self.name(),
            format!("let/n {name} := {}(…) ↝ call {}", self.tag, self.callee.name),
        );
        let mut arg_es = Vec::with_capacity(args.len());
        for a in args {
            let (e, c) = cx.compile_expr(a, goal)?;
            arg_es.push(e);
            node.children.push(c);
        }
        cx.link(self.callee.clone());
        let call =
            Cmd::Call { rets: vec![name.to_string()], func: self.callee.name.clone(), args: arg_es };
        let op = Expr::Extern { tag: self.tag.clone(), args: args.to_vec() };
        let record_def = !args.iter().any(Expr::is_monadic);
        let (name, body) = (name.to_string(), body.clone());
        Ok(Applied::then(vec![call], node, move |g| {
            g.locals.set(name.clone(), SymValue::Scalar(ScalarKind::Word, Expr::Var(name.clone())));
            g.push_hyp(rupicola_core::Hyp::EqWord(Expr::Var(name.clone()), op.clone()));
            if record_def {
                g.defs.push((name, op));
            }
            g.prog = body;
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_dbs;
    use rupicola_core::check::{check_with, CheckConfig};
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
    use rupicola_bedrock::{BExpr, BinOp};
    use rupicola_lang::dsl::*;
    use rupicola_lang::{Model, Value};

    /// A separately "verified" Bedrock2 fragment: fused multiply-add.
    fn muladd_callee() -> BFunction {
        BFunction::new(
            "muladd",
            ["a", "b", "c"],
            ["r"],
            Cmd::set(
                "r",
                BExpr::op(
                    BinOp::Add,
                    BExpr::op(BinOp::Mul, BExpr::var("a"), BExpr::var("b")),
                    BExpr::var("c"),
                ),
            ),
        )
    }

    fn spec() -> FnSpec {
        FnSpec::new(
            "axpy",
            vec![
                ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word },
                ArgSpec::Scalar { name: "y".into(), param: "y".into(), kind: ScalarKind::Word },
            ],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
    }

    #[test]
    fn extern_calls_link_and_validate() {
        // axpy x y := let r := muladd(3, x, y) in r + 1
        let model = Model::new(
            "axpy",
            ["x", "y"],
            let_n(
                "r",
                extern_op("muladd", vec![word_lit(3), var("x"), var("y")]),
                word_add(var("r"), word_lit(1)),
            ),
        );
        let mut dbs = standard_dbs();
        dbs.register_stmt_front(CallLemma::new("muladd", muladd_callee()));
        let out = compile(&model, &spec(), &dbs).unwrap();
        assert_eq!(out.linked.len(), 1);
        let mut config = CheckConfig::default();
        config.externs.register_fn("muladd", 3, |args| {
            let (a, b, c) = (
                args[0].as_word().unwrap_or(0),
                args[1].as_word().unwrap_or(0),
                args[2].as_word().unwrap_or(0),
            );
            Ok(Value::Word(a.wrapping_mul(b).wrapping_add(c)))
        });
        check_with(&out, &dbs, &config).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("muladd("), "{c}");
    }

    #[test]
    fn wrong_callee_is_caught() {
        // The callee computes a*b - c instead of a*b + c.
        let mut bad = muladd_callee();
        bad.body = Cmd::set(
            "r",
            BExpr::op(
                BinOp::Sub,
                BExpr::op(BinOp::Mul, BExpr::var("a"), BExpr::var("b")),
                BExpr::var("c"),
            ),
        );
        let model = Model::new(
            "axpy",
            ["x", "y"],
            let_n(
                "r",
                extern_op("muladd", vec![word_lit(3), var("x"), var("y")]),
                var("r"),
            ),
        );
        let mut dbs = standard_dbs();
        dbs.register_stmt_front(CallLemma::new("muladd", bad));
        let out = compile(&model, &spec(), &dbs).unwrap();
        let mut config = CheckConfig::default();
        config.externs.register_fn("muladd", 3, |args| {
            let (a, b, c) = (
                args[0].as_word().unwrap_or(0),
                args[1].as_word().unwrap_or(0),
                args[2].as_word().unwrap_or(0),
            );
            Ok(Value::Word(a.wrapping_mul(b).wrapping_add(c)))
        });
        let err = check_with(&out, &dbs, &config).unwrap_err();
        assert!(matches!(err, rupicola_core::check::CheckError::Mismatch { .. }), "{err:?}");
    }

    #[test]
    fn arity_mismatch_is_a_spec_error() {
        let model = Model::new(
            "oops",
            ["x"],
            let_n("r", extern_op("muladd", vec![var("x")]), var("r")),
        );
        let spec = FnSpec::new(
            "oops",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let mut dbs = standard_dbs();
        dbs.register_stmt_front(CallLemma::new("muladd", muladd_callee()));
        let err = compile(&model, &spec, &dbs).unwrap_err();
        assert!(matches!(err, CompileError::Spec(_)), "{err:?}");
    }
}
