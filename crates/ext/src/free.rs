//! The generic free monad: arbitrary environment commands.
//!
//! A free-monad command `op tag args` compiles to a Bedrock2 `interact`
//! with the same tag; the environment (at validation time, the checker's
//! external handler wrapping the model's effect registry) interprets it.
//! This is the most general extensional effect: io, randomness, device
//! access, … anything the environment can answer with a word.

use rupicola_core::derive::DerivationNode;
use rupicola_core::{Applied, CompileError, Compiler, StmtGoal, StmtLemma};
use rupicola_bedrock::Cmd;
use rupicola_lang::{Expr, MonadKind};
use rupicola_sep::{ScalarKind, SymValue};

/// `let/n! x := op tag (args…) in k`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileFreeOp;

impl StmtLemma for CompileFreeOp {
    fn name(&self) -> &'static str {
        "compile_free_op"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Bind { monad: MonadKind::Free, name, ma, body } = &goal.prog else {
            return None;
        };
        if !goal.monad.admits(MonadKind::Free) {
            return None;
        }
        let Expr::FreeOp { tag, args } = ma.as_ref() else { return None };
        Some(self.apply(goal, cx, name, tag, args, body))
    }
}

impl CompileFreeOp {
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        tag: &str,
        args: &[Expr],
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node =
            DerivationNode::leaf(self.name(), format!("let/n! {name} := {tag}(…)"));
        let mut arg_es = Vec::with_capacity(args.len());
        for a in args {
            let (e, c) = cx.compile_expr(a, goal)?;
            arg_es.push(e);
            node.children.push(c);
        }
        let op = Cmd::Interact { rets: vec![name.to_string()], action: tag.to_string(), args: arg_es };
        let (name, body) = (name.to_string(), body.clone());
        Ok(Applied::then(vec![op], node, move |g| {
            g.locals.set(name.clone(), SymValue::Scalar(ScalarKind::Word, Expr::Var(name)));
            g.prog = body;
        }))
    }
}

#[cfg(test)]
mod tests {
    use crate::standard_dbs;
    use rupicola_core::check::{check_with, CheckConfig};
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec, TraceSpec};
    use rupicola_core::MonadCtx;
    use rupicola_lang::dsl::*;
    use rupicola_lang::{Model, MonadKind, Value};
    use rupicola_sep::ScalarKind;

    #[test]
    fn free_commands_become_interactions() {
        // Two "sensor" reads summed; the handler doubles its argument and
        // reports the result word on the trace.
        let model = Model::new(
            "sense2",
            ["x"],
            bind(
                MonadKind::Free,
                "a",
                free_op("sensor", vec![var("x")]),
                bind(
                    MonadKind::Free,
                    "b",
                    free_op("sensor", vec![var("a")]),
                    ret(MonadKind::Free, word_add(var("a"), var("b"))),
                ),
            ),
        );
        let spec = FnSpec::new(
            "sense2",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_monad(MonadCtx::Monadic(MonadKind::Free))
        .with_trace(TraceSpec::MirrorsSource);
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        let mut config = CheckConfig::default();
        config.externs.register_effect("sensor", |args| {
            let w = args[0].as_word().unwrap_or(0).wrapping_mul(2);
            Ok((Value::Word(w), vec![w]))
        });
        check_with(&out, &dbs, &config).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert_eq!(c.matches("sensor").count(), 2, "{c}");
    }
}
