//! The writer monad (§4.1.1).
//!
//! The paper measures adding writer support at about an hour and a half,
//! "mapping writes to I/O trace operations at the Bedrock2 level" — which
//! is exactly what this lemma does: `tell w` becomes an `interact
//! "writer_tell" (w)` event, and the checker compares the collected
//! `writer_tell` events against the source's accumulated output, per the
//! writer lift law (see `rupicola-monads`).

use rupicola_core::derive::DerivationNode;
use rupicola_core::{Applied, CompileError, Compiler, StmtGoal, StmtLemma};
use rupicola_bedrock::Cmd;
use rupicola_lang::{Expr, MonadKind};

/// `let/n! _ := writer.tell(e) in k`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileWriterTell;

impl StmtLemma for CompileWriterTell {
    fn name(&self) -> &'static str {
        "compile_writer_tell"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Bind { monad: MonadKind::Writer, name: _, ma, body } = &goal.prog else {
            return None;
        };
        if !goal.monad.admits(MonadKind::Writer) {
            return None;
        }
        let Expr::WriterTell(e) = ma.as_ref() else { return None };
        Some(self.apply(goal, cx, e, body))
    }
}

impl CompileWriterTell {
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        e: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(self.name(), format!("writer.tell({e})"));
        let (e_c, c0) = cx.compile_expr(e, goal)?;
        node.children.push(c0);
        let mut k_goal = goal.clone();
        k_goal.prog = body.clone();
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        node.children.push(k_node);
        Ok(Applied {
            cmd: Cmd::seq([
                Cmd::Interact { rets: vec![], action: "writer_tell".into(), args: vec![e_c] },
                k_cmd,
            ]),
            node,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::standard_dbs;
    use rupicola_core::check::check;
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec, TraceSpec};
    use rupicola_core::MonadCtx;
    use rupicola_lang::dsl::*;
    use rupicola_lang::{Model, MonadKind};
    use rupicola_sep::ScalarKind;

    #[test]
    fn tell_twice_accumulates_in_order() {
        // The paper's example shape: a small writer program (§4.1.1).
        let model = Model::new(
            "tell2",
            ["x"],
            bind(
                MonadKind::Writer,
                "_",
                writer_tell(var("x")),
                bind(
                    MonadKind::Writer,
                    "_",
                    writer_tell(word_add(var("x"), word_lit(1))),
                    ret(MonadKind::Writer, word_lit(0)),
                ),
            ),
        );
        let spec = FnSpec::new(
            "tell2",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_monad(MonadCtx::Monadic(MonadKind::Writer))
        .with_trace(TraceSpec::MirrorsSource);
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert_eq!(c.matches("writer_tell").count(), 2, "{c}");
    }

    #[test]
    fn writer_with_pure_bindings() {
        // let y := x*x (pure, via MonadBindRet) in tell y; ret y.
        let model = Model::new(
            "square_tell",
            ["x"],
            bind(
                MonadKind::Writer,
                "y",
                ret(MonadKind::Writer, word_mul(var("x"), var("x"))),
                bind(
                    MonadKind::Writer,
                    "_",
                    writer_tell(var("y")),
                    ret(MonadKind::Writer, var("y")),
                ),
            ),
        );
        let spec = FnSpec::new(
            "square_tell",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_monad(MonadCtx::Monadic(MonadKind::Writer))
        .with_trace(TraceSpec::MirrorsSource);
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }
}
