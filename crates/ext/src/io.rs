//! The io monad (Table 1: `read`, `write`) and the generic monadic-bind
//! simplification.
//!
//! I/O maps to Bedrock2 `interact` commands: the environment supplies the
//! word for `io_read`, and `io_write` hands a word to the environment;
//! both land on the event trace, which the spec's `TraceSpec::MirrorsSource`
//! compares against the source program's effect log.
//!
//! [`MonadBindRet`] is the rule that makes pure lemmas monad-generic: "when
//! compiling a pure binding in a monadic computation (`bind (return a) k`),
//! the shape of the simplified term (`let x := a in k x`) allows us to
//! apply any lemma that supports `a`" (§3.4.1).

use rupicola_core::derive::DerivationNode;
use rupicola_core::{Applied, CompileError, Compiler, StmtGoal, StmtLemma};
use rupicola_bedrock::Cmd;
use rupicola_lang::{Expr, MonadKind};
use rupicola_sep::{ScalarKind, SymValue};

/// `bind (return a) k` ↦ `let x := a in k x`: one lemma makes the whole
/// pure fragment available inside every monad.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonadBindRet;

impl StmtLemma for MonadBindRet {
    fn name(&self) -> &'static str {
        "monad_bind_ret"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        _cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Bind { monad, name, ma, body } = &goal.prog else { return None };
        if !goal.monad.admits(*monad) {
            return None;
        }
        let Expr::Ret { monad: m2, value } = ma.as_ref() else { return None };
        if m2 != monad {
            return None;
        }
        let node = DerivationNode::leaf(self.name(), format!("bind (ret {value}) …"));
        let prog = Expr::Let { name: name.clone(), value: value.clone(), body: body.clone() };
        Some(Ok(Applied::then(Vec::new(), node, move |g| g.prog = prog)))
    }
}

/// `let/n! x := io.read() in k` — an `interact` whose response word binds
/// `x`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileIoRead;

impl StmtLemma for CompileIoRead {
    fn name(&self) -> &'static str {
        "compile_io_read"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        _cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Bind { monad: MonadKind::Io, name, ma, body } = &goal.prog else {
            return None;
        };
        if !goal.monad.admits(MonadKind::Io) || ma.as_ref() != &Expr::IoRead {
            return None;
        }
        let read = Cmd::Interact { rets: vec![name.clone()], action: "io_read".into(), args: vec![] };
        let node = DerivationNode::leaf(self.name(), format!("let/n! {name} := io.read()"));
        let (name, body) = (name.clone(), body.as_ref().clone());
        Some(Ok(Applied::then(vec![read], node, move |g| {
            g.locals.set(name.clone(), SymValue::Scalar(ScalarKind::Word, Expr::Var(name)));
            g.prog = body;
        })))
    }
}

/// `let/n! _ := io.write(e) in k` — an `interact` handing `e` to the
/// environment.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileIoWrite;

impl StmtLemma for CompileIoWrite {
    fn name(&self) -> &'static str {
        "compile_io_write"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Bind { monad: MonadKind::Io, name: _, ma, body } = &goal.prog else {
            return None;
        };
        if !goal.monad.admits(MonadKind::Io) {
            return None;
        }
        let Expr::IoWrite(e) = ma.as_ref() else { return None };
        Some(self.apply(goal, cx, e, body))
    }
}

impl CompileIoWrite {
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        e: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(self.name(), format!("io.write({e})"));
        let (e_c, c0) = cx.compile_expr(e, goal)?;
        node.children.push(c0);
        let write = Cmd::Interact { rets: vec![], action: "io_write".into(), args: vec![e_c] };
        let body = body.clone();
        Ok(Applied::then(vec![write], node, move |g| g.prog = body))
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
    fn echo_plus_one_reads_and_writes() {
        // let x := read() in let _ := write(x + 1) in ret x
        let model = Model::new(
            "echo1",
            Vec::<String>::new(),
            bind(
                MonadKind::Io,
                "x",
                io_read(),
                bind(
                    MonadKind::Io,
                    "_",
                    io_write(word_add(var("x"), word_lit(1))),
                    ret(MonadKind::Io, var("x")),
                ),
            ),
        );
        let spec = FnSpec::new(
            "echo1",
            vec![],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_monad(MonadCtx::Monadic(MonadKind::Io))
        .with_trace(TraceSpec::MirrorsSource);
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("io_read"), "{c}");
        assert!(c.contains("io_write"), "{c}");
    }

    #[test]
    fn pure_bindings_inside_io_use_pure_lemmas() {
        // bind (ret (x * 2)) k inside io — the MonadBindRet rule.
        let model = Model::new(
            "twice_io",
            ["x"],
            bind(
                MonadKind::Io,
                "y",
                ret(MonadKind::Io, word_mul(var("x"), word_lit(2))),
                bind(
                    MonadKind::Io,
                    "_",
                    io_write(var("y")),
                    ret(MonadKind::Io, var("y")),
                ),
            ),
        );
        let spec = FnSpec::new(
            "twice_io",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_monad(MonadCtx::Monadic(MonadKind::Io))
        .with_trace(TraceSpec::MirrorsSource);
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn io_in_pure_spec_is_rejected() {
        let model = Model::new(
            "sneaky",
            Vec::<String>::new(),
            bind(MonadKind::Io, "x", io_read(), ret(MonadKind::Io, var("x"))),
        );
        let spec = FnSpec::new(
            "sneaky",
            vec![],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        ); // Pure monad: io lemmas must not fire.
        let dbs = standard_dbs();
        assert!(compile(&model, &spec, &dbs).is_err());
    }
}
