//! The generic named scalar binding: `let/n x := e in k`.
//!
//! "Rupicola expects input programs to be sequences of let-bindings, one
//! per desired assignment in the target language" (§3.4.1). This lemma
//! turns one scalar binding into one Bedrock2 assignment; the binder's
//! *name* becomes the local's name, which is how the user controls the
//! generated code. It deliberately matches only the plain-scalar fragment
//! — every other right-hand side (iteration, mutation, conditionals,
//! allocation, monadic operations) has its own, more specific lemma that
//! registers earlier in the database.

use crate::helpers::{is_plain_scalar_value, kind_of, rebind_scalar};
use rupicola_core::derive::DerivationNode;
use rupicola_core::{Applied, CompileError, Compiler, StmtGoal, StmtLemma};
use rupicola_bedrock::Cmd;
use rupicola_lang::Expr;

/// `let/n x := e in k` where `e` is a Bedrock2-expressible scalar.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileLetScalar;

impl StmtLemma for CompileLetScalar {
    fn name(&self) -> &'static str {
        "compile_let_scalar"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        if !is_plain_scalar_value(value) {
            return None;
        }
        // Extern operations are word-valued by convention (wrap in a cast
        // to bind at another kind); everything else must infer.
        let kind = match kind_of(cx.model, goal, value) {
            Some(k) => k,
            None if matches!(value.as_ref(), Expr::Extern { .. }) => {
                rupicola_sep::ScalarKind::Word
            }
            None => return None,
        };
        Some(self.apply(goal, cx, name, kind, value, body))
    }
}

impl CompileLetScalar {
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        kind: rupicola_sep::ScalarKind,
        value: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let (e, value_node) = cx.compile_expr(value, goal)?;
        let edit = rebind_scalar(cx, goal, &name.to_string(), kind, value, body);
        let node =
            DerivationNode::leaf(self.name(), cx.focus_let(name, value)).with_child(value_node);
        Ok(Applied::then(vec![Cmd::set(name.to_string(), e)], node, edit))
    }
}

/// `let/n p := (a, b) in k` — a pair of scalars binds *two* locals,
/// `p_fst` and `p_snd`; the continuation reaches the components through
/// `fst p` / `snd p`, which the expression compiler resolves to those
/// locals.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileLetPair;

impl StmtLemma for CompileLetPair {
    fn name(&self) -> &'static str {
        "compile_let_pair"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::Pair(a, b) = value.as_ref() else { return None };
        if !is_plain_scalar_value(a) || !is_plain_scalar_value(b) {
            return None;
        }
        let ka = kind_of(cx.model, goal, a)?;
        let kb = kind_of(cx.model, goal, b)?;
        Some(self.apply(goal, cx, name, ka, kb, a, b, body))
    }
}

impl CompileLetPair {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        ka: rupicola_sep::ScalarKind,
        kb: rupicola_sep::ScalarKind,
        a: &Expr,
        b: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node =
            DerivationNode::leaf(self.name(), format!("let/n {name} := ({a}, {b})"));
        let (ea, c0) = cx.compile_expr(a, goal)?;
        let (eb, c1) = cx.compile_expr(b, goal)?;
        node.children.push(c0);
        node.children.push(c1);
        let (fst_local, snd_local) = (format!("{name}_fst"), format!("{name}_snd"));
        let cmds = vec![Cmd::set(fst_local.clone(), ea), Cmd::set(snd_local.clone(), eb)];
        let (name, a, b, body) = (name.to_string(), a.clone(), b.clone(), body.clone());
        Ok(Applied::then(cmds, node, move |g| {
            let me = Expr::Var(name.clone());
            g.locals.set(
                fst_local,
                rupicola_sep::SymValue::Scalar(ka, Expr::Fst(me.clone().boxed())),
            );
            g.locals.set(
                snd_local,
                rupicola_sep::SymValue::Scalar(kb, Expr::Snd(me.clone().boxed())),
            );
            g.push_hyp(rupicola_core::Hyp::EqWord(Expr::Fst(me.clone().boxed()), a.clone()));
            g.push_hyp(rupicola_core::Hyp::EqWord(Expr::Snd(me.boxed()), b.clone()));
            g.defs.push((name, Expr::Pair(a.boxed(), b.boxed())));
            g.prog = body;
        }))
    }
}

#[cfg(test)]
mod tests {
    use crate::standard_dbs;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
    use rupicola_core::{check::check, compile};
    use rupicola_bedrock::{BExpr, BinOp, Cmd};
    use rupicola_lang::dsl::*;
    use rupicola_lang::Model;
    use rupicola_sep::ScalarKind;

    fn scalar_spec(name: &str, params: &[&str]) -> FnSpec {
        FnSpec::new(
            name,
            params
                .iter()
                .map(|p| ArgSpec::Scalar {
                    name: (*p).to_string(),
                    param: (*p).to_string(),
                    kind: ScalarKind::Word,
                })
                .collect(),
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
    }

    #[test]
    fn straightline_lets_become_assignments() {
        // let a := x + 1 in let b := a * 2 in b
        let model = Model::new(
            "f",
            ["x"],
            let_n(
                "a",
                word_add(var("x"), word_lit(1)),
                let_n("b", word_mul(var("a"), word_lit(2)), var("b")),
            ),
        );
        let dbs = standard_dbs();
        let out = compile(&model, &scalar_spec("f", &["x"]), &dbs).unwrap();
        assert_eq!(out.function.body.statement_count(), 3); // a, b, out
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn rebinding_the_same_name_works() {
        // let x := x + 1 in let x := x + 1 in x
        let model = Model::new(
            "inc2",
            ["x"],
            let_n(
                "x",
                word_add(var("x"), word_lit(1)),
                let_n("x", word_add(var("x"), word_lit(1)), var("x")),
            ),
        );
        let dbs = standard_dbs();
        let out = compile(&model, &scalar_spec("inc2", &["x"]), &dbs).unwrap();
        check(&out, &dbs).unwrap();
        // Both assignments target the same local.
        match &out.function.body {
            Cmd::Seq(first, _) => assert_eq!(
                **first,
                Cmd::set("x", BExpr::op(BinOp::Add, BExpr::var("x"), BExpr::lit(1)))
            ),
            other => panic!("unexpected body: {other:?}"),
        }
    }

    #[test]
    fn pair_bindings_project_to_two_locals() {
        // let p := (x + 1, x * 2) in fst p + snd p
        let model = Model::new(
            "pairy",
            ["x"],
            let_n(
                "p",
                pair(word_add(var("x"), word_lit(1)), word_mul(var("x"), word_lit(2))),
                word_add(fst(var("p")), snd(var("p"))),
            ),
        );
        let dbs = standard_dbs();
        let out = compile(&model, &scalar_spec("pairy", &["x"]), &dbs).unwrap();
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("p_fst"), "{c}");
        assert!(c.contains("p_snd"), "{c}");
    }

    #[test]
    fn array_get_value_binds() {
        // let b := s[i] in word_of_byte b — via the expression judgment.
        let model = Model::new(
            "nth",
            ["s", "i"],
            let_n(
                "b",
                array_get_b(var("s"), var("i")),
                word_of_byte(var("b")),
            ),
        );
        let spec = FnSpec::new(
            "nth",
            vec![
                ArgSpec::ArrayPtr {
                    name: "s".into(),
                    param: "s".into(),
                    elem: rupicola_lang::ElemKind::Byte,
                },
                ArgSpec::LenOf {
                    name: "len".into(),
                    param: "s".into(),
                    elem: rupicola_lang::ElemKind::Byte,
                },
                ArgSpec::Scalar { name: "i".into(), param: "i".into(), kind: ScalarKind::Word },
            ],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_hint(rupicola_core::Hyp::LtU(var("i"), array_len_b(var("s"))));
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }
}
