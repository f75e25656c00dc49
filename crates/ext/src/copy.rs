//! The `copy` annotation (§3.4.1): "to indicate that a let-binding should
//! result in a copy instead of a mutation, a user might wrap the value
//! being bound in a call to a copy function of type `∀α. α → α`".
//!
//! Two lemmas:
//!
//! - [`CompileCopyScalar`] — on scalars, `copy` is operationally inert and
//!   reduces to the ordinary binding;
//! - [`CompileCopyArrayStack`] — on arrays whose length is known to the
//!   solver as a constant (e.g. stack buffers, or inputs with a length
//!   hint), the copy becomes a fresh stack allocation plus an element-wise
//!   copy loop; the original array's heaplet is untouched, so both names
//!   remain usable afterwards.

use crate::helpers::{access_size, heaplet_and_ptr, is_plain_scalar_value, kind_of, rebind_scalar};
use rupicola_core::derive::DerivationNode;
use rupicola_core::solver::{linearize, rewrite};
use rupicola_core::{Applied, CompileError, Compiler, Hyp, StmtGoal, StmtLemma};
use rupicola_bedrock::{BExpr, BinOp, Cmd};
use rupicola_lang::{ElemKind, Expr, Value};
use rupicola_sep::{Heaplet, HeapletKind, SymValue};

/// `let/n x := copy e in k` for scalar `e`: identical to the plain binding.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileCopyScalar;

impl StmtLemma for CompileCopyScalar {
    fn name(&self) -> &'static str {
        "compile_copy_scalar"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::Copy(inner) = value.as_ref() else { return None };
        if !is_plain_scalar_value(inner) {
            return None;
        }
        let kind = kind_of(cx.model, goal, inner)?;
        Some(self.apply(goal, cx, name, kind, inner, body))
    }
}

impl CompileCopyScalar {
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        kind: rupicola_sep::ScalarKind,
        inner: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let (e, c0) = cx.compile_expr(inner, goal)?;
        let k_goal = rebind_scalar(cx, goal, &name.to_string(), kind, inner, body);
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        let node = DerivationNode::leaf(self.name(), format!("let/n {name} := copy({inner})"))
            .with_child(c0)
            .with_child(k_node);
        Ok(Applied { cmd: Cmd::seq([Cmd::set(name.to_string(), e), k_cmd]), node })
    }
}

/// Extracts a constant length for an array term from the equational
/// hypotheses (stack allocations record `length t = n`; callers may supply
/// the same fact as a spec hint).
fn constant_len(goal: &StmtGoal, elem: ElemKind, arr: &Expr) -> Option<u64> {
    let len_term = Expr::ArrayLen { elem, arr: arr.clone().boxed() };
    let reduced = rewrite(&len_term, &goal.hyps, 8);
    let lin = linearize(&reduced);
    lin.as_constant().and_then(|c| u64::try_from(c).ok())
}

/// `let/n t := copy s in k` for an array `s` of solver-known constant
/// length: a stack allocation plus a copy loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileCopyArrayStack;

impl StmtLemma for CompileCopyArrayStack {
    fn name(&self) -> &'static str {
        "compile_copy_array_stack"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::Copy(inner) = value.as_ref() else { return None };
        let (id, src_ptr) = heaplet_and_ptr(goal, inner)?;
        let HeapletKind::Array { elem } = goal.heap.get(id)?.kind.clone() else { return None };
        let n = constant_len(goal, elem, inner)?;
        Some(self.apply(goal, cx, name, elem, n, &src_ptr, inner, body))
    }
}

impl CompileCopyArrayStack {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        elem: ElemKind,
        n: u64,
        src_ptr: &str,
        inner: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let node = DerivationNode::leaf(
            self.name(),
            format!("let/n {name} := copy({inner})   [{n} × {elem}]"),
        );
        let mut k_goal = goal.clone();
        let id = k_goal.heap.add(Heaplet {
            kind: HeapletKind::Array { elem },
            content: Expr::Var(name.to_string()),
            len: Some(Expr::ArrayLen { elem, arr: Expr::Var(name.to_string()).boxed() }),
            ptr_name: format!("&{name}"),
        });
        k_goal.locals.set(name.to_string(), SymValue::Ptr(id));
        k_goal.push_hyp(Hyp::EqWord(
            Expr::ArrayLen { elem, arr: Expr::Var(name.to_string()).boxed() },
            Expr::Lit(Value::Word(n)),
        ));
        k_goal.defs.push((name.to_string(), inner.clone()));
        k_goal.prog = body.clone();
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        let node = node.with_child(k_node);

        let width = elem.width();
        let i = cx.fresh_var("_c");
        let src_addr = BExpr::op(
            BinOp::Add,
            BExpr::var(src_ptr),
            BExpr::op(BinOp::Mul, BExpr::var(&i), BExpr::lit(width)),
        );
        let dst_addr = BExpr::op(
            BinOp::Add,
            BExpr::var(name),
            BExpr::op(BinOp::Mul, BExpr::var(&i), BExpr::lit(width)),
        );
        let copy_loop = Cmd::seq([
            Cmd::set(&i, BExpr::lit(0)),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var(&i), BExpr::lit(n)),
                Cmd::seq([
                    Cmd::store(
                        access_size(elem),
                        dst_addr,
                        BExpr::load(access_size(elem), src_addr),
                    ),
                    Cmd::set(&i, BExpr::op(BinOp::Add, BExpr::var(&i), BExpr::lit(1))),
                ]),
            ),
        ]);
        Ok(Applied {
            cmd: Cmd::StackAlloc {
                var: name.to_string(),
                nbytes: n * width,
                body: Box::new(Cmd::seq([copy_loop, k_cmd])),
            },
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
    use rupicola_core::Hyp;
    use rupicola_lang::dsl::*;
    use rupicola_lang::{ElemKind, Model, Value};
    use rupicola_sep::ScalarKind;

    #[test]
    fn scalar_copy_is_inert() {
        let model = Model::new(
            "cp",
            ["x"],
            let_n("y", copy(word_add(var("x"), word_lit(1))), var("y")),
        );
        let spec = FnSpec::new(
            "cp",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn array_copy_preserves_the_original() {
        // let t := copy s in let t := map f t in (t written back over s? no:
        // s is returned unchanged, t is scratch — the copy protects s).
        let model = Model::new(
            "protect",
            ["s"],
            let_n(
                "t",
                copy(var("s")),
                let_n(
                    "t",
                    array_map_b("b", byte_xor(var("b"), byte_lit(0xff)), var("t")),
                    let_n(
                        "r",
                        array_fold_b(
                            "acc",
                            "b",
                            word_add(var("acc"), word_of_byte(var("b"))),
                            word_lit(0),
                            var("t"),
                        ),
                        pair(var("r"), var("s")),
                    ),
                ),
            ),
        );
        let spec = FnSpec::new(
            "protect",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
            ],
            vec![
                RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word },
                RetSpec::InPlace { param: "s".into() },
            ],
        )
        // The copy needs a compile-time size: pin the length by hint.
        .with_hint(Hyp::EqWord(
            array_len_b(var("s")),
            rupicola_lang::Expr::Lit(Value::Word(8)),
        ));
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("t_buf[8]"), "{c}");
    }

    #[test]
    fn array_copy_without_known_length_is_residual() {
        let model = Model::new(
            "cpdyn",
            ["s"],
            let_n("t", copy(var("s")), var("t")),
        );
        let spec = FnSpec::new(
            "cpdyn",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
            ],
            vec![RetSpec::InPlace { param: "s".into() }],
        );
        let dbs = standard_dbs();
        assert!(compile(&model, &spec, &dbs).is_err());
    }
}
