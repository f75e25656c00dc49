//! Stack allocation of initialized objects (§4.1.2).
//!
//! "For programs that immediately initialize their stack-allocated objects,
//! we added a special identity function `stack`. When Rupicola sees
//! `let x := stack (term) in …`, it generates a stack allocation in
//! Bedrock2 and resumes compilation with the plain program
//! `let x := term in …`." The uninitialized variant (unspecified initial
//! contents, modelled with the nondeterminism monad) lives in
//! [`crate::nondet`].

use rupicola_core::derive::DerivationNode;
use rupicola_core::{Applied, CompileError, Compiler, Hyp, StmtGoal, StmtLemma};
use rupicola_bedrock::{AccessSize, BExpr, Cmd};
use rupicola_lang::{ElemKind, Expr, Value};
use rupicola_sep::{Heaplet, HeapletKind, SymValue};

/// `let/n x := stack (lit-array) in k` — a lexically scoped stack buffer,
/// initialized element by element.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileStackInit;

impl StmtLemma for CompileStackInit {
    fn name(&self) -> &'static str {
        "compile_stack_init"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        _cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::Stack(init) = value.as_ref() else { return None };
        // The allocation size must be a compile-time constant, so the
        // lemma matches literal initializers.
        let Expr::Lit(v) = init.as_ref() else { return None };
        let elem = match v {
            Value::ByteList(_) => ElemKind::Byte,
            Value::WordList(_) => ElemKind::Word,
            _ => return None,
        };
        Some(self.apply(name, elem, v.clone(), init, body))
    }
}

impl CompileStackInit {
    fn apply(
        &self,
        name: &str,
        elem: ElemKind,
        init: Value,
        init_term: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let node = DerivationNode::leaf(
            self.name(),
            format!("let/n {name} := stack({init_term})"),
        );
        let n = init.list_len().unwrap_or(0) as u64;
        let nbytes = n * elem.width();
        // Initialization stores.
        let mut stores = Vec::with_capacity(n as usize);
        for i in 0..n {
            let w = init
                .list_get(i as usize)
                .and_then(|e| e.to_scalar_word())
                .ok_or_else(|| CompileError::Internal("stack literal element".into()))?;
            let addr = BExpr::op(
                rupicola_bedrock::BinOp::Add,
                BExpr::var(name),
                BExpr::lit(i * elem.width()),
            );
            stores.push(Cmd::store(
                match elem {
                    ElemKind::Byte => AccessSize::One,
                    ElemKind::Word => AccessSize::Eight,
                },
                addr,
                BExpr::lit(w),
            ));
        }
        // Continuation with the new heaplet in scope.
        let (name, init_term, body) = (name.to_string(), init_term.clone(), body.clone());
        Ok(Applied::then_in_stack_alloc(name.clone(), nbytes, stores, node, move |g| {
            let len = Expr::ArrayLen { elem, arr: Expr::Var(name.clone()).boxed() };
            let id = g.heap.add(Heaplet {
                kind: HeapletKind::Array { elem },
                content: Expr::Var(name.clone()),
                len: Some(len.clone()),
                ptr_name: format!("&{name}"),
            });
            g.locals.set(name.clone(), SymValue::Ptr(id));
            g.push_hyp(Hyp::EqWord(len, Expr::Lit(Value::Word(n))));
            g.defs.push((name, init_term));
            g.prog = body;
        }))
    }
}

#[cfg(test)]
mod tests {
    use crate::standard_dbs;
    use rupicola_core::check::check;
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
    use rupicola_lang::dsl::*;
    use rupicola_lang::{Expr, Model, Value};
    use rupicola_sep::ScalarKind;

    #[test]
    fn stack_buffer_is_allocated_and_readable() {
        // let t := stack [10; 20; 30] in let b := t[x] in word_of_byte b
        let model = Model::new(
            "scratch",
            ["x"],
            let_n(
                "t",
                stack(Expr::Lit(Value::byte_list([10, 20, 30]))),
                let_n(
                    "b",
                    array_get_b(var("t"), word_and(var("x"), word_lit(1))),
                    word_of_byte(var("b")),
                ),
            ),
        );
        let spec = FnSpec::new(
            "scratch",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("t_buf[3]"), "{c}");
    }

    #[test]
    fn stack_word_buffer() {
        let model = Model::new(
            "wscratch",
            Vec::<String>::new(),
            let_n(
                "t",
                stack(Expr::Lit(Value::word_list([7, 8]))),
                let_n("w", array_get_w(var("t"), word_lit(1)), var("w")),
            ),
        );
        let spec = FnSpec::new(
            "wscratch",
            vec![],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn non_literal_stack_is_residual() {
        // Stack allocation needs a compile-time size; a dynamic init is a
        // residual goal (the user should copy explicitly or extend).
        let model = Model::new(
            "dyn",
            ["s"],
            let_n("t", stack(var("s")), var("t")),
        );
        let spec = FnSpec::new(
            "dyn",
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
            ],
            vec![RetSpec::InPlace { param: "s".into() }],
        );
        let dbs = standard_dbs();
        let err = compile(&model, &spec, &dbs).unwrap_err();
        assert!(matches!(err, rupicola_core::CompileError::ResidualGoal { .. }));
    }
}
