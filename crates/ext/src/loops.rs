//! Ranged folds: numeric loops, with and without early exit (§3, §3.4.2).
//!
//! `fold_range from to (fun i acc => f) init` is the compilation image of
//! `Nat.iter`-style loops; its invariant is the closed-form "state after
//! `n` iterations" term of §3.4.2. The early-exit variant compiles folds
//! whose body returns a `(continue?, acc')` pair with literal continuation
//! flags, yielding the `while (c && i < n)` shape of handwritten search
//! loops.

use crate::helpers::{kind_of, loop_body_goal, loop_counter_local, rebind_scalar};
use rupicola_core::derive::DerivationNode;
use rupicola_core::invariant::{LoopInvariant, LoopInvariantKind};
use rupicola_core::{Applied, CompileError, Compiler, Dispatch, HeadKey, Hyp, StmtGoal, StmtLemma};
use rupicola_bedrock::{BExpr, BinOp, Cmd};
use rupicola_lang::{Expr, Value};
use rupicola_sep::ScalarKind;

/// `let/n a := fold_range from to (fun i acc => f) init in k`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileRangeFold;

impl StmtLemma for CompileRangeFold {
    fn name(&self) -> &'static str {
        "compile_range_fold"
    }

    fn dispatch(&self) -> Dispatch {
        Dispatch::Heads(&[HeadKey::Let])
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::RangeFold { i, acc, f, init, from, to } = value.as_ref() else {
            return None;
        };
        let acc_kind = kind_of(cx.model, goal, init)?;
        Some(self.apply(goal, cx, name, i, acc, f, init, from, to, acc_kind, value, body))
    }
}

impl CompileRangeFold {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        i: &str,
        acc: &str,
        f: &Expr,
        init: &Expr,
        from: &Expr,
        to: &Expr,
        acc_kind: ScalarKind,
        value: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(self.name(), cx.focus_let(name, value));
        let (init_e, c0) = cx.compile_expr(init, goal)?;
        let (from_e, c1) = cx.compile_expr(from, goal)?;
        let (to_e, c2) = cx.compile_expr(to, goal)?;
        node.children.push(c0);
        node.children.push(c1);
        node.children.push(c2);

        let i_var = loop_counter_local(cx, goal, &i.to_string());
        let body_goal = {
            let mut g = loop_body_goal(
                cx,
                goal,
                &[
                    (i.to_string(), i_var.clone(), ScalarKind::Word),
                    (acc.to_string(), name.to_string(), acc_kind),
                ],
                vec![
                    Hyp::LeU(from.clone(), Expr::Var(i.to_string())),
                    Hyp::LtU(Expr::Var(i.to_string()), to.clone()),
                ],
            );
            g.prog = f.clone();
            g
        };
        let (f_e, c_f) = cx.compile_expr(f, &body_goal)?;
        node.children.push(c_f);

        node.invariant = Some(LoopInvariant {
            index_local: i_var.clone(),
            bindings: goal.binding_defs(),
            kind: LoopInvariantKind::RangeFoldScalar {
                acc_local: name.to_string(),
                i: i.to_string(),
                acc: acc.to_string(),
                f: f.clone(),
                init: init.clone(),
                from: from.clone(),
            },
        });

        let k_goal = rebind_scalar(cx, goal, &name.to_string(), acc_kind, value, body);
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        node.children.push(k_node);

        let cmd = Cmd::seq([
            Cmd::set(name.to_string(), init_e),
            Cmd::set(&i_var, from_e),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var(&i_var), to_e),
                Cmd::seq([
                    Cmd::set(name.to_string(), f_e),
                    Cmd::set(&i_var, BExpr::op(BinOp::Add, BExpr::var(&i_var), BExpr::lit(1))),
                ]),
            ),
            k_cmd,
        ]);
        Ok(Applied { cmd, node })
    }
}

/// `let/n a := fold_range_break from to (fun i acc => if c then (true, t)
/// else (false, e)) init in k` — a loop with early exit. The continuation
/// flags must be literals (one branch continues, the other breaks).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileRangeFoldBreak;

impl StmtLemma for CompileRangeFoldBreak {
    fn name(&self) -> &'static str {
        "compile_range_fold_break"
    }

    fn dispatch(&self) -> Dispatch {
        Dispatch::Heads(&[HeadKey::Let])
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::RangeFoldBreak { i, acc, f, init, from, to } = value.as_ref() else {
            return None;
        };
        // Match `if c then (flag₁, t) else (flag₂, e)` with literal flags.
        let Expr::If { cond, then_, else_ } = f.as_ref() else { return None };
        let (Expr::Pair(tf, tv), Expr::Pair(ef, ev)) = (then_.as_ref(), else_.as_ref()) else {
            return None;
        };
        let flag = |e: &Expr| match e {
            Expr::Lit(Value::Bool(b)) => Some(*b),
            _ => None,
        };
        let (cont_then, cont_else) = (flag(tf)?, flag(ef)?);
        if cont_then == cont_else {
            return None; // never breaks (use fold_range) or never loops
        }
        let acc_kind = kind_of(cx.model, goal, init)?;
        Some(self.apply(
            goal, cx, name, i, acc, cond, tv, ev, cont_then, init, from, to, acc_kind, value,
            body,
        ))
    }
}

impl CompileRangeFoldBreak {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        i: &str,
        acc: &str,
        cond: &Expr,
        then_v: &Expr,
        else_v: &Expr,
        cont_then: bool,
        init: &Expr,
        from: &Expr,
        to: &Expr,
        acc_kind: ScalarKind,
        value: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(self.name(), cx.focus_let(name, value));
        let (init_e, c0) = cx.compile_expr(init, goal)?;
        let (from_e, c1) = cx.compile_expr(from, goal)?;
        let (to_e, c2) = cx.compile_expr(to, goal)?;
        node.children.push(c0);
        node.children.push(c1);
        node.children.push(c2);

        let i_var = loop_counter_local(cx, goal, &i.to_string());
        let c_var = cx.fresh_var("_cont");
        let body_goal = {
            let mut g = loop_body_goal(
                cx,
                goal,
                &[
                    (i.to_string(), i_var.clone(), ScalarKind::Word),
                    (acc.to_string(), name.to_string(), acc_kind),
                ],
                vec![
                    Hyp::LeU(from.clone(), Expr::Var(i.to_string())),
                    Hyp::LtU(Expr::Var(i.to_string()), to.clone()),
                ],
            );
            g.prog = cond.clone();
            g
        };
        let (cond_e, c3) = cx.compile_expr(cond, &body_goal)?;
        let (then_e, c4) = cx.compile_expr(then_v, &body_goal)?;
        let (else_e, c5) = cx.compile_expr(else_v, &body_goal)?;
        node.children.push(c3);
        node.children.push(c4);
        node.children.push(c5);

        let k_goal = rebind_scalar(cx, goal, &name.to_string(), acc_kind, value, body);
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        node.children.push(k_node);

        // The branch that continues advances the counter; the other clears
        // the flag (and still commits its accumulator, matching the
        // source's "update then stop" semantics).
        let continue_cmd = |acc_e: BExpr| {
            Cmd::seq([
                Cmd::set(name.to_string(), acc_e),
                Cmd::set(&i_var, BExpr::op(BinOp::Add, BExpr::var(&i_var), BExpr::lit(1))),
            ])
        };
        let break_cmd = |acc_e: BExpr| {
            Cmd::seq([
                Cmd::set(name.to_string(), acc_e),
                Cmd::set(&c_var, BExpr::lit(0)),
            ])
        };
        let (then_cmd, else_cmd) = if cont_then {
            (continue_cmd(then_e), break_cmd(else_e))
        } else {
            (break_cmd(then_e), continue_cmd(else_e))
        };
        let cmd = Cmd::seq([
            Cmd::set(name.to_string(), init_e),
            Cmd::set(&i_var, from_e),
            Cmd::set(&c_var, BExpr::lit(1)),
            Cmd::while_(
                BExpr::op(
                    BinOp::And,
                    BExpr::var(&c_var),
                    BExpr::op(BinOp::LtU, BExpr::var(&i_var), to_e),
                ),
                Cmd::if_(cond_e, then_cmd, else_cmd),
            ),
            k_cmd,
        ]);
        Ok(Applied { cmd, node })
    }
}

/// `let/n! a := fold_range[m] from to (fun i acc => f) init in k` — a
/// *monadic* loop: the body is a computation in the ambient monad, so
/// iterations may read, write, tell, or call the environment. The body is
/// compiled through the *statement* judgment (its binds become interacts
/// and assignments) with a postcondition slot steering its return value
/// into the accumulator local — the composition of the loop lemmas with
/// the monad lemmas that §3.4.1's lift discipline makes possible.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileRangeFoldM;

impl StmtLemma for CompileRangeFoldM {
    fn name(&self) -> &'static str {
        "compile_range_fold_monadic"
    }

    fn dispatch(&self) -> Dispatch {
        Dispatch::Heads(&[HeadKey::Bind])
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Bind { monad, name, ma, body } = &goal.prog else { return None };
        if !goal.monad.admits(*monad) {
            return None;
        }
        let Expr::RangeFoldM { monad: m2, i, acc, f, init, from, to } = ma.as_ref() else {
            return None;
        };
        if m2 != monad {
            return None;
        }
        let acc_kind = kind_of(cx.model, goal, init)?;
        Some(self.apply(goal, cx, name, i, acc, f, init, from, to, acc_kind, body))
    }
}

impl CompileRangeFoldM {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        i: &str,
        acc: &str,
        f: &Expr,
        init: &Expr,
        from: &Expr,
        to: &Expr,
        acc_kind: ScalarKind,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(
            self.name(),
            format!("let/n! {name} := fold_range[m] (fun {i} {acc} => …)"),
        );
        let (init_e, c0) = cx.compile_expr(init, goal)?;
        let (from_e, c1) = cx.compile_expr(from, goal)?;
        let (to_e, c2) = cx.compile_expr(to, goal)?;
        node.children.push(c0);
        node.children.push(c1);
        node.children.push(c2);

        let i_var = loop_counter_local(cx, goal, &i.to_string());
        // The body is a full statement goal: its monadic binds compile with
        // the ordinary monad lemmas; its final `ret` lands in the
        // accumulator local via the postcondition slot.
        let body_goal = {
            let mut g = loop_body_goal(
                cx,
                goal,
                &[
                    (i.to_string(), i_var.clone(), ScalarKind::Word),
                    (acc.to_string(), name.to_string(), acc_kind),
                ],
                vec![
                    Hyp::LeU(from.clone(), Expr::Var(i.to_string())),
                    Hyp::LtU(Expr::Var(i.to_string()), to.clone()),
                ],
            );
            g.prog = f.clone();
            g.post = rupicola_core::Post {
                slots: vec![rupicola_core::RetSlot::ScalarTo(name.to_string())],
            };
            g
        };
        let (body_cmd, c_body) = cx.compile_stmt(&body_goal)?;
        node.children.push(c_body);

        let mut k_goal = goal.clone();
        if crate::helpers::state_mentions(&k_goal, name) {
            let ghost = cx.fresh_ghost(name);
            k_goal.shadow(name, &ghost);
            k_goal.defs.push((ghost, Expr::Var(name.to_string())));
        }
        k_goal.locals.set(
            name.to_string(),
            rupicola_sep::SymValue::Scalar(acc_kind, Expr::Var(name.to_string())),
        );
        k_goal.prog = body.clone();
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        node.children.push(k_node);

        let cmd = Cmd::seq([
            Cmd::set(name.to_string(), init_e),
            Cmd::set(&i_var, from_e),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var(&i_var), to_e),
                Cmd::seq([
                    body_cmd,
                    Cmd::set(&i_var, BExpr::op(BinOp::Add, BExpr::var(&i_var), BExpr::lit(1))),
                ]),
            ),
            k_cmd,
        ]);
        Ok(Applied { cmd, node })
    }
}

#[cfg(test)]
mod tests {
    use crate::standard_dbs;
    use rupicola_core::check::check;
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
    use rupicola_lang::dsl::*;
    use rupicola_lang::{ElemKind, Model};
    use rupicola_sep::ScalarKind;

    #[test]
    fn triangular_sum_with_invariant() {
        // let t := fold_range 0 n (fun i acc => acc + i) 0 in t
        let model = Model::new(
            "tri",
            ["n"],
            let_n(
                "t",
                range_fold("i", "acc", word_add(var("acc"), var("i")), word_lit(0), word_lit(0), var("n")),
                var("t"),
            ),
        );
        let spec = FnSpec::new(
            "tri",
            vec![ArgSpec::Scalar { name: "n".into(), param: "n".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        let report = check(&out, &dbs).unwrap();
        assert!(report.invariant_checks > 0);
    }

    #[test]
    fn range_fold_reads_arrays_by_index() {
        // Sum of bytes by index: fold_range 0 (len s) (fun i acc =>
        // acc + s[i]) 0 — the get's bound comes from the loop hypothesis.
        let model = Model::new(
            "sum",
            ["s"],
            let_n(
                "t",
                range_fold(
                    "i",
                    "acc",
                    word_add(var("acc"), word_of_byte(array_get_b(var("s"), var("i")))),
                    word_lit(0),
                    word_lit(0),
                    array_len_b(var("s")),
                ),
                var("t"),
            ),
        );
        let spec = FnSpec::new(
            "sum",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
            ],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn monadic_loop_writes_each_prefix_sum() {
        // let acc := fold_range[io] 0 n (fun i acc =>
        //     let s := acc + read() in let _ := write(s) in ret s) 0
        use rupicola_core::fnspec::TraceSpec;
        use rupicola_core::MonadCtx;
        use rupicola_lang::MonadKind;
        let body = bind(
            MonadKind::Io,
            "x",
            io_read(),
            bind(
                MonadKind::Io,
                "s",
                ret(MonadKind::Io, word_add(var("acc"), var("x"))),
                bind(
                    MonadKind::Io,
                    "_",
                    io_write(var("s")),
                    ret(MonadKind::Io, var("s")),
                ),
            ),
        );
        let model = Model::new(
            "prefix_sums",
            ["n"],
            bind(
                MonadKind::Io,
                "acc",
                range_fold_m(MonadKind::Io, "i", "acc", body, word_lit(0), word_lit(0), var("n")),
                ret(MonadKind::Io, var("acc")),
            ),
        );
        let spec = FnSpec::new(
            "prefix_sums",
            vec![ArgSpec::Scalar { name: "n".into(), param: "n".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_monad(MonadCtx::Monadic(MonadKind::Io))
        .with_trace(TraceSpec::MirrorsSource)
        // Keep loop trip counts within the checker's io input supply.
        .with_hint(rupicola_core::Hyp::LtU(var("n"), word_lit(33)));
        let dbs = standard_dbs();
        let out = rupicola_core::compile(&model, &spec, &dbs).unwrap();
        rupicola_core::check::check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("while"), "{c}");
        assert!(c.contains("io_read"), "{c}");
        assert!(c.contains("io_write"), "{c}");
    }

    #[test]
    fn monadic_loop_with_writer_logging() {
        use rupicola_core::fnspec::TraceSpec;
        use rupicola_core::MonadCtx;
        use rupicola_lang::MonadKind;
        // Log i*i at each iteration, accumulate the sum of squares.
        let body = bind(
            MonadKind::Writer,
            "sq",
            ret(MonadKind::Writer, word_mul(var("i"), var("i"))),
            bind(
                MonadKind::Writer,
                "_",
                writer_tell(var("sq")),
                ret(MonadKind::Writer, word_add(var("acc"), var("sq"))),
            ),
        );
        let model = Model::new(
            "sum_squares_logged",
            ["n"],
            bind(
                MonadKind::Writer,
                "acc",
                range_fold_m(MonadKind::Writer, "i", "acc", body, word_lit(0), word_lit(0), var("n")),
                ret(MonadKind::Writer, var("acc")),
            ),
        );
        let spec = FnSpec::new(
            "sum_squares_logged",
            vec![ArgSpec::Scalar { name: "n".into(), param: "n".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        )
        .with_monad(MonadCtx::Monadic(MonadKind::Writer))
        .with_trace(TraceSpec::MirrorsSource);
        let dbs = standard_dbs();
        let out = rupicola_core::compile(&model, &spec, &dbs).unwrap();
        rupicola_core::check::check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("writer_tell"), "{c}");
    }

    #[test]
    fn find_first_breaks_early() {
        // Find the index of the first zero byte, or len if none:
        // fold_range_break 0 len (fun i acc => if s[i] == 0 then (false, i)
        // else (true, acc)) len.
        let model = Model::new(
            "memchr0",
            ["s"],
            let_n(
                "r",
                range_fold_break(
                    "i",
                    "acc",
                    ite(
                        byte_eq(array_get_b(var("s"), var("i")), byte_lit(0)),
                        pair(bool_lit(false), var("i")),
                        pair(bool_lit(true), var("acc")),
                    ),
                    array_len_b(var("s")),
                    word_lit(0),
                    array_len_b(var("s")),
                ),
                var("r"),
            ),
        );
        let spec = FnSpec::new(
            "memchr0",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
            ],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("while"), "{c}");
    }
}
