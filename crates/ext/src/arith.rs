//! The relational expression compiler (§4.1.3).
//!
//! Rupicola is "really two relational compilers rolled into one: one
//! targeting Bedrock2's statements and one targeting its expressions". The
//! expression side started as a reflective verified compiler and was
//! rewritten relationally because extending the reflective one "required
//! modifications in increasingly complex tactics"; relationally, each
//! construct is one small lemma. These lemmas cover "machine words, bytes,
//! Booleans, integers, two representations of natural numbers, and
//! expressions with casts between different types":
//!
//! - [`ExprLocal`] — a term that a live Bedrock2 local already denotes
//!   compiles to that local (modulo the equational hypotheses);
//! - [`ExprLit`] — scalar literals;
//! - [`ExprPrim`] — primitive operations, with the representation glue
//!   (bytes are stored zero-extended, so byte arithmetic re-masks; booleans
//!   are 0/1; naturals carry no-overflow side conditions).

use crate::helpers::kind_of;
use rupicola_core::derive::DerivationNode;
use rupicola_core::{
    AppliedExpr,
    CompileError,
    Compiler,
    ExprLemma,
    SideCond,
    StmtGoal,
};
use rupicola_bedrock::{BExpr, BinOp};
use rupicola_lang::{Expr, PrimOp};

/// Compiles a term already held by a Bedrock2 local.
///
/// The search is up to the goal's equational hypotheses: after an in-place
/// map rebinds `s`, the local `len` is bound to `length s'0` while the term
/// to compile is `length s`; the recorded equation `length s = length s'0`
/// bridges the two.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExprLocal;

impl ExprLemma for ExprLocal {
    fn name(&self) -> &'static str {
        "expr_local"
    }

    fn try_apply(
        &self,
        term: &Expr,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<AppliedExpr, CompileError>> {
        // Chase the terms equal to `term` under the equational hypotheses,
        // breadth first, bounded. The frontier holds *borrowed* terms —
        // `term` itself, then sides of `EqWord` hypotheses — so the common
        // case (hit or miss with no chase) allocates nothing. Each step
        // asks the context's side index for the equations with `cur` as a
        // side, in hypothesis order, instead of scanning every hypothesis.
        let mut candidates: Vec<&Expr> = vec![term];
        let mut i = 0;
        while i < candidates.len() && candidates.len() < 16 {
            let cur = candidates[i];
            if let Some((local, _)) = goal.locals.find_scalar(cur) {
                return Some(Ok(AppliedExpr {
                    expr: BExpr::var(local),
                    node: DerivationNode::leaf(self.name(), cx.focus_mapsto(term, local)),
                }));
            }
            // A chase that lands on a literal (e.g. a stack buffer's
            // recorded length) compiles to that literal.
            if i > 0 {
                if let Expr::Lit(v) = cur {
                    if let Some(w) = v.to_scalar_word() {
                        return Some(Ok(AppliedExpr {
                            expr: BExpr::lit(w),
                            node: DerivationNode::leaf(self.name(), cx.focus_mapsto_word(term, w)),
                        }));
                    }
                }
            }
            for h in goal.hyps.equations_with(cur) {
                if let rupicola_core::Hyp::EqWord(a, b) = &h.hyp {
                    if a == cur && !candidates.contains(&b) {
                        candidates.push(b);
                    }
                    if b == cur && !candidates.contains(&a) {
                        candidates.push(a);
                    }
                }
            }
            i += 1;
        }
        None
    }
}

/// Reduces projections of literal pairs: `fst (a, b) ↝ a`, `snd (a, b) ↝ b`
/// (bound pairs are resolved by [`ExprLocal`] through the pair-binding
/// lemma's locals instead).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExprProj;

impl ExprLemma for ExprProj {
    fn name(&self) -> &'static str {
        "expr_proj"
    }

    fn try_apply(
        &self,
        term: &Expr,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<AppliedExpr, CompileError>> {
        let inner = match term {
            Expr::Fst(e) | Expr::Snd(e) => e.as_ref(),
            _ => return None,
        };
        let Expr::Pair(a, b) = inner else { return None };
        let picked = if matches!(term, Expr::Fst(_)) { a } else { b };
        Some(match cx.compile_expr(picked, goal) {
            Ok((expr, child)) => Ok(AppliedExpr {
                expr,
                node: DerivationNode::leaf(self.name(), cx.focus_term(term)).with_child(child),
            }),
            Err(e) => Err(e),
        })
    }
}

/// Compiles scalar literals.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExprLit;

impl ExprLemma for ExprLit {
    fn name(&self) -> &'static str {
        "expr_lit"
    }

    fn try_apply(
        &self,
        term: &Expr,
        _goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<AppliedExpr, CompileError>> {
        let Expr::Lit(v) = term else { return None };
        let w = v.to_scalar_word()?;
        Some(Ok(AppliedExpr {
            expr: BExpr::lit(w),
            node: DerivationNode::leaf(self.name(), cx.focus_term(term)),
        }))
    }
}

/// Compiles primitive scalar operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExprPrim;

/// Pops the two operands of a binary primitive.
///
/// # Errors
///
/// [`CompileError::Internal`] when fewer than two operands were compiled —
/// an arity bug in the model construction, surfaced as a typed error
/// rather than a panic so one bad model cannot take down the pipeline.
fn pop2(v: &mut Vec<BExpr>, op: PrimOp, term: &Expr) -> Result<(BExpr, BExpr), CompileError> {
    match (v.pop(), v.pop()) {
        (Some(b), Some(a)) => Ok((a, b)),
        _ => Err(CompileError::Internal(format!(
            "expr_prim: `{op:?}` needs two operands in `{term}`"
        ))),
    }
}

/// Pops the operand of a unary primitive; see [`pop2`] for the error
/// contract.
fn pop1(v: &mut Vec<BExpr>, op: PrimOp, term: &Expr) -> Result<BExpr, CompileError> {
    v.pop().ok_or_else(|| {
        CompileError::Internal(format!("expr_prim: `{op:?}` needs one operand in `{term}`"))
    })
}

const BYTE_MASK: u64 = 0xff;
/// Naturals are compiled only when operands provably fit half the word, so
/// that addition cannot wrap; multiplication requires a quarter word.
const NAT_ADD_BOUND: u64 = (1 << 63) - 1;
const NAT_MUL_BOUND: u64 = (1 << 32) - 1;

impl ExprLemma for ExprPrim {
    fn name(&self) -> &'static str {
        "expr_prim"
    }

    #[allow(clippy::too_many_lines)]
    fn try_apply(
        &self,
        term: &Expr,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<AppliedExpr, CompileError>> {
        let Expr::Prim { op, args } = term else { return None };
        Some(self.compile(*op, args, term, goal, cx))
    }
}

impl ExprPrim {
    fn compile(
        &self,
        op: PrimOp,
        args: &[Expr],
        term: &Expr,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Result<AppliedExpr, CompileError> {
        use PrimOp::*;
        let mut node = DerivationNode::leaf(self.name(), cx.focus_term(term));
        let mut compiled = Vec::with_capacity(args.len());
        for a in args {
            let (e, child) = cx.compile_expr(a, goal)?;
            compiled.push(e);
            node.children.push(child);
        }
        let mask_byte = |e: BExpr| BExpr::op(BinOp::And, e, BExpr::lit(BYTE_MASK));
        let bin = |bop: BinOp, mut v: Vec<BExpr>| -> Result<BExpr, CompileError> {
            let (a, b) = pop2(&mut v, op, term)?;
            Ok(BExpr::op(bop, a, b))
        };
        let una = |mut v: Vec<BExpr>| -> Result<BExpr, CompileError> { pop1(&mut v, op, term) };
        let expr = match op {
            // Words map one-to-one.
            WAdd => bin(BinOp::Add, compiled)?,
            WSub => bin(BinOp::Sub, compiled)?,
            WMul => bin(BinOp::Mul, compiled)?,
            WAnd => bin(BinOp::And, compiled)?,
            WOr => bin(BinOp::Or, compiled)?,
            WXor => bin(BinOp::Xor, compiled)?,
            WShl => bin(BinOp::Slu, compiled)?,
            WShr => bin(BinOp::Sru, compiled)?,
            WSar => bin(BinOp::Srs, compiled)?,
            WLtU => bin(BinOp::LtU, compiled)?,
            WLtS => bin(BinOp::LtS, compiled)?,
            WEq => bin(BinOp::Eq, compiled)?,
            // Division differs at zero (source is partial, RISC-V total):
            // a side condition rules the divergence out.
            WDivU | WRemU => {
                let divisor = args.get(1).cloned().ok_or_else(|| {
                    CompileError::Internal(format!("expr_prim: `{op:?}` missing divisor in `{term}`"))
                })?;
                let sc = cx.solve(self.name(), SideCond::NonZero(divisor), &goal.hyps)?;
                node.side_conds.push(sc);
                bin(if op == WDivU { BinOp::DivU } else { BinOp::RemU }, compiled)?
            }
            // Bytes live zero-extended in locals; arithmetic that can carry
            // out of 8 bits re-masks.
            BAdd => mask_byte(bin(BinOp::Add, compiled)?),
            BSub => mask_byte(bin(BinOp::Sub, compiled)?),
            BAnd => bin(BinOp::And, compiled)?,
            BOr => bin(BinOp::Or, compiled)?,
            BXor => bin(BinOp::Xor, compiled)?,
            BShl => {
                let (a, b) = pop2(&mut compiled, op, term)?;
                mask_byte(BExpr::op(BinOp::Slu, a, BExpr::op(BinOp::And, b, BExpr::lit(7))))
            }
            BShr => {
                let (a, b) = pop2(&mut compiled, op, term)?;
                BExpr::op(BinOp::Sru, a, BExpr::op(BinOp::And, b, BExpr::lit(7)))
            }
            BLtU => bin(BinOp::LtU, compiled)?,
            BEq => bin(BinOp::Eq, compiled)?,
            // Booleans are 0/1.
            Not => BExpr::op(BinOp::Xor, una(compiled)?, BExpr::lit(1)),
            BoolAnd => bin(BinOp::And, compiled)?,
            BoolOr => bin(BinOp::Or, compiled)?,
            BoolEq => bin(BinOp::Eq, compiled)?,
            // Naturals: addition/subtraction/multiplication compile to word
            // operations under no-overflow side conditions.
            NAdd => {
                for a in args {
                    let sc = cx.solve(
                        self.name(),
                        SideCond::Le(a.clone(), Expr::Lit(rupicola_lang::Value::Nat(NAT_ADD_BOUND))),
                        &goal.hyps,
                    )?;
                    node.side_conds.push(sc);
                }
                bin(BinOp::Add, compiled)?
            }
            NSub => {
                // Truncated subtraction: (a - b) * (b ≤ a), branchless.
                for a in args {
                    let sc = cx.solve(
                        self.name(),
                        SideCond::Le(a.clone(), Expr::Lit(rupicola_lang::Value::Nat(NAT_ADD_BOUND))),
                        &goal.hyps,
                    )?;
                    node.side_conds.push(sc);
                }
                let (a, b) = pop2(&mut compiled, op, term)?;
                BExpr::op(
                    BinOp::Mul,
                    BExpr::op(BinOp::Sub, a.clone(), b.clone()),
                    BExpr::op(BinOp::LtU, b, BExpr::op(BinOp::Add, a, BExpr::lit(1))),
                )
            }
            NMul => {
                for a in args {
                    let sc = cx.solve(
                        self.name(),
                        SideCond::Le(a.clone(), Expr::Lit(rupicola_lang::Value::Nat(NAT_MUL_BOUND))),
                        &goal.hyps,
                    )?;
                    node.side_conds.push(sc);
                }
                bin(BinOp::Mul, compiled)?
            }
            NLt => bin(BinOp::LtU, compiled)?,
            NEq => bin(BinOp::Eq, compiled)?,
            // Casts: zero-extended representations make most casts free.
            WordOfByte | WordOfNat | NatOfWord | WordOfBool => una(compiled)?,
            ByteOfWord => mask_byte(una(compiled)?),
        };
        // Sanity: the result kind must be inferable (tests rely on models
        // being kind-correct before compilation).
        let _ = kind_of(cx.model, goal, term);
        Ok(AppliedExpr { expr, node })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_core::{Hyp, MonadCtx, Post};
    use rupicola_lang::dsl::*;
    use rupicola_lang::Model;
    use rupicola_sep::{ScalarKind, SymHeap, SymLocals, SymValue};

    fn goal_with(locals: &[(&str, ScalarKind, Expr)]) -> StmtGoal {
        let mut l = SymLocals::new();
        for (n, k, t) in locals {
            l.set((*n).to_string(), SymValue::Scalar(*k, t.clone()));
        }
        StmtGoal {
            prog: word_lit(0),
            locals: l,
            heap: SymHeap::new(),
            hyps: Default::default(),
            monad: MonadCtx::Pure,
            post: Post::default(),
            defs: Default::default(),
        }
    }

    fn compile(term: &Expr, goal: &StmtGoal) -> Result<BExpr, CompileError> {
        let model = Model::new("t", Vec::<String>::new(), word_lit(0));
        let dbs = crate::standard_dbs();
        let mut cx = Compiler::new(&model, &dbs);
        cx.compile_expr(term, goal).map(|(e, _)| e)
    }

    #[test]
    fn locals_compile_to_vars() {
        let goal = goal_with(&[("x", ScalarKind::Word, var("x"))]);
        assert_eq!(compile(&var("x"), &goal).unwrap(), BExpr::var("x"));
    }

    #[test]
    fn local_lookup_chases_equations() {
        let mut goal = goal_with(&[("len", ScalarKind::Word, array_len_b(var("s'0")))]);
        goal.push_hyp(Hyp::EqWord(array_len_b(var("s")), array_len_b(var("s'0"))));
        assert_eq!(compile(&array_len_b(var("s")), &goal).unwrap(), BExpr::var("len"));
    }

    #[test]
    fn chase_takes_the_first_equation_in_hypothesis_order() {
        // Both `t = q` and `t = p` lead to a live local; the chase must
        // follow the earlier hypothesis, as a scan of the list would.
        // The first equation starts as `t = x` and is rewritten to `t = q`
        // by a shadow *after* `t = p` was pushed: a rewritten entry keeps
        // its position, so it still comes first.
        let mut goal = goal_with(&[("a", ScalarKind::Word, var("p"))]);
        goal.push_hyp(Hyp::EqWord(var("t"), var("x")));
        goal.push_hyp(Hyp::EqWord(var("t"), var("p")));
        goal.shadow("x", "q");
        goal.locals.set("b".to_string(), SymValue::Scalar(ScalarKind::Word, var("q")));
        assert_eq!(compile(&var("t"), &goal).unwrap(), BExpr::var("b"));

        let mut flipped = goal_with(&[("a", ScalarKind::Word, var("p"))]);
        flipped.push_hyp(Hyp::EqWord(var("p"), var("t")));
        flipped.push_hyp(Hyp::EqWord(var("q"), var("t")));
        flipped.locals.set("b".to_string(), SymValue::Scalar(ScalarKind::Word, var("q")));
        assert_eq!(compile(&var("t"), &flipped).unwrap(), BExpr::var("a"));
    }

    #[test]
    fn word_ops_map_directly() {
        let goal = goal_with(&[("x", ScalarKind::Word, var("x"))]);
        let e = compile(&word_add(var("x"), word_lit(3)), &goal).unwrap();
        assert_eq!(e, BExpr::op(BinOp::Add, BExpr::var("x"), BExpr::lit(3)));
    }

    #[test]
    fn byte_add_remasks() {
        let goal = goal_with(&[("b", ScalarKind::Byte, var("b"))]);
        let e = compile(&byte_add(var("b"), byte_lit(1)), &goal).unwrap();
        assert_eq!(
            e,
            BExpr::op(
                BinOp::And,
                BExpr::op(BinOp::Add, BExpr::var("b"), BExpr::lit(1)),
                BExpr::lit(0xff)
            )
        );
    }

    #[test]
    fn byte_and_needs_no_mask() {
        let goal = goal_with(&[("b", ScalarKind::Byte, var("b"))]);
        let e = compile(&byte_and(var("b"), byte_lit(0xdf)), &goal).unwrap();
        assert_eq!(e, BExpr::op(BinOp::And, BExpr::var("b"), BExpr::lit(0xdf)));
    }

    #[test]
    fn bool_not_is_xor_one() {
        let goal = goal_with(&[("c", ScalarKind::Bool, var("c"))]);
        let e = compile(&not(var("c")), &goal).unwrap();
        assert_eq!(e, BExpr::op(BinOp::Xor, BExpr::var("c"), BExpr::lit(1)));
    }

    #[test]
    fn casts_are_free_or_masked() {
        let goal = goal_with(&[
            ("b", ScalarKind::Byte, var("b")),
            ("w", ScalarKind::Word, var("w")),
        ]);
        assert_eq!(compile(&word_of_byte(var("b")), &goal).unwrap(), BExpr::var("b"));
        assert_eq!(
            compile(&byte_of_word(var("w")), &goal).unwrap(),
            BExpr::op(BinOp::And, BExpr::var("w"), BExpr::lit(0xff))
        );
    }

    #[test]
    fn division_requires_nonzero() {
        let goal = goal_with(&[("x", ScalarKind::Word, var("x"))]);
        // Dividing by a variable with no hypotheses fails.
        let err = compile(&word_divu(var("x"), var("x")), &goal).unwrap_err();
        assert!(matches!(err, CompileError::SideCondition { .. }));
        // Dividing by a nonzero literal succeeds.
        assert!(compile(&word_divu(var("x"), word_lit(2)), &goal).is_ok());
    }

    #[test]
    fn nat_sub_is_branchless_truncated() {
        let goal = goal_with(&[("n", ScalarKind::Nat, nat_of_word(var("n")))]);
        // Bounded literals satisfy the no-overflow side conditions.
        let e = compile(&nat_sub(nat_lit(5), nat_lit(9)), &goal).unwrap();
        // Shape: (5 - 9) * (9 < 5 + 1).
        match e {
            BExpr::Op(BinOp::Mul, _, _) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unknown_term_is_residual() {
        let goal = goal_with(&[]);
        let err = compile(&var("mystery"), &goal).unwrap_err();
        assert!(matches!(err, CompileError::ResidualGoal { .. }));
    }
}
