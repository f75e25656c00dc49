//! Scalar conditionals, with the predicate inference of §3.4.2.
//!
//! A conditional at a binding (`let/n r := if t then a else b in k`) is a
//! forward control-flow join. Instead of merging strongest postconditions
//! into a disjunction — "incomprehensible to later compilation steps" — the
//! lemma runs the inference heuristic: identify the target from the
//! binding's name, classify it as scalar or pointer, abstract the
//! corresponding slot, and instantiate the template with the source term
//! itself.

use crate::helpers::{is_plain_scalar_value, kind_of, rebind_scalar};
use rupicola_core::derive::DerivationNode;
use rupicola_core::invariant::{InvariantTemplate, TargetClass};
use rupicola_core::{Applied, CompileError, Compiler, Hyp, StmtGoal, StmtLemma};
use rupicola_bedrock::Cmd;
use rupicola_lang::{Expr, PrimOp};

/// `let/n r := if t then a else b in k`, with `a` and `b` scalar
/// expressions of the same kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileScalarIf;

/// Hypotheses learnt from a comparison condition, per branch.
fn branch_hyps(cond: &Expr) -> (Vec<Hyp>, Vec<Hyp>) {
    if let Expr::Prim { op, args } = cond {
        let (a, b) = (&args[0], &args[1]);
        match op {
            PrimOp::WLtU | PrimOp::BLtU | PrimOp::NLt => {
                return (
                    vec![Hyp::LtU(a.clone(), b.clone())],
                    vec![Hyp::LeU(b.clone(), a.clone())],
                )
            }
            PrimOp::WEq | PrimOp::BEq | PrimOp::NEq => {
                return (vec![Hyp::EqWord(a.clone(), b.clone())], vec![])
            }
            _ => {}
        }
    }
    (vec![], vec![])
}

impl StmtLemma for CompileScalarIf {
    fn name(&self) -> &'static str {
        "compile_if_scalar"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::If { cond, then_, else_ } = value.as_ref() else { return None };
        if !is_plain_scalar_value(then_) || !is_plain_scalar_value(else_) {
            return None;
        }
        // Step 1–2 of the heuristic: the single target is the binder; it
        // must classify as a scalar for this lemma.
        let template = InvariantTemplate::infer(std::slice::from_ref(name), goal);
        let kind = match &template.targets[0].1 {
            TargetClass::NewScalar => kind_of(cx.model, goal, then_)?,
            TargetClass::Scalar(k) => *k,
            TargetClass::Pointer(_) => return None,
        };
        let kt = kind_of(cx.model, goal, then_)?;
        let ke = kind_of(cx.model, goal, else_)?;
        if kt != ke {
            return None;
        }
        Some(self.apply(goal, cx, name, kind, cond, then_, else_, value, body, &template))
    }
}

impl CompileScalarIf {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        kind: rupicola_sep::ScalarKind,
        cond: &Expr,
        then_: &Expr,
        else_: &Expr,
        value: &Expr,
        body: &Expr,
        template: &InvariantTemplate,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(
            self.name(),
            format!("let/n {name} := {value}   [template: {template}]"),
        );
        let (cond_e, c0) = cx.compile_expr(cond, goal)?;
        node.children.push(c0);
        let (then_hyps, else_hyps) = branch_hyps(cond);
        let mut then_goal = goal.clone();
        then_goal.extend_hyps(then_hyps);
        let mut else_goal = goal.clone();
        else_goal.extend_hyps(else_hyps);
        let (then_e, c1) = cx.compile_expr(then_, &then_goal)?;
        let (else_e, c2) = cx.compile_expr(else_, &else_goal)?;
        node.children.push(c1);
        node.children.push(c2);
        // Step 4: the template is instantiated with the source program
        // itself — the continuation knows `name = if t then a else b`.
        let edit = rebind_scalar(cx, goal, &name.to_string(), kind, value, body);
        let branch = Cmd::if_(
            cond_e,
            Cmd::set(name.to_string(), then_e),
            Cmd::set(name.to_string(), else_e),
        );
        Ok(Applied::then(vec![branch], node, edit))
    }
}

#[cfg(test)]
mod tests {
    use crate::standard_dbs;
    use rupicola_core::check::check;
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
    use rupicola_lang::dsl::*;
    use rupicola_lang::Model;
    use rupicola_sep::ScalarKind;

    fn word_spec(name: &str, params: &[&str]) -> FnSpec {
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
    fn min_compiles_with_branch_assignment() {
        // let m := if x < y then x else y in m
        let model = Model::new(
            "min",
            ["x", "y"],
            let_n("m", ite(word_ltu(var("x"), var("y")), var("x"), var("y")), var("m")),
        );
        let dbs = standard_dbs();
        let out = compile(&model, &word_spec("min", &["x", "y"]), &dbs).unwrap();
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("if ("), "{c}");
        assert!(c.contains("} else {"), "{c}");
    }

    #[test]
    fn conditional_in_map_body_falls_to_branchless_or_fails() {
        // Map bodies are compiled by the expression judgment, which has no
        // conditional: an `if` inside a map body is a residual goal guiding
        // the user to a branchless rewrite (the paper's toupper' is plugged
        // in as a rewrite for exactly this reason).
        let model = Model::new(
            "upstr_branchy",
            ["s"],
            let_n(
                "s",
                array_map_b(
                    "b",
                    ite(
                        byte_ltu(byte_sub(var("b"), byte_lit(b'a')), byte_lit(26)),
                        byte_and(var("b"), byte_lit(0x5f)),
                        var("b"),
                    ),
                    var("s"),
                ),
                var("s"),
            ),
        );
        let spec = FnSpec::new(
            "upstr_branchy",
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
        assert!(
            matches!(err, rupicola_core::CompileError::ResidualGoal { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn branch_hypotheses_discharge_bounds() {
        // let b := if i < len s then s[i] else 0 — the then-branch's load
        // is justified by the condition itself.
        let model = Model::new(
            "get_or_zero",
            ["s", "i"],
            let_n(
                "b",
                ite(
                    word_ltu(var("i"), array_len_b(var("s"))),
                    word_of_byte(array_get_b(var("s"), var("i"))),
                    word_lit(0),
                ),
                var("b"),
            ),
        );
        let spec = FnSpec::new(
            "get_or_zero",
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
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }
}
