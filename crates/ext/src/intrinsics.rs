//! Intrinsics: source-level operations mapped directly to special target
//! instructions (§3 lists "intrinsics" among the supported low-level
//! features).
//!
//! An [`IntrinsicLemma`] binds a user-registered pure operation to a single
//! Bedrock2 operator — e.g. `mulhuu` to [`BinOp::MulHuu`], the high half of
//! the unsigned product, which has no composition of ordinary source
//! primitives. The operation's semantics (used by evaluation and by the
//! checker) is registered separately in the
//! [`rupicola_lang::ExternRegistry`]; the differential layer of the checker
//! then validates that the intrinsic's semantics and the instruction agree.

use rupicola_core::derive::DerivationNode;
use rupicola_core::{AppliedExpr, CompileError, Compiler, ExprLemma, StmtGoal};
use rupicola_bedrock::{BExpr, BinOp};
use rupicola_lang::{EvalError, Expr, ExternRegistry, Value};

/// Maps `Extern { tag, [a, b] }` to a single Bedrock2 binary operator.
#[derive(Debug, Clone)]
pub struct IntrinsicLemma {
    tag: String,
    op: BinOp,
}

impl IntrinsicLemma {
    /// Creates an intrinsic lemma for the operation `tag`.
    pub fn new(tag: impl Into<String>, op: BinOp) -> Self {
        IntrinsicLemma { tag: tag.into(), op }
    }
}

impl ExprLemma for IntrinsicLemma {
    fn name(&self) -> &'static str {
        "expr_intrinsic"
    }

    fn try_apply(
        &self,
        term: &Expr,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<AppliedExpr, CompileError>> {
        let Expr::Extern { tag, args } = term else { return None };
        if tag != &self.tag || args.len() != 2 {
            return None;
        }
        Some(self.apply(term, args, goal, cx))
    }
}

impl IntrinsicLemma {
    fn apply(
        &self,
        term: &Expr,
        args: &[Expr],
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Result<AppliedExpr, CompileError> {
        let mut node = DerivationNode::leaf(
            "expr_intrinsic",
            format!("{term} ↝ {:?}", self.op),
        );
        let (a, c0) = cx.compile_expr(&args[0], goal)?;
        let (b, c1) = cx.compile_expr(&args[1], goal)?;
        node.children.push(c0);
        node.children.push(c1);
        Ok(AppliedExpr { expr: BExpr::op(self.op, a, b), node })
    }
}

/// Registers the standard intrinsic *semantics* in an extern registry:
/// `mulhuu` (high 64 bits of the unsigned product). Pair with
/// [`standard_intrinsic_lemmas`] on the compilation side.
pub fn register_standard_intrinsics(reg: &mut ExternRegistry) {
    reg.register_fn("mulhuu", 2, |args| {
        let a = args[0].as_word().ok_or(EvalError::TypeMismatch {
            expected: "word",
            found: args[0].kind(),
            context: "mulhuu",
        })?;
        let b = args[1].as_word().ok_or(EvalError::TypeMismatch {
            expected: "word",
            found: args[1].kind(),
            context: "mulhuu",
        })?;
        Ok(Value::Word(((u128::from(a) * u128::from(b)) >> 64) as u64))
    });
}

/// The standard intrinsic lemmas matching
/// [`register_standard_intrinsics`].
pub fn standard_intrinsic_lemmas() -> Vec<IntrinsicLemma> {
    vec![IntrinsicLemma::new("mulhuu", BinOp::MulHuu)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_dbs;
    use rupicola_core::check::{check_with, CheckConfig};
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
    use rupicola_lang::dsl::*;
    use rupicola_lang::Model;
    use rupicola_sep::ScalarKind;

    #[test]
    fn mulhuu_compiles_to_the_instruction_and_validates() {
        // 128-bit product splitting: hi = mulhuu(x, y), lo = x * y.
        let model = Model::new(
            "wide_mul_hi",
            ["x", "y"],
            let_n(
                "hi",
                extern_op("mulhuu", vec![var("x"), var("y")]),
                let_n(
                    "mix",
                    word_xor(var("hi"), word_mul(var("x"), var("y"))),
                    var("mix"),
                ),
            ),
        );
        let spec = FnSpec::new(
            "wide_mul_hi",
            vec![
                ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word },
                ArgSpec::Scalar { name: "y".into(), param: "y".into(), kind: ScalarKind::Word },
            ],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let mut dbs = standard_dbs();
        for lemma in standard_intrinsic_lemmas() {
            dbs.register_expr(lemma);
        }
        let out = compile(&model, &spec, &dbs).unwrap();
        let mut config = CheckConfig::default();
        register_standard_intrinsics(&mut config.externs);
        check_with(&out, &dbs, &config).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("__int128"), "{c}");
    }

    #[test]
    fn intrinsic_semantics_matches_the_instruction_exhaustively_on_edges() {
        let mut reg = ExternRegistry::new();
        register_standard_intrinsics(&mut reg);
        let op = reg.op("mulhuu").unwrap();
        for a in [0u64, 1, u64::MAX, 1 << 63, 0x1234_5678_9abc_def0] {
            for b in [0u64, 1, u64::MAX, 3] {
                let want = BinOp::MulHuu.eval(a, b);
                let got = (op.eval)(&[Value::Word(a), Value::Word(b)]).unwrap();
                assert_eq!(got, Value::Word(want), "{a} × {b}");
            }
        }
    }
}
