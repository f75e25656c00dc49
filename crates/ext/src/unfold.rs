//! Unfolding hints for user-defined operations (§3.2).
//!
//! The paper's `upstr` derivation plugs in "an unfolding hint that allows
//! Rupicola to inline the function `toupper'`". Here, a user registers a
//! pure extern operation (semantics in `rupicola-lang`'s
//! [`rupicola_lang::ExternRegistry`]) and an [`UnfoldExpr`] lemma giving
//! its definition in core syntax; the compiler inlines the definition at
//! every use.

use rupicola_core::derive::DerivationNode;
use rupicola_core::{AppliedExpr, CompileError, Compiler, ExprLemma, StmtGoal};
use rupicola_lang::Expr;
use std::fmt;
use std::sync::Arc;

/// Expression-level unfolding: occurrences of `Extern { tag, args }` are
/// replaced by `unfold(args)` and compilation continues on the result.
#[derive(Clone)]
pub struct UnfoldExpr {
    tag: String,
    unfold: rupicola_lang::UnfoldFn,
}

impl fmt::Debug for UnfoldExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnfoldExpr").field("tag", &self.tag).finish()
    }
}

impl UnfoldExpr {
    /// Creates an unfolding hint for the operation `tag`.
    pub fn new<F>(tag: impl Into<String>, unfold: F) -> Self
    where
        F: Fn(&[Expr]) -> Expr + Send + Sync + 'static,
    {
        UnfoldExpr { tag: tag.into(), unfold: Arc::new(unfold) }
    }
}

impl ExprLemma for UnfoldExpr {
    fn name(&self) -> &'static str {
        "expr_unfold"
    }

    fn try_apply(
        &self,
        term: &Expr,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<AppliedExpr, CompileError>> {
        let Expr::Extern { tag, args } = term else { return None };
        if tag != &self.tag {
            return None;
        }
        let unfolded = (self.unfold)(args);
        Some(match cx.compile_expr(&unfolded, goal) {
            Ok((expr, child)) => Ok(AppliedExpr {
                expr,
                node: DerivationNode::leaf(self.name(), format!("{tag} ≔ {unfolded}"))
                    .with_child(child),
            }),
            Err(e) => Err(e),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_dbs;
    use rupicola_core::check::{check_with, CheckConfig};
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
    use rupicola_lang::dsl::*;
    use rupicola_lang::{Model, Value};
    use rupicola_sep::ScalarKind;

    #[test]
    fn user_extension_unfolds_and_validates() {
        // A user-defined `clamp255 x = if x < 255 then x else 255`, defined
        // branchlessly for compilation.
        let model = Model::new(
            "clamped_inc",
            ["x"],
            let_n(
                "y",
                extern_op("clamp255", vec![word_add(var("x"), word_lit(1))]),
                var("y"),
            ),
        );
        let spec = FnSpec::new(
            "clamped_inc",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let mut dbs = standard_dbs();
        // Branchless: lt = (x < 255); x*lt + 255*(1-lt).
        dbs.register_expr(UnfoldExpr::new("clamp255", |args| {
            let x = args[0].clone();
            let lt = word_ltu(x.clone(), word_lit(255));
            word_add(
                word_mul(x, word_of_bool(lt.clone())),
                word_mul(word_lit(255), word_sub(word_lit(1), word_of_bool(lt))),
            )
        }));
        let out = compile(&model, &spec, &dbs).unwrap();
        let mut config = CheckConfig::default();
        config.externs.register_fn("clamp255", 1, |args| {
            let x = args[0].as_word().unwrap_or(0);
            Ok(Value::Word(x.min(255)))
        });
        check_with(&out, &dbs, &config).unwrap();
    }

    #[test]
    fn wrong_unfolding_is_caught_by_the_checker() {
        // The unfolding is *not* equivalent to the registered semantics:
        // differential validation must reject the derivation.
        let model = Model::new(
            "bad_clamp",
            ["x"],
            let_n("y", extern_op("clampX", vec![var("x")]), var("y")),
        );
        let spec = FnSpec::new(
            "bad_clamp",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let mut dbs = standard_dbs();
        dbs.register_expr(UnfoldExpr::new("clampX", |args| args[0].clone())); // identity: wrong
        let out = compile(&model, &spec, &dbs).unwrap();
        let mut config = CheckConfig::default();
        config.externs.register_fn("clampX", 1, |args| {
            let x = args[0].as_word().unwrap_or(0);
            Ok(Value::Word(x.min(7)))
        });
        let err = check_with(&out, &dbs, &config).unwrap_err();
        assert!(
            matches!(err, rupicola_core::check::CheckError::Mismatch { .. }),
            "got {err:?}"
        );
    }
}
