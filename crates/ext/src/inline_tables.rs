//! Inline tables (§4.1.2): `const` arrays local to a Bedrock2 function.
//!
//! "The Gallina API … is exactly the same as that for arrays, except that
//! only one operation (get) is available. Crucially, the API does not
//! impede reasoning about the code: simply unfolding the definition of
//! `InlineTable.get` reveals that it is just the function `nth` on lists."
//! The lemma supports both byte and full-word element reads (the paper
//! notes word reads took "hundreds of lines" in Coq, mostly Bedrock2
//! plumbing; here the width generalization is the same few lines).

use crate::helpers::access_size;
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
use rupicola_lang::{ElemKind, Expr, Value};

/// `EXPR (InlineTable.get t i)` — a load from the function-local constant
/// table at byte offset `i · width`, guarded by `i < length t` (a constant
/// bound, so byte-kinded indices discharge it by interval reasoning).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExprTableGet;

impl ExprLemma for ExprTableGet {
    fn name(&self) -> &'static str {
        "expr_table_get"
    }

    fn try_apply(
        &self,
        term: &Expr,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<AppliedExpr, CompileError>> {
        let Expr::TableGet { table, idx } = term else { return None };
        let def = cx.model.table(table)?.clone();
        Some(self.apply(goal, cx, &def, idx, term))
    }
}

impl ExprTableGet {
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        def: &rupicola_lang::TableDef,
        idx: &Expr,
        term: &Expr,
    ) -> Result<AppliedExpr, CompileError> {
        let mut node = DerivationNode::leaf(self.name(), cx.focus_term(term));
        let len = def.len() as u64;
        let sc = cx.solve(
            self.name(),
            SideCond::Lt(idx.clone(), Expr::Lit(Value::Word(len))),
            &goal.hyps,
        )?;
        node.side_conds.push(sc);
        let (idx_e, child) = cx.compile_expr(idx, goal)?;
        node.children.push(child);
        let offset = match def.elem {
            ElemKind::Byte => idx_e,
            ElemKind::Word => BExpr::op(BinOp::Mul, idx_e, BExpr::lit(8)),
        };
        Ok(AppliedExpr {
            expr: BExpr::table(access_size(def.elem), def.name.clone(), offset),
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
    use rupicola_lang::dsl::*;
    use rupicola_lang::{ElemKind, Model, TableDef};
    use rupicola_sep::ScalarKind;

    #[test]
    fn byte_table_lookup_in_map() {
        // The fasta pattern: s[i] := table[s[i]] with a 256-entry table.
        let table: Vec<u8> = (0..=255u8).map(|b| b.wrapping_add(1)).collect();
        let model = Model::new(
            "tbl_map",
            ["s"],
            let_n(
                "s",
                array_map_b("b", table_get("t", word_of_byte(var("b"))), var("s")),
                var("s"),
            ),
        )
        .with_table(TableDef::bytes("t", table));
        let spec = FnSpec::new(
            "tbl_map",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
            ],
            vec![RetSpec::InPlace { param: "s".into() }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("static const uint8_t t[256]"), "{c}");
    }

    #[test]
    fn word_table_lookup() {
        // Full 32/64-bit reads from tables (the crc32 pattern).
        let words: Vec<u64> = (0..256).map(|i| i * 0x0101).collect();
        let model = Model::new(
            "wtbl",
            ["x"],
            let_n(
                "y",
                table_get("t", word_and(var("x"), word_lit(0xff))),
                var("y"),
            ),
        )
        .with_table(TableDef::words("t", words));
        let spec = FnSpec::new(
            "wtbl",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn unbounded_index_fails_the_bound() {
        let model = Model::new(
            "bad",
            ["x"],
            let_n("y", table_get("t", var("x")), var("y")),
        )
        .with_table(TableDef::bytes("t", [1, 2, 3]));
        let spec = FnSpec::new(
            "bad",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let dbs = standard_dbs();
        let err = compile(&model, &spec, &dbs).unwrap_err();
        assert!(matches!(err, rupicola_core::CompileError::SideCondition { .. }));
    }
}
