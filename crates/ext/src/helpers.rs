//! Shared plumbing for extension lemmas: kind resolution, heaplet lookup,
//! and the ghost-renaming discipline for `let/n` rebinding.

use rupicola_core::{Compiler, Hyp, StmtGoal};
use rupicola_lang::{ElemKind, Expr, Ident, Model};
use rupicola_sep::{HeapletId, ScalarKind, SymValue};

/// Resolves the scalar kind of a source term under a goal's locals,
/// additionally resolving inline-table reads through the model.
pub fn kind_of(model: &Model, goal: &StmtGoal, term: &Expr) -> Option<ScalarKind> {
    if let Expr::TableGet { table, .. } = term {
        return model.table(table).map(|t| match t.elem {
            ElemKind::Byte => ScalarKind::Byte,
            ElemKind::Word => ScalarKind::Word,
        });
    }
    // A source variable's kind comes from the local *bound to that source
    // term* (usually, but not necessarily, the local of the same name).
    let lookup = |n: &str| {
        goal.locals
            .find_scalar(&Expr::Var(n.to_string()))
            .map(|(_, k)| k)
    };
    rupicola_sep::scalar_kind(term, &lookup)
}

/// Whether a term is in the "plain scalar value" fragment the generic
/// `let/n` lemma commits to (everything a Bedrock2 *expression* can
/// compute, as opposed to values needing statements: loops, conditionals,
/// mutation, allocation, monadic operations).
pub fn is_plain_scalar_value(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Var(_)
            | Expr::Lit(_)
            | Expr::Prim { .. }
            | Expr::Extern { .. }
            | Expr::ArrayGet { .. }
            | Expr::TableGet { .. }
            | Expr::CellGet(_)
            | Expr::ArrayLen { .. }
    )
}

/// Finds the heaplet whose content is syntactically `term`, together with
/// the Bedrock2 local holding its pointer.
pub fn heaplet_and_ptr(goal: &StmtGoal, term: &Expr) -> Option<(HeapletId, String)> {
    let id = goal.heap.find_by_content(term)?;
    let ptr = goal.locals.find_ptr(id)?.to_string();
    Some((id, ptr))
}

/// Whether any piece of the symbolic state mentions the source name: a
/// local of that name, or a free occurrence in a scalar binding or a
/// heaplet's content or length ([`Expr::mentions`], a binder-aware walk
/// that allocates nothing).
pub fn state_mentions(goal: &StmtGoal, name: &str) -> bool {
    if goal.locals.get(name).is_some() {
        return true;
    }
    let scalars = goal.locals.iter().filter_map(|(_, v)| v.scalar_term()).map(|(t, _)| t);
    let heap_terms = goal.heap.iter().flat_map(|(_, h)| std::iter::once(&h.content).chain(&h.len));
    scalars.chain(heap_terms).any(|t| t.mentions(name))
}

/// Draws the ghost that saves the old value of `name` when a rebinding
/// would capture it: a fresh ghost if the symbolic state mentions `name`.
pub(crate) fn ghost_for(cx: &mut Compiler<'_>, goal: &StmtGoal, name: &str) -> Option<String> {
    state_mentions(goal, name).then(|| cx.fresh_ghost(name))
}

/// Renames the old `name` to `ghost` throughout the state and records the
/// save in the evaluation chain.
pub(crate) fn save_ghost(g: &mut StmtGoal, name: &str, ghost: String) {
    g.shadow(name, &ghost);
    // Chain semantics: the ghost saves the old value of `name` before
    // the rebinding overwrites it.
    g.defs.push((ghost, Expr::Var(name.to_string())));
}

/// Rebinds `name` to a scalar: performs the ghost renaming on the symbolic
/// state if `name` is already mentioned, binds the Bedrock2 local `name` to
/// the source variable `name`, records the defining equation as a
/// hypothesis, and focuses the goal on `body`.
///
/// Draws the ghost now, from `goal`, and returns the edit that makes the
/// continuation goal from it. The caller compiles the bound value *in the
/// original goal* (renaming does not change any runtime value).
pub fn rebind_scalar(
    cx: &mut Compiler<'_>,
    goal: &StmtGoal,
    name: &Ident,
    kind: ScalarKind,
    value: &Expr,
    body: &Expr,
) -> impl FnOnce(&mut StmtGoal) + 'static {
    let ghost = ghost_for(cx, goal, name);
    let (name, value, body) = (name.clone(), value.clone(), body.clone());
    move |g| {
        let shadowed_value = match ghost {
            Some(ghost) => {
                let renamed = rupicola_sep::subst(&value, &name, &Expr::Var(ghost.clone()));
                save_ghost(g, &name, ghost);
                renamed
            }
            None => value.clone(),
        };
        g.locals
            .set(name.clone(), SymValue::Scalar(kind, Expr::Var(name.clone())));
        g.push_hyp(Hyp::EqWord(Expr::Var(name.clone()), shadowed_value));
        if !value.is_monadic() {
            g.defs.push((name, value));
        }
        g.prog = body;
    }
}

/// Rebinds `name` to the (mutated-in-place) heaplet `id`: ghost-renames the
/// old state, points the heaplet's content and length at `name`, records
/// the length-preservation fact, and focuses the goal on `body`.
///
/// The transformation must preserve length (map, put) — the structural
/// property of §3.4.2. Draws the ghost now and returns the edit, like
/// [`rebind_scalar`].
pub fn rebind_pointer(
    cx: &mut Compiler<'_>,
    goal: &StmtGoal,
    name: &Ident,
    id: HeapletId,
    elem: ElemKind,
    value: &Expr,
    body: &Expr,
) -> impl FnOnce(&mut StmtGoal) + 'static {
    let ghost = ghost_for(cx, goal, name);
    let (name, value, body) = (name.clone(), value.clone(), body.clone());
    move |g| {
        if let Some(ghost) = ghost {
            save_ghost(g, &name, ghost);
        }
        if !value.is_monadic() {
            g.defs.push((name.clone(), value));
        }
        let old_len = g.heap.get(id).and_then(|h| h.len.clone());
        let new_len = Expr::ArrayLen { elem, arr: Expr::Var(name.clone()).boxed() };
        if let Some(h) = g.heap.get_mut(id) {
            h.content = Expr::Var(name.clone());
            h.len = Some(new_len.clone());
        }
        if let Some(old) = old_len {
            if old != new_len {
                g.push_hyp(Hyp::EqWord(new_len, old));
            }
        }
        g.locals.set(name, SymValue::Ptr(id));
        g.prog = body;
    }
}

/// Picks a Bedrock2 local name for an iteration binder: the source name if
/// it is not already a live local (names guide code generation, §3.4.1),
/// otherwise a fresh one.
pub fn binder_local(cx: &mut Compiler<'_>, goal: &StmtGoal, binder: &Ident) -> String {
    if goal.locals.get(binder).is_none() {
        binder.clone()
    } else {
        cx.fresh_var(&format!("_{binder}"))
    }
}

/// Picks the Bedrock2 local for a loop *counter* binder: like
/// [`binder_local`], but additionally unique across every loop emitted so
/// far in this run. Two sequential loops routinely reuse the same source
/// binder (`fun i => …` twice); the trusted checker matches loop-head
/// invariants by counter local, so reusing the local would make one
/// loop's invariant fire at the other's head.
pub fn loop_counter_local(cx: &mut Compiler<'_>, goal: &StmtGoal, binder: &Ident) -> String {
    let mut cand = binder_local(cx, goal, binder);
    while !cx.claim_loop_local(&cand) {
        cand = cx.fresh_var(&format!("_{binder}"));
    }
    cand
}

/// The Bedrock2 access size for an element kind.
pub fn access_size(elem: ElemKind) -> rupicola_bedrock::AccessSize {
    match elem {
        ElemKind::Byte => rupicola_bedrock::AccessSize::One,
        ElemKind::Word => rupicola_bedrock::AccessSize::Eight,
    }
}

/// Prepares the goal used to compile a loop body: ghost-renames any state
/// that mentions the loop binders (they get fresh meanings inside the
/// loop), installs the binder locals, and adds the loop hypotheses.
pub fn loop_body_goal(
    cx: &mut Compiler<'_>,
    goal: &StmtGoal,
    binders: &[(Ident, String, ScalarKind)],
    extra_hyps: Vec<Hyp>,
) -> StmtGoal {
    let mut g = goal.clone();
    for (src, _, _) in binders {
        if state_mentions(&g, src) {
            let ghost = cx.fresh_ghost(src);
            g.shadow(src, &ghost);
        }
    }
    for (src, local, kind) in binders {
        g.locals
            .set(local.clone(), SymValue::Scalar(*kind, Expr::Var(src.clone())));
    }
    g.extend_hyps(extra_hyps);
    g
}

/// The scalar kind of an element kind.
pub fn elem_scalar_kind(elem: ElemKind) -> ScalarKind {
    match elem {
        ElemKind::Byte => ScalarKind::Byte,
        ElemKind::Word => ScalarKind::Word,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_core::{HintDbs, MonadCtx, Post};
    use rupicola_lang::dsl::*;
    use rupicola_sep::{Heaplet, HeapletKind, SymHeap, SymLocals};

    fn base_goal() -> StmtGoal {
        let mut heap = SymHeap::new();
        let id = heap.add(Heaplet {
            kind: HeapletKind::Array { elem: ElemKind::Byte },
            content: var("s"),
            len: Some(array_len_b(var("s"))),
            ptr_name: "s".into(),
        });
        let mut locals = SymLocals::new();
        locals.set("s", SymValue::Ptr(id));
        locals.set(
            "len",
            SymValue::Scalar(ScalarKind::Word, array_len_b(var("s"))),
        );
        StmtGoal {
            prog: var("s"),
            locals,
            heap,
            hyps: Default::default(),
            monad: MonadCtx::Pure,
            post: Post::default(),
            defs: Default::default(),
        }
    }

    #[test]
    fn kind_of_resolves_through_locals_and_tables() {
        let model = Model::new("m", ["s"], var("s"))
            .with_table(rupicola_lang::TableDef::bytes("t", [1, 2]));
        let goal = base_goal();
        assert_eq!(
            kind_of(&model, &goal, &var("len")),
            None, // "len" is a Bedrock2 local, not a source variable
        );
        assert_eq!(
            kind_of(&model, &goal, &array_len_b(var("s"))),
            Some(ScalarKind::Word)
        );
        assert_eq!(
            kind_of(&model, &goal, &table_get("t", word_lit(0))),
            Some(ScalarKind::Byte)
        );
    }

    #[test]
    fn rebind_scalar_shadows_and_records_equation() {
        let model = Model::new("m", ["x"], var("x"));
        let dbs = HintDbs::new();
        let mut cx = Compiler::new(&model, &dbs);
        let mut goal = base_goal();
        goal.locals
            .set("acc", SymValue::Scalar(ScalarKind::Word, var("acc")));
        let mut g2 = goal.clone();
        rebind_scalar(
            &mut cx,
            &goal,
            &"acc".to_string(),
            ScalarKind::Word,
            &word_add(var("acc"), word_lit(1)),
            &var("acc"),
        )(&mut g2);
        // The new binding denotes Var("acc"); the equation relates it to
        // the ghost-renamed old value.
        let (term, _) = g2.locals.get("acc").unwrap().scalar_term().unwrap();
        assert_eq!(term, &var("acc"));
        let eq = g2.hyps.iter().find_map(|h| match &h.hyp {
            Hyp::EqWord(Expr::Var(v), rhs) if v == "acc" => Some(rhs.clone()),
            _ => None,
        });
        let rhs = eq.expect("defining equation recorded");
        // The rhs references the ghost, not the re-bound name.
        assert!(rhs.free_vars().iter().all(|v| v != "acc"));
        assert_eq!(g2.prog, var("acc"));
    }

    #[test]
    fn rebind_pointer_updates_content_and_records_length() {
        let model = Model::new("m", ["s"], var("s"));
        let dbs = HintDbs::new();
        let mut cx = Compiler::new(&model, &dbs);
        let goal = base_goal();
        let (id, _) = heaplet_and_ptr(&goal, &var("s")).unwrap();
        let value = array_map_b("b", var("b"), var("s"));
        let mut g2 = goal.clone();
        rebind_pointer(&mut cx, &goal, &"s".to_string(), id, ElemKind::Byte, &value, &var("s"))(
            &mut g2,
        );
        let h = g2.heap.get(id).unwrap();
        assert_eq!(h.content, var("s"));
        // Length-preservation hypothesis: length (new s) = length (ghost).
        assert!(g2.hyps.iter().any(|h| matches!(&h.hyp, Hyp::EqWord(a, b)
            if *a == array_len_b(var("s")) && *b != array_len_b(var("s")))));
        // And the "len" local's term was ghost-renamed consistently.
        let (len_term, _) = g2.locals.get("len").unwrap().scalar_term().unwrap();
        assert_ne!(len_term, &array_len_b(var("s")));
        // The defs chain saves the ghost then records the new definition.
        let defs = g2.binding_defs();
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].1, var("s"));
        assert_eq!(defs[1].0, "s");
    }

    #[test]
    fn binder_local_prefers_source_name() {
        let model = Model::new("m", ["s"], var("s"));
        let dbs = HintDbs::new();
        let mut cx = Compiler::new(&model, &dbs);
        let goal = base_goal();
        assert_eq!(binder_local(&mut cx, &goal, &"b".to_string()), "b");
        let fresh = binder_local(&mut cx, &goal, &"len".to_string());
        assert_ne!(fresh, "len");
    }

    #[test]
    fn plain_scalar_fragment() {
        assert!(is_plain_scalar_value(&word_add(var("a"), var("b"))));
        assert!(is_plain_scalar_value(&array_get_b(var("s"), var("i"))));
        assert!(!is_plain_scalar_value(&ite(var("c"), var("a"), var("b"))));
        assert!(!is_plain_scalar_value(&array_map_b("b", var("b"), var("s"))));
        assert!(!is_plain_scalar_value(&stack(var("x"))));
    }
}
