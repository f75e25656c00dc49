//! Property tests for the hash-consing interner (`rupicola_lang::intern`):
//! interned-id equality must coincide exactly with structural equality —
//! including for terms built independently on different code paths — and
//! the JSON codec must round-trip every expression back to the *same*
//! interned node within one process.
//!
//! These are the invariants the engine's deep-work layers lean on:
//! hypothesis snapshots compare `Hyp`s by interned id, the linear
//! solver keys atoms by id, and `DESIGN.md` §16's soundness argument is
//! exactly "id equality ⟺ structural equality among live refs".

use rupicola::lang::codec::{decode_expr, encode_expr};
use rupicola::lang::dsl::*;
use rupicola::lang::{Expr, ExprRef};
use rupicola_minicheck::{check, Rng};

/// A random expression drawing from every scalar constructor family plus
/// array/table reads — broad enough to exercise hashing across variants,
/// closed so evaluation kinds don't matter (these terms are never run).
/// Two constructors bind a name the leaves also use (`let/n v0` and a map
/// over element `v1`), so some occurrences are shadowed and some are free.
fn arb_expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 => var(format!("v{}", rng.below(4))),
            1 => word_lit(rng.below(8)),
            2 => byte_lit((rng.below(4) & 0xff) as u8),
            _ => bool_lit(rng.bool()),
        };
    }
    let a = arb_expr(rng, depth - 1);
    match rng.below(12) {
        0 => word_add(a, arb_expr(rng, depth - 1)),
        1 => word_mul(a, arb_expr(rng, depth - 1)),
        2 => word_xor(a, arb_expr(rng, depth - 1)),
        3 => byte_and(arb_expr(rng, depth - 1), arb_expr(rng, depth - 1)),
        4 => word_shr(a, word_lit(rng.below(8))),
        5 => array_get_b(var("s"), a),
        6 => array_len_w(var("st")),
        7 => table_get("t", a),
        8 => ite(bool_lit(rng.bool()), a, arb_expr(rng, depth - 1)),
        9 => let_n(format!("x{}", rng.below(3)), a, arb_expr(rng, depth - 1)),
        10 => let_n("v0", a, arb_expr(rng, depth - 1)),
        _ => array_map_b("v1", arb_expr(rng, depth - 1), a),
    }
}

#[test]
fn mentions_agrees_with_free_vars() {
    // `mentions` is the engine's allocation-free, bloom-gated occurrence
    // test (it decides when a `let/n` rebinding must ghost-rename the
    // state); `free_vars` is the plain binder-aware collector. They must
    // agree on every term, shadowed names included.
    check("mentions_iff_free_vars", 300, |rng| {
        let e = arb_expr(rng, 4);
        let free = e.free_vars();
        for n in ["v0", "v1", "v2", "v3", "s", "st", "x0", "t"] {
            assert_eq!(
                e.mentions(n),
                free.iter().any(|v| v == n),
                "mentions({n}) disagrees with free_vars {free:?} on {e}"
            );
        }
    });
}

#[test]
fn interned_id_equality_iff_structural_equality() {
    check("intern_id_iff_structural", 300, |rng| {
        // Small depth and a tiny leaf alphabet make accidental structural
        // collisions common, exercising both directions of the iff.
        let a = arb_expr(rng, 3);
        let b = arb_expr(rng, 3);
        let (ra, rb) = (ExprRef::new(a.clone()), ExprRef::new(b.clone()));
        assert_eq!(
            ra.id() == rb.id(),
            a == b,
            "id equality must coincide with structural equality: {a:?} vs {b:?}"
        );
        // Pointer equality is the same relation.
        assert_eq!(ExprRef::ptr_eq(&ra, &rb), a == b);
        if a == b {
            assert_eq!(ra.cached_hash(), rb.cached_hash());
        }
    });
}

#[test]
fn separately_built_equal_terms_intern_to_one_node() {
    check("intern_separate_builds", 200, |rng| {
        // Build the same tree twice through different construction paths:
        // once directly, once via a clone that goes through a Vec (fresh
        // allocations throughout), and once rebuilt leaf-by-leaf from a
        // serialized copy. All three must land on the same interned id.
        let e = arb_expr(rng, 4);
        let direct = ExprRef::new(e.clone());
        let via_vec = ExprRef::new(vec![e.clone()].pop().expect("nonempty"));
        assert_eq!(direct.id(), via_vec.id());
        assert!(ExprRef::ptr_eq(&direct, &via_vec));
    });
}

#[test]
fn codec_round_trip_reinterns_to_same_id() {
    check("intern_codec_round_trip", 200, |rng| {
        let e = arb_expr(rng, 4);
        let interned = ExprRef::new(e.clone());
        let decoded = decode_expr(&encode_expr(&e)).expect("codec round-trip");
        assert_eq!(decoded, e, "decode must invert encode");
        let reinterned = ExprRef::new(decoded);
        assert_eq!(
            interned.id(),
            reinterned.id(),
            "a decoded copy must re-intern to the original node"
        );
        assert!(ExprRef::ptr_eq(&interned, &reinterned));
        assert_eq!(interned.cached_hash(), reinterned.cached_hash());
    });
}

#[test]
fn ids_are_stable_while_a_ref_is_live() {
    check("intern_id_stability", 100, |rng| {
        let e = arb_expr(rng, 4);
        let first = ExprRef::new(e.clone());
        let id = first.id();
        // Interning unrelated churn must not move a live node.
        for _ in 0..16 {
            let _ = ExprRef::new(arb_expr(rng, 3));
        }
        assert_eq!(ExprRef::new(e).id(), id);
    });
}
