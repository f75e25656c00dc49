//! Fact export API: analysis results as consumable data, not just lints.
//!
//! The lint passes report human-readable [`Finding`](crate::Finding)s; the optimization
//! pass manager in `rupicola-opt` needs the *facts underneath* — which
//! assignment sites are dead, whether a right-hand side can be deleted
//! without deleting a trap, what value range an expression is confined to.
//! This module re-derives those facts from the same analyses the lints run
//! (liveness over the site-tagged CFG, the interval domain), so a pass and
//! the lint that later re-audits its output can never disagree about what
//! the analysis said.

use crate::interval::{Bound, Range};
use crate::{live, FindingKind};
use rupicola_bedrock::ast::{AccessSize, BExpr, BFunction, BinOp};
use std::collections::BTreeSet;

/// Assignment sites (ordinals compatible with
/// [`rupicola_bedrock::cfg::remove_set_sites`]) that are dead stores *and*
/// removal-safe: the target is never read afterwards and the right-hand
/// side reads no memory, so deleting the statement preserves behavior
/// trap-for-trap. Exactly the sites the liveness lint would report.
pub fn dead_store_sites(f: &BFunction) -> BTreeSet<usize> {
    live::run(f)
        .into_iter()
        .filter(|finding| matches!(finding.kind, FindingKind::DeadStore { .. }))
        .filter_map(|finding| finding.site)
        .collect()
}

/// Whether deleting a `Set` with this right-hand side is observationally
/// safe — re-exported from the liveness pass so rewriters share the lint's
/// exact criterion (no `Load`, no inline table: a deleted read could also
/// delete a trap).
pub use crate::live::removal_safe;

fn width_range(size: AccessSize) -> Range {
    match size.bytes() {
        1 => Range::of(0, 0xFF),
        2 => Range::of(0, 0xFFFF),
        4 => Range::of(0, 0xFFFF_FFFF),
        _ => Range::full(),
    }
}

fn fin(r: &Range) -> Option<u64> {
    match &r.hi {
        Bound::Fin(h) => Some(*h),
        _ => None,
    }
}

/// The smallest all-ones mask (`2^k − 1`) covering `v`.
fn next_mask(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        u64::MAX >> v.leading_zeros()
    }
}

fn op_range(op: BinOp, ra: &Range, rb: &Range) -> Range {
    let (la, ha) = (ra.lo, fin(ra));
    let (lb, hb) = (rb.lo, fin(rb));
    match op {
        BinOp::Add => match (ha, hb, la.checked_add(lb)) {
            (Some(ha), Some(hb), Some(lo)) => match ha.checked_add(hb) {
                Some(hi) => Range::of(lo, hi),
                None => Range::full(),
            },
            _ => Range::full(),
        },
        BinOp::Sub => match hb {
            // No wrap anywhere in [la − hb, ha − lb] iff la ≥ hb.
            Some(hb) if la >= hb => match ha {
                Some(ha) => Range::of(la - hb, ha - lb),
                None => Range { lo: la - hb, hi: Bound::Inf },
            },
            _ => Range::full(),
        },
        BinOp::Mul => match (ha, hb, la.checked_mul(lb)) {
            (Some(ha), Some(hb), Some(lo)) => match ha.checked_mul(hb) {
                Some(hi) => Range::of(lo, hi),
                None => Range::full(),
            },
            _ => Range::full(),
        },
        BinOp::MulHuu => Range::full(),
        BinOp::DivU => match (ha, hb) {
            // Division by zero yields all-ones, so a divisor that can be
            // zero forces the full range.
            (Some(ha), Some(hb)) if lb >= 1 => Range::of(la / hb, ha / lb),
            _ => Range::full(),
        },
        BinOp::RemU => {
            // rem(a, 0) = a and rem(a, b) < b for b > 0; both cases stay
            // ≤ a, so the dividend's high bound always holds.
            let hi = match (ha, hb) {
                (Some(ha), Some(hb)) if lb >= 1 => Some(ha.min(hb - 1)),
                (_, Some(hb)) if lb >= 1 => Some(hb - 1),
                (Some(ha), _) => Some(ha),
                _ => None,
            };
            match hi {
                Some(hi) => Range::of(0, hi),
                None => Range::full(),
            }
        }
        BinOp::And => match (ha, hb) {
            (Some(ha), Some(hb)) => Range::of(0, ha.min(hb)),
            (Some(ha), None) => Range::of(0, ha),
            (None, Some(hb)) => Range::of(0, hb),
            _ => Range::full(),
        },
        BinOp::Or => match (ha, hb) {
            // x ≤ M and y ≤ M for an all-ones M implies x|y ≤ M.
            (Some(ha), Some(hb)) => Range { lo: la.max(lb), hi: Bound::Fin(next_mask(ha.max(hb))) },
            _ => Range::full(),
        },
        BinOp::Xor => match (ha, hb) {
            (Some(ha), Some(hb)) => Range::of(0, next_mask(ha.max(hb))),
            _ => Range::full(),
        },
        BinOp::Sru => match rb.as_exact() {
            Some(k) => {
                let k = (k & 63) as u32;
                match ha {
                    Some(ha) => Range::of(la >> k, ha >> k),
                    None => Range { lo: 0, hi: Bound::Inf },
                }
            }
            None => Range::full(),
        },
        BinOp::Slu => match (rb.as_exact(), ha) {
            // Only when no bit of the high bound shifts out.
            (Some(k), Some(ha)) if k < 64 && (k == 0 || u64::from(ha.leading_zeros()) >= k) => {
                Range::of(la << k, ha << k)
            }
            _ => Range::full(),
        },
        BinOp::Srs => match (rb.as_exact(), ha) {
            // With the sign bit provably clear this is a logical shift.
            (Some(k), Some(ha)) if ha < 1 << 63 => {
                let k = (k & 63) as u32;
                Range::of(la >> k, ha >> k)
            }
            _ => Range::full(),
        },
        BinOp::LtS | BinOp::LtU | BinOp::Eq => Range::of(0, 1),
    }
}

/// A conservative value range for `e`, derived bottom-up with the interval
/// domain's [`Range`]: literals are exact, memory reads are bounded by
/// their access width, variables are unconstrained. Sound for any locals
/// state — the range holds whenever every subexpression evaluates without
/// trapping — which is what a peephole needs to prove a mask or remainder
/// redundant.
pub fn expr_range(e: &BExpr) -> Range {
    match e {
        BExpr::Lit(w) => Range::exact(*w),
        BExpr::Var(_) => Range::full(),
        BExpr::Load(size, _) => width_range(*size),
        BExpr::InlineTable { size, .. } => width_range(*size),
        BExpr::Op(op, a, b) => op_range(*op, &expr_range(a), &expr_range(b)),
    }
}

/// The finite upper bound of `r`, if it has one.
pub fn finite_upper_bound(r: &Range) -> Option<u64> {
    fin(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_bedrock::ast::Cmd;

    fn b(op: BinOp, a: BExpr, bb: BExpr) -> BExpr {
        BExpr::op(op, a, bb)
    }

    #[test]
    fn dead_sites_match_the_lint() {
        let f = BFunction::new(
            "f",
            Vec::<String>::new(),
            ["x"],
            Cmd::seq([Cmd::set("x", BExpr::lit(1)), Cmd::set("x", BExpr::lit(2))]),
        );
        assert_eq!(dead_store_sites(&f), BTreeSet::from([0]));
    }

    #[test]
    fn load_result_is_width_bounded() {
        let e = BExpr::load(AccessSize::One, BExpr::var("p"));
        assert_eq!(finite_upper_bound(&expr_range(&e)), Some(0xFF));
    }

    #[test]
    fn masked_byte_stays_under_mask() {
        // (load1(p) ^ acc) & 255 ∈ [0, 255]
        let e = b(
            BinOp::And,
            b(
                BinOp::Xor,
                BExpr::load(AccessSize::One, BExpr::var("p")),
                BExpr::var("acc"),
            ),
            BExpr::lit(255),
        );
        assert_eq!(finite_upper_bound(&expr_range(&e)), Some(255));
    }

    #[test]
    fn scaled_index_is_bounded() {
        // ((x & 255) * 8) ∈ [0, 2040]
        let e = b(
            BinOp::Mul,
            b(BinOp::And, BExpr::var("x"), BExpr::lit(255)),
            BExpr::lit(8),
        );
        assert_eq!(finite_upper_bound(&expr_range(&e)), Some(2040));
    }

    #[test]
    fn shifts_track_bounds() {
        let byte = BExpr::load(AccessSize::One, BExpr::var("p"));
        let left = b(BinOp::Slu, byte.clone(), BExpr::lit(8));
        assert_eq!(finite_upper_bound(&expr_range(&left)), Some(0xFF00));
        let right = b(BinOp::Sru, byte, BExpr::lit(4));
        assert_eq!(finite_upper_bound(&expr_range(&right)), Some(0xF));
    }

    #[test]
    fn remu_by_positive_literal_is_bounded() {
        let e = b(BinOp::RemU, BExpr::var("x"), BExpr::lit(10));
        assert_eq!(finite_upper_bound(&expr_range(&e)), Some(9));
        // remainder by a possibly-zero divisor keeps the dividend bound
        let e = b(
            BinOp::RemU,
            b(BinOp::And, BExpr::var("x"), BExpr::lit(7)),
            BExpr::var("y"),
        );
        assert_eq!(finite_upper_bound(&expr_range(&e)), Some(7));
    }

    #[test]
    fn comparisons_are_boolean() {
        let e = b(BinOp::LtU, BExpr::var("x"), BExpr::var("y"));
        assert_eq!(finite_upper_bound(&expr_range(&e)), Some(1));
    }

    #[test]
    fn wrapping_ops_fall_back_to_full() {
        let e = b(BinOp::Sub, BExpr::var("x"), BExpr::lit(97));
        assert_eq!(finite_upper_bound(&expr_range(&e)), None);
    }
}
