//! Seeded miscompilation mutants for the RISC-V route.
//!
//! Each mutant perturbs a *lowered artifact* the way a realistic backend
//! bug would — a clobbered callee-saved register, a branch landing one
//! instruction off, a spill that never happens, a load of the wrong
//! width — and the fault matrix demands that differential validation
//! kills every applicable one. This is the assurance argument for
//! trusting untrusted passes: not that they are correct, but that the
//! validator catches exactly this class of bug.

use rupicola_bedrock::rv::{Asm, Reg};
use rupicola_bedrock::rv_compile::{RvArtifact, FP};

use crate::{POOL_BASE, POOL_LAST};

/// One seeded lowering bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowerMutant {
    /// Overwrites a callee-saved pool register right before its first
    /// read — the classic "allocator forgot the register was live" bug.
    ClobberCalleeSaved,
    /// Retargets a conditional branch one instruction past its label — an
    /// off-by-one in branch offset resolution.
    OffByOneBranch,
    /// Deletes a frame store feeding a return slot — a dropped spill.
    DroppedSpill,
    /// Changes the width of a data load by one class — a size-extension
    /// bug.
    WrongWidthLoad,
}

impl LowerMutant {
    /// Every mutant, in matrix order.
    pub const ALL: [LowerMutant; 4] = [
        LowerMutant::ClobberCalleeSaved,
        LowerMutant::OffByOneBranch,
        LowerMutant::DroppedSpill,
        LowerMutant::WrongWidthLoad,
    ];

    /// Stable matrix-row name.
    pub fn name(self) -> &'static str {
        match self {
            LowerMutant::ClobberCalleeSaved => "lower/clobber-callee-saved",
            LowerMutant::OffByOneBranch => "lower/off-by-one-branch",
            LowerMutant::DroppedSpill => "lower/dropped-spill",
            LowerMutant::WrongWidthLoad => "lower/wrong-width-load",
        }
    }

    /// Applies the mutation, or `None` when the artifact has no site for
    /// it (e.g. no pool reads in a naive lowering, no branch in a
    /// straight-line body). Returns only artifacts that actually differ.
    pub fn apply(self, artifact: &RvArtifact) -> Option<RvArtifact> {
        let asm = match self {
            LowerMutant::ClobberCalleeSaved => clobber_callee_saved(&artifact.asm),
            LowerMutant::OffByOneBranch => off_by_one_branch(&artifact.asm),
            LowerMutant::DroppedSpill => dropped_spill(artifact),
            LowerMutant::WrongWidthLoad => wrong_width_load(&artifact.asm),
        }?;
        if asm == artifact.asm {
            return None;
        }
        Some(RvArtifact { asm, ..artifact.clone() })
    }
}

/// The lowest pool register this instruction reads, if any.
fn first_pool_read(i: &Asm) -> Option<Reg> {
    (POOL_BASE..=POOL_LAST).find(|r| reads_reg(i, *r))
}

fn reads_reg(i: &Asm, r: Reg) -> bool {
    match *i {
        Asm::Add(_, a, b)
        | Asm::Sub(_, a, b)
        | Asm::Mul(_, a, b)
        | Asm::Mulhu(_, a, b)
        | Asm::Divu(_, a, b)
        | Asm::Remu(_, a, b)
        | Asm::And(_, a, b)
        | Asm::Or(_, a, b)
        | Asm::Xor(_, a, b)
        | Asm::Sll(_, a, b)
        | Asm::Srl(_, a, b)
        | Asm::Sra(_, a, b)
        | Asm::Slt(_, a, b)
        | Asm::Sltu(_, a, b)
        | Asm::Beq(a, b, _)
        | Asm::Bne(a, b, _)
        | Asm::Bltu(a, b, _)
        | Asm::Bgeu(a, b, _) => a == r || b == r,
        Asm::Addi(_, a, _) => a == r,
        Asm::Lbu(_, b, _) | Asm::Lhu(_, b, _) | Asm::Lwu(_, b, _) | Asm::Ld(_, b, _) => b == r,
        Asm::Sb(s, b, _) | Asm::Sh(s, b, _) | Asm::Sw(s, b, _) | Asm::Sd(s, b, _) => {
            s == r || b == r
        }
        Asm::Li(..) | Asm::Label(_) | Asm::J(_) | Asm::Halt => false,
    }
}

fn clobber_callee_saved(asm: &[Asm]) -> Option<Vec<Asm>> {
    let (i, r) = asm
        .iter()
        .enumerate()
        .find_map(|(i, ins)| first_pool_read(ins).map(|r| (i, r)))?;
    let mut out = asm.to_vec();
    out.insert(i, Asm::Li(r, rupicola_bedrock::rv::Imm::Lit(0xDEAD_BEEF)));
    Some(out)
}

fn branch_label(i: &Asm) -> Option<&str> {
    match i {
        Asm::Beq(_, _, l) | Asm::Bne(_, _, l) | Asm::Bltu(_, _, l) | Asm::Bgeu(_, _, l) => Some(l),
        _ => None,
    }
}

fn with_label(i: &Asm, l: String) -> Asm {
    match i.clone() {
        Asm::Beq(a, b, _) => Asm::Beq(a, b, l),
        Asm::Bne(a, b, _) => Asm::Bne(a, b, l),
        Asm::Bltu(a, b, _) => Asm::Bltu(a, b, l),
        Asm::Bgeu(a, b, _) => Asm::Bgeu(a, b, l),
        other => other,
    }
}

fn skew_branch(asm: &[Asm], bi: usize, target: &str, first_real: usize) -> Vec<Asm> {
    let skew = format!("{target}.skew");
    let mut out = asm.to_vec();
    out.insert(first_real + 1, Asm::Label(skew.clone()));
    // The insertion shifts the branch when it sits after the skew point
    // (a backward branch).
    let bi = if first_real < bi { bi + 1 } else { bi };
    out[bi] = with_label(&out[bi], skew);
    out
}

fn off_by_one_branch(asm: &[Asm]) -> Option<Vec<Asm>> {
    // For each conditional branch: find its target label and the first
    // real instruction after it — the instruction a one-off branch would
    // skip. Prefer a branch that skips *dataflow* (arithmetic, a load, a
    // jump): skipping the epilogue flush of a never-written argument is a
    // semantically invisible bug no validator could (or should) flag.
    let mut fallback = None;
    for (bi, ins) in asm.iter().enumerate() {
        let Some(target) = branch_label(ins) else { continue };
        let Some(li) =
            asm.iter().position(|i| matches!(i, Asm::Label(l) if l == target))
        else {
            continue;
        };
        let Some(first_real) = asm[li + 1..]
            .iter()
            .position(|i| !matches!(i, Asm::Label(_)))
            .map(|off| li + 1 + off)
        else {
            continue;
        };
        let skips_store =
            matches!(asm[first_real], Asm::Sb(..) | Asm::Sh(..) | Asm::Sw(..) | Asm::Sd(..));
        if !skips_store {
            return Some(skew_branch(asm, bi, target, first_real));
        }
        if fallback.is_none() {
            fallback = Some((bi, target.to_string(), li));
        }
    }
    // Every candidate's one-late landing would only skip an epilogue
    // flush. Land one instruction *early* instead: the branch executes
    // the instruction preceding its label (for a loop-exit branch, the
    // back-jump — the same class of offset bug, pointing the other way).
    let (bi, target, li) = fallback?;
    let prev_real = asm[..li].iter().rposition(|i| !matches!(i, Asm::Label(_)))?;
    let skew = format!("{target}.skew");
    let mut out = asm.to_vec();
    out.insert(prev_real, Asm::Label(skew.clone()));
    let bi = if prev_real <= bi { bi + 1 } else { bi };
    out[bi] = with_label(&out[bi], skew);
    Some(out)
}

fn dropped_spill(artifact: &RvArtifact) -> Option<Vec<Asm>> {
    let ret_offs: Vec<i64> = artifact.ret_slots.iter().map(|s| (*s as i64) * 8).collect();
    let is_frame_store = |ins: &Asm, ret_only: bool| match ins {
        Asm::Sd(_, base, off) if *base == FP => !ret_only || ret_offs.contains(off),
        _ => false,
    };
    // Prefer the last store into a return slot (directly observable);
    // fall back to the last frame store of any kind.
    let idx = artifact
        .asm
        .iter()
        .rposition(|ins| is_frame_store(ins, true))
        .or_else(|| artifact.asm.iter().rposition(|ins| is_frame_store(ins, false)))?;
    let mut out = artifact.asm.clone();
    out.remove(idx);
    Some(out)
}

fn wrong_width_load(asm: &[Asm]) -> Option<Vec<Asm>> {
    // Only *data* loads (base ≠ FP) are candidates: frame slots hold
    // zero-extended words whose values rarely exceed 32 bits, so a
    // narrowed frame `ld` is usually a no-op — an unkillable, and
    // therefore dishonest, mutant. Widening a narrow data load is the
    // observable direction: it drags in neighbouring bytes (or faults at
    // the end of the region).
    let widened = |ins: &Asm| match *ins {
        Asm::Lbu(d, b, o) if b != FP => Some(Asm::Lhu(d, b, o)),
        Asm::Lhu(d, b, o) if b != FP => Some(Asm::Lwu(d, b, o)),
        Asm::Lwu(d, b, o) if b != FP => Some(Asm::Ld(d, b, o)),
        _ => None,
    };
    // Full-width data loads can only narrow. Narrow to a halfword, not a
    // word: 64-bit slots routinely hold 32-bit values (masked arithmetic,
    // CRC tables), for which a 32-bit narrowing is another no-op mutant.
    let narrowed = |ins: &Asm| match *ins {
        Asm::Ld(d, b, o) if b != FP => Some(Asm::Lhu(d, b, o)),
        _ => None,
    };
    let (i, repl) = asm
        .iter()
        .enumerate()
        .find_map(|(i, ins)| widened(ins).map(|r| (i, r)))
        .or_else(|| asm.iter().enumerate().find_map(|(i, ins)| narrowed(ins).map(|r| (i, r))))?;
    let mut out = asm.to_vec();
    out[i] = repl;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_bedrock::ast::{BExpr, BFunction, BinOp, Cmd};
    use crate::lower::{linear_scan, lower_allocated, Assignment};

    fn looped() -> BFunction {
        use rupicola_bedrock::ast::AccessSize;
        let body = Cmd::seq([
            Cmd::set("acc", BExpr::lit(0)),
            Cmd::set("i", BExpr::lit(0)),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")),
                Cmd::seq([
                    Cmd::set(
                        "b",
                        BExpr::load(
                            AccessSize::One,
                            BExpr::op(BinOp::Add, BExpr::var("p"), BExpr::var("i")),
                        ),
                    ),
                    Cmd::set("acc", BExpr::op(BinOp::Add, BExpr::var("acc"), BExpr::var("b"))),
                    Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                ]),
            ),
        ]);
        BFunction::new("sum", ["p", "n"], ["acc"], body)
    }

    #[test]
    fn every_mutant_applies_to_an_allocated_loop() {
        let f = looped();
        let art = lower_allocated(&f, &linear_scan(&f)).unwrap();
        for m in LowerMutant::ALL {
            let mutated = m.apply(&art);
            assert!(mutated.is_some(), "{} found no site", m.name());
            assert_ne!(mutated.unwrap().asm, art.asm, "{} must change the code", m.name());
        }
    }

    #[test]
    fn pool_mutants_skip_naive_artifacts() {
        // The spill-all lowering never touches the pool, so the clobber
        // mutant must report inapplicability rather than emit an
        // equivalent (surviving!) mutant.
        let art = lower_allocated(&looped(), &Assignment::default()).unwrap();
        assert!(LowerMutant::ClobberCalleeSaved.apply(&art).is_none());
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = LowerMutant::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LowerMutant::ALL.len());
    }
}
