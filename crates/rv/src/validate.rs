//! The trusted half of the backend: differential execution of a machine
//! artifact against the Bedrock2 interpreter on the certificate's own
//! concretized inputs.
//!
//! Everything upstream (allocation, peepholes, even the spill-all lowering)
//! is untrusted; this module plus the two interpreters are the entire
//! trusted base of the RISC-V route. The observation set is deliberately
//! wide — return words, the whole final heap region-by-region, and every
//! final local read back from the flushed frame — so a lowering that gets
//! the answer right but clobbers a neighbour has nowhere to hide.

use crate::RvBackendError;
use rupicola_bedrock::rv::{assemble, Machine, RvError};
use rupicola_bedrock::rv_compile::{RvArtifact, FP};
use rupicola_bedrock::Memory;
use rupicola_core::check::Certificate;
use std::collections::HashMap;

/// Machine-side fuel per differential run. Independent of the Bedrock2
/// budget: a miscompiled branch can spin forever on inputs where the
/// interpreter finishes instantly, and validation must terminate to
/// reject it. Generous enough that no honest suite program comes near it.
pub const RV_FUEL: u64 = 1 << 22;

/// What one machine run observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RvRunOutcome {
    /// Return words, in ABI order.
    pub rets: Vec<u64>,
    /// Every local read back from the frame before it was freed — the
    /// machine-side counterpart of the interpreter's final locals.
    pub locals: HashMap<String, u64>,
    /// Instructions retired by this run (the dynamic cost estimate).
    pub executed: u64,
}

/// Loads and runs an artifact: materializes the inline tables, allocates
/// the frame, writes the arguments, simulates, and reads the returns and
/// the whole locals frame back. Never panics on malformed artifacts
/// (arity mismatches are errors).
///
/// Tables and the frame are deallocated on every path, so `mem` ends as
/// the function's visible heap effect alone.
///
/// # Errors
///
/// Any [`RvError`] of assembly or execution.
pub fn run_artifact(
    artifact: &RvArtifact,
    mem: &mut Memory,
    args: &[u64],
    fuel: u64,
) -> Result<RvRunOutcome, RvError> {
    if args.len() != artifact.arg_slots.len() {
        return Err(RvError::Memory(format!(
            "argument count mismatch: {} args for {} slots",
            args.len(),
            artifact.arg_slots.len()
        )));
    }
    let mut symbols = HashMap::new();
    let mut table_bases = Vec::new();
    for (name, data) in &artifact.tables {
        let base = mem.alloc(data.clone());
        table_bases.push(base);
        symbols.insert(name.clone(), base);
    }
    let free_tables = |mem: &mut Memory| {
        for base in &table_bases {
            mem.dealloc(*base);
        }
    };
    let code = match assemble(&artifact.asm, &symbols) {
        Ok(code) => code,
        Err(e) => {
            free_tables(mem);
            return Err(e);
        }
    };
    let frame = mem.alloc(vec![0; artifact.locals.len() * 8]);
    let mut seed_err = None;
    for (slot, value) in artifact.arg_slots.iter().zip(args) {
        use rupicola_bedrock::ast::AccessSize;
        if let Err(e) = mem.store(frame + (*slot as u64) * 8, AccessSize::Eight, *value) {
            seed_err = Some(RvError::Memory(e.to_string()));
            break;
        }
    }
    if let Some(e) = seed_err {
        mem.dealloc(frame);
        free_tables(mem);
        return Err(e);
    }
    let mut machine = Machine::new();
    machine.regs[usize::from(FP)] = frame;
    let result = machine.run(&code, mem, fuel);
    let outcome = result.map(|()| {
        use rupicola_bedrock::ast::AccessSize;
        let word = |slot: usize| {
            mem.load(frame + (slot as u64) * 8, AccessSize::Eight)
                .expect("frame slot within the frame region")
        };
        RvRunOutcome {
            rets: artifact.ret_slots.iter().map(|s| word(*s)).collect(),
            locals: artifact
                .locals
                .iter()
                .enumerate()
                .map(|(i, v)| (v.clone(), word(i)))
                .collect(),
            executed: machine.executed,
        }
    });
    mem.dealloc(frame);
    free_tables(mem);
    outcome
}

fn is_assembly_error(e: &RvError) -> bool {
    matches!(
        e,
        RvError::UndefinedLabel(_) | RvError::DuplicateLabel(_) | RvError::UnresolvedSymbol(_)
    )
}

/// Differentially validates `artifact` against the **certified** body of
/// `cert` (never against another artifact) on the certificate's
/// reference runs, which are computed once however many artifacts are
/// validated against it.
///
/// Equivalence is judged per input as: both fault, or both succeed with
/// identical return words, identical final heaps (region by region —
/// whole-[`Memory`] equality would compare allocator cursors the machine
/// route necessarily advances), and every interpreter-final local present
/// in the frame with the same value.
///
/// # Errors
///
/// [`RvBackendError::Internal`] when the checker concretizes no inputs at
/// all (validating against nothing proves nothing);
/// [`RvBackendError::Assembly`] when the artifact does not even assemble;
/// [`RvBackendError::Diverged`] naming the first disagreeing input.
pub fn validate_artifact(
    cert: &Certificate<'_>,
    artifact: &RvArtifact,
) -> Result<(), RvBackendError> {
    let runs = cert.reference_runs();
    if runs.is_empty() {
        return Err(RvBackendError::Internal {
            detail: "checker produced no differential inputs; refusing to validate on nothing"
                .to_string(),
        });
    }
    for reference in runs {
        let input = &reference.input;
        let st = &reference.state;
        let mut mem_m = input.mem.clone();
        let res_m = run_artifact(artifact, &mut mem_m, &input.args, RV_FUEL);
        if let Err(e) = &res_m {
            if is_assembly_error(e) {
                return Err(RvBackendError::Assembly { detail: e.to_string() });
            }
        }
        match (&reference.outcome, res_m) {
            // Matching faults are equivalent: the lowering may hit its
            // trap at a different point, but both executions get stuck.
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => {
                return Err(RvBackendError::Diverged {
                    detail: format!("machine faults on [{}]: {e}", input.desc),
                });
            }
            (Err(e), Ok(_)) => {
                return Err(RvBackendError::Diverged {
                    detail: format!(
                        "machine succeeds where the interpreter faults on [{}]: {e}",
                        input.desc
                    ),
                });
            }
            (Ok((rets_b, locals_b)), Ok(out)) => {
                if *rets_b != out.rets {
                    return Err(RvBackendError::Diverged {
                        detail: format!(
                            "return values differ on [{}]: {rets_b:?} vs {:?}",
                            input.desc, out.rets
                        ),
                    });
                }
                if st.mem.region_count() != mem_m.region_count() {
                    return Err(RvBackendError::Diverged {
                        detail: format!(
                            "heap region count differs on [{}]: {} vs {}",
                            input.desc,
                            st.mem.region_count(),
                            mem_m.region_count()
                        ),
                    });
                }
                for (base, bytes) in st.mem.regions() {
                    if mem_m.region(base) != Some(bytes) {
                        return Err(RvBackendError::Diverged {
                            detail: format!(
                                "heap region {base:#x} differs on [{}]",
                                input.desc
                            ),
                        });
                    }
                }
                for (var, val) in locals_b {
                    match out.locals.get(var) {
                        Some(frame_val) if frame_val == val => {}
                        Some(frame_val) => {
                            return Err(RvBackendError::Diverged {
                                detail: format!(
                                    "local `{var}` differs on [{}]: {val} vs {frame_val}",
                                    input.desc
                                ),
                            });
                        }
                        None => {
                            return Err(RvBackendError::Diverged {
                                detail: format!(
                                    "local `{var}` missing from the frame on [{}]",
                                    input.desc
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_bedrock::ast::{BExpr, BFunction, BinOp, Cmd};
    use rupicola_bedrock::rv::Asm;
    use crate::{lower_allocated, Assignment};

    fn double(n: u64) -> BFunction {
        let _ = n;
        BFunction::new(
            "double",
            ["x"],
            ["y"],
            Cmd::set("y", BExpr::op(BinOp::Add, BExpr::var("x"), BExpr::var("x"))),
        )
    }

    #[test]
    fn run_artifact_reports_all_locals_and_frees_memory() {
        let art = lower_allocated(&double(0), &Assignment::default()).unwrap();
        let mut mem = Memory::new();
        let out = run_artifact(&art, &mut mem, &[21], 10_000).unwrap();
        assert_eq!(out.rets, vec![42]);
        assert_eq!(out.locals.get("x"), Some(&21));
        assert_eq!(out.locals.get("y"), Some(&42));
        assert!(out.executed > 0);
        assert_eq!(mem.region_count(), 0, "frame and tables freed");
    }

    #[test]
    fn run_artifact_rejects_arity_mismatch_without_panicking() {
        let art = lower_allocated(&double(0), &Assignment::default()).unwrap();
        let mut mem = Memory::new();
        assert!(run_artifact(&art, &mut mem, &[1, 2], 10_000).is_err());
        assert_eq!(mem.region_count(), 0);
    }

    #[test]
    fn run_artifact_frees_tables_when_assembly_fails() {
        let mut art = lower_allocated(&double(0), &Assignment::default()).unwrap();
        art.tables.push(("t".into(), vec![1, 2, 3]));
        art.asm.insert(0, Asm::J("nowhere".into()));
        let mut mem = Memory::new();
        assert!(run_artifact(&art, &mut mem, &[1], 10_000).is_err());
        assert_eq!(mem.region_count(), 0, "tables freed on the error path");
    }
}
