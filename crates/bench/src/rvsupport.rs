//! Shared drivers for the RISC-V backend harness: per-program route
//! statistics (static instruction counts and dynamic retired-instruction
//! estimates for the naive, allocated and fully-optimized pipelines) and
//! the lowering-mutant kill matrix.
//!
//! `rvbench` renders these into `results/rv.json` and enforces the
//! allocator and mutant gates; `faultmatrix` reuses the matrix as its
//! `rv` column.

use crate::json::Json;
use rupicola_core::check::{differential_inputs, Certificate, CheckConfig};
use rupicola_core::{CompiledFunction, HintDbs};
use rupicola_rv::mutants::LowerMutant;
use rupicola_rv::{
    instr_count, lower_validated, run_artifact, validate_artifact, RvPipelineConfig, RvStageId,
    RV_FUEL,
};

/// Static and dynamic cost of one program on every RISC-V route.
#[derive(Debug, Clone)]
pub struct RvRouteStats {
    /// Program name.
    pub name: String,
    /// Instruction count of the validated spill-all lowering.
    pub naive_instrs: usize,
    /// Instruction count after register allocation alone.
    pub alloc_instrs: usize,
    /// Instruction count after the full pipeline (allocation + peepholes).
    pub full_instrs: usize,
    /// Instructions retired by the naive artifact, summed over every
    /// checker-concretized input.
    pub naive_executed: u64,
    /// Instructions retired by the fully-optimized artifact over the same
    /// inputs.
    pub full_executed: u64,
    /// Stages the full pipeline rolled back (0 on a healthy backend).
    pub rolled_back: usize,
}

impl RvRouteStats {
    /// Whether the allocator strictly shrank the program (the honest
    /// replacement gate: fewer instructions than spill-all, not merely
    /// not-worse).
    pub fn alloc_strictly_smaller(&self) -> bool {
        self.alloc_instrs < self.naive_instrs
    }
}

/// Lowers `cf` through all three routes — validated at every stage — and
/// measures them. The dynamic counts run both end artifacts over *every*
/// checker-concretized input and sum the retired instructions: a single
/// vector (often the empty-buffer edge case) would let per-call
/// prologue/epilogue overhead drown the loop-body savings.
///
/// # Errors
///
/// Any baseline failure from [`lower_validated`] or a machine fault while
/// measuring, rendered as a string.
pub fn rv_route_stats(
    name: &str,
    cf: &CompiledFunction,
    config: &CheckConfig,
) -> Result<RvRouteStats, String> {
    let (naive, _) = lower_validated(cf, &RvPipelineConfig::none(), config)
        .map_err(|e| format!("{name}: naive route: {e}"))?;
    let alloc_only = RvPipelineConfig { stages: vec![RvStageId::RegAlloc] };
    let (alloc, _) = lower_validated(cf, &alloc_only, config)
        .map_err(|e| format!("{name}: alloc route: {e}"))?;
    let (full, report) = lower_validated(cf, &RvPipelineConfig::full(), config)
        .map_err(|e| format!("{name}: full route: {e}"))?;
    let inputs = differential_inputs(cf, config);
    if inputs.is_empty() {
        return Err(format!("{name}: no differential input"));
    }
    let (mut naive_executed, mut full_executed) = (0u64, 0u64);
    for input in &inputs {
        let mut mem_n = input.mem.clone();
        let out_n = run_artifact(&naive, &mut mem_n, &input.args, RV_FUEL)
            .map_err(|e| format!("{name}: naive run on [{}]: {e}", input.desc))?;
        let mut mem_f = input.mem.clone();
        let out_f = run_artifact(&full, &mut mem_f, &input.args, RV_FUEL)
            .map_err(|e| format!("{name}: optimized run on [{}]: {e}", input.desc))?;
        naive_executed += out_n.executed;
        full_executed += out_f.executed;
    }
    Ok(RvRouteStats {
        name: name.to_string(),
        naive_instrs: instr_count(&naive.asm),
        alloc_instrs: instr_count(&alloc.asm),
        full_instrs: instr_count(&full.asm),
        naive_executed,
        full_executed,
        rolled_back: report.rolled_back_count(),
    })
}

/// One cell of the lowering-mutant matrix.
#[derive(Debug, Clone)]
pub struct RvMutantCell {
    /// Program the mutant was derived from.
    pub program: String,
    /// Mutant name (`lower/...`).
    pub mutant: &'static str,
    /// Whether the differential validator rejected the mutated artifact.
    pub killed: bool,
}

/// The lowering-mutant matrix over a set of programs.
#[derive(Debug, Clone, Default)]
pub struct RvMutantMatrix {
    /// Every (program, mutant) pair where the mutant fired.
    pub cells: Vec<RvMutantCell>,
    /// `program: [mutant]` strings for every surviving cell.
    pub survivors: Vec<String>,
}

impl RvMutantMatrix {
    /// Fired mutants.
    pub fn applicable(&self) -> usize {
        self.cells.len()
    }

    /// Killed mutants.
    pub fn killed(&self) -> usize {
        self.cells.iter().filter(|c| c.killed).count()
    }

    /// Prints one line per cell and returns the cells as JSON rows.
    pub fn report(&self) -> Vec<Json> {
        self.cells
            .iter()
            .map(|c| {
                let verdict = if c.killed { "killed" } else { "SURVIVED" };
                println!("  {:<10} {:<28} {verdict}", c.program, c.mutant);
                Json::obj([
                    ("program", Json::str(c.program.clone())),
                    ("mutant", Json::str(c.mutant)),
                    ("killed", Json::Bool(c.killed)),
                ])
            })
            .collect()
    }
}

/// Runs every [`LowerMutant`] against every program's fully-optimized
/// validated artifact: the mutant corrupts the machine code behind the
/// validator's back, and the differential re-validation (the same defense
/// the store and pipeline rely on) must reject it.
///
/// # Errors
///
/// A program whose *pristine* full-pipeline lowering fails — the matrix
/// needs a validated artifact to corrupt.
pub fn rv_mutant_matrix(
    compiled: &[(&'static str, CompiledFunction)],
    config: &CheckConfig,
) -> Result<RvMutantMatrix, String> {
    let mut matrix = RvMutantMatrix::default();
    for (name, cf) in compiled {
        let (pristine, _) = lower_validated(cf, &RvPipelineConfig::full(), config)
            .map_err(|e| format!("{name}: pristine lowering failed: {e}"))?;
        // The differential reads only the reference runs, which never
        // consult the hint databases.
        let dbs = HintDbs::new();
        let cert = Certificate::new(cf, &dbs, config);
        for mutant in LowerMutant::ALL {
            let Some(broken) = mutant.apply(&pristine) else { continue };
            let killed = validate_artifact(&cert, &broken).is_err();
            if !killed {
                matrix.survivors.push(format!("{name}: [{}]", mutant.name()));
            }
            matrix.cells.push(RvMutantCell {
                program: (*name).to_string(),
                mutant: mutant.name(),
                killed,
            });
        }
    }
    Ok(matrix)
}
