//! The §4.2 benchmark suite: "programs from a variety of domains, including
//! string manipulation, hashing, and packet-manipulating (network)
//! programs".
//!
//! Each module is one benchmarked program and provides, uniformly:
//!
//! - `model()` — the annotated functional model (Rupicola's input);
//! - `spec()` — its ABI ([`rupicola_core::fnspec::FnSpec`]);
//! - `compiled()` — the relational compilation entry point;
//! - `reference(…)` — a plain-Rust executable specification (what the
//!   model is verified against: the "end-to-end" phase);
//! - `baseline(…)` — the handwritten C-style implementation benchmarked
//!   against the generated code in Figure 2;
//! - `naive(…)` — a linked-list, fresh-allocation functional
//!   implementation standing in for Coq's extracted OCaml (Box 1 and the
//!   orders-of-magnitude comparison of §4.2).
//!
//! [`suite`] collects the per-program metadata that regenerates Table 2.

pub mod chacha20_block;
pub mod chacha_qr;
pub mod crc32;
pub mod ct_memcmp;
pub mod ct_select;
pub mod ctmutants;
pub mod fasta;
pub mod fnv1a;
pub mod funclist;
pub mod hex_dec;
pub mod hex_enc;
pub mod ip;
pub mod m3s;
pub mod parallel;
pub mod poly_acc;
pub mod upstr;
pub mod utf8;

use rupicola_core::{CompileError, CompiledFunction, EngineLimits};
use rupicola_lang::Model;

/// The compiler-extension features a program leverages (the feature matrix
/// columns of Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Features {
    /// Word/byte/boolean arithmetic.
    pub arithmetic: bool,
    /// Inline (constant) tables.
    pub inline: bool,
    /// Flat arrays.
    pub arrays: bool,
    /// Loop lemmas (map/fold/ranged).
    pub loops: bool,
    /// In-place mutation.
    pub mutation: bool,
}

/// Metadata of one suite program (one row of Table 2).
#[derive(Debug, Clone)]
pub struct ProgramInfo {
    /// Program name.
    pub name: &'static str,
    /// Table 2's one-line description.
    pub description: &'static str,
    /// Programmer-effort proxy: lines of the functional model and its
    /// signature (measured from the module source between markers).
    pub source_loc: usize,
    /// Lines of program-specific properties proved for compilation
    /// (hints/lemmas blocks in the module source).
    pub lemmas_loc: usize,
    /// Number of compilation hints (spec hypotheses + unfoldings).
    pub hints: usize,
    /// Whether an end-to-end executable specification is connected
    /// (the `reference` function plus model-vs-reference tests).
    pub end_to_end: bool,
    /// Feature matrix.
    pub features: Features,
}

/// One row of the suite: metadata plus the constructors the harnesses use.
#[derive(Clone)]
pub struct SuiteEntry {
    /// Static metadata.
    pub info: ProgramInfo,
    /// Builds the functional model.
    pub model: fn() -> Model,
    /// Builds the ABI specification. Together with `model` this lets a
    /// harness compile the program against *its own* hint databases (e.g.
    /// forced-linear or memo-disabled ones) instead of the standard ones
    /// `compiled` uses.
    pub spec: fn() -> rupicola_core::fnspec::FnSpec,
    /// Runs the relational compiler against the standard databases.
    pub compiled: fn() -> Result<CompiledFunction, CompileError>,
    /// Per-program adjustment of the engine budgets, applied by suite
    /// drivers to whatever base limits they run under (so a service
    /// deadline or a harness override still reaches the worker). Identity
    /// ([`default_limits`]) for every program of the suites.
    pub limits: fn(EngineLimits) -> EngineLimits,
}

/// The identity [`SuiteEntry::limits`] adjustment: the program compiles
/// within the caller's budgets unmodified.
pub fn default_limits(base: EngineLimits) -> EngineLimits {
    base
}

impl std::fmt::Debug for SuiteEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuiteEntry").field("info", &self.info).finish()
    }
}

/// The full benchmark suite, in Table 2 order.
///
/// The metadata rows are built once per process (each `info()` measures
/// Source/Lemmas line counts by scanning the module sources, which is far
/// more expensive than the fn-pointer plumbing around it) and cloned out,
/// so suite-level drivers — including the throughput harness, which calls
/// this on every timed repetition — pay only a small constant copy.
pub fn suite() -> Vec<SuiteEntry> {
    static SUITE: std::sync::OnceLock<Vec<SuiteEntry>> = std::sync::OnceLock::new();
    SUITE.get_or_init(build_suite).clone()
}

fn build_suite() -> Vec<SuiteEntry> {
    vec![
        SuiteEntry {
            info: fnv1a::info(),
            model: fnv1a::model,
            spec: fnv1a::spec,
            compiled: fnv1a::compiled,
            limits: default_limits,
        },
        SuiteEntry {
            info: utf8::info(),
            model: utf8::model,
            spec: utf8::spec,
            compiled: utf8::compiled,
            limits: default_limits,
        },
        SuiteEntry {
            info: upstr::info(),
            model: upstr::model,
            spec: upstr::spec,
            compiled: upstr::compiled,
            limits: default_limits,
        },
        SuiteEntry {
            info: m3s::info(),
            model: m3s::model,
            spec: m3s::spec,
            compiled: m3s::compiled,
            limits: default_limits,
        },
        SuiteEntry {
            info: ip::info(),
            model: ip::model,
            spec: ip::spec,
            compiled: ip::compiled,
            limits: default_limits,
        },
        SuiteEntry {
            info: fasta::info(),
            model: fasta::model,
            spec: fasta::spec,
            compiled: fasta::compiled,
            limits: default_limits,
        },
        SuiteEntry {
            info: crc32::info(),
            model: crc32::model,
            spec: crc32::spec,
            compiled: crc32::compiled,
            limits: default_limits,
        },
    ]
}

/// The enlarged throughput-measurement suite: every Table 2 program plus
/// the paper-adjacent perf families (the full ChaCha20 block, the
/// poly1305-style accumulate, the hex codecs). More than 2x the Table 2
/// suite's statement count — a representation-level engine change only
/// shows up on a workload that stresses it, so this is what `speed`
/// measures. Kept separate from [`suite`] so the Table 2 / Figure 2
/// harnesses, goldens, and the fault matrix are untouched.
pub fn perf_suite() -> Vec<SuiteEntry> {
    static SUITE: std::sync::OnceLock<Vec<SuiteEntry>> = std::sync::OnceLock::new();
    SUITE
        .get_or_init(|| {
            let mut entries = build_suite();
            entries.push(SuiteEntry {
                info: chacha20_block::info(),
                model: chacha20_block::model,
                spec: chacha20_block::spec,
                compiled: chacha20_block::compiled,
                limits: chacha20_block::limits,
            });
            entries.push(SuiteEntry {
                info: poly_acc::info(),
                model: poly_acc::model,
                spec: poly_acc::spec,
                compiled: poly_acc::compiled,
                limits: default_limits,
            });
            entries.push(SuiteEntry {
                info: hex_enc::info(),
                model: hex_enc::model,
                spec: hex_enc::spec,
                compiled: hex_enc::compiled,
                limits: default_limits,
            });
            entries.push(SuiteEntry {
                info: hex_dec::info(),
                model: hex_dec::model,
                spec: hex_dec::spec,
                compiled: hex_dec::compiled,
                limits: default_limits,
            });
            entries
        })
        .clone()
}

/// One row of the constant-time suite: a [`SuiteEntry`] plus the secrecy
/// labels its CT policy is built from.
#[derive(Debug, Clone)]
pub struct CtSuiteEntry {
    /// The program, in the same shape as the main suite.
    pub entry: SuiteEntry,
    /// Parameters whose *contents* are secret under the program's CT
    /// policy (pointers and lengths stay public). Consumers build a
    /// `SecrecyPolicy` from these; the programs crate itself stays
    /// analysis-agnostic.
    pub secret_params: &'static [&'static str],
}

/// The constant-time sub-suite: programs written to be secret-independent,
/// shipped with the secrecy labels the CT lint checks them under.
///
/// Kept separate from [`suite`] (which stays at the paper's seven Table 2
/// rows) so the Table 2 / Figure 2 harnesses and their goldens are
/// untouched, while CT-aware drivers (`ctlint`, `faultmatrix`) iterate
/// both.
pub fn ct_suite() -> Vec<CtSuiteEntry> {
    static SUITE: std::sync::OnceLock<Vec<CtSuiteEntry>> = std::sync::OnceLock::new();
    SUITE
        .get_or_init(|| {
            vec![
                CtSuiteEntry {
                    entry: SuiteEntry {
                        info: ct_memcmp::info(),
                        model: ct_memcmp::model,
                        spec: ct_memcmp::spec,
                        compiled: ct_memcmp::compiled,
                        limits: default_limits,
                    },
                    secret_params: ct_memcmp::SECRET_PARAMS,
                },
                CtSuiteEntry {
                    entry: SuiteEntry {
                        info: ct_select::info(),
                        model: ct_select::model,
                        spec: ct_select::spec,
                        compiled: ct_select::compiled,
                        limits: default_limits,
                    },
                    secret_params: ct_select::SECRET_PARAMS,
                },
                CtSuiteEntry {
                    entry: SuiteEntry {
                        info: chacha_qr::info(),
                        model: chacha_qr::model,
                        spec: chacha_qr::spec,
                        compiled: chacha_qr::compiled,
                        limits: default_limits,
                    },
                    secret_params: chacha_qr::SECRET_PARAMS,
                },
            ]
        })
        .clone()
}

/// Counts the lines of `src` between a `// <marker>-begin` and
/// `// <marker>-end` comment pair (exclusive). Used to measure the
/// Source/Lemmas columns of Table 2 from the actual module sources.
pub fn lines_between(src: &str, marker: &str) -> usize {
    let begin = format!("// {marker}-begin");
    let end = format!("// {marker}-end");
    let mut counting = false;
    let mut n = 0;
    for line in src.lines() {
        let t = line.trim();
        if t == end {
            counting = false;
        }
        if counting && !t.is_empty() {
            n += 1;
        }
        if t == begin {
            counting = true;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_seven_programs_in_table_order() {
        let names: Vec<_> = suite().iter().map(|e| e.info.name).collect();
        assert_eq!(names, vec!["fnv1a", "utf8", "upstr", "m3s", "ip", "fasta", "crc32"]);
    }

    #[test]
    fn every_program_compiles_and_reports_nonzero_source() {
        for entry in suite() {
            let compiled = (entry.compiled)().unwrap_or_else(|e| {
                panic!("{} failed to compile: {e}", entry.info.name)
            });
            assert_eq!(compiled.function.name, entry.info.name);
            assert!(entry.info.source_loc > 0, "{} has measured source", entry.info.name);
        }
    }

    #[test]
    fn ct_suite_has_three_programs_with_secret_labels() {
        let names: Vec<_> = ct_suite().iter().map(|e| e.entry.info.name).collect();
        assert_eq!(names, vec!["ct_memcmp", "ct_select", "chacha_qr"]);
        for e in ct_suite() {
            assert!(!e.secret_params.is_empty(), "{} labels secrets", e.entry.info.name);
        }
    }

    #[test]
    fn lines_between_counts_marked_region() {
        let src = "a\n// x-begin\none\n\ntwo\n// x-end\nb\n";
        assert_eq!(lines_between(src, "x"), 2);
        assert_eq!(lines_between(src, "y"), 0);
    }
}
