//! The Rupicola-rs relational compilation engine.
//!
//! This crate is the paper's primary contribution, rebuilt in Rust:
//! compilation as *code-generating proof search* (§2). A compiler is an
//! ordered collection of lemmas ([`lemma::HintDbs`]); compiling a
//! [`rupicola_lang::Model`] against a [`fnspec::FnSpec`] means resolving the
//! goal `∃ c, {t; m; l; σ} c {P (model)}` by applying lemmas until the
//! terminal rule closes the derivation. Every successful run produces a
//! Bedrock2 function *and* a [`derive::Derivation`] witness, which the
//! trusted checker ([`check`]) re-validates structurally, differentially,
//! and — for loops — by evaluating the inferred invariants of §3.4.2 at
//! every loop head.
//!
//! # Crate map
//!
//! | module | paper section | role |
//! |---|---|---|
//! | [`goal`] | §3.3 | the statement judgment `{t; m; l; σ} ?c {P p}` |
//! | [`lemma`] | §2.3 | lemma traits and hint databases |
//! | [`engine`] | §2.2, §3.2 | non-backtracking proof search, `done` rule |
//! | [`solver`] | §3.2 | side-condition solvers (`lia` analog) |
//! | [`invariant`] | §3.4.2 | predicate/loop-invariant inference |
//! | [`fnspec`] | §3.2 | `fnspec!` ABI layer |
//! | [`mod@derive`] | §2 | derivation witnesses |
//! | [`check`] | §4.3 (trusted base) | the trusted checker |
//!
//! # Example
//!
//! Compiling the identity function over byte arrays needs no lemmas at all
//! (the terminal rule suffices), and the checker validates the result:
//!
//! ```
//! use rupicola_core::{compile, check::check, fnspec::{ArgSpec, FnSpec, RetSpec}, lemma::HintDbs};
//! use rupicola_lang::{dsl::*, ElemKind, Model};
//!
//! let model = Model::new("id", ["s"], var("s"));
//! let spec = FnSpec::new(
//!     "id",
//!     vec![
//!         ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
//!         ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
//!     ],
//!     vec![RetSpec::InPlace { param: "s".into() }],
//! );
//! let compiled = compile(&model, &spec, &HintDbs::new())?;
//! let report = check(&compiled, &HintDbs::new())?;
//! assert!(report.vectors_run > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod check;
pub mod derive;
pub mod engine;
pub mod error;
pub mod faultinject;
pub mod fnspec;
pub mod goal;
pub mod invariant;
pub mod lemma;
pub mod limits;
mod pmap;
pub mod serial;
pub mod solver;

pub use engine::{catch_quiet, compile, compile_with_limits, CompileStats, CompiledFunction, Compiler};
pub use error::CompileError;
pub use limits::{EngineLimits, ResourceKind};
pub use goal::{
    DefChain, Hyp, HypContext, HypEntry, HypRef, MonadCtx, Post, RetSlot, SideCond, StmtGoal,
};
pub use lemma::{Applied, AppliedExpr, ExprLemma, GoalEdit, HintDbs, Prefix, StmtLemma};
