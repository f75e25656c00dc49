//! Rupicola-rs: relational compilation for performance-critical applications.
//!
//! This facade crate re-exports the full toolkit. See the repository README
//! for a guided tour and `DESIGN.md` for the system inventory.

pub use rupicola_analysis as analysis;
pub use rupicola_programs::parallel::{compile_entries, default_workers, SuiteResult};
pub use rupicola_bedrock as bedrock;
pub use rupicola_core as core;
pub use rupicola_ext as ext;
pub use rupicola_lang as lang;
pub use rupicola_monads as monads;
pub use rupicola_opt as opt;
pub use rupicola_opt::{optimize_compiled, PassId, PipelineConfig, PipelineReport};
pub use rupicola_programs as programs;
pub use rupicola_rv as rv;
pub use rupicola_rv::{lower_validated, RvBackendError, RvPipelineConfig, RvReport, RvStageId};
pub use rupicola_sep as sep;
pub use rupicola_service as service;
pub use rupicola_service::{compile_suite_cached, CachedResult, Server, ShardedStore};
pub use rupicola_stackm as stackm;
