//! The RV64 artifact format and its frame ABI.
//!
//! An [`RvArtifact`] is what the RISC-V lowering in `rupicola-rv` emits
//! and what the artifact store keeps: symbolic assembly over the subset
//! in [`crate::rv`], the frame layout the loader sets up, and the inline
//! tables it materializes. The lowering itself lives in `rupicola-rv`;
//! this module holds only the types the codec in [`crate::serial`] also
//! needs.

use crate::rv::{Asm, Reg};
use std::fmt;

/// Compilation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RvCompileError {
    /// The construct is outside the backend's fragment.
    Unsupported(&'static str),
    /// An expression needed more than the available scratch registers.
    ExpressionTooDeep,
    /// A variable was read before any assignment gave it a slot.
    UnknownLocal(String),
}

impl fmt::Display for RvCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RvCompileError::Unsupported(c) => write!(f, "unsupported by the RV backend: {c}"),
            RvCompileError::ExpressionTooDeep => write!(f, "expression exceeds the register stack"),
            RvCompileError::UnknownLocal(v) => write!(f, "local `{v}` has no frame slot"),
        }
    }
}

impl std::error::Error for RvCompileError {}

/// The frame-pointer register: the loader points `x2` at the locals
/// frame, and every frame slot is addressed off it.
pub const FP: Reg = 2;

/// A compiled function: symbolic assembly plus its loading metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RvArtifact {
    /// Function name.
    pub name: String,
    /// Symbolic assembly (assemble with the loader's table symbols).
    pub asm: Vec<Asm>,
    /// Frame slot order: `locals[i]` lives at offset `8·i` off `x2`.
    pub locals: Vec<String>,
    /// Indices into `locals` for the arguments, in order.
    pub arg_slots: Vec<usize>,
    /// Indices into `locals` for the returned locals, in order.
    pub ret_slots: Vec<usize>,
    /// Inline tables to materialize (name, bytes).
    pub tables: Vec<(String, Vec<u8>)>,
}
