//! A Rust implementation of Bedrock2, the target language of Rupicola.
//!
//! Bedrock2 (Erbsen et al., PLDI 2021) is "an untyped version of the C
//! programming language" (paper, Box 2): structured control flow (function
//! calls, conditionals, loops), a flat byte-addressed heap, a per-function
//! context of word-valued locals, and an event trace capturing externally
//! observable events. Loops only have meaning when they terminate, so proofs
//! about Bedrock2 programs are total-correctness proofs — this crate mirrors
//! that with a fuel-indexed interpreter: successful execution within finite
//! fuel *is* the termination witness.
//!
//! The crate provides:
//!
//! - the abstract syntax ([`ast`]): expressions, commands, functions,
//!   inline tables, stack allocation, external interactions;
//! - a region-based memory model ([`mem`]) that traps out-of-bounds and
//!   unallocated accesses (the low-level bugs Rupicola rules out);
//! - a big-step interpreter ([`interp`]) with pluggable external handlers;
//! - a C pretty-printer ([`cprint`]) in the spirit of Bedrock2's ~200-line
//!   `ToCString`;
//! - an RV64 subset with an assembler, an ISA simulator ([`rv`]) and the
//!   artifact format with its frame ABI ([`rv_compile`]) — the machine
//!   side of the Bedrock2-to-RISC-V leg, whose lowering lives in
//!   `rupicola-rv`;
//! - a Rust transpiler ([`rsprint`]) used by the benchmark harness to run
//!   generated programs at native speed (our stand-in for the paper's
//!   GCC/Clang route).
//!
//! # Example
//!
//! ```
//! use rupicola_bedrock::ast::*;
//! use rupicola_bedrock::interp::{Interpreter, ExecState, NoExternals};
//! use rupicola_bedrock::mem::Memory;
//!
//! // x = 3; x = x + 4;
//! let body = Cmd::seq([
//!     Cmd::set("x", BExpr::lit(3)),
//!     Cmd::set("x", BExpr::op(BinOp::Add, BExpr::var("x"), BExpr::lit(4))),
//! ]);
//! let f = BFunction::new("seven", Vec::<String>::new(), ["x"], body);
//! let mut program = Program::new();
//! program.insert(f);
//! let interp = Interpreter::new(&program);
//! let mut state = ExecState::new(Memory::new());
//! let rets = interp
//!     .call("seven", &[], &mut state, &mut NoExternals, 1_000)
//!     .unwrap();
//! assert_eq!(rets, vec![7]);
//! ```

pub mod ast;
pub mod cfg;
pub mod cprint;
pub mod interp;
pub mod mem;
pub mod rewrite;
pub mod rsprint;
pub mod rv;
pub mod rv_compile;
pub mod serial;

pub use ast::{AccessSize, BExpr, BFunction, BTable, BinOp, Cmd, Program};
pub use cfg::{Block, BlockId, Cfg, Stmt, Terminator};
pub use interp::{ExecError, ExecState, ExternalHandler, Interpreter, LoopHook, NoExternals, NoHook, TraceEvent};
pub use mem::Memory;
