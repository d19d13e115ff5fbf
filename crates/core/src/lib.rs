#![warn(missing_docs)]
//! # bmbe-core
//!
//! The paper's primary contribution: the **CH** control-specification
//! language ([`ast`], [`mod@expand`]), the CH-to-Burst-Mode compiler
//! ([`compile`]), models of the standard Balsa control handshake components
//! ([`components`]), the clustering optimizations — Activation Channel
//! Removal and Call Distribution with the `T1`/`T2` netlist algorithms
//! ([`opt`]) — and trace-structure generation for the §4.3 formal
//! verification ([`trace_gen`]).
//!
//! # Examples
//!
//! Model a sequencer in CH, compile it to Burst-Mode, and synthesize it:
//!
//! ```
//! use bmbe_core::components::sequencer;
//! use bmbe_core::compile::compile_to_bm;
//! use bmbe_bm::synth::{synthesize, MinimizeMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ch = sequencer("p", &["a1".into(), "a2".into()]);
//! let spec = compile_to_bm("sequencer", &ch)?;
//! assert_eq!(spec.num_states(), 6); // Fig. 3 of the paper
//! let ctrl = synthesize(&spec, MinimizeMode::Speed)?;
//! ctrl.verify_ternary().map_err(|e| format!("hazard: {e}"))?;
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod balsa_to_ch;
pub mod compile;
pub mod components;
pub mod expand;
pub mod opt;
pub mod parse;
pub mod trace_gen;

pub use ast::{check_bm_aware, legal, BmAwareError, ChActivity, ChExpr, InterleaveOp};
pub use balsa_to_ch::{balsa_to_ch, TranslateError};
pub use compile::{compile_to_bm, CompileError};
pub use expand::{expand, ExpandError, Expansion, Io, Item, Trans};
pub use opt::{activation_channel_removal, AcrFailure, ClusterOptions, CtrlNetlist, MergeMemo};
pub use parse::{parse_ch, print_ch, ChParseError};
pub use trace_gen::{trace_of, TraceGenError};
