#![warn(missing_docs)]
//! # bmbe-bm
//!
//! Burst-Mode machine representation and Minimalist-equivalent synthesis:
//! specification data structures with full well-formedness validation
//! ([`spec`]), conservative state minimization ([`statemin`]),
//! critical-race-free state assignment by Tracey-dichotomy covering
//! ([`mod@assign`]), and hazard-free two-level synthesis ([`synth`]) built on
//! the Nowick–Dill minimizer in `bmbe-logic`.
//!
//! # Examples
//!
//! ```
//! use bmbe_bm::spec::{BmSpec, SignalDir};
//! use bmbe_bm::synth::{synthesize, MinimizeMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A call-element-free toggle: in+, out+; in-, out-.
//! let mut spec = BmSpec::new("echo");
//! let i = spec.add_signal("in", SignalDir::Input);
//! let o = spec.add_signal("out", SignalDir::Output);
//! let s0 = spec.add_state();
//! let s1 = spec.add_state();
//! spec.add_arc(s0, s1, &[(i, true)], &[(o, true)]);
//! spec.add_arc(s1, s0, &[(i, false)], &[(o, false)]);
//! let ctrl = synthesize(&spec, MinimizeMode::Speed)?;
//! ctrl.verify_ternary().map_err(|e| format!("hazard: {e}"))?;
//! # Ok(())
//! # }
//! ```

pub mod assign;
pub mod spec;
pub mod statemin;
pub mod synth;
pub mod text;

pub use assign::{assign, AssignError, Dichotomy, StateAssignment};
pub use spec::{Arc, BmError, BmSpec, Edge, EntryVectors, Signal, SignalDir};
pub use statemin::{minimize_states, StateMinResult};
pub use synth::{synthesize, synthesize_full, Controller, MinimizeMode, SynthError};
pub use text::{from_bms, to_bms, to_dot, BmsParseError};
