#![warn(missing_docs)]
//! # bmbe-gates
//!
//! Gate-level substrate of the burst-mode back-end: a synthetic
//! standard-cell [`cell::Library`] (the AMS 0.35 µm stand-in), the generic
//! NAND-NAND two-level structure and its NAND2/INV [`subject::SubjectGraph`],
//! dynamic-programming tree-covering technology [`mod@map`]ping restricted to
//! hazard-non-increasing patterns, and the post-mapping [`hazard`] analysis
//! (functional equivalence + Eichelberger ternary simulation).
//!
//! # Examples
//!
//! ```
//! use bmbe_gates::{Library, MapObjective, MapStyle, SubjectGraph, map};
//! use bmbe_logic::{Cover, Cube};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f: Cover = [Cube::parse("11--").ok_or("cube")?,
//!                 Cube::parse("--11").ok_or("cube")?].into_iter().collect();
//! let subject = SubjectGraph::from_covers(4, &[("f".into(), &f)]);
//! let mapped = map(&subject, &Library::cmos035(), MapObjective::Area,
//!                  MapStyle::WholeController);
//! assert!(mapped.area > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod cell;
pub mod hazard;
pub mod map;
pub mod subject;

pub use cell::{CellKind, Library};
pub use hazard::{
    eval_ternary, verify_equivalence_algebraic, verify_equivalence_pointwise, verify_mapped,
    HazardViolation,
};
pub use map::{
    check_gate_order, map, GateOrderError, MapObjective, MapStyle, MappedGate, MappedNetlist,
};
pub use subject::{Module, SubjectGraph, SubjectNode};
