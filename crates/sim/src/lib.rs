#![warn(missing_docs)]
//! # bmbe-sim
//!
//! The discrete-event simulator used to reproduce the paper's benchmark
//! measurements: synthesized burst-mode controllers evaluated functionally
//! with delays back-annotated from technology mapping, behavioural
//! bundled-data datapath components, and scripted environment processes —
//! the role the paper's `pearl` + Verilog-XL combination plays.
//!
//! A design is lowered once into a [`circuit::Circuit`], which both
//! engines consume with one shape: the shared circuit, per-run state, and
//! one `match` over [`circuit::Part`] each. [`engine::Sim`] is timed and
//! event-driven: each run steps one [`prims::PartRun`] per part over the
//! circuit's [`circuit::EventProgram`]. [`compile::CompiledCircuit`] is
//! untimed and runs 64 scenario lanes at once.

pub mod circuit;
pub mod compile;
pub mod engine;
pub mod prims;

pub use circuit::{Circuit, DoneSpec, EventProgram, LaneSpec, Part};
pub use compile::{
    CompileError, CompiledCircuit, ControllerTape, RunResult, RunSpec, SimBackend, TapeOp, LANES,
};
pub use engine::{Ctx, NodeId, PrimId, Primitive, SchedulerKind, Sim, SlotId, Time};
pub use prims::{ControllerLogic, DataCh, Delays, MemSite, PartRun};
