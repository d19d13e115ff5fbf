#![warn(missing_docs)]
//! # bmbe-flow
//!
//! The complete Balsa back-end of Fig. 1: starting from mini-Balsa source,
//! compile to handshake components ([`bmbe_balsa`]), split control from
//! datapath, translate control to CH, cluster (`T1`/`T2`), compile to
//! Burst-Mode, synthesize hazard-free two-level logic, technology map,
//! verify hazard freedom, and simulate the resulting circuit against a
//! benchmark [`simbuild::Scenario`].
//!
//! [`experiment::compare`] runs the unoptimized and optimized flows on a
//! design and reports the paper's Table 3 quantities (speed, area,
//! improvement, overhead).

pub mod area;
pub mod batch;
pub mod cache;
pub mod csim;
pub mod experiment;
pub mod fault;
pub mod gauntlet;
pub mod lower;
pub mod pipeline;
pub mod profile;
pub mod simbuild;
pub mod table3;
pub mod templates;

pub use area::{component_area, datapath_area};
pub use batch::{
    flow_through_registry, run_batch, BatchJob, BatchSummary, JobFailure, JobReport, Resolution,
    ShapeRegistry, ShapeStats,
};
pub use bmbe_logic::MinimizeBackend;
pub use bmbe_sim::SimBackend;
pub use cache::{
    CacheKey, CacheStats, ControllerCache, DiskCache, DiskMiss, KeyedProgram, Provenance,
    ShapeError, SynthArtifact, CACHE_DIR_ENV,
};
pub use csim::{batch_input_ports, compile_sim, simulate_scenarios, CompiledSim};
pub use experiment::{compare, compare_with, Comparison};
pub use fault::{FaultKind, FaultParseError, FaultPhase, FaultPlan};
pub use gauntlet::{run_gauntlet, Finding, GauntletConfig, GauntletReport, OracleCounts};
pub use lower::lower;
pub use pipeline::{
    reference_flow, run_control_flow, run_control_flow_with, ControllerArtifact, FlowError,
    FlowOptions, FlowResult,
};
pub use profile::PhaseProfile;
pub use simbuild::{simulate, simulate_with, Done, Scenario, SimBuildError, SimOutcome, SimStats};
pub use table3::{
    check_outcome, run_design, run_design_with, run_designs_with, to_flow_scenario, BenchError,
};
pub use templates::{template_of, template_table, Template};

#[cfg(test)]
mod tests;
