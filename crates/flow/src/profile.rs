//! [`PhaseProfile`], a field-less type kept for the benchmark harness.
//!
//! Per-phase synthesis times come from the obs spans alone: every shape
//! synthesis opens `shape.compile`, `shape.statemin`, `shape.synth`,
//! `shape.verify`, `shape.map` and `shape.verify_mapped`, and the minimizer
//! opens `hfmin.*` spans inside `shape.synth`. A report that needs the
//! times traces the run and reads them back through `bmbe_obs::analyze`
//! (`perf_report` does, for the `phases` block of `BENCH_flow.json`).

/// Measures nothing. The type stays only because the benchmark harness
/// (`perfbench/src/replay.rs`), which builds against this API as it is,
/// builds [`crate::SynthArtifact`] with `profile: PhaseProfile::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile;
