//! Side-by-side unoptimized/optimized runs (the Table 3 harness).

use crate::area::datapath_area;
use crate::cache::ControllerCache;
use crate::pipeline::{run_control_flow_with, FlowError, FlowOptions, FlowResult};
use crate::simbuild::{simulate, Scenario, SimBuildError, SimOutcome};
use bmbe_balsa::CompiledDesign;
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;
use std::fmt;

/// One design measured both ways.
pub struct Comparison {
    /// Design name.
    pub design: String,
    /// Unoptimized flow artifacts.
    pub unopt: FlowResult,
    /// Optimized flow artifacts.
    pub opt: FlowResult,
    /// Unoptimized benchmark run.
    pub unopt_run: SimOutcome,
    /// Optimized benchmark run.
    pub opt_run: SimOutcome,
    /// Shared datapath area (µm²).
    pub datapath_area: f64,
}

impl Comparison {
    /// Speed improvement (percent, positive = optimized faster).
    pub fn speed_improvement(&self) -> f64 {
        100.0 * (self.unopt_run.time_ns - self.opt_run.time_ns) / self.unopt_run.time_ns
    }

    /// Total area of the unoptimized circuit (µm²).
    pub fn unopt_area(&self) -> f64 {
        self.unopt.control_area + self.datapath_area
    }

    /// Total area of the optimized circuit (µm²).
    pub fn opt_area(&self) -> f64 {
        self.opt.control_area + self.datapath_area
    }

    /// Area overhead (percent, positive = optimized bigger).
    pub fn area_overhead(&self) -> f64 {
        100.0 * (self.opt_area() - self.unopt_area()) / self.unopt_area()
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: speed {:.2} ns -> {:.2} ns ({:+.2}%), area {:.0} -> {:.0} um^2 ({:+.2}%)",
            self.design,
            self.unopt_run.time_ns,
            self.opt_run.time_ns,
            self.speed_improvement(),
            self.unopt_area(),
            self.opt_area(),
            self.area_overhead()
        )
    }
}

/// Errors from a comparison run.
#[derive(Debug)]
pub enum ExperimentError {
    /// The control flow failed.
    Flow(FlowError),
    /// Simulation construction failed.
    Sim(SimBuildError),
    /// A benchmark run did not complete.
    Incomplete {
        /// Which side failed.
        side: &'static str,
        /// Time reached (ns).
        at_ns: f64,
    },
    /// A benchmark simulation job panicked; the panic was caught and the
    /// sibling run completed.
    Panic {
        /// Which side panicked.
        side: &'static str,
        /// The stringified panic payload.
        payload: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Flow(e) => write!(f, "flow: {e}"),
            ExperimentError::Sim(e) => write!(f, "sim: {e}"),
            ExperimentError::Incomplete { side, at_ns } => {
                write!(
                    f,
                    "{side} benchmark did not complete (cutoff at {at_ns} ns)"
                )
            }
            ExperimentError::Panic { side, payload } => {
                write!(f, "{side} benchmark simulation panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<FlowError> for ExperimentError {
    fn from(e: FlowError) -> Self {
        ExperimentError::Flow(e)
    }
}

impl From<SimBuildError> for ExperimentError {
    fn from(e: SimBuildError) -> Self {
        ExperimentError::Sim(e)
    }
}

/// Runs the unoptimized and optimized flows on a design and simulates the
/// benchmark scenario on both.
///
/// # Errors
///
/// See [`ExperimentError`].
pub fn compare(
    design: &CompiledDesign,
    scenario: &Scenario,
    library: &Library,
    delays: &Delays,
) -> Result<Comparison, ExperimentError> {
    compare_with(design, scenario, library, delays, &ControllerCache::new())
}

/// [`compare`] with a caller-supplied controller cache, so shapes shared
/// between the unoptimized and optimized flows — and, when the caller
/// reuses the cache, across designs — are synthesized once.
///
/// # Errors
///
/// See [`ExperimentError`].
pub fn compare_with(
    design: &CompiledDesign,
    scenario: &Scenario,
    library: &Library,
    delays: &Delays,
    cache: &ControllerCache,
) -> Result<Comparison, ExperimentError> {
    // `with_env_fault` makes both flows BMBE_FAULT-selectable, so the
    // bench binaries built on `compare_with` get fault injection for free.
    let unopt = run_control_flow_with(
        design,
        &FlowOptions::unoptimized().with_env_fault(),
        library,
        cache,
    )?;
    let opt = run_control_flow_with(
        design,
        &FlowOptions::optimized().with_env_fault(),
        library,
        cache,
    )?;
    // The two benchmark runs are independent; fan them across workers.
    // Outcomes are checked in unoptimized-then-optimized order, so the
    // reported error is the one the serial code would have raised. A
    // panicking simulation job is caught and reported as a typed error
    // without taking its sibling down.
    let flows = [("unoptimized", &unopt), ("optimized", &opt)];
    let mut runs = bmbe_par::par_try_map(
        &flows,
        flows.len(),
        |_, (side, _)| format!("{side} benchmark simulation"),
        |_, (_, flow)| simulate(design, flow, scenario, delays),
    )
    .into_iter()
    .zip(["unoptimized", "optimized"])
    .map(|(slot, side)| {
        slot.unwrap_or_else(|job| Err(SimBuildError::Panic(job.payload)))
            .map_err(|e| match e {
                SimBuildError::Panic(payload) => ExperimentError::Panic { side, payload },
                other => ExperimentError::Sim(other),
            })
    });
    let unopt_run = runs.next().expect("one result per job")?;
    let opt_run = runs.next().expect("one result per job")?;
    if !unopt_run.completed {
        return Err(ExperimentError::Incomplete {
            side: "unoptimized",
            at_ns: unopt_run.time_ns,
        });
    }
    if !opt_run.completed {
        return Err(ExperimentError::Incomplete {
            side: "optimized",
            at_ns: opt_run.time_ns,
        });
    }
    Ok(Comparison {
        design: design.netlist.name().to_string(),
        datapath_area: datapath_area(&design.netlist),
        unopt,
        opt,
        unopt_run,
        opt_run,
    })
}
