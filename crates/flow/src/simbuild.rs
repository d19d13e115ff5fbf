//! Simulates a complete design on the event engine: the synthesized
//! controllers plus behavioural datapath and a scripted environment,
//! lowered by [`crate::lower`] into the circuit the compiled engine runs
//! too, once per flow and input-port set, with the circuit's event
//! program built once beside it.

use crate::lower::{bind, lowered_program};
use crate::pipeline::FlowResult;
use bmbe_balsa::CompiledDesign;
use bmbe_sim::prims::Delays;
use bmbe_sim::{PrimId, SchedulerKind, SimBackend, Time};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// When a benchmark run is considered complete.
#[derive(Debug, Clone)]
pub enum Done {
    /// The top activation completed this many handshakes.
    Activations(usize),
    /// An output port delivered this many values.
    Outputs {
        /// The port.
        port: String,
        /// Number of values.
        count: usize,
    },
    /// A sync port completed this many handshakes.
    Syncs {
        /// The port.
        port: String,
        /// Number of handshakes.
        count: usize,
    },
}

/// A benchmark scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Handshakes the environment performs on the activation channel.
    pub activation_cycles: usize,
    /// Scripted values per input port (cycled when exhausted).
    pub input_values: HashMap<String, Vec<u64>>,
    /// Initial memory contents by memory name (zero-filled to size).
    pub memory_init: HashMap<String, Vec<u64>>,
    /// Completion condition.
    pub done: Done,
    /// Simulation time limit (ps).
    pub max_time: Time,
}

impl Scenario {
    /// A scenario that just runs the activation `n` times.
    pub fn activations(n: usize) -> Self {
        Scenario {
            activation_cycles: n,
            input_values: HashMap::new(),
            memory_init: HashMap::new(),
            done: Done::Activations(n),
            max_time: 50_000_000,
        }
    }
}

/// Scheduler-side statistics of one simulation run — diagnostics, excluded
/// from [`SimOutcome::same_result`] (wall time varies run to run; the
/// simulated behaviour must not).
#[derive(Debug, Clone)]
pub struct SimStats {
    /// The backend the run used.
    pub backend: SimBackend,
    /// Scenario lanes sharing the run (1 on the event backend, up to 64 on
    /// the compiled backend — every outcome of a batch reports the batch's
    /// lane count and wall time).
    pub lanes: usize,
    /// Settle waves the compiled backend executed (0 on the event
    /// backend).
    pub waves: u64,
    /// Controller evaluations served from a transition memo shared across
    /// runs: on the compiled backend every live lane was at one (input
    /// point, state) pair that this batch or an earlier batch of the
    /// flow's compiled circuit stored; on the event backend the run's
    /// controllers found the pair in the memo their event program shares
    /// across runs.
    pub memo_hits: u64,
    /// Controller evaluations whose live lanes were at different (input
    /// point, state) pairs, so the compiled backend ran the tape (0 on the
    /// event backend).
    pub mixed_evals: u64,
    /// Largest number of simultaneously pending events.
    pub peak_queue_depth: usize,
    /// Host wall-clock seconds spent inside the event loop.
    pub wall_s: f64,
    /// Always 0: the event engine's one scheduler has no overflow heap.
    /// Kept because the benchmark harness (`perfbench/src/simstep.rs`),
    /// which builds against this API as it is, reads it.
    pub far_heap_hits: u64,
    /// Processed events per host wall-clock second.
    pub events_per_s: f64,
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Whether the completion condition was met in time.
    pub completed: bool,
    /// Completion (or cutoff) time in nanoseconds.
    pub time_ns: f64,
    /// Processed simulation events.
    pub events: u64,
    /// Values delivered on each output port.
    pub outputs: HashMap<String, Vec<u64>>,
    /// Handshakes completed per sync port.
    pub sync_counts: HashMap<String, usize>,
    /// Final memory contents by memory name.
    pub memories: HashMap<String, Vec<u64>>,
    /// Scheduler statistics (not part of the simulated behaviour).
    pub stats: SimStats,
}

impl SimOutcome {
    /// Whether two runs simulated identical behaviour: same completion,
    /// simulated time, event count, port data, and memory contents. Stats
    /// (wall time, queue depth) are ignored — this is the equality the
    /// serial-vs-parallel and determinism checks assert.
    pub fn same_result(&self, other: &SimOutcome) -> bool {
        self.completed == other.completed
            && self.time_ns == other.time_ns
            && self.events == other.events
            && self.outputs == other.outputs
            && self.sync_counts == other.sync_counts
            && self.memories == other.memories
    }

    /// Whether two runs simulated identical *behaviour*: same completion,
    /// port data, sync counts, and memory contents — ignoring simulated
    /// time and event counts on top of what [`SimOutcome::same_result`]
    /// already ignores. This is the equality the compiled-vs-event
    /// differential checks assert: the compiled backend is untimed, so
    /// `time_ns` cannot match, and its "events" are applied wire changes
    /// rather than scheduled events.
    pub fn same_behaviour(&self, other: &SimOutcome) -> bool {
        self.completed == other.completed
            && self.outputs == other.outputs
            && self.sync_counts == other.sync_counts
            && self.memories == other.memories
    }
}

/// Errors raised while building the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimBuildError {
    /// The scenario's done condition references an unknown port.
    UnknownPort(String),
    /// A simulation job panicked; the panic was caught and its sibling
    /// jobs completed.
    Panic(String),
    /// A controller could not be compiled into a bit-parallel tape (see
    /// `crate::csim`).
    Compile {
        /// The controller.
        controller: String,
        /// What went wrong.
        detail: String,
    },
    /// A scenario batch is malformed for the compiled backend: empty, wider
    /// than a lane word, or a scenario leaving out a port the circuit was
    /// compiled to take as an input or scripting one it was compiled to
    /// take as an output.
    BatchShape(String),
}

impl fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimBuildError::UnknownPort(p) => {
                write!(f, "done condition references unknown port {p}")
            }
            SimBuildError::Panic(payload) => {
                write!(f, "simulation job panicked: {payload}")
            }
            SimBuildError::Compile { controller, detail } => {
                write!(
                    f,
                    "compiling controller {controller} for simulation: {detail}"
                )
            }
            SimBuildError::BatchShape(detail) => {
                write!(f, "malformed scenario batch: {detail}")
            }
        }
    }
}

impl std::error::Error for SimBuildError {}

/// Simulates a design with its synthesized controllers on the event
/// engine.
///
/// `flow` must be the flow built from `design`: the circuit and its event
/// program are built once per set of scripted input ports and kept in
/// `flow`, so later runs over the same ports bind to them without
/// building again, and their controllers share each transition one run
/// settled.
///
/// # Errors
///
/// See [`SimBuildError`].
pub fn simulate(
    design: &CompiledDesign,
    flow: &FlowResult,
    scenario: &Scenario,
    delays: &Delays,
) -> Result<SimOutcome, SimBuildError> {
    let build = bmbe_obs::span!("sim.build", "sim");
    let (circuit, program) = lowered_program(design, flow, |port| {
        scenario.input_values.contains_key(port)
    });
    let lane = bind(&circuit, scenario)?;
    let mut sim = circuit.event_sim(&program, &lane, delays);
    sim.init();
    drop(build);
    let run_span = bmbe_obs::span!("sim.run", "sim");
    let loop_start = Instant::now();
    let completed = sim.run_until(|s| lane.done.met(s), scenario.max_time);
    let wall_s = loop_start.elapsed().as_secs_f64();
    drop(run_span);
    let events_per_s = if wall_s > 0.0 {
        sim.events_processed as f64 / wall_s
    } else {
        0.0
    };
    let (mut memo_hits, mut settles) = (0, 0);
    for (hits, settled) in
        (0..circuit.parts.len()).filter_map(|i| sim.prim(PrimId(i)).memo_counts())
    {
        memo_hits += hits;
        settles += settled;
    }
    bmbe_obs::trace_counter!("sim.events", sim.events_processed);
    bmbe_obs::trace_counter!("sim.event.memo_hits", memo_hits);
    bmbe_obs::trace_counter!("sim.event.settles", settles);
    let values = |words: Option<&[u64]>| words.map(<[u64]>::to_vec).unwrap_or_default();
    Ok(SimOutcome {
        completed,
        time_ns: sim.now() as f64 / 1000.0,
        events: sim.events_processed,
        outputs: circuit
            .consumers
            .iter()
            .map(|(name, p)| (name.clone(), values(sim.prim(*p).received())))
            .collect(),
        sync_counts: circuit
            .syncs
            .iter()
            .map(|(name, p)| (name.clone(), sim.prim(*p).syncs().unwrap_or(0) as usize))
            .collect(),
        memories: circuit
            .memories
            .iter()
            .map(|(name, p)| (name.clone(), values(sim.prim(*p).words())))
            .collect(),
        stats: SimStats {
            backend: SimBackend::Event,
            lanes: 1,
            waves: 0,
            memo_hits,
            mixed_evals: 0,
            peak_queue_depth: sim.peak_queue_depth(),
            wall_s,
            far_heap_hits: 0,
            events_per_s,
        },
    })
}

/// [`simulate`] for callers that name a scheduler. The event engine has
/// one scheduler, so `_scheduler` is ignored; the function stays because
/// the benchmark harness (`perfbench/src/simstep.rs`), which builds
/// against this API as it is, calls it. As for [`simulate`], `flow` must
/// be the flow built from `design`.
///
/// # Errors
///
/// See [`SimBuildError`].
pub fn simulate_with(
    design: &CompiledDesign,
    flow: &FlowResult,
    scenario: &Scenario,
    delays: &Delays,
    _scheduler: SchedulerKind,
) -> Result<SimOutcome, SimBuildError> {
    simulate(design, flow, scenario, delays)
}
