//! The bit-parallel compiled simulation backend for complete designs.
//!
//! [`compile_sim`] takes the design's compiled circuit from the flow's
//! lowering memo: a [`bmbe_sim::CompiledCircuit`] over the same circuit
//! the event engine runs, compiled on the first call for its port set.
//! Controllers become instruction tapes over their technology-mapped
//! gates (one lane-parallel op per cell, in the mapper's gate order), and
//! every part evaluates all 64 scenario lanes of a batch at once. Every
//! later call and every batch share the tapes and their transition memos.
//!
//! The lane-packing layer is [`CompiledSim::run_batch`]: it takes up to
//! [`LANES`] scenarios, binds each to a lane (a partial batch simply
//! leaves the upper lanes dead — the engine's live mask pads them out),
//! runs the batch, and demuxes the per-lane results back into ordinary
//! [`SimOutcome`]s so downstream consumers are untouched.
//! [`simulate_scenarios`] is the batch entry point: it runs the backend
//! its caller names and fans compiled chunks out across worker threads;
//! because one wave's result cannot depend on evaluation order and each
//! port set's circuit is compiled once per flow (and a memo entry is
//! exact for every lane that reads it), compiled outcomes are
//! bit-identical at any thread count.
//!
//! The compiled backend is untimed. Differential tests assert
//! [`SimOutcome::same_behaviour`] against the event engine, which remains
//! the timing/hazard reference.

use crate::fault::{FaultPhase, FaultPlan};
use crate::lower::{bind, lowered_compiled};
use crate::pipeline::FlowResult;
use crate::simbuild::{simulate, Scenario, SimBuildError, SimOutcome, SimStats};
use bmbe_balsa::CompiledDesign;
use bmbe_sim::prims::Delays;
use bmbe_sim::{CompiledCircuit, ControllerTape, RunSpec, SimBackend, LANES};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Safety net against a non-quiescing (oscillating) circuit; real designs
/// either complete or quiesce in far fewer waves.
const MAX_WAVES: u64 = 1_000_000;

/// A design compiled for bit-parallel simulation; the circuit's handles
/// bind scenarios to lanes and demux the results. The compiled circuit is
/// the one the flow's lowering memo keeps for the port set.
pub struct CompiledSim {
    pub(crate) circuit: Arc<CompiledCircuit>,
}

/// Compiles a design (controllers, datapath, environment) into a
/// [`CompiledSim`]. `input_ports` names the ports the scenarios script as
/// inputs — the compiled circuit fixes port directions up front, so every
/// scenario of every batch run on this circuit must script every port the
/// circuit takes as an input and none it takes as an output (enforced by
/// [`CompiledSim::run_batch`]); a script for any other port, such as one
/// the design lacks, is ignored, as the event engine ignores it.
///
/// `flow` must be the flow built from `design`: the compiled circuit
/// comes from `flow`'s lowering memo, over the circuit [`simulate`] runs
/// for the same ports. The first call for a port set builds its tapes;
/// every later call returns the same circuit, and every batch run on it
/// shares each controller's transition memo.
///
/// `fault` injects a deterministic [`FaultPhase::SimCompile`] failure at
/// the targeted controller index (the flow's fan-out order), for the
/// recovery-path tests. It trips before the memo is consulted, so it
/// fails the call alike whether or not the tapes are built, and leaves
/// the memo as it was.
///
/// # Errors
///
/// [`SimBuildError::Compile`] when a controller netlist does not compile
/// into a tape (or a fault is injected there).
pub fn compile_sim(
    design: &CompiledDesign,
    flow: &FlowResult,
    input_ports: &BTreeSet<String>,
    fault: Option<&FaultPlan>,
) -> Result<CompiledSim, SimBuildError> {
    let _span = bmbe_obs::span!("sim.compile", "sim");
    if let Some(plan) = fault {
        let targeted = (flow.controllers.iter().enumerate()).find(|&(i, _)| plan.targets_job(i));
        if let Some((i, art)) = targeted {
            plan.trip(FaultPhase::SimCompile)
                .map_err(|_| SimBuildError::Compile {
                    controller: art.name.clone(),
                    detail: format!("injected fault at sim_compile of job {i}"),
                })?;
        }
    }
    let circuit = lowered_compiled(design, flow, |port| input_ports.contains(port))?;
    Ok(CompiledSim { circuit })
}

impl CompiledSim {
    /// The controller tapes, one per controller of the flow, in flow order.
    pub fn tapes(&self) -> &[ControllerTape] {
        self.circuit.tapes()
    }

    /// Runs up to [`LANES`] scenarios as one bit-parallel batch and demuxes
    /// one [`SimOutcome`] per scenario, in order.
    ///
    /// The compiled backend is untimed: each outcome reports `time_ns` 0,
    /// `events` = the lane's applied wire changes, and batch-wide stats
    /// (`lanes`, `waves`, `memo_hits`, `mixed_evals`, shared `wall_s`).
    ///
    /// # Errors
    ///
    /// [`SimBuildError::BatchShape`] if the batch is empty, exceeds
    /// [`LANES`], or a scenario leaves out a port the circuit was compiled
    /// to take as an input or scripts one it was compiled to take as an
    /// output (a script for any other port, such as one the design lacks,
    /// is ignored, as the event engine ignores it);
    /// [`SimBuildError::UnknownPort`] if a done condition names an unknown
    /// port.
    pub fn run_batch<S: Borrow<Scenario>>(
        &self,
        scenarios: &[S],
    ) -> Result<Vec<SimOutcome>, SimBuildError> {
        if scenarios.is_empty() || scenarios.len() > LANES {
            return Err(SimBuildError::BatchShape(format!(
                "batch of {} scenarios (need 1..={LANES})",
                scenarios.len()
            )));
        }
        let circuit = self.circuit.circuit();
        let mut lanes = Vec::with_capacity(scenarios.len());
        for s in scenarios {
            let s = s.borrow();
            if let Some(port) = s
                .input_values
                .keys()
                .find(|port| circuit.consumers.iter().any(|(name, _)| name == *port))
            {
                return Err(SimBuildError::BatchShape(format!(
                    "scenario scripts port {port}, but the circuit was compiled with it as an \
                     output"
                )));
            }
            if let Some((port, _)) = circuit
                .providers
                .iter()
                .find(|(name, _)| !s.input_values.contains_key(name))
            {
                return Err(SimBuildError::BatchShape(format!(
                    "scenario does not script port {port}, but the circuit was compiled with it \
                     as an input"
                )));
            }
            lanes.push(bind(circuit, s)?);
        }
        let n = lanes.len();
        let spec = RunSpec {
            lanes,
            max_waves: MAX_WAVES,
        };
        let start = Instant::now();
        let r = self.circuit.run(&spec);
        let wall_s = start.elapsed().as_secs_f64();
        // Live lanes only: in a partial batch the dead padding is masked
        // out of every write (and asserted event-free at harvest), so the
        // per-outcome stats report the work of the `n` scenarios actually
        // run, not of 64 lanes.
        let total_events = r.live_events();
        let events_per_s = if wall_s > 0.0 {
            total_events as f64 / wall_s
        } else {
            0.0
        };
        let outcomes = (0..n)
            .map(|lane| SimOutcome {
                completed: r.completed >> lane & 1 == 1,
                time_ns: 0.0,
                events: r.lane_events[lane],
                outputs: circuit
                    .consumers
                    .iter()
                    .map(|(name, p)| (name.clone(), r.consumer_received[p][lane].clone()))
                    .collect(),
                sync_counts: circuit
                    .syncs
                    .iter()
                    .map(|(name, p)| (name.clone(), r.sync_counts[p][lane] as usize))
                    .collect(),
                memories: circuit
                    .memories
                    .iter()
                    .map(|(name, p)| (name.clone(), r.memories[p][lane].clone()))
                    .collect(),
                stats: SimStats {
                    backend: SimBackend::Compiled,
                    lanes: n,
                    waves: r.waves,
                    memo_hits: r.memo_hits,
                    mixed_evals: r.mixed_evals,
                    peak_queue_depth: 0,
                    wall_s,
                    far_heap_hits: 0,
                    events_per_s,
                },
            })
            .collect();
        Ok(outcomes)
    }
}

/// The set of ports a scenario batch scripts as inputs — what
/// [`compile_sim`] needs to fix port directions.
pub fn batch_input_ports(scenarios: &[Scenario]) -> BTreeSet<String> {
    scenarios
        .iter()
        .flat_map(|s| s.input_values.keys().cloned())
        .collect()
}

/// Simulates a scenario set on the chosen backend, returning one outcome
/// per scenario, in order. `flow` must be the flow built from `design`:
/// both backends take their circuits from `flow`'s lowering memo, one per
/// scripted port set.
///
/// [`SimBackend::Event`] runs each scenario as an independent event
/// simulation ([`simulate`]) across `threads` workers.
/// [`SimBackend::Compiled`] groups the scenarios by the ports they script,
/// in first-appearance order, takes each group's compiled circuit from
/// `flow`'s memo, packs each group into [`LANES`]-wide batches, and fans a
/// group's batches out across `threads` workers, which share the
/// circuit's transition memos; results are bit-identical at any thread
/// count.
///
/// Worker panics (including injected `sim_compile` faults of
/// [`crate::FaultKind::Panic`]) are isolated per job and surface as
/// [`SimBuildError::Panic`].
pub fn simulate_scenarios(
    design: &CompiledDesign,
    flow: &FlowResult,
    scenarios: &[Scenario],
    delays: &Delays,
    backend: SimBackend,
    threads: usize,
    fault: Option<&FaultPlan>,
) -> Vec<Result<SimOutcome, SimBuildError>> {
    if scenarios.is_empty() {
        return Vec::new();
    }
    match backend {
        SimBackend::Event => bmbe_par::par_try_map(
            scenarios,
            threads,
            |i, _| format!("sim job {i} ({})", design.netlist.name()),
            |_, s| simulate(design, flow, s, delays),
        )
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|job| Err(SimBuildError::Panic(job.payload))))
        .collect(),
        SimBackend::Compiled => {
            let same_ports = |a: &Scenario, b: &Scenario| {
                a.input_values.len() == b.input_values.len()
                    && a.input_values
                        .keys()
                        .all(|k| b.input_values.contains_key(k))
            };
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for (i, s) in scenarios.iter().enumerate() {
                match groups.iter_mut().find(|g| same_ports(&scenarios[g[0]], s)) {
                    Some(g) => g.push(i),
                    None => groups.push(vec![i]),
                }
            }
            let mut out = Vec::with_capacity(scenarios.len());
            for g in &groups {
                let group: Vec<&Scenario> = g.iter().map(|&i| &scenarios[i]).collect();
                let results = simulate_compiled(design, flow, &group, threads, fault);
                out.extend(g.iter().copied().zip(results));
            }
            out.sort_unstable_by_key(|&(i, _)| i);
            out.into_iter().map(|(_, r)| r).collect()
        }
    }
}

/// Takes the compiled circuit for the ports `scenarios` script (one
/// non-empty group, all scripting the same ports) and runs them in
/// [`LANES`]-wide batches across `threads` workers.
fn simulate_compiled(
    design: &CompiledDesign,
    flow: &FlowResult,
    scenarios: &[&Scenario],
    threads: usize,
    fault: Option<&FaultPlan>,
) -> Vec<Result<SimOutcome, SimBuildError>> {
    let all = |e: SimBuildError| scenarios.iter().map(|_| Err(e.clone())).collect();
    let ports = scenarios[0].input_values.keys().cloned().collect();
    let cs = match bmbe_par::catch_job(|| compile_sim(design, flow, &ports, fault)) {
        Ok(Ok(cs)) => cs,
        Ok(Err(e)) => return all(e),
        Err(payload) => return all(SimBuildError::Panic(payload)),
    };
    let chunks: Vec<&[&Scenario]> = scenarios.chunks(LANES).collect();
    let results = bmbe_par::par_try_map(
        &chunks,
        threads,
        |i, chunk| format!("sim batch {i} ({} lanes)", chunk.len()),
        |_, chunk| cs.run_batch(chunk),
    );
    let mut out = Vec::with_capacity(scenarios.len());
    for (chunk, slot) in chunks.iter().zip(results) {
        match slot {
            Ok(Ok(outcomes)) => out.extend(outcomes.into_iter().map(Ok)),
            Ok(Err(e)) => out.extend(chunk.iter().map(|_| Err(e.clone()))),
            Err(job) => out.extend(
                chunk
                    .iter()
                    .map(|_| Err(SimBuildError::Panic(job.payload.clone()))),
            ),
        }
    }
    out
}
