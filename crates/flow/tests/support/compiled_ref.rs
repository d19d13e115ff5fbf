//! The compiled engine's per-batch construction, kept as the reference the
//! shared compiled circuit is checked against: every batch lowers the
//! design afresh, builds every controller tape from the mapped gates, and
//! runs on a compiled circuit of its own, whose transition memos start
//! empty and die with the batch.

use bmbe_balsa::CompiledDesign;
use bmbe_flow::{lower, ControllerArtifact, Done, FlowResult, Scenario, SimOutcome, SimStats};
use bmbe_sim::{
    Circuit, CompiledCircuit, ControllerTape, DoneSpec, LaneSpec, PrimId, RunSpec, SimBackend,
};
use std::sync::Arc;

/// The tape of a controller: one op per mapped gate, over the subject
/// nodes of its output and next-state function roots.
fn tape(art: &ControllerArtifact, inputs: usize, outputs: usize) -> Result<ControllerTape, String> {
    let roots = &art.mapped.subject.roots;
    let root = |name: &str| {
        roots
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, r)| r)
            .ok_or_else(|| format!("{}: no function root for {name}", art.name))
    };
    let ctrl = &art.controller;
    let out_roots = (ctrl.outputs.iter())
        .map(|n| root(n))
        .collect::<Result<Vec<_>, _>>()?;
    let state_roots = (0..ctrl.num_state_bits)
        .map(|j| root(&format!("y{j}")))
        .collect::<Result<Vec<_>, _>>()?;
    ControllerTape::compile(
        &art.name,
        inputs,
        outputs,
        ctrl.initial_code,
        &art.mapped,
        &out_roots,
        &state_roots,
    )
    .map_err(|e| e.to_string())
}

/// The scenario bound to the circuit's handles, as the flow binds it.
fn bind<'a>(circuit: &Circuit, s: &'a Scenario) -> Result<LaneSpec<'a>, String> {
    let find = |handles: &[(String, PrimId)], port: &str| {
        handles
            .iter()
            .find(|(name, _)| name == port)
            .map(|&(_, p)| p)
            .ok_or_else(|| format!("unknown port {port}"))
    };
    let done = match &s.done {
        Done::Activations(n) => DoneSpec::Activations(circuit.driver, *n as u64),
        Done::Outputs { port, count } => DoneSpec::Outputs(find(&circuit.consumers, port)?, *count),
        Done::Syncs { port, count } => DoneSpec::Syncs(find(&circuit.syncs, port)?, *count as u64),
    };
    Ok(LaneSpec {
        activation_cycles: s.activation_cycles as u64,
        provider_values: circuit
            .providers
            .iter()
            .map(|(name, p)| (*p, s.input_values.get(name).map_or(&[][..], Vec::as_slice)))
            .collect(),
        memory_init: circuit
            .memories
            .iter()
            .filter_map(|(name, p)| s.memory_init.get(name).map(|v| (*p, v.as_slice())))
            .collect(),
        done,
    })
}

/// Runs `scenarios` (one batch of at most 64, all scripting the same
/// ports) on `design` the per-batch way, one outcome per scenario. Every
/// outcome carries the batch's `waves`, `memo_hits` and `mixed_evals`;
/// the wall-clock stats are zero.
pub fn reference_batch(
    design: &CompiledDesign,
    flow: &FlowResult,
    scenarios: &[Scenario],
) -> Result<Vec<SimOutcome>, String> {
    let first = scenarios.first().ok_or("an empty batch")?;
    let circuit = lower(design, flow, |port| first.input_values.contains_key(port));
    let compiled = CompiledCircuit::new(Arc::new(circuit), |k, inputs, outputs| {
        tape(&flow.controllers[k], inputs, outputs)
    })?;
    let circuit = compiled.circuit();
    let lanes = (scenarios.iter())
        .map(|s| bind(circuit, s))
        .collect::<Result<Vec<_>, _>>()?;
    let r = compiled.run(&RunSpec {
        lanes,
        max_waves: 1_000_000,
    });
    Ok((0..scenarios.len())
        .map(|lane| SimOutcome {
            completed: r.completed >> lane & 1 == 1,
            time_ns: 0.0,
            events: r.lane_events[lane],
            outputs: (circuit.consumers.iter())
                .map(|(name, p)| (name.clone(), r.consumer_received[p][lane].clone()))
                .collect(),
            sync_counts: (circuit.syncs.iter())
                .map(|(name, p)| (name.clone(), r.sync_counts[p][lane] as usize))
                .collect(),
            memories: (circuit.memories.iter())
                .map(|(name, p)| (name.clone(), r.memories[p][lane].clone()))
                .collect(),
            stats: SimStats {
                backend: SimBackend::Compiled,
                lanes: scenarios.len(),
                waves: r.waves,
                memo_hits: r.memo_hits,
                mixed_evals: r.mixed_evals,
                peak_queue_depth: 0,
                wall_s: 0.0,
                far_heap_hits: 0,
                events_per_s: 0.0,
            },
        })
        .collect())
}
