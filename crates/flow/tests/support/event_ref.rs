//! The event engine's per-run construction, kept as the reference the
//! event-program path is checked against: every run lowers the design
//! afresh, builds every primitive from the circuit, registers each
//! primitive's watchers one at a time through `Sim::add_prim`, and gives
//! each controller fresh copies of its covers and a transition memo of its
//! own that dies with the run.

use bmbe_balsa::CompiledDesign;
use bmbe_flow::{lower, ControllerArtifact, Done, FlowResult, Scenario, SimOutcome, SimStats};
use bmbe_hsnet::UnOp;
use bmbe_logic::Cover;
use bmbe_sim::prims::{
    ActivationDriverEnv, BinFuncPrim, CallMuxPrim, ConstantPrim, Delays, FetchDataPrim, MemoryPrim,
    PullMuxPrim, PullProviderEnv, PushConsumerEnv, SelectAdapterPrim, SyncResponderEnv, UnFuncPrim,
    VariablePrim,
};
use bmbe_sim::{
    Circuit, Ctx, DoneSpec, LaneSpec, NodeId, Part, PrimId, Primitive, Sim, SimBackend, Time,
};
use std::any::Any;
use std::collections::HashMap;

/// A controller as each run used to build it: cloned covers, per-output
/// delays with the wire delay folded in, and a memo private to the run.
struct RefController {
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    output_covers: Vec<Cover>,
    next_state_covers: Vec<Cover>,
    state: u64,
    output_delays: Vec<Time>,
    memo: HashMap<(u64, u64), (u64, u64)>,
}

impl RefController {
    fn new(
        art: &ControllerArtifact,
        inputs: &[NodeId],
        outputs: &[NodeId],
        delays: &Delays,
    ) -> Self {
        let output_delays = art
            .controller
            .outputs
            .iter()
            .map(|n| {
                let ns = match art.template {
                    Some(t) => t.delay_ns,
                    None => art.mapped.output_delays.get(n).copied().unwrap_or(0.1),
                };
                (ns * 1000.0) as Time + delays.wire
            })
            .collect();
        RefController {
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            output_covers: art.controller.output_covers.clone(),
            next_state_covers: art.controller.next_state_covers.clone(),
            state: art.controller.initial_code,
            output_delays,
            memo: HashMap::new(),
        }
    }

    fn settle(&self, x: u64) -> (u64, u64) {
        let eval = |covers: &[Cover], p: u64| {
            covers
                .iter()
                .enumerate()
                .fold(0u64, |acc, (j, c)| acc | (c.eval(p) as u64) << j)
        };
        let mut state = self.state;
        for _ in 0..4 {
            let y = eval(&self.next_state_covers, x | state << self.inputs.len());
            if y == state {
                break;
            }
            state = y;
        }
        (
            state,
            eval(&self.output_covers, x | state << self.inputs.len()),
        )
    }
}

impl Primitive for RefController {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
        let x = self
            .inputs
            .iter()
            .enumerate()
            .fold(0u64, |p, (i, &n)| p | (ctx.get(n) as u64) << i);
        let (state, bits) = match self.memo.get(&(x, self.state)) {
            Some(&hit) => hit,
            None => {
                let settled = self.settle(x);
                self.memo.insert((x, self.state), settled);
                settled
            }
        };
        self.state = state;
        for (i, &out) in self.outputs.iter().enumerate() {
            let v = (bits >> i) & 1 != 0;
            if v != ctx.get(out) {
                ctx.set_after(out, v, self.output_delays[i]);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
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

/// The primitive of part `i`, built for one run.
fn primitive(
    flow: &FlowResult,
    lane: &LaneSpec<'_>,
    delays: &Delays,
    i: usize,
    part: &Part,
) -> Box<dyn Primitive> {
    match part {
        Part::Controller {
            artifact,
            inputs,
            outputs,
        } => Box::new(RefController::new(
            &flow.controllers[*artifact],
            inputs,
            outputs,
            delays,
        )),
        &Part::Constant { ch, value } => Box::new(ConstantPrim {
            ch,
            value,
            delay: delays.constant,
        }),
        Part::Variable { write, reads } => Box::new(VariablePrim {
            value: 0,
            write: *write,
            reads: reads.clone(),
            wdelay: delays.var_write,
            rdelay: delays.var_read,
        }),
        &Part::BinFunc { op, out, lhs, rhs } => Box::new(BinFuncPrim {
            op,
            out,
            lhs,
            rhs,
            delay: delays.binop(op),
        }),
        &Part::UnFunc { op, out, operand } => Box::new(UnFuncPrim {
            op,
            out,
            operand,
            delay: if op == UnOp::Id { 1 } else { delays.unary },
        }),
        Part::CallMux { ins, out } => Box::new(CallMuxPrim::new(ins.clone(), *out, delays.mux)),
        Part::PullMux { clients, source } => {
            Box::new(PullMuxPrim::new(clients.clone(), *source, delays.mux))
        }
        Part::Memory {
            words,
            reads,
            writes,
        } => {
            let mut m = MemoryPrim::new(*words, reads.clone(), writes.clone(), delays.memory);
            for (w, v) in m.words.iter_mut().zip(lane.preload(PrimId(i))) {
                *w = *v;
            }
            Box::new(m)
        }
        Part::SelectAdapter {
            sel_req,
            sel_acks,
            provider,
        } => Box::new(SelectAdapterPrim::new(
            *sel_req,
            sel_acks.clone(),
            *provider,
            delays.select,
        )),
        &Part::FetchData { pull, push } => Box::new(FetchDataPrim { pull, push }),
        &Part::ActivationDriver { req, ack } => Box::new(ActivationDriverEnv {
            req,
            ack,
            cycles: lane.activation_cycles as usize,
            completions: 0,
            done_time: None,
            delay: delays.env,
        }),
        &Part::SyncResponder { req, ack } => Box::new(SyncResponderEnv {
            req,
            ack,
            delay: delays.env,
            count: 0,
        }),
        &Part::PullProvider { ch } => Box::new(PullProviderEnv {
            ch,
            values: lane.script(PrimId(i)).to_vec(),
            ix: 0,
            delay: delays.env,
        }),
        &Part::PushConsumer { ch } => Box::new(PushConsumerEnv {
            ch,
            received: Vec::new(),
            delay: delays.env,
        }),
    }
}

/// Runs `scenario` on `design` the per-run way. The stats are zero: only
/// the fields [`SimOutcome::same_result`] compares are simulated.
pub fn reference_run(
    design: &CompiledDesign,
    flow: &FlowResult,
    scenario: &Scenario,
    delays: &Delays,
) -> Result<SimOutcome, String> {
    let circuit = lower(design, flow, |port| {
        scenario.input_values.contains_key(port)
    });
    let lane = bind(&circuit, scenario)?;
    let mut sim = Sim::with_size(circuit.num_wires(), circuit.num_slots);
    let mut watch = Vec::new();
    for (i, part) in circuit.parts.iter().enumerate() {
        watch.clear();
        part.watch(&mut watch);
        sim.add_prim(primitive(flow, &lane, delays, i, part), &watch);
    }
    sim.init();
    let completed = sim.run_until(|s| lane.done.met(s), scenario.max_time);
    Ok(SimOutcome {
        completed,
        time_ns: sim.now() as f64 / 1000.0,
        events: sim.events_processed,
        outputs: circuit
            .consumers
            .iter()
            .map(|(name, p)| {
                let received = sim.prim::<PushConsumerEnv>(*p).map(|c| c.received.clone());
                (name.clone(), received.unwrap_or_default())
            })
            .collect(),
        sync_counts: circuit
            .syncs
            .iter()
            .map(|(name, p)| {
                (
                    name.clone(),
                    sim.prim::<SyncResponderEnv>(*p).map_or(0, |c| c.count),
                )
            })
            .collect(),
        memories: circuit
            .memories
            .iter()
            .map(|(name, p)| {
                let words = sim.prim::<MemoryPrim>(*p).map(|m| m.words.clone());
                (name.clone(), words.unwrap_or_default())
            })
            .collect(),
        stats: SimStats {
            backend: SimBackend::Event,
            lanes: 1,
            waves: 0,
            memo_hits: 0,
            mixed_evals: 0,
            peak_queue_depth: sim.peak_queue_depth(),
            wall_s: 0.0,
            far_heap_hits: 0,
            events_per_s: 0.0,
        },
    })
}
