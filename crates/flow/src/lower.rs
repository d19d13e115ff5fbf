//! The one simulation lowering: a design and its synthesized controllers
//! become a [`Circuit`] that both simulation engines consume, and a
//! scenario binds to the circuit's handles as a [`LaneSpec`].
//!
//! Parts come in one fixed order: controllers in flow order, then select
//! adapters sorted by channel, then datapath components in netlist order,
//! then the activation driver, then the ports sorted by name. The walk
//! never iterates a hash map, so a design lowers to the same circuit in
//! every process.
//!
//! Each [`FlowResult`] keeps the circuits it was lowered to in a
//! [`LowerMemo`], one per input-port set, so the simulation entry points
//! lower a design once however many scenarios they run over one port set.
//! Next to each circuit the memo keeps one program per engine, each built
//! on the first request for that port set: the [`EventProgram`] of the
//! first event run, so every later event run shares its watcher index,
//! its controller logic and the logic's transition memos, and the
//! [`CompiledCircuit`] of the first `compile_sim`, so every later compiled
//! batch shares its controller tapes and their transition memos.

use crate::pipeline::{ControllerArtifact, FlowResult};
use crate::simbuild::{Done, Scenario, SimBuildError};
use bmbe_balsa::CompiledDesign;
use bmbe_hsnet::{Component, ComponentKind};
use bmbe_sim::{
    Circuit, CompiledCircuit, ControllerLogic, ControllerTape, DataCh, DoneSpec, EventProgram,
    LaneSpec, MemSite, NodeId, Part, PrimId, SlotId, Time,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt::{Display, Write as _};
use std::sync::{Arc, Mutex, MutexGuard};

/// Wires and channels interned by name. Controllers name their wires
/// `{channel}_r`, `{channel}_a` and `{channel}_a{i}`, so a channel's wires
/// get the same ids whichever part names them first.
#[derive(Default)]
struct Wiring {
    wires: HashMap<String, NodeId>,
    chans: HashMap<String, DataCh>,
    num_slots: usize,
    key: String,
}

impl Wiring {
    fn wire(&mut self, name: &str) -> NodeId {
        if let Some(&w) = self.wires.get(name) {
            return w;
        }
        let w = NodeId(self.wires.len());
        self.wires.insert(name.to_string(), w);
        w
    }

    /// The wire `{chan}{suffix}`, its name formatted into a reused buffer.
    fn suffixed(&mut self, chan: &str, suffix: impl Display) -> NodeId {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        let _ = write!(key, "{chan}{suffix}");
        let w = self.wire(&key);
        self.key = key;
        w
    }

    /// The channel `name`: wires `{name}_r`/`{name}_a` and a data slot.
    fn ch(&mut self, name: &str) -> DataCh {
        if let Some(&c) = self.chans.get(name) {
            return c;
        }
        let c = DataCh {
            req: self.suffixed(name, "_r"),
            ack: self.suffixed(name, "_a"),
            slot: SlotId(self.num_slots),
        };
        self.num_slots += 1;
        self.chans.insert(name.to_string(), c);
        c
    }
}

/// Lowers a design with its synthesized controllers into the circuit both
/// simulation engines run. `is_input` says which data ports the scenarios
/// script (an environment provider drives them); every other data port
/// gets a consumer.
pub fn lower(
    design: &CompiledDesign,
    flow: &FlowResult,
    is_input: impl Fn(&str) -> bool,
) -> Circuit {
    let netlist = &design.netlist;
    let mut w = Wiring::default();
    let mut parts = Vec::new();

    // Select channels needing an adapter (case/while selectors), with
    // their branch counts.
    let mut adapted: BTreeMap<&str, usize> = BTreeMap::new();
    for comp in netlist.components() {
        let branches = match comp.kind {
            ComponentKind::Case { branches } => branches,
            ComponentKind::While => 2,
            _ => continue,
        };
        adapted.insert(&netlist.channel(comp.channels[1]).name, branches);
    }

    for (artifact, art) in flow.controllers.iter().enumerate() {
        parts.push(Part::Controller {
            artifact,
            inputs: art.controller.inputs.iter().map(|n| w.wire(n)).collect(),
            outputs: art.controller.outputs.iter().map(|n| w.wire(n)).collect(),
        });
    }

    // An adapter pulls the selector value from a renamed provider side of
    // the select channel; the datapath serves that side.
    let provider_name = |chan: &str| format!("{chan}$p");
    for (&chan, &branches) in &adapted {
        parts.push(Part::SelectAdapter {
            sel_req: w.suffixed(chan, "_r"),
            sel_acks: (0..branches)
                .map(|i| w.suffixed(chan, format_args!("_a{i}")))
                .collect(),
            provider: w.ch(&provider_name(chan)),
        });
    }

    let mut memories = Vec::new();
    let mut ch = |comp: &Component, port: usize| {
        let name = &netlist.channel(comp.channels[port]).name;
        if adapted.contains_key(name.as_str()) {
            w.ch(&provider_name(name))
        } else {
            w.ch(name)
        }
    };
    for comp in netlist.components() {
        let part = match &comp.kind {
            ComponentKind::Variable { reads, .. } => Part::Variable {
                write: ch(comp, 0),
                reads: (1..=*reads).map(|i| ch(comp, i)).collect(),
            },
            ComponentKind::Constant { value, .. } => Part::Constant {
                ch: ch(comp, 0),
                value: *value,
            },
            ComponentKind::BinaryFunc { op, .. } => Part::BinFunc {
                op: *op,
                out: ch(comp, 0),
                lhs: ch(comp, 1),
                rhs: ch(comp, 2),
            },
            ComponentKind::UnaryFunc { op, .. } => Part::UnFunc {
                op: *op,
                out: ch(comp, 0),
                operand: ch(comp, 1),
            },
            ComponentKind::CallMux { inputs, .. } => Part::CallMux {
                ins: (0..*inputs).map(|i| ch(comp, i)).collect(),
                out: ch(comp, *inputs),
            },
            ComponentKind::PullMux { clients, .. } => Part::PullMux {
                clients: (0..*clients).map(|i| ch(comp, i)).collect(),
                source: ch(comp, *clients),
            },
            ComponentKind::Memory {
                words,
                reads,
                writes,
                ..
            } => {
                // The memory's declared name is the first channel's prefix
                // ("m_rd0" -> "m").
                let name = netlist.channel(comp.channels[0]).name.strip_suffix("_rd0");
                memories.push((name.unwrap_or("mem").to_string(), PrimId(parts.len())));
                let mut site = |k: usize| MemSite {
                    data: ch(comp, 2 * k),
                    addr: ch(comp, 2 * k + 1),
                };
                Part::Memory {
                    words: *words,
                    reads: (0..*reads).map(&mut site).collect(),
                    writes: (*reads..reads + writes).map(&mut site).collect(),
                }
            }
            // The fetch's control is synthesized; this is its bundled-data
            // copy.
            ComponentKind::Fetch => Part::FetchData {
                pull: ch(comp, 1),
                push: ch(comp, 2),
            },
            _ => continue,
        };
        parts.push(part);
    }

    let act = &netlist.channel(design.activate).name;
    let driver = PrimId(parts.len());
    parts.push(Part::ActivationDriver {
        req: w.suffixed(act, "_r"),
        ack: w.suffixed(act, "_a"),
    });

    // The environment is the passive side of every port: a responder on a
    // sync port, a provider on a scripted data port, a consumer otherwise.
    let mut ports: Vec<_> = design.port_channels.iter().collect();
    ports.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let (mut providers, mut consumers, mut syncs) = (Vec::new(), Vec::new(), Vec::new());
    for (name, &chid) in ports {
        let id = PrimId(parts.len());
        if netlist.channel(chid).width == 0 {
            parts.push(Part::SyncResponder {
                req: w.suffixed(name, "_r"),
                ack: w.suffixed(name, "_a"),
            });
            syncs.push((name.clone(), id));
        } else if is_input(name) {
            parts.push(Part::PullProvider { ch: w.ch(name) });
            providers.push((name.clone(), id));
        } else {
            parts.push(Part::PushConsumer { ch: w.ch(name) });
            consumers.push((name.clone(), id));
        }
    }

    Circuit {
        num_slots: w.num_slots,
        num_wires: w.wires.len(),
        parts,
        driver,
        providers,
        consumers,
        syncs,
        memories,
    }
}

/// The circuits a flow has been lowered to, one per input-port set, each
/// with its event program once an event run has asked for it and its
/// compiled circuit once `compile_sim` has.
///
/// A circuit serves a lookup when its providers are all ports the caller
/// scripts and its consumers none of them. Every data port of a design is
/// one or the other, so that is exactly "lowered for the same input
/// ports"; sync ports and scripted ports the design lacks play no part in
/// the lowering. The memo is valid only for the design its flow was built
/// from, which [`lower`] assumes anyway: controllers name that design's
/// channels.
#[derive(Debug, Default)]
pub(crate) struct LowerMemo {
    entries: Mutex<Vec<Lowered>>,
}

/// One port set's circuit and, after the first run of each engine, that
/// engine's program of it.
#[derive(Debug)]
pub(crate) struct Lowered {
    pub(crate) circuit: Arc<Circuit>,
    pub(crate) program: Option<Arc<EventProgram>>,
    pub(crate) compiled: Option<Arc<CompiledCircuit>>,
}

impl LowerMemo {
    /// Locks the list, recovering from a poisoned lock: an entry is pushed
    /// only once its circuit is fully lowered, and a program or compiled
    /// circuit is stored only once fully built, so a panic while lowering
    /// or building leaves the list as it was.
    pub(crate) fn entries(&self) -> MutexGuard<'_, Vec<Lowered>> {
        self.entries.lock().unwrap_or_else(|poisoned| {
            self.entries.clear_poison();
            poisoned.into_inner()
        })
    }
}

/// The entry of `flow`'s memo for the input ports `is_input` names,
/// lowered and stored on the first request for that port set, passed to
/// `f` under the memo's lock, so concurrent callers lower each port set
/// (and build each of its programs) once.
fn with_entry<R>(
    design: &CompiledDesign,
    flow: &FlowResult,
    is_input: impl Fn(&str) -> bool,
    f: impl FnOnce(&mut Lowered) -> R,
) -> R {
    debug_assert_eq!(flow.design, design.netlist.name());
    let mut entries = flow.lowered.entries();
    let serves = |c: &Circuit| {
        c.providers.iter().all(|(port, _)| is_input(port))
            && c.consumers.iter().all(|(port, _)| !is_input(port))
    };
    if let Some(e) = entries.iter_mut().find(|e| serves(&e.circuit)) {
        bmbe_obs::trace_counter!("sim.lower.hits", 1);
        return f(e);
    }
    bmbe_obs::trace_counter!("sim.lower.misses", 1);
    entries.push(Lowered {
        circuit: Arc::new(lower(design, flow, &is_input)),
        program: None,
        compiled: None,
    });
    let last = entries.len() - 1;
    f(&mut entries[last])
}

/// The circuit of `design` for the input ports `is_input` names compiled
/// for the bit-parallel engine, from `flow`'s memo; its tapes are built on
/// the first request for that port set. A build error is returned and
/// nothing is stored, so the next request builds again.
///
/// `flow` must be the flow built from `design`.
///
/// # Errors
///
/// [`SimBuildError::Compile`] when a controller netlist does not compile
/// into a tape.
pub(crate) fn lowered_compiled(
    design: &CompiledDesign,
    flow: &FlowResult,
    is_input: impl Fn(&str) -> bool,
) -> Result<Arc<CompiledCircuit>, SimBuildError> {
    with_entry(design, flow, is_input, |e| {
        if let Some(compiled) = &e.compiled {
            return Ok(Arc::clone(compiled));
        }
        let compiled = CompiledCircuit::new(Arc::clone(&e.circuit), |k, inputs, outputs| {
            bmbe_obs::trace_counter!("sim.compile.tapes", 1);
            controller_tape(&flow.controllers[k], inputs, outputs)
        })?;
        Ok(Arc::clone(e.compiled.insert(Arc::new(compiled))))
    })
}

/// The circuit of `design` for the input ports `is_input` names and its
/// event program, from `flow`'s memo; the program is built on the first
/// request for that port set.
///
/// `flow` must be the flow built from `design`.
pub(crate) fn lowered_program(
    design: &CompiledDesign,
    flow: &FlowResult,
    is_input: impl Fn(&str) -> bool,
) -> (Arc<Circuit>, Arc<EventProgram>) {
    with_entry(design, flow, is_input, |e| {
        let circuit = &e.circuit;
        let program = e.program.get_or_insert_with(|| {
            Arc::new(EventProgram::new(circuit, |k| {
                controller_logic(&flow.controllers[k])
            }))
        });
        (Arc::clone(circuit), Arc::clone(program))
    })
}

/// The event engine's logic for a controller: its covers and initial
/// code, with each output's mapped arrival time (or its template's delay).
fn controller_logic(art: &ControllerArtifact) -> ControllerLogic {
    let output_delays: Vec<Time> = art
        .controller
        .outputs
        .iter()
        .map(|n| {
            let ns = match art.template {
                Some(t) => t.delay_ns,
                None => art.mapped.output_delays.get(n).copied().unwrap_or(0.1),
            };
            (ns * 1000.0) as Time
        })
        .collect();
    ControllerLogic::new(
        art.controller.inputs.len(),
        art.controller.output_covers.clone(),
        art.controller.next_state_covers.clone(),
        art.controller.initial_code,
        output_delays,
    )
}

/// The compiled engine's tape for a controller, built from its
/// technology-mapped gates (the subject-graph nodes are the tape's scratch
/// slots).
fn controller_tape(
    art: &ControllerArtifact,
    inputs: usize,
    outputs: usize,
) -> Result<ControllerTape, SimBuildError> {
    let ctrl = &art.controller;
    let subject = &art.mapped.subject;
    let bad = |detail: String| SimBuildError::Compile {
        controller: art.name.clone(),
        detail,
    };
    let root_of = |name: &str| {
        subject
            .roots
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, r)| r)
    };
    let out_roots: Vec<usize> = ctrl
        .outputs
        .iter()
        .map(|n| root_of(n).ok_or_else(|| bad(format!("no function root for output {n}"))))
        .collect::<Result<_, _>>()?;
    let state_roots: Vec<usize> = (0..ctrl.num_state_bits)
        .map(|j| {
            root_of(&format!("y{j}"))
                .ok_or_else(|| bad(format!("no function root for state bit y{j}")))
        })
        .collect::<Result<_, _>>()?;
    ControllerTape::compile(
        &art.name,
        inputs,
        outputs,
        ctrl.initial_code,
        &art.mapped,
        &out_roots,
        &state_roots,
    )
    .map_err(|e| bad(e.to_string()))
}

/// Binds a scenario to a circuit's handles: its done condition, provider
/// scripts (unscripted providers supply zeros), memory preloads and
/// activation cycles. Scripts for ports the circuit has no provider for
/// are ignored.
///
/// # Errors
///
/// [`SimBuildError::UnknownPort`] when the done condition names a port
/// the circuit has no consumer (or responder) for.
pub(crate) fn bind<'a>(circuit: &Circuit, s: &'a Scenario) -> Result<LaneSpec<'a>, SimBuildError> {
    let find = |handles: &[(String, PrimId)], port: &str| {
        handles
            .iter()
            .find(|(name, _)| name == port)
            .map(|&(_, p)| p)
            .ok_or_else(|| SimBuildError::UnknownPort(port.to_string()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        compile_sim, run_control_flow_with, simulate, simulate_scenarios, to_flow_scenario,
        ControllerCache, FaultKind, FaultPhase, FaultPlan, FlowOptions, SimBackend,
    };
    use bmbe_designs::scenarios::{scenario_variants, wagging_register};
    use bmbe_gates::Library;
    use bmbe_sim::prims::Delays;
    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The event programs stored in `flow`'s memo, in entry order.
    fn programs(flow: &FlowResult) -> Vec<Option<Arc<EventProgram>>> {
        flow.lowered
            .entries()
            .iter()
            .map(|e| e.program.clone())
            .collect()
    }

    /// The compiled circuits stored in `flow`'s memo, in entry order.
    fn compiled(flow: &FlowResult) -> Vec<Option<Arc<CompiledCircuit>>> {
        flow.lowered
            .entries()
            .iter()
            .map(|e| e.compiled.clone())
            .collect()
    }

    /// Whether two lists of stored programs hold the same programs.
    fn same_programs<T>(a: &[Option<Arc<T>>], b: &[Option<Arc<T>>]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|pair| match pair {
                (Some(p), Some(q)) => Arc::ptr_eq(p, q),
                (None, None) => true,
                _ => false,
            })
    }

    /// One Wagging-register flow simulated and compiled over two port sets
    /// (and a scenario scripting a port the design lacks) keeps exactly two
    /// circuits, each equal to a fresh lowering, and every run through the
    /// memo equals the same call on a freshly built flow. An entry gets its
    /// event program on its first event run, never from `compile_sim`, and
    /// keeps that one program; it gets its compiled circuit on its first
    /// `compile_sim`, and every later call over its port set returns that
    /// one circuit.
    #[test]
    fn one_lowering_per_port_set() -> Result<(), String> {
        let wag = wagging_register().map_err(|e| e.to_string())?;
        let (library, cache) = (Library::cmos035(), ControllerCache::new());
        let fresh_flow = || {
            run_control_flow_with(&wag.compiled, &FlowOptions::optimized(), &library, &cache)
                .map_err(|e| e.to_string())
        };
        let flow = fresh_flow()?;
        let delays = Delays::default();
        let base = to_flow_scenario(&wag.scenario);
        let mut without_i = base.clone();
        without_i.input_values.remove("i");
        let mut extra = base.clone();
        extra.input_values.insert("no_such_port".into(), vec![1]);
        // The port set without `i` comes first: a lookup matching on
        // providers alone would then serve the base runs its circuit.
        for (k, s) in [&without_i, &base, &base, &without_i, &base, &extra]
            .into_iter()
            .enumerate()
        {
            let run = |flow: &FlowResult| {
                simulate(&wag.compiled, flow, s, &delays).map_err(|e| e.to_string())
            };
            assert!(
                run(&flow)?.same_result(&run(&fresh_flow()?)?),
                "simulate call {k}"
            );
        }
        let after_event_runs = programs(&flow);
        assert!(after_event_runs.len() == 2 && after_event_runs.iter().all(Option::is_some));
        let mut circuits = Vec::new();
        for (ports, s) in [(vec!["i"], &base), (vec![], &without_i)] {
            let ports: BTreeSet<String> = ports.into_iter().map(String::from).collect();
            let compile = |flow: &FlowResult| {
                compile_sim(&wag.compiled, flow, &ports, None).map_err(|e| e.to_string())
            };
            let run = |flow: &FlowResult| {
                compile(flow)?
                    .run_batch(std::slice::from_ref(s))
                    .map_err(|e| e.to_string())
            };
            let (memoized, fresh) = (run(&flow)?, run(&fresh_flow()?)?);
            assert_eq!(memoized.len(), fresh.len());
            assert!(
                memoized.iter().zip(&fresh).all(|(a, b)| a.same_result(b)),
                "compile_sim over {ports:?}"
            );
            let (first, second) = (compile(&flow)?.circuit, compile(&flow)?.circuit);
            assert!(Arc::ptr_eq(&first, &second), "compile_sim over {ports:?}");
            circuits.push(first);
        }
        assert!(!Arc::ptr_eq(&circuits[0], &circuits[1]));
        let stored = compiled(&flow);
        assert!(
            same_programs(
                &stored,
                &[Some(circuits[1].clone()), Some(circuits[0].clone())]
            ),
            "each port set's entry keeps the circuit compile_sim returned"
        );
        let entries = flow.lowered.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(*entries[0].circuit, lower(&wag.compiled, &flow, |_| false));
        assert_eq!(
            *entries[1].circuit,
            lower(&wag.compiled, &flow, |p| p == "i")
        );
        drop(entries);
        assert!(same_programs(&programs(&flow), &after_event_runs));

        // `compile_sim` alone builds no program; the first event run over
        // the port set builds one, and later event runs keep it. An event
        // run builds no compiled circuit.
        let flow = fresh_flow()?;
        let with_i: BTreeSet<String> = ["i".to_string()].into();
        compile_sim(&wag.compiled, &flow, &with_i, None).map_err(|e| e.to_string())?;
        assert!(programs(&flow).iter().all(Option::is_none));
        let first_compiled = compiled(&flow);
        assert!(first_compiled.len() == 1 && first_compiled[0].is_some());
        let flow_events_only = fresh_flow()?;
        simulate(&wag.compiled, &flow_events_only, &base, &delays).map_err(|e| e.to_string())?;
        assert!(compiled(&flow_events_only).iter().all(Option::is_none));
        simulate(&wag.compiled, &flow, &base, &delays).map_err(|e| e.to_string())?;
        let first = programs(&flow);
        assert!(first.len() == 1 && first[0].is_some());
        for s in [&base, &extra] {
            simulate(&wag.compiled, &flow, s, &delays).map_err(|e| e.to_string())?;
        }
        compile_sim(&wag.compiled, &flow, &with_i, None).map_err(|e| e.to_string())?;
        assert!(same_programs(&programs(&flow), &first));
        assert!(same_programs(&compiled(&flow), &first_compiled));

        // Four workers lowering one port set at once lower it once.
        let flow = fresh_flow()?;
        let scenarios: Vec<_> = scenario_variants(&wag, 8, 3)
            .iter()
            .map(to_flow_scenario)
            .collect();
        for backend in [SimBackend::Event, SimBackend::Compiled] {
            for r in simulate_scenarios(&wag.compiled, &flow, &scenarios, &delays, backend, 4, None)
            {
                r.map_err(|e| e.to_string())?;
            }
        }
        assert_eq!(flow.lowered.entries().len(), 1);
        assert!(programs(&flow)[0].is_some());
        assert!(compiled(&flow)[0].is_some());
        Ok(())
    }

    /// A `sim_compile` fault trips at its controller with the same error
    /// whether or not the port set's compiled circuit is memoized, a
    /// faulted call stores nothing, and the next clean call is served: it
    /// builds the circuit if no call has, and otherwise returns the stored
    /// one. A panicking fault leaves the memo's lock usable.
    #[test]
    fn a_sim_compile_fault_trips_alike_before_and_after_the_memo_is_built() -> Result<(), String> {
        let wag = wagging_register().map_err(|e| e.to_string())?;
        let (library, cache) = (Library::cmos035(), ControllerCache::new());
        let fresh_flow = || {
            run_control_flow_with(&wag.compiled, &FlowOptions::optimized(), &library, &cache)
                .map_err(|e| e.to_string())
        };
        let ports: BTreeSet<String> = ["i".to_string()].into();
        let compile = |flow: &FlowResult, fault: Option<&FaultPlan>| {
            compile_sim(&wag.compiled, flow, &ports, fault)
        };
        let jobs = fresh_flow()?.controllers.len();
        assert!(jobs > 1, "the fault must target more than the first job");
        for nth in [0, jobs - 1] {
            let flow = fresh_flow()?;
            let plan = FaultPlan {
                phase: FaultPhase::SimCompile,
                nth,
                kind: FaultKind::Error,
            };
            let cold = compile(&flow, Some(&plan)).err();
            let expected = SimBuildError::Compile {
                controller: flow.controllers[nth].name.clone(),
                detail: format!("injected fault at sim_compile of job {nth}"),
            };
            assert_eq!(cold.as_ref(), Some(&expected), "job {nth}, memo cold");
            assert!(compiled(&flow).iter().all(Option::is_none), "job {nth}");
            let served = compile(&flow, None).map_err(|e| e.to_string())?.circuit;
            assert_eq!(
                compile(&flow, Some(&plan)).err(),
                cold,
                "job {nth}, memo warm"
            );
            let again = compile(&flow, None).map_err(|e| e.to_string())?.circuit;
            assert!(Arc::ptr_eq(&served, &again), "job {nth}");
        }
        let panicking = FaultPlan {
            phase: FaultPhase::SimCompile,
            nth: 0,
            kind: FaultKind::Panic,
        };
        let flow = fresh_flow()?;
        let faulted = || catch_unwind(AssertUnwindSafe(|| compile(&flow, Some(&panicking))));
        assert!(faulted().is_err(), "memo cold");
        let served = compile(&flow, None).map_err(|e| e.to_string())?.circuit;
        assert!(faulted().is_err(), "memo warm");
        let again = compile(&flow, None).map_err(|e| e.to_string())?.circuit;
        assert!(Arc::ptr_eq(&served, &again));
        Ok(())
    }
}
