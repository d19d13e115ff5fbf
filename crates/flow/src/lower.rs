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

use crate::pipeline::FlowResult;
use crate::simbuild::{Done, Scenario, SimBuildError};
use bmbe_balsa::CompiledDesign;
use bmbe_hsnet::{Component, ComponentKind};
use bmbe_sim::{Circuit, DataCh, DoneSpec, LaneSpec, MemSite, NodeId, Part, PrimId, SlotId};
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

    /// Wire names by id.
    fn names(self) -> Vec<String> {
        let mut names = vec![String::new(); self.wires.len()];
        for (name, w) in self.wires {
            names[w.0] = name;
        }
        names
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
        wire_names: w.names(),
        parts,
        driver,
        providers,
        consumers,
        syncs,
        memories,
    }
}

/// The circuits a flow has been lowered to, one per input-port set.
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
    circuits: Mutex<Vec<Arc<Circuit>>>,
}

impl LowerMemo {
    /// Locks the list, recovering from a poisoned lock: a circuit is
    /// pushed only once it is fully lowered, so a panic while lowering
    /// leaves the list as it was.
    fn circuits(&self) -> MutexGuard<'_, Vec<Arc<Circuit>>> {
        self.circuits.lock().unwrap_or_else(|poisoned| {
            self.circuits.clear_poison();
            poisoned.into_inner()
        })
    }
}

/// The circuit of `design` for the input ports `is_input` names, from
/// `flow`'s memo, lowered and stored on the first request for that port
/// set. The lock is held while lowering, so concurrent callers lower each
/// port set once.
///
/// `flow` must be the flow built from `design`.
pub(crate) fn lowered(
    design: &CompiledDesign,
    flow: &FlowResult,
    is_input: impl Fn(&str) -> bool,
) -> Arc<Circuit> {
    debug_assert_eq!(flow.design, design.netlist.name());
    let mut circuits = flow.lowered.circuits();
    let serves = |c: &Circuit| {
        c.providers.iter().all(|(port, _)| is_input(port))
            && c.consumers.iter().all(|(port, _)| !is_input(port))
    };
    if let Some(c) = circuits.iter().find(|c| serves(c)) {
        bmbe_obs::trace_counter!("sim.lower.hits", 1);
        return Arc::clone(c);
    }
    bmbe_obs::trace_counter!("sim.lower.misses", 1);
    let c = Arc::new(lower(design, flow, &is_input));
    circuits.push(Arc::clone(&c));
    c
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
        ControllerCache, FlowOptions, SimBackend,
    };
    use bmbe_designs::scenarios::{scenario_variants, wagging_register};
    use bmbe_gates::Library;
    use bmbe_sim::prims::Delays;
    use std::collections::BTreeSet;

    /// One Wagging-register flow simulated and compiled over two port sets
    /// (and a scenario scripting a port the design lacks) keeps exactly two
    /// circuits, each equal to a fresh lowering, and every run through the
    /// memo equals the same call on a freshly built flow.
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
        for (ports, s) in [(vec!["i"], &base), (vec![], &without_i)] {
            let ports: BTreeSet<String> = ports.into_iter().map(String::from).collect();
            let run = |flow: &FlowResult| {
                compile_sim(&wag.compiled, flow, &ports, None)
                    .and_then(|cs| cs.run_batch(std::slice::from_ref(s)))
                    .map_err(|e| e.to_string())
            };
            let (memoized, fresh) = (run(&flow)?, run(&fresh_flow()?)?);
            assert_eq!(memoized.len(), fresh.len());
            assert!(
                memoized.iter().zip(&fresh).all(|(a, b)| a.same_result(b)),
                "compile_sim over {ports:?}"
            );
        }
        let circuits = flow.lowered.circuits();
        assert_eq!(circuits.len(), 2);
        assert_eq!(*circuits[0], lower(&wag.compiled, &flow, |_| false));
        assert_eq!(*circuits[1], lower(&wag.compiled, &flow, |p| p == "i"));
        drop(circuits);

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
        assert_eq!(flow.lowered.circuits().len(), 1);
        Ok(())
    }
}
