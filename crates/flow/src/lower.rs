//! The one simulation lowering: a design and its synthesized controllers
//! become a [`Circuit`] that both simulation engines consume, and a
//! scenario binds to the circuit's handles as a [`LaneSpec`].
//!
//! Parts come in one fixed order: controllers in flow order, then select
//! adapters sorted by channel, then datapath components in netlist order,
//! then the activation driver, then the ports sorted by name. The walk
//! never iterates a hash map, so a design lowers to the same circuit in
//! every process.

use crate::pipeline::FlowResult;
use crate::simbuild::{Done, Scenario, SimBuildError};
use bmbe_balsa::CompiledDesign;
use bmbe_hsnet::{Component, ComponentKind};
use bmbe_sim::{Circuit, DataCh, DoneSpec, LaneSpec, MemSite, NodeId, Part, PrimId, SlotId};
use std::collections::{BTreeMap, HashMap};
use std::fmt::{Display, Write as _};

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
