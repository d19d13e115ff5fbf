//! The backend-neutral circuit description both simulation engines consume.
//!
//! A design is lowered once into a [`Circuit`]: dense wire and data-slot
//! ids, one [`Part`] per primitive — a synthesized controller, a
//! behavioural datapath component, or an environment process — and the
//! environment handles a scenario binds to ([`LaneSpec`]). The event
//! engine builds an [`EventProgram`] of the circuit once — the watcher
//! index and each controller's shared logic — and instantiates one timed
//! primitive per part for each run ([`Circuit::event_sim`]); the compiled
//! engine evaluates the same parts lane-parallel
//! ([`crate::CompiledCircuit`]). Part `i` is primitive `PrimId(i)` on both
//! engines, so they share the wiring, the watch lists and the primitive
//! order.

use crate::engine::{NodeId, PrimId, Sim, Watchers};
use crate::prims::{
    ActivationDriverEnv, BinFuncPrim, CallMuxPrim, ConstantPrim, ControllerLogic, ControllerPrim,
    DataCh, Delays, FetchDataPrim, MemSite, MemoryPrim, PullMuxPrim, PullProviderEnv,
    PushConsumerEnv, SelectAdapterPrim, SyncResponderEnv, UnFuncPrim, VariablePrim,
};
use crate::Primitive;
use bmbe_hsnet::{BinOp, UnOp};
use std::sync::Arc;

/// One primitive of a circuit. The behavioural parts mirror the event
/// primitives of [`crate::prims`] one for one.
#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// A synthesized controller: `artifact` indexes the flow's controller
    /// artifacts, which hold its covers, delays and mapped gates.
    Controller {
        /// Index of the controller's artifact.
        artifact: usize,
        /// Input wires, in function-variable order.
        inputs: Vec<NodeId>,
        /// Output wires.
        outputs: Vec<NodeId>,
    },
    /// A constant source (see [`ConstantPrim`]).
    Constant {
        /// Its channel.
        ch: DataCh,
        /// The constant.
        value: u64,
    },
    /// A storage variable (see [`VariablePrim`]).
    Variable {
        /// Write channel.
        write: DataCh,
        /// Read channels.
        reads: Vec<DataCh>,
    },
    /// A binary function (see [`BinFuncPrim`]).
    BinFunc {
        /// The operation.
        op: BinOp,
        /// Result channel.
        out: DataCh,
        /// Left operand channel.
        lhs: DataCh,
        /// Right operand channel.
        rhs: DataCh,
    },
    /// A unary function (see [`UnFuncPrim`]).
    UnFunc {
        /// The operation.
        op: UnOp,
        /// Result channel.
        out: DataCh,
        /// Operand channel.
        operand: DataCh,
    },
    /// A call-mux (see [`CallMuxPrim`]).
    CallMux {
        /// Writer channels.
        ins: Vec<DataCh>,
        /// Merged output.
        out: DataCh,
    },
    /// A pull-mux (see [`PullMuxPrim`]).
    PullMux {
        /// Client channels.
        clients: Vec<DataCh>,
        /// Shared source.
        source: DataCh,
    },
    /// A word-addressed memory (see [`MemoryPrim`]).
    Memory {
        /// Declared size in words.
        words: usize,
        /// Read sites.
        reads: Vec<MemSite>,
        /// Write sites.
        writes: Vec<MemSite>,
    },
    /// A case/while select demultiplexer (see [`SelectAdapterPrim`]).
    SelectAdapter {
        /// The controller's select request.
        sel_req: NodeId,
        /// The controller's per-branch acknowledges.
        sel_acks: Vec<NodeId>,
        /// The selector value provider.
        provider: DataCh,
    },
    /// A fetch's bundled-data copy (see [`FetchDataPrim`]).
    FetchData {
        /// Pull channel.
        pull: DataCh,
        /// Push channel.
        push: DataCh,
    },
    /// The activation driver (see [`ActivationDriverEnv`]).
    ActivationDriver {
        /// Request it drives.
        req: NodeId,
        /// Acknowledge it watches.
        ack: NodeId,
    },
    /// A sync-port responder (see [`SyncResponderEnv`]).
    SyncResponder {
        /// Request it watches.
        req: NodeId,
        /// Acknowledge it drives.
        ack: NodeId,
    },
    /// An input-port value provider (see [`PullProviderEnv`]).
    PullProvider {
        /// Its channel.
        ch: DataCh,
    },
    /// An output-port consumer (see [`PushConsumerEnv`]).
    PushConsumer {
        /// Its channel.
        ch: DataCh,
    },
}

impl Part {
    /// Appends the wires whose changes wake this part, in registration
    /// order (a wire listed twice is delivered twice).
    pub fn watch(&self, out: &mut Vec<NodeId>) {
        match self {
            Part::Controller { inputs, .. } => out.extend_from_slice(inputs),
            Part::Constant { ch, .. } | Part::PullProvider { ch } | Part::PushConsumer { ch } => {
                out.push(ch.req)
            }
            Part::Variable { write, reads } => {
                out.push(write.req);
                out.extend(reads.iter().map(|c| c.req));
            }
            Part::BinFunc {
                out: o, lhs, rhs, ..
            } => out.extend([o.req, lhs.ack, rhs.ack]),
            Part::UnFunc {
                out: o, operand, ..
            } => out.extend([o.req, operand.ack]),
            Part::CallMux {
                ins: chs,
                out: tail,
            }
            | Part::PullMux {
                clients: chs,
                source: tail,
            } => {
                out.extend(chs.iter().map(|c| c.req));
                out.push(tail.ack);
            }
            Part::Memory { reads, writes, .. } => {
                for s in reads.iter().chain(writes) {
                    out.extend([s.data.req, s.addr.ack]);
                }
            }
            Part::SelectAdapter {
                sel_req, provider, ..
            } => out.extend([*sel_req, provider.ack]),
            Part::FetchData { pull, .. } => out.push(pull.ack),
            Part::ActivationDriver { ack, .. } => out.push(*ack),
            Part::SyncResponder { req, .. } => out.push(*req),
        }
    }
}

/// A lowered design: wires, data slots, parts, and the environment
/// handles scenarios bind to.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    /// Wire names by id (for the wire-change trace log).
    pub wire_names: Vec<String>,
    /// Number of data slots.
    pub num_slots: usize,
    /// The parts; part `i` is primitive `PrimId(i)`.
    pub parts: Vec<Part>,
    /// The activation driver.
    pub driver: PrimId,
    /// Input port name -> pull provider, sorted by name.
    pub providers: Vec<(String, PrimId)>,
    /// Output port name -> push consumer, sorted by name.
    pub consumers: Vec<(String, PrimId)>,
    /// Sync port name -> responder, sorted by name.
    pub syncs: Vec<(String, PrimId)>,
    /// Memory name -> memory, in netlist order.
    pub memories: Vec<(String, PrimId)>,
}

/// When a lane's run is complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoneSpec {
    /// The activation driver completed this many handshakes.
    Activations(PrimId, u64),
    /// A push consumer received this many values.
    Outputs(PrimId, usize),
    /// A sync responder completed this many handshakes.
    Syncs(PrimId, u64),
}

impl DoneSpec {
    /// Whether an event simulation built by [`Circuit::event_sim`] has met
    /// the condition.
    pub fn met(&self, sim: &Sim) -> bool {
        match *self {
            DoneSpec::Activations(p, n) => sim
                .prim::<ActivationDriverEnv>(p)
                .is_some_and(|d| d.completions as u64 >= n),
            DoneSpec::Outputs(p, n) => sim
                .prim::<PushConsumerEnv>(p)
                .is_some_and(|c| c.received.len() >= n),
            DoneSpec::Syncs(p, n) => sim
                .prim::<SyncResponderEnv>(p)
                .is_some_and(|c| c.count as u64 >= n),
        }
    }
}

/// One scenario bound to a circuit's handles.
#[derive(Debug, Clone)]
pub struct LaneSpec<'a> {
    /// Activation handshakes the driver performs.
    pub activation_cycles: u64,
    /// Scripted values per pull provider.
    pub provider_values: Vec<(PrimId, &'a [u64])>,
    /// Initial contents per memory (zero-filled beyond).
    pub memory_init: Vec<(PrimId, &'a [u64])>,
    /// The completion condition.
    pub done: DoneSpec,
}

impl LaneSpec<'_> {
    /// The script of pull provider `p` (empty when unscripted).
    pub fn script(&self, p: PrimId) -> &[u64] {
        self.provider_values
            .iter()
            .find(|(q, _)| *q == p)
            .map_or(&[], |(_, v)| v)
    }

    /// The preload of memory `p` (empty when none).
    pub fn preload(&self, p: PrimId) -> &[u64] {
        self.memory_init
            .iter()
            .find(|(q, _)| *q == p)
            .map_or(&[], |(_, v)| v)
    }
}

impl Circuit {
    /// Number of wires.
    pub fn num_wires(&self) -> usize {
        self.wire_names.len()
    }

    /// Builds the event simulation of one bound lane over `program`, the
    /// circuit's event program: part `i` becomes primitive `PrimId(i)`,
    /// watching [`Part::watch`] through the program's index. Only run
    /// state is built here — wire values, slots, the queue, each
    /// primitive's counters and scripts, and the `delays` scalars.
    ///
    /// `program` must be the program built from this circuit.
    pub fn event_sim(&self, program: &EventProgram, lane: &LaneSpec<'_>, delays: &Delays) -> Sim {
        let mut controllers = 0;
        let mut prims = Vec::with_capacity(self.parts.len());
        for (i, part) in self.parts.iter().enumerate() {
            let prim: Box<dyn Primitive> = match part {
                Part::Controller { .. } => {
                    // Logic is numbered in part order.
                    let logic = Arc::clone(&program.controllers[controllers]);
                    controllers += 1;
                    Box::new(ControllerPrim::new(logic, delays.wire))
                }
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
                Part::CallMux { ins, out } => {
                    Box::new(CallMuxPrim::new(ins.clone(), *out, delays.mux))
                }
                Part::PullMux { clients, source } => {
                    Box::new(PullMuxPrim::new(clients.clone(), *source, delays.mux))
                }
                Part::Memory {
                    words,
                    reads,
                    writes,
                } => {
                    let mut m =
                        MemoryPrim::new(*words, reads.clone(), writes.clone(), delays.memory);
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
            };
            prims.push(prim);
        }
        Sim::with_watchers(Arc::clone(&program.watchers), self.num_slots, prims)
    }
}

/// What every event run of one [`Circuit`] shares, built once per
/// circuit: the watcher lists of [`Part::watch`] as one flat index, and
/// the [`ControllerLogic`] of each controller part — with the memo of
/// settled transitions every run reads and extends.
#[derive(Debug)]
pub struct EventProgram {
    watchers: Arc<Watchers>,
    /// One logic per controller part, in part order.
    controllers: Vec<Arc<ControllerLogic>>,
}

impl EventProgram {
    /// The program of `circuit`. `controller` builds a controller part's
    /// logic from its artifact index and wires.
    pub fn new(
        circuit: &Circuit,
        mut controller: impl FnMut(usize, &[NodeId], &[NodeId]) -> ControllerLogic,
    ) -> EventProgram {
        let watched: Vec<Vec<NodeId>> = circuit
            .parts
            .iter()
            .map(|part| {
                let mut watch = Vec::new();
                part.watch(&mut watch);
                watch
            })
            .collect();
        let controllers = circuit
            .parts
            .iter()
            .filter_map(|part| match part {
                Part::Controller {
                    artifact,
                    inputs,
                    outputs,
                } => Some(Arc::new(controller(*artifact, inputs, outputs))),
                _ => None,
            })
            .collect();
        EventProgram {
            watchers: Arc::new(Watchers::new(
                circuit.num_wires(),
                watched.iter().map(Vec::as_slice),
            )),
            controllers,
        }
    }
}
