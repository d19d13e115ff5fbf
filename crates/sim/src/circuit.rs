//! The backend-neutral circuit description both simulation engines consume.
//!
//! A design is lowered once into a [`Circuit`]: dense wire and data-slot
//! ids, one [`Part`] per primitive — a synthesized controller, a
//! behavioural datapath component, or an environment process — and the
//! environment handles a scenario binds to ([`LaneSpec`]). Both engines
//! step the parts in place and keep only run state beside them. The event
//! engine builds an [`EventProgram`] of the circuit once — the watcher
//! index and each controller's shared logic — and gives each run one
//! [`PartRun`] per part ([`Circuit::event_sim`]); the compiled engine
//! evaluates the same parts lane-parallel ([`crate::CompiledCircuit`]).
//! Part `i` is primitive `PrimId(i)` on both engines, so they share the
//! wiring, the watch lists and the primitive order.

use crate::engine::{NodeId, PrimId, Sim, Watchers};
use crate::prims::{ControllerLogic, DataCh, Delays, MemSite, PartRun, State};
use bmbe_hsnet::{BinOp, UnOp};
use std::sync::Arc;

/// One primitive of a circuit: its kind, wires and data channels. The
/// event engine steps it through [`PartRun`], the compiled engine lane by
/// lane; neither copies it per run.
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
    /// A constant source: a passive pull provider.
    Constant {
        /// Its channel.
        ch: DataCh,
        /// The constant.
        value: u64,
    },
    /// A storage variable: a passive write port and passive read ports.
    Variable {
        /// Write channel.
        write: DataCh,
        /// Read channels.
        reads: Vec<DataCh>,
    },
    /// A binary function: a passive result provider that pulls both
    /// operands.
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
    /// A unary function, the identity bridge included.
    UnFunc {
        /// The operation.
        op: UnOp,
        /// Result channel.
        out: DataCh,
        /// Operand channel.
        operand: DataCh,
    },
    /// A call-mux: mutually exclusive pushes merged onto one output push.
    CallMux {
        /// Writer channels.
        ins: Vec<DataCh>,
        /// Merged output.
        out: DataCh,
    },
    /// A pull-mux: mutually exclusive pull clients sharing one pulled
    /// source.
    PullMux {
        /// Client channels.
        clients: Vec<DataCh>,
        /// Shared source.
        source: DataCh,
    },
    /// A word-addressed memory.
    Memory {
        /// Declared size in words.
        words: usize,
        /// Read sites.
        reads: Vec<MemSite>,
        /// Write sites.
        writes: Vec<MemSite>,
    },
    /// A case/while select demultiplexer: pulls the selector value and
    /// steers the acknowledge onto one of the controller's select-ack
    /// wires.
    SelectAdapter {
        /// The controller's select request.
        sel_req: NodeId,
        /// The controller's per-branch acknowledges.
        sel_acks: Vec<NodeId>,
        /// The selector value provider.
        provider: DataCh,
    },
    /// A fetch's bundled-data copy: the pulled value goes to the push
    /// channel's slot as soon as the pull acknowledges.
    FetchData {
        /// Pull channel.
        pull: DataCh,
        /// Push channel.
        push: DataCh,
    },
    /// The activation driver: repeated four-phase handshakes on the
    /// design's top activation.
    ActivationDriver {
        /// Request it drives.
        req: NodeId,
        /// Acknowledge it watches.
        ack: NodeId,
    },
    /// A sync-port responder: acknowledges every request.
    SyncResponder {
        /// Request it watches.
        req: NodeId,
        /// Acknowledge it drives.
        ack: NodeId,
    },
    /// An input-port value provider: supplies scripted values.
    PullProvider {
        /// Its channel.
        ch: DataCh,
    },
    /// An output-port consumer: records the values it receives.
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
    /// Number of wires; ids are dense, `NodeId(0..num_wires)`.
    pub num_wires: usize,
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
    /// the condition. A condition naming a part of another kind is not
    /// met.
    pub fn met(&self, sim: &Sim<PartRun<'_>>) -> bool {
        match *self {
            DoneSpec::Activations(p, n) => sim.prim(p).activations().is_some_and(|c| c >= n),
            DoneSpec::Outputs(p, n) => sim.prim(p).received().is_some_and(|r| r.len() >= n),
            DoneSpec::Syncs(p, n) => sim.prim(p).syncs().is_some_and(|c| c >= n),
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

impl<'a> LaneSpec<'a> {
    /// The script of pull provider `p` (empty when unscripted).
    pub fn script(&self, p: PrimId) -> &'a [u64] {
        self.provider_values
            .iter()
            .find(|(q, _)| *q == p)
            .map_or(&[], |(_, v)| v)
    }

    /// The preload of memory `p` (empty when none).
    pub fn preload(&self, p: PrimId) -> &'a [u64] {
        self.memory_init
            .iter()
            .find(|(q, _)| *q == p)
            .map_or(&[], |(_, v)| v)
    }
}

impl Circuit {
    /// Builds the event simulation of one bound lane over `program`, the
    /// circuit's event program: part `i` becomes primitive `PrimId(i)`,
    /// watching [`Part::watch`] through the program's index. Only run
    /// state is built here — wire values, slots, the queue, and what each
    /// part keeps: a variable's value, a mux's active input, a memory's
    /// words and read addresses, a select's chosen branch, a controller's
    /// state code and counters, and the environment's counts, script
    /// positions and received values. Parts, scripts and delays are
    /// borrowed.
    ///
    /// `program` must be the program built from this circuit.
    pub fn event_sim<'a>(
        &'a self,
        program: &'a EventProgram,
        lane: &LaneSpec<'a>,
        delays: &'a Delays,
    ) -> Sim<PartRun<'a>> {
        let mut controllers = 0;
        let prims = self
            .parts
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let state = match part {
                    Part::Controller { .. } => {
                        // Logic is numbered in part order.
                        let logic = &program.controllers[controllers];
                        controllers += 1;
                        State::Controller {
                            logic,
                            code: logic.initial_code,
                            memo_hits: 0,
                            settles: 0,
                        }
                    }
                    Part::Variable { .. } => State::Variable(0),
                    Part::CallMux { .. } | Part::PullMux { .. } | Part::SelectAdapter { .. } => {
                        State::Active(None)
                    }
                    Part::Memory { words, reads, .. } => {
                        let mut words = vec![0; *words];
                        for (w, v) in words.iter_mut().zip(lane.preload(PrimId(i))) {
                            *w = *v;
                        }
                        State::Memory {
                            words,
                            raddr: vec![0; reads.len()],
                        }
                    }
                    Part::ActivationDriver { .. } => State::Driver {
                        cycles: lane.activation_cycles,
                        completions: 0,
                    },
                    Part::SyncResponder { .. } => State::Sync(0),
                    Part::PullProvider { .. } => State::Provider {
                        values: lane.script(PrimId(i)),
                        ix: 0,
                    },
                    Part::PushConsumer { .. } => State::Consumer(Vec::new()),
                    Part::Constant { .. }
                    | Part::BinFunc { .. }
                    | Part::UnFunc { .. }
                    | Part::FetchData { .. } => State::None,
                };
                PartRun {
                    part,
                    delays,
                    state,
                }
            })
            .collect();
        Sim::with_watchers(Arc::clone(&program.watchers), self.num_slots, prims)
    }

    /// The parts watching each wire, as [`Part::watch`] lists them.
    pub(crate) fn watchers(&self) -> Watchers {
        let watched: Vec<Vec<NodeId>> = self
            .parts
            .iter()
            .map(|part| {
                let mut watch = Vec::new();
                part.watch(&mut watch);
                watch
            })
            .collect();
        Watchers::new(self.num_wires, watched.iter().map(Vec::as_slice))
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
    controllers: Vec<ControllerLogic>,
}

impl EventProgram {
    /// The program of `circuit`. `controller` builds a controller part's
    /// logic from its artifact index.
    pub fn new(
        circuit: &Circuit,
        controller: impl FnMut(usize) -> ControllerLogic,
    ) -> EventProgram {
        let controllers = circuit
            .parts
            .iter()
            .filter_map(|part| match part {
                Part::Controller { artifact, .. } => Some(*artifact),
                _ => None,
            })
            .map(controller)
            .collect();
        EventProgram {
            watchers: Arc::new(circuit.watchers()),
            controllers,
        }
    }
}
