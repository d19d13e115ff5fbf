//! The compiled bit-parallel simulation backend.
//!
//! Instead of scheduling discrete events, a [`CompiledCircuit`] evaluates
//! **64 independent scenarios at once**: every wire holds a `u64` *lane
//! word* whose bit `L` is the wire's value in scenario lane `L`. It runs
//! the same [`Circuit`] the event engine instantiates, part for part.
//! Each mapped controller netlist becomes a straight-line instruction tape
//! — one [`TapeOp`] per cell, in the netlist's stored gate order, evaluated
//! with [`CellKind::eval_lanes`]. That order is the mapper's, which
//! [`check_gate_order`] checks: gate outputs ascend and every pin lies
//! below its gate's output, so one pass writes each node before any op
//! reads it. The asynchronous state feedback is resolved by a
//! settle-to-fixpoint loop per activation, mirroring the event engine's
//! `ControllerLogic::settle` exactly (lane-wise: a lane at its fixpoint is
//! unchanged by further iterations, so mixed-convergence batches still
//! match the scalar engine bit for bit).
//!
//! The run itself is a *wave* loop with unit-delay (Jacobi) semantics:
//! all wire writes scheduled in wave `k` apply simultaneously at the start
//! of wave `k + 1`, then every primitive watching a changed wire is
//! re-evaluated, in primitive-index order. Writes are deferred and the
//! evaluation order of a wave cannot influence its result, which is what
//! makes compiled outcomes bit-identical at any worker-thread count. Data
//! slots (bundled data) are written immediately, like the event engine's
//! `Ctx::write_slot`.
//!
//! The backend is untimed: per-scenario *behaviour* (completion, port
//! traffic, memory contents) matches the event engine — asserted by the
//! differential tests — while `time_ns` does not exist here. The event
//! engine remains the timing/hazard reference.
//!
//! Lanes complete independently: when a lane's done condition first holds
//! at the end of a wave, the lane is removed from the live mask and its
//! pending writes are cancelled — the analogue of the event engine
//! stopping at the done event and leaving the queue unprocessed.

use bmbe_gates::{check_gate_order, CellKind, MappedNetlist, SubjectNode};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::circuit::{Circuit, DoneSpec, LaneSpec, Part};
use crate::engine::{NodeId, PrimId, SlotId, Watchers};
use crate::prims::{eval_binop, eval_unop, SharedMemo};

/// Number of scenario lanes a batch evaluates at once (the bits of a
/// `u64` lane word).
pub const LANES: usize = 64;

/// Which simulation backend runs a scenario set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimBackend {
    /// The event-driven engine — the timing and hazard reference.
    Event,
    /// The bit-parallel compiled engine: 64 scenarios per lane word.
    Compiled,
}

impl SimBackend {
    /// The backend's report name.
    pub fn name(self) -> &'static str {
        match self {
            SimBackend::Event => "event",
            SimBackend::Compiled => "compiled",
        }
    }
}

/// One instruction of a controller tape: opcode (the cell kind), up to
/// four input slot indices, and the output slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeOp {
    /// The cell evaluated lane-parallel.
    pub cell: CellKind,
    /// Input scratch-slot indices (`n` of them used).
    pub ins: [u16; 4],
    /// Number of inputs.
    pub n: u8,
    /// Output scratch-slot index.
    pub out: u16,
}

/// A controller instruction tape. Scratch slots are the subject nodes:
/// slots `0..inputs` load from the controller part's input wires, slots
/// `inputs..inputs+num_state` load from the fed-back state word (the
/// feedback arcs the settle loop iterates), constant-one slots are preset,
/// and the ops write the rest in the mapped netlist's gate order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerTape {
    /// Number of state bits (the feedback arcs).
    pub num_state: usize,
    /// Scratch slots needed (= subject nodes).
    pub slots: usize,
    /// Slots preset to all-ones (constant-one subject nodes).
    pub ones: Vec<u16>,
    /// The instructions, one per mapped gate, in the netlist's order.
    pub ops: Vec<TapeOp>,
    /// Scratch slot of each output function root, matching the part's
    /// output wires.
    pub out_roots: Vec<u16>,
    /// Scratch slot of each next-state function root — the feedback arcs:
    /// these values are written back into the state input slots on the
    /// next settle iteration.
    pub state_roots: Vec<u16>,
    /// Initial state code (broadcast to every lane).
    pub initial_code: u64,
}

/// Errors compiling a netlist into a tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The netlist is malformed for tape compilation.
    BadTape {
        /// The controller.
        controller: String,
        /// What is wrong.
        detail: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CompileError::BadTape { controller, detail } = self;
        write!(f, "controller {controller}: {detail}")
    }
}

impl std::error::Error for CompileError {}

const NO_ACTIVE: u16 = u16::MAX;

/// Per-primitive mutable run state (lane-indexed vectors).
#[derive(Debug, Clone)]
enum PState<'a> {
    None,
    Ctrl {
        tape: usize,
        state: Vec<u64>,
    },
    Var {
        value: Vec<u64>,
    },
    Mux {
        active: Vec<u16>,
    },
    Mem {
        words: Vec<u64>,
        raddr: Vec<u64>,
    },
    Sel {
        chosen: Vec<u16>,
    },
    Driver {
        cycles: Vec<u64>,
        completions: Vec<u64>,
    },
    Sync {
        count: Vec<u64>,
    },
    Provider {
        values: Vec<&'a [u64]>,
        ix: Vec<usize>,
    },
    Consumer {
        received: Vec<Vec<u64>>,
    },
}

impl ControllerTape {
    /// Compiles a mapped controller netlist into a tape: one op per gate,
    /// in the netlist's stored order.
    ///
    /// `out_roots`/`state_roots` are the subject nodes of the output and
    /// next-state function roots, one per output wire and per state bit.
    /// Subject inputs must be laid out as the event engine's function
    /// variables: the `inputs` wires first, then the state bits.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on a netlist that breaks the mapper's gate order
    /// ([`check_gate_order`]) or does not fit the controller part.
    pub fn compile(
        name: &str,
        inputs: usize,
        outputs: usize,
        initial_code: u64,
        mapped: &MappedNetlist,
        out_roots: &[usize],
        state_roots: &[usize],
    ) -> Result<ControllerTape, CompileError> {
        let bad = |detail: String| CompileError::BadTape {
            controller: name.to_string(),
            detail,
        };
        check_gate_order(mapped).map_err(|e| bad(e.to_string()))?;
        let nodes = &mapped.subject.nodes;
        if nodes.len() > u16::MAX as usize {
            return Err(bad(format!(
                "{} subject nodes exceed the tape limit",
                nodes.len()
            )));
        }
        // Wires and state bits load into the slots below the first gate
        // output; gate outputs ascend, so no op overwrites them.
        let num_state = state_roots.len();
        let lowest = mapped.gates.first().map_or(nodes.len(), |g| g.output);
        if inputs + num_state > lowest {
            return Err(bad(format!(
                "{inputs} wires + {num_state} state bits do not fit below subject node {lowest}"
            )));
        }
        if out_roots.len() != outputs {
            return Err(bad(format!(
                "{} output roots for {outputs} output wires",
                out_roots.len()
            )));
        }
        if let Some(r) = out_roots
            .iter()
            .chain(state_roots)
            .find(|&&r| r >= nodes.len())
        {
            return Err(bad(format!("function root {r} out of range")));
        }
        let as_slots = |v: &[usize]| v.iter().map(|&n| n as u16).collect::<Vec<_>>();
        let ops = (mapped.gates.iter())
            .map(|g| {
                let mut ins = [0u16; 4];
                for (slot, &pin) in ins.iter_mut().zip(&g.inputs) {
                    *slot = pin as u16;
                }
                TapeOp {
                    cell: g.cell,
                    ins,
                    n: g.inputs.len() as u8,
                    out: g.output as u16,
                }
            })
            .collect();
        Ok(ControllerTape {
            num_state,
            slots: nodes.len(),
            ones: (0..nodes.len())
                .filter(|&v| nodes[v] == SubjectNode::One)
                .map(|v| v as u16)
                .collect(),
            ops,
            out_roots: as_slots(out_roots),
            state_roots: as_slots(state_roots),
            initial_code,
        })
    }
}

/// One batched run: up to [`LANES`] lane specs and a wave budget (the
/// untimed analogue of the event engine's `max_time`).
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    /// The lanes (1..=64).
    pub lanes: Vec<LaneSpec<'a>>,
    /// Wave budget; lanes not complete when it runs out report
    /// `completed = false`.
    pub max_waves: u64,
}

/// Outcome of a batched run, with per-lane data harvested from every
/// environment and memory primitive (keyed by part).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Lanes the run evaluated.
    pub lanes: usize,
    /// Completion bitmask (bit `L` = lane `L` met its done condition).
    pub completed: u64,
    /// Waves executed.
    pub waves: u64,
    /// Applied wire changes per lane (the compiled analogue of processed
    /// events).
    pub lane_events: Vec<u64>,
    /// Controller settle iterations across the run: tape passes actually
    /// run, none for an evaluation the memo served.
    pub settle_iters: u64,
    /// Controller evaluations served from the circuit's shared transition
    /// memo: every live lane was at one (input point, state) pair that this
    /// batch or an earlier batch of the circuit evaluated.
    pub memo_hits: u64,
    /// Controller evaluations whose live lanes were at different (input
    /// point, state) pairs, so the tape ran.
    pub mixed_evals: u64,
    /// Values received per push consumer, per lane.
    pub consumer_received: HashMap<PrimId, Vec<Vec<u64>>>,
    /// Handshakes completed per sync responder, per lane.
    pub sync_counts: HashMap<PrimId, Vec<u64>>,
    /// Activation completions per driver, per lane.
    pub driver_completions: HashMap<PrimId, Vec<u64>>,
    /// Final memory words per memory, per lane.
    pub memories: HashMap<PrimId, Vec<Vec<u64>>>,
}

impl RunResult {
    /// Total applied wire changes across the batch's **live** lanes.
    ///
    /// `lane_events` holds one entry per live lane (the dead padding of a
    /// partial batch is masked out of every write and asserted
    /// event-free at harvest), so this sum is the correct numerator for
    /// any events-per-second figure: a 5-lane batch reports the work of 5
    /// scenarios, not 64.
    pub fn live_events(&self) -> u64 {
        self.lane_events.iter().sum()
    }
}

/// A compiled circuit: a [`Circuit`] with its controller tapes, one
/// transition memo per tape and its wire-to-watchers index, shared by any
/// number of batched runs on any thread (compile once, run many batches).
/// The circuit itself is shared, so the event engine can run the same
/// lowering.
///
/// Every batch reads and extends the same memos: a memo entry is the
/// settled state and outputs the tape computed for one (input point,
/// state) pair, a pure function of that pair, so an entry one batch
/// stored is exact for every other.
#[derive(Debug)]
pub struct CompiledCircuit {
    circuit: Arc<Circuit>,
    watchers: Watchers,
    tapes: Vec<ControllerTape>,
    /// One per tape; `None` for a controller too wide to memoize.
    memos: Vec<Option<SharedMemo>>,
    max_tape_slots: usize,
}

impl CompiledCircuit {
    /// Compiles `circuit`: `tape` builds each controller part's tape from
    /// its artifact index and its numbers of input and output wires, in
    /// part order.
    ///
    /// # Errors
    ///
    /// The first error `tape` returns.
    pub fn new<E>(
        circuit: Arc<Circuit>,
        mut tape: impl FnMut(usize, usize, usize) -> Result<ControllerTape, E>,
    ) -> Result<CompiledCircuit, E> {
        let (mut tapes, mut memos) = (Vec::new(), Vec::new());
        for part in &circuit.parts {
            if let Part::Controller {
                artifact,
                inputs,
                outputs,
            } = part
            {
                let t = tape(*artifact, inputs.len(), outputs.len())?;
                memos.push(SharedMemo::new(inputs.len(), t.num_state, outputs.len()));
                tapes.push(t);
            }
        }
        let watchers = circuit.watchers();
        let max_tape_slots = tapes.iter().map(|t| t.slots).max().unwrap_or(0);
        Ok(CompiledCircuit {
            circuit,
            watchers,
            tapes,
            memos,
            max_tape_slots,
        })
    }

    /// The circuit it runs.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The controller tapes, in part order (for reporting: op counts).
    pub fn tapes(&self) -> &[ControllerTape] {
        &self.tapes
    }

    /// Runs a batch of up to [`LANES`] scenarios to quiescence, completion
    /// of every lane, or the wave budget.
    ///
    /// A lane whose done condition names a part of another kind never
    /// completes, as on the event engine ([`DoneSpec::met`]).
    ///
    /// # Panics
    ///
    /// Panics if `spec.lanes` is empty or exceeds [`LANES`].
    pub fn run(&self, spec: &RunSpec<'_>) -> RunResult {
        let n = spec.lanes.len();
        assert!(n >= 1 && n <= LANES, "lane count {n} out of range");
        let _run_span = bmbe_obs::span!("sim.settle", "sim");
        bmbe_obs::annotate_num!("sim.lanes_occupancy", n);
        let mut st = RunState::new(self, spec);
        st.init(self, spec);
        st.check_done(spec);
        while st.live != 0 && st.waves < spec.max_waves && !st.pend_dirty.is_empty() {
            st.apply(self);
            st.eval_triggered(self);
            st.clear_changed();
            st.check_done(spec);
            st.waves += 1;
        }
        bmbe_obs::trace_counter!("sim.compiled.waves", st.waves);
        bmbe_obs::trace_counter!("sim.compiled.settle_iters", st.settle_iters);
        bmbe_obs::trace_counter!("sim.compiled.memo_hits", st.memo_hits);
        bmbe_obs::trace_counter!("sim.compiled.mixed_evals", st.mixed_evals);
        st.harvest(self, n)
    }
}

/// Mutable state of one batched run; pull providers borrow their lanes'
/// scripts from the run's [`LaneSpec`]s.
struct RunState<'a> {
    wires: Vec<u64>,
    changed: Vec<u64>,
    chg_dirty: Vec<usize>,
    pend_val: Vec<u64>,
    pend_mask: Vec<u64>,
    pend_dirty: Vec<usize>,
    slots: Vec<u64>, // slot-major: slots[slot * LANES + lane]
    pstates: Vec<PState<'a>>,
    scratch: Vec<u64>,
    trig: Vec<bool>,
    trig_list: Vec<u32>,
    live: u64,
    completed: u64,
    waves: u64,
    settle_iters: u64,
    memo_hits: u64,
    mixed_evals: u64,
    lane_events: Vec<u64>,
    /// The batch's lanes (the initial live mask).
    batch: u64,
    /// Wire changes that hit every lane of the batch at once, counted
    /// here instead of lane by lane and added to each lane at harvest.
    batch_events: u64,
    /// Whether an environment counter a done condition reads may have
    /// moved since the last done check.
    counted: bool,
}

fn for_lanes(mut m: u64, mut f: impl FnMut(usize)) {
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        f(l);
        m &= m - 1;
    }
}

impl<'a> RunState<'a> {
    fn new(c: &CompiledCircuit, spec: &RunSpec<'a>) -> RunState<'a> {
        let n = spec.lanes.len();
        let live = if n == LANES { !0u64 } else { (1u64 << n) - 1 };
        let parts = &c.circuit.parts;
        let mut pstates = Vec::with_capacity(parts.len());
        let mut tapes = 0;
        for (pi, part) in parts.iter().enumerate() {
            let p = PrimId(pi);
            pstates.push(match part {
                Part::Controller { .. } => {
                    // Tapes are numbered in part order.
                    let tape = tapes;
                    tapes += 1;
                    let t = &c.tapes[tape];
                    PState::Ctrl {
                        tape,
                        state: (0..t.num_state)
                            .map(|j| {
                                if t.initial_code >> j & 1 == 1 {
                                    !0u64
                                } else {
                                    0
                                }
                            })
                            .collect(),
                    }
                }
                Part::Variable { .. } => PState::Var {
                    value: vec![0; LANES],
                },
                Part::CallMux { .. } | Part::PullMux { .. } => PState::Mux {
                    active: vec![NO_ACTIVE; LANES],
                },
                Part::Memory { words, reads, .. } => {
                    let words = (*words).max(1);
                    let mut w = vec![0u64; words * LANES];
                    for (lane, ls) in spec.lanes.iter().enumerate() {
                        for (a, v) in ls.preload(p).iter().enumerate().take(words) {
                            w[a * LANES + lane] = *v;
                        }
                    }
                    PState::Mem {
                        words: w,
                        raddr: vec![0; reads.len() * LANES],
                    }
                }
                Part::SelectAdapter { .. } => PState::Sel {
                    chosen: vec![NO_ACTIVE; LANES],
                },
                Part::ActivationDriver { .. } => {
                    let mut cycles = vec![0u64; LANES];
                    for (lane, ls) in spec.lanes.iter().enumerate() {
                        cycles[lane] = ls.activation_cycles;
                    }
                    PState::Driver {
                        cycles,
                        completions: vec![0; LANES],
                    }
                }
                Part::SyncResponder { .. } => PState::Sync {
                    count: vec![0; LANES],
                },
                Part::PullProvider { .. } => {
                    let mut values: Vec<&[u64]> = vec![&[]; LANES];
                    for (lane, ls) in spec.lanes.iter().enumerate() {
                        values[lane] = ls.script(p);
                    }
                    PState::Provider {
                        values,
                        ix: vec![0; LANES],
                    }
                }
                Part::PushConsumer { .. } => PState::Consumer {
                    received: vec![Vec::new(); LANES],
                },
                _ => PState::None,
            });
        }
        RunState {
            wires: vec![0; c.circuit.num_wires()],
            changed: vec![0; c.circuit.num_wires()],
            chg_dirty: Vec::new(),
            pend_val: vec![0; c.circuit.num_wires()],
            pend_mask: vec![0; c.circuit.num_wires()],
            pend_dirty: Vec::new(),
            slots: vec![0; c.circuit.num_slots * LANES],
            pstates,
            scratch: vec![0; c.max_tape_slots],
            trig: vec![false; parts.len()],
            trig_list: Vec::new(),
            live,
            completed: 0,
            waves: 0,
            settle_iters: 0,
            memo_hits: 0,
            mixed_evals: 0,
            lane_events: vec![0; LANES],
            batch: live,
            batch_events: 0,
            counted: true,
        }
    }

    /// Schedules a (masked) wire write for the next wave. Masks are
    /// restricted to live lanes, freezing completed scenarios.
    fn sched(&mut self, w: NodeId, val: u64, mask: u64) {
        let mask = mask & self.live;
        if mask == 0 {
            return;
        }
        let ix = w.0;
        if self.pend_mask[ix] == 0 {
            self.pend_dirty.push(ix);
        }
        self.pend_val[ix] = (self.pend_val[ix] & !mask) | (val & mask);
        self.pend_mask[ix] |= mask;
    }

    fn sched_lane(&mut self, w: NodeId, bit: bool, lane: usize) {
        self.sched(w, if bit { !0 } else { 0 }, 1u64 << lane);
    }

    /// Schedules `w` to `val` in the lanes where it differs.
    fn drive(&mut self, w: NodeId, val: u64) {
        let diff = val ^ self.wire(w);
        if diff != 0 {
            self.sched(w, val, diff);
        }
    }

    fn wire(&self, w: NodeId) -> u64 {
        self.wires[w.0]
    }

    fn chg(&self, w: NodeId) -> u64 {
        self.changed[w.0]
    }

    fn slot_ix(s: SlotId, lane: usize) -> usize {
        s.0 * LANES + lane
    }

    /// Initial actions (the event engine's `Sim::init`): only the
    /// activation driver schedules.
    fn init(&mut self, c: &CompiledCircuit, spec: &RunSpec<'_>) {
        let mut mask = 0u64;
        for (lane, ls) in spec.lanes.iter().enumerate() {
            if ls.activation_cycles > 0 {
                mask |= 1 << lane;
            }
        }
        for part in &c.circuit.parts {
            if let Part::ActivationDriver { req, .. } = part {
                let req = *req;
                self.sched(req, !0, mask);
            }
        }
    }

    /// Applies the pending writes, computing changed masks and marking
    /// watcher primitives.
    fn apply(&mut self, c: &CompiledCircuit) {
        for di in 0..self.pend_dirty.len() {
            let w = self.pend_dirty[di];
            let m = self.pend_mask[w];
            self.pend_mask[w] = 0;
            if m == 0 {
                continue;
            }
            let cur = self.wires[w];
            let new = (cur & !m) | (self.pend_val[w] & m);
            let diff = cur ^ new;
            if diff == 0 {
                continue;
            }
            self.wires[w] = new;
            self.changed[w] = diff;
            self.chg_dirty.push(w);
            if diff == self.batch {
                self.batch_events += 1;
            } else {
                for_lanes(diff, |l| self.lane_events[l] += 1);
            }
            // A part listed twice for a wire is marked once.
            for &p in c.watchers.of(NodeId(w)) {
                if !self.trig[p.0] {
                    self.trig[p.0] = true;
                    self.trig_list.push(p.0 as u32);
                }
            }
        }
        self.pend_dirty.clear();
    }

    fn eval_triggered(&mut self, c: &CompiledCircuit) {
        // Primitive-index order: deterministic whatever order the wires
        // marked them in (writes are deferred, so order cannot change the
        // wave's result anyway — this just pins the per-lane state
        // mutation order).
        self.trig_list.sort_unstable();
        let list = std::mem::take(&mut self.trig_list);
        for &op in &list {
            self.trig[op as usize] = false;
            self.eval_op(c, op as usize);
        }
        self.trig_list = list;
        self.trig_list.clear();
    }

    fn clear_changed(&mut self) {
        for &w in &self.chg_dirty {
            self.changed[w] = 0;
        }
        self.chg_dirty.clear();
    }

    /// End-of-wave done update: newly completed lanes leave the live mask
    /// and their pending writes are cancelled (the event engine stops at
    /// the done event; nothing scheduled after it runs). A condition naming
    /// a part of another kind is not met.
    fn check_done(&mut self, spec: &RunSpec<'_>) {
        // Done conditions read the driver, consumer and responder counters
        // only; while none of those parts ran, no lane can newly complete.
        if !std::mem::take(&mut self.counted) {
            return;
        }
        let mut newly = 0u64;
        for (lane, ls) in spec.lanes.iter().enumerate() {
            let bit = 1u64 << lane;
            if self.live & bit == 0 {
                continue;
            }
            let done = match ls.done {
                DoneSpec::Activations(p, count) => matches!(&self.pstates[p.0],
                    PState::Driver { completions, .. } if completions[lane] >= count),
                DoneSpec::Outputs(p, count) => matches!(&self.pstates[p.0],
                    PState::Consumer { received } if received[lane].len() >= count),
                DoneSpec::Syncs(p, count) => matches!(&self.pstates[p.0],
                    PState::Sync { count: n } if n[lane] >= count),
            };
            if done {
                newly |= bit;
            }
        }
        if newly != 0 {
            self.completed |= newly;
            self.live &= !newly;
            for &w in &self.pend_dirty {
                self.pend_mask[w] &= self.live;
            }
        }
    }

    fn eval_op(&mut self, c: &CompiledCircuit, op_ix: usize) {
        // Take the per-primitive state out so `self` stays free for wire
        // and slot access during evaluation.
        let mut pst = std::mem::replace(&mut self.pstates[op_ix], PState::None);
        match &c.circuit.parts[op_ix] {
            Part::Controller {
                inputs, outputs, ..
            } => self.eval_controller(c, inputs, outputs, &mut pst),
            Part::Constant { ch, value } => {
                let m = self.chg(ch.req);
                let up = m & self.wire(ch.req);
                for_lanes(up, |l| self.slots[Self::slot_ix(ch.slot, l)] = *value);
                self.sched(ch.ack, !0, up);
                self.sched(ch.ack, 0, m & !self.wire(ch.req));
            }
            Part::Variable { write, reads } => {
                let PState::Var { value } = &mut pst else {
                    unreachable!()
                };
                let m = self.chg(write.req);
                let v = self.wire(write.req);
                for_lanes(m & v, |l| {
                    value[l] = self.slots[Self::slot_ix(write.slot, l)]
                });
                self.sched(write.ack, !0, m & v);
                self.sched(write.ack, 0, m & !v);
                for r in reads {
                    let m = self.chg(r.req);
                    let v = self.wire(r.req);
                    for_lanes(m & v, |l| self.slots[Self::slot_ix(r.slot, l)] = value[l]);
                    self.sched(r.ack, !0, m & v);
                    self.sched(r.ack, 0, m & !v);
                }
            }
            Part::BinFunc { op, out, lhs, rhs } => {
                let out_req = self.wire(out.req);
                let m1 = self.chg(out.req) & out_req;
                self.sched(lhs.req, !0, m1);
                self.sched(rhs.req, !0, m1);
                let m2 = (self.chg(lhs.ack) | self.chg(rhs.ack))
                    & self.wire(lhs.ack)
                    & self.wire(rhs.ack)
                    & out_req;
                for_lanes(m2, |l| {
                    let v = eval_binop(
                        *op,
                        self.slots[Self::slot_ix(lhs.slot, l)],
                        self.slots[Self::slot_ix(rhs.slot, l)],
                    );
                    self.slots[Self::slot_ix(out.slot, l)] = v;
                });
                self.sched(out.ack, !0, m2);
                self.sched(lhs.req, 0, m2);
                self.sched(rhs.req, 0, m2);
                let m3 = (self.chg(out.req) | self.chg(lhs.ack) | self.chg(rhs.ack))
                    & !out_req
                    & !self.wire(lhs.ack)
                    & !self.wire(rhs.ack)
                    & self.wire(out.ack);
                self.sched(out.ack, 0, m3);
            }
            Part::UnFunc { op, out, operand } => {
                let out_req = self.wire(out.req);
                let m1 = self.chg(out.req) & out_req;
                self.sched(operand.req, !0, m1);
                let m2 = self.chg(operand.ack) & self.wire(operand.ack) & out_req;
                for_lanes(m2, |l| {
                    let v = eval_unop(*op, self.slots[Self::slot_ix(operand.slot, l)]);
                    self.slots[Self::slot_ix(out.slot, l)] = v;
                });
                self.sched(out.ack, !0, m2);
                self.sched(operand.req, 0, m2);
                let m3 = (self.chg(out.req) | self.chg(operand.ack))
                    & !out_req
                    & !self.wire(operand.ack)
                    & self.wire(out.ack);
                self.sched(out.ack, 0, m3);
            }
            Part::CallMux { ins, out } => {
                let PState::Mux { active } = &mut pst else {
                    unreachable!()
                };
                for (i, ch) in ins.iter().enumerate() {
                    let m = self.chg(ch.req);
                    let v = self.wire(ch.req);
                    for_lanes(m & v, |l| {
                        active[l] = i as u16;
                        self.slots[Self::slot_ix(out.slot, l)] =
                            self.slots[Self::slot_ix(ch.slot, l)];
                    });
                    self.sched(out.req, !0, m & v);
                    self.sched(out.req, 0, m & !v);
                }
                let m = self.chg(out.ack);
                let v = self.wire(out.ack);
                for_lanes(m, |l| {
                    if active[l] != NO_ACTIVE {
                        let i = active[l] as usize;
                        let bit = v >> l & 1 == 1;
                        self.sched_lane(ins[i].ack, bit, l);
                        if !bit {
                            active[l] = NO_ACTIVE;
                        }
                    }
                });
            }
            Part::PullMux { clients, source } => {
                let PState::Mux { active } = &mut pst else {
                    unreachable!()
                };
                for (i, ch) in clients.iter().enumerate() {
                    let m = self.chg(ch.req);
                    let v = self.wire(ch.req);
                    for_lanes(m & v, |l| active[l] = i as u16);
                    self.sched(source.req, !0, m & v);
                    self.sched(source.req, 0, m & !v);
                }
                let m = self.chg(source.ack);
                let v = self.wire(source.ack);
                for_lanes(m, |l| {
                    if active[l] != NO_ACTIVE {
                        let i = active[l] as usize;
                        let bit = v >> l & 1 == 1;
                        if bit {
                            self.slots[Self::slot_ix(clients[i].slot, l)] =
                                self.slots[Self::slot_ix(source.slot, l)];
                        }
                        self.sched_lane(clients[i].ack, bit, l);
                        if !bit {
                            active[l] = NO_ACTIVE;
                        }
                    }
                });
            }
            Part::Memory {
                words,
                reads,
                writes,
            } => {
                let PState::Mem { words: mem, raddr } = &mut pst else {
                    unreachable!()
                };
                let words = (*words).max(1);
                for (i, site) in reads.iter().enumerate() {
                    let m = self.chg(site.data.req);
                    let v = self.wire(site.data.req);
                    self.sched(site.addr.req, !0, m & v);
                    self.sched(site.data.ack, 0, m & !v);
                    let ma = self.chg(site.addr.ack);
                    let av = self.wire(site.addr.ack);
                    for_lanes(ma & av, |l| {
                        raddr[i * LANES + l] = self.slots[Self::slot_ix(site.addr.slot, l)];
                    });
                    self.sched(site.addr.req, 0, ma & av);
                    let serve = ma & !av & self.wire(site.data.req);
                    for_lanes(serve, |l| {
                        let a = (raddr[i * LANES + l] as usize) % words;
                        self.slots[Self::slot_ix(site.data.slot, l)] = mem[a * LANES + l];
                    });
                    self.sched(site.data.ack, !0, serve);
                }
                for site in writes {
                    let m = self.chg(site.data.req);
                    let v = self.wire(site.data.req);
                    self.sched(site.addr.req, !0, m & v);
                    self.sched(site.data.ack, 0, m & !v);
                    let ma = self.chg(site.addr.ack);
                    let av = self.wire(site.addr.ack);
                    for_lanes(ma & av, |l| {
                        let a = (self.slots[Self::slot_ix(site.addr.slot, l)] as usize) % words;
                        mem[a * LANES + l] = self.slots[Self::slot_ix(site.data.slot, l)];
                    });
                    self.sched(site.addr.req, 0, ma & av);
                    self.sched(site.data.ack, !0, ma & !av & self.wire(site.data.req));
                }
            }
            Part::SelectAdapter {
                sel_req,
                sel_acks,
                provider,
            } => {
                let PState::Sel { chosen } = &mut pst else {
                    unreachable!()
                };
                let m = self.chg(*sel_req);
                let v = self.wire(*sel_req);
                self.sched(provider.req, !0, m & v);
                for_lanes(m & !v, |l| {
                    if chosen[l] != NO_ACTIVE {
                        let ack = sel_acks[chosen[l] as usize];
                        chosen[l] = NO_ACTIVE;
                        self.sched_lane(ack, false, l);
                    }
                });
                let m2 = self.chg(provider.ack) & self.wire(provider.ack) & self.wire(*sel_req);
                for_lanes(m2, |l| {
                    let val = self.slots[Self::slot_ix(provider.slot, l)] as usize;
                    let c = val.min(sel_acks.len() - 1);
                    chosen[l] = c as u16;
                    self.sched_lane(sel_acks[c], true, l);
                });
                self.sched(provider.req, 0, m2);
            }
            Part::FetchData { pull, push } => {
                let up = self.chg(pull.ack) & self.wire(pull.ack);
                for_lanes(up, |l| {
                    self.slots[Self::slot_ix(push.slot, l)] =
                        self.slots[Self::slot_ix(pull.slot, l)];
                });
            }
            Part::ActivationDriver { req, ack } => {
                self.counted = true;
                let PState::Driver {
                    cycles,
                    completions,
                } = &mut pst
                else {
                    unreachable!()
                };
                let m = self.chg(*ack);
                let v = self.wire(*ack);
                self.sched(*req, 0, m & v);
                for_lanes(m & !v, |l| {
                    completions[l] += 1;
                    if completions[l] < cycles[l] {
                        self.sched_lane(*req, true, l);
                    }
                });
            }
            Part::SyncResponder { req, ack } => {
                self.counted = true;
                let PState::Sync { count } = &mut pst else {
                    unreachable!()
                };
                let m = self.chg(*req);
                let v = self.wire(*req);
                for_lanes(m & !v, |l| count[l] += 1);
                self.sched(*ack, v, m);
            }
            Part::PullProvider { ch } => {
                let PState::Provider { values, ix } = &mut pst else {
                    unreachable!()
                };
                let m = self.chg(ch.req);
                let v = self.wire(ch.req);
                for_lanes(m & v, |l| {
                    let val = if values[l].is_empty() {
                        0
                    } else {
                        values[l][ix[l] % values[l].len()]
                    };
                    ix[l] += 1;
                    self.slots[Self::slot_ix(ch.slot, l)] = val;
                });
                self.sched(ch.ack, !0, m & v);
                self.sched(ch.ack, 0, m & !v);
            }
            Part::PushConsumer { ch } => {
                self.counted = true;
                let PState::Consumer { received } = &mut pst else {
                    unreachable!()
                };
                let m = self.chg(ch.req);
                let v = self.wire(ch.req);
                for_lanes(m & v, |l| {
                    received[l].push(self.slots[Self::slot_ix(ch.slot, l)]);
                });
                self.sched(ch.ack, !0, m & v);
                self.sched(ch.ack, 0, m & !v);
            }
        }
        self.pstates[op_ix] = pst;
    }

    /// Lane-parallel mirror of the event engine's controller step
    /// (`PartRun` over `ControllerLogic::settle`).
    ///
    /// When every live lane is at one (input point, state) pair the
    /// circuit's shared transition memo may already hold that pair's
    /// settled state and outputs, from this batch or an earlier one; a hit
    /// broadcasts them into the live lanes without running the tape.
    /// Otherwise the tape runs on all lanes and the lowest live lane's
    /// result is stored, so every memo entry comes from the mapped gates.
    fn eval_controller(
        &mut self,
        c: &CompiledCircuit,
        inputs: &[NodeId],
        outputs: &[NodeId],
        pst: &mut PState<'_>,
    ) {
        let PState::Ctrl { tape, state } = pst else {
            unreachable!()
        };
        let (t, memo) = (&c.tapes[*tape], c.memos[*tape].as_ref());
        let live = self.live;
        // The wave loop evaluates only while some lane is live.
        let lane = live.trailing_zeros();
        let mut point = None;
        if let Some(memo) = memo {
            let x = lane_bits(inputs.iter().map(|&w| self.wire(w)), lane);
            let y = lane_bits(state.iter().copied(), lane);
            let uniform = inputs
                .iter()
                .map(|&w| self.wire(w))
                .chain(state.iter().copied())
                .all(|w| w & live == 0 || w & live == live);
            let hit = if uniform {
                memo.lock().get(x, y)
            } else {
                self.mixed_evals += 1;
                None
            };
            if let Some((next, bits)) = hit {
                self.memo_hits += 1;
                for (j, s) in state.iter_mut().enumerate() {
                    *s = (*s & !live) | if next >> j & 1 == 1 { live } else { 0 };
                }
                for (o, &ow) in outputs.iter().enumerate() {
                    self.drive(ow, if bits >> o & 1 == 1 { !0 } else { 0 });
                }
                return;
            }
            point = Some((x, y));
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch[..t.slots].fill(0);
        for &o in &t.ones {
            scratch[o as usize] = !0;
        }
        let ni = inputs.len();
        for (i, &w) in inputs.iter().enumerate() {
            scratch[i] = self.wire(w);
        }
        // Settle the feedback: up to 4 next-state evaluations, exactly the
        // scalar `settle`. Lanes at their fixpoint stay put while slower
        // lanes iterate.
        let mut fixed = false;
        let mut iters = 0u64;
        for _ in 0..4 {
            for (j, &s) in state.iter().enumerate() {
                scratch[ni + j] = s;
            }
            run_tape(t, &mut scratch);
            iters += 1;
            let same = state
                .iter()
                .enumerate()
                .all(|(j, &s)| scratch[t.state_roots[j] as usize] == s);
            if same {
                fixed = true;
                break;
            }
            for (j, s) in state.iter_mut().enumerate() {
                *s = scratch[t.state_roots[j] as usize];
            }
        }
        if !fixed {
            // Pathological non-convergence: outputs at the state after the
            // fourth update, like the scalar engine.
            for (j, &s) in state.iter().enumerate() {
                scratch[ni + j] = s;
            }
            run_tape(t, &mut scratch);
            iters += 1;
        }
        self.settle_iters += iters;
        for (o, &ow) in outputs.iter().enumerate() {
            self.drive(ow, scratch[t.out_roots[o] as usize]);
        }
        if let (Some(memo), Some((x, y))) = (memo, point) {
            let next = lane_bits(state.iter().copied(), lane);
            let bits = lane_bits(t.out_roots.iter().map(|&r| scratch[r as usize]), lane);
            memo.lock().put(x, y, next, bits);
        }
        self.scratch = scratch;
    }

    fn harvest(mut self, c: &CompiledCircuit, n: usize) -> RunResult {
        // Live-lane accounting contract: a partial batch pads the 64-wide
        // words with dead lanes, but every scheduled write is masked with
        // `live` before it lands, so the padding can never accrue events.
        // Everything harvested below is truncated to the `n` live lanes —
        // consumers of `lane_events` (`SimStats`, its events/s) therefore
        // count live lanes only, never the padding.
        debug_assert!(
            self.lane_events[n..].iter().all(|&e| e == 0),
            "dead padded lanes accrued events: {:?}",
            &self.lane_events[n..]
        );
        for e in &mut self.lane_events[..n] {
            *e += self.batch_events;
        }
        let mut consumer_received = HashMap::new();
        let mut sync_counts = HashMap::new();
        let mut driver_completions = HashMap::new();
        let mut memories = HashMap::new();
        for (pi, (part, pst)) in c.circuit.parts.iter().zip(&self.pstates).enumerate() {
            let pi = PrimId(pi);
            match (part, pst) {
                (Part::PushConsumer { .. }, PState::Consumer { received }) => {
                    consumer_received.insert(pi, received[..n].to_vec());
                }
                (Part::SyncResponder { .. }, PState::Sync { count }) => {
                    sync_counts.insert(pi, count[..n].to_vec());
                }
                (Part::ActivationDriver { .. }, PState::Driver { completions, .. }) => {
                    driver_completions.insert(pi, completions[..n].to_vec());
                }
                (Part::Memory { words, .. }, PState::Mem { words: mem, .. }) => {
                    let words = (*words).max(1);
                    let per_lane: Vec<Vec<u64>> = (0..n)
                        .map(|l| (0..words).map(|a| mem[a * LANES + l]).collect())
                        .collect();
                    memories.insert(pi, per_lane);
                }
                _ => {}
            }
        }
        RunResult {
            lanes: n,
            completed: self.completed,
            waves: self.waves,
            lane_events: self.lane_events[..n].to_vec(),
            settle_iters: self.settle_iters,
            memo_hits: self.memo_hits,
            mixed_evals: self.mixed_evals,
            consumer_received,
            sync_counts,
            driver_completions,
            memories,
        }
    }
}

/// Bit `lane` of each word, packed in order.
fn lane_bits(words: impl Iterator<Item = u64>, lane: u32) -> u64 {
    words
        .enumerate()
        .fold(0, |acc, (i, w)| acc | (w >> lane & 1) << i)
}

fn run_tape(t: &ControllerTape, scratch: &mut [u64]) {
    for op in &t.ops {
        let mut buf = [0u64; 4];
        let n = op.n as usize;
        for i in 0..n {
            buf[i] = scratch[op.ins[i] as usize];
        }
        // The tape builder checked each op's input count against its cell.
        scratch[op.out as usize] = op.cell.eval_lanes(&buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmbe_gates::{MappedGate, Module, SubjectGraph};

    fn lane_spec(cycles: u64, done: DoneSpec) -> LaneSpec<'static> {
        LaneSpec {
            activation_cycles: cycles,
            provider_values: Vec::new(),
            memory_init: Vec::new(),
            done,
        }
    }

    /// A circuit of `wires` wires and these parts, the driver first.
    fn circuit(wires: usize, parts: Vec<Part>) -> Arc<Circuit> {
        Arc::new(Circuit {
            wire_names: (0..wires).map(|i| format!("w{i}")).collect(),
            num_slots: 0,
            parts,
            driver: PrimId(0),
            providers: Vec::new(),
            consumers: Vec::new(),
            syncs: Vec::new(),
            memories: Vec::new(),
        })
    }

    fn gate(cell: CellKind, inputs: &[usize], output: usize) -> MappedGate {
        MappedGate {
            cell,
            inputs: inputs.to_vec(),
            output,
        }
    }

    /// A mapped netlist of these gates over `inputs` input nodes and
    /// `nodes - inputs` gate nodes (their kinds only mark them as gate
    /// outputs; the tape evaluates the cells).
    fn netlist(inputs: usize, nodes: usize, gates: Vec<MappedGate>) -> MappedNetlist {
        let kinds = (0..nodes).map(|v| {
            if v < inputs {
                SubjectNode::Input(v)
            } else {
                SubjectNode::Inv(0)
            }
        });
        MappedNetlist {
            gates,
            area: 0.0,
            output_delays: HashMap::new(),
            subject: SubjectGraph {
                nodes: kinds.collect(),
                modules: vec![Module::Level1; nodes],
                roots: Vec::new(),
                num_inputs: inputs,
                fanout: vec![0; nodes],
            },
        }
    }

    fn no_tapes(_: usize, _: usize, _: usize) -> Result<ControllerTape, CompileError> {
        unreachable!("circuit has no controllers")
    }

    /// Driver -> sync responder loop: lane L performs L % 3 + 1
    /// activations; counts and completion must track per lane.
    #[test]
    fn driver_responder_loop_completes_per_lane() {
        let (req, ack) = (NodeId(0), NodeId(1));
        let c = CompiledCircuit::new(
            circuit(
                2,
                vec![
                    Part::ActivationDriver { req, ack },
                    Part::SyncResponder { req, ack },
                ],
            ),
            no_tapes,
        )
        .unwrap();
        let (driver, resp) = (PrimId(0), PrimId(1));
        let lanes: Vec<LaneSpec> = (0..64)
            .map(|l| lane_spec(l % 3 + 1, DoneSpec::Activations(driver, l % 3 + 1)))
            .collect();
        let r = c.run(&RunSpec {
            lanes,
            max_waves: 1000,
        });
        assert_eq!(r.completed, !0u64);
        for l in 0..64 {
            assert_eq!(r.sync_counts[&resp][l], l as u64 % 3 + 1, "lane {l}");
            assert_eq!(r.driver_completions[&driver][l], l as u64 % 3 + 1);
        }
        // Lanes complete at different waves; later traffic must not bump
        // frozen counters.
        assert!(r.waves > 4);
    }

    /// A buffered controller (output = Buf(input) through an inverter
    /// pair) between driver and responder.
    #[test]
    fn controller_tape_propagates_through_gates() {
        let (a_req, a_ack, c_req) = (NodeId(0), NodeId(1), NodeId(2));
        let parts = vec![
            Part::ActivationDriver {
                req: a_req,
                ack: a_ack,
            },
            Part::Controller {
                artifact: 0,
                inputs: vec![a_req],
                outputs: vec![c_req],
            },
            Part::SyncResponder {
                req: c_req,
                ack: a_ack,
            },
        ];
        // Tape: node 0 = input (a_req), node 1 = Inv(0), node 2 = Inv(1).
        // Output root = node 2 (== input), driving c_req.
        let m = netlist(
            1,
            3,
            vec![gate(CellKind::Inv, &[0], 1), gate(CellKind::Inv, &[1], 2)],
        );
        let c = CompiledCircuit::new(circuit(3, parts), |_, ni, no| {
            ControllerTape::compile("buf", ni, no, 0, &m, &[2], &[])
        })
        .unwrap();
        let outs: Vec<u16> = c.tapes()[0].ops.iter().map(|op| op.out).collect();
        assert_eq!(outs, [1, 2], "one op per gate, in the netlist's order");
        let resp = PrimId(2);
        let lanes: Vec<LaneSpec> = (0..10)
            .map(|_| lane_spec(2, DoneSpec::Syncs(resp, 2)))
            .collect();
        let r = c.run(&RunSpec {
            lanes,
            max_waves: 1000,
        });
        assert_eq!(r.completed, (1u64 << 10) - 1);
        for l in 0..10 {
            assert_eq!(r.sync_counts[&resp][l], 2);
        }
        assert!(r.settle_iters > 0);
    }

    /// A one-state-bit controller whose feedback settles in two
    /// iterations: y0 = And2(input, input), output = And2(y0, y0). The
    /// settle loop must deliver the output of the *settled* state.
    #[test]
    fn state_feedback_settles_to_fixpoint() {
        let (a_req, a_ack, o) = (NodeId(0), NodeId(1), NodeId(2));
        let parts = vec![
            Part::ActivationDriver {
                req: a_req,
                ack: a_ack,
            },
            Part::Controller {
                artifact: 0,
                inputs: vec![a_req],
                outputs: vec![o],
            },
            Part::SyncResponder { req: o, ack: a_ack },
        ];
        // Nodes: 0 = input wire, 1 = state bit y0, 2 = And2(0, 0)
        // (next-state root), 3 = And2(1, 1) (output root).
        let m = netlist(
            2,
            4,
            vec![
                gate(CellKind::And2, &[0, 0], 2),
                gate(CellKind::And2, &[1, 1], 3),
            ],
        );
        let c = CompiledCircuit::new(circuit(3, parts), |_, ni, no| {
            ControllerTape::compile("fb", ni, no, 0, &m, &[3], &[2])
        })
        .unwrap();
        let lanes = vec![lane_spec(1, DoneSpec::Activations(PrimId(0), 1))];
        let r = c.run(&RunSpec {
            lanes,
            max_waves: 1000,
        });
        assert_eq!(r.completed, 1);
        assert_eq!(r.sync_counts[&PrimId(2)][0], 1);
    }

    /// A done condition naming a part of another kind is never met, as on
    /// the event engine: the lane runs to its wave budget.
    #[test]
    fn wrong_kind_done_condition_is_never_met() -> Result<(), CompileError> {
        let (req, ack) = (NodeId(0), NodeId(1));
        let parts = vec![
            Part::ActivationDriver { req, ack },
            Part::SyncResponder { req, ack },
        ];
        let c = CompiledCircuit::new(circuit(2, parts), no_tapes)?;
        // Part 1 is a sync responder, not a push consumer.
        let lanes = vec![lane_spec(u64::MAX, DoneSpec::Outputs(PrimId(1), 1))];
        let r = c.run(&RunSpec {
            lanes,
            max_waves: 40,
        });
        assert_eq!((r.completed, r.waves), (0, 40));
        assert!(r.sync_counts[&PrimId(1)][0] > 0, "the lane ran");
        Ok(())
    }

    /// Netlists that break the mapper's gate order do not compile.
    #[test]
    fn malformed_tapes_are_rejected() {
        let compile = |inputs, gates| {
            let m = netlist(inputs, 3, gates);
            let err = ControllerTape::compile("bad", 1, 1, 0, &m, &[2], &[]);
            err.map_err(|e| e.to_string())
        };
        let rejects = |inputs, gates, why: &str| {
            let err = compile(inputs, gates);
            assert!(
                err.as_ref().is_err_and(|e| e.contains(why)),
                "{why}: {err:?}"
            );
        };
        // A cycle: gate 0 reads the output of gate 1.
        rejects(
            1,
            vec![gate(CellKind::Inv, &[2], 1), gate(CellKind::Inv, &[1], 2)],
            "gate 0: pin not below the gate's output",
        );
        rejects(
            1,
            vec![gate(CellKind::And2, &[0], 1)],
            "gate 0: input count differs from the cell's pin count",
        );
        // A node driven twice.
        rejects(
            1,
            vec![
                gate(CellKind::Inv, &[0], 1),
                gate(CellKind::And2, &[0, 0], 1),
            ],
            "gate 1: output does not exceed the previous gate's",
        );
        // The input wire's slot.
        rejects(
            2,
            vec![gate(CellKind::Inv, &[0], 1)],
            "gate 0: output is an input or constant node",
        );
        // One wire and a state bit, but the first gate writes node 1.
        let m = netlist(1, 3, vec![gate(CellKind::Inv, &[0], 1)]);
        let err = ControllerTape::compile("bad", 1, 1, 0, &m, &[2], &[1]);
        assert!(
            err.as_ref()
                .is_err_and(|e| e.to_string().contains("do not fit")),
            "{err:?}"
        );
    }
}
