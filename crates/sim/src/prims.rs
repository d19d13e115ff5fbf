//! Simulation primitives: synthesized burst-mode controllers, behavioural
//! datapath handshake components, and environment processes.
//!
//! Controllers evaluate their hazard-free two-level covers functionally and
//! apply the per-output delays back-annotated from technology mapping — the
//! analogue of the paper's `pearl`-back-annotated Verilog-XL simulation.
//! Datapath components follow four-phase bundled-data protocols with fixed
//! latencies (see [`Delays`]).

use crate::engine::{Ctx, NodeId, Primitive, SlotId, Time};
use bmbe_hsnet::{BinOp, UnOp};
use bmbe_logic::Cover;
use std::any::Any;
use std::sync::{Arc, Mutex};

/// Latency parameters (ps) of the behavioural datapath and environment.
#[derive(Debug, Clone)]
pub struct Delays {
    /// Inter-component wire delay added to controller outputs.
    pub wire: Time,
    /// Variable read access.
    pub var_read: Time,
    /// Variable write.
    pub var_write: Time,
    /// Constant source.
    pub constant: Time,
    /// Adder/subtracter.
    pub arith: Time,
    /// Comparator.
    pub compare: Time,
    /// Bitwise logic.
    pub logic: Time,
    /// Unary function.
    pub unary: Time,
    /// Memory access.
    pub memory: Time,
    /// Call-mux / pull-mux steering.
    pub mux: Time,
    /// Select demultiplexer (case/while ack steering).
    pub select: Time,
    /// Environment response.
    pub env: Time,
}

impl Default for Delays {
    fn default() -> Self {
        Delays {
            wire: 120,
            var_read: 200,
            var_write: 250,
            constant: 100,
            arith: 1500,
            compare: 1200,
            logic: 600,
            unary: 300,
            memory: 2000,
            mux: 250,
            select: 300,
            env: 100,
        }
    }
}

impl Delays {
    /// Delay of a binary operation.
    pub fn binop(&self, op: BinOp) -> Time {
        match op {
            BinOp::Add | BinOp::Sub => self.arith,
            BinOp::Eq | BinOp::Lt | BinOp::SLt => self.compare,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shr => self.logic,
        }
    }
}

/// A four-phase bundled-data channel endpoint used by primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataCh {
    /// Request wire.
    pub req: NodeId,
    /// Acknowledge wire.
    pub ack: NodeId,
    /// Data slot.
    pub slot: SlotId,
}

/// Evaluates a binary op on 64-bit values.
pub fn eval_binop(op: BinOp, a: u64, b: u64) -> u64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Eq => (a == b) as u64,
        BinOp::Lt => (a < b) as u64,
        BinOp::SLt => ((a as i64) < (b as i64)) as u64,
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shr => a >> (b & 63),
    }
}

/// Evaluates a unary op.
pub fn eval_unop(op: UnOp, a: u64) -> u64 {
    match op {
        UnOp::Id => a,
        UnOp::Not => !a,
        UnOp::Neg => a.wrapping_neg(),
        UnOp::IsNeg => ((a as i64) < 0) as u64,
        UnOp::IsZero => (a == 0) as u64,
    }
}

// ---------------------------------------------------------------------------
// Synthesized controller
// ---------------------------------------------------------------------------

/// Memoized settled transitions of one controller: `(input point, state)`
/// to `(settled state, packed output bits)`, in 256 open-addressed slots
/// of `(key + 1, settled state, output bits)` (0 = empty) with key
/// `x | state << inputs`, probed at most 8 times.
///
/// The settle loop is a pure function of that pair, so a hit is exact.
/// Burst-mode controllers revisit a handful of points many times in a
/// long run, and one probe replaces a whole evaluation. Both engines use
/// it: [`ControllerLogic`] over its covers, shared by every event run of
/// its program, and the compiled engine over its lane-uniform tape
/// evaluations, one memo per batch.
#[derive(Debug, Clone)]
pub(crate) struct TransitionMemo {
    /// Input wires: the state code sits above them in the key.
    inputs: usize,
    slots: Vec<(u64, u64, u64)>,
}

const MEMO_SLOTS: usize = 256;
const MEMO_PROBES: usize = 8;

impl TransitionMemo {
    /// An empty memo for a controller with these numbers of input wires,
    /// state bits and output wires, or `None` when a key (with its `+ 1`)
    /// or the output bits would not fit a `u64`.
    pub(crate) fn new(inputs: usize, state_bits: usize, outputs: usize) -> Option<TransitionMemo> {
        (inputs + state_bits < 64 && outputs <= 64).then(|| TransitionMemo {
            inputs,
            slots: vec![(0, 0, 0); MEMO_SLOTS],
        })
    }

    fn key(&self, x: u64, state: u64) -> u64 {
        x | state << self.inputs
    }

    fn home(key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize
    }

    /// The slots a key may occupy, in probe order.
    fn probe(key: u64) -> impl Iterator<Item = usize> {
        let home = Self::home(key);
        (home..home + MEMO_PROBES).map(|i| i & (MEMO_SLOTS - 1))
    }

    /// The settled state and output bits stored for input point `x` from
    /// state `state`.
    pub(crate) fn get(&self, x: u64, state: u64) -> Option<(u64, u64)> {
        let key = self.key(x, state);
        for i in Self::probe(key) {
            let (k, s, b) = self.slots[i];
            if k == key + 1 {
                return Some((s, b));
            }
            if k == 0 {
                return None;
            }
        }
        None
    }

    /// Stores the settled state `next` and output bits `bits` of input
    /// point `x` from state `state`.
    pub(crate) fn put(&mut self, x: u64, state: u64, next: u64, bits: u64) {
        let key = self.key(x, state);
        for i in Self::probe(key) {
            let slot = &mut self.slots[i];
            if slot.0 == 0 {
                *slot = (key + 1, next, bits);
                return;
            }
        }
        // Saturated neighborhood: this transition stays unmemoized.
    }
}

/// What every event run of one synthesized controller shares: its wires,
/// covers, initial state code, mapped output delays, and the memo of the
/// transitions any run has settled.
///
/// The memo serves every run of the logic, on any thread: a settle is a
/// pure function of `(input point, state)` and the covers, so an entry one
/// run stored is exact for every other.
#[derive(Debug)]
pub struct ControllerLogic {
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    output_covers: Vec<Cover>,
    next_state_covers: Vec<Cover>,
    initial_code: u64,
    output_delays: Vec<Time>,
    /// `None` when the controller is too wide to memoize.
    memo: Option<Mutex<TransitionMemo>>,
}

impl ControllerLogic {
    /// The logic of a controller with these input wires (in
    /// function-variable order), output wires, one cover per output and
    /// per state bit over inputs ++ state bits, initial state code, and
    /// per-output mapped delay (ps) without the inter-component wire delay.
    pub fn new(
        inputs: Vec<NodeId>,
        outputs: Vec<NodeId>,
        output_covers: Vec<Cover>,
        next_state_covers: Vec<Cover>,
        initial_code: u64,
        output_delays: Vec<Time>,
    ) -> Self {
        let memo = TransitionMemo::new(inputs.len(), next_state_covers.len(), output_covers.len());
        ControllerLogic {
            inputs,
            outputs,
            output_covers,
            next_state_covers,
            initial_code,
            output_delays,
            memo: memo.map(Mutex::new),
        }
    }

    fn next_state(&self, x: u64, y: u64) -> u64 {
        let p = x | y << self.inputs.len();
        self.next_state_covers
            .iter()
            .enumerate()
            .fold(0u64, |acc, (j, c)| acc | (c.eval(p) as u64) << j)
    }

    /// Settles the feedback and evaluates the outputs at input point `x`
    /// from state `state` (one step suffices for an STT assignment; a
    /// couple more guard against pathological inputs).
    fn settle(&self, x: u64, mut state: u64) -> (u64, u64) {
        for _ in 0..4 {
            let y = self.next_state(x, state);
            if y == state {
                break;
            }
            state = y;
        }
        let p = x | state << self.inputs.len();
        let bits = self
            .output_covers
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, c)| acc | (c.eval(p) as u64) << i);
        (state, bits)
    }
}

/// A synthesized burst-mode controller with back-annotated delays: one
/// run's state over its shared [`ControllerLogic`].
///
/// The state feedback is resolved *atomically* at each input event (the
/// Mealy semantics the burst-mode specification defines; the synthesized
/// logic is separately proven hazard-free, so the racing state bits never
/// produce different behaviour). Mapped per-output delays plus the wire
/// delay time the output edges; this mirrors back-annotated functional
/// simulation.
pub struct ControllerPrim {
    logic: Arc<ControllerLogic>,
    /// Current state code.
    pub state: u64,
    /// Inter-component wire delay added to every output (ps).
    wire: Time,
    /// Evaluations of this run the shared memo served.
    pub memo_hits: u64,
    /// Evaluations of this run that settled the covers.
    pub settles: u64,
}

impl ControllerPrim {
    /// A run of `logic` in its initial state, its outputs delayed by their
    /// mapped delays plus `wire`.
    pub fn new(logic: Arc<ControllerLogic>, wire: Time) -> Self {
        ControllerPrim {
            state: logic.initial_code,
            logic,
            wire,
            memo_hits: 0,
            settles: 0,
        }
    }

    fn input_point(&self, ctx: &Ctx<'_>) -> u64 {
        let mut p = 0u64;
        for (i, &n) in self.logic.inputs.iter().enumerate() {
            p |= (ctx.get(n) as u64) << i;
        }
        p
    }

    /// The settled state and output bits at input point `x`, from the
    /// shared memo or by settling (and storing) them.
    fn step(&mut self, x: u64) -> (u64, u64) {
        let logic = &*self.logic;
        let Some(memo) = &logic.memo else {
            self.settles += 1;
            return logic.settle(x, self.state);
        };
        // Look up, settle and store under one lock, so concurrent runs
        // store each transition once. Every update leaves the memo valid,
        // so a poisoned lock is recovered.
        let mut memo = memo.lock().unwrap_or_else(|poisoned| {
            memo.clear_poison();
            poisoned.into_inner()
        });
        if let Some(hit) = memo.get(x, self.state) {
            self.memo_hits += 1;
            return hit;
        }
        self.settles += 1;
        let (next, bits) = logic.settle(x, self.state);
        memo.put(x, self.state, next, bits);
        (next, bits)
    }
}

impl Primitive for ControllerPrim {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
        let x = self.input_point(ctx);
        let (state, bits) = self.step(x);
        self.state = state;
        let logic = &*self.logic;
        for (i, &out) in logic.outputs.iter().enumerate() {
            let v = (bits >> i) & 1 != 0;
            if v != ctx.get(out) {
                ctx.set_after(out, v, logic.output_delays[i] + self.wire);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Datapath primitives
// ---------------------------------------------------------------------------

/// Constant source: a passive pull provider.
pub struct ConstantPrim {
    /// Its channel.
    pub ch: DataCh,
    /// The constant.
    pub value: u64,
    /// Response delay.
    pub delay: Time,
}

impl Primitive for ConstantPrim {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
        let req = ctx.get(self.ch.req);
        if req {
            ctx.write_slot(self.ch.slot, self.value);
            ctx.set_after(self.ch.ack, true, self.delay);
        } else {
            ctx.set_after(self.ch.ack, false, self.delay / 2 + 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Storage variable: passive write port, passive read ports.
pub struct VariablePrim {
    /// Current value.
    pub value: u64,
    /// Write channel.
    pub write: DataCh,
    /// Read channels.
    pub reads: Vec<DataCh>,
    /// Write latch delay.
    pub wdelay: Time,
    /// Read access delay.
    pub rdelay: Time,
}

impl Primitive for VariablePrim {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        if node == self.write.req {
            if ctx.get(self.write.req) {
                self.value = ctx.read_slot(self.write.slot);
                ctx.set_after(self.write.ack, true, self.wdelay);
            } else {
                ctx.set_after(self.write.ack, false, self.wdelay / 2 + 1);
            }
            return;
        }
        for r in &self.reads {
            if node == r.req {
                if ctx.get(r.req) {
                    ctx.write_slot(r.slot, self.value);
                    ctx.set_after(r.ack, true, self.rdelay);
                } else {
                    ctx.set_after(r.ack, false, self.rdelay / 2 + 1);
                }
                return;
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Binary function: passive result provider that pulls both operands.
pub struct BinFuncPrim {
    /// The operation.
    pub op: BinOp,
    /// Result channel.
    pub out: DataCh,
    /// Left operand channel.
    pub lhs: DataCh,
    /// Right operand channel.
    pub rhs: DataCh,
    /// Compute delay.
    pub delay: Time,
}

impl Primitive for BinFuncPrim {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        let out_req = ctx.get(self.out.req);
        if node == self.out.req {
            if out_req {
                ctx.set_after(self.lhs.req, true, 1);
                ctx.set_after(self.rhs.req, true, 1);
            }
        }
        if (node == self.lhs.ack || node == self.rhs.ack)
            && ctx.get(self.lhs.ack)
            && ctx.get(self.rhs.ack)
            && out_req
        {
            let v = eval_binop(
                self.op,
                ctx.read_slot(self.lhs.slot),
                ctx.read_slot(self.rhs.slot),
            );
            ctx.write_slot(self.out.slot, v);
            ctx.set_after(self.out.ack, true, self.delay);
            ctx.set_after(self.lhs.req, false, 1);
            ctx.set_after(self.rhs.req, false, 1);
        }
        // Return-to-zero of the result once everything is quiet.
        if !out_req && !ctx.get(self.lhs.ack) && !ctx.get(self.rhs.ack) && ctx.get(self.out.ack) {
            ctx.set_after(self.out.ack, false, 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Unary function (including the identity bridge).
pub struct UnFuncPrim {
    /// The operation.
    pub op: UnOp,
    /// Result channel.
    pub out: DataCh,
    /// Operand channel.
    pub operand: DataCh,
    /// Compute delay.
    pub delay: Time,
}

impl Primitive for UnFuncPrim {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        let out_req = ctx.get(self.out.req);
        if node == self.out.req && out_req {
            ctx.set_after(self.operand.req, true, 1);
        }
        if node == self.operand.ack && ctx.get(self.operand.ack) && out_req {
            let v = eval_unop(self.op, ctx.read_slot(self.operand.slot));
            ctx.write_slot(self.out.slot, v);
            ctx.set_after(self.out.ack, true, self.delay);
            ctx.set_after(self.operand.req, false, 1);
        }
        if !out_req && !ctx.get(self.operand.ack) && ctx.get(self.out.ack) {
            ctx.set_after(self.out.ack, false, 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Call-mux: mutually exclusive pushes merged onto one output push.
pub struct CallMuxPrim {
    /// The writer channels.
    pub ins: Vec<DataCh>,
    /// The merged output.
    pub out: DataCh,
    /// Steering delay.
    pub delay: Time,
    active: Option<usize>,
}

impl CallMuxPrim {
    /// Creates the primitive.
    pub fn new(ins: Vec<DataCh>, out: DataCh, delay: Time) -> Self {
        CallMuxPrim {
            ins,
            out,
            delay,
            active: None,
        }
    }
}

impl Primitive for CallMuxPrim {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        for (i, ch) in self.ins.iter().enumerate() {
            if node == ch.req {
                if ctx.get(ch.req) {
                    self.active = Some(i);
                    let v = ctx.read_slot(ch.slot);
                    ctx.write_slot(self.out.slot, v);
                    ctx.set_after(self.out.req, true, self.delay);
                } else {
                    ctx.set_after(self.out.req, false, self.delay / 2 + 1);
                }
                return;
            }
        }
        if node == self.out.ack {
            if let Some(i) = self.active {
                let v = ctx.get(self.out.ack);
                ctx.set_after(self.ins[i].ack, v, 1);
                if !v {
                    self.active = None;
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Pull-mux: mutually exclusive pull clients sharing one pulled source.
pub struct PullMuxPrim {
    /// The client channels.
    pub clients: Vec<DataCh>,
    /// The shared source.
    pub source: DataCh,
    /// Steering delay.
    pub delay: Time,
    active: Option<usize>,
}

impl PullMuxPrim {
    /// Creates the primitive.
    pub fn new(clients: Vec<DataCh>, source: DataCh, delay: Time) -> Self {
        PullMuxPrim {
            clients,
            source,
            delay,
            active: None,
        }
    }
}

impl Primitive for PullMuxPrim {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        for (i, ch) in self.clients.iter().enumerate() {
            if node == ch.req {
                if ctx.get(ch.req) {
                    self.active = Some(i);
                    ctx.set_after(self.source.req, true, self.delay / 2 + 1);
                } else {
                    ctx.set_after(self.source.req, false, self.delay / 2 + 1);
                }
                return;
            }
        }
        if node == self.source.ack {
            if let Some(i) = self.active {
                let v = ctx.get(self.source.ack);
                if v {
                    let data = ctx.read_slot(self.source.slot);
                    ctx.write_slot(self.clients[i].slot, data);
                }
                ctx.set_after(self.clients[i].ack, v, self.delay / 2 + 1);
                if !v {
                    self.active = None;
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One read or write site of a memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSite {
    /// Data channel (pull provider for reads, push consumer for writes).
    pub data: DataCh,
    /// Address channel (the memory actively pulls it).
    pub addr: DataCh,
}

/// Word-addressed memory.
pub struct MemoryPrim {
    /// The words.
    pub words: Vec<u64>,
    /// Read sites.
    pub reads: Vec<MemSite>,
    /// Write sites.
    pub writes: Vec<MemSite>,
    /// Access delay.
    pub delay: Time,
    raddr: Vec<u64>,
}

impl MemoryPrim {
    /// Creates a memory with all words zero.
    pub fn new(words: usize, reads: Vec<MemSite>, writes: Vec<MemSite>, delay: Time) -> Self {
        let n = reads.len();
        MemoryPrim {
            words: vec![0; words],
            reads,
            writes,
            delay,
            raddr: vec![0; n],
        }
    }
}

impl Primitive for MemoryPrim {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        for i in 0..self.reads.len() {
            let site = self.reads[i];
            if node == site.data.req {
                if ctx.get(site.data.req) {
                    ctx.set_after(site.addr.req, true, 1);
                } else {
                    ctx.set_after(site.data.ack, false, 1);
                }
                return;
            }
            if node == site.addr.ack {
                if ctx.get(site.addr.ack) {
                    self.raddr[i] = ctx.read_slot(site.addr.slot);
                    ctx.set_after(site.addr.req, false, 1);
                } else if ctx.get(site.data.req) {
                    let a = (self.raddr[i] as usize) % self.words.len();
                    let v = self.words[a];
                    ctx.write_slot(site.data.slot, v);
                    ctx.set_after(site.data.ack, true, self.delay);
                }
                return;
            }
        }
        for j in 0..self.writes.len() {
            let site = self.writes[j];
            if node == site.data.req {
                if ctx.get(site.data.req) {
                    ctx.set_after(site.addr.req, true, 1);
                } else {
                    ctx.set_after(site.data.ack, false, 1);
                }
                return;
            }
            if node == site.addr.ack {
                if ctx.get(site.addr.ack) {
                    let a = (ctx.read_slot(site.addr.slot) as usize) % self.words.len();
                    let v = ctx.read_slot(site.data.slot);
                    self.words[a] = v;
                    ctx.set_after(site.addr.req, false, 1);
                } else if ctx.get(site.data.req) {
                    ctx.set_after(site.data.ack, true, self.delay);
                }
                return;
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Select demultiplexer for case/while components: pulls the selector value
/// and steers the acknowledge onto one of the controller's select-ack wires.
pub struct SelectAdapterPrim {
    /// The controller's select request (watched).
    pub sel_req: NodeId,
    /// The controller's per-branch acknowledge wires (driven).
    pub sel_acks: Vec<NodeId>,
    /// The selector value provider channel.
    pub provider: DataCh,
    /// Steering delay.
    pub delay: Time,
    chosen: Option<usize>,
}

impl SelectAdapterPrim {
    /// Creates the adapter.
    pub fn new(sel_req: NodeId, sel_acks: Vec<NodeId>, provider: DataCh, delay: Time) -> Self {
        SelectAdapterPrim {
            sel_req,
            sel_acks,
            provider,
            delay,
            chosen: None,
        }
    }
}

impl Primitive for SelectAdapterPrim {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        if node == self.sel_req {
            if ctx.get(self.sel_req) {
                ctx.set_after(self.provider.req, true, 1);
            } else if let Some(c) = self.chosen.take() {
                ctx.set_after(self.sel_acks[c], false, self.delay / 2 + 1);
            }
        }
        if node == self.provider.ack && ctx.get(self.provider.ack) && ctx.get(self.sel_req) {
            let v = ctx.read_slot(self.provider.slot) as usize;
            let c = v.min(self.sel_acks.len() - 1);
            self.chosen = Some(c);
            ctx.set_after(self.sel_acks[c], true, self.delay);
            ctx.set_after(self.provider.req, false, 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Bundled-data forwarding inside a fetch component: copies the pulled
/// value to the push channel's slot as soon as the pull acknowledges.
pub struct FetchDataPrim {
    /// The pull channel (its ack is watched).
    pub pull: DataCh,
    /// The push channel (its slot is written).
    pub push: DataCh,
}

impl Primitive for FetchDataPrim {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        if node == self.pull.ack && ctx.get(self.pull.ack) {
            let v = ctx.read_slot(self.pull.slot);
            ctx.write_slot(self.push.slot, v);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Environment processes
// ---------------------------------------------------------------------------

/// Drives the design's top activation with repeated four-phase handshakes
/// and records completion.
pub struct ActivationDriverEnv {
    /// The request we drive.
    pub req: NodeId,
    /// The acknowledge we watch.
    pub ack: NodeId,
    /// Number of activation cycles to perform.
    pub cycles: usize,
    /// Completed cycles.
    pub completions: usize,
    /// Time of the final completion (ps).
    pub done_time: Option<Time>,
    /// Environment reaction delay.
    pub delay: Time,
}

impl Primitive for ActivationDriverEnv {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if self.cycles > 0 {
            ctx.set_after(self.req, true, self.delay);
        }
    }

    fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
        if ctx.get(self.ack) {
            ctx.set_after(self.req, false, self.delay);
        } else {
            self.completions += 1;
            if self.completions < self.cycles {
                ctx.set_after(self.req, true, self.delay);
            } else {
                self.done_time = Some(ctx.now());
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Passive responder on a sync port: acknowledges every request.
pub struct SyncResponderEnv {
    /// The request we watch.
    pub req: NodeId,
    /// The acknowledge we drive.
    pub ack: NodeId,
    /// Response delay.
    pub delay: Time,
    /// Completed handshakes.
    pub count: usize,
}

impl Primitive for SyncResponderEnv {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
        let v = ctx.get(self.req);
        if !v {
            self.count += 1;
        }
        ctx.set_after(self.ack, v, self.delay);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Passive pull provider on an input port: supplies scripted values.
pub struct PullProviderEnv {
    /// The channel (we own the passive side).
    pub ch: DataCh,
    /// Values to supply, cycled when exhausted.
    pub values: Vec<u64>,
    /// Next index.
    pub ix: usize,
    /// Response delay.
    pub delay: Time,
}

impl Primitive for PullProviderEnv {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
        if ctx.get(self.ch.req) {
            let v = if self.values.is_empty() {
                0
            } else {
                self.values[self.ix % self.values.len()]
            };
            self.ix += 1;
            ctx.write_slot(self.ch.slot, v);
            ctx.set_after(self.ch.ack, true, self.delay);
        } else {
            ctx.set_after(self.ch.ack, false, self.delay / 2 + 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Passive push consumer on an output port: records received values.
pub struct PushConsumerEnv {
    /// The channel (we own the passive side).
    pub ch: DataCh,
    /// Everything received.
    pub received: Vec<u64>,
    /// Response delay.
    pub delay: Time,
}

impl Primitive for PushConsumerEnv {
    fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
        if ctx.get(self.ch.req) {
            self.received.push(ctx.read_slot(self.ch.slot));
            ctx.set_after(self.ch.ack, true, self.delay);
        } else {
            ctx.set_after(self.ch.ack, false, self.delay / 2 + 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;

    fn ch(sim: &mut Sim) -> DataCh {
        DataCh {
            req: sim.wire(),
            ack: sim.wire(),
            slot: sim.slot(),
        }
    }

    #[test]
    fn constant_answers_pulls() {
        let mut sim = Sim::new();
        let c = ch(&mut sim);
        sim.add_prim(
            Box::new(ConstantPrim {
                ch: c,
                value: 42,
                delay: 100,
            }),
            &[c.req],
        );
        sim.init();
        // Drive a pull by scheduling req+ manually through a driver prim.
        struct Once {
            req: NodeId,
            ack: NodeId,
            got: Option<u64>,
            slot: SlotId,
        }
        impl Primitive for Once {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_after(self.req, true, 10);
            }
            fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
                if ctx.get(self.ack) {
                    self.got = Some(ctx.read_slot(self.slot));
                    ctx.set_after(self.req, false, 10);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let driver = sim.add_prim(
            Box::new(Once {
                req: c.req,
                ack: c.ack,
                got: None,
                slot: c.slot,
            }),
            &[c.ack],
        );
        sim.init();
        sim.run_until(|_| false, 10_000);
        let d: &Once = sim.prim(driver).unwrap();
        assert_eq!(d.got, Some(42));
    }

    #[test]
    fn variable_stores_and_reads() {
        let mut sim = Sim::new();
        let w = ch(&mut sim);
        let r = ch(&mut sim);
        sim.add_prim(
            Box::new(VariablePrim {
                value: 0,
                write: w,
                reads: vec![r],
                wdelay: 50,
                rdelay: 50,
            }),
            &[w.req, r.req],
        );
        struct Script {
            w: DataCh,
            r: DataCh,
            phase: usize,
            got: Option<u64>,
        }
        impl Primitive for Script {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.write_slot(self.w.slot, 7);
                ctx.set_after(self.w.req, true, 10);
            }
            fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
                match self.phase {
                    0 if node == self.w.ack && ctx.get(self.w.ack) => {
                        self.phase = 1;
                        ctx.set_after(self.w.req, false, 10);
                    }
                    1 if node == self.w.ack && !ctx.get(self.w.ack) => {
                        self.phase = 2;
                        ctx.set_after(self.r.req, true, 10);
                    }
                    2 if node == self.r.ack && ctx.get(self.r.ack) => {
                        self.got = Some(ctx.read_slot(self.r.slot));
                        ctx.set_after(self.r.req, false, 10);
                    }
                    _ => {}
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let script = sim.add_prim(
            Box::new(Script {
                w,
                r,
                phase: 0,
                got: None,
            }),
            &[w.ack, r.ack],
        );
        sim.init();
        sim.run_until(|_| false, 100_000);
        let s: &Script = sim.prim(script).unwrap();
        assert_eq!(s.got, Some(7));
    }

    #[test]
    fn binfunc_computes_sum_of_constants() {
        let mut sim = Sim::new();
        let out = ch(&mut sim);
        let l = ch(&mut sim);
        let r = ch(&mut sim);
        sim.add_prim(
            Box::new(ConstantPrim {
                ch: l,
                value: 30,
                delay: 50,
            }),
            &[l.req],
        );
        sim.add_prim(
            Box::new(ConstantPrim {
                ch: r,
                value: 12,
                delay: 70,
            }),
            &[r.req],
        );
        sim.add_prim(
            Box::new(BinFuncPrim {
                op: BinOp::Add,
                out,
                lhs: l,
                rhs: r,
                delay: 200,
            }),
            &[out.req, l.ack, r.ack],
        );
        struct Puller {
            ch: DataCh,
            got: Option<u64>,
        }
        impl Primitive for Puller {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_after(self.ch.req, true, 10);
            }
            fn on_change(&mut self, ctx: &mut Ctx<'_>, _n: NodeId) {
                if ctx.get(self.ch.ack) {
                    self.got = Some(ctx.read_slot(self.ch.slot));
                    ctx.set_after(self.ch.req, false, 10);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let p = sim.add_prim(Box::new(Puller { ch: out, got: None }), &[out.ack]);
        sim.init();
        sim.run_until(|_| false, 100_000);
        let puller: &Puller = sim.prim(p).unwrap();
        assert_eq!(puller.got, Some(42));
    }

    /// Keys carry the state code above the input bits, the width rule
    /// refuses keys or output words that would not fit a `u64`, and a key
    /// whose 8-slot probe run is full stays unmemoized.
    #[test]
    fn transition_memo_keys_width_and_probe_limit() -> Result<(), &'static str> {
        assert!(TransitionMemo::new(40, 24, 1).is_none());
        assert!(TransitionMemo::new(2, 1, 65).is_none());
        assert!(TransitionMemo::new(40, 23, 64).is_some());
        let mut memo = TransitionMemo::new(20, 2, 3).ok_or("a 22-bit key fits")?;
        memo.put(5, 1, 2, 0b101);
        assert_eq!(memo.get(5, 1), Some((2, 0b101)));
        assert_eq!(memo.get(5, 0), None);
        assert_eq!(memo.get(5 | 1 << 19, 1), None);
        let home = TransitionMemo::home(0);
        let same_home: Vec<u64> = (0..1u64 << 20)
            .filter(|&x| TransitionMemo::home(x) == home)
            .take(MEMO_PROBES + 1)
            .collect();
        for &x in &same_home {
            memo.put(x, 0, x, 1);
        }
        for &x in &same_home[..MEMO_PROBES] {
            assert_eq!(memo.get(x, 0), Some((x, 1)));
        }
        assert_eq!(memo.get(same_home[MEMO_PROBES], 0), None);
        Ok(())
    }

    #[test]
    fn eval_helpers() {
        assert_eq!(eval_binop(BinOp::Sub, 5, 7), (-2i64) as u64);
        assert_eq!(eval_binop(BinOp::SLt, (-1i64) as u64, 1), 1);
        assert_eq!(eval_binop(BinOp::Lt, (-1i64) as u64, 1), 0);
        assert_eq!(eval_unop(UnOp::IsZero, 0), 1);
        assert_eq!(eval_unop(UnOp::IsNeg, (-5i64) as u64), 1);
        assert_eq!(eval_unop(UnOp::Id, 9), 9);
    }
}
