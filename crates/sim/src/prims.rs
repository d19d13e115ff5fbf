//! Simulation primitives: the delays, channels and operators of the
//! behavioural parts, the shared logic of a synthesized controller, and
//! [`PartRun`], the event engine's one primitive: a circuit part stepped
//! in place.
//!
//! Controllers evaluate their hazard-free two-level covers functionally and
//! apply the per-output delays back-annotated from technology mapping — the
//! analogue of the paper's `pearl`-back-annotated Verilog-XL simulation.
//! Datapath components follow four-phase bundled-data protocols with fixed
//! latencies (see [`Delays`]).

use crate::circuit::Part;
use crate::engine::{Ctx, NodeId, Primitive, SlotId, Time};
use bmbe_hsnet::{BinOp, UnOp};
use bmbe_logic::Cover;
use std::sync::{Mutex, MutexGuard};

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

/// One read or write site of a memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSite {
    /// Data channel (pull provider for reads, push consumer for writes).
    pub data: DataCh,
    /// Address channel (the memory actively pulls it).
    pub addr: DataCh,
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
/// it through a [`SharedMemo`]: [`ControllerLogic`] over its covers,
/// shared by every event run of its program, and a compiled circuit over
/// its lane-uniform tape evaluations, shared by every batch it runs.
#[derive(Debug)]
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
    /// point `x` from state `state`, unless the memo holds that pair
    /// already.
    pub(crate) fn put(&mut self, x: u64, state: u64, next: u64, bits: u64) {
        let key = self.key(x, state);
        for i in Self::probe(key) {
            let slot = &mut self.slots[i];
            if slot.0 == key + 1 {
                return;
            }
            if slot.0 == 0 {
                *slot = (key + 1, next, bits);
                return;
            }
        }
        // Saturated neighborhood: this transition stays unmemoized.
    }
}

/// A controller's [`TransitionMemo`] behind a lock, so every run that
/// evaluates the controller, on any thread, reads and extends one memo.
#[derive(Debug)]
pub(crate) struct SharedMemo(Mutex<TransitionMemo>);

impl SharedMemo {
    /// An empty shared memo, or `None` when the controller is too wide to
    /// memoize (see [`TransitionMemo::new`]).
    pub(crate) fn new(inputs: usize, state_bits: usize, outputs: usize) -> Option<SharedMemo> {
        TransitionMemo::new(inputs, state_bits, outputs).map(|memo| SharedMemo(Mutex::new(memo)))
    }

    /// Locks the memo, recovering from a poisoned lock: every update
    /// leaves the memo valid.
    pub(crate) fn lock(&self) -> MutexGuard<'_, TransitionMemo> {
        self.0.lock().unwrap_or_else(|poisoned| {
            self.0.clear_poison();
            poisoned.into_inner()
        })
    }
}

/// What every event run of one synthesized controller shares: its
/// covers, initial state code, mapped output delays, and the memo of the
/// transitions any run has settled. Its wires are its part's.
///
/// The memo serves every run of the logic, on any thread: a settle is a
/// pure function of `(input point, state)` and the covers, so an entry one
/// run stored is exact for every other.
#[derive(Debug)]
pub struct ControllerLogic {
    /// Input wires: the state bits sit above them in a cover's point.
    inputs: usize,
    output_covers: Vec<Cover>,
    next_state_covers: Vec<Cover>,
    pub(crate) initial_code: u64,
    output_delays: Vec<Time>,
    /// `None` when the controller is too wide to memoize.
    memo: Option<SharedMemo>,
}

impl ControllerLogic {
    /// The logic of a controller with `inputs` input wires: one cover per
    /// output and per state bit over inputs ++ state bits, the initial
    /// state code, and each output's mapped delay (ps) without the
    /// inter-component wire delay.
    pub fn new(
        inputs: usize,
        output_covers: Vec<Cover>,
        next_state_covers: Vec<Cover>,
        initial_code: u64,
        output_delays: Vec<Time>,
    ) -> Self {
        let memo = SharedMemo::new(inputs, next_state_covers.len(), output_covers.len());
        ControllerLogic {
            inputs,
            output_covers,
            next_state_covers,
            initial_code,
            output_delays,
            memo,
        }
    }

    fn next_state(&self, x: u64, y: u64) -> u64 {
        let p = x | y << self.inputs;
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
        let p = x | state << self.inputs;
        let bits = self
            .output_covers
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, c)| acc | (c.eval(p) as u64) << i);
        (state, bits)
    }

    /// The settled state and output bits at input point `x` from state
    /// `state`, from the shared memo or by settling (and storing) them,
    /// and whether the memo served them.
    fn step(&self, x: u64, state: u64) -> (u64, u64, bool) {
        let Some(memo) = &self.memo else {
            let (next, bits) = self.settle(x, state);
            return (next, bits, false);
        };
        // Look up, settle and store under one lock, so concurrent runs
        // settle each transition once.
        let mut memo = memo.lock();
        if let Some((next, bits)) = memo.get(x, state) {
            return (next, bits, true);
        }
        let (next, bits) = self.settle(x, state);
        memo.put(x, state, next, bits);
        (next, bits, false)
    }
}

/// One part of a circuit in one event run: the shared [`Part`], the run's
/// [`Delays`], and what the run keeps of the part. Built by
/// [`crate::Circuit::event_sim`]; the engine steps it in place.
///
/// A controller resolves its state feedback *atomically* at each input
/// event (the Mealy semantics the burst-mode specification defines; the
/// synthesized logic is separately proven hazard-free, so the racing state
/// bits never produce different behaviour), and its mapped per-output
/// delays plus the wire delay time the output edges, as in back-annotated
/// functional simulation.
pub struct PartRun<'a> {
    pub(crate) part: &'a Part,
    pub(crate) delays: &'a Delays,
    pub(crate) state: State<'a>,
}

/// What one event run keeps of a part.
pub(crate) enum State<'a> {
    /// Nothing: constants, functions and fetches.
    None,
    /// A controller's shared logic, its state code, and the evaluations
    /// of this run the shared memo served and the ones that settled.
    Controller {
        logic: &'a ControllerLogic,
        code: u64,
        memo_hits: u64,
        settles: u64,
    },
    /// A variable's value.
    Variable(u64),
    /// The input a call-mux or pull-mux serves, or the branch a select
    /// adapter chose.
    Active(Option<usize>),
    /// A memory's words and the address each read site pulled.
    Memory { words: Vec<u64>, raddr: Vec<u64> },
    /// The activation driver's cycles to perform and cycles completed.
    Driver { cycles: u64, completions: u64 },
    /// A sync responder's completed handshakes.
    Sync(u64),
    /// A pull provider's script (cycled when exhausted) and next index.
    Provider { values: &'a [u64], ix: usize },
    /// Everything a push consumer received.
    Consumer(Vec<u64>),
}

impl PartRun<'_> {
    /// An activation driver's completed handshakes.
    pub(crate) fn activations(&self) -> Option<u64> {
        match self.state {
            State::Driver { completions, .. } => Some(completions),
            _ => None,
        }
    }

    /// A sync responder's completed handshakes.
    pub fn syncs(&self) -> Option<u64> {
        match self.state {
            State::Sync(count) => Some(count),
            _ => None,
        }
    }

    /// The values a push consumer received.
    pub fn received(&self) -> Option<&[u64]> {
        match &self.state {
            State::Consumer(received) => Some(received),
            _ => None,
        }
    }

    /// A memory's words.
    pub fn words(&self) -> Option<&[u64]> {
        match &self.state {
            State::Memory { words, .. } => Some(words),
            _ => None,
        }
    }

    /// A controller's evaluations the shared memo served, and the ones
    /// that settled its covers.
    pub fn memo_counts(&self) -> Option<(u64, u64)> {
        match self.state {
            State::Controller {
                memo_hits, settles, ..
            } => Some((memo_hits, settles)),
            _ => None,
        }
    }
}

impl Primitive for PartRun<'_> {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        // Only the activation driver acts unprompted.
        if let (&Part::ActivationDriver { req, .. }, State::Driver { cycles, .. }) =
            (self.part, &self.state)
        {
            if *cycles > 0 {
                ctx.set_after(req, true, self.delays.env);
            }
        }
    }

    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        let d = self.delays;
        match (self.part, &mut self.state) {
            (
                Part::Controller {
                    inputs, outputs, ..
                },
                State::Controller {
                    logic,
                    code,
                    memo_hits,
                    settles,
                },
            ) => {
                let mut x = 0u64;
                for (i, &n) in inputs.iter().enumerate() {
                    x |= (ctx.get(n) as u64) << i;
                }
                let (next, bits, hit) = logic.step(x, *code);
                if hit {
                    *memo_hits += 1;
                } else {
                    *settles += 1;
                }
                *code = next;
                for (i, &out) in outputs.iter().enumerate() {
                    let v = (bits >> i) & 1 != 0;
                    if v != ctx.get(out) {
                        ctx.set_after(out, v, logic.output_delays[i] + d.wire);
                    }
                }
            }
            (&Part::Constant { ch, value }, _) => {
                let req = ctx.get(ch.req);
                if req {
                    ctx.write_slot(ch.slot, value);
                    ctx.set_after(ch.ack, true, d.constant);
                } else {
                    ctx.set_after(ch.ack, false, d.constant / 2 + 1);
                }
            }
            (Part::Variable { write, reads }, State::Variable(value)) => {
                if node == write.req {
                    if ctx.get(write.req) {
                        *value = ctx.read_slot(write.slot);
                        ctx.set_after(write.ack, true, d.var_write);
                    } else {
                        ctx.set_after(write.ack, false, d.var_write / 2 + 1);
                    }
                    return;
                }
                for r in reads {
                    if node == r.req {
                        if ctx.get(r.req) {
                            ctx.write_slot(r.slot, *value);
                            ctx.set_after(r.ack, true, d.var_read);
                        } else {
                            ctx.set_after(r.ack, false, d.var_read / 2 + 1);
                        }
                        return;
                    }
                }
            }
            (&Part::BinFunc { op, out, lhs, rhs }, _) => {
                let out_req = ctx.get(out.req);
                if node == out.req {
                    if out_req {
                        ctx.set_after(lhs.req, true, 1);
                        ctx.set_after(rhs.req, true, 1);
                    }
                }
                if (node == lhs.ack || node == rhs.ack)
                    && ctx.get(lhs.ack)
                    && ctx.get(rhs.ack)
                    && out_req
                {
                    let v = eval_binop(op, ctx.read_slot(lhs.slot), ctx.read_slot(rhs.slot));
                    ctx.write_slot(out.slot, v);
                    ctx.set_after(out.ack, true, d.binop(op));
                    ctx.set_after(lhs.req, false, 1);
                    ctx.set_after(rhs.req, false, 1);
                }
                // Return-to-zero of the result once everything is quiet.
                if !out_req && !ctx.get(lhs.ack) && !ctx.get(rhs.ack) && ctx.get(out.ack) {
                    ctx.set_after(out.ack, false, 1);
                }
            }
            // The identity bridge answers in 1 ps.
            (&Part::UnFunc { op, out, operand }, _) => {
                let out_req = ctx.get(out.req);
                if node == out.req && out_req {
                    ctx.set_after(operand.req, true, 1);
                }
                if node == operand.ack && ctx.get(operand.ack) && out_req {
                    let v = eval_unop(op, ctx.read_slot(operand.slot));
                    ctx.write_slot(out.slot, v);
                    let delay = if op == UnOp::Id { 1 } else { d.unary };
                    ctx.set_after(out.ack, true, delay);
                    ctx.set_after(operand.req, false, 1);
                }
                if !out_req && !ctx.get(operand.ack) && ctx.get(out.ack) {
                    ctx.set_after(out.ack, false, 1);
                }
            }
            (Part::CallMux { ins, out }, State::Active(active)) => {
                for (i, ch) in ins.iter().enumerate() {
                    if node == ch.req {
                        if ctx.get(ch.req) {
                            *active = Some(i);
                            let v = ctx.read_slot(ch.slot);
                            ctx.write_slot(out.slot, v);
                            ctx.set_after(out.req, true, d.mux);
                        } else {
                            ctx.set_after(out.req, false, d.mux / 2 + 1);
                        }
                        return;
                    }
                }
                if node == out.ack {
                    if let Some(i) = *active {
                        let v = ctx.get(out.ack);
                        ctx.set_after(ins[i].ack, v, 1);
                        if !v {
                            *active = None;
                        }
                    }
                }
            }
            (Part::PullMux { clients, source }, State::Active(active)) => {
                for (i, ch) in clients.iter().enumerate() {
                    if node == ch.req {
                        if ctx.get(ch.req) {
                            *active = Some(i);
                            ctx.set_after(source.req, true, d.mux / 2 + 1);
                        } else {
                            ctx.set_after(source.req, false, d.mux / 2 + 1);
                        }
                        return;
                    }
                }
                if node == source.ack {
                    if let Some(i) = *active {
                        let v = ctx.get(source.ack);
                        if v {
                            let data = ctx.read_slot(source.slot);
                            ctx.write_slot(clients[i].slot, data);
                        }
                        ctx.set_after(clients[i].ack, v, d.mux / 2 + 1);
                        if !v {
                            *active = None;
                        }
                    }
                }
            }
            (Part::Memory { reads, writes, .. }, State::Memory { words, raddr }) => {
                for (i, site) in reads.iter().enumerate() {
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
                            raddr[i] = ctx.read_slot(site.addr.slot);
                            ctx.set_after(site.addr.req, false, 1);
                        } else if ctx.get(site.data.req) {
                            let a = (raddr[i] as usize) % words.len();
                            let v = words[a];
                            ctx.write_slot(site.data.slot, v);
                            ctx.set_after(site.data.ack, true, d.memory);
                        }
                        return;
                    }
                }
                for site in writes {
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
                            let a = (ctx.read_slot(site.addr.slot) as usize) % words.len();
                            let v = ctx.read_slot(site.data.slot);
                            words[a] = v;
                            ctx.set_after(site.addr.req, false, 1);
                        } else if ctx.get(site.data.req) {
                            ctx.set_after(site.data.ack, true, d.memory);
                        }
                        return;
                    }
                }
            }
            (
                Part::SelectAdapter {
                    sel_req,
                    sel_acks,
                    provider,
                },
                State::Active(chosen),
            ) => {
                if node == *sel_req {
                    if ctx.get(*sel_req) {
                        ctx.set_after(provider.req, true, 1);
                    } else if let Some(c) = chosen.take() {
                        ctx.set_after(sel_acks[c], false, d.select / 2 + 1);
                    }
                }
                if node == provider.ack && ctx.get(provider.ack) && ctx.get(*sel_req) {
                    let v = ctx.read_slot(provider.slot) as usize;
                    let c = v.min(sel_acks.len() - 1);
                    *chosen = Some(c);
                    ctx.set_after(sel_acks[c], true, d.select);
                    ctx.set_after(provider.req, false, 1);
                }
            }
            (&Part::FetchData { pull, push }, _) if node == pull.ack && ctx.get(pull.ack) => {
                let v = ctx.read_slot(pull.slot);
                ctx.write_slot(push.slot, v);
            }
            (
                &Part::ActivationDriver { req, ack },
                State::Driver {
                    cycles,
                    completions,
                },
            ) => {
                if ctx.get(ack) {
                    ctx.set_after(req, false, d.env);
                } else {
                    *completions += 1;
                    if *completions < *cycles {
                        ctx.set_after(req, true, d.env);
                    }
                }
            }
            (&Part::SyncResponder { req, ack }, State::Sync(count)) => {
                let v = ctx.get(req);
                if !v {
                    *count += 1;
                }
                ctx.set_after(ack, v, d.env);
            }
            (&Part::PullProvider { ch }, State::Provider { values, ix }) => {
                if ctx.get(ch.req) {
                    let v = if values.is_empty() {
                        0
                    } else {
                        values[*ix % values.len()]
                    };
                    *ix += 1;
                    ctx.write_slot(ch.slot, v);
                    ctx.set_after(ch.ack, true, d.env);
                } else {
                    ctx.set_after(ch.ack, false, d.env / 2 + 1);
                }
            }
            (&Part::PushConsumer { ch }, State::Consumer(received)) => {
                if ctx.get(ch.req) {
                    received.push(ctx.read_slot(ch.slot));
                    ctx.set_after(ch.ack, true, d.env);
                } else {
                    ctx.set_after(ch.ack, false, d.env / 2 + 1);
                }
            }
            // A fetch whose pull did not just acknowledge does nothing;
            // `Circuit::event_sim` starts every other part in its own
            // kind of state, so no other pair occurs.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, DoneSpec, EventProgram, LaneSpec};
    use crate::engine::PrimId;

    fn ch(req: usize, ack: usize, slot: usize) -> DataCh {
        DataCh {
            req: NodeId(req),
            ack: NodeId(ack),
            slot: SlotId(slot),
        }
    }

    /// Runs `parts` and an activation driver on `act`'s wires through
    /// [`Circuit::event_sim`] until the driver completes one handshake;
    /// the data slots it ends with.
    fn run(
        wires: usize,
        slots: usize,
        mut parts: Vec<Part>,
        act: DataCh,
    ) -> Result<Vec<u64>, &'static str> {
        let driver = PrimId(parts.len());
        parts.push(Part::ActivationDriver {
            req: act.req,
            ack: act.ack,
        });
        let circuit = Circuit {
            wire_names: (0..wires).map(|w| format!("w{w}")).collect(),
            num_slots: slots,
            parts,
            driver,
            providers: Vec::new(),
            consumers: Vec::new(),
            syncs: Vec::new(),
            memories: Vec::new(),
        };
        let no_logic = |_| ControllerLogic::new(0, Vec::new(), Vec::new(), 0, Vec::new());
        let program = EventProgram::new(&circuit, no_logic);
        let lane = LaneSpec {
            activation_cycles: 1,
            provider_values: Vec::new(),
            memory_init: Vec::new(),
            done: DoneSpec::Activations(driver, 1),
        };
        let delays = Delays::default();
        let mut sim = circuit.event_sim(&program, &lane, &delays);
        sim.init();
        if !sim.run_until(|s| lane.done.met(s), 1_000_000) {
            return Err("the activation did not complete");
        }
        Ok((0..slots).map(|s| sim.slot_value(SlotId(s))).collect())
    }

    /// The driver pulls a constant, which answers with its value.
    #[test]
    fn constant_answers_pulls() -> Result<(), &'static str> {
        let c = ch(0, 1, 0);
        assert_eq!(
            run(2, 1, vec![Part::Constant { ch: c, value: 42 }], c)?,
            [42]
        );
        Ok(())
    }

    /// The driver writes 7 into a variable: a constant watching the write
    /// request, registered first, sets the data. The write's acknowledge
    /// requests an identity function, which pulls the variable's read
    /// port.
    #[test]
    fn variable_stores_and_reads() -> Result<(), &'static str> {
        // Wires: write 0/1, the constant's ack 2, read 3/4, identity ack 5.
        let (write, read) = (ch(0, 1, 0), ch(3, 4, 1));
        let parts = vec![
            Part::Constant {
                ch: ch(0, 2, 0),
                value: 7,
            },
            Part::Variable {
                write,
                reads: vec![read],
            },
            Part::UnFunc {
                op: UnOp::Id,
                out: ch(1, 5, 2),
                operand: read,
            },
        ];
        assert_eq!(run(6, 3, parts, write)?, [7, 7, 7]);
        Ok(())
    }

    /// The driver pulls the sum of two constants.
    #[test]
    fn binfunc_computes_sum_of_constants() -> Result<(), &'static str> {
        let (out, lhs, rhs) = (ch(0, 1, 0), ch(2, 3, 1), ch(4, 5, 2));
        let parts = vec![
            Part::Constant { ch: lhs, value: 30 },
            Part::Constant { ch: rhs, value: 12 },
            Part::BinFunc {
                op: BinOp::Add,
                out,
                lhs,
                rhs,
            },
        ];
        assert_eq!(run(6, 3, parts, out)?, [42, 30, 12]);
        Ok(())
    }

    /// Keys carry the state code above the input bits, the width rule
    /// refuses keys or output words that would not fit a `u64`, a pair
    /// stored again keeps its one slot, and a key whose 8-slot probe run
    /// is full stays unmemoized.
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
            // A pair already stored keeps its entry and takes no slot.
            memo.put(same_home[0], 0, 7, 7);
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
