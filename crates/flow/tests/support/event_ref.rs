//! The event engine's per-run construction, kept as the reference the
//! event-program path is checked against: every run lowers the design
//! afresh, builds one primitive struct per part holding its own copy of
//! the part's wires, channels, delays and scripts, registers each
//! primitive's watchers one at a time through `Sim::add_prim`, and gives
//! each controller fresh copies of its covers and a transition memo of
//! its own that dies with the run. The primitive structs and their
//! `on_change` bodies are the engine's from before it stepped circuit
//! parts in place, kept here as an independent copy.

use bmbe_balsa::CompiledDesign;
use bmbe_flow::{lower, ControllerArtifact, Done, FlowResult, Scenario, SimOutcome, SimStats};
use bmbe_hsnet::{BinOp, UnOp};
use bmbe_logic::Cover;
use bmbe_sim::prims::{eval_binop, eval_unop, Delays};
use bmbe_sim::{
    Circuit, Ctx, DataCh, DoneSpec, LaneSpec, MemSite, NodeId, Part, PrimId, Primitive, Sim,
    SimBackend, Time,
};
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
            }
        }
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
}

/// One reference primitive, by kind.
enum RefPrim {
    Controller(RefController),
    Constant(ConstantPrim),
    Variable(VariablePrim),
    BinFunc(BinFuncPrim),
    UnFunc(UnFuncPrim),
    CallMux(CallMuxPrim),
    PullMux(PullMuxPrim),
    Memory(MemoryPrim),
    SelectAdapter(SelectAdapterPrim),
    FetchData(FetchDataPrim),
    ActivationDriver(ActivationDriverEnv),
    SyncResponder(SyncResponderEnv),
    PullProvider(PullProviderEnv),
    PushConsumer(PushConsumerEnv),
}

impl RefPrim {
    fn inner(&mut self) -> &mut dyn Primitive {
        match self {
            RefPrim::Controller(p) => p,
            RefPrim::Constant(p) => p,
            RefPrim::Variable(p) => p,
            RefPrim::BinFunc(p) => p,
            RefPrim::UnFunc(p) => p,
            RefPrim::CallMux(p) => p,
            RefPrim::PullMux(p) => p,
            RefPrim::Memory(p) => p,
            RefPrim::SelectAdapter(p) => p,
            RefPrim::FetchData(p) => p,
            RefPrim::ActivationDriver(p) => p,
            RefPrim::SyncResponder(p) => p,
            RefPrim::PullProvider(p) => p,
            RefPrim::PushConsumer(p) => p,
        }
    }
}

impl Primitive for RefPrim {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.inner().init(ctx);
    }

    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        self.inner().on_change(ctx, node);
    }
}

/// Whether the reference run has met `done`; a condition naming a part of
/// another kind is not met.
fn met(done: &DoneSpec, sim: &Sim<RefPrim>) -> bool {
    match *done {
        DoneSpec::Activations(p, n) => {
            matches!(sim.prim(p), RefPrim::ActivationDriver(d) if d.completions as u64 >= n)
        }
        DoneSpec::Outputs(p, n) => {
            matches!(sim.prim(p), RefPrim::PushConsumer(c) if c.received.len() >= n)
        }
        DoneSpec::Syncs(p, n) => {
            matches!(sim.prim(p), RefPrim::SyncResponder(r) if r.count as u64 >= n)
        }
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
) -> RefPrim {
    match part {
        Part::Controller {
            artifact,
            inputs,
            outputs,
        } => RefPrim::Controller(RefController::new(
            &flow.controllers[*artifact],
            inputs,
            outputs,
            delays,
        )),
        &Part::Constant { ch, value } => RefPrim::Constant(ConstantPrim {
            ch,
            value,
            delay: delays.constant,
        }),
        Part::Variable { write, reads } => RefPrim::Variable(VariablePrim {
            value: 0,
            write: *write,
            reads: reads.clone(),
            wdelay: delays.var_write,
            rdelay: delays.var_read,
        }),
        &Part::BinFunc { op, out, lhs, rhs } => RefPrim::BinFunc(BinFuncPrim {
            op,
            out,
            lhs,
            rhs,
            delay: delays.binop(op),
        }),
        &Part::UnFunc { op, out, operand } => RefPrim::UnFunc(UnFuncPrim {
            op,
            out,
            operand,
            delay: if op == UnOp::Id { 1 } else { delays.unary },
        }),
        Part::CallMux { ins, out } => {
            RefPrim::CallMux(CallMuxPrim::new(ins.clone(), *out, delays.mux))
        }
        Part::PullMux { clients, source } => {
            RefPrim::PullMux(PullMuxPrim::new(clients.clone(), *source, delays.mux))
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
            RefPrim::Memory(m)
        }
        Part::SelectAdapter {
            sel_req,
            sel_acks,
            provider,
        } => RefPrim::SelectAdapter(SelectAdapterPrim::new(
            *sel_req,
            sel_acks.clone(),
            *provider,
            delays.select,
        )),
        &Part::FetchData { pull, push } => RefPrim::FetchData(FetchDataPrim { pull, push }),
        &Part::ActivationDriver { req, ack } => RefPrim::ActivationDriver(ActivationDriverEnv {
            req,
            ack,
            cycles: lane.activation_cycles as usize,
            completions: 0,
            delay: delays.env,
        }),
        &Part::SyncResponder { req, ack } => RefPrim::SyncResponder(SyncResponderEnv {
            req,
            ack,
            delay: delays.env,
            count: 0,
        }),
        &Part::PullProvider { ch } => RefPrim::PullProvider(PullProviderEnv {
            ch,
            values: lane.script(PrimId(i)).to_vec(),
            ix: 0,
            delay: delays.env,
        }),
        &Part::PushConsumer { ch } => RefPrim::PushConsumer(PushConsumerEnv {
            ch,
            received: Vec::new(),
            delay: delays.env,
        }),
    }
}

/// Runs `scenario` on `design` the per-run way: the circuit it lowered and
/// the outcome. The stats are zero: only the fields
/// [`SimOutcome::same_result`] compares are simulated.
pub fn reference_run(
    design: &CompiledDesign,
    flow: &FlowResult,
    scenario: &Scenario,
    delays: &Delays,
) -> Result<(Circuit, SimOutcome), String> {
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
    let completed = sim.run_until(|s| met(&lane.done, s), scenario.max_time);
    let outcome = SimOutcome {
        completed,
        time_ns: sim.now() as f64 / 1000.0,
        events: sim.events_processed,
        outputs: circuit
            .consumers
            .iter()
            .map(|(name, p)| {
                let received = match sim.prim(*p) {
                    RefPrim::PushConsumer(c) => c.received.clone(),
                    _ => Vec::new(),
                };
                (name.clone(), received)
            })
            .collect(),
        sync_counts: circuit
            .syncs
            .iter()
            .map(|(name, p)| {
                let count = match sim.prim(*p) {
                    RefPrim::SyncResponder(r) => r.count,
                    _ => 0,
                };
                (name.clone(), count)
            })
            .collect(),
        memories: circuit
            .memories
            .iter()
            .map(|(name, p)| {
                let words = match sim.prim(*p) {
                    RefPrim::Memory(m) => m.words.clone(),
                    _ => Vec::new(),
                };
                (name.clone(), words)
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
    };
    Ok((circuit, outcome))
}
