//! The discrete-event simulation engine.
//!
//! Wires carry Boolean values; data moves in per-channel value slots
//! (bundled-data abstraction). Primitives — synthesized controllers,
//! behavioural datapath components, and environment processes — react to
//! wire changes and schedule further changes after their delays. Time is in
//! picoseconds.
//!
//! # Scheduling
//!
//! Events wait in one binary heap ordered by `(time, seq)`; `seq` is
//! globally monotonic, so same-timestamp events fire in the order they
//! were scheduled. Action slots are free-listed: a slot is recycled as
//! soon as its event fires, so the action table stays as small as the
//! peak number of in-flight events instead of growing with the lifetime
//! event count. Watcher delivery is indexed — no per-event clone of the
//! watcher list. Handshake circuits run at queue depths of a few events,
//! where a heap operation costs a handful of comparisons.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in picoseconds.
pub type Time = u64;

/// Identifier of a wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a data slot (one per data channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub usize);

/// Identifier of a primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrimId(pub usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    SetNode(NodeId, bool),
    Notify(PrimId, u64),
}

/// The event engine's scheduler choice. The engine has one scheduler, so
/// the type has one value; it stays only because the benchmark harness
/// (`perfbench/src/simstep.rs`), which builds against this API as it is,
/// passes `SchedulerKind::Auto` to `simulate_with`, which ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The one scheduler.
    #[default]
    Auto,
}

/// A scheduled event: `(time, seq, action slot)`. Ordered by `(time, seq)`;
/// `seq` is globally monotonic, so ties in time resolve FIFO.
type Event = (Time, u64, u32);

/// A behavioural element of the simulation.
pub trait Primitive: Any {
    /// Called once before simulation starts.
    fn init(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a watched wire changes value.
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId);

    /// Called when a self-scheduled notification fires.
    fn on_notify(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}

    /// Downcast support for post-simulation inspection.
    fn as_any(&self) -> &dyn Any;
}

/// The pending events and the action slots they index.
#[derive(Default)]
struct Queue {
    heap: BinaryHeap<Reverse<Event>>,
    peak: usize,
    actions: Vec<Action>,
    free: Vec<u32>,
    seq: u64,
}

impl Queue {
    /// Schedules `action` at `time`, claiming an action slot from the free
    /// list or extending the table.
    fn push(&mut self, time: Time, action: Action) {
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(i) => {
                self.actions[i as usize] = action;
                i
            }
            None => {
                self.actions.push(action);
                (self.actions.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((time, self.seq, slot)));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Pops the pending event with the least `(time, seq)`, releasing its
    /// action slot.
    fn pop(&mut self) -> Option<(Time, Action)> {
        let Reverse((time, _, slot)) = self.heap.pop()?;
        self.free.push(slot);
        Some((time, self.actions[slot as usize]))
    }
}

/// The API primitives use to interact with the simulation.
pub struct Ctx<'a> {
    nodes: &'a [bool],
    slots: &'a mut [u64],
    queue: &'a mut Queue,
    now: Time,
    self_id: PrimId,
}

impl Ctx<'_> {
    /// The current simulation time (ps).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Reads a wire.
    pub fn get(&self, node: NodeId) -> bool {
        self.nodes[node.0]
    }

    /// Reads a data slot.
    pub fn read_slot(&self, slot: SlotId) -> u64 {
        self.slots[slot.0]
    }

    /// Writes a data slot (takes effect immediately — bundled data is
    /// assumed set up before its request/acknowledge edge).
    pub fn write_slot(&mut self, slot: SlotId, value: u64) {
        self.slots[slot.0] = value;
    }

    /// Schedules a wire change `delay` picoseconds from now.
    pub fn set_after(&mut self, node: NodeId, value: bool, delay: Time) {
        self.queue
            .push(self.now + delay, Action::SetNode(node, value));
    }

    /// Schedules a notification to this primitive.
    pub fn notify_after(&mut self, tag: u64, delay: Time) {
        self.queue
            .push(self.now + delay, Action::Notify(self.self_id, tag));
    }
}

/// The simulator.
#[derive(Default)]
pub struct Sim {
    nodes: Vec<bool>,
    slots: Vec<u64>,
    prims: Vec<Option<Box<dyn Primitive>>>,
    watchers: Vec<Vec<PrimId>>,
    queue: Queue,
    now: Time,
    /// Count of processed events (for run-away detection).
    pub events_processed: u64,
    /// Wire names for the wire-change log; `None` keeps the log off.
    trace: Option<Vec<String>>,
}

impl Sim {
    /// Creates an empty simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a simulator with `wires` wires (all 0) and `slots` data
    /// slots; ids are dense, `NodeId(0..wires)` and `SlotId(0..slots)`.
    pub fn with_size(wires: usize, slots: usize) -> Self {
        Sim {
            nodes: vec![false; wires],
            slots: vec![0; slots],
            watchers: vec![Vec::new(); wires],
            ..Self::default()
        }
    }

    /// Adds a wire, initially 0.
    pub fn wire(&mut self) -> NodeId {
        self.nodes.push(false);
        self.watchers.push(Vec::new());
        NodeId(self.nodes.len() - 1)
    }

    /// Logs every applied wire change under these wire names (debugging
    /// aid). Lines go to stderr via `bmbe_obs::vlog!` at verbosity ≥ 1;
    /// callers should also call `bmbe_obs::ensure_verbosity(1)` (the flow
    /// does when `BMBE_SIM_TRACE` is set).
    pub fn trace_wires(&mut self, names: Vec<String>) {
        self.trace = Some(names);
    }

    /// Current value of a wire.
    pub fn value(&self, node: NodeId) -> bool {
        self.nodes[node.0]
    }

    /// Allocates a data slot.
    pub fn slot(&mut self) -> SlotId {
        self.slots.push(0);
        SlotId(self.slots.len() - 1)
    }

    /// Reads a data slot.
    pub fn slot_value(&self, slot: SlotId) -> u64 {
        self.slots[slot.0]
    }

    /// Registers a primitive watching the given wires.
    pub fn add_prim(&mut self, prim: Box<dyn Primitive>, watched: &[NodeId]) -> PrimId {
        let id = PrimId(self.prims.len());
        self.prims.push(Some(prim));
        for &n in watched {
            self.watchers[n.0].push(id);
        }
        id
    }

    /// Inspects a primitive after (or during) simulation.
    pub fn prim<T: 'static>(&self, id: PrimId) -> Option<&T> {
        self.prims[id.0]
            .as_ref()
            .and_then(|p| p.as_any().downcast_ref::<T>())
    }

    /// The current time (ps).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Largest number of simultaneously pending events seen so far.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak
    }

    /// Size of the action-slot table: slots are free-listed, so this is
    /// bounded by the peak queue depth, not the lifetime event count.
    pub fn action_slots(&self) -> usize {
        self.queue.actions.len()
    }

    fn call<F: FnOnce(&mut dyn Primitive, &mut Ctx<'_>)>(&mut self, id: PrimId, f: F) {
        let mut prim = self.prims[id.0].take().expect("no reentrant prim calls");
        let mut ctx = Ctx {
            nodes: &self.nodes,
            slots: &mut self.slots,
            queue: &mut self.queue,
            now: self.now,
            self_id: id,
        };
        f(prim.as_mut(), &mut ctx);
        self.prims[id.0] = Some(prim);
    }

    /// Initializes every primitive (call once before running).
    pub fn init(&mut self) {
        for i in 0..self.prims.len() {
            self.call(PrimId(i), |p, ctx| p.init(ctx));
        }
    }

    /// Runs until the condition holds, the queue drains, or `max_time` (ps)
    /// passes. Returns `true` if the condition was met.
    pub fn run_until<F: FnMut(&Sim) -> bool>(&mut self, mut done: F, max_time: Time) -> bool {
        if done(self) {
            return true;
        }
        while let Some((t, action)) = self.queue.pop() {
            self.now = t;
            if t > max_time {
                return false;
            }
            self.events_processed += 1;
            match action {
                Action::SetNode(node, value) => {
                    if self.nodes[node.0] == value {
                        continue;
                    }
                    self.nodes[node.0] = value;
                    if let Some(names) = &self.trace {
                        bmbe_obs::vlog!(1, "[{:>8}ps] {} <- {}", t, names[node.0], value as u8);
                        bmbe_obs::event!("sim.wire_change", node.0 as i64);
                    }
                    // Indexed delivery: the watcher lists are fixed once
                    // simulation starts (primitives cannot register new
                    // ones), so no defensive clone.
                    for i in 0..self.watchers[node.0].len() {
                        let w = self.watchers[node.0][i];
                        self.call(w, |p, ctx| p.on_change(ctx, node));
                    }
                }
                Action::Notify(prim, tag) => {
                    self.call(prim, |p, ctx| p.on_notify(ctx, tag));
                }
            }
            if done(self) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An inverter with delay, for engine smoke tests.
    struct Inv {
        input: NodeId,
        output: NodeId,
        delay: Time,
    }

    impl Primitive for Inv {
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            let v = ctx.get(self.input);
            ctx.set_after(self.output, !v, self.delay);
        }
        fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
            let v = ctx.get(self.input);
            ctx.set_after(self.output, !v, self.delay);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn inverter_chain_propagates_with_delay() {
        let mut sim = Sim::new();
        let a = sim.wire();
        let b = sim.wire();
        let c = sim.wire();
        sim.add_prim(
            Box::new(Inv {
                input: a,
                output: b,
                delay: 100,
            }),
            &[a],
        );
        sim.add_prim(
            Box::new(Inv {
                input: b,
                output: c,
                delay: 100,
            }),
            &[b],
        );
        sim.init();
        // after init: b = 1 (at t=100), c = !b ... settles: a=0,b=1,c=0.
        assert!(sim.run_until(|s| s.value(b) && !s.value(c) && s.now() >= 200, 10_000));
    }

    #[test]
    fn ring_oscillator_keeps_running_until_limit() {
        let mut sim = Sim::new();
        let a = sim.wire();
        sim.add_prim(
            Box::new(Inv {
                input: a,
                output: a,
                delay: 50,
            }),
            &[a],
        );
        sim.init();
        let done = sim.run_until(|_| false, 1_000);
        assert!(!done);
        assert!(sim.events_processed >= 19);
    }

    #[test]
    fn action_slots_are_recycled() {
        // A ring oscillator processes one event per 50 ps with exactly one
        // event in flight; after hundreds of thousands of events the slot
        // table must still be O(peak depth), not O(events).
        let mut sim = Sim::new();
        let a = sim.wire();
        sim.add_prim(
            Box::new(Inv {
                input: a,
                output: a,
                delay: 50,
            }),
            &[a],
        );
        sim.init();
        sim.run_until(|_| false, 10_000_000);
        assert!(sim.events_processed > 100_000);
        assert!(
            sim.action_slots() <= sim.peak_queue_depth() + 1,
            "slots {} vs peak depth {}",
            sim.action_slots(),
            sim.peak_queue_depth()
        );
        assert!(sim.action_slots() < 16);
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        // Three writes to one wire at the same instant, scheduled in the
        // order 1, 0, 1: the last one scheduled wins, and each applied
        // change is delivered.
        struct Writer {
            out: NodeId,
        }
        impl Primitive for Writer {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_after(self.out, true, 100);
                ctx.set_after(self.out, false, 100);
                ctx.set_after(self.out, true, 100);
            }
            fn on_change(&mut self, _ctx: &mut Ctx<'_>, _node: NodeId) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        struct Log {
            seen: Vec<bool>,
        }
        impl Primitive for Log {
            fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
                self.seen.push(ctx.get(node));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim = Sim::with_size(1, 0);
        let w = NodeId(0);
        sim.add_prim(Box::new(Writer { out: w }), &[]);
        let log = sim.add_prim(Box::new(Log { seen: Vec::new() }), &[w]);
        sim.init();
        sim.run_until(|_| false, 1_000);
        assert_eq!(sim.prim::<Log>(log).unwrap().seen, [true, false, true]);
        assert_eq!(sim.events_processed, 3);
        assert_eq!(sim.peak_queue_depth(), 3);
    }

    #[test]
    fn far_events_fire_in_order() {
        // Delays of milliseconds next to picosecond gate delays must still
        // fire in time order.
        struct SlowInv {
            input: NodeId,
            output: NodeId,
        }
        impl Primitive for SlowInv {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_after(self.output, true, 1_000_000);
            }
            fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
                let v = ctx.get(self.input);
                ctx.set_after(self.output, !v, 3_000_000);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim = Sim::new();
        let a = sim.wire();
        sim.add_prim(
            Box::new(SlowInv {
                input: a,
                output: a,
            }),
            &[a],
        );
        sim.init();
        let done = sim.run_until(|s| s.events_processed >= 5, 100_000_000);
        assert!(done);
        assert_eq!(sim.now(), 1_000_000 + 4 * 3_000_000);
    }

    #[test]
    fn sized_sim_has_dense_ids() {
        let mut sim = Sim::with_size(2, 1);
        assert_eq!(sim.wire(), NodeId(2));
        assert_eq!(sim.slot(), SlotId(1));
        assert_eq!(sim.slot_value(SlotId(0)), 0);
        assert!(!sim.value(NodeId(1)));
    }
}
