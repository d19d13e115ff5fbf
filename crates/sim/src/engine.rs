//! The discrete-event simulation engine.
//!
//! Wires carry Boolean values; data moves in per-channel value slots
//! (bundled-data abstraction). Primitives react to wire changes and
//! schedule further changes after their delays. In production the
//! primitives are the parts of a lowered circuit, each stepped in place
//! ([`crate::PartRun`]); the engine is generic over its primitive type, so
//! unit tests and benchmarks plug in their own. Time is in picoseconds.
//!
//! # Scheduling
//!
//! Events wait in one binary heap ordered by `(time, seq)`; `seq` is
//! globally monotonic, so same-timestamp events fire in the order they
//! were scheduled. Each heap entry carries the wire and value it sets.
//! Watcher delivery reads one flat index (`Watchers`) — no per-event
//! clone of a watcher list — which runs of one circuit share.
//! Handshake circuits run at queue depths of a few events, where a heap
//! operation costs a handful of comparisons.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

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

/// A scheduled event: `(time, seq, wire, value)`. Ordered by `(time, seq)`;
/// `seq` is globally monotonic, so ties in time resolve FIFO and the wire
/// and value never decide the order.
type Event = (Time, u64, u32, bool);

/// A behavioural element of the simulation.
pub trait Primitive {
    /// Called once before simulation starts.
    fn init(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a watched wire changes value.
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId);
}

/// The pending events.
#[derive(Default)]
struct Queue {
    heap: BinaryHeap<Reverse<Event>>,
    peak: usize,
    seq: u64,
}

impl Queue {
    /// Schedules wire `node` to take `value` at `time`.
    fn push(&mut self, time: Time, node: NodeId, value: bool) {
        self.seq += 1;
        self.heap
            .push(Reverse((time, self.seq, node.0 as u32, value)));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Pops the pending event with the least `(time, seq)`.
    fn pop(&mut self) -> Option<(Time, NodeId, bool)> {
        let Reverse((time, _, node, value)) = self.heap.pop()?;
        Some((time, NodeId(node as usize), value))
    }
}

/// The API primitives use to interact with the simulation.
pub struct Ctx<'a> {
    nodes: &'a [bool],
    slots: &'a mut [u64],
    queue: &'a mut Queue,
    now: Time,
}

impl Ctx<'_> {
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
        self.queue.push(self.now + delay, node, value);
    }
}

/// The primitives watching each wire, as one CSR index: wire `w`'s
/// watchers are `prims[start[w]..start[w + 1]]`, in registration order (a
/// primitive that watches a wire twice is delivered twice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Watchers {
    start: Vec<u32>,
    prims: Vec<PrimId>,
}

impl Watchers {
    /// The index of `wires` wires where primitive `PrimId(i)` watches the
    /// `i`-th list of `watched`: one counting pass, one placing pass.
    pub(crate) fn new<'a>(
        wires: usize,
        watched: impl Iterator<Item = &'a [NodeId]> + Clone,
    ) -> Self {
        let mut start = vec![0u32; wires + 1];
        for &n in watched.clone().flatten() {
            start[n.0 + 1] += 1;
        }
        for w in 0..wires {
            start[w + 1] += start[w];
        }
        let mut next = start.clone();
        let mut prims = vec![PrimId(0); start[wires] as usize];
        for (i, list) in watched.enumerate() {
            for &n in list {
                prims[next[n.0] as usize] = PrimId(i);
                next[n.0] += 1;
            }
        }
        Watchers { start, prims }
    }

    fn wires(&self) -> usize {
        self.start.len() - 1
    }

    /// The primitives watching `node`, in registration order.
    pub(crate) fn of(&self, node: NodeId) -> &[PrimId] {
        &self.prims[self.start[node.0] as usize..self.start[node.0 + 1] as usize]
    }

    fn add_wire(&mut self) {
        let end = self.prims.len() as u32;
        self.start.push(end);
    }

    /// Appends `prim` to the lists of `watched`: the primitive registered
    /// last is delivered last.
    fn watch(&mut self, prim: PrimId, watched: &[NodeId]) {
        for &n in watched {
            let end = self.start[n.0 + 1];
            self.prims.insert(end as usize, prim);
            for s in &mut self.start[n.0 + 1..] {
                *s += 1;
            }
        }
    }
}

/// The simulator, over primitives of type `P`.
pub struct Sim<P> {
    nodes: Vec<bool>,
    slots: Vec<u64>,
    prims: Vec<P>,
    watchers: Arc<Watchers>,
    queue: Queue,
    now: Time,
    /// Count of processed events (for run-away detection).
    pub events_processed: u64,
}

impl<P: Primitive> Default for Sim<P> {
    /// An empty simulator.
    fn default() -> Self {
        Sim::with_size(0, 0)
    }
}

impl<P: Primitive> Sim<P> {
    /// Creates a simulator with `wires` wires (all 0) and `slots` data
    /// slots; ids are dense, `NodeId(0..wires)` and `SlotId(0..slots)`.
    pub fn with_size(wires: usize, slots: usize) -> Self {
        Sim::with_watchers(
            Arc::new(Watchers::new(wires, std::iter::empty())),
            slots,
            Vec::new(),
        )
    }

    /// Creates a simulator over a shared watcher index, with its wires (all
    /// 0), `slots` data slots and the primitives the index refers to.
    pub(crate) fn with_watchers(watchers: Arc<Watchers>, slots: usize, prims: Vec<P>) -> Self {
        Sim {
            nodes: vec![false; watchers.wires()],
            slots: vec![0; slots],
            prims,
            watchers,
            queue: Queue::default(),
            now: 0,
            events_processed: 0,
        }
    }

    /// Adds a wire, initially 0.
    pub fn wire(&mut self) -> NodeId {
        self.nodes.push(false);
        Arc::make_mut(&mut self.watchers).add_wire();
        NodeId(self.nodes.len() - 1)
    }

    /// Current value of a wire.
    pub fn value(&self, node: NodeId) -> bool {
        self.nodes[node.0]
    }

    /// Reads a data slot.
    pub fn slot_value(&self, slot: SlotId) -> u64 {
        self.slots[slot.0]
    }

    /// Registers a primitive watching the given wires.
    pub fn add_prim(&mut self, prim: P, watched: &[NodeId]) -> PrimId {
        let id = PrimId(self.prims.len());
        self.prims.push(prim);
        Arc::make_mut(&mut self.watchers).watch(id, watched);
        id
    }

    /// Inspects a primitive after (or during) simulation.
    pub fn prim(&self, id: PrimId) -> &P {
        &self.prims[id.0]
    }

    /// The current time (ps).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Largest number of simultaneously pending events seen so far.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak
    }

    /// Initializes every primitive (call once before running).
    pub fn init(&mut self) {
        let mut ctx = Ctx {
            nodes: &self.nodes,
            slots: &mut self.slots,
            queue: &mut self.queue,
            now: self.now,
        };
        for prim in &mut self.prims {
            prim.init(&mut ctx);
        }
    }

    /// Runs until the condition holds, the queue drains, or `max_time` (ps)
    /// passes. Returns `true` if the condition was met.
    pub fn run_until<F: FnMut(&Sim<P>) -> bool>(&mut self, mut done: F, max_time: Time) -> bool {
        if done(self) {
            return true;
        }
        while let Some((t, node, value)) = self.queue.pop() {
            self.now = t;
            if t > max_time {
                return false;
            }
            self.events_processed += 1;
            if self.nodes[node.0] == value {
                continue;
            }
            self.nodes[node.0] = value;
            // Indexed delivery: the watcher lists are fixed once simulation
            // starts (primitives cannot register new ones), so no
            // defensive clone.
            let mut ctx = Ctx {
                nodes: &self.nodes,
                slots: &mut self.slots,
                queue: &mut self.queue,
                now: t,
            };
            for &w in self.watchers.of(node) {
                self.prims[w.0].on_change(&mut ctx, node);
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
    }

    #[test]
    fn inverter_chain_propagates_with_delay() {
        let mut sim = Sim::default();
        let a = sim.wire();
        let b = sim.wire();
        let c = sim.wire();
        sim.add_prim(
            Inv {
                input: a,
                output: b,
                delay: 100,
            },
            &[a],
        );
        sim.add_prim(
            Inv {
                input: b,
                output: c,
                delay: 100,
            },
            &[b],
        );
        sim.init();
        // after init: b = 1 (at t=100), c = !b ... settles: a=0,b=1,c=0.
        assert!(sim.run_until(|s| s.value(b) && !s.value(c) && s.now() >= 200, 10_000));
    }

    #[test]
    fn ring_oscillator_keeps_running_until_limit() {
        let mut sim = Sim::default();
        let a = sim.wire();
        sim.add_prim(
            Inv {
                input: a,
                output: a,
                delay: 50,
            },
            &[a],
        );
        sim.init();
        let done = sim.run_until(|_| false, 1_000);
        assert!(!done);
        assert!(sim.events_processed >= 19);
    }

    #[test]
    fn ring_oscillator_keeps_one_event_in_flight() {
        // A ring oscillator processes one event per 50 ps with exactly one
        // event in flight, however long it runs.
        let mut sim = Sim::default();
        let a = sim.wire();
        sim.add_prim(
            Inv {
                input: a,
                output: a,
                delay: 50,
            },
            &[a],
        );
        sim.init();
        sim.run_until(|_| false, 10_000_000);
        assert_eq!(sim.events_processed, 200_000);
        assert_eq!(sim.peak_queue_depth(), 1);
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        // Three writes to one wire at the same instant, scheduled in the
        // order 1, 0, 1: the last one scheduled wins, and each applied
        // change is delivered. The writer watches nothing; the log
        // records what it sees.
        struct Probe {
            writes: Option<NodeId>,
            seen: Vec<bool>,
        }
        impl Primitive for Probe {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                if let Some(out) = self.writes {
                    ctx.set_after(out, true, 100);
                    ctx.set_after(out, false, 100);
                    ctx.set_after(out, true, 100);
                }
            }
            fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
                self.seen.push(ctx.get(node));
            }
        }
        let mut sim = Sim::with_size(1, 0);
        let w = NodeId(0);
        let probe = |writes| Probe {
            writes,
            seen: Vec::new(),
        };
        sim.add_prim(probe(Some(w)), &[]);
        let log = sim.add_prim(probe(None), &[w]);
        sim.init();
        sim.run_until(|_| false, 1_000);
        assert_eq!(sim.prim(log).seen, [true, false, true]);
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
        }
        let mut sim = Sim::default();
        let a = sim.wire();
        sim.add_prim(
            SlowInv {
                input: a,
                output: a,
            },
            &[a],
        );
        sim.init();
        let done = sim.run_until(|s| s.events_processed >= 5, 100_000_000);
        assert!(done);
        assert_eq!(sim.now(), 1_000_000 + 4 * 3_000_000);
    }

    /// The index built in one counting pass equals the one `add_prim`
    /// grows primitive by primitive: each wire lists its watchers in
    /// registration order, a wire watched twice by one primitive twice.
    #[test]
    fn batch_and_incremental_watcher_indexes_agree() {
        let lists: [&[NodeId]; 5] = [
            &[NodeId(2), NodeId(0)],
            &[],
            &[NodeId(0), NodeId(0), NodeId(3)],
            &[NodeId(3)],
            &[NodeId(1), NodeId(2), NodeId(0)],
        ];
        let batch = Watchers::new(5, lists.iter().copied());
        // Wires 3 and 4 are added after the first two primitives.
        let mut sim = Sim::with_size(3, 0);
        for (i, list) in lists.into_iter().enumerate() {
            if i == 2 {
                sim.wire();
                sim.wire();
            }
            let (input, output) = (NodeId(0), NodeId(1));
            sim.add_prim(
                Inv {
                    input,
                    output,
                    delay: 1,
                },
                list,
            );
        }
        assert_eq!(*sim.watchers, batch);
        assert_eq!(
            batch.of(NodeId(0)),
            [PrimId(0), PrimId(2), PrimId(2), PrimId(4)]
        );
        assert_eq!(batch.of(NodeId(3)), [PrimId(2), PrimId(3)]);
        assert_eq!(batch.of(NodeId(4)), []);
    }

    #[test]
    fn sized_sim_has_dense_ids() {
        let mut sim = Sim::<Inv>::with_size(2, 1);
        assert_eq!(sim.wire(), NodeId(2));
        assert_eq!(sim.slot_value(SlotId(0)), 0);
        assert!(!sim.value(NodeId(1)));
    }
}
