//! Technology mapping by dynamic-programming tree covering.
//!
//! The subject graph is split into trees at multi-fanout nodes (and, in the
//! paper's split-module mode, at module boundaries — the reason the paper's
//! flow "prohibits the Design Compiler from finding an optimal
//! implementation across the two levels of logic", §6). One pass over the
//! subject graph's edges marks every node read from another module, so
//! finding the boundaries is linear in the graph. Each tree is covered by
//! library patterns with minimum area or minimum delay.
//!
//! All patterns are compositions of NAND2/INV — DeMorgan-style regroupings
//! only — so the mapping is *hazard-non-increasing* in the sense of
//! [Kung 1992]: it never introduces logic hazards absent from the two-level
//! form. Every [`CellKind`] has a pattern and no other cell exists, so a
//! mapped netlist holds only combinational, unate cells.

use crate::cell::{CellKind, Library};
use crate::subject::{SubjectGraph, SubjectNode};
use std::collections::HashMap;
use std::fmt;

/// Mapping objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapObjective {
    /// Minimize total cell area.
    Area,
    /// Minimize worst output arrival time.
    Delay,
}

/// Mapping style: whether pattern matching may cross the two logic levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapStyle {
    /// The paper's flow: the three Verilog modules are mapped separately, so
    /// no pattern crosses a module boundary.
    SplitModules,
    /// Whole-controller mapping (the ablation of §6's area discussion).
    WholeController,
}

/// One mapped gate.
#[derive(Debug, Clone)]
pub struct MappedGate {
    /// The chosen cell.
    pub cell: CellKind,
    /// Input subject-node ids (the nets).
    pub inputs: Vec<usize>,
    /// Output subject-node id.
    pub output: usize,
}

/// A technology-mapped controller netlist.
#[derive(Debug, Clone)]
pub struct MappedNetlist {
    /// The gates, in ascending output node, every pin below its gate's
    /// output ([`check_gate_order`]).
    pub gates: Vec<MappedGate>,
    /// Total area (µm²).
    pub area: f64,
    /// Arrival time (ns) per function root, keyed by function name.
    pub output_delays: HashMap<String, f64>,
    /// The subject graph the mapping covers (kept for verification).
    pub subject: SubjectGraph,
}

impl MappedNetlist {
    /// Worst output arrival time (ns).
    pub fn critical_delay(&self) -> f64 {
        self.output_delays.values().fold(0.0, |a, &b| a.max(b))
    }

    /// Number of mapped cells.
    pub fn num_cells(&self) -> usize {
        self.gates.len()
    }

    /// Rewrites every function-root name through `f` (delay table keys and
    /// subject-graph roots). Used by the flow's controller cache to
    /// re-instantiate an artifact mapped under canonical channel names with
    /// a component's actual names; the netlist structure, areas, and delays
    /// are untouched.
    pub fn rename_roots<F: Fn(&str) -> String>(&mut self, f: F) {
        self.output_delays = self
            .output_delays
            .drain()
            .map(|(name, delay)| (f(&name), delay))
            .collect();
        for (name, _) in &mut self.subject.roots {
            *name = f(name);
        }
    }

    /// Evaluates the mapped netlist at an input point, returning the value
    /// of each function root (in root order).
    pub fn eval(&self, inputs: u64) -> Vec<bool> {
        let mut values = vec![false; self.subject.nodes.len()];
        for i in 0..self.subject.num_inputs {
            values[i] = inputs >> i & 1 == 1;
        }
        for (i, n) in self.subject.nodes.iter().enumerate() {
            if matches!(n, SubjectNode::One) {
                values[i] = true;
            }
        }
        let mut ins = Vec::with_capacity(4);
        for g in &self.gates {
            ins.clear();
            ins.extend(g.inputs.iter().map(|n| values[*n]));
            values[g.output] = g.cell.eval(&ins);
        }
        self.subject.roots.iter().map(|(_, r)| values[*r]).collect()
    }
}

impl fmt::Display for MappedNetlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "mapped: {} cells, {:.1} um^2, {:.3} ns critical",
            self.num_cells(),
            self.area,
            self.critical_delay()
        )?;
        for g in &self.gates {
            writeln!(f, "  {} n{} <- {:?}", g.cell, g.output, g.inputs)?;
        }
        Ok(())
    }
}

/// A pattern: a cell plus its NAND2/INV tree template. Leaves bind the
/// pattern inputs in order.
#[derive(Debug, Clone)]
enum Shape {
    Leaf,
    Inv(Box<Shape>),
    Nand2(Box<Shape>, Box<Shape>),
}

fn patterns() -> Vec<(CellKind, Shape)> {
    use Shape::{Inv, Leaf, Nand2};
    let leaf = || Box::new(Leaf);
    vec![
        (CellKind::Inv, Inv(leaf())),
        (CellKind::Nand2, Nand2(leaf(), leaf())),
        // NAND3 = NAND2(INV(NAND2(a,b)), c)   (the chain decomposition)
        (
            CellKind::Nand3,
            Nand2(Box::new(Inv(Box::new(Nand2(leaf(), leaf())))), leaf()),
        ),
        // NAND4 = NAND2(INV(NAND2(a,b)), INV(NAND2(c,d))) (balanced form)
        (
            CellKind::Nand4,
            Nand2(
                Box::new(Inv(Box::new(Nand2(leaf(), leaf())))),
                Box::new(Inv(Box::new(Nand2(leaf(), leaf())))),
            ),
        ),
        // AND2 = INV(NAND2(a,b))
        (CellKind::And2, Inv(Box::new(Nand2(leaf(), leaf())))),
        // OR2 = NAND2(INV(a), INV(b))
        (
            CellKind::Or2,
            Nand2(Box::new(Inv(leaf())), Box::new(Inv(leaf()))),
        ),
        // NOR2 = INV(OR2)
        (
            CellKind::Nor2,
            Inv(Box::new(Nand2(
                Box::new(Inv(leaf())),
                Box::new(Inv(leaf())),
            ))),
        ),
        // AO21: a·b + c = NAND2(NAND2(a,b), INV(c))
        (
            CellKind::Ao21,
            Nand2(Box::new(Nand2(leaf(), leaf())), Box::new(Inv(leaf()))),
        ),
        // AO22: a·b + c·d = NAND2(NAND2(a,b), NAND2(c,d))
        (
            CellKind::Ao22,
            Nand2(
                Box::new(Nand2(leaf(), leaf())),
                Box::new(Nand2(leaf(), leaf())),
            ),
        ),
    ]
}

/// Maps a subject graph onto the library.
pub fn map(
    subject: &SubjectGraph,
    library: &Library,
    objective: MapObjective,
    style: MapStyle,
) -> MappedNetlist {
    let pats = patterns();
    // Tree roots: multi-fanout nodes, function roots, and (in split mode)
    // any node whose consumer lives in a different module. A node is a
    // "net" (potential pattern leaf / tree boundary) if it is an input,
    // constant, multi-fanout, or module boundary. One pass over the edges
    // marks the nodes read across a module boundary.
    let mut crosses = vec![false; subject.nodes.len()];
    if style == MapStyle::SplitModules {
        for (i, node) in subject.nodes.iter().enumerate() {
            let operands: &[usize] = match node {
                SubjectNode::Inv(a) => std::slice::from_ref(a),
                SubjectNode::Nand2(a, b) => &[*a, *b],
                _ => &[],
            };
            for &a in operands {
                crosses[a] |= subject.modules[a] != subject.modules[i];
            }
        }
    }
    let boundary: Vec<bool> = subject
        .nodes
        .iter()
        .enumerate()
        .map(|(n, node)| match node {
            SubjectNode::Input(_) | SubjectNode::Zero | SubjectNode::One => true,
            _ => subject.fanout[n] > 1 || crosses[n],
        })
        .collect();

    // DP over nodes in topological (index) order: best (cost, arrival,
    // chosen pattern with leaf bindings) to realize each node as a gate
    // output.
    #[derive(Clone)]
    struct Best {
        cost: f64,
        arrival: f64,
        cell: CellKind,
        leaves: Vec<usize>,
    }
    let mut best: Vec<Option<Best>> = vec![None; subject.nodes.len()];
    // arrival/cost of a node when used as a pattern leaf.
    let leaf_arrival = |n: usize, best: &Vec<Option<Best>>| -> f64 {
        match subject.nodes[n] {
            SubjectNode::Input(_) | SubjectNode::Zero | SubjectNode::One => 0.0,
            _ => best[n].as_ref().map_or(f64::INFINITY, |b| b.arrival),
        }
    };
    let leaf_cost = |n: usize, best: &Vec<Option<Best>>| -> f64 {
        match subject.nodes[n] {
            SubjectNode::Input(_) | SubjectNode::Zero | SubjectNode::One => 0.0,
            _ if boundary[n] => 0.0, // counted once where the tree is built
            _ => best[n].as_ref().map_or(f64::INFINITY, |b| b.cost),
        }
    };

    for n in 0..subject.nodes.len() {
        if matches!(
            subject.nodes[n],
            SubjectNode::Input(_) | SubjectNode::Zero | SubjectNode::One
        ) {
            continue;
        }
        let mut candidate: Option<Best> = None;
        for (cell, shape) in &pats {
            let mut leaves = Vec::new();
            if match_shape(subject, &boundary, n, shape, true, &mut leaves) {
                let mut cost = library.area(*cell);
                let mut arrival = 0.0f64;
                for &l in &leaves {
                    cost += leaf_cost(l, &best);
                    arrival = arrival.max(leaf_arrival(l, &best));
                }
                arrival += library.delay(*cell);
                let better = match (&candidate, objective) {
                    (None, _) => true,
                    (Some(c), MapObjective::Area) => {
                        cost < c.cost || (cost == c.cost && arrival < c.arrival)
                    }
                    (Some(c), MapObjective::Delay) => {
                        arrival < c.arrival || (arrival == c.arrival && cost < c.cost)
                    }
                };
                if better && cost.is_finite() {
                    candidate = Some(Best {
                        cost,
                        arrival,
                        cell: *cell,
                        leaves,
                    });
                }
            }
        }
        best[n] = candidate;
    }

    // Emit gates for every "live" tree root: function roots + boundary
    // nodes reachable from them.
    let mut gates: Vec<MappedGate> = Vec::new();
    let mut emitted: Vec<bool> = vec![false; subject.nodes.len()];
    let mut area = 0.0;
    let mut stack: Vec<usize> = subject.roots.iter().map(|(_, r)| *r).collect();
    let mut order: Vec<usize> = Vec::new();
    while let Some(n) = stack.pop() {
        if emitted[n]
            || matches!(
                subject.nodes[n],
                SubjectNode::Input(_) | SubjectNode::Zero | SubjectNode::One
            )
        {
            continue;
        }
        emitted[n] = true;
        order.push(n);
        // Emit this node's pattern and recurse into interior + leaves.
        let b = best[n].as_ref().expect("every NAND/INV node is coverable");
        for &l in &b.leaves {
            stack.push(l);
        }
        // Interior nodes are covered by the pattern; their own best is not
        // emitted. We must also walk interior single-fanout nodes' leaves —
        // already included in b.leaves by construction.
    }
    // Emit in increasing node order (subject indices are topological): the
    // order `check_gate_order` checks.
    order.sort_unstable();
    for n in order {
        let b = best[n].as_ref().expect("coverable");
        area += library.area(b.cell);
        gates.push(MappedGate {
            cell: b.cell,
            inputs: b.leaves.clone(),
            output: n,
        });
    }
    // Arrival per root via the DP values.
    let mut output_delays = HashMap::new();
    for (name, r) in &subject.roots {
        let d = match subject.nodes[*r] {
            SubjectNode::Input(_) | SubjectNode::Zero | SubjectNode::One => 0.0,
            _ => best[*r].as_ref().map_or(0.0, |b| b.arrival),
        };
        output_delays.insert(name.clone(), d);
    }
    MappedNetlist {
        gates,
        area,
        output_delays,
        subject: subject.clone(),
    }
}

/// How a gate list breaks the order [`map`] emits (see
/// [`check_gate_order`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOrderError {
    /// A gate breaks the order.
    Gate {
        /// The gate's index in the netlist.
        gate: usize,
        /// What is wrong with it.
        what: &'static str,
    },
    /// A function root names a node outside the subject graph.
    Root {
        /// The root's index in the subject graph's root list.
        root: usize,
    },
}

impl fmt::Display for GateOrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateOrderError::Gate { gate, what } => write!(f, "gate {gate}: {what}"),
            GateOrderError::Root { root } => {
                write!(f, "function root {root} lies outside the subject graph")
            }
        }
    }
}

impl std::error::Error for GateOrderError {}

/// Checks the order [`map`] emits and every evaluator of a mapped netlist
/// relies on: each gate has its cell's pin count; gate outputs are gate
/// nodes of the subject graph (not inputs or constants) and strictly
/// ascend; each pin lies below its gate's output; each function root lies
/// inside the graph. One pass over the gates in stored order therefore
/// writes every node once, before any gate reads it.
///
/// Netlists that do not come straight from [`map`] are checked here where
/// they enter: the disk-cache codec and the compiled simulator's tape
/// builder.
///
/// # Errors
///
/// The first gate, then the first root, that breaks the order.
pub fn check_gate_order(m: &MappedNetlist) -> Result<(), GateOrderError> {
    let nodes = &m.subject.nodes;
    // Every output must reach this: one past the previous gate's output.
    let mut floor = 0;
    for (gate, g) in m.gates.iter().enumerate() {
        let bad = |what| Err(GateOrderError::Gate { gate, what });
        if g.inputs.len() != g.cell.num_inputs() {
            return bad("input count differs from the cell's pin count");
        }
        match nodes.get(g.output) {
            None => return bad("output outside the subject graph"),
            Some(SubjectNode::Inv(_) | SubjectNode::Nand2(..)) => {}
            Some(_) => return bad("output is an input or constant node"),
        }
        if g.output < floor {
            return bad("output does not exceed the previous gate's");
        }
        if g.inputs.iter().any(|&pin| pin >= g.output) {
            return bad("pin not below the gate's output");
        }
        floor = g.output + 1;
    }
    match m.subject.roots.iter().position(|&(_, r)| r >= nodes.len()) {
        Some(root) => Err(GateOrderError::Root { root }),
        None => Ok(()),
    }
}

/// Tries to match `shape` rooted at node `n`; collects leaf node ids.
/// Interior pattern nodes must be single-fanout non-boundary nodes (except
/// the root itself).
fn match_shape(
    subject: &SubjectGraph,
    boundary: &[bool],
    n: usize,
    shape: &Shape,
    is_root: bool,
    leaves: &mut Vec<usize>,
) -> bool {
    if !is_root && boundary[n] {
        // Can't absorb a boundary node into a pattern interior — but it can
        // be a leaf, handled by the caller passing Shape::Leaf.
        return matches!(shape, Shape::Leaf) && {
            leaves.push(n);
            true
        };
    }
    match shape {
        Shape::Leaf => {
            leaves.push(n);
            true
        }
        Shape::Inv(inner) => match subject.nodes[n] {
            SubjectNode::Inv(a) => match_shape(subject, boundary, a, inner, false, leaves),
            _ => false,
        },
        Shape::Nand2(l, r) => match subject.nodes[n] {
            SubjectNode::Nand2(a, b) => {
                let mark = leaves.len();
                if match_shape(subject, boundary, a, l, false, leaves)
                    && match_shape(subject, boundary, b, r, false, leaves)
                {
                    return true;
                }
                leaves.truncate(mark);
                // Try the commuted orientation.
                match_shape(subject, boundary, b, l, false, leaves)
                    && match_shape(subject, boundary, a, r, false, leaves)
            }
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmbe_logic::{Cover, Cube};

    fn cover(strs: &[&str]) -> Cover {
        strs.iter().map(|s| Cube::parse(s).unwrap()).collect()
    }

    fn map_fn(strs: &[&str], n: usize, obj: MapObjective, style: MapStyle) -> MappedNetlist {
        let f = cover(strs);
        let g = SubjectGraph::from_covers(n, &[("f".into(), &f)]);
        map(&g, &Library::cmos035(), obj, style)
    }

    #[test]
    fn mapped_netlist_is_functionally_correct() {
        for style in [MapStyle::SplitModules, MapStyle::WholeController] {
            for obj in [MapObjective::Area, MapObjective::Delay] {
                let f = cover(&["10-", "-11", "1-1"]);
                let g = SubjectGraph::from_covers(3, &[("f".into(), &f)]);
                let m = map(&g, &Library::cmos035(), obj, style);
                assert_eq!(check_gate_order(&m), Ok(()));
                for point in 0..8u64 {
                    assert_eq!(
                        m.eval(point)[0],
                        f.eval(point),
                        "{style:?} {obj:?} {point:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn whole_mapping_no_worse_than_split() {
        // Crossing the level boundary can only help.
        let split = map_fn(
            &["11-", "--1"],
            3,
            MapObjective::Area,
            MapStyle::SplitModules,
        );
        let whole = map_fn(
            &["11-", "--1"],
            3,
            MapObjective::Area,
            MapStyle::WholeController,
        );
        assert!(
            whole.area <= split.area,
            "whole {} vs split {}",
            whole.area,
            split.area
        );
    }

    #[test]
    fn ao_cells_picked_for_two_level_shapes() {
        // f = ab + cd maps to a single AO22 in whole-controller mode.
        let m = map_fn(
            &["11--", "--11"],
            4,
            MapObjective::Area,
            MapStyle::WholeController,
        );
        assert!(m.gates.iter().any(|g| g.cell == CellKind::Ao22), "{m}");
    }

    #[test]
    fn split_mode_cannot_cross_levels() {
        // In split mode the same f = ab + cd keeps its NAND-NAND structure.
        let m = map_fn(
            &["11--", "--11"],
            4,
            MapObjective::Area,
            MapStyle::SplitModules,
        );
        assert!(m.gates.iter().all(|g| g.cell != CellKind::Ao22), "{m}");
    }

    #[test]
    fn delay_objective_not_slower_than_area() {
        let fast = map_fn(
            &["1111", "0000"],
            4,
            MapObjective::Delay,
            MapStyle::WholeController,
        );
        let small = map_fn(
            &["1111", "0000"],
            4,
            MapObjective::Area,
            MapStyle::WholeController,
        );
        assert!(fast.critical_delay() <= small.critical_delay() + 1e-9);
    }

    #[test]
    fn multi_output_netlist_maps() {
        let f = cover(&["1-"]);
        let h = cover(&["01"]);
        let g = SubjectGraph::from_covers(2, &[("f".into(), &f), ("h".into(), &h)]);
        let m = map(
            &g,
            &Library::cmos035(),
            MapObjective::Area,
            MapStyle::SplitModules,
        );
        assert_eq!(m.output_delays.len(), 2);
        for point in 0..4u64 {
            let vals = m.eval(point);
            assert_eq!(vals[0], f.eval(point));
            assert_eq!(vals[1], h.eval(point));
        }
    }

    /// Evaluates a pattern shape on `pins`, binding its leaves in order
    /// from pin `*next` on.
    fn eval_shape(shape: &Shape, pins: &[bool], next: &mut usize) -> bool {
        match shape {
            Shape::Leaf => {
                *next += 1;
                pins[*next - 1]
            }
            Shape::Inv(a) => !eval_shape(a, pins, next),
            Shape::Nand2(a, b) => {
                let (a, b) = (eval_shape(a, pins, next), eval_shape(b, pins, next));
                !(a && b)
            }
        }
    }

    #[test]
    fn every_cell_has_a_pattern_that_computes_it() {
        // Exhaustive on purpose: a new cell kind fails to build here until
        // it gets a slot, and fails the test until it gets a pattern.
        let slot = |cell: CellKind| match cell {
            CellKind::Inv => 0,
            CellKind::Nand2 => 1,
            CellKind::Nand3 => 2,
            CellKind::Nand4 => 3,
            CellKind::And2 => 4,
            CellKind::Or2 => 5,
            CellKind::Nor2 => 6,
            CellKind::Ao21 => 7,
            CellKind::Ao22 => 8,
        };
        let mut covered = [false; 9];
        for (cell, shape) in patterns() {
            covered[slot(cell)] = true;
            let k = cell.num_inputs();
            for point in 0..1u32 << k {
                let pins: Vec<bool> = (0..k).map(|i| point >> i & 1 == 1).collect();
                let mut next = 0;
                assert_eq!(
                    eval_shape(&shape, &pins, &mut next),
                    cell.eval(&pins),
                    "{cell}"
                );
                assert_eq!(next, k, "{cell} leaves");
            }
        }
        assert_eq!(covered, [true; 9], "cells without a pattern");
    }

    #[test]
    fn constant_function_maps_to_nothing() {
        let m = map_fn(&[], 2, MapObjective::Area, MapStyle::SplitModules);
        assert_eq!(m.num_cells(), 0);
        assert!(!m.eval(0)[0]);
    }
}
