//! Hazard analysis of mapped controllers (§5 of the paper).
//!
//! Two independent checks stand in for the paper's "formally analysed for
//! hazard-freedom conditions":
//!
//! 1. **Functional equivalence** of the mapped netlist against the
//!    two-level covers — the algebraic transforms used by the mapper must
//!    not change the function. Checked cube-algebraically: exact ON covers
//!    are propagated through the mapped gates and compared to the
//!    synthesized covers by two-way containment, with the seed's pointwise
//!    sweep kept as oracle and fallback. A backward pass first marks which
//!    polarity (ON, OFF or both) each node's readers need — roots need ON,
//!    inverting cells flip the demand — so a NAND-NAND netlist never
//!    builds its roots' OFF covers, the product-of-sums blow-up no check
//!    reads.
//! 2. **Eichelberger ternary simulation** of every specified
//!    multiple-input-change transition on the mapped gates: changing inputs
//!    are driven to `X`; a static transition that reads `X` at any output
//!    has a potential glitch, and every transition must settle at its
//!    specified final value. The burst points run 64 to a netlist pass as
//!    dual-rail lanes (a can-be-0 and a can-be-1 bit-plane per word).
//!    Synthesis gives every function the same `(start, end)` sequence, so
//!    the first function's transitions are the lane slots — slot `k`'s
//!    mid-burst point on lane `k`, its settle point on lane `T + k` — and
//!    every check reads one bit. A transition that differs from its slot
//!    gets lanes of its own.
//!
//! Every library cell is combinational and unate, so both checks return a
//! verdict for any netlist whose gates have their cells' pin counts.
//! [`eval_ternary`] is the per-point ternary evaluator the lanes are tested
//! against; no production path calls it.

use crate::cell::{CellKind, DualRail};
use crate::map::MappedNetlist;
use crate::subject::SubjectNode;
use bmbe_bm::synth::Controller;
use bmbe_logic::{Cover, Cube, Tv};
use std::collections::HashMap;

/// A reported hazard-analysis violation.
#[derive(Debug, Clone, PartialEq)]
pub enum HazardViolation {
    /// The mapped netlist computes a different function.
    NotEquivalent {
        /// Function name.
        function: String,
        /// A witness input point.
        point: u64,
    },
    /// A static transition can glitch (output reads `X` mid-burst).
    StaticGlitch {
        /// Function name.
        function: String,
        /// Transition start point.
        start: u64,
        /// Transition end point.
        end: u64,
    },
    /// A transition does not settle at its specified final value.
    WrongSettle {
        /// Function name.
        function: String,
        /// Transition start point.
        start: u64,
        /// Transition end point.
        end: u64,
    },
}

impl std::fmt::Display for HazardViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HazardViolation::NotEquivalent { function, point } => {
                write!(f, "{function}: mapped netlist differs at {point:#x}")
            }
            HazardViolation::StaticGlitch {
                function,
                start,
                end,
            } => {
                write!(
                    f,
                    "{function}: static transition {start:#x}->{end:#x} can glitch"
                )
            }
            HazardViolation::WrongSettle {
                function,
                start,
                end,
            } => {
                write!(
                    f,
                    "{function}: transition {start:#x}->{end:#x} settles wrong"
                )
            }
        }
    }
}

/// Ternary evaluation of a mapped netlist at one point; returns root values
/// in root order. Every cell is unate in each pin, so its Kleene value is
/// fixed by its scalar function at the two completions that set every `X`
/// pin to 0 and to 1. This is the per-point oracle of the lane evaluator
/// [`verify_mapped`] runs.
pub fn eval_ternary(netlist: &MappedNetlist, inputs: &[Tv]) -> Vec<Tv> {
    // Dense value table indexed by subject-node id (gate outputs are
    // subject-node ids too); topological gate order guarantees every read
    // slot was written.
    let mut values = vec![Tv::X; netlist.subject.nodes.len()];
    values[..inputs.len()].copy_from_slice(inputs);
    for (i, n) in netlist.subject.nodes.iter().enumerate() {
        match n {
            SubjectNode::Zero => values[i] = Tv::Zero,
            SubjectNode::One => values[i] = Tv::One,
            _ => {}
        }
    }
    let (mut low, mut high) = (Vec::with_capacity(4), Vec::with_capacity(4));
    for g in &netlist.gates {
        low.clear();
        low.extend(g.inputs.iter().map(|&i| values[i] == Tv::One));
        high.clear();
        high.extend(g.inputs.iter().map(|&i| values[i] != Tv::Zero));
        let (a, b) = (g.cell.eval(&low), g.cell.eval(&high));
        values[g.output] = if a == b { Tv::from_bool(a) } else { Tv::X };
    }
    netlist
        .subject
        .roots
        .iter()
        .map(|(_, r)| values[*r])
        .collect()
}

/// Cube-count ceiling for the algebraic netlist covers; beyond it the
/// checker falls back to the pointwise sweep (deep OR-plane complements can
/// blow up, though mapped two-level controllers stay far below this).
const ALGEBRAIC_CUBE_CAP: usize = 4096;

/// Curbs cover growth during propagation; `None` means the cap was hit.
fn trim(mut c: Cover) -> Option<Cover> {
    if c.len() > 64 {
        c.make_irredundant_single_containment();
    }
    if c.len() > ALGEBRAIC_CUBE_CAP {
        None
    } else {
        Some(c)
    }
}

fn cover_and(a: &Cover, b: &Cover) -> Option<Cover> {
    let mut out = Cover::empty();
    for x in a.cubes() {
        for y in b.cubes() {
            if let Some(ix) = x.intersection(y) {
                out.push(ix);
            }
        }
    }
    trim(out)
}

fn cover_or(a: &Cover, b: &Cover) -> Option<Cover> {
    let mut out = a.clone();
    out.extend(b.cubes().iter().copied());
    trim(out)
}

/// Demand bit: a reader needs the node's ON cover.
const ON: u8 = 1;
/// Demand bit: a reader needs the node's OFF cover.
const OFF: u8 = 2;

/// One polarity of a cell's monotone core (the cell without its output
/// inversion) from its inputs' covers of the same polarity in `table`: ON
/// covers combine AND as intersection and OR as union, OFF covers the
/// other way round. `None` when a cover exceeds [`ALGEBRAIC_CUBE_CAP`].
fn core_cover(cell: CellKind, ins: &[usize], table: &[Cover], on: bool, n: usize) -> Option<Cover> {
    let and = |a: &Cover, b: &Cover| if on { cover_and(a, b) } else { cover_or(a, b) };
    let or = |a: &Cover, b: &Cover| if on { cover_or(a, b) } else { cover_and(a, b) };
    let and_all = |ids: &[usize]| {
        let unit = if on {
            Cover::from_cubes(vec![Cube::universe(n)])
        } else {
            Cover::empty()
        };
        ids.iter().try_fold(unit, |acc, &i| and(&acc, &table[i]))
    };
    match cell {
        CellKind::Inv => Some(table[ins[0]].clone()),
        CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 | CellKind::And2 => and_all(ins),
        CellKind::Or2 | CellKind::Nor2 => or(&table[ins[0]], &table[ins[1]]),
        CellKind::Ao21 => or(&and_all(&ins[..2])?, &table[ins[2]]),
        CellKind::Ao22 => or(&and_all(&ins[..2])?, &and_all(&ins[2..])?),
    }
}

/// Exact ON covers of every root of the mapped netlist, built by
/// propagating cube covers through the gates — each input starts with the
/// complementary pair `(x_i, !x_i)`, and every cell preserves the
/// pair exactly (AND intersects ON covers and unions OFF covers; OR is the
/// dual; inversion swaps). Only the polarities some reader needs are
/// built, in tables indexed by node id. Returns `None` when a built cover
/// exceeds [`ALGEBRAIC_CUBE_CAP`].
fn netlist_root_covers(netlist: &MappedNetlist, n: usize) -> Option<Vec<Cover>> {
    let subject = &netlist.subject;
    // Backward pass: the polarities each node's readers need.
    let mut need = vec![0u8; subject.nodes.len()];
    for (_, r) in &subject.roots {
        need[*r] |= ON;
    }
    for g in netlist.gates.iter().rev() {
        let d = need[g.output];
        let d = if g.cell.inverts() {
            (d & ON) << 1 | (d & OFF) >> 1
        } else {
            d
        };
        for &i in &g.inputs {
            need[i] |= d;
        }
    }
    // Forward pass over the marked (node, polarity) pairs only.
    let universe = || Cover::from_cubes(vec![Cube::universe(n)]);
    let mut on = vec![Cover::empty(); subject.nodes.len()];
    let mut off = vec![Cover::empty(); subject.nodes.len()];
    for i in 0..subject.num_inputs {
        if need[i] & ON != 0 {
            on[i] = Cover::from_cubes(vec![Cube::universe(n).with_fixed(i, true)]);
        }
        if need[i] & OFF != 0 {
            off[i] = Cover::from_cubes(vec![Cube::universe(n).with_fixed(i, false)]);
        }
    }
    for (i, node) in subject.nodes.iter().enumerate() {
        match node {
            SubjectNode::Zero if need[i] & OFF != 0 => off[i] = universe(),
            SubjectNode::One if need[i] & ON != 0 => on[i] = universe(),
            _ => {}
        }
    }
    for g in &netlist.gates {
        let invert = g.cell.inverts();
        if need[g.output] & ON != 0 {
            let table = if invert { &off } else { &on };
            on[g.output] = core_cover(g.cell, &g.inputs, table, !invert, n)?;
        }
        if need[g.output] & OFF != 0 {
            let table = if invert { &on } else { &off };
            off[g.output] = core_cover(g.cell, &g.inputs, table, invert, n)?;
        }
    }
    Some(subject.roots.iter().map(|(_, r)| on[*r].clone()).collect())
}

/// Pointwise functional-equivalence oracle (the seed's original check):
/// exhaustive `2^n` sweep up to 14 variables, a deterministic 4096-point
/// sample beyond. Kept public as the reference the algebraic check is
/// property-tested and benchmarked against, and as the fallback when the
/// algebraic covers blow past their cube cap.
pub fn verify_equivalence_pointwise(
    controller: &Controller,
    netlist: &MappedNetlist,
) -> Option<HazardViolation> {
    let n = controller.num_vars();
    let covers = named_covers(controller);
    let points: Vec<u64> = if n <= 14 {
        (0..(1u64 << n)).collect()
    } else {
        // Deterministic sample over all n variables (n may be 64).
        let mask = u64::MAX >> (64 - n);
        let mut seed = 0x2545f4914f6cdd1du64;
        (0..1u64 << 12)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed & mask
            })
            .collect()
    };
    for &p in &points {
        let mapped = netlist.eval(p);
        for (fi, (name, cover)) in covers.iter().enumerate() {
            if mapped[fi] != cover.eval(p) {
                return Some(HazardViolation::NotEquivalent {
                    function: name.to_string(),
                    point: p,
                });
            }
        }
    }
    None
}

/// Cube-algebraic functional-equivalence check: compares each synthesized
/// cover against the exact ON cover extracted from the mapped gates, in
/// both directions, without enumerating the input space. Returns the first
/// disagreement witness; `None` means proven equivalent. Falls back to
/// [`verify_equivalence_pointwise`] if cover propagation hits its cap.
pub fn verify_equivalence_algebraic(
    controller: &Controller,
    netlist: &MappedNetlist,
) -> Option<HazardViolation> {
    let n = controller.num_vars();
    let Some(roots) = netlist_root_covers(netlist, n) else {
        return verify_equivalence_pointwise(controller, netlist);
    };
    let covers = named_covers(controller);
    debug_assert_eq!(roots.len(), covers.len());
    for (mapped_on, (name, cover)) in roots.iter().zip(&covers) {
        // Mapped ⊆ spec: every mapped ON cube must be covered by the spec.
        for c in mapped_on.cubes() {
            if let Some(p) = cover.uncovered_point(c) {
                return Some(HazardViolation::NotEquivalent {
                    function: name.to_string(),
                    point: p,
                });
            }
        }
        // Spec ⊆ mapped: every spec product must be covered by the netlist.
        for d in cover.cubes() {
            if let Some(p) = mapped_on.uncovered_point(d) {
                return Some(HazardViolation::NotEquivalent {
                    function: name.to_string(),
                    point: p,
                });
            }
        }
    }
    None
}

/// Every function of `controller` with the name of its mapped root:
/// outputs first, then next-state bit `j` as `y{j}`.
fn named_covers(controller: &Controller) -> Vec<(String, &Cover)> {
    controller
        .outputs
        .iter()
        .cloned()
        .chain((0..controller.num_state_bits).map(|j| format!("y{j}")))
        .zip(
            controller
                .output_covers
                .iter()
                .chain(controller.next_state_covers.iter()),
        )
        .collect()
}

/// Dual-rail root values of the netlist on every lane, 64 lanes per
/// netlist pass. Lane `l` holds input point `lanes[l].0` with the inputs in
/// `lanes[l].1` at `X`. The result is function-major: root `f`'s word for
/// pass `p` is at `f * passes + p`.
fn root_lanes(netlist: &MappedNetlist, n: usize, lanes: &[(u64, u64)]) -> Vec<DualRail> {
    let subject = &netlist.subject;
    let passes = lanes.len().div_ceil(64);
    let mut words = vec![DualRail::X; subject.roots.len() * passes];
    let mut values = vec![DualRail::X; subject.nodes.len()];
    let constants: Vec<(usize, DualRail)> = subject
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(i, node)| match node {
            SubjectNode::Zero => Some((i, DualRail::binary(0))),
            SubjectNode::One => Some((i, DualRail::binary(!0))),
            _ => None,
        })
        .collect();
    let mut ins = Vec::with_capacity(4);
    for (p, pass) in lanes.chunks(64).enumerate() {
        let inputs = &mut values[..n];
        inputs.fill(DualRail { can0: 0, can1: 0 });
        for (l, &(point, unknown)) in pass.iter().enumerate() {
            let (can0, can1) = (!point | unknown, point | unknown);
            for (i, v) in inputs.iter_mut().enumerate() {
                v.can0 |= (can0 >> i & 1) << l;
                v.can1 |= (can1 >> i & 1) << l;
            }
        }
        for &(i, c) in &constants {
            values[i] = c;
        }
        for g in &netlist.gates {
            ins.clear();
            ins.extend(g.inputs.iter().map(|&i| values[i]));
            values[g.output] = g.cell.eval_dual_lanes(&ins);
        }
        for (f, (_, r)) in subject.roots.iter().enumerate() {
            words[f * passes + p] = values[*r];
        }
    }
    words
}

/// Verifies a mapped controller: functional equivalence against the
/// synthesized covers and Eichelberger ternary analysis of every specified
/// transition. Returns all violations found (empty = clean).
pub fn verify_mapped(controller: &Controller, netlist: &MappedNetlist) -> Vec<HazardViolation> {
    let mut out = Vec::new();
    let covers = named_covers(controller);
    // 1. Functional equivalence (cube-algebraic; exact for all n, unlike
    //    the sampled pointwise sweep it replaced beyond 14 variables).
    if let Some(v) = verify_equivalence_algebraic(controller, netlist) {
        out.push(v);
        return out; // one witness suffices
    }
    // 2. Ternary transition analysis. The first function's transitions are
    //    the lane slots: mid-burst point of slot k on lane k (changing
    //    inputs at X), settle point on lane T + k. Every other function
    //    lists the same (start, end) sequence; a transition that does not
    //    gets a lane pair of its own.
    let specs = &controller.function_specs;
    let slots = specs.first().map_or(&[][..], |s| s.transitions());
    let t = slots.len();
    let mut lanes: Vec<(u64, u64)> = slots
        .iter()
        .map(|s| (s.start, s.start ^ s.end))
        .chain(slots.iter().map(|s| (s.end, 0)))
        .collect();
    // (mid, settle) lane pair of every transition, in spec order.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut own: HashMap<(u64, u64), (usize, usize)> = HashMap::new();
    for spec in specs {
        for (k, tr) in spec.transitions().iter().enumerate() {
            pairs.push(match slots.get(k) {
                Some(s) if (s.start, s.end) == (tr.start, tr.end) => (k, t + k),
                _ => *own.entry((tr.start, tr.end)).or_insert_with(|| {
                    lanes.push((tr.start, tr.start ^ tr.end));
                    lanes.push((tr.end, 0));
                    (lanes.len() - 2, lanes.len() - 1)
                }),
            });
        }
    }
    let words = root_lanes(netlist, controller.num_vars(), &lanes);
    let passes = lanes.len().div_ceil(64);
    let mut pairs = pairs.into_iter();
    for (fi, spec) in specs.iter().enumerate() {
        // Whether function fi's value on `lane` can differ from `v`.
        let can_differ = |lane: usize, v: bool| {
            let w = words[fi * passes + lane / 64];
            (if v { w.can0 } else { w.can1 }) >> (lane % 64) & 1 == 1
        };
        for (tr, (mid, settle)) in spec.transitions().iter().zip(&mut pairs) {
            if tr.from == tr.to && can_differ(mid, tr.from) {
                out.push(HazardViolation::StaticGlitch {
                    function: covers[fi].0.clone(),
                    start: tr.start,
                    end: tr.end,
                });
            }
            if can_differ(settle, tr.to) {
                out.push(HazardViolation::WrongSettle {
                    function: covers[fi].0.clone(),
                    start: tr.start,
                    end: tr.end,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Library;
    use crate::map::{map, MapObjective, MapStyle};
    use crate::subject::SubjectGraph;
    use bmbe_bm::spec::{BmSpec, SignalDir};
    use bmbe_bm::synth::{synthesize, MinimizeMode};
    use bmbe_logic::{Cover, Cube};

    fn sequencer_spec() -> BmSpec {
        let mut s = BmSpec::new("sequencer");
        let pr = s.add_signal("p_r", SignalDir::Input);
        let a1a = s.add_signal("a1_a", SignalDir::Input);
        let a2a = s.add_signal("a2_a", SignalDir::Input);
        let pa = s.add_signal("p_a", SignalDir::Output);
        let a1r = s.add_signal("a1_r", SignalDir::Output);
        let a2r = s.add_signal("a2_r", SignalDir::Output);
        for _ in 0..6 {
            s.add_state();
        }
        s.add_arc(0, 1, &[(pr, true)], &[(a1r, true)]);
        s.add_arc(1, 2, &[(a1a, true)], &[(a1r, false)]);
        s.add_arc(2, 3, &[(a1a, false)], &[(a2r, true)]);
        s.add_arc(3, 4, &[(a2a, true)], &[(a2r, false)]);
        s.add_arc(4, 5, &[(a2a, false)], &[(pa, true)]);
        s.add_arc(5, 0, &[(pr, false)], &[(pa, false)]);
        s
    }

    #[test]
    fn sequencer_maps_hazard_free_in_both_styles() {
        let ctrl = synthesize(&sequencer_spec(), MinimizeMode::Speed).unwrap();
        let functions: Vec<(String, &Cover)> = ctrl
            .outputs
            .iter()
            .cloned()
            .chain((0..ctrl.num_state_bits).map(|j| format!("y{j}")))
            .zip(
                ctrl.output_covers
                    .iter()
                    .chain(ctrl.next_state_covers.iter()),
            )
            .collect();
        let subject = SubjectGraph::from_covers(ctrl.num_vars(), &functions);
        for style in [MapStyle::SplitModules, MapStyle::WholeController] {
            let m = map(&subject, &Library::cmos035(), MapObjective::Delay, style);
            let violations = verify_mapped(&ctrl, &m);
            assert!(violations.is_empty(), "{style:?}: {violations:?}");
        }
    }

    #[test]
    fn perturbed_next_state_cover_names_its_root() {
        let mut ctrl = synthesize(&sequencer_spec(), MinimizeMode::Speed).unwrap();
        assert!(ctrl.num_state_bits >= 2);
        let functions: Vec<(String, &Cover)> = ctrl
            .outputs
            .iter()
            .cloned()
            .chain((0..ctrl.num_state_bits).map(|j| format!("y{j}")))
            .zip(
                ctrl.output_covers
                    .iter()
                    .chain(ctrl.next_state_covers.iter()),
            )
            .collect();
        let subject = SubjectGraph::from_covers(ctrl.num_vars(), &functions);
        let m = map(
            &subject,
            &Library::cmos035(),
            MapObjective::Delay,
            MapStyle::SplitModules,
        );
        // Drop one product of next-state function 1 after mapping: the
        // netlist no longer implements the cover, and the witness must name
        // the mapped root `y1`.
        let cubes = ctrl.next_state_covers[1].cubes()[1..].to_vec();
        ctrl.next_state_covers[1] = Cover::from_cubes(cubes);
        match verify_mapped(&ctrl, &m).first() {
            Some(HazardViolation::NotEquivalent { function, .. }) => assert_eq!(function, "y1"),
            other => panic!("expected a y1 equivalence witness, got {other:?}"),
        }
    }

    #[test]
    fn ternary_detects_classic_static_hazard() {
        // Hand-build the hazardous 2-product consensus function and check
        // the ternary evaluator sees the X.
        let f: Cover = [Cube::parse("10-").unwrap(), Cube::parse("-11").unwrap()]
            .into_iter()
            .collect();
        let g = SubjectGraph::from_covers(3, &[("f".into(), &f)]);
        let m = map(
            &g,
            &Library::cmos035(),
            MapObjective::Area,
            MapStyle::WholeController,
        );
        let v = eval_ternary(&m, &[Tv::One, Tv::X, Tv::One]);
        assert_eq!(v[0], Tv::X);
        // With the consensus product the X disappears.
        let f2: Cover = [
            Cube::parse("10-").unwrap(),
            Cube::parse("-11").unwrap(),
            Cube::parse("1-1").unwrap(),
        ]
        .into_iter()
        .collect();
        let g2 = SubjectGraph::from_covers(3, &[("f".into(), &f2)]);
        let m2 = map(
            &g2,
            &Library::cmos035(),
            MapObjective::Area,
            MapStyle::WholeController,
        );
        let v2 = eval_ternary(&m2, &[Tv::One, Tv::X, Tv::One]);
        assert_eq!(v2[0], Tv::One);
    }
}
