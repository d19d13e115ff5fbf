//! Hazard analysis of mapped controllers (§5 of the paper).
//!
//! Two independent checks stand in for the paper's "formally analysed for
//! hazard-freedom conditions":
//!
//! 1. **Functional equivalence** of the mapped netlist against the
//!    two-level covers — the algebraic transforms used by the mapper must
//!    not change the function. Checked cube-algebraically: exact (ON, OFF)
//!    covers are propagated through the mapped gates and compared to the
//!    synthesized covers by two-way containment, with the seed's pointwise
//!    sweep kept as oracle and fallback.
//! 2. **Eichelberger ternary simulation** of every specified
//!    multiple-input-change transition on the mapped gates: changing inputs
//!    are driven to `X`; a static transition that reads `X` at any output
//!    has a potential glitch, and every transition must settle at its
//!    specified final value.

use crate::cell::CellError;
use crate::map::MappedNetlist;
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
    /// The netlist contains a cell the analysis cannot evaluate (say, a
    /// stateful C-element leaked into a controller netlist); reported as a
    /// violation rather than crashing the analysis.
    Unevaluatable {
        /// Function name (or `"*"` when no single function is implicated).
        function: String,
        /// The underlying cell error.
        detail: String,
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
            HazardViolation::Unevaluatable { function, detail } => {
                write!(f, "{function}: netlist not analyzable: {detail}")
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

fn tv_and(a: Tv, b: Tv) -> Tv {
    match (a, b) {
        (Tv::Zero, _) | (_, Tv::Zero) => Tv::Zero,
        (Tv::One, Tv::One) => Tv::One,
        _ => Tv::X,
    }
}

fn tv_or(a: Tv, b: Tv) -> Tv {
    match (a, b) {
        (Tv::One, _) | (_, Tv::One) => Tv::One,
        (Tv::Zero, Tv::Zero) => Tv::Zero,
        _ => Tv::X,
    }
}

fn tv_not(a: Tv) -> Tv {
    match a {
        Tv::Zero => Tv::One,
        Tv::One => Tv::Zero,
        Tv::X => Tv::X,
    }
}

/// Ternary evaluation of a mapped netlist; returns root values in root
/// order.
///
/// # Panics
///
/// Panics where [`try_eval_ternary`] errors; [`verify_mapped`] uses the
/// fallible form and reports instead.
pub fn eval_ternary(netlist: &MappedNetlist, inputs: &[Tv]) -> Vec<Tv> {
    try_eval_ternary(netlist, inputs).unwrap_or_else(|e| panic!("{e}"))
}

/// Ternary evaluation with a typed error for cells the analysis cannot
/// evaluate (the stateful C-element).
///
/// # Errors
///
/// The first unevaluatable gate, in topological order.
pub fn try_eval_ternary(netlist: &MappedNetlist, inputs: &[Tv]) -> Result<Vec<Tv>, CellError> {
    use crate::cell::CellKind;
    use crate::subject::SubjectNode;
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
    for g in &netlist.gates {
        let ins = &g.inputs;
        let v = |k: usize| values[ins[k]];
        let out = match g.cell {
            CellKind::Inv => tv_not(v(0)),
            CellKind::Buf => v(0),
            CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => {
                tv_not(ins.iter().map(|&n| values[n]).fold(Tv::One, tv_and))
            }
            CellKind::And2 => tv_and(v(0), v(1)),
            CellKind::Or2 => tv_or(v(0), v(1)),
            CellKind::Nor2 => tv_not(tv_or(v(0), v(1))),
            CellKind::Ao21 => tv_or(tv_and(v(0), v(1)), v(2)),
            CellKind::Ao22 => tv_or(tv_and(v(0), v(1)), tv_and(v(2), v(3))),
            CellKind::Tie0 => Tv::Zero,
            CellKind::Tie1 => Tv::One,
            CellKind::Celem2 => return Err(CellError::Stateful(CellKind::Celem2)),
        };
        values[g.output] = out;
    }
    Ok(netlist
        .subject
        .roots
        .iter()
        .map(|(_, r)| values[*r])
        .collect())
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

/// Exact (ON, OFF) covers of every root of the mapped netlist, built by
/// propagating cube covers through the gates — each input starts with the
/// complementary pair `(x_i, !x_i)`, and every supported cell preserves the
/// pair exactly (AND intersects ON covers and unions OFF covers; OR is the
/// dual; inversion swaps). Returns `None` when a cover exceeds
/// [`ALGEBRAIC_CUBE_CAP`].
fn netlist_root_covers(netlist: &MappedNetlist, n: usize) -> Option<Vec<Cover>> {
    use crate::cell::CellKind;
    use crate::subject::SubjectNode;
    let universe = || Cover::from_cubes(vec![Cube::universe(n)]);
    let mut values: HashMap<usize, (Cover, Cover)> = HashMap::new();
    for i in 0..netlist.subject.num_inputs {
        let on = Cover::from_cubes(vec![Cube::universe(n).with_fixed(i, true)]);
        let off = Cover::from_cubes(vec![Cube::universe(n).with_fixed(i, false)]);
        values.insert(i, (on, off));
    }
    for (i, node) in netlist.subject.nodes.iter().enumerate() {
        match node {
            SubjectNode::Zero => {
                values.insert(i, (Cover::empty(), universe()));
            }
            SubjectNode::One => {
                values.insert(i, (universe(), Cover::empty()));
            }
            _ => {}
        }
    }
    let and_all = |ins: &[&(Cover, Cover)]| -> Option<(Cover, Cover)> {
        let mut on = universe();
        let mut off = Cover::empty();
        for (i_on, i_off) in ins {
            on = cover_and(&on, i_on)?;
            off = cover_or(&off, i_off)?;
        }
        Some((on, off))
    };
    for g in &netlist.gates {
        let ins: Vec<&(Cover, Cover)> = g.inputs.iter().map(|n| &values[n]).collect();
        let out = match g.cell {
            CellKind::Inv => (ins[0].1.clone(), ins[0].0.clone()),
            CellKind::Buf => ins[0].clone(),
            CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => {
                let (on, off) = and_all(&ins)?;
                (off, on)
            }
            CellKind::And2 => and_all(&ins)?,
            CellKind::Or2 => (
                cover_or(&ins[0].0, &ins[1].0)?,
                cover_and(&ins[0].1, &ins[1].1)?,
            ),
            CellKind::Nor2 => (
                cover_and(&ins[0].1, &ins[1].1)?,
                cover_or(&ins[0].0, &ins[1].0)?,
            ),
            CellKind::Ao21 => {
                let (and_on, and_off) = and_all(&ins[..2])?;
                (
                    cover_or(&and_on, &ins[2].0)?,
                    cover_and(&and_off, &ins[2].1)?,
                )
            }
            CellKind::Ao22 => {
                let (a_on, a_off) = and_all(&ins[..2])?;
                let (b_on, b_off) = and_all(&ins[2..])?;
                (cover_or(&a_on, &b_on)?, cover_and(&a_off, &b_off)?)
            }
            CellKind::Tie0 => (Cover::empty(), universe()),
            CellKind::Tie1 => (universe(), Cover::empty()),
            // No cube-cover semantics for the stateful C-element; bail to
            // the pointwise fallback, which reports a typed violation.
            CellKind::Celem2 => return None,
        };
        values.insert(g.output, out);
    }
    Some(
        netlist
            .subject
            .roots
            .iter()
            .map(|(_, r)| values[r].0.clone())
            .collect(),
    )
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
        // Deterministic sample.
        let mut seed = 0x2545f4914f6cdd1du64;
        (0..1u64 << 12)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed & ((1u64 << n) - 1)
            })
            .collect()
    };
    for &p in &points {
        let mapped = match netlist.try_eval(p) {
            Ok(values) => values,
            Err(e) => {
                return Some(HazardViolation::Unevaluatable {
                    function: "*".to_string(),
                    detail: e.to_string(),
                })
            }
        };
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

/// Verifies a mapped controller: functional equivalence against the
/// synthesized covers and Eichelberger ternary analysis of every specified
/// transition. Returns all violations found (empty = clean).
pub fn verify_mapped(controller: &Controller, netlist: &MappedNetlist) -> Vec<HazardViolation> {
    let mut out = Vec::new();
    let n = controller.num_vars();
    let covers = named_covers(controller);
    // 1. Functional equivalence (cube-algebraic; exact for all n, unlike
    //    the sampled pointwise sweep it replaced beyond 14 variables).
    if let Some(v) = verify_equivalence_algebraic(controller, netlist) {
        out.push(v);
        return out; // one witness suffices
    }
    // 2. Ternary transition analysis. The per-function specs share their
    //    (start, end) bursts, and one netlist evaluation yields every root,
    //    so each unique burst is simulated once and each unique settle
    //    point once — not once per function.
    let mut mid_memo: HashMap<(u64, u64), Result<Vec<Tv>, CellError>> = HashMap::new();
    let mut fin_memo: HashMap<u64, Result<Vec<Tv>, CellError>> = HashMap::new();
    for (fi, spec) in controller.function_specs.iter().enumerate() {
        let name = covers[fi].0.to_string();
        for t in spec.transitions() {
            let changing = t.start ^ t.end;
            let mids = mid_memo.entry((t.start, changing)).or_insert_with(|| {
                let mid: Vec<Tv> = (0..n)
                    .map(|i| {
                        if changing >> i & 1 == 1 {
                            Tv::X
                        } else {
                            Tv::from_bool(t.start >> i & 1 == 1)
                        }
                    })
                    .collect();
                try_eval_ternary(netlist, &mid)
            });
            let mids = match mids {
                Ok(values) => values,
                Err(e) => {
                    out.push(HazardViolation::Unevaluatable {
                        function: name,
                        detail: e.to_string(),
                    });
                    return out; // the netlist itself is broken; stop here
                }
            };
            if t.from == t.to && mids[fi] != Tv::from_bool(t.from) {
                out.push(HazardViolation::StaticGlitch {
                    function: name.clone(),
                    start: t.start,
                    end: t.end,
                });
            }
            let fins = fin_memo.entry(t.end).or_insert_with(|| {
                let fin: Vec<Tv> = (0..n).map(|i| Tv::from_bool(t.end >> i & 1 == 1)).collect();
                try_eval_ternary(netlist, &fin)
            });
            let fins = match fins {
                Ok(values) => values,
                Err(e) => {
                    out.push(HazardViolation::Unevaluatable {
                        function: name,
                        detail: e.to_string(),
                    });
                    return out;
                }
            };
            if fins[fi] != Tv::from_bool(t.to) {
                out.push(HazardViolation::WrongSettle {
                    function: name.clone(),
                    start: t.start,
                    end: t.end,
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
    fn stateful_cell_reports_instead_of_crashing() {
        use crate::cell::CellKind;
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
        let mut m = map(
            &subject,
            &Library::cmos035(),
            MapObjective::Delay,
            MapStyle::SplitModules,
        );
        // Corrupt the netlist: turn a two-input gate into a C-element, as
        // if a datapath cell leaked into the controller.
        let g = m
            .gates
            .iter_mut()
            .find(|g| g.inputs.len() == 2)
            .expect("some two-input gate");
        g.cell = CellKind::Celem2;
        let violations = verify_mapped(&ctrl, &m);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, HazardViolation::Unevaluatable { .. })),
            "{violations:?}"
        );
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
