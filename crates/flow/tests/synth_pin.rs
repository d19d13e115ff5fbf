//! Pins controller synthesis on a fixed shape set: every distinct
//! controller shape of the four shipped paper designs plus the first 64
//! corpus designs of seed 11, taken after CH→BMS compilation and state
//! minimization. The digest covers every output and next-state cover cube
//! by cube, the state codes, the state-bit count and the exactness flag,
//! so any change to a prime pick, a covering choice or a state code moves
//! it. The same shape set checks the bitset state assignment against the
//! column-folding greedy it replaced, at both separation levels, pins the
//! technology mapper's netlists under both subject builders, both map
//! styles and both objectives, and checks `verify_mapped`'s lane analysis
//! against the per-point loop on every shape and on broken variants.

#[path = "../../gates/tests/support/per_point.rs"]
mod per_point;

use bmbe_bm::assign::{
    assign_with, dichotomies_with, AssignError, Dichotomy, Separation, StateAssignment,
};
use bmbe_bm::spec::{BmSpec, SignalDir};
use bmbe_bm::statemin::minimize_states;
use bmbe_bm::synth::{synthesize_full, Controller, MinimizeMode};
use bmbe_core::{balsa_to_ch, compile_to_bm, ClusterOptions};
use bmbe_designs::{all_designs, generate_corpus, CorpusSpec};
use bmbe_flow::KeyedProgram;
use bmbe_gates::{
    map, verify_mapped, HazardViolation, Library, MapObjective, MapStyle, MappedNetlist,
    SubjectGraph,
};
use bmbe_logic::hfmin::{FunctionSpec, MinimizeBackend, MinimizeOptions, SpecTransition};
use bmbe_logic::Cover;
use per_point::verify_mapped_per_point;
use std::collections::HashSet;

/// Recorded with the sorted-mask EXPAND, the per-variable ternary check
/// and the column-cloning state assignment, which the current code must
/// reproduce exactly.
const PINNED: u64 = 0xc529_f0a4_e9db_e190;

/// FNV-1a, 64-bit: a hash whose value is fixed by its definition, unlike
/// the standard library's hashers.
struct Fnv(u64);

impl Fnv {
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }
}

/// The post-statemin specification of every distinct shape, in first-seen
/// order over the paper designs and then the corpus slice.
fn shape_specs() -> Vec<BmSpec> {
    let paper = all_designs().expect("shipped designs build");
    let corpus = generate_corpus(&CorpusSpec {
        seed: 11,
        designs: 64,
    })
    .expect("corpus builds");
    let netlists = paper
        .iter()
        .map(|d| &d.compiled)
        .chain(corpus.iter().map(|d| &d.compiled));
    let mut seen = HashSet::new();
    let mut specs = Vec::new();
    for compiled in netlists {
        let mut ctrl = balsa_to_ch(&compiled.netlist).expect("designs translate");
        ctrl.t2_clustering(&ClusterOptions::default());
        for c in &ctrl.components {
            let keyed = KeyedProgram::new(
                &c.program,
                MinimizeMode::Speed,
                MinimizeBackend::default(),
                MapObjective::Delay,
                MapStyle::SplitModules,
            );
            if !seen.insert(keyed.key.canonical.clone()) {
                continue;
            }
            let spec = compile_to_bm("shape", &keyed.canonical).expect("shapes compile");
            specs.push(minimize_states(&spec).expect("statemin succeeds").spec);
        }
    }
    specs
}

fn absorb(h: &mut Fnv, ctrl: &Controller) {
    h.word(ctrl.num_state_bits as u64);
    h.word(u64::from(ctrl.exact));
    h.word(ctrl.assignment.codes.len() as u64);
    for &code in &ctrl.assignment.codes {
        h.word(code);
    }
    for cover in ctrl.output_covers.iter().chain(&ctrl.next_state_covers) {
        h.word(cover.len() as u64);
        for c in cover.cubes() {
            h.word(c.care_mask());
            h.word(c.value_mask());
        }
    }
}

#[test]
fn synthesis_of_paper_designs_and_corpus_slice_is_pinned() {
    let specs = shape_specs();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut functions, mut products) = (0, 0);
    for spec in &specs {
        let ctrl = synthesize_full(spec, MinimizeMode::Speed, 1, &MinimizeOptions::default())
            .expect("shapes synthesize");
        functions += ctrl.output_covers.len() + ctrl.next_state_covers.len();
        products += ctrl.num_products();
        absorb(&mut h, &ctrl);
    }
    assert_eq!(
        h.0,
        PINNED,
        "synthesis digest {:#018x} ({} shapes, {functions} functions, {products} products)",
        h.0,
        specs.len()
    );
}

/// Recorded with the all-nodes boundary scan in `map`, which the
/// one-pass edge marking must reproduce exactly.
const MAPPED_PINNED: u64 = 0x44e7_18ed_9135_bf5d;

fn synthesized_shapes() -> Vec<Controller> {
    shape_specs()
        .iter()
        .map(|spec| {
            synthesize_full(spec, MinimizeMode::Speed, 1, &MinimizeOptions::default())
                .expect("shapes synthesize")
        })
        .collect()
}

/// The subject graph of `ctrl`'s covers, private or shared products.
fn subject_of(ctrl: &Controller, shared: bool) -> SubjectGraph {
    let functions: Vec<(String, &Cover)> = (ctrl.outputs.iter().cloned())
        .chain((0..ctrl.num_state_bits).map(|j| format!("y{j}")))
        .zip(ctrl.output_covers.iter().chain(&ctrl.next_state_covers))
        .collect();
    if shared {
        SubjectGraph::from_covers_shared(ctrl.num_vars(), &functions)
    } else {
        SubjectGraph::from_covers(ctrl.num_vars(), &functions)
    }
}

fn absorb_mapped(h: &mut Fnv, m: &MappedNetlist) {
    h.word(m.gates.len() as u64);
    for g in &m.gates {
        h.text(g.cell.name());
        h.word(g.inputs.len() as u64);
        for &i in &g.inputs {
            h.word(i as u64);
        }
        h.word(g.output as u64);
    }
    h.word(m.area.to_bits());
    let mut delays: Vec<(&String, &f64)> = m.output_delays.iter().collect();
    delays.sort_by(|a, b| a.0.cmp(b.0));
    for (root, delay) in delays {
        h.text(root);
        h.word(delay.to_bits());
    }
}

#[test]
fn mapping_of_paper_designs_and_corpus_slice_is_pinned() {
    let library = Library::cmos035();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut netlists, mut cells) = (0, 0);
    for ctrl in &synthesized_shapes() {
        for shared in [false, true] {
            let subject = subject_of(ctrl, shared);
            for style in [MapStyle::SplitModules, MapStyle::WholeController] {
                for objective in [MapObjective::Delay, MapObjective::Area] {
                    let m = map(&subject, &library, objective, style);
                    netlists += 1;
                    cells += m.num_cells();
                    absorb_mapped(&mut h, &m);
                }
            }
        }
    }
    assert_eq!(
        h.0, MAPPED_PINNED,
        "mapping digest {:#018x} ({netlists} netlists, {cells} cells)",
        h.0
    );
}

/// `spec` with its transitions rewritten by `f`.
fn rewritten(
    spec: &FunctionSpec,
    f: impl Fn(&[SpecTransition]) -> Vec<SpecTransition>,
) -> FunctionSpec {
    let mut out = FunctionSpec::new(spec.num_vars());
    for t in f(spec.transitions()) {
        out.add_transition(t);
    }
    out
}

fn flipped(t: &SpecTransition) -> SpecTransition {
    SpecTransition {
        from: !t.from,
        to: !t.to,
        ..*t
    }
}

/// Broken variants of a clean controller: a dropped cube, every `from`/`to`
/// of the last function flipped, and the last function's transitions
/// reversed with every other one flipped, so they leave their lane slots
/// and still report.
fn mutants(ctrl: &Controller) -> Vec<Controller> {
    let mut out = Vec::new();
    let mut dropped = ctrl.clone();
    if let Some(cover) = (dropped.output_covers.iter_mut())
        .chain(&mut dropped.next_state_covers)
        .max_by_key(|c| c.len())
        .filter(|c| !c.is_empty())
    {
        *cover = Cover::from_cubes(cover.cubes()[1..].to_vec());
        out.push(dropped);
    }
    if let Some(last) = ctrl.function_specs.len().checked_sub(1) {
        let mut flip = ctrl.clone();
        flip.function_specs[last] = rewritten(&ctrl.function_specs[last], |ts| {
            ts.iter().map(flipped).collect()
        });
        out.push(flip);
        let mut reversed = ctrl.clone();
        reversed.function_specs[last] = rewritten(&ctrl.function_specs[last], |ts| {
            (ts.iter().rev().enumerate())
                .map(|(k, t)| if k % 2 == 0 { flipped(t) } else { *t })
                .collect()
        });
        out.push(reversed);
    }
    out
}

#[test]
fn lane_hazard_analysis_equals_the_per_point_loop_on_every_shape() {
    let library = Library::cmos035();
    let (mut kinds, mut off_slot) = ([0usize; 3], 0);
    for ctrl in &synthesized_shapes() {
        let configs = [
            (false, MapStyle::SplitModules, MapObjective::Delay),
            (true, MapStyle::WholeController, MapObjective::Area),
        ];
        for (shared, style, objective) in configs {
            let netlist = map(&subject_of(ctrl, shared), &library, objective, style);
            let mut cases = vec![(ctrl.clone(), &netlist)];
            cases.extend(mutants(ctrl).into_iter().map(|m| (m, &netlist)));
            for (c, m) in &cases {
                let lanes = verify_mapped(c, m);
                assert_eq!(lanes, verify_mapped_per_point(c, m), "{}", c.name);
                for v in &lanes {
                    kinds[match v {
                        HazardViolation::NotEquivalent { .. } => 0,
                        HazardViolation::StaticGlitch { .. } => 1,
                        HazardViolation::WrongSettle { .. } => 2,
                    }] += 1;
                }
                off_slot += off_slot_transitions(c);
            }
        }
    }
    assert!(kinds.iter().all(|&k| k > 0), "violation kinds {kinds:?}");
    assert!(off_slot > 0, "no transition left its lane slot");
}

/// Transitions whose `(start, end)` differs from the first function's at
/// the same index: the ones `verify_mapped` gives lanes of their own.
fn off_slot_transitions(ctrl: &Controller) -> usize {
    let slots = ctrl
        .function_specs
        .first()
        .map_or(&[][..], |s| s.transitions());
    (ctrl.function_specs.iter())
        .flat_map(|s| s.transitions().iter().enumerate())
        .filter(|(k, t)| slots.get(*k).map(|s| (s.start, s.end)) != Some((t.start, t.end)))
        .count()
}

/// Synthesis gives every function of a controller the same `(start, end)`
/// sequence, so `verify_mapped` evaluates each burst point once for all
/// functions. Not a correctness condition (other transitions get lanes of
/// their own), but the lane layout is sized for it.
#[test]
fn every_function_of_a_shape_lists_the_same_bursts() {
    for ctrl in &synthesized_shapes() {
        assert_eq!(off_slot_transitions(ctrl), 0, "{}", ctrl.name);
    }
}

/// The column-folding greedy the bitset assignment replaced, kept as its
/// oracle: each column is a vector of optional state values, cloned for
/// every fold attempt. Column `j` lands on code bit `j mod 64`, as in the
/// bitset version; only assignments wider than 64 bits, which synthesis
/// rejects, see the wrap.
fn assign_reference(spec: &BmSpec, separation: Separation) -> Result<StateAssignment, AssignError> {
    let n = spec.num_states();
    if n <= 1 {
        return Ok(StateAssignment {
            num_bits: 0,
            codes: vec![0; n],
        });
    }
    let all = dichotomies_with(spec, separation)?;
    let mut unsat: Vec<&Dichotomy> = all.iter().collect();
    let mut columns: Vec<Vec<Option<bool>>> = Vec::new();
    let codes_of = |columns: &[Vec<Option<bool>>]| -> Vec<u64> {
        (0..n)
            .map(|s| {
                columns.iter().enumerate().fold(0u64, |acc, (bit, c)| {
                    acc | ((c[s] == Some(true)) as u64).wrapping_shl(bit as u32)
                })
            })
            .collect()
    };
    while !unsat.is_empty() {
        let mut col: Vec<Option<bool>> = vec![None; n];
        let seed = unsat[0];
        for &s in &seed.left {
            col[s] = Some(false);
        }
        for &s in &seed.right {
            col[s] = Some(true);
        }
        let mut satisfied_now: Vec<usize> = vec![0];
        for (di, d) in unsat.iter().enumerate().skip(1) {
            if let Some(newcol) = try_fold(&col, d) {
                col = newcol;
                satisfied_now.push(di);
            }
        }
        columns.push(col.iter().map(|v| Some(v.unwrap_or(false))).collect());
        unsat = unsat
            .iter()
            .enumerate()
            .filter(|(i, _)| !satisfied_now.contains(i))
            .map(|(_, d)| *d)
            .collect();
        // Drop the dichotomies the completed column separates (zero
        // completion may have separated extra ones).
        let column = columns.last().expect("a column was just pushed");
        let all_at = |states: &std::collections::BTreeSet<usize>, v: bool| {
            states.iter().all(|&s| column[s] == Some(v))
        };
        unsat.retain(|d| {
            !((all_at(&d.left, false) && all_at(&d.right, true))
                || (all_at(&d.left, true) && all_at(&d.right, false)))
        });
    }
    Ok(StateAssignment {
        num_bits: columns.len(),
        codes: codes_of(&columns),
    })
}

fn try_fold(col: &[Option<bool>], d: &Dichotomy) -> Option<Vec<Option<bool>>> {
    for orientation in [false, true] {
        let mut c = col.to_vec();
        let mut ok = true;
        for &s in &d.left {
            match c[s] {
                None => c[s] = Some(orientation),
                Some(v) if v == orientation => {}
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            for &s in &d.right {
                match c[s] {
                    None => c[s] = Some(!orientation),
                    Some(v) if v == !orientation => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok {
            return Some(c);
        }
    }
    None
}

fn assert_matches_reference(spec: &BmSpec) {
    for separation in [Separation::Conflicts, Separation::AllArcs] {
        let fast = assign_with(spec, separation);
        assert_eq!(
            fast,
            assign_reference(spec, separation),
            "{} at {separation:?}",
            spec.name()
        );
        if let Some(a) = fast.ok().filter(|a| a.num_bits <= 64) {
            for d in dichotomies_with(spec, separation).expect("dichotomies build") {
                assert!(a.satisfies(&d), "{} at {separation:?}", spec.name());
            }
        }
    }
}

#[test]
fn bitset_assignment_matches_the_folding_greedy_on_every_shape() {
    for spec in &shape_specs() {
        assert_matches_reference(spec);
    }
}

/// A four-phase token ring of `n` states (`a+ / x+`, `b+ / y+`, `a- / x-`,
/// `b- / y-`): every arc of one phase shares its post-burst input vector,
/// so the Tracey constraints span the whole ring.
fn ring(n: usize) -> BmSpec {
    let mut s = BmSpec::new("ring");
    let a = s.add_signal("a", SignalDir::Input);
    let b = s.add_signal("b", SignalDir::Input);
    let x = s.add_signal("x", SignalDir::Output);
    let y = s.add_signal("y", SignalDir::Output);
    for _ in 0..n {
        s.add_state();
    }
    for i in 0..n {
        let (input, output, rising) = match i % 4 {
            0 => (a, x, true),
            1 => (b, y, true),
            2 => (a, x, false),
            _ => (b, y, false),
        };
        s.add_arc(i, (i + 1) % n, &[(input, rising)], &[(output, rising)]);
    }
    s
}

/// 72 states take two words per state set. At `Conflicts` the ring needs
/// a few dozen state bits; at `AllArcs` the greedy needs more than the 64 a
/// code holds, which synthesis rejects as too many variables, but the
/// greedy must still take the same steps.
#[test]
fn bitset_assignment_spans_more_than_64_states() {
    let spec = ring(72);
    assert!(spec.num_states() > 64);
    assert_matches_reference(&spec);
    let a = assign_with(&spec, Separation::Conflicts).expect("the ring is assignable");
    assert!(a.num_bits <= 64);
    let mut codes = a.codes.clone();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(codes.len(), 72, "state codes must be distinct");
    let wide = assign_with(&spec, Separation::AllArcs).expect("the ring is assignable");
    assert!(wide.num_bits > 64, "{} bits", wide.num_bits);
}
