//! Pins controller synthesis on a fixed shape set: every distinct
//! controller shape of the four shipped paper designs plus the first 64
//! corpus designs of seed 11, taken after CH→BMS compilation and state
//! minimization. The digest covers every output and next-state cover cube
//! by cube, the state codes, the state-bit count and the exactness flag,
//! so any change to a prime pick, a covering choice or a state code moves
//! it. The same shape set checks the bitset state assignment against the
//! column-folding greedy it replaced, at both separation levels.

use bmbe_bm::assign::{
    assign_with, dichotomies_with, AssignError, Dichotomy, Separation, StateAssignment,
};
use bmbe_bm::spec::{BmSpec, SignalDir};
use bmbe_bm::statemin::minimize_states;
use bmbe_bm::synth::{synthesize_full, Controller, MinimizeMode};
use bmbe_core::{balsa_to_ch, compile_to_bm, ClusterOptions};
use bmbe_designs::{all_designs, generate_corpus, CorpusSpec};
use bmbe_flow::KeyedProgram;
use bmbe_gates::{MapObjective, MapStyle};
use bmbe_logic::hfmin::{MinimizeBackend, MinimizeOptions};
use std::collections::HashSet;

/// Recorded with the sorted-mask EXPAND, the per-variable ternary check
/// and the column-cloning state assignment, which the current code must
/// reproduce exactly.
const PINNED: u64 = 0xc529_f0a4_e9db_e190;

/// FNV-1a, 64-bit: a hash whose value is fixed by its definition, unlike
/// the standard library's hashers.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
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
