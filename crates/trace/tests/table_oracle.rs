//! The dense transition table against the map-based store it replaced
//! (`support/delta_ref.rs`), on random build sequences: symbols added
//! before and after states (the table re-strides), transitions added and
//! overwritten, outgoing edges copied between states, and the initial
//! state moved. After every step both must hold the same alphabet, state
//! count, transition count and every transition; random traces must be
//! accepted alike.

#[path = "support/delta_ref.rs"]
mod delta_ref;

use bmbe_trace::{Dir, TraceStructure};
use delta_ref::RefStructure;

/// A small deterministic generator (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n.max(1) as u64) as usize
    }
}

/// Symbol names the sequences draw from, each with a fixed direction (a
/// name re-added finds its symbol).
const NAMES: [(&str, Dir); 8] = [
    ("a_r", Dir::Input),
    ("a_a", Dir::Output),
    ("b_r", Dir::Output),
    ("b_a", Dir::Input),
    ("c_r", Dir::Input),
    ("c_a", Dir::Output),
    ("d_r", Dir::Output),
    ("d_a", Dir::Input),
];

fn assert_same(t: &TraceStructure, r: &RefStructure, case: usize, step: usize) {
    let at = format!("case {case}, step {step}");
    assert_eq!(t.symbols(), &r.symbols[..], "{at}: alphabet");
    assert_eq!(t.num_states(), r.num_states, "{at}: states");
    assert_eq!(t.initial(), r.initial, "{at}: initial state");
    assert_eq!(
        t.num_transitions(),
        r.num_transitions(),
        "{at}: transitions"
    );
    // One state and one symbol past the end read as undefined.
    for s in 0..=t.num_states() {
        for x in 0..=t.symbols().len() {
            assert_eq!(
                t.transition(s, x),
                r.transition(s, x),
                "{at}: delta({s}, {x})"
            );
        }
    }
    for (name, _) in t.symbols() {
        assert_eq!(
            t.symbol_index(name),
            r.symbols.iter().position(|(n, _)| n == name),
            "{at}: index of {name}"
        );
    }
}

#[test]
fn dense_table_equals_the_map_reference_on_random_builds() {
    let mut rng = Lcg(0x7ab1e);
    let mut copies = 0;
    let mut restrides = 0;
    let mut overwrites = 0;
    for case in 0..2000 {
        let mut t = TraceStructure::new();
        let mut r = RefStructure::new();
        let steps = 1 + rng.below(40);
        for step in 0..steps {
            match rng.below(10) {
                0 | 1 => {
                    let (name, dir) = NAMES[rng.below(NAMES.len())];
                    if r.num_states > 1 && !r.symbols.iter().any(|(n, _)| n == name) {
                        restrides += 1;
                    }
                    let i = t.add_symbol(name, dir);
                    assert_eq!(i, r.add_symbol(name, dir), "case {case}: symbol index");
                }
                2 | 3 => {
                    assert_eq!(t.add_state(), r.add_state(), "case {case}: state index");
                }
                4..=7 if !r.symbols.is_empty() => {
                    let from = rng.below(r.num_states);
                    let sym = rng.below(r.symbols.len());
                    let to = rng.below(r.num_states);
                    if r.transition(from, sym).is_some() {
                        overwrites += 1;
                    }
                    t.add_transition(from, sym, to);
                    r.add_transition(from, sym, to);
                }
                8 => {
                    let from = rng.below(r.num_states);
                    let onto = rng.below(r.num_states);
                    t.copy_outgoing(from, onto);
                    r.copy_outgoing(from, onto);
                    copies += 1;
                }
                _ => {
                    let s = rng.below(r.num_states);
                    t.set_initial(s);
                    r.initial = s;
                }
            }
            assert_same(&t, &r, case, step);
        }
        for _ in 0..8 {
            if r.symbols.is_empty() {
                break;
            }
            let trace: Vec<usize> = (0..rng.below(6))
                .map(|_| rng.below(r.symbols.len()))
                .collect();
            let names: Vec<&str> = trace.iter().map(|&x| t.symbols()[x].0.as_str()).collect();
            assert_eq!(
                t.accepts(&names),
                Ok(r.accepts(&trace)),
                "case {case}: trace {names:?}"
            );
        }
    }
    assert!(copies > 1000, "{copies} copy_outgoing steps");
    assert!(restrides > 1000, "{restrides} symbols added after states");
    assert!(overwrites > 1000, "{overwrites} overwriting transitions");
}
