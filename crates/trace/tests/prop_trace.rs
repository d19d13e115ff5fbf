//! Property-based tests of the trace-structure engine.

use bmbe_trace::{Dir, HiddenComposition, TraceStructure};
use proptest::prelude::*;

/// A random small deterministic trace structure: a handful of states with
/// transitions over a fixed 4-symbol alphabet (2 in, 2 out).
fn arb_ts() -> impl Strategy<Value = TraceStructure> {
    let states = 1usize..5;
    (
        states,
        proptest::collection::vec((0usize..4, 0usize..4, 0usize..4), 0..12),
    )
        .prop_map(|(n, edges)| {
            let mut t = TraceStructure::new();
            let i0 = t.add_symbol("i0", Dir::Input);
            let i1 = t.add_symbol("i1", Dir::Input);
            let o0 = t.add_symbol("o0", Dir::Output);
            let o1 = t.add_symbol("o1", Dir::Output);
            let syms = [i0, i1, o0, o1];
            for _ in 1..n {
                t.add_state();
            }
            for (from, sym, to) in edges {
                t.add_transition(from % n, syms[sym], to % n);
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conformance is reflexive: every module can substitute for itself.
    #[test]
    fn conformance_is_reflexive(t in arb_ts()) {
        prop_assert!(t.conforms_to(&t).expect("same alphabet"));
    }

    /// Mirroring twice is the identity on directions.
    #[test]
    fn mirror_is_an_involution(t in arb_ts()) {
        let mm = t.mirror().mirror();
        for (a, b) in t.symbols().iter().zip(mm.symbols()) {
            prop_assert_eq!(a, b);
        }
    }

    /// Hiding all output symbols keeps input-only acceptance consistent:
    /// any accepted visible trace of the original stays accepted.
    #[test]
    fn hiding_preserves_visible_acceptance(t in arb_ts()) {
        let hidden = t.hide(&["o0", "o1"]).expect("outputs are hidable");
        // A couple of short input-only traces.
        for trace in [vec!["i0"], vec!["i1"], vec!["i0", "i1"]] {
            if t.accepts(&trace).expect("alphabet") {
                prop_assert!(hidden.accepts(&trace).expect("alphabet"),
                    "hidden structure lost trace {trace:?}");
            }
        }
    }

    /// Composition with a universal partner (accepts everything) never
    /// introduces output-choke failures.
    #[test]
    fn composing_with_chaos_is_failure_free(t in arb_ts()) {
        // Chaos: one state, accepts every symbol as INPUT (it never drives).
        let mut chaos = TraceStructure::new();
        for (name, _) in t.symbols().to_vec() {
            let s = chaos.add_symbol(name, Dir::Input);
            chaos.add_transition(0, s, 0);
        }
        // Output conflicts can't happen: chaos only has inputs.
        let composite = t.compose(&chaos).expect("no conflicts");
        prop_assert!(!composite.failure_reachable);
    }

    /// On-the-fly conformance reaches the same verdict as the materialized
    /// product, and yields a witness exactly when it rejects.
    #[test]
    fn otf_conformance_agrees_with_materialized(a in arb_ts(), b in arb_ts()) {
        let otf = a.conforms_to_otf(&b).expect("same alphabet");
        let materialized = a.conforms_to(&b).expect("same alphabet");
        prop_assert_eq!(otf.ok, materialized);
        prop_assert_eq!(otf.ok, otf.counterexample.is_none());
        if let Some(witness) = &otf.counterexample {
            prop_assert!(!witness.is_empty());
        }
    }

    /// On-the-fly failure search agrees with materialized composition on
    /// failure reachability and never explores more states than the
    /// materialized composite holds.
    #[test]
    fn otf_failure_search_agrees_with_compose(a in arb_ts(), b in arb_ts()) {
        // Mirror one side so the alphabets are complementary (composing two
        // structures that both drive o0/o1 is an output conflict).
        let partner = b.mirror();
        let otf = a.failure_search(&partner).expect("complementary alphabets");
        let composite = a.compose(&partner).expect("complementary alphabets");
        prop_assert_eq!(otf.ok, !composite.failure_reachable);
        prop_assert!(otf.states_visited <= composite.structure.num_states());
    }
}

/// A random trace structure over a caller-chosen alphabet.
fn arb_ts_over(symbols: Vec<(&'static str, Dir)>) -> impl Strategy<Value = TraceStructure> {
    let k = symbols.len();
    (
        1usize..5,
        proptest::collection::vec((0usize..4, 0usize..k, 0usize..4), 0..12),
    )
        .prop_map(move |(n, edges)| {
            let mut t = TraceStructure::new();
            let syms: Vec<usize> = symbols
                .iter()
                .map(|&(name, dir)| t.add_symbol(name, dir))
                .collect();
            for _ in 1..n {
                t.add_state();
            }
            for (from, sym, to) in edges {
                t.add_transition(from % n, syms[sym], to % n);
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lazy hidden composition reaches the same conformance verdicts in
    /// both directions as materializing compose + hide.
    #[test]
    fn lazy_pipeline_agrees_with_materialized(
        a in arb_ts_over(vec![("i", Dir::Input), ("m", Dir::Output)]),
        b in arb_ts_over(vec![("m", Dir::Input), ("o", Dir::Output)]),
        spec in arb_ts_over(vec![("i", Dir::Input), ("o", Dir::Output)]),
    ) {
        let mut hc = HiddenComposition::new(&a, &b, &["m"]).expect("composable");
        let fwd = hc.conforms_to(&spec).expect("matching alphabet");
        let bwd = hc.conformed_by(&spec).expect("matching alphabet");

        let hidden = a
            .compose(&b)
            .expect("composable")
            .structure
            .hide(&["m"])
            .expect("m is a composite output");
        prop_assert_eq!(fwd.ok, hidden.conforms_to(&spec).expect("matching alphabet"));
        prop_assert_eq!(bwd.ok, spec.conforms_to(&hidden).expect("matching alphabet"));
        prop_assert!(hc.subset_states() >= 1, "at least the initial subset is interned");
    }
}
