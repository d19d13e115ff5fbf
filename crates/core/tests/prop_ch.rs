//! Property-based tests of the CH language: random Burst-Mode aware
//! programs must expand, print/parse roundtrip, compile to valid
//! Burst-Mode machines, and synthesize hazard-free.

use bmbe_bm::synth::{synthesize, MinimizeMode};
use bmbe_core::ast::{check_bm_aware, ChActivity};
use bmbe_core::compile::compile_to_bm;
use bmbe_core::expand::expand;
use bmbe_core::parse::{parse_ch, print_ch};
use proptest::prelude::*;

mod support;
use support::arb_component;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_components_are_bm_aware(e in arb_component()) {
        prop_assert!(check_bm_aware(&e).is_ok());
    }

    #[test]
    fn expansion_has_four_events(e in arb_component()) {
        let x = expand(&e).expect("BM-aware programs expand");
        prop_assert_eq!(x.events.len(), 4);
        // Every transition's signal comes from a declared channel.
        let channels = e.channels();
        for t in x.transitions() {
            let wire = x.wire_name(&t);
            let chan = wire.rsplit_once('_').expect("wire names are chan_suffix").0;
            prop_assert!(channels.contains_key(chan), "{}", wire);
        }
    }

    #[test]
    fn print_parse_roundtrip(e in arb_component()) {
        let text = print_ch(&e);
        let back = parse_ch(&text).expect("printer emits valid syntax");
        prop_assert_eq!(back, e);
    }

    #[test]
    fn compile_yields_valid_bm(e in arb_component()) {
        let spec = compile_to_bm("prop", &e).expect("BM-aware programs compile");
        // compile_to_bm validates internally; sanity-check shape here.
        prop_assert!(spec.num_states() >= 2);
        prop_assert!(!spec.arcs().is_empty());
    }

    #[test]
    fn synthesis_is_hazard_free(e in arb_component()) {
        let spec = compile_to_bm("prop", &e).expect("compiles");
        if spec.signals().len() > 16 {
            return Ok(()); // keep the property fast
        }
        let ctrl = synthesize(&spec, MinimizeMode::Speed).expect("synthesizes");
        prop_assert!(ctrl.verify_ternary().is_ok());
    }

    #[test]
    fn activity_of_components_is_passive(e in arb_component()) {
        prop_assert_eq!(e.activity(), ChActivity::Passive);
    }
}
