//! Round-trip property tests for the generated design corpus: every
//! program any family (or the random generator) emits must parse, compile
//! through the front end, and synthesize crash-free at small sizes — and
//! the production flow must be digest-identical to the serial per-instance
//! reference at 1 and 4 worker threads, the determinism equality the repo
//! pins for the shipped designs (the gauntlet's `serial_vs_parallel` pair,
//! as a property test).

use bmbe_designs::corpus::{
    call_tree, generate_corpus, pipeline, random_design, token_ring, wagging_chain, CorpusSpec,
    GeneratedDesign,
};
use bmbe_flow::{reference_flow, run_control_flow_with, ControllerCache, FlowOptions, FlowResult};
use bmbe_gates::Library;
use proptest::prelude::*;

fn options_at(threads: usize) -> FlowOptions {
    FlowOptions {
        threads: Some(threads),
        ..FlowOptions::optimized()
    }
}

/// The production flow over a private cache.
fn flow_at(design: &GeneratedDesign, threads: usize) -> FlowResult {
    let library = Library::cmos035();
    let cache = ControllerCache::new();
    run_control_flow_with(&design.compiled, &options_at(threads), &library, &cache)
        .unwrap_or_else(|e| panic!("{}: flow failed at {threads} threads: {e}", design.name))
}

fn assert_identical(design: &GeneratedDesign, a: &FlowResult, b: &FlowResult) {
    assert_eq!(a.controllers.len(), b.controllers.len(), "{}", design.name);
    assert_eq!(a.total_products(), b.total_products(), "{}", design.name);
    assert_eq!(
        a.control_area.to_bits(),
        b.control_area.to_bits(),
        "{}",
        design.name
    );
    for (x, y) in a.controllers.iter().zip(&b.controllers) {
        assert_eq!(x.name, y.name, "{}", design.name);
        assert_eq!(x.bm_states, y.bm_states, "{}: {}", design.name, x.name);
        assert_eq!(
            x.controller.num_products(),
            y.controller.num_products(),
            "{}: {}",
            design.name,
            x.name
        );
        assert_eq!(
            x.area().to_bits(),
            y.area().to_bits(),
            "{}: {}",
            design.name,
            x.name
        );
    }
}

fn roundtrip(design: &GeneratedDesign) {
    // The constructor already ran parse + compile_procedure on the emitted
    // source; re-parse from the source text to pin that the *text* itself
    // round-trips, not just the in-memory AST.
    let prog = bmbe_balsa::parse(&design.source)
        .unwrap_or_else(|e| panic!("{}: emitted source does not parse: {e}", design.name));
    let recompiled = bmbe_balsa::compile_procedure(&prog.procedures[0])
        .unwrap_or_else(|e| panic!("{}: emitted source does not compile: {e}", design.name));
    recompiled
        .netlist
        .validate()
        .unwrap_or_else(|e| panic!("{}: netlist invalid: {e}", design.name));
    let reference = reference_flow(&design.compiled, &options_at(1), &Library::cmos035())
        .unwrap_or_else(|e| panic!("{}: reference flow failed: {e}", design.name));
    assert_identical(design, &reference, &flow_at(design, 1));
    assert_identical(design, &reference, &flow_at(design, 4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parametric_families_round_trip(n in 1usize..5, w_ix in 0usize..4) {
        let w = [1u32, 2, 4, 8][w_ix];
        roundtrip(&pipeline(n, w, 3).expect("pipeline"));
        roundtrip(&call_tree(n + 1, w, 3).expect("call_tree"));
        roundtrip(&token_ring(n, w, 3).expect("token_ring"));
        roundtrip(&wagging_chain(n, w, 3).expect("wagging_chain"));
    }

    #[test]
    fn random_programs_round_trip(seed in any::<u64>()) {
        roundtrip(&random_design(seed).expect("random program must build"));
    }
}

/// A corpus slice survives the full front-end + synthesis path end to end
/// (a fixed, replayable complement to the randomized cases above).
#[test]
fn corpus_slice_synthesizes_deterministically() {
    let corpus = generate_corpus(&CorpusSpec { seed: 17, designs: 10 }).expect("corpus");
    for design in &corpus {
        roundtrip(design);
    }
}
