//! Trace determinism: the *span tree* of a traced flow run must not depend
//! on the worker-thread count. Thread ids, timestamps, and sibling
//! completion order all vary run to run; the nesting structure — which
//! phase ran under which span — must not, because fan-out workers parent
//! their spans explicitly on the dispatching span instead of becoming
//! per-thread roots. The comparison uses
//! [`bmbe_obs::export::canonical_span_forest`], which erases exactly those
//! run-to-run degrees of freedom.
//!
//! Two designs: the Stack has one shape above the fan-out cutoff, so its
//! shapes always run inline; the Microprocessor core has two, so at 4
//! threads its claimed shapes fan out across workers.
//!
//! One `#[test]` on purpose: tracing state (the enabled flag, the rings)
//! is process-global, and a sibling test recording concurrently would
//! interleave its spans into this test's flush.

use bmbe_designs::all_designs;
use bmbe_flow::{run_control_flow, FlowOptions};
use bmbe_gates::Library;
use bmbe_obs::export::{canonical_span_forest, validate};

fn traced_forest(name: &str, threads: usize) -> String {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let design = designs
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} benchmark design"));
    // Drain anything a previous call left behind so the forest holds only
    // this run.
    drop(bmbe_obs::flush());
    bmbe_obs::set_enabled(true);
    let result = run_control_flow(
        &design.compiled,
        &FlowOptions {
            threads: Some(threads),
            ..FlowOptions::optimized()
        },
        &library,
    )
    .expect("traced flow");
    bmbe_obs::set_enabled(false);
    assert!(!result.controllers.is_empty());
    let trace = bmbe_obs::flush();
    validate(&trace).unwrap_or_else(|e| panic!("{name}: {threads}-thread trace invalid: {e}"));
    let forest = canonical_span_forest(&trace);
    assert!(
        forest.contains("batch.claim(") && forest.contains("shape.compile"),
        "{name}: {threads}-thread forest misses the per-shape chain: {forest}"
    );
    forest
}

#[test]
fn span_tree_is_identical_across_thread_counts() {
    for name in ["Stack", "Microprocessor core"] {
        let serial = traced_forest(name, 1);
        let fanned = traced_forest(name, 4);
        assert_eq!(
            serial, fanned,
            "{name}: span tree must not depend on the worker-thread count"
        );
    }
}
