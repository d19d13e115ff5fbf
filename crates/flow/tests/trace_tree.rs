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
//! The same traced runs pin what `perf_report` relies on when it reads
//! its synthesis phases from spans: a cold flow records one `shape.synth`,
//! `shape.compile` and `batch.claim` span per synthesized shape, and a warm
//! rerun through the same cache records no `shape.*` span at all. Its
//! counts reconcile with their owner: the `cache.hits` and `cache.misses`
//! totals equal the flow result's.
//!
//! One `#[test]` on purpose: tracing state (the enabled flag, the rings)
//! is process-global, and a sibling test recording concurrently would
//! interleave its spans into this test's flush.

use bmbe_designs::all_designs;
use bmbe_flow::{run_control_flow_with, ControllerCache, FlowOptions, FlowResult};
use bmbe_gates::Library;
use bmbe_obs::analyze::{parse_merged, MergedTrace};
use bmbe_obs::export::{canonical_span_forest, export_jsonl, validate, Trace};
use bmbe_obs::RecordKind;

/// Runs `flow` with tracing on and returns its result with the records it
/// left (anything an earlier call left behind is drained first).
fn traced(flow: impl FnOnce() -> FlowResult) -> (FlowResult, Trace) {
    drop(bmbe_obs::flush());
    bmbe_obs::set_enabled(true);
    let result = flow();
    bmbe_obs::set_enabled(false);
    (result, bmbe_obs::flush())
}

/// Span counts by name, read the way `perf_report` reads its phases:
/// through the JSONL export and the analyzer's phase rows.
fn span_count(merged: &MergedTrace, name: &str) -> usize {
    merged
        .phase_rows()
        .iter()
        .find(|row| row.name == name)
        .map_or(0, |row| row.count as usize)
}

fn traced_forest(name: &str, threads: usize) -> String {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let design = designs
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} benchmark design"));
    let options = FlowOptions {
        threads: Some(threads),
        ..FlowOptions::optimized()
    };
    let cache = ControllerCache::new();
    let flow = || {
        run_control_flow_with(&design.compiled, &options, &library, &cache).expect("traced flow")
    };
    let (result, trace) = traced(flow);
    assert!(!result.controllers.is_empty());
    validate(&trace).unwrap_or_else(|e| panic!("{name}: {threads}-thread trace invalid: {e}"));
    // `perf_report` reads its phase times and shape count from these
    // spans: each synthesized shape is claimed, compiled and synthesized
    // exactly once.
    assert!(result.cache_misses > 0);
    let merged = parse_merged(&export_jsonl(&trace)).expect("exported trace parses");
    for span in ["shape.synth", "shape.compile", "batch.claim"] {
        assert_eq!(
            span_count(&merged, span),
            result.cache_misses,
            "{name}: {threads}-thread cold flow's {span} spans"
        );
    }
    let counts = merged.counter_totals().expect("lossless trace");
    for (name, owner) in [
        ("cache.hits", result.cache_hits),
        ("cache.misses", result.cache_misses),
    ] {
        assert_eq!(
            counts.get(name).copied().unwrap_or(0),
            owner as i64,
            "{name}: {threads}-thread cold flow's {name} total vs its FlowResult"
        );
    }
    let forest = canonical_span_forest(&trace);
    assert!(
        forest.contains("batch.claim(") && forest.contains("shape.compile"),
        "{name}: {threads}-thread forest misses the per-shape chain: {forest}"
    );
    // A warm rerun through the same cache synthesizes nothing, so it
    // records no per-shape span.
    let (warm, warm_trace) = traced(flow);
    assert_eq!(warm.cache_misses, 0, "{name}: warm rerun re-synthesized");
    assert!(
        !warm_trace
            .events
            .iter()
            .any(|s| s.rec.kind == RecordKind::Open
                && warm_trace.name(s.rec.callsite).starts_with("shape.")),
        "{name}: {threads}-thread warm rerun recorded a shape.* span"
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
