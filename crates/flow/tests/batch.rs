//! Batch-driver integration tests: fleet-wide exactly-once synthesis
//! (asserted through both the summary accounting and the traced counts),
//! pipeline equivalence, per-job failure isolation, and failed-flight
//! sharing.

use bmbe_designs::all_designs;
use bmbe_flow::{
    flow_through_registry, run_batch, run_control_flow, run_control_flow_with, BatchJob,
    ControllerCache, FaultPlan, FlowOptions, ShapeRegistry,
};
use bmbe_gates::Library;
use bmbe_obs::analyze::traced;
use std::sync::Mutex;

/// Tracing is process-global; tests that count a traced batch (or drive
/// batches whose records another test's trace might catch) serialize here.
static BATCH_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    BATCH_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Replicated jobs over every benchmark design: one fleet, each distinct
/// shape digest synthesized exactly once no matter the replica count or
/// thread budget — pinned by the registry summary *and* by the traced
/// `batch.shapes.synthesized` count.
#[test]
fn fleet_synthesizes_each_shape_exactly_once() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let jobs: Vec<BatchJob> = (0..3)
        .flat_map(|r| {
            designs.iter().map(move |d| BatchJob {
                label: format!("{}#{r}", d.name),
                design: d.compiled.clone(),
                scenario: Some(d.scenario.clone()),
                sim_batch: 4,
                seed: r,
                ..BatchJob::new("", d.compiled.clone())
            })
        })
        .collect();
    for threads in [1, 4] {
        let cache = ControllerCache::new();
        let (summary, trace) =
            traced(|| run_batch(&jobs, &library, &cache, threads)).expect("trace parses");
        let counts = trace.counter_totals().expect("lossless trace");
        assert_eq!(summary.failed(), 0, "threads={threads}");
        // Exactly once: with an empty starting cache and no failures, the
        // fleet synthesizes each distinct digest once, never more.
        assert_eq!(
            summary.synthesized, summary.distinct_shapes,
            "threads={threads}"
        );
        assert_eq!(
            counts.get("batch.shapes.synthesized").copied(),
            Some(summary.synthesized as i64),
            "threads={threads}: traced count disagrees with the registry"
        );
        // Per-job accounting sums to the fleet totals.
        let (mut synth, mut hits, mut shared) = (0, 0, 0);
        for job in &jobs {
            let report = summary
                .jobs
                .iter()
                .flatten()
                .find(|r| r.label == job.label)
                .expect("every job reported");
            synth += report.synthesized;
            hits += report.cache_hits;
            shared += report.shared;
            // The sim stage ran its full compiled batch.
            assert_eq!(report.sim_lanes, 4, "{}", job.label);
            assert_eq!(report.sim_completed, 4, "{}", job.label);
        }
        assert_eq!(synth, summary.synthesized);
        assert_eq!(hits, summary.cache_hits);
        assert_eq!(shared, summary.shared_waits);
        // Every non-first resolution of a digest was a hit or a shared
        // flight, so the totals cover all resolutions.
        assert!(hits + shared > 0, "replicas must reuse the fleet's shapes");
    }
}

/// A batch of one job produces the pipeline's exact artifacts: same
/// controller count, products, and bit-identical control area.
#[test]
fn batch_results_match_the_pipeline() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    for design in &designs {
        let flow = run_control_flow_with(
            &design.compiled,
            &FlowOptions::optimized(),
            &library,
            &ControllerCache::new(),
        )
        .unwrap_or_else(|e| panic!("{} pipeline: {e}", design.name));
        let summary = run_batch(
            &[BatchJob::new(design.name, design.compiled.clone())],
            &library,
            &ControllerCache::new(),
            1,
        );
        let report = summary.jobs[0]
            .as_ref()
            .unwrap_or_else(|e| panic!("{} batch: {e}", design.name));
        assert_eq!(
            report.controllers,
            flow.controllers.len(),
            "{}",
            design.name
        );
        assert_eq!(report.products, flow.total_products(), "{}", design.name);
        assert_eq!(report.control_area, flow.control_area, "{}", design.name);
        assert_eq!(report.components_before, flow.components_before);
    }
}

/// `cache_hits` has one meaning on both entry points: components served
/// without synthesis, so hits + misses == controllers. A fresh-registry
/// registry flow and the single-design flow must report the same split.
#[test]
fn registry_flow_reports_the_single_design_cache_split() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    for design in &designs {
        let options = FlowOptions::optimized();
        let single = run_control_flow(&design.compiled, &options, &library)
            .unwrap_or_else(|e| panic!("{} single: {e}", design.name));
        let cache = ControllerCache::new();
        let registry = ShapeRegistry::new(&cache, &library);
        let (fleet, stats) =
            flow_through_registry(design.name, &design.compiled, &options, &registry, 1)
                .unwrap_or_else(|e| panic!("{} registry: {e}", design.name));
        assert_eq!(
            fleet.cache_hits, single.cache_hits,
            "{}: cache_hits",
            design.name
        );
        assert_eq!(
            fleet.cache_misses, single.cache_misses,
            "{}: cache_misses",
            design.name
        );
        assert_eq!(
            fleet.cache_hits + fleet.cache_misses,
            fleet.controllers.len(),
            "{}: hit/miss accounting",
            design.name
        );
        // The per-job shape counts stay distinct-shape counts.
        assert_eq!(stats.synthesized, stats.distinct, "{}", design.name);
        assert_eq!(cache.stats().hits, fleet.cache_hits, "{}", design.name);
        assert_eq!(cache.stats().misses, fleet.cache_misses, "{}", design.name);
    }
}

/// A job whose shape panics fails alone; jobs needing other shapes
/// complete, and the batch reports both in submission order.
#[test]
fn a_failing_job_does_not_take_siblings_down() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let fault = FaultPlan::parse("synth:0").expect("valid fault spec");
    let mut poisoned = BatchJob::new("poisoned", designs[0].compiled.clone());
    poisoned.options.fault = Some(fault);
    let healthy = BatchJob::new("healthy", designs[2].compiled.clone());
    let summary = run_batch(&[poisoned, healthy], &library, &ControllerCache::new(), 1);
    let failure = summary.jobs[0].as_ref().expect_err("fault must fail job 0");
    assert_eq!(failure.phase, "panic");
    assert!(!failure.component.is_empty(), "failure names the component");
    assert!(failure.error.contains("injected"), "{}", failure.error);
    let report = summary.jobs[1].as_ref().expect("sibling completes");
    assert!(report.synthesized > 0);
    assert_eq!(summary.failed(), 1);
}

/// A failed flight is shared, not retried: the second job needing the
/// same digest fails with the owner's error and the fleet never
/// synthesizes the shape again (exactly-once covers failures too).
#[test]
fn shared_failures_are_not_retried() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let fault = FaultPlan::parse("synth:0:err").expect("valid fault spec");
    let job = |label: &str| {
        let mut j = BatchJob::new(label, designs[0].compiled.clone());
        j.options.fault = Some(fault.clone());
        j
    };
    // Tracing also gives the flight recorder a sink in the working
    // directory; send the two failures' dumps to stderr instead.
    bmbe_obs::recorder::set_flight_out(Some("-".to_string()));
    let (summary, trace) = traced(|| {
        run_batch(
            &[job("first"), job("second")],
            &library,
            &ControllerCache::new(),
            1,
        )
    })
    .expect("trace parses");
    bmbe_obs::recorder::set_flight_out(None);
    assert_eq!(summary.failed(), 2);
    let first = summary.jobs[0].as_ref().expect_err("owner fails");
    let second = summary.jobs[1]
        .as_ref()
        .expect_err("waiter shares the failure");
    assert_eq!(first.cache_key, second.cache_key, "same digest fails both");
    assert_eq!(
        first.error, second.error,
        "waiter reports the owner's error"
    );
    // The failing shape was attempted exactly once and never landed; the
    // owner still flew the other shape it claimed, exactly once.
    let counts = trace.counter_totals().expect("lossless trace");
    assert_eq!(
        counts.get("batch.shapes.failed").copied(),
        Some(1),
        "the failed flight is not retried"
    );
    assert_eq!(summary.synthesized, summary.distinct_shapes - 1);
}
