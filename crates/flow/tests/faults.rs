//! Fault injection against the parallel, memoized back-end: an injected
//! panic (or typed error) in one synthesis job must fail only that
//! design's flow — with the job's cache key and phase in the error — while
//! sibling flows sharing the cache stay healthy, the cache remains usable
//! afterward, and the failing job is the same whatever the worker-thread
//! count.

use bmbe_core::balsa_to_ch::balsa_to_ch;
use bmbe_designs::all_designs;
use bmbe_flow::{
    reference_flow, run_control_flow, run_control_flow_with, ControllerCache, FaultKind,
    FaultPhase, FaultPlan, FlowError, FlowOptions, KeyedProgram, ShapeError,
};
use bmbe_gates::Library;
use std::sync::Arc;

fn faulted(phase: FaultPhase, nth: usize, kind: FaultKind) -> FlowOptions {
    let mut options = FlowOptions::optimized();
    options.threads = Some(3);
    options.fault = Some(FaultPlan { phase, nth, kind });
    options
}

/// The (component, cache-key) pairs the flow would synthesize for a
/// design, computed independently of the pipeline: translate, cluster,
/// key. Used to check the error's cache key against ground truth.
fn component_keys(design: &bmbe_designs::Design, options: &FlowOptions) -> Vec<(String, String)> {
    let mut ctrl = balsa_to_ch(&design.compiled.netlist).expect("translate");
    if options.optimize {
        ctrl.t2_clustering(&options.cluster);
    }
    ctrl.components
        .iter()
        .map(|c| {
            let keyed = KeyedProgram::new(
                &c.program,
                options.minimize_mode,
                options.minimize_backend,
                options.map_objective,
                options.map_style,
            );
            (c.name.clone(), format!("{:016x}", keyed.key.digest()))
        })
        .collect()
}

/// Destructures the one error shape a fault may produce.
fn job_error(err: FlowError) -> (String, String, String, &'static str, Arc<ShapeError>) {
    match err {
        FlowError::Job {
            design,
            component,
            cache_key,
            phase,
            error,
        } => (design, component, cache_key, phase, error),
        other => panic!("expected FlowError::Job, got: {other}"),
    }
}

#[test]
fn injected_panic_fails_only_that_flow_and_names_the_job() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let cache = ControllerCache::new();
    let options = faulted(FaultPhase::Synth, 0, FaultKind::Panic);

    // The faulted flow fails with full job context.
    let err = run_control_flow_with(&designs[0].compiled, &options, &library, &cache)
        .err()
        .expect("injected panic must fail the flow");
    let text = err.to_string();
    let (design, component, cache_key, phase, shape) = job_error(err);
    assert_eq!(design, designs[0].compiled.netlist.name());
    assert_eq!(phase, "panic", "a caught unwind reports phase \"panic\"");
    match &*shape {
        ShapeError::Panic(payload) => assert!(
            payload.contains("injected fault: panic at phase synth of job 0"),
            "panic payload must carry the injection message, got: {payload}"
        ),
        other => panic!("expected ShapeError::Panic, got: {other}"),
    }
    // The error names the failing component's content-addressed cache key.
    let keys = component_keys(&designs[0], &options);
    let expected = keys
        .iter()
        .find(|(name, _)| *name == component)
        .unwrap_or_else(|| panic!("error names unknown component {component:?}"));
    assert_eq!(cache_key, expected.1, "{component}: cache key mismatch");
    assert!(
        text.contains(&cache_key) && text.contains("phase panic"),
        "error text must name the cache key and phase: {text}"
    );

    // Sibling designs sharing the cache are unaffected.
    let clean = FlowOptions::optimized();
    run_control_flow_with(&designs[1].compiled, &clean, &library, &cache)
        .expect("sibling design sharing the cache must still succeed");

    // The shared cache stays healthy: a clean re-run of the faulted design
    // succeeds, and a second one is served entirely from the cache.
    let rerun = run_control_flow_with(&designs[0].compiled, &clean, &library, &cache)
        .expect("clean re-run after the fault must succeed");
    assert_eq!(rerun.controllers.len(), keys.len());
    let warm = run_control_flow_with(&designs[0].compiled, &clean, &library, &cache)
        .expect("warm re-run after the fault must succeed");
    assert_eq!(warm.cache_misses, 0, "warm run after recovery must hit");
    assert_eq!(warm.cache_hits, warm.controllers.len());
    assert_eq!(cache.poison_recoveries(), 0, "no lock was poisoned");
}

#[test]
fn typed_injected_error_reports_its_phase() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let options = faulted(FaultPhase::Verify, 0, FaultKind::Error);
    let err = run_control_flow(&designs[0].compiled, &options, &library)
        .err()
        .expect("injected error must fail the flow");
    let text = err.to_string();
    let (_, _, cache_key, phase, shape) = job_error(err);
    assert_eq!(phase, "verify");
    assert!(
        matches!(*shape, ShapeError::Injected(FaultPhase::Verify)),
        "expected ShapeError::Injected(Verify), got: {shape}"
    );
    assert!(
        text.contains("phase verify") && text.contains(&cache_key),
        "error text must name the phase and cache key: {text}"
    );
}

#[test]
fn injected_prime_gen_panic_unwinds_from_inside_the_minimizer() {
    // A prime_gen-phase plan is carried into the logic crate's minimizer
    // (it fires inside the backend, not at the flow's phase gate), so a
    // panic kind unwinds out of a per-function minimization job.
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let cache = ControllerCache::new();
    let options = faulted(FaultPhase::PrimeGen, 0, FaultKind::Panic);
    let err = run_control_flow_with(&designs[0].compiled, &options, &library, &cache)
        .err()
        .expect("injected prime_gen panic must fail the flow");
    let (_, _, _, phase, shape) = job_error(err);
    assert_eq!(phase, "panic", "a caught unwind reports phase \"panic\"");
    match &*shape {
        ShapeError::Panic(payload) => assert!(
            payload.contains("injected fault: panic at phase prime_gen"),
            "panic payload must carry the injection message, got: {payload}"
        ),
        other => panic!("expected ShapeError::Panic, got: {other}"),
    }
    // The cache stays healthy afterwards.
    run_control_flow_with(
        &designs[0].compiled,
        &FlowOptions::optimized(),
        &library,
        &cache,
    )
    .expect("clean re-run after the prime_gen fault must succeed");
}

#[test]
fn typed_prime_gen_error_reports_the_prime_gen_phase() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let options = faulted(FaultPhase::PrimeGen, 0, FaultKind::Error);
    let err = run_control_flow(&designs[0].compiled, &options, &library)
        .err()
        .expect("injected prime_gen error must fail the flow");
    let text = err.to_string();
    let (_, _, cache_key, phase, shape) = job_error(err);
    assert_eq!(phase, "prime_gen");
    assert!(
        matches!(*shape, ShapeError::Injected(FaultPhase::PrimeGen)),
        "expected ShapeError::Injected(PrimeGen), got: {shape}"
    );
    assert!(
        text.contains("phase prime_gen") && text.contains(&cache_key),
        "error text must name the phase and cache key: {text}"
    );
}

#[test]
fn thread_count_does_not_change_the_failing_job() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    for fault_phase in [FaultPhase::Synth, FaultPhase::PrimeGen] {
        for kind in [FaultKind::Panic, FaultKind::Error] {
            let mut reports = Vec::new();
            for threads in [1usize, 4] {
                let mut options = faulted(fault_phase, 0, kind);
                options.threads = Some(threads);
                let err = run_control_flow(&designs[0].compiled, &options, &library)
                    .err()
                    .unwrap_or_else(|| panic!("{threads}-thread run must fail"));
                let (design, component, cache_key, phase, _) = job_error(err);
                reports.push((threads, design, component, cache_key, phase));
            }
            let (_, d1, c1, k1, p1) = &reports[0];
            let (_, d4, c4, k4, p4) = &reports[1];
            assert_eq!((d1, c1, k1, p1), (d4, c4, k4, p4), "{fault_phase:?}/{kind:?}: 1-thread and 4-thread runs must report the identical failing job");
        }
    }
}

#[test]
fn fault_on_the_uncached_path_names_the_component() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let options = faulted(FaultPhase::Compile, 0, FaultKind::Error);
    let err = reference_flow(&designs[0].compiled, &options, &library)
        .err()
        .expect("injected error must fail the uncached flow");
    let (_, component, cache_key, phase, _) = job_error(err);
    assert_eq!(phase, "compile");
    // Uncached job 0 is the first component in deterministic order.
    let keys = component_keys(&designs[0], &options);
    assert_eq!(component, keys[0].0);
    assert_eq!(cache_key, keys[0].1);
}

#[test]
fn sim_compile_fault_fails_only_the_compiled_backend() {
    // The sim_compile phase lives downstream of synthesis: the flow itself
    // must succeed, and the fault fires only when the compiled simulation
    // backend is built (see tests/compiled_sim.rs for the surfaced error).
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let options = faulted(FaultPhase::SimCompile, 0, FaultKind::Error);
    let flow = run_control_flow(&designs[0].compiled, &options, &library)
        .expect("a sim_compile fault must not fail synthesis");
    let plan = options.fault.unwrap();
    let scenarios = vec![bmbe_flow::to_flow_scenario(&designs[0].scenario); 2];
    let results = bmbe_flow::simulate_scenarios(
        &designs[0].compiled,
        &flow,
        &scenarios,
        &bmbe_sim::prims::Delays::default(),
        bmbe_flow::SimBackend::Compiled,
        1,
        Some(&plan),
    );
    for slot in results {
        match slot {
            Err(bmbe_flow::SimBuildError::Compile { detail, .. }) => {
                assert!(detail.contains("injected fault at sim_compile"), "{detail}")
            }
            other => panic!("expected a typed sim_compile error, got {other:?}"),
        }
    }
}

#[test]
fn fault_aimed_past_the_fanout_is_inert() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let options = faulted(FaultPhase::Synth, 9999, FaultKind::Panic);
    run_control_flow(&designs[0].compiled, &options, &library)
        .expect("a plan targeting a job index past the fan-out must not fire");
}

/// A scratch cache directory for the `cache_io` fault tests, removed on
/// drop so faulted runs never leak into a real `BMBE_CACHE_DIR`.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("bmbe-fault-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An injected disk-write failure degrades that shape to an unpersisted
/// cache miss: the flow still succeeds, the unaffected entry lands on
/// disk, and a later pristine run backfills the missing one.
#[test]
fn faulted_cache_write_degrades_to_a_miss_and_the_flow_succeeds() {
    use bmbe_flow::DiskCache;
    let scratch = ScratchDir::new("write");
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let counter = &designs[0]; // two unique shapes
    let shapes = component_keys(counter, &FlowOptions::optimized());
    let unique: std::collections::HashSet<&String> = shapes.iter().map(|(_, k)| k).collect();
    assert_eq!(unique.len(), 2, "test assumes two unique shapes");
    // Disk op order for a cold 2-shape run: the merge log read #0 (no log
    // yet) as the cache opens, the append of the merges clustering
    // compiled #1, load #2, load #3 (both miss), then store #4, store #5.
    // Fault op 4: the first store fails.
    let plan = FaultPlan {
        phase: FaultPhase::CacheIo,
        nth: 4,
        kind: FaultKind::Error,
    };
    let cache = bmbe_flow::ControllerCache::with_disk(
        DiskCache::with_fault(&scratch.0, Some(plan)).expect("create cache dir"),
    );
    let flow = run_control_flow_with(
        &counter.compiled,
        &FlowOptions::optimized(),
        &library,
        &cache,
    )
    .expect("a disk-write fault must not fail the flow");
    assert_eq!(flow.cache_misses, 2);
    // Only the unfaulted store landed.
    let disk = DiskCache::open(&scratch.0).expect("reopen");
    assert_eq!(disk.len(), 1, "the faulted write must not leave an entry");
    // The in-memory layer still holds both shapes: a warm rerun is all hits.
    let warm = run_control_flow_with(
        &counter.compiled,
        &FlowOptions::optimized(),
        &library,
        &cache,
    )
    .expect("warm flow");
    assert_eq!(warm.cache_misses, 0);
    // A pristine cache over the same directory re-synthesizes only the
    // missing shape and backfills it.
    let fresh = bmbe_flow::ControllerCache::with_disk(DiskCache::open(&scratch.0).expect("reopen"));
    let redo = run_control_flow_with(
        &counter.compiled,
        &FlowOptions::optimized(),
        &library,
        &fresh,
    )
    .expect("flow after degraded write");
    assert_eq!(redo.cache_misses, 1, "only the unpersisted shape re-runs");
    assert_eq!(DiskCache::open(&scratch.0).expect("reopen").len(), 2);
}

/// An injected disk-read failure is a plain miss (the entry survives for
/// the next reader): the flow re-synthesizes and still succeeds.
#[test]
fn faulted_cache_read_is_a_miss_and_the_flow_succeeds() {
    use bmbe_flow::DiskCache;
    let scratch = ScratchDir::new("read");
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let counter = &designs[0];
    // Populate the directory.
    let seed_cache = bmbe_flow::ControllerCache::with_disk(
        DiskCache::open(&scratch.0).expect("create cache dir"),
    );
    run_control_flow_with(
        &counter.compiled,
        &FlowOptions::optimized(),
        &library,
        &seed_cache,
    )
    .expect("cold flow");
    let entries = DiskCache::open(&scratch.0).expect("reopen").len();
    assert!(entries > 0);
    // Fault the first shape read of a fresh cache: that shape
    // re-synthesizes. Op #0 is the merge log read as the cache opens;
    // every merge is then served from the log, so nothing is appended and
    // the first shape read is op #1.
    let plan = FaultPlan {
        phase: FaultPhase::CacheIo,
        nth: 1,
        kind: FaultKind::Error,
    };
    let cache = bmbe_flow::ControllerCache::with_disk(
        DiskCache::with_fault(&scratch.0, Some(plan)).expect("reopen"),
    );
    let flow = run_control_flow_with(
        &counter.compiled,
        &FlowOptions::optimized(),
        &library,
        &cache,
    )
    .expect("a disk-read fault must not fail the flow");
    assert_eq!(flow.cache_misses, 1, "the unreadable shape re-synthesizes");
    // The entry was left in place, not evicted.
    assert_eq!(DiskCache::open(&scratch.0).expect("reopen").len(), entries);
}

/// A `cache_io` panic (not just a typed error) is caught by the cache
/// layer's job isolation: the flow still succeeds.
#[test]
fn cache_io_panic_is_contained_by_the_cache_layer() {
    use bmbe_flow::DiskCache;
    let scratch = ScratchDir::new("panic");
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    // Cold op order: the merge log read #0, the merge append #1, then the
    // first shape read #2, which panics.
    let plan = FaultPlan {
        phase: FaultPhase::CacheIo,
        nth: 2,
        kind: FaultKind::Panic,
    };
    let cache = bmbe_flow::ControllerCache::with_disk(
        DiskCache::with_fault(&scratch.0, Some(plan)).expect("create cache dir"),
    );
    let flow = run_control_flow_with(
        &designs[0].compiled,
        &FlowOptions::optimized(),
        &library,
        &cache,
    )
    .expect("a panicking disk layer must not fail the flow");
    assert!(flow.cache_misses > 0);
}

/// One flow of `design` over a cache opened on `dir` (with `fault` armed
/// on its disk layer), and the merge lookups that compiled in it.
fn flow_over(
    design: &bmbe_designs::Design,
    dir: &std::path::Path,
    fault: Option<FaultPlan>,
) -> (bmbe_flow::FlowResult, usize) {
    let cache = ControllerCache::with_disk(
        bmbe_flow::DiskCache::with_fault(dir, fault).expect("open cache dir"),
    );
    let flow = run_control_flow_with(
        &design.compiled,
        &FlowOptions::optimized(),
        &Library::cmos035(),
        &cache,
    )
    .expect("a cache_io fault must not fail the flow");
    (flow, cache.merge_memo().misses())
}

/// A faulted merge log read (an error or a panic as the cache opens)
/// degrades to a merge memo that starts empty: the flow compiles every
/// merge again and succeeds, the log stays in place, and the next clean
/// cache over the directory compiles nothing.
#[test]
fn faulted_merge_log_read_starts_an_empty_memo_and_the_flow_succeeds() {
    let designs = all_designs().expect("shipped designs build");
    let counter = &designs[0];
    for kind in [FaultKind::Error, FaultKind::Panic] {
        let scratch = ScratchDir::new(&format!("log-read-{kind:?}"));
        let (cold, compiled) = flow_over(counter, &scratch.0, None);
        assert!(compiled > 0, "the cold flow compiles merges");
        let log = scratch.0.join(bmbe_flow::cache::disk::MERGE_LOG);
        assert!(log.exists(), "the cold flow writes the merge log");
        // Op #0 is the merge log read.
        let plan = FaultPlan {
            phase: FaultPhase::CacheIo,
            nth: 0,
            kind,
        };
        let (faulted, misses) = flow_over(counter, &scratch.0, Some(plan));
        assert_eq!(misses, compiled, "{kind:?}: the memo starts empty");
        assert_eq!(faulted.cluster_report, cold.cluster_report, "{kind:?}");
        assert_eq!(faulted.cache_misses, 0, "{kind:?}: shapes still hit");
        assert!(log.exists(), "{kind:?}: an unreadable log is not evicted");
        let (_, misses) = flow_over(counter, &scratch.0, None);
        assert_eq!(misses, 0, "{kind:?}: the next clean run compiles nothing");
    }
}

/// A faulted merge log append (an error or a panic) leaves that flow's
/// merges unpersisted and the flow succeeds; the next clean run compiles
/// them again and backfills the log, and the run after it compiles
/// nothing.
#[test]
fn faulted_merge_log_append_leaves_merges_unpersisted_and_the_flow_succeeds() {
    let designs = all_designs().expect("shipped designs build");
    let counter = &designs[0];
    for kind in [FaultKind::Error, FaultKind::Panic] {
        let scratch = ScratchDir::new(&format!("log-append-{kind:?}"));
        // Cold op order: the merge log read #0, the merge append #1.
        let plan = FaultPlan {
            phase: FaultPhase::CacheIo,
            nth: 1,
            kind,
        };
        let (faulted, compiled) = flow_over(counter, &scratch.0, Some(plan));
        assert!(compiled > 0, "the cold flow compiles merges");
        assert_eq!(faulted.cache_misses, 2, "{kind:?}");
        let log = scratch.0.join(bmbe_flow::cache::disk::MERGE_LOG);
        assert!(!log.exists(), "{kind:?}: the faulted append wrote no log");
        let disk = bmbe_flow::DiskCache::open(&scratch.0).expect("reopen");
        assert_eq!(disk.len(), 2, "{kind:?}: the shapes still landed");
        let (backfill, misses) = flow_over(counter, &scratch.0, None);
        assert_eq!(
            misses, compiled,
            "{kind:?}: the unpersisted merges compile again"
        );
        assert_eq!(backfill.cluster_report, faulted.cluster_report, "{kind:?}");
        let records = disk.load_merges().expect("log readable");
        assert_eq!(records.len(), compiled, "{kind:?}: the log is backfilled");
        let (_, misses) = flow_over(counter, &scratch.0, None);
        assert_eq!(
            misses, 0,
            "{kind:?}: the run after the backfill compiles nothing"
        );
    }
}
