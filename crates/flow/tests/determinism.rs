//! Determinism of the parallel, memoized back-end: on all four benchmark
//! designs, the cached/parallel production flow must be bit-identical
//! (controller order, product counts, areas, delays) to the serial
//! per-instance reference flow, and a warm cache must reproduce the same
//! result again.

use bmbe_designs::all_designs;
use bmbe_flow::{
    reference_flow, run_control_flow_with, ControllerCache, FlowOptions, FlowResult,
    MinimizeBackend,
};
use bmbe_gates::Library;

fn assert_identical(design: &str, label: &str, reference: &FlowResult, candidate: &FlowResult) {
    assert_eq!(
        reference.controllers.len(),
        candidate.controllers.len(),
        "{design}/{label}: controller count"
    );
    assert_eq!(
        reference.total_products(),
        candidate.total_products(),
        "{design}/{label}: total products"
    );
    assert_eq!(
        reference.control_area.to_bits(),
        candidate.control_area.to_bits(),
        "{design}/{label}: control area ({} vs {})",
        reference.control_area,
        candidate.control_area
    );
    for (r, c) in reference.controllers.iter().zip(&candidate.controllers) {
        assert_eq!(r.name, c.name, "{design}/{label}: controller order");
        assert_eq!(
            r.bm_states, c.bm_states,
            "{design}/{label}/{}: BM states",
            r.name
        );
        assert_eq!(
            r.controller.num_products(),
            c.controller.num_products(),
            "{design}/{label}/{}: products",
            r.name
        );
        assert_eq!(
            r.controller.inputs, c.controller.inputs,
            "{design}/{label}/{}: input names",
            r.name
        );
        assert_eq!(
            r.controller.outputs, c.controller.outputs,
            "{design}/{label}/{}: output names",
            r.name
        );
        assert_eq!(
            r.area().to_bits(),
            c.area().to_bits(),
            "{design}/{label}/{}: area ({} vs {})",
            r.name,
            r.area(),
            c.area()
        );
        assert_eq!(
            r.critical_delay().to_bits(),
            c.critical_delay().to_bits(),
            "{design}/{label}/{}: critical delay ({} vs {})",
            r.name,
            r.critical_delay(),
            c.critical_delay()
        );
        // Exact cover equality, cube for cube: any reordering introduced
        // by a parallel schedule would show up here.
        assert_eq!(
            r.controller.output_covers, c.controller.output_covers,
            "{design}/{label}/{}: output covers",
            r.name
        );
        assert_eq!(
            r.controller.next_state_covers, c.controller.next_state_covers,
            "{design}/{label}/{}: next-state covers",
            r.name
        );
    }
}

#[test]
fn cached_parallel_flow_is_bit_identical_to_reference() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let mut total_hits = 0usize;
    for design in &designs {
        for (label, options) in [
            ("optimized", FlowOptions::optimized()),
            ("unoptimized", FlowOptions::unoptimized()),
        ] {
            // The seed behaviour: one component at a time, no memoization.
            let serial = FlowOptions {
                threads: Some(1),
                ..options.clone()
            };
            let reference = reference_flow(&design.compiled, &serial, &library)
                .unwrap_or_else(|e| panic!("{}/{label} serial: {e}", design.name));
            assert_eq!(reference.cache_hits, 0);
            assert_eq!(reference.cache_misses, reference.controllers.len());

            // Cold cache, parallel fan-out. Force several workers so the
            // threaded path is exercised even on single-core hosts.
            let mut parallel = options.clone();
            parallel.threads = Some(3);
            let cache = ControllerCache::new();
            let cold = run_control_flow_with(&design.compiled, &parallel, &library, &cache)
                .unwrap_or_else(|e| panic!("{}/{label} cold: {e}", design.name));
            assert_identical(design.name, label, &reference, &cold);
            assert_eq!(
                cold.cache_hits + cold.cache_misses,
                cold.controllers.len(),
                "{}/{label}: hit/miss accounting",
                design.name
            );
            total_hits += cold.cache_hits;

            // Warm cache: every shape must hit, result still identical.
            let warm = run_control_flow_with(&design.compiled, &options, &library, &cache)
                .unwrap_or_else(|e| panic!("{}/{label} warm: {e}", design.name));
            assert_identical(design.name, label, &reference, &warm);
            assert_eq!(
                warm.cache_misses, 0,
                "{}/{label}: warm run must not miss",
                design.name
            );
            assert_eq!(warm.cache_hits, warm.controllers.len());
        }
    }
    // Real designs repeat component shapes; the cache must observe reuse
    // somewhere across the benchmark suite even on cold runs.
    assert!(
        total_hits > 0,
        "no cold-run cache reuse across the four benchmark designs"
    );
}

#[test]
fn every_backend_registry_flow_is_bit_identical_to_reference() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    // Each backend's covers must not depend on how many workers the
    // registry fans the shapes out over: every shape synthesizes on the
    // worker that claimed it, exactly as the serial reference does.
    for backend in [
        MinimizeBackend::Auto,
        MinimizeBackend::ExactPrimes,
        MinimizeBackend::CubeCofactor,
    ] {
        for design in &designs {
            let serial = FlowOptions {
                threads: Some(1),
                minimize_backend: backend,
                ..FlowOptions::optimized()
            };
            let reference = reference_flow(&design.compiled, &serial, &library)
                .unwrap_or_else(|e| panic!("{}/{backend:?} serial: {e}", design.name));
            assert_eq!(
                reference.threads_used, 1,
                "{}: reference runs serially",
                design.name
            );
            for threads in [1usize, 4] {
                let options = FlowOptions {
                    threads: Some(threads),
                    ..serial.clone()
                };
                let candidate = run_control_flow_with(
                    &design.compiled,
                    &options,
                    &library,
                    &ControllerCache::new(),
                )
                .unwrap_or_else(|e| panic!("{}/{backend:?} {threads}t: {e}", design.name));
                assert_eq!(
                    candidate.threads_used, threads,
                    "{}: reported thread budget",
                    design.name
                );
                assert_identical(
                    design.name,
                    &format!("{backend:?}-registry-{threads}t"),
                    &reference,
                    &candidate,
                );
            }
        }
    }
}
