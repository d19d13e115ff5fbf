//! End-to-end control-flow benchmark: the serial per-instance reference
//! flow vs the content-addressed cached + parallel production flow, per
//! benchmark design, plus the warm-cache (all-hits) re-run.

use bmbe_designs::all_designs;
use bmbe_flow::{
    reference_flow, run_control_flow, run_control_flow_with, ControllerCache, FlowOptions,
};
use bmbe_gates::Library;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_flow_e2e(c: &mut Criterion) {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let mut g = c.benchmark_group("flow_e2e");
    g.sample_size(10);
    let serial = FlowOptions {
        threads: Some(1),
        ..FlowOptions::optimized()
    };
    for design in &designs {
        g.bench_function(format!("{}_reference", design.name), |b| {
            b.iter(|| {
                reference_flow(black_box(&design.compiled), &serial, &library).expect("flow runs")
            })
        });
        g.bench_function(format!("{}_cached_parallel", design.name), |b| {
            b.iter(|| {
                // A fresh cache per iteration: measures dedup + fan-out on a
                // cold cache, the honest comparison against the reference.
                run_control_flow(
                    black_box(&design.compiled),
                    &FlowOptions::optimized(),
                    &library,
                )
                .expect("flow runs")
            })
        });
        let warm = ControllerCache::new();
        run_control_flow_with(&design.compiled, &FlowOptions::optimized(), &library, &warm)
            .expect("warm-up run");
        g.bench_function(format!("{}_warm_cache", design.name), |b| {
            b.iter(|| {
                run_control_flow_with(
                    black_box(&design.compiled),
                    &FlowOptions::optimized(),
                    &library,
                    &warm,
                )
                .expect("flow runs")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_flow_e2e);
criterion_main!(benches);
