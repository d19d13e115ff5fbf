//! Micro-benchmarks of the synthesis kernels on real workloads: DHF-prime
//! generation (canonical-ascent worklist vs the seed's exhaustive
//! expansion), full hazard-free minimization (primes + covering), and the
//! mapped-netlist equivalence check (cube-algebraic vs the seed's pointwise
//! sweep), all on the hardest controller of the Microprocessor-core
//! benchmark design.

use bmbe_designs::all_designs;
use bmbe_flow::{reference_flow, ControllerArtifact, FlowOptions};
use bmbe_gates::{verify_equivalence_algebraic, verify_equivalence_pointwise, Library};
use bmbe_logic::hfmin::{MinimizeBackend, MinimizeOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The Microprocessor core's hardest controller and function, picked by
/// actually timing one prime-generation pass per function: structural
/// proxies (variable or product counts) miss the worst case, which is
/// decided by how the OFF-set obstructs expansion. Enumeration refuses a
/// function wider than `EXACT_PRIME_VARS` at once, so the pick is the
/// hardest function it accepts.
fn hardest_controller() -> (ControllerArtifact, usize) {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let micro = designs
        .iter()
        .find(|d| d.name.contains("Microprocessor"))
        .expect("Microprocessor core design");
    let serial = FlowOptions {
        threads: Some(1),
        ..FlowOptions::optimized()
    };
    let mut result = reference_flow(&micro.compiled, &serial, &library).expect("flow");
    let prime_time = |s: &bmbe_logic::hfmin::FunctionSpec| {
        let t = std::time::Instant::now();
        let _ = black_box(s.dhf_primes());
        t.elapsed()
    };
    let (idx, fi) = result
        .controllers
        .iter()
        .enumerate()
        .flat_map(|(i, c)| (0..c.controller.function_specs.len()).map(move |f| (i, f)))
        .max_by_key(|&(i, f)| prime_time(&result.controllers[i].controller.function_specs[f]))
        .expect("at least one function");
    (result.controllers.swap_remove(idx), fi)
}

fn bench_kernels(c: &mut Criterion) {
    let (artifact, fi) = hardest_controller();
    let spec = &artifact.controller.function_specs[fi];
    let name = &artifact.name;

    let mut g = c.benchmark_group("hfmin_kernels");
    g.sample_size(20);
    g.bench_function(format!("primes_canonical_ascent/{name}"), |b| {
        b.iter(|| black_box(spec).dhf_primes().expect("primes"))
    });
    g.bench_function(format!("primes_reference_expansion/{name}"), |b| {
        b.iter(|| black_box(spec).dhf_primes_reference().expect("primes"))
    });
    g.bench_function(format!("minimize_primes_plus_covering/{name}"), |b| {
        b.iter(|| black_box(spec).minimize().expect("minimizes"))
    });
    let exact = MinimizeOptions {
        backend: MinimizeBackend::ExactPrimes,
        ..MinimizeOptions::default()
    };
    g.bench_function(format!("minimize_exact_backend/{name}"), |b| {
        b.iter(|| black_box(spec).minimize_opts(&exact).expect("minimizes"))
    });
    let cofactor = MinimizeOptions {
        backend: MinimizeBackend::CubeCofactor,
        ..MinimizeOptions::default()
    };
    g.bench_function(format!("minimize_cube_cofactor_backend/{name}"), |b| {
        b.iter(|| black_box(spec).minimize_opts(&cofactor).expect("minimizes"))
    });
    g.bench_function(format!("equivalence_algebraic/{name}"), |b| {
        b.iter(|| {
            assert!(verify_equivalence_algebraic(
                black_box(&artifact.controller),
                black_box(&artifact.mapped)
            )
            .is_none())
        })
    });
    g.bench_function(format!("equivalence_pointwise/{name}"), |b| {
        b.iter(|| {
            assert!(verify_equivalence_pointwise(
                black_box(&artifact.controller),
                black_box(&artifact.mapped)
            )
            .is_none())
        })
    });
    g.finish();
}

criterion_group!(kernels, bench_kernels);
criterion_main!(kernels);
