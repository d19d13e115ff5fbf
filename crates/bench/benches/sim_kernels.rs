//! Micro-benchmarks of the checking-side kernels: the event engine on
//! synthetic inverter rings and on the full Microprocessor-core benchmark
//! scenario; the bit-parallel compiled backend against the event engine on
//! a 64-scenario batch (and the pure tape run with compilation hoisted
//! out); plus on-the-fly against materialized ACR trace verification on
//! the paper's decision-wait/sequencer obligation.

use bmbe_core::components::{decision_wait, sequencer};
use bmbe_core::opt::{verify_acr, verify_acr_materialized};
use bmbe_designs::scenarios::Design;
use bmbe_designs::{all_designs, scenario_variants};
use bmbe_flow::{
    batch_input_ports, compile_sim, run_control_flow, simulate, simulate_scenarios,
    to_flow_scenario, FlowOptions, FlowResult, Scenario, SimBackend,
};
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;
use bmbe_sim::LANES;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A chain inverter for the engine-level ring benchmark.
struct RingInv {
    input: bmbe_sim::NodeId,
    output: bmbe_sim::NodeId,
    delay: u64,
}

impl bmbe_sim::Primitive for RingInv {
    fn init(&mut self, ctx: &mut bmbe_sim::Ctx<'_>) {
        let v = ctx.get(self.input);
        ctx.set_after(self.output, !v, self.delay);
    }
    fn on_change(&mut self, ctx: &mut bmbe_sim::Ctx<'_>, _node: bmbe_sim::NodeId) {
        let v = ctx.get(self.input);
        ctx.set_after(self.output, !v, self.delay);
    }
}

/// Engine-only throughput: `rings` independent 2-inverter oscillators give
/// a steady queue depth of `rings` with trivial primitives, isolating the
/// scheduler + dispatch cost from controller/datapath evaluation.
fn run_rings(rings: usize, events: u64) -> u64 {
    let mut sim = bmbe_sim::Sim::default();
    for r in 0..rings {
        let a = sim.wire();
        let b = sim.wire();
        // Co-prime-ish delays desynchronize the rings.
        let d = 97 + (r as u64 % 61) * 13;
        sim.add_prim(
            RingInv {
                input: a,
                output: b,
                delay: d,
            },
            &[a],
        );
        sim.add_prim(
            RingInv {
                input: b,
                output: a,
                delay: d + 6,
            },
            &[b],
        );
    }
    sim.init();
    sim.run_until(|s| s.events_processed >= events, u64::MAX);
    sim.events_processed
}

fn bench_engine_rings(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_kernels");
    g.sample_size(20);
    for rings in [4usize, 256] {
        g.bench_function(format!("rings/depth_{rings}"), |b| {
            b.iter(|| black_box(run_rings(rings, 40_000)))
        });
    }
    g.finish();
}

/// The Microprocessor-core design with its optimized flow and scenario.
fn micro_core() -> (Design, FlowResult, Scenario) {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let micro = designs
        .into_iter()
        .find(|d| d.name.contains("Microprocessor"))
        .expect("Microprocessor core design");
    let flow =
        run_control_flow(&micro.compiled, &FlowOptions::optimized(), &library).expect("flow");
    let scenario = to_flow_scenario(&micro.scenario);
    (micro, flow, scenario)
}

fn bench_simulation(c: &mut Criterion) {
    let (micro, flow, scenario) = micro_core();
    let delays = Delays::default();
    let mut g = c.benchmark_group("sim_kernels");
    g.sample_size(20);
    g.bench_function(format!("simulate/{}", micro.name), |b| {
        b.iter(|| {
            let run = simulate(
                black_box(&micro.compiled),
                black_box(&flow),
                &scenario,
                &delays,
            )
            .expect("simulates");
            assert!(run.completed);
            run
        })
    });
    g.finish();
}

/// Lane-evaluation kernels of the compiled backend: the same 64-scenario
/// Microprocessor-core batch on each backend (compile amortized once per
/// batch for the compiled side, exactly as `simulate_scenarios` runs it),
/// plus the pure tape run with compilation hoisted out of the loop.
fn bench_compiled_lanes(c: &mut Criterion) {
    let (micro, flow, _) = micro_core();
    let delays = Delays::default();
    let seed = micro.name.bytes().map(u64::from).sum::<u64>() * 0x9e37_79b9;
    let scenarios: Vec<Scenario> = scenario_variants(&micro, LANES, seed)
        .iter()
        .map(to_flow_scenario)
        .collect();
    let mut g = c.benchmark_group("sim_kernels");
    g.sample_size(10);
    for backend in [SimBackend::Compiled, SimBackend::Event] {
        g.bench_function(format!("batch64_{}/{}", backend.name(), micro.name), |b| {
            b.iter(|| {
                let runs = simulate_scenarios(
                    black_box(&micro.compiled),
                    black_box(&flow),
                    &scenarios,
                    &delays,
                    backend,
                    1,
                    None,
                );
                for r in &runs {
                    assert!(r.as_ref().expect("simulates").completed);
                }
                runs
            })
        });
    }
    // Tape evaluation alone: one compile, 64 lanes per iteration.
    let cs = compile_sim(&micro.compiled, &flow, &batch_input_ports(&scenarios), None)
        .expect("compiles");
    g.bench_function(format!("lanes_precompiled/{}", micro.name), |b| {
        b.iter(|| {
            let runs = cs.run_batch(black_box(&scenarios)).expect("runs");
            assert!(runs.iter().all(|r| r.completed));
            runs
        })
    });
    g.finish();
}

fn bench_verification(c: &mut Criterion) {
    let dw = decision_wait(
        "a1",
        &["i1".to_string(), "i2".to_string()],
        &["o1".to_string(), "o2".to_string()],
    );
    let seq = sequencer("o2", &["c1".to_string(), "c2".to_string()]);
    let mut g = c.benchmark_group("sim_kernels");
    g.sample_size(20);
    g.bench_function("verify_otf/decision_wait+sequencer", |b| {
        b.iter(|| {
            let verdict = verify_acr(black_box(&dw), black_box(&seq), "o2").expect("verifies");
            assert!(verdict.is_equivalent());
            verdict
        })
    });
    g.bench_function("verify_materialized/decision_wait+sequencer", |b| {
        b.iter(|| {
            let verdict =
                verify_acr_materialized(black_box(&dw), black_box(&seq), "o2").expect("verifies");
            assert!(verdict.is_equivalent());
            verdict
        })
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_engine_rings,
    bench_simulation,
    bench_compiled_lanes,
    bench_verification
);
criterion_main!(kernels);
