//! Differential property tests for the bit-parallel compiled backend:
//! every per-scenario outcome must match the event-engine oracle's
//! *behaviour* (completion, port traffic, memory contents) exactly — on
//! all four paper designs, on a generated-corpus slice, on randomized
//! scenario batches, on partial batches narrower than a lane word, and
//! bit-identically at any worker thread count — each lane of a full batch
//! must equal its own one-lane batch, a batch must script every port the
//! circuit takes as an input and none it takes as an output, a script for
//! a port the design lacks must be ignored on every backend, a scenario
//! set mixing port sets must run one circuit per port set, and the one
//! lowering both engines run must not depend on hash-map order. Every
//! controller tape of the paper designs and the corpus slice must hold
//! exactly one op per mapped gate, in the netlist's stored order.

use bmbe_designs::corpus::{generate_corpus, CorpusSpec};
use bmbe_designs::{all_designs, derive_seed, scenario_variants, variants_of, Design};
use bmbe_flow::{
    batch_input_ports, check_outcome, compile_sim, lower, run_control_flow_with, simulate,
    simulate_scenarios, to_flow_scenario, CompiledSim, ControllerCache, FaultKind, FaultPhase,
    FaultPlan, FlowOptions, FlowResult, Scenario, SimBackend, SimBuildError,
};
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;
use bmbe_sim::{Part, LANES};
use std::collections::{BTreeSet, HashMap};

fn flows(designs: &[Design]) -> Vec<FlowResult> {
    let library = Library::cmos035();
    let cache = ControllerCache::new();
    designs
        .iter()
        .map(|d| {
            run_control_flow_with(&d.compiled, &FlowOptions::optimized(), &library, &cache)
                .expect("flow")
        })
        .collect()
}

fn variants(design: &Design, n: usize, seed: u64) -> Vec<Scenario> {
    scenario_variants(design, n, seed)
        .iter()
        .map(to_flow_scenario)
        .collect()
}

/// Every controller tape of `cs` holds one op per mapped gate of its
/// controller, in the netlist's stored order.
fn assert_gate_order_tapes(name: &str, flow: &FlowResult, cs: &CompiledSim) {
    assert_eq!(
        cs.tapes().len(),
        flow.controllers.len(),
        "{name}: one tape per controller"
    );
    for (tape, art) in cs.tapes().iter().zip(&flow.controllers) {
        let gates = &art.mapped.gates;
        assert_eq!(tape.ops.len(), gates.len(), "{name}: {}", art.name);
        for (i, (op, g)) in tape.ops.iter().zip(gates).enumerate() {
            let pins: Vec<usize> = op.ins[..op.n as usize]
                .iter()
                .map(|&p| p as usize)
                .collect();
            assert!(
                op.cell == g.cell && op.out as usize == g.output && pins == g.inputs,
                "{name}: op {i} of {} is {op:?}, its gate {g:?}",
                art.name
            );
        }
    }
}

/// Full-width batches on every paper design: each of the 64 lanes must
/// reproduce its event-oracle run, and the base lane must still pass the
/// design's functional check.
#[test]
fn compiled_matches_event_oracle_on_all_designs() {
    let designs = all_designs().expect("designs build");
    let delays = Delays::default();
    for (design, flow) in designs.iter().zip(flows(&designs)) {
        let scenarios = variants(design, 64, bm_seed(design));
        let compiled = simulate_scenarios(
            &design.compiled,
            &flow,
            &scenarios,
            &delays,
            SimBackend::Compiled,
            4,
            None,
        );
        let oracle = simulate_scenarios(
            &design.compiled,
            &flow,
            &scenarios,
            &delays,
            SimBackend::Event,
            4,
            None,
        );
        assert_eq!(compiled.len(), 64);
        for (lane, (c, o)) in compiled.iter().zip(&oracle).enumerate() {
            let c = c
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: compiled lane {lane} failed: {e}", design.name));
            let o = o
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: oracle lane {lane} failed: {e}", design.name));
            assert!(
                o.completed,
                "{}: oracle lane {lane} incomplete",
                design.name
            );
            assert!(
                c.same_behaviour(o),
                "{}: lane {lane} diverged from the oracle:\ncompiled: {:?} {:?} {:?}\noracle:   {:?} {:?} {:?}",
                design.name,
                c.outputs,
                c.sync_counts,
                c.memories,
                o.outputs,
                o.sync_counts,
                o.memories
            );
            assert_eq!(c.stats.lanes, 64);
            assert_eq!(c.stats.backend, SimBackend::Compiled);
        }
        // The base lane still satisfies the design's functional check.
        let base = compiled[0].as_ref().unwrap();
        check_outcome(&design.scenario.check, base)
            .unwrap_or_else(|e| panic!("{}: base-lane check failed: {e}", design.name));
        let cs = compile_sim(
            &design.compiled,
            &flow,
            &batch_input_ports(&scenarios),
            None,
        )
        .unwrap_or_else(|e| panic!("{}: compile: {e}", design.name));
        assert_gate_order_tapes(design.name, &flow, &cs);
    }
}

// A per-design seed so the four designs do not share variant data.
fn bm_seed(design: &Design) -> u64 {
    design.name.bytes().map(u64::from).sum::<u64>() * 0x9e37_79b9
}

/// Corpus traffic: the first 48 seed-11 corpus designs, 64 variants each.
/// Every compiled lane must reproduce the event engine's behaviour, and
/// the event engine's batch path (one lowering for all scenarios) must
/// reproduce single-scenario runs exactly. Each lane of the 64-lane
/// batch, which mixes transition-memo hits and tape runs, must equal its
/// own one-lane batch, which is always lane-uniform, events included. The
/// slice must cover every corpus family, a case/while select adapter, a
/// design scripting two or more data ports, memo hits and mixed-lane
/// evaluations.
#[test]
fn compiled_matches_event_engine_on_corpus_slice() {
    let corpus = generate_corpus(&CorpusSpec {
        seed: 11,
        designs: 48,
    })
    .expect("corpus builds");
    let library = Library::cmos035();
    let cache = ControllerCache::new();
    let delays = Delays::default();
    let mut families = BTreeSet::new();
    let (mut adapters, mut multi_port) = (0, 0);
    let (mut memo_hits, mut mixed_evals) = (0, 0);
    for d in &corpus {
        let flow = run_control_flow_with(&d.compiled, &FlowOptions::optimized(), &library, &cache)
            .unwrap_or_else(|e| panic!("{}: flow: {e}", d.name));
        let seed = derive_seed(11, &d.name, &d.params, 0);
        let scenarios: Vec<Scenario> = variants_of(&d.scenario, LANES, seed)
            .iter()
            .map(to_flow_scenario)
            .collect();
        let ports = batch_input_ports(&scenarios);
        let circuit = lower(&d.compiled, &flow, |p| ports.contains(p));
        families.insert(d.family);
        if circuit
            .parts
            .iter()
            .any(|p| matches!(p, Part::SelectAdapter { .. }))
        {
            adapters += 1;
        }
        if circuit.providers.len() >= 2 {
            multi_port += 1;
        }
        let compiled = simulate_scenarios(
            &d.compiled,
            &flow,
            &scenarios,
            &delays,
            SimBackend::Compiled,
            2,
            None,
        );
        let event = simulate_scenarios(
            &d.compiled,
            &flow,
            &scenarios,
            &delays,
            SimBackend::Event,
            2,
            None,
        );
        for (lane, (c, e)) in compiled.iter().zip(&event).enumerate() {
            let c = c
                .as_ref()
                .unwrap_or_else(|err| panic!("{}: compiled lane {lane}: {err}", d.name));
            let e = e
                .as_ref()
                .unwrap_or_else(|err| panic!("{}: event lane {lane}: {err}", d.name));
            assert!(
                c.same_behaviour(e),
                "{}: lane {lane} diverged:\ncompiled: {:?} {:?} {:?}\nevent:    {:?} {:?} {:?}",
                d.name,
                c.outputs,
                c.sync_counts,
                c.memories,
                e.outputs,
                e.sync_counts,
                e.memories
            );
            if lane < 8 {
                let solo = simulate(&d.compiled, &flow, &scenarios[lane], &delays)
                    .unwrap_or_else(|err| panic!("{}: solo lane {lane}: {err}", d.name));
                assert!(
                    solo.same_result(e),
                    "{}: lane {lane}: batch and single event runs differ",
                    d.name
                );
            }
        }
        let cs = compile_sim(&d.compiled, &flow, &ports, None)
            .unwrap_or_else(|err| panic!("{}: compile: {err}", d.name));
        assert_gate_order_tapes(&d.name, &flow, &cs);
        for (lane, (c, s)) in compiled.iter().zip(&scenarios).enumerate() {
            let solo = cs
                .run_batch(std::slice::from_ref(s))
                .unwrap_or_else(|err| panic!("{}: one-lane batch {lane}: {err}", d.name))
                .remove(0);
            assert_eq!(solo.stats.mixed_evals, 0, "{}: one lane is uniform", d.name);
            assert!(
                c.as_ref().is_ok_and(|c| c.same_result(&solo)),
                "{}: lane {lane} differs from its one-lane batch",
                d.name
            );
        }
        if let Some(Ok(c)) = compiled.first() {
            memo_hits += c.stats.memo_hits;
            mixed_evals += c.stats.mixed_evals;
        }
    }
    assert_eq!(
        families.into_iter().collect::<Vec<_>>(),
        ["calltree", "pipeline", "ring", "rnd", "wagging"],
        "the slice must cover every corpus family"
    );
    assert!(adapters > 0, "no design in the slice has a select adapter");
    assert!(
        multi_port > 0,
        "no design in the slice scripts two data ports"
    );
    assert!(
        memo_hits > 0,
        "no controller evaluation was served from the memo"
    );
    assert!(mixed_evals > 0, "no controller evaluation mixed lanes");
}

/// The wagging register with its flow and base scenario.
fn wagging() -> (Design, FlowResult, Scenario) {
    let wag = all_designs()
        .expect("designs build")
        .into_iter()
        .find(|d| d.name == "Wagging register")
        .expect("the wagging register ships");
    let flow = flows(std::slice::from_ref(&wag)).remove(0);
    let base = to_flow_scenario(&wag.scenario);
    assert!(
        base.input_values.contains_key("i"),
        "the base scenario scripts port i"
    );
    (wag, flow, base)
}

/// The wagging register compiled for `ports`, with its base scenario.
fn wagging_register(ports: &[&str]) -> (CompiledSim, Scenario) {
    let (wag, flow, base) = wagging();
    let ports = ports.iter().map(|p| p.to_string()).collect();
    let cs = compile_sim(&wag.compiled, &flow, &ports, None).expect("compiles");
    (cs, base)
}

/// A scenario set whose members script different port sets runs one
/// compiled circuit per port set, so the compiled backend agrees with the
/// event engine, which lowers each port set on its own, in scenario order.
#[test]
fn mixed_port_sets_match_the_event_engine() {
    let (wag, flow, base) = wagging();
    let mut without_i = base.clone();
    without_i.input_values.remove("i");
    let scenarios = [base.clone(), without_i, base];
    let delays = Delays::default();
    let run =
        |backend| simulate_scenarios(&wag.compiled, &flow, &scenarios, &delays, backend, 2, None);
    let event = run(SimBackend::Event);
    for (i, (c, e)) in run(SimBackend::Compiled).iter().zip(&event).enumerate() {
        let c = c
            .as_ref()
            .unwrap_or_else(|err| panic!("compiled scenario {i}: {err}"));
        let e = e
            .as_ref()
            .unwrap_or_else(|err| panic!("event scenario {i}: {err}"));
        assert!(e.completed, "event scenario {i} incomplete");
        assert_eq!(c.stats.backend, SimBackend::Compiled);
        assert!(
            c.same_behaviour(e),
            "compiled scenario {i} diverged:\ncompiled: {:?}\nevent:    {:?}",
            c.outputs,
            e.outputs
        );
    }
}

/// A script for a port the design does not have is ignored on every
/// backend, as the event engine's binding ignores it: a set pairing the
/// base scenario with a copy that also scripts such a port completes both
/// scenarios on both backends, all with the same behaviour.
#[test]
fn a_script_for_a_port_the_design_lacks_is_ignored_on_every_backend() {
    let (wag, flow, base) = wagging();
    let mut extra = base.clone();
    extra
        .input_values
        .insert("no_such_port".to_string(), vec![1, 2, 3]);
    let scenarios = [base, extra];
    let delays = Delays::default();
    let mut outcomes = Vec::new();
    for backend in [SimBackend::Event, SimBackend::Compiled] {
        let run = simulate_scenarios(&wag.compiled, &flow, &scenarios, &delays, backend, 2, None);
        assert_eq!(run.len(), 2, "{backend:?}");
        for (i, o) in run.into_iter().enumerate() {
            let o = o.unwrap_or_else(|err| panic!("{backend:?} scenario {i}: {err}"));
            assert!(o.completed, "{backend:?} scenario {i} incomplete");
            outcomes.push((backend, i, o));
        }
    }
    for (a, b) in outcomes.iter().zip(outcomes.iter().skip(1)) {
        assert!(
            a.2.same_behaviour(&b.2),
            "{:?} scenario {} vs {:?} scenario {}:\n{:?}\n{:?}",
            a.0,
            a.1,
            b.0,
            b.1,
            a.2.outputs,
            b.2.outputs
        );
    }
}

/// A scenario leaving out a port the circuit takes as an input would run
/// with an empty script on a port the event engine would lower as an
/// output, so `run_batch` rejects the batch.
#[test]
fn run_batch_rejects_a_scenario_missing_a_compiled_port() {
    let (cs, base) = wagging_register(&["i"]);
    let mut without_i = base.clone();
    without_i.input_values.remove("i");
    assert!(cs.run_batch(std::slice::from_ref(&base)).is_ok());
    match cs.run_batch(&[base, without_i]) {
        Err(SimBuildError::BatchShape(detail)) => {
            assert!(detail.contains("does not script port i"), "{detail}");
        }
        other => panic!("expected a batch-shape error, got {other:?}"),
    }
}

/// A scenario scripting a port the circuit was compiled to take as an
/// output is rejected.
#[test]
fn run_batch_rejects_a_scenario_scripting_an_output_port() {
    let (cs, base) = wagging_register(&[]);
    let mut without_i = base.clone();
    without_i.input_values.remove("i");
    assert!(cs.run_batch(std::slice::from_ref(&without_i)).is_ok());
    match cs.run_batch(&[without_i, base]) {
        Err(SimBuildError::BatchShape(detail)) => {
            assert!(detail.contains("scripts port i"), "{detail}");
        }
        other => panic!("expected a batch-shape error, got {other:?}"),
    }
}

/// The lowering never iterates a hash map: a design whose port map is
/// rebuilt in fresh `HashMap`s (each with its own iteration order) lowers
/// to the identical circuit.
#[test]
fn lowering_ignores_port_map_order() {
    let designs = all_designs().expect("designs build");
    let stack = designs.iter().find(|d| d.name == "Stack").unwrap();
    assert!(
        stack.compiled.port_channels.len() >= 3,
        "Stack has several ports"
    );
    let flow = flows(std::slice::from_ref(stack)).remove(0);
    let scenario = to_flow_scenario(&stack.scenario);
    let is_input = |p: &str| scenario.input_values.contains_key(p);
    let reference = lower(&stack.compiled, &flow, is_input);
    assert!(
        reference.providers.len() >= 2,
        "Stack scripts two data ports"
    );
    let mut orders = BTreeSet::new();
    for _ in 0..16 {
        let mut rebuilt = stack.compiled.clone();
        rebuilt.port_channels = stack
            .compiled
            .port_channels
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect::<HashMap<_, _>>();
        orders.insert(rebuilt.port_channels.keys().cloned().collect::<Vec<_>>());
        assert_eq!(lower(&rebuilt, &flow, is_input), reference);
    }
    assert!(
        orders.len() > 1,
        "the rebuilt port maps never changed order"
    );
}

/// A partial batch (fewer scenarios than lanes) must behave exactly like
/// the oracle; the dead upper lanes are padding only.
#[test]
fn partial_batches_match_the_oracle() {
    let designs = all_designs().expect("designs build");
    let stack = designs.iter().find(|d| d.name == "Stack").unwrap();
    let flow = flows(std::slice::from_ref(stack)).remove(0);
    let delays = Delays::default();
    let scenarios = variants(stack, 5, 7);
    let compiled = simulate_scenarios(
        &stack.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Compiled,
        2,
        None,
    );
    let oracle = simulate_scenarios(
        &stack.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Event,
        2,
        None,
    );
    assert_eq!(compiled.len(), 5);
    for (lane, (c, o)) in compiled.iter().zip(&oracle).enumerate() {
        let c = c.as_ref().expect("compiled lane");
        let o = o.as_ref().expect("oracle lane");
        assert!(c.same_behaviour(o), "partial-batch lane {lane} diverged");
        assert_eq!(c.stats.lanes, 5);
    }
}

/// Partial-batch throughput accounting counts live lanes only: each
/// lane's event count equals its singleton-batch run (the dead padding
/// contributes nothing), `stats.lanes` reports the live count, and the
/// batch events/s figure is exactly the live-lane event sum over the
/// batch wall time.
#[test]
fn partial_batch_stats_count_live_lanes_only() {
    let designs = all_designs().expect("designs build");
    let stack = designs.iter().find(|d| d.name == "Stack").unwrap();
    let flow = flows(std::slice::from_ref(stack)).remove(0);
    let delays = Delays::default();
    let scenarios = variants(stack, 5, 11);
    let batch = simulate_scenarios(
        &stack.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Compiled,
        1,
        None,
    );
    assert_eq!(batch.len(), 5);
    let mut live_sum = 0u64;
    for (lane, slot) in batch.iter().enumerate() {
        let o = slot.as_ref().expect("batch lane");
        // Each lane's events match the same scenario run as a singleton
        // batch — a dead-lane contribution would break the equality.
        let solo = simulate_scenarios(
            &stack.compiled,
            &flow,
            std::slice::from_ref(&scenarios[lane]),
            &delays,
            SimBackend::Compiled,
            1,
            None,
        );
        let solo = solo[0].as_ref().expect("singleton lane");
        assert_eq!(
            o.events, solo.events,
            "lane {lane}: batched event count differs from its singleton run"
        );
        assert_eq!(
            o.stats.lanes, 5,
            "lane {lane}: stats.lanes must be the live count"
        );
        live_sum += o.events;
    }
    // events/s is the live-lane sum over the batch wall: every outcome of
    // the batch reports the same figure, and multiplying it back by the
    // wall recovers the live event total (not a 64-lane-padded one).
    let stats = &batch[0].as_ref().unwrap().stats;
    if stats.wall_s > 0.0 {
        let recovered = stats.events_per_s * stats.wall_s;
        let err = (recovered - live_sum as f64).abs() / live_sum as f64;
        assert!(
            err < 1e-6,
            "events_per_s * wall_s = {recovered}, want {live_sum} (rel err {err})"
        );
    }
}

/// Compiled results are bit-identical whatever the worker-thread count
/// and whatever the shared transition memos hold: each thread count runs
/// on a fresh flow, whose memos start cold, and then again on that flow,
/// whose memos its first run warmed. The circuit is compiled once per
/// flow, wave evaluation is order-independent, and a memo entry is exact
/// for every lane that reads it.
#[test]
fn compiled_results_are_bit_identical_across_thread_counts() {
    let designs = all_designs().expect("designs build");
    let stack = designs.iter().find(|d| d.name == "Stack").unwrap();
    let delays = Delays::default();
    // 130 scenarios = two full batches and a 2-lane remainder.
    let scenarios = variants(stack, 130, 99);
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let flow = flows(std::slice::from_ref(stack)).remove(0);
        for memo in ["cold", "warm"] {
            let run = simulate_scenarios(
                &stack.compiled,
                &flow,
                &scenarios,
                &delays,
                SimBackend::Compiled,
                threads,
                None,
            );
            runs.push((format!("{threads}-thread {memo}"), run));
        }
    }
    let (first, reference) = &runs[0];
    for (what, run) in &runs[1..] {
        assert_eq!(run.len(), reference.len(), "{what}");
        for (i, (a, b)) in reference.iter().zip(run).enumerate() {
            let a = a.as_ref().expect("reference lane");
            let b = b.as_ref().expect("compared lane");
            assert!(
                a.same_result(b),
                "scenario {i}: {first} and {what} runs differ"
            );
            assert_eq!(
                a.stats.waves, b.stats.waves,
                "scenario {i}: wave counts differ"
            );
            assert_eq!(a.stats.lanes, b.stats.lanes);
        }
    }
}

/// An injected `sim_compile` fault surfaces as a typed error (or an
/// isolated panic) on every scenario of the batch, and never fires on the
/// event backend.
#[test]
fn sim_compile_fault_surfaces_as_typed_error() {
    let designs = all_designs().expect("designs build");
    let counter = &designs[0];
    let flow = flows(std::slice::from_ref(counter)).remove(0);
    let delays = Delays::default();
    let scenarios = variants(counter, 3, 5);
    let plan = FaultPlan {
        phase: FaultPhase::SimCompile,
        nth: 0,
        kind: FaultKind::Error,
    };
    let r = simulate_scenarios(
        &counter.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Compiled,
        2,
        Some(&plan),
    );
    assert_eq!(r.len(), 3);
    for slot in &r {
        match slot {
            Err(SimBuildError::Compile { controller, detail }) => {
                assert_eq!(*controller, flow.controllers[0].name);
                assert!(
                    detail.contains("injected fault at sim_compile of job 0"),
                    "{detail}"
                );
            }
            other => panic!("expected a typed compile error, got {other:?}"),
        }
    }
    // Panic kind: isolated and surfaced as SimBuildError::Panic.
    let plan = FaultPlan {
        phase: FaultPhase::SimCompile,
        nth: 0,
        kind: FaultKind::Panic,
    };
    let r = simulate_scenarios(
        &counter.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Compiled,
        2,
        Some(&plan),
    );
    for slot in &r {
        match slot {
            Err(SimBuildError::Panic(payload)) => {
                assert!(
                    payload.contains("injected fault: panic at phase sim_compile"),
                    "{payload}"
                );
            }
            other => panic!("expected a caught panic, got {other:?}"),
        }
    }
    // The same plan is inert on the event backend (no sim_compile phase).
    let r = simulate_scenarios(
        &counter.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Event,
        2,
        Some(&plan),
    );
    for slot in &r {
        assert!(slot.is_ok(), "event backend must ignore sim_compile faults");
    }
}
