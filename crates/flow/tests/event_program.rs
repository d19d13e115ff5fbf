//! The event engine's program path — one watcher index and one controller
//! logic per lowered circuit, each controller's transition memo shared by
//! every run of the program — against the per-run construction kept in
//! `support/event_ref.rs`: the same outcome for every run, whatever
//! history warmed the shared memos, at any worker count and under any
//! delays.

#[path = "support/cases.rs"]
mod cases;
#[path = "support/event_ref.rs"]
mod event_ref;

use bmbe_flow::{simulate, simulate_scenarios, ControllerCache, FlowResult, Scenario, SimBackend};
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;
use bmbe_sim::Part;
use cases::{cases, flow, scenarios, Case};
use event_ref::reference_run;

/// The names of the part kinds, in the order [`kind`] numbers them.
const KINDS: [&str; 14] = [
    "Controller",
    "Constant",
    "Variable",
    "BinFunc",
    "UnFunc",
    "CallMux",
    "PullMux",
    "Memory",
    "SelectAdapter",
    "FetchData",
    "ActivationDriver",
    "SyncResponder",
    "PullProvider",
    "PushConsumer",
];

/// The index of `part`'s kind in [`KINDS`]; a new kind fails to compile
/// here until the list names it.
fn kind(part: &Part) -> usize {
    match part {
        Part::Controller { .. } => 0,
        Part::Constant { .. } => 1,
        Part::Variable { .. } => 2,
        Part::BinFunc { .. } => 3,
        Part::UnFunc { .. } => 4,
        Part::CallMux { .. } => 5,
        Part::PullMux { .. } => 6,
        Part::Memory { .. } => 7,
        Part::SelectAdapter { .. } => 8,
        Part::FetchData { .. } => 9,
        Part::ActivationDriver { .. } => 10,
        Part::SyncResponder { .. } => 11,
        Part::PullProvider { .. } => 12,
        Part::PushConsumer { .. } => 13,
    }
}

/// `scenario` run on `flow`'s program path equals its per-run reference;
/// marks the part kinds of the circuit compared in `seen`.
fn check(
    case: &Case,
    flow: &FlowResult,
    scenario: &Scenario,
    what: &str,
    seen: &mut [bool; KINDS.len()],
) -> Result<(), String> {
    let delays = Delays::default();
    let program = simulate(&case.compiled, flow, scenario, &delays)
        .map_err(|e| format!("{}: {what}: {e}", case.name))?;
    let (circuit, reference) = reference_run(&case.compiled, flow, scenario, &delays)?;
    for part in &circuit.parts {
        seen[kind(part)] = true;
    }
    if program.same_result(&reference) {
        Ok(())
    } else {
        Err(format!(
            "{}: {what}: program {:?} {} {} {:?}, reference {:?} {} {} {:?}",
            case.name,
            program.completed,
            program.time_ns,
            program.events,
            program.outputs,
            reference.completed,
            reference.time_ns,
            reference.events,
            reference.outputs
        ))
    }
}

/// The base scenario and 8 variants of the paper designs and of the first
/// 48 seed-11 corpus designs, run on one flow per design forwards, then
/// backwards, then interleaved with the same scenarios over a second port
/// set (the first scripted port left out), so each shared memo is read
/// after a different history. Every run equals the per-run construction,
/// `time_ns` and `events` included, and the circuits compared hold every
/// kind of part.
#[test]
fn program_runs_match_the_per_run_construction() -> Result<(), String> {
    let (library, cache) = (Library::cmos035(), ControllerCache::new());
    let mut two_port_sets = 0;
    let mut seen = [false; KINDS.len()];
    for case in cases(48)? {
        let flow = flow(&case, &library, &cache)?;
        let forwards = scenarios(&case, 9);
        for (i, s) in forwards.iter().enumerate() {
            check(&case, &flow, s, &format!("forwards {i}"), &mut seen)?;
        }
        for (i, s) in forwards.iter().enumerate().rev() {
            check(&case, &flow, s, &format!("backwards {i}"), &mut seen)?;
        }
        let Some(port) = forwards[0].input_values.keys().min().cloned() else {
            continue;
        };
        two_port_sets += 1;
        for (i, s) in forwards.iter().enumerate() {
            let mut without = s.clone();
            without.input_values.remove(&port);
            check(
                &case,
                &flow,
                &without,
                &format!("interleaved {i} without {port}"),
                &mut seen,
            )?;
            check(&case, &flow, s, &format!("interleaved {i}"), &mut seen)?;
        }
    }
    assert!(
        two_port_sets >= 10,
        "{two_port_sets} designs with two port sets"
    );
    let missing: Vec<&str> = KINDS
        .iter()
        .zip(seen)
        .filter_map(|(name, seen)| (!seen).then_some(*name))
        .collect();
    assert!(missing.is_empty(), "no circuit compared holds {missing:?}");
    Ok(())
}

/// One fresh flow per worker count: the event outcomes of
/// `simulate_scenarios` at 1 and 4 workers, whose runs share each memo
/// concurrently, are identical.
#[test]
fn event_outcomes_are_identical_at_one_and_four_workers() -> Result<(), String> {
    let (library, cache) = (Library::cmos035(), ControllerCache::new());
    let delays = Delays::default();
    for case in cases(16)? {
        let scenarios = scenarios(&case, 24);
        let run = |threads| -> Result<Vec<_>, String> {
            let flow = flow(&case, &library, &cache)?;
            simulate_scenarios(
                &case.compiled,
                &flow,
                &scenarios,
                &delays,
                SimBackend::Event,
                threads,
                None,
            )
            .into_iter()
            .map(|r| r.map_err(|e| format!("{}: {e}", case.name)))
            .collect()
        };
        let (one, four) = (run(1)?, run(4)?);
        assert_eq!(one.len(), four.len());
        for (i, (a, b)) in one.iter().zip(&four).enumerate() {
            assert!(a.same_result(b), "{}: scenario {i}", case.name);
        }
    }
    Ok(())
}

/// The program holds no delays: a flow run first under the default delays
/// and then under other wire and datapath delays gives, for each, the
/// outcome a fresh flow gives under the same delays.
#[test]
fn delays_belong_to_the_run_not_the_program() -> Result<(), String> {
    let (library, cache) = (Library::cmos035(), ControllerCache::new());
    let default = Delays::default();
    let other = Delays {
        wire: 310,
        var_read: 170,
        var_write: 290,
        constant: 130,
        arith: 1100,
        compare: 1700,
        logic: 450,
        unary: 380,
        memory: 2600,
        mux: 210,
        select: 340,
        env: 90,
    };
    for case in cases(0)? {
        let base = &scenarios(&case, 1)[0];
        let shared = flow(&case, &library, &cache)?;
        let mut times = Vec::new();
        for delays in [&default, &other] {
            let run = |flow: &FlowResult| {
                simulate(&case.compiled, flow, base, delays).map_err(|e| e.to_string())
            };
            let (on_shared, fresh) = (run(&shared)?, run(&flow(&case, &library, &cache)?)?);
            assert!(on_shared.same_result(&fresh), "{}", case.name);
            times.push(on_shared.time_ns);
        }
        assert_ne!(times[0], times[1], "{}: the delays must matter", case.name);
    }
    Ok(())
}

/// A second identical run finds every transition the first settled in the
/// shared memo, so it reports more memo hits than the first.
#[test]
fn a_repeated_run_is_served_by_the_shared_memo() -> Result<(), String> {
    let (library, cache) = (Library::cmos035(), ControllerCache::new());
    let delays = Delays::default();
    for case in cases(0)? {
        let flow = flow(&case, &library, &cache)?;
        let base = &scenarios(&case, 1)[0];
        let run = || simulate(&case.compiled, &flow, base, &delays).map_err(|e| e.to_string());
        let (first, second) = (run()?, run()?);
        assert!(first.same_result(&second), "{}", case.name);
        assert!(
            second.stats.memo_hits > first.stats.memo_hits,
            "{}: memo hits {} then {}",
            case.name,
            first.stats.memo_hits,
            second.stats.memo_hits
        );
    }
    Ok(())
}
