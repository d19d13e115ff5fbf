//! Checking-side performance report: times the event engine on every
//! benchmark scenario against the pre-change engine recorded in
//! `BENCH_sim_baseline.json`, times the compiled backend against the event
//! engine on a 64-scenario batch (asserting per-lane parity), compares
//! on-the-fly against materialized ACR trace verification, and writes
//! `BENCH_sim.json`.
//!
//! Run with `--release`; the debug build is an order of magnitude slower.
//!
//! Stdout carries the pure JSON report (the same text written to
//! `BENCH_sim.json`); the human-readable tables go to **stderr** via
//! `bmbe_obs::vlog!` at verbosity ≥ 1 (`BMBE_VERBOSE=1`).

use bmbe_bench::report::{emit_report, run_main};
use bmbe_core::components::{decision_wait, sequencer};
use bmbe_core::opt::verify_acr_compared;
use bmbe_designs::{all_designs, scenario_variants};
use bmbe_flow::{
    run_control_flow, simulate, simulate_scenarios, to_flow_scenario, FaultPlan, FlowOptions,
    FlowResult, Scenario, SimBackend, SimOutcome,
};
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;
use bmbe_sim::LANES;
use std::fmt::Write as _;
use std::process::ExitCode;

const SAMPLES: usize = 9;
/// Samples for the batched backend comparison (64 event runs per sample on
/// the event side make each sample an order of magnitude heavier).
const BATCH_SAMPLES: usize = 5;

struct SchedNumbers {
    wall_s: f64,
    total_s: f64,
    events_per_sec: f64,
    peak_queue_depth: usize,
}

struct Row {
    design: String,
    events: u64,
    event: SchedNumbers,
    /// Run-loop events/sec of the pre-change engine, from
    /// `BENCH_sim_baseline.json`, when that file is present.
    baseline_events_per_sec: Option<f64>,
}

impl Row {
    /// Run-loop throughput gain over the pre-change engine.
    fn speedup_vs_baseline(&self) -> Option<f64> {
        Some(self.event.events_per_sec / self.baseline_events_per_sec?)
    }
}

/// Pulls `"field": <number>` out of `text` after position `from`.
fn field_after(text: &str, from: usize, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = text[from..].find(&needle)? + from + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads the pre-change engine's throughput for one design from
/// `BENCH_sim_baseline.json`. Tolerant by construction: a missing file,
/// design, or field simply yields `None`.
fn baseline_events_per_sec(design: &str) -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_sim_baseline.json").ok()?;
    let at = text.find(&format!("\"design\": \"{design}\""))?;
    field_after(&text, at, "run_loop_events_per_sec")
}

/// Runs one scenario `SAMPLES` times on the event engine and keeps the
/// median run-loop and end-to-end wall times.
fn measure(
    design: &bmbe_designs::scenarios::Design,
    flow: &FlowResult,
    scenario: &Scenario,
    delays: &Delays,
) -> Result<Row, String> {
    let run_one = || -> Result<(SimOutcome, f64), String> {
        let start = std::time::Instant::now();
        let run = simulate(&design.compiled, flow, scenario, delays)
            .map_err(|e| format!("{} sim: {e}", design.name))?;
        let total_s = start.elapsed().as_secs_f64();
        if !run.completed {
            return Err(format!("{}: scenario did not complete", design.name));
        }
        Ok((run, total_s))
    };
    // Warm-up; its outcome supplies the event count and queue depth.
    let (reference, _) = run_one()?;
    let mut walls = Vec::with_capacity(SAMPLES);
    let mut totals = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let (run, total_s) = run_one()?;
        walls.push(run.stats.wall_s);
        totals.push(total_s);
    }
    walls.sort_by(f64::total_cmp);
    totals.sort_by(f64::total_cmp);
    let wall_s = walls[SAMPLES / 2];
    Ok(Row {
        design: design.name.to_string(),
        events: reference.events,
        event: SchedNumbers {
            wall_s,
            total_s: totals[SAMPLES / 2],
            events_per_sec: reference.events as f64 / wall_s,
            peak_queue_depth: reference.stats.peak_queue_depth,
        },
        baseline_events_per_sec: baseline_events_per_sec(design.name),
    })
}

/// One design's batched compiled-vs-event comparison: the same 64-scenario
/// batch end to end on each backend, single worker thread.
struct BackendRow {
    design: String,
    lanes: usize,
    /// Event-engine aggregate event count across the batch — the common
    /// work unit both throughput figures divide, so their ratio is a pure
    /// wall-time ratio on identical work.
    events: u64,
    compiled_wall_s: f64,
    event_wall_s: f64,
}

impl BackendRow {
    fn compiled_events_per_sec(&self) -> f64 {
        self.events as f64 / self.compiled_wall_s
    }

    fn event_events_per_sec(&self) -> f64 {
        self.events as f64 / self.event_wall_s
    }

    fn speedup(&self) -> f64 {
        self.event_wall_s / self.compiled_wall_s
    }
}

/// Runs the design's 64-variant scenario batch on the compiled backend and
/// the event engine, asserting per-lane behavioural parity before any
/// timing, then keeps the median end-to-end wall of `BATCH_SAMPLES`
/// interleaved runs per backend.
fn measure_backends(
    design: &bmbe_designs::scenarios::Design,
    flow: &FlowResult,
    delays: &Delays,
    fault: Option<&FaultPlan>,
) -> Result<BackendRow, String> {
    let seed = design.name.bytes().map(u64::from).sum::<u64>() * 0x9e37_79b9;
    let scenarios: Vec<Scenario> = scenario_variants(design, LANES, seed)
        .iter()
        .map(to_flow_scenario)
        .collect();
    let run_batch = |backend: SimBackend| -> Result<(Vec<SimOutcome>, f64), String> {
        let start = std::time::Instant::now();
        let runs = simulate_scenarios(&design.compiled, flow, &scenarios, delays, backend, 1, fault);
        let wall_s = start.elapsed().as_secs_f64();
        let runs: Vec<SimOutcome> = runs
            .into_iter()
            .map(|r| r.map_err(|e| format!("{} {}: {e}", design.name, backend.name())))
            .collect::<Result<_, _>>()?;
        Ok((runs, wall_s))
    };
    // Warm-up, and the per-lane parity assertion the numbers depend on:
    // every compiled lane must reproduce its event-engine behaviour.
    let (compiled_ref, _) = run_batch(SimBackend::Compiled)?;
    let (event_ref, _) = run_batch(SimBackend::Event)?;
    for (lane, (c, o)) in compiled_ref.iter().zip(&event_ref).enumerate() {
        if !o.completed {
            return Err(format!("{}: event lane {lane} incomplete", design.name));
        }
        if !c.same_behaviour(o) {
            return Err(format!(
                "{}: compiled lane {lane} diverged from the event engine",
                design.name
            ));
        }
    }
    let mut walls = [Vec::with_capacity(BATCH_SAMPLES), Vec::with_capacity(BATCH_SAMPLES)];
    for _ in 0..BATCH_SAMPLES {
        for (i, backend) in [SimBackend::Compiled, SimBackend::Event]
            .into_iter()
            .enumerate()
        {
            let (_, wall_s) = run_batch(backend)?;
            walls[i].push(wall_s);
        }
    }
    for w in &mut walls {
        w.sort_by(f64::total_cmp);
    }
    Ok(BackendRow {
        design: design.name.to_string(),
        lanes: scenarios.len(),
        events: event_ref.iter().map(|o| o.events).sum(),
        compiled_wall_s: walls[0][BATCH_SAMPLES / 2],
        event_wall_s: walls[1][BATCH_SAMPLES / 2],
    })
}

struct VerifyRow {
    obligation: &'static str,
    otf_states: usize,
    materialized_states: usize,
    verdicts_agree: bool,
}

fn verify_rows() -> Result<Vec<VerifyRow>, String> {
    let dw = decision_wait(
        "a1",
        &["i1".to_string(), "i2".to_string()],
        &["o1".to_string(), "o2".to_string()],
    );
    let seq = sequencer("o2", &["c1".to_string(), "c2".to_string()]);
    let s1 = sequencer("p", &["x".to_string(), "m".to_string()]);
    let s2 = sequencer("m", &["y".to_string(), "z".to_string()]);
    [
        ("decision_wait+sequencer", verify_acr_compared(&dw, &seq, "o2")),
        ("chained_sequencers", verify_acr_compared(&s1, &s2, "m")),
    ]
    .into_iter()
    .map(|(obligation, cmp)| {
        let cmp = cmp.map_err(|e| format!("{obligation}: {e}"))?;
        Ok(VerifyRow {
            obligation,
            otf_states: cmp.otf_states,
            materialized_states: cmp.materialized_states,
            verdicts_agree: cmp.verdict.same_outcome(&cmp.oracle),
        })
    })
    .collect()
}

fn main() -> ExitCode {
    run_main("sim_report", run)
}

fn run() -> Result<bool, String> {
    bmbe_obs::init_from_env();
    let library = Library::cmos035();
    let delays = Delays::default();
    let designs = all_designs().map_err(|e| format!("shipped designs: {e}"))?;
    // The sim-side fault switch (e.g. `BMBE_FAULT=sim_compile:0`): the
    // flow itself also arms it via `with_env_fault`, so either side of
    // the pipeline can be poisoned from the same variable.
    let fault = FaultPlan::from_env();
    let mut rows: Vec<Row> = Vec::with_capacity(designs.len());
    let mut backends: Vec<BackendRow> = Vec::with_capacity(designs.len());
    for design in &designs {
        let flow = run_control_flow(
            &design.compiled,
            &FlowOptions::optimized().with_env_fault(),
            &library,
        )
        .map_err(|e| format!("{} flow: {e}", design.name))?;
        let scenario = to_flow_scenario(&design.scenario);
        rows.push(measure(design, &flow, &scenario, &delays)?);
        backends.push(measure_backends(design, &flow, &delays, fault.as_ref())?);
    }
    let verify = verify_rows()?;

    bmbe_obs::vlog!(1, "event engine (median of {SAMPLES} runs; run loop only)");
    bmbe_obs::vlog!(
        1,
        "{:<22} {:>9} {:>12} {:>14} {:>9}",
        "design",
        "events",
        "wall s",
        "ev/s",
        "vs seed"
    );
    for r in &rows {
        let vs_base = r
            .speedup_vs_baseline()
            .map_or_else(|| "-".to_string(), |s| format!("{s:.2}x"));
        bmbe_obs::vlog!(
            1,
            "{:<22} {:>9} {:>12.6} {:>14.0} {:>9}",
            r.design,
            r.events,
            r.event.wall_s,
            r.event.events_per_sec,
            vs_base
        );
    }
    bmbe_obs::vlog!(
        1,
        "\nbackends (64-scenario batch, end to end, 1 worker thread; median of {BATCH_SAMPLES}):"
    );
    bmbe_obs::vlog!(
        1,
        "{:<22} {:>5} {:>9} {:>12} {:>15} {:>12} {:>15} {:>9}",
        "design",
        "lanes",
        "events",
        "compiled s",
        "compiled ev/s",
        "event s",
        "event ev/s",
        "vs event"
    );
    for r in &backends {
        bmbe_obs::vlog!(
            1,
            "{:<22} {:>5} {:>9} {:>12.6} {:>15.0} {:>12.6} {:>15.0} {:>8.1}x",
            r.design,
            r.lanes,
            r.events,
            r.compiled_wall_s,
            r.compiled_events_per_sec(),
            r.event_wall_s,
            r.event_events_per_sec(),
            r.speedup()
        );
    }
    bmbe_obs::vlog!(1, "\nverification (states explored, on-the-fly vs materialized):");
    for v in &verify {
        bmbe_obs::vlog!(
            1,
            "{:<28} otf {:>5}  materialized {:>5}  agree {}",
            v.obligation,
            v.otf_states,
            v.materialized_states,
            v.verdicts_agree
        );
    }

    let mut json = String::from("{\n  \"bench\": \"sim_verify\",\n");
    let _ = writeln!(json, "  \"samples\": {SAMPLES},");
    json.push_str(
        "  \"note\": \"Each design row times the event engine's run loop on the shipped \
         scenario (median of the samples). events_per_sec_speedup_vs_baseline is the \
         before/after against the pre-change engine recorded in BENCH_sim_baseline.json \
         (measured at an earlier commit, run loop estimated by subtracting an \
         empty-scenario call). The backends section times the same 64-scenario variant \
         batch end to end on one worker thread per backend. The flow keeps the circuit it \
         was lowered to for the batch's port set, with the compiled circuit (its tapes and \
         their shared transition memos) and the event engine's program (its shared \
         transition memos), so only the warm-up lowers, builds tapes and builds the \
         program, and every timed run reads warm memos; both events_per_sec figures \
         divide the event engine's \
         aggregate event count, so compiled_vs_event is a pure wall-time ratio on \
         identical work. Both engines run one lowered circuit; per-lane behavioural \
         parity between them is asserted before any timing (a divergence fails this \
         report), not sampled.\",\n",
    );
    json.push_str("  \"designs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"design\": \"{}\", \"events\": {}, \
             \"event\": {{\"wall_s\": {:.6}, \"total_s\": {:.6}, \"events_per_sec\": {:.0}, \"peak_queue_depth\": {}}}",
            r.design,
            r.events,
            r.event.wall_s,
            r.event.total_s,
            r.event.events_per_sec,
            r.event.peak_queue_depth
        );
        if let (Some(base), Some(vs)) = (r.baseline_events_per_sec, r.speedup_vs_baseline()) {
            let _ = write!(
                json,
                ", \"baseline_events_per_sec\": {base:.0}, \
                 \"events_per_sec_speedup_vs_baseline\": {vs:.3}"
            );
        }
        json.push_str("}");
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"backends\": [\n");
    for (i, r) in backends.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"design\": \"{}\", \"lanes\": {}, \"events\": {}, \
             \"compiled\": {{\"wall_s\": {:.6}, \"events_per_sec\": {:.0}}}, \
             \"event\": {{\"wall_s\": {:.6}, \"events_per_sec\": {:.0}}}, \
             \"compiled_vs_event\": {:.3}}}",
            r.design,
            r.lanes,
            r.events,
            r.compiled_wall_s,
            r.compiled_events_per_sec(),
            r.event_wall_s,
            r.event_events_per_sec(),
            r.speedup()
        );
        json.push_str(if i + 1 < backends.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"verification\": [\n");
    for (i, v) in verify.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"obligation\": \"{}\", \"otf_states\": {}, \"materialized_states\": {}, \
             \"verdicts_agree\": {}}}",
            v.obligation, v.otf_states, v.materialized_states, v.verdicts_agree
        );
        json.push_str(if i + 1 < verify.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    emit_report("BENCH_sim.json", &json)?;
    Ok(true)
}
