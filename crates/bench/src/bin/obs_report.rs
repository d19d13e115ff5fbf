//! Observability report: runs the Stack benchmark design through the full
//! back-end (flow synthesis, simulation, one trace-verification obligation)
//! with tracing enabled, writes the Chrome trace (`BMBE_TRACE_OUT`,
//! default `trace.json`) plus a JSONL event log next to it, and prints a
//! machine-readable summary — trace shape plus every count's total, read
//! back from the JSONL through `bmbe_obs::analyze` — to stdout.
//! Human-readable progress goes to stderr (`BMBE_VERBOSE=1`).
//!
//! `--check` additionally validates everything a trace consumer relies on
//! and exits non-zero on the first violation:
//!
//! - the emitted Chrome trace and every JSONL line parse as JSON
//!   (`bmbe_obs::export::validate_json`, dependency-free);
//! - every span closes exactly once, LIFO per lane, nothing dropped
//!   (`bmbe_obs::export::validate`);
//! - the span lanes cover all six per-shape flow phases and the simulator
//!   run loop;
//! - the flow's cache misses and synthesized shapes, the simulator's events
//!   and the verifier's states each total above zero, and the
//!   `cache.misses` total equals the flow's own `cache_misses`.
//!
//! This is the smoke gate the tier-1 CI script runs.

use bmbe_bench::report::{run_main, write_trace_files};
use bmbe_core::components::{decision_wait, sequencer};
use bmbe_core::opt::verify_acr_compared;
use bmbe_designs::all_designs;
use bmbe_flow::{run_control_flow, simulate, to_flow_scenario, FlowOptions};
use bmbe_gates::Library;
use bmbe_obs::analyze::parse_merged;
use bmbe_obs::export::{escape, validate, validate_json};
use bmbe_sim::prims::Delays;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The span names a complete trace must contain: the six per-shape flow
/// phases plus the simulator run loop.
const REQUIRED_SPANS: &[&str] = &[
    "shape.compile",
    "shape.statemin",
    "shape.synth",
    "shape.verify",
    "shape.map",
    "shape.verify_mapped",
    "sim.run",
];

/// The counts a complete trace must total above zero: one per layer the
/// report runs (cache, fleet driver, simulator, verifier).
const REQUIRED_COUNTERS: &[&str] = &[
    "cache.misses",
    "batch.shapes.synthesized",
    "sim.events",
    "verify.states",
];

fn main() -> ExitCode {
    run_main("obs_report", run)
}

fn run() -> Result<bool, String> {
    let check = std::env::args().any(|a| a == "--check");
    let fail = |msg: String| format!("--check: {msg}");
    bmbe_obs::init_from_env();
    bmbe_obs::set_enabled(true);

    let library = Library::cmos035();
    let designs = all_designs().map_err(|e| format!("shipped designs: {e}"))?;
    let design = designs
        .iter()
        .find(|d| d.name == "Stack")
        .ok_or("Stack benchmark design missing")?;

    bmbe_obs::vlog!(1, "tracing flow synthesis of {} ...", design.name);
    let flow = run_control_flow(
        &design.compiled,
        &FlowOptions::optimized().with_env_fault(),
        &library,
    )
    .map_err(|e| format!("{} flow: {e}", design.name))?;
    bmbe_obs::vlog!(1, "tracing simulation ...");
    let scenario = to_flow_scenario(&design.scenario);
    let outcome = simulate(&design.compiled, &flow, &scenario, &Delays::default())
        .map_err(|e| format!("{} sim: {e}", design.name))?;
    bmbe_obs::vlog!(1, "tracing trace verification ...");
    let dw = decision_wait(
        "a1",
        &["i1".to_string(), "i2".to_string()],
        &["o1".to_string(), "o2".to_string()],
    );
    let seq = sequencer("o2", &["c1".to_string(), "c2".to_string()]);
    verify_acr_compared(&dw, &seq, "o2").map_err(|e| format!("verification obligation: {e}"))?;

    bmbe_obs::set_enabled(false);
    let trace = bmbe_obs::flush();

    let (out_path, jsonl_path) = write_trace_files(&trace)?;
    // Counts and checks read the files as written, not the in-memory
    // trace: that covers the full export-to-disk path consumers read.
    let jsonl =
        std::fs::read_to_string(&jsonl_path).map_err(|e| format!("read back {jsonl_path}: {e}"))?;
    let counters = parse_merged(&jsonl)
        .and_then(|t| t.counter_totals())
        .map_err(|e| format!("{jsonl_path}: {e}"))?;

    let mut covered: Vec<&str> = REQUIRED_SPANS
        .iter()
        .copied()
        .filter(|name| trace.has_callsite(name))
        .collect();
    covered.sort_unstable();

    if check {
        if let Err(e) = validate(&trace) {
            return Err(fail(format!("trace validation: {e}")));
        }
        let chrome = std::fs::read_to_string(&out_path)
            .map_err(|e| fail(format!("read back {out_path}: {e}")))?;
        if let Err((at, e)) = validate_json(&chrome) {
            return Err(fail(format!(
                "{out_path} is not valid JSON at byte {at}: {e}"
            )));
        }
        for (n, line) in jsonl.lines().enumerate() {
            if let Err((at, e)) = validate_json(line) {
                return Err(fail(format!("{jsonl_path} line {}: byte {at}: {e}", n + 1)));
            }
        }
        for name in REQUIRED_SPANS {
            if !trace.has_callsite(name) {
                return Err(fail(format!(
                    "required span {name:?} missing from the trace"
                )));
            }
        }
        for name in REQUIRED_COUNTERS {
            if counters.get(*name).copied().unwrap_or(0) <= 0 {
                return Err(fail(format!(
                    "required count {name:?} missing or not positive"
                )));
            }
        }
        let misses = counters.get("cache.misses").copied().unwrap_or(0);
        if misses != flow.cache_misses as i64 {
            return Err(fail(format!(
                "cache.misses totals {misses}, the flow counted {}",
                flow.cache_misses
            )));
        }
        if !outcome.completed {
            return Err(fail("simulation scenario did not complete".to_string()));
        }
        bmbe_obs::vlog!(1, "all checks passed");
    }

    let mut summary = String::from("{\n");
    let _ = writeln!(summary, "  \"report\": \"obs\",");
    let _ = writeln!(summary, "  \"design\": \"{}\",", escape(design.name));
    let _ = writeln!(summary, "  \"trace_out\": \"{}\",", escape(&out_path));
    let _ = writeln!(summary, "  \"jsonl_out\": \"{}\",", escape(&jsonl_path));
    let _ = writeln!(summary, "  \"trace_records\": {},", trace.events.len());
    let _ = writeln!(summary, "  \"lanes\": {},", trace.lanes.len());
    let _ = writeln!(summary, "  \"dropped\": {},", trace.dropped);
    let _ = writeln!(summary, "  \"sim_events\": {},", outcome.events);
    let _ = writeln!(summary, "  \"checked\": {check},");
    let _ = write!(summary, "  \"spans_covered\": [");
    for (i, name) in covered.iter().enumerate() {
        let _ = write!(summary, "{}\"{name}\"", if i > 0 { ", " } else { "" });
    }
    let _ = writeln!(summary, "],");
    let _ = write!(summary, "  \"counters\": {{");
    for (i, (name, total)) in counters.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(summary, "{sep}\"{}\": {total}", escape(name));
    }
    summary.push_str("}\n}\n");
    // Stdout is the machine-readable channel: the summary JSON and nothing
    // else.
    print!("{summary}");
    Ok(true)
}
