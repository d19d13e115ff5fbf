//! Fleet critical-path analyzer: loads one or more self-describing JSONL
//! trace streams (as written by the traced report bins — each process'
//! stream opens with a `{"kind": "meta", "run": ...}` line, so
//! concatenating cold and warm fleet traces yields one logical merged
//! trace), reconstructs the span forest, and prints the fleet critical
//! path, the per-phase wall/self split, and the per-shape singleflight
//! wait attribution as one JSON object on stdout.
//!
//! ```text
//! trace_report [--check] FILE...
//! ```
//!
//! `--check` additionally validates every input line as JSON
//! (`bmbe_obs::export::validate_json`) and requires a non-empty critical
//! path, exiting non-zero on the first violation. This is the gate the
//! tier-1 CI script runs over a merged cold+warm batch fleet trace.
//!
//! Human-readable narration goes to stderr (`BMBE_VERBOSE=1`); stdout is
//! pure JSON.

use bmbe_bench::report::run_main;
use bmbe_obs::analyze::parse_merged;
use bmbe_obs::export::{escape, validate_json};
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main("trace_report", run)
}

fn run() -> Result<bool, String> {
    bmbe_obs::init_from_env();
    let mut check = false;
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return Err("usage: trace_report [--check] FILE...".to_string());
    }

    // Merge = concatenation: each stream's meta line re-keys subsequent
    // spans to its own run, so file order only affects presentation.
    let mut merged = String::new();
    for file in &files {
        let text =
            std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
        if check {
            for (n, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                if let Err((at, e)) = validate_json(line) {
                    return Err(format!(
                        "--check: {file} line {}: byte {at}: {e}",
                        n + 1
                    ));
                }
            }
        }
        merged.push_str(&text);
        if !merged.ends_with('\n') {
            merged.push('\n');
        }
    }

    let trace = parse_merged(&merged)?;
    let path = trace.critical_path();
    let phases = trace.phase_rows();
    let waits = trace.wait_attribution();
    if check && path.segments.is_empty() {
        return Err("--check: merged trace has an empty critical path".to_string());
    }
    bmbe_obs::vlog!(
        1,
        "{} file(s), {} lines, {} spans across {} run(s); critical path {} segments / {} ns",
        files.len(),
        trace.lines,
        trace.nodes.len(),
        trace.runs.len(),
        path.segments.len(),
        path.total_ns
    );

    let mut json = String::from("{\n  \"report\": \"trace\",\n");
    let _ = write!(json, "  \"files\": [");
    for (i, file) in files.iter().enumerate() {
        let _ = write!(json, "{}\"{}\"", if i > 0 { ", " } else { "" }, escape(file));
    }
    let _ = writeln!(json, "],");
    let _ = write!(json, "  \"runs\": [");
    for (i, run) in trace.runs.iter().enumerate() {
        let _ = write!(json, "{}\"{run:016x}\"", if i > 0 { ", " } else { "" });
    }
    let _ = writeln!(json, "],");
    let _ = writeln!(json, "  \"lines\": {},", trace.lines);
    let _ = writeln!(json, "  \"spans\": {},", trace.nodes.len());
    let _ = writeln!(json, "  \"checked\": {check},");

    let _ = writeln!(
        json,
        "  \"critical_path\": {{\"total_ns\": {}, \"segments\": [",
        path.total_ns
    );
    for (i, seg) in path.segments.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"run\": \"{:016x}\", \"dur_ns\": {}, \"self_ns\": {}}}",
            escape(&seg.name),
            seg.run,
            seg.dur_ns,
            seg.self_ns
        );
        json.push_str(if i + 1 < path.segments.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(json, "  ]}},");

    let _ = writeln!(json, "  \"phases\": [");
    for (i, row) in phases.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"count\": {}, \"wall_ns\": {}, \"self_ns\": {}}}",
            escape(&row.name),
            row.count,
            row.wall_ns,
            row.self_ns
        );
        json.push_str(if i + 1 < phases.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(json, "  ],");

    let _ = writeln!(json, "  \"singleflight_waits\": [");
    for (i, row) in waits.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"digest\": \"{:016x}\", \"waits\": {}, \"wait_us\": {}, \"owner_run\": {}, \
             \"owner_dur_ns\": {}, \"owner_hotspot\": {}}}",
            row.digest,
            row.waits,
            row.wait_us,
            row.owner_run
                .map_or("null".to_string(), |r| format!("\"{r:016x}\"")),
            row.owner_dur_ns,
            row.owner_hotspot
                .as_deref()
                .map_or("null".to_string(), |h| format!("\"{}\"", escape(h)))
        );
        json.push_str(if i + 1 < waits.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    print!("{json}");
    Ok(true)
}
