//! Perf-regression sentinel: diffs freshly generated `BENCH_flow.json` /
//! `BENCH_sim.json` reports against committed baselines and prints a
//! pass/fail verdict JSON on stdout, exiting non-zero when any gate is
//! breached. Gate policies (exact for structural counts, a ratio floor
//! for timing ratios, nothing for absolute seconds) live in
//! [`bmbe_bench::trend`].
//!
//! ```text
//! bench_trend [--flow FRESH] [--baseline-flow BASE]
//!             [--sim FRESH] [--baseline-sim BASE]
//! ```
//!
//! Defaults compare `BENCH_flow.json` / `BENCH_sim.json` in the working
//! directory against themselves (a schema self-check that always passes
//! on intact files); CI points `--flow`/`--sim` at a fresh run's output
//! while the baselines stay at the committed copies.
//!
//! An absent or empty baseline is a structured **no-baseline verdict**,
//! not a parse error: the verdict JSON carries a `no_baseline` array with
//! one explicit reason per affected side and the run exits non-zero —
//! a report added without a committed baseline (as the gauntlet's
//! `BENCH_gauntlet.json` starts life) fails loudly instead of passing
//! vacuously or dying on a read error.
//!
//! Human-readable narration goes to stderr (`BMBE_VERBOSE=1`); stdout is
//! pure JSON.

use bmbe_bench::report::{flag_str, run_main};
use bmbe_bench::trend::{compare, Outcome, Spec, FLOW_SPECS, SIM_SPECS};
use bmbe_obs::export::escape;
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main("bench_trend", run)
}

/// One comparison side: resolved paths plus its gate table.
struct Side {
    label: &'static str,
    fresh: String,
    baseline: String,
    specs: &'static [Spec],
}

fn run() -> Result<bool, String> {
    bmbe_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sides = [
        Side {
            label: "flow",
            fresh: flag_str(&args, "--flow")?.unwrap_or_else(|| "BENCH_flow.json".to_string()),
            baseline: flag_str(&args, "--baseline-flow")?
                .unwrap_or_else(|| "BENCH_flow.json".to_string()),
            specs: FLOW_SPECS,
        },
        Side {
            label: "sim",
            fresh: flag_str(&args, "--sim")?.unwrap_or_else(|| "BENCH_sim.json".to_string()),
            baseline: flag_str(&args, "--baseline-sim")?
                .unwrap_or_else(|| "BENCH_sim.json".to_string()),
            specs: SIM_SPECS,
        },
    ];

    let mut outcome = Outcome::default();
    let mut compared: Vec<(&'static str, String, String)> = Vec::new();
    for side in &sides {
        // An absent baseline is a structured no-baseline verdict when the
        // side was explicitly requested, and a skip when only the default
        // path is in play *and* the side's fresh report is also absent (a
        // repo may only commit one of the two reports). A fresh report
        // with no baseline behind it must fail loudly.
        let explicit = args.iter().any(|a| {
            a == &format!("--{}", side.label) || a == &format!("--baseline-{}", side.label)
        });
        let baseline = match std::fs::read_to_string(&side.baseline) {
            Ok(text) => text,
            Err(e) => {
                if !explicit && !std::path::Path::new(&side.fresh).exists() {
                    bmbe_obs::vlog!(1, "bench_trend: skipping {}: {e}", side.baseline);
                    continue;
                }
                let reason = format!("{}: baseline {} unreadable: {e}", side.label, side.baseline);
                eprintln!("bench_trend: {reason}");
                outcome.no_baseline.push(reason);
                continue;
            }
        };
        let fresh = std::fs::read_to_string(&side.fresh)
            .map_err(|e| format!("read {}: {e}", side.fresh))?;
        let mut side_outcome = compare(&baseline, &fresh, side.specs);
        // Attribute empty-baseline reasons to the side's file.
        for reason in &mut side_outcome.no_baseline {
            *reason = format!("{}: {} — {reason}", side.label, side.baseline);
        }
        bmbe_obs::vlog!(
            1,
            "bench_trend: {} ({} vs baseline {}): {} metrics checked, {} breach(es)",
            side.label,
            side.fresh,
            side.baseline,
            side_outcome.checked,
            side_outcome.breaches.len()
        );
        for breach in &side_outcome.breaches {
            eprintln!("bench_trend: {}: {breach}", side.label);
        }
        for reason in &side_outcome.no_baseline {
            eprintln!("bench_trend: {reason}");
        }
        compared.push((side.label, side.fresh.clone(), side.baseline.clone()));
        outcome.merge(side_outcome);
    }
    if compared.is_empty() && outcome.no_baseline.is_empty() {
        outcome
            .no_baseline
            .push("no reports to compare (no BENCH_*.json found)".to_string());
        eprintln!("bench_trend: no reports to compare (no BENCH_*.json found)");
    }

    let mut json = String::from("{\n  \"trend\": true,\n");
    let _ = writeln!(json, "  \"pass\": {},", outcome.pass());
    let _ = writeln!(json, "  \"checked\": {},", outcome.checked);
    let _ = writeln!(json, "  \"compared\": [");
    for (i, (label, fresh, baseline)) in compared.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"report\": \"{label}\", \"fresh\": \"{}\", \"baseline\": \"{}\"}}",
            escape(fresh),
            escape(baseline)
        );
        json.push_str(if i + 1 < compared.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"no_baseline\": [");
    for (i, reason) in outcome.no_baseline.iter().enumerate() {
        let _ = write!(json, "    \"{}\"", escape(reason));
        json.push_str(if i + 1 < outcome.no_baseline.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"breaches\": [");
    for (i, breach) in outcome.breaches.iter().enumerate() {
        let _ = write!(json, "    {}", breach.to_json());
        json.push_str(if i + 1 < outcome.breaches.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    print!("{json}");
    Ok(outcome.pass())
}
