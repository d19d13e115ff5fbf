//! Layered end-to-end benchmark of the bmbe back-end.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow_single|fleet_warm|sim_check --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs the same design set (the four paper designs, then a
//! seeded corpus slice) from mini-Balsa source text. With `--trace 0` the
//! last stdout line is a JSON object carrying the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced replay. Earlier
//! stdout lines give the run's parameters and one `FAIL` line per failed
//! design. See `perfbench/README.md` for the metric table.

mod inputs;
mod pool;
mod replay;
mod simstep;
mod spans;
mod workloads;

use std::process::ExitCode;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 11;
/// A seed kept out of every tuning run, for checking claims made with the
/// default seed.
pub const HELD_OUT_SEED: u64 = 23;

/// What one run asks for.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

/// One named metric value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

fn print_result(o: &Outcome) {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    let correct = o.correct && o.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match workloads::run(&args) {
        Ok(outcome) => {
            print_result(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
