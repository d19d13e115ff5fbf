//! Ablation: Minimalist's speed mode (single-output minimization) vs area
//! mode (shared identical products) — product and literal counts per
//! benchmark controller set.

use bmbe_bm::synth::MinimizeMode;
use bmbe_designs::all_designs;
use bmbe_flow::{run_control_flow_with, ControllerCache, FlowOptions};
use bmbe_gates::{Library, MapObjective, MapStyle};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: ablation_minmode: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let library = Library::cmos035();
    // Repeated component shapes (across clusters and across designs) are
    // synthesized once through the content-addressed cache.
    let cache = ControllerCache::new();
    let options = FlowOptions {
        minimize_mode: MinimizeMode::Speed,
        map_objective: MapObjective::Delay,
        map_style: MapStyle::SplitModules,
        ..FlowOptions::optimized()
    };
    println!("Ablation: minimization mode (products / distinct products)");
    for design in all_designs().map_err(|e| format!("shipped designs: {e}"))? {
        let flow = run_control_flow_with(&design.compiled, &options, &library, &cache)
            .map_err(|e| format!("{}: {e}", design.name))?;
        let total = flow.total_products();
        let distinct: usize = flow
            .controllers
            .iter()
            .map(|c| c.controller.num_distinct_products())
            .sum();
        println!(
            "{:<22} speed-mode products {:>4}, shareable (area mode) {:>4}  ({:.1}% duplication)",
            design.name,
            total,
            distinct,
            100.0 * (total - distinct) as f64 / total.max(1) as f64
        );
    }
    let stats = cache.stats();
    println!(
        "(controller cache: {} unique shapes synthesized, {} served from cache)",
        stats.misses, stats.hits
    );
    Ok(())
}
