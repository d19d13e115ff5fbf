//! Ablation for the paper's SS 5/6 observation: mapping the two logic
//! levels separately (three Verilog modules) denies the mapper cross-level
//! merges and costs area.

use bmbe_bm::synth::MinimizeMode;
use bmbe_designs::all_designs;
use bmbe_flow::{run_control_flow_with, ControllerCache, FlowOptions};
use bmbe_gates::{Library, MapObjective, MapStyle};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: ablation_mapping: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let lib = Library::cmos035();
    // One cache across designs and both mapping styles: each (shape, style)
    // pair is synthesized and mapped once.
    let cache = ControllerCache::new();
    println!("Ablation: split-module vs whole-controller technology mapping (area um2)");
    for design in all_designs().map_err(|e| format!("shipped designs: {e}"))? {
        let mut area = [0.0; 2];
        for (style, acc) in [MapStyle::SplitModules, MapStyle::WholeController]
            .into_iter()
            .zip(&mut area)
        {
            let options = FlowOptions {
                minimize_mode: MinimizeMode::Speed,
                map_objective: MapObjective::Area,
                map_style: style,
                ..FlowOptions::optimized()
            };
            *acc = run_control_flow_with(&design.compiled, &options, &lib, &cache)
                .map_err(|e| format!("{}: {e}", design.name))?
                .control_area;
        }
        let [split, whole] = area;
        println!(
            "{:<22} split {:>8.0}  whole {:>8.0}  (split penalty {:+.1}%)",
            design.name,
            split,
            whole,
            100.0 * (split - whole) / whole.max(1.0)
        );
    }
    let stats = cache.stats();
    println!(
        "(controller cache: {} unique shape/style pairs synthesized, {} served from cache)",
        stats.misses, stats.hits
    );
    Ok(())
}
