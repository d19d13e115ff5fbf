//! The minimizer's width decision reconciles with its owner: a traced
//! `reference_flow` run records one `hfmin.engine.exact` or
//! `hfmin.engine.cofactor` count per cover the driver returns, so on each
//! paper design the two totals equal the controllers' summed
//! `MinimizeStats::exact_funcs` and `cofactor_funcs`.
//!
//! One `#[test]` on purpose: tracing state is process-global, and a
//! sibling test recording concurrently would add its counts to this
//! test's flush.

use bmbe_designs::all_designs;
use bmbe_flow::{reference_flow, FlowOptions};
use bmbe_gates::Library;
use bmbe_obs::analyze::traced;

#[test]
fn engine_counts_equal_the_controllers_minimize_stats() -> Result<(), String> {
    let library = Library::cmos035();
    let designs = all_designs().map_err(|e| format!("shipped designs: {e}"))?;
    let options = FlowOptions::optimized();
    let (mut exact_total, mut cofactor_total) = (0, 0);
    for design in &designs {
        let (result, trace) = traced(|| reference_flow(&design.compiled, &options, &library))?;
        let result = result.map_err(|e| format!("{}: {e}", design.name))?;
        let counts = trace.counter_totals()?;
        let count = |name: &str| counts.get(name).copied().unwrap_or(0);
        let stats = result
            .controllers
            .iter()
            .map(|c| c.controller.minimize_stats);
        let exact: usize = stats.clone().map(|s| s.exact_funcs).sum();
        let cofactor: usize = stats.map(|s| s.cofactor_funcs).sum();
        assert_eq!(count("hfmin.engine.exact"), exact as i64, "{}", design.name);
        assert_eq!(
            count("hfmin.engine.cofactor"),
            cofactor as i64,
            "{}",
            design.name
        );
        exact_total += exact;
        cofactor_total += cofactor;
    }
    // Both engines ran somewhere, so neither equality held at zero alone.
    assert!(
        exact_total > 0 && cofactor_total > 0,
        "exact {exact_total}, cofactor {cofactor_total}"
    );
    Ok(())
}
