//! Clustering's work counters reconcile with its report: a traced
//! `run_control_flow` run counts `cluster.merged` once per eliminated
//! channel and `cluster.refused` once per rejected merge, so on each paper
//! design the two totals equal the lengths of the flow's `ClusterReport`.
//!
//! One `#[test]` on purpose: tracing state is process-global, and a
//! sibling test recording concurrently would add its counts to this
//! test's flush.

use bmbe_designs::all_designs;
use bmbe_flow::{run_control_flow, FlowOptions};
use bmbe_gates::Library;
use bmbe_obs::analyze::traced;

#[test]
fn cluster_counts_equal_the_cluster_report_lengths() -> Result<(), String> {
    let library = Library::cmos035();
    let designs = all_designs().map_err(|e| format!("shipped designs: {e}"))?;
    let options = FlowOptions::optimized();
    let (mut merged_total, mut refused_total) = (0, 0);
    for design in &designs {
        let (result, trace) = traced(|| run_control_flow(&design.compiled, &options, &library))?;
        let result = result.map_err(|e| format!("{}: {e}", design.name))?;
        let counts = trace.counter_totals()?;
        let count = |name: &str| counts.get(name).copied().unwrap_or(0);
        let report = result
            .cluster_report
            .ok_or_else(|| format!("{}: an optimized flow clusters", design.name))?;
        let (merged, refused) = (report.eliminated_channels.len(), report.rejected.len());
        assert_eq!(count("cluster.merged"), merged as i64, "{}", design.name);
        assert_eq!(count("cluster.refused"), refused as i64, "{}", design.name);
        merged_total += merged;
        refused_total += refused;
    }
    // Both kinds of verdict occur, so neither equality held at zero alone.
    assert!(
        merged_total > 0 && refused_total > 0,
        "merged {merged_total}, refused {refused_total}"
    );
    Ok(())
}
