//! Zero-overhead smoke test for disabled tracing: the per-callsite cost of
//! a *disabled* `span!` or `trace_counter!`, whichever is costlier, times
//! the number of callsite hits a real flow run makes must stay under 2% of
//! that flow run's wall time.
//!
//! Deliberately not a wall-clock A/B of two flow runs — at the measured
//! nanoseconds-per-callsite, run-to-run scheduler noise dwarfs the
//! difference and the comparison flakes. Instead: measure the disabled
//! callsite cost `c` on a tight loop (stable to measure, it is the whole
//! fast path), count the callsite hits `r` of one traced run (its record
//! count is a conservative over-count: spans produce two records per hit),
//! and assert `c * r < 2%` of the untraced run's wall time.

use bmbe_designs::all_designs;
use bmbe_flow::{run_control_flow, FlowOptions};
use bmbe_gates::Library;
use std::hint::black_box;
use std::time::Instant;

#[test]
fn disabled_tracing_costs_under_two_percent_of_a_flow_run() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let design = designs
        .iter()
        .find(|d| d.name == "Stack")
        .expect("Stack benchmark design");

    // Per-callsite cost of the disabled fast path (one relaxed atomic
    // load), amortized over a tight loop, for a span and for a count.
    bmbe_obs::set_enabled(false);
    const CALLS: u32 = 1_000_000;
    let start = Instant::now();
    for i in 0..CALLS {
        let _g = bmbe_obs::span!("test.overhead_probe");
        black_box(i);
    }
    let per_span = start.elapsed() / CALLS;
    let start = Instant::now();
    for i in 0..CALLS {
        bmbe_obs::trace_counter!("test.overhead_count", 1);
        black_box(i);
    }
    let per_count = start.elapsed() / CALLS;
    let per_callsite = per_span.max(per_count);

    // Callsite hits of one real (cold-cache) flow run, counted by tracing
    // it. Record count over-counts hits: every span contributes two
    // records, so the budget below is conservative.
    drop(bmbe_obs::flush());
    bmbe_obs::set_enabled(true);
    run_control_flow(&design.compiled, &FlowOptions::optimized(), &library).expect("traced flow");
    bmbe_obs::set_enabled(false);
    let hits = bmbe_obs::flush().events.len() as u32;
    assert!(hits > 0, "traced flow must record spans");

    // Wall time of the same run untraced (median of three).
    let mut walls: Vec<_> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(
                run_control_flow(&design.compiled, &FlowOptions::optimized(), &library)
                    .expect("untraced flow"),
            );
            start.elapsed()
        })
        .collect();
    walls.sort();
    let wall = walls[1];

    let budget = wall.mul_f64(0.02);
    let cost = per_callsite * hits;
    assert!(
        cost < budget,
        "disabled-tracing cost {cost:?} ({hits} callsite hits x {per_callsite:?}, the costlier \
         of span {per_span:?} and count {per_count:?}) exceeds 2% of the flow's {wall:?} wall \
         time ({budget:?})"
    );
}
