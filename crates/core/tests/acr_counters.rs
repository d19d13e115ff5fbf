//! The uncached Activation Channel Removal compiles the merged program
//! itself: `verify_acr` obligations (and every other caller of
//! `activation_channel_removal`) leave clustering's `cluster.memo.*`
//! counts alone. A test binary of its own, because tracing is
//! process-global.

use bmbe_core::components::{decision_wait, sequencer};
use bmbe_core::opt::{verify_acr, VerifyError};
use bmbe_core::{activation_channel_removal, ClusterOptions, CtrlNetlist, MergeMemo};
use bmbe_obs::analyze::traced;

fn names(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// Runs `work` traced; returns its result with the run's
/// `cluster.memo.{hits,misses}` totals.
fn memo_counts<T>(work: impl FnOnce() -> T) -> (T, (i64, i64)) {
    let (out, trace) = traced(work).expect("trace parses");
    let counts = trace.counter_totals().expect("lossless trace");
    let get = |name: &str| counts.get(name).copied().unwrap_or(0);
    (out, (get("cluster.memo.hits"), get("cluster.memo.misses")))
}

#[test]
fn uncached_merges_leave_the_merge_memo_counters_alone() -> Result<(), VerifyError> {
    // §4.1's example: decision-wait activates a sequencer over o2.
    let dw = decision_wait("a1", &names(&["i1", "i2"]), &names(&["o1", "o2"]));
    let seq = sequencer("o2", &names(&["c1", "c2"]));
    let (verdicts, counts) = memo_counts(|| -> Result<(), VerifyError> {
        for _ in 0..5 {
            assert!(verify_acr(&dw, &seq, "o2")?.is_equivalent());
        }
        assert!(activation_channel_removal(&dw, &seq, "o2", None).is_ok());
        Ok(())
    });
    verdicts?;
    assert_eq!(counts, (0, 0));
    // Clustering through a memo still counts its lookups.
    let mut n = CtrlNetlist::new();
    n.add("dw", dw);
    n.add("seq", seq);
    let memo = MergeMemo::new();
    let (_, counts) = memo_counts(|| n.t1_clustering_with(&ClusterOptions::default(), &memo));
    assert_eq!((memo.hits(), memo.misses()), (0, 1));
    assert_eq!(counts, (0, 1));
    Ok(())
}
