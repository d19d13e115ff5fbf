//! The uncached Activation Channel Removal compiles the merged program
//! itself: `verify_acr` obligations (and every other caller of
//! `activation_channel_removal`) leave clustering's `cluster.memo.*`
//! counters alone. A test binary of its own, because the counters are
//! process-global.

use bmbe_core::components::{decision_wait, sequencer};
use bmbe_core::opt::{verify_acr, VerifyError};
use bmbe_core::{activation_channel_removal, ClusterOptions, CtrlNetlist, MergeMemo};

fn names(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn uncached_merges_leave_the_merge_memo_counters_alone() -> Result<(), VerifyError> {
    // §4.1's example: decision-wait activates a sequencer over o2.
    let dw = decision_wait("a1", &names(&["i1", "i2"]), &names(&["o1", "o2"]));
    let seq = sequencer("o2", &names(&["c1", "c2"]));
    let hits = bmbe_obs::counter!("cluster.memo.hits");
    let misses = bmbe_obs::counter!("cluster.memo.misses");
    for _ in 0..5 {
        assert!(verify_acr(&dw, &seq, "o2")?.is_equivalent());
    }
    assert!(activation_channel_removal(&dw, &seq, "o2", None).is_ok());
    assert_eq!((hits.get(), misses.get()), (0, 0));
    // Clustering through a memo still counts its lookups.
    let mut n = CtrlNetlist::new();
    n.add("dw", dw);
    n.add("seq", seq);
    let memo = MergeMemo::new();
    n.t1_clustering_with(&ClusterOptions::default(), &memo);
    assert_eq!((memo.hits(), memo.misses()), (0, 1));
    assert_eq!((hits.get(), misses.get()), (0, 1));
    Ok(())
}
