//! Activation Channel Removal (§4.1).
//!
//! The optimization merges an *activating* component (holding the active end
//! of an activation channel) with the *activated* component (whose entire
//! useful behaviour is enclosed by the passive end of that channel). The
//! passive end is hidden (replaced by `void`), and the resulting body is
//! inlined into the activating component in place of the active channel
//! leaf. The merge is accepted only if the result is still Burst-Mode aware
//! and compiles to a valid Burst-Mode specification.
//!
//! That last check compiles the merged program. A [`MergeMemo`] remembers
//! the state count of every merged program that compiled, by its canonical
//! text, so attempts that build the same program up to channel names
//! compile it once.

use crate::ast::{canonical_text, check_bm_aware, BmAwareError, ChActivity, ChExpr, InterleaveOp};
use crate::compile::{compile_to_bm, CompileError};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Reasons an Activation Channel Removal attempt fails. Failure is not an
/// error condition for the clustering algorithms — the channel is simply
/// left in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcrFailure {
    /// The activated component is not of the shape
    /// `rep(enc(passive chan, body))` for the given channel.
    NotAnActivationChannel,
    /// The activating component does not use the channel exactly once as an
    /// active point-to-point leaf.
    NoUniqueActiveUse,
    /// The channel sits in a position (an `enc-middle`/`seq-ov` argument)
    /// where inlining would serialize concurrent behaviour.
    NotContiguous,
    /// The merged expression violates the Burst-Mode aware rules.
    NotBmAware(BmAwareError),
    /// The merged expression does not compile to a valid BM machine.
    NotSynthesizable(CompileError),
    /// The merged machine exceeds the configured state limit.
    TooLarge {
        /// States of the merged machine.
        states: usize,
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for AcrFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcrFailure::NotAnActivationChannel => {
                write!(f, "channel does not enclose the activated component's body")
            }
            AcrFailure::NoUniqueActiveUse => {
                write!(
                    f,
                    "activating component lacks a unique active use of the channel"
                )
            }
            AcrFailure::NotContiguous => {
                write!(f, "channel position would serialize concurrent behaviour")
            }
            AcrFailure::NotBmAware(e) => write!(f, "merged program is not BM-aware: {e}"),
            AcrFailure::NotSynthesizable(e) => write!(f, "merged program not synthesizable: {e}"),
            AcrFailure::TooLarge { states, limit } => {
                write!(f, "merged machine has {states} states (limit {limit})")
            }
        }
    }
}

impl std::error::Error for AcrFailure {}

/// Extracts the activated component's body for inlining: the program must
/// be `rep(enc(p-to-p passive CHAN, body))`; the result is
/// `enc(void, body)` (the paper's *hide* step, §4.1).
pub fn hide_activation(activated: &ChExpr, channel: &str) -> Result<ChExpr, AcrFailure> {
    let ChExpr::Rep(inner) = activated else {
        return Err(AcrFailure::NotAnActivationChannel);
    };
    let ChExpr::Op { op, a, b } = inner.as_ref() else {
        return Err(AcrFailure::NotAnActivationChannel);
    };
    let is_enclosure = matches!(
        op,
        InterleaveOp::EncEarly | InterleaveOp::EncMiddle | InterleaveOp::EncLate
    );
    if !is_enclosure {
        return Err(AcrFailure::NotAnActivationChannel);
    }
    match a.as_ref() {
        ChExpr::PToP {
            activity: ChActivity::Passive,
            name,
        } if name == channel => Ok(ChExpr::Op {
            op: *op,
            a: Box::new(ChExpr::Void),
            b: b.clone(),
        }),
        _ => Err(AcrFailure::NotAnActivationChannel),
    }
}

/// Replaces the unique `p-to-p active CHAN` leaf of `expr` with `body`.
/// Returns `(replacements, all_positions_contiguous)`.
///
/// **Contiguity precondition.** Inlining substitutes a *degenerate*
/// four-event expression (the body packed into one event) for a channel
/// whose own four events the surrounding operators may interleave with
/// sibling events. The substitution preserves behaviour only where the
/// channel's four events stay *contiguous* in the linearized expansion:
/// both arguments of `seq` and `mutex`, and the second argument of the
/// enclosures. Inside `enc-middle` or `seq-ov` the events of the two sides
/// interleave pairwise, and replacing a leaf there serializes previously
/// concurrent handshakes — a behaviour change the optimizer must refuse
/// (this is checkable with the §4.3 trace machinery).
fn inline_at_channel(
    expr: &mut ChExpr,
    channel: &str,
    body: &ChExpr,
    contiguous: bool,
) -> (usize, bool) {
    match expr {
        ChExpr::PToP {
            activity: ChActivity::Active,
            name,
        } if name == channel => {
            *expr = body.clone();
            (1, contiguous)
        }
        ChExpr::PToP { .. }
        | ChExpr::MultAck { .. }
        | ChExpr::MultReq { .. }
        | ChExpr::Void
        | ChExpr::Verb { .. }
        | ChExpr::Break => (0, true),
        ChExpr::Rep(e) => inline_at_channel(e, channel, body, contiguous),
        ChExpr::Op { op, a, b } => {
            let (ca, cb) = match op {
                InterleaveOp::Seq | InterleaveOp::Mutex => (contiguous, contiguous),
                InterleaveOp::EncEarly | InterleaveOp::EncLate => (false, contiguous),
                InterleaveOp::EncMiddle | InterleaveOp::SeqOv => (false, false),
            };
            let (na, oka) = inline_at_channel(a, channel, body, ca);
            let (nb, okb) = inline_at_channel(b, channel, body, cb);
            (na + nb, oka && okb)
        }
        ChExpr::MuxAck { arms, .. } | ChExpr::MuxReq { arms, .. } => {
            let mut count = 0;
            let mut ok = true;
            for (op, e) in arms {
                let c = match op {
                    InterleaveOp::Seq | InterleaveOp::Mutex => contiguous,
                    InterleaveOp::EncEarly | InterleaveOp::EncLate => contiguous,
                    InterleaveOp::EncMiddle | InterleaveOp::SeqOv => false,
                };
                let (n, o) = inline_at_channel(e, channel, body, c);
                count += n;
                ok &= o;
            }
            (count, ok)
        }
    }
}

/// The BM state counts of merged programs that compiled, keyed by
/// [`canonical_text`]. Two merged programs with the same canonical text are
/// the same up to channel names, and `compile_to_bm` numbers signals in walk
/// order, so they compile to the same number of states.
///
/// Only successful compiles are stored: a [`CompileError`] names the
/// instance's wires, so a program that fails is compiled again on every
/// attempt. The state limit is applied by each caller, so one memo serves
/// any [`crate::opt::cluster::ClusterOptions`].
///
/// Thread-safe: the lock is held to look up or insert, never across a
/// compile. Two threads that miss the same program at once both compile it
/// and store the same count.
///
/// The memo holds no I/O of its own. A persistent owner pre-fills it with
/// [`MergeMemo::with_entries`] and saves what it compiled with
/// [`MergeMemo::take_compiled`].
#[derive(Debug, Default)]
pub struct MergeMemo {
    states: Mutex<Shelf>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// The guarded state of a [`MergeMemo`]: every stored count, and the
/// counts compiled since the last [`MergeMemo::take_compiled`], in compile
/// order.
#[derive(Debug, Default)]
struct Shelf {
    states: HashMap<String, usize>,
    compiled: Vec<(String, usize)>,
}

impl MergeMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// A memo holding `entries`, pairs of a merged program's
    /// [`canonical_text`] and its state count. Its hits and misses start
    /// at 0, and none of the entries counts as compiled.
    pub fn with_entries(entries: Vec<(String, usize)>) -> Self {
        MergeMemo {
            states: Mutex::new(Shelf {
                states: entries.into_iter().collect(),
                compiled: Vec::new(),
            }),
            ..Self::default()
        }
    }

    /// The `(canonical text, states)` pairs this memo compiled and stored
    /// since the last call, in compile order. A program two threads
    /// compiled at once appears once.
    pub fn take_compiled(&self) -> Vec<(String, usize)> {
        std::mem::take(&mut self.shelf().compiled)
    }

    /// The number of distinct merged programs the memo holds a state
    /// count for.
    pub fn len(&self) -> usize {
        self.shelf().states.len()
    }

    /// Every stored `(canonical text, states)` pair, sorted by text.
    pub fn entries(&self) -> Vec<(String, usize)> {
        let mut entries: Vec<(String, usize)> = (self.shelf().states.iter())
            .map(|(text, &states)| (text.clone(), states))
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Lookups served without compiling.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that compiled, failed compiles included.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Locks the shelf, recovering from a poisoned lock: the shelf is only
    /// read, inserted into or drained under the lock, so a panic elsewhere
    /// cannot leave a wrong count behind.
    fn shelf(&self) -> MutexGuard<'_, Shelf> {
        self.states.lock().unwrap_or_else(|poisoned| {
            self.states.clear_poison();
            poisoned.into_inner()
        })
    }

    /// The BM state count of `merged`, compiled on a miss.
    fn states(&self, merged: &ChExpr) -> Result<usize, CompileError> {
        let key = canonical_text(merged);
        let stored = self.shelf().states.get(&key).copied();
        if let Some(states) = stored {
            self.hits.fetch_add(1, Ordering::Relaxed);
            bmbe_obs::trace_counter!("cluster.memo.hits", 1);
            return Ok(states);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        bmbe_obs::trace_counter!("cluster.memo.misses", 1);
        let states = compile_to_bm("merged", merged)?.num_states();
        let mut shelf = self.shelf();
        if shelf.states.insert(key.clone(), states).is_none() {
            shelf.compiled.push((key, states));
        }
        Ok(states)
    }
}

/// Performs Activation Channel Removal over channel `channel`, merging
/// `activated` into `activating`. This is the uncached form: it compiles
/// the merged program directly, so it is the oracle of the memoized
/// clustering.
///
/// # Errors
///
/// Returns the reason the merge cannot be performed; see [`AcrFailure`].
pub fn activation_channel_removal(
    activating: &ChExpr,
    activated: &ChExpr,
    channel: &str,
    state_limit: Option<usize>,
) -> Result<ChExpr, AcrFailure> {
    merge(activating, activated, channel, state_limit, |merged| {
        Ok(compile_to_bm("merged", merged)?.num_states())
    })
}

/// [`activation_channel_removal`], asking `memo` for the merged program's
/// state count.
pub(crate) fn activation_channel_removal_with(
    activating: &ChExpr,
    activated: &ChExpr,
    channel: &str,
    state_limit: Option<usize>,
    memo: &MergeMemo,
) -> Result<ChExpr, AcrFailure> {
    merge(activating, activated, channel, state_limit, |merged| {
        memo.states(merged)
    })
}

/// The merge, counting the merged program's BM states with `states`.
fn merge(
    activating: &ChExpr,
    activated: &ChExpr,
    channel: &str,
    state_limit: Option<usize>,
    states: impl FnOnce(&ChExpr) -> Result<usize, CompileError>,
) -> Result<ChExpr, AcrFailure> {
    let body = hide_activation(activated, channel)?;
    let mut merged = activating.clone();
    let (count, contiguous) = inline_at_channel(&mut merged, channel, &body, true);
    if count != 1 {
        return Err(AcrFailure::NoUniqueActiveUse);
    }
    if !contiguous {
        return Err(AcrFailure::NotContiguous);
    }
    check_bm_aware(&merged).map_err(AcrFailure::NotBmAware)?;
    let states = states(&merged).map_err(AcrFailure::NotSynthesizable)?;
    if let Some(limit) = state_limit {
        if states > limit {
            return Err(AcrFailure::TooLarge { states, limit });
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{call, decision_wait, sequencer};

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn paper_example_dw_plus_sequencer() {
        // §4.1: decision-wait activates a sequencer over channel o2.
        let dw = decision_wait("a1", &names(&["i1", "i2"]), &names(&["o1", "o2"]));
        let seq = sequencer("o2", &names(&["c1", "c2"]));
        let merged = activation_channel_removal(&dw, &seq, "o2", None).unwrap();
        let spec = compile_to_bm("merged", &merged).unwrap();
        // Fig. 4: 11 states; channel o2 is gone.
        assert_eq!(spec.num_states(), 11, "{spec}");
        assert!(!merged.channels().contains_key("o2"));
        assert!(merged.channels().contains_key("c1"));
    }

    #[test]
    fn hide_produces_void_enclosure() {
        let seq = sequencer("act", &names(&["x", "y"]));
        let body = hide_activation(&seq, "act").unwrap();
        match &body {
            ChExpr::Op {
                op: InterleaveOp::EncEarly,
                a,
                ..
            } => {
                assert_eq!(**a, ChExpr::Void);
            }
            other => panic!("unexpected hide result {other:?}"),
        }
    }

    #[test]
    fn wrong_channel_rejected() {
        let seq = sequencer("act", &names(&["x", "y"]));
        assert_eq!(
            hide_activation(&seq, "x").unwrap_err(),
            AcrFailure::NotAnActivationChannel
        );
    }

    #[test]
    fn missing_active_use_rejected() {
        let a = sequencer("p", &names(&["x", "y"]));
        let b = sequencer("z", &names(&["u", "v"]));
        // Channel z is not used by a.
        assert_eq!(
            activation_channel_removal(&a, &b, "z", None).unwrap_err(),
            AcrFailure::NoUniqueActiveUse
        );
    }

    #[test]
    fn state_limit_enforced() {
        let dw = decision_wait("a1", &names(&["i1", "i2"]), &names(&["o1", "o2"]));
        let seq = sequencer("o2", &names(&["c1", "c2"]));
        let err = activation_channel_removal(&dw, &seq, "o2", Some(5)).unwrap_err();
        assert!(matches!(
            err,
            AcrFailure::TooLarge {
                states: 11,
                limit: 5
            }
        ));
    }

    #[test]
    fn chained_sequencers_merge() {
        // seq1 activates seq2 on channel m.
        let s1 = sequencer("p", &names(&["x", "m"]));
        let s2 = sequencer("m", &names(&["y", "z"]));
        let merged = activation_channel_removal(&s1, &s2, "m", None).unwrap();
        let spec = compile_to_bm("merged", &merged).unwrap();
        // The merged controller sequences x, y, z under p: 8 states.
        assert_eq!(spec.num_states(), 8, "{spec}");
        let chans = merged.channels();
        assert!(chans.contains_key("y") && chans.contains_key("z") && !chans.contains_key("m"));
    }

    #[test]
    fn memo_serves_renamed_merges_and_applies_each_limit() {
        let memo = MergeMemo::new();
        let dw = decision_wait("a1", &names(&["i1", "i2"]), &names(&["o1", "o2"]));
        let seq = sequencer("o2", &names(&["c1", "c2"]));
        activation_channel_removal_with(&dw, &seq, "o2", None, &memo).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (0, 1));
        // The same merge under other channel names is a hit.
        let dw2 = decision_wait("b", &names(&["j1", "j2"]), &names(&["p1", "p2"]));
        let seq2 = sequencer("p2", &names(&["d1", "d2"]));
        let merged = activation_channel_removal_with(&dw2, &seq2, "p2", Some(40), &memo).unwrap();
        assert_eq!(
            merged,
            activation_channel_removal(&dw2, &seq2, "p2", Some(40)).unwrap()
        );
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // The limit is applied on every call, with the uncached reason.
        let err = activation_channel_removal_with(&dw, &seq, "o2", Some(5), &memo).unwrap_err();
        assert_eq!(
            err,
            activation_channel_removal(&dw, &seq, "o2", Some(5)).unwrap_err()
        );
        assert_eq!(err.to_string(), "merged machine has 11 states (limit 5)");
        assert_eq!((memo.hits(), memo.misses()), (2, 1));
    }

    #[test]
    fn memo_stores_successful_compiles_only() {
        // 41 channels after the merge: more signals than a BM spec holds.
        let outer: Vec<String> = std::iter::once("m".to_string())
            .chain((0..20).map(|i| format!("a{i}")))
            .collect();
        let inner: Vec<String> = (0..20).map(|i| format!("b{i}")).collect();
        let (s1, s2) = (sequencer("p", &outer), sequencer("m", &inner));
        let memo = MergeMemo::new();
        for _ in 0..2 {
            let err = activation_channel_removal_with(&s1, &s2, "m", None, &memo).unwrap_err();
            assert!(matches!(err, AcrFailure::NotSynthesizable(_)), "{err}");
        }
        assert_eq!((memo.hits(), memo.misses()), (0, 2));
        assert!(
            memo.take_compiled().is_empty(),
            "a failed compile is not recorded"
        );
    }

    #[test]
    fn memo_reports_each_stored_compile_once() -> Result<(), AcrFailure> {
        let s1 = sequencer("p", &names(&["x", "m"]));
        let s2 = sequencer("m", &names(&["y", "z"]));
        let memo = MergeMemo::new();
        let merged = activation_channel_removal_with(&s1, &s2, "m", None, &memo)?;
        activation_channel_removal_with(&s1, &s2, "m", None, &memo)?;
        let states = compile_to_bm("merged", &merged)
            .map_err(AcrFailure::NotSynthesizable)?
            .num_states();
        let compiled = memo.take_compiled();
        assert_eq!(compiled, vec![(canonical_text(&merged), states)]);
        assert!(memo.take_compiled().is_empty(), "the list is drained");
        // A memo pre-filled with the pair serves the merge without a
        // compile and reports nothing as compiled.
        let warm = MergeMemo::with_entries(compiled);
        assert_eq!((warm.hits(), warm.misses()), (0, 0));
        let served = activation_channel_removal_with(&s1, &s2, "m", None, &warm)?;
        assert_eq!(served, merged);
        assert_eq!((warm.hits(), warm.misses()), (1, 0));
        assert!(warm.take_compiled().is_empty());
        Ok(())
    }

    #[test]
    fn threads_racing_one_compile_report_it_once() {
        let s1 = sequencer("p", &names(&["x", "m"]));
        let s2 = sequencer("m", &names(&["y", "z"]));
        let memo = MergeMemo::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    activation_channel_removal_with(&s1, &s2, "m", None, &memo)
                });
            }
        });
        assert_eq!(memo.hits() + memo.misses(), 4);
        assert_eq!(memo.take_compiled().len(), 1);
    }

    #[test]
    fn memo_recovers_from_a_poisoned_lock() {
        let memo = MergeMemo::new();
        let poison = std::panic::AssertUnwindSafe(|| {
            let _guard = memo.shelf();
            panic!("simulated crash while holding the memo lock");
        });
        assert!(std::panic::catch_unwind(poison).is_err());
        assert!(memo.states.is_poisoned());
        let s1 = sequencer("p", &names(&["x", "m"]));
        let s2 = sequencer("m", &names(&["y", "z"]));
        for _ in 0..2 {
            activation_channel_removal_with(&s1, &s2, "m", None, &memo).unwrap();
        }
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        assert!(!memo.states.is_poisoned());
    }

    #[test]
    fn call_body_can_be_activated_component() {
        // A sequencer activating a call fragment (single-arm call).
        let s1 = sequencer("p", &names(&["frag"]));
        let frag = call(&names(&["frag"]), "c");
        // call(frag...) = rep(enc-early(passive frag, active c)): valid
        // activation shape.
        let merged = activation_channel_removal(&s1, &frag, "frag", None).unwrap();
        let spec = compile_to_bm("m", &merged).unwrap();
        spec.validate().unwrap();
    }
}

#[cfg(test)]
mod contiguity_tests {
    use super::*;
    use crate::components::{concur, transferrer};
    use crate::trace_gen::trace_of;

    /// Regression: inlining a transferrer into a concur branch would
    /// serialize the two pulls (found via a slow wagging-register benchmark
    /// whose "optimized" circuit lost its parallelism). The optimizer must
    /// refuse, and the trace machinery confirms the refusal is necessary.
    #[test]
    fn concur_branch_inline_is_refused() {
        let c = concur("act", &["f1".into(), "f2".into()]);
        let t1 = transferrer("f1", "pl1", "ps1");
        let merged = activation_channel_removal(&c, &t1, "f1", None);
        assert_eq!(merged.unwrap_err(), AcrFailure::NotContiguous);
    }

    /// The naive (non-contiguous) merge really is behaviourally different:
    /// in the original system the two transferrers pull concurrently (the
    /// second pull request needs no acknowledgment from the first), while
    /// the hand-built naive merge can only issue `pl2_r` after `pl1`'s
    /// handshake — it has serialized the concur's branches.
    #[test]
    fn naive_concur_merge_changes_behaviour() {
        let c = concur("act", &["f1".into(), "f2".into()]);
        let t1 = transferrer("f1", "pl1", "ps1");
        let t2 = transferrer("f2", "pl2", "ps2");
        // The unmerged transferrer t2 issues pl2_r immediately on f2_r,
        // independent of anything pl1 does.
        let tt2 = trace_of(&t2).expect("traces");
        assert!(tt2.accepts(&["f2_r", "pl2_r"]).expect("alphabet"));
        // Hand-inline BOTH transferrers (what the optimizer refuses).
        let b1 = hide_activation(&t1, "f1").expect("activation shape");
        let b2 = hide_activation(&t2, "f2").expect("activation shape");
        let mut naive = c.clone();
        let _ = inline_at_channel(&mut naive, "f1", &b1, true);
        let _ = inline_at_channel(&mut naive, "f2", &b2, true);
        let tn = trace_of(&naive).expect("traces");
        // The naive merge cannot produce pl2_r before pl1's handshake
        // completes: concurrency lost.
        assert!(!tn.accepts(&["act_r", "pl1_r", "pl2_r"]).expect("alphabet"));
        // The serial order it CAN do: pl2's request only after transferrer
        // 1's complete overlapped cycle.
        assert!(tn
            .accepts(&[
                "act_r", "pl1_r", "pl1_a", "ps1_r", "ps1_a", "pl1_r", "pl1_a", "ps1_r", "ps1_a",
                "pl2_r"
            ])
            .expect("alphabet"));
    }
}
