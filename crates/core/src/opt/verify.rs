//! Formal verification of Activation Channel Removal (§4.3).
//!
//! Reproduces the paper's AVER experiment: for a pair of CH programs
//! sharing an activation channel, the composition of their trace structures
//! with the activation channel hidden must be conformance-equivalent to the
//! trace structure of the merged (optimized) program. The experiment is run
//! over every legal combination of operators in the activating and
//! activated programs.
//!
//! The default [`verify_acr`] decides the obligation on the fly: a
//! [`HiddenComposition`] explores the hidden product lazily during the two
//! conformance searches, never materializing the composite automaton, and
//! failures come back with a witness trace. The seed's fully-materializing
//! `compose` + `hide` + `equivalent_to` pipeline is kept as
//! [`verify_acr_materialized`], the oracle the differential tests and
//! [`verify_acr_compared`]'s state accounting run against.

use crate::ast::{legal, ChActivity, ChExpr, InterleaveOp};
use crate::opt::acr::activation_channel_removal;
use crate::trace_gen::{trace_of, TraceGenError};
use bmbe_trace::{HiddenComposition, TraceError, TraceStructure};
use std::fmt;

/// Which conformance direction a verification mismatch was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MismatchDirection {
    /// The original behaviour (composition with the activation channel
    /// hidden) does not conform to the optimized program: optimization lost
    /// behaviour the environment may rely on.
    OriginalVsOptimized,
    /// The optimized program does not conform to the original behaviour:
    /// optimization introduced behaviour the originals never had.
    OptimizedVsOriginal,
}

impl fmt::Display for MismatchDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MismatchDirection::OriginalVsOptimized => write!(f, "original ⋢ optimized"),
            MismatchDirection::OptimizedVsOriginal => write!(f, "optimized ⋢ original"),
        }
    }
}

/// Outcome of verifying one Activation Channel Removal instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcrVerdict {
    /// The optimized controller is conformance-equivalent to the composed
    /// and hidden originals.
    Equivalent,
    /// The merge itself was (correctly) rejected by the optimizer.
    MergeRejected(String),
    /// Verification found a behavioural difference — an optimizer bug.
    NotEquivalent {
        /// The conformance direction that failed.
        direction: MismatchDirection,
        /// A shortest trace of channel-wire symbols driving the failing
        /// conformance product into its failure. Empty when the deciding
        /// path cannot produce one (the materialized oracle).
        counterexample: Vec<String>,
    },
}

impl AcrVerdict {
    /// Whether this verdict found the optimization behaviour-preserving.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, AcrVerdict::Equivalent)
    }

    /// Whether this verdict found a behavioural difference.
    pub fn is_mismatch(&self) -> bool {
        matches!(self, AcrVerdict::NotEquivalent { .. })
    }

    /// Whether two verdicts agree, ignoring diagnostic payloads (the
    /// materialized oracle carries no counterexample).
    pub fn same_outcome(&self, other: &AcrVerdict) -> bool {
        match (self, other) {
            (AcrVerdict::Equivalent, AcrVerdict::Equivalent) => true,
            (AcrVerdict::MergeRejected(a), AcrVerdict::MergeRejected(b)) => a == b,
            (AcrVerdict::NotEquivalent { .. }, AcrVerdict::NotEquivalent { .. }) => true,
            _ => false,
        }
    }
}

impl fmt::Display for AcrVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcrVerdict::Equivalent => write!(f, "equivalent"),
            AcrVerdict::MergeRejected(r) => write!(f, "merge rejected ({r})"),
            AcrVerdict::NotEquivalent {
                direction,
                counterexample,
            } => {
                write!(f, "NOT equivalent ({direction}")?;
                if !counterexample.is_empty() {
                    write!(f, "; after: {}", counterexample.join(" "))?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Errors from the verification machinery itself (not verdicts).
#[derive(Debug)]
pub enum VerifyError {
    /// Trace generation failed.
    TraceGen(TraceGenError),
    /// A trace-theory operation failed.
    Trace(TraceError),
    /// The composition of the two original components can fail on its own,
    /// so hiding is unsound; this never happens for activation channels.
    CompositionFails {
        /// A trace driving the bare composition into its failure (empty if
        /// no witness was reconstructed).
        witness: Vec<String>,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::TraceGen(e) => write!(f, "trace generation failed: {e}"),
            VerifyError::Trace(e) => write!(f, "trace operation failed: {e}"),
            VerifyError::CompositionFails { witness } => {
                write!(
                    f,
                    "composition of the original components reaches a failure"
                )?;
                if !witness.is_empty() {
                    write!(f, " (after: {})", witness.join(" "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<TraceGenError> for VerifyError {
    fn from(e: TraceGenError) -> Self {
        VerifyError::TraceGen(e)
    }
}

impl From<TraceError> for VerifyError {
    fn from(e: TraceError) -> Self {
        VerifyError::Trace(e)
    }
}

/// Attempts the merge; `Ok(Err(verdict))` is a (correct) rejection.
fn merge_or_reject(
    activating: &ChExpr,
    activated: &ChExpr,
    channel: &str,
) -> Result<ChExpr, AcrVerdict> {
    activation_channel_removal(activating, activated, channel, None)
        .map_err(|e| AcrVerdict::MergeRejected(e.to_string()))
}

/// Verifies one Activation Channel Removal instance per §4.3:
/// `compose(activating, activated)` with the activation channel hidden must
/// be equivalent to the merged program.
///
/// Decided on the fly: conformance is checked in both directions against a
/// lazily determinized [`HiddenComposition`] — the composite automaton is
/// never materialized — and a mismatch carries a shortest counterexample
/// trace. Verdicts agree with [`verify_acr_materialized`] by construction
/// (and by the differential tests).
///
/// # Errors
///
/// Returns [`VerifyError`] when the verification machinery cannot run;
/// behavioural mismatches are reported through the [`AcrVerdict`].
pub fn verify_acr(
    activating: &ChExpr,
    activated: &ChExpr,
    channel: &str,
) -> Result<AcrVerdict, VerifyError> {
    let merged = match merge_or_reject(activating, activated, channel) {
        Ok(m) => m,
        Err(verdict) => return Ok(verdict),
    };
    let ta = trace_of(activating)?;
    let tb = trace_of(activated)?;
    let tm = trace_of(&merged)?;
    Ok(verify_traces_otf(&ta, &tb, &tm, channel)?.0)
}

/// The on-the-fly §4.3 obligation on already-generated trace structures.
/// Returns the verdict plus the total distinct states the searches interned
/// (subset states counted once — they are shared between directions).
///
/// Instrumented: the whole obligation runs under a `verify.otf` span, each
/// conformance direction under its own child span (annotated
/// `verify.frontier`, the search's breadth-first high-water mark), the
/// searches feed the `verify.states` counter, and — on a mismatch — a
/// `verify.cex_depth` event carries the counterexample length.
fn verify_traces_otf(
    ta: &TraceStructure,
    tb: &TraceStructure,
    tm: &TraceStructure,
    channel: &str,
) -> Result<(AcrVerdict, usize), VerifyError> {
    let _obligation = bmbe_obs::span!("verify.otf", "verify");
    // Called inside the search's span, which the frontier annotates.
    let note_search = |outcome: &bmbe_trace::OtfOutcome| {
        bmbe_obs::annotate_num!("verify.frontier", outcome.peak_frontier);
        if let Some(cex) = &outcome.counterexample {
            bmbe_obs::event!("verify.cex_depth", cex.len() as i64);
        }
    };
    let req = format!("{channel}_r");
    let ack = format!("{channel}_a");
    let mut hc = HiddenComposition::new(ta, tb, &[req.as_str(), ack.as_str()])?;
    let fwd = {
        let _g = bmbe_obs::span!("verify.fwd", "verify");
        let f = hc.conforms_to(tm)?;
        note_search(&f);
        f
    };
    let bwd = if fwd.ok {
        let _g = bmbe_obs::span!("verify.bwd", "verify");
        let b = hc.conformed_by(tm)?;
        note_search(&b);
        Some(b)
    } else {
        None
    };
    let mut states = hc.subset_states() + fwd.states_visited;
    if let Some(b) = &bwd {
        states += b.states_visited;
    }
    let both_ok = fwd.ok && bwd.as_ref().is_some_and(|b| b.ok);
    if both_ok {
        // Both searches held, so the lazy exploration covered every
        // reachable composite state; any produced-symbol choke it stepped
        // over is exactly `compose`'s failure_reachable flag.
        if hc.composition_failure().is_some() {
            let witness = ta.failure_search(tb)?.counterexample.unwrap_or_default();
            return Err(VerifyError::CompositionFails { witness });
        }
        bmbe_obs::trace_counter!("verify.states", states as u64);
        return Ok((AcrVerdict::Equivalent, states));
    }
    // A mismatch — unless the bare composition can fail on its own, in
    // which case hiding was unsound and the materialized path would have
    // refused before comparing. Run the (early-exiting) composition search
    // to keep the same error priority.
    let comp = ta.failure_search(tb)?;
    states += comp.states_visited;
    if !comp.ok {
        return Err(VerifyError::CompositionFails {
            witness: comp.counterexample.unwrap_or_default(),
        });
    }
    bmbe_obs::trace_counter!("verify.states", states as u64);
    // The backward search ran exactly when the forward one held.
    let (direction, outcome) = match bwd {
        Some(b) => (MismatchDirection::OptimizedVsOriginal, b),
        None => (MismatchDirection::OriginalVsOptimized, fwd),
    };
    Ok((
        AcrVerdict::NotEquivalent {
            direction,
            counterexample: outcome.counterexample.unwrap_or_default(),
        },
        states,
    ))
}

/// The seed's fully-materializing verification path, kept as the reference
/// oracle: `compose`, refuse on a reachable composite failure, `hide`, then
/// two-way conformance on the materialized automata.
///
/// # Errors
///
/// As [`verify_acr`]; `CompositionFails` carries no witness here.
pub fn verify_acr_materialized(
    activating: &ChExpr,
    activated: &ChExpr,
    channel: &str,
) -> Result<AcrVerdict, VerifyError> {
    let merged = match merge_or_reject(activating, activated, channel) {
        Ok(m) => m,
        Err(verdict) => return Ok(verdict),
    };
    let ta = trace_of(activating)?;
    let tb = trace_of(activated)?;
    let tm = trace_of(&merged)?;
    Ok(verify_traces_materialized(&ta, &tb, &tm, channel)?.0)
}

/// The materialized §4.3 obligation on already-generated trace structures.
/// Returns the verdict plus the total states the pipeline materialized:
/// composite + hidden automaton + each conformance product it built.
fn verify_traces_materialized(
    ta: &TraceStructure,
    tb: &TraceStructure,
    tm: &TraceStructure,
    channel: &str,
) -> Result<(AcrVerdict, usize), VerifyError> {
    let composed = ta.compose(tb)?;
    let mut states = composed.structure.num_states();
    if composed.failure_reachable {
        return Err(VerifyError::CompositionFails {
            witness: Vec::new(),
        });
    }
    let req = format!("{channel}_r");
    let ack = format!("{channel}_a");
    let hidden = composed.structure.hide(&[req.as_str(), ack.as_str()])?;
    states += hidden.num_states();
    // `equivalent_to`, unrolled so each direction's product size is
    // observable (conformance composes with the mirrored right-hand side).
    let fwd = hidden.compose(&tm.mirror())?;
    states += fwd.structure.num_states();
    if fwd.failure_reachable {
        return Ok((
            AcrVerdict::NotEquivalent {
                direction: MismatchDirection::OriginalVsOptimized,
                counterexample: Vec::new(),
            },
            states,
        ));
    }
    let bwd = tm.compose(&hidden.mirror())?;
    states += bwd.structure.num_states();
    if bwd.failure_reachable {
        return Ok((
            AcrVerdict::NotEquivalent {
                direction: MismatchDirection::OptimizedVsOriginal,
                counterexample: Vec::new(),
            },
            states,
        ));
    }
    Ok((AcrVerdict::Equivalent, states))
}

/// Both verification paths run on one obligation, with their state
/// accounting — the basis of the differential tests and `BENCH_sim`'s
/// verifier numbers.
#[derive(Debug, Clone)]
pub struct AcrComparison {
    /// Verdict of the on-the-fly path (the production path).
    pub verdict: AcrVerdict,
    /// Verdict of the materialized oracle.
    pub oracle: AcrVerdict,
    /// Distinct states the on-the-fly path interned (shared subset states
    /// counted once).
    pub otf_states: usize,
    /// States the materialized pipeline built (composite + hidden + each
    /// conformance product).
    pub materialized_states: usize,
}

/// Runs [`verify_acr`]'s on-the-fly decision **and** the materialized
/// oracle on one obligation and reports both verdicts with state counts.
///
/// # Errors
///
/// Returns [`VerifyError`] when either path's machinery cannot run (both
/// paths raise `CompositionFails` on the same obligations).
pub fn verify_acr_compared(
    activating: &ChExpr,
    activated: &ChExpr,
    channel: &str,
) -> Result<AcrComparison, VerifyError> {
    let merged = match merge_or_reject(activating, activated, channel) {
        Ok(m) => m,
        Err(verdict) => {
            return Ok(AcrComparison {
                oracle: verdict.clone(),
                verdict,
                otf_states: 0,
                materialized_states: 0,
            })
        }
    };
    let ta = trace_of(activating)?;
    let tb = trace_of(activated)?;
    let tm = trace_of(&merged)?;
    let (verdict, otf_states) = verify_traces_otf(&ta, &tb, &tm, channel)?;
    let (oracle, materialized_states) = verify_traces_materialized(&ta, &tb, &tm, channel)?;
    Ok(AcrComparison {
        verdict,
        oracle,
        otf_states,
        materialized_states,
    })
}

/// One row of the §4.3 experiment: activating program
/// `rep(op1(passive p, active c))`, activated `rep(op2(passive c, X))`
/// where `X` is an active leaf (plus a `seq` body variant).
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Operator in the activating component.
    pub op_activating: InterleaveOp,
    /// Operator in the activated component.
    pub op_activated: InterleaveOp,
    /// The verdict.
    pub verdict: AcrVerdict,
}

/// Runs the full §4.3 experiment: all combinations of interleaving
/// operators in the activating and activated components that are legal
/// per Table 1 and structurally form an activation (the activated
/// component's operator must be an enclosure).
///
/// # Errors
///
/// Propagates machinery errors; verdicts (including correct rejections)
/// are collected in the rows.
pub fn run_acr_experiment() -> Result<Vec<ExperimentRow>, VerifyError> {
    let enclosures = [
        InterleaveOp::EncEarly,
        InterleaveOp::EncMiddle,
        InterleaveOp::EncLate,
    ];
    let mut rows = Vec::new();
    for op1 in InterleaveOp::ALL {
        // Activating component: rep(op1(passive p, active c)).
        if !legal(op1, ChActivity::Passive, ChActivity::Active) {
            continue;
        }
        let activating = ChExpr::Rep(Box::new(ChExpr::op(
            op1,
            ChExpr::passive("p"),
            ChExpr::active("c"),
        )));
        for op2 in enclosures {
            if !legal(op2, ChActivity::Passive, ChActivity::Active) {
                continue;
            }
            // Activated component: rep(op2(passive c, seq(x, y))).
            let activated = ChExpr::Rep(Box::new(ChExpr::op(
                op2,
                ChExpr::passive("c"),
                ChExpr::op(InterleaveOp::Seq, ChExpr::active("x"), ChExpr::active("y")),
            )));
            let verdict = verify_acr(&activating, &activated, "c")?;
            rows.push(ExperimentRow {
                op_activating: op1,
                op_activated: op2,
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{decision_wait, sequencer};

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn paper_example_verifies() {
        let dw = decision_wait("a1", &names(&["i1", "i2"]), &names(&["o1", "o2"]));
        let seq = sequencer("o2", &names(&["c1", "c2"]));
        let verdict = verify_acr(&dw, &seq, "o2").unwrap();
        assert_eq!(verdict, AcrVerdict::Equivalent);
    }

    #[test]
    fn chained_sequencers_verify() {
        let s1 = sequencer("p", &names(&["x", "m"]));
        let s2 = sequencer("m", &names(&["y", "z"]));
        assert_eq!(verify_acr(&s1, &s2, "m").unwrap(), AcrVerdict::Equivalent);
    }

    #[test]
    fn full_experiment_has_no_inequivalences() {
        let rows = run_acr_experiment().unwrap();
        assert!(!rows.is_empty());
        let bad: Vec<_> = rows.iter().filter(|r| r.verdict.is_mismatch()).collect();
        assert!(bad.is_empty(), "non-equivalent rows: {bad:?}");
        // At least the all-enc-early row must be an accepted, verified merge.
        assert!(rows.iter().any(|r| {
            r.op_activating == InterleaveOp::EncEarly
                && r.op_activated == InterleaveOp::EncEarly
                && r.verdict == AcrVerdict::Equivalent
        }));
    }

    /// Differential: the on-the-fly path must agree with the materialized
    /// oracle on every obligation of the §4.3 experiment while interning
    /// strictly fewer states (it never materializes the composite).
    #[test]
    fn otf_agrees_with_oracle_and_visits_fewer_states() {
        let enclosures = [
            InterleaveOp::EncEarly,
            InterleaveOp::EncMiddle,
            InterleaveOp::EncLate,
        ];
        let mut checked = 0;
        for op1 in InterleaveOp::ALL {
            if !legal(op1, ChActivity::Passive, ChActivity::Active) {
                continue;
            }
            let activating = ChExpr::Rep(Box::new(ChExpr::op(
                op1,
                ChExpr::passive("p"),
                ChExpr::active("c"),
            )));
            for op2 in enclosures {
                if !legal(op2, ChActivity::Passive, ChActivity::Active) {
                    continue;
                }
                let activated = ChExpr::Rep(Box::new(ChExpr::op(
                    op2,
                    ChExpr::passive("c"),
                    ChExpr::op(InterleaveOp::Seq, ChExpr::active("x"), ChExpr::active("y")),
                )));
                let cmp = verify_acr_compared(&activating, &activated, "c").unwrap();
                assert!(
                    cmp.verdict.same_outcome(&cmp.oracle),
                    "{op1:?}/{op2:?}: otf {} vs oracle {}",
                    cmp.verdict,
                    cmp.oracle
                );
                if !matches!(cmp.verdict, AcrVerdict::MergeRejected(_)) {
                    assert!(
                        cmp.otf_states < cmp.materialized_states,
                        "{op1:?}/{op2:?}: otf {} states vs materialized {}",
                        cmp.otf_states,
                        cmp.materialized_states
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "experiment produced no verified obligations");
    }

    /// A deliberately wrong "optimization" must be caught with a
    /// counterexample, identically by both paths.
    #[test]
    fn broken_merge_yields_counterexample() {
        let s1 = sequencer("p", &names(&["x", "m"]));
        let s2 = sequencer("m", &names(&["y", "z"]));
        let ta = trace_of(&s1).unwrap();
        let tb = trace_of(&s2).unwrap();
        // Wrong spec: the merged sequencer with two children swapped.
        let wrong = sequencer("p", &names(&["y", "x", "z"]));
        let tw = trace_of(&wrong).unwrap();
        let (verdict, _) = verify_traces_otf(&ta, &tb, &tw, "m").unwrap();
        let (oracle, _) = verify_traces_materialized(&ta, &tb, &tw, "m").unwrap();
        assert!(verdict.is_mismatch(), "otf verdict: {verdict}");
        assert!(verdict.same_outcome(&oracle));
        match verdict {
            AcrVerdict::NotEquivalent { counterexample, .. } => {
                assert!(
                    !counterexample.is_empty(),
                    "on-the-fly mismatch must carry a witness"
                );
            }
            v => panic!("expected mismatch, got {v}"),
        }
    }
}
