//! Pins the §4.3 verification results on a fixed obligation set: the first
//! two internal channels of the four shipped paper designs and of the
//! first 64 corpus designs of seed 11 (the obligations a benchmark pass
//! verifies). The digest covers both verdicts with their counterexamples
//! and both state counts of `verify_acr_compared`, so any change to a
//! verdict, a witness trace, the on-the-fly search's interned states or
//! the materialized pipeline's state count moves it.
//!
//! Every obligation of that set holds, so a second digest pins searches
//! that stop early: each accepted merge is checked against two mutants of
//! its merged trace structure, in both directions and through the lazy
//! hidden composition, and the bare composition is searched for failures.
//! It covers every `OtfOutcome` field (verdict, states visited, peak
//! frontier, counterexample) and the subset states interned.

use bmbe_core::opt::verify_acr_compared;
use bmbe_core::{activation_channel_removal, balsa_to_ch, trace_of, ChExpr};
use bmbe_designs::{all_designs, generate_corpus, CorpusSpec};
use bmbe_trace::{Dir, HiddenComposition, TraceStructure};

/// Recorded with `HashMap` transition tables and `BTreeSet` subset states,
/// which the current code must reproduce exactly.
const PINNED: u64 = 0x7cb9_cdbb_73f3_c34c;

/// Recorded alongside [`PINNED`], over the same obligations.
const PINNED_MUTANTS: u64 = 0x69cd_c676_8627_96d5;

/// Internal channels verified per design, as in a benchmark pass.
const CHANNELS: usize = 2;

/// FNV-1a, 64-bit: a hash whose value is fixed by its definition, unlike
/// the standard library's hashers.
struct Fnv(u64);

impl Fnv {
    fn field(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0u8]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A channel with its activating and activated programs.
type Obligation = (String, ChExpr, ChExpr);

/// Each design's name with its obligations, in benchmark order.
fn obligations() -> Vec<(String, Vec<Obligation>)> {
    let paper = all_designs().expect("shipped designs build");
    let corpus = generate_corpus(&CorpusSpec {
        seed: 11,
        designs: 64,
    })
    .expect("corpus builds");
    let designs = paper
        .iter()
        .map(|d| (d.name.to_string(), &d.compiled))
        .chain(corpus.iter().map(|d| (d.name.clone(), &d.compiled)));
    designs
        .map(|(name, compiled)| {
            let ctrl = balsa_to_ch(&compiled.netlist).expect("designs translate");
            let obligations = ctrl
                .internal_channels()
                .into_iter()
                .take(CHANNELS)
                .map(|ch| {
                    let active = ctrl.components[ch.active].program.clone();
                    let passive = ctrl.components[ch.passive].program.clone();
                    (ch.name, active, passive)
                })
                .collect();
            (name, obligations)
        })
        .collect()
}

#[test]
fn verification_of_paper_designs_and_corpus_slice_is_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut checked, mut mismatches) = (0, 0);
    for (name, set) in obligations() {
        h.field(&name);
        for (channel, active, passive) in &set {
            h.field(channel);
            match verify_acr_compared(active, passive, channel) {
                Ok(cmp) => {
                    assert!(
                        cmp.verdict.same_outcome(&cmp.oracle),
                        "{name}/{channel}: on-the-fly {} vs oracle {}",
                        cmp.verdict,
                        cmp.oracle
                    );
                    mismatches += usize::from(cmp.verdict.is_mismatch());
                    h.field(&cmp.verdict.to_string());
                    h.field(&cmp.oracle.to_string());
                    h.field(&cmp.otf_states.to_string());
                    h.field(&cmp.materialized_states.to_string());
                }
                Err(e) => h.field(&format!("error: {e}")),
            }
            checked += 1;
        }
    }
    assert_eq!(
        h.0, PINNED,
        "verification digest {:#018x} ({checked} obligations, {mismatches} mismatches)",
        h.0
    );
}

/// `t` with one edge from the initial state added or redirected: on the
/// first output symbol back to the initial state (`first_output`), else on
/// the last input symbol to the last state. `None` when `t` has no such
/// symbol.
fn mutant(t: &TraceStructure, first_output: bool) -> Option<TraceStructure> {
    let symbols = t.symbols();
    let (sym, to) = if first_output {
        (
            symbols.iter().position(|(_, d)| *d == Dir::Output)?,
            t.initial(),
        )
    } else {
        (
            symbols.iter().rposition(|(_, d)| *d == Dir::Input)?,
            t.num_states() - 1,
        )
    };
    let mut m = t.clone();
    m.add_transition(t.initial(), sym, to);
    Some(m)
}

#[test]
fn searches_against_mutated_specs_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut searches, mut failed) = (0, 0);
    let mut absorb = |h: &mut Fnv, outcome: &bmbe_trace::OtfOutcome| {
        searches += 1;
        failed += usize::from(!outcome.ok);
        h.field(&format!("{outcome:?}"));
    };
    for (name, set) in obligations() {
        h.field(&name);
        for (channel, active, passive) in &set {
            let Ok(merged) = activation_channel_removal(active, passive, channel, None) else {
                continue;
            };
            h.field(channel);
            let ta = trace_of(active).expect("trace of the activating program");
            let tb = trace_of(passive).expect("trace of the activated program");
            let tm = trace_of(&merged).expect("trace of the merged program");
            absorb(&mut h, &ta.failure_search(&tb).expect("composable"));
            let (req, ack) = (format!("{channel}_r"), format!("{channel}_a"));
            for m in [mutant(&tm, true), mutant(&tm, false)]
                .into_iter()
                .flatten()
            {
                let mut hc = HiddenComposition::new(&ta, &tb, &[req.as_str(), ack.as_str()])
                    .expect("the channel is a composite output");
                absorb(&mut h, &hc.conforms_to(&m).expect("same alphabet"));
                absorb(&mut h, &hc.conformed_by(&m).expect("same alphabet"));
                h.field(&hc.subset_states().to_string());
                absorb(&mut h, &m.conforms_to_otf(&tm).expect("same alphabet"));
                absorb(&mut h, &tm.conforms_to_otf(&m).expect("same alphabet"));
            }
        }
    }
    assert!(failed > 0, "no mutant was caught");
    assert_eq!(
        h.0, PINNED_MUTANTS,
        "mutant search digest {:#018x} ({searches} searches, {failed} failed)",
        h.0
    );
}
