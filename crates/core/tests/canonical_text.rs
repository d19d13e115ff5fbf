//! The canonical text written in one walk against its definition: the
//! printed form of the alpha-renamed program, or of the program itself when
//! a `verb` channel rules renaming out. The controller cache's keys and
//! clustering's merge memo both rest on this text, so it must match byte for
//! byte on standard components, random programs, every channel kind, and
//! every program `T1` merges in a corpus slice.

use bmbe_core::ast::{alpha_rename, canonical_text, ChActivity, ChExpr, InterleaveOp, VerbTrans};
use bmbe_core::components::{
    call, case, concur, decision_wait, fork, loop_forever, passivator, sequencer, sync,
    transferrer, while_loop,
};
use bmbe_core::{balsa_to_ch, print_ch, ClusterOptions};
use bmbe_designs::{all_designs, generate_corpus, CorpusSpec};
use proptest::prelude::*;

mod support;
use support::arb_component;

#[path = "support/rescan.rs"]
mod rescan;
use rescan::t1_by_rescan;

/// The text `canonical_text` must reproduce.
fn reference(e: &ChExpr) -> String {
    match alpha_rename(e) {
        Some((renamed, _)) => print_ch(&renamed),
        None => print_ch(e),
    }
}

fn names(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn every_standard_component_matches() {
    let components = [
        sequencer("p", &names(&["a1", "a2", "a3"])),
        concur("p", &names(&["c1", "c2", "c3"])),
        call(&names(&["i1", "i2", "i3"]), "o"),
        passivator("a", "b"),
        sync(&names(&["s1", "s2", "s3"])),
        decision_wait("a", &names(&["i1", "i2"]), &names(&["o1", "o2"])),
        loop_forever("p", "o"),
        transferrer("p", "pl", "ps"),
        fork("f", &names(&["x", "y", "z"])),
        case("p", "sel", &names(&["b0", "b1", "b2"])),
        while_loop("p", "g", "body"),
    ];
    for c in &components {
        assert_eq!(canonical_text(c), reference(c));
    }
    // Channel names drop out: two sequencers over different names share
    // one text.
    assert_eq!(
        canonical_text(&sequencer("go", &names(&["first", "second"]))),
        canonical_text(&sequencer("p", &names(&["a", "b"])))
    );
}

#[test]
fn every_channel_kind_matches() {
    use ChActivity::{Active, Passive};
    let arms = || {
        vec![
            (InterleaveOp::EncEarly, ChExpr::active("x")),
            (InterleaveOp::Seq, ChExpr::active("m")),
            (InterleaveOp::Mutex, ChExpr::passive("x")),
        ]
    };
    let exprs = [
        ChExpr::MultAck {
            activity: Active,
            name: "m".into(),
            n: 3,
        },
        ChExpr::MultReq {
            activity: Passive,
            name: "m".into(),
            n: 2,
        },
        ChExpr::Rep(Box::new(ChExpr::MuxAck {
            name: "m".into(),
            arms: arms(),
        })),
        ChExpr::Rep(Box::new(ChExpr::MuxReq {
            name: "m".into(),
            arms: arms(),
        })),
        ChExpr::MuxAck {
            name: "m".into(),
            arms: Vec::new(),
        },
        ChExpr::op(InterleaveOp::EncLate, ChExpr::Void, ChExpr::Break),
        ChExpr::op(
            InterleaveOp::SeqOv,
            ChExpr::active("b"),
            ChExpr::op(
                InterleaveOp::EncMiddle,
                ChExpr::active("a"),
                ChExpr::active("b"),
            ),
        ),
    ];
    for e in &exprs {
        assert_eq!(canonical_text(e), reference(e), "{}", print_ch(e));
    }
}

#[test]
fn verb_programs_print_literally() {
    let verb = ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncEarly,
        ChExpr::passive("v"),
        ChExpr::Verb {
            name: "w".into(),
            events: [
                vec![
                    VerbTrans {
                        out: true,
                        signal: "v_r".into(),
                        rising: true,
                    },
                    VerbTrans {
                        out: true,
                        signal: "w_x".into(),
                        rising: false,
                    },
                ],
                vec![VerbTrans {
                    out: false,
                    signal: "w_ack01".into(),
                    rising: true,
                }],
                vec![],
                vec![],
            ],
        },
    )));
    assert!(alpha_rename(&verb).is_none());
    assert_eq!(canonical_text(&verb), print_ch(&verb));
}

#[test]
fn every_program_t1_merges_in_a_corpus_slice_matches() {
    let paper = all_designs().expect("shipped designs build");
    let corpus = generate_corpus(&CorpusSpec {
        seed: 11,
        designs: 40,
    })
    .expect("corpus builds");
    let netlists = paper
        .iter()
        .map(|d| &d.compiled.netlist)
        .chain(corpus.iter().map(|d| &d.compiled.netlist));
    let mut merged_programs = 0;
    for netlist in netlists {
        let mut ctrl = balsa_to_ch(netlist).expect("designs translate");
        for c in &ctrl.components {
            assert_eq!(canonical_text(&c.program), reference(&c.program));
        }
        for m in t1_by_rescan(&mut ctrl, &ClusterOptions::default()) {
            assert_eq!(canonical_text(&m), reference(&m));
            merged_programs += 1;
        }
    }
    assert!(merged_programs > 100, "{merged_programs} merged programs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_components_match(e in arb_component()) {
        prop_assert_eq!(canonical_text(&e), reference(&e));
    }
}
