//! The one-pass expansion against Table 2 as written.
//!
//! The reference below is the straightforward reading of the paper: every
//! CH node builds its four events as lists, and each operator concatenates
//! its arguments' events per its row of Table 2, with every transition
//! carrying its wire name. The production expansion must yield the same
//! events — wire names, directions, polarities, choice structure — up to
//! the numbering of labels, on every standard component, on random
//! Burst-Mode aware programs, and on every program `T1` merges in a corpus
//! slice.

use bmbe_core::ast::{ChActivity, ChExpr, InterleaveOp, VerbTrans};
use bmbe_core::components::{
    call, case, concur, decision_wait, fork, loop_forever, passivator, sequencer, sync,
    transferrer, while_loop,
};
use bmbe_core::expand::{expand, expand_linear, Expansion, Io, Item};
use bmbe_core::{balsa_to_ch, ClusterOptions};
use bmbe_designs::{all_designs, generate_corpus, CorpusSpec};
use proptest::prelude::*;
use std::collections::HashMap;

mod support;
use support::arb_component;

#[path = "support/rescan.rs"]
mod rescan;
use rescan::t1_by_rescan;

/// A transition as Table 2 writes it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefTrans {
    out: bool,
    signal: String,
    rising: bool,
}

/// An item of the reference expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RefItem {
    T(RefTrans),
    Label(usize),
    Goto(usize),
    BGoto(usize),
    Choice(Vec<Vec<RefItem>>),
}

type Events = [Vec<RefItem>; 4];

fn linearize(events: Events) -> Vec<RefItem> {
    events.into_iter().flatten().collect()
}

/// The reference expansion; `None` when a `break` has no enclosing `rep`.
fn reference(expr: &ChExpr) -> Option<Events> {
    Reference {
        next_label: 0,
        loop_exits: Vec::new(),
    }
    .expand(expr)
}

struct Reference {
    next_label: usize,
    loop_exits: Vec<usize>,
}

fn t(out: bool, signal: String, rising: bool) -> RefItem {
    RefItem::T(RefTrans {
        out,
        signal,
        rising,
    })
}

impl Reference {
    fn fresh_label(&mut self) -> usize {
        self.next_label += 1;
        self.next_label - 1
    }

    fn expand(&mut self, expr: &ChExpr) -> Option<Events> {
        let req_out = |activity: &ChActivity| *activity == ChActivity::Active;
        Some(match expr {
            ChExpr::PToP { activity, name } => {
                let r = req_out(activity);
                [
                    vec![t(r, format!("{name}_r"), true)],
                    vec![t(!r, format!("{name}_a"), true)],
                    vec![t(r, format!("{name}_r"), false)],
                    vec![t(!r, format!("{name}_a"), false)],
                ]
            }
            ChExpr::MultAck { activity, name, n } => {
                let r = req_out(activity);
                let acks = |rising| (0..*n).map(move |i| t(!r, format!("{name}_a{i}"), rising));
                [
                    vec![t(r, format!("{name}_r"), true)],
                    acks(true).collect(),
                    vec![t(r, format!("{name}_r"), false)],
                    acks(false).collect(),
                ]
            }
            ChExpr::MultReq { activity, name, n } => {
                let r = req_out(activity);
                let reqs = |rising| (0..*n).map(move |i| t(r, format!("{name}_r{i}"), rising));
                [
                    reqs(true).collect(),
                    vec![t(!r, format!("{name}_a"), true)],
                    reqs(false).collect(),
                    vec![t(!r, format!("{name}_a"), false)],
                ]
            }
            ChExpr::Void => Default::default(),
            ChExpr::Verb { events, .. } => events.clone().map(|ev| {
                ev.into_iter()
                    .map(|v| t(v.out, v.signal, v.rising))
                    .collect()
            }),
            ChExpr::Rep(inner) => {
                let head = self.fresh_label();
                let exit = self.fresh_label();
                self.loop_exits.push(exit);
                let body = self.expand(inner)?;
                self.loop_exits.pop();
                let mut e1 = vec![RefItem::Label(head)];
                e1.extend(linearize(body));
                e1.push(RefItem::Goto(head));
                e1.push(RefItem::Label(exit));
                [e1, vec![], vec![], vec![]]
            }
            ChExpr::Break => [
                vec![RefItem::BGoto(*self.loop_exits.last()?)],
                vec![],
                vec![],
                vec![],
            ],
            ChExpr::MuxAck { name, arms } => {
                let mut choice = Vec::new();
                for (i, (op, arg)) in arms.iter().enumerate() {
                    let vchan = [
                        vec![],
                        vec![t(false, format!("{name}_a{i}"), true)],
                        vec![t(true, format!("{name}_r"), false)],
                        vec![t(false, format!("{name}_a{i}"), false)],
                    ];
                    let arg_exp = self.expand(arg)?;
                    choice.push(linearize(combine(*op, vchan, true, arg_exp)));
                }
                [
                    vec![t(true, format!("{name}_r"), true), RefItem::Choice(choice)],
                    vec![],
                    vec![],
                    vec![],
                ]
            }
            ChExpr::MuxReq { name, arms } => {
                let mut choice = Vec::new();
                for (i, (op, arg)) in arms.iter().enumerate() {
                    let vchan = [
                        vec![t(false, format!("{name}_r{i}"), true)],
                        vec![t(true, format!("{name}_a"), true)],
                        vec![t(false, format!("{name}_r{i}"), false)],
                        vec![t(true, format!("{name}_a"), false)],
                    ];
                    let arg_exp = self.expand(arg)?;
                    choice.push(linearize(combine(*op, vchan, false, arg_exp)));
                }
                [vec![RefItem::Choice(choice)], vec![], vec![], vec![]]
            }
            ChExpr::Op { op, a, b } => {
                let ea = self.expand(a)?;
                let eb = self.expand(b)?;
                combine(*op, ea, a.activity() == ChActivity::Active, eb)
            }
        })
    }
}

/// Combines two expansions per Table 2.
fn combine(op: InterleaveOp, a: Events, a_active: bool, b: Events) -> Events {
    let [a1, a2, a3, a4] = a;
    let [b1, b2, b3, b4] = b;
    let cat = |parts: Vec<Vec<RefItem>>| -> Vec<RefItem> { parts.into_iter().flatten().collect() };
    match op {
        // [a1][a2 b1 b2 b3 b4][a3][a4]
        InterleaveOp::EncEarly if a_active => [a1, cat(vec![a2, b1, b2, b3, b4]), a3, a4],
        // [a1 b1 b2 b3 b4][a2][a3][a4]
        InterleaveOp::EncEarly => [cat(vec![a1, b1, b2, b3, b4]), a2, a3, a4],
        // [a1][a2][a3][b1 b2 b3 b4 a4]
        InterleaveOp::EncLate => [a1, a2, a3, cat(vec![b1, b2, b3, b4, a4])],
        // [a1 b1][b2 a2][a3 b3][b4 a4]
        InterleaveOp::EncMiddle => [
            cat(vec![a1, b1]),
            cat(vec![b2, a2]),
            cat(vec![a3, b3]),
            cat(vec![b4, a4]),
        ],
        // [a1 a2 a3 a4 b1][b2][b3][b4]
        InterleaveOp::Seq => [cat(vec![a1, a2, a3, a4, b1]), b2, b3, b4],
        // [a1 a2][b1 b2][a3 a4][b3 b4]
        InterleaveOp::SeqOv => [
            cat(vec![a1, a2]),
            cat(vec![b1, b2]),
            cat(vec![a3, a4]),
            cat(vec![b3, b4]),
        ],
        InterleaveOp::Mutex => {
            let arms = vec![cat(vec![a1, a2, a3, a4]), cat(vec![b1, b2, b3, b4])];
            [vec![RefItem::Choice(arms)], vec![], vec![], vec![]]
        }
    }
}

/// Renumbers labels in order of first mention, so two expansions that
/// differ only in label numbering compare equal.
fn canonical_labels(events: &mut [Vec<RefItem>]) {
    fn walk(items: &mut [RefItem], map: &mut HashMap<usize, usize>) {
        for item in items {
            match item {
                RefItem::Label(l) | RefItem::Goto(l) | RefItem::BGoto(l) => {
                    let next = map.len();
                    *l = *map.entry(*l).or_insert(next);
                }
                RefItem::Choice(arms) => {
                    for arm in arms {
                        walk(arm, map);
                    }
                }
                RefItem::T(_) => {}
            }
        }
    }
    let mut map = HashMap::new();
    for event in events {
        walk(event, &mut map);
    }
}

/// Resolves wire indices to names.
fn named(items: &[Item], wires: &[String]) -> Vec<RefItem> {
    items
        .iter()
        .map(|item| match item {
            Item::T(tr) => t(tr.io == Io::Out, wires[tr.wire].clone(), tr.rising),
            Item::Label(l) => RefItem::Label(*l),
            Item::Goto(l) => RefItem::Goto(*l),
            Item::BGoto(l) => RefItem::BGoto(*l),
            Item::Choice(arms) => {
                RefItem::Choice(arms.iter().map(|arm| named(arm, wires)).collect())
            }
        })
        .collect()
}

/// Asserts that the production expansion of `expr`, both its four events
/// and its linear form, equals the reference up to label numbering.
fn assert_matches_reference(expr: &ChExpr) {
    let Some(mut want) = reference(expr) else {
        assert!(
            expand(expr).is_err() && expand_linear(expr).is_err(),
            "{expr:?}"
        );
        return;
    };
    let x: Expansion = expand(expr).expect("the reference expands it");
    let mut got = x.events.clone().map(|event| named(&event, &x.wires));
    canonical_labels(&mut want);
    canonical_labels(&mut got);
    assert_eq!(got, want, "events of {expr:?}");
    let linear = expand_linear(expr).expect("the reference expands it");
    let mut got = [named(&linear.items, &linear.wires)];
    let mut want = [linearize(want)];
    canonical_labels(&mut got);
    canonical_labels(&mut want);
    assert_eq!(got, want, "linear form of {expr:?}");
    assert!(
        linear
            .wires
            .iter()
            .enumerate()
            .all(|(i, w)| !linear.wires[..i].contains(w)),
        "a wire name appears twice in {:?}",
        linear.wires
    );
}

fn names(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn every_standard_component_expands_as_table2() {
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
        assert_matches_reference(c);
    }
}

#[test]
fn every_operator_and_channel_kind_expands_as_table2() {
    use ChActivity::{Active, Passive};
    let chan = |name: &str, activity| ChExpr::PToP {
        activity,
        name: name.into(),
    };
    let mut exprs = Vec::new();
    for op in InterleaveOp::ALL {
        for (a, b) in [
            (Active, Active),
            (Active, Passive),
            (Passive, Active),
            (Passive, Passive),
        ] {
            exprs.push(ChExpr::op(op, chan("a", a), chan("b", b)));
        }
    }
    for activity in [Active, Passive] {
        exprs.push(ChExpr::MultAck {
            activity,
            name: "m".into(),
            n: 3,
        });
        exprs.push(ChExpr::MultReq {
            activity,
            name: "m".into(),
            n: 3,
        });
    }
    exprs.push(ChExpr::Rep(Box::new(ChExpr::MuxReq {
        name: "m".into(),
        arms: vec![
            (InterleaveOp::EncEarly, ChExpr::active("x")),
            (InterleaveOp::Seq, ChExpr::active("y")),
            (InterleaveOp::Mutex, ChExpr::passive("z")),
        ],
    })));
    // A verb wire named like a channel wire is that wire.
    exprs.push(ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncEarly,
        ChExpr::passive("v"),
        ChExpr::Verb {
            name: "w".into(),
            events: [
                vec![VerbTrans {
                    out: true,
                    signal: "v_r".into(),
                    rising: true,
                }],
                vec![VerbTrans {
                    out: false,
                    signal: "w_ack01".into(),
                    rising: true,
                }],
                vec![],
                vec![],
            ],
        },
    ))));
    exprs.push(ChExpr::op(
        InterleaveOp::EncLate,
        ChExpr::Void,
        ChExpr::Break,
    ));
    exprs.push(ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncMiddle,
        ChExpr::passive("p"),
        ChExpr::op(
            InterleaveOp::Seq,
            ChExpr::Rep(Box::new(ChExpr::op(
                InterleaveOp::Seq,
                ChExpr::active("x"),
                ChExpr::Break,
            ))),
            ChExpr::Rep(Box::new(ChExpr::active("y"))),
        ),
    ))));
    for e in &exprs {
        assert_matches_reference(e);
    }
}

#[test]
fn every_program_t1_merges_in_a_corpus_slice_expands_as_table2() {
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
    let opts = ClusterOptions::default();
    let mut merged_programs = 0;
    for netlist in netlists {
        let original = balsa_to_ch(netlist).expect("designs translate");
        for c in &original.components {
            assert_matches_reference(&c.program);
        }
        let mut by_rescan = original.clone();
        let merged = t1_by_rescan(&mut by_rescan, &opts);
        for m in &merged {
            assert_matches_reference(m);
        }
        merged_programs += merged.len();
        // The indexed T1 reaches the same netlist.
        let mut indexed = original.clone();
        indexed.t1_clustering(&opts);
        assert_eq!(indexed, by_rescan);
    }
    assert!(merged_programs > 100, "{merged_programs} merged programs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_components_expand_as_table2(e in arb_component()) {
        assert_matches_reference(&e);
    }
}
