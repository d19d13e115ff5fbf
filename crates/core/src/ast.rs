//! The CH language: abstract syntax, activity typing, and the Burst-Mode
//! aware legality rules (Table 1 of the paper).
//!
//! CH is the paper's intermediate control-specification language: a small
//! channel calculus whose expressions denote four-phase handshake
//! expansions. Expressions are channel declarations or applications of
//! looping (`rep`, `break`) and interleaving operators (`enc-early`,
//! `enc-middle`, `enc-late`, `seq`, `seq-ov`, `mutex`).

use crate::parse::{print_ch, write_ch, ChannelNames};
use std::collections::BTreeMap;
use std::fmt;

/// Handshake activity of a CH expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChActivity {
    /// Initiates its handshake with an output request.
    Active,
    /// Awaits an input request.
    Passive,
    /// No events of its own (`void`, `break`).
    Neither,
}

impl ChActivity {
    /// The activity's CH keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            ChActivity::Active => "active",
            ChActivity::Passive => "passive",
            ChActivity::Neither => "neither",
        }
    }
}

impl fmt::Display for ChActivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// The six interleaving operators of CH (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterleaveOp {
    /// Enclose the second argument between events 1 and 2 of the first.
    EncEarly,
    /// Events 1–2 (3–4) of the second enclosed between 1–2 (3–4) of the
    /// first; models C-element synchronization and forks.
    EncMiddle,
    /// Enclose the second argument between events 3 and 4 of the first.
    EncLate,
    /// Sequence: first argument completes, then the second runs.
    Seq,
    /// Overlapped sequencing (transferrer-style); active/active only.
    SeqOv,
    /// External mutually exclusive choice; passive/passive only.
    Mutex,
}

impl InterleaveOp {
    /// All operators, in Table 1 row order.
    pub const ALL: [InterleaveOp; 6] = [
        InterleaveOp::EncEarly,
        InterleaveOp::EncLate,
        InterleaveOp::EncMiddle,
        InterleaveOp::Seq,
        InterleaveOp::SeqOv,
        InterleaveOp::Mutex,
    ];

    /// The operator's CH keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            InterleaveOp::EncEarly => "enc-early",
            InterleaveOp::EncMiddle => "enc-middle",
            InterleaveOp::EncLate => "enc-late",
            InterleaveOp::Seq => "seq",
            InterleaveOp::SeqOv => "seq-ov",
            InterleaveOp::Mutex => "mutex",
        }
    }
}

impl fmt::Display for InterleaveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.keyword())
    }
}

/// One transition of a `verb` channel event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerbTrans {
    /// `true` when the component drives the wire.
    pub out: bool,
    /// Wire name (used verbatim, not suffixed).
    pub signal: String,
    /// Rising or falling.
    pub rising: bool,
}

/// A CH expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChExpr {
    /// Point-to-point channel: a request and an acknowledge wire.
    PToP {
        /// Passive or active.
        activity: ChActivity,
        /// Channel name.
        name: String,
    },
    /// One request wire, `n` acknowledge wires (synchronized).
    MultAck {
        /// Passive or active.
        activity: ChActivity,
        /// Channel name.
        name: String,
        /// Number of acknowledge wires.
        n: usize,
    },
    /// `n` request wires, one acknowledge wire.
    MultReq {
        /// Passive or active.
        activity: ChActivity,
        /// Channel name.
        name: String,
        /// Number of request wires.
        n: usize,
    },
    /// One request, `n` acknowledge wires of which exactly one responds;
    /// the matching arm executes. Always active.
    MuxAck {
        /// Channel name.
        name: String,
        /// `(operator, expression)` arms selected by the acknowledge wires.
        arms: Vec<(InterleaveOp, ChExpr)>,
    },
    /// `n` request wires of which exactly one fires; the matching arm
    /// executes. Always passive.
    MuxReq {
        /// Channel name.
        name: String,
        /// `(operator, expression)` arms selected by the request wires.
        arms: Vec<(InterleaveOp, ChExpr)>,
    },
    /// The empty channel: all four events empty (used by the optimizer).
    Void,
    /// A channel whose four events are entirely user-specified (§3.1);
    /// its activity is given by its first transition.
    Verb {
        /// Channel name.
        name: String,
        /// The four events, each a list of transitions.
        events: [Vec<VerbTrans>; 4],
    },
    /// Repeat the argument forever.
    Rep(Box<ChExpr>),
    /// Exit the innermost loop.
    Break,
    /// Application of an interleaving operator to two expressions.
    Op {
        /// The operator.
        op: InterleaveOp,
        /// First argument.
        a: Box<ChExpr>,
        /// Second argument.
        b: Box<ChExpr>,
    },
}

impl ChExpr {
    /// Convenience constructor for a passive point-to-point channel.
    pub fn passive(name: impl Into<String>) -> ChExpr {
        ChExpr::PToP {
            activity: ChActivity::Passive,
            name: name.into(),
        }
    }

    /// Convenience constructor for an active point-to-point channel.
    pub fn active(name: impl Into<String>) -> ChExpr {
        ChExpr::PToP {
            activity: ChActivity::Active,
            name: name.into(),
        }
    }

    /// Convenience constructor for an operator application.
    pub fn op(op: InterleaveOp, a: ChExpr, b: ChExpr) -> ChExpr {
        ChExpr::Op {
            op,
            a: Box::new(a),
            b: Box::new(b),
        }
    }

    /// Right-nested sequencing of several expressions (§3.3:
    /// `(seq c1 c2 c3)` ≡ `(seq c1 (seq c2 c3))`).
    ///
    /// # Panics
    ///
    /// Panics on an empty list.
    pub fn seq_all(mut exprs: Vec<ChExpr>) -> ChExpr {
        assert!(!exprs.is_empty(), "seq of nothing");
        let mut acc = exprs.pop().expect("nonempty");
        while let Some(e) = exprs.pop() {
            acc = ChExpr::op(InterleaveOp::Seq, e, acc);
        }
        acc
    }

    /// Right-nested mutual exclusion of several expressions.
    ///
    /// # Panics
    ///
    /// Panics on an empty list.
    pub fn mutex_all(mut exprs: Vec<ChExpr>) -> ChExpr {
        assert!(!exprs.is_empty(), "mutex of nothing");
        let mut acc = exprs.pop().expect("nonempty");
        while let Some(e) = exprs.pop() {
            acc = ChExpr::op(InterleaveOp::Mutex, e, acc);
        }
        acc
    }

    /// The activity of the expression (§3.1–3.3): channels carry their
    /// declared activity; `rep` inherits its argument's; operators inherit
    /// their first argument's (falling back to the second when the first is
    /// `Neither`, as happens after the optimizer introduces `void`).
    pub fn activity(&self) -> ChActivity {
        match self {
            ChExpr::PToP { activity, .. }
            | ChExpr::MultAck { activity, .. }
            | ChExpr::MultReq { activity, .. } => *activity,
            ChExpr::MuxAck { .. } => ChActivity::Active,
            ChExpr::MuxReq { .. } => ChActivity::Passive,
            ChExpr::Void | ChExpr::Break => ChActivity::Neither,
            ChExpr::Verb { events, .. } => match events.iter().flat_map(|e| e.first()).next() {
                Some(t) if t.out => ChActivity::Active,
                Some(_) => ChActivity::Passive,
                None => ChActivity::Neither,
            },
            ChExpr::Rep(e) => e.activity(),
            ChExpr::Op { a, b, .. } => match a.activity() {
                ChActivity::Neither => b.activity(),
                other => other,
            },
        }
    }

    /// The channels mentioned in the expression, with their activity.
    /// Multiple mentions of the same name must agree (call fragments share
    /// their active channel); where they do not, the last mention in
    /// left-to-right depth-first order wins.
    pub fn channels(&self) -> BTreeMap<String, ChActivity> {
        let mut map = BTreeMap::new();
        self.for_each_channel(&mut |name, activity| match map.get_mut(name) {
            Some(a) => *a = activity,
            None => {
                map.insert(name.to_string(), activity);
            }
        });
        map
    }

    /// Calls `f` on every channel mention with its activity, in
    /// left-to-right depth-first order.
    pub(crate) fn for_each_channel<'a, F: FnMut(&'a str, ChActivity)>(&'a self, f: &mut F) {
        match self {
            ChExpr::PToP { activity, name }
            | ChExpr::MultAck { activity, name, .. }
            | ChExpr::MultReq { activity, name, .. } => f(name, *activity),
            ChExpr::MuxAck { name, arms } => {
                f(name, ChActivity::Active);
                for (_, e) in arms {
                    e.for_each_channel(f);
                }
            }
            ChExpr::MuxReq { name, arms } => {
                f(name, ChActivity::Passive);
                for (_, e) in arms {
                    e.for_each_channel(f);
                }
            }
            ChExpr::Void | ChExpr::Break => {}
            ChExpr::Verb { name, .. } => f(name, self.activity()),
            ChExpr::Rep(e) => e.for_each_channel(f),
            ChExpr::Op { a, b, .. } => {
                a.for_each_channel(f);
                b.for_each_channel(f);
            }
        }
    }

    /// Renames every occurrence of channel `from` to `to`.
    pub fn rename_channel(&mut self, from: &str, to: &str) {
        match self {
            ChExpr::PToP { name, .. }
            | ChExpr::MultAck { name, .. }
            | ChExpr::MultReq { name, .. }
            | ChExpr::MuxAck { name, .. }
            | ChExpr::MuxReq { name, .. } => {
                if name == from {
                    *name = to.to_string();
                }
            }
            ChExpr::Void | ChExpr::Break | ChExpr::Verb { .. } => {}
            ChExpr::Rep(e) => e.rename_channel(from, to),
            ChExpr::Op { a, b, .. } => {
                a.rename_channel(from, to);
                b.rename_channel(from, to);
            }
        }
        if let ChExpr::MuxAck { arms, .. } | ChExpr::MuxReq { arms, .. } = self {
            for (_, e) in arms {
                e.rename_channel(from, to);
            }
        }
    }

    /// Whether the expression contains a `verb` channel anywhere. Verb wire
    /// names are used verbatim (not `chan_suffix`), so verb programs cannot
    /// be alpha-renamed.
    pub fn contains_verb(&self) -> bool {
        match self {
            ChExpr::Verb { .. } => true,
            ChExpr::PToP { .. }
            | ChExpr::MultAck { .. }
            | ChExpr::MultReq { .. }
            | ChExpr::Void
            | ChExpr::Break => false,
            ChExpr::MuxAck { arms, .. } | ChExpr::MuxReq { arms, .. } => {
                arms.iter().any(|(_, e)| e.contains_verb())
            }
            ChExpr::Rep(e) => e.contains_verb(),
            ChExpr::Op { a, b, .. } => a.contains_verb() || b.contains_verb(),
        }
    }

    /// Channel names in first-occurrence order of a left-to-right,
    /// depth-first traversal — the order in which the four-phase expansion
    /// first mentions each channel, and hence a structural (name-free)
    /// ordering.
    pub fn channel_order(&self) -> Vec<String> {
        let mut order = Vec::new();
        self.collect_channel_order(&mut order);
        order
    }

    fn collect_channel_order(&self, order: &mut Vec<String>) {
        let push = |name: &String, order: &mut Vec<String>| {
            if !order.iter().any(|n| n == name) {
                order.push(name.clone());
            }
        };
        match self {
            ChExpr::PToP { name, .. }
            | ChExpr::MultAck { name, .. }
            | ChExpr::MultReq { name, .. }
            | ChExpr::Verb { name, .. } => push(name, order),
            ChExpr::MuxAck { name, arms } | ChExpr::MuxReq { name, arms } => {
                push(name, order);
                for (_, e) in arms {
                    e.collect_channel_order(order);
                }
            }
            ChExpr::Void | ChExpr::Break => {}
            ChExpr::Rep(e) => e.collect_channel_order(order),
            ChExpr::Op { a, b, .. } => {
                a.collect_channel_order(order);
                b.collect_channel_order(order);
            }
        }
    }

    /// Applies a simultaneous channel renaming: every channel whose name is
    /// a key of `map` is renamed to the mapped value; others are untouched.
    /// Unlike chained [`ChExpr::rename_channel`] calls, a simultaneous
    /// application cannot capture (rename through) another entry's target
    /// name.
    pub fn rename_channels(&self, map: &std::collections::HashMap<String, String>) -> ChExpr {
        let rename = |name: &String| map.get(name).cloned().unwrap_or_else(|| name.clone());
        match self {
            ChExpr::PToP { activity, name } => ChExpr::PToP {
                activity: *activity,
                name: rename(name),
            },
            ChExpr::MultAck { activity, name, n } => ChExpr::MultAck {
                activity: *activity,
                name: rename(name),
                n: *n,
            },
            ChExpr::MultReq { activity, name, n } => ChExpr::MultReq {
                activity: *activity,
                name: rename(name),
                n: *n,
            },
            ChExpr::MuxAck { name, arms } => ChExpr::MuxAck {
                name: rename(name),
                arms: arms
                    .iter()
                    .map(|(op, e)| (*op, e.rename_channels(map)))
                    .collect(),
            },
            ChExpr::MuxReq { name, arms } => ChExpr::MuxReq {
                name: rename(name),
                arms: arms
                    .iter()
                    .map(|(op, e)| (*op, e.rename_channels(map)))
                    .collect(),
            },
            ChExpr::Void => ChExpr::Void,
            ChExpr::Break => ChExpr::Break,
            ChExpr::Verb { .. } => self.clone(),
            ChExpr::Rep(e) => ChExpr::Rep(Box::new(e.rename_channels(map))),
            ChExpr::Op { op, a, b } => {
                ChExpr::op(*op, a.rename_channels(map), b.rename_channels(map))
            }
        }
    }
}

/// Alpha-renames an expression into canonical form: the `i`-th channel (in
/// [`ChExpr::channel_order`]) becomes `k{i}`. Two expressions that differ
/// only in channel names produce identical canonical forms, which is what
/// makes the printed canonical text a content address for the flow's
/// controller cache.
///
/// Returns the canonical expression plus the original channel names in
/// canonical order (`result.1[i]` is the channel that became `k{i}`), so a
/// wire `k{i}_suffix` of an artifact synthesized from the canonical form
/// can be mapped back to `{result.1[i]}_suffix`. Canonical names contain no
/// underscore, so the suffix split is unambiguous.
///
/// Returns `None` when the expression contains a `verb` channel (verb wire
/// names are verbatim and cannot be renamed); such programs are cached
/// under their literal printed text instead.
pub fn alpha_rename(expr: &ChExpr) -> Option<(ChExpr, Vec<String>)> {
    if expr.contains_verb() {
        return None;
    }
    let order = expr.channel_order();
    let map: std::collections::HashMap<String, String> = order
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), format!("k{i}")))
        .collect();
    Some((expr.rename_channels(&map), order))
}

/// The printed text of [`alpha_rename`]'s canonical form, written in one
/// walk without building the renamed tree: byte-identical to
/// `print_ch(&alpha_rename(expr).0)`, and to `print_ch(expr)` for verb
/// programs, which cannot be renamed. Two programs share this text exactly
/// when they are the same up to channel names, so it is the key both of the
/// flow's controller cache and of clustering's
/// [`crate::opt::acr::MergeMemo`].
pub fn canonical_text(expr: &ChExpr) -> String {
    // Room for most texts up front: growing the string step by step costs
    // about a quarter of the walk.
    let mut out = String::with_capacity(256);
    let mut names = ChannelNames::Canonical {
        met: Vec::new(),
        verb: false,
    };
    write_ch(&mut out, expr, &mut names);
    match names {
        ChannelNames::Canonical { verb: true, .. } => print_ch(expr),
        _ => out,
    }
}

/// Table 1 of the paper: whether an operator applied to arguments of the
/// given activities yields a correct-by-construction Burst-Mode
/// specification. `Neither` arguments (the optimizer's `void`) contribute no
/// events and are always compatible.
pub fn legal(op: InterleaveOp, a: ChActivity, b: ChActivity) -> bool {
    use ChActivity::{Active, Neither, Passive};
    if a == Neither || b == Neither {
        return true;
    }
    match (op, a, b) {
        (InterleaveOp::EncEarly, Active, Active) => true,
        (InterleaveOp::EncEarly, Active, Passive) => false,
        (InterleaveOp::EncEarly, Passive, _) => true,
        (InterleaveOp::EncLate, Passive, _) => true,
        (InterleaveOp::EncLate, Active, _) => false,
        (InterleaveOp::EncMiddle, Active, Active) => true,
        (InterleaveOp::EncMiddle, Active, Passive) => false,
        (InterleaveOp::EncMiddle, Passive, _) => true,
        (InterleaveOp::Seq, Active, Active) => true,
        (InterleaveOp::Seq, Active, Passive) => false,
        (InterleaveOp::Seq, Passive, _) => true,
        (InterleaveOp::SeqOv, Active, Active) => true,
        (InterleaveOp::SeqOv, _, _) => false,
        (InterleaveOp::Mutex, Passive, Passive) => true,
        (InterleaveOp::Mutex, _, _) => false,
        // Neither handled by the early return above.
        (_, Neither, _) | (_, _, Neither) => true,
    }
}

/// Checks the whole expression tree against the Burst-Mode aware rules,
/// returning the first offending operator application.
pub fn check_bm_aware(expr: &ChExpr) -> Result<(), BmAwareError> {
    match expr {
        ChExpr::PToP { .. }
        | ChExpr::MultAck { .. }
        | ChExpr::MultReq { .. }
        | ChExpr::Void
        | ChExpr::Verb { .. }
        | ChExpr::Break => Ok(()),
        ChExpr::Rep(e) => check_bm_aware(e),
        ChExpr::MuxAck { arms, .. } => {
            for (op, e) in arms {
                // The implicit first argument is the (active) mux channel.
                if !legal(*op, ChActivity::Active, e.activity()) {
                    return Err(BmAwareError {
                        op: *op,
                        a: ChActivity::Active,
                        b: e.activity(),
                    });
                }
                check_bm_aware(e)?;
            }
            Ok(())
        }
        ChExpr::MuxReq { arms, .. } => {
            for (op, e) in arms {
                if !legal(*op, ChActivity::Passive, e.activity()) {
                    return Err(BmAwareError {
                        op: *op,
                        a: ChActivity::Passive,
                        b: e.activity(),
                    });
                }
                check_bm_aware(e)?;
            }
            Ok(())
        }
        ChExpr::Op { op, a, b } => {
            if !legal(*op, a.activity(), b.activity()) {
                return Err(BmAwareError {
                    op: *op,
                    a: a.activity(),
                    b: b.activity(),
                });
            }
            check_bm_aware(a)?;
            check_bm_aware(b)
        }
    }
}

/// A violation of the Burst-Mode aware restrictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmAwareError {
    /// The operator.
    pub op: InterleaveOp,
    /// First-argument activity.
    pub a: ChActivity,
    /// Second-argument activity.
    pub b: ChActivity,
}

impl fmt::Display for BmAwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operator {} is not BM-aware for {}/{} arguments",
            self.op, self.a, self.b
        )
    }
}

impl std::error::Error for BmAwareError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ChActivity::{Active, Passive};
    use InterleaveOp::*;

    #[test]
    fn table1_matches_paper() {
        // Rows of Table 1, columns aa, ap, pa, pp.
        let expect = [
            (EncEarly, [true, false, true, true]),
            (EncLate, [false, false, true, true]),
            (EncMiddle, [true, false, true, true]),
            (Seq, [true, false, true, true]),
            (SeqOv, [true, false, false, false]),
            (Mutex, [false, false, false, true]),
        ];
        for (op, row) in expect {
            assert_eq!(legal(op, Active, Active), row[0], "{op} aa");
            assert_eq!(legal(op, Active, Passive), row[1], "{op} ap");
            assert_eq!(legal(op, Passive, Active), row[2], "{op} pa");
            assert_eq!(legal(op, Passive, Passive), row[3], "{op} pp");
        }
    }

    #[test]
    fn sequencer_activity_is_passive() {
        // (rep (enc-early (p-to-p passive P) (seq (p-to-p active A1) ...)))
        let e = ChExpr::Rep(Box::new(ChExpr::op(
            EncEarly,
            ChExpr::passive("p"),
            ChExpr::op(Seq, ChExpr::active("a1"), ChExpr::active("a2")),
        )));
        assert_eq!(e.activity(), Passive);
        check_bm_aware(&e).unwrap();
    }

    #[test]
    fn void_first_argument_inherits_second() {
        let e = ChExpr::op(
            EncEarly,
            ChExpr::Void,
            ChExpr::op(Seq, ChExpr::active("c1"), ChExpr::active("c2")),
        );
        assert_eq!(e.activity(), Active);
        check_bm_aware(&e).unwrap();
    }

    #[test]
    fn illegal_combination_reported() {
        // enc-early active/passive is a "no" in Table 1.
        let e = ChExpr::op(EncEarly, ChExpr::active("a"), ChExpr::passive("b"));
        let err = check_bm_aware(&e).unwrap_err();
        assert_eq!(err.op, EncEarly);
        assert_eq!(err.a, Active);
        assert_eq!(err.b, Passive);
    }

    #[test]
    fn mutex_requires_passive_args() {
        let e = ChExpr::op(Mutex, ChExpr::active("a"), ChExpr::passive("b"));
        assert!(check_bm_aware(&e).is_err());
        let ok = ChExpr::op(Mutex, ChExpr::passive("a"), ChExpr::passive("b"));
        check_bm_aware(&ok).unwrap();
    }

    #[test]
    fn channels_collects_all() {
        let e = ChExpr::op(
            EncEarly,
            ChExpr::passive("p"),
            ChExpr::op(Seq, ChExpr::active("a1"), ChExpr::active("a2")),
        );
        let chans = e.channels();
        assert_eq!(chans.len(), 3);
        assert_eq!(chans["p"], Passive);
        assert_eq!(chans["a1"], Active);
    }

    #[test]
    fn rename_channel_works() {
        let mut e = ChExpr::op(Seq, ChExpr::active("x"), ChExpr::active("y"));
        e.rename_channel("x", "z");
        let chans = e.channels();
        assert!(chans.contains_key("z"));
        assert!(!chans.contains_key("x"));
    }

    #[test]
    fn seq_all_right_nests() {
        let e = ChExpr::seq_all(vec![
            ChExpr::active("a"),
            ChExpr::active("b"),
            ChExpr::active("c"),
        ]);
        match e {
            ChExpr::Op { op: Seq, a, b } => {
                assert_eq!(*a, ChExpr::active("a"));
                assert!(matches!(*b, ChExpr::Op { op: Seq, .. }));
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn mux_arm_legality_checked() {
        // A mux-ack arm with a mutex operator is illegal (mutex needs
        // passive/passive but the mux channel is active).
        let bad = ChExpr::MuxAck {
            name: "m".into(),
            arms: vec![(Mutex, ChExpr::passive("x"))],
        };
        assert!(check_bm_aware(&bad).is_err());
        let good = ChExpr::MuxAck {
            name: "m".into(),
            arms: vec![(EncEarly, ChExpr::active("x"))],
        };
        check_bm_aware(&good).unwrap();
    }
}
