//! Four-phase handshake expansion of CH expressions (§3 and Table 2).
//!
//! Every CH expression denotes an *expansion*: four "higher-level" atomic
//! events, each a list of items — signal transitions, loop labels/gotos, and
//! external-choice branches. Interleaving operators place the four events
//! of their arguments exactly per Table 2 of the paper; `rep`/`break` insert
//! the label/goto machinery of §3.2; the mux channels insert `choice`.
//!
//! Expansion is one pass: event `k` of a node is emitted straight into the
//! caller's buffer, each operator following its row of Table 2 as a static
//! placement table, so no per-node event lists are built and joined.
//! Transitions name their wire by index into the expansion's wire table,
//! where each distinct wire name is formatted once.

use crate::ast::{ChActivity, ChExpr, InterleaveOp};
use std::collections::HashMap;
use std::fmt;

/// Direction of a transition relative to the component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Io {
    /// Received from the environment.
    In,
    /// Driven by the component.
    Out,
}

/// A single signal transition, e.g. `(o a_r +)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Trans {
    /// Input or output.
    pub io: Io,
    /// Index of the wire (e.g. `a_r`) in the expansion's wire table.
    pub wire: usize,
    /// Rising (`+`) or falling (`-`).
    pub rising: bool,
}

/// One item of an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A signal transition.
    T(Trans),
    /// A loop-head (or loop-exit) label.
    Label(usize),
    /// Jump back to a label (loop).
    Goto(usize),
    /// Jump out of the innermost loop (`break`).
    BGoto(usize),
    /// External mutually exclusive choice between linearized alternatives.
    Choice(Vec<Vec<Item>>),
}

/// The four-event expansion of a CH expression.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Expansion {
    /// The four atomic events.
    pub events: [Vec<Item>; 4],
    /// Wire names, indexed by [`Trans::wire`].
    pub wires: Vec<String>,
}

/// The linear intermediate form of §3.6: the four events of an expansion
/// concatenated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Linear {
    /// The items, in order.
    pub items: Vec<Item>,
    /// Wire names, indexed by [`Trans::wire`].
    pub wires: Vec<String>,
    /// Labels are numbered `0..labels`.
    pub labels: usize,
}

/// A read position in a linear form, as a chain of borrowed slices: a
/// choice arm is walked as the arm followed by the tail all arms share, and
/// a label's continuation is the position just past it, so walking never
/// copies a stream suffix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stream<'a> {
    head: &'a [Item],
    tail: Option<usize>,
}

/// The shared tails [`Stream`]s continue into, by index.
#[derive(Debug, Default)]
pub(crate) struct Tails<'a>(Vec<Stream<'a>>);

impl<'a> Stream<'a> {
    pub(crate) fn new(items: &'a [Item]) -> Self {
        Stream {
            head: items,
            tail: None,
        }
    }

    /// Takes the next item, moving on into the tail when the head runs out.
    pub(crate) fn next(&mut self, tails: &Tails<'a>) -> Option<&'a Item> {
        loop {
            if let Some((item, rest)) = self.head.split_first() {
                self.head = rest;
                return Some(item);
            }
            *self = tails.0[self.tail?];
        }
    }
}

impl<'a> Tails<'a> {
    /// The streams of a choice's arms, each continuing into `rest`.
    pub(crate) fn fork(
        &mut self,
        arms: &'a [Vec<Item>],
        rest: Stream<'a>,
    ) -> impl Iterator<Item = Stream<'a>> + 'a {
        let tail = if rest.head.is_empty() {
            rest.tail
        } else {
            self.0.push(rest);
            Some(self.0.len() - 1)
        };
        arms.iter().map(move |arm| Stream { head: arm, tail })
    }
}

impl Expansion {
    /// The transitions of the expansion in linear order, descending into
    /// choices.
    pub fn transitions(&self) -> Vec<Trans> {
        fn walk(items: &[Item], out: &mut Vec<Trans>) {
            for item in items {
                match item {
                    Item::T(t) => out.push(*t),
                    Item::Choice(arms) => {
                        for arm in arms {
                            walk(arm, out);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        for e in &self.events {
            walk(e, &mut out);
        }
        out
    }

    /// The name of a transition's wire.
    pub fn wire_name(&self, t: &Trans) -> &str {
        &self.wires[t.wire]
    }
}

impl fmt::Display for Expansion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            write!(f, "[")?;
            let mut first = true;
            for item in e {
                if !first {
                    write!(f, " ")?;
                }
                first = false;
                match item {
                    Item::T(t) => write!(
                        f,
                        "({} {} {})",
                        if t.io == Io::In { "i" } else { "o" },
                        self.wires[t.wire],
                        if t.rising { "+" } else { "-" }
                    )?,
                    Item::Label(l) => write!(f, "(label L{l})")?,
                    Item::Goto(l) => write!(f, "(goto L{l})")?,
                    Item::BGoto(l) => write!(f, "(bgoto L{l})")?,
                    Item::Choice(arms) => write!(f, "(choice #{} arms)", arms.len())?,
                }
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// Errors raised during expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// `break` used outside any `rep`.
    BreakOutsideLoop,
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::BreakOutsideLoop => write!(f, "break used outside of a rep loop"),
        }
    }
}

impl std::error::Error for ExpandError {}

/// Expands a CH expression into its four-phase expansion.
///
/// # Errors
///
/// Returns [`ExpandError::BreakOutsideLoop`] when a `break` has no
/// enclosing `rep`.
pub fn expand(expr: &ChExpr) -> Result<Expansion, ExpandError> {
    let mut emitter = Emitter::default();
    let mut events: [Vec<Item>; 4] = Default::default();
    for (k, event) in events.iter_mut().enumerate() {
        emitter.emit(Part::Expr(expr), k, event)?;
    }
    Ok(Expansion {
        events,
        wires: emitter.wires.names,
    })
}

/// Expands a CH expression straight into its linear intermediate form of
/// §3.6: the four events of [`expand`], concatenated.
///
/// # Errors
///
/// Returns [`ExpandError::BreakOutsideLoop`] when a `break` has no
/// enclosing `rep`.
pub fn expand_linear(expr: &ChExpr) -> Result<Linear, ExpandError> {
    let mut emitter = Emitter::default();
    let items = emitter.linear(|e, k, out| e.emit(Part::Expr(expr), k, out))?;
    Ok(Linear {
        items,
        wires: emitter.wires.names,
        labels: emitter.next_label,
    })
}

/// Which wire of a channel a transition drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Suffix {
    /// `_r`
    Req,
    /// `_a`
    Ack,
    /// `_r{i}`
    ReqN(usize),
    /// `_a{i}`
    AckN(usize),
    /// A verb wire whose name is not of the form `{channel}_{suffix}`.
    Verbatim,
}

impl Suffix {
    /// Splits a wire name into its channel and suffix, when it has the
    /// form a channel wire's formatted name takes. A suffix never contains
    /// `_`, so the split is unique.
    fn split(name: &str) -> Option<(&str, Suffix)> {
        let (chan, suffix) = name.rsplit_once('_')?;
        let index = |digits: &str| {
            digits
                .parse::<usize>()
                .ok()
                .filter(|i| i.to_string() == digits)
        };
        let suffix = match suffix.split_at(suffix.len().min(1)) {
            ("r", "") => Suffix::Req,
            ("a", "") => Suffix::Ack,
            ("r", digits) => Suffix::ReqN(index(digits)?),
            ("a", digits) => Suffix::AckN(index(digits)?),
            _ => return None,
        };
        Some((chan, suffix))
    }
}

/// The wire table of one expansion. A wire is keyed by its channel and
/// suffix, so its name is formatted only the first time it is met; a verb
/// wire named like a channel wire is keyed as that wire.
#[derive(Default)]
struct Wires<'a> {
    names: Vec<String>,
    index: HashMap<(&'a str, Suffix), usize>,
}

impl<'a> Wires<'a> {
    /// The wire `suffix` of channel `chan`.
    fn channel(&mut self, chan: &'a str, suffix: Suffix) -> usize {
        let names = &mut self.names;
        *self.index.entry((chan, suffix)).or_insert_with(|| {
            names.push(match suffix {
                Suffix::Req => format!("{chan}_r"),
                Suffix::Ack => format!("{chan}_a"),
                Suffix::ReqN(i) => format!("{chan}_r{i}"),
                Suffix::AckN(i) => format!("{chan}_a{i}"),
                Suffix::Verbatim => chan.to_string(),
            });
            names.len() - 1
        })
    }

    /// A verb wire, named verbatim.
    fn verbatim(&mut self, name: &'a str) -> usize {
        let (chan, suffix) = Suffix::split(name).unwrap_or((name, Suffix::Verbatim));
        self.channel(chan, suffix)
    }
}

/// An argument of an interleaving operator: a CH expression, or the
/// virtual channel of one mux arm.
#[derive(Clone, Copy)]
enum Part<'a> {
    Expr(&'a ChExpr),
    /// Arm `i` of a mux-ack: acknowledge on wire `i` and the shared
    /// return-to-zero of the request, whose rise is hoisted out in front of
    /// the choice.
    MuxAckArm(&'a str, usize),
    /// Arm `i` of a mux-req: request on wire `i`, shared acknowledge.
    MuxReqArm(&'a str, usize),
}

/// The two arguments of an operator.
#[derive(Clone, Copy)]
enum Arg {
    A,
    B,
}

/// One row of Table 2: `row[k]` lists, in order, the argument events
/// (0-based) that make up event `k` of the result.
type Placement = [&'static [(Arg, usize)]; 4];

use Arg::{A, B};

/// `enc-early`, active first argument: `[a1][a2 b1 b2 b3 b4][a3][a4]`.
const ENC_EARLY_ACTIVE: Placement = [
    &[(A, 0)],
    &[(A, 1), (B, 0), (B, 1), (B, 2), (B, 3)],
    &[(A, 2)],
    &[(A, 3)],
];
/// `enc-early`, passive first argument: `[a1 b1 b2 b3 b4][a2][a3][a4]`.
const ENC_EARLY_PASSIVE: Placement = [
    &[(A, 0), (B, 0), (B, 1), (B, 2), (B, 3)],
    &[(A, 1)],
    &[(A, 2)],
    &[(A, 3)],
];
/// `enc-late`: `[a1][a2][a3][b1 b2 b3 b4 a4]`.
const ENC_LATE: Placement = [
    &[(A, 0)],
    &[(A, 1)],
    &[(A, 2)],
    &[(B, 0), (B, 1), (B, 2), (B, 3), (A, 3)],
];
/// `enc-middle`: `[a1 b1][b2 a2][a3 b3][b4 a4]`.
const ENC_MIDDLE: Placement = [
    &[(A, 0), (B, 0)],
    &[(B, 1), (A, 1)],
    &[(A, 2), (B, 2)],
    &[(B, 3), (A, 3)],
];
/// `seq`: `[a1 a2 a3 a4 b1][b2][b3][b4]`.
const SEQ: Placement = [
    &[(A, 0), (A, 1), (A, 2), (A, 3), (B, 0)],
    &[(B, 1)],
    &[(B, 2)],
    &[(B, 3)],
];
/// `seq-ov`: `[a1 a2][b1 b2][a3 a4][b3 b4]`.
const SEQ_OV: Placement = [
    &[(A, 0), (A, 1)],
    &[(B, 0), (B, 1)],
    &[(A, 2), (A, 3)],
    &[(B, 2), (B, 3)],
];

/// The Table 2 row of `op`; only `enc-early` depends on whether the first
/// argument is active (a `Neither` argument behaves as passive: its events
/// are empty, so the placement collapses to the other argument's events).
/// `mutex` has no row: it places each argument, linearized, in one arm of
/// a choice.
fn placement(op: InterleaveOp, a_active: bool) -> Option<&'static Placement> {
    match op {
        InterleaveOp::EncEarly if a_active => Some(&ENC_EARLY_ACTIVE),
        InterleaveOp::EncEarly => Some(&ENC_EARLY_PASSIVE),
        InterleaveOp::EncLate => Some(&ENC_LATE),
        InterleaveOp::EncMiddle => Some(&ENC_MIDDLE),
        InterleaveOp::Seq => Some(&SEQ),
        InterleaveOp::SeqOv => Some(&SEQ_OV),
        InterleaveOp::Mutex => None,
    }
}

#[derive(Default)]
struct Emitter<'a> {
    wires: Wires<'a>,
    next_label: usize,
    loop_exits: Vec<usize>,
}

impl<'a> Emitter<'a> {
    fn fresh_label(&mut self) -> usize {
        self.next_label += 1;
        self.next_label - 1
    }

    fn trans(&mut self, io: Io, chan: &'a str, suffix: Suffix, rising: bool) -> Item {
        Item::T(Trans {
            io,
            wire: self.wires.channel(chan, suffix),
            rising,
        })
    }

    /// The four events of one construct, concatenated; `event(self, k,
    /// out)` appends event `k` to `out`.
    fn linear(
        &mut self,
        mut event: impl FnMut(&mut Self, usize, &mut Vec<Item>) -> Result<(), ExpandError>,
    ) -> Result<Vec<Item>, ExpandError> {
        let mut out = Vec::new();
        for k in 0..4 {
            event(self, k, &mut out)?;
        }
        Ok(out)
    }

    /// The choice of a mux channel: each arm is the arm's virtual channel
    /// combined with the arm's expression, linearized.
    fn mux_choice(
        &mut self,
        arms: &'a [(InterleaveOp, ChExpr)],
        vchan: impl Fn(usize) -> Part<'a>,
        vchan_active: bool,
    ) -> Result<Item, ExpandError> {
        let mut choice = Vec::with_capacity(arms.len());
        for (i, (op, arg)) in arms.iter().enumerate() {
            choice.push(self.linear(|e, k, out| {
                e.emit_op(*op, vchan(i), vchan_active, Part::Expr(arg), k, out)
            })?);
        }
        Ok(Item::Choice(choice))
    }

    /// Appends event `k` (0-based) of `part` to `out`. Every event of every
    /// node lands in exactly one event of its parent, so each is emitted
    /// exactly once.
    fn emit(&mut self, part: Part<'a>, k: usize, out: &mut Vec<Item>) -> Result<(), ExpandError> {
        let expr = match part {
            Part::Expr(expr) => expr,
            Part::MuxAckArm(name, i) => {
                match k {
                    1 => out.push(self.trans(Io::In, name, Suffix::AckN(i), true)),
                    2 => out.push(self.trans(Io::Out, name, Suffix::Req, false)),
                    3 => out.push(self.trans(Io::In, name, Suffix::AckN(i), false)),
                    _ => {}
                }
                return Ok(());
            }
            Part::MuxReqArm(name, i) => {
                let item = match k {
                    0 | 2 => self.trans(Io::In, name, Suffix::ReqN(i), k == 0),
                    _ => self.trans(Io::Out, name, Suffix::Ack, k == 1),
                };
                out.push(item);
                return Ok(());
            }
        };
        // Events 1 and 2 rise, 3 and 4 fall; 1 and 3 (0 and 2 here) are the
        // request wires'.
        let rising = k < 2;
        let on_req = matches!(k, 0 | 2);
        match expr {
            ChExpr::PToP { activity, name } => {
                let (io, suffix) = if on_req {
                    (req_io(*activity), Suffix::Req)
                } else {
                    (ack_io(*activity), Suffix::Ack)
                };
                out.push(self.trans(io, name, suffix, rising));
            }
            ChExpr::MultAck { activity, name, n } => {
                if on_req {
                    out.push(self.trans(req_io(*activity), name, Suffix::Req, rising));
                } else {
                    for i in 0..*n {
                        out.push(self.trans(ack_io(*activity), name, Suffix::AckN(i), rising));
                    }
                }
            }
            ChExpr::MultReq { activity, name, n } => {
                if on_req {
                    for i in 0..*n {
                        out.push(self.trans(req_io(*activity), name, Suffix::ReqN(i), rising));
                    }
                } else {
                    out.push(self.trans(ack_io(*activity), name, Suffix::Ack, rising));
                }
            }
            ChExpr::Void => {}
            ChExpr::Verb { events, .. } => {
                for t in &events[k] {
                    out.push(Item::T(Trans {
                        io: if t.out { Io::Out } else { Io::In },
                        wire: self.wires.verbatim(&t.signal),
                        rising: t.rising,
                    }));
                }
            }
            ChExpr::Rep(inner) if k == 0 => {
                let head = self.fresh_label();
                let exit = self.fresh_label();
                self.loop_exits.push(exit);
                out.push(Item::Label(head));
                for j in 0..4 {
                    self.emit(Part::Expr(inner), j, out)?;
                }
                out.push(Item::Goto(head));
                out.push(Item::Label(exit));
                self.loop_exits.pop();
            }
            ChExpr::Break if k == 0 => {
                let exit = *self
                    .loop_exits
                    .last()
                    .ok_or(ExpandError::BreakOutsideLoop)?;
                out.push(Item::BGoto(exit));
            }
            ChExpr::MuxAck { name, arms } if k == 0 => {
                out.push(self.trans(Io::Out, name, Suffix::Req, true));
                out.push(self.mux_choice(arms, |i| Part::MuxAckArm(name, i), true)?);
            }
            ChExpr::MuxReq { name, arms } if k == 0 => {
                out.push(self.mux_choice(arms, |i| Part::MuxReqArm(name, i), false)?);
            }
            // Loops, breaks and the mux channels occupy event 1 only.
            ChExpr::Rep(_) | ChExpr::Break | ChExpr::MuxAck { .. } | ChExpr::MuxReq { .. } => {}
            ChExpr::Op { op, a, b } => {
                let a_active = *op == InterleaveOp::EncEarly && a.activity() == ChActivity::Active;
                self.emit_op(*op, Part::Expr(a), a_active, Part::Expr(b), k, out)?;
            }
        }
        Ok(())
    }

    /// Appends event `k` of `op(a, b)` to `out`.
    fn emit_op(
        &mut self,
        op: InterleaveOp,
        a: Part<'a>,
        a_active: bool,
        b: Part<'a>,
        k: usize,
        out: &mut Vec<Item>,
    ) -> Result<(), ExpandError> {
        match placement(op, a_active) {
            Some(row) => {
                for &(arg, j) in row[k] {
                    let part = match arg {
                        A => a,
                        B => b,
                    };
                    self.emit(part, j, out)?;
                }
            }
            None if k == 0 => {
                let arm_a = self.linear(|e, k, out| e.emit(a, k, out))?;
                let arm_b = self.linear(|e, k, out| e.emit(b, k, out))?;
                out.push(Item::Choice(vec![arm_a, arm_b]));
            }
            None => {}
        }
        Ok(())
    }
}

fn req_io(activity: ChActivity) -> Io {
    match activity {
        ChActivity::Active => Io::Out,
        _ => Io::In,
    }
}

fn ack_io(activity: ChActivity) -> Io {
    match activity {
        ChActivity::Active => Io::In,
        _ => Io::Out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ChExpr;
    use InterleaveOp::*;

    fn show(e: &Expansion) -> String {
        e.to_string()
    }

    #[test]
    fn passive_ptop_expansion_matches_paper() {
        let e = expand(&ChExpr::passive("a")).unwrap();
        assert_eq!(show(&e), "[(i a_r +)][(o a_a +)][(i a_r -)][(o a_a -)]");
    }

    #[test]
    fn active_ptop_expansion_matches_paper() {
        let e = expand(&ChExpr::active("b")).unwrap();
        assert_eq!(show(&e), "[(o b_r +)][(i b_a +)][(o b_r -)][(i b_a -)]");
    }

    #[test]
    fn enc_early_passive_active_matches_paper_example() {
        // §3: (enc-early (p-to-p passive A) (p-to-p active B)) =
        // [(i a_r+)(o b_r+)(i b_a+)(o b_r-)(i b_a-)][(o a_a+)][(i a_r-)][(o a_a-)]
        let e = expand(&ChExpr::op(
            EncEarly,
            ChExpr::passive("a"),
            ChExpr::active("b"),
        ))
        .unwrap();
        assert_eq!(
            show(&e),
            "[(i a_r +) (o b_r +) (i b_a +) (o b_r -) (i b_a -)][(o a_a +)][(i a_r -)][(o a_a -)]"
        );
    }

    #[test]
    fn mult_ack_active_matches_paper_example() {
        // (mult-ack active c 2) -> [(o c_r+)][(i c_a0+)(i c_a1+)][(o c_r-)][...]
        let e = expand(&ChExpr::MultAck {
            activity: crate::ast::ChActivity::Active,
            name: "c".into(),
            n: 2,
        })
        .unwrap();
        assert_eq!(
            show(&e),
            "[(o c_r +)][(i c_a0 +) (i c_a1 +)][(o c_r -)][(i c_a0 -) (i c_a1 -)]"
        );
    }

    #[test]
    fn seq_concatenates_first_argument() {
        let e = expand(&ChExpr::op(Seq, ChExpr::active("x"), ChExpr::active("y"))).unwrap();
        assert_eq!(
            show(&e),
            "[(o x_r +) (i x_a +) (o x_r -) (i x_a -) (o y_r +)][(i y_a +)][(o y_r -)][(i y_a -)]"
        );
    }

    #[test]
    fn enc_middle_interleaves_pairwise() {
        let e = expand(&ChExpr::op(
            EncMiddle,
            ChExpr::passive("a"),
            ChExpr::passive("b"),
        ))
        .unwrap();
        assert_eq!(
            show(&e),
            "[(i a_r +) (i b_r +)][(o b_a +) (o a_a +)][(i a_r -) (i b_r -)][(o b_a -) (o a_a -)]"
        );
    }

    #[test]
    fn enc_late_encloses_in_return_phase() {
        let e = expand(&ChExpr::op(
            EncLate,
            ChExpr::passive("a"),
            ChExpr::active("b"),
        ))
        .unwrap();
        assert_eq!(
            show(&e),
            "[(i a_r +)][(o a_a +)][(i a_r -)][(o b_r +) (i b_a +) (o b_r -) (i b_a -) (o a_a -)]"
        );
    }

    #[test]
    fn seq_ov_overlaps() {
        let e = expand(&ChExpr::op(SeqOv, ChExpr::active("a"), ChExpr::active("b"))).unwrap();
        assert_eq!(
            show(&e),
            "[(o a_r +) (i a_a +)][(o b_r +) (i b_a +)][(o a_r -) (i a_a -)][(o b_r -) (i b_a -)]"
        );
    }

    #[test]
    fn rep_wraps_with_label_and_goto() {
        let e = expand_linear(&ChExpr::Rep(Box::new(ChExpr::passive("p")))).unwrap();
        let items = e.items;
        assert!(matches!(items[0], Item::Label(_)));
        assert!(matches!(items[items.len() - 1], Item::Label(_)));
        assert!(items.iter().any(|i| matches!(i, Item::Goto(_))));
    }

    #[test]
    fn break_requires_loop() {
        assert_eq!(
            expand(&ChExpr::Break).unwrap_err(),
            ExpandError::BreakOutsideLoop
        );
        let ok = ChExpr::Rep(Box::new(ChExpr::op(
            Seq,
            ChExpr::passive("p"),
            ChExpr::Break,
        )));
        let e = expand_linear(&ok).unwrap();
        assert!(e.items.iter().any(|i| matches!(i, Item::BGoto(_))));
    }

    #[test]
    fn mutex_produces_choice() {
        let e = expand(&ChExpr::op(
            Mutex,
            ChExpr::passive("a"),
            ChExpr::passive("b"),
        ))
        .unwrap();
        match &e.events[0][0] {
            Item::Choice(arms) => {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[0].len(), 4);
            }
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn void_disappears_under_enclosure() {
        // (enc-early void (seq c1 c2)) linearizes exactly like the seq.
        let seq = ChExpr::op(Seq, ChExpr::active("c1"), ChExpr::active("c2"));
        let enclosed = ChExpr::op(EncEarly, ChExpr::Void, seq.clone());
        let a = expand_linear(&enclosed).unwrap();
        let b = expand_linear(&seq).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mux_ack_shape() {
        let e = expand(&ChExpr::MuxAck {
            name: "m".into(),
            arms: vec![
                (EncEarly, ChExpr::active("x")),
                (EncEarly, ChExpr::active("y")),
            ],
        })
        .unwrap();
        // Event 1: m_r+ then the choice; events 2-4 null.
        assert_eq!(e.events[0].len(), 2);
        assert!(e.events[1].is_empty());
        match &e.events[0][1] {
            Item::Choice(arms) => {
                assert_eq!(arms.len(), 2);
                // Arm 0 mentions m_a0 and x wires.
                let names: Vec<&str> = arms[0]
                    .iter()
                    .filter_map(|i| match i {
                        Item::T(t) => Some(e.wire_name(t)),
                        _ => None,
                    })
                    .collect();
                assert!(names.contains(&"m_a0"));
                assert!(names.contains(&"x_r"));
            }
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn transitions_enumerates_choice_arms() {
        let e = expand(&ChExpr::op(
            Mutex,
            ChExpr::passive("a"),
            ChExpr::passive("b"),
        ))
        .unwrap();
        let ts = e.transitions();
        assert_eq!(ts.len(), 8); // both four-phase handshakes
    }
}
