//! Trace-structure generation from CH programs, for the §4.3 verification.
//!
//! The paper verified Activation Channel Removal by translating the CH
//! programs to Petri nets, composing them in the AVER trace-theory verifier,
//! hiding the activation channel, and checking conformance equivalence
//! against the optimized program. Here the CH expansion itself is turned
//! directly into a Dill trace structure: every signal transition is a
//! symbol occurrence (the symbol is the wire name; polarity is implied by
//! position), choices branch, and gotos loop.

use crate::ast::ChExpr;
use crate::expand::{expand_linear, ExpandError, Io, Item, Stream, Tails};
use bmbe_trace::{Dir, TraceStructure};

/// Errors raised during trace generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceGenError {
    /// Expansion failed.
    Expand(ExpandError),
    /// A goto referenced a label never bound.
    UndefinedLabel {
        /// The label id.
        label: usize,
    },
}

impl std::fmt::Display for TraceGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceGenError::Expand(e) => write!(f, "expansion failed: {e}"),
            TraceGenError::UndefinedLabel { label } => write!(f, "undefined label L{label}"),
        }
    }
}

impl std::error::Error for TraceGenError {}

impl From<ExpandError> for TraceGenError {
    fn from(e: ExpandError) -> Self {
        TraceGenError::Expand(e)
    }
}

/// Builds the trace structure of a CH program. Input transitions become
/// `Dir::Input` symbols (wire names), output transitions `Dir::Output`.
///
/// # Errors
///
/// See [`TraceGenError`].
pub fn trace_of(expr: &ChExpr) -> Result<TraceStructure, TraceGenError> {
    let linear = expand_linear(expr)?;
    let mut b = TraceBuilder {
        ts: TraceStructure::new(),
        wires: &linear.wires,
        symbol_of: vec![None; linear.wires.len()],
        labels: vec![LabelBinding::Unbound; linear.labels],
        pending_gotos: Vec::new(),
        tails: Tails::default(),
    };
    let start = b.ts.initial();
    b.walk(Stream::new(&linear.items), Some(start))?;
    b.resolve()?;
    Ok(b.ts)
}

#[derive(Clone, Copy)]
enum LabelBinding<'a> {
    Unbound,
    State(usize),
    Continuation(Stream<'a>),
}

struct TraceBuilder<'a> {
    ts: TraceStructure,
    wires: &'a [String],
    /// The symbol of each wire the walk has met.
    symbol_of: Vec<Option<usize>>,
    /// Indexed by label.
    labels: Vec<LabelBinding<'a>>,
    /// `(from_state, symbol, label)` edges awaiting label resolution —
    /// `symbol == usize::MAX` marks a pure aliasing request handled by
    /// binding the label to `from_state` itself.
    pending_gotos: Vec<(usize, usize, usize)>,
    tails: Tails<'a>,
}

impl<'a> TraceBuilder<'a> {
    fn symbol(&mut self, wire: usize, dir: Dir) -> usize {
        match self.symbol_of[wire] {
            Some(sym) if self.ts.symbols()[sym].1 == dir => sym,
            _ => {
                let sym = self.ts.add_symbol(self.wires[wire].clone(), dir);
                self.symbol_of[wire] = Some(sym);
                sym
            }
        }
    }

    fn walk(
        &mut self,
        mut stream: Stream<'a>,
        mut cur: Option<usize>,
    ) -> Result<(), TraceGenError> {
        while let Some(item) = stream.next(&self.tails) {
            match item {
                Item::T(t) => {
                    let dir = if t.io == Io::In {
                        Dir::Input
                    } else {
                        Dir::Output
                    };
                    let sym = self.symbol(t.wire, dir);
                    if let Some(s) = cur {
                        // Peek: if the very next meaningful item is a goto at
                        // this point we still need a state; always create one.
                        let next = self.ts.add_state();
                        self.ts.add_transition(s, sym, next);
                        cur = Some(next);
                    }
                }
                Item::Label(l) => match (self.labels[*l], cur) {
                    (LabelBinding::Unbound, Some(s)) => self.labels[*l] = LabelBinding::State(s),
                    (LabelBinding::Unbound, None) => {
                        self.labels[*l] = LabelBinding::Continuation(stream);
                    }
                    // Re-encountered label while live: alias the live state
                    // with the label's via an identity note (pending with
                    // MAX symbol) instead of re-walking.
                    (LabelBinding::State(t), Some(s)) if s != t => {
                        self.pending_gotos.push((s, usize::MAX, *l));
                    }
                    _ => {}
                },
                Item::Goto(l) | Item::BGoto(l) => {
                    if let Some(s) = cur.take() {
                        // The state `s` *is* the label's state: since trace
                        // edges are per-transition, a goto simply continues
                        // at the label. Record for later merging.
                        self.pending_gotos.push((s, usize::MAX, *l));
                    }
                }
                Item::Choice(arms) => {
                    if let Some(s) = cur {
                        for arm in self.tails.fork(arms, stream) {
                            self.walk(arm, Some(s))?;
                        }
                    }
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn label_state(&self, l: usize) -> Option<usize> {
        match self.labels[l] {
            LabelBinding::State(s) => Some(s),
            _ => None,
        }
    }

    /// Resolves label continuations and merges goto sources with label
    /// states by copying outgoing edges (trace automata tolerate the
    /// duplication; conformance checking is insensitive to it).
    fn resolve(&mut self) -> Result<(), TraceGenError> {
        // First force every referenced label to have a state, in the order
        // of their first pending goto; gotos before the last one resolved
        // never need another look.
        let mut scan = 0;
        while let Some(offset) = self.pending_gotos[scan..]
            .iter()
            .position(|&(_, _, l)| self.label_state(l).is_none())
        {
            scan += offset;
            let l = self.pending_gotos[scan].2;
            let LabelBinding::Continuation(rest) = self.labels[l] else {
                return Err(TraceGenError::UndefinedLabel { label: l });
            };
            let s = self.ts.add_state();
            self.labels[l] = LabelBinding::State(s);
            self.walk(rest, Some(s))?;
        }
        // Merge each goto source with its label state: copy the label
        // state's outgoing edges onto the source, iterating to a fixpoint so
        // chains of gotos settle.
        let pairs: Vec<(usize, usize)> = self
            .pending_gotos
            .iter()
            .map(|&(s, _, l)| (s, self.label_state(l).expect("resolved above")))
            .collect();
        loop {
            let before = self.ts.num_transitions();
            for &(s, t) in &pairs {
                self.ts.copy_outgoing(t, s);
            }
            if self.ts.num_transitions() == before {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ChExpr, InterleaveOp::*};
    use crate::components::{call, sequencer};

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ptop_trace_cycles() {
        let e = ChExpr::Rep(Box::new(ChExpr::passive("a")));
        let t = trace_of(&e).unwrap();
        assert!(t.accepts(&["a_r", "a_a", "a_r", "a_a", "a_r"]).unwrap());
        assert!(!t.accepts(&["a_a"]).unwrap());
    }

    #[test]
    fn sequencer_trace_follows_protocol() {
        let t = trace_of(&sequencer("p", &names(&["x", "y"]))).unwrap();
        assert!(t
            .accepts(&[
                "p_r", "x_r", "x_a", "x_r", "x_a", "y_r", "y_a", "y_r", "y_a", "p_a", "p_r", "p_a",
                "p_r"
            ])
            .unwrap());
        // y before x is not a trace.
        assert!(!t.accepts(&["p_r", "y_r"]).unwrap());
    }

    #[test]
    fn call_trace_offers_choice() {
        let t = trace_of(&call(&names(&["a1", "a2"]), "b")).unwrap();
        assert!(t
            .accepts(&["a1_r", "b_r", "b_a", "b_r", "b_a", "a1_a"])
            .unwrap());
        assert!(t
            .accepts(&["a2_r", "b_r", "b_a", "b_r", "b_a", "a2_a"])
            .unwrap());
    }

    #[test]
    fn directions_follow_io() {
        let t = trace_of(&sequencer("p", &names(&["x"]))).unwrap();
        let sym = |n: &str| {
            t.symbols()
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, d)| *d)
                .unwrap()
        };
        assert_eq!(sym("p_r"), bmbe_trace::Dir::Input);
        assert_eq!(sym("p_a"), bmbe_trace::Dir::Output);
        assert_eq!(sym("x_r"), bmbe_trace::Dir::Output);
        assert_eq!(sym("x_a"), bmbe_trace::Dir::Input);
    }

    #[test]
    fn mutex_trace_has_both_arms() {
        let e = ChExpr::Rep(Box::new(ChExpr::op(
            Mutex,
            ChExpr::passive("a"),
            ChExpr::passive("b"),
        )));
        let t = trace_of(&e).unwrap();
        // Full four-phase handshakes: a then b, and b then a.
        assert!(t
            .accepts(&["a_r", "a_a", "a_r", "a_a", "b_r", "b_a", "b_r", "b_a"])
            .unwrap());
        assert!(t
            .accepts(&["b_r", "b_a", "b_r", "b_a", "a_r", "a_a", "a_r", "a_a"])
            .unwrap());
    }
}
