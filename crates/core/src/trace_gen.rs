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
    /// One wire is both received and driven by the program, so it has no
    /// single direction as a symbol.
    DirectionConflict {
        /// The wire's name.
        wire: String,
    },
}

impl std::fmt::Display for TraceGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceGenError::Expand(e) => write!(f, "expansion failed: {e}"),
            TraceGenError::UndefinedLabel { label } => write!(f, "undefined label L{label}"),
            TraceGenError::DirectionConflict { wire } => {
                write!(f, "wire {wire} is both an input and an output")
            }
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
/// The walk records symbols, states and edges first and lays the
/// structure out at the end — symbols, then states, then edges — so its
/// transition table is allocated row by row and never re-strided.
///
/// # Errors
///
/// See [`TraceGenError`].
pub fn trace_of(expr: &ChExpr) -> Result<TraceStructure, TraceGenError> {
    let linear = expand_linear(expr)?;
    let mut b = TraceBuilder {
        wires: &linear.wires,
        symbol_of: vec![None; linear.wires.len()],
        symbols: Vec::new(),
        states: 1,
        edges: Vec::new(),
        labels: vec![LabelBinding::Unbound; linear.labels],
        pending_gotos: Vec::new(),
        tails: Tails::default(),
    };
    b.walk(Stream::new(&linear.items), Some(0))?;
    b.resolve()
}

#[derive(Clone, Copy)]
enum LabelBinding<'a> {
    Unbound,
    State(usize),
    Continuation(Stream<'a>),
}

struct TraceBuilder<'a> {
    wires: &'a [String],
    /// The symbol of each wire the walk has met.
    symbol_of: Vec<Option<usize>>,
    /// `(wire, direction)` of each symbol, in first-met order (the symbol
    /// order of the built structure).
    symbols: Vec<(usize, Dir)>,
    /// States created so far; state 0 is the initial state.
    states: usize,
    /// `(from, symbol, to)` transitions, in walk order (a later edge on
    /// the same state and symbol replaces an earlier one).
    edges: Vec<(usize, usize, usize)>,
    /// Indexed by label.
    labels: Vec<LabelBinding<'a>>,
    /// `(state, label)` aliasing requests awaiting label resolution: the
    /// state continues at the label's state.
    pending_gotos: Vec<(usize, usize)>,
    tails: Tails<'a>,
}

impl<'a> TraceBuilder<'a> {
    fn symbol(&mut self, wire: usize, dir: Dir) -> Result<usize, TraceGenError> {
        match self.symbol_of[wire] {
            Some(sym) if self.symbols[sym].1 == dir => Ok(sym),
            Some(_) => Err(TraceGenError::DirectionConflict {
                wire: self.wires[wire].clone(),
            }),
            None => {
                let sym = self.symbols.len();
                self.symbols.push((wire, dir));
                self.symbol_of[wire] = Some(sym);
                Ok(sym)
            }
        }
    }

    fn add_state(&mut self) -> usize {
        self.states += 1;
        self.states - 1
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
                    let sym = self.symbol(t.wire, dir)?;
                    if let Some(s) = cur {
                        // Peek: if the very next meaningful item is a goto at
                        // this point we still need a state; always create one.
                        let next = self.add_state();
                        self.edges.push((s, sym, next));
                        cur = Some(next);
                    }
                }
                Item::Label(l) => match (self.labels[*l], cur) {
                    (LabelBinding::Unbound, Some(s)) => self.labels[*l] = LabelBinding::State(s),
                    (LabelBinding::Unbound, None) => {
                        self.labels[*l] = LabelBinding::Continuation(stream);
                    }
                    // Re-encountered label while live: alias the live state
                    // with the label's instead of re-walking.
                    (LabelBinding::State(t), Some(s)) if s != t => {
                        self.pending_gotos.push((s, *l));
                    }
                    _ => {}
                },
                Item::Goto(l) | Item::BGoto(l) => {
                    if let Some(s) = cur.take() {
                        // The state `s` *is* the label's state: since trace
                        // edges are per-transition, a goto simply continues
                        // at the label. Record for later merging.
                        self.pending_gotos.push((s, *l));
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

    /// Resolves label continuations, lays the structure out, and merges
    /// goto sources with label states by copying outgoing edges (trace
    /// automata tolerate the duplication; conformance checking is
    /// insensitive to it).
    fn resolve(mut self) -> Result<TraceStructure, TraceGenError> {
        // First force every referenced label to have a state, in the order
        // of their first pending goto; gotos before the last one resolved
        // never need another look.
        let mut scan = 0;
        while let Some(offset) = self.pending_gotos[scan..]
            .iter()
            .position(|&(_, l)| self.label_state(l).is_none())
        {
            scan += offset;
            let l = self.pending_gotos[scan].1;
            let LabelBinding::Continuation(rest) = self.labels[l] else {
                return Err(TraceGenError::UndefinedLabel { label: l });
            };
            let s = self.add_state();
            self.labels[l] = LabelBinding::State(s);
            self.walk(rest, Some(s))?;
        }
        let pairs: Vec<(usize, usize)> = self
            .pending_gotos
            .iter()
            .map(|&(s, l)| {
                self.label_state(l)
                    .map(|t| (s, t))
                    .ok_or(TraceGenError::UndefinedLabel { label: l })
            })
            .collect::<Result<_, _>>()?;
        let mut ts = TraceStructure::new();
        for &(wire, dir) in &self.symbols {
            ts.add_symbol(self.wires[wire].clone(), dir);
        }
        for _ in 1..self.states {
            ts.add_state();
        }
        for &(from, sym, to) in &self.edges {
            ts.add_transition(from, sym, to);
        }
        // Merge each goto source with its label state: copy the label
        // state's outgoing edges onto the source, iterating to a fixpoint so
        // chains of gotos settle.
        loop {
            let before = ts.num_transitions();
            for &(s, t) in &pairs {
                ts.copy_outgoing(t, s);
            }
            if ts.num_transitions() == before {
                break;
            }
        }
        Ok(ts)
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

    /// A wire both received and driven is a typed error, the one
    /// `compile_to_bm` reports for the same program, not a panic.
    #[test]
    fn a_wire_with_both_directions_is_a_typed_error() -> Result<(), &'static str> {
        let src = "(rep (seq (p-to-p passive a) (p-to-p active a)))";
        let e = crate::parse::parse_ch(src).map_err(|_| "the program parses")?;
        assert!(matches!(
            crate::compile::compile_to_bm("conflict", &e),
            Err(crate::compile::CompileError::DirectionConflict { signal }) if signal == "a_r"
        ));
        assert_eq!(
            trace_of(&e).err(),
            Some(TraceGenError::DirectionConflict {
                wire: "a_r".to_string()
            })
        );
        Ok(())
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
