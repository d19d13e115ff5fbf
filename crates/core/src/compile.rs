//! The CH-to-BMS compiler (§3.6 of the paper).
//!
//! A CH program is first expanded into the linear intermediate form (a list
//! of signal transitions with labels, gotos and choice markers), then
//! translated into a Burst-Mode specification: transitions are scanned in
//! order, accumulating an input burst followed by an output burst; a new
//! input transition after outputs closes the arc and opens a new state; a
//! goto closes the arc into the state bound to its label; a choice forks the
//! scan, compiling each alternative together with the continuation of the
//! program (which is how Fig. 4's merged controller gets its per-branch
//! return arcs).

use crate::ast::ChExpr;
use crate::expand::{expand_linear, ExpandError, Io, Item, Linear, Stream, Tails};
use bmbe_bm::spec::{BmError, BmSpec, SignalDir};
use std::fmt;

/// Errors raised by CH-to-BMS compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Expansion failed.
    Expand(ExpandError),
    /// An output transition occurred with no triggering input burst.
    OutputWithoutTrigger {
        /// The output wire.
        signal: String,
    },
    /// The same wire appeared twice within one burst.
    SignalTwiceInBurst {
        /// The wire.
        signal: String,
    },
    /// A wire was used both as input and output.
    DirectionConflict {
        /// The wire.
        signal: String,
    },
    /// A goto referenced a label never bound.
    UndefinedLabel {
        /// The label id.
        label: usize,
    },
    /// The produced machine failed Burst-Mode validation.
    Bm(BmError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Expand(e) => write!(f, "expansion failed: {e}"),
            CompileError::OutputWithoutTrigger { signal } => {
                write!(f, "output {signal} has no triggering input burst")
            }
            CompileError::SignalTwiceInBurst { signal } => {
                write!(f, "wire {signal} occurs twice in one burst")
            }
            CompileError::DirectionConflict { signal } => {
                write!(f, "wire {signal} used as both input and output")
            }
            CompileError::UndefinedLabel { label } => write!(f, "undefined label L{label}"),
            CompileError::Bm(e) => write!(f, "produced machine is not a valid BM spec: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ExpandError> for CompileError {
    fn from(e: ExpandError) -> Self {
        CompileError::Expand(e)
    }
}

impl From<BmError> for CompileError {
    fn from(e: BmError) -> Self {
        CompileError::Bm(e)
    }
}

/// Compiles a CH expression into a validated Burst-Mode specification.
///
/// # Errors
///
/// See [`CompileError`].
///
/// # Examples
///
/// The sequencer of §3.4 compiles to the six-state machine of Fig. 3:
///
/// ```
/// use bmbe_core::ast::{ChExpr, InterleaveOp};
/// use bmbe_core::compile::compile_to_bm;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let seq = ChExpr::Rep(Box::new(ChExpr::op(
///     InterleaveOp::EncEarly,
///     ChExpr::passive("p"),
///     ChExpr::op(InterleaveOp::Seq, ChExpr::active("a1"), ChExpr::active("a2")),
/// )));
/// let spec = compile_to_bm("sequencer", &seq)?;
/// assert_eq!(spec.num_states(), 6);
/// # Ok(())
/// # }
/// ```
pub fn compile_to_bm(name: &str, expr: &ChExpr) -> Result<BmSpec, CompileError> {
    let linear = expand_linear(expr)?;
    let mut b = Builder::new(name, &linear);
    let start = b.fresh_state();
    b.walk(
        Stream::new(&linear.items),
        Some(Cursor {
            state: start,
            pin: Vec::new(),
            pout: Vec::new(),
        }),
    )?;
    b.resolve_all()?;
    b.finish(start)
}

#[derive(Debug, Clone)]
struct Cursor {
    state: usize,
    pin: Vec<(usize, bool)>,
    pout: Vec<(usize, bool)>,
}

#[derive(Debug, Clone)]
enum ToRef {
    State(usize),
    Label(usize),
}

#[derive(Debug, Clone, Copy)]
enum Binding<'a> {
    Unbound,
    State(usize),
    Continuation(Stream<'a>),
}

type Burst = Vec<(usize, bool)>;

struct Builder<'a> {
    name: &'a str,
    wires: &'a [String],
    /// The signal of each wire the walk has met. Signals are numbered in
    /// walk first-occurrence order, not wire-table order.
    signal_of: Vec<Option<usize>>,
    /// `(wire, direction)` of each signal.
    signals: Vec<(usize, SignalDir)>,
    num_states: usize,
    arcs: Vec<(usize, ToRef, Burst, Burst)>,
    /// Indexed by label.
    labels: Vec<Binding<'a>>,
    /// Outputs that lead a label's continuation (a loop head that re-emits
    /// a request); appended to every arc entering that label. Indexed by
    /// label.
    label_prefix: Vec<Burst>,
    merge_parent: Vec<usize>,
    tails: Tails<'a>,
}

impl<'a> Builder<'a> {
    fn new(name: &'a str, linear: &'a Linear) -> Self {
        Builder {
            name,
            wires: &linear.wires,
            signal_of: vec![None; linear.wires.len()],
            signals: Vec::new(),
            num_states: 0,
            arcs: Vec::new(),
            labels: vec![Binding::Unbound; linear.labels],
            label_prefix: vec![Vec::new(); linear.labels],
            merge_parent: Vec::new(),
            tails: Tails::default(),
        }
    }

    fn fresh_state(&mut self) -> usize {
        self.num_states += 1;
        self.merge_parent.push(self.num_states - 1);
        self.num_states - 1
    }

    fn find(&mut self, s: usize) -> usize {
        if self.merge_parent[s] != s {
            let root = self.find(self.merge_parent[s]);
            self.merge_parent[s] = root;
            root
        } else {
            s
        }
    }

    fn merge(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.merge_parent[ra.max(rb)] = ra.min(rb);
        }
    }

    fn intern(&mut self, wire: usize, dir: SignalDir) -> Result<usize, CompileError> {
        if let Some(i) = self.signal_of[wire] {
            if self.signals[i].1 != dir {
                return Err(CompileError::DirectionConflict {
                    signal: self.wires[wire].clone(),
                });
            }
            return Ok(i);
        }
        let i = self.signals.len();
        self.signals.push((wire, dir));
        self.signal_of[wire] = Some(i);
        Ok(i)
    }

    fn label_state(&self, l: usize) -> Option<usize> {
        match self.labels[l] {
            Binding::State(s) => Some(s),
            _ => None,
        }
    }

    fn walk(
        &mut self,
        mut stream: Stream<'a>,
        mut cur: Option<Cursor>,
    ) -> Result<(), CompileError> {
        while let Some(item) = stream.next(&self.tails) {
            match item {
                Item::T(t) => {
                    let dir = match t.io {
                        Io::In => SignalDir::Input,
                        Io::Out => SignalDir::Output,
                    };
                    let sig = self.intern(t.wire, dir)?;
                    if let Some(c) = cur.as_mut() {
                        match t.io {
                            Io::In => {
                                if !c.pout.is_empty() {
                                    // Close the arc into a fresh state.
                                    let next = self.fresh_state();
                                    self.arcs.push((
                                        c.state,
                                        ToRef::State(next),
                                        std::mem::take(&mut c.pin),
                                        std::mem::take(&mut c.pout),
                                    ));
                                    c.state = next;
                                }
                                if c.pin.iter().any(|&(s, _)| s == sig) {
                                    return Err(CompileError::SignalTwiceInBurst {
                                        signal: self.wires[t.wire].clone(),
                                    });
                                }
                                c.pin.push((sig, t.rising));
                            }
                            Io::Out => {
                                if c.pin.is_empty() {
                                    return Err(CompileError::OutputWithoutTrigger {
                                        signal: self.wires[t.wire].clone(),
                                    });
                                }
                                if c.pout.iter().any(|&(s, _)| s == sig) {
                                    return Err(CompileError::SignalTwiceInBurst {
                                        signal: self.wires[t.wire].clone(),
                                    });
                                }
                                c.pout.push((sig, t.rising));
                            }
                        }
                    }
                }
                Item::Label(l) => {
                    if let Binding::Unbound = self.labels[*l] {
                        self.labels[*l] = match &cur {
                            Some(c) if c.pin.is_empty() && c.pout.is_empty() => {
                                Binding::State(c.state)
                            }
                            _ => Binding::Continuation(stream),
                        };
                    }
                }
                Item::Goto(l) | Item::BGoto(l) => {
                    if let Some(c) = cur.take() {
                        if c.pin.is_empty() && c.pout.is_empty() {
                            // At a state boundary: the jump aliases states.
                            match self.label_state(*l) {
                                Some(s) => self.merge(c.state, s),
                                None => {
                                    // Bind the label's eventual state to this
                                    // one by noting an empty-burst arc is not
                                    // representable; defer via alias arc.
                                    self.arcs.push((
                                        c.state,
                                        ToRef::Label(*l),
                                        Vec::new(),
                                        Vec::new(),
                                    ));
                                }
                            }
                        } else {
                            self.arcs.push((c.state, ToRef::Label(*l), c.pin, c.pout));
                        }
                    }
                }
                Item::Choice(arms) => {
                    if let Some(mut c) = cur.take() {
                        // With outputs already emitted the current arc is
                        // committed: close it into one shared state and let
                        // the arms' input bursts resolve the choice there
                        // (the mux-ack case). With only inputs pending the
                        // arms' first inputs join the accumulating burst
                        // per branch (the decision-wait case, Fig. 4).
                        if !c.pout.is_empty() {
                            let next = self.fresh_state();
                            self.arcs.push((
                                c.state,
                                ToRef::State(next),
                                std::mem::take(&mut c.pin),
                                std::mem::take(&mut c.pout),
                            ));
                            c.state = next;
                        }
                        for arm in self.tails.fork(arms, stream) {
                            self.walk(arm, Some(c.clone()))?;
                        }
                    }
                    return Ok(());
                }
            }
        }
        // End of stream with pending work: close into a terminal state.
        if let Some(c) = cur {
            if !c.pin.is_empty() || !c.pout.is_empty() {
                let term = self.fresh_state();
                self.arcs.push((c.state, ToRef::State(term), c.pin, c.pout));
            }
        }
        Ok(())
    }

    /// Resolves every label referenced by an arc, compiling label
    /// continuations on demand (this is where loop-head states entered
    /// "fresh" from a goto get their own arcs). Labels resolve in the order
    /// their first referencing arc appears; arcs before the last one
    /// resolved never need another look.
    fn resolve_all(&mut self) -> Result<(), CompileError> {
        let mut scan = 0;
        while let Some(offset) = self.arcs[scan..].iter().position(
            |(_, to, _, _)| matches!(to, ToRef::Label(l) if self.label_state(*l).is_none()),
        ) {
            scan += offset;
            let ToRef::Label(l) = self.arcs[scan].1 else {
                unreachable!("position() matched a label arc")
            };
            let Binding::Continuation(mut rest) = self.labels[l] else {
                return Err(CompileError::UndefinedLabel { label: l });
            };
            // Leading output transitions of a loop-head continuation
            // belong to the arcs that *enter* the label.
            let mut prefix: Burst = Vec::new();
            let mut peek = rest;
            while let Some(Item::T(t)) = peek.next(&self.tails) {
                if t.io != Io::Out {
                    break;
                }
                let sig = self.intern(t.wire, SignalDir::Output)?;
                prefix.push((sig, t.rising));
                rest = peek;
            }
            self.label_prefix[l] = prefix;
            let s = self.fresh_state();
            self.labels[l] = Binding::State(s);
            self.walk(
                rest,
                Some(Cursor {
                    state: s,
                    pin: Vec::new(),
                    pout: Vec::new(),
                }),
            )?;
        }
        // Apply state aliases created by empty-burst gotos to labels.
        let alias_arcs: Vec<(usize, usize)> = self
            .arcs
            .iter()
            .filter(|(_, _, pin, pout)| pin.is_empty() && pout.is_empty())
            .map(|(from, to, _, _)| {
                let t = match to {
                    ToRef::State(s) => *s,
                    ToRef::Label(l) => self.label_state(*l).expect("resolved above"),
                };
                (*from, t)
            })
            .collect();
        for (a, b) in alias_arcs {
            self.merge(a, b);
        }
        self.arcs
            .retain(|(_, _, pin, pout)| !pin.is_empty() || !pout.is_empty());
        Ok(())
    }

    fn finish(mut self, start: usize) -> Result<BmSpec, CompileError> {
        let mut spec = BmSpec::new(self.name);
        for &(wire, dir) in &self.signals {
            spec.add_signal(self.wires[wire].clone(), dir);
        }
        // Remap states through the union-find, compacting to 0..n and
        // keeping only states that are sources/destinations of arcs (or
        // start), in root order.
        let roots: Vec<usize> = (0..self.num_states).map(|s| self.find(s)).collect();
        let arcs = std::mem::take(&mut self.arcs);
        let mut targets = Vec::with_capacity(arcs.len());
        let mut used = vec![false; self.num_states];
        used[roots[start]] = true;
        for (from, to, _, _) in &arcs {
            let to = match to {
                ToRef::State(s) => *s,
                ToRef::Label(l) => self
                    .label_state(*l)
                    .ok_or(CompileError::UndefinedLabel { label: *l })?,
            };
            used[roots[*from]] = true;
            used[roots[to]] = true;
            targets.push(to);
        }
        let mut compact = vec![usize::MAX; self.num_states];
        for (id, _) in compact.iter_mut().zip(&used).filter(|(_, &u)| u) {
            *id = spec.add_state();
        }
        spec.set_initial(compact[roots[start]]);
        // Drop duplicate arcs, comparing each only with the arcs already
        // emitted from its source state: `latest[f]` is the last arc kept
        // from `f`, and each kept arc links to the one kept before it.
        let mut latest = vec![usize::MAX; spec.num_states()];
        let mut kept: Vec<(usize, Burst, Burst, usize)> = Vec::with_capacity(arcs.len());
        for ((from, to, mut pin, mut pout), target) in arcs.into_iter().zip(targets) {
            if let ToRef::Label(l) = to {
                for &(sig, rising) in &self.label_prefix[l] {
                    if pout.iter().any(|&(s2, _)| s2 == sig) {
                        return Err(CompileError::SignalTwiceInBurst {
                            signal: self.wires[self.signals[sig].0].clone(),
                        });
                    }
                    pout.push((sig, rising));
                }
            }
            let f = compact[roots[from]];
            let t = compact[roots[target]];
            pin.sort_unstable();
            pout.sort_unstable();
            let mut a = latest[f];
            while a != usize::MAX {
                let (kt, ki, ko, prev) = &kept[a];
                if *kt == t && *ki == pin && *ko == pout {
                    break;
                }
                a = *prev;
            }
            if a != usize::MAX {
                continue;
            }
            spec.add_arc(f, t, &pin, &pout);
            kept.push((t, pin, pout, latest[f]));
            latest[f] = kept.len() - 1;
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ChExpr, InterleaveOp::*};

    fn rep(e: ChExpr) -> ChExpr {
        ChExpr::Rep(Box::new(e))
    }

    /// §3.4 sequencer.
    fn sequencer() -> ChExpr {
        rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("p"),
            ChExpr::op(Seq, ChExpr::active("a1"), ChExpr::active("a2")),
        ))
    }

    /// §3.4 call module.
    fn call() -> ChExpr {
        rep(ChExpr::op(
            Mutex,
            ChExpr::op(EncEarly, ChExpr::passive("a1"), ChExpr::active("b")),
            ChExpr::op(EncEarly, ChExpr::passive("a2"), ChExpr::active("b")),
        ))
    }

    /// §3.4 passivator.
    fn passivator() -> ChExpr {
        rep(ChExpr::op(
            EncMiddle,
            ChExpr::passive("a"),
            ChExpr::passive("b"),
        ))
    }

    #[test]
    fn sequencer_matches_fig3() {
        let spec = compile_to_bm("sequencer", &sequencer()).unwrap();
        assert_eq!(spec.num_states(), 6, "{spec}");
        assert_eq!(spec.arcs().len(), 6);
        // First arc: p_r+ / a1_r+.
        let text = spec.to_string();
        assert!(text.contains("p_r+ | a1_r+"), "{text}");
    }

    #[test]
    fn call_matches_fig3() {
        let spec = compile_to_bm("call", &call()).unwrap();
        assert_eq!(spec.num_states(), 7, "{spec}");
        assert_eq!(spec.arcs().len(), 8);
    }

    #[test]
    fn passivator_matches_fig3() {
        let spec = compile_to_bm("passivator", &passivator()).unwrap();
        assert_eq!(spec.num_states(), 2, "{spec}");
        assert_eq!(spec.arcs().len(), 2);
        let text = spec.to_string();
        assert!(text.contains("a_r+ b_r+"), "{text}");
    }

    #[test]
    fn decision_wait_compiles() {
        // §4.1's decision-wait.
        let dw = rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("a1"),
            ChExpr::op(
                Mutex,
                ChExpr::op(EncEarly, ChExpr::passive("i1"), ChExpr::active("o1")),
                ChExpr::op(EncEarly, ChExpr::passive("i2"), ChExpr::active("o2")),
            ),
        ));
        let spec = compile_to_bm("dw", &dw).unwrap();
        // Fig. 4 left: 9 states (0..8).
        assert_eq!(spec.num_states(), 9, "{spec}");
        // Both branch bursts pair the activation with the sampled input.
        let text = spec.to_string();
        assert!(text.contains("a1_r+ i1_r+ | o1_r+"), "{text}");
        assert!(text.contains("a1_r+ i2_r+ | o2_r+"), "{text}");
    }

    #[test]
    fn merged_component_matches_fig4() {
        // §4.1 result: decision-wait with the sequencer inlined over o2.
        let merged = rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("a1"),
            ChExpr::op(
                Mutex,
                ChExpr::op(EncEarly, ChExpr::passive("i1"), ChExpr::active("o1")),
                ChExpr::op(
                    EncEarly,
                    ChExpr::passive("i2"),
                    ChExpr::op(
                        EncEarly,
                        ChExpr::Void,
                        ChExpr::op(Seq, ChExpr::active("c1"), ChExpr::active("c2")),
                    ),
                ),
            ),
        ));
        let spec = compile_to_bm("merged", &merged).unwrap();
        // Fig. 4 right: 11 states (0..10).
        assert_eq!(spec.num_states(), 11, "{spec}");
        let text = spec.to_string();
        assert!(text.contains("a1_r+ i2_r+ | c1_r+"), "{text}");
    }

    #[test]
    fn call_distribution_result_matches_fig5() {
        // §4.2 result: sequencer with both call fragments inlined.
        let merged = rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("a"),
            ChExpr::op(
                Seq,
                ChExpr::op(EncEarly, ChExpr::Void, ChExpr::active("c")),
                ChExpr::op(EncEarly, ChExpr::Void, ChExpr::active("c")),
            ),
        ));
        let spec = compile_to_bm("result", &merged).unwrap();
        // Fig. 5 right: 6 states.
        assert_eq!(spec.num_states(), 6, "{spec}");
        let text = spec.to_string();
        assert!(text.contains("a_r+ | c_r+"), "{text}");
    }

    #[test]
    fn loop_component_first_iteration_differs() {
        // (enc-early (p-to-p passive a) (rep (p-to-p active b))):
        // the Balsa loop. First burst includes a_r+; later iterations don't.
        let lp = ChExpr::op(EncEarly, ChExpr::passive("a"), rep(ChExpr::active("b")));
        let spec = compile_to_bm("loop", &lp).unwrap();
        let text = spec.to_string();
        assert!(text.contains("a_r+ | b_r+"), "{text}");
        // The steady-state loop: b_a- / b_r+ back to the loop head.
        assert!(text.contains("b_a- | b_r+"), "{text}");
        spec.validate().unwrap();
    }

    #[test]
    fn output_without_trigger_rejected() {
        // A bare active channel emits b_r+ with no input trigger.
        let e = rep(ChExpr::active("b"));
        assert!(matches!(
            compile_to_bm("bad", &e),
            Err(CompileError::OutputWithoutTrigger { .. })
        ));
    }

    #[test]
    fn direction_conflict_rejected() {
        // Same channel passive and active in one program.
        let e = rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("x"),
            ChExpr::active("x"),
        ));
        assert!(matches!(
            compile_to_bm("bad", &e),
            Err(CompileError::DirectionConflict { .. })
        ));
    }

    #[test]
    fn mult_ack_passive_compiles() {
        let e = rep(ChExpr::op(
            EncEarly,
            ChExpr::MultAck {
                activity: crate::ast::ChActivity::Passive,
                name: "m".into(),
                n: 2,
            },
            ChExpr::active("b"),
        ));
        let spec = compile_to_bm("fork_like", &e).unwrap();
        spec.validate().unwrap();
        let text = spec.to_string();
        assert!(text.contains("m_a0+ m_a1+"), "{text}");
    }

    #[test]
    fn mux_req_compiles_like_call() {
        // A mux-req with two enc-early arms behaves like a 2-way call.
        let e = rep(ChExpr::MuxReq {
            name: "m".into(),
            arms: vec![
                (EncEarly, ChExpr::active("b")),
                (EncEarly, ChExpr::active("b")),
            ],
        });
        let spec = compile_to_bm("muxreq", &e).unwrap();
        assert_eq!(spec.num_states(), 7, "{spec}");
    }

    #[test]
    fn break_exits_loop() {
        // rep(enc-early p (rep (mutex (enc-early go w) (seq stop break)))):
        // the inner loop serves `go` requests until a full handshake on
        // `stop` breaks out, after which the enclosing handshake on `p`
        // completes.
        let e = rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("p"),
            rep(ChExpr::op(
                Mutex,
                ChExpr::op(EncEarly, ChExpr::passive("go"), ChExpr::active("w")),
                ChExpr::op(Seq, ChExpr::passive("stop"), ChExpr::Break),
            )),
        ));
        let spec = compile_to_bm("breaker", &e).unwrap();
        spec.validate().unwrap();
        let text = spec.to_string();
        // After the stop handshake the machine must produce p_a+ (the
        // post-loop continuation).
        assert!(text.contains("p_a+"), "{text}");
        // The go path must loop: serving w repeatedly.
        assert!(text.contains("go_r+"), "{text}");
    }
}
