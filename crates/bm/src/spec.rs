//! Burst-Mode machine specifications.
//!
//! A Burst-Mode (BM) specification [Nowick 1993] is a Mealy-style state
//! graph whose arcs are labelled with an *input burst* (a set of input
//! transitions that may arrive in any order) followed by an *output burst*.
//! Once the complete input burst has arrived the machine fires the output
//! burst and moves to the next state.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;

/// Direction of a specification signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalDir {
    /// Driven by the environment.
    Input,
    /// Driven by the machine.
    Output,
}

/// A signal of the specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signal {
    /// Wire name, e.g. `a_r`.
    pub name: String,
    /// Input or output.
    pub dir: SignalDir,
}

/// A single signal transition (`name+` or `name-`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Index into the spec's signal table.
    pub signal: usize,
    /// `true` for a rising transition.
    pub rising: bool,
}

/// An arc of the specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arc {
    /// Source state.
    pub from: usize,
    /// Destination state.
    pub to: usize,
    /// The input burst (non-empty for a well-formed machine).
    pub inputs: BTreeSet<Edge>,
    /// The output burst (may be empty).
    pub outputs: BTreeSet<Edge>,
}

/// Validation failures for a BM specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmError {
    /// An arc has an empty input burst.
    EmptyInputBurst {
        /// Index of the offending arc.
        arc: usize,
    },
    /// A burst contains a non-input signal in the input position or vice
    /// versa.
    WrongDirection {
        /// Index of the offending arc.
        arc: usize,
        /// The offending signal name.
        signal: String,
    },
    /// From one state, one arc's input burst is a subset of another's
    /// (violates the maximal set property).
    MaximalSetViolation {
        /// The common source state.
        state: usize,
        /// First arc index.
        arc_a: usize,
        /// Second arc index.
        arc_b: usize,
    },
    /// A state was entered with two different signal-value vectors.
    InconsistentEntry {
        /// The state.
        state: usize,
    },
    /// A transition edge does not toggle the signal (e.g. a rising edge on
    /// a signal already at 1).
    PolarityError {
        /// Index of the offending arc.
        arc: usize,
        /// The offending signal name.
        signal: String,
    },
    /// A state is unreachable from the initial state.
    Unreachable {
        /// The state.
        state: usize,
    },
    /// The specification has more than 64 signals.
    TooManySignals,
}

impl fmt::Display for BmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmError::EmptyInputBurst { arc } => write!(f, "arc {arc} has an empty input burst"),
            BmError::WrongDirection { arc, signal } => {
                write!(f, "arc {arc}: signal {signal} appears in the wrong burst")
            }
            BmError::MaximalSetViolation {
                state,
                arc_a,
                arc_b,
            } => write!(
                f,
                "state {state}: input burst of arc {arc_a} is a subset of arc {arc_b}'s"
            ),
            BmError::InconsistentEntry { state } => {
                write!(f, "state {state} entered with inconsistent signal values")
            }
            BmError::PolarityError { arc, signal } => {
                write!(
                    f,
                    "arc {arc}: transition on {signal} does not toggle its value"
                )
            }
            BmError::Unreachable { state } => write!(f, "state {state} is unreachable"),
            BmError::TooManySignals => write!(f, "more than 64 signals"),
        }
    }
}

impl std::error::Error for BmError {}

/// Entry conditions of each state computed during validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryVectors {
    /// `entry_in[s]` is the input-signal value vector on entering state `s`
    /// (bit `i` = value of input signal with *input index* `i`).
    pub entry_in: Vec<u64>,
    /// `entry_out[s]` likewise for outputs (bit `i` = output index `i`).
    pub entry_out: Vec<u64>,
}

/// A Burst-Mode specification.
///
/// # Examples
///
/// Build the two-state passivator of Fig. 3 of the paper:
///
/// ```
/// use bmbe_bm::spec::{BmSpec, SignalDir};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut spec = BmSpec::new("passivator");
/// let ar = spec.add_signal("a_r", SignalDir::Input);
/// let br = spec.add_signal("b_r", SignalDir::Input);
/// let aa = spec.add_signal("a_a", SignalDir::Output);
/// let ba = spec.add_signal("b_a", SignalDir::Output);
/// let s0 = spec.add_state();
/// let s1 = spec.add_state();
/// spec.add_arc(s0, s1, &[(ar, true), (br, true)], &[(aa, true), (ba, true)]);
/// spec.add_arc(s1, s0, &[(ar, false), (br, false)], &[(aa, false), (ba, false)]);
/// let entry = spec.validate()?;
/// assert_eq!(entry.entry_in[s0], 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BmSpec {
    name: String,
    signals: Vec<Signal>,
    num_states: usize,
    initial: usize,
    arcs: Vec<Arc>,
}

impl BmSpec {
    /// Creates an empty specification (one initial state, index 0).
    pub fn new(name: impl Into<String>) -> Self {
        BmSpec {
            name: name.into(),
            signals: Vec::new(),
            num_states: 0,
            initial: 0,
            arcs: Vec::new(),
        }
    }

    /// The machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a signal; returns its index.
    pub fn add_signal(&mut self, name: impl Into<String>, dir: SignalDir) -> usize {
        self.signals.push(Signal {
            name: name.into(),
            dir,
        });
        self.signals.len() - 1
    }

    /// Adds a state; returns its index.
    pub fn add_state(&mut self) -> usize {
        self.num_states += 1;
        self.num_states - 1
    }

    /// Sets the initial state (defaults to 0).
    pub fn set_initial(&mut self, s: usize) {
        assert!(s < self.num_states);
        self.initial = s;
    }

    /// Adds an arc; bursts are given as `(signal, rising)` pairs.
    pub fn add_arc(
        &mut self,
        from: usize,
        to: usize,
        inputs: &[(usize, bool)],
        outputs: &[(usize, bool)],
    ) -> usize {
        assert!(from < self.num_states && to < self.num_states);
        let arc = Arc {
            from,
            to,
            inputs: inputs
                .iter()
                .map(|&(signal, rising)| Edge { signal, rising })
                .collect(),
            outputs: outputs
                .iter()
                .map(|&(signal, rising)| Edge { signal, rising })
                .collect(),
        };
        self.arcs.push(arc);
        self.arcs.len() - 1
    }

    /// All signals.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// All arcs.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Indices of the input signals, in signal order.
    pub fn input_signals(&self) -> Vec<usize> {
        (0..self.signals.len())
            .filter(|&i| self.signals[i].dir == SignalDir::Input)
            .collect()
    }

    /// Indices of the output signals, in signal order.
    pub fn output_signals(&self) -> Vec<usize> {
        (0..self.signals.len())
            .filter(|&i| self.signals[i].dir == SignalDir::Output)
            .collect()
    }

    /// Validates the specification and computes the state entry vectors.
    ///
    /// Checks: burst directions, non-empty input bursts, the maximal set
    /// property, polarity (each edge toggles its signal), consistent entry
    /// values, and reachability.
    ///
    /// # Errors
    ///
    /// Returns the first [`BmError`] found.
    pub fn validate(&self) -> Result<EntryVectors, BmError> {
        if self.signals.len() > 64 {
            return Err(BmError::TooManySignals);
        }
        // Position of each signal among the signals of its direction.
        let mut counts = [0usize; 2];
        let position: Vec<usize> = self
            .signals
            .iter()
            .map(|s| {
                let n = &mut counts[usize::from(s.dir == SignalDir::Output)];
                *n += 1;
                *n - 1
            })
            .collect();
        // Direction / emptiness checks.
        for (ai, arc) in self.arcs.iter().enumerate() {
            if arc.inputs.is_empty() {
                return Err(BmError::EmptyInputBurst { arc: ai });
            }
            for e in &arc.inputs {
                if self.signals[e.signal].dir != SignalDir::Input {
                    return Err(BmError::WrongDirection {
                        arc: ai,
                        signal: self.signals[e.signal].name.clone(),
                    });
                }
            }
            for e in &arc.outputs {
                if self.signals[e.signal].dir != SignalDir::Output {
                    return Err(BmError::WrongDirection {
                        arc: ai,
                        signal: self.signals[e.signal].name.clone(),
                    });
                }
            }
        }
        // Arcs by source state, in arc order: those of state `s` are
        // `by_state[first[s]..first[s + 1]]`.
        let mut first = vec![0usize; self.num_states + 1];
        for arc in &self.arcs {
            first[arc.from + 1] += 1;
        }
        for s in 0..self.num_states {
            first[s + 1] += first[s];
        }
        let mut by_state = vec![0usize; self.arcs.len()];
        let mut fill = first.clone();
        for (ai, arc) in self.arcs.iter().enumerate() {
            by_state[fill[arc.from]] = ai;
            fill[arc.from] += 1;
        }
        let arcs_from = |s: usize| &by_state[first[s]..first[s + 1]];
        // Maximal set property per state, states in index order so the same
        // violation is reported on every call.
        for state in 0..self.num_states {
            let arcs = arcs_from(state);
            for (i, &a) in arcs.iter().enumerate() {
                for &b in &arcs[i + 1..] {
                    let ia = &self.arcs[a].inputs;
                    let ib = &self.arcs[b].inputs;
                    if ia.is_subset(ib) {
                        return Err(BmError::MaximalSetViolation {
                            state,
                            arc_a: a,
                            arc_b: b,
                        });
                    }
                    if ib.is_subset(ia) {
                        return Err(BmError::MaximalSetViolation {
                            state,
                            arc_a: b,
                            arc_b: a,
                        });
                    }
                }
            }
        }
        // Entry-vector propagation (BFS from initial, starting all-zero).
        let mut entry_in: Vec<Option<u64>> = vec![None; self.num_states];
        let mut entry_out: Vec<Option<u64>> = vec![None; self.num_states];
        entry_in[self.initial] = Some(0);
        entry_out[self.initial] = Some(0);
        let mut queue = VecDeque::from([self.initial]);
        let mut seen = vec![false; self.num_states];
        seen[self.initial] = true;
        while let Some(s) = queue.pop_front() {
            let in_vec = entry_in[s].expect("queued states have vectors");
            let out_vec = entry_out[s].expect("queued states have vectors");
            for &ai in arcs_from(s) {
                let arc = &self.arcs[ai];
                let mut new_in = in_vec;
                for e in &arc.inputs {
                    let bit = 1u64 << position[e.signal];
                    let cur = new_in & bit != 0;
                    if cur == e.rising {
                        return Err(BmError::PolarityError {
                            arc: ai,
                            signal: self.signals[e.signal].name.clone(),
                        });
                    }
                    new_in ^= bit;
                }
                let mut new_out = out_vec;
                for e in &arc.outputs {
                    let bit = 1u64 << position[e.signal];
                    let cur = new_out & bit != 0;
                    if cur == e.rising {
                        return Err(BmError::PolarityError {
                            arc: ai,
                            signal: self.signals[e.signal].name.clone(),
                        });
                    }
                    new_out ^= bit;
                }
                match (entry_in[arc.to], entry_out[arc.to]) {
                    (None, None) => {
                        entry_in[arc.to] = Some(new_in);
                        entry_out[arc.to] = Some(new_out);
                    }
                    (Some(i2), Some(o2)) => {
                        if i2 != new_in || o2 != new_out {
                            return Err(BmError::InconsistentEntry { state: arc.to });
                        }
                    }
                    _ => unreachable!("entry vectors set together"),
                }
                if !seen[arc.to] {
                    seen[arc.to] = true;
                    queue.push_back(arc.to);
                }
            }
        }
        if let Some(state) = (0..self.num_states).find(|&s| !seen[s]) {
            return Err(BmError::Unreachable { state });
        }
        Ok(EntryVectors {
            entry_in: entry_in
                .into_iter()
                .map(|v| v.expect("all reachable"))
                .collect(),
            entry_out: entry_out
                .into_iter()
                .map(|v| v.expect("all reachable"))
                .collect(),
        })
    }

    /// Map from signal index to position among the inputs.
    pub fn input_index_map(&self) -> HashMap<usize, usize> {
        self.input_signals()
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect()
    }

    /// Map from signal index to position among the outputs.
    pub fn output_index_map(&self) -> HashMap<usize, usize> {
        self.output_signals()
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect()
    }

    /// Renders a burst like `a_r+ b_r+`.
    pub fn burst_string(&self, burst: &BTreeSet<Edge>) -> String {
        burst
            .iter()
            .map(|e| {
                format!(
                    "{}{}",
                    self.signals[e.signal].name,
                    if e.rising { "+" } else { "-" }
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl fmt::Display for BmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; Burst-mode machine {}", self.name)?;
        writeln!(
            f,
            "; inputs: {}",
            self.input_signals()
                .iter()
                .map(|&s| self.signals[s].name.clone())
                .collect::<Vec<_>>()
                .join(" ")
        )?;
        writeln!(
            f,
            "; outputs: {}",
            self.output_signals()
                .iter()
                .map(|&s| self.signals[s].name.clone())
                .collect::<Vec<_>>()
                .join(" ")
        )?;
        writeln!(f, "; {} states, initial {}", self.num_states, self.initial)?;
        for arc in &self.arcs {
            writeln!(
                f,
                "{} {} {} | {}",
                arc.from,
                arc.to,
                self.burst_string(&arc.inputs),
                self.burst_string(&arc.outputs)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequencer BM spec of Fig. 3 (6 states).
    pub fn sequencer() -> BmSpec {
        let mut s = BmSpec::new("sequencer");
        let pr = s.add_signal("p_r", SignalDir::Input);
        let a1a = s.add_signal("a1_a", SignalDir::Input);
        let a2a = s.add_signal("a2_a", SignalDir::Input);
        let pa = s.add_signal("p_a", SignalDir::Output);
        let a1r = s.add_signal("a1_r", SignalDir::Output);
        let a2r = s.add_signal("a2_r", SignalDir::Output);
        for _ in 0..6 {
            s.add_state();
        }
        s.add_arc(0, 1, &[(pr, true)], &[(a1r, true)]);
        s.add_arc(1, 2, &[(a1a, true)], &[(a1r, false)]);
        s.add_arc(2, 3, &[(a1a, false)], &[(a2r, true)]);
        s.add_arc(3, 4, &[(a2a, true)], &[(a2r, false)]);
        s.add_arc(4, 5, &[(a2a, false)], &[(pa, true)]);
        s.add_arc(5, 0, &[(pr, false)], &[(pa, false)]);
        s
    }

    #[test]
    fn sequencer_validates() {
        let s = sequencer();
        let entry = s.validate().unwrap();
        assert_eq!(entry.entry_in[0], 0);
        assert_eq!(entry.entry_out[0], 0);
        // After p_r+ / a1_r+: input vector has p_r=1; outputs a1_r=1.
        assert_eq!(entry.entry_in[1], 0b001);
        assert_eq!(entry.entry_out[1], 0b010);
    }

    #[test]
    fn empty_input_burst_rejected() {
        let mut s = BmSpec::new("bad");
        let o = s.add_signal("o", SignalDir::Output);
        let s0 = s.add_state();
        s.add_arc(s0, s0, &[], &[(o, true)]);
        assert!(matches!(s.validate(), Err(BmError::EmptyInputBurst { .. })));
    }

    #[test]
    fn wrong_direction_rejected() {
        let mut s = BmSpec::new("bad");
        let i = s.add_signal("i", SignalDir::Input);
        let s0 = s.add_state();
        let s1 = s.add_state();
        s.add_arc(s0, s1, &[(i, true)], &[(i, false)]);
        assert!(matches!(s.validate(), Err(BmError::WrongDirection { .. })));
    }

    #[test]
    fn maximal_set_property_enforced() {
        let mut s = BmSpec::new("bad");
        let a = s.add_signal("a", SignalDir::Input);
        let b = s.add_signal("b", SignalDir::Input);
        let s0 = s.add_state();
        let s1 = s.add_state();
        let s2 = s.add_state();
        // {a+} is a subset of {a+, b+}: the machine could not distinguish.
        s.add_arc(s0, s1, &[(a, true)], &[]);
        s.add_arc(s0, s2, &[(a, true), (b, true)], &[]);
        assert!(matches!(
            s.validate(),
            Err(BmError::MaximalSetViolation { .. })
        ));
    }

    #[test]
    fn maximal_set_violation_is_reported_at_the_first_state() {
        // Violations at states 0 and 1: every call names state 0.
        let mut s = BmSpec::new("bad");
        let a = s.add_signal("a", SignalDir::Input);
        let b = s.add_signal("b", SignalDir::Input);
        for _ in 0..3 {
            s.add_state();
        }
        s.add_arc(1, 2, &[(a, true)], &[]);
        s.add_arc(1, 2, &[(a, true), (b, true)], &[]);
        s.add_arc(0, 1, &[(a, true)], &[]);
        s.add_arc(0, 2, &[(a, true), (b, true)], &[]);
        for _ in 0..64 {
            assert_eq!(
                s.validate(),
                Err(BmError::MaximalSetViolation {
                    state: 0,
                    arc_a: 2,
                    arc_b: 3
                })
            );
        }
    }

    #[test]
    fn distinct_bursts_allowed() {
        let mut s = BmSpec::new("choice");
        let a = s.add_signal("a", SignalDir::Input);
        let b = s.add_signal("b", SignalDir::Input);
        let x = s.add_signal("x", SignalDir::Output);
        let s0 = s.add_state();
        let s1 = s.add_state();
        let s2 = s.add_state();
        s.add_arc(s0, s1, &[(a, true)], &[(x, true)]);
        s.add_arc(s0, s2, &[(b, true)], &[(x, true)]);
        s.add_arc(s1, s0, &[(a, false)], &[(x, false)]);
        s.add_arc(s2, s0, &[(b, false)], &[(x, false)]);
        s.validate().unwrap();
    }

    #[test]
    fn polarity_error_detected() {
        let mut s = BmSpec::new("bad");
        let a = s.add_signal("a", SignalDir::Input);
        let s0 = s.add_state();
        let s1 = s.add_state();
        let s2 = s.add_state();
        s.add_arc(s0, s1, &[(a, true)], &[]);
        s.add_arc(s1, s2, &[(a, true)], &[]); // a is already high
        assert!(matches!(s.validate(), Err(BmError::PolarityError { .. })));
    }

    #[test]
    fn inconsistent_entry_detected() {
        let mut s = BmSpec::new("bad");
        let a = s.add_signal("a", SignalDir::Input);
        let b = s.add_signal("b", SignalDir::Input);
        let s0 = s.add_state();
        let s1 = s.add_state();
        let s2 = s.add_state();
        // Two paths into s2 with different values of b.
        s.add_arc(s0, s1, &[(b, true)], &[]);
        s.add_arc(s0, s2, &[(a, true)], &[]);
        s.add_arc(s1, s2, &[(a, true)], &[]);
        assert!(matches!(
            s.validate(),
            Err(BmError::InconsistentEntry { .. })
        ));
    }

    #[test]
    fn unreachable_state_detected() {
        let mut s = BmSpec::new("bad");
        let a = s.add_signal("a", SignalDir::Input);
        let s0 = s.add_state();
        let s1 = s.add_state();
        let _orphan = s.add_state();
        s.add_arc(s0, s1, &[(a, true)], &[]);
        s.add_arc(s1, s0, &[(a, false)], &[]);
        assert!(matches!(s.validate(), Err(BmError::Unreachable { .. })));
    }

    #[test]
    fn display_contains_bursts() {
        let s = sequencer();
        let text = s.to_string();
        assert!(text.contains("p_r+"));
        assert!(text.contains("a1_r+"));
        assert!(text.contains("6 states"));
    }
}
