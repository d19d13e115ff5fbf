//! Receptive trace structures as finite automata.
//!
//! Follows Dill's trace theory [Dill 1989]: a module is a prefix-closed,
//! receptive trace structure over an alphabet partitioned into inputs and
//! outputs. We represent the structure as a deterministic automaton with an
//! implicit failure state: an input symbol with no defined transition leads
//! to failure (the module "chokes"); an output symbol with no defined
//! transition simply cannot be produced.
//!
//! Storage is integer-indexed throughout. A structure keeps one dense
//! row-major transition table (a row of targets per state, one column per
//! symbol, a sentinel where undefined). The on-the-fly searches map each
//! side's symbols to composite indices once per search and intern product
//! states as packed `u64` pairs; the lazy hidden composition keeps its
//! subset states as sorted pair vectors with a dense
//! (subset × visible symbol) memo. Those two tables hash with a
//! multiply-rotate hasher over machine words; symbol names, which come
//! from outside the program, keep the standard library's hasher.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Transition-table entry of an undefined transition.
const NO_EDGE: u32 = u32::MAX;

/// Direction of a symbol relative to the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// The environment produces this symbol.
    Input,
    /// The module produces this symbol.
    Output,
}

impl Dir {
    /// The mirrored direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Input => Dir::Output,
            Dir::Output => Dir::Input,
        }
    }
}

/// Errors raised by trace-structure operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Both composed modules drive the same symbol.
    OutputConflict {
        /// The doubly-driven symbol.
        symbol: String,
    },
    /// Tried to hide a symbol that is not an output.
    HideNonOutput {
        /// The offending symbol.
        symbol: String,
    },
    /// Conformance requires identical alphabets (names and directions).
    AlphabetMismatch {
        /// Description of the difference.
        detail: String,
    },
    /// A referenced symbol does not exist.
    UnknownSymbol {
        /// The name.
        symbol: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::OutputConflict { symbol } => {
                write!(f, "symbol {symbol} is an output of both composed modules")
            }
            TraceError::HideNonOutput { symbol } => {
                write!(f, "cannot hide non-output symbol {symbol}")
            }
            TraceError::AlphabetMismatch { detail } => write!(f, "alphabet mismatch: {detail}"),
            TraceError::UnknownSymbol { symbol } => write!(f, "unknown symbol {symbol}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A multiply-rotate hasher over machine words, for the integer keys the
/// searches build themselves (packed state pairs, sorted subset members):
/// one add and one multiply per word, and a final rotation that brings the
/// well-mixed high bits down to the bucket index. It offers no defence
/// against chosen collisions, so keys from outside the program keep the
/// standard library's hasher.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    fn word(&mut self, w: u64) {
        self.0 = self.0.wrapping_add(w).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`WordHasher`]s.
type WordHash = BuildHasherDefault<WordHasher>;

/// Packs a product state pair into one search key.
fn pack(a: usize, b: usize) -> u64 {
    (a as u64) << 32 | b as u64
}

/// The pair [`pack`] packed.
fn unpack(p: u64) -> (usize, usize) {
    ((p >> 32) as usize, (p & 0xffff_ffff) as usize)
}

/// A receptive trace structure.
///
/// # Examples
///
/// ```
/// use bmbe_trace::automaton::{Dir, TraceStructure};
///
/// // A wire: receives `a`, then emits `b`, repeatedly.
/// let mut w = TraceStructure::new();
/// let a = w.add_symbol("a", Dir::Input);
/// let b = w.add_symbol("b", Dir::Output);
/// let s0 = w.add_state();
/// let s1 = w.add_state();
/// w.set_initial(s0);
/// w.add_transition(s0, a, s1);
/// w.add_transition(s1, b, s0);
/// assert!(w.accepts(&["a", "b", "a"]).unwrap());
/// assert!(!w.accepts(&["b"]).unwrap()); // cannot produce b before a
/// ```
#[derive(Debug, Clone)]
pub struct TraceStructure {
    symbols: Vec<(String, Dir)>,
    by_name: HashMap<String, usize>,
    num_states: usize,
    initial: usize,
    /// Row-major transition table: state `s`'s target on symbol `x` is
    /// `delta[s * symbols.len() + x]`, [`NO_EDGE`] where undefined. Adding
    /// a symbol once states exist re-strides every row, so builders add
    /// their symbols first.
    delta: Vec<u32>,
    /// Defined entries of `delta`.
    transitions: usize,
}

impl Default for TraceStructure {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceStructure {
    /// Creates an empty structure with a single initial state.
    pub fn new() -> Self {
        TraceStructure {
            symbols: Vec::new(),
            by_name: HashMap::new(),
            num_states: 1,
            initial: 0,
            delta: Vec::new(),
            transitions: 0,
        }
    }

    /// Adds (or finds) a symbol; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the symbol exists with a different direction.
    pub fn add_symbol(&mut self, name: impl Into<String>, dir: Dir) -> usize {
        let name = name.into();
        if let Some(&i) = self.by_name.get(&name) {
            assert_eq!(
                self.symbols[i].1, dir,
                "symbol {name} re-added with different direction"
            );
            return i;
        }
        let i = self.symbols.len();
        self.by_name.insert(name.clone(), i);
        self.symbols.push((name, dir));
        // Re-stride in place, last row first: each row of `i` entries
        // moves to its new start and gains an undefined entry for the new
        // symbol.
        let width = i + 1;
        self.delta.resize(self.num_states * width, NO_EDGE);
        for s in (0..self.num_states).rev() {
            self.delta.copy_within(s * i..s * i + i, s * width);
            self.delta[s * width + i] = NO_EDGE;
        }
        i
    }

    /// Adds a fresh state; returns its index.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` states, the transition table's limit.
    pub fn add_state(&mut self) -> usize {
        assert!(
            self.num_states < NO_EDGE as usize,
            "trace structure state limit"
        );
        self.delta
            .resize(self.delta.len() + self.symbols.len(), NO_EDGE);
        self.num_states += 1;
        self.num_states - 1
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, s: usize) {
        assert!(s < self.num_states);
        self.initial = s;
    }

    /// Defines the transition `from --symbol--> to`, replacing any earlier
    /// transition of `from` on `symbol`.
    pub fn add_transition(&mut self, from: usize, symbol: usize, to: usize) {
        assert!(from < self.num_states && to < self.num_states && symbol < self.symbols.len());
        let slot = &mut self.delta[from * self.symbols.len() + symbol];
        if *slot == NO_EDGE {
            self.transitions += 1;
        }
        *slot = to as u32;
    }

    /// The alphabet as `(name, direction)` pairs.
    pub fn symbols(&self) -> &[(String, Dir)] {
        &self.symbols
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// Looks up a symbol index by name.
    pub fn symbol_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Number of defined transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions
    }

    /// The target of `state`'s transition on `symbol`, if defined (`None`
    /// also for a state or symbol out of range).
    pub fn transition(&self, state: usize, symbol: usize) -> Option<usize> {
        if state < self.num_states && symbol < self.symbols.len() {
            self.edge(state, symbol)
        } else {
            None
        }
    }

    /// Copies every outgoing transition of `from_state` onto `onto`
    /// (used to alias a goto source with its label state when building
    /// automata from linear expansions). Existing transitions of `onto`
    /// are kept.
    pub fn copy_outgoing(&mut self, from_state: usize, onto: usize) {
        assert!(from_state < self.num_states && onto < self.num_states);
        let n = self.symbols.len();
        for sym in 0..n {
            let t = self.delta[from_state * n + sym];
            let slot = &mut self.delta[onto * n + sym];
            if t != NO_EDGE && *slot == NO_EDGE {
                *slot = t;
                self.transitions += 1;
            }
        }
    }

    /// The transition table entry of `state` on `symbol`.
    fn edge(&self, state: usize, symbol: usize) -> Option<usize> {
        let t = self.delta[state * self.symbols.len() + symbol];
        (t != NO_EDGE).then_some(t as usize)
    }

    /// Whether the symbol can occur at the state: inputs always can
    /// (receptiveness), outputs only when defined.
    fn possible(&self, state: usize, symbol: usize) -> bool {
        match self.symbols[symbol].1 {
            Dir::Input => true,
            Dir::Output => self.edge(state, symbol).is_some(),
        }
    }

    /// Whether a trace (by symbol names) is a success trace of the module.
    ///
    /// A trace that chokes on an input is a failure; a trace containing an
    /// output the module cannot produce is simply not a trace (returns
    /// `false` as well).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownSymbol`] for names outside the alphabet.
    pub fn accepts(&self, trace: &[&str]) -> Result<bool, TraceError> {
        let mut state = self.initial;
        for name in trace {
            let sym = self
                .symbol_index(name)
                .ok_or_else(|| TraceError::UnknownSymbol {
                    symbol: (*name).to_string(),
                })?;
            if !self.possible(state, sym) {
                return Ok(false);
            }
            match self.edge(state, sym) {
                Some(s) => state = s,
                None => return Ok(false),
            }
        }
        Ok(true)
    }

    /// The mirror: inputs and outputs exchanged.
    pub fn mirror(&self) -> TraceStructure {
        let mut m = self.clone();
        for (_, dir) in &mut m.symbols {
            *dir = dir.flip();
        }
        m
    }

    /// Dill composition of two modules.
    ///
    /// Shared symbols synchronize; a symbol driven by one module and
    /// received by the other becomes an output of the composite. A failure
    /// occurs when a produced or environment-supplied symbol chokes either
    /// receiver.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutputConflict`] when both modules drive the
    /// same symbol.
    pub fn compose(&self, other: &TraceStructure) -> Result<Composite, TraceError> {
        let (lhs, rhs) = (ConcreteView::of(self), ConcreteView::of(other));
        let syms = merge(&lhs, &rhs)?;
        // Explore the product.
        let mut result = TraceStructure::new();
        for c in &syms {
            result.add_symbol(c.name(&lhs, &rhs), c.dir);
        }
        let mut failure_reachable = false;
        let mut index: HashMap<(usize, usize), usize> = HashMap::new();
        index.insert((self.initial, other.initial), 0);
        let mut queue = vec![(self.initial, other.initial)];
        while let Some((sa, sb)) = queue.pop() {
            let from = index[&(sa, sb)];
            for (sym, c) in syms.iter().enumerate() {
                // Can this symbol occur here?
                let producible = match c.dir {
                    Dir::Input => true,
                    Dir::Output => {
                        // Some party must be able to output it.
                        let a_out = c.a().is_some_and(|s| c.a_out && self.possible(sa, s));
                        let b_out = c.b().is_some_and(|s| c.b_out && other.possible(sb, s));
                        a_out || b_out
                    }
                };
                if !producible {
                    continue;
                }
                // Both participants step; a choked receiver is a failure.
                let na = c.a().map_or(Some(sa), |s| self.edge(sa, s));
                let nb = c.b().map_or(Some(sb), |s| other.edge(sb, s));
                match (na, nb) {
                    (Some(na), Some(nb)) => {
                        let next = *index.entry((na, nb)).or_insert_with(|| {
                            queue.push((na, nb));
                            result.add_state()
                        });
                        result.add_transition(from, sym, next);
                    }
                    _ => {
                        // A choke. For a composite *input* the transition is
                        // simply left undefined: receptive semantics makes
                        // that an implicit failure, preserved for later
                        // compositions. A choke on a *module-produced*
                        // symbol is a failure no environment choice at this
                        // step can undo; record it in the flag (this is the
                        // exact condition the mirror-based conformance check
                        // needs, where every symbol is an output).
                        if c.dir == Dir::Output {
                            failure_reachable = true;
                        }
                    }
                }
            }
        }
        Ok(Composite {
            structure: result,
            failure_reachable,
        })
    }

    /// Hides output symbols, determinizing the result.
    ///
    /// Hidden symbols become internal moves (ε). The subset construction
    /// preserves failures: a subset any member of which can fail, fails.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::HideNonOutput`] if a hidden symbol is an input,
    /// or [`TraceError::UnknownSymbol`] if it does not exist.
    pub fn hide(&self, hidden: &[&str]) -> Result<TraceStructure, TraceError> {
        let mut hide_set = BTreeSet::new();
        for name in hidden {
            let i = self
                .symbol_index(name)
                .ok_or_else(|| TraceError::UnknownSymbol {
                    symbol: (*name).to_string(),
                })?;
            if self.symbols[i].1 != Dir::Output {
                return Err(TraceError::HideNonOutput {
                    symbol: (*name).to_string(),
                });
            }
            hide_set.insert(i);
        }
        // ε-closure over hidden output transitions.
        let closure = |seed: BTreeSet<usize>| -> BTreeSet<usize> {
            let mut set = seed;
            let mut stack: Vec<usize> = set.iter().copied().collect();
            while let Some(s) = stack.pop() {
                for &h in &hide_set {
                    if let Some(t) = self.edge(s, h) {
                        if set.insert(t) {
                            stack.push(t);
                        }
                    }
                }
            }
            set
        };
        let visible: Vec<usize> = (0..self.symbols.len())
            .filter(|s| !hide_set.contains(s))
            .collect();
        let mut out = TraceStructure::new();
        let mut sym_map: HashMap<usize, usize> = HashMap::new();
        for &s in &visible {
            let (name, dir) = &self.symbols[s];
            sym_map.insert(s, out.add_symbol(name.clone(), *dir));
        }
        let start = closure(BTreeSet::from([self.initial]));
        let mut index: HashMap<BTreeSet<usize>, usize> = HashMap::new();
        index.insert(start.clone(), 0);
        let mut queue = vec![start];
        while let Some(set) = queue.pop() {
            let from = index[&set];
            for &sym in &visible {
                let mut next = BTreeSet::new();
                let mut fails = false;
                let mut any_possible = false;
                for &s in &set {
                    if self.possible(s, sym) {
                        any_possible = true;
                        match self.edge(s, sym) {
                            Some(t) => {
                                next.insert(t);
                            }
                            None => fails = true,
                        }
                    }
                }
                if !any_possible {
                    continue;
                }
                // A failing member of the subset leaves the transition
                // partial; with `next` empty the symbol edge is dropped and
                // receptive semantics re-derives the failure for inputs.
                let _ = fails;
                if next.is_empty() {
                    continue;
                }
                let next = closure(next);
                let to = *index.entry(next.clone()).or_insert_with(|| {
                    queue.push(next.clone());
                    out.add_state()
                });
                out.add_transition(from, sym_map[&sym], to);
            }
        }
        Ok(out)
    }

    /// Errs with [`TraceError::AlphabetMismatch`] unless `other` has the
    /// same `(name, direction)` pairs. Names are unique on both sides, so
    /// that is equal sizes plus every symbol of `other` found here with
    /// its direction.
    fn check_alphabet(&self, other: &TraceStructure) -> Result<(), TraceError> {
        let same = self.symbols.len() == other.symbols.len()
            && other.symbols.iter().all(|(name, dir)| {
                self.symbol_index(name)
                    .is_some_and(|i| self.symbols[i].1 == *dir)
            });
        if same {
            Ok(())
        } else {
            Err(alphabet_mismatch(
                self.symbols.clone(),
                other.symbols.clone(),
            ))
        }
    }

    /// Conformance check `self ≤ spec` (Dill): the implementation can
    /// replace the specification in every environment. Decided by composing
    /// `self` with `mirror(spec)` and searching for a reachable failure.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::AlphabetMismatch`] if alphabets differ.
    pub fn conforms_to(&self, spec: &TraceStructure) -> Result<bool, TraceError> {
        self.check_alphabet(spec)?;
        let composite = self.compose(&spec.mirror())?;
        Ok(!composite.failure_reachable)
    }

    /// Two-way conformance (trace equivalence for our purposes).
    ///
    /// # Errors
    ///
    /// Propagates alphabet mismatches.
    pub fn equivalent_to(&self, other: &TraceStructure) -> Result<bool, TraceError> {
        Ok(self.conforms_to(other)? && other.conforms_to(self)?)
    }

    /// On-the-fly conformance check `self ≤ spec`.
    ///
    /// Decides the same question as [`conforms_to`](Self::conforms_to) but
    /// explores the product with `mirror(spec)` lazily: state pairs are
    /// hash-interned as they are reached, no composite transitions are
    /// stored, and the search stops at the first reachable failure — with a
    /// shortest witness trace for diagnostics. When the answer is "yes" the
    /// search visits exactly the composite's reachable states; when "no" it
    /// usually visits far fewer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::AlphabetMismatch`] if alphabets differ.
    pub fn conforms_to_otf(&self, spec: &TraceStructure) -> Result<OtfOutcome, TraceError> {
        self.check_alphabet(spec)?;
        let mut lhs = ConcreteView::of(self);
        let mut rhs = ConcreteView {
            t: spec,
            flip: true,
        };
        search_failure(&mut lhs, &mut rhs)
    }

    /// On-the-fly failure-reachability of the composition `self ∥ other`.
    ///
    /// Answers the same question as `compose(other)?.failure_reachable`
    /// without materializing the composite automaton: early exit on the
    /// first failure, with a shortest witness trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutputConflict`] when both modules drive the
    /// same symbol.
    pub fn failure_search(&self, other: &TraceStructure) -> Result<OtfOutcome, TraceError> {
        let mut lhs = ConcreteView::of(self);
        let mut rhs = ConcreteView::of(other);
        search_failure(&mut lhs, &mut rhs)
    }
}

/// The [`TraceError::AlphabetMismatch`] of two alphabets, each listed
/// sorted.
fn alphabet_mismatch(mut a: Vec<(String, Dir)>, mut b: Vec<(String, Dir)>) -> TraceError {
    a.sort();
    b.sort();
    TraceError::AlphabetMismatch {
        detail: format!("{a:?} vs {b:?}"),
    }
}

/// Result of an on-the-fly failure-reachability search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtfOutcome {
    /// Whether no failure is reachable: for a conformance search the
    /// implementation conforms, for a composition search the composition is
    /// safe.
    pub ok: bool,
    /// Distinct product states interned before the search stopped. With
    /// `ok` this equals the reachable composite state count; on early exit
    /// it is usually much smaller.
    pub states_visited: usize,
    /// Largest number of interned-but-unexpanded states the breadth-first
    /// search held at once (its memory high-water mark, reported through
    /// the observability metrics).
    pub peak_frontier: usize,
    /// A shortest trace driving the product into a failure, when `ok` is
    /// `false`.
    pub counterexample: Option<Vec<String>>,
}

/// Which side of a composition a composite symbol comes from, with its
/// index there.
#[derive(Debug, Clone, Copy)]
enum Sides {
    A(usize),
    B(usize),
    Both(usize, usize),
}

/// One symbol of a composite alphabet under Dill composition rules:
/// shared symbols synchronize, an output met by an input stays an output
/// of the composite.
#[derive(Debug, Clone, Copy)]
struct CompSym {
    sides: Sides,
    /// The composite direction: an output if either side drives it.
    dir: Dir,
    /// Whether side `a` drives it (has it as an effective output).
    a_out: bool,
    /// Whether side `b` drives it.
    b_out: bool,
}

impl CompSym {
    /// The symbol's index on side `a`, if `a` has it.
    fn a(&self) -> Option<usize> {
        match self.sides {
            Sides::A(i) | Sides::Both(i, _) => Some(i),
            Sides::B(_) => None,
        }
    }

    /// The symbol's index on side `b`, if `b` has it.
    fn b(&self) -> Option<usize> {
        match self.sides {
            Sides::B(j) | Sides::Both(_, j) => Some(j),
            Sides::A(_) => None,
        }
    }

    /// The symbol's name, from whichever side has it.
    fn name<'s>(&self, a: &'s impl ProductSide, b: &'s impl ProductSide) -> &'s str {
        match self.sides {
            Sides::A(i) | Sides::Both(i, _) => a.name(i),
            Sides::B(j) => b.name(j),
        }
    }
}

/// Merges two alphabets under Dill composition rules: `a`'s symbols in
/// order, then `b`'s symbols `a` lacks, in order; two outputs conflict
/// (the first conflict in `b`'s order is reported). Symbol names are
/// matched through `a`'s name index, nothing is cloned.
fn merge<A: ProductSide, B: ProductSide>(a: &A, b: &B) -> Result<Vec<CompSym>, TraceError> {
    let mut syms: Vec<CompSym> = (0..a.symbol_count())
        .map(|i| {
            let dir = a.dir(i);
            CompSym {
                sides: Sides::A(i),
                dir,
                a_out: dir == Dir::Output,
                b_out: false,
            }
        })
        .collect();
    for j in 0..b.symbol_count() {
        let (name, dir) = (b.name(j), b.dir(j));
        let b_out = dir == Dir::Output;
        match a.index_of(name) {
            Some(i) => {
                let c = &mut syms[i];
                if c.a_out && b_out {
                    return Err(TraceError::OutputConflict {
                        symbol: name.to_string(),
                    });
                }
                c.sides = Sides::Both(i, j);
                c.b_out = b_out;
                if b_out {
                    c.dir = Dir::Output;
                }
            }
            None => syms.push(CompSym {
                sides: Sides::B(j),
                dir,
                a_out: false,
                b_out,
            }),
        }
    }
    Ok(syms)
}

/// One side of a lazily explored product: a concrete structure (possibly
/// viewed through a mirror) or a lazily determinized hidden composition.
/// States are side-local ids below `u32::MAX`; `step` returns `None` on a
/// choke.
trait ProductSide {
    /// Number of symbols in the side's alphabet.
    fn symbol_count(&self) -> usize;
    /// A symbol's name.
    fn name(&self, sym: usize) -> &str;
    /// A symbol's effective direction (mirroring already applied).
    fn dir(&self, sym: usize) -> Dir;
    /// The index of the named symbol.
    fn index_of(&self, name: &str) -> Option<usize>;
    /// The side's initial state (may intern lazily).
    fn initial(&mut self) -> usize;
    /// Takes the symbol; `None` is a choke (no defined transition). An
    /// effective output can occur exactly where this is `Some`; inputs
    /// always may (receptiveness).
    fn step(&mut self, state: usize, sym: usize) -> Option<usize>;
}

/// A `&TraceStructure` as a product side; `flip` views it mirrored without
/// cloning.
struct ConcreteView<'a> {
    t: &'a TraceStructure,
    flip: bool,
}

impl<'a> ConcreteView<'a> {
    /// The structure as it is, unmirrored.
    fn of(t: &'a TraceStructure) -> Self {
        ConcreteView { t, flip: false }
    }
}

impl ProductSide for ConcreteView<'_> {
    fn symbol_count(&self) -> usize {
        self.t.symbols.len()
    }

    fn name(&self, sym: usize) -> &str {
        &self.t.symbols[sym].0
    }

    fn dir(&self, sym: usize) -> Dir {
        let d = self.t.symbols[sym].1;
        if self.flip {
            d.flip()
        } else {
            d
        }
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.t.symbol_index(name)
    }

    fn initial(&mut self) -> usize {
        self.t.initial
    }

    fn step(&mut self, state: usize, sym: usize) -> Option<usize> {
        self.t.edge(state, sym)
    }
}

/// Lazy failure search over the product of two sides.
///
/// Mirrors [`TraceStructure::compose`]'s semantics exactly — same
/// producible rule, same both-participants-step rule, a choke on a
/// composite *output* is the failure — but breadth-first with hash-interned
/// packed state pairs and parent pointers, stopping at the first failure
/// and reconstructing a shortest witness trace. Composite transitions are
/// never stored.
fn search_failure<A: ProductSide, B: ProductSide>(
    a: &mut A,
    b: &mut B,
) -> Result<OtfOutcome, TraceError> {
    let syms = merge(a, b)?;
    let start = pack(a.initial(), b.initial());
    let mut seen: HashSet<u64, WordHash> = HashSet::default();
    seen.insert(start);
    let mut states: Vec<u64> = vec![start];
    let mut parents: Vec<Option<(usize, usize)>> = vec![None];
    let mut head = 0;
    let mut peak_frontier = 1;
    while head < states.len() {
        peak_frontier = peak_frontier.max(states.len() - head);
        let (sa, sb) = unpack(states[head]);
        for (sym, c) in syms.iter().enumerate() {
            let (ia, ib) = (c.a(), c.b());
            // Drivers step first: a composite output can occur only where
            // a side that drives it defines it, and its receivers step only
            // then. A hidden side interns a subset the first time it steps,
            // so stepping the receivers of an output nobody can produce
            // would change `subset_states()`.
            let driven_a = ia.filter(|_| c.a_out).map(|s| a.step(sa, s));
            let driven_b = ib.filter(|_| c.b_out).map(|s| b.step(sb, s));
            if c.dir == Dir::Output && driven_a.flatten().is_none() && driven_b.flatten().is_none()
            {
                continue;
            }
            let na = match (driven_a, ia) {
                (Some(r), _) => r,
                (None, Some(s)) => a.step(sa, s),
                (None, None) => Some(sa),
            };
            let nb = match (driven_b, ib) {
                (Some(r), _) => r,
                (None, Some(s)) => b.step(sb, s),
                (None, None) => Some(sb),
            };
            match (na, nb) {
                (Some(na), Some(nb)) => {
                    let next = pack(na, nb);
                    if seen.insert(next) {
                        states.push(next);
                        parents.push(Some((head, sym)));
                    }
                }
                _ => {
                    // An input choke stays an implicit receptive failure of
                    // the composite (no successor); a choke on a produced
                    // symbol is the reachable failure we are looking for.
                    if c.dir == Dir::Output {
                        let name = |s: usize| syms[s].name(&*a, &*b).to_string();
                        let mut trace = vec![name(sym)];
                        let mut at = head;
                        while let Some((p, s)) = parents[at] {
                            trace.push(name(s));
                            at = p;
                        }
                        trace.reverse();
                        return Ok(OtfOutcome {
                            ok: false,
                            states_visited: states.len(),
                            peak_frontier,
                            counterexample: Some(trace),
                        });
                    }
                }
            }
        }
        head += 1;
    }
    Ok(OtfOutcome {
        ok: true,
        states_visited: states.len(),
        peak_frontier,
        counterexample: None,
    })
}

/// Memo entry of a hidden-composition transition not yet resolved.
const UNRESOLVED: u32 = NO_EDGE - 1;

/// The composite transition from the packed member pair `p` on composite
/// symbol `sym` (described by `c`): `None` where the materialized
/// composite would leave it undefined (not producible, or a participant
/// chokes). A choke on a produced symbol — the condition `compose` records
/// in its `failure_reachable` flag — is noted in `failure` (input chokes
/// stay implicit receptive failures).
fn comp_step(
    a: &TraceStructure,
    b: &TraceStructure,
    c: &CompSym,
    sym: usize,
    p: u64,
    failure: &mut Option<usize>,
) -> Option<u64> {
    let (sa, sb) = unpack(p);
    let na = c.a().map_or(Some(sa), |s| a.edge(sa, s));
    let nb = c.b().map_or(Some(sb), |s| b.edge(sb, s));
    match (na, nb) {
        // Every participant stepped, so a driver did: producible.
        (Some(na), Some(nb)) => Some(pack(na, nb)),
        _ => {
            let produced = (c.a_out && na.is_some()) || (c.b_out && nb.is_some());
            if c.dir == Dir::Output && produced {
                failure.get_or_insert(sym);
            }
            None
        }
    }
}

/// A lazily determinized hidden composition: the automaton
/// `hide(compose(a, b), hidden)` explored on demand.
///
/// States are ε-closed subsets of composite state pairs, kept as sorted
/// vectors of packed pairs and hash-interned the first time a conformance
/// search reaches them; transitions are memoized in a dense
/// (subset × visible symbol) table shared across every search run against
/// the same value. Nothing of the composite — neither its state table nor
/// its transitions — is ever materialized, which is where the on-the-fly
/// verification path saves its states over the `compose` + `hide`
/// pipeline.
pub struct HiddenComposition<'a> {
    a: &'a TraceStructure,
    b: &'a TraceStructure,
    /// The composite alphabet, in `compose` order (`a`'s symbols keep
    /// their indices).
    syms: Vec<CompSym>,
    /// The composite index of each of `b`'s symbols.
    b_comp: Vec<usize>,
    /// Hidden composite symbols, ascending.
    hidden: Vec<usize>,
    /// Visible composite symbols, ascending: the hidden automaton's
    /// alphabet.
    visible: Vec<usize>,
    /// The visible index of each composite symbol, `None` when hidden.
    visible_of: Vec<Option<usize>>,
    /// Interned subsets, each sorted.
    subsets: Vec<Box<[u64]>>,
    subset_index: HashMap<Box<[u64]>, u32, WordHash>,
    /// One row of `visible.len()` entries per subset: the target subset,
    /// [`NO_EDGE`] where `hide` would drop the edge, [`UNRESOLVED`] until
    /// first asked.
    memo: Vec<u32>,
    initial: Option<usize>,
    /// First composite failure (a produced symbol choking a receiver)
    /// stepped over during exploration, as a composite symbol — the lazy
    /// counterpart of `compose`'s `failure_reachable` flag.
    comp_failure: Option<usize>,
    /// Scratch subset and closure stack, reused by every resolution.
    next: Vec<u64>,
    stack: Vec<u64>,
}

impl<'a> HiddenComposition<'a> {
    /// Sets up the lazy composition of `a` and `b` with the named output
    /// symbols hidden. No exploration happens yet.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutputConflict`] when both modules drive the
    /// same symbol, [`TraceError::UnknownSymbol`] for a hidden name outside
    /// the composite alphabet, and [`TraceError::HideNonOutput`] for a
    /// hidden name that is not a composite output.
    pub fn new(
        a: &'a TraceStructure,
        b: &'a TraceStructure,
        hidden: &[&str],
    ) -> Result<Self, TraceError> {
        let syms = merge(&ConcreteView::of(a), &ConcreteView::of(b))?;
        let mut b_comp = vec![0; b.symbols.len()];
        for (c, s) in syms.iter().enumerate() {
            if let Some(j) = s.b() {
                b_comp[j] = c;
            }
        }
        let composite_index = |name: &str| {
            a.symbol_index(name)
                .or_else(|| b.symbol_index(name).map(|j| b_comp[j]))
        };
        let mut hide_set = BTreeSet::new();
        for name in hidden {
            let i = composite_index(name).ok_or_else(|| TraceError::UnknownSymbol {
                symbol: (*name).to_string(),
            })?;
            if syms[i].dir != Dir::Output {
                return Err(TraceError::HideNonOutput {
                    symbol: (*name).to_string(),
                });
            }
            hide_set.insert(i);
        }
        let visible: Vec<usize> = (0..syms.len()).filter(|i| !hide_set.contains(i)).collect();
        let mut visible_of = vec![None; syms.len()];
        for (v, &c) in visible.iter().enumerate() {
            visible_of[c] = Some(v);
        }
        Ok(HiddenComposition {
            a,
            b,
            syms,
            b_comp,
            hidden: hide_set.into_iter().collect(),
            visible,
            visible_of,
            subsets: Vec::new(),
            subset_index: HashMap::default(),
            memo: Vec::new(),
            initial: None,
            comp_failure: None,
            next: Vec::new(),
            stack: Vec::new(),
        })
    }

    /// A composite failure noticed during lazy exploration: the name of a
    /// produced symbol that choked a receiver, if one was stepped over.
    ///
    /// When a conformance search has run in **both** directions and both
    /// held, the exploration has covered every reachable composite state
    /// (equivalence makes every visible trace of the composition a trace of
    /// the spec, so the product walks them all, and subsets partition the
    /// composite's reachable states by visible projection) — `None` then
    /// proves `compose(a, b).failure_reachable` would be `false`. After a
    /// failed or one-sided search the answer is only partial; fall back to
    /// [`TraceStructure::failure_search`] for a definitive check.
    pub fn composition_failure(&self) -> Option<String> {
        self.comp_failure.map(|c| self.comp_name(c).to_string())
    }

    /// The visible alphabet (the hidden automaton's symbols).
    pub fn symbols(&self) -> Vec<(String, Dir)> {
        self.visible
            .iter()
            .map(|&c| (self.comp_name(c).to_string(), self.syms[c].dir))
            .collect()
    }

    /// Number of subset states materialized so far.
    pub fn subset_states(&self) -> usize {
        self.subsets.len()
    }

    /// On-the-fly conformance `hide(a ∥ b) ≤ spec`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::AlphabetMismatch`] if the visible alphabet
    /// differs from the spec's.
    pub fn conforms_to(&mut self, spec: &TraceStructure) -> Result<OtfOutcome, TraceError> {
        self.check_alphabet(spec)?;
        let mut rhs = ConcreteView {
            t: spec,
            flip: true,
        };
        let mut lhs = HiddenSide {
            h: self,
            flip: false,
        };
        search_failure(&mut lhs, &mut rhs)
    }

    /// On-the-fly conformance `spec ≤ hide(a ∥ b)` (the reverse direction;
    /// together with [`conforms_to`](Self::conforms_to) this decides
    /// equivalence, sharing the subset states already materialized).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::AlphabetMismatch`] if the visible alphabet
    /// differs from the spec's.
    pub fn conformed_by(&mut self, spec: &TraceStructure) -> Result<OtfOutcome, TraceError> {
        self.check_alphabet(spec)?;
        let mut lhs = ConcreteView::of(spec);
        let mut rhs = HiddenSide {
            h: self,
            flip: true,
        };
        search_failure(&mut lhs, &mut rhs)
    }

    /// Errs with [`TraceError::AlphabetMismatch`] unless the visible
    /// alphabet has the spec's `(name, direction)` pairs (names are unique
    /// on both sides, as in [`TraceStructure::check_alphabet`]).
    fn check_alphabet(&self, spec: &TraceStructure) -> Result<(), TraceError> {
        let same = self.visible.len() == spec.symbols.len()
            && spec.symbols.iter().all(|(name, dir)| {
                self.visible_index(name)
                    .is_some_and(|v| self.syms[self.visible[v]].dir == *dir)
            });
        if same {
            Ok(())
        } else {
            Err(alphabet_mismatch(self.symbols(), spec.symbols.clone()))
        }
    }

    /// A composite symbol's name.
    fn comp_name(&self, c: usize) -> &str {
        match self.syms[c].sides {
            Sides::A(i) | Sides::Both(i, _) => &self.a.symbols[i].0,
            Sides::B(j) => &self.b.symbols[j].0,
        }
    }

    /// The visible index of the named symbol.
    fn visible_index(&self, name: &str) -> Option<usize> {
        let c = self
            .a
            .symbol_index(name)
            .or_else(|| self.b.symbol_index(name).map(|j| self.b_comp[j]))?;
        self.visible_of[c]
    }

    /// ε-closure of the sorted, deduplicated `set` over the hidden
    /// (defined) composite transitions, kept sorted as it grows.
    fn close(&mut self, set: &mut Vec<u64>) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.extend_from_slice(set);
        while let Some(p) = stack.pop() {
            for &h in &self.hidden {
                let c = &self.syms[h];
                if let Some(t) = comp_step(self.a, self.b, c, h, p, &mut self.comp_failure) {
                    if let Err(at) = set.binary_search(&t) {
                        set.insert(at, t);
                        stack.push(t);
                    }
                }
            }
        }
        self.stack = stack;
    }

    /// The id of the sorted subset `set`, interning it (and opening its
    /// memo row) on first sight.
    fn intern(&mut self, set: &[u64]) -> usize {
        if let Some(&i) = self.subset_index.get(set) {
            return i as usize;
        }
        let i = self.subsets.len();
        assert!(i < UNRESOLVED as usize, "subset state limit");
        let members: Box<[u64]> = set.into();
        self.subset_index.insert(members.clone(), i as u32);
        self.subsets.push(members);
        self.memo
            .resize(self.memo.len() + self.visible.len(), UNRESOLVED);
        i
    }

    fn initial_subset(&mut self) -> usize {
        if let Some(i) = self.initial {
            return i;
        }
        let mut start = vec![pack(self.a.initial, self.b.initial)];
        self.close(&mut start);
        let i = self.intern(&start);
        self.initial = Some(i);
        i
    }

    /// The hidden automaton's transition on a visible symbol, memoized:
    /// `None` exactly where the materialized `hide` would drop the edge
    /// (no member admits the symbol, or every admitting member chokes).
    /// Each member is stepped once.
    fn resolve(&mut self, state: usize, vis: usize) -> Option<usize> {
        let slot = state * self.visible.len() + vis;
        match self.memo[slot] {
            UNRESOLVED => {}
            NO_EDGE => return None,
            t => return Some(t as usize),
        }
        let sym = self.visible[vis];
        let c = &self.syms[sym];
        let mut next = std::mem::take(&mut self.next);
        next.clear();
        for &p in self.subsets[state].iter() {
            if let Some(t) = comp_step(self.a, self.b, c, sym, p, &mut self.comp_failure) {
                next.push(t);
            }
        }
        let r = if next.is_empty() {
            None
        } else {
            next.sort_unstable();
            next.dedup();
            self.close(&mut next);
            Some(self.intern(&next))
        };
        self.next = next;
        self.memo[slot] = r.map_or(NO_EDGE, |t| t as u32);
        r
    }
}

/// A mutable [`HiddenComposition`] as a product side; `flip` views it
/// mirrored.
struct HiddenSide<'h, 'a> {
    h: &'h mut HiddenComposition<'a>,
    flip: bool,
}

impl ProductSide for HiddenSide<'_, '_> {
    fn symbol_count(&self) -> usize {
        self.h.visible.len()
    }

    fn name(&self, sym: usize) -> &str {
        self.h.comp_name(self.h.visible[sym])
    }

    fn dir(&self, sym: usize) -> Dir {
        let d = self.h.syms[self.h.visible[sym]].dir;
        if self.flip {
            d.flip()
        } else {
            d
        }
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.h.visible_index(name)
    }

    fn initial(&mut self) -> usize {
        self.h.initial_subset()
    }

    fn step(&mut self, state: usize, sym: usize) -> Option<usize> {
        self.h.resolve(state, sym)
    }
}

/// Result of [`TraceStructure::compose`]: the composed structure plus
/// whether any failure (choke) is reachable.
#[derive(Debug, Clone)]
pub struct Composite {
    /// The composed trace structure (failures represented implicitly).
    pub structure: TraceStructure,
    /// Whether a failure is reachable in the composition.
    pub failure_reachable: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A module that does the four-phase cycle in -> out -> in -> out.
    fn handshake_echo() -> TraceStructure {
        let mut t = TraceStructure::new();
        let r = t.add_symbol("req", Dir::Input);
        let a = t.add_symbol("ack", Dir::Output);
        let s0 = 0;
        let s1 = t.add_state();
        t.add_transition(s0, r, s1);
        t.add_transition(s1, a, s0);
        t
    }

    #[test]
    fn accepts_alternating_trace() {
        let t = handshake_echo();
        assert!(t.accepts(&["req", "ack", "req", "ack"]).unwrap());
        assert!(!t.accepts(&["ack"]).unwrap());
        // req twice: second req chokes (input with no transition at s1).
        assert!(!t.accepts(&["req", "req"]).unwrap());
    }

    #[test]
    fn unknown_symbol_is_error() {
        let t = handshake_echo();
        assert!(matches!(
            t.accepts(&["zap"]),
            Err(TraceError::UnknownSymbol { .. })
        ));
    }

    #[test]
    fn mirror_flips_directions() {
        let t = handshake_echo();
        let m = t.mirror();
        assert_eq!(m.symbols()[0].1, Dir::Output);
        assert_eq!(m.symbols()[1].1, Dir::Input);
    }

    #[test]
    fn self_conformance() {
        let t = handshake_echo();
        assert!(t.conforms_to(&t).unwrap());
        assert!(t.equivalent_to(&t).unwrap());
    }

    /// An "eager" module that emits ack without waiting does NOT conform to
    /// the echo specification.
    #[test]
    fn eager_module_fails_conformance() {
        let mut e = TraceStructure::new();
        let r = e.add_symbol("req", Dir::Input);
        let a = e.add_symbol("ack", Dir::Output);
        let s0 = 0;
        let s1 = e.add_state();
        // emits ack first!
        e.add_transition(s0, a, s1);
        e.add_transition(s1, r, s0);
        let spec = handshake_echo();
        assert!(!e.conforms_to(&spec).unwrap());
    }

    /// A module with fewer behaviours (more restrictive outputs) conforms.
    #[test]
    fn stopped_module_conforms_if_it_never_chokes() {
        // A module that accepts req forever and never acks: conforms only if
        // the spec's environment may keep sending reqs. For the echo spec,
        // after req the mirror-env awaits ack and may not send req again; a
        // silent module never chokes it, so it conforms (safety-only theory).
        let mut m = TraceStructure::new();
        let _r = m.add_symbol("req", Dir::Input);
        let _a = m.add_symbol("ack", Dir::Output);
        let s0 = 0;
        m.add_transition(s0, 0, s0); // absorb reqs, never ack
        let spec = handshake_echo();
        assert!(m.conforms_to(&spec).unwrap());
        // But the spec does not conform back (it can emit ack the mirror of
        // m never accepts... mirror of m accepts ack? m has no ack move, so
        // its mirror cannot accept ack -> failure).
        assert!(!spec.conforms_to(&m).unwrap());
    }

    #[test]
    fn alphabet_mismatch_detected() {
        let t = handshake_echo();
        let mut u = TraceStructure::new();
        u.add_symbol("other", Dir::Input);
        assert!(matches!(
            t.conforms_to(&u),
            Err(TraceError::AlphabetMismatch { .. })
        ));
    }

    #[test]
    fn compose_pipeline_and_hide_internal() {
        // Stage 1 encloses a full handshake on m inside the handshake on a:
        // a_req -> m_req -> m_ack -> a_ack. Stage 2 echoes m_req -> m_ack.
        // With flow control no environment can cause an overrun, so the
        // composite is failure-free; hiding m gives the a-echo behaviour.
        let mut s1 = TraceStructure::new();
        let ar = s1.add_symbol("a_req", Dir::Input);
        let mr = s1.add_symbol("m_req", Dir::Output);
        let ma = s1.add_symbol("m_ack", Dir::Input);
        let aa = s1.add_symbol("a_ack", Dir::Output);
        let (q1, q2, q3) = (s1.add_state(), s1.add_state(), s1.add_state());
        s1.add_transition(0, ar, q1);
        s1.add_transition(q1, mr, q2);
        s1.add_transition(q2, ma, q3);
        s1.add_transition(q3, aa, 0);
        let mut s2 = TraceStructure::new();
        let mr2 = s2.add_symbol("m_req", Dir::Input);
        let ma2 = s2.add_symbol("m_ack", Dir::Output);
        let p1 = s2.add_state();
        s2.add_transition(0, mr2, p1);
        s2.add_transition(p1, ma2, 0);
        let comp = s1.compose(&s2).unwrap();
        assert!(!comp.failure_reachable);
        let hidden = comp.structure.hide(&["m_req", "m_ack"]).unwrap();
        // The result should be equivalent to a direct a_req -> a_ack echo.
        let mut spec = TraceStructure::new();
        let sa = spec.add_symbol("a_req", Dir::Input);
        let sb = spec.add_symbol("a_ack", Dir::Output);
        let t1 = spec.add_state();
        spec.add_transition(0, sa, t1);
        spec.add_transition(t1, sb, 0);
        assert!(hidden.equivalent_to(&spec).unwrap());
    }

    #[test]
    fn unbuffered_pipeline_can_be_overrun() {
        // Without flow control the environment may inject a second token
        // while the consumer is busy; composition reports the reachable
        // module-caused choke.
        let mut s1 = TraceStructure::new();
        let a = s1.add_symbol("a", Dir::Input);
        let m = s1.add_symbol("m", Dir::Output);
        let q1 = s1.add_state();
        s1.add_transition(0, a, q1);
        s1.add_transition(q1, m, 0);
        let mut s2 = TraceStructure::new();
        let m2 = s2.add_symbol("m", Dir::Input);
        let b = s2.add_symbol("b", Dir::Output);
        let q2 = s2.add_state();
        s2.add_transition(0, m2, q2);
        s2.add_transition(q2, b, 0);
        let comp = s1.compose(&s2).unwrap();
        assert!(comp.failure_reachable);
    }

    #[test]
    fn compose_detects_choke() {
        // Producer that outputs x immediately; consumer that never accepts x.
        let mut p = TraceStructure::new();
        let x = p.add_symbol("x", Dir::Output);
        let q = p.add_state();
        p.add_transition(0, x, q);
        let mut c = TraceStructure::new();
        let _x = c.add_symbol("x", Dir::Input);
        // no transitions: always chokes on x
        let comp = p.compose(&c).unwrap();
        assert!(comp.failure_reachable);
    }

    #[test]
    fn output_conflict_rejected() {
        let mut a = TraceStructure::new();
        a.add_symbol("x", Dir::Output);
        let mut b = TraceStructure::new();
        b.add_symbol("x", Dir::Output);
        assert!(matches!(
            a.compose(&b),
            Err(TraceError::OutputConflict { .. })
        ));
    }

    #[test]
    fn hide_rejects_inputs() {
        let t = handshake_echo();
        assert!(matches!(
            t.hide(&["req"]),
            Err(TraceError::HideNonOutput { .. })
        ));
    }

    #[test]
    fn otf_conformance_matches_materialized() {
        let spec = handshake_echo();
        let ok = spec.conforms_to_otf(&spec).unwrap();
        assert!(ok.ok);
        assert!(ok.counterexample.is_none());
        // The otf search with a positive verdict visits exactly the
        // reachable composite states.
        let composite = spec.compose(&spec.mirror()).unwrap();
        assert_eq!(ok.states_visited, composite.structure.num_states());

        let mut eager = TraceStructure::new();
        let r = eager.add_symbol("req", Dir::Input);
        let a = eager.add_symbol("ack", Dir::Output);
        let s1 = eager.add_state();
        eager.add_transition(0, a, s1);
        eager.add_transition(s1, r, 0);
        let bad = eager.conforms_to_otf(&spec).unwrap();
        assert!(!bad.ok);
        // Failure in the very first step: either the eager ack the spec's
        // environment does not expect, or the req it sends that the eager
        // module (busy acking) chokes on. Both are one-symbol witnesses.
        let witness = bad.counterexample.expect("witness");
        assert_eq!(witness.len(), 1);
        assert!(witness[0] == "ack" || witness[0] == "req");
        assert_eq!(
            bad.ok,
            eager.conforms_to(&spec).unwrap(),
            "otf and materialized verdicts must agree"
        );
    }

    #[test]
    fn otf_failure_search_matches_compose() {
        // Overrunnable pipeline: failure reachable, with a witness.
        let mut s1 = TraceStructure::new();
        let a = s1.add_symbol("a", Dir::Input);
        let m = s1.add_symbol("m", Dir::Output);
        let q1 = s1.add_state();
        s1.add_transition(0, a, q1);
        s1.add_transition(q1, m, 0);
        let mut s2 = TraceStructure::new();
        let m2 = s2.add_symbol("m", Dir::Input);
        let b = s2.add_symbol("b", Dir::Output);
        let q2 = s2.add_state();
        s2.add_transition(0, m2, q2);
        s2.add_transition(q2, b, 0);
        let otf = s1.failure_search(&s2).unwrap();
        let mat = s1.compose(&s2).unwrap();
        assert!(mat.failure_reachable);
        assert!(!otf.ok);
        let witness = otf.counterexample.expect("witness trace");
        assert_eq!(witness.last().map(String::as_str), Some("m"));
        // The witness must actually drive the composite into its failure:
        // every proper prefix is a trace of the composite, the full trace
        // is not.
        let names: Vec<&str> = witness.iter().map(String::as_str).collect();
        assert!(mat.structure.accepts(&names[..names.len() - 1]).unwrap());
        assert!(!mat.structure.accepts(&names).unwrap());
    }

    #[test]
    fn lazy_hidden_composition_matches_materialized_pipeline() {
        // Same scenario as compose_pipeline_and_hide_internal, via the lazy
        // path: equal verdicts both directions, strictly fewer states
        // (the composite is never materialized).
        let mut s1 = TraceStructure::new();
        let ar = s1.add_symbol("a_req", Dir::Input);
        let mr = s1.add_symbol("m_req", Dir::Output);
        let ma = s1.add_symbol("m_ack", Dir::Input);
        let aa = s1.add_symbol("a_ack", Dir::Output);
        let (q1, q2, q3) = (s1.add_state(), s1.add_state(), s1.add_state());
        s1.add_transition(0, ar, q1);
        s1.add_transition(q1, mr, q2);
        s1.add_transition(q2, ma, q3);
        s1.add_transition(q3, aa, 0);
        let mut s2 = TraceStructure::new();
        let mr2 = s2.add_symbol("m_req", Dir::Input);
        let ma2 = s2.add_symbol("m_ack", Dir::Output);
        let p1 = s2.add_state();
        s2.add_transition(0, mr2, p1);
        s2.add_transition(p1, ma2, 0);
        let mut spec = TraceStructure::new();
        let sa = spec.add_symbol("a_req", Dir::Input);
        let sb = spec.add_symbol("a_ack", Dir::Output);
        let t1 = spec.add_state();
        spec.add_transition(0, sa, t1);
        spec.add_transition(t1, sb, 0);

        let mut lazy = HiddenComposition::new(&s1, &s2, &["m_req", "m_ack"]).unwrap();
        let fwd = lazy.conforms_to(&spec).unwrap();
        let bwd = lazy.conformed_by(&spec).unwrap();
        assert!(fwd.ok && bwd.ok);

        let materialized = s1
            .compose(&s2)
            .unwrap()
            .structure
            .hide(&["m_req", "m_ack"])
            .unwrap();
        assert!(materialized.equivalent_to(&spec).unwrap());
        // The lazy path materializes the same determinized states as the
        // hide() subset construction, at most.
        assert!(lazy.subset_states() <= materialized.num_states());

        // A wrong spec must be rejected identically, with a witness.
        let mut wrong = TraceStructure::new();
        let wa = wrong.add_symbol("a_req", Dir::Input);
        let wb = wrong.add_symbol("a_ack", Dir::Output);
        let w1 = wrong.add_state();
        wrong.add_transition(0, wb, w1); // acks before any request
        wrong.add_transition(w1, wa, 0);
        let mut lazy2 = HiddenComposition::new(&s1, &s2, &["m_req", "m_ack"]).unwrap();
        let fwd2 = lazy2.conforms_to(&wrong).unwrap();
        let bwd2 = lazy2.conformed_by(&wrong).unwrap();
        assert_eq!(fwd2.ok, materialized.conforms_to(&wrong).unwrap());
        assert_eq!(bwd2.ok, wrong.conforms_to(&materialized).unwrap());
        assert!(!(fwd2.ok && bwd2.ok));
        assert!(fwd2.counterexample.is_some() || bwd2.counterexample.is_some());
    }

    /// A search steps a symbol's receiver only where a driver produces
    /// it: the spec never offers `i`, so `i` is never resolved on the
    /// hidden side, which would intern a second subset.
    #[test]
    fn receivers_step_only_where_a_driver_produces() -> Result<(), TraceError> {
        let mut a = TraceStructure::new();
        let i = a.add_symbol("i", Dir::Input);
        let m = a.add_symbol("m", Dir::Output);
        let a1 = a.add_state();
        a.add_transition(0, i, a1);
        a.add_transition(a1, m, 0);
        let mut b = TraceStructure::new();
        let m2 = b.add_symbol("m", Dir::Input);
        let o = b.add_symbol("o", Dir::Output);
        let b1 = b.add_state();
        b.add_transition(0, m2, b1);
        b.add_transition(b1, o, 0);
        let mut spec = TraceStructure::new();
        spec.add_symbol("i", Dir::Input);
        spec.add_symbol("o", Dir::Output);
        let mut hc = HiddenComposition::new(&a, &b, &["m"])?;
        let fwd = hc.conforms_to(&spec)?;
        assert!(fwd.ok);
        assert_eq!(fwd.states_visited, 1);
        assert_eq!(hc.subset_states(), 1);
        Ok(())
    }

    #[test]
    fn hidden_composition_propagates_setup_errors() {
        let t = handshake_echo();
        assert!(matches!(
            HiddenComposition::new(&t, &t.mirror(), &["zap"]),
            Err(TraceError::UnknownSymbol { .. })
        ));
        let mut a = TraceStructure::new();
        a.add_symbol("x", Dir::Output);
        let mut b = TraceStructure::new();
        b.add_symbol("x", Dir::Output);
        assert!(matches!(
            HiddenComposition::new(&a, &b, &[]),
            Err(TraceError::OutputConflict { .. })
        ));
    }
}
