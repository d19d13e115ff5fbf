//! The map-based transition store the dense table replaced, kept as a
//! reference model: one `HashMap` entry per defined transition, and
//! `copy_outgoing` scanning the whole map for the source state's edges.

use bmbe_trace::Dir;
use std::collections::HashMap;

/// A trace structure's build state over a `(state, symbol) -> state` map.
#[derive(Debug, Clone)]
pub struct RefStructure {
    pub symbols: Vec<(String, Dir)>,
    by_name: HashMap<String, usize>,
    pub num_states: usize,
    pub initial: usize,
    delta: HashMap<(usize, usize), usize>,
}

impl RefStructure {
    /// One initial state, no symbols.
    pub fn new() -> Self {
        RefStructure {
            symbols: Vec::new(),
            by_name: HashMap::new(),
            num_states: 1,
            initial: 0,
            delta: HashMap::new(),
        }
    }

    /// Adds (or finds) a symbol; the direction of a found one is kept.
    pub fn add_symbol(&mut self, name: &str, dir: Dir) -> usize {
        if let Some(&i) = self.by_name.get(name) {
            return i;
        }
        let i = self.symbols.len();
        self.by_name.insert(name.to_string(), i);
        self.symbols.push((name.to_string(), dir));
        i
    }

    pub fn add_state(&mut self) -> usize {
        self.num_states += 1;
        self.num_states - 1
    }

    pub fn add_transition(&mut self, from: usize, symbol: usize, to: usize) {
        self.delta.insert((from, symbol), to);
    }

    pub fn copy_outgoing(&mut self, from_state: usize, onto: usize) {
        let copies: Vec<(usize, usize)> = self
            .delta
            .iter()
            .filter(|((s, _), _)| *s == from_state)
            .map(|((_, sym), t)| (*sym, *t))
            .collect();
        for (sym, t) in copies {
            self.delta.entry((onto, sym)).or_insert(t);
        }
    }

    pub fn transition(&self, state: usize, symbol: usize) -> Option<usize> {
        self.delta.get(&(state, symbol)).copied()
    }

    pub fn num_transitions(&self) -> usize {
        self.delta.len()
    }

    /// Whether the trace of symbol indices is a success trace: inputs
    /// choke where undefined, outputs cannot occur where undefined.
    pub fn accepts(&self, trace: &[usize]) -> bool {
        let mut state = self.initial;
        for &sym in trace {
            match self.transition(state, sym) {
                Some(t) => state = t,
                None => return false,
            }
        }
        true
    }
}
