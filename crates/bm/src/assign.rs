//! Critical-race-free state assignment for burst-mode machines.
//!
//! Follows the CHASM-style approach of Minimalist: collect Tracey partition
//! constraints (*dichotomies*) and cover them with a small number of state
//! variables. In a burst-mode Huffman machine the state variables race from
//! `code(s)` to `code(s')` while the inputs sit at the post-burst vector, so
//! two transitions with the same post-burst input vector and different
//! destinations must have disjoint state-transition cubes — i.e. some state
//! variable takes value 0 on both endpoint codes of one transition and 1 on
//! both endpoint codes of the other (Tracey's condition). Distinctness of
//! all state codes is enforced with singleton dichotomies.

use crate::spec::{BmError, BmSpec};
use std::collections::BTreeSet;
use std::fmt;

/// A partition constraint: some state bit must separate `zeros` from `ones`
/// (in either orientation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dichotomy {
    /// States that must share one value.
    pub left: BTreeSet<usize>,
    /// States that must all take the other value.
    pub right: BTreeSet<usize>,
}

/// Errors raised by state assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignError {
    /// Two conflicting transitions share a state, which makes the Tracey
    /// constraint unsatisfiable; valid burst-mode specs never produce this.
    UnsatisfiableDichotomy {
        /// The overlapping states.
        states: Vec<usize>,
    },
    /// The underlying specification failed validation.
    Spec(BmError),
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::UnsatisfiableDichotomy { states } => {
                write!(f, "unsatisfiable dichotomy over states {states:?}")
            }
            AssignError::Spec(e) => write!(f, "invalid specification: {e}"),
        }
    }
}

impl std::error::Error for AssignError {}

impl From<BmError> for AssignError {
    fn from(e: BmError) -> Self {
        AssignError::Spec(e)
    }
}

/// A completed state assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateAssignment {
    /// Number of state variables.
    pub num_bits: usize,
    /// `codes[s]` is the code of state `s`, bit `i` = state variable `i`.
    pub codes: Vec<u64>,
}

impl StateAssignment {
    /// Verifies the Tracey condition against a list of dichotomies.
    pub fn satisfies(&self, d: &Dichotomy) -> bool {
        (0..self.num_bits).any(|bit| {
            let val = |s: usize| self.codes[s] >> bit & 1;
            let l0 = d.left.iter().all(|&s| val(s) == 0);
            let r1 = d.right.iter().all(|&s| val(s) == 1);
            let l1 = d.left.iter().all(|&s| val(s) == 1);
            let r0 = d.right.iter().all(|&s| val(s) == 0);
            (l0 && r1) || (l1 && r0)
        })
    }
}

/// How aggressively state codes separate transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Separation {
    /// Only Tracey-conflicting transition pairs (same post-burst input
    /// vector, different destinations) are separated — minimal codes,
    /// race-free.
    Conflicts,
    /// Every pair of arcs with disjoint state sets is separated. This is
    /// the hazard-aware fallback (CHASM's concern): it guarantees that no
    /// required cube of one arc can illegally intersect a privileged cube
    /// of another, so hazard-free covers always exist.
    AllArcs,
}

/// Collects the Tracey dichotomies of a specification.
///
/// # Errors
///
/// Propagates validation errors and reports unsatisfiable (overlapping)
/// dichotomies.
pub fn dichotomies(spec: &BmSpec) -> Result<Vec<Dichotomy>, AssignError> {
    dichotomies_with(spec, Separation::Conflicts)
}

/// Collects dichotomies at the chosen separation level.
///
/// # Errors
///
/// See [`dichotomies`].
pub fn dichotomies_with(
    spec: &BmSpec,
    separation: Separation,
) -> Result<Vec<Dichotomy>, AssignError> {
    let bits = DichotomyBits::build(spec, separation)?;
    Ok((0..bits.len())
        .map(|i| {
            let (left, right) = bits.sides(i);
            Dichotomy {
                left: states_of(left).collect(),
                right: states_of(right).collect(),
            }
        })
        .collect())
}

/// The dichotomies of a specification as pairs of state bitsets of
/// `words` 64-bit words each, stored flat: dichotomy `i` is the left set
/// `bits[2iw..2iw+w]` followed by the right set.
struct DichotomyBits {
    words: usize,
    bits: Vec<u64>,
}

impl DichotomyBits {
    /// Builds the dichotomies straight from the arcs, in the order
    /// [`dichotomies_with`] reports them.
    fn build(spec: &BmSpec, separation: Separation) -> Result<Self, AssignError> {
        let entry = spec.validate()?;
        let input_ix = spec.input_index_map();
        // Post-burst input vector of each arc.
        let arcs = spec.arcs();
        let post: Vec<u64> = arcs
            .iter()
            .map(|arc| {
                let mut v = entry.entry_in[arc.from];
                for e in &arc.inputs {
                    v ^= 1u64 << input_ix[&e.signal];
                }
                v
            })
            .collect();
        let mut out = DichotomyBits {
            words: spec.num_states().div_ceil(64).max(1),
            bits: Vec::new(),
        };
        for i in 0..arcs.len() {
            for j in i + 1..arcs.len() {
                let (a, b) = (&arcs[i], &arcs[j]);
                let shared = |s: usize| s == b.from || s == b.to;
                let disjoint = !shared(a.from) && !shared(a.to);
                match separation {
                    Separation::Conflicts => {
                        if a.to == b.to || post[i] != post[j] {
                            continue;
                        }
                        if !disjoint {
                            let mut states: Vec<usize> =
                                [a.from, a.to].into_iter().filter(|&s| shared(s)).collect();
                            states.sort_unstable();
                            states.dedup();
                            return Err(AssignError::UnsatisfiableDichotomy { states });
                        }
                    }
                    Separation::AllArcs => {
                        if !disjoint {
                            continue;
                        }
                    }
                }
                out.push(&[a.from, a.to], &[b.from, b.to]);
            }
        }
        // Distinct codes for all state pairs.
        for s in 0..spec.num_states() {
            for t in s + 1..spec.num_states() {
                out.push(&[s], &[t]);
            }
        }
        Ok(out)
    }

    fn push(&mut self, left: &[usize], right: &[usize]) {
        let base = self.bits.len();
        self.bits.resize(base + 2 * self.words, 0);
        for &s in left {
            self.bits[base + s / 64] |= 1 << (s % 64);
        }
        for &s in right {
            self.bits[base + self.words + s / 64] |= 1 << (s % 64);
        }
    }

    fn len(&self) -> usize {
        self.bits.len() / (2 * self.words)
    }

    /// The left and right state sets of dichotomy `i`.
    fn sides(&self, i: usize) -> (&[u64], &[u64]) {
        self.bits[2 * i * self.words..2 * (i + 1) * self.words].split_at(self.words)
    }
}

/// The states of a bitset, ascending.
fn states_of(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word).filter(|&x| x != 0), |&x| {
            Some(x & (x - 1)).filter(|&y| y != 0)
        })
        .map(move |x| 64 * w + x.trailing_zeros() as usize)
    })
}

fn disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

fn union_into(acc: &mut [u64], set: &[u64]) {
    for (x, y) in acc.iter_mut().zip(set) {
        *x |= y;
    }
}

/// Whether the completed column whose 1-states are `ones` separates the
/// dichotomy `(left, right)` in either orientation.
fn separates(left: &[u64], right: &[u64], ones: &[u64]) -> bool {
    (disjoint(left, ones) && subset(right, ones)) || (subset(left, ones) && disjoint(right, ones))
}

/// Computes a critical-race-free state assignment by greedy dichotomy
/// covering: each state variable is grown to satisfy as many outstanding
/// dichotomies as it consistently can.
///
/// # Errors
///
/// See [`dichotomies`].
pub fn assign(spec: &BmSpec) -> Result<StateAssignment, AssignError> {
    assign_with(spec, Separation::Conflicts)
}

/// Computes an assignment at the chosen separation level.
///
/// Each new column is seeded with the first outstanding dichotomy; every
/// later outstanding one is folded in, left side to 0 if it fits, else
/// left side to 1, else skipped. A column is held as two state bitsets
/// (its 0-states and 1-states), so a fold is a few word operations.
/// States the column leaves unassigned complete to 0, and every
/// dichotomy the completed column separates leaves the outstanding list.
///
/// # Errors
///
/// See [`dichotomies`].
pub fn assign_with(spec: &BmSpec, separation: Separation) -> Result<StateAssignment, AssignError> {
    let n = spec.num_states();
    if n <= 1 {
        return Ok(StateAssignment {
            num_bits: 0,
            codes: vec![0; n],
        });
    }
    let all = DichotomyBits::build(spec, separation)?;
    let mut unsat: Vec<usize> = (0..all.len()).collect();
    let mut codes = vec![0u64; n];
    let mut num_bits = 0usize;
    let mut zeros = vec![0u64; all.words];
    let mut ones = vec![0u64; all.words];
    while let Some(&first) = unsat.first() {
        let (left, right) = all.sides(first);
        zeros.copy_from_slice(left);
        ones.copy_from_slice(right);
        for &di in &unsat[1..] {
            let (left, right) = all.sides(di);
            if disjoint(left, &ones) && disjoint(right, &zeros) {
                union_into(&mut zeros, left);
                union_into(&mut ones, right);
            } else if disjoint(left, &zeros) && disjoint(right, &ones) {
                union_into(&mut ones, left);
                union_into(&mut zeros, right);
            }
        }
        // A code holds 64 bits; a wider assignment wraps (synthesis then
        // rejects it as too many variables).
        for s in states_of(&ones) {
            codes[s] |= 1u64.wrapping_shl(num_bits as u32);
        }
        num_bits += 1;
        unsat.retain(|&di| {
            let (left, right) = all.sides(di);
            !separates(left, right, &ones)
        });
    }
    debug_assert!(
        num_bits > 64 || {
            let columns: Vec<Vec<u64>> = (0..num_bits)
                .map(|bit| {
                    let mut column = vec![0u64; all.words];
                    for (s, code) in codes.iter().enumerate() {
                        column[s / 64] |= (code >> bit & 1) << (s % 64);
                    }
                    column
                })
                .collect();
            (0..all.len()).all(|di| {
                let (left, right) = all.sides(di);
                columns.iter().any(|column| separates(left, right, column))
            })
        }
    );
    Ok(StateAssignment { num_bits, codes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SignalDir;

    fn sequencer() -> BmSpec {
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
    fn sequencer_assignment_is_race_free() {
        let spec = sequencer();
        let a = assign(&spec).unwrap();
        assert_eq!(a.codes.len(), 6);
        // all codes distinct
        let mut codes = a.codes.clone();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 6);
        for d in dichotomies(&spec).unwrap() {
            assert!(a.satisfies(&d));
        }
        // 6 states need at least 3 bits.
        assert!(a.num_bits >= 3);
    }

    #[test]
    fn single_state_machine_needs_no_bits() {
        let mut s = BmSpec::new("one");
        let a = s.add_signal("a", SignalDir::Input);
        let x = s.add_signal("x", SignalDir::Output);
        let s0 = s.add_state();
        let s1 = s.add_state();
        s.add_arc(s0, s1, &[(a, true)], &[(x, true)]);
        s.add_arc(s1, s0, &[(a, false)], &[(x, false)]);
        let asg = assign(&s).unwrap();
        assert_eq!(asg.codes.len(), 2);
        assert_ne!(asg.codes[0], asg.codes[1]);
    }

    #[test]
    fn zero_or_one_state() {
        let mut s = BmSpec::new("trivial");
        s.add_state();
        let asg = assign(&s);
        // one state: no bits at all (validation of an arc-free, 1-state
        // machine passes: the state is initial hence reachable).
        let asg = asg.unwrap();
        assert_eq!(asg.num_bits, 0);
    }

    #[test]
    fn dichotomy_satisfaction_logic() {
        let a = StateAssignment {
            num_bits: 2,
            codes: vec![0b00, 0b01, 0b10, 0b11],
        };
        let d_ok = Dichotomy {
            left: BTreeSet::from([0, 1]),  // bit1 = 0
            right: BTreeSet::from([2, 3]), // bit1 = 1
        };
        assert!(a.satisfies(&d_ok));
        let d_bad = Dichotomy {
            left: BTreeSet::from([0, 3]),
            right: BTreeSet::from([1, 2]),
        };
        assert!(!a.satisfies(&d_bad));
    }

    #[test]
    fn conflicting_transitions_get_separated() {
        // A choice state: from s0, input a+ goes to s1, input b+ goes to s2;
        // both return. Transitions s1->s0 (on a-) and s2->s0 (on b-) have
        // different post-burst vectors, so no transition dichotomy between
        // them; but pairwise distinctness still applies.
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
        let asg = assign(&s).unwrap();
        let mut codes = asg.codes.clone();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 3);
    }
}
