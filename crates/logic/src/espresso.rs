//! Espresso-style cube-cofactor EXPAND for DHF covers.
//!
//! The exact EXPAND in [`crate::hfmin`] enumerates *every* DHF-prime
//! implicant — the right oracle, but its worklist is exponential in the
//! variable count. This module is the incremental alternative, the EXPAND
//! half of espresso's EXPAND/IRREDUNDANT loop adapted to the hazard-free
//! constraint system of Nowick and Dill: each required cube is grown to
//! *one* good DHF prime by a recursive cube-cofactor search. The per-seed
//! constraint compilation is shared with the canonical-ascent worklist: an
//! OFF cube blocks the set `S` of freed variables iff its disagreement
//! mask is contained in `S`, and an active privileged cube contributes the
//! implication `D_q ⊆ S → A_q ⊆ S`. Those implications are exactly the
//! *binate* part of the search space, so the recursion branches on them —
//! commit to the consequence (`S ∪ A_q`) or veto the trigger (block a
//! variable of `D_q`) — and the remaining *unate* leaf is completed
//! greedily: first absorbing other required cubes whose gain masks fit,
//! then a single-variable maximality pass over the full feasibility
//! predicate, which guarantees the leaf is a true DHF prime. Seeds are
//! expanded one after another, in required-cube order, on the calling
//! thread.
//!
//! [`FunctionSpec::minimize_opts`] runs the same covering step over the
//! picks as over an enumerated prime set, which drops every pick the
//! others already cover (IRREDUNDANT). The cover is valid and hazard-free
//! by construction (each required cube is inside its own pick, and every
//! pick passes the full DHF-implicant predicate), costs at most one
//! product per required cube, but is not guaranteed minimum —
//! [`FunctionSpec::dhf_primes`] stays the exactness oracle the property
//! suite compares against.

use crate::cube::Cube;
use crate::hfmin::{Constraints, FunctionSpec, SeedMasks};

/// Leaf budget of one seed's EXPAND recursion: once this many cofactor
/// leaves have been completed the remaining binate branches collapse into
/// greedy completions. Bounds the per-seed work at a small constant while
/// leaving room to explore genuinely different privileged resolutions.
const LEAF_BUDGET: usize = 64;

/// One seed's EXPAND state over the set `S` of freed variables (bit `i` of
/// `s` set ⇔ variable `i` freed). Its buffers are reused across the seeds
/// of one function.
#[derive(Default)]
struct SeedExpansion {
    /// The seed's compiled DHF-implicant constraints.
    masks: SeedMasks,
    /// Gain mask of every *other* required cube `r'`: the variables that
    /// must be freed for `r'` to fall inside the expanded cube.
    gains: Vec<u64>,
    /// Completed leaves of the current seed.
    leaves: Vec<u64>,
    /// Gains still worth testing in the current leaf's greedy loop.
    candidates: Vec<u64>,
    /// Remaining leaf budget.
    leaves_left: usize,
    /// Deepest recursion reached (for the flow's observability counters).
    max_depth: usize,
}

impl SeedExpansion {
    /// Recursive cube-cofactor expansion. `s` is the feasible set built so
    /// far (`ok(s)` holds), `b` the variables vetoed by earlier branches.
    /// Branches on the first still-undecided privileged implication; when
    /// none is left (a unate leaf) or the leaf budget is spent, completes
    /// `s` greedily and records the leaf.
    fn expand(&mut self, s: u64, b: u64, depth: usize) {
        self.max_depth = self.max_depth.max(depth);
        if self.leaves_left > 1 {
            for k in 0..self.masks.privileged.len() {
                let (d, a) = self.masks.privileged[k];
                if d & b != 0 {
                    continue; // trigger vetoed: the implication never fires
                }
                if a & !s == 0 {
                    continue; // consequence already raised: always satisfied
                }
                debug_assert!(d & !s != 0, "d ⊆ s with a ⊄ s contradicts ok(s)");
                // Binate branch. A: commit to the consequence, making the
                // trigger region reachable. B: veto the trigger by blocking
                // its lowest unfreed variable.
                let sa = s | a;
                let veto = 1u64 << (d & !s).trailing_zeros();
                if self.masks.ok(sa) {
                    self.expand(sa, b, depth + 1);
                }
                self.expand(s, b | veto, depth + 1);
                return;
            }
        }
        self.leaves_left = self.leaves_left.saturating_sub(1);
        let leaf = self.complete(s, b);
        self.leaves.push(leaf);
    }

    /// Greedy unate-leaf completion: absorb whole gain sets (cheapest
    /// first) while feasible, then run a single-variable maximality pass
    /// under the full predicate until fixpoint — so the returned set is a
    /// true DHF prime (no single variable can still be freed).
    ///
    /// Both loops are lazy without changing a single pick. OFF blocking is
    /// monotone in `S`, so a gain (or variable) once OFF-blocked is dropped
    /// for good; a gain whose missing variables hit a veto stays vetoed,
    /// since veto bits never enter `S` here; an absorbed gain stays
    /// absorbed. Only privileged rejections are retried. And a candidate's
    /// feasibility is tested only when its `(cost, missing)` key beats the
    /// best feasible one found so far, so each absorption is still the
    /// minimum key over the feasible candidates.
    fn complete(&mut self, mut s: u64, b: u64) -> u64 {
        let m = &self.masks;
        let candidates = &mut self.candidates;
        candidates.clear();
        candidates.extend(self.gains.iter().filter(|&&g| {
            let missing = g & !s;
            missing != 0 && missing & b == 0
        }));
        loop {
            let mut best: Option<(u32, u64)> = None;
            let mut i = 0;
            while i < candidates.len() {
                let missing = candidates[i] & !s;
                if missing == 0 {
                    candidates.swap_remove(i);
                    continue;
                }
                let key = (missing.count_ones(), missing);
                if best.is_some_and(|best| key >= best) {
                    i += 1;
                    continue;
                }
                if m.off_blocked(s | missing) {
                    candidates.swap_remove(i);
                    continue;
                }
                if !m.priv_blocked(s | missing) {
                    best = Some(key);
                }
                i += 1;
            }
            match best {
                Some((_, missing)) => s |= missing,
                None => break,
            }
        }
        // Freeing one variable can satisfy a privileged consequence and
        // thereby unlock others, so iterate to fixpoint, in ascending
        // variable order per sweep. Vetoes no longer apply: they steered
        // the branching, not primality.
        let mut dead = 0u64;
        loop {
            let mut grew = false;
            let mut rest = m.freeable & !s & !dead;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                rest &= rest - 1;
                if m.off_blocked(s | bit) {
                    dead |= bit;
                } else if !m.priv_blocked(s | bit) {
                    s |= bit;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        s
    }

    /// Expands one required cube to its chosen DHF prime. Returns the pick,
    /// the deepest recursion level, and the number of leaves completed.
    fn expand_seed(
        &mut self,
        spec: &FunctionSpec,
        seed: Cube,
        sets: &Constraints,
    ) -> (Cube, usize, usize) {
        self.masks.compile(seed, sets);
        let (freeable, seed_value) = (self.masks.freeable, self.masks.value);
        // r' ⊆ expanded cube ⇔ its gain mask ⊆ S: every variable the
        // expanded cube still fixes must be fixed to the same value in r'.
        self.gains.clear();
        self.gains.extend(
            (sets.required.iter())
                .filter(|r| **r != seed)
                .map(|r| freeable & !(r.care_mask() & !(r.value_mask() ^ seed_value))),
        );
        self.leaves.clear();
        self.leaves_left = LEAF_BUDGET;
        self.max_depth = 0;
        self.expand(0, 0, 0);
        // Deterministic pick: most other required cubes absorbed, then the
        // biggest cube (fewest literals), then the numerically smallest set.
        let mut best: Option<(usize, u32, u64)> = None;
        for &s in &self.leaves {
            let absorbed = self.gains.iter().filter(|&&g| g & !s == 0).count();
            let key = (absorbed, s.count_ones(), s);
            let better = match best {
                None => true,
                Some((ba, bp, bs)) => {
                    (absorbed, s.count_ones()) > (ba, bp)
                        || ((absorbed, s.count_ones()) == (ba, bp) && s < bs)
                }
            };
            if better {
                best = Some(key);
            }
        }
        let (_, _, s) = best.expect("expansion always completes at least one leaf");
        let pick = self.masks.cube_of(spec.num_vars(), s);
        debug_assert!(spec.is_dhf_implicant(&pick, &sets.off, &sets.privileged));
        debug_assert!(pick.contains_cube(&seed));
        (pick, self.max_depth, self.leaves.len())
    }
}

/// The cube-cofactor EXPAND of one function: each required cube, in
/// order, grown to its pick over one reused [`SeedExpansion`]. Returns the
/// distinct picks in first-pick order and the deepest recursion level.
pub(crate) fn cofactor_picks(spec: &FunctionSpec, sets: &Constraints) -> (Vec<Cube>, usize) {
    let mut exp = SeedExpansion::default();
    let mut picks: Vec<Cube> = Vec::new();
    let (mut depth, mut leaves) = (0usize, 0usize);
    for r in &sets.required {
        let (pick, seed_depth, seed_leaves) = exp.expand_seed(spec, *r, sets);
        depth = depth.max(seed_depth);
        leaves += seed_leaves;
        if !picks.contains(&pick) {
            picks.push(pick);
        }
    }
    bmbe_obs::trace_counter!("hfmin.cofactor.seeds", sets.required.len() as u64);
    bmbe_obs::trace_counter!("hfmin.cofactor.leaves", leaves as u64);
    bmbe_obs::trace_counter!("hfmin.cofactor.depth", depth as u64);
    (picks, depth)
}
