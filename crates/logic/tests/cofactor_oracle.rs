//! Reference oracles for both prime engines.
//!
//! The cube-cofactor EXPAND is checked against the engine it replaced,
//! kept here as test code: per seed, every OFF disagreement mask sorted by
//! size, a greedy gain loop that rescans every gain each round, and plain
//! maximality sweeps. Production covers must equal the reference cube for
//! cube on random burst-mode walks wider than the n ≤ 10 properties of
//! `prop_logic.rs`. The exact canonical ascent is checked against the
//! brute-force recursion at n = 10 and 12, serial and partitioned.

use bmbe_logic::cover::Cover;
use bmbe_logic::covering::CoveringProblem;
use bmbe_logic::cube::Cube;
use bmbe_logic::hfmin::{
    FunctionSpec, HfminError, MinimizeBackend, MinimizeOptions, PrivilegedCube, SpecTransition,
};
use proptest::prelude::*;

/// Same constants as the production engine.
const LEAF_BUDGET: usize = 64;
const IRREDUNDANT_EFFORT: u64 = 50_000;

/// One seed's constraint system in the reference form.
struct RefExpansion {
    freeable: u64,
    off_masks: Vec<u64>,
    priv_masks: Vec<(u64, u64)>,
    gains: Vec<u64>,
    leaves_left: usize,
    max_depth: usize,
}

impl RefExpansion {
    fn ok(&self, s: u64) -> bool {
        for &d in &self.off_masks {
            if d & !s == 0 {
                return false;
            }
        }
        for &(d, a) in &self.priv_masks {
            if d & !s == 0 && a & !s != 0 {
                return false;
            }
        }
        true
    }

    fn expand(&mut self, s: u64, b: u64, depth: usize, leaves: &mut Vec<u64>) {
        self.max_depth = self.max_depth.max(depth);
        if self.leaves_left > 1 {
            for k in 0..self.priv_masks.len() {
                let (d, a) = self.priv_masks[k];
                if d & b != 0 || a & !s == 0 {
                    continue;
                }
                let sa = s | a;
                let veto = 1u64 << (d & !s).trailing_zeros();
                if self.ok(sa) {
                    self.expand(sa, b, depth + 1, leaves);
                    self.expand(s, b | veto, depth + 1, leaves);
                } else {
                    self.expand(s, b | veto, depth + 1, leaves);
                }
                return;
            }
        }
        self.leaves_left = self.leaves_left.saturating_sub(1);
        leaves.push(self.complete(s, b));
    }

    fn complete(&self, mut s: u64, b: u64) -> u64 {
        loop {
            let mut best: Option<(u32, u64)> = None;
            for &g in &self.gains {
                let missing = g & !s;
                if missing == 0 || missing & b != 0 || !self.ok(s | missing) {
                    continue;
                }
                let cost = missing.count_ones();
                if best.is_none_or(|(c, m)| (cost, missing) < (c, m)) {
                    best = Some((cost, missing));
                }
            }
            match best {
                Some((_, missing)) => s |= missing,
                None => break,
            }
        }
        loop {
            let mut grew = false;
            let mut rest = self.freeable & !s;
            while rest != 0 {
                let i = rest.trailing_zeros();
                rest &= rest - 1;
                let s2 = s | 1u64 << i;
                if self.ok(s2) {
                    s = s2;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        s
    }
}

/// The reference EXPAND of one seed: its pick, deepest recursion level and
/// number of completed leaves.
fn expand_seed_reference(
    spec: &FunctionSpec,
    seed: Cube,
    required: &[Cube],
    off: &Cover,
    privileged: &[PrivilegedCube],
) -> (Cube, usize, usize) {
    let freeable = seed.care_mask();
    let seed_value = seed.value_mask();
    let mut off_masks: Vec<u64> = off
        .cubes()
        .iter()
        .map(|o| (seed_value ^ o.value_mask()) & (freeable & o.care_mask()))
        .collect();
    off_masks.sort_unstable_by_key(|d| d.count_ones());
    let mut priv_masks: Vec<(u64, u64)> = Vec::new();
    for p in privileged {
        let d = (seed_value ^ p.cube.value_mask()) & (freeable & p.cube.care_mask());
        if d == 0 {
            continue;
        }
        let a = (p.point ^ seed_value) & freeable;
        if a == d {
            continue;
        }
        priv_masks.push((d, a));
    }
    let gains: Vec<u64> = required
        .iter()
        .filter(|r| **r != seed)
        .map(|r| freeable & !(r.care_mask() & !(r.value_mask() ^ seed_value)))
        .collect();
    let mut exp = RefExpansion {
        freeable,
        off_masks,
        priv_masks,
        gains,
        leaves_left: LEAF_BUDGET,
        max_depth: 0,
    };
    let mut leaves: Vec<u64> = Vec::new();
    exp.expand(0, 0, 0, &mut leaves);
    let mut best: Option<(usize, u32, u64)> = None;
    for &s in &leaves {
        let absorbed = exp.gains.iter().filter(|&&g| g & !s == 0).count();
        let better = match best {
            None => true,
            Some((ba, bp, bs)) => {
                (absorbed, s.count_ones()) > (ba, bp)
                    || ((absorbed, s.count_ones()) == (ba, bp) && s < bs)
            }
        };
        if better {
            best = Some((absorbed, s.count_ones(), s));
        }
    }
    let (_, _, s) = best.expect("expansion always completes at least one leaf");
    let pick = Cube::from_masks(spec.num_vars(), freeable & !s, seed_value);
    (pick, exp.max_depth, leaves.len())
}

/// What the reference cube-cofactor minimizer returns for one function.
#[derive(Debug)]
struct RefResult {
    cover: Cover,
    implicants: usize,
    depth: usize,
    /// Most leaves any one seed completed.
    max_leaves: usize,
}

fn minimize_reference(spec: &FunctionSpec) -> Result<RefResult, HfminError> {
    spec.check_consistency()?;
    let required = spec.required_cubes();
    if required.is_empty() {
        return Ok(RefResult {
            cover: Cover::empty(),
            implicants: 0,
            depth: 0,
            max_leaves: 0,
        });
    }
    let off = spec.off_set();
    let privileged = spec.privileged_cubes();
    for r in &required {
        if !spec.is_dhf_implicant(r, &off, &privileged) {
            return Err(HfminError::NoHazardFreeCover { required: *r });
        }
    }
    let mut implicants: Vec<Cube> = Vec::new();
    let (mut depth, mut max_leaves) = (0, 0);
    for r in &required {
        let (pick, d, leaves) = expand_seed_reference(spec, *r, &required, &off, &privileged);
        depth = depth.max(d);
        max_leaves = max_leaves.max(leaves);
        if !implicants.contains(&pick) {
            implicants.push(pick);
        }
    }
    let mut problem = CoveringProblem::new(required.len());
    for p in &implicants {
        let rows: Vec<usize> = required
            .iter()
            .enumerate()
            .filter(|(_, r)| p.contains_cube(r))
            .map(|(i, _)| i)
            .collect();
        problem.add_column(rows, 1, p.num_literals() as u64);
    }
    let solution = problem
        .solve(IRREDUNDANT_EFFORT)
        .expect("every required cube is contained in its own seed's pick");
    Ok(RefResult {
        cover: solution.columns.iter().map(|&c| implicants[c]).collect(),
        implicants: implicants.len(),
        depth,
        max_leaves,
    })
}

/// Production cube-cofactor covers (serial and fanned) must equal the
/// reference. Returns the reference's most leaves per seed (0 when both
/// reject the spec).
fn check_against_reference(spec: &FunctionSpec) -> Result<usize, TestCaseError> {
    let reference = minimize_reference(spec);
    for threads in [1, 3] {
        let production = spec.minimize_opts(&MinimizeOptions {
            backend: MinimizeBackend::CubeCofactor,
            threads,
            fault: None,
        });
        match (&reference, production) {
            (Ok(r), Ok(p)) => {
                prop_assert!(
                    p.cover == r.cover,
                    "threads={threads}: {} != reference {}",
                    p.cover,
                    r.cover
                );
                prop_assert_eq!(p.num_primes, r.implicants);
                prop_assert_eq!(p.stats.cofactor_depth, r.depth);
            }
            (Err(r), Err(p)) => prop_assert_eq!(r, &p),
            (r, p) => prop_assert!(
                false,
                "feasibility differs: reference={:?} production={:?}",
                r,
                p
            ),
        }
    }
    Ok(reference.map_or(0, |r| r.max_leaves))
}

/// A function specified by a burst-mode-like walk: each step moves to a
/// new point and may flip the value.
fn walk_spec(n: usize, steps: &[(u64, bool)]) -> FunctionSpec {
    let mut spec = FunctionSpec::new(n);
    let (mut cur, mut val) = (0u64, false);
    for &(target, flip) in steps {
        if target == cur && flip {
            continue; // degenerate dynamic transition
        }
        spec.add_transition(SpecTransition {
            start: cur,
            end: target,
            from: val,
            to: val ^ flip,
        });
        cur = target;
        val ^= flip;
    }
    spec
}

/// Random walks over `n` variables whose steps change few variables, as
/// bursts do, so that consistent specs stay common at every width.
fn arb_walk(n: usize) -> impl Strategy<Value = FunctionSpec> {
    let space = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 2..12).prop_map(
        move |raw| {
            let mut cur = 0u64;
            let steps: Vec<(u64, bool)> = raw
                .into_iter()
                .map(|(a, b, flip)| {
                    cur ^= a & b & (a >> 7) & space;
                    (cur, flip)
                })
                .collect();
            walk_spec(n, &steps)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn cofactor_covers_equal_the_reference_at_12(spec in arb_walk(12)) {
        check_against_reference(&spec)?;
    }

    #[test]
    fn cofactor_covers_equal_the_reference_at_16(spec in arb_walk(16)) {
        check_against_reference(&spec)?;
    }

    #[test]
    fn cofactor_covers_equal_the_reference_at_24(spec in arb_walk(24)) {
        check_against_reference(&spec)?;
    }
}

fn check_primes_against_reference(spec: &FunctionSpec) -> Result<(), TestCaseError> {
    if spec.check_consistency().is_err() {
        return Ok(());
    }
    match (spec.dhf_primes_par(1), spec.dhf_primes_par(4)) {
        (Ok((serial, _)), Ok((fanned, _))) => {
            prop_assert_eq!(&serial, &fanned);
            let reference = spec
                .dhf_primes_reference()
                .expect("reference agrees on feasibility");
            prop_assert_eq!(serial, reference);
        }
        (Err(serial), Err(fanned)) => {
            prop_assert_eq!(&serial, &fanned);
            prop_assert_eq!(Err(serial), spec.dhf_primes_reference());
        }
        (serial, fanned) => prop_assert!(
            false,
            "worker count changes feasibility: 1t={:?} 4t={:?}",
            serial.is_ok(),
            fanned.is_ok()
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn exact_primes_equal_the_reference_at_10(spec in arb_walk(10)) {
        check_primes_against_reference(&spec)?;
    }

    #[test]
    fn exact_primes_equal_the_reference_at_12(spec in arb_walk(12)) {
        check_primes_against_reference(&spec)?;
    }
}

/// Walks in which some seed completes two leaves, i.e. the recursion
/// feasibly commits to a privileged consequence. Found by the search below;
/// the design corpus never gets there (every one of its seeds completes
/// exactly one leaf).
const MULTI_LEAF_WALKS: [(usize, &[(u64, bool)]); 3] = [
    (
        8,
        &[
            (35, false),
            (51, false),
            (23, true),
            (71, false),
            (102, false),
            (206, false),
            (218, true),
            (243, false),
            (181, false),
        ],
    ),
    (
        10,
        &[
            (260, true),
            (292, false),
            (372, false),
            (277, false),
            (933, false),
            (295, true),
        ],
    ),
    (12, &[(130, false), (649, true), (857, false), (1971, true)]),
];

#[test]
fn multi_leaf_walks_match_the_reference() {
    for (n, steps) in MULTI_LEAF_WALKS {
        let spec = walk_spec(n, steps);
        spec.check_consistency()
            .expect("recorded walks are consistent");
        let leaves = check_against_reference(&spec).expect("production equals the reference");
        assert!(leaves >= 2, "n={n}: most leaves per seed {leaves}");
    }
}

/// splitmix64: a deterministic stream for the search, independent of the
/// property runner's seeding.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn searched_walks_match_the_reference_and_reach_the_commit_branch() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let (mut consistent, mut multi_leaf) = (0, 0);
    for trial in 0..8000 {
        let n = [8usize, 10, 12, 16, 24][trial % 5];
        let len = 2 + (splitmix(&mut state) % 10) as usize;
        let mut cur = 0u64;
        let steps: Vec<(u64, bool)> = (0..len)
            .map(|_| {
                cur ^= splitmix(&mut state) & splitmix(&mut state) & ((1u64 << n) - 1);
                (cur, splitmix(&mut state) & 1 == 1)
            })
            .collect();
        let spec = walk_spec(n, &steps);
        if spec.check_consistency().is_err() {
            continue;
        }
        consistent += 1;
        let leaves = check_against_reference(&spec)
            .unwrap_or_else(|e| panic!("n={n} steps={steps:?}: {e:?}"));
        if leaves >= 2 {
            multi_leaf += 1;
        }
    }
    assert!(consistent > 1000, "only {consistent} consistent walks");
    assert!(
        multi_leaf > 0,
        "no searched walk completed two leaves in one seed"
    );
}

/// Random transitions, mostly dynamic with up to four changing
/// variables: many privileged cubes per function, so seeds branch often,
/// spend leaves, and meet gains a privileged implication blocks at first
/// and admits later.
fn arb_privileged_heavy(n: usize) -> impl Strategy<Value = FunctionSpec> {
    let space = (1u64 << n) - 1;
    proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), 0u64..10), 4..24).prop_map(
        move |raw| {
            let mut spec = FunctionSpec::new(n);
            for (start, c1, c2, kind) in raw {
                let change = (c1 & c2 & space).max(1 << (c1 % n as u64));
                let (from, to) = match kind {
                    0..=5 => (true, false),
                    6 | 7 => (false, true),
                    _ => (true, true),
                };
                spec.add_transition(SpecTransition {
                    start: start & space,
                    end: (start ^ change) & space,
                    from,
                    to,
                });
            }
            spec
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn cofactor_covers_equal_the_reference_on_privileged_heavy_specs(
        spec in arb_privileged_heavy(14)
    ) {
        if spec.check_consistency().is_ok() {
            check_against_reference(&spec)?;
        }
    }
}

/// Specs found by searching the generator above in which a gain that a
/// privileged implication blocks in one greedy round becomes feasible in a
/// later one (the leaf budget or an earlier commit left the implication
/// undecided): dropping such a gain for good changes the cover.
const PRIVILEGED_RETRY_SPECS: [(usize, &[(u64, u64, bool, bool)]); 2] = [
    (
        14,
        &[
            (14752, 12704, true, false),
            (3332, 2132, false, true),
            (11294, 11534, true, false),
            (1777, 2769, true, false),
            (12637, 13071, true, false),
            (956, 300, true, false),
            (11838, 9790, false, true),
            (4194, 14402, false, true),
            (10416, 4272, true, false),
            (10794, 11168, true, false),
            (13550, 13503, false, true),
            (13852, 8733, true, false),
            (13903, 13958, true, false),
            (8737, 8741, true, true),
            (4302, 4303, false, true),
            (9409, 9451, true, true),
            (10493, 127, true, true),
            (14868, 15198, true, false),
            (7821, 8077, true, true),
            (15739, 9555, true, false),
            (1776, 8800, true, true),
            (4283, 4506, true, false),
        ],
    ),
    (
        16,
        &[
            (62403, 61911, false, true),
            (30481, 44817, true, false),
            (52919, 52983, false, true),
            (17481, 17771, true, true),
            (17239, 17175, true, false),
            (7879, 7046, true, false),
            (28678, 45078, true, false),
            (3871, 3881, true, false),
            (33877, 33875, false, true),
            (33840, 42256, true, false),
            (12689, 24857, true, false),
            (12321, 53281, true, true),
            (64561, 60977, true, true),
            (46341, 46405, false, true),
            (24032, 32673, false, true),
            (12635, 12665, true, true),
            (17499, 17433, false, true),
            (26635, 28185, true, true),
            (31882, 15498, true, false),
            (53262, 49282, true, false),
            (38508, 46460, true, false),
            (10291, 44051, true, false),
            (58438, 50241, true, false),
        ],
    ),
];

#[test]
fn privileged_retry_specs_match_the_reference() {
    for (n, transitions) in PRIVILEGED_RETRY_SPECS {
        let mut spec = FunctionSpec::new(n);
        for &(start, end, from, to) in transitions {
            spec.add_transition(SpecTransition {
                start,
                end,
                from,
                to,
            });
        }
        spec.check_consistency()
            .expect("recorded specs are consistent");
        let leaves = check_against_reference(&spec).expect("production equals the reference");
        assert!(leaves >= 2, "n={n}: most leaves per seed {leaves}");
    }
}
