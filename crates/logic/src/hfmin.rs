//! Hazard-free two-level minimization for multiple-input-change transitions.
//!
//! This is the engine behind the Minimalist-equivalent synthesizer: the exact
//! hazard-free minimization theory of Nowick and Dill. A Boolean function is
//! specified *only* through a set of multiple-input-change (MIC)
//! [`SpecTransition`]s; everything outside the transition cubes is a don't
//! care. The minimizer returns a sum-of-products cover that is free of logic
//! hazards for every specified transition:
//!
//! * every **required cube** (1→1 transition cubes; the maximal start-point ON
//!   subcubes of 1→0 transitions; the end point of 0→1 transitions) is
//!   contained in a *single* product, and
//! * no product **illegally intersects** a *privileged cube* (the transition
//!   cube of a dynamic transition) — a product touching a 1→0 cube must
//!   contain its start point, and one touching a 0→1 cube must contain its
//!   end point.
//!
//! [`FunctionSpec::minimize_opts`] is the one driver for both engines. It
//! derives the required, OFF and privileged sets once, checks that every
//! required cube is feasible, and runs one EXPAND chosen by width: up to
//! the backend's threshold of variables it enumerates every DHF prime by
//! canonical ascent, beyond it takes one cube-cofactor pick per required
//! cube ([`crate::espresso`]). One covering step and one post-check then
//! turn either column set into the cover.
//!
//! Every entry point runs on the calling thread. A burst-mode controller
//! kept within the paper's §4.4 size restrictions minimizes in about a
//! millisecond, so the flow spreads whole controller shapes over its
//! workers instead of splitting one function's work.

use crate::cover::Cover;
use crate::covering::CoveringProblem;
use crate::cube::{Cube, Point};
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

/// Variable-count ceiling of exhaustive DHF-prime enumeration: the width
/// threshold of [`MinimizeBackend::ExactPrimes`], above which
/// [`FunctionSpec::dhf_primes`] refuses with [`HfminError::TooWide`].
pub const EXACT_PRIME_VARS: usize = 14;

/// The width threshold of [`MinimizeBackend::Auto`]: functions of at most
/// this many variables enumerate their primes, wider ones take the
/// cube-cofactor picks. Matches the widest specs the property suite
/// cross-checks against the exactness oracle.
pub const AUTO_EXACT_VARS: usize = 10;

/// Covering effort over an enumerated prime set, which runs to thousands
/// of columns on wide functions.
const PRIME_COVER_EFFORT: u64 = 200_000;

/// Covering effort over the cube-cofactor picks: at most one column per
/// required cube, so a modest budget is almost always exact in practice.
const PICK_COVER_EFFORT: u64 = 50_000;

/// Which EXPAND [`FunctionSpec::minimize_opts`] runs, as a width
/// threshold: a function of at most the backend's threshold of variables
/// enumerates every DHF prime, a wider one takes the cube-cofactor picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MinimizeBackend {
    /// Threshold [`EXACT_PRIME_VARS`]: every function it can enumerate gets
    /// the full prime set and an exactly solved covering problem (the
    /// exactness oracle); wider functions take the cube-cofactor picks, as
    /// under [`MinimizeBackend::Auto`].
    ExactPrimes,
    /// No threshold: every function takes the espresso-style cube-cofactor
    /// picks ([`crate::espresso`]), one good DHF prime per required cube
    /// without enumerating the rest. Valid and hazard-free by construction;
    /// not guaranteed minimum.
    CubeCofactor,
    /// Threshold [`AUTO_EXACT_VARS`]: small controllers keep their exact
    /// covers while the big cluster functions skip prime enumeration.
    #[default]
    Auto,
}

impl MinimizeBackend {
    /// The widest function, in variables, this backend enumerates.
    fn exact_vars(self) -> Option<usize> {
        match self {
            MinimizeBackend::ExactPrimes => Some(EXACT_PRIME_VARS),
            MinimizeBackend::CubeCofactor => None,
            MinimizeBackend::Auto => Some(AUTO_EXACT_VARS),
        }
    }
}

/// How an injected prime-generation fault manifests (the logic-crate end of
/// the flow's `BMBE_FAULT=prime_gen:...` plans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimeGenFault {
    /// Panic at the start of prime generation.
    Panic,
    /// Return [`HfminError::Injected`] instead.
    Error,
}

/// Knobs of one minimization run.
#[derive(Debug, Clone, Copy)]
pub struct MinimizeOptions {
    /// Engine selection.
    pub backend: MinimizeBackend,
    /// Ignored: minimization runs on the calling thread. The field stays
    /// because the benchmark harness (`perfbench/src/replay.rs`), which
    /// builds against this API as it is, spells it out.
    pub threads: usize,
    /// Deterministic fault injection into prime generation (tests only).
    pub fault: Option<PrimeGenFault>,
}

impl Default for MinimizeOptions {
    fn default() -> Self {
        MinimizeOptions {
            backend: MinimizeBackend::default(),
            threads: 1,
            fault: None,
        }
    }
}

/// Trips an armed prime-generation fault (no-op when unarmed).
fn trip_prime_gen_fault(fault: Option<PrimeGenFault>) -> Result<(), HfminError> {
    match fault {
        None => Ok(()),
        Some(PrimeGenFault::Error) => Err(HfminError::Injected),
        Some(PrimeGenFault::Panic) => panic!("injected fault: panic at phase prime_gen"),
    }
}

/// One specified multiple-input-change transition of a single-output
/// function: the inputs move monotonically from `start` to `end` (each
/// variable changing at most once), and the function moves from `from`
/// to `to`. In burst-mode synthesis the function change happens only once
/// the full input burst has arrived, i.e. at `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecTransition {
    /// Input vector at the start of the transition.
    pub start: Point,
    /// Input vector once every changing input has arrived.
    pub end: Point,
    /// Function value at `start` (and throughout the cube except `end`,
    /// when `from != to`).
    pub from: bool,
    /// Function value at `end`.
    pub to: bool,
}

impl SpecTransition {
    /// The transition cube spanned by the start and end points.
    pub fn cube(&self, n: usize) -> Cube {
        Cube::spanning(n, self.start, self.end)
    }

    /// Whether the function value changes across this transition.
    pub fn is_dynamic(&self) -> bool {
        self.from != self.to
    }
}

/// A single-output function specified by MIC transitions over `n` variables.
#[derive(Debug, Clone)]
pub struct FunctionSpec {
    n: usize,
    transitions: Vec<SpecTransition>,
}

/// A dynamic transition cube together with its privileged point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrivilegedCube {
    /// The transition cube no product may illegally intersect.
    pub cube: Cube,
    /// The point a product intersecting `cube` must contain.
    pub point: Point,
}

/// Errors produced by the hazard-free minimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HfminError {
    /// Two transitions assign contradictory values to a common point.
    ConflictingSpec {
        /// A point receiving both values.
        point: Point,
    },
    /// A required cube is not a hazard-free implicant, so no hazard-free
    /// cover exists (Nowick–Dill infeasibility condition).
    NoHazardFreeCover {
        /// The offending required cube.
        required: Cube,
    },
    /// A transition's start equals its end but `from != to`.
    DegenerateDynamic {
        /// The offending transition.
        transition: SpecTransition,
    },
    /// Prime generation was aborted by an injected fault (see
    /// [`PrimeGenFault`]); only producible under fault injection.
    Injected,
    /// The engine's own cover failed its post-covering check (an internal
    /// error: the covering solver left a required cube uncovered).
    BadCover {
        /// What the check found.
        detail: String,
    },
    /// Prime enumeration was asked for a function wider than
    /// [`EXACT_PRIME_VARS`] variables, where it is exponential.
    TooWide {
        /// The function's variable count.
        vars: usize,
    },
}

impl fmt::Display for HfminError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HfminError::ConflictingSpec { point } => {
                write!(
                    f,
                    "conflicting function values specified at point {point:#b}"
                )
            }
            HfminError::NoHazardFreeCover { required } => {
                write!(
                    f,
                    "no hazard-free cover exists: required cube {required} is not a dhf-implicant"
                )
            }
            HfminError::DegenerateDynamic { transition } => {
                write!(
                    f,
                    "dynamic transition with no changing inputs at {:#b}",
                    transition.start
                )
            }
            HfminError::Injected => {
                write!(f, "prime generation aborted by an injected fault")
            }
            HfminError::BadCover { detail } => {
                write!(f, "internal: minimizer produced a bad cover: {detail}")
            }
            HfminError::TooWide { vars } => write!(
                f,
                "prime enumeration refused: {vars} variables exceed {EXACT_PRIME_VARS}"
            ),
        }
    }
}

impl std::error::Error for HfminError {}

/// Engine counts and wall-clock breakdown of one minimization run. The
/// flow's phase times come from the `hfmin.*` spans, not from here.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimizeStats {
    /// Time spent in the `hfmin.prime_gen` span: the feasibility check and
    /// the EXPAND (all primes, or the cube-cofactor picks). Kept because
    /// the benchmark harness (`perfbench/src/replay.rs`), which builds
    /// against this API as it is, reads it.
    pub prime_gen: Duration,
    /// Time spent in the `hfmin.covering` span, selecting products. Kept
    /// for the benchmark harness, as `prime_gen` is.
    pub covering: Duration,
    /// Functions whose primes were enumerated.
    pub exact_funcs: usize,
    /// Functions that took the cube-cofactor picks.
    pub cofactor_funcs: usize,
    /// Deepest cube-cofactor recursion observed (0 on the exact path).
    pub cofactor_depth: usize,
}

impl MinimizeStats {
    /// Sums another run's stats into this one (`cofactor_depth` takes the
    /// maximum; everything else adds).
    pub fn accumulate(&mut self, other: &MinimizeStats) {
        self.prime_gen += other.prime_gen;
        self.covering += other.covering;
        self.exact_funcs += other.exact_funcs;
        self.cofactor_funcs += other.cofactor_funcs;
        self.cofactor_depth = self.cofactor_depth.max(other.cofactor_depth);
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct HfminResult {
    /// The selected hazard-free cover.
    pub cover: Cover,
    /// Whether the cover is provably minimum: the full DHF-prime set was
    /// enumerated and the covering step was solved exactly.
    pub exact: bool,
    /// Number of DHF-prime implicants generated.
    pub num_primes: usize,
    /// Per-phase timing of this run.
    pub stats: MinimizeStats,
}

/// The sets one minimization works from, derived once per function.
pub(crate) struct Constraints {
    /// Required cubes, in specification order, without duplicates.
    pub(crate) required: Vec<Cube>,
    /// The OFF-set, largest cube (fewest literals) first, so the implicant
    /// tests meet the likeliest blocker early. Same set, same results.
    pub(crate) off: Cover,
    /// Privileged cubes of the dynamic transitions.
    pub(crate) privileged: Vec<PrivilegedCube>,
}

impl Constraints {
    /// The sets of `spec`, given its OFF-set in specification order.
    fn of(spec: &FunctionSpec, off: &Cover) -> Constraints {
        let mut largest_first = off.cubes().to_vec();
        largest_first.sort_by_key(Cube::num_literals);
        Constraints {
            required: spec.required_cubes(),
            off: Cover::from_cubes(largest_first),
            privileged: spec.privileged_cubes(),
        }
    }
}

/// Multiply-add hasher for the ascent's sets of masks and cubes: one
/// multiply per word where SipHash spends dozens of cycles, and no
/// per-process seed. The final rotation moves the well-mixed high product
/// bits down to where `HashSet` picks its bucket.
#[derive(Default, Clone, Copy)]
pub(crate) struct MaskHasher(u64);

impl MaskHasher {
    fn add(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for MaskHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.add(u64::from(b));
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A hash set keyed through [`MaskHasher`].
pub(crate) type MaskSet<T> = HashSet<T, BuildHasherDefault<MaskHasher>>;

/// One seed's DHF-implicant test compiled into bit-mask constraints over
/// the set `S` of freed variables (bit `i` of `s` set ⇔ variable `i`
/// freed). Both prime engines compile every seed through this one type;
/// the cube-cofactor engine reuses one instance across the seeds of a
/// function.
///
/// * An OFF cube `o` blocks `S` iff its disagreement mask `D_o`
///   (variables where the seed and `o` disagree) is contained in `S`. Only
///   the inclusion-minimal masks are kept: if `D ⊆ D'` then `D' ⊆ S`
///   implies `D ⊆ S`, so `D'` never decides anything.
/// * An active privileged cube `q` contributes the implication
///   `D_q ⊆ S → A_q ⊆ S` (`A_q` = variables where the seed differs from
///   the privileged point), kept in specification order because the
///   cube-cofactor recursion branches on the first undecided one.
#[derive(Debug, Default)]
pub(crate) struct SeedMasks {
    /// Variables fixed in the seed, i.e. the ones expansion may free.
    pub(crate) freeable: u64,
    /// The seed's value mask.
    pub(crate) value: u64,
    /// Inclusion-minimal OFF disagreement masks.
    pub(crate) off: Vec<u64>,
    /// Active privileged implications `(d, a)`: `d ⊆ S → a ⊆ S`.
    pub(crate) privileged: Vec<(u64, u64)>,
    /// Union of the active consequences `a`: the variables whose freeing
    /// order a privileged implication can constrain.
    pub(crate) exempt: u64,
}

impl SeedMasks {
    /// Compiles the constraints of `seed`, a DHF implicant, into this
    /// instance's buffers.
    pub(crate) fn compile(&mut self, seed: Cube, sets: &Constraints) {
        let freeable = seed.care_mask();
        let value = seed.value_mask();
        self.freeable = freeable;
        self.value = value;
        // Online minimal-set build: skip a mask that contains a kept one,
        // evict the kept masks that contain the new one.
        self.off.clear();
        for o in sets.off.cubes() {
            let d = (value ^ o.value_mask()) & (freeable & o.care_mask());
            debug_assert!(d != 0, "seed must be an implicant");
            if self.off.iter().any(|&k| k & !d == 0) {
                continue;
            }
            self.off.retain(|&k| d & !k != 0);
            self.off.push(d);
        }
        self.privileged.clear();
        self.exempt = 0;
        for p in &sets.privileged {
            let d = (value ^ p.cube.value_mask()) & (freeable & p.cube.care_mask());
            if d == 0 {
                // The seed intersects this privileged cube; as a DHF
                // implicant it contains the privileged point, and so does
                // every expansion — the constraint can never bite.
                debug_assert_eq!((p.point ^ value) & freeable, 0);
                continue;
            }
            let a = (p.point ^ value) & freeable;
            debug_assert_eq!(d & !a, 0, "D_q is a subset of A_q");
            if a == d {
                continue; // D ⊆ S → A ⊆ S holds trivially
            }
            self.exempt |= a;
            self.privileged.push((d, a));
        }
    }

    /// Whether some OFF cube blocks `s`. Monotone: once blocked, every
    /// superset of `s` is blocked too.
    pub(crate) fn off_blocked(&self, s: u64) -> bool {
        self.off.iter().any(|&d| d & !s == 0)
    }

    /// Whether some privileged implication is triggered but unmet at `s`.
    pub(crate) fn priv_blocked(&self, s: u64) -> bool {
        self.privileged
            .iter()
            .any(|&(d, a)| d & !s == 0 && a & !s != 0)
    }

    /// The full DHF-implicant predicate over `S`.
    pub(crate) fn ok(&self, s: u64) -> bool {
        !self.off_blocked(s) && !self.priv_blocked(s)
    }

    /// The cube obtained by freeing `s` from the seed.
    pub(crate) fn cube_of(&self, n: usize, s: u64) -> Cube {
        Cube::from_masks(n, self.freeable & !s, self.value)
    }
}

impl FunctionSpec {
    /// Creates an empty specification over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn new(n: usize) -> Self {
        assert!(n <= 64);
        FunctionSpec {
            n,
            transitions: Vec::new(),
        }
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// The specified transitions.
    pub fn transitions(&self) -> &[SpecTransition] {
        &self.transitions
    }

    /// Adds a specified transition.
    pub fn add_transition(&mut self, t: SpecTransition) {
        self.transitions.push(t);
    }

    /// Convenience: add a static transition holding value `v` across the
    /// cube spanned by `start`/`end`.
    pub fn add_static(&mut self, start: Point, end: Point, v: bool) {
        self.add_transition(SpecTransition {
            start,
            end,
            from: v,
            to: v,
        });
    }

    /// Convenience: add a dynamic transition.
    pub fn add_dynamic(&mut self, start: Point, end: Point, from: bool) {
        self.add_transition(SpecTransition {
            start,
            end,
            from,
            to: !from,
        });
    }

    /// The ON-set as a cover (union of the points where the function is 1).
    pub fn on_set(&self) -> Cover {
        let mut on = Cover::empty();
        for t in &self.transitions {
            let cube = t.cube(self.n);
            match (t.from, t.to) {
                (true, true) => on.push(cube),
                (false, false) => {}
                (false, true) => on.push(Cube::minterm(self.n, t.end)),
                (true, false) => on.extend(self.cube_minus_end(t)),
            }
        }
        on
    }

    /// The OFF-set as a cover.
    pub fn off_set(&self) -> Cover {
        let mut off = Cover::empty();
        for t in &self.transitions {
            let cube = t.cube(self.n);
            match (t.from, t.to) {
                (true, true) => {}
                (false, false) => off.push(cube),
                (false, true) => off.extend(self.cube_minus_end(t)),
                (true, false) => off.push(Cube::minterm(self.n, t.end)),
            }
        }
        off
    }

    /// The transition cube with the end point removed, expressed as the
    /// union of the maximal subcubes that fix one changing variable at its
    /// start value. Empty when the transition is degenerate.
    fn cube_minus_end(&self, t: &SpecTransition) -> Vec<Cube> {
        let cube = t.cube(self.n);
        let changing = t.start ^ t.end;
        let mut out = Vec::new();
        for i in 0..self.n {
            if changing >> i & 1 == 1 {
                out.push(cube.with_fixed(i, t.start >> i & 1 == 1));
            }
        }
        out
    }

    /// Required cubes per the Nowick–Dill conditions.
    pub fn required_cubes(&self) -> Vec<Cube> {
        let mut req = Vec::new();
        for t in &self.transitions {
            let cube = t.cube(self.n);
            match (t.from, t.to) {
                (true, true) => req.push(cube),
                (false, false) => {}
                // Rising transition: only its end point is ON; it must lie in
                // a product (which the privileged condition then forces to be
                // on for the remainder of the burst).
                (false, true) => req.push(Cube::minterm(self.n, t.end)),
                // Falling transition: each maximal ON subcube containing the
                // start point must be held by a single product.
                (true, false) => req.extend(self.cube_minus_end(t)),
            }
        }
        // Dedup while preserving order.
        let mut seen: MaskSet<Cube> = MaskSet::default();
        req.retain(|c| seen.insert(*c));
        req
    }

    /// Privileged cubes of the dynamic transitions.
    pub fn privileged_cubes(&self) -> Vec<PrivilegedCube> {
        let mut priv_cubes = Vec::new();
        for t in &self.transitions {
            if !t.is_dynamic() {
                continue;
            }
            let cube = t.cube(self.n);
            let point = if t.from { t.start } else { t.end };
            priv_cubes.push(PrivilegedCube { cube, point });
        }
        let mut seen: MaskSet<(Cube, Point)> = MaskSet::default();
        priv_cubes.retain(|p| seen.insert((p.cube, p.point)));
        priv_cubes
    }

    /// Checks that no point is assigned both 0 and 1.
    ///
    /// # Errors
    ///
    /// Returns [`HfminError::ConflictingSpec`] on contradiction and
    /// [`HfminError::DegenerateDynamic`] for a dynamic transition whose
    /// start equals its end.
    pub fn check_consistency(&self) -> Result<(), HfminError> {
        self.check_consistency_against(&self.off_set())
    }

    /// [`FunctionSpec::check_consistency`] against `off`, this function's
    /// OFF-set in specification order.
    fn check_consistency_against(&self, off: &Cover) -> Result<(), HfminError> {
        for t in &self.transitions {
            if t.is_dynamic() && t.start == t.end {
                return Err(HfminError::DegenerateDynamic { transition: *t });
            }
        }
        for c_on in self.on_set().cubes() {
            for c_off in off.cubes() {
                if let Some(ix) = c_on.intersection(c_off) {
                    let point = ix.points().next().expect("nonempty intersection");
                    return Err(HfminError::ConflictingSpec { point });
                }
            }
        }
        Ok(())
    }

    /// Whether `cube` is a DHF-implicant: an implicant (no OFF point) with no
    /// illegal privileged-cube intersection.
    pub fn is_dhf_implicant(
        &self,
        cube: &Cube,
        off: &Cover,
        privileged: &[PrivilegedCube],
    ) -> bool {
        if off.intersects(cube) {
            return false;
        }
        privileged
            .iter()
            .all(|p| !cube.intersects(&p.cube) || cube.contains_point(p.point))
    }

    /// The first required cube that is not a DHF implicant, as the error
    /// that makes the whole specification infeasible: a cube that some
    /// later prime or pick happens to cover is still not redundant.
    fn check_feasible(&self, sets: &Constraints) -> Result<(), HfminError> {
        match sets
            .required
            .iter()
            .find(|r| !self.is_dhf_implicant(r, &sets.off, &sets.privileged))
        {
            Some(r) => Err(HfminError::NoHazardFreeCover { required: *r }),
            None => Ok(()),
        }
    }

    /// The constraint sets of a function narrow enough to enumerate, each
    /// required cube checked feasible.
    fn enumerable_constraints(&self) -> Result<Constraints, HfminError> {
        if self.n > EXACT_PRIME_VARS {
            return Err(HfminError::TooWide { vars: self.n });
        }
        let sets = Constraints::of(self, &self.off_set());
        self.check_feasible(&sets)?;
        Ok(sets)
    }

    /// Generates every DHF-prime implicant containing at least one required
    /// cube (sufficient for covering, since the ON-set is the union of the
    /// required cubes): exact minimization, as in Minimalist, via the
    /// canonical-ascent worklist of [`FunctionSpec::expand_canonical`].
    ///
    /// # Errors
    ///
    /// Returns [`HfminError::TooWide`] above [`EXACT_PRIME_VARS`] variables,
    /// where the enumeration is exponential, and
    /// [`HfminError::NoHazardFreeCover`] when some required cube is not a
    /// DHF implicant.
    pub fn dhf_primes(&self) -> Result<Vec<Cube>, HfminError> {
        let sets = self.enumerable_constraints()?;
        Ok(self.enumerate_primes(&sets))
    }

    /// Reference implementation of [`FunctionSpec::dhf_primes`]: the seed's
    /// exhaustive per-cube recursion. Kept as the oracle the canonical-ascent
    /// worklist is property-tested (and benchmarked) against; the two return
    /// exactly the same prime set, and refuse the same specifications.
    ///
    /// # Errors
    ///
    /// As [`FunctionSpec::dhf_primes`].
    pub fn dhf_primes_reference(&self) -> Result<Vec<Cube>, HfminError> {
        let sets = self.enumerable_constraints()?;
        let mut primes: MaskSet<Cube> = MaskSet::default();
        let mut visited: MaskSet<Cube> = MaskSet::default();
        for r in &sets.required {
            self.expand_to_primes(*r, &sets, &mut visited, &mut primes);
        }
        Ok(Self::maximal_sorted(primes))
    }

    /// The canonical-ascent EXPAND: every DHF prime above some required
    /// cube, maximal ones only, in a deterministic order.
    fn enumerate_primes(&self, sets: &Constraints) -> Vec<Cube> {
        let mut primes: MaskSet<Cube> = MaskSet::default();
        let mut visited: MaskSet<Cube> = MaskSet::default();
        for r in &sets.required {
            self.expand_canonical(*r, sets, &mut visited, &mut primes);
        }
        Self::maximal_sorted(primes)
    }

    /// Keeps only maximal cubes, in a deterministic order.
    fn maximal_sorted(primes: MaskSet<Cube>) -> Vec<Cube> {
        let mut out: Vec<Cube> = primes.into_iter().collect();
        out.sort_by_key(|c| c.num_literals());
        let mut maximal: Vec<Cube> = Vec::new();
        for c in out {
            if !maximal.iter().any(|m| m.contains_cube(&c) && *m != c) {
                maximal.push(c);
            }
        }
        maximal.sort_unstable();
        maximal
    }

    /// Canonical-ascent worklist expansion of one required cube to the DHF
    /// primes above it. Produces exactly the set [`expand_to_primes`] would
    /// (same reachable cubes, same primes), but:
    ///
    /// * the DHF-implicant test is compiled, per seed, into the bit-mask
    ///   constraints of [`SeedMasks`] over the set `S` of freed variables,
    ///   so each candidate check is a handful of word operations;
    /// * variables not mentioned by any privileged constraint are *ordered*:
    ///   they may only be freed in ascending index, which collapses the
    ///   factorially many freeing orders the plain recursion wades through
    ///   into one canonical chain per cube. Privileged-constrained variables
    ///   stay unordered because their freeing order can decide whether an
    ///   intermediate cube is hazard-free at all.
    ///
    /// The visited set, shared across seeds, only stops re-expansion, so
    /// the cubes expanded and the primes found do not depend on the order
    /// the worklist is drained in.
    ///
    /// [`expand_to_primes`]: FunctionSpec::expand_to_primes
    fn expand_canonical(
        &self,
        seed: Cube,
        sets: &Constraints,
        visited: &mut MaskSet<Cube>,
        primes: &mut MaskSet<Cube>,
    ) {
        if !visited.insert(seed) {
            return; // region already explored from an earlier seed
        }
        let mut m = SeedMasks::default();
        m.compile(seed, sets);
        let ordered = m.freeable & !m.exempt;
        let mut worklist: Vec<u64> = vec![0];
        let mut explored = 0u64;
        while let Some(s) = worklist.pop() {
            explored += 1;
            // Ordered variables may only ascend past the highest one freed
            // so far (a property of the *set* S, not of the path to it).
            let freed_ordered = s & ordered;
            let ascend = if freed_ordered == 0 {
                ordered
            } else {
                ordered & !(u64::MAX >> freed_ordered.leading_zeros())
            };
            let expandable = m.exempt | ascend;
            let mut grew = false;
            let mut rest = m.freeable & !s;
            while rest != 0 {
                let i = rest.trailing_zeros();
                rest &= rest - 1;
                let s2 = s | 1u64 << i;
                if m.ok(s2) {
                    // Primality considers every variable; the canonical
                    // order only restricts which successors are *explored*.
                    grew = true;
                    if expandable >> i & 1 == 1 && visited.insert(m.cube_of(self.n, s2)) {
                        worklist.push(s2);
                    }
                }
            }
            if !grew {
                primes.insert(m.cube_of(self.n, s));
            }
        }
        bmbe_obs::trace_counter!("hfmin.worklist.explored", explored);
    }

    fn expand_to_primes(
        &self,
        cube: Cube,
        sets: &Constraints,
        visited: &mut MaskSet<Cube>,
        primes: &mut MaskSet<Cube>,
    ) {
        if !visited.insert(cube) {
            return;
        }
        let mut grew = false;
        for i in 0..self.n {
            if !cube.is_fixed(i) {
                continue;
            }
            let bigger = cube.with_free(i);
            if self.is_dhf_implicant(&bigger, &sets.off, &sets.privileged) {
                grew = true;
                self.expand_to_primes(bigger, sets, visited, primes);
            }
        }
        if !grew {
            primes.insert(cube);
        }
    }

    /// Runs the complete hazard-free minimization with the default knobs
    /// ([`MinimizeBackend::Auto`], no faults).
    ///
    /// # Errors
    ///
    /// Propagates specification inconsistencies and hazard-free
    /// infeasibility; see [`HfminError`].
    pub fn minimize(&self) -> Result<HfminResult, HfminError> {
        self.minimize_opts(&MinimizeOptions::default())
    }

    /// [`FunctionSpec::minimize`] with explicit [`MinimizeOptions`]: backend
    /// selection and deterministic fault injection. The one minimization
    /// driver: consistency, the constraint sets, the prime-generation
    /// fault, feasibility, the EXPAND the backend's width threshold picks,
    /// one covering step and one post-check. It annotates the enclosing
    /// span with `hfmin.engine` and `hfmin.vars`, and counts each cover it
    /// returns as `hfmin.engine.exact` or `hfmin.engine.cofactor`.
    ///
    /// # Errors
    ///
    /// Propagates specification inconsistencies and hazard-free
    /// infeasibility; see [`HfminError`]. Returns [`HfminError::Injected`]
    /// when `opts.fault` is armed with [`PrimeGenFault::Error`].
    pub fn minimize_opts(&self, opts: &MinimizeOptions) -> Result<HfminResult, HfminError> {
        let off = self.off_set();
        self.check_consistency_against(&off)?;
        let sets = Constraints::of(self, &off);
        if sets.required.is_empty() {
            return Ok(HfminResult {
                cover: Cover::empty(),
                exact: true,
                num_primes: 0,
                stats: MinimizeStats::default(),
            });
        }
        let enumerate = opts.backend.exact_vars().is_some_and(|max| self.n <= max);
        let engine = if enumerate { "exact" } else { "cofactor" };
        bmbe_obs::annotate_str!("hfmin.engine", engine);
        bmbe_obs::annotate_num!("hfmin.vars", self.n);
        trip_prime_gen_fault(opts.fault)?;
        let span = bmbe_obs::span!("hfmin.prime_gen", "hfmin");
        let started = Instant::now();
        self.check_feasible(&sets)?;
        let (columns, cofactor_depth) = if enumerate {
            (self.enumerate_primes(&sets), 0)
        } else {
            crate::espresso::cofactor_picks(self, &sets)
        };
        let prime_gen = started.elapsed();
        drop(span);
        let _span = bmbe_obs::span!("hfmin.covering", "hfmin");
        let started = Instant::now();
        let mut problem = CoveringProblem::new(sets.required.len());
        for p in &columns {
            let rows: Vec<usize> = (sets.required.iter().enumerate())
                .filter(|(_, r)| p.contains_cube(r))
                .map(|(i, _)| i)
                .collect();
            problem.add_column(rows, 1, p.num_literals() as u64);
        }
        let effort = if enumerate {
            PRIME_COVER_EFFORT
        } else {
            PICK_COVER_EFFORT
        };
        // `solve` refuses only when some required cube lies in no column;
        // the post-check over every column then names that cube.
        let (selected, solved_exactly) = match problem.solve(effort) {
            Some(solution) => (solution.columns, solution.exact),
            None => ((0..columns.len()).collect(), false),
        };
        let covering = started.elapsed();
        let cover: Cover = selected.iter().map(|&c| columns[c]).collect();
        check_required_covered(&sets.required, &cover, &columns)?;
        if enumerate {
            bmbe_obs::trace_counter!("hfmin.engine.exact", 1);
        } else {
            bmbe_obs::trace_counter!("hfmin.engine.cofactor", 1);
        }
        Ok(HfminResult {
            cover,
            // The picks are not the full prime set, so only an enumerated,
            // exactly solved cover is provably minimum.
            exact: enumerate && solved_exactly,
            num_primes: columns.len(),
            stats: MinimizeStats {
                prime_gen,
                covering,
                exact_funcs: usize::from(enumerate),
                cofactor_funcs: usize::from(!enumerate),
                cofactor_depth,
            },
        })
    }

    /// Verifies structurally that `cover` is a hazard-free cover of this
    /// specification; returns a description of the first violation.
    pub fn verify_cover(&self, cover: &Cover) -> Result<(), String> {
        let off = self.off_set();
        for c in cover.cubes() {
            if off.intersects(c) {
                return Err(format!("product {c} intersects the OFF-set"));
            }
        }
        for r in self.required_cubes() {
            if !cover.some_cube_contains(&r) {
                return Err(format!(
                    "required cube {r} not contained in a single product"
                ));
            }
        }
        for p in self.privileged_cubes() {
            for c in cover.cubes() {
                if c.intersects(&p.cube) && !c.contains_point(p.point) {
                    return Err(format!(
                        "product {c} illegally intersects privileged cube {} (point {:#b})",
                        p.cube, p.point
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The post-covering check of both engines: every required cube must lie
/// in one product of the selected `cover` (the covering solver guarantees
/// it; a violation is an internal error, reported instead of panicking).
fn check_required_covered(
    required: &[Cube],
    cover: &Cover,
    primes: &[Cube],
) -> Result<(), HfminError> {
    match required.iter().find(|r| !cover.some_cube_contains(r)) {
        None => Ok(()),
        Some(bad) => {
            let holders = primes.iter().filter(|p| p.contains_cube(bad)).count();
            Err(HfminError::BadCover {
                detail: format!(
                    "required cube {bad} is uncovered though {holders} of {} primes contain it",
                    primes.len()
                ),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Tv;

    /// The classic hazard example: f = x0 x1' + x1 x2 with a 1->1 transition
    /// across x1 requires the consensus term.
    fn consensus_spec() -> FunctionSpec {
        consensus_spec_over(3)
    }

    /// [`consensus_spec`] over `n` variables, every one above `x2` held at 0.
    fn consensus_spec_over(n: usize) -> FunctionSpec {
        let mut spec = FunctionSpec::new(n);
        // The textbook f = x0 x1' + x1 x2 with its full ON/OFF sets.
        spec.add_static(0b001, 0b101, true); // x0 x1' (x2 free)
        spec.add_static(0b110, 0b111, true); // x1 x2 (x0 free)
        spec.add_static(0b101, 0b111, true); // 1 -> 1 while x1 rises
        for off in [0b000u64, 0b010, 0b011, 0b100] {
            spec.add_static(off, off, false);
        }
        spec
    }

    #[test]
    fn static11_requires_single_product() {
        let spec = consensus_spec();
        let result = spec.minimize().unwrap();
        // Transition cube 1-1 must be inside one product; with the full
        // OFF-set the only such implicant is the consensus term itself, so
        // the hazard-free minimum has three products (vs two for QM).
        let t = Cube::parse("1-1").unwrap();
        assert!(
            result.cover.some_cube_contains(&t),
            "cover: {}",
            result.cover
        );
        assert_eq!(result.cover.len(), 3, "cover: {}", result.cover);
        spec.verify_cover(&result.cover).unwrap();
        // And a ternary check agrees: with x1 = X, output stays 1.
        assert_eq!(
            result.cover.eval_ternary(&[Tv::One, Tv::X, Tv::One]),
            Tv::One
        );
    }

    #[test]
    fn exact_primes_enumerates_up_to_its_threshold() -> Result<(), HfminError> {
        let opts = MinimizeOptions {
            backend: MinimizeBackend::ExactPrimes,
            ..MinimizeOptions::default()
        };
        let spec = consensus_spec_over(EXACT_PRIME_VARS);
        let result = spec.minimize_opts(&opts)?;
        assert_eq!(spec.verify_cover(&result.cover), Ok(()));
        assert_eq!(result.stats.exact_funcs, 1);
        assert!(result.exact);
        for n in [EXACT_PRIME_VARS + 1, 20] {
            let spec = consensus_spec_over(n);
            let result = spec.minimize_opts(&opts)?;
            assert_eq!(spec.verify_cover(&result.cover), Ok(()), "n={n}");
            assert_eq!(result.stats.cofactor_funcs, 1, "n={n}");
            assert_eq!(result.stats.exact_funcs, 0, "n={n}");
            assert!(!result.exact, "n={n}");
        }
        Ok(())
    }

    #[test]
    fn exact_primes_takes_the_cofactor_picks_above_its_threshold() -> Result<(), HfminError> {
        let backend = |backend| MinimizeOptions {
            backend,
            ..MinimizeOptions::default()
        };
        for n in [EXACT_PRIME_VARS + 1, 20] {
            let spec = consensus_spec_over(n);
            let exact = spec.minimize_opts(&backend(MinimizeBackend::ExactPrimes))?;
            let cofactor = spec.minimize_opts(&backend(MinimizeBackend::CubeCofactor))?;
            assert!(exact.cover == cofactor.cover, "n={n}: {}", exact.cover);
            assert_eq!(exact.num_primes, cofactor.num_primes, "n={n}");
        }
        // Enumeration itself refuses that width instead of walking it.
        let wide = consensus_spec_over(EXACT_PRIME_VARS + 1);
        let too_wide = Err(HfminError::TooWide {
            vars: EXACT_PRIME_VARS + 1,
        });
        assert_eq!(wide.dhf_primes(), too_wide);
        assert_eq!(wide.dhf_primes_reference(), too_wide);
        Ok(())
    }

    #[test]
    fn conflicting_spec_detected() {
        let mut spec = FunctionSpec::new(2);
        spec.add_static(0b00, 0b00, true);
        spec.add_static(0b00, 0b00, false);
        assert!(matches!(
            spec.check_consistency(),
            Err(HfminError::ConflictingSpec { .. })
        ));
    }

    #[test]
    fn degenerate_dynamic_detected() {
        let mut spec = FunctionSpec::new(2);
        spec.add_dynamic(0b00, 0b00, false);
        assert!(matches!(
            spec.check_consistency(),
            Err(HfminError::DegenerateDynamic { .. })
        ));
    }

    #[test]
    fn rising_transition_privilege() {
        // 0 -> 1 transition from 00 to 11; function 1 only at 11.
        let mut spec = FunctionSpec::new(2);
        spec.add_dynamic(0b00, 0b11, false);
        let privileged = spec.privileged_cubes();
        assert_eq!(privileged.len(), 1);
        assert_eq!(privileged[0].point, 0b11);
        let result = spec.minimize().unwrap();
        spec.verify_cover(&result.cover).unwrap();
        // The single product must contain 11 and avoid 00,01,10 (OFF).
        assert!(result.cover.eval(0b11));
        assert!(!result.cover.eval(0b00));
        assert!(!result.cover.eval(0b01));
        assert!(!result.cover.eval(0b10));
    }

    #[test]
    fn falling_transition_required_cubes() {
        // 1 -> 0 from 00 to 11: ON at 00, 01, 10; OFF at 11.
        let mut spec = FunctionSpec::new(2);
        spec.add_dynamic(0b00, 0b11, true);
        let req = spec.required_cubes();
        // maximal ON subcubes containing start 00: 0- and -0.
        assert_eq!(req.len(), 2);
        let result = spec.minimize().unwrap();
        spec.verify_cover(&result.cover).unwrap();
        assert_eq!(result.cover.len(), 2);
        assert!(result.cover.eval(0b00));
        assert!(!result.cover.eval(0b11));
    }

    #[test]
    fn privileged_blocks_merging() {
        // Two functions of 3 vars. A falling transition [A=000,B=011]
        // (cube 0--) is privileged with point 000; an unrelated stable ON
        // region x0=1 (1--). A naive minimizer could merge ON points of the
        // fall tail with the 1-- region; the dhf condition prevents covers
        // whose products dip into the privileged cube without containing 000.
        let mut spec = FunctionSpec::new(3);
        spec.add_dynamic(0b000, 0b110, true); // changing vars 1,2 (bits1,2)
        spec.add_static(0b001, 0b111, true); // x0=1 region all ON
        let result = spec.minimize().unwrap();
        spec.verify_cover(&result.cover).unwrap();
        for c in result.cover.cubes() {
            let pcube = Cube::spanning(3, 0b000, 0b110);
            assert!(
                !c.intersects(&pcube) || c.contains_point(0b000),
                "bad product {c}"
            );
        }
    }

    #[test]
    fn post_covering_check_reports_an_uncovered_required_cube() {
        let spec = consensus_spec();
        let required = spec.required_cubes();
        let primes = spec.dhf_primes().unwrap();
        // The two-product cover without the consensus term leaves the
        // 1-1 transition cube without a single holder.
        let bad: Cover = [Cube::parse("10-").unwrap(), Cube::parse("-11").unwrap()]
            .into_iter()
            .collect();
        let err = check_required_covered(&required, &bad, &primes).unwrap_err();
        assert_eq!(
            err.to_string(),
            "internal: minimizer produced a bad cover: required cube 1-1 is uncovered \
             though 1 of 3 primes contain it"
        );
        let good = spec.minimize().unwrap().cover;
        assert_eq!(check_required_covered(&required, &good, &primes), Ok(()));
    }

    #[test]
    fn empty_spec_gives_empty_cover() {
        let spec = FunctionSpec::new(4);
        let result = spec.minimize().unwrap();
        assert!(result.cover.is_empty());
    }

    #[test]
    fn verify_rejects_bad_cover() {
        let spec = consensus_spec();
        // Cover without consensus term violates the required cube.
        let bad: Cover = [Cube::parse("10-").unwrap(), Cube::parse("-11").unwrap()]
            .into_iter()
            .collect();
        assert!(spec.verify_cover(&bad).is_err());
    }

    #[test]
    fn off_and_on_sets_partition_transition_cubes() {
        let mut spec = FunctionSpec::new(3);
        spec.add_dynamic(0b000, 0b101, false);
        let on = spec.on_set();
        let off = spec.off_set();
        let cube = Cube::spanning(3, 0b000, 0b101);
        for p in cube.points() {
            let in_on = on.eval(p);
            let in_off = off.eval(p);
            assert!(in_on ^ in_off, "point {p:#b} must be exactly one of ON/OFF");
        }
        assert!(on.eval(0b101));
    }
}
