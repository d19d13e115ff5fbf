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

use crate::cover::Cover;
use crate::covering::CoveringProblem;
use crate::cube::{Cube, Point};
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

/// Variable-count ceiling for exhaustive DHF-prime enumeration; larger
/// functions use greedy expansion orders (see [`FunctionSpec::dhf_primes`]).
pub const EXACT_PRIME_VARS: usize = 14;

/// Variable-count ceiling up to which [`MinimizeBackend::Auto`] stays on the
/// exact prime-enumerating engine; larger functions are routed to the
/// espresso-style cube-cofactor backend. Matches the widest specs the
/// property suite cross-checks against the exactness oracle.
pub const AUTO_EXACT_VARS: usize = 10;

/// Minimum worklist-level width before [`FunctionSpec::expand_canonical`]
/// fans a level across the `bmbe-par` pool; narrower levels are expanded
/// inline (the chunking overhead would dominate). Low enough that the
/// determinism suite exercises real parallel merges on test-sized specs.
pub(crate) const PAR_FRONTIER_MIN: usize = 16;

/// Which engine [`FunctionSpec::minimize_opts`] uses to build the cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MinimizeBackend {
    /// Enumerate all DHF primes via the canonical-ascent worklist (exact up
    /// to [`EXACT_PRIME_VARS`] variables, greedy orders beyond), then solve
    /// the covering problem over the full prime set. The exactness oracle.
    ExactPrimes,
    /// Espresso-style recursive cube-cofactor minimizer
    /// ([`crate::espresso`]): expand each required cube to one good DHF
    /// prime without enumerating the rest, then drop redundant products.
    /// Valid and hazard-free by construction; not guaranteed minimum.
    CubeCofactor,
    /// Per function: [`MinimizeBackend::ExactPrimes`] up to
    /// [`AUTO_EXACT_VARS`] variables, [`MinimizeBackend::CubeCofactor`]
    /// beyond — small controllers keep their exact covers while the big
    /// cluster functions skip prime enumeration entirely.
    #[default]
    Auto,
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
    /// Worker budget for the partitioned canonical-ascent worklist (the
    /// exact path); `1` keeps prime generation on the calling thread. The
    /// result is bit-identical whatever the value.
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
pub(crate) fn trip_prime_gen_fault(fault: Option<PrimeGenFault>) -> Result<(), HfminError> {
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
        }
    }
}

impl std::error::Error for HfminError {}

/// Wall-clock breakdown of one minimization run, used by the flow's
/// per-phase profiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimizeStats {
    /// Time spent generating DHF implicants (all primes on the exact path;
    /// the cube-cofactor EXPAND pass on the espresso-style path).
    pub prime_gen: Duration,
    /// Time spent selecting products (the unate-covering solver on the
    /// exact path; the IRREDUNDANT pass on the espresso-style path).
    pub covering: Duration,
    /// Functions minimized through the exact prime-enumerating engine.
    pub exact_funcs: usize,
    /// Functions minimized through the cube-cofactor backend.
    pub cofactor_funcs: usize,
    /// Deepest cube-cofactor recursion observed (0 on the exact path).
    pub cofactor_depth: usize,
    /// Duplicate cubes dropped at the partitioned worklist's deterministic
    /// merge barriers (0 when prime generation ran serially).
    pub worklist_merges: usize,
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
        self.worklist_merges += other.worklist_merges;
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct HfminResult {
    /// The selected hazard-free cover.
    pub cover: Cover,
    /// Whether the covering step was solved exactly.
    pub exact: bool,
    /// Number of DHF-prime implicants generated.
    pub num_primes: usize,
    /// Per-phase timing of this run.
    pub stats: MinimizeStats,
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
    pub(crate) fn compile(&mut self, seed: Cube, off: &Cover, privileged: &[PrivilegedCube]) {
        let freeable = seed.care_mask();
        let value = seed.value_mask();
        self.freeable = freeable;
        self.value = value;
        // Online minimal-set build: skip a mask that contains a kept one,
        // evict the kept masks that contain the new one.
        self.off.clear();
        for o in off.cubes() {
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
        for p in privileged {
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

/// One worklist chunk's discoveries, deduplicated against the chunk's own
/// set only.
#[derive(Default)]
struct AscentChunk {
    seen: MaskSet<u64>,
    /// Successors worth exploring, in canonical order.
    explore: Vec<u64>,
    /// Sets that are primes (no feasible growth at all, canonical or not).
    found: Vec<u64>,
}

impl AscentChunk {
    fn expand(&mut self, m: &SeedMasks, chunk: &[u64]) {
        self.seen.clear();
        self.explore.clear();
        self.found.clear();
        let ordered = m.freeable & !m.exempt;
        for &s in chunk {
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
                    if expandable >> i & 1 == 1 && self.seen.insert(s2) {
                        self.explore.push(s2);
                    }
                }
            }
            if !grew {
                self.found.push(s);
            }
        }
        bmbe_obs::trace_counter!("hfmin.worklist.chunk_cubes", self.explore.len() as u64);
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
        for t in &self.transitions {
            if t.is_dynamic() && t.start == t.end {
                return Err(HfminError::DegenerateDynamic { transition: *t });
            }
        }
        let on = self.on_set();
        let off = self.off_set();
        for c_on in on.cubes() {
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

    /// Generates DHF-prime implicants containing at least one required cube
    /// (sufficient for covering, since the ON-set is the union of the
    /// required cubes).
    ///
    /// Up to [`EXACT_PRIME_VARS`] variables the enumeration is exhaustive
    /// (exact minimization, as in Minimalist), via the canonical-ascent
    /// worklist of [`FunctionSpec::expand_canonical`]; beyond that a set of
    /// greedy expansion orders is used per required cube — still hazard-free
    /// by construction, possibly not minimum (this is the synthesis run-time
    /// pressure the paper's §4.4 size restrictions exist to contain).
    pub fn dhf_primes(&self) -> Result<Vec<Cube>, HfminError> {
        self.dhf_primes_par(1).map(|(primes, _)| primes)
    }

    /// [`FunctionSpec::dhf_primes`] with the canonical-ascent worklist
    /// partitioned across up to `threads` workers (see
    /// [`FunctionSpec::expand_canonical`]): each worklist level is split
    /// into contiguous chunks, workers expand their chunks with private
    /// dedup sets, and the per-chunk discoveries are merged back into the
    /// shared visited/prime sets in chunk order at a serial barrier — so
    /// the returned prime set is bit-identical whatever the thread count.
    /// Also returns the number of duplicate cubes the merge barriers
    /// dropped (0 on a serial run).
    ///
    /// # Errors
    ///
    /// Returns [`HfminError::NoHazardFreeCover`] when some required cube is
    /// not a DHF implicant.
    pub fn dhf_primes_par(&self, threads: usize) -> Result<(Vec<Cube>, usize), HfminError> {
        let off = self.off_set_ordered();
        let privileged = self.privileged_cubes();
        let required = self.required_cubes();
        let mut primes: MaskSet<Cube> = MaskSet::default();
        let exact = self.n <= EXACT_PRIME_VARS;
        let mut visited: MaskSet<Cube> = MaskSet::default();
        let mut merges = 0usize;
        for r in &required {
            if !self.is_dhf_implicant(r, &off, &privileged) {
                return Err(HfminError::NoHazardFreeCover { required: *r });
            }
            if exact {
                merges += self.expand_canonical(
                    *r,
                    &off,
                    &privileged,
                    &mut visited,
                    &mut primes,
                    threads,
                );
            } else {
                self.expand_heuristic(*r, &off, &privileged, &mut primes);
            }
        }
        Ok((Self::maximal_sorted(primes), merges))
    }

    /// Reference implementation of [`FunctionSpec::dhf_primes`]: the seed's
    /// exhaustive per-cube recursion. Kept as the oracle the canonical-ascent
    /// worklist is property-tested (and benchmarked) against; the two return
    /// exactly the same prime set.
    pub fn dhf_primes_reference(&self) -> Result<Vec<Cube>, HfminError> {
        let off = self.off_set();
        let privileged = self.privileged_cubes();
        let required = self.required_cubes();
        let mut primes: MaskSet<Cube> = MaskSet::default();
        let exact = self.n <= EXACT_PRIME_VARS;
        let mut visited: MaskSet<Cube> = MaskSet::default();
        for r in &required {
            if !self.is_dhf_implicant(r, &off, &privileged) {
                return Err(HfminError::NoHazardFreeCover { required: *r });
            }
            if exact {
                self.expand_to_primes(*r, &off, &privileged, &mut visited, &mut primes);
            } else {
                self.expand_heuristic(*r, &off, &privileged, &mut primes);
            }
        }
        Ok(Self::maximal_sorted(primes))
    }

    /// The OFF-set with its cubes ordered largest (fewest literals) first,
    /// so [`FunctionSpec::is_dhf_implicant`] hits the likeliest blocker
    /// early. Same set, same results, faster rejection.
    pub(crate) fn off_set_ordered(&self) -> Cover {
        let mut cubes = self.off_set().cubes().to_vec();
        cubes.sort_by_key(Cube::num_literals);
        Cover::from_cubes(cubes)
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

    /// Greedy maximal expansion under several variable orders.
    fn expand_heuristic(
        &self,
        seed: Cube,
        off: &Cover,
        privileged: &[PrivilegedCube],
        primes: &mut MaskSet<Cube>,
    ) {
        let n = self.n;
        let starts: Vec<usize> = (0..n).step_by((n / 8).max(1)).collect();
        for (pass, &start) in starts.iter().enumerate() {
            let mut cube = seed;
            for k in 0..n {
                let i = if pass % 2 == 0 {
                    (start + k) % n
                } else {
                    (start + n - k) % n
                };
                if !cube.is_fixed(i) {
                    continue;
                }
                let bigger = cube.with_free(i);
                if self.is_dhf_implicant(&bigger, off, privileged) {
                    cube = bigger;
                }
            }
            primes.insert(cube);
        }
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
    /// The worklist is processed level-synchronously (a breadth-first
    /// sweep over the sets `S` by size): when a level is wide enough and
    /// `threads > 1`, it is split into contiguous chunks fanned across the
    /// `bmbe-par` pool, each worker deduplicating its own discoveries in a
    /// private set; the chunks' results are then merged into the shared
    /// `visited`/`primes` sets serially, **in chunk order**, at a barrier.
    /// The set of reachable cubes is traversal-order independent (the
    /// visited set only prevents re-expansion), so the primes produced are
    /// bit-identical whatever the thread count or chunk split. Returns the
    /// number of duplicate cubes dropped at merge barriers.
    ///
    /// [`expand_to_primes`]: FunctionSpec::expand_to_primes
    fn expand_canonical(
        &self,
        seed: Cube,
        off: &Cover,
        privileged: &[PrivilegedCube],
        visited: &mut MaskSet<Cube>,
        primes: &mut MaskSet<Cube>,
        threads: usize,
    ) -> usize {
        if !visited.insert(seed) {
            return 0; // region already explored from an earlier seed
        }
        let mut masks = SeedMasks::default();
        masks.compile(seed, off, privileged);
        let masks = &masks;
        let mut merged_dups = 0usize;
        let mut frontier: Vec<u64> = vec![0];
        let mut next: Vec<u64> = Vec::new();
        let mut chunk = AscentChunk::default();
        while !frontier.is_empty() {
            next.clear();
            // Serial merge barrier, in chunk order: the shared visited set
            // is the only cross-chunk state, and it is only appended to
            // here, deterministically.
            let mut merge = |c: &AscentChunk| {
                for &s2 in &c.explore {
                    if visited.insert(masks.cube_of(self.n, s2)) {
                        next.push(s2);
                    } else {
                        merged_dups += 1;
                    }
                }
                for &s in &c.found {
                    primes.insert(masks.cube_of(self.n, s));
                }
            };
            if threads > 1 && frontier.len() >= PAR_FRONTIER_MIN {
                let size = frontier.len().div_ceil(threads);
                let chunks: Vec<&[u64]> = frontier.chunks(size).collect();
                let results = bmbe_par::par_map(&chunks, threads, |_, c| {
                    let mut out = AscentChunk::default();
                    out.expand(masks, c);
                    out
                });
                results.iter().for_each(&mut merge);
            } else {
                chunk.expand(masks, &frontier);
                merge(&chunk);
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        if merged_dups > 0 {
            bmbe_obs::trace_counter!("hfmin.worklist.merged", merged_dups as u64);
        }
        merged_dups
    }

    fn expand_to_primes(
        &self,
        cube: Cube,
        off: &Cover,
        privileged: &[PrivilegedCube],
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
            if self.is_dhf_implicant(&bigger, off, privileged) {
                grew = true;
                self.expand_to_primes(bigger, off, privileged, visited, primes);
            }
        }
        if !grew {
            primes.insert(cube);
        }
    }

    /// Runs the complete hazard-free minimization with the default knobs
    /// ([`MinimizeBackend::Auto`], serial prime generation, no faults).
    ///
    /// # Errors
    ///
    /// Propagates specification inconsistencies and hazard-free
    /// infeasibility; see [`HfminError`].
    pub fn minimize(&self) -> Result<HfminResult, HfminError> {
        self.minimize_opts(&MinimizeOptions::default())
    }

    /// [`FunctionSpec::minimize`] with explicit [`MinimizeOptions`]: backend
    /// selection, a worker budget for the partitioned prime-generation
    /// worklist, and deterministic fault injection.
    ///
    /// # Errors
    ///
    /// Propagates specification inconsistencies and hazard-free
    /// infeasibility; see [`HfminError`]. Returns [`HfminError::Injected`]
    /// when `opts.fault` is armed with [`PrimeGenFault::Error`].
    pub fn minimize_opts(&self, opts: &MinimizeOptions) -> Result<HfminResult, HfminError> {
        self.check_consistency()?;
        let required = self.required_cubes();
        if required.is_empty() {
            return Ok(HfminResult {
                cover: Cover::empty(),
                exact: true,
                num_primes: 0,
                stats: MinimizeStats::default(),
            });
        }
        let use_cofactor = match opts.backend {
            MinimizeBackend::ExactPrimes => false,
            MinimizeBackend::CubeCofactor => true,
            MinimizeBackend::Auto => self.n > AUTO_EXACT_VARS,
        };
        if use_cofactor {
            return crate::espresso::minimize_cofactor(self, &required, opts);
        }
        trip_prime_gen_fault(opts.fault)?;
        let _span = bmbe_obs::span!("hfmin.prime_gen", "hfmin");
        let t_primes = Instant::now();
        let (primes, worklist_merges) = self.dhf_primes_par(opts.threads.max(1))?;
        let prime_gen = t_primes.elapsed();
        drop(_span);
        let _span = bmbe_obs::span!("hfmin.covering", "hfmin");
        let mut problem = CoveringProblem::new(required.len());
        for p in &primes {
            let rows: Vec<usize> = required
                .iter()
                .enumerate()
                .filter(|(_, r)| p.contains_cube(r))
                .map(|(i, _)| i)
                .collect();
            problem.add_column(rows, 1, p.num_literals() as u64);
        }
        let t_cover = Instant::now();
        let solution = problem
            .solve(200_000)
            .expect("every required cube is a dhf-implicant contained in some prime");
        let covering = t_cover.elapsed();
        let cover: Cover = solution.columns.iter().map(|&c| primes[c]).collect();
        check_required_covered(&required, &cover, &primes)?;
        Ok(HfminResult {
            cover,
            exact: solution.exact,
            num_primes: primes.len(),
            stats: MinimizeStats {
                prime_gen,
                covering,
                exact_funcs: 1,
                worklist_merges,
                ..MinimizeStats::default()
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

/// The exact path's post-covering check: every required cube must lie in
/// one product of the selected `cover` (the covering solver guarantees it;
/// a violation is an internal error, reported instead of panicking).
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
        let mut spec = FunctionSpec::new(3);
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
