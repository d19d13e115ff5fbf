//! Burst-mode controller synthesis: from a validated specification to
//! hazard-free two-level logic (the Minimalist-equivalent step of the flow).
//!
//! The controller is realized as a Huffman machine: primary inputs plus fed
//! back state variables drive two-level logic computing the primary outputs
//! and the next-state variables. Each specification arc contributes two
//! phases of specified transitions to every function:
//!
//! 1. **input burst** — inputs move from the state's entry vector to the
//!    post-burst vector while the state code is held; outputs and next-state
//!    bits change (monotonically, after the full burst) to their new values;
//! 2. **state race** — the state variables move from `code(s)` to
//!    `code(s')` while inputs are held; every function must hold its new
//!    value throughout the race cube.

use crate::assign::{assign_with, AssignError, Separation, StateAssignment};
use crate::spec::{BmError, BmSpec};
use bmbe_logic::cover::{Cover, Tv};
use bmbe_logic::hfmin::{FunctionSpec, HfminError, MinimizeOptions, MinimizeStats};
use std::collections::HashMap;
use std::fmt;

/// Minimization mode, mirroring Minimalist's script split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinimizeMode {
    /// Single-output minimization (Minimalist's speed scripts): each output
    /// minimized independently; duplicates logic, shortens critical paths.
    Speed,
    /// Product terms identical across outputs are shared downstream when
    /// building gates (area-leaning mode).
    Area,
}

/// Errors raised by controller synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// The specification failed validation.
    Spec(BmError),
    /// State assignment failed.
    Assign(AssignError),
    /// Hazard-free minimization failed for a function.
    Hfmin {
        /// The function's name.
        function: String,
        /// The underlying error.
        error: HfminError,
    },
    /// Too many total variables (inputs + state bits) for the cube engine.
    TooManyVariables {
        /// Total variables required.
        needed: usize,
    },
    /// A minimized cover failed the independent structural hazard check
    /// (an internal error of the minimizer).
    BadCover {
        /// The function's name.
        function: String,
        /// The first violation found.
        detail: String,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Spec(e) => write!(f, "invalid specification: {e}"),
            SynthError::Assign(e) => write!(f, "state assignment failed: {e}"),
            SynthError::Hfmin { function, error } => {
                write!(f, "hazard-free minimization of {function} failed: {error}")
            }
            SynthError::TooManyVariables { needed } => {
                write!(f, "{needed} variables exceed the 64-variable cube space")
            }
            SynthError::BadCover { function, detail } => {
                write!(
                    f,
                    "internal: minimizer returned a bad cover for {function}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for SynthError {}

impl From<BmError> for SynthError {
    fn from(e: BmError) -> Self {
        SynthError::Spec(e)
    }
}

impl From<AssignError> for SynthError {
    fn from(e: AssignError) -> Self {
        SynthError::Assign(e)
    }
}

/// A synthesized two-level controller.
///
/// Functions are covers over `num_inputs + num_state_bits` variables:
/// variable `i < num_inputs` is primary input `i` (in
/// [`BmSpec::input_signals`] order); variable `num_inputs + j` is state
/// variable `j`, fed back from next-state function `j`.
#[derive(Debug, Clone)]
pub struct Controller {
    /// Machine name.
    pub name: String,
    /// Primary input names.
    pub inputs: Vec<String>,
    /// Primary output names.
    pub outputs: Vec<String>,
    /// Number of state variables.
    pub num_state_bits: usize,
    /// One cover per primary output.
    pub output_covers: Vec<Cover>,
    /// One cover per next-state variable.
    pub next_state_covers: Vec<Cover>,
    /// State codes (indexed by specification state).
    pub assignment: StateAssignment,
    /// Initial primary-input vector (bit `i` = input `i`).
    pub initial_inputs: u64,
    /// Initial primary-output vector.
    pub initial_outputs: u64,
    /// Initial state code.
    pub initial_code: u64,
    /// Whether every covering step was exact.
    pub exact: bool,
    /// Aggregate engine counts and wall-clock breakdown of the
    /// per-function minimizations (prime generation vs covering), summed
    /// across functions. A controller decoded from the flow's disk cache
    /// carries `MinimizeStats::default()`.
    pub minimize_stats: MinimizeStats,
    /// The per-function transition specifications (kept for verification).
    pub function_specs: Vec<FunctionSpec>,
}

impl Controller {
    /// Total number of product terms across all functions.
    pub fn num_products(&self) -> usize {
        self.output_covers
            .iter()
            .chain(&self.next_state_covers)
            .map(Cover::len)
            .sum()
    }

    /// Number of *distinct* product terms (the sharing opportunity counted
    /// by area mode).
    pub fn num_distinct_products(&self) -> usize {
        let mut set = std::collections::HashSet::new();
        for c in self.output_covers.iter().chain(&self.next_state_covers) {
            for cube in c.cubes() {
                set.insert(*cube);
            }
        }
        set.len()
    }

    /// Total literal count.
    pub fn num_literals(&self) -> usize {
        self.output_covers
            .iter()
            .chain(&self.next_state_covers)
            .map(Cover::num_literals)
            .sum()
    }

    /// Total number of logic variables (inputs + state bits).
    pub fn num_vars(&self) -> usize {
        self.inputs.len() + self.num_state_bits
    }

    /// Rewrites every primary input and output name through `f`. Used by
    /// the flow's controller cache to re-instantiate a controller
    /// synthesized under canonical channel names with a component's actual
    /// names; covers, state codes, and function specs are index-based and
    /// untouched.
    pub fn rename_signals<F: Fn(&str) -> String>(&mut self, f: F) {
        for name in self.inputs.iter_mut().chain(self.outputs.iter_mut()) {
            *name = f(name);
        }
    }

    /// Eichelberger-style ternary verification of every specified
    /// transition of every function: during a burst the changing variables
    /// are set to `X`; a static transition must never glitch (never read
    /// `X`), and a dynamic transition must settle at its final value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn verify_ternary(&self) -> Result<(), String> {
        let covers = self.output_covers.iter().chain(&self.next_state_covers);
        for (fi, (spec, cover)) in self.function_specs.iter().zip(covers).enumerate() {
            for t in spec.transitions() {
                let mid = cover.eval_burst(t.start, t.start ^ t.end);
                if t.from == t.to && mid != Tv::from_bool(t.from) {
                    return Err(format!(
                        "function {fi}: static-{} transition {:#x}->{:#x} reads {mid} mid-burst",
                        t.from as u8, t.start, t.end
                    ));
                }
                // Settle at the end point.
                let fin = cover.eval_burst(t.end, 0);
                if fin != Tv::from_bool(t.to) {
                    return Err(format!(
                        "function {fi}: transition {:#x}->{:#x} settles at {fin}, expected {}",
                        t.start, t.end, t.to as u8
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Synthesizes a burst-mode specification into a hazard-free two-level
/// controller.
///
/// # Errors
///
/// Fails when the specification is invalid, the state assignment is
/// unsatisfiable, or a function has no hazard-free cover (see
/// [`SynthError`]).
pub fn synthesize(spec: &BmSpec, mode: MinimizeMode) -> Result<Controller, SynthError> {
    synthesize_full(spec, mode, 1, &MinimizeOptions::default())
}

/// [`synthesize`] with explicit [`MinimizeOptions`]: backend selection and
/// fault injection are taken from `opts`. The functions are minimized one
/// after another on the calling thread, in function order, so the first
/// failing function names the error. `_threads` is ignored; it stays
/// because the benchmark harness (`perfbench/src/replay.rs`), which builds
/// against this API as it is, passes it.
///
/// # Errors
///
/// See [`synthesize`]. An injected prime-generation fault propagates as
/// [`SynthError::Hfmin`] without triggering the separation escalation
/// (only genuine [`HfminError::NoHazardFreeCover`] does).
pub fn synthesize_full(
    spec: &BmSpec,
    mode: MinimizeMode,
    _threads: usize,
    opts: &MinimizeOptions,
) -> Result<Controller, SynthError> {
    // Try the minimal race-free assignment first; if hazard-free
    // minimization turns out infeasible (the CHASM interaction between
    // encoding and hazard constraints), fall back to the fully separated
    // assignment, which guarantees feasibility.
    match synthesize_with_opts(spec, mode, Separation::Conflicts, opts) {
        Err(SynthError::Hfmin {
            error: HfminError::NoHazardFreeCover { .. },
            ..
        }) => synthesize_with_opts(spec, mode, Separation::AllArcs, opts),
        other => other,
    }
}

/// One synthesis attempt at an explicit state-separation level (see
/// [`Separation`]); [`synthesize_full`] escalates between the levels.
fn synthesize_with_opts(
    spec: &BmSpec,
    mode: MinimizeMode,
    separation: Separation,
    opts: &MinimizeOptions,
) -> Result<Controller, SynthError> {
    let entry = spec.validate()?;
    let assignment = assign_with(spec, separation)?;
    let input_signals = spec.input_signals();
    let output_signals = spec.output_signals();
    let k = input_signals.len();
    let m = assignment.num_bits;
    let n = k + m;
    if n > 64 {
        return Err(SynthError::TooManyVariables { needed: n });
    }
    let input_ix = spec.input_index_map();
    let output_ix = spec.output_index_map();

    // Build one FunctionSpec per output and per next-state bit.
    let num_funcs = output_signals.len() + m;
    let mut specs: Vec<FunctionSpec> = (0..num_funcs).map(|_| FunctionSpec::new(n)).collect();
    let code = |s: usize| assignment.codes[s] << k;

    // Stability of the initial state at its entry point.
    {
        let a0 = entry.entry_in[spec.initial()] | code(spec.initial());
        for (oi, &sig) in output_signals.iter().enumerate() {
            let v = entry.entry_out[spec.initial()] >> output_ix[&sig] & 1 == 1;
            specs[oi].add_static(a0, a0, v);
        }
        for j in 0..m {
            let v = assignment.codes[spec.initial()] >> j & 1 == 1;
            specs[output_signals.len() + j].add_static(a0, a0, v);
        }
    }

    for arc in spec.arcs() {
        let mut post_in = entry.entry_in[arc.from];
        for e in &arc.inputs {
            post_in ^= 1u64 << input_ix[&e.signal];
        }
        let a = entry.entry_in[arc.from] | code(arc.from);
        let b = post_in | code(arc.from);
        let c = post_in | code(arc.to);
        let out_change: HashMap<usize, ()> = arc.outputs.iter().map(|e| (e.signal, ())).collect();
        for (oi, &sig) in output_signals.iter().enumerate() {
            let old = entry.entry_out[arc.from] >> output_ix[&sig] & 1 == 1;
            let new = old ^ out_change.contains_key(&sig);
            specs[oi].add_transition(bmbe_logic::hfmin::SpecTransition {
                start: a,
                end: b,
                from: old,
                to: new,
            });
            if b != c {
                specs[oi].add_static(b, c, new);
            }
        }
        for j in 0..m {
            let old = assignment.codes[arc.from] >> j & 1 == 1;
            let new = assignment.codes[arc.to] >> j & 1 == 1;
            specs[output_signals.len() + j].add_transition(bmbe_logic::hfmin::SpecTransition {
                start: a,
                end: b,
                from: old,
                to: new,
            });
            if b != c {
                specs[output_signals.len() + j].add_static(b, c, new);
            }
        }
    }

    // Minimize each function in function order; the first failing one
    // names the error.
    let mut covers: Vec<Cover> = Vec::with_capacity(num_funcs);
    let mut exact = true;
    let mut minimize_stats = MinimizeStats::default();
    for (fi, fspec) in specs.iter().enumerate() {
        let _g = bmbe_obs::span!("hfmin.job", "hfmin");
        let name = if fi < output_signals.len() {
            spec.signals()[output_signals[fi]].name.clone()
        } else {
            format!("y{}", fi - output_signals.len())
        };
        let result = fspec
            .minimize_opts(opts)
            .map_err(|error| SynthError::Hfmin {
                function: name.clone(),
                error,
            })?;
        check_cover(&name, fspec, &result.cover)?;
        exact &= result.exact;
        minimize_stats.accumulate(&result.stats);
        covers.push(result.cover);
    }
    // Area mode currently shares identical products downstream; the covers
    // themselves are the same (see DESIGN.md, substitution notes).
    let _ = mode;

    let (output_covers, next_state_covers) = {
        let mut it = covers.into_iter();
        let o: Vec<Cover> = (&mut it).take(output_signals.len()).collect();
        let s: Vec<Cover> = it.collect();
        (o, s)
    };

    let initial_code = assignment.codes[spec.initial()];
    Ok(Controller {
        name: spec.name().to_string(),
        inputs: input_signals
            .iter()
            .map(|&s| spec.signals()[s].name.clone())
            .collect(),
        outputs: output_signals
            .iter()
            .map(|&s| spec.signals()[s].name.clone())
            .collect(),
        num_state_bits: m,
        output_covers,
        next_state_covers,
        assignment,
        initial_inputs: entry.entry_in[spec.initial()],
        initial_outputs: entry.entry_out[spec.initial()],
        initial_code,
        exact,
        minimize_stats,
        function_specs: specs,
    })
}

/// Checks a minimized cover with the independent structural hazard check
/// [`FunctionSpec::verify_cover`], which recomputes the function's OFF,
/// required and privileged cubes itself.
fn check_cover(function: &str, fspec: &FunctionSpec, cover: &Cover) -> Result<(), SynthError> {
    fspec.verify_cover(cover).map_err(|e| SynthError::BadCover {
        function: function.to_string(),
        detail: format!("{e}; cover {cover}"),
    })
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

    /// The call module of Fig. 3 (7 states).
    fn call_module() -> BmSpec {
        let mut s = BmSpec::new("call");
        let a1r = s.add_signal("a1_r", SignalDir::Input);
        let a2r = s.add_signal("a2_r", SignalDir::Input);
        let ba = s.add_signal("b_a", SignalDir::Input);
        let a1a = s.add_signal("a1_a", SignalDir::Output);
        let a2a = s.add_signal("a2_a", SignalDir::Output);
        let br = s.add_signal("b_r", SignalDir::Output);
        for _ in 0..7 {
            s.add_state();
        }
        s.add_arc(0, 1, &[(a1r, true)], &[(br, true)]);
        s.add_arc(1, 2, &[(ba, true)], &[(br, false)]);
        s.add_arc(2, 3, &[(ba, false)], &[(a1a, true)]);
        s.add_arc(3, 0, &[(a1r, false)], &[(a1a, false)]);
        s.add_arc(0, 4, &[(a2r, true)], &[(br, true)]);
        s.add_arc(4, 5, &[(ba, true)], &[(br, false)]);
        s.add_arc(5, 6, &[(ba, false)], &[(a2a, true)]);
        s.add_arc(6, 0, &[(a2r, false)], &[(a2a, false)]);
        s
    }

    #[test]
    fn sequencer_synthesizes_hazard_free() {
        let ctrl = synthesize(&sequencer(), MinimizeMode::Speed).unwrap();
        assert_eq!(ctrl.inputs.len(), 3);
        assert_eq!(ctrl.outputs.len(), 3);
        assert!(ctrl.num_state_bits >= 3);
        ctrl.verify_ternary().unwrap();
        assert!(ctrl.num_products() > 0);
    }

    #[test]
    fn call_module_synthesizes_hazard_free() {
        let ctrl = synthesize(&call_module(), MinimizeMode::Speed).unwrap();
        ctrl.verify_ternary().unwrap();
    }

    #[test]
    fn passivator_synthesizes_with_no_state_bits() {
        // Two states -> 1 bit; but the passivator's two states actually need
        // a state variable since inputs alone distinguish them... they do:
        // (a_r, b_r) values differ; state minimization would drop to 1 bit
        // anyway. Just check it synthesizes and simulates.
        let mut s = BmSpec::new("passivator");
        let ar = s.add_signal("a_r", SignalDir::Input);
        let br = s.add_signal("b_r", SignalDir::Input);
        let aa = s.add_signal("a_a", SignalDir::Output);
        let ba = s.add_signal("b_a", SignalDir::Output);
        let s0 = s.add_state();
        let s1 = s.add_state();
        s.add_arc(s0, s1, &[(ar, true), (br, true)], &[(aa, true), (ba, true)]);
        s.add_arc(
            s1,
            s0,
            &[(ar, false), (br, false)],
            &[(aa, false), (ba, false)],
        );
        let ctrl = synthesize(&s, MinimizeMode::Speed).unwrap();
        ctrl.verify_ternary().unwrap();
    }

    #[test]
    fn functional_simulation_follows_spec() {
        // Drive the synthesized sequencer through a complete cycle by
        // two-valued evaluation with state feedback.
        let spec = sequencer();
        let ctrl = synthesize(&spec, MinimizeMode::Speed).unwrap();
        let k = ctrl.inputs.len();
        let eval_all = |inputs: u64, code: u64| -> (u64, u64) {
            let point = inputs | code << k;
            let out = ctrl
                .output_covers
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, c)| acc | (c.eval(point) as u64) << i);
            let next = ctrl
                .next_state_covers
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, c)| acc | (c.eval(point) as u64) << i);
            (out, next)
        };
        let mut code = ctrl.initial_code;
        let mut inputs = ctrl.initial_inputs;
        // initial stability
        let (out, next) = eval_all(inputs, code);
        assert_eq!(out, ctrl.initial_outputs);
        assert_eq!(next, code);
        // p_r+ (input 0): expect a1_r+ (output index of a1_r).
        inputs ^= 1 << 0;
        let (out, next) = eval_all(inputs, code);
        let a1r_ix = ctrl.outputs.iter().position(|n| n == "a1_r").unwrap();
        assert_eq!(out >> a1r_ix & 1, 1, "a1_r must rise after p_r+");
        // commit state, then a1_a+ -> a1_r-
        code = next;
        let (out2, next2) = eval_all(inputs, code);
        assert_eq!(out2, out, "outputs stable after state settles");
        assert_eq!(next2, code, "state stable");
        inputs ^= 1 << 1; // a1_a+
        let (out3, _) = eval_all(inputs, code);
        assert_eq!(out3 >> a1r_ix & 1, 0, "a1_r must fall after a1_a+");
    }

    #[test]
    fn backends_agree_on_small_controllers() {
        use bmbe_logic::hfmin::MinimizeBackend;
        for spec in [sequencer(), call_module()] {
            let exact = synthesize_full(
                &spec,
                MinimizeMode::Speed,
                1,
                &MinimizeOptions {
                    backend: MinimizeBackend::ExactPrimes,
                    ..MinimizeOptions::default()
                },
            )
            .unwrap();
            let cofactor = synthesize_full(
                &spec,
                MinimizeMode::Speed,
                1,
                &MinimizeOptions {
                    backend: MinimizeBackend::CubeCofactor,
                    ..MinimizeOptions::default()
                },
            )
            .unwrap();
            cofactor.verify_ternary().unwrap();
            assert!(
                !cofactor.exact,
                "cofactor covers are never provably minimum"
            );
            assert!(
                cofactor.num_products() >= exact.num_products(),
                "{}: cofactor beat the exact minimum",
                spec.name()
            );
            assert!(cofactor.minimize_stats.cofactor_funcs > 0);
            assert_eq!(cofactor.minimize_stats.exact_funcs, 0);
        }
    }

    fn cover_mut(ctrl: &mut Controller, fi: usize) -> &mut Cover {
        let outputs = ctrl.output_covers.len();
        if fi < outputs {
            &mut ctrl.output_covers[fi]
        } else {
            &mut ctrl.next_state_covers[fi - outputs]
        }
    }

    /// Breaks one cover of the synthesized sequencer twice, once into a
    /// static glitch and once into a wrong settle: the mask-based check
    /// must report each in the words of the per-variable evaluator it
    /// replaced.
    #[test]
    fn ternary_verification_reports_glitch_and_settle_in_the_same_words() {
        let ctrl = synthesize(&sequencer(), MinimizeMode::Speed).unwrap();
        let n = ctrl.num_vars();
        // Static glitch: split the product holding the first static-1
        // burst into its two halves on a changing variable.
        let (fi, t) = ctrl
            .function_specs
            .iter()
            .enumerate()
            .find_map(|(fi, spec)| {
                let t = spec
                    .transitions()
                    .iter()
                    .find(|t| t.from && t.to && t.start != t.end)?;
                Some((fi, *t))
            })
            .expect("some function holds 1 across a burst");
        let mut glitchy = ctrl.clone();
        let cover = cover_mut(&mut glitchy, fi);
        let burst = bmbe_logic::Cube::spanning(n, t.start, t.end);
        let pos = cover
            .cubes()
            .iter()
            .position(|p| p.contains_cube(&burst))
            .expect("a hazard-free cover holds the burst in one product");
        let p = cover.cubes()[pos];
        let var = (t.start ^ t.end).trailing_zeros() as usize;
        let mut cubes = cover.cubes().to_vec();
        cubes.splice(
            pos..=pos,
            [p.with_fixed(var, false), p.with_fixed(var, true)],
        );
        *cover = Cover::from_cubes(cubes);
        assert_eq!(
            glitchy.verify_ternary().unwrap_err(),
            "function 0: static-1 transition 0x19->0x39 reads X mid-burst"
        );
        // Wrong settle: a1_r rises on the first burst; with its cover
        // emptied it settles at 0 there.
        let mut stuck = ctrl.clone();
        let oi = stuck.outputs.iter().position(|o| o == "a1_r").unwrap();
        stuck.output_covers[oi] = Cover::empty();
        assert_eq!(
            stuck.verify_ternary().unwrap_err(),
            "function 1: transition 0x0->0x1 settles at 0, expected 1"
        );
    }

    #[test]
    fn bad_cover_is_a_typed_error_naming_its_function() {
        let ctrl = synthesize(&sequencer(), MinimizeMode::Speed).unwrap();
        let oi = ctrl.outputs.iter().position(|o| o == "a1_r").unwrap();
        let fspec = &ctrl.function_specs[oi];
        assert_eq!(check_cover("a1_r", fspec, &ctrl.output_covers[oi]), Ok(()));
        match check_cover("a1_r", fspec, &Cover::empty()) {
            Err(SynthError::BadCover { function, detail }) => {
                assert_eq!(function, "a1_r");
                assert!(
                    detail.starts_with("required cube ") && detail.ends_with("; cover 0"),
                    "{detail}"
                );
            }
            other => panic!("expected BadCover, got {other:?}"),
        }
    }

    #[test]
    fn too_many_variables_detected() {
        let mut s = BmSpec::new("wide");
        let mut ins = Vec::new();
        for i in 0..63 {
            ins.push(s.add_signal(format!("i{i}"), SignalDir::Input));
        }
        let o = s.add_signal("o", SignalDir::Output);
        let s0 = s.add_state();
        let s1 = s.add_state();
        // A burst over all 63 inputs; with >=1 state bits the space exceeds
        // 64 variables only if the assignment needs >1 bit; craft 4 states.
        let s2 = s.add_state();
        let s3 = s.add_state();
        s.add_arc(s0, s1, &[(ins[0], true)], &[(o, true)]);
        s.add_arc(s1, s2, &[(ins[0], false)], &[]);
        s.add_arc(s2, s3, &[(ins[1], true)], &[(o, false)]);
        s.add_arc(s3, s0, &[(ins[1], false)], &[]);
        // 63 inputs + >=2 state bits > 64.
        match synthesize(&s, MinimizeMode::Speed) {
            Err(SynthError::TooManyVariables { .. }) => {}
            other => panic!("expected TooManyVariables, got {other:?}"),
        }
    }
}
