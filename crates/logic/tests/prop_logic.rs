//! Property-based tests of the cube algebra and the hazard-free minimizer.

use bmbe_logic::cube::Cube;
use bmbe_logic::hfmin::{FunctionSpec, MinimizeBackend, MinimizeOptions, SpecTransition};
use proptest::prelude::*;

const N: usize = 6;

fn arb_cube() -> impl Strategy<Value = Cube> {
    (any::<u64>(), any::<u64>()).prop_map(|(care, value)| Cube::from_masks(N, care, value))
}

fn arb_point() -> impl Strategy<Value = u64> {
    0u64..(1 << N)
}

proptest! {
    #[test]
    fn display_parse_roundtrip(c in arb_cube()) {
        let text = c.to_string();
        let back = Cube::parse(&text).expect("display emits valid syntax");
        prop_assert_eq!(back, c);
    }

    #[test]
    fn containment_is_pointwise(c in arb_cube(), d in arb_cube()) {
        if c.contains_cube(&d) {
            for p in d.points() {
                prop_assert!(c.contains_point(p));
            }
        }
    }

    #[test]
    fn intersection_agrees_with_points(c in arb_cube(), d in arb_cube()) {
        match c.intersection(&d) {
            Some(ix) => {
                // Every point of the intersection is in both.
                for p in ix.points() {
                    prop_assert!(c.contains_point(p) && d.contains_point(p));
                }
                prop_assert!(c.intersects(&d));
            }
            None => {
                for p in c.points() {
                    prop_assert!(!d.contains_point(p));
                }
                prop_assert!(!c.intersects(&d));
            }
        }
    }

    #[test]
    fn supercube_contains_both(c in arb_cube(), d in arb_cube()) {
        let s = c.supercube(&d);
        prop_assert!(s.contains_cube(&c));
        prop_assert!(s.contains_cube(&d));
    }

    #[test]
    fn spanning_cube_is_minimal(a in arb_point(), b in arb_point()) {
        let t = Cube::spanning(N, a, b);
        prop_assert!(t.contains_point(a));
        prop_assert!(t.contains_point(b));
        prop_assert_eq!(t.num_literals(), N - (a ^ b).count_ones() as usize);
    }

    #[test]
    fn point_count_matches_enumeration(c in arb_cube()) {
        let listed = c.points().count() as u64;
        prop_assert_eq!(listed, c.num_points());
    }
}

/// A burst-mode-like random function: a cycle of transitions alternating
/// the function value, mimicking how the synthesizer specifies outputs.
fn arb_spec() -> impl Strategy<Value = FunctionSpec> {
    arb_spec_n(N)
}

/// Same walk, parameterized on the variable count (the kernel equivalence
/// properties are exercised up to 10 variables).
fn arb_spec_n(n: usize) -> impl Strategy<Value = FunctionSpec> {
    proptest::collection::vec((0u64..(1 << n), any::<bool>()), 2..8).prop_map(move |steps| {
        let mut spec = FunctionSpec::new(n);
        let mut cur = 0u64;
        let mut val = false;
        // Walk a path of transitions; each step moves to a new point and
        // may flip the function. Conflicts are avoided by the caller check.
        for (target, flip) in steps {
            let to_val = val ^ flip;
            if target == cur && flip {
                continue; // degenerate dynamic transition
            }
            spec.add_transition(bmbe_logic::hfmin::SpecTransition {
                start: cur,
                end: target,
                from: val,
                to: to_val,
            });
            cur = target;
            val = to_val;
        }
        spec
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn minimizer_output_is_always_hazard_free(spec in arb_spec()) {
        // Random walks can assign conflicting values to shared points;
        // those are legitimately rejected. For consistent specs, the
        // minimizer's cover must pass the independent structural check.
        if spec.check_consistency().is_err() {
            return Ok(());
        }
        match spec.minimize() {
            Ok(result) => {
                prop_assert!(spec.verify_cover(&result.cover).is_ok());
            }
            Err(bmbe_logic::hfmin::HfminError::NoHazardFreeCover { .. }) => {
                // Theoretically possible for adversarial specs.
            }
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    #[test]
    fn canonical_ascent_primes_match_reference(spec in arb_spec()) {
        if spec.check_consistency().is_err() {
            return Ok(());
        }
        match (spec.dhf_primes(), spec.dhf_primes_reference()) {
            (Ok(fast), Ok(slow)) => prop_assert_eq!(fast, slow),
            (Err(_), Err(_)) => {}
            (fast, slow) => prop_assert!(
                false,
                "disagree on feasibility: fast={:?} slow={:?}",
                fast.is_ok(),
                slow.is_ok()
            ),
        }
    }

    #[test]
    fn on_off_sets_never_overlap_for_consistent_specs(spec in arb_spec()) {
        if spec.check_consistency().is_err() {
            return Ok(());
        }
        let on = spec.on_set();
        let off = spec.off_set();
        for p in 0u64..(1 << N) {
            prop_assert!(!(on.eval(p) && off.eval(p)), "point {:#b}", p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn canonical_ascent_primes_match_reference_wide(spec in arb_spec_n(10)) {
        if spec.check_consistency().is_err() {
            return Ok(());
        }
        match (spec.dhf_primes(), spec.dhf_primes_reference()) {
            (Ok(fast), Ok(slow)) => prop_assert_eq!(fast, slow),
            (Err(_), Err(_)) => {}
            (fast, slow) => prop_assert!(
                false,
                "disagree on feasibility: fast={:?} slow={:?}",
                fast.is_ok(),
                slow.is_ok()
            ),
        }
    }
}

fn backend_opts(backend: MinimizeBackend) -> MinimizeOptions {
    MinimizeOptions {
        backend,
        ..MinimizeOptions::default()
    }
}

/// The exact backend is the oracle: the cube-cofactor cover must be valid
/// and hazard-free whenever the oracle finds a cover, never smaller than
/// the oracle's minimum, and never larger than one product per required
/// cube (EXPAND picks at most one cube per seed).
fn check_cofactor_against_oracle(spec: &FunctionSpec) -> Result<(), TestCaseError> {
    let exact = spec.minimize_opts(&backend_opts(MinimizeBackend::ExactPrimes));
    let cofactor = spec.minimize_opts(&backend_opts(MinimizeBackend::CubeCofactor));
    let required = spec.required_cubes().len();
    if required == 0 {
        // Trivial spec: both backends short-circuit to the empty cover
        // before dispatch, so there is nothing backend-specific to check.
        return Ok(());
    }
    match (exact, cofactor) {
        (Ok(e), Ok(c)) => {
            prop_assert!(
                spec.verify_cover(&c.cover).is_ok(),
                "cofactor cover fails the structural hazard check"
            );
            prop_assert!(!c.exact, "heuristic backend must not claim exactness");
            prop_assert!(
                c.cover.len() >= e.cover.len(),
                "cofactor cover ({}) beat the exact minimum ({})",
                c.cover.len(),
                e.cover.len()
            );
            prop_assert!(
                c.cover.len() <= required,
                "cofactor cover ({}) exceeds one product per required cube ({required})",
                c.cover.len()
            );
            prop_assert_eq!(c.stats.cofactor_funcs, 1);
            prop_assert_eq!(c.stats.exact_funcs, 0);
        }
        (Err(_), Err(_)) => {} // both reject: infeasible spec
        (e, c) => prop_assert!(
            false,
            "backends disagree on feasibility: exact={:?} cofactor={:?}",
            e.is_ok(),
            c.is_ok()
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn cofactor_backend_matches_the_oracle(spec in arb_spec()) {
        if spec.check_consistency().is_err() {
            return Ok(());
        }
        check_cofactor_against_oracle(&spec)?;
    }

    #[test]
    fn auto_backend_is_exact_below_the_width_threshold(spec in arb_spec()) {
        // N = 6 <= AUTO_EXACT_VARS, so Auto must route to the exact engine
        // and reproduce its covers bit for bit.
        if spec.check_consistency().is_err() {
            return Ok(());
        }
        let nontrivial = !spec.required_cubes().is_empty();
        let auto = spec.minimize_opts(&backend_opts(MinimizeBackend::Auto));
        let exact = spec.minimize_opts(&backend_opts(MinimizeBackend::ExactPrimes));
        match (auto, exact) {
            (Ok(a), Ok(e)) => {
                prop_assert_eq!(a.cover, e.cover);
                prop_assert_eq!(a.exact, e.exact);
                if nontrivial {
                    prop_assert_eq!(a.stats.exact_funcs, 1);
                    prop_assert_eq!(a.stats.cofactor_funcs, 0);
                }
            }
            (Err(_), Err(_)) => {}
            (a, e) => prop_assert!(
                false,
                "Auto disagrees with ExactPrimes on feasibility: auto={:?} exact={:?}",
                a.is_ok(),
                e.is_ok()
            ),
        }
    }

    #[test]
    fn canonical_ascent_equals_the_reference(spec in arb_spec_n(10)) {
        // The canonical-ascent worklist must return the same primes in the
        // same order as the brute-force reference expansion, and agree
        // with it on feasibility.
        if spec.check_consistency().is_err() {
            return Ok(());
        }
        prop_assert_eq!(spec.dhf_primes(), spec.dhf_primes_reference());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn cofactor_backend_matches_the_oracle_wide(spec in arb_spec_n(10)) {
        if spec.check_consistency().is_err() {
            return Ok(());
        }
        check_cofactor_against_oracle(&spec)?;
    }
}

/// A fixed 10-variable burst-mode walk whose privileged implications
/// exempt several variables from the canonical order, so the ascent
/// reaches many cubes along more than one path: its primes must equal the
/// reference expansion's.
#[test]
fn canonical_ascent_matches_the_reference_on_a_wide_walk() {
    let n = 10;
    let walk: [(u64, bool); 7] = [
        (601, false),
        (793, false),
        (310, false),
        (240, false),
        (200, true),
        (207, false),
        (387, true),
    ];
    let mut spec = FunctionSpec::new(n);
    let mut cur = 0u64;
    let mut val = false;
    for (target, flip) in walk {
        let to_val = val ^ flip;
        spec.add_transition(SpecTransition {
            start: cur,
            end: target,
            from: val,
            to: to_val,
        });
        cur = target;
        val = to_val;
    }
    spec.check_consistency()
        .expect("hand-built spec is consistent");
    let primes = spec.dhf_primes().expect("primes");
    assert!(primes.len() > 1, "the walk must have several primes");
    assert_eq!(
        primes,
        spec.dhf_primes_reference().expect("reference primes"),
        "canonical ascent disagrees with the reference expansion"
    );
}
