//! Property tests of the mapped-netlist checks against their oracles, on
//! randomly generated covers mapped through the real technology mapper:
//!
//! - the cube-algebraic equivalence checker against the pointwise 2^n
//!   sweep: both clean when the netlist matches its covers, both failing
//!   when the claimed covers are perturbed, and any algebraic witness a
//!   genuine disagreement point;
//! - `verify_mapped`'s 64-lane ternary analysis against the per-point loop
//!   in `support/per_point.rs`, on random bursts that mostly share one
//!   `(start, end)` sequence across functions and sometimes do not.

#[path = "support/per_point.rs"]
mod per_point;

use bmbe_bm::{Controller, StateAssignment};
use bmbe_gates::{
    map, verify_equivalence_algebraic, verify_equivalence_pointwise, verify_mapped,
    HazardViolation, Library, MapObjective, MapStyle, SubjectGraph,
};
use bmbe_logic::hfmin::{FunctionSpec, SpecTransition};
use bmbe_logic::{Cover, Cube};
use per_point::verify_mapped_per_point;
use proptest::prelude::*;

fn build_covers(n: usize, raw: &[Vec<(u64, u64)>]) -> Vec<Cover> {
    raw.iter()
        .map(|cubes| {
            cubes
                .iter()
                .map(|&(care, value)| Cube::from_masks(n, care, value))
                .collect()
        })
        .collect()
}

/// Wraps plain covers in a state-free controller so the equivalence
/// checkers (which take a [`Controller`]) can run on them.
fn controller_of(n: usize, covers: &[Cover]) -> Controller {
    Controller {
        name: "prop".into(),
        inputs: (0..n).map(|i| format!("x{i}")).collect(),
        outputs: (0..covers.len()).map(|i| format!("f{i}")).collect(),
        num_state_bits: 0,
        output_covers: covers.to_vec(),
        next_state_covers: Vec::new(),
        assignment: StateAssignment {
            num_bits: 0,
            codes: Vec::new(),
        },
        initial_inputs: 0,
        initial_outputs: 0,
        initial_code: 0,
        exact: true,
        minimize_stats: Default::default(),
        function_specs: Vec::new(),
    }
}

fn arb_raw_covers() -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u64>(), any::<u64>()), 1..6),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn algebraic_check_agrees_with_pointwise_oracle(
        n in 3usize..9,
        raw in arb_raw_covers(),
        area in any::<bool>(),
        split in any::<bool>(),
    ) {
        let covers = build_covers(n, &raw);
        let functions: Vec<(String, &Cover)> =
            covers.iter().enumerate().map(|(i, c)| (format!("f{i}"), c)).collect();
        let subject = SubjectGraph::from_covers(n, &functions);
        let objective = if area { MapObjective::Area } else { MapObjective::Delay };
        let style = if split { MapStyle::SplitModules } else { MapStyle::WholeController };
        let netlist = map(&subject, &Library::cmos035(), objective, style);
        let ctrl = controller_of(n, &covers);

        // The mapper preserves functions, so both checks must come back
        // clean on the true covers.
        prop_assert_eq!(verify_equivalence_pointwise(&ctrl, &netlist), None);
        prop_assert_eq!(verify_equivalence_algebraic(&ctrl, &netlist), None);
    }

    #[test]
    fn algebraic_check_detects_perturbed_covers(
        n in 3usize..9,
        raw in arb_raw_covers(),
        extra_care in any::<u64>(),
        extra_value in any::<u64>(),
        target in any::<u64>(),
    ) {
        let covers = build_covers(n, &raw);
        let functions: Vec<(String, &Cover)> =
            covers.iter().enumerate().map(|(i, c)| (format!("f{i}"), c)).collect();
        let subject = SubjectGraph::from_covers(n, &functions);
        let netlist =
            map(&subject, &Library::cmos035(), MapObjective::Area, MapStyle::WholeController);

        // Claim a perturbed cover for one function; the perturbation may be
        // a no-op (the added cube can be redundant), so the oracle decides
        // the expected verdict and the algebraic check must match it.
        let mut claimed = covers.clone();
        let ti = (target as usize) % claimed.len();
        claimed[ti].push(Cube::from_masks(n, extra_care, extra_value));
        let ctrl = controller_of(n, &claimed);

        let oracle = verify_equivalence_pointwise(&ctrl, &netlist);
        let algebraic = verify_equivalence_algebraic(&ctrl, &netlist);
        prop_assert_eq!(oracle.is_some(), algebraic.is_some());
        if let Some(bmbe_gates::HazardViolation::NotEquivalent { function, point }) = algebraic {
            let fi = ctrl.outputs.iter().position(|o| *o == function).expect("known function");
            prop_assert!(
                netlist.eval(point)[fi] != claimed[fi].eval(point),
                "witness {:#x} must be a real disagreement for {}", point, function
            );
        }
    }
}

/// Deterministic pseudo-random words (splitmix64).
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One spec per function over the shared bursts, as synthesis builds
/// them, except that a function drops or replaces a burst now and then
/// (so its later transitions leave their slots) and its `from`/`to`
/// values are sometimes wrong (so violations occur).
fn specs_over(n: usize, covers: &[Cover], bursts: &[(u64, u64)], seed: u64) -> Vec<FunctionSpec> {
    let mask = (1u64 << n) - 1;
    let mut rng = seed;
    covers
        .iter()
        .enumerate()
        .map(|(fi, cover)| {
            let mut spec = FunctionSpec::new(n);
            for &(start, change) in bursts {
                let r = mix(&mut rng);
                let (start, end) = match (fi > 0, r & 15) {
                    (true, 0) => continue,
                    (true, 1) => {
                        let other = mix(&mut rng) & mask;
                        (other, other ^ (r >> 8) & mask)
                    }
                    _ => (start & mask, (start ^ change) & mask),
                };
                spec.add_transition(SpecTransition {
                    start,
                    end,
                    from: cover.eval(start) ^ (r >> 4 & 7 == 0),
                    to: cover.eval(end) ^ (r >> 7 & 7 == 0),
                });
            }
            spec
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn lane_analysis_equals_the_per_point_loop(
        n in 3usize..9,
        raw in arb_raw_covers(),
        bursts in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..48),
        seed in any::<u64>(),
        area in any::<bool>(),
        split in any::<bool>(),
    ) {
        let covers = build_covers(n, &raw);
        let functions: Vec<(String, &Cover)> =
            covers.iter().enumerate().map(|(i, c)| (format!("f{i}"), c)).collect();
        let subject = SubjectGraph::from_covers(n, &functions);
        let objective = if area { MapObjective::Area } else { MapObjective::Delay };
        let style = if split { MapStyle::SplitModules } else { MapStyle::WholeController };
        let netlist = map(&subject, &Library::cmos035(), objective, style);
        let mut ctrl = controller_of(n, &covers);
        ctrl.function_specs = specs_over(n, &covers, &bursts, seed);
        prop_assert_eq!(verify_mapped(&ctrl, &netlist), verify_mapped_per_point(&ctrl, &netlist));
    }
}

/// At n = 64 the pointwise sweep samples; its samples must span all 64
/// variables. The netlist computes `x63`, the claimed cover is `x62`.
#[test]
fn pointwise_sample_spans_all_64_variables() {
    let n = 64;
    let computed: Cover = [Cube::universe(n).with_fixed(63, true)]
        .into_iter()
        .collect();
    let claimed: Cover = [Cube::universe(n).with_fixed(62, true)]
        .into_iter()
        .collect();
    let subject = SubjectGraph::from_covers(n, &[("f0".into(), &computed)]);
    let netlist = map(
        &subject,
        &Library::cmos035(),
        MapObjective::Area,
        MapStyle::SplitModules,
    );
    let ctrl = controller_of(n, std::slice::from_ref(&claimed));
    assert_eq!(
        verify_equivalence_algebraic(&ctrl, &netlist),
        Some(HazardViolation::NotEquivalent {
            function: "f0".into(),
            point: 0x8000_0000_0000_0000,
        })
    );
    match verify_equivalence_pointwise(&ctrl, &netlist) {
        Some(HazardViolation::NotEquivalent { function, point }) => {
            assert_eq!(function, "f0");
            assert_ne!(netlist.eval(point)[0], claimed.eval(point), "{point:#x}");
        }
        other => panic!("expected a pointwise witness, got {other:?}"),
    }
}
