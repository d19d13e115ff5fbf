//! Cache-key canonicalization: the content address must be invariant under
//! channel renaming and sensitive to every synthesis-relevant option.

use bmbe_bm::synth::MinimizeMode;
use bmbe_core::components::{call, decision_wait, sequencer};
use bmbe_flow::{
    ControllerCache, FlowOptions, KeyedProgram, MinimizeBackend, Resolution, ShapeRegistry,
};
use bmbe_gates::{Library, MapObjective, MapStyle};

fn names(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| (*s).to_string()).collect()
}

const DEFAULTS: (MinimizeMode, MinimizeBackend, MapObjective, MapStyle) = (
    MinimizeMode::Speed,
    MinimizeBackend::Auto,
    MapObjective::Delay,
    MapStyle::SplitModules,
);

#[test]
fn structurally_identical_programs_share_a_key() {
    let (mode, backend, objective, style) = DEFAULTS;
    let a = sequencer("activate", &names(&["left", "right"]));
    let b = sequencer("go", &names(&["first", "second"]));
    let ka = KeyedProgram::new(&a, mode, backend, objective, style);
    let kb = KeyedProgram::new(&b, mode, backend, objective, style);
    assert_eq!(ka.key, kb.key);
    assert_eq!(ka.names, names(&["activate", "left", "right"]));
    assert_eq!(kb.names, names(&["go", "first", "second"]));

    let dw1 = decision_wait("act", &names(&["i0", "i1"]), &names(&["o0", "o1"]));
    let dw2 = decision_wait("trigger", &names(&["p", "q"]), &names(&["u", "v"]));
    assert_eq!(
        KeyedProgram::new(&dw1, mode, backend, objective, style).key,
        KeyedProgram::new(&dw2, mode, backend, objective, style).key
    );
}

#[test]
fn structurally_different_programs_get_different_keys() {
    let (mode, backend, objective, style) = DEFAULTS;
    let seq2 = sequencer("a", &names(&["x", "y"]));
    let seq3 = sequencer("a", &names(&["x", "y", "z"]));
    let call2 = call(&names(&["x", "y"]), "a");
    let k2 = KeyedProgram::new(&seq2, mode, backend, objective, style).key;
    assert_ne!(
        k2,
        KeyedProgram::new(&seq3, mode, backend, objective, style).key
    );
    assert_ne!(
        k2,
        KeyedProgram::new(&call2, mode, backend, objective, style).key
    );
}

#[test]
fn synthesis_options_are_part_of_the_key() {
    let program = sequencer("a", &names(&["x", "y"]));
    let base = KeyedProgram::new(
        &program,
        MinimizeMode::Speed,
        MinimizeBackend::Auto,
        MapObjective::Delay,
        MapStyle::SplitModules,
    );
    let minmode = KeyedProgram::new(
        &program,
        MinimizeMode::Area,
        MinimizeBackend::Auto,
        MapObjective::Delay,
        MapStyle::SplitModules,
    );
    let backend = KeyedProgram::new(
        &program,
        MinimizeMode::Speed,
        MinimizeBackend::CubeCofactor,
        MapObjective::Delay,
        MapStyle::SplitModules,
    );
    let exact = KeyedProgram::new(
        &program,
        MinimizeMode::Speed,
        MinimizeBackend::ExactPrimes,
        MapObjective::Delay,
        MapStyle::SplitModules,
    );
    let objective = KeyedProgram::new(
        &program,
        MinimizeMode::Speed,
        MinimizeBackend::Auto,
        MapObjective::Area,
        MapStyle::SplitModules,
    );
    let style = KeyedProgram::new(
        &program,
        MinimizeMode::Speed,
        MinimizeBackend::Auto,
        MapObjective::Delay,
        MapStyle::WholeController,
    );
    assert_ne!(base.key, minmode.key);
    assert_ne!(base.key, backend.key);
    assert_ne!(base.key, exact.key);
    assert_ne!(backend.key, exact.key);
    assert_ne!(base.key.digest(), backend.key.digest());
    assert_ne!(base.key, objective.key);
    assert_ne!(base.key, style.key);
    // Only the options differ — the canonical text is shared.
    assert_eq!(base.key.canonical, minmode.key.canonical);
    assert_eq!(base.key.canonical, backend.key.canonical);
    assert_eq!(base.key.canonical, style.key.canonical);
}

#[test]
fn renamed_instances_hit_and_options_miss() {
    let (mode, backend, objective, style) = DEFAULTS;
    let library = Library::cmos035();
    let cache = ControllerCache::new();
    let registry = ShapeRegistry::new(&cache, &library);
    let resolve = |program, mode, style| {
        let keyed = KeyedProgram::new(program, mode, backend, objective, style);
        let (artifact, resolution) = registry
            .resolve(&keyed, &FlowOptions::optimized())
            .expect("sequencer synthesizes");
        (artifact, resolution, keyed)
    };

    let first = sequencer("activate", &names(&["left", "right"]));
    let (art1, resolution, _) = resolve(&first, mode, style);
    assert_eq!(resolution, Resolution::Synthesized);
    assert_eq!(registry.synthesized(), 1);
    assert_eq!(registry.cache_hits(), 0);

    // Same shape, fresh channel names: must be served from the cache.
    let renamed = sequencer("go", &names(&["first", "second"]));
    let (art2, resolution, keyed) = resolve(&renamed, mode, style);
    assert_eq!(resolution, Resolution::Hit);
    assert_eq!(registry.cache_hits(), 1);
    assert_eq!(registry.synthesized(), 1);
    assert!(
        std::sync::Arc::ptr_eq(&art1, &art2),
        "hit must reuse the stored artifact"
    );
    // The name table still maps canonical wires onto *this* instance.
    assert_eq!(keyed.rename_wire("k0_r"), "go_r");
    assert_eq!(keyed.rename_wire("k2_a"), "second_a");
    assert_eq!(keyed.rename_wire("y0"), "y0");

    // Changing MinimizeMode or MapStyle must miss.
    resolve(&renamed, MinimizeMode::Area, style);
    assert_eq!(registry.synthesized(), 2);
    resolve(&renamed, mode, MapStyle::WholeController);
    assert_eq!(registry.synthesized(), 3);
    assert_eq!(registry.cache_hits(), 1);
    assert_eq!(cache.len(), 3);
}
