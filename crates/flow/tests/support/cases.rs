//! The design slice the program-path tests run: the four paper designs
//! and the first seed-11 corpus designs, each with the seed of its
//! scenario variants.

use bmbe_balsa::CompiledDesign;
use bmbe_designs::corpus::{generate_corpus, CorpusSpec};
use bmbe_designs::scenarios::DesignScenario;
use bmbe_designs::{all_designs, derive_seed, variants_of};
use bmbe_flow::{
    run_control_flow_with, to_flow_scenario, ControllerCache, FlowOptions, FlowResult, Scenario,
};
use bmbe_gates::Library;

/// A design with the seed of its scenario variants.
pub struct Case {
    pub name: String,
    pub compiled: CompiledDesign,
    pub scenario: DesignScenario,
    pub seed: u64,
}

/// The four paper designs and the first `corpus` seed-11 corpus designs.
pub fn cases(corpus: usize) -> Result<Vec<Case>, String> {
    let mut out = Vec::new();
    for d in all_designs().map_err(|e| e.to_string())? {
        out.push(Case {
            name: d.name.to_string(),
            seed: derive_seed(11, d.name, "", 0),
            compiled: d.compiled,
            scenario: d.scenario,
        });
    }
    let spec = CorpusSpec {
        seed: 11,
        designs: corpus,
    };
    for d in generate_corpus(&spec).map_err(|e| e.to_string())? {
        out.push(Case {
            seed: derive_seed(11, &d.name, &d.params, 0),
            name: d.name,
            compiled: d.compiled,
            scenario: d.scenario,
        });
    }
    Ok(out)
}

/// The base scenario of `case` and its first `n - 1` variants.
pub fn scenarios(case: &Case, n: usize) -> Vec<Scenario> {
    variants_of(&case.scenario, n, case.seed)
        .iter()
        .map(to_flow_scenario)
        .collect()
}

/// A fresh flow of `case` over `cache`.
pub fn flow(case: &Case, library: &Library, cache: &ControllerCache) -> Result<FlowResult, String> {
    run_control_flow_with(&case.compiled, &FlowOptions::optimized(), library, cache)
        .map_err(|e| format!("{}: flow: {e}", case.name))
}
