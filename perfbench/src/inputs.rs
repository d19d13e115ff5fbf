//! The design set every workload runs, and the per-design digest the
//! workloads compare.

use bmbe_balsa::CompiledDesign;
use bmbe_designs::corpus::{generate_corpus, CorpusSpec};
use bmbe_designs::scenarios::DesignScenario;
use bmbe_designs::{all_designs, derive_seed};
use bmbe_flow::FlowResult;

/// Corpus designs appended to the four paper designs. Sized so a
/// `flow_single` pass takes about a second on a 2-core host, and so one
/// pass holds more than 200 per-design samples (at least ten beyond p95).
pub const CORPUS_DESIGNS: usize = 400;

/// One design as the program under test receives it: source text plus the
/// scenario its simulation check runs.
pub struct Input {
    pub name: String,
    pub family: String,
    pub params: String,
    /// The generator seed of the design (0 for the shipped paper designs).
    pub seed: u64,
    pub source: String,
    pub scenario: DesignScenario,
    /// Seed of this design's scenario-variant stream.
    pub variant_seed: u64,
}

impl Input {
    /// The identity a failure report carries.
    pub fn describe(&self) -> String {
        format!(
            "design={} family={} params={} seed={:#x}",
            self.name, self.family, self.params, self.seed
        )
    }
}

/// The four paper designs (independent of `seed`) followed by the seeded
/// corpus slice `generate_corpus(seed, CORPUS_DESIGNS)`.
pub fn design_set(seed: u64) -> Result<Vec<Input>, String> {
    let mut out = Vec::with_capacity(4 + CORPUS_DESIGNS);
    for d in all_designs().map_err(|e| format!("paper designs: {e}"))? {
        out.push(Input {
            name: d.name.to_string(),
            family: "paper".into(),
            params: String::new(),
            seed: 0,
            source: d.source.to_string(),
            variant_seed: derive_seed(seed, d.name, "", 0),
            scenario: d.scenario,
        });
    }
    let corpus = generate_corpus(&CorpusSpec {
        seed,
        designs: CORPUS_DESIGNS,
    })
    .map_err(|e| format!("corpus seed {seed}: {e}"))?;
    for d in corpus {
        out.push(Input {
            variant_seed: derive_seed(seed, &d.name, &d.params, 0),
            name: d.name,
            family: d.family.to_string(),
            params: d.params,
            seed: d.seed,
            source: d.source,
            scenario: d.scenario,
        });
    }
    Ok(out)
}

/// The front end: mini-Balsa text to a handshake netlist.
pub fn front_end(source: &str) -> Result<CompiledDesign, String> {
    let program = bmbe_balsa::parse(source).map_err(|e| format!("parse: {e}"))?;
    let procedure = program
        .procedures
        .first()
        .ok_or("source has no procedure")?;
    bmbe_balsa::compile_procedure(procedure).map_err(|e| format!("compile: {e}"))
}

/// What a design's flow produced, per controller: name, BM states,
/// products, and the bits of its mapped area. Two flows that agree here
/// built the same circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest(pub Vec<(String, usize, usize, u64)>);

impl Digest {
    pub fn of(flow: &FlowResult) -> Digest {
        Digest(
            flow.controllers
                .iter()
                .map(|c| {
                    (
                        c.name.clone(),
                        c.bm_states,
                        c.controller.num_products(),
                        c.area().to_bits(),
                    )
                })
                .collect(),
        )
    }

    pub fn products(&self) -> usize {
        self.0.iter().map(|c| c.2).sum()
    }

    pub fn area(&self) -> f64 {
        self.0.iter().map(|c| f64::from_bits(c.3)).sum()
    }
}
