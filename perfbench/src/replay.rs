//! The traced replay of one design's control flow: the pipeline's layer
//! functions called in its order (translate → cluster → key → peek →
//! ch2bms → statemin → synth → verify → map → verify_mapped → store), each
//! inside a span, with the work counts each call returns.

use crate::inputs::{front_end, Digest};
use crate::spans::Spans;
use bmbe_bm::statemin::minimize_states;
use bmbe_bm::synth::{synthesize_full, MinimizeMode};
use bmbe_core::balsa_to_ch::balsa_to_ch;
use bmbe_core::compile::compile_to_bm;
use bmbe_core::opt::cluster::ClusterOptions;
use bmbe_flow::{ControllerCache, KeyedProgram, PhaseProfile, SynthArtifact};
use bmbe_gates::{map, verify_mapped, Library, MapObjective, MapStyle, SubjectGraph};
use bmbe_logic::hfmin::{MinimizeBackend, MinimizeOptions};
use bmbe_logic::Cover;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic work counts of the replayed layers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowCounts {
    pub components: usize,
    pub merged: usize,
    pub rejected: usize,
    pub keys: usize,
    pub lookups: usize,
    pub hits: usize,
    pub synthesized: usize,
    pub bm_states: usize,
    pub states_removed: usize,
    pub functions: usize,
    pub state_bits: usize,
    pub products: usize,
    pub exact_funcs: usize,
    pub cofactor_funcs: usize,
    pub cells: usize,
}

impl FlowCounts {
    pub fn add(&mut self, o: &FlowCounts) {
        self.components += o.components;
        self.merged += o.merged;
        self.rejected += o.rejected;
        self.keys += o.keys;
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.synthesized += o.synthesized;
        self.bm_states += o.bm_states;
        self.states_removed += o.states_removed;
        self.functions += o.functions;
        self.state_bits += o.state_bits;
        self.products += o.products;
        self.exact_funcs += o.exact_funcs;
        self.cofactor_funcs += o.cofactor_funcs;
        self.cells += o.cells;
    }
}

/// One design's replay result: its digest, counts, and the minimizer's own
/// prime-generation and covering times (read from `MinimizeStats`, not
/// timed by the benchmark).
pub struct Replayed {
    pub digest: Digest,
    pub counts: FlowCounts,
    pub prime_gen: Duration,
    pub covering: Duration,
}

/// Replays the optimized flow of `source` over `cache`, synthesizing each
/// missing shape with `inner` threads inside `synthesize_full`.
pub fn replay_flow(
    source: &str,
    cache: &ControllerCache,
    library: &Library,
    inner: usize,
    sp: &mut Spans,
) -> Result<Replayed, String> {
    let mode = MinimizeMode::Speed;
    let backend = MinimizeBackend::default();
    let (objective, style) = (MapObjective::Delay, MapStyle::SplitModules);
    let mut counts = FlowCounts::default();
    let (mut prime_gen, mut covering) = (Duration::ZERO, Duration::ZERO);

    let design = sp.span("balsa", |_| front_end(source))?;
    counts.components = design.netlist.components().len();
    let mut ctrl = sp
        .span("core.translate", |_| balsa_to_ch(&design.netlist))
        .map_err(|e| format!("translate: {e}"))?;
    let report = sp.span("core.cluster", |_| {
        ctrl.t2_clustering(&ClusterOptions::default())
    });
    counts.merged = report.eliminated_channels.len();
    counts.rejected = report.rejected.len();
    let keyed: Vec<KeyedProgram> = ctrl
        .components
        .iter()
        .map(|c| {
            sp.span("flow.key", |_| {
                KeyedProgram::new(&c.program, mode, backend, objective, style)
            })
        })
        .collect();
    counts.keys = keyed.len();

    let mut shapes: HashMap<&str, Arc<SynthArtifact>> = HashMap::new();
    for k in &keyed {
        if shapes.contains_key(k.key.canonical.as_str()) {
            continue;
        }
        counts.lookups += 1;
        let artifact = match sp.span("flow.cache", |_| cache.peek(&k.key)) {
            Some(hit) => {
                counts.hits += 1;
                hit
            }
            None => {
                let spec = sp
                    .span("core.ch2bms", |_| compile_to_bm("shape", &k.canonical))
                    .map_err(|e| format!("ch2bms: {e}"))?;
                let compiled_states = spec.num_states();
                counts.bm_states += compiled_states;
                let spec = sp
                    .span("bm.statemin", |_| minimize_states(&spec))
                    .map_err(|e| format!("statemin: {e}"))?
                    .spec;
                counts.states_removed += compiled_states - spec.num_states();
                let opts = MinimizeOptions {
                    backend,
                    threads: 1,
                    fault: None,
                };
                let controller = sp
                    .span("bm.synth", |_| synthesize_full(&spec, mode, inner, &opts))
                    .map_err(|e| format!("synth: {e}"))?;
                counts.functions +=
                    controller.output_covers.len() + controller.next_state_covers.len();
                counts.state_bits += controller.num_state_bits;
                counts.products += controller.num_products();
                counts.exact_funcs += controller.minimize_stats.exact_funcs;
                counts.cofactor_funcs += controller.minimize_stats.cofactor_funcs;
                prime_gen += controller.minimize_stats.prime_gen;
                covering += controller.minimize_stats.covering;
                sp.span("bm.verify", |_| controller.verify_ternary())
                    .map_err(|e| format!("hazard: {e}"))?;
                let mapped = sp.span("gates.map", |_| {
                    let names = controller
                        .outputs
                        .iter()
                        .cloned()
                        .chain((0..controller.num_state_bits).map(|j| format!("y{j}")));
                    let covers = controller
                        .output_covers
                        .iter()
                        .chain(&controller.next_state_covers);
                    let functions: Vec<(String, &Cover)> = names.zip(covers).collect();
                    let subject = SubjectGraph::from_covers(controller.num_vars(), &functions);
                    map(&subject, library, objective, style)
                });
                counts.cells += mapped.num_cells();
                if let Some(v) = sp
                    .span("gates.verify_mapped", |_| {
                        verify_mapped(&controller, &mapped)
                    })
                    .first()
                {
                    return Err(format!("mapped hazard: {v}"));
                }
                let artifact = Arc::new(SynthArtifact {
                    bm_states: spec.num_states(),
                    controller,
                    mapped,
                    profile: PhaseProfile::default(),
                });
                sp.span("flow.cache", |_| {
                    cache.store(k.key.clone(), artifact.clone())
                });
                counts.synthesized += 1;
                artifact
            }
        };
        shapes.insert(&k.key.canonical, artifact);
    }
    // Per component, what the production flow instantiates: the shape
    // under the component's name (renaming wires changes none of these).
    let digest = Digest(
        ctrl.components
            .iter()
            .zip(&keyed)
            .map(|(c, k)| {
                let a = &shapes[k.key.canonical.as_str()];
                (
                    c.name.clone(),
                    a.bm_states,
                    a.controller.num_products(),
                    a.mapped.area.to_bits(),
                )
            })
            .collect(),
    );
    Ok(Replayed {
        digest,
        counts,
        prime_gen,
        covering,
    })
}
