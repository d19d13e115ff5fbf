//! The back-end pipeline of Fig. 1: partition → Balsa-to-CH → clustering →
//! CH-to-BMS → Minimalist synthesis → technology mapping → hazard analysis.

use crate::batch::{run_flow, ShapeRegistry};
use crate::cache::{
    synthesize_shape_with_fault, CacheKey, ControllerCache, KeyedProgram, ShapeError, SynthArtifact,
};
use crate::fault::FaultPlan;
use crate::lower::LowerMemo;
use crate::templates::{template_table, Template};
use bmbe_balsa::CompiledDesign;
use bmbe_bm::synth::{Controller, MinimizeMode};
use bmbe_core::balsa_to_ch::{balsa_to_ch, TranslateError};
use bmbe_core::opt::cluster::{ClusterOptions, ClusterReport, CtrlNetlist};
use bmbe_core::opt::MergeMemo;
use bmbe_gates::{Library, MapObjective, MapStyle, MappedNetlist};
use bmbe_logic::MinimizeBackend;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Run the clustering optimizations (`T1`+`T2`).
    pub optimize: bool,
    /// Minimization mode (Minimalist's speed/area split).
    pub minimize_mode: MinimizeMode,
    /// Hazard-free minimizer backend (part of the cache key): the exact
    /// prime-enumerating engine, the espresso-style cube-cofactor engine,
    /// or the per-function automatic split (the default).
    pub minimize_backend: MinimizeBackend,
    /// Technology-mapping objective.
    pub map_objective: MapObjective,
    /// Mapping style (the paper's split-module flow vs whole-controller).
    pub map_style: MapStyle,
    /// Clustering options.
    pub cluster: ClusterOptions,
    /// Annotate unclustered components with hand-optimized template
    /// area/latency (stock Balsa's baseline, §6) instead of the figures of
    /// their individually synthesized controllers.
    pub use_templates: bool,
    /// Most worker threads one flow fans its long-pole shapes out over
    /// (see [`ShapeRegistry`]); each shape synthesizes on the worker that
    /// took it. `None` uses [`bmbe_par::default_threads`] (the
    /// `BMBE_THREADS` environment variable, or every available core);
    /// `Some(1)` runs everything on the calling thread. Results are
    /// identical (same order, same artifacts, same first error) regardless
    /// of the thread count. Batch jobs take their budget from
    /// [`crate::run_batch`] instead, and [`reference_flow`] ignores it.
    pub threads: Option<usize>,
    /// Deterministic fault injection: force a panic or a typed error at a
    /// chosen phase of a chosen synthesis job (see [`FaultPlan`]). `None`
    /// (the default everywhere) injects nothing; the bench binaries
    /// populate it from `BMBE_FAULT` via [`FlowOptions::with_env_fault`].
    pub fault: Option<FaultPlan>,
}

impl FlowOptions {
    /// The paper's optimized flow: clustering + speed scripts + split-module
    /// delay-oriented mapping.
    pub fn optimized() -> Self {
        FlowOptions {
            optimize: true,
            minimize_mode: MinimizeMode::Speed,
            minimize_backend: MinimizeBackend::default(),
            map_objective: MapObjective::Delay,
            map_style: MapStyle::SplitModules,
            cluster: ClusterOptions::default(),
            use_templates: false,
            threads: None,
            fault: None,
        }
    }

    /// The unoptimized baseline: stock Balsa — one hand-optimized template
    /// component per handshake component, no clustering.
    pub fn unoptimized() -> Self {
        FlowOptions {
            optimize: false,
            use_templates: true,
            ..Self::optimized()
        }
    }

    /// Arms the fault plan named by the `BMBE_FAULT` environment variable
    /// (`<phase>:<nth>[:err]`), if any — the switch the bench binaries use
    /// so recovery paths can be smoke-tested from CI without code changes.
    pub fn with_env_fault(mut self) -> Self {
        if let Some(plan) = FaultPlan::from_env() {
            self.fault = Some(plan);
        }
        self
    }
}

/// Errors raised by the flow.
#[derive(Debug)]
pub enum FlowError {
    /// Balsa-to-CH translation failed.
    Translate(TranslateError),
    /// A per-controller synthesis job failed (a compile/synth/verify/map
    /// error, a caught worker panic, or an injected fault). Carries the full
    /// context of the failing job: the design, the component, the
    /// content-addressed cache key of its shape, and the phase that failed —
    /// enough to re-run exactly that job in isolation.
    Job {
        /// The design whose flow failed. Sibling designs sharing the same
        /// cache are unaffected.
        design: String,
        /// The first component (in deterministic component order) whose
        /// shape failed.
        component: String,
        /// The shape's content-addressed cache key, as a hex digest.
        cache_key: String,
        /// The per-shape phase that failed (`compile`, `synth`, `verify`,
        /// `map`, `statemin`, or `panic` for a caught unwind).
        phase: &'static str,
        /// The underlying shape error, shared with every job that needed
        /// the same shape.
        error: Arc<ShapeError>,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Translate(e) => write!(f, "translate: {e}"),
            FlowError::Job {
                design,
                component,
                cache_key,
                phase,
                error,
            } => write!(
                f,
                "{design}/{component}: phase {phase} (cache key {cache_key}): {error}"
            ),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<TranslateError> for FlowError {
    fn from(e: TranslateError) -> Self {
        FlowError::Translate(e)
    }
}

/// One synthesized and mapped controller.
pub struct ControllerArtifact {
    /// Component (or cluster) name.
    pub name: String,
    /// Number of BM specification states.
    pub bm_states: usize,
    /// The synthesized two-level controller.
    pub controller: Controller,
    /// The technology-mapped netlist.
    pub mapped: MappedNetlist,
    /// The CH program it came from.
    pub program: bmbe_core::ast::ChExpr,
    /// Hand-optimized template annotation, when this artifact stands for a
    /// stock Balsa component (the unoptimized baseline).
    pub template: Option<Template>,
}

impl ControllerArtifact {
    /// Cell area of the controller (µm²).
    pub fn area(&self) -> f64 {
        self.template.map_or(self.mapped.area, |t| t.area)
    }

    /// Worst input-to-output delay (ns).
    pub fn critical_delay(&self) -> f64 {
        self.template
            .map_or_else(|| self.mapped.critical_delay(), |t| t.delay_ns)
    }
}

/// The result of running the control flow.
pub struct FlowResult {
    /// Design name.
    pub design: String,
    /// Control components before clustering.
    pub components_before: usize,
    /// Controllers after clustering (equal when unoptimized).
    pub controllers: Vec<ControllerArtifact>,
    /// The clustering report (when optimization ran).
    pub cluster_report: Option<ClusterReport>,
    /// Total control cell area (µm²).
    pub control_area: f64,
    /// Components served without synthesis by this run: from the
    /// content-addressed cache (an earlier run sharing the cache), from
    /// another job's flight, or as a structurally identical sibling of a
    /// shape this run synthesized. `cache_hits + cache_misses` is always the
    /// controller count; zero for [`reference_flow`].
    pub cache_hits: usize,
    /// Unique controller shapes synthesized by this run (every component
    /// for [`reference_flow`]).
    pub cache_misses: usize,
    /// The flow's thread budget: the resolved value of
    /// [`FlowOptions::threads`], or 1 for [`reference_flow`], which runs
    /// serially.
    pub threads_used: usize,
    /// The circuits the simulation entry points lowered this flow to, with
    /// each engine's program of them.
    pub(crate) lowered: LowerMemo,
}

impl FlowResult {
    /// Total number of two-level products across controllers.
    pub fn total_products(&self) -> usize {
        self.controllers
            .iter()
            .map(|c| c.controller.num_products())
            .sum()
    }
}

impl FlowError {
    /// Attaches the full job context — design, component, cache key, and
    /// failing phase — to a shape error.
    pub(crate) fn job(
        design: &str,
        component: &str,
        key: &CacheKey,
        error: Arc<ShapeError>,
    ) -> FlowError {
        FlowError::Job {
            design: design.to_string(),
            component: component.to_string(),
            cache_key: format!("{:016x}", key.digest()),
            phase: error.phase(),
            error,
        }
    }

    /// Dumps the flight recorder for a failed synthesis job with the same
    /// identity fields the typed error carries (file/stderr sink only — the
    /// pure-JSON stdout contract holds; a no-op when no dump sink is
    /// configured).
    fn dump(&self) {
        if let FlowError::Job {
            design,
            component,
            cache_key,
            phase,
            ..
        } = self
        {
            bmbe_obs::recorder::dump(
                "flow-error",
                &[
                    ("design", design.clone()),
                    ("component", component.clone()),
                    ("cache_key", cache_key.clone()),
                    ("phase", phase.to_string()),
                ],
            );
        }
    }
}

/// Re-materializes a cached canonical artifact as one component's
/// controller: clones the shape, renames canonical wires back to the
/// component's channel names, and attaches the instance name.
pub(crate) fn instantiate(
    shape: &SynthArtifact,
    keyed: &KeyedProgram,
    name: &str,
    program: &bmbe_core::ast::ChExpr,
    template: Option<Template>,
) -> ControllerArtifact {
    let mut controller = shape.controller.clone();
    controller.name = name.to_string();
    controller.rename_signals(|wire| keyed.rename_wire(wire));
    let mut mapped = shape.mapped.clone();
    mapped.rename_roots(|wire| keyed.rename_wire(wire));
    ControllerArtifact {
        name: name.to_string(),
        bm_states: shape.bm_states,
        controller,
        mapped,
        program: program.clone(),
        template,
    }
}

/// The front half every flow shares: Balsa-to-CH translation, clustering
/// (when optimizing), and the template table (when annotating stock Balsa
/// components).
pub(crate) struct Partition {
    /// The control components to synthesize, in deterministic order.
    pub(crate) ctrl: CtrlNetlist,
    components_before: usize,
    cluster_report: Option<ClusterReport>,
    templates: HashMap<String, Template>,
}

impl Partition {
    /// Translates and (per `options`) clusters the design's control part,
    /// taking merge state counts from `merges`.
    pub(crate) fn of(
        design: &CompiledDesign,
        options: &FlowOptions,
        merges: &MergeMemo,
    ) -> Result<Self, FlowError> {
        let mut ctrl = {
            let _s = bmbe_obs::span!("flow.translate", "flow");
            balsa_to_ch(&design.netlist)?
        };
        let components_before = ctrl.components.len();
        let cluster_report = options.optimize.then(|| {
            let _s = bmbe_obs::span!("flow.cluster", "flow");
            ctrl.t2_clustering_with(&options.cluster, merges)
        });
        let templates = if options.use_templates {
            template_table(&design.netlist)
        } else {
            HashMap::new()
        };
        Ok(Partition {
            ctrl,
            components_before,
            cluster_report,
            templates,
        })
    }

    /// The template annotation of component `name`, if any.
    pub(crate) fn template(&self, name: &str) -> Option<Template> {
        self.templates.get(name).copied()
    }

    /// Assembles the flow result. `cache_misses` shapes were synthesized by
    /// this run; every other component was served without synthesis.
    pub(crate) fn finish(
        self,
        design: &CompiledDesign,
        controllers: Vec<ControllerArtifact>,
        cache_misses: usize,
        threads_used: usize,
    ) -> FlowResult {
        // One source of truth for area accounting: the artifact's own
        // figure (template annotation when present, mapped area otherwise).
        let control_area = controllers.iter().map(ControllerArtifact::area).sum();
        FlowResult {
            design: design.netlist.name().to_string(),
            components_before: self.components_before,
            cache_hits: controllers.len() - cache_misses,
            controllers,
            cluster_report: self.cluster_report,
            control_area,
            cache_misses,
            threads_used,
            lowered: LowerMemo::default(),
        }
    }
}

/// Runs the control back-end on a compiled design with a private,
/// run-local controller cache (and so a private merge memo).
///
/// # Errors
///
/// See [`FlowError`]; every stage re-verifies its output.
pub fn run_control_flow(
    design: &CompiledDesign,
    options: &FlowOptions,
    library: &Library,
) -> Result<FlowResult, FlowError> {
    run_control_flow_with(design, options, library, &ControllerCache::new())
}

/// Runs the control back-end on a compiled design, reusing (and growing)
/// the given controller cache. Sharing one cache across runs lets the
/// bench drivers synthesize each controller shape once across all four
/// benchmark designs and both sides of an unoptimized/optimized
/// comparison, and compile each clustering merge shape once through the
/// cache's merge memo.
///
/// This is one job through a private [`ShapeRegistry`] over `cache` — the
/// same path the batch fleet takes (see [`crate::flow_through_registry`]),
/// with the whole [`FlowOptions::threads`] budget. Component order,
/// artifacts, and the first failing component are identical to
/// [`reference_flow`] at any thread count.
///
/// # Errors
///
/// See [`FlowError`]; every stage re-verifies its output.
pub fn run_control_flow_with(
    design: &CompiledDesign,
    options: &FlowOptions,
    library: &Library,
    cache: &ControllerCache,
) -> Result<FlowResult, FlowError> {
    let threads = options.threads.unwrap_or_else(bmbe_par::default_threads);
    let registry = ShapeRegistry::new(cache, library);
    run_flow(design, options, &registry, threads)
        .map(|(flow, _)| flow)
        .inspect_err(FlowError::dump)
}

/// The per-instance reference flow, the oracle the production path is
/// checked against: every component is synthesized from its own program
/// under its own names, one after another on the calling thread, with no
/// cache and no dedup, after clustering over a fresh merge memo.
/// [`FlowOptions::threads`] is ignored, and a fault plan targets the
/// `n`-th component.
///
/// # Errors
///
/// The first failing component's [`FlowError`].
pub fn reference_flow(
    design: &CompiledDesign,
    options: &FlowOptions,
    library: &Library,
) -> Result<FlowResult, FlowError> {
    let _flow_span = bmbe_obs::span!("flow.run", "flow");
    let part = Partition::of(design, options, &MergeMemo::new())?;
    let mut controllers = Vec::with_capacity(part.ctrl.components.len());
    for (i, comp) in part.ctrl.components.iter().enumerate() {
        let fault = options.fault.as_ref().filter(|f| f.targets_job(i));
        let shape = bmbe_par::catch_job(|| {
            synthesize_shape_with_fault(
                &comp.name,
                &comp.program,
                options.minimize_mode,
                options.minimize_backend,
                options.map_objective,
                options.map_style,
                library,
                fault,
            )
        })
        .unwrap_or_else(|payload| Err(ShapeError::Panic(payload)))
        .map_err(|e| {
            let key = KeyedProgram::new(
                &comp.program,
                options.minimize_mode,
                options.minimize_backend,
                options.map_objective,
                options.map_style,
            )
            .key;
            FlowError::job(design.netlist.name(), &comp.name, &key, Arc::new(e))
        })?;
        controllers.push(ControllerArtifact {
            name: comp.name.clone(),
            bm_states: shape.bm_states,
            controller: shape.controller,
            mapped: shape.mapped,
            program: comp.program.clone(),
            template: part.template(&comp.name),
        });
    }
    let misses = controllers.len();
    Ok(part.finish(design, controllers, misses, 1))
}
