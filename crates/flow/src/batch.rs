//! The long-running batch front-end: many design jobs sharing one
//! controller cache and one fleet-wide singleflight registry, so each
//! distinct controller shape is synthesized **exactly once** per fleet no
//! matter how many jobs need it or how they interleave.
//!
//! [`flow_through_registry`] is the one production flow — translate,
//! cluster, key, resolve every distinct shape through a [`ShapeRegistry`],
//! instantiate; [`crate::run_control_flow_with`] is the same flow as a
//! single job over a private registry. The registry layers on top of the
//! shared [`ControllerCache`] (and through it the persistent
//! [`crate::DiskCache`], when configured):
//!
//! * **hit** — the shape is already in the cache (memory or disk);
//! * **synthesized** — this job claimed the in-flight slot and ran the
//!   per-shape chain, storing the artifact write-through;
//! * **shared** — another job is synthesizing the same digest right now;
//!   the caller blocks until the slot lands and reuses the owner's result
//!   (successes *and* failures — a failed flight is not retried, which is
//!   what keeps synthesis exactly-once).
//!
//! Parallelism has two levels, both here: jobs fan out across the
//! `bmbe-par` worker pool, and one job's long-pole shapes fan out longest
//! first under the job's thread budget (`shape_workers`), so single-design
//! runs and fleet jobs share one scheduling policy. Each shape synthesizes
//! on the worker that claimed it; the synthesis libraries below are
//! single-threaded.
//!
//! A panicking job becomes a [`JobFailure`] with phase `panic` while its
//! siblings complete. Observability: the
//! `batch.shapes.{synthesized,shared,hits,failed}` and
//! `batch.jobs.{completed,failed,pending}` counters (`pending` adds the
//! job count up front and takes one off per finished job), and the
//! `wait.us` annotation of each `batch.wait` span (how long a waiter
//! blocked on an in-flight shape).

use crate::cache::{
    synthesize_shape_with_fault, CacheKey, ControllerCache, KeyedProgram, ShapeError, SynthArtifact,
};
use crate::csim::simulate_scenarios;
use crate::fault::FaultPhase;
use crate::pipeline::{instantiate, FlowError, FlowOptions, FlowResult, Partition};
use crate::table3::{check_outcome, to_flow_scenario};
use bmbe_balsa::CompiledDesign;
use bmbe_designs::scenarios::DesignScenario;
use bmbe_designs::variants_of;
use bmbe_gates::Library;
use bmbe_obs::export::escape;
use bmbe_sim::prims::Delays;
use bmbe_sim::SimBackend;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// One design job in a batch: a compiled design plus its flow options and
/// an optional simulation stage.
pub struct BatchJob {
    /// Job label (reported back verbatim; need not be unique).
    pub label: String,
    /// The compiled design to run.
    pub design: CompiledDesign,
    /// Flow configuration. The options participate in the cache key, so
    /// jobs with different options never share shapes by accident.
    pub options: FlowOptions,
    /// Benchmark scenario for the simulation stage; `None` skips
    /// simulation.
    pub scenario: Option<DesignScenario>,
    /// Number of scenario variants to simulate through the compiled
    /// batch backend (see [`bmbe_designs::variants_of`]); `0` skips
    /// simulation even when a scenario is present.
    pub sim_batch: usize,
    /// Seed for the scenario variants.
    pub seed: u64,
}

impl BatchJob {
    /// A job over a design with the optimized flow and no simulation.
    pub fn new(label: impl Into<String>, design: CompiledDesign) -> Self {
        BatchJob {
            label: label.into(),
            design,
            options: FlowOptions::optimized(),
            scenario: None,
            sim_batch: 0,
            seed: 0,
        }
    }
}

/// How a shape was resolved for one requesting job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Served from the shared cache (memory or disk).
    Hit,
    /// Synthesized by the requesting job (it claimed the flight).
    Synthesized,
    /// Reused from another job's in-flight synthesis of the same digest.
    Shared,
}

/// Canonical-program-text length below which a shape counts as small work:
/// cheap controllers finish in well under the cost of parking them on a
/// worker thread, so fanning them out loses time. The value sits between
/// the largest shape of the small benchmark designs and the long-pole
/// cluster controllers that actually profit from a worker (measured via
/// `perf_report`; see BENCH_flow.json).
const PAR_COST_CUTOFF: usize = 160;

/// Worker count for the shapes one job claimed: one worker per shape at
/// or above the small-work cutoff, capped at `threads`. Small shapes
/// finish in noise, so they do not count; with fewer than two long poles
/// every shape runs inline on the calling thread.
fn shape_workers(threads: usize, costs: impl Iterator<Item = usize>) -> usize {
    let big = costs.filter(|&c| c >= PAR_COST_CUTOFF).count();
    if big < 2 {
        1
    } else {
        big.min(threads.max(1))
    }
}

/// A shape's resolution, or the owning flight's shared error.
type Resolved = Result<(Arc<SynthArtifact>, Resolution), Arc<ShapeError>>;

/// A flight's outcome, shared by the owner and every waiter.
type Flight = Result<Arc<SynthArtifact>, Arc<ShapeError>>;

/// A singleflight slot: one in-flight (or landed) synthesis of a shape.
/// Only the owner sets it; everyone else blocks in `wait` until it lands.
type Slot = OnceLock<Flight>;

/// What one lookup found for a shape.
enum Claim {
    /// Served by the cache.
    Hit(Arc<SynthArtifact>),
    /// This caller claimed the flight and must fly it.
    Owner(Arc<Slot>),
    /// Another caller's flight (running or landed) serves it.
    Waiter(Arc<Slot>),
}

/// Recovers a poisoned guard: the registry's maps are only ever inserted
/// into, valid even when the poisoning panic happened elsewhere.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The fleet-wide shape resolver: cache read-through plus singleflight on
/// in-flight digests. Shared (by reference) across every job of a batch;
/// a single-design flow runs one job over a registry of its own.
pub struct ShapeRegistry<'a> {
    cache: &'a ControllerCache,
    library: &'a Library,
    slots: Mutex<HashMap<CacheKey, Arc<Slot>>>,
    seen: Mutex<HashSet<CacheKey>>,
    claims: AtomicUsize,
    synthesized: AtomicUsize,
    shared: AtomicUsize,
    hits: AtomicUsize,
}

impl<'a> ShapeRegistry<'a> {
    /// A registry resolving through `cache` and mapping onto `library`.
    pub fn new(cache: &'a ControllerCache, library: &'a Library) -> Self {
        ShapeRegistry {
            cache,
            library,
            slots: Mutex::new(HashMap::new()),
            seen: Mutex::new(HashSet::new()),
            claims: AtomicUsize::new(0),
            synthesized: AtomicUsize::new(0),
            shared: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }

    /// Distinct shape digests resolved so far (hit, synthesized, or
    /// shared — every key any job asked for).
    pub fn distinct_shapes(&self) -> usize {
        lock(&self.seen).len()
    }

    /// Shapes synthesized by this fleet (claimed flights that ran the
    /// per-shape chain). With an empty starting cache this equals
    /// [`Self::distinct_shapes`] minus failed flights — the exactly-once
    /// guarantee.
    pub fn synthesized(&self) -> usize {
        self.synthesized.load(Ordering::Relaxed)
    }

    /// Resolutions that blocked on another job's in-flight synthesis.
    pub fn shared_waits(&self) -> usize {
        self.shared.load(Ordering::Relaxed)
    }

    /// Resolutions served straight from the shared cache.
    pub fn cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Resolves one keyed shape: cache peek, then claim-or-wait on the
    /// in-flight slot. The owner synthesizes the canonical program
    /// (panic-isolated) on the calling thread and stores the result
    /// write-through; waiters block until the flight lands and reuse its
    /// result. `options` supplies the fault plan; the synthesis options
    /// come from the key itself.
    ///
    /// # Errors
    ///
    /// The owning flight's error, shared by every waiter on the same
    /// digest. Failed flights stay failed (the slot is not retried) so a
    /// poisoned shape is synthesized at most once per fleet.
    pub fn resolve(&self, keyed: &KeyedProgram, options: &FlowOptions) -> Resolved {
        // One shape in, one resolution out.
        self.resolve_all(&[keyed], options, 1).remove(0)
    }

    /// Resolves one job's distinct shapes, in order. The shapes this job
    /// claims fan out longest first over at most `threads` workers (see
    /// [`shape_workers`]), each synthesizing on the worker that took it;
    /// their claim indices — which a fault plan targets — follow that
    /// dispatch order and are fixed before the fan-out, so they do not
    /// depend on the thread count. Waits on other
    /// jobs' flights start only after every claimed flight has landed:
    /// a job never blocks while holding an unfinished claim, which is what
    /// keeps a fleet of jobs deadlock-free.
    fn resolve_all(
        &self,
        shapes: &[&KeyedProgram],
        options: &FlowOptions,
        threads: usize,
    ) -> Vec<Resolved> {
        let claims: Vec<Claim> = shapes.iter().map(|k| self.claim(&k.key)).collect();
        let mut owned: Vec<(&KeyedProgram, &Slot)> = shapes
            .iter()
            .zip(&claims)
            .filter_map(|(k, claim)| match claim {
                Claim::Owner(slot) => Some((*k, &**slot)),
                _ => None,
            })
            .collect();
        // Longest job first, so the long-pole shape never starts last.
        owned.sort_by_key(|(k, _)| Reverse(k.key.canonical.len()));
        let first = self.claims.fetch_add(owned.len(), Ordering::Relaxed);
        let workers = shape_workers(threads, owned.iter().map(|(k, _)| k.key.canonical.len()));
        // Claim spans nest under the dispatching span on whichever worker
        // runs them, so the span tree does not depend on the thread count.
        let parent = bmbe_obs::current_span();
        bmbe_par::par_map(&owned, workers, |j, (keyed, slot)| {
            self.fly(keyed, slot, first + j, options, parent)
        });
        shapes
            .iter()
            .zip(claims)
            .map(|(k, claim)| match claim {
                Claim::Hit(artifact) => Ok((artifact, Resolution::Hit)),
                Claim::Owner(slot) => slot.wait().clone().map(|a| (a, Resolution::Synthesized)),
                Claim::Waiter(slot) => self.wait(&k.key, &slot).map(|a| (a, Resolution::Shared)),
            })
            .collect()
    }

    /// Looks `key` up: a cache hit, or the in-flight slot — claimed by
    /// this caller when nobody holds it yet.
    fn claim(&self, key: &CacheKey) -> Claim {
        lock(&self.seen).insert(key.clone());
        if let Some(artifact) = self.cache.peek(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            bmbe_obs::trace_counter!("batch.shapes.hits", 1);
            return Claim::Hit(artifact);
        }
        match lock(&self.slots).entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => Claim::Waiter(e.get().clone()),
            std::collections::hash_map::Entry::Vacant(v) => {
                Claim::Owner(v.insert(Arc::default()).clone())
            }
        }
    }

    /// Runs the claimed flight with fleet-wide claim index `claim`:
    /// synthesizes the canonical program (panic-isolated) on this thread,
    /// stores the artifact write-through, and lands the outcome in `slot`
    /// for its waiters.
    fn fly(
        &self,
        keyed: &KeyedProgram,
        slot: &Slot,
        claim: usize,
        options: &FlowOptions,
        parent: u64,
    ) {
        let digest = keyed.key.digest();
        // The claim span carries the shape digest so the fleet analyzer
        // can attribute waiters' blocked time to this synthesis (and to its
        // hottest phase below).
        let _claim_span = bmbe_obs::span_with_parent!("batch.claim", "batch", parent);
        bmbe_obs::annotate_num!("shape.digest", digest as i64);
        bmbe_obs::recorder::note("batch.claim", || format!("digest {digest:016x} claimed"));
        // `BMBE_FAULT=<phase>:<n>` hits the n-th shape any job claims
        // (cache_io plans are handled by the disk layer and skipped here).
        let fault = options
            .fault
            .as_ref()
            .filter(|f| f.phase != FaultPhase::CacheIo && f.targets_job(claim));
        let key = &keyed.key;
        let result = bmbe_par::catch_job(|| {
            synthesize_shape_with_fault(
                "shape",
                &keyed.canonical,
                key.minimize_mode,
                key.minimize_backend,
                key.map_objective,
                key.map_style,
                self.library,
                fault,
            )
        })
        .unwrap_or_else(|payload| Err(ShapeError::Panic(payload)));
        let flight = match result {
            Ok(artifact) => {
                let artifact = Arc::new(artifact);
                self.cache.store(key.clone(), artifact.clone());
                self.synthesized.fetch_add(1, Ordering::Relaxed);
                bmbe_obs::trace_counter!("batch.shapes.synthesized", 1);
                Ok(artifact)
            }
            Err(e) => {
                bmbe_obs::trace_counter!("batch.shapes.failed", 1);
                bmbe_obs::recorder::note("batch.claim.failed", || {
                    format!("digest {digest:016x}: {e}")
                });
                Err(Arc::new(e))
            }
        };
        // The owner is the only writer, so the slot is still empty here.
        let _ = slot.set(flight);
    }

    /// Blocks on another job's flight of `key` and reuses its outcome.
    fn wait(&self, key: &CacheKey, slot: &Slot) -> Flight {
        // The analyzer's per-shape wait attribution sums the `wait.us`
        // annotations of these spans.
        let _wait_span = bmbe_obs::span!("batch.wait", "batch");
        bmbe_obs::annotate_num!("shape.digest", key.digest() as i64);
        let start = Instant::now();
        let flight = slot.wait().clone();
        bmbe_obs::annotate_num!("wait.us", start.elapsed().as_micros().min(i64::MAX as u128));
        self.shared.fetch_add(1, Ordering::Relaxed);
        bmbe_obs::trace_counter!("batch.shapes.shared", 1);
        flight
    }
}

/// One job's structured result.
#[derive(Debug)]
pub struct JobReport {
    /// The job's label, verbatim.
    pub label: String,
    /// Design name (from the netlist).
    pub design: String,
    /// Control components before clustering.
    pub components_before: usize,
    /// Controllers after clustering.
    pub controllers: usize,
    /// Total two-level products across controllers.
    pub products: usize,
    /// Total control cell area (µm²).
    pub control_area: f64,
    /// Distinct shapes this job needed.
    pub distinct_shapes: usize,
    /// Shapes served from the shared cache. Above one job worker, which
    /// of `cache_hits`, `synthesized` and `shared` counts a shape that
    /// other jobs also need follows thread timing; their sum,
    /// `distinct_shapes`, does not.
    pub cache_hits: usize,
    /// Shapes this job synthesized (flights it claimed).
    pub synthesized: usize,
    /// Shapes reused from another job's in-flight synthesis (see
    /// `cache_hits`).
    pub shared: usize,
    /// Simulated scenario lanes (0 when the sim stage was skipped).
    pub sim_lanes: usize,
    /// Lanes that reached their done condition.
    pub sim_completed: usize,
    /// Job wall-clock seconds.
    pub wall_s: f64,
}

/// One job's failure, with enough context to re-run it in isolation.
#[derive(Debug)]
pub struct JobFailure {
    /// The job's label, verbatim.
    pub label: String,
    /// Design name (empty when translation never produced one).
    pub design: String,
    /// The first failing component, when the failure is per-shape.
    pub component: String,
    /// The failing shape's cache-key digest (hex), when per-shape.
    pub cache_key: String,
    /// The failing stage: `translate`, a per-shape phase (`compile`,
    /// `synth`, `verify`, `map`, `statemin`), an injected fault, `sim`,
    /// `check`, or `panic` for a caught job unwind.
    pub phase: &'static str,
    /// Human-readable error.
    pub error: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} ({}): phase {}: {}",
            self.label, self.design, self.phase, self.error
        )?;
        if !self.component.is_empty() {
            write!(f, " [component {} key {}]", self.component, self.cache_key)?;
        }
        Ok(())
    }
}

impl std::error::Error for JobFailure {}

/// One job's outcome as the one-line JSON object that `bmbe batch` and
/// `batch_report` print: every [`JobReport`] field but
/// `components_before`, or every [`JobFailure`] field.
pub fn job_json(outcome: &Result<JobReport, JobFailure>) -> String {
    match outcome {
        Ok(r) => format!(
            "{{\"job\": \"{}\", \"design\": \"{}\", \"ok\": true, \
             \"controllers\": {}, \"products\": {}, \"control_area\": {:.1}, \
             \"distinct_shapes\": {}, \"cache_hits\": {}, \"synthesized\": {}, \
             \"shared\": {}, \"sim_lanes\": {}, \"sim_completed\": {}, \
             \"wall_s\": {:.6}}}",
            escape(&r.label),
            escape(&r.design),
            r.controllers,
            r.products,
            r.control_area,
            r.distinct_shapes,
            r.cache_hits,
            r.synthesized,
            r.shared,
            r.sim_lanes,
            r.sim_completed,
            r.wall_s
        ),
        Err(f) => format!(
            "{{\"job\": \"{}\", \"design\": \"{}\", \"ok\": false, \
             \"phase\": \"{}\", \"component\": \"{}\", \"cache_key\": \"{}\", \
             \"error\": \"{}\"}}",
            escape(&f.label),
            escape(&f.design),
            escape(f.phase),
            escape(&f.component),
            escape(&f.cache_key),
            escape(&f.error)
        ),
    }
}

/// Drains the flight recorder for a failed job: the dump carries the
/// failure's design/component/cache_key/phase so forensics correlate with
/// the structured error, and goes to a file (or stderr), never stdout.
fn dump_failure(failure: &JobFailure) {
    bmbe_obs::recorder::note("batch.job.failed", || failure.to_string());
    bmbe_obs::recorder::dump(
        "job-failure",
        &[
            ("label", failure.label.clone()),
            ("design", failure.design.clone()),
            ("component", failure.component.clone()),
            ("cache_key", failure.cache_key.clone()),
            ("phase", failure.phase.to_string()),
            ("error", failure.error.clone()),
        ],
    );
}

/// The whole batch's outcome: per-job results in job order plus the
/// fleet-wide shape accounting. Above one job worker, how resolutions
/// split between `cache_hits` and `shared_waits` follows thread timing, so
/// it may differ run to run; `distinct_shapes`, `synthesized` and the sum
/// `cache_hits + shared_waits` do not (nor do the jobs' split totals; see
/// [`JobReport::cache_hits`]).
pub struct BatchSummary {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<Result<JobReport, JobFailure>>,
    /// Distinct shape digests resolved across the fleet.
    pub distinct_shapes: usize,
    /// Shapes synthesized across the fleet (each exactly once).
    pub synthesized: usize,
    /// Singleflight waits (a job blocked on another's flight).
    pub shared_waits: usize,
    /// Cache hits across the fleet (memory or disk).
    pub cache_hits: usize,
    /// Merge lookups of the fleet's clustering served by the cache's merge
    /// memo.
    pub merge_hits: usize,
    /// Merge lookups of the fleet's clustering that compiled the merged
    /// program.
    pub merge_misses: usize,
    /// Job-level worker threads used.
    pub job_workers: usize,
    /// Thread budget of each job: its shape fan-out and simulation stage.
    pub inner_threads: usize,
    /// Batch wall-clock seconds.
    pub wall_s: f64,
}

impl BatchSummary {
    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_err()).count()
    }
}

/// Runs one job's flow through the registry, then its optional sim stage.
/// `parent_span` is the fleet's `batch.run` span id, so job spans nest
/// under it across worker threads.
fn run_job(
    job: &BatchJob,
    registry: &ShapeRegistry<'_>,
    inner: usize,
    parent_span: u64,
) -> Result<JobReport, JobFailure> {
    let start = Instant::now();
    let _job_span = bmbe_obs::span_with_parent!("batch.job", "batch", parent_span);
    bmbe_obs::annotate_str!("job.label", &job.label);
    bmbe_obs::annotate_str!("job.design", job.design.netlist.name());
    bmbe_obs::recorder::note("batch.job", || {
        format!("job {} ({}) started", job.label, job.design.netlist.name())
    });
    let fail = |design: &str, phase: &'static str, error: String| JobFailure {
        label: job.label.clone(),
        design: design.to_string(),
        component: String::new(),
        cache_key: String::new(),
        phase,
        error,
    };
    let design_name = job.design.netlist.name().to_string();
    let (flow, shape_stats) =
        flow_through_registry(&job.label, &job.design, &job.options, registry, inner)?;
    let components_before = flow.components_before;

    let (mut sim_lanes, mut sim_completed) = (0usize, 0usize);
    if let (Some(scenario), true) = (&job.scenario, job.sim_batch > 0) {
        let scenarios: Vec<_> = variants_of(scenario, job.sim_batch, job.seed)
            .iter()
            .map(to_flow_scenario)
            .collect();
        let outcomes = simulate_scenarios(
            &job.design,
            &flow,
            &scenarios,
            &Delays::default(),
            SimBackend::Compiled,
            inner,
            None,
        );
        sim_lanes = outcomes.len();
        match outcomes.first() {
            Some(Ok(base)) if base.completed => {
                check_outcome(&scenario.check, base)
                    .map_err(|detail| fail(&design_name, "check", detail))?;
            }
            Some(Ok(_)) => {
                return Err(fail(
                    &design_name,
                    "sim",
                    "base scenario did not reach its done condition".into(),
                ))
            }
            Some(Err(e)) => return Err(fail(&design_name, "sim", e.to_string())),
            None => {}
        }
        sim_completed = outcomes
            .iter()
            .filter(|o| o.as_ref().is_ok_and(|o| o.completed))
            .count();
    }

    Ok(JobReport {
        label: job.label.clone(),
        design: design_name,
        components_before,
        controllers: flow.controllers.len(),
        products: flow.total_products(),
        control_area: flow.control_area,
        distinct_shapes: shape_stats.distinct,
        cache_hits: shape_stats.hits,
        synthesized: shape_stats.synthesized,
        shared: shape_stats.shared,
        sim_lanes,
        sim_completed,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// How one design's shapes resolved through the registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShapeStats {
    /// Distinct shape digests in the design.
    pub distinct: usize,
    /// Shapes served from the shared cache (memory or disk).
    pub hits: usize,
    /// Shapes this caller synthesized (it claimed the flight).
    pub synthesized: usize,
    /// Shapes reused from another caller's in-flight synthesis.
    pub shared: usize,
}

/// Runs one design's production flow — translate, cluster, key, resolve
/// each distinct shape through the registry, instantiate — and returns the
/// [`FlowResult`] plus how its shapes resolved. `threads` caps the workers
/// the design's claimed long-pole shapes fan out over.
///
/// This is the per-design half of [`run_job`], shared with the
/// differential gauntlet, and — over a private registry — what
/// [`crate::run_control_flow_with`] runs. Clustering goes through the merge
/// memo of the registry's cache, so every design sharing the cache shares
/// the memo, and over a disk layer the merges it compiled are appended to
/// the merge log before its shapes resolve.
///
/// # Errors
///
/// Returns a [`JobFailure`] naming the design, component, cache key, and
/// phase on any translate or synthesis error.
pub fn flow_through_registry(
    label: &str,
    design: &CompiledDesign,
    options: &FlowOptions,
    registry: &ShapeRegistry<'_>,
    threads: usize,
) -> Result<(FlowResult, ShapeStats), JobFailure> {
    run_flow(design, options, registry, threads).map_err(|e| {
        let (component, cache_key, phase, error) = match e {
            FlowError::Translate(e) => (String::new(), String::new(), "translate", e.to_string()),
            FlowError::Job {
                component,
                cache_key,
                phase,
                error,
                ..
            } => (component, cache_key, phase, error.to_string()),
        };
        JobFailure {
            label: label.to_string(),
            design: design.netlist.name().to_string(),
            component,
            cache_key,
            phase,
            error,
        }
    })
}

/// The body of [`flow_through_registry`], with the flow's own error type.
pub(crate) fn run_flow(
    design: &CompiledDesign,
    options: &FlowOptions,
    registry: &ShapeRegistry<'_>,
    threads: usize,
) -> Result<(FlowResult, ShapeStats), FlowError> {
    let _flow_span = bmbe_obs::span!("flow.run", "flow");
    bmbe_obs::annotate_str!("job.design", design.netlist.name());
    let part = Partition::of(design, options, registry.cache.merge_memo())?;
    registry.cache.persist_merges();
    let keyed: Vec<KeyedProgram> = {
        let _s = bmbe_obs::span!("flow.key", "flow");
        part.ctrl
            .components
            .iter()
            .map(|comp| {
                KeyedProgram::new(
                    &comp.program,
                    options.minimize_mode,
                    options.minimize_backend,
                    options.map_objective,
                    options.map_style,
                )
            })
            .collect()
    };
    // Distinct shapes in first-use order, and each component's shape.
    let mut first_use: HashMap<&CacheKey, usize> = HashMap::new();
    let mut distinct: Vec<&KeyedProgram> = Vec::new();
    let shape_of: Vec<usize> = keyed
        .iter()
        .map(|k| {
            *first_use.entry(&k.key).or_insert_with(|| {
                distinct.push(k);
                distinct.len() - 1
            })
        })
        .collect();
    let resolved = registry.resolve_all(&distinct, options, threads);

    let mut stats = ShapeStats {
        distinct: distinct.len(),
        ..ShapeStats::default()
    };
    for (_, resolution) in resolved.iter().flatten() {
        match resolution {
            Resolution::Hit => stats.hits += 1,
            Resolution::Synthesized => stats.synthesized += 1,
            Resolution::Shared => stats.shared += 1,
        }
    }
    // Instantiate in component order; the first component whose shape
    // failed names the error.
    let mut controllers = Vec::with_capacity(keyed.len());
    for ((comp, k), &shape) in part.ctrl.components.iter().zip(&keyed).zip(&shape_of) {
        match &resolved[shape] {
            Ok((artifact, _)) => controllers.push(instantiate(
                artifact,
                k,
                &comp.name,
                &comp.program,
                part.template(&comp.name),
            )),
            Err(e) => {
                return Err(FlowError::job(
                    design.netlist.name(),
                    &comp.name,
                    &k.key,
                    e.clone(),
                ))
            }
        }
    }
    let flow = part.finish(design, controllers, stats.synthesized, threads);
    registry.cache.record(flow.cache_hits, flow.cache_misses);
    Ok((flow, stats))
}

/// Runs a batch of design jobs over a shared cache, sharding distinct
/// shape digests across the worker pool so each is synthesized exactly
/// once per fleet.
///
/// The thread budget splits between job-level workers
/// (`threads.min(jobs)`) and a per-job budget that fans the job's claimed
/// long-pole shapes out (see `shape_workers`) and runs its simulation
/// stage. Waiters on a shared flight block their job worker, which is
/// deadlock-free because a job finishes every flight it claimed before it
/// waits on another job's, and a flight never waits on anything. Job order is preserved in the summary; a failing (or
/// panicking) job never takes its siblings down.
pub fn run_batch(
    jobs: &[BatchJob],
    library: &Library,
    cache: &ControllerCache,
    threads: usize,
) -> BatchSummary {
    let start = Instant::now();
    let span = bmbe_obs::span!("batch.run", "batch");
    let root_span = span.id();
    let registry = ShapeRegistry::new(cache, library);
    let merges = cache.merge_memo();
    let (hits_before, misses_before) = (merges.hits(), merges.misses());
    let threads = threads.max(1);
    let job_workers = threads.min(jobs.len()).max(1);
    let inner = (threads / job_workers).max(1);
    bmbe_obs::trace_counter!("batch.jobs.pending", jobs.len());
    let results: Vec<Result<JobReport, JobFailure>> = bmbe_par::par_try_map(
        jobs,
        job_workers,
        |i, job| format!("batch job {i} ({})", job.label),
        |_, job| {
            let outcome = run_job(job, &registry, inner, root_span);
            bmbe_obs::trace_counter!("batch.jobs.pending", -1);
            outcome
        },
    )
    .into_iter()
    .zip(jobs)
    .map(|(slot, job)| {
        let outcome = slot.unwrap_or_else(|e| {
            Err(JobFailure {
                label: job.label.clone(),
                design: job.design.netlist.name().to_string(),
                component: String::new(),
                cache_key: String::new(),
                phase: "panic",
                error: e.payload,
            })
        });
        match &outcome {
            Ok(_) => bmbe_obs::trace_counter!("batch.jobs.completed", 1),
            Err(failure) => {
                bmbe_obs::trace_counter!("batch.jobs.failed", 1);
                dump_failure(failure);
            }
        }
        outcome
    })
    .collect();
    drop(span);
    BatchSummary {
        jobs: results,
        distinct_shapes: registry.distinct_shapes(),
        synthesized: registry.synthesized(),
        shared_waits: registry.shared_waits(),
        cache_hits: registry.cache_hits(),
        merge_hits: merges.hits() - hits_before,
        merge_misses: merges.misses() - misses_before,
        job_workers,
        inner_threads: inner,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod budget_tests {
    use super::{shape_workers, PAR_COST_CUTOFF};

    const BIG: usize = PAR_COST_CUTOFF;
    const SMALL: usize = PAR_COST_CUTOFF - 1;

    fn costs(big: usize, small: usize) -> impl Iterator<Item = usize> {
        std::iter::repeat_n(BIG, big).chain(std::iter::repeat_n(SMALL, small))
    }

    #[test]
    fn long_poles_fan_out_up_to_the_thread_budget() {
        for threads in 0..=9 {
            for big in 2..=12 {
                let workers = shape_workers(threads, costs(big, 5));
                assert_eq!(
                    workers,
                    big.min(threads.max(1)),
                    "threads={threads} big={big}"
                );
            }
        }
        // Small shapes never widen the fan-out.
        assert_eq!(shape_workers(8, costs(2, 10)), 2);
        assert_eq!(shape_workers(4, costs(12, 0)), 4);
    }

    #[test]
    fn fewer_than_two_long_poles_stay_inline() {
        for threads in [0, 1, 2, 4, 8] {
            assert_eq!(shape_workers(threads, costs(0, 0)), 1);
            assert_eq!(shape_workers(threads, costs(0, 20)), 1);
            assert_eq!(shape_workers(threads, costs(1, 20)), 1);
            // The clustered Stack benchmark: one tiny loop controller and
            // one 500+-char cluster controller, no dedup between them.
            assert_eq!(shape_workers(threads, [62usize, 537].into_iter()), 1);
        }
    }
}
