//! Content-addressed controller cache.
//!
//! Real designs instantiate the same handful of control-component shapes
//! (sequencers, calls, decision-waits, …) dozens of times, and the
//! expensive part of the back-end — exact hazard-free minimization is
//! worst-case exponential — depends only on the component's *structure*,
//! not on its channel names. The cache therefore addresses artifacts by a
//! canonical structural key: the printed form of the alpha-renamed CH
//! program ([`bmbe_core::ast::canonical_text`]) plus the synthesis-relevant
//! options ([`MinimizeMode`], [`MapObjective`], [`MapStyle`]). Each unique
//! shape is compiled, state-minimized, synthesized, technology-mapped, and
//! verified exactly once; every further instance re-materializes the cached
//! artifact by renaming its canonical wires (`k0_r`, `k1_a`, …) back to the
//! instance's actual channel names.
//!
//! The cache is thread-safe (a mutexed map that [`crate::ShapeRegistry`]
//! probes before claiming a shape and writes when a flight lands) and can
//! be shared across flow runs: the bench binaries reuse one cache across
//! all four benchmark designs and across the unoptimized/optimized sides
//! of a comparison.
//!
//! It is also *poison-tolerant*: a worker that panics while holding the
//! entry lock must not take every later flow run down with a
//! poisoned-mutex panic. Locking recovers from poisoning via
//! [`PoisonError::into_inner`], and a write-generation guard evicts any
//! entry a crashed store left half-written — the shape is simply re-missed
//! (retried) on the next lookup instead of being served in an unknown
//! state. Entries written by stores that completed are kept.
//!
//! Since PR 8 the cache can also be *persistent*: layering a
//! [`DiskCache`] (see [`disk`]) under the in-memory map turns every
//! lookup into memory → disk → synthesize, and every store into a
//! write-through. Disk hits are promoted into the memory map; disk
//! failures of any kind (I/O errors, corrupt entries, even a panicking
//! filesystem) degrade to an ordinary miss, so `synthesize_*` callers
//! are untouched whether or not a cache directory is configured. The disk
//! layer also keeps clustering's merge memo in its merge log (see
//! [`disk`]), so a cache opened over a filled directory compiles no merge
//! an earlier process compiled there.

pub mod codec;
pub mod disk;

pub use disk::{DiskCache, DiskMiss, Provenance, CACHE_DIR_ENV};

use crate::fault::{FaultKind, FaultPhase, FaultPlan};
use crate::profile::PhaseProfile;
use bmbe_bm::statemin::minimize_states;
use bmbe_bm::synth::{synthesize_full, Controller, MinimizeMode, SynthError};
use bmbe_core::ast::{alpha_rename, canonical_text, ChExpr};
use bmbe_core::compile::{compile_to_bm, CompileError};
use bmbe_core::opt::MergeMemo;
use bmbe_gates::{map as techmap, Library, MapObjective, MapStyle, MappedNetlist, SubjectGraph};
use bmbe_logic::hfmin::{HfminError, MinimizeBackend, MinimizeOptions, PrimeGenFault};
use bmbe_logic::Cover;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The content address of a controller shape: canonical program text plus
/// the options that change what synthesis produces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Printed alpha-renamed CH program (or the literal program text for
    /// verb programs, which cannot be renamed).
    pub canonical: String,
    /// Minimization mode.
    pub minimize_mode: MinimizeMode,
    /// Minimizer backend (the covers differ between backends, so the
    /// backend must be part of the content address).
    pub minimize_backend: MinimizeBackend,
    /// Technology-mapping objective.
    pub map_objective: MapObjective,
    /// Technology-mapping style.
    pub map_style: MapStyle,
}

impl CacheKey {
    /// A short content digest of the key (FNV-1a over the canonical text
    /// and the option fields), used to *name* the key in error reports and
    /// logs without dumping the whole canonical program.
    pub fn digest(&self) -> u64 {
        fn eat(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        let h = eat(0xcbf2_9ce4_8422_2325, self.canonical.as_bytes());
        eat(
            h,
            format!(
                "|{:?}|{:?}|{:?}|{:?}",
                self.minimize_mode, self.minimize_backend, self.map_objective, self.map_style
            )
            .as_bytes(),
        )
    }
}

/// A component program keyed for the cache: the content address, the
/// canonical program a miss must synthesize, and the channel-name table for
/// re-instantiating the canonical artifact under the component's names.
#[derive(Debug, Clone)]
pub struct KeyedProgram {
    /// The content address.
    pub key: CacheKey,
    /// The alpha-renamed program (the program itself for verb programs).
    pub canonical: ChExpr,
    /// Actual channel names in canonical order: wire `k{i}_s` of the
    /// canonical artifact is wire `{names[i]}_s` of the instance. Empty
    /// when the program could not be renamed (identity mapping).
    pub names: Vec<String>,
}

impl KeyedProgram {
    /// Keys a component program under the given synthesis options.
    pub fn new(
        program: &ChExpr,
        minimize_mode: MinimizeMode,
        minimize_backend: MinimizeBackend,
        map_objective: MapObjective,
        map_style: MapStyle,
    ) -> Self {
        let (canonical, names) = match alpha_rename(program) {
            Some((canonical, names)) => (canonical, names),
            None => (program.clone(), Vec::new()),
        };
        KeyedProgram {
            key: CacheKey {
                canonical: canonical_text(program),
                minimize_mode,
                minimize_backend,
                map_objective,
                map_style,
            },
            canonical,
            names,
        }
    }

    /// Maps a canonical wire name (`k{i}_suffix`) back to the instance's
    /// actual wire name (`{names[i]}_suffix`). Non-canonical names (state
    /// bits `y{j}`, or anything when the mapping is empty) pass through.
    pub fn rename_wire(&self, wire: &str) -> String {
        if self.names.is_empty() {
            return wire.to_string();
        }
        if let Some((prefix, suffix)) = wire.rsplit_once('_') {
            if let Some(index) = prefix
                .strip_prefix('k')
                .and_then(|d| d.parse::<usize>().ok())
            {
                if let Some(actual) = self.names.get(index) {
                    return format!("{actual}_{suffix}");
                }
            }
        }
        wire.to_string()
    }
}

/// A stage failure for one controller shape. Unlike
/// [`crate::pipeline::FlowError`] it carries no component name: the same
/// shape error applies to every instance of the shape.
#[derive(Debug)]
pub enum ShapeError {
    /// CH-to-BMS compilation (or state minimization) failed.
    Compile(CompileError),
    /// Controller synthesis failed.
    Synth(SynthError),
    /// Ternary hazard verification failed.
    Hazard(String),
    /// Post-mapping verification failed.
    MappedHazard(String),
    /// The synthesis job panicked; the worker caught the unwind and the
    /// payload is the stringified panic message. Siblings of a panicked
    /// job complete normally.
    Panic(String),
    /// A [`FaultPlan`] injected a typed error at the given phase (the
    /// testable non-unwinding failure path).
    Injected(FaultPhase),
}

impl ShapeError {
    /// The per-shape phase this error belongs to (`"panic"` for a caught
    /// panic, whose phase is only known from its payload text).
    pub fn phase(&self) -> &'static str {
        match self {
            ShapeError::Compile(_) => "compile",
            ShapeError::Synth(_) => "synth",
            ShapeError::Hazard(_) => "verify",
            ShapeError::MappedHazard(_) => "map",
            ShapeError::Panic(_) => "panic",
            ShapeError::Injected(phase) => phase.name(),
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::Compile(e) => write!(f, "{e}"),
            ShapeError::Synth(e) => write!(f, "{e}"),
            ShapeError::Hazard(detail) => write!(f, "hazard: {detail}"),
            ShapeError::MappedHazard(detail) => write!(f, "mapped hazard: {detail}"),
            ShapeError::Panic(payload) => write!(f, "panicked: {payload}"),
            ShapeError::Injected(phase) => write!(f, "injected fault at phase {phase}"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// The cached product of the per-shape synthesis chain.
#[derive(Debug)]
pub struct SynthArtifact {
    /// Burst-Mode specification states (after state minimization).
    pub bm_states: usize,
    /// The synthesized two-level controller (canonical wire names).
    pub controller: Controller,
    /// The technology-mapped netlist (canonical root names).
    pub mapped: MappedNetlist,
    /// Always the field-less [`PhaseProfile`], which measures nothing:
    /// phase times come from the `shape.*` spans. The field stays only
    /// because the benchmark harness (`perfbench/src/replay.rs`), which
    /// builds against this API as it is, spells it out.
    pub profile: PhaseProfile,
}

/// Runs the full per-shape chain on the calling thread: CH-to-BMS compile,
/// state minimization, hazard-free synthesis, ternary verification,
/// technology mapping, and post-mapping verification.
///
/// Each phase runs inside a `bmbe_obs` span (`shape.compile`,
/// `shape.statemin`, `shape.synth`, `shape.verify`, `shape.map`,
/// `shape.verify_mapped`). Those spans are the only measurement of the
/// phases: a traced run yields their wall times through
/// `bmbe_obs::analyze`, and an untraced run measures nothing.
///
/// An armed [`FaultPlan`] fires at the start of its targeted phase — a
/// panic or a typed [`ShapeError::Injected`] — so the flow's recovery
/// paths can be driven deterministically. The caller passes `Some` only
/// for the one synthesis job the plan targets.
///
/// # Errors
///
/// Returns the first failing stage (including an injected one).
#[allow(clippy::too_many_arguments)]
pub fn synthesize_shape_with_fault(
    spec_name: &str,
    program: &ChExpr,
    minimize_mode: MinimizeMode,
    minimize_backend: MinimizeBackend,
    map_objective: MapObjective,
    map_style: MapStyle,
    library: &Library,
    fault: Option<&FaultPlan>,
) -> Result<SynthArtifact, ShapeError> {
    let trip = |phase: FaultPhase| -> Result<(), ShapeError> {
        match fault {
            Some(plan) => plan.trip(phase).map_err(ShapeError::Injected),
            None => Ok(()),
        }
    };
    // A prime_gen-phase plan fires *inside* the logic crate's minimizer
    // (so it exercises the backends' own error paths), carried there via
    // MinimizeOptions rather than tripped here.
    let prime_fault = fault.and_then(|plan| {
        (plan.phase == FaultPhase::PrimeGen).then(|| match plan.kind {
            FaultKind::Panic => PrimeGenFault::Panic,
            FaultKind::Error => PrimeGenFault::Error,
        })
    });
    let spec = {
        let _s = bmbe_obs::span!("shape.compile", "flow");
        trip(FaultPhase::Compile)?;
        compile_to_bm(spec_name, program).map_err(ShapeError::Compile)?
    };
    let spec = {
        let _s = bmbe_obs::span!("shape.statemin", "flow");
        trip(FaultPhase::Statemin)?;
        minimize_states(&spec)
            .map(|r| r.spec)
            .map_err(|e| ShapeError::Compile(CompileError::Bm(e)))?
    };
    let controller = {
        let _s = bmbe_obs::span!("shape.synth", "flow");
        trip(FaultPhase::Synth)?;
        let opts = MinimizeOptions {
            backend: minimize_backend,
            fault: prime_fault,
            ..MinimizeOptions::default()
        };
        synthesize_full(&spec, minimize_mode, 1, &opts).map_err(|e| match e {
            SynthError::Hfmin {
                error: HfminError::Injected,
                ..
            } => ShapeError::Injected(FaultPhase::PrimeGen),
            other => ShapeError::Synth(other),
        })?
    };
    {
        let _s = bmbe_obs::span!("shape.verify", "flow");
        trip(FaultPhase::Verify)?;
        controller.verify_ternary().map_err(ShapeError::Hazard)?;
    }
    let mapped = {
        let _s = bmbe_obs::span!("shape.map", "flow");
        trip(FaultPhase::Map)?;
        let functions: Vec<(String, &Cover)> = controller
            .outputs
            .iter()
            .cloned()
            .chain((0..controller.num_state_bits).map(|j| format!("y{j}")))
            .zip(
                controller
                    .output_covers
                    .iter()
                    .chain(controller.next_state_covers.iter()),
            )
            .collect();
        let subject = match minimize_mode {
            MinimizeMode::Speed => SubjectGraph::from_covers(controller.num_vars(), &functions),
            MinimizeMode::Area => {
                SubjectGraph::from_covers_shared(controller.num_vars(), &functions)
            }
        };
        techmap(&subject, library, map_objective, map_style)
    };
    {
        let _s = bmbe_obs::span!("shape.verify_mapped", "flow");
        if let Some(v) = bmbe_gates::verify_mapped(&controller, &mapped).first() {
            return Err(ShapeError::MappedHazard(v.to_string()));
        }
    }
    Ok(SynthArtifact {
        bm_states: spec.num_states(),
        controller,
        mapped,
        profile: PhaseProfile,
    })
}

/// Approximate in-memory footprint of a stored artifact plus its key text:
/// the canonical program text, the controller's covers, and the mapped
/// gates. An observability estimate (the `cache.bytes` counter), not an
/// allocator measurement.
fn approx_artifact_bytes(key: &CacheKey, artifact: &SynthArtifact) -> usize {
    use std::mem::size_of;
    let cover_bytes: usize = artifact
        .controller
        .output_covers
        .iter()
        .chain(artifact.controller.next_state_covers.iter())
        .map(|c| size_of::<Cover>() + std::mem::size_of_val(c.cubes()))
        .sum();
    let gate_bytes: usize = artifact
        .mapped
        .gates
        .iter()
        .map(|g| std::mem::size_of_val(g) + g.inputs.len() * size_of::<usize>())
        .sum();
    key.canonical.len() + size_of::<SynthArtifact>() + cover_bytes + gate_bytes
}

/// Lifetime hit/miss counters of a [`ControllerCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an existing entry (including entries created
    /// earlier in the same flow run by a structurally identical component).
    pub hits: usize,
    /// Unique shapes synthesized.
    pub misses: usize,
}

/// One stored artifact plus the write generation that produced it (see
/// [`Shelf`]).
#[derive(Debug)]
struct Entry {
    artifact: Arc<SynthArtifact>,
    generation: u64,
}

/// The guarded entry map. `write_generation` is bumped as a store begins,
/// `clean_generation` advanced to match as it completes; an entry whose
/// generation is above `clean_generation` at poison-recovery time was
/// half-written by a store that panicked and is evicted rather than
/// served.
#[derive(Debug, Default)]
struct Shelf {
    map: HashMap<CacheKey, Entry>,
    write_generation: u64,
    clean_generation: u64,
}

/// A thread-safe, content-addressed store of synthesized controller
/// shapes, optionally backed by a persistent [`DiskCache`].
/// Poison-tolerant: see the module docs and [`CacheStats`].
///
/// It also owns the [`MergeMemo`] that every flow clustering through this
/// cache shares, so a fleet compiles each merge shape once. Over a disk
/// layer the memo persists too: the cache opens with every state count
/// the directory's merge log holds, and each flow appends the counts it
/// compiled ([`ControllerCache::persist_merges`]).
#[derive(Debug, Default)]
pub struct ControllerCache {
    entries: Mutex<Shelf>,
    disk: Option<DiskCache>,
    merges: MergeMemo,
    hits: AtomicUsize,
    misses: AtomicUsize,
    poison_recoveries: AtomicUsize,
}

impl ControllerCache {
    /// An empty, memory-only cache (the default for library callers and
    /// tests — nothing touches the filesystem).
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache layered over a persistent store: lookups read through to
    /// disk, stores write through, disk failures degrade to misses. The
    /// merge memo starts with the store's merge log, read here once; a
    /// failed or panicking read degrades to a memo that starts empty.
    pub fn with_disk(disk: DiskCache) -> Self {
        let merges = match bmbe_par::catch_job(|| disk.load_merges()) {
            Ok(Ok(entries)) => MergeMemo::with_entries(entries),
            Ok(Err(e)) => {
                bmbe_obs::vlog!(1, "bmbe-flow: merge log read failed (degrading): {e}");
                MergeMemo::new()
            }
            Err(payload) => {
                bmbe_obs::vlog!(1, "bmbe-flow: merge log read panicked: {payload}");
                MergeMemo::new()
            }
        };
        ControllerCache {
            disk: Some(disk),
            merges,
            ..Self::default()
        }
    }

    /// A cache honouring `BMBE_CACHE_DIR`: disk-backed when the variable
    /// names a usable directory, memory-only otherwise. The report
    /// binaries and the batch driver use this.
    pub fn from_env() -> Self {
        match DiskCache::from_env() {
            Some(disk) => Self::with_disk(disk),
            None => Self::new(),
        }
    }

    /// The persistent layer, when configured.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// The clustering merge memo of every flow through this cache; its
    /// `hits()` and `misses()` count the merge lookups of all of them.
    pub fn merge_memo(&self) -> &MergeMemo {
        &self.merges
    }

    /// Drains the state counts the merge memo compiled since the last call
    /// and, over a disk layer, appends them to the merge log. A failed or
    /// panicking append leaves them unpersisted; a memory-only cache just
    /// drops the list.
    pub fn persist_merges(&self) {
        let compiled = self.merges.take_compiled();
        let Some(disk) = &self.disk else {
            return;
        };
        if compiled.is_empty() {
            return;
        }
        match bmbe_par::catch_job(|| disk.append_merges(&compiled)) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                bmbe_obs::vlog!(1, "bmbe-flow: merge log append failed (degrading): {e}");
            }
            Err(payload) => {
                bmbe_obs::vlog!(1, "bmbe-flow: merge log append panicked: {payload}");
            }
        }
    }

    /// Locks the entry map, recovering from a poisoned mutex instead of
    /// propagating the panic to every future user of a shared cache. On
    /// recovery, entries above the last clean write generation (the
    /// half-written residue of whichever store panicked) are evicted so
    /// the next lookup re-misses and re-synthesizes them; completed
    /// entries survive untouched.
    fn shelf(&self) -> MutexGuard<'_, Shelf> {
        match self.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.entries.clear_poison();
                let mut guard = poisoned.into_inner();
                let clean = guard.clean_generation;
                let before = guard.map.len();
                guard.map.retain(|_, e| e.generation <= clean);
                let evicted = before - guard.map.len();
                guard.write_generation = clean;
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                bmbe_obs::trace_counter!("cache.poison_recovered", 1);
                bmbe_obs::vlog!(
                    1,
                    "bmbe-flow: controller cache recovered from a poisoned lock \
                     ({evicted} half-written entr{} evicted, {} clean entries kept)",
                    if evicted == 1 { "y" } else { "ies" },
                    guard.map.len()
                );
                guard
            }
        }
    }

    /// Number of distinct shapes stored.
    pub fn len(&self) -> usize {
        self.shelf().map.len()
    }

    /// Whether the cache holds no shapes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss counters (accumulated across every run sharing
    /// this cache).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// How many times the entry lock was found poisoned and recovered
    /// (each recovery evicts whatever the interrupted store half-wrote).
    pub fn poison_recoveries(&self) -> usize {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Looks up a shape without touching the counters: the in-memory map
    /// first, then the persistent layer (a disk hit is promoted into
    /// memory so later lookups are free). Any disk-layer failure —
    /// corrupt entry, I/O error, panic — degrades to `None`.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<SynthArtifact>> {
        if let Some(artifact) = self.shelf().map.get(key).map(|e| e.artifact.clone()) {
            return Some(artifact);
        }
        let disk = self.disk.as_ref()?;
        // The disk layer handles its own typed failures; catch_job adds
        // panic isolation on top (an injected cache_io panic, or a truly
        // broken filesystem, must read as a miss — never take down the
        // flow or poison the entry lock).
        let artifact = match bmbe_par::catch_job(|| disk.load(key).ok()) {
            Ok(loaded) => loaded?,
            Err(payload) => {
                bmbe_obs::vlog!(1, "bmbe-flow: disk cache read panicked: {payload}");
                return None;
            }
        };
        self.store_in_memory(key.clone(), artifact.clone());
        Some(artifact)
    }

    /// Stores a shape in memory and, when a persistent layer is
    /// configured, writes it through to disk. A failed or panicking disk
    /// write degrades to an unpersisted entry (the flow still has the
    /// artifact; only the warm-start is lost).
    pub fn store(&self, key: CacheKey, artifact: Arc<SynthArtifact>) {
        if let Some(disk) = &self.disk {
            match bmbe_par::catch_job(|| disk.store(&key, &artifact)) {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => {
                    bmbe_obs::vlog!(1, "bmbe-flow: disk cache write failed (degrading): {e}");
                }
                Err(payload) => {
                    bmbe_obs::vlog!(1, "bmbe-flow: disk cache write panicked: {payload}");
                }
            }
        }
        self.store_in_memory(key, artifact);
    }

    /// The in-memory half of a store (also used to promote disk hits,
    /// which must not be written back out).
    fn store_in_memory(&self, key: CacheKey, artifact: Arc<SynthArtifact>) {
        bmbe_obs::trace_counter!("cache.bytes", approx_artifact_bytes(&key, &artifact) as u64);
        let mut shelf = self.shelf();
        shelf.write_generation += 1;
        let generation = shelf.write_generation;
        shelf.map.insert(
            key,
            Entry {
                artifact,
                generation,
            },
        );
        // Reaching here means the insert completed; mark the generation
        // clean so a later poison recovery keeps this entry.
        shelf.clean_generation = shelf.write_generation;
    }

    /// Adds to the lifetime counters (one flow run's totals at a time).
    pub fn record(&self, hits: usize, misses: usize) {
        if hits > 0 {
            bmbe_obs::trace_counter!("cache.hits", hits as u64);
        }
        if misses > 0 {
            bmbe_obs::trace_counter!("cache.misses", misses as u64);
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use bmbe_core::components::sequencer;
    use std::panic::AssertUnwindSafe;

    fn artifact_for(program: &ChExpr) -> (CacheKey, Arc<SynthArtifact>) {
        let keyed = KeyedProgram::new(
            program,
            MinimizeMode::Speed,
            MinimizeBackend::default(),
            MapObjective::Delay,
            MapStyle::SplitModules,
        );
        let artifact = synthesize_shape_with_fault(
            "shape",
            &keyed.canonical,
            MinimizeMode::Speed,
            MinimizeBackend::default(),
            MapObjective::Delay,
            MapStyle::SplitModules,
            &Library::cmos035(),
            None,
        )
        .expect("shape synthesizes");
        (keyed.key, Arc::new(artifact))
    }

    #[test]
    fn digest_depends_on_the_key() {
        let seq2 = sequencer("p", &["a".to_string(), "b".to_string()]);
        let k_speed = KeyedProgram::new(
            &seq2,
            MinimizeMode::Speed,
            MinimizeBackend::default(),
            MapObjective::Delay,
            MapStyle::SplitModules,
        );
        let k_area = KeyedProgram::new(
            &seq2,
            MinimizeMode::Area,
            MinimizeBackend::default(),
            MapObjective::Delay,
            MapStyle::SplitModules,
        );
        let k_cofactor = KeyedProgram::new(
            &seq2,
            MinimizeMode::Speed,
            MinimizeBackend::CubeCofactor,
            MapObjective::Delay,
            MapStyle::SplitModules,
        );
        assert_eq!(k_speed.key.digest(), k_speed.key.digest());
        assert_ne!(k_speed.key.digest(), k_area.key.digest());
        assert_ne!(k_speed.key, k_cofactor.key, "backend must change the key");
        assert_ne!(k_speed.key.digest(), k_cofactor.key.digest());
    }

    #[test]
    fn poisoned_lock_recovers_and_evicts_half_written_entries() {
        let cache = ControllerCache::new();
        let (k1, a1) = artifact_for(&sequencer("p", &["a".to_string(), "b".to_string()]));
        let (k2, a2) = artifact_for(&sequencer(
            "q",
            &["x".to_string(), "y".to_string(), "z".to_string()],
        ));
        assert_ne!(k1, k2, "test needs two distinct shapes");
        cache.store(k1.clone(), a1);

        // Simulate a store crashing mid-insert: bump the write generation,
        // insert the entry, and panic while still holding the lock — the
        // clean generation never advances, so the entry is "half-written".
        let crash = AssertUnwindSafe(|| {
            let mut shelf = cache.entries.lock().unwrap();
            shelf.write_generation += 1;
            let generation = shelf.write_generation;
            shelf.map.insert(
                k2.clone(),
                Entry {
                    artifact: a2.clone(),
                    generation,
                },
            );
            panic!("simulated mid-store crash");
        });
        assert!(std::panic::catch_unwind(crash).is_err());

        // The next access recovers instead of panicking on the poisoned
        // lock; the half-written entry is evicted (a retried miss), the
        // completed one is kept.
        assert!(cache.peek(&k2).is_none(), "half-written entry served");
        assert!(cache.peek(&k1).is_some(), "clean entry lost");
        assert_eq!(cache.poison_recoveries(), 1);

        // The cache stays fully usable afterwards.
        cache.store(k2.clone(), a2);
        assert!(cache.peek(&k2).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.poison_recoveries(), 1, "no further recoveries");
    }
}
