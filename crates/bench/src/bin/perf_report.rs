//! Performance report for the parallel, content-addressed back-end: times
//! the serial per-instance reference flow against the cached + parallel
//! production flow on every benchmark design and writes `BENCH_flow.json`,
//! including a per-phase profile (compile / statemin / synth / primes /
//! covering / verify / map), the exact work counts of the minimizer and
//! of clustering ([`COUNTERS`]) and, when a previous `BENCH_flow.json`
//! exists, before/after numbers against it.
//!
//! The phase times are span wall times: the untimed runs (the cold run
//! that counts cache hits and misses, and the per-backend runs) are traced,
//! and their spans are read back through `bmbe_obs::analyze`, as are the
//! cold run's counts. The timed runs are traced only when `BMBE_TRACE=1`
//! traces the whole process; no trace file is written either way.
//!
//! Run with `--release`; the debug build is an order of magnitude slower.
//!
//! Stdout carries the pure JSON report (the same text written to
//! `BENCH_flow.json`); the human-readable tables go to **stderr** via
//! `bmbe_obs::vlog!` at verbosity ≥ 1 (`BMBE_VERBOSE=1`).

use bmbe_bench::report::{emit_report, run_main};
use bmbe_bench::trend::design_field;
use bmbe_designs::all_designs;
use bmbe_flow::{
    reference_flow, run_control_flow, run_control_flow_with, ControllerCache, FlowOptions,
    FlowResult, MinimizeBackend,
};
use bmbe_gates::Library;
use bmbe_obs::analyze::{traced, MergedTrace};
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const SAMPLES: usize = 9;

/// The minimizer's work counts and engine decisions (functions whose
/// primes were enumerated, and functions that took the cube-cofactor
/// picks) and clustering's merged and refused channels, totalled from each
/// design's traced cold run: deterministic functions of the design, so
/// `bench_trend` gates them exactly.
const COUNTERS: &[&str] = &[
    "hfmin.worklist.explored",
    "hfmin.cofactor.seeds",
    "hfmin.cofactor.leaves",
    "hfmin.engine.exact",
    "hfmin.engine.cofactor",
    "cluster.merged",
    "cluster.refused",
];

/// Median of a sample vector.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Medians of `routines.len()` interleaved routines over `SAMPLES` rounds
/// (after one untimed warm-up round). Interleaving round-robins the
/// routines so host-load drift between sampling windows lands on every
/// routine equally instead of biasing whichever ran last.
fn interleaved_median_secs(routines: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    for routine in routines.iter_mut() {
        routine();
    }
    let mut samples = vec![Vec::with_capacity(SAMPLES); routines.len()];
    for _ in 0..SAMPLES {
        for (routine, out) in routines.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            routine();
            out.push(start.elapsed().as_secs_f64());
        }
    }
    samples.into_iter().map(median).collect()
}

struct Row {
    design: String,
    components: usize,
    reference_s: f64,
    cached_s: f64,
    warm_s: f64,
    hits: usize,
    misses: usize,
    /// Span-read phase times of the cold run that counts hits and misses.
    spans: Phases,
    /// That run's totals of [`COUNTERS`], in order.
    counts: Vec<i64>,
    /// Median cold prime-generation seconds under the default (`Auto`)
    /// minimizer backend and under the exact prime-enumerating backend:
    /// the per-backend before/after the perf-smoke gate checks.
    prime_gen_auto_s: f64,
    prime_gen_exact_s: f64,
    /// Whether the exact backend enumerates primes for more functions
    /// than the default (their traced `hfmin.engine.exact` totals
    /// differ). Only then does the report carry their timing ratio:
    /// where both run the same engines, the ratio times identical work.
    backends_differ: bool,
    prev_reference_s: Option<f64>,
    prev_cached_s: Option<f64>,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_s / self.cached_s
    }
}

/// Span wall seconds of one traced run, summed per report column.
struct Phases {
    compile: f64,
    statemin: f64,
    synth: f64,
    prime_gen: f64,
    covering: f64,
    verify: f64,
    map: f64,
    /// Shape syntheses: the number of `shape.synth` spans.
    shapes: u64,
}

/// Runs `flow` traced (see `bmbe_obs::analyze::traced`) and returns its
/// result with the spans and counts it recorded.
fn traced_flow(
    flow: impl FnOnce() -> Result<FlowResult, String>,
) -> Result<(FlowResult, MergedTrace), String> {
    let (result, trace) = traced(flow)?;
    Ok((result?, trace))
}

impl Phases {
    /// Sums the span wall seconds of one traced run per report column.
    fn of(trace: &MergedTrace) -> Phases {
        let rows = trace.phase_rows();
        let secs = |names: &[&str]| {
            rows.iter()
                .filter(|r| names.contains(&r.name.as_str()))
                .map(|r| r.wall_ns as f64 * 1e-9)
                .sum()
        };
        Phases {
            compile: secs(&["shape.compile"]),
            statemin: secs(&["shape.statemin"]),
            synth: secs(&["shape.synth"]),
            prime_gen: secs(&["hfmin.prime_gen"]),
            covering: secs(&["hfmin.covering"]),
            verify: secs(&["shape.verify", "shape.verify_mapped"]),
            map: secs(&["shape.map"]),
            shapes: rows
                .iter()
                .find(|r| r.name == "shape.synth")
                .map_or(0, |r| r.count),
        }
    }
}

/// Reads the previous report's per-design reference/cached seconds so the new
/// report can carry before/after numbers. Tolerant by construction: any
/// missing file, design, or field simply yields `None`.
fn previous_numbers(design: &str) -> (Option<f64>, Option<f64>) {
    let Ok(text) = std::fs::read_to_string("BENCH_flow.json") else {
        return (None, None);
    };
    (
        design_field(&text, "designs", design, "reference_s"),
        design_field(&text, "designs", design, "cached_parallel_s"),
    )
}

fn main() -> ExitCode {
    run_main("perf_report", run)
}

fn run() -> Result<bool, String> {
    bmbe_obs::init_from_env();
    let library = Library::cmos035();
    let serial = FlowOptions {
        threads: Some(1),
        ..FlowOptions::optimized()
    };
    let designs = all_designs().map_err(|e| format!("shipped designs: {e}"))?;
    let mut rows = Vec::new();
    let mut threads_used = 1;
    for design in &designs {
        let (prev_reference_s, prev_cached_s) = previous_numbers(design.name);
        // Preflight each configuration once with any BMBE_FAULT plan armed:
        // an injected (or genuine) failure surfaces here as a structured
        // error instead of a panic mid-timing. The timed runs below then
        // measure the plain, fault-free options.
        reference_flow(&design.compiled, &serial.clone().with_env_fault(), &library)
            .map_err(|e| format!("{}: {e}", design.name))?;
        run_control_flow(
            &design.compiled,
            &FlowOptions::optimized().with_env_fault(),
            &library,
        )
        .map_err(|e| format!("{}: {e}", design.name))?;
        let warm = ControllerCache::new();
        // Fresh cache on every "cached" run: cold-cache dedup + parallel
        // fan-out, the honest comparison against the seed.
        let timings = interleaved_median_secs(&mut [
            &mut || {
                black_box(
                    reference_flow(&design.compiled, &serial, &library).expect("reference flow"),
                );
            },
            &mut || {
                black_box(
                    run_control_flow(&design.compiled, &FlowOptions::optimized(), &library)
                        .expect("cached flow"),
                );
            },
            &mut || {
                black_box(
                    run_control_flow_with(
                        &design.compiled,
                        &FlowOptions::optimized(),
                        &library,
                        &warm,
                    )
                    .expect("warm flow"),
                );
            },
        ]);
        let (reference_s, cached_s, warm_s) = (timings[0], timings[1], timings[2]);
        let (result, trace) = traced_flow(|| {
            run_control_flow(&design.compiled, &FlowOptions::optimized(), &library)
                .map_err(|e| format!("{}: {e}", design.name))
        })?;
        let totals = trace
            .counter_totals()
            .map_err(|e| format!("{}: {e}", design.name))?;
        let counts = COUNTERS
            .iter()
            .map(|name| totals.get(*name).copied().unwrap_or(0))
            .collect();
        threads_used = result.threads_used;
        // Per-backend prime generation, cold cache, median of 3: the Auto
        // default (which routes wide functions to the cube-cofactor
        // engine) against the exact prime-enumerating backend. Each also
        // returns its traced count of functions whose primes were
        // enumerated.
        let prime_gen_median = |backend: MinimizeBackend| -> Result<(f64, i64), String> {
            let mut exact_funcs = 0;
            let samples = (0..3)
                .map(|_| {
                    let mut options = FlowOptions::optimized();
                    options.minimize_backend = backend;
                    let (_, trace) = traced_flow(|| {
                        run_control_flow(&design.compiled, &options, &library)
                            .map_err(|e| format!("{}/{backend:?}: {e}", design.name))
                    })?;
                    let totals = trace
                        .counter_totals()
                        .map_err(|e| format!("{}/{backend:?}: {e}", design.name))?;
                    exact_funcs = totals.get("hfmin.engine.exact").copied().unwrap_or(0);
                    Ok(Phases::of(&trace).prime_gen)
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok((median(samples), exact_funcs))
        };
        let (prime_gen_auto_s, auto_exact) = prime_gen_median(MinimizeBackend::Auto)?;
        let (prime_gen_exact_s, exact_exact) = prime_gen_median(MinimizeBackend::ExactPrimes)?;
        rows.push(Row {
            design: design.name.to_string(),
            components: result.controllers.len(),
            reference_s,
            cached_s,
            warm_s,
            hits: result.cache_hits,
            misses: result.cache_misses,
            spans: Phases::of(&trace),
            counts,
            prime_gen_auto_s,
            prime_gen_exact_s,
            backends_differ: exact_exact != auto_exact,
            prev_reference_s,
            prev_cached_s,
        });
    }

    bmbe_obs::vlog!(
        1,
        "flow perf ({threads_used} threads, median of {SAMPLES} runs; cold = fresh cache per run)"
    );
    bmbe_obs::vlog!(
        1,
        "{:<22} {:>5} {:>12} {:>12} {:>9} {:>12} {:>6} {:>6}",
        "design",
        "ctrl",
        "reference s",
        "cold s",
        "speedup",
        "warm s",
        "hits",
        "miss"
    );
    for r in &rows {
        bmbe_obs::vlog!(
            1,
            "{:<22} {:>5} {:>12.4} {:>12.4} {:>8.2}x {:>12.4} {:>6} {:>6}",
            r.design,
            r.components,
            r.reference_s,
            r.cached_s,
            r.speedup(),
            r.warm_s,
            r.hits,
            r.misses
        );
    }
    bmbe_obs::vlog!(1, "\nper-phase profile of one cold cached run (seconds):");
    bmbe_obs::vlog!(
        1,
        "{:<22} {:>8} {:>9} {:>8} {:>8} {:>9} {:>8} {:>7} {:>7}",
        "design",
        "compile",
        "statemin",
        "synth",
        "primes",
        "covering",
        "verify",
        "map",
        "shapes"
    );
    for r in &rows {
        let p = &r.spans;
        bmbe_obs::vlog!(
            1,
            "{:<22} {:>8.4} {:>9.4} {:>8.4} {:>8.4} {:>9.4} {:>8.4} {:>7.4} {:>7}",
            r.design,
            p.compile,
            p.statemin,
            p.synth,
            p.prime_gen,
            p.covering,
            p.verify,
            p.map,
            p.shapes
        );
    }
    bmbe_obs::vlog!(
        1,
        "\nprime generation per backend (cold, median of 3 runs, seconds):"
    );
    bmbe_obs::vlog!(
        1,
        "{:<22} {:>12} {:>12} {:>9}",
        "design",
        "auto",
        "exact",
        "speedup"
    );
    for r in &rows {
        bmbe_obs::vlog!(
            1,
            "{:<22} {:>12.4} {:>12.4} {:>8.2}x",
            r.design,
            r.prime_gen_auto_s,
            r.prime_gen_exact_s,
            r.prime_gen_exact_s / r.prime_gen_auto_s.max(f64::EPSILON)
        );
    }

    let mut json = String::from("{\n  \"bench\": \"flow_e2e\",\n");
    let _ = writeln!(json, "  \"threads\": {threads_used},");
    let _ = writeln!(json, "  \"samples\": {SAMPLES},");
    let _ = writeln!(
        json,
        "  \"note\": \"cold-cache shape fan-out is gated by a small-work cutoff \
         (batch::PAR_COST_CUTOFF, applied by the shape registry), so designs whose pending \
         shapes are too small to amortize a worker pool run inline; on a host without spare \
         cores every design runs inline and the reference-vs-cached ratio sits at 1.0 within \
         measurement noise, with dedup (cache hits) the only structural saving\","
    );
    json.push_str("  \"designs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"design\": \"{}\", \"controllers\": {}, \"reference_s\": {:.6}, \
             \"cached_parallel_s\": {:.6}, \"speedup\": {:.3}, \"warm_cache_s\": {:.6}, \
             \"cache_hits\": {}, \"cache_misses\": {}",
            r.design,
            r.components,
            r.reference_s,
            r.cached_s,
            r.speedup(),
            r.warm_s,
            r.hits,
            r.misses
        );
        if let (Some(ps), Some(pc)) = (r.prev_reference_s, r.prev_cached_s) {
            let _ = write!(
                json,
                ", \"before\": {{\"reference_s\": {ps:.6}, \"cached_parallel_s\": {pc:.6}, \
                 \"cached_speedup_vs_before\": {:.3}}}",
                pc / r.cached_s
            );
        }
        let _ = write!(
            json,
            ", \"backends\": {{\"auto_prime_gen_s\": {:.6}, \"exact_prime_gen_s\": {:.6}",
            r.prime_gen_auto_s, r.prime_gen_exact_s,
        );
        if r.backends_differ {
            let _ = write!(
                json,
                ", \"auto_speedup_vs_exact\": {:.3}",
                r.prime_gen_exact_s / r.prime_gen_auto_s.max(f64::EPSILON)
            );
        }
        json.push('}');
        let p = &r.spans;
        let _ = write!(
            json,
            ", \"phases\": {{\"compile_s\": {:.6}, \"statemin_s\": {:.6}, \"synth_s\": {:.6}, \
             \"prime_gen_s\": {:.6}, \"covering_s\": {:.6}, \"verify_s\": {:.6}, \
             \"map_s\": {:.6}, \"shapes\": {}}}, \"counters\": {{",
            p.compile, p.statemin, p.synth, p.prime_gen, p.covering, p.verify, p.map, p.shapes
        );
        for (k, (name, count)) in COUNTERS.iter().zip(&r.counts).enumerate() {
            let sep = if k > 0 { ", " } else { "" };
            let _ = write!(json, "{sep}\"{name}\": {count}");
        }
        json.push_str("}}");
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    emit_report("BENCH_flow.json", &json)?;
    Ok(true)
}
