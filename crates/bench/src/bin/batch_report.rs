//! Batch driver report: runs a fleet of design jobs — replicas of the four
//! benchmark designs, each with a compiled-backend simulation stage — over
//! one shared controller cache, sharding distinct shape digests across the
//! worker pool (singleflight; each shape synthesized exactly once per
//! fleet). Streams one JSON object per job to stdout in submission order,
//! then a fleet summary line; stdout is pure JSON (one object per line),
//! human-readable progress goes to stderr under `BMBE_VERBOSE=1`.
//!
//! Honours `BMBE_CACHE_DIR` (the persistent disk cache — a second run of
//! the same fleet resolves every shape from disk), `BMBE_THREADS`,
//! `BMBE_FAULT` (`cache_io` plans degrade disk traffic to misses; synthesis
//! plans fail the claiming job), and `BMBE_TRACE=1` (writes the Chrome +
//! self-describing JSONL trace pair to `BMBE_TRACE_OUT` on exit, so a
//! fleet of traced processes leaves streams `trace_report` can merge).
//!
//! ```text
//! batch_report [--replicas N] [--sim-batch K] [--threads T] [--seed S]
//! ```
//!
//! Exits non-zero when any job fails (after reporting every job).

use bmbe_bench::report::{export_trace_if_enabled, flag, run_main};
use bmbe_designs::all_designs;
use bmbe_flow::{job_json, run_batch, BatchJob, ControllerCache, FlowOptions};
use bmbe_gates::Library;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main("batch_report", run)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let replicas = flag(&args, "--replicas", 3)?;
    let sim_batch = flag(&args, "--sim-batch", 8)?;
    let threads = flag(&args, "--threads", bmbe_par::default_threads())?;
    let seed = flag(&args, "--seed", 42)? as u64;
    bmbe_obs::init_from_env();

    let library = Library::cmos035();
    let cache = ControllerCache::from_env();
    let designs = all_designs().map_err(|e| format!("shipped designs: {e}"))?;
    // Replicas interleave across designs (a#0 b#0 ... a#1 b#1 ...), the
    // worst case for naive per-job caching and the case singleflight
    // dedup must win: only the first job to reach a digest synthesizes.
    let jobs: Vec<BatchJob> = (0..replicas)
        .flat_map(|r| {
            designs.iter().map(move |d| BatchJob {
                label: format!("{}#{r}", d.name),
                design: d.compiled.clone(),
                options: FlowOptions::optimized().with_env_fault(),
                scenario: Some(d.scenario.clone()),
                sim_batch,
                // Vary data per (design, replica) so no two jobs in the
                // fleet draw identical variant sequences — a shared
                // `seed + r` stream would hand every design of one
                // replica the same sequence.
                seed: bmbe_designs::derive_seed(seed, d.name, "", r as u64),
            })
        })
        .collect();
    bmbe_obs::vlog!(1, "batch: {} jobs on {} threads ...", jobs.len(), threads);

    let summary = run_batch(&jobs, &library, &cache, threads);
    for outcome in &summary.jobs {
        if let Err(f) = outcome {
            eprintln!("batch_report: {f}");
        }
        println!("{}", job_json(outcome));
    }
    let stats = cache.stats();
    println!(
        "{{\"summary\": true, \"jobs\": {}, \"failed\": {}, \"distinct_shapes\": {}, \
         \"synthesized\": {}, \"shared_waits\": {}, \"cache_hits\": {}, \
         \"merge_hits\": {}, \"merge_misses\": {}, \
         \"job_workers\": {}, \"inner_threads\": {}, \"disk_cache\": {}, \
         \"cache_stats\": {{\"hits\": {}, \"misses\": {}}}, \"wall_s\": {:.6}}}",
        summary.jobs.len(),
        summary.failed(),
        summary.distinct_shapes,
        summary.synthesized,
        summary.shared_waits,
        summary.cache_hits,
        summary.merge_hits,
        summary.merge_misses,
        summary.job_workers,
        summary.inner_threads,
        cache.disk().is_some(),
        stats.hits,
        stats.misses,
        summary.wall_s
    );
    // A traced fleet process leaves its self-describing JSONL stream
    // behind: concatenating the streams of a cold and a warm run is what
    // `trace_report` analyzes as one merged fleet trace.
    export_trace_if_enabled()?;
    Ok(summary.failed() == 0)
}
