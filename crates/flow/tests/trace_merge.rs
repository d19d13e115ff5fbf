//! Fleet trace correlation: a cold and a warm batch fleet, traced
//! in-process under distinct run IDs, export self-describing JSONL
//! streams whose concatenation analyzes as ONE logical trace — the
//! critical path is rooted at a `batch.run` span whose total matches the
//! measured fleet wall, merge order does not matter, and the per-shape
//! singleflight wait attribution reconciles exactly against the batch
//! summary's shared waits.

use bmbe_designs::all_designs;
use bmbe_flow::{run_batch, BatchJob, BatchSummary, ControllerCache, DiskCache};
use bmbe_gates::Library;
use bmbe_obs::analyze::parse_merged;
use bmbe_obs::export::export_jsonl;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Obs state (the enable flag, rings, run ID) is process-global; every
/// test here owns all of it for its duration.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A scratch disk-cache directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("bmbe-trace-merge-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fleet_jobs(replicas: u64) -> Vec<BatchJob> {
    let designs = all_designs().expect("shipped designs build");
    (0..replicas)
        .flat_map(|r| {
            designs.iter().map(move |d| BatchJob {
                label: format!("{}#{r}", d.name),
                design: d.compiled.clone(),
                scenario: Some(d.scenario.clone()),
                sim_batch: 4,
                seed: r,
                ..BatchJob::new("", d.compiled.clone())
            })
        })
        .collect()
}

/// Runs one traced fleet under `run_id` and returns its JSONL stream, the
/// wall nanoseconds measured around `run_batch`, and its summary.
fn traced_fleet(
    run_id: u64,
    jobs: &[BatchJob],
    cache: &ControllerCache,
    threads: usize,
) -> (String, u64, BatchSummary) {
    let library = Library::cmos035();
    bmbe_obs::set_run_id(run_id);
    // Drain residue from earlier tests so the stream holds only this
    // fleet's spans.
    let _ = bmbe_obs::flush();
    bmbe_obs::set_enabled(true);
    let start = Instant::now();
    let summary = run_batch(jobs, &library, cache, threads);
    let wall_ns = start.elapsed().as_nanos() as u64;
    bmbe_obs::set_enabled(false);
    let trace = bmbe_obs::flush();
    assert_eq!(summary.failed(), 0, "fleet must succeed");
    assert_eq!(
        trace.run, run_id,
        "trace is stamped with the fleet's run ID"
    );
    (export_jsonl(&trace), wall_ns, summary)
}

#[test]
fn merged_cold_warm_fleet_has_deterministic_critical_path_matching_wall() {
    let _serial = lock();
    let scratch = Scratch::new("cold-warm");
    let jobs = fleet_jobs(2);

    const COLD_RUN: u64 = 0xc01d_c01d_c01d_c01d;
    const WARM_RUN: u64 = 0x3a43_3a43_3a43_3a43;
    let cold_cache =
        ControllerCache::with_disk(DiskCache::open(&scratch.0).expect("create cache dir"));
    let (cold_jsonl, cold_wall_ns, _) = traced_fleet(COLD_RUN, &jobs, &cold_cache, 2);
    // A fresh in-memory cache over the now-populated disk directory: the
    // warm fleet resolves shapes from disk, a genuinely separate run.
    let warm_cache =
        ControllerCache::with_disk(DiskCache::open(&scratch.0).expect("reopen cache dir"));
    let (warm_jsonl, warm_wall_ns, _) = traced_fleet(WARM_RUN, &jobs, &warm_cache, 2);

    // Merge = concatenation, in either order.
    let ab = parse_merged(&format!("{cold_jsonl}{warm_jsonl}")).expect("merged trace parses");
    let ba = parse_merged(&format!("{warm_jsonl}{cold_jsonl}")).expect("merged trace parses");
    assert_eq!(ab.runs.len(), 2, "both runs survive the merge");

    let path = ab.critical_path();
    assert!(!path.segments.is_empty(), "critical path is non-empty");
    let root = &path.segments[0];
    assert_eq!(root.name, "batch.run", "fleet root is the batch.run span");
    assert_eq!(
        path.total_ns, root.dur_ns,
        "self times telescope to the root"
    );

    // The path total equals the *owning* fleet's measured wall within 5%:
    // the root span opens and closes inside run_batch, so the only slack
    // is the measurement harness itself.
    let wall_ns = if root.run == COLD_RUN {
        cold_wall_ns
    } else {
        warm_wall_ns
    };
    let diff = path.total_ns.abs_diff(wall_ns);
    assert!(
        diff * 20 <= wall_ns,
        "critical path {} ns vs fleet wall {} ns differs by more than 5%",
        path.total_ns,
        wall_ns
    );

    // Deterministic under merge order: same total, same segment identity.
    let path_ba = ba.critical_path();
    assert_eq!(path.total_ns, path_ba.total_ns);
    assert_eq!(
        path.segments
            .iter()
            .map(|s| (&s.name, s.run, s.dur_ns))
            .collect::<Vec<_>>(),
        path_ba
            .segments
            .iter()
            .map(|s| (&s.name, s.run, s.dur_ns))
            .collect::<Vec<_>>()
    );

    // Every segment self time is attributed somewhere on the path.
    assert_eq!(
        path.segments.iter().map(|s| s.self_ns).sum::<u64>(),
        path.total_ns
    );
}

#[test]
fn wait_attribution_reconciles_with_the_batch_summary() {
    let _serial = lock();
    let jobs = fleet_jobs(3);
    for threads in [1, 4] {
        // Fresh in-memory cache, no disk: every distinct shape is claimed
        // by exactly one job, later replicas wait on the flight.
        let cache = ControllerCache::new();
        let (jsonl, _, summary) = traced_fleet(0x1000 + threads as u64, &jobs, &cache, threads);
        let trace = parse_merged(&jsonl).expect("fleet trace parses");
        let rows = trace.wait_attribution();
        let trace_waits: u64 = rows.iter().map(|r| r.waits).sum();

        // Each shared resolution blocks once under an annotated
        // `batch.wait` span and counts once in the summary and in the
        // `batch.shapes.shared` count, so the three agree exactly — at 1
        // thread all are zero (no concurrent claimant to wait on).
        assert_eq!(
            trace_waits, summary.shared_waits as u64,
            "threads={threads}: trace attribution disagrees with the summary's shared waits"
        );
        let counts = trace.counter_totals().expect("lossless trace");
        assert_eq!(
            counts.get("batch.shapes.shared").copied().unwrap_or(0),
            summary.shared_waits as i64,
            "threads={threads}: batch.shapes.shared disagrees with the summary"
        );
        if threads == 1 {
            assert_eq!(trace_waits, 0, "a serial fleet never waits");
        }
        // Every attributed wait names the claiming owner's run and its
        // hotspot phase.
        for row in &rows {
            assert!(
                row.owner_run.is_some(),
                "wait {:016x} has an owner",
                row.digest
            );
            assert!(row.owner_hotspot.is_some(), "owner did real work");
        }
    }
}
