//! Disk-cache durability: corrupt, truncated, and wrong-version entries
//! are evicted (never served), concurrent writers leave only complete
//! entries (atomic rename, no torn reads), and artifacts served from a
//! memory hit, a disk hit, or cold synthesis are bit-identical at 1 and 4
//! threads. The merge log survives every truncation and byte flip: it
//! serves only records that were written, keeps the records before a
//! fault, and holds each merged program once.

use bmbe_core::balsa_to_ch::balsa_to_ch;
use bmbe_core::opt::cluster::ClusterReport;
use bmbe_core::print_ch;
use bmbe_designs::all_designs;
use bmbe_flow::cache::codec::encode_entry;
use bmbe_flow::{
    run_control_flow_with, CacheKey, ControllerCache, DiskCache, DiskMiss, FaultKind, FaultPhase,
    FaultPlan, FlowOptions, FlowResult, KeyedProgram,
};
use bmbe_gates::Library;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A scratch cache directory, removed on drop so tests never leak into a
/// real `BMBE_CACHE_DIR`.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("bmbe-disk-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The cache keys the optimized flow will synthesize for a design.
fn design_keys(design: &bmbe_designs::Design) -> Vec<CacheKey> {
    let options = FlowOptions::optimized();
    let mut ctrl = balsa_to_ch(&design.compiled.netlist).expect("translate");
    ctrl.t2_clustering(&options.cluster);
    ctrl.components
        .iter()
        .map(|c| {
            KeyedProgram::new(
                &c.program,
                options.minimize_mode,
                options.minimize_backend,
                options.map_objective,
                options.map_style,
            )
            .key
        })
        .collect()
}

#[test]
fn memory_disk_and_cold_artifacts_are_bit_identical() {
    let scratch = Scratch::new("identical");
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    for threads in [1usize, 4] {
        let mut options = FlowOptions::optimized();
        options.threads = Some(threads);
        // Cold: synthesize everything, write-through to disk.
        let dir = scratch.0.join(format!("t{threads}"));
        let cold_cache =
            ControllerCache::with_disk(DiskCache::open(&dir).expect("create cache dir"));
        for design in &designs {
            let cold = run_control_flow_with(&design.compiled, &options, &library, &cold_cache)
                .unwrap_or_else(|e| panic!("{} cold: {e}", design.name));
            assert!(cold.cache_misses > 0, "{} cold run must miss", design.name);

            // Memory hit: same cache object, every shape already shelved.
            let warm = run_control_flow_with(&design.compiled, &options, &library, &cold_cache)
                .unwrap_or_else(|e| panic!("{} warm: {e}", design.name));
            assert_eq!(warm.cache_misses, 0);

            // Disk hit: a fresh cache over the same directory — the
            // cross-process case — must serve every shape from disk.
            let disk_cache =
                ControllerCache::with_disk(DiskCache::open(&dir).expect("reopen cache dir"));
            let from_disk =
                run_control_flow_with(&design.compiled, &options, &library, &disk_cache)
                    .unwrap_or_else(|e| panic!("{} disk: {e}", design.name));
            assert_eq!(
                from_disk.cache_misses, 0,
                "{} at {threads} threads: disk-hit run must not re-synthesize",
                design.name
            );

            // Flow-level figures are bit-identical (f64 equality, not
            // approximate) across all three sources.
            assert_eq!(cold.control_area, warm.control_area, "{}", design.name);
            assert_eq!(cold.control_area, from_disk.control_area, "{}", design.name);
            assert_eq!(cold.total_products(), from_disk.total_products());

            // Artifact-level: the canonical encoding of every shape loaded
            // from disk equals the encoding of the artifact the cold run
            // synthesized, byte for byte.
            let disk = DiskCache::open(&dir).expect("reopen cache dir");
            for key in design_keys(design) {
                let cold_artifact = cold_cache.peek(&key).expect("cold cache holds the shape");
                let disk_artifact = disk.load(&key).expect("disk holds the shape");
                assert_eq!(
                    encode_entry(&key, &cold_artifact),
                    encode_entry(&key, &disk_artifact),
                    "{} key {:016x} at {threads} threads",
                    design.name,
                    key.digest()
                );
            }
        }
    }
}

#[test]
fn corrupt_truncated_and_wrong_version_entries_are_evicted_not_served() {
    let scratch = Scratch::new("evict");
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let counter = &designs[0];
    let dir = &scratch.0;
    let cache = ControllerCache::with_disk(DiskCache::open(dir).expect("create cache dir"));
    run_control_flow_with(
        &counter.compiled,
        &FlowOptions::optimized(),
        &library,
        &cache,
    )
    .expect("cold flow");
    let disk = DiskCache::open(dir).expect("reopen");
    let key = design_keys(counter).remove(0);
    let path = dir.join(format!("{:016x}", key.digest()));
    let good = fs::read(&path).expect("entry written");
    disk.load(&key).expect("pristine entry loads");

    let mangle = |bytes: Vec<u8>| {
        fs::write(&path, bytes).expect("rewrite entry");
    };
    // Flipped payload byte: checksum mismatch.
    let mut corrupt = good.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    mangle(corrupt);
    assert_eq!(disk.load(&key).unwrap_err(), DiskMiss::Evicted);
    assert!(!path.exists(), "corrupt entry must be deleted");
    assert_eq!(disk.load(&key).unwrap_err(), DiskMiss::Absent);

    // Truncated mid-payload.
    mangle(good[..good.len() / 2].to_vec());
    assert_eq!(disk.load(&key).unwrap_err(), DiskMiss::Evicted);
    assert!(!path.exists());

    // Truncated inside the header.
    mangle(good[..10].to_vec());
    assert_eq!(disk.load(&key).unwrap_err(), DiskMiss::Evicted);
    assert!(!path.exists());

    // Future format version.
    let mut future = good.clone();
    future[8] = 0xff;
    mangle(future);
    assert_eq!(disk.load(&key).unwrap_err(), DiskMiss::Evicted);
    assert!(!path.exists());

    // Wrong magic.
    let mut alien = good.clone();
    alien[0] = b'X';
    mangle(alien);
    assert_eq!(disk.load(&key).unwrap_err(), DiskMiss::Evicted);
    assert!(!path.exists());

    // An evicted entry is just a miss: the flow re-synthesizes and
    // backfills the slot with a pristine copy.
    let fresh = ControllerCache::with_disk(DiskCache::open(dir).expect("reopen"));
    let redo = run_control_flow_with(
        &counter.compiled,
        &FlowOptions::optimized(),
        &library,
        &fresh,
    )
    .expect("flow after eviction");
    assert!(redo.cache_misses > 0, "evicted shape must re-synthesize");
    // The backfilled entry loads cleanly and re-encodes to the original's
    // payload: the payload carries no wall-clock of either synthesis.
    let backfilled = DiskCache::open(dir)
        .expect("reopen")
        .load(&key)
        .expect("entry rewritten");
    let original = cache.peek(&key).expect("original still shelved");
    assert_eq!(
        encode_entry(&key, &backfilled),
        encode_entry(&key, &original)
    );
}

#[test]
fn concurrent_writers_never_expose_a_torn_entry() {
    let scratch = Scratch::new("race");
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let counter = &designs[0];
    let dir = &scratch.0;
    // Synthesize once to get a real artifact to hammer with.
    let cache = ControllerCache::with_disk(DiskCache::open(dir).expect("create cache dir"));
    run_control_flow_with(
        &counter.compiled,
        &FlowOptions::optimized(),
        &library,
        &cache,
    )
    .expect("cold flow");
    let key = design_keys(counter).remove(0);
    let artifact = cache.peek(&key).expect("artifact cached");
    let expected = encode_entry(&key, &artifact);

    // Two writer handles (stand-ins for two processes: separate tmp-file
    // sequences, same rename target) race against a reader that must only
    // ever observe complete entries.
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..2 {
            let disk = DiskCache::open(dir).expect("writer handle");
            let key = key.clone();
            let artifact = Arc::clone(&artifact);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    disk.store(&key, &artifact).expect("store");
                }
            });
        }
        let reader = DiskCache::open(dir).expect("reader handle");
        for _ in 0..300 {
            match reader.load(&key) {
                Ok(loaded) => assert_eq!(
                    encode_entry(&key, &loaded),
                    expected,
                    "a reader must only ever see a complete entry"
                ),
                // Absent can race the very first rename; torn entries
                // would surface as Evicted, which must never happen.
                Err(DiskMiss::Absent) => {}
                Err(e) => panic!("torn or unreadable entry: {e:?}"),
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    // The survivor is complete.
    let survivor = DiskCache::open(dir)
        .expect("reopen")
        .load(&key)
        .expect("entry");
    assert_eq!(encode_entry(&key, &survivor), expected);
}

/// A flow's clustering: its components as `(name, printed program)` and
/// its report.
fn clustering(flow: FlowResult) -> (Vec<(String, String)>, Option<ClusterReport>) {
    let components = flow
        .controllers
        .iter()
        .map(|c| (c.name.clone(), print_ch(&c.program)))
        .collect();
    (components, flow.cluster_report)
}

#[test]
fn every_truncation_and_byte_flip_of_the_merge_log_is_served_faithfully_or_evicted() {
    let scratch = Scratch::new("merge-log");
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let stack = designs
        .iter()
        .find(|d| d.name == "Stack")
        .expect("Stack ships");
    let dir = &scratch.0;
    let flow = |cache: &ControllerCache| {
        run_control_flow_with(&stack.compiled, &FlowOptions::optimized(), &library, cache)
            .map(clustering)
    };
    let cold = ControllerCache::with_disk(DiskCache::open(dir).expect("create cache dir"));
    flow(&cold).expect("cold flow");
    // The clustering over a fresh memo, with no merge log at all.
    let expected = flow(&ControllerCache::new()).expect("memory-only flow");
    let disk = DiskCache::open(dir).expect("reopen");
    let log = disk.merge_log_path();
    let good = fs::read(&log).expect("the cold flow writes a merge log");
    let written = disk.load_merges().expect("the pristine log loads");
    assert!(written.len() > 1, "{} records", written.len());
    // Where each record ends: a 16-byte header, then per record a 16-byte
    // prefix, the 8-byte state count, the 8-byte text length and the text.
    let ends: Vec<usize> = written
        .iter()
        .scan(16, |end, (text, _)| {
            *end += 16 + 8 + 8 + text.len();
            Some(*end)
        })
        .collect();
    assert_eq!(ends.last(), Some(&good.len()));
    // `mutated` must load as the first `kept` records and leave a log of
    // exactly those records behind, and a flow through a cache opened over
    // it must cluster as a fresh memo.
    let check = |mutated: &[u8], kept: usize, what: &str| {
        fs::write(&log, mutated).expect("rewrite log");
        let loaded = disk.load_merges().expect("a readable log loads");
        assert_eq!(loaded[..], written[..kept], "{what}");
        let kept_end = kept.checked_sub(1).map_or(16, |last| ends[last]);
        let left = fs::read(&log).expect("a faulted log survives");
        assert!(
            left[..] == good[..kept_end],
            "{what}: the log holds its kept records"
        );
        fs::write(&log, mutated).expect("rewrite log");
        let reopened = ControllerCache::with_disk(DiskCache::open(dir).expect("reopen"));
        let got = flow(&reopened).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(got, expected, "{what}");
    };
    let before = |at: usize| ends.iter().filter(|&&end| end <= at).count();
    for len in 0..good.len() {
        check(&good[..len], before(len), &format!("cut at {len}"));
    }
    for at in 0..good.len() {
        let mut flipped = good.clone();
        flipped[at] ^= 0xff;
        check(&flipped, before(at), &format!("flip at {at}"));
    }
}

/// One Stack flow over a cache opened on `dir` (with `fault` armed on its
/// disk layer), and the merges it compiled.
fn stack_flow(dir: &std::path::Path, fault: Option<FaultPlan>) -> Result<usize, String> {
    let designs = all_designs().map_err(|e| e.to_string())?;
    let stack = designs
        .iter()
        .find(|d| d.name == "Stack")
        .ok_or("Stack ships")?;
    let disk = DiskCache::with_fault(dir, fault).map_err(|e| e.to_string())?;
    let cache = ControllerCache::with_disk(disk);
    let options = FlowOptions::optimized();
    run_control_flow_with(&stack.compiled, &options, &Library::cmos035(), &cache)
        .map_err(|e| e.to_string())?;
    Ok(cache.merge_memo().misses())
}

/// The records a fresh handle loads from the merge log in `dir`.
fn log_records(dir: &std::path::Path) -> Result<usize, String> {
    let disk = DiskCache::open(dir).map_err(|e| e.to_string())?;
    disk.load_merges()
        .map(|m| m.len())
        .map_err(|e| e.to_string())
}

#[test]
fn a_torn_merge_log_keeps_its_records_for_every_later_process() -> Result<(), String> {
    let scratch = Scratch::new("merge-log-torn");
    let compiled = stack_flow(&scratch.0, None)?;
    assert_eq!((compiled, log_records(&scratch.0)?), (9, 9));
    let log = scratch.0.join(bmbe_flow::cache::disk::MERGE_LOG);
    let good = fs::read(&log).map_err(|e| e.to_string())?;
    fs::write(&log, &good[..good.len() - 5]).map_err(|e| e.to_string())?;
    // The next process compiles the torn record only, and the one after
    // it compiles nothing.
    assert_eq!(stack_flow(&scratch.0, None)?, 1);
    assert_eq!(stack_flow(&scratch.0, None)?, 0);
    assert_eq!(log_records(&scratch.0)?, 9);
    Ok(())
}

#[test]
fn a_merge_log_holding_a_text_twice_is_rewritten_once_each() -> Result<(), String> {
    let scratch = Scratch::new("merge-log-repeats");
    stack_flow(&scratch.0, None)?;
    assert_eq!(log_records(&scratch.0)?, 9);
    // A failed log read starts an empty memo, whose compiles append every
    // merge again.
    let read_fault = FaultPlan {
        phase: FaultPhase::CacheIo,
        nth: 0,
        kind: FaultKind::Error,
    };
    assert_eq!(stack_flow(&scratch.0, Some(read_fault))?, 9);
    assert_eq!(log_records(&scratch.0)?, 18);
    // The next clean open rewrites the log with each text once.
    assert_eq!(stack_flow(&scratch.0, None)?, 0);
    assert_eq!(log_records(&scratch.0)?, 9);
    Ok(())
}
