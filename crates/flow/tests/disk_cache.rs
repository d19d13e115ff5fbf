//! Disk-cache durability: corrupt, truncated, and wrong-version entries
//! are evicted (never served), concurrent writers leave only complete
//! entries (atomic rename, no torn reads), and artifacts served from a
//! memory hit, a disk hit, or cold synthesis are bit-identical at 1 and 4
//! threads.

use bmbe_core::balsa_to_ch::balsa_to_ch;
use bmbe_designs::all_designs;
use bmbe_flow::cache::codec::encode_entry;
use bmbe_flow::{
    run_control_flow_with, CacheKey, ControllerCache, DiskCache, DiskMiss, FlowOptions,
    KeyedProgram,
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
        let dir = std::env::temp_dir().join(format!(
            "bmbe-disk-cache-{tag}-{}",
            std::process::id()
        ));
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
    run_control_flow_with(&counter.compiled, &FlowOptions::optimized(), &library, &cache)
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
    let redo = run_control_flow_with(&counter.compiled, &FlowOptions::optimized(), &library, &fresh)
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
    run_control_flow_with(&counter.compiled, &FlowOptions::optimized(), &library, &cache)
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
    let survivor = DiskCache::open(dir).expect("reopen").load(&key).expect("entry");
    assert_eq!(encode_entry(&key, &survivor), expected);
}
