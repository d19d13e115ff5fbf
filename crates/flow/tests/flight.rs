//! Crash flight recorder: a fleet job killed by an injected fault leaves
//! a structured dump behind that names the failing design, component,
//! cache key, and phase; evicting a corrupt disk-cache entry dumps too.
//! Dumps only happen once a sink is configured, so these tests route them
//! into scratch directories via `bmbe_obs::recorder::set_flight_out`.

use bmbe_designs::all_designs;
use bmbe_flow::{
    run_batch, run_control_flow_with, BatchJob, ControllerCache, DiskCache, FaultPlan, FlowOptions,
};
use bmbe_gates::Library;
use bmbe_obs::export::validate_json;
use std::path::PathBuf;
use std::sync::Mutex;

/// The flight-recorder sink and dump sequence are process-global.
static FLIGHT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FLIGHT_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("bmbe-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Reads back whatever dump files landed in `dir` (repeat dumps get
/// `.2`, `.3`, ... suffixes, so scan rather than guess).
fn dumps_in(dir: &PathBuf) -> Vec<String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("scratch dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            out.push(std::fs::read_to_string(&path).expect("dump readable"));
        }
    }
    out
}

#[test]
fn faulted_batch_job_dumps_failing_identity() {
    let _serial = lock();
    let scratch = Scratch::new("fault");
    bmbe_obs::recorder::set_flight_out(Some(
        scratch.0.join("flight.json").to_string_lossy().into_owned(),
    ));

    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let stack = designs
        .iter()
        .find(|d| d.name == "Stack")
        .expect("Stack shipped");
    let mut options = FlowOptions::optimized();
    options.fault = Some(FaultPlan::parse("synth:0:err").expect("valid plan"));
    let jobs = [BatchJob {
        label: "stack#fault".to_string(),
        options,
        ..BatchJob::new("stack#fault", stack.compiled.clone())
    }];
    let summary = run_batch(&jobs, &library, &ControllerCache::new(), 1);
    bmbe_obs::recorder::set_flight_out(None);

    assert_eq!(summary.failed(), 1, "the injected fault fails the job");
    let failure = summary.jobs[0].as_ref().expect_err("job failed");
    let dumps = dumps_in(&scratch.0);
    assert!(!dumps.is_empty(), "a failing job must leave a dump behind");
    let dump = dumps
        .iter()
        .find(|d| d.contains("\"reason\": \"job-failure\""))
        .expect("job-failure dump present");

    // The dump is valid JSON and carries the failing job's full identity,
    // correlated with what the structured failure reports.
    validate_json(dump).expect("dump is valid JSON");
    assert!(dump.contains("\"flight\": true"));
    for (key, value) in [
        ("design", failure.design.as_str()),
        ("component", failure.component.as_str()),
        ("cache_key", failure.cache_key.as_str()),
        ("phase", "synth"),
    ] {
        assert!(
            dump.contains(&format!("\"{key}\": \"{value}\"")),
            "dump names the failing {key} ({value}): {dump}"
        );
    }
    // The fault injector's own breadcrumb made it into the event ring.
    assert!(dump.contains("fault.fired"), "fault breadcrumb recorded");
}

#[test]
fn evicting_a_corrupt_disk_entry_dumps() {
    let _serial = lock();
    let cache_dir = Scratch::new("evict-cache");
    let dump_dir = Scratch::new("evict-dump");

    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let counter = &designs[0];
    let cache =
        ControllerCache::with_disk(DiskCache::open(&cache_dir.0).expect("create cache dir"));
    run_control_flow_with(
        &counter.compiled,
        &FlowOptions::optimized(),
        &library,
        &cache,
    )
    .expect("cold flow populates the disk cache");

    // Flip the last byte of one stored entry: checksum mismatch on the
    // next load, which must evict AND dump.
    let entry = std::fs::read_dir(&cache_dir.0)
        .expect("cache dir readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.is_file())
        .expect("cold flow wrote at least one entry");
    let mut bytes = std::fs::read(&entry).expect("entry readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&entry, &bytes).expect("rewrite entry");

    bmbe_obs::recorder::set_flight_out(Some(
        dump_dir
            .0
            .join("flight.json")
            .to_string_lossy()
            .into_owned(),
    ));
    let warm = ControllerCache::with_disk(DiskCache::open(&cache_dir.0).expect("reopen cache dir"));
    run_control_flow_with(
        &counter.compiled,
        &FlowOptions::optimized(),
        &library,
        &warm,
    )
    .expect("warm flow self-heals past the corrupt entry");
    bmbe_obs::recorder::set_flight_out(None);

    let dumps = dumps_in(&dump_dir.0);
    let dump = dumps
        .iter()
        .find(|d| d.contains("\"reason\": \"disk-evict\""))
        .expect("eviction leaves a dump behind");
    validate_json(dump).expect("dump is valid JSON");
    assert!(
        dump.contains("cache.disk.evicted"),
        "eviction breadcrumb recorded: {dump}"
    );
}
