//! Crash flight recorder: a bounded per-thread ring of recent coarse
//! events, drained into a structured JSON dump when something goes wrong
//! (a job panics, a fault fires, a disk-cache entry is evicted).
//!
//! Unlike tracing, the recorder is always on: [`note`] costs one
//! uncontended per-thread mutex lock and one small allocation, and is only
//! called at coarse boundaries (job/shape/cache/fault transitions), so it
//! rides far below the <2% disabled-overhead budget that gates the span
//! fast path. The ring holds the last [`RING_EVENTS`] events per thread —
//! forensics for faulted runs without always-on tracing cost.
//!
//! ## Dump sink
//!
//! [`dump`] writes **only to a file or stderr, never stdout** — report
//! binaries keep their pure-JSON stdout contract. The path resolves as:
//!
//! 1. a programmatic override ([`set_flight_out`], used by tests);
//! 2. `BMBE_FLIGHT_OUT`;
//! 3. if tracing is enabled or `BMBE_FAULT` is set: derived from
//!    `BMBE_TRACE_OUT` by the usual suffix convention
//!    (`trace.json` → `trace.flight.json`);
//! 4. otherwise no sink is configured and the dump is skipped (events
//!    stay in the rings).
//!
//! A path of `-` or `/dev/stdout` is redirected to stderr. Repeated dumps
//! in one process get `.2`, `.3`, … suffixes so earlier forensics are
//! never clobbered.

use crate::export::escape;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events kept per thread.
pub const RING_EVENTS: usize = 128;

/// Events kept from already-exited threads.
const RETIRED_EVENTS: usize = 1024;

/// One recorded event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Nanoseconds since the trace epoch ([`crate::now_ns`]).
    pub t_ns: u64,
    /// Thread name at recording time.
    pub thread: String,
    /// Static tag naming the boundary (e.g. `"shape.phase"`).
    pub tag: &'static str,
    /// Event detail (design, digest, error text, …).
    pub detail: String,
}

struct ThreadRing {
    name: String,
    events: Mutex<VecDeque<(u64, &'static str, String)>>,
}

struct Registry {
    rings: Vec<Arc<ThreadRing>>,
    /// Recent events from threads that have exited, oldest first.
    retired: VecDeque<FlightEvent>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            rings: Vec::new(),
            retired: VecDeque::new(),
        })
    })
}

fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    match registry().lock() {
        Ok(g) => g,
        Err(poisoned) => {
            // The recorder runs exactly when things are going wrong; a
            // panicking recorder thread must not take forensics down too.
            registry().clear_poison();
            poisoned.into_inner()
        }
    }
}

thread_local! {
    static RING: std::cell::RefCell<Option<Arc<ThreadRing>>> =
        const { std::cell::RefCell::new(None) };
}

fn retire_dead(reg: &mut Registry) {
    let mut dead: Vec<Arc<ThreadRing>> = Vec::new();
    reg.rings.retain(|ring| {
        if Arc::strong_count(ring) > 1 {
            true
        } else {
            dead.push(ring.clone());
            false
        }
    });
    for ring in dead {
        let events = match ring.events.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(p) => std::mem::take(&mut *p.into_inner()),
        };
        for (t_ns, tag, detail) in events {
            reg.retired.push_back(FlightEvent {
                t_ns,
                thread: ring.name.clone(),
                tag,
                detail,
            });
        }
        while reg.retired.len() > RETIRED_EVENTS {
            reg.retired.pop_front();
        }
    }
}

fn with_ring(f: impl FnOnce(&ThreadRing)) {
    RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(ThreadRing {
                name: std::thread::current()
                    .name()
                    .unwrap_or("worker")
                    .to_string(),
                events: Mutex::new(VecDeque::new()),
            });
            let mut reg = lock_registry();
            // Bound the registry: fold exited workers into the retired
            // window instead of growing with every fan-out.
            retire_dead(&mut reg);
            reg.rings.push(ring.clone());
            ring
        });
        f(ring);
    });
}

/// Records one event into this thread's flight ring. `detail` is a closure
/// so callers pay for formatting only when the event is actually stored
/// (it always is today; the signature keeps the callsites cheap if a
/// gate is ever added).
pub fn note(tag: &'static str, detail: impl FnOnce() -> String) {
    let t_ns = crate::now_ns();
    let detail = detail();
    with_ring(|ring| {
        let mut events = match ring.events.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if events.len() >= RING_EVENTS {
            events.pop_front();
        }
        events.push_back((t_ns, tag, detail));
    });
}

/// A snapshot of every thread's recent events (live rings plus the retired
/// window), sorted by timestamp. Rings are not cleared — a later dump sees
/// the same bounded window plus whatever happened since.
pub fn snapshot() -> Vec<FlightEvent> {
    let mut reg = lock_registry();
    retire_dead(&mut reg);
    let mut out: Vec<FlightEvent> = reg.retired.iter().cloned().collect();
    for ring in &reg.rings {
        let events = match ring.events.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        for (t_ns, tag, detail) in events.iter() {
            out.push(FlightEvent {
                t_ns: *t_ns,
                thread: ring.name.clone(),
                tag,
                detail: detail.clone(),
            });
        }
    }
    drop(reg);
    out.sort_by_key(|e| e.t_ns);
    out
}

/// Programmatic dump-path override (tests, embedders). `None` restores the
/// environment-driven resolution.
pub fn set_flight_out(path: Option<String>) {
    *flight_override().lock().unwrap_or_else(|p| p.into_inner()) = path;
}

fn flight_override() -> &'static Mutex<Option<String>> {
    static OVERRIDE: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    OVERRIDE.get_or_init(|| Mutex::new(None))
}

/// Resolves the dump path per the module-level rules; `None` means no sink
/// is configured and dumps are skipped.
pub fn flight_out_path() -> Option<String> {
    if let Some(p) = flight_override()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
    {
        return Some(p);
    }
    if let Ok(p) = std::env::var("BMBE_FLIGHT_OUT") {
        if !p.is_empty() {
            return Some(p);
        }
    }
    if crate::enabled() || std::env::var("BMBE_FAULT").is_ok_and(|v| !v.is_empty()) {
        return Some(crate::sibling_out_path(
            &crate::trace_out_path(),
            "flight.json",
        ));
    }
    None
}

fn dump_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Renders a dump document: the failure context (design, component,
/// cache_key, phase, …) plus every recent event across all threads.
pub fn render(reason: &str, context: &[(&str, String)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"flight\": true, \"reason\": \"");
    out.push_str(&escape(reason));
    let _ = write!(
        out,
        "\", \"run\": \"{}\", \"t_ns\": {}, \"context\": {{",
        crate::run_id_hex(),
        crate::now_ns()
    );
    for (i, (key, value)) in context.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{key}\": \"");
        out.push_str(&escape(value));
        out.push('"');
    }
    out.push_str("}, \"events\": [");
    for (i, ev) in snapshot().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\n  {{\"t_ns\": {}, \"thread\": \"", ev.t_ns);
        out.push_str(&escape(&ev.thread));
        out.push_str("\", \"tag\": \"");
        out.push_str(&escape(ev.tag));
        out.push_str("\", \"detail\": \"");
        out.push_str(&escape(&ev.detail));
        out.push_str("\"}");
    }
    out.push_str("\n]}\n");
    out
}

/// Dumps the flight rings as structured JSON to the configured sink (see
/// the module docs), returning the path written. No-op (returning `None`)
/// when no sink is configured; never writes to stdout; never panics — a
/// failed forensic write only logs via [`crate::vlog!`].
pub fn dump(reason: &str, context: &[(&str, String)]) -> Option<String> {
    let path = flight_out_path()?;
    let doc = render(reason, context);
    if path == "-" || path == "/dev/stdout" {
        eprint!("{doc}");
        return None;
    }
    let seq = dump_seq();
    let path = if seq == 0 {
        path
    } else {
        format!("{path}.{}", seq + 1)
    };
    match std::fs::write(&path, &doc) {
        Ok(()) => {
            crate::vlog!(1, "bmbe-obs: flight recorder dump ({reason}) -> {path}");
            Some(path)
        }
        Err(e) => {
            crate::vlog!(0, "bmbe-obs: flight recorder dump to {path} failed: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_are_bounded_and_dump_renders_valid_json() {
        let _l = crate::tests::global_lock();
        for i in 0..(RING_EVENTS + 16) {
            note("test.flood", || format!("event {i}"));
        }
        let mine: Vec<FlightEvent> = snapshot()
            .into_iter()
            .filter(|e| e.tag == "test.flood")
            .collect();
        assert!(mine.len() <= RING_EVENTS);
        assert!(
            mine.iter()
                .any(|e| e.detail == format!("event {}", RING_EVENTS + 15)),
            "newest event survives"
        );
        let doc = render(
            "unit-test",
            &[
                ("design", "Stack \"quoted\"".to_string()),
                ("phase", "synth".to_string()),
            ],
        );
        crate::export::validate_json(&doc).unwrap_or_else(|(at, e)| panic!("at byte {at}: {e}"));
        assert!(doc.contains("\"reason\": \"unit-test\""));
        assert!(doc.contains("\\\"quoted\\\""));
    }

    #[test]
    fn worker_events_survive_thread_exit() {
        let _l = crate::tests::global_lock();
        std::thread::scope(|s| {
            s.spawn(|| note("test.retired", || "from a dead worker".to_string()));
        });
        // Trigger a registration sweep from this thread, then snapshot.
        note("test.retired.main", || "main".to_string());
        let snap = snapshot();
        assert!(snap.iter().any(|e| e.tag == "test.retired"));
    }

    #[test]
    fn dump_skips_without_a_sink_and_honors_override() {
        let _l = crate::tests::global_lock();
        crate::set_enabled(false);
        set_flight_out(None);
        if std::env::var("BMBE_FLIGHT_OUT").is_err() && std::env::var("BMBE_FAULT").is_err() {
            assert_eq!(dump("no-sink", &[]), None);
        }
        let dir = std::env::temp_dir().join(format!("bmbe_flight_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.flight.json");
        set_flight_out(Some(path.to_string_lossy().into_owned()));
        note("test.dump", || "before the failure".to_string());
        let written = dump("test-failure", &[("component", "seq_3".to_string())])
            .expect("dump with an override sink");
        let doc = std::fs::read_to_string(&written).unwrap();
        crate::export::validate_json(&doc).unwrap_or_else(|(at, e)| panic!("at byte {at}: {e}"));
        assert!(doc.contains("\"component\": \"seq_3\""));
        assert!(doc.contains("before the failure"));
        set_flight_out(None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
