#![warn(missing_docs)]
//! # bmbe-obs
//!
//! Structured observability for the bmbe back-end: span-based tracing,
//! counts as trace records, and exporters — with no external dependencies
//! (the workspace builds offline).
//!
//! ## Tracing
//!
//! [`span!`] opens a span at a static callsite and returns a guard that
//! closes it on drop; [`event!`] records an instantaneous event. Records go
//! to a per-thread single-producer ring ([`ring`]) — `bmbe-par` workers
//! record without contention — and [`flush`] collects every lane for the
//! exporters in [`export`] (JSONL and Chrome trace-event format).
//!
//! When tracing is disabled (the default), a callsite costs one relaxed
//! atomic load — no thread-local access, no timestamps, no allocation, no
//! ring traffic, and no evaluation of the callsite's value expression.
//! `bmbe-bench`'s `obs_overhead` bench pins this. Enable with
//! [`set_enabled`] or `BMBE_TRACE=1` + [`init_from_env`]; `BMBE_TRACE_OUT`
//! overrides the default `trace.json` output path.
//!
//! The spans are the only timing system: a report that needs per-phase
//! wall times (`perf_report`'s synthesis phases, `trace_report`) traces
//! the run and reads them back through [`analyze`].
//!
//! ## Counts
//!
//! A count is a trace record: [`trace_counter!`] writes a signed delta
//! while tracing is on, and
//! [`analyze::MergedTrace::counter_totals`] adds the deltas up per name.
//! A report that needs a count traces the run, as it does for a phase
//! time; the Chrome export shows each name's running total as a counter
//! track.
//!
//! ## Verbosity
//!
//! [`vlog!`] writes human-readable progress to **stderr**, gated by a
//! global verbosity level (`BMBE_VERBOSE`, [`set_verbosity`]) — report
//! binaries keep stdout pure JSON.

pub mod analyze;
pub mod export;
pub mod recorder;
pub mod ring;

pub use ring::{Record, RecordKind, Sample};

use ring::ThreadBuffer;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global switches
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static VERBOSITY: AtomicU8 = AtomicU8::new(0);

/// Whether trace recording is enabled. The one atomic load on the disabled
/// fast path.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns trace recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Current stderr verbosity level (0 = silent).
#[inline]
pub fn verbosity() -> u8 {
    VERBOSITY.load(Ordering::Relaxed)
}

/// Sets the stderr verbosity level.
pub fn set_verbosity(level: u8) {
    VERBOSITY.store(level, Ordering::Relaxed);
}

/// Raises verbosity to at least `level` (never lowers it).
pub fn ensure_verbosity(level: u8) {
    VERBOSITY.fetch_max(level, Ordering::Relaxed);
}

/// Reads the environment switches: `BMBE_TRACE` (non-empty, not `0` =
/// enable tracing) and `BMBE_VERBOSE` (numeric stderr verbosity).
/// Idempotent; safe to call from every binary's `main`.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("BMBE_TRACE") {
        if !v.is_empty() && v != "0" {
            set_enabled(true);
        }
    }
    if let Ok(v) = std::env::var("BMBE_VERBOSE") {
        if let Ok(n) = v.trim().parse::<u8>() {
            ensure_verbosity(n);
        }
    }
}

/// The trace output path: `BMBE_TRACE_OUT`, defaulting to `trace.json`.
pub fn trace_out_path() -> String {
    std::env::var("BMBE_TRACE_OUT").unwrap_or_else(|_| "trace.json".to_string())
}

/// Derives a sibling output path from a `.json` trace path by swapping the
/// suffix (`trace.json` → `trace.flight.json` for suffix `"flight.json"`,
/// `trace.json` → `trace.jsonl` for suffix `"jsonl"`). Paths without a
/// `.json` suffix get `.{suffix}` appended.
pub fn sibling_out_path(trace_out: &str, suffix: &str) -> String {
    match trace_out.strip_suffix(".json") {
        Some(stem) => format!("{stem}.{suffix}"),
        None => format!("{trace_out}.{suffix}"),
    }
}

/// Nanoseconds since the process-wide trace epoch (the first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Wall-clock nanoseconds since the Unix epoch — the "wall phase" stamped
/// into disk-cache provenance so entries from different processes order.
pub fn wall_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

// ---------------------------------------------------------------------------
// Run identity
// ---------------------------------------------------------------------------

/// This process's run id (0 is never handed out). Lazily seeded on first
/// read; [`set_run_id`] overrides it (tests, coordinated fleets).
static RUN_ID: AtomicU64 = AtomicU64::new(0);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fleet-correlation id of this process's run. Seeded once per process
/// from `BMBE_RUN_ID` (hex) when set, otherwise mixed from the pid and the
/// wall clock; every trace stream and disk-cache entry this process
/// produces carries it.
pub fn run_id() -> u64 {
    let v = RUN_ID.load(Ordering::Relaxed);
    if v != 0 {
        return v;
    }
    let seeded = std::env::var("BMBE_RUN_ID")
        .ok()
        .and_then(|s| u64::from_str_radix(s.trim().trim_start_matches("0x"), 16).ok())
        .filter(|&id| id != 0)
        .unwrap_or_else(|| {
            let mix = splitmix64((std::process::id() as u64) ^ splitmix64(wall_ns()));
            if mix == 0 {
                1
            } else {
                mix
            }
        });
    match RUN_ID.compare_exchange(0, seeded, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => seeded,
        Err(current) => current,
    }
}

/// The run id rendered the way every exporter prints it: 16 lowercase hex
/// digits.
pub fn run_id_hex() -> String {
    format!("{:016x}", run_id())
}

/// Overrides the run id (0 is coerced to 1 so "unset" stays unambiguous).
/// Tests use this to make two in-process "fleet runs" distinguishable.
pub fn set_run_id(id: u64) {
    RUN_ID.store(if id == 0 { 1 } else { id }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Dynamic strings (annotation values)
// ---------------------------------------------------------------------------

fn strings() -> &'static Mutex<Vec<String>> {
    static STRINGS: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    STRINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Interns a dynamic string (an annotation value such as a design name or
/// digest), returning its id. Ids start at 1; the table only grows. The set
/// of annotated values per run is small (job labels, shape digests), so the
/// linear probe under the lock is fine off the hot path.
pub fn intern(s: &str) -> u32 {
    let mut table = strings().lock().expect("obs string lock");
    if let Some(ix) = table.iter().position(|t| t == s) {
        return (ix + 1) as u32;
    }
    table.push(s.to_string());
    table.len() as u32
}

/// A snapshot of the dynamic string table: id `i + 1` → string.
pub fn string_table() -> Vec<String> {
    strings().lock().expect("obs string lock").clone()
}

// ---------------------------------------------------------------------------
// Callsites
// ---------------------------------------------------------------------------

/// A static trace callsite: the name and category are `'static`, and the
/// numeric id is assigned once, on first hit, by interning into the global
/// callsite table (exporters resolve ids back to names through it).
pub struct Callsite {
    /// Span/event name (e.g. `"synth.compile"`).
    pub name: &'static str,
    /// Category, shown as the Chrome trace `cat` field.
    pub cat: &'static str,
    id: AtomicU32,
}

impl Callsite {
    /// Declares a callsite (use through the macros).
    pub const fn new(name: &'static str, cat: &'static str) -> Self {
        Callsite {
            name,
            cat,
            id: AtomicU32::new(0),
        }
    }

    /// The interned id (registering on first use). Ids start at 1; 0 means
    /// "not yet registered".
    pub fn id(&'static self) -> u32 {
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let mut table = callsites().lock().expect("obs callsite lock");
        // Re-check under the lock (two threads can race to register).
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        table.push((self.name, self.cat));
        let id = table.len() as u32;
        self.id.store(id, Ordering::Relaxed);
        id
    }
}

fn callsites() -> &'static Mutex<Vec<(&'static str, &'static str)>> {
    static CALLSITES: OnceLock<Mutex<Vec<(&'static str, &'static str)>>> = OnceLock::new();
    CALLSITES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Resolves every registered callsite id (index `id - 1`) to
/// `(name, category)`.
pub fn callsite_table() -> Vec<(&'static str, &'static str)> {
    callsites().lock().expect("obs callsite lock").clone()
}

// ---------------------------------------------------------------------------
// Thread state: ring handle and span stack
// ---------------------------------------------------------------------------

thread_local! {
    static BUFFER: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn with_buffer(f: impl FnOnce(&ThreadBuffer)) {
    BUFFER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(ring::register_thread);
        f(buf);
    });
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Id of the innermost span open on the current thread (0 = none). Capture
/// this before a fan-out and hand it to [`enter_with_parent`] so worker
/// spans nest under the dispatching span instead of becoming per-thread
/// roots.
pub fn current_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

// ---------------------------------------------------------------------------
// Spans and events
// ---------------------------------------------------------------------------

/// An open span; closing happens on drop. Constructed by [`enter`] /
/// [`enter_with_parent`] (usually via the [`span!`] macro).
pub struct SpanGuard {
    /// `None` on the disabled fast path — drop is then a no-op.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    cs: &'static Callsite,
    id: u64,
}

/// Opens a span at `cs`, parented on the innermost open span of this
/// thread.
#[inline]
pub fn enter(cs: &'static Callsite) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    enter_slow(cs, current_span())
}

/// Opens a span with an explicit parent span id (0 = root) — the
/// cross-thread variant for fan-out workers.
#[inline]
pub fn enter_with_parent(cs: &'static Callsite, parent: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    enter_slow(cs, parent)
}

fn enter_slow(cs: &'static Callsite, parent: u64) -> SpanGuard {
    let id = next_span_id();
    let rec = Record {
        kind: RecordKind::Open,
        callsite: cs.id(),
        span: id,
        parent,
        t_ns: now_ns(),
        value: 0,
    };
    with_buffer(|b| b.push(rec));
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        live: Some(LiveSpan { cs, id }),
    }
}

impl SpanGuard {
    /// The span id (0 on the disabled fast path).
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Scoped guards close LIFO; a mismatch means a guard was held
            // across a scope boundary — drop down to it so the stack heals.
            while let Some(top) = s.pop() {
                if top == live.id {
                    break;
                }
            }
        });
        if enabled() {
            let rec = Record {
                kind: RecordKind::Close,
                callsite: live.cs.id(),
                span: live.id,
                parent: 0,
                t_ns: now_ns(),
                value: 0,
            };
            with_buffer(|b| b.push(rec));
        }
    }
}

/// Records an instantaneous event with a numeric payload (no-op when
/// tracing is disabled). Use via [`event!`].
#[inline]
pub fn instant(cs: &'static Callsite, value: i64) {
    if !enabled() {
        return;
    }
    let rec = Record {
        kind: RecordKind::Instant,
        callsite: cs.id(),
        span: current_span(),
        parent: 0,
        t_ns: now_ns(),
        value,
    };
    with_buffer(|b| b.push(rec));
}

/// Records a signed counter delta (no-op when tracing is disabled). Use
/// via [`trace_counter!`].
#[inline]
pub fn count(cs: &'static Callsite, delta: i64) {
    if !enabled() {
        return;
    }
    let rec = Record {
        kind: RecordKind::Counter,
        callsite: cs.id(),
        span: 0,
        parent: 0,
        t_ns: now_ns(),
        value: delta,
    };
    with_buffer(|b| b.push(rec));
}

/// Attaches a numeric annotation to the innermost open span of this thread
/// (no-op when tracing is disabled or no span is open). Use via
/// [`annotate_num!`].
#[inline]
pub fn annotate_num(cs: &'static Callsite, value: i64) {
    if !enabled() {
        return;
    }
    let span = current_span();
    if span == 0 {
        return;
    }
    let rec = Record {
        kind: RecordKind::AnnotateNum,
        callsite: cs.id(),
        span,
        parent: 0,
        t_ns: now_ns(),
        value,
    };
    with_buffer(|b| b.push(rec));
}

/// Attaches a string annotation (interned) to the innermost open span of
/// this thread (no-op when tracing is disabled or no span is open). Use via
/// [`annotate_str!`].
#[inline]
pub fn annotate_str(cs: &'static Callsite, value: &str) {
    if !enabled() {
        return;
    }
    let span = current_span();
    if span == 0 {
        return;
    }
    let rec = Record {
        kind: RecordKind::AnnotateStr,
        callsite: cs.id(),
        span,
        parent: 0,
        t_ns: now_ns(),
        value: intern(value) as i64,
    };
    with_buffer(|b| b.push(rec));
}

/// Drains every thread's ring into one [`export::Trace`] (records sorted by
/// timestamp, callsite table attached, run id and dynamic strings stamped
/// for the self-describing exporters). Call from the collecting thread
/// after the traced work finishes.
pub fn flush() -> export::Trace {
    let drained = ring::drain_all();
    let mut trace = export::Trace::from_drained(drained, callsite_table());
    trace.run = run_id();
    trace.strings = string_table();
    trace
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Opens a span at a static callsite: `let _g = span!("name")` or
/// `span!("name", "category")`. The guard closes the span when dropped.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span!($name, "")
    };
    ($name:expr, $cat:expr) => {{
        static CS: $crate::Callsite = $crate::Callsite::new($name, $cat);
        $crate::enter(&CS)
    }};
}

/// Opens a span under an explicit parent span id (for fan-out workers):
/// `let _g = span_with_parent!("name", parent_id)`.
#[macro_export]
macro_rules! span_with_parent {
    ($name:expr, $parent:expr) => {
        $crate::span_with_parent!($name, "", $parent)
    };
    ($name:expr, $cat:expr, $parent:expr) => {{
        static CS: $crate::Callsite = $crate::Callsite::new($name, $cat);
        $crate::enter_with_parent(&CS, $parent)
    }};
}

/// Records an instantaneous event: `event!("name")` or
/// `event!("name", value)` with an `i64` payload, evaluated only while
/// tracing is on.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::event!($name, 0)
    };
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static CS: $crate::Callsite = $crate::Callsite::new($name, "");
            $crate::instant(&CS, $value as i64)
        }
    }};
}

/// Attaches a numeric annotation to the innermost open span:
/// `annotate_num!("shape.digest", digest)`. The name is the attribute key;
/// the value, evaluated only while tracing is on, travels with the span
/// through export and the analyzer.
#[macro_export]
macro_rules! annotate_num {
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static CS: $crate::Callsite = $crate::Callsite::new($name, "annot");
            $crate::annotate_num(&CS, $value as i64)
        }
    }};
}

/// Attaches a string annotation to the innermost open span:
/// `annotate_str!("job.design", design_name)`, evaluated only while
/// tracing is on.
#[macro_export]
macro_rules! annotate_str {
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static CS: $crate::Callsite = $crate::Callsite::new($name, "annot");
            $crate::annotate_str(&CS, $value)
        }
    }};
}

/// Adds a signed delta to the count `name`: `trace_counter!("cache.hits",
/// 3)`. The count is a trace record, written only while tracing is on; the
/// delta expression is not evaluated otherwise, so a disabled site costs
/// the one atomic load of a disabled [`span!`].
#[macro_export]
macro_rules! trace_counter {
    ($name:expr, $delta:expr) => {{
        if $crate::enabled() {
            static CS: $crate::Callsite = $crate::Callsite::new($name, "counter");
            $crate::count(&CS, $delta as i64);
        }
    }};
}

/// Verbose logging to stderr, gated on the global verbosity level:
/// `vlog!(1, "formatted {}", like_eprintln)`. Level 0 messages always
/// print.
#[macro_export]
macro_rules! vlog {
    ($level:expr, $($arg:tt)*) => {
        // checked_sub instead of `>=` so a literal level of 0 (always
        // print) doesn't trip the unused-comparison lint on unsigned
        // verbosity.
        if $crate::verbosity().checked_sub($level).is_some() {
            eprintln!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Tracing state (the enabled flag, rings, span-id counter) is
    /// process-global; tests that toggle or drain it serialize here.
    pub(crate) fn global_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_span_is_inert() {
        let _l = global_lock();
        set_enabled(false);
        let g = span!("test.disabled");
        assert_eq!(g.id(), 0);
        drop(g);
        let trace = flush();
        assert!(!trace
            .events
            .iter()
            .any(|s| trace.name(s.rec.callsite) == "test.disabled"));
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let _l = global_lock();
        set_enabled(true);
        let outer = span!("test.outer");
        let outer_id = outer.id();
        {
            let inner = span!("test.inner");
            assert!(inner.id() > 0);
            assert_eq!(current_span(), inner.id());
        }
        assert_eq!(current_span(), outer_id);
        drop(outer);
        set_enabled(false);
        let trace = flush();
        let mine: Vec<&Sample> = trace
            .events
            .iter()
            .filter(|s| trace.name(s.rec.callsite).starts_with("test."))
            .collect();
        // Open(outer), Open(inner), Close(inner), Close(outer).
        let kinds: Vec<RecordKind> = mine.iter().map(|s| s.rec.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RecordKind::Open,
                RecordKind::Open,
                RecordKind::Close,
                RecordKind::Close
            ]
        );
        assert_eq!(trace.name(mine[0].rec.callsite), "test.outer");
        assert_eq!(trace.name(mine[1].rec.callsite), "test.inner");
        assert_eq!(mine[1].rec.parent, mine[0].rec.span, "inner parents outer");
        assert_eq!(mine[2].rec.span, mine[1].rec.span, "inner closes first");
        export::validate(&trace).expect("balanced trace");
    }

    #[test]
    fn counters_record_signed_deltas_only_while_tracing() {
        let _l = global_lock();
        set_enabled(false);
        let mut evaluated = false;
        trace_counter!("test.count", {
            evaluated = true;
            5
        });
        assert!(
            !evaluated,
            "a disabled counter leaves its delta unevaluated"
        );
        set_enabled(true);
        trace_counter!("test.count", 5);
        trace_counter!("test.count", -2);
        set_enabled(false);
        let trace = flush();
        let deltas: Vec<(RecordKind, i64)> = trace
            .events
            .iter()
            .filter(|s| trace.name(s.rec.callsite) == "test.count")
            .map(|s| (s.rec.kind, s.rec.value))
            .collect();
        assert_eq!(
            deltas,
            vec![(RecordKind::Counter, 5), (RecordKind::Counter, -2)]
        );
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _l = global_lock();
        set_enabled(true);
        let root = span!("test.xthread.root");
        let parent = root.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                let g = span_with_parent!("test.xthread.child", parent);
                assert!(g.id() != 0);
            });
        });
        drop(root);
        set_enabled(false);
        let trace = flush();
        let child = trace
            .events
            .iter()
            .find(|s| {
                trace.name(s.rec.callsite) == "test.xthread.child" && s.rec.kind == RecordKind::Open
            })
            .expect("child open record");
        assert_eq!(child.rec.parent, parent);
    }
}
