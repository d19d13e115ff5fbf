//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Metrics are identified by a static name and registered once, on first
//! use, through the `counter!`/`gauge!`/`histogram!` macros (each macro
//! expansion caches its typed handle in a `OnceLock`, so steady-state cost
//! is the atomic op itself). Cells are leaked `'static` atomics: the set of
//! distinct metrics is small and fixed by the callsites in the code, so the
//! leak is bounded and buys handle copies that are plain pointer pairs.

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A metric name was already registered with a different type (say,
/// `counter!("x")` at one callsite and `gauge!("x")` at another).
///
/// Registration never panics on this: the infallible `register` entry
/// points log the error once via [`crate::vlog!`] and hand back a detached
/// cell (working, but excluded from [`snapshot`]), while `try_register`
/// surfaces it to callers that want to handle it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryError {
    /// The colliding metric name.
    pub name: &'static str,
    /// The type this registration asked for.
    pub requested: &'static str,
    /// The type the name is already registered with.
    pub registered: &'static str,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "metric {:?} already registered as a {}; this {} registration gets a detached cell",
            self.name, self.registered, self.requested
        )
    }
}

impl std::error::Error for RegistryError {}

fn report(e: RegistryError) {
    crate::vlog!(0, "bmbe-obs: {e}");
}

/// A monotonically increasing counter.
#[derive(Clone, Copy)]
pub struct Counter {
    cell: &'static AtomicU64,
}

impl Counter {
    /// Registers (or finds) the counter `name`. On a name/type collision
    /// the error is logged and a detached (unshared, unsnapshotted) cell is
    /// returned — metrics must never take the instrumented program down.
    pub fn register(name: &'static str) -> Counter {
        Counter::try_register(name).unwrap_or_else(|e| {
            report(e);
            Counter {
                cell: leak(AtomicU64::new(0)),
            }
        })
    }

    /// Registers (or finds) the counter `name`.
    ///
    /// # Errors
    ///
    /// [`RegistryError`] when `name` is already registered as a different
    /// metric type.
    pub fn try_register(name: &'static str) -> Result<Counter, RegistryError> {
        match find_or_insert(name, || Slot::Counter(leak(AtomicU64::new(0)))) {
            Slot::Counter(cell) => Ok(Counter { cell }),
            other => Err(RegistryError {
                name,
                requested: "counter",
                registered: other.kind(),
            }),
        }
    }

    /// Adds to the counter and returns the new running total.
    pub fn add(&self, n: u64) -> u64 {
        self.cell.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Adds one and returns the new running total.
    pub fn incr(&self) -> u64 {
        self.add(1)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Clone, Copy)]
pub struct Gauge {
    cell: &'static AtomicI64,
}

impl Gauge {
    /// Registers (or finds) the gauge `name`. On a name/type collision the
    /// error is logged and a detached cell is returned (see
    /// [`Counter::register`]).
    pub fn register(name: &'static str) -> Gauge {
        Gauge::try_register(name).unwrap_or_else(|e| {
            report(e);
            Gauge {
                cell: leak(AtomicI64::new(0)),
            }
        })
    }

    /// Registers (or finds) the gauge `name`.
    ///
    /// # Errors
    ///
    /// [`RegistryError`] when `name` is already registered as a different
    /// metric type.
    pub fn try_register(name: &'static str) -> Result<Gauge, RegistryError> {
        match find_or_insert(name, || Slot::Gauge(leak(AtomicI64::new(0)))) {
            Slot::Gauge(cell) => Ok(Gauge { cell }),
            other => Err(RegistryError {
                name,
                requested: "gauge",
                registered: other.kind(),
            }),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta and returns the new value.
    pub fn add(&self, delta: i64) -> i64 {
        self.cell.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed, caller-supplied bucket upper bounds.
///
/// `bounds` are inclusive upper edges in ascending order; one implicit
/// overflow bucket catches everything above the last edge. Count and sum
/// are tracked alongside the buckets.
#[derive(Clone, Copy)]
pub struct Histogram {
    bounds: &'static [u64],
    /// `bounds.len() + 1` cells; last is the overflow bucket.
    buckets: &'static [AtomicU64],
    count: &'static AtomicU64,
    sum: &'static AtomicU64,
}

impl Histogram {
    /// Registers (or finds) the histogram `name` with the given bucket
    /// upper bounds (ascending). The bounds of an already-registered
    /// histogram win; callsites for one name must agree. On a name/type
    /// collision the error is logged and a detached cell is returned (see
    /// [`Counter::register`]).
    pub fn register(name: &'static str, bounds: &'static [u64]) -> Histogram {
        Histogram::try_register(name, bounds).unwrap_or_else(|e| {
            report(e);
            Histogram::detached(bounds)
        })
    }

    /// Registers (or finds) the histogram `name`.
    ///
    /// # Errors
    ///
    /// [`RegistryError`] when `name` is already registered as a different
    /// metric type.
    pub fn try_register(
        name: &'static str,
        bounds: &'static [u64],
    ) -> Result<Histogram, RegistryError> {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        let made = find_or_insert(name, || Slot::Histogram(Histogram::detached(bounds)));
        match made {
            Slot::Histogram(h) => Ok(h),
            other => Err(RegistryError {
                name,
                requested: "histogram",
                registered: other.kind(),
            }),
        }
    }

    fn detached(bounds: &'static [u64]) -> Histogram {
        let buckets: Vec<AtomicU64> = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets: Box::leak(buckets.into_boxed_slice()),
            count: leak(AtomicU64::new(0)),
            sum: leak(AtomicU64::new(0)),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let ix = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[ix].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (the last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The bucket upper bounds this histogram was registered with.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }
}

#[derive(Clone, Copy)]
enum Slot {
    Counter(&'static AtomicU64),
    Gauge(&'static AtomicI64),
    Histogram(Histogram),
}

impl Slot {
    fn kind(self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

fn leak<T>(v: T) -> &'static T {
    Box::leak(Box::new(v))
}

fn table() -> &'static Mutex<Vec<(&'static str, Slot)>> {
    static TABLE: OnceLock<Mutex<Vec<(&'static str, Slot)>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Locks the registry, shrugging off poison: the table is a `Vec` of
/// `Copy` pairs mutated only by `push`, so a panicking registrant cannot
/// leave it half-written, and the metrics layer must never add a second
/// panic on top of whatever killed that thread.
fn lock_table() -> std::sync::MutexGuard<'static, Vec<(&'static str, Slot)>> {
    match table().lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            table().clear_poison();
            poisoned.into_inner()
        }
    }
}

fn find_or_insert(name: &'static str, make: impl FnOnce() -> Slot) -> Slot {
    let mut t = lock_table();
    if let Some((_, slot)) = t.iter().find(|(n, _)| *n == name) {
        return *slot;
    }
    let slot = make();
    t.push((name, slot));
    slot
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone)]
pub enum MetricSnapshot {
    /// Counter total.
    Counter {
        /// Metric name.
        name: &'static str,
        /// Running total.
        value: u64,
    },
    /// Gauge value.
    Gauge {
        /// Metric name.
        name: &'static str,
        /// Last set value.
        value: i64,
    },
    /// Histogram state.
    Histogram {
        /// Metric name.
        name: &'static str,
        /// Bucket upper bounds.
        bounds: Vec<u64>,
        /// Per-bucket counts (last = overflow).
        buckets: Vec<u64>,
        /// Observation count.
        count: u64,
        /// Observation sum.
        sum: u64,
    },
}

/// Reads every registered metric, in registration order.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let t = lock_table();
    t.iter()
        .map(|(name, slot)| match slot {
            Slot::Counter(c) => MetricSnapshot::Counter {
                name,
                value: c.load(Ordering::Relaxed),
            },
            Slot::Gauge(g) => MetricSnapshot::Gauge {
                name,
                value: g.load(Ordering::Relaxed),
            },
            Slot::Histogram(h) => MetricSnapshot::Histogram {
                name,
                bounds: h.bounds.to_vec(),
                buckets: h.bucket_counts(),
                count: h.count(),
                sum: h.sum(),
            },
        })
        .collect()
}

/// Renders the snapshot as one JSON object `{"name": ...}` per metric,
/// suitable for a machine-readable summary section.
pub fn snapshot_json() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{");
    for (i, m) in snapshot().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match m {
            MetricSnapshot::Counter { name, value } => {
                let _ = write!(out, "\"{name}\": {value}");
            }
            MetricSnapshot::Gauge { name, value } => {
                let _ = write!(out, "\"{name}\": {value}");
            }
            MetricSnapshot::Histogram {
                name,
                bounds,
                buckets,
                count,
                sum,
            } => {
                let _ = write!(
                    out,
                    "\"{name}\": {{\"count\": {count}, \"sum\": {sum}, \"bounds\": {bounds:?}, \
                     \"buckets\": {buckets:?}}}"
                );
            }
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_is_shared_by_name() {
        let a = Counter::register("test.counter.shared");
        let b = Counter::register("test.counter.shared");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
    }

    #[test]
    fn gauge_is_last_value_wins() {
        let g = Gauge::register("test.gauge");
        g.set(17);
        g.set(-4);
        assert_eq!(g.get(), -4);
    }

    #[test]
    fn histogram_buckets_observations() {
        static BOUNDS: [u64; 4] = [1, 10, 100, 1000];
        let h = Histogram::register("test.histogram", &BOUNDS);
        for v in [0, 1, 2, 10, 11, 100, 5000, 1000] {
            h.observe(v);
        }
        // <=1: {0,1}; <=10: {2,10}; <=100: {11,100}; <=1000: {1000}; over: {5000}
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 1, 1]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 0 + 1 + 2 + 10 + 11 + 100 + 5000 + 1000);
    }

    #[test]
    fn type_collision_reports_instead_of_panicking() {
        let c = Counter::register("test.collision");
        c.add(2);
        // Same name as a gauge: typed error from try_register…
        let err = Gauge::try_register("test.collision")
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            RegistryError {
                name: "test.collision",
                requested: "gauge",
                registered: "counter",
            }
        );
        // …and a working detached cell (no panic) from register.
        let g = Gauge::register("test.collision");
        g.set(7);
        assert_eq!(g.get(), 7);
        // The registered counter is untouched and still snapshotted as a
        // counter.
        assert_eq!(c.get(), 2);
        assert!(snapshot().iter().any(|m| matches!(
            m,
            MetricSnapshot::Counter {
                name: "test.collision",
                value: 2
            }
        )));
        static BOUNDS: [u64; 2] = [1, 2];
        assert!(Histogram::try_register("test.collision", &BOUNDS).is_err());
        Histogram::register("test.collision", &BOUNDS).observe(1);
    }

    #[test]
    fn registry_survives_a_poisoned_lock() {
        let c = Counter::register("test.poison.metrics");
        c.add(1);
        // Poison the table lock by panicking while holding it.
        let _ = std::panic::catch_unwind(|| {
            let _guard = table().lock().unwrap();
            panic!("poison the metrics table");
        });
        // Registration and snapshots still work.
        let again = Counter::register("test.poison.metrics");
        assert_eq!(again.get(), 1);
        assert!(!snapshot().is_empty());
    }

    #[test]
    fn snapshot_includes_registered_metrics() {
        let c = Counter::register("test.counter.snap");
        c.add(9);
        let snap = snapshot();
        assert!(snap.iter().any(|m| matches!(
            m,
            MetricSnapshot::Counter {
                name: "test.counter.snap",
                value: 9
            }
        )));
        let json = snapshot_json();
        assert!(json.contains("\"test.counter.snap\": 9"));
    }
}
