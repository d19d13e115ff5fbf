//! Per-thread single-producer/single-consumer record rings.
//!
//! Every recording thread owns one [`ThreadBuffer`]: the thread pushes
//! [`Record`]s without taking any lock (a pair of monotonic atomic indices,
//! release/acquire ordering), and the collector drains from the other end.
//! Buffers register themselves in a global registry on first use; the
//! registry keeps them alive (via `Arc`) after their thread exits, so
//! records written by short-lived `bmbe-par` workers survive until the next
//! [`drain_all`]. A full ring drops the incoming record and counts the drop
//! — recording never blocks and never reallocates on the hot path.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What one trace record means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened (`span` carries the new span id, `parent` its parent).
    Open,
    /// A span closed (`span` carries the span id).
    Close,
    /// An instantaneous event (`value` is the callsite's payload).
    Instant,
    /// A counter delta (`value` is the signed amount added to the count
    /// the callsite names).
    Counter,
    /// A numeric annotation attached to a span (`span` is the annotated
    /// span id, `value` the number; the callsite names the attribute).
    AnnotateNum,
    /// A string annotation attached to a span (`span` is the annotated
    /// span id, `value` an id into the dynamic string table; the callsite
    /// names the attribute).
    AnnotateStr,
}

/// One fixed-size trace record. All payloads are numeric; the callsite id
/// resolves to the static name/category tables at export time.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Record kind.
    pub kind: RecordKind,
    /// Callsite id (see [`crate::Callsite`]); resolves name + category.
    pub callsite: u32,
    /// Span id for `Open`/`Close`, 0 otherwise.
    pub span: u64,
    /// Parent span id for `Open` (0 = root), 0 otherwise.
    pub parent: u64,
    /// Nanoseconds since the process trace epoch.
    pub t_ns: u64,
    /// Numeric payload (event value, counter delta).
    pub value: i64,
}

/// A drained record together with the lane (thread) that produced it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Recording lane: a small dense id assigned per recording thread,
    /// stable for the thread's lifetime (the `tid` of the Chrome export).
    pub lane: u32,
    /// The record.
    pub rec: Record,
}

/// Ring capacity in records. Power of two; at 48 bytes per record a lane
/// costs ~3 MiB, allocated only once a thread actually records.
const RING_CAPACITY: usize = 1 << 16;

/// One thread's SPSC ring.
pub struct ThreadBuffer {
    lane: u32,
    name: String,
    slots: Box<[UnsafeCell<Record>]>,
    /// Consumer index (monotonic, not wrapped).
    head: AtomicUsize,
    /// Producer index (monotonic, not wrapped).
    tail: AtomicUsize,
    /// Records dropped because the ring was full.
    dropped: AtomicU64,
}

// SAFETY: the producer (owning thread, via thread-local) only writes slots
// in `head..head+capacity` and publishes them with a release store of
// `tail`; the consumer (the collector, serialized by the registry lock)
// only reads slots below the acquired `tail` and retires them by storing
// `head`. No slot is ever accessed by both sides at once.
unsafe impl Sync for ThreadBuffer {}
unsafe impl Send for ThreadBuffer {}

impl ThreadBuffer {
    fn new(lane: u32, name: String) -> Self {
        let zero = Record {
            kind: RecordKind::Instant,
            callsite: 0,
            span: 0,
            parent: 0,
            t_ns: 0,
            value: 0,
        };
        ThreadBuffer {
            lane,
            name,
            slots: (0..RING_CAPACITY).map(|_| UnsafeCell::new(zero)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The lane id of this buffer.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Pushes one record; drops (and counts) it if the ring is full. Only
    /// the owning thread may call this.
    pub fn push(&self, rec: Record) {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Relaxed);
        if tail - head >= RING_CAPACITY {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: this slot is past every index the consumer may read
        // (`>= tail` is unpublished) and the producer is single-threaded.
        unsafe { *self.slots[tail % RING_CAPACITY].get() = rec };
        self.tail.store(tail + 1, Ordering::Release);
    }

    /// Drains every published record into `out`. Only the collector (under
    /// the registry lock) may call this.
    fn drain_into(&self, out: &mut Vec<Sample>) {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Relaxed);
        for i in head..tail {
            // SAFETY: `i < tail` was published by the producer's release
            // store, and the producer will not reuse the slot until `head`
            // moves past it.
            let rec = unsafe { *self.slots[i % RING_CAPACITY].get() };
            out.push(Sample {
                lane: self.lane,
                rec,
            });
        }
        self.head.store(tail, Ordering::Release);
    }
}

struct Registry {
    buffers: Vec<Arc<ThreadBuffer>>,
    next_lane: u32,
    /// Drops accumulated from buffers already pruned from the registry.
    retired_drops: u64,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            buffers: Vec::new(),
            next_lane: 0,
            retired_drops: 0,
        })
    })
}

/// Registers a new lane for the calling thread. Called once per thread on
/// its first record (from the thread-local), never on the fast path.
pub fn register_thread() -> Arc<ThreadBuffer> {
    let name = std::thread::current()
        .name()
        .unwrap_or("worker")
        .to_string();
    let mut reg = registry().lock().expect("obs registry lock");
    let lane = reg.next_lane;
    reg.next_lane += 1;
    let buf = Arc::new(ThreadBuffer::new(lane, name));
    reg.buffers.push(buf.clone());
    buf
}

/// Everything drained from the rings: samples (unordered across lanes),
/// lane names for the exporters, and the total drop count.
#[derive(Debug, Default)]
pub struct Drained {
    /// Drained records with their lanes.
    pub samples: Vec<Sample>,
    /// `(lane, thread name)` for every lane that has ever recorded.
    pub lanes: Vec<(u32, String)>,
    /// Records dropped to full rings since the previous drain.
    pub dropped: u64,
}

/// Drains every lane's ring. Buffers whose thread has exited (no other
/// strong reference) are pruned after draining so the registry does not
/// grow with every short-lived worker fan-out.
pub fn drain_all() -> Drained {
    let mut reg = registry().lock().expect("obs registry lock");
    let mut out = Drained {
        dropped: reg.retired_drops,
        ..Drained::default()
    };
    reg.retired_drops = 0;
    for buf in &reg.buffers {
        buf.drain_into(&mut out.samples);
        out.lanes.push((buf.lane, buf.name.clone()));
        out.dropped += buf.dropped.swap(0, Ordering::Relaxed);
    }
    // A buffer is dead once only the registry holds it *and* it is empty
    // (we just drained it); its drop count was folded in above.
    reg.buffers.retain(|buf| Arc::strong_count(buf) > 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_drain_roundtrips() {
        let _l = crate::tests::global_lock();
        let buf = register_thread();
        for i in 0..100 {
            buf.push(Record {
                kind: RecordKind::Instant,
                callsite: 7,
                span: 0,
                parent: 0,
                t_ns: i,
                value: i as i64,
            });
        }
        let drained = drain_all();
        let mine: Vec<_> = drained
            .samples
            .iter()
            .filter(|s| s.lane == buf.lane())
            .collect();
        assert_eq!(mine.len(), 100);
        assert_eq!(mine[99].rec.value, 99);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let _l = crate::tests::global_lock();
        let buf = register_thread();
        let rec = Record {
            kind: RecordKind::Instant,
            callsite: 1,
            span: 0,
            parent: 0,
            t_ns: 0,
            value: 0,
        };
        for _ in 0..RING_CAPACITY + 10 {
            buf.push(rec);
        }
        let drained = drain_all();
        let mine = drained
            .samples
            .iter()
            .filter(|s| s.lane == buf.lane())
            .count();
        assert_eq!(mine, RING_CAPACITY);
        assert!(drained.dropped >= 10);
    }
}
