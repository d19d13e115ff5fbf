//! Load generation, host-speed normalization and the statistics the
//! workloads report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Worker threads the benchmark may use: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `job` over `0..n` as a closed loop of `workers` clients in this
/// process: each client takes the next index only after its previous job
/// returned. `job` gets the index and the client's number. Results come
/// back in index order. One worker runs on the calling thread.
pub fn closed_loop<T: Send>(
    n: usize,
    workers: usize,
    job: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    if workers <= 1 {
        return (0..n).map(|i| job(i, 0)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let done: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next, job) = (&next, &job);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, job(i, w)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    for (i, t) in done.into_iter().flatten() {
        slots[i] = Some(t);
    }
    slots
        .into_iter()
        .map(|t| t.expect("closed loop ran every index"))
        .collect()
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Seconds the host-speed probe takes on the 2-core reference host when
/// nothing else slows it down.
pub const REF_PROBE_S: f64 = 2.0e-4;

/// The host-speed probe: a fixed piece of work in the benchmark's own code
/// (formatting, sorting and a `BTreeMap` of short strings, the allocation-
/// and branch-heavy kind of work the flow does), about 0.2 ms. Returns its
/// seconds.
fn host_probe() -> f64 {
    let (s, total) = timed(|| {
        let mut v: Vec<String> = (0..240u32)
            .map(|i| format!("c{}_{}", (i * 7919) % 3001, i % 17))
            .collect();
        v.sort();
        let mut m: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for (i, k) in v.iter().enumerate() {
            m.entry(k.clone()).or_default().push(i as u32);
        }
        m.clone().values().map(Vec::len).sum::<usize>()
    });
    std::hint::black_box(total);
    s
}

/// How many times slower than the reference host this thread runs the
/// probe right now. The host is shared: its speed shifts by up to 1.6×
/// for seconds at a time, and the probe slows with it.
pub fn slowdown() -> f64 {
    host_probe() / REF_PROBE_S
}

/// `f`'s seconds at reference-host speed (its host seconds divided by the
/// [`slowdown`] measured just before it on the same thread, which `f` also
/// gets), with its host seconds and its result.
pub fn timed_ref<T>(f: impl FnOnce(f64) -> T) -> (f64, f64, T) {
    let slow = slowdown();
    let (s, r) = timed(|| f(slow));
    (s / slow, s, r)
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
