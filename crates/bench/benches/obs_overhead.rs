//! Pins the cost of a *disabled* trace callsite — the zero-overhead claim
//! `bmbe-obs` makes: with `BMBE_TRACE` unset, a `span!`, an `event!` and a
//! `trace_counter!` are each one relaxed atomic load. The loops below hit
//! a callsite a million times per iteration so the per-callsite number is
//! readable straight off the printed median (median / 1e6).
//! `tests/obs_overhead.rs` turns the same measurement into the <2% budget
//! assertion against a real flow run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const CALLS: usize = 1_000_000;

fn disabled_callsites(c: &mut Criterion) {
    bmbe_obs::set_enabled(false);
    let mut group = c.benchmark_group("obs_disabled");
    group.sample_size(20);
    group.bench_function("span_1m", |b| {
        b.iter(|| {
            for i in 0..CALLS {
                let _g = bmbe_obs::span!("bench.disabled_span");
                black_box(i);
            }
        })
    });
    group.bench_function("event_1m", |b| {
        b.iter(|| {
            for i in 0..CALLS {
                bmbe_obs::event!("bench.disabled_event", i as i64);
            }
        })
    });
    group.bench_function("counter_1m", |b| {
        b.iter(|| {
            for i in 0..CALLS {
                bmbe_obs::trace_counter!("bench.disabled_counter", 1);
                black_box(i);
            }
        })
    });
    group.finish();
}

fn enabled_span(c: &mut Criterion) {
    // The enabled side, for contrast: timestamped records into the
    // per-thread ring. Drained after each batch so the ring never saturates
    // and the number stays a recording cost, not a drop count.
    let mut group = c.benchmark_group("obs_enabled");
    group.sample_size(10);
    group.bench_function("span_100k", |b| {
        b.iter(|| {
            bmbe_obs::set_enabled(true);
            for i in 0..100_000 {
                let _g = bmbe_obs::span!("bench.enabled_span");
                black_box(i);
            }
            bmbe_obs::set_enabled(false);
            black_box(bmbe_obs::flush().events.len())
        })
    });
    group.finish();
}

criterion_group!(benches, disabled_callsites, enabled_span);
criterion_main!(benches);
