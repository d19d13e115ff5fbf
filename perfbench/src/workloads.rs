//! The three workloads, their set-up, checks and metrics.
//!
//! * `flow_single` — each design from source through `run_control_flow`
//!   with a private cache, one design after another, one thread inside the
//!   flow: synthesis dominates.
//! * `fleet_warm` — the same designs through `ShapeRegistry` +
//!   `flow_through_registry` on `nproc` job workers, over a fresh
//!   disk-backed cache that set-up filled with a cold fleet run: every
//!   shape is a disk hit and nothing is synthesized.
//! * `sim_check` — flows synthesized in set-up; the timed work is the
//!   event engine, the compiled engine and on-the-fly verification.
//!
//! The machine the benchmark runs on is shared, and its speed shifts by up
//! to 1.6× for seconds at a time. So every timed call is preceded by the
//! host-speed probe on the same thread and reported at reference-host speed
//! (see [`crate::pool::timed_ref`]), and a run reports each design's median
//! over its passes. Set-up runs on one thread for the same reason.

use crate::inputs::{design_set, front_end, Digest, Input};
use crate::pool::{
    closed_loop, median, nproc, peak_rss_mb, quantile, ratio, slowdown, timed, timed_ref,
};
use crate::replay::{replay_flow, FlowCounts};
use crate::simstep::{sim_step, SimBusy, SimCase, SimCounts, EVENT_VARIANTS};
use crate::spans::{analyse, Analysis, Span, Spans};
use crate::{Args, Metric, Outcome, DEFAULT_SEED, HELD_OUT_SEED};
use bmbe_flow::{
    flow_through_registry, run_control_flow, ControllerCache, DiskCache, FlowOptions, FlowResult,
    ShapeRegistry,
};
use bmbe_gates::Library;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// After each timed pass of `flow_single` and `fleet_warm`, one slice in
/// this many of the designs is simulated as the pass's output check, so
/// the check's samples spread over the whole run.
const CHECK_SLICES: usize = 4;

/// Threads inside `run_control_flow` on `flow_single`. One, because the
/// host-speed probe measures the thread it runs on: a flow spread over two
/// threads also waits on the other core, whose speed the probe does not see.
const FLOW_THREADS: usize = 1;

/// Where `fleet_warm` keeps its disk cache, relative to the working
/// directory (removed when the run ends).
const SCRATCH_DIR: &str = ".perfbench_tmp";

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut ctx = Ctx {
        failures: Failures::default(),
        info: BTreeMap::new(),
    };
    let partial = match args.workload.as_str() {
        "flow_single" => flow_single(args, &mut ctx),
        "fleet_warm" => {
            let dir = PathBuf::from(SCRATCH_DIR).join(format!("fleet-{}", std::process::id()));
            let r = fleet_warm(args, &mut ctx, &dir);
            // Best effort: a leftover directory only costs disk space.
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir(SCRATCH_DIR);
            r
        }
        "sim_check" => sim_check(args, &mut ctx),
        other => Err(format!(
            "unknown workload {other:?} (flow_single, fleet_warm, sim_check)"
        )),
    }?;
    Ok(ctx.finish(args, partial))
}

/// Run-wide state: failures and the info line.
struct Ctx {
    failures: Failures,
    info: BTreeMap<&'static str, String>,
}

/// What a workload returns before the run-wide fields are added.
struct Partial {
    attempted: usize,
    checks_ok: bool,
    metrics: Vec<Metric>,
}

impl Ctx {
    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.insert(key, value.to_string());
    }

    fn finish(mut self, args: &Args, p: Partial) -> Outcome {
        let failed = self.failures.count.min(p.attempted);
        self.note("workload", format!("\"{}\"", args.workload));
        self.note("trace", u8::from(args.trace));
        self.note("seed", args.seed);
        self.note("default_seed", DEFAULT_SEED);
        self.note("held_out_seed", HELD_OUT_SEED);
        self.note("nproc", nproc());
        self.note(
            "failed_frac",
            ratio(failed as f64, p.attempted.max(1) as f64),
        );
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{\"info\": {{{}}}}}", fields.join(", "));
        Outcome {
            correct: p.checks_ok && failed == 0,
            attempted: p.attempted,
            failed,
            metrics: p.metrics,
        }
    }
}

/// Failed design executions; each distinct failure is printed once.
#[derive(Default)]
struct Failures {
    count: usize,
    printed: HashSet<String>,
}

impl Failures {
    fn add(&mut self, input: &Input, detail: &str) {
        self.count += 1;
        let line = format!("FAIL {}: {detail}", input.describe());
        if self.printed.insert(line.clone()) {
            println!("{line}");
        }
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

// ------------------------------------------------------------------ set-up

/// What every workload sets up: the design set, the cell library, and each
/// design's simulation case (scenarios, obligations, materialized verdicts).
struct Bench {
    inputs: Vec<Input>,
    library: Library,
    cases: Vec<Result<SimCase, String>>,
}

/// Runs `job` over `0..n` on this thread, each call timed at
/// reference-host speed. Returns the summed reference seconds and the
/// results.
fn ref_loop<T>(n: usize, job: impl Fn(usize) -> T) -> (f64, Vec<T>) {
    let mut s = 0.0;
    let results = (0..n)
        .map(|i| {
            let (t, _, r) = timed_ref(|_| job(i));
            s += t;
            r
        })
        .collect();
    (s, results)
}

/// Builds the bench; returns it with its set-up seconds at reference-host
/// speed.
fn set_up(seed: u64) -> Result<(f64, Bench), String> {
    let (inputs_s, _, inputs) = timed_ref(|_| design_set(seed));
    let inputs = inputs?;
    let (cases_s, cases) = ref_loop(inputs.len(), |i| {
        SimCase::new(&inputs[i]).map_err(|e| format!("sim set-up: {e}"))
    });
    let (library_s, _, library) = timed_ref(|_| Library::cmos035());
    let bench = Bench {
        inputs,
        library,
        cases,
    };
    Ok((inputs_s + cases_s + library_s, bench))
}

/// Runs `set_up` (three times in an untraced run); returns the median of
/// the seconds it reports and the last result, after recording its failed
/// cases.
fn repeated_setup<T>(
    args: &Args,
    ctx: &mut Ctx,
    mut set_up: impl FnMut() -> Result<(f64, Bench, T), String>,
) -> Result<(f64, Bench, T), String> {
    let reps = if args.trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (s, bench, extra) = set_up()?;
        times.push(s);
        last = Some((bench, extra));
    }
    let (bench, extra) = last.expect("at least one set-up ran");
    for (c, input) in bench.cases.iter().zip(&bench.inputs) {
        if let Err(e) = c {
            ctx.failures.add(input, e);
        }
    }
    ctx.note("designs", bench.inputs.len());
    Ok((median(&times), bench, extra))
}

// ------------------------------------------------------------------ timing

/// Pass rates and per-design times of the timed passes.
#[derive(Default)]
struct Timing {
    workers: usize,
    /// Designs per host second of each pass.
    pass_rates: Vec<f64>,
    /// Host seconds over reference seconds of each pass.
    slowdowns: Vec<f64>,
    /// Per design, its reference milliseconds on each pass.
    ref_ms: Vec<Vec<f64>>,
    busy_ratio: Vec<f64>,
}

impl Timing {
    fn record(&mut self, wall: f64, host_s: &[f64], ref_s: &[f64], workers: usize) {
        self.workers = workers;
        self.pass_rates.push(host_s.len() as f64 / wall);
        let host: f64 = host_s.iter().sum();
        self.slowdowns.push(ratio(host, ref_s.iter().sum()));
        self.busy_ratio.push(host / (wall * workers as f64));
        self.ref_ms.resize(ref_s.len(), Vec::new());
        for (d, &s) in self.ref_ms.iter_mut().zip(ref_s) {
            d.push(s * 1e3);
        }
    }

    fn attempted(&self) -> usize {
        self.pass_rates.len() * self.ref_ms.len()
    }

    /// The run's metrics, from each design's median reference time over
    /// the passes. Throughput is a pass at those times: the designs over
    /// their summed times, divided among the clients.
    fn metrics(&self, ctx: &mut Ctx, setup_s: f64) -> Vec<Metric> {
        ctx.note("passes", self.pass_rates.len());
        ctx.note("samples", self.attempted());
        ctx.note("host_pass_rate_median", median(&self.pass_rates));
        ctx.note("host_slowdown_median", median(&self.slowdowns));
        let ms: Vec<f64> = self.ref_ms.iter().map(|d| median(d)).collect();
        let pass_s = ms.iter().sum::<f64>() * 1e-3 / self.workers.max(1) as f64;
        vec![
            metric("designs_per_s", ratio(ms.len() as f64, pass_s), "1/s"),
            metric("design_p50_ms", quantile(&ms, 0.5), "ms"),
            metric("design_p95_ms", quantile(&ms, 0.95), "ms"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    }
}

/// One pass: its wall time, and each design's reference seconds, host
/// seconds and result.
type Pass<T> = (f64, Vec<(f64, f64, Result<T, String>)>);

/// Runs `job` over the `n` designs on `workers` clients, timing each call
/// at reference-host speed. `job` gets the design and the host's slowdown.
fn time_pass<T: Send>(
    n: usize,
    workers: usize,
    job: impl Fn(usize, f64) -> Result<T, String> + Sync,
) -> Pass<T> {
    timed(|| closed_loop(n, workers, |i, _| timed_ref(|slow| job(i, slow))))
}

/// Repeats `pass` until `seconds` have elapsed (at least once); `after`
/// gets each pass's index and results, untimed.
fn timed_loop<T>(
    seconds: f64,
    workers: usize,
    mut pass: impl FnMut() -> Result<Pass<T>, String>,
    mut after: impl FnMut(usize, Vec<Result<T, String>>),
) -> Result<Timing, String> {
    let start = Instant::now();
    let mut timing = Timing::default();
    while timing.pass_rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (wall, results) = pass()?;
        let ref_s: Vec<f64> = results.iter().map(|r| r.0).collect();
        let host_s: Vec<f64> = results.iter().map(|r| r.1).collect();
        timing.record(wall, &host_s, &ref_s, workers);
        let results = results.into_iter().map(|(_, _, r)| r).collect();
        after(timing.pass_rates.len() - 1, results);
    }
    Ok(timing)
}

// ------------------------------------------------------------------ checks

/// Per design, the flow digest every pass must reproduce.
struct Expect(Vec<Option<Digest>>);

impl Expect {
    fn new(n: usize) -> Expect {
        Expect(vec![None; n])
    }

    fn check(&mut self, i: usize, got: Digest) -> Result<(), String> {
        match &self.0[i] {
            None => {
                self.0[i] = Some(got);
                Ok(())
            }
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!("digest {got:?} differs from {want:?}")),
        }
    }

    /// Table 3's area column and product count, summed over the designs.
    fn quality(&self) -> Vec<Metric> {
        let ok = || self.0.iter().flatten();
        vec![
            metric("control_area_um2", ok().map(Digest::area).sum(), "um2"),
            metric("products", ok().map(|d| d.products() as f64).sum(), "count"),
        ]
    }
}

/// Per design, the simulation step's counts and behaviour digest (which
/// must repeat) and its busy times on each run.
struct SimRuns(Vec<Option<(SimCounts, u64, Vec<SimBusy>)>>);

impl SimRuns {
    fn new(n: usize) -> SimRuns {
        SimRuns(vec![None; n])
    }

    fn record(&mut self, i: usize, c: SimCounts, b: SimBusy, digest: u64) -> Result<(), String> {
        match &mut self.0[i] {
            slot @ None => *slot = Some((c, digest, vec![b])),
            Some((want, d, runs)) => {
                if *want != c || *d != digest {
                    return Err("simulated behaviour changed between runs".into());
                }
                runs.push(b);
            }
        }
        Ok(())
    }

    /// Summed counts, and summed per-design median busy times.
    fn totals(&self) -> (SimCounts, SimBusy) {
        let mut counts = SimCounts::default();
        let mut busy = SimBusy::default();
        for (c, _, runs) in self.0.iter().flatten() {
            counts.add(c);
            let med = |f: fn(&SimBusy) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
            busy.event_s += med(|b| b.event_s);
            busy.compiled_s += med(|b| b.compiled_s);
            busy.verify_s += med(|b| b.verify_s);
        }
        (counts, busy)
    }

    /// `sim_time_ns`, and each engine's work over its summed busy time.
    fn metrics(&self) -> Vec<Metric> {
        let (c, b) = self.totals();
        vec![
            metric("sim_time_ns", c.sim_time_ns, "ns"),
            metric("sim_events_per_s", ratio(c.events as f64, b.event_s), "1/s"),
            metric(
                "sim_lanes_per_s",
                ratio(c.lanes as f64, b.compiled_s),
                "1/s",
            ),
        ]
    }
}

type StepResult = Result<(SimCounts, SimBusy, u64), String>;

fn run_sim_step(
    bench: &Bench,
    i: usize,
    flow: &FlowResult,
    slow: f64,
    sp: &mut Spans,
) -> StepResult {
    let case = bench.cases[i].as_ref()?;
    sim_step(case, flow, &bench.inputs[i], slow, sp)
}

/// The output check of `flow_single` and `fleet_warm`: each pass's digests
/// against the first pass's, then the simulation step on one slice of the
/// pass's flows. Designs no slice reached are simulated by
/// [`FlowCheck::finish`].
struct FlowCheck {
    expect: Expect,
    sim: SimRuns,
    pending: Vec<Option<FlowResult>>,
    failures: Vec<(usize, String)>,
}

impl FlowCheck {
    fn new(n: usize) -> FlowCheck {
        FlowCheck {
            expect: Expect::new(n),
            sim: SimRuns::new(n),
            pending: (0..n).map(|_| None).collect(),
            failures: Vec::new(),
        }
    }

    fn simulate(&mut self, bench: &Bench, i: usize, flow: &FlowResult) {
        let slow = slowdown();
        let r = run_sim_step(bench, i, flow, slow, &mut Spans::new(false, Instant::now()))
            .and_then(|(c, b, d)| self.sim.record(i, c, b, d));
        if let Err(e) = r {
            self.failures.push((i, format!("sim check: {e}")));
        }
    }

    fn pass(&mut self, bench: &Bench, pass: usize, flows: Vec<Result<FlowResult, String>>) {
        for (i, r) in flows.into_iter().enumerate() {
            let flow = match r.and_then(|f| self.expect.check(i, Digest::of(&f)).map(|()| f)) {
                Ok(f) => f,
                Err(e) => {
                    self.failures.push((i, e));
                    continue;
                }
            };
            if i % CHECK_SLICES == pass % CHECK_SLICES {
                self.pending[i] = None;
                self.simulate(bench, i, &flow);
            } else if self.sim.0[i].is_none() {
                self.pending[i] = Some(flow);
            }
        }
    }

    /// Simulates the designs no slice reached and reports the failures.
    fn finish(mut self, bench: &Bench, ctx: &mut Ctx) -> (Expect, SimRuns) {
        for i in 0..self.pending.len() {
            if let Some(flow) = self.pending[i].take() {
                self.simulate(bench, i, &flow);
            }
        }
        for (i, e) in &self.failures {
            ctx.failures.add(&bench.inputs[*i], e);
        }
        (self.expect, self.sim)
    }
}

// ------------------------------------------------------------- flow_single

fn flow_single_design(bench: &Bench, i: usize, threads: usize) -> Result<FlowResult, String> {
    let design = front_end(&bench.inputs[i].source)?;
    let options = FlowOptions {
        threads: Some(threads),
        ..FlowOptions::optimized()
    };
    run_control_flow(&design, &options, &bench.library).map_err(|e| format!("flow: {e}"))
}

fn flow_single(args: &Args, ctx: &mut Ctx) -> Result<Partial, String> {
    let (setup_s, bench, ()) = repeated_setup(args, ctx, || {
        let (s, bench) = set_up(args.seed)?;
        Ok((s, bench, ()))
    })?;
    let n = bench.inputs.len();
    ctx.note("workers", 1);
    ctx.note("flow_threads", FLOW_THREADS);
    let pass = || {
        Ok(time_pass(n, 1, |i, _| {
            flow_single_design(&bench, i, FLOW_THREADS)
        }))
    };
    if args.trace {
        let mut prod = Vec::new();
        let timing = timed_loop(0.0, 1, pass, |_, flows| {
            prod = flows
                .into_iter()
                .map(|r| r.map(|f| Digest::of(&f)))
                .collect();
        })?;
        return traced_flow(args, ctx, &bench, None, prod, &timing, 0);
    }
    let mut check = FlowCheck::new(n);
    let timing = timed_loop(args.seconds, 1, pass, |pass, flows| {
        check.pass(&bench, pass, flows)
    })?;
    let (expect, sim) = check.finish(&bench, ctx);
    let mut metrics = timing.metrics(ctx, setup_s);
    metrics.extend(expect.quality());
    metrics.extend(sim.metrics());
    Ok(Partial {
        attempted: timing.attempted(),
        checks_ok: true,
        metrics,
    })
}

// -------------------------------------------------------------- fleet_warm

fn fleet_design(
    bench: &Bench,
    i: usize,
    registry: &ShapeRegistry<'_>,
) -> Result<(FlowResult, usize), String> {
    let input = &bench.inputs[i];
    let design = front_end(&input.source)?;
    flow_through_registry(&input.name, &design, &FlowOptions::optimized(), registry, 1)
        .map(|(flow, stats)| (flow, stats.synthesized))
        .map_err(|e| format!("fleet flow: {e}"))
}

fn disk_cache(dir: &Path) -> Result<ControllerCache, String> {
    DiskCache::open(dir)
        .map(ControllerCache::with_disk)
        .map_err(|e| format!("cache dir {}: {e}", dir.display()))
}

/// Timed warm passes, each over a fresh disk-backed cache and registry so
/// every shape is read back from `dir`. A design that synthesized a shape
/// fails. Returns the timing and the registries' singleflight waits.
fn warm_passes(
    bench: &Bench,
    dir: &Path,
    seconds: f64,
    after: impl FnMut(usize, Vec<Result<FlowResult, String>>),
) -> Result<(Timing, usize), String> {
    let workers = nproc();
    let mut waits = 0;
    let pass = || {
        let cache = disk_cache(dir)?;
        let registry = ShapeRegistry::new(&cache, &bench.library);
        let pass = time_pass(bench.inputs.len(), workers, |i, _| {
            fleet_design(bench, i, &registry).and_then(|(f, synthesized)| match synthesized {
                0 => Ok(f),
                k => Err(format!("warm fleet synthesized {k} shapes")),
            })
        });
        waits += registry.shared_waits();
        Ok(pass)
    };
    let timing = timed_loop(seconds, workers, pass, after)?;
    Ok((timing, waits))
}

fn fleet_warm(args: &Args, ctx: &mut Ctx, dir: &Path) -> Result<Partial, String> {
    let workers = nproc();
    // Set-up includes the cold fleet run that synthesizes every shape and
    // publishes it to the cache directory.
    let (setup_s, bench, cold) = repeated_setup(args, ctx, || {
        let (bench_s, bench) = set_up(args.seed)?;
        let _ = std::fs::remove_dir_all(dir);
        let cache = disk_cache(dir)?;
        let registry = ShapeRegistry::new(&cache, &bench.library);
        let (cold_s, cold) = ref_loop(bench.inputs.len(), |i| {
            fleet_design(&bench, i, &registry).map(|(f, _)| Digest::of(&f))
        });
        Ok((bench_s + cold_s, bench, cold))
    })?;
    let n = bench.inputs.len();
    ctx.note("workers", workers);
    let mut check = FlowCheck::new(n);
    for (i, d) in cold.into_iter().enumerate() {
        if let Err(e) = d.and_then(|d| check.expect.check(i, d)) {
            check.failures.push((i, format!("cold fleet: {e}")));
        }
    }
    if args.trace {
        let mut prod = Vec::new();
        let (timing, waits) = warm_passes(&bench, dir, 0.0, |_, flows| {
            for (i, r) in flows.into_iter().enumerate() {
                let d = r.map(|f| Digest::of(&f));
                if let Err(e) = d.clone().and_then(|d| check.expect.check(i, d)) {
                    check.failures.push((i, e));
                }
                prod.push(d);
            }
        })?;
        check.finish(&bench, ctx);
        return traced_flow(args, ctx, &bench, Some(dir), prod, &timing, waits);
    }
    let (timing, _) = warm_passes(&bench, dir, args.seconds, |pass, flows| {
        check.pass(&bench, pass, flows)
    })?;
    // The single-design production path must build the same circuits.
    for i in 0..n {
        if let Err(e) = flow_single_design(&bench, i, workers)
            .and_then(|f| check.expect.check(i, Digest::of(&f)))
        {
            check.failures.push((i, format!("flow_single path: {e}")));
        }
    }
    let (expect, sim) = check.finish(&bench, ctx);
    let mut metrics = timing.metrics(ctx, setup_s);
    metrics.extend(expect.quality());
    metrics.extend(sim.metrics());
    Ok(Partial {
        attempted: timing.attempted(),
        checks_ok: true,
        metrics,
    })
}

// --------------------------------------------------------------- sim_check

fn sim_check(args: &Args, ctx: &mut Ctx) -> Result<Partial, String> {
    let (setup_s, bench, flows) = repeated_setup(args, ctx, || {
        let (bench_s, bench) = set_up(args.seed)?;
        let cache = ControllerCache::new();
        let registry = ShapeRegistry::new(&cache, &bench.library);
        let (flows_s, flows) = ref_loop(bench.inputs.len(), |i| {
            fleet_design(&bench, i, &registry).map(|(f, _)| f)
        });
        Ok((bench_s + flows_s, bench, flows))
    })?;
    let n = bench.inputs.len();
    // One client: each engine call is single-threaded, and one client
    // measures the engines without the clients contending for the caches.
    ctx.note("workers", 1);
    ctx.note("event_variants", EVENT_VARIANTS);
    let mut expect = Expect::new(n);
    let flows: Vec<Result<FlowResult, String>> = flows
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            let f = f?;
            expect.check(i, Digest::of(&f))?;
            Ok(f)
        })
        .collect();
    let step = |i: usize, slow: f64, sp: &mut Spans| match &flows[i] {
        Ok(f) => run_sim_step(&bench, i, f, slow, sp),
        Err(e) => Err(format!("set-up flow: {e}")),
    };
    if args.trace {
        return traced_sim(args, ctx, &bench, &step);
    }
    let mut sim = SimRuns::new(n);
    let mut failures = Vec::new();
    let epoch = Instant::now();
    let pass = || {
        Ok(time_pass(n, 1, |i, slow| {
            step(i, slow, &mut Spans::new(false, epoch))
        }))
    };
    let timing = timed_loop(args.seconds, 1, pass, |_, results| {
        for (i, r) in results.into_iter().enumerate() {
            if let Err(e) = r.and_then(|(c, b, d)| sim.record(i, c, b, d)) {
                failures.push((i, e));
            }
        }
    })?;
    for (i, e) in failures {
        ctx.failures.add(&bench.inputs[i], &e);
    }
    let mut metrics = timing.metrics(ctx, setup_s);
    metrics.extend(expect.quality());
    metrics.extend(sim.metrics());
    Ok(Partial {
        attempted: timing.attempted(),
        checks_ok: true,
        metrics,
    })
}

// -------------------------------------------------------------- traced runs

/// Every per-layer metric, in report order; a layer a workload does not run
/// reports 0.
const LAYERS: [(&str, &str); 47] = [
    ("balsa.busy_s", "s"),
    ("balsa.components", "count"),
    ("core.translate.busy_s", "s"),
    ("core.cluster.busy_s", "s"),
    ("core.cluster.merged", "count"),
    ("core.cluster.rejected", "count"),
    ("core.cluster.merge_ratio", "ratio"),
    ("flow.key.busy_s", "s"),
    ("flow.key.keys", "count"),
    ("flow.cache.busy_s", "s"),
    ("flow.cache.lookups", "count"),
    ("flow.cache.hits", "count"),
    ("flow.cache.hit_ratio", "ratio"),
    ("flow.shapes.synthesized", "count"),
    ("flow.batch.worker_busy_ratio", "ratio"),
    ("flow.batch.shared_waits", "count"),
    ("core.ch2bms.busy_s", "s"),
    ("core.ch2bms.bm_states", "count"),
    ("bm.statemin.busy_s", "s"),
    ("bm.statemin.states_removed", "count"),
    ("bm.synth.busy_s", "s"),
    ("bm.synth.functions", "count"),
    ("bm.synth.state_bits", "count"),
    ("bm.synth.products", "count"),
    ("logic.prime_gen.busy_s", "s"),
    ("logic.covering.busy_s", "s"),
    ("logic.exact_funcs", "count"),
    ("logic.cofactor_funcs", "count"),
    ("bm.verify.busy_s", "s"),
    ("gates.map.busy_s", "s"),
    ("gates.map.cells", "count"),
    ("gates.verify_mapped.busy_s", "s"),
    ("sim.event.busy_s", "s"),
    ("sim.event.events", "count"),
    ("sim.event.peak_queue_depth", "count"),
    ("sim.event.far_heap_hits", "count"),
    ("sim.compile.busy_s", "s"),
    ("sim.compiled.busy_s", "s"),
    ("sim.compiled.lanes", "count"),
    ("sim.compiled.live_events", "count"),
    ("sim.compiled.waves", "count"),
    ("core.verify.busy_s", "s"),
    ("core.verify.obligations", "count"),
    ("replay.other.busy_s", "s"),
    ("replay.root_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer values of a traced run, keyed by metric name.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// One analysis per traced pass; busy times are medians over them.
    traced: Vec<Analysis>,
    off_walls: Vec<f64>,
    on_walls: Vec<f64>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets metric `name` to the median self time of the spans `span`.
    fn busy(&mut self, name: &'static str, span: &str) {
        let per_pass: Vec<f64> = self
            .traced
            .iter()
            .map(|a| a.self_s.get(span).copied().unwrap_or(0.0))
            .collect();
        self.set(name, median(&per_pass));
    }

    /// Reports span trees that nest badly or whose self times do not add
    /// up to their root; returns whether there were none.
    fn consistent(&self) -> bool {
        let problems: Vec<&String> = self.traced.iter().flat_map(|a| &a.problems).collect();
        for p in problems.iter().take(10) {
            println!("FAIL trace: {p}");
        }
        problems.is_empty()
    }

    fn metrics(mut self, ctx: &mut Ctx, root: &str) -> Vec<Metric> {
        ctx.note("replay_pairs", self.on_walls.len());
        self.busy("replay.other.busy_s", root);
        let pick = |f: fn(&Analysis) -> f64| median(&self.traced.iter().map(f).collect::<Vec<_>>());
        let root_s = pick(|a| a.root_s);
        let spans = pick(|a| a.spans as f64);
        let overhead = ratio(median(&self.on_walls), median(&self.off_walls)) - 1.0;
        self.set("replay.root_s", root_s);
        self.set("trace.spans", spans);
        self.set("trace.overhead_frac", overhead);
        LAYERS
            .iter()
            .map(|&(name, unit)| metric(name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// One replay pass: its wall time, per-design results and spans.
struct ReplayPass {
    wall: f64,
    digests: Vec<Result<Digest, String>>,
    counts: FlowCounts,
    prime_gen_s: f64,
    covering_s: f64,
    spans: Vec<Vec<Span>>,
}

/// Replays every design's flow on `workers` clients, each design over a
/// private cache, or over `shared` when given.
fn replay_pass(
    bench: &Bench,
    shared: Option<&ControllerCache>,
    workers: usize,
    inner: usize,
    on: bool,
) -> ReplayPass {
    let epoch = Instant::now();
    let recorders: Vec<Mutex<Spans>> = (0..workers)
        .map(|_| Mutex::new(Spans::new(on, epoch)))
        .collect();
    let (wall, results) = timed(|| {
        closed_loop(bench.inputs.len(), workers, |i, w| {
            let mut sp = recorders[w].lock().expect("recorder");
            let private;
            let cache = match shared {
                Some(c) => c,
                None => {
                    private = ControllerCache::new();
                    &private
                }
            };
            sp.design(i as u32, "replay.design", |sp| {
                replay_flow(&bench.inputs[i].source, cache, &bench.library, inner, sp)
            })
        })
    });
    let mut p = ReplayPass {
        wall,
        digests: Vec::with_capacity(results.len()),
        counts: FlowCounts::default(),
        prime_gen_s: 0.0,
        covering_s: 0.0,
        spans: recorders
            .into_iter()
            .map(|r| r.into_inner().expect("recorder").spans)
            .collect(),
    };
    for r in results {
        p.digests.push(r.map(|r| {
            p.counts.add(&r.counts);
            p.prime_gen_s += r.prime_gen.as_secs_f64();
            p.covering_s += r.covering.as_secs_f64();
            r.digest
        }));
    }
    p
}

/// Replays every design's flow in untraced/traced pairs for
/// `args.seconds`, checks the replay against the production digests
/// `prod`, and reports the per-layer metrics. With `disk`, the replay
/// reads a fresh disk-backed cache each pass on `nproc` clients (the
/// fleet); otherwise each design synthesizes over a private cache on one
/// client with `FLOW_THREADS` threads (the single-design flow).
fn traced_flow(
    args: &Args,
    ctx: &mut Ctx,
    bench: &Bench,
    disk: Option<&Path>,
    prod: Vec<Result<Digest, String>>,
    prod_timing: &Timing,
    shared_waits: usize,
) -> Result<Partial, String> {
    let (workers, inner) = if disk.is_some() {
        (nproc(), 1)
    } else {
        (1, FLOW_THREADS)
    };
    for (i, r) in prod.iter().enumerate() {
        if let Err(e) = r {
            ctx.failures
                .add(&bench.inputs[i], &format!("production flow: {e}"));
        }
    }
    let start = Instant::now();
    let mut layers = Layers::default();
    let mut counts: Vec<FlowCounts> = Vec::new();
    let (mut prime_gen, mut covering) = (Vec::new(), Vec::new());
    while layers.on_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        for on in [false, true] {
            let cache = disk.map(disk_cache).transpose()?;
            let p = replay_pass(bench, cache.as_ref(), workers, inner, on);
            for (i, (got, want)) in p.digests.iter().zip(&prod).enumerate() {
                match (got, want) {
                    (Ok(g), Ok(w)) if g == w => {}
                    (Err(e), _) => ctx.failures.add(&bench.inputs[i], &format!("replay: {e}")),
                    _ => ctx.failures.add(
                        &bench.inputs[i],
                        "replay digest differs from the production flow",
                    ),
                }
            }
            counts.push(p.counts);
            if on {
                layers.on_walls.push(p.wall);
                layers.traced.push(analyse(&p.spans));
                prime_gen.push(p.prime_gen_s);
                covering.push(p.covering_s);
            } else {
                layers.off_walls.push(p.wall);
            }
        }
    }
    let counts_repeat = counts.windows(2).all(|w| w[0] == w[1]);
    if !counts_repeat {
        println!("FAIL replay work counts differ between passes");
    }
    let consistent = layers.consistent();
    ctx.note(
        "minimizer_times",
        "\"logic.prime_gen/covering are summed MinimizeStats, not benchmark spans\"",
    );
    for (name, span) in [
        ("balsa.busy_s", "balsa"),
        ("core.translate.busy_s", "core.translate"),
        ("core.cluster.busy_s", "core.cluster"),
        ("flow.key.busy_s", "flow.key"),
        ("flow.cache.busy_s", "flow.cache"),
        ("core.ch2bms.busy_s", "core.ch2bms"),
        ("bm.statemin.busy_s", "bm.statemin"),
        ("bm.synth.busy_s", "bm.synth"),
        ("bm.verify.busy_s", "bm.verify"),
        ("gates.map.busy_s", "gates.map"),
        ("gates.verify_mapped.busy_s", "gates.verify_mapped"),
    ] {
        layers.busy(name, span);
    }
    let c = counts.last().cloned().unwrap_or_default();
    let f = |x: usize| x as f64;
    for (name, value) in [
        ("balsa.components", f(c.components)),
        ("core.cluster.merged", f(c.merged)),
        ("core.cluster.rejected", f(c.rejected)),
        (
            "core.cluster.merge_ratio",
            ratio(f(c.merged), f(c.merged + c.rejected)),
        ),
        ("flow.key.keys", f(c.keys)),
        ("flow.cache.lookups", f(c.lookups)),
        ("flow.cache.hits", f(c.hits)),
        ("flow.cache.hit_ratio", ratio(f(c.hits), f(c.lookups))),
        ("flow.shapes.synthesized", f(c.synthesized)),
        (
            "flow.batch.worker_busy_ratio",
            median(&prod_timing.busy_ratio),
        ),
        ("flow.batch.shared_waits", f(shared_waits)),
        ("core.ch2bms.bm_states", f(c.bm_states)),
        ("bm.statemin.states_removed", f(c.states_removed)),
        ("bm.synth.functions", f(c.functions)),
        ("bm.synth.state_bits", f(c.state_bits)),
        ("bm.synth.products", f(c.products)),
        ("logic.prime_gen.busy_s", median(&prime_gen)),
        ("logic.covering.busy_s", median(&covering)),
        ("logic.exact_funcs", f(c.exact_funcs)),
        ("logic.cofactor_funcs", f(c.cofactor_funcs)),
        ("gates.map.cells", f(c.cells)),
    ] {
        layers.set(name, value);
    }
    Ok(Partial {
        attempted: counts.len() * bench.inputs.len(),
        checks_ok: counts_repeat && consistent,
        metrics: layers.metrics(ctx, "replay.design"),
    })
}

/// The simulation step in untraced/traced pairs for `args.seconds`, on
/// one client like the timed `sim_check`.
fn traced_sim(
    args: &Args,
    ctx: &mut Ctx,
    bench: &Bench,
    step: &dyn Fn(usize, f64, &mut Spans) -> StepResult,
) -> Result<Partial, String> {
    let n = bench.inputs.len();
    let start = Instant::now();
    let mut layers = Layers::default();
    let mut sim = SimRuns::new(n);
    let mut busy_ratio = Vec::new();
    let mut passes = 0;
    while layers.on_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        for on in [false, true] {
            let mut sp = Spans::new(on, Instant::now());
            let (wall, results) = timed(|| {
                (0..n)
                    .map(|i| timed(|| sp.design(i as u32, "sim.design", |sp| step(i, 1.0, sp))))
                    .collect::<Vec<_>>()
            });
            passes += 1;
            busy_ratio.push(results.iter().map(|(s, _)| s).sum::<f64>() / wall);
            for (i, (_, r)) in results.into_iter().enumerate() {
                if let Err(e) = r.and_then(|(c, b, d)| sim.record(i, c, b, d)) {
                    ctx.failures.add(&bench.inputs[i], &e);
                }
            }
            if on {
                layers.on_walls.push(wall);
                layers.traced.push(analyse(&[sp.spans]));
            } else {
                layers.off_walls.push(wall);
            }
        }
    }
    let consistent = layers.consistent();
    for (name, span) in [
        ("sim.event.busy_s", "sim.event"),
        ("sim.compile.busy_s", "sim.compile"),
        ("sim.compiled.busy_s", "sim.compiled"),
        ("core.verify.busy_s", "core.verify"),
    ] {
        layers.busy(name, span);
    }
    let (c, _) = sim.totals();
    for (name, value) in [
        ("flow.batch.worker_busy_ratio", median(&busy_ratio)),
        ("sim.event.events", c.events as f64),
        ("sim.event.peak_queue_depth", c.peak_queue_depth as f64),
        ("sim.event.far_heap_hits", c.far_heap_hits as f64),
        ("sim.compiled.lanes", c.lanes as f64),
        ("sim.compiled.live_events", c.live_events as f64),
        ("sim.compiled.waves", c.waves as f64),
        ("core.verify.obligations", c.obligations as f64),
    ] {
        layers.set(name, value);
    }
    Ok(Partial {
        attempted: passes * n,
        checks_ok: consistent,
        metrics: layers.metrics(ctx, "sim.design"),
    })
}
