//! The per-design simulation and verification step of `sim_check` (also
//! the functional output check of the other two workloads).

use crate::inputs::{front_end, Input};
use crate::spans::Spans;
use bmbe_balsa::CompiledDesign;
use bmbe_core::ast::ChExpr;
use bmbe_core::balsa_to_ch::balsa_to_ch;
use bmbe_core::opt::{verify_acr, verify_acr_materialized, AcrVerdict};
use bmbe_designs::variants_of;
use bmbe_flow::{
    batch_input_ports, check_outcome, compile_sim, simulate_with, to_flow_scenario, FlowResult,
    Scenario, SimOutcome,
};
use bmbe_sim::prims::Delays;
use bmbe_sim::{SchedulerKind, LANES};
use std::collections::BTreeSet;

/// Seeded variants the event engine runs after the base scenario. Chosen
/// so the event engine and the compiled engine take comparable shares of a
/// traced `sim_check` pass.
pub const EVENT_VARIANTS: usize = 8;

/// Internal channels whose activation-channel-removal obligation is
/// verified per design.
const VERIFY_CHANNELS: usize = 2;

/// One obligation with the verdict of the materialized oracle.
pub struct Obligation {
    active: ChExpr,
    passive: ChExpr,
    channel: String,
    expected: AcrVerdict,
}

/// Everything the timed step needs for one design besides its flow,
/// built in set-up.
pub struct SimCase {
    design: CompiledDesign,
    /// `LANES` scenarios: the base scenario, then seeded variants.
    scenarios: Vec<Scenario>,
    ports: BTreeSet<String>,
    obligations: Vec<Obligation>,
}

impl SimCase {
    /// Builds the case, running the materialized verification oracle.
    pub fn new(input: &Input) -> Result<SimCase, String> {
        let design = front_end(&input.source)?;
        let scenarios: Vec<Scenario> = variants_of(&input.scenario, LANES, input.variant_seed)
            .iter()
            .map(to_flow_scenario)
            .collect();
        let ports = batch_input_ports(&scenarios);
        let ctrl = balsa_to_ch(&design.netlist).map_err(|e| format!("translate: {e}"))?;
        let mut obligations = Vec::new();
        for ch in ctrl.internal_channels().into_iter().take(VERIFY_CHANNELS) {
            let active = ctrl.components[ch.active].program.clone();
            let passive = ctrl.components[ch.passive].program.clone();
            let expected = verify_acr_materialized(&active, &passive, &ch.name)
                .map_err(|e| format!("materialized verify of {}: {e}", ch.name))?;
            obligations.push(Obligation {
                active,
                passive,
                channel: ch.name,
                expected,
            });
        }
        Ok(SimCase {
            design,
            scenarios,
            ports,
            obligations,
        })
    }
}

/// Work counts and busy times of one step. The counts are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounts {
    pub event_runs: usize,
    pub events: u64,
    pub sim_time_ns: f64,
    pub peak_queue_depth: usize,
    pub far_heap_hits: u64,
    pub lanes: usize,
    pub live_events: u64,
    pub waves: u64,
    pub obligations: usize,
}

impl SimCounts {
    pub fn add(&mut self, o: &SimCounts) {
        self.event_runs += o.event_runs;
        self.events += o.events;
        self.sim_time_ns += o.sim_time_ns;
        self.peak_queue_depth = self.peak_queue_depth.max(o.peak_queue_depth);
        self.far_heap_hits += o.far_heap_hits;
        self.lanes += o.lanes;
        self.live_events += o.live_events;
        self.waves += o.waves;
        self.obligations += o.obligations;
    }
}

/// Seconds the step spent in each engine, at reference-host speed (see
/// [`crate::pool::slowdown`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBusy {
    pub event_s: f64,
    pub compiled_s: f64,
    pub verify_s: f64,
}

/// Runs the step on the controllers of `flow` — the event engine on the
/// base scenario and the first [`EVENT_VARIANTS`] variants, the compiled
/// engine over all `LANES` scenarios, and on-the-fly verification of each
/// obligation — then checks every output. Returns the counts, the busy
/// times (host seconds divided by `slow`, the host's slowdown), and a
/// digest of the simulated behaviour.
pub fn sim_step(
    case: &SimCase,
    flow: &FlowResult,
    input: &Input,
    slow: f64,
    sp: &mut Spans,
) -> Result<(SimCounts, SimBusy, u64), String> {
    let delays = Delays::default();
    let mut busy = SimBusy::default();
    let t = std::time::Instant::now();
    let event: Vec<_> = case.scenarios[..=EVENT_VARIANTS]
        .iter()
        .map(|s| {
            sp.span("sim.event", |_| {
                simulate_with(&case.design, flow, s, &delays, SchedulerKind::Auto)
            })
        })
        .collect();
    busy.event_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let compiled = sp
        .span("sim.compile", |_| {
            compile_sim(&case.design, flow, &case.ports, None)
        })
        .and_then(|cs| sp.span("sim.compiled", |_| cs.run_batch(&case.scenarios)));
    busy.compiled_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let verdicts: Vec<_> = case
        .obligations
        .iter()
        .map(|o| {
            sp.span("core.verify", |_| {
                verify_acr(&o.active, &o.passive, &o.channel)
            })
        })
        .collect();
    busy.verify_s = t.elapsed().as_secs_f64();
    busy.event_s /= slow;
    busy.compiled_s /= slow;
    busy.verify_s /= slow;

    let mut counts = SimCounts::default();
    let mut events_out: Vec<SimOutcome> = Vec::with_capacity(event.len());
    for (i, r) in event.into_iter().enumerate() {
        let o = r.map_err(|e| format!("event engine, scenario {i}: {e}"))?;
        counts.event_runs += 1;
        counts.events += o.events;
        counts.sim_time_ns += o.time_ns;
        counts.peak_queue_depth = counts.peak_queue_depth.max(o.stats.peak_queue_depth);
        counts.far_heap_hits += o.stats.far_heap_hits;
        events_out.push(o);
    }
    let base = &events_out[0];
    if !base.completed {
        return Err("base scenario did not complete on the event engine".into());
    }
    check_outcome(&input.scenario.check, base).map_err(|e| format!("check: {e}"))?;
    let compiled = compiled.map_err(|e| format!("compiled engine: {e}"))?;
    counts.lanes = compiled.len();
    counts.live_events = compiled.iter().map(|o| o.events).sum();
    counts.waves = compiled.first().map_or(0, |o| o.stats.waves);
    for (i, (c, e)) in compiled.iter().zip(&events_out).enumerate() {
        if !c.same_behaviour(e) {
            return Err(format!(
                "compiled lane {i} behaves differently from the event engine"
            ));
        }
    }
    for (o, v) in case.obligations.iter().zip(verdicts) {
        let v = v.map_err(|e| format!("verify {}: {e}", o.channel))?;
        if !v.same_outcome(&o.expected) {
            return Err(format!(
                "verify {}: on-the-fly {v:?}, materialized {:?}",
                o.channel, o.expected
            ));
        }
        counts.obligations += 1;
    }
    Ok((counts, busy, behaviour_digest(&events_out)))
}

/// FNV-1a over what the event engine simulated, in a fixed order.
fn behaviour_digest(outcomes: &[SimOutcome]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for o in outcomes {
        eat(u64::from(o.completed));
        eat(o.time_ns.to_bits());
        eat(o.events);
        let mut ports: Vec<_> = o.outputs.iter().collect();
        ports.sort();
        for (_, values) in ports {
            values.iter().for_each(|&v| eat(v));
        }
        let mut mems: Vec<_> = o.memories.iter().collect();
        mems.sort();
        for (_, words) in mems {
            words.iter().for_each(|&v| eat(v));
        }
    }
    h
}
