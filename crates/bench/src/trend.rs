//! Perf-regression sentinel: diffs a freshly generated `BENCH_flow.json` /
//! `BENCH_sim.json` against the committed baselines.
//!
//! Two gate policies, chosen per metric:
//!
//! - **Exact** — structural counts (controllers, cache hits/misses, shape
//!   counts, the minimizer's traced work counts and engine choices,
//!   event counts, lane
//!   counts, the states each §4.3 verification path explores). These are
//!   deterministic functions of the design set, so *any* drift is a real
//!   behavioural change and fails the gate.
//! - **Ratio** — timing ratios (`speedup`, `auto_speedup_vs_exact`,
//!   `compiled_vs_event`). Wall-clock ratios move with host load, so the
//!   gate only fires on a collapse: the fresh value may not fall below
//!   [`RATIO_FLOOR`] of the baseline. That is deliberately weaker than the
//!   tier-1 script's own absolute thresholds (e.g. "compiled ≥ 5x event")
//!   — the sentinel catches a ratio cratering *relative to what this repo
//!   last recorded*, wherever the absolute bar happens to sit on the host.
//!
//! Absolute seconds are not gated at all: comparing wall seconds across
//! machines is noise, and the ratios already normalize them away.
//!
//! [`design_field`] is the one reader of a number from a committed report
//! that the report bins share (`perf_report`'s before/after numbers,
//! `sim_report`'s baseline throughput).

use bmbe_obs::export::escape;
use std::fmt;

/// A gated ratio metric may not fall below this fraction of its baseline
/// (an 80% relative regression fails; improvements always pass).
pub const RATIO_FLOOR: f64 = 0.2;

/// How a metric is judged against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Structural count: fresh must equal baseline exactly.
    Exact,
    /// Timing ratio: fresh must be at least `RATIO_FLOOR` x baseline.
    Ratio,
}

/// One gated metric: where to find it and how to judge it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The top-level JSON array the blocks live in (`"designs"`,
    /// `"backends"` or `"verification"`).
    pub section: &'static str,
    /// The field name inside each design block (matched as `"field":`, so
    /// `speedup` does not collide with `auto_speedup_vs_exact`).
    pub field: &'static str,
    /// Exact or ratio-floor gating.
    pub policy: Policy,
}

impl Spec {
    /// A structural count of `section`'s blocks, gated exactly.
    pub const fn exact(section: &'static str, field: &'static str) -> Spec {
        Spec {
            section,
            field,
            policy: Policy::Exact,
        }
    }

    /// A timing ratio of `section`'s blocks, gated at [`RATIO_FLOOR`].
    pub const fn ratio(section: &'static str, field: &'static str) -> Spec {
        Spec {
            section,
            field,
            policy: Policy::Ratio,
        }
    }
}

/// The gated metrics of `BENCH_flow.json`.
pub const FLOW_SPECS: &[Spec] = &[
    Spec::exact("designs", "controllers"),
    Spec::exact("designs", "cache_hits"),
    Spec::exact("designs", "cache_misses"),
    Spec::exact("designs", "shapes"),
    Spec::exact("designs", "hfmin.worklist.explored"),
    Spec::exact("designs", "hfmin.cofactor.seeds"),
    Spec::exact("designs", "hfmin.cofactor.leaves"),
    Spec::exact("designs", "hfmin.engine.exact"),
    Spec::exact("designs", "hfmin.engine.cofactor"),
    Spec::ratio("designs", "speedup"),
    Spec::ratio("designs", "auto_speedup_vs_exact"),
];

/// The gated metrics of `BENCH_sim.json`.
pub const SIM_SPECS: &[Spec] = &[
    Spec::exact("designs", "events"),
    Spec::exact("backends", "lanes"),
    Spec::exact("backends", "events"),
    Spec::ratio("backends", "compiled_vs_event"),
    Spec::exact("verification", "otf_states"),
    Spec::exact("verification", "materialized_states"),
];

/// One gate violation: the metric, both values, and why it failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// The section the metric came from (`designs` / `backends` /
    /// `verification`).
    pub section: String,
    /// The design (or verification obligation) the block belongs to.
    pub design: String,
    /// The metric field name.
    pub metric: String,
    /// The committed baseline value (`None` when the *fresh* side lost the
    /// design or field entirely).
    pub baseline: Option<f64>,
    /// The fresh value (`None` when missing).
    pub current: Option<f64>,
    /// The judging policy.
    pub policy: Policy,
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_opt = |v: Option<f64>| v.map_or("missing".to_string(), |v| format!("{v}"));
        write!(
            f,
            "{}/{}/{}: baseline {} current {} ({})",
            self.section,
            self.design,
            self.metric,
            fmt_opt(self.baseline),
            fmt_opt(self.current),
            match self.policy {
                Policy::Exact => "must match exactly",
                Policy::Ratio => "fell below the ratio floor",
            }
        )
    }
}

impl Breach {
    /// The breach as a flat JSON object (for the verdict report).
    pub fn to_json(&self) -> String {
        let num = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v}"));
        format!(
            "{{\"section\": \"{}\", \"design\": \"{}\", \"metric\": \"{}\", \
             \"baseline\": {}, \"current\": {}, \"policy\": \"{}\"}}",
            escape(&self.section),
            escape(&self.design),
            escape(&self.metric),
            num(self.baseline),
            num(self.current),
            match self.policy {
                Policy::Exact => "exact",
                Policy::Ratio => "ratio",
            }
        )
    }
}

/// The outcome of one file comparison.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metrics actually compared (baseline design x spec pairs found).
    pub checked: usize,
    /// Gate violations, in baseline order.
    pub breaches: Vec<Breach>,
    /// Structured "no baseline" reasons: a baseline file that is absent,
    /// empty, or contains no comparable entries. A sentinel with nothing
    /// to compare against must fail loudly, not pass vacuously — a fresh
    /// report added without a committed baseline would otherwise read as
    /// green forever.
    pub no_baseline: Vec<String>,
}

impl Outcome {
    /// Whether every gate held — requires both zero breaches and at least
    /// one usable baseline behind every comparison.
    pub fn pass(&self) -> bool {
        self.breaches.is_empty() && self.no_baseline.is_empty()
    }

    /// Folds another file's outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.checked += other.checked;
        self.breaches.extend(other.breaches);
        self.no_baseline.extend(other.no_baseline);
    }
}

/// Extracts the text of the `"<section>": [ ... ]` array, bracket-matched
/// with JSON string awareness (the baseline `note` fields are free-form
/// prose).
fn section_text<'a>(text: &'a str, section: &str) -> Option<&'a str> {
    let needle = format!("\"{section}\": [");
    let start = text.find(&needle)? + needle.len();
    let bytes = text.as_bytes();
    let mut depth = 1usize;
    let mut in_str = false;
    let mut esc = false;
    for (i, &b) in bytes[start..].iter().enumerate() {
        if esc {
            esc = false;
            continue;
        }
        match b {
            b'\\' if in_str => esc = true,
            b'"' => in_str = !in_str,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[start..start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits a section's text into per-design `{...}` blocks (depth-matched;
/// blocks nest objects like `"phases": {...}`).
fn blocks(section: &str) -> Vec<&str> {
    let bytes = section.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut esc = false;
    let mut open = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if esc {
            esc = false;
            continue;
        }
        match b {
            b'\\' if in_str => esc = true,
            b'"' => in_str = !in_str,
            b'{' if !in_str => {
                if depth == 0 {
                    open = i;
                }
                depth += 1;
            }
            b'}' if !in_str => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    out.push(&section[open..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// Pulls `"field": <number>` out of one design block.
fn number_field(block: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = block.find(&needle)? + needle.len();
    let rest = block[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls the block's name out of one block: its `"design"`, or for a
/// verification row its `"obligation"`.
fn design_name(block: &str) -> Option<&str> {
    ["\"design\": \"", "\"obligation\": \""]
        .iter()
        .find_map(|needle| {
            let at = block.find(needle)? + needle.len();
            block[at..].find('"').map(|end| &block[at..at + end])
        })
}

/// Reads `"field": <number>` from the block of `design` in the report's
/// `section` array, and from nowhere else: a row that lacks the field reads
/// `None`, never a later row's value. A missing section or design is `None`
/// too.
pub fn design_field(report: &str, section: &str, design: &str, field: &str) -> Option<f64> {
    let block = blocks(section_text(report, section)?)
        .into_iter()
        .find(|b| design_name(b) == Some(design))?;
    number_field(block, field)
}

/// Compares one fresh report against its baseline under `specs`. Iterates
/// the *baseline's* designs: a design or gated field the fresh report
/// lost is itself a breach (the benchmark surface shrank), while designs
/// only the fresh side has are ignored (growth is not a regression).
pub fn compare(baseline: &str, current: &str, specs: &[Spec]) -> Outcome {
    let mut outcome = Outcome::default();
    let sections: Vec<&'static str> = {
        let mut s: Vec<&'static str> = specs.iter().map(|sp| sp.section).collect();
        s.dedup();
        s
    };
    for section in sections {
        let base_blocks = section_text(baseline, section)
            .map(blocks)
            .unwrap_or_default();
        let cur_text = section_text(current, section);
        let cur_blocks = cur_text.map(blocks).unwrap_or_default();
        for base_block in base_blocks {
            let Some(design) = design_name(base_block) else {
                continue;
            };
            let cur_block = cur_blocks
                .iter()
                .find(|b| design_name(b) == Some(design))
                .copied();
            for spec in specs.iter().filter(|sp| sp.section == section) {
                let base_value = number_field(base_block, spec.field);
                let cur_value = cur_block.and_then(|b| number_field(b, spec.field));
                let Some(base_value) = base_value else {
                    // The baseline itself lacks the field (e.g. an old
                    // schema); nothing to gate against.
                    continue;
                };
                outcome.checked += 1;
                let breach = |cur: Option<f64>| Breach {
                    section: section.to_string(),
                    design: design.to_string(),
                    metric: spec.field.to_string(),
                    baseline: Some(base_value),
                    current: cur,
                    policy: spec.policy,
                };
                match cur_value {
                    None => outcome.breaches.push(breach(None)),
                    Some(cur) => {
                        let bad = match spec.policy {
                            Policy::Exact => cur != base_value,
                            Policy::Ratio => cur < base_value * RATIO_FLOOR,
                        };
                        if bad {
                            outcome.breaches.push(breach(Some(cur)));
                        }
                    }
                }
            }
        }
    }
    // A baseline that yielded nothing to check is an empty or schema-less
    // file, not a clean bill of health.
    if outcome.checked == 0 {
        outcome
            .no_baseline
            .push("baseline contains no comparable metric entries".to_string());
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOW: &str = r#"{
  "bench": "flow_e2e",
  "note": "brackets in prose [do] not confuse the scanner",
  "designs": [
    {"design": "A", "controllers": 3, "cache_hits": 1, "cache_misses": 2, "speedup": 1.5, "backends": {"auto_speedup_vs_exact": 2.0}, "phases": {"shapes": 2}, "counters": {"hfmin.worklist.explored": 0, "hfmin.cofactor.seeds": 40, "hfmin.cofactor.leaves": 41, "hfmin.engine.exact": 0, "hfmin.engine.cofactor": 2}},
    {"design": "B", "controllers": 12, "cache_hits": 7, "cache_misses": 5, "speedup": 1.2, "backends": {"auto_speedup_vs_exact": 20.0}, "phases": {"shapes": 5}, "counters": {"hfmin.worklist.explored": 48, "hfmin.cofactor.seeds": 539, "hfmin.cofactor.leaves": 540, "hfmin.engine.exact": 3, "hfmin.engine.cofactor": 28}}
  ]
}"#;

    #[test]
    fn identical_reports_pass() {
        let outcome = compare(FLOW, FLOW, FLOW_SPECS);
        assert!(outcome.pass(), "breaches: {:?}", outcome.breaches);
        // 2 designs x 11 specs, all present.
        assert_eq!(outcome.checked, 22);
    }

    #[test]
    fn structural_drift_breaches_exactly() {
        let drifted = FLOW.replace("\"controllers\": 12", "\"controllers\": 15");
        let outcome = compare(FLOW, &drifted, FLOW_SPECS);
        assert_eq!(outcome.breaches.len(), 1);
        let b = &outcome.breaches[0];
        assert_eq!((b.design.as_str(), b.metric.as_str()), ("B", "controllers"));
        assert_eq!((b.baseline, b.current), (Some(12.0), Some(15.0)));
        assert_eq!(b.policy, Policy::Exact);
        // A work count one higher is a breach too.
        let drifted = FLOW.replace(
            "\"hfmin.worklist.explored\": 48",
            "\"hfmin.worklist.explored\": 49",
        );
        let outcome = compare(FLOW, &drifted, FLOW_SPECS);
        assert_eq!(outcome.breaches.len(), 1);
        let b = &outcome.breaches[0];
        assert_eq!(
            (b.design.as_str(), b.metric.as_str()),
            ("B", "hfmin.worklist.explored")
        );
    }

    #[test]
    fn ratio_floor_tolerates_noise_but_not_collapse() {
        // 1.5 -> 0.9 is a 40% regression: inside the floor, passes.
        let noisy = FLOW.replace("\"speedup\": 1.5", "\"speedup\": 0.9");
        assert!(compare(FLOW, &noisy, FLOW_SPECS).pass());
        // 20.0 -> 1.0 is a 95% collapse: breaches.
        let collapsed = FLOW.replace(
            "\"auto_speedup_vs_exact\": 20.0",
            "\"auto_speedup_vs_exact\": 1.0",
        );
        let outcome = compare(FLOW, &collapsed, FLOW_SPECS);
        assert_eq!(outcome.breaches.len(), 1);
        assert_eq!(outcome.breaches[0].metric, "auto_speedup_vs_exact");
        assert_eq!(outcome.breaches[0].policy, Policy::Ratio);
        // Improvements always pass.
        let improved = FLOW.replace("\"speedup\": 1.2", "\"speedup\": 99.0");
        assert!(compare(FLOW, &improved, FLOW_SPECS).pass());
    }

    #[test]
    fn lost_design_and_lost_field_breach() {
        let lost_design = FLOW.replace("\"design\": \"B\"", "\"design\": \"Z\"");
        let outcome = compare(FLOW, &lost_design, FLOW_SPECS);
        // All eleven of B's gated metrics go missing.
        assert_eq!(outcome.breaches.len(), 11);
        assert!(outcome
            .breaches
            .iter()
            .all(|b| b.design == "B" && b.current.is_none()));

        let lost_field = FLOW.replace("\"cache_hits\": 7, ", "");
        let outcome = compare(FLOW, &lost_field, FLOW_SPECS);
        assert_eq!(outcome.breaches.len(), 1);
        assert_eq!(outcome.breaches[0].metric, "cache_hits");
    }

    #[test]
    fn empty_baseline_is_a_structured_no_baseline_verdict() {
        // An empty or schema-less baseline used to yield checked=0 with
        // zero breaches — a vacuous pass. It must fail with an explicit
        // reason instead.
        for baseline in ["", "{}", "{\n  \"bench\": \"flow_e2e\"\n}"] {
            let outcome = compare(baseline, FLOW, FLOW_SPECS);
            assert_eq!(outcome.checked, 0);
            assert!(outcome.breaches.is_empty());
            assert_eq!(outcome.no_baseline.len(), 1, "baseline {baseline:?}");
            assert!(!outcome.pass(), "baseline {baseline:?} must not pass");
        }
        // A real baseline never trips the verdict.
        assert!(compare(FLOW, FLOW, FLOW_SPECS).no_baseline.is_empty());
    }

    #[test]
    fn merge_carries_no_baseline_reasons() {
        let mut a = compare(FLOW, FLOW, FLOW_SPECS);
        assert!(a.pass());
        a.merge(compare("", FLOW, FLOW_SPECS));
        assert!(!a.pass());
        assert_eq!(a.no_baseline.len(), 1);
    }

    #[test]
    fn speedup_needle_does_not_match_longer_names() {
        // A block whose only "speedup"-like field is the nested backend
        // ratio must read as missing `speedup`, not silently borrow it.
        let block = r#"{"design": "A", "backends": {"auto_speedup_vs_exact": 2.0}}"#;
        assert_eq!(number_field(block, "speedup"), None);
        assert_eq!(number_field(block, "auto_speedup_vs_exact"), Some(2.0));
    }

    #[test]
    fn design_field_reads_only_the_named_row() {
        let report = r#"{"designs": [
    {"design": "Stack", "cached_parallel_s": 0.004},
    {"design": "Microprocessor core", "reference_s": 0.015, "cached_parallel_s": 0.012}
]}"#;
        // Stack lacks the field; the next row's value must not leak in.
        assert_eq!(
            design_field(report, "designs", "Stack", "reference_s"),
            None
        );
        assert_eq!(
            design_field(report, "designs", "Stack", "cached_parallel_s"),
            Some(0.004)
        );
        assert_eq!(
            design_field(report, "designs", "Microprocessor core", "reference_s"),
            Some(0.015)
        );
        assert_eq!(
            design_field(report, "designs", "Absent", "reference_s"),
            None
        );
        assert_eq!(
            design_field(report, "backends", "Stack", "reference_s"),
            None
        );
    }

    #[test]
    fn sim_sections_gate_independently() {
        let sim = r#"{
  "designs": [
    {"design": "A", "events": 60, "event": {"wall_s": 0.1}}
  ],
  "backends": [
    {"design": "A", "lanes": 64, "events": 3840, "compiled_vs_event": 8.0}
  ]
}"#;
        assert!(compare(sim, sim, SIM_SPECS).pass());
        // The designs-section event count and the backends-section event
        // count are distinct gates.
        let drifted = sim.replace("\"events\": 3840", "\"events\": 3841");
        let outcome = compare(sim, &drifted, SIM_SPECS);
        assert_eq!(outcome.breaches.len(), 1);
        assert_eq!(outcome.breaches[0].section, "backends");
    }

    #[test]
    fn verification_rows_gate_state_counts_exactly() {
        let sim = r#"{
  "designs": [
    {"design": "A", "events": 60}
  ],
  "verification": [
    {"obligation": "p+q", "otf_states": 123, "materialized_states": 168, "verdicts_agree": true},
    {"obligation": "r+s", "otf_states": 66, "materialized_states": 92, "verdicts_agree": true}
  ]
}"#;
        let outcome = compare(sim, sim, SIM_SPECS);
        assert!(outcome.pass(), "breaches: {:?}", outcome.breaches);
        // One designs-section count plus two counts per obligation.
        assert_eq!(outcome.checked, 5);
        let bumped = sim.replace("\"otf_states\": 66", "\"otf_states\": 67");
        let outcome = compare(sim, &bumped, SIM_SPECS);
        assert_eq!(outcome.breaches.len(), 1);
        let b = &outcome.breaches[0];
        assert_eq!(
            (b.section.as_str(), b.design.as_str(), b.metric.as_str()),
            ("verification", "r+s", "otf_states")
        );
        assert_eq!(
            (b.baseline, b.current, b.policy),
            (Some(66.0), Some(67.0), Policy::Exact)
        );
        // A lost obligation is a breach of both its counts.
        let lost = sim.replace("\"obligation\": \"p+q\"", "\"obligation\": \"p+z\"");
        assert_eq!(compare(sim, &lost, SIM_SPECS).breaches.len(), 2);
    }
}
