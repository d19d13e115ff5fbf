//! Perf-regression sentinel: diffs a freshly generated `BENCH_flow.json` /
//! `BENCH_sim.json` against the committed baselines.
//!
//! Two gate policies, chosen per metric:
//!
//! - **Exact** — structural counts (controllers, cache hits/misses, shape
//!   counts, every traced count of a row's `counters` object, event
//!   counts, lane counts, the states each §4.3 verification path
//!   explores). These are deterministic functions of the design set, so
//!   *any* drift is a real behavioural change and fails the gate.
//! - **Ratio** — timing ratios (`speedup`, `auto_speedup_vs_exact`,
//!   `compiled_vs_event`). Wall-clock ratios move with host load, so the
//!   gate only fires on a collapse: the fresh value may not fall below
//!   [`RATIO_FLOOR`] of the baseline. That is deliberately weaker than the
//!   tier-1 script's own absolute thresholds (e.g. "compiled ≥ 5x event")
//!   — the sentinel catches a ratio cratering *relative to what this repo
//!   last recorded*, wherever the absolute bar happens to sit on the host.
//!   `perf_report` writes `auto_speedup_vs_exact` only for a design whose
//!   exact backend enumerates primes for more functions than its default
//!   one; elsewhere both backends run the same engines and the ratio would
//!   time identical work, so those rows carry no such field and nothing is
//!   gated there.
//!
//! Each report is parsed once by [`bmbe_obs::json::parse`]. A gated field
//! is read at its [`Spec::path`] inside the row its `design` (or
//! `obligation`) names, and nowhere else. A path that ends at an object
//! gates every member of it, so the `counters` object gates whatever
//! counts `perf_report` writes there. A field the baseline row lacks is
//! skipped, so a metric is gated on exactly the rows whose committed
//! report carries it.
//!
//! Absolute seconds are not gated at all: comparing wall seconds across
//! machines is noise, and the ratios already normalize them away.
//!
//! [`design_field`] is the one reader of a number from a committed report
//! that the report bins share (`perf_report`'s before/after numbers,
//! `sim_report`'s baseline throughput).

use bmbe_obs::export::escape;
use bmbe_obs::json::{self, Json};
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
    /// The top-level JSON array the rows live in (`"designs"`,
    /// `"backends"` or `"verification"`).
    pub section: &'static str,
    /// The object keys that lead from a row to the field. A path that
    /// ends at an object gates each of its members.
    pub path: &'static [&'static str],
    /// Exact or ratio-floor gating.
    pub policy: Policy,
}

impl Spec {
    /// A structural count at `path` in `section`'s rows, gated exactly.
    pub const fn exact(section: &'static str, path: &'static [&'static str]) -> Spec {
        Spec {
            section,
            path,
            policy: Policy::Exact,
        }
    }

    /// A timing ratio at `path` in `section`'s rows, gated at
    /// [`RATIO_FLOOR`].
    pub const fn ratio(section: &'static str, path: &'static [&'static str]) -> Spec {
        Spec {
            section,
            path,
            policy: Policy::Ratio,
        }
    }
}

/// The gated metrics of `BENCH_flow.json`.
pub const FLOW_SPECS: &[Spec] = &[
    Spec::exact("designs", &["controllers"]),
    Spec::exact("designs", &["cache_hits"]),
    Spec::exact("designs", &["cache_misses"]),
    Spec::exact("designs", &["phases", "shapes"]),
    Spec::exact("designs", &["counters"]),
    Spec::ratio("designs", &["speedup"]),
    Spec::ratio("designs", &["backends", "auto_speedup_vs_exact"]),
];

/// The gated metrics of `BENCH_sim.json`.
pub const SIM_SPECS: &[Spec] = &[
    Spec::exact("designs", &["events"]),
    Spec::exact("backends", &["lanes"]),
    Spec::exact("backends", &["events"]),
    Spec::ratio("backends", &["compiled_vs_event"]),
    Spec::exact("verification", &["otf_states"]),
    Spec::exact("verification", &["materialized_states"]),
];

/// One gate violation: the metric, both values, and why it failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// The section the metric came from (`designs` / `backends` /
    /// `verification`).
    pub section: String,
    /// The design (or verification obligation) the block belongs to.
    pub design: String,
    /// The metric: the last key of its path, or the member name of a
    /// gated object.
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

/// The rows of the report's `section` array, each with its `design` (or,
/// for a verification row, its `obligation`).
fn rows<'a>(report: &'a Json, section: &str) -> impl Iterator<Item = (&'a str, &'a Json)> {
    let rows = report.get(section).and_then(Json::as_array);
    rows.unwrap_or_default().iter().filter_map(|row| {
        let name = row.get("design").or_else(|| row.get("obligation"));
        Some((name.and_then(Json::as_str)?, row))
    })
}

/// Reads the number at `path` in the row of `design` in the report's
/// `section` array, and from nowhere else: a row that lacks the field
/// reads `None`, never another row's or another sub-object's value. A
/// missing section or design is `None` too.
pub fn design_field(report: &Json, section: &str, design: &str, path: &[&str]) -> Option<f64> {
    row(report, section, design)?.at(path)?.as_f64()
}

/// Reads and parses the report at `path`. Tolerant by construction: a
/// missing or unparsable file is `None`, as [`design_field`] reads a
/// missing design or field, so a report bin's before/after numbers are
/// simply left out.
pub fn read_report(path: &str) -> Option<Json> {
    json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// The row of `design` in the report's `section` array.
fn row<'a>(report: &'a Json, section: &str, design: &str) -> Option<&'a Json> {
    let mut rows = rows(report, section);
    rows.find(|&(name, _)| name == design).map(|(_, row)| row)
}

/// Compares one fresh report against its baseline under `specs`. Iterates
/// the *baseline's* rows: a row or gated field the fresh report lost is
/// itself a breach (the benchmark surface shrank), while rows only the
/// fresh side has are ignored (growth is not a regression). A fresh
/// report that does not parse has lost every field.
pub fn compare(baseline: &str, current: &str, specs: &[Spec]) -> Outcome {
    let mut outcome = Outcome::default();
    let baseline = match json::parse(baseline) {
        Ok(report) => report,
        Err((at, e)) => {
            outcome
                .no_baseline
                .push(format!("baseline is not JSON: byte {at}: {e}"));
            return outcome;
        }
    };
    let current = json::parse(current).unwrap_or(Json::Null);
    for spec in specs {
        for (design, base_row) in rows(&baseline, spec.section) {
            let Some(base) = base_row.at(spec.path) else {
                // The baseline itself lacks the field (e.g. an old
                // schema); nothing to gate against.
                continue;
            };
            let cur = row(&current, spec.section, design).and_then(|row| row.at(spec.path));
            let leaf = spec.path.last().copied().unwrap_or_default();
            let fields: Vec<(&str, &Json, Option<&Json>)> = match base {
                Json::Obj(members) => members
                    .iter()
                    .map(|(name, value)| (name.as_str(), value, cur.and_then(|c| c.get(name))))
                    .collect(),
                value => vec![(leaf, value, cur)],
            };
            for (metric, base, cur) in fields {
                let Some(base_value) = base.as_f64() else {
                    continue;
                };
                outcome.checked += 1;
                let cur_value = cur.and_then(Json::as_f64);
                let bad = match spec.policy {
                    // Numbers keep their source text, so a count matches
                    // exactly however large it is.
                    Policy::Exact => cur != Some(base),
                    Policy::Ratio => cur_value.is_none_or(|cur| cur < base_value * RATIO_FLOOR),
                };
                if bad {
                    outcome.breaches.push(Breach {
                        section: spec.section.to_string(),
                        design: design.to_string(),
                        metric: metric.to_string(),
                        baseline: Some(base_value),
                        current: cur_value,
                        policy: spec.policy,
                    });
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
    {"design": "A", "controllers": 3, "cache_hits": 1, "cache_misses": 2, "speedup": 1.5, "backends": {"auto_prime_gen_s": 0.001, "exact_prime_gen_s": 0.001}, "phases": {"shapes": 2}, "counters": {"hfmin.worklist.explored": 0, "hfmin.cofactor.seeds": 40, "hfmin.cofactor.leaves": 41, "hfmin.engine.exact": 0, "hfmin.engine.cofactor": 2, "cluster.merged": 7, "cluster.refused": 3}},
    {"design": "B", "controllers": 12, "cache_hits": 7, "cache_misses": 5, "speedup": 1.2, "backends": {"auto_prime_gen_s": 0.002, "exact_prime_gen_s": 0.04, "auto_speedup_vs_exact": 20.0}, "phases": {"shapes": 5}, "counters": {"hfmin.worklist.explored": 48, "hfmin.cofactor.seeds": 539, "hfmin.cofactor.leaves": 540, "hfmin.engine.exact": 3, "hfmin.engine.cofactor": 28, "cluster.merged": 5, "cluster.refused": 12}}
  ]
}"#;

    #[test]
    fn identical_reports_pass() {
        let outcome = compare(FLOW, FLOW, FLOW_SPECS);
        assert!(outcome.pass(), "breaches: {:?}", outcome.breaches);
        // 2 designs x 13 specs, less A's backend ratio, which A's row
        // lacks because its backends run the same engines.
        assert_eq!(outcome.checked, 25);
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
        // Counts compare exactly, past where an f64 rounds 2^53 + 1 down.
        let big = FLOW.replace(
            "\"cluster.merged\": 5",
            "\"cluster.merged\": 9007199254740993",
        );
        let rounded = big.replace("9007199254740993", "9007199254740992");
        assert_eq!(compare(&big, &rounded, FLOW_SPECS).breaches.len(), 1);
        // So is one more refused merge.
        let drifted = FLOW.replace("\"cluster.refused\": 3", "\"cluster.refused\": 4");
        let outcome = compare(FLOW, &drifted, FLOW_SPECS);
        assert_eq!(outcome.breaches.len(), 1);
        let b = &outcome.breaches[0];
        assert_eq!(
            (b.design.as_str(), b.metric.as_str()),
            ("A", "cluster.refused")
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
        // A row whose baseline carries no backend ratio gates none, even
        // when the fresh report writes one.
        let added = FLOW.replace(
            "\"exact_prime_gen_s\": 0.001}",
            "\"exact_prime_gen_s\": 0.001, \"auto_speedup_vs_exact\": 0.01}",
        );
        assert!(compare(FLOW, &added, FLOW_SPECS).pass());
    }

    #[test]
    fn lost_design_and_lost_field_breach() {
        let lost_design = FLOW.replace("\"design\": \"B\"", "\"design\": \"Z\"");
        let outcome = compare(FLOW, &lost_design, FLOW_SPECS);
        // All thirteen of B's gated metrics go missing.
        assert_eq!(outcome.breaches.len(), 13);
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
    fn a_field_is_read_only_at_its_path_in_its_own_row() -> Result<(), (usize, String)> {
        // Both sub-objects hold `wall_s`; only the event one is gated.
        let report = r#"{"backends": [
    {"design": "A", "compiled": {"wall_s": 0.001}, "event": {"wall_s": 0.009}}
]}"#;
        let parsed = json::parse(report)?;
        let event_wall = &["event", "wall_s"][..];
        assert_eq!(
            design_field(&parsed, "backends", "A", event_wall),
            Some(0.009)
        );
        let specs = &[Spec::exact("backends", &["event", "wall_s"])];
        let compiled_drift = report.replace("0.001", "0.002");
        assert!(compare(report, &compiled_drift, specs).pass());
        let event_drift = report.replace("0.009", "0.008");
        assert_eq!(compare(report, &event_drift, specs).breaches.len(), 1);
        // A row whose only "speedup"-like field is the nested backend
        // ratio lacks `speedup`; it does not borrow the other.
        let row = r#"{"designs": [{"design": "A", "backends": {"auto_speedup_vs_exact": 2.0}}]}"#;
        assert_eq!(
            design_field(&json::parse(row)?, "designs", "A", &["speedup"]),
            None
        );
        let base = r#"{"designs": [{"design": "A", "speedup": 2.0, "backends": {"auto_speedup_vs_exact": 2.0}}]}"#;
        let outcome = compare(base, row, FLOW_SPECS);
        assert_eq!(outcome.checked, 2);
        assert_eq!(outcome.breaches.len(), 1);
        let b = &outcome.breaches[0];
        assert_eq!((b.metric.as_str(), b.current), ("speedup", None));
        Ok(())
    }

    #[test]
    fn every_counter_of_a_row_is_gated() {
        // A count both rows carry is gated with no spec naming it.
        let with_new = FLOW.replace(
            "\"cluster.refused\": 12}",
            "\"cluster.refused\": 12, \"x.new\": 4}",
        );
        assert_eq!(compare(&with_new, &with_new, FLOW_SPECS).checked, 26);
        let drifted = with_new.replace("\"x.new\": 4", "\"x.new\": 5");
        let outcome = compare(&with_new, &drifted, FLOW_SPECS);
        assert_eq!(outcome.breaches.len(), 1);
        let b = &outcome.breaches[0];
        assert_eq!((b.design.as_str(), b.metric.as_str()), ("B", "x.new"));
        // The fresh side losing it is a breach too.
        assert_eq!(compare(&with_new, FLOW, FLOW_SPECS).breaches.len(), 1);
    }

    #[test]
    fn design_field_reads_only_the_named_row() -> Result<(), (usize, String)> {
        let report = json::parse(
            r#"{"designs": [
    {"design": "Stack", "cached_parallel_s": 0.004},
    {"design": "Microprocessor core", "reference_s": 0.015, "cached_parallel_s": 0.012}
]}"#,
        )?;
        let field = |section, design, key| design_field(&report, section, design, &[key]);
        // Stack lacks the field; the next row's value must not leak in.
        assert_eq!(field("designs", "Stack", "reference_s"), None);
        assert_eq!(field("designs", "Stack", "cached_parallel_s"), Some(0.004));
        assert_eq!(
            field("designs", "Microprocessor core", "reference_s"),
            Some(0.015)
        );
        assert_eq!(field("designs", "Absent", "reference_s"), None);
        assert_eq!(field("backends", "Stack", "reference_s"), None);
        Ok(())
    }

    #[test]
    fn a_breach_reads_back_value_for_value() -> Result<(), (usize, String)> {
        let breach = Breach {
            section: "verification".to_string(),
            design: "a\"b\\c\td\u{1}".to_string(),
            metric: "otf_states".to_string(),
            baseline: Some(123.0),
            current: None,
            policy: Policy::Exact,
        };
        let parsed = json::parse(&breach.to_json())?;
        let text = |key| parsed.get(key).and_then(Json::as_str);
        assert_eq!(text("section"), Some("verification"));
        assert_eq!(text("design"), Some(breach.design.as_str()));
        assert_eq!(text("metric"), Some("otf_states"));
        assert_eq!(text("policy"), Some("exact"));
        assert_eq!(parsed.get("baseline").and_then(Json::as_f64), Some(123.0));
        assert_eq!(parsed.get("current"), Some(&Json::Null));
        Ok(())
    }

    #[test]
    fn every_truncation_of_the_committed_sim_report_parses_or_errs() {
        let report = include_str!("../../../BENCH_sim.json");
        assert!(compare(report, report, SIM_SPECS).pass());
        for cut in (0..report.len()).filter(|&cut| report.is_char_boundary(cut)) {
            let prefix = &report[..cut];
            let whole = prefix.trim_end() == report.trim_end();
            assert_eq!(json::parse(prefix).is_ok(), whole, "cut at {cut}");
            assert_eq!(
                compare(report, prefix, SIM_SPECS).pass(),
                whole,
                "cut at {cut}"
            );
        }
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
