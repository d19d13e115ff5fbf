//! Fleet trace analysis: merged-JSONL parsing, span-tree reconstruction,
//! per-phase self-time vs wall-time, critical-path extraction,
//! singleflight wait attribution, and counter totals.
//!
//! The input is the self-describing JSONL stream of
//! [`crate::export::export_jsonl`]: each process's stream starts with a
//! `meta` line carrying its run id, and merging the cold and warm processes
//! of a batch fleet is plain concatenation. Span ids are only unique within
//! one run, so every span here is keyed by `(run, span)` — correlation
//! relies on distinct per-process run ids (see [`crate::run_id`]).
//!
//! The analyzer is consumed by the `trace_report` bench bin, by the fleet
//! tests, and by every report or test that reads a count: counts are trace
//! records, and [`MergedTrace::counter_totals`] is their one reader. It has
//! no dependencies beyond this crate.

use crate::json::{self, Json};
use std::collections::{BTreeMap, HashMap};

/// One reconstructed span.
#[derive(Debug)]
pub struct SpanNode {
    /// Producing run id.
    pub run: u64,
    /// Span id (unique within `run`).
    pub id: u64,
    /// Span name (resolved callsite).
    pub name: String,
    /// Recording lane (thread) within the run.
    pub lane: u32,
    /// Open timestamp, ns since the producing process's trace epoch.
    pub start_ns: u64,
    /// Close timestamp (== `start_ns` if the close record is missing).
    pub end_ns: u64,
    /// Index of the parent node in [`MergedTrace::nodes`].
    pub parent: Option<usize>,
    /// Indices of child nodes.
    pub children: Vec<usize>,
    /// Numeric annotations attached to this span, in record order.
    pub nums: Vec<(String, i64)>,
    /// String annotations attached to this span, in record order.
    pub strs: Vec<(String, String)>,
}

impl SpanNode {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The first numeric annotation named `key`.
    pub fn num(&self, key: &str) -> Option<i64> {
        self.nums.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The first string annotation named `key`.
    pub fn str_annot(&self, key: &str) -> Option<&str> {
        self.strs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A merged multi-process trace: the span forest across every run.
#[derive(Debug, Default)]
pub struct MergedTrace {
    /// Run ids in first-seen order.
    pub runs: Vec<u64>,
    /// Every reconstructed span.
    pub nodes: Vec<SpanNode>,
    /// Indices of root spans (no parent within their run).
    pub roots: Vec<usize>,
    /// Total event lines parsed (excluding `meta` lines).
    pub lines: usize,
    /// `(run, records dropped)` from each stream's `meta` line, in order.
    dropped: Vec<(u64, u64)>,
    /// Counter deltas summed per name, across every stream.
    counters: BTreeMap<String, i64>,
}

/// One segment of the fleet critical path.
#[derive(Debug)]
pub struct PathSegment {
    /// Node index in [`MergedTrace::nodes`].
    pub node: usize,
    /// Span name.
    pub name: String,
    /// Producing run.
    pub run: u64,
    /// Span duration.
    pub dur_ns: u64,
    /// Time this segment contributes beyond its on-path child (the
    /// segment durations telescope: the `self_ns` values sum to the
    /// root's duration).
    pub self_ns: u64,
}

/// The fleet critical path: the chain of last-finishing spans from the
/// longest root down to a leaf.
#[derive(Debug, Default)]
pub struct CriticalPath {
    /// Root-to-leaf segments.
    pub segments: Vec<PathSegment>,
    /// Duration of the root segment — the fleet wall time this path
    /// explains (the segments' `self_ns` sum to exactly this).
    pub total_ns: u64,
}

/// Aggregated wall/self time for one span name ("phase").
#[derive(Debug)]
pub struct PhaseRow {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations.
    pub wall_ns: u64,
    /// Sum of self times (duration minus direct children, floored at 0
    /// per span — cross-thread children can overlap their parent).
    pub self_ns: u64,
}

/// Singleflight wait time attributed to one shape digest.
#[derive(Debug)]
pub struct WaitRow {
    /// Shape digest (the `CacheKey` digest the registry keyed on).
    pub digest: u64,
    /// Number of waiting resolutions.
    pub waits: u64,
    /// Total microseconds the fleet spent blocked on this shape: the
    /// waiters' `wait.us` annotations.
    pub wait_us: u64,
    /// Run that owned (synthesized) the shape, when its claim span is in
    /// the merged trace.
    pub owner_run: Option<u64>,
    /// Duration of the owner's claim span.
    pub owner_dur_ns: u64,
    /// Name of the longest span inside the owner's claim subtree — the
    /// phase the waiters were actually blocked on (e.g.
    /// `hfmin.prime_gen`).
    pub owner_hotspot: Option<String>,
}

/// Parses a merged JSONL stream (one or more concatenated
/// [`crate::export::export_jsonl`] outputs) into a span forest. Each line
/// is parsed whole by [`crate::json::parse`].
///
/// # Errors
///
/// Returns a message naming the first malformed line (1-based) and, for
/// a syntax error, its byte offset.
pub fn parse_merged(text: &str) -> Result<MergedTrace, String> {
    let mut out = MergedTrace::default();
    // (run, span id) -> node index, for parenting and annotations.
    let mut open: HashMap<(u64, u64), usize> = HashMap::new();
    let mut run = 0u64;
    for (ix, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = ix + 1;
        let record =
            json::parse(line).map_err(|(at, e)| format!("line {lineno}: byte {at}: {e}"))?;
        let text_of = |key: &str| record.get(key).and_then(Json::as_str);
        let num_of = |key: &str| record.get(key).and_then(Json::as_i64);
        let missing = |key: &str| format!("line {lineno}: missing {key:?} field");
        let kind = text_of("kind").ok_or_else(|| missing("kind"))?;
        if kind == "meta" {
            let hex = text_of("run").ok_or_else(|| missing("run"))?;
            run = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("line {lineno}: bad run id {hex:?}"))?;
            if !out.runs.contains(&run) {
                out.runs.push(run);
            }
            out.dropped
                .push((run, num_of("dropped").unwrap_or(0) as u64));
            continue;
        }
        out.lines += 1;
        let name = text_of("name").ok_or_else(|| missing("name"))?.to_string();
        let t_ns = num_of("t_ns").ok_or_else(|| missing("t_ns"))? as u64;
        let span = num_of("span").unwrap_or(0) as u64;
        match kind {
            "open" => {
                let parent_id = num_of("parent").unwrap_or(0) as u64;
                let parent = if parent_id == 0 {
                    None
                } else {
                    open.get(&(run, parent_id)).copied()
                };
                let node = out.nodes.len();
                out.nodes.push(SpanNode {
                    run,
                    id: span,
                    name,
                    lane: num_of("lane").unwrap_or(0) as u32,
                    start_ns: t_ns,
                    end_ns: t_ns,
                    parent,
                    children: Vec::new(),
                    nums: Vec::new(),
                    strs: Vec::new(),
                });
                match parent {
                    Some(p) => out.nodes[p].children.push(node),
                    None => out.roots.push(node),
                }
                open.insert((run, span), node);
            }
            "close" => {
                if let Some(&node) = open.get(&(run, span)) {
                    out.nodes[node].end_ns = t_ns;
                }
            }
            "annot" => {
                if let Some(&node) = open.get(&(run, span)) {
                    if let Some(s) = text_of("str") {
                        out.nodes[node].strs.push((name, s.to_string()));
                    } else if let Some(v) = num_of("value") {
                        out.nodes[node].nums.push((name, v));
                    }
                }
            }
            "counter" => {
                let total = out.counters.entry(name).or_insert(0);
                *total = num_of("value")
                    .and_then(|delta| total.checked_add(delta))
                    .ok_or_else(|| {
                        format!("line {lineno}: counter value missing or overflowing")
                    })?;
            }
            // Instants don't shape the span forest.
            "instant" => {}
            other => return Err(format!("line {lineno}: unknown record kind {other:?}")),
        }
    }
    Ok(out)
}

/// Runs `work` with tracing on and returns its result with the trace of
/// the records it left. Records left from earlier work are drained first,
/// and tracing returns to its previous state after.
///
/// # Errors
///
/// The exported stream failed to parse.
pub fn traced<T>(work: impl FnOnce() -> T) -> Result<(T, MergedTrace), String> {
    let was_enabled = crate::enabled();
    drop(crate::flush());
    crate::set_enabled(true);
    let out = work();
    crate::set_enabled(was_enabled);
    let trace = parse_merged(&crate::export::export_jsonl(&crate::flush()))?;
    Ok((out, trace))
}

impl MergedTrace {
    /// Every count the merged streams recorded: the `trace_counter!` deltas
    /// summed per name.
    ///
    /// # Errors
    ///
    /// Names the run of a stream that dropped records to a full ring,
    /// whose counts would otherwise read low.
    pub fn counter_totals(&self) -> Result<BTreeMap<String, i64>, String> {
        match self.dropped.iter().find(|&&(_, n)| n > 0) {
            Some((run, n)) => Err(format!(
                "run {run:016x} dropped {n} trace records, so its counts are incomplete"
            )),
            None => Ok(self.counters.clone()),
        }
    }

    /// Aggregates wall time and self time per span name, sorted by self
    /// time descending.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let mut by_name: HashMap<&str, PhaseRow> = HashMap::new();
        for node in &self.nodes {
            let kids: u64 = node.children.iter().map(|&c| self.nodes[c].dur_ns()).sum();
            let row = by_name.entry(&node.name).or_insert_with(|| PhaseRow {
                name: node.name.clone(),
                count: 0,
                wall_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.wall_ns += node.dur_ns();
            row.self_ns += node.dur_ns().saturating_sub(kids);
        }
        let mut rows: Vec<PhaseRow> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        rows
    }

    /// Extracts the fleet critical path: starting from the
    /// longest-duration root span, repeatedly descend into the child that
    /// finishes last (the child gating the parent's close). The segments'
    /// `self_ns` telescope to the root's duration, so the path's total
    /// always equals the wall time of the longest root.
    pub fn critical_path(&self) -> CriticalPath {
        let Some(&root) = self.roots.iter().max_by_key(|&&r| {
            // Deterministic across merge orders: break duration ties by
            // (run, span id).
            (self.nodes[r].dur_ns(), self.nodes[r].run, self.nodes[r].id)
        }) else {
            return CriticalPath::default();
        };
        let total_ns = self.nodes[root].dur_ns();
        let mut segments = Vec::new();
        let mut at = root;
        loop {
            let node = &self.nodes[at];
            let next = node
                .children
                .iter()
                .copied()
                .max_by_key(|&c| (self.nodes[c].end_ns, self.nodes[c].id));
            let child_dur = next.map_or(0, |c| self.nodes[c].dur_ns());
            segments.push(PathSegment {
                node: at,
                name: node.name.clone(),
                run: node.run,
                dur_ns: node.dur_ns(),
                self_ns: node.dur_ns().saturating_sub(child_dur),
            });
            match next {
                Some(c) => at = c,
                None => break,
            }
        }
        CriticalPath { segments, total_ns }
    }

    /// Attributes singleflight wait time to owning shapes: sums the
    /// `wait.us` annotations of `batch.wait` spans per `shape.digest`, and
    /// correlates each digest with the run that claimed (synthesized) it
    /// via its `batch.claim` span — including the longest span inside the
    /// claim subtree, the phase the waiters were actually blocked on.
    /// Rows sort by total wait descending.
    pub fn wait_attribution(&self) -> Vec<WaitRow> {
        let mut rows: HashMap<u64, WaitRow> = HashMap::new();
        for node in &self.nodes {
            if node.name != "batch.wait" {
                continue;
            }
            let (Some(digest), Some(us)) = (node.num("shape.digest"), node.num("wait.us")) else {
                continue;
            };
            let row = rows.entry(digest as u64).or_insert_with(|| WaitRow {
                digest: digest as u64,
                waits: 0,
                wait_us: 0,
                owner_run: None,
                owner_dur_ns: 0,
                owner_hotspot: None,
            });
            row.waits += 1;
            row.wait_us += us.max(0) as u64;
        }
        for (ix, node) in self.nodes.iter().enumerate() {
            if node.name != "batch.claim" {
                continue;
            }
            let Some(digest) = node.num("shape.digest") else {
                continue;
            };
            if let Some(row) = rows.get_mut(&(digest as u64)) {
                row.owner_run = Some(node.run);
                row.owner_dur_ns = node.dur_ns();
                row.owner_hotspot = self.hotspot_below(ix).map(|h| self.nodes[h].name.clone());
            }
        }
        let mut rows: Vec<WaitRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.wait_us.cmp(&a.wait_us).then(a.digest.cmp(&b.digest)));
        rows
    }

    /// The longest-duration strict descendant of `ix` (None for leaves).
    fn hotspot_below(&self, ix: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut stack: Vec<usize> = self.nodes[ix].children.clone();
        while let Some(at) = stack.pop() {
            if best.is_none_or(|b| {
                let (cand, cur) = (&self.nodes[at], &self.nodes[b]);
                (cand.dur_ns(), cand.run, cand.id) > (cur.dur_ns(), cur.run, cur.id)
            }) {
                best = Some(at);
            }
            stack.extend_from_slice(&self.nodes[at].children);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_stream(run: &str, base: u64) -> String {
        // root(work(slow), fast) — slow is the last-finishing grandchild.
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"kind\": \"meta\", \"run\": \"{run}\", \"lanes\": 1, \"dropped\": 0}}\n"
        ));
        let ev = |kind: &str, name: &str, t: u64, span: u64, parent: u64| {
            format!(
                "{{\"kind\": \"{kind}\", \"name\": \"{name}\", \"t_ns\": {t}, \"lane\": 0, \
                 \"span\": {span}, \"parent\": {parent}, \"value\": 0}}\n"
            )
        };
        s.push_str(&ev("open", "root", base, 1, 0));
        s.push_str(&ev("open", "fast", base + 1, 2, 1));
        s.push_str(&ev("close", "fast", base + 3, 2, 0));
        s.push_str(&ev("open", "work", base + 4, 3, 1));
        s.push_str(&ev("open", "slow", base + 5, 4, 3));
        s.push_str(
            "{\"kind\": \"annot\", \"name\": \"shape.digest\", \"t_ns\": 6, \"lane\": 0, \
             \"span\": 4, \"parent\": 0, \"value\": 42}\n",
        );
        s.push_str(&ev("close", "slow", base + 90, 4, 0));
        s.push_str(&ev("close", "work", base + 95, 3, 0));
        s.push_str(&ev("close", "root", base + 100, 1, 0));
        s
    }

    #[test]
    fn merged_streams_reconstruct_per_run_forests() {
        let merged = format!(
            "{}{}",
            toy_stream("00000000000000aa", 0),
            toy_stream("bb", 1000)
        );
        let t = parse_merged(&merged).expect("parse");
        assert_eq!(t.runs, vec![0xaa, 0xbb]);
        assert_eq!(t.roots.len(), 2);
        // Span ids collide across runs but the forests stay separate.
        assert_eq!(t.nodes.len(), 8);
        let root0 = &t.nodes[t.roots[0]];
        assert_eq!(
            (root0.run, root0.name.as_str(), root0.dur_ns()),
            (0xaa, "root", 100)
        );
        // Annotation landed on the right (run, span).
        let slow = t
            .nodes
            .iter()
            .find(|n| n.run == 0xaa && n.name == "slow")
            .unwrap();
        assert_eq!(slow.num("shape.digest"), Some(42));
    }

    #[test]
    fn critical_path_descends_last_finishing_children() {
        let t = parse_merged(&toy_stream("01", 0)).expect("parse");
        let cp = t.critical_path();
        let names: Vec<&str> = cp.segments.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["root", "work", "slow"]);
        assert_eq!(cp.total_ns, 100);
        let self_sum: u64 = cp.segments.iter().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, cp.total_ns, "self times telescope to the root");
    }

    #[test]
    fn critical_path_is_merge_order_invariant() {
        let a = toy_stream("0a", 0);
        let b = toy_stream("0b", 500);
        let ab = parse_merged(&format!("{a}{b}")).unwrap().critical_path();
        let ba = parse_merged(&format!("{b}{a}")).unwrap().critical_path();
        assert_eq!(ab.total_ns, ba.total_ns);
        let names = |cp: &CriticalPath| {
            cp.segments
                .iter()
                .map(|s| (s.run, s.name.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&ab), names(&ba));
    }

    #[test]
    fn phase_rows_split_self_from_wall() {
        let t = parse_merged(&toy_stream("02", 0)).expect("parse");
        let rows = t.phase_rows();
        let row = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!(row("root").wall_ns, 100);
        // root self = 100 - (fast 2 + work 91) = 7.
        assert_eq!(row("root").self_ns, 7);
        assert_eq!(row("work").self_ns, 91 - 85);
        assert_eq!(row("slow").self_ns, 85);
    }

    #[test]
    fn wait_attribution_groups_by_digest_and_finds_owner_hotspot() {
        let mut s =
            String::from("{\"kind\": \"meta\", \"run\": \"0c\", \"lanes\": 2, \"dropped\": 0}\n");
        let ev = |kind: &str, name: &str, t: u64, span: u64, parent: u64| {
            format!(
                "{{\"kind\": \"{kind}\", \"name\": \"{name}\", \"t_ns\": {t}, \"lane\": 0, \
                 \"span\": {span}, \"parent\": {parent}, \"value\": 0}}\n"
            )
        };
        let annot = |name: &str, t: u64, span: u64, v: i64| {
            format!(
                "{{\"kind\": \"annot\", \"name\": \"{name}\", \"t_ns\": {t}, \"lane\": 0, \
                 \"span\": {span}, \"parent\": 0, \"value\": {v}}}\n"
            )
        };
        // Owner claims digest 7 and spends its time in prime generation.
        s.push_str(&ev("open", "batch.claim", 0, 1, 0));
        s.push_str(&annot("shape.digest", 1, 1, 7));
        s.push_str(&ev("open", "hfmin.prime_gen", 2, 2, 1));
        s.push_str(&ev("close", "hfmin.prime_gen", 80, 2, 0));
        s.push_str(&ev("close", "batch.claim", 90, 1, 0));
        // Two waiters blocked on the same digest.
        for (span, t, us) in [(3u64, 5u64, 40i64), (4, 6, 25)] {
            s.push_str(&ev("open", "batch.wait", t, span, 0));
            s.push_str(&annot("shape.digest", t + 1, span, 7));
            s.push_str(&annot("wait.us", t + 2, span, us));
            s.push_str(&ev("close", "batch.wait", t + 80, span, 0));
        }
        let t = parse_merged(&s).expect("parse");
        let rows = t.wait_attribution();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].digest, 7);
        assert_eq!(rows[0].waits, 2);
        assert_eq!(rows[0].wait_us, 65);
        assert_eq!(rows[0].owner_run, Some(0x0c));
        assert_eq!(rows[0].owner_hotspot.as_deref(), Some("hfmin.prime_gen"));
    }

    fn counter_line(name: &str, t: u64, delta: i64) -> String {
        format!(
            "{{\"kind\": \"counter\", \"name\": \"{name}\", \"t_ns\": {t}, \"lane\": 0, \
             \"span\": 0, \"parent\": 0, \"value\": {delta}}}\n"
        )
    }

    #[test]
    fn counter_totals_sum_signed_deltas_across_streams() -> Result<(), String> {
        let mut merged = toy_stream("0d", 0);
        merged.push_str(&counter_line("jobs.pending", 7, 3));
        merged.push_str(&counter_line("jobs.pending", 8, -1));
        merged.push_str(&toy_stream("0e", 100));
        merged.push_str(&counter_line("jobs.pending", 107, -2));
        merged.push_str(&counter_line("cache.hits", 108, 5));
        let totals = parse_merged(&merged)?.counter_totals()?;
        let totals: Vec<(&str, i64)> = totals.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        assert_eq!(totals, vec![("cache.hits", 5), ("jobs.pending", 0)]);
        Ok(())
    }

    #[test]
    fn a_lossy_stream_has_no_counter_totals() -> Result<(), String> {
        let lossy = toy_stream("0f", 0).replace("\"dropped\": 0", "\"dropped\": 1");
        let merged = format!(
            "{}{}{}",
            toy_stream("0e", 0),
            counter_line("cache.hits", 1, 2),
            lossy
        );
        let t = parse_merged(&merged)?;
        assert_eq!(t.dropped, vec![(0x0e, 0), (0x0f, 1)]);
        let err = t
            .counter_totals()
            .err()
            .ok_or("a lossy stream has no totals")?;
        assert!(err.contains("000000000000000f"), "{err}");
        // The lossy stream's spans still analyze.
        assert_eq!(t.roots.len(), 2);
        Ok(())
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_merged(&counter_line("x", 0, i64::MAX).repeat(2)).is_err());
        assert!(parse_merged("{\"nope\": 1}\n").is_err());
        assert!(parse_merged("{\"kind\": \"meta\"}\n").is_err());
        assert!(parse_merged("{\"kind\": \"wat\", \"name\": \"x\", \"t_ns\": 0}\n").is_err());
    }

    #[test]
    fn an_unterminated_line_is_an_error_naming_its_line_and_byte() {
        let line =
            "{\"kind\": \"counter\", \"name\": \"x\", \"t_ns\": 1, \"value\": 5 trailing garbage";
        assert_eq!(
            parse_merged(line).err().as_deref(),
            Some("line 1: byte 55: expected ',' or '}'")
        );
    }

    #[test]
    fn every_truncation_of_a_traced_stream_parses_or_errs() -> Result<(), String> {
        let _l = crate::tests::global_lock();
        let every_control: String = (0..0x20u8).map(char::from).collect();
        drop(crate::flush());
        crate::set_enabled(true);
        {
            let _root = crate::span!("test.trunc.root");
            crate::annotate_str!("test.trunc.label", &every_control);
            crate::annotate_num!("test.trunc.n", -3);
            crate::trace_counter!("test.trunc.count", 2);
            crate::event!("test.trunc.instant", 7);
            let _child = crate::span!("test.trunc.child");
        }
        crate::set_enabled(false);
        let stream = crate::export::export_jsonl(&crate::flush());
        // The whole stream reads back value for value.
        let trace = parse_merged(&stream)?;
        let root = trace.roots.first().map(|&r| &trace.nodes[r]);
        let root = root.ok_or("the stream has a root span")?;
        assert_eq!(
            root.str_annot("test.trunc.label"),
            Some(every_control.as_str())
        );
        assert_eq!(root.num("test.trunc.n"), Some(-3));
        assert_eq!(trace.counter_totals()?.get("test.trunc.count"), Some(&2));
        // A prefix parses exactly when it ends at a line end.
        for cut in (0..=stream.len()).filter(|&cut| stream.is_char_boundary(cut)) {
            let line_end =
                cut == 0 || stream[..cut].ends_with('\n') || stream[cut..].starts_with('\n');
            assert_eq!(
                parse_merged(&stream[..cut]).is_ok(),
                line_end,
                "cut at {cut}"
            );
        }
        Ok(())
    }
}
