//! Trace exporters: Chrome trace-event JSON (`chrome://tracing`,
//! [Perfetto](https://ui.perfetto.dev)), a JSONL event log, span-tree
//! canonicalization (the determinism tests compare trees, not timestamps),
//! trace validation, and a dependency-free JSON well-formedness checker
//! used by `obs_report --check`.

use crate::ring::{Drained, RecordKind, Sample};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A flushed trace: every lane's records (sorted by timestamp; stable, so
/// same-lane order survives ties), the callsite table to resolve names, the
/// lane names, and the drop count.
#[derive(Debug, Default)]
pub struct Trace {
    /// Records across all lanes, sorted by `t_ns`.
    pub events: Vec<Sample>,
    /// Callsite id `i + 1` → `(name, category)`.
    pub callsites: Vec<(&'static str, &'static str)>,
    /// `(lane, thread name)` per recording lane.
    pub lanes: Vec<(u32, String)>,
    /// Records dropped to full rings.
    pub dropped: u64,
    /// The producing process's run id (see [`crate::run_id`]); stamped by
    /// [`crate::flush`] so the JSONL stream is self-describing.
    pub run: u64,
    /// Dynamic string table (annotation values): id `i + 1` → string.
    pub strings: Vec<String>,
}

impl Trace {
    /// Assembles a trace from drained rings plus the callsite table.
    pub fn from_drained(drained: Drained, callsites: Vec<(&'static str, &'static str)>) -> Trace {
        let Drained {
            mut samples,
            lanes,
            dropped,
        } = drained;
        samples.sort_by_key(|s| s.rec.t_ns);
        Trace {
            events: samples,
            callsites,
            lanes,
            dropped,
            run: 0,
            strings: Vec::new(),
        }
    }

    /// The name of a callsite id (empty for unknown ids).
    pub fn name(&self, callsite: u32) -> &'static str {
        self.callsites
            .get(callsite.wrapping_sub(1) as usize)
            .map_or("", |(n, _)| n)
    }

    /// The category of a callsite id (empty for unknown ids).
    pub fn cat(&self, callsite: u32) -> &'static str {
        self.callsites
            .get(callsite.wrapping_sub(1) as usize)
            .map_or("", |(_, c)| c)
    }

    /// Whether any record came from the named callsite.
    pub fn has_callsite(&self, name: &str) -> bool {
        self.events
            .iter()
            .any(|s| self.name(s.rec.callsite) == name)
    }

    /// Resolves a dynamic string id (the `value` of an `AnnotateStr`
    /// record) against the string table; empty for unknown ids.
    pub fn string(&self, id: i64) -> &str {
        usize::try_from(id)
            .ok()
            .and_then(|ix| self.strings.get(ix.wrapping_sub(1)))
            .map_or("", String::as_str)
    }
}

/// Escapes `s` for a JSON string literal: quotes, backslashes and every
/// control character.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the trace in Chrome trace-event format (JSON object form). Spans
/// become `B`/`E` duration events on their real lane (`tid`), instants
/// become `i` events, and counter deltas become `C` events carrying the
/// name's running total, so each count reads as a counter track — the
/// parallel fan-out shows up as one lane per worker thread. Open
/// `chrome://tracing` or Perfetto and load the file.
pub fn export_chrome(trace: &Trace) -> String {
    let mut totals: HashMap<&str, i64> = HashMap::new();
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&line);
    };
    for (lane, name) in &trace.lanes {
        let escaped = escape(name);
        push(
            format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {lane}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{escaped}\"}}}}"
            ),
            &mut out,
        );
    }
    for s in &trace.events {
        let name = trace.name(s.rec.callsite);
        let cat = trace.cat(s.rec.callsite);
        let cat = if cat.is_empty() { "bmbe" } else { cat };
        let ts = s.rec.t_ns as f64 / 1000.0; // Chrome wants microseconds.
        let line = match s.rec.kind {
            RecordKind::Open => format!(
                "{{\"ph\": \"B\", \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}, \"name\": \"{name}\", \
                 \"cat\": \"{cat}\", \"args\": {{\"span\": {}, \"parent\": {}}}}}",
                s.lane, s.rec.span, s.rec.parent
            ),
            RecordKind::Close => format!(
                "{{\"ph\": \"E\", \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}, \"name\": \"{name}\", \
                 \"cat\": \"{cat}\", \"args\": {{\"span\": {}}}}}",
                s.lane, s.rec.span
            ),
            RecordKind::Instant => format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}, \"name\": \"{name}\", \
                 \"cat\": \"{cat}\", \"s\": \"t\", \"args\": {{\"value\": {}}}}}",
                s.lane, s.rec.value
            ),
            RecordKind::Counter => {
                let total = totals.entry(name).or_insert(0);
                *total += s.rec.value;
                format!(
                    "{{\"ph\": \"C\", \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}, \
                     \"name\": \"{name}\", \"args\": {{\"value\": {total}}}}}",
                    s.lane
                )
            }
            RecordKind::AnnotateNum => format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}, \"name\": \"{name}\", \
                 \"cat\": \"{cat}\", \"s\": \"t\", \"args\": {{\"span\": {}, \"value\": {}}}}}",
                s.lane, s.rec.span, s.rec.value
            ),
            RecordKind::AnnotateStr => {
                let escaped = escape(trace.string(s.rec.value));
                format!(
                    "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}, \
                     \"name\": \"{name}\", \"cat\": \"{cat}\", \"s\": \"t\", \
                     \"args\": {{\"span\": {}, \"str\": \"{escaped}\"}}}}",
                    s.lane, s.rec.span
                )
            }
        };
        push(line, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Renders the trace as one JSON object per line (JSONL): a machine-
/// greppable event log with names resolved.
///
/// The stream is self-describing: the first line is a `meta` record
/// carrying the producing run's id (`{"kind": "meta", "run": "<16 hex>",
/// ...}`), so the JSONL files of several fleet processes can be merged by
/// plain concatenation — every following event line belongs to the most
/// recent `meta` run, and span ids are only unique *within* one run.
/// [`crate::analyze`] consumes exactly this format.
pub fn export_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"kind\": \"meta\", \"run\": \"{:016x}\", \"lanes\": {}, \"dropped\": {}}}",
        trace.run,
        trace.lanes.len(),
        trace.dropped
    );
    for s in &trace.events {
        let kind = match s.rec.kind {
            RecordKind::Open => "open",
            RecordKind::Close => "close",
            RecordKind::Instant => "instant",
            RecordKind::Counter => "counter",
            RecordKind::AnnotateNum => "annot",
            RecordKind::AnnotateStr => "annot",
        };
        if s.rec.kind == RecordKind::AnnotateStr {
            let escaped = escape(trace.string(s.rec.value));
            let _ = writeln!(
                out,
                "{{\"kind\": \"annot\", \"name\": \"{}\", \"t_ns\": {}, \"lane\": {}, \
                 \"span\": {}, \"parent\": 0, \"str\": \"{escaped}\"}}",
                trace.name(s.rec.callsite),
                s.rec.t_ns,
                s.lane,
                s.rec.span,
            );
            continue;
        }
        let _ = writeln!(
            out,
            "{{\"kind\": \"{kind}\", \"name\": \"{}\", \"t_ns\": {}, \"lane\": {}, \
             \"span\": {}, \"parent\": {}, \"value\": {}}}",
            trace.name(s.rec.callsite),
            s.rec.t_ns,
            s.lane,
            s.rec.span,
            s.rec.parent,
            s.rec.value
        );
    }
    out
}

/// Checks trace well-formedness: every opened span closes exactly once,
/// spans close on the lane that opened them in LIFO order, no record refers
/// to an unregistered callsite, and no records were dropped.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate(trace: &Trace) -> Result<(), String> {
    if trace.dropped > 0 {
        return Err(format!("{} records dropped to full rings", trace.dropped));
    }
    // Per-lane open-span stacks.
    let mut stacks: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut closed: HashMap<u64, u32> = HashMap::new();
    for s in &trace.events {
        if s.rec.callsite == 0 || s.rec.callsite as usize > trace.callsites.len() {
            return Err(format!(
                "record with unknown callsite id {}",
                s.rec.callsite
            ));
        }
        match s.rec.kind {
            RecordKind::Open => stacks.entry(s.lane).or_default().push(s.rec.span),
            RecordKind::Close => {
                let stack = stacks.entry(s.lane).or_default();
                match stack.pop() {
                    Some(top) if top == s.rec.span => {}
                    Some(top) => {
                        return Err(format!(
                            "lane {}: span {} closed while span {top} was innermost",
                            s.lane, s.rec.span
                        ))
                    }
                    None => {
                        return Err(format!(
                            "lane {}: span {} closed with no span open",
                            s.lane, s.rec.span
                        ))
                    }
                }
                *closed.entry(s.rec.span).or_insert(0) += 1;
            }
            RecordKind::Instant
            | RecordKind::Counter
            | RecordKind::AnnotateNum
            | RecordKind::AnnotateStr => {}
        }
    }
    for (lane, stack) in &stacks {
        if let Some(span) = stack.last() {
            return Err(format!("lane {lane}: span {span} never closed"));
        }
    }
    if let Some((span, n)) = closed.iter().find(|(_, &n)| n > 1) {
        return Err(format!("span {span} closed {n} times"));
    }
    Ok(())
}

/// The canonical form of the trace's span forest: nesting by parent links,
/// timestamps, thread ids, and sibling order all erased. Two runs of the
/// same work — serial or fanned out — produce equal canonical forms, which
/// is exactly what the flow determinism test asserts.
///
/// The form is a string: `name(child,child,...)` with children sorted
/// lexicographically by their own canonical forms.
pub fn canonical_span_forest(trace: &Trace) -> String {
    struct Node {
        name: &'static str,
        children: Vec<usize>,
    }
    let mut nodes: Vec<Node> = Vec::new();
    let mut by_span: HashMap<u64, usize> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for s in &trace.events {
        if s.rec.kind != RecordKind::Open {
            continue;
        }
        let ix = nodes.len();
        nodes.push(Node {
            name: trace.name(s.rec.callsite),
            children: Vec::new(),
        });
        by_span.insert(s.rec.span, ix);
        match by_span.get(&s.rec.parent) {
            Some(&p) if s.rec.parent != 0 => nodes[p].children.push(ix),
            _ => roots.push(ix),
        }
    }
    fn render(nodes: &[Node], ix: usize) -> String {
        let mut kids: Vec<String> = nodes[ix]
            .children
            .iter()
            .map(|&c| render(nodes, c))
            .collect();
        kids.sort();
        if kids.is_empty() {
            nodes[ix].name.to_string()
        } else {
            format!("{}({})", nodes[ix].name, kids.join(","))
        }
    }
    let mut rendered: Vec<String> = roots.iter().map(|&r| render(&nodes, r)).collect();
    rendered.sort();
    rendered.join(";")
}

/// A dependency-free JSON well-formedness check (objects, arrays, strings
/// with escapes, numbers, booleans, null). Accepts exactly one top-level
/// value. Used by `obs_report --check` to prove the emitted `trace.json`
/// parses.
///
/// # Errors
///
/// Returns `(byte offset, description)` of the first syntax error.
pub fn validate_json(text: &str) -> Result<(), (usize, String)> {
    let b = text.as_bytes();
    let mut i = 0usize;
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Result<(), (usize, String)> {
        skip_ws(b, i);
        match b.get(*i) {
            None => Err((*i, "unexpected end of input".into())),
            Some(b'{') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b'"') {
                        return Err((*i, "expected object key".into()));
                    }
                    string(b, i)?;
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err((*i, "expected ':'".into()));
                    }
                    *i += 1;
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err((*i, "expected ',' or '}'".into())),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err((*i, "expected ',' or ']'".into())),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, "true"),
            Some(b'f') => literal(b, i, "false"),
            Some(b'n') => literal(b, i, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            Some(c) => Err((*i, format!("unexpected byte {:?}", *c as char))),
        }
    }
    fn string(b: &[u8], i: &mut usize) -> Result<(), (usize, String)> {
        *i += 1; // opening quote
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                        Some(b'u') => {
                            if b.len() < *i + 5
                                || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                            {
                                return Err((*i, "bad \\u escape".into()));
                            }
                            *i += 5;
                        }
                        _ => return Err((*i, "bad escape".into())),
                    }
                }
                c if c < 0x20 => return Err((*i, "raw control character in string".into())),
                _ => *i += 1,
            }
        }
        Err((*i, "unterminated string".into()))
    }
    fn literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), (usize, String)> {
        if b[*i..].starts_with(lit.as_bytes()) {
            *i += lit.len();
            Ok(())
        } else {
            Err((*i, format!("expected {lit}")))
        }
    }
    fn number(b: &[u8], i: &mut usize) -> Result<(), (usize, String)> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        let mut digits = 0;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err((start, "bad number".into()));
        }
        if b.get(*i) == Some(&b'.') {
            *i += 1;
            if !b.get(*i).is_some_and(u8::is_ascii_digit) {
                return Err((*i, "bad fraction".into()));
            }
            while b.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
        }
        if matches!(b.get(*i), Some(b'e' | b'E')) {
            *i += 1;
            if matches!(b.get(*i), Some(b'+' | b'-')) {
                *i += 1;
            }
            if !b.get(*i).is_some_and(u8::is_ascii_digit) {
                return Err((*i, "bad exponent".into()));
            }
            while b.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
        }
        Ok(())
    }
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err((i, "trailing content after top-level value".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Record;

    #[test]
    fn escape_covers_json_metacharacters() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\tz\r"), "x\\ny\\tz\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
        let every_control: String = (0..0x20u8).map(char::from).collect();
        assert_eq!(
            validate_json(&format!("\"{}\"", escape(&every_control))),
            Ok(())
        );
    }

    fn sample(kind: RecordKind, callsite: u32, span: u64, parent: u64, t_ns: u64) -> Sample {
        Sample {
            lane: 0,
            rec: Record {
                kind,
                callsite,
                span,
                parent,
                t_ns,
                value: 0,
            },
        }
    }

    fn toy_trace() -> Trace {
        // root(a,b) with a and b siblings; all on lane 0.
        Trace {
            events: vec![
                sample(RecordKind::Open, 1, 10, 0, 0),
                sample(RecordKind::Open, 2, 11, 10, 1),
                sample(RecordKind::Close, 2, 11, 0, 2),
                sample(RecordKind::Open, 3, 12, 10, 3),
                sample(RecordKind::Close, 3, 12, 0, 4),
                sample(RecordKind::Close, 1, 10, 0, 5),
            ],
            callsites: vec![("root", ""), ("b", ""), ("a", "")],
            lanes: vec![(0, "main".to_string())],
            dropped: 0,
            run: 0xabcd,
            strings: Vec::new(),
        }
    }

    #[test]
    fn validate_accepts_balanced_and_rejects_unclosed() {
        let trace = toy_trace();
        validate(&trace).expect("balanced");
        let mut bad = toy_trace();
        bad.events.pop();
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn canonical_forest_ignores_sibling_order() {
        let trace = toy_trace();
        assert_eq!(canonical_span_forest(&trace), "root(a,b)");
        // Same tree with siblings recorded in the other order.
        let mut swapped = toy_trace();
        swapped.events.swap(1, 3);
        swapped.events.swap(2, 4);
        assert_eq!(
            canonical_span_forest(&trace),
            canonical_span_forest(&swapped)
        );
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let trace = toy_trace();
        let chrome = export_chrome(&trace);
        validate_json(&chrome).unwrap_or_else(|(at, e)| panic!("at byte {at}: {e}"));
        assert!(chrome.contains("\"ph\": \"B\""));
        assert!(chrome.contains("\"tid\": 0"));
        // Every JSONL line parses too.
        for line in export_jsonl(&trace).lines() {
            validate_json(line).unwrap_or_else(|(at, e)| panic!("at byte {at}: {e}"));
        }
    }

    #[test]
    fn chrome_counter_tracks_end_at_the_counter_totals() -> Result<(), String> {
        let mut trace = toy_trace();
        trace
            .callsites
            .extend([("jobs.pending", "counter"), ("cache.hits", "counter")]);
        for (callsite, t_ns, delta) in [(4, 6, 3), (5, 7, 2), (4, 8, -1), (5, 9, 4), (4, 10, -2)] {
            let mut s = sample(RecordKind::Counter, callsite, 0, 0, t_ns);
            s.rec.value = delta;
            trace.events.push(s);
        }
        let chrome = export_chrome(&trace);
        assert_eq!(validate_json(&chrome), Ok(()));
        let field = |line: &str, key: &str, end: char| {
            let at = line.find(key)? + key.len();
            line[at..].split(end).next().map(str::to_string)
        };
        let mut last = std::collections::BTreeMap::new();
        for line in chrome.lines().filter(|l| l.contains("\"ph\": \"C\"")) {
            let total = field(line, "\"value\": ", '}').and_then(|v| v.parse::<i64>().ok());
            let name = field(line, "\"name\": \"", '"').ok_or("C event without a name")?;
            last.insert(name, total.ok_or("C event without a total")?);
        }
        let totals = crate::analyze::parse_merged(&export_jsonl(&trace))?.counter_totals()?;
        assert_eq!(last, totals);
        assert_eq!((totals["jobs.pending"], totals["cache.hits"]), (0, 6));
        Ok(())
    }

    #[test]
    fn json_validator_rejects_malformed() {
        assert!(validate_json("{\"a\": 1}").is_ok());
        assert!(validate_json("[1, 2.5e-3, \"x\\n\", true, null]").is_ok());
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("[1, 2").is_err());
        assert!(validate_json("{} extra").is_err());
        assert!(validate_json("\"unterminated").is_err());
    }
}
