//! Span recording around the benchmark's own calls into each layer.
//!
//! A [`Spans`] belongs to one worker thread. Spans stay in memory and are
//! analysed when the run ends: a span's self time is its duration minus the
//! part of it that its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Design index; every span of one design's flow shares it.
    pub design: u32,
    /// Index of the parent span in the same worker's list.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-worker span recorder. When off, [`Spans::span`] only calls its
/// closure, so the same code measures the untraced replay.
pub struct Spans {
    on: bool,
    epoch: Instant,
    design: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant) -> Spans {
        Spans {
            on,
            epoch,
            design: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` as the root span of design `design`.
    pub fn design<R>(
        &mut self,
        design: u32,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        self.design = design;
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            design: self.design,
            parent,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now();
        r
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time per span name, summed over every worker's spans, plus the
/// consistency checks the replay must pass.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Span name → summed self seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed root-span seconds (one root per design).
    pub root_s: f64,
    pub spans: usize,
    /// Nesting violations and designs whose self times do not add up to
    /// their root span.
    pub problems: Vec<String>,
}

/// Analyses each worker's spans (ids are per worker).
pub fn analyse(workers: &[Vec<Span>]) -> Analysis {
    let mut a = Analysis::default();
    for spans in workers {
        a.spans += spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push(i);
            }
        }
        let mut design_self: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let mut covered = 0u64;
            let mut last_end = s.start_ns;
            for &c in &children[i] {
                let c = &spans[c];
                if c.start_ns < last_end || c.end_ns > s.end_ns || c.design != s.design {
                    a.problems.push(format!(
                        "span {} of design {} overlaps its sibling or leaves parent {}",
                        c.name, c.design, s.name
                    ));
                }
                covered += c.end_ns - c.start_ns;
                last_end = c.end_ns;
            }
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            *a.self_s.entry(s.name).or_default() += self_ns as f64 * 1e-9;
            *design_self.entry(s.design).or_default() += self_ns;
            if s.parent == NO_PARENT {
                a.root_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
            }
        }
        for root in spans.iter().filter(|s| s.parent == NO_PARENT) {
            let total = design_self.get(&root.design).copied().unwrap_or(0);
            if total != root.end_ns - root.start_ns {
                a.problems.push(format!(
                    "design {}: self times add to {total} ns, root span is {} ns",
                    root.design,
                    root.end_ns - root.start_ns
                ));
            }
        }
    }
    a
}
