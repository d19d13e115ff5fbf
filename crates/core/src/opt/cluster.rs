//! The clustering algorithms `T1_clustering` and `T2_clustering` (§4.4).
//!
//! A [`CtrlNetlist`] is the control part of a compiled design: a set of
//! named CH programs wired by shared channel names (each internal
//! point-to-point channel appears actively in one program and passively in
//! another). `T1` repeatedly applies Activation Channel Removal across
//! internal channels; `T2` first splits call components into single-arm
//! fragments, runs `T1`, and restores any call whose fragments failed to
//! cluster into the same final controller.

use crate::ast::{ChActivity, ChExpr, InterleaveOp};
use crate::opt::acr::{activation_channel_removal_with, MergeMemo};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A named control component with its CH program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrlComponent {
    /// Component name (unique).
    pub name: String,
    /// The controller's CH program.
    pub program: ChExpr,
}

/// The control netlist the clustering algorithms operate on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CtrlNetlist {
    /// The components.
    pub components: Vec<CtrlComponent>,
}

/// Options controlling clustering.
#[derive(Debug, Clone, Copy)]
pub struct ClusterOptions {
    /// Reject merges whose BM machine exceeds this many states. The paper
    /// notes unlimited clustering blows up synthesis run time (refs. 7 and 11 there); the
    /// BM-aware restrictions already bound growth, and this is an extra
    /// guard.
    pub state_limit: Option<usize>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            state_limit: Some(40),
        }
    }
}

/// Statistics of a clustering run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterReport {
    /// Channels eliminated by successful merges.
    pub eliminated_channels: Vec<String>,
    /// Channels whose merge attempt failed, with the reason.
    pub rejected: Vec<(String, String)>,
    /// Call components distributed by `T2`.
    pub distributed_calls: Vec<String>,
    /// Call components restored because distribution failed.
    pub restored_calls: Vec<String>,
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} channels eliminated, {} rejected, {} calls distributed, {} restored",
            self.eliminated_channels.len(),
            self.rejected.len(),
            self.distributed_calls.len(),
            self.restored_calls.len()
        )
    }
}

impl CtrlNetlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        CtrlNetlist::default()
    }

    /// Adds a component.
    pub fn add(&mut self, name: impl Into<String>, program: ChExpr) {
        self.components.push(CtrlComponent {
            name: name.into(),
            program,
        });
    }

    /// Internal point-to-point channels: channel names appearing in exactly
    /// two components, actively in one and passively in the other.
    pub fn internal_channels(&self) -> Vec<InternalChannel> {
        let mut uses: BTreeMap<String, Vec<(usize, ChActivity)>> = BTreeMap::new();
        for (ci, comp) in self.components.iter().enumerate() {
            for (chan, act) in comp.program.channels() {
                uses.entry(chan).or_default().push((ci, act));
            }
        }
        let mut out = Vec::new();
        for (chan, ends) in uses {
            if ends.len() != 2 {
                continue;
            }
            let (a, b) = (ends[0], ends[1]);
            let (active, passive) = match (a.1, b.1) {
                (ChActivity::Active, ChActivity::Passive) => (a.0, b.0),
                (ChActivity::Passive, ChActivity::Active) => (b.0, a.0),
                _ => continue,
            };
            out.push(InternalChannel {
                name: chan,
                active,
                passive,
            });
        }
        out
    }

    /// `T1_clustering` (§4.4): for every internal point-to-point channel,
    /// attempt Activation Channel Removal; on success replace the two
    /// components by the merged one. Iterates until no channel merges.
    ///
    /// Channels are tried in name order, each at most once. The set of
    /// internal channels is kept up to date merge by merge and always
    /// equals what [`CtrlNetlist::internal_channels`] would report.
    ///
    /// Runs over a fresh [`MergeMemo`]; see [`CtrlNetlist::t1_clustering_with`].
    pub fn t1_clustering(&mut self, opts: &ClusterOptions) -> ClusterReport {
        self.t1_clustering_with(opts, &MergeMemo::new())
    }

    /// [`CtrlNetlist::t1_clustering`], taking each merged program's state
    /// count from `memo` and compiling only the programs it has not seen.
    /// Netlists that share a memo compile each merge shape once; the result
    /// is the same as with a fresh memo.
    pub fn t1_clustering_with(&mut self, opts: &ClusterOptions, memo: &MergeMemo) -> ClusterReport {
        let mut report = ClusterReport::default();
        let mut index = ChannelIndex::new(&self.components);
        while self.t1_step(&mut index, opts, memo, &mut report) {}
        report
    }

    /// One `T1` attempt, on the first untried internal channel. Returns
    /// `false` when none is left.
    fn t1_step(
        &mut self,
        index: &mut ChannelIndex,
        opts: &ClusterOptions,
        memo: &MergeMemo,
        report: &mut ClusterReport,
    ) -> bool {
        let Some((chan, active_id, passive_id)) = index.next_untried() else {
            return false;
        };
        let (active, passive) = (index.position(active_id), index.position(passive_id));
        let name = index.names[chan].clone();
        let activating = &self.components[active].program;
        let activated = &self.components[passive].program;
        match activation_channel_removal_with(activating, activated, &name, opts.state_limit, memo)
        {
            Ok(merged) => {
                let merged_name = format!(
                    "{}+{}",
                    self.components[active].name, self.components[passive].name
                );
                let (hi, lo) = (active.max(passive), active.min(passive));
                self.components.remove(hi);
                self.components.remove(lo);
                index.merge(active_id, passive_id, &merged);
                self.components.push(CtrlComponent {
                    name: merged_name,
                    program: merged,
                });
                report.eliminated_channels.push(name);
            }
            Err(e) => report.rejected.push((name, e.to_string())),
        }
        true
    }

    /// `T2_clustering` (§4.4): split each call component into single-arm
    /// fragments, cluster with `T1`, and restore the call if its fragments
    /// did not all end up in the same final controller.
    ///
    /// Runs over a fresh [`MergeMemo`]; see [`CtrlNetlist::t2_clustering_with`].
    pub fn t2_clustering(&mut self, opts: &ClusterOptions) -> ClusterReport {
        self.t2_clustering_with(opts, &MergeMemo::new())
    }

    /// [`CtrlNetlist::t2_clustering`] over `memo`, which the call
    /// distribution trials share (see [`CtrlNetlist::t1_clustering_with`]).
    pub fn t2_clustering_with(&mut self, opts: &ClusterOptions, memo: &MergeMemo) -> ClusterReport {
        let mut report = self.t1_clustering_with(opts, memo);
        // Tentatively distribute each remaining call component.
        loop {
            let call_ix = self
                .components
                .iter()
                .position(|c| !c.name.ends_with("!kept") && split_call(&c.program).is_some());
            let Some(ix) = call_ix else { break };
            let name = self.components[ix].name.clone();
            let fragments =
                split_call(&self.components[ix].program).expect("position() checked the shape");
            let shared = fragments.shared_channel.clone();
            let mut trial = self.clone();
            trial.components.remove(ix);
            for (fi, frag) in fragments.fragments.iter().enumerate() {
                trial.add(format!("{name}#frag{fi}"), frag.clone());
            }
            let sub = trial.t1_clustering_with(opts, memo);
            // Success: no fragment component remains, and the shared active
            // channel lives in exactly one final controller.
            let fragments_left = trial
                .components
                .iter()
                .any(|c| c.name.contains("#frag") && split_call_fragment(&c.program).is_some());
            let active_homes = trial
                .components
                .iter()
                .filter(|c| c.program.channels().get(&shared) == Some(&ChActivity::Active))
                .count();
            if !fragments_left && active_homes <= 1 {
                *self = trial;
                report.eliminated_channels.extend(sub.eliminated_channels);
                report.distributed_calls.push(name);
            } else {
                report.restored_calls.push(name.clone());
                // Leave the original call in place; mark it visited by
                // renaming (a call we keep) so the loop terminates.
                self.components[ix].name = format!("{name}!kept");
                continue;
            }
        }
        // Undo the visit markers.
        for c in &mut self.components {
            if let Some(base) = c.name.strip_suffix("!kept") {
                c.name = base.to_string();
            }
        }
        report
    }
}

/// `T1`'s view of which channels are internal, updated merge by merge: a
/// merge re-reads only the components it replaces and the merged one.
///
/// Channel ids follow name order. Components carry stable ids that follow
/// component order: the initial components are numbered in order, and a
/// merged component, which `T1` appends, takes the next id.
struct ChannelIndex {
    /// Channel names by id.
    names: Vec<String>,
    /// The stable id of each component, parallel to
    /// [`CtrlNetlist::components`].
    comp_ids: Vec<usize>,
    /// The `(channel, activity)` uses of each component by stable id, in
    /// channel order; emptied when the component is merged away.
    comp_uses: Vec<Vec<(usize, ChActivity)>>,
    /// The `(component, activity)` uses of each channel, in component
    /// order.
    uses: Vec<Vec<(usize, ChActivity)>>,
    tried: Vec<bool>,
    /// The untried internal channels, in name order.
    untried: BTreeSet<usize>,
    /// Scratch for [`ChannelIndex::read`]: the activity of each channel
    /// met so far.
    seen: Vec<Option<ChActivity>>,
}

impl ChannelIndex {
    fn new(components: &[CtrlComponent]) -> Self {
        let mut names: Vec<&str> = Vec::new();
        for c in components {
            c.program.for_each_channel(&mut |name, _| names.push(name));
        }
        names.sort_unstable();
        names.dedup();
        let n = names.len();
        let mut index = ChannelIndex {
            names: names.into_iter().map(str::to_string).collect(),
            comp_ids: Vec::with_capacity(components.len()),
            comp_uses: Vec::with_capacity(components.len()),
            uses: vec![Vec::new(); n],
            tried: vec![false; n],
            untried: BTreeSet::new(),
            seen: vec![None; n],
        };
        for c in components {
            index.push(&c.program);
        }
        index.untried = (0..n)
            .filter(|&ch| internal_ends(&index.uses[ch]).is_some())
            .collect();
        index
    }

    /// The `(channel, activity)` uses of a program, in channel order, with
    /// the activity [`ChExpr::channels`] records.
    fn read(&mut self, program: &ChExpr) -> Vec<(usize, ChActivity)> {
        let (names, seen) = (&self.names, &mut self.seen);
        let mut met = Vec::new();
        program.for_each_channel(&mut |name, activity| {
            let ch = names
                .binary_search_by(|n| n.as_str().cmp(name))
                .expect("programs only combine the netlist's channels");
            if seen[ch].replace(activity).is_none() {
                met.push(ch);
            }
        });
        met.sort_unstable();
        met.into_iter()
            .map(|ch| (ch, seen[ch].take().expect("met channels were seen")))
            .collect()
    }

    /// Appends a component, taking the next stable id.
    fn push(&mut self, program: &ChExpr) {
        let id = self.comp_uses.len();
        let uses = self.read(program);
        for &(ch, activity) in &uses {
            self.uses[ch].push((id, activity));
        }
        self.comp_uses.push(uses);
        self.comp_ids.push(id);
    }

    /// Takes the first untried internal channel: `(channel, active
    /// component, passive component)`, components by stable id.
    fn next_untried(&mut self) -> Option<(usize, usize, usize)> {
        let ch = self.untried.pop_first()?;
        self.tried[ch] = true;
        let (active, passive) =
            internal_ends(&self.uses[ch]).expect("untried channels are internal");
        Some((ch, active, passive))
    }

    /// The position in [`CtrlNetlist::components`] of a live component.
    fn position(&self, id: usize) -> usize {
        self.comp_ids
            .binary_search(&id)
            .expect("channel uses name live components")
    }

    /// Replaces components `a` and `b` (stable ids) by their merge, which
    /// the caller appends to the netlist. Only the channels of `a` and `b`
    /// are re-indexed: the merge mentions no other channel.
    fn merge(&mut self, a: usize, b: usize, merged: &ChExpr) {
        let mut touched = Vec::new();
        for old in [a, b] {
            for (ch, _) in std::mem::take(&mut self.comp_uses[old]) {
                self.uses[ch].retain(|&(c, _)| c != old);
                touched.push(ch);
            }
        }
        self.comp_ids.retain(|&c| c != a && c != b);
        self.push(merged);
        for ch in touched {
            if !self.tried[ch] && internal_ends(&self.uses[ch]).is_some() {
                self.untried.insert(ch);
            } else {
                self.untried.remove(&ch);
            }
        }
    }
}

/// The `(active, passive)` ends of a channel used by exactly two
/// components, one actively and one passively.
fn internal_ends(uses: &[(usize, ChActivity)]) -> Option<(usize, usize)> {
    match *uses {
        [(a, ChActivity::Active), (b, ChActivity::Passive)] => Some((a, b)),
        [(a, ChActivity::Passive), (b, ChActivity::Active)] => Some((b, a)),
        _ => None,
    }
}

/// An internal channel between two components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalChannel {
    /// Channel name.
    pub name: String,
    /// Index of the component holding the active end.
    pub active: usize,
    /// Index of the component holding the passive end.
    pub passive: usize,
}

/// The fragments of a split call component (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFragments {
    /// One `rep(enc-early(passive bi, active c))` per original arm.
    pub fragments: Vec<ChExpr>,
    /// The shared active channel `c`.
    pub shared_channel: String,
}

/// Recognizes an n-way call component
/// `rep(mutex(enc-early(p b1, a c), ... enc-early(p bn, a c)))` and splits
/// it into fragments. Returns `None` if the program is not a call.
pub fn split_call(program: &ChExpr) -> Option<CallFragments> {
    let ChExpr::Rep(inner) = program else {
        return None;
    };
    let mut arms: Vec<&ChExpr> = Vec::new();
    collect_mutex_arms(inner, &mut arms);
    if arms.len() < 2 {
        return None;
    }
    let mut fragments = Vec::new();
    let mut shared: Option<String> = None;
    for arm in arms {
        let (input, out) = call_arm(arm)?;
        match &shared {
            None => shared = Some(out.clone()),
            Some(s) if *s == out => {}
            _ => return None,
        }
        let _ = input;
        fragments.push(ChExpr::Rep(Box::new(arm.clone())));
    }
    Some(CallFragments {
        fragments,
        shared_channel: shared?,
    })
}

/// Recognizes a single call fragment `rep(enc-early(passive b, active c))`.
pub fn split_call_fragment(program: &ChExpr) -> Option<(String, String)> {
    let ChExpr::Rep(inner) = program else {
        return None;
    };
    call_arm(inner)
}

fn collect_mutex_arms<'a>(e: &'a ChExpr, out: &mut Vec<&'a ChExpr>) {
    match e {
        ChExpr::Op {
            op: InterleaveOp::Mutex,
            a,
            b,
        } => {
            collect_mutex_arms(a, out);
            collect_mutex_arms(b, out);
        }
        other => out.push(other),
    }
}

fn call_arm(e: &ChExpr) -> Option<(String, String)> {
    let ChExpr::Op {
        op: InterleaveOp::EncEarly,
        a,
        b,
    } = e
    else {
        return None;
    };
    let ChExpr::PToP {
        activity: ChActivity::Passive,
        name: input,
    } = a.as_ref()
    else {
        return None;
    };
    let ChExpr::PToP {
        activity: ChActivity::Active,
        name: out,
    } = b.as_ref()
    else {
        return None;
    };
    Some((input.clone(), out.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_to_bm;
    use crate::components::{call, decision_wait, sequencer};

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn t1_merges_dw_and_sequencer() {
        let mut n = CtrlNetlist::new();
        n.add(
            "dw",
            decision_wait("a1", &names(&["i1", "i2"]), &names(&["o1", "o2"])),
        );
        n.add("seq", sequencer("o2", &names(&["c1", "c2"])));
        let report = n.t1_clustering(&ClusterOptions::default());
        assert_eq!(report.eliminated_channels, vec!["o2".to_string()]);
        assert_eq!(n.components.len(), 1);
        let spec = compile_to_bm("m", &n.components[0].program).unwrap();
        assert_eq!(spec.num_states(), 11);
    }

    #[test]
    fn t1_chains_multiple_merges() {
        // seq1 -> seq2 -> seq3 via activation channels.
        let mut n = CtrlNetlist::new();
        n.add("s1", sequencer("p", &names(&["x", "m1"])));
        n.add("s2", sequencer("m1", &names(&["y", "m2"])));
        n.add("s3", sequencer("m2", &names(&["z", "w"])));
        let report = n.t1_clustering(&ClusterOptions::default());
        assert_eq!(report.eliminated_channels.len(), 2);
        assert_eq!(n.components.len(), 1);
        let chans = n.components[0].program.channels();
        for c in ["p", "x", "y", "z", "w"] {
            assert!(chans.contains_key(c), "missing {c}");
        }
    }

    #[test]
    fn split_call_recognizes_shape() {
        let c = call(&names(&["b1", "b2"]), "c");
        let frags = split_call(&c).unwrap();
        assert_eq!(frags.fragments.len(), 2);
        assert_eq!(frags.shared_channel, "c");
        // Non-call programs are not split.
        assert!(split_call(&sequencer("p", &names(&["a", "b"]))).is_none());
    }

    #[test]
    fn t2_distributes_paper_example() {
        // §4.2: a sequencer whose both branches activate a call module.
        let mut n = CtrlNetlist::new();
        n.add("seq", sequencer("a", &names(&["b1", "b2"])));
        n.add("call", call(&names(&["b1", "b2"]), "c"));
        let report = n.t2_clustering(&ClusterOptions::default());
        assert_eq!(report.distributed_calls, vec!["call".to_string()]);
        assert_eq!(n.components.len(), 1);
        let spec = compile_to_bm("result", &n.components[0].program).unwrap();
        // Fig. 5: 6 states.
        assert_eq!(spec.num_states(), 6, "{spec}");
    }

    #[test]
    fn t2_restores_call_when_fragments_split_homes() {
        // Two *different* sequencers activate the call: fragments would land
        // in different controllers, so the call must be restored.
        let mut n = CtrlNetlist::new();
        n.add("s1", sequencer("p1", &names(&["x1", "b1"])));
        n.add("s2", sequencer("p2", &names(&["x2", "b2"])));
        n.add("call", call(&names(&["b1", "b2"]), "c"));
        let report = n.t2_clustering(&ClusterOptions::default());
        assert!(report.restored_calls.contains(&"call".to_string()));
        // The call survives with its original behaviour.
        let call_comp = n.components.iter().find(|c| c.name == "call").unwrap();
        assert!(split_call(&call_comp.program).is_some());
    }

    #[test]
    fn external_channels_untouched() {
        // A single component has no internal channels.
        let mut n = CtrlNetlist::new();
        n.add("s", sequencer("p", &names(&["a", "b"])));
        assert!(n.internal_channels().is_empty());
        let report = n.t1_clustering(&ClusterOptions::default());
        assert!(report.eliminated_channels.is_empty());
        assert_eq!(n.components.len(), 1);
    }

    /// After every `T1` merge, the index's untried internal channels (with
    /// their active and passive components) are exactly what
    /// `internal_channels()` reports, minus the channels already tried.
    #[test]
    fn index_tracks_internal_channels_after_every_merge() {
        use bmbe_designs::{all_designs, generate_corpus, CorpusSpec};
        let paper = all_designs().expect("shipped designs build");
        let corpus = generate_corpus(&CorpusSpec {
            seed: 11,
            designs: 24,
        })
        .expect("corpus builds");
        let netlists = paper
            .iter()
            .map(|d| &d.compiled.netlist)
            .chain(corpus.iter().map(|d| &d.compiled.netlist));
        let opts = ClusterOptions::default();
        let memo = MergeMemo::new();
        let mut merges = 0;
        for netlist in netlists {
            let mut n = crate::balsa_to_ch(netlist).expect("designs translate");
            let mut index = ChannelIndex::new(&n.components);
            let mut report = ClusterReport::default();
            loop {
                let before = report.eliminated_channels.len();
                if !n.t1_step(&mut index, &opts, &memo, &mut report) {
                    break;
                }
                if report.eliminated_channels.len() == before {
                    continue;
                }
                merges += 1;
                let tried: Vec<&String> = report
                    .eliminated_channels
                    .iter()
                    .chain(report.rejected.iter().map(|(c, _)| c))
                    .collect();
                let expected: Vec<InternalChannel> = n
                    .internal_channels()
                    .into_iter()
                    .filter(|c| !tried.contains(&&c.name))
                    .collect();
                let indexed: Vec<InternalChannel> = index
                    .untried
                    .iter()
                    .map(|&ch| {
                        let (active, passive) =
                            internal_ends(&index.uses[ch]).expect("untried are internal");
                        InternalChannel {
                            name: index.names[ch].clone(),
                            active: index.position(active),
                            passive: index.position(passive),
                        }
                    })
                    .collect();
                assert_eq!(indexed, expected);
            }
        }
        assert!(merges > 50, "{merges} merges");
    }

    #[test]
    fn state_limit_blocks_merge() {
        let mut n = CtrlNetlist::new();
        n.add(
            "dw",
            decision_wait("a1", &names(&["i1", "i2"]), &names(&["o1", "o2"])),
        );
        n.add("seq", sequencer("o2", &names(&["c1", "c2"])));
        let report = n.t1_clustering(&ClusterOptions {
            state_limit: Some(5),
        });
        assert!(report.eliminated_channels.is_empty());
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(n.components.len(), 2);
    }
}
