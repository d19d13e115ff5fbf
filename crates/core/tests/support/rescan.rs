//! `T1` by rescanning, the reference of the indexed and memoized `T1`,
//! shared by the suites that check every program it merges.

use bmbe_core::ast::ChExpr;
use bmbe_core::{activation_channel_removal, ClusterOptions, CtrlNetlist};

/// `T1` the way the paper states it: after every attempt, take the first
/// untried channel of [`CtrlNetlist::internal_channels`]. Returns every
/// merged program.
pub fn t1_by_rescan(n: &mut CtrlNetlist, opts: &ClusterOptions) -> Vec<ChExpr> {
    let mut tried: Vec<String> = Vec::new();
    let mut merged = Vec::new();
    while let Some(chan) = n
        .internal_channels()
        .into_iter()
        .find(|c| !tried.contains(&c.name))
    {
        tried.push(chan.name.clone());
        let activating = &n.components[chan.active].program;
        let activated = &n.components[chan.passive].program;
        if let Ok(m) =
            activation_channel_removal(activating, activated, &chan.name, opts.state_limit)
        {
            let name = format!(
                "{}+{}",
                n.components[chan.active].name, n.components[chan.passive].name
            );
            let (hi, lo) = (chan.active.max(chan.passive), chan.active.min(chan.passive));
            n.components.remove(hi);
            n.components.remove(lo);
            n.add(name, m.clone());
            merged.push(m);
        }
    }
    merged
}
