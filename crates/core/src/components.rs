//! CH models of the standard Balsa control handshake components (§3.4).
//!
//! Each constructor takes the component's channel names and returns the CH
//! program of its controller; these are what the Balsa-to-CH translator
//! instantiates for every control component of the netlist.

use crate::ast::{ChExpr, InterleaveOp};

/// An n-way sequencer: activated on `activate`, performs handshakes on each
/// `outs[i]` in order (§3.4).
///
/// # Panics
///
/// Panics when `outs` is empty.
pub fn sequencer(activate: &str, outs: &[String]) -> ChExpr {
    assert!(!outs.is_empty());
    let body = ChExpr::seq_all(outs.iter().map(|c| ChExpr::active(c)).collect());
    ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncEarly,
        ChExpr::passive(activate),
        body,
    )))
}

/// An n-way concur: activated on `activate`, performs all `outs` handshakes
/// in parallel (modelled with `enc-middle`, the C-element-style
/// synchronization of §3.3).
///
/// # Panics
///
/// Panics when `outs` is empty.
pub fn concur(activate: &str, outs: &[String]) -> ChExpr {
    assert!(!outs.is_empty());
    let mut iter = outs.iter().rev();
    let mut body = ChExpr::active(iter.next().expect("nonempty"));
    for c in iter {
        body = ChExpr::op(InterleaveOp::EncMiddle, ChExpr::active(c), body);
    }
    ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncEarly,
        ChExpr::passive(activate),
        body,
    )))
}

/// An n-way call: mutually exclusive activations on `ins` each perform one
/// handshake on `out` (§3.4).
///
/// # Panics
///
/// Panics when `ins` is empty.
pub fn call(ins: &[String], out: &str) -> ChExpr {
    assert!(!ins.is_empty());
    let arms: Vec<ChExpr> = ins
        .iter()
        .map(|i| {
            ChExpr::op(
                InterleaveOp::EncEarly,
                ChExpr::passive(i),
                ChExpr::active(out),
            )
        })
        .collect();
    ChExpr::Rep(Box::new(ChExpr::mutex_all(arms)))
}

/// A passivator: waits for handshakes on both passive channels and
/// synchronizes them (§3.4).
pub fn passivator(a: &str, b: &str) -> ChExpr {
    ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncMiddle,
        ChExpr::passive(a),
        ChExpr::passive(b),
    )))
}

/// An n-way synchronizer: all passive channels rendezvous.
///
/// # Panics
///
/// Panics when `chans` is empty.
pub fn sync(chans: &[String]) -> ChExpr {
    assert!(!chans.is_empty());
    let mut iter = chans.iter().rev();
    let mut body = ChExpr::passive(iter.next().expect("nonempty"));
    for c in iter {
        body = ChExpr::op(InterleaveOp::EncMiddle, ChExpr::passive(c), body);
    }
    ChExpr::Rep(Box::new(body))
}

/// A decision-wait: on activation, samples exactly one of the passive
/// `ins[i]` and completes the corresponding `outs[i]` (§4.1).
///
/// # Panics
///
/// Panics when the port lists are empty or of different lengths.
pub fn decision_wait(activate: &str, ins: &[String], outs: &[String]) -> ChExpr {
    assert!(!ins.is_empty());
    assert_eq!(ins.len(), outs.len());
    let arms: Vec<ChExpr> = ins
        .iter()
        .zip(outs)
        .map(|(i, o)| {
            ChExpr::op(
                InterleaveOp::EncEarly,
                ChExpr::passive(i),
                ChExpr::active(o),
            )
        })
        .collect();
    ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncEarly,
        ChExpr::passive(activate),
        ChExpr::mutex_all(arms),
    )))
}

/// A loop component: once activated, repeats handshakes on `out` forever
/// (the activation never completes).
pub fn loop_forever(activate: &str, out: &str) -> ChExpr {
    ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncEarly,
        ChExpr::passive(activate),
        ChExpr::Rep(Box::new(ChExpr::active(out))),
    )))
}

/// A transferrer/fetch controller: on activation, overlapped handshakes on
/// `pull` then `push` (§3.3 notes `seq-ov` models transferrers).
pub fn transferrer(activate: &str, pull: &str, push: &str) -> ChExpr {
    ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncEarly,
        ChExpr::passive(activate),
        ChExpr::op(
            InterleaveOp::SeqOv,
            ChExpr::active(pull),
            ChExpr::active(push),
        ),
    )))
}

/// A fork: one passive input broadcast to `outs` in parallel.
///
/// # Panics
///
/// Panics when `outs` is empty.
pub fn fork(input: &str, outs: &[String]) -> ChExpr {
    concur(input, outs)
}

/// An n-way case: on activation pulls the selector (`select` handshake via
/// mux-ack wires) and activates the matching branch.
///
/// # Panics
///
/// Panics when `branches` is empty.
pub fn case(activate: &str, select: &str, branches: &[String]) -> ChExpr {
    assert!(!branches.is_empty());
    let arms: Vec<(InterleaveOp, ChExpr)> = branches
        .iter()
        .map(|b| (InterleaveOp::EncEarly, ChExpr::active(b)))
        .collect();
    ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncEarly,
        ChExpr::passive(activate),
        ChExpr::MuxAck {
            name: select.to_string(),
            arms,
        },
    )))
}

/// A while component: on activation pulls the guard (mux-ack on `guard`);
/// a true guard (wire 1) runs `body` and re-tests, a false guard (wire 0)
/// breaks out and completes the activation.
pub fn while_loop(activate: &str, guard: &str, body: &str) -> ChExpr {
    ChExpr::Rep(Box::new(ChExpr::op(
        InterleaveOp::EncEarly,
        ChExpr::passive(activate),
        ChExpr::Rep(Box::new(ChExpr::MuxAck {
            name: guard.to_string(),
            arms: vec![
                // A false guard (wire 0) completes the guard handshake and
                // then breaks; sequencing (rather than enclosure) lets the
                // return-to-zero finish before the jump.
                (InterleaveOp::Seq, ChExpr::Break),
                (InterleaveOp::EncEarly, ChExpr::active(body)),
            ],
        })),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_to_bm;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sequencer_compiles_to_six_states_per_branch_pair() {
        let e = sequencer("p", &names(&["a1", "a2"]));
        let spec = compile_to_bm("seq2", &e).unwrap();
        assert_eq!(spec.num_states(), 6);
        let e3 = sequencer("p", &names(&["a1", "a2", "a3"]));
        let spec3 = compile_to_bm("seq3", &e3).unwrap();
        assert_eq!(spec3.num_states(), 8);
    }

    #[test]
    fn concur_synchronizes_outputs() {
        let e = concur("p", &names(&["x", "y"]));
        let spec = compile_to_bm("concur2", &e).unwrap();
        let text = spec.to_string();
        // Both requests rise in one output burst.
        assert!(text.contains("x_r+"), "{text}");
        assert!(text.contains("y_r+"), "{text}");
        let first = spec
            .arcs()
            .iter()
            .find(|a| a.from == spec.initial())
            .unwrap();
        assert_eq!(first.outputs.len(), 2);
    }

    #[test]
    fn call_compiles_per_figure() {
        let e = call(&names(&["a1", "a2"]), "b");
        let spec = compile_to_bm("call2", &e).unwrap();
        assert_eq!(spec.num_states(), 7);
        let e3 = call(&names(&["a1", "a2", "a3"]), "b");
        let spec3 = compile_to_bm("call3", &e3).unwrap();
        assert_eq!(spec3.num_states(), 10);
    }

    #[test]
    fn passivator_two_states() {
        let spec = compile_to_bm("pasv", &passivator("a", "b")).unwrap();
        assert_eq!(spec.num_states(), 2);
    }

    #[test]
    fn sync3_single_rendezvous() {
        let spec = compile_to_bm("sync3", &sync(&names(&["a", "b", "c"]))).unwrap();
        assert_eq!(spec.num_states(), 2);
        let first = spec
            .arcs()
            .iter()
            .find(|a| a.from == spec.initial())
            .unwrap();
        assert_eq!(first.inputs.len(), 3);
        assert_eq!(first.outputs.len(), 3);
    }

    #[test]
    fn decision_wait_two_pairs() {
        let e = decision_wait("a", &names(&["i1", "i2"]), &names(&["o1", "o2"]));
        let spec = compile_to_bm("dw2", &e).unwrap();
        assert_eq!(spec.num_states(), 9);
    }

    #[test]
    fn loop_component_compiles() {
        let spec = compile_to_bm("loop", &loop_forever("a", "b")).unwrap();
        spec.validate().unwrap();
        assert!(spec.to_string().contains("a_r+ | b_r+"));
    }

    #[test]
    fn transferrer_overlaps_pull_and_push() {
        let spec = compile_to_bm("xfer", &transferrer("a", "pl", "ps")).unwrap();
        let text = spec.to_string();
        assert!(text.contains("pl_r+"), "{text}");
        assert!(text.contains("ps_r+"), "{text}");
    }

    #[test]
    fn case_selects_branch() {
        let e = case("a", "sel", &names(&["b0", "b1"]));
        let spec = compile_to_bm("case2", &e).unwrap();
        let text = spec.to_string();
        assert!(text.contains("sel_a0+"), "{text}");
        assert!(text.contains("sel_a1+"), "{text}");
        assert!(text.contains("b0_r+"), "{text}");
    }

    #[test]
    fn while_loop_compiles() {
        let e = while_loop("a", "g", "body");
        let spec = compile_to_bm("while", &e).unwrap();
        spec.validate().unwrap();
        let text = spec.to_string();
        assert!(text.contains("body_r+"), "{text}");
        assert!(text.contains("a_a+"), "{text}");
    }

    #[test]
    fn all_components_are_bm_aware() {
        use crate::ast::check_bm_aware;
        for e in [
            sequencer("p", &names(&["a", "b"])),
            concur("p", &names(&["a", "b"])),
            call(&names(&["a", "b"]), "c"),
            passivator("a", "b"),
            sync(&names(&["a", "b", "c"])),
            decision_wait("p", &names(&["i"]), &names(&["o"])),
            loop_forever("a", "b"),
            transferrer("a", "b", "c"),
            case("a", "s", &names(&["x", "y"])),
            while_loop("a", "g", "b"),
        ] {
            check_bm_aware(&e).unwrap();
        }
    }
}
