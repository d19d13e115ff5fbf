//! The per-point form of `verify_mapped`'s ternary transition analysis,
//! kept test-side as the oracle the 64-lane production analysis must equal
//! in list, order and messages: one [`eval_ternary`] call per distinct
//! mid-burst point and per distinct settle point, memoized across the
//! functions that share them.

use bmbe_bm::synth::Controller;
use bmbe_gates::{eval_ternary, verify_equivalence_algebraic, HazardViolation, MappedNetlist};
use bmbe_logic::Tv;
use std::collections::HashMap;

/// `verify_mapped` evaluated one point at a time.
pub fn verify_mapped_per_point(
    controller: &Controller,
    netlist: &MappedNetlist,
) -> Vec<HazardViolation> {
    let mut out = Vec::new();
    if let Some(v) = verify_equivalence_algebraic(controller, netlist) {
        out.push(v);
        return out;
    }
    let n = controller.num_vars();
    let names: Vec<String> = (controller.outputs.iter().cloned())
        .chain((0..controller.num_state_bits).map(|j| format!("y{j}")))
        .collect();
    let mut mid_memo: HashMap<(u64, u64), Vec<Tv>> = HashMap::new();
    let mut fin_memo: HashMap<u64, Vec<Tv>> = HashMap::new();
    for (fi, spec) in controller.function_specs.iter().enumerate() {
        let function = &names[fi];
        for t in spec.transitions() {
            let changing = t.start ^ t.end;
            let mids = mid_memo.entry((t.start, changing)).or_insert_with(|| {
                let mid: Vec<Tv> = (0..n)
                    .map(|i| {
                        if changing >> i & 1 == 1 {
                            Tv::X
                        } else {
                            Tv::from_bool(t.start >> i & 1 == 1)
                        }
                    })
                    .collect();
                eval_ternary(netlist, &mid)
            });
            if t.from == t.to && mids[fi] != Tv::from_bool(t.from) {
                out.push(HazardViolation::StaticGlitch {
                    function: function.clone(),
                    start: t.start,
                    end: t.end,
                });
            }
            let fins = fin_memo.entry(t.end).or_insert_with(|| {
                let fin: Vec<Tv> = (0..n).map(|i| Tv::from_bool(t.end >> i & 1 == 1)).collect();
                eval_ternary(netlist, &fin)
            });
            if fins[fi] != Tv::from_bool(t.to) {
                out.push(HazardViolation::WrongSettle {
                    function: function.clone(),
                    start: t.start,
                    end: t.end,
                });
            }
        }
    }
    out
}
