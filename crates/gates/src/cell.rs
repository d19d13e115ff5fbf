//! The standard-cell library.
//!
//! A synthetic stand-in for the AMS 0.35 µm library the paper mapped to:
//! representative cell areas (µm²) and pin-to-output delays (ns). Absolute
//! values are not calibrated against the real library; they only need to be
//! mutually consistent, since every experiment compares circuits mapped to
//! the *same* library (see DESIGN.md, substitutions).
//!
//! The library holds exactly the nine cells the mapper's patterns emit.
//! Each is combinational and unate in every pin, so every evaluator here
//! returns a plain value. A gate's input count must match its cell's pin
//! count; [`crate::check_gate_order`] checks that, with the rest of the
//! mapper's gate order, for netlists that do not come straight from the
//! mapper.

use std::fmt;

/// The available cell kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NOR.
    Nor2,
    /// AND-OR `a·b + c`.
    Ao21,
    /// AND-OR `a·b + c·d`.
    Ao22,
}

impl CellKind {
    /// Number of input pins.
    pub fn num_inputs(&self) -> usize {
        match self {
            CellKind::Inv => 1,
            CellKind::Nand2 | CellKind::And2 | CellKind::Or2 | CellKind::Nor2 => 2,
            CellKind::Nand3 | CellKind::Ao21 => 3,
            CellKind::Nand4 | CellKind::Ao22 => 4,
        }
    }

    /// Library cell name.
    pub fn name(&self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Nand2 => "NAND2",
            CellKind::Nand3 => "NAND3",
            CellKind::Nand4 => "NAND4",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Nor2 => "NOR2",
            CellKind::Ao21 => "AO21",
            CellKind::Ao22 => "AO22",
        }
    }

    /// Combinational evaluation. `inputs` holds one value per pin
    /// ([`CellKind::num_inputs`]).
    pub fn eval(&self, inputs: &[bool]) -> bool {
        debug_assert_eq!(inputs.len(), self.num_inputs(), "{self} pin count");
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => !inputs.iter().all(|&b| b),
            CellKind::And2 => inputs[0] && inputs[1],
            CellKind::Or2 => inputs[0] || inputs[1],
            CellKind::Nor2 => !(inputs[0] || inputs[1]),
            CellKind::Ao21 => (inputs[0] && inputs[1]) || inputs[2],
            CellKind::Ao22 => (inputs[0] && inputs[1]) || (inputs[2] && inputs[3]),
        }
    }

    /// Bit-parallel combinational evaluation: each input word carries 64
    /// independent scenarios, one per bit lane, and the result word holds
    /// the cell's output for every lane at once. Lane `L` of the output
    /// equals `eval` applied to lane `L` of the inputs — the agreement the
    /// lane-vs-scalar property test pins. `inputs` holds one word per pin
    /// ([`CellKind::num_inputs`]).
    pub fn eval_lanes(&self, inputs: &[u64]) -> u64 {
        debug_assert_eq!(inputs.len(), self.num_inputs(), "{self} pin count");
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Nand2 => !(inputs[0] & inputs[1]),
            CellKind::Nand3 => !(inputs[0] & inputs[1] & inputs[2]),
            CellKind::Nand4 => !(inputs[0] & inputs[1] & inputs[2] & inputs[3]),
            CellKind::And2 => inputs[0] & inputs[1],
            CellKind::Or2 => inputs[0] | inputs[1],
            CellKind::Nor2 => !(inputs[0] | inputs[1]),
            CellKind::Ao21 => (inputs[0] & inputs[1]) | inputs[2],
            CellKind::Ao22 => (inputs[0] & inputs[1]) | (inputs[2] & inputs[3]),
        }
    }

    /// Whether the output falls when an input rises: `Inv`, `Nand*` and
    /// `Nor2`. Every other cell rises with its inputs, so each cell is
    /// unate in every pin.
    pub(crate) fn inverts(&self) -> bool {
        matches!(
            self,
            CellKind::Inv | CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 | CellKind::Nor2
        )
    }

    /// Ternary (Kleene) evaluation of 64 lanes at once on dual-rail words:
    /// each input carries 64 values of `{0, 1, X}` as two bit-planes, and
    /// the result does too. Every cell is unate in each pin, so the output
    /// can take exactly the values of [`CellKind::eval_lanes`] at the two
    /// extreme completions (every `X` pin at 0, and every `X` pin at 1).
    /// For AND that is `can0 = a0 | b0`, `can1 = a1 & b1`; OR is the dual;
    /// NOT swaps the planes. With complementary planes (no `X` anywhere)
    /// the `can1` plane is exactly `eval_lanes`. `inputs` holds one value
    /// per pin ([`CellKind::num_inputs`]).
    pub(crate) fn eval_dual_lanes(&self, inputs: &[DualRail]) -> DualRail {
        let (mut low, mut high) = ([0u64; 4], [0u64; 4]);
        for (k, v) in inputs.iter().enumerate() {
            low[k] = !v.can0;
            high[k] = v.can1;
        }
        let low = self.eval_lanes(&low[..inputs.len()]);
        let high = self.eval_lanes(&high[..inputs.len()]);
        if self.inverts() {
            DualRail {
                can0: !high,
                can1: low,
            }
        } else {
            DualRail {
                can0: !low,
                can1: high,
            }
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// 64 ternary values, one per bit lane, held as two bit-planes: lane `L`
/// can be 0 when bit `L` of `can0` is set and can be 1 when bit `L` of
/// `can1` is set. So `0` is `(1, 0)`, `1` is `(0, 1)` and `X` is `(1, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DualRail {
    /// Lanes whose value can be 0.
    pub(crate) can0: u64,
    /// Lanes whose value can be 1.
    pub(crate) can1: u64,
}

impl DualRail {
    /// `X` on every lane.
    pub(crate) const X: DualRail = DualRail { can0: !0, can1: !0 };

    /// The binary lane word `w`: lane `L` is 1 exactly when bit `L` is set.
    pub(crate) fn binary(w: u64) -> Self {
        DualRail { can0: !w, can1: w }
    }
}

/// Area and delay figures for the cells.
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
}

impl Library {
    /// The default synthetic 0.35 µm-class library.
    pub fn cmos035() -> Self {
        Library {
            name: "synthetic-0.35um".to_string(),
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell area in µm².
    pub fn area(&self, cell: CellKind) -> f64 {
        match cell {
            CellKind::Inv => 27.0,
            CellKind::Nand2 => 36.0,
            CellKind::Nand3 => 55.0,
            CellKind::Nand4 => 73.0,
            CellKind::And2 => 45.0,
            CellKind::Or2 => 45.0,
            CellKind::Nor2 => 36.0,
            CellKind::Ao21 => 55.0,
            CellKind::Ao22 => 64.0,
        }
    }

    /// Worst-case pin-to-output delay in ns.
    pub fn delay(&self, cell: CellKind) -> f64 {
        match cell {
            CellKind::Inv => 0.08,
            CellKind::Nand2 => 0.12,
            CellKind::Nand3 => 0.16,
            CellKind::Nand4 => 0.21,
            CellKind::And2 => 0.18,
            CellKind::Or2 => 0.20,
            CellKind::Nor2 => 0.15,
            CellKind::Ao21 => 0.20,
            CellKind::Ao22 => 0.23,
        }
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::cmos035()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basics() {
        assert!(CellKind::Inv.eval(&[false]));
        assert!(!CellKind::Nand2.eval(&[true, true]));
        assert!(CellKind::Nand3.eval(&[true, false, true]));
        assert!(CellKind::Ao21.eval(&[true, true, false]));
        assert!(!CellKind::Ao21.eval(&[true, false, false]));
        assert!(CellKind::Ao22.eval(&[false, true, true, true]));
        assert!(CellKind::Nor2.eval(&[false, false]));
    }

    #[test]
    fn complex_cells_are_cheaper_than_composition() {
        let lib = Library::cmos035();
        // AO21 must beat NAND2 + NAND2 + INV for area and delay, otherwise
        // the mapper would never pick it.
        assert!(
            lib.area(CellKind::Ao21) < 2.0 * lib.area(CellKind::Nand2) + lib.area(CellKind::Inv)
        );
        assert!(
            lib.delay(CellKind::Ao21) < 2.0 * lib.delay(CellKind::Nand2) + lib.delay(CellKind::Inv)
        );
    }

    #[test]
    fn input_counts() {
        assert_eq!(CellKind::Nand4.num_inputs(), 4);
        assert_eq!(CellKind::Inv.num_inputs(), 1);
        assert_eq!(CellKind::Ao21.num_inputs(), 3);
    }

    /// Every cell; each has a combinational value.
    const COMBINATIONAL: [CellKind; 9] = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nand4,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nor2,
        CellKind::Ao21,
        CellKind::Ao22,
    ];

    #[test]
    fn lanes_agree_with_scalar_eval_on_every_cell() {
        // Deterministic pseudo-random lane words (splitmix64).
        fn mix(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        for (ci, cell) in COMBINATIONAL.iter().enumerate() {
            let n = cell.num_inputs();
            let words: Vec<u64> = (0..n).map(|i| mix((ci * 7 + i) as u64)).collect();
            let out = cell.eval_lanes(&words);
            for lane in 0..64 {
                let scalar: Vec<bool> = words.iter().map(|w| w >> lane & 1 == 1).collect();
                assert_eq!(
                    out >> lane & 1 == 1,
                    cell.eval(&scalar),
                    "{cell} lane {lane}"
                );
            }
            // Complementary planes: the dual-rail value is the binary one.
            let duals: Vec<DualRail> = words.iter().map(|&w| DualRail::binary(w)).collect();
            assert_eq!(
                cell.eval_dual_lanes(&duals),
                DualRail::binary(out),
                "{cell}"
            );
        }
    }

    #[test]
    fn dual_lanes_are_kleene_on_every_ternary_input() {
        // Lane `L` of chunk `c` holds ternary input combination
        // `64 c + L`, pin `i` as base-3 digit `i` (0, 1, 2 = X). Each cell
        // reads every pin once, so its Kleene value is the set of values
        // over the binary completions of the X pins.
        for cell in COMBINATIONAL {
            let k = cell.num_inputs();
            let combos = 3usize.pow(k as u32);
            for chunk in (0..combos).step_by(64) {
                let lanes = (combos - chunk).min(64);
                let mut words = vec![DualRail { can0: 0, can1: 0 }; k];
                for lane in 0..lanes {
                    let mut c = chunk + lane;
                    for w in &mut words {
                        let t = c % 3;
                        c /= 3;
                        w.can0 |= u64::from(t != 1) << lane;
                        w.can1 |= u64::from(t != 0) << lane;
                    }
                }
                let out = cell.eval_dual_lanes(&words);
                for lane in 0..lanes {
                    let (mut can0, mut can1) = (false, false);
                    for bits in 0..1u32 << k {
                        let completion: Option<Vec<bool>> = words
                            .iter()
                            .enumerate()
                            .map(|(i, w)| {
                                let b = bits >> i & 1 == 1;
                                let plane = if b { w.can1 } else { w.can0 };
                                (plane >> lane & 1 == 1).then_some(b)
                            })
                            .collect();
                        match completion.map(|v| cell.eval(&v)) {
                            Some(true) => can1 = true,
                            Some(false) => can0 = true,
                            None => {}
                        }
                    }
                    assert_eq!(
                        (out.can0 >> lane & 1 == 1, out.can1 >> lane & 1 == 1),
                        (can0, can1),
                        "{cell} combination {}",
                        chunk + lane
                    );
                }
            }
        }
    }
}
