//! `levelize` against the levelization it replaced, on random graphs:
//! acyclic ones, ones with cycles, duplicate arcs and isolated nodes. The
//! order, every level, the level count and the reported cycle node must be
//! identical.

#[path = "support/levelize_ref.rs"]
mod levelize_ref;

use bmbe_hsnet::levelize;
use levelize_ref::reference_levelize;

/// A small deterministic generator (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n.max(1) as u64) as usize
    }
}

#[test]
fn levelize_equals_the_reference_on_random_graphs() {
    let mut rng = Lcg(0x5eed);
    let (mut acyclic, mut cyclic) = (0, 0);
    for case in 0..3000 {
        let n = rng.below(48);
        // A random ranking; arcs run from lower to higher rank, except in
        // every third graph, where any arc, self-loops included, may appear.
        let mut rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank.swap(i, rng.below(i + 1));
        }
        let any_arc = case % 3 == 0;
        let preds: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                (0..rng.below(5))
                    .map(|_| rng.below(n))
                    .filter(|&p| any_arc || rank[p] < rank[v])
                    .collect()
            })
            .collect();
        let borrowed: Vec<&[usize]> = preds.iter().map(Vec::as_slice).collect();
        let got = levelize(&borrowed);
        assert_eq!(got, reference_levelize(&preds), "case {case}: {preds:?}");
        match got {
            Ok(_) => acyclic += 1,
            Err(_) => cyclic += 1,
        }
    }
    assert!(
        acyclic > 1000 && cyclic > 300,
        "{acyclic} acyclic, {cyclic} cyclic"
    );
}
