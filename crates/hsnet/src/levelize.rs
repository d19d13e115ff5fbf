//! Deterministic DAG levelization.
//!
//! The compiled simulation backend turns a mapped gate netlist into a
//! straight-line instruction tape, which requires a topological order.
//! That is a generic graph question, so it lives here next to the netlist
//! IR rather than in the simulator.
//!
//! The algorithm is deterministic: ready nodes are processed in ascending
//! index within each level, so the same graph always yields the same
//! order — the property the compiled backend's bit-identical determinism
//! tests rest on.

use std::fmt;

/// A topological levelization of a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    /// Node indices in topological order (sources first; within a level,
    /// ascending index).
    pub order: Vec<usize>,
    /// ASAP level per node: 0 for sources, `1 + max(level of preds)`
    /// otherwise.
    pub level: Vec<u32>,
    /// Number of distinct levels (`max(level) + 1`, 0 for an empty graph).
    pub num_levels: u32,
}

/// The graph is not acyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// The lowest-index node on some cycle.
    pub node: usize,
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "combinational cycle through node {}", self.node)
    }
}

impl std::error::Error for CycleError {}

/// Levelizes a DAG given as a predecessor list: `preds[v]` are the nodes
/// `v` depends on. Duplicate predecessor entries are allowed (each is one
/// arc; levels only care about the set).
///
/// # Errors
///
/// [`CycleError`] naming the lowest-index node on a cycle if the graph is
/// not acyclic.
pub fn levelize(preds: &[&[usize]]) -> Result<Levelization, CycleError> {
    let n = preds.len();
    let mut indeg = vec![0usize; n];
    // Successors in one flat array: those of `p` are
    // `succ[start[p]..start[p + 1]]`, in ascending order. `start[p]` first
    // counts the arcs out of nodes `0..=p`; filling each range from its end
    // while walking the arcs backwards leaves it at the range's start.
    let mut start = vec![0usize; n + 1];
    for (v, ps) in preds.iter().enumerate() {
        indeg[v] = ps.len();
        for &p in *ps {
            assert!(p < n, "predecessor {p} out of range for {n} nodes");
            start[p] += 1;
        }
    }
    for v in 1..=n {
        start[v] += start[v - 1];
    }
    let mut succ = vec![0usize; start[n]];
    for (v, ps) in preds.iter().enumerate().rev() {
        for &p in ps.iter().rev() {
            start[p] -= 1;
            succ[start[p]] = v;
        }
    }
    let mut level = vec![0u32; n];
    // Kahn's algorithm, one level at a time so ties resolve by index. Each
    // level is a run of `order`: `order[lo..hi]` is placed, its successors
    // that become ready are appended as the next level.
    let mut order: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    order.reserve(n - order.len());
    let mut num_levels = 0u32;
    let mut lo = 0;
    while lo < order.len() {
        let hi = order.len();
        order[lo..hi].sort_unstable();
        for i in lo..hi {
            let v = order[i];
            for &s in &succ[start[v]..start[v + 1]] {
                level[s] = level[s].max(level[v] + 1);
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    order.push(s);
                }
            }
        }
        num_levels += 1;
        lo = hi;
    }
    if let Some(node) = indeg.iter().position(|&d| d > 0) {
        return Err(CycleError { node });
    }
    Ok(Levelization {
        order,
        level,
        num_levels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levelizes_a_diamond() {
        // 0 -> 1, 0 -> 2, {1,2} -> 3
        let preds: [&[usize]; 4] = [&[], &[0], &[0], &[1, 2]];
        let l = levelize(&preds).unwrap();
        assert_eq!(l.order, vec![0, 1, 2, 3]);
        assert_eq!(l.level, vec![0, 1, 1, 2]);
        assert_eq!(l.num_levels, 3);
    }

    #[test]
    fn order_is_deterministic_and_respects_levels() {
        // Two independent chains interleaved in index space.
        let preds: [&[usize]; 5] = [&[], &[], &[1], &[0], &[2, 3]];
        let l = levelize(&preds).unwrap();
        assert_eq!(l.order, vec![0, 1, 2, 3, 4]);
        for (pos, &v) in l.order.iter().enumerate() {
            for &p in preds[v] {
                let ppos = l.order.iter().position(|&x| x == p).unwrap();
                assert!(ppos < pos, "pred {p} after {v}");
            }
        }
    }

    #[test]
    fn detects_a_cycle() {
        // 1 -> 2 -> 3 -> 1, with 0 acyclic on the side.
        let preds: [&[usize]; 4] = [&[], &[3], &[1], &[2]];
        let err = levelize(&preds).unwrap_err();
        assert_eq!(err.node, 1);
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn empty_graph() {
        let l = levelize(&[]).unwrap();
        assert!(l.order.is_empty());
        assert_eq!(l.num_levels, 0);
    }
}
