//! The levelization `bmbe_hsnet::levelize` replaced, kept as its
//! reference: owned predecessor vectors and one successor vector per node.

use bmbe_hsnet::{CycleError, Levelization};

/// Levelizes the DAG `preds` exactly as `bmbe_hsnet::levelize` must: level
/// by level, ascending index within a level, and the lowest-index node left
/// unplaced as the cycle node.
pub fn reference_levelize(preds: &[Vec<usize>]) -> Result<Levelization, CycleError> {
    let n = preds.len();
    let mut indeg = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, ps) in preds.iter().enumerate() {
        for &p in ps {
            indeg[v] += 1;
            succs[p].push(v);
        }
    }
    let mut level = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut frontier: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut num_levels = 0u32;
    while !frontier.is_empty() {
        frontier.sort_unstable();
        let mut next = Vec::new();
        for &v in &frontier {
            order.push(v);
            for &s in &succs[v] {
                level[s] = level[s].max(level[v] + 1);
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    next.push(s);
                }
            }
        }
        num_levels = num_levels.max(frontier.iter().map(|&v| level[v] + 1).max().unwrap_or(0));
        frontier = next;
    }
    if order.len() != n {
        let node = (0..n).find(|&v| indeg[v] > 0).expect("unplaced node");
        return Err(CycleError { node });
    }
    Ok(Levelization {
        order,
        level,
        num_levels,
    })
}
