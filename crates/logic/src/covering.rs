//! Unate covering: choose a minimum-cost subset of columns covering all rows.
//!
//! Used by the two-level minimizers to select prime implicants. Provides an
//! exact branch-and-bound solver with essential-column and dominance
//! reductions over bit-set rows/columns, pruned by a greedy independent-set
//! lower bound, falling back to a greedy heuristic above a size threshold.

/// A unate covering problem instance.
///
/// Rows are numbered `0..num_rows`; each column lists the rows it covers and
/// carries an integer cost (with an optional secondary cost used to break
/// ties, e.g. literal counts).
#[derive(Debug, Clone)]
pub struct CoveringProblem {
    num_rows: usize,
    columns: Vec<Column>,
}

#[derive(Debug, Clone)]
struct Column {
    rows: Vec<usize>,
    cost: u64,
    tiebreak: u64,
}

/// Outcome of solving a covering problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveringSolution {
    /// Indices of the selected columns (ascending).
    pub columns: Vec<usize>,
    /// Total primary cost of the selection.
    pub cost: u64,
    /// Whether the solution is provably minimum (exact search completed).
    pub exact: bool,
}

impl CoveringProblem {
    /// Creates a problem with `num_rows` rows and no columns yet.
    pub fn new(num_rows: usize) -> Self {
        CoveringProblem {
            num_rows,
            columns: Vec::new(),
        }
    }

    /// Adds a column covering `rows` with the given costs; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of range.
    pub fn add_column(&mut self, mut rows: Vec<usize>, cost: u64, tiebreak: u64) -> usize {
        rows.sort_unstable();
        rows.dedup();
        for &r in &rows {
            assert!(r < self.num_rows, "row {r} out of range");
        }
        self.columns.push(Column {
            rows,
            cost,
            tiebreak,
        });
        self.columns.len() - 1
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Solves the problem.
    ///
    /// Returns `None` when some row is covered by no column (infeasible).
    /// The search is exact while the reduced problem stays within
    /// `effort_limit` branch-and-bound nodes; afterwards the best solution
    /// found so far (completed greedily) is returned with `exact == false`.
    pub fn solve(&self, effort_limit: u64) -> Option<CoveringSolution> {
        let mut col_rows: Vec<Bits> = Vec::with_capacity(self.columns.len());
        for col in &self.columns {
            let mut b = Bits::new(self.num_rows);
            for &r in &col.rows {
                b.set(r);
            }
            col_rows.push(b);
        }
        let mut row_cols: Vec<Bits> = vec![Bits::new(self.columns.len()); self.num_rows];
        for (ci, col) in self.columns.iter().enumerate() {
            for &r in &col.rows {
                row_cols[r].set(ci);
            }
        }
        if row_cols.iter().any(Bits::is_empty) && self.num_rows > 0 {
            return None;
        }
        let mut solver = Solver {
            problem: self,
            col_rows,
            row_cols,
            best: None,
            nodes: 0,
            limit: effort_limit,
            truncated: false,
        };
        let greedy = solver.greedy(&(0..self.num_rows).collect::<Vec<_>>(), &[]);
        solver.best = Some(greedy);
        let mut alive_rows = Bits::new(self.num_rows);
        for r in 0..self.num_rows {
            alive_rows.set(r);
        }
        let mut alive_cols = Bits::new(self.columns.len());
        for c in 0..self.columns.len() {
            alive_cols.set(c);
        }
        solver.search(alive_rows, alive_cols, Vec::new(), 0, 0);
        let (sel, cost, tb) = solver.best.expect("greedy always yields a solution");
        let _ = tb;
        let mut columns = sel;
        columns.sort_unstable();
        columns.dedup();
        Some(CoveringSolution {
            columns,
            cost,
            exact: !solver.truncated,
        })
    }
}

/// A fixed-capacity bit set; rows and columns of the covering matrix are
/// manipulated as machine words so containment/intersection tests cost a
/// few ANDs instead of nested `Vec` scans.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bits {
    words: Vec<u64>,
}

impl Bits {
    fn new(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)],
        }
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn and_count(&self, other: &Bits) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    fn intersects(&self, other: &Bits) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    fn is_subset(&self, other: &Bits) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    fn and_assign(&mut self, other: &Bits) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    fn or_assign(&mut self, other: &Bits) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    fn subtract(&mut self, other: &Bits) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    fn and(&self, other: &Bits) -> Bits {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Set bits in ascending order (matching the ascending `Vec` scans the
    /// previous solver used, so essential/branch selection is unchanged).
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + i)
            })
        })
    }

    fn first(&self) -> Option<usize> {
        self.iter().next()
    }
}

struct Solver<'a> {
    problem: &'a CoveringProblem,
    /// Per column: the rows it covers.
    col_rows: Vec<Bits>,
    /// Per row: the columns covering it.
    row_cols: Vec<Bits>,
    best: Option<(Vec<usize>, u64, u64)>,
    nodes: u64,
    limit: u64,
    truncated: bool,
}

impl<'a> Solver<'a> {
    fn better(&self, cost: u64, tiebreak: u64) -> bool {
        match &self.best {
            None => true,
            Some((_, bc, bt)) => cost < *bc || (cost == *bc && tiebreak < *bt),
        }
    }

    /// Independent-set lower bound: rows whose alive-column sets are
    /// pairwise disjoint must each be covered by a distinct column, so the
    /// sum of their cheapest alive columns bounds any completion from
    /// below. Greedy ascending-row selection keeps it deterministic.
    fn lower_bound(&self, rows: &Bits, cols: &Bits) -> u64 {
        let mut used = Bits::new(self.problem.columns.len());
        let mut lb = 0u64;
        for r in rows.iter() {
            let alive = self.row_cols[r].and(cols);
            if alive.intersects(&used) {
                continue;
            }
            let cheapest = alive
                .iter()
                .map(|c| self.problem.columns[c].cost)
                .min()
                .unwrap_or(0);
            lb += cheapest;
            used.or_assign(&alive);
        }
        lb
    }

    /// Greedy completion: repeatedly pick the column covering the most
    /// uncovered rows per unit cost.
    fn greedy(&self, rows: &[usize], chosen: &[usize]) -> (Vec<usize>, u64, u64) {
        let mut uncovered: Vec<usize> = rows.to_vec();
        let mut sel = chosen.to_vec();
        let mut cost: u64 = sel.iter().map(|&c| self.problem.columns[c].cost).sum();
        let mut tb: u64 = sel.iter().map(|&c| self.problem.columns[c].tiebreak).sum();
        while !uncovered.is_empty() {
            let mut best_col = usize::MAX;
            let mut best_score = f64::NEG_INFINITY;
            for (ci, col) in self.problem.columns.iter().enumerate() {
                let covered = col.rows.iter().filter(|r| uncovered.contains(r)).count();
                if covered == 0 {
                    continue;
                }
                let score = covered as f64 / (col.cost.max(1)) as f64;
                if score > best_score {
                    best_score = score;
                    best_col = ci;
                }
            }
            debug_assert_ne!(best_col, usize::MAX, "feasibility checked by caller");
            sel.push(best_col);
            cost += self.problem.columns[best_col].cost;
            tb += self.problem.columns[best_col].tiebreak;
            uncovered.retain(|r| !self.problem.columns[best_col].rows.contains(r));
        }
        (sel, cost, tb)
    }

    fn search(
        &mut self,
        mut rows: Bits,
        mut cols: Bits,
        mut chosen: Vec<usize>,
        mut cost: u64,
        mut tiebreak: u64,
    ) {
        self.nodes += 1;
        if self.nodes > self.limit {
            self.truncated = true;
            return;
        }
        // Reduction loop: essentials + dominance.
        loop {
            if rows.is_empty() {
                if self.better(cost, tiebreak) {
                    self.best = Some((chosen.clone(), cost, tiebreak));
                }
                return;
            }
            if !self.better(cost, tiebreak) {
                return; // bound
            }
            // Essential columns: a row covered by exactly one alive column.
            let mut essential = None;
            for r in rows.iter() {
                let alive = self.row_cols[r].and(&cols);
                match alive.count() {
                    0 => return, // infeasible branch
                    1 => {
                        essential = alive.first();
                        break;
                    }
                    _ => {}
                }
            }
            if let Some(ci) = essential {
                chosen.push(ci);
                cost += self.problem.columns[ci].cost;
                tiebreak += self.problem.columns[ci].tiebreak;
                rows.subtract(&self.col_rows[ci]);
                cols.remove(ci);
                continue;
            }
            // Column dominance: drop c1 if some c2 covers a superset of the
            // alive rows of c1 at <= cost.
            let mut removed_col = false;
            let cols_snapshot = cols.clone();
            for c1 in cols_snapshot.iter() {
                let alive1 = self.col_rows[c1].and(&rows);
                if alive1.is_empty() {
                    cols.remove(c1);
                    removed_col = true;
                    continue;
                }
                // A strict preference order prevents mutual domination.
                let prefer = |c2: usize, c1: usize| {
                    let (a, b) = (&self.problem.columns[c2], &self.problem.columns[c1]);
                    (a.cost, a.tiebreak, c2) < (b.cost, b.tiebreak, c1)
                };
                let dominated = cols_snapshot
                    .iter()
                    .any(|c2| c2 != c1 && prefer(c2, c1) && alive1.is_subset(&self.col_rows[c2]));
                if dominated {
                    cols.remove(c1);
                    removed_col = true;
                }
            }
            if removed_col {
                continue;
            }
            // Row dominance: if the alive columns of r1 are a subset of
            // r2's, covering r1 forces covering r2, so drop r2. The strict
            // preference (proper subset, or equal sets with lower index)
            // prevents cyclic mutual domination.
            let alive_sets: Vec<(usize, Bits, usize)> = rows
                .iter()
                .map(|r| {
                    let a = self.row_cols[r].and(&cols);
                    let n = a.count();
                    (r, a, n)
                })
                .collect();
            let mut removed_row = false;
            for (r2, a2, n2) in &alive_sets {
                let dominated = alive_sets
                    .iter()
                    .any(|(r1, a1, n1)| r1 != r2 && a1.is_subset(a2) && (n1 < n2 || r1 < r2));
                if dominated {
                    rows.remove(*r2);
                    removed_row = true;
                }
            }
            if removed_row {
                continue;
            }
            break;
        }
        // Independent-set bound: prune only on a strict excess so equal-cost
        // solutions still compete on the tiebreak, exactly as before.
        if let Some((_, best_cost, _)) = &self.best {
            if cost + self.lower_bound(&rows, &cols) > *best_cost {
                return;
            }
        }
        // Branch on the hardest row (fewest alive columns).
        let branch_row = rows
            .iter()
            .min_by_key(|&r| self.row_cols[r].and_count(&cols))
            .expect("rows nonempty");
        let choices = self.row_cols[branch_row].and(&cols);
        for ci in choices.iter() {
            let mut nrows = rows.clone();
            nrows.subtract(&self.col_rows[ci]);
            let mut ncols = cols.clone();
            ncols.remove(ci);
            let mut nchosen = chosen.clone();
            nchosen.push(ci);
            self.search(
                nrows,
                ncols,
                nchosen,
                cost + self.problem.columns[ci].cost,
                tiebreak + self.problem.columns[ci].tiebreak,
            );
            if self.truncated {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_single_column() {
        let mut p = CoveringProblem::new(2);
        p.add_column(vec![0, 1], 1, 0);
        let s = p.solve(10_000).unwrap();
        assert_eq!(s.columns, vec![0]);
        assert_eq!(s.cost, 1);
        assert!(s.exact);
    }

    #[test]
    fn infeasible_returns_none() {
        let mut p = CoveringProblem::new(2);
        p.add_column(vec![0], 1, 0);
        assert!(p.solve(10_000).is_none());
    }

    #[test]
    fn prefers_cheaper_cover() {
        // Rows 0,1,2. Either {col0} covering all at cost 3, or
        // {col1,col2} at cost 1 each.
        let mut p = CoveringProblem::new(3);
        p.add_column(vec![0, 1, 2], 3, 0);
        p.add_column(vec![0, 1], 1, 0);
        p.add_column(vec![2], 1, 0);
        let s = p.solve(10_000).unwrap();
        assert_eq!(s.cost, 2);
        assert_eq!(s.columns, vec![1, 2]);
    }

    #[test]
    fn essential_column_is_forced() {
        let mut p = CoveringProblem::new(3);
        p.add_column(vec![0], 5, 0); // only cover of row 0
        p.add_column(vec![1, 2], 1, 0);
        p.add_column(vec![1], 1, 0);
        let s = p.solve(10_000).unwrap();
        assert!(s.columns.contains(&0));
        assert_eq!(s.cost, 6);
    }

    #[test]
    fn exact_beats_greedy_trap() {
        // Classic greedy trap: greedy takes the big column then needs two
        // more; optimum is two disjoint columns.
        let mut p = CoveringProblem::new(4);
        p.add_column(vec![0, 1, 2], 1, 0); // greedy bait
        p.add_column(vec![0, 1], 1, 0);
        p.add_column(vec![2, 3], 1, 0);
        let s = p.solve(100_000).unwrap();
        assert_eq!(s.cost, 2);
        assert!(s.exact);
    }

    #[test]
    fn zero_rows_selects_nothing() {
        let mut p = CoveringProblem::new(0);
        p.add_column(vec![], 1, 0);
        let s = p.solve(100).unwrap();
        assert!(s.columns.is_empty());
        assert_eq!(s.cost, 0);
    }

    #[test]
    fn tiebreak_prefers_fewer_literals() {
        let mut p = CoveringProblem::new(1);
        p.add_column(vec![0], 1, 5);
        p.add_column(vec![0], 1, 2);
        let s = p.solve(10_000).unwrap();
        assert_eq!(s.columns, vec![1]);
    }

    #[test]
    fn large_random_instance_is_feasible() {
        // 40 rows, 120 random columns; greedy or exact, must cover.
        let mut p = CoveringProblem::new(40);
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for r in 0..40 {
            p.add_column(vec![r], 3, 1); // guarantee feasibility
        }
        for _ in 0..80 {
            let rows: Vec<usize> = (0..40).filter(|_| next() % 3 == 0).collect();
            if !rows.is_empty() {
                p.add_column(rows, 2, 1);
            }
        }
        let s = p.solve(5_000).unwrap();
        let mut covered = vec![false; 40];
        for &c in &s.columns {
            // reconstruct coverage through the public API by re-solving rows
            for r in 0..40 {
                if pcol_covers(&p, c, r) {
                    covered[r] = true;
                }
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    fn pcol_covers(p: &CoveringProblem, c: usize, r: usize) -> bool {
        p.columns[c].rows.contains(&r)
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;

    /// Randomized validity check: every returned solution must cover all
    /// rows (regression test for a cyclic-domination bug found during
    /// development).
    #[test]
    fn random_instances_yield_valid_covers() {
        let mut seed = 12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for iter in 0..400 {
            let nrows = (next() % 40 + 2) as usize;
            let ncols = (next() % 60 + 2) as usize;
            let mut p = CoveringProblem::new(nrows);
            let mut colrows: Vec<Vec<usize>> = Vec::new();
            let mut coverable = vec![false; nrows];
            for _ in 0..ncols {
                let rows: Vec<usize> = (0..nrows).filter(|_| next() % 4 == 0).collect();
                for &r in &rows {
                    coverable[r] = true;
                }
                p.add_column(rows.clone(), 1, next() % 20);
                colrows.push(rows);
            }
            let sol = p.solve(50_000);
            if !coverable.iter().all(|&b| b) {
                assert!(sol.is_none(), "iter {iter}: expected infeasible");
                continue;
            }
            let sol = sol.expect("feasible instance");
            let mut covered = vec![false; nrows];
            for &c in &sol.columns {
                for &r in &colrows[c] {
                    covered[r] = true;
                }
            }
            assert!(
                covered.iter().all(|&b| b),
                "iter {iter}: invalid solution {sol:?}"
            );
        }
    }
}
