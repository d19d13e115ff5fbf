//! Covers: sums of product terms, with two- and three-valued evaluation.

use crate::cube::{Cube, Point};
use std::fmt;

/// A three-valued (Kleene) logic value used by hazard analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tv {
    /// Definitely 0.
    Zero,
    /// Definitely 1.
    One,
    /// Unknown / in transition.
    X,
}

impl Tv {
    /// Lifts a Boolean into a ternary value.
    pub fn from_bool(b: bool) -> Tv {
        if b {
            Tv::One
        } else {
            Tv::Zero
        }
    }
}

impl fmt::Display for Tv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tv::Zero => write!(f, "0"),
            Tv::One => write!(f, "1"),
            Tv::X => write!(f, "X"),
        }
    }
}

/// A sum-of-products cover over a fixed Boolean space.
///
/// # Examples
///
/// ```
/// use bmbe_logic::cover::Cover;
/// use bmbe_logic::cube::Cube;
/// let f = Cover::from_cubes(vec![
///     Cube::parse("1-").unwrap(),
///     Cube::parse("-1").unwrap(),
/// ]); // f = x0 + x1
/// assert!(f.eval(0b01));
/// assert!(!f.eval(0b00));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Cover {
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant 0).
    pub fn empty() -> Self {
        Cover { cubes: Vec::new() }
    }

    /// Builds a cover from product terms.
    pub fn from_cubes(cubes: Vec<Cube>) -> Self {
        Cover { cubes }
    }

    /// The product terms of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Adds a product term.
    pub fn push(&mut self, cube: Cube) {
        self.cubes.push(cube);
    }

    /// Whether the cover has no product terms.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Number of product terms.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals over all products.
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(Cube::num_literals).sum()
    }

    /// Two-valued evaluation at a point.
    pub fn eval(&self, point: Point) -> bool {
        self.cubes.iter().any(|c| c.contains_point(point))
    }

    /// Whether some product term contains `point`.
    pub fn contains_point(&self, point: Point) -> bool {
        self.eval(point)
    }

    /// Whether some single product term entirely contains `cube`.
    pub fn some_cube_contains(&self, cube: &Cube) -> bool {
        self.cubes.iter().any(|c| c.contains_cube(cube))
    }

    /// Whether any product term intersects `cube`.
    pub fn intersects(&self, cube: &Cube) -> bool {
        self.cubes.iter().any(|c| c.intersects(cube))
    }

    /// Whether the union of products covers every point of `cube`.
    ///
    /// Implemented by recursive Shannon splitting, so it is exact but
    /// intended for the small spaces used in controller synthesis.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        // Fast paths.
        if self.some_cube_contains(cube) {
            return true;
        }
        let relevant: Vec<&Cube> = self.cubes.iter().filter(|c| c.intersects(cube)).collect();
        if relevant.is_empty() {
            return false;
        }
        // Split on a variable that is free in `cube` but fixed in some
        // relevant product.
        for i in 0..cube.num_vars() {
            if cube.is_fixed(i) {
                continue;
            }
            if relevant.iter().any(|c| c.is_fixed(i)) {
                return self.covers_cube(&cube.with_fixed(i, false))
                    && self.covers_cube(&cube.with_fixed(i, true));
            }
        }
        // Every relevant product is free on all of cube's free variables,
        // and none contains the cube: then none fixes anything cube doesn't,
        // contradiction with the fast path -- so at least one contains it.
        // (Reaching here means a relevant product contains `cube`.)
        true
    }

    /// A point of `cube` the union of products does *not* cover, if any —
    /// the witness-producing variant of [`Cover::covers_cube`], used by the
    /// algebraic hazard checker to report a concrete disagreement point.
    pub fn uncovered_point(&self, cube: &Cube) -> Option<Point> {
        if self.some_cube_contains(cube) {
            return None;
        }
        let relevant: Vec<&Cube> = self.cubes.iter().filter(|c| c.intersects(cube)).collect();
        if relevant.is_empty() {
            return Some(cube.value_mask());
        }
        for i in 0..cube.num_vars() {
            if cube.is_fixed(i) {
                continue;
            }
            if relevant.iter().any(|c| c.is_fixed(i)) {
                return self
                    .uncovered_point(&cube.with_fixed(i, false))
                    .or_else(|| self.uncovered_point(&cube.with_fixed(i, true)));
            }
        }
        // As in covers_cube: some relevant product must contain the cube.
        None
    }

    /// Three-valued evaluation. `values[i]` is the value of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the space dimension of the
    /// first product term (an empty cover accepts anything and returns 0).
    pub fn eval_ternary(&self, values: &[Tv]) -> Tv {
        let Some(first) = self.cubes.first() else {
            return Tv::Zero;
        };
        assert_eq!(
            values.len(),
            first.num_vars(),
            "ternary vector dimension mismatch"
        );
        let (mut point, mut unknown) = (0u64, 0u64);
        for (i, v) in values.iter().enumerate() {
            match v {
                Tv::One => point |= 1 << i,
                Tv::X => unknown |= 1 << i,
                Tv::Zero => {}
            }
        }
        self.eval_burst(point, unknown)
    }

    /// Three-valued evaluation with the variables of `unknown` at `X` and
    /// every other variable at its bit of `point` (bits of `point` inside
    /// `unknown` are ignored). A product is 0 when a known variable
    /// contradicts it, `X` when it fixes an unknown variable, and 1
    /// otherwise; the cover is the Kleene OR of its products.
    pub fn eval_burst(&self, point: Point, unknown: u64) -> Tv {
        let mut saw_x = false;
        for c in &self.cubes {
            let (care, value) = (c.care_mask(), c.value_mask());
            if (point ^ value) & care & !unknown != 0 {
                continue;
            }
            if care & unknown == 0 {
                return Tv::One;
            }
            saw_x = true;
        }
        if saw_x {
            Tv::X
        } else {
            Tv::Zero
        }
    }

    /// Removes product terms contained in other product terms.
    pub fn make_irredundant_single_containment(&mut self) {
        let mut keep = vec![true; self.cubes.len()];
        for i in 0..self.cubes.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.cubes.len() {
                if i != j && keep[j] && self.cubes[j].contains_cube(&self.cubes[i]) {
                    // cubes[i] inside cubes[j]
                    if self.cubes[i] == self.cubes[j] && i < j {
                        continue; // keep the first of equal cubes
                    }
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut idx = 0;
        self.cubes.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cover[{self}]")
    }
}

impl FromIterator<Cube> for Cover {
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        Cover {
            cubes: iter.into_iter().collect(),
        }
    }
}

impl Extend<Cube> for Cover {
    fn extend<I: IntoIterator<Item = Cube>>(&mut self, iter: I) {
        self.cubes.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cover(strs: &[&str]) -> Cover {
        strs.iter().map(|s| Cube::parse(s).unwrap()).collect()
    }

    /// The per-variable Kleene evaluation of one product: the oracle the
    /// mask-based evaluator is checked against.
    fn eval_cube_ternary(cube: &Cube, values: &[Tv]) -> Tv {
        let mut saw_x = false;
        for (i, &value) in values.iter().enumerate().take(cube.num_vars()) {
            if let Some(v) = cube.var_value(i) {
                match (value, v) {
                    (Tv::One, true) | (Tv::Zero, false) => {}
                    (Tv::X, _) => saw_x = true,
                    _ => return Tv::Zero,
                }
            }
        }
        if saw_x {
            Tv::X
        } else {
            Tv::One
        }
    }

    /// The Kleene OR of the per-product oracle.
    fn eval_oracle(f: &Cover, values: &[Tv]) -> Tv {
        let mut saw_x = false;
        for cube in f.cubes() {
            match eval_cube_ternary(cube, values) {
                Tv::One => return Tv::One,
                Tv::X => saw_x = true,
                Tv::Zero => {}
            }
        }
        if saw_x {
            Tv::X
        } else {
            Tv::Zero
        }
    }

    /// A random cover over `n <= 64` variables with its ternary input: few
    /// literals per product and few unknowns, so every outcome shows up.
    fn arb_case() -> impl Strategy<Value = (Cover, u64, u64)> {
        (
            1usize..65,
            proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..6),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(n, raw, point, x1, x2)| {
                let f: Cover = raw
                    .into_iter()
                    .map(|(c1, c2, value)| Cube::from_masks(n, c1 & c2, value))
                    .collect();
                let space = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                (f, point & space, x1 & x2 & space)
            })
    }

    fn ternary_values(n: usize, point: u64, unknown: u64) -> Vec<Tv> {
        (0..n)
            .map(|i| {
                if unknown >> i & 1 == 1 {
                    Tv::X
                } else {
                    Tv::from_bool(point >> i & 1 == 1)
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn mask_evaluation_matches_the_kleene_oracle((f, point, unknown) in arb_case()) {
            let n = f.cubes().first().map_or(0, Cube::num_vars);
            let values = ternary_values(n, point, unknown);
            let expected = eval_oracle(&f, &values);
            prop_assert_eq!(f.eval_burst(point, unknown), expected);
            prop_assert_eq!(f.eval_ternary(&values), expected);
            // Bits of `point` under `unknown` are ignored.
            prop_assert_eq!(f.eval_burst(point ^ unknown, unknown), expected);
        }
    }

    #[test]
    #[should_panic(expected = "ternary vector dimension mismatch")]
    fn ternary_dimension_is_checked() {
        cover(&["10-"]).eval_ternary(&[Tv::One, Tv::X]);
    }

    #[test]
    fn eval_or_of_products() {
        let f = cover(&["1-", "-1"]);
        assert!(f.eval(0b01));
        assert!(f.eval(0b10));
        assert!(f.eval(0b11));
        assert!(!f.eval(0b00));
    }

    #[test]
    fn covers_cube_requires_union() {
        // x0 + !x0 covers the universe though no single cube does.
        let f = cover(&["1-", "0-"]);
        let u = Cube::universe(2);
        assert!(!f.some_cube_contains(&u));
        assert!(f.covers_cube(&u));
    }

    #[test]
    fn covers_cube_detects_hole() {
        let f = cover(&["11", "00"]);
        assert!(!f.covers_cube(&Cube::universe(2)));
        assert!(f.covers_cube(&Cube::parse("11").unwrap()));
    }

    #[test]
    fn ternary_static_hazard_visible() {
        // f = x0 x1' + x1 x2 has a static-1 hazard at x0=x2=1 when x1 changes:
        // with x1 = X both products go X.
        let f = cover(&["10-", "-11"]);
        let v = [Tv::One, Tv::X, Tv::One];
        assert_eq!(f.eval_ternary(&v), Tv::X);
        // Adding the consensus product x0 x2 removes the hazard.
        let g = cover(&["10-", "-11", "1-1"]);
        assert_eq!(g.eval_ternary(&v), Tv::One);
    }

    #[test]
    fn ternary_constant_zero() {
        let f = Cover::empty();
        assert_eq!(f.eval_ternary(&[]), Tv::Zero);
    }

    #[test]
    fn irredundant_removes_contained() {
        let mut f = cover(&["1-", "11", "0-"]);
        f.make_irredundant_single_containment();
        assert_eq!(f.len(), 2);
        assert!(f.covers_cube(&Cube::universe(2)));
    }

    #[test]
    fn literal_count() {
        let f = cover(&["10-", "-11"]);
        assert_eq!(f.num_literals(), 4);
    }
}
