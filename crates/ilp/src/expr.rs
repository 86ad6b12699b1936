use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::model::VarId;

/// A linear expression `Σ cᵢ·xᵢ + k` over model variables.
///
/// The terms are a vector sorted by variable, with the merge rules of a
/// `VarId → coefficient` map: adding a term accumulates `c += coeff` onto
/// the variable's coefficient in the order the additions arrive, a
/// coefficient that falls below `1e-300` in magnitude is dropped, and
/// iteration runs in ascending variable order. Appending a variable past
/// the last one is a plain push, so expressions built in variable order
/// (every row of the bisection model) never search or shift.
///
/// Expressions are built with ordinary operators:
///
/// ```
/// use tapacs_ilp::{LinExpr, Model};
/// let mut m = Model::new("ex");
/// let x = m.binary("x");
/// let y = m.binary("y");
/// let e: LinExpr = 2.0 * x + y - 0.5;
/// assert_eq!(e.coeff(x), 2.0);
/// assert_eq!(e.coeff(y), 1.0);
/// assert_eq!(e.constant(), -0.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

/// Whether an accumulated coefficient is dropped from its expression.
pub(crate) fn negligible(c: f64) -> bool {
    c.abs() < 1e-300
}

/// `Σ cᵢ·values[xᵢ]` over sorted terms, a missing value reading as 0.
pub(crate) fn dot(terms: &[(VarId, f64)], values: &[f64]) -> f64 {
    dot_iter(terms.iter().copied(), values)
}

/// [`dot`] over terms from an iterator, summed in its order.
pub(crate) fn dot_iter(terms: impl Iterator<Item = (VarId, f64)>, values: &[f64]) -> f64 {
    terms.map(|(v, c)| c * values.get(v.index()).copied().unwrap_or(0.0)).sum()
}

/// [`LinExpr::add_term`] on the sorted row `terms[from..]`: an expression
/// is the row from 0, and a model's row block merges into its open row.
pub(crate) fn merge_term(terms: &mut Vec<(VarId, f64)>, from: usize, var: VarId, coeff: f64) {
    if coeff == 0.0 {
        return;
    }
    let row = &terms[from..];
    let at = match row.last() {
        Some(&(last, _)) if last >= var => row.binary_search_by_key(&var, |&(v, _)| v),
        _ => Err(row.len()),
    };
    match at {
        Ok(i) => {
            terms[from + i].1 += coeff;
            if negligible(terms[from + i].1) {
                terms.remove(from + i);
            }
        }
        // A fresh term starts from `0.0 + coeff`, which is `coeff`.
        Err(i) if !negligible(coeff) => terms.insert(from + i, (var, coeff)),
        Err(_) => {}
    }
}

impl LinExpr {
    /// The empty expression (`0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The empty expression with room for `terms` terms, for a builder
    /// that knows a row's length up front.
    pub fn with_capacity(terms: usize) -> Self {
        Self { terms: Vec::with_capacity(terms), constant: 0.0 }
    }

    /// The expression of `terms`, already in strictly ascending variable
    /// order, and `constant`, taken as given.
    pub(crate) fn from_sorted(terms: Vec<(VarId, f64)>, constant: f64) -> Self {
        debug_assert!(terms.windows(2).all(|w| w[0].0 < w[1].0), "terms out of order");
        Self { terms, constant }
    }

    /// An expression consisting of a single constant.
    pub fn constant_term(k: f64) -> Self {
        Self { terms: Vec::new(), constant: k }
    }

    /// An expression consisting of a single weighted variable.
    pub fn term(var: VarId, coeff: f64) -> Self {
        let mut e = Self::new();
        e.add_term(var, coeff);
        e
    }

    /// Adds `coeff · var` to the expression, merging with any existing term.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        merge_term(&mut self.terms, 0, var, coeff);
        self
    }

    /// Adds a constant offset.
    pub fn add_constant(&mut self, k: f64) -> &mut Self {
        self.constant += k;
        self
    }

    /// The coefficient of `var` (0 if absent).
    pub fn coeff(&self, var: VarId) -> f64 {
        self.terms.binary_search_by_key(&var, |&(v, _)| v).map_or(0.0, |i| self.terms[i].1)
    }

    /// The constant offset of the expression.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Iterates over `(variable, coefficient)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// The sorted terms, without the constant.
    pub(crate) fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Number of variables with non-zero coefficient.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression against a dense value vector indexed by
    /// variable id.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant + dot(&self.terms, values)
    }

    /// Sums an iterator of expressions.
    pub fn sum<I: IntoIterator<Item = LinExpr>>(items: I) -> Self {
        let mut acc = LinExpr::new();
        for e in items {
            acc += e;
        }
        acc
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl From<f64> for LinExpr {
    fn from(k: f64) -> Self {
        LinExpr::constant_term(k)
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: Self) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: Self) {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: Self) -> Self {
        self -= rhs;
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> Self {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: f64) -> Self {
        for (_, c) in &mut self.terms {
            *c *= k;
        }
        self.constant *= k;
        self
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, e: LinExpr) -> LinExpr {
        e * self
    }
}

// Operator sugar on raw variables.
impl Add<VarId> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, v: VarId) -> LinExpr {
        self.add_term(v, 1.0);
        self
    }
}

impl Sub<VarId> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, v: VarId) -> LinExpr {
        self.add_term(v, -1.0);
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, k: f64) -> LinExpr {
        self.constant += k;
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, k: f64) -> LinExpr {
        self.constant -= k;
        self
    }
}

impl Mul<VarId> for f64 {
    type Output = LinExpr;
    fn mul(self, v: VarId) -> LinExpr {
        LinExpr::term(v, self)
    }
}

impl Add<VarId> for VarId {
    type Output = LinExpr;
    fn add(self, rhs: VarId) -> LinExpr {
        let mut e = LinExpr::term(self, 1.0);
        e.add_term(rhs, 1.0);
        e
    }
}

impl Sub<VarId> for VarId {
    type Output = LinExpr;
    fn sub(self, rhs: VarId) -> LinExpr {
        let mut e = LinExpr::term(self, 1.0);
        e.add_term(rhs, -1.0);
        e
    }
}

impl Add<LinExpr> for VarId {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        rhs + self
    }
}

impl Sub<LinExpr> for VarId {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        -rhs + self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    #[test]
    fn builds_and_merges_terms() {
        let mut m = Model::new("t");
        let x = m.binary("x");
        let y = m.binary("y");
        let e = 2.0 * x + 3.0 * y + 1.0 * x - 1.5;
        assert_eq!(e.coeff(x), 3.0);
        assert_eq!(e.coeff(y), 3.0);
        assert_eq!(e.constant(), -1.5);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn cancelling_terms_are_removed() {
        let mut m = Model::new("t");
        let x = m.binary("x");
        let e = 1.0 * x - 1.0 * x;
        assert!(e.is_empty());
        assert_eq!(e.coeff(x), 0.0);
    }

    #[test]
    fn negation_and_scaling() {
        let mut m = Model::new("t");
        let x = m.binary("x");
        let e = -(2.0 * x + 4.0);
        assert_eq!(e.coeff(x), -2.0);
        assert_eq!(e.constant(), -4.0);
        let e2 = e * 0.5;
        assert_eq!(e2.coeff(x), -1.0);
        assert_eq!(e2.constant(), -2.0);
    }

    #[test]
    fn eval_against_vector() {
        let mut m = Model::new("t");
        let x = m.binary("x");
        let y = m.binary("y");
        let e = 2.0 * x + 3.0 * y + 1.0;
        assert_eq!(e.eval(&[1.0, 2.0]), 9.0);
    }

    /// The map semantics the sorted vector must reproduce bit for bit.
    #[derive(Default)]
    struct Reference {
        terms: std::collections::BTreeMap<usize, f64>,
        constant: f64,
    }

    impl Reference {
        fn add_term(&mut self, var: usize, coeff: f64) {
            if coeff != 0.0 {
                let c = self.terms.entry(var).or_insert(0.0);
                *c += coeff;
                if c.abs() < 1e-300 {
                    self.terms.remove(&var);
                }
            }
        }

        fn add(&mut self, rhs: &Reference, sign: f64) {
            for (&v, &c) in &rhs.terms {
                self.add_term(v, sign * c);
            }
            self.constant += sign * rhs.constant;
        }

        fn scale(&mut self, k: f64) {
            self.terms.values_mut().for_each(|c| *c *= k);
            self.constant *= k;
        }

        fn eval(&self, values: &[f64]) -> f64 {
            self.constant + self.terms.iter().map(|(&v, c)| c * values[v]).sum::<f64>()
        }
    }

    #[test]
    fn sorted_terms_match_a_map_accumulator_bit_for_bit() {
        const VARS: usize = 12;
        // Exact cancellations (±1), rounding residues (0.1 + 0.2 − 0.3),
        // sums that land below 1e-300 (2e-300 − 1.5e-300), sub-threshold
        // inputs and both zeros.
        const COEFFS: [f64; 14] =
            [1.0, -1.0, 2.5, -0.5, 3.0, 0.1, 0.2, -0.3, 2e-300, -1.5e-300, 7e-301, 0.0, -0.0, -4.0];
        const SCALES: [f64; 6] = [-1.0, 0.5, 3.0, 1e-200, 0.0, -0.25];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };

        let mut m = Model::new("t");
        let x: Vec<VarId> = (0..VARS).map(|_| m.binary("x")).collect();
        let values: Vec<f64> = (0..VARS).map(|i| 0.75 * i as f64 - 2.0).collect();
        let bits = |e: &LinExpr| -> Vec<(usize, u64)> {
            e.iter().map(|(v, c)| (v.index(), c.to_bits())).collect()
        };
        let ref_bits = |r: &Reference| -> Vec<(usize, u64)> {
            r.terms.iter().map(|(&v, c)| (v, c.to_bits())).collect()
        };

        for _ in 0..300 {
            let (mut e, mut r) = (LinExpr::new(), Reference::default());
            for _ in 0..40 {
                match next(6) {
                    0 | 1 => {
                        let (v, c) = (next(VARS), COEFFS[next(COEFFS.len())]);
                        e.add_term(x[v], c);
                        r.add_term(v, c);
                    }
                    op @ (2 | 3) => {
                        let (mut other, mut other_ref) = (LinExpr::new(), Reference::default());
                        for _ in 0..next(5) {
                            let (v, c) = (next(VARS), COEFFS[next(COEFFS.len())]);
                            other.add_term(x[v], c);
                            other_ref.add_term(v, c);
                        }
                        let k = COEFFS[next(COEFFS.len())];
                        other.add_constant(k);
                        other_ref.constant += k;
                        if op == 2 {
                            e += other;
                            r.add(&other_ref, 1.0);
                        } else {
                            e -= other;
                            r.add(&other_ref, -1.0);
                        }
                    }
                    4 => {
                        e = -e;
                        r.scale(-1.0);
                    }
                    _ => {
                        let k = SCALES[next(SCALES.len())];
                        e = e * k;
                        r.scale(k);
                    }
                }
                assert_eq!(bits(&e), ref_bits(&r));
                assert_eq!(e.len(), r.terms.len());
                assert_eq!(e.constant().to_bits(), r.constant.to_bits());
                for (i, &v) in x.iter().enumerate() {
                    let want = r.terms.get(&i).copied().unwrap_or(0.0);
                    assert_eq!(e.coeff(v).to_bits(), want.to_bits());
                }
                assert_eq!(e.eval(&values).to_bits(), r.eval(&values).to_bits());
            }
        }
    }

    #[test]
    fn sum_of_expressions() {
        let mut m = Model::new("t");
        let vars: Vec<_> = (0..4).map(|i| m.binary(format!("b{i}"))).collect();
        let total = LinExpr::sum(vars.iter().map(|&v| LinExpr::term(v, 1.0)));
        assert_eq!(total.len(), 4);
        for &v in &vars {
            assert_eq!(total.coeff(v), 1.0);
        }
    }
}
