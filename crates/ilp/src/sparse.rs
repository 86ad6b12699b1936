//! Sparse (CSC) storage for the revised simplex engine.
//!
//! Branch and bound only ever changes *bounds*, never the constraint
//! matrix, so the scaled column-major matrix, the scaled right-hand side
//! and the minimize-direction costs are built **once** per model
//! ([`SparseLp::build`], held by `PreparedLp`) and shared by every node
//! solve. They are built straight from the model's row block, through
//! presolve's view of it: the one copy of the matrix a solve makes. The
//! range proof reads its pattern as the column → rows index, and the dense
//! oracle engine lays its tableau out from it, so both engines price
//! numerically identical systems.

use crate::model::CmpOp;
use crate::simplex::LpProblem;

/// The bounds of the logical (slack) column a row operator induces:
/// `<=` → `[0, ∞)`, `>=` → `(-∞, 0]`, `==` → `[0, 0]`.
fn logical_bounds(op: CmpOp) -> (f64, f64) {
    match op {
        CmpOp::Le => (0.0, f64::INFINITY),
        CmpOp::Ge => (f64::NEG_INFINITY, 0.0),
        CmpOp::Eq => (0.0, 0.0),
    }
}

/// Row-equilibration factor: scale a row so its largest coefficient
/// magnitude is 1 (rows already at or below 1 are left alone). Floorplanning
/// rows mix unit cut indicators with ~1e6-LUT resource coefficients;
/// without scaling, phase-1 feasibility tests drown in roundoff. Depends
/// only on the row data, never on node bounds, so warm-started children
/// see the identical matrix.
pub(crate) fn row_scale(coeffs: impl IntoIterator<Item = f64>) -> f64 {
    let peak = coeffs.into_iter().fold(0.0f64, |a, c| a.max(c.abs()));
    if peak > 1.0 {
        1.0 / peak
    } else {
        1.0
    }
}

/// A model's immutable solve-ready form: the scaled constraint matrix in
/// compressed-sparse-column layout over `n_struct + m` columns (structural
/// columns first, then one unit logical column per row), plus the scaled
/// right-hand side, the minimize-direction costs and the logical-column
/// bounds. Everything a node solve needs except the (per-node) structural
/// bounds.
#[derive(Debug, Clone)]
pub(crate) struct SparseLp {
    pub m: usize,
    pub n_struct: usize,
    /// Total columns: `n_struct + m`.
    pub n: usize,
    /// Column start offsets into `row_ix`/`val`, length `n + 1`.
    pub col_ptr: Vec<u32>,
    pub row_ix: Vec<u32>,
    pub val: Vec<f64>,
    /// Scaled right-hand side, length `m`.
    pub b: Vec<f64>,
    /// Minimize-direction objective per column (logical columns cost 0).
    pub cost: Vec<f64>,
    /// Bounds of the logical columns, length `m`.
    pub logical_lower: Vec<f64>,
    pub logical_upper: Vec<f64>,
}

impl SparseLp {
    /// Builds the CSC form of `lp`, applying the same row scaling and
    /// duplicate-coefficient summation (in the same order) as the dense
    /// tableau builder: within a column, entries keep row order, and the
    /// duplicates of one cell sum in the order their row stores them.
    pub fn build(lp: &LpProblem) -> SparseLp {
        let m = lp.rows.len();
        let n_struct = lp.n_vars;
        let n = n_struct + m;

        // Triplets in per-row insertion order; the stable sort below groups
        // them by column while keeping that order, so duplicate (row, col)
        // entries sum in exactly the order the dense builder adds them.
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        let mut b = Vec::with_capacity(m);
        let mut logical_lower = Vec::with_capacity(m);
        let mut logical_upper = Vec::with_capacity(m);
        for i in 0..m {
            let (op, rhs, terms) = lp.rows.row(i);
            let scale = row_scale(terms.clone().map(|(_, a)| a));
            for (j, a) in terms {
                debug_assert!(j < n_struct, "coefficient column out of range");
                trips.push((j as u32, i as u32, a * scale));
            }
            b.push(rhs * scale);
            let (l, u) = logical_bounds(op);
            logical_lower.push(l);
            logical_upper.push(u);
        }
        trips.sort_by_key(|t| t.0);

        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_ix = Vec::with_capacity(trips.len() + m);
        let mut val = Vec::with_capacity(trips.len() + m);
        col_ptr.push(0u32);
        let mut t = 0usize;
        for j in 0..n_struct {
            while t < trips.len() && trips[t].0 == j as u32 {
                let (_, i, a) = trips[t];
                // Sum duplicates of the same cell (they are adjacent: same
                // column, and per-row pushes keep same-row entries together).
                if let Some(last) = row_ix.last() {
                    if *last == i && (row_ix.len() as u32) > col_ptr[j] {
                        let v: &mut f64 = val.last_mut().expect("val tracks row_ix");
                        *v += a;
                        t += 1;
                        continue;
                    }
                }
                row_ix.push(i);
                val.push(a);
                t += 1;
            }
            col_ptr.push(row_ix.len() as u32);
        }
        debug_assert_eq!(t, trips.len());
        for i in 0..m {
            row_ix.push(i as u32);
            val.push(1.0);
            col_ptr.push(row_ix.len() as u32);
        }

        let sign = if lp.minimize { 1.0 } else { -1.0 };
        let mut cost = vec![0.0; n];
        for j in 0..n_struct {
            cost[j] = sign * lp.objective[j];
        }

        SparseLp { m, n_struct, n, col_ptr, row_ix, val, b, cost, logical_lower, logical_upper }
    }

    /// The `(rows, values)` slices of column `j` (structural or logical);
    /// the rows ascend.
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.col_ptr[j] as usize, self.col_ptr[j + 1] as usize);
        (&self.row_ix[s..e], &self.val[s..e])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{LpRow, LpRows};

    fn row(coeffs: Vec<(usize, f64)>, op: CmpOp, rhs: f64) -> LpRow {
        LpRow { coeffs, op, rhs }
    }

    fn problem(rows: Vec<LpRow>, n: usize) -> LpProblem<'static> {
        LpProblem {
            n_vars: n,
            lower: vec![0.0; n],
            upper: vec![1.0; n],
            rows: LpRows::owned(rows),
            objective: vec![1.0; n],
            minimize: true,
            objective_offset: 0.0,
        }
    }

    #[test]
    fn csc_layout_and_logical_columns() {
        let p = problem(
            vec![
                row(vec![(0, 2.0), (1, 1.0)], CmpOp::Le, 4.0),
                row(vec![(1, 3.0)], CmpOp::Ge, 1.0),
            ],
            2,
        );
        let sp = SparseLp::build(&p);
        assert_eq!((sp.m, sp.n_struct, sp.n), (2, 2, 4));
        // Column 0: row 0 only, scaled by 1/2.
        assert_eq!(sp.col(0), (&[0u32][..], &[1.0][..]));
        // Column 1: rows 0 and 1 (scales 1/2 and 1/3).
        let (r1, v1) = sp.col(1);
        assert_eq!(r1, &[0, 1]);
        assert!((v1[0] - 0.5).abs() < 1e-15 && (v1[1] - 1.0).abs() < 1e-15);
        // Logical columns are unit vectors with op-derived bounds.
        assert_eq!(sp.col(2), (&[0u32][..], &[1.0][..]));
        assert_eq!(sp.col(3), (&[1u32][..], &[1.0][..]));
        assert_eq!(sp.logical_upper[0], f64::INFINITY);
        assert_eq!(sp.logical_upper[1], 0.0);
        // Scaled rhs.
        assert!((sp.b[0] - 2.0).abs() < 1e-15);
        assert!((sp.b[1] - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn duplicate_coefficients_sum_in_insertion_order() {
        let p = problem(vec![row(vec![(0, 1.0), (0, 2.0)], CmpOp::Le, 3.0)], 1);
        let sp = SparseLp::build(&p);
        let (r, v) = sp.col(0);
        assert_eq!(r, &[0]);
        // Summed then equilibrated by the row peak of 2: (1 + 2) / 2.
        assert!((v[0] - 1.5).abs() < 1e-15);
    }

    #[test]
    fn maximize_flips_cost_sign() {
        let mut p = problem(vec![row(vec![(0, 1.0)], CmpOp::Le, 1.0)], 1);
        p.minimize = false;
        let sp = SparseLp::build(&p);
        assert_eq!(sp.cost[0], -1.0);
        assert_eq!(sp.cost[1], 0.0);
    }
}
