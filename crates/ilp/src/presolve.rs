//! Root presolve: shrinks a [`LpProblem`] once per model before branch and
//! bound touches it.
//!
//! Four passes iterate to a fixpoint:
//!
//! 1. **Singleton rows** become variable bounds (rounded inward for
//!    integral variables) and are removed.
//! 2. **Empty and redundant rows** — rows whose activity range, computed
//!    coefficient-wise from the variable bounds, can never violate the
//!    relation — are removed; ranges that can never *satisfy* it prove the
//!    model infeasible without a single simplex iteration.
//! 3. **Fixed columns** (bounds pinched to a point) are substituted into
//!    every row and dropped from the column space.
//! 4. **Dual fixing** — the root-node reduced-cost argument run on signs
//!    alone: when moving a variable towards one of its finite bounds can
//!    neither hurt the (minimize-direction) objective nor violate any row,
//!    some optimum has it at that bound, so it is fixed there. For
//!    integral variables the bound is already integral after pass 1's
//!    rounding, so the fixing is MIP-safe.
//!
//! The passes read the model's row block in place, and the result is a
//! [`PresolvedLp`]: the reduced problem as a view of that block (a row
//! mask, adjusted right-hand sides and a column map, see [`Reduction`])
//! plus a postsolve map back to original variable ids. Reductions are
//! counted into the
//! process-wide [`SolveActivity`](crate::SolveActivity).

use crate::model::{CmpOp, Rows};
use crate::simplex::{LpProblem, LpRows, Reduction, TOL};
use crate::stats::{self, SolveStats};

/// Absolute slack used when *removing* a row as redundant — deliberately
/// far tighter than the solver's feasibility tolerance so a removed row can
/// never re-appear as a violated constraint at postsolve time.
const REDUNDANT_TOL: f64 = 1e-9;
/// Integrality rounding guard for bound tightening.
const INT_TOL: f64 = 1e-6;

/// A presolved LP plus the map back to the original variable space.
#[derive(Debug, Clone)]
pub(crate) struct PresolvedLp<'a> {
    /// The reduced problem (columns renumbered densely over kept
    /// variables, rows substituted and filtered).
    pub lp: LpProblem<'a>,
    /// Original variable index of each reduced column.
    pub kept: Vec<usize>,
    /// Fixed value per original variable (`None` for kept columns).
    fixed: Vec<Option<f64>>,
}

impl<'a> PresolvedLp<'a> {
    /// The no-op reduction (presolve disabled): every column kept.
    pub fn identity(lp: &LpProblem<'a>) -> PresolvedLp<'a> {
        PresolvedLp { lp: lp.clone(), kept: (0..lp.n_vars).collect(), fixed: vec![None; lp.n_vars] }
    }

    /// Maps a point of the reduced problem back to the original variable
    /// space, filling presolve-fixed variables with their fixed values.
    pub fn postsolve(&self, reduced: &[f64]) -> Vec<f64> {
        debug_assert_eq!(reduced.len(), self.kept.len());
        let mut full: Vec<f64> = self.fixed.iter().map(|v| v.unwrap_or(0.0)).collect();
        for (r, &orig) in self.kept.iter().enumerate() {
            full[orig] = reduced[r];
        }
        full
    }
}

/// The passes' working state over a whole row block. A column fixed
/// between two substitution sweeps is substituted at the next one:
/// `fixed_in[j]` is that sweep's number (`usize::MAX` while `j` is free),
/// and a term is live until then, a zero one never. So each row's live
/// terms, and the order its right-hand side absorbs the fixed ones, are
/// those of a row copy that drops terms as they are substituted.
struct Work<'r> {
    rows: &'r Rows,
    alive: Vec<bool>,
    rhs: Vec<f64>,
    fixed: Vec<Option<f64>>,
    fixed_in: Vec<usize>,
    /// Sweeps run so far.
    sweeps: usize,
}

impl Work<'_> {
    /// Row `i`'s live terms, in block order.
    fn terms(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (fixed_in, sweeps) = (&self.fixed_in, self.sweeps);
        let terms = self.rows.row(i).terms.iter().map(|&(v, a)| (v.index(), a));
        terms.filter(move |&(j, a)| a != 0.0 && fixed_in[j] > sweeps)
    }

    /// Fixes column `j` at `v`, to be substituted at the next sweep.
    fn fix(&mut self, j: usize, v: f64) {
        self.fixed[j] = Some(v);
        self.fixed_in[j] = self.sweeps + 1;
    }

    /// Substitutes the columns fixed since the last sweep into every live
    /// row, in each row's term order.
    fn sweep(&mut self) {
        self.sweeps += 1;
        for i in 0..self.rows.len() {
            if !self.alive[i] {
                continue;
            }
            for &(v, a) in self.rows.row(i).terms {
                let j = v.index();
                if a != 0.0 && self.fixed_in[j] == self.sweeps {
                    self.rhs[i] -= a * self.fixed[j].expect("a column is fixed before its sweep");
                }
            }
        }
    }
}

/// Runs the presolve passes on `lp` (a whole row block) to a fixpoint:
/// the reduced problem and its postsolve map, or `None` when the
/// reductions prove the model infeasible. `is_integral` flags the
/// variables whose bounds must stay integral.
pub(crate) fn presolve<'a>(lp: &LpProblem<'a>, is_integral: &[bool]) -> Option<PresolvedLp<'a>> {
    debug_assert_eq!(is_integral.len(), lp.n_vars);
    let n = lp.n_vars;
    debug_assert!(lp.rows.reduction.is_none(), "presolve reduces a whole block");
    let block = &lp.rows.block;
    let m = block.len();
    let mut lower = lp.lower.clone();
    let mut upper = lp.upper.clone();
    let mut w = Work {
        rows: block,
        alive: vec![true; m],
        rhs: block.iter().map(|row| row.rhs).collect(),
        fixed: vec![None; n],
        fixed_in: vec![usize::MAX; n],
        sweeps: 0,
    };

    let mut work = SolveStats { presolve_runs: 1, ..SolveStats::default() };

    // Integral variables start with inward-rounded bounds.
    for j in 0..n {
        if is_integral[j] {
            round_integral_bounds(j, &mut lower, &mut upper);
        }
    }

    let mut changed = true;
    let mut passes = 0;
    while changed && passes < 16 {
        changed = false;
        passes += 1;

        // Substitute fixed variables into every live row.
        w.sweep();

        // Row passes: empty, singleton, activity-based.
        for i in 0..m {
            if !w.alive[i] {
                continue;
            }
            let (op, rhs) = (block.row(i).op, w.rhs[i]);
            let first_two = {
                let mut live = w.terms(i);
                (live.next(), live.next())
            };
            let remove = match first_two {
                (None, _) => {
                    activity_range(None, op, rhs, &lower, &upper)?;
                    true
                }
                (Some((j, a)), None) => {
                    let bound = rhs / a;
                    let tighten_upper = matches!(
                        (op, a > 0.0),
                        (CmpOp::Le, true) | (CmpOp::Ge, false) | (CmpOp::Eq, _)
                    );
                    let tighten_lower = matches!(
                        (op, a > 0.0),
                        (CmpOp::Ge, true) | (CmpOp::Le, false) | (CmpOp::Eq, _)
                    );
                    if tighten_upper && bound < upper[j] - REDUNDANT_TOL {
                        upper[j] = bound;
                        work.presolve_bounds_tightened += 1;
                    }
                    if tighten_lower && bound > lower[j] + REDUNDANT_TOL {
                        lower[j] = bound;
                        work.presolve_bounds_tightened += 1;
                    }
                    if is_integral[j] {
                        round_integral_bounds(j, &mut lower, &mut upper);
                    }
                    true
                }
                _ => {
                    let (min_act, max_act) = activity_range(w.terms(i), op, rhs, &lower, &upper)?;
                    // Redundant: no point of the box can break the row.
                    (op == CmpOp::Ge || max_act.is_finite() && max_act <= rhs + REDUNDANT_TOL)
                        && (op == CmpOp::Le
                            || min_act.is_finite() && min_act >= rhs - REDUNDANT_TOL)
                }
            };
            if remove {
                w.alive[i] = false;
                work.presolve_rows_removed += 1;
                changed = true;
            }
        }

        // Column passes: empty-interval detection, pinched-bound fixing.
        for j in 0..n {
            if w.fixed[j].is_some() {
                continue;
            }
            if lower[j] > upper[j] + REDUNDANT_TOL {
                return None;
            }
            if upper[j] - lower[j] <= REDUNDANT_TOL {
                let mut v = 0.5 * (lower[j] + upper[j]);
                if is_integral[j] {
                    v = v.round();
                    if v < lower[j] - INT_TOL || v > upper[j] + INT_TOL {
                        return None;
                    }
                }
                w.fix(j, v);
                work.presolve_cols_fixed += 1;
                changed = true;
            }
        }

        // Dual fixing: per-column sign safety over the live rows.
        let mut dec_safe = vec![true; n];
        let mut inc_safe = vec![true; n];
        for i in (0..m).filter(|&i| w.alive[i]) {
            let op = block.row(i).op;
            for (j, a) in w.terms(i) {
                // Whether decreasing or increasing `j` can break the row.
                let (dec, inc) = match op {
                    CmpOp::Le => (a < 0.0, a > 0.0),
                    CmpOp::Ge => (a > 0.0, a < 0.0),
                    CmpOp::Eq => (true, true),
                };
                dec_safe[j] &= !dec;
                inc_safe[j] &= !inc;
            }
        }
        let sign = if lp.minimize { 1.0 } else { -1.0 };
        for j in 0..n {
            if w.fixed[j].is_some() {
                continue;
            }
            let c = sign * lp.objective[j];
            if c >= 0.0 && dec_safe[j] && lower[j].is_finite() {
                w.fix(j, lower[j]);
                work.presolve_cols_fixed += 1;
                changed = true;
            } else if c <= 0.0 && inc_safe[j] && upper[j].is_finite() {
                w.fix(j, upper[j]);
                work.presolve_cols_fixed += 1;
                changed = true;
            }
        }
    }

    // Final substitution sweep (the loop may have capped out with fixes
    // from its last pass still unapplied).
    w.sweep();
    for i in 0..m {
        if w.alive[i] && w.terms(i).next().is_none() {
            activity_range(None, block.row(i).op, w.rhs[i], &lower, &upper)?;
            w.alive[i] = false;
            work.presolve_rows_removed += 1;
        }
    }

    stats::record(&work);

    // The reduced problem over the kept columns and rows.
    let fixed = w.fixed;
    let kept: Vec<usize> = (0..n).filter(|&j| fixed[j].is_none()).collect();
    let mut col = vec![usize::MAX; n];
    for (r, &orig) in kept.iter().enumerate() {
        col[orig] = r;
    }
    let mut offset = lp.objective_offset;
    for (j, fix) in fixed.iter().enumerate() {
        if let Some(v) = fix {
            offset += lp.objective[j] * v;
        }
    }
    let rows: Vec<usize> = (0..m).filter(|&i| w.alive[i]).collect();
    let rhs = rows.iter().map(|&i| w.rhs[i]).collect();
    let reduced = LpProblem {
        n_vars: kept.len(),
        lower: kept.iter().map(|&j| lower[j]).collect(),
        upper: kept.iter().map(|&j| upper[j]).collect(),
        rows: LpRows {
            block: lp.rows.block.clone(),
            reduction: Some(Reduction { rows, rhs, col }),
        },
        objective: kept.iter().map(|&j| lp.objective[j]).collect(),
        minimize: lp.minimize,
        objective_offset: offset,
    };
    Some(PresolvedLp { lp: reduced, kept, fixed })
}

/// The coefficient-wise activity range `[min, max]` of `Σ aⱼ·xⱼ` over the
/// box `lower ≤ x ≤ upper`, or `None` when that range alone proves
/// `Σ aⱼ·xⱼ op rhs` unsatisfiable everywhere in the box.
///
/// This is the one definition of a provably infeasible row: presolve's
/// row passes run it at the root, and the branch and bound runs it on
/// every branched child before the child's LP (`parallel.rs`), so it must
/// never condemn a box whose LP phase 1 would accept. The coefficients
/// must be finite (`Model::solve_with_options` rejects others up front),
/// so `min` is finite or `−∞` and `max` finite or `+∞`.
///
/// The range must miss `rhs` by more than a slack that is generous when
/// *proving* infeasibility (a false negative only costs simplex work):
/// `TOL.infeasible` relative to `1 + |rhs|`, and never less than
/// `TOL.infeasible` in the units of the LP the engines solve, which divide
/// a row by its largest coefficient magnitude when that exceeds 1
/// ([`row_scale`](crate::sparse::row_scale)). Without the second term the
/// row `−4000·x₀ − 2·x₁ + x₂ ≥ 0` over `x₀ = 0`, `x₁ ≥ 0`, `x₂ ≤ −2e-6`
/// would be condemned, while phase 1 sees a violation of 5e-10 in the
/// scaled row and calls the LP feasible.
pub(crate) fn activity_range(
    terms: impl IntoIterator<Item = (usize, f64)>,
    op: CmpOp,
    rhs: f64,
    lower: &[f64],
    upper: &[f64],
) -> Option<(f64, f64)> {
    let mut min_act = 0.0f64;
    let mut max_act = 0.0f64;
    let mut peak = 0.0f64;
    for (j, a) in terms {
        let (lo_c, hi_c) =
            if a > 0.0 { (a * lower[j], a * upper[j]) } else { (a * upper[j], a * lower[j]) };
        min_act += lo_c;
        max_act += hi_c;
        peak = peak.max(a.abs());
    }
    let slack = TOL.infeasible * (1.0 + rhs.abs()).max(peak);
    let violated = match op {
        CmpOp::Le => min_act > rhs + slack,
        CmpOp::Ge => max_act < rhs - slack,
        CmpOp::Eq => min_act > rhs + slack || max_act < rhs - slack,
    };
    (!violated).then_some((min_act, max_act))
}

fn round_integral_bounds(j: usize, lower: &mut [f64], upper: &mut [f64]) {
    if lower[j].is_finite() {
        lower[j] = (lower[j] - INT_TOL).ceil();
    }
    if upper[j].is_finite() {
        upper[j] = (upper[j] + INT_TOL).floor();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Way;
    use crate::simplex::{LpOutcome, LpRow, PreparedLp};

    fn base_lp(
        n: usize,
        rows: Vec<LpRow>,
        objective: Vec<f64>,
        minimize: bool,
    ) -> LpProblem<'static> {
        LpProblem {
            n_vars: n,
            lower: vec![0.0; n],
            upper: vec![10.0; n],
            rows: LpRows::owned(rows),
            objective,
            minimize,
            objective_offset: 0.0,
        }
    }

    fn reduced(out: Option<PresolvedLp<'_>>) -> PresolvedLp<'_> {
        out.expect("unexpected infeasibility")
    }

    #[test]
    fn singleton_rows_become_bounds_and_vanish() {
        // x0 <= 3 and x1 >= 2 as rows; the third row stays. Maximizing
        // both keeps dual fixing out of the picture (increase is unsafe).
        let lp = base_lp(
            2,
            vec![
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 3.0 },
                LpRow { coeffs: vec![(1, 2.0)], op: CmpOp::Ge, rhs: 4.0 },
                LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Le, rhs: 8.0 },
            ],
            vec![-1.0, -1.0],
            true,
        );
        let p = reduced(presolve(&lp, &[false, false]));
        assert_eq!(p.lp.rows.len(), 1);
        assert_eq!(p.lp.upper[0], 3.0);
        assert_eq!(p.lp.lower[1], 2.0);
    }

    #[test]
    fn integral_singleton_bounds_round_inward() {
        // 2x <= 3 with x integer → x <= 1.
        let lp = base_lp(
            1,
            vec![LpRow { coeffs: vec![(0, 2.0)], op: CmpOp::Le, rhs: 3.0 }],
            vec![-1.0],
            true,
        );
        let p = reduced(presolve(&lp, &[true]));
        // Dual fixing then pins the (objective-improving) variable at its
        // rounded upper bound.
        let full = p.postsolve(&vec![0.0; p.lp.n_vars]);
        assert_eq!(full[0], 1.0);
    }

    #[test]
    fn coefficientwise_infeasibility_detected() {
        // x0 + x1 >= 25 with both in [0, 10]: max activity 20 < 25.
        let lp = base_lp(
            2,
            vec![LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Ge, rhs: 25.0 }],
            vec![1.0, 1.0],
            true,
        );
        assert!(presolve(&lp, &[false, false]).is_none());
    }

    #[test]
    fn redundant_rows_removed() {
        // x0 + x1 <= 1000 can never bind with both in [0, 10].
        let lp = base_lp(
            2,
            vec![
                LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Le, rhs: 1000.0 },
                LpRow { coeffs: vec![(0, 1.0), (1, -1.0)], op: CmpOp::Eq, rhs: 0.0 },
            ],
            vec![1.0, 1.0],
            true,
        );
        let p = reduced(presolve(&lp, &[false, false]));
        assert_eq!(p.lp.rows.len(), 1);
        assert!(matches!(p.lp.rows.row(0).0, CmpOp::Eq));
    }

    #[test]
    fn fixed_columns_substitute_into_rows() {
        // x0 == 4 (singleton eq) fixes the column; the second row's rhs
        // folds and it collapses to the bound x1 >= 2. The third row keeps
        // x1 and x2 alive (dual fixing cannot touch them: both are
        // minimized with a >=-row pushing up).
        let lp = base_lp(
            3,
            vec![
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Eq, rhs: 4.0 },
                LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Ge, rhs: 6.0 },
                LpRow { coeffs: vec![(1, 1.0), (2, 1.0)], op: CmpOp::Ge, rhs: 5.0 },
            ],
            vec![0.0, 1.0, 1.0],
            true,
        );
        let p = reduced(presolve(&lp, &[false, false, false]));
        assert_eq!(p.kept, vec![1, 2]);
        assert_eq!(p.lp.rows.len(), 1);
        assert_eq!(p.lp.lower[0], 2.0);
        let full = p.postsolve(&[2.5, 3.0]);
        assert_eq!(full, vec![4.0, 2.5, 3.0]);
    }

    #[test]
    fn dual_fixing_pins_cost_only_columns() {
        // min x0 with x0 appearing only in a <=-row with positive
        // coefficient: decreasing is always safe → fixed at lower bound 0.
        let lp = base_lp(
            2,
            vec![LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Le, rhs: 8.0 }],
            vec![1.0, 0.0],
            true,
        );
        let p = reduced(presolve(&lp, &[false, false]));
        let full = p.postsolve(&vec![0.0; p.lp.n_vars]);
        assert_eq!(full[0], 0.0);
    }

    #[test]
    fn objective_offset_tracks_fixed_columns() {
        // x0 == 4 fixed with objective coefficient 3 → offset 12 (x1 ends
        // up dual-fixed too, but its objective coefficient is zero).
        let lp = base_lp(
            2,
            vec![
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Eq, rhs: 4.0 },
                LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Ge, rhs: 5.0 },
            ],
            vec![3.0, 0.0],
            true,
        );
        let p = reduced(presolve(&lp, &[false, false]));
        assert!((p.lp.objective_offset - 12.0).abs() < 1e-12);
    }

    #[test]
    fn pinched_integer_interval_with_no_integer_is_infeasible() {
        // 3 <= 2x <= 3 … i.e. x in [1.5, 1.5] with x integral.
        let mut lp = base_lp(1, vec![], vec![1.0], true);
        lp.lower[0] = 1.5;
        lp.upper[0] = 1.5;
        assert!(presolve(&lp, &[true]).is_none());
    }

    /// Fractional offsets for the random node boxes below: integral boxes,
    /// halves and quarters, and offsets far below one unit, where an
    /// unscaled slack and the row-scaled LP's tolerance can part ways.
    const OFFSETS: [f64; 9] = [0.0, 0.0, 0.0, 0.5, 0.25, 3e-6, 4e-5, -2e-6, -5e-5];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Whenever [`activity_range`] condemns a row over a node box, the
        /// LP on that box is infeasible by the engines' own verdict: sparse
        /// kit on and off, and the dense oracle, cold and warm
        /// from the basis of a parent box that differs in one column's
        /// bound, as a branched child does. Models are small with integer
        /// coefficients and ≤, ≥ and = rows; a quarter of the rows carry
        /// one coefficient of at least 1e3 with rhs 0.
        #[test]
        fn range_proof_condemns_only_lp_infeasible_boxes(
            n in 2usize..7,
            rows in proptest::collection::vec(
                (proptest::collection::vec(-4i32..5, 6..7), 0u8..3, -6i32..7, 0u8..4, 0usize..6),
                1..5,
            ),
            bounds in proptest::collection::vec(
                (-2i32..3, 0i32..3, 0usize..OFFSETS.len(), 0usize..OFFSETS.len()),
                6..7,
            ),
            costs in proptest::collection::vec(-5i32..6, 6..7),
            (branch, widen, down) in (0usize..6, 1i32..3, 0u8..2),
        ) {
            let rows: Vec<LpRow> = rows
                .into_iter()
                .map(|(a, op, rhs, big, col)| {
                    let mut coeffs: Vec<(usize, f64)> =
                        (0..n).filter(|&j| a[j] != 0).map(|j| (j, a[j] as f64)).collect();
                    let mut rhs = rhs as f64;
                    if big == 0 {
                        let c = col % n;
                        let sign = if a[c] < 0 { -1.0 } else { 1.0 };
                        let large = (c, sign * 1e3 * (1 + a[c].unsigned_abs()) as f64);
                        coeffs.retain(|&(j, _)| j != c);
                        coeffs.push(large);
                        coeffs.sort_by_key(|&(j, _)| j);
                        rhs = 0.0;
                    }
                    if coeffs.is_empty() {
                        coeffs.push((0, 1.0));
                    }
                    let op = [CmpOp::Le, CmpOp::Ge, CmpOp::Eq][op as usize];
                    LpRow { coeffs, op, rhs }
                })
                .collect();
            let lower: Vec<f64> =
                (0..n).map(|j| bounds[j].0 as f64 + OFFSETS[bounds[j].2]).collect();
            let upper: Vec<f64> = (0..n)
                .map(|j| {
                    let hi = (bounds[j].0 + bounds[j].1) as f64 + OFFSETS[bounds[j].3];
                    hi.max(lower[j])
                })
                .collect();
            let condemned = rows
                .iter()
                .any(|r| activity_range(r.coeffs.iter().copied(), r.op, r.rhs, &lower, &upper).is_none());
            if !condemned {
                return Ok(());
            }
            let objective = costs[..n].iter().map(|&c| c as f64).collect();
            let problem = LpProblem { n_vars: n, lower: lower.clone(), upper: upper.clone(),
                rows: LpRows::owned(rows), objective, minimize: true, objective_offset: 0.0 };
            // The parent box: the child's with one column widened by one
            // bound, as `x ≤ k` / `x ≥ k` children are cut from a node.
            let (mut parent_lo, mut parent_hi) = (lower.clone(), upper.clone());
            let j = branch % n;
            if down == 0 {
                parent_hi[j] += widen as f64;
            } else {
                parent_lo[j] -= widen as f64;
            }
            let prep = PreparedLp::new(&problem);
            for way in Way::ALL {
                let parent = match way.solve(&prep, &parent_lo, &parent_hi, None) {
                    LpOutcome::Optimal { basis, .. } => Some(basis),
                    _ => None,
                };
                for warm in [None, parent.as_ref()] {
                    let out = way.solve(&prep, &lower, &upper, warm);
                    proptest::prop_assert!(
                        matches!(out, LpOutcome::Infeasible),
                        "{way:?} warm={}: condemned box \
                         [{lower:?}, {upper:?}] solved {out:?} on {problem:?}",
                        warm.is_some()
                    );
                }
            }
        }
    }

    /// A miss past the rhs-relative slack alone is not condemned while
    /// every engine solves the LP: `−4000·x₀ − 2·x₁ + x₂ ≥ 0` misses by
    /// 2e-6 over `x₀ = 0`, `x₁ ∈ [0, 2]`, `x₂ ∈ [−1, −2e-6]`, which is
    /// 5e-10 in the row the engines see (divided by 4000), far inside
    /// phase 1's 1e-6.
    #[test]
    fn a_miss_below_the_scaled_phase_one_threshold_is_not_condemned() {
        let row =
            LpRow { coeffs: vec![(0, -4000.0), (1, -2.0), (2, 1.0)], op: CmpOp::Ge, rhs: 0.0 };
        let (lower, upper) = (vec![0.0, 0.0, -1.0], vec![0.0, 2.0, -2e-6]);
        assert_eq!(
            activity_range(row.coeffs.iter().copied(), row.op, row.rhs, &lower, &upper),
            Some((-5.0, -2e-6))
        );
        let mut lp = base_lp(3, vec![row.clone()], vec![-3.0, 0.0, 3.0], true);
        (lp.lower, lp.upper) = (lower, upper);
        let prep = PreparedLp::new(&lp);
        for way in [Way::KitOff, Way::Oracle] {
            let out = way.solve(&prep, &lp.lower, &lp.upper, None);
            assert!(matches!(out, LpOutcome::Optimal { .. }), "{way:?}: {out:?}");
        }
        // Missing by 1e-6 in the scaled row's units is condemned.
        let upper = vec![0.0, 2.0, -4000.0 * 1.01e-6];
        assert_eq!(activity_range(row.coeffs, CmpOp::Ge, 0.0, &lp.lower, &upper), None);
    }

    #[test]
    fn identity_keeps_everything() {
        let lp = base_lp(
            3,
            vec![LpRow { coeffs: vec![(0, 1.0), (1, 1.0), (2, 1.0)], op: CmpOp::Le, rhs: 5.0 }],
            vec![1.0; 3],
            true,
        );
        let p = PresolvedLp::identity(&lp);
        assert_eq!(p.kept, vec![0, 1, 2]);
        assert_eq!(p.postsolve(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }
}
