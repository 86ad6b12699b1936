//! Independent certificate for returned solutions.
//!
//! The solver stack between a [`Model`] and its [`Solution`] is deep —
//! presolve, a sparse engine that runs the kit on big searches, warm
//! starts, a dual repair, a memo cache that can replay answers from disk. [`certify`]
//! trusts none of it: it re-checks the answer against the **original,
//! un-presolved** model with nothing but the model's own rows and the
//! declared [`SolverConfig`], in one O(nnz) pass that allocates nothing.
//! [`Model::solve_with_options`](crate::Model::solve_with_options) runs it
//! on every answer it returns, fresh or cached, which is what lets the
//! default LP path reorder arithmetic instead of replaying the dense
//! oracle bit for bit.

use std::fmt;

use crate::branch_bound::granularity_tightener;
use crate::model::{CmpOp, Model, Sense, SolverConfig, VarKind};
use crate::solution::{Solution, SolveStatus};

/// Absolute slack on bounds, integrality and row activities — the same
/// `1e-6` the branch and bound itself accepts incumbents at
/// ([`Model::is_feasible`]), so the certificate is never stricter than the
/// search it audits.
const FEAS_TOL: f64 = 1e-6;

/// Relative slack between the reported objective and the one recomputed
/// from the point: the two differ only in summation order.
const OBJ_TOL: f64 = 1e-9;

/// Relative slack on `best_bound ≤ objective`, matching the backoff the
/// granularity tightener applies before rounding a bound up the lattice.
const BOUND_TOL: f64 = 1e-6;

/// What [`certify`] found wrong with a [`Solution`]. Indices are the
/// model's own (variable [`index`](crate::VarId::index), constraint in
/// insertion order).
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateError {
    /// `values` does not have one entry per model variable.
    WrongLength {
        /// The model's variable count.
        expected: usize,
        /// The solution's `values.len()`.
        found: usize,
    },
    /// A variable lies outside its declared bounds (or is NaN).
    BoundViolated {
        /// Variable index.
        var: usize,
        /// Its value in the solution.
        value: f64,
    },
    /// An integer or binary variable is off the integers.
    NotIntegral {
        /// Variable index.
        var: usize,
        /// Its value in the solution.
        value: f64,
    },
    /// A constraint's recomputed activity breaks its right-hand side.
    RowViolated {
        /// Constraint index.
        row: usize,
        /// `Σ aᵢⱼ·xⱼ` at the returned point.
        activity: f64,
        /// The row's right-hand side.
        rhs: f64,
    },
    /// The reported objective is not the objective of the returned point.
    ObjectiveMismatch {
        /// `Solution::objective`.
        reported: f64,
        /// The model's objective evaluated at `Solution::values`.
        recomputed: f64,
    },
    /// `best_bound` claims more than the returned point achieves.
    BoundAboveObjective {
        /// `Solution::best_bound`.
        best_bound: f64,
        /// The recomputed objective.
        objective: f64,
    },
    /// The status says optimal but the bound does not reach the objective,
    /// even after rounding it onto the declared granularity lattice.
    GapOpen {
        /// `Solution::best_bound`.
        best_bound: f64,
        /// The recomputed objective.
        objective: f64,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::WrongLength { expected, found } => {
                write!(f, "{found} values for {expected} variables")
            }
            CertificateError::BoundViolated { var, value } => {
                write!(f, "variable {var} = {value} is outside its bounds")
            }
            CertificateError::NotIntegral { var, value } => {
                write!(f, "integer variable {var} = {value} is fractional")
            }
            CertificateError::RowViolated { row, activity, rhs } => {
                write!(f, "constraint {row} has activity {activity} against right-hand side {rhs}")
            }
            CertificateError::ObjectiveMismatch { reported, recomputed } => {
                write!(f, "reported objective {reported} but the point evaluates to {recomputed}")
            }
            CertificateError::BoundAboveObjective { best_bound, objective } => {
                write!(f, "best bound {best_bound} is better than the objective {objective}")
            }
            CertificateError::GapOpen { best_bound, objective } => {
                write!(f, "claimed optimal with bound {best_bound} short of objective {objective}")
            }
        }
    }
}

/// `lo ≤ v ≤ hi`, false for NaN on any side — every check below is phrased
/// through it so a NaN can never pass by failing a comparison.
fn within(v: f64, lo: f64, hi: f64) -> bool {
    v >= lo && v <= hi
}

/// The point checks of [`certify`] at slack `tol`, in its order, which a
/// NaN entry never passes; [`Model::is_feasible`] at its caller's `tol`.
pub(crate) fn check_point(model: &Model, values: &[f64], tol: f64) -> Result<(), CertificateError> {
    if values.len() != model.vars.len() {
        return Err(CertificateError::WrongLength {
            expected: model.vars.len(),
            found: values.len(),
        });
    }
    for (var, (v, &value)) in model.vars.iter().zip(values).enumerate() {
        if !within(value, v.lower - tol, v.upper + tol) {
            return Err(CertificateError::BoundViolated { var, value });
        }
        if matches!(v.kind, VarKind::Integer | VarKind::Binary)
            && !within(value - value.round(), -tol, tol)
        {
            return Err(CertificateError::NotIntegral { var, value });
        }
    }
    for (row, c) in model.rows.iter().enumerate() {
        let activity = crate::expr::dot(c.terms, values);
        let (lo, hi) = match c.op {
            CmpOp::Le => (f64::NEG_INFINITY, c.rhs + tol),
            CmpOp::Ge => (c.rhs - tol, f64::INFINITY),
            CmpOp::Eq => (c.rhs - tol, c.rhs + tol),
        };
        if !within(activity, lo, hi) {
            return Err(CertificateError::RowViolated { row, activity, rhs: c.rhs });
        }
    }
    Ok(())
}

/// Re-checks `solution` against `model` as the caller built it: one value
/// per variable, every value inside its bounds and integral where
/// declared, every row's activity recomputed and compared with its
/// right-hand side, the objective recomputed from the point, and the
/// optimality claim audited — `best_bound` (rounded onto
/// [`SolverConfig::objective_granularity`]'s lattice when one is declared)
/// may not exceed the objective, and [`SolveStatus::Optimal`] requires it
/// to reach the objective within [`SolverConfig::mip_gap`].
///
/// # Errors
///
/// The first [`CertificateError`] found, in the order listed above.
pub fn certify(
    model: &Model,
    config: &SolverConfig,
    solution: &Solution,
) -> Result<(), CertificateError> {
    let values = &solution.values[..];
    check_point(model, values, FEAS_TOL)?;

    let recomputed = model.objective.eval(values);
    let scale = recomputed.abs().max(1.0);
    if !within(solution.objective - recomputed, -OBJ_TOL * scale, OBJ_TOL * scale) {
        return Err(CertificateError::ObjectiveMismatch {
            reported: solution.objective,
            recomputed,
        });
    }

    // The optimality claim, in minimize direction (sign flips preserve the
    // lattice). Rounding onto the lattice may only ever raise the bound.
    let to_min = |v: f64| if matches!(model.sense, Sense::Minimize) { v } else { -v };
    let objective = to_min(recomputed);
    let raw_bound = to_min(solution.best_bound);
    let bound = raw_bound.max(granularity_tightener(config.objective_granularity)(raw_bound));
    if !within(bound, f64::NEG_INFINITY, objective + BOUND_TOL * scale) {
        return Err(CertificateError::BoundAboveObjective {
            best_bound: solution.best_bound,
            objective: recomputed,
        });
    }
    // Same closing margin the search itself declares `Optimal` at.
    let closed = config.mip_gap.max(1e-9) * scale + 1e-9;
    if solution.status == SolveStatus::Optimal && objective - bound > closed {
        return Err(CertificateError::GapOpen {
            best_bound: solution.best_bound,
            objective: recomputed,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, SolverOptions, VarId};

    /// A floorplan-shaped bisection: four tasks on a chain, `t0` pinned
    /// low and `t3` pinned high by singleton rows (the presolve removes
    /// both columns), a capacity row per side, and one continuous cut
    /// indicator per edge priced at the edge width — widths 128/64/128, so
    /// every integral objective sits on the 64-lattice. The capacities
    /// admit only the middle cut: x = (0, 0, 1, 1), y = (0, 1, 0),
    /// objective 64.
    fn bisection() -> (Model, SolverConfig, [VarId; 4]) {
        let mut m = Model::new("cert-bisection");
        let x = [m.binary("x0"), m.binary("x1"), m.binary("x2"), m.binary("x3")];
        m.add_eq("pin0", LinExpr::term(x[0], 1.0), 0.0);
        m.add_eq("pin3", LinExpr::term(x[3], 1.0), 1.0);
        let area = [30.0, 20.0, 20.0, 30.0];
        let load = LinExpr::sum(x.iter().zip(area).map(|(&v, a)| LinExpr::term(v, a)));
        m.add_le("capH", load.clone(), 60.0);
        m.add_ge("capL", load, 100.0 - 60.0);
        let mut objective = LinExpr::new();
        for (e, width) in [128.0, 64.0, 128.0].into_iter().enumerate() {
            let y = m.continuous(format!("y{e}"), 0.0, 1.0);
            m.add_ge(format!("c1_{e}"), LinExpr::term(y, 1.0) - x[e] + x[e + 1], 0.0);
            m.add_ge(format!("c2_{e}"), LinExpr::term(y, 1.0) - x[e + 1] + x[e], 0.0);
            objective.add_term(y, width);
        }
        m.set_objective(Sense::Minimize, objective);
        let config = SolverConfig { objective_granularity: 64.0, ..SolverConfig::default() };
        (m, config, x)
    }

    fn solved() -> (Model, SolverConfig, [VarId; 4], Solution) {
        let (m, config, x) = bisection();
        let options = SolverOptions { cache: false, ..SolverOptions::default() };
        let sol = m.solve_with_options(&config, &options).expect("the bisection is feasible");
        assert_eq!(sol.objective, 64.0);
        assert_eq!(certify(&m, &config, &sol), Ok(()));
        (m, config, x, sol)
    }

    #[test]
    fn a_row_violated_by_1e_5_is_rejected() {
        let (m, config, _, mut sol) = solved();
        // y1 = 1 is tight on `c2_1: y1 − x2 + x1 ≥ 0`; pull it 1e-5 below.
        let (y1, c2_1) = (5, 7);
        assert_eq!(sol.values[y1], 1.0);
        sol.values[y1] -= 1e-5;
        let verdict = certify(&m, &config, &sol);
        assert!(
            matches!(verdict, Err(CertificateError::RowViolated { row, rhs, .. })
                if row == c2_1 && rhs == 0.0),
            "{verdict:?}"
        );
        // A tenth of that is inside the tolerance the search itself
        // accepts incumbents at; the certificate then faults the (now
        // stale) objective instead.
        sol.values[y1] = 1.0 - 1e-7;
        assert!(matches!(
            certify(&m, &config, &sol),
            Err(CertificateError::ObjectiveMismatch { .. })
        ));
    }

    #[test]
    fn a_binary_at_one_half_is_rejected() {
        let (m, config, x, mut sol) = solved();
        sol.values[x[1].index()] = 0.5;
        assert_eq!(
            certify(&m, &config, &sol),
            Err(CertificateError::NotIntegral { var: x[1].index(), value: 0.5 })
        );
    }

    #[test]
    fn an_objective_off_by_one_lattice_step_is_rejected() {
        let (m, config, _, mut sol) = solved();
        sol.objective += 64.0;
        sol.best_bound = sol.objective;
        assert_eq!(
            certify(&m, &config, &sol),
            Err(CertificateError::ObjectiveMismatch { reported: 128.0, recomputed: 64.0 })
        );
    }

    #[test]
    fn a_bound_above_the_objective_is_rejected() {
        let (m, config, _, mut sol) = solved();
        sol.best_bound = 65.0;
        assert_eq!(
            certify(&m, &config, &sol),
            Err(CertificateError::BoundAboveObjective { best_bound: 65.0, objective: 64.0 })
        );
        // A maximize model reads the same claim with the signs flipped.
        let mut mx = Model::new("cert-max");
        let v = mx.integer("v", 0.0, 3.0);
        mx.set_objective(Sense::Maximize, 2.0 * v);
        let cfg = SolverConfig::default();
        let mut best = mx.solve().unwrap();
        assert_eq!(certify(&mx, &cfg, &best), Ok(()));
        best.best_bound = 5.0;
        assert!(matches!(
            certify(&mx, &cfg, &best),
            Err(CertificateError::BoundAboveObjective { .. })
        ));
    }

    #[test]
    fn an_optimal_claim_with_an_open_gap_is_rejected_unless_the_lattice_closes_it() {
        let (m, config, _, mut sol) = solved();
        // A bound of 0.5 rounds up the 64-lattice to 64: the gap is closed.
        sol.best_bound = 0.5;
        assert_eq!(certify(&m, &config, &sol), Ok(()));
        // Without the declared lattice the same claim is unproven …
        let plain = SolverConfig::default();
        assert_eq!(
            certify(&m, &plain, &sol),
            Err(CertificateError::GapOpen { best_bound: 0.5, objective: 64.0 })
        );
        // … and is fine once the status stops claiming optimality.
        sol.status = SolveStatus::Feasible;
        assert_eq!(certify(&m, &plain, &sol), Ok(()));
    }

    #[test]
    fn a_wrong_length_is_rejected() {
        let (m, config, _, mut sol) = solved();
        sol.values.pop();
        assert_eq!(
            certify(&m, &config, &sol),
            Err(CertificateError::WrongLength { expected: 7, found: 6 })
        );
    }

    #[test]
    fn a_presolved_away_variable_at_the_wrong_bound_is_rejected() {
        let (m, config, x, mut sol) = solved();
        // `pin3` fixes x3 = 1 and the presolve removes the column; a
        // postsolve that restored it at its *lower* bound would leave a
        // point only the original model's rows can fault.
        sol.values[x[3].index()] = 0.0;
        let verdict = certify(&m, &config, &sol);
        assert!(
            matches!(verdict, Err(CertificateError::RowViolated { row: 1, rhs, .. }) if rhs == 1.0),
            "{verdict:?}"
        );
    }

    #[test]
    fn nan_never_passes_by_failing_a_comparison() {
        let (m, config, _, sol) = solved();
        let mut bad = sol.clone();
        bad.values[5] = f64::NAN;
        assert!(matches!(
            certify(&m, &config, &bad),
            Err(CertificateError::BoundViolated { var: 5, .. })
        ));
        let mut bad = sol.clone();
        bad.objective = f64::NAN;
        assert!(matches!(
            certify(&m, &config, &bad),
            Err(CertificateError::ObjectiveMismatch { .. })
        ));
        let mut bad = sol;
        bad.best_bound = f64::NAN;
        assert!(matches!(
            certify(&m, &config, &bad),
            Err(CertificateError::BoundAboveObjective { .. })
        ));
    }

    #[test]
    fn a_rejected_answer_surfaces_as_a_typed_ilp_error() {
        let err: crate::IlpError = CertificateError::WrongLength { expected: 2, found: 1 }.into();
        assert_eq!(
            err,
            crate::IlpError::Uncertified(CertificateError::WrongLength { expected: 2, found: 1 })
        );
        assert_eq!(err.to_string(), "solution failed its certificate: 1 values for 2 variables");
    }
}
