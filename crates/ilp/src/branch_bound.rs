//! Search-independent pieces of branch and bound — root presolve wiring,
//! objective-granularity tightening, the rounding heuristic, cancel-error
//! mapping — plus the unit tests of the whole search through
//! [`Model::solve`]. The driver itself is [`crate::parallel::search`].

use crate::cancel::CancellationToken;
use crate::error::IlpError;
use crate::model::Model;
use crate::presolve::{self, PresolvedLp};
use crate::simplex::LpProblem;

/// Presolves `model`'s LP (or wraps it untouched when disabled) and
/// derives the reduced-space indices of the integral variables.
pub(crate) fn presolved_root<'a>(
    full_lp: &LpProblem<'a>,
    integral: &[usize],
    enabled: bool,
) -> Result<(PresolvedLp<'a>, Vec<usize>), IlpError> {
    let mut is_int = vec![false; full_lp.n_vars];
    for &j in integral {
        is_int[j] = true;
    }
    let pre = if enabled {
        presolve::presolve(full_lp, &is_int).ok_or(IlpError::Infeasible)?
    } else {
        PresolvedLp::identity(full_lp)
    };
    let red_integral =
        pre.kept.iter().enumerate().filter(|&(_, &orig)| is_int[orig]).map(|(r, _)| r).collect();
    Ok((pre, red_integral))
}

/// Bound-tightening closure for
/// [`SolverConfig::objective_granularity`](crate::SolverConfig::objective_granularity):
/// rounds a min-direction LP bound up to the next multiple of the declared
/// granularity (the identity when unset). The relative backoff keeps a
/// bound that is numerically a hair *above* a lattice point from being
/// rounded one granule too far, which would prune unsoundly. Sign flips
/// preserve the lattice, so the same closure serves maximize models.
pub(crate) fn granularity_tightener(gran: f64) -> impl Fn(f64) -> f64 + Copy {
    move |bound: f64| {
        if gran > 0.0 && bound.is_finite() {
            let eps = 1e-6 * bound.abs().max(1.0);
            gran * ((bound - eps) / gran).ceil()
        } else {
            bound
        }
    }
}

/// Maps a tripped token to the right error: external cancel aborts with
/// [`IlpError::Cancelled`]; a deadline expiry is a spent budget.
pub(crate) fn cancel_error(token: Option<&CancellationToken>) -> IlpError {
    if token.is_some_and(CancellationToken::cancelled_externally) {
        IlpError::Cancelled
    } else {
        IlpError::NoIncumbent
    }
}

pub(crate) fn objective_of(lp: &LpProblem, values: &[f64]) -> f64 {
    lp.objective_offset + values.iter().zip(&lp.objective).map(|(x, c)| x * c).sum::<f64>()
}

/// Rounds the integral coordinates of an LP point and keeps the result only
/// if it is feasible (within the `1e-6` every incumbent is accepted at). A
/// deliberately cheap warm-start heuristic.
pub(crate) fn round_repair(model: &Model, relax: &[f64], integral: &[usize]) -> Option<Vec<f64>> {
    let mut values = relax.to_vec();
    for &j in integral {
        values[j] = values[j].round();
    }
    model.is_feasible(&values, 1e-6).then_some(values)
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use crate::{LinExpr, Model, Sense, SolveStatus, SolverConfig};

    #[test]
    fn knapsack_optimum() {
        // Items: (value, weight): (60,10) (100,20) (120,30), cap 50 → 220.
        let mut m = Model::new("knapsack");
        let items = [(60.0, 10.0), (100.0, 20.0), (120.0, 30.0)];
        let vars: Vec<_> =
            items.iter().enumerate().map(|(i, _)| m.binary(format!("x{i}"))).collect();
        let weight = LinExpr::sum(vars.iter().zip(&items).map(|(&v, &(_, w))| LinExpr::term(v, w)));
        m.add_le("cap", weight, 50.0);
        let value =
            LinExpr::sum(vars.iter().zip(&items).map(|(&v, &(val, _))| LinExpr::term(v, val)));
        m.set_objective(Sense::Maximize, value);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 220.0).abs() < 1e-6);
        assert!(!sol.is_set(vars[0]));
        assert!(sol.is_set(vars[1]));
        assert!(sol.is_set(vars[2]));
    }

    #[test]
    fn integer_rounding_not_just_lp() {
        // max x s.t. 2x <= 3, x integer → 1 (LP gives 1.5).
        let mut m = Model::new("int");
        let x = m.integer("x", 0.0, 10.0);
        m.add_le("c", 2.0 * x, 3.0);
        m.set_objective(Sense::Maximize, x.into());
        let sol = m.solve().unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn granularity_tightener_rounds_bounds_up_to_the_lattice() {
        let t = crate::branch_bound::granularity_tightener(64.0);
        assert_eq!(t(5460.12), 5504.0);
        assert_eq!(t(5504.0), 5504.0, "exact lattice points are fixed points");
        assert_eq!(t(-3.5), 0.0, "negative bounds round toward zero");
        assert_eq!(t(f64::NEG_INFINITY), f64::NEG_INFINITY);
        let off = crate::branch_bound::granularity_tightener(0.0);
        assert_eq!(off(5460.12), 5460.12, "granularity 0 disables tightening");
    }

    #[test]
    fn declared_objective_granularity_prunes_without_changing_the_optimum() {
        // min 7x + 7y, x + y ≥ 1.5, integer: the LP bound 10.5 is off the
        // objective lattice {0, 7, 14, …}; declaring granularity 7 lifts it
        // to the true optimum 14 so the plateau prunes earlier.
        let build = || {
            let mut m = Model::new("gran");
            let x = m.integer("x", 0.0, 3.0);
            let y = m.integer("y", 0.0, 3.0);
            m.add_ge("c", x + y, 1.5);
            m.set_objective(Sense::Minimize, 7.0 * x + 7.0 * y);
            m
        };
        let base = build().solve().unwrap();
        let config = SolverConfig { objective_granularity: 7.0, ..SolverConfig::default() };
        let tightened = build().solve_with(&config).unwrap();
        assert!((base.objective - 14.0).abs() < 1e-6, "got {}", base.objective);
        assert!((tightened.objective - base.objective).abs() < 1e-9);
        assert!(
            tightened.nodes_explored <= base.nodes_explored,
            "lattice pruning must never expand the search: {} vs {}",
            tightened.nodes_explored,
            base.nodes_explored
        );
    }

    #[test]
    fn infeasible_integer_model() {
        // x + y == 1.5 with x, y binary has no integral solution... actually
        // impossible since sums are integral.
        let mut m = Model::new("infeas");
        let x = m.binary("x");
        let y = m.binary("y");
        m.add_eq("c", x + y, 1.5);
        m.set_objective(Sense::Minimize, x + y);
        assert!(m.solve().is_err());
    }

    #[test]
    fn assignment_problem() {
        // 3x3 assignment, cost matrix with known optimum 5 (1+1+3 diag-ish).
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut m = Model::new("assign");
        let mut x = vec![vec![]; 3];
        for (i, xi) in x.iter_mut().enumerate() {
            for j in 0..3 {
                xi.push(m.binary(format!("x{i}{j}")));
            }
        }
        for i in 0..3 {
            m.add_eq(
                format!("row{i}"),
                LinExpr::sum((0..3).map(|j| LinExpr::term(x[i][j], 1.0))),
                1.0,
            );
            m.add_eq(
                format!("col{i}"),
                LinExpr::sum((0..3).map(|j| LinExpr::term(x[j][i], 1.0))),
                1.0,
            );
        }
        let total = LinExpr::sum((0..3).flat_map(|i| {
            let xi = x[i].clone();
            (0..3).map(move |j| LinExpr::term(xi[j], cost[i][j]))
        }));
        m.set_objective(Sense::Minimize, total);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-6, "got {}", sol.objective);
    }

    #[test]
    fn time_limit_returns_incumbent_or_err() {
        // A slightly larger knapsack with an immediate rounding incumbent:
        // with a zero budget we must still not panic.
        let mut m = Model::new("budget");
        let vars: Vec<_> = (0..12).map(|i| m.binary(format!("x{i}"))).collect();
        let w =
            LinExpr::sum(vars.iter().enumerate().map(|(i, &v)| LinExpr::term(v, 1.0 + i as f64)));
        m.add_le("cap", w, 20.0);
        m.set_objective(
            Sense::Maximize,
            LinExpr::sum(
                vars.iter().enumerate().map(|(i, &v)| LinExpr::term(v, (i * i + 1) as f64)),
            ),
        );
        let cfg = SolverConfig { time_limit: Some(Duration::from_millis(0)), ..Default::default() };
        match m.solve_with(&cfg) {
            Ok(sol) => assert!(m.is_feasible(&sol.values, 1e-6)),
            Err(e) => assert_eq!(e, crate::IlpError::NoIncumbent),
        }
    }

    #[test]
    fn deadline_is_checked_before_child_solves() {
        // A dense 26-item knapsack explodes into a deep tree; with a
        // 5-millisecond deadline the expansion loop must bail out between
        // child LP solves instead of finishing whole subtrees. The bound
        // below is deliberately generous (hundreds of times the deadline)
        // so it only catches gross overshoot, not scheduler noise.
        let mut m = Model::new("deep");
        let vars: Vec<_> = (0..26).map(|i| m.binary(format!("x{i}"))).collect();
        let w = LinExpr::sum(
            vars.iter().enumerate().map(|(i, &v)| LinExpr::term(v, 3.0 + ((i * 7) % 11) as f64)),
        );
        m.add_le("cap", w, 40.0);
        m.set_objective(
            Sense::Maximize,
            LinExpr::sum(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| LinExpr::term(v, 5.0 + ((i * 13) % 17) as f64)),
            ),
        );
        let cfg = SolverConfig { time_limit: Some(Duration::from_millis(5)), ..Default::default() };
        let t0 = Instant::now();
        let _ = m.solve_with(&cfg); // any outcome is fine; only timing matters
        assert!(t0.elapsed() < Duration::from_secs(5), "deadline overshot: {:?}", t0.elapsed());
    }

    #[test]
    fn equality_partition_two_way() {
        // Partition 4 items of sizes 3,1,1,3 into two sides of equal load.
        // x_i = side of item i; minimize nothing, just find feasibility via
        // sum sizes*x == 4.
        let sizes = [3.0, 1.0, 1.0, 3.0];
        let mut m = Model::new("partition");
        let vars: Vec<_> = (0..4).map(|i| m.binary(format!("x{i}"))).collect();
        m.add_eq(
            "balance",
            LinExpr::sum(vars.iter().zip(sizes).map(|(&v, s)| LinExpr::term(v, s))),
            4.0,
        );
        m.set_objective(Sense::Minimize, LinExpr::new());
        let sol = m.solve().unwrap();
        let load: f64 = vars.iter().zip(sizes).map(|(&v, s)| sol.value(v) * s).sum();
        assert!((load - 4.0).abs() < 1e-6);
    }

    #[test]
    fn maximize_and_minimize_agree() {
        let build = |sense| {
            let mut m = Model::new("sense");
            let x = m.integer("x", 0.0, 5.0);
            m.add_le("c", 3.0 * x, 10.0);
            m.set_objective(sense, 1.0 * x);
            m.solve().unwrap().objective
        };
        assert!((build(Sense::Maximize) - 3.0).abs() < 1e-6);
        assert!(build(Sense::Minimize).abs() < 1e-6);
    }

    #[test]
    fn reports_bound_and_nodes() {
        let mut m = Model::new("meta");
        let x = m.integer("x", 0.0, 9.0);
        let y = m.integer("y", 0.0, 9.0);
        m.add_le("c", 2.0 * x + 3.0 * y, 12.0);
        m.set_objective(Sense::Maximize, 5.0 * x + 4.0 * y);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(sol.gap() < 1e-6);
        // optimum: x=6 infeasible (2*6=12, y=0) → x=6,y=0 obj 30.
        assert!((sol.objective - 30.0).abs() < 1e-6);
    }
}
