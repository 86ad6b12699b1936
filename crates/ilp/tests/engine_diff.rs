//! Differential tests: the sparse revised-simplex engine against the dense
//! tableau oracle.
//!
//! Random bounded models are solved with every combination of LP engine
//! (sparse / dense), presolve (on / off), and node-LP warm starting
//! (warm / cold). All eight configurations must agree on the solve status,
//! and — when optimal — on the objective to 1e-6. Every returned point
//! must be feasible in the original model.
//!
//! The engines are constructed explicitly through
//! [`SolverOptions::lp_engine`] (which keeps the suite safe under
//! parallel test threads).

use proptest::prelude::*;
use tapacs_ilp::{
    IlpError, LinExpr, LpEngine, LpParity, Model, Sense, SolverConfig, SolverOptions,
};

/// A random bounded model: `nb` binaries plus `nc` box-bounded continuous
/// variables, a handful of random ≤/≥ rows, and a dense objective. Every
/// variable carries finite bounds, so no configuration can be unbounded —
/// the only legal statuses are optimal and infeasible.
fn random_model(obj: &[i32], rows: &[(Vec<i32>, i32, bool)], nb: usize, maximize: bool) -> Model {
    let n = obj.len();
    let mut m = Model::new("engine-diff");
    let vars: Vec<_> = (0..n)
        .map(|j| {
            if j < nb {
                m.binary(format!("b{j}"))
            } else {
                m.continuous(format!("x{j}"), -3.0, 7.0)
            }
        })
        .collect();
    for (i, (coeffs, rhs, is_le)) in rows.iter().enumerate() {
        let expr = LinExpr::sum(vars.iter().zip(coeffs).map(|(&v, &c)| LinExpr::term(v, c as f64)));
        if *is_le {
            m.add_le(format!("r{i}"), expr, *rhs as f64);
        } else {
            m.add_ge(format!("r{i}"), expr, *rhs as f64);
        }
    }
    let objective = LinExpr::sum(vars.iter().zip(obj).map(|(&v, &c)| LinExpr::term(v, c as f64)));
    m.set_objective(if maximize { Sense::Maximize } else { Sense::Minimize }, objective);
    m
}

/// Solves `model` under one configuration, reduced to a comparable verdict:
/// `Ok(objective)` or `Err("infeasible")`. Any other error fails the test.
fn verdict(
    model: &Model,
    engine: LpEngine,
    presolve: bool,
    warm_lp: bool,
) -> Result<f64, &'static str> {
    let options = SolverOptions {
        warm_start: true,
        presolve,
        warm_lp,
        lp_engine: engine,
        lp_parity: LpParity::Exact,
        cache: false,
        degrade: false,
        ..SolverOptions::default()
    };
    match model.solve_with_options(&SolverConfig::default(), &options) {
        Ok(sol) => {
            assert!(
                model.is_feasible(&sol.values, 1e-6),
                "infeasible point from engine={engine:?} presolve={presolve} warm={warm_lp}"
            );
            Ok(sol.objective)
        }
        Err(IlpError::Infeasible) => Err("infeasible"),
        Err(other) => panic!("unexpected solver error: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_on_random_bounded_models(
        obj in prop::collection::vec(-9i32..10, 2..7),
        raw_rows in prop::collection::vec(
            (prop::collection::vec(-5i32..6, 7..8), -10i32..20, any::<bool>()),
            1..5,
        ),
        nb in 0usize..4,
        maximize in any::<bool>(),
    ) {
        let n = obj.len();
        let nb = nb.min(n);
        let rows: Vec<(Vec<i32>, i32, bool)> = raw_rows
            .into_iter()
            .map(|(c, rhs, le)| (c[..n].to_vec(), rhs, le))
            .collect();
        let model = random_model(&obj, &rows, nb, maximize);

        let baseline = verdict(&model, LpEngine::Sparse, true, true);
        for engine in [LpEngine::Sparse, LpEngine::Dense] {
            for presolve in [true, false] {
                for warm_lp in [true, false] {
                    let got = verdict(&model, engine, presolve, warm_lp);
                    match (&baseline, &got) {
                        (Ok(a), Ok(b)) => prop_assert!(
                            (a - b).abs() <= 1e-6,
                            "objective mismatch: baseline {a} vs {b} \
                             (engine={engine:?} presolve={presolve} warm={warm_lp})"
                        ),
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(
                            false,
                            "status mismatch: baseline {baseline:?} vs {got:?} \
                             (engine={engine:?} presolve={presolve} warm={warm_lp})"
                        ),
                    }
                }
            }
        }
    }

    /// Pure-LP agreement (no integral variables): the two engines run one
    /// root solve each and must land on the same objective.
    #[test]
    fn engines_agree_on_pure_lps(
        obj in prop::collection::vec(-9i32..10, 2..6),
        raw_rows in prop::collection::vec(
            (prop::collection::vec(-5i32..6, 6..7), -10i32..20, any::<bool>()),
            1..4,
        ),
        maximize in any::<bool>(),
    ) {
        let n = obj.len();
        let rows: Vec<(Vec<i32>, i32, bool)> = raw_rows
            .into_iter()
            .map(|(c, rhs, le)| (c[..n].to_vec(), rhs, le))
            .collect();
        let model = random_model(&obj, &rows, 0, maximize);
        let sparse = verdict(&model, LpEngine::Sparse, true, true);
        let dense = verdict(&model, LpEngine::Dense, true, true);
        match (&sparse, &dense) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a - b).abs() <= 1e-6,
                "pure-LP objective mismatch: sparse {a} vs dense {b}"
            ),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "pure-LP status mismatch: {sparse:?} vs {dense:?}"),
        }
    }
}
