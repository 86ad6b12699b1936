//! Differential tests: fast LP parity against the bit-exact baseline.
//!
//! The default fast parity licenses the sparse engine to deviate from the
//! dense oracle's arithmetic — devex pricing, Forrest–Tomlin eta
//! replacement, dual-simplex warm re-solves, fill-triggered mid-solve
//! refactorization. The contract it must still honor: on every model, both
//! parities agree on the solve *status*, and — when optimal — on the
//! objective to 1e-6, under every combination of engine, presolve and
//! node-LP warm starting, and every answer passes the independent
//! [`certify`] check against the original model. Random bounded models
//! probe that contract here, for full branch-and-bound solves and for pure
//! LPs (no integral variables).
//!
//! Parities are pinned explicitly through [`ParallelSolver::lp_parity`]
//! (which keeps the suite safe under parallel test threads).

use proptest::prelude::*;
use tapacs_ilp::{
    certify, IlpError, LinExpr, LpEngine, LpParity, Model, ParallelSolver, Sense, Solver,
    SolverConfig,
};

/// A random bounded model: `nb` binaries plus box-bounded continuous
/// variables, a handful of random ≤/≥ rows, and a dense objective. Every
/// variable carries finite bounds, so no configuration can be unbounded —
/// the only legal statuses are optimal and infeasible.
fn random_model(obj: &[i32], rows: &[(Vec<i32>, i32, bool)], nb: usize, maximize: bool) -> Model {
    let n = obj.len();
    let mut m = Model::new("parity-diff");
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

/// Solves `model` under one engine/parity/presolve/warm configuration,
/// reduced to a comparable verdict: `Ok(objective)` or `Err("infeasible")`.
/// Any other error, or an answer the certificate rejects, fails the test.
fn verdict(
    model: &Model,
    lp_engine: LpEngine,
    parity: LpParity,
    presolve: bool,
    warm_lp: bool,
) -> Result<f64, &'static str> {
    let solver =
        ParallelSolver { warm_start: true, presolve, warm_lp, lp_engine, lp_parity: parity };
    let config = SolverConfig::default();
    match solver.solve(model, &config) {
        Ok(sol) => {
            if let Err(why) = certify(model, &config, &sol) {
                panic!(
                    "uncertified answer from engine={lp_engine:?} parity={parity:?} \
                     presolve={presolve} warm={warm_lp}: {why}"
                );
            }
            Ok(sol.objective)
        }
        Err(IlpError::Infeasible) => Err("infeasible"),
        Err(other) => panic!("unexpected solver error: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parities_agree_on_random_bounded_models(
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

        let baseline = verdict(&model, LpEngine::Sparse, LpParity::Exact, true, true);
        for engine in [LpEngine::Sparse, LpEngine::Dense] {
            for parity in [LpParity::Exact, LpParity::Fast] {
                for presolve in [true, false] {
                    for warm_lp in [true, false] {
                        let got = verdict(&model, engine, parity, presolve, warm_lp);
                        match (&baseline, &got) {
                            (Ok(a), Ok(b)) => prop_assert!(
                                (a - b).abs() <= 1e-6,
                                "objective mismatch: baseline {a} vs {b} (engine={engine:?} \
                                 parity={parity:?} presolve={presolve} warm={warm_lp})"
                            ),
                            (Err(_), Err(_)) => {}
                            _ => prop_assert!(
                                false,
                                "status mismatch: baseline {baseline:?} vs {got:?} \
                                 (engine={engine:?} parity={parity:?} presolve={presolve} \
                                 warm={warm_lp})"
                            ),
                        }
                    }
                }
            }
        }
    }

    /// Pure-LP agreement (no integral variables): one root solve per
    /// parity — devex pricing and the dual warm path must land on the same
    /// objective the exact composite phases reach.
    #[test]
    fn parities_agree_on_pure_lps(
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
        let exact = verdict(&model, LpEngine::Sparse, LpParity::Exact, true, true);
        for (engine, parity) in
            [(LpEngine::Sparse, LpParity::Fast), (LpEngine::Dense, LpParity::Exact)]
        {
            let other = verdict(&model, engine, parity, true, true);
            match (&exact, &other) {
                (Ok(a), Ok(b)) => prop_assert!(
                    (a - b).abs() <= 1e-6,
                    "pure-LP objective mismatch: exact {a} vs {engine:?}/{parity:?} {b}"
                ),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(
                    false,
                    "pure-LP status mismatch: {exact:?} vs {engine:?}/{parity:?} {other:?}"
                ),
            }
        }
    }
}
