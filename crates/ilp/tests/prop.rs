//! Property-based tests for the LP/MIP solver.
//!
//! Invariants checked on randomly generated models:
//! 1. Any returned solution is feasible.
//! 2. A MIP optimum never beats its own LP relaxation bound.
//! 3. For generated-feasible knapsacks, the solver never reports infeasible.
//! 4. Optimal binary solutions match exhaustive enumeration on small
//!    instances, heuristic incumbent seed on and off.
//! 5. A second solve of one model returns the bit-identical point, tree
//!    and LP-engine counters.
//! 6. The LP-engine toggles are semantically invisible: presolve-on vs
//!    presolve-off and warm-started vs cold-started node solves agree on
//!    the objective, and every returned point (postsolved back from the
//!    reduced space) is feasible in the *original* variable space.
//! 7. Children dropped before their LP by the row-activity proof
//!    (`SolveStats::range_pruned`) leave the optimum where exhaustive
//!    enumeration puts it.

use std::sync::Arc;

use proptest::prelude::*;
use tapacs_ilp::{
    certify, IlpError, LinExpr, Model, Sense, SolveActivity, SolveStats, SolverConfig,
    SolverOptions,
};

/// The branch and bound alone, with default toggles: no memo cache, no
/// degradation ladder.
fn search_only() -> SolverOptions {
    SolverOptions { cache: false, degrade: false, ..SolverOptions::default() }
}

/// The branch and bound in the configurations the enumeration-oracle tests
/// sweep: with and without the heuristic incumbent seed.
fn driver_sweep() -> Vec<(String, SolverOptions)> {
    [false, true]
        .map(|warm_start| {
            (format!("warm_start={warm_start}"), SolverOptions { warm_start, ..search_only() })
        })
        .into()
}

/// A random ≤-only knapsack-like model: always feasible (all-zeros works).
fn knapsack_model(values: &[u32], weights: &[u32], cap: u32) -> (Model, Vec<tapacs_ilp::VarId>) {
    let mut m = Model::new("prop-knapsack");
    let vars: Vec<_> = (0..values.len()).map(|i| m.binary(format!("x{i}"))).collect();
    let weight = LinExpr::sum(vars.iter().zip(weights).map(|(&v, &w)| LinExpr::term(v, w as f64)));
    m.add_le("cap", weight, cap as f64);
    let value = LinExpr::sum(vars.iter().zip(values).map(|(&v, &c)| LinExpr::term(v, c as f64)));
    m.set_objective(Sense::Maximize, value);
    (m, vars)
}

/// The exhaustive optimum of [`knapsack_model`]'s instance (up to 2^10
/// points in the proptests).
fn exhaustive_knapsack(values: &[u32], weights: &[u32], cap: u32) -> u64 {
    let n = values.len();
    let mut best = 0u64;
    for mask in 0u32..(1 << n) {
        let w: u64 = (0..n).filter(|i| mask >> i & 1 == 1).map(|i| weights[i] as u64).sum();
        if w <= cap as u64 {
            let v: u64 = (0..n).filter(|i| mask >> i & 1 == 1).map(|i| values[i] as u64).sum();
            best = best.max(v);
        }
    }
    best
}

/// A model built to exercise every presolve pass: a knapsack body plus
/// singleton rows (tightenable bounds), an equality tie between the first
/// two variables, and a redundant row.
fn presolve_rich_model(values: &[u32], weights: &[u32], cap: u32, bound: u32) -> Model {
    let (mut m, vars) = knapsack_model(values, weights, cap);
    // Singleton row: x0 <= bound/(bound+1) rounds to a 0/1 bound.
    m.add_le("single", LinExpr::term(vars[0], 1.0), bound as f64 / (bound as f64 + 1.0));
    if vars.len() >= 2 {
        // Equality tie: x0 == x1 (kills dual fixing for both, keeps rows).
        m.add_eq("tie", LinExpr::term(vars[0], 1.0) - LinExpr::term(vars[1], 1.0), 0.0);
    }
    // Redundant row: weights sum below an unreachable cap.
    let weight = LinExpr::sum(vars.iter().zip(weights).map(|(&v, &w)| LinExpr::term(v, w as f64)));
    m.add_le("slack", weight, 1e7);
    m
}

/// Solves `m` with the branch and bound under a scoped stats
/// collector, returning the solution plus the counters the run recorded
/// (pricing switches, partial-pricing refreshes, branch-and-bound nodes,
/// iterations).
fn solve_fast_with_stats(m: &Model) -> (tapacs_ilp::Solution, SolveStats) {
    let handle = Arc::new(SolveActivity::default());
    let sol = SolveActivity::scoped(&handle, || {
        m.solve_with_options(&SolverConfig::default(), &search_only())
    })
    .expect("the solve must succeed");
    (sol, handle.snapshot())
}

/// The bits of a solution's point, so two solves compare exactly.
fn point_bits(sol: &tapacs_ilp::Solution) -> Vec<u64> {
    sol.values.iter().map(|v| v.to_bits()).collect()
}

/// The kit decisions — the hybrid pricing switch, the
/// partial-pricing cursor, the kit-restart cutover and the sibling
/// restores — are pure functions of the node, never of timing. A big
/// symmetric tree (2·Σx ≤ odd cap forces every relaxation fractional)
/// drives the search well past the kit-restart threshold, so the
/// abandoned attempt's nodes are recorded beside the restarted tree,
/// siblings restore each other's installs, and a second solve of the same
/// model returns the same point bit for bit with every counter equal.
#[test]
fn fast_kit_restart_repeats_bit_for_bit_on_a_big_tree() {
    let n = 15;
    let mut m = Model::new("sym");
    let vars: Vec<_> = (0..n).map(|i| m.binary(format!("x{i}"))).collect();
    m.add_le("cap", LinExpr::sum(vars.iter().map(|&x| LinExpr::term(x, 2.0))), n as f64);
    m.set_objective(Sense::Maximize, LinExpr::sum(vars.iter().map(|&x| LinExpr::term(x, 1.0))));

    let (first, stats) = solve_fast_with_stats(&m);
    assert!(
        stats.bb_nodes > first.nodes_explored as u64,
        "the abandoned first attempt must have recorded its nodes \
         (bb_nodes {} vs final tree {})",
        stats.bb_nodes,
        first.nodes_explored
    );
    assert!(stats.memo_sibling_hits > 0, "siblings share installs ({stats:?})");
    let (second, stats_again) = solve_fast_with_stats(&m);
    assert_eq!(point_bits(&first), point_bits(&second), "the point diverged");
    assert_eq!(first.objective.to_bits(), second.objective.to_bits());
    assert_eq!(first.nodes_explored, second.nodes_explored, "tree size");
    assert_eq!(stats, stats_again, "LP-engine counters");
}

/// A tight knapsack: every item weighs about half the capacity, so a
/// child that forces a second item in overloads the capacity row and is
/// dropped before its LP by the row-activity proof. The optimum still
/// equals exhaustive enumeration on every driver configuration.
#[test]
fn tight_knapsack_range_prunes_children_and_keeps_the_optimum() {
    let weights = [45, 46, 47, 48, 49, 51, 52, 53];
    let values = [46, 48, 47, 50, 52, 53, 55, 54];
    let cap = 100;
    let (m, _) = knapsack_model(&values, &weights, cap);
    let best = exhaustive_knapsack(&values, &weights, cap);
    for (name, solver) in driver_sweep() {
        let handle = Arc::new(SolveActivity::default());
        let sol = SolveActivity::scoped(&handle, || {
            m.solve_with_options(&SolverConfig::default(), &solver)
        })
        .expect("all-zeros is feasible");
        assert!(m.is_feasible(&sol.values, 1e-6), "{name} returned an infeasible point");
        assert_eq!(sol.objective, best as f64, "{name}: solver vs exhaustive");
        let stats = handle.snapshot();
        assert!(stats.range_pruned > 0, "{name}: no child was range-pruned ({stats:?})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn knapsack_solutions_are_feasible_and_match_exhaustive(
        items in prop::collection::vec((1u32..50, 1u32..30), 1..10),
        cap in 1u32..100,
    ) {
        let values: Vec<u32> = items.iter().map(|(v, _)| *v).collect();
        let weights: Vec<u32> = items.iter().map(|(_, w)| *w).collect();
        let (m, vars) = knapsack_model(&values, &weights, cap);

        let best = exhaustive_knapsack(&values, &weights, cap);
        for (name, solver) in driver_sweep() {
            let sol = m.solve_with_options(&SolverConfig::default(), &solver)
                .expect("all-zeros is always feasible");
            prop_assert!(m.is_feasible(&sol.values, 1e-6), "{name} returned infeasible point");
            prop_assert!((sol.objective - best as f64).abs() < 1e-6,
                "{name}: solver {} vs exhaustive {best}", sol.objective);
            // Sanity: decision variables are 0/1.
            for &v in &vars {
                let x = sol.value(v);
                prop_assert!((x - x.round()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn mip_never_beats_lp_relaxation(
        items in prop::collection::vec((1u32..50, 1u32..30), 1..9),
        cap in 1u32..80,
    ) {
        let values: Vec<u32> = items.iter().map(|(v, _)| *v).collect();
        let weights: Vec<u32> = items.iter().map(|(_, w)| *w).collect();
        let (mip, _) = knapsack_model(&values, &weights, cap);

        // LP relaxation: same model with continuous [0,1] vars.
        let mut lp = Model::new("relax");
        let vars: Vec<_> = (0..values.len())
            .map(|i| lp.continuous(format!("x{i}"), 0.0, 1.0))
            .collect();
        let weight = LinExpr::sum(
            vars.iter().zip(&weights).map(|(&v, &w)| LinExpr::term(v, w as f64)),
        );
        lp.add_le("cap", weight, cap as f64);
        lp.set_objective(
            Sense::Maximize,
            LinExpr::sum(vars.iter().zip(&values).map(|(&v, &c)| LinExpr::term(v, c as f64))),
        );

        let mip_sol = mip.solve().unwrap();
        let lp_sol = lp.solve().unwrap();
        prop_assert!(mip_sol.objective <= lp_sol.objective + 1e-6,
            "MIP {} must not beat LP bound {}", mip_sol.objective, lp_sol.objective);
    }

    #[test]
    fn equality_constrained_models_round_trip(
        sizes in prop::collection::vec(1u32..10, 2..8),
    ) {
        // Ask for a two-way split carrying exactly `half` weight when the
        // total is even; otherwise the model may legitimately be infeasible.
        let total: u32 = sizes.iter().sum();
        let mut m = Model::new("split");
        let vars: Vec<_> = (0..sizes.len()).map(|i| m.binary(format!("x{i}"))).collect();
        let load = LinExpr::sum(
            vars.iter().zip(&sizes).map(|(&v, &s)| LinExpr::term(v, s as f64)),
        );
        let half = total / 2;
        m.add_eq("bal", load, half as f64);
        m.set_objective(Sense::Minimize, LinExpr::new());
        for (name, solver) in driver_sweep() {
            match m.solve_with_options(&SolverConfig::default(), &solver) {
                Ok(sol) => {
                    prop_assert!(m.is_feasible(&sol.values, 1e-6), "{name}");
                    let got: f64 = vars.iter().zip(&sizes)
                        .map(|(&v, &s)| sol.value(v) * s as f64).sum();
                    prop_assert!((got - half as f64).abs() < 1e-6, "{name}");
                }
                Err(IlpError::Infeasible) => {
                    // Verify by exhaustion that no subset sums to `half`.
                    let n = sizes.len();
                    for mask in 0u32..(1 << n) {
                        let s: u32 =
                            (0..n).filter(|i| mask >> i & 1 == 1).map(|i| sizes[i]).sum();
                        prop_assert!(s != half,
                            "{name} said infeasible but mask {mask:b} sums to {half}");
                    }
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!("{name}: unexpected error {other}")))
                }
            }
        }
    }

    #[test]
    fn fast_parity_pricing_decisions_repeat(
        items in prop::collection::vec((1u32..50, 1u32..30), 1..10),
        cap in 1u32..100,
    ) {
        // The hybrid-pricing switch, the partial-pricing cursor, the
        // kit-restart cutover and the sibling restores must be pure
        // functions of the node: two solves of a random model agree on the
        // point and on every pricing and install counter
        // (most instances never trip the switch — the counters must then
        // be identically zero, not merely close).
        let values: Vec<u32> = items.iter().map(|(v, _)| *v).collect();
        let weights: Vec<u32> = items.iter().map(|(_, w)| *w).collect();
        let (m, _) = knapsack_model(&values, &weights, cap);

        let (first, stats) = solve_fast_with_stats(&m);
        let (second, stats_again) = solve_fast_with_stats(&m);
        prop_assert_eq!(point_bits(&first), point_bits(&second), "point diverged");
        prop_assert_eq!(first.nodes_explored, second.nodes_explored);
        prop_assert_eq!(stats, stats_again, "LP-engine counters diverged");
    }

    /// The independent certificate accepts every answer of the LP
    /// arithmetic on both random model families of this file. (The dense
    /// oracle's answers are certified by the unit tests in `src/dense.rs`.)
    #[test]
    fn certificate_accepts_every_engine_and_parity(
        items in prop::collection::vec((1u32..50, 1u32..30), 2..9),
        cap in 1u32..80,
        bound in 0u32..2,
    ) {
        let values: Vec<u32> = items.iter().map(|(v, _)| *v).collect();
        let weights: Vec<u32> = items.iter().map(|(_, w)| *w).collect();
        let cfg = SolverConfig::default();
        for m in [
            knapsack_model(&values, &weights, cap).0,
            presolve_rich_model(&values, &weights, cap, bound),
        ] {
            let sol = m.solve_with_options(&cfg, &search_only()).expect("all-zeros is feasible");
            let verdict = certify(&m, &cfg, &sol);
            prop_assert!(verdict.is_ok(), "{verdict:?}");
        }
    }

    #[test]
    fn presolve_and_warm_start_toggles_agree(
        items in prop::collection::vec((1u32..50, 1u32..30), 2..9),
        cap in 1u32..80,
        bound in 0u32..2,
    ) {
        let values: Vec<u32> = items.iter().map(|(v, _)| *v).collect();
        let weights: Vec<u32> = items.iter().map(|(_, w)| *w).collect();
        let m = presolve_rich_model(&values, &weights, cap, bound);
        let cfg = SolverConfig::default();

        let engine = |presolve, warm_lp| SolverOptions { presolve, warm_lp, ..search_only() };
        let engines: Vec<(&str, SolverOptions)> = vec![
            ("presolve+warm", engine(true, true)),
            ("presolve+cold", engine(true, false)),
            ("raw+warm", engine(false, true)),
            ("raw+cold", engine(false, false)),
        ];
        let reference = m.solve_with_options(&cfg, &engines[0].1).expect("all-zeros is feasible");
        // Postsolve correctness: the returned point lives in the original
        // variable space and satisfies the original model.
        prop_assert_eq!(reference.values.len(), m.num_vars());
        prop_assert!(m.is_feasible(&reference.values, 1e-6));
        for (name, options) in &engines[1..] {
            let sol = m.solve_with_options(&cfg, options)
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            prop_assert!(m.is_feasible(&sol.values, 1e-6),
                "{name} returned a point infeasible in original space");
            prop_assert!((sol.objective - reference.objective).abs() < 1e-6,
                "{name} objective {} vs presolve+warm {}", sol.objective, reference.objective);
        }
    }

    #[test]
    fn presolve_agrees_on_infeasibility(
        sizes in prop::collection::vec(1u32..10, 2..8),
    ) {
        // The equality-split family: whichever way each engine decides
        // (solution or infeasible), they must decide the same way.
        let total: u32 = sizes.iter().sum();
        let build = || {
            let mut m = Model::new("split");
            let vars: Vec<_> = (0..sizes.len()).map(|i| m.binary(format!("x{i}"))).collect();
            let load = LinExpr::sum(
                vars.iter().zip(&sizes).map(|(&v, &s)| LinExpr::term(v, s as f64)),
            );
            m.add_eq("bal", load, (total / 2) as f64);
            m.set_objective(Sense::Minimize, LinExpr::new());
            m
        };
        let m = build();
        let cfg = SolverConfig::default();
        let engine = |presolve| SolverOptions { presolve, ..search_only() };
        let with = m.solve_with_options(&cfg, &engine(true));
        let without = m.solve_with_options(&cfg, &engine(false));
        match (&with, &without) {
            (Ok(a), Ok(b)) => prop_assert!((a.objective - b.objective).abs() < 1e-6),
            (Err(IlpError::Infeasible), Err(IlpError::Infeasible)) => {}
            other => return Err(TestCaseError::fail(format!("engines disagree: {other:?}"))),
        }
    }

    #[test]
    fn lp_bounds_always_respected(
        lo in -20.0f64..0.0,
        hi in 0.0f64..20.0,
        c in -5.0f64..5.0,
    ) {
        let mut m = Model::new("box");
        let x = m.continuous("x", lo, hi);
        m.set_objective(Sense::Maximize, c * x);
        let sol = m.solve().unwrap();
        prop_assert!(sol.value(x) >= lo - 1e-7 && sol.value(x) <= hi + 1e-7);
        let expect = if c >= 0.0 { c * hi } else { c * lo };
        prop_assert!((sol.objective - expect).abs() < 1e-6);
    }
}
