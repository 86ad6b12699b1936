//! Property-based tests for the LP/MIP solver.
//!
//! Invariants checked on randomly generated models:
//! 1. Any returned solution is feasible.
//! 2. A MIP optimum never beats its own LP relaxation bound.
//! 3. For generated-feasible knapsacks, the solver never reports infeasible.
//! 4. Optimal binary solutions match exhaustive enumeration on small
//!    instances — at 1 and 4 threads, heuristic incumbent seed on and off.
//! 5. The branch and bound returns bit-identical points and trees across
//!    thread counts.
//! 6. The LP-engine toggles are semantically invisible: presolve-on vs
//!    presolve-off and warm-started vs cold-started node solves agree on
//!    the objective, and every returned point (postsolved back from the
//!    reduced space) is feasible in the *original* variable space.
//! 7. Children dropped before their LP by the row-activity proof
//!    (`SolveStats::range_pruned`) leave the optimum where exhaustive
//!    enumeration puts it, and their count is thread-invariant.

use std::sync::Arc;

use proptest::prelude::*;
use tapacs_ilp::{
    certify, IlpError, LinExpr, LpEngine, LpParity, Model, ParallelSolver, Sense, SolveActivity,
    SolveStats, Solver, SolverConfig,
};

/// The branch and bound in the configurations the enumeration-oracle tests
/// sweep: 1 and 4 threads, with and without the heuristic incumbent seed.
fn driver_sweep() -> Vec<(String, ParallelSolver)> {
    let mut sweep = Vec::new();
    for threads in [1, 4] {
        for warm_start in [false, true] {
            let solver = ParallelSolver { threads, warm_start, ..Default::default() };
            sweep.push((format!("threads={threads} warm_start={warm_start}"), solver));
        }
    }
    sweep
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

/// Solves `m` with the fast-parity parallel backend at `threads` threads
/// under a scoped stats collector, returning the solution plus the
/// counters the run recorded (pricing switches, partial-pricing
/// refreshes, branch-and-bound nodes, iterations).
fn solve_fast_with_stats(m: &Model, threads: usize) -> (tapacs_ilp::Solution, SolveStats) {
    let handle = Arc::new(SolveActivity::default());
    let sol = SolveActivity::scoped(&handle, || {
        // Engine and parity pinned: the kit lives in the sparse engine.
        ParallelSolver {
            threads,
            lp_engine: LpEngine::Sparse,
            lp_parity: LpParity::Fast,
            ..Default::default()
        }
        .solve(m, &SolverConfig::default())
    })
    .expect("fast-parity solve must succeed");
    (sol, handle.snapshot())
}

/// The fast-parity kit decisions — the hybrid pricing switch, the
/// partial-pricing cursor and the kit-restart cutover — are pure
/// functions of the node, never of thread count or timing. A big
/// symmetric tree (2·Σx ≤ odd cap forces every relaxation fractional)
/// drives the search well past the kit-restart threshold, so the
/// abandoned-attempt node count, the restarted tree, every pricing
/// counter, the pivots, the factorizations and the restored sibling
/// installs must come back identical at 1, 2 and 4 threads.
#[test]
fn fast_kit_restart_is_thread_invariant_on_a_big_tree() {
    let n = 15;
    let mut m = Model::new("sym");
    let vars: Vec<_> = (0..n).map(|i| m.binary(format!("x{i}"))).collect();
    m.add_le("cap", LinExpr::sum(vars.iter().map(|&x| LinExpr::term(x, 2.0))), n as f64);
    m.set_objective(Sense::Maximize, LinExpr::sum(vars.iter().map(|&x| LinExpr::term(x, 1.0))));

    let (one, stats_one) = solve_fast_with_stats(&m, 1);
    assert!(
        stats_one.bb_nodes > one.nodes_explored as u64,
        "the abandoned first attempt must have recorded its nodes \
         (bb_nodes {} vs final tree {})",
        stats_one.bb_nodes,
        one.nodes_explored
    );
    for threads in [2usize, 4] {
        let (t, stats_t) = solve_fast_with_stats(&m, threads);
        assert_eq!(one.values, t.values, "threads={threads} diverged on the point");
        assert_eq!(one.nodes_explored, t.nodes_explored, "threads={threads} tree size");
        assert_eq!(stats_one.bb_nodes, stats_t.bb_nodes, "threads={threads} recorded nodes");
        assert_eq!(
            stats_one.pricing_switches, stats_t.pricing_switches,
            "threads={threads} pricing switches"
        );
        assert_eq!(
            stats_one.partial_pricing_refreshes, stats_t.partial_pricing_refreshes,
            "threads={threads} partial-pricing refreshes"
        );
        assert_eq!(
            stats_one.simplex_iterations, stats_t.simplex_iterations,
            "threads={threads} iterations"
        );
        // Basis installs under the kit-on one-FTRAN recompute, each kind on
        // its own: whether a child restores its sibling's install depends
        // only on the node it belongs to, never on which worker ran it.
        assert_eq!(
            stats_one.lu_factorizations, stats_t.lu_factorizations,
            "threads={threads} factorizations"
        );
        assert_eq!(
            stats_one.memo_sibling_hits, stats_t.memo_sibling_hits,
            "threads={threads} restored sibling installs"
        );
        assert!(stats_t.memo_sibling_hits > 0, "threads={threads}: siblings share installs");
        assert_eq!(
            stats_one.refactor_triggers, stats_t.refactor_triggers,
            "threads={threads} mid-solve refactorizations"
        );
        assert_eq!(
            stats_one.range_pruned, stats_t.range_pruned,
            "threads={threads} range-pruned children"
        );
    }
}

/// A tight knapsack: every item weighs about half the capacity, so a
/// child that forces a second item in overloads the capacity row and is
/// dropped before its LP by the row-activity proof. The optimum still
/// equals exhaustive enumeration on every driver configuration, with one
/// `range_pruned` count at every thread count.
#[test]
fn tight_knapsack_range_prunes_children_and_keeps_the_optimum() {
    let weights = [45, 46, 47, 48, 49, 51, 52, 53];
    let values = [46, 48, 47, 50, 52, 53, 55, 54];
    let cap = 100;
    let (m, _) = knapsack_model(&values, &weights, cap);
    let best = exhaustive_knapsack(&values, &weights, cap);
    let mut pruned = Vec::new();
    for (name, solver) in driver_sweep() {
        let handle = Arc::new(SolveActivity::default());
        let sol = SolveActivity::scoped(&handle, || solver.solve(&m, &SolverConfig::default()))
            .expect("all-zeros is feasible");
        assert!(m.is_feasible(&sol.values, 1e-6), "{name} returned an infeasible point");
        assert_eq!(sol.objective, best as f64, "{name}: solver vs exhaustive");
        let stats = handle.snapshot();
        assert!(stats.range_pruned > 0, "{name}: no child was range-pruned ({stats:?})");
        pruned.push((solver.warm_start, stats.range_pruned));
    }
    // The sweep runs 1 then 4 threads per seed setting: equal counts.
    for warm_start in [false, true] {
        let counts: Vec<u64> =
            pruned.iter().filter(|(w, _)| *w == warm_start).map(|&(_, n)| n).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "warm_start={warm_start}: {counts:?}");
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
            let sol = solver.solve(&m, &SolverConfig::default())
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
            match solver.solve(&m, &SolverConfig::default()) {
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
    fn fast_parity_pricing_decisions_are_thread_invariant(
        items in prop::collection::vec((1u32..50, 1u32..30), 1..10),
        cap in 1u32..100,
    ) {
        // The hybrid-pricing switch, the partial-pricing cursor, the
        // kit-restart cutover and the sibling restores must be pure
        // functions of the node: random models at 1, 2 and 4 threads agree
        // on every pricing and install counter
        // (most instances never trip the switch — the counters must then
        // be identically zero, not merely close).
        let values: Vec<u32> = items.iter().map(|(v, _)| *v).collect();
        let weights: Vec<u32> = items.iter().map(|(_, w)| *w).collect();
        let (m, _) = knapsack_model(&values, &weights, cap);

        let (one, stats_one) = solve_fast_with_stats(&m, 1);
        for threads in [2usize, 4] {
            let (t, stats_t) = solve_fast_with_stats(&m, threads);
            prop_assert_eq!(&one.values, &t.values, "threads={} point diverged", threads);
            prop_assert_eq!(one.nodes_explored, t.nodes_explored);
            prop_assert_eq!(stats_one.bb_nodes, stats_t.bb_nodes);
            prop_assert_eq!(stats_one.pricing_switches, stats_t.pricing_switches,
                "threads={} pricing switches diverged", threads);
            prop_assert_eq!(stats_one.partial_pricing_refreshes,
                stats_t.partial_pricing_refreshes);
            prop_assert_eq!(stats_one.simplex_iterations, stats_t.simplex_iterations,
                "threads={} iteration counts diverged", threads);
            prop_assert_eq!(stats_one.lu_factorizations, stats_t.lu_factorizations);
            prop_assert_eq!(stats_one.memo_sibling_hits, stats_t.memo_sibling_hits);
            prop_assert_eq!(stats_one.range_pruned, stats_t.range_pruned,
                "threads={} range-pruned children diverged", threads);
        }
    }

    /// The independent certificate accepts every answer of every LP
    /// configuration — both engines, both parities, inline and on spawned
    /// workers — on both random model families of this file.
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
            for lp_engine in [LpEngine::Sparse, LpEngine::Dense] {
                for lp_parity in [LpParity::Fast, LpParity::Exact] {
                    for threads in [1, 2] {
                        let solver =
                            ParallelSolver { threads, lp_engine, lp_parity, ..Default::default() };
                        let sol = solver.solve(&m, &cfg).expect("all-zeros is feasible");
                        let verdict = certify(&m, &cfg, &sol);
                        prop_assert!(verdict.is_ok(),
                            "threads={threads} {lp_engine:?}/{lp_parity:?}: {verdict:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_backend_is_value_deterministic_across_threads(
        items in prop::collection::vec((1u32..50, 1u32..30), 1..10),
        cap in 1u32..100,
    ) {
        let values: Vec<u32> = items.iter().map(|(v, _)| *v).collect();
        let weights: Vec<u32> = items.iter().map(|(_, w)| *w).collect();
        let (m, _) = knapsack_model(&values, &weights, cap);
        let cfg = SolverConfig::default();

        // Defaults: presolve and LP warm starts ON — the determinism
        // guarantee must survive the incremental node solves.
        let one = ParallelSolver { threads: 1, ..Default::default() }.solve(&m, &cfg).unwrap();
        for threads in [2usize, 4] {
            let t = ParallelSolver { threads, ..Default::default() }.solve(&m, &cfg).unwrap();
            prop_assert_eq!(&one.values, &t.values, "threads={} diverged", threads);
            prop_assert_eq!(one.nodes_explored, t.nodes_explored);
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

        let engine = |presolve, warm_lp| {
            ParallelSolver { threads: 1, presolve, warm_lp, ..Default::default() }
        };
        let engines: Vec<(&str, ParallelSolver)> = vec![
            ("presolve+warm", engine(true, true)),
            ("presolve+cold", engine(true, false)),
            ("raw+warm", engine(false, true)),
            ("raw+cold", engine(false, false)),
        ];
        let reference = engines[0].1.solve(&m, &cfg).expect("all-zeros is feasible");
        // Postsolve correctness: the returned point lives in the original
        // variable space and satisfies the original model.
        prop_assert_eq!(reference.values.len(), m.num_vars());
        prop_assert!(m.is_feasible(&reference.values, 1e-6));
        for (name, solver) in &engines[1..] {
            let sol = solver.solve(&m, &cfg)
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
        let engine = |presolve| ParallelSolver { threads: 1, presolve, ..Default::default() };
        let with = engine(true).solve(&m, &cfg);
        let without = engine(false).solve(&m, &cfg);
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
