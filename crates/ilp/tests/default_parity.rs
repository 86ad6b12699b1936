//! The default LP mode is the sparse engine on the fast parity; the dense
//! engine and `exact` are opt-in, and both variables parse the same way.
//!
//! This file holds exactly one test on purpose: it edits the process
//! environment, which no test sharing the binary could race with.

use tapacs_ilp::{LpEngine, LpParity, ParallelSolver, SolverOptions};

#[test]
fn default_parity_is_fast_and_exact_is_opt_in() {
    let scrub = || {
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("TAPACS_") {
                std::env::remove_var(name);
            }
        }
    };
    scrub();
    let options = SolverOptions::default();
    assert_eq!(options.lp_parity, LpParity::Fast, "scrubbed environment");
    assert_eq!(options.lp_engine, LpEngine::Sparse);
    assert_eq!(ParallelSolver::default().lp_parity, LpParity::Fast);
    assert_eq!(ParallelSolver::default().lp_engine, LpEngine::Sparse);

    for spelling in ["exact", "EXACT", " exact "] {
        std::env::set_var("TAPACS_LP_PARITY", spelling);
        assert_eq!(SolverOptions::default().lp_parity, LpParity::Exact, "{spelling:?}");
        assert_eq!(ParallelSolver::default().lp_parity, LpParity::Exact, "{spelling:?}");
    }
    // The pre-flip spelling and anything unrecognised keep the default.
    for spelling in ["fast", "", "oracle"] {
        std::env::set_var("TAPACS_LP_PARITY", spelling);
        assert_eq!(SolverOptions::default().lp_parity, LpParity::Fast, "{spelling:?}");
    }

    // The engine variable takes the same spellings: case and padding are
    // ignored (CI passes padded values), junk keeps the default.
    for spelling in ["dense", "DENSE", " dense "] {
        std::env::set_var("TAPACS_LP_ENGINE", spelling);
        assert_eq!(SolverOptions::default().lp_engine, LpEngine::Dense, "{spelling:?}");
        assert_eq!(ParallelSolver::default().lp_engine, LpEngine::Dense, "{spelling:?}");
    }
    for spelling in ["sparse", "", "tableau"] {
        std::env::set_var("TAPACS_LP_ENGINE", spelling);
        assert_eq!(SolverOptions::default().lp_engine, LpEngine::Sparse, "{spelling:?}");
    }
    scrub();
}
