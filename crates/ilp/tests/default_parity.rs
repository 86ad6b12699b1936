//! The default LP parity is the fast path; `exact` is opt-in.
//!
//! This file holds exactly one test on purpose: it edits the process
//! environment, which no test sharing the binary could race with.

use tapacs_ilp::{LpEngine, LpParity, ParallelSolver, SequentialSolver, SolverOptions};

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
    assert_eq!(SequentialSolver::default().lp_parity, LpParity::Fast);
    assert_eq!(ParallelSolver::default().lp_parity, LpParity::Fast);

    for spelling in ["exact", "EXACT", " exact "] {
        std::env::set_var("TAPACS_LP_PARITY", spelling);
        assert_eq!(SolverOptions::default().lp_parity, LpParity::Exact, "{spelling:?}");
        assert_eq!(SequentialSolver::default().lp_parity, LpParity::Exact, "{spelling:?}");
        assert_eq!(ParallelSolver::default().lp_parity, LpParity::Exact, "{spelling:?}");
    }
    // The pre-flip spelling and anything unrecognised keep the default.
    for spelling in ["fast", "", "oracle"] {
        std::env::set_var("TAPACS_LP_PARITY", spelling);
        assert_eq!(SolverOptions::default().lp_parity, LpParity::Fast, "{spelling:?}");
    }
    scrub();
}
