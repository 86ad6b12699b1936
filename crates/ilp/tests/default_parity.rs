//! The defaults are constants: the sparse engine on the fast parity, and no
//! process environment variable moves them. The dense engine, `exact`
//! parity and every other option are opt-in through the typed fields, and
//! faults are armed only by `install_faults`.
//!
//! This file holds exactly one test on purpose: it edits the process
//! environment, which no test sharing the binary could race with.

use tapacs_ilp::{
    fault_fires, fault_registry, FaultKind, LpEngine, LpParity, ParallelSolver, SolverBackend,
    SolverOptions,
};

#[test]
fn default_parity_is_fast_and_exact_is_opt_in() {
    // Every variable an earlier build read, each at a value that used to
    // move a default; the faults spec is valid and matches the probed site.
    let exported = [
        ("TAPACS_SOLVER_THREADS", "1"),
        ("TAPACS_PRESOLVE", "0"),
        ("TAPACS_LP_WARM", "0"),
        ("TAPACS_LP_ENGINE", "dense"),
        ("TAPACS_LP_PARITY", "exact"),
        ("TAPACS_DEGRADE", "0"),
        ("TAPACS_BATCH_THREADS", "1"),
        ("TAPACS_FAULTS", "7:panic@probe;cacheio@probe"),
    ];
    for (name, value) in exported {
        std::env::set_var(name, value);
    }

    let options = SolverOptions {
        backend: SolverBackend::Parallel,
        threads: 0,
        warm_start: true,
        cache: true,
        presolve: true,
        warm_lp: true,
        lp_engine: LpEngine::Sparse,
        lp_parity: LpParity::Fast,
        degrade: true,
    };
    assert_eq!(SolverOptions::default(), options);
    let parallel = ParallelSolver {
        warm_start: true,
        presolve: true,
        warm_lp: true,
        lp_engine: LpEngine::Sparse,
        lp_parity: LpParity::Fast,
    };
    assert_eq!(format!("{:?}", ParallelSolver::default()), format!("{parallel:?}"));

    assert!(fault_registry().is_none(), "the environment armed a fault registry");
    assert!(!fault_fires(FaultKind::Panic, "probe"));
    assert!(!fault_fires(FaultKind::CacheIo, "probe"));

    for (name, _) in exported {
        std::env::remove_var(name);
    }
}
