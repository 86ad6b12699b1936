//! Worst-case cooperative-cancellation latency, pinned for both LP
//! parities.
//!
//! Every engine loop — phase 1, phase 2, and the fast-parity devex /
//! dual-repair paths — polls its cancel probe (`simplex::CancelProbe`) at
//! least once per `CANCEL_CHECK_EVERY` (64) pivots. A tripped token must
//! therefore stop a solve within one probe window, no matter how long the
//! uncancelled solve runs. The fast parity is the regression target: its
//! dual warm-re-solve loops once ran to completion before noticing a
//! deadline.

use std::sync::Mutex;

use tapacs_ilp::{
    CancellationToken, IlpError, LinExpr, LpEngine, LpParity, Model, ParallelSolver, Sense,
    SolveActivity, Solver, SolverConfig,
};

/// The probe window: engines may run at most this many pivots between
/// token polls (mirrors `simplex::CANCEL_CHECK_EVERY`).
const PROBE_WINDOW: u64 = 64;

/// The activity counters are process-global; serialize the tests that
/// measure deltas against them.
static ACTIVITY: Mutex<()> = Mutex::new(());

/// A dense pure LP that takes well over one probe window of pivots: `n`
/// box-bounded variables under `rows` covering ≥-constraints with varied
/// (deterministic LCG) coefficients, minimizing a positive combination —
/// phase 1 must work to find feasibility, phase 2 to optimality.
fn chunky_lp(n: usize, rows: usize) -> Model {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 9) as f64 + 1.0
    };
    let mut m = Model::new("cancel-latency");
    let vars: Vec<_> = (0..n).map(|j| m.continuous(format!("x{j}"), 0.0, 50.0)).collect();
    // Rows are generated around a known interior point `x*_j = 5 + j%7`
    // (each rhs offset from `a·x*`), so the model is feasible by
    // construction while the mixed-sign sparse windows still force real
    // phase-1 and phase-2 pivoting.
    let target = |j: usize| 5.0 + (j % 7) as f64;
    for i in 0..rows {
        let width = 6 + (i % 5);
        let terms: Vec<(usize, f64)> = (0..width)
            .map(|k| {
                let j = (i * 3 + k * 7) % n;
                let c = next() - if k % 3 == 0 { 6.0 } else { 0.0 };
                (j, c)
            })
            .collect();
        let at_target: f64 = terms.iter().map(|&(j, c)| c * target(j)).sum();
        let expr = LinExpr::sum(terms.iter().map(|&(j, c)| LinExpr::term(vars[j], c)));
        if i % 4 == 0 {
            m.add_le(format!("r{i}"), expr, at_target + 1.0 + next());
        } else {
            m.add_ge(format!("r{i}"), expr, at_target - 1.0 - next());
        }
    }
    let objective = LinExpr::sum(vars.iter().map(|&v| LinExpr::term(v, next())));
    m.set_objective(Sense::Minimize, objective);
    m
}

fn solver(parity: LpParity) -> ParallelSolver {
    ParallelSolver {
        warm_start: true,
        presolve: false,
        warm_lp: true,
        lp_engine: LpEngine::Sparse,
        lp_parity: parity,
    }
}

#[test]
fn tripped_token_stops_both_parities_within_one_probe_window() {
    let _serial = ACTIVITY.lock().unwrap_or_else(|e| e.into_inner());
    let activity = SolveActivity::global();
    let model = chunky_lp(120, 300);

    for parity in [LpParity::Exact, LpParity::Fast] {
        let s = solver(parity);

        // Baseline: the uncancelled solve must be big enough that the
        // latency bound below means something.
        let before = activity.snapshot();
        s.solve(&model, &SolverConfig::default()).expect("chunky LP is feasible");
        let base = activity.snapshot().since(&before);
        // `simplex_iterations` is the phase-1 + phase-2 total already.
        let base_pivots = base.simplex_iterations;
        assert!(
            base_pivots > PROBE_WINDOW,
            "baseline too small to exercise the bound ({base_pivots} pivots, parity {parity:?})"
        );

        // A pre-cancelled token: the solve must abort with the typed error
        // after at most one probe window of burned pivots (the engines
        // record pivots even for cancelled runs).
        let token = CancellationToken::new();
        token.cancel();
        let config = SolverConfig { cancel: Some(token), ..SolverConfig::default() };
        let before = activity.snapshot();
        let err = s.solve(&model, &config).expect_err("cancelled solve must not succeed");
        assert!(matches!(err, IlpError::Cancelled), "want Cancelled, got {err:?}");
        let stopped = activity.snapshot().since(&before);
        let burned = stopped.simplex_iterations;
        assert!(
            burned <= PROBE_WINDOW,
            "cancel latency blew the probe window: {burned} pivots burned \
             (limit {PROBE_WINDOW}, parity {parity:?}, baseline {base_pivots})"
        );
    }
}

#[test]
fn mid_solve_cancel_aborts_from_another_thread() {
    let _serial = ACTIVITY.lock().unwrap_or_else(|e| e.into_inner());
    // An integer model with enough branching to outlive the cancel signal
    // in any build profile; the exact timing doesn't matter — the solve
    // must return (quickly) with either the cancel error or, if it won the
    // race, a genuine solution. Hanging here is the failure mode.
    let mut m = Model::new("cancel-race");
    let vars: Vec<_> = (0..24).map(|j| m.binary(format!("b{j}"))).collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 97) as f64 + 1.0
    };
    let weight = LinExpr::sum(vars.iter().map(|&v| LinExpr::term(v, next())));
    m.add_le("cap", weight, 600.0);
    let value = LinExpr::sum(vars.iter().map(|&v| LinExpr::term(v, next() + 0.5)));
    m.set_objective(Sense::Maximize, value);

    let token = CancellationToken::new();
    let config = SolverConfig { cancel: Some(token.clone()), ..SolverConfig::default() };
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(5));
        token.cancel();
    });
    let result = solver(LpParity::Fast).solve(&m, &config);
    canceller.join().expect("canceller thread");
    match result {
        Err(IlpError::Cancelled) | Ok(_) => {}
        Err(other) => panic!("unexpected error from cancelled solve: {other:?}"),
    }
}
