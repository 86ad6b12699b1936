//! Pluggable solver backends.
//!
//! TAPA-CS solves one small ILP per bipartition level; the two-level
//! floorplanner produces many of them, and the recursion makes sibling
//! subproblems independent, so the compiler may solve them on concurrent
//! threads (see [`SolverOptions::threads`]); each solve itself runs on one
//! thread. The [`Solver`] trait decouples *what* is solved ([`Model`] +
//! [`SolverConfig`]) from *how*:
//!
//! * [`crate::ParallelSolver`] — the branch and bound: deterministic
//!   round-based frontier expansion.
//! * [`HeuristicSolver`] — greedy LP rounding with first-fit repair; fast,
//!   feasibility-only. The branch and bound uses its point as a warm-start
//!   incumbent.
//!
//! [`SolverOptions`] is the caller-facing selection knob.

use crate::branch_bound::cancel_error;
use crate::cache::CachingSolver;
use crate::cancel::CancellationToken;
use crate::error::IlpError;
use crate::model::{Model, SolverConfig};
use crate::simplex::{self, LpEngine, LpOutcome, LpParity};
use crate::solution::{Solution, SolveStatus};

/// A mixed-integer solve strategy.
///
/// Implementations must be deterministic for a fixed model and
/// configuration: TAPA-CS requires reproducible floorplans, and the
/// [solve cache](crate::SolveCache) replays stored solutions.
pub trait Solver: Send + Sync {
    /// Stable backend identifier; part of the solve-cache key, so two
    /// backends that may return different (equally optimal) points must
    /// report different names.
    fn name(&self) -> String;

    /// Solves `model` under `config`'s budget.
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`], [`IlpError::Unbounded`] or
    /// [`IlpError::NoIncumbent`] per the outcome of the search.
    fn solve(&self, model: &Model, config: &SolverConfig) -> Result<Solution, IlpError>;
}

/// Single LP solve for models without integer variables — shared shortcut
/// for every backend.
pub(crate) fn solve_lp(
    model: &Model,
    engine: LpEngine,
    parity: LpParity,
    cancel: Option<CancellationToken>,
) -> Result<Solution, IlpError> {
    let lp = model.to_lp();
    match simplex::solve(&lp, engine, parity, cancel.clone()) {
        LpOutcome::Optimal { values, objective, .. } => Ok(Solution {
            status: SolveStatus::Optimal,
            objective,
            values,
            nodes_explored: 0,
            best_bound: objective,
            degraded: false,
        }),
        LpOutcome::Infeasible => Err(IlpError::Infeasible),
        LpOutcome::Unbounded => Err(IlpError::Unbounded),
        LpOutcome::Cancelled => Err(cancel_error(cancel.as_ref())),
    }
}

/// Greedy feasible point from an LP relaxation: round the integral
/// coordinates, then first-fit repair — walk the integral variables in
/// index order, taking the unit step that most reduces total constraint
/// violation, until feasible or stuck. Fully deterministic.
///
/// The branch and bound calls this on its *already solved* root relaxation
/// to seed the incumbent, so the warm start costs no extra LP solve.
pub(crate) fn greedy_repair(
    model: &Model,
    lp: &crate::simplex::LpProblem,
    relax: &[f64],
    integral: &[usize],
) -> Option<Vec<f64>> {
    let mut point = relax.to_vec();
    for &j in integral {
        point[j] = point[j].round().clamp(lp.lower[j], lp.upper[j]);
    }
    if model.is_feasible(&point, 1e-6) {
        return Some(point);
    }

    // Total violation across constraints (bounds are kept by construction).
    let violation = |vals: &[f64]| -> f64 {
        model
            .rows
            .iter()
            .map(|c| {
                let lhs = crate::expr::dot(c.terms, vals);
                match c.op {
                    crate::CmpOp::Le => (lhs - c.rhs).max(0.0),
                    crate::CmpOp::Ge => (c.rhs - lhs).max(0.0),
                    crate::CmpOp::Eq => (lhs - c.rhs).abs(),
                }
            })
            .sum()
    };

    let mut current = violation(&point);
    for _ in 0..4 * model.num_vars().max(4) {
        if current <= 1e-9 {
            break;
        }
        // First fit: lowest-index variable and unit step with the largest
        // violation reduction wins (strict improvement required).
        let mut best: Option<(usize, f64, f64)> = None;
        for &j in integral {
            for step in [-1.0, 1.0] {
                let candidate = point[j] + step;
                if candidate < lp.lower[j] - 1e-9 || candidate > lp.upper[j] + 1e-9 {
                    continue;
                }
                let prev = point[j];
                point[j] = candidate;
                let v = violation(&point);
                point[j] = prev;
                if v + 1e-12 < current && best.is_none_or(|(_, _, bv)| v < bv) {
                    best = Some((j, candidate, v));
                }
            }
        }
        let Some((j, value, v)) = best else { break };
        point[j] = value;
        current = v;
    }
    model.is_feasible(&point, 1e-6).then_some(point)
}

/// The LP half of a backend's [`Solver::name`] — and so of the solve-cache
/// key. The default pair (sparse engine, fast parity) is unsuffixed; the
/// oracle engine and the oracle-replay parity each add a suffix, so an
/// answer computed under either can never be served under the default's
/// name.
pub(crate) fn lp_name_suffix(engine: LpEngine, parity: LpParity) -> &'static str {
    match (engine, parity) {
        (LpEngine::Sparse, LpParity::Fast) => "",
        (LpEngine::Dense, LpParity::Fast) => "-denselp",
        (LpEngine::Sparse, LpParity::Exact) => "-exactlp",
        (LpEngine::Dense, LpParity::Exact) => "-denselp-exactlp",
    }
}

/// Greedy LP-rounding + first-fit repair, packaged as a [`Solver`].
///
/// Returns a *feasible* point fast (status [`SolveStatus::Feasible`], with
/// the root LP objective as `best_bound`) or [`IlpError::NoIncumbent`] when
/// the repair walk stalls. The branch and bound calls the same heuristic
/// internally for its warm start.
#[derive(Debug, Clone, Copy)]
pub struct HeuristicSolver {
    /// Which simplex engine solves the root relaxation.
    pub lp_engine: LpEngine,
    /// Arithmetic contract of the sparse engine (see [`LpParity`]).
    pub lp_parity: LpParity,
}

impl Solver for HeuristicSolver {
    fn name(&self) -> String {
        format!("heuristic{}", lp_name_suffix(self.lp_engine, self.lp_parity))
    }

    fn solve(&self, model: &Model, _config: &SolverConfig) -> Result<Solution, IlpError> {
        let integral = model.integral_vars();
        if integral.is_empty() {
            // Deliberately token-free: the heuristic is the degradation
            // ladder's last rung, so it must stay usable after a deadline
            // has already expired.
            return solve_lp(model, self.lp_engine, self.lp_parity, None);
        }
        let lp = model.to_lp();
        let (relax, root_obj) = match simplex::solve(&lp, self.lp_engine, self.lp_parity, None) {
            LpOutcome::Optimal { values, objective, .. } => (values, objective),
            LpOutcome::Infeasible => return Err(IlpError::Infeasible),
            LpOutcome::Unbounded => return Err(IlpError::Unbounded),
            // Unreachable without a token; grouped with "no point found".
            LpOutcome::Cancelled => return Err(IlpError::NoIncumbent),
        };
        let Some(values) = greedy_repair(model, &lp, &relax, &integral) else {
            return Err(IlpError::NoIncumbent);
        };
        let objective = model.objective.eval(&values);
        let proven = (objective - root_obj).abs() <= 1e-9 * objective.abs().max(1.0);
        Ok(Solution {
            status: if proven { SolveStatus::Optimal } else { SolveStatus::Feasible },
            objective,
            values,
            nodes_explored: 0,
            best_bound: root_obj,
            degraded: false,
        })
    }
}

/// Which [`Solver`] implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SolverBackend {
    /// [`crate::ParallelSolver`]: deterministic branch and bound, exact.
    Parallel,
    /// [`HeuristicSolver`]: greedy feasibility only (no optimality).
    Heuristic,
}

/// Backend selection threaded through the TAPA-CS configuration structs
/// (`PartitionConfig` / `FloorplanConfig` / `CompilerConfig` in the core
/// crate). The fields are the whole surface: no environment variable
/// overrides [`SolverOptions::default`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SolverOptions {
    /// Backend to run.
    pub backend: SolverBackend,
    /// The most threads one floorplanning stage may run its bipartition
    /// recursion on: the two halves of a split descend concurrently while
    /// the threads so far, doubled, stay within this cap (see
    /// [`SolverOptions::parallel_recursion_at`]). Each ILP solve runs on one
    /// thread. `0` means [`std::thread::available_parallelism`]; `1` keeps
    /// the whole recursion on the calling thread.
    pub threads: usize,
    /// Warm-start branch and bound with [`HeuristicSolver`]'s point.
    pub warm_start: bool,
    /// Memoize solves in the process-wide [`crate::SolveCache`].
    pub cache: bool,
    /// Run the root presolve (singleton rows, redundant rows, fixed
    /// columns, dual fixing) once per model before branch and bound.
    pub presolve: bool,
    /// Warm-start every child LP from its parent's simplex basis instead
    /// of re-running phase 1 + phase 2 from scratch.
    pub warm_lp: bool,
    /// Which simplex engine runs the LP relaxations (see [`LpEngine`]).
    pub lp_engine: LpEngine,
    /// Arithmetic contract of the sparse engine: [`LpParity::Fast`] unless
    /// the caller asks for the [`LpParity::Exact`] oracle replay.
    pub lp_parity: LpParity,
    /// Graceful-degradation ladder: when the exact search times out with no
    /// incumbent, fall back to [`HeuristicSolver`] and mark the solution
    /// [`Solution::degraded`] instead of failing the solve. External
    /// cancellation still aborts. `false` makes budget exhaustion fail the
    /// solve.
    pub degrade: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            backend: SolverBackend::Parallel,
            threads: 0,
            warm_start: true,
            cache: true,
            presolve: true,
            warm_lp: true,
            lp_engine: LpEngine::Sparse,
            lp_parity: LpParity::Fast,
            degrade: true,
        }
    }
}

/// A configured worker count with `0` resolved to the machine's parallelism.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

impl SolverOptions {
    /// The parallel backend with an explicit thread cap.
    pub fn parallel(threads: usize) -> Self {
        Self { backend: SolverBackend::Parallel, threads, ..Self::default() }
    }

    /// Thread cap with `0` resolved to the machine's parallelism.
    pub fn resolved_threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// Whether the two halves of a bipartition split at recursion depth
    /// `depth` (the root split is 0) should descend concurrently. A
    /// recursion that fans out at every depth up to `d` runs `2 << d`
    /// threads, so it fans out only while that stays within
    /// [`resolved_threads`](Self::resolved_threads): 2–3 threads split the
    /// root only, 4–7 the first two depths, and so on.
    pub fn parallel_recursion_at(&self, depth: usize) -> bool {
        matches!(self.backend, SolverBackend::Parallel)
            && u32::try_from(depth)
                .ok()
                .and_then(|d| self.resolved_threads().checked_shr(d))
                .is_some_and(|share| share >= 2)
    }

    /// Builds the configured backend, wrapped in the memo cache when
    /// [`SolverOptions::cache`] is set and in the degradation ladder when
    /// [`SolverOptions::degrade`] is set.
    ///
    /// The [`DegradingSolver`] wraps *outside* the cache: cache keys stay a
    /// pure function of the exact backend, and degraded fallback points are
    /// never memoized as if they were that backend's answer.
    pub fn solver(&self) -> Box<dyn Solver> {
        let heuristic = HeuristicSolver { lp_engine: self.lp_engine, lp_parity: self.lp_parity };
        let base: Box<dyn Solver> = match self.backend {
            SolverBackend::Parallel => Box::new(crate::ParallelSolver {
                warm_start: self.warm_start,
                presolve: self.presolve,
                warm_lp: self.warm_lp,
                lp_engine: self.lp_engine,
                lp_parity: self.lp_parity,
            }),
            SolverBackend::Heuristic => Box::new(heuristic),
        };
        let cached: Box<dyn Solver> =
            if self.cache { Box::new(CachingSolver::new(base)) } else { base };
        // Wrapping the heuristic in itself would be pointless.
        if self.degrade && !matches!(self.backend, SolverBackend::Heuristic) {
            Box::new(DegradingSolver::new(cached, heuristic))
        } else {
            cached
        }
    }
}

/// The graceful-degradation ladder, packaged as a [`Solver`] wrapper.
///
/// Delegates to the inner solver; when that search exhausts its budget with
/// *no incumbent at all* ([`IlpError::NoIncumbent`]), it retries with
/// [`HeuristicSolver`] and marks the fallback point
/// [`Solution::degraded`] — a timed-out sweep job then reports "degraded"
/// instead of "failed". Cancellation semantics are preserved: an externally
/// cancelled solve aborts with [`IlpError::Cancelled`] and never falls back,
/// because the caller asked for *no* answer, not a cheaper one.
///
/// Always wrap this *outside* [`CachingSolver`]: the cache keys on the inner
/// backend's name, and degraded points must never be memoized (see
/// [`SolverOptions::solver`]).
pub struct DegradingSolver {
    inner: Box<dyn Solver>,
    fallback: HeuristicSolver,
}

impl DegradingSolver {
    /// Wraps `inner` in the degradation ladder, with `fallback` as the
    /// rung below it (configured with the same LP engine and parity).
    pub fn new(inner: Box<dyn Solver>, fallback: HeuristicSolver) -> Self {
        Self { inner, fallback }
    }
}

impl Solver for DegradingSolver {
    fn name(&self) -> String {
        // Transparent for reporting: the ladder does not change what the
        // backend computes on the non-degraded path. (It must not feed a
        // CachingSolver, so this name is never a cache key.)
        self.inner.name()
    }

    fn solve(&self, model: &Model, config: &SolverConfig) -> Result<Solution, IlpError> {
        match self.inner.solve(model, config) {
            Err(IlpError::NoIncumbent) => {
                if config.cancel.as_ref().is_some_and(CancellationToken::cancelled_externally) {
                    return Err(IlpError::Cancelled);
                }
                // The heuristic's own status is kept truthful (it may even
                // prove optimality at the root); `degraded` alone records
                // that the ladder produced this point.
                let mut fallback = self.fallback.solve(model, config)?;
                fallback.degraded = true;
                Ok(fallback)
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParallelSolver, Sense};

    fn cover_model() -> Model {
        // min x+y+z s.t. x+y>=1, y+z>=1, x+z>=1 (vertex cover of a triangle,
        // optimum 2; the LP relaxation is fractional at 1.5).
        let mut m = Model::new("cover");
        let x = m.binary("x");
        let y = m.binary("y");
        let z = m.binary("z");
        m.add_ge("a", x + y, 1.0);
        m.add_ge("b", y + z, 1.0);
        m.add_ge("c", x + z, 1.0);
        m.set_objective(Sense::Minimize, x + y + z);
        m
    }

    #[test]
    fn heuristic_finds_feasible_point() {
        let m = cover_model();
        let heuristic = HeuristicSolver { lp_engine: LpEngine::Sparse, lp_parity: LpParity::Fast };
        let sol = heuristic.solve(&m, &SolverConfig::default()).unwrap();
        assert!(m.is_feasible(&sol.values, 1e-6));
        // Bound comes from the LP root: 1.5 <= heuristic objective.
        assert!(sol.best_bound <= sol.objective + 1e-9);
    }

    #[test]
    fn warm_started_search_matches_cold() {
        let m = cover_model();
        let cfg = SolverConfig::default();
        let search = |warm_start| ParallelSolver { warm_start, ..Default::default() };
        let cold = search(false).solve(&m, &cfg).unwrap();
        let warm = search(true).solve(&m, &cfg).unwrap();
        assert!((cold.objective - warm.objective).abs() < 1e-6);
        assert!((cold.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn options_build_every_backend() {
        let m = cover_model();
        let cfg = SolverConfig::default();
        for backend in [SolverBackend::Parallel, SolverBackend::Heuristic] {
            let options = SolverOptions { backend, cache: false, ..SolverOptions::default() };
            let sol = options.solver().solve(&m, &cfg).unwrap();
            assert!(m.is_feasible(&sol.values, 1e-6), "{backend:?}");
        }
    }

    #[test]
    fn resolved_threads_never_zero() {
        assert!(SolverOptions::default().resolved_threads() >= 1);
        assert_eq!(SolverOptions::parallel(3).resolved_threads(), 3);
    }

    /// The bisection fans out at depth `d` only while `2 << d` threads fit
    /// under the cap, so it never runs more threads than `threads` allows.
    #[test]
    fn parallel_recursion_fans_out_within_the_thread_cap() {
        for (threads, fanned) in [(1, 0), (2, 1), (3, 1), (4, 2), (8, 3)] {
            let options = SolverOptions::parallel(threads);
            let depths: Vec<usize> =
                (0..70).filter(|&d| options.parallel_recursion_at(d)).collect();
            assert_eq!(depths, (0..fanned).collect::<Vec<_>>(), "threads={threads}");
            assert!(1 << fanned <= threads, "threads={threads}: {} concurrent halves", 1 << fanned);
        }
        let heuristic =
            SolverOptions { backend: SolverBackend::Heuristic, threads: 8, ..Default::default() };
        assert!(
            !heuristic.parallel_recursion_at(0),
            "only the exact backend recurses concurrently"
        );
    }

    /// The solve cache keys on `Solver::name()`: the two parity modes run
    /// different pivot sequences under a budget, so their names — and hence
    /// their cache keys — must never collide. The default (sparse + fast)
    /// is the unsuffixed name; the oracle modes carry the suffixes.
    #[test]
    fn parity_modes_produce_distinct_solver_names() {
        let names = |engine, parity| -> [String; 2] {
            [
                ParallelSolver { lp_engine: engine, lp_parity: parity, ..Default::default() }
                    .name(),
                HeuristicSolver { lp_engine: engine, lp_parity: parity }.name(),
            ]
        };
        let defaults = names(LpEngine::Sparse, LpParity::Fast);
        assert_eq!(defaults[1], "heuristic");
        for default in &defaults {
            assert!(
                !default.contains("exactlp") && !default.contains("denselp"),
                "default name stays unsuffixed: {default}"
            );
        }
        for (engine, parity, suffix) in [
            (LpEngine::Sparse, LpParity::Exact, "-exactlp"),
            (LpEngine::Dense, LpParity::Fast, "-denselp"),
            (LpEngine::Dense, LpParity::Exact, "-denselp-exactlp"),
        ] {
            for (default, oracle) in defaults.iter().zip(names(engine, parity)) {
                assert_eq!(oracle, format!("{default}{suffix}"), "oracle mode is the suffix");
            }
        }
        // Through SolverOptions (the compiler's path) the suffix survives
        // the caching wrapper, so disk entries split by parity too — for
        // the heuristic backend as well.
        for backend in [SolverBackend::Parallel, SolverBackend::Heuristic] {
            let opts =
                |parity| SolverOptions { backend, lp_parity: parity, ..SolverOptions::default() };
            assert_ne!(
                opts(LpParity::Exact).solver().name(),
                opts(LpParity::Fast).solver().name(),
                "{backend:?}"
            );
        }
    }

    /// The last rung of the ladder must run the engine the caller asked
    /// for, not whatever the environment says: a dense-engine fallback
    /// records no factorization work, a sparse one does — both as the
    /// `Heuristic` backend built by `SolverOptions::solver()` and as the
    /// rung `DegradingSolver` falls to.
    #[test]
    fn heuristic_rung_honours_the_callers_lp_engine() {
        use crate::stats::SolveActivity;
        use std::sync::Arc;
        let m = cover_model();
        let cfg = SolverConfig::default();
        let factorizations = |solver: &dyn Solver| {
            let scope = Arc::new(SolveActivity::default());
            let sol = SolveActivity::scoped(&scope, || solver.solve(&m, &cfg)).unwrap();
            assert!(m.is_feasible(&sol.values, 1e-6));
            (sol.degraded, scope.snapshot().lu_factorizations)
        };
        for (lp_engine, factorizes) in [(LpEngine::Sparse, true), (LpEngine::Dense, false)] {
            let options = SolverOptions {
                backend: SolverBackend::Heuristic,
                cache: false,
                lp_engine,
                ..SolverOptions::default()
            };
            let (degraded, lu) = factorizations(options.solver().as_ref());
            assert!(!degraded);
            assert_eq!(lu > 0, factorizes, "{lp_engine:?} via SolverOptions");

            let ladder = DegradingSolver::new(
                Box::new(FailingSolver),
                HeuristicSolver { lp_engine, lp_parity: LpParity::Fast },
            );
            let (degraded, lu) = factorizations(&ladder);
            assert!(degraded);
            assert_eq!(lu > 0, factorizes, "{lp_engine:?} via DegradingSolver");
        }
    }

    /// An exact rung that always exhausts its budget.
    struct FailingSolver;

    impl Solver for FailingSolver {
        fn name(&self) -> String {
            "failing".into()
        }

        fn solve(&self, _: &Model, _: &SolverConfig) -> Result<Solution, IlpError> {
            Err(IlpError::NoIncumbent)
        }
    }
}
