//! The options of the one solve path, and the pieces it shares.
//!
//! TAPA-CS solves one small ILP per bipartition level; the two-level
//! floorplanner produces many of them, and the recursion makes sibling
//! subproblems independent, so the compiler may solve them on concurrent
//! threads (see [`SolverOptions::threads`]); each solve itself runs on one
//! thread. Every solve goes through [`Model::solve_with_options`], which
//! reads [`SolverOptions`] directly. This module holds the degradation
//! fallback, [`heuristic`]: greedy LP rounding with first-fit repair
//! ([`greedy_repair`]), which the branch and bound also runs on its root
//! relaxation to seed its incumbent.

use crate::branch_bound::cancel_error;
use crate::cancel::CancellationToken;
use crate::error::IlpError;
use crate::model::Model;
use crate::simplex::{self, LpOutcome};
use crate::solution::{Solution, SolveStatus};

/// Single LP solve for models without integer variables: the pure-LP
/// shortcut of [`Model::solve_with_options`] and of [`heuristic`].
pub(crate) fn solve_lp(
    model: &Model,
    cancel: Option<CancellationToken>,
) -> Result<Solution, IlpError> {
    let lp = model.to_lp();
    match simplex::solve(&lp, cancel.clone()) {
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
///
/// Cost: each row's violation is kept, and a candidate step re-evaluates
/// only the rows of its own column. A step that lowers none of them cannot
/// lower the total (rounded addition is monotone), so it is skipped
/// unsummed; any other is re-summed over all rows in row order, the same
/// float the whole-model sum would give. A walk that fails on a wide split
/// thus costs little more than one pass over its rows per step.
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

    // One row's violation (bounds are kept by construction).
    let violation = |i: usize, vals: &[f64]| -> f64 {
        let row = model.rows.row(i);
        let lhs = crate::expr::dot(row.terms, vals);
        match row.op {
            crate::CmpOp::Le => (lhs - row.rhs).max(0.0),
            crate::CmpOp::Ge => (row.rhs - lhs).max(0.0),
            crate::CmpOp::Eq => (lhs - row.rhs).abs(),
        }
    };
    let mut sc = REPAIR_SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));
    sc.row_violation.clear();
    sc.row_violation.extend((0..model.rows.len()).map(|i| violation(i, &point)));
    column_rows(model, &mut sc);
    let RepairScratch { row_violation, col_start, col_rows, trial, .. } = &mut sc;

    let mut current: f64 = row_violation.iter().sum();
    for _ in 0..4 * model.num_vars().max(4) {
        if current <= 1e-9 {
            break;
        }
        // First fit: lowest-index variable and unit step with the largest
        // violation reduction wins (strict improvement required).
        let mut best: Option<(usize, f64, f64)> = None;
        for &j in integral {
            let rows = &col_rows[col_start[j]..col_start[j + 1]];
            for step in [-1.0, 1.0] {
                let candidate = point[j] + step;
                if candidate < lp.lower[j] - 1e-9 || candidate > lp.upper[j] + 1e-9 {
                    continue;
                }
                let prev = point[j];
                point[j] = candidate;
                trial.clear();
                trial.extend(rows.iter().map(|&i| (i, violation(i, &point))));
                point[j] = prev;
                if !trial.iter().any(|&(i, v)| v < row_violation[i]) {
                    continue;
                }
                for (i, v) in trial.iter_mut() {
                    std::mem::swap(&mut row_violation[*i], v);
                }
                let v: f64 = row_violation.iter().sum();
                for &(i, old) in trial.iter() {
                    row_violation[i] = old;
                }
                if v + 1e-12 < current && best.is_none_or(|(_, _, bv)| v < bv) {
                    best = Some((j, candidate, v));
                }
            }
        }
        let Some((j, value, v)) = best else { break };
        point[j] = value;
        for &i in &col_rows[col_start[j]..col_start[j + 1]] {
            row_violation[i] = violation(i, &point);
        }
        current = v;
    }
    REPAIR_SCRATCH.with(|c| *c.borrow_mut() = sc);
    model.is_feasible(&point, 1e-6).then_some(point)
}

/// The repair walk's buffers, kept per thread between calls: a search
/// runs the walk at every root, and fresh buffers each time would only
/// churn the allocator.
#[derive(Default)]
struct RepairScratch {
    /// Each row's violation at the current point.
    row_violation: Vec<f64>,
    /// Variable `j`'s rows, once each and ascending:
    /// `col_rows[col_start[j]..col_start[j + 1]]`.
    col_start: Vec<usize>,
    col_rows: Vec<usize>,
    /// [`column_rows`]' cursor per variable: the last row counted, then
    /// the next free slot in `col_rows`.
    last_row: Vec<usize>,
    /// A candidate's rows and their violations after its step.
    trial: Vec<(usize, f64)>,
}

thread_local! {
    static REPAIR_SCRATCH: std::cell::RefCell<RepairScratch> =
        std::cell::RefCell::new(RepairScratch::default());
}

/// Fills `sc.col_start` and `sc.col_rows` with the rows each variable
/// appears in, once each and ascending.
fn column_rows(model: &Model, sc: &mut RepairScratch) {
    let n = model.num_vars();
    let RepairScratch { col_start: start, col_rows: rows, last_row: last, .. } = sc;
    start.clear();
    start.resize(n + 1, 0);
    last.clear();
    last.resize(n, usize::MAX);
    for (i, row) in model.rows.iter().enumerate() {
        for &(v, _) in row.terms {
            if std::mem::replace(&mut last[v.index()], i) != i {
                start[v.index() + 1] += 1;
            }
        }
    }
    for j in 0..n {
        start[j + 1] += start[j];
    }
    rows.clear();
    rows.resize(start[n], 0);
    // `last` now tracks each variable's next free slot.
    last.copy_from_slice(&start[..n]);
    for (i, row) in model.rows.iter().enumerate() {
        for &(v, _) in row.terms {
            let at = &mut last[v.index()];
            if *at == start[v.index()] || rows[*at - 1] != i {
                rows[*at] = i;
                *at += 1;
            }
        }
    }
}

/// The degradation ladder's last rung: the root LP relaxation, rounded and
/// repaired by [`greedy_repair`].
///
/// Returns a *feasible* point (status [`SolveStatus::Feasible`], with the
/// root LP objective as `best_bound`; [`SolveStatus::Optimal`] when the
/// point meets that bound) or [`IlpError::NoIncumbent`] when the repair
/// walk stalls. A model without integral variables (`integral` empty) is
/// one LP solve. Deliberately token-free: the rung runs after the search
/// spent its budget, so it must stay usable past an expired deadline.
pub(crate) fn heuristic(model: &Model, integral: &[usize]) -> Result<Solution, IlpError> {
    if integral.is_empty() {
        return solve_lp(model, None);
    }
    let lp = model.to_lp();
    let (relax, root_obj) = match simplex::solve(&lp, None) {
        LpOutcome::Optimal { values, objective, .. } => (values, objective),
        LpOutcome::Infeasible => return Err(IlpError::Infeasible),
        LpOutcome::Unbounded => return Err(IlpError::Unbounded),
        // Unreachable without a token; grouped with "no point found".
        LpOutcome::Cancelled => return Err(IlpError::NoIncumbent),
    };
    let Some(values) = greedy_repair(model, &lp, &relax, integral) else {
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

/// Which search answers a solve. The branch and bound is the only one; the
/// enum stays because the benchmark harness prints and compares
/// [`SolverOptions::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SolverBackend {
    /// The deterministic round-based branch and bound.
    Parallel,
}

/// Which simplex engine solves the LP relaxations. The sparse revised
/// simplex is the only one; the enum stays because the benchmark harness
/// prints [`SolverOptions::lp_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LpEngine {
    /// Sparse revised simplex with product-form basis updates.
    Sparse,
}

/// The LP arithmetic contract. There is one: a search replays the dense
/// oracle's arithmetic (kept in the test build) up to the kit-restart
/// point and runs the fast kit past it, and every answer is certified. The
/// enum stays because the benchmark harness prints
/// [`SolverOptions::lp_parity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LpParity {
    /// Kit-off replay below the restart point, the kit past it.
    Fast,
}

/// What [`Model::solve_with_options`] runs, threaded through the TAPA-CS
/// configuration structs (`PartitionConfig` / `FloorplanConfig` /
/// `CompilerConfig` in the core crate). The fields are the whole surface:
/// no environment variable overrides [`SolverOptions::default`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SolverOptions {
    /// The search to run; the branch and bound is the only one.
    pub backend: SolverBackend,
    /// The most threads one floorplanning stage may run its bipartition
    /// recursion on: the two halves of a split descend concurrently while
    /// the threads so far, doubled, stay within this cap (see
    /// [`SolverOptions::parallel_recursion_at`]). Each ILP solve runs on one
    /// thread. `0` means [`std::thread::available_parallelism`]; `1` keeps
    /// the whole recursion on the calling thread.
    pub threads: usize,
    /// Seed the branch and bound's incumbent with the greedy first-fit
    /// repair walk's point when rounding the root relaxation alone is
    /// infeasible.
    pub warm_start: bool,
    /// Memoize solves in the process-wide [`crate::SolveCache`].
    pub cache: bool,
    /// Run the root presolve (singleton rows, redundant rows, fixed
    /// columns, dual fixing) once per model before branch and bound.
    pub presolve: bool,
    /// Warm-start every child LP from its parent's simplex basis instead
    /// of re-running phase 1 + phase 2 from scratch.
    pub warm_lp: bool,
    /// The simplex engine; [`LpEngine::Sparse`] is its only value.
    pub lp_engine: LpEngine,
    /// The LP arithmetic contract; [`LpParity::Fast`] is its only value.
    pub lp_parity: LpParity,
    /// Graceful-degradation ladder: when the exact search times out with no
    /// incumbent, fall back to the root relaxation rounded and repaired by
    /// the greedy first-fit walk, and mark the solution
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
        u32::try_from(depth)
            .ok()
            .and_then(|d| self.resolved_threads().checked_shr(d))
            .is_some_and(|share| share >= 2)
    }

    /// The head of every solve-cache key: the options that can change which
    /// point a search returns. Two option sets that may return different
    /// (equally optimal) points must give different heads. Persisted cache
    /// files hold these bytes, so a head may not change without a
    /// `FILE_VERSION` bump in `cache.rs`.
    pub(crate) fn cache_key_head(&self) -> String {
        let mut head = String::from("parallel");
        if self.warm_start {
            head.push_str("+warm");
        }
        if !self.presolve {
            head.push_str("-nopresolve");
        }
        if !self.warm_lp {
            head.push_str("-coldlp");
        }
        head
    }
}

/// The branch and bound alone: no memo cache, no degradation ladder.
#[cfg(test)]
pub(crate) fn search_only() -> SolverOptions {
    SolverOptions { cache: false, degrade: false, ..SolverOptions::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Sense, SolverConfig, VarId};

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
        let sol = heuristic(&m, &m.integral_vars()).unwrap();
        assert!(m.is_feasible(&sol.values, 1e-6));
        // Bound comes from the LP root: 1.5 <= heuristic objective.
        assert!(sol.best_bound <= sol.objective + 1e-9);
    }

    #[test]
    fn warm_started_search_matches_cold() {
        let m = cover_model();
        let cfg = SolverConfig::default();
        let search = |warm_start| SolverOptions { warm_start, ..search_only() };
        let cold = m.solve_with_options(&cfg, &search(false)).unwrap();
        let warm = m.solve_with_options(&cfg, &search(true)).unwrap();
        assert!((cold.objective - warm.objective).abs() < 1e-6);
        assert!((cold.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn options_build_every_backend() {
        let m = cover_model();
        let cfg = SolverConfig::default();
        let backend = SolverBackend::Parallel;
        let options = SolverOptions { backend, cache: false, ..SolverOptions::default() };
        let sol = m.solve_with_options(&cfg, &options).unwrap();
        assert!(m.is_feasible(&sol.values, 1e-6), "{backend:?}");
    }

    #[test]
    fn resolved_threads_never_zero() {
        assert!(SolverOptions::default().resolved_threads() >= 1);
        assert_eq!(SolverOptions { threads: 3, ..Default::default() }.resolved_threads(), 3);
    }

    /// The bisection fans out at depth `d` only while `2 << d` threads fit
    /// under the cap, so it never runs more threads than `threads` allows.
    #[test]
    fn parallel_recursion_fans_out_within_the_thread_cap() {
        for (threads, fanned) in [(1, 0), (2, 1), (3, 1), (4, 2), (8, 3)] {
            let options = SolverOptions { threads, ..Default::default() };
            let depths: Vec<usize> =
                (0..70).filter(|&d| options.parallel_recursion_at(d)).collect();
            assert_eq!(depths, (0..fanned).collect::<Vec<_>>(), "threads={threads}");
            assert!(1 << fanned <= threads, "threads={threads}: {} concurrent halves", 1 << fanned);
        }
    }

    /// The solve cache's keys open with [`SolverOptions::cache_key_head`],
    /// and persisted files hold those bytes, so every combination of the
    /// options that can change the answer keeps the head it has always had
    /// (the backend name the keys were written under), each distinct.
    /// Options that cannot change the answer (`threads`, `cache`,
    /// `degrade`) leave the head alone.
    #[test]
    fn parity_modes_produce_distinct_solver_names() {
        #[rustfmt::skip]
        let table = [
            // warm_start, presolve, warm_lp: head
            (true, true, true, "parallel+warm"),
            (true, true, false, "parallel+warm-coldlp"),
            (true, false, true, "parallel+warm-nopresolve"),
            (true, false, false, "parallel+warm-nopresolve-coldlp"),
            (false, true, true, "parallel"),
            (false, true, false, "parallel-coldlp"),
            (false, false, true, "parallel-nopresolve"),
            (false, false, false, "parallel-nopresolve-coldlp"),
        ];
        let mut heads = std::collections::HashSet::new();
        for (warm_start, presolve, warm_lp, want) in table {
            let options = SolverOptions { warm_start, presolve, warm_lp, ..search_only() };
            assert_eq!(options.cache_key_head(), want);
            assert!(heads.insert(want), "{want} twice");
            for other in [
                SolverOptions { threads: 3, ..options.clone() },
                SolverOptions { cache: true, degrade: true, ..options.clone() },
            ] {
                assert_eq!(other.cache_key_head(), want, "{other:?}");
            }
        }
        assert_eq!(SolverOptions::default().cache_key_head(), "parallel+warm");
    }

    /// The last rung of the ladder runs its LP on whatever engine the
    /// thread's solves run on: under the dense oracle the fallback records
    /// no factorization work, on the sparse engine it does. A zero budget
    /// stops the search at its root with no incumbent, so the ladder
    /// answers. The sparse search factorizes its root basis before it sees
    /// the spent budget, so the same solve without the ladder is run too,
    /// and only the factorizations beyond it count as the fallback's.
    #[test]
    fn heuristic_rung_honours_the_callers_lp_engine() {
        use crate::dense::Way;
        use crate::stats::SolveActivity;
        use std::sync::Arc;
        let m = cover_model();
        let zero = SolverConfig::with_time_limit(std::time::Duration::ZERO);
        let factorizations = |way: Way, options: &SolverOptions| {
            let scope = Arc::new(SolveActivity::default());
            let answer =
                SolveActivity::scoped(&scope, || way.run(|_| m.solve_with_options(&zero, options)));
            (answer, scope.snapshot().lu_factorizations)
        };
        for (way, factorizes) in [(Way::KitOff, true), (Way::Oracle, false)] {
            let search = search_only();
            let (searched, search_lu) = factorizations(way, &search);
            assert!(matches!(searched, Err(IlpError::NoIncumbent)), "{way:?}: {searched:?}");
            let ladder = SolverOptions { degrade: true, ..search };
            let (answer, ladder_lu) = factorizations(way, &ladder);
            let sol = answer.unwrap();
            assert!(m.is_feasible(&sol.values, 1e-6));
            assert!(sol.degraded, "{way:?}: {sol:?}");
            assert_eq!(ladder_lu > search_lu, factorizes, "{way:?} via the ladder");
        }
    }

    /// The repair walk as one full violation sum per candidate: the answer
    /// `greedy_repair` must reproduce bit for bit.
    fn greedy_repair_reference(
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
        let violation = |vals: &[f64]| -> f64 {
            model
                .rows
                .iter()
                .map(|c| {
                    let lhs = crate::expr::dot(c.terms, vals);
                    match c.op {
                        CmpOp::Le => (lhs - c.rhs).max(0.0),
                        CmpOp::Ge => (c.rhs - lhs).max(0.0),
                        CmpOp::Eq => (lhs - c.rhs).abs(),
                    }
                })
                .sum()
        };
        let mut current = violation(&point);
        for _ in 0..4 * model.num_vars().max(4) {
            if current <= 1e-9 {
                break;
            }
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

    /// `greedy_repair` returns what the reference walk returns, down to the
    /// bits of every coordinate, on random models: integer, binary and
    /// continuous columns, `≤`/`≥`/`=` rows with roundoff-prone
    /// coefficients, rows that list one variable twice, and walks that
    /// finish, stall or never start.
    #[test]
    fn greedy_repair_walks_exactly_as_the_reference() {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let coeffs = [1.0, -1.0, 2.0, 0.5, 0.1, -0.3, 3.0, -2.5, 0.7];
        let ops = [CmpOp::Le, CmpOp::Ge, CmpOp::Eq];
        let (mut rounded_ok, mut walked_ok, mut stalled) = (0, 0, 0);
        for case in 0..600 {
            let mut m = Model::new("repair");
            let n = 2 + next(10);
            let vars: Vec<_> = (0..n)
                .map(|_| match next(4) {
                    0 => m.binary("b"),
                    1 => m.continuous("c", 0.0, 3.0),
                    _ => m.integer("i", 0.0, (1 + next(5)) as f64),
                })
                .collect();
            for _ in 0..1 + next(9) {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for _ in 0..1 + next(4) {
                    terms.push((vars[next(n)], coeffs[next(coeffs.len())]));
                }
                if next(3) != 0 {
                    // Builder rows hold each variable once, ascending.
                    terms.sort_by_key(|&(v, _)| v.index());
                    terms.dedup_by_key(|&mut (v, _)| v);
                }
                let rhs = (next(60) as f64 - 10.0) / 10.0;
                m.rows.push(&terms, ops[next(ops.len())], rhs);
            }
            let lp = m.to_lp();
            let relax: Vec<f64> = (0..n)
                .map(|j| lp.lower[j] + (lp.upper[j] - lp.lower[j]) * next(1_000) as f64 / 999.0)
                .collect();
            let integral = m.integral_vars();
            let got = greedy_repair(&m, &lp, &relax, &integral);
            let want = greedy_repair_reference(&m, &lp, &relax, &integral);
            let bits = |p: &Option<Vec<f64>>| {
                p.as_ref().map(|p| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(&got), bits(&want), "case {case}");
            let mut rounded = relax.clone();
            for &j in &integral {
                rounded[j] = rounded[j].round().clamp(lp.lower[j], lp.upper[j]);
            }
            match want {
                None => stalled += 1,
                Some(p) if p == rounded => rounded_ok += 1,
                Some(_) => walked_ok += 1,
            }
        }
        assert!(
            rounded_ok > 20 && walked_ok > 20 && stalled > 20,
            "{rounded_ok} rounded, {walked_ok} walked, {stalled} stalled"
        );
    }
}
