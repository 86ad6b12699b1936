//! LP-engine activity counters: a process-wide collector plus scoped
//! per-job handles.
//!
//! The branch-and-bound searches fire thousands of LP solves per compile;
//! per-solve timing lives in `core::report::LevelSolveStats`, but the
//! *engine-level* story — how many simplex pivots those solves cost, how
//! often a node re-solved from its parent basis instead of from scratch,
//! and how much presolve shaved off each model — is aggregated here, in the
//! same process-wide style as [`crate::SolveCache`]. `reproduce solvers`
//! reads snapshots before/after a compile to report deltas.
//!
//! Snapshot deltas break down when several compiles run *concurrently*
//! (the batch engine interleaves their solves on one set of process-global
//! counters), so recording is additionally **scoped**: a caller installs a
//! per-job [`SolveActivity`] handle with [`SolveActivity::scoped`], every
//! solve recorded inside the closure feeds the handle *and* the global
//! collector, and code that fans work out to threads re-installs
//! [`SolveActivity::current_scope`] on each worker so the attribution
//! survives the crate's internal parallelism.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Immutable snapshot of [`SolveActivity`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct SolveStats {
    /// Simplex runs (one per LP relaxation solved; cache hits don't count).
    pub lp_solves: u64,
    /// Total simplex iterations (phase 1 + phase 2 pivots and bound flips).
    pub simplex_iterations: u64,
    /// The phase-1 (feasibility restoration) share of the iterations.
    pub phase1_iterations: u64,
    /// LP solves that were offered a parent basis to warm-start from.
    pub warm_attempts: u64,
    /// Warm starts that held: the basis refactorized cleanly and the solve
    /// finished from it without falling back to a cold start.
    pub warm_hits: u64,
    /// Basis factorizations computed by the sparse revised simplex (one
    /// per installed basis, plus every mid-solve refactorization).
    pub lu_factorizations: u64,
    /// Total nonzeros stored across factorization etas — the fill-in the
    /// eliminations generated on top of the basis columns themselves.
    pub lu_fill_nnz: u64,
    /// Product-form (eta) basis updates appended by simplex pivots.
    pub eta_updates: u64,
    /// Total nonzeros across update etas (`eta_nnz / eta_updates` is the
    /// mean eta length).
    pub eta_nnz: u64,
    /// Mid-solve refactorizations forced by the deterministic trigger
    /// (update-eta chain longer than the refactor interval, or eta fill
    /// past the parity mode's `eta_nnz` budget).
    pub refactor_triggers: u64,
    /// The subset of [`refactor_triggers`](SolveStats::refactor_triggers)
    /// caused by eta-file fill rather than update count.
    pub refactor_fill_triggers: u64,
    /// Devex reference-framework resets under fast parity
    /// (weights regrown past the stability ceiling and re-primed to 1).
    pub devex_resets: u64,
    /// Forrest–Tomlin-style eta replacements under fast parity:
    /// pivots whose update eta *composed into* the previous same-row eta
    /// instead of appending, keeping the eta file from growing.
    pub ft_replacements: u64,
    /// Hybrid-pricing switches under fast parity (the default): node solves
    /// that outgrew the banded-Dantzig opening and switched to devex
    /// pricing mid-solve. A pure function of each node's iteration count,
    /// so the total is identical across worker-thread counts.
    pub pricing_switches: u64,
    /// Partial-pricing wrap-arounds under fast parity: rotating
    /// section scans that exhausted the candidate list and restarted from
    /// the front (each wrap is one full-width pricing pass).
    pub partial_pricing_refreshes: u64,
    /// Basis installs served by restoring a sibling's install instead of
    /// factorizing: the second child of a branched node restores the
    /// node's basis the first child installed. Every install is exactly
    /// one of `lu_factorizations` / `memo_sibling_hits`, so the two always
    /// sum to installs, and each is a function of the search alone (the
    /// same at every thread count).
    pub memo_sibling_hits: u64,
    /// Branch-and-bound nodes expanded across all searches, attempts
    /// abandoned by the kit restart included. The fast-parity node-tree
    /// guard compares this between parity modes.
    pub bb_nodes: u64,
    /// Branched children dropped before their LP because one row's
    /// coefficient-wise activity range over the child's box cannot meet
    /// the row (presolve's own infeasibility proof, run on the rows of the
    /// branched column). Each would have been an `Infeasible` LP solve, so
    /// the drop saves exactly that solve and moves no search decision; a
    /// function of the search alone, the same at every thread count.
    pub range_pruned: u64,
    /// Integral LP points pushed onto a branch-and-bound frontier, the
    /// root included: open nodes that hold a packed candidate point
    /// instead of a basis and a bound chain. Attempts abandoned by the kit
    /// restart count too; a function of the search alone, the same at
    /// every thread count.
    pub candidate_nodes: u64,
    /// Models run through [`presolve`](crate::SolverOptions::presolve).
    pub presolve_runs: u64,
    /// Constraint rows removed as empty, singleton or redundant.
    pub presolve_rows_removed: u64,
    /// Variables fixed (empty domain interval or duality fixing).
    pub presolve_cols_fixed: u64,
    /// Variable bounds tightened by singleton rows.
    pub presolve_bounds_tightened: u64,
}

impl SolveStats {
    /// Fraction of warm-start attempts that held, in `[0, 1]` (`0` with no
    /// attempts).
    pub fn warm_hit_rate(&self) -> f64 {
        if self.warm_attempts == 0 {
            0.0
        } else {
            self.warm_hits as f64 / self.warm_attempts as f64
        }
    }

    /// Mean simplex iterations per LP solve (`0` with no solves).
    pub fn iterations_per_solve(&self) -> f64 {
        if self.lp_solves == 0 {
            0.0
        } else {
            self.simplex_iterations as f64 / self.lp_solves as f64
        }
    }

    /// Counter-wise sum `self + other`, for folding per-job handles into a
    /// batch-level total.
    #[must_use]
    pub fn merged(&self, other: &SolveStats) -> SolveStats {
        SolveStats {
            lp_solves: self.lp_solves + other.lp_solves,
            simplex_iterations: self.simplex_iterations + other.simplex_iterations,
            phase1_iterations: self.phase1_iterations + other.phase1_iterations,
            warm_attempts: self.warm_attempts + other.warm_attempts,
            warm_hits: self.warm_hits + other.warm_hits,
            lu_factorizations: self.lu_factorizations + other.lu_factorizations,
            lu_fill_nnz: self.lu_fill_nnz + other.lu_fill_nnz,
            eta_updates: self.eta_updates + other.eta_updates,
            eta_nnz: self.eta_nnz + other.eta_nnz,
            refactor_triggers: self.refactor_triggers + other.refactor_triggers,
            refactor_fill_triggers: self.refactor_fill_triggers + other.refactor_fill_triggers,
            devex_resets: self.devex_resets + other.devex_resets,
            ft_replacements: self.ft_replacements + other.ft_replacements,
            pricing_switches: self.pricing_switches + other.pricing_switches,
            partial_pricing_refreshes: self.partial_pricing_refreshes
                + other.partial_pricing_refreshes,
            memo_sibling_hits: self.memo_sibling_hits + other.memo_sibling_hits,
            bb_nodes: self.bb_nodes + other.bb_nodes,
            range_pruned: self.range_pruned + other.range_pruned,
            candidate_nodes: self.candidate_nodes + other.candidate_nodes,
            presolve_runs: self.presolve_runs + other.presolve_runs,
            presolve_rows_removed: self.presolve_rows_removed + other.presolve_rows_removed,
            presolve_cols_fixed: self.presolve_cols_fixed + other.presolve_cols_fixed,
            presolve_bounds_tightened: self.presolve_bounds_tightened
                + other.presolve_bounds_tightened,
        }
    }

    /// Counter-wise difference `self - earlier` (saturating), for measuring
    /// one compile between two snapshots.
    #[must_use]
    pub fn since(&self, earlier: &SolveStats) -> SolveStats {
        SolveStats {
            lp_solves: self.lp_solves.saturating_sub(earlier.lp_solves),
            simplex_iterations: self.simplex_iterations.saturating_sub(earlier.simplex_iterations),
            phase1_iterations: self.phase1_iterations.saturating_sub(earlier.phase1_iterations),
            warm_attempts: self.warm_attempts.saturating_sub(earlier.warm_attempts),
            warm_hits: self.warm_hits.saturating_sub(earlier.warm_hits),
            lu_factorizations: self.lu_factorizations.saturating_sub(earlier.lu_factorizations),
            lu_fill_nnz: self.lu_fill_nnz.saturating_sub(earlier.lu_fill_nnz),
            eta_updates: self.eta_updates.saturating_sub(earlier.eta_updates),
            eta_nnz: self.eta_nnz.saturating_sub(earlier.eta_nnz),
            refactor_triggers: self.refactor_triggers.saturating_sub(earlier.refactor_triggers),
            refactor_fill_triggers: self
                .refactor_fill_triggers
                .saturating_sub(earlier.refactor_fill_triggers),
            devex_resets: self.devex_resets.saturating_sub(earlier.devex_resets),
            ft_replacements: self.ft_replacements.saturating_sub(earlier.ft_replacements),
            pricing_switches: self.pricing_switches.saturating_sub(earlier.pricing_switches),
            partial_pricing_refreshes: self
                .partial_pricing_refreshes
                .saturating_sub(earlier.partial_pricing_refreshes),
            memo_sibling_hits: self.memo_sibling_hits.saturating_sub(earlier.memo_sibling_hits),
            bb_nodes: self.bb_nodes.saturating_sub(earlier.bb_nodes),
            range_pruned: self.range_pruned.saturating_sub(earlier.range_pruned),
            candidate_nodes: self.candidate_nodes.saturating_sub(earlier.candidate_nodes),
            presolve_runs: self.presolve_runs.saturating_sub(earlier.presolve_runs),
            presolve_rows_removed: self
                .presolve_rows_removed
                .saturating_sub(earlier.presolve_rows_removed),
            presolve_cols_fixed: self
                .presolve_cols_fixed
                .saturating_sub(earlier.presolve_cols_fixed),
            presolve_bounds_tightened: self
                .presolve_bounds_tightened
                .saturating_sub(earlier.presolve_bounds_tightened),
        }
    }
}

/// The process-wide counter set behind [`SolveStats`].
#[derive(Debug, Default)]
pub struct SolveActivity {
    lp_solves: AtomicU64,
    simplex_iterations: AtomicU64,
    phase1_iterations: AtomicU64,
    warm_attempts: AtomicU64,
    warm_hits: AtomicU64,
    lu_factorizations: AtomicU64,
    lu_fill_nnz: AtomicU64,
    eta_updates: AtomicU64,
    eta_nnz: AtomicU64,
    refactor_triggers: AtomicU64,
    refactor_fill_triggers: AtomicU64,
    devex_resets: AtomicU64,
    ft_replacements: AtomicU64,
    pricing_switches: AtomicU64,
    partial_pricing_refreshes: AtomicU64,
    memo_sibling_hits: AtomicU64,
    bb_nodes: AtomicU64,
    range_pruned: AtomicU64,
    candidate_nodes: AtomicU64,
    presolve_runs: AtomicU64,
    presolve_rows_removed: AtomicU64,
    presolve_cols_fixed: AtomicU64,
    presolve_bounds_tightened: AtomicU64,
}

thread_local! {
    /// The scoped per-job collector installed by [`SolveActivity::scoped`].
    static SCOPE: RefCell<Option<Arc<SolveActivity>>> = const { RefCell::new(None) };
}

/// Restores the previously installed scope on drop, so a panicking closure
/// cannot leak its handle into unrelated work on the same thread.
struct ScopeGuard(Option<Arc<SolveActivity>>);

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| *s.borrow_mut() = self.0.take());
    }
}

/// Records one event into the global collector and, when present, the
/// scoped per-job handle. The indirection is what lets concurrent batch
/// jobs keep separate counters while `reproduce solvers`-style snapshot
/// deltas on the global collector keep working unchanged. The scope is
/// read by reference inside a single TLS access — this runs 1-3 times per
/// LP solve, so no per-event `Arc` clone.
pub(crate) fn record(f: impl Fn(&SolveActivity)) {
    f(SolveActivity::global());
    SCOPE.with(|s| {
        if let Some(scope) = s.borrow().as_deref() {
            f(scope);
        }
    });
}

impl SolveActivity {
    /// The process-wide collector the simplex and presolve feed.
    pub fn global() -> &'static SolveActivity {
        static GLOBAL: OnceLock<SolveActivity> = OnceLock::new();
        GLOBAL.get_or_init(SolveActivity::default)
    }

    /// Runs `f` with `handle` installed as this thread's scoped collector:
    /// every LP solve, warm-start attempt and presolve recorded inside `f`
    /// feeds `handle` in addition to [`SolveActivity::global`]. Scopes
    /// nest; the previous handle is restored when `f` returns (or panics).
    ///
    /// Code inside the `tapacs_ilp` solvers that spawns worker threads
    /// re-installs [`SolveActivity::current_scope`] on each worker, so a
    /// scope installed around a whole compile captures the solves of the
    /// parallel branch and bound too.
    pub fn scoped<R>(handle: &Arc<SolveActivity>, f: impl FnOnce() -> R) -> R {
        Self::scoped_opt(Some(Arc::clone(handle)), f)
    }

    /// [`SolveActivity::scoped`] with an optional handle — `None` runs `f`
    /// with scoped recording cleared. This is the form thread-spawning code
    /// uses to propagate [`SolveActivity::current_scope`] onto workers.
    pub fn scoped_opt<R>(handle: Option<Arc<SolveActivity>>, f: impl FnOnce() -> R) -> R {
        let previous = SCOPE.with(|s| std::mem::replace(&mut *s.borrow_mut(), handle));
        let _guard = ScopeGuard(previous);
        f()
    }

    /// The per-job handle installed on this thread, if any.
    pub fn current_scope() -> Option<Arc<SolveActivity>> {
        SCOPE.with(|s| s.borrow().clone())
    }

    /// Current counters.
    pub fn snapshot(&self) -> SolveStats {
        SolveStats {
            lp_solves: self.lp_solves.load(Ordering::Relaxed),
            simplex_iterations: self.simplex_iterations.load(Ordering::Relaxed),
            phase1_iterations: self.phase1_iterations.load(Ordering::Relaxed),
            warm_attempts: self.warm_attempts.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            lu_factorizations: self.lu_factorizations.load(Ordering::Relaxed),
            lu_fill_nnz: self.lu_fill_nnz.load(Ordering::Relaxed),
            eta_updates: self.eta_updates.load(Ordering::Relaxed),
            eta_nnz: self.eta_nnz.load(Ordering::Relaxed),
            refactor_triggers: self.refactor_triggers.load(Ordering::Relaxed),
            refactor_fill_triggers: self.refactor_fill_triggers.load(Ordering::Relaxed),
            devex_resets: self.devex_resets.load(Ordering::Relaxed),
            ft_replacements: self.ft_replacements.load(Ordering::Relaxed),
            pricing_switches: self.pricing_switches.load(Ordering::Relaxed),
            partial_pricing_refreshes: self.partial_pricing_refreshes.load(Ordering::Relaxed),
            memo_sibling_hits: self.memo_sibling_hits.load(Ordering::Relaxed),
            bb_nodes: self.bb_nodes.load(Ordering::Relaxed),
            range_pruned: self.range_pruned.load(Ordering::Relaxed),
            candidate_nodes: self.candidate_nodes.load(Ordering::Relaxed),
            presolve_runs: self.presolve_runs.load(Ordering::Relaxed),
            presolve_rows_removed: self.presolve_rows_removed.load(Ordering::Relaxed),
            presolve_cols_fixed: self.presolve_cols_fixed.load(Ordering::Relaxed),
            presolve_bounds_tightened: self.presolve_bounds_tightened.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter (benchmarks call this between timed runs).
    pub fn clear(&self) {
        self.lp_solves.store(0, Ordering::Relaxed);
        self.simplex_iterations.store(0, Ordering::Relaxed);
        self.phase1_iterations.store(0, Ordering::Relaxed);
        self.warm_attempts.store(0, Ordering::Relaxed);
        self.warm_hits.store(0, Ordering::Relaxed);
        self.lu_factorizations.store(0, Ordering::Relaxed);
        self.lu_fill_nnz.store(0, Ordering::Relaxed);
        self.eta_updates.store(0, Ordering::Relaxed);
        self.eta_nnz.store(0, Ordering::Relaxed);
        self.refactor_triggers.store(0, Ordering::Relaxed);
        self.refactor_fill_triggers.store(0, Ordering::Relaxed);
        self.devex_resets.store(0, Ordering::Relaxed);
        self.ft_replacements.store(0, Ordering::Relaxed);
        self.pricing_switches.store(0, Ordering::Relaxed);
        self.partial_pricing_refreshes.store(0, Ordering::Relaxed);
        self.memo_sibling_hits.store(0, Ordering::Relaxed);
        self.bb_nodes.store(0, Ordering::Relaxed);
        self.range_pruned.store(0, Ordering::Relaxed);
        self.candidate_nodes.store(0, Ordering::Relaxed);
        self.presolve_runs.store(0, Ordering::Relaxed);
        self.presolve_rows_removed.store(0, Ordering::Relaxed);
        self.presolve_cols_fixed.store(0, Ordering::Relaxed);
        self.presolve_bounds_tightened.store(0, Ordering::Relaxed);
    }

    pub(crate) fn record_lp_solve(&self, phase1_iters: u64, phase2_iters: u64) {
        self.lp_solves.fetch_add(1, Ordering::Relaxed);
        self.simplex_iterations.fetch_add(phase1_iters + phase2_iters, Ordering::Relaxed);
        self.phase1_iterations.fetch_add(phase1_iters, Ordering::Relaxed);
    }

    /// Flushes the factorization counters one sparse solve accumulated
    /// locally (one call per solve, not per pivot — the engine batches).
    /// The array matches [`EngineCore::lu_totals`](crate::simplex) order:
    /// factorizations, fill_nnz, eta_updates, eta_nnz, refactor_triggers,
    /// refactor_fill_triggers, devex_resets, ft_replacements,
    /// pricing_switches, partial_pricing_refreshes, memo_sibling_hits.
    pub(crate) fn record_lu(&self, lu: &[u64; 11]) {
        self.lu_factorizations.fetch_add(lu[0], Ordering::Relaxed);
        self.lu_fill_nnz.fetch_add(lu[1], Ordering::Relaxed);
        self.eta_updates.fetch_add(lu[2], Ordering::Relaxed);
        self.eta_nnz.fetch_add(lu[3], Ordering::Relaxed);
        self.refactor_triggers.fetch_add(lu[4], Ordering::Relaxed);
        self.refactor_fill_triggers.fetch_add(lu[5], Ordering::Relaxed);
        self.devex_resets.fetch_add(lu[6], Ordering::Relaxed);
        self.ft_replacements.fetch_add(lu[7], Ordering::Relaxed);
        self.pricing_switches.fetch_add(lu[8], Ordering::Relaxed);
        self.partial_pricing_refreshes.fetch_add(lu[9], Ordering::Relaxed);
        self.memo_sibling_hits.fetch_add(lu[10], Ordering::Relaxed);
    }

    /// Adds one finished branch-and-bound search's expanded-node count
    /// (recorded once per search by both B&B drivers).
    pub(crate) fn record_bb_nodes(&self, nodes: u64) {
        self.bb_nodes.fetch_add(nodes, Ordering::Relaxed);
    }

    /// Adds one expansion's range-pruned children.
    pub(crate) fn record_range_pruned(&self, children: u64) {
        self.range_pruned.fetch_add(children, Ordering::Relaxed);
    }

    /// Adds one search attempt's candidate nodes.
    pub(crate) fn record_candidate_nodes(&self, nodes: u64) {
        self.candidate_nodes.fetch_add(nodes, Ordering::Relaxed);
    }

    pub(crate) fn record_warm_attempt(&self) {
        self.warm_attempts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_warm_hit(&self) {
        self.warm_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_presolve(
        &self,
        rows_removed: u64,
        cols_fixed: u64,
        bounds_tightened: u64,
    ) {
        self.presolve_runs.fetch_add(1, Ordering::Relaxed);
        self.presolve_rows_removed.fetch_add(rows_removed, Ordering::Relaxed);
        self.presolve_cols_fixed.fetch_add(cols_fixed, Ordering::Relaxed);
        self.presolve_bounds_tightened.fetch_add(bounds_tightened, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_counters() {
        let s = SolveStats::default();
        assert_eq!(s.warm_hit_rate(), 0.0);
        assert_eq!(s.iterations_per_solve(), 0.0);
    }

    #[test]
    fn since_subtracts_counterwise() {
        let a = SolveStats {
            lp_solves: 10,
            simplex_iterations: 100,
            warm_hits: 3,
            ..Default::default()
        };
        let b =
            SolveStats { lp_solves: 4, simplex_iterations: 40, warm_hits: 1, ..Default::default() };
        let d = a.since(&b);
        assert_eq!(d.lp_solves, 6);
        assert_eq!(d.simplex_iterations, 60);
        assert_eq!(d.warm_hits, 2);
    }

    #[test]
    fn merged_adds_counterwise() {
        let a = SolveStats { lp_solves: 3, warm_attempts: 2, warm_hits: 1, ..Default::default() };
        let b = SolveStats { lp_solves: 5, warm_attempts: 4, warm_hits: 4, ..Default::default() };
        let m = a.merged(&b);
        assert_eq!(m.lp_solves, 8);
        assert_eq!(m.warm_attempts, 6);
        assert_eq!(m.warm_hits, 5);
    }

    #[test]
    fn scoped_handle_sees_only_its_own_records() {
        let job = Arc::new(SolveActivity::default());
        let global_before = SolveActivity::global().snapshot();
        SolveActivity::scoped(&job, || {
            record(|a| a.record_lp_solve(2, 3));
            record(|a| a.record_warm_attempt());
        });
        // Recorded outside the scope: global only.
        record(|a| a.record_lp_solve(1, 1));
        let seen = job.snapshot();
        assert_eq!(seen.lp_solves, 1);
        assert_eq!(seen.simplex_iterations, 5);
        assert_eq!(seen.warm_attempts, 1);
        // The global collector got everything (at least — other tests run
        // concurrently on the same process-wide counters).
        let global_delta = SolveActivity::global().snapshot().since(&global_before);
        assert!(global_delta.lp_solves >= 2);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Arc::new(SolveActivity::default());
        let inner = Arc::new(SolveActivity::default());
        SolveActivity::scoped(&outer, || {
            record(|a| a.record_warm_attempt());
            SolveActivity::scoped(&inner, || record(|a| a.record_warm_attempt()));
            // Restored: this lands on `outer` again.
            record(|a| a.record_warm_attempt());
            assert!(SolveActivity::current_scope().is_some());
        });
        assert!(SolveActivity::current_scope().is_none());
        assert_eq!(outer.snapshot().warm_attempts, 2);
        assert_eq!(inner.snapshot().warm_attempts, 1);
    }

    #[test]
    fn activity_counters_round_trip() {
        let act = SolveActivity::default();
        act.record_lp_solve(5, 7);
        act.record_warm_attempt();
        act.record_warm_hit();
        act.record_presolve(2, 1, 3);
        act.record_lu(&[2, 17, 4, 9, 1, 1, 3, 6, 2, 5, 4]);
        act.record_bb_nodes(13);
        act.record_range_pruned(6);
        act.record_candidate_nodes(11);
        let s = act.snapshot();
        assert_eq!(s.lp_solves, 1);
        assert_eq!(s.simplex_iterations, 12);
        assert_eq!(s.phase1_iterations, 5);
        assert!((s.warm_hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(s.presolve_rows_removed, 2);
        assert_eq!(s.lu_factorizations, 2);
        assert_eq!(s.lu_fill_nnz, 17);
        assert_eq!(s.eta_updates, 4);
        assert_eq!(s.eta_nnz, 9);
        assert_eq!(s.refactor_triggers, 1);
        assert_eq!(s.refactor_fill_triggers, 1);
        assert_eq!(s.devex_resets, 3);
        assert_eq!(s.ft_replacements, 6);
        assert_eq!(s.pricing_switches, 2);
        assert_eq!(s.partial_pricing_refreshes, 5);
        assert_eq!(s.memo_sibling_hits, 4);
        assert_eq!(s.bb_nodes, 13);
        assert_eq!(s.range_pruned, 6);
        assert_eq!(s.candidate_nodes, 11);
        act.clear();
        assert_eq!(act.snapshot(), SolveStats::default());
    }

    #[test]
    fn lu_counters_merge_and_subtract() {
        let a = SolveStats {
            lu_factorizations: 5,
            lu_fill_nnz: 40,
            eta_updates: 9,
            eta_nnz: 27,
            refactor_triggers: 2,
            refactor_fill_triggers: 1,
            devex_resets: 4,
            ft_replacements: 8,
            pricing_switches: 6,
            partial_pricing_refreshes: 10,
            memo_sibling_hits: 7,
            bb_nodes: 20,
            range_pruned: 9,
            candidate_nodes: 15,
            ..Default::default()
        };
        let b = SolveStats {
            lu_factorizations: 2,
            lu_fill_nnz: 10,
            eta_updates: 4,
            eta_nnz: 12,
            refactor_triggers: 1,
            refactor_fill_triggers: 1,
            devex_resets: 1,
            ft_replacements: 3,
            pricing_switches: 2,
            partial_pricing_refreshes: 4,
            memo_sibling_hits: 5,
            bb_nodes: 8,
            range_pruned: 3,
            candidate_nodes: 4,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.lu_factorizations, 7);
        assert_eq!(m.eta_nnz, 39);
        assert_eq!(m.refactor_fill_triggers, 2);
        assert_eq!(m.devex_resets, 5);
        assert_eq!(m.ft_replacements, 11);
        assert_eq!(m.pricing_switches, 8);
        assert_eq!(m.partial_pricing_refreshes, 14);
        assert_eq!(m.memo_sibling_hits, 12);
        assert_eq!(m.bb_nodes, 28);
        assert_eq!(m.range_pruned, 12);
        assert_eq!(m.candidate_nodes, 19);
        let d = a.since(&b);
        assert_eq!(d.lu_factorizations, 3);
        assert_eq!(d.lu_fill_nnz, 30);
        assert_eq!(d.refactor_triggers, 1);
        assert_eq!(d.refactor_fill_triggers, 0);
        assert_eq!(d.devex_resets, 3);
        assert_eq!(d.ft_replacements, 5);
        assert_eq!(d.pricing_switches, 4);
        assert_eq!(d.partial_pricing_refreshes, 6);
        assert_eq!(d.memo_sibling_hits, 2);
        assert_eq!(d.bb_nodes, 12);
        assert_eq!(d.range_pruned, 6);
        assert_eq!(d.candidate_nodes, 11);
    }
}
