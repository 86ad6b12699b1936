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
//! collector, and code that fans work out to threads (the compiler's
//! concurrent bisection halves) re-installs [`SolveActivity::current_scope`]
//! on each worker so the attribution survives that parallelism.
//!
//! Every counter is declared once, in the `counters!` table below, which
//! generates the [`SolveStats`] field, the [`SolveActivity`] atomic and the
//! whole-table operations (`snapshot`, `clear`, `merged`, `since`). Adding a
//! counter is one table line plus its record site: the code that counts the
//! event sets the field on the [`SolveStats`] delta it passes to [`record`]
//! (once per solve or search, never per pivot). A counter shown by
//! `reproduce solvers` also needs its line in
//! `core::report::SolverActivityReport::render_table`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Generates [`SolveStats`], [`SolveActivity`] and every operation that
/// walks all counters from one list of documented counter names.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Immutable snapshot of [`SolveActivity`] counters, and the delta one
        /// solve or search records into them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
        pub struct SolveStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// The process-wide counter set behind [`SolveStats`].
        #[derive(Debug, Default)]
        pub struct SolveActivity {
            $($name: AtomicU64,)*
        }

        impl SolveStats {
            /// Counter-wise sum `self + other`, for folding per-job handles
            /// into a batch-level total.
            #[must_use]
            pub fn merged(&self, other: &SolveStats) -> SolveStats {
                SolveStats { $($name: self.$name + other.$name,)* }
            }

            /// Counter-wise difference `self - earlier` (saturating), for
            /// measuring one compile between two snapshots.
            #[must_use]
            pub fn since(&self, earlier: &SolveStats) -> SolveStats {
                SolveStats { $($name: self.$name.saturating_sub(earlier.$name),)* }
            }

            /// Every counter by name, in table order.
            #[cfg(test)]
            fn fields_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
                vec![$((stringify!($name), &mut self.$name),)*]
            }
        }

        impl SolveActivity {
            /// Current counters.
            pub fn snapshot(&self) -> SolveStats {
                SolveStats { $($name: self.$name.load(Ordering::Relaxed),)* }
            }

            /// Zeroes every counter (benchmarks call this between timed runs).
            pub fn clear(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }

            /// Adds `delta`'s nonzero counters.
            fn add(&self, delta: &SolveStats) {
                $(if delta.$name != 0 {
                    self.$name.fetch_add(delta.$name, Ordering::Relaxed);
                })*
            }
        }
    };
}

counters! {
    /// Simplex runs (one per LP relaxation solved; cache hits don't count).
    lp_solves,
    /// Total simplex iterations (phase 1 + phase 2 pivots and bound flips).
    simplex_iterations,
    /// The phase-1 (feasibility restoration) share of the iterations.
    phase1_iterations,
    /// LP solves that were offered a parent basis to warm-start from.
    warm_attempts,
    /// Warm starts that held: the basis refactorized cleanly and the solve
    /// finished from it without falling back to a cold start.
    warm_hits,
    /// Basis factorizations computed by the sparse revised simplex (one
    /// per installed basis, plus every mid-solve refactorization).
    lu_factorizations,
    /// Total nonzeros stored across factorization etas — the fill-in the
    /// eliminations generated on top of the basis columns themselves.
    lu_fill_nnz,
    /// Product-form (eta) basis updates appended by simplex pivots.
    eta_updates,
    /// Total nonzeros across update etas (`eta_nnz / eta_updates` is the
    /// mean eta length).
    eta_nnz,
    /// Mid-solve refactorizations forced by the deterministic trigger
    /// (update-eta chain longer than the refactor interval, or eta fill
    /// past the solve's `eta_nnz` budget).
    refactor_triggers,
    /// The subset of [`refactor_triggers`](SolveStats::refactor_triggers)
    /// caused by eta-file fill rather than update count.
    refactor_fill_triggers,
    /// Devex reference-framework resets on kit-on solves (weights regrown
    /// past the stability ceiling and re-primed to 1).
    devex_resets,
    /// Forrest–Tomlin-style eta replacements on kit-on solves:
    /// pivots whose update eta *composed into* the previous same-row eta
    /// instead of appending, keeping the eta file from growing.
    ft_replacements,
    /// Hybrid-pricing switches on kit-on solves: node solves
    /// that outgrew the banded-Dantzig opening and switched to devex
    /// pricing mid-solve. A pure function of each node's iteration count,
    /// so the total repeats exactly from run to run.
    pricing_switches,
    /// Partial-pricing wrap-arounds on kit-on solves: rotating
    /// section scans that exhausted the candidate list and restarted from
    /// the front (each wrap is one full-width pricing pass).
    partial_pricing_refreshes,
    /// Basis installs served by restoring a sibling's install instead of
    /// factorizing: the second child of a branched node restores the
    /// node's basis the first child installed. Every install is exactly
    /// one of `lu_factorizations` / `memo_sibling_hits`, so the two always
    /// sum to installs, and each is a function of the search alone.
    memo_sibling_hits,
    /// Branch-and-bound nodes expanded across all searches, attempts
    /// abandoned by the kit restart included.
    bb_nodes,
    /// Branched children dropped before their LP because one row's
    /// coefficient-wise activity range over the child's box cannot meet
    /// the row (presolve's own infeasibility proof, run on the rows of the
    /// branched column). Each would have been an `Infeasible` LP solve, so
    /// the drop saves exactly that solve and moves no search decision; a
    /// function of the search alone.
    range_pruned,
    /// Integral LP points pushed onto a branch-and-bound frontier, the
    /// root included: open nodes that hold a packed candidate point
    /// instead of a basis and a bound chain. Attempts abandoned by the kit
    /// restart count too; a function of the search alone.
    candidate_nodes,
    /// Models run through [`presolve`](crate::SolverOptions::presolve).
    presolve_runs,
    /// Constraint rows removed as empty, singleton or redundant.
    presolve_rows_removed,
    /// Variables fixed (empty domain interval or duality fixing).
    presolve_cols_fixed,
    /// Variable bounds tightened by singleton rows.
    presolve_bounds_tightened,
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

/// Records one solve's or search's counters into the global collector and,
/// when present, the scoped per-job handle. The indirection is what lets
/// concurrent batch jobs keep separate counters while `reproduce
/// solvers`-style snapshot deltas on the global collector keep working
/// unchanged. Only nonzero counters cost an atomic add, and the scope is
/// read by reference inside a single TLS access, with no per-call `Arc`
/// clone.
pub(crate) fn record(delta: &SolveStats) {
    SolveActivity::global().add(delta);
    SCOPE.with(|s| {
        if let Some(scope) = s.borrow().as_deref() {
            scope.add(delta);
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
    /// A solve runs on the thread that calls it, so it feeds the scope
    /// installed there. Callers that spawn threads of their own (the
    /// compiler's concurrent bisection halves) re-install
    /// [`SolveActivity::current_scope`] on each worker, so a scope installed
    /// around a whole compile captures every solve of it.
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

    /// A delta whose counter `i`, in table order, holds `base + i`: every
    /// counter nonzero and distinct from its neighbours.
    fn distinct(base: u64) -> SolveStats {
        let mut s = SolveStats::default();
        for (i, (_, v)) in s.fields_mut().into_iter().enumerate() {
            *v = base + i as u64;
        }
        s
    }

    /// Every counter of `s` by name, in table order.
    fn fields(mut s: SolveStats) -> Vec<(&'static str, u64)> {
        s.fields_mut().into_iter().map(|(name, v)| (name, *v)).collect()
    }

    fn warm_attempt() -> SolveStats {
        SolveStats { warm_attempts: 1, ..Default::default() }
    }

    #[test]
    fn scoped_handle_sees_only_its_own_records() {
        let job = Arc::new(SolveActivity::default());
        let global_before = SolveActivity::global().snapshot();
        SolveActivity::scoped(&job, || {
            record(&SolveStats {
                lp_solves: 1,
                simplex_iterations: 5,
                phase1_iterations: 2,
                ..Default::default()
            });
            record(&warm_attempt());
        });
        // Recorded outside the scope: global only.
        record(&SolveStats { lp_solves: 1, simplex_iterations: 2, ..Default::default() });
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
            record(&warm_attempt());
            SolveActivity::scoped(&inner, || record(&warm_attempt()));
            // Restored: this lands on `outer` again.
            record(&warm_attempt());
            assert!(SolveActivity::current_scope().is_some());
        });
        assert!(SolveActivity::current_scope().is_none());
        assert_eq!(outer.snapshot().warm_attempts, 2);
        assert_eq!(inner.snapshot().warm_attempts, 1);
    }

    /// Every counter of the table goes through record → snapshot → merged →
    /// since → clear. A record inside a scope feeds both the scoped handle
    /// and the global collector. The global one is shared with the tests
    /// running alongside, so it is checked as a lower bound, and `clear` is
    /// checked on the handle, which runs the same generated code.
    #[test]
    fn activity_counters_round_trip() {
        let job = Arc::new(SolveActivity::default());
        let (first, second) = (distinct(1), distinct(100));
        let global_before = SolveActivity::global().snapshot();
        SolveActivity::scoped(&job, || {
            record(&first);
            record(&second);
        });
        let global = SolveActivity::global().snapshot().since(&global_before);
        let both = fields(job.snapshot());
        for (i, (name, v)) in both.iter().enumerate() {
            let i = i as u64;
            assert_eq!(*v, (1 + i) + (100 + i), "{name}: scoped record → snapshot");
        }
        for ((name, g), (_, v)) in fields(global).into_iter().zip(&both) {
            assert!(g >= *v, "{name}: global record → snapshot ({g} < {v})");
        }
        assert_eq!(job.snapshot(), first.merged(&second), "snapshot = merged deltas");
        assert_eq!(job.snapshot().since(&first), second, "snapshot − first = second");
        let (hits, attempts) =
            (first.warm_hits + second.warm_hits, first.warm_attempts + second.warm_attempts);
        assert!((job.snapshot().warm_hit_rate() - hits as f64 / attempts as f64).abs() < 1e-12);
        job.clear();
        for (name, v) in fields(job.snapshot()) {
            assert_eq!(v, 0, "{name}: clear");
        }
        // An empty delta records nothing.
        SolveActivity::scoped(&job, || record(&SolveStats::default()));
        assert_eq!(job.snapshot(), SolveStats::default());
        // A warm attempt that hits reads as a rate of 1.
        SolveActivity::scoped(&job, || record(&SolveStats { warm_hits: 1, ..warm_attempt() }));
        assert!((job.snapshot().warm_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lu_counters_merge_and_subtract() {
        let (a, b) = (distinct(50), distinct(7));
        let (m, d, back) = (fields(a.merged(&b)), fields(a.since(&b)), fields(b.since(&a)));
        for (i, (name, _)) in fields(a).into_iter().enumerate() {
            assert_eq!(m[i].1, 57 + 2 * i as u64, "{name}: merged");
            assert_eq!(d[i].1, 43, "{name}: since");
            assert_eq!(back[i].1, 0, "{name}: since saturates");
        }
        assert_eq!(a.merged(&b).since(&b), a, "since undoes merged");
    }
}
