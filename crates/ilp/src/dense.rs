//! The dense-tableau simplex: the test build's oracle for the sparse
//! revised engine, and the differential tests that read it.
//!
//! This is the original implementation. It lays the prepared CSC matrix
//! out densely, maintains the full `B⁻¹A` tableau explicitly, refactorizes
//! a basis by Gauss-Jordan elimination and updates every row on every
//! pivot. All decision rules (pricing, ratio test, tie-breaks, the
//! degenerate-pivot Bland guard) are shared with
//! [`revised`](crate::revised) through the constants and helpers in
//! [`simplex`](crate::simplex), so a kit-off sparse solve replays this
//! one: the same pivot rows, bit-identical basic values, the same
//! branch-and-bound node tree. It has no fast path — devex pricing,
//! Forrest–Tomlin eta replacement and the dual-simplex warm re-solve live
//! only in the sparse engine.
//!
//! [`oracle`] routes every LP a closure solves on its thread here, search
//! included; [`Way`] names the three arithmetics the tests compare.

use std::cell::Cell;

use crate::cancel::CancellationToken;
use crate::simplex::{
    cold_statuses_for, Basis, CancelProbe, ColStatus, EngineCore, LpOutcome, PreparedLp,
    RunOutcome, Step, DEGEN_BLAND_AFTER, PRICE_BAND, TOL,
};
use crate::sparse::SparseLp;

thread_local! {
    /// Set while [`oracle`] runs on this thread.
    static ORACLE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with every LP solve on this thread answered by the dense
/// tableau instead of the sparse engine; the kit flag is then moot.
pub(crate) fn oracle<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            ORACLE.set(self.0);
        }
    }
    let _restore = Restore(ORACLE.replace(true));
    f()
}

/// An [`oracle`] call is running on this thread.
pub(crate) fn in_oracle() -> bool {
    ORACLE.get()
}

/// The three LP arithmetics the differential tests compare: the sparse
/// engine with the kit off and on, and the dense oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Way {
    KitOff,
    KitOn,
    Oracle,
}

impl Way {
    pub(crate) const ALL: [Way; 3] = [Way::KitOff, Way::KitOn, Way::Oracle];

    /// Runs `f` this way, handing it the kit flag to pass on.
    pub(crate) fn run<T>(self, f: impl FnOnce(bool) -> T) -> T {
        match self {
            Way::KitOff => f(false),
            Way::KitOn => f(true),
            Way::Oracle => oracle(|| f(false)),
        }
    }

    /// [`PreparedLp::solve_node`] this way.
    pub(crate) fn solve(
        self,
        prep: &PreparedLp,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
    ) -> LpOutcome {
        self.run(|kit| prep.solve_node(lower, upper, warm, kit))
    }
}

pub(crate) struct Tableau {
    m: usize,
    /// Total columns: `n_struct` structural + `m` logical.
    n: usize,
    n_struct: usize,
    /// Row-major `(m + 1) × n`; row `m` is the working reduced-cost row.
    coef: Vec<f64>,
    /// `B⁻¹ b`, maintained through pivots.
    b: Vec<f64>,
    /// Per-column bounds (structural from the caller, logical from the row
    /// operator: `<=` → `[0, ∞)`, `>=` → `(-∞, 0]`, `==` → `[0, 0]`).
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Phase-2 objective per column, in minimize direction.
    cost: Vec<f64>,
    /// Column basic in each row.
    basis: Vec<usize>,
    status: Vec<ColStatus>,
    /// Current value of every column (basic and nonbasic).
    x: Vec<f64>,
    /// Consecutive degenerate pivots (anti-cycling guard state).
    degen_streak: u32,
    phase1_iters: u64,
    phase2_iters: u64,
    cancel: CancelProbe,
}

impl Tableau {
    /// The column basic in each row.
    pub(crate) fn basis(&self) -> &[usize] {
        &self.basis
    }

    /// The tableau of the prepared matrix `sp` under the structural bounds
    /// `lower`/`upper`. A cell is `0 +` its CSC value (its scaled
    /// coefficients summed in row order), as adding them one by one gives.
    pub(crate) fn build(sp: &SparseLp, lower: &[f64], upper: &[f64]) -> Tableau {
        let (m, n, n_struct) = (sp.m, sp.n, sp.n_struct);
        let mut coef = vec![0.0; (m + 1) * n];
        for j in 0..n {
            let (rows, vals) = sp.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                coef[i as usize * n + j] += v;
            }
        }
        let lo = [lower, &sp.logical_lower].concat();
        let hi = [upper, &sp.logical_upper].concat();
        let (b, cost) = (sp.b.clone(), sp.cost.clone());

        Tableau {
            m,
            n,
            n_struct,
            coef,
            b,
            lower: lo,
            upper: hi,
            cost,
            basis: vec![usize::MAX; m],
            status: vec![ColStatus::Free; n],
            x: vec![0.0; n],
            degen_streak: 0,
            phase1_iters: 0,
            phase2_iters: 0,
            cancel: CancelProbe::default(),
        }
    }

    /// Pivot row operations: normalizes row `r` on `col` and eliminates
    /// `col` from every other row including the working cost row and `b`.
    fn eliminate(&mut self, r: usize, col: usize) {
        let n = self.n;
        let inv = 1.0 / self.coef[r * n + col];
        for j in 0..n {
            self.coef[r * n + j] *= inv;
        }
        self.coef[r * n + col] = 1.0;
        self.b[r] *= inv;
        for i in 0..=self.m {
            if i == r {
                continue;
            }
            let f = self.coef[i * n + col];
            if f.abs() <= TOL.pivot {
                continue;
            }
            for j in 0..n {
                let pr = self.coef[r * n + j];
                self.coef[i * n + j] -= f * pr;
            }
            self.coef[i * n + col] = 0.0;
            if i < self.m {
                self.b[i] -= f * self.b[r];
            }
        }
    }

    /// Composite phase 1: minimizes the total bound violation of the basic
    /// variables. A warm start whose point is still primal feasible exits
    /// immediately; otherwise the piecewise-linear (convex) infeasibility
    /// is driven to its global minimum, which is zero exactly when the box
    /// is feasible.
    fn phase1(&mut self) -> RunOutcome {
        let bland_after = (20 * (self.m + self.n) + 1_000) as u64;
        let cap = 200 * (self.m + self.n) as u64 + 50_000;
        let base = self.m * self.n;
        loop {
            if self.cancel.tripped() {
                return RunOutcome::Cancelled;
            }
            // Classify infeasible basics and rebuild the gradient row:
            // d_j = Σ_{i: x_i < l_i} α_ij − Σ_{i: x_i > u_i} α_ij.
            let mut infeas = 0.0f64;
            for j in 0..self.n {
                self.coef[base + j] = 0.0;
            }
            for i in 0..self.m {
                let k = self.basis[i];
                let xv = self.x[k];
                if xv < self.lower[k] - TOL.feas {
                    infeas += self.lower[k] - xv;
                    for j in 0..self.n {
                        let a = self.coef[i * self.n + j];
                        self.coef[base + j] += a;
                    }
                } else if xv > self.upper[k] + TOL.feas {
                    infeas += xv - self.upper[k];
                    for j in 0..self.n {
                        let a = self.coef[i * self.n + j];
                        self.coef[base + j] -= a;
                    }
                }
            }
            if infeas <= TOL.feas {
                return RunOutcome::Optimal; // primal feasible
            }

            let bland = self.phase1_iters > bland_after || self.degen_streak >= DEGEN_BLAND_AFTER;
            let Some((enter, dir)) = self.choose_entering(bland) else {
                // Converged at the global minimum of the (convex)
                // infeasibility; nonzero means the LP has no feasible point.
                return if infeas > TOL.infeasible {
                    RunOutcome::Infeasible
                } else {
                    RunOutcome::Optimal
                };
            };
            self.phase1_iters += 1;
            if self.phase1_iters > cap {
                return RunOutcome::Stalled;
            }
            match self.ratio_test(enter, dir, true, bland) {
                // A descent direction of a function bounded below by zero
                // always blocks; anything else is numerical trouble.
                Step::Unbounded => return RunOutcome::Stalled,
                step => self.apply(enter, dir, step),
            }
        }
    }

    fn phase2(&mut self) -> RunOutcome {
        self.price_phase2();
        let bland_after = (20 * (self.m + self.n) + 1_000) as u64;
        // Stalling out of phase 2 discards a point phase 1 already proved
        // feasible (a warm solve retries cold; a cold solve degrades to
        // `Infeasible`), so this cap is a pure anti-livelock backstop set
        // orders of magnitude above what Bland's rule needs to terminate —
        // it must only ever fire on floating-point cycling.
        let cap = 10_000 * (self.m + self.n) as u64 + 1_000_000;
        loop {
            if self.cancel.tripped() {
                return RunOutcome::Cancelled;
            }
            let bland = self.phase2_iters > bland_after || self.degen_streak >= DEGEN_BLAND_AFTER;
            let Some((enter, dir)) = self.choose_entering(bland) else {
                return RunOutcome::Optimal;
            };
            self.phase2_iters += 1;
            if self.phase2_iters > cap {
                return RunOutcome::Stalled;
            }
            match self.ratio_test(enter, dir, false, bland) {
                Step::Unbounded => return RunOutcome::Unbounded,
                step => self.apply(enter, dir, step),
            }
        }
    }

    /// Zeroes the reduced costs of basic columns by subtracting multiples
    /// of their rows from the cost row.
    fn price_phase2(&mut self) {
        let base = self.m * self.n;
        for j in 0..self.n {
            self.coef[base + j] = self.cost[j];
        }
        for i in 0..self.m {
            let cb = self.coef[base + self.basis[i]];
            if cb.abs() > TOL.pivot {
                for j in 0..self.n {
                    let a = self.coef[i * self.n + j];
                    self.coef[base + j] -= cb * a;
                }
            }
        }
    }

    /// Picks the entering column and direction from the working cost row:
    /// a column at its lower bound (or free) enters increasing when its
    /// reduced cost is negative, one at its upper bound (or free) enters
    /// decreasing when positive. Dantzig pricing, Bland fallback.
    fn choose_entering(&self, bland: bool) -> Option<(usize, f64)> {
        let base = self.m * self.n;
        let mut best: Option<(usize, f64)> = None;
        let mut best_score = TOL.dual;
        for j in 0..self.n {
            if self.status[j] == ColStatus::Basic {
                continue;
            }
            // A column pinned by equal bounds can never move.
            if self.upper[j] - self.lower[j] <= TOL.pivot {
                continue;
            }
            let d = self.coef[base + j];
            let can_up = matches!(self.status[j], ColStatus::AtLower | ColStatus::Free);
            let can_down = matches!(self.status[j], ColStatus::AtUpper | ColStatus::Free);
            if bland {
                if can_up && d < -TOL.dual {
                    return Some((j, 1.0));
                }
                if can_down && d > TOL.dual {
                    return Some((j, -1.0));
                }
            } else {
                // Banded argmax (see PRICE_BAND): only a clearly better
                // score displaces the incumbent, so near-equal candidates
                // resolve to the lowest index in both engines.
                if can_up && -d > best_score + PRICE_BAND * best_score {
                    best_score = -d;
                    best = Some((j, 1.0));
                }
                if can_down && d > best_score + PRICE_BAND * best_score {
                    best_score = d;
                    best = Some((j, -1.0));
                }
            }
        }
        best
    }

    /// Bounded-variable ratio test. The entering column moves by `delta`
    /// in direction `dir`; blocking candidates are every basic variable's
    /// nearer bound *and the entering column's own opposite bound* (a bound
    /// flip — the move that replaces the old explicit upper-bound rows).
    /// In phase 1, a basic variable that is currently outside its box
    /// blocks at the violated bound it is travelling towards (the kink of
    /// the piecewise-linear infeasibility).
    fn ratio_test(&self, enter: usize, dir: f64, phase1: bool, bland: bool) -> Step {
        let n = self.n;
        let own_span = self.upper[enter] - self.lower[enter];
        let mut best_delta = if own_span.is_finite() { own_span } else { f64::INFINITY };
        let mut best_row = usize::MAX;
        let mut best_pivot = 0.0f64;
        for i in 0..self.m {
            let alpha = self.coef[i * n + enter];
            if alpha.abs() <= TOL.pivot {
                continue;
            }
            let k = self.basis[i];
            let xv = self.x[k];
            let rate = -dir * alpha; // d x_k / d delta
            let dist = if phase1 && xv < self.lower[k] - TOL.feas {
                if rate > 0.0 {
                    self.lower[k] - xv
                } else {
                    continue; // moving further out: charged by the gradient
                }
            } else if phase1 && xv > self.upper[k] + TOL.feas {
                if rate < 0.0 {
                    xv - self.upper[k]
                } else {
                    continue;
                }
            } else if rate > 0.0 {
                if self.upper[k].is_finite() {
                    (self.upper[k] - xv).max(0.0)
                } else {
                    continue;
                }
            } else if self.lower[k].is_finite() {
                (xv - self.lower[k]).max(0.0)
            } else {
                continue;
            };
            let delta = dist / rate.abs();
            let replace = if delta < best_delta - TOL.pivot {
                true
            } else if best_row != usize::MAX && delta <= best_delta + TOL.pivot {
                // Tie: Bland picks the smallest basis column (anti-cycling),
                // Dantzig mode prefers the larger pivot (stability).
                if bland {
                    self.basis[i] < self.basis[best_row]
                } else {
                    alpha.abs() > best_pivot
                }
            } else {
                false
            };
            if replace {
                best_delta = delta.min(best_delta);
                best_row = i;
                best_pivot = alpha.abs();
            }
        }
        if best_row == usize::MAX {
            if best_delta.is_finite() {
                Step::Flip { delta: best_delta }
            } else {
                Step::Unbounded
            }
        } else {
            Step::Pivot { row: best_row, delta: best_delta.max(0.0) }
        }
    }

    fn apply(&mut self, enter: usize, dir: f64, step: Step) {
        self.degen_streak = if step.is_degenerate() { self.degen_streak + 1 } else { 0 };
        let (delta, pivot_row) = match step {
            Step::Flip { delta } => (delta, None),
            Step::Pivot { row, delta } => (delta, Some(row)),
            Step::Unbounded => unreachable!("apply is never called on an unbounded step"),
        };
        if delta != 0.0 {
            for i in 0..self.m {
                let alpha = self.coef[i * self.n + enter];
                if alpha.abs() > TOL.pivot {
                    let k = self.basis[i];
                    self.x[k] -= dir * alpha * delta;
                }
            }
            self.x[enter] += dir * delta;
        }
        match pivot_row {
            None => {
                // Bound flip: snap to the opposite bound exactly.
                self.status[enter] = match self.status[enter] {
                    ColStatus::AtLower => ColStatus::AtUpper,
                    ColStatus::AtUpper => ColStatus::AtLower,
                    other => other, // free columns have no finite span
                };
                self.x[enter] = match self.status[enter] {
                    ColStatus::AtLower => self.lower[enter],
                    ColStatus::AtUpper => self.upper[enter],
                    _ => self.x[enter],
                };
            }
            Some(r) => {
                let k = self.basis[r];
                // The leaving variable snaps to whichever finite bound it
                // blocked at (kills accumulated roundoff drift).
                let (lo_fin, hi_fin) = (self.lower[k].is_finite(), self.upper[k].is_finite());
                let to_lower = match (lo_fin, hi_fin) {
                    (true, true) => {
                        (self.x[k] - self.lower[k]).abs() <= (self.x[k] - self.upper[k]).abs()
                    }
                    (true, false) => true,
                    (false, true) => false,
                    (false, false) => {
                        // A free basic variable never blocks; defensive only.
                        self.status[k] = ColStatus::Free;
                        self.basis[r] = enter;
                        self.status[enter] = ColStatus::Basic;
                        self.eliminate(r, enter);
                        return;
                    }
                };
                if to_lower {
                    self.status[k] = ColStatus::AtLower;
                    self.x[k] = self.lower[k];
                } else {
                    self.status[k] = ColStatus::AtUpper;
                    self.x[k] = self.upper[k];
                }
                self.basis[r] = enter;
                self.status[enter] = ColStatus::Basic;
                self.eliminate(r, enter);
            }
        }
    }
}

impl EngineCore for Tableau {
    fn cold_statuses(&self) -> Vec<ColStatus> {
        cold_statuses_for(&self.lower, &self.upper, self.n_struct, self.m)
    }

    /// Refactorizes the tableau around `statuses`' basic set (Gauss-Jordan
    /// with partial pivoting, deterministic), adopts the nonbasic statuses
    /// clamped to the *current* bounds, and recomputes the basic values.
    /// Returns `false` when the set is not a valid basis for this matrix.
    fn install(&mut self, statuses: &[ColStatus]) -> bool {
        if statuses.len() != self.n {
            return false;
        }
        let mut used = vec![false; self.m];
        let mut n_basic = 0usize;
        for j in 0..self.n {
            if statuses[j] != ColStatus::Basic {
                continue;
            }
            n_basic += 1;
            if n_basic > self.m {
                return false;
            }
            let mut best_r = usize::MAX;
            let mut best_a = TOL.refactor;
            for (r, r_used) in used.iter().enumerate() {
                if *r_used {
                    continue;
                }
                let a = self.coef[r * self.n + j].abs();
                if a > best_a {
                    best_a = a;
                    best_r = r;
                }
            }
            if best_r == usize::MAX {
                return false; // singular basis
            }
            used[best_r] = true;
            self.basis[best_r] = j;
            self.eliminate(best_r, j);
        }
        if n_basic != self.m {
            return false;
        }

        // Adopt nonbasic statuses; a status whose bound went infinite (only
        // possible for a foreign basis) degrades to the nearest valid one.
        self.status.copy_from_slice(statuses);
        for j in 0..self.n {
            match self.status[j] {
                ColStatus::Basic => continue,
                ColStatus::AtLower if !self.lower[j].is_finite() => {
                    self.status[j] = if self.upper[j].is_finite() {
                        ColStatus::AtUpper
                    } else {
                        ColStatus::Free
                    };
                }
                ColStatus::AtUpper if !self.upper[j].is_finite() => {
                    self.status[j] = if self.lower[j].is_finite() {
                        ColStatus::AtLower
                    } else {
                        ColStatus::Free
                    };
                }
                _ => {}
            }
            self.x[j] = match self.status[j] {
                ColStatus::AtLower => self.lower[j],
                ColStatus::AtUpper => self.upper[j],
                _ => 0.0,
            };
        }

        // Basic values: x_B = B⁻¹b − Σ_{nonbasic j} (B⁻¹A)_j · x_j.
        let mut vals = self.b.clone();
        for j in 0..self.n {
            if self.status[j] == ColStatus::Basic {
                continue;
            }
            let xj = self.x[j];
            if xj == 0.0 {
                continue;
            }
            for (i, v) in vals.iter_mut().enumerate() {
                *v -= self.coef[i * self.n + j] * xj;
            }
        }
        for i in 0..self.m {
            self.x[self.basis[i]] = vals[i];
        }
        true
    }

    fn set_cancel(&mut self, cancel: CancellationToken) {
        self.cancel.arm(Some(cancel));
    }

    fn run(&mut self) -> RunOutcome {
        match self.phase1() {
            RunOutcome::Optimal => {}
            other => return other,
        }
        self.phase2()
    }

    fn iters(&self) -> (u64, u64) {
        (self.phase1_iters, self.phase2_iters)
    }

    fn solution(&self) -> (&[f64], &[ColStatus]) {
        (&self.x, &self.status)
    }
}

mod tests {
    use super::*;
    use crate::solver::search_only;
    use crate::{
        certify, IlpError, LinExpr, Model, Sense, SolveActivity, SolveStats, SolverConfig,
    };
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Random rows: coefficients, right-hand side, and `≤` (else `≥`).
    type RandomRows = Vec<(Vec<i32>, i32, bool)>;

    /// A random bounded model: `nb` binaries plus box-bounded continuous
    /// variables, a handful of random ≤/≥ rows, and a dense objective. Every
    /// variable carries finite bounds, so no solve can be unbounded — the
    /// only legal statuses are optimal and infeasible.
    fn random_model(
        obj: &[i32],
        rows: &[(Vec<i32>, i32, bool)],
        nb: usize,
        maximize: bool,
    ) -> Model {
        let mut m = Model::new("oracle-diff");
        let vars: Vec<_> = (0..obj.len())
            .map(|j| if j < nb { m.binary("b") } else { m.continuous("x", -3.0, 7.0) })
            .collect();
        for (coeffs, rhs, is_le) in rows {
            let expr =
                LinExpr::sum(vars.iter().zip(coeffs).map(|(&v, &c)| LinExpr::term(v, c as f64)));
            if *is_le {
                m.add_le("r", expr, *rhs as f64);
            } else {
                m.add_ge("r", expr, *rhs as f64);
            }
        }
        let objective =
            LinExpr::sum(vars.iter().zip(obj).map(|(&v, &c)| LinExpr::term(v, c as f64)));
        m.set_objective(if maximize { Sense::Maximize } else { Sense::Minimize }, objective);
        m
    }

    /// The proptest strategy of [`random_model`]'s inputs with `n_max - 1`
    /// columns at most.
    fn model_inputs(
        n_max: usize,
        rows_max: usize,
    ) -> impl Strategy<Value = (Vec<i32>, RandomRows, bool)> {
        (
            prop::collection::vec(-9i32..10, 2..n_max),
            prop::collection::vec(
                (prop::collection::vec(-5i32..6, n_max..n_max + 1), -10i32..20, any::<bool>()),
                1..rows_max,
            ),
            any::<bool>(),
        )
            .prop_map(|(obj, rows, maximize)| {
                let n = obj.len();
                let rows =
                    rows.into_iter().map(|(c, rhs, le)| (c[..n].to_vec(), rhs, le)).collect();
                (obj, rows, maximize)
            })
    }

    type Verdict = Result<f64, &'static str>;

    /// An LP outcome as a comparable verdict: `Ok(objective)` or
    /// `Err("infeasible")`.
    fn lp_verdict(out: LpOutcome) -> Verdict {
        match out {
            LpOutcome::Optimal { objective, .. } => Ok(objective),
            LpOutcome::Infeasible => Err("infeasible"),
            other => panic!("a bounded LP solved to {other:?}"),
        }
    }

    /// A model solve as a comparable verdict, its answer certified first.
    /// Any error but infeasibility fails the test.
    fn verdict(model: &Model, solved: Result<crate::Solution, IlpError>) -> Verdict {
        match solved {
            Ok(sol) => {
                certify(model, &SolverConfig::default(), &sol).expect("certified answer");
                Ok(sol.objective)
            }
            Err(IlpError::Infeasible) => Err("infeasible"),
            Err(other) => panic!("unexpected solver error: {other:?}"),
        }
    }

    /// Same status, and the same objective to 1e-6 when optimal.
    fn agree(a: &Verdict, b: &Verdict) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => (a - b).abs() <= 1e-6,
            (Err(_), Err(_)) => true,
            _ => false,
        }
    }

    /// The optimum of a [`random_model`] by exhaustive enumeration over its
    /// `nb` binaries, each fixing's LP solved by the oracle.
    fn enumerated(model: &Model, nb: usize) -> Verdict {
        let lp = model.to_lp();
        let prep = PreparedLp::new(&lp);
        let mut best: Option<f64> = None;
        for fixing in 0..1u32 << nb {
            let (mut lower, mut upper) = (lp.lower.clone(), lp.upper.clone());
            for j in 0..nb {
                (lower[j], upper[j]) = (f64::from(fixing >> j & 1), f64::from(fixing >> j & 1));
            }
            if let Ok(obj) = lp_verdict(Way::Oracle.solve(&prep, &lower, &upper, None)) {
                let better = |b: f64| if lp.minimize { obj < b } else { obj > b };
                if best.is_none_or(better) {
                    best = Some(obj);
                }
            }
        }
        best.ok_or("infeasible")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The default solve, and the same search with every LP on the
        /// oracle, return the enumerated optimum under every combination
        /// of presolve and node-LP warm starting.
        #[test]
        fn engines_agree_on_random_bounded_models(
            (obj, rows, maximize) in model_inputs(7, 5),
            nb in 0usize..4,
        ) {
            let nb = nb.min(obj.len());
            let model = random_model(&obj, &rows, nb, maximize);
            let want = enumerated(&model, nb);
            for on_oracle in [false, true] {
                for presolve in [true, false] {
                    for warm_lp in [true, false] {
                        let options = crate::SolverOptions { presolve, warm_lp, ..search_only() };
                        let solve = || model.solve_with_options(&SolverConfig::default(), &options);
                        let got = verdict(&model, if on_oracle { oracle(solve) } else { solve() });
                        prop_assert!(
                            agree(&want, &got),
                            "enumerated {want:?} vs {got:?} (oracle={on_oracle} \
                             presolve={presolve} warm={warm_lp})"
                        );
                    }
                }
            }
        }

        /// A search with the kit off and one with the kit on from its root
        /// return the enumerated optimum under every combination of
        /// presolve and node-LP warm starting.
        #[test]
        fn parities_agree_on_random_bounded_models(
            (obj, rows, maximize) in model_inputs(7, 5),
            nb in 1usize..4,
        ) {
            let nb = nb.min(obj.len());
            let model = random_model(&obj, &rows, nb, maximize);
            let want = enumerated(&model, nb);
            for kit in [false, true] {
                for presolve in [true, false] {
                    for warm_lp in [true, false] {
                        let options = crate::SolverOptions { presolve, warm_lp, ..search_only() };
                        let config = SolverConfig::default();
                        let solved = crate::parallel::attempt(&model, &config, &options, kit)
                            .map(|sol| sol.expect("a tree of at most 15 nodes never restarts"));
                        let got = verdict(&model, solved);
                        prop_assert!(
                            agree(&want, &got),
                            "enumerated {want:?} vs {got:?} (kit={kit} presolve={presolve} \
                             warm={warm_lp})"
                        );
                    }
                }
            }
        }

        /// Pure LPs, cold, all three ways — and through the public pure-LP
        /// path, which runs the kit and certifies its answer.
        #[test]
        fn parities_agree_on_pure_lps((obj, rows, maximize) in model_inputs(6, 4)) {
            let model = random_model(&obj, &rows, 0, maximize);
            let lp = model.to_lp();
            let prep = PreparedLp::new(&lp);
            let want = lp_verdict(Way::Oracle.solve(&prep, &lp.lower, &lp.upper, None));
            for way in [Way::KitOff, Way::KitOn] {
                let got = lp_verdict(way.solve(&prep, &lp.lower, &lp.upper, None));
                prop_assert!(agree(&want, &got), "oracle {want:?} vs {way:?} {got:?}");
            }
            let public = verdict(&model, model.solve_with_options(&SolverConfig::default(), &search_only()));
            prop_assert!(agree(&want, &public), "oracle {want:?} vs the public path {public:?}");
        }

        /// Pure LPs re-solved warm from each way's own optimal basis after
        /// a branch-like tightening of one column: all three ways land on
        /// the oracle's cold verdict for the tightened box.
        #[test]
        fn engines_agree_on_pure_lps((obj, rows, maximize) in model_inputs(6, 4)) {
            let model = random_model(&obj, &rows, 0, maximize);
            let lp = model.to_lp();
            let prep = PreparedLp::new(&lp);
            let mut upper = lp.upper.clone();
            upper[0] = 2.0;
            let want = lp_verdict(Way::Oracle.solve(&prep, &lp.lower, &upper, None));
            for way in Way::ALL {
                let LpOutcome::Optimal { basis, .. } = way.solve(&prep, &lp.lower, &lp.upper, None)
                else {
                    continue;
                };
                let got = lp_verdict(way.solve(&prep, &lp.lower, &upper, Some(&basis)));
                prop_assert!(agree(&want, &got), "oracle {want:?} vs warm {way:?} {got:?}");
            }
        }
    }

    /// A kit-off search replays the oracle's: on random knapsack-like
    /// models the sparse engine and the oracle expand the same nodes with
    /// the same LP solves and pivots, and return the same objective.
    #[test]
    fn kit_off_search_matches_the_dense_oracle_node_for_node() {
        let mut state = 0x6a09_e667_f3bc_c909u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as i32
        };
        let config = SolverConfig::default();
        let mut branched = 0;
        for case in 0..120 {
            let n = 5 + next(5) as usize;
            let obj: Vec<i32> = (0..n).map(|_| 1 + next(9)).collect();
            let rows: Vec<_> = (0..1 + next(4))
                .map(|_| {
                    let coeffs: Vec<i32> = (0..n).map(|_| next(8) - 1).collect();
                    let rhs = coeffs.iter().filter(|&&c| c > 0).sum::<i32>() / 2 + next(3);
                    (coeffs, rhs, true)
                })
                .collect();
            let model = random_model(&obj, &rows, n - next(2) as usize, true);
            let counted = |on_oracle: bool| {
                let scope = Arc::new(SolveActivity::default());
                let search = || crate::parallel::attempt(&model, &config, &search_only(), false);
                let out = SolveActivity::scoped(&scope, || {
                    if on_oracle {
                        oracle(search)
                    } else {
                        search()
                    }
                });
                let work = |s: SolveStats| (s.lp_solves, s.bb_nodes, s.simplex_iterations);
                (out.map(|sol| sol.map(|s| s.objective.to_bits())), work(scope.snapshot()))
            };
            let sparse = counted(false);
            assert_eq!(sparse, counted(true), "case {case}: (answer, (LP solves, nodes, pivots))");
            branched += usize::from(sparse.1 .1 > 1);
        }
        assert!(branched > 60, "{branched} of 120 searches branched");
    }
}
