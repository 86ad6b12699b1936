//! The dense-tableau simplex engine ([`LpEngine::Dense`](crate::LpEngine::Dense)).
//!
//! This is the original implementation, kept as the differential-testing
//! oracle for the sparse revised engine: it lays the prepared CSC matrix
//! out densely, maintains the full `B⁻¹A` tableau explicitly, refactorizes
//! a basis by Gauss-Jordan elimination and updates every row on every
//! pivot. All decision rules
//! (pricing, ratio test, tie-breaks, the degenerate-pivot Bland guard) are
//! shared with [`revised`](crate::revised) through the constants and
//! helpers in [`simplex`](crate::simplex).
//!
//! The [`LpParity`](crate::LpParity) switch does not reach this engine: the
//! dense tableau *is* the exact reference that
//! [`LpParity::Exact`](crate::LpParity::Exact) replays, so it has no fast path — devex pricing, Forrest–Tomlin eta
//! replacement and the dual-simplex warm re-solve live only in the sparse
//! engine.

use crate::cancel::CancellationToken;
use crate::simplex::{
    cold_statuses_for, CancelProbe, ColStatus, EngineCore, RunOutcome, Step, DEGEN_BLAND_AFTER,
    PRICE_BAND, TOL,
};
use crate::sparse::SparseLp;

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
