//! Sparse revised simplex with product-form basis updates (the default
//! engine).
//!
//! Instead of maintaining the full `B⁻¹A` tableau, each solve keeps the
//! basis as an *eta file*: a sequence of elementary Gauss-Jordan operators
//! such that applying them in order (FTRAN) computes `B⁻¹v` and applying
//! them transposed in reverse (BTRAN) computes `B⁻ᵀv`. Installing a basis
//! factorizes it by sparse elimination with partial pivoting, and every
//! simplex pivot appends one more eta. Kit-off solves (a search's root
//! and its first attempt, up to the kit-restart point) process the basic
//! columns in ascending index exactly like the test-only dense oracle's
//! Gauss-Jordan, so both claim the same pivot rows. Kit-on solves, which
//! no longer replay the oracle, eliminate the basic logicals first: each
//! claims its own row for free, and the factor keeps at most one eta per
//! basic structural. After [`REFACTOR_UPDATES`] update etas the chain is
//! refactorized from scratch (a deterministic trigger, so every run of a
//! search replays identical arithmetic), which also re-snaps the basic
//! values and sheds accumulated drift.
//!
//! The payoff is asymptotic: a branch-and-bound child whose basis is
//! mostly logical columns factorizes in O(nnz of the structural basics)
//! (logical columns claim rows with *empty* etas), prices in O(nnz) per
//! iteration, and never touches an O(m·n) tableau. On the floorplanning
//! workloads this replaces ~8M flops of per-node Gauss-Jordan with a few
//! thousand.
//!
//! On wide LPs the two eta-file passes are most of a solve, and both are
//! written for the machine without changing a bit of their results. FTRAN
//! marks the rows an eta writes in its touched-row bitmap with one OR per
//! bitmap word, precomputed per eta, instead of one per row. BTRAN is a
//! chain of serial dot products: it starts the dots of the two etas below
//! the one it is finishing early, each up to its first term that reads a
//! pivot row still to be written (positions `push_eta` finds once per
//! eta), so up to three add chains overlap while every dot still sums its
//! own terms in its own order.

use crate::cancel::CancellationToken;
use crate::simplex::{
    cold_statuses_for, CancelProbe, ColStatus, EngineCore, RunOutcome, Step, DEGEN_BLAND_AFTER,
    PRICE_BAND, TOL,
};
use crate::sparse::SparseLp;
use crate::stats::SolveStats;

/// Update etas tolerated before a deterministic mid-solve refactorization
/// (kit-off solves, and kit-on solves before the hybrid switch).
///
/// Refactorizing re-snaps the basic values from a fresh factorization, which
/// sheds the drift the dense oracle's tableau keeps accumulating — so any
/// solve that trips this limit stops being decision-for-decision identical
/// to the oracle. Kit off, the limit is therefore a pure
/// anti-pathology backstop, set well above the longest solve in the
/// reproduction workloads (their update chains stay under a few hundred
/// etas); typical branch-and-bound node solves re-install after a handful
/// of pivots and never come close.
pub(crate) const REFACTOR_UPDATES: usize = 1024;

/// Update-eta *fill* (off-pivot nonzeros past the factor prefix) tolerated
/// before a mid-solve refactorization on a kit-off solve. Like
/// [`REFACTOR_UPDATES`] this is an anti-pathology backstop — it exists so a
/// chain of few-but-dense etas (which the update-count trigger never sees)
/// cannot grow FTRAN/BTRAN cost without bound — sized so no bundled
/// workload ever trips it.
pub(crate) const REFACTOR_FILL: usize = 1 << 20;

/// Update etas tolerated by a kit-on solve past the hybrid switch before
/// refactorizing. It is free to re-snap basic values mid-solve, so it
/// refactorizes early and often: a short eta file is what keeps
/// FTRAN/BTRAN per-iteration cost flat over a long solve.
pub(crate) const FAST_REFACTOR_UPDATES: usize = 64;

/// Minimum kit-on update-fill budget; the effective budget is
/// `max(this, 4 × (factor fill + m))`, i.e. refactorize once the update
/// etas carry a few times the factorization's own weight.
pub(crate) const FAST_REFACTOR_FILL_MIN: usize = 1024;

/// Devex reference weight above which the whole framework resets to unit
/// weights (and [`SolveStats::devex_resets`] counts
/// one). Growing weights mean the reference framework has drifted too far
/// from the current basis for the steepest-edge approximation to hold.
const DEVEX_RESET_ABOVE: f64 = 1e8;

/// Iterations (phase 1 + phase 2 pivots, dual-repair pivots included)
/// after which a kit-on solve abandons the banded-Dantzig opening and
/// switches to devex pricing for the rest of the solve.
///
/// The hybrid exists because the two rules win in different regimes: the
/// banded-Dantzig rule reproduces the kit-off vertex trajectory, so the
/// branch-and-bound tree stays the small tree the kit-off search grows —
/// which is everything on apps whose node solves finish in a handful of
/// pivots (pagerank/F4 regressed 3× under always-devex purely through
/// tree growth). Devex only pays on *long* solves, where dividing out the
/// column norm cuts the iteration count several-fold. Counting the solve's
/// own iterations is the cheapest deterministic proxy for "this solve is
/// long": the threshold is a pure function of the node (never of timing),
/// so run-to-run determinism and DSE signature stability are untouched. Crossing it is counted in
/// [`SolveStats::pricing_switches`].
pub(crate) const HYBRID_DEVEX_AFTER: u64 = 48;

/// Number of rotating sections the candidate list is divided into once
/// devex pricing is active: each pricing pass scans one section and only
/// continues into the next when the current one offers no improving
/// column, so a typical iteration prices an eighth of the columns instead
/// of all of them. Optimality is still only declared after a scan covered
/// the whole list without finding a candidate.
const PARTIAL_SECTIONS: usize = 8;

/// Minimum partial-pricing section width; candidate lists at or below
/// this size are scanned full-width (sectioning tiny lists saves nothing
/// and costs cursor bookkeeping).
const PARTIAL_SECTION_MIN: usize = 64;

/// Per-thread reusable solve state. A B&B run performs hundreds of
/// thousands of node solves, each a fresh [`Revised`]; recycling the
/// buffers between them removes the dozen allocations plus zero-fills a
/// solve would otherwise pay.
#[derive(Default)]
struct RevScratch {
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<ColStatus>,
    x: Vec<f64>,
    basis: Vec<usize>,
    eta_pos: Vec<u32>,
    eta_inv: Vec<f64>,
    eta_ptr: Vec<u32>,
    eta_row: Vec<u32>,
    eta_val: Vec<f64>,
    eta_lead: Vec<[u32; 2]>,
    eta_mark_ptr: Vec<u32>,
    eta_marks: Vec<(u32, u64)>,
    w: Vec<f64>,
    touched: Vec<u32>,
    mark: Vec<u64>,
    y: Vec<f64>,
    used: Vec<bool>,
    cands: Vec<u32>,
    rhs: Vec<f64>,
    devex: Vec<f64>,
    dual_d: Vec<f64>,
    dual_alpha: Vec<f64>,
    saved_x: Vec<f64>,
    saved_status: Vec<ColStatus>,
    saved_basis: Vec<usize>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<RevScratch> =
        std::cell::RefCell::new(RevScratch::default());
}

/// Sets row `r`'s bit in a touched-row bitmap.
#[inline]
fn mark_row(mark: &mut [u64], r: u32) {
    mark[(r >> 6) as usize] |= 1 << (r & 63);
}

/// Continues `K` serial dot products with `y` over their next `n` terms
/// each: dot `k` adds `vals[i] · y[rows[i]]` for `i` in
/// `next[k]..next[k] + n`, in order, to `acc[k]`. The `K` add chains are
/// independent, so they overlap.
#[inline(always)]
fn dots<const K: usize>(
    mut acc: [f64; K],
    next: [usize; K],
    n: usize,
    rows: &[u32],
    vals: &[f64],
    y: &[f64],
) -> [f64; K] {
    let rows = next.map(|s| &rows[s..s + n]);
    let vals = next.map(|s| &vals[s..s + n]);
    for i in 0..n {
        for k in 0..K {
            acc[k] += vals[k][i] * y[rows[k][i] as usize];
        }
    }
    acc
}

/// A column with bounds `[lo, hi]` can move, so pricing scans it: its
/// span is not below the pivot tolerance (`span <= pivot` → pinned; an
/// ill-posed NaN span counts as movable).
fn movable(lo: f64, hi: f64) -> bool {
    let pinned = hi - lo <= TOL.pivot;
    !pinned
}

pub(crate) struct Revised<'a> {
    sp: &'a SparseLp,
    /// Per-column bounds: structural from the caller, logical from the row
    /// operators.
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<ColStatus>,
    /// Current value of every column (basic and nonbasic).
    x: Vec<f64>,
    /// Column basic in each row.
    basis: Vec<usize>,
    /// The eta file, pooled: eta `e` pivots on row `eta_pos[e]` with
    /// reciprocal pivot `eta_inv[e]` and off-pivot entries
    /// `eta_row/eta_val[eta_ptr[e]..eta_ptr[e+1]]`. Entries
    /// `0..factor_etas` come from the factorization, the rest are updates.
    /// Each eta's rows are ascending (it is built from `touched`).
    eta_pos: Vec<u32>,
    eta_inv: Vec<f64>,
    eta_ptr: Vec<u32>,
    eta_row: Vec<u32>,
    eta_val: Vec<f64>,
    /// `eta_lead[e][k]`: where in `eta_row` eta `e`'s pivot row appears
    /// among eta `e − 1 − k`'s rows (that eta's end when it does not), i.e.
    /// the end of the terms of that eta's BTRAN dot that read nothing eta
    /// `e` writes (see [`btran`](Self::btran)); `0` when there is no eta
    /// `e − 1 − k`. Set by [`push_eta`](Self::push_eta) once per eta.
    eta_lead: Vec<[u32; 2]>,
    /// Eta `e`'s rows as touched-row bitmap words, `(word, bits)` ascending,
    /// at `eta_marks[eta_mark_ptr[e]..eta_mark_ptr[e + 1]]`: FTRAN marks an
    /// applied eta's rows with one OR per word instead of one per row.
    eta_mark_ptr: Vec<u32>,
    eta_marks: Vec<(u32, u64)>,
    factor_etas: usize,
    /// FTRAN scratch (kept all-zero between uses) and the rows it touched.
    w: Vec<f64>,
    touched: Vec<u32>,
    /// Touched-row bitmap, one bit per row (kept all-zero between uses):
    /// FTRAN marks every row it writes, then gathers `touched` from it.
    mark: Vec<u64>,
    /// BTRAN scratch (the pricing vector `y`).
    y: Vec<f64>,
    /// Row-claimed scratch for the factorization.
    used: Vec<bool>,
    /// Columns the entering scan needs to price: everything not pinned by
    /// (effectively) equal bounds. Bounds are per-solve constants, so this
    /// is built once per solve instead of being re-tested every iteration.
    cands: Vec<u32>,
    /// Basic-value recompute scratch (avoids a per-install allocation).
    rhs: Vec<f64>,
    /// Devex reference weights, one per column (kit-on solves only; empty
    /// kit off). Reset to the unit framework at every basis install.
    devex: Vec<f64>,
    /// Reduced-cost scratch for the dual simplex (kit-on solves only;
    /// empty kit off). Holds `d_j = c_j − y·A_j` per candidate column.
    dual_d: Vec<f64>,
    /// Pivot-row scratch for the dual simplex (kit-on solves only; empty
    /// kit off). Holds `α_j = ρ·A_j` from the current pivot's entering
    /// scan, reused by the rank-one reduced-cost update after the pivot.
    dual_alpha: Vec<f64>,
    /// The point, statuses and row assignment an install computed, kept by
    /// `save_install` for [`restore`](Self::restore).
    saved_x: Vec<f64>,
    saved_status: Vec<ColStatus>,
    saved_basis: Vec<usize>,
    /// The saved install still matches the eta file's factor prefix: set
    /// by `save_install`, cleared by every factorization.
    saved: bool,
    /// The caller permits the fast kit — dual repair, the one-FTRAN
    /// basic-value recompute, the logicals-first factorization order and
    /// the hybrid devex switch, and through `devex_active` everything
    /// hanging off it — on this solve. The branch-and-bound driver clears
    /// it for every solve of a search's first attempt, root included, and
    /// sets it only after that attempt reached its restart point
    /// ([`crate::node::kit_restart_after`]: 384 nodes, fewer on LPs of more
    /// than 128 rows) and the search restarted: on small trees the kit's
    /// different optimal vertices are denser and grow the tree, so a small
    /// search is fastest replaying the oracle's trajectory bit for bit. On
    /// large trees the per-solve savings dominate.
    kit_allowed: bool,
    /// The fast machinery is engaged for this solve (a kit-on solve, after
    /// the hybrid threshold [`HYBRID_DEVEX_AFTER`] trips): devex pricing,
    /// partial pricing, Forrest–Tomlin replacement and the eager
    /// refactorization budgets. Until then the solve prices with the
    /// kit-off rule and the devex weights stay at their unit reference.
    devex_active: bool,
    /// Rotating partial-pricing cursor into `cands` (devex scans only).
    price_cursor: usize,
    degen_streak: u32,
    phase1_iters: u64,
    phase2_iters: u64,
    /// Cooperative cancellation, polled in every pivot loop — including
    /// the kit's dual repair, whose iterations would otherwise run
    /// outside any deadline check.
    cancel: CancelProbe,
    /// Factorization counters, flushed once per solve by the driver. An
    /// install served by [`restore`](Self::restore) instead of a
    /// factorization counts as `memo_sibling_hits`.
    counts: SolveStats,
    /// Eta-file passes spent recomputing basic values in
    /// [`refactorize`](Self::refactorize): one per kit-on install, one plus
    /// one per nonzero nonbasic column in the oracle order.
    xb_ftrans: u64,
}

impl<'a> Revised<'a> {
    pub(crate) fn new(
        sp: &'a SparseLp,
        lower: &[f64],
        upper: &[f64],
        kit_allowed: bool,
    ) -> Revised<'a> {
        let (m, n) = (sp.m, sp.n);
        let mut sc = SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));
        sc.lower.clear();
        sc.lower.extend_from_slice(lower);
        sc.lower.extend_from_slice(&sp.logical_lower);
        sc.upper.clear();
        sc.upper.extend_from_slice(upper);
        sc.upper.extend_from_slice(&sp.logical_upper);
        sc.status.clear();
        sc.status.resize(n, ColStatus::Free);
        sc.x.clear();
        sc.x.resize(n, 0.0);
        sc.basis.clear();
        sc.basis.resize(m, usize::MAX);
        sc.eta_pos.clear();
        sc.eta_inv.clear();
        sc.eta_ptr.clear();
        sc.eta_ptr.push(0);
        sc.eta_row.clear();
        sc.eta_val.clear();
        sc.eta_lead.clear();
        sc.eta_mark_ptr.clear();
        sc.eta_mark_ptr.push(0);
        sc.eta_marks.clear();
        sc.w.clear();
        sc.w.resize(m, 0.0);
        sc.touched.clear();
        sc.mark.clear();
        sc.mark.resize(m.div_ceil(64), 0);
        sc.y.clear();
        sc.y.resize(m, 0.0);
        sc.used.clear();
        sc.used.resize(m, false);
        sc.devex.clear();
        sc.dual_d.clear();
        sc.dual_alpha.clear();
        if kit_allowed {
            sc.devex.resize(n, 1.0);
            sc.dual_d.resize(n, 0.0);
            sc.dual_alpha.resize(n, 0.0);
        }
        sc.cands.clear();
        for j in 0..n {
            if movable(sc.lower[j], sc.upper[j]) {
                sc.cands.push(j as u32);
            }
        }
        Revised {
            sp,
            lower: std::mem::take(&mut sc.lower),
            upper: std::mem::take(&mut sc.upper),
            status: std::mem::take(&mut sc.status),
            x: std::mem::take(&mut sc.x),
            basis: std::mem::take(&mut sc.basis),
            eta_pos: std::mem::take(&mut sc.eta_pos),
            eta_inv: std::mem::take(&mut sc.eta_inv),
            eta_ptr: std::mem::take(&mut sc.eta_ptr),
            eta_row: std::mem::take(&mut sc.eta_row),
            eta_val: std::mem::take(&mut sc.eta_val),
            eta_lead: std::mem::take(&mut sc.eta_lead),
            eta_mark_ptr: std::mem::take(&mut sc.eta_mark_ptr),
            eta_marks: std::mem::take(&mut sc.eta_marks),
            factor_etas: 0,
            w: std::mem::take(&mut sc.w),
            touched: std::mem::take(&mut sc.touched),
            mark: std::mem::take(&mut sc.mark),
            y: std::mem::take(&mut sc.y),
            used: std::mem::take(&mut sc.used),
            cands: std::mem::take(&mut sc.cands),
            rhs: std::mem::take(&mut sc.rhs),
            devex: std::mem::take(&mut sc.devex),
            dual_d: std::mem::take(&mut sc.dual_d),
            dual_alpha: std::mem::take(&mut sc.dual_alpha),
            saved_x: std::mem::take(&mut sc.saved_x),
            saved_status: std::mem::take(&mut sc.saved_status),
            saved_basis: std::mem::take(&mut sc.saved_basis),
            saved: false,
            kit_allowed,
            devex_active: false,
            price_cursor: 0,
            degen_streak: 0,
            phase1_iters: 0,
            phase2_iters: 0,
            cancel: CancelProbe::default(),
            counts: SolveStats::default(),
            xb_ftrans: 0,
        }
    }

    fn n_etas(&self) -> usize {
        self.eta_pos.len()
    }

    /// Applies the eta file to `v` in place: `v ← B⁻¹v`.
    fn ftran_dense(&self, v: &mut [f64]) {
        for e in 0..self.n_etas() {
            let pos = self.eta_pos[e] as usize;
            let wp = v[pos];
            if wp == 0.0 {
                continue;
            }
            let t = wp * self.eta_inv[e];
            v[pos] = t;
            let (s, e) = (self.eta_ptr[e] as usize, self.eta_ptr[e + 1] as usize);
            for (&r, &val) in self.eta_row[s..e].iter().zip(&self.eta_val[s..e]) {
                v[r as usize] -= val * t;
            }
        }
    }

    /// Sparse FTRAN of matrix column `j` into `self.w` (which must be
    /// all-zero on entry): scatters the column, applies the eta file, and
    /// leaves `self.touched` holding every row the transform wrote (a
    /// superset of the nonzeros: a row can cancel to exactly zero) once
    /// each, ascending — the scan order the ratio test and the
    /// factorization's pivot search rely on for dense-oracle-identical
    /// tie-breaking. Each applied eta ORs its precomputed bitmap words
    /// (`eta_marks`) into `self.mark`, one per word its rows span, so the
    /// per-row update loop writes `w` alone; `touched` is gathered from the
    /// set bits: O(m/64) words instead of a sort.
    fn ftran_col(&mut self, j: usize) {
        let (w, mark) = (&mut self.w, &mut self.mark);
        let (rows, vals) = self.sp.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            w[r as usize] = v;
            mark_row(mark, r);
        }
        for e in 0..self.eta_pos.len() {
            let pos = self.eta_pos[e] as usize;
            let wp = w[pos];
            if wp == 0.0 {
                continue;
            }
            let t = wp * self.eta_inv[e];
            w[pos] = t;
            let (ms, me) = (self.eta_mark_ptr[e] as usize, self.eta_mark_ptr[e + 1] as usize);
            for &(word, bits) in &self.eta_marks[ms..me] {
                mark[word as usize] |= bits;
            }
            let (s, e) = (self.eta_ptr[e] as usize, self.eta_ptr[e + 1] as usize);
            for (&r, &val) in self.eta_row[s..e].iter().zip(&self.eta_val[s..e]) {
                w[r as usize] -= val * t;
            }
        }
        self.gather_touched();
    }

    /// Rebuilds `self.touched` from the rows set in `self.mark`, in
    /// ascending order, leaving the bitmap all-zero for the next use.
    fn gather_touched(&mut self) {
        self.touched.clear();
        for (base, word) in (0u32..).step_by(64).zip(self.mark.iter_mut()) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.touched.push(base | bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Zeroes the scratch entries `ftran_col` populated.
    fn clear_w(&mut self) {
        for &r in &self.touched {
            self.w[r as usize] = 0.0;
        }
    }

    /// Applies the transposed eta file in reverse to `self.y`: `y ← B⁻ᵀy`.
    ///
    /// Each eta's dot product is one serial chain of adds, so one eta at a
    /// time runs at the latency of an add per term. The two etas below the
    /// one being finished start their dots early, each up to its first term
    /// that reads the pivot row of an eta above it still unapplied
    /// (`eta_lead`, decided in `push_eta`): up to three chains run side by
    /// side, each in its own accumulator and its own term order. Every dot
    /// sums the terms the one-at-a-time loop sums, in its order, so `y`
    /// comes out bit for bit the same.
    fn btran(&mut self) {
        let y = &mut self.y[..];
        let (rows, vals) = (&self.eta_row[..], &self.eta_val[..]);
        let Some(mut a) = self.eta_pos.len().checked_sub(1) else { return };
        // Eta `a` is being finished, `a − 1` and `a − 2` are started early:
        // each one's dot so far and its next term (`0`, with no room to
        // run, for an eta below the first).
        let start = |e: usize| self.eta_ptr[e] as usize;
        let (mut dot_a, mut next_a) = (0.0, start(a));
        let (mut dot_b, mut next_b) = (0.0, a.checked_sub(1).map_or(0, start));
        let (mut dot_c, mut next_c) = (0.0, a.checked_sub(2).map_or(0, start));
        loop {
            let end_a = start(a + 1);
            if next_a < end_a {
                let [end_b, end_c] = self.eta_lead[a].map(|end| end as usize);
                // Eta `a − 2` waits for the pivot rows of `a` and `a − 1`.
                let end_c = a.checked_sub(1).map_or(0, |b| end_c.min(self.eta_lead[b][0] as usize));
                let n = (end_a - next_a).min(end_b - next_b).min(end_c - next_c);
                if n > 0 {
                    [dot_a, dot_b, dot_c] =
                        dots([dot_a, dot_b, dot_c], [next_a, next_b, next_c], n, rows, vals, y);
                    (next_a, next_b, next_c) = (next_a + n, next_b + n, next_c + n);
                }
                let n = (end_a - next_a).min(end_b - next_b);
                if n > 0 {
                    [dot_a, dot_b] = dots([dot_a, dot_b], [next_a, next_b], n, rows, vals, y);
                    (next_a, next_b) = (next_a + n, next_b + n);
                }
                let n = (end_a - next_a).min(end_c - next_c);
                if n > 0 {
                    [dot_a, dot_c] = dots([dot_a, dot_c], [next_a, next_c], n, rows, vals, y);
                    (next_a, next_c) = (next_a + n, next_c + n);
                }
                [dot_a] = dots([dot_a], [next_a], end_a - next_a, rows, vals, y);
            }
            let pos = self.eta_pos[a] as usize;
            y[pos] = (y[pos] - dot_a) * self.eta_inv[a];
            if a == 0 {
                return;
            }
            a -= 1;
            (dot_a, next_a) = (dot_b, next_b);
            (dot_b, next_b) = (dot_c, next_c);
            (dot_c, next_c) = (0.0, a.checked_sub(2).map_or(0, start));
        }
    }

    /// Appends an eta built from the current `self.w` pivoting on `pos`,
    /// returning its off-pivot nonzero count. Entries at or below the
    /// pivot tolerance are dropped — the same per-row skip the dense
    /// engine's `eliminate` applies. Its rows follow `touched`, ascending:
    /// the same pass folds them into FTRAN's bitmap words (`eta_marks`), and
    /// one binary search in each of the two previous etas finds how much of
    /// it BTRAN may reduce beside this one (`eta_lead`).
    fn push_eta(&mut self, pos: usize) -> u64 {
        let inv = 1.0 / self.w[pos];
        let before = self.eta_row.len();
        // The bitmap word being filled: `(index, bits)`.
        let mut word = (0, 0u64);
        for &rr in &self.touched {
            let r = rr as usize;
            if r == pos {
                continue;
            }
            let v = self.w[r];
            if v.abs() > TOL.pivot {
                self.eta_row.push(rr);
                self.eta_val.push(v);
                if rr >> 6 != word.0 && word.1 != 0 {
                    self.eta_marks.push(word);
                    word.1 = 0;
                }
                word = (rr >> 6, word.1 | 1 << (rr & 63));
            }
        }
        if word.1 != 0 {
            self.eta_marks.push(word);
        }
        let fill = (self.eta_row.len() - before) as u64;
        if fill == 0 && inv == 1.0 {
            // Identity operator (a basic logical column claiming its own
            // untouched row): applying it is a bit-exact no-op in both
            // FTRAN (`w[pos] * 1.0`) and BTRAN (`(y[pos] - 0.0) * 1.0`),
            // so don't store it — every later transform would scan its
            // header for nothing. Mostly-logical warm bases shrink from
            // m etas to one per structural basic.
            return 0;
        }
        let n = self.eta_pos.len();
        let lead = [1, 2].map(|back| {
            n.checked_sub(back).map_or(0, |prev| {
                let (start, end) = (self.eta_ptr[prev], self.eta_ptr[prev + 1]);
                let prev_rows = &self.eta_row[start as usize..end as usize];
                prev_rows.binary_search(&(pos as u32)).map_or(end, |i| start + i as u32)
            })
        });
        self.eta_pos.push(pos as u32);
        self.eta_inv.push(inv);
        self.eta_ptr.push(self.eta_row.len() as u32);
        self.eta_lead.push(lead);
        self.eta_mark_ptr.push(self.eta_marks.len() as u32);
        fill
    }

    /// Factorizes the basic set of `self.status` into a fresh eta file:
    /// basic columns in the solve's elimination order, fixed for its
    /// lifetime by `kit_allowed`, each FTRANed through the
    /// etas built so far, claiming the unclaimed row with the largest
    /// magnitude (ties to the smallest row index, floor `TOL.refactor`).
    /// Kit-off solves eliminate in ascending index — the same order and
    /// pivot choice as the dense oracle's Gauss-Jordan, in sparse form. A
    /// basic *logical* column that reaches its own unclaimed row untouched
    /// claims it with an empty eta, so the all-logical cold basis (and the
    /// mostly-logical bases of warm-started children) factorizes in O(nnz
    /// of the structural basics). Kit-on solves eliminate the basic
    /// logicals first, so *every* one of them claims its own row that way,
    /// and the structurals after them are transformed only by each other:
    /// at most one eta per basic structural, where the oracle order pushes
    /// each late logical through the structural etas that claimed its row
    /// and stores the dense result.
    fn factorize(&mut self) -> bool {
        let m = self.sp.m;
        self.eta_pos.clear();
        self.eta_inv.clear();
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.eta_row.clear();
        self.eta_val.clear();
        self.eta_lead.clear();
        self.eta_mark_ptr.truncate(1);
        self.eta_marks.clear();
        self.factor_etas = 0;
        self.saved = false;
        self.used.fill(false);
        self.counts.lu_factorizations += 1;
        let (n_struct, n) = (self.sp.n_struct, self.sp.n);
        let (first, then) =
            if self.kit_allowed { (n_struct..n, 0..n_struct) } else { (0..n, 0..0) };
        let mut n_basic = 0usize;
        for j in first.chain(then) {
            if self.status[j] != ColStatus::Basic {
                continue;
            }
            n_basic += 1;
            if n_basic > m {
                return false;
            }
            self.ftran_col(j);
            let mut best_r = usize::MAX;
            let mut best_a = TOL.refactor;
            for &rr in &self.touched {
                let r = rr as usize;
                if self.used[r] {
                    continue;
                }
                let a = self.w[r].abs();
                if a > best_a {
                    best_a = a;
                    best_r = r;
                }
            }
            if best_r == usize::MAX {
                self.clear_w();
                return false; // singular basis
            }
            self.used[best_r] = true;
            self.basis[best_r] = j;
            self.counts.lu_fill_nnz += self.push_eta(best_r);
            self.clear_w();
        }
        if n_basic != m {
            return false;
        }
        self.factor_etas = self.n_etas();
        true
    }

    /// Refactorizes the current basis and recomputes the basic values from
    /// the (unchanged) nonbasic point:
    /// `x_B = B⁻¹b − Σ_nonbasic (B⁻¹A_j)·x_j`. Kit-off solves (a search's
    /// root, its first attempt and small trees) run the subtraction over
    /// *transformed* columns in ascending index —
    /// the exact operation order of the dense oracle's install — so the
    /// two engines start a warm solve from bit-identical basic values, at
    /// the price of a full eta-file pass per nonzero nonbasic column.
    /// Kit-on solves compute the mathematically identical
    /// `x_B = B⁻¹(b − Σ_nonbasic A_j·x_j)` instead: subtract the *raw*
    /// sparse columns first, then **one** FTRAN of the residual — O(nnz)
    /// plus a single eta-file pass, at install and at every mid-solve
    /// refactorization alike. Its different roundoff can perturb float
    /// ties and with them the vertex trajectory, which a kit-on search no
    /// longer promises to replay; every choice stays a pure function of
    /// the node, so the search stays deterministic.
    fn refactorize(&mut self) -> bool {
        if !self.factorize() {
            return false;
        }
        let mut rhs = std::mem::take(&mut self.rhs);
        rhs.clear();
        rhs.extend_from_slice(&self.sp.b);
        if self.kit_allowed {
            for j in 0..self.sp.n {
                if self.status[j] == ColStatus::Basic {
                    continue;
                }
                let xj = self.x[j];
                if xj == 0.0 {
                    continue;
                }
                let (rows, vals) = self.sp.col(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    rhs[r as usize] -= v * xj;
                }
            }
            self.ftran_dense(&mut rhs);
            self.xb_ftrans += 1;
        } else {
            self.ftran_dense(&mut rhs);
            self.xb_ftrans += 1;
            for j in 0..self.sp.n {
                if self.status[j] == ColStatus::Basic {
                    continue;
                }
                let xj = self.x[j];
                if xj == 0.0 {
                    continue;
                }
                // Each row's subtraction has its own accumulator, so the
                // row order cannot change a bit of the oracle's sweep.
                self.ftran_col(j);
                self.xb_ftrans += 1;
                for &r in &self.touched {
                    let wv = self.w[r as usize];
                    if wv != 0.0 {
                        rhs[r as usize] -= wv * xj;
                    }
                }
                self.clear_w();
            }
        }
        for i in 0..self.sp.m {
            self.x[self.basis[i]] = rhs[i];
        }
        self.rhs = rhs;
        true
    }

    /// Returns the engine to its saved install with column `j`'s bounds
    /// moved to `[lo, hi]`: the state `Revised::new` plus `install` would
    /// build under those bounds, bit for bit, without the factorization or
    /// the basic-value recompute. This holds because `j` is basic in the
    /// saved basis: an install reads the bounds of nonbasic columns only,
    /// so the only traces `j`'s bounds leave are the bounds themselves and
    /// `j`'s membership in `cands`. The counters restart as a new engine's
    /// would, with the restore counted in `memo_sibling_hits`.
    pub(crate) fn restore(&mut self, j: usize, lo: f64, hi: f64) {
        debug_assert!(self.saved && self.saved_status[j] == ColStatus::Basic);
        self.x.copy_from_slice(&self.saved_x);
        self.status.copy_from_slice(&self.saved_status);
        self.basis.copy_from_slice(&self.saved_basis);
        let fe = self.factor_etas;
        let cut = self.eta_ptr[fe] as usize;
        self.eta_pos.truncate(fe);
        self.eta_inv.truncate(fe);
        self.eta_ptr.truncate(fe + 1);
        self.eta_row.truncate(cut);
        self.eta_val.truncate(cut);
        self.eta_lead.truncate(fe);
        self.eta_mark_ptr.truncate(fe + 1);
        self.eta_marks.truncate(self.eta_mark_ptr[fe] as usize);
        self.devex.fill(1.0);
        self.devex_active = false;
        self.price_cursor = 0;
        self.degen_streak = 0;
        self.phase1_iters = 0;
        self.phase2_iters = 0;
        self.cancel.rewind();
        self.lower[j] = lo;
        self.upper[j] = hi;
        let moves = movable(lo, hi);
        match self.cands.binary_search(&(j as u32)) {
            Ok(at) if !moves => {
                self.cands.remove(at);
            }
            Err(at) if moves => self.cands.insert(at, j as u32),
            _ => {}
        }
        self.counts = SolveStats { memo_sibling_hits: 1, ..SolveStats::default() };
        self.xb_ftrans = 0;
    }

    /// Off-pivot nonzeros stored by the update etas (everything past the
    /// factor prefix).
    fn update_fill(&self) -> usize {
        let factor_nnz = self.eta_ptr.get(self.factor_etas).copied().unwrap_or(0) as usize;
        self.eta_row.len() - factor_nnz
    }

    /// Runs the deterministic refactorization triggers: rebuild the eta
    /// file once the update chain outgrows the solve's update-count
    /// budget *or* its fill (`eta_nnz`) budget — few-but-dense etas grow
    /// FTRAN/BTRAN cost just as surely as many sparse ones, and the count
    /// trigger alone never sees them. `false` means the (previously valid)
    /// basis went numerically singular — stall.
    fn refactor_if_due(&mut self) -> bool {
        let updates = self.n_etas() - self.factor_etas;
        // The eager fast-mode budgets engage with the rest of the hybrid
        // fast machinery (post-switch only): budget *timing* changes when
        // roundoff is reset, which perturbs float ties and with them the
        // whole downstream vertex trajectory — pre-switch solves keep the
        // kit-off schedule, which is what keeps their trees small.
        let (update_limit, fill_budget) = if self.devex_active {
            let factor_nnz = self.eta_ptr.get(self.factor_etas).copied().unwrap_or(0) as usize;
            (FAST_REFACTOR_UPDATES, (4 * (factor_nnz + self.sp.m)).max(FAST_REFACTOR_FILL_MIN))
        } else {
            (REFACTOR_UPDATES, REFACTOR_FILL)
        };
        if updates < update_limit {
            if self.update_fill() <= fill_budget {
                return true;
            }
            self.counts.refactor_fill_triggers += 1;
        }
        self.counts.refactor_triggers += 1;
        self.refactorize()
    }

    /// The pricing dot product `y·A_j` for column `j`. The primal scans
    /// inline this into [`choose_entering`](Self::choose_entering); the
    /// dual simplex and tests use it directly.
    fn price_col(&self, j: usize) -> f64 {
        if j >= self.sp.n_struct {
            return self.y[j - self.sp.n_struct];
        }
        let (rows, vals) = self.sp.col(j);
        let mut dot = 0.0;
        for (&r, &v) in rows.iter().zip(vals) {
            dot += v * self.y[r as usize];
        }
        dot
    }

    /// Identical selection rule to the dense engine, with the reduced cost
    /// computed from the pricing vector instead of a maintained row:
    /// phase 1 prices `d_j = y·A_j` (`y = B⁻ᵀσ`), phase 2
    /// `d_j = c_j − y·A_j` (`y = B⁻ᵀc_B`).
    fn choose_entering(&self, use_cost: bool, bland: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut best_score = TOL.dual;
        let n_struct = self.sp.n_struct;
        // `cands` already excludes columns pinned by equal bounds.
        for &ju in &self.cands {
            let j = ju as usize;
            let st = self.status[j];
            if st == ColStatus::Basic {
                continue;
            }
            let dot = if j < n_struct {
                let (s, e) = (self.sp.col_ptr[j] as usize, self.sp.col_ptr[j + 1] as usize);
                let mut d = 0.0;
                for (&r, &v) in self.sp.row_ix[s..e].iter().zip(&self.sp.val[s..e]) {
                    d += v * self.y[r as usize];
                }
                d
            } else {
                self.y[j - n_struct]
            };
            let d = if use_cost { self.sp.cost[j] - dot } else { dot };
            let can_up = matches!(st, ColStatus::AtLower | ColStatus::Free);
            let can_down = matches!(st, ColStatus::AtUpper | ColStatus::Free);
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

    /// Kit-on pricing once the hybrid threshold has tripped: devex
    /// over a *partially priced* candidate list. The list is divided into
    /// [`PARTIAL_SECTIONS`] rotating sections; each call scans sections
    /// starting at the rotating cursor and returns the best candidate of
    /// the first section that offers one, so a typical iteration prices a
    /// fraction of the columns. Only after a call has swept the entire
    /// list without finding an improving column does it declare optimality
    /// (`None`) — the termination proof is still full-width. Wrapping the
    /// cursor back to the start counts one
    /// [`SolveStats::partial_pricing_refreshes`].
    ///
    /// The cursor advances deterministically with the pivot sequence
    /// (never with timing), so the choice remains a pure
    /// function of the node. Bland mode bypasses sectioning: its
    /// anti-cycling guarantee needs the full ascending-index scan.
    fn choose_entering_devex(&mut self, use_cost: bool, bland: bool) -> Option<(usize, f64)> {
        let ncand = self.cands.len();
        let section = PARTIAL_SECTION_MIN.max(ncand.div_ceil(PARTIAL_SECTIONS));
        if bland || ncand <= section {
            return self.devex_scan(0, ncand, use_cost, bland);
        }
        let mut start = if self.price_cursor >= ncand { 0 } else { self.price_cursor };
        let mut scanned = 0usize;
        while scanned < ncand {
            let end = (start + section).min(ncand);
            let found = self.devex_scan(start, end, use_cost, false);
            scanned += end - start;
            let next = if end >= ncand {
                self.counts.partial_pricing_refreshes += 1;
                0
            } else {
                end
            };
            if found.is_some() {
                self.price_cursor = next;
                return found;
            }
            start = next;
        }
        None
    }

    /// One devex pricing sweep over `cands[from..to]`: a
    /// reference-framework approximation of steepest edge. Candidates are
    /// ranked by `d²/γ_j`, where `γ_j` estimates `‖B⁻¹A_j‖²` relative to
    /// the reference framework installed when devex engaged — dividing out
    /// the column norm steers the solve along edges that actually move the
    /// objective, which is what shrinks iteration counts on the
    /// near-degenerate floorplanning LPs. The scan itself is the same
    /// deterministic ascending-index pass as the Dantzig rule, with strict
    /// `>` so ties keep the lowest index: the choice is a pure function of
    /// the node, never of timing.
    fn devex_scan(
        &self,
        from: usize,
        to: usize,
        use_cost: bool,
        bland: bool,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut best_score = 0.0f64;
        let n_struct = self.sp.n_struct;
        for &ju in &self.cands[from..to] {
            let j = ju as usize;
            let st = self.status[j];
            if st == ColStatus::Basic {
                continue;
            }
            let dot = if j < n_struct {
                let (s, e) = (self.sp.col_ptr[j] as usize, self.sp.col_ptr[j + 1] as usize);
                let mut d = 0.0;
                for (&r, &v) in self.sp.row_ix[s..e].iter().zip(&self.sp.val[s..e]) {
                    d += v * self.y[r as usize];
                }
                d
            } else {
                self.y[j - n_struct]
            };
            let d = if use_cost { self.sp.cost[j] - dot } else { dot };
            let can_up = matches!(st, ColStatus::AtLower | ColStatus::Free);
            let can_down = matches!(st, ColStatus::AtUpper | ColStatus::Free);
            if bland {
                if can_up && d < -TOL.dual {
                    return Some((j, 1.0));
                }
                if can_down && d > TOL.dual {
                    return Some((j, -1.0));
                }
                continue;
            }
            let improves_up = can_up && d < -TOL.dual;
            let improves_down = can_down && d > TOL.dual;
            if !improves_up && !improves_down {
                continue;
            }
            let score = (d * d) / self.devex[j];
            if score > best_score {
                best_score = score;
                best = Some((j, if improves_up { 1.0 } else { -1.0 }));
            }
        }
        best
    }

    /// Devex weight maintenance after the ratio test chose pivot row `r`
    /// for entering column `enter` (whose FTRANed form is still in
    /// `self.w`): the leaving variable re-enters the nonbasic set with
    /// weight `max(γ_q/α², 1)` — the textbook devex update restricted to
    /// the leaving column, which costs one division instead of a full
    /// pivot-row pass. A weight beyond [`DEVEX_RESET_ABOVE`] means the
    /// reference framework no longer resembles the basis; reset every
    /// weight to 1 (re-reference) and count it.
    fn devex_update(&mut self, enter: usize, r: usize) {
        let alpha = self.w[r];
        let leaving = self.basis[r];
        let gamma = (self.devex[enter] / (alpha * alpha)).max(1.0);
        if gamma > DEVEX_RESET_ABOVE {
            self.devex.fill(1.0);
            self.counts.devex_resets += 1;
        } else {
            self.devex[leaving] = gamma;
        }
    }

    /// Bounded-variable ratio test over the FTRANed entering column in
    /// `self.w` — the same rule, tie-breaks and scan order (ascending row)
    /// as the dense engine, restricted to the touched (nonzero) rows.
    fn ratio_test(&self, enter: usize, dir: f64, phase1: bool, bland: bool) -> Step {
        let own_span = self.upper[enter] - self.lower[enter];
        let mut best_delta = if own_span.is_finite() { own_span } else { f64::INFINITY };
        let mut best_row = usize::MAX;
        let mut best_pivot = 0.0f64;
        for &ri in &self.touched {
            let i = ri as usize;
            let alpha = self.w[i];
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

    /// Applies a ratio-test step: moves the point along the FTRANed
    /// entering column, snaps the leaving/flipping variable to its bound,
    /// and (on a pivot) appends the update eta. Consumes `self.w`.
    fn apply(&mut self, enter: usize, dir: f64, step: Step) {
        self.degen_streak = if step.is_degenerate() { self.degen_streak + 1 } else { 0 };
        let (delta, pivot_row) = match step {
            Step::Flip { delta } => (delta, None),
            Step::Pivot { row, delta } => (delta, Some(row)),
            Step::Unbounded => unreachable!("apply is never called on an unbounded step"),
        };
        if delta != 0.0 {
            for idx in 0..self.touched.len() {
                let i = self.touched[idx] as usize;
                let alpha = self.w[i];
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
                if self.devex_active {
                    // A flip changes no basis column, so the flipped
                    // column's reference weight must not keep the inflated
                    // value it picked up when it last left the basis: the
                    // framework has moved on, and the stale weight scores
                    // its next entry as `γ/α²` against the wrong reference
                    // — inflated enough to trip spurious devex resets.
                    // Re-prime it to the reference floor.
                    self.devex[enter] = 1.0;
                }
            }
            Some(r) => {
                if self.devex_active {
                    self.devex_update(enter, r);
                }
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
                        self.pivot_basis(r, enter);
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
                self.pivot_basis(r, enter);
                return;
            }
        }
        self.clear_w();
    }

    /// Basis bookkeeping of a pivot: `enter` becomes basic in row `r` and
    /// the update eta (built from `self.w`) joins the file — or, once the
    /// hybrid switch has engaged the fast machinery, *replaces* the
    /// previous eta when both pivot on the same row (composition reorders
    /// float arithmetic, so it is confined to post-switch solves).
    fn pivot_basis(&mut self, r: usize, enter: usize) {
        self.basis[r] = enter;
        self.status[enter] = ColStatus::Basic;
        self.counts.eta_updates += 1;
        if self.devex_active && self.try_replace_eta(r) {
            self.counts.ft_replacements += 1;
        } else {
            self.counts.eta_nnz += self.push_eta(r);
        }
        self.clear_w();
    }

    /// Forrest–Tomlin-style eta replacement: when the update eta about to
    /// be built from `self.w` pivots on the same row as the newest eta in
    /// the file, the two elementary operators compose into a *single* eta
    /// (column-eta matrices with a common pivot row are closed under
    /// multiplication: `E₂E₁` has reciprocal `inv₁·inv₂` and off-pivot
    /// entries `v₁[r]·w[p] + w[r]`). Popping the old eta and pushing the
    /// composition keeps the file from growing monotonically through the
    /// enter-then-immediately-leave churn of degenerate vertices — the
    /// dominant growth mode on the floorplanning LPs. Returns `false`
    /// (append as usual) when the rows differ or the composed pivot would
    /// be numerically unusable.
    fn try_replace_eta(&mut self, pos: usize) -> bool {
        let n = self.n_etas();
        if n == self.factor_etas {
            return false; // no update eta to replace
        }
        let last = n - 1;
        if self.eta_pos[last] as usize != pos {
            return false;
        }
        let wp = self.w[pos];
        let inv_old = self.eta_inv[last];
        // Composed reciprocal is inv_old/wp; its pivot (the value push_eta
        // will invert) is wp/inv_old. Refuse a pivot the factorization
        // itself would refuse.
        let composed_pivot = wp / inv_old;
        if !composed_pivot.is_finite() || composed_pivot.abs() <= TOL.refactor {
            return false;
        }
        // Fold the old eta's entries into `w`, scaled by wp (see above).
        // push_eta walks `touched` verbatim, so re-gather it over both row
        // sets: each row once, ascending.
        for &r in &self.touched {
            mark_row(&mut self.mark, r);
        }
        let (s, e) = (self.eta_ptr[last] as usize, self.eta_ptr[last + 1] as usize);
        for idx in s..e {
            let r = self.eta_row[idx];
            mark_row(&mut self.mark, r);
            self.w[r as usize] += self.eta_val[idx] * wp;
        }
        self.gather_touched();
        // Pop the old eta and push the composition in its place.
        self.eta_pos.pop();
        self.eta_inv.pop();
        self.eta_ptr.pop();
        self.eta_row.truncate(s);
        self.eta_val.truncate(s);
        self.eta_lead.pop();
        self.eta_mark_ptr.pop();
        self.eta_marks.truncate(self.eta_mark_ptr[last] as usize);
        self.w[pos] = composed_pivot;
        self.counts.eta_nnz += self.push_eta(pos);
        true
    }

    /// The hybrid switch: a kit-on solve opens with the kit-off
    /// decision rules — banded-Dantzig pricing, the oracle's
    /// refactorization budgets, plain eta appends — so that it follows
    /// the kit-off vertex path (up to the dual repair and the
    /// install's roundoff) and keeps branch-and-bound trees small. Only
    /// once its own pivot count — phase 1, phase 2 and dual-repair pivots
    /// combined — crosses [`HYBRID_DEVEX_AFTER`] has the solve proven
    /// itself long enough for the rest of the fast machinery to pay, and
    /// it engages at once: devex pricing with partial pricing,
    /// Forrest–Tomlin eta replacement and eager refactorization. The
    /// decision reads nothing but per-solve state (plus the caller's
    /// deterministic `kit_allowed` verdict), so it is identical on every
    /// thread layout. Switching re-references the devex framework to the
    /// switch vertex (unit weights).
    fn maybe_switch_pricing(&mut self) {
        if self.kit_allowed
            && !self.devex_active
            && self.phase1_iters + self.phase2_iters >= HYBRID_DEVEX_AFTER
        {
            self.devex_active = true;
            self.counts.pricing_switches += 1;
            self.devex.fill(1.0);
            self.price_cursor = 0;
        }
    }

    /// Composite phase 1 (same scheme as the dense engine): minimize the
    /// total bound violation of the basic variables, pricing with
    /// `y = B⁻ᵀσ` where `σ_i = ±1` flags the violated basics.
    fn phase1(&mut self) -> RunOutcome {
        let (m, n) = (self.sp.m, self.sp.n);
        let bland_after = (20 * (m + n) + 1_000) as u64;
        let cap = 200 * (m + n) as u64 + 50_000;
        loop {
            if self.cancel.tripped() {
                return RunOutcome::Cancelled;
            }
            if !self.refactor_if_due() {
                return RunOutcome::Stalled;
            }
            let mut infeas = 0.0f64;
            let mut any = false;
            for i in 0..m {
                let k = self.basis[i];
                let xv = self.x[k];
                self.y[i] = if xv < self.lower[k] - TOL.feas {
                    infeas += self.lower[k] - xv;
                    any = true;
                    1.0
                } else if xv > self.upper[k] + TOL.feas {
                    infeas += xv - self.upper[k];
                    any = true;
                    -1.0
                } else {
                    0.0
                };
            }
            if infeas <= TOL.feas {
                return RunOutcome::Optimal; // primal feasible
            }
            debug_assert!(any);
            self.btran();
            let bland = self.phase1_iters > bland_after || self.degen_streak >= DEGEN_BLAND_AFTER;
            self.maybe_switch_pricing();
            let entering = if self.devex_active {
                self.choose_entering_devex(false, bland)
            } else {
                self.choose_entering(false, bland)
            };
            let Some((enter, dir)) = entering else {
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
            self.ftran_col(enter);
            match self.ratio_test(enter, dir, true, bland) {
                // A descent direction of a function bounded below by zero
                // always blocks; anything else is numerical trouble.
                Step::Unbounded => {
                    self.clear_w();
                    return RunOutcome::Stalled;
                }
                step => self.apply(enter, dir, step),
            }
        }
    }

    fn phase2(&mut self) -> RunOutcome {
        let (m, n) = (self.sp.m, self.sp.n);
        let bland_after = (20 * (m + n) + 1_000) as u64;
        // Same anti-livelock backstop as the dense engine; see there.
        let cap = 10_000 * (m + n) as u64 + 1_000_000;
        loop {
            if self.cancel.tripped() {
                return RunOutcome::Cancelled;
            }
            if !self.refactor_if_due() {
                return RunOutcome::Stalled;
            }
            // y = B⁻ᵀ c_B; reduced costs then price against the originals,
            // so (unlike a maintained dense cost row) they carry no
            // accumulated elimination roundoff.
            for i in 0..m {
                self.y[i] = self.sp.cost[self.basis[i]];
            }
            self.btran();
            let bland = self.phase2_iters > bland_after || self.degen_streak >= DEGEN_BLAND_AFTER;
            self.maybe_switch_pricing();
            let entering = if self.devex_active {
                self.choose_entering_devex(true, bland)
            } else {
                self.choose_entering(true, bland)
            };
            let Some((enter, dir)) = entering else {
                return RunOutcome::Optimal;
            };
            self.phase2_iters += 1;
            if self.phase2_iters > cap {
                return RunOutcome::Stalled;
            }
            self.ftran_col(enter);
            match self.ratio_test(enter, dir, false, bland) {
                Step::Unbounded => {
                    self.clear_w();
                    return RunOutcome::Unbounded;
                }
                step => self.apply(enter, dir, step),
            }
        }
    }

    /// The kit's dual simplex repair. A branch-and-bound child differs
    /// from its parent only in one tightened variable bound, so the
    /// parent's optimal basis stays *dual* feasible (reduced costs never
    /// involve bounds) while a handful of basics drift out of range; the
    /// dual simplex repairs exactly that in a few pivots where the
    /// composite phase 1 + phase 2 pair re-derives optimality from
    /// scratch. Best-effort by design: it returns without a verdict and
    /// [`run`](Self::run) always continues into the primal phases, which
    /// on a repaired basis reduce to one feasibility sweep and one pricing
    /// pass — and which remain the authority on infeasibility and on any
    /// dual drift the incremental updates below accumulate. Repairs stop
    /// early on a dual-infeasible start (cold bases, stalled parents),
    /// when no entering column exists (dual unbounded ⇒ primal
    /// infeasible, proved by phase 1 with its established tolerances), on
    /// any numerically suspect pivot, or past the iteration cap. Every
    /// choice here is a pure function of the installed floats, so the
    /// stopping decision — like the pivots themselves — is deterministic.
    fn dual_repair(&mut self) {
        let m = self.sp.m;
        let cap = (4 * m + 100) as u64;
        let mut iters = 0u64;
        if !self.refactor_if_due() {
            return;
        }
        // Reduced costs d = c_N − c_B B⁻¹N, priced once against the
        // originals; each pivot below maintains them with the standard
        // rank-one update instead of re-pricing the whole column set.
        for i in 0..m {
            self.y[i] = self.sp.cost[self.basis[i]];
        }
        self.btran();
        for &ju in &self.cands {
            let j = ju as usize;
            let st = self.status[j];
            if st == ColStatus::Basic {
                continue;
            }
            let d = self.sp.cost[j] - self.price_col(j);
            let infeasible = match st {
                ColStatus::AtLower => d < -TOL.dual,
                ColStatus::AtUpper => d > TOL.dual,
                ColStatus::Free => d.abs() > TOL.dual,
                ColStatus::Basic => unreachable!(),
            };
            if infeasible {
                return;
            }
            self.dual_d[j] = d;
        }
        loop {
            // Deadline-overshoot guard: the repair runs *before* phase 1,
            // so without its own poll a long repair would delay the first
            // deadline check by its full length. Bailing out without a
            // verdict is always safe — the primal phases (which poll the
            // same probe) take over and report the cancellation.
            if self.cancel.tripped() {
                return;
            }
            if !self.refactor_if_due() {
                return;
            }
            // Leaving row: the basic variable with the largest bound
            // violation (dual Dantzig); strict `>` keeps the lowest row on
            // ties. None violated means primal feasibility is restored.
            let mut row = usize::MAX;
            let mut worst = TOL.feas;
            let mut below = false;
            for i in 0..m {
                let k = self.basis[i];
                if self.x[k] < self.lower[k] - worst {
                    worst = self.lower[k] - self.x[k];
                    row = i;
                    below = true;
                } else if self.x[k] > self.upper[k] + worst {
                    worst = self.x[k] - self.upper[k];
                    row = i;
                    below = false;
                }
            }
            if row == usize::MAX {
                return;
            }
            iters += 1;
            if iters > cap {
                return;
            }
            // ρ = B⁻ᵀe_row prices the pivot row: α_j = ρ·A_j.
            self.y.fill(0.0);
            self.y[row] = 1.0;
            self.btran();
            // Dual ratio test: the leaving basic must move back toward its
            // violated bound (up when below, down when above), entering
            // columns may only leave a lower bound upward / an upper bound
            // downward, and x_row moves by −dir·α per unit step — which
            // fixes the admissible sign of α per status. Among admissible
            // columns the smallest |d_j|/|α_j| preserves every other
            // reduced-cost sign; near-ties prefer the larger pivot
            // (stability), then the lower index (the scan order).
            let mut enter = usize::MAX;
            let mut enter_dir = 0.0f64;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for &ju in &self.cands {
                let j = ju as usize;
                let st = self.status[j];
                if st == ColStatus::Basic {
                    continue;
                }
                let alpha = self.price_col(j);
                self.dual_alpha[j] = alpha;
                if alpha.abs() <= TOL.pivot {
                    continue;
                }
                let dir = match st {
                    ColStatus::AtLower => 1.0,
                    ColStatus::AtUpper => -1.0,
                    // A free column can enter either way; pick the
                    // direction that moves the leaving variable home.
                    ColStatus::Free => {
                        if below == (alpha < 0.0) {
                            1.0
                        } else {
                            -1.0
                        }
                    }
                    ColStatus::Basic => unreachable!(),
                };
                // Required: dir·α < 0 when below (x_row rises), > 0 when
                // above (x_row falls).
                if below != (dir * alpha < 0.0) {
                    continue;
                }
                // Sign-clamped |d|: a reduced cost within tolerance of the
                // wrong side counts as zero (a dual-degenerate pivot), not
                // as a negative ratio.
                let d_mag = match st {
                    ColStatus::AtLower => self.dual_d[j].max(0.0),
                    ColStatus::AtUpper => (-self.dual_d[j]).max(0.0),
                    _ => self.dual_d[j].abs(),
                };
                let ratio = d_mag / alpha.abs();
                let replace = if ratio < best_ratio - 1e-12 {
                    true
                } else if enter != usize::MAX && ratio <= best_ratio + 1e-12 {
                    alpha.abs() > best_alpha
                } else {
                    false
                };
                if replace {
                    best_ratio = ratio.min(best_ratio);
                    enter = j;
                    enter_dir = dir;
                    best_alpha = alpha.abs();
                }
            }
            if enter == usize::MAX {
                // Dual unbounded ⇒ primal infeasible, but tolerance
                // subtleties make phase 1 the authority on that verdict.
                return;
            }
            self.ftran_col(enter);
            let aw = self.w[row];
            let rate = -enter_dir * aw;
            // The FTRANed pivot must agree with the priced row both in
            // magnitude and in the direction it moves the leaving basic.
            if aw.abs() <= TOL.pivot || below != (rate > 0.0) {
                self.clear_w();
                return;
            }
            let k = self.basis[row];
            let dist = if below { self.lower[k] - self.x[k] } else { self.x[k] - self.upper[k] };
            let delta = dist / rate.abs();
            // Dual step length, fixed before `apply` flips statuses: the
            // new pricing vector is y' = y + θρ with θ = d_q/α_q, so every
            // reduced cost moves by d'_j = d_j − θ·α_j (the entering
            // column's lands on 0, the leaving variable's on −θ since its
            // pivot-row coefficient is 1 by B⁻¹B = I).
            let theta = self.dual_d[enter] / self.dual_alpha[enter];
            self.phase2_iters += 1;
            self.apply(enter, enter_dir, Step::Pivot { row, delta });
            for &ju in &self.cands {
                let j = ju as usize;
                if self.status[j] == ColStatus::Basic {
                    continue;
                }
                self.dual_d[j] -= theta * self.dual_alpha[j];
            }
            self.dual_d[k] = -theta;
        }
    }
}

impl Drop for Revised<'_> {
    /// Returns every buffer to the thread's scratch slot for the next
    /// solve to reuse.
    fn drop(&mut self) {
        let sc = RevScratch {
            lower: std::mem::take(&mut self.lower),
            upper: std::mem::take(&mut self.upper),
            status: std::mem::take(&mut self.status),
            x: std::mem::take(&mut self.x),
            basis: std::mem::take(&mut self.basis),
            eta_pos: std::mem::take(&mut self.eta_pos),
            eta_inv: std::mem::take(&mut self.eta_inv),
            eta_ptr: std::mem::take(&mut self.eta_ptr),
            eta_row: std::mem::take(&mut self.eta_row),
            eta_val: std::mem::take(&mut self.eta_val),
            eta_lead: std::mem::take(&mut self.eta_lead),
            eta_mark_ptr: std::mem::take(&mut self.eta_mark_ptr),
            eta_marks: std::mem::take(&mut self.eta_marks),
            w: std::mem::take(&mut self.w),
            touched: std::mem::take(&mut self.touched),
            mark: std::mem::take(&mut self.mark),
            y: std::mem::take(&mut self.y),
            used: std::mem::take(&mut self.used),
            cands: std::mem::take(&mut self.cands),
            rhs: std::mem::take(&mut self.rhs),
            devex: std::mem::take(&mut self.devex),
            dual_d: std::mem::take(&mut self.dual_d),
            dual_alpha: std::mem::take(&mut self.dual_alpha),
            saved_x: std::mem::take(&mut self.saved_x),
            saved_status: std::mem::take(&mut self.saved_status),
            saved_basis: std::mem::take(&mut self.saved_basis),
        };
        SCRATCH.with(|c| *c.borrow_mut() = sc);
    }
}

impl EngineCore for Revised<'_> {
    fn cold_statuses(&self) -> Vec<ColStatus> {
        cold_statuses_for(&self.lower, &self.upper, self.sp.n_struct, self.sp.m)
    }

    fn install(&mut self, statuses: &[ColStatus]) -> bool {
        if statuses.len() != self.sp.n {
            return false;
        }
        self.status.copy_from_slice(statuses);
        // Adopt nonbasic statuses; a status whose bound went infinite (only
        // possible for a foreign basis) degrades to the nearest valid one.
        for j in 0..self.sp.n {
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
        self.refactorize()
    }

    fn set_cancel(&mut self, cancel: CancellationToken) {
        self.cancel.arm(Some(cancel));
    }

    /// Keeps the point, the statuses and the row assignment the install
    /// just computed, for [`restore`](Self::restore). The eta file needs no
    /// copy: pivots only append past its factor prefix, and a
    /// factorization, which replaces the prefix, drops the saved install.
    fn save_install(&mut self) {
        self.saved_x.clone_from(&self.x);
        self.saved_status.clone_from(&self.status);
        self.saved_basis.clone_from(&self.basis);
        self.saved = true;
    }

    fn can_restore(&self) -> bool {
        self.saved
    }

    fn run(&mut self) -> RunOutcome {
        if self.kit_allowed {
            self.dual_repair();
        }
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

    fn lu_totals(&self) -> SolveStats {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CmpOp;
    use crate::simplex::{Basis, LpProblem, LpRow, LpRows, PreparedLp};

    fn prep(rows: Vec<LpRow>, n: usize, upper: f64) -> (LpProblem<'static>, SparseLp) {
        let lp = LpProblem {
            n_vars: n,
            lower: vec![0.0; n],
            upper: vec![upper; n],
            rows: LpRows::owned(rows),
            objective: vec![1.0; n],
            minimize: true,
            objective_offset: 0.0,
        };
        let sp = SparseLp::build(&lp);
        (lp, sp)
    }

    #[test]
    fn cold_basis_factorizes_with_empty_etas() {
        let (lp, sp) = prep(
            vec![
                LpRow { coeffs: vec![(0, 1.0), (1, 2.0)], op: CmpOp::Le, rhs: 4.0 },
                LpRow { coeffs: vec![(1, 1.0)], op: CmpOp::Ge, rhs: 1.0 },
            ],
            2,
            10.0,
        );
        let mut e = Revised::new(&sp, &lp.lower, &lp.upper, false);
        let cold = e.cold_statuses();
        assert!(e.install(&cold));
        // All-logical basis: every column claims its own row with an
        // identity operator, and identity etas are elided entirely.
        assert_eq!(e.n_etas(), 0);
        assert_eq!(e.eta_row.len(), 0);
        assert_eq!(e.basis, vec![2, 3]);
        assert_eq!(e.lu_totals().lu_fill_nnz, 0, "no fill for logical columns");
    }

    /// Both elimination orders factorize a basis whose logical's row a
    /// structural would claim first in the oracle order: FTRAN and BTRAN
    /// must invert it either way.
    #[test]
    fn ftran_btran_invert_each_other() {
        let (lp, sp) = prep(
            vec![
                LpRow { coeffs: vec![(0, 2.0), (1, 1.0)], op: CmpOp::Eq, rhs: 3.0 },
                LpRow { coeffs: vec![(0, 1.0), (1, 3.0)], op: CmpOp::Eq, rhs: 4.0 },
                LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Le, rhs: 10.0 },
            ],
            2,
            10.0,
        );
        // Both structurals and row 0's logical basic (a 3×3 nonsingular
        // basis).
        let mut statuses = vec![ColStatus::AtLower; sp.n];
        statuses[..3].fill(ColStatus::Basic);
        let mut assignments = Vec::new();
        for kit in [false, true] {
            let mut e = Revised::new(&sp, &lp.lower, &lp.upper, kit);
            assert!(e.install(&statuses), "kit={kit}");
            // FTRAN of basis column i must reproduce the unit vector of the
            // row that column claimed.
            for (row, &col) in e.basis.clone().iter().enumerate() {
                e.ftran_col(col);
                for i in 0..sp.m {
                    let expect = if i == row { 1.0 } else { 0.0 };
                    assert!(
                        (e.w[i] - expect).abs() < 1e-12,
                        "kit={kit} col {col} row {i}: {}",
                        e.w[i]
                    );
                }
                e.clear_w();
            }
            // BTRAN: y = B⁻ᵀ v ⇔ Bᵀ y = v, checked via y·A_col = v[row(col)].
            e.y.copy_from_slice(&[5.0, -7.0, 3.0]);
            let v = e.y.clone();
            e.btran();
            for (row, &col) in e.basis.clone().iter().enumerate() {
                let dot = e.price_col(col);
                assert!((dot - v[row]).abs() < 1e-9, "kit={kit} col {col}: {dot} vs {}", v[row]);
            }
            assignments.push(e.basis.clone());
        }
        // Not vacuous: the oracle order lets x0 claim row 0, logicals-first
        // leaves row 0 to its logical.
        assert_eq!(assignments[0][0], 0, "kit-off: x0 claims row 0");
        assert_eq!(assignments[1][0], 2, "kit-on: row 0's logical claims it");
    }

    /// `ftran_col` hands the ratio test and the pivot search every row it
    /// wrote exactly once, in ascending order, whatever the eta file does.
    /// The files are random over 150 rows (three bitmap words), with
    /// power-of-two entries so rows cancel to exactly zero, after a fixed
    /// pair of etas that cancels one of column 0's rows and then refills
    /// it. The values must equal the dense FTRAN's bit for bit, and every
    /// row left out of `touched` must be zero.
    #[test]
    fn ftran_touched_rows_are_ascending_unique_and_cover_the_nonzeros() {
        let m = 150;
        let (cancel_row, refill_row) = (3usize, 100usize);
        let mut rows: Vec<LpRow> =
            (0..m).map(|_| LpRow { coeffs: Vec::new(), op: CmpOp::Le, rhs: 1.0 }).collect();
        rows[cancel_row].coeffs.push((0, 1.0));
        rows[refill_row].coeffs.push((0, 1.0));
        for j in 1..6 {
            for k in 0..5 {
                let coef = [1.0, -1.0, 0.5][(j + k) % 3];
                rows[(j * 29 + k * 41) % m].coeffs.push((j, coef));
            }
        }
        let (lp, sp) = prep(rows, 6, 1.0);
        let mut e = Revised::new(&sp, &lp.lower, &lp.upper, true);
        let push = |e: &mut Revised, pos: usize, pivot: f64, entries: &[(usize, f64)]| {
            e.touched.clear();
            e.w[pos] = pivot;
            e.touched.push(pos as u32);
            for &(r, v) in entries {
                e.w[r] = v;
                e.touched.push(r as u32);
            }
            e.push_eta(pos);
            e.clear_w();
        };
        let check = |e: &mut Revised, j: usize| {
            let mut dense = vec![0.0; m];
            let (col_rows, col_vals) = sp.col(j);
            for (&r, &v) in col_rows.iter().zip(col_vals) {
                dense[r as usize] = v;
            }
            e.ftran_dense(&mut dense);
            e.ftran_col(j);
            assert!(e.touched.windows(2).all(|p| p[0] < p[1]), "col {j}: {:?}", e.touched);
            for (r, &v) in dense.iter().enumerate() {
                assert_eq!(e.w[r].to_bits(), v.to_bits(), "col {j} row {r}");
                if v != 0.0 {
                    assert!(e.touched.binary_search(&(r as u32)).is_ok(), "col {j}: row {r}");
                }
            }
            e.clear_w();
            assert!(e.w.iter().all(|&v| v == 0.0) && e.mark.iter().all(|&b| b == 0));
        };
        // w = e₃ + e₁₀₀ from column 0; the first eta zeroes row 100
        // (1 − 1·1), the second writes it again (0 − 1·0.5).
        push(&mut e, cancel_row, 1.0, &[(refill_row, 1.0)]);
        push(&mut e, cancel_row, 2.0, &[(refill_row, 1.0)]);
        e.ftran_col(0);
        assert_eq!(e.touched, vec![cancel_row as u32, refill_row as u32]);
        assert_eq!((e.w[cancel_row], e.w[refill_row]), (0.5, -0.5));
        e.clear_w();
        check(&mut e, 0);

        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let values = [1.0, -1.0, 0.5, 2.0, -0.5];
        for _ in 0..60 {
            let pos = next(m);
            let pivot = values[next(values.len())];
            let mut entries: Vec<(usize, f64)> = Vec::new();
            for _ in 0..next(12) {
                let r = next(m);
                if r != pos && entries.iter().all(|&(q, _)| q != r) {
                    entries.push((r, values[next(values.len())]));
                }
            }
            push(&mut e, pos, pivot, &entries);
            for _ in 0..3 {
                check(&mut e, next(sp.n));
            }
        }
    }

    /// BTRAN as one serial dot product per eta, newest eta first: the
    /// arithmetic `btran` must reproduce bit for bit.
    fn btran_reference(e: &Revised, y: &mut [f64]) {
        for k in (0..e.eta_pos.len()).rev() {
            let (s, t) = (e.eta_ptr[k] as usize, e.eta_ptr[k + 1] as usize);
            let mut dot = 0.0;
            for (&r, &val) in e.eta_row[s..t].iter().zip(&e.eta_val[s..t]) {
                dot += val * y[r as usize];
            }
            let pos = e.eta_pos[k] as usize;
            y[pos] = (y[pos] - dot) * e.eta_inv[k];
        }
    }

    /// `btran` equals the sequential reference bit for bit over a factor
    /// prefix and random update etas: consecutive etas on one row, a pair
    /// whose later pivot row the earlier eta reads, a Forrest–Tomlin
    /// composition and a `restore` truncation followed by new etas. The
    /// values carry roundoff (no power-of-two entries), so any reordering
    /// of a dot product's terms shows in the bits.
    #[test]
    fn btran_equals_the_sequential_reference_bit_for_bit() {
        let (m, k) = (70usize, 12usize);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let value = move |next: &mut dyn FnMut(usize) -> usize| {
            let v = (next(2_000) as f64 - 1_000.0) / 37.0;
            if v == 0.0 {
                0.3
            } else {
                v
            }
        };
        // Structural j has its diagonal on row j and entries below it only,
        // so the basis of structurals 0..k plus the logicals of rows k..m is
        // triangular and nonsingular.
        let mut rows: Vec<LpRow> =
            (0..m).map(|_| LpRow { coeffs: Vec::new(), op: CmpOp::Le, rhs: 1.0 }).collect();
        for j in 0..k {
            rows[j].coeffs.push((j, 2.0 + (j % 3) as f64 / 7.0));
            for _ in 0..6 {
                let r = j + 1 + next(m - j - 1);
                if rows[r].coeffs.iter().all(|&(c, _)| c != j) {
                    let v = value(&mut next);
                    rows[r].coeffs.push((j, v));
                }
            }
        }
        let (lp, sp) = prep(rows, k, 1.0);
        let mut statuses = vec![ColStatus::AtLower; sp.n];
        statuses[..k].fill(ColStatus::Basic);
        statuses[k + k..].fill(ColStatus::Basic);
        let mut e = Revised::new(&sp, &lp.lower, &lp.upper, false);
        assert!(e.install(&statuses));
        e.save_install();
        assert!(e.factor_etas > 0, "a factor prefix to keep across the restore");

        let check = |e: &mut Revised, next: &mut dyn FnMut(usize) -> usize| {
            for (i, y) in e.y.iter_mut().enumerate() {
                *y =
                    if next(4) == 0 { 0.0 } else { (next(1_000) as f64 - 500.0) / 13.0 + i as f64 };
            }
            let mut reference = e.y.clone();
            btran_reference(e, &mut reference);
            e.btran();
            for (r, (&got, &want)) in e.y.iter().zip(&reference).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "row {r}: {got} vs {want}");
            }
        };
        // Scatters `pivot` on `pos` and `entries` into `w` with `touched`
        // ascending, as FTRAN leaves them.
        let scatter = |e: &mut Revised, pos: usize, pivot: f64, entries: &[(usize, f64)]| {
            e.w[pos] = pivot;
            for &(r, v) in entries {
                e.w[r] = v;
            }
            e.touched.clear();
            e.touched.push(pos as u32);
            e.touched.extend(entries.iter().map(|&(r, _)| r as u32));
            e.touched.sort_unstable();
        };
        let random_entries = |pos: usize, next: &mut dyn FnMut(usize) -> usize| {
            let mut entries: Vec<(usize, f64)> = Vec::new();
            for _ in 0..next(20) {
                let r = next(m);
                if r != pos && entries.iter().all(|&(q, _)| q != r) {
                    let v = (next(2_000) as f64 - 1_000.0) / 29.0;
                    entries.push((r, if v == 0.0 { 0.7 } else { v }));
                }
            }
            entries
        };
        let push = |e: &mut Revised, pos: usize, entries: &[(usize, f64)]| {
            scatter(e, pos, 1.5 + pos as f64 / 11.0, entries);
            e.push_eta(pos);
            e.clear_w();
        };
        check(&mut e, &mut next);

        // Consecutive etas on one row, then a dependent pair: the later
        // eta pivots on row 9, which the earlier one reads.
        push(&mut e, 4, &[(1, 0.3), (9, -1.7), (30, 2.9)]);
        push(&mut e, 4, &[(2, 1.1), (31, -0.9)]);
        push(&mut e, 20, &[(9, 0.6), (40, 1.3)]);
        push(&mut e, 9, &[(20, -2.3), (41, 0.8)]);
        let n = e.n_etas();
        let lead = |k: usize, back: usize| e.eta_lead[k][back] - e.eta_ptr[k - 1 - back];
        assert_eq!([lead(n - 3, 0), lead(n - 2, 0), lead(n - 1, 0)], [3, 2, 0]);
        assert_eq!(lead(n - 1, 1), 2, "row 9 is in neither eta on row 4");
        check(&mut e, &mut next);
        for _ in 0..40 {
            let pos = next(m);
            let entries = random_entries(pos, &mut next);
            push(&mut e, pos, &entries);
            check(&mut e, &mut next);
        }

        // A composition replaces the newest eta in place.
        let pos = e.eta_pos[e.n_etas() - 1] as usize;
        let entries = random_entries(pos, &mut next);
        let before = e.n_etas();
        scatter(&mut e, pos, 0.9, &entries);
        assert!(e.try_replace_eta(pos));
        e.clear_w();
        assert_eq!(e.n_etas(), before);
        check(&mut e, &mut next);

        // A restore drops every update eta; new ones follow the prefix.
        e.restore(0, 0.0, 1.0);
        assert_eq!(e.n_etas(), e.factor_etas);
        check(&mut e, &mut next);
        for _ in 0..20 {
            let pos = next(m);
            let entries = random_entries(pos, &mut next);
            push(&mut e, pos, &entries);
            check(&mut e, &mut next);
        }
    }

    #[test]
    fn refactor_trigger_fires_deterministically() {
        // A solve long enough to exceed REFACTOR_UPDATES pivots would
        // refactorize; here just drive the trigger path directly — kit off
        // and kit on (past the switch it trips its tighter update budget).
        for (kit, limit) in [(false, REFACTOR_UPDATES), (true, FAST_REFACTOR_UPDATES)] {
            let (lp, sp) =
                prep(vec![LpRow { coeffs: vec![(0, 0.5)], op: CmpOp::Le, rhs: 5.0 }], 1, 10.0);
            let mut e = Revised::new(&sp, &lp.lower, &lp.upper, kit);
            // The eager fast budget only engages post-switch.
            e.devex_active = kit;
            let cold = e.cold_statuses();
            assert!(e.install(&cold));
            let factorizations_before = e.counts.lu_factorizations;
            // Fake a long update chain by scattering the scratch directly (a
            // 0.5 pivot keeps every eta non-identity, so they are actually
            // stored): the trigger must refactorize.
            for _ in 0..limit {
                e.w[0] = 0.5;
                e.touched.clear();
                e.touched.push(0);
                e.push_eta(0);
                e.clear_w();
            }
            e.save_install();
            assert!(e.refactor_if_due());
            assert_eq!(e.counts.refactor_triggers, 1, "kit={kit}");
            assert_eq!(e.counts.refactor_fill_triggers, 0, "kit={kit}: count trigger, not fill");
            // A rebuild factorizes (and counts) afresh, and its new factor
            // prefix leaves nothing for a sibling to restore.
            assert_eq!(e.counts.lu_factorizations, factorizations_before + 1, "kit={kit}");
            assert!(!e.can_restore(), "kit={kit}: a refactorization drops the saved install");
            assert_eq!(e.n_etas() - e.factor_etas, 0, "kit={kit}: update chain reset");
        }
    }

    /// Fabricates an update chain of `count` etas, each with `m - 10`
    /// off-pivot entries, on a fresh engine over an `m`-row model, then runs
    /// the trigger. Shared by the kit-off and kit-on fill-trigger tests.
    fn force_fill_refactor(m: usize, kit: bool, count: usize) -> (u64, u64, u64) {
        let rows: Vec<LpRow> =
            (0..m).map(|_| LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 1e9 }).collect();
        let (lp, sp) = prep(rows, 1, 10.0);
        let mut e = Revised::new(&sp, &lp.lower, &lp.upper, kit);
        // Kit-on budgets only engage once the hybrid switch has tripped.
        e.devex_active = kit;
        let cold = e.cold_statuses();
        assert!(e.install(&cold));
        let fill_per_eta = m - 10;
        for _ in 0..count {
            e.touched.clear();
            for r in 0..=fill_per_eta {
                e.w[r] = 0.5;
                e.touched.push(r as u32);
            }
            e.push_eta(0);
            e.clear_w();
        }
        assert!(e.refactor_if_due());
        assert_eq!(e.n_etas() - e.factor_etas, 0, "kit={kit}: update chain reset");
        (e.counts.refactor_triggers, e.counts.refactor_fill_triggers, e.counts.lu_factorizations)
    }

    /// The dead path ISSUE 7 fixes: an update chain of few-but-dense etas
    /// never trips the update-count trigger, so before the `eta_nnz` budget
    /// existed it grew FTRAN/BTRAN cost without bound. Kit-off and kit-on
    /// solves must now refactorize on fill alone (kit-off far later — its
    /// budget is a pure backstop).
    #[test]
    fn fill_trigger_forces_midsolve_refactorization_exact() {
        // 1019 etas × 1030 nnz ≈ 1.05M > REFACTOR_FILL, updates < 1024.
        let (triggers, fill_triggers, factorizations) = force_fill_refactor(1040, false, 1019);
        assert_eq!(triggers, 1);
        assert_eq!(fill_triggers, 1, "fill, not update count, must have fired");
        assert_eq!(factorizations, 2, "install + forced refactorization");
    }

    #[test]
    fn fill_trigger_forces_midsolve_refactorization_fast() {
        // Budget for m=40, empty factor prefix: max(1024, 4·40) = 1024;
        // 35 etas × 30 nnz = 1050 > 1024, updates < 64.
        let (triggers, fill_triggers, factorizations) = force_fill_refactor(40, true, 35);
        assert_eq!(triggers, 1);
        assert_eq!(fill_triggers, 1, "fill, not update count, must have fired");
        assert_eq!(factorizations, 2, "install + forced refactorization");
    }

    /// The Forrest–Tomlin-style composition must be *exact* operator
    /// algebra: replacing two same-row etas with their composition leaves
    /// FTRAN results bit-for-bit unchanged up to the reordered arithmetic
    /// (here: equal to 1e-12).
    #[test]
    fn ft_replacement_composes_same_row_etas() {
        let (lp, sp) = prep(
            vec![
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 1.0 },
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 1.0 },
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 1.0 },
            ],
            1,
            10.0,
        );
        let mut e = Revised::new(&sp, &lp.lower, &lp.upper, true);
        let cold = e.cold_statuses();
        assert!(e.install(&cold));
        assert_eq!(e.n_etas(), 0, "all-logical basis: empty factor prefix");
        // First update eta: w = [2, 1, 0] pivoting row 0 → inv 0.5, {1: 1}.
        e.touched.clear();
        e.w[0] = 2.0;
        e.w[1] = 1.0;
        e.touched.extend_from_slice(&[0, 1]);
        e.push_eta(0);
        e.clear_w();
        // Second pivot on the same row: w = [4, 0, 3]. Sequential
        // application of E1 then E2 to e_0 gives [0.125, -0.5, -0.375].
        e.touched.clear();
        e.w[0] = 4.0;
        e.w[2] = 3.0;
        e.touched.extend_from_slice(&[0, 2]);
        assert!(e.try_replace_eta(0));
        e.clear_w();
        assert_eq!(e.n_etas(), 1, "two same-row etas composed into one");
        assert!((e.eta_inv[0] - 0.125).abs() < 1e-15);
        let mut v = vec![1.0, 0.0, 0.0];
        e.ftran_dense(&mut v);
        assert!((v[0] - 0.125).abs() < 1e-12, "{v:?}");
        assert!((v[1] + 0.5).abs() < 1e-12, "{v:?}");
        assert!((v[2] + 0.375).abs() < 1e-12, "{v:?}");
    }

    /// A different pivot row must *not* replace (the algebra only holds for
    /// a common pivot row), and a kit-off solve never replaces at all.
    #[test]
    fn ft_replacement_requires_same_row_and_fast_parity() {
        for kit in [false, true] {
            let (lp, sp) = prep(
                vec![
                    LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 1.0 },
                    LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 1.0 },
                ],
                1,
                10.0,
            );
            let mut e = Revised::new(&sp, &lp.lower, &lp.upper, kit);
            let cold = e.cold_statuses();
            assert!(e.install(&cold));
            for pos in [0usize, 1] {
                e.touched.clear();
                e.w[pos] = 0.5;
                e.touched.push(pos as u32);
                if kit && pos == 1 {
                    // Different pivot row: composition must refuse.
                    assert!(!e.try_replace_eta(pos));
                }
                e.push_eta(pos);
                e.clear_w();
            }
            assert_eq!(e.n_etas(), 2, "kit={kit}: both etas appended");
        }
    }

    /// The branch-and-bound warm-start shape: a parent-optimal basis whose
    /// basic value violates a *tightened child bound* stays dual feasible,
    /// so a kit-on solve must repair it with dual pivots alone — zero
    /// phase-1 iterations — while a kit-off solve reaches the same vertex
    /// through the composite phases.
    #[test]
    fn dual_repair_fixes_tightened_bound_without_phase1() {
        // min x0 + x1  s.t.  x0 + x1 ≥ 4,  0 ≤ x ≤ 10. Parent optimum:
        // x0 basic at 4, x1 and the surplus logical nonbasic.
        let (mut lp, sp) = prep(
            vec![LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Ge, rhs: 4.0 }],
            2,
            10.0,
        );
        let parent = vec![ColStatus::Basic, ColStatus::AtLower, ColStatus::AtUpper];
        // Child branch: x0 ≤ 3 makes the parent basis primal infeasible
        // (x0 = 4 > 3) but leaves every reduced cost dual feasible.
        lp.upper[0] = 3.0;
        for kit in [true, false] {
            let mut e = Revised::new(&sp, &lp.lower, &lp.upper, kit);
            assert!(e.install(&parent));
            assert_eq!(e.x[0], 4.0, "kit={kit}: warm basic value precedes repair");
            assert!(matches!(e.run(), RunOutcome::Optimal), "kit={kit}");
            let obj: f64 = (0..sp.n).map(|j| sp.cost[j] * e.x[j]).sum();
            assert!((obj - 4.0).abs() < 1e-9, "kit={kit}: objective {obj}");
            if kit {
                // One dual pivot: x1 enters, x0 leaves exactly at its new
                // upper bound. Phase 1 never ran.
                assert_eq!(e.phase1_iters, 0, "dual repair must skip phase 1");
                assert!(e.phase2_iters >= 1);
                assert_eq!((e.x[0], e.x[1]), (3.0, 1.0));
            } else {
                assert!(e.dual_d.is_empty(), "a kit-off solve allocates no dual scratch");
            }
        }
    }

    /// A dual-infeasible warm start (negative reduced cost at lower bound)
    /// must make `dual_repair` bail *before* any pivot so the primal
    /// phases — the only path with an infeasibility proof — take over.
    #[test]
    fn dual_repair_bails_to_phases_on_dual_infeasible_start() {
        let lp = LpProblem {
            n_vars: 1,
            lower: vec![0.0],
            upper: vec![10.0],
            rows: LpRows::owned(vec![LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 5.0 }]),
            objective: vec![-1.0],
            minimize: true,
            objective_offset: 0.0,
        };
        let sp = SparseLp::build(&lp);
        let mut e = Revised::new(&sp, &lp.lower, &lp.upper, true);
        let cold = e.cold_statuses();
        assert!(e.install(&cold));
        // Cold logical basis prices d₀ = −1 at lower: run() must fall
        // through to the phases and still maximize x0 against the row.
        assert!(matches!(e.run(), RunOutcome::Optimal));
        assert_eq!(e.x[0], 5.0);
        assert!(e.phase2_iters >= 1, "the primal phase performed the pivot");
    }

    /// A kit-on solve long enough to cross [`HYBRID_DEVEX_AFTER`]
    /// must switch to devex pricing exactly once, and a candidate list
    /// wider than one partial-pricing section must wrap its rotating
    /// cursor. With the kit withheld (`kit_allowed = false`) the same
    /// solve stays on the banded-Dantzig opening end to end.
    #[test]
    fn hybrid_switch_fires_once_on_long_fast_solves() {
        // min Σ −x_i over 100 slack rows x_i ≤ 1: the cold basis is primal
        // feasible but dual infeasible, so phase 2 pivots every column in
        // — 100 iterations, crossing the switch threshold on the way.
        let n = 100;
        let lp = LpProblem {
            n_vars: n,
            lower: vec![0.0; n],
            upper: vec![10.0; n],
            rows: LpRows::owned(
                (0..n).map(|i| LpRow { coeffs: vec![(i, 1.0)], op: CmpOp::Le, rhs: 1.0 }).collect(),
            ),
            objective: vec![-1.0; n],
            minimize: true,
            objective_offset: 0.0,
        };
        let sp = SparseLp::build(&lp);
        for kit in [true, false] {
            let mut e = Revised::new(&sp, &lp.lower, &lp.upper, kit);
            let cold = e.cold_statuses();
            assert!(e.install(&cold));
            assert!(matches!(e.run(), RunOutcome::Optimal), "kit={kit}");
            assert!(e.phase1_iters + e.phase2_iters >= HYBRID_DEVEX_AFTER, "kit={kit}");
            for j in 0..n {
                assert!((e.x[j] - 1.0).abs() < 1e-9, "kit={kit}: x[{j}] = {}", e.x[j]);
            }
            if kit {
                assert!(e.devex_active, "the hybrid switch must have tripped");
                assert_eq!(e.counts.pricing_switches, 1, "the switch fires exactly once per solve");
                assert!(
                    e.counts.partial_pricing_refreshes >= 1,
                    "a 200-candidate list sections; the cursor must have wrapped"
                );
            } else {
                assert!(!e.devex_active, "kit withheld: no devex");
                assert_eq!(e.counts.pricing_switches, 0, "kit withheld: no switch");
                assert_eq!(e.counts.partial_pricing_refreshes, 0);
            }
        }
    }

    /// A bound flip leaves the basis unchanged, so the flipped column's
    /// devex weight must drop back to the unit reference — a stale
    /// inflated weight kept from the column's last basis exit would score
    /// its next entry as γ/α² against a framework that has moved on, and
    /// trip a spurious re-reference (`devex_resets`).
    #[test]
    fn flip_reprimes_devex_weight_without_spurious_reset() {
        let (lp, sp) =
            prep(vec![LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 8.0 }], 1, 10.0);
        let mut e = Revised::new(&sp, &lp.lower, &lp.upper, true);
        let cold = e.cold_statuses();
        assert!(e.install(&cold));
        e.devex_active = true;
        // The weight a column carries after leaving the basis late in a
        // long solve: far above the unit reference, below the reset bound.
        e.devex[0] = 5e7;
        // Zero-length flip: no basis column changes, the status snaps to
        // the opposite bound.
        e.apply(0, 1.0, Step::Flip { delta: 0.0 });
        assert_eq!(e.status[0], ColStatus::AtUpper);
        assert_eq!(e.devex[0], 1.0, "flip must re-prime the weight to the reference floor");
        // The column's next entry with a modest pivot (α = 0.5) computes
        // γ = devex[0]/α². Re-primed that is 4; with the stale weight it
        // would be 5e7/0.25 = 2e8 > DEVEX_RESET_ABOVE — a spurious
        // framework reset.
        e.w[0] = 0.5;
        e.devex_update(0, 0);
        assert_eq!(e.counts.devex_resets, 0, "no spurious devex reset after a flip");
        assert_eq!(e.lu_totals().devex_resets, 0, "reported counter agrees");
        assert_eq!(e.devex[1], 4.0, "leaving column inherits γ, no reset path taken");
    }

    /// A kit-on install recomputes the basic values as
    /// `B⁻¹(b − Σ A_j x_j)` — raw columns subtracted, then exactly one
    /// eta-file pass — where a kit-off install replays the oracle order at
    /// one pass per nonzero nonbasic column. Same basis, same point: the
    /// two must agree on `x_B` to roundoff.
    #[test]
    fn kit_on_install_recomputes_basic_values_with_one_ftran() {
        // Two structural basics over three rows' worth of nonbasic weight:
        // x2, x3 sit at their upper bound 10, so both columns are nonzero
        // in the recompute; the third row keeps its logical basic.
        let (lp, sp) = prep(
            vec![
                LpRow {
                    coeffs: vec![(0, 2.0), (1, 1.0), (2, 0.5), (3, 0.25)],
                    op: CmpOp::Le,
                    rhs: 30.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 3.0), (2, 0.125), (3, 1.5)],
                    op: CmpOp::Le,
                    rhs: 40.0,
                },
                LpRow { coeffs: vec![(0, 1.0), (2, 1.0), (3, 1.0)], op: CmpOp::Le, rhs: 50.0 },
            ],
            4,
            10.0,
        );
        let statuses = vec![
            ColStatus::Basic,
            ColStatus::Basic,
            ColStatus::AtUpper,
            ColStatus::AtUpper,
            ColStatus::AtLower,
            ColStatus::AtLower,
            ColStatus::Basic,
        ];
        let install = |kit: bool| {
            let mut e = Revised::new(&sp, &lp.lower, &lp.upper, kit);
            assert!(e.install(&statuses), "kit={kit}");
            (e.x.clone(), e.xb_ftrans)
        };
        let (x_on, passes_on) = install(true);
        let (x_off, passes_off) = install(false);
        assert_eq!(passes_on, 1, "kit-on: one FTRAN of the residual");
        assert_eq!(passes_off, 3, "kit-off: B⁻¹b plus one pass per nonzero nonbasic column");
        for (j, (on, off)) in x_on.iter().zip(&x_off).enumerate() {
            assert!((on - off).abs() <= 1e-9, "x[{j}]: kit-on {on} vs kit-off {off}");
        }
        // The basics actually moved off zero, so the comparison is not
        // vacuous: 2·x0 + x1 = 30 − 7.5, x0 + 3·x1 = 40 − 16.25.
        assert!((x_on[0] - 8.75).abs() < 1e-9 && (x_on[1] - 5.0).abs() < 1e-9, "{x_on:?}");
    }

    /// Every install increments exactly one of `lu_factorizations` (a
    /// factorization) or `restores` (a sibling's install restored), so the
    /// two sum to the installs and the bench report attributes the
    /// factorization floor honestly. A node with two children installs its
    /// basis once: the first child factorizes it, the second restores it.
    #[test]
    fn memo_hit_accounting_sums_to_installs() {
        let (lp, sp, warm, j) = branched_knapsack();
        let prep = PreparedLp::new(&lp);
        let boxes = [(0.0, 0.0), (1.0, 3.0)];
        let count = |children: bool| {
            let scope = std::sync::Arc::new(crate::SolveActivity::default());
            crate::SolveActivity::scoped(&scope, || {
                let (mut lower, mut upper) = (lp.lower.clone(), lp.upper.clone());
                if children {
                    let outs = prep.solve_children(
                        &mut lower,
                        &mut upper,
                        Some(&warm),
                        true,
                        j,
                        &boxes,
                        || false,
                    );
                    assert_eq!(outs.len(), 2);
                } else {
                    for (lo, hi) in boxes {
                        (lower[j], upper[j]) = (lo, hi);
                        prep.solve_node(&lower, &upper, Some(&warm), true);
                    }
                }
            });
            let s = scope.snapshot();
            assert_eq!((s.warm_attempts, s.warm_hits, s.lp_solves), (2, 2, 2), "{s:?}");
            (s.lu_factorizations, s.memo_sibling_hits)
        };
        assert_eq!(count(false), (2, 0), "two solves: two factorizations");
        assert_eq!(count(true), (1, 1), "two children: one factorization, one restore");
        // On one engine: the install counts a factorization, the restore a
        // hit and nothing else.
        let mut e = Revised::new(&sp, &lp.lower, &lp.upper, true);
        assert!(e.install(&warm.status));
        assert_eq!((e.counts.lu_factorizations, e.counts.memo_sibling_hits), (1, 0));
        e.save_install();
        assert!(matches!(e.run(), RunOutcome::Optimal));
        assert!(e.can_restore());
        e.restore(j, 1.0, 3.0);
        let lu = e.lu_totals();
        assert_eq!((lu.lu_factorizations, lu.memo_sibling_hits), (0, 1), "reported counters agree");
        let restore = SolveStats { memo_sibling_hits: 1, ..SolveStats::default() };
        assert_eq!(lu, restore, "a restore counts nothing but itself");
    }

    /// A maximize knapsack whose LP optimum leaves `x2 = 2/3` basic, with
    /// `x2 ∈ [0, 3]`: its down child pins `x2` at 0, its up child leaves it
    /// movable in `[1, 3]`. Returns the LP, its matrix, the optimal basis
    /// and the branched column.
    fn branched_knapsack() -> (LpProblem<'static>, SparseLp, Basis, usize) {
        let lp = LpProblem {
            n_vars: 3,
            lower: vec![0.0; 3],
            upper: vec![1.0, 1.0, 3.0],
            rows: LpRows::owned(vec![LpRow {
                coeffs: vec![(0, 10.0), (1, 20.0), (2, 30.0)],
                op: CmpOp::Le,
                rhs: 50.0,
            }]),
            objective: vec![60.0, 100.0, 120.0],
            minimize: false,
            objective_offset: 0.0,
        };
        let sp = SparseLp::build(&lp);
        let mut e = Revised::new(&sp, &lp.lower, &lp.upper, false);
        let cold = e.cold_statuses();
        assert!(e.install(&cold));
        assert!(matches!(e.run(), RunOutcome::Optimal));
        assert_eq!(e.status[2], ColStatus::Basic);
        assert!((e.x[2] - 2.0 / 3.0).abs() < 1e-12, "x2 = {}", e.x[2]);
        let warm = Basis { status: e.status.clone() };
        drop(e);
        (lp, sp, warm, 2)
    }

    /// Everything an install leaves in an engine, floats as bit patterns.
    #[derive(Debug, PartialEq)]
    struct InstallBits {
        lower: Vec<u64>,
        upper: Vec<u64>,
        x: Vec<u64>,
        status: Vec<ColStatus>,
        factor: FactorBits,
        factor_etas: usize,
        cands: Vec<u32>,
        devex: Vec<u64>,
        devex_active: bool,
        price_cursor: usize,
        degen_streak: u32,
        counters: SolveStats,
        iters: (u64, u64),
    }

    fn install_bits(e: &Revised) -> InstallBits {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        InstallBits {
            lower: bits(&e.lower),
            upper: bits(&e.upper),
            x: bits(&e.x),
            status: e.status.clone(),
            factor: factor_bits(e),
            factor_etas: e.factor_etas,
            cands: e.cands.clone(),
            devex: bits(&e.devex),
            devex_active: e.devex_active,
            price_cursor: e.price_cursor,
            degen_streak: e.degen_streak,
            counters: e.lu_totals(),
            iters: e.iters(),
        }
    }

    /// Restoring a node's install for its second child leaves the engine
    /// in the state a fresh engine installing the same basis under that
    /// child's bounds reaches, bit for bit: point, statuses, row
    /// assignment, every eta array, `cands`, the devex weights and the
    /// pricing state, including what a long first child leaves. Both
    /// orders of the two children, so each box is restored into once; the
    /// down box (`lo == hi`) drops the branched column from `cands`, the up
    /// box puts it back. Kit off and on, because the kit changes the
    /// elimination order and the basic-value recompute.
    #[test]
    fn restore_equals_a_fresh_install_under_the_siblings_bounds() {
        let (lp, sp, warm, j) = branched_knapsack();
        let down = (0.0, 0.0);
        let up = (1.0, 3.0);
        let with_box = |(lo, hi): (f64, f64)| {
            let (mut lower, mut upper) = (lp.lower.clone(), lp.upper.clone());
            (lower[j], upper[j]) = (lo, hi);
            (lower, upper)
        };
        for kit in [false, true] {
            for (first, second) in [(down, up), (up, down)] {
                let (lower, upper) = with_box(second);
                let mut fresh = Revised::new(&sp, &lower, &upper, kit);
                assert!(fresh.install(&warm.status));
                let mut expect = install_bits(&fresh);
                expect.counters = SolveStats { memo_sibling_hits: 1, ..SolveStats::default() };
                drop(fresh);

                let (lower, upper) = with_box(first);
                let mut e = Revised::new(&sp, &lower, &upper, kit);
                assert!(e.install(&warm.status));
                e.save_install();
                assert!(matches!(e.run(), RunOutcome::Optimal));
                let (p1, p2) = e.iters();
                assert!(p1 + p2 > 0, "kit={kit}: the first child must pivot");
                assert!(e.can_restore());
                // What a long first child leaves behind: this one is too
                // short to switch to devex pricing or to stall.
                if kit {
                    e.devex_active = true;
                    e.devex[0] = 5.0;
                }
                (e.price_cursor, e.degen_streak) = (3, 2);
                e.restore(j, second.0, second.1);
                let what = format!("kit={kit} first={first:?}");
                assert_eq!(install_bits(&e), expect, "{what}");
                let movable = second.1 > second.0;
                assert_eq!(e.cands.contains(&(j as u32)), movable, "{what}");
            }
        }
    }

    /// Two structurals over four rows, each with its largest entry in a row
    /// whose logical is basic too: the shape where the two elimination
    /// orders part. Returns the model and that basis (x0, x1, s0, s1).
    fn structurals_over_basic_logicals() -> (LpProblem<'static>, SparseLp, Vec<ColStatus>) {
        let (lp, sp) = prep(
            vec![
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 10.0 },
                LpRow { coeffs: vec![(1, 1.0)], op: CmpOp::Le, rhs: 10.0 },
                LpRow { coeffs: vec![(0, 0.5), (1, 0.25)], op: CmpOp::Le, rhs: 10.0 },
                LpRow { coeffs: vec![(0, 0.25), (1, 0.5)], op: CmpOp::Le, rhs: 10.0 },
            ],
            2,
            10.0,
        );
        let mut statuses = vec![ColStatus::AtLower; sp.n];
        statuses[..4].fill(ColStatus::Basic);
        (lp, sp, statuses)
    }

    /// The factor an install left in `e`, floats as bit patterns, plus its
    /// row assignment: what two factorizations share when one replays the
    /// other.
    #[derive(Debug, PartialEq)]
    struct FactorBits {
        pos: Vec<u32>,
        inv: Vec<u64>,
        ptr: Vec<u32>,
        row: Vec<u32>,
        val: Vec<u64>,
        basis: Vec<usize>,
    }

    fn factor_bits(e: &Revised) -> FactorBits {
        assert_eq!(e.n_etas(), e.factor_etas, "no update etas yet");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        FactorBits {
            pos: e.eta_pos.clone(),
            inv: bits(&e.eta_inv),
            ptr: e.eta_ptr.clone(),
            row: e.eta_row.clone(),
            val: bits(&e.eta_val),
            basis: e.basis.clone(),
        }
    }

    /// Logicals first, every basic logical claims its own row with an
    /// elided identity eta, so a kit-on factor stores at most one eta per
    /// basic structural. The oracle order lets each structural claim a
    /// logical's row first and then stores that logical's dense transform.
    #[test]
    fn kit_on_factor_stores_at_most_one_eta_per_basic_structural() {
        let (lp, sp, statuses) = structurals_over_basic_logicals();
        let k = statuses[..sp.n_struct].iter().filter(|&&s| s == ColStatus::Basic).count();
        let factor = |kit: bool| {
            let mut e = Revised::new(&sp, &lp.lower, &lp.upper, kit);
            assert!(e.install(&statuses), "kit={kit}");
            (e.n_etas(), e.counts.lu_fill_nnz)
        };
        let (etas_on, fill_on) = factor(true);
        let (etas_off, fill_off) = factor(false);
        assert!(etas_on <= k, "kit-on: {etas_on} etas for {k} basic structurals");
        assert!(etas_off > etas_on, "kit-off: {etas_off} etas, kit-on {etas_on}");
        assert!(fill_on < fill_off, "fill: kit-on {fill_on}, kit-off {fill_off}");
    }

    /// A kit-off install keeps the dense oracle's elimination order: it
    /// claims the rows the oracle's Gauss-Jordan claims and starts from
    /// the oracle's basic values bit for bit, which is what lets small
    /// trees replay the oracle's search. A kit-on install claims other
    /// rows on this basis.
    #[test]
    fn kit_off_factor_equals_exact_parity_bit_for_bit() {
        let (lp, sp, statuses) = structurals_over_basic_logicals();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut oracle = crate::dense::Tableau::build(&sp, &lp.lower, &lp.upper);
        assert!(oracle.install(&statuses));
        let want = (oracle.basis().to_vec(), bits(oracle.solution().0));
        let install = |kit: bool| {
            let mut e = Revised::new(&sp, &lp.lower, &lp.upper, kit);
            assert!(e.install(&statuses), "kit={kit}");
            (e.basis.clone(), bits(&e.x))
        };
        assert_eq!(install(false), want);
        assert_ne!(install(true).0, want.0, "the orders part on this basis");
    }
}
