//! Bounded-variable primal simplex: engine dispatch, shared types and the
//! warm-start orchestration.
//!
//! Two interchangeable engines solve the LP relaxations:
//!
//! * [`revised`](crate::revised) (default) — a revised simplex over the
//!   sparse CSC matrix built once per model by [`SparseLp`]. Each solve
//!   factorizes its starting basis with a sparse product-form elimination
//!   (logical columns claim rows with empty etas, so a mostly-slack
//!   floorplan basis factorizes in O(nnz of the structural basics)),
//!   appends one eta per pivot, and refactorizes on a deterministic
//!   update-count trigger. Iteration cost is O(nnz), not O(m·n).
//! * [`dense`](crate::dense) — the original dense-tableau implementation,
//!   kept behind [`LpEngine::Dense`] as the differential-testing oracle
//!   for the sparse path.
//!
//! Both engines share every numerical decision rule — the [`Tolerances`]
//! set, Dantzig pricing with Bland fallback, the anti-cycling guard that
//! forces Bland's rule after [`DEGEN_BLAND_AFTER`] consecutive degenerate
//! pivots, the bounded-variable ratio test and its tie-breaks — so they
//! agree on verdicts and, under the opt-in [`LpParity::Exact`] oracle mode,
//! on the entire branch-and-bound node tree. The default
//! [`LpParity::Fast`] keeps that replay only for searches below the
//! kit-restart threshold; past it the sparse engine repairs children with
//! the dual simplex and reorders arithmetic, and the answers are vouched
//! for by [`certify`](crate::certify) instead of by replay. Two properties
//! matter for branch and bound:
//!
//! * **Bounds are handled natively in the ratio test.** Finite lower/upper
//!   bounds never materialize as extra constraint rows or split/shifted
//!   columns, so tightening one branching bound leaves the column set —
//!   and therefore any saved [`Basis`] — unchanged between parent and child
//!   nodes.
//! * **Warm starts.** [`PreparedLp::solve_warm`] refactorizes a parent
//!   basis against the child's bounds and re-solves with the composite
//!   phase 1 (a no-op when the parent point is still feasible) followed by
//!   phase 2. A child that moved one bound typically re-solves in a
//!   handful of pivots instead of a full cold start.
//!
//! Iteration counts, warm-start hits and factorization work feed the
//! process-wide [`SolveActivity`](crate::SolveActivity) counters.

use std::borrow::Cow;

use crate::cancel::CancellationToken;
use crate::model::{CmpOp, Rows};
use crate::sparse::SparseLp;
use crate::stats;
use crate::{dense, revised};

/// The numerical tolerances every simplex decision goes through, unified
/// here so the two engines (and the warm and cold paths inside each) can
/// never disagree on a verdict. They used to be five ad-hoc constants; a
/// point could pass the ratio test at the pivot tolerance yet flip between
/// "feasible" and "infeasible" depending on which path classified it.
///
/// | field        | value  | gates                                           |
/// |--------------|--------|-------------------------------------------------|
/// | `feas`       | `1e-7` | bound-violation test of a basic variable        |
/// | `pivot`      | `1e-9` | smallest usable pivot / "column can move" span  |
/// | `dual`       | `1e-7` | reduced-cost optimality (pricing)               |
/// | `refactor`   | `1e-8` | smallest pivot accepted when factorizing a basis|
/// | `infeasible` | `1e-6` | total phase-1 violation that condemns the LP    |
///
/// `infeasible` is deliberately looser than `feas`: it must match the
/// `1e-6` integrality/feasibility checks of the MIP layer
/// ([`Model::is_feasible`](crate::Model)), so a relaxation the branch and
/// bound would accept is never condemned by phase 1.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tolerances {
    /// Bound-violation tolerance for basic variables (phase-1 membership).
    pub feas: f64,
    /// Pivot magnitude floor; also the minimum span of a movable column.
    pub pivot: f64,
    /// Reduced-cost threshold below which a column is not worth entering.
    pub dual: f64,
    /// Minimum pivot magnitude accepted when (re)factorizing a basis.
    pub refactor: f64,
    /// Total converged phase-1 violation above which the LP is infeasible.
    pub infeasible: f64,
}

/// The one tolerance set both engines use.
pub(crate) const TOL: Tolerances =
    Tolerances { feas: 1e-7, pivot: 1e-9, dual: 1e-7, refactor: 1e-8, infeasible: 1e-6 };

/// Consecutive degenerate pivots (steps of zero length) tolerated before
/// pricing switches to Bland's rule until the iterate moves again. Dantzig
/// pricing can cycle on degenerate vertices (Beale's example) — without
/// this guard such a solve only "terminates" by burning its iteration cap,
/// which the deadline then reports as a timeout instead of an optimum.
pub(crate) const DEGEN_BLAND_AFTER: u32 = 40;

/// Relative tie band for Dantzig pricing: a candidate must beat the
/// incumbent best score by more than this *relative* margin to displace
/// it; anything closer is a tie and the earlier (lower-index) column
/// stays. On the combinatorial LPs this crate solves, many columns share
/// the exact same reduced cost, and the two engines compute those costs
/// through different (mathematically equal) formulas — a strict `>` would
/// let last-ulp roundoff pick different columns per engine and send the
/// branch-and-bound trees apart. Real score gaps are either zero or far
/// above this band.
pub(crate) const PRICE_BAND: f64 = 1e-9;

/// The constraint rows of an [`LpProblem`]: a model's row block, borrowed,
/// whole or through presolve's [`Reduction`]. Reduced row `i` is block row
/// `rows[i]` with its adjusted right-hand side, without its zero terms and
/// its terms on fixed columns; the others keep block order, renumbered into
/// the reduced columns.
#[derive(Debug, Clone)]
pub(crate) struct LpRows<'a> {
    pub block: Cow<'a, Rows>,
    pub reduction: Option<Reduction>,
}

/// What presolve keeps of a row block.
#[derive(Debug, Clone)]
pub(crate) struct Reduction {
    /// Block index of each kept row, ascending.
    pub rows: Vec<usize>,
    /// Each kept row's right-hand side, its fixed columns substituted.
    pub rhs: Vec<f64>,
    /// Reduced index of each block column, `usize::MAX` for a fixed one.
    pub col: Vec<usize>,
}

impl LpRows<'_> {
    pub fn len(&self) -> usize {
        self.reduction.as_ref().map_or(self.block.len(), |r| r.rows.len())
    }

    /// Row `i`: its operator, right-hand side and `(column, coefficient)`
    /// terms in block order.
    pub fn row(&self, i: usize) -> (CmpOp, f64, impl Iterator<Item = (usize, f64)> + Clone + '_) {
        let (row, rhs, col) = match &self.reduction {
            None => (self.block.row(i), None, None),
            Some(r) => (self.block.row(r.rows[i]), Some(r.rhs[i]), Some(&r.col[..])),
        };
        let terms = row.terms.iter().filter_map(move |&(v, a)| match col {
            None => Some((v.index(), a)),
            Some(col) => (col[v.index()] != usize::MAX && a != 0.0).then(|| (col[v.index()], a)),
        });
        (row.op, rhs.unwrap_or(row.rhs), terms)
    }
}

/// One row in sparse form, for tests that write an LP by hand.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct LpRow {
    pub coeffs: Vec<(usize, f64)>,
    pub op: CmpOp,
    pub rhs: f64,
}

#[cfg(test)]
impl LpRows<'static> {
    /// A whole view of a block holding `rows`, stored as written.
    pub fn owned(rows: Vec<LpRow>) -> LpRows<'static> {
        let nnz = rows.iter().map(|r| r.coeffs.len()).sum();
        let mut block = Rows::with_capacity(rows.len(), nnz);
        for r in rows {
            let terms: Vec<_> = r.coeffs.iter().map(|&(j, a)| (crate::VarId(j), a)).collect();
            block.push(&terms, r.op, r.rhs);
        }
        LpRows { block: Cow::Owned(block), reduction: None }
    }
}

/// A bounded LP: `opt c·x + k` s.t. `rows`, `lower <= x <= upper`.
#[derive(Debug, Clone)]
pub(crate) struct LpProblem<'a> {
    pub n_vars: usize,
    pub lower: Vec<f64>,
    pub upper: Vec<f64>,
    pub rows: LpRows<'a>,
    pub objective: Vec<f64>,
    pub minimize: bool,
    pub objective_offset: f64,
}

/// Status of one simplex column (structural or logical) — the unit of
/// warm-start state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColStatus {
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// In the basis.
    Basic,
    /// Nonbasic free variable, parked at zero.
    Free,
}

/// A basis snapshot: one [`ColStatus`] per column (`n_vars` structural
/// columns followed by one logical column per row). Because bounds never
/// change the column set, a parent's basis is always dimensionally valid
/// for its branch-and-bound children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Basis {
    pub status: Vec<ColStatus>,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone)]
pub(crate) enum LpOutcome {
    Optimal {
        values: Vec<f64>,
        objective: f64,
        basis: Basis,
    },
    Infeasible,
    Unbounded,
    /// The cancellation token tripped mid-solve; no verdict was reached.
    /// Never conflated with [`LpOutcome::Infeasible`] — a cancelled LP
    /// must not condemn a branch-and-bound subtree.
    Cancelled,
}

/// Which simplex implementation solves the LP relaxations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LpEngine {
    /// Sparse revised simplex with product-form basis updates (default).
    Sparse,
    /// Dense-tableau simplex — the original engine, kept as the
    /// differential-testing oracle.
    Dense,
}

/// Arithmetic-parity contract of the sparse engine against the dense
/// tableau oracle.
///
/// [`LpParity::Fast`] is what every solve runs unless told otherwise. It
/// holds the sparse engine to a bounded-objective contract (agreement with
/// the oracle to `1e-6`) rather than bit equality, which is what permits:
///
/// * a **dual-simplex repair** of warm-started branch-and-bound children
///   in place of re-running phase 1;
/// * **devex pricing** (a reference-framework steepest-edge approximation)
///   in place of the banded Dantzig rule on long solves;
/// * **Forrest–Tomlin-style eta replacement** — consecutive pivots on the
///   same row compose into one eta instead of appending, so the eta file
///   stops growing monotonically;
/// * **fill-triggered mid-solve refactorization** (`eta_nnz` budget, not
///   just update count) with a single-FTRAN basic-value recompute.
///
/// That kit engages only once a search has reached the kit-restart point
/// (384 expanded nodes, or `384 × 128 / rows` on LPs of more than 128
/// rows); smaller searches replay the exact trajectory bit for bit. Fast
/// mode stays fully deterministic: every entering/leaving choice is a pure
/// function of the node's model and bounds, so results are bit-identical
/// from run to run. Correctness of the answers does
/// not rest on replay: every solution returned through
/// [`Model::solve_with_options`](crate::Model::solve_with_options) is
/// re-checked against the original model by [`certify`](crate::certify).
///
/// [`LpParity::Exact`] is the opt-in oracle mode: every sparse solve
/// replays the dense tableau's Gauss-Jordan operation for operation — same
/// pivot rows, bit-identical basic values, identical branch-and-bound node
/// trees. The cross-engine differential tests and the CI solve-count
/// assertions select it explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LpParity {
    /// Bit-identical oracle replay (opt-in).
    Exact,
    /// Reordered arithmetic, bounded objective tolerance vs the oracle
    /// (default).
    Fast,
}

/// How one simplex run ended (engine-internal verdict).
pub(crate) enum RunOutcome {
    Optimal,
    Infeasible,
    Unbounded,
    /// Iteration cap or numerical trouble; the caller retries or degrades.
    Stalled,
    /// The cancellation token tripped; the engine stopped cooperatively.
    Cancelled,
}

/// How many inner simplex iterations may pass between polls of the
/// cancellation token. Bounds worst-case cancel latency to
/// `CANCEL_CHECK_EVERY × one-pivot cost` in *every* engine loop — phase 1,
/// phase 2, devex pricing refreshes, and the fast-parity dual repair all
/// count against the same budget.
pub(crate) const CANCEL_CHECK_EVERY: u64 = 64;

/// Shared per-engine poll helper: counts iterations and polls `cancel`
/// every [`CANCEL_CHECK_EVERY`]-th call. Engines embed one and call
/// [`CancelProbe::tripped`] at the top of each pivot loop.
#[derive(Debug, Default)]
pub(crate) struct CancelProbe {
    cancel: Option<CancellationToken>,
    ticks: u64,
}

impl CancelProbe {
    /// Arms the probe (no-op when `cancel` is `None`).
    pub fn arm(&mut self, cancel: Option<CancellationToken>) {
        self.cancel = cancel;
    }

    /// One loop iteration: `true` when the token has tripped. Polls the
    /// token on the first call and then every [`CANCEL_CHECK_EVERY`]-th.
    pub fn tripped(&mut self) -> bool {
        let Some(tok) = &self.cancel else { return false };
        let poll = self.ticks % CANCEL_CHECK_EVERY == 0;
        self.ticks += 1;
        poll && tok.is_cancelled()
    }

    /// Restarts the poll count, keeping the token: the probe a new engine
    /// would carry.
    pub fn rewind(&mut self) {
        self.ticks = 0;
    }
}

/// One ratio-test result, shared by both engines.
pub(crate) enum Step {
    /// The entering column travels to its opposite bound; no basis change.
    Flip { delta: f64 },
    /// The basic variable of `row` blocks first; pivot.
    Pivot { row: usize, delta: f64 },
    /// Nothing blocks.
    Unbounded,
}

impl Step {
    /// A pivot that moved the iterate by (essentially) nothing — the unit
    /// the [`DEGEN_BLAND_AFTER`] anti-cycling guard counts. Bound flips
    /// always travel the full (positive) span between the bounds.
    pub fn is_degenerate(&self) -> bool {
        matches!(self, Step::Pivot { delta, .. } if *delta <= TOL.pivot)
    }
}

/// What [`drive`] needs from an engine: install a basis, run the two
/// phases, and expose the solution state. `drive` constructs a fresh engine
/// per installation attempt; only a sibling's restored install
/// ([`PreparedLp::solve_children`]) runs an engine twice.
pub(crate) trait EngineCore {
    /// The all-logical starting basis for the current bounds.
    fn cold_statuses(&self) -> Vec<ColStatus>;
    /// Factorizes `statuses`' basic set and adopts the nonbasic statuses
    /// (clamped to the current bounds). `false` when not a valid basis.
    fn install(&mut self, statuses: &[ColStatus]) -> bool;
    /// Arms cooperative cancellation: the engine's iteration loops must
    /// poll the token at least every [`CANCEL_CHECK_EVERY`] pivots and
    /// return [`RunOutcome::Cancelled`] when it trips.
    fn set_cancel(&mut self, cancel: CancellationToken);
    /// Composite phase 1 then phase 2.
    fn run(&mut self) -> RunOutcome;
    /// `(phase1, phase2)` iterations performed so far.
    fn iters(&self) -> (u64, u64);
    /// Current point and statuses (for [`extract_outcome`]).
    fn solution(&self) -> (&[f64], &[ColStatus]);
    /// Keeps the install just made, for a sibling to restore. Engines
    /// without a factorization to share (dense) keep nothing.
    fn save_install(&mut self) {}
    /// The saved install can still be restored: no factorization has
    /// replaced it since.
    fn can_restore(&self) -> bool {
        false
    }
    /// Factorization counters accumulated by this engine instance, in
    /// [`SolveActivity::record_lu`](crate::stats) argument order; `None`
    /// for engines without a factorization (dense).
    fn lu_totals(&self) -> Option<[u64; 11]> {
        None
    }
}

/// The shared cold-start statuses: structural columns at their nearest
/// finite bound, every logical column basic.
pub(crate) fn cold_statuses_for(
    lower: &[f64],
    upper: &[f64],
    n_struct: usize,
    m: usize,
) -> Vec<ColStatus> {
    let mut s = Vec::with_capacity(n_struct + m);
    for j in 0..n_struct {
        s.push(if lower[j].is_finite() {
            ColStatus::AtLower
        } else if upper[j].is_finite() {
            ColStatus::AtUpper
        } else {
            ColStatus::Free
        });
    }
    s.extend(std::iter::repeat_n(ColStatus::Basic, m));
    s
}

/// Turns an engine's final state into the caller-facing [`LpOutcome`]:
/// clamps roundoff past the bounds and re-prices the point against the
/// *original* (unscaled) objective.
pub(crate) fn extract_outcome(
    lp: &LpProblem,
    lower: &[f64],
    upper: &[f64],
    x: &[f64],
    status: &[ColStatus],
    out: RunOutcome,
) -> LpOutcome {
    match out {
        RunOutcome::Infeasible | RunOutcome::Stalled => LpOutcome::Infeasible,
        RunOutcome::Unbounded => LpOutcome::Unbounded,
        RunOutcome::Cancelled => LpOutcome::Cancelled,
        RunOutcome::Optimal => {
            let mut values = x[..lp.n_vars].to_vec();
            for (j, v) in values.iter_mut().enumerate() {
                // Clamp tiny bound violations from roundoff, one side at a
                // time: a column with one finite bound can end past it, and
                // an infinite side never binds.
                if *v < lower[j] {
                    *v = lower[j];
                } else if *v > upper[j] {
                    *v = upper[j];
                }
            }
            let objective = crate::branch_bound::objective_of(lp, &values);
            LpOutcome::Optimal { values, objective, basis: Basis { status: status.to_vec() } }
        }
    }
}

/// An LP prepared for repeated node solves: the borrowed problem plus the
/// scaled CSC matrix every solve shares — built **once** per model, because
/// branch and bound only ever changes bounds, never the matrix. Nothing a
/// solve computes outlives it: the two children of a branched node share
/// one install ([`solve_children`](Self::solve_children)), and every other
/// solve factorizes its own basis.
pub(crate) struct PreparedLp<'a> {
    pub lp: &'a LpProblem<'a>,
    engine: LpEngine,
    parity: LpParity,
    pub sparse: SparseLp,
    /// Cooperative cancellation, polled inside every engine's pivot loops.
    cancel: Option<CancellationToken>,
}

impl<'a> PreparedLp<'a> {
    /// Prepares `lp` for `engine` under `parity`. The dense oracle ignores
    /// the parity switch — it *is* the exact reference arithmetic.
    pub fn new(lp: &'a LpProblem<'a>, engine: LpEngine, parity: LpParity) -> PreparedLp<'a> {
        PreparedLp { lp, engine, parity, sparse: SparseLp::build(lp), cancel: None }
    }

    /// Arms cooperative cancellation for every subsequent
    /// [`PreparedLp::solve_warm`] on this prepared model.
    pub fn set_cancel(&mut self, cancel: Option<CancellationToken>) {
        self.cancel = cancel;
    }

    /// Solves with overriding bounds, warm-starting from `warm` when given.
    /// A basis that fails to refactorize (or a solve that stalls out of it)
    /// falls back to a cold start; the outcome is exact either way.
    pub fn solve_warm(&self, lower: &[f64], upper: &[f64], warm: Option<&Basis>) -> LpOutcome {
        self.solve_node(lower, upper, warm, true)
    }

    /// [`solve_warm`](Self::solve_warm) with the branch-and-bound drivers'
    /// per-node control over the fast-parity kit (dual repair, the
    /// one-FTRAN basis install, the logicals-first factorization order and
    /// the hybrid devex switch). The drivers pass `fast_kit: false` for the
    /// root and the opening stretch of a search (a node ordinal below
    /// [`crate::node::kit_restart_after`] of the LP's row count): small
    /// searches are already fast under the exact trajectory, and the kit's
    /// different — and typically denser — optimal vertices grow exactly
    /// those trees. Only once a search has proven big do the kit's
    /// per-solve savings amortize. The flag is a pure function of the
    /// node's position in the search order and the LP's width, so the
    /// search stays deterministic. Exact parity ignores it
    /// entirely.
    pub(crate) fn solve_node(
        &self,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
        fast_kit: bool,
    ) -> LpOutcome {
        self.solve_with(lower, upper, warm, fast_kit, None)
    }

    /// [`solve_node`](Self::solve_node) with `drive`'s sibling slot, which
    /// only the sparse engine fills.
    fn solve_with<'s>(
        &'s self,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
        fast_kit: bool,
        sibling: Option<&mut Option<revised::Revised<'s>>>,
    ) -> LpOutcome {
        debug_assert_eq!(lower.len(), self.lp.n_vars);
        debug_assert_eq!(upper.len(), self.lp.n_vars);
        let cancel = self.cancel.as_ref();
        match self.engine {
            LpEngine::Dense => drive(self.lp, lower, upper, warm, cancel, None, || {
                dense::Tableau::build(&self.sparse, lower, upper)
            }),
            LpEngine::Sparse => drive(self.lp, lower, upper, warm, cancel, sibling, || {
                revised::Revised::new(&self.sparse, lower, upper, self.parity, fast_kit)
            }),
        }
    }

    /// Solves the children of a node branched on column `j`, in `boxes`
    /// order: child `k` is the node's bounds (`lower`/`upper`) with `j`
    /// moved to `boxes[k]`. Each outcome equals what
    /// [`solve_node`](Self::solve_node) returns for that child, bit for
    /// bit, and so do the counters, except that a restored install counts
    /// in `memo_sibling_hits` where `solve_node` would factorize.
    ///
    /// `cancelled` is polled before every child; a tripped poll ends the
    /// list with [`LpOutcome::Cancelled`], as does a cancelled solve. An
    /// unbounded child ends it too. `lower`/`upper` come back holding the
    /// node's bounds.
    ///
    /// On the sparse engine, with `warm` given and `j` basic in it, the
    /// node's basis is installed once: the first child that needs it
    /// installs it, and the next restores that install
    /// ([`Revised::restore`](revised::Revised::restore)) instead of
    /// factorizing the same basis again. `j` is fractional at the node, so
    /// it is basic there, and the children's installs differ only in its
    /// bounds. A child whose solve refactorized or stalled leaves nothing
    /// to restore, and the next one installs afresh. The dense oracle
    /// installs once per child.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_children(
        &self,
        lower: &mut [f64],
        upper: &mut [f64],
        warm: Option<&Basis>,
        fast_kit: bool,
        j: usize,
        boxes: &[(f64, f64)],
        cancelled: impl Fn() -> bool,
    ) -> Vec<LpOutcome> {
        let (node_lo, node_hi) = (lower[j], upper[j]);
        // A sibling can restore the node's install only when `j` is basic
        // in it; `drive` keeps the installed engine in `kept` in between.
        let share = warm.is_some_and(|b| b.status.get(j) == Some(&ColStatus::Basic));
        let mut kept: Option<revised::Revised> = None;
        let mut outcomes = Vec::with_capacity(boxes.len());
        for &(lo, hi) in boxes {
            if cancelled() {
                outcomes.push(LpOutcome::Cancelled);
                break;
            }
            lower[j] = lo;
            upper[j] = hi;
            if let Some(e) = &mut kept {
                e.restore(j, lo, hi);
            }
            let out = self.solve_with(lower, upper, warm, fast_kit, share.then_some(&mut kept));
            let last = matches!(out, LpOutcome::Unbounded | LpOutcome::Cancelled);
            outcomes.push(out);
            if last {
                break;
            }
        }
        lower[j] = node_lo;
        upper[j] = node_hi;
        outcomes
    }
}

/// Solves `lp` with its stored bounds, cold, on the given engine/parity.
/// One-off entry point; repeated node solves go through [`PreparedLp`].
pub(crate) fn solve(
    lp: &LpProblem,
    engine: LpEngine,
    parity: LpParity,
    cancel: Option<CancellationToken>,
) -> LpOutcome {
    let mut prep = PreparedLp::new(lp, engine, parity);
    prep.set_cancel(cancel);
    prep.solve_warm(&lp.lower, &lp.upper, None)
}

/// The warm/cold orchestration both engines run under.
///
/// The warm-hit counter is recorded *here*, structurally after a completed
/// warm run and nowhere else — the refactorization-failure and stall
/// fallbacks can no longer overcount hits the way the per-engine
/// bookkeeping once did ([`SolverActivityReport`](crate::SolveStats) reads
/// these counters).
///
/// `sibling` carries one install of `warm` between the children of a
/// branched node ([`PreparedLp::solve_children`]). An engine found there
/// already holds that install, restored to this child's bounds, and is
/// run instead of a fresh install. A fresh install is saved, and a warm
/// run that leaves it restorable puts its engine back for the next child.
fn drive<E: EngineCore>(
    lp: &LpProblem,
    lower: &[f64],
    upper: &[f64],
    warm: Option<&Basis>,
    cancel: Option<&CancellationToken>,
    mut sibling: Option<&mut Option<E>>,
    mut make: impl FnMut() -> E,
) -> LpOutcome {
    // Quick bound sanity: an empty box is infeasible.
    for j in 0..lp.n_vars {
        if lower[j] > upper[j] + TOL.feas {
            return LpOutcome::Infeasible;
        }
    }
    let mut make = || {
        let mut e = make();
        if let Some(tok) = cancel {
            e.set_cancel(tok.clone());
        }
        e
    };

    // Pivots burned by a stalled warm attempt still count towards the
    // solve's iteration total, so the warm-vs-cold comparisons stay honest
    // exactly where warm starting performs worst. Factorization work is
    // likewise accumulated across attempts and flushed once per solve.
    let (mut wasted_p1, mut wasted_p2) = (0u64, 0u64);
    let mut lu = [0u64; 11];
    let add_lu = |e: &E, lu: &mut [u64; 11]| {
        if let Some(t) = e.lu_totals() {
            for (acc, v) in lu.iter_mut().zip(t) {
                *acc += v;
            }
        }
    };
    if let Some(basis) = warm {
        stats::record(|a| a.record_warm_attempt());
        let kept = sibling.as_mut().and_then(|s| s.take());
        let restored = kept.is_some();
        let mut e = kept.unwrap_or_else(&mut make);
        if restored || e.install(&basis.status) {
            if !restored && sibling.is_some() {
                e.save_install();
            }
            let out = e.run();
            add_lu(&e, &mut lu);
            if matches!(out, RunOutcome::Cancelled) {
                // No cold fallback: the caller asked the solve to stop.
                // The attempt stays counted without a hit (nothing was
                // completed), but the burned pivots are still recorded.
                let (p1, p2) = e.iters();
                stats::record(|a| {
                    a.record_lp_solve(p1, p2);
                    if lu.iter().any(|&v| v != 0) {
                        a.record_lu(&lu);
                    }
                });
                return LpOutcome::Cancelled;
            }
            if !matches!(out, RunOutcome::Stalled) {
                let (p1, p2) = e.iters();
                stats::record(|a| {
                    a.record_warm_hit();
                    a.record_lp_solve(p1, p2);
                    if lu.iter().any(|&v| v != 0) {
                        a.record_lu(&lu);
                    }
                });
                let (x, status) = e.solution();
                let out = extract_outcome(lp, lower, upper, x, status, out);
                if let Some(slot) = sibling.filter(|_| e.can_restore()) {
                    *slot = Some(e);
                }
                return out;
            }
            let (p1, p2) = e.iters();
            wasted_p1 = p1;
            wasted_p2 = p2;
        } else {
            add_lu(&e, &mut lu);
        }
        // Refactorization failed or the solve stalled: fall through to a
        // cold start. The attempt stays counted without a hit.
    }

    let mut e = make();
    let cold = e.cold_statuses();
    let installed = e.install(&cold);
    debug_assert!(installed, "the all-logical basis always refactorizes");
    let out = e.run();
    add_lu(&e, &mut lu);
    let (p1, p2) = e.iters();
    stats::record(|a| {
        a.record_lp_solve(p1 + wasted_p1, p2 + wasted_p2);
        if lu.iter().any(|&v| v != 0) {
            a.record_lu(&lu);
        }
    });
    // A stalled cold solve signals numerical trouble; treat as infeasible
    // (same convention as the original two-phase implementation).
    let out = if matches!(out, RunOutcome::Stalled) { RunOutcome::Infeasible } else { out };
    let (x, status) = e.solution();
    extract_outcome(lp, lower, upper, x, status, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{SolveActivity, SolveStats};
    use std::sync::Arc;

    fn lp(
        n: usize,
        lower: Vec<f64>,
        upper: Vec<f64>,
        rows: Vec<LpRow>,
        objective: Vec<f64>,
        minimize: bool,
    ) -> LpProblem<'static> {
        let rows = LpRows::owned(rows);
        LpProblem { n_vars: n, lower, upper, rows, objective, minimize, objective_offset: 0.0 }
    }

    fn optimal(out: LpOutcome) -> (Vec<f64>, f64) {
        match out {
            LpOutcome::Optimal { values, objective, .. } => (values, objective),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    fn optimal_basis(out: LpOutcome) -> Basis {
        match out {
            LpOutcome::Optimal { basis, .. } => basis,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    /// Every engine/parity combination worth differential coverage: the
    /// sparse engine in both parity modes plus the dense oracle (which is
    /// always exact).
    const CONFIGS: [(LpEngine, LpParity); 3] = [
        (LpEngine::Sparse, LpParity::Exact),
        (LpEngine::Sparse, LpParity::Fast),
        (LpEngine::Dense, LpParity::Exact),
    ];

    /// Runs a solve on each engine/parity configuration, so every test
    /// below exercises the sparse default, its fast-parity variant *and*
    /// the dense oracle.
    fn on_both(f: impl Fn(LpEngine, LpParity) -> LpOutcome) -> Vec<LpOutcome> {
        CONFIGS.into_iter().map(|(e, p)| f(e, p)).collect()
    }

    fn solve_on(p: &LpProblem, engine: LpEngine, parity: LpParity) -> LpOutcome {
        PreparedLp::new(p, engine, parity).solve_warm(&p.lower, &p.upper, None)
    }

    #[test]
    fn dantzig_example() {
        // max 3x + 5y; x<=4; 2y<=12; 3x+2y<=18; x,y>=0 → 36 at (2,6).
        let p = lp(
            2,
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 4.0 },
                LpRow { coeffs: vec![(1, 2.0)], op: CmpOp::Le, rhs: 12.0 },
                LpRow { coeffs: vec![(0, 3.0), (1, 2.0)], op: CmpOp::Le, rhs: 18.0 },
            ],
            vec![3.0, 5.0],
            false,
        );
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            let (x, obj) = optimal(out);
            assert!((obj - 36.0).abs() < 1e-6);
            assert!((x[0] - 2.0).abs() < 1e-6);
            assert!((x[1] - 6.0).abs() < 1e-6);
        }
    }

    #[test]
    fn ge_and_eq_constraints() {
        // min x + y; x + y >= 2; x - y == 0 → (1,1), obj 2.
        let p = lp(
            2,
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![
                LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Ge, rhs: 2.0 },
                LpRow { coeffs: vec![(0, 1.0), (1, -1.0)], op: CmpOp::Eq, rhs: 0.0 },
            ],
            vec![1.0, 1.0],
            true,
        );
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            let (x, obj) = optimal(out);
            assert!((obj - 2.0).abs() < 1e-6);
            assert!((x[0] - 1.0).abs() < 1e-6);
            assert!((x[1] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2.
        let p = lp(
            1,
            vec![0.0],
            vec![f64::INFINITY],
            vec![
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 1.0 },
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Ge, rhs: 2.0 },
            ],
            vec![1.0],
            true,
        );
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            assert!(matches!(out, LpOutcome::Infeasible));
        }
    }

    #[test]
    fn unbounded_detected() {
        // max x with no constraints.
        let p = lp(1, vec![0.0], vec![f64::INFINITY], vec![], vec![1.0], false);
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            assert!(matches!(out, LpOutcome::Unbounded));
        }
    }

    #[test]
    fn variable_bounds_respected() {
        // max x + y with 1 <= x <= 3, 0 <= y <= 2 → 5, with no constraint
        // rows at all: pure bound flips.
        let p = lp(2, vec![1.0, 0.0], vec![3.0, 2.0], vec![], vec![1.0, 1.0], false);
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            let (x, obj) = optimal(out);
            assert!((obj - 5.0).abs() < 1e-6);
            assert!((x[0] - 3.0).abs() < 1e-6);
            assert!((x[1] - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn negative_lower_bound_shift() {
        // min x with -5 <= x <= 5 → -5.
        let p = lp(1, vec![-5.0], vec![5.0], vec![], vec![1.0], true);
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            let (x, obj) = optimal(out);
            assert!((obj + 5.0).abs() < 1e-6);
            assert!((x[0] + 5.0).abs() < 1e-6);
        }
    }

    #[test]
    fn free_variable_split() {
        // min x s.t. x >= -10 encoded as a row (x itself free) → -10.
        let p = lp(
            1,
            vec![f64::NEG_INFINITY],
            vec![f64::INFINITY],
            vec![LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Ge, rhs: -10.0 }],
            vec![1.0],
            true,
        );
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            let (x, obj) = optimal(out);
            assert!((obj + 10.0).abs() < 1e-6);
            assert!((x[0] + 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn flipped_variable_upper_only() {
        // max x with x <= 7, lower unbounded → 7.
        let p = lp(1, vec![f64::NEG_INFINITY], vec![7.0], vec![], vec![1.0], false);
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            let (x, obj) = optimal(out);
            assert!((obj - 7.0).abs() < 1e-6);
            assert!((x[0] - 7.0).abs() < 1e-6);
        }
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // min y s.t. -x - y <= -3 (i.e. x + y >= 3), x <= 1 → y = 2.
        let p = lp(
            2,
            vec![0.0, 0.0],
            vec![1.0, f64::INFINITY],
            vec![LpRow { coeffs: vec![(0, -1.0), (1, -1.0)], op: CmpOp::Le, rhs: -3.0 }],
            vec![0.0, 1.0],
            true,
        );
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            let (x, obj) = optimal(out);
            assert!((obj - 2.0).abs() < 1e-6, "objective {obj}, x {x:?}");
        }
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Klee-Minty-flavoured degenerate system; just needs to terminate.
        let p = lp(
            3,
            vec![0.0; 3],
            vec![f64::INFINITY; 3],
            vec![
                LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 1.0 },
                LpRow { coeffs: vec![(0, 4.0), (1, 1.0)], op: CmpOp::Le, rhs: 8.0 },
                LpRow { coeffs: vec![(0, 8.0), (1, 4.0), (2, 1.0)], op: CmpOp::Le, rhs: 50.0 },
            ],
            vec![4.0, 2.0, 1.0],
            false,
        );
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            let (_, obj) = optimal(out);
            assert!(obj > 0.0);
        }
    }

    /// Beale's classic cycling LP: Dantzig pricing with naive tie-breaking
    /// loops forever on the degenerate origin vertex. The degenerate-pivot
    /// guard must switch to Bland's rule and reach the optimum `-0.05` at
    /// `(0.04, 0, 1, 0)` in a handful of pivots — not by burning the
    /// iteration cap (which a deadline would misreport as a timeout).
    #[test]
    fn beale_cycling_lp_terminates_quickly() {
        let p = lp(
            4,
            vec![0.0; 4],
            vec![f64::INFINITY; 4],
            vec![
                LpRow {
                    coeffs: vec![(0, 0.25), (1, -60.0), (2, -1.0 / 25.0), (3, 9.0)],
                    op: CmpOp::Le,
                    rhs: 0.0,
                },
                LpRow {
                    coeffs: vec![(0, 0.5), (1, -90.0), (2, -1.0 / 50.0), (3, 3.0)],
                    op: CmpOp::Le,
                    rhs: 0.0,
                },
                LpRow { coeffs: vec![(2, 1.0)], op: CmpOp::Le, rhs: 1.0 },
            ],
            vec![-0.75, 150.0, -0.02, 6.0],
            true,
        );
        for (engine, parity) in CONFIGS {
            let scope = Arc::new(SolveActivity::default());
            let out = SolveActivity::scoped(&scope, || solve_on(&p, engine, parity));
            let (x, obj) = optimal(out);
            assert!((obj + 0.05).abs() < 1e-6, "{engine:?}: objective {obj}");
            assert!((x[0] - 0.04).abs() < 1e-6, "{engine:?}: x {x:?}");
            assert!((x[2] - 1.0).abs() < 1e-6, "{engine:?}: x {x:?}");
            // Far below the iteration cap (~51k for this size): the guard
            // broke the cycle instead of the cap breaking the solve.
            let iters = scope.snapshot().simplex_iterations;
            assert!(iters < 200, "{engine:?}: took {iters} iterations");
        }
    }

    /// A near-degenerate model whose phase-1 violation lands in the band
    /// between the feasibility tolerance (`1e-7`) and the infeasibility
    /// verdict (`1e-6`): the row forces `x = 1 + 4e-7` against `x <= 1`.
    /// With the unified [`Tolerances`] every path — warm or cold, sparse
    /// or dense — must return the *same* verdict; these used to flip when
    /// the paths classified the violation against different constants.
    #[test]
    fn near_degenerate_verdict_consistent_across_paths() {
        let p = lp(
            1,
            vec![0.0],
            vec![1.0],
            vec![LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Eq, rhs: 1.0 + 4e-7 }],
            vec![1.0],
            true,
        );
        let mut verdicts = Vec::new();
        for (engine, parity) in CONFIGS {
            let prep = PreparedLp::new(&p, engine, parity);
            let cold = prep.solve_warm(&p.lower, &p.upper, None);
            let basis = match &cold {
                LpOutcome::Optimal { basis, .. } => Some(basis.clone()),
                _ => None,
            };
            verdicts.push(matches!(cold, LpOutcome::Optimal { .. }));
            // Warm path: re-solve from the cold basis (when one exists)
            // and from the all-nonbasic "foreign" basis.
            if let Some(b) = basis {
                let warm = prep.solve_warm(&p.lower, &p.upper, Some(&b));
                verdicts.push(matches!(warm, LpOutcome::Optimal { .. }));
            }
        }
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "paths disagree on the verdict: {verdicts:?}"
        );
    }

    #[test]
    fn redundant_equalities_handled() {
        // x + y == 2 twice; min x → x=0, y=2.
        let p = lp(
            2,
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![
                LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Eq, rhs: 2.0 },
                LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Eq, rhs: 2.0 },
            ],
            vec![1.0, 0.0],
            true,
        );
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            let (x, obj) = optimal(out);
            assert!(obj.abs() < 1e-6);
            assert!((x[1] - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn bound_override_tightens() {
        let p = lp(1, vec![0.0], vec![10.0], vec![], vec![1.0], false);
        for out in on_both(|e, pa| PreparedLp::new(&p, e, pa).solve_warm(&[0.0], &[3.0], None)) {
            let (_, obj) = optimal(out);
            assert!((obj - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_box_is_infeasible() {
        let p = lp(1, vec![0.0], vec![10.0], vec![], vec![1.0], false);
        for out in on_both(|e, pa| PreparedLp::new(&p, e, pa).solve_warm(&[5.0], &[4.0], None)) {
            assert!(matches!(out, LpOutcome::Infeasible));
        }
    }

    /// The knapsack LP the warm-start tests below share.
    fn knapsack_lp() -> LpProblem<'static> {
        lp(
            3,
            vec![0.0; 3],
            vec![1.0; 3],
            vec![LpRow { coeffs: vec![(0, 10.0), (1, 20.0), (2, 30.0)], op: CmpOp::Le, rhs: 50.0 }],
            vec![60.0, 100.0, 120.0],
            false,
        )
    }

    #[test]
    fn warm_start_matches_cold_after_bound_change() {
        let p = knapsack_lp();
        for (engine, parity) in CONFIGS {
            let prep = PreparedLp::new(&p, engine, parity);
            let basis = optimal_basis(prep.solve_warm(&p.lower, &p.upper, None));
            // Branch x2 down to 0 (the branching move the B&B performs).
            let lower = vec![0.0; 3];
            let upper = vec![1.0, 1.0, 0.0];
            let (wx, wobj) = optimal(prep.solve_warm(&lower, &upper, Some(&basis)));
            let (cx, cobj) = optimal(prep.solve_warm(&lower, &upper, None));
            assert!((wobj - cobj).abs() < 1e-6, "{engine:?}: warm {wobj} vs cold {cobj}");
            assert!(wx[2].abs() < 1e-9 && cx[2].abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_same_bounds_reproduces_optimum() {
        let p = knapsack_lp();
        for (engine, parity) in CONFIGS {
            let prep = PreparedLp::new(&p, engine, parity);
            let out = prep.solve_warm(&p.lower, &p.upper, None);
            let basis = optimal_basis(out.clone());
            let (_, cold_obj) = optimal(out);
            let (_, warm_obj) = optimal(prep.solve_warm(&p.lower, &p.upper, Some(&basis)));
            assert!((warm_obj - cold_obj).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_warm_basis_falls_back_to_cold() {
        let p = knapsack_lp();
        for (engine, parity) in CONFIGS {
            let prep = PreparedLp::new(&p, engine, parity);
            // Wrong length: refactorization must reject it and cold-solve.
            let bogus = Basis { status: vec![ColStatus::AtLower; 2] };
            let (_, obj) = optimal(prep.solve_warm(&p.lower, &p.upper, Some(&bogus)));
            // No basic columns at all: also rejected.
            let none_basic = Basis { status: vec![ColStatus::AtLower; 4] };
            let (_, obj2) = optimal(prep.solve_warm(&p.lower, &p.upper, Some(&none_basic)));
            let (_, cold) = optimal(prep.solve_warm(&p.lower, &p.upper, None));
            assert!((obj - cold).abs() < 1e-9);
            assert!((obj2 - cold).abs() < 1e-9);
        }
    }

    /// The refactorization-failure fallback must count the warm *attempt*
    /// but never a warm *hit* — the fallback used to leave the hit counter
    /// inflated, overstating the warm-hit rate in `SolverActivityReport`.
    /// The singular basis here (a column with no matrix support marked
    /// basic) cannot factorize, so the solve silently restarts cold.
    #[test]
    fn failed_refactorization_does_not_count_a_warm_hit() {
        // `y` never appears in the row, so marking it basic leaves the
        // factorization without a usable pivot.
        let p = lp(
            2,
            vec![0.0, 0.0],
            vec![10.0, 10.0],
            vec![LpRow { coeffs: vec![(0, 1.0)], op: CmpOp::Le, rhs: 5.0 }],
            vec![1.0, 0.0],
            false,
        );
        let singular =
            Basis { status: vec![ColStatus::AtLower, ColStatus::Basic, ColStatus::AtLower] };
        for (engine, parity) in CONFIGS {
            let prep = PreparedLp::new(&p, engine, parity);
            let scope = Arc::new(SolveActivity::default());
            let out = SolveActivity::scoped(&scope, || {
                prep.solve_warm(&p.lower, &p.upper, Some(&singular))
            });
            let (_, obj) = optimal(out);
            assert!((obj - 5.0).abs() < 1e-6, "{engine:?}: objective {obj}");
            let seen = scope.snapshot();
            assert_eq!(seen.warm_attempts, 1, "{engine:?}: attempts");
            assert_eq!(seen.warm_hits, 0, "{engine:?}: fallback must not count a hit");
            assert_eq!(seen.lp_solves, 1, "{engine:?}: one solve, counted once");
        }
    }

    #[test]
    fn sparse_engine_records_factorization_work() {
        let p = knapsack_lp();
        let prep = PreparedLp::new(&p, LpEngine::Sparse, LpParity::Exact);
        let scope = Arc::new(SolveActivity::default());
        let basis = SolveActivity::scoped(&scope, || {
            optimal_basis(prep.solve_warm(&p.lower, &p.upper, None))
        });
        let cold = scope.snapshot();
        assert!(cold.lu_factorizations >= 1, "cold solve factorizes: {cold:?}");
        let scope = Arc::new(SolveActivity::default());
        SolveActivity::scoped(&scope, || prep.solve_warm(&p.lower, &p.upper, Some(&basis)));
        let warm = scope.snapshot();
        assert!(warm.lu_factorizations >= 1, "warm solve refactorizes: {warm:?}");
    }

    #[test]
    fn warm_start_detects_child_infeasibility() {
        // x + y >= 1.5 with x,y in [0,1]; fixing both to 0 is infeasible.
        let p = lp(
            2,
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Ge, rhs: 1.5 }],
            vec![1.0, 1.0],
            true,
        );
        for (engine, parity) in CONFIGS {
            let prep = PreparedLp::new(&p, engine, parity);
            let basis = optimal_basis(prep.solve_warm(&p.lower, &p.upper, None));
            let out = prep.solve_warm(&[0.0, 0.0], &[0.0, 0.0], Some(&basis));
            assert!(matches!(out, LpOutcome::Infeasible));
        }
    }

    #[test]
    fn fixed_columns_never_cycle() {
        // A column with equal bounds must be skipped by pricing.
        let p = lp(
            2,
            vec![2.0, 0.0],
            vec![2.0, 10.0],
            vec![LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Le, rhs: 6.0 }],
            vec![1.0, 1.0],
            false,
        );
        for out in on_both(|e, pa| solve_on(&p, e, pa)) {
            let (x, obj) = optimal(out);
            assert!((x[0] - 2.0).abs() < 1e-9);
            assert!((obj - 6.0).abs() < 1e-6);
        }
    }

    #[test]
    fn engine_from_env_defaults_to_sparse() {
        // The defaults are constants whatever the process environment
        // holds: the sparse engine on the fast parity, for the branch and
        // bound and for the heuristic `SolverOptions` builds.
        let parallel = crate::ParallelSolver::default();
        assert_eq!((parallel.lp_engine, parallel.lp_parity), (LpEngine::Sparse, LpParity::Fast));
        let heuristic = crate::SolverOptions {
            backend: crate::SolverBackend::Heuristic,
            cache: false,
            degrade: false,
            ..crate::SolverOptions::default()
        }
        .solver();
        let sparse_fast =
            crate::HeuristicSolver { lp_engine: LpEngine::Sparse, lp_parity: LpParity::Fast };
        assert_eq!(heuristic.name(), crate::Solver::name(&sparse_fast));
    }

    /// A column with one finite bound can end past it by roundoff: here
    /// `x ∈ [0, ∞)` lands at `0.3 − 0.1 − 0.2 = −2.8e-17`. The clamp must
    /// move that side alone; clamping against `[0, x]` panicked with
    /// `min > max`.
    #[test]
    fn roundoff_past_a_one_sided_bound_is_clamped_without_a_panic() {
        let mut m = crate::Model::new("one-sided");
        let x = m.continuous("x", 0.0, f64::INFINITY);
        let y = m.continuous("y", 0.0, 1.0);
        let z = m.continuous("z", 0.0, 1.0);
        m.add_eq("mix", 1.0 * x + 0.1 * y + 0.2 * z, 0.3);
        m.set_objective(crate::Sense::Maximize, 1.0 * y + 1.0 * z);
        let sol = m.solve().unwrap();
        assert_eq!(sol.value(x).to_bits(), 0.0f64.to_bits());
        assert_eq!((sol.value(y), sol.value(z)), (1.0, 1.0));
        assert!((sol.objective - 2.0).abs() < 1e-12);
    }

    /// What a solve returned, floats as bit patterns.
    #[derive(Debug, PartialEq)]
    enum OutcomeBits {
        Optimal { values: Vec<u64>, objective: u64, basis: Vec<ColStatus> },
        Infeasible,
        Unbounded,
        Cancelled,
    }

    fn outcome_bits(out: &LpOutcome) -> OutcomeBits {
        match out {
            LpOutcome::Optimal { values, objective, basis } => OutcomeBits::Optimal {
                values: values.iter().map(|v| v.to_bits()).collect(),
                objective: objective.to_bits(),
                basis: basis.status.clone(),
            },
            LpOutcome::Infeasible => OutcomeBits::Infeasible,
            LpOutcome::Unbounded => OutcomeBits::Unbounded,
            LpOutcome::Cancelled => OutcomeBits::Cancelled,
        }
    }

    /// Solves the children of `basis`'s node on column `j` with
    /// `solve_children` and with one `solve_node` call per child, each
    /// under its own stats scope, and checks the outcomes agree bit for
    /// bit. Returns both runs' counters.
    fn children_both_ways(
        prep: &PreparedLp,
        basis: &Basis,
        kit: bool,
        j: usize,
        boxes: &[(f64, f64)],
    ) -> (SolveStats, SolveStats) {
        let lp = prep.lp;
        let scoped = |f: &mut dyn FnMut() -> Vec<LpOutcome>| {
            let scope = Arc::new(SolveActivity::default());
            let outs = SolveActivity::scoped(&scope, f);
            (outs.iter().map(outcome_bits).collect::<Vec<_>>(), scope.snapshot())
        };
        let (mut lower, mut upper) = (lp.lower.clone(), lp.upper.clone());
        let (together, stats_together) = scoped(&mut || {
            prep.solve_children(&mut lower, &mut upper, Some(basis), kit, j, boxes, || false)
        });
        assert_eq!((lower.as_slice(), upper.as_slice()), (&lp.lower[..], &lp.upper[..]));
        let (apart, stats_apart) = scoped(&mut || {
            let mut outs = Vec::new();
            for &(lo, hi) in boxes {
                let (mut lower, mut upper) = (lp.lower.clone(), lp.upper.clone());
                (lower[j], upper[j]) = (lo, hi);
                outs.push(prep.solve_node(&lower, &upper, Some(basis), kit));
            }
            outs
        });
        assert_eq!(together, apart, "kit={kit} j={j} boxes={boxes:?}");
        (stats_together, stats_apart)
    }

    /// The two runs did the same solves and the same pivots, and installed
    /// the same number of bases.
    fn assert_same_solves(together: &SolveStats, apart: &SolveStats) {
        let installs = |s: &SolveStats| s.lu_factorizations + s.memo_sibling_hits;
        assert_eq!(installs(together), installs(apart), "{together:?} vs {apart:?}");
        let pivots = |s: &SolveStats| {
            (s.lp_solves, s.simplex_iterations, s.warm_attempts, s.warm_hits, s.eta_updates)
        };
        assert_eq!(pivots(together), pivots(apart), "{together:?} vs {apart:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `solve_children` returns what one `solve_node` call per child
        /// returns — value bits, objective bits and bases — on random
        /// bounded LPs branched at their optimum on the most fractional
        /// basic column, on every engine and parity, kit on and off.
        #[test]
        fn solve_children_matches_independent_solves(
            n in 2usize..8,
            rows in 1usize..5,
            coeffs in proptest::collection::vec(-6i32..30, 32..33),
            rhs in proptest::collection::vec(5u32..60, 4..5),
            costs in proptest::collection::vec(1u32..40, 8..9),
            uppers in proptest::collection::vec(1u32..4, 8..9),
        ) {
            let p = lp(
                n,
                vec![0.0; n],
                uppers[..n].iter().map(|&u| u as f64).collect(),
                (0..rows)
                    .map(|r| LpRow {
                        coeffs: (0..n).map(|j| (j, coeffs[r * 8 + j] as f64)).collect(),
                        op: CmpOp::Le,
                        rhs: rhs[r] as f64,
                    })
                    .collect(),
                costs[..n].iter().map(|&c| c as f64).collect(),
                false,
            );
            for (engine, parity) in CONFIGS {
                let prep = PreparedLp::new(&p, engine, parity);
                let LpOutcome::Optimal { values, basis, .. } =
                    prep.solve_warm(&p.lower, &p.upper, None)
                else {
                    panic!("{engine:?}: a ≤-only LP with x = 0 feasible and bounded x");
                };
                let fractional = |j: &usize| (values[*j] - values[*j].round()).abs() > 1e-6;
                let Some(j) = (0..n).filter(fractional).max_by(|&a, &b| {
                    let frac = |j: usize| (values[j] - values[j].round()).abs();
                    frac(a).total_cmp(&frac(b)).then(b.cmp(&a))
                }) else {
                    continue;
                };
                proptest::prop_assert_eq!(basis.status[j], ColStatus::Basic);
                let v = values[j];
                let boxes = [(p.lower[j], v.floor()), (v.ceil(), p.upper[j])];
                for kit in [false, true] {
                    let (together, apart) = children_both_ways(&prep, &basis, kit, j, &boxes);
                    assert_same_solves(&together, &apart);
                    proptest::prop_assert_eq!(apart.memo_sibling_hits, 0);
                }
            }
        }
    }

    /// When the first child's solve refactorizes mid-solve, its eta file
    /// no longer holds the node's install, so the second child installs
    /// afresh: no restore is counted, every counter equals two independent
    /// solves', and the outcomes still agree. The warm basis is the optimum
    /// of `max Σ x` over 150 columns; the children minimize `Σ x` from it,
    /// a solve long enough (well past 112 pivots) to trip the hybrid switch
    /// and then the fast-parity update-count trigger.
    #[test]
    fn solve_children_installs_afresh_after_a_mid_solve_refactorization() {
        let n = 150;
        let mut rows = vec![LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], op: CmpOp::Le, rhs: 1.5 }];
        // `0.5·x_i ≤ 0.5`, not `x_i ≤ 1`: a logical entering a unit row
        // would pivot on 1 with no fill, an identity eta the file never
        // stores, and the update count would never grow.
        rows.extend((1..n).map(|i| LpRow { coeffs: vec![(i, 0.5)], op: CmpOp::Le, rhs: 0.5 }));
        let mut objective = vec![1.0; n];
        objective[0] = 0.5;
        let parent = lp(n, vec![0.0; n], vec![10.0; n], rows, objective, false);
        let basis =
            optimal_basis(PreparedLp::new(&parent, LpEngine::Sparse, LpParity::Exact).solve_warm(
                &parent.lower,
                &parent.upper,
                None,
            ));
        assert_eq!(basis.status[0], ColStatus::Basic, "x0 = 0.5 is basic");
        let children = LpProblem { objective: vec![1.0; n], minimize: true, ..parent };
        let prep = PreparedLp::new(&children, LpEngine::Sparse, LpParity::Fast);
        let boxes = [(0.0, 0.0), (1.0, 10.0)];
        let (together, apart) = children_both_ways(&prep, &basis, true, 0, &boxes);
        assert!(together.refactor_triggers > 0, "the first child must refactorize: {together:?}");
        assert_eq!(together.memo_sibling_hits, 0, "nothing left to restore");
        assert_eq!(together, apart);
    }
}
