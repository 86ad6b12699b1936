//! Deterministic round-based branch and bound ([`search`]) — the crate's
//! one search driver, which [`Model::solve_with_options`] runs on every
//! model with integral variables.
//!
//! The search runs in synchronous rounds on the calling thread: every round
//! pops the best (up to) [`BATCH`] open nodes off the frontier, expands the
//! round's leader, then every follower the leader's incumbent does not bar,
//! and pushes the surviving children back in slot order. The incumbent is
//! the minimum of a total order on candidates (exact objective comparison,
//! ties broken by the lexicographically smaller point), so which of several
//! equal-objective points comes back is a function of the candidate set
//! alone.
//!
//! Node solves are incremental: one root presolve (see
//! [`crate::presolve`]), sparse [`BoundChain`] deltas instead of cloned
//! bound vectors, and child LPs warm-started from the parent [`Basis`] so
//! they typically re-solve in a handful of pivots instead of running both
//! simplex phases from scratch. Before any child LP, presolve's
//! row-activity proof runs once more over the child's box, on the rows of
//! the branched column only (its pattern in the prepared CSC matrix, each
//! row read as a slice of the model's row block): a child it condemns is
//! dropped without an LP, exactly as its `Infeasible` LP outcome would have
//! dropped it, so the search visits the same nodes in the same order.
//!
//! An open node holds only what its expansion reads ([`Node`]). The
//! branching column is a pure function of the LP point, so it is picked
//! when the node is created: a fractional node keeps its chain, its basis
//! and that column's value, and its point is dropped. An integral node is
//! expanded only to be offered as an incumbent, so it keeps its point,
//! packed losslessly ([`PackedPoint`]), and no chain or basis. On the weak
//! bisection relaxations most open nodes are integral, and the frontier is
//! what bounds the search's memory.
//!
//! Only wall-clock expiry ([`SolverConfig::time_limit`]) can make two runs
//! of one model differ, because the cut-off point then depends on machine
//! speed. Every branch-and-bound solver has that caveat; TAPA-CS's
//! bisection ILPs close well inside their budgets.
//!
//! # Round order
//!
//! The round order — the width ramp, the leader first, one bar for the
//! followers, the merge in slot order — is kept for bit-identity alone:
//! which of several equal-objective points a search returns decides the
//! design, so another order would move designs, and persisted solve-cache
//! entries would disagree with fresh solves. Nothing else constrains it (a
//! search never runs on more than one thread), so a different order —
//! best-first with dives, pseudo-cost branching — may replace it once
//! equal-objective ties no longer decide the design (ROADMAP items 2 and
//! 3).
//!
//! Round-based exploration does speculative work pure best-first would
//! prune. The leader-follower round (the best node expands first and its
//! incumbent bars dominated followers) and the width ramp bound that
//! overhead. Measured against the best-first driver this one replaced
//! (README, "The solver", has the table): the same node count to
//! 0.02 % on the knn benchmark workload, 6 % fewer on cnn, 2.35× more on
//! the stencil DSE grid, whose bound plateaus make the FIFO `seq` tie order
//! and follower speculation expensive (ROADMAP item 3 keeps that open).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::branch_bound::{
    cancel_error, granularity_tightener, objective_of, presolved_root, round_repair,
};
use crate::cancel::CancellationToken;
use crate::error::IlpError;
use crate::model::{Model, SolverConfig};
use crate::node::{kit_restart_after, most_fractional, BoundChain, BoundDelta, PackedPoint};
use crate::presolve::{activity_range, PresolvedLp};
use crate::simplex::{Basis, LpOutcome, LpProblem, PreparedLp, TOL};
use crate::solution::{Solution, SolveStatus};
use crate::solver::SolverOptions;
use crate::stats::{self, SolveStats};

/// Frontier nodes expanded per synchronous round, once the width ramp
/// reaches it (see the module doc's "Round order").
const BATCH: usize = 4;

/// An open node, holding only what its expansion reads. `seq` is the
/// deterministic push order (the root is 0; a child gets its `seq` when the
/// merge pushes it), used to break bound ties so the heap pop order is a
/// total order.
struct Node {
    /// LP relaxation bound in *minimize* direction.
    bound: f64,
    seq: u64,
    state: NodeState,
}

/// What expanding a node needs, decided once from its LP point when the
/// node is created ([`Node::new`]).
enum NodeState {
    /// A fractional LP point: expansion branches.
    Branch(Branch),
    /// An integral LP point in *reduced* space: expansion offers it as an
    /// incumbent and branches on nothing, so it keeps no chain and no basis.
    Candidate(PackedPoint),
}

/// A fractional node's branching state: its LP point is not kept.
struct Branch {
    /// Sparse bound state (deltas back to the presolved root).
    chain: Rc<BoundChain>,
    /// This node's optimal basis — its children's warm start.
    basis: Box<Basis>,
    /// The branching column ([`most_fractional`]) in *reduced* space.
    var: usize,
    /// Its LP value, which the children's bounds round down and up.
    value: f64,
}

impl Node {
    /// The node an optimal LP outcome opens. `chain` runs only for a
    /// branching node; its `seq` is 0 until the merge assigns one.
    fn new(
        ctx: &SearchCtx<'_>,
        objective: f64,
        relax: &[f64],
        basis: Basis,
        chain: impl FnOnce() -> Rc<BoundChain>,
    ) -> Node {
        let state = match most_fractional(relax, ctx.red_integral, ctx.config.int_tol) {
            Some(var) => NodeState::Branch(Branch {
                chain: chain(),
                basis: Box::new(basis),
                var,
                value: relax[var],
            }),
            None => NodeState::Candidate(PackedPoint::pack(relax)),
        };
        Node { bound: ctx.to_min(objective), seq: 0, state }
    }

    fn is_candidate(&self) -> bool {
        matches!(self.state, NodeState::Candidate(_))
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.seq == other.seq
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest
        // (bound, seq) to pop first.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Outcome of expanding one batch slot: a pure function of the node
/// (modulo deadline expiry).
enum Expansion {
    /// The node's relaxation was integral: a candidate incumbent (already
    /// offered to the incumbent).
    Candidate,
    /// The node's relaxation was integral to `int_tol`, but its rounded
    /// point fails the model's own rows at `1e-6` (the LP point was feasible
    /// only to the row-scaled tolerance). Nothing is offered and nothing is
    /// left to branch on, so the node's `bound` stays open: the search
    /// cannot count the tree as exhausted below it.
    Unresolved { bound: f64 },
    /// Children in deterministic `[down, up]` order (infeasible ones
    /// dropped), each with `seq` 0. `timed_out` marks an expansion cut
    /// short by the deadline.
    Children { children: Vec<Node>, timed_out: bool },
    /// A child LP was unbounded — modelling error, abort the solve.
    Unbounded,
}

/// The incumbent: minimize-direction objective plus full-space point.
struct Incumbent {
    obj: f64,
    values: Vec<f64>,
}

/// Deterministic total order on candidates: exact objective comparison
/// first, then lexicographic comparison of the value vectors. Using exact
/// (not tolerance-based) comparison keeps the order transitive, so the
/// final incumbent is the set minimum regardless of the order candidates
/// are offered in: it picks the returned point among equal objectives.
fn precedes(obj_a: f64, vals_a: &[f64], obj_b: f64, vals_b: &[f64]) -> bool {
    match obj_a.total_cmp(&obj_b) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => {
            for (x, y) in vals_a.iter().zip(vals_b) {
                match x.total_cmp(y) {
                    Ordering::Less => return true,
                    Ordering::Greater => return false,
                    Ordering::Equal => {}
                }
            }
            false
        }
    }
}

/// Offers a candidate to the incumbent, keeping the order minimum.
fn offer(incumbent: &mut Option<Incumbent>, obj: f64, values: &[f64]) {
    if incumbent.as_ref().is_none_or(|cur| precedes(obj, values, cur.obj, &cur.values)) {
        *incumbent = Some(Incumbent { obj, values: values.to_vec() });
    }
}

/// Everything the attempts and expansion slots of one solve share: built
/// once in [`with_search_ctx`], read-only from then on.
struct SearchCtx<'a> {
    /// The caller's options: incumbent seed and LP warm starts.
    options: &'a SolverOptions,
    model: &'a Model,
    config: &'a SolverConfig,
    full_lp: &'a LpProblem<'a>,
    pre: &'a PresolvedLp<'a>,
    /// One shared prepared form (the CSC matrix) for the root and every
    /// node solve.
    prep: &'a PreparedLp<'a>,
    integral: &'a [usize],
    red_integral: &'a [usize],
    /// One token for the whole solve: the configured deadline fused with any
    /// caller-supplied cancellation, polled at round boundaries, before every
    /// child LP solve, and inside the simplex iteration loops. `None` when
    /// the solve is unbounded in time and nobody can cancel it.
    token: Option<CancellationToken>,
}

impl SearchCtx<'_> {
    /// Internally the search minimizes; maximize models flip sign on the way
    /// in and (the flip being its own inverse) on the way out.
    fn to_min(&self, obj: f64) -> f64 {
        if self.full_lp.minimize {
            obj
        } else {
            -obj
        }
    }

    /// Whether presolve's row-activity proof ([`activity_range`]) condemns
    /// the child of a node with bounds `lower`/`upper` that moves column
    /// `j` to `[lo, hi]`. Only `j`'s rows are tested: the node's LP was
    /// feasible and the child differs from it in `j`'s bounds alone.
    /// `lower`/`upper` come back unchanged.
    fn range_infeasible(
        &self,
        lower: &mut [f64],
        upper: &mut [f64],
        j: usize,
        (lo, hi): (f64, f64),
    ) -> bool {
        let (node_lo, node_hi) = (lower[j], upper[j]);
        (lower[j], upper[j]) = (lo, hi);
        let rows = &self.pre.lp.rows;
        let condemned = self.prep.sparse.col(j).0.iter().any(|&i| {
            let (op, rhs, terms) = rows.row(i as usize);
            activity_range(terms, op, rhs, lower, upper).is_none()
        });
        (lower[j], upper[j]) = (node_lo, node_hi);
        condemned
    }
}

/// Adds one search attempt's expanded and candidate node counts to the
/// activity counters.
fn record_search(nodes: usize, candidates: u64) {
    stats::record(&SolveStats {
        bb_nodes: nodes as u64,
        candidate_nodes: candidates,
        ..SolveStats::default()
    });
}

/// Expands one node: either reports an integral candidate (offered to the
/// incumbent, or [`Expansion::Unresolved`] when its rounded point is
/// infeasible) or returns the branched children. No bound pruning
/// happens here — children are pruned against the incumbent
/// deterministically at merge time; infeasible children are simply absent
/// ([`expand_children`]). `kit` is the attempt's fast-kit verdict (constant
/// per attempt, so every slot prices identically); `lo_buf`/`hi_buf` are
/// the search's scratch buffers.
fn expand_node(
    ctx: &SearchCtx<'_>,
    kit: bool,
    incumbent: &mut Option<Incumbent>,
    node: &Node,
    lo_buf: &mut Vec<f64>,
    hi_buf: &mut Vec<f64>,
) -> Expansion {
    let point = match &node.state {
        NodeState::Branch(branch) => return expand_children(ctx, kit, branch, lo_buf, hi_buf),
        NodeState::Candidate(point) => point,
    };
    // Integral point: candidate incumbent (checked in full space).
    let mut reduced = point.unpack(ctx.pre.lp.n_vars);
    for &k in ctx.red_integral {
        reduced[k] = reduced[k].round();
    }
    let mut values = ctx.pre.postsolve(&reduced);
    for &k in ctx.integral {
        values[k] = values[k].round();
    }
    if !ctx.model.is_feasible(&values, 1e-6) {
        return Expansion::Unresolved { bound: node.bound };
    }
    let obj = ctx.to_min(objective_of(ctx.full_lp, &values));
    offer(incumbent, obj, &values);
    Expansion::Candidate
}

/// Solves the two branching children of a fractional node on its column
/// `j = branch.var` at LP value `v = branch.value`: `j <= floor(v)` and
/// `j >= ceil(v)`, warm-started from the node's basis unless
/// [`SolverOptions::warm_lp`] is off. Both come from one install of that
/// basis ([`PreparedLp::solve_children`]).
///
/// A child never reaches an LP when its box is empty or when presolve's
/// row-activity proof condemns one of `j`'s rows over that box
/// ([`SearchCtx::range_infeasible`], counted in [`SolveStats::range_pruned`]).
/// Either way its LP would have come back [`LpOutcome::Infeasible`], which
/// pushes nothing, so dropping it changes no node, `seq` or incumbent of
/// the search; only the LP work counters move.
///
/// `lower`/`upper` are reusable scratch buffers; they come back holding the
/// *node's* bounds (every per-child tweak is restored).
fn expand_children(
    ctx: &SearchCtx<'_>,
    kit: bool,
    branch: &Branch,
    lower: &mut Vec<f64>,
    upper: &mut Vec<f64>,
) -> Expansion {
    let lp = &ctx.pre.lp;
    let warm = if ctx.options.warm_lp { Some(branch.basis.as_ref()) } else { None };
    branch.chain.resolve(&lp.lower, &lp.upper, lower, upper);
    let (j, branch_value) = (branch.var, branch.value);
    let (node_lo, node_hi) = (lower[j], upper[j]);
    let mut deltas = Vec::with_capacity(2);
    let mut boxes = Vec::with_capacity(2);
    let mut range_pruned = 0u64;
    for (is_upper, value) in [(true, branch_value.floor()), (false, branch_value.ceil())] {
        let (lo, hi) =
            if is_upper { (node_lo, value.min(node_hi)) } else { (value.max(node_lo), node_hi) };
        // An empty child box is pruned with the same tolerance the solver's
        // own bound-sanity check uses, so the two paths cannot disagree on
        // which children exist.
        if lo > hi + TOL.feas {
            continue;
        }
        if ctx.range_infeasible(lower, upper, j, (lo, hi)) {
            range_pruned += 1;
            continue;
        }
        deltas.push(BoundDelta { var: j, is_upper, value });
        boxes.push((lo, hi));
    }
    if range_pruned > 0 {
        stats::record(&SolveStats { range_pruned, ..SolveStats::default() });
    }
    // Honor the token before *every* child LP solve, not only at round
    // boundaries: a deep dive must not overshoot the deadline by a subtree.
    let cancelled = || ctx.token.as_ref().is_some_and(CancellationToken::is_cancelled);
    let outcomes = ctx.prep.solve_children(lower, upper, warm, kit, j, &boxes, cancelled);
    let mut children = Vec::with_capacity(2);
    for (delta, outcome) in deltas.into_iter().zip(outcomes) {
        match outcome {
            LpOutcome::Optimal { values, objective, basis } => {
                children.push(Node::new(ctx, objective, &values, basis, || {
                    BoundChain::child(&branch.chain, delta)
                }));
            }
            LpOutcome::Infeasible => {}
            LpOutcome::Unbounded => return Expansion::Unbounded,
            // A cancelled child LP keeps the children solved so far; the
            // merge treats the node like a deadline-truncated expansion.
            LpOutcome::Cancelled => return Expansion::Children { children, timed_out: true },
        }
    }
    Expansion::Children { children, timed_out: false }
}

/// One round-synchronous attempt with the fast kit on or off.
/// Returns `Ok(None)` when the kit is off and the tree reached
/// [`kit_restart_after`] for the presolved LP's row count — the caller
/// restarts with `kit: true`.
fn search_once(ctx: &SearchCtx<'_>, kit: bool) -> Result<Option<Solution>, IlpError> {
    let (config, lp) = (ctx.config, &ctx.pre.lp);
    let restart_after = kit_restart_after(lp.rows.len());

    // The root is node zero of the search: the kit verdict covers it too,
    // so a small tree replays the oracle's trajectory from its very first
    // solve and a restarted search prices its root with the full kit.
    let (root, root_relax) = match ctx.prep.solve_node(&lp.lower, &lp.upper, None, kit) {
        LpOutcome::Optimal { values, objective, basis } => {
            (Node::new(ctx, objective, &values, basis, BoundChain::root), values)
        }
        LpOutcome::Infeasible => return Err(IlpError::Infeasible),
        // The relaxation is unbounded. With all-finite integer bounds the
        // MIP itself may still be bounded, but for our use cases this
        // signals a modelling error.
        LpOutcome::Unbounded => return Err(IlpError::Unbounded),
        // Cancelled before the root relaxation finished: there is nothing
        // to fall back on yet.
        LpOutcome::Cancelled => return Err(cancel_error(ctx.token.as_ref())),
    };
    let root_bound = root.bound;

    // Seed the incumbent from the already-solved root relaxation, at zero
    // extra LP solves: plain rounding, escalated to the greedy first-fit
    // repair walk (the one the degradation ladder's last rung runs) when
    // [`SolverOptions::warm_start`] is on and rounding alone is infeasible.
    // Candidates live in the *original* variable space (postsolved).
    let mut incumbent: Option<Incumbent> = None;
    let full_relax = ctx.pre.postsolve(&root_relax);
    let mut seed = round_repair(ctx.model, &full_relax, ctx.integral);
    if seed.is_none() && ctx.options.warm_start {
        seed = crate::solver::greedy_repair(ctx.model, ctx.full_lp, &full_relax, ctx.integral);
    }
    if let Some(point) = seed {
        offer(&mut incumbent, ctx.to_min(objective_of(ctx.full_lp, &point)), &point);
    }

    let tighten = granularity_tightener(config.objective_granularity);

    let mut heap = BinaryHeap::new();
    let mut next_seq = 1u64;
    let mut candidates = u64::from(root.is_candidate());
    heap.push(root);
    // The least bound of the [`Expansion::Unresolved`] nodes: open for
    // good, since nothing can branch them closed.
    let mut unresolved: Option<f64> = None;

    // Scratch bound buffers, reused by every expansion of the attempt.
    let mut lo_buf: Vec<f64> = Vec::with_capacity(lp.n_vars);
    let mut hi_buf: Vec<f64> = Vec::with_capacity(lp.n_vars);

    let mut nodes = 0usize;
    let mut best_open_bound = root_bound;
    let mut budget_hit = false;
    let mut round = 0u32;

    loop {
        // Batch width ramps 1 → 2 → … → BATCH by round index: easy
        // instances finish with near-best-first work, deep searches reach
        // full width within a few rounds.
        let width = BATCH.min(1usize << round.min(31));
        round += 1;
        // Deterministic batch pop: best-first until the batch is full or the
        // frontier top cannot beat the incumbent (heap order makes every
        // remaining node dominated too).
        let inc_obj = incumbent.as_ref().map(|i| i.obj);
        let mut batch: Vec<Node> = Vec::with_capacity(width);
        let mut gap_closed = false;
        while batch.len() < width {
            let Some(top) = heap.peek() else { break };
            if let Some(io) = inc_obj {
                // Prune against the granularity-tightened bound. Only
                // this comparison is tightened — stored bounds (and thus
                // heap order) stay raw, so tightening never changes which
                // incumbent the search returns, only how early it stops
                // proving.
                if tighten(top.bound) >= io - config.mip_gap.max(1e-12) * io.abs().max(1.0) {
                    gap_closed = true;
                    break;
                }
            }
            batch.push(heap.pop().expect("peeked node must pop"));
        }
        if batch.is_empty() {
            if gap_closed {
                best_open_bound = inc_obj.expect("gap can only close against an incumbent");
            }
            break;
        }
        best_open_bound = batch[0].bound;
        nodes += batch.len();
        if !kit && nodes >= restart_after {
            // The abandoned attempt's nodes still count as explored work.
            record_search(nodes, candidates);
            return Ok(None);
        }
        if nodes > config.max_nodes {
            budget_hit = true;
            break;
        }
        if ctx.token.as_ref().is_some_and(CancellationToken::is_cancelled) {
            budget_hit = true;
            break;
        }

        // Leader-follower round. The round leader (the single best node —
        // the one pure best-first would expand next) expands first, and any
        // incumbent it produces sharpens the bar for the rest of the round,
        // so followers that best-first pruning would never have touched are
        // skipped instead of speculatively expanded. The bar is read once,
        // after the leader: a follower's own candidate bars no later
        // follower of its round.
        let mut results = Vec::with_capacity(batch.len());
        results.push(expand_node(ctx, kit, &mut incumbent, &batch[0], &mut lo_buf, &mut hi_buf));
        let bar = incumbent.as_ref().map(|i| i.obj);
        for node in &batch[1..] {
            let survives = bar.is_none_or(|io| {
                tighten(node.bound) < io - config.mip_gap.max(1e-12) * io.abs().max(1.0)
            });
            if survives {
                results.push(expand_node(ctx, kit, &mut incumbent, node, &mut lo_buf, &mut hi_buf));
            }
        }

        // Deterministic merge: the incumbent now holds the round's order
        // minimum; children are pruned against it and pushed in slot order.
        let merged_obj = incumbent.as_ref().map(|i| i.obj);
        for expansion in results {
            match expansion {
                Expansion::Unbounded => return Err(IlpError::Unbounded),
                Expansion::Candidate => {}
                Expansion::Unresolved { bound } => {
                    unresolved = Some(unresolved.map_or(bound, |b| b.min(bound)));
                }
                Expansion::Children { children, timed_out } => {
                    if timed_out {
                        budget_hit = true;
                    }
                    for mut child in children {
                        let dominated =
                            merged_obj.is_some_and(|best| tighten(child.bound) >= best - 1e-12);
                        if !dominated {
                            child.seq = next_seq;
                            candidates += u64::from(child.is_candidate());
                            heap.push(child);
                            next_seq += 1;
                        }
                    }
                }
            }
        }
        if budget_hit {
            break;
        }
    }

    // Node-tree size is the canary for pricing-rule regressions (a pricing
    // change that reaches different LP vertices shows up here before it
    // shows up in wall time), so every finished search records it.
    record_search(nodes, candidates);

    // An external cancel aborts outright — the caller asked the job to stop,
    // so even an incumbent on hand is not returned. Deadline expiry instead
    // degrades to the anytime incumbent below.
    if ctx.token.as_ref().is_some_and(CancellationToken::cancelled_externally) {
        return Err(IlpError::Cancelled);
    }

    // An unresolved bound the incumbent dominates is closed exactly as the
    // batch pop would have closed it; any other keeps the search open.
    let unresolved = unresolved.filter(|&b| {
        incumbent
            .as_ref()
            .is_none_or(|i| tighten(b) < i.obj - config.mip_gap.max(1e-12) * i.obj.abs().max(1.0))
    });
    let heap_closed = heap.is_empty() && !budget_hit;
    let exhausted = heap_closed && unresolved.is_none();
    if let Some(b) = unresolved {
        best_open_bound = if heap_closed { b } else { best_open_bound.min(b) };
    }
    match incumbent {
        Some(Incumbent { obj, values }) => {
            let proven = exhausted
                || (obj - best_open_bound).abs()
                    <= config.mip_gap.max(1e-9) * obj.abs().max(1.0) + 1e-9;
            Ok(Some(Solution {
                status: if proven { SolveStatus::Optimal } else { SolveStatus::Feasible },
                objective: ctx.to_min(obj),
                values,
                nodes_explored: nodes,
                best_bound: ctx.to_min(if exhausted { obj } else { best_open_bound }),
                // A budget-truncated incumbent is an *anytime* result: how
                // good it is depends on when the clock stopped. Marking it
                // degraded keeps it out of the persistent solve cache and
                // out of Pareto frontiers. So is one that an unresolved
                // node's bound leaves unproven.
                degraded: (budget_hit || unresolved.is_some()) && !proven,
            }))
        }
        None => {
            if exhausted {
                Err(IlpError::Infeasible)
            } else {
                Err(IlpError::NoIncumbent)
            }
        }
    }
}

/// Round-based branch and bound over the simplex LP relaxation of `model`,
/// whose integral variables are `integral` (not empty) — the search
/// [`Model::solve_with_options`] runs, with `options`' incumbent seed,
/// presolve and LP warm starts.
///
/// *Value-deterministic*: for a given model, configuration and options the
/// returned point, tree and LP work are the same on every run. The search
/// runs on the calling thread and spawns none; compile-time parallelism
/// lives in the bisection recursion and the batch queue.
pub(crate) fn search(
    model: &Model,
    config: &SolverConfig,
    options: &SolverOptions,
    integral: &[usize],
) -> Result<Solution, IlpError> {
    // Kit restart (see [`kit_restart_after`]): the first attempt runs with
    // the kit off — bit-exact replay of the dense oracle's trajectory,
    // which is the fastest regime for small trees. If the tree
    // reaches the restart point the search has proven big, the attempt is
    // abandoned and the whole search restarts with the kit on from the
    // root, where its per-solve savings repay the redone nodes many times
    // over. The restart point is 384 nodes, fewer on LPs of more than 128
    // rows, whose kit-off nodes cost proportionally more. The trigger is
    // the expanded-node count at a round boundary against the presolved row
    // count — a pure function of the model, so the restart decision and the
    // restarted trajectory are deterministic. The restarted attempt reads
    // nothing of the abandoned one, so the restart point decides only
    // *whether* a search restarts, never what a restarted search returns.
    with_search_ctx(model, config, options, integral, |ctx| match search_once(ctx, false)? {
        Some(sol) => Ok(sol),
        None => Ok(search_once(ctx, true)?.expect("a kit-enabled search never requests a restart")),
    })
}

/// One attempt of [`search`] with the kit on or off from its root: `None`
/// where a kit-off attempt reaches its restart point.
#[cfg(test)]
pub(crate) fn attempt(
    model: &Model,
    config: &SolverConfig,
    options: &SolverOptions,
    kit: bool,
) -> Result<Option<Solution>, IlpError> {
    with_search_ctx(model, config, options, &model.integral_vars(), |ctx| search_once(ctx, kit))
}

/// Builds what every attempt of one search shares and runs `attempts` on it.
fn with_search_ctx<T>(
    model: &Model,
    config: &SolverConfig,
    options: &SolverOptions,
    integral: &[usize],
    attempts: impl FnOnce(&SearchCtx<'_>) -> Result<T, IlpError>,
) -> Result<T, IlpError> {
    let full_lp = model.to_lp();
    let token = config.deadline_token();
    let (pre, red_integral) = presolved_root(&full_lp, integral, options.presolve)?;
    let mut prep = PreparedLp::new(&pre.lp);
    prep.set_cancel(token.clone());
    attempts(&SearchCtx {
        options,
        model,
        config,
        full_lp: &full_lp,
        pre: &pre,
        prep: &prep,
        integral,
        red_integral: &red_integral,
        token,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::solver::search_only;
    use crate::{LinExpr, Sense, SolveStatus, SolverConfig};

    fn knapsack(n: usize) -> Model {
        let mut m = Model::new("pk");
        let vars: Vec<_> = (0..n).map(|i| m.binary(format!("x{i}"))).collect();
        let w = LinExpr::sum(
            vars.iter().enumerate().map(|(i, &v)| LinExpr::term(v, 1.0 + (i % 7) as f64)),
        );
        m.add_le("cap", w, (2 * n) as f64 / 1.5);
        m.set_objective(
            Sense::Maximize,
            LinExpr::sum(
                vars.iter().enumerate().map(|(i, &v)| LinExpr::term(v, ((i * 3) % 11 + 1) as f64)),
            ),
        );
        m
    }

    /// The convenience path *is* the production driver: `Model::solve_with`
    /// runs [`search`] with the incumbent seed off, so it returns the
    /// bit-identical point and tree as a direct call of the driver with the
    /// seed off.
    #[test]
    fn model_solve_with_runs_this_driver() {
        let m = knapsack(12);
        let cfg = SolverConfig::default();
        let convenience = m.solve_with(&cfg).unwrap();
        let options = SolverOptions { warm_start: false, ..SolverOptions::default() };
        let par = search(&m, &cfg, &options, &m.integral_vars()).unwrap();
        assert_eq!(convenience.values, par.values);
        assert_eq!(convenience.objective.to_bits(), par.objective.to_bits());
        assert_eq!(convenience.nodes_explored, par.nodes_explored);
        assert!(par.nodes_explored > 0, "the knapsack must actually branch");
    }

    /// A kit-off attempt over a wide LP is abandoned at its row-node
    /// budget, not at the flat 384 nodes. The model is a symmetric
    /// knapsack (2·Σx ≤ odd cap keeps every relaxation fractional, so the
    /// tree is big) padded with non-redundant triple rows until the
    /// presolved LP is past 128 rows. The abandoned attempt's nodes are
    /// what `bb_nodes` holds beyond the returned tree; a round adds at most
    /// [`BATCH`] nodes, so they land within `BATCH - 1` of the budget.
    #[test]
    fn wide_lp_kit_off_attempt_stops_at_the_row_node_budget() {
        let n = 15;
        let mut m = Model::new("wide-sym");
        let vars: Vec<_> = (0..n).map(|i| m.binary(format!("x{i}"))).collect();
        m.add_le("cap", LinExpr::sum(vars.iter().map(|&x| LinExpr::term(x, 2.0))), n as f64);
        for a in 0..n {
            for b in a + 1..n {
                for c in (b + 1..n).filter(|c| (a + 2 * b + 3 * c) % 2 == 0) {
                    let row = LinExpr::sum([vars[a], vars[b], vars[c]].map(LinExpr::from));
                    m.add_le(format!("t{a}_{b}_{c}"), row, 2.5);
                }
            }
        }
        m.set_objective(Sense::Maximize, LinExpr::sum(vars.iter().map(|&x| LinExpr::from(x))));

        let (pre, _) = presolved_root(&m.to_lp(), &m.integral_vars(), true).unwrap();
        let rows = pre.lp.rows.len();
        let budget = kit_restart_after(rows);
        assert!(budget < crate::node::FAST_KIT_AFTER_NODES, "{rows} presolved rows");
        let handle = Arc::new(crate::SolveActivity::default());
        let sol = crate::SolveActivity::scoped(&handle, || {
            m.solve_with_options(&SolverConfig::default(), &search_only())
        })
        .unwrap();
        let abandoned = handle.snapshot().bb_nodes - sol.nodes_explored as u64;
        assert!(
            (budget as u64..budget as u64 + BATCH as u64).contains(&abandoned),
            "abandoned {abandoned} nodes, budget {budget} ({rows} rows)"
        );
    }

    /// A frontier of tens of thousands of open nodes pays this per node
    /// on top of what it points to, so it may not grow past the 56 bytes
    /// a node took when each one held a point, a basis and a chain link.
    #[test]
    fn a_node_stays_within_56_bytes() {
        assert!(std::mem::size_of::<Node>() <= 56, "{} bytes", std::mem::size_of::<Node>());
    }

    /// A min-cut bisection built like the compiler's two-way split: binary
    /// sides `x`, cut indicators `y ≥ |x_a − x_b|` weighted by edge width,
    /// and a two-sided balance row. The root bound is 0 (every `x` at ½),
    /// so the search climbs a plateau where most LP points are integral.
    fn plateau_bisection(items: usize) -> Model {
        let mut m = Model::new("plateau");
        let x: Vec<_> = (0..items).map(|_| m.binary("x")).collect();
        let edges: Vec<(usize, usize)> = (0..items)
            .flat_map(|i| [(i, (i + 1) % items), (i, (i + 3) % items), (i, (i * 7 + 2) % items)])
            .filter(|&(a, b)| a < b)
            .collect();
        let mut objective = LinExpr::new();
        for (k, &(a, b)) in edges.iter().enumerate() {
            let y = m.continuous("y", 0.0, 1.0);
            m.add_ge("c1", y - x[a] + x[b], 0.0);
            m.add_ge("c2", y - x[b] + x[a], 0.0);
            objective.add_term(y, (32 * (1 + k % 3)) as f64);
        }
        let load = |i: usize| (3 + (i * 5) % 7) as f64;
        let total: f64 = (0..items).map(load).sum();
        let high = LinExpr::sum(x.iter().enumerate().map(|(i, &v)| LinExpr::term(v, load(i))));
        m.add_ge("balH", high.clone(), 0.45 * total);
        m.add_le("balL", high, 0.55 * total);
        m.set_objective(Sense::Minimize, objective);
        m
    }

    /// Integral LP points are stored as packed candidates (no basis, no
    /// chain), and the search that reads them back proves the optimum.
    #[test]
    fn plateau_candidates_are_stored_packed() {
        let m = plateau_bisection(14);
        let config = SolverConfig { objective_granularity: 32.0, ..SolverConfig::default() };
        let handle = Arc::new(crate::SolveActivity::default());
        let options = SolverOptions { warm_start: false, ..search_only() };
        let sol = crate::SolveActivity::scoped(&handle, || m.solve_with_options(&config, &options))
            .unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(!sol.degraded);
        crate::certify(&m, &config, &sol).unwrap();
        let stats = handle.snapshot();
        assert!(stats.candidate_nodes > 0, "no candidate node ({stats:?})");
        assert!(sol.nodes_explored > 20, "the plateau must branch: {}", sol.nodes_explored);
    }

    /// `c·x + y ≥ r` with `x` binary and `y ∈ [0, 10]`, minimizing
    /// `c·x + 10·y`: the optimum is `x = 0, y = r` at `10·r`. The root LP
    /// point `x = r / c` is integral to `int_tol`, but rounds to `x = 0,
    /// y = 0`, which breaks the row. That node may not be dropped as if
    /// its subtree were searched: without the heuristic seed there is no
    /// incumbent, with it the seed's `x = 1` comes back unproven and
    /// degraded, never `Optimal`, and the bound never claims more than the
    /// true optimum.
    #[test]
    fn an_unroundable_integral_point_keeps_its_bound_open() {
        for (c, r) in [(1e6, 0.1), (1e5, 0.05), (5e4, 0.02), (1e3, 1e-4)] {
            let mut m = Model::new("unroundable");
            let x = m.binary("x");
            let y = m.continuous("y", 0.0, 10.0);
            m.add_ge("row", c * x + y, r);
            m.set_objective(Sense::Minimize, c * x + 10.0 * y);
            let config = SolverConfig::default();
            assert_eq!(m.solve_with(&config).unwrap_err(), IlpError::NoIncumbent, "c={c} r={r}");
            let sol = m.solve_with_options(&config, &SolverOptions::default()).unwrap();
            assert_eq!(sol.status, SolveStatus::Feasible, "c={c} r={r}: {sol:?}");
            assert!(sol.degraded, "c={c} r={r}: {sol:?}");
            assert_eq!(sol.values, [1.0, 0.0], "the heuristic seed");
            assert!(sol.best_bound <= 10.0 * r + 1e-9, "c={c} r={r}: {sol:?}");
        }
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, 4.0);
        m.set_objective(Sense::Maximize, 3.0 * x);
        let sol = m.solve_with_options(&SolverConfig::default(), &search_only()).unwrap();
        assert!((sol.objective - 12.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new("inf");
        let x = m.binary("x");
        m.add_ge("c", LinExpr::term(x, 1.0), 2.0);
        m.set_objective(Sense::Minimize, x.into());
        assert!(m.solve_with_options(&SolverConfig::default(), &search_only()).is_err());
    }
}
