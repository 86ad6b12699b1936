//! Deterministic parallel branch and bound.
//!
//! The search runs in synchronous rounds: every round pops the best (up to)
//! [`BATCH`] open nodes off the frontier, expands them concurrently on a
//! [`std::thread::scope`] worker pool, then merges candidates and children
//! back in slot order. The batch size is a *constant*, independent of the
//! worker count, so the exploration trace — and therefore the returned
//! solution — is bit-identical for any `threads` value. Workers share the
//! incumbent through a mutex; updates use a total order (exact objective
//! comparison, ties broken by lexicographically smaller point), so the final
//! incumbent is the minimum over the candidate set no matter how worker
//! updates interleave.
//!
//! Node solves are incremental exactly as in the sequential search: one
//! root presolve, sparse [`BoundChain`] deltas instead of cloned bound
//! vectors, and child LPs warm-started from the parent [`Basis`]. Both the
//! chain and the basis are pure functions of the node, so warm starts do
//! not disturb the thread-count independence.
//!
//! Only wall-clock expiry ([`SolverConfig::time_limit`]) can break this
//! determinism, because the cut-off point then depends on machine speed.
//! Every branch-and-bound solver has that caveat; TAPA-CS's bisection ILPs
//! close well inside their budgets.
//!
//! # Efficiency tradeoff
//!
//! Round-based exploration does speculative work pure best-first would
//! prune — the classic parallel branch-and-bound efficiency < 1. The
//! leader-follower round (the best node expands first and its incumbent
//! bars dominated followers) and the width ramp bound the overhead at
//! roughly 20% of solve time on a single core; worker-count parallelism
//! on the surviving followers, plus the concurrent bipartition recursion
//! in the TAPA-CS core, pay it back on multi-core hosts. A sequential
//! fallback at `threads == 1` would be cheaper there but is deliberately
//! ruled out: it would make `threads: 1` and `threads: N` explore
//! different traces, breaking the bit-identical-results guarantee the
//! compiler's determinism tests pin.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use crate::branch_bound::{cancel_error, objective_of, presolved_root, round_repair, SolveParams};
use crate::cancel::CancellationToken;
use crate::error::IlpError;
use crate::model::{Model, SolverConfig};
use crate::node::{expand_children, most_fractional, BoundChain, Expanded};
use crate::presolve::PresolvedLp;
use crate::simplex::{Basis, LpEngine, LpOutcome, LpParity, LpProblem, PreparedLp};
use crate::solution::{Solution, SolveStatus};

/// Frontier nodes expanded per synchronous round. Fixed (never derived from
/// the worker count) so the search is deterministic across thread counts.
const BATCH: usize = 4;

/// An open node. `seq` is the deterministic push order, used to break bound
/// ties so the heap pop order is a total order.
struct Node {
    /// LP relaxation bound in *minimize* direction.
    bound: f64,
    seq: u64,
    /// Sparse bound state (deltas back to the presolved root).
    chain: Arc<BoundChain>,
    /// Fractional LP point in *reduced* space (picks the branching var).
    relax: Vec<f64>,
    /// This node's optimal basis — the children's warm start.
    basis: Arc<Basis>,
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

/// A child produced by expanding a node; gets its `seq` at merge time.
struct Child {
    bound: f64,
    chain: Arc<BoundChain>,
    relax: Vec<f64>,
    basis: Arc<Basis>,
}

/// Outcome of expanding one batch slot. Pure function of the node (modulo
/// deadline expiry), so slots can be computed on any worker without
/// affecting the result.
enum Expansion {
    /// The node's relaxation was integral: a candidate incumbent (already
    /// offered to the shared incumbent by the worker).
    Candidate,
    /// Children in deterministic `[down, up]` order (infeasible ones
    /// dropped). `timed_out` marks an expansion cut short by the deadline.
    Children { children: Vec<Child>, timed_out: bool },
    /// A child LP was unbounded — modelling error, abort the solve.
    Unbounded,
}

/// The shared incumbent: minimize-direction objective plus full-space point.
struct Incumbent {
    obj: f64,
    values: Vec<f64>,
}

/// Deterministic total order on candidates: exact objective comparison
/// first, then lexicographic comparison of the value vectors. Using exact
/// (not tolerance-based) comparison keeps the order transitive, so the
/// final incumbent is the set minimum regardless of update interleaving.
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

/// Offers a candidate to the shared incumbent, keeping the order minimum.
fn offer(shared: &Mutex<Option<Incumbent>>, obj: f64, values: &[f64]) {
    let mut guard = shared.lock().unwrap();
    let replace = match &*guard {
        Some(cur) => precedes(obj, values, cur.obj, &cur.values),
        None => true,
    };
    if replace {
        *guard = Some(Incumbent { obj, values: values.to_vec() });
    }
}

/// Everything an expansion slot needs, shared read-only across workers.
struct SearchCtx<'a> {
    full_lp: &'a LpProblem,
    pre: &'a PresolvedLp,
    prep: &'a PreparedLp<'a>,
    model: &'a Model,
    integral: &'a [usize],
    red_integral: &'a [usize],
    config: &'a SolverConfig,
    params: SolveParams,
    /// This attempt's fast-kit verdict (see the kit-restart scheme in
    /// [`solve`]); constant per attempt, so every slot prices identically.
    kit: bool,
    /// Deadline/cancel token shared by every slot (see
    /// [`SolverConfig::cancel`]); `None` when the solve is unbounded in time
    /// and nobody can cancel it.
    token: Option<CancellationToken>,
}

/// Expands one node: either reports an integral candidate (offered to the
/// shared incumbent) or returns the branched children (solved through the
/// shared [`expand_children`] helper, so the branching semantics match the
/// sequential driver exactly). No pruning happens here — children are
/// pruned deterministically at merge time. `lo_buf`/`hi_buf` are per-worker
/// scratch buffers.
fn expand_node(
    ctx: &SearchCtx<'_>,
    incumbent: &Mutex<Option<Incumbent>>,
    node: &Node,
    lo_buf: &mut Vec<f64>,
    hi_buf: &mut Vec<f64>,
) -> Expansion {
    let lp = &ctx.pre.lp;
    let to_min = |obj: f64| if lp.minimize { obj } else { -obj };

    let Some(j) = most_fractional(&node.relax, ctx.red_integral, ctx.config.int_tol) else {
        // Integral point: candidate incumbent (checked in full space).
        let mut reduced = node.relax.clone();
        for &k in ctx.red_integral {
            reduced[k] = reduced[k].round();
        }
        let mut values = ctx.pre.postsolve(&reduced);
        for &k in ctx.integral {
            values[k] = values[k].round();
        }
        if ctx.model.is_feasible(&values, 1e-6) {
            let obj = to_min(objective_of(ctx.full_lp, &values));
            offer(incumbent, obj, &values);
        }
        return Expansion::Candidate;
    };

    let warm = if ctx.params.warm_lp { Some(node.basis.as_ref()) } else { None };
    let token = ctx.token.as_ref();
    match expand_children(
        ctx.prep,
        &node.chain,
        warm,
        j,
        node.relax[j],
        token,
        lo_buf,
        hi_buf,
        ctx.kit,
    ) {
        Expanded::Unbounded => Expansion::Unbounded,
        Expanded::Children { children, timed_out } => Expansion::Children {
            children: children
                .into_iter()
                .map(|c| Child {
                    bound: to_min(c.objective),
                    chain: c.chain,
                    relax: c.relax,
                    basis: c.basis,
                })
                .collect(),
            timed_out,
        },
    }
}

pub(crate) fn solve(
    model: &Model,
    integral: &[usize],
    config: &SolverConfig,
    threads: usize,
    params: SolveParams,
) -> Result<Solution, IlpError> {
    let full_lp = model.to_lp();
    // One token for the whole search: the configured deadline fused with any
    // caller-supplied cancellation, polled at round boundaries, before every
    // child LP solve, and inside the simplex iteration loops.
    let token = config.deadline_token();

    let (pre, red_integral) = presolved_root(&full_lp, integral, params.presolve)?;
    let lp = &pre.lp;
    // One shared prepared form (sparse matrix for the default engine) for
    // the root and every node solve — workers borrow it read-only.
    let mut prep = PreparedLp::new(lp, params.lp_engine, params.lp_parity);
    prep.set_cancel(token.clone());

    // Fast-parity kit restart, same two-attempt scheme as the sequential
    // driver (see [`crate::node::FAST_KIT_AFTER_NODES`]): attempt one
    // replays the exact trajectory; a tree crossing the node threshold
    // restarts from the root with the full kit. The trigger is the
    // expanded-node count at a round boundary — a pure function of the
    // model, so the restart decision is thread-count invariant.
    match search_once(
        model,
        integral,
        config,
        threads,
        params,
        &full_lp,
        &pre,
        &red_integral,
        &prep,
        &token,
        false,
    )? {
        Some(sol) => Ok(sol),
        None => Ok(search_once(
            model,
            integral,
            config,
            threads,
            params,
            &full_lp,
            &pre,
            &red_integral,
            &prep,
            &token,
            true,
        )?
        .expect("a kit-enabled search never requests a restart")),
    }
}

/// One round-synchronous attempt. Returns `Ok(None)` when the fast-parity
/// kit is off and the tree crossed [`crate::node::FAST_KIT_AFTER_NODES`].
#[allow(clippy::too_many_arguments)]
fn search_once(
    model: &Model,
    integral: &[usize],
    config: &SolverConfig,
    threads: usize,
    params: SolveParams,
    full_lp: &LpProblem,
    pre: &PresolvedLp,
    red_integral: &[usize],
    prep: &PreparedLp<'_>,
    token: &Option<CancellationToken>,
    kit: bool,
) -> Result<Option<Solution>, IlpError> {
    let lp = &pre.lp;
    let workers = threads.max(1);
    let to_min = |obj: f64| if full_lp.minimize { obj } else { -obj };
    let from_min = |obj: f64| if full_lp.minimize { obj } else { -obj };
    let restart_eligible =
        !kit && params.lp_parity == LpParity::Fast && matches!(params.lp_engine, LpEngine::Sparse);

    // Root = node zero: the kit verdict covers it, same rule as the
    // sequential driver.
    let root = match prep.solve_node(&lp.lower, &lp.upper, None, kit) {
        LpOutcome::Optimal { values, objective, basis } => Node {
            bound: to_min(objective),
            seq: 0,
            chain: BoundChain::root(),
            relax: values,
            basis: Arc::new(basis),
        },
        LpOutcome::Infeasible => return Err(IlpError::Infeasible),
        LpOutcome::Unbounded => return Err(IlpError::Unbounded),
        LpOutcome::Cancelled => return Err(cancel_error(token.as_ref())),
    };
    let root_bound = root.bound;

    let incumbent: Mutex<Option<Incumbent>> = Mutex::new(None);
    let full_relax = pre.postsolve(&root.relax);
    if let Some(rounded) = round_repair(model, &full_relax, integral, config.int_tol) {
        let obj = to_min(objective_of(full_lp, &rounded));
        offer(&incumbent, obj, &rounded);
    } else if params.heuristic_seed {
        // Greedy first-fit repair on the already-solved root relaxation —
        // the warm-start incumbent, at zero extra LP solves.
        if let Some(repaired) = crate::solver::greedy_repair(model, full_lp, &full_relax, integral)
        {
            let obj = to_min(objective_of(full_lp, &repaired));
            offer(&incumbent, obj, &repaired);
        }
    }

    let ctx = SearchCtx {
        full_lp,
        pre,
        prep,
        model,
        integral,
        red_integral,
        config,
        params,
        kit,
        token: token.clone(),
    };

    let tighten = crate::branch_bound::granularity_tightener(config.objective_granularity);

    let mut heap = BinaryHeap::new();
    let mut next_seq = 1u64;
    heap.push(root);

    // Main-thread scratch bound buffers (leader + single-worker rounds);
    // spawned workers carry their own pair per chunk.
    let mut lo_buf: Vec<f64> = Vec::with_capacity(lp.n_vars);
    let mut hi_buf: Vec<f64> = Vec::with_capacity(lp.n_vars);

    let mut nodes = 0usize;
    let mut best_open_bound = root_bound;
    let mut budget_hit = false;
    let mut round = 0u32;

    loop {
        // Batch width ramps 1 → 2 → … → BATCH by round index (a pure
        // function of the model, so still thread-count independent): easy
        // instances finish with near-best-first work, deep searches reach
        // full parallel width within a few rounds.
        let width = BATCH.min(1usize << round.min(31));
        round += 1;
        // Deterministic batch pop: best-first until the batch is full or the
        // frontier top cannot beat the incumbent (heap order makes every
        // remaining node dominated too).
        let inc_obj = incumbent.lock().unwrap().as_ref().map(|i| i.obj);
        let mut batch: Vec<Node> = Vec::with_capacity(width);
        let mut gap_closed = false;
        while batch.len() < width {
            let Some(top) = heap.peek() else { break };
            if let Some(io) = inc_obj {
                // Same granularity-tightened pruning as the sequential
                // search: only the comparison is tightened, never the
                // stored bound, so heap order stays thread-count invariant.
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
        if restart_eligible && nodes >= crate::node::FAST_KIT_AFTER_NODES {
            // The abandoned attempt's nodes still count as explored work.
            crate::stats::record(|a| a.record_bb_nodes(nodes as u64));
            return Ok(None);
        }
        if nodes > config.max_nodes {
            budget_hit = true;
            break;
        }
        if token.as_ref().is_some_and(CancellationToken::is_cancelled) {
            budget_hit = true;
            break;
        }

        // Leader-follower round. The round leader (the single best node —
        // the one pure best-first would expand next) expands first, and any
        // incumbent it produces sharpens the bar for the rest of the round,
        // so followers that best-first pruning would never have touched are
        // skipped instead of speculatively expanded. Both the bar and the
        // survivor set are pure functions of the model, keeping the trace
        // thread-count independent.
        let mut results: Vec<Option<Expansion>> = Vec::new();
        results.resize_with(batch.len(), || None);
        results[0] = Some(expand_node(&ctx, &incumbent, &batch[0], &mut lo_buf, &mut hi_buf));
        let bar = incumbent.lock().unwrap().as_ref().map(|i| i.obj);
        let survives = |node: &Node| {
            bar.is_none_or(|io| {
                tighten(node.bound) < io - config.mip_gap.max(1e-12) * io.abs().max(1.0)
            })
        };
        let followers = batch.len() - 1;
        let active = workers.min(followers);
        if active <= 1 {
            for (node, slot) in batch[1..].iter().zip(results[1..].iter_mut()) {
                if survives(node) {
                    *slot = Some(expand_node(&ctx, &incumbent, node, &mut lo_buf, &mut hi_buf));
                }
            }
        } else {
            let chunk = followers.div_ceil(active);
            // Per-job activity scopes are thread-local: hand the caller's
            // scope to every spawned worker so batch-level attribution
            // survives the internal parallelism.
            let scope = crate::stats::SolveActivity::current_scope();
            std::thread::scope(|s| {
                let mut pairs: Vec<(&[Node], &mut [Option<Expansion>])> =
                    batch[1..].chunks(chunk).zip(results[1..].chunks_mut(chunk)).collect();
                let (first_nodes, first_slots) = pairs.remove(0);
                for (nodes_chunk, slots_chunk) in pairs {
                    let (ctx, incumbent, survives) = (&ctx, &incumbent, &survives);
                    let scope = scope.clone();
                    s.spawn(move || {
                        crate::stats::SolveActivity::scoped_opt(scope, || {
                            // One scratch pair per worker chunk, reused
                            // across its nodes.
                            let (mut lo, mut hi) = (Vec::new(), Vec::new());
                            for (node, slot) in nodes_chunk.iter().zip(slots_chunk.iter_mut()) {
                                if survives(node) {
                                    *slot =
                                        Some(expand_node(ctx, incumbent, node, &mut lo, &mut hi));
                                }
                            }
                        });
                    });
                }
                for (node, slot) in first_nodes.iter().zip(first_slots.iter_mut()) {
                    if survives(node) {
                        *slot = Some(expand_node(&ctx, &incumbent, node, &mut lo_buf, &mut hi_buf));
                    }
                }
            });
        }

        // Deterministic merge: the incumbent now holds the round's order
        // minimum (workers offered candidates under the mutex); children are
        // pruned against it and pushed in slot order.
        let merged_obj = incumbent.lock().unwrap().as_ref().map(|i| i.obj);
        for expansion in results.into_iter().flatten() {
            match expansion {
                Expansion::Unbounded => return Err(IlpError::Unbounded),
                Expansion::Candidate => {}
                Expansion::Children { children, timed_out } => {
                    if timed_out {
                        budget_hit = true;
                    }
                    for child in children {
                        let dominated =
                            merged_obj.is_some_and(|best| tighten(child.bound) >= best - 1e-12);
                        if !dominated {
                            heap.push(Node {
                                bound: child.bound,
                                seq: next_seq,
                                chain: child.chain,
                                relax: child.relax,
                                basis: child.basis,
                            });
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

    // Node-tree size is the canary for pricing-rule regressions; record it
    // for every finished search (same hook as the sequential driver).
    crate::stats::record(|a| a.record_bb_nodes(nodes as u64));

    // An external cancel aborts outright — the caller asked the job to stop,
    // so even an incumbent on hand is not returned. Deadline expiry instead
    // degrades to the anytime incumbent below.
    if token.as_ref().is_some_and(CancellationToken::cancelled_externally) {
        return Err(IlpError::Cancelled);
    }

    let exhausted = heap.is_empty() && !budget_hit;
    match incumbent.into_inner().unwrap() {
        Some(Incumbent { obj, values }) => {
            let proven = exhausted
                || (obj - best_open_bound).abs()
                    <= config.mip_gap.max(1e-9) * obj.abs().max(1.0) + 1e-9;
            Ok(Some(Solution {
                status: if proven { SolveStatus::Optimal } else { SolveStatus::Feasible },
                objective: from_min(obj),
                values,
                nodes_explored: nodes,
                best_bound: from_min(if exhausted { obj } else { best_open_bound }),
                // Anytime result cut short by the budget: usable, but kept
                // out of the persistent cache and Pareto frontiers.
                degraded: budget_hit && !proven,
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

/// Best-first parallel branch and bound over the simplex LP relaxation.
///
/// Returns solutions with the same objective value as
/// [`crate::SequentialSolver`] (both are exact searches under the same
/// pruning margins) and is *value-deterministic*: for a given model and
/// configuration the returned point is identical for every `threads` value,
/// including 1 — a fixed per-round batch keeps the exploration trace
/// independent of the worker count (see the module source for details).
#[derive(Debug, Clone)]
pub struct ParallelSolver {
    /// Worker threads per solve. `0` means
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Seed the incumbent with [`crate::HeuristicSolver`]'s point before
    /// the search starts.
    pub warm_start: bool,
    /// Run the root presolve (see [`crate::SolverOptions::presolve`]).
    pub presolve: bool,
    /// Warm-start child LPs from the parent basis.
    pub warm_lp: bool,
    /// Which simplex engine runs the node LP relaxations.
    pub lp_engine: LpEngine,
    /// Arithmetic contract of the sparse engine (see [`LpParity`]).
    pub lp_parity: LpParity,
}

impl Default for ParallelSolver {
    fn default() -> Self {
        Self {
            threads: 0,
            warm_start: true,
            presolve: true,
            warm_lp: true,
            lp_engine: LpEngine::from_env(),
            lp_parity: LpParity::from_env(),
        }
    }
}

impl crate::Solver for ParallelSolver {
    fn name(&self) -> String {
        let mut name = String::from("parallel");
        if self.warm_start {
            name.push_str("+warm");
        }
        if !self.presolve {
            name.push_str("-nopresolve");
        }
        if !self.warm_lp {
            name.push_str("-coldlp");
        }
        name.push_str(crate::solver::lp_name_suffix(self.lp_engine, self.lp_parity));
        name
    }

    fn solve(&self, model: &Model, config: &SolverConfig) -> Result<Solution, IlpError> {
        let integral = model.integral_vars();
        if integral.is_empty() {
            // Honor the configured engine even on the pure-LP fast path.
            return crate::solver::solve_lp(
                model,
                self.lp_engine,
                self.lp_parity,
                config.deadline_token(),
            );
        }
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        let params = SolveParams {
            heuristic_seed: self.warm_start,
            presolve: self.presolve,
            warm_lp: self.warm_lp,
            lp_engine: self.lp_engine,
            lp_parity: self.lp_parity,
        };
        solve(model, &integral, config, threads, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Sense, Solver, SolverConfig};

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

    #[test]
    fn matches_sequential_objective() {
        let m = knapsack(12);
        let cfg = SolverConfig::default();
        let seq = m.solve_with(&cfg).unwrap();
        let par = ParallelSolver { threads: 4, warm_start: false, ..Default::default() }
            .solve(&m, &cfg)
            .unwrap();
        assert!((seq.objective - par.objective).abs() < 1e-6);
    }

    #[test]
    fn identical_values_across_thread_counts() {
        let m = knapsack(14);
        let cfg = SolverConfig::default();
        let one = ParallelSolver { threads: 1, ..Default::default() }.solve(&m, &cfg).unwrap();
        for threads in [2, 3, 8] {
            let t = ParallelSolver { threads, ..Default::default() }.solve(&m, &cfg).unwrap();
            assert_eq!(one.values, t.values, "threads={threads} diverged");
            assert_eq!(one.nodes_explored, t.nodes_explored);
        }
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, 4.0);
        m.set_objective(Sense::Maximize, 3.0 * x);
        let sol = ParallelSolver::default().solve(&m, &SolverConfig::default()).unwrap();
        assert!((sol.objective - 12.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new("inf");
        let x = m.binary("x");
        m.add_ge("c", LinExpr::term(x, 1.0), 2.0);
        m.set_objective(Sense::Minimize, x.into());
        assert!(ParallelSolver::default().solve(&m, &SolverConfig::default()).is_err());
    }
}
