//! Best-first branch and bound over the simplex LP relaxation.
//!
//! Node solves are *incremental*: the model is presolved once at the root
//! (see [`crate::presolve`]), nodes store sparse [`BoundChain`] deltas
//! instead of cloned bound vectors, and every child LP warm-starts from
//! its parent's optimal [`Basis`] so it typically re-solves in a handful
//! of pivots instead of a full phase 1 + phase 2.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::cancel::CancellationToken;
use crate::error::IlpError;
use crate::model::{Model, SolverConfig};
use crate::node::{expand_children, most_fractional, BoundChain, Expanded};
use crate::presolve::{self, PresolveOutcome, PresolvedLp};
use crate::simplex::{Basis, LpEngine, LpOutcome, LpParity, LpProblem, PreparedLp};
use crate::solution::{Solution, SolveStatus};

/// Per-solve switches for the LP engine, threaded down from
/// [`crate::SolverOptions`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolveParams {
    /// Seed the incumbent with the greedy first-fit repair heuristic when
    /// plain rounding of the root relaxation is infeasible.
    pub heuristic_seed: bool,
    /// Run the root presolve before the search.
    pub presolve: bool,
    /// Warm-start child LPs from the parent basis.
    pub warm_lp: bool,
    /// Which simplex engine runs the node LP relaxations.
    pub lp_engine: LpEngine,
    /// Oracle-parity contract for the sparse engine (see [`LpParity`]).
    pub lp_parity: LpParity,
}

/// A live node in the search tree, ordered so the node with the most
/// promising (lowest, in minimize direction) LP bound pops first.
struct Node {
    /// LP relaxation bound in *minimize* direction.
    bound: f64,
    /// Sparse bound state (deltas back to the presolved root).
    chain: Arc<BoundChain>,
    /// Fractional LP point in *reduced* space (picks the branching var).
    relax: Vec<f64>,
    /// This node's optimal basis — the children's warm start.
    basis: Arc<Basis>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
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
        // Reverse: BinaryHeap is a max-heap, we want the smallest bound first.
        other.bound.partial_cmp(&self.bound).unwrap_or(Ordering::Equal)
    }
}

/// Presolves `model`'s LP (or wraps it untouched when disabled) and
/// derives the reduced-space indices of the integral variables.
pub(crate) fn presolved_root(
    full_lp: &LpProblem,
    integral: &[usize],
    enabled: bool,
) -> Result<(PresolvedLp, Vec<usize>), IlpError> {
    let mut is_int = vec![false; full_lp.n_vars];
    for &j in integral {
        is_int[j] = true;
    }
    let pre = if enabled {
        match presolve::presolve(full_lp, &is_int) {
            PresolveOutcome::Infeasible => return Err(IlpError::Infeasible),
            PresolveOutcome::Reduced(p) => p,
        }
    } else {
        PresolvedLp::identity(full_lp)
    };
    let red_integral =
        pre.kept.iter().enumerate().filter(|&(_, &orig)| is_int[orig]).map(|(r, _)| r).collect();
    Ok((pre, red_integral))
}

/// Bound-tightening closure for [`SolverConfig::objective_granularity`]:
/// rounds a min-direction LP bound up to the next multiple of the declared
/// granularity (the identity when unset). The relative backoff keeps a
/// bound that is numerically a hair *above* a lattice point from being
/// rounded one granule too far, which would prune unsoundly. Sign flips
/// preserve the lattice, so the same closure serves maximize models.
pub(crate) fn granularity_tightener(gran: f64) -> impl Fn(f64) -> f64 + Copy {
    move |bound: f64| {
        if gran > 0.0 && bound.is_finite() {
            let eps = 1e-6 * bound.abs().max(1.0);
            gran * ((bound - eps) / gran).ceil()
        } else {
            bound
        }
    }
}

pub(crate) fn solve(
    model: &Model,
    integral: &[usize],
    config: &SolverConfig,
    params: SolveParams,
) -> Result<Solution, IlpError> {
    let full_lp = model.to_lp();
    // One effective token per solve: external cancel + time limit fused.
    // Every deadline decision below goes through it, so the simplex inner
    // loops, the node-expansion loop and this driver all observe the same
    // signal with bounded latency.
    let token = config.deadline_token();

    let (pre, red_integral) = presolved_root(&full_lp, integral, params.presolve)?;
    let lp = &pre.lp;
    // One shared prepared form (sparse matrix for the default engine) for
    // the root and every node solve of this search.
    let mut prep = PreparedLp::new(lp, params.lp_engine, params.lp_parity);
    prep.set_cancel(token.clone());

    // Fast-parity kit restart (see [`crate::node::FAST_KIT_AFTER_NODES`]):
    // the first attempt runs with the kit off — bit-exact replay of the
    // exact trajectory, which is the fastest regime for small trees. If
    // the tree crosses the node threshold the search has proven big, the
    // attempt is abandoned and the whole search restarts with the kit on
    // from the root, where its per-solve savings repay the ~threshold
    // redone nodes many times over. Both the trigger (a node ordinal) and
    // the restarted trajectory are deterministic.
    match search_once(
        model,
        integral,
        config,
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

/// One branch-and-bound attempt. Returns `Ok(None)` when the fast-parity
/// kit is off and the tree crossed [`crate::node::FAST_KIT_AFTER_NODES`] —
/// the caller restarts with `kit: true`.
#[allow(clippy::too_many_arguments)]
fn search_once(
    model: &Model,
    integral: &[usize],
    config: &SolverConfig,
    params: SolveParams,
    full_lp: &LpProblem,
    pre: &PresolvedLp,
    red_integral: &[usize],
    prep: &PreparedLp<'_>,
    token: &Option<CancellationToken>,
    kit: bool,
) -> Result<Option<Solution>, IlpError> {
    let lp = &pre.lp;
    // Internally we minimize; flip at the end if the model maximizes.
    let to_min = |obj: f64| if full_lp.minimize { obj } else { -obj };
    let from_min = |obj: f64| if full_lp.minimize { obj } else { -obj };
    let restart_eligible =
        !kit && params.lp_parity == LpParity::Fast && matches!(params.lp_engine, LpEngine::Sparse);

    // The root is node zero of the search: the kit verdict covers it too,
    // so a small tree replays the exact trajectory from its very first
    // solve and a restarted search prices its root with the full kit.
    let root = match prep.solve_node(&lp.lower, &lp.upper, None, kit) {
        LpOutcome::Optimal { values, objective, basis } => Node {
            bound: to_min(objective),
            chain: BoundChain::root(),
            relax: values,
            basis: Arc::new(basis),
        },
        LpOutcome::Infeasible => return Err(IlpError::Infeasible),
        LpOutcome::Unbounded => {
            // The relaxation is unbounded. With all-finite integer bounds the
            // MIP itself may still be bounded, but for our use cases this
            // signals a modelling error.
            return Err(IlpError::Unbounded);
        }
        // Cancelled before the root relaxation finished: there is nothing
        // to fall back on yet.
        LpOutcome::Cancelled => return Err(cancel_error(token.as_ref())),
    };
    let root_bound = root.bound;

    let mut heap = BinaryHeap::new();
    let mut incumbent: Option<(f64, Vec<f64>)> = None; // (min-direction obj, full-space values)
    let mut nodes = 0usize;

    // Seed the incumbent from the root relaxation: plain rounding, escalated
    // to the greedy first-fit repair walk (the [`crate::HeuristicSolver`]
    // heuristic) when warm-starting is on and rounding alone is infeasible.
    // Candidates live in the *original* variable space (postsolved).
    let full_relax = pre.postsolve(&root.relax);
    if let Some(rounded) = round_repair(model, &full_relax, integral, config.int_tol) {
        let obj = to_min(objective_of(full_lp, &rounded));
        incumbent = Some((obj, rounded));
    } else if params.heuristic_seed {
        if let Some(repaired) = crate::solver::greedy_repair(model, full_lp, &full_relax, integral)
        {
            let obj = to_min(objective_of(full_lp, &repaired));
            incumbent = Some((obj, repaired));
        }
    }

    heap.push(root);

    // Scratch bound buffers, reused across every node expansion.
    let mut lo_buf: Vec<f64> = Vec::with_capacity(lp.n_vars);
    let mut hi_buf: Vec<f64> = Vec::with_capacity(lp.n_vars);

    let tighten = granularity_tightener(config.objective_granularity);

    let mut best_open_bound = root_bound;
    let mut budget_hit = false;
    while let Some(node) = heap.pop() {
        best_open_bound = node.bound;
        if let Some((inc_obj, _)) = &incumbent {
            // Prune: this node (and with best-first, all remaining) cannot
            // beat the incumbent. The granularity-tightened bound is used
            // only for this comparison — stored bounds (and thus expansion
            // order) stay raw, so tightening never changes which incumbent
            // the search returns, only how early it stops proving.
            if tighten(node.bound) >= *inc_obj - config.mip_gap.max(1e-12) * inc_obj.abs().max(1.0)
            {
                best_open_bound = *inc_obj;
                break;
            }
        }
        nodes += 1;
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

        let Some(j) = most_fractional(&node.relax, red_integral, config.int_tol) else {
            // Integral point: candidate incumbent (checked in full space).
            let mut reduced = node.relax.clone();
            for &k in red_integral {
                reduced[k] = reduced[k].round();
            }
            let mut values = pre.postsolve(&reduced);
            for &k in integral {
                values[k] = values[k].round();
            }
            if model.is_feasible(&values, 1e-6) {
                let obj = to_min(objective_of(full_lp, &values));
                if incumbent.as_ref().is_none_or(|(best, _)| obj < *best) {
                    incumbent = Some((obj, values));
                }
            }
            continue;
        };

        let warm = if params.warm_lp { Some(node.basis.as_ref()) } else { None };
        match expand_children(
            prep,
            &node.chain,
            warm,
            j,
            node.relax[j],
            token.as_ref(),
            &mut lo_buf,
            &mut hi_buf,
            kit,
        ) {
            Expanded::Unbounded => return Err(IlpError::Unbounded),
            Expanded::Children { children, timed_out } => {
                for child in children {
                    let bound = to_min(child.objective);
                    let dominated =
                        incumbent.as_ref().is_some_and(|(best, _)| tighten(bound) >= *best - 1e-12);
                    if !dominated {
                        heap.push(Node {
                            bound,
                            chain: child.chain,
                            relax: child.relax,
                            basis: child.basis,
                        });
                    }
                }
                if timed_out {
                    budget_hit = true;
                    break;
                }
            }
        }
    }

    // Node-tree size is the canary for pricing-rule regressions (a pricing
    // change that reaches different LP vertices shows up here before it
    // shows up in wall time), so every finished search records it.
    crate::stats::record(|a| a.record_bb_nodes(nodes as u64));

    // An external cancel aborts outright — the caller no longer wants the
    // answer, so even an incumbent is discarded. Deadline expiry instead
    // degrades below (the anytime contract).
    if token.as_ref().is_some_and(CancellationToken::cancelled_externally) {
        return Err(IlpError::Cancelled);
    }

    let exhausted = heap.is_empty() && !budget_hit;
    match incumbent {
        Some((obj, values)) => {
            let proven = exhausted
                || (obj - best_open_bound).abs()
                    <= config.mip_gap.max(1e-9) * obj.abs().max(1.0) + 1e-9;
            Ok(Some(Solution {
                status: if proven { SolveStatus::Optimal } else { SolveStatus::Feasible },
                objective: from_min(obj),
                values,
                nodes_explored: nodes,
                best_bound: from_min(if exhausted { obj } else { best_open_bound }),
                // A budget-truncated incumbent is an *anytime* result: how
                // good it is depends on when the clock stopped. Marking it
                // degraded keeps it out of the persistent solve cache and
                // out of Pareto frontiers.
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

/// Maps a tripped token to the right error: external cancel aborts with
/// [`IlpError::Cancelled`]; a deadline expiry is a spent budget.
pub(crate) fn cancel_error(token: Option<&CancellationToken>) -> IlpError {
    if token.is_some_and(CancellationToken::cancelled_externally) {
        IlpError::Cancelled
    } else {
        IlpError::NoIncumbent
    }
}

pub(crate) fn objective_of(lp: &LpProblem, values: &[f64]) -> f64 {
    lp.objective_offset + values.iter().zip(&lp.objective).map(|(x, c)| x * c).sum::<f64>()
}

/// Rounds the integral coordinates of an LP point and keeps the result only
/// if it is feasible. A deliberately cheap warm-start heuristic.
pub(crate) fn round_repair(
    model: &Model,
    relax: &[f64],
    integral: &[usize],
    _tol: f64,
) -> Option<Vec<f64>> {
    let mut values = relax.to_vec();
    for &j in integral {
        values[j] = values[j].round();
    }
    model.is_feasible(&values, 1e-6).then_some(values)
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use crate::{LinExpr, Model, Sense, SolveStatus, SolverConfig};

    #[test]
    fn knapsack_optimum() {
        // Items: (value, weight): (60,10) (100,20) (120,30), cap 50 → 220.
        let mut m = Model::new("knapsack");
        let items = [(60.0, 10.0), (100.0, 20.0), (120.0, 30.0)];
        let vars: Vec<_> =
            items.iter().enumerate().map(|(i, _)| m.binary(format!("x{i}"))).collect();
        let weight = LinExpr::sum(vars.iter().zip(&items).map(|(&v, &(_, w))| LinExpr::term(v, w)));
        m.add_le("cap", weight, 50.0);
        let value =
            LinExpr::sum(vars.iter().zip(&items).map(|(&v, &(val, _))| LinExpr::term(v, val)));
        m.set_objective(Sense::Maximize, value);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 220.0).abs() < 1e-6);
        assert!(!sol.is_set(vars[0]));
        assert!(sol.is_set(vars[1]));
        assert!(sol.is_set(vars[2]));
    }

    #[test]
    fn integer_rounding_not_just_lp() {
        // max x s.t. 2x <= 3, x integer → 1 (LP gives 1.5).
        let mut m = Model::new("int");
        let x = m.integer("x", 0.0, 10.0);
        m.add_le("c", 2.0 * x, 3.0);
        m.set_objective(Sense::Maximize, x.into());
        let sol = m.solve().unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn granularity_tightener_rounds_bounds_up_to_the_lattice() {
        let t = crate::branch_bound::granularity_tightener(64.0);
        assert_eq!(t(5460.12), 5504.0);
        assert_eq!(t(5504.0), 5504.0, "exact lattice points are fixed points");
        assert_eq!(t(-3.5), 0.0, "negative bounds round toward zero");
        assert_eq!(t(f64::NEG_INFINITY), f64::NEG_INFINITY);
        let off = crate::branch_bound::granularity_tightener(0.0);
        assert_eq!(off(5460.12), 5460.12, "granularity 0 disables tightening");
    }

    #[test]
    fn declared_objective_granularity_prunes_without_changing_the_optimum() {
        // min 7x + 7y, x + y ≥ 1.5, integer: the LP bound 10.5 is off the
        // objective lattice {0, 7, 14, …}; declaring granularity 7 lifts it
        // to the true optimum 14 so the plateau prunes earlier.
        let build = || {
            let mut m = Model::new("gran");
            let x = m.integer("x", 0.0, 3.0);
            let y = m.integer("y", 0.0, 3.0);
            m.add_ge("c", x + y, 1.5);
            m.set_objective(Sense::Minimize, 7.0 * x + 7.0 * y);
            m
        };
        let base = build().solve().unwrap();
        let config = SolverConfig { objective_granularity: 7.0, ..SolverConfig::default() };
        let tightened = build().solve_with(&config).unwrap();
        assert!((base.objective - 14.0).abs() < 1e-6, "got {}", base.objective);
        assert!((tightened.objective - base.objective).abs() < 1e-9);
        assert!(
            tightened.nodes_explored <= base.nodes_explored,
            "lattice pruning must never expand the search: {} vs {}",
            tightened.nodes_explored,
            base.nodes_explored
        );
    }

    #[test]
    fn infeasible_integer_model() {
        // x + y == 1.5 with x, y binary has no integral solution... actually
        // impossible since sums are integral.
        let mut m = Model::new("infeas");
        let x = m.binary("x");
        let y = m.binary("y");
        m.add_eq("c", x + y, 1.5);
        m.set_objective(Sense::Minimize, x + y);
        assert!(m.solve().is_err());
    }

    #[test]
    fn assignment_problem() {
        // 3x3 assignment, cost matrix with known optimum 5 (1+1+3 diag-ish).
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut m = Model::new("assign");
        let mut x = vec![vec![]; 3];
        for (i, xi) in x.iter_mut().enumerate() {
            for j in 0..3 {
                xi.push(m.binary(format!("x{i}{j}")));
            }
        }
        for i in 0..3 {
            m.add_eq(
                format!("row{i}"),
                LinExpr::sum((0..3).map(|j| LinExpr::term(x[i][j], 1.0))),
                1.0,
            );
            m.add_eq(
                format!("col{i}"),
                LinExpr::sum((0..3).map(|j| LinExpr::term(x[j][i], 1.0))),
                1.0,
            );
        }
        let total = LinExpr::sum((0..3).flat_map(|i| {
            let xi = x[i].clone();
            (0..3).map(move |j| LinExpr::term(xi[j], cost[i][j]))
        }));
        m.set_objective(Sense::Minimize, total);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-6, "got {}", sol.objective);
    }

    #[test]
    fn time_limit_returns_incumbent_or_err() {
        // A slightly larger knapsack with an immediate rounding incumbent:
        // with a zero budget we must still not panic.
        let mut m = Model::new("budget");
        let vars: Vec<_> = (0..12).map(|i| m.binary(format!("x{i}"))).collect();
        let w =
            LinExpr::sum(vars.iter().enumerate().map(|(i, &v)| LinExpr::term(v, 1.0 + i as f64)));
        m.add_le("cap", w, 20.0);
        m.set_objective(
            Sense::Maximize,
            LinExpr::sum(
                vars.iter().enumerate().map(|(i, &v)| LinExpr::term(v, (i * i + 1) as f64)),
            ),
        );
        let cfg = SolverConfig { time_limit: Some(Duration::from_millis(0)), ..Default::default() };
        match m.solve_with(&cfg) {
            Ok(sol) => assert!(m.is_feasible(&sol.values, 1e-6)),
            Err(e) => assert_eq!(e, crate::IlpError::NoIncumbent),
        }
    }

    #[test]
    fn deadline_is_checked_before_child_solves() {
        // A dense 26-item knapsack explodes into a deep tree; with a
        // 5-millisecond deadline the expansion loop must bail out between
        // child LP solves instead of finishing whole subtrees. The bound
        // below is deliberately generous (hundreds of times the deadline)
        // so it only catches gross overshoot, not scheduler noise.
        let mut m = Model::new("deep");
        let vars: Vec<_> = (0..26).map(|i| m.binary(format!("x{i}"))).collect();
        let w = LinExpr::sum(
            vars.iter().enumerate().map(|(i, &v)| LinExpr::term(v, 3.0 + ((i * 7) % 11) as f64)),
        );
        m.add_le("cap", w, 40.0);
        m.set_objective(
            Sense::Maximize,
            LinExpr::sum(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| LinExpr::term(v, 5.0 + ((i * 13) % 17) as f64)),
            ),
        );
        let cfg = SolverConfig { time_limit: Some(Duration::from_millis(5)), ..Default::default() };
        let t0 = Instant::now();
        let _ = m.solve_with(&cfg); // any outcome is fine; only timing matters
        assert!(t0.elapsed() < Duration::from_secs(5), "deadline overshot: {:?}", t0.elapsed());
    }

    #[test]
    fn equality_partition_two_way() {
        // Partition 4 items of sizes 3,1,1,3 into two sides of equal load.
        // x_i = side of item i; minimize nothing, just find feasibility via
        // sum sizes*x == 4.
        let sizes = [3.0, 1.0, 1.0, 3.0];
        let mut m = Model::new("partition");
        let vars: Vec<_> = (0..4).map(|i| m.binary(format!("x{i}"))).collect();
        m.add_eq(
            "balance",
            LinExpr::sum(vars.iter().zip(sizes).map(|(&v, s)| LinExpr::term(v, s))),
            4.0,
        );
        m.set_objective(Sense::Minimize, LinExpr::new());
        let sol = m.solve().unwrap();
        let load: f64 = vars.iter().zip(sizes).map(|(&v, s)| sol.value(v) * s).sum();
        assert!((load - 4.0).abs() < 1e-6);
    }

    #[test]
    fn maximize_and_minimize_agree() {
        let build = |sense| {
            let mut m = Model::new("sense");
            let x = m.integer("x", 0.0, 5.0);
            m.add_le("c", 3.0 * x, 10.0);
            m.set_objective(sense, 1.0 * x);
            m.solve().unwrap().objective
        };
        assert!((build(Sense::Maximize) - 3.0).abs() < 1e-6);
        assert!(build(Sense::Minimize).abs() < 1e-6);
    }

    #[test]
    fn reports_bound_and_nodes() {
        let mut m = Model::new("meta");
        let x = m.integer("x", 0.0, 9.0);
        let y = m.integer("y", 0.0, 9.0);
        m.add_le("c", 2.0 * x + 3.0 * y, 12.0);
        m.set_objective(Sense::Maximize, 5.0 * x + 4.0 * y);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(sol.gap() < 1e-6);
        // optimum: x=6 infeasible (2*6=12, y=0) → x=6,y=0 obj 30.
        assert!((sol.objective - 30.0).abs() < 1e-6);
    }
}
