//! The two-way split both floorplanning levels are made of (§4.3, §4.5).
//!
//! TAPA-CS floorplans twice — tasks onto FPGAs, then each FPGA's tasks onto
//! its slot grid — and both times by the AutoBridge recursion: split the
//! items between two halves of the target with one ILP, then split each
//! half again until a half is a single device or slot. This module is that
//! recursion and that ILP, once:
//!
//! * [`Split`] is one two-way problem as plain data. [`Split::solve`] builds
//!   the model (binary side `x_v`, continuous `y_e ≥ |x_a − x_b|` per edge,
//!   a `capH`/`capL` knapsack pair per resource kind, a balance pair on the
//!   binding kind), solves it on the objective lattice of the edge-width
//!   gcd, and falls back to the largest-first [`Split::greedy`] when the
//!   ILP proves infeasibility or runs out of budget.
//! * Symmetry rows (`sym{r}`, after the balance pair): free items with an
//!   equal resource vector, a pinned neighbour and an equal multiset of
//!   (neighbour, width) — a pinned neighbour seen only by its side — are
//!   interchangeable, so consecutive members of each class are ordered
//!   `x[c_k] ≥ x[c_{k+1}]`. Swapping two members (and their `y`s) maps any
//!   split to one of equal cut, so some optimum satisfies the rows: the
//!   optimum, the lattice and the certificate stand, only which equal-cut
//!   point comes back changes. Without them knn's 18 pinned HBM readers
//!   and 18 identical consumers cost 187,666 nodes of a symmetric plateau
//!   (2,154 with). The scope is pin-induced classes only: classes of free
//!   neighbours (stencil readers feeding one merge) shrink `dse-cold`'s
//!   tree too, but move its equal-cut ties to +4.6 % wirelength — that
//!   waits for a tie-break objective (ROADMAP item 2).
//! * [`Level`] is what a caller adds: how a group of targets halves, which
//!   group is a leaf, and the [`Split`] for a set of items. [`bisect`]
//!   recurses over it; the two halves of a split — independent
//!   subproblems — run concurrently down to the depth
//!   [`SolverOptions::parallel_recursion_at`] allows under the thread cap,
//!   the paper's divide-and-conquer scalability argument applied to
//!   compile time.
//! * [`SplitLog`] records what the splits of one stage cost and whether any
//!   of them was answered by something other than the ILP's own result.

use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tapacs_fpga::{ResourceKind, Resources};
use tapacs_ilp::{
    CancellationToken, CmpOp, IlpError, LinExpr, Model, Sense, SolveActivity, SolverConfig,
    SolverOptions, VarId,
};

use crate::error::CompileError;
use crate::report::{aggregate_level_samples, LevelSolveStats};

/// One thing to place: what it occupies and, when the chip layout dictates
/// it, its side (`true` = high).
pub(crate) struct Item {
    pub resources: Resources,
    pub pin: Option<bool>,
}

/// One half of the target.
pub(crate) struct Side {
    /// Capacity as the greedy fallback packs against it.
    pub cap: Resources,
    /// Capacity as the knapsack rows read it, per [`ResourceKind::ALL`].
    /// The levels round differently (a device count scales in `f64`, a slot
    /// region is rounded up to whole resources first), so the caller says.
    pub rhs: [f64; ResourceKind::ALL.len()],
}

impl Side {
    /// A side whose knapsack rows read the integer capacity as is.
    pub fn exact(cap: Resources) -> Side {
        Side { cap, rhs: ResourceKind::ALL.map(|kind| cap.get(kind) as f64) }
    }
}

/// Balance rows: each side carries at least `(1 − slack) × share` of the
/// unpinned load of `kind`. Without them a small design collapses onto one
/// side (min-cut 0), defeating the paper's load balancing; pinned load sits
/// where the layout dictates and is left out.
pub(crate) struct Balance {
    pub kind: ResourceKind,
    pub share_low: f64,
    pub share_high: f64,
    pub slack: f64,
}

/// A two-way split problem: which `items` go high?
pub(crate) struct Split {
    pub items: Vec<Item>,
    /// `(a, b, width)` over item positions, `a ≠ b` (see [`local_edges`]).
    pub edges: Vec<(usize, usize, u64)>,
    pub low: Side,
    pub high: Side,
    pub balance: Option<Balance>,
}

/// How a stage wants its splits solved.
pub(crate) struct SolveSetup<'a> {
    pub time_limit_s: f64,
    pub solver: &'a SolverOptions,
    pub cancel: &'a Option<CancellationToken>,
}

/// Euclidean gcd with `gcd(0, x) = x`, so it folds cleanly over a weight
/// list starting from zero (an empty list yields 0 = "no lattice known").
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Largest-first ordering key of every greedy packer in this crate.
pub(crate) fn size_key(r: &Resources) -> u64 {
    r.lut + r.ff + 1000 * (r.bram + r.dsp + r.uram)
}

/// The resource kind that binds first: `argmax_k total_k / cap_k`.
pub(crate) fn binding_kind(items: &[Item], cap: &Resources) -> Option<ResourceKind> {
    let mut best = None;
    let mut best_ratio = 0.0;
    for kind in ResourceKind::ALL {
        let capacity = cap.get(kind) as f64;
        if capacity <= 0.0 {
            continue;
        }
        let total: f64 = items.iter().map(|item| item.resources.get(kind) as f64).sum();
        let ratio = total / capacity;
        if total > 0.0 && ratio > best_ratio {
            best_ratio = ratio;
            best = Some(kind);
        }
    }
    best
}

/// Restricts `edges`, given over ids `< universe`, to the group `ids`:
/// endpoints become positions in `ids`, and edges that leave the group or
/// loop on one item are dropped — neither can be cut. Order is kept, as it
/// decides the model's column order.
pub(crate) fn local_edges(
    universe: usize,
    ids: impl IntoIterator<Item = usize>,
    edges: impl IntoIterator<Item = (usize, usize, u64)>,
) -> Vec<(usize, usize, u64)> {
    let mut local = vec![usize::MAX; universe];
    for (i, id) in ids.into_iter().enumerate() {
        local[id] = i;
    }
    edges
        .into_iter()
        .map(|(a, b, w)| (local[a], local[b], w))
        .filter(|&(a, b, _)| a != usize::MAX && b != usize::MAX && a != b)
        .collect()
}

impl Split {
    /// The lattice every integer-feasible objective lives on: integral sides
    /// force each cut indicator to 0 or 1, so the objective is a sum of edge
    /// widths — a multiple of their gcd, which the solver prunes with.
    fn objective_granularity(&self) -> u64 {
        self.edges.iter().fold(0, |g, &(_, _, w)| gcd(g, w))
    }

    /// The free items the pins make interchangeable: classes of two or
    /// more, each in ascending position order, ordered by first member.
    /// Members share a resource vector, have a pinned neighbour, and see
    /// the same multiset of (neighbour, width), where a pinned neighbour is
    /// told apart only by its side and a free one by its position. Two
    /// adjacent items never match: each would have to neighbour itself.
    fn pinned_symmetry_classes(&self) -> Vec<Vec<usize>> {
        if self.items.iter().all(|item| item.pin.is_none()) {
            return Vec::new();
        }
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        enum Neighbour {
            Pinned(bool),
            Free(usize),
        }
        let neighbour = |i: usize| match self.items[i].pin {
            Some(high) => Neighbour::Pinned(high),
            None => Neighbour::Free(i),
        };
        let mut around = vec![Vec::new(); self.items.len()];
        for &(a, b, width) in &self.edges {
            around[a].push((neighbour(b), width));
            around[b].push((neighbour(a), width));
        }

        let mut class_of = HashMap::new();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (i, mut seen) in around.into_iter().enumerate() {
            let pinned_neighbour = seen.iter().any(|(n, _)| matches!(n, Neighbour::Pinned(_)));
            if self.items[i].pin.is_some() || !pinned_neighbour {
                continue;
            }
            seen.sort_unstable();
            let class = *class_of.entry((self.items[i].resources, seen)).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[class].push(i);
        }
        classes.retain(|class| class.len() > 1);
        classes
    }

    /// The ILP and its side variables, one per item.
    ///
    /// Every row is appended straight into the model's row block
    /// ([`Model::add_terms`]) term by term in ascending variable order (the
    /// sides `x` first, then the cut indicators `y`), so each term is a
    /// plain push and no row allocates. The columns, the rows, their terms
    /// and the objective are sized up front to exactly what they receive,
    /// so none of them regrows.
    fn model(&self) -> (Model, Vec<VarId>) {
        let classes = self.pinned_symmetry_classes();
        // Each item's amount of every resource kind, the capacity and
        // balance rows' coefficients.
        let amounts: Vec<[f64; ResourceKind::ALL.len()]> = self
            .items
            .iter()
            .map(|item| ResourceKind::ALL.map(|kind| item.resources.get(kind) as f64))
            .collect();
        let free: Vec<usize> =
            (0..self.items.len()).filter(|&i| self.items[i].pin.is_none()).collect();
        // The balance pair, when its free load is positive: its kind's
        // index, the balance and that load.
        let balance = self.balance.as_ref().and_then(|balance| {
            let k = ResourceKind::ALL.iter().position(|&kind| kind == balance.kind);
            let k = k.expect("ALL lists every kind");
            let free_total: f64 = free.iter().map(|&i| amounts[i][k]).sum();
            (free_total > 0.0).then_some((k, balance, free_total))
        });

        let pins = self.items.iter().filter(|item| item.pin.is_some()).count();
        let sym_rows = classes.iter().map(|class| class.len() - 1).sum::<usize>();
        let rows = pins
            + 2 * self.edges.len()
            + 2 * ResourceKind::ALL.len()
            + if balance.is_some() { 2 } else { 0 }
            + sym_rows;
        let terms = pins
            + 6 * self.edges.len()
            + 2 * amounts.iter().flatten().filter(|&&a| a != 0.0).count()
            + balance
                .map_or(0, |(k, _, _)| 2 * free.iter().filter(|&&i| amounts[i][k] != 0.0).count())
            + 2 * sym_rows;
        let mut m =
            Model::with_capacity("two-way-split", self.items.len() + self.edges.len(), rows, terms);
        let mut x = Vec::with_capacity(self.items.len());
        for item in &self.items {
            let v = m.binary("x");
            if let Some(high) = item.pin {
                m.add_terms("pin", [(v, 1.0)], CmpOp::Eq, if high { 1.0 } else { 0.0 });
            }
            x.push(v);
        }

        let mut objective =
            LinExpr::with_capacity(self.edges.iter().filter(|&&(_, _, w)| w != 0).count());
        for &(a, b, width) in &self.edges {
            let y = m.continuous("y", 0.0, 1.0);
            // `y − x[from] + x[to] ≥ 0`, its terms in variable order.
            let cut_row = |from: usize, to: usize| {
                if from < to {
                    [(x[from], -1.0), (x[to], 1.0), (y, 1.0)]
                } else {
                    [(x[to], 1.0), (x[from], -1.0), (y, 1.0)]
                }
            };
            m.add_terms("c1", cut_row(a, b), CmpOp::Ge, 0.0);
            m.add_terms("c2", cut_row(b, a), CmpOp::Ge, 0.0);
            objective.add_term(y, width as f64);
        }

        // Resource thresholds per side, per kind (equation 1), over the
        // high-side load of every item. The low side's load is
        // `total − high load`.
        for k in 0..ResourceKind::ALL.len() {
            let load = || x.iter().zip(&amounts).map(|(&v, a)| (v, a[k]));
            let total: f64 = amounts.iter().map(|a| a[k]).sum();
            m.add_terms("capH", load(), CmpOp::Le, self.high.rhs[k]);
            m.add_terms("capL", load(), CmpOp::Ge, total - self.low.rhs[k]);
        }

        // The balance pair, over the high-side load of the free items.
        if let Some((k, balance, free_total)) = balance {
            let load = || free.iter().map(|&i| (x[i], amounts[i][k]));
            let floor_high = free_total * balance.share_high * (1.0 - balance.slack);
            let floor_low = free_total * balance.share_low * (1.0 - balance.slack);
            m.add_terms("balH", load(), CmpOp::Ge, floor_high);
            m.add_terms("balL", load(), CmpOp::Le, free_total - floor_low);
        }

        // Interchangeable items take the high side in position order.
        for pair in classes.iter().flat_map(|class| class.windows(2)) {
            m.add_terms("sym", [(x[pair[0]], 1.0), (x[pair[1]], -1.0)], CmpOp::Ge, 0.0);
        }

        m.set_objective(Sense::Minimize, objective);
        (m, x)
    }

    /// Solves the split: `true` = high side, `None` when not even the greedy
    /// fallback finds a split under the capacities.
    ///
    /// The fallback answers for three ILP outcomes. A proven-infeasible
    /// model is the organic path (deterministic whatever the budget). An
    /// exhausted budget (`NoIncumbent` past the solver's own heuristic
    /// rung) or an answer its certificate rejected (`Uncertified`) means
    /// the stand-in replaces an answer the ILP would otherwise have
    /// produced, so like the solver's own degraded answers it marks `log`:
    /// the design must not be mistaken for a proven result.
    pub fn solve(
        &self,
        setup: &SolveSetup<'_>,
        log: &SplitLog,
    ) -> Result<Option<Vec<bool>>, CompileError> {
        let (model, x) = self.model();
        // The compiler rejects a NaN or negative limit before its first
        // stage; one past what a `Duration` holds (+∞, 1e30) is no limit.
        let time_limit = Duration::try_from_secs_f64(setup.time_limit_s).ok();
        let mut config = SolverConfig { time_limit, ..SolverConfig::default() };
        config.objective_granularity = self.objective_granularity() as f64;
        config.cancel = setup.cancel.clone();
        match model.solve_with_options(&config, setup.solver) {
            Ok(solution) => {
                if solution.degraded {
                    log.mark_degraded();
                }
                Ok(Some(x.iter().map(|&v| solution.is_set(v)).collect()))
            }
            Err(
                err @ (IlpError::Infeasible | IlpError::NoIncumbent | IlpError::Uncertified(_)),
            ) => {
                if !matches!(err, IlpError::Infeasible) {
                    log.mark_degraded();
                }
                Ok(self.greedy())
            }
            Err(e) => Err(CompileError::Solver(e.to_string())),
        }
    }

    /// Largest-first greedy split honouring pins: pinned items take their
    /// side, then each free item goes to the emptier side that still has
    /// room. `None` when some item does not fit where it must go.
    fn greedy(&self) -> Option<Vec<bool>> {
        let caps = [&self.low.cap, &self.high.cap];
        let mut used = [Resources::ZERO; 2];
        let mut side = vec![false; self.items.len()];
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        order.sort_by_key(|&i| {
            let item = &self.items[i];
            (item.pin.is_none(), std::cmp::Reverse(size_key(&item.resources)))
        });
        for i in order {
            let w = self.items[i].resources;
            let fits = |s: usize| (used[s] + w).fits_within(caps[s], 1.0);
            let fill = |s: usize| used[s].utilization(caps[s]).max();
            let high = match self.items[i].pin {
                Some(high) => high,
                None if fits(0) && fits(1) => fill(1) < fill(0),
                None => fits(1),
            };
            if !fits(high as usize) {
                return None;
            }
            side[i] = high;
            used[high as usize] += w;
        }
        Some(side)
    }
}

/// What one stage's splits cost, and whether the design they produced is
/// the ILP's own: a `(recursion depth, seconds)` sample per solve, and a
/// degraded mark set when a budget — not a proof — decided some answer.
#[derive(Default)]
pub(crate) struct SplitLog {
    samples: Mutex<Vec<(usize, f64)>>,
    degraded: AtomicBool,
    /// Marks of failed attempts that nothing has answered for yet.
    unanswered: bool,
}

impl SplitLog {
    fn sample(&self, depth: usize, wall_s: f64) {
        self.samples.lock().unwrap_or_else(|e| e.into_inner()).push((depth, wall_s));
    }

    fn mark_degraded(&self) {
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// One recursive bisection of `items` over `group` (see [`bisect`]), or
    /// `None` when some split on the way has no answer under its
    /// capacities.
    ///
    /// A kept attempt adds its samples and its mark to the stage's. A failed
    /// one drops its samples — no solve of it produced the design — and its
    /// mark waits for what answers in its place: a later ILP attempt drops
    /// it (a degraded *failed* attempt must not taint a clean later one), a
    /// [greedy stand-in](Self::greedy_stand_in) keeps it.
    pub fn attempt<L: Level>(
        &mut self,
        level: &L,
        setup: &SolveSetup<'_>,
        items: &[L::Item],
        group: L::Group,
    ) -> Result<Option<Placed<L>>, CompileError> {
        let attempt = SplitLog::default();
        let outcome = bisect(level, setup, items, group, 0, &attempt);
        let degraded = attempt.degraded.into_inner();
        match outcome {
            Ok(pairs) => {
                let samples = attempt.samples.into_inner().unwrap_or_else(|e| e.into_inner());
                self.samples.get_mut().unwrap_or_else(|e| e.into_inner()).extend(samples);
                *self.degraded.get_mut() |= degraded;
                self.unanswered = false;
                Ok(Some(pairs))
            }
            Err(CompileError::InsufficientResources { .. }) => {
                self.unanswered |= degraded;
                Ok(None)
            }
            Err(other) => Err(other),
        }
    }

    /// A greedy packing answers for the attempts that failed. If a split of
    /// theirs was truncated, that may be why they failed — a larger budget
    /// would not have produced this design — so the design is degraded.
    pub fn greedy_stand_in(&mut self) {
        *self.degraded.get_mut() |= std::mem::take(&mut self.unanswered);
    }

    /// Per-depth solve statistics and the degraded mark.
    pub fn finish(self) -> (Vec<LevelSolveStats>, bool) {
        let samples = self.samples.into_inner().unwrap_or_else(|e| e.into_inner());
        (aggregate_level_samples(samples), self.degraded.into_inner())
    }
}

/// One floorplanning level as [`bisect`] sees it.
pub(crate) trait Level: Sync {
    /// What is placed (a supernode, a task).
    type Item: Copy + Send + Sync;
    /// A set of targets (a device range, a slot region).
    type Group: Debug + Send;
    /// One target (a device, a slot).
    type Leaf: Copy + Send;

    /// The target `group` stands for when it cannot be halved further.
    fn leaf(&self, group: &Self::Group) -> Option<Self::Leaf>;

    /// Halves `group` (low, high) and describes the split of `items`
    /// between the halves, `Split::items` in the order of `items`.
    fn split(&self, items: &[Self::Item], group: &Self::Group)
        -> (Self::Group, Self::Group, Split);
}

/// Where a recursion put each item: `(item, leaf)` pairs.
pub(crate) type Placed<L> = Vec<(<L as Level>::Item, <L as Level>::Leaf)>;

/// Recursively splits `items` over `group` with one two-way ILP per split
/// until every group is a leaf. Returns `(item, leaf)` pairs, low half
/// first at every depth.
///
/// The two halves of a split are independent subproblems; where
/// [`SolverOptions::parallel_recursion_at`] allows it for `depth`, the low
/// half runs on a scoped worker thread while this thread descends into the
/// high half. Merging is a deterministic concatenation, so the result is
/// identical to the sequential recursion.
fn bisect<L: Level>(
    level: &L,
    setup: &SolveSetup<'_>,
    items: &[L::Item],
    group: L::Group,
    depth: usize,
    log: &SplitLog,
) -> Result<Placed<L>, CompileError> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    if let Some(leaf) = level.leaf(&group) {
        return Ok(items.iter().map(|&item| (item, leaf)).collect());
    }

    let t0 = Instant::now();
    let (low, high, split) = level.split(items, &group);
    let side = split.solve(setup, log)?.ok_or_else(|| CompileError::InsufficientResources {
        detail: format!(
            "no two-way split of {} items between {low:?} and {high:?} satisfies the resource \
             thresholds",
            items.len()
        ),
    })?;
    log.sample(depth, t0.elapsed().as_secs_f64());

    let half = |high: bool| -> Vec<L::Item> {
        items.iter().zip(&side).filter(|&(_, &s)| s == high).map(|(&item, _)| item).collect()
    };
    let (low_items, high_items) = (half(false), half(true));

    let concurrent = setup.solver.parallel_recursion_at(depth)
        && level.leaf(&low).is_none()
        && level.leaf(&high).is_none()
        && !low_items.is_empty()
        && !high_items.is_empty();
    let descend_low = || bisect(level, setup, &low_items, low, depth + 1, log);
    let (low_pairs, high_pairs) = if concurrent {
        // Per-job solve-activity scopes are thread-local; re-install the
        // caller's scope on the worker so batch attribution stays correct.
        let scope = SolveActivity::current_scope();
        std::thread::scope(|s| {
            let worker = s.spawn(|| SolveActivity::scoped_opt(scope, descend_low));
            let high_pairs = bisect(level, setup, &high_items, high, depth + 1, log);
            // Re-raise a worker panic with its original payload so the
            // batch engine's job-level isolation can attribute it.
            let low_pairs = worker.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            (low_pairs, high_pairs)
        })
    } else {
        (descend_low(), bisect(level, setup, &high_items, high, depth + 1, log))
    };
    let mut pairs = low_pairs?;
    pairs.extend(high_pairs?);
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use proptest::prelude::*;

    use super::*;

    fn lut(n: u64) -> Resources {
        Resources::new(n, 0, 0, 0, 0)
    }

    fn free(n: u64) -> Item {
        Item { resources: lut(n), pin: None }
    }

    fn pinned(n: u64, high: bool) -> Item {
        Item { resources: lut(n), pin: Some(high) }
    }

    fn even(kind: ResourceKind, slack: f64) -> Option<Balance> {
        Some(Balance { kind, share_low: 0.5, share_high: 0.5, slack })
    }

    /// Limits that cannot bind, or — `time_limit_s == 0` with the solver's
    /// own heuristic rung off — one that binds before the first node.
    fn options(threads: usize) -> SolverOptions {
        SolverOptions { threads, cache: false, degrade: false, ..SolverOptions::default() }
    }

    fn solve(split: &Split, time_limit_s: f64) -> (Option<Vec<bool>>, bool) {
        let log = SplitLog::default();
        let solver = options(1);
        let setup = SolveSetup { time_limit_s, solver: &solver, cancel: &None };
        let side = split.solve(&setup, &log).unwrap();
        (side, log.finish().1)
    }

    #[test]
    fn pins_are_honoured_by_the_ilp_and_by_greedy() {
        // The edge pulls the pinned pair together; the pins must win.
        let split = Split {
            items: vec![pinned(10, true), pinned(10, false), free(10), free(10)],
            edges: vec![(0, 1, 512), (1, 2, 32), (2, 3, 32)],
            low: Side::exact(lut(40)),
            high: Side::exact(lut(40)),
            balance: even(ResourceKind::Lut, 0.35),
        };
        let (side, degraded) = solve(&split, 600.0);
        let side = side.unwrap();
        assert!(side[0] && !side[1], "ILP moved a pinned item: {side:?}");
        assert!(!degraded);
        let side = split.greedy().unwrap();
        assert!(side[0] && !side[1], "greedy moved a pinned item: {side:?}");
    }

    #[test]
    fn pinned_load_that_overflows_its_side_has_no_greedy_split() {
        let split = Split {
            items: vec![pinned(30, false), pinned(20, false), free(1)],
            edges: Vec::new(),
            low: Side::exact(lut(40)),
            high: Side::exact(lut(400)),
            balance: None,
        };
        assert!(split.greedy().is_none());
        assert_eq!(solve(&split, 600.0), (None, false), "infeasible by proof, not by budget");
    }

    #[test]
    fn balance_rows_range_over_free_items_only() {
        // Two units pinned low, four free units, no slack: the free load
        // must split 2|2 although that leaves the sides at 4|2 overall.
        let split = Split {
            items: vec![pinned(20, false), free(10), free(10), free(10), free(10)],
            edges: Vec::new(),
            low: Side::exact(lut(100)),
            high: Side::exact(lut(100)),
            balance: even(ResourceKind::Lut, 0.0),
        };
        let (model, _) = split.model();
        assert!(model.is_feasible(&[0.0, 1.0, 1.0, 0.0, 0.0], 1e-9));
        // 3|3 overall, but 1|3 of the free load.
        assert!(!model.is_feasible(&[0.0, 1.0, 1.0, 1.0, 0.0], 1e-9));
    }

    #[test]
    fn self_loop_and_out_of_group_edges_add_no_column() {
        let all = [(1, 3, 8), (1, 1, 4), (1, 2, 4), (0, 4, 2), (3, 1, 6)];
        let edges = local_edges(5, [1, 3], all);
        assert_eq!(edges, vec![(0, 1, 8), (1, 0, 6)], "kept in order, in group positions");
        let split = Split {
            items: vec![free(10), free(10)],
            edges,
            low: Side::exact(lut(40)),
            high: Side::exact(lut(40)),
            balance: None,
        };
        let (model, x) = split.model();
        assert_eq!(x.len(), 2);
        assert_eq!(model.num_vars(), 2 + 2, "one y per surviving edge");
        // Two rows per edge and a capH/capL pair per resource kind.
        assert_eq!(model.num_constraints(), 2 * 2 + 2 * ResourceKind::ALL.len());
    }

    #[test]
    fn objective_granularity_is_the_gcd_of_the_edge_widths() {
        let mut split = Split {
            items: vec![free(10), free(10), free(10)],
            edges: vec![(0, 1, 12), (1, 2, 18)],
            low: Side::exact(lut(40)),
            high: Side::exact(lut(40)),
            balance: None,
        };
        assert_eq!(split.objective_granularity(), 6);
        split.edges.clear();
        assert_eq!(split.objective_granularity(), 0, "no edges: no lattice known");
    }

    /// `pins` pinned items, then free `consumers`, each consumer joined by
    /// `(pinned item, width)` edges and to nothing else.
    fn fan_out(pins: &[bool], consumers: &[(u64, &[(usize, u64)])]) -> Split {
        let mut items: Vec<Item> = pins.iter().map(|&high| pinned(10, high)).collect();
        let mut edges = Vec::new();
        for &(load, to_pins) in consumers {
            edges.extend(to_pins.iter().map(|&(pin, width)| (pin, items.len(), width)));
            items.push(free(load));
        }
        Split {
            items,
            edges,
            low: Side::exact(lut(1000)),
            high: Side::exact(lut(1000)),
            balance: None,
        }
    }

    #[test]
    fn symmetry_classes_need_equal_resources_pinned_sides_and_widths() {
        let classes = |split: Split| split.pinned_symmetry_classes();
        let low: &[(usize, u64)] = &[(0, 32)];
        // A pinned neighbour is told apart by its side only: two low pins
        // are one neighbour.
        assert_eq!(classes(fan_out(&[false], &[(10, low), (10, low)])), vec![vec![1, 2]]);
        assert_eq!(classes(fan_out(&[false, false], &[(10, low), (10, &[(1, 32)])])), [[2, 3]]);

        let none: Vec<Vec<usize>> = Vec::new();
        assert_eq!(classes(fan_out(&[false], &[(10, low), (20, low)])), none, "resources");
        assert_eq!(classes(fan_out(&[false, true], &[(10, low), (10, &[(1, 32)])])), none, "side");
        assert_eq!(classes(fan_out(&[false], &[(10, low), (10, &[(0, 64)])])), none, "width");
        assert_eq!(classes(fan_out(&[false], &[(10, low), (10, &[(0, 32); 2])])), none, "count");

        // Equal free neighbourhoods without a pinned neighbour: no class.
        let mut hub = fan_out(&[false], &[(10, &[]), (10, &[]), (10, &[])]);
        hub.edges = vec![(3, 1, 32), (3, 2, 32)];
        assert_eq!(classes(hub), none, "no pinned neighbour");
    }

    #[test]
    fn adjacent_items_never_share_a_class() {
        let mut split = fan_out(&[false], &[(10, &[(0, 32)]), (10, &[(0, 32)])]);
        split.edges.push((1, 2, 32));
        assert!(split.pinned_symmetry_classes().is_empty());
    }

    #[test]
    fn splits_without_pins_get_no_symmetry_rows() {
        // A hub feeding identical leaves is symmetric, but no pin induces
        // it — and no partition split has pins.
        let split = Split {
            items: vec![free(10), free(10), free(10), free(10)],
            edges: vec![(0, 1, 32), (0, 2, 32), (0, 3, 32)],
            low: Side::exact(lut(40)),
            high: Side::exact(lut(40)),
            balance: None,
        };
        assert!(split.pinned_symmetry_classes().is_empty());
        let (model, _) = split.model();
        assert_eq!(model.num_constraints(), 2 * 3 + 2 * ResourceKind::ALL.len());
    }

    #[test]
    fn a_class_of_k_members_adds_k_minus_one_ordering_rows() {
        for k in 2..=5 {
            let split = fan_out(&[false], &vec![(10, &[(0, 32)][..]); k]);
            assert_eq!(split.pinned_symmetry_classes(), vec![(1..=k).collect::<Vec<_>>()]);
            let (model, x) = split.model();
            let rows_without = 1 + 2 * k + 2 * ResourceKind::ALL.len();
            assert_eq!(model.num_constraints(), rows_without + k - 1, "k = {k}");
            // x, then one y per edge, which is cut exactly when its
            // consumer is high.
            let point = |high: usize| {
                let sides = (0..=k).map(|i| f64::from(u8::from(i == high)));
                sides.clone().chain(sides.skip(1)).collect::<Vec<_>>()
            };
            assert_eq!(x.len(), k + 1);
            assert!(model.is_feasible(&point(1), 1e-9), "the first member goes high first");
            assert!(!model.is_feasible(&point(k), 1e-9), "the last member may not lead");
        }
    }

    /// The cheapest cut over every side assignment of the free items that
    /// the capacity and balance rows admit, enumerated without the model;
    /// `None` when none is admitted.
    fn exhaustive_min_cut(split: &Split) -> Option<u64> {
        const TOL: f64 = 1e-6;
        let n = split.items.len();
        let free: Vec<usize> = (0..n).filter(|&i| split.items[i].pin.is_none()).collect();
        let amount = |i: usize, kind: ResourceKind| split.items[i].resources.get(kind) as f64;
        (0u32..1 << free.len())
            .filter_map(|mask| {
                let mut high: Vec<bool> = split.items.iter().map(|i| i.pin == Some(true)).collect();
                for (bit, &i) in free.iter().enumerate() {
                    high[i] = mask >> bit & 1 == 1;
                }
                let loads = |of: &[usize], kind| {
                    let total: f64 = of.iter().map(|&i| amount(i, kind)).sum();
                    let up: f64 = of.iter().filter(|&&i| high[i]).map(|&i| amount(i, kind)).sum();
                    (up, total - up)
                };
                let all: Vec<usize> = (0..n).collect();
                let fits = ResourceKind::ALL.into_iter().enumerate().all(|(k, kind)| {
                    let (up, down) = loads(&all, kind);
                    up <= split.high.rhs[k] + TOL && down <= split.low.rhs[k] + TOL
                });
                let balanced = split.balance.as_ref().is_none_or(|b| {
                    let (up, down) = loads(&free, b.kind);
                    let total = up + down;
                    up >= total * b.share_high * (1.0 - b.slack) - TOL
                        && down >= total * b.share_low * (1.0 - b.slack) - TOL
                });
                let cut = split.edges.iter().filter(|&&(a, b, _)| high[a] != high[b]);
                (fits && balanced).then(|| cut.map(|&(_, _, width)| width).sum())
            })
            .min()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ordering rows drop only equal-cut mirror images: on random small
        /// splits — a few pins, consumer groups of 2–5 copies with equal
        /// pinned-neighbour edges, a shared free hub — the ILP's optimum is
        /// the exhaustive one.
        #[test]
        fn symmetry_rows_keep_the_exhaustive_optimum(
            pins in prop::collection::vec((1u64..5, any::<bool>()), 1..4),
            groups in prop::collection::vec((1u64..5, 2usize..6, 0usize..3, 1u64..5, 1u64..5), 1..4),
            hub in (1u64..5, 0usize..3, 0u64..3),
            caps in (40u64..111, 40u64..111),
            balance in (any::<bool>(), 30u64..71, 0u64..51),
        ) {
            let mut items: Vec<Item> = pins.iter().map(|&(load, high)| pinned(10 * load, high)).collect();
            let at_hub = items.len();
            items.push(free(10 * hub.0));
            let mut edges = Vec::new();
            if hub.2 > 0 {
                edges.push((hub.1 % pins.len(), at_hub, 32 * hub.2));
            }
            for &(load, copies, pin, pin_width, hub_width) in &groups {
                for _ in 0..copies.min(12 - items.len()) {
                    edges.push((pin % pins.len(), items.len(), 32 * pin_width));
                    edges.push((items.len(), at_hub, 32 * hub_width));
                    items.push(free(10 * load));
                }
            }
            let total: u64 = items.iter().map(|item| item.resources.lut).sum();
            let share_high = balance.1 as f64 / 100.0;
            let split = Split {
                items,
                edges,
                low: Side::exact(lut(total * caps.0 / 100)),
                high: Side::exact(lut(total * caps.1 / 100)),
                balance: balance.0.then(|| Balance {
                    kind: ResourceKind::Lut,
                    share_low: 1.0 - share_high,
                    share_high,
                    slack: balance.2 as f64 / 100.0,
                }),
            };
            prop_assert!(!split.pinned_symmetry_classes().is_empty(), "no class to order");

            let (model, _) = split.model();
            let mut config = SolverConfig::with_time_limit(Duration::from_secs(600));
            config.objective_granularity = split.objective_granularity() as f64;
            let ilp = match model.solve_with_options(&config, &options(1)) {
                Ok(solution) => {
                    prop_assert!(!solution.degraded, "an ILP limit bound");
                    Some(solution.objective.round() as u64)
                }
                Err(IlpError::Infeasible) => None,
                Err(e) => return Err(TestCaseError::fail(format!("solve failed: {e}"))),
            };
            prop_assert_eq!(ilp, exhaustive_min_cut(&split));
        }
    }

    #[test]
    fn greedy_after_a_proof_is_organic_and_after_a_budget_is_degraded() {
        // 30 | 2 cannot be balanced to within 5 %, which the ILP proves;
        // the greedy fallback knows no balance rows and answers.
        let split = Split {
            items: vec![free(30), free(2)],
            edges: vec![(0, 1, 32)],
            low: Side::exact(lut(40)),
            high: Side::exact(lut(40)),
            balance: even(ResourceKind::Lut, 0.05),
        };
        assert_eq!(solve(&split, 600.0), (Some(vec![false, true]), false));
        // The same answer for want of budget is a stand-in.
        assert_eq!(solve(&split, 0.0), (Some(vec![false, true]), true));
    }

    /// A `rows × cols` grid of equal leaves holding a chain of LUT-only
    /// items: 1 × 4 is the shape of a device range, 2 × 3 of the U55C.
    struct Grid {
        /// LUTs of item `i`, which a 32-bit edge joins to item `i + 1`.
        loads: Vec<u64>,
        leaf_cap: u64,
        time_limit_s: f64,
        solver: SolverOptions,
        /// Panics when asked to split this group.
        trap: Option<(Range<usize>, Range<usize>)>,
    }

    impl Grid {
        /// Twelve quarter-leaf items under a limit that cannot bind.
        fn roomy(threads: usize) -> Grid {
            let solver = options(threads);
            Grid { loads: vec![100; 12], leaf_cap: 400, time_limit_s: 600.0, solver, trap: None }
        }

        fn items(&self) -> Vec<usize> {
            (0..self.loads.len()).collect()
        }

        fn setup(&self) -> SolveSetup<'_> {
            SolveSetup { time_limit_s: self.time_limit_s, solver: &self.solver, cancel: &None }
        }
    }

    impl Level for Grid {
        type Item = usize;
        type Group = (Range<usize>, Range<usize>);
        type Leaf = (usize, usize);

        fn leaf(&self, (rows, cols): &Self::Group) -> Option<(usize, usize)> {
            (rows.len() * cols.len() == 1).then_some((rows.start, cols.start))
        }

        fn split(&self, here: &[usize], group: &Self::Group) -> (Self::Group, Self::Group, Split) {
            assert!(self.trap.as_ref() != Some(group), "trapped at {group:?}");
            let (rows, cols) = group.clone();
            let (low, high) = if rows.len() >= cols.len() && rows.len() > 1 {
                let mid = rows.start + rows.len() / 2;
                ((rows.start..mid, cols.clone()), (mid..rows.end, cols))
            } else {
                let mid = cols.start + cols.len() / 2;
                ((rows.clone(), cols.start..mid), (rows, mid..cols.end))
            };
            let leaves = |g: &Self::Group| (g.0.len() * g.1.len()) as u64;
            let total = leaves(group) as f64;
            let chain = (1..self.loads.len()).map(|i| (i - 1, i, 32));
            let split = Split {
                items: here.iter().map(|&i| free(self.loads[i])).collect(),
                edges: local_edges(self.loads.len(), here.iter().copied(), chain),
                low: Side::exact(lut(self.leaf_cap * leaves(&low))),
                high: Side::exact(lut(self.leaf_cap * leaves(&high))),
                balance: Some(Balance {
                    kind: ResourceKind::Lut,
                    share_low: leaves(&low) as f64 / total,
                    share_high: leaves(&high) as f64 / total,
                    slack: 0.35,
                }),
            };
            (low, high, split)
        }
    }

    #[test]
    fn recursion_returns_the_same_pairs_in_the_same_order_at_one_and_four_threads() {
        for (rows, cols) in [(1, 4), (2, 3)] {
            let run = |threads| {
                let grid = Grid::roomy(threads);
                let log = SplitLog::default();
                let pairs =
                    bisect(&grid, &grid.setup(), &grid.items(), (0..rows, 0..cols), 0, &log)
                        .unwrap();
                let (stats, degraded) = log.finish();
                assert!(!degraded, "an ILP limit bound");
                (pairs, stats.iter().map(|s| (s.level, s.solves)).collect::<Vec<_>>())
            };
            let (sequential, levels) = run(1);
            assert_eq!(sequential.len(), 12);
            assert_eq!(levels[0], (0, 1), "one top split");
            assert_eq!(run(4), (sequential, levels), "{rows}×{cols}");
        }
    }

    #[test]
    fn a_panic_in_the_worker_half_resurfaces_with_its_payload() {
        // 0..4 splits into 0..2 | 2..4; the low half runs on the worker.
        let grid = Grid { trap: Some((0..1, 0..2)), ..Grid::roomy(4) };
        let log = SplitLog::default();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bisect(&grid, &grid.setup(), &grid.items(), (0..1, 0..4), 0, &log)
                .map(|pairs| pairs.len())
        }));
        let payload = caught.expect_err("the worker's panic must not be swallowed");
        let message = payload.downcast_ref::<String>().expect("the worker's own payload");
        assert!(message.contains("trapped at (0..1, 0..2)"), "{message}");
    }

    #[test]
    fn a_failed_attempts_mark_counts_only_when_a_greedy_stand_in_answers_for_it() {
        // Out of budget every split is the greedy's: {100, 79} | {86, 86, 21}
        // over 2 | 2 leaves, whose high half then has no 1 | 1 split. The
        // ILP splits {100, 86} | {86, 79, 21} and on to single leaves.
        let stranded = |time_limit_s| Grid {
            loads: vec![100, 86, 86, 79, 21],
            leaf_cap: 100,
            time_limit_s,
            ..Grid::roomy(1)
        };
        let four = (0..1, 0..4);
        let items = stranded(0.0).items();

        let attempt = |log: &mut SplitLog, time_limit_s| {
            let grid = stranded(time_limit_s);
            log.attempt(&grid, &grid.setup(), &items, four.clone()).unwrap()
        };

        let mut log = SplitLog::default();
        assert!(attempt(&mut log, 0.0).is_none());
        assert_eq!(attempt(&mut log, 600.0).unwrap().len(), 5);
        log.greedy_stand_in(); // nothing is left for it to answer for
        let (stats, degraded) = log.finish();
        assert!(!degraded, "a later ILP attempt answered; the failed one must not taint it");
        assert_eq!(stats.iter().map(|s| s.solves).sum::<usize>(), 3, "the kept attempt's only");

        let mut log = SplitLog::default();
        assert!(attempt(&mut log, 0.0).is_none());
        log.greedy_stand_in();
        let (stats, degraded) = log.finish();
        assert!(degraded && stats.is_empty());
    }
}
