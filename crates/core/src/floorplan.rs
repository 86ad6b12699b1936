//! Step 5 — intra-FPGA floorplanning (§4.5).
//!
//! Each FPGA is presented to the scheduler as a grid of slots delimited by
//! dies and hard IPs (2×3 on the U55C). The floorplanner recursively
//! bisects the grid region with the same two-way ILP used across FPGAs —
//! the same code: `bisect.rs` owns the model, its greedy fallback and the
//! recursion, and this file says how a region halves, what it holds and
//! which tasks the chip layout pins — minimizing the equation-4 cost
//! `Σ e.width × (|Δrow| + |Δcol|)` while keeping every slot under the
//! routable threshold.
//!
//! Physical pinning constraints honour the chip layout (Figure 2):
//!
//! * HBM reader/writer modules are pinned toward row 0, where all HBM
//!   channels pin out on the U55C,
//! * AlveoLink endpoints are pinned toward the top row, where the QSFP28
//!   shoreline sits; the networking IP's own footprint is reserved out of
//!   the QSFP corner slot's capacity,
//! * *unpinned* load is balanced across region halves in proportion to
//!   their remaining capacity — congestion costs frequency, so the
//!   floorplanner must not lump free logic into one die even when that
//!   would be cut-optimal.
//!
//! Free tasks the pins make interchangeable get symmetry rows (`bisect.rs`).
//!
//! The bisection's placement is then refined greedily (`refine_fpga`):
//! single tasks move to the slot that lowers wirelength plus a congestion
//! term most. Each input is computed once per call and each slot's
//! congestion is refreshed only when a move touches it, yet every float a
//! decision reads equals a from-scratch evaluation, so the refinement
//! decides exactly as the recomputing version its tests keep.
//!
//! After placement, HBM *channel binding exploration* reassigns reader/
//! writer channels so that each column's modules bind to that column's
//! nearest channels, avoiding the lateral-routing congestion the paper
//! warns about.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tapacs_fpga::{Device, Resources, SlotId};
use tapacs_graph::{TaskGraph, TaskId, TaskKind};
use tapacs_ilp::SolverOptions;

use crate::bisect::{
    binding_kind, local_edges, size_key, Balance, Item, Level, Side, SolveSetup, Split, SplitLog,
};
use crate::error::CompileError;
use crate::report::LevelSolveStats;

/// Tuning knobs for the intra-FPGA floorplanner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FloorplanConfig {
    /// Per-slot utilization ceiling.
    pub slot_threshold: f64,
    /// ILP budget per bisection level.
    pub time_limit_s: f64,
    /// Refinement sweeps with the true Manhattan objective.
    pub refine_passes: usize,
    /// Balance slack for *unpinned* load across region halves.
    pub balance_slack: f64,
    /// Solver options (worker-thread count, caching, degradation) for the
    /// region split ILPs (also gates the concurrent recursion over the halves).
    pub solver: SolverOptions,
    /// Job-level cancellation token threaded into every region-split
    /// solve; see [`crate::partition::PartitionConfig::cancel`] for the
    /// semantics (deadline → degradation ladder, cache-resume on replay).
    #[serde(skip)]
    pub cancel: Option<tapacs_ilp::CancellationToken>,
}

impl Default for FloorplanConfig {
    fn default() -> Self {
        Self {
            slot_threshold: 0.8,
            time_limit_s: 10.0,
            refine_passes: 3,
            balance_slack: 0.35,
            solver: SolverOptions::default(),
            cancel: None,
        }
    }
}

/// Result of intra-FPGA floorplanning for the whole design.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Floorplan {
    /// Slot per task.
    pub slot_of_task: Vec<SlotId>,
    /// Resources used per FPGA per slot (slot index = `row * cols + col`).
    pub slot_used: Vec<Vec<Resources>>,
    /// Wall-clock spent (the paper's `L2` overhead, §5.6).
    pub runtime: Duration,
    /// Region-split ILP activity per bisection level, summed over FPGAs.
    /// Counts only solves whose placement was kept: empty for the naive
    /// first-fit baseline, and FPGAs placed by the greedy fallback
    /// contribute nothing.
    pub solve_stats: Vec<LevelSolveStats>,
    /// `true` when some region-split ILP timed out and the degradation
    /// ladder substituted a heuristic incumbent (see
    /// [`InterPartition::degraded`](crate::partition::InterPartition)).
    #[serde(default)]
    pub degraded: bool,
}

/// A rectangular slot-grid region `[row_lo, row_hi) × [col_lo, col_hi)`.
#[derive(Debug, Clone, Copy)]
struct Region {
    row_lo: usize,
    row_hi: usize,
    col_lo: usize,
    col_hi: usize,
}

impl Region {
    fn rows(&self) -> usize {
        self.row_hi - self.row_lo
    }
    fn cols(&self) -> usize {
        self.col_hi - self.col_lo
    }
    fn single(&self) -> bool {
        self.rows() == 1 && self.cols() == 1
    }
}

/// Per-FPGA floorplanning context.
struct FpgaCtx<'a> {
    graph: &'a TaskGraph,
    device: &'a Device,
    cfg: &'a FloorplanConfig,
    /// Networking-IP footprint reserved in the QSFP corner slot.
    reserved: Resources,
    /// Each graph task's position in the FPGA's task list (`usize::MAX`
    /// off the FPGA).
    position: Vec<usize>,
    /// How many tasks the FPGA holds.
    n_tasks: usize,
    /// The FIFOs with both ends on the FPGA, in graph order, as
    /// `(src position, dst position, width)`: every split's edges, built
    /// once.
    fifos: Vec<(usize, usize, u64)>,
}

impl<'a> FpgaCtx<'a> {
    /// The context of the FPGA holding `tasks`.
    fn new(
        graph: &'a TaskGraph,
        device: &'a Device,
        cfg: &'a FloorplanConfig,
        reserved: Resources,
        tasks: &[TaskId],
    ) -> Self {
        let mut position = vec![usize::MAX; graph.num_tasks()];
        for (i, t) in tasks.iter().enumerate() {
            position[t.index()] = i;
        }
        let fifos = graph
            .fifos()
            .map(|(_, f)| (position[f.src.index()], position[f.dst.index()], f.width_bits as u64))
            .filter(|&(a, b, _)| a != usize::MAX && b != usize::MAX)
            .collect();
        FpgaCtx { graph, device, cfg, reserved, position, n_tasks: tasks.len(), fifos }
    }

    fn qsfp_slot(&self) -> SlotId {
        SlotId::new(self.device.rows() - 1, self.device.cols() - 1)
    }

    /// Capacity of one slot after static reservations.
    fn slot_capacity(&self, s: SlotId) -> Resources {
        let cap = self.device.slot_capacity(s);
        if s == self.qsfp_slot() {
            cap.saturating_sub(&self.reserved)
        } else {
            cap
        }
    }

    /// Capacity of a region at the configured threshold. Multi-slot regions
    /// keep a 5% packing margin so a feasible split at this level remains
    /// splittable at the slot level below.
    fn region_capacity(&self, region: &Region) -> Resources {
        let mut cap = Resources::ZERO;
        for r in region.row_lo..region.row_hi {
            for c in region.col_lo..region.col_hi {
                cap += self.slot_capacity(SlotId::new(r, c));
            }
        }
        let margin = if region.rows() * region.cols() > 1 { 0.95 } else { 1.0 };
        cap.scale(self.cfg.slot_threshold * margin)
    }
}

/// Floorplans every FPGA of a partitioned design.
///
/// `assignment` maps each task to its FPGA; `reserved_qsfp` charges each
/// FPGA's networking-IP footprint to its QSFP corner slot.
///
/// # Errors
///
/// [`CompileError::InsufficientResources`] when no feasible slot packing
/// exists, [`CompileError::Solver`] when the ILP errs unexpectedly.
pub fn floorplan(
    graph: &TaskGraph,
    assignment: &[usize],
    n_fpgas: usize,
    device: &Device,
    reserved_qsfp: &[Resources],
    cfg: &FloorplanConfig,
) -> Result<Floorplan, CompileError> {
    assert_eq!(assignment.len(), graph.num_tasks(), "assignment must cover the graph");
    let start = Instant::now();
    let mut slot_of_task = vec![SlotId::new(0, 0); graph.num_tasks()];
    let mut log = SplitLog::default();
    let setup =
        SolveSetup { time_limit_s: cfg.time_limit_s, solver: &cfg.solver, cancel: &cfg.cancel };

    for fpga in 0..n_fpgas {
        let tasks: Vec<TaskId> =
            graph.task_ids().filter(|t| assignment[t.index()] == fpga).collect();
        if tasks.is_empty() {
            continue;
        }
        let reserved = reserved_qsfp.get(fpga).copied().unwrap_or(Resources::ZERO);
        let ctx = FpgaCtx::new(graph, device, cfg, reserved, &tasks);
        let full = Region { row_lo: 0, row_hi: device.rows(), col_lo: 0, col_hi: device.cols() };
        match log.attempt(&ctx, &setup, &tasks, full)? {
            Some(pairs) => {
                for (t, slot) in pairs {
                    slot_of_task[t.index()] = slot;
                }
            }
            // Recursive bisection has no lookahead: a feasible row split
            // can still be slot-infeasible (the platform slot is weaker).
            // Fall back to direct greedy slot packing before giving up.
            None => {
                greedy_slots(&ctx, &tasks, &mut slot_of_task)?;
                log.greedy_stand_in();
            }
        }
        refine_fpga(&ctx, &tasks, &mut slot_of_task);
    }

    // Per-slot usage accounting.
    let n_slots = device.num_slots();
    let mut slot_used = vec![vec![Resources::ZERO; n_slots]; n_fpgas];
    for (id, t) in graph.tasks() {
        let s = slot_of_task[id.index()];
        slot_used[assignment[id.index()]][s.row * device.cols() + s.col] += t.resources;
    }

    let (solve_stats, degraded) = log.finish();
    Ok(Floorplan { slot_of_task, slot_used, runtime: start.elapsed(), solve_stats, degraded })
}

/// The intra-FPGA level of the recursive bisection: one FPGA's tasks over
/// regions of its slot grid.
impl Level for FpgaCtx<'_> {
    type Item = TaskId;
    type Group = Region;
    type Leaf = SlotId;

    fn leaf(&self, region: &Region) -> Option<SlotId> {
        region.single().then(|| SlotId::new(region.row_lo, region.col_lo))
    }

    fn split(&self, tasks: &[TaskId], region: &Region) -> (Region, Region, Split) {
        let (graph, region) = (self.graph, *region);
        // Split along the longer dimension (rows first: die boundaries are
        // the expensive ones).
        let split_rows = region.rows() >= region.cols() && region.rows() > 1;
        let (low, high) = if split_rows {
            let mid = region.row_lo + region.rows() / 2;
            (Region { row_hi: mid, ..region }, Region { row_lo: mid, ..region })
        } else {
            let mid = region.col_lo + region.cols() / 2;
            (Region { col_hi: mid, ..region }, Region { col_lo: mid, ..region })
        };
        let (cap_low, cap_high) = (self.region_capacity(&low), self.region_capacity(&high));

        // Pin memory tasks toward the HBM shoreline and network endpoints
        // toward the QSFP row when this split decides that dimension. Rows
        // are split low/high, so when the region contains the HBM row it is
        // in the low half, and when it contains the top row it is in the
        // high half.
        let hbm_row = self.device.hbm_row();
        let splits_off_hbm_row = split_rows && region.row_lo <= hbm_row && hbm_row < region.row_hi;
        // Hard-pinning memory adapters to the shoreline half only works
        // while they fit there; otherwise they spill one die up (longer AXI
        // paths, paid for via congestion) rather than making the floorplan
        // infeasible.
        let mem_load: Resources = tasks
            .iter()
            .map(|&t| graph.task(t))
            .filter(|task| task.kind.is_memory())
            .map(|task| task.resources)
            .sum();
        let mem_fits_low = mem_load.fits_within(&cap_low, 0.85);
        // Network endpoints stay off the crowded HBM shoreline but may use
        // any upper die (the QSFP fabric reaches them all).
        let pin = |kind: &TaskKind| {
            if !splits_off_hbm_row {
                None
            } else if kind.is_memory() {
                mem_fits_low.then_some(false)
            } else {
                kind.is_network().then_some(true)
            }
        };
        let items: Vec<Item> = tasks
            .iter()
            .map(|&t| graph.task(t))
            .map(|task| Item { resources: task.resources, pin: pin(&task.kind) })
            .collect();

        // Balance the *unpinned* load across the halves in proportion to
        // the capacity the pinned load leaves them (congestion costs
        // frequency): pinned load sits where the chip layout dictates, free
        // logic spreads.
        let balance = binding_kind(&items, &(cap_low + cap_high)).and_then(|kind| {
            let remaining = |cap: &Resources, side: bool| {
                let pinned: Resources =
                    items.iter().filter(|i| i.pin == Some(side)).map(|i| i.resources).sum();
                (cap.get(kind) as f64 - pinned.get(kind) as f64).max(0.0)
            };
            let (rem_low, rem_high) = (remaining(&cap_low, false), remaining(&cap_high, true));
            (rem_low + rem_high > 0.0).then(|| {
                let share_high = rem_high / (rem_low + rem_high);
                let slack = self.cfg.balance_slack;
                Balance { kind, share_low: 1.0 - share_high, share_high, slack }
            })
        });
        let edges = local_edges(
            self.n_tasks,
            tasks.iter().map(|t| self.position[t.index()]),
            self.fifos.iter().copied(),
        );
        let split =
            Split { items, edges, low: Side::exact(cap_low), high: Side::exact(cap_high), balance };
        (low, high, split)
    }
}

/// Whether the chip layout lets a task of `kind` sit in `slot`: memory
/// adapters on the HBM shoreline or one die above it, network endpoints
/// anywhere off the shoreline.
fn slot_allowed(kind: &TaskKind, slot: SlotId, device: &Device) -> bool {
    let hbm_row = device.hbm_row();
    (!kind.is_memory() || slot.row <= hbm_row + 1) && (!kind.is_network() || slot.row != hbm_row)
}

/// Direct first-fit-decreasing slot packing honouring physical pins. Used
/// when recursive bisection fails on lookahead.
fn greedy_slots(
    ctx: &FpgaCtx<'_>,
    tasks: &[TaskId],
    slot_of_task: &mut [SlotId],
) -> Result<(), CompileError> {
    let (graph, device) = (ctx.graph, ctx.device);
    let slots: Vec<SlotId> = device.slots().collect();
    let caps: Vec<Resources> = slots.iter().map(|&s| ctx.slot_capacity(s)).collect();
    let mut used = vec![Resources::ZERO; slots.len()];
    let mut order: Vec<TaskId> = tasks.to_vec();
    order.sort_by_key(|&t| std::cmp::Reverse(size_key(&graph.task(t).resources)));
    for t in order {
        let res = graph.task(t).resources;
        let is_mem = graph.task(t).kind.is_memory();
        let mut best: Option<usize> = None;
        let mut best_key = (usize::MAX, f64::INFINITY);
        for (i, &s) in slots.iter().enumerate() {
            if !slot_allowed(&graph.task(t).kind, s, device) {
                continue;
            }
            if !(used[i] + res).fits_within(&caps[i], ctx.cfg.slot_threshold) {
                continue;
            }
            let load = used[i].utilization(&caps[i]).max();
            // Memory adapters prefer the shoreline row when it has room.
            let row_rank = if is_mem { s.row.abs_diff(device.hbm_row()) } else { 0 };
            if (row_rank, load) < best_key {
                best_key = (row_rank, load);
                best = Some(i);
            }
        }
        let Some(i) = best else {
            return Err(CompileError::InsufficientResources {
                detail: format!(
                    "task {} fits no slot even with greedy packing",
                    graph.task(t).name
                ),
            });
        };
        used[i] += res;
        slot_of_task[t.index()] = slots[i];
    }
    Ok(())
}

/// Weight that makes ~1 percentage point of congestion comparable to
/// rerouting a 512-bit FIFO across one extra hop.
const KAPPA: f64 = 2.0e5;

/// Congestion penalty used by refinement: quadratic past 50%, mirroring the
/// timing model's shape.
fn congestion(u: f64) -> f64 {
    let over = (u - 0.5).max(0.0);
    over * over
}

/// Greedy refinement with the true equation-4 objective *plus* a congestion
/// term: move one task to another slot when it lowers
/// `Σ width × Manhattan + κ Σ congestion(slot)`.
///
/// Passes visit the tasks in order and move each to the allowed slot with
/// room under the threshold whose move lowers the cost most (the first
/// such slot in grid order on a tie, and only by more than `1e-9`). Each
/// input is computed once, and every float a decision reads keeps the
/// value a from-scratch evaluation gives:
///
/// * each task's in-set neighbours (task, FIFO width) and its AXI port
///   width are gathered once per call. A wirelength is a sum of products
///   of integers far below 2⁵³, so it is exact in any order;
/// * each slot's congestion is kept and refreshed only for the two slots
///   a move touches. Utilization is a pure function of (used, capacity);
/// * the source slot's terms before and after the move are computed once
///   per task, not once per candidate, and the fit test reads the
///   candidate's after-move utilization the cost then uses. The cost
///   delta keeps its operation order.
fn refine_fpga(ctx: &FpgaCtx<'_>, tasks: &[TaskId], slot_of_task: &mut [SlotId]) {
    let (graph, device, cfg) = (ctx.graph, ctx.device, ctx.cfg);
    let slots: Vec<SlotId> = device.slots().collect();
    let idx = |s: SlotId| s.row * device.cols() + s.col;
    let mut used = vec![Resources::ZERO; slots.len()];
    for &t in tasks {
        used[idx(slot_of_task[t.index()])] += graph.task(t).resources;
    }
    let caps: Vec<Resources> = slots.iter().map(|&s| ctx.slot_capacity(s)).collect();
    let utilization = |k: usize, used: &Resources| used.utilization(&caps[k]).max();
    let mut cong: Vec<f64> =
        (0..slots.len()).map(|k| congestion(utilization(k, &used[k]))).collect();

    // Each task's in-set neighbours, one entry per FIFO (self-loops left
    // out), and its AXI port width (0 for a task without one).
    let mut in_set = vec![false; slot_of_task.len()];
    for &t in tasks {
        in_set[t.index()] = true;
    }
    let mut start = Vec::with_capacity(tasks.len() + 1);
    let mut neighbours: Vec<(usize, f64)> = Vec::new();
    let mut port = Vec::with_capacity(tasks.len());
    start.push(0);
    for &t in tasks {
        for &f in graph.out_fifos(t).iter().chain(graph.in_fifos(t)) {
            let fifo = graph.fifo(f);
            let other = if fifo.src == t { fifo.dst } else { fifo.src };
            if other != t && in_set[other.index()] {
                neighbours.push((other.index(), fifo.width_bits as f64));
            }
        }
        start.push(neighbours.len());
        port.push(match graph.task(t).kind {
            TaskKind::HbmRead { port_width_bits, .. }
            | TaskKind::HbmWrite { port_width_bits, .. } => port_width_bits as f64,
            _ => 0.0,
        });
    }
    let wirelength = |p: usize, slot: SlotId, slot_of_task: &[SlotId]| -> f64 {
        let mut c = 0.0;
        for &(other, width) in &neighbours[start[p]..start[p + 1]] {
            c += width * slot.manhattan(&slot_of_task[other]) as f64;
        }
        // Memory adapters also route their AXI port to the HBM shoreline.
        c + port[p] * slot.row.abs_diff(device.hbm_row()) as f64
    };

    for _ in 0..cfg.refine_passes {
        let mut improved = false;
        for (p, &t) in tasks.iter().enumerate() {
            let kind = &graph.task(t).kind;
            let res = graph.task(t).resources;
            let cur = slot_of_task[t.index()];
            let c = idx(cur);
            let cur_wl = wirelength(p, cur, slot_of_task);
            let cong_cur_before = cong[c];
            let cong_cur_after = congestion(utilization(c, &used[c].saturating_sub(&res)));
            let mut best = c;
            let mut best_delta = -1e-9;
            for (k, &cand) in slots.iter().enumerate() {
                if k == c || !slot_allowed(kind, cand, device) {
                    continue;
                }
                // `fits_within`'s test, on the utilization the cost reads.
                let u_cand_after = utilization(k, &(used[k] + res));
                let fits = u_cand_after <= cfg.slot_threshold;
                if !fits {
                    continue;
                }
                let d_wl = wirelength(p, cand, slot_of_task) - cur_wl;
                let d_cong = cong_cur_after + congestion(u_cand_after) - cong_cur_before - cong[k];
                let delta = d_wl + KAPPA * d_cong;
                if delta < best_delta {
                    best_delta = delta;
                    best = k;
                }
            }
            if best != c {
                used[c] -= res;
                used[best] += res;
                cong[c] = congestion(utilization(c, &used[c]));
                cong[best] = congestion(utilization(best, &used[best]));
                slot_of_task[t.index()] = slots[best];
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// The Vitis-like placement baseline: first-fit in task-id order, packing
/// into the lowest-indexed slot with room. This mimics a flow with *no*
/// dataflow-aware floorplanning — hotspots form in the first slots and
/// logically adjacent modules end up far apart, exactly the failure mode
/// §2 attributes to plain HLS compilation.
///
/// Physical pins (HBM → bottom row, network endpoints → top row) still
/// hold: even Vitis must route memory ports to the shoreline.
///
/// # Errors
///
/// [`CompileError::InsufficientResources`] when some task fits no slot.
pub fn floorplan_naive(
    graph: &TaskGraph,
    assignment: &[usize],
    n_fpgas: usize,
    device: &Device,
    reserved_qsfp: &[Resources],
    cfg: &FloorplanConfig,
) -> Result<Floorplan, CompileError> {
    assert_eq!(assignment.len(), graph.num_tasks(), "assignment must cover the graph");
    let start = Instant::now();
    let mut slot_of_task = vec![SlotId::new(0, 0); graph.num_tasks()];
    let n_slots = device.num_slots();
    let mut slot_used = vec![vec![Resources::ZERO; n_slots]; n_fpgas];

    for fpga in 0..n_fpgas {
        let reserved = reserved_qsfp.get(fpga).copied().unwrap_or(Resources::ZERO);
        let mut order: Vec<TaskId> =
            graph.task_ids().filter(|t| assignment[t.index()] == fpga).collect();
        let ctx = FpgaCtx::new(graph, device, cfg, reserved, &order);
        let slots: Vec<SlotId> = device.slots().collect();
        let caps: Vec<Resources> = slots.iter().map(|&s| ctx.slot_capacity(s)).collect();
        let idx = |s: SlotId| s.row * device.cols() + s.col;
        // Pinned (memory/network) tasks place first: even Vitis routes AXI
        // ports to their shoreline before general logic.
        order.sort_by_key(|t| {
            let kind = &graph.task(*t).kind;
            (!(kind.is_memory() || kind.is_network()), t.index())
        });
        for t in order {
            let res = graph.task(t).resources;
            let Some(&slot) = slots.iter().find(|&&s| {
                slot_allowed(&graph.task(t).kind, s, device)
                    && (slot_used[fpga][idx(s)] + res)
                        .fits_within(&caps[idx(s)], cfg.slot_threshold)
            }) else {
                return Err(CompileError::InsufficientResources {
                    detail: format!(
                        "task {} fits no slot under first-fit placement",
                        graph.task(t).name
                    ),
                });
            };
            slot_used[fpga][idx(slot)] += res;
            slot_of_task[t.index()] = slot;
        }
    }

    Ok(Floorplan {
        slot_of_task,
        slot_used,
        runtime: start.elapsed(),
        solve_stats: Vec::new(),
        degraded: false,
    })
}

/// HBM channel binding exploration (§4.5): rebinds each FPGA's reader/
/// writer channels so a module binds to a channel on its own column's side
/// of the HBM stack, spreading load round-robin. Returns the number of
/// distinct channels used per FPGA.
pub fn rebind_hbm_channels(
    graph: &mut TaskGraph,
    assignment: &[usize],
    slot_of_task: &[SlotId],
    n_fpgas: usize,
    device: &Device,
) -> Vec<usize> {
    let total_ch = device.hbm().channels();
    let mut used = vec![0usize; n_fpgas];
    if total_ch == 0 {
        return used;
    }
    let per_col = total_ch / device.cols().max(1);
    for fpga in 0..n_fpgas {
        let mut next_in_col = vec![0usize; device.cols()];
        let mut distinct = std::collections::BTreeSet::new();
        for t in graph.task_ids().collect::<Vec<_>>() {
            if assignment[t.index()] != fpga {
                continue;
            }
            let col = slot_of_task[t.index()].col;
            let task = graph.task_mut(t);
            let new_channel = col * per_col + (next_in_col[col] % per_col.max(1));
            match &mut task.kind {
                TaskKind::HbmRead { channel, .. } | TaskKind::HbmWrite { channel, .. } => {
                    *channel = new_channel.min(total_ch - 1);
                    distinct.insert(*channel);
                    next_in_col[col] += 1;
                }
                _ => {}
            }
        }
        used[fpga] = distinct.len();
    }
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapacs_graph::{Fifo, Task};

    const NO_NET: &[Resources] = &[Resources::ZERO; 8];

    fn small_design() -> TaskGraph {
        let mut g = TaskGraph::new("fp");
        let r = Resources::new(20_000, 40_000, 30, 60, 5);
        let rd = g.add_task(Task::hbm_read("rd", r, 0, 512, 64 * 1024));
        let pe1 = g.add_task(Task::compute("pe1", r));
        let pe2 = g.add_task(Task::compute("pe2", r));
        let wr = g.add_task(Task::hbm_write("wr", r, 1, 512, 64 * 1024));
        g.add_fifo(Fifo::new("a", rd, pe1, 512));
        g.add_fifo(Fifo::new("b", pe1, pe2, 512));
        g.add_fifo(Fifo::new("c", pe2, wr, 512));
        g
    }

    #[test]
    fn memory_tasks_pinned_to_hbm_row() {
        let g = small_design();
        let fp = floorplan(&g, &[0; 4], 1, &Device::u55c(), NO_NET, &FloorplanConfig::default())
            .unwrap();
        assert_eq!(fp.slot_of_task[0].row, 0, "HBM reader must sit in the bottom die");
        assert_eq!(fp.slot_of_task[3].row, 0, "HBM writer must sit in the bottom die");
    }

    #[test]
    fn slots_respect_threshold() {
        let g = small_design();
        let device = Device::u55c();
        let cfg = FloorplanConfig::default();
        let fp = floorplan(&g, &[0; 4], 1, &device, NO_NET, &cfg).unwrap();
        for (i, slot) in device.slots().enumerate() {
            let u = fp.slot_used[0][i].utilization(&device.slot_capacity(slot));
            assert!(u.max() <= cfg.slot_threshold + 1e-9);
        }
    }

    #[test]
    fn oversized_design_fails_cleanly() {
        let mut g = TaskGraph::new("big");
        // One indivisible task bigger than any slot.
        let huge = Device::u55c().resources().scale(0.4);
        g.add_task(Task::compute("huge", huge));
        let err = floorplan(&g, &[0], 1, &Device::u55c(), NO_NET, &FloorplanConfig::default())
            .unwrap_err();
        assert!(matches!(err, CompileError::InsufficientResources { .. }));
    }

    #[test]
    fn connected_tasks_land_near_each_other() {
        // A heavy chain should not scatter across diagonal corners.
        let g = small_design();
        let fp = floorplan(&g, &[0; 4], 1, &Device::u55c(), NO_NET, &FloorplanConfig::default())
            .unwrap();
        let total_wirelength: usize = g
            .fifos()
            .map(|(_, f)| fp.slot_of_task[f.src.index()].manhattan(&fp.slot_of_task[f.dst.index()]))
            .sum();
        // 4 tasks, 3 edges on a 2×3 grid: good plans stay ≤ 4 total hops.
        assert!(total_wirelength <= 4, "wirelength {total_wirelength}");
    }

    #[test]
    fn network_endpoints_kept_off_hbm_row() {
        let mut g = small_design();
        let send = g.add_task(Task {
            name: "tx".into(),
            kind: TaskKind::NetSend,
            resources: Resources::new(1_000, 2_000, 4, 0, 0),
            cycles_per_block: 1,
            total_blocks: 1,
            consume_per_firing: 1,
            produce_per_firing: 1,
        });
        let pe = TaskId::from_index(2);
        g.add_fifo(Fifo::new("np", pe, send, 512));
        let device = Device::u55c();
        let fp = floorplan(&g, &[0; 5], 1, &device, NO_NET, &FloorplanConfig::default()).unwrap();
        assert_ne!(fp.slot_of_task[send.index()].row, device.hbm_row());
    }

    #[test]
    fn qsfp_reservation_shrinks_corner_slot() {
        // A task that fits the bare corner slot but not once the network IP
        // is reserved must land elsewhere.
        let device = Device::u55c();
        let corner_cap = device.slot_capacity(SlotId::new(device.rows() - 1, 1));
        let mut g = TaskGraph::new("r");
        g.add_task(Task::compute("big", corner_cap.scale(0.7)));
        let reserved = corner_cap.scale(0.5);
        let fp = floorplan(&g, &[0], 1, &device, &[reserved], &FloorplanConfig::default()).unwrap();
        assert_ne!(fp.slot_of_task[0], SlotId::new(device.rows() - 1, 1));
    }

    #[test]
    fn free_load_spreads_across_slots() {
        // 6 identical free PEs on an empty U55C must not lump into one die.
        let mut g = TaskGraph::new("spread");
        let r = Resources::new(60_000, 120_000, 100, 300, 20);
        let ids: Vec<TaskId> =
            (0..6).map(|i| g.add_task(Task::compute(format!("pe{i}"), r))).collect();
        for w in ids.windows(2) {
            g.add_fifo(Fifo::new("e", w[0], w[1], 32));
        }
        let device = Device::u55c();
        let fp = floorplan(&g, &[0; 6], 1, &device, NO_NET, &FloorplanConfig::default()).unwrap();
        let rows_used: std::collections::BTreeSet<usize> =
            fp.slot_of_task.iter().map(|s| s.row).collect();
        assert!(rows_used.len() >= 2, "free PEs lumped into one row: {:?}", fp.slot_of_task);
    }

    #[test]
    fn channel_rebinding_spreads_by_column() {
        let mut g = TaskGraph::new("hbm");
        let r = Resources::new(5_000, 10_000, 8, 0, 0);
        for i in 0..8 {
            g.add_task(Task::hbm_read(format!("rd{i}"), r, 0, 512, 32 * 1024));
        }
        let device = Device::u55c();
        // Hand-placed: 4 readers in col 0, 4 in col 1, all row 0.
        let slots: Vec<SlotId> =
            (0..8).map(|i| SlotId::new(0, if i < 4 { 0 } else { 1 })).collect();
        let used = rebind_hbm_channels(&mut g, &[0; 8], &slots, 1, &device);
        assert_eq!(used[0], 8, "8 readers should get 8 distinct channels");
        for (id, t) in g.tasks() {
            if let TaskKind::HbmRead { channel, .. } = t.kind {
                if id.index() < 4 {
                    assert!(channel < 16, "col-0 reader bound to far channel {channel}");
                } else {
                    assert!(channel >= 16, "col-1 reader bound to far channel {channel}");
                }
            }
        }
    }

    #[test]
    fn runtime_recorded() {
        let g = small_design();
        let fp = floorplan(&g, &[0; 4], 1, &Device::u55c(), NO_NET, &FloorplanConfig::default())
            .unwrap();
        assert!(fp.runtime.as_secs_f64() < 30.0);
    }

    /// The refinement as first written, recomputing every input per
    /// candidate: [`refine_fpga`] must decide exactly as this does.
    fn refine_reference(ctx: &FpgaCtx<'_>, tasks: &[TaskId], slot_of_task: &mut [SlotId]) {
        let (graph, device, cfg) = (ctx.graph, ctx.device, ctx.cfg);
        let n_slots = device.num_slots();
        let idx = |s: SlotId| s.row * device.cols() + s.col;
        let mut used = vec![Resources::ZERO; n_slots];
        for &t in tasks {
            used[idx(slot_of_task[t.index()])] += graph.task(t).resources;
        }
        let caps: Vec<Resources> = device.slots().map(|s| ctx.slot_capacity(s)).collect();
        let mut in_set = vec![false; slot_of_task.len()];
        for &t in tasks {
            in_set[t.index()] = true;
        }

        let wirelength = |t: TaskId, slot: SlotId, slot_of_task: &[SlotId]| -> f64 {
            let mut c = 0.0;
            for &f in graph.out_fifos(t).iter().chain(graph.in_fifos(t)) {
                let fifo = graph.fifo(f);
                let other = if fifo.src == t { fifo.dst } else { fifo.src };
                if other == t || !in_set[other.index()] {
                    continue;
                }
                c += fifo.width_bits as f64 * slot.manhattan(&slot_of_task[other.index()]) as f64;
            }
            // Memory adapters also route their AXI port to the HBM shoreline.
            if let TaskKind::HbmRead { port_width_bits, .. }
            | TaskKind::HbmWrite { port_width_bits, .. } = graph.task(t).kind
            {
                c += port_width_bits as f64 * slot.row.abs_diff(device.hbm_row()) as f64;
            }
            c
        };

        for _ in 0..cfg.refine_passes {
            let mut improved = false;
            for &t in tasks {
                let kind = &graph.task(t).kind;
                let cur = slot_of_task[t.index()];
                let res = graph.task(t).resources;
                let cur_wl = wirelength(t, cur, slot_of_task);
                let mut best = cur;
                let mut best_delta = -1e-9;
                for cand in device.slots() {
                    if cand == cur || !slot_allowed(kind, cand, device) {
                        continue;
                    }
                    let after_cand = used[idx(cand)] + res;
                    if !after_cand.fits_within(&caps[idx(cand)], cfg.slot_threshold) {
                        continue;
                    }
                    let d_wl = wirelength(t, cand, slot_of_task) - cur_wl;
                    let u_cur_before = used[idx(cur)].utilization(&caps[idx(cur)]).max();
                    let u_cur_after =
                        used[idx(cur)].saturating_sub(&res).utilization(&caps[idx(cur)]).max();
                    let u_cand_before = used[idx(cand)].utilization(&caps[idx(cand)]).max();
                    let u_cand_after = after_cand.utilization(&caps[idx(cand)]).max();
                    let d_cong = congestion(u_cur_after) + congestion(u_cand_after)
                        - congestion(u_cur_before)
                        - congestion(u_cand_before);
                    let delta = d_wl + KAPPA * d_cong;
                    if delta < best_delta {
                        best_delta = delta;
                        best = cand;
                    }
                }
                if best != cur {
                    used[idx(cur)] -= res;
                    used[idx(best)] += res;
                    slot_of_task[t.index()] = best;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// A random small design for the refinement: `(kind, resources in
    /// percent of the device's first slot, initial slot, in the set)` per
    /// task and `(src, dst, width)` per FIFO, self-loops and FIFOs to
    /// out-of-set tasks included.
    type RandomTask = (u8, (u64, u64, u64, u64, u64), usize, u8);

    fn random_design(
        device: &Device,
        tasks: &[RandomTask],
        fifos: &[(usize, usize, u32)],
    ) -> (TaskGraph, Vec<SlotId>, Vec<TaskId>) {
        let base = device.slot_capacity(SlotId::new(0, 0));
        let slots: Vec<SlotId> = device.slots().collect();
        let mut g = TaskGraph::new("refine");
        let mut slot_of_task = Vec::new();
        let mut in_set = Vec::new();
        for (i, &(kind, (lut, ff, bram, dsp, uram), slot, member)) in tasks.iter().enumerate() {
            let r = Resources::new(
                base.lut * lut / 100,
                base.ff * ff / 100,
                base.bram * bram / 100,
                base.dsp * dsp / 100,
                base.uram * uram / 100,
            );
            let port = [64, 128, 256, 512][i % 4];
            let mut task = match kind {
                0 => Task::hbm_read(format!("rd{i}"), r, 0, port, 1024),
                1 => Task::hbm_write(format!("wr{i}"), r, 0, port, 1024),
                _ => Task::compute(format!("pe{i}"), r),
            };
            if kind == 2 {
                task.kind = TaskKind::NetSend;
            }
            let id = g.add_task(task);
            slot_of_task.push(slots[slot % slots.len()]);
            if member > 0 {
                in_set.push(id);
            }
        }
        for &(src, dst, width) in fifos {
            let (src, dst) = (src % tasks.len(), dst % tasks.len());
            g.add_fifo(Fifo::new("f", TaskId::from_index(src), TaskId::from_index(dst), width));
        }
        (g, slot_of_task, in_set)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The refinement moves every task exactly where the reference
        /// does, on random small designs over the U55C, U280 and U250
        /// grids, random thresholds, QSFP reservations and pass counts,
        /// from random (also over-full) starting slots.
        #[test]
        fn refinement_decides_exactly_as_the_reference(
            board in 0usize..3,
            tasks in proptest::collection::vec(
                (0u8..6, (0u64..30, 0u64..30, 0u64..30, 0u64..30, 0u64..30), 0usize..64, 0u8..4),
                1..14,
            ),
            fifos in proptest::collection::vec((0usize..14, 0usize..14, 1u32..9), 0..24),
            threshold in 40u32..101,
            passes in 0usize..5,
            reserve in 0u64..60,
        ) {
            let device = [Device::u55c(), Device::u280(), Device::u250()][board].clone();
            let fifos: Vec<(usize, usize, u32)> =
                fifos.into_iter().map(|(s, d, w)| (s, d, 32 * w)).collect();
            let (g, start, in_set) = random_design(&device, &tasks, &fifos);
            let corner = SlotId::new(device.rows() - 1, device.cols() - 1);
            let reserved = device.slot_capacity(corner).scale(reserve as f64 / 100.0);
            let cfg = FloorplanConfig {
                slot_threshold: threshold as f64 / 100.0,
                refine_passes: passes,
                ..FloorplanConfig::default()
            };
            let ctx = FpgaCtx::new(&g, &device, &cfg, reserved, &in_set);
            let (mut fast, mut reference) = (start.clone(), start);
            refine_fpga(&ctx, &in_set, &mut fast);
            refine_reference(&ctx, &in_set, &mut reference);
            proptest::prop_assert_eq!(fast, reference);
        }
    }
}
