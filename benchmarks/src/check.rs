//! The benchmark's own legality checker and quality-of-result
//! recomputation.
//!
//! Everything here is derived from a job's *artifacts* — the input graph,
//! the compiled design's placement vectors and rewritten graph, and the
//! device model from `tapacs_fpga` / `tapacs_net` — without calling back
//! into the compiler that produced them, so a compiler bug cannot vouch for
//! itself.

use tapacs_core::pnr::ROUTABLE_LIMIT;
use tapacs_core::CompiledDesign;
use tapacs_fpga::{Device, ResourceKind, Resources, SlotId};
use tapacs_graph::{TaskGraph, TaskKind};
use tapacs_net::AlveoLink;

/// What one compile job was asked to do, as the checker needs it.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec<'a> {
    /// The design handed to the compiler.
    pub input: &'a TaskGraph,
    /// The device every FPGA of the flow is.
    pub device: &'a Device,
    /// FPGAs the flow spans.
    pub n_fpgas: usize,
    /// The per-FPGA fit threshold in force: the partition threshold `T`,
    /// or the single-FPGA threshold for one-device flows.
    pub fit_threshold: f64,
}

/// Per-FPGA user-logic capacity: the device minus its static shell and, on
/// multi-FPGA flows, the networking IP of up to two QSFP28 ports.
fn user_capacity(device: &Device, n_fpgas: usize) -> Resources {
    let cap = device.usable_resources();
    if n_fpgas > 1 {
        cap.saturating_sub(&AlveoLink::resource_overhead_for(device, device.qsfp_ports().min(2)))
    } else {
        cap
    }
}

/// Largest per-kind `used / capacity` fraction (`inf` when a kind with no
/// capacity is used).
fn worst_fraction(used: &Resources, cap: &Resources) -> f64 {
    ResourceKind::ALL
        .iter()
        .map(|&k| match (used.get(k), cap.get(k)) {
            (0, _) => 0.0,
            (_, 0) => f64::INFINITY,
            (u, c) => u as f64 / c as f64,
        })
        .fold(0.0, f64::max)
}

/// Inter-FPGA cut of `assignment` over `graph`: summed width of every FIFO
/// whose ends sit on different FPGAs.
pub fn cut_width_bits(graph: &TaskGraph, assignment: &[usize]) -> u64 {
    graph
        .fifos()
        .filter(|(_, f)| assignment[f.src.index()] != assignment[f.dst.index()])
        .map(|(_, f)| u64::from(f.width_bits))
        .sum()
}

/// On-chip wirelength of a compiled design: `Σ width × Manhattan slot
/// distance` over the same-FPGA FIFOs of the post-comm-insert graph.
pub fn wirelength_bit_hops(design: &CompiledDesign) -> u64 {
    let fpga = &design.placement.fpga_of_task;
    design
        .graph
        .fifos()
        .filter(|(_, f)| fpga[f.src.index()] == fpga[f.dst.index()])
        .map(|(_, f)| {
            let (a, b) = (design.slot_of_task[f.src.index()], design.slot_of_task[f.dst.index()]);
            u64::from(f.width_bits) * SlotId::manhattan(&a, &b) as u64
        })
        .sum()
}

/// The worst per-FPGA critical delay of a design, in ns (uncapped: unlike
/// the achieved frequency it keeps moving below the device's `F_max`).
pub fn critical_delay_ns(design: &CompiledDesign) -> f64 {
    design.timing.critical_delay_ns.iter().copied().fold(0.0, f64::max)
}

/// Checks one compiled design against the structural rules; returns the
/// recomputed cut width on success and every violated rule otherwise.
pub fn check_design(spec: &JobSpec<'_>, design: &CompiledDesign) -> Result<u64, Vec<String>> {
    let mut bad = Vec::new();
    let (input, device, n) = (spec.input, spec.device, spec.n_fpgas);
    let placed = &design.graph;
    let fpga = &design.placement.fpga_of_task;
    let slots = &design.slot_of_task;
    let partition = &design.partition.assignment;

    // Shape: every vector covers its graph, so each task has exactly one
    // FPGA and one slot. Nothing below can be indexed safely otherwise.
    if partition.iter().any(|&f| f >= n) {
        return Err(vec![format!("the partition uses an FPGA outside the {n} of the flow")]);
    }
    if partition.len() != input.num_tasks()
        || fpga.len() != placed.num_tasks()
        || slots.len() != placed.num_tasks()
        || placed.num_tasks() < input.num_tasks()
    {
        return Err(vec![format!(
            "placement shape: {} input / {} placed task(s), {} partition / {} fpga / {} slot entries",
            input.num_tasks(),
            placed.num_tasks(),
            partition.len(),
            fpga.len(),
            slots.len()
        )]);
    }
    for (id, task) in placed.tasks() {
        let (f, s) = (fpga[id.index()], slots[id.index()]);
        if f >= n {
            bad.push(format!("task {} on FPGA {f}, flow spans {n}", task.name));
        }
        if s.row >= device.rows() || s.col >= device.cols() {
            bad.push(format!("task {} in slot ({}, {}) outside the grid", task.name, s.row, s.col));
        }
    }
    if !bad.is_empty() {
        return Err(bad);
    }
    if fpga[..partition.len()] != partition[..] {
        bad.push("the placement moved an input task off its partition FPGA".to_string());
    }

    // Equation 1: user logic per FPGA within threshold × usable capacity.
    let cap = user_capacity(device, n);
    let mut user = vec![Resources::ZERO; n];
    for (id, task) in input.tasks() {
        user[partition[id.index()]] += task.resources;
    }
    for (f, used) in user.iter().enumerate() {
        let frac = worst_fraction(used, &cap);
        if frac > spec.fit_threshold {
            bad.push(format!(
                "FPGA {f} user logic at {frac:.4} of capacity, threshold {}",
                spec.fit_threshold
            ));
        }
    }

    // Routability: every slot (tasks + the networking IP in the QSFP
    // corner) at or under the routable limit.
    let slot_index = |s: SlotId| s.row * device.cols() + s.col;
    let mut slot_used = vec![vec![Resources::ZERO; device.num_slots()]; n];
    for (id, task) in placed.tasks() {
        slot_used[fpga[id.index()]][slot_index(slots[id.index()])] += task.resources;
    }
    let qsfp = slot_index(SlotId::new(device.rows() - 1, device.cols() - 1));
    for (f, &ports) in design.ports_used.iter().enumerate().take(n) {
        if ports > 0 {
            slot_used[f][qsfp] += AlveoLink::resource_overhead_for(device, ports);
        }
    }
    for (f, per_slot) in slot_used.iter().enumerate() {
        for (slot, used) in device.slots().zip(per_slot) {
            let frac = worst_fraction(used, &device.slot_capacity(slot));
            if frac > ROUTABLE_LIMIT {
                bad.push(format!(
                    "FPGA {f} slot ({}, {}) at {frac:.4}, routable limit {ROUTABLE_LIMIT}",
                    slot.row, slot.col
                ));
            }
        }
    }

    // HBM binding: only channels the device has.
    let channels = device.hbm().channels();
    for (_, task) in placed.tasks() {
        if let TaskKind::HbmRead { channel, .. } | TaskKind::HbmWrite { channel, .. } = task.kind {
            if channel >= channels {
                bad.push(format!(
                    "task {} bound to HBM channel {channel} of {channels}",
                    task.name
                ));
            }
        }
    }

    // Cut streams: a FIFO between FPGAs is a network channel, send → recv.
    let mut net_channels = 0usize;
    for (_, fifo) in placed.fifos() {
        if fpga[fifo.src.index()] == fpga[fifo.dst.index()] {
            continue;
        }
        net_channels += 1;
        let ends = (placed.task(fifo.src).kind, placed.task(fifo.dst).kind);
        if ends != (TaskKind::NetSend, TaskKind::NetRecv) {
            bad.push(format!("FIFO {} crosses FPGAs without network endpoints", fifo.name));
        }
    }
    let cut_fifos =
        input.fifos().filter(|(_, f)| partition[f.src.index()] != partition[f.dst.index()]).count();
    if net_channels != cut_fifos {
        bad.push(format!("{cut_fifos} cut FIFO(s) but {net_channels} network channel(s)"));
    }

    // Reported cut = recomputed cut.
    let cut = cut_width_bits(input, partition);
    if cut != design.partition.cut_width_bits {
        bad.push(format!(
            "reported cut {} bits, recomputed {cut}",
            design.partition.cut_width_bits
        ));
    }

    if bad.is_empty() {
        Ok(cut)
    } else {
        Err(bad)
    }
}

/// Whether rejecting the job outright is provably right: the design's
/// aggregate demand exceeds `threshold × capacity` of the whole flow for
/// some resource kind, so no assignment can satisfy equation 1.
pub fn provably_infeasible(spec: &JobSpec<'_>) -> bool {
    let mut total = Resources::ZERO;
    for (_, task) in spec.input.tasks() {
        total += task.resources;
    }
    let all = user_capacity(spec.device, spec.n_fpgas) * spec.n_fpgas as u64;
    worst_fraction(&total, &all) > spec.fit_threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapacs_core::{Compiler, Flow};
    use tapacs_graph::{Fifo, Task};
    use tapacs_net::{Cluster, Topology};

    /// A reader → 8 PEs → writer chain that needs two FPGAs at T = 0.7.
    fn chain() -> TaskGraph {
        let mut g = TaskGraph::new("chain");
        let io = Resources::new(30_000, 60_000, 60, 0, 20);
        let mut prev = g.add_task(Task::hbm_read("rd", io, 0, 512, 65_536).with_total_blocks(16));
        for i in 0..8 {
            let pe = g.add_task(
                Task::compute(format!("pe{i}"), Resources::new(110_000, 200_000, 120, 400, 30))
                    .with_cycles_per_block(500)
                    .with_total_blocks(16),
            );
            g.add_fifo(Fifo::new(format!("f{i}"), prev, pe, 512).with_block_bytes(65_536));
            prev = pe;
        }
        let wr = g.add_task(Task::hbm_write("wr", io, 1, 512, 65_536).with_total_blocks(16));
        g.add_fifo(Fifo::new("out", prev, wr, 512).with_block_bytes(65_536));
        g
    }

    fn compiled() -> (TaskGraph, Device, CompiledDesign) {
        let g = chain();
        let device = Device::u55c();
        let cluster = Cluster::single_node(device.clone(), 2, Topology::Ring);
        let mut cfg = tapacs_core::CompilerConfig::default();
        cfg.solver.threads = 1;
        let design = Compiler::with_config(cluster, cfg)
            .compile(&g, Flow::TapaCs { n_fpgas: 2 })
            .expect("the chain compiles on two FPGAs");
        (g, device, design)
    }

    fn spec<'a>(input: &'a TaskGraph, device: &'a Device) -> JobSpec<'a> {
        JobSpec { input, device, n_fpgas: 2, fit_threshold: 0.7 }
    }

    fn rejected_for(spec: &JobSpec<'_>, design: &CompiledDesign, needle: &str) {
        let bad = check_design(spec, design).expect_err("the corruption must be caught");
        assert!(bad.iter().any(|v| v.contains(needle)), "no `{needle}` in {bad:?}");
    }

    #[test]
    fn a_real_compile_passes_and_its_cut_is_recomputed() {
        let (g, device, design) = compiled();
        let cut = check_design(&spec(&g, &device), &design).expect("legal design");
        assert_eq!(cut, design.partition.cut_width_bits);
        assert!(cut > 0, "the chain is cut somewhere");
        assert!(wirelength_bit_hops(&design) > 0);
        assert!(critical_delay_ns(&design) > 0.0);
    }

    #[test]
    fn corrupted_placements_are_rejected() {
        let (g, device, design) = compiled();
        let spec = spec(&g, &device);

        let mut d = design.clone();
        d.placement.fpga_of_task[0] = 5;
        rejected_for(&spec, &d, "flow spans 2");

        let mut d = design.clone();
        d.slot_of_task[3] = SlotId::new(7, 0);
        rejected_for(&spec, &d, "outside the grid");

        let mut d = design.clone();
        d.slot_of_task.pop();
        rejected_for(&spec, &d, "placement shape");

        // Every PE on one FPGA: legal indices, but over the threshold.
        let mut d = design.clone();
        d.partition.assignment.iter_mut().for_each(|f| *f = 0);
        rejected_for(&spec, &d, "user logic");

        // Every task in one slot of its FPGA: over the routable limit.
        let mut d = design.clone();
        d.slot_of_task.iter_mut().for_each(|s| *s = SlotId::new(1, 0));
        rejected_for(&spec, &d, "routable limit");

        let mut d = design.clone();
        if let TaskKind::HbmRead { channel, .. } =
            &mut d.graph.task_mut(g.task_ids().next().unwrap()).kind
        {
            *channel = 999;
        }
        rejected_for(&spec, &d, "HBM channel 999");

        // Move a PE next to the cut across it: a plain FIFO now spans FPGAs.
        let mut d = design.clone();
        let moved = (1..=8)
            .find(|&i| d.placement.fpga_of_task[i] == d.placement.fpga_of_task[i + 1])
            .unwrap();
        d.placement.fpga_of_task[moved] ^= 1;
        rejected_for(&spec, &d, "without network endpoints");

        let mut d = design.clone();
        d.partition.cut_width_bits += 64;
        rejected_for(&spec, &d, "recomputed");
    }

    #[test]
    fn infeasibility_is_judged_on_aggregate_demand() {
        let (g, device) = (chain(), Device::u55c());
        assert!(!provably_infeasible(&spec(&g, &device)));
        assert!(provably_infeasible(&JobSpec { n_fpgas: 1, ..spec(&g, &device) }));
        assert!(provably_infeasible(&JobSpec { fit_threshold: 0.2, ..spec(&g, &device) }));
    }
}
