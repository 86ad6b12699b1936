//! The seven-step TAPA-CS compiler pipeline (Figure 5) and the evaluation
//! flows.
//!
//! Compilation runs as an explicit staged pipeline (see [`crate::stage`]):
//! [`Compiler::compile`] is a thin wrapper over
//! [`Compiler::compile_staged`] that discards the per-stage record and
//! returns the classic `Result`.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tapacs_fpga::{Resources, SlotId, TimingModel, Utilization};
use tapacs_graph::TaskGraph;
use tapacs_ilp::SolverOptions;
use tapacs_net::Cluster;
use tapacs_sim::{simulate, Placement, SimError, SimReport};

use crate::comm::insert_comm;
use crate::error::CompileError;
use crate::floorplan::{floorplan, floorplan_naive, rebind_hbm_channels, FloorplanConfig};
use crate::partition::{partition, usable_capacity, InterPartition, PartitionConfig};
use crate::pipeline::{pipeline, PipelineReport};
use crate::pnr::{analyze, TimingReport};
use crate::report::LevelSolveStats;
use crate::stage::{CompileContext, CompileOverrides, Stage, StageTiming};

/// The compilation flows compared in the paper's evaluation (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Flow {
    /// `F1-V`: single FPGA through plain Vitis HLS — no coarse-grained
    /// floorplanning feedback, **no interconnect pipelining**.
    VitisHls,
    /// `F1-T`: single FPGA through TAPA/AutoBridge — floorplanning +
    /// pipelining on one device.
    TapaSingle,
    /// `F2..F8`: TAPA-CS across `n_fpgas` devices of the cluster.
    TapaCs {
        /// Number of FPGAs to span.
        n_fpgas: usize,
    },
}

impl Flow {
    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            Flow::VitisHls => "F1-V".into(),
            Flow::TapaSingle => "F1-T".into(),
            Flow::TapaCs { n_fpgas } => format!("F{n_fpgas}"),
        }
    }

    /// FPGAs used by this flow.
    pub fn n_fpgas(&self) -> usize {
        match self {
            Flow::VitisHls | Flow::TapaSingle => 1,
            Flow::TapaCs { n_fpgas } => *n_fpgas,
        }
    }

    /// Whether the flow pipelines slot crossings.
    pub fn pipelined(&self) -> bool {
        !matches!(self, Flow::VitisHls)
    }
}

/// Compiler configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompilerConfig {
    /// Inter-FPGA partitioner knobs (threshold `T` = 0.7 by default).
    pub partition: PartitionConfig,
    /// Intra-FPGA floorplanner knobs.
    pub floorplan: FloorplanConfig,
    /// The virtual-P&R delay model.
    pub timing: TimingModel,
    /// Device-level fit threshold for the *single*-FPGA flows (Vitis/TAPA
    /// accept higher utilization than the multi-FPGA partitioner, paying
    /// frequency instead).
    pub single_fpga_threshold: f64,
    /// ILP solver options (threads, caching, degradation), applied to
    /// *both* floorplanning stages by [`Compiler::compile`] (call
    /// [`partition`] / [`floorplan`] directly with per-stage
    /// [`SolverOptions`] for finer control).
    pub solver: SolverOptions,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        Self {
            partition: PartitionConfig::default(),
            floorplan: FloorplanConfig { slot_threshold: 0.9, ..Default::default() },
            timing: TimingModel::default(),
            single_fpga_threshold: 0.92,
            solver: SolverOptions::default(),
        }
    }
}

impl CompilerConfig {
    /// Rejects a NaN or negative number among the stage configurations'
    /// thresholds, slacks and time limits, naming the field. A threshold
    /// or a time limit of +∞ stands (the latter, like one too large for a
    /// [`std::time::Duration`], is no limit).
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidConfig`] for the first offending field.
    pub fn check(&self) -> Result<(), CompileError> {
        let (p, f) = (&self.partition, &self.floorplan);
        let fields = [
            ("partition.threshold", p.threshold),
            ("partition.time_limit_s", p.time_limit_s),
            ("partition.balance_slack", p.balance_slack),
            ("floorplan.slot_threshold", f.slot_threshold),
            ("floorplan.time_limit_s", f.time_limit_s),
            ("floorplan.balance_slack", f.balance_slack),
            ("single_fpga_threshold", self.single_fpga_threshold),
        ];
        match fields.into_iter().find(|&(_, value)| value.is_nan() || value < 0.0) {
            Some((field, value)) => Err(CompileError::InvalidConfig { field, value }),
            None => Ok(()),
        }
    }
}

/// A fully compiled design: every artifact of the seven-step pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledDesign {
    /// The flow that produced this design.
    pub flow: Flow,
    /// The design after communication-logic insertion (original task ids
    /// preserved, AlveoLink endpoints appended).
    pub graph: TaskGraph,
    /// Task→FPGA assignment plus per-FPGA achieved frequency.
    pub placement: Placement,
    /// Slot per task (intra-FPGA floorplan).
    pub slot_of_task: Vec<SlotId>,
    /// Inter-FPGA partitioning outcome (`L1` runtime inside).
    pub partition: InterPartition,
    /// `true` when any ILP stage fell back to its heuristic incumbent
    /// after a solver timeout (the graceful-degradation ladder): the
    /// design is valid but not the solver's proven-or-best answer.
    /// Degraded results never enter DSE Pareto frontiers.
    #[serde(default)]
    pub degraded: bool,
    /// Intra-FPGA floorplanning runtime (the paper's `L2`).
    pub floorplan_runtime: Duration,
    /// Intra-FPGA floorplanner solve activity per bisection level (the
    /// partitioner's lives in [`InterPartition::solve_stats`]).
    pub floorplan_stats: Vec<LevelSolveStats>,
    /// Pipelining outcome.
    pub pipeline: PipelineReport,
    /// Virtual-P&R timing closure.
    pub timing: TimingReport,
    /// Whole-card utilization per FPGA (user logic + networking IP +
    /// platform), the data behind Figures 11/13/16.
    pub utilization: Vec<Utilization>,
    /// Distinct HBM channels bound per FPGA.
    pub channels_used: Vec<usize>,
    /// QSFP28 ports used per FPGA.
    pub ports_used: Vec<usize>,
    /// Wall-clock per executed pipeline stage, in execution order.
    pub stage_timings: Vec<StageTiming>,
}

impl CompiledDesign {
    /// The design clock (slowest FPGA).
    pub fn design_freq_mhz(&self) -> f64 {
        self.timing.design_freq_mhz()
    }

    /// Number of FPGAs spanned.
    pub fn n_fpgas(&self) -> usize {
        self.placement.num_fpgas()
    }

    /// Executes the compiled design on the discrete-event simulator.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] (deadlock or invalid input).
    pub fn simulate(&self, cluster: &Cluster) -> Result<SimReport, SimError> {
        simulate(&self.graph, &self.placement, cluster)
    }
}

/// The TAPA-CS compiler bound to a cluster.
#[derive(Debug, Clone)]
pub struct Compiler {
    cluster: Cluster,
    config: CompilerConfig,
}

impl Compiler {
    /// A compiler with default configuration.
    pub fn new(cluster: Cluster) -> Self {
        Self { cluster, config: CompilerConfig::default() }
    }

    /// A compiler with explicit configuration.
    pub fn with_config(cluster: Cluster, config: CompilerConfig) -> Self {
        Self { cluster, config }
    }

    /// The bound cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The active configuration.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Runs the full pipeline for a flow.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`]: infeasible partitions, unroutable slots, or
    /// solver failures. For per-stage attribution use
    /// [`Compiler::compile_staged`] instead.
    pub fn compile(&self, graph: &TaskGraph, flow: Flow) -> Result<CompiledDesign, CompileError> {
        self.compile_staged(graph, flow).into_result()
    }

    /// Runs the staged pipeline and returns the full [`CompileContext`]:
    /// per-stage wall-clock, every intermediate artifact, and — on failure
    /// — the stage that rejected the design with the artifacts produced
    /// before it still inspectable.
    pub fn compile_staged(&self, graph: &TaskGraph, flow: Flow) -> CompileContext {
        self.compile_staged_with(graph, flow, CompileOverrides::default())
    }

    /// [`Compiler::compile_staged`] with per-stage overrides: seed a
    /// precomputed partition (the [`Stage::Partition`] stage is skipped),
    /// force the naive or ILP floorplanner, or toggle interconnect
    /// pipelining independently of the flow.
    pub fn compile_staged_with(
        &self,
        graph: &TaskGraph,
        flow: Flow,
        overrides: CompileOverrides,
    ) -> CompileContext {
        let pipelined = overrides.pipelined.unwrap_or_else(|| flow.pipelined());
        let naive = overrides.naive_floorplan.unwrap_or(matches!(flow, Flow::VitisHls));
        let mut ctx = CompileContext::new(flow, pipelined);
        let device = self.cluster.device().clone();
        let n = flow.n_fpgas();

        // -- Validate ------------------------------------------------------
        crate::stage::set_current_stage(Some(Stage::Validate));
        let t0 = Instant::now();
        let valid = graph
            .validate()
            .map_err(CompileError::from)
            .and_then(|()| self.config.check())
            .and_then(|()| {
                let available = self.cluster.total_fpgas();
                if n >= 1 && n <= available {
                    Ok(())
                } else {
                    Err(CompileError::ClusterTooSmall { needed: n, available })
                }
            })
            .and_then(|()| {
                // A seeded partition must cover the graph and stay inside
                // the flow's devices, or downstream stages would panic on
                // out-of-bounds indexing — per-job errors, not aborts.
                let Some(inter) = &overrides.partition else { return Ok(()) };
                if inter.assignment.len() != graph.num_tasks() {
                    return Err(CompileError::InvalidOverride {
                        detail: format!(
                            "seeded partition assigns {} task(s), graph has {}",
                            inter.assignment.len(),
                            graph.num_tasks()
                        ),
                    });
                }
                match inter.assignment.iter().find(|&&f| f >= n) {
                    Some(&f) => Err(CompileError::InvalidOverride {
                        detail: format!("seeded partition uses FPGA {f}, flow spans {n}"),
                    }),
                    None => Ok(()),
                }
            });
        ctx.record(Stage::Validate, t0.elapsed());
        if let Err(e) = valid {
            return ctx.failed(Stage::Validate, e);
        }

        // -- Partition: inter-FPGA floorplanning (equations 1-2) -----------
        // The compiler's solver options override both stage configs so one
        // knob controls the whole pipeline.
        crate::stage::set_current_stage(Some(Stage::Partition));
        match overrides.partition {
            Some(inter) => ctx.partition = Some(inter),
            None => {
                let mut pcfg = self.config.partition.clone();
                pcfg.solver = self.config.solver.clone();
                if n == 1 {
                    pcfg.threshold = self.config.single_fpga_threshold;
                }
                let t0 = Instant::now();
                let result = partition(graph, &self.cluster, n, &pcfg);
                ctx.record(Stage::Partition, t0.elapsed());
                match result {
                    Ok(inter) => ctx.partition = Some(inter),
                    Err(e) => return ctx.failed(Stage::Partition, e),
                }
            }
        }

        // -- CommInsert: communication-logic insertion ---------------------
        crate::stage::set_current_stage(Some(Stage::CommInsert));
        let t0 = Instant::now();
        let inter_assignment = &ctx.partition.as_ref().expect("partition artifact set").assignment;
        ctx.comm = Some(insert_comm(graph, inter_assignment, &device, n));
        ctx.record(Stage::CommInsert, t0.elapsed());

        // -- Floorplan: intra-FPGA floorplanning (equation 4) + HBM binding.
        // The networking IP's footprint is reserved out of each QSFP corner
        // slot so the floorplanner sees the true remaining capacity. The
        // Vitis flow gets first-fit placement instead — it has no
        // dataflow-aware floorplanning.
        crate::stage::set_current_stage(Some(Stage::Floorplan));
        let mut fcfg = self.config.floorplan.clone();
        fcfg.solver = self.config.solver.clone();
        let t0 = Instant::now();
        let result = {
            let comm = ctx.comm.as_ref().expect("comm artifact set");
            let plan = if naive { floorplan_naive } else { floorplan };
            plan(&comm.graph, &comm.assignment, n, &device, &comm.overhead_per_fpga, &fcfg)
        };
        let fp = match result {
            Ok(fp) => fp,
            Err(e) => {
                ctx.record(Stage::Floorplan, t0.elapsed());
                return ctx.failed(Stage::Floorplan, e);
            }
        };
        {
            let comm = ctx.comm.as_mut().expect("comm artifact set");
            ctx.channels_used = Some(rebind_hbm_channels(
                &mut comm.graph,
                &comm.assignment,
                &fp.slot_of_task,
                n,
                &device,
            ));
        }
        ctx.floorplan = Some(fp);
        ctx.record(Stage::Floorplan, t0.elapsed());

        // -- Pipeline: interconnect pipelining + cut-set balancing ---------
        crate::stage::set_current_stage(Some(Stage::Pipeline));
        let t0 = Instant::now();
        {
            let comm = ctx.comm.as_ref().expect("comm artifact set");
            let fp = ctx.floorplan.as_ref().expect("floorplan artifact set");
            ctx.pipeline = Some(if pipelined {
                pipeline(&comm.graph, &comm.assignment, &fp.slot_of_task)
            } else {
                PipelineReport {
                    crossing_regs: vec![0; comm.graph.num_fifos()],
                    balancing_regs: vec![0; comm.graph.num_fifos()],
                    total_register_bits: 0,
                    balanced: false,
                }
            });
        }
        ctx.record(Stage::Pipeline, t0.elapsed());

        // -- Timing: virtual place-and-route -------------------------------
        crate::stage::set_current_stage(Some(Stage::Timing));
        let t0 = Instant::now();
        let result = {
            let comm = ctx.comm.as_ref().expect("comm artifact set");
            let fp = ctx.floorplan.as_ref().expect("floorplan artifact set");
            analyze(
                &comm.graph,
                &comm.assignment,
                &fp.slot_of_task,
                n,
                &device,
                pipelined,
                &comm.overhead_per_fpga,
                &self.config.timing,
            )
        };
        ctx.record(Stage::Timing, t0.elapsed());
        match result {
            Ok(timing) => ctx.timing = Some(timing),
            Err(e) => return ctx.failed(Stage::Timing, e),
        }

        // -- Utilization: whole-card accounting (user + net IP + shell) ----
        crate::stage::set_current_stage(Some(Stage::Utilization));
        let t0 = Instant::now();
        {
            let comm = ctx.comm.as_ref().expect("comm artifact set");
            let mut used = vec![Resources::ZERO; n];
            for (id, t) in comm.graph.tasks() {
                used[comm.assignment[id.index()]] += t.resources;
            }
            ctx.utilization = Some(
                (0..n)
                    .map(|f| {
                        (used[f] + comm.overhead_per_fpga[f] + device.platform_overhead())
                            .utilization(&device.resources())
                    })
                    .collect(),
            );
        }
        ctx.record(Stage::Utilization, t0.elapsed());
        crate::stage::set_current_stage(None);
        ctx
    }
}

/// Convenience: validates that a design fits a single device at the Vitis
/// threshold — the paper's "can this be routed on one FPGA at all" check.
pub fn fits_single_fpga(graph: &TaskGraph, cluster: &Cluster, threshold: f64) -> bool {
    graph.total_resources().fits_within(&usable_capacity(cluster, 1), threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapacs_fpga::{Device, Resources};
    use tapacs_graph::{Fifo, Task};
    use tapacs_net::Topology;

    /// A pipeline with an HBM source/sink and a few PEs, sized so 1 FPGA
    /// works but is mildly congested.
    fn demo_graph(pe_count: usize, pe_res: Resources) -> TaskGraph {
        let mut g = TaskGraph::new("demo");
        let rd = g.add_task(
            Task::hbm_read("rd", Resources::new(30_000, 60_000, 60, 0, 20), 0, 512, 65_536)
                .with_total_blocks(64),
        );
        let mut prev = rd;
        for i in 0..pe_count {
            let pe = g.add_task(
                Task::compute(format!("pe{i}"), pe_res)
                    .with_cycles_per_block(1_000)
                    .with_total_blocks(64),
            );
            g.add_fifo(Fifo::new(format!("f{i}"), prev, pe, 512).with_block_bytes(65_536));
            prev = pe;
        }
        let wr = g.add_task(
            Task::hbm_write("wr", Resources::new(30_000, 60_000, 60, 0, 20), 1, 512, 65_536)
                .with_total_blocks(64),
        );
        g.add_fifo(Fifo::new("out", prev, wr, 512).with_block_bytes(65_536));
        g
    }

    fn cluster4() -> Cluster {
        Cluster::single_node(Device::u55c(), 4, Topology::Ring)
    }

    #[test]
    fn all_three_flows_compile() {
        let g = demo_graph(6, Resources::new(40_000, 80_000, 100, 200, 10));
        let c = Compiler::new(cluster4());
        for flow in [Flow::VitisHls, Flow::TapaSingle, Flow::TapaCs { n_fpgas: 2 }] {
            let d = c.compile(&g, flow).unwrap_or_else(|e| panic!("{flow:?}: {e}"));
            assert_eq!(d.n_fpgas(), flow.n_fpgas());
            assert!(d.design_freq_mhz() > 0.0);
        }
    }

    #[test]
    fn frequency_ordering_vitis_tapa_tapacs() {
        // The headline frequency claim: F1-V ≤ F1-T ≤ TAPA-CS.
        let pe = Resources::new(60_000, 120_000, 120, 400, 30);
        let g = demo_graph(8, pe);
        let c = Compiler::new(cluster4());
        let vitis = c.compile(&g, Flow::VitisHls).unwrap();
        let tapa = c.compile(&g, Flow::TapaSingle).unwrap();
        let tapacs = c.compile(&g, Flow::TapaCs { n_fpgas: 2 }).unwrap();
        assert!(
            vitis.design_freq_mhz() <= tapa.design_freq_mhz() + 1e-9,
            "Vitis {} vs TAPA {}",
            vitis.design_freq_mhz(),
            tapa.design_freq_mhz()
        );
        assert!(
            tapa.design_freq_mhz() <= tapacs.design_freq_mhz() + 1e-9,
            "TAPA {} vs TAPA-CS {}",
            tapa.design_freq_mhz(),
            tapacs.design_freq_mhz()
        );
    }

    #[test]
    fn multi_fpga_design_simulates_end_to_end() {
        let g = demo_graph(6, Resources::new(40_000, 80_000, 100, 200, 10));
        let cl = cluster4();
        let c = Compiler::new(cl.clone());
        let d = c.compile(&g, Flow::TapaCs { n_fpgas: 2 }).unwrap();
        let rep = d.simulate(&cl).unwrap();
        assert!(rep.makespan_s > 0.0);
        // The pipeline was cut somewhere → network traffic exists.
        assert!(rep.inter_fpga_bytes > 0);
    }

    #[test]
    fn vitis_flow_inserts_no_registers() {
        let g = demo_graph(4, Resources::new(20_000, 40_000, 50, 100, 5));
        let c = Compiler::new(cluster4());
        let d = c.compile(&g, Flow::VitisHls).unwrap();
        assert_eq!(d.pipeline.total_register_bits, 0);
        let t = c.compile(&g, Flow::TapaSingle).unwrap();
        assert!(t.pipeline.total_register_bits > 0);
    }

    #[test]
    fn oversized_single_fpga_rejected_but_two_fpgas_accept() {
        // ~1.3 devices worth of logic.
        let pe = Resources::new(80_000, 160_000, 100, 450, 50);
        let g = demo_graph(14, pe);
        let c = Compiler::new(cluster4());
        assert!(c.compile(&g, Flow::VitisHls).is_err());
        assert!(c.compile(&g, Flow::TapaCs { n_fpgas: 2 }).is_ok());
    }

    #[test]
    fn utilization_includes_platform_and_network() {
        let g = demo_graph(4, Resources::new(20_000, 40_000, 50, 100, 5));
        let c = Compiler::new(cluster4());
        let d = c.compile(&g, Flow::TapaCs { n_fpgas: 2 }).unwrap();
        // Even an FPGA with few tasks shows the shell + AlveoLink floor.
        for u in &d.utilization {
            assert!(u.lut > 0.05, "platform + net IP must show: {u:?}");
        }
        assert!(d.ports_used.iter().any(|&p| p > 0));
    }

    #[test]
    fn channels_rebound_per_fpga() {
        let g = demo_graph(4, Resources::new(20_000, 40_000, 50, 100, 5));
        let c = Compiler::new(cluster4());
        let d = c.compile(&g, Flow::TapaCs { n_fpgas: 2 }).unwrap();
        let total: usize = d.channels_used.iter().sum();
        assert_eq!(total, 2, "one reader + one writer bound somewhere");
    }

    #[test]
    fn flow_labels() {
        assert_eq!(Flow::VitisHls.label(), "F1-V");
        assert_eq!(Flow::TapaSingle.label(), "F1-T");
        assert_eq!(Flow::TapaCs { n_fpgas: 3 }.label(), "F3");
    }
}
