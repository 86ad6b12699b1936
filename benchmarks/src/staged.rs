//! The traced single-design compile: the same stages
//! `Compiler::compile_staged_with` runs, in the same order, driven from
//! here through each layer's public function so every layer boundary gets a
//! span and its own LP-engine counters.

use std::sync::Arc;

use tapacs_core::comm::insert_comm;
use tapacs_core::floorplan::{floorplan, rebind_hbm_channels};
use tapacs_core::partition::partition;
use tapacs_core::pipeline::pipeline;
use tapacs_core::pnr::analyze;
use tapacs_core::{CompileError, CompiledDesign, CompilerConfig, Flow};
use tapacs_fpga::Resources;
use tapacs_graph::TaskGraph;
use tapacs_ilp::{SolveActivity, SolveStats};
use tapacs_net::Cluster;
use tapacs_sim::Placement;

use crate::trace::{SpanId, Tracer};

/// Spans and counters of one staged compile.
pub struct StagedCompile {
    pub design: CompiledDesign,
    pub compile: SpanId,
    pub partition: SpanId,
    pub comm: SpanId,
    pub floorplan: SpanId,
    pub pipeline: SpanId,
    pub pnr: SpanId,
    /// LP-engine activity inside the partition stage.
    pub partition_ilp: SolveStats,
    /// LP-engine activity inside the floorplan stage.
    pub floorplan_ilp: SolveStats,
}

/// Runs `f` under a fresh scoped activity handle and returns its counters.
fn counted<R>(f: impl FnOnce() -> R) -> (R, SolveStats) {
    let handle = Arc::new(SolveActivity::default());
    let out = SolveActivity::scoped(&handle, f);
    (out, handle.snapshot())
}

/// Compiles `graph` for a multi-FPGA TAPA-CS `flow` stage by stage under
/// `parent`.
///
/// # Errors
///
/// The first stage error, as `Compiler::compile` would return it.
pub fn compile(
    tracer: &mut Tracer,
    parent: SpanId,
    graph: &TaskGraph,
    cluster: &Cluster,
    flow: Flow,
    config: &CompilerConfig,
) -> Result<StagedCompile, CompileError> {
    let n = flow.n_fpgas();
    let device = cluster.device().clone();
    let compiled = tracer.span("compile", Some(parent), |tracer, compile| {
        let (valid, _) = tracer.span("graph.validate", Some(compile), |_, _| graph.validate());
        valid?;

        let mut pcfg = config.partition.clone();
        pcfg.solver = config.solver.clone();
        if n == 1 {
            pcfg.threshold = config.single_fpga_threshold;
        }
        let ((inter, partition_ilp), partition_span) =
            tracer.span("partition", Some(compile), |_, _| {
                counted(|| partition(graph, cluster, n, &pcfg))
            });
        let inter = inter?;

        let (mut comm, comm_span) = tracer
            .span("comm", Some(compile), |_, _| insert_comm(graph, &inter.assignment, &device, n));

        let mut fcfg = config.floorplan.clone();
        fcfg.solver = config.solver.clone();
        let ((planned, floorplan_ilp), floorplan_span) =
            tracer.span("floorplan", Some(compile), |tracer, floorplan_span| {
                let (fp, ilp) = counted(|| {
                    floorplan(
                        &comm.graph,
                        &comm.assignment,
                        n,
                        &device,
                        &comm.overhead_per_fpga,
                        &fcfg,
                    )
                });
                let fp = match fp {
                    Ok(fp) => fp,
                    Err(e) => return (Err(e), ilp),
                };
                let (channels, _) =
                    tracer.span("floorplan.hbm_rebind", Some(floorplan_span), |_, _| {
                        rebind_hbm_channels(
                            &mut comm.graph,
                            &comm.assignment,
                            &fp.slot_of_task,
                            n,
                            &device,
                        )
                    });
                (Ok((fp, channels)), ilp)
            });
        let (fp, channels_used) = planned?;

        let pipelined = flow.pipelined();
        let (pipeline_report, pipeline_span) = tracer.span("pipeline", Some(compile), |_, _| {
            assert!(pipelined, "the benchmark compiles pipelined flows only");
            pipeline(&comm.graph, &comm.assignment, &fp.slot_of_task)
        });

        let (timing, pnr) = tracer.span("pnr", Some(compile), |_, _| {
            analyze(
                &comm.graph,
                &comm.assignment,
                &fp.slot_of_task,
                n,
                &device,
                pipelined,
                &comm.overhead_per_fpga,
                &config.timing,
            )
        });
        let timing = timing?;

        let (utilization, _) = tracer.span("utilization", Some(compile), |_, _| {
            let mut used = vec![Resources::ZERO; n];
            for (id, t) in comm.graph.tasks() {
                used[comm.assignment[id.index()]] += t.resources;
            }
            (0..n)
                .map(|f| {
                    (used[f] + comm.overhead_per_fpga[f] + device.platform_overhead())
                        .utilization(&device.resources())
                })
                .collect::<Vec<_>>()
        });

        let design = CompiledDesign {
            flow,
            placement: Placement {
                fpga_of_task: comm.assignment,
                freq_mhz: timing.freq_mhz.clone(),
            },
            graph: comm.graph,
            slot_of_task: fp.slot_of_task,
            degraded: inter.degraded || fp.degraded,
            partition: inter,
            floorplan_runtime: fp.runtime,
            floorplan_stats: fp.solve_stats,
            pipeline: pipeline_report,
            timing,
            utilization,
            channels_used,
            ports_used: comm.ports_used,
            stage_timings: Vec::new(),
        };
        Ok(StagedCompile {
            design,
            compile,
            partition: partition_span,
            comm: comm_span,
            floorplan: floorplan_span,
            pipeline: pipeline_span,
            pnr,
            partition_ilp,
            floorplan_ilp,
        })
    });
    compiled.0
}
