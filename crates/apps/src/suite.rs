//! The evaluation matrix (§5): builds each benchmark at the paper's
//! configurations, runs the full compile pipeline for every flow and
//! simulates the result — the engine behind Table 3 and Figures 10-17.
//!
//! Sweeps compile through [`run_flows_batch`]: every (graph, flow) point
//! of a table or figure goes onto one shared
//! [`BatchCompiler`] work queue, so the whole
//! matrix shares the solve cache and fills the machine's cores instead of
//! compiling point by point.

use serde::{Deserialize, Serialize};
use tapacs_core::{
    BatchCompiler, CompileError, CompileJob, CompiledDesign, Compiler, CompilerConfig, DseConfig,
    Flow,
};
use tapacs_fpga::Device;
use tapacs_graph::TaskGraph;
use tapacs_net::{Cluster, Topology};

use crate::data::NetworkSpec;
use crate::{cnn, knn, pagerank, stencil};

/// One benchmark family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Benchmark {
    /// Rodinia Dilate stencil.
    Stencil,
    /// Edge-centric PageRank.
    PageRank,
    /// CHIP-KNN.
    Knn,
    /// AutoSA systolic CNN.
    Cnn,
}

impl Benchmark {
    /// All four, in the paper's order.
    pub const ALL: [Benchmark; 4] =
        [Benchmark::Stencil, Benchmark::PageRank, Benchmark::Knn, Benchmark::Cnn];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Stencil => "Stencil",
            Benchmark::PageRank => "PageRank",
            Benchmark::Knn => "KNN",
            Benchmark::Cnn => "CNN",
        }
    }
}

/// Outcome of compiling + simulating one flow of one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowRun {
    /// The flow (`F1-V`, `F1-T`, `F2`…).
    pub flow: Flow,
    /// Achieved design frequency (slowest FPGA), MHz.
    pub freq_mhz: f64,
    /// Simulated end-to-end latency, seconds.
    pub latency_s: f64,
    /// Intra-node inter-FPGA traffic, bytes.
    pub inter_fpga_bytes: u64,
    /// Cross-node traffic, bytes.
    pub inter_node_bytes: u64,
    /// Inter-FPGA floorplanning runtime (`L1`), seconds.
    pub l1_s: f64,
    /// Intra-FPGA floorplanning runtime (`L2`), seconds.
    pub l2_s: f64,
}

impl FlowRun {
    /// Speed-up relative to a baseline latency.
    pub fn speedup_over(&self, baseline: &FlowRun) -> f64 {
        baseline.latency_s / self.latency_s
    }
}

/// A cluster shaped like the paper's testbed node(s): rings of four U55C
/// cards, two nodes when more than four FPGAs are requested.
pub fn paper_cluster(n_fpgas: usize) -> Cluster {
    if n_fpgas <= 4 {
        Cluster::single_node(Device::u55c(), n_fpgas.max(1), Topology::Ring)
    } else {
        Cluster::with_nodes(Device::u55c(), vec![4, n_fpgas - 4], Topology::Ring)
    }
}

/// Compiler configuration tuned for suite runs (bounded ILP budgets keep
/// the full matrix tractable; the §5.6 overhead study raises them).
pub fn suite_config() -> CompilerConfig {
    let mut cfg = CompilerConfig::default();
    cfg.partition.time_limit_s = 1.0;
    cfg.floorplan.time_limit_s = 1.0;
    cfg
}

/// A [`Compiler`] bound to `cluster` with [`suite_config`].
pub fn suite_compiler(cluster: Cluster) -> Compiler {
    Compiler::with_config(cluster, suite_config())
}

/// The standard design-space-exploration grid for a benchmark — what
/// `reproduce dse` sweeps. One fixed design (the benchmark's 2-FPGA paper
/// build, so every cluster shape compiles the *same* graph) explored over
/// cluster shapes × partition thresholds × slot ceilings; `smoke` shrinks
/// the grid and the design to the CI size.
///
/// The ILP budgets are generous (30 s per bisection level, like
/// `reproduce batch`) because the sweep asserts bit-identical frontiers
/// across runs, and a solve cut off by its deadline is machine-speed
/// dependent. Release-build points finish in milliseconds regardless.
pub fn dse_grid(bench: Benchmark, smoke: bool) -> DseConfig {
    let graph = match bench {
        Benchmark::Stencil => {
            stencil::build(&stencil::StencilConfig::paper(if smoke { 64 } else { 256 }, 2))
        }
        other => build_for(other, Flow::TapaCs { n_fpgas: 2 }, default_param(other)),
    };
    let mut config = DseConfig::new(format!("{}-dse", bench.name()), graph, paper_cluster(4));
    let mut base = suite_config();
    base.partition.time_limit_s = 30.0;
    base.floorplan.time_limit_s = 30.0;
    config.base = base;
    if smoke {
        config.cluster_shapes = vec![1, 2];
        config.partition_thresholds = vec![0.7, 0.85];
        config.slot_thresholds = vec![0.9];
    } else {
        config.cluster_shapes = vec![1, 2, 3, 4];
        config.partition_thresholds = vec![0.6, 0.7, 0.8];
        config.slot_thresholds = vec![0.8, 0.9];
    }
    config
}

/// Named grids for the adaptive successive-halving explorer (`reproduce
/// dse-search`), selected by `--grid <spec>`. A name always rebuilds the
/// identical grid, so two runs of one name are bit-comparable.
///
/// * `stencil-smoke` / `stencil-full`: the [`dse_grid`] CI grids (4 and
///   24 points) — small enough that the ladder must reproduce the
///   exhaustive frontier signature bit-identically.
/// * `stencil-10k`: a generated 10 000-point grid (4 cluster shapes ×
///   50 partition thresholds × 50 slot ceilings at 0.01 steps, distinct
///   at the 3-decimal label precision) over the full-size stencil — the
///   scale where truncated rungs beat exhaustive wall-clock.
pub fn dse_search_grid(spec: &str) -> Option<DseConfig> {
    match spec {
        "stencil-smoke" => Some(dse_grid(Benchmark::Stencil, true)),
        "stencil-full" => Some(dse_grid(Benchmark::Stencil, false)),
        "stencil-10k" => {
            let mut config = dse_grid(Benchmark::Stencil, false);
            config.name = "stencil-10k".to_string();
            config.cluster_shapes = vec![1, 2, 3, 4];
            config.partition_thresholds = (0..50).map(|i| 0.50 + f64::from(i) * 0.01).collect();
            config.slot_thresholds = (0..50).map(|i| 0.50 + f64::from(i) * 0.01).collect();
            // The tight-threshold band (T near 0.50) is pathological on
            // purpose: deep, often near-infeasible branch-and-bound that
            // burns seconds to minutes per point at the full-effort 30 s
            // per-level limits inherited from [`dse_grid`]. That heavy
            // tail is exactly what successive halving exists to dodge —
            // the exhaustive baseline has to pay it, the rung ladder
            // triages it at a 100 ms budget and drops persistent
            // stragglers after bounded strikes.
            Some(config)
        }
        _ => None,
    }
}

/// Simulates a compiled design on its paper cluster and folds the result
/// into a [`FlowRun`].
fn simulate_run(design: CompiledDesign) -> Result<(FlowRun, CompiledDesign), CompileError> {
    let cluster = paper_cluster(design.n_fpgas());
    let sim = design
        .simulate(&cluster)
        .map_err(|e| CompileError::Solver(format!("simulation failed: {e}")))?;
    Ok((
        FlowRun {
            flow: design.flow,
            freq_mhz: design.design_freq_mhz(),
            latency_s: sim.makespan_s,
            inter_fpga_bytes: sim.inter_fpga_bytes,
            inter_node_bytes: sim.inter_node_bytes,
            l1_s: design.partition.runtime.as_secs_f64(),
            l2_s: design.floorplan_runtime.as_secs_f64(),
        },
        design,
    ))
}

/// Compiles and simulates one already-built graph under one flow.
///
/// # Errors
///
/// Propagates compilation errors; simulation deadlocks become
/// [`CompileError::Solver`] with a diagnostic.
pub fn run_flow(graph: &TaskGraph, flow: Flow) -> Result<(FlowRun, CompiledDesign), CompileError> {
    let cluster = paper_cluster(flow.n_fpgas());
    let compiler = suite_compiler(cluster);
    simulate_run(compiler.compile(graph, flow)?)
}

/// Compiles every `(graph, flow)` sweep point as **one shared batch** —
/// the sharded work queue fills the cores and cross-design solve-cache
/// hits are shared across the whole sweep — then simulates each design.
/// Results come back in input order.
///
/// Jobs run under [`suite_config`]'s 1-second per-level ILP budgets (the
/// knob that keeps the full `reproduce all` matrix tractable, same as the
/// sequential loops this replaces). A solve cut off by that budget is
/// machine-speed dependent, and concurrent jobs contend for cores, so
/// sweep numbers on heavily loaded or slow hosts can wobble for the
/// largest designs — `reproduce batch` raises the budgets instead when it
/// asserts bit-identical results.
///
/// # Errors
///
/// Propagates the *first* failing point's error (matching the sequential
/// loops this replaces); the remaining points still compiled, they are
/// just discarded.
pub fn run_flows_batch(
    points: Vec<(TaskGraph, Flow)>,
) -> Result<Vec<(FlowRun, CompiledDesign)>, CompileError> {
    let jobs: Vec<CompileJob> = points
        .into_iter()
        .map(|(graph, flow)| {
            CompileJob::new(format!("{}/{}", graph.name(), flow.label()), graph, flow)
                .on_cluster(paper_cluster(flow.n_fpgas()))
        })
        .collect();
    let outcome = BatchCompiler::with_config(paper_cluster(1), suite_config()).compile(jobs);
    outcome.results.into_iter().map(|result| simulate_run(result?)).collect()
}

/// Compiles a full `params × flows` grid as one shared batch and returns
/// the runs grouped per parameter (one inner vector per `params` entry,
/// ordered as `flows`). This is the scaffolding shared by the iteration /
/// dimension / dataset sweeps of Figures 10, 14 and 15 and by Table 3.
///
/// # Errors
///
/// Propagates the first compile/simulate failure (see
/// [`run_flows_batch`]).
pub fn run_flow_grid<P: Copy>(
    params: &[P],
    flows: &[Flow],
    build: impl Fn(P, Flow) -> TaskGraph,
) -> Result<Vec<Vec<FlowRun>>, CompileError> {
    let mut points = Vec::with_capacity(params.len() * flows.len());
    for &param in params {
        for &flow in flows {
            points.push((build(param, flow), flow));
        }
    }
    let runs = run_flows_batch(points)?;
    Ok(runs
        .chunks(flows.len())
        .map(|chunk| chunk.iter().map(|(run, _)| run.clone()).collect())
        .collect())
}

/// Builds the right graph for a benchmark/flow pair at the paper's
/// configuration (`param` selects the sweep point: iterations for stencil,
/// dataset index for PageRank, feature dim for KNN, unused for CNN).
pub fn build_for(bench: Benchmark, flow: Flow, param: u64) -> TaskGraph {
    let n = flow.n_fpgas();
    match bench {
        Benchmark::Stencil => stencil::build(&stencil::StencilConfig::paper(param as usize, n)),
        Benchmark::PageRank => {
            let nets = crate::data::snap_networks();
            let net = nets[(param as usize) % nets.len()];
            pagerank::build(&pagerank::PageRankConfig::paper(net, n))
        }
        Benchmark::Knn => knn::build(&knn::KnnConfig::paper(4_000_000, param.max(2) as u32, n)),
        Benchmark::Cnn => cnn::build(&cnn::CnnConfig::paper(n, matches!(flow, Flow::TapaSingle))),
    }
}

/// Default sweep parameter per benchmark (stencil 64 iterations, PageRank
/// dataset 0, KNN D = 8).
pub fn default_param(bench: Benchmark) -> u64 {
    match bench {
        Benchmark::Stencil => 64,
        Benchmark::PageRank => 0,
        Benchmark::Knn => 8,
        Benchmark::Cnn => 0,
    }
}

/// The flows of the paper's evaluation (F1-V baseline first).
pub fn paper_flows(max_fpgas: usize) -> Vec<Flow> {
    let mut flows = vec![Flow::VitisHls, Flow::TapaSingle];
    for n in 2..=max_fpgas {
        flows.push(Flow::TapaCs { n_fpgas: n });
    }
    flows
}

/// One row of Table 3: speed-ups normalized to the Vitis baseline.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Speed-up per flow, ordered as [`paper_flows`] (F1-V = 1.0 first).
    pub speedups: Vec<f64>,
    /// Frequencies per flow (MHz).
    pub freqs_mhz: Vec<f64>,
}

/// Runs one benchmark across all flows at its default sweep point and
/// normalizes to F1-V — one row of Table 3. The flows compile as one
/// shared batch.
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn table3_row(bench: Benchmark, max_fpgas: usize) -> Result<SpeedupRow, CompileError> {
    let rows = table3_rows(&[bench], max_fpgas)?;
    Ok(rows.into_iter().next().expect("one bench in, one row out"))
}

/// Runs several benchmarks across all flows — the *whole* matrix goes onto
/// one shared batch queue (|benches| × |flows| jobs), which is how
/// `reproduce table3` compiles Table 3 as a single sweep.
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn table3_rows(
    benches: &[Benchmark],
    max_fpgas: usize,
) -> Result<Vec<SpeedupRow>, CompileError> {
    let flows = paper_flows(max_fpgas);
    let grid =
        run_flow_grid(benches, &flows, |bench, flow| build_for(bench, flow, default_param(bench)))?;
    Ok(benches
        .iter()
        .zip(grid)
        .map(|(bench, runs)| {
            let base = runs[0].clone();
            SpeedupRow {
                benchmark: bench.name(),
                speedups: runs.iter().map(|r| r.speedup_over(&base)).collect(),
                freqs_mhz: runs.iter().map(|r| r.freq_mhz).collect(),
            }
        })
        .collect())
}

/// Figure 12 data point: PageRank latency for one dataset across flows,
/// compiled as one shared batch.
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn pagerank_dataset_runs(
    net: NetworkSpec,
    max_fpgas: usize,
) -> Result<Vec<FlowRun>, CompileError> {
    let points = paper_flows(max_fpgas)
        .into_iter()
        .map(|flow| (pagerank::build(&pagerank::PageRankConfig::paper(net, flow.n_fpgas())), flow))
        .collect();
    Ok(run_flows_batch(points)?.into_iter().map(|(run, _)| run).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_shapes() {
        assert_eq!(paper_cluster(1).total_fpgas(), 1);
        assert_eq!(paper_cluster(4).num_nodes(), 1);
        let eight = paper_cluster(8);
        assert_eq!(eight.num_nodes(), 2);
        assert_eq!(eight.total_fpgas(), 8);
    }

    #[test]
    fn flow_list() {
        let flows = paper_flows(4);
        assert_eq!(flows.len(), 5);
        assert_eq!(flows[0], Flow::VitisHls);
        assert_eq!(flows[4], Flow::TapaCs { n_fpgas: 4 });
    }

    #[test]
    fn builders_produce_valid_graphs_for_all_flows() {
        for bench in Benchmark::ALL {
            for flow in paper_flows(3) {
                let g = build_for(bench, flow, default_param(bench));
                g.validate().unwrap_or_else(|e| panic!("{bench:?}/{flow:?}: {e}"));
                assert!(g.num_tasks() > 5);
            }
        }
    }
}
