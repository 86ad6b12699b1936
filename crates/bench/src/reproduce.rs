//! One function per table/figure of the paper. Each returns the rendered
//! text so the `reproduce` binary and the tests can share them. README's
//! "Reproduce the paper's tables and figures" sets the output against the
//! paper's numbers.

use std::fmt::Write as _;

use tapacs_apps::suite::{self, paper_flows, run_flow, run_flows_batch, table3_rows, Benchmark};
use tapacs_apps::{cnn, data, knn, pagerank, stencil};
use tapacs_core::report::{prior_work, SolverActivityReport, UtilizationReport};
use tapacs_core::Flow;
use tapacs_fpga::Device;
use tapacs_net::{alveolink, protocol, AlveoLink};

/// One row of [`EXPERIMENTS`]: `(name, static, renderer)`.
type Experiment = (&'static str, bool, fn() -> Result<String, Box<dyn std::error::Error>>);

/// Every experiment `reproduce` runs without flags. The binary's `list`,
/// its dispatch and `all` walk this table, and [`quick`] renders the static
/// rows (no compile, sub-second), so a name exists in exactly one place.
/// Rows are in `all`'s print order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", true, || Ok(table1())),
    ("table2", true, || Ok(table2())),
    ("table4", true, || Ok(table4())),
    ("table5", true, || Ok(table5())),
    ("table6", true, || Ok(table6())),
    ("table7", true, || Ok(table7())),
    ("table8", true, || Ok(table8())),
    ("table9", true, || Ok(table9())),
    ("table10", true, || Ok(table10())),
    ("fig8", true, || Ok(fig8())),
    ("alveolink_overhead", true, || Ok(alveolink_overhead())),
    ("packet_example", true, || Ok(packet_example())),
    ("table3", false, table3),
    ("freq", false, freq_summary),
    ("fig10", false, fig10),
    ("fig11", false, || utilization_fig(Benchmark::Stencil)),
    ("fig12", false, fig12),
    ("fig13", false, || utilization_fig(Benchmark::PageRank)),
    ("fig14", false, fig14),
    ("fig15", false, fig15),
    ("fig16", false, || utilization_fig(Benchmark::Knn)),
    ("fig17", false, fig17),
    ("overhead", false, overhead),
    ("ablation", false, ablation),
    ("multinode", false, multinode),
    ("solvers", false, solvers),
];

/// ILP time limit (seconds) of the experiments whose verdict compares
/// counters or designs between runs (`solvers`, `batch`): such a
/// comparison only means something when no solve is cut off by its
/// wall-clock deadline, so the limit is one no solve of theirs reaches
/// (the benchmark harness's; the cold-engine knn/F4 compile of `solvers`
/// alone takes ≈50 s optimised).
const NON_BINDING_LIMIT_S: f64 = 600.0;

/// [`suite::suite_config`] under [`NON_BINDING_LIMIT_S`].
fn non_binding_config() -> tapacs_core::CompilerConfig {
    let mut config = suite::suite_config();
    config.partition.time_limit_s = NON_BINDING_LIMIT_S;
    config.floorplan.time_limit_s = NON_BINDING_LIMIT_S;
    config
}

/// What a comparison experiment returns *instead of* its table when the
/// compile `what` degraded or ran past one ILP's limit: a search that was
/// cut off has no counters or design worth comparing.
fn ensure_limit_did_not_bind(
    what: &str,
    degraded: bool,
    wall: std::time::Duration,
) -> Result<(), Box<dyn std::error::Error>> {
    if degraded || wall.as_secs_f64() >= NON_BINDING_LIMIT_S {
        return Err(format!(
            "{what}: degraded = {degraded} after {:.1} s against a {NON_BINDING_LIMIT_S} s ILP \
             limit — a search that was cut off cannot be compared",
            wall.as_secs_f64()
        )
        .into());
    }
    Ok(())
}

fn check(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// Table 1: comparison with prior scale-out approaches.
pub fn table1() -> String {
    let mut s = String::from(
        "Table 1: method comparison\nmethod                          HLS  Eth  Floorplan  Pipelining  Topo  AutoPart  HW   General  Fmax\n",
    );
    for r in prior_work() {
        let _ = writeln!(
            s,
            "{:<31} {:<4} {:<4} {:<10} {:<11} {:<5} {:<9} {:<4} {:<8} {}",
            r.method,
            check(r.hls),
            check(r.ethernet),
            check(r.floorplanning),
            check(r.interconnect_pipelining),
            check(r.topology_aware),
            check(r.automatic_partitioning),
            check(r.hardware_execution),
            check(r.generalizable),
            r.fmax_mhz.map(|f| format!("{f:.0} MHz")).unwrap_or("-".into()),
        );
    }
    s
}

/// Table 2: resource availability on the Alveo U55C.
pub fn table2() -> String {
    let d = Device::u55c();
    let r = d.resources();
    format!(
        "Table 2: {} resources\nLUT   {}\nFF    {}\nBRAM  {}\nDSP   {}\nURAM  {}\n",
        d.name(),
        r.lut,
        r.ff,
        r.bram,
        r.dsp,
        r.uram
    )
}

/// Table 3: average speed-up per benchmark and flow (the headline table).
/// All 4 benchmarks × 5 flows compile as one shared batch.
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn table3() -> Result<String, Box<dyn std::error::Error>> {
    let mut s = String::from(
        "Table 3: speed-up normalized to F1-V\nBenchmark  F1-V   F1-T   F2     F3     F4\n",
    );
    for row in table3_rows(&Benchmark::ALL, 4)? {
        let _ = write!(s, "{:<10}", row.benchmark);
        for v in &row.speedups {
            let _ = write!(s, " {v:<6.2}");
        }
        s.push('\n');
    }
    Ok(s)
}

/// Table 4: stencil compute intensity and inter-FPGA volume vs iterations.
pub fn table4() -> String {
    let mut s = String::from(
        "Table 4: Stencil compute intensity (4096x4096)\nIters  Ops/Byte  Volume (MB)\n",
    );
    for iters in [64, 128, 256, 512] {
        let st = stencil::workload_stats(iters);
        let _ = writeln!(s, "{:<6} {:<9.0} {:.2}", st.iterations, st.ops_per_byte, st.volume_mb);
    }
    s
}

/// Table 5: PageRank networks.
pub fn table5() -> String {
    let mut s = String::from(
        "Table 5: networks used to test PageRank\nNetwork             Nodes      Edges\n",
    );
    for n in data::snap_networks() {
        let _ = writeln!(s, "{:<19} {:<10} {}", n.name, n.nodes, n.edges);
    }
    s
}

/// Table 6: KNN parameter space.
pub fn table6() -> String {
    let (ns, ds, k) = knn::KnnConfig::table6_grid();
    format!(
        "Table 6: KNN parameters\nN: {:?}\nD: {:?}\nK: {}\n",
        ns.iter().map(|n| format!("{}M", n / 1_000_000)).collect::<Vec<_>>(),
        ds,
        k
    )
}

/// Table 7: CNN inter-FPGA transfer volumes over grid sizes.
pub fn table7() -> String {
    let mut s = String::from("Table 7: CNN inter-FPGA volumes\nGrid    Volume (MB)\n");
    for cols in [4, 8, 12, 16, 20] {
        let cfg = cnn::CnnConfig { rows: 13, cols, n_fpgas: 1 };
        let _ = writeln!(s, "13x{:<5} {:.2}", cols, cfg.transfer_volume_mb());
    }
    s
}

/// Table 8: CNN resource utilization over grid sizes.
pub fn table8() -> String {
    let device = Device::u55c();
    let cap = device.resources();
    let mut s = String::from("Table 8: CNN resource utilization of grid sizes (% of one U55C)\nGrid    LUT%   FF%    BRAM%  DSP%   URAM%\n");
    for cols in [4, 8, 12, 16, 20] {
        let total = cnn::grid_resources(&cnn::CnnConfig { rows: 13, cols, n_fpgas: 1 });
        let u = total.utilization(&cap);
        let _ = writeln!(
            s,
            "13x{:<5} {:<6.1} {:<6.1} {:<6.1} {:<6.1} {:<6.1}",
            cols,
            u.lut * 100.0,
            u.ff * 100.0,
            u.bram * 100.0,
            u.dsp * 100.0,
            u.uram * 100.0
        );
    }
    s
}

/// Table 9: hierarchy of data transfer bandwidths.
pub fn table9() -> String {
    let mut s = String::from("Table 9: bandwidth hierarchy\nTransfer            Bandwidth\n");
    for t in protocol::bandwidth_hierarchy() {
        let _ = writeln!(s, "{:<19} {}", t.tier, t.paper_figure);
    }
    s
}

/// Table 10: prior communication stacks.
pub fn table10() -> String {
    let mut s = String::from(
        "Table 10: communication stacks\nProject     Orchestration  Overhead%  GBps\n",
    );
    for r in protocol::prior_stacks() {
        let _ = writeln!(
            s,
            "{:<11} {:<14} {:<10} {:.0}",
            r.name,
            format!("{:?}", r.orchestration),
            r.resource_overhead_pct.map(|o| format!("{o}")).unwrap_or("-".into()),
            r.performance_gbps
        );
    }
    s
}

/// Figure 8: AlveoLink throughput vs transfer size.
pub fn fig8() -> String {
    let link = AlveoLink::default();
    let mut s =
        String::from("Figure 8: AlveoLink throughput vs transfer size\nBytes        Gbps\n");
    for (b, gbps) in link.throughput_curve(10) {
        let _ = writeln!(s, "{:<12} {:.1}", b, gbps);
    }
    s
}

/// Figure 10: stencil latency across iteration counts and flows. The
/// whole 4 × 5 sweep compiles as one shared batch (the iteration count
/// does not change module resources, so the sweep's bisection ILPs hit
/// the shared solve cache across iteration points).
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn fig10() -> Result<String, Box<dyn std::error::Error>> {
    let mut s = String::from(
        "Figure 10: Stencil latency (s)\nIters  F1-V     F1-T     F2       F3       F4\n",
    );
    let iter_counts = [64u64, 128, 256, 512];
    let grid = suite::run_flow_grid(&iter_counts, &paper_flows(4), |iters, flow| {
        suite::build_for(Benchmark::Stencil, flow, iters)
    })?;
    for (&iters, runs) in iter_counts.iter().zip(grid) {
        let _ = write!(s, "{iters:<6}");
        for run in runs {
            let _ = write!(s, " {:<8.3}", run.latency_s);
        }
        s.push('\n');
    }
    Ok(s)
}

/// Figures 11/13/16: per-FPGA resource utilization of the F1-T and F4
/// designs for a benchmark.
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn utilization_fig(bench: Benchmark) -> Result<String, Box<dyn std::error::Error>> {
    let channels = Device::u55c().hbm().channels();
    let points = [Flow::TapaSingle, Flow::TapaCs { n_fpgas: 4 }]
        .into_iter()
        .map(|flow| (suite::build_for(bench, flow, suite::default_param(bench)), flow))
        .collect();
    let mut rows = Vec::new();
    for (_, design) in run_flows_batch(points)? {
        rows.extend(UtilizationReport::rows(&design, channels));
    }
    Ok(format!(
        "{} resource utilization (F1-T vs F4-1..4)\n{}",
        bench.name(),
        UtilizationReport::render_table(&rows)
    ))
}

/// Figure 12: PageRank latency over the five datasets.
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn fig12() -> Result<String, Box<dyn std::error::Error>> {
    let mut s = String::from("Figure 12: PageRank latency (s)\nDataset             F1-V     F1-T     F2       F3       F4     (F4 speed-up)\n");
    for net in data::snap_networks() {
        let runs = suite::pagerank_dataset_runs(net, 4)?;
        let _ = write!(s, "{:<19}", net.name);
        for r in &runs {
            let _ = write!(s, " {:<8.3}", r.latency_s);
        }
        let _ = writeln!(s, " ({:.2}x)", runs[0].latency_s / runs.last().unwrap().latency_s);
    }
    Ok(s)
}

/// Figure 14: KNN speed-up across feature dimensions (K=10, N=4M).
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn fig14() -> Result<String, Box<dyn std::error::Error>> {
    let mut s =
        String::from("Figure 14: KNN speed-up vs D (N=4M, K=10)\nD     F1-T   F2     F3     F4\n");
    let dims = [2u32, 8, 32, 128];
    let grid = suite::run_flow_grid(&dims, &paper_flows(4), |d, flow| {
        knn::build(&knn::KnnConfig::paper(4_000_000, d, flow.n_fpgas()))
    })?;
    for (&d, runs) in dims.iter().zip(grid) {
        let _ = write!(s, "{d:<5}");
        let base = runs[0].latency_s;
        for run in &runs[1..] {
            let _ = write!(s, " {:<6.2}", base / run.latency_s);
        }
        s.push('\n');
    }
    Ok(s)
}

/// Figure 15: KNN speed-up across dataset sizes (K=10, D=2).
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn fig15() -> Result<String, Box<dyn std::error::Error>> {
    let mut s =
        String::from("Figure 15: KNN speed-up vs N (D=2, K=10)\nN     F1-T   F2     F3     F4\n");
    let sizes = [1u64, 2, 4, 8];
    let grid = suite::run_flow_grid(&sizes, &paper_flows(4), |n, flow| {
        knn::build(&knn::KnnConfig::paper(n * 1_000_000, 2, flow.n_fpgas()))
    })?;
    for (&n, runs) in sizes.iter().zip(grid) {
        let _ = write!(s, "{:<5}", format!("{n}M"));
        let base = runs[0].latency_s;
        for run in &runs[1..] {
            let _ = write!(s, " {:<6.2}", base / run.latency_s);
        }
        s.push('\n');
    }
    Ok(s)
}

/// Figure 17: CNN latency across flows/grids.
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn fig17() -> Result<String, Box<dyn std::error::Error>> {
    let mut s = String::from("Figure 17: CNN latency (ms)\nFlow   Grid    Latency  Speed-up\n");
    let flows = paper_flows(4);
    let configs: Vec<cnn::CnnConfig> = flows
        .iter()
        .map(|flow| cnn::CnnConfig::paper(flow.n_fpgas(), matches!(flow, Flow::TapaSingle)))
        .collect();
    let points = configs.iter().zip(&flows).map(|(cfg, &flow)| (cnn::build(cfg), flow)).collect();
    let runs = run_flows_batch(points)?;
    let base = runs[0].0.latency_s;
    for ((run, _), cfg) in runs.iter().zip(&configs) {
        let _ = writeln!(
            s,
            "{:<6} 13x{:<5} {:<8.3} {:.2}x",
            run.flow.label(),
            cfg.cols,
            run.latency_s * 1e3,
            base / run.latency_s
        );
    }
    Ok(s)
}

/// §5.2-§5.5 frequency summary: achieved MHz per benchmark per flow (the
/// same batched matrix as Table 3).
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn freq_summary() -> Result<String, Box<dyn std::error::Error>> {
    let mut s = String::from(
        "Achieved design frequency (MHz)\nBenchmark  F1-V   F1-T   F2     F3     F4\n",
    );
    for row in table3_rows(&Benchmark::ALL, 4)? {
        let _ = write!(s, "{:<10}", row.benchmark);
        for f in &row.freqs_mhz {
            let _ = write!(s, " {f:<6.0}");
        }
        s.push('\n');
    }
    Ok(s)
}

/// §5.6 (1): floorplanning overheads `L1`/`L2` for the smallest (stencil)
/// and largest (CNN) designs.
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn overhead() -> Result<String, Box<dyn std::error::Error>> {
    let mut s = String::from("Floorplanning overhead (s)\nDesign            Modules  L1      L2\n");
    for iters in [64u64, 128, 256] {
        let g = suite::build_for(Benchmark::Stencil, Flow::TapaCs { n_fpgas: 2 }, iters);
        let (run, design) = run_flow(&g, Flow::TapaCs { n_fpgas: 2 })?;
        let _ = writeln!(
            s,
            "stencil i{:<8} {:<8} {:<7.2} {:<7.2}",
            iters,
            design.graph.num_tasks(),
            run.l1_s,
            run.l2_s
        );
    }
    for (cols, flow) in [
        (4, Flow::VitisHls),
        (8, Flow::TapaSingle),
        (12, Flow::TapaCs { n_fpgas: 2 }),
        (20, Flow::TapaCs { n_fpgas: 4 }),
    ] {
        let cfg = cnn::CnnConfig { rows: 13, cols, n_fpgas: flow.n_fpgas() };
        let g = cnn::build(&cfg);
        let (run, design) = run_flow(&g, flow)?;
        let _ = writeln!(
            s,
            "cnn 13x{:<10} {:<8} {:<7.2} {:<7.2}",
            cols,
            design.graph.num_tasks(),
            run.l1_s,
            run.l2_s
        );
    }
    Ok(s)
}

/// §5.6 (2): AlveoLink resource overhead per QSFP28 port.
pub fn alveolink_overhead() -> String {
    let device = Device::u55c();
    let o = AlveoLink::resource_overhead_for(&device, 1);
    let u = o.utilization(&device.resources());
    format!(
        "AlveoLink overhead per QSFP28 port (of one U55C)\nLUT {:.2}%  FF {:.2}%  BRAM {:.2}%  DSP {:.0}%  URAM {:.0}%\n",
        u.lut * 100.0,
        u.ff * 100.0,
        u.bram * 100.0,
        u.dsp * 100.0,
        u.uram * 100.0
    )
}

/// §5.7: scaling beyond one node — 8 FPGAs across two hosts.
///
/// # Errors
///
/// Propagates the first compile/simulate failure.
pub fn multinode() -> Result<String, Box<dyn std::error::Error>> {
    let mut s = String::from("Scaling to 8 FPGAs over two nodes (10 Gbps host link)\n");
    // Stencil 512 iterations (sequential, transfer-heavy → slower than 1 FPGA).
    let g1 = stencil::build(&stencil::StencilConfig::paper(512, 1));
    let (v, _) = run_flow(&g1, Flow::VitisHls)?;
    let g8 = stencil::build(&stencil::StencilConfig::paper(512, 8));
    let (r8, _) = run_flow(&g8, Flow::TapaCs { n_fpgas: 8 })?;
    let _ = writeln!(
        s,
        "Stencil i512:  F1-V {:.2}s  F8 {:.2}s  → {:.2}x {}",
        v.latency_s,
        r8.latency_s,
        v.latency_s / r8.latency_s,
        if r8.latency_s > v.latency_s { "(slower, as the paper reports)" } else { "(faster)" }
    );
    // PageRank cit-Patents (parallel after the router → still faster).
    let net = data::snap_network("cit-Patents").unwrap();
    let gp1 = pagerank::build(&pagerank::PageRankConfig::paper(net, 1));
    let (pv, _) = run_flow(&gp1, Flow::VitisHls)?;
    let gp8 = pagerank::build(&pagerank::PageRankConfig::paper(net, 8));
    let (p8, _) = run_flow(&gp8, Flow::TapaCs { n_fpgas: 8 })?;
    let _ = writeln!(
        s,
        "PageRank cit-Patents:  F1-V {:.2}s  F8 {:.2}s  → {:.2}x  (inter-node {:.1} MB)",
        pv.latency_s,
        p8.latency_s,
        pv.latency_s / p8.latency_s,
        p8.inter_node_bytes as f64 / 1e6
    );
    Ok(s)
}

/// Ablation: the frequency contribution of each design choice —
/// coarse-grained floorplanning and interconnect pipelining — isolated on
/// the single-FPGA KNN design (the §2 argument for coupling both with HLS
/// compilation). Each of the four corners is one batch job compiled
/// through the staged pipeline with per-stage overrides
/// ([`tapacs_core::CompileOverrides`]), all sharing one precomputed
/// partition.
///
/// # Errors
///
/// Propagates compile failures.
pub fn ablation() -> Result<String, Box<dyn std::error::Error>> {
    use tapacs_core::partition::{partition, PartitionConfig};
    use tapacs_core::{BatchCompiler, CompileJob, CompileOverrides, CompilerConfig};
    use tapacs_net::Cluster;

    let graph = knn::build(&knn::KnnConfig::paper(4_000_000, 8, 1));
    let device = Device::u55c();
    let cluster = Cluster::single(device.clone());
    // One shared partition, seeded into every corner so the comparison
    // isolates the floorplan/pipelining axes exactly.
    let pcfg = PartitionConfig { threshold: 0.92, time_limit_s: 1.0, ..Default::default() };
    let inter = partition(&graph, &cluster, 1, &pcfg)?;

    let mut config = CompilerConfig::default();
    config.partition.time_limit_s = 1.0;
    config.floorplan.time_limit_s = 1.0;
    config.floorplan.slot_threshold = 0.9;

    let corners = [(true, false), (true, true), (false, false), (false, true)];
    let jobs = corners
        .iter()
        .map(|&(naive, pipelined)| {
            let name = format!(
                "{}/{}",
                if naive { "first-fit" } else { "ILP" },
                if pipelined { "pipelined" } else { "plain" }
            );
            CompileJob::new(name, graph.clone(), Flow::TapaSingle).with_overrides(
                CompileOverrides {
                    partition: Some(inter.clone()),
                    naive_floorplan: Some(naive),
                    pipelined: Some(pipelined),
                },
            )
        })
        .collect();
    let outcome = BatchCompiler::with_config(cluster, config).compile(jobs);

    let mut s = String::from(
        "Ablation: achieved frequency (MHz) on single-FPGA KNN\nfloorplan  pipelining  freq  registers(bits)\n",
    );
    for (&(naive, pipelined), result) in corners.iter().zip(outcome.results) {
        let design = result?;
        let _ = writeln!(
            s,
            "{:<10} {:<11} {:<5.0} {}",
            if naive { "first-fit" } else { "ILP" },
            if pipelined { "yes" } else { "no" },
            design.design_freq_mhz(),
            design.pipeline.total_register_bits
        );
    }
    Ok(s)
}

/// Solver-layer counters on multi-FPGA designs: the incremental LP engine
/// (presolve + warm-started bounded simplex) against cold-start node
/// solves, by simplex iterations (cache disabled so every solve runs), then
/// the memo-cache on a repeated compile and the activity report of that
/// design. Whether compile threads (the bisection's concurrent halves, the
/// batch queue) pay is the repo benchmark's repeated `par2.*`
/// measurement, not a single-shot wall here.
///
/// # Errors
///
/// Propagates the first compile failure.
pub fn solvers() -> Result<String, Box<dyn std::error::Error>> {
    use std::time::Instant;
    use tapacs_core::{Compiler, CompilerConfig, SolverOptions};
    use tapacs_ilp::SolveActivity;
    use tapacs_net::{Cluster, Topology};

    let cluster = Cluster::single_node(Device::u55c(), 4, Topology::Ring);
    let cases = [
        ("stencil i256", suite::build_for(Benchmark::Stencil, Flow::TapaCs { n_fpgas: 2 }, 256), 2),
        ("cnn 13x12", cnn::build(&cnn::CnnConfig { rows: 13, cols: 12, n_fpgas: 2 }), 2),
        ("knn n4M d8", knn::build(&knn::KnnConfig::paper(4_000_000, 8, 4)), 4),
    ];

    // Presolve + warm-started node solves vs the cold engine (every node
    // re-runs phase 1 + phase 2 from the all-logical basis). Same search on
    // both sides, so the delta is purely the engine — which holds only if
    // neither side was cut off, so a compile that degraded or outran one
    // ILP's limit is an error, not a row.
    let mut s = String::from(
        "LP engine: presolve + warm-started simplex vs cold start\ndesign             cold iters  warm iters  fewer   warm hits\n",
    );
    let activity = SolveActivity::global();
    let engine_run = |graph: &tapacs_graph::TaskGraph,
                      n: usize,
                      presolve: bool,
                      warm_lp: bool|
     -> Result<tapacs_ilp::SolveStats, Box<dyn std::error::Error>> {
        let options = SolverOptions { cache: false, presolve, warm_lp, ..SolverOptions::default() };
        let config = CompilerConfig { solver: options, ..non_binding_config() };
        let compiler = Compiler::with_config(cluster.clone(), config);
        let before = activity.snapshot();
        let t0 = Instant::now();
        let design = compiler.compile(graph, Flow::TapaCs { n_fpgas: n })?;
        let what = format!("{} (presolve {presolve}, warm LP {warm_lp})", graph.name());
        ensure_limit_did_not_bind(&what, design.degraded, t0.elapsed())?;
        Ok(activity.snapshot().since(&before))
    };
    let (mut total_cold, mut total_warm) = (0u64, 0u64);
    for (name, graph, n) in &cases {
        let cold = engine_run(graph, *n, false, false)?;
        let warm = engine_run(graph, *n, true, true)?;
        total_cold += cold.simplex_iterations;
        total_warm += warm.simplex_iterations;
        let fewer = format!(
            "{:.2}x",
            cold.simplex_iterations as f64 / warm.simplex_iterations.max(1) as f64
        );
        let _ = writeln!(
            s,
            "{:<18} {:<11} {:<11} {:<7} {}/{} ({:.0}%)",
            name,
            cold.simplex_iterations,
            warm.simplex_iterations,
            fewer,
            warm.warm_hits,
            warm.warm_attempts,
            warm.warm_hit_rate() * 100.0,
        );
    }
    let _ = writeln!(
        s,
        "total: {total_cold} cold vs {total_warm} warm simplex iterations ({:.2}x fewer)",
        total_cold as f64 / total_warm.max(1) as f64
    );

    // Memo-cache demonstration: same design compiled twice with caching on.
    let cache = tapacs_ilp::SolveCache::global();
    cache.clear();
    let options = SolverOptions { cache: true, ..SolverOptions::default() };
    let config = CompilerConfig { solver: options, ..CompilerConfig::default() };
    let compiler = Compiler::with_config(cluster.clone(), config);
    let (name, graph, n) = &cases[0];
    let t0 = Instant::now();
    let design = compiler.compile(graph, Flow::TapaCs { n_fpgas: *n })?;
    let cold = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    compiler.compile(graph, Flow::TapaCs { n_fpgas: *n })?;
    let warm = t1.elapsed().as_secs_f64();
    let _ = writeln!(
        s,
        "\nmemo-cache on {name}: cold {cold:.3}s, re-compile {warm:.3}s ({:.1}x)\n",
        cold / warm.max(1e-9)
    );
    s.push_str(&SolverActivityReport::from_design(&design).render_table());
    Ok(s)
}

/// The sharded multi-design batch engine (`reproduce batch`): compiles the
/// 4-benchmark × multi-flow sweep three times — as a sequential loop
/// (1 worker), on the sharded queue at ≥2 workers, and at a third worker
/// count — and reports the wall-clock speedup, the cross-design
/// solve-cache hit rate and whether all three runs produced bit-identical
/// designs. `smoke` shrinks the sweep to one flow so the smoke tests can
/// run it in seconds.
///
/// # Errors
///
/// Propagates the first compile failure of the parallel run.
pub fn batch(smoke: bool) -> Result<String, Box<dyn std::error::Error>> {
    use tapacs_core::{BatchCompiler, BatchOutcome, CompileJob, CompiledDesign};
    use tapacs_ilp::SolveCache;

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let flows: Vec<Flow> = if smoke {
        vec![Flow::TapaCs { n_fpgas: 2 }]
    } else {
        vec![Flow::TapaSingle, Flow::TapaCs { n_fpgas: 2 }, Flow::TapaCs { n_fpgas: 4 }]
    };
    let nets = data::snap_networks();
    // Generous ILP budgets: bit-identical results across worker counts
    // only hold when no solve is cut off by its wall-clock deadline (the
    // anytime caveat every branch-and-bound solver shares), and the
    // oversubscribed queue slows individual solves down. Release-build
    // solves finish in milliseconds either way.
    let config = non_binding_config();
    let mut jobs: Vec<CompileJob> = Vec::new();
    {
        let config = &config;
        let mut push = |name: String, graph: tapacs_graph::TaskGraph, flow: Flow| {
            jobs.push(
                CompileJob::new(name, graph, flow)
                    .on_cluster(suite::paper_cluster(flow.n_fpgas()))
                    .with_config(config.clone()),
            );
        };
        for &flow in &flows {
            let n = flow.n_fpgas();
            let label = flow.label();
            // Stencil at two iteration counts: iterations change block
            // counts, not module resources, so the two designs' bisection
            // ILPs are structurally identical — the second one answers
            // from the shared solve cache (cross-design hits).
            for iters in [64usize, 128] {
                push(
                    format!("stencil-i{iters}/{label}"),
                    stencil::build(&stencil::StencilConfig::paper(iters, n)),
                    flow,
                );
            }
            let pagerank_nets = if smoke { &nets[..1] } else { &nets[..2] };
            for net in pagerank_nets {
                push(
                    format!("pagerank-{}/{label}", net.name),
                    pagerank::build(&pagerank::PageRankConfig::paper(*net, n)),
                    flow,
                );
            }
            // Smoke shrinks the KNN *module count* (the structural size of
            // its floorplan ILP), not just the dataset: the paper-sized 18
            // blue modules per FPGA explore a six-figure branch-and-bound
            // tree that debug builds cannot close inside any budget.
            let knn_cfg = if smoke {
                knn::KnnConfig {
                    n_points: 1_000_000,
                    dims: 2,
                    k: 10,
                    n_fpgas: n,
                    port_width_bits: 512,
                    buffer_bytes: 128 * 1024,
                    blue_per_fpga: 6,
                }
            } else {
                knn::KnnConfig::paper(4_000_000, 8, n)
            };
            push(format!("knn-d{}/{label}", knn_cfg.dims), knn::build(&knn_cfg), flow);
            let cnn_cfg = if smoke {
                cnn::CnnConfig { rows: 13, cols: 4, n_fpgas: n }
            } else {
                cnn::CnnConfig::paper(n, matches!(flow, Flow::TapaSingle))
            };
            push(format!("cnn/{label}"), cnn::build(&cnn_cfg), flow);
        }
    }

    let cache = SolveCache::global();
    let run = |threads: usize, jobs: Vec<CompileJob>| -> BatchOutcome {
        // Cleared between runs so each run's hit rate and wall-clock
        // stand on their own.
        cache.clear();
        BatchCompiler::new(suite::paper_cluster(1)).threads(threads).compile(jobs)
    };
    // Worker counts are capped at the job count by the queue, so request
    // counts that resolve exactly and prefer a distinct third count; when
    // none exists (a 2-job sweep) the third run is an honest repeat and
    // the output lists only the counts that actually ran.
    let n_jobs = jobs.len();
    let par_threads = cores.clamp(2, 8).min(n_jobs);
    let cross_threads =
        if par_threads < n_jobs { par_threads + 1 } else { (par_threads - 1).max(2) };
    let seq = run(1, jobs.clone());
    let par = run(par_threads, jobs.clone());
    let cross = run(cross_threads, jobs);
    let (par_threads, cross_threads) = (par.report.threads, cross.report.threads);
    let mut counts = vec![1, par_threads, cross_threads];
    counts.dedup();
    let count_label = counts.iter().map(ToString::to_string).collect::<Vec<_>>().join("/");
    // The sweep is sized to compile everywhere: any failure or bound ILP
    // limit — in any of the three runs — aborts with the job's name and
    // error rather than masquerading as a determinism verdict.
    for (outcome, workers) in [(&seq, 1), (&par, par_threads), (&cross, cross_threads)] {
        for (result, job) in outcome.results.iter().zip(&outcome.report.jobs) {
            if let Err(e) = result {
                return Err(format!("{} failed at {workers} worker(s): {e}", job.name).into());
            }
            let what = format!("{} at {workers} worker(s)", job.name);
            ensure_limit_did_not_bind(&what, job.degraded, job.wall)?;
        }
    }

    let same = |a: &CompiledDesign, b: &CompiledDesign| {
        a.placement.fpga_of_task == b.placement.fpga_of_task
            && a.slot_of_task == b.slot_of_task
            && a.timing.freq_mhz == b.timing.freq_mhz
    };
    let diverged: Vec<&str> = seq
        .results
        .iter()
        .zip(&par.results)
        .zip(&cross.results)
        .zip(&seq.report.jobs)
        .filter(|(((a, b), c), _)| match (a, b, c) {
            (Ok(a), Ok(b), Ok(c)) => !(same(a, b) && same(a, c)),
            // Unreachable after the abort above; kept for robustness.
            _ => true,
        })
        .map(|(_, job)| job.name.as_str())
        .collect();
    let identical = diverged.is_empty();

    let mut s = String::from("Sharded multi-design batch compile\n\n");
    s.push_str(&par.report.render_table());
    let _ = writeln!(s, "\nsequential loop (1 worker):   {:.3}s", seq.report.wall.as_secs_f64());
    let _ = writeln!(
        s,
        "sharded queue  ({par_threads} workers):  {:.3}s  → {:.2}x speedup ({cores} core(s))",
        par.report.wall.as_secs_f64(),
        seq.report.wall.as_secs_f64() / par.report.wall.as_secs_f64().max(1e-9),
    );
    let _ = writeln!(
        s,
        "cross-design solve-cache hit rate: {:.0}% ({} hits / {} misses)",
        par.report.cache.hit_rate() * 100.0,
        par.report.cache.hits,
        par.report.cache.misses,
    );
    let _ = writeln!(
        s,
        "bit-identical designs across {count_label} workers: {}",
        if identical {
            "yes".to_string()
        } else {
            format!("NO — DETERMINISM VIOLATION: {}", diverged.join(", "))
        },
    );
    Ok(s)
}

/// A DSE experiment's persistence directory, resolved `--cache-dir` flag →
/// `TAPACS_CACHE_DIR` → an ephemeral per-process temp dir. The ephemeral
/// one still proves the disk round trip; it just cannot span runs, and
/// dropping the `CacheDir` removes it again, on error exits too.
pub(crate) struct CacheDir {
    /// The resolved directory (created by [`CacheDir::resolve`]).
    pub(crate) dir: std::path::PathBuf,
    /// Where `dir` came from: `--cache-dir`, `TAPACS_CACHE_DIR` or
    /// `ephemeral`.
    pub(crate) source: &'static str,
}

impl CacheDir {
    /// Resolves and creates the directory; `tag` names the ephemeral one.
    pub(crate) fn resolve(flag: Option<&std::path::Path>, tag: &str) -> std::io::Result<Self> {
        // The one environment variable the workspace reads: a deployment
        // path, resolved here at the binary edge.
        let env = std::env::var_os("TAPACS_CACHE_DIR").filter(|v| !v.is_empty());
        let (dir, source) = match (flag, env) {
            (Some(d), _) => (d.to_path_buf(), "--cache-dir"),
            (None, Some(d)) => (d.into(), "TAPACS_CACHE_DIR"),
            (None, None) => (
                std::env::temp_dir().join(format!("tapacs-{tag}-{}", std::process::id())),
                "ephemeral",
            ),
        };
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, source })
    }

    /// The solve-cache file inside the directory.
    pub(crate) fn file(&self) -> std::path::PathBuf {
        tapacs_ilp::SolveCache::file_in(&self.dir)
    }

    /// Loads the persisted cache file, when there is one, into the global
    /// solve cache and returns its entry count. A rejected file (corrupt,
    /// truncated, stale version) is noted in `log` and downgrades to a
    /// cold start: an experiment never fails on bad cache state.
    pub(crate) fn preload(&self, log: &mut String) -> u64 {
        let file = self.file();
        if !file.exists() {
            return 0;
        }
        tapacs_ilp::SolveCache::global().load_from(&file).unwrap_or_else(|e| {
            let _ = writeln!(log, "persisted cache rejected ({e}); starting cold");
            0
        })
    }

    /// Notes in `log` that an ephemeral directory goes with this run, and
    /// how to keep one.
    pub(crate) fn finish(&self, log: &mut String) {
        if self.source == "ephemeral" {
            let _ = writeln!(
                log,
                "(ephemeral cache dir removed; pass --cache-dir or set TAPACS_CACHE_DIR to persist across runs)"
            );
        }
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        if self.source == "ephemeral" {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Design-space exploration over the batch engine with the disk-persistent
/// solve cache (`reproduce dse`): sweeps cluster shapes × partition
/// thresholds × slot ceilings over one design as a single batch, prunes to
/// the Pareto frontier (frequency / utilization slack / inter-FPGA cut),
/// persists the solve cache, then re-runs the sweep from the reloaded
/// cache and proves (a) a warm-start hit rate and (b) a bit-identical
/// frontier. With a `cache_dir` (or `TAPACS_CACHE_DIR`) that already holds
/// a cache file, even the *first* sweep starts warm — the cross-process
/// payoff `dse_second_run_against_persisted_cache_starts_warm`
/// (`crates/bench/tests/smoke.rs`) checks by running this twice against
/// one directory.
///
/// # Errors
///
/// Cache-persistence I/O failures, and a frontier that differs between
/// the two sweeps (a determinism violation). Compile failures of
/// individual grid points are part of the report, not errors.
pub fn dse(
    smoke: bool,
    cache_dir: Option<&std::path::Path>,
) -> Result<String, Box<dyn std::error::Error>> {
    use tapacs_core::dse::explore;
    use tapacs_ilp::SolveCache;

    let config = suite::dse_grid(Benchmark::Stencil, smoke);
    let cache = SolveCache::global();
    // Self-contained: drop whatever earlier experiments left in memory so
    // the reported hit rates are attributable to this sweep + the disk.
    cache.clear();

    let dir = CacheDir::resolve(cache_dir, "dse-cache")?;
    let file = dir.file();
    let mut s = String::from("Design-space exploration over the batch engine\n");
    let _ = writeln!(s, "cache file: {} ({})", file.display(), dir.source);
    let preloaded = dir.preload(&mut s);

    let first = explore(&config);
    s.push_str(&first.render_table());
    let warm_start = preloaded > 0 && first.cache.hits > 0;
    let _ = writeln!(
        s,
        "starting solve-cache hit rate: {:.1}% ({} hits / {} misses, {} entries preloaded)",
        first.cache.hit_rate() * 100.0,
        first.cache.hits,
        first.cache.misses,
        preloaded,
    );
    let _ = writeln!(s, "disk warm start: {}", if warm_start { "yes" } else { "no (cold cache)" });

    let stored = cache.save_to(&file)?;
    let _ = writeln!(s, "persisted {} entries to {}", stored, file.display());

    // Prove the round trip inside this process too: drop the in-memory
    // cache, reload from disk, sweep again.
    cache.clear();
    let reloaded = cache.load_from(&file)?;
    let second = explore(&config);
    let _ = writeln!(
        s,
        "re-run from persisted cache: {} entries reloaded, hit rate {:.1}% ({} hits / {} misses)",
        reloaded,
        second.cache.hit_rate() * 100.0,
        second.cache.hits,
        second.cache.misses,
    );
    let (signature, rerun) = (first.frontier_signature(), second.frontier_signature());
    let identical = signature == rerun;
    if identical {
        let _ = writeln!(s, "frontier signature: {signature}");
        let _ = writeln!(s, "bit-identical Pareto frontier across both sweeps: yes");
    }
    dir.finish(&mut s);
    if !identical {
        return Err(format!(
            "bit-identical Pareto frontier across both sweeps: NO — DETERMINISM VIOLATION \
             (first sweep {signature}, re-run {rerun})"
        )
        .into());
    }
    Ok(s)
}

/// §7 (2): the packet-size example.
pub fn packet_example() -> String {
    let bytes = 64 << 20;
    let t64 = AlveoLink::new(2, 64).transfer_time_s(bytes) * 1e3;
    let t128 = AlveoLink::new(2, 128).transfer_time_s(bytes) * 1e3;
    format!(
        "64 MB transfer: {:.2} ms at 64 B packets, {:.2} ms at 128 B packets\n(paper: 6.53 ms / 3.96 ms)\n",
        t64, t128
    )
}

/// Everything that runs fast (static tables + analytic figures).
pub fn quick() -> String {
    let mut s = String::new();
    for (_, _, render) in EXPERIMENTS.iter().filter(|(_, is_static, _)| *is_static) {
        s.push_str(&render().expect("static experiments cannot fail"));
        s.push('\n');
    }
    let _ = alveolink::OVERHEAD_FRACTIONS; // keep the constant exported
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let q = quick();
        assert!(q.contains("Table 1"));
        assert!(q.contains("1146240"));
        assert!(q.contains("cit-Patents"));
        assert!(q.contains("AlveoLink"));
        // Table 4 exact paper values.
        assert!(q.contains("1664"));
        assert!(q.contains("1153.76") || q.contains("1153.7"));
    }

    #[test]
    fn packet_example_close_to_paper() {
        let p = packet_example();
        assert!(p.contains("6.5"), "{p}");
    }

    #[test]
    fn fig8_saturates() {
        let f = fig8();
        let last = f.lines().last().unwrap();
        let gbps: f64 = last.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(gbps > 85.0);
    }
}
