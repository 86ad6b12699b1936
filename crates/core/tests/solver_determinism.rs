//! End-to-end determinism of the compiler across thread counts:
//! `compile()` must produce identical output for
//! `SolverOptions { threads: 1 }`, which keeps the whole bisection
//! recursion on the calling thread, and the default (all-cores) options,
//! under which the two halves of a split descend concurrently. Checked on
//! a synthetic chain and on bundled apps.
//!
//! Every ILP solve runs on one thread, so what this pins is that the
//! concurrent halves return the same pairs in the same order as the
//! sequential recursion — a flaky floorplan would make every paper table
//! nondeterministic.

use tapacs_apps::suite::{build_for, default_param, paper_cluster, Benchmark};
use tapacs_core::{CompiledDesign, Compiler, CompilerConfig, Flow, SolverBackend, SolverOptions};
use tapacs_fpga::{Device, Resources};
use tapacs_graph::{Fifo, Task, TaskGraph};
use tapacs_net::{Cluster, Topology};

/// An HBM-source → PE-chain → HBM-sink design that needs two FPGAs'
/// worth of choices (mirrors the compiler tests' demo graph).
fn demo_graph(pe_count: usize) -> TaskGraph {
    let mut g = TaskGraph::new("determinism");
    let io = Resources::new(30_000, 60_000, 60, 0, 20);
    let pe_res = Resources::new(60_000, 120_000, 120, 400, 30);
    let rd = g.add_task(Task::hbm_read("rd", io, 0, 512, 65_536).with_total_blocks(64));
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
    let wr = g.add_task(Task::hbm_write("wr", io, 1, 512, 65_536).with_total_blocks(64));
    g.add_fifo(Fifo::new("out", prev, wr, 512).with_block_bytes(65_536));
    g
}

/// What one compile takes: the cluster, the design and the flow.
type Case = (Cluster, TaskGraph, Flow);

/// The chain on a 4-FPGA ring.
fn chain(n_fpgas: usize) -> Case {
    let cluster = Cluster::single_node(Device::u55c(), 4, Topology::Ring);
    (cluster, demo_graph(8), Flow::TapaCs { n_fpgas })
}

/// Compiles under ILP limits that cannot bind (the benchmark harness's) and
/// fails on a bound limit itself, before any caller compares designs: a
/// search cut off by its deadline returns an anytime incumbent.
fn compile_with(options: SolverOptions, (cluster, graph, flow): &Case) -> CompiledDesign {
    const LIMIT_S: f64 = 600.0;
    let label = format!("{}/{}", graph.name(), flow.label());
    let mut config = CompilerConfig { solver: options, ..CompilerConfig::default() };
    config.partition.time_limit_s = LIMIT_S;
    config.floorplan.time_limit_s = LIMIT_S;
    let t0 = std::time::Instant::now();
    let design = Compiler::with_config(cluster.clone(), config)
        .compile(graph, *flow)
        .unwrap_or_else(|e| panic!("{label} failed: {e}"));
    let wall = t0.elapsed().as_secs_f64();
    assert!(!design.degraded, "{label}: an ILP limit bound (degraded design)");
    assert!(wall < LIMIT_S, "{label}: {wall:.0} s, past one ILP's {LIMIT_S} s limit");
    design
}

fn assert_identical(a: &CompiledDesign, b: &CompiledDesign) {
    let label = format!("{}/{}", a.graph.name(), a.flow.label());
    assert_eq!(a.partition.assignment, b.partition.assignment, "{label}: assignment diverged");
    assert_eq!(a.partition.cut_width_bits, b.partition.cut_width_bits, "{label}");
    assert_eq!(a.slot_of_task, b.slot_of_task, "{label}: slot placement diverged");
    assert_eq!(a.timing.freq_mhz, b.timing.freq_mhz, "{label}: achieved frequency diverged");
    assert_eq!(a.channels_used, b.channels_used, "{label}");
    assert_eq!(a.pipeline.total_register_bits, b.pipeline.total_register_bits, "{label}");
}

#[test]
fn one_thread_matches_default_parallelism() {
    let mut cases = vec![chain(2)];
    // Stencil and PageRank at the sizes of the end-to-end F3 quick test:
    // real apps on the uneven-bisection path.
    for bench in [Benchmark::Stencil, Benchmark::PageRank] {
        let flow = Flow::TapaCs { n_fpgas: 3 };
        cases.push((paper_cluster(3), build_for(bench, flow, default_param(bench)), flow));
    }
    // Cache off on both sides: this compares live solves, not replays.
    let base = SolverOptions {
        backend: SolverBackend::Parallel,
        cache: false,
        threads: 0,
        ..Default::default()
    };
    for case in &cases {
        let default_like = compile_with(base.clone(), case);
        let single = compile_with(SolverOptions { threads: 1, ..base.clone() }, case);
        assert_identical(&default_like, &single);
    }
}

#[test]
fn default_options_are_reproducible_across_compiles() {
    let case = chain(4);
    // Default options (parallel backend, cache on): a second compile must
    // replay to the identical design, whatever the cache state.
    let first = compile_with(SolverOptions::default(), &case);
    let second = compile_with(SolverOptions::default(), &case);
    assert_identical(&first, &second);
}
