//! Per-stage timing and error attribution of the staged compile pipeline:
//! a failing stage is named, the artifacts produced before it stay
//! inspectable, overrides skip stages, and cluster-size violations fail
//! per-compile instead of panicking.

use tapacs_apps::{stencil, suite};
use tapacs_core::{CompileError, CompileOverrides, Compiler, CompilerConfig, Flow, Stage};
use tapacs_fpga::{Device, Resources};
use tapacs_graph::{Fifo, Task, TaskGraph};
use tapacs_net::{Cluster, Topology};

fn demo_graph(pe_count: usize, pe_res: Resources) -> TaskGraph {
    let mut g = TaskGraph::new("staged");
    let io = Resources::new(30_000, 60_000, 60, 0, 20);
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

fn cluster4() -> Cluster {
    Cluster::single_node(Device::u55c(), 4, Topology::Ring)
}

#[test]
fn successful_compile_records_every_stage() {
    let g = demo_graph(6, Resources::new(40_000, 80_000, 100, 200, 10));
    let ctx = Compiler::new(cluster4()).compile_staged(&g, Flow::TapaCs { n_fpgas: 2 });
    assert!(ctx.failure.is_none(), "{:?}", ctx.failure);
    let stages: Vec<Stage> = ctx.timings.iter().map(|t| t.stage).collect();
    assert_eq!(stages, Stage::ALL.to_vec(), "all stages in order");
    // The design carries the same record.
    let design = ctx.into_result().unwrap();
    assert_eq!(design.stage_timings.len(), Stage::ALL.len());
}

#[test]
fn floorplan_failure_is_attributed_and_leaves_earlier_artifacts() {
    let g = demo_graph(6, Resources::new(40_000, 80_000, 100, 200, 10));
    // A slot threshold no real slot can satisfy: partitioning succeeds,
    // floorplanning cannot.
    let mut config = CompilerConfig::default();
    config.floorplan.slot_threshold = 0.001;
    let compiler = Compiler::with_config(cluster4(), config);
    let ctx = compiler.compile_staged(&g, Flow::TapaCs { n_fpgas: 2 });

    assert_eq!(ctx.failed_stage(), Some(Stage::Floorplan), "{:?}", ctx.failure);
    let failure = ctx.failure.clone().unwrap();
    assert!(failure.to_string().starts_with("stage floorplan:"), "{failure}");

    // Earlier-stage artifacts stay inspectable.
    let partition = ctx.partition.as_ref().expect("partition artifact must survive");
    assert_eq!(partition.assignment.len(), g.num_tasks());
    let comm = ctx.comm.as_ref().expect("comm artifact must survive");
    assert!(comm.graph.num_tasks() >= g.num_tasks());
    // Later-stage artifacts never materialized.
    assert!(ctx.floorplan.is_none() && ctx.timing.is_none() && ctx.utilization.is_none());

    // Timings cover exactly the stages that ran (including the failing
    // one), none after it.
    let stages: Vec<Stage> = ctx.timings.iter().map(|t| t.stage).collect();
    assert_eq!(
        stages,
        vec![Stage::Validate, Stage::Partition, Stage::CommInsert, Stage::Floorplan]
    );

    // into_result surfaces the underlying error.
    assert!(matches!(ctx.into_result(), Err(CompileError::InsufficientResources { .. })));
}

#[test]
fn oversized_flow_fails_with_cluster_too_small_not_a_panic() {
    let g = demo_graph(4, Resources::new(20_000, 40_000, 50, 100, 5));
    let compiler = Compiler::new(cluster4());
    let err = compiler.compile(&g, Flow::TapaCs { n_fpgas: 9 }).unwrap_err();
    assert_eq!(err, CompileError::ClusterTooSmall { needed: 9, available: 4 });
    // Attributed to the Validate stage.
    let ctx = compiler.compile_staged(&g, Flow::TapaCs { n_fpgas: 9 });
    assert_eq!(ctx.failed_stage(), Some(Stage::Validate));
    // A zero-FPGA flow is rejected the same way.
    let err = compiler.compile(&g, Flow::TapaCs { n_fpgas: 0 }).unwrap_err();
    assert_eq!(err, CompileError::ClusterTooSmall { needed: 0, available: 4 });
}

#[test]
fn partition_override_skips_the_stage_and_is_used_verbatim() {
    let g = demo_graph(6, Resources::new(40_000, 80_000, 100, 200, 10));
    // ILP limits that cannot bind: the bit-for-bit comparison at the end
    // means nothing between two anytime incumbents.
    const LIMIT_S: f64 = 600.0;
    let mut config = CompilerConfig::default();
    config.partition.time_limit_s = LIMIT_S;
    config.floorplan.time_limit_s = LIMIT_S;
    let compiler = Compiler::with_config(cluster4(), config);
    let flow = Flow::TapaCs { n_fpgas: 2 };
    let t0 = std::time::Instant::now();
    let baseline = compiler.compile_staged(&g, flow);
    let seed = baseline.partition.clone().unwrap();

    let overrides = CompileOverrides { partition: Some(seed.clone()), ..Default::default() };
    let ctx = compiler.compile_staged_with(&g, flow, overrides);
    assert!(ctx.failure.is_none(), "{:?}", ctx.failure);
    // The Partition stage did not run (no timing entry), yet its artifact
    // is the seeded one.
    assert!(ctx.stage_wall(Stage::Partition).is_none(), "partition stage must be skipped");
    assert_eq!(ctx.partition.as_ref().unwrap().assignment, seed.assignment);
    // Downstream output matches the baseline bit for bit.
    let (a, b) = (baseline.into_result().unwrap(), ctx.into_result().unwrap());
    let wall = t0.elapsed().as_secs_f64();
    assert!(!a.degraded && !b.degraded, "an ILP limit bound (degraded design)");
    assert!(wall < LIMIT_S, "two compiles took {wall:.0} s, past one ILP's {LIMIT_S} s limit");
    assert_eq!(a.slot_of_task, b.slot_of_task);
    assert_eq!(a.timing.freq_mhz, b.timing.freq_mhz);
}

#[test]
fn malformed_partition_override_fails_per_compile_instead_of_panicking() {
    let g = demo_graph(6, Resources::new(40_000, 80_000, 100, 200, 10));
    let compiler = Compiler::new(cluster4());
    let flow = Flow::TapaCs { n_fpgas: 2 };
    let good = compiler.compile_staged(&g, flow).partition.unwrap();

    // Too-short assignment.
    let mut short = good.clone();
    short.assignment.truncate(3);
    let ctx = compiler.compile_staged_with(
        &g,
        flow,
        CompileOverrides { partition: Some(short), ..Default::default() },
    );
    assert_eq!(ctx.failed_stage(), Some(Stage::Validate));
    assert!(matches!(ctx.into_result(), Err(CompileError::InvalidOverride { .. })));

    // Assignment naming an FPGA outside the flow's span.
    let mut wide = good;
    wide.assignment[0] = 3;
    let err = compiler
        .compile_staged_with(
            &g,
            flow,
            CompileOverrides { partition: Some(wide), ..Default::default() },
        )
        .into_result()
        .unwrap_err();
    assert!(matches!(err, CompileError::InvalidOverride { .. }), "{err}");
}

#[test]
fn pipelining_override_toggles_registers_independently_of_the_flow() {
    let g = demo_graph(4, Resources::new(20_000, 40_000, 50, 100, 5));
    let compiler = Compiler::new(cluster4());
    // TapaSingle normally pipelines; force it off.
    let off = compiler
        .compile_staged_with(
            &g,
            Flow::TapaSingle,
            CompileOverrides { pipelined: Some(false), ..Default::default() },
        )
        .into_result()
        .unwrap();
    assert_eq!(off.pipeline.total_register_bits, 0);
    // VitisHls normally does not; force it on.
    let on = compiler
        .compile_staged_with(
            &g,
            Flow::VitisHls,
            CompileOverrides { pipelined: Some(true), ..Default::default() },
        )
        .into_result()
        .unwrap();
    assert!(on.pipeline.total_register_bits > 0);
}

/// Hostile budgets and thresholds fail in Validate with the field named,
/// before a stage can panic on them (`Duration::from_secs_f64` on a time
/// limit, `Resources::scale` on a NaN slot threshold). A time limit of +∞,
/// or one too large for a `Duration`, is no limit.
#[test]
fn nan_or_negative_config_numbers_fail_validation_naming_the_field() {
    type Set = fn(&mut CompilerConfig, f64);
    let fields: [(&str, Set); 7] = [
        ("partition.threshold", |c, v| c.partition.threshold = v),
        ("partition.time_limit_s", |c, v| c.partition.time_limit_s = v),
        ("partition.balance_slack", |c, v| c.partition.balance_slack = v),
        ("floorplan.slot_threshold", |c, v| c.floorplan.slot_threshold = v),
        ("floorplan.time_limit_s", |c, v| c.floorplan.time_limit_s = v),
        ("floorplan.balance_slack", |c, v| c.floorplan.balance_slack = v),
        ("single_fpga_threshold", |c, v| c.single_fpga_threshold = v),
    ];
    for (name, set) in fields {
        for value in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            let mut config = CompilerConfig::default();
            set(&mut config, value);
            match config.check() {
                Err(CompileError::InvalidConfig { field, .. }) => assert_eq!(field, name),
                other => panic!("{name} = {value}: {other:?}"),
            }
        }
    }

    // The probes end to end, on stencil at F2.
    let graph = stencil::build(&stencil::StencilConfig::paper(64, 2));
    let flow = Flow::TapaCs { n_fpgas: 2 };
    let compile = |set: Set, value: f64| {
        let mut config = CompilerConfig::default();
        config.solver.threads = 1;
        set(&mut config, value);
        Compiler::with_config(suite::paper_cluster(2), config).compile_staged(&graph, flow)
    };
    let probes = [
        ("partition.time_limit_s", fields[1].1),
        ("floorplan.time_limit_s", fields[4].1),
        ("floorplan.slot_threshold", fields[3].1),
    ];
    for (name, set) in probes {
        for value in [-1.0, f64::NAN] {
            let ctx = compile(set, value);
            assert_eq!(ctx.failed_stage(), Some(Stage::Validate), "{name} = {value}");
            let err = ctx.into_result().unwrap_err();
            assert!(
                matches!(err, CompileError::InvalidConfig { field, .. } if field == name),
                "{name} = {value}: {err}"
            );
            assert!(err.to_string().contains(name), "{err}");
        }
    }
    for set in [fields[1].1, fields[4].1] {
        for value in [f64::INFINITY, 1e30] {
            let design = compile(set, value).into_result().expect("an unbounded limit compiles");
            assert!(!design.degraded, "{value}: no limit cannot bind");
        }
    }
}
