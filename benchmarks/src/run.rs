//! One benchmark run: the untraced run behind the end-to-end metrics and
//! the traced run behind the per-layer ones.

use std::time::{Duration, Instant};

use tapacs_core::{CompiledDesign, Stage};
use tapacs_ilp::{SolveCache, SolveStats};
use tapacs_sim::SimReport;

use crate::host::{self, Scratch};
use crate::metrics::Metrics;
use crate::staged;
use crate::stats::{fastest_tenth, median, tail_percentile};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{
    clear_solver_state, fit_threshold, frontier_of, judge, set_up, Job, Plan, Quality, Repetition,
    Workload,
};

/// What a run reports besides its metrics.
pub struct Outcome {
    pub metrics: Metrics,
    /// Compile jobs attempted over the timed repetitions.
    pub attempted: usize,
    /// Jobs that failed, degraded, panicked or were rejected by the checker,
    /// plus simulations that failed.
    pub failed: usize,
    /// No failed operation and no difference between repetitions.
    pub correct: bool,
}

/// Failed operations and determinism breaks seen so far in a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    deterministic: bool,
    first: Option<Quality>,
}

impl Tally {
    fn new() -> Self {
        Self { deterministic: true, ..Self::default() }
    }

    /// Judges one repetition: counts its jobs, prints what failed, and
    /// holds its quality against the first repetition's.
    fn record(&mut self, plan: &Plan, rep: &Repetition, what: &str) {
        let verdict = judge(plan, rep);
        self.attempted += rep.jobs.len();
        self.failed += verdict.failures.len();
        for failure in &verdict.failures {
            println!("FAILED {what}: {failure}");
        }
        match self.first {
            None => self.first = Some(verdict.quality),
            Some(first) if first != verdict.quality => {
                self.deterministic = false;
                println!("NON-DETERMINISTIC {what}: {:?} != first {first:?}", verdict.quality);
            }
            Some(_) => {}
        }
    }

    fn quality(&self) -> Quality {
        self.first.expect("at least one repetition was judged")
    }
}

/// Runs and times one repetition from an empty solve cache and zeroed LP
/// counters (a warm sweep loads its cache file inside the timed call).
fn timed(plan: &Plan) -> (Repetition, f64) {
    clear_solver_state();
    let t = Instant::now();
    let rep = plan.repetition();
    (rep, t.elapsed().as_secs_f64())
}

/// `passes` set-up passes, each wall appended to `walls`; returns the last
/// pass's plan (`None` for no passes).
fn set_up_repeatedly(
    workload: Workload,
    seed: u64,
    scratch: &Scratch,
    passes: usize,
    walls: &mut Vec<f64>,
) -> Result<Option<Plan>, String> {
    let mut last = None;
    for _ in 0..passes {
        let t = Instant::now();
        let (plan, _) = set_up(workload, seed, &scratch.0)?;
        walls.push(t.elapsed().as_secs_f64());
        last = Some(plan);
    }
    Ok(last)
}

/// Simulates every compiled design of `rep`; a failed simulation is a
/// failed operation.
fn simulate_all(plan: &Plan, rep: &Repetition, tally: &mut Tally) -> (Vec<SimReport>, f64) {
    let t = Instant::now();
    let mut reports = Vec::new();
    for job in &rep.jobs {
        let Ok(design) = &job.result else { continue };
        match design.simulate(plan.cluster()) {
            Ok(report) => reports.push(report),
            Err(e) => {
                tally.failed += 1;
                println!("FAILED simulation of {}: {e}", job.label);
            }
        }
    }
    (reports, t.elapsed().as_secs_f64())
}

fn print_config(workload: Workload, seed: u64, seconds: f64, plan: &Plan) {
    let solver = &plan.base_config().solver;
    println!(
        "config workload={} seed={seed} seconds={seconds} backend={:?} engine={:?} parity={:?} \
         solver_threads={} batch_threads=1 cache={} presolve={} warm_lp={} time_limit_s={} cores={}",
        workload.name(),
        solver.backend,
        solver.lp_engine,
        solver.lp_parity,
        solver.threads,
        solver.cache,
        solver.presolve,
        solver.warm_lp,
        plan.base_config().floorplan.time_limit_s,
        cores(),
    );
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The untraced run: set-up passes, then timed repetitions until `seconds`
/// have passed since the start of the run (never fewer than the workload's
/// minimum), each checked and each followed by the workload's further
/// set-up passes; simulation after the timed region. No repetition is set
/// aside as a warm-up: the metric is the fast end of the samples, which a
/// slow first repetition cannot reach, and the time buys another sample.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let run_start = Instant::now();
    let calib_start = host::calibrate();
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let (setup_before, setup_after_each) = workload.setup_passes();
    let mut setup_walls = Vec::new();
    let plan = set_up_repeatedly(workload, seed, &scratch, setup_before, &mut setup_walls)?
        .expect("at least one set-up pass before the first repetition");
    print_config(workload, seed, seconds, &plan);

    let mut tally = Tally::new();
    let mut walls = Vec::new();
    let mut first = None;
    while walls.len() < workload.min_reps() || run_start.elapsed().as_secs_f64() < seconds {
        let (rep, wall) = timed(&plan);
        walls.push(wall);
        tally.record(&plan, &rep, &format!("repetition {}", walls.len()));
        first.get_or_insert(rep);
        set_up_repeatedly(workload, seed, &scratch, setup_after_each, &mut setup_walls)?;
    }
    let first = first.expect("at least one timed repetition");
    let (sims, _) = simulate_all(&plan, &first, &mut tally);
    let quality = tally.quality();
    let peak_rss_mb = host::peak_rss_mb();
    let calib_end = host::calibrate();

    let mut m = Metrics::default();
    m.set("compile_s", fastest_tenth(&walls));
    m.set("setup_s", fastest_tenth(&setup_walls));
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("critical_delay_ns", quality.critical_delay_ns());
    m.set("cut_width_bits", quality.cut_width_bits as f64);
    m.set("wirelength_bit_hops", quality.wirelength_bit_hops as f64);
    m.set("sim_latency_s", sims.iter().map(|s| s.makespan_s).sum());

    println!(
        "samples compile_s={} setup_s={} median_compile_s={} max_compile_s={} median_setup_s={}",
        walls.len(),
        setup_walls.len(),
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max),
        median(&setup_walls),
    );
    if walls.len() <= 32 {
        println!("repetitions compile_s={walls:?}");
    }
    if let Some((p, v)) = tail_percentile(&walls) {
        println!("tail compile_s p{p}={v} s");
    }
    println!(
        "jobs per_repetition={} ok={} infeasible_as_expected={} frontier={}",
        first.jobs.len(),
        quality.ok_jobs,
        quality.infeasible_jobs,
        first.frontier.len()
    );
    print_frequencies(&first);
    println!("host.calib_s start={calib_start} end={calib_end} s");
    Ok(Outcome {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0 && tally.deterministic,
    })
}

/// The capped design frequency the users see, beside the uncapped delay
/// the metric carries.
fn print_frequencies(rep: &Repetition) {
    let freqs: Vec<f64> = rep
        .jobs
        .iter()
        .filter_map(|j| j.result.as_ref().ok())
        .map(CompiledDesign::design_freq_mhz)
        .collect();
    if !freqs.is_empty() {
        println!(
            "freq_mhz min={} max={} (capped at the device F_max)",
            freqs.iter().copied().fold(f64::INFINITY, f64::min),
            freqs.iter().copied().fold(0.0, f64::max)
        );
    }
}

/// Per-stage sums over the jobs of a traced repetition.
#[derive(Default)]
struct Layers {
    partition_wall: f64,
    partition_ilp: SolveStats,
    comm_wall: f64,
    floorplan_wall: f64,
    floorplan_ilp: SolveStats,
    pipeline_wall: f64,
    pnr_wall: f64,
    stages_wall: f64,
    compile_span: f64,
    engine: SolveStats,
}

/// The traced run: the same pipeline driven stage by stage (single
/// designs) or job by job (sweeps) with a span at every layer boundary,
/// next to an untraced repetition for the tracing overhead and a 2-thread
/// repetition whose result must not differ.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let calib_start = host::calibrate();
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let mut tracer = Tracer::new(workload.name());
    let mut tally = Tally::new();
    let mut m = Metrics::default();

    let run = tracer.open("run", None);

    // -- Set-up, once, with its two layers split out ----------------------
    let (set, setup_span) =
        tracer.span("set_up", Some(run), |_, _| set_up(workload, seed, &scratch.0));
    let (plan, setup_times) = set?;
    tracer.reported("apps.build", setup_span, Duration::ZERO, setup_times.build);
    tracer.reported("graph.validate", setup_span, setup_times.build, setup_times.validate);
    print_config(workload, seed, seconds, &plan);
    m.set("apps.build_s", setup_times.build.as_secs_f64());
    m.set("graph.validate_s", setup_times.validate.as_secs_f64());
    m.set("graph.tasks", plan.graph().num_tasks() as f64);
    m.set("graph.fifos", plan.graph().num_fifos() as f64);

    // -- Warm-up and untraced repetitions ---------------------------------
    let ((warmup, warmup_s), _) = tracer.span("warm_up", Some(run), |_, _| timed(&plan));
    Tally::new().record(&plan, &warmup, "warm-up");
    drop(warmup);
    let mut untraced_walls = Vec::new();
    let loop_start = Instant::now();
    while untraced_walls.is_empty() || loop_start.elapsed().as_secs_f64() < seconds / 3.0 {
        let ((rep, wall), _) = tracer.span("untraced_rep", Some(run), |_, _| timed(&plan));
        untraced_walls.push(wall);
        tally.record(&plan, &rep, &format!("untraced repetition {}", untraced_walls.len()));
    }
    let untraced_s = median(&untraced_walls);

    // -- The traced repetition --------------------------------------------
    clear_solver_state();
    let mut layers = Layers::default();
    let (rep, traced_span) = tracer.span("traced_rep", Some(run), |tracer, span| {
        trace_repetition(tracer, span, &plan, &mut layers)
    });
    let rep = rep?;
    let cache = SolveCache::global().stats();
    // Held against the untraced repetitions' quality: the stage-by-stage
    // design must be `Compiler::compile`'s, placement and timing alike.
    tally.record(&plan, &rep, "traced repetition");
    let traced_s = tracer.seconds(traced_span);

    // -- The same repetition at two threads (informational) ----------------
    clear_solver_state();
    let cpu_before = host::cpu_seconds();
    let (par2, par2_span) = tracer.span("par2_rep", Some(run), |_, _| match &plan {
        Plan::Single { .. } => plan.repetition_with(2, 1),
        Plan::Sweep { .. } => plan.repetition_with(1, 2),
    });
    let par2_cpu = host::cpu_seconds() - cpu_before;
    let par2_s = tracer.seconds(par2_span);
    tally.record(&plan, &par2, "2-thread repetition");
    drop(par2);

    // -- Cache persistence, measured on what the repetition left behind ----
    let file = scratch.0.join("traced-cache.bin");
    let (saved, save_span) =
        tracer.span("cache.save", Some(run), |_, _| SolveCache::global().save_to(&file));
    saved.map_err(|e| format!("cache save: {e}"))?;
    let file_bytes = std::fs::metadata(&file).map_err(|e| format!("cache file: {e}"))?.len();
    let (loaded, load_span) = tracer.span("cache.load", Some(run), |_, _| {
        let fresh = SolveCache::new();
        fresh.load_from(&file)
    });
    loaded.map_err(|e| format!("cache load: {e}"))?;

    // -- Simulation ---------------------------------------------------------
    let ((sims, sim_host_s), _) =
        tracer.span("sim", Some(run), |_, _| simulate_all(&plan, &rep, &mut tally));

    // -- Per-layer metrics ----------------------------------------------------
    let ilp = layers.engine;
    let ilp_wall = layers_ilp_wall(&rep);
    m.set("partition.wall_s", layers.partition_wall);
    m.set("partition.ilp_wall_s", ilp_wall.0);
    m.set("partition.self_s", layers.partition_wall - ilp_wall.0);
    m.set("partition.solves", level_solves(&rep, |d| &d.partition.solve_stats));
    m.set("partition.lp_pivots", layers.partition_ilp.simplex_iterations as f64);
    m.set("partition.bb_nodes", layers.partition_ilp.bb_nodes as f64);
    m.set("comm.wall_s", layers.comm_wall);
    m.set(
        "comm.endpoints",
        designs(&rep).map(|d| d.graph.num_tasks() - plan.graph().num_tasks()).sum::<usize>() as f64,
    );
    m.set("floorplan.wall_s", layers.floorplan_wall);
    m.set("floorplan.ilp_wall_s", ilp_wall.1);
    m.set("floorplan.self_s", layers.floorplan_wall - ilp_wall.1);
    m.set("floorplan.solves", level_solves(&rep, |d| &d.floorplan_stats));
    m.set("floorplan.lp_pivots", layers.floorplan_ilp.simplex_iterations as f64);
    m.set("floorplan.bb_nodes", layers.floorplan_ilp.bb_nodes as f64);
    m.set("pipeline.wall_s", layers.pipeline_wall);
    m.set(
        "pipeline.register_bits",
        designs(&rep).map(|d| d.pipeline.total_register_bits).sum::<u64>() as f64,
    );
    m.set("pnr.wall_s", layers.pnr_wall);
    m.set(
        "pnr.worst_slot_util",
        designs(&rep).map(|d| d.timing.worst_slot_utilization()).fold(0.0, f64::max),
    );
    let ilp_s = ilp_wall.0 + ilp_wall.1;
    m.set("ilp.wall_s", ilp_s);
    m.set("ilp.share_of_compile", ilp_s / layers.compile_span);
    m.set("ilp.lp_solves", ilp.lp_solves as f64);
    m.set("ilp.lp_pivots", ilp.simplex_iterations as f64);
    m.set("ilp.phase1_pivots", ilp.phase1_iterations as f64);
    m.set("ilp.bb_nodes", ilp.bb_nodes as f64);
    m.set("ilp.us_per_node", ratio(ilp_s * 1e6, ilp.bb_nodes as f64));
    m.set("ilp.us_per_pivot", ratio(ilp_s * 1e6, ilp.simplex_iterations as f64));
    m.set("ilp.lu_factorizations", ilp.lu_factorizations as f64);
    m.set("ilp.lu_fill_nnz", ilp.lu_fill_nnz as f64);
    m.set("ilp.eta_nnz", ilp.eta_nnz as f64);
    m.set(
        "ilp.memo_hit_share",
        ratio(ilp.memo_sibling_hits as f64, (ilp.memo_sibling_hits + ilp.lu_factorizations) as f64),
    );
    m.set("ilp.warm_hit_share", ilp.warm_hit_rate());
    m.set("ilp.presolve_rows_removed", ilp.presolve_rows_removed as f64);
    m.set("par2.wall_s", par2_s);
    m.set("par2.cpu_s", par2_cpu);
    m.set("par2.speedup", untraced_s / par2_s);
    m.set("cache.hits", cache.hits as f64);
    m.set("cache.misses", cache.misses as f64);
    m.set("cache.hit_share", cache.hit_rate());
    m.set("cache.entries", cache.entries as f64);
    m.set("cache.file_bytes", file_bytes as f64);
    m.set("cache.save_s", tracer.seconds(save_span));
    m.set("cache.load_s", tracer.seconds(load_span));

    // A single design is a batch of one job with no queue in front of it.
    let (batch_wall, job_walls): (f64, Vec<f64>) = match &rep.batch {
        Some(b) => (b.wall.as_secs_f64(), b.jobs.iter().map(|j| j.wall.as_secs_f64()).collect()),
        None => (layers.compile_span, vec![layers.compile_span]),
    };
    m.set("batch.wall_s", batch_wall);
    m.set("batch.jobs", job_walls.len() as f64);
    m.set("batch.job_wall_p50_s", median(&job_walls));
    m.set("batch.job_wall_max_s", job_walls.iter().copied().fold(0.0, f64::max));
    m.set("batch.queue_overhead_share", (batch_wall - job_walls.iter().sum::<f64>()) / batch_wall);
    let quality = tally.quality();
    m.set("dse.points", rep.jobs.len() as f64);
    m.set("dse.ok_points", quality.ok_jobs as f64);
    m.set("dse.infeasible_points", quality.infeasible_jobs as f64);
    m.set("dse.frontier_points", rep.frontier.len() as f64);
    m.set("dse.score_s", rep.score.as_secs_f64());
    let events: u64 = sims.iter().map(|s| s.total_events).sum();
    m.set("sim.host_s", sim_host_s);
    m.set("sim.events", events as f64);
    m.set("sim.events_per_host_s", ratio(events as f64, sim_host_s));
    m.set("sim.inter_fpga_bytes", sims.iter().map(|s| s.inter_fpga_bytes).sum::<u64>() as f64);
    let calib_end = host::calibrate();
    m.set("host.calib_s", calib_start);
    m.set("host.calib_drift_share", (calib_end - calib_start) / calib_start);
    m.set("host.warmup_s", warmup_s);
    m.set("host.untraced_rep_s", untraced_s);
    m.set("host.traced_rep_s", traced_s);
    m.set("host.trace_overhead_share", (traced_s - untraced_s) / untraced_s);
    m.set("host.cores", cores() as f64);
    m.set("trace.compile_span_s", layers.compile_span);
    m.set("trace.unattributed_s", layers.compile_span - layers.stages_wall);
    m.set(
        "trace.unattributed_share",
        (layers.compile_span - layers.stages_wall) / layers.compile_span,
    );

    // Close the run span over everything above and write the spans out.
    let trace_file = scratch
        .0
        .parent()
        .expect("scratch sits in the executable's directory")
        .join(format!("trace-{}.json", workload.name()));
    tracer.close(run);
    m.set("trace.spans", tracer.len() as f64);
    std::fs::write(&trace_file, tracer.to_json()).map_err(|e| format!("trace file: {e}"))?;
    println!("trace spans={} file={}", tracer.len(), trace_file.display());
    println!("samples untraced_rep_s={}", untraced_walls.len());
    print_frequencies(&rep);

    Ok(Outcome {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0 && tally.deterministic,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn designs(rep: &Repetition) -> impl Iterator<Item = &CompiledDesign> {
    rep.jobs.iter().filter_map(|j| j.result.as_ref().ok())
}

/// Summed ILP solve wall of the (partition, floorplan) stages, from the
/// per-level statistics each compiled design carries.
fn layers_ilp_wall(rep: &Repetition) -> (f64, f64) {
    designs(rep).fold((0.0, 0.0), |(p, f), d| {
        (
            p + d.partition.solve_stats.iter().map(|l| l.wall_s).sum::<f64>(),
            f + d.floorplan_stats.iter().map(|l| l.wall_s).sum::<f64>(),
        )
    })
}

fn level_solves<'a>(
    rep: &'a Repetition,
    levels: impl Fn(&'a CompiledDesign) -> &'a Vec<tapacs_core::LevelSolveStats>,
) -> f64 {
    designs(rep).flat_map(|d| levels(d).iter()).map(|l| l.solves).sum::<usize>() as f64
}

/// One repetition with spans: stage by stage for a single design, job by
/// job (from the batch engine's own reports) for a sweep.
fn trace_repetition(
    tracer: &mut Tracer,
    span: SpanId,
    plan: &Plan,
    layers: &mut Layers,
) -> Result<Repetition, String> {
    match plan {
        Plan::Single { graph, flow, compiler } => {
            let staged =
                staged::compile(tracer, span, graph, compiler.cluster(), *flow, compiler.config())
                    .map_err(|e| format!("staged compile: {e}"))?;
            layers.partition_wall = tracer.seconds(staged.partition);
            layers.partition_ilp = staged.partition_ilp;
            layers.comm_wall = tracer.seconds(staged.comm);
            layers.floorplan_wall = tracer.seconds(staged.floorplan);
            layers.floorplan_ilp = staged.floorplan_ilp;
            layers.pipeline_wall = tracer.seconds(staged.pipeline);
            layers.pnr_wall = tracer.seconds(staged.pnr);
            layers.stages_wall = tracer.children_seconds(staged.compile);
            layers.compile_span = tracer.seconds(staged.compile);
            layers.engine = staged.partition_ilp.merged(&staged.floorplan_ilp);
            // Scored as a sweep scores each of its points, outside the
            // compile span.
            let (frontier, score) = tracer.span("dse.score", Some(span), |_, _| {
                frontier_of([Some(&staged.design)].into_iter())
            });
            Ok(Repetition {
                jobs: vec![Job {
                    label: flow.label(),
                    flow: *flow,
                    fit_threshold: fit_threshold(compiler.config(), *flow),
                    result: Ok(staged.design),
                }],
                frontier,
                load: Duration::ZERO,
                build_jobs: Duration::ZERO,
                compile: Duration::from_secs_f64(layers.compile_span),
                score: Duration::from_secs_f64(tracer.seconds(score)),
                batch: None,
            })
        }
        Plan::Sweep { .. } => {
            let (rep, sweep) = tracer.span("compile", Some(span), |_, _| plan.repetition());
            let batch = rep.batch.as_ref().expect("a sweep has a batch report");
            let mut at = Duration::ZERO;
            tracer.reported("cache.load", sweep, at, rep.load);
            at += rep.load;
            tracer.reported("dse.build_jobs", sweep, at, rep.build_jobs);
            at += rep.build_jobs;
            let batch_span = tracer.reported("batch", sweep, at, rep.compile);
            // One worker runs the jobs back to back, so each starts where
            // the previous one ended.
            let mut job_at = Duration::ZERO;
            for job in &batch.jobs {
                let job_span =
                    tracer.reported(&format!("job {}", job.name), batch_span, job_at, job.wall);
                let mut stage_at = Duration::ZERO;
                for timing in &job.timings {
                    tracer.reported(timing.stage.name(), job_span, stage_at, timing.wall);
                    stage_at += timing.wall;
                    let wall = timing.wall.as_secs_f64();
                    match timing.stage {
                        Stage::Partition => layers.partition_wall += wall,
                        Stage::CommInsert => layers.comm_wall += wall,
                        Stage::Floorplan => layers.floorplan_wall += wall,
                        Stage::Pipeline => layers.pipeline_wall += wall,
                        Stage::Timing => layers.pnr_wall += wall,
                        Stage::Validate | Stage::Utilization => {}
                    }
                }
                job_at += job.wall;
            }
            at += rep.compile;
            tracer.reported("dse.score", sweep, at, rep.score);
            layers.stages_wall = tracer.children_seconds(sweep);
            layers.compile_span = tracer.seconds(sweep);
            layers.engine = batch.engine;
            Ok(rep)
        }
    }
}
