//! The four workloads: how each builds its inputs, what one repetition
//! compiles, and how a repetition's outputs are judged.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tapacs_apps::suite::{self, Benchmark};
use tapacs_apps::{cnn, knn};
use tapacs_core::dse::pareto_frontier;
use tapacs_core::{
    BatchCompiler, BatchReport, CompileError, CompileJob, CompiledDesign, Compiler, CompilerConfig,
    DseConfig, DsePoint, DseScore, Flow,
};
use tapacs_graph::TaskGraph;
use tapacs_ilp::{SolveActivity, SolveCache};
use tapacs_net::Cluster;

use crate::check::{self, JobSpec};
use crate::jitter;

/// ILP wall-clock budget per bisection level, in seconds: far beyond any
/// solve here, so no answer depends on how fast the machine is.
const TIME_LIMIT_S: f64 = 600.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KnnDeepTree,
    CnnWideLp,
    DseCold,
    DseWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::KnnDeepTree, Workload::CnnWideLp, Workload::DseCold, Workload::DseWarm];

    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self as usize].0
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed repetitions a run makes at the least, however short
    /// `--seconds` is.
    pub fn min_reps(self) -> usize {
        match self {
            Workload::KnnDeepTree | Workload::CnnWideLp => 3,
            Workload::DseCold => 5,
            Workload::DseWarm => 300,
        }
    }

    /// Set-up passes `(before the first repetition, after each one)`;
    /// `setup_s` is the fastest tenth of all of them. A `dse-warm` pass
    /// holds a whole cold sweep. The others build a graph in well under a
    /// millisecond, and the host slows such work by half for a second or
    /// two at a time (most often right after process start), so their
    /// passes are spread over the run and not packed into its first 50 ms.
    pub fn setup_passes(self) -> (usize, usize) {
        match self {
            Workload::DseWarm => (3, 0),
            _ => (250, 250),
        }
    }
}

/// The code's own defaults with exactly three overrides: one solver
/// thread, and ILP time limits out of reach (batch workers are pinned to
/// one where the batch is built).
pub fn fixed_config(base: CompilerConfig) -> CompilerConfig {
    let mut cfg = base;
    cfg.solver.threads = 1;
    cfg.partition.time_limit_s = TIME_LIMIT_S;
    cfg.floorplan.time_limit_s = TIME_LIMIT_S;
    cfg
}

/// A workload's inputs, ready for a repetition.
pub enum Plan {
    /// One design through [`Compiler::compile`].
    Single { graph: TaskGraph, flow: Flow, compiler: Compiler },
    /// A DSE grid through the batch queue; `cache_file` is set when every
    /// repetition starts from that persisted solve cache (`dse-warm`).
    Sweep { dse: DseConfig, cache_file: Option<PathBuf> },
}

/// Wall-clock of the two parts of a set-up pass the traced run reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build: Duration,
    pub validate: Duration,
}

/// One set-up pass: builds the design from `seed`, validates it and binds
/// the compiler; for `dse-warm` also runs the cold sweep that fills the
/// solve cache and saves it under `scratch`.
pub fn set_up(workload: Workload, seed: u64, scratch: &Path) -> Result<(Plan, SetupTimes), String> {
    let t0 = Instant::now();
    let mut plan = match workload {
        Workload::KnnDeepTree => {
            let graph = knn::build(&knn::KnnConfig::paper(4_000_000, 8, 4));
            single(graph, 4)
        }
        Workload::CnnWideLp => {
            let graph = cnn::build(&cnn::CnnConfig { rows: 13, cols: 20, n_fpgas: 2 });
            single(graph, 2)
        }
        Workload::DseCold | Workload::DseWarm => {
            let mut dse = suite::dse_grid(Benchmark::Stencil, false);
            dse.base = fixed_config(dse.base);
            dse.threads = 1;
            Plan::Sweep { dse, cache_file: None }
        }
    };
    jitter::apply(plan.graph_mut(), seed);
    let build = t0.elapsed();
    let t1 = Instant::now();
    plan.graph().validate().map_err(|e| format!("input graph invalid: {e}"))?;
    let validate = t1.elapsed();

    if workload == Workload::DseWarm {
        clear_solver_state();
        let cold = plan.repetition();
        if let Some(job) = cold.jobs.iter().find(|j| j.unexpected_failure(&plan).is_some()) {
            return Err(format!("cold sweep job {} failed", job.label));
        }
        let file = SolveCache::file_in(scratch);
        SolveCache::global().save_to(&file).map_err(|e| format!("cache save: {e}"))?;
        if let Plan::Sweep { cache_file, .. } = &mut plan {
            *cache_file = Some(file);
        }
    }
    Ok((plan, SetupTimes { build, validate }))
}

fn single(graph: TaskGraph, n_fpgas: usize) -> Plan {
    let compiler = Compiler::with_config(
        suite::paper_cluster(n_fpgas),
        fixed_config(CompilerConfig::default()),
    );
    Plan::Single { graph, flow: Flow::TapaCs { n_fpgas }, compiler }
}

/// Empties the process-wide solve cache and LP counters, so a repetition
/// starts cold.
pub fn clear_solver_state() {
    SolveCache::global().clear();
    SolveActivity::global().clear();
}

/// One compile job's outcome.
pub struct Job {
    pub label: String,
    pub flow: Flow,
    /// The per-FPGA fit threshold the job compiled under.
    pub fit_threshold: f64,
    pub result: Result<CompiledDesign, CompileError>,
}

/// Everything one repetition produced.
pub struct Repetition {
    pub jobs: Vec<Job>,
    /// Pareto-frontier job indices (a single design is its own frontier).
    pub frontier: Vec<usize>,
    /// Loading the persisted cache (`dse-warm` only).
    pub load: Duration,
    /// Building the job list.
    pub build_jobs: Duration,
    /// The compile proper: `Compiler::compile` or the whole batch.
    pub compile: Duration,
    /// Scoring and Pareto pruning.
    pub score: Duration,
    /// The batch engine's own report (sweeps only).
    pub batch: Option<BatchReport>,
}

impl Plan {
    pub fn graph(&self) -> &TaskGraph {
        match self {
            Plan::Single { graph, .. } => graph,
            Plan::Sweep { dse, .. } => &dse.graph,
        }
    }

    fn graph_mut(&mut self) -> &mut TaskGraph {
        match self {
            Plan::Single { graph, .. } => graph,
            Plan::Sweep { dse, .. } => &mut dse.graph,
        }
    }

    pub fn cluster(&self) -> &Cluster {
        match self {
            Plan::Single { compiler, .. } => compiler.cluster(),
            Plan::Sweep { dse, .. } => &dse.cluster,
        }
    }

    /// The configuration every job starts from.
    pub fn base_config(&self) -> &CompilerConfig {
        match self {
            Plan::Single { compiler, .. } => compiler.config(),
            Plan::Sweep { dse, .. } => &dse.base,
        }
    }

    /// One pass over the workload's job set, solver threads as planned and
    /// one batch worker. What the caller times is this call.
    pub fn repetition(&self) -> Repetition {
        self.repetition_with(1, 1)
    }

    /// [`Plan::repetition`] at explicit thread counts: `solver_threads`
    /// inside each single-design compile, `batch_workers` across a sweep.
    pub fn repetition_with(&self, solver_threads: usize, batch_workers: usize) -> Repetition {
        match self {
            Plan::Single { graph, flow, compiler } => {
                let mut config = compiler.config().clone();
                config.solver.threads = solver_threads;
                let fit_threshold = fit_threshold(&config, *flow);
                let compiler = Compiler::with_config(compiler.cluster().clone(), config);
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| compiler.compile(graph, *flow)))
                    .unwrap_or_else(|_| {
                        Err(CompileError::WorkerPanicked { stage: None, payload: "panic".into() })
                    });
                let compile = t.elapsed();
                Repetition {
                    jobs: vec![Job { label: flow.label(), flow: *flow, fit_threshold, result }],
                    frontier: vec![0],
                    load: Duration::ZERO,
                    build_jobs: Duration::ZERO,
                    compile,
                    score: Duration::ZERO,
                    batch: None,
                }
            }
            Plan::Sweep { dse, cache_file } => {
                let t = Instant::now();
                if let Some(file) = cache_file {
                    SolveCache::global().clear();
                    SolveCache::global().load_from(file).expect("the cache file set-up saved");
                }
                let load = t.elapsed();

                let t = Instant::now();
                let points: Vec<DsePoint> = dse.points().collect();
                let jobs: Vec<CompileJob> = points
                    .iter()
                    .map(|p| {
                        CompileJob::new(p.label(), dse.graph.clone(), p.flow())
                            .with_config(dse.config_for(p))
                    })
                    .collect();
                let build_jobs = t.elapsed();

                let t = Instant::now();
                let outcome = BatchCompiler::with_config(dse.cluster.clone(), dse.base.clone())
                    .threads(batch_workers)
                    .compile(jobs);
                let compile = t.elapsed();

                let t = Instant::now();
                let frontier = frontier_of(outcome.results.iter().map(|r| r.as_ref().ok()));
                let score = t.elapsed();

                let jobs = points
                    .iter()
                    .zip(outcome.results)
                    .map(|(p, result)| Job {
                        label: p.label(),
                        flow: p.flow(),
                        fit_threshold: p.partition_threshold,
                        result,
                    })
                    .collect();
                Repetition {
                    jobs,
                    frontier,
                    load,
                    build_jobs,
                    compile,
                    score,
                    batch: Some(outcome.report),
                }
            }
        }
    }
}

/// Scores every compiled, undegraded design as `dse::explore` does and
/// returns the Pareto-frontier indices.
pub fn frontier_of<'a>(designs: impl Iterator<Item = Option<&'a CompiledDesign>>) -> Vec<usize> {
    let scores: Vec<Option<DseScore>> =
        designs.map(|d| d.filter(|d| !d.degraded).map(DseScore::of)).collect();
    pareto_frontier(&scores)
}

/// The per-FPGA fit threshold `config` applies to `flow`.
pub fn fit_threshold(config: &CompilerConfig, flow: Flow) -> f64 {
    if flow.n_fpgas() == 1 {
        config.single_fpga_threshold
    } else {
        config.partition.threshold
    }
}

impl Job {
    fn spec<'a>(&self, plan: &'a Plan) -> JobSpec<'a> {
        JobSpec {
            input: plan.graph(),
            device: plan.cluster().device(),
            n_fpgas: self.flow.n_fpgas(),
            fit_threshold: self.fit_threshold,
        }
    }

    /// Why this job counts as a failed operation, if it does: an error
    /// other than a provably right rejection, or a degraded design.
    pub fn unexpected_failure(&self, plan: &Plan) -> Option<String> {
        match &self.result {
            Ok(design) if design.degraded => Some("degraded design".to_string()),
            Ok(_) => None,
            Err(CompileError::InsufficientResources { .. })
                if check::provably_infeasible(&self.spec(plan)) =>
            {
                None
            }
            Err(e) => Some(e.to_string()),
        }
    }
}

/// Quality of result of one repetition. Every field must repeat bit for
/// bit in every repetition of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// Bits of the mean over successful jobs of the worst per-FPGA
    /// critical delay, in ns.
    pub critical_delay_bits: u64,
    /// Sum over successful jobs of the checker-recomputed inter-FPGA cut.
    pub cut_width_bits: u64,
    /// Sum over successful jobs of the on-chip wirelength.
    pub wirelength_bit_hops: u64,
    /// Hash of every job's assignment, slots and per-FPGA critical delays,
    /// plus the frontier.
    pub fingerprint: u64,
    pub ok_jobs: usize,
    pub infeasible_jobs: usize,
}

impl Quality {
    pub fn critical_delay_ns(&self) -> f64 {
        f64::from_bits(self.critical_delay_bits)
    }
}

/// A repetition's verdict: its quality and every failed operation.
pub struct Verdict {
    pub quality: Quality,
    /// One line per failed job (compile failure, degraded design or
    /// checker rejection).
    pub failures: Vec<String>,
}

/// Checks every job of `rep` with the independent checker and folds the
/// quality of result.
pub fn judge(plan: &Plan, rep: &Repetition) -> Verdict {
    let mut failures = Vec::new();
    let mut hasher = DefaultHasher::new();
    let (mut delay_sum, mut cut, mut wirelength) = (0.0f64, 0u64, 0u64);
    let (mut ok_jobs, mut infeasible_jobs) = (0usize, 0usize);
    for job in &rep.jobs {
        if let Some(why) = job.unexpected_failure(plan) {
            failures.push(format!("{}: {why}", job.label));
            continue;
        }
        let Ok(design) = &job.result else {
            infeasible_jobs += 1;
            continue;
        };
        match check::check_design(&job.spec(plan), design) {
            Ok(job_cut) => {
                ok_jobs += 1;
                cut += job_cut;
                wirelength += check::wirelength_bit_hops(design);
                delay_sum += check::critical_delay_ns(design);
                design.placement.fpga_of_task.hash(&mut hasher);
                for slot in &design.slot_of_task {
                    (slot.row, slot.col).hash(&mut hasher);
                }
                for delay in &design.timing.critical_delay_ns {
                    delay.to_bits().hash(&mut hasher);
                }
            }
            Err(violations) => {
                failures.extend(violations.into_iter().map(|v| format!("{}: {v}", job.label)));
            }
        }
    }
    rep.frontier.hash(&mut hasher);
    let mean_delay = if ok_jobs == 0 { 0.0 } else { delay_sum / ok_jobs as f64 };
    Verdict {
        quality: Quality {
            critical_delay_bits: mean_delay.to_bits(),
            cut_width_bits: cut,
            wirelength_bit_hops: wirelength,
            fingerprint: hasher.finish(),
            ok_jobs,
            infeasible_jobs,
        },
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_follow_the_manifest_table() {
        for (w, (name, _)) in Workload::ALL.into_iter().zip(crate::metrics::WORKLOADS) {
            assert_eq!(w.name(), name);
            assert_eq!(Workload::from_name(name), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    /// The sweep is `dse::explore` taken apart so the designs survive it;
    /// on the CI-sized grid both must score and prune alike.
    #[test]
    fn a_sweep_repetition_mirrors_dse_explore() {
        let mut dse = suite::dse_grid(Benchmark::Stencil, true);
        dse.base = fixed_config(dse.base);
        dse.threads = 1;
        let reference = tapacs_core::dse::explore(&dse);
        let rep = Plan::Sweep { dse, cache_file: None }.repetition();
        assert_eq!(rep.frontier, reference.frontier);
        assert_eq!(rep.jobs.len(), reference.outcomes.len());
        for (job, outcome) in rep.jobs.iter().zip(&reference.outcomes) {
            assert_eq!(job.label, outcome.point.label());
            assert_eq!(job.result.as_ref().ok().map(DseScore::of), outcome.score);
        }
    }

    #[test]
    fn fixed_config_pins_threads_and_lifts_time_limits_only() {
        let cfg = fixed_config(CompilerConfig::default());
        let default = CompilerConfig::default();
        assert_eq!(cfg.solver.threads, 1);
        assert_eq!(cfg.partition.time_limit_s, 600.0);
        assert_eq!(cfg.floorplan.time_limit_s, 600.0);
        assert_eq!(cfg.solver.backend, default.solver.backend);
        assert_eq!(cfg.partition.threshold, default.partition.threshold);
        assert_eq!(cfg.floorplan.slot_threshold, default.floorplan.slot_threshold);
    }
}
