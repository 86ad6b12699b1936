//! Sharded multi-design batch compilation.
//!
//! The paper's evaluation compiles dozens of independent
//! (benchmark × flow × cluster-size) points; compiling them one after
//! another leaves most cores idle and re-solves structurally identical
//! bisection ILPs from scratch. [`BatchCompiler`] turns a whole sweep into
//! one shared work queue:
//!
//! * jobs are pulled off a deterministic atomic queue by scoped worker
//!   threads (`std::thread::scope`), so the sweep's wall-clock approaches
//!   the longest single job instead of the sum;
//! * every job shares the process-wide [`SolveCache`], so a bisection ILP
//!   solved for one design answers instantly for every structurally
//!   identical sibling in the sweep (cross-design hits);
//! * each job compiles under its own scoped [`SolveActivity`] handle, so
//!   LP-engine
//!   counters are attributed per job even while jobs interleave, and merge
//!   into the aggregated [`BatchReport`];
//! * results come back in **input order** as per-job
//!   `Result<CompiledDesign, CompileError>` — one infeasible design fails
//!   its own slot, never the queue — and are bit-identical to a sequential
//!   loop for every thread count, because each job's compile is itself
//!   deterministic and jobs share no mutable state beyond the (replay-safe)
//!   solve cache.
//!
//! The queue runs on all cores unless [`BatchCompiler::threads`] pins its
//! worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tapacs_graph::TaskGraph;
use tapacs_ilp::{
    fault_fires, CacheStats, CancellationToken, FaultKind, SolveActivity, SolveCache, SolveStats,
    INJECTED_PANIC_MARKER,
};
use tapacs_net::Cluster;

use crate::compiler::{CompiledDesign, Compiler, CompilerConfig, Flow};
use crate::error::CompileError;
use crate::stage::{CompileOverrides, Stage, StageTiming};

/// One design to compile: a graph, a flow, and optional per-job cluster /
/// config / stage overrides (falling back to the [`BatchCompiler`]'s
/// defaults when absent).
#[derive(Debug, Clone)]
pub struct CompileJob {
    /// Label used in reports (`"stencil/F2"`, …).
    pub name: String,
    /// The design's task graph.
    pub graph: TaskGraph,
    /// The flow to compile it under.
    pub flow: Flow,
    /// Cluster override (defaults to the batch compiler's cluster).
    pub cluster: Option<Cluster>,
    /// Config override (defaults to the batch compiler's config).
    pub config: Option<CompilerConfig>,
    /// Per-stage overrides (see [`CompileOverrides`]).
    pub overrides: CompileOverrides,
    /// Wall-clock budget for this job. When set, a deadline
    /// [`CancellationToken`] is armed at job start and threaded into every
    /// ILP solve; expiry feeds the degradation ladder (the job completes
    /// with greedy/heuristic stand-ins, marked degraded) and the job is
    /// reported in the [`BatchReport::budget_expired`] bucket. The
    /// adaptive DSE rungs use this to bound a sweep's wall-clock on
    /// pathological points.
    pub budget: Option<Duration>,
}

impl CompileJob {
    /// A job with no per-job overrides.
    pub fn new(name: impl Into<String>, graph: TaskGraph, flow: Flow) -> Self {
        Self {
            name: name.into(),
            graph,
            flow,
            cluster: None,
            config: None,
            overrides: CompileOverrides::default(),
            budget: None,
        }
    }

    /// Compiles this job against its own cluster instead of the batch
    /// default (sweeps mixing cluster sizes need this).
    #[must_use]
    pub fn on_cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Compiles this job with its own compiler configuration.
    #[must_use]
    pub fn with_config(mut self, config: CompilerConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Applies per-stage overrides to this job.
    #[must_use]
    pub fn with_overrides(mut self, overrides: CompileOverrides) -> Self {
        self.overrides = overrides;
        self
    }

    /// Bounds this job's compile wall-clock (see [`CompileJob::budget`]).
    #[must_use]
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Per-job slice of the [`BatchReport`].
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's label.
    pub name: String,
    /// The job's flow.
    pub flow: Flow,
    /// End-to-end compile wall-clock of this job.
    pub wall: Duration,
    /// Wall-clock per executed stage.
    pub timings: Vec<StageTiming>,
    /// The stage that failed, when the job failed. A worker panic caught
    /// before the first stage ran leaves this `None` even though
    /// [`failed`](Self::failed) is set.
    pub failed_stage: Option<Stage>,
    /// Whether the job failed (stage error *or* isolated worker panic).
    pub failed: bool,
    /// Whether the failure was a worker panic caught at the job boundary
    /// (implies [`failed`](Self::failed); the result slot holds
    /// [`CompileError::WorkerPanicked`]).
    pub panicked: bool,
    /// Whether the compiled design is marked degraded: some ILP stage fell
    /// back to its heuristic incumbent after a solver timeout.
    pub degraded: bool,
    /// Whether the job's [`CompileJob::budget`] deadline expired before it
    /// finished cleanly: the design completed through the degradation
    /// ladder, truncated by the budget rather than by a solver's own time
    /// limit. Distinct from [`failed`](Self::failed) — the job produced a
    /// design — and excluded from the sequential estimate (its wall
    /// measures the budget, not the compile).
    pub budget_expired: bool,
    /// LP-engine activity attributed to this job (scoped handle).
    pub engine: SolveStats,
}

/// Summed wall-clock of one stage across every job of a batch.
#[derive(Debug, Clone, Copy)]
pub struct StageTotal {
    /// The stage.
    pub stage: Stage,
    /// Jobs that executed it.
    pub jobs: usize,
    /// Summed wall-clock across those jobs.
    pub wall: Duration,
}

/// Aggregated outcome of one [`BatchCompiler::compile`] run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Worker threads the queue actually used.
    pub threads: usize,
    /// Wall-clock of the whole batch.
    pub wall: Duration,
    /// Estimated sequential wall-clock: the sum of per-job compile times
    /// as measured inside this batch. An *estimate* because cache sharing
    /// and core contention differ in a true sequential loop.
    ///
    /// Budget-expired jobs are excluded: their wall measures the budget
    /// that cut them off, not what a sequential full compile would have
    /// cost, so summing them would inflate the estimate (and the claimed
    /// speedup) with made-up work. Their truncated walls are tracked in
    /// [`budget_expired_wall`](Self::budget_expired_wall) instead.
    pub sequential_estimate: Duration,
    /// Summed wall-clock of budget-expired jobs (kept out of
    /// [`sequential_estimate`](Self::sequential_estimate)).
    pub budget_expired_wall: Duration,
    /// One report per job, in input order.
    pub jobs: Vec<JobReport>,
    /// Per-stage wall-clock totals across the batch, in stage order.
    pub stage_totals: Vec<StageTotal>,
    /// Solve-cache lookups during the batch (process-wide delta —
    /// cross-design hits show up here).
    pub cache: CacheStats,
    /// Merged LP-engine counters over every job's scoped handle.
    pub engine: SolveStats,
}

impl BatchReport {
    /// `sequential_estimate / wall`: how much the shared queue beat the
    /// sum of its parts (≈ 1.0 on one worker).
    pub fn speedup_estimate(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.sequential_estimate.as_secs_f64() / wall
        }
    }

    /// Jobs that compiled successfully (degraded results count: they
    /// produced a valid design).
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| !j.failed).count()
    }

    /// Jobs that compiled but carry a degraded (heuristic-fallback) result
    /// for reasons *other* than a job-budget expiry — those are counted in
    /// [`budget_expired`](Self::budget_expired); the buckets are disjoint.
    pub fn degraded(&self) -> usize {
        self.jobs.iter().filter(|j| !j.failed && j.degraded && !j.budget_expired).count()
    }

    /// Jobs cut off by their [`CompileJob::budget`] deadline (a distinct
    /// bucket: they produced a degraded design, they did not fail).
    pub fn budget_expired(&self) -> usize {
        self.jobs.iter().filter(|j| !j.failed && j.budget_expired).count()
    }

    /// Jobs that failed (stage errors and isolated worker panics alike).
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.failed).count()
    }

    /// Jobs whose failure was an isolated worker panic.
    pub fn panicked(&self) -> usize {
        self.jobs.iter().filter(|j| j.panicked).count()
    }

    /// ASCII rendering: one row per job, stage totals, cache and engine
    /// lines.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("job                     flow   wall(s)  outcome\n");
        for j in &self.jobs {
            let outcome = if j.panicked {
                match j.failed_stage {
                    Some(stage) => format!("panicked during {stage}"),
                    None => "panicked".to_string(),
                }
            } else if let Some(stage) = j.failed_stage {
                format!("failed at {stage}")
            } else if j.budget_expired {
                "ok (budget expired)".to_string()
            } else if j.degraded {
                "ok (degraded)".to_string()
            } else {
                "ok".to_string()
            };
            let _ = writeln!(
                s,
                "{:<23} {:<6} {:<8.3} {}",
                j.name,
                j.flow.label(),
                j.wall.as_secs_f64(),
                outcome
            );
        }
        s.push_str("stage totals: ");
        let mut first = true;
        for t in &self.stage_totals {
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(s, "{} {:.3}s/{}", t.stage, t.wall.as_secs_f64(), t.jobs);
        }
        s.push('\n');
        let _ = writeln!(
            s,
            "batch: {} job(s) on {} thread(s) in {:.3}s (sequential estimate {:.3}s, {:.2}x)",
            self.jobs.len(),
            self.threads,
            self.wall.as_secs_f64(),
            self.sequential_estimate.as_secs_f64(),
            self.speedup_estimate(),
        );
        if self.budget_expired() > 0 {
            let _ = writeln!(
                s,
                "budget expired: {} job(s), {:.3}s truncated wall (excluded from the estimate)",
                self.budget_expired(),
                self.budget_expired_wall.as_secs_f64(),
            );
        }
        let _ = writeln!(
            s,
            "solve cache: {} hits / {} misses ({:.0}% hit rate) across the batch",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
        );
        let _ = writeln!(
            s,
            "LP engine: {} simplex iterations over {} solves, warm starts {}/{} ({:.0}%)",
            self.engine.simplex_iterations,
            self.engine.lp_solves,
            self.engine.warm_hits,
            self.engine.warm_attempts,
            self.engine.warm_hit_rate() * 100.0,
        );
        s
    }
}

/// Results plus the aggregated report of one batch run.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-job outcome, in input order.
    pub results: Vec<Result<CompiledDesign, CompileError>>,
    /// The aggregated batch report.
    pub report: BatchReport,
}

/// Best-effort string form of a caught panic payload (panics almost always
/// carry `&str` or `String`).
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The sharded multi-design compile engine. See the [module](self) docs.
#[derive(Debug, Clone)]
pub struct BatchCompiler {
    cluster: Cluster,
    config: CompilerConfig,
    threads: usize,
}

impl BatchCompiler {
    /// A batch compiler with default configuration, on all cores.
    pub fn new(cluster: Cluster) -> Self {
        Self::with_config(cluster, CompilerConfig::default())
    }

    /// A batch compiler with an explicit default configuration, on all
    /// cores.
    pub fn with_config(cluster: Cluster, config: CompilerConfig) -> Self {
        Self { cluster, config, threads: 0 }
    }

    /// Pins the worker-thread count (`0` =
    /// [`std::thread::available_parallelism`]).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker count a batch of `jobs` designs would use.
    pub fn resolved_threads(&self, jobs: usize) -> usize {
        let hw = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        hw.clamp(1, jobs.max(1))
    }

    /// Compiles one job under its own scoped activity handle.
    /// `solver_share` is the slice of the machine this job's *internal*
    /// parallelism — its concurrent bisection halves — may claim (cores /
    /// batch workers): with both the queue and the per-job recursion
    /// defaulting to "all cores", an evaluation sweep would otherwise run
    /// `workers × cores` runnable threads. The cap only applies to auto
    /// (`threads == 0`) solver options — an explicit pin is respected — and
    /// cannot change any result: the recursion's merge is the sequential
    /// one for every thread count.
    fn run_job(
        &self,
        job: &CompileJob,
        solver_share: usize,
    ) -> (Result<CompiledDesign, CompileError>, JobReport) {
        let activity = Arc::new(SolveActivity::default());
        let cluster = job.cluster.as_ref().unwrap_or(&self.cluster);
        let mut config = job.config.as_ref().unwrap_or(&self.config).clone();
        if config.solver.threads == 0 && solver_share > 0 {
            config.solver.threads = solver_share;
        }
        // Injected solver timeout: zero ILP budget forces deterministic
        // deadline expiry, so the degradation ladder takes over (the job
        // still succeeds, marked degraded).
        if fault_fires(FaultKind::Timeout, &job.name) {
            config.partition.time_limit_s = 0.0;
            config.floorplan.time_limit_s = 0.0;
        }
        // Arm the per-job budget deadline: one token shared by every ILP
        // solve of this job. Deadline expiry (never an external cancel) is
        // handled by the degradation ladder, so the job still completes —
        // truncated, marked degraded, and binned as budget-expired below.
        let budget_token = job.budget.map(CancellationToken::with_timeout);
        if let Some(token) = &budget_token {
            config.partition.cancel = Some(token.clone());
            config.floorplan.cancel = Some(token.clone());
        }
        let compiler = Compiler::with_config(cluster.clone(), config);
        let t0 = Instant::now();
        // Injected stage failure: the job fails per-job, like any organic
        // stage error, without running the pipeline.
        if fault_fires(FaultKind::Stage, &job.name) {
            let report = JobReport {
                name: job.name.clone(),
                flow: job.flow,
                wall: t0.elapsed(),
                timings: Vec::new(),
                failed_stage: Some(Stage::Partition),
                failed: true,
                panicked: false,
                degraded: false,
                budget_expired: false,
                engine: activity.snapshot(),
            };
            let err = CompileError::Solver(format!("injected stage fault: {}", job.name));
            return (Err(err), report);
        }
        // Panic isolation: a panic anywhere in the pipeline (organic or
        // injected) is caught at the job boundary, attributed to the stage
        // that was executing, and converted into this job's error — the
        // worker thread survives and the rest of the sweep is unaffected.
        crate::stage::set_current_stage(None);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if fault_fires(FaultKind::Panic, &job.name) {
                panic!("{INJECTED_PANIC_MARKER}: {}", job.name);
            }
            SolveActivity::scoped(&activity, || {
                compiler.compile_staged_with(&job.graph, job.flow, job.overrides.clone())
            })
        }));
        let wall = t0.elapsed();
        match caught {
            Ok(ctx) => {
                let degraded = ctx.partition.as_ref().is_some_and(|p| p.degraded)
                    || ctx.floorplan.as_ref().is_some_and(|f| f.degraded);
                // Budget-expired = the deadline tripped *and* the design
                // went through the degradation ladder. A job that finished
                // cleanly just before the deadline stays a clean success.
                let budget_expired = degraded
                    && budget_token
                        .as_ref()
                        .is_some_and(|t| t.is_cancelled() && !t.cancelled_externally());
                let report = JobReport {
                    name: job.name.clone(),
                    flow: job.flow,
                    wall,
                    timings: ctx.timings.clone(),
                    failed_stage: ctx.failed_stage(),
                    failed: ctx.failure.is_some(),
                    panicked: false,
                    degraded,
                    budget_expired,
                    engine: activity.snapshot(),
                };
                (ctx.into_result(), report)
            }
            Err(payload) => {
                let stage = crate::stage::current_stage();
                crate::stage::set_current_stage(None);
                let report = JobReport {
                    name: job.name.clone(),
                    flow: job.flow,
                    wall,
                    timings: Vec::new(),
                    failed_stage: stage,
                    failed: true,
                    panicked: true,
                    degraded: false,
                    budget_expired: false,
                    engine: activity.snapshot(),
                };
                // `&*`: downcast the boxed payload, not the box itself.
                let err =
                    CompileError::WorkerPanicked { stage, payload: payload_string(&*payload) };
                (Err(err), report)
            }
        }
    }

    /// Runs every job over the sharded work queue and returns per-job
    /// results **in input order** plus the aggregated [`BatchReport`].
    ///
    /// Infeasible or otherwise failing designs occupy their own `Err`
    /// slot; the queue always drains completely.
    pub fn compile(&self, jobs: Vec<CompileJob>) -> BatchOutcome {
        let n = jobs.len();
        let threads = self.resolved_threads(n);
        let cache_before = SolveCache::global().stats();
        let t0 = Instant::now();

        let mut slots: Vec<OnceLock<(Result<CompiledDesign, CompileError>, JobReport)>> =
            Vec::new();
        slots.resize_with(n, OnceLock::new);

        if threads <= 1 {
            // Sequential queue: each job may use the whole machine
            // internally (`0` leaves solver auto-threading untouched).
            for (job, slot) in jobs.iter().zip(&slots) {
                let _ = slot.set(self.run_job(job, 0));
            }
        } else {
            // Split the machine between queue workers: each concurrent job
            // gets `cores / workers` internal solver threads (see
            // `run_job`) instead of every job claiming all cores at once.
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let solver_share = (cores / threads).max(1);
            // Deterministic sharding: workers pop the next unclaimed job
            // index; each index is processed exactly once and its result
            // lands in its own slot, so the output order — and every
            // individual design — is independent of the interleaving.
            // Attribution note: every solve of a job runs inside that
            // job's own scope (scopes replace, they do not stack), so a
            // scope installed around the whole batch intentionally sees
            // nothing — batch-wide numbers come from `BatchReport::engine`.
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let (jobs, slots, next) = (&jobs, &slots, &next);
                    s.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        // Second isolation layer: `run_job` catches panics
                        // itself, but if one still escapes (a double fault
                        // in the handler, say) the worker dies *quietly* —
                        // `thread::scope` would otherwise re-raise at join
                        // and abort the whole sweep. The unfilled slot is
                        // re-run by the straggler pass below.
                        let result =
                            catch_unwind(AssertUnwindSafe(|| self.run_job(job, solver_share)));
                        match result {
                            Ok(r) => {
                                let _ = slots[i].set(r);
                            }
                            Err(_) => break,
                        }
                    });
                }
            });
            // Worker-respawn equivalent: any jobs orphaned by a dead worker
            // are finished on this thread (each job's compile is
            // deterministic, so where it runs cannot change its result).
            for (job, slot) in jobs.iter().zip(&slots) {
                if slot.get().is_none() {
                    let _ = slot.set(self.run_job(job, solver_share));
                }
            }
        }

        let wall = t0.elapsed();
        let cache = SolveCache::global().stats().since(&cache_before);

        let mut results = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        for slot in slots {
            let (result, report) = slot.into_inner().expect("every queued job must complete");
            results.push(result);
            reports.push(report);
        }

        let sequential_estimate =
            reports.iter().filter(|r| !r.budget_expired).map(|r| r.wall).sum();
        let budget_expired_wall = reports.iter().filter(|r| r.budget_expired).map(|r| r.wall).sum();
        let engine = reports.iter().fold(SolveStats::default(), |acc, r| acc.merged(&r.engine));
        let stage_totals = Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let mut jobs = 0;
                let mut total = Duration::ZERO;
                for r in &reports {
                    for t in &r.timings {
                        if t.stage == stage {
                            jobs += 1;
                            total += t.wall;
                        }
                    }
                }
                (jobs > 0).then_some(StageTotal { stage, jobs, wall: total })
            })
            .collect();

        BatchOutcome {
            results,
            report: BatchReport {
                threads,
                wall,
                sequential_estimate,
                budget_expired_wall,
                jobs: reports,
                stage_totals,
                cache,
                engine,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapacs_fpga::{Device, Resources};
    use tapacs_graph::{Fifo, Task};
    use tapacs_net::Topology;

    fn chain_graph(name: &str, pes: usize, pe: Resources) -> TaskGraph {
        let mut g = TaskGraph::new(name);
        let io = Resources::new(30_000, 60_000, 60, 0, 20);
        let rd = g.add_task(Task::hbm_read("rd", io, 0, 512, 65_536).with_total_blocks(64));
        let mut prev = rd;
        for i in 0..pes {
            let t = g.add_task(
                Task::compute(format!("pe{i}"), pe)
                    .with_cycles_per_block(1_000)
                    .with_total_blocks(64),
            );
            g.add_fifo(Fifo::new(format!("f{i}"), prev, t, 512).with_block_bytes(65_536));
            prev = t;
        }
        let wr = g.add_task(Task::hbm_write("wr", io, 1, 512, 65_536).with_total_blocks(64));
        g.add_fifo(Fifo::new("out", prev, wr, 512).with_block_bytes(65_536));
        g
    }

    fn cluster4() -> Cluster {
        Cluster::single_node(Device::u55c(), 4, Topology::Ring)
    }

    fn demo_jobs() -> Vec<CompileJob> {
        let pe = Resources::new(40_000, 80_000, 100, 200, 10);
        vec![
            CompileJob::new("a", chain_graph("a", 6, pe), Flow::TapaCs { n_fpgas: 2 }),
            CompileJob::new("b", chain_graph("b", 4, pe), Flow::TapaSingle),
            CompileJob::new("c", chain_graph("c", 6, pe), Flow::TapaCs { n_fpgas: 4 }),
        ]
    }

    #[test]
    fn batch_results_arrive_in_input_order() {
        let outcome = BatchCompiler::new(cluster4()).threads(2).compile(demo_jobs());
        assert_eq!(outcome.results.len(), 3);
        let flows: Vec<usize> =
            outcome.results.iter().map(|r| r.as_ref().unwrap().n_fpgas()).collect();
        assert_eq!(flows, vec![2, 1, 4]);
        assert_eq!(outcome.report.jobs[1].name, "b");
        assert_eq!(outcome.report.succeeded(), 3);
    }

    #[test]
    fn failing_job_does_not_abort_the_queue() {
        let mut jobs = demo_jobs();
        // A flow larger than the cluster: per-job ClusterTooSmall.
        jobs.insert(
            1,
            CompileJob::new(
                "too-big",
                chain_graph("d", 4, Resources::new(40_000, 80_000, 100, 200, 10)),
                Flow::TapaCs { n_fpgas: 9 },
            ),
        );
        let outcome = BatchCompiler::new(cluster4()).threads(2).compile(jobs);
        assert_eq!(outcome.results.len(), 4);
        assert!(matches!(
            outcome.results[1],
            Err(CompileError::ClusterTooSmall { needed: 9, available: 4 })
        ));
        assert_eq!(outcome.report.jobs[1].failed_stage, Some(Stage::Validate));
        // The other three still compiled.
        assert_eq!(outcome.report.succeeded(), 3);
    }

    #[test]
    fn batch_matches_sequential_loop_bit_for_bit() {
        // Cache off so every batch run solves live — with a warm global
        // cache the comparison would only verify replay, not concurrent
        // solving. ILP limits that cannot bind, checked before any design
        // is compared: a search cut off by its deadline returns an anytime
        // incumbent, which differs between runs by scheduling alone.
        const LIMIT_S: f64 = 600.0;
        let mut config = CompilerConfig::default();
        config.solver.cache = false;
        config.partition.time_limit_s = LIMIT_S;
        config.floorplan.time_limit_s = LIMIT_S;
        let checked = |design: CompiledDesign, wall: Duration| {
            assert!(!design.degraded, "an ILP limit bound (degraded design)");
            assert!(wall.as_secs_f64() < LIMIT_S, "compile took {wall:?}, past one ILP's limit");
            design
        };
        let jobs = demo_jobs();
        let compiler = Compiler::with_config(cluster4(), config.clone());
        let reference: Vec<_> = jobs
            .iter()
            .map(|j| {
                let t0 = Instant::now();
                let design = compiler.compile(&j.graph, j.flow).unwrap();
                checked(design, t0.elapsed())
            })
            .collect();
        for threads in [1, 2, 3] {
            let outcome = BatchCompiler::with_config(cluster4(), config.clone())
                .threads(threads)
                .compile(jobs.clone());
            for ((r, job), want) in
                outcome.results.into_iter().zip(&outcome.report.jobs).zip(&reference)
            {
                let got = checked(r.unwrap(), job.wall);
                assert_eq!(got.placement.fpga_of_task, want.placement.fpga_of_task);
                assert_eq!(got.slot_of_task, want.slot_of_task);
                assert_eq!(got.timing.freq_mhz, want.timing.freq_mhz);
            }
        }
    }

    #[test]
    fn report_aggregates_stages_and_engine() {
        // Cache off: a warm global cache would replay every solve and
        // leave the scoped engine counters legitimately at zero.
        let mut config = CompilerConfig::default();
        config.solver.cache = false;
        let outcome =
            BatchCompiler::with_config(cluster4(), config).threads(2).compile(demo_jobs());
        let report = &outcome.report;
        assert!(report.engine.lp_solves > 0, "jobs must record scoped LP activity");
        for job in &report.jobs {
            assert_eq!(job.timings.len(), Stage::ALL.len(), "{}: all stages run", job.name);
        }
        let partition = report.stage_totals.iter().find(|t| t.stage == Stage::Partition).unwrap();
        assert_eq!(partition.jobs, 3);
        // The estimate sums per-job walls only; with sub-millisecond solves
        // the batch wall is dominated by worker spawn/teardown, so compare
        // with a small scheduling-overhead allowance.
        let overhead = Duration::from_millis(50);
        assert!(report.sequential_estimate + overhead >= report.wall || report.threads == 1);
        let table = report.render_table();
        assert!(table.contains("batch: 3 job(s)"), "{table}");
        assert!(table.contains("solve cache"), "{table}");
    }

    #[test]
    fn zero_budget_expires_deterministically_and_stays_out_of_the_estimate() {
        // Cache off so the budgeted job cannot complete by replaying a
        // sibling's cached solves before its deadline is even consulted.
        let mut config = CompilerConfig::default();
        config.solver.cache = false;
        let mut jobs = demo_jobs();
        jobs[1] = jobs[1].clone().with_budget(Duration::ZERO);
        let outcome = BatchCompiler::with_config(cluster4(), config).threads(2).compile(jobs);
        let report = &outcome.report;

        // The budgeted job still produced a design — truncated, degraded,
        // and binned separately from both `failed` and `degraded`.
        assert!(outcome.results[1].is_ok(), "budget expiry must not fail the job");
        assert!(report.jobs[1].budget_expired && report.jobs[1].degraded);
        assert_eq!((report.budget_expired(), report.failed(), report.degraded()), (1, 0, 0));
        assert_eq!(report.succeeded(), 3);

        // Its truncated wall is excluded from the sequential estimate.
        let full_walls: Duration =
            report.jobs.iter().enumerate().filter(|(i, _)| *i != 1).map(|(_, j)| j.wall).sum();
        assert_eq!(report.sequential_estimate, full_walls);
        assert_eq!(report.budget_expired_wall, report.jobs[1].wall);
        let table = report.render_table();
        assert!(table.contains("ok (budget expired)"), "{table}");
        assert!(table.contains("budget expired: 1 job(s)"), "{table}");
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let mut config = CompilerConfig::default();
        config.solver.cache = false;
        let generous: Vec<CompileJob> =
            demo_jobs().into_iter().map(|j| j.with_budget(Duration::from_secs(3600))).collect();
        let reference =
            BatchCompiler::with_config(cluster4(), config.clone()).threads(2).compile(demo_jobs());
        let budgeted = BatchCompiler::with_config(cluster4(), config).threads(2).compile(generous);
        assert_eq!(budgeted.report.budget_expired(), 0);
        for (b, r) in budgeted.results.iter().zip(&reference.results) {
            let (b, r) = (b.as_ref().unwrap(), r.as_ref().unwrap());
            assert_eq!(b.placement.fpga_of_task, r.placement.fpga_of_task);
            assert_eq!(b.slot_of_task, r.slot_of_task);
            assert_eq!(b.timing.freq_mhz, r.timing.freq_mhz);
        }
    }

    #[test]
    fn env_pins_worker_count() {
        // The constructors start on all cores; `threads()` pins the count.
        assert_eq!(BatchCompiler::new(cluster4()).threads, 0);
        let b = BatchCompiler::new(cluster4()).threads(1);
        assert_eq!(b.resolved_threads(8), 1);
        let many = BatchCompiler::new(cluster4()).threads(16);
        assert_eq!(many.resolved_threads(2), 2, "never more workers than jobs");
    }
}
