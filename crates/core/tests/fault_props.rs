//! Property tests for the fault-tolerant batch pipeline.
//!
//! Random fault-injection specs over shuffled batches must uphold the
//! robustness contract whatever the spec says:
//! 1. Panicked jobs are isolated to a typed [`CompileError::WorkerPanicked`],
//!    every *non-faulted* job's design is bit-identical to a fault-free
//!    reference run, and the whole faulted batch, degraded designs
//!    included, is identical across batch worker counts.
//! 2. Injected solver timeouts degrade (heuristic fallback, flagged) —
//!    they never abort the sweep.
//! 3. The persistent solve-cache file is never corrupted by injected save
//!    faults: a save either succeeds (and round-trips) or fails leaving
//!    the previous file byte-identical. Injected load faults are retried
//!    the same way, and an exhausted retry leaves the file in place.
//! 4. Degraded points never enter a DSE Pareto frontier, and a faulted
//!    exploration is deterministic run-to-run.
//!
//! The fault registry and the solve cache are process-global, so every
//! test here serializes on one mutex and disarms the registry on exit.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use tapacs_apps::{data, pagerank, suite};
use tapacs_core::dse::explore;
use tapacs_core::{
    BatchCompiler, CompileError, CompileJob, CompiledDesign, CompilerConfig, DseConfig, Flow,
};
use tapacs_fpga::{Device, Resources};
use tapacs_graph::{Fifo, Task, TaskGraph};
use tapacs_ilp::{
    install_faults, CacheFileError, FaultRegistry, SolveCache, INJECTED_PANIC_MARKER,
};
use tapacs_net::{Cluster, Topology};

static GLOBAL_FAULTS: Mutex<()> = Mutex::new(());

/// Disarms the process-wide registry even when an assertion bails early.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        install_faults(None);
    }
}

fn arm(spec: &str) {
    install_faults(Some(Arc::new(FaultRegistry::parse(spec).expect("test spec parses"))));
}

/// The determinism-suite demo graph: HBM source → PE chain → HBM sink.
fn demo_graph(name: &str, pe_count: usize) -> TaskGraph {
    let mut g = TaskGraph::new(name);
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

fn cluster() -> Cluster {
    Cluster::single_node(Device::u55c(), 4, Topology::Ring)
}

/// Organic ILP limits that cannot bind (the benchmark harness's): only an
/// *injected* timeout may expire a deadline here, so every other solve is
/// exact and the bit-identity comparisons below are meaningful.
const LIMIT_S: f64 = 600.0;

fn unbound_config() -> CompilerConfig {
    let mut config = CompilerConfig::default();
    config.partition.time_limit_s = LIMIT_S;
    config.floorplan.time_limit_s = LIMIT_S;
    config
}

fn batch() -> BatchCompiler {
    BatchCompiler::with_config(cluster(), unbound_config())
}

/// Job names chosen so no name is a substring of another (the `@substr`
/// selector must hit exactly one job).
const NAMES: [&str; 6] = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];

fn same(a: &CompiledDesign, b: &CompiledDesign) -> bool {
    a.partition.assignment == b.partition.assignment
        && a.slot_of_task == b.slot_of_task
        && a.timing.freq_mhz == b.timing.freq_mhz
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 1 + 2: random panic/timeout subsets over a shuffled batch.
    #[test]
    fn non_faulted_jobs_bit_identical_under_random_faults(
        n_jobs in 3usize..6,
        panic_mask in prop::collection::vec(any::<bool>(), 6..7),
        timeout_mask in prop::collection::vec(any::<bool>(), 6..7),
        order_keys in prop::collection::vec(any::<u32>(), 6..7),
        threads in 1usize..5,
    ) {
        let _serial = GLOBAL_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
        let _disarm = Disarm;

        // Shuffle the job order by the random sort keys; the design each
        // job compiles to must not depend on its position in the queue.
        let mut idx: Vec<usize> = (0..n_jobs).collect();
        idx.sort_by_key(|&i| order_keys[i]);
        let jobs: Vec<CompileJob> = idx
            .iter()
            .map(|&i| {
                // `3 + i` keeps every graph structurally distinct: a
                // duplicate would answer its solves from the shared cache
                // and never reach the (fault-injected) solver at all.
                CompileJob::new(NAMES[i], demo_graph(NAMES[i], 3 + i), Flow::TapaCs { n_fpgas: 2 })
            })
            .collect();

        let mut spec = String::from("7:");
        for &i in &idx {
            if panic_mask[i] {
                spec.push_str(&format!("panic@{};", NAMES[i]));
            } else if timeout_mask[i] {
                spec.push_str(&format!("timeout@{};", NAMES[i]));
            }
        }
        let any_faults = spec.len() > 2;

        install_faults(None);
        SolveCache::global().clear();
        let reference = batch().threads(1).compile(jobs.clone());
        for result in &reference.results {
            prop_assert!(
                matches!(result, Ok(d) if !d.degraded),
                "fault-free reference must compile, with no ILP limit binding"
            );
        }
        let wall = reference.report.wall.as_secs_f64();
        prop_assert!(wall < LIMIT_S, "reference took {} s, past one ILP's limit", wall);

        if any_faults {
            arm(&spec);
        }
        SolveCache::global().clear();
        let faulted = batch().threads(threads).compile(jobs.clone());
        // The same faulted batch at one worker: every slot, heuristic
        // fallback designs included, must match the `threads` run.
        if any_faults {
            arm(&spec);
        }
        SolveCache::global().clear();
        let serial = batch().threads(1).compile(jobs);
        for (pos, (a, b)) in faulted.report.jobs.iter().zip(&serial.report.jobs).enumerate() {
            prop_assert_eq!(
                (a.panicked, a.failed, a.degraded),
                (b.panicked, b.failed, b.degraded),
                "{}'s flags differ between {} worker(s) and 1", a.name, threads
            );
            match (&faulted.results[pos], &serial.results[pos]) {
                (Ok(x), Ok(y)) => prop_assert!(
                    same(x, y),
                    "{}'s design differs between {} worker(s) and 1", a.name, threads
                ),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{} compiles at one worker count only", a.name),
            }
        }

        for (pos, &i) in idx.iter().enumerate() {
            let job = &faulted.report.jobs[pos];
            let result = &faulted.results[pos];
            prop_assert_eq!(job.name.as_str(), NAMES[i]);
            if panic_mask[i] && any_faults {
                prop_assert!(job.panicked, "{} must be reported panicked", job.name);
                prop_assert!(
                    matches!(result, Err(CompileError::WorkerPanicked { .. })),
                    "{} must fail with WorkerPanicked, got {result:?}",
                    job.name
                );
            } else if timeout_mask[i] && any_faults {
                // An expired solver budget must never abort the sweep. It
                // also doesn't *guarantee* degradation: a model small
                // enough for presolve alone never polls the deadline and
                // still proves optimality. The contract is that the job
                // flag and the design flag agree, and that a non-degraded
                // outcome really is the reference design.
                prop_assert!(!job.failed, "{} must degrade, not fail", job.name);
                match result {
                    Ok(d) => {
                        prop_assert_eq!(
                            d.degraded, job.degraded,
                            "{}'s design and job report disagree on degradation", job.name
                        );
                        if !d.degraded {
                            let Ok(r) = &reference.results[pos] else {
                                return Err(TestCaseError::fail("reference must compile"));
                            };
                            prop_assert!(
                                same(d, r),
                                "{} solved to optimality under the fault but diverged",
                                job.name
                            );
                        }
                    }
                    Err(e) => prop_assert!(false, "{} must still compile: {e}", job.name),
                }
            } else {
                prop_assert!(!job.failed && !job.degraded, "{} must stay clean", job.name);
                match (result, &reference.results[pos]) {
                    (Ok(a), Ok(b)) => prop_assert!(
                        same(a, b),
                        "non-faulted {} diverged from the fault-free reference",
                        job.name
                    ),
                    _ => prop_assert!(false, "{} must compile in both runs", job.name),
                }
            }
        }
    }

    /// Contract 3: an injected-save-fault budget either lets the bounded
    /// retry through (file round-trips) or exhausts it (previous file is
    /// byte-identical — the temp-write + atomic-rename never half-writes);
    /// the same budget of load faults is outlived or leaves the file in
    /// place.
    #[test]
    fn cache_file_never_corrupted_by_injected_save_faults(
        budget in 0u32..6,
        case in 0u64..1_000_000,
    ) {
        let _serial = GLOBAL_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
        let _disarm = Disarm;
        install_faults(None);

        let cache = SolveCache::global();
        cache.clear();
        // Populate the cache with a real compile's solves.
        let _ = batch().threads(1).compile(vec![CompileJob::new(
            "seed",
            demo_graph("seed", 3),
            Flow::TapaCs { n_fpgas: 2 },
        )]);

        let path = std::env::temp_dir()
            .join(format!("tapacs-fault-prop-{}-{case}.bin", std::process::id()));
        let entries = cache.save_to(&path).expect("clean save succeeds");
        let good = std::fs::read(&path).unwrap();

        arm(&format!("7:cacheio@save*{budget}"));
        let retried = cache.save_to(&path);
        install_faults(None);

        // 1 initial attempt + 3 retries: budgets of up to 3 are outlived.
        if budget <= 3 {
            prop_assert_eq!(*retried.as_ref().unwrap(), entries, "retried save loses entries");
        } else {
            prop_assert!(retried.is_err(), "budget {budget} must exhaust the retries");
            prop_assert_eq!(
                &std::fs::read(&path).unwrap(),
                &good,
                "failed save must leave the previous file byte-identical"
            );
        }
        cache.clear();
        prop_assert_eq!(cache.load_from(&path).unwrap(), entries);

        // Load leg: the same budget of injected read faults. The bounded
        // retry outlives up to 3; past that the load fails with the IO
        // error and leaves the file where it is (only a corrupt or stale
        // file is quarantined), so it loads cleanly once disarmed.
        cache.clear();
        arm(&format!("7:cacheio@load*{budget}"));
        let loaded = cache.load_from(&path);
        install_faults(None);
        if budget <= 3 {
            prop_assert!(
                matches!(loaded, Ok(n) if n == entries),
                "a retried load must return all {entries} entries, got {loaded:?}"
            );
        } else {
            prop_assert!(
                matches!(loaded, Err(CacheFileError::Io(_))),
                "budget {budget} must exhaust the load retries, got {loaded:?}"
            );
            prop_assert!(path.exists(), "an IO failure must not quarantine the file");
            cache.clear();
            prop_assert_eq!(cache.load_from(&path).unwrap(), entries);
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Deterministic spot check of panic isolation: the injected panic payload
/// reaches the typed error verbatim, the panicking job is the *only*
/// casualty, and the survivors match a fault-free compile bit for bit.
#[test]
fn injected_panic_is_typed_and_isolated() {
    let _serial = GLOBAL_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let _disarm = Disarm;

    let jobs: Vec<CompileJob> = ["alpha", "bravo", "charlie"]
        .iter()
        .map(|&n| CompileJob::new(n, demo_graph(n, 4), Flow::TapaCs { n_fpgas: 2 }))
        .collect();

    install_faults(None);
    SolveCache::global().clear();
    let reference = batch().threads(1).compile(jobs.clone());

    arm("1:panic@bravo");
    SolveCache::global().clear();
    let faulted = batch().threads(2).compile(jobs);
    install_faults(None);

    match &faulted.results[1] {
        Err(CompileError::WorkerPanicked { payload, .. }) => {
            assert!(
                payload.contains(INJECTED_PANIC_MARKER),
                "panic payload must survive into the typed error: {payload}"
            );
        }
        other => panic!("bravo must fail with WorkerPanicked, got {other:?}"),
    }
    assert!(faulted.report.jobs[1].panicked && faulted.report.jobs[1].failed);
    let wall = (reference.report.wall + faulted.report.wall).as_secs_f64();
    assert!(wall < LIMIT_S, "two batches took {wall:.0} s, past one ILP's {LIMIT_S} s limit");
    assert_eq!(faulted.report.panicked(), 1);
    assert_eq!(faulted.report.failed(), 1);
    for i in [0usize, 2] {
        let (Ok(a), Ok(b)) = (&faulted.results[i], &reference.results[i]) else {
            panic!("survivor {i} must compile in both runs");
        };
        assert!(!a.degraded && !b.degraded, "survivor {i}: an ILP limit bound");
        assert!(same(a, b), "survivor {i} diverged from the fault-free reference");
    }
}

/// Contract 2 on a design whose ILP must search: an injected timeout on
/// PageRank over the first SNAP network at F2 degrades the design and the
/// job (which still compiles, not failed), where the same compile without
/// the fault is clean.
#[test]
fn injected_timeout_degrades_a_searching_design() {
    let _serial = GLOBAL_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let _disarm = Disarm;

    let net = data::snap_networks()[0];
    let flow = Flow::TapaCs { n_fpgas: 2 };
    let job = CompileJob::new(
        format!("pagerank-{}/{}", net.name, flow.label()),
        pagerank::build(&pagerank::PageRankConfig::paper(net, 2)),
        flow,
    )
    .on_cluster(suite::paper_cluster(2))
    .with_config(unbound_config());
    let compile = || {
        SolveCache::global().clear();
        BatchCompiler::new(suite::paper_cluster(1)).threads(1).compile(vec![job.clone()])
    };

    install_faults(None);
    let clean = compile();
    let report = &clean.report.jobs[0];
    assert!(report.wall.as_secs_f64() < LIMIT_S, "the clean compile reached one ILP's limit");
    assert!(!report.failed && !report.degraded, "the fault-free compile must be clean");
    assert!(matches!(&clean.results[0], Ok(d) if !d.degraded));

    arm("3:timeout@pagerank");
    let faulted = compile();
    install_faults(None);
    let report = &faulted.report.jobs[0];
    assert!(!report.failed, "an injected timeout must degrade, not fail");
    assert!(report.degraded, "the job must be reported degraded");
    match &faulted.results[0] {
        Ok(d) => assert!(d.degraded, "the design must carry the degraded flag"),
        Err(e) => panic!("the timed-out job must still compile: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Contract 4: degraded points never enter the Pareto frontier, and a
    /// faulted exploration is deterministic run-to-run.
    #[test]
    fn degraded_points_never_enter_frontier(permille in 200u32..900, seed in 0u64..1_000) {
        let _serial = GLOBAL_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
        let _disarm = Disarm;

        let mut config = DseConfig::new("fault-dse", demo_graph("dse", 4), cluster());
        // A small grid keeps the debug-build sweep quick; two shapes and
        // two slot ceilings still give the frontier something to prune.
        config.cluster_shapes = vec![1, 2];
        config.partition_thresholds = vec![0.7];
        config.slot_thresholds = vec![0.8, 0.9];
        config.base = unbound_config();

        arm(&format!("{seed}:timeout%{permille}"));
        SolveCache::global().clear();
        let first = explore(&config);
        SolveCache::global().clear();
        let second = explore(&config);
        install_faults(None);

        for &i in &first.frontier {
            prop_assert!(
                !first.outcomes[i].degraded,
                "degraded point {} entered the frontier",
                first.outcomes[i].point.label()
            );
        }
        let wall = (first.wall + second.wall).as_secs_f64();
        prop_assert!(wall < LIMIT_S, "two sweeps took {} s, past one organic ILP limit", wall);
        prop_assert_eq!(first.degraded(), second.degraded());
        prop_assert_eq!(
            first.frontier_signature(),
            second.frontier_signature(),
            "faulted exploration must be deterministic"
        );
        // Every degraded outcome still carries a score (it compiled) —
        // exclusion from the frontier is the only penalty.
        for o in &first.outcomes {
            if o.degraded {
                prop_assert!(o.score.is_some(), "degraded {} lost its score", o.point.label());
            }
        }
    }
}
