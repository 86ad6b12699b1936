//! Property tests for the adaptive successive-halving explorer.
//!
//! 1. Full-budget halving theorem: on small random all-clean grids, the
//!    ladder's final frontier equals the exhaustive Pareto frontier —
//!    promotion by domination count never drops a point whose dominator
//!    does not survive in its place.
//! 2. Promotion hygiene: a rung never promotes a degraded or failed
//!    point; budget-expired points land in the resume bucket, not the
//!    promotion set; the promotion count honours the `1/eta` target,
//!    the frontier floor and `min_survivors`; and promotion order is a
//!    pure function of `(outcomes, eta, seed)`.
//! 3. Compiled end-to-end determinism: `explore_adaptive` reproduces the
//!    exhaustive frontier signature bit-identically across batch worker
//!    counts 1/2/4, with a nonzero cache-resume hit rate on the promotion
//!    rung.

use std::time::Duration;

use proptest::prelude::*;
use tapacs_core::dse::search::{
    explore_adaptive, explore_adaptive_with, promote, RungOutcome, SearchConfig,
};
use tapacs_core::dse::{self, pareto_frontier, DseConfig, DseOutcome, DseScore};
use tapacs_fpga::{Device, Resources};
use tapacs_graph::{Fifo, Task, TaskGraph};
use tapacs_ilp::{CacheStats, SolveStats};
use tapacs_net::{Cluster, Topology};

/// Small integer-derived scores: exact comparisons, plenty of ties.
fn scores_from(raw: &[(u32, i32, u32)]) -> Vec<DseScore> {
    raw.iter()
        .map(|&(freq, slack, cut)| DseScore {
            freq_mhz: f64::from(freq % 8) * 50.0,
            util_slack: f64::from(slack % 5) / 10.0,
            cut_width_bits: u64::from(cut % 4) * 64,
        })
        .collect()
}

fn tiny_graph() -> TaskGraph {
    let mut g = TaskGraph::new("search-prop");
    let io = Resources::new(30_000, 60_000, 60, 0, 20);
    let rd = g.add_task(Task::hbm_read("rd", io, 0, 512, 65_536).with_total_blocks(64));
    let wr = g.add_task(Task::hbm_write("wr", io, 1, 512, 65_536).with_total_blocks(64));
    g.add_fifo(Fifo::new("f", rd, wr, 512).with_block_bytes(65_536));
    g
}

/// An `n`-point grid whose points carry unique labels but are never
/// actually compiled — the synthetic rung executors below score them
/// directly by grid index.
fn synthetic_grid(n: usize) -> DseConfig {
    let cluster = Cluster::single_node(Device::u55c(), 4, Topology::Ring);
    let mut cfg = DseConfig::new("synthetic", tiny_graph(), cluster);
    cfg.cluster_shapes = (1..=n.max(1)).collect();
    cfg.partition_thresholds = vec![0.8];
    cfg.slot_thresholds = vec![0.9];
    cfg
}

/// Builds the outcome a synthetic rung executor reports for grid index
/// `idx`.
fn synthetic_outcome(
    grid: &DseConfig,
    idx: usize,
    score: Option<DseScore>,
    degraded: bool,
    budget_expired: bool,
) -> DseOutcome {
    DseOutcome {
        point: grid.point(idx).expect("index inside grid"),
        score,
        degraded: degraded || budget_expired,
        budget_expired,
        error: score.is_none().then(|| "synthetic failure".to_string()),
        wall: Duration::ZERO,
    }
}

fn synthetic_rung(survivors: &[usize], outcome_of: impl Fn(usize) -> DseOutcome) -> RungOutcome {
    RungOutcome {
        outcomes: survivors.iter().map(|&i| (i, outcome_of(i))).collect(),
        threads: 1,
        cache: CacheStats::default(),
        engine: SolveStats::default(),
        wall: Duration::ZERO,
    }
}

/// A ladder config with several rungs and no real budgets (the synthetic
/// executors never expire anything unless told to).
fn ladder_config(eta: usize, seed: u64) -> SearchConfig {
    SearchConfig {
        eta,
        base_budget: Duration::from_secs(1),
        max_budget: Duration::from_secs(27),
        seed,
        min_survivors: 1,
        max_resumes: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full-budget halving: with every point clean at every rung, the
    /// adaptive frontier IS the exhaustive frontier, for any eta/seed.
    #[test]
    fn full_budget_halving_reproduces_the_exhaustive_frontier(
        raw in prop::collection::vec((0u32..100, 0i32..100, 0u32..100), 1..24),
        eta in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        let scores = scores_from(&raw);
        let grid = synthetic_grid(scores.len());
        let cfg = ladder_config(eta, seed);

        let report = explore_adaptive_with(&grid, &cfg, |_, survivors| {
            synthetic_rung(survivors, |i| {
                synthetic_outcome(&grid, i, Some(scores[i]), false, false)
            })
        });

        // Exhaustive frontier, as labels.
        let all: Vec<Option<DseScore>> = scores.iter().copied().map(Some).collect();
        let mut exhaustive: Vec<String> = pareto_frontier(&all)
            .into_iter()
            .map(|i| grid.point(i).unwrap().label())
            .collect();
        exhaustive.sort();

        let mut adaptive: Vec<String> = report
            .final_report
            .frontier
            .iter()
            .map(|&i| report.final_report.outcomes[i].point.label())
            .collect();
        adaptive.sort();

        prop_assert_eq!(&adaptive, &exhaustive,
            "adaptive frontier diverged (eta {}, seed {})\n{}", eta, seed, report.render_table());
        prop_assert!(!report.rungs.is_empty());
        prop_assert_eq!(report.grid_points, scores.len());
        // Determinism: the same inputs replay to the same signature.
        let replay = explore_adaptive_with(&grid, &cfg, |_, survivors| {
            synthetic_rung(survivors, |i| {
                synthetic_outcome(&grid, i, Some(scores[i]), false, false)
            })
        });
        prop_assert_eq!(replay.frontier_signature(), report.frontier_signature());
    }

    /// Promotion hygiene on mixed rungs: degraded and failed points are
    /// never promoted, budget-expired points go to the resume bucket,
    /// and the promotion count matches its target formula.
    #[test]
    fn a_rung_never_promotes_a_degraded_point(
        raw in prop::collection::vec((0u32..100, 0i32..100, 0u32..100, 0u32..6), 1..24),
        eta in 2usize..5,
        seed in 0u64..1_000_000,
        min_survivors in 0usize..4,
    ) {
        let scores = scores_from(&raw.iter().map(|&(f, s, c, _)| (f, s, c)).collect::<Vec<_>>());
        let grid = synthetic_grid(scores.len());
        // fate 0: failed, 1: degraded, 2: budget-expired, 3..: clean.
        let outcomes: Vec<(usize, DseOutcome)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(_, _, _, fate))| {
                let o = match fate {
                    0 => synthetic_outcome(&grid, i, None, false, false),
                    1 => synthetic_outcome(&grid, i, Some(scores[i]), true, false),
                    2 => synthetic_outcome(&grid, i, Some(scores[i]), false, true),
                    _ => synthetic_outcome(&grid, i, Some(scores[i]), false, false),
                };
                (i, o)
            })
            .collect();

        let promo = promote(&outcomes, eta, seed, min_survivors);

        let clean: Vec<usize> = outcomes
            .iter()
            .filter(|(_, o)| o.score.is_some() && !o.degraded && !o.budget_expired)
            .map(|(i, _)| *i)
            .collect();
        let expired: Vec<usize> =
            outcomes.iter().filter(|(_, o)| o.budget_expired).map(|(i, _)| *i).collect();

        // Never promote anything that is not clean.
        for idx in &promo.promoted {
            prop_assert!(clean.contains(idx),
                "promoted {} is degraded/failed/expired", idx);
        }
        // Promoted indices are unique.
        let mut sorted = promo.promoted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), promo.promoted.len());
        // Expired points are exactly the resume candidates.
        prop_assert_eq!(&promo.expired, &expired);
        // Promotion count: max(ceil(clean/eta), frontier, min_survivors),
        // clamped to the clean count.
        let clean_scores: Vec<Option<DseScore>> =
            (0..scores.len()).map(|i| clean.contains(&i).then(|| scores[i])).collect();
        let frontier_len = pareto_frontier(&clean_scores).len();
        let expect = (clean.len().div_ceil(eta))
            .max(frontier_len)
            .max(min_survivors.min(clean.len()))
            .min(clean.len());
        prop_assert_eq!(promo.promoted.len(), expect);
        // The rung frontier always survives.
        for i in pareto_frontier(&clean_scores) {
            prop_assert!(promo.promoted.contains(&i),
                "frontier point {} was not promoted", i);
        }
        // Accounting adds up.
        prop_assert_eq!(
            promo.promoted.len() + promo.cut + promo.expired.len() + promo.dropped,
            outcomes.len()
        );
        // Pure function: same inputs, same order.
        let again = promote(&outcomes, eta, seed, min_survivors);
        prop_assert_eq!(again.promoted, promo.promoted);
    }

    /// Budget-expired points resume for at most `max_resumes` rungs and
    /// are never promoted into the final frontier while still expired.
    #[test]
    fn expired_points_resume_with_bounded_strikes(
        n in 2usize..16,
        eta in 2usize..4,
        seed in 0u64..1_000,
        max_resumes in 0u32..3,
    ) {
        let scores = scores_from(&(0..n).map(|i| (i as u32, 3, 1)).collect::<Vec<_>>());
        let grid = synthetic_grid(n);
        let cfg = SearchConfig { max_resumes, ..ladder_config(eta, seed) };
        // Point 0 never finishes inside any budget; everything else is
        // clean every rung.
        let mut rungs_seen_by_zero = 0u32;
        let report = explore_adaptive_with(&grid, &cfg, |_, survivors| {
            if survivors.contains(&0) {
                rungs_seen_by_zero += 1;
            }
            synthetic_rung(survivors, |i| {
                synthetic_outcome(&grid, i, Some(scores[i]), false, i == 0)
            })
        });
        // Rung 0 plus at most `max_resumes` resumes.
        prop_assert!(rungs_seen_by_zero <= 1 + max_resumes,
            "point 0 ran {} rungs with allowance {}", rungs_seen_by_zero, max_resumes);
        // Still expired at the end: never on the frontier.
        for &i in &report.final_report.frontier {
            prop_assert!(report.final_report.outcomes[i].point.label() != grid.point(0).unwrap().label());
        }
    }
}

fn chain_graph(pes: usize) -> TaskGraph {
    let mut g = TaskGraph::new("dse-search-prop");
    let io = Resources::new(30_000, 60_000, 60, 0, 20);
    let pe = Resources::new(40_000, 80_000, 100, 200, 10);
    let rd = g.add_task(Task::hbm_read("rd", io, 0, 512, 65_536).with_total_blocks(64));
    let mut prev = rd;
    for i in 0..pes {
        let t = g.add_task(
            Task::compute(format!("pe{i}"), pe).with_cycles_per_block(1_000).with_total_blocks(64),
        );
        g.add_fifo(Fifo::new(format!("f{i}"), prev, t, 512).with_block_bytes(65_536));
        prev = t;
    }
    let wr = g.add_task(Task::hbm_write("wr", io, 1, 512, 65_536).with_total_blocks(64));
    g.add_fifo(Fifo::new("out", prev, wr, 512).with_block_bytes(65_536));
    g
}

/// ILP time limit and final rung budget of the compiled ladder test: ones
/// that cannot bind (the benchmark harness's), because a frontier compared
/// across runs means nothing once a deadline has cut a solve off.
const LIMIT_S: u64 = 600;

fn compiled_grid() -> DseConfig {
    let cluster = Cluster::single_node(Device::u55c(), 4, Topology::Ring);
    let mut cfg = DseConfig::new("search-e2e", chain_graph(6), cluster);
    cfg.cluster_shapes = vec![1, 2];
    cfg.partition_thresholds = vec![0.7, 0.9];
    cfg.slot_thresholds = vec![0.9];
    cfg.base.partition.time_limit_s = LIMIT_S as f64;
    cfg.base.floorplan.time_limit_s = LIMIT_S as f64;
    cfg
}

/// Fails on a bound limit itself, before the caller compares signatures.
fn assert_unbound(report: &dse::DseReport, wall: Duration) {
    let clean = report.outcomes.iter().all(|o| !o.degraded);
    assert!(clean, "an ILP limit bound (degraded point):\n{}", report.render_table());
    assert!(wall.as_secs() < LIMIT_S, "{wall:?}, past one ILP's {LIMIT_S} s limit");
}

/// Budgets that cannot bind: nothing expires, so the ladder must reproduce
/// the exhaustive frontier bit-identically across batch worker counts, and
/// the promotion rung must replay cached solves.
#[test]
fn compiled_ladder_matches_exhaustive_across_batch_threads() {
    let exhaustive = dse::explore(&compiled_grid());
    assert_unbound(&exhaustive, exhaustive.wall);
    assert!(!exhaustive.frontier.is_empty(), "{}", exhaustive.render_table());
    let signature = exhaustive.frontier_signature();

    // Rung budgets 200 / 400 / 600 s.
    let search = SearchConfig {
        eta: 2,
        base_budget: Duration::from_secs(LIMIT_S / 3),
        max_budget: Duration::from_secs(LIMIT_S),
        min_survivors: 1,
        ..SearchConfig::default()
    };

    let mut resume_rung_hits = 0u64;
    for threads in [1usize, 2, 4] {
        let mut grid = compiled_grid();
        grid.threads = threads;
        let report = explore_adaptive(&grid, &search);
        let expired: usize = report.rungs.iter().map(|r| r.budget_expired).sum();
        assert_eq!(expired, 0, "generous budgets must not expire");
        assert_unbound(&report.final_report, report.wall);
        assert_eq!(
            report.frontier_signature(),
            signature,
            "ladder diverged at {threads} threads\n{}",
            report.render_table()
        );
        assert!(report.rungs.len() >= 2, "expected a multi-rung ladder");
        resume_rung_hits += report.rungs.last().unwrap().cache.hits;
    }
    // Promoted points resume from the solve cache: the final rung replays
    // earlier rungs' solves as hits (global in-process cache).
    assert!(resume_rung_hits > 0, "promotion rungs never hit the solve cache");
}
