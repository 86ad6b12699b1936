//! Property tests for the design-space-exploration subsystem.
//!
//! 1. Pareto pruning: no returned frontier point is dominated by *any*
//!    evaluated point, every pruned point is dominated by some frontier
//!    point, and the frontier (as a set) is invariant under permutation of
//!    the evaluated points.
//! 2. End-to-end determinism: `dse::explore` produces the same frontier
//!    signature for batch worker counts 1/2/4 (`DseConfig::threads`), for
//!    solver thread counts 1/2/4 (`SolverOptions::threads`) and for
//!    shuffled grid enumeration orders.

use proptest::prelude::*;
use tapacs_core::dse::{self, pareto_frontier, DseConfig, DseReport, DseScore};
use tapacs_fpga::{Device, Resources};
use tapacs_graph::{Fifo, Task, TaskGraph};
use tapacs_net::{Cluster, Topology};

/// Deterministic Fisher–Yates over `indices`, driven by a SplitMix64-style
/// sequence (the vendored proptest has no shuffle strategy).
fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Small integer-derived scores: exact comparisons, plenty of ties.
fn scores_from(raw: &[(u32, i32, u32, bool)]) -> Vec<Option<DseScore>> {
    raw.iter()
        .map(|&(freq, slack, cut, ok)| {
            ok.then(|| DseScore {
                freq_mhz: f64::from(freq % 8) * 50.0,
                util_slack: f64::from(slack % 5) / 10.0,
                cut_width_bits: u64::from(cut % 4) * 64,
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frontier_is_exactly_the_non_dominated_set(
        raw in prop::collection::vec((0u32..100, 0i32..100, 0u32..100, 0u32..4), 0..24),
    ) {
        let raw: Vec<(u32, i32, u32, bool)> =
            raw.into_iter().map(|(f, s, c, ok)| (f, s, c, ok > 0)).collect();
        let scores = scores_from(&raw);
        let frontier = pareto_frontier(&scores);

        // Frontier indices are ascending, scored, and unique.
        prop_assert!(frontier.windows(2).all(|w| w[0] < w[1]));
        // 1. No frontier point is dominated by any evaluated point.
        for &i in &frontier {
            let si = scores[i].expect("frontier points must be scored");
            for sj in scores.iter().flatten() {
                prop_assert!(!sj.dominates(&si),
                    "frontier point {i} ({si:?}) is dominated by {sj:?}");
            }
        }
        // 2. Every scored non-frontier point is dominated by a frontier point.
        for (i, si) in scores.iter().enumerate() {
            let Some(si) = si else { continue };
            if frontier.contains(&i) {
                continue;
            }
            prop_assert!(
                frontier.iter().any(|&j| scores[j].unwrap().dominates(si)),
                "pruned point {i} ({si:?}) is not dominated by the frontier"
            );
        }
        // 3. Failed points never appear.
        for &i in &frontier {
            prop_assert!(scores[i].is_some());
        }
    }

    #[test]
    fn frontier_is_permutation_invariant(
        raw in prop::collection::vec((0u32..100, 0i32..100, 0u32..100, 0u32..4), 1..20),
        seed in 0u64..1_000_000,
    ) {
        let raw: Vec<(u32, i32, u32, bool)> =
            raw.into_iter().map(|(f, s, c, ok)| (f, s, c, ok > 0)).collect();
        let scores = scores_from(&raw);
        let base: Vec<usize> = pareto_frontier(&scores);

        let order = shuffled(scores.len(), seed);
        let permuted: Vec<Option<DseScore>> = order.iter().map(|&i| scores[i]).collect();
        // Map the permuted frontier back to original indices and compare as
        // sets (frontier order follows enumeration order by design).
        let mut mapped: Vec<usize> =
            pareto_frontier(&permuted).into_iter().map(|i| order[i]).collect();
        mapped.sort_unstable();
        prop_assert_eq!(mapped, base, "frontier changed under permutation {:?}", order);
    }
}

fn chain_graph(pes: usize) -> TaskGraph {
    let mut g = TaskGraph::new("dse-prop");
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

/// ILP time limit of the sweeps below: one that cannot bind (the benchmark
/// harness's), because a signature compared across runs means nothing once
/// a solve has been cut off by its wall-clock deadline.
const LIMIT_S: f64 = 600.0;

fn demo_config() -> DseConfig {
    let cluster = Cluster::single_node(Device::u55c(), 4, Topology::Ring);
    let mut cfg = DseConfig::new("props", chain_graph(6), cluster);
    cfg.cluster_shapes = vec![1, 2];
    cfg.partition_thresholds = vec![0.7, 0.9];
    cfg.slot_thresholds = vec![0.9];
    cfg.base.partition.time_limit_s = LIMIT_S;
    cfg.base.floorplan.time_limit_s = LIMIT_S;
    cfg
}

/// `dse::explore`, failing on a bound limit before anything is compared.
fn explore_unbound(cfg: &DseConfig) -> DseReport {
    let report = dse::explore(cfg);
    let wall = report.wall.as_secs_f64();
    let clean = report.outcomes.iter().all(|o| !o.degraded);
    assert!(clean, "an ILP limit bound (degraded point):\n{}", report.render_table());
    assert!(wall < LIMIT_S, "sweep took {wall:.0} s, past one ILP's {LIMIT_S} s limit");
    report
}

/// The frontier signature is the determinism witness: invariant across
/// batch worker counts (1/2/4) and across grid enumeration orders.
#[test]
fn explore_scores_prunes_and_accounts_for_every_point() {
    let report = dse::explore(&demo_config());
    assert_eq!(report.outcomes.len(), 4);
    assert!(report.succeeded() >= 1, "{}", report.render_table());
    assert!(!report.frontier.is_empty());
    assert_eq!(report.succeeded(), report.frontier.len() + report.dominated());
    assert_eq!(report.failed() + report.succeeded(), 4);
    for &i in &report.frontier {
        let si = report.outcomes[i].score.unwrap();
        for o in &report.outcomes {
            if let Some(sj) = o.score {
                assert!(!sj.dominates(&si), "frontier point {i} is dominated");
            }
        }
    }
    let table = report.render_table();
    assert!(table.contains("frontier:"), "{table}");
    assert!(!report.frontier_signature().is_empty());
}

#[test]
fn explore_frontier_identical_across_threads_and_grid_orders() {
    let base = demo_config();
    let reference = explore_unbound(&base);
    assert!(!reference.frontier.is_empty(), "{}", reference.render_table());
    let signature = reference.frontier_signature();

    for threads in [1usize, 2, 4] {
        let mut cfg = demo_config();
        cfg.threads = threads;
        let report = explore_unbound(&cfg);
        assert_eq!(
            report.frontier_signature(),
            signature,
            "frontier diverged at {threads} batch threads"
        );
    }

    // Solver threads: pricing, dual ratio tests and refactorization
    // triggers are pure functions of the node, never of timing. Cache off,
    // so each count is a live solve rather than a replay of the first.
    for threads in [1usize, 2, 4] {
        let mut cfg = demo_config();
        cfg.base.solver.threads = threads;
        cfg.base.solver.cache = false;
        let report = explore_unbound(&cfg);
        assert_eq!(
            report.frontier_signature(),
            signature,
            "frontier diverged at {threads} solver threads"
        );
    }

    // Shuffled grid orders: reversing every axis reverses the enumeration;
    // the signature (sorted by point label) must not move.
    let mut reversed = demo_config();
    reversed.cluster_shapes.reverse();
    reversed.partition_thresholds.reverse();
    reversed.slot_thresholds.reverse();
    let report = explore_unbound(&reversed);
    assert_eq!(report.frontier_signature(), signature, "frontier depends on grid order");
    assert_eq!(report.outcomes.len(), reference.outcomes.len());
}
