//! Seeded input variation.
//!
//! `--seed S` scales each task's `cycles_per_block` — the per-block compute
//! latency the simulator executes — by an independent SplitMix64-derived
//! factor. Seed 0 is the identity (the canonical paper design).
//!
//! The seed deliberately leaves the resource profiles, and with them every
//! ILP, alone: branch and bound is chaotic in its coefficients. Measured
//! with per-task LUT/FF/BRAM/DSP/URAM factors of ±2 %, ±0.2 % and ±0.02 %,
//! one `cnn-wide-lp` compile took 2.96–8.93 s and one `dse-cold` sweep
//! 0.38–4.12 s across seeds (seed 0: 7.1 s and 2.7 s) at every amplitude,
//! and the cnn critical delay moved 3.36–4.36 ns. A run fits a handful of
//! such compiles, so the draw would swamp any code change the benchmark is
//! there to resolve (see the README's seed section).

use tapacs_graph::TaskGraph;

/// Half-width of the per-task factor: factors lie in
/// `[1 - AMPLITUDE, 1 + AMPLITUDE]`.
pub const AMPLITUDE: f64 = 0.02;

/// One SplitMix64 output for the stream position `(seed, index)`.
pub fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The factor of task `index` under `seed`, in
/// `[1 - AMPLITUDE, 1 + AMPLITUDE]`; exactly 1 for seed 0.
pub fn factor(seed: u64, index: usize) -> f64 {
    if seed == 0 {
        return 1.0;
    }
    // 53 uniform bits → [0, 1).
    let unit = (splitmix64(seed, index as u64) >> 11) as f64 / (1u64 << 53) as f64;
    1.0 - AMPLITUDE + 2.0 * AMPLITUDE * unit
}

/// Scales every task's `cycles_per_block` by its [`factor`], rounding to
/// the nearest cycle (never below one).
pub fn apply(graph: &mut TaskGraph, seed: u64) {
    if seed == 0 {
        return;
    }
    for id in graph.task_ids() {
        let task = graph.task_mut(id);
        let scaled = (task.cycles_per_block as f64 * factor(seed, id.index())).round();
        task.cycles_per_block = (scaled as u64).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapacs_fpga::Resources;
    use tapacs_graph::Task;

    fn demo() -> TaskGraph {
        let mut g = TaskGraph::new("demo");
        for i in 0..40 {
            let r = Resources::new(50_000, 90_000, 40, 100, 0);
            g.add_task(Task::compute(format!("t{i}"), r).with_cycles_per_block(4_096));
        }
        g
    }

    #[test]
    fn seed_zero_is_the_identity() {
        let mut g = demo();
        apply(&mut g, 0);
        assert_eq!(g, demo());
        assert_eq!(factor(0, 17), 1.0);
    }

    #[test]
    fn equal_seeds_give_equal_graphs_and_distinct_seeds_differ() {
        let (mut a, mut b, mut c) = (demo(), demo(), demo());
        apply(&mut a, 7);
        apply(&mut b, 7);
        apply(&mut c, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, demo());
    }

    #[test]
    fn factors_stay_inside_the_amplitude_and_resources_are_untouched() {
        for seed in 1..50 {
            for index in 0..200 {
                let f = factor(seed, index);
                assert!((1.0 - AMPLITUDE..=1.0 + AMPLITUDE).contains(&f), "{f}");
            }
        }
        let (mut g, canonical) = (demo(), demo());
        apply(&mut g, 3);
        for id in g.task_ids() {
            assert_eq!(g.task(id).resources, canonical.task(id).resources);
            assert!(g.task(id).cycles_per_block.abs_diff(4_096) <= 82);
        }
    }
}
