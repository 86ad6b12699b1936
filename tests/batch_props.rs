//! Property-based determinism guarantees of the batch layer, extending
//! the PR 2/3 solver guarantees: batch-compiling a *shuffled* job list at
//! any worker count yields bit-identical `CompiledDesign`s (frequency,
//! placement, slot assignment) to a plain sequential `compile()` loop.

use proptest::prelude::*;
use tapa_cs::core::{BatchCompiler, CompileJob, Compiler, CompilerConfig, Flow};
use tapa_cs::fpga::{Device, Resources};
use tapa_cs::graph::{Fifo, Task, TaskGraph};
use tapa_cs::net::{Cluster, Topology};

/// Deterministic xorshift-ish stream for graph construction/shuffling.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }
}

/// A small random pipeline-with-branches design, compilable on 1-2 FPGAs.
fn random_graph(name: String, rng: &mut Lcg) -> TaskGraph {
    let n = 4 + rng.next() % 8;
    let mut g = TaskGraph::new(name);
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let r = Resources::new(
                (10_000 + rng.next() % 50_000) as u64,
                (20_000 + rng.next() % 100_000) as u64,
                (rng.next() % 60) as u64,
                (rng.next() % 150) as u64,
                (rng.next() % 15) as u64,
            );
            g.add_task(
                Task::compute(format!("t{i}"), r).with_cycles_per_block(500).with_total_blocks(16),
            )
        })
        .collect();
    for i in 1..n {
        let from = rng.next() % i;
        let width = [64u32, 128, 256, 512][rng.next() % 4];
        g.add_fifo(Fifo::new(format!("e{i}"), ids[from], ids[i], width));
    }
    g
}

fn cluster4() -> Cluster {
    Cluster::single_node(Device::u55c(), 4, Topology::Ring)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn shuffled_batch_matches_sequential_loop_at_any_thread_count(seed in any::<u64>()) {
        let mut rng = Lcg(seed | 1);
        let n_jobs = 3 + rng.next() % 4;
        let mut jobs: Vec<CompileJob> = (0..n_jobs)
            .map(|i| {
                let flow = match rng.next() % 3 {
                    0 => Flow::TapaSingle,
                    1 => Flow::TapaCs { n_fpgas: 2 },
                    _ => Flow::TapaCs { n_fpgas: 3 },
                };
                CompileJob::new(format!("job{i}"), random_graph(format!("g{i}"), &mut rng), flow)
            })
            .collect();
        // Shuffle the submission order (Fisher-Yates on the rng stream).
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.next() % (i + 1));
        }

        // Cache OFF on the reference and most batch runs: a warm
        // process-wide cache would answer every batch solve by replay and
        // the bit-identity below would no longer exercise genuinely
        // concurrent solving. One final cached run then covers the
        // replay path too.
        // ILP limits that cannot bind (the benchmark harness's): a design
        // cut off by its deadline is an anytime incumbent, not comparable.
        const LIMIT_S: f64 = 600.0;
        let mut live = CompilerConfig::default();
        live.solver.cache = false;
        live.partition.time_limit_s = LIMIT_S;
        live.floorplan.time_limit_s = LIMIT_S;

        // Reference: a plain sequential compile() loop over the shuffled
        // list.
        let compiler = Compiler::with_config(cluster4(), live.clone());
        let t0 = std::time::Instant::now();
        let reference: Vec<_> =
            jobs.iter().map(|j| compiler.compile(&j.graph, j.flow)).collect();
        let wall = t0.elapsed().as_secs_f64();
        prop_assert!(wall < LIMIT_S, "reference loop took {} s, past one ILP's limit", wall);
        prop_assert!(reference.iter().flatten().all(|d| !d.degraded), "a reference ILP limit bound");

        for (threads, cache) in [(1usize, false), (2, false), (4, false), (2, true)] {
            let mut config = live.clone();
            config.solver.cache = cache;
            let outcome =
                BatchCompiler::with_config(cluster4(), config).threads(threads).compile(jobs.clone());
            let wall = outcome.report.wall.as_secs_f64();
            prop_assert!(wall < LIMIT_S, "batch took {} s, past one ILP's limit", wall);
            prop_assert!(
                outcome.results.iter().flatten().all(|d| !d.degraded),
                "an ILP limit bound at {} threads (cache {})", threads, cache
            );
            prop_assert_eq!(outcome.results.len(), reference.len());
            for (i, (got, want)) in outcome.results.iter().zip(&reference).enumerate() {
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        prop_assert_eq!(
                            &got.placement.fpga_of_task, &want.placement.fpga_of_task,
                            "job {} placement diverged at {} threads (cache {})", i, threads, cache
                        );
                        prop_assert_eq!(
                            &got.slot_of_task, &want.slot_of_task,
                            "job {} slots diverged at {} threads (cache {})", i, threads, cache
                        );
                        prop_assert_eq!(
                            &got.timing.freq_mhz, &want.timing.freq_mhz,
                            "job {} frequency diverged at {} threads (cache {})", i, threads, cache
                        );
                    }
                    (Err(got), Err(want)) => prop_assert_eq!(got, want),
                    (got, want) => prop_assert!(
                        false,
                        "job {} outcome diverged at {} threads (cache {}): {:?} vs {:?}",
                        i, threads, cache, got, want
                    ),
                }
            }
        }
    }
}
