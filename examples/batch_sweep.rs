//! Batch compilation: a multi-design sweep on the sharded work queue.
//!
//! Builds the four paper benchmarks at two cluster sizes each, compiles
//! all eight designs as ONE `BatchCompiler` batch — sharing the solve
//! cache across designs and filling the machine's cores — and prints the
//! per-job outcomes, the per-stage wall-clock totals and the staged view
//! of a single job (per-stage timings + failure attribution).
//!
//! ```sh
//! cargo run --release --example batch_sweep
//! ```
//!
//! The queue runs on all cores; `BatchCompiler::threads(n)` pins it.

use tapa_cs::apps::suite::{build_for, default_param, paper_cluster, suite_config, Benchmark};
use tapa_cs::core::{BatchCompiler, CompileJob, Flow, Stage};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The sweep: every benchmark at F2 and F4.
    let mut jobs = Vec::new();
    for bench in Benchmark::ALL {
        for n_fpgas in [2usize, 4] {
            let flow = Flow::TapaCs { n_fpgas };
            let graph = build_for(bench, flow, default_param(bench));
            jobs.push(
                CompileJob::new(format!("{}/{}", bench.name(), flow.label()), graph, flow)
                    .on_cluster(paper_cluster(n_fpgas)),
            );
        }
    }

    let outcome = BatchCompiler::with_config(paper_cluster(1), suite_config()).compile(jobs);
    print!("{}", outcome.report.render_table());

    // Per-job results arrive in input order; a design that does not fit
    // fails its own slot without aborting the queue.
    println!("\nachieved frequencies:");
    for (result, job) in outcome.results.iter().zip(&outcome.report.jobs) {
        match result {
            Ok(design) => println!("  {:<14} {:>4.0} MHz", job.name, design.design_freq_mhz()),
            Err(e) => println!("  {:<14} failed at {:?}: {e}", job.name, job.failed_stage),
        }
    }

    // The staged view of one job: where the compile time went.
    let stencil = &outcome.report.jobs[0];
    println!("\n{} stage breakdown:", stencil.name);
    for t in &stencil.timings {
        println!("  {:<12} {:>8.3} ms", t.stage.name(), t.wall.as_secs_f64() * 1e3);
    }
    let l1 = stencil.timings.iter().find(|t| t.stage == Stage::Partition);
    if let Some(l1) = l1 {
        println!("  (the paper's L1 overhead is the partition stage: {:?})", l1.wall);
    }
    Ok(())
}
