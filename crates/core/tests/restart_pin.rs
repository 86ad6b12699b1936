//! The solver's work and the design of one compile in the restart regime,
//! pinned.
//!
//! The DSE smoke pin (`crates/bench/tests/dse_pin.rs`) covers small LPs
//! only. This compile is the knn design at its paper size on four FPGAs,
//! where branch-and-bound searches outgrow their kit-off attempt and
//! restart with the fast kit, and the root repair walk runs (and fails)
//! on a partition split of 192 presolved rows. A change to the simplex
//! kernels, the repair walk or the split models that claims to move no
//! work must leave the whole `SolveStats` delta and the design fingerprint
//! as they are; one that moves them on purpose updates the pin here and
//! says so in CHANGES.md.

use std::sync::Arc;

use tapacs_apps::knn::{self, KnnConfig};
use tapacs_apps::suite::paper_cluster;
use tapacs_core::{CompiledDesign, Compiler, CompilerConfig, Flow};
use tapacs_ilp::{SolveActivity, SolveCache, SolveStats};

/// FNV-1a over the task → FPGA assignment, the task → slot placement and
/// the cut width.
fn fingerprint(design: &CompiledDesign) -> u64 {
    let words = design.partition.assignment.iter().map(|&fpga| fpga as u64);
    let slots = design.slot_of_task.iter().flat_map(|s| [s.row as u64, s.col as u64]);
    let cut = std::iter::once(design.partition.cut_width_bits);
    words
        .chain(slots)
        .chain(cut)
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn knn_restart_regime_work_and_design_are_pinned() {
    const LIMIT_S: f64 = 600.0;
    let graph = knn::build(&KnnConfig::paper(4_000_000, 8, 4));
    let mut config = CompilerConfig::default();
    config.solver.threads = 1;
    config.partition.time_limit_s = LIMIT_S;
    config.floorplan.time_limit_s = LIMIT_S;
    SolveCache::global().clear();
    let scope = Arc::new(SolveActivity::default());
    let t0 = std::time::Instant::now();
    let design = SolveActivity::scoped(&scope, || {
        Compiler::with_config(paper_cluster(4), config).compile(&graph, Flow::TapaCs { n_fpgas: 4 })
    })
    .expect("knn compiles on four FPGAs");
    let wall = t0.elapsed().as_secs_f64();
    assert!(!design.degraded, "an ILP limit bound (degraded design)");
    assert!(wall < LIMIT_S, "{wall:.0} s, past one ILP's {LIMIT_S} s limit");
    let work = scope.snapshot();
    let pinned = SolveStats {
        lp_solves: 3_716,
        simplex_iterations: 7_721,
        phase1_iterations: 3_227,
        warm_attempts: 3_702,
        warm_hits: 3_702,
        lu_factorizations: 2_212,
        lu_fill_nnz: 186_279,
        eta_updates: 7_411,
        eta_nnz: 93_712,
        memo_sibling_hits: 1_504,
        bb_nodes: 2_220,
        range_pruned: 694,
        candidate_nodes: 1_328,
        presolve_runs: 12,
        presolve_rows_removed: 193,
        presolve_cols_fixed: 40,
        presolve_bounds_tightened: 40,
        ..SolveStats::default()
    };
    assert_eq!(work, pinned);
    let print = fingerprint(&design);
    assert_eq!(print, 0xa91a_1c67_131f_4ba6, "fingerprint {print:#018x}");
}
