//! The solve-cache bytes and the frontier of the DSE smoke sweep, pinned.
//!
//! A refactor underneath the compiler (how `Model` keeps its rows, how
//! presolve hands the reduced LP to the engines, how the floorplanner
//! refines) must leave every answer, every cache key and every cache
//! entry as it was. This test runs the smoke sweep with ILP limits that
//! cannot bind, so nothing depends on machine speed, and compares the
//! frontier signature, the length of the saved cache file and the file's
//! trailing checksum word with the values the code had when the pin was
//! recorded. A change that moves one of them on purpose (a new row in the
//! split model, a new search rule) updates the pin here and says so in
//! CHANGES.md.
//!
//! A second pin holds the solver's work on the same sweep: the full
//! `SolveStats` of a cold run on one batch worker and one solver thread,
//! as the sweep's report carries it. With two batch workers the count
//! moves from run to run (concurrent jobs can both miss one cache key and
//! both solve it), so only the serial sweep is pinned.

use std::sync::Mutex;

use tapacs_apps::suite::{self, Benchmark};
use tapacs_core::dse::{explore, DseConfig};
use tapacs_ilp::{SolveCache, SolveStats};

/// The smoke sweep's frontier signature.
const SIGNATURE: &str = "F1/T0.700/S0.900=4072c00000000000/3fd6eb80ba9e5122/0;\
     F1/T0.850/S0.900=4072c00000000000/3fd6eb80ba9e5122/0;\
     F2/T0.700/S0.900=4072c00000000000/3fe374a69b754b46/32;\
     F2/T0.850/S0.900=4072c00000000000/3fe374a69b754b46/32";
/// Length in bytes of the saved cache file.
const FILE_BYTES: usize = 247_321;
/// The file's trailing checksum word, little-endian.
const CHECKSUM: u64 = 0xb1f3_048d_8520_fc9c;

/// Both tests clear and fill the process-wide solve cache; they run one at
/// a time.
static GLOBALS: Mutex<()> = Mutex::new(());

/// The smoke sweep with ILP limits that cannot bind.
fn smoke_grid() -> DseConfig {
    let mut config = suite::dse_grid(Benchmark::Stencil, true);
    config.base.partition.time_limit_s = 600.0;
    config.base.floorplan.time_limit_s = 600.0;
    config
}

#[test]
fn dse_smoke_sweep_answers_and_cache_bytes_are_pinned() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let config = smoke_grid();
    let cache = SolveCache::global();
    cache.clear();
    let report = explore(&config);
    assert_eq!(report.degraded(), 0, "an ILP limit bound: {}", report.render_table());
    assert_eq!(report.frontier_signature(), SIGNATURE);

    let dir = std::env::temp_dir().join(format!("tapacs-dse-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = SolveCache::file_in(&dir);
    cache.save_to(&file).unwrap();
    let bytes = std::fs::read(&file).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let seal = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    assert_eq!((bytes.len(), seal), (FILE_BYTES, CHECKSUM), "seal {seal:#018x}");
}

#[test]
fn dse_smoke_sweep_solver_counters_are_pinned() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = smoke_grid();
    config.threads = 1;
    config.base.solver.threads = 1;
    SolveCache::global().clear();
    let report = explore(&config);
    assert_eq!(report.degraded(), 0, "an ILP limit bound: {}", report.render_table());
    let pinned = SolveStats {
        lp_solves: 466,
        simplex_iterations: 4_810,
        phase1_iterations: 1_744,
        warm_attempts: 449,
        warm_hits: 449,
        lu_factorizations: 248,
        lu_fill_nnz: 322_451,
        eta_updates: 4_787,
        eta_nnz: 163_367,
        memo_sibling_hits: 218,
        bb_nodes: 258,
        range_pruned: 13,
        candidate_nodes: 28,
        presolve_runs: 17,
        presolve_rows_removed: 272,
        presolve_cols_fixed: 66,
        presolve_bounds_tightened: 66,
        ..SolveStats::default()
    };
    assert_eq!(report.engine, pinned);
}
