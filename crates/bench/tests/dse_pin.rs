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

use tapacs_apps::suite::{self, Benchmark};
use tapacs_core::dse::explore;
use tapacs_ilp::SolveCache;

/// The smoke sweep's frontier signature.
const SIGNATURE: &str = "F1/T0.700/S0.900=4072c00000000000/3fd6eb80ba9e5122/0;\
     F1/T0.850/S0.900=4072c00000000000/3fd6eb80ba9e5122/0;\
     F2/T0.700/S0.900=4072c00000000000/3fe374a69b754b46/32;\
     F2/T0.850/S0.900=4072c00000000000/3fe374a69b754b46/32";
/// Length in bytes of the saved cache file.
const FILE_BYTES: usize = 235_677;
/// The file's trailing checksum word, little-endian.
const CHECKSUM: u64 = 0x631a_1aab_78d9_a7f8;

#[test]
fn dse_smoke_sweep_answers_and_cache_bytes_are_pinned() {
    let mut config = suite::dse_grid(Benchmark::Stencil, true);
    config.base.partition.time_limit_s = 600.0;
    config.base.floorplan.time_limit_s = 600.0;
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
