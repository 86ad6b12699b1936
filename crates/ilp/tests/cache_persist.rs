//! Property tests for the disk-persistent solve cache.
//!
//! Invariants over randomly generated model sets:
//! 1. `save → load` round-trips the cache **bit-identically**: re-solving
//!    every model against the reloaded cache hits and returns the exact
//!    solution of the original solve, and re-saving the reloaded cache
//!    reproduces the file byte for byte.
//! 2. A truncated or bit-flipped cache file is rejected with a typed
//!    error — no panic, no partial merge — and solving afterwards produces
//!    exactly the cold-cache results.

use std::path::PathBuf;
use std::sync::Mutex;

use proptest::prelude::*;
use tapacs_ilp::{
    CacheFileError, CachingSolver, LinExpr, Model, ParallelSolver, Sense, Solution, SolveCache,
    Solver, SolverConfig,
};

/// The cache under test is process-global and the harness runs proptest
/// cases from multiple tests concurrently; serialize everything that
/// clears or counts it.
static GLOBAL_CACHE: Mutex<()> = Mutex::new(());

fn tmp_file(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!("tapacs-cache-prop-{}-{tag}-{case}.bin", std::process::id()))
}

/// A small always-feasible knapsack (all-zeros satisfies it).
fn knapsack(values: &[u32], weights: &[u32], cap: u32) -> Model {
    let mut m = Model::new("persist-prop");
    let vars: Vec<_> = (0..values.len()).map(|i| m.binary(format!("x{i}"))).collect();
    let weight = LinExpr::sum(vars.iter().zip(weights).map(|(&v, &w)| LinExpr::term(v, w as f64)));
    m.add_le("cap", weight, cap as f64);
    let value = LinExpr::sum(vars.iter().zip(values).map(|(&v, &c)| LinExpr::term(v, c as f64)));
    m.set_objective(Sense::Maximize, value);
    m
}

/// Distinct random models (distinct caps ⇒ distinct canonical keys).
fn models(items: &[(u32, u32)], caps: &[u32]) -> Vec<Model> {
    let values: Vec<u32> = items.iter().map(|(v, _)| *v).collect();
    let weights: Vec<u32> = items.iter().map(|(_, w)| *w).collect();
    caps.iter().map(|&cap| knapsack(&values, &weights, cap)).collect()
}

fn solve_all(solver: &CachingSolver, models: &[Model]) -> Vec<Solution> {
    let cfg = SolverConfig::default();
    models.iter().map(|m| solver.solve(m, &cfg).expect("all-zeros is feasible")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn save_load_round_trips_bit_identically(
        items in prop::collection::vec((1u32..50, 1u32..30), 2..7),
        caps in prop::collection::vec(1u32..100, 1..5),
        case in 0u64..1_000_000,
    ) {
        let _serial = GLOBAL_CACHE.lock().unwrap();
        let cache = SolveCache::global();
        cache.clear();
        let solver = CachingSolver::new(Box::new(ParallelSolver { threads: 1, ..Default::default() }));
        let ms = models(&items, &caps);
        let originals = solve_all(&solver, &ms);

        let path = tmp_file("roundtrip", case);
        let written = cache.save_to(&path).unwrap();
        prop_assert_eq!(written as usize, cache.stats().entries);
        let bytes = std::fs::read(&path).unwrap();

        // Wipe memory, reload from disk: every solve must now answer from
        // the cache with the *exact* original solution.
        cache.clear();
        let loaded = cache.load_from(&path).unwrap();
        prop_assert_eq!(loaded, written);
        let before = cache.stats();
        let replayed = solve_all(&solver, &ms);
        let after = cache.stats();
        prop_assert_eq!(&replayed, &originals, "reloaded cache must replay bit-identically");
        prop_assert_eq!(after.hits - before.hits, ms.len() as u64,
            "every re-solve must hit the reloaded cache");
        prop_assert_eq!(after.misses, before.misses);

        // And the reloaded cache re-serializes to the identical file.
        let path2 = tmp_file("roundtrip-resave", case);
        cache.save_to(&path2).unwrap();
        prop_assert_eq!(bytes, std::fs::read(&path2).unwrap());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn corrupt_files_rejected_and_results_match_cold_run(
        items in prop::collection::vec((1u32..50, 1u32..30), 2..6),
        caps in prop::collection::vec(1u32..80, 1..4),
        damage_at in 0.0f64..1.0,
        flip_bit in 0u8..8,
        truncate in 0u8..2,
        case in 0u64..1_000_000,
    ) {
        let _serial = GLOBAL_CACHE.lock().unwrap();
        let cache = SolveCache::global();
        cache.clear();
        let solver = CachingSolver::new(Box::new(ParallelSolver { threads: 1, ..Default::default() }));
        let ms = models(&items, &caps);
        let originals = solve_all(&solver, &ms);

        let path = tmp_file("corrupt", case);
        cache.save_to(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Damage the file at a random position: truncate there, or flip
        // one bit there.
        let pos = ((good.len() as f64 * damage_at) as usize).min(good.len() - 1);
        let damaged = if truncate == 1 {
            good[..pos].to_vec()
        } else {
            let mut d = good.clone();
            d[pos] ^= 1 << flip_bit;
            d
        };
        std::fs::write(&path, &damaged).unwrap();

        cache.clear();
        let result = cache.load_from(&path);
        prop_assert!(result.is_err(), "damaged file must be rejected");
        prop_assert!(matches!(
            result,
            Err(CacheFileError::Truncated
                | CacheFileError::BadChecksum
                | CacheFileError::BadMagic
                | CacheFileError::BadVersion { .. })
        ));
        let stats = cache.stats();
        prop_assert_eq!(stats.entries, 0, "rejection must not merge anything");
        prop_assert_eq!(stats.loads, 0);

        // Solving after the rejection equals the cold-cache run exactly.
        let cold = solve_all(&solver, &ms);
        prop_assert_eq!(&cold, &originals, "post-rejection solves must match the cold run");

        // The rejected file was quarantined — moved to `<name>.quarantined`
        // with the damaged bytes intact — so the next save writes a clean
        // file that loads every entry back.
        let quarantined = {
            let mut t = path.as_os_str().to_os_string();
            t.push(".quarantined");
            PathBuf::from(t)
        };
        prop_assert!(!path.exists(), "rejected file must be moved aside");
        prop_assert!(quarantined.exists(), "rejected file must be quarantined, not deleted");
        prop_assert_eq!(
            std::fs::read(&quarantined).unwrap(),
            damaged,
            "quarantine must preserve the damaged bytes for inspection"
        );
        let saved = cache.save_to(&path).unwrap();
        cache.clear();
        prop_assert_eq!(cache.load_from(&path).unwrap(), saved,
            "post-quarantine save must produce a valid file");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantined);
    }
}

/// FNV-1a 64 — the cache file's trailing checksum, restated here so the
/// test can re-seal a file it has edited.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A well-formed file of the previous format version — written before
/// wide-LP kit-off attempts restarted at their row-node budget — must be
/// rejected as `BadVersion`, not merged: its model bytes are unchanged, so
/// its keys would otherwise serve the old restart rule's equal-cut designs
/// and make a warm sweep disagree with a cold one.
#[test]
fn previous_version_file_is_rejected_as_stale() {
    let _serial = GLOBAL_CACHE.lock().unwrap();
    let cache = SolveCache::global();
    cache.clear();
    let solver = CachingSolver::new(Box::new(ParallelSolver { threads: 1, ..Default::default() }));
    solve_all(&solver, &[knapsack(&[6, 10, 12], &[1, 2, 3], 5)]);
    let path = tmp_file("stale-v4", 0);
    assert_eq!(cache.save_to(&path).unwrap(), 1);

    // Header: 8-byte magic, then the little-endian u32 version.
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[8..12], 5u32.to_le_bytes(), "this build writes format version 5");
    bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
    let body = bytes.len() - 8;
    let seal = fnv1a64(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&seal);
    std::fs::write(&path, &bytes).unwrap();

    let target = SolveCache::new();
    let err = target.load_from(&path).expect_err("a v4 file must not load");
    assert!(matches!(err, CacheFileError::BadVersion { found: 4, expected: 5 }), "{err}");
    assert_eq!(target.stats().entries, 0, "rejection must not merge anything");
    let quarantined = PathBuf::from(format!("{}.quarantined", path.display()));
    assert!(quarantined.exists() && !path.exists(), "stale file is moved aside");
    let _ = std::fs::remove_file(&quarantined);
}
