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
//!
//! Beside them, fixed cases: every bit flip and every truncation of one
//! small file, a stale format version, and a stored answer that fails its
//! certificate.

use std::path::PathBuf;
use std::sync::Mutex;

use proptest::prelude::*;
use tapacs_ilp::{
    CacheFileError, LinExpr, Model, Sense, Solution, SolveCache, SolverConfig, SolverOptions,
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

/// Solves every model through the global cache (the degradation ladder
/// off, so every answer is the search's).
fn solve_all(models: &[Model]) -> Vec<Solution> {
    let cfg = SolverConfig::default();
    let options = SolverOptions { degrade: false, ..SolverOptions::default() };
    models
        .iter()
        .map(|m| m.solve_with_options(&cfg, &options).expect("all-zeros is feasible"))
        .collect()
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
        let ms = models(&items, &caps);
        let originals = solve_all(&ms);

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
        let replayed = solve_all(&ms);
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
        let ms = models(&items, &caps);
        let originals = solve_all(&ms);

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
        let cold = solve_all(&ms);
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

/// The cache file's trailing checksum, restated here so a test can re-seal
/// a file it has edited: FNV-1a's `(h ^ w) · prime` step over little-endian
/// `u64` words (a short last one zero-padded). Whole 32-byte blocks feed
/// four chains, word `i % 4` to chain `i % 4`; then the chains, the words
/// left and the length fold into one.
fn checksum(bytes: &[u8]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let step = |h: u64, w: &[u8]| {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        (h ^ u64::from_le_bytes(word)).wrapping_mul(0x100_0000_01b3)
    };
    let blocks = bytes.len() / 32 * 32;
    let mut lanes = [BASIS; 4];
    for (i, word) in bytes[..blocks].chunks(8).enumerate() {
        lanes[i % 4] = step(lanes[i % 4], word);
    }
    let h = lanes.iter().fold(BASIS, |h, lane| step(h, &lane.to_le_bytes()));
    let h = bytes[blocks..].chunks(8).fold(h, step);
    step(h, &(bytes.len() as u64).to_le_bytes())
}

/// Replaces the trailing checksum of an edited file with the right one.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let seal = checksum(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&seal);
}

/// `<path>.quarantined`, where a rejected file is moved.
fn quarantine_of(path: &std::path::Path) -> PathBuf {
    PathBuf::from(format!("{}.quarantined", path.display()))
}

/// A well-formed file of the previous format version — sealed with the
/// byte-serial FNV-1a checksum that v6 replaced — must be rejected as
/// `BadVersion`, not merged. The test re-seals the v5-labelled file with
/// this build's checksum, so the version alone rejects it.
#[test]
fn previous_version_file_is_rejected_as_stale() {
    let _serial = GLOBAL_CACHE.lock().unwrap();
    let cache = SolveCache::global();
    cache.clear();
    solve_all(&[knapsack(&[6, 10, 12], &[1, 2, 3], 5)]);
    let path = tmp_file("stale-v5", 0);
    assert_eq!(cache.save_to(&path).unwrap(), 1);

    // Header: 8-byte magic, then the little-endian u32 version.
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[8..12], 6u32.to_le_bytes(), "this build writes format version 6");
    bytes[8..12].copy_from_slice(&5u32.to_le_bytes());
    reseal(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();

    let target = SolveCache::new();
    let err = target.load_from(&path).expect_err("a v5 file must not load");
    assert!(matches!(err, CacheFileError::BadVersion { found: 5, expected: 6 }), "{err}");
    assert_eq!(target.stats().entries, 0, "rejection must not merge anything");
    let quarantined = quarantine_of(&path);
    assert!(quarantined.exists() && !path.exists(), "stale file is moved aside");
    let _ = std::fs::remove_file(&quarantined);
}

/// On a small file, every single-bit flip and every truncation is
/// rejected: nothing is merged and the damaged file is quarantined.
#[test]
fn every_bit_flip_and_every_truncation_of_a_small_file_is_rejected() {
    let path = tmp_file("exhaustive", 0);
    {
        let _serial = GLOBAL_CACHE.lock().unwrap();
        let cache = SolveCache::global();
        cache.clear();
        solve_all(&[knapsack(&[6, 10, 12], &[1, 2, 3], 5)]);
        cache.save_to(&path).unwrap();
    }
    let good = std::fs::read(&path).unwrap();
    assert_eq!(SolveCache::new().load_from(&path).unwrap(), 1, "the intact file loads");

    let target = SolveCache::new();
    let quarantined = quarantine_of(&path);
    let reject = |damaged: &[u8], what: &str| {
        std::fs::write(&path, damaged).unwrap();
        let err = target.load_from(&path).expect_err(what);
        assert!(!matches!(err, CacheFileError::Io(_)), "{what}: {err}");
        assert_eq!((target.stats().entries, target.stats().loads), (0, 0), "{what} merged");
        assert!(!path.exists(), "{what}: the file must be moved aside");
        assert_eq!(std::fs::read(&quarantined).unwrap(), damaged, "{what}: quarantine");
    };
    for bit in 0..good.len() * 8 {
        let mut flipped = good.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        reject(&flipped, &format!("bit {bit} flipped"));
    }
    for len in 0..good.len() {
        reject(&good[..len], &format!("truncated to {len} bytes"));
    }
    let _ = std::fs::remove_file(&quarantined);
}

/// A stored answer that fails its certificate is dropped when served and
/// replaced by a fresh solve's, instead of degrading the caller on every
/// later lookup and being written back by the next save.
#[test]
fn an_entry_that_fails_its_certificate_is_replaced_by_a_fresh_answer() {
    let _serial = GLOBAL_CACHE.lock().unwrap();
    let cache = SolveCache::global();
    cache.clear();
    let model = knapsack(&[6, 10, 12], &[1, 2, 3], 5);
    let config = SolverConfig::default();
    let options = SolverOptions { threads: 1, ..SolverOptions::default() };
    let cold = model.solve_with_options(&config, &options).unwrap();
    let path = tmp_file("uncertified", 0);
    assert_eq!(cache.save_to(&path).unwrap(), 1);
    let good = std::fs::read(&path).unwrap();

    // The entry ends with the values, one f64 per variable, before the
    // checksum: make the last binary 0.5 and re-seal the file.
    let mut bad = good.clone();
    let last = bad.len() - 16;
    bad[last..last + 8].copy_from_slice(&0.5f64.to_bits().to_le_bytes());
    reseal(&mut bad);
    std::fs::write(&path, &bad).unwrap();

    cache.clear();
    assert_eq!(cache.load_from(&path).unwrap(), 1, "the checksum holds");
    let first = model.solve_with_options(&config, &options).unwrap();
    assert_eq!(first, cold, "the cold answer, not the stored one");
    assert!(!first.degraded);

    let before = cache.stats();
    let second = model.solve_with_options(&config, &options).unwrap();
    let after = cache.stats();
    assert_eq!(second, cold);
    assert_eq!((after.hits - before.hits, after.misses - before.misses), (1, 0));
    // The corrected entry is what the next save writes.
    cache.save_to(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), good);
    let _ = std::fs::remove_file(&path);
}
