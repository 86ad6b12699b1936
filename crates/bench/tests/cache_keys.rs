//! Every solve-cache entry the DSE smoke sweep saves reads back as its
//! model: the key decodes (`DecodedKey::parse`), writes the same bytes
//! again, and the decoded model certifies the stored answer. The sweep
//! runs with ILP limits that cannot bind, as `dse_pin.rs` runs it.

use tapacs_apps::suite::{self, Benchmark};
use tapacs_core::dse::explore;
use tapacs_ilp::{certify, DecodedKey, SolveCache};

#[test]
fn every_saved_entry_decodes_to_a_model_that_certifies_its_answer() {
    let mut config = suite::dse_grid(Benchmark::Stencil, true);
    config.base.partition.time_limit_s = 600.0;
    config.base.floorplan.time_limit_s = 600.0;
    SolveCache::global().clear();
    let report = explore(&config);
    assert_eq!(report.degraded(), 0, "an ILP limit bound: {}", report.render_table());

    let dir = std::env::temp_dir().join(format!("tapacs-cache-keys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = SolveCache::file_in(&dir);
    SolveCache::global().save_to(&file).unwrap();
    let saved = SolveCache::new();
    saved.load_from(&file).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let entries = saved.entries();
    assert!(entries.len() >= 10, "{} entries", entries.len());
    for (key, answer) in &entries {
        let decoded = DecodedKey::parse(key).unwrap_or_else(|e| panic!("{e}"));
        assert!(decoded.model.canonical_key(&decoded.config, &decoded.options) == *key);
        certify(&decoded.model, &decoded.config, answer).unwrap_or_else(|e| panic!("{e}"));
    }
}
