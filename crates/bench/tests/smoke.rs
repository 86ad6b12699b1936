//! Smoke tests for the `reproduce` binary: its default `quick` mode (the
//! static tables, without the full compile/simulate matrix), `list`,
//! `batch --smoke`, and the DSE experiments' three cache-dir sources
//! (`--cache-dir`, `TAPACS_CACHE_DIR`, an ephemeral dir under `TMPDIR`
//! that is removed on every exit).

use std::process::Command;
use std::sync::Mutex;

use tapacs_bench::reproduce as r;

/// `batch`, `dse` and `dse-search` all clear and snapshot the process-global
/// solve cache / LP-engine counters; run them serially, in process or
/// spawned, so none pollutes the numbers or the cores another uses.
static GLOBAL_COUNTERS: Mutex<()> = Mutex::new(());

/// A `reproduce dse` sweep in which an ILP limit bound reports degraded
/// points. That must be the failure, before any frontier is compared: a
/// point cut off in one run and not in the other is not a determinism
/// violation. (`dse-search` returns this as its own error.)
fn assert_no_point_degraded(out: &str) {
    assert!(out.contains(", 0 degraded, "), "an ILP limit bound (degraded DSE point): {out}");
}

/// A fresh, empty directory for a spawned `reproduce` to use as `TMPDIR`,
/// where its ephemeral cache dir goes when `TAPACS_CACHE_DIR` is unset.
fn fresh_tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tapacs-tmpdir-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `reproduce <args>` with `TAPACS_CACHE_DIR` removed and `TMPDIR` set to
/// `tmpdir`, so any cache dir it resolves is the ephemeral one.
fn run_ephemeral(args: &[&str], tmpdir: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .env_remove("TAPACS_CACHE_DIR")
        .env("TMPDIR", tmpdir)
        .output()
        .expect("reproduce binary must run")
}

/// Asserts that `dir` holds nothing (no ephemeral cache dir survived), then
/// removes it.
fn assert_left_empty(dir: &std::path::Path) {
    let left: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert!(left.is_empty(), "reproduce left {left:?} behind in its TMPDIR");
    let _ = std::fs::remove_dir(dir);
}

#[test]
fn quick_renders_all_four_benchmarks() {
    let out = r::quick();
    assert!(!out.is_empty(), "quick() produced no output");
    for name in ["Stencil", "PageRank", "KNN", "CNN"] {
        assert!(out.contains(name), "quick() output is missing benchmark {name:?}");
    }
}

#[test]
fn quick_renders_the_static_tables() {
    let out = r::quick();
    // The static (non-simulated) tables of the paper, in quick()'s order.
    for table in [
        "Table 1", "Table 2", "Table 4", "Table 5", "Table 6", "Table 7", "Table 8", "Table 9",
        "Table 10",
    ] {
        assert!(out.contains(table), "quick() output is missing {table:?}");
    }
    // Deterministic: two renders agree (CI reruns must not flake).
    assert_eq!(out, r::quick());
    // The binary with no argument runs `quick`.
    let bin =
        Command::new(env!("CARGO_BIN_EXE_reproduce")).output().expect("reproduce binary must run");
    assert!(bin.status.success(), "reproduce exited with {:?}", bin.status);
    assert_eq!(String::from_utf8(bin.stdout).unwrap(), format!("{out}\n"));
}

#[test]
fn list_subcommand_prints_every_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("list")
        .output()
        .expect("reproduce binary must run");
    assert!(out.status.success(), "list exited with {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let flagged = ["quick", "all", "batch", "dse", "dse-search"];
    for name in r::EXPERIMENTS.iter().map(|row| row.0).chain(flagged) {
        assert!(stdout.lines().any(|l| l == name), "`reproduce list` output is missing {name:?}");
    }
}

#[test]
fn every_static_experiment_name_dispatches() {
    // Dispatch is a lookup in the same table `list` prints, so a listed
    // name cannot lack an arm; this drives that lookup through the binary
    // on every *static* (non-compiling, sub-second) row in one invocation.
    // An unmatched name would exit 1 with "unknown experiment".
    let static_names: Vec<&str> =
        r::EXPERIMENTS.iter().filter(|row| row.1).map(|row| row.0).collect();
    assert!(!static_names.is_empty(), "no static row in EXPERIMENTS");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(static_names)
        .output()
        .expect("reproduce binary must run");
    assert!(
        out.status.success(),
        "static experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn batch_smoke_reports_speedup_and_determinism() {
    let _serial = GLOBAL_COUNTERS.lock().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["batch", "--smoke"])
        .output()
        .expect("reproduce binary must run");
    assert!(out.status.success(), "batch failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = String::from_utf8(out.stdout).unwrap();
    assert!(out.contains("sharded queue"), "{out}");
    assert!(out.contains("cross-design solve-cache hit rate"), "{out}");
    assert!(out.contains("bit-identical designs"), "{out}");
    assert!(!out.contains("DETERMINISM VIOLATION"), "{out}");
}

#[test]
fn dse_is_listed_and_smoke_runs_in_process() {
    // (`list` printing `dse` is `list_subcommand_prints_every_experiment`'s.)
    let _serial = GLOBAL_COUNTERS.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("tapacs-dse-smoke-{}", std::process::id()));
    let out = r::dse(true, Some(&dir)).expect("dse smoke must run");
    assert_no_point_degraded(&out);
    assert!(out.contains("DSE sweep"), "{out}");
    assert!(out.contains("frontier:"), "{out}");
    assert!(out.contains("disk warm start: no (cold cache)"), "first run starts cold: {out}");
    assert!(out.contains("bit-identical Pareto frontier across both sweeps: yes"), "{out}");
    assert!(!out.contains("DETERMINISM VIOLATION"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance path: a second `reproduce dse --smoke` against a
/// persisted cache dir must start warm (>0% hit rate before any solve of
/// its own is cached) and reproduce the first run's frontier bit for bit.
/// The first run names the dir with `--cache-dir`, the second through
/// `TAPACS_CACHE_DIR`.
#[test]
fn dse_second_run_against_persisted_cache_starts_warm() {
    // Serialize against the compile-heavy in-process tests: on a loaded
    // (especially 1-core) host, concurrent compiles can push a
    // deadline-bound ILP past its budget in one subprocess but not the
    // other, and the anytime incumbent then legitimately differs.
    let _serial = GLOBAL_COUNTERS.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("tapacs-dse-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |command: &mut Command| {
        let out = command.output().expect("reproduce binary must run");
        assert!(out.status.success(), "dse failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let first = run(Command::new(env!("CARGO_BIN_EXE_reproduce")).args([
        "dse",
        "--smoke",
        "--cache-dir",
        dir.to_str().unwrap(),
    ]));
    let second = run(Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["dse", "--smoke"])
        .env("TAPACS_CACHE_DIR", &dir));
    assert_no_point_degraded(&first);
    assert_no_point_degraded(&second);
    assert!(first.contains("disk warm start: no (cold cache)"), "{first}");
    assert!(second.contains("(TAPACS_CACHE_DIR)"), "{second}");
    assert!(second.contains("disk warm start: yes"), "{second}");
    assert!(
        !second.contains("starting solve-cache hit rate: 0.0%"),
        "second run must report a >0% starting hit rate: {second}"
    );
    // Bit-identical frontier across the two *processes*: the printed
    // signature lines must agree exactly.
    let signature = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("frontier signature: "))
            .expect("signature line")
            .to_string()
    };
    assert_eq!(signature(&first), signature(&second), "frontier diverged across processes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With neither `--cache-dir` nor `TAPACS_CACHE_DIR`, `reproduce dse
/// --smoke` still proves its disk round trip in an ephemeral dir under
/// `TMPDIR`, and removes that dir before it exits.
#[test]
fn dse_smoke_without_a_cache_dir_runs_in_an_ephemeral_one() {
    let _serial = GLOBAL_COUNTERS.lock().unwrap();
    let tmpdir = fresh_tmpdir("dse");
    let out = run_ephemeral(&["dse", "--smoke"], &tmpdir);
    assert!(out.status.success(), "dse failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = String::from_utf8(out.stdout).unwrap();
    assert_no_point_degraded(&out);
    assert!(out.contains("(ephemeral)"), "{out}");
    assert!(out.contains("disk warm start: no (cold cache)"), "{out}");
    assert!(out.contains("bit-identical Pareto frontier across both sweeps: yes"), "{out}");
    assert!(out.contains("ephemeral cache dir removed"), "{out}");
    assert_left_empty(&tmpdir);
}

/// An experiment that fails after resolving its ephemeral cache dir (here
/// `dse-search` on an unknown grid) removes the dir on the way out.
#[test]
fn failed_dse_search_leaves_no_ephemeral_cache_dir() {
    let tmpdir = fresh_tmpdir("dse-search-bogus");
    let out = run_ephemeral(&["dse-search", "--grid", "bogus"], &tmpdir);
    assert!(!out.status.success(), "an unknown grid must fail");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown dse-search grid: bogus"), "stderr: {stderr}");
    assert_left_empty(&tmpdir);
}

/// The in-process path: `dse_search` on the smoke grid renders the
/// adaptive DSE table, matches the exhaustive frontier bit for bit and
/// reports the cache-resume hit rate and the exhaustive-vs-adaptive wall.
/// (The name dates from when rungs ran through an in-process shard
/// emulation; each rung is now one in-process batch.)
#[test]
fn dse_search_smoke_matches_exhaustive_with_emulated_shards() {
    let _serial = GLOBAL_COUNTERS.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("tapacs-dse-search-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = tapacs_bench::dse_search::dse_search(true, None, Some(&dir))
        .expect("dse-search smoke must run");
    assert!(out.contains("adaptive DSE"), "{out}");
    assert!(out.contains("matches exhaustive frontier: yes (bit-identical)"), "{out}");
    assert!(out.contains("cache-resume hit rate (rungs >= 2): "), "{out}");
    assert!(!out.contains("cache-resume hit rate (rungs >= 2): 0.0%"), "{out}");
    assert!(out.contains("exhaustive vs adaptive wall:"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance path: two `reproduce dse-search --smoke` runs against
/// one cache dir each match the exhaustive frontier bit for bit, report
/// the cache-resume hit rate and the exhaustive-vs-adaptive wall, agree on
/// the frontier signature, and the second run resumes from the first
/// run's persisted cache. (The name dates from when each run spread its
/// rungs over shard worker processes; each run is now one process.)
#[test]
fn dse_search_sharded_runs_agree_and_resume_from_disk() {
    let _serial = GLOBAL_COUNTERS.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("tapacs-dse-search-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["dse-search", "--smoke", "--cache-dir", dir.to_str().unwrap()])
            .output()
            .expect("reproduce binary must run");
        assert!(
            out.status.success(),
            "dse-search failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let first = run();
    let second = run();
    assert!(first.contains("persisted cache preloaded: 0 entries"), "{first}");
    assert!(!second.contains("persisted cache preloaded: 0 entries"), "{second}");
    for out in [&first, &second] {
        assert!(out.contains("adaptive DSE"), "{out}");
        assert!(out.contains("matches exhaustive frontier: yes (bit-identical)"), "{out}");
        assert!(out.contains("cache-resume hit rate (rungs >= 2): "), "{out}");
        assert!(!out.contains("cache-resume hit rate (rungs >= 2): 0.0%"), "{out}");
        assert!(out.contains("exhaustive vs adaptive wall:"), "{out}");
    }
    let signature = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("frontier signature: "))
            .expect("signature line")
            .to_string()
    };
    assert_eq!(signature(&first), signature(&second), "frontier diverged across runs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt persisted cache file is reported and downgrades both DSE
/// experiments to a cold start instead of failing them or passing silently.
#[test]
fn dse_experiments_report_a_rejected_cache_file_and_run_cold() {
    let _serial = GLOBAL_COUNTERS.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("tapacs-dse-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = tapacs_ilp::SolveCache::file_in(&dir);
    let rejected = "persisted cache rejected (solve-cache file is truncated); starting cold";

    std::fs::write(&file, b"garbage").unwrap();
    let out = tapacs_bench::dse_search::dse_search(true, None, Some(&dir))
        .expect("dse-search must run cold on a rejected cache file");
    assert!(out.contains(rejected), "{out}");
    assert!(out.contains("persisted cache preloaded: 0 entries"), "{out}");
    assert!(out.contains("matches exhaustive frontier: yes (bit-identical)"), "{out}");

    std::fs::write(&file, b"garbage").unwrap();
    let out = r::dse(true, Some(&dir)).expect("dse must run cold on a rejected cache file");
    assert!(out.contains(rejected), "{out}");
    assert!(out.contains("disk warm start: no (cold cache)"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiment_error_mentions_list() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("definitely-not-an-experiment")
        .output()
        .expect("reproduce binary must run");
    assert!(!out.status.success(), "unknown experiment must fail");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment"), "stderr: {stderr}");
    assert!(stderr.contains("reproduce list"), "stderr must point at `list`: {stderr}");
}
