//! `reproduce dse-search`: the adaptive successive-halving DSE
//! experiment — the in-process ladder of `tapacs_core::dse::search`
//! against the exhaustive sweep of the same named grid
//! ([`tapacs_apps::suite::dse_search_grid`]), with cache-resumed
//! promotion across runs through a persisted solve-cache directory.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use tapacs_apps::suite::dse_search_grid;
use tapacs_core::dse::search::{explore_adaptive, SearchConfig, SearchReport};
use tapacs_core::dse::{self, compile_indexed};
use tapacs_ilp::SolveCache;

use crate::reproduce::CacheDir;

type BoxError = Box<dyn std::error::Error>;

/// The ladder tuning per named grid. Small smoke grids get budgets no point
/// can exhaust (the run asserts bit-identity with the exhaustive sweep,
/// and a deadline trip is machine-speed dependent); the generated 10k
/// grid gets real truncating budgets — that is where the wall-clock win
/// lives, so only aggregate walls are compared there.
pub fn search_config_for(spec: &str) -> SearchConfig {
    match spec {
        // A wide, aggressive ladder: rungs [0.1 s, 2.5 s, 30 s] with a
        // hard rung-0 cutoff (`max_resumes: 0`). The 10k grid's heavy
        // tail — the tight-threshold band, ~38% of the grid — costs
        // 0.3–2 s per point at full effort while the cheap points
        // amortise to milliseconds through the shared solve cache, so
        // *completing* the tail at any budget costs more than the whole
        // rest of the ladder. Classic ASHA economics: one 100 ms probe
        // per point, survivors replay from cache, stragglers are dropped
        // and honestly reported (their score tuples duplicate surviving
        // frontier ties on this grid — see the README knob table for the
        // coverage tradeoff).
        "stencil-10k" => SearchConfig {
            eta: 25,
            base_budget: Duration::from_millis(100),
            max_budget: Duration::from_secs(30),
            min_survivors: 4,
            max_resumes: 0,
            ..SearchConfig::default()
        },
        "stencil-full" => SearchConfig {
            eta: 2,
            base_budget: Duration::from_secs(8),
            max_budget: Duration::from_secs(30),
            min_survivors: 1,
            ..SearchConfig::default()
        },
        _ => SearchConfig {
            eta: 2,
            base_budget: Duration::from_secs(10),
            max_budget: Duration::from_secs(30),
            min_survivors: 1,
            ..SearchConfig::default()
        },
    }
}

/// Exhaustive-side reference for the comparison half of the experiment.
enum Exhaustive {
    /// Small grid, actually swept: signature + wall.
    Full {
        /// The exhaustive sweep's frontier signature.
        signature: String,
        /// The exhaustive sweep's wall-clock.
        wall: Duration,
    },
    /// Large grid, extrapolated from a seeded full-effort sample.
    Extrapolated {
        /// Sampled point count.
        sample: usize,
        /// Wall-clock of compiling the sample at full effort.
        sample_wall: Duration,
        /// `sample_wall × (grid / sample)` — the extrapolated exhaustive wall.
        estimate: Duration,
    },
}

/// Deterministic sample of `k` grid indices (SplitMix64 driven), used to
/// extrapolate the exhaustive wall on grids too large to sweep.
fn sample_indices(n: usize, k: usize, mut seed: u64) -> Vec<usize> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order.truncate(k.min(n));
    order.sort_unstable();
    order
}

/// Runs the adaptive ladder over `spec` plus its exhaustive reference.
/// The exhaustive side always runs cold; the ladder warm-starts from
/// whatever `dir` already persists (a rejected file is noted in `log`)
/// and persists its cache back. Returns the preloaded entry count too.
///
/// # Errors
///
/// An unknown grid, compile failures (a degraded point on a bit-compared
/// grid, an all-failed sample) and cache-persistence I/O failures.
fn run_search(
    spec: &str,
    dir: &CacheDir,
    log: &mut String,
) -> Result<(SearchReport, Exhaustive, u64), BoxError> {
    let grid = dse_search_grid(spec).ok_or_else(|| format!("unknown dse-search grid: {spec}"))?;
    let cache = SolveCache::global();

    // Exhaustive reference first, always cold, so neither side of the
    // comparison borrows the other's cache entries.
    cache.clear();
    let exhaustive = if grid.num_points() > 1000 {
        let sample = sample_indices(grid.num_points(), 64, 0x5eed);
        let t0 = Instant::now();
        let (outcomes, _) = compile_indexed(&grid, &sample, None);
        let sample_wall = t0.elapsed();
        let failed = outcomes.iter().filter(|o| o.score.is_none()).count();
        if failed == sample.len() {
            return Err("exhaustive sample: every sampled point failed".into());
        }
        let estimate = sample_wall.mul_f64(grid.num_points() as f64 / sample.len() as f64);
        Exhaustive::Extrapolated { sample: sample.len(), sample_wall, estimate }
    } else {
        let report = dse::explore(&grid);
        ensure_none_degraded("exhaustive sweep", &report)?;
        Exhaustive::Full { signature: report.frontier_signature(), wall: report.wall }
    };

    // Adaptive ladder, cold in memory but warm-started from whatever the
    // cache dir already persists (the cross-run resume path).
    cache.clear();
    let preloaded = dir.preload(log);
    let report = explore_adaptive(&grid, &search_config_for(spec));
    cache.save_to(&dir.file())?;
    if matches!(exhaustive, Exhaustive::Full { .. }) {
        ensure_none_degraded("adaptive ladder's final rung", &report.final_report)?;
    }
    Ok((report, exhaustive, preloaded))
}

/// The small grids' frontiers are compared bit for bit, which means nothing
/// once an ILP limit has bound — so that is the error, not the signature
/// mismatch it would cause.
fn ensure_none_degraded(what: &str, report: &dse::DseReport) -> Result<(), BoxError> {
    match report.degraded() {
        0 => Ok(()),
        n => Err(format!(
            "{what}: {n} point(s) degraded (an ILP limit bound), no frontier to compare"
        )
        .into()),
    }
}

/// The printable frontier signature: verbatim for the small smoke grids
/// (the smoke tests compare these lines across runs), condensed
/// to an FNV-1a digest + token count for wide generated grids, where the
/// full signature runs to hundreds of kilobytes. The digest is the same
/// cross-run comparison key — equal digests for equal signatures.
fn signature_line(report: &SearchReport) -> String {
    let sig = report.frontier_signature();
    if sig.len() <= 2048 {
        return sig;
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in sig.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{hash:016x} over {} frontier point(s)", report.final_report.frontier.len())
}

/// Hit rate across the resume rungs (index ≥ 1): the fraction of their
/// solves replayed from the cache instead of re-solved.
fn resume_hit_rate(report: &SearchReport) -> f64 {
    let (mut hits, mut total) = (0u64, 0u64);
    for rung in report.rungs.iter().skip(1) {
        hits += rung.cache.hits;
        total += rung.cache.hits + rung.cache.misses;
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// The `reproduce dse-search` experiment: adaptive ladder vs exhaustive
/// sweep over a named grid, with cache-resumed promotion. `cache_dir`
/// (else `TAPACS_CACHE_DIR`) persists the solve cache across runs.
///
/// # Errors
///
/// A frontier-signature mismatch on the small grids and a zero resume hit
/// rate are errors — the determinism contract is asserted, not footnoted.
pub fn dse_search(
    smoke: bool,
    grid_override: Option<&str>,
    cache_dir: Option<&Path>,
) -> Result<String, BoxError> {
    let spec = grid_override.unwrap_or(if smoke { "stencil-smoke" } else { "stencil-full" });
    let dir = CacheDir::resolve(cache_dir, "dse-search")?;

    let mut s = String::from("Adaptive successive-halving DSE over the batch engine\n");
    let _ = writeln!(s, "grid: {spec}; cache dir: {} ({})", dir.dir.display(), dir.source);

    let (report, exhaustive, preloaded) = run_search(spec, &dir, &mut s)?;
    let _ = writeln!(s, "persisted cache preloaded: {preloaded} entries");
    s.push_str(&report.render_table());

    let resume = resume_hit_rate(&report);
    let _ = writeln!(s, "cache-resume hit rate (rungs >= 2): {:.1}%", resume * 100.0);
    if report.rungs.len() >= 2 && resume == 0.0 {
        return Err("promotion rungs replayed nothing from the solve cache".into());
    }

    match exhaustive {
        Exhaustive::Full { signature, wall } => {
            let identical = signature == report.frontier_signature();
            let _ = writeln!(s, "frontier signature: {}", signature_line(&report));
            let _ = writeln!(
                s,
                "matches exhaustive frontier: {}",
                if identical { "yes (bit-identical)" } else { "NO" }
            );
            let _ = writeln!(
                s,
                "exhaustive vs adaptive wall: {:.3}s vs {:.3}s ({:.2}x, {} vs {} compiles)",
                wall.as_secs_f64(),
                report.wall.as_secs_f64(),
                wall.as_secs_f64() / report.wall.as_secs_f64().max(1e-9),
                report.grid_points,
                report.total_compiles,
            );
            if !identical {
                return Err(format!(
                    "adaptive frontier diverged from the exhaustive sweep on {spec}: {} vs {signature}",
                    report.frontier_signature()
                )
                .into());
            }
        }
        Exhaustive::Extrapolated { sample, sample_wall, estimate } => {
            let _ = writeln!(s, "frontier signature: {}", signature_line(&report));
            let ratio = report.wall.as_secs_f64() / estimate.as_secs_f64().max(1e-9);
            let _ = writeln!(
                s,
                "exhaustive (extrapolated from {sample} full-effort points, {:.3}s sample) vs adaptive wall: {:.3}s vs {:.3}s",
                sample_wall.as_secs_f64(),
                estimate.as_secs_f64(),
                report.wall.as_secs_f64(),
            );
            let _ = writeln!(
                s,
                "adaptive wall is {:.1}% of extrapolated exhaustive ({:.2}x speedup, {} compiles vs {} points)",
                ratio * 100.0,
                1.0 / ratio.max(1e-9),
                report.total_compiles,
                report.grid_points,
            );
        }
    }

    dir.finish(&mut s);
    Ok(s)
}
