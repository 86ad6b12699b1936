//! `reproduce dse-search`: the adaptive successive-halving DSE
//! experiment, with optional multi-process rung sharding.
//!
//! The in-process ladder lives in `tapacs_core::dse::search`; this module
//! adds the process-level rung executor: each rung's surviving grid
//! indices are split round-robin across `N` worker processes (the hidden
//! `dse-search-shard` subcommand of the `reproduce` binary), every worker
//! persists its solve-cache shard, and the parent merges the shards via
//! [`SolveCache::merge_from`] between rungs so the next rung's workers
//! warm-start from everything any shard solved.
//!
//! The parent and its workers exchange **grid indices, never designs**: a
//! worker rebuilds the identical grid from its spec name
//! ([`tapacs_apps::suite::dse_search_grid`]) and streams back one line
//! per point with the score's exact f64 bit patterns, so a sharded run is
//! bit-comparable with an unsharded one.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tapacs_apps::suite::dse_search_grid;
use tapacs_core::dse::search::{
    compile_rung_shard, explore_adaptive_with, shard_cache_file, shard_split, RungOutcome,
    RungSpec, SearchConfig, SearchReport,
};
use tapacs_core::dse::{self, DseConfig, DseOutcome, DseScore};
use tapacs_ilp::{cache_dir_from_env, CacheStats, SolveCache};

type BoxError = Box<dyn std::error::Error>;

/// The ladder tuning per named grid. Small CI grids get budgets no point
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

/// One outcome line of the worker protocol:
/// `idx has_score freq_bits slack_bits cut degraded expired wall_ns [error…]`.
/// Scores travel as exact `f64::to_bits` hex so the parent reconstructs
/// the child's outcome bit-for-bit.
fn encode_outcome(idx: usize, o: &DseOutcome) -> String {
    let (has, freq, slack, cut) = match &o.score {
        Some(s) => (1, s.freq_mhz.to_bits(), s.util_slack.to_bits(), s.cut_width_bits),
        None => (0, 0, 0, 0),
    };
    let mut line = format!(
        "{idx} {has} {freq:016x} {slack:016x} {cut} {} {} {}",
        u8::from(o.degraded),
        u8::from(o.budget_expired),
        o.wall.as_nanos(),
    );
    if let Some(e) = &o.error {
        line.push(' ');
        line.push_str(&e.replace('\n', " "));
    }
    line
}

fn decode_outcome(grid: &DseConfig, line: &str) -> Result<(usize, DseOutcome), BoxError> {
    let mut it = line.splitn(9, ' ');
    let mut next = |what: &str| -> Result<&str, BoxError> {
        it.next().ok_or_else(|| format!("shard result line missing {what}: {line:?}").into())
    };
    let idx: usize = next("index")?.parse()?;
    let has_score = next("score flag")? == "1";
    let freq = u64::from_str_radix(next("freq bits")?, 16)?;
    let slack = u64::from_str_radix(next("slack bits")?, 16)?;
    let cut: u64 = next("cut width")?.parse()?;
    let degraded = next("degraded flag")? == "1";
    let budget_expired = next("expired flag")? == "1";
    let wall_ns: u64 = next("wall")?.parse()?;
    let error = it.next().map(str::to_string);
    let point = grid
        .point(idx)
        .ok_or_else(|| format!("shard returned index {idx} outside the {} grid", grid.name))?;
    Ok((
        idx,
        DseOutcome {
            point,
            score: has_score.then(|| DseScore {
                freq_mhz: f64::from_bits(freq),
                util_slack: f64::from_bits(slack),
                cut_width_bits: cut,
            }),
            degraded,
            budget_expired,
            error,
            wall: Duration::from_nanos(wall_ns),
        },
    ))
}

/// Entry point of the hidden `dse-search-shard` subcommand: one rung, one
/// shard, one process. Reads grid indices from `--points`, compiles them
/// under `--budget-ns` (0 = unbudgeted), persists its cache shard and
/// writes the outcome lines to `--out`.
///
/// # Errors
///
/// Malformed arguments, an unknown grid spec and IO failures are fatal —
/// the parent surfaces the worker's stderr.
pub fn run_shard_worker(args: &[String]) -> Result<(), BoxError> {
    let (mut grid_spec, mut shard, mut budget_ns) = (None::<String>, 0usize, 0u64);
    let (mut points_file, mut out_file, mut cache_dir) =
        (None::<PathBuf>, None::<PathBuf>, None::<PathBuf>);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| -> Result<String, BoxError> {
            Ok(it.next().ok_or_else(|| format!("{flag} needs a value"))?.clone())
        };
        match arg.as_str() {
            "--grid" => grid_spec = Some(val("--grid")?),
            "--shard" => shard = val("--shard")?.parse()?,
            "--budget-ns" => budget_ns = val("--budget-ns")?.parse()?,
            "--points" => points_file = Some(val("--points")?.into()),
            "--out" => out_file = Some(val("--out")?.into()),
            "--cache-dir" => cache_dir = Some(val("--cache-dir")?.into()),
            other => return Err(format!("unknown dse-search-shard option: {other}").into()),
        }
    }
    let grid_spec = grid_spec.ok_or("dse-search-shard needs --grid")?;
    let grid = dse_search_grid(&grid_spec)
        .ok_or_else(|| format!("unknown dse-search grid: {grid_spec}"))?;
    let points_file = points_file.ok_or("dse-search-shard needs --points")?;
    let out_file = out_file.ok_or("dse-search-shard needs --out")?;

    let indices: Vec<usize> = std::fs::read_to_string(&points_file)?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::parse)
        .collect::<Result<_, _>>()?;

    // Warm-start from the merged cache of the previous rungs, when the
    // parent has one. A rejected file downgrades to a cold shard.
    let cache = SolveCache::global();
    if let Some(dir) = &cache_dir {
        let merged = SolveCache::file_in(dir);
        if merged.exists() {
            let _ = cache.load_from(&merged);
        }
    }
    let before = cache.stats();
    let budget = (budget_ns > 0).then(|| Duration::from_nanos(budget_ns));
    let (outcomes, report) = compile_rung_shard(&grid, &indices, budget);
    let delta = cache.stats().since(&before);
    if let Some(dir) = &cache_dir {
        cache.save_to(&shard_cache_file(dir, shard))?;
    }

    let mut out = format!("#threads {}\n#cache {} {}\n", report.threads, delta.hits, delta.misses);
    for (&idx, o) in indices.iter().zip(&outcomes) {
        out.push_str(&encode_outcome(idx, o));
        out.push('\n');
    }
    std::fs::write(&out_file, out)?;
    Ok(())
}

/// The multi-process rung executor: spawns one `dse-search-shard` worker
/// per shard, waits for all of them, parses their outcome lines and
/// merges their cache shards (conflict-checked) into the parent's cache,
/// which is then re-persisted so the next rung's workers warm-start.
fn run_rung_sharded(
    worker: &Path,
    grid_spec: &str,
    grid: &DseConfig,
    cfg: &SearchConfig,
    spec: &RungSpec,
    survivors: &[usize],
    dir: &Path,
) -> Result<RungOutcome, BoxError> {
    let t0 = Instant::now();
    let shards = shard_split(survivors, cfg.shards);
    let budget_ns = if spec.is_final { 0 } else { u64::try_from(spec.budget.as_nanos())? };

    let mut children = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        if shard.is_empty() {
            continue;
        }
        let points_file = dir.join(format!("rung-{}.shard-{s}.points", spec.index));
        let out_file = dir.join(format!("rung-{}.shard-{s}.out", spec.index));
        let mut points = String::new();
        for idx in shard {
            let _ = writeln!(points, "{idx}");
        }
        std::fs::write(&points_file, points)?;
        let child = std::process::Command::new(worker)
            .arg("dse-search-shard")
            .args(["--grid", grid_spec])
            .args(["--shard", &s.to_string()])
            .args(["--budget-ns", &budget_ns.to_string()])
            .arg("--points")
            .arg(&points_file)
            .arg("--out")
            .arg(&out_file)
            .arg("--cache-dir")
            .arg(dir)
            .stdout(std::process::Stdio::null())
            .spawn()?;
        children.push((s, child, out_file, points_file));
    }

    let cache = SolveCache::global();
    let conflicts_before = cache.stats().merge_conflicts;
    let mut outcomes = Vec::with_capacity(survivors.len());
    let mut threads = 1usize;
    let mut rung_cache = CacheStats::default();
    for (s, mut child, out_file, points_file) in children {
        let status = child.wait()?;
        if !status.success() {
            return Err(
                format!("dse-search shard {s} of rung {} failed: {status}", spec.index).into()
            );
        }
        for line in std::fs::read_to_string(&out_file)?.lines() {
            if let Some(rest) = line.strip_prefix("#threads ") {
                threads = threads.max(rest.trim().parse()?);
            } else if let Some(rest) = line.strip_prefix("#cache ") {
                let mut it = rest.split_whitespace();
                rung_cache.hits += it.next().unwrap_or("0").parse::<u64>()?;
                rung_cache.misses += it.next().unwrap_or("0").parse::<u64>()?;
            } else if !line.trim().is_empty() {
                outcomes.push(decode_outcome(grid, line)?);
            }
        }
        cache.merge_from(&shard_cache_file(dir, s))?;
        let _ = std::fs::remove_file(out_file);
        let _ = std::fs::remove_file(points_file);
    }
    if outcomes.len() != survivors.len() {
        return Err(format!(
            "rung {}: {} outcome(s) from {} point(s)",
            spec.index,
            outcomes.len(),
            survivors.len()
        )
        .into());
    }
    // Re-persist the merged cache: the next rung's workers resume from
    // every shard's completed solves.
    cache.save_to(&SolveCache::file_in(dir))?;

    Ok(RungOutcome {
        outcomes,
        threads,
        cache: rung_cache,
        merge_conflicts: cache.stats().merge_conflicts - conflicts_before,
        wall: t0.elapsed(),
    })
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

/// Runs the adaptive ladder over `spec` plus its exhaustive reference,
/// both cold. `worker` enables real multi-process shards (the `reproduce`
/// binary passes its own path); without it, `shards > 1` uses the
/// in-process shard emulation.
///
/// # Errors
///
/// Compile failures, worker failures and cache-merge conflicts.
fn run_search(
    spec: &str,
    shards: usize,
    dir: &Path,
    worker: Option<&Path>,
) -> Result<(SearchReport, Exhaustive, u64), BoxError> {
    let grid = dse_search_grid(spec).ok_or_else(|| format!("unknown dse-search grid: {spec}"))?;
    let cache = SolveCache::global();

    // Exhaustive reference first, always cold, so neither side of the
    // comparison borrows the other's cache entries.
    cache.clear();
    let exhaustive = if grid.num_points() > 1000 {
        let sample = sample_indices(grid.num_points(), 64, 0x5eed);
        let t0 = Instant::now();
        let (outcomes, _) = compile_rung_shard(&grid, &sample, None);
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
    // cache dir already persists (the cross-run resume path CI exercises).
    cache.clear();
    let merged = SolveCache::file_in(dir);
    let mut preloaded = 0u64;
    if merged.exists() {
        preloaded = cache.load_from(&merged).unwrap_or(0);
    }
    let cfg =
        SearchConfig { shards, cache_dir: Some(dir.to_path_buf()), ..search_config_for(spec) };
    let report = match worker {
        Some(worker) if shards > 1 => {
            // Workers warm-start from the merged file; make sure it
            // reflects the preload even on a cold dir.
            cache.save_to(&merged)?;
            let mut failure: Option<BoxError> = None;
            let report = explore_adaptive_with(&grid, &cfg, |rung_spec, survivors| {
                match run_rung_sharded(worker, spec, &grid, &cfg, rung_spec, survivors, dir) {
                    Ok(out) => out,
                    Err(e) => {
                        // The driver has no error channel; park the error
                        // and feed an empty rung so the ladder unwinds.
                        failure.get_or_insert(e);
                        RungOutcome {
                            outcomes: Vec::new(),
                            threads: 1,
                            cache: CacheStats::default(),
                            merge_conflicts: 0,
                            wall: Duration::ZERO,
                        }
                    }
                }
            });
            if let Some(e) = failure {
                return Err(e);
            }
            report
        }
        _ => {
            let report = dse::search::explore_adaptive(&grid, &cfg);
            cache.save_to(&merged)?;
            report
        }
    };
    if report.merge_conflicts() > 0 {
        return Err(format!(
            "solve-cache shard merge produced {} conflict(s) — shards disagreed on a solve",
            report.merge_conflicts()
        )
        .into());
    }
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

/// The printable frontier signature: verbatim for the small CI grids
/// (the tests and the CI job compare these lines across runs), condensed
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
/// sweep over a named grid, with cache-resumed promotion and (optionally)
/// multi-process shards.
///
/// # Errors
///
/// A frontier-signature mismatch on the small grids, a zero resume hit
/// rate, cache-merge conflicts and worker failures are all errors — the
/// determinism contract is asserted, not footnoted.
pub fn dse_search(
    smoke: bool,
    shards: usize,
    grid_override: Option<&str>,
    cache_dir: Option<&Path>,
    worker: Option<&Path>,
) -> Result<String, BoxError> {
    let spec = grid_override.unwrap_or(if smoke { "stencil-smoke" } else { "stencil-full" });
    let shards = shards.max(1);

    // Cache/scratch directory: flag → environment → ephemeral temp dir.
    let (dir, source) = match cache_dir {
        Some(d) => (d.to_path_buf(), "--cache-dir"),
        None => match cache_dir_from_env() {
            Some(d) => (d, "TAPACS_CACHE_DIR"),
            None => (
                std::env::temp_dir().join(format!("tapacs-dse-search-{}", std::process::id())),
                "ephemeral",
            ),
        },
    };
    std::fs::create_dir_all(&dir)?;

    let mut s = String::from("Adaptive successive-halving DSE over the batch engine\n");
    let _ = writeln!(
        s,
        "grid: {spec}; shards: {shards}{}; cache dir: {} ({source})",
        if worker.is_some() && shards > 1 { " (worker processes)" } else { " (in-process)" },
        dir.display()
    );

    let (report, exhaustive, preloaded) = run_search(spec, shards, &dir, worker)?;
    let _ = writeln!(s, "persisted cache preloaded: {preloaded} entries");
    s.push_str(&report.render_table());

    let resume = resume_hit_rate(&report);
    let _ = writeln!(s, "cache-resume hit rate (rungs >= 2): {:.1}%", resume * 100.0);
    if report.rungs.len() >= 2 && resume == 0.0 {
        return Err("promotion rungs replayed nothing from the solve cache".into());
    }
    let stats = SolveCache::global().stats();
    let _ =
        writeln!(s, "cache shard merges: {} (conflicts: {})", stats.merges, stats.merge_conflicts);

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

    if source == "ephemeral" {
        let _ = std::fs::remove_dir_all(&dir);
        let _ = writeln!(
            s,
            "(ephemeral cache dir removed; pass --cache-dir or set TAPACS_CACHE_DIR to resume across runs)"
        );
    }
    Ok(s)
}
