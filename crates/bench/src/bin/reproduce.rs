//! Regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p tapacs-bench --bin reproduce -- quick   # static tables
//! cargo run --release -p tapacs-bench --bin reproduce -- all    # full matrix
//! cargo run --release -p tapacs-bench --bin reproduce -- table3 fig10 fig12
//! cargo run --release -p tapacs-bench --bin reproduce -- list   # known names
//! cargo run --release -p tapacs-bench --bin reproduce -- batch --smoke
//! cargo run --release -p tapacs-bench --bin reproduce -- dse --smoke --cache-dir .tapacs-cache
//! cargo run --release -p tapacs-bench --bin reproduce -- dse-search --smoke
//! ```
//!
//! With no argument it runs `quick`. `dse` and `dse-search` persist the
//! solve cache into `--cache-dir`, else `TAPACS_CACHE_DIR`, else an
//! ephemeral temp dir that is removed on exit, error exits included.
//! `crates/bench/tests/smoke.rs` drives each of these paths through the
//! binary.
//!
//! Compile time and quality of result are measured by the repo benchmark
//! (`benchmarks/`, `BENCHMARK.json`), not here.

use tapacs_bench::reproduce as r;

type BoxError = Box<dyn std::error::Error>;

/// One row of [`FLAGGED`]: `(name, usage, runner)`.
type Flagged = (&'static str, &'static str, fn(&[String]) -> Result<(), BoxError>);

/// The subcommands that take flags, so must be the first argument. Early
/// dispatch, the "must be the first argument" error and `list` all read
/// this table.
const FLAGGED: &[Flagged] = &[
    ("batch", "[--smoke]", |args| {
        print!("{}", r::batch(smoke_flag("batch", args)?)?);
        Ok(())
    }),
    ("dse", "[--smoke] [--cache-dir <dir>]", run_dse),
    ("dse-search", "[--smoke] [--grid <spec>] [--cache-dir <dir>]", run_dse_search),
];

/// The one flag of `batch` (the sharded multi-design batch-compile demo).
fn smoke_flag(command: &str, args: &[String]) -> Result<bool, BoxError> {
    match args.iter().find(|arg| *arg != "--smoke") {
        Some(other) => Err(format!("unknown {command} option: {other}").into()),
        None => Ok(!args.is_empty()),
    }
}

/// `dse [--smoke] [--cache-dir <dir>]`: the design-space exploration sweep
/// with the disk-persistent solve cache (`TAPACS_CACHE_DIR` is the
/// fallback when the flag is absent).
fn run_dse(args: &[String]) -> Result<(), BoxError> {
    let mut smoke = false;
    let mut cache_dir: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--cache-dir" => {
                cache_dir = Some(
                    it.next().ok_or("--cache-dir needs a directory (e.g. --cache-dir .cache)")?,
                );
            }
            other => return Err(format!("unknown dse option: {other}").into()),
        }
    }
    print!("{}", r::dse(smoke, cache_dir.map(std::path::Path::new))?);
    Ok(())
}

/// `dse-search [--smoke] [--grid <spec>] [--cache-dir <dir>]`: the
/// adaptive successive-halving DSE ladder against the exhaustive sweep
/// (`TAPACS_CACHE_DIR` is the fallback when `--cache-dir` is absent).
fn run_dse_search(args: &[String]) -> Result<(), BoxError> {
    let mut smoke = false;
    let mut grid: Option<String> = None;
    let mut cache_dir: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--grid" => {
                grid =
                    Some(it.next().ok_or("--grid needs a spec (e.g. --grid stencil-10k)")?.clone());
            }
            "--cache-dir" => {
                cache_dir = Some(
                    it.next().ok_or("--cache-dir needs a directory (e.g. --cache-dir .cache)")?,
                );
            }
            other => return Err(format!("unknown dse-search option: {other}").into()),
        }
    }
    print!(
        "{}",
        tapacs_bench::dse_search::dse_search(
            smoke,
            grid.as_deref(),
            cache_dir.map(std::path::Path::new),
        )?
    );
    Ok(())
}

fn main() -> Result<(), BoxError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((first, rest)) = args.split_first() {
        if let Some((_, _, run)) = FLAGGED.iter().find(|f| f.0 == first) {
            return run(rest);
        }
    }
    let wanted: Vec<&str> =
        if args.is_empty() { vec!["quick"] } else { args.iter().map(|s| s.as_str()).collect() };

    for w in wanted {
        if w == "list" {
            let plain = r::EXPERIMENTS.iter().map(|row| row.0);
            for name in ["quick", "all"].into_iter().chain(plain).chain(FLAGGED.iter().map(|f| f.0))
            {
                println!("{name}");
            }
        } else if w == "quick" {
            print!("{}", r::quick());
        } else if w == "all" {
            for (_, _, render) in r::EXPERIMENTS {
                println!("{}", render()?);
            }
            println!("{}", r::batch(false)?);
            println!("{}", r::dse(false, None)?);
        } else if let Some((_, _, render)) = r::EXPERIMENTS.iter().find(|row| row.0 == w) {
            print!("{}", render()?);
        } else if let Some((name, usage, _)) = FLAGGED.iter().find(|f| f.0 == w) {
            return Err(format!(
                "{name} must be the first argument (it takes flags): reproduce {name} {usage}"
            )
            .into());
        } else {
            return Err(format!(
                "unknown experiment: {w} (run `reproduce list` for the known names)"
            )
            .into());
        }
        println!();
    }
    Ok(())
}
