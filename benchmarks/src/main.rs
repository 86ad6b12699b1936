//! The repo benchmark: repeated single-thread compile and DSE workloads
//! with quality of result, an independent legality check and an
//! outside-in stage trace. See `benchmarks/README.md`.
//!
//! ```text
//! tapacs-benchmarks --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! tapacs-benchmarks --selfcheck [--seed <n>] [--seconds <n>]
//! tapacs-benchmarks --manifest
//! ```

mod check;
mod host;
mod jitter;
mod metrics;
mod run;
mod selfcheck;
mod staged;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    manifest: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        selfcheck: false,
        manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--selfcheck" => parsed.selfcheck = true,
            "--manifest" => parsed.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    // What is measured is the code's own defaults: no TAPACS_* variable of
    // the caller's shell may reach `SolverOptions::default()` and friends.
    // Nothing has spawned a thread yet, so editing the environment is safe.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TAPACS_") {
            std::env::remove_var(&key);
        }
    }

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("usage: --workload <{}> [--seed <n>] [--seconds <n>] [--trace <0|1>] | --selfcheck | --manifest", names.join("|"));
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return selfcheck::run(args.seed, args.seconds);
    }
    let Some(workload) = args.workload else {
        eprintln!("error: --workload is required");
        return ExitCode::from(2);
    };

    let outcome = if args.trace {
        run::traced(workload, args.seed, args.seconds)
    } else {
        run::untraced(workload, args.seed, args.seconds)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = if args.trace {
        metrics::per_layer_names().collect()
    } else {
        metrics::end_to_end_names().collect()
    };
    outcome.metrics.print(names.iter().copied());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.json(names.iter().copied())
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
