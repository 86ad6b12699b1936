//! `--selfcheck`: every workload's untraced run twice, each in a fresh
//! process, and how far the two disagree against each metric's bound — the
//! benchmark's own noise floor, with the host's calibration drift beside it
//! so a noisy host is told apart from a noisy benchmark.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::metrics::END_TO_END;
use crate::stats::rel_diff;
use crate::workloads::Workload;

/// The named readings of one child run.
struct Reading {
    metrics: BTreeMap<String, f64>,
    calib_start: f64,
    calib_end: f64,
}

/// Pulls `metric <name> = <value> <unit>` and the calibration line out of a
/// run's output.
fn parse(stdout: &str) -> Option<Reading> {
    let mut metrics = BTreeMap::new();
    let (mut calib_start, mut calib_end) = (None, None);
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", name, "=", value, _unit] => {
                metrics.insert((*name).to_string(), value.parse().ok()?);
            }
            ["host.calib_s", start, end, "s"] => {
                calib_start = start.strip_prefix("start=")?.parse().ok();
                calib_end = end.strip_prefix("end=")?.parse().ok();
            }
            _ => {}
        }
    }
    Some(Reading { metrics, calib_start: calib_start?, calib_end: calib_end? })
}

fn child(workload: Workload, seed: u64, seconds: f64) -> Result<Reading, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} exited with {}:\n{stdout}", workload.name(), out.status));
    }
    parse(&stdout).ok_or_else(|| format!("{}: unreadable output:\n{stdout}", workload.name()))
}

pub fn run(seed: u64, seconds: f64) -> ExitCode {
    let mut beyond = 0usize;
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "workload", "run 1", "run 2", "diff", "bound"
    );
    for workload in Workload::ALL {
        let (a, b) = match (child(workload, seed, seconds), child(workload, seed, seconds)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (name, _, _, bound) in END_TO_END {
            let (x, y) = (a.metrics[name], b.metrics[name]);
            let diff = rel_diff(x, y);
            let ok = diff <= bound;
            beyond += usize::from(!ok);
            println!(
                "{name:<20} {:<14} {x:>14.6e} {y:>14.6e} {:>8.3}% {:>6.1}%  {}",
                workload.name(),
                diff * 100.0,
                bound * 100.0,
                if ok { "within" } else { "BEYOND" }
            );
        }
        // Same work every time: what moves here is the host.
        for (which, x, y) in
            [("start", a.calib_start, b.calib_start), ("end", a.calib_end, b.calib_end)]
        {
            println!(
                "{:<20} {:<14} {x:>14.6e} {y:>14.6e} {:>8.3}% {:>7}  host",
                format!("host.calib_s ({which})"),
                workload.name(),
                rel_diff(x, y) * 100.0,
                "-"
            );
        }
    }
    if beyond == 0 {
        println!("selfcheck: every (metric, workload) pair agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {beyond} (metric, workload) pair(s) beyond their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_metric_and_calibration_lines_and_ignores_the_rest() {
        let out = "config workload=x seed=0\nmetric compile_s = 4.75 s\nmetric cut_width_bits = 192 bits\n\
                   host.calib_s start=0.05 end=0.06 s\n{\"correct\": true}\n";
        let r = parse(out).unwrap();
        assert_eq!(r.metrics["compile_s"], 4.75);
        assert_eq!(r.metrics["cut_width_bits"], 192.0);
        assert_eq!((r.calib_start, r.calib_end), (0.05, 0.06));
        assert!(parse("metric compile_s = 4.75 s\n").is_none(), "no calibration line");
    }
}
