//! The benchmark's metric and workload tables — the single source of
//! `BENCHMARK.json` (`--manifest` prints it; a unit test pins the file to
//! it) and of every name and unit the runs print.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// How long one run measures, in seconds (`--seconds` default).
pub const RUN_SECONDS: u64 = 24;

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "knn-deep-tree",
        "186k B&B nodes x ~11 pivots on small bases: node bookkeeping, warm starts and the factorization memo do the work, the LU kernels little",
    ),
    (
        "cnn-wide-lp",
        "2k B&B nodes x ~50 pivots on large bases: factorize/FTRAN/BTRAN/pricing do the work, the tree driver little; the one design off the 300 MHz cap",
    ),
    (
        "dse-cold",
        "24-point stencil grid from an empty solve cache: batch queue, DSE scoring, the write/miss side of the cache, a heavy-tailed job mix",
    ),
    (
        "dse-warm",
        "same grid re-swept from a loaded cache file: the read/hit side of the cache, where ILP does little and everything around it most of the work",
    ),
];

/// `(name, unit, better, bound)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("compile_s", "s", Lower, 0.25),
    ("setup_s", "s", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.10),
    ("critical_delay_ns", "ns/cycle", Lower, 0.005),
    ("cut_width_bits", "bits", Lower, 0.001),
    ("wirelength_bit_hops", "bit-hops", Lower, 0.005),
    ("sim_latency_s", "sim_s", Lower, 0.02),
];

/// `(name, unit, better)` of every per-layer metric; layer = module name.
pub const PER_LAYER: [(&str, &str, Better); 71] = [
    ("apps.build_s", "s", Lower),
    ("graph.validate_s", "s", Lower),
    ("graph.tasks", "count", Lower),
    ("graph.fifos", "count", Lower),
    ("partition.wall_s", "s", Lower),
    ("partition.ilp_wall_s", "s", Lower),
    ("partition.self_s", "s", Lower),
    ("partition.solves", "count", Lower),
    ("partition.lp_pivots", "count", Lower),
    ("partition.bb_nodes", "count", Lower),
    ("comm.wall_s", "s", Lower),
    ("comm.endpoints", "count", Lower),
    ("floorplan.wall_s", "s", Lower),
    ("floorplan.ilp_wall_s", "s", Lower),
    ("floorplan.self_s", "s", Lower),
    ("floorplan.solves", "count", Lower),
    ("floorplan.lp_pivots", "count", Lower),
    ("floorplan.bb_nodes", "count", Lower),
    ("pipeline.wall_s", "s", Lower),
    ("pipeline.register_bits", "bits", Lower),
    ("pnr.wall_s", "s", Lower),
    ("pnr.worst_slot_util", "share", Lower),
    ("ilp.wall_s", "s", Lower),
    ("ilp.share_of_compile", "share", Lower),
    ("ilp.lp_solves", "count", Lower),
    ("ilp.lp_pivots", "count", Lower),
    ("ilp.phase1_pivots", "count", Lower),
    ("ilp.bb_nodes", "count", Lower),
    ("ilp.us_per_node", "us", Lower),
    ("ilp.us_per_pivot", "us", Lower),
    ("ilp.lu_factorizations", "count", Lower),
    ("ilp.lu_fill_nnz", "count", Lower),
    ("ilp.eta_nnz", "count", Lower),
    ("ilp.memo_hit_share", "share", Higher),
    ("ilp.warm_hit_share", "share", Higher),
    ("ilp.presolve_rows_removed", "count", Higher),
    ("par2.wall_s", "s", Lower),
    ("par2.cpu_s", "s", Lower),
    ("par2.speedup", "x", Higher),
    ("cache.hits", "count", Higher),
    ("cache.misses", "count", Lower),
    ("cache.hit_share", "share", Higher),
    ("cache.entries", "count", Lower),
    ("cache.file_bytes", "bytes", Lower),
    ("cache.save_s", "s", Lower),
    ("cache.load_s", "s", Lower),
    ("batch.wall_s", "s", Lower),
    ("batch.jobs", "count", Lower),
    ("batch.job_wall_p50_s", "s", Lower),
    ("batch.job_wall_max_s", "s", Lower),
    ("batch.queue_overhead_share", "share", Lower),
    ("dse.points", "count", Lower),
    ("dse.ok_points", "count", Higher),
    ("dse.infeasible_points", "count", Lower),
    ("dse.frontier_points", "count", Higher),
    ("dse.score_s", "s", Lower),
    ("sim.host_s", "s", Lower),
    ("sim.events", "count", Lower),
    ("sim.events_per_host_s", "1/s", Higher),
    ("sim.inter_fpga_bytes", "bytes", Lower),
    ("host.calib_s", "s", Lower),
    ("host.calib_drift_share", "share", Lower),
    ("host.warmup_s", "s", Lower),
    ("host.untraced_rep_s", "s", Lower),
    ("host.traced_rep_s", "s", Lower),
    ("host.trace_overhead_share", "share", Lower),
    ("host.cores", "count", Higher),
    ("trace.compile_span_s", "s", Lower),
    ("trace.unattributed_s", "s", Lower),
    ("trace.unattributed_share", "share", Lower),
    ("trace.spans", "count", Lower),
];

/// The unit of a metric from either table.
///
/// # Panics
///
/// Panics on a name neither table has: printing an undeclared metric is a
/// bug in the harness.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
        .1
}

/// Named values of one run. Reading back happens through [`Metrics::json`]
/// and [`Metrics::print`], which walk a declared table, so a missing or
/// undeclared name fails loudly.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self.0.get(name).unwrap_or_else(|| panic!("metric `{name}` was not measured"))
    }

    /// Prints `metric <name> = <value> <unit>` for each of `names`.
    pub fn print<'a>(&self, names: impl Iterator<Item = &'a str>) {
        for name in names {
            println!("metric {name} = {} {}", self.get(name), unit_of(name));
        }
    }

    /// The `"metrics"` object of the result line, over `names`.
    pub fn json<'a>(&self, names: impl Iterator<Item = &'a str>) -> String {
        let body: Vec<String> = names
            .map(|n| {
                format!("\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}", self.get(n), unit_of(n))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

pub fn end_to_end_names() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().map(|m| m.0)
}

pub fn per_layer_names() -> impl Iterator<Item = &'static str> {
    PER_LAYER.iter().map(|m| m.0)
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmarks/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmarks\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            better.as_str()
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}",
            better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `--manifest > BENCHMARK.json`");
    }

    #[test]
    fn names_are_unique_and_inside_the_contract_limits() {
        let legal = |s: &str, extra: &str| {
            !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let names =
            WORKLOADS.iter().map(|w| w.0).chain(end_to_end_names()).chain(per_layer_names());
        for name in names {
            assert!(name.len() <= 64 && legal(name, "_.-"), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "{name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for name in end_to_end_names().chain(per_layer_names()) {
            let unit = unit_of(name);
            assert!(unit.len() <= 16 && legal(unit, "_/%.-"), "{unit}");
        }
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(PER_LAYER.len() <= 128 && manifest().len() < 64 * 1024);
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").expect("setup_s is required");
        assert_eq!((setup.1, setup.2), ("s", Lower));
    }

    #[test]
    fn metrics_round_trip_through_the_result_line() {
        let mut m = Metrics::default();
        m.set("compile_s", 1.25);
        m.set("setup_s", 0.5);
        let json = m.json(["compile_s", "setup_s"].into_iter());
        assert_eq!(
            json,
            "{\"compile_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}"
        );
    }
}
