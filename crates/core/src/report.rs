//! Reporting helpers: the data behind the paper's tables and
//! resource-utilization figures.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};
use tapacs_fpga::{ResourceKind, Utilization};
use tapacs_ilp::{CacheStats, SolveActivity, SolveCache, SolveStats};

use crate::compiler::CompiledDesign;

/// Aggregated ILP activity at one bipartition recursion level.
///
/// Level 0 is the first (whole-cluster or whole-chip) split; each level
/// below halves the device range or slot region. The paper's scalability
/// argument is visible here: per-solve wall-clock shrinks as the recursion
/// descends, and sibling solves at the same level run concurrently under
/// the parallel backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelSolveStats {
    /// Recursion depth (0 = top split).
    pub level: usize,
    /// Two-way ILP solves performed at this depth.
    pub solves: usize,
    /// Summed solve wall-clock at this depth, in seconds. Under the
    /// parallel backend sibling solves overlap, so this exceeds the
    /// critical-path time.
    pub wall_s: f64,
}

/// Folds raw `(level, seconds)` samples into one row per level.
pub(crate) fn aggregate_level_samples(mut samples: Vec<(usize, f64)>) -> Vec<LevelSolveStats> {
    samples.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut rows: Vec<LevelSolveStats> = Vec::new();
    for (level, wall_s) in samples {
        match rows.last_mut() {
            Some(row) if row.level == level => {
                row.solves += 1;
                row.wall_s += wall_s;
            }
            _ => rows.push(LevelSolveStats { level, solves: 1, wall_s }),
        }
    }
    rows
}

/// Solver-side view of a compiled design: per-level ILP timings for both
/// floorplanning stages plus the process-wide solve-cache counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverActivityReport {
    /// Inter-FPGA partitioner (§4.3) solve timings per recursion level.
    pub partition_levels: Vec<LevelSolveStats>,
    /// Intra-FPGA floorplanner (§4.5) solve timings per recursion level.
    pub floorplan_levels: Vec<LevelSolveStats>,
    /// Memo-cache counters at report time (process-wide, not per-design).
    pub cache: CacheStats,
    /// LP-engine counters at report time (process-wide, not per-design):
    /// simplex iterations, warm-start hit rate, presolve reductions.
    pub simplex: SolveStats,
}

impl SolverActivityReport {
    /// Collects solver activity from a compiled design and the global
    /// solve cache / LP-engine counters.
    pub fn from_design(design: &CompiledDesign) -> Self {
        Self {
            partition_levels: design.partition.solve_stats.clone(),
            floorplan_levels: design.floorplan_stats.clone(),
            cache: SolveCache::global().stats(),
            simplex: SolveActivity::global().snapshot(),
        }
    }

    /// ASCII rendering: one row per (stage, level), then the cache and
    /// LP-engine lines.
    pub fn render_table(&self) -> String {
        let mut s = String::from("stage      level  solves  wall(s)\n");
        for (stage, rows) in
            [("partition", &self.partition_levels), ("floorplan", &self.floorplan_levels)]
        {
            for r in rows {
                let _ = writeln!(s, "{:<10} {:<6} {:<7} {:.3}", stage, r.level, r.solves, r.wall_s);
            }
        }
        let _ = writeln!(
            s,
            "solve cache: {} hits / {} misses ({:.0}% hit rate), {} entries",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.entries
        );
        let _ = writeln!(
            s,
            "LP engine: {} simplex iterations over {} solves ({:.1}/solve, {} in phase 1)",
            self.simplex.simplex_iterations,
            self.simplex.lp_solves,
            self.simplex.iterations_per_solve(),
            self.simplex.phase1_iterations,
        );
        let _ = writeln!(
            s,
            "warm starts: {}/{} hits ({:.0}% hit rate)",
            self.simplex.warm_hits,
            self.simplex.warm_attempts,
            self.simplex.warm_hit_rate() * 100.0,
        );
        let _ = writeln!(
            s,
            "basis LU: {} factorizations ({} fill-in nnz), {} eta updates ({} nnz), {} refactor triggers",
            self.simplex.lu_factorizations,
            self.simplex.lu_fill_nnz,
            self.simplex.eta_updates,
            self.simplex.eta_nnz,
            self.simplex.refactor_triggers,
        );
        let _ = writeln!(
            s,
            "search: {} B&B nodes, {} pricing switches, {} partial refreshes, {} restored sibling installs, {} children range-pruned before their LP",
            self.simplex.bb_nodes,
            self.simplex.pricing_switches,
            self.simplex.partial_pricing_refreshes,
            self.simplex.memo_sibling_hits,
            self.simplex.range_pruned,
        );
        let _ = writeln!(
            s,
            "frontier: {} candidate nodes stored as packed integral points",
            self.simplex.candidate_nodes,
        );
        let _ = writeln!(
            s,
            "presolve: {} runs, {} rows removed, {} cols fixed, {} bounds tightened",
            self.simplex.presolve_runs,
            self.simplex.presolve_rows_removed,
            self.simplex.presolve_cols_fixed,
            self.simplex.presolve_bounds_tightened,
        );
        s
    }
}

/// One FPGA's row in a Figure 11/13/16-style utilization chart.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// Design label (`F1-T`, `F4-1`, …).
    pub label: String,
    /// Per-kind utilization.
    pub utilization: Utilization,
    /// HBM channels used over channels available, as a percentage.
    pub channels_pct: f64,
}

impl UtilizationReport {
    /// Extracts per-FPGA utilization rows from a compiled design.
    pub fn rows(design: &CompiledDesign, total_channels: usize) -> Vec<UtilizationReport> {
        let n = design.n_fpgas();
        (0..n)
            .map(|f| {
                let label = if n == 1 {
                    design.flow.label()
                } else {
                    format!("{}-{}", design.flow.label(), f + 1)
                };
                UtilizationReport {
                    label,
                    utilization: design.utilization[f],
                    channels_pct: if total_channels == 0 {
                        0.0
                    } else {
                        design.channels_used[f] as f64 * 100.0 / total_channels as f64
                    },
                }
            })
            .collect()
    }

    /// ASCII rendering of a utilization table (one row per FPGA).
    pub fn render_table(rows: &[UtilizationReport]) -> String {
        let mut s = String::new();
        s.push_str("design   BRAM%   DSP%    FF%     LUT%    URAM%   Channels%\n");
        for r in rows {
            s.push_str(&format!(
                "{:<8} {:<7.1} {:<7.1} {:<7.1} {:<7.1} {:<7.1} {:<7.1}\n",
                r.label,
                r.utilization.get(ResourceKind::Bram) * 100.0,
                r.utilization.get(ResourceKind::Dsp) * 100.0,
                r.utilization.get(ResourceKind::Ff) * 100.0,
                r.utilization.get(ResourceKind::Lut) * 100.0,
                r.utilization.get(ResourceKind::Uram) * 100.0,
                r.channels_pct,
            ));
        }
        s
    }
}

/// Frequency comparison across the three flows (the per-benchmark claims
/// in §5.2-§5.5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrequencySummary {
    /// Vitis HLS single-FPGA frequency (MHz).
    pub vitis_mhz: f64,
    /// TAPA single-FPGA frequency (MHz).
    pub tapa_mhz: f64,
    /// TAPA-CS multi-FPGA design frequency (MHz).
    pub tapacs_mhz: f64,
}

impl FrequencySummary {
    /// Percentage improvement of TAPA-CS over Vitis HLS.
    pub fn improvement_vs_vitis_pct(&self) -> f64 {
        (self.tapacs_mhz / self.vitis_mhz - 1.0) * 100.0
    }

    /// Percentage improvement of TAPA-CS over single-FPGA TAPA.
    pub fn improvement_vs_tapa_pct(&self) -> f64 {
        (self.tapacs_mhz / self.tapa_mhz - 1.0) * 100.0
    }
}

/// One row of Table 1 (comparison with prior scale-out approaches).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PriorWorkRow {
    /// Approach name.
    pub method: &'static str,
    /// Supports an HLS front-end.
    pub hls: bool,
    /// Uses Ethernet networking.
    pub ethernet: bool,
    /// Couples floorplanning with compilation.
    pub floorplanning: bool,
    /// Pipelines the interconnect.
    pub interconnect_pipelining: bool,
    /// Aware of the cluster topology.
    pub topology_aware: bool,
    /// Partitions automatically.
    pub automatic_partitioning: bool,
    /// Executes on real hardware (vs simulation).
    pub hardware_execution: bool,
    /// Generalizes beyond one workload family.
    pub generalizable: bool,
    /// Reported Fmax in MHz (`None` where the paper lists none).
    pub fmax_mhz: Option<f64>,
}

/// Table 1 of the paper.
pub fn prior_work() -> Vec<PriorWorkRow> {
    vec![
        PriorWorkRow {
            method: "FPGA'12 (latency-insensitive)",
            hls: false,
            ethernet: false,
            floorplanning: false,
            interconnect_pipelining: false,
            topology_aware: false,
            automatic_partitioning: false,
            hardware_execution: false,
            generalizable: true,
            fmax_mhz: Some(85.0),
        },
        PriorWorkRow {
            method: "Simulation-based",
            hls: false,
            ethernet: false,
            floorplanning: false,
            interconnect_pipelining: false,
            topology_aware: false,
            automatic_partitioning: false,
            hardware_execution: false,
            generalizable: true,
            fmax_mhz: None,
        },
        PriorWorkRow {
            method: "Virtualization-based",
            hls: true,
            ethernet: false,
            floorplanning: false,
            interconnect_pipelining: false,
            topology_aware: false,
            automatic_partitioning: true,
            hardware_execution: true,
            generalizable: true,
            fmax_mhz: Some(300.0), // 100-300 band; upper end
        },
        PriorWorkRow {
            method: "CNN/DNN-specific",
            hls: true,
            ethernet: true,
            floorplanning: false,
            interconnect_pipelining: false,
            topology_aware: false,
            automatic_partitioning: true,
            hardware_execution: true,
            generalizable: false,
            fmax_mhz: Some(240.0),
        },
        PriorWorkRow {
            method: "TAPA-CS (Ours)",
            hls: true,
            ethernet: true,
            floorplanning: true,
            interconnect_pipelining: true,
            topology_aware: true,
            automatic_partitioning: true,
            hardware_execution: true,
            generalizable: true,
            fmax_mhz: Some(300.0),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_improvements() {
        let f = FrequencySummary { vitis_mhz: 123.0, tapa_mhz: 190.0, tapacs_mhz: 266.0 };
        // The paper's PageRank: 116% over Vitis, 40% over TAPA.
        assert!((f.improvement_vs_vitis_pct() - 116.26).abs() < 0.5);
        assert!((f.improvement_vs_tapa_pct() - 40.0).abs() < 0.1);
    }

    #[test]
    fn table1_only_ours_checks_every_box() {
        let rows = prior_work();
        let ours = rows.last().unwrap();
        assert!(ours.hls && ours.ethernet && ours.floorplanning);
        assert!(ours.interconnect_pipelining && ours.topology_aware);
        assert!(ours.automatic_partitioning && ours.hardware_execution && ours.generalizable);
        for r in &rows[..rows.len() - 1] {
            let all = r.hls
                && r.ethernet
                && r.floorplanning
                && r.interconnect_pipelining
                && r.topology_aware
                && r.automatic_partitioning
                && r.hardware_execution
                && r.generalizable;
            assert!(!all, "{} should not check every box", r.method);
        }
    }

    #[test]
    fn level_samples_aggregate_in_order() {
        let rows = aggregate_level_samples(vec![(1, 0.25), (0, 1.0), (1, 0.75), (2, 0.5)]);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].level, rows[0].solves), (0, 1));
        assert_eq!((rows[1].level, rows[1].solves), (1, 2));
        assert!((rows[1].wall_s - 1.0).abs() < 1e-12);
        assert_eq!((rows[2].level, rows[2].solves), (2, 1));
    }

    #[test]
    fn solver_report_renders_levels_cache_and_engine() {
        let report = SolverActivityReport {
            partition_levels: vec![LevelSolveStats { level: 0, solves: 1, wall_s: 0.125 }],
            floorplan_levels: vec![LevelSolveStats { level: 1, solves: 4, wall_s: 0.5 }],
            cache: CacheStats { hits: 3, misses: 1, entries: 1, ..CacheStats::default() },
            simplex: SolveStats {
                lp_solves: 10,
                simplex_iterations: 55,
                phase1_iterations: 5,
                warm_attempts: 8,
                warm_hits: 6,
                presolve_runs: 2,
                presolve_rows_removed: 4,
                presolve_cols_fixed: 1,
                presolve_bounds_tightened: 3,
                lu_factorizations: 12,
                lu_fill_nnz: 90,
                eta_updates: 30,
                eta_nnz: 120,
                refactor_triggers: 1,
                refactor_fill_triggers: 0,
                ft_replacements: 7,
                devex_resets: 0,
                pricing_switches: 2,
                partial_pricing_refreshes: 9,
                memo_sibling_hits: 5,
                bb_nodes: 21,
                range_pruned: 4,
                candidate_nodes: 8,
            },
        };
        let table = report.render_table();
        assert!(table.contains("partition"));
        assert!(table.contains("floorplan"));
        assert!(table.contains("3 hits / 1 misses (75% hit rate)"), "{table}");
        assert!(table.contains("55 simplex iterations over 10 solves"), "{table}");
        assert!(table.contains("6/8 hits (75% hit rate)"), "{table}");
        assert!(table.contains("4 rows removed"), "{table}");
        assert!(table.contains("12 factorizations (90 fill-in nnz)"), "{table}");
        assert!(table.contains("30 eta updates (120 nnz), 1 refactor triggers"), "{table}");
        assert!(
            table.contains(
                "21 B&B nodes, 2 pricing switches, 9 partial refreshes, 5 restored sibling installs"
            ),
            "{table}"
        );
        assert!(table.contains("4 children range-pruned before their LP"), "{table}");
        assert!(table.contains("8 candidate nodes stored as packed integral points"), "{table}");
    }

    #[test]
    fn table_renders() {
        let rows = vec![UtilizationReport {
            label: "F1-T".into(),
            utilization: Utilization { lut: 0.5, ff: 0.4, bram: 0.3, dsp: 0.2, uram: 0.1 },
            channels_pct: 84.0,
        }];
        let t = UtilizationReport::render_table(&rows);
        assert!(t.contains("F1-T"));
        assert!(t.contains("50.0"));
    }
}
