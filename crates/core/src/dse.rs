//! Design-space exploration over the batch engine.
//!
//! TAPA-CS's headline argument is that coarse-grained floorplanning is
//! cheap enough to *search*: instead of compiling one configuration, sweep
//! the cluster shape (how many FPGAs to span) and the partition/floorplan
//! utilization thresholds, score every point, and keep the Pareto-optimal
//! trade-offs between achieved frequency, utilization slack and inter-FPGA
//! cut. This module is that sweep:
//!
//! * [`DseConfig`] enumerates a deterministic grid of
//!   (cluster shape × partition threshold × slot threshold) points over one
//!   design;
//! * [`explore`] compiles the whole grid as **one**
//!   [`BatchCompiler`] sweep — the points share the
//!   process-wide solve cache (structurally identical bisection ILPs across
//!   threshold points answer instantly) and fill the machine's cores;
//! * every point is scored ([`DseScore`]): estimated design frequency
//!   (maximize), utilization slack (maximize) and inter-FPGA cut width
//!   (minimize); points that fail to compile (e.g. a threshold too tight
//!   for the design) stay in the report as failures, not aborts;
//! * [`pareto_frontier`] prunes the evaluated points to the non-dominated
//!   set, with dominated-point accounting in the [`DseReport`].
//!
//! The frontier is **deterministic**: batch compilation is bit-identical
//! for every worker count, domination compares exact `f64`s, and the
//! report's [signature](DseReport::frontier_signature) is invariant under
//! grid enumeration order — the property suite pins all three, and
//! `reproduce dse` additionally proves bit-identical frontiers across a
//! cold and a disk-warm ([`tapacs_ilp::SolveCache::load_from`]) run.

use std::fmt::Write as _;
use std::time::Duration;

use tapacs_graph::TaskGraph;
use tapacs_ilp::{CacheStats, SolveStats};
use tapacs_net::Cluster;

use crate::batch::{BatchCompiler, BatchReport, CompileJob};
use crate::compiler::{CompiledDesign, CompilerConfig, Flow};

pub mod search;

/// One grid point of the exploration: a cluster shape plus the two
/// utilization thresholds the paper's floorplanners are most sensitive to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsePoint {
    /// FPGAs the design spans (`1` compiles as the single-FPGA TAPA flow).
    pub n_fpgas: usize,
    /// Per-resource threshold `T` of the inter-FPGA partitioner
    /// (equation 1); also applied as the single-FPGA fit threshold so the
    /// axis stays meaningful at shape 1.
    pub partition_threshold: f64,
    /// Per-slot ceiling of the intra-FPGA floorplanner (equation 4).
    pub slot_threshold: f64,
}

impl DsePoint {
    /// Stable display label, unique per grid point.
    pub fn label(&self) -> String {
        format!("F{}/T{:.3}/S{:.3}", self.n_fpgas, self.partition_threshold, self.slot_threshold)
    }

    /// The flow this point compiles under.
    pub fn flow(&self) -> Flow {
        if self.n_fpgas <= 1 {
            Flow::TapaSingle
        } else {
            Flow::TapaCs { n_fpgas: self.n_fpgas }
        }
    }
}

/// The exploration grid over one design.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Sweep label used in reports.
    pub name: String,
    /// The design explored (one graph, many configurations).
    pub graph: TaskGraph,
    /// The cluster compiled against; shapes span its first `n` FPGAs.
    pub cluster: Cluster,
    /// Cluster shapes (FPGAs spanned) to sweep.
    pub cluster_shapes: Vec<usize>,
    /// Partition-threshold axis.
    pub partition_thresholds: Vec<f64>,
    /// Slot-threshold axis.
    pub slot_thresholds: Vec<f64>,
    /// Base compiler configuration every point starts from (per-point
    /// thresholds are overlaid on a clone).
    pub base: CompilerConfig,
    /// Batch worker-thread count (`0` = all cores, the [`BatchCompiler`]
    /// default).
    pub threads: usize,
}

impl DseConfig {
    /// A sweep over `graph` on `cluster` with the default grid: shapes
    /// 1/2/4 (clamped to the cluster), thresholds 0.6/0.7/0.8, slot
    /// ceilings 0.8/0.9.
    pub fn new(name: impl Into<String>, graph: TaskGraph, cluster: Cluster) -> Self {
        let max = cluster.total_fpgas();
        Self {
            name: name.into(),
            graph,
            cluster,
            cluster_shapes: [1usize, 2, 4].iter().copied().filter(|&n| n <= max).collect(),
            partition_thresholds: vec![0.6, 0.7, 0.8],
            slot_thresholds: vec![0.8, 0.9],
            base: CompilerConfig::default(),
            threads: 0,
        }
    }

    /// Grid cardinality (`shapes × partition thresholds × slot
    /// thresholds`) without enumerating anything.
    pub fn num_points(&self) -> usize {
        self.cluster_shapes.len() * self.partition_thresholds.len() * self.slot_thresholds.len()
    }

    /// The grid point at `index` in the deterministic enumeration order
    /// (shape-major, then partition threshold, then slot threshold — the
    /// axis order of the config), computed in O(1) from index arithmetic.
    /// `None` past the end.
    pub fn point(&self, index: usize) -> Option<DsePoint> {
        if index >= self.num_points() {
            return None;
        }
        let slots = self.slot_thresholds.len();
        let parts = self.partition_thresholds.len();
        Some(DsePoint {
            n_fpgas: self.cluster_shapes[index / (parts * slots)],
            partition_threshold: self.partition_thresholds[(index / slots) % parts],
            slot_threshold: self.slot_thresholds[index % slots],
        })
    }

    /// The grid, enumerated deterministically as a **lazy** exact-size
    /// iterator: points are materialized one at a time from
    /// [`point`](Self::point), so million-point spaces cost nothing to
    /// walk and nothing to skip through — the adaptive search
    /// ([`search`]) never holds more than one rung's survivors in memory.
    pub fn points(&self) -> GridPoints<'_> {
        GridPoints { cfg: self, next: 0, total: self.num_points() }
    }

    /// The compiler configuration of one grid point: the base config with
    /// the point's thresholds overlaid.
    pub fn config_for(&self, point: &DsePoint) -> CompilerConfig {
        let mut cfg = self.base.clone();
        cfg.partition.threshold = point.partition_threshold;
        cfg.single_fpga_threshold = point.partition_threshold;
        cfg.floorplan.slot_threshold = point.slot_threshold;
        cfg
    }
}

/// Lazy iterator over a [`DseConfig`] grid; see [`DseConfig::points`].
#[derive(Debug, Clone)]
pub struct GridPoints<'a> {
    cfg: &'a DseConfig,
    next: usize,
    total: usize,
}

impl Iterator for GridPoints<'_> {
    type Item = DsePoint;

    fn next(&mut self) -> Option<DsePoint> {
        if self.next >= self.total {
            return None;
        }
        let p = self.cfg.point(self.next).expect("index below num_points");
        self.next += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for GridPoints<'_> {}

/// The three exploration objectives of one compiled point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseScore {
    /// Estimated design frequency in MHz (slowest FPGA) — maximize.
    pub freq_mhz: f64,
    /// Utilization slack: `1 −` the binding per-resource fraction of the
    /// most loaded FPGA — maximize (negative means over-subscribed).
    pub util_slack: f64,
    /// Total FIFO bit-width crossing FPGA boundaries — minimize.
    pub cut_width_bits: u64,
}

impl DseScore {
    /// Scores a compiled design.
    pub fn of(design: &CompiledDesign) -> Self {
        let peak = design.utilization.iter().map(|u| u.max()).fold(0.0f64, f64::max);
        Self {
            freq_mhz: design.design_freq_mhz(),
            util_slack: 1.0 - peak,
            cut_width_bits: design.partition.cut_width_bits,
        }
    }

    /// Pareto domination: at least as good on every objective and strictly
    /// better on at least one. Exact comparisons — scores come from
    /// bit-identical deterministic compiles, so no tolerance is wanted.
    pub fn dominates(&self, other: &Self) -> bool {
        let no_worse = self.freq_mhz >= other.freq_mhz
            && self.util_slack >= other.util_slack
            && self.cut_width_bits <= other.cut_width_bits;
        let better = self.freq_mhz > other.freq_mhz
            || self.util_slack > other.util_slack
            || self.cut_width_bits < other.cut_width_bits;
        no_worse && better
    }
}

/// Indices of the non-dominated points among `scores`, ascending. `None`
/// entries (failed compiles) never join the frontier and never dominate.
///
/// Two points with identical scores dominate neither, so ties coexist on
/// the frontier; the result is invariant under permutation of the input
/// (modulo the index relabeling the permutation itself implies).
pub fn pareto_frontier(scores: &[Option<DseScore>]) -> Vec<usize> {
    (0..scores.len())
        .filter(|&i| match scores[i] {
            None => false,
            Some(si) => !scores.iter().flatten().any(|sj| sj.dominates(&si)),
        })
        .collect()
}

/// One evaluated grid point.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// The grid point.
    pub point: DsePoint,
    /// Its score, when the point compiled.
    pub score: Option<DseScore>,
    /// Whether the compiled design is degraded (heuristic fallback after a
    /// solver timeout). Degraded points keep their score in the report but
    /// are deterministically excluded from the Pareto frontier: a
    /// non-proven score must not displace a clean one.
    pub degraded: bool,
    /// Whether a per-job compile budget cut the point off before it could
    /// finish cleanly (see [`crate::batch::CompileJob::budget`]; implies
    /// [`degraded`](Self::degraded)). The adaptive search treats such
    /// points as *unfinished* — never promoted by score, but eligible to
    /// resume at the next rung's larger budget.
    pub budget_expired: bool,
    /// The compile error, when it did not.
    pub error: Option<String>,
    /// Compile wall-clock of this point inside the batch.
    pub wall: Duration,
}

/// Outcome of one [`explore`] sweep.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// The sweep's label.
    pub name: String,
    /// Every evaluated point, in grid order.
    pub outcomes: Vec<DseOutcome>,
    /// Indices into [`outcomes`](Self::outcomes) forming the Pareto
    /// frontier, ascending.
    pub frontier: Vec<usize>,
    /// Worker threads the batch queue used.
    pub threads: usize,
    /// Wall-clock of the whole sweep.
    pub wall: Duration,
    /// Solve-cache lookups during the sweep (cross-point and — after a
    /// [`load_from`](tapacs_ilp::SolveCache::load_from) — cross-process
    /// hits show up here).
    pub cache: CacheStats,
    /// LP-engine work of the sweep: every job's scoped counters, merged
    /// (see [`BatchReport::engine`]).
    pub engine: SolveStats,
}

impl DseReport {
    /// Points that compiled cleanly and were pruned as dominated.
    pub fn dominated(&self) -> usize {
        self.succeeded() - self.degraded() - self.frontier.len()
    }

    /// Points that compiled.
    pub fn succeeded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.score.is_some()).count()
    }

    /// Points that compiled degraded (excluded from the frontier).
    pub fn degraded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.score.is_some() && o.degraded).count()
    }

    /// Points that failed to compile (kept in the report, not aborted).
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.succeeded()
    }

    /// Canonical bit-exact encoding of the frontier: one
    /// `label=freq-bits/slack-bits/cut` token per frontier point, sorted
    /// by label so the signature is invariant under grid enumeration
    /// order. Two runs produced bit-identical frontiers iff their
    /// signatures are equal.
    pub fn frontier_signature(&self) -> String {
        let mut tokens: Vec<String> = self
            .frontier
            .iter()
            .map(|&i| {
                let o = &self.outcomes[i];
                let s = o.score.expect("frontier points are scored");
                format!(
                    "{}={:016x}/{:016x}/{}",
                    o.point.label(),
                    s.freq_mhz.to_bits(),
                    s.util_slack.to_bits(),
                    s.cut_width_bits
                )
            })
            .collect();
        tokens.sort_unstable();
        tokens.join(";")
    }

    /// The one-line sweep header shared by [`Self::render_table`] and
    /// [`Self::render_summary`].
    fn render_header(&self) -> String {
        format!(
            "DSE sweep `{}`: {} point(s) on {} thread(s) in {:.3}s\n",
            self.name,
            self.outcomes.len(),
            self.threads,
            self.wall.as_secs_f64()
        )
    }

    /// The accounting tail shared by [`Self::render_table`] and
    /// [`Self::render_summary`].
    fn render_accounting(&self) -> String {
        format!(
            "frontier: {} point(s), {} dominated, {} degraded, {} failed; solve cache {} hits / {} misses ({:.0}% hit rate)\n",
            self.frontier.len(),
            self.dominated(),
            self.degraded(),
            self.failed(),
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
        )
    }

    /// Compact ASCII rendering for wide grids: the sweep header, the
    /// number of *distinct* frontier score tuples (wide generated grids
    /// tie heavily, so per-point rows carry little information), and the
    /// accounting summary — no per-point rows.
    pub fn render_summary(&self) -> String {
        let mut s = self.render_header();
        let mut tuples: Vec<(u64, u64, u64)> = self
            .frontier
            .iter()
            .filter_map(|&i| self.outcomes[i].score)
            .map(|sc| (sc.freq_mhz.to_bits(), sc.util_slack.to_bits(), sc.cut_width_bits))
            .collect();
        tuples.sort_unstable();
        tuples.dedup();
        let _ = writeln!(s, "  distinct frontier score tuples: {}", tuples.len());
        s.push_str(&self.render_accounting());
        s
    }

    /// ASCII rendering: one row per point (frontier rows marked `*`), then
    /// the accounting summary.
    pub fn render_table(&self) -> String {
        let mut s = self.render_header();
        s.push_str("  point                 freq(MHz)  slack   cut(bits)  outcome\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let mark = if self.frontier.contains(&i) { '*' } else { ' ' };
            match (&o.score, &o.error) {
                (Some(score), _) => {
                    let outcome = if self.frontier.contains(&i) {
                        "frontier"
                    } else if o.degraded {
                        "degraded"
                    } else {
                        "dominated"
                    };
                    let _ = writeln!(
                        s,
                        "{mark} {:<21} {:<10.0} {:<7.3} {:<10} {}",
                        o.point.label(),
                        score.freq_mhz,
                        score.util_slack,
                        score.cut_width_bits,
                        outcome
                    );
                }
                (None, err) => {
                    let _ = writeln!(
                        s,
                        "{mark} {:<21} {:<10} {:<7} {:<10} failed: {}",
                        o.point.label(),
                        "-",
                        "-",
                        "-",
                        err.as_deref().unwrap_or("unknown")
                    );
                }
            }
        }
        s.push_str(&self.render_accounting());
        s
    }
}

/// Compiles a set of grid points (by grid index) as one shared batch
/// sweep, optionally bounding every job by `budget`. Returns outcomes in
/// the order of `indices` plus the raw [`BatchReport`]. Shared by the
/// exhaustive [`explore`] (all points, no budget) and the adaptive
/// [`search`] rungs (survivors only, rung budget).
///
/// # Panics
///
/// When an index lies outside the grid.
pub fn compile_indexed(
    config: &DseConfig,
    indices: &[usize],
    budget: Option<Duration>,
) -> (Vec<DseOutcome>, BatchReport) {
    let points: Vec<DsePoint> =
        indices.iter().map(|&i| config.point(i).expect("grid index in range")).collect();
    let jobs: Vec<CompileJob> = points
        .iter()
        .map(|p| {
            let job = CompileJob::new(p.label(), config.graph.clone(), p.flow())
                .with_config(config.config_for(p));
            match budget {
                Some(b) => job.with_budget(b),
                None => job,
            }
        })
        .collect();
    let outcome = BatchCompiler::with_config(config.cluster.clone(), config.base.clone())
        .threads(config.threads)
        .compile(jobs);

    let outcomes: Vec<DseOutcome> = points
        .into_iter()
        .zip(&outcome.results)
        .zip(&outcome.report.jobs)
        .map(|((point, result), job)| match result {
            Ok(design) => DseOutcome {
                point,
                score: Some(DseScore::of(design)),
                degraded: design.degraded,
                budget_expired: job.budget_expired,
                error: None,
                wall: job.wall,
            },
            Err(e) => DseOutcome {
                point,
                score: None,
                degraded: false,
                budget_expired: job.budget_expired,
                error: Some(e.to_string()),
                wall: job.wall,
            },
        })
        .collect();
    (outcomes, outcome.report)
}

/// Builds a [`DseReport`] from evaluated outcomes: computes the frontier
/// with degraded points masked out (they neither join it nor dominate).
pub(crate) fn report_from_outcomes(
    name: String,
    outcomes: Vec<DseOutcome>,
    threads: usize,
    wall: Duration,
    cache: CacheStats,
    engine: SolveStats,
) -> DseReport {
    // Degraded points are masked out of the frontier computation entirely:
    // they neither join it nor dominate a clean point (their scores are
    // heuristic incumbents, not the solver's answer).
    let scores: Vec<Option<DseScore>> =
        outcomes.iter().map(|o| if o.degraded { None } else { o.score }).collect();
    let frontier = pareto_frontier(&scores);
    DseReport { name, outcomes, frontier, threads, wall, cache, engine }
}

/// Compiles every grid point of `config` as one shared batch sweep, scores
/// the results and prunes to the Pareto frontier. Failing points occupy
/// their own outcome slot; the sweep never aborts.
pub fn explore(config: &DseConfig) -> DseReport {
    let indices: Vec<usize> = (0..config.num_points()).collect();
    let (outcomes, report) = compile_indexed(config, &indices, None);
    report_from_outcomes(
        config.name.clone(),
        outcomes,
        report.threads,
        report.wall,
        report.cache,
        report.engine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapacs_fpga::Device;
    use tapacs_net::Topology;

    fn score(freq: f64, slack: f64, cut: u64) -> Option<DseScore> {
        Some(DseScore { freq_mhz: freq, util_slack: slack, cut_width_bits: cut })
    }

    #[test]
    fn domination_needs_a_strict_edge() {
        let a = DseScore { freq_mhz: 300.0, util_slack: 0.2, cut_width_bits: 512 };
        assert!(!a.dominates(&a), "a point never dominates itself");
        let faster = DseScore { freq_mhz: 320.0, ..a };
        assert!(faster.dominates(&a));
        assert!(!a.dominates(&faster));
        let trade = DseScore { freq_mhz: 320.0, util_slack: 0.1, cut_width_bits: 512 };
        assert!(!trade.dominates(&a) && !a.dominates(&trade), "trade-offs coexist");
    }

    #[test]
    fn frontier_prunes_dominated_and_skips_failures() {
        let scores = vec![
            score(300.0, 0.2, 512), // dominated by 3
            None,                   // failed point
            score(250.0, 0.3, 0),   // frontier (best cut/slack)
            score(310.0, 0.2, 512), // frontier (best freq)
            score(310.0, 0.2, 512), // exact tie with 3 → also frontier
        ];
        assert_eq!(pareto_frontier(&scores), vec![2, 3, 4]);
        assert_eq!(pareto_frontier(&[]), Vec::<usize>::new());
        assert_eq!(pareto_frontier(&[None, None]), Vec::<usize>::new());
    }

    /// Grid enumeration and config overlay never compile, so an empty
    /// graph suffices (the end-to-end `explore` coverage lives in
    /// `tests/dse_props.rs`, which owns the shared compile fixture).
    #[test]
    fn grid_enumeration_is_shape_major_and_sized() {
        let cluster = Cluster::single_node(Device::u55c(), 4, Topology::Ring);
        let mut cfg = DseConfig::new("unit", TaskGraph::new("empty"), cluster);
        cfg.cluster_shapes = vec![1, 2];
        cfg.partition_thresholds = vec![0.7, 0.9];
        cfg.slot_thresholds = vec![0.9];
        assert_eq!(cfg.num_points(), 4);
        assert_eq!(cfg.points().len(), 4, "exact-size iterator");
        let points: Vec<DsePoint> = cfg.points().collect();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].label(), "F1/T0.700/S0.900");
        assert_eq!(points[0].flow(), Flow::TapaSingle);
        assert_eq!(points[3].label(), "F2/T0.900/S0.900");
        assert_eq!(points[3].flow(), Flow::TapaCs { n_fpgas: 2 });
        // Random access agrees with the iterator at every index.
        for (i, p) in points.iter().enumerate() {
            assert_eq!(cfg.point(i).unwrap(), *p);
        }
        assert_eq!(cfg.point(4), None);
        let c = cfg.config_for(&points[1]);
        assert_eq!(c.partition.threshold, 0.9);
        assert_eq!(c.single_fpga_threshold, 0.9);
        assert_eq!(c.floorplan.slot_threshold, 0.9);
    }

    /// The iterator is lazy: a grid far beyond any allocatable size can be
    /// constructed, sized and sampled without materializing anything.
    #[test]
    fn huge_grids_enumerate_lazily() {
        let cluster = Cluster::single_node(Device::u55c(), 4, Topology::Ring);
        let mut cfg = DseConfig::new("huge", TaskGraph::new("empty"), cluster);
        cfg.cluster_shapes = (1..=4).cycle().take(1_000).collect();
        cfg.partition_thresholds = (0..1_000).map(|i| 0.5 + i as f64 * 1e-4).collect();
        cfg.slot_thresholds = (0..1_000).map(|i| 0.5 + i as f64 * 1e-4).collect();
        assert_eq!(cfg.num_points(), 1_000_000_000);
        let mut it = cfg.points();
        assert_eq!(it.len(), 1_000_000_000);
        let first = it.next().unwrap();
        assert_eq!(first, cfg.point(0).unwrap());
        // A far-out index is O(1), no walk required.
        let far = cfg.point(999_999_999).unwrap();
        assert_eq!(far.n_fpgas, 4);
    }

    #[test]
    fn default_grid_clamps_shapes_to_the_cluster() {
        let two = Cluster::single_node(Device::u55c(), 2, Topology::Ring);
        let cfg = DseConfig::new("clamp", TaskGraph::new("empty"), two);
        assert_eq!(cfg.cluster_shapes, vec![1, 2], "shape 4 exceeds the cluster");
    }
}
