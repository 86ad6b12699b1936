//! Adaptive successive-halving exploration (ASHA-style rung ladder).
//!
//! The exhaustive [`explore`](super::explore) sweep compiles every grid
//! point at full solver effort — fine at 24 points, hopeless at the
//! million-point spaces the lazy [`DseConfig::points`] iterator can now
//! describe. This module spends effort the way the paper's hierarchical
//! exploration does: little on most candidates, full on few.
//!
//! # The rung ladder
//!
//! Rung `r` compiles its surviving points under a per-point wall-clock
//! budget `base_budget × eta^r` (capped at `max_budget`), enforced through
//! the per-job deadline [`CancellationToken`](tapacs_ilp::CancellationToken) plumbing of
//! [`CompileJob::budget`](crate::batch::CompileJob::budget) — so a rung
//! costs bounded wall-clock even on pathological points. Completed points
//! are scored and the top `1/eta` fraction is *promoted* into the next
//! rung at `eta×` the budget:
//!
//! * promotion ranks points by **domination count** (how many clean
//!   points Pareto-dominate them; `0` = the rung's frontier), so a
//!   currently non-dominated point is never dropped — which is exactly
//!   what makes the full-budget ladder provably reproduce the exhaustive
//!   frontier (domination is transitive: a dropped point's dominator
//!   always ranks strictly ahead of it and survives in its place);
//! * ties are broken by a **seeded total order** (an FNV-1a hash of the
//!   point label mixed with [`SearchConfig::seed`], with the unique label
//!   itself as the final key), so promotion is bit-reproducible across
//!   thread counts and grid enumeration orders;
//! * a **degraded point is never promoted**: a heuristic incumbent must
//!   not claim a rung slot on the strength of a score the solver never
//!   proved. Budget-expired points (deadline tripped, design completed
//!   through the degradation ladder) are instead *resumed* — carried into
//!   the next rung, at most [`SearchConfig::max_resumes`] times — because
//!   their evaluation is unfinished rather than bad;
//! * the final rung always runs at [`SearchConfig::max_budget`]; its
//!   outcomes form the reported [`DseReport`] (same frontier masking and
//!   [signature](DseReport::frontier_signature) as the exhaustive sweep).
//!
//! # Cache-resumed promotion
//!
//! The persistent [`SolveCache`] is the cross-rung memo and the source of
//! the asymptotic win: every bisection/floorplan ILP a point *completed*
//! within its budget is cached (budget tokens are deliberately excluded
//! from the cache key, and per-level `time_limit_s` stays constant across
//! rungs, so keys match), which means a promoted or resumed point replays
//! its low-budget solves as cache hits and spends the new budget only on
//! the work the old budget could not afford. Rung ≥ 2 hit rates are
//! reported per rung precisely to make that resume visible.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tapacs_ilp::{CacheStats, SolveCache, SolveStats};

use crate::dse::{compile_indexed, report_from_outcomes, DseConfig, DseOutcome, DseReport};

/// Tuning knobs of the successive-halving ladder.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Reduction factor: each rung promotes roughly the top `1/eta` of its
    /// completed points and multiplies the budget by `eta`. Clamped to
    /// ≥ 2.
    pub eta: usize,
    /// Per-point wall-clock budget of rung 0.
    pub base_budget: Duration,
    /// Per-point budget of the final rung (the exhaustive sweep's
    /// effective effort). The ladder is `base, base×eta, …` capped here.
    pub max_budget: Duration,
    /// Seed of the promotion tie-break. Two runs with the same seed (and
    /// grid) promote identically at any batch thread count; changing it
    /// only permutes exact ties.
    pub seed: u64,
    /// Promotion floor: a rung never promotes fewer than this many clean
    /// points (when it has them), so the ladder cannot collapse below a
    /// useful frontier candidate set.
    pub min_survivors: usize,
    /// How many times a budget-expired point may be resumed at a higher
    /// rung before it is dropped as pathological. Bounds the worst-case
    /// spend on a point that never finishes.
    pub max_resumes: u32,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            eta: 3,
            base_budget: Duration::from_secs(2),
            max_budget: Duration::from_secs(30),
            seed: 0x7a7a_c5c5,
            min_survivors: 2,
            max_resumes: 2,
        }
    }
}

impl SearchConfig {
    /// The rung budget ladder: `base, base×eta, …`, capped at (and always
    /// ending with) `max_budget`.
    pub fn budgets(&self) -> Vec<Duration> {
        let eta = self.eta.max(2) as u32;
        let mut budgets = Vec::new();
        let mut b = self.base_budget.max(Duration::from_micros(1));
        loop {
            budgets.push(b.min(self.max_budget));
            if b >= self.max_budget {
                return budgets;
            }
            b = b.saturating_mul(eta);
        }
    }
}

/// One rung's identity, handed to the rung executor.
#[derive(Debug, Clone, Copy)]
pub struct RungSpec {
    /// Rung index, 0-based.
    pub index: usize,
    /// Per-point budget of this rung.
    pub budget: Duration,
    /// Whether this is the ladder's last rung (runs at `max_budget`; its
    /// outcomes become the final report).
    pub is_final: bool,
}

/// What a rung executor returns: the evaluated points (grid index +
/// outcome, any order — the driver sorts), plus batch metadata.
#[derive(Debug, Clone)]
pub struct RungOutcome {
    /// `(grid index, outcome)` per evaluated point.
    pub outcomes: Vec<(usize, DseOutcome)>,
    /// Worker threads the rung's batch used.
    pub threads: usize,
    /// Solve-cache lookup delta attributed to this rung (resume hits show
    /// up here from rung 1 on).
    pub cache: CacheStats,
    /// LP-engine work of the rung's batch (its jobs' merged counters).
    pub engine: SolveStats,
    /// Wall-clock of the whole rung.
    pub wall: Duration,
}

/// Per-rung accounting in the [`SearchReport`].
#[derive(Debug, Clone)]
pub struct RungReport {
    /// Rung index, 0-based.
    pub index: usize,
    /// Per-point budget of this rung.
    pub budget: Duration,
    /// Points evaluated in this rung.
    pub points: usize,
    /// Points that completed cleanly (scored, not degraded).
    pub clean: usize,
    /// Points cut off by the rung budget (resumable).
    pub budget_expired: usize,
    /// Points degraded for non-budget reasons (dropped, never promoted).
    pub degraded: usize,
    /// Points that failed to compile (dropped).
    pub failed: usize,
    /// Clean points promoted into the next rung (0 for the final rung).
    pub promoted: usize,
    /// Budget-expired points carried into the next rung to resume.
    pub resumed: usize,
    /// Solve-cache delta of this rung.
    pub cache: CacheStats,
    /// Wall-clock of this rung.
    pub wall: Duration,
}

/// Outcome of one [`explore_adaptive`] run.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The sweep's label (from the grid).
    pub name: String,
    /// Full grid cardinality (rung 0 size).
    pub grid_points: usize,
    /// Reduction factor used.
    pub eta: usize,
    /// Promotion tie-break seed used.
    pub seed: u64,
    /// Per-rung accounting, in ladder order.
    pub rungs: Vec<RungReport>,
    /// The final rung's outcomes as a regular [`DseReport`] — same
    /// frontier masking, same signature function as the exhaustive sweep.
    pub final_report: DseReport,
    /// Total compile jobs across all rungs (re-compiles of promoted
    /// points count; their solves replay from cache).
    pub total_compiles: usize,
    /// Wall-clock of the whole ladder.
    pub wall: Duration,
}

impl SearchReport {
    /// The final frontier's canonical signature (bit-exact, enumeration
    /// order invariant — see [`DseReport::frontier_signature`]).
    pub fn frontier_signature(&self) -> String {
        self.final_report.frontier_signature()
    }

    /// ASCII rendering: the rung ladder, then the final frontier table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "adaptive DSE `{}`: {} grid point(s), eta {}, seed {:#x}\n",
            self.name, self.grid_points, self.eta, self.seed
        );
        s.push_str(
            "  rung  budget(s)  points  clean  expired  degraded  failed  promoted  resumed  hit-rate  wall(s)\n",
        );
        for r in &self.rungs {
            let _ = writeln!(
                s,
                "  {:<5} {:<10.3} {:<7} {:<6} {:<8} {:<9} {:<7} {:<9} {:<8} {:<9} {:.3}",
                r.index,
                r.budget.as_secs_f64(),
                r.points,
                r.clean,
                r.budget_expired,
                r.degraded,
                r.failed,
                r.promoted,
                r.resumed,
                format!("{:.0}%", r.cache.hit_rate() * 100.0),
                r.wall.as_secs_f64(),
            );
        }
        let _ = writeln!(
            s,
            "ladder: {} compile(s) over {} rung(s) in {:.3}s",
            self.total_compiles,
            self.rungs.len(),
            self.wall.as_secs_f64(),
        );
        // Per-point rows stop being readable (and start being megabytes)
        // on generated grids; wide finals get the deduplicated summary.
        if self.final_report.outcomes.len() > 64 {
            s.push_str(&self.final_report.render_summary());
        } else {
            s.push_str(&self.final_report.render_table());
        }
        s
    }
}

/// Seeded FNV-1a over the point label: the promotion tie-break. A pure
/// function of `(seed, label)` — independent of timing, thread count and
/// enumeration order — so exact score ties settle identically everywhere.
fn tie_break(seed: u64, label: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(17);
    for &b in label.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What [`promote`] decided about one rung.
#[derive(Debug, Clone, Default)]
pub struct Promotion {
    /// Grid indices promoted into the next rung, in rank order (domination
    /// count, then seeded tie-break, then label).
    pub promoted: Vec<usize>,
    /// Grid indices of budget-expired points (the driver resumes those
    /// still within their resume allowance), ascending.
    pub expired: Vec<usize>,
    /// Clean points cut by the `1/eta` reduction.
    pub cut: usize,
    /// Points dropped as organically degraded (never promoted) or failed.
    pub dropped: usize,
}

/// Ranks a rung's outcomes and selects the promotion set: the top
/// `max(ceil(clean/eta), |frontier|, min_survivors)` clean points by
/// `(domination count, seeded tie-break, label)`. Degraded and failed
/// points are never promoted; budget-expired points are returned
/// separately for the resume path. Pure and deterministic — see the
/// module docs for why this preserves the exhaustive frontier at full
/// budget.
pub fn promote(
    outcomes: &[(usize, DseOutcome)],
    eta: usize,
    seed: u64,
    min_survivors: usize,
) -> Promotion {
    let eta = eta.max(2);
    let mut promotion = Promotion::default();

    // Partition the rung. `clean` keeps (grid index, label, score).
    let mut clean: Vec<(usize, String, super::DseScore)> = Vec::new();
    for (idx, o) in outcomes {
        match (&o.score, o.degraded, o.budget_expired) {
            (Some(score), false, false) => clean.push((*idx, o.point.label(), *score)),
            _ if o.budget_expired => promotion.expired.push(*idx),
            _ => promotion.dropped += 1,
        }
    }
    promotion.expired.sort_unstable();

    // Domination count per clean point: 0 = this rung's frontier. O(n²)
    // exact-comparison pass, like `pareto_frontier` — ~1e8 cheap compares
    // at the 10k-point rung 0, amortized to nothing afterwards.
    let n = clean.len();
    let mut dominated_by = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if j != i && clean[j].2.dominates(&clean[i].2) {
                dominated_by[i] += 1;
            }
        }
    }
    let frontier_len = dominated_by.iter().filter(|&&d| d == 0).count();

    let target = n.div_ceil(eta).max(frontier_len).max(min_survivors.min(n));
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        (dominated_by[a], tie_break(seed, &clean[a].1), &clean[a].1).cmp(&(
            dominated_by[b],
            tie_break(seed, &clean[b].1),
            &clean[b].1,
        ))
    });
    promotion.promoted = order[..target.min(n)].iter().map(|&i| clean[i].0).collect();
    promotion.cut = n - promotion.promoted.len();
    promotion
}

/// The in-process rung executor: the rung's survivors as one batch under
/// the rung budget, against the shared process cache.
fn run_rung_in_process(grid: &DseConfig, spec: &RungSpec, survivors: &[usize]) -> RungOutcome {
    let before = SolveCache::global().stats();
    let t0 = Instant::now();
    let budget = (!spec.is_final).then_some(spec.budget);
    let (outcomes, report) = compile_indexed(grid, survivors, budget);
    RungOutcome {
        outcomes: survivors.iter().copied().zip(outcomes).collect(),
        threads: report.threads,
        cache: SolveCache::global().stats().since(&before),
        engine: report.engine,
        wall: t0.elapsed(),
    }
}

/// Runs the successive-halving ladder with a caller-supplied rung
/// executor ([`explore_adaptive`] plugs in the in-process one; tests
/// substitute synthetic executors). The driver — budgets, promotion,
/// resume bookkeeping, reporting — is identical either way.
pub fn explore_adaptive_with<F>(
    grid: &DseConfig,
    cfg: &SearchConfig,
    mut run_rung: F,
) -> SearchReport
where
    F: FnMut(&RungSpec, &[usize]) -> RungOutcome,
{
    let budgets = cfg.budgets();
    let t0 = Instant::now();
    let mut survivors: Vec<usize> = (0..grid.num_points()).collect();
    let mut resumes: HashMap<usize, u32> = HashMap::new();
    let mut rungs: Vec<RungReport> = Vec::new();
    let mut total_compiles = 0usize;
    let mut final_rung: Option<(RungOutcome, Vec<(usize, DseOutcome)>)> = None;

    let mut r = 0usize;
    while r < budgets.len() {
        let is_final = r + 1 == budgets.len() || survivors.is_empty();
        let spec = RungSpec { index: rungs.len(), budget: budgets[r], is_final };
        let mut out = run_rung(&spec, &survivors);
        // Deterministic downstream processing regardless of the executor's
        // order: everything keys off the grid index order.
        out.outcomes.sort_unstable_by_key(|(idx, _)| *idx);
        total_compiles += out.outcomes.len();

        let clean = out
            .outcomes
            .iter()
            .filter(|(_, o)| o.score.is_some() && !o.degraded && !o.budget_expired)
            .count();
        let expired = out.outcomes.iter().filter(|(_, o)| o.budget_expired).count();
        let degraded = out.outcomes.iter().filter(|(_, o)| o.degraded && !o.budget_expired).count();
        let failed =
            out.outcomes.iter().filter(|(_, o)| o.score.is_none() && !o.budget_expired).count();

        if is_final {
            rungs.push(RungReport {
                index: spec.index,
                budget: spec.budget,
                points: out.outcomes.len(),
                clean,
                budget_expired: expired,
                degraded,
                failed,
                promoted: 0,
                resumed: 0,
                cache: out.cache,
                wall: out.wall,
            });
            let outcomes = out.outcomes.clone();
            final_rung = Some((out, outcomes));
            break;
        }

        let promo = promote(&out.outcomes, cfg.eta, cfg.seed, cfg.min_survivors);
        // Resume budget-expired points while their allowance lasts: their
        // evaluation is unfinished, not bad — the next rung's budget plus
        // the cache replay of their completed solves finishes the job.
        let mut resumed: Vec<usize> = Vec::new();
        for &idx in &promo.expired {
            let strikes = resumes.entry(idx).or_insert(0);
            *strikes += 1;
            if *strikes <= cfg.max_resumes {
                resumed.push(idx);
            }
        }

        rungs.push(RungReport {
            index: spec.index,
            budget: spec.budget,
            points: out.outcomes.len(),
            clean,
            budget_expired: expired,
            degraded,
            failed,
            promoted: promo.promoted.len(),
            resumed: resumed.len(),
            cache: out.cache,
            wall: out.wall,
        });

        survivors = promo.promoted;
        survivors.extend(resumed);
        survivors.sort_unstable();
        survivors.dedup();
        // Nothing left to narrow: jump straight to the full-budget rung
        // (intermediate rungs would only replay the same cached solves).
        if survivors.len() <= cfg.min_survivors.max(1) {
            r = budgets.len() - 1;
        } else {
            r += 1;
        }
    }

    let (final_out, final_outcomes) = final_rung.unwrap_or_else(|| {
        // Degenerate ladder (empty grid): an empty final rung.
        (
            RungOutcome {
                outcomes: Vec::new(),
                threads: 1,
                cache: CacheStats::default(),
                engine: SolveStats::default(),
                wall: Duration::ZERO,
            },
            Vec::new(),
        )
    });

    let final_report = report_from_outcomes(
        grid.name.clone(),
        final_outcomes.into_iter().map(|(_, o)| o).collect(),
        final_out.threads,
        final_out.wall,
        final_out.cache,
        final_out.engine,
    );

    SearchReport {
        name: grid.name.clone(),
        grid_points: grid.num_points(),
        eta: cfg.eta.max(2),
        seed: cfg.seed,
        rungs,
        final_report,
        total_compiles,
        wall: t0.elapsed(),
    }
}

/// Runs the full adaptive ladder in-process, one batch per rung against
/// the shared process cache. See the module docs.
pub fn explore_adaptive(grid: &DseConfig, cfg: &SearchConfig) -> SearchReport {
    explore_adaptive_with(grid, cfg, |spec, survivors| run_rung_in_process(grid, spec, survivors))
}
