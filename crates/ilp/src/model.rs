//! The model a caller builds: variables, an objective, and every row in
//! one compressed-sparse-row block ([`Rows`]: row starts, terms, operators
//! and right-hand sides). [`LinExpr`] stays the builder; a finished
//! expression is copied into the block, and [`Model::add_terms`] appends a
//! row term by term without one. Everything downstream borrows the block.

use std::borrow::Cow;
use std::time::Duration;

use crate::cache::{canonical_key, SolveCache};
use crate::cancel::{effective_token, CancellationToken};
use crate::error::IlpError;
use crate::expr::{merge_term, LinExpr};
use crate::simplex::{LpProblem, LpRows};
use crate::solution::Solution;
use crate::solver::{heuristic, solve_lp, SolverOptions};

/// Opaque handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Dense index of the variable inside its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Domain of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Shorthand for an integer in `[0, 1]`.
    Binary,
}

/// Comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub kind: VarKind,
    pub lower: f64,
    pub upper: f64,
}

/// A model's rows: row `i` is `terms[start[i]..start[i + 1]] op[i] rhs[i]`,
/// its terms as the builder merged them (ascending variables, one term
/// each) and the builder's constant folded into `rhs`.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    start: Vec<usize>,
    terms: Vec<(VarId, f64)>,
    op: Vec<CmpOp>,
    rhs: Vec<f64>,
}

/// One row `Σ aᵢ·xᵢ op rhs` of a [`Rows`] block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    pub terms: &'a [(VarId, f64)],
    pub op: CmpOp,
    pub rhs: f64,
}

impl Rows {
    /// An empty block with room for `rows` rows of `terms` terms in all.
    pub fn with_capacity(rows: usize, terms: usize) -> Rows {
        let mut start = Vec::with_capacity(rows + 1);
        start.push(0);
        let (op, rhs) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        Rows { start, terms: Vec::with_capacity(terms), op, rhs }
    }

    pub fn len(&self) -> usize {
        self.op.len()
    }

    pub fn nnz(&self) -> usize {
        self.terms.len()
    }

    pub fn row(&self, i: usize) -> Row<'_> {
        let terms = &self.terms[self.start[i]..self.start[i + 1]];
        Row { terms, op: self.op[i], rhs: self.rhs[i] }
    }

    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> {
        let ends = self.start.windows(2).zip(&self.op).zip(&self.rhs);
        ends.map(|((s, &op), &rhs)| Row { terms: &self.terms[s[0]..s[1]], op, rhs })
    }

    pub fn push(&mut self, terms: &[(VarId, f64)], op: CmpOp, rhs: f64) {
        self.terms.extend_from_slice(terms);
        self.close(op, rhs);
    }

    /// Appends a row of `terms`, each merged in as [`LinExpr::add_term`]
    /// merges it into an expression.
    pub fn push_merged(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        op: CmpOp,
        rhs: f64,
    ) {
        let from = self.terms.len();
        for (var, coeff) in terms {
            merge_term(&mut self.terms, from, var, coeff);
        }
        self.close(op, rhs);
    }

    /// Ends the row whose terms were appended since the last one.
    fn close(&mut self, op: CmpOp, rhs: f64) {
        self.start.push(self.terms.len());
        self.op.push(op);
        self.rhs.push(rhs);
    }
}

/// Knobs controlling the branch-and-bound search.
///
/// The defaults are tuned for the floorplanning instances produced by
/// TAPA-CS (hundreds of binaries): optimality is proven when the search
/// finishes, otherwise the best incumbent found before `time_limit` is
/// returned with [`SolveStatus::Feasible`](crate::SolveStatus::Feasible).
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Wall-clock budget for branch and bound. `None` = unlimited.
    pub time_limit: Option<Duration>,
    /// Maximum number of branch-and-bound nodes explored.
    pub max_nodes: usize,
    /// Values closer than this to an integer are considered integral.
    pub int_tol: f64,
    /// Relative gap at which the search stops early.
    pub mip_gap: f64,
    /// Modeler-declared objective granularity: every integer-feasible point
    /// has an objective that is a multiple of this value (`0.0` = unknown,
    /// the default). When set, branch and bound rounds each node's LP bound
    /// up to the next multiple before *pruning* comparisons, which can
    /// collapse the plateau proof on weak relaxations (the bisection models
    /// set it to the gcd of their edge widths). Stored node bounds and the
    /// expansion order are untouched, so the incumbent trajectory — and
    /// therefore the returned solution — is unchanged. Declaring a value
    /// that does not divide every reachable objective makes pruning unsound.
    pub objective_granularity: f64,
    /// Optional external cancellation token. The solver polls it
    /// cooperatively (simplex inner loops, node expansion) and combines it
    /// with `time_limit` into one effective deadline token. Cancelling it
    /// returns [`IlpError::Cancelled`] instead of an incumbent. Token
    /// identity is deliberately *not* part of the solve-cache key —
    /// cancellation changes when a solve stops, not what it computes.
    pub cancel: Option<CancellationToken>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            time_limit: Some(Duration::from_secs(60)),
            max_nodes: 200_000,
            int_tol: 1e-6,
            mip_gap: 1e-9,
            objective_granularity: 0.0,
            cancel: None,
        }
    }
}

impl SolverConfig {
    /// Config with a specific wall-clock deadline.
    pub fn with_time_limit(limit: Duration) -> Self {
        Self { time_limit: Some(limit), ..Self::default() }
    }

    /// The effective cancellation token for one solve under this config:
    /// the caller's token (if any) narrowed by `time_limit` (if any), or
    /// `None` when the solve is unbounded.
    pub(crate) fn deadline_token(&self) -> Option<CancellationToken> {
        effective_token(self.cancel.as_ref(), self.time_limit)
    }

    /// Rejects settings under which the search would return wrong answers:
    /// an `int_tol` outside `[0, 0.5)` (NaN calls every point integral, a
    /// negative one every integer fractional, and from 0.5 on rounding
    /// can leave its integer), a NaN or negative `mip_gap`, and an
    /// `objective_granularity` that is NaN, negative or infinite.
    fn check(&self) -> Result<(), IlpError> {
        let invalid = |what: String| Err(IlpError::InvalidModel(what));
        if !(0.0..0.5).contains(&self.int_tol) {
            return invalid(format!("int_tol {} is outside [0, 0.5)", self.int_tol));
        }
        if !(0.0..=f64::INFINITY).contains(&self.mip_gap) {
            return invalid(format!("mip_gap {} is NaN or negative", self.mip_gap));
        }
        let g = self.objective_granularity;
        if !(0.0..f64::INFINITY).contains(&g) {
            return invalid(format!("objective_granularity {g} is not finite and non-negative"));
        }
        Ok(())
    }
}

/// A mixed-integer linear program under construction.
///
/// The `name` each builder takes (variables, rows) is an annotation for
/// the call site's reader: the model does not store it (only
/// [`Model::add_var`]'s bound error quotes it), and two models that differ
/// only in labels are the same model, down to their solve-cache keys.
/// Passing a `&'static str` keeps a hot builder free of allocation.
///
/// See the [crate-level docs](crate) for a full example.
#[derive(Debug, Clone)]
pub struct Model {
    name: String,
    pub(crate) vars: Vec<Variable>,
    pub(crate) rows: Rows,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Sense,
}

impl Model {
    /// Creates an empty model with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            vars: Vec::new(),
            rows: Rows::with_capacity(0, 0),
            objective: LinExpr::new(),
            sense: Sense::Minimize,
        }
    }

    /// An empty model with room for `vars` variables and `rows`
    /// constraints of `terms` terms in all, for a builder that knows its
    /// size up front.
    pub fn with_capacity(name: impl Into<String>, vars: usize, rows: usize, terms: usize) -> Self {
        Self {
            vars: Vec::with_capacity(vars),
            rows: Rows::with_capacity(rows, terms),
            ..Self::new(name)
        }
    }

    /// The model's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a variable with explicit kind and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::InvalidModel`] if `lower > upper`, a bound is NaN,
    /// or the bounds hold no real value (`lower == +∞` or `upper == −∞`).
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
    ) -> Result<VarId, IlpError> {
        if lower.is_nan() || upper.is_nan() {
            return Err(IlpError::InvalidModel("NaN variable bound".into()));
        }
        if lower > upper {
            return Err(IlpError::InvalidModel(format!(
                "variable {:?} has lower bound {lower} > upper bound {upper}",
                name.into()
            )));
        }
        if lower == f64::INFINITY || upper == f64::NEG_INFINITY {
            return Err(IlpError::InvalidModel(format!(
                "variable {:?} has no real value in [{lower}, {upper}]",
                name.into()
            )));
        }
        let id = VarId(self.vars.len());
        self.vars.push(Variable { kind, lower, upper });
        Ok(id)
    }

    /// Adds a `{0,1}` variable.
    pub fn binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0).expect("binary bounds are always valid")
    }

    /// Adds a continuous variable in `[lower, upper]`.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` — use [`Model::add_var`] for fallible
    /// construction.
    pub fn continuous(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, VarKind::Continuous, lower, upper).expect("invalid continuous bounds")
    }

    /// Adds an integer variable in `[lower, upper]`.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`.
    pub fn integer(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, VarKind::Integer, lower, upper).expect("invalid integer bounds")
    }

    /// Adds `expr <= rhs`.
    pub fn add_le(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) {
        self.add_constraint(name, expr, CmpOp::Le, rhs);
    }

    /// Adds `expr >= rhs`.
    pub fn add_ge(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) {
        self.add_constraint(name, expr, CmpOp::Ge, rhs);
    }

    /// Adds `expr == rhs`.
    pub fn add_eq(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) {
        self.add_constraint(name, expr, CmpOp::Eq, rhs);
    }

    /// Adds a constraint with an explicit operator. The expression's constant
    /// term is folded into the right-hand side.
    pub fn add_constraint(&mut self, _name: impl Into<String>, expr: LinExpr, op: CmpOp, rhs: f64) {
        self.rows.push(expr.terms(), op, rhs - expr.constant());
    }

    /// Adds `Σ coeff·var op rhs` straight into the model's row block,
    /// without building a [`LinExpr`]. The terms merge as
    /// [`LinExpr::add_term`] merges them, so the row equals the one
    /// [`Model::add_constraint`] adds for the expression of those terms;
    /// terms in ascending variable order are plain appends.
    pub fn add_terms(
        &mut self,
        _name: impl Into<String>,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        op: CmpOp,
        rhs: f64,
    ) {
        self.rows.push_merged(terms, op, rhs);
    }

    /// Sets the objective function and direction.
    pub fn set_objective(&mut self, sense: Sense, expr: LinExpr) {
        self.sense = sense;
        self.objective = expr;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Indices of integer/binary variables.
    pub(crate) fn integral_vars(&self) -> Vec<usize> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v.kind, VarKind::Integer | VarKind::Binary))
            .map(|(i, _)| i)
            .collect()
    }

    /// Lowers the model to the internal LP representation used by the
    /// simplex: the row block is borrowed, not copied. Integrality is
    /// dropped; bounds are kept.
    pub(crate) fn to_lp(&self) -> LpProblem<'_> {
        let n = self.vars.len();
        let mut objective = vec![0.0; n];
        for (v, c) in self.objective.iter() {
            objective[v.index()] = c;
        }
        LpProblem {
            n_vars: n,
            lower: self.vars.iter().map(|v| v.lower).collect(),
            upper: self.vars.iter().map(|v| v.upper).collect(),
            rows: LpRows { block: Cow::Borrowed(&self.rows), reduction: None },
            objective,
            minimize: matches!(self.sense, Sense::Minimize),
            objective_offset: self.objective.constant(),
        }
    }

    /// Checks whether a candidate point satisfies every bound, integrality
    /// and constraint within `tol`, by the same rules as
    /// [`certify`](crate::certify): a NaN entry never passes.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        crate::certificate::check_point(self, values, tol).is_ok()
    }

    /// Rejects data no search can give a verdict on: a row or objective
    /// coefficient (or the objective's constant) that is not finite, or a
    /// NaN right-hand side. An infinite right-hand side stays legal: the
    /// row is then vacuous or unsatisfiable, which the search decides.
    /// [`Model::solve_with_options`], which every `Model::solve*` runs,
    /// checks this before it starts, so the engines (and the branch and
    /// bound's row-activity proof) only see finite coefficients.
    fn check_finite(&self) -> Result<(), IlpError> {
        let invalid = |what: String| Err(IlpError::InvalidModel(what));
        for (i, c) in self.rows.iter().enumerate() {
            if c.rhs.is_nan() {
                return invalid(format!("row {i} has a NaN right-hand side"));
            }
            if let Some(&(v, a)) = c.terms.iter().find(|(_, a)| !a.is_finite()) {
                return invalid(format!("row {i} has coefficient {a} on variable {}", v.index()));
            }
        }
        if let Some((v, a)) = self.objective.iter().find(|(_, a)| !a.is_finite()) {
            return invalid(format!("objective has coefficient {a} on variable {}", v.index()));
        }
        let k = self.objective.constant();
        if !k.is_finite() {
            return invalid(format!("objective has constant {k}"));
        }
        Ok(())
    }

    /// Solves with default [`SolverConfig`].
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`], [`IlpError::Unbounded`] or
    /// [`IlpError::NoIncumbent`] per the outcome of the search;
    /// [`IlpError::InvalidModel`] before any search when a row or objective
    /// coefficient is not finite or a right-hand side is NaN, or when the
    /// [`SolverConfig`] holds an `int_tol` outside `[0, 0.5)`, a NaN or
    /// negative `mip_gap`, or a NaN, negative or infinite
    /// `objective_granularity`.
    pub fn solve(&self) -> Result<Solution, IlpError> {
        self.solve_with(&SolverConfig::default())
    }

    /// Solves with an explicit configuration: the branch and bound under
    /// otherwise default [`SolverOptions`], without the memo cache or the
    /// degradation ladder, and without the heuristic incumbent seed
    /// ([`SolverOptions::warm_start`]) that the compiler's solves run with.
    /// So it runs the compiler's search code, but not always the
    /// compiler's search: where rounding the root relaxation is infeasible,
    /// the compiler's solve starts from the seed's incumbent, which can
    /// prune other nodes, return another point among equal objectives, and
    /// turn an out-of-budget [`IlpError::NoIncumbent`] into a seeded answer.
    ///
    /// If the model has no integer variables this is a single simplex solve.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_with(&self, config: &SolverConfig) -> Result<Solution, IlpError> {
        let options =
            SolverOptions { warm_start: false, cache: false, degrade: false, ..Default::default() };
        self.solve_with_options(config, &options)
    }

    /// Solves under `config`'s budget with `options` — the one solve path,
    /// which the compiler and every `Model::solve*` run, in this order:
    ///
    /// 1. the model's data and `config` are checked (see [`Model::solve`]);
    /// 2. with [`SolverOptions::cache`], a stored answer for the same model,
    ///    budget and options is returned if it passes [`crate::certify`];
    ///    one that fails is dropped from the cache and the model is solved
    ///    afresh, so a damaged entry costs one solve, not a degraded answer
    ///    on every later lookup;
    /// 3. a model without integer variables is one simplex solve; any other
    ///    runs the branch and bound;
    /// 4. when that search spends its budget with no incumbent
    ///    ([`IlpError::NoIncumbent`]) and [`SolverOptions::degrade`] is set,
    ///    the root relaxation rounded and repaired by a greedy first-fit
    ///    walk answers instead, marked [`Solution::degraded`]; an external
    ///    cancel still returns [`IlpError::Cancelled`];
    /// 5. the answer is checked by [`crate::certify`];
    /// 6. with [`SolverOptions::cache`], a certified answer that is not
    ///    degraded — so the search's, never the ladder's — is stored. A
    ///    degraded point is whatever the clock allowed, not a function of
    ///    the model, so it never is.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`]; additionally [`IlpError::Uncertified`] when
    /// the answer fails the certificate, and [`IlpError::Cancelled`] when
    /// `config.cancel` was tripped.
    pub fn solve_with_options(
        &self,
        config: &SolverConfig,
        options: &SolverOptions,
    ) -> Result<Solution, IlpError> {
        self.check_finite()?;
        config.check()?;
        let cache = SolveCache::global();
        let key = options.cache.then(|| canonical_key(&options.cache_key_head(), self, config));
        if let Some(key) = &key {
            if let Some(hit) = cache.lookup(key) {
                // A damaged or foreign file can pass its checksum; its
                // entry would be served on every later lookup and persisted
                // by the next save.
                if crate::certify(self, config, &hit).is_ok() {
                    return Ok(hit);
                }
                cache.remove(key);
            }
        }
        let integral = self.integral_vars();
        let searched = if integral.is_empty() {
            solve_lp(self, config.deadline_token())
        } else {
            crate::parallel::search(self, config, options, &integral)
        };
        let solution = match searched {
            Err(IlpError::NoIncumbent) if options.degrade => {
                if config.cancel.as_ref().is_some_and(CancellationToken::cancelled_externally) {
                    return Err(IlpError::Cancelled);
                }
                // The heuristic's own status stays truthful (it may even
                // prove optimality at the root); `degraded` alone records
                // that the ladder produced this point.
                Solution { degraded: true, ..heuristic(self, &integral)? }
            }
            searched => searched?,
        };
        crate::certify(self, config, &solution)?;
        // Every ladder answer is degraded, and so is a search's
        // budget-truncated incumbent: neither is stored.
        if let Some(key) = key.filter(|_| !solution.degraded) {
            cache.insert(key, solution.clone());
        }
        Ok(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveStatus;

    #[test]
    fn rejects_inverted_bounds() {
        let mut m = Model::new("bad");
        let err = m.add_var("x", VarKind::Continuous, 2.0, 1.0).unwrap_err();
        assert!(matches!(err, IlpError::InvalidModel(_)));
    }

    /// Bounds that hold no real value are rejected when the variable is
    /// added, not left to the search, which has no point to return.
    #[test]
    fn rejects_bounds_with_no_real_value() {
        let mut m = Model::new("bad");
        for (lo, hi) in [(f64::NEG_INFINITY, f64::NEG_INFINITY), (f64::INFINITY, f64::INFINITY)] {
            let err = m.add_var("x", VarKind::Continuous, lo, hi).unwrap_err();
            assert!(matches!(err, IlpError::InvalidModel(_)), "[{lo}, {hi}]: {err:?}");
        }
        assert_eq!(m.num_vars(), 0);
        // Half-infinite and free boxes stay legal.
        m.add_var("y", VarKind::Continuous, f64::NEG_INFINITY, 0.0).unwrap();
        m.add_var("z", VarKind::Continuous, 0.0, f64::INFINITY).unwrap();
        m.add_var("w", VarKind::Continuous, f64::NEG_INFINITY, f64::INFINITY).unwrap();
    }

    /// Non-finite coefficients and NaN right-hand sides are typed errors
    /// from both solve entries, never an `Infeasible` or `Uncertified`
    /// verdict: a caller such as the bisection reads `Infeasible` as "no
    /// split exists" and takes its unflagged greedy fallback.
    #[test]
    fn non_finite_model_data_is_an_invalid_model() {
        type Build = fn(&mut Model, VarId, VarId);
        let cases: [(&str, Build); 5] = [
            ("x <= NaN", |m, x, _| m.add_le("c", x.into(), f64::NAN)),
            ("inf*x + y <= 1", |m, x, y| m.add_le("c", LinExpr::term(x, f64::INFINITY) + y, 1.0)),
            ("NaN*x row", |m, x, y| m.add_ge("c", LinExpr::term(x, f64::NAN) + y, 0.0)),
            ("NaN*x objective", |m, x, y| m.set_objective(Sense::Minimize, f64::NAN * x + y)),
            ("objective constant inf", |m, x, _| {
                m.set_objective(Sense::Maximize, LinExpr::from(x) + f64::INFINITY)
            }),
        ];
        for (name, build) in cases {
            let mut m = Model::new(name);
            let x = m.binary("x");
            let y = m.continuous("y", 0.0, 4.0);
            m.set_objective(Sense::Maximize, x + y);
            build(&mut m, x, y);
            let options = SolverOptions::default();
            for got in [m.solve(), m.solve_with_options(&SolverConfig::default(), &options)] {
                assert!(matches!(got, Err(IlpError::InvalidModel(_))), "{name}: {got:?}");
            }
        }
    }

    /// The search's tolerances are checked like the model's data: each
    /// setting below used to return a wrong answer or burn the node budget
    /// (NaN `int_tol` took the rounded LP point 7 as `Optimal` on a knapsack
    /// whose optimum is 9; `int_tol = -1` branched on integral columns).
    #[test]
    fn solver_config_values_that_give_wrong_answers_are_rejected() {
        let mut m = Model::new("knapsack");
        let [a, b, c] = [m.binary("a"), m.binary("b"), m.binary("c")];
        m.add_le("cap", 2.0 * a + 3.0 * b + c, 5.0);
        m.set_objective(Sense::Maximize, 5.0 * a + 4.0 * b + 3.0 * c);
        let bad: [(&str, SolverConfig); 10] = [
            ("int_tol", SolverConfig { int_tol: f64::NAN, ..Default::default() }),
            ("int_tol", SolverConfig { int_tol: f64::INFINITY, ..Default::default() }),
            ("int_tol", SolverConfig { int_tol: f64::NEG_INFINITY, ..Default::default() }),
            ("int_tol", SolverConfig { int_tol: -1.0, ..Default::default() }),
            ("int_tol", SolverConfig { int_tol: 0.5, ..Default::default() }),
            ("mip_gap", SolverConfig { mip_gap: f64::NAN, ..Default::default() }),
            ("mip_gap", SolverConfig { mip_gap: -1e-9, ..Default::default() }),
            (
                "objective_granularity",
                SolverConfig { objective_granularity: f64::NAN, ..Default::default() },
            ),
            (
                "objective_granularity",
                SolverConfig { objective_granularity: -1.0, ..Default::default() },
            ),
            (
                "objective_granularity",
                SolverConfig { objective_granularity: f64::INFINITY, ..Default::default() },
            ),
        ];
        let options = SolverOptions::default();
        for (field, config) in bad {
            for got in [m.solve_with(&config), m.solve_with_options(&config, &options)] {
                match got {
                    Err(IlpError::InvalidModel(why)) => assert!(why.contains(field), "{why}"),
                    other => panic!("{field} in {config:?}: {other:?}"),
                }
            }
        }
        // The edges of the legal ranges still solve.
        let exact = SolverConfig { int_tol: 0.0, mip_gap: 0.0, ..Default::default() };
        assert_eq!(m.solve_with(&exact).unwrap().objective, 9.0);
        let loose = SolverConfig {
            mip_gap: f64::INFINITY,
            objective_granularity: 1.0,
            ..Default::default()
        };
        assert!(m.is_feasible(&m.solve_with(&loose).unwrap().values, 1e-6));
    }

    /// `int_tol = 0.4` is legal, and takes the root LP point `b = 2/3` as
    /// integral: its rounded point `(1, 1, 1)` breaks the capacity row, so
    /// that node's bound (10⅔) stays open. Without the heuristic seed no
    /// incumbent exists; with it the seed's 7 comes back unproven and
    /// degraded instead of marked `Optimal`.
    #[test]
    fn a_coarse_int_tol_leaves_its_unroundable_node_open() {
        let mut m = Model::new("knapsack");
        let [a, b, c] = [m.binary("a"), m.binary("b"), m.binary("c")];
        m.add_le("cap", 2.0 * a + 3.0 * b + c, 5.0);
        m.set_objective(Sense::Maximize, 5.0 * a + 4.0 * b + 3.0 * c);
        let config = SolverConfig { int_tol: 0.4, ..Default::default() };
        assert_eq!(m.solve_with(&config).unwrap_err(), IlpError::NoIncumbent);
        let sol = m.solve_with_options(&config, &SolverOptions::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Feasible, "{sol:?}");
        assert!(sol.degraded, "{sol:?}");
        assert_eq!(sol.objective, 7.0);
        assert!((sol.best_bound - 32.0 / 3.0).abs() < 1e-9, "the open node's bound: {sol:?}");
    }

    /// An infinite right-hand side is legal data: `x ≤ +∞` is vacuous and
    /// `x ≥ +∞` unsatisfiable.
    #[test]
    fn infinite_right_hand_sides_stay_legal() {
        let mut m = Model::new("inf-rhs");
        let x = m.integer("x", 0.0, 3.0);
        m.add_le("vacuous", x.into(), f64::INFINITY);
        m.add_ge("vacuous too", x.into(), f64::NEG_INFINITY);
        m.set_objective(Sense::Maximize, x.into());
        assert_eq!(m.solve().unwrap().objective, 3.0);
        m.add_ge("unsatisfiable", x.into(), f64::INFINITY);
        assert_eq!(m.solve().unwrap_err(), IlpError::Infeasible);
    }

    #[test]
    fn constant_terms_fold_into_rhs() {
        let mut m = Model::new("fold");
        let x = m.continuous("x", 0.0, 10.0);
        // x + 3 <= 5  ≡  x <= 2
        m.add_le("c", LinExpr::term(x, 1.0) + 3.0, 5.0);
        m.set_objective(Sense::Maximize, x.into());
        let sol = m.solve().unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-7);
    }

    /// A row's activity is `Σ aᵢ·xᵢ` alone: the constant folded into `rhs`
    /// must not round it. `x + 1e10 ≤ 1e10` at `x = 9.6e-7` is within
    /// `1e-6`, but `(1e10 + x) − 1e10` reads 1.9e-6.
    #[test]
    fn row_activity_excludes_the_folded_constant() {
        let mut m = Model::new("offset");
        let x = m.continuous("x", 0.0, 1.0);
        m.add_le("c", LinExpr::term(x, 1.0) + 1e10, 1e10);
        let point = [9.6e-7];
        assert_eq!(crate::expr::dot(m.rows.row(0).terms, &point), 9.6e-7);
        assert!(m.is_feasible(&point, 1e-6));
        assert!(!m.is_feasible(&[1.1e-6], 1e-6));
        let answer = Solution {
            status: SolveStatus::Feasible,
            objective: 0.0,
            values: point.to_vec(),
            nodes_explored: 0,
            best_bound: 0.0,
            degraded: false,
        };
        crate::certify(&m, &SolverConfig::default(), &answer).unwrap();
    }

    /// A NaN entry is infeasible wherever it sits, also on a variable that
    /// no row reads: `y` is only in the objective and `z` in nothing. The
    /// bound and integrality checks used to compare with `<` and `>`, and
    /// every comparison with NaN is false; they now share `certify`'s rule.
    #[test]
    fn a_nan_entry_is_never_feasible() {
        let mut m = Model::new("nan");
        let x = m.binary("x");
        let y = m.continuous("y", 0.0, 1.0);
        m.binary("z");
        m.add_le("c", x.into(), 1.0);
        m.set_objective(Sense::Maximize, x + y);
        assert!(m.is_feasible(&[0.0, 0.5, 1.0], 1e-6));
        assert!(!m.is_feasible(&[0.0, f64::NAN, 1.0], 1e-6));
        assert!(!m.is_feasible(&[0.0, 0.5, f64::NAN], 1e-6));
        assert!(!m.is_feasible(&[f64::NAN, 0.5, 1.0], 1e-6));
    }

    #[test]
    fn feasibility_checker_matches_solver() {
        let mut m = Model::new("feas");
        let x = m.binary("x");
        let y = m.binary("y");
        m.add_le("c", x + y, 1.0);
        m.set_objective(Sense::Maximize, 2.0 * x + y);
        let sol = m.solve().unwrap();
        assert!(m.is_feasible(&sol.values, 1e-6));
        assert!(!m.is_feasible(&[1.0, 1.0], 1e-6));
    }

    #[test]
    fn pure_lp_shortcut() {
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, 4.0);
        m.set_objective(Sense::Maximize, 3.0 * x);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 12.0).abs() < 1e-7);
        assert_eq!(sol.nodes_explored, 0);
    }
}
