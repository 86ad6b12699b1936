//! The canonical key: a model's complete byte encoding, written section by
//! section and read back in one forward pass.
//!
//! The solve cache is keyed by these bytes ([`crate::SolveCache`]), and a
//! key holds the whole model, so a caller that knows its model's structure
//! can write the key without building the [`Model`] ([`KeyWriter`]). A
//! solve reads the model of a key it wrote without checking it again
//! ([`CanonicalKey`]): to build it for a cache miss, or to certify a stored
//! answer once. [`DecodedKey::parse`] checks a key from outside and reads
//! it, for tools that read a cache file.
//!
//! # Layout
//!
//! Integers and `f64` bits are little-endian; a count and a variable index
//! are `usize`s. Each count comes before what it counts, so the reader
//! finds every section from the counts before it:
//!
//! * header: the options head ([`SolverOptions`]' answer-changing
//!   switches, in ASCII), `0xff`, `max_nodes`, the bits of `int_tol`,
//!   `mip_gap` and `objective_granularity`, then `0` for no time limit or
//!   `1` and the limit in nanoseconds (`u128`);
//! * objective: the sense (`0` minimize, `1` maximize), the constant's
//!   bits, the term count, then one (index, coefficient bits) pair per
//!   term;
//! * vars: the variable count, then per variable its kind (`0` continuous,
//!   `1` integer, `2` binary) and the bits of its bounds;
//! * rows: the row count, then per row its operator (`0` ≤, `1` ≥, `2` =),
//!   the right-hand side's bits, the term count and the terms as in the
//!   objective.
//!
//! Terms are in strictly ascending variable order, none with a zero or
//! negligible coefficient, and the key ends with its last row: one model
//! has one key, and one key holds one model.

use std::ops::Range;
use std::time::Duration;

use crate::error::IlpError;
use crate::expr::{merge_term, negligible, LinExpr};
use crate::model::{CmpOp, Model, Rows, Sense, SolverConfig, VarId, VarKind, Variable};
use crate::solver::SolverOptions;

const HEAD_END: u8 = 0xff;

/// Bytes of a count, of `max_nodes` and of a variable index.
const WORD: usize = std::mem::size_of::<usize>();
/// Bytes of one encoded term: the variable index, then the coefficient.
const TERM_BYTES: usize = WORD + 8;
/// Bytes of one encoded variable: its kind and two bounds.
const VAR_BYTES: usize = 1 + 16;
/// Bytes of a row before its terms: its operator, right-hand side and term
/// count.
const ROW_HEAD_BYTES: usize = 1 + 8 + WORD;

/// What a key's model sections hold, counted up front so that the key is
/// written into one allocation of exactly its size. Term counts are after
/// merging: a zero coefficient is no term.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyShape {
    /// Variables.
    pub vars: usize,
    /// Objective terms.
    pub objective_terms: usize,
    /// Rows.
    pub rows: usize,
    /// Row terms, over all rows.
    pub row_terms: usize,
}

impl KeyShape {
    /// The key's length in bytes under a head of `head` bytes and `config`.
    fn len(&self, head: usize, config: &SolverConfig) -> usize {
        // Head, separator, `max_nodes`, then three `f64` settings.
        let header = head + 1 + WORD + 3 * 8;
        let limit = if config.time_limit.is_some() { 1 + 16 } else { 1 };
        let objective = 1 + 8 + WORD + TERM_BYTES * self.objective_terms;
        let vars = WORD + VAR_BYTES * self.vars;
        let rows = WORD + ROW_HEAD_BYTES * self.rows + TERM_BYTES * self.row_terms;
        header + limit + objective + vars + rows
    }
}

/// A canonical key as [`KeyWriter::finish`] wrote it, which checked its
/// data on the way: a solve reads its model without checking it again.
#[derive(Debug, Clone)]
pub struct CanonicalKey(Vec<u8>);

impl CanonicalKey {
    /// The key's bytes: what the solve cache stores its answer under.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// The model, read where the counts say.
    pub(crate) fn view(&self) -> KeyView<'_> {
        read(&self.0).map(|(_, _, view)| view).expect("a written key reads")
    }
}

/// Which section a [`KeyWriter`] writes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Objective,
    Vars,
    Rows,
}

/// Writes a model's canonical key without building the model: the header
/// (from [`KeyWriter::new`]), then [`objective`](Self::objective) once,
/// then every [`vars`](Self::vars), then every [`row`](Self::row), in that
/// order. The bytes are exactly those of the model the same calls would
/// build: `objective` is [`Model::set_objective`] of the expression its
/// terms add up to, `vars` is [`Model::add_var`] repeated and `row` is
/// [`Model::add_terms`], whose merge rules it keeps (a zero coefficient is
/// dropped, a repeated variable accumulates, terms come out ascending).
/// Each count is written when what it counts is. Data that
/// [`Model::solve_with_options`] would reject — a non-finite coefficient or
/// constant, a NaN right-hand side, bounds that hold no value — makes
/// [`finish`](Self::finish) return [`IlpError::InvalidModel`].
///
/// # Panics
///
/// When the sections are written out of order.
pub struct KeyWriter {
    key: Vec<u8>,
    section: Section,
    vars: usize,
    rows: usize,
    /// Where the open section's count goes: the vars' or the rows'.
    count_at: usize,
    /// The row being merged.
    terms: Vec<(VarId, f64)>,
    /// The first datum no search can take, described.
    invalid: Option<String>,
    /// Where the last row's term count and terms are in `key`.
    last_terms: Range<usize>,
    len: usize,
}

impl KeyWriter {
    /// A key for a model of `shape`, solved under `config` with `options`:
    /// [`Model::solve_canonical`] takes the finished key with the same two.
    pub fn new(config: &SolverConfig, options: &SolverOptions, shape: KeyShape) -> KeyWriter {
        KeyWriter::with_head(options.cache_key_head(), config, shape)
    }

    /// A key under an explicit options head.
    pub(crate) fn with_head(head: &str, config: &SolverConfig, shape: KeyShape) -> KeyWriter {
        let len = shape.len(head.len(), config);
        let mut key = Vec::with_capacity(len);
        write_header(&mut key, head, config);
        KeyWriter {
            key,
            section: Section::Objective,
            vars: 0,
            rows: 0,
            count_at: 0,
            terms: Vec::new(),
            invalid: None,
            last_terms: 0..0,
            len,
        }
    }

    fn invalid(&mut self, what: impl FnOnce() -> String) {
        if self.invalid.is_none() {
            self.invalid = Some(what());
        }
    }

    /// Writes a count that [`patch_count`](Self::patch_count) sets once
    /// what it counts is written, and returns where it is.
    fn open_count(&mut self) -> usize {
        self.key.extend_from_slice(&0usize.to_le_bytes());
        self.key.len() - WORD
    }

    fn patch_count(&mut self, at: usize, count: usize) {
        self.key[at..at + WORD].copy_from_slice(&count.to_le_bytes());
    }

    fn enter(&mut self, section: Section) {
        match (self.section, section) {
            (Section::Vars, Section::Rows) => {
                self.patch_count(self.count_at, self.vars);
                self.count_at = self.open_count();
            }
            (from, to) if from == to && from != Section::Objective => {}
            (from, to) => panic!("key section {to:?} written after {from:?}"),
        }
        self.section = section;
    }

    /// Writes one term, noting a coefficient no search can take.
    fn push_term(&mut self, var: usize, coeff: f64) {
        if !coeff.is_finite() {
            let rows = self.rows;
            self.invalid(|| match rows {
                0 => format!("objective has coefficient {coeff} on variable {var}"),
                row => format!("row {} has coefficient {coeff} on variable {var}", row - 1),
            });
        }
        self.key.extend_from_slice(&var.to_le_bytes());
        self.key.extend_from_slice(&coeff.to_bits().to_le_bytes());
    }

    /// Writes the count of `terms`, then `terms` as [`merge_term`] merges
    /// them into an empty row. Terms in ascending variable order go
    /// straight into the key; the first one out of order sends what is
    /// written and the rest through the scratch row.
    fn write_terms(&mut self, terms: impl IntoIterator<Item = (usize, f64)>) {
        let count_at = self.open_count();
        let from = self.key.len();
        let mut last = None;
        let mut terms = terms.into_iter();
        while let Some((var, coeff)) = terms.next() {
            if coeff == 0.0 {
                continue;
            }
            if last.is_some_and(|last| var <= last) {
                self.merge_rest(from, [(var, coeff)].into_iter().chain(terms));
                break;
            }
            // A fresh term enters its row only when not negligible.
            if !negligible(coeff) {
                self.push_term(var, coeff);
                last = Some(var);
            }
        }
        self.patch_count(count_at, (self.key.len() - from) / TERM_BYTES);
    }

    /// The rest of [`write_terms`](Self::write_terms) from its first term
    /// out of order: the terms written from `from` on and `rest` are merged
    /// in the scratch row, which then replaces them.
    #[cold]
    fn merge_rest(&mut self, from: usize, rest: impl Iterator<Item = (usize, f64)>) {
        self.terms.clear();
        self.terms.extend(read_terms(&self.key[from..]));
        self.key.truncate(from);
        for (var, coeff) in rest {
            merge_term(&mut self.terms, 0, VarId(var), coeff);
        }
        let merged = std::mem::take(&mut self.terms);
        for &(var, coeff) in &merged {
            self.push_term(var.0, coeff);
        }
        self.terms = merged;
    }

    /// The objective section: `sense`, `constant` and the terms over
    /// variable indices.
    pub fn objective(
        &mut self,
        sense: Sense,
        constant: f64,
        terms: impl IntoIterator<Item = (usize, f64)>,
    ) {
        assert_eq!(self.section, Section::Objective, "a key has one objective section");
        self.section = Section::Vars;
        self.key.push(match sense {
            Sense::Minimize => 0,
            Sense::Maximize => 1,
        });
        self.key.extend_from_slice(&constant.to_bits().to_le_bytes());
        if !constant.is_finite() {
            self.invalid(|| format!("objective has constant {constant}"));
        }
        self.write_terms(terms);
        self.count_at = self.open_count();
    }

    /// The next `count` variables, each of `kind` in `[lower, upper]`,
    /// indexed on from the variables before them.
    pub fn vars(&mut self, kind: VarKind, lower: f64, upper: f64, count: usize) {
        self.enter(Section::Vars);
        match check_bounds(lower, upper) {
            Err(why) if count > 0 => {
                let var = self.vars;
                self.invalid(|| format!("variable {var} {why}"));
            }
            _ => {}
        }
        self.vars += count;
        let mut record = [0; VAR_BYTES];
        record[0] = match kind {
            VarKind::Continuous => 0,
            VarKind::Integer => 1,
            VarKind::Binary => 2,
        };
        record[1..9].copy_from_slice(&lower.to_bits().to_le_bytes());
        record[9..].copy_from_slice(&upper.to_bits().to_le_bytes());
        for _ in 0..count {
            self.key.extend_from_slice(&record);
        }
    }

    fn write_row_head(&mut self, op: CmpOp, rhs: f64) {
        self.enter(Section::Rows);
        let row = self.rows;
        self.rows += 1;
        if rhs.is_nan() {
            self.invalid(|| format!("row {row} has a NaN right-hand side"));
        }
        self.key.push(match op {
            CmpOp::Le => 0,
            CmpOp::Ge => 1,
            CmpOp::Eq => 2,
        });
        self.key.extend_from_slice(&rhs.to_bits().to_le_bytes());
    }

    /// The next row, `Σ coeff·var op rhs` over variable indices.
    pub fn row(&mut self, terms: impl IntoIterator<Item = (usize, f64)>, op: CmpOp, rhs: f64) {
        self.write_row_head(op, rhs);
        let from = self.key.len();
        self.write_terms(terms);
        self.last_terms = from..self.key.len();
    }

    /// The next row over the terms of the row before it, copied rather
    /// than merged again: a pair of rows that bound one sum from both sides.
    ///
    /// # Panics
    ///
    /// When no row was written before.
    pub fn repeat_row(&mut self, op: CmpOp, rhs: f64) {
        assert!(self.rows > 0, "no row to repeat");
        self.write_row_head(op, rhs);
        self.key.extend_from_within(self.last_terms.clone());
    }

    /// The key, whatever data it holds.
    pub(crate) fn into_key(mut self) -> CanonicalKey {
        self.enter(Section::Rows);
        self.patch_count(self.count_at, self.rows);
        debug_assert_eq!(self.key.len(), self.len, "the key's shape disagrees with its sections");
        CanonicalKey(self.key)
    }

    /// The finished key.
    ///
    /// # Errors
    ///
    /// [`IlpError::InvalidModel`] naming the first datum that no search
    /// can take (see the type's doc).
    ///
    /// # Panics
    ///
    /// When no objective section was written.
    pub fn finish(mut self) -> Result<CanonicalKey, IlpError> {
        match self.invalid.take() {
            Some(what) => Err(IlpError::InvalidModel(what)),
            None => Ok(self.into_key()),
        }
    }
}

pub(crate) fn write_header(key: &mut Vec<u8>, head: &str, config: &SolverConfig) {
    key.extend_from_slice(head.as_bytes());
    key.push(HEAD_END);
    // Budget-relevant config: a tighter budget may return a different
    // (anytime) incumbent, so it must not share entries.
    key.extend_from_slice(&config.max_nodes.to_le_bytes());
    key.extend_from_slice(&config.int_tol.to_bits().to_le_bytes());
    key.extend_from_slice(&config.mip_gap.to_bits().to_le_bytes());
    // Granularity changes which nodes prune, hence which anytime incumbent
    // a budgeted solve returns — different lattices must not share entries.
    key.extend_from_slice(&config.objective_granularity.to_bits().to_le_bytes());
    match config.time_limit {
        Some(limit) => {
            key.push(1);
            key.extend_from_slice(&limit.as_nanos().to_le_bytes());
        }
        None => key.push(0),
    }
}

/// [`Model::add_var`]'s rule: bounds that are not NaN, ordered, and hold
/// some real value.
pub(crate) fn check_bounds(lower: f64, upper: f64) -> Result<(), String> {
    if lower.is_nan() || upper.is_nan() {
        return Err("has a NaN bound".into());
    }
    if lower > upper {
        return Err(format!("has lower bound {lower} > upper bound {upper}"));
    }
    if lower == f64::INFINITY || upper == f64::NEG_INFINITY {
        return Err(format!("has no real value in [{lower}, {upper}]"));
    }
    Ok(())
}

/// Why a byte string is not a canonical key. Reading one never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyError {
    /// The key ends inside the named section, or a count there holds more
    /// than the rest of the key.
    Truncated(&'static str),
    /// The byte at `at` should be a kind, an operator, a sense or the
    /// time-limit flag, or the key should have ended before it; it is
    /// `found`.
    BadTag {
        /// Offset in the key.
        at: usize,
        /// The byte there.
        found: u8,
    },
    /// A term names variable `var` of a model of `vars` variables.
    VarOutOfRange {
        /// The index read.
        var: usize,
        /// The model's variable count.
        vars: usize,
    },
    /// A term's variable is not above the one before it.
    TermsOutOfOrder {
        /// The index read.
        var: usize,
    },
    /// A value no model holds: a coefficient that is not finite or is
    /// negligible, a constant that is not finite, a NaN right-hand side,
    /// bounds that hold no value, a time limit past `Duration`, or an
    /// unknown options head.
    BadValue(String),
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::Truncated(section) => write!(f, "key ends inside its {section} section"),
            KeyError::BadTag { at, found } => write!(f, "unexpected byte {found:#04x} at {at}"),
            KeyError::VarOutOfRange { var, vars } => {
                write!(f, "term on variable {var} of a model of {vars} variables")
            }
            KeyError::TermsOutOfOrder { var } => write!(f, "term on variable {var} out of order"),
            KeyError::BadValue(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for KeyError {}

impl From<KeyError> for IlpError {
    fn from(err: KeyError) -> Self {
        IlpError::InvalidModel(format!("canonical key: {err}"))
    }
}

/// A canonical key read back: the model and what it is solved under.
/// `decoded.model.canonical_key(&decoded.config, &decoded.options)` is the
/// key it was read from, byte for byte.
#[derive(Debug, Clone)]
pub struct DecodedKey {
    /// The model.
    pub model: Model,
    /// The budget settings the key holds; no cancellation token.
    pub config: SolverConfig,
    /// The options the key's head names, otherwise default.
    pub options: SolverOptions,
}

impl DecodedKey {
    /// Checks and reads `key` in one forward pass. Rows, terms, bounds and
    /// the objective come back exactly as the key's model held them, so
    /// every LP of its search is the same.
    ///
    /// # Errors
    ///
    /// [`KeyError`] when `key` is not a canonical key: truncated, a count
    /// past its end, a bad kind, operator or sense, a term out of range or
    /// out of order, trailing bytes, a value no model holds, or a head that
    /// names no options.
    pub fn parse(key: &[u8]) -> Result<DecodedKey, KeyError> {
        let (head, config, view) = read(key)?;
        let options = SolverOptions::from_cache_key_head(head).ok_or_else(|| {
            let head = String::from_utf8_lossy(head);
            KeyError::BadValue(format!("unknown options head {head:?}"))
        })?;
        if !view.constant.is_finite() {
            return Err(KeyError::BadValue(format!("objective constant {}", view.constant)));
        }
        let vars = view.vars.len() / VAR_BYTES;
        check_terms(&key[view.objective.clone()], vars)?;
        for (var, at) in view.vars.clone().step_by(VAR_BYTES).enumerate() {
            if key[at] > 2 {
                return Err(KeyError::BadTag { at, found: key[at] });
            }
            check_bounds(float_at(key, at + 1), float_at(key, at + 9))
                .map_err(|why| KeyError::BadValue(format!("variable {var} {why}")))?;
        }
        let mut rows = Rows::with_capacity(view.rows, view.row_terms());
        let mut cursor = Cursor { key, at: view.rows_at };
        for row in 0..view.rows {
            let at = cursor.at;
            let op = cursor.byte("rows")?;
            if op > 2 {
                return Err(KeyError::BadTag { at, found: op });
            }
            let rhs = cursor.float("rows")?;
            if rhs.is_nan() {
                return Err(KeyError::BadValue(format!("row {row} has a NaN right-hand side")));
            }
            let terms = &key[cursor.items(TERM_BYTES, "rows")?];
            check_terms(terms, vars)?;
            for (var, coeff) in read_terms(terms) {
                rows.push_term(var, coeff);
            }
            rows.close(op_of(op), rhs);
        }
        if let Some(&found) = key.get(cursor.at) {
            return Err(KeyError::BadTag { at: cursor.at, found });
        }
        Ok(DecodedKey { model: view.model_of(rows), config, options })
    }
}

impl Model {
    /// The canonical key of this model solved under `config` with
    /// `options`: what the solve cache stores its answer under.
    pub fn canonical_key(&self, config: &SolverConfig, options: &SolverOptions) -> Vec<u8> {
        model_key(options.cache_key_head(), self, config).into_bytes()
    }
}

/// The canonical key of `(head, config, model)`, `head` being
/// `SolverOptions::cache_key_head`, written from the model's own terms.
/// They are merged already, so they go into the key as they are, except
/// for a term that scaling left at a zero or negligible coefficient, which
/// no row merges in. Structurally identical models encode identically: the
/// builders' labels are not even stored.
pub(crate) fn model_key(head: &str, model: &Model, config: &SolverConfig) -> CanonicalKey {
    let terms = |terms: &[(VarId, f64)]| terms.iter().filter(|&&(_, c)| !negligible(c)).count();
    let shape = KeyShape {
        vars: model.vars.len(),
        objective_terms: terms(model.objective.terms()),
        rows: model.rows.len(),
        row_terms: model.rows.iter().map(|row| terms(row.terms)).sum(),
    };
    let mut key = KeyWriter::with_head(head, config, shape);
    let objective = model.objective.iter().map(|(var, coeff)| (var.0, coeff));
    key.objective(model.sense, model.objective.constant(), objective);
    for var in &model.vars {
        key.vars(var.kind, var.lower, var.upper, 1);
    }
    for row in model.rows.iter() {
        key.row(row.terms.iter().map(|&(var, coeff)| (var.0, coeff)), row.op, row.rhs);
    }
    key.into_key()
}

/// The `usize` at `at` of bytes known to hold it.
fn usize_at(key: &[u8], at: usize) -> usize {
    usize::from_le_bytes(key[at..at + WORD].try_into().expect("a usize's bytes"))
}

/// The `f64` at `at` of bytes known to hold it.
fn float_at(key: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(key[at..at + 8].try_into().expect("8-byte slice"))
}

fn op_of(b: u8) -> CmpOp {
    match b {
        0 => CmpOp::Le,
        1 => CmpOp::Ge,
        _ => CmpOp::Eq,
    }
}

fn kind_of(b: u8) -> VarKind {
    match b {
        0 => VarKind::Continuous,
        1 => VarKind::Integer,
        _ => VarKind::Binary,
    }
}

/// The terms in `bytes`.
fn read_terms(bytes: &[u8]) -> impl ExactSizeIterator<Item = (VarId, f64)> + '_ {
    bytes.chunks_exact(TERM_BYTES).map(|term| (VarId(usize_at(term, 0)), float_at(term, WORD)))
}

/// Checks the terms in `bytes` of a model of `vars` variables: each on a
/// variable in range and above the one before it, with a coefficient that a
/// merged row keeps.
fn check_terms(bytes: &[u8], vars: usize) -> Result<(), KeyError> {
    let mut prev = None;
    for (VarId(var), coeff) in read_terms(bytes) {
        if var >= vars {
            return Err(KeyError::VarOutOfRange { var, vars });
        }
        if prev.is_some_and(|prev| var <= prev) {
            return Err(KeyError::TermsOutOfOrder { var });
        }
        if !coeff.is_finite() || negligible(coeff) {
            return Err(KeyError::BadValue(format!("coefficient {coeff} on variable {var}")));
        }
        prev = Some(var);
    }
    Ok(())
}

/// A forward read of a key's bytes.
struct Cursor<'a> {
    key: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    /// Steps over the next `n` bytes, in the named section, and returns
    /// where they are.
    fn take(&mut self, n: usize, section: &'static str) -> Result<Range<usize>, KeyError> {
        if n > self.key.len() - self.at {
            return Err(KeyError::Truncated(section));
        }
        self.at += n;
        Ok(self.at - n..self.at)
    }

    fn byte(&mut self, section: &'static str) -> Result<u8, KeyError> {
        self.take(1, section).map(|at| self.key[at.start])
    }

    fn float(&mut self, section: &'static str) -> Result<f64, KeyError> {
        self.take(8, section).map(|at| float_at(self.key, at.start))
    }

    fn word(&mut self, section: &'static str) -> Result<usize, KeyError> {
        self.take(WORD, section).map(|at| usize_at(self.key, at.start))
    }

    /// A count of items of at least `bytes` bytes each that the rest of the
    /// key can hold.
    fn count(&mut self, bytes: usize, section: &'static str) -> Result<usize, KeyError> {
        let count = self.word(section)?;
        if count > (self.key.len() - self.at) / bytes {
            return Err(KeyError::Truncated(section));
        }
        Ok(count)
    }

    /// A count of items of `bytes` bytes each, then the items: where they
    /// are.
    fn items(&mut self, bytes: usize, section: &'static str) -> Result<Range<usize>, KeyError> {
        let count = self.count(bytes, section)?;
        self.take(count * bytes, section)
    }
}

/// Reads `key`'s header and objective sense, and finds its sections by
/// their counts; the data in them is not checked.
fn read(key: &[u8]) -> Result<(&[u8], SolverConfig, KeyView<'_>), KeyError> {
    let head = key.iter().position(|&b| b == HEAD_END).ok_or(KeyError::Truncated("header"))?;
    let mut cursor = Cursor { key, at: head + 1 };
    let max_nodes = cursor.word("header")?;
    let int_tol = cursor.float("header")?;
    let mip_gap = cursor.float("header")?;
    let objective_granularity = cursor.float("header")?;
    let at = cursor.at;
    let time_limit = match cursor.byte("header")? {
        0 => None,
        1 => {
            let nanos = &key[cursor.take(16, "header")?];
            let nanos = u128::from_le_bytes(nanos.try_into().expect("16-byte slice"));
            let secs = u64::try_from(nanos / 1_000_000_000)
                .map_err(|_| KeyError::BadValue(format!("time limit of {nanos} ns")))?;
            Some(Duration::new(secs, (nanos % 1_000_000_000) as u32))
        }
        found => return Err(KeyError::BadTag { at, found }),
    };
    let config = SolverConfig {
        time_limit,
        max_nodes,
        int_tol,
        mip_gap,
        objective_granularity,
        cancel: None,
    };
    let at = cursor.at;
    let sense = match cursor.byte("objective")? {
        0 => Sense::Minimize,
        1 => Sense::Maximize,
        found => return Err(KeyError::BadTag { at, found }),
    };
    let constant = cursor.float("objective")?;
    let objective = cursor.items(TERM_BYTES, "objective")?;
    let vars = cursor.items(VAR_BYTES, "vars")?;
    let rows = cursor.count(ROW_HEAD_BYTES, "rows")?;
    let view = KeyView { key, sense, constant, objective, vars, rows, rows_at: cursor.at };
    Ok((&key[..head], config, view))
}

/// A key's model left in its bytes, found by its counts: of a key that was
/// written ([`CanonicalKey`]) or checked ([`DecodedKey::parse`]).
/// [`KeyView::model`] builds the model; [`crate::certificate`] also audits
/// an answer against the view directly.
pub(crate) struct KeyView<'a> {
    key: &'a [u8],
    sense: Sense,
    constant: f64,
    /// The objective's terms.
    objective: Range<usize>,
    /// The variables' records.
    vars: Range<usize>,
    rows: usize,
    /// Where the first row starts.
    rows_at: usize,
}

impl KeyView<'_> {
    pub fn sense(&self) -> Sense {
        self.sense
    }

    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Every variable's kind and bounds, in index order.
    pub fn vars(&self) -> impl ExactSizeIterator<Item = (VarKind, f64, f64)> + '_ {
        self.key[self.vars.clone()]
            .chunks_exact(VAR_BYTES)
            .map(|record| (kind_of(record[0]), float_at(record, 1), float_at(record, 9)))
    }

    /// The objective's terms.
    pub fn objective(&self) -> impl ExactSizeIterator<Item = (VarId, f64)> + '_ {
        read_terms(&self.key[self.objective.clone()])
    }

    /// Every row: its operator, right-hand side and terms.
    pub fn rows(
        &self,
    ) -> impl Iterator<Item = (CmpOp, f64, impl ExactSizeIterator<Item = (VarId, f64)> + '_)> + '_
    {
        let mut at = self.rows_at;
        (0..self.rows).map(move |_| {
            let row = at;
            at += ROW_HEAD_BYTES + TERM_BYTES * usize_at(self.key, row + 9);
            let terms = read_terms(&self.key[row + ROW_HEAD_BYTES..at]);
            (op_of(self.key[row]), float_at(self.key, row + 1), terms)
        })
    }

    /// Row terms over all rows, if the rows end where the key does.
    fn row_terms(&self) -> usize {
        (self.key.len() - self.rows_at - ROW_HEAD_BYTES * self.rows) / TERM_BYTES
    }

    /// The model of these variables and objective over `rows`.
    fn model_of(&self, rows: Rows) -> Model {
        let vars =
            self.vars().map(|(kind, lower, upper)| Variable { kind, lower, upper }).collect();
        let objective = LinExpr::from_sorted(self.objective().collect(), self.constant);
        Model::from_parts(vars, rows, objective, self.sense)
    }

    /// The model, rows and terms exactly as the key holds them.
    pub fn model(&self) -> Model {
        let mut rows = Rows::with_capacity(self.rows, self.row_terms());
        for (op, rhs, terms) in self.rows() {
            for (var, coeff) in terms {
                rows.push_term(var, coeff);
            }
            rows.close(op, rhs);
        }
        self.model_of(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::{Solution, SolveStatus};
    use proptest::prelude::*;

    /// Every section and both ends of every kind: a binary, a general
    /// integer and a continuous variable, all three operators, a constant,
    /// a maximize objective, and a time limit in the header.
    fn golden() -> (Model, SolverConfig) {
        let mut m = Model::new("golden");
        let x = m.binary("x");
        let y = m.integer("y", -2.0, 7.0);
        let z = m.continuous("z", 0.0, 2.5);
        m.add_eq("e", 2.0 * z + x - 0.5 * y, 3.0);
        m.add_ge("g", 1.25 * y + 3.0 * x + 2.0 - z, 4.0);
        m.add_le("l", x + y, f64::INFINITY);
        m.set_objective(Sense::Maximize, 4.0 * z + 5.0 * x - y + 1.5);
        (m, SolverConfig { objective_granularity: 0.5, ..SolverConfig::default() })
    }

    fn key_of(model: &Model, config: &SolverConfig) -> Vec<u8> {
        model.canonical_key(config, &SolverOptions::default())
    }

    #[test]
    fn a_key_decodes_to_its_model_and_settings() {
        let (m, config) = golden();
        let key = key_of(&m, &config);
        let decoded = DecodedKey::parse(&key).unwrap();
        assert_eq!(decoded.model.canonical_key(&decoded.config, &decoded.options), key);
        assert_eq!(decoded.config.time_limit, config.time_limit);
        assert_eq!(decoded.config.objective_granularity, 0.5);
        assert_eq!(decoded.options.cache_key_head(), SolverOptions::default().cache_key_head());
        let model = decoded.model;
        assert_eq!((model.num_vars(), model.num_constraints()), (3, 3));
        let row = model.rows.row(1);
        assert_eq!(row.op, CmpOp::Ge);
        assert_eq!(row.rhs, 2.0);
        assert_eq!(model.objective.constant(), 1.5);
        // Without a time limit, and under another head.
        let config = SolverConfig { time_limit: None, ..config };
        let options = SolverOptions { warm_start: false, presolve: false, ..Default::default() };
        let key = m.canonical_key(&config, &options);
        let decoded = DecodedKey::parse(&key).unwrap();
        assert_eq!(decoded.config.time_limit, None);
        assert_eq!(decoded.model.canonical_key(&decoded.config, &decoded.options), key);
    }

    /// A deterministic stream of draws below each bound.
    fn draws(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed | 1;
        move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        }
    }

    /// A model of `n` variables whose terms sit on the indices whose low
    /// byte is `0xfc` or `0xfe` (and their 256-steps), rows of every
    /// operator over a zero right-hand side after them, and a zero
    /// coefficient: index bytes that equal the bytes around them.
    fn ambiguous(n: usize, seed: u64) -> Model {
        let mut next = draws(seed);
        let mut m = Model::new("ambiguous");
        let vars: Vec<VarId> = (0..n).map(|_| m.binary("x")).collect();
        let tagged: Vec<usize> =
            (0..n).filter(|i| matches!(i % 256, 252 | 254) || next(20) == 0).collect();
        let mut objective = LinExpr::new();
        for &i in &tagged {
            if next(2) == 0 {
                objective.add_term(vars[i], 1.0 + next(3) as f64);
            }
        }
        m.set_objective(Sense::Minimize, objective);
        for row in 0..40 {
            let mut terms = Vec::new();
            for &i in &tagged {
                if next(3) == 0 {
                    terms.push((vars[i], [1.0, -1.0, 0.5][next(3)]));
                }
            }
            let op = [CmpOp::Le, CmpOp::Ge, CmpOp::Eq][row % 3];
            m.add_terms("r", terms, op, [0.0, 1.0, 2.0][next(3)]);
        }
        m.add_constraint("zero", LinExpr::term(vars[0], 1.0) * 0.0, CmpOp::Le, 0.0);
        m
    }

    #[test]
    fn keys_of_hundreds_of_variables_round_trip() {
        let config = SolverConfig::default();
        for (n, seed) in [(300, 1), (600, 2), (900, 3), (253, 4), (252, 5)] {
            let m = ambiguous(n, seed);
            let key = key_of(&m, &config);
            let decoded = DecodedKey::parse(&key).unwrap().model;
            assert_eq!(key_of(&decoded, &config), key, "{n} variables");
            let written = model_key(SolverOptions::default().cache_key_head(), &m, &config);
            assert_eq!(key_of(&written.view().model(), &config), key, "{n} variables");
            assert_eq!(decoded.num_constraints(), m.num_constraints(), "{n} variables");
            for (a, b) in decoded.rows.iter().zip(m.rows.iter()) {
                // The key holds the model's terms, less the one scaled to zero.
                let terms: Vec<_> = b.terms.iter().copied().filter(|&(_, c)| c != 0.0).collect();
                assert_eq!((a.terms, a.op, a.rhs.to_bits()), (&terms[..], b.op, b.rhs.to_bits()));
            }
        }
    }

    /// Where the head of `key` ends, and where its counts are: the
    /// objective's terms, the variables and the rows.
    fn offsets(model: &Model, key: &[u8]) -> [usize; 4] {
        let head = key.iter().position(|&b| b == HEAD_END).unwrap();
        let objective = head + 1 + WORD + 24 + 17 + 9;
        let vars = objective + WORD + TERM_BYTES * model.objective.len();
        [head, objective, vars, vars + WORD + VAR_BYTES * model.num_vars()]
    }

    #[test]
    fn malformed_keys_are_typed_errors() {
        let (m, config) = golden();
        let key = key_of(&m, &config);
        let [head, objective, vars, rows] = offsets(&m, &key);
        assert_eq!([objective, vars, rows].map(|at| usize_at(&key, at)), [3; 3], "the offsets");
        let decode = |bytes: &[u8]| DecodedKey::parse(bytes).map(|d| d.model.num_constraints());

        // Cut short anywhere, also right after a row: the count says how
        // many rows follow.
        let long_key = key_of(&ambiguous(300, 1), &SolverConfig::default());
        for whole in [&key, &long_key] {
            for len in 0..whole.len() {
                assert!(decode(&whole[..len]).is_err(), "cut to {len} of {}", whole.len());
            }
        }
        for cut in [objective - 20, objective + 3, vars, rows + WORD + 9, key.len() - 4] {
            assert!(matches!(decode(&key[..cut]), Err(KeyError::Truncated(_))), "at {cut}");
        }
        // A count past the key's end, in each section and in a row.
        let first_row = rows + WORD;
        for (at, section) in
            [(objective, "objective"), (vars, "vars"), (rows, "rows"), (first_row + 9, "rows")]
        {
            let mut bad = key.clone();
            bad[at..at + WORD].copy_from_slice(&usize::MAX.to_le_bytes());
            assert_eq!(decode(&bad), Err(KeyError::Truncated(section)), "at {at}");
        }

        // A bad time-limit flag, sense, kind and operator.
        let flag = head + 1 + WORD + 24;
        for (at, found) in [(flag, 2), (objective - 9, 2), (vars + WORD, 3), (first_row, 3)] {
            let mut bad = key.clone();
            bad[at] = found;
            assert_eq!(decode(&bad), Err(KeyError::BadTag { at, found }), "at {at}");
        }

        // Row 0 is `x − 0.5·y + 2·z = 3`: its terms start after its
        // operator, right-hand side and term count.
        let term = |t: usize| first_row + ROW_HEAD_BYTES + t * TERM_BYTES;
        let with = |at: usize, bytes: [u8; 8]| {
            let mut bad = key.clone();
            bad[at..at + 8].copy_from_slice(&bytes);
            bad
        };
        let out_of_range = with(term(1), 3usize.to_le_bytes());
        assert_eq!(decode(&out_of_range), Err(KeyError::VarOutOfRange { var: 3, vars: 3 }));
        let out_of_order = with(term(1), 0usize.to_le_bytes());
        assert_eq!(decode(&out_of_order), Err(KeyError::TermsOutOfOrder { var: 0 }));
        // Values no model holds: a coefficient no merged row keeps, a
        // non-finite constant, bounds that hold no value, a NaN right-hand
        // side.
        let mut bad_values: Vec<(usize, f64)> = [f64::NAN, f64::INFINITY, 0.0, -0.0, 1e-301]
            .into_iter()
            .map(|coeff| (term(0) + WORD, coeff))
            .collect();
        bad_values.extend([
            (objective - 8, f64::NEG_INFINITY),
            (vars + WORD + 1, f64::NAN),
            (vars + WORD + 1, 2.0),
            (first_row + 1, f64::NAN),
        ]);
        for (at, value) in bad_values {
            let bad = with(at, value.to_le_bytes());
            assert!(matches!(decode(&bad), Err(KeyError::BadValue(_))), "{value} at {at}");
        }

        // Bytes after the last row.
        for tail in [&[0u8][..], &[2, 0, 0], &[0xfc; 12]] {
            let mut long = key.clone();
            long.extend_from_slice(tail);
            let at = key.len();
            assert_eq!(decode(&long), Err(KeyError::BadTag { at, found: tail[0] }), "{tail:?}");
        }
        // A head no options write.
        let mut foreign = b"serial".to_vec();
        foreign.extend_from_slice(&key[head..]);
        assert!(matches!(DecodedKey::parse(&foreign), Err(KeyError::BadValue(_))));
        // The error reads as an invalid model on the solve path.
        let err: IlpError = KeyError::Truncated("rows").into();
        assert!(matches!(err, IlpError::InvalidModel(_)), "{err:?}");
    }

    /// A small model drawn from `seed`: every kind, sense and operator,
    /// infinite bounds and right-hand sides, rows without terms, and
    /// coefficients that scaling leaves at zero or negligible.
    fn random_model(seed: u64) -> Model {
        let mut next = draws(seed);
        let mut m = Model::new("random");
        let vars: Vec<VarId> = (0..1 + next(5))
            .map(|_| match next(3) {
                0 => m.binary("b"),
                1 => m.integer("i", -3.0, [4.0, f64::INFINITY][next(2)]),
                _ => m.continuous("c", [f64::NEG_INFINITY, 0.0][next(2)], 2.5),
            })
            .collect();
        let scales = [1.0, -0.5, 3.0, 0.0, 1e-155];
        let expr = |next: &mut dyn FnMut(usize) -> usize| {
            let mut e = LinExpr::constant_term([0.0, 1.5][next(2)]);
            for &v in &vars {
                if next(2) == 0 {
                    e.add_term(v, [1.0, -2.0, 0.25, 1e-150][next(4)]);
                }
            }
            e * scales[next(scales.len())]
        };
        let sense = [Sense::Minimize, Sense::Maximize][next(2)];
        let objective = expr(&mut next);
        m.set_objective(sense, objective);
        for _ in 0..next(5) {
            let row = expr(&mut next);
            let op = [CmpOp::Le, CmpOp::Ge, CmpOp::Eq][next(3)];
            m.add_constraint("r", row, op, [0.0, -1.0, f64::INFINITY][next(3)]);
        }
        m
    }

    /// A byte that makes a count, an index or a coefficient's exponent
    /// extreme, or any byte.
    fn byte() -> impl Strategy<Value = u8> {
        const EDGES: [u8; 6] = [0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff];
        (0..2 * EDGES.len(), any::<u8>()).prop_map(|(k, b)| EDGES.get(k).copied().unwrap_or(b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A key with any one byte changed, or cut short anywhere, is a
        /// typed error or the key of the model it reads as: the reader
        /// accepts nothing the writer would not write.
        #[test]
        fn a_changed_or_cut_key_is_an_error_or_its_models_key(
            seed in any::<u64>(),
            limit in any::<bool>(),
            byte in byte(),
        ) {
            let config = SolverConfig {
                time_limit: limit.then_some(Duration::from_millis(1500)),
                ..SolverConfig::default()
            };
            let key = key_of(&random_model(seed), &config);
            let reads_as_itself = |bytes: &[u8]| match DecodedKey::parse(bytes) {
                Ok(decoded) => decoded.model.canonical_key(&decoded.config, &decoded.options) == bytes,
                Err(_) => true,
            };
            for at in 0..key.len() {
                let mut changed = key.clone();
                changed[at] = byte;
                prop_assert!(reads_as_itself(&changed), "byte {at} set to {byte:#04x}");
                prop_assert!(reads_as_itself(&key[..at]), "cut to {at}");
            }
        }
    }

    /// The certificate reads a written key in place exactly as it reads the
    /// model.
    #[test]
    fn a_written_key_certifies_as_its_model_does() {
        let (m, config) = golden();
        let key = model_key("seq", &m, &config);
        let point = |values: Vec<f64>, objective| Solution {
            status: SolveStatus::Feasible,
            objective,
            values,
            nodes_explored: 0,
            best_bound: objective,
            degraded: false,
        };
        for answer in [
            point(vec![1.0, -2.0, 0.0], 8.5),
            point(vec![1.0, 2.0, 1.0], 8.5),
            point(vec![0.0, 1.0, 2.5], 10.5),
            point(vec![1.0, 0.0, 1.0], 10.5),
            point(vec![1.0, 0.0], 0.0),
        ] {
            let by_key = crate::certificate::audit(&key.view(), &config, &answer);
            assert_eq!(by_key, crate::certify(&m, &config, &answer), "{answer:?}");
        }
    }

    /// The writer's rows are `Model::add_terms`' rows: merged, zero
    /// coefficients dropped, in ascending order.
    #[test]
    fn written_rows_merge_as_the_model_merges_them() {
        let config = SolverConfig::default();
        let options = SolverOptions::default();
        let rows: [&[(usize, f64)]; 4] = [
            &[(2, 1.0), (0, 2.0), (2, -1.0), (1, 0.0)],
            &[(1, 0.5), (1, 0.25), (0, 1e-301)],
            &[(0, 3.0), (1, 0.0), (2, 4.0)],
            &[],
        ];
        let mut m = Model::new("merged");
        let v: Vec<VarId> = (0..3).map(|_| m.integer("v", 0.0, 5.0)).collect();
        m.set_objective(Sense::Minimize, 2.0 * v[2] + v[0]);
        let shape = KeyShape { vars: 3, objective_terms: 2, rows: 4, row_terms: 4 };
        let mut key = KeyWriter::new(&config, &options, shape);
        key.objective(Sense::Minimize, 0.0, [(2, 2.0), (0, 1.0)]);
        key.vars(VarKind::Integer, 0.0, 5.0, 3);
        for terms in rows {
            m.add_terms("r", terms.iter().map(|&(i, c)| (v[i], c)), CmpOp::Le, 1.0);
            key.row(terms.iter().copied(), CmpOp::Le, 1.0);
        }
        assert_eq!(key.finish().unwrap().as_bytes(), m.canonical_key(&config, &options));
        // A pair of rows over one sum.
        let mut key =
            KeyWriter::new(&config, &options, KeyShape { rows: 2, row_terms: 2, ..shape });
        key.objective(Sense::Minimize, 0.0, [(2, 2.0), (0, 1.0)]);
        key.vars(VarKind::Integer, 0.0, 5.0, 3);
        key.row([(1, 1.0)], CmpOp::Le, 4.0);
        key.repeat_row(CmpOp::Ge, 1.0);
        let mut pair = Model::new("pair");
        let v: Vec<VarId> = (0..3).map(|_| pair.integer("v", 0.0, 5.0)).collect();
        pair.set_objective(Sense::Minimize, 2.0 * v[2] + v[0]);
        pair.add_le("le", v[1].into(), 4.0);
        pair.add_ge("ge", v[1].into(), 1.0);
        assert_eq!(key.finish().unwrap().as_bytes(), pair.canonical_key(&config, &options));
    }

    #[test]
    fn data_the_solver_rejects_is_an_invalid_model() {
        let config = SolverConfig::default();
        let options = SolverOptions::default();
        let shape = KeyShape { vars: 1, objective_terms: 1, rows: 1, row_terms: 1 };
        type Write = fn(&mut KeyWriter);
        let bad: [(&str, Write); 4] = [
            ("NaN rhs", |k| k.row([(0, 1.0)], CmpOp::Le, f64::NAN)),
            ("inf coefficient", |k| k.row([(0, f64::INFINITY)], CmpOp::Le, 1.0)),
            ("no value", |k| k.vars(VarKind::Continuous, 2.0, 1.0, 1)),
            ("NaN objective", |k| {
                k.vars(VarKind::Continuous, 0.0, 1.0, 1);
                k.row([(0, 1.0)], CmpOp::Le, 1.0);
            }),
        ];
        for (what, write) in bad {
            let mut key = KeyWriter::new(&config, &options, shape);
            let objective = if what == "NaN objective" { f64::NAN } else { 1.0 };
            key.objective(Sense::Minimize, 0.0, [(0, objective)]);
            write(&mut key);
            let got = key.finish();
            assert!(matches!(got, Err(IlpError::InvalidModel(_))), "{what}: {got:?}");
        }
    }
}
