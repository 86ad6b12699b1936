//! The canonical key: a model's complete byte encoding, written section by
//! section and read back.
//!
//! The solve cache is keyed by these bytes ([`crate::SolveCache`]), and a
//! key holds the whole model, so a caller that knows its model's structure
//! can write the key without building the [`Model`] ([`KeyWriter`]). The
//! writer hands over where it put each section ([`CanonicalKey`]), so a
//! solve reads the model from its key without parsing it: to build it for
//! a cache miss, or to certify a stored answer once.
//! [`Model::from_canonical`] and [`DecodedKey::parse`] read a key from its
//! bytes alone, for tools that read a cache file.
//!
//! # Layout
//!
//! Sections follow each other with no lengths; integers and `f64` bits are
//! little-endian, a variable index is a `usize`:
//!
//! * header: the options head ([`SolverOptions`]' answer-changing
//!   switches), `0xff`, `max_nodes`, the bits of `int_tol`, `mip_gap` and
//!   `objective_granularity`, then `0` for no time limit or `1` and the
//!   limit in nanoseconds (`u128`);
//! * objective: the sense (`0` minimize, `1` maximize), the constant's
//!   bits, one (index, coefficient bits) pair per term, `0xfe`;
//! * vars: per variable its kind (`0` continuous, `1` integer, `2` binary)
//!   and the bits of its bounds, then `0xfd`;
//! * rows: per row its operator (`0` ≤, `1` ≥, `2` =), the right-hand
//!   side's bits, its terms as in the objective, `0xfc`.
//!
//! Terms are in strictly ascending variable order. A section's closing
//! byte can also open a term whose index ends in that byte, so where a
//! section ends is decided by what follows it: the reader keeps every
//! reading that still parses and takes the first that reaches the end of
//! the key. Every reading that does re-encodes to the same bytes, but
//! only the writer knows which one it wrote.

use std::ops::Range;
use std::time::Duration;

use crate::error::IlpError;
use crate::expr::{merge_term, negligible, LinExpr};
use crate::model::{CmpOp, Model, Rows, Sense, SolverConfig, VarId, VarKind, Variable};
use crate::solver::SolverOptions;

const HEAD_END: u8 = 0xff;
const OBJECTIVE_END: u8 = 0xfe;
const VARS_END: u8 = 0xfd;
const ROW_END: u8 = 0xfc;

/// Bytes of one encoded term: the variable index, then the coefficient.
const TERM_BYTES: usize = std::mem::size_of::<usize>() + 8;
/// Bytes of one encoded variable: its kind and two bounds.
const VAR_BYTES: usize = 1 + 16;

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
        let header = head + 1 + std::mem::size_of::<usize>() + 3 * 8;
        let limit = if config.time_limit.is_some() { 1 + 16 } else { 1 };
        let objective = 1 + 8 + TERM_BYTES * self.objective_terms + 1;
        let vars = VAR_BYTES * self.vars + 1;
        let rows = (1 + 8 + 1) * self.rows + TERM_BYTES * self.row_terms;
        header + limit + objective + vars + rows
    }
}

/// Where a key's model sections are: what its writer knows as it writes
/// them, and what its reader finds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Layout {
    sense: Sense,
    constant: f64,
    /// The objective's terms.
    objective: Range<usize>,
    /// The variables' records.
    vars: Range<usize>,
    /// Where each row starts; a row ends where the next starts, the last
    /// at the end of the key.
    rows: Vec<usize>,
}

/// A canonical key as [`KeyWriter::finish`] wrote it: its bytes, and where
/// its sections are, so that its model is read without parsing the bytes.
#[derive(Debug, Clone)]
pub struct CanonicalKey {
    bytes: Vec<u8>,
    layout: Layout,
}

impl CanonicalKey {
    /// The key's bytes: what the solve cache stores its answer under.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The model, read where the writer put it.
    pub(crate) fn view(&self) -> KeyView<'_> {
        KeyView { key: &self.bytes, layout: &self.layout }
    }

    /// The layout the reader finds in the bytes: the writer's own, unless
    /// the reader misreads a key whose closing tags collide with terms.
    pub(crate) fn reads_as_written(&self) -> bool {
        read(&self.bytes).is_ok_and(|(_, _, layout)| layout == self.layout)
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
/// Data that [`Model::solve_with_options`] would reject — a non-finite
/// coefficient or constant, a NaN right-hand side, bounds that hold no
/// value — makes [`finish`](Self::finish) return
/// [`IlpError::InvalidModel`].
///
/// # Panics
///
/// When the sections are written out of order.
pub struct KeyWriter {
    key: Vec<u8>,
    section: Section,
    vars: usize,
    /// The row being merged.
    terms: Vec<(VarId, f64)>,
    /// The first datum no search can take, described.
    invalid: Option<String>,
    /// Where the last row's terms are in `key`.
    last_terms: Range<usize>,
    len: usize,
    layout: Layout,
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
            terms: Vec::new(),
            invalid: None,
            last_terms: 0..0,
            len,
            layout: Layout {
                sense: Sense::Minimize,
                constant: 0.0,
                objective: 0..0,
                vars: 0..0,
                rows: Vec::with_capacity(shape.rows),
            },
        }
    }

    fn invalid(&mut self, what: impl FnOnce() -> String) {
        if self.invalid.is_none() {
            self.invalid = Some(what());
        }
    }

    fn enter(&mut self, section: Section) {
        match (self.section, section) {
            (Section::Vars, Section::Rows) => self.key.push(VARS_END),
            (from, to) if from == to && from != Section::Objective => {}
            (from, to) => panic!("key section {to:?} written after {from:?}"),
        }
        self.section = section;
    }

    /// Writes one term, noting a coefficient no search can take.
    fn push_term(&mut self, var: usize, coeff: f64) {
        if !coeff.is_finite() {
            let rows = self.layout.rows.len();
            self.invalid(|| match rows {
                0 => format!("objective has coefficient {coeff} on variable {var}"),
                row => format!("row {} has coefficient {coeff} on variable {var}", row - 1),
            });
        }
        self.key.extend_from_slice(&var.to_le_bytes());
        self.key.extend_from_slice(&coeff.to_bits().to_le_bytes());
    }

    /// Writes `terms` as [`merge_term`] merges them into an empty row.
    /// Terms in ascending variable order go straight into the key; the
    /// first one out of order sends what is written and the rest through
    /// the scratch row.
    fn write_terms(&mut self, terms: impl IntoIterator<Item = (usize, f64)>) {
        let from = self.key.len();
        let mut last = None;
        let mut terms = terms.into_iter();
        while let Some((var, coeff)) = terms.next() {
            if coeff == 0.0 {
                continue;
            }
            if last.is_some_and(|last| var <= last) {
                return self.merge_rest(from, [(var, coeff)].into_iter().chain(terms));
            }
            // A fresh term enters its row only when not negligible.
            if !negligible(coeff) {
                self.push_term(var, coeff);
                last = Some(var);
            }
        }
    }

    /// The rest of [`write_terms`](Self::write_terms) from its first term
    /// out of order: the terms written from `from` on and `rest` are merged
    /// in the scratch row, which then replaces them.
    #[cold]
    fn merge_rest(&mut self, from: usize, rest: impl Iterator<Item = (usize, f64)>) {
        self.terms.clear();
        self.terms.extend(read_terms(&self.key, from..self.key.len()));
        self.key.truncate(from);
        for (var, coeff) in rest {
            merge_term(&mut self.terms, 0, VarId(var), coeff);
        }
        let merged = std::mem::take(&mut self.terms);
        self.write_sorted(&merged);
        self.terms = merged;
    }

    fn write_sorted(&mut self, terms: &[(VarId, f64)]) {
        for &(var, coeff) in terms {
            self.push_term(var.0, coeff);
        }
    }

    fn write_objective_head(&mut self, sense: Sense, constant: f64) {
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
        self.layout.sense = sense;
        self.layout.constant = constant;
    }

    /// Ends the objective whose terms start at `from`.
    fn close_objective(&mut self, from: usize) {
        self.layout.objective = from..self.key.len();
        self.key.push(OBJECTIVE_END);
        self.layout.vars = self.key.len()..self.key.len();
    }

    /// The objective section: `sense`, `constant` and the terms over
    /// variable indices.
    pub fn objective(
        &mut self,
        sense: Sense,
        constant: f64,
        terms: impl IntoIterator<Item = (usize, f64)>,
    ) {
        self.write_objective_head(sense, constant);
        let from = self.key.len();
        self.write_terms(terms);
        self.close_objective(from);
    }

    /// The objective section from terms already merged, written as given.
    pub(crate) fn objective_sorted(&mut self, sense: Sense, constant: f64, terms: &[(VarId, f64)]) {
        self.write_objective_head(sense, constant);
        let from = self.key.len();
        self.write_sorted(terms);
        self.close_objective(from);
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
        self.layout.vars.end = self.key.len();
    }

    fn write_row_head(&mut self, op: CmpOp, rhs: f64) {
        if self.section != Section::Rows {
            self.enter(Section::Rows);
        }
        let row = self.layout.rows.len();
        self.layout.rows.push(self.key.len());
        if rhs.is_nan() {
            self.invalid(|| format!("row {row} has a NaN right-hand side"));
        }
        self.key.push(op_byte(op));
        self.key.extend_from_slice(&rhs.to_bits().to_le_bytes());
    }

    /// Ends the row whose terms start at `from`.
    fn close_row(&mut self, from: usize) {
        self.last_terms = from..self.key.len();
        self.key.push(ROW_END);
    }

    /// The next row, `Σ coeff·var op rhs` over variable indices.
    pub fn row(&mut self, terms: impl IntoIterator<Item = (usize, f64)>, op: CmpOp, rhs: f64) {
        self.write_row_head(op, rhs);
        let from = self.key.len();
        self.write_terms(terms);
        self.close_row(from);
    }

    /// The next row over the terms of the row before it, copied rather
    /// than merged again: a pair of rows that bound one sum from both sides.
    ///
    /// # Panics
    ///
    /// When no row was written before.
    pub fn repeat_row(&mut self, op: CmpOp, rhs: f64) {
        assert!(!self.layout.rows.is_empty(), "no row to repeat");
        let terms = self.last_terms.clone();
        self.write_row_head(op, rhs);
        let from = self.key.len();
        self.key.extend_from_within(terms);
        self.close_row(from);
    }

    /// The next row from terms already merged, written as given.
    pub(crate) fn row_sorted(&mut self, terms: &[(VarId, f64)], op: CmpOp, rhs: f64) {
        self.write_row_head(op, rhs);
        let from = self.key.len();
        self.write_sorted(terms);
        self.close_row(from);
    }

    /// The key, whatever data it holds.
    pub(crate) fn into_key(mut self) -> CanonicalKey {
        self.enter(Section::Rows);
        debug_assert_eq!(self.key.len(), self.len, "the key's shape disagrees with its sections");
        CanonicalKey { bytes: self.key, layout: self.layout }
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

fn op_byte(op: CmpOp) -> u8 {
    match op {
        CmpOp::Le => 0,
        CmpOp::Ge => 1,
        CmpOp::Eq => 2,
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
    /// The key ends inside the named section.
    Truncated(&'static str),
    /// The byte at `at` should be a kind, an operator, a sense or a section
    /// tag, and is `found`.
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
    /// A value no model holds: a coefficient or constant that is not
    /// finite, a NaN right-hand side, bounds that hold no value, a time
    /// limit past `Duration`, or an unknown options head.
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
    /// Reads `key`.
    ///
    /// # Errors
    ///
    /// [`KeyError`] when `key` is not a canonical key or its head names no
    /// options.
    pub fn parse(key: &[u8]) -> Result<DecodedKey, KeyError> {
        let (head, config, layout) = read(key)?;
        let options = SolverOptions::from_cache_key_head(head).ok_or_else(|| {
            let head = String::from_utf8_lossy(head);
            KeyError::BadValue(format!("unknown options head {head:?}"))
        })?;
        let model = KeyView { key, layout: &layout }.model();
        Ok(DecodedKey { model, config, options })
    }
}

impl Model {
    /// The model a canonical key holds, the inverse of the key
    /// [`Model::solve_with_options`] stores its answer under; the key's
    /// header is read and checked, not returned ([`DecodedKey::parse`]
    /// returns it). Rows, terms, bounds and the objective come back exactly
    /// as the key's model held them, so every LP of its search is the
    /// same. For tools that read a cache file: a solve reads the model of
    /// a key it wrote where the writer put it ([`CanonicalKey`]).
    ///
    /// # Errors
    ///
    /// [`KeyError`] for bytes that are not a canonical key: truncated, a
    /// bad tag, a term out of range or out of order, trailing bytes, or a
    /// value no model holds.
    pub fn from_canonical(key: &[u8]) -> Result<Model, KeyError> {
        let (_, _, layout) = read(key)?;
        Ok(KeyView { key, layout: &layout }.model())
    }

    /// The canonical key of this model solved under `config` with
    /// `options`: what the solve cache stores its answer under.
    pub fn canonical_key(&self, config: &SolverConfig, options: &SolverOptions) -> Vec<u8> {
        crate::cache::canonical_key(options.cache_key_head(), self, config)
    }
}

fn word(key: &[u8], at: usize, section: &'static str) -> Result<[u8; 8], KeyError> {
    let bytes = key.get(at..at + 8).ok_or(KeyError::Truncated(section))?;
    Ok(bytes.try_into().expect("8-byte slice"))
}

fn float(key: &[u8], at: usize, section: &'static str) -> Result<f64, KeyError> {
    word(key, at, section).map(|w| f64::from_bits(u64::from_le_bytes(w)))
}

fn byte(key: &[u8], at: usize, section: &'static str) -> Result<u8, KeyError> {
    key.get(at).copied().ok_or(KeyError::Truncated(section))
}

/// The `f64` at `at` of bytes already checked.
fn float_at(key: &[u8], at: usize) -> f64 {
    f64::from_bits(u64::from_le_bytes(key[at..at + 8].try_into().expect("8-byte slice")))
}

/// The term at `at`: its variable, above `prev` and below `vars`, and a
/// finite coefficient.
fn term(
    key: &[u8],
    at: usize,
    prev: Option<usize>,
    vars: usize,
    section: &'static str,
) -> Result<(usize, f64), KeyError> {
    let var = u64::from_le_bytes(word(key, at, section)?);
    let coeff = float(key, at + 8, section)?;
    let var = usize::try_from(var).unwrap_or(usize::MAX);
    if var >= vars {
        return Err(KeyError::VarOutOfRange { var, vars });
    }
    if prev.is_some_and(|prev| var <= prev) {
        return Err(KeyError::TermsOutOfOrder { var });
    }
    if !coeff.is_finite() {
        return Err(KeyError::BadValue(format!("coefficient {coeff} on variable {var}")));
    }
    Ok((var, coeff))
}

/// The terms from `at` on, as one reading parses them: calls `end(q)` at
/// every offset `q` where the section could close (a `tag` byte at a term
/// boundary) and stops where no term parses; an error when that offset
/// could not close the section either.
fn scan_terms(
    key: &[u8],
    mut at: usize,
    vars: usize,
    tag: u8,
    section: &'static str,
    mut end: impl FnMut(usize),
) -> Result<(), (usize, KeyError)> {
    let mut prev = None;
    loop {
        let closes = key.get(at) == Some(&tag);
        if closes {
            end(at);
        }
        match term(key, at, prev, vars, section) {
            Ok((var, _)) => {
                prev = Some(var);
                at += TERM_BYTES;
            }
            Err(_) if closes => return Ok(()),
            Err(e) => return Err((at, e)),
        }
    }
}

/// The terms in the byte range `at`, checked before.
fn read_terms(key: &[u8], at: Range<usize>) -> impl ExactSizeIterator<Item = (VarId, f64)> + '_ {
    key[at].chunks_exact(TERM_BYTES).map(|term| {
        let (index, bits) = term.split_at(TERM_BYTES - 8);
        let var = usize::from_le_bytes(index.try_into().expect("a usize's bytes"));
        (VarId(var), f64::from_bits(u64::from_le_bytes(bits.try_into().expect("8-byte slice"))))
    })
}

/// The header: the head's bytes, the config, and where the objective
/// section starts.
fn decode_header(key: &[u8]) -> Result<(&[u8], SolverConfig, usize), KeyError> {
    let head_len = key.iter().position(|&b| b == HEAD_END).ok_or(KeyError::Truncated("header"))?;
    let mut at = head_len + 1;
    let max_nodes = u64::from_le_bytes(word(key, at, "header")?);
    let max_nodes = usize::try_from(max_nodes)
        .map_err(|_| KeyError::BadValue(format!("max_nodes {max_nodes}")))?;
    let int_tol = float(key, at + 8, "header")?;
    let mip_gap = float(key, at + 16, "header")?;
    let objective_granularity = float(key, at + 24, "header")?;
    at += 32;
    let time_limit = match byte(key, at, "header")? {
        0 => None,
        1 => {
            let nanos = key.get(at + 1..at + 17).ok_or(KeyError::Truncated("header"))?;
            let nanos = u128::from_le_bytes(nanos.try_into().expect("16-byte slice"));
            at += 16;
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
    Ok((&key[..head_len], config, at + 1))
}

fn kind_of(b: u8) -> VarKind {
    match b {
        0 => VarKind::Continuous,
        1 => VarKind::Integer,
        _ => VarKind::Binary,
    }
}

/// The vars section from `at`: the byte range of its records.
fn scan_vars(key: &[u8], from: usize) -> Result<Range<usize>, KeyError> {
    let mut at = from;
    loop {
        match byte(key, at, "vars")? {
            VARS_END => return Ok(from..at),
            0..=2 => {}
            found => return Err(KeyError::BadTag { at, found }),
        }
        let lower = float(key, at + 1, "vars")?;
        let upper = float(key, at + 9, "vars")?;
        if let Err(why) = check_bounds(lower, upper) {
            let var = (at - from) / VAR_BYTES;
            return Err(KeyError::BadValue(format!("variable {var} {why}")));
        }
        at += VAR_BYTES;
    }
}

/// The operator and right-hand side of the row at `at`.
fn row_head(key: &[u8], at: usize) -> Result<(), KeyError> {
    match byte(key, at, "rows")? {
        0..=2 => {}
        found => return Err(KeyError::BadTag { at, found }),
    }
    if float(key, at + 1, "rows")?.is_nan() {
        return Err(KeyError::BadValue("a NaN right-hand side".into()));
    }
    Ok(())
}

/// Where each row of the rows section from `from` starts, over `vars`
/// variables. Under 253 variables no term opens with [`ROW_END`], so each
/// row closes at the first one.
///
/// Otherwise readings branch where a row could close early (a [`ROW_END`]
/// byte that also opens a term), and the first reading that ends exactly at
/// the end of the key is taken. The row starts still to scan are kept in
/// ascending order, each reached from the first row that could end there,
/// so no start is scanned twice.
fn row_starts(key: &[u8], from: usize, vars: usize) -> Result<Vec<usize>, KeyError> {
    let mut starts = Vec::new();
    if vars <= usize::from(ROW_END) {
        let mut at = from;
        while at < key.len() {
            starts.push(at);
            row_head(key, at)?;
            at += 9;
            let mut prev = None;
            while byte(key, at, "rows")? != ROW_END {
                prev = Some(term(key, at, prev, vars, "rows")?.0);
                at += TERM_BYTES;
            }
            at += 1;
        }
        return Ok(starts);
    }
    if from == key.len() {
        return Ok(starts);
    }
    // Row starts to scan, ascending from `next`, each with the index in
    // `scanned` of the row that ends there.
    let mut pending: Vec<(usize, usize)> = vec![(from, usize::MAX)];
    let mut scanned: Vec<(usize, usize)> = Vec::new();
    let mut next = 0;
    // The error of the reading that got furthest.
    let mut furthest: Option<(usize, KeyError)> = None;
    while let Some(&(start, reached_from)) = pending.get(next) {
        next += 1;
        let this = scanned.len();
        scanned.push((start, reached_from));
        let mut complete = false;
        let scan = row_head(key, start).map_err(|e| (start, e)).and_then(|()| {
            scan_terms(key, start + 9, vars, ROW_END, "rows", |end| {
                let after = end + 1;
                complete |= after == key.len();
                let queued = &pending[next..];
                if let Err(at) = queued.binary_search_by_key(&after, |&(p, _)| p) {
                    pending.insert(next + at, (after, this));
                }
            })
        });
        if complete {
            let mut row = this;
            while row != usize::MAX {
                starts.push(scanned[row].0);
                row = scanned[row].1;
            }
            starts.reverse();
            return Ok(starts);
        }
        if let Err((at, e)) = scan {
            if furthest.as_ref().is_none_or(|(was, _)| at >= *was) {
                furthest = Some((at, e));
            }
        }
    }
    Err(furthest.map_or(KeyError::Truncated("rows"), |(_, e)| e))
}

/// Reads and checks `key`: its options head, its budget settings and
/// where its model's sections are.
///
/// Where the objective section ends is known only once the variable count
/// is, so each offset where it could end is tried in turn.
fn read(key: &[u8]) -> Result<(&[u8], SolverConfig, Layout), KeyError> {
    let (head, config, at) = decode_header(key)?;
    let sense = match byte(key, at, "objective")? {
        0 => Sense::Minimize,
        1 => Sense::Maximize,
        found => return Err(KeyError::BadTag { at, found }),
    };
    let constant = float(key, at + 1, "objective")?;
    if !constant.is_finite() {
        return Err(KeyError::BadValue(format!("objective constant {constant}")));
    }
    let terms_at = at + 9;
    let mut ends = Vec::with_capacity(1);
    let scan =
        scan_terms(key, terms_at, usize::MAX, OBJECTIVE_END, "objective", |end| ends.push(end));
    let mut error = scan.err().map(|(_, e)| e);
    for end in ends {
        let reading = scan_vars(key, end + 1).and_then(|vars| {
            let n = vars.len() / VAR_BYTES;
            let objective = terms_at..end;
            if let Some((var, _)) = read_terms(key, objective.clone()).last() {
                if var.0 >= n {
                    return Err(KeyError::VarOutOfRange { var: var.0, vars: n });
                }
            }
            let rows = row_starts(key, vars.end + 1, n)?;
            Ok(Layout { sense, constant, objective, vars, rows })
        });
        match reading {
            Ok(layout) => return Ok((head, config, layout)),
            Err(e) => error = Some(e),
        }
    }
    Err(error.unwrap_or(KeyError::Truncated("objective")))
}

/// A key's model left in its bytes, read where its [`Layout`] says.
/// [`KeyView::model`] builds the model; [`crate::certificate`] also audits
/// an answer against the view directly.
pub(crate) struct KeyView<'a> {
    key: &'a [u8],
    layout: &'a Layout,
}

impl KeyView<'_> {
    pub fn sense(&self) -> Sense {
        self.layout.sense
    }

    pub fn constant(&self) -> f64 {
        self.layout.constant
    }

    /// Every variable's kind and bounds, in index order.
    pub fn vars(&self) -> impl ExactSizeIterator<Item = (VarKind, f64, f64)> + '_ {
        self.key[self.layout.vars.clone()]
            .chunks_exact(VAR_BYTES)
            .map(|record| (kind_of(record[0]), float_at(record, 1), float_at(record, 9)))
    }

    /// The objective's terms.
    pub fn objective(&self) -> impl ExactSizeIterator<Item = (VarId, f64)> + '_ {
        read_terms(self.key, self.layout.objective.clone())
    }

    /// Every row: its operator, right-hand side and terms.
    pub fn rows(
        &self,
    ) -> impl Iterator<Item = (CmpOp, f64, impl ExactSizeIterator<Item = (VarId, f64)> + '_)> + '_
    {
        let starts = &self.layout.rows;
        let ends = starts.iter().skip(1).map(|&start| start - 1).chain([self.key.len() - 1]);
        starts.iter().zip(ends).map(|(&start, end)| {
            let op = match self.key[start] {
                0 => CmpOp::Le,
                1 => CmpOp::Ge,
                _ => CmpOp::Eq,
            };
            (op, float_at(self.key, start + 1), read_terms(self.key, start + 9..end))
        })
    }

    /// The model, rows and terms exactly as the key holds them.
    pub fn model(&self) -> Model {
        let vars =
            self.vars().map(|(kind, lower, upper)| Variable { kind, lower, upper }).collect();
        let starts = &self.layout.rows;
        let row_bytes = self.key.len() - starts.first().copied().unwrap_or(self.key.len());
        let row_terms = (row_bytes - 10 * starts.len()) / TERM_BYTES;
        let mut rows = Rows::with_capacity(starts.len(), row_terms);
        for (op, rhs, terms) in self.rows() {
            for (var, coeff) in terms {
                rows.push_term(var, coeff);
            }
            rows.close(op, rhs);
        }
        let objective = LinExpr::from_sorted(self.objective().collect(), self.constant());
        Model::from_parts(vars, rows, objective, self.sense())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::{Solution, SolveStatus};

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
        let model = Model::from_canonical(&key).unwrap();
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

    /// A model of `n` variables whose terms sit on the indices whose low
    /// byte is a section's closing tag (252 = `0xfc`, 254 = `0xfe`, and
    /// their 256-steps), rows of every operator over a zero right-hand
    /// side after them, and a zero coefficient: every place where a tag
    /// could be read as the start of a term, or a term as a tag.
    fn ambiguous(n: usize, seed: u64) -> Model {
        let mut state = seed | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
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
    fn keys_of_more_than_252_variables_decode_where_tags_and_terms_collide() {
        let config = SolverConfig::default();
        for (n, seed) in [(300, 1), (600, 2), (900, 3), (253, 4), (252, 5)] {
            let m = ambiguous(n, seed);
            let key = key_of(&m, &config);
            let decoded = Model::from_canonical(&key).unwrap();
            assert_eq!(key_of(&decoded, &config), key, "{n} variables");
            let written =
                crate::cache::model_key(SolverOptions::default().cache_key_head(), &m, &config);
            assert!(written.reads_as_written(), "{n} variables");
            assert_eq!(decoded.num_constraints(), m.num_constraints(), "{n} variables");
            for (a, b) in decoded.rows.iter().zip(m.rows.iter()) {
                assert_eq!((a.terms, a.op, a.rhs.to_bits()), (b.terms, b.op, b.rhs.to_bits()));
            }
        }
    }

    /// Where each section of `key` closes: the head's end, the objective's,
    /// the vars' and the last row's.
    fn section_ends(model: &Model, key: &[u8]) -> [usize; 4] {
        let head = key.iter().position(|&b| b == HEAD_END).unwrap();
        let objective = head + 1 + 32 + 17 + 9 + TERM_BYTES * model.objective.len();
        let vars = objective + 1 + VAR_BYTES * model.num_vars();
        [head, objective, vars, key.len() - 1]
    }

    #[test]
    fn malformed_keys_are_typed_errors() {
        let (m, config) = golden();
        let key = key_of(&m, &config);
        let ends = section_ends(&m, &key);
        assert_eq!(
            ends.map(|at| key[at]),
            [HEAD_END, OBJECTIVE_END, VARS_END, ROW_END],
            "the test's own offsets"
        );
        let decode = |bytes: &[u8]| Model::from_canonical(bytes).map(|m| m.num_constraints());

        // Cut short: before each section closes, inside the header, a
        // term and a variable record, and one byte short of the last row.
        for end in ends {
            assert!(matches!(decode(&key[..end]), Err(KeyError::Truncated(_))), "at {end}");
        }
        for cut in [ends[0] + 5, ends[0] + 40, ends[1] - 3, ends[1] + 5, ends[3] - 4] {
            assert!(matches!(decode(&key[..cut]), Err(KeyError::Truncated(_))), "at {cut}");
        }

        // A bad tag where the vars section closes, and a bad operator.
        let mut bad = key.clone();
        bad[ends[2]] = 7;
        assert_eq!(decode(&bad), Err(KeyError::BadTag { at: ends[2], found: 7 }));
        let mut bad = key.clone();
        bad[ends[2] + 1] = 3;
        assert_eq!(decode(&bad), Err(KeyError::BadTag { at: ends[2] + 1, found: 3 }));

        // Row 0 is `x − 0.5·y + 2·z = 3`: its terms start after its
        // operator and right-hand side.
        let term = |t: usize| ends[2] + 1 + 9 + t * TERM_BYTES;
        let mut bad = key.clone();
        bad[term(1)..term(1) + 8].copy_from_slice(&3usize.to_le_bytes());
        assert_eq!(decode(&bad), Err(KeyError::VarOutOfRange { var: 3, vars: 3 }));
        let mut bad = key.clone();
        bad[term(1)..term(1) + 8].copy_from_slice(&0usize.to_le_bytes());
        assert_eq!(decode(&bad), Err(KeyError::TermsOutOfOrder { var: 0 }));
        let mut bad = key.clone();
        bad[term(0) + 8..term(1)].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(decode(&bad), Err(KeyError::BadValue(_))), "{:?}", decode(&bad));

        // Bytes after the last row.
        for tail in [&[0u8][..], &[2, 0, 0], &[0xfc; 12]] {
            let mut long = key.clone();
            long.extend_from_slice(tail);
            assert!(decode(&long).is_err(), "{tail:?}");
        }
        // A head no options write.
        let mut foreign = b"serial".to_vec();
        foreign.extend_from_slice(&key[ends[0]..]);
        assert!(Model::from_canonical(&foreign).is_ok(), "the model does not read the head");
        assert!(matches!(DecodedKey::parse(&foreign), Err(KeyError::BadValue(_))));
        // The error reads as an invalid model on the solve path.
        let err: IlpError = KeyError::Truncated("rows").into();
        assert!(matches!(err, IlpError::InvalidModel(_)), "{err:?}");
    }

    /// The certificate reads a written key in place exactly as it reads the
    /// model.
    #[test]
    fn a_written_key_certifies_as_its_model_does() {
        let (m, config) = golden();
        let key = crate::cache::model_key("seq", &m, &config);
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
