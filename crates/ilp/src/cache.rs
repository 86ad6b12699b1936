//! Process-wide solve memo-cache, spillable to disk.
//!
//! The TAPA-CS benchmark sweeps (`reproduce all`, the DSE grids) compile
//! the same designs repeatedly, and the recursive bipartitioner
//! produces structurally identical subproblems across sweep points. Caching
//! `canonical model → solution` turns those repeats into hash lookups.
//!
//! [`Model::solve_with_options`] is the one caller: it looks a solve up,
//! and stores what its search answered. Keys are the full canonical byte
//! encoding of the model (variables, constraints, objective), the
//! budget-relevant [`SolverConfig`] fields and a head naming the
//! [`SolverOptions`](crate::SolverOptions) that can change the answer
//! (`SolverOptions::cache_key_head`) — not a lossy hash — so a hit can
//! never return the solution of a different model. The options are part of
//! the key because two of them may legitimately return different (equally
//! optimal) points, and replaying the wrong one would break the
//! determinism guarantee.
//!
//! # Persistence
//!
//! [`SolveCache::save_to`] / [`SolveCache::load_from`] spill the cache to a
//! versioned, checksummed binary file and merge it back, so repeated sweeps
//! (the `reproduce dse` design-space exploration, CI) start warm across
//! *processes*, not just within one. The format is deliberately strict: a
//! magic tag, a format version, the entries sorted by key (so identical
//! caches serialize to identical bytes), and a trailing 64-bit checksum
//! over everything before it (FNV-1a's xor-and-multiply step applied to
//! little-endian `u64` words). A truncated, bit-flipped or
//! version-incompatible file is rejected with [`CacheFileError`] — never a
//! panic, never a partial merge — and the caller simply runs cold.
//!
//! # Robustness
//!
//! Cache IO is allowed to be flaky without failing a sweep: transient
//! [`CacheFileError::Io`] failures are retried a bounded number of times
//! with a short deterministic backoff, and a file rejected as corrupt or
//! stale is *quarantined* — renamed to `<name>.quarantined` next to the
//! original — so the evidence survives for inspection, the next
//! [`SolveCache::save_to`] writes a fresh valid file, and the sweep simply
//! runs cold. What is stored and when a stored answer is served is
//! decided by [`Model::solve_with_options`]; see its doc.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::model::{CmpOp, Model, Sense, SolverConfig, VarId, VarKind};
use crate::solution::{Solution, SolveStatus};

/// Entries kept at most; inserts beyond this are dropped (the floorplanning
/// workloads stay far below it, this only bounds pathological sweeps).
const MAX_ENTRIES: usize = 8192;

/// Snapshot of cache activity, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real solve.
    pub misses: u64,
    /// Solutions currently stored.
    pub entries: usize,
    /// Entries merged in from persisted cache files
    /// ([`SolveCache::load_from`]), cumulative.
    pub loads: u64,
    /// Entries written out to persisted cache files
    /// ([`SolveCache::save_to`]), cumulative.
    pub stores: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`. Guaranteed finite: an empty cache (no
    /// lookups at all) reports `0.0`, never `0/0 = NaN`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference `self - earlier` (saturating), for measuring
    /// the lookups of one batch between two snapshots. `entries` keeps the
    /// later absolute value (it is a level, not a counter).
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
            loads: self.loads.saturating_sub(earlier.loads),
            stores: self.stores.saturating_sub(earlier.stores),
        }
    }
}

/// Why a persisted cache file was rejected. Every variant is a graceful
/// "run cold" outcome — loading never panics and never merges a partial
/// or corrupt file.
#[derive(Debug)]
pub enum CacheFileError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the cache magic tag (not a cache file).
    BadMagic,
    /// The file was written by an incompatible format version (stale).
    BadVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The trailing checksum does not match the content (bit rot or a
    /// partial write).
    BadChecksum,
    /// The file ends before its declared content does.
    Truncated,
}

impl std::fmt::Display for CacheFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheFileError::Io(e) => write!(f, "cache file I/O error: {e}"),
            CacheFileError::BadMagic => write!(f, "not a solve-cache file (bad magic)"),
            CacheFileError::BadVersion { found, expected } => {
                write!(f, "stale solve-cache format v{found} (this build reads v{expected})")
            }
            CacheFileError::BadChecksum => write!(f, "solve-cache checksum mismatch (corrupt)"),
            CacheFileError::Truncated => write!(f, "solve-cache file is truncated"),
        }
    }
}

impl std::error::Error for CacheFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CacheFileError {
    fn from(e: std::io::Error) -> Self {
        CacheFileError::Io(e)
    }
}

/// Conventional file name of a persisted solve cache inside a cache
/// directory (see [`SolveCache::file_in`]).
pub const SOLVE_CACHE_FILE: &str = "solve-cache.bin";

/// Magic tag opening every persisted cache file.
const FILE_MAGIC: &[u8; 8] = b"TAPACSSC";
/// Format version written and accepted by this build. Bump on any change
/// to the entry encoding; old files are then rejected as stale instead of
/// being misparsed. v2 added the [`Solution::degraded`] byte; v3 changes no
/// byte of the layout but marks the renaming of the backends inside the
/// keys (the unsuffixed name came to mean the default LP arithmetic, and
/// the oracle modes of the time got suffixed names), so a v2 file's
/// oracle-mode answers are rejected instead of being served under the new
/// default's name. Those modes and their suffixes have since gone without
/// a bump: no file could hold a default key that meant anything else. v4
/// changes no byte either: kit-on solves switched to the logicals-first
/// factorization order, whose different roundoff can return another
/// equal-cut design for the same model bytes, so a v3 file's answers would
/// make a warm sweep disagree with a cold one. v5 changes no byte either:
/// kit-off attempts over LPs of more than 128 rows restart with the kit on
/// sooner, so a split that used to finish kit-off may now answer kit-on
/// with another equal-cut design. The rule: a change of LP arithmetic gets
/// its own keys. Storing expressions and rows as
/// sorted term vectors instead of maps did not bump it: the key is written
/// from the same terms in the same ascending order, byte for byte
/// (`canonical_key_bytes_are_pinned`), and no answer changed. v6 keeps
/// every byte of the layout and every key but changes the trailing
/// checksum from byte-serial FNV-1a to the word-wise [`fold_words`], so a
/// v5 file's checksum no longer matches and the version says why.
const FILE_VERSION: u32 = 6;

/// Transient-IO retry attempts after the first failure.
const IO_RETRIES: u32 = 3;

/// Deterministic bounded backoff before retry `attempt` (1-based):
/// 1 ms, 2 ms, 4 ms — long enough to ride out transient FS hiccups,
/// bounded so a genuinely broken disk costs a sweep milliseconds, and a
/// pure function of the attempt index so runs stay reproducible.
fn backoff_delay(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis(1u64 << (attempt - 1).min(8))
}

/// Runs `op`, retrying [`CacheFileError::Io`] failures up to [`IO_RETRIES`]
/// times with [`backoff_delay`]. Non-IO errors (corruption, staleness) are
/// returned immediately — retrying cannot fix those.
fn with_io_retry<T>(
    mut op: impl FnMut() -> Result<T, CacheFileError>,
) -> Result<T, CacheFileError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Err(CacheFileError::Io(_)) if attempt < IO_RETRIES => {
                attempt += 1;
                std::thread::sleep(backoff_delay(attempt));
            }
            other => return other,
        }
    }
}

/// Injected IO failure hook for the cache paths (`cacheio@load` /
/// `cacheio@save` in the `FaultRegistry::parse` grammar). No-op unless a
/// fault registry is armed.
fn injected_io(site: &str) -> Result<(), CacheFileError> {
    if crate::fault::fault_fires(crate::fault::FaultKind::CacheIo, site) {
        return Err(CacheFileError::Io(std::io::Error::other(format!(
            "injected cache {site} fault"
        ))));
    }
    Ok(())
}

/// Moves a corrupt or stale cache file aside to `<name>.quarantined`
/// (overwriting any previous quarantine) so the next save can write a
/// clean file while the bad bytes stay inspectable. Never deletes; a
/// failed rename is ignored — quarantining is best-effort.
fn quarantine(path: &Path) {
    let mut target = path.as_os_str().to_os_string();
    target.push(".quarantined");
    let _ = std::fs::rename(path, &target);
}

/// FNV-1a's 64-bit offset basis and prime.
const FOLD_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FOLD_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step taken over a little-endian word of up to 8 bytes (a
/// shorter one is zero-padded): `(hash ^ word) · prime`. For a fixed word it
/// is a bijection of `hash` (xor, then a multiply by an odd constant), and
/// for a fixed `hash` a bijection of the word.
fn fold_step(hash: u64, word: &[u8]) -> u64 {
    let mut padded = [0u8; 8];
    padded[..word.len()].copy_from_slice(word);
    (hash ^ u64::from_le_bytes(padded)).wrapping_mul(FOLD_PRIME)
}

/// Folds `bytes` into `hash` a word at a time: each 32-byte block feeds
/// four independent [`fold_step`] chains (word `i` of a block to chain
/// `i`), so four multiplies are in flight at once; then the four chains,
/// the words after the last whole block and the length fold into `hash`
/// one after the other. Two inputs of one length that differ in one word
/// (one flipped bit, say) always fold to different values: that word's
/// step maps one chain value to two results, and every later step is a
/// bijection of the value that differs. Not cryptographic: it guards
/// against truncation and bit rot, not adversaries.
fn fold_words(hash: u64, bytes: &[u8]) -> u64 {
    let mut lanes = [hash; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fold_step(*lane, word);
        }
    }
    let hash = lanes.iter().fold(hash, |h, lane| fold_step(h, &lane.to_le_bytes()));
    let hash = blocks.remainder().chunks(8).fold(hash, fold_step);
    fold_step(hash, &(bytes.len() as u64).to_le_bytes())
}

/// The file checksum: [`fold_words`] over everything before it.
fn checksum(bytes: &[u8]) -> u64 {
    fold_words(FOLD_BASIS, bytes)
}

/// The map's hasher: [`fold_words`] over the key, then a final avalanche
/// (MurmurHash3's `fmix64`). The map picks buckets by the low bits of the
/// hash and tells entries apart by its top ones, and a multiply chain
/// leaves its low bits depending on the low bits of the input alone; the
/// avalanche spreads every bit over both. Full-key equality still decides
/// every lookup, so a collision costs time, never a wrong answer, and
/// [`MAX_ENTRIES`] bounds that time for a file crafted to collide.
#[derive(Clone, Copy, Default)]
struct KeyHash;

struct KeyHasher(u64);

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(FOLD_BASIS)
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold_words(self.0, bytes);
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(FOLD_PRIME);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Bounds-checked little-endian reader over a cache file's payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CacheFileError> {
        let end = self.pos.checked_add(n).ok_or(CacheFileError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CacheFileError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CacheFileError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CacheFileError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self) -> Result<usize, CacheFileError> {
        usize::try_from(self.u64()?).map_err(|_| CacheFileError::Truncated)
    }

    fn f64(&mut self) -> Result<f64, CacheFileError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

fn encode_solution(out: &mut Vec<u8>, s: &Solution) {
    out.push(match s.status {
        SolveStatus::Optimal => 0,
        SolveStatus::Feasible => 1,
    });
    out.push(u8::from(s.degraded));
    out.extend_from_slice(&s.objective.to_bits().to_le_bytes());
    out.extend_from_slice(&s.best_bound.to_bits().to_le_bytes());
    out.extend_from_slice(&(s.nodes_explored as u64).to_le_bytes());
    out.extend_from_slice(&(s.values.len() as u64).to_le_bytes());
    for v in &s.values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn decode_solution(c: &mut Cursor<'_>) -> Result<Solution, CacheFileError> {
    let status = match c.u8()? {
        0 => SolveStatus::Optimal,
        1 => SolveStatus::Feasible,
        _ => return Err(CacheFileError::Truncated),
    };
    let degraded = match c.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CacheFileError::Truncated),
    };
    let objective = c.f64()?;
    let best_bound = c.f64()?;
    let nodes_explored = c.usize()?;
    let n_values = c.usize()?;
    // Refuse to allocate more than the remaining payload could hold, so a
    // corrupt length can never balloon memory before the bounds check hits.
    if n_values > c.bytes.len().saturating_sub(c.pos) / 8 {
        return Err(CacheFileError::Truncated);
    }
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        values.push(c.f64()?);
    }
    Ok(Solution { status, objective, best_bound, nodes_explored, values, degraded })
}

/// The memo-cache: canonical model key → [`Solution`].
pub struct SolveCache {
    inner: Mutex<HashMap<Vec<u8>, Solution, KeyHash>>,
    hits: AtomicU64,
    misses: AtomicU64,
    loads: AtomicU64,
    stores: AtomicU64,
}

impl Default for SolveCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SolveCache {
    /// A fresh, empty cache. The compiler shares the [global](Self::global)
    /// one; standalone instances are mainly for tests and tools.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// The process-wide cache [`Model::solve_with_options`] uses.
    pub fn global() -> &'static SolveCache {
        static GLOBAL: OnceLock<SolveCache> = OnceLock::new();
        GLOBAL.get_or_init(SolveCache::new)
    }

    pub(crate) fn lookup(&self, key: &[u8]) -> Option<Solution> {
        let found = self.inner.lock().unwrap().get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    pub(crate) fn insert(&self, key: Vec<u8>, solution: Solution) {
        let mut guard = self.inner.lock().unwrap();
        if guard.len() < MAX_ENTRIES {
            guard.insert(key, solution);
        }
    }

    pub(crate) fn remove(&self, key: &[u8]) {
        self.inner.lock().unwrap().remove(key);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().unwrap().len(),
            loads: self.loads.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    /// Drops every stored solution and zeroes the counters. Benchmarks call
    /// this between timed runs so wall-clock comparisons stay honest.
    pub fn clear(&self) {
        self.inner.lock().unwrap().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.loads.store(0, Ordering::Relaxed);
        self.stores.store(0, Ordering::Relaxed);
    }

    /// The conventional cache-file path inside `dir` (see
    /// [`SOLVE_CACHE_FILE`]).
    pub fn file_in(dir: &Path) -> PathBuf {
        dir.join(SOLVE_CACHE_FILE)
    }

    /// Serializes every entry to `path` and returns how many were written
    /// (also added to [`CacheStats::stores`]).
    ///
    /// Entries are sorted by key before encoding, so two caches with the
    /// same content always produce byte-identical files, and the write goes
    /// through a sibling temp file + rename so a crash mid-write can never
    /// leave a half-written cache behind (it leaves the old file, or none).
    ///
    /// Transient IO failures are retried with a short deterministic
    /// backoff (see the module's *Robustness* notes); entries flagged
    /// [`Solution::degraded`] never reach the map (see
    /// [`Model::solve_with_options`]) so they are never persisted either.
    ///
    /// # Errors
    ///
    /// [`CacheFileError::Io`] when the file still cannot be written after
    /// the retries.
    pub fn save_to(&self, path: &Path) -> Result<u64, CacheFileError> {
        let mut payload = Vec::with_capacity(4096);
        payload.extend_from_slice(FILE_MAGIC);
        payload.extend_from_slice(&FILE_VERSION.to_le_bytes());
        let written = {
            let guard = self.inner.lock().unwrap();
            let mut entries: Vec<(&Vec<u8>, &Solution)> = guard.iter().collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            payload.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for (key, solution) in &entries {
                payload.extend_from_slice(&(key.len() as u64).to_le_bytes());
                payload.extend_from_slice(key);
                encode_solution(&mut payload, solution);
            }
            entries.len() as u64
        };
        let seal = checksum(&payload);
        payload.extend_from_slice(&seal.to_le_bytes());

        // Unique temp name per writer: concurrent savers into the same
        // cache dir (two processes sharing `TAPACS_CACHE_DIR`, or two
        // threads) must never interleave writes on one temp file — each
        // writes its own and the atomic rename decides who wins whole.
        static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
        with_io_retry(|| {
            injected_io("save")?;
            let tmp = path.with_extension(format!(
                "tmp.{}.{}",
                std::process::id(),
                SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&tmp, &payload)?;
            if let Err(e) = std::fs::rename(&tmp, path) {
                let _ = std::fs::remove_file(&tmp);
                return Err(e.into());
            }
            Ok(())
        })?;
        self.stores.fetch_add(written, Ordering::Relaxed);
        Ok(written)
    }

    /// Reads and fully validates one cache file (magic, version, checksum,
    /// bounds), returning its decoded entries. Pure with respect to the
    /// cache — nothing is merged here.
    fn read_entries(path: &Path) -> Result<Vec<(Vec<u8>, Solution)>, CacheFileError> {
        injected_io("load")?;
        let bytes = std::fs::read(path)?;
        if bytes.len() < FILE_MAGIC.len() + 4 + 8 + 8 {
            return Err(CacheFileError::Truncated);
        }
        if &bytes[..FILE_MAGIC.len()] != FILE_MAGIC {
            return Err(CacheFileError::BadMagic);
        }
        let (content, tail) = bytes.split_at(bytes.len() - 8);
        let seal = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if checksum(content) != seal {
            return Err(CacheFileError::BadChecksum);
        }
        let mut cursor = Cursor { bytes: content, pos: FILE_MAGIC.len() };
        let version = u32::from_le_bytes(cursor.take(4)?.try_into().expect("4-byte slice"));
        if version != FILE_VERSION {
            return Err(CacheFileError::BadVersion { found: version, expected: FILE_VERSION });
        }
        let count = cursor.usize()?;
        let mut entries = Vec::with_capacity(count.min(MAX_ENTRIES));
        for _ in 0..count {
            let key_len = cursor.usize()?;
            let key = cursor.take(key_len)?.to_vec();
            let solution = decode_solution(&mut cursor)?;
            entries.push((key, solution));
        }
        if cursor.pos != content.len() {
            // Trailing garbage protected by the checksum would mean the
            // writer and reader disagree on the format — reject it.
            return Err(CacheFileError::Truncated);
        }
        Ok(entries)
    }

    /// Parses `path` and merges its entries into this cache, returning how
    /// many were merged (also added to [`CacheStats::loads`]). Lookup
    /// counters (`hits`/`misses`) are untouched — loading is not a lookup.
    ///
    /// The whole file is validated (magic, version, checksum, bounds)
    /// *before* anything is merged: a rejected file leaves the cache
    /// exactly as it was. Entries beyond the capacity bound
    /// are dropped, mirroring live inserts.
    ///
    /// Transient IO failures are retried with a short deterministic
    /// backoff; a file rejected as corrupt or stale (anything but
    /// [`CacheFileError::Io`]) is quarantined to `<name>.quarantined`
    /// before the error is returned, so the next save starts clean and
    /// the bad bytes stay inspectable.
    ///
    /// # Errors
    ///
    /// [`CacheFileError`] for unreadable, truncated, corrupt or
    /// version-incompatible files. None of them panic, and none merge
    /// partial content.
    pub fn load_from(&self, path: &Path) -> Result<u64, CacheFileError> {
        let entries = match with_io_retry(|| Self::read_entries(path)) {
            Ok(entries) => entries,
            Err(e) => {
                if !matches!(e, CacheFileError::Io(_)) {
                    quarantine(path);
                }
                return Err(e);
            }
        };

        let mut merged = 0u64;
        let mut guard = self.inner.lock().unwrap();
        for (key, solution) in entries {
            if guard.len() >= MAX_ENTRIES {
                break;
            }
            guard.insert(key, solution);
            merged += 1;
        }
        drop(guard);
        self.loads.fetch_add(merged, Ordering::Relaxed);
        Ok(merged)
    }
}

/// Bytes of one encoded term: the variable index, then the coefficient.
const TERM_BYTES: usize = std::mem::size_of::<usize>() + 8;

/// The length of [`canonical_key`]'s encoding, section by section, so the
/// key is written into one allocation of exactly its size.
fn canonical_key_len(head: &str, model: &Model, config: &SolverConfig) -> usize {
    // Head, separator, `max_nodes`, then three `f64` settings.
    let header = head.len() + 1 + std::mem::size_of::<usize>() + 3 * 8;
    let limit = if config.time_limit.is_some() { 1 + 16 } else { 1 };
    let objective = 1 + 8 + TERM_BYTES * model.objective.len() + 1;
    let vars = 17 * model.vars.len() + 1;
    let rows = (1 + 8 + 1) * model.rows.len() + TERM_BYTES * model.rows.nnz();
    header + limit + objective + vars + rows
}

/// Canonical byte encoding of `(head, config, model)`, `head` being
/// `SolverOptions::cache_key_head`. Structurally identical models encode
/// identically: the builders' labels are not even stored.
pub(crate) fn canonical_key(head: &str, model: &Model, config: &SolverConfig) -> Vec<u8> {
    let len = canonical_key_len(head, model, config);
    let mut key = Vec::with_capacity(len);
    key.extend_from_slice(head.as_bytes());
    key.push(0xff);

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

    key.push(match model.sense {
        Sense::Minimize => 0,
        Sense::Maximize => 1,
    });
    // Terms are encoded in ascending variable order, the order in which
    // expressions and rows keep them.
    let push_term = |key: &mut Vec<u8>, var: VarId, coeff: f64| {
        key.extend_from_slice(&var.index().to_le_bytes());
        key.extend_from_slice(&coeff.to_bits().to_le_bytes());
    };
    key.extend_from_slice(&model.objective.constant().to_bits().to_le_bytes());
    for (var, coeff) in model.objective.iter() {
        push_term(&mut key, var, coeff);
    }
    key.push(0xfe);

    for var in &model.vars {
        key.push(match var.kind {
            VarKind::Continuous => 0,
            VarKind::Integer => 1,
            VarKind::Binary => 2,
        });
        key.extend_from_slice(&var.lower.to_bits().to_le_bytes());
        key.extend_from_slice(&var.upper.to_bits().to_le_bytes());
    }
    key.push(0xfd);

    for row in model.rows.iter() {
        key.push(match row.op {
            CmpOp::Le => 0,
            CmpOp::Ge => 1,
            CmpOp::Eq => 2,
        });
        key.extend_from_slice(&row.rhs.to_bits().to_le_bytes());
        for &(var, coeff) in row.terms {
            push_term(&mut key, var, coeff);
        }
        key.push(0xfc);
    }
    debug_assert_eq!(key.len(), len, "canonical_key_len disagrees with the encoding");
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sense, SolverOptions};

    /// The cache is process-global and the test harness runs tests
    /// concurrently; serialize the tests that clear it or count deltas.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Byte-serial FNV-1a 64, the digest the key pin below is stated in.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    fn model(scale: f64) -> Model {
        let mut m = Model::new("cache-test");
        let x = m.integer("x", 0.0, 9.0);
        let y = m.integer("y", 0.0, 9.0);
        m.add_le("c", 2.0 * x + 3.0 * y, 12.0 * scale);
        m.set_objective(Sense::Maximize, 5.0 * x + 4.0 * y);
        m
    }

    #[test]
    fn repeat_solves_hit_and_names_do_not_matter() {
        let _guard = TEST_LOCK.lock().unwrap();
        let cache = SolveCache::global();
        cache.clear();
        let options = SolverOptions { degrade: false, ..SolverOptions::default() };
        let cfg = SolverConfig::default();

        let first = model(1.0).solve_with_options(&cfg, &options).unwrap();
        let before = cache.stats();
        // Same structure, different diagnostic names: must hit.
        let mut renamed = Model::new("other-name");
        let x = renamed.integer("a", 0.0, 9.0);
        let y = renamed.integer("b", 0.0, 9.0);
        renamed.add_le("k", 2.0 * x + 3.0 * y, 12.0);
        renamed.set_objective(Sense::Maximize, 5.0 * x + 4.0 * y);
        let second = renamed.solve_with_options(&cfg, &options).unwrap();
        let after = cache.stats();

        assert_eq!(first.values, second.values);
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.entries, before.entries);
    }

    /// A degraded answer never reaches the cache, with the cache and the
    /// degradation ladder both on. A zero budget cancels the search at its
    /// root, so the ladder answers a model whose root relaxation is
    /// fractional (`b = 2/3`). The full-budget solve after it must search,
    /// not replay, and its exact answer is the one entry the pair adds.
    /// (Other unit tests run degraded solves concurrently, so lookups are
    /// counted through this thread's activity, not the global counters.)
    #[test]
    fn a_degraded_answer_never_reaches_the_cache() {
        use crate::stats::SolveActivity;
        use std::sync::Arc;
        let _guard = TEST_LOCK.lock().unwrap();
        let cache = SolveCache::global();
        let mut m = Model::new("must-branch");
        let [a, b, c] = [m.binary("a"), m.binary("b"), m.binary("c")];
        m.add_le("cap", 2.0 * a + 3.0 * b + c, 5.0);
        m.set_objective(Sense::Maximize, 5.0 * a + 4.0 * b + 3.0 * c);
        let options = SolverOptions::default();
        assert!(options.cache && options.degrade);

        let entries = cache.stats().entries;
        let zero = SolverConfig::with_time_limit(std::time::Duration::ZERO);
        let fallback = m.solve_with_options(&zero, &options).unwrap();
        assert!(fallback.degraded, "{fallback:?}");
        assert_eq!(cache.stats().entries, entries, "the degraded answer was stored");

        let scope = Arc::new(SolveActivity::default());
        let full = SolveActivity::scoped(&scope, || {
            m.solve_with_options(&SolverConfig::default(), &options)
        })
        .unwrap();
        assert!(!full.degraded, "{full:?}");
        assert_eq!(full.objective, 9.0);
        assert!(scope.snapshot().bb_nodes > 0, "the full-budget solve searched");
        assert_eq!(cache.stats().entries, entries + 1, "the exact answer is stored");
    }

    #[test]
    fn different_models_do_not_collide() {
        let a = canonical_key("seq", &model(1.0), &SolverConfig::default());
        let b = canonical_key("seq", &model(2.0), &SolverConfig::default());
        assert_ne!(a, b);
        let c = canonical_key("par", &model(1.0), &SolverConfig::default());
        assert_ne!(a, c);
        // Different objective lattices may prune to different anytime
        // incumbents under a budget — they must not share entries either.
        let gran = SolverConfig { objective_granularity: 64.0, ..SolverConfig::default() };
        let d = canonical_key("seq", &model(1.0), &gran);
        assert_ne!(a, d);
    }

    /// Pins the persisted key format: persisted cache files are looked up
    /// by these bytes, so a representation change underneath `Model` must
    /// not move one of them without a `FILE_VERSION` bump. The model mixes
    /// every key section: all three variable kinds, an equality, a `≥` row
    /// whose terms arrive out of variable order with a folded constant, a
    /// merged term, and a maximize objective with an offset.
    #[test]
    fn canonical_key_bytes_are_pinned() {
        let mut m = Model::new("golden");
        let x = m.binary("x");
        let y = m.integer("y", -2.0, 7.0);
        let z = m.continuous("z", 0.0, 2.5);
        m.add_eq("e", 2.0 * z + x - 0.5 * y, 3.0);
        m.add_ge("g", 1.25 * y + 3.0 * x + 2.0 - z + 0.75 * y, 4.0);
        m.add_le("l", x + y, 6.0);
        m.set_objective(Sense::Maximize, 4.0 * z + 5.0 * x - y + 1.5);
        let key = canonical_key("seq", &m, &SolverConfig::default());
        assert_eq!((key.len(), fnv1a64(&key)), (321, 16_875_555_773_097_714_251));
    }

    #[test]
    fn clear_resets_counters() {
        let _guard = TEST_LOCK.lock().unwrap();
        let cache = SolveCache::global();
        let options = SolverOptions { degrade: false, ..SolverOptions::default() };
        model(1.0).solve_with_options(&SolverConfig::default(), &options).unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!((stats.loads, stats.stores), (0, 0));
    }

    /// Regression: every rate on an empty cache must be a finite number,
    /// never `0/0 = NaN` (reports format these with `{:.0}%`, and a NaN
    /// would also poison JSON output).
    #[test]
    fn empty_cache_rates_are_finite() {
        let empty = CacheStats::default();
        assert!(empty.hit_rate().is_finite());
        assert_eq!(empty.hit_rate(), 0.0);
        let delta = empty.since(&empty);
        assert!(delta.hit_rate().is_finite());
        assert_eq!((delta.hits, delta.misses, delta.loads, delta.stores), (0, 0, 0, 0));
        // A fresh instance (no lookups, no persistence traffic) too.
        let fresh = SolveCache::new().stats();
        assert!(fresh.hit_rate().is_finite());
        assert_eq!(fresh.hit_rate(), 0.0);
    }

    fn tmp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tapacs-cache-test-{}-{tag}.bin", std::process::id()))
    }

    /// Populates a standalone cache through the public persistence path:
    /// solve on the global cache is not needed — instances encode and
    /// decode independently of it.
    fn populated_cache(n: usize) -> SolveCache {
        let cache = SolveCache::new();
        for i in 0..n {
            let m = model(1.0 + i as f64);
            let sol = m.solve().unwrap();
            cache.insert(canonical_key("seq", &m, &SolverConfig::default()), sol);
        }
        cache
    }

    #[test]
    fn save_load_round_trips_byte_identically() {
        let cache = populated_cache(3);
        let path = tmp_file("roundtrip");
        let written = cache.save_to(&path).unwrap();
        assert_eq!(written, 3);
        assert_eq!(cache.stats().stores, 3);

        let reloaded = SolveCache::new();
        assert_eq!(reloaded.load_from(&path).unwrap(), 3);
        let stats = reloaded.stats();
        assert_eq!((stats.entries, stats.loads), (3, 3));
        assert_eq!((stats.hits, stats.misses), (0, 0), "loading is not a lookup");

        // Same content ⇒ byte-identical file, regardless of map order.
        let path2 = tmp_file("roundtrip2");
        reloaded.save_to(&path2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&path2).unwrap());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn corrupt_and_stale_files_are_rejected_without_merging() {
        let cache = populated_cache(2);
        let path = tmp_file("corrupt");
        cache.save_to(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let target = SolveCache::new();
        let expect_rejected = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            let err = target.load_from(&path).expect_err(what);
            // Graceful: typed error, and nothing was merged.
            assert_eq!(target.stats().entries, 0, "{what} must not merge: {err}");
            assert_eq!(target.stats().loads, 0, "{what} must not count loads");
        };

        // Truncations at every interesting boundary.
        expect_rejected(&[], "empty file");
        expect_rejected(&good[..good.len() / 2], "half file");
        expect_rejected(&good[..good.len() - 1], "one byte short");
        // A single flipped bit anywhere trips the checksum.
        let mut flipped = good.clone();
        flipped[good.len() / 3] ^= 0x10;
        expect_rejected(&flipped, "bit flip");
        // Wrong magic and stale version.
        let mut magic = good.clone();
        magic[0] ^= 0xff;
        expect_rejected(&magic, "bad magic");
        // A *well-formed* file from a future format version: re-seal the
        // checksum so the rejection is specifically BadVersion, not a
        // checksum artifact.
        let mut stale = good.clone();
        stale[FILE_MAGIC.len()] = FILE_VERSION as u8 + 1;
        let seal = checksum(&stale[..stale.len() - 8]).to_le_bytes();
        let len = stale.len();
        stale[len - 8..].copy_from_slice(&seal);
        expect_rejected(&stale, "stale version");
        assert!(matches!(
            {
                std::fs::write(&path, &stale).unwrap();
                target.load_from(&path)
            },
            Err(CacheFileError::BadVersion { found, expected: FILE_VERSION })
                if found == u32::from(FILE_VERSION as u8 + 1)
        ));

        // The intact file still loads after all that rejection.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(target.load_from(&path).unwrap(), 2);
        let _ = std::fs::remove_file(&path);
        // Each rejection moved the bad file aside; the last one is still
        // there.
        let mut quarantined = path.into_os_string();
        quarantined.push(".quarantined");
        assert!(Path::new(&quarantined).exists(), "a rejected file is quarantined");
        std::fs::remove_file(&quarantined).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = SolveCache::new()
            .load_from(Path::new("/nonexistent/tapacs-no-such-cache.bin"))
            .expect_err("missing file");
        assert!(matches!(err, CacheFileError::Io(_)), "{err}");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn file_in_and_env_helpers() {
        assert_eq!(
            SolveCache::file_in(Path::new("/tmp/x")),
            Path::new("/tmp/x").join(SOLVE_CACHE_FILE)
        );
    }
}
