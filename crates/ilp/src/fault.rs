//! Seeded, deterministic fault injection for the robustness tests.
//!
//! [`install_faults`] arms a process-wide registry, parsed from
//! `<seed>:<spec>(;<spec>)*` by [`FaultRegistry::parse`], that the
//! pipeline consults at well-defined *sites* (a batch job about to
//! compile, a cache file about to be read or written). Each spec is:
//!
//! ```text
//! <kind><selector>[*<count>]
//! kind     := panic | timeout | cacheio
//! selector := @<substr>     exact substring match on the site key
//!           | %<permille>   fires when fnv(seed, kind, site) % 1000 < permille
//! count    := transient budget — the fault fires only the first N times
//!             at a given site (models transient IO errors that a retry
//!             outlives); omitted = fires every time the site matches
//! ```
//!
//! Example: `42:panic@knn;timeout%250;cacheio@load*2` panics any job whose
//! name contains `knn`, times out a seeded quarter of all jobs, and fails
//! the first two cache-load attempts.
//!
//! Selection is a pure function of `(seed, kind, site key)` — never of
//! thread interleaving or wall clock — so a faulted sweep is bit-identical
//! across batch worker counts. The transient budget is the one piece of
//! mutable state; it is keyed per `(spec, site)` so its draining is also
//! schedule-independent.
//!
//! Until a registry is installed every probe is a single atomic load —
//! the machinery compiles in but costs nothing in production.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The fault classes the pipeline knows how to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside a batch worker while compiling the matched job.
    Panic,
    /// Force the matched job's ILP time limit to zero (deterministic
    /// deadline expiry → the degradation ladder takes over).
    Timeout,
    /// Return an IO error from the persistent-cache load/save path.
    CacheIo,
}

impl FaultKind {
    fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Timeout => "timeout",
            FaultKind::CacheIo => "cacheio",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Selector {
    Substr(String),
    Permille(u32),
}

#[derive(Debug, Clone, PartialEq)]
struct FaultSpec {
    kind: FaultKind,
    selector: Selector,
    /// `Some(n)`: only the first `n` probes at a matching site fire.
    transient: Option<u32>,
}

/// A parsed, armed set of fault specs.
#[derive(Debug)]
pub struct FaultRegistry {
    seed: u64,
    specs: Vec<FaultSpec>,
    /// Probe counts per `(spec index, site key)`, for transient budgets.
    counters: Mutex<HashMap<(usize, String), u32>>,
}

/// 64-bit FNV-1a over the seed, kind, and site key — the deterministic
/// coin for `%permille` selectors.
fn fnv1a(seed: u64, kind: FaultKind, site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&seed.to_le_bytes());
    eat(kind.as_str().as_bytes());
    eat(site.as_bytes());
    h
}

impl FaultRegistry {
    /// Parses a `<seed>:<spec>(;<spec>)*` string.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed token.
    pub fn parse(input: &str) -> Result<Self, String> {
        let (seed_str, rest) =
            input.split_once(':').ok_or_else(|| format!("missing ':' in `{input}`"))?;
        let seed: u64 = seed_str.trim().parse().map_err(|_| format!("bad seed `{seed_str}`"))?;
        let mut specs = Vec::new();
        for raw in rest.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            specs.push(Self::parse_spec(raw)?);
        }
        if specs.is_empty() {
            return Err(format!("no fault specs in `{input}`"));
        }
        Ok(Self { seed, specs, counters: Mutex::new(HashMap::new()) })
    }

    fn parse_spec(raw: &str) -> Result<FaultSpec, String> {
        let sel_at = raw
            .find(['@', '%'])
            .ok_or_else(|| format!("spec `{raw}` needs `@substr` or `%permille`"))?;
        let kind = match &raw[..sel_at] {
            "panic" => FaultKind::Panic,
            "timeout" => FaultKind::Timeout,
            "cacheio" => FaultKind::CacheIo,
            other => return Err(format!("unknown fault kind `{other}` in `{raw}`")),
        };
        let (body, transient) = match raw.rfind('*') {
            Some(star) if star > sel_at => {
                let n: u32 = raw[star + 1..]
                    .parse()
                    .map_err(|_| format!("bad transient count in `{raw}`"))?;
                (&raw[sel_at..star], Some(n))
            }
            _ => (&raw[sel_at..], None),
        };
        let selector = match body.as_bytes()[0] {
            b'@' => {
                let s = &body[1..];
                if s.is_empty() {
                    return Err(format!("empty substring selector in `{raw}`"));
                }
                Selector::Substr(s.to_string())
            }
            _ => {
                let p: u32 = body[1..].parse().map_err(|_| format!("bad permille in `{raw}`"))?;
                if p > 1000 {
                    return Err(format!("permille {p} > 1000 in `{raw}`"));
                }
                Selector::Permille(p)
            }
        };
        Ok(FaultSpec { kind, selector, transient })
    }

    fn matching_spec(&self, kind: FaultKind, site: &str) -> Option<usize> {
        self.specs.iter().position(|s| {
            s.kind == kind
                && match &s.selector {
                    Selector::Substr(sub) => site.contains(sub.as_str()),
                    Selector::Permille(p) => fnv1a(self.seed, kind, site) % 1000 < u64::from(*p),
                }
        })
    }

    /// Pure selection: would *some* probe at this site ever fire? Ignores
    /// transient budgets, so the tests below can check selection without
    /// consuming a budget.
    #[cfg(test)]
    fn selects(&self, kind: FaultKind, site: &str) -> bool {
        self.matching_spec(kind, site).is_some()
    }

    /// One probe at a site: returns whether the fault fires *now*, and
    /// drains the matching spec's transient budget for this site if it has
    /// one. Deterministic given the sequence of probes at each site.
    pub fn fires(&self, kind: FaultKind, site: &str) -> bool {
        let Some(idx) = self.matching_spec(kind, site) else { return false };
        match self.specs[idx].transient {
            None => true,
            Some(budget) => {
                let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
                let seen = counters.entry((idx, site.to_string())).or_insert(0);
                *seen += 1;
                *seen <= budget
            }
        }
    }
}

/// `true` while a registry is installed, so the disarmed fast path is one
/// atomic load.
static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: RwLock<Option<Arc<FaultRegistry>>> = RwLock::new(None);

/// Installs (or clears, with `None`) the process-wide registry — the only
/// way faults are armed.
pub fn install_faults(reg: Option<Arc<FaultRegistry>>) {
    let mut guard = REGISTRY.write().unwrap_or_else(|e| e.into_inner());
    ARMED.store(reg.is_some(), Ordering::Release);
    *guard = reg;
}

/// The registry [`install_faults`] armed; `None` means no faults are armed.
pub fn fault_registry() -> Option<Arc<FaultRegistry>> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    REGISTRY.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// One-line probe for injection sites: does a fault of `kind` fire at
/// `site` right now? Costs one relaxed load when nothing is armed.
pub fn fault_fires(kind: FaultKind, site: &str) -> bool {
    fault_registry().is_some_and(|r| r.fires(kind, site))
}

/// Marker prefix carried in injected panic payloads so panic isolation can
/// attribute them distinctly from organic bugs.
pub const INJECTED_PANIC_MARKER: &str = "tapacs-injected-fault";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let r = FaultRegistry::parse("42:panic@knn;timeout%250;cacheio@load*2").unwrap();
        assert!(r.selects(FaultKind::Panic, "knn/F2"));
        assert!(!r.selects(FaultKind::Panic, "pagerank/F2"));
        assert!(r.selects(FaultKind::CacheIo, "load"));
        assert!(!r.selects(FaultKind::CacheIo, "save"));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultRegistry::parse("no-colon").is_err());
        assert!(FaultRegistry::parse("x:panic@a").is_err());
        assert!(FaultRegistry::parse("1:frobnicate@a").is_err());
        assert!(FaultRegistry::parse("1:stage%500").is_err());
        assert!(FaultRegistry::parse("1:panic").is_err());
        assert!(FaultRegistry::parse("1:panic@").is_err());
        assert!(FaultRegistry::parse("1:timeout%1500").is_err());
        assert!(FaultRegistry::parse("1:").is_err());
        assert!(FaultRegistry::parse("1:cacheio@x*y").is_err());
    }

    #[test]
    fn permille_is_deterministic_and_seed_dependent() {
        let r1 = FaultRegistry::parse("7:timeout%500").unwrap();
        let r2 = FaultRegistry::parse("7:timeout%500").unwrap();
        let sites = ["a/F1", "b/F2", "c/F4", "d/F8", "e/F2", "f/F4"];
        for s in &sites {
            assert_eq!(r1.selects(FaultKind::Timeout, s), r2.selects(FaultKind::Timeout, s));
        }
        // Some site must differ across seeds (500‰ over 6 sites — the
        // chance all agree for these fixed seeds is baked in, checked once
        // here so a hash regression shows up).
        let r3 = FaultRegistry::parse("8:timeout%500").unwrap();
        assert!(
            sites.iter().any(|s| {
                r1.selects(FaultKind::Timeout, s) != r3.selects(FaultKind::Timeout, s)
            }),
            "seeds 7 and 8 select identically — fnv mixing broken?"
        );
    }

    #[test]
    fn permille_extremes() {
        let always = FaultRegistry::parse("1:timeout%1000").unwrap();
        let never = FaultRegistry::parse("1:timeout%0").unwrap();
        for s in ["x", "y", "z"] {
            assert!(always.selects(FaultKind::Timeout, s));
            assert!(!never.selects(FaultKind::Timeout, s));
        }
    }

    #[test]
    fn transient_budget_drains_per_site() {
        let r = FaultRegistry::parse("1:cacheio@load*2").unwrap();
        assert!(r.fires(FaultKind::CacheIo, "load"));
        assert!(r.fires(FaultKind::CacheIo, "load"));
        assert!(!r.fires(FaultKind::CacheIo, "load"), "budget of 2 must be spent");
        // selects() never consumes budget.
        assert!(r.selects(FaultKind::CacheIo, "load"));
        // An unrelated site is unaffected.
        assert!(!r.fires(FaultKind::CacheIo, "save"));
    }

    #[test]
    fn non_transient_fires_forever() {
        let r = FaultRegistry::parse("1:panic@job").unwrap();
        for _ in 0..5 {
            assert!(r.fires(FaultKind::Panic, "job-3"));
        }
    }
}
