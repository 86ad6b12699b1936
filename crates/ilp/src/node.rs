//! Sparse branch-and-bound node state.
//!
//! A search over thousands of nodes used to clone the full `lower`/`upper`
//! vectors into every node. Since a branching step changes exactly one
//! bound, nodes now store a [`BoundDelta`] chained to the parent through an
//! [`Rc`] (a search runs on one thread) — resolving a node's bounds is one
//! copy of the root vectors plus one walk up the (depth-length) chain, and
//! sibling subtrees share their prefix. Only nodes that will branch hold a chain link: a node whose LP
//! point is integral is never branched on, so it keeps neither a chain nor
//! a basis, just its point packed by [`PackedPoint`].

use std::rc::Rc;

/// One branching decision: `var`'s lower (or upper) bound moved to `value`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundDelta {
    pub var: usize,
    pub is_upper: bool,
    pub value: f64,
}

/// A node's bound state as a delta chain back to the root. Deltas only
/// ever tighten, so resolution is order-independent (`max` over lower
/// deltas, `min` over upper deltas).
#[derive(Debug)]
pub(crate) struct BoundChain {
    delta: Option<BoundDelta>,
    parent: Option<Rc<BoundChain>>,
}

impl BoundChain {
    /// The root node's (empty) chain.
    pub fn root() -> Rc<BoundChain> {
        Rc::new(BoundChain { delta: None, parent: None })
    }

    /// A child chain extending `parent` with one more tightened bound.
    pub fn child(parent: &Rc<BoundChain>, delta: BoundDelta) -> Rc<BoundChain> {
        Rc::new(BoundChain { delta: Some(delta), parent: Some(Rc::clone(parent)) })
    }

    /// Materializes this node's bounds into the reusable scratch buffers:
    /// copies the root bounds, then applies every delta up the chain.
    pub fn resolve(
        &self,
        root_lower: &[f64],
        root_upper: &[f64],
        lower: &mut Vec<f64>,
        upper: &mut Vec<f64>,
    ) {
        lower.clear();
        lower.extend_from_slice(root_lower);
        upper.clear();
        upper.extend_from_slice(root_upper);
        let mut cur = Some(self);
        while let Some(c) = cur {
            if let Some(d) = &c.delta {
                if d.is_upper {
                    upper[d.var] = upper[d.var].min(d.value);
                } else {
                    lower[d.var] = lower[d.var].max(d.value);
                }
            }
            cur = c.parent.as_deref();
        }
    }
}

/// The fast-parity kit — dual repair, the one-FTRAN basis install, the
/// logicals-first factorization order and the hybrid devex switch —
/// engages only once a search has expanded this many nodes (counted at
/// round boundaries; the root solve is node zero), or fewer on wide LPs
/// (see [`FAST_KIT_ROW_NODES`]). Small trees — a few hundred nodes — are
/// fastest replaying the exact trajectory bit for bit: the kit reaches
/// *different* optimal vertices whose denser bases and perturbed branching
/// values grow exactly those trees. On big searches (thousands to hundreds
/// of thousands of nodes) the kit's per-child pivot savings dwarf that
/// effect. The driver counts nodes deterministically, so the cutover never
/// depends on timing.
pub(crate) const FAST_KIT_AFTER_NODES: usize = 384;

/// The kit-off attempt's budget in row-nodes: expanded nodes times the
/// presolved LP's row count. A kit-off node costs roughly in proportion to
/// its LP's rows (on a 2-vCPU host, ≈0.05 ms at 36 rows and ≈6.5 ms at
/// 384 rows of the bundled floorplanning splits), so a flat
/// node threshold charges a wide LP's discarded replay prefix ten times
/// what it charges a narrow one. LPs of at most 128 rows keep the full
/// [`FAST_KIT_AFTER_NODES`] replay; wider ones restart proportionally
/// sooner (384 rows: after 128 nodes).
pub(crate) const FAST_KIT_ROW_NODES: usize = FAST_KIT_AFTER_NODES * 128;

/// The expanded-node count at which a kit-off attempt over an LP of `rows`
/// presolved rows is abandoned for a kit-on restart:
/// `min(FAST_KIT_AFTER_NODES, FAST_KIT_ROW_NODES / rows)`, never below 1.
/// A pure function of the model, so the restart stays deterministic.
pub(crate) fn kit_restart_after(rows: usize) -> usize {
    FAST_KIT_AFTER_NODES.min(FAST_KIT_ROW_NODES / rows.max(1)).max(1)
}

/// The branching rule: the integral variable whose relaxation value is
/// the most fractional (beyond `tol`), or `None` when the point is
/// integral on every listed coordinate.
pub(crate) fn most_fractional(relax: &[f64], integral: &[usize], tol: f64) -> Option<usize> {
    let mut branch_var = None;
    let mut best_frac = tol;
    for &j in integral {
        let v = relax[j];
        let frac = (v - v.round()).abs();
        if frac > best_frac {
            best_frac = frac;
            branch_var = Some(j);
        }
    }
    branch_var
}

/// A point stored with a 2-bit code per entry: bit-exact `+0.0`, bit-exact
/// `1.0`, or *raw*, whose `f64` bits follow the code words in entry order.
/// Lossless for every value (`-0.0`, NaN payloads and `1 ± 1 ulp` are raw),
/// and a 0/1 point of `n` entries costs `⌈n / 32⌉` words instead of `n`.
/// The entry count is not stored; [`unpack`](Self::unpack) takes it back.
#[derive(Debug)]
pub(crate) struct PackedPoint(Box<[u64]>);

impl PackedPoint {
    const ZERO: u64 = 0;
    const ONE: u64 = 1;
    const RAW: u64 = 2;

    fn code(v: f64) -> u64 {
        match v.to_bits() {
            0 => Self::ZERO,
            b if b == 1f64.to_bits() => Self::ONE,
            _ => Self::RAW,
        }
    }

    pub fn pack(values: &[f64]) -> PackedPoint {
        let code_words = values.len().div_ceil(32);
        let raw = values.iter().filter(|&&v| Self::code(v) == Self::RAW).count();
        let mut words = Vec::with_capacity(code_words + raw);
        words.resize(code_words, 0);
        for (i, &v) in values.iter().enumerate() {
            let code = Self::code(v);
            if code == Self::RAW {
                words.push(v.to_bits());
            }
            words[i / 32] |= code << (2 * (i % 32));
        }
        PackedPoint(words.into_boxed_slice())
    }

    /// The `n` values [`pack`](Self::pack) was given, bit for bit.
    pub fn unpack(&self, n: usize) -> Vec<f64> {
        let (codes, raw) = self.0.split_at(n.div_ceil(32));
        let mut raw = raw.iter();
        let values: Vec<f64> = (0..n)
            .map(|i| match (codes[i / 32] >> (2 * (i % 32))) & 3 {
                Self::ZERO => 0.0,
                Self::ONE => 1.0,
                _ => f64::from_bits(*raw.next().expect("one raw word per raw code")),
            })
            .collect();
        debug_assert!(raw.next().is_none(), "unpacked with the wrong entry count");
        values
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Bit patterns next to the two coded values and at the raw path's
    /// edges: signed zeros, `1 ± 1 ulp`, subnormals, huge and non-finite
    /// values. Generated entries draw from these or from uniform `f64` bits.
    const EDGES: [f64; 15] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f64::from_bits(0x3FF0_0000_0000_0001),
        f64::from_bits(0x3FEF_FFFF_FFFF_FFFF),
        f64::MIN_POSITIVE / 3.0,
        -f64::MIN_POSITIVE / 7.0,
        5e-324,
        f64::MAX,
        1e300,
        -4.5e15,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    fn entry() -> impl Strategy<Value = f64> {
        (0..2 * EDGES.len(), any::<u64>())
            .prop_map(|(k, bits)| EDGES.get(k).copied().unwrap_or(f64::from_bits(bits)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every entry comes back with its exact bits, whatever the mix of
        /// coded and raw entries and however many code words it spans.
        #[test]
        fn packed_points_round_trip_bit_for_bit(
            values in proptest::collection::vec(entry(), 0..100),
        ) {
            let back = PackedPoint::pack(&values).unpack(values.len());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back), bits(&values));
        }
    }

    #[test]
    fn a_zero_one_point_packs_into_its_code_words() {
        let point: Vec<f64> = (0..35).map(|i| (i % 3 == 0) as u8 as f64).collect();
        let packed = PackedPoint::pack(&point);
        assert_eq!(packed.0.len(), 2, "35 codes, no raw entry");
        assert_eq!(packed.unpack(35), point);
        let mut mixed = point.clone();
        mixed[7] = -0.0;
        mixed[34] = 0.5;
        assert_eq!(PackedPoint::pack(&mixed).0.len(), 4, "two raw entries");
    }

    #[test]
    fn chain_resolution_applies_all_ancestors() {
        let root = BoundChain::root();
        let a = BoundChain::child(&root, BoundDelta { var: 0, is_upper: true, value: 3.0 });
        let b = BoundChain::child(&a, BoundDelta { var: 1, is_upper: false, value: 2.0 });
        let c = BoundChain::child(&b, BoundDelta { var: 0, is_upper: true, value: 1.0 });
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        c.resolve(&[0.0, 0.0], &[10.0, 10.0], &mut lo, &mut hi);
        assert_eq!(lo, vec![0.0, 2.0]);
        assert_eq!(hi, vec![1.0, 10.0]);
        // Sibling state is untouched: resolving `b` sees only its own path.
        b.resolve(&[0.0, 0.0], &[10.0, 10.0], &mut lo, &mut hi);
        assert_eq!(hi, vec![3.0, 10.0]);
    }

    #[test]
    fn kit_restart_point_scales_with_lp_rows() {
        for rows in [0, 1, 36, 128] {
            assert_eq!(kit_restart_after(rows), FAST_KIT_AFTER_NODES, "{rows} rows");
        }
        assert_eq!(kit_restart_after(129), 381);
        assert_eq!(kit_restart_after(384), 128);
        assert_eq!(kit_restart_after(396), 124);
        for rows in [FAST_KIT_ROW_NODES, FAST_KIT_ROW_NODES + 1, usize::MAX] {
            assert_eq!(kit_restart_after(rows), 1, "{rows} rows: never 0");
        }
    }

    #[test]
    fn most_fractional_picks_the_farthest_from_integer() {
        let relax = [1.0, 2.5, 0.9, 3.1];
        assert_eq!(most_fractional(&relax, &[0, 1, 2, 3], 1e-6), Some(1));
        assert_eq!(most_fractional(&relax, &[0], 1e-6), None);
    }
}
