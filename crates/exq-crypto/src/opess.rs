//! Order-Preserving Encryption with Splitting and Scaling (OPESS, §5.2).
//!
//! Given the exact occurrence histogram of a plaintext attribute, OPESS maps
//! each plaintext value to *several* ciphertext values so that the ciphertext
//! histogram is nearly flat, then replicates index entries by a per-value
//! random scale factor so an attacker who knows the exact plaintext
//! frequencies cannot re-group ciphertexts back to plaintexts:
//!
//! 1. pick the largest `m` such that every occurrence count is a
//!    non-negative combination of the chunk sizes `{m−1, m, m+1}`;
//! 2. split each value's occurrences into such chunks; the `j`-th chunk is
//!    displaced from the value by the weight prefix-sum `w₁+⋯+w_j` scaled
//!    into the gap to the next value, keeping ciphertexts of different
//!    plaintexts from straddling (condition (*) of the paper);
//! 3. encrypt the displaced values with the order-preserving function, all
//!    of a plan in one batch: a value's chunks lie in one narrow window of
//!    the domain, so their descents share every tree node above it and
//!    each shared node's coin is drawn once ([`OpeKey::encrypt_many`]);
//! 4. draw a random integer scale `s ∈ [1, 10]` per value; every index entry
//!    of that value is replicated `s` times in the value index.
//!
//! Deviation from the paper, documented in DESIGN.md: the paper sets
//! `δ = max` gap between consecutive plaintext values, but condition (*)
//! (non-straddling) only holds in general with `δ = min` positive gap; we use
//! the min. The paper's worked example (two values, one gap) is unaffected.

use crate::ope::{f64_to_ordered_u64, OpeKey};
use rand::Rng;

/// Errors from plan construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpessError {
    EmptyInput,
    NonFiniteValue,
    ZeroCount,
}

impl std::fmt::Display for OpessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpessError::EmptyInput => write!(f, "OPESS plan needs at least one value"),
            OpessError::NonFiniteValue => write!(f, "OPESS values must be finite"),
            OpessError::ZeroCount => write!(f, "OPESS occurrence counts must be positive"),
        }
    }
}

impl std::error::Error for OpessError {}

/// One ciphertext chunk of a plaintext value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkCipher {
    pub ciphertext: u128,
    /// How many plaintext occurrences this chunk carries.
    pub occurrences: u32,
}

/// The per-plaintext-value part of a plan.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    pub plaintext: f64,
    pub count: u32,
    pub chunks: Vec<ChunkCipher>,
    /// Scaling replication factor in `[1, 10]`.
    pub scale: u32,
}

/// An inclusive ciphertext range, the unit of server-side value-index lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRange {
    pub lo: u128,
    pub hi: u128,
}

impl ValueRange {
    pub const FULL: ValueRange = ValueRange {
        lo: 0,
        hi: u128::MAX,
    };

    pub fn contains(&self, c: u128) -> bool {
        self.lo <= c && c <= self.hi
    }
}

/// Comparison operators for range translation, mirroring the query AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A built OPESS plan for one attribute.
///
/// ```
/// use exq_crypto::{OpeKey, OpessPlan};
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// // A skewed histogram: value 10.0 occurs 30 times, 20.0 occurs 7 times.
/// let plan = OpessPlan::build(&[(10.0, 30), (20.0, 7)], OpeKey::new([1; 32]), &mut rng).unwrap();
/// // Every ciphertext chunk's frequency lands in {m-1, m, m+1}: flat.
/// let m = plan.m();
/// assert!(plan.split_histogram().iter().all(|&f| (m - 1..=m + 1).contains(&f)));
/// ```
#[derive(Debug, Clone)]
pub struct OpessPlan {
    ope: OpeKey,
    /// Middle chunk size `m`.
    m: u32,
    /// Prefix sums of the `K` weights, each in `(0, 1)`, strictly increasing,
    /// final value `< K/(K+1) < 1`.
    weight_prefix: Vec<f64>,
    /// Minimum positive gap between consecutive distinct plaintext values.
    delta: f64,
    entries: Vec<PlanEntry>,
}

impl OpessPlan {
    /// Builds a plan from `(value, occurrence-count)` pairs. Duplicated
    /// values are merged. The `rng` drives weight/scale sampling; the OPE key
    /// drives ciphertext placement. This is [`draft`](Self::draft), then the
    /// descent of its [`displaced`](OpessDraft::displaced) values, then
    /// [`finish`](OpessDraft::finish).
    pub fn build(
        values: &[(f64, u32)],
        ope: OpeKey,
        rng: &mut impl Rng,
    ) -> Result<OpessPlan, OpessError> {
        let draft = Self::draft(values, ope, rng)?;
        let ciphertexts = draft.ope().encrypt_many(draft.displaced());
        Ok(draft.finish(ciphertexts))
    }

    /// A plan without its ciphertexts: every draw from `rng` the plan makes
    /// (the `K` weights, then one scale per value in plaintext order) and
    /// the displaced values still to encrypt. The descent that remains
    /// uses only the OPE key, so it may run anywhere and in any cuts: a
    /// coin depends only on its tree node.
    pub fn draft(
        values: &[(f64, u32)],
        ope: OpeKey,
        rng: &mut impl Rng,
    ) -> Result<OpessDraft, OpessError> {
        if values.is_empty() {
            return Err(OpessError::EmptyInput);
        }
        if values.iter().any(|(v, _)| !v.is_finite()) {
            return Err(OpessError::NonFiniteValue);
        }
        if values.iter().any(|(_, c)| *c == 0) {
            return Err(OpessError::ZeroCount);
        }

        // Merge duplicates and sort.
        let mut merged: Vec<(f64, u32)> = Vec::with_capacity(values.len());
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (v, c) in sorted {
            match merged.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => merged.push((v, c)),
            }
        }

        let delta = merged
            .windows(2)
            .map(|w| w[1].0 - w[0].0)
            .fold(f64::INFINITY, f64::min);
        let delta = if delta.is_finite() { delta } else { 1.0 };

        let m = choose_m(merged.iter().map(|&(_, c)| c));

        // Chunk decomposition per value; K = max chunk count.
        let mut chunk_sizes: Vec<Vec<u32>> = Vec::with_capacity(merged.len());
        for &(_, count) in &merged {
            chunk_sizes.push(decompose(count, m));
        }
        let k_max = chunk_sizes.iter().map(Vec::len).max().unwrap_or(1);

        // K weights in (0, 1/(K+1)), ascending; keep prefix sums.
        let bound = 1.0 / (k_max as f64 + 1.0);
        let mut ws: Vec<f64> = (0..k_max)
            .map(|_| rng.gen_range(bound * 1e-3..bound))
            .collect();
        ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut weight_prefix = Vec::with_capacity(k_max);
        let mut acc = 0.0;
        for w in ws {
            acc += w;
            weight_prefix.push(acc);
        }

        let mut plan = OpessPlan {
            ope,
            m,
            weight_prefix,
            delta,
            entries: Vec::with_capacity(merged.len()),
        };

        // Every chunk's displaced value, so that they go down one OPE tree
        // together; each chunk's ciphertext is filled in by `finish`.
        let mut displaced = Vec::new();
        for (&(v, count), sizes) in merged.iter().zip(chunk_sizes) {
            displaced.extend((0..sizes.len()).map(|j| plan.displaced(v, j)));
            plan.entries.push(PlanEntry {
                plaintext: v,
                count,
                chunks: sizes
                    .into_iter()
                    .map(|occurrences| ChunkCipher {
                        ciphertext: 0,
                        occurrences,
                    })
                    .collect(),
                scale: rng.gen_range(1..=10),
            });
        }
        Ok(OpessDraft { plan, displaced })
    }

    /// The chunk middle size `m`.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// The minimum-gap δ used for displacement (persistence support).
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The weight prefix sums (persistence support).
    pub fn weight_prefix(&self) -> &[f64] {
        &self.weight_prefix
    }

    /// Reassembles a plan from persisted parts. The caller is responsible
    /// for the parts having come from [`build`](Self::build) (weights
    /// ascending, entries sorted by plaintext with non-straddling chunks).
    pub fn from_parts(
        ope: OpeKey,
        m: u32,
        weight_prefix: Vec<f64>,
        delta: f64,
        entries: Vec<PlanEntry>,
    ) -> OpessPlan {
        OpessPlan {
            ope,
            m,
            weight_prefix,
            delta,
            entries,
        }
    }

    /// `K`: the maximum number of chunks any value was split into, which is
    /// also the number of splitting keys/weights.
    pub fn key_count(&self) -> usize {
        self.weight_prefix.len()
    }

    /// Per-value plan entries, ordered by plaintext.
    pub fn entries(&self) -> &[PlanEntry] {
        &self.entries
    }

    /// Where chunk `j` (0-based) of plaintext `v` goes before the
    /// order-preserving function. Displacement happens in the ordered-u64
    /// embedding of the gap `[v, v + δ)` so that chunk ciphertexts are
    /// strictly increasing and never straddle the next plaintext value.
    fn displaced(&self, v: f64, j: usize) -> u64 {
        let base = f64_to_ordered_u64(v);
        let next = f64_to_ordered_u64(v + self.delta);
        let k = self.weight_prefix.len() as u64;
        let span = next.saturating_sub(base).max((k + 2) * (k + 2));
        let frac = self.weight_prefix[j];
        // The additive `j + 1` keeps offsets strictly increasing in `j` even
        // if the float products round to the same integer.
        let off = ((span as f64) * frac) as u64 + j as u64 + 1;
        debug_assert!(off < span, "chunk displacement escaped the value gap");
        base + off
    }

    /// Ciphertexts for inserting occurrences of a (possibly new) plaintext
    /// value after the plan was built: the value's band positions, reusing
    /// the plan's weights (update support). At most `min(m, K)` chunks.
    pub fn insert_ciphertexts(&self, v: f64) -> Vec<u128> {
        let n = (self.m as usize).min(self.weight_prefix.len()).max(1);
        let displaced: Vec<u64> = (0..n).map(|j| self.displaced(v, j)).collect();
        self.ope.encrypt_many(&displaced)
    }

    /// Plaintext `v`'s ciphertext band: its first and its last chunk's
    /// ciphertext, one batch whose two descents share their upper levels.
    fn band(&self, v: f64) -> ValueRange {
        let last = self.weight_prefix.len() - 1;
        let ends = [self.displaced(v, 0), self.displaced(v, last)];
        let c = self.ope.encrypt_many(&ends);
        ValueRange { lo: c[0], hi: c[1] }
    }

    /// The order-preserving ciphertext of one value, through the batch.
    fn encrypt_one(&self, x: u64) -> u128 {
        self.ope.encrypt_many(&[x])[0]
    }

    /// Translates a comparison predicate into a ciphertext range that is a
    /// *superset* of the matching entries (exact for `=` on domain values);
    /// the client's post-processing removes any false positives, so
    /// over-approximation is safe. See also [`translate_paper`].
    ///
    /// [`translate_paper`]: Self::translate_paper
    pub fn translate(&self, op: RangeOp, v: f64) -> ValueRange {
        match op {
            RangeOp::Eq => self.band(v),
            RangeOp::Ne => ValueRange::FULL,
            RangeOp::Lt | RangeOp::Le => ValueRange {
                lo: 0,
                hi: self.encrypt_one(self.displaced(v, self.weight_prefix.len() - 1)),
            },
            RangeOp::Gt | RangeOp::Ge => ValueRange {
                lo: self.encrypt_one(f64_to_ordered_u64(v)),
                hi: u128::MAX,
            },
        }
    }

    /// The literal translation table of the paper's Figure 7(a):
    ///
    /// * `v = v₁` → `[E(v₁+w₁δ), E(v₁+Σwδ)]`
    /// * `v < v₁` → `< E(v₁+w₁δ)`
    /// * `v > v₁` → `> E(v₁+Σwδ)`
    /// * `v ≤ v₁` → `≤ E(v₁+Σwδ)`
    /// * `v ≥ v₁` → `≥ E(v₁+w₁δ)`
    ///
    /// Exact when `v` is an active-domain value; may miss fringe chunks for
    /// constants strictly between domain values (which is why the system
    /// pipeline uses [`translate`](Self::translate) instead).
    pub fn translate_paper(&self, op: RangeOp, v: f64) -> ValueRange {
        let ValueRange { lo, hi } = self.band(v);
        match op {
            RangeOp::Eq => ValueRange { lo, hi },
            RangeOp::Ne => ValueRange::FULL,
            RangeOp::Lt => ValueRange {
                lo: 0,
                hi: lo.saturating_sub(1),
            },
            RangeOp::Le => ValueRange { lo: 0, hi },
            RangeOp::Gt => ValueRange {
                lo: hi.saturating_add(1),
                hi: u128::MAX,
            },
            RangeOp::Ge => ValueRange { lo, hi: u128::MAX },
        }
    }

    /// The ciphertext histogram *after splitting only* — each entry is one
    /// ciphertext value's occurrence count. By construction every entry is
    /// in `{m−1, m, m+1}` (or 1 for split singletons). This is the
    /// distribution of Figure 6(b).
    pub fn split_histogram(&self) -> Vec<u32> {
        self.entries
            .iter()
            .flat_map(|e| e.chunks.iter().map(|c| c.occurrences))
            .collect()
    }

    /// The ciphertext histogram after splitting *and* scaling — what the
    /// server actually observes in the value index.
    pub fn scaled_histogram(&self) -> Vec<u64> {
        self.entries
            .iter()
            .flat_map(|e| {
                e.chunks
                    .iter()
                    .map(move |c| c.occurrences as u64 * e.scale as u64)
            })
            .collect()
    }

    /// Total number of value-index entries the plan produces.
    pub fn index_entry_count(&self) -> u64 {
        self.scaled_histogram().iter().sum()
    }
}

/// An [`OpessPlan`] whose chunk ciphertexts are still to be computed:
/// what [`OpessPlan::draft`] returns.
#[derive(Debug, Clone)]
pub struct OpessDraft {
    /// The plan with every chunk's ciphertext 0.
    plan: OpessPlan,
    /// Chunk `j` of each value, values in plaintext order, before the OPE.
    displaced: Vec<u64>,
}

impl OpessDraft {
    /// The OPE key the descent encrypts under.
    pub fn ope(&self) -> &OpeKey {
        &self.plan.ope
    }

    /// The values to encrypt, one per chunk, in plaintext and chunk order.
    /// They ascend, so a cut of them shares its tree nodes, unless two
    /// plaintexts are a few ulps apart: then their chunks interleave.
    pub fn displaced(&self) -> &[u64] {
        &self.displaced
    }

    /// The plan, given `ope().encrypt_many(displaced())` — whole or as the
    /// concatenation of its cuts, in order.
    pub fn finish(self, ciphertexts: impl IntoIterator<Item = u128>) -> OpessPlan {
        let mut plan = self.plan;
        let mut ciphertexts = ciphertexts.into_iter();
        for chunk in plan.entries.iter_mut().flat_map(|e| &mut e.chunks) {
            chunk.ciphertext = ciphertexts.next().expect("one ciphertext per chunk");
        }
        assert!(ciphertexts.next().is_none(), "more ciphertexts than chunks");
        debug_assert!(plan.entries.iter().all(|e| e
            .chunks
            .windows(2)
            .all(|w| w[0].ciphertext < w[1].ciphertext)));
        plan
    }
}

/// Chooses the maximum `m ≥ 3` such that every count `n ≥ 2` can be written
/// as a non-negative combination of `{m−1, m, m+1}` — equivalently, such that
/// some `t ≥ 1` satisfies `t(m−1) ≤ n ≤ t(m+1)`. `(2,3,4)` always works for
/// `n ≥ 2`, so the search is total.
fn choose_m(counts: impl Iterator<Item = u32>) -> u32 {
    let relevant: Vec<u32> = counts.filter(|&c| c >= 2).collect();
    if relevant.is_empty() {
        return 3;
    }
    let upper = relevant.iter().min().copied().unwrap_or(3) + 1;
    for m in (3..=upper.max(3)).rev() {
        if relevant.iter().all(|&n| representable(n, m)) {
            return m;
        }
    }
    3
}

/// Is `n` a non-negative combination of `{m−1, m, m+1}`?
fn representable(n: u32, m: u32) -> bool {
    let (lo, hi) = (m - 1, m + 1);
    // exists t with t*lo <= n <= t*hi
    let t_min = n.div_ceil(hi);
    let t_max = n / lo;
    t_min <= t_max && t_min >= 1
}

/// Splits `n` occurrences into the fewest chunks with sizes in
/// `{m−1, m, m+1}`. Singletons (`n = 1`) split into `m` one-occurrence
/// chunks per the paper, so unique values don't betray themselves.
fn decompose(n: u32, m: u32) -> Vec<u32> {
    if n == 1 {
        return vec![1; m as usize];
    }
    let (lo, hi) = (m - 1, m + 1);
    let t = n.div_ceil(hi).max(1);
    debug_assert!(t * lo <= n && n <= t * hi, "decompose({n}, {m}) broken");
    let extra = n - t * lo; // 0 ..= 2t
    let mut sizes = vec![lo; t as usize];
    let bump1 = extra.min(t);
    for s in sizes.iter_mut().take(bump1 as usize) {
        *s += 1;
    }
    if extra > t {
        for s in sizes.iter_mut().take((extra - t) as usize) {
            *s += 1;
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan(values: &[(f64, u32)]) -> OpessPlan {
        let mut rng = StdRng::seed_from_u64(7);
        OpessPlan::build(values, OpeKey::new([3u8; 32]), &mut rng).unwrap()
    }

    /// The paper's Figure 6 example: skewed counts flatten to ~m±1.
    #[test]
    fn figure6_flattening() {
        let values = [
            (1001.0, 20u32),
            (932.0, 8),
            (23.0, 27),
            (77.0, 7),
            (90.0, 34),
            (12.0, 13),
        ];
        let p = plan(&values);
        let hist = p.split_histogram();
        let m = p.m();
        for &h in &hist {
            assert!(
                (m - 1..=m + 1).contains(&h),
                "chunk occurrence {h} outside m±1 (m={m})"
            );
        }
        // Splitting preserves total occurrences.
        let total: u32 = hist.iter().sum();
        assert_eq!(total, values.iter().map(|&(_, c)| c).sum::<u32>());
    }

    /// The paper's worked decomposition: 34 = 1·6 + 4·7 with (6,7,8).
    #[test]
    fn decompose_paper_example() {
        let sizes = decompose(34, 7);
        assert_eq!(sizes.iter().sum::<u32>(), 34);
        assert!(sizes.iter().all(|&s| (6..=8).contains(&s)));
        assert_eq!(sizes.len(), 5); // 34 split into 5 chunks
    }

    #[test]
    fn representable_small_cases() {
        assert!(representable(2, 3));
        assert!(representable(3, 3));
        assert!(representable(4, 3));
        assert!(representable(5, 3));
        // 5 with m=5: chunks {4,5,6}: yes (t=1, 4<=5<=6)
        assert!(representable(5, 5));
        // 7 with m=5: t=1 gives 4..6 (no), t=2 gives 8..12 (no) -> not representable
        assert!(!representable(7, 5));
    }

    #[test]
    fn choose_m_respects_all_counts() {
        // counts {2}: m must keep 2 representable; m-1 <= 2 -> m <= 3
        assert_eq!(choose_m([2u32].into_iter()), 3);
        // all counts large and equal: m can be count+1? t=1 needs m-1 <= n <= m+1
        let m = choose_m([10u32, 10, 10].into_iter());
        assert!(representable(10, m));
        assert!(m >= 3);
    }

    #[test]
    fn singleton_splits_into_m_chunks() {
        let p = plan(&[(5.0, 1), (10.0, 6)]);
        let single = &p.entries()[0];
        assert_eq!(single.count, 1);
        assert_eq!(single.chunks.len(), p.m() as usize);
        assert!(single.chunks.iter().all(|c| c.occurrences == 1));
    }

    #[test]
    fn non_straddling_condition() {
        // Condition (*): all ciphertexts of v_i are below all of v_j for v_i < v_j.
        let values = [(10.0, 9u32), (11.0, 3), (15.0, 22), (100.0, 5)];
        let p = plan(&values);
        let mut prev_hi = 0u128;
        for e in p.entries() {
            let lo = e.chunks.first().unwrap().ciphertext;
            let hi = e.chunks.last().unwrap().ciphertext;
            assert!(lo > prev_hi, "bands straddle at {}", e.plaintext);
            assert!(lo <= hi);
            prev_hi = hi;
        }
    }

    #[test]
    fn chunks_strictly_increasing() {
        let p = plan(&[(1.0, 30), (2.0, 30)]);
        for e in p.entries() {
            for w in e.chunks.windows(2) {
                assert!(w[0].ciphertext < w[1].ciphertext);
            }
        }
    }

    #[test]
    fn eq_translation_covers_exactly_the_band() {
        let values = [(10.0, 9u32), (20.0, 12), (30.0, 7)];
        let p = plan(&values);
        for e in p.entries() {
            let r = p.translate(RangeOp::Eq, e.plaintext);
            for c in &e.chunks {
                assert!(r.contains(c.ciphertext));
            }
            // No other value's chunks fall in the band.
            for other in p.entries() {
                if other.plaintext != e.plaintext {
                    for c in &other.chunks {
                        assert!(!r.contains(c.ciphertext));
                    }
                }
            }
        }
    }

    #[test]
    fn range_translations_are_supersets() {
        let values = [(10.0, 9u32), (20.0, 12), (30.0, 7)];
        let p = plan(&values);
        // Lt 20 must cover all chunks of 10.
        let r = p.translate(RangeOp::Lt, 20.0);
        for c in &p.entries()[0].chunks {
            assert!(r.contains(c.ciphertext));
        }
        // Gt 20 must cover all chunks of 30.
        let r = p.translate(RangeOp::Gt, 20.0);
        for c in &p.entries()[2].chunks {
            assert!(r.contains(c.ciphertext));
        }
        // Ge 20 covers 20 and 30.
        let r = p.translate(RangeOp::Ge, 20.0);
        for e in &p.entries()[1..] {
            for c in &e.chunks {
                assert!(r.contains(c.ciphertext));
            }
        }
        // Le 20 covers 10 and 20.
        let r = p.translate(RangeOp::Le, 20.0);
        for e in &p.entries()[..2] {
            for c in &e.chunks {
                assert!(r.contains(c.ciphertext));
            }
        }
    }

    #[test]
    fn paper_translation_exact_on_domain_values() {
        let values = [(10.0, 9u32), (20.0, 12), (30.0, 7)];
        let p = plan(&values);
        let r = p.translate_paper(RangeOp::Lt, 20.0);
        // covers all of 10, none of 20/30
        for c in &p.entries()[0].chunks {
            assert!(r.contains(c.ciphertext));
        }
        for e in &p.entries()[1..] {
            for c in &e.chunks {
                assert!(!r.contains(c.ciphertext));
            }
        }
        let r = p.translate_paper(RangeOp::Gt, 20.0);
        for c in &p.entries()[2].chunks {
            assert!(r.contains(c.ciphertext));
        }
        for e in &p.entries()[..2] {
            for c in &e.chunks {
                assert!(!r.contains(c.ciphertext));
            }
        }
    }

    #[test]
    fn scaling_in_bounds_and_applied() {
        let values = [(10.0, 9u32), (20.0, 12)];
        let p = plan(&values);
        for e in p.entries() {
            assert!((1..=10).contains(&e.scale));
        }
        let split_total: u64 = p.split_histogram().iter().map(|&x| x as u64).sum();
        let scaled_total = p.index_entry_count();
        assert!(scaled_total >= split_total);
    }

    #[test]
    fn scaled_histogram_breaks_total_frequency_attack() {
        // After scaling, the sum of ciphertext occurrences no longer equals
        // the plaintext total (with overwhelming probability over scales).
        let values = [(10.0, 30u32), (20.0, 10), (30.0, 20)];
        let mut any_changed = false;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = OpessPlan::build(&values, OpeKey::new([3u8; 32]), &mut rng).unwrap();
            let scaled: u64 = p.index_entry_count();
            if scaled != 60 {
                any_changed = true;
            }
        }
        assert!(any_changed);
    }

    #[test]
    fn duplicate_values_merge() {
        let p = plan(&[(5.0, 3), (5.0, 4), (6.0, 2)]);
        assert_eq!(p.entries().len(), 2);
        assert_eq!(p.entries()[0].count, 7);
    }

    #[test]
    fn errors() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            OpessPlan::build(&[], OpeKey::new([0u8; 32]), &mut rng).unwrap_err(),
            OpessError::EmptyInput
        );
        assert_eq!(
            OpessPlan::build(&[(f64::NAN, 1)], OpeKey::new([0u8; 32]), &mut rng).unwrap_err(),
            OpessError::NonFiniteValue
        );
        assert_eq!(
            OpessPlan::build(&[(1.0, 0)], OpeKey::new([0u8; 32]), &mut rng).unwrap_err(),
            OpessError::ZeroCount
        );
    }

    /// `build` is draft, then the descent, then finish: the same plan,
    /// whether the descent is one batch or cut into runs, and the `rng`
    /// left where `build` leaves it.
    #[test]
    fn build_is_draft_descend_finish() {
        use rand::RngCore;
        let values: Vec<(f64, u32)> = (0..80)
            .map(|i| (f64::from(i) * 1.5, 1 + (i * 7919) % 23))
            .collect();
        let key = OpeKey::new([9u8; 32]);
        let mut built_rng = StdRng::seed_from_u64(11);
        let built = OpessPlan::build(&values, key.clone(), &mut built_rng).unwrap();
        for cut in [usize::MAX, 1, 7, 64] {
            let mut rng = StdRng::seed_from_u64(11);
            let draft = OpessPlan::draft(&values, key.clone(), &mut rng).unwrap();
            assert!(draft.displaced().windows(2).all(|w| w[0] < w[1]));
            let runs: Vec<Vec<u128>> = draft
                .displaced()
                .chunks(cut.min(draft.displaced().len()))
                .map(|run| draft.ope().encrypt_many(run))
                .collect();
            let plan = draft.finish(runs.into_iter().flatten());
            assert_eq!(plan.m(), built.m());
            assert_eq!(plan.delta(), built.delta());
            assert_eq!(plan.weight_prefix(), built.weight_prefix());
            assert_eq!(
                format!("{:?}", plan.entries()),
                format!("{:?}", built.entries())
            );
            assert_eq!(rng.next_u64(), built_rng.clone().next_u64(), "cut {cut}");
        }
    }

    #[test]
    fn single_value_domain() {
        let p = plan(&[(42.0, 10)]);
        assert_eq!(p.entries().len(), 1);
        let r = p.translate(RangeOp::Eq, 42.0);
        for c in &p.entries()[0].chunks {
            assert!(r.contains(c.ciphertext));
        }
    }
}
