//! `O` — variation in packet ordering (paper Eq. 2).
//!
//! The Longest Common Subsequence of two trials over *unique* packets is
//! the Longest Increasing Subsequence of A-positions taken in B order
//! (Schensted, as the paper cites), computable in O(n log n) by patience
//! sorting. Packets outside the LCS are the "moved" packets of the minimum
//! edit script transforming B into A; each contributes its move distance
//! `d_i`, and
//!
//! ```text
//! O_AB = Σ d_i / Σ_{n=0}^{|A∩B|} n
//! ```
//!
//! where the denominator (`m(m+1)/2`) is the paper's proven maximum — the
//! cost of reversing the sequence.
//!
//! Positions are *ranks within the common subset*: inconsistencies in
//! packet presence are U's job, so O "focuses just on inconsistencies in
//! the overlap" (§3).

use super::matching::Matching;
use super::stats::Summary;

/// Outcome of the ordering analysis.
#[derive(Debug, Clone)]
pub(crate) struct OrderingResult {
    /// The normalized ordering metric in `[0, 1]`.
    pub o: f64,
    /// Length of the LCS (packets that did not move). Read only by this
    /// module's tests, which pin the LIS itself rather than just O.
    #[cfg_attr(not(test), allow(dead_code))]
    pub lcs_len: usize,
    /// Signed displacements (`a_rank − b_rank`) of every moved packet —
    /// the edit-script distances Table 1 summarizes.
    pub displacements: Vec<i64>,
}

impl OrderingResult {
    /// Number of packets in the edit script (moved packets).
    pub fn moved(&self) -> usize {
        self.displacements.len()
    }

    /// Table 1 statistics over the edit-script distances.
    pub fn stats(&self) -> EditScriptStats {
        EditScriptStats::from_displacements(&self.displacements)
    }
}

/// Statistics of edit-script move distances, as reported in the paper's
/// Table 1 ("Distances packets were moved in the edit scripts").
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EditScriptStats {
    /// Number of moved packets.
    pub count: usize,
    /// Mean signed distance.
    pub mean: f64,
    /// Standard deviation of signed distance.
    pub stddev: f64,
    /// Mean absolute distance.
    pub abs_mean: f64,
    /// Standard deviation of absolute distance.
    pub abs_stddev: f64,
    /// Minimum signed distance.
    pub min: i64,
    /// Maximum signed distance.
    pub max: i64,
}

impl EditScriptStats {
    /// Summarize a displacement list; all-zero stats for an empty one.
    pub fn from_displacements(d: &[i64]) -> Self {
        if d.is_empty() {
            return EditScriptStats {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                abs_mean: 0.0,
                abs_stddev: 0.0,
                min: 0,
                max: 0,
            };
        }
        let signed = Summary::of(d.iter().map(|&x| x as f64));
        let abs = Summary::of(d.iter().map(|&x| (x.abs()) as f64));
        EditScriptStats {
            count: d.len(),
            mean: signed.mean,
            stddev: signed.stddev,
            abs_mean: abs.mean,
            abs_stddev: abs.stddev,
            min: *d.iter().min().unwrap(),
            max: *d.iter().max().unwrap(),
        }
    }
}

/// Eq. 2's normalizer: total move distance over `Σ_{n=0}^{mc} n`, the
/// cost of reversing `mc` common packets. Fewer than two common packets
/// cannot be out of order, so O is exactly 0 there. The one statement of
/// the rule: both ordering kernels and the streaming engine call it.
pub(crate) fn normalize_o(move_distance: u128, mc: usize) -> f64 {
    if mc <= 1 {
        return 0.0;
    }
    let denom = (mc as u128 * (mc as u128 + 1)) / 2;
    move_distance as f64 / denom as f64
}

/// The reference ordering kernel, behind
/// [`super::pair::PairAnalyzer::new`] and the block kernel below. It
/// only reads `m.common()` and the pairs' relative positions, so a
/// synthetic [`Matching`] assembled from streamed matches reproduces the
/// batch result bit-for-bit.
pub(crate) fn ordering_core(m: &Matching) -> OrderingResult {
    let mc = m.common();
    if mc <= 1 {
        return OrderingResult {
            o: normalize_o(0, mc),
            lcs_len: mc,
            displacements: Vec::new(),
        };
    }

    // Rank the matched A-positions: pairs are in B order, so `seq[k]` is
    // the A-rank of the k-th common packet in B. The result is a
    // permutation of 0..mc.
    let mut order: Vec<u32> = (0..mc as u32).collect();
    order.sort_unstable_by_key(|&k| m.pairs[k as usize].a_idx);
    let mut seq = vec![0u32; mc];
    for (a_rank, &k) in order.iter().enumerate() {
        seq[k as usize] = a_rank as u32;
    }

    let in_lis = lis_membership(&seq);
    let lcs_len = in_lis.iter().filter(|&&b| b).count();

    let mut displacements = Vec::with_capacity(mc - lcs_len);
    let mut num: u128 = 0;
    for (b_rank, (&a_rank, &kept)) in seq.iter().zip(in_lis.iter()).enumerate() {
        if !kept {
            let d = a_rank as i64 - b_rank as i64;
            displacements.push(d);
            num += d.unsigned_abs() as u128;
        }
    }

    OrderingResult {
        o: normalize_o(num, mc),
        lcs_len,
        displacements,
    }
}

/// Total edit-script move distance of one block: a run of matched
/// `(a_pos, b_pos)` pairs in any order, of which only the relative order
/// is read, so the same code scores a whole stream's pairs or a snapshot
/// slice. The pairs are put in B arrival order (`b_pos` is unique per
/// stream, so the sort is deterministic) and scored by the reference LIS
/// kernel.
pub(crate) fn block_move_distance(mut pairs: Vec<(u32, u32)>) -> u128 {
    if pairs.len() <= 1 {
        return 0;
    }
    pairs.sort_unstable_by_key(|p| p.1);
    let m = Matching {
        a_len: pairs.len(),
        b_len: pairs.len(),
        pairs: pairs
            .into_iter()
            .map(|(a, b)| super::matching::MatchedPair {
                a_idx: a as usize,
                b_idx: b as usize,
            })
            .collect(),
    };
    ordering_core(&m)
        .displacements
        .iter()
        .map(|d| d.unsigned_abs() as u128)
        .sum()
}

/// Reusable workspace for `ordering_arena`: the rank keys, the rank
/// permutation, the Fenwick tree, the traceback parents, and the
/// membership mask. Cleared and resized per pair, so a worker analyzing
/// thousands of pairs allocates these once at steady state.
#[derive(Debug, Default)]
pub struct OrderScratch {
    keys: Vec<u64>,
    seq: Vec<u32>,
    tree: Vec<(u32, u64, u32)>,
    parent: Vec<u32>,
    member: Vec<bool>,
}

/// Scratch-backed ordering kernel — bit-identical to [`ordering_core`].
///
/// Two mechanical changes, no arithmetic ones: (1) the A-rank sort runs
/// over packed `(a_idx << 32) | b_rank` keys in one flat `u64` sort —
/// `a_idx` is unique within a matching, so the composite order equals the
/// reference's sort-by-`a_idx`; (2) the Fenwick tree, parents, and
/// membership mask live in the caller's [`OrderScratch`] instead of fresh
/// allocations, with the tuple index narrowed to `u32` (valid since
/// `mc ≤ u32::MAX`; the index never participates in a comparison). The
/// query/update/best tie-break rules are copied verbatim from
/// `lis_membership`, so the selected subsequence — not just its length —
/// is identical.
///
/// A replay that kept its order leaves before any of that: pairs are in
/// B order, so `a_idx` strictly increasing along them (vacuously so for
/// fewer than two) makes `seq` the identity permutation, whose only
/// maximal increasing subsequence is all of it — no moved packet, an
/// empty edit script. One linear scan says so (and stops at the first
/// inversion of a reordered pair). A
/// partly ordered pair is not split into blocks: tie-equal LISes could
/// pick different displacement lists than the whole-sequence kernel.
pub(crate) fn ordering_arena(m: &Matching, s: &mut OrderScratch) -> OrderingResult {
    let mc = m.common();
    if m.pairs.windows(2).all(|w| w[0].a_idx < w[1].a_idx) {
        return OrderingResult {
            o: normalize_o(0, mc),
            lcs_len: mc,
            displacements: Vec::new(),
        };
    }
    let OrderScratch { keys, seq, tree, parent, member } = s;

    keys.clear();
    keys.reserve(mc);
    for (k, p) in m.pairs.iter().enumerate() {
        keys.push(((p.a_idx as u64) << 32) | k as u64);
    }
    keys.sort_unstable();
    seq.clear();
    seq.resize(mc, 0);
    for (a_rank, &key) in keys.iter().enumerate() {
        seq[(key & 0xFFFF_FFFF) as usize] = a_rank as u32;
    }

    const EMPTY: (u32, u64, u32) = (0, 0, u32::MAX);
    tree.clear();
    tree.resize(mc + 1, EMPTY);
    parent.clear();
    parent.resize(mc, u32::MAX);
    member.clear();
    member.resize(mc, false);

    let mut best = EMPTY;
    for (i, &v) in seq.iter().enumerate() {
        let w = (v as i64 - i as i64).unsigned_abs();
        let mut pred = EMPTY;
        let mut t = v as usize;
        while t > 0 {
            if tree[t].0 > pred.0 || (tree[t].0 == pred.0 && tree[t].1 > pred.1) {
                pred = tree[t];
            }
            t &= t - 1;
        }
        let len = pred.0 + 1;
        let weight = pred.1 + w;
        parent[i] = pred.2;
        let val = (len, weight, i as u32);
        let mut t = v as usize + 1;
        while t <= mc {
            if val.0 > tree[t].0 || (val.0 == tree[t].0 && val.1 > tree[t].1) {
                tree[t] = val;
            }
            t += t & t.wrapping_neg();
        }
        if len > best.0 || (len == best.0 && weight > best.1) {
            best = val;
        }
    }

    let mut cur = best.2;
    while cur != u32::MAX {
        member[cur as usize] = true;
        cur = parent[cur as usize];
    }
    let lcs_len = member.iter().filter(|&&b| b).count();
    debug_assert_eq!(lcs_len as u32, best.0, "traceback length mismatch");

    let mut displacements = Vec::with_capacity(mc - lcs_len);
    let mut num: u128 = 0;
    for (b_rank, (&a_rank, &kept)) in seq.iter().zip(member.iter()).enumerate() {
        if !kept {
            let d = a_rank as i64 - b_rank as i64;
            displacements.push(d);
            num += d.unsigned_abs() as u128;
        }
    }

    OrderingResult {
        o: normalize_o(num, mc),
        lcs_len,
        displacements,
    }
}

/// Membership mask of the *minimum-move-distance* maximal increasing
/// subsequence of a permutation.
///
/// Among all LISes of maximal length, this picks one whose members carry
/// the greatest total displacement `|seq[i] − i|` — equivalently, whose
/// edit script moves the least total distance. Besides matching the
/// paper's "minimum edit script" reading, this makes the O metric exactly
/// symmetric (`O_AB = O_BA`): inverting the permutation maps increasing
/// subsequences to increasing subsequences and preserves per-element
/// displacement, so the optimal kept weight — and hence the moved-distance
/// sum — is identical in both directions.
///
/// O(n log n) via a Fenwick tree keyed on value, holding prefix maxima of
/// `(length, kept_weight, index)`.
fn lis_membership(seq: &[u32]) -> Vec<bool> {
    let n = seq.len();
    let mut member = vec![false; n];
    if n == 0 {
        return member;
    }

    // Fenwick tree over values 1..=n with lexicographic-max merge of
    // (len, weight, idx). idx carries the chain head for traceback.
    const EMPTY: (u32, u64, usize) = (0, 0, usize::MAX);
    let mut tree = vec![EMPTY; n + 1];
    let query = |tree: &[(u32, u64, usize)], mut i: usize| {
        let mut best = EMPTY;
        while i > 0 {
            if tree[i].0 > best.0 || (tree[i].0 == best.0 && tree[i].1 > best.1) {
                best = tree[i];
            }
            i &= i - 1;
        }
        best
    };
    let update = |tree: &mut [(u32, u64, usize)], mut i: usize, val: (u32, u64, usize)| {
        while i <= n {
            if val.0 > tree[i].0 || (val.0 == tree[i].0 && val.1 > tree[i].1) {
                tree[i] = val;
            }
            i += i & i.wrapping_neg();
        }
    };

    let mut parent = vec![usize::MAX; n];
    let mut best = EMPTY;
    for (i, &v) in seq.iter().enumerate() {
        let w = (v as i64 - i as i64).unsigned_abs();
        let pred = query(&tree, v as usize); // prefix over values < v
        let len = pred.0 + 1;
        let weight = pred.1 + w;
        parent[i] = pred.2;
        update(&mut tree, v as usize + 1, (len, weight, i));
        if len > best.0 || (len == best.0 && weight > best.1) {
            best = (len, weight, i);
        }
    }

    let mut cur = best.2;
    while cur != usize::MAX {
        member[cur] = true;
        cur = parent[cur];
    }
    debug_assert_eq!(
        member.iter().filter(|&&b| b).count() as u32,
        best.0,
        "traceback length mismatch"
    );
    member
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::trial::Trial;

    fn o_of(a: &Trial, b: &Trial) -> OrderingResult {
        ordering_core(&Matching::build(a, b))
    }

    fn trial(seqs: &[u64]) -> Trial {
        let mut t = Trial::new();
        for (i, &s) in seqs.iter().enumerate() {
            t.push_tagged(0, 0, s, i as u64 * 100);
        }
        t
    }

    /// O(n^2) reference LIS length.
    fn lis_len_reference(seq: &[u32]) -> usize {
        if seq.is_empty() {
            return 0;
        }
        let mut best = vec![1usize; seq.len()];
        for i in 1..seq.len() {
            for j in 0..i {
                if seq[j] < seq[i] {
                    best[i] = best[i].max(best[j] + 1);
                }
            }
        }
        *best.iter().max().unwrap()
    }

    #[test]
    fn identical_order_zero() {
        let a = trial(&[0, 1, 2, 3, 4]);
        let r = o_of(&a, &a.clone());
        assert_eq!(r.o, 0.0);
        assert_eq!(r.lcs_len, 5);
        assert!(r.displacements.is_empty());
    }

    #[test]
    fn single_swap() {
        let a = trial(&[0, 1, 2, 3]);
        let b = trial(&[0, 2, 1, 3]);
        let r = o_of(&a, &b);
        // LIS keeps 3 of 4; one packet moved distance 1.
        assert_eq!(r.lcs_len, 3);
        assert_eq!(r.moved(), 1);
        assert_eq!(r.displacements[0].abs(), 1);
        let denom = 4.0 * 5.0 / 2.0;
        assert!((r.o - 1.0 / denom).abs() < 1e-12);
    }

    #[test]
    fn reversal_is_near_max() {
        let n = 100u64;
        let a = trial(&(0..n).collect::<Vec<_>>());
        let fwd: Vec<u64> = (0..n).collect();
        let rev: Vec<u64> = fwd.iter().rev().copied().collect();
        let b = trial(&rev);
        let r = o_of(&a, &b);
        assert_eq!(r.lcs_len, 1);
        // Reversal cost: sum |2i - (n-1)| = n^2/2 for even n, minus the
        // one LIS-kept element's displacement (n-1); normalizer n(n+1)/2 —
        // so O is close to, but below, 1.
        let expected = (n * n / 2 - (n - 1)) as f64 / ((n * (n + 1)) / 2) as f64;
        assert!((r.o - expected).abs() < 1e-12, "got {}", r.o);
        assert!(r.o <= 1.0);
        assert!(r.o > 0.9);
    }

    #[test]
    fn extra_packets_in_b_do_not_inflate_o() {
        // B carries 3 leading packets unknown to A; the common packets are
        // in identical order, so O must be 0 (that inconsistency is U's).
        let a = trial(&[10, 11, 12, 13]);
        let b = trial(&[90, 91, 92, 10, 11, 12, 13]);
        let r = o_of(&a, &b);
        assert_eq!(r.o, 0.0);
        assert_eq!(r.lcs_len, 4);
    }

    #[test]
    fn burst_interleave_moves_whole_bursts() {
        // Dual-replayer §6.2 shape: A = r0 burst then r1 burst; in B the
        // bursts swap. Packets move as whole blocks of equal distance.
        let a = trial(&[0, 1, 2, 3, 100, 101, 102, 103]);
        let b = trial(&[100, 101, 102, 103, 0, 1, 2, 3]);
        let r = o_of(&a, &b);
        assert_eq!(r.moved(), 4);
        // All moved packets share the same |distance| = 4.
        assert!(r.displacements.iter().all(|d| d.abs() == 4));
    }

    #[test]
    fn symmetric_in_o_value() {
        let a = trial(&[0, 1, 2, 3, 4, 5]);
        let b = trial(&[2, 0, 5, 1, 4, 3]);
        let rab = o_of(&a, &b);
        let rba = o_of(&b, &a);
        assert!((rab.o - rba.o).abs() < 1e-12);
    }

    #[test]
    fn tiny_inputs() {
        assert_eq!(o_of(&Trial::new(), &Trial::new()).o, 0.0);
        let one = trial(&[5]);
        assert_eq!(o_of(&one, &one.clone()).o, 0.0);
        let two_a = trial(&[1, 2]);
        let two_b = trial(&[2, 1]);
        let r = o_of(&two_a, &two_b);
        assert!(r.o > 0.0);
    }

    #[test]
    fn lis_membership_matches_reference_lengths() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![1, 0],
            vec![0, 1, 2, 3],
            vec![3, 2, 1, 0],
            vec![2, 0, 1, 4, 3],
            vec![5, 0, 3, 1, 4, 2, 6],
            vec![1, 3, 0, 2, 5, 4, 7, 6],
        ];
        for seq in cases {
            let member = lis_membership(&seq);
            let len = member.iter().filter(|&&b| b).count();
            assert_eq!(len, lis_len_reference(&seq), "seq {seq:?}");
            // Membership must actually be increasing.
            let kept: Vec<u32> = seq
                .iter()
                .zip(&member)
                .filter(|(_, &m)| m)
                .map(|(&v, _)| v)
                .collect();
            assert!(kept.windows(2).all(|w| w[0] < w[1]), "kept {kept:?}");
        }
    }

    #[test]
    fn edit_stats_empty() {
        let s = EditScriptStats::from_displacements(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0);
    }

    #[test]
    fn edit_stats_values() {
        let s = EditScriptStats::from_displacements(&[-2, 2, 4]);
        assert_eq!(s.count, 3);
        assert!((s.mean - 4.0 / 3.0).abs() < 1e-12);
        assert!((s.abs_mean - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min, -2);
        assert_eq!(s.max, 4);
        assert!(s.stddev > 0.0);
    }

    #[test]
    fn o_bounded_by_one_for_adversarial_permutations() {
        // Several structured permutations; O must stay in [0, 1].
        let n = 64u64;
        let a: Vec<u64> = (0..n).collect();
        let perms: Vec<Vec<u64>> = vec![
            a.iter().rev().copied().collect(),
            // Interleave halves.
            (0..n / 2).flat_map(|i| [i, i + n / 2]).collect(),
            // Rotate by one.
            (1..n).chain(0..1).collect(),
        ];
        let ta = trial(&a);
        for p in perms {
            let r = o_of(&ta, &trial(&p));
            assert!(r.o >= 0.0 && r.o <= 1.0, "O={} for {p:?}", r.o);
        }
    }
}
