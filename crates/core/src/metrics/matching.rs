//! Matching common packets between two trials.
//!
//! Paper §3: packets are "the same" when their identity-defining regions
//! are identical; identical packets are disambiguated by occurrence ("they
//! can be tagged with their occurrence — so 0 for the first, 1 for the
//! second, and so on"). [`Matching`] implements that: the k-th occurrence
//! of an identity in A is paired with the k-th occurrence in B, yielding
//! the multiset intersection `A ∩ B` that Eqs. 1–4 all reference.

use std::collections::HashMap;

use choir_packet::ident::PacketId;

use super::allpairs::TrialIndex;
use super::trial::Trial;

/// One common packet: its position in each trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchedPair {
    /// Index of the packet in trial A.
    pub a_idx: usize,
    /// Index of the packet in trial B.
    pub b_idx: usize,
}

/// The occurrence-wise matching between two trials.
#[derive(Debug, Clone)]
pub struct Matching {
    /// Matched pairs, ordered by ascending `b_idx` (B's arrival order).
    pub pairs: Vec<MatchedPair>,
    /// `|A|`.
    pub a_len: usize,
    /// `|B|`.
    pub b_len: usize,
}

impl Matching {
    /// Match trials occurrence-by-occurrence.
    ///
    /// Runs in O(|A| + |B|) expected time (one hash map over A, one pass
    /// over B).
    pub fn build(a: &Trial, b: &Trial) -> Matching {
        // Identity -> queue of indices in A, consumed front-to-back so the
        // k-th occurrence in B pairs with the k-th in A.
        let mut a_positions: HashMap<PacketId, smallqueue::SmallQueue> =
            HashMap::with_capacity(a.len());
        for (i, o) in a.observations().iter().enumerate() {
            a_positions.entry(o.id).or_default().push(i);
        }
        let mut pairs = Vec::with_capacity(a.len().min(b.len()));
        for (j, o) in b.observations().iter().enumerate() {
            if let Some(q) = a_positions.get_mut(&o.id) {
                if let Some(i) = q.pop() {
                    pairs.push(MatchedPair { a_idx: i, b_idx: j });
                }
            }
        }
        Matching {
            pairs,
            a_len: a.len(),
            b_len: b.len(),
        }
    }

    /// `|A ∩ B|` — the number of common packets.
    pub fn common(&self) -> usize {
        self.pairs.len()
    }

    /// Packets of A that have no partner in B (dropped on the B run).
    pub fn missing_in_b(&self) -> usize {
        self.a_len - self.common()
    }

    /// Packets of B that have no partner in A (extra/corrupted in B).
    pub fn extra_in_b(&self) -> usize {
        self.b_len - self.common()
    }
}

/// Occurrence-wise matching streamed from two prebuilt indexes —
/// bit-identical to [`Matching::build`] on the underlying trials.
///
/// The reference consumes per-identity queues front to back; here the
/// queue state is implicit: B's k-th occurrence of an identity (its
/// occurrence rank, [`TrialIndex::occ`]) pairs with A's k-th occurrence
/// ([`TrialIndex::occurrence`]), so the whole scan is one lookup per B
/// packet — no per-pair allocation at all. How a lookup works is the
/// index's business: a table probe when A has an arena, a galloping
/// search from the hint when A's identities strictly increase (O(1) for
/// a replay that kept its order or reversed it, O(log n) for a packet
/// from anywhere).
///
/// A replay that kept its order skips even the lookup. When every
/// identity of A is unique, a B packet of occurrence rank 0 can only pair
/// with the one A position holding its identity, so if the A observation
/// right after the last match (`hint`) holds it, that position *is* the
/// pair the lookup would return. A drop, an extra or a block boundary
/// misses the hint, looks up once, and re-seeds it. A B-side duplicate
/// (`occ > 0`) has no partner in a unique A and must not take the hint:
/// the rank guard decides, as the lookup does.
///
/// `pairs` is the caller's buffer (cleared here), so a worker's matching
/// lives in its [`super::pair::PairScratch`] across pairs.
pub(crate) fn matching_arena(
    a: &TrialIndex<'_>,
    b: &TrialIndex<'_>,
    mut pairs: Vec<MatchedPair>,
) -> Matching {
    pairs.clear();
    pairs.reserve(a.len().min(b.len()));
    let a_obs = a.trial().observations();
    let unique_a = a.groups() == a.len();
    let mut hint = 0usize;
    for (j, o) in b.trial().observations().iter().enumerate() {
        let k = b.occ(j);
        if unique_a && k == 0 && a_obs.get(hint).is_some_and(|x| x.id == o.id) {
            pairs.push(MatchedPair { a_idx: hint, b_idx: j });
            hint += 1;
            continue;
        }
        if let Some(a_idx) = a.occurrence(o.id, k, hint) {
            pairs.push(MatchedPair { a_idx, b_idx: j });
            hint = a_idx + 1;
        }
    }
    Matching {
        pairs,
        a_len: a.len(),
        b_len: b.len(),
    }
}

/// A tiny queue of indices optimized for the common case of exactly one
/// occurrence per identity (no heap allocation until a duplicate appears).
mod smallqueue {
    /// Queue of `usize` holding its first element inline.
    #[derive(Debug, Default)]
    pub struct SmallQueue {
        first: Option<usize>,
        rest: Vec<usize>,
        /// Cursor into `rest` for pops (indices are pushed in order, so a
        /// cursor avoids O(n) removals).
        cursor: usize,
        first_taken: bool,
    }

    impl SmallQueue {
        /// Append an index.
        pub fn push(&mut self, v: usize) {
            if self.first.is_none() && !self.first_taken {
                self.first = Some(v);
            } else {
                self.rest.push(v);
            }
        }

        /// Remove and return the oldest index.
        pub fn pop(&mut self) -> Option<usize> {
            if let Some(v) = self.first.take() {
                self.first_taken = true;
                return Some(v);
            }
            if self.cursor < self.rest.len() {
                let v = self.rest[self.cursor];
                self.cursor += 1;
                Some(v)
            } else {
                None
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_without_allocation_for_single() {
            let mut q = SmallQueue::default();
            q.push(7);
            assert_eq!(q.rest.capacity(), 0);
            assert_eq!(q.pop(), Some(7));
            assert_eq!(q.pop(), None);
        }

        #[test]
        fn fifo_with_duplicates() {
            let mut q = SmallQueue::default();
            q.push(1);
            q.push(2);
            q.push(3);
            assert_eq!(q.pop(), Some(1));
            assert_eq!(q.pop(), Some(2));
            q.push(4);
            assert_eq!(q.pop(), Some(3));
            assert_eq!(q.pop(), Some(4));
            assert_eq!(q.pop(), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(seqs: &[u64]) -> Trial {
        let mut t = Trial::new();
        for (i, &s) in seqs.iter().enumerate() {
            t.push_tagged(0, 0, s, i as u64 * 100);
        }
        t
    }

    #[test]
    fn identical_trials_fully_match() {
        let a = trial(&[0, 1, 2, 3]);
        let m = Matching::build(&a, &a.clone());
        assert_eq!(m.common(), 4);
        assert_eq!(m.missing_in_b(), 0);
        assert_eq!(m.extra_in_b(), 0);
        for (k, p) in m.pairs.iter().enumerate() {
            assert_eq!(p.a_idx, k);
            assert_eq!(p.b_idx, k);
        }
    }

    #[test]
    fn drop_in_b_detected() {
        let a = trial(&[0, 1, 2, 3]);
        let b = trial(&[0, 1, 3]);
        let m = Matching::build(&a, &b);
        assert_eq!(m.common(), 3);
        assert_eq!(m.missing_in_b(), 1);
        assert_eq!(m.extra_in_b(), 0);
    }

    #[test]
    fn extra_in_b_detected() {
        let a = trial(&[0, 1]);
        let b = trial(&[0, 1, 9]);
        let m = Matching::build(&a, &b);
        assert_eq!(m.common(), 2);
        assert_eq!(m.extra_in_b(), 1);
    }

    #[test]
    fn reordering_pairs_by_identity() {
        let a = trial(&[0, 1, 2]);
        let b = trial(&[2, 0, 1]);
        let m = Matching::build(&a, &b);
        assert_eq!(m.common(), 3);
        // pairs ordered by b_idx; a_idx reflects the permutation.
        let a_order: Vec<usize> = m.pairs.iter().map(|p| p.a_idx).collect();
        assert_eq!(a_order, vec![2, 0, 1]);
    }

    #[test]
    fn duplicates_match_occurrence_wise() {
        // Same identity appearing twice: k-th matches k-th.
        let mut a = Trial::new();
        a.push_tagged(0, 0, 5, 0);
        a.push_tagged(0, 0, 5, 100);
        a.push_tagged(0, 0, 6, 200);
        let mut b = Trial::new();
        b.push_tagged(0, 0, 5, 0);
        b.push_tagged(0, 0, 6, 100);
        b.push_tagged(0, 0, 5, 200);
        let m = Matching::build(&a, &b);
        assert_eq!(m.common(), 3);
        // First 5 in B -> first 5 in A (idx 0); second 5 in B -> idx 1.
        assert_eq!(m.pairs[0], MatchedPair { a_idx: 0, b_idx: 0 });
        assert_eq!(m.pairs[1], MatchedPair { a_idx: 2, b_idx: 1 });
        assert_eq!(m.pairs[2], MatchedPair { a_idx: 1, b_idx: 2 });
    }

    #[test]
    fn unbalanced_duplicates() {
        // A has three copies, B has one: only one pair.
        let mut a = Trial::new();
        for i in 0..3 {
            a.push_tagged(0, 0, 7, i * 10);
        }
        let mut b = Trial::new();
        b.push_tagged(0, 0, 7, 0);
        let m = Matching::build(&a, &b);
        assert_eq!(m.common(), 1);
        assert_eq!(m.missing_in_b(), 2);
    }

    #[test]
    fn empty_inputs() {
        let e = Trial::new();
        let a = trial(&[1]);
        assert_eq!(Matching::build(&e, &e).common(), 0);
        assert_eq!(Matching::build(&a, &e).missing_in_b(), 1);
        assert_eq!(Matching::build(&e, &a).extra_in_b(), 1);
    }
}
