//! `U` — variation in uniqueness (paper Eq. 1).
//!
//! ```text
//! U_AB = 1 − 2·|A ∩ B| / (|A| + |B|)
//! ```
//!
//! Missing packets (drops), extra packets (duplication, corruption that
//! changes identity) all reduce the overlap. The paper's worked example: A
//! has 10 packets, B drops one → `U = 1/19`.

use super::matching::Matching;

/// Eq. 1 on raw counts: `1 − 2·common / total` with `total = |A| + |B|`,
/// and 0 for two empty trials (they are identical). The one statement of
/// the U formula: the batch kernels reach it through
/// [`uniqueness_core`], the streaming engine calls it on its running
/// totals.
pub(crate) fn normalize_u(common: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    1.0 - (2.0 * common as f64) / total as f64
}

/// `U` of a matching — shared by both [`super::pair::PairAnalyzer`]
/// pipelines.
pub(crate) fn uniqueness_core(m: &Matching) -> f64 {
    normalize_u(m.common(), m.a_len + m.b_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::trial::Trial;

    fn u_of(a: &Trial, b: &Trial) -> f64 {
        crate::metrics::compare(a, b).u
    }

    fn trial(seqs: &[u64]) -> Trial {
        let mut t = Trial::new();
        for (i, &s) in seqs.iter().enumerate() {
            t.push_tagged(0, 0, s, i as u64);
        }
        t
    }

    #[test]
    fn paper_worked_example_one_drop_in_ten() {
        // §3: "let A be a trial of 10 packets. During trial B, one packet
        // is dropped, and U = (10 + 9 − 2×9)/(10+9) = 1/19".
        let a = trial(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let b = trial(&[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        let u = u_of(&a, &b);
        assert!((u - 1.0 / 19.0).abs() < 1e-15, "got {u}");
    }

    #[test]
    fn identical_is_zero() {
        let a = trial(&[1, 2, 3]);
        assert_eq!(u_of(&a, &a.clone()), 0.0);
    }

    #[test]
    fn disjoint_is_one() {
        let a = trial(&[0, 1, 2]);
        let b = trial(&[10, 11, 12]);
        assert_eq!(u_of(&a, &b), 1.0);
    }

    #[test]
    fn symmetric() {
        let a = trial(&[0, 1, 2, 3, 4]);
        let b = trial(&[0, 2, 4, 6]);
        assert_eq!(u_of(&a, &b), u_of(&b, &a));
    }

    #[test]
    fn empty_vs_empty_is_zero() {
        assert_eq!(u_of(&Trial::new(), &Trial::new()), 0.0);
    }

    #[test]
    fn empty_vs_nonempty_is_one() {
        let a = trial(&[1]);
        assert_eq!(u_of(&a, &Trial::new()), 1.0);
    }

    #[test]
    fn reordering_does_not_affect_u() {
        let a = trial(&[0, 1, 2, 3]);
        let b = trial(&[3, 2, 1, 0]);
        assert_eq!(u_of(&a, &b), 0.0);
    }

    #[test]
    fn duplicates_count_as_extra() {
        // B duplicates one packet: |A∩B| = 2, |A| = 2, |B| = 3.
        let a = trial(&[0, 1]);
        let mut b = trial(&[0, 1]);
        b.push_tagged(0, 0, 1, 99);
        let u = u_of(&a, &b);
        assert!((u - (1.0 - 4.0 / 5.0)).abs() < 1e-15);
    }

    #[test]
    fn paper_noisy_run_magnitude() {
        // §7.1: 1,230 drops out of 1,053,824 -> U = 5.84e-4. Check our
        // formula reproduces the paper's number.
        let total = 1_053_824usize;
        let drops = 1_230usize;
        let u = normalize_u(total - drops, total + (total - drops));
        assert!((u - 5.84e-4).abs() < 5e-6, "got {u}");
    }
}
