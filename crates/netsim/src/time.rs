//! Simulation time units.
//!
//! Everything in the simulator runs in **picoseconds** as plain `u64`: the
//! paper buckets IAT deltas at ±10 ns, and a ~3 GHz TSC ticks every
//! ~333 ps, so nanoseconds are too coarse and floats too lossy. A `u64` of
//! picoseconds covers ~213 days — far beyond any experiment.

/// One nanosecond, in picoseconds.
pub const NS: u64 = 1_000;
/// One microsecond, in picoseconds.
pub const US: u64 = 1_000_000;
/// One millisecond, in picoseconds.
pub const MS: u64 = 1_000_000_000;
/// One second, in picoseconds.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_relations() {
        assert_eq!(NS * 1_000, US);
        assert_eq!(US * 1_000, MS);
        assert_eq!(MS * 1_000, PS_PER_SEC);
    }
}
