//! Modular-hash replica placement — the reconfiguration baseline of
//! Figure 11.
//!
//! §2.4 of the paper explains why G-HBA tracks replica location with an
//! IDBFA instead of hashing: under `target = hash(origin) mod M′`, a
//! membership change re-computes every placement, and each replica whose
//! target moved must migrate. This module reproduces that behaviour so the
//! bench can draw the hash-placement curves.

use ghba_bloom::hash::hash_one;
use ghba_core::MdsId;

/// Modular-hash placement over an ordered member list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashPlacement {
    members: Vec<MdsId>,
    seed: u64,
}

impl HashPlacement {
    /// Creates a placement over `members` keyed by `seed` (different
    /// seeds model the placement layouts different workloads induce).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    #[must_use]
    pub fn new(members: Vec<MdsId>, seed: u64) -> Self {
        assert!(!members.is_empty(), "placement needs at least one member");
        HashPlacement { members, seed }
    }

    /// The member that holds `origin`'s replica: `members[h(origin) mod
    /// M′]`.
    #[must_use]
    pub fn target_of(&self, origin: MdsId) -> MdsId {
        let idx = hash_one(&origin.0, self.seed) as usize % self.members.len();
        self.members[idx]
    }

    /// Adds a member, returning how many of `origins`' replicas must
    /// migrate because their modular target changed.
    pub fn join_and_count_migrations(&mut self, newcomer: MdsId, origins: &[MdsId]) -> usize {
        let before: Vec<MdsId> = origins.iter().map(|&o| self.target_of(o)).collect();
        self.members.push(newcomer);
        origins
            .iter()
            .zip(before)
            .filter(|&(&origin, old)| self.target_of(origin) != old)
            .count()
    }
}

/// Expected number of replica migrations when one MDS joins a system of
/// `n` servers organized in groups of `m_prime`, under modular hashing:
/// each of the `n − m_prime` replicas in the joined group re-hashes from
/// `mod M′` to `mod (M′+1)` and moves with probability `M′/(M′+1)`.
#[must_use]
pub fn expected_hash_migrations(n: usize, m_prime: usize) -> f64 {
    if n <= m_prime || m_prime == 0 {
        return 0.0;
    }
    let replicas = (n - m_prime) as f64;
    replicas * (m_prime as f64 / (m_prime + 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u16>) -> Vec<MdsId> {
        range.map(MdsId).collect()
    }

    #[test]
    fn targets_are_members_and_deterministic() {
        let placement = HashPlacement::new(ids(0..5), 7);
        for origin in ids(10..60) {
            let t = placement.target_of(origin);
            assert!(placement.members.contains(&t));
            assert_eq!(t, placement.target_of(origin));
        }
    }

    #[test]
    fn targets_are_roughly_balanced() {
        let placement = HashPlacement::new(ids(0..5), 7);
        let mut counts = [0u32; 5];
        for origin in ids(100..1100) {
            counts[placement.target_of(origin).0 as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((150..250).contains(&c), "member {i}: {c}");
        }
    }

    #[test]
    fn join_migrations_match_modular_expectation() {
        // M′ = 4 → 5: a replica stays only if h mod 4 == h mod 5 at the
        // same member; expected moved fraction ≈ 4/5.
        let mut placement = HashPlacement::new(ids(0..4), 3);
        let origins = ids(100..1100);
        let moved = placement.join_and_count_migrations(MdsId(4), &origins);
        let fraction = moved as f64 / origins.len() as f64;
        assert!((0.7..0.9).contains(&fraction), "moved fraction {fraction}");
    }

    #[test]
    fn join_migrations_exceed_ghba_share() {
        // The Figure 11 ordering: hash placement moves ~M′/(M′+1) of all
        // replicas, G-HBA only 1/(M′+1) of them.
        let mut placement = HashPlacement::new(ids(0..6), 1);
        let origins = ids(100..200);
        let hash_moved = placement.join_and_count_migrations(MdsId(6), &origins);
        let ghba_moved = origins.len() / 7; // (N−M′)/(M′+1)
        assert!(hash_moved > ghba_moved * 3, "{hash_moved} vs {ghba_moved}");
    }

    #[test]
    fn expected_formula_matches_simulation() {
        let n = 60;
        let m_prime = 5;
        let expected = expected_hash_migrations(n, m_prime);
        let mut placement = HashPlacement::new(ids(0..m_prime as u16), 11);
        let origins: Vec<MdsId> = (1000..1000 + (n - m_prime) as u16).map(MdsId).collect();
        let moved = placement.join_and_count_migrations(MdsId(99), &origins) as f64;
        assert!(
            (moved - expected).abs() / expected < 0.25,
            "simulated {moved} vs expected {expected}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(expected_hash_migrations(5, 5), 0.0);
        assert_eq!(expected_hash_migrations(5, 0), 0.0);
    }
}
