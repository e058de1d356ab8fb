//! Closed-form false-rate analysis for Bloom filters and filter arrays.
//!
//! Implements the formulas the paper leans on:
//!
//! * the textbook false-positive probability `f₀ = (1 − e^{−kn/m})^k` and
//!   its optimum `(0.6185)^{m/n}` at `k = (m/n)·ln 2` (Broder &
//!   Mitzenmacher, cited as \[30\]);
//! * Equation (1): the probability `f⁺_g` that a **segment** Bloom filter
//!   array of `θ` replicas returns a *false unique hit*.

/// `ln 2`, the constant relating bits-per-item to the optimal hash count.
pub const LN2: f64 = core::f64::consts::LN_2;

/// The base of the optimal false-positive rate: `0.5^{ln 2} ≈ 0.6185`.
///
/// The paper writes the optimum as `0.6185^{m/n}`.
pub const OPTIMAL_BASE: f64 = 0.618_503_137_645_726_6;

/// Optimal number of hash functions for a given bits-per-item ratio:
/// `k = (m/n)·ln 2`, rounded to the nearest integer, at least 1.
///
/// # Panics
///
/// Panics if `bits_per_item` is not finite and positive.
#[must_use]
pub fn optimal_hash_count(bits_per_item: f64) -> u32 {
    assert!(
        bits_per_item.is_finite() && bits_per_item > 0.0,
        "bits_per_item must be positive and finite"
    );
    ((bits_per_item * LN2).round() as u32).max(1)
}

/// Textbook false-positive probability `(1 − e^{−kn/m})^k` for a filter of
/// `m` bits holding `n` items under `k` hashes.
///
/// Returns 0 for an empty filter and 1 for a degenerate zero-bit geometry.
#[must_use]
pub fn standard_fpp(m: usize, n: usize, k: u32) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if m == 0 {
        return 1.0;
    }
    let exponent = -(f64::from(k) * n as f64) / m as f64;
    (1.0 - exponent.exp()).powi(k as i32)
}

/// Optimal false-positive probability `0.6185^{m/n}` achieved at the optimal
/// hash count. This is the `f₀` of Equation (1).
#[must_use]
pub fn optimal_fpp(bits_per_item: f64) -> f64 {
    if bits_per_item <= 0.0 {
        return 1.0;
    }
    OPTIMAL_BASE.powf(bits_per_item)
}

/// Equation (1) of the paper: the probability that a segment Bloom filter
/// array holding `theta` replicas produces a **false unique hit** — exactly
/// one replica answers positively, and wrongly:
///
/// `f⁺_g = θ · f₀ · (1 − f₀)^{θ−1}`
/// with `f₀ = 0.6185^{m/n}`.
///
/// Returns 0 when `theta == 0` (an empty array can produce no hit at all).
#[must_use]
pub fn segment_false_hit(theta: usize, bits_per_item: f64) -> f64 {
    if theta == 0 {
        return 0.0;
    }
    let f0 = optimal_fpp(bits_per_item);
    theta as f64 * f0 * (1.0 - f0).powi(theta as i32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_hash_count_known_values() {
        assert_eq!(optimal_hash_count(8.0), 6); // 5.545 → 6
        assert_eq!(optimal_hash_count(10.0), 7); // 6.931 → 7
        assert_eq!(optimal_hash_count(16.0), 11); // 11.09 → 11
        assert_eq!(optimal_hash_count(1.0), 1); // 0.693 → 1 (floor at 1)
        assert_eq!(optimal_hash_count(0.1), 1);
    }

    #[test]
    fn standard_fpp_matches_textbook_point() {
        // m/n = 8, k = 6: (1 − e^{−6/8})^6 ≈ 0.0216
        let fpp = standard_fpp(8_000, 1_000, 6);
        assert!((fpp - 0.0216).abs() < 0.001, "got {fpp}");
    }

    #[test]
    fn standard_fpp_edges() {
        assert_eq!(standard_fpp(100, 0, 4), 0.0);
        assert_eq!(standard_fpp(0, 10, 4), 1.0);
        assert!(standard_fpp(8, 1_000_000, 4) > 0.999);
    }

    #[test]
    fn optimal_fpp_is_lower_bound_of_standard() {
        for bits_per_item in [4.0, 8.0, 12.0, 16.0] {
            let k = optimal_hash_count(bits_per_item);
            let n = 10_000usize;
            let m = (n as f64 * bits_per_item) as usize;
            let std = standard_fpp(m, n, k);
            let opt = optimal_fpp(bits_per_item);
            // Standard with rounded-k is ≥ the ideal real-k optimum (small
            // tolerance for the rounding of k).
            assert!(std >= opt * 0.85, "std {std} vs opt {opt}");
        }
    }

    #[test]
    fn optimal_fpp_8_bits_is_about_2_percent() {
        let f = optimal_fpp(8.0);
        assert!((f - 0.0216).abs() < 0.002, "got {f}");
    }

    #[test]
    fn segment_false_hit_eq1_shape() {
        // f+g grows with θ for small θ (more chances of a lone false hit)…
        let small = segment_false_hit(1, 16.0);
        let larger = segment_false_hit(8, 16.0);
        assert!(larger > small);
        // …but the (1−f0)^{θ−1} term eventually wins when f0 is large.
        let f_peak = segment_false_hit(40, 2.0);
        let f_past = segment_false_hit(400, 2.0);
        assert!(f_past < f_peak);
    }

    #[test]
    fn segment_false_hit_zero_theta() {
        assert_eq!(segment_false_hit(0, 8.0), 0.0);
    }

    #[test]
    fn increasing_bits_per_item_reduces_false_hits() {
        let loose = segment_false_hit(10, 8.0);
        let tight = segment_false_hit(10, 16.0);
        assert!(tight < loose);
    }
}
