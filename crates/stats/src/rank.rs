//! Rank-correlation statistics.
//!
//! The paper's §5.1.4 argument — "migrating once to the greenest region
//! maximizes carbon reductions" — rests on the claim that regions'
//! carbon-intensity maintains the same *rank order* most of the time.
//! Kendall's τ between the instantaneous ranking and a reference ranking
//! is the standard way to quantify that claim.

/// Kendall's τ-a rank correlation between two aligned samples.
///
/// Counts concordant minus discordant pairs over all pairs; ties (in
/// either sample) count as neither. Returns a value in `[-1, 1]`, `None`
/// when fewer than two observations exist.
///
/// The O(n²) pair scan is deliberate: the workspace correlates across
/// ≤ 123 regions (≈ 7.5 k pairs), far below the break-even of the
/// O(n log n) merge-sort formulation.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "samples must align");
    let n = a.len();
    if n < 2 {
        return None;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let product = da * db;
            if product > 0.0 {
                concordant += 1;
            } else if product < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    Some((concordant - discordant) as f64 / pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_orderings_have_tau_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(kendall_tau(&a, &b), Some(1.0));
    }

    #[test]
    fn reversed_orderings_have_tau_minus_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(kendall_tau(&a, &b), Some(-1.0));
    }

    #[test]
    fn one_swap_in_four_elements() {
        // Swapping one adjacent pair flips 1 of 6 pairs: τ = (5−1)/6.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 3.0, 2.0, 4.0];
        let tau = kendall_tau(&a, &b).unwrap();
        assert!((tau - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ties_are_neither_concordant_nor_discordant() {
        let a = [1.0, 1.0, 2.0];
        let b = [5.0, 6.0, 7.0];
        // Pairs: (0,1) tied in a; (0,2) and (1,2) concordant → τ = 2/3.
        let tau = kendall_tau(&a, &b).unwrap();
        assert!((tau - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn independent_samples_near_zero() {
        // A fixed pseudo-random pairing should land near zero.
        let a: Vec<f64> = (0..50).map(|i| ((i * 37) % 50) as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| ((i * 23 + 7) % 50) as f64).collect();
        let tau = kendall_tau(&a, &b).unwrap();
        assert!(tau.abs() < 0.3, "tau {tau}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(kendall_tau(&[], &[]), None);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), None);
    }

    #[test]
    fn tau_bounded_on_arbitrary_data() {
        let a: Vec<f64> = (0..30).map(|i| ((i * 13 + 3) % 17) as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| ((i * 7 + 5) % 19) as f64).collect();
        let tau = kendall_tau(&a, &b).unwrap();
        assert!((-1.0..=1.0).contains(&tau));
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        kendall_tau(&[1.0], &[1.0, 2.0]);
    }
}
