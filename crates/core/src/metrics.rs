//! The paper's carbon-reduction metrics (§3.1.3).

use decarb_traces::GLOBAL_AVG_CI;

/// Absolute carbon reduction in g·CO2eq: baseline emissions minus
/// emissions after shifting. Higher is better; negative means the shift
/// *increased* emissions.
#[inline]
pub fn absolute_reduction(baseline_g: f64, shifted_g: f64) -> f64 {
    baseline_g - shifted_g
}

/// Global average reduction: an absolute reduction expressed as a
/// percentage of the paper's global average carbon-intensity
/// (368.39 g·CO2eq/kWh).
#[inline]
pub fn relative_reduction(absolute_g: f64) -> f64 {
    absolute_g / GLOBAL_AVG_CI * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_is_difference() {
        assert_eq!(absolute_reduction(68.0, 55.0), 13.0);
        assert_eq!(absolute_reduction(50.0, 60.0), -10.0);
    }

    #[test]
    fn relative_uses_global_average() {
        // 368.39 g of absolute reduction is 100 % of the global average.
        assert!((relative_reduction(368.39) - 100.0).abs() < 1e-9);
        assert!((relative_reduction(184.195) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn paper_example_fig2a() {
        // Fig. 2(a)'s toy example: deferring saves 13 of 68 units ≈ 19 %.
        let saved = absolute_reduction(68.0, 55.0);
        assert!((saved / 68.0 * 100.0 - 19.1).abs() < 0.5);
    }
}
