//! Descriptive statistics over `f64` slices.

/// Returns the arithmetic mean of `values` (0.0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[3.0, 5.0]), 4.0);
    }
}
