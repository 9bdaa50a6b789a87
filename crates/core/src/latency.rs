//! Inter-region latency modelling (§5.1.3).
//!
//! The paper uses measured GCP inter-region latencies; those measurements
//! are not redistributable, so we model round-trip time from geodesic
//! distance: light in fiber covers ≈ 200 km per millisecond one-way
//! (≈ 100 km per RTT millisecond), real paths are ≈ 30 % longer than the
//! great circle, and endpoint processing adds a constant. The result
//! matches the magnitudes that matter for Fig. 6(a): single-digit RTTs
//! within a metro, ≈ 70–150 ms across an ocean, ≈ 250–300 ms antipodal.

use decarb_traces::Region;

/// Mean Earth radius in kilometres.
const EARTH_RADIUS_KM: f64 = 6371.0;
/// RTT kilometres per millisecond for light in fiber.
const FIBER_KM_PER_RTT_MS: f64 = 100.0;
/// Path-stretch factor over the great-circle distance.
const PATH_STRETCH: f64 = 1.3;
/// Fixed endpoint overhead in milliseconds.
const FIXED_OVERHEAD_MS: f64 = 5.0;

/// Returns the great-circle distance between two coordinates in km.
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
    let d_phi = (lat2 - lat1).to_radians();
    let d_lambda = (lon2 - lon1).to_radians();
    let a = (d_phi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (d_lambda / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
}

/// Returns the modelled round-trip time between two regions in ms.
///
/// A region to itself costs only the fixed overhead.
pub fn rtt_ms(a: &Region, b: &Region) -> f64 {
    if a.code == b.code {
        return FIXED_OVERHEAD_MS;
    }
    let dist = haversine_km(a.lat, a.lon, b.lat, b.lon);
    FIXED_OVERHEAD_MS + PATH_STRETCH * dist / FIBER_KM_PER_RTT_MS
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::catalog::region;

    #[test]
    fn haversine_known_distances() {
        // London ↔ New York ≈ 5570 km.
        let d = haversine_km(51.5, -0.1, 40.7, -74.0);
        assert!((5400.0..5750.0).contains(&d), "{d}");
        // Same point → 0.
        assert_eq!(haversine_km(10.0, 20.0, 10.0, 20.0), 0.0);
    }

    #[test]
    fn rtt_magnitudes_are_realistic() {
        let gb = region("GB").unwrap();
        let us_va = region("US-VA").unwrap();
        let au = region("AU-NSW").unwrap();
        let trans_atlantic = rtt_ms(gb, us_va);
        assert!(
            (60.0..120.0).contains(&trans_atlantic),
            "GB↔US-VA {trans_atlantic}"
        );
        let antipodal = rtt_ms(gb, au);
        assert!((200.0..300.0).contains(&antipodal), "GB↔AU {antipodal}");
        assert_eq!(rtt_ms(gb, gb), FIXED_OVERHEAD_MS);
    }

    #[test]
    fn rtt_symmetric_and_triangle_ish() {
        let a = region("US-CA").unwrap();
        let b = region("JP-TK").unwrap();
        assert!((rtt_ms(a, b) - rtt_ms(b, a)).abs() < 1e-9);
    }

    #[test]
    fn feasible_set_grows_with_slo() {
        let all = decarb_traces::builtin_catalog();
        let de = region("DE").unwrap();
        let feasible = |slo_ms: f64| -> Vec<&str> {
            all.iter()
                .filter(|r| rtt_ms(de, r) <= slo_ms)
                .map(|r| r.code.as_str())
                .collect()
        };
        let (near, far, global) = (feasible(30.0), feasible(150.0), feasible(400.0));
        assert!(near.contains(&"DE"));
        assert!(near.len() < far.len());
        assert!(far.len() < global.len());
        assert_eq!(global.len(), 123, "400 ms reaches everywhere");
    }

    #[test]
    fn intra_european_latencies_small() {
        let de = region("DE").unwrap();
        let nl = region("NL").unwrap();
        let v = rtt_ms(de, nl);
        assert!(v < 15.0, "DE↔NL {v}");
    }
}
