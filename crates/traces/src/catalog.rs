//! The built-in 123-region catalog.
//!
//! The paper analyzes hourly carbon-intensity for 123 Electricity
//! Maps-style zones covering all five continents, 99 of which host cloud
//! datacenters (35 GCP, 24 Azure, 23 AWS, 7 IBM, 10 Alibaba locations), and
//! 40 of which form the hyperscale set of Fig. 4. The licensed trace data
//! cannot be redistributed, so this catalog records, per zone, the
//! *statistical calibration targets* the synthesizer reproduces:
//!
//! * `mean_ci_2022` — 2022 annual mean carbon-intensity (g·CO2eq/kWh),
//!   chosen so the 123-zone average lands at the paper's 368.39 g global
//!   baseline, Sweden is the global minimum (≈ 16 g), and the max/min
//!   spread is ≈ 40×;
//! * `ci_delta_2020_2022` — drift of the annual mean (≈ 57 % of zones
//!   within ±25 g, ≈ 23 % decarbonizing, ≈ 20 % increasing);
//! * `daily_cv` — average daily coefficient of variation (> 70 % of zones
//!   below 0.1);
//! * `periodicity` — strength of the diurnal/weekly cycle (Hong Kong and
//!   Indonesia are aperiodic, matching Fig. 4).
//!
//! Values are drawn from public knowledge of each grid's generation mix and
//! rounded; they are calibration targets, not measurements.
//!
//! The table itself is `catalog.sidecar` next to this file: one
//! `[region CODE]` section per zone, embedded at build time and parsed
//! once by [`crate::sidecar::parse_region_sidecar`], the parser user
//! metadata sidecars go through.

use std::sync::OnceLock;

use crate::region::Region;
use crate::sidecar::parse_region_sidecar;

/// Returns the built-in 123-region catalog, in `catalog.sidecar` order.
pub fn builtin_catalog() -> &'static [Region] {
    static CATALOG: OnceLock<Vec<Region>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        parse_region_sidecar(include_str!("catalog.sidecar"))
            // decarb-analyze: allow(no-panic) -- the embedded file is fixed at build time; every catalog test parses it
            .expect("catalog.sidecar parses")
    })
}

/// Returns the region with the given zone code, if present.
pub fn region(code: &str) -> Option<&'static Region> {
    builtin_catalog().iter().find(|r| r.code == code)
}

/// Returns the 40 regions in the paper's Fig. 4 hyperscale set, ordered by
/// ascending 2022 mean carbon-intensity (the figure's x-axis order).
pub fn hyperscale_regions() -> Vec<&'static Region> {
    let mut regions: Vec<&Region> = builtin_catalog()
        .iter()
        .filter(|r| r.hyperscale_set)
        .collect();
    regions.sort_by(|a, b| a.mean_ci_2022.total_cmp(&b.mean_ci_2022));
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{GeoGroup, Providers};

    fn regions_in_group(group: GeoGroup) -> Vec<&'static Region> {
        builtin_catalog()
            .iter()
            .filter(|r| r.group == group)
            .collect()
    }

    #[test]
    fn has_123_regions_with_unique_codes() {
        let catalog = builtin_catalog();
        assert_eq!(catalog.len(), 123);
        let mut codes: Vec<&str> = catalog.iter().map(|r| r.code.as_str()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 123, "region codes must be unique");
    }

    #[test]
    fn provider_location_counts_match_paper() {
        let catalog = builtin_catalog();
        let count = |p: Providers| catalog.iter().filter(|r| r.providers.contains(p)).count();
        assert_eq!(count(Providers::GCP), 35, "GCP locations");
        assert_eq!(count(Providers::AZURE), 24, "Azure locations");
        assert_eq!(count(Providers::AWS), 23, "AWS locations");
        assert_eq!(count(Providers::IBM), 7, "IBM locations");
        assert_eq!(count(Providers::ALIBABA), 10, "Alibaba locations");
        let total: u32 = catalog.iter().map(|r| r.providers.count()).sum();
        assert_eq!(total, 99, "99 known datacenter locations (§3.1.1)");
    }

    #[test]
    fn hyperscale_set_has_40_regions() {
        let regions = hyperscale_regions();
        assert_eq!(regions.len(), 40);
        // All hyperscale-set regions must actually host a hyperscaler.
        assert!(regions.iter().all(|r| r.providers.has_hyperscaler()));
        // Ordered by mean CI, Sweden first.
        assert_eq!(regions[0].code, "SE");
        for pair in regions.windows(2) {
            assert!(pair[0].mean_ci_2022 <= pair[1].mean_ci_2022);
        }
        // Hong Kong and Indonesia are the aperiodic members (Fig. 4).
        let aperiodic: Vec<&str> = regions
            .iter()
            .filter(|r| r.periodicity == 0.0)
            .map(|r| r.code.as_str())
            .collect();
        assert_eq!(aperiodic, vec!["HK", "ID"]);
    }

    #[test]
    fn global_mean_matches_paper_baseline() {
        let catalog = builtin_catalog();
        let mean: f64 = catalog.iter().map(|r| r.mean_ci_2022).sum::<f64>() / catalog.len() as f64;
        // The paper's global average is 368.39 g·CO2eq/kWh (§3.1.3).
        assert!(
            (mean - 368.39).abs() < 10.0,
            "global mean {mean:.2} should be within 10 g of 368.39"
        );
    }

    #[test]
    fn sweden_is_global_minimum() {
        let catalog = builtin_catalog();
        let min = catalog
            .iter()
            .min_by(|a, b| a.mean_ci_2022.total_cmp(&b.mean_ci_2022))
            .unwrap();
        assert_eq!(min.code, "SE");
        assert!((min.mean_ci_2022 - 16.0).abs() < 1e-9);
        let max = catalog
            .iter()
            .max_by(|a, b| a.mean_ci_2022.total_cmp(&b.mean_ci_2022))
            .unwrap();
        // §4.1: ≈ 40× spread between the highest and lowest regions.
        let spread = max.mean_ci_2022 / min.mean_ci_2022;
        assert!((35.0..60.0).contains(&spread), "spread {spread:.1}");
    }

    #[test]
    fn most_regions_have_low_daily_cv() {
        let catalog = builtin_catalog();
        let low = catalog.iter().filter(|r| r.daily_cv < 0.1).count();
        let frac = low as f64 / catalog.len() as f64;
        // §1: more than 70 % of regions have daily CV below 0.1.
        assert!(frac > 0.70, "low-CV fraction {frac:.2}");
    }

    #[test]
    fn drift_buckets_match_paper_clusters() {
        let catalog = builtin_catalog();
        let decarbonizing = catalog
            .iter()
            .filter(|r| r.ci_delta_2020_2022 < -25.0)
            .count() as f64;
        let increasing = catalog
            .iter()
            .filter(|r| r.ci_delta_2020_2022 > 25.0)
            .count() as f64;
        let stable = catalog.len() as f64 - decarbonizing - increasing;
        let n = catalog.len() as f64;
        // §4.2: ≈ 23 % lowered CI, ≈ 20 % increased, ≈ 57 % within ±25 g.
        assert!((0.12..0.30).contains(&(decarbonizing / n)));
        assert!((0.12..0.28).contains(&(increasing / n)));
        assert!((0.45..0.72).contains(&(stable / n)));
    }

    #[test]
    fn quadrant_split_roughly_half() {
        // §4.1: 46 % of regions above 400 g, 54 % below.
        let catalog = builtin_catalog();
        let above = catalog.iter().filter(|r| r.mean_ci_2022 > 400.0).count() as f64;
        let frac = above / catalog.len() as f64;
        assert!((0.35..0.55).contains(&frac), "above-400 fraction {frac:.2}");
    }

    #[test]
    fn groups_all_populated() {
        for group in GeoGroup::ALL {
            assert!(
                !regions_in_group(group).is_empty(),
                "group {group} must not be empty"
            );
        }
        assert_eq!(regions_in_group(GeoGroup::Oceania).len(), 7);
        assert_eq!(regions_in_group(GeoGroup::Europe).len(), 41);
    }

    #[test]
    fn geography_is_sane() {
        for r in builtin_catalog() {
            assert!((-90.0..=90.0).contains(&r.lat), "{} lat", r.code);
            assert!((-180.0..=180.0).contains(&r.lon), "{} lon", r.code);
            assert!(r.mean_ci_2022 >= 1.0, "{} mean", r.code);
            assert!((0.0..=1.0).contains(&r.periodicity), "{} per", r.code);
            assert!(r.daily_cv > 0.0 && r.daily_cv < 0.5, "{} cv", r.code);
        }
    }

    #[test]
    fn lookup_by_code() {
        assert_eq!(region("SE").unwrap().name, "Sweden");
        assert_eq!(region("US-CA").unwrap().group, GeoGroup::NorthAmerica);
        assert!(region("NOPE").is_none());
    }

    #[test]
    fn asia_is_dirtiest_grouping_europe_cleanest() {
        // §5.1.1: Europe is the greenest grouping (≈ 280 g), Asia the
        // dirtiest (≈ 540 g).
        let group_mean = |g: GeoGroup| {
            let rs = regions_in_group(g);
            rs.iter().map(|r| r.mean_ci_2022).sum::<f64>() / rs.len() as f64
        };
        let europe = group_mean(GeoGroup::Europe);
        let asia = group_mean(GeoGroup::Asia);
        assert!((250.0..330.0).contains(&europe), "europe {europe:.0}");
        assert!((490.0..580.0).contains(&asia), "asia {asia:.0}");
        // Asia is the dirtiest grouping overall; Europe is the greenest of
        // the large groupings. (Unlike the paper's licensed dataset, our
        // South America zone set is hydro-dominated and lands below Europe
        // — recorded as a dataset note in EXPERIMENTS.md.)
        for g in [
            GeoGroup::Africa,
            GeoGroup::NorthAmerica,
            GeoGroup::Oceania,
            GeoGroup::SouthAmerica,
        ] {
            let m = group_mean(g);
            assert!(m <= asia + 1e-9, "{g} mean {m:.0} above Asia");
        }
        for g in [GeoGroup::Africa, GeoGroup::NorthAmerica, GeoGroup::Oceania] {
            let m = group_mean(g);
            assert!(m >= europe - 1e-9, "{g} mean {m:.0} below Europe");
        }
    }
}
