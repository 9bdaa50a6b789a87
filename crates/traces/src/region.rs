//! Region metadata: geography, cloud presence, and calibration targets.

use crate::mix::{EnergyMix, Source};

/// Geographical grouping used throughout the paper's spatial analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeoGroup {
    /// African zones.
    Africa,
    /// Asian and Middle-Eastern zones.
    Asia,
    /// European zones.
    Europe,
    /// North American zones.
    NorthAmerica,
    /// South American zones.
    SouthAmerica,
    /// Australian and New Zealand zones.
    Oceania,
    /// User-defined zones outside the paper's continental grouping
    /// (imported datasets and scenario-file regions default here).
    Other,
}

impl GeoGroup {
    /// The catalog's groupings, in display order. [`GeoGroup::Other`] is
    /// excluded: it only appears on user-defined regions, so group-wise
    /// sweeps over the built-in dataset stay non-empty.
    pub const ALL: [GeoGroup; 6] = [
        GeoGroup::Africa,
        GeoGroup::Asia,
        GeoGroup::Europe,
        GeoGroup::NorthAmerica,
        GeoGroup::SouthAmerica,
        GeoGroup::Oceania,
    ];

    /// Returns a short label for table output.
    pub fn label(self) -> &'static str {
        match self {
            GeoGroup::Africa => "Africa",
            GeoGroup::Asia => "Asia",
            GeoGroup::Europe => "Europe",
            GeoGroup::NorthAmerica => "N. America",
            GeoGroup::SouthAmerica => "S. America",
            GeoGroup::Oceania => "Oceania",
            GeoGroup::Other => "Other",
        }
    }

    /// Parses a grouping from sidecar/scenario-file text. Accepts the
    /// table labels plus friendlier aliases (case-insensitive).
    pub fn parse(text: &str) -> Result<GeoGroup, String> {
        match text.trim().to_lowercase().as_str() {
            "africa" => Ok(GeoGroup::Africa),
            "asia" => Ok(GeoGroup::Asia),
            "europe" => Ok(GeoGroup::Europe),
            "northamerica" | "north-america" | "n. america" | "na" => Ok(GeoGroup::NorthAmerica),
            "southamerica" | "south-america" | "s. america" | "sa" => Ok(GeoGroup::SouthAmerica),
            "oceania" => Ok(GeoGroup::Oceania),
            "other" => Ok(GeoGroup::Other),
            other => Err(format!(
                "unknown geography group `{other}` (valid: africa, asia, europe, \
                 north-america, south-america, oceania, other)"
            )),
        }
    }
}

impl std::fmt::Display for GeoGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cloud-provider presence flags for a region.
///
/// The catalog tags 99 of the 123 regions with at least one provider,
/// matching the datacenter-location counts in §3.1.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Providers(u8);

impl Providers {
    /// No cloud presence.
    pub const NONE: Providers = Providers(0);
    /// Google Cloud Platform.
    pub const GCP: Providers = Providers(1);
    /// Microsoft Azure.
    pub const AZURE: Providers = Providers(2);
    /// Amazon Web Services.
    pub const AWS: Providers = Providers(4);
    /// IBM Cloud.
    pub const IBM: Providers = Providers(8);
    /// Alibaba Cloud.
    pub const ALIBABA: Providers = Providers(16);

    /// Combines two provider sets.
    pub const fn union(self, other: Providers) -> Providers {
        Providers(self.0 | other.0)
    }

    /// Returns `true` if this set contains all providers in `other`.
    pub const fn contains(self, other: Providers) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if no provider is present.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if at least one hyperscaler (GCP, Azure, AWS) is
    /// present — the criterion for the paper's Fig. 4 region set.
    pub const fn has_hyperscaler(self) -> bool {
        self.0 & (Self::GCP.0 | Self::AZURE.0 | Self::AWS.0) != 0
    }

    /// Returns the number of distinct providers present.
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }
}

impl std::ops::BitOr for Providers {
    type Output = Providers;
    fn bitor(self, rhs: Providers) -> Providers {
        self.union(rhs)
    }
}

/// Metadata for one grid region (an Electricity Maps-style zone).
///
/// Regions are owned values: the built-in catalog is just one source of
/// them, and imported datasets or scenario files can declare their own
/// (see [`Region::user`] and [`Region::from_pairs`]). Identity inside a
/// dataset is the interned [`crate::table::RegionId`], not this struct.
#[derive(Debug, Clone)]
pub struct Region {
    /// Zone code, e.g. `"SE"` or `"US-CA"`.
    pub code: String,
    /// Human-readable name.
    pub name: String,
    /// Geographical grouping.
    pub group: GeoGroup,
    /// Latitude in degrees (region centroid / main metro).
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Cloud providers with datacenters in this zone.
    pub providers: Providers,
    /// Annual average generation mix.
    pub mix: EnergyMix,
    /// Calibration target: 2022 annual mean carbon-intensity (g·CO2eq/kWh).
    pub mean_ci_2022: f64,
    /// Calibration target: total change in annual mean CI from 2020 to 2022
    /// (negative = decarbonizing).
    pub ci_delta_2020_2022: f64,
    /// Calibration target: average daily coefficient of variation of the
    /// carbon-intensity signal.
    pub daily_cv: f64,
    /// Strength of the diurnal/weekly cycle in `[0, 1]`; 0 produces an
    /// aperiodic signal (e.g. Hong Kong, Indonesia in Fig. 4).
    pub periodicity: f64,
    /// Member of the 40-region hyperscale set analyzed in Fig. 4.
    pub hyperscale_set: bool,
}

impl Region {
    /// Returns the calibrated annual mean for `year`, linearly
    /// interpolating the 2020→2022 drift and extrapolating to 2023.
    pub fn mean_ci(&self, year: i32) -> f64 {
        let per_year = self.ci_delta_2020_2022 / 2.0;
        (self.mean_ci_2022 + per_year * f64::from(year - 2022)).max(1.0)
    }

    /// Returns `true` if the region hosts any cloud datacenter.
    pub fn has_datacenter(&self) -> bool {
        !self.providers.is_empty()
    }

    /// A user-defined region with default metadata: the fallback
    /// [`crate::csv::read_dataset`] interns for zones that are neither in
    /// the built-in catalog nor described by a metadata sidecar. The
    /// calibration targets sit at the paper's global averages (mean CI
    /// [`crate::GLOBAL_AVG_CI`], mild daily variability, a diurnal
    /// cycle); geography defaults to [`GeoGroup::Other`] at (0°, 0°), so
    /// latency-aware policies treat the zone as a distant island until a
    /// sidecar supplies coordinates.
    pub fn user(code: &str) -> Region {
        Region {
            code: code.to_string(),
            name: code.to_string(),
            group: GeoGroup::Other,
            lat: 0.0,
            lon: 0.0,
            providers: Providers::NONE,
            // A middle-of-the-road fossil/renewable split whose implied
            // CI sits near the global average.
            mix: EnergyMix::new([0.25, 0.25, 0.0, 0.1, 0.2, 0.1, 0.1, 0.0, 0.0]),
            mean_ci_2022: crate::GLOBAL_AVG_CI,
            ci_delta_2020_2022: 0.0,
            daily_cv: 0.08,
            periodicity: 0.8,
            hyperscale_set: false,
        }
    }

    /// Every key [`Region::from_pairs`] understands — the vocabulary
    /// behind the scenario checker's unknown-key suggestions.
    pub const KNOWN_KEYS: &'static [&'static str] = &[
        "name",
        "group",
        "lat",
        "lon",
        "mean_ci",
        "ci_delta",
        "daily_cv",
        "periodicity",
        "mix",
    ];

    /// Builds a region from `key = value` pairs (metadata sidecars and
    /// scenario-file `[region CODE]` sections). Every key is optional on
    /// top of the [`Region::user`] defaults: `name`, `group`, `lat`,
    /// `lon`, `mean_ci`, `ci_delta`, `daily_cv`, `periodicity`, and
    /// `mix` (a `source:share` list, e.g. `mix = hydro:0.6, wind:0.4`).
    /// Unknown keys and unparseable values are errors.
    pub fn from_pairs(code: &str, pairs: &[(String, String)]) -> Result<Region, String> {
        let mut region = Region::user(code);
        for (key, raw) in pairs {
            let parse_f64 = || -> Result<f64, String> {
                raw.trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| format!("invalid value `{raw}` for region key `{key}`"))
            };
            match key.as_str() {
                "name" => region.name = raw.trim().to_string(),
                "group" => region.group = GeoGroup::parse(raw)?,
                "lat" => region.lat = parse_f64()?,
                "lon" => region.lon = parse_f64()?,
                "mean_ci" => {
                    let v = parse_f64()?;
                    if v <= 0.0 {
                        return Err("`mean_ci` must be positive".into());
                    }
                    region.mean_ci_2022 = v;
                }
                "ci_delta" => region.ci_delta_2020_2022 = parse_f64()?,
                "daily_cv" => {
                    let v = parse_f64()?;
                    if v < 0.0 {
                        return Err("`daily_cv` must be non-negative".into());
                    }
                    region.daily_cv = v;
                }
                "periodicity" => {
                    let v = parse_f64()?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err("`periodicity` must lie in [0, 1]".into());
                    }
                    region.periodicity = v;
                }
                "mix" => region.mix = parse_mix(raw)?,
                other => {
                    return Err(format!(
                        "unknown region key `{other}` (valid: {})",
                        Region::KNOWN_KEYS.join(", ")
                    ))
                }
            }
        }
        Ok(region)
    }
}

/// Parses `source:share` lists into an [`EnergyMix`], normalizing the
/// shares to sum to one.
fn parse_mix(raw: &str) -> Result<EnergyMix, String> {
    let mut shares = [0.0f64; 9];
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (label, value) = part
            .split_once(':')
            .ok_or_else(|| format!("invalid mix entry `{part}` (use source:share)"))?;
        let source = Source::parse(label)?;
        let share: f64 = value
            .trim()
            .parse()
            .ok()
            .filter(|v: &f64| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("invalid mix share `{value}` for `{label}`"))?;
        shares[source as usize] += share;
    }
    let total: f64 = shares.iter().sum();
    if total <= 0.0 {
        return Err("`mix` must list at least one positive share".into());
    }
    for share in &mut shares {
        *share /= total;
    }
    Ok(EnergyMix::new(shares))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::EnergyMix;

    fn region(mean: f64, delta: f64) -> Region {
        Region {
            code: "XX".into(),
            name: "Test".into(),
            group: GeoGroup::Europe,
            lat: 0.0,
            lon: 0.0,
            providers: Providers::GCP | Providers::AWS,
            mix: EnergyMix::new([0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0]),
            mean_ci_2022: mean,
            ci_delta_2020_2022: delta,
            daily_cv: 0.1,
            periodicity: 1.0,
            hyperscale_set: false,
        }
    }

    #[test]
    fn provider_flags() {
        let p = Providers::GCP | Providers::AZURE;
        assert!(p.contains(Providers::GCP));
        assert!(p.contains(Providers::AZURE));
        assert!(!p.contains(Providers::AWS));
        assert!(p.has_hyperscaler());
        assert_eq!(p.count(), 2);
        assert!(Providers::NONE.is_empty());
        assert!(!Providers::IBM.has_hyperscaler());
        assert!(!Providers::ALIBABA.has_hyperscaler());
    }

    #[test]
    fn mean_ci_interpolation() {
        let r = region(300.0, -50.0);
        assert!((r.mean_ci(2020) - 350.0).abs() < 1e-9);
        assert!((r.mean_ci(2021) - 325.0).abs() < 1e-9);
        assert!((r.mean_ci(2022) - 300.0).abs() < 1e-9);
        assert!((r.mean_ci(2023) - 275.0).abs() < 1e-9);
    }

    #[test]
    fn mean_ci_floors_at_one() {
        let r = region(2.0, -50.0);
        assert_eq!(r.mean_ci(2023), 1.0);
    }

    #[test]
    fn group_labels_unique() {
        let labels: Vec<&str> = GeoGroup::ALL.iter().map(|g| g.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(format!("{}", GeoGroup::Oceania), "Oceania");
        assert!(!GeoGroup::ALL.contains(&GeoGroup::Other));
        assert_eq!(GeoGroup::Other.label(), "Other");
    }

    #[test]
    fn group_parse_round_trips_and_accepts_aliases() {
        for group in GeoGroup::ALL.into_iter().chain([GeoGroup::Other]) {
            assert_eq!(GeoGroup::parse(group.label()).unwrap(), group);
        }
        assert_eq!(
            GeoGroup::parse("north-america").unwrap(),
            GeoGroup::NorthAmerica
        );
        assert_eq!(GeoGroup::parse(" EUROPE ").unwrap(), GeoGroup::Europe);
        assert!(GeoGroup::parse("atlantis").is_err());
    }

    #[test]
    fn has_datacenter_from_providers() {
        let mut r = region(100.0, 0.0);
        assert!(r.has_datacenter());
        r.providers = Providers::NONE;
        assert!(!r.has_datacenter());
    }

    #[test]
    fn user_region_defaults() {
        let r = Region::user("XX-NEW");
        assert_eq!(r.code, "XX-NEW");
        assert_eq!(r.name, "XX-NEW");
        assert_eq!(r.group, GeoGroup::Other);
        assert!(!r.has_datacenter());
        assert!((r.mean_ci_2022 - crate::GLOBAL_AVG_CI).abs() < 1e-9);
        let total: f64 = crate::mix::Source::ALL
            .iter()
            .map(|&s| r.mix.share(s))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "mix shares sum to one");
    }

    fn pairs(kv: &[(&str, &str)]) -> Vec<(String, String)> {
        kv.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn from_pairs_overrides_defaults() {
        let r = Region::from_pairs(
            "XX-HYDRO",
            &pairs(&[
                ("name", "Hydrotopia"),
                ("group", "south-america"),
                ("lat", "-10.5"),
                ("lon", "-55"),
                ("mean_ci", "45"),
                ("ci_delta", "-8"),
                ("daily_cv", "0.03"),
                ("periodicity", "0.4"),
                ("mix", "hydro:0.8, wind:0.2"),
            ]),
        )
        .unwrap();
        assert_eq!(r.name, "Hydrotopia");
        assert_eq!(r.group, GeoGroup::SouthAmerica);
        assert_eq!(r.lat, -10.5);
        assert_eq!(r.mean_ci_2022, 45.0);
        assert_eq!(r.ci_delta_2020_2022, -8.0);
        assert!((r.mix.share(Source::Hydro) - 0.8).abs() < 1e-9);
        assert!((r.mix.share(Source::Wind) - 0.2).abs() < 1e-9);
        assert_eq!(r.mix.share(Source::Coal), 0.0);
    }

    #[test]
    fn from_pairs_normalizes_mix_shares() {
        let r = Region::from_pairs("XX", &pairs(&[("mix", "coal:3, hydro:1")])).unwrap();
        assert!((r.mix.share(Source::Coal) - 0.75).abs() < 1e-9);
        assert!((r.mix.share(Source::Hydro) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn from_pairs_rejects_bad_inputs() {
        for (kv, needle) in [
            (vec![("group", "atlantis")], "unknown geography group"),
            (vec![("lat", "north")], "invalid value"),
            (vec![("mean_ci", "-5")], "must be positive"),
            (vec![("periodicity", "1.5")], "[0, 1]"),
            (vec![("daily_cv", "-0.1")], "non-negative"),
            (vec![("mix", "plutonium:1")], "unknown energy source"),
            (vec![("mix", "coal")], "source:share"),
            (vec![("mix", "coal:-1")], "invalid mix share"),
            (vec![("mix", "coal:0")], "at least one positive share"),
            (vec![("flux", "1")], "unknown region key"),
        ] {
            let err = Region::from_pairs("XX", &pairs(&kv)).unwrap_err();
            assert!(err.contains(needle), "{kv:?}: got `{err}`");
        }
    }
}
