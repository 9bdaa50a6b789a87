//! Generation-mix modelling and life-cycle emission factors.
//!
//! A region's average carbon-intensity is the generation-weighted average of
//! its sources' emission factors (§2.1 of the paper). The factors below are
//! the IPCC AR5 median life-cycle values in g·CO2eq/kWh, the same family of
//! constants Electricity Maps uses.

/// A generation source category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Hard coal and lignite.
    Coal,
    /// Natural gas (combined and open cycle).
    Gas,
    /// Oil-fired generation.
    Oil,
    /// Nuclear fission.
    Nuclear,
    /// Reservoir and run-of-river hydro.
    Hydro,
    /// Onshore and offshore wind.
    Wind,
    /// Utility and rooftop solar PV.
    Solar,
    /// Geothermal.
    Geothermal,
    /// Biomass and waste.
    Biomass,
}

impl Source {
    /// Position of this source in [`Source::ALL`] (declaration order).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// All source categories, in the canonical order used by [`EnergyMix`].
    pub const ALL: [Source; 9] = [
        Source::Coal,
        Source::Gas,
        Source::Oil,
        Source::Nuclear,
        Source::Hydro,
        Source::Wind,
        Source::Solar,
        Source::Geothermal,
        Source::Biomass,
    ];

    /// Returns the IPCC median life-cycle emission factor in g·CO2eq/kWh.
    pub fn emission_factor(self) -> f64 {
        match self {
            Source::Coal => 820.0,
            Source::Gas => 490.0,
            Source::Oil => 650.0,
            Source::Nuclear => 12.0,
            Source::Hydro => 24.0,
            Source::Wind => 11.0,
            Source::Solar => 45.0,
            Source::Geothermal => 38.0,
            Source::Biomass => 230.0,
        }
    }

    /// Returns `true` for fossil-fuel sources (coal, gas, oil).
    pub fn is_fossil(self) -> bool {
        matches!(self, Source::Coal | Source::Gas | Source::Oil)
    }

    /// Returns `true` for variable renewables (wind, solar).
    pub fn is_variable_renewable(self) -> bool {
        matches!(self, Source::Wind | Source::Solar)
    }

    /// Returns a short label for table output.
    pub fn label(self) -> &'static str {
        match self {
            Source::Coal => "coal",
            Source::Gas => "gas",
            Source::Oil => "oil",
            Source::Nuclear => "nuclear",
            Source::Hydro => "hydro",
            Source::Wind => "wind",
            Source::Solar => "solar",
            Source::Geothermal => "geothermal",
            Source::Biomass => "biomass",
        }
    }

    /// Parses a source label (metadata sidecars, scenario files).
    pub fn parse(label: &str) -> Result<Source, String> {
        let needle = label.trim().to_lowercase();
        Source::ALL
            .into_iter()
            .find(|s| s.label() == needle)
            .ok_or_else(|| {
                let valid: Vec<&str> = Source::ALL.iter().map(|s| s.label()).collect();
                format!(
                    "unknown energy source `{label}` (valid: {})",
                    valid.join(", ")
                )
            })
    }
}

/// A region's annual average generation mix (shares sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyMix {
    shares: [f64; 9],
}

impl EnergyMix {
    /// Creates a mix from shares in [`Source::ALL`] order, normalizing so
    /// the shares sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if any share is negative or all shares are zero.
    pub fn new(shares: [f64; 9]) -> Self {
        let total: f64 = shares.iter().sum();
        assert!(
            shares.iter().all(|&s| s >= 0.0) && total > 0.0,
            "mix shares must be non-negative and not all zero"
        );
        let mut normalized = shares;
        for s in &mut normalized {
            *s /= total;
        }
        Self { shares: normalized }
    }

    /// Crate-internal constructor for shares that are already
    /// normalized (binary-container decode): skips the re-normalization
    /// in [`EnergyMix::new`], whose division by a sum within 1 ulp of
    /// 1.0 would perturb the stored bits. The caller validates.
    pub(crate) fn from_normalized(shares: [f64; 9]) -> Self {
        Self { shares }
    }

    /// Returns the share of `source` in the mix.
    #[inline]
    pub fn share(&self, source: Source) -> f64 {
        self.shares[source.index()]
    }

    /// Returns the combined share of fossil sources.
    pub fn fossil_share(&self) -> f64 {
        Source::ALL
            .iter()
            .filter(|s| s.is_fossil())
            .map(|&s| self.share(s))
            .sum()
    }

    /// Returns the combined share of all renewable sources (hydro, wind,
    /// solar, geothermal, biomass).
    pub fn renewable_share(&self) -> f64 {
        self.share(Source::Hydro)
            + self.share(Source::Wind)
            + self.share(Source::Solar)
            + self.share(Source::Geothermal)
            + self.share(Source::Biomass)
    }

    /// Iterates over `(source, share)` pairs with non-zero share.
    pub fn iter(&self) -> impl Iterator<Item = (Source, f64)> + '_ {
        Source::ALL
            .iter()
            .zip(self.shares.iter())
            .filter(|(_, &share)| share > 0.0)
            .map(|(&s, &share)| (s, share))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn california_like() -> EnergyMix {
        // coal gas oil nuclear hydro wind solar geo biomass
        EnergyMix::new([0.0, 0.40, 0.0, 0.08, 0.10, 0.10, 0.25, 0.05, 0.02])
    }

    #[test]
    fn index_matches_declaration_order() {
        for (i, s) in Source::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Source::ALL[s.index()], *s);
        }
    }

    #[test]
    fn shares_normalize() {
        let mix = EnergyMix::new([2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((mix.share(Source::Coal) - 0.5).abs() < 1e-12);
        assert!((mix.share(Source::Hydro) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn share_groupings() {
        let mix = california_like();
        assert!((mix.fossil_share() - 0.40).abs() < 1e-9);
        assert!((mix.renewable_share() - 0.52).abs() < 1e-9);
    }

    #[test]
    fn iter_skips_zero_shares() {
        let mix = EnergyMix::new([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let sources: Vec<Source> = mix.iter().map(|(s, _)| s).collect();
        assert_eq!(sources, vec![Source::Coal, Source::Hydro]);
    }

    #[test]
    fn fossil_classification() {
        assert!(Source::Coal.is_fossil());
        assert!(Source::Gas.is_fossil());
        assert!(Source::Oil.is_fossil());
        assert!(!Source::Nuclear.is_fossil());
        assert!(Source::Wind.is_variable_renewable());
        assert!(!Source::Hydro.is_variable_renewable());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_share_panics() {
        EnergyMix::new([-0.1, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }
}
