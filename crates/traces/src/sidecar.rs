//! Region-metadata sidecars: `[region CODE]` files for imported datasets.
//!
//! [`crate::csv::read_dataset`] accepts zones outside the built-in
//! catalog, interning them with [`Region::user`] defaults. A sidecar
//! file supplies real metadata instead — geography for latency-aware
//! routing, a generation mix, calibration targets — in the section
//! grammar of [`crate::sections`], which scenario files share:
//!
//! ```text
//! # metadata for a zone the catalog does not know
//! [region XX-HYDRO]
//! name = Hydrotopia
//! group = south-america
//! lat = -10.5
//! lon = -55.0
//! mean_ci = 45
//! mix = hydro:0.8, wind:0.2
//! ```
//!
//! Every key is optional (see [`Region::from_pairs`] for the full set);
//! the CLI wires this up as `--data FILE --regions SIDECAR`.

use crate::error::TraceError;
use crate::region::Region;
use crate::sections::{parse_sections, Section, SectionError};
use crate::time::Resolution;

/// Everything a sidecar can declare: regions plus optional
/// dataset-level facts from a `[dataset]` section.
#[derive(Debug, Clone, Default)]
pub struct SidecarDoc {
    /// Regions, in declaration order.
    pub regions: Vec<Region>,
    /// Declared sample resolution of the accompanying data file
    /// (`[dataset] resolution = 5`), if any.
    pub resolution: Option<Resolution>,
}

/// Parses a sidecar document into regions, in declaration order.
///
/// Convenience wrapper over [`parse_sidecar`] for callers that only
/// need the region metadata; a `[dataset]` section is still validated
/// but its facts are dropped.
pub fn parse_region_sidecar(text: &str) -> Result<Vec<Region>, TraceError> {
    Ok(parse_sidecar(text)?.regions)
}

/// Parses a sidecar document: `[region CODE]` sections plus at most one
/// `[dataset]` section declaring file-level facts (currently
/// `resolution = <minutes>`, validated against the divisors of 60).
pub fn parse_sidecar(text: &str) -> Result<SidecarDoc, TraceError> {
    let mut doc = SidecarDoc::default();
    for section in parse_sections(text, &["region CODE", "dataset"])? {
        if section.kind == "region" {
            push_region(&mut doc.regions, &section)?;
            continue;
        }
        section.reject_unknown(&["resolution"])?;
        let Some(raw) = section.get("resolution") else {
            continue;
        };
        let line = section.line_of("resolution");
        if doc.resolution.is_some() {
            return Err(SectionError::new(line, "duplicate key `resolution` in [dataset]").into());
        }
        let minutes: u32 = raw
            .parse()
            .map_err(|_| SectionError::new(line, format!("bad resolution `{raw}` (minutes)")))?;
        doc.resolution =
            Some(Resolution::from_minutes(minutes).map_err(|e| SectionError::new(line, e))?);
    }
    Ok(doc)
}

/// Builds the region a `[region CODE]` section declares (the code
/// upper-cased) and appends it to `regions`. Unknown keys point at
/// their own line; bad values and a code declared twice point at the
/// header. Sidecars and scenario files both declare regions through
/// this one function.
pub fn push_region(regions: &mut Vec<Region>, section: &Section) -> Result<(), SectionError> {
    section.reject_unknown(Region::KNOWN_KEYS)?;
    let region = Region::from_pairs(&section.name.to_uppercase(), section.pairs())
        .map_err(|e| section.error(e))?;
    if regions.iter().any(|r| r.code == region.code) {
        return Err(section.error(format!("duplicate region `{}`", section.name)));
    }
    regions.push(region);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::GeoGroup;

    const EXAMPLE: &str = include_str!("../../../examples/regions.sidecar");

    #[test]
    fn sidecar_parses_regions_in_order() {
        let regions = parse_region_sidecar(EXAMPLE).unwrap();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].code, "XX-HYDRO", "codes are upper-cased");
        assert_eq!(regions[0].name, "Hydrotopia");
        assert_eq!(regions[0].group, GeoGroup::SouthAmerica);
        assert_eq!(regions[1].code, "XX-COAL");
        assert_eq!(regions[1].mean_ci_2022, 700.0);
        assert_eq!(regions[1].group, GeoGroup::Other, "defaults fill gaps");
    }

    #[test]
    fn empty_sidecar_is_fine() {
        assert!(parse_region_sidecar("# nothing\n").unwrap().is_empty());
    }

    #[test]
    fn dataset_section_declares_resolution() {
        let doc = parse_sidecar(
            "[dataset]\nresolution = 5\n\n[region XX-A]\nname = Alpha\n[region XX-B]\n",
        )
        .unwrap();
        assert_eq!(doc.resolution, Some(Resolution::from_minutes(5).unwrap()));
        assert_eq!(doc.regions.len(), 2);
        assert_eq!(doc.regions[0].name, "Alpha");
        // No [dataset] section → no declared resolution.
        assert_eq!(parse_sidecar(EXAMPLE).unwrap().resolution, None);
        // parse_region_sidecar tolerates (and drops) the section.
        assert!(parse_region_sidecar("[dataset]\nresolution = 15\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn dataset_section_rejects_bad_resolutions() {
        for (text, needle) in [
            ("[dataset]\nresolution = 7\n", "invalid resolution 7"),
            ("[dataset]\nresolution = 0\n", "invalid resolution 0"),
            ("[dataset]\nresolution = soon\n", "bad resolution"),
            (
                "[dataset]\nresolution = 5\nresolution = 10\n",
                "duplicate key `resolution`",
            ),
            (
                "[dataset]\ncadence = 5\n",
                "unknown key `cadence` in [dataset]",
            ),
        ] {
            let error = parse_sidecar(text).unwrap_err();
            assert!(format!("{error}").contains(needle), "{text:?}: {error}");
        }
    }

    #[test]
    fn malformed_sidecars_error_with_line_numbers() {
        for (text, line, needle) in [
            ("name = X\n", 1, "before any section header"),
            ("[region\n", 1, "unterminated"),
            ("[zone XX]\n", 1, "`[region CODE]`"),
            ("[region]\n", 1, "`[region CODE]`"),
            ("[region XX extra]\n", 1, "`[region CODE]`"),
            ("[region XX]\nname X\n", 2, "expected `key = value`"),
            ("[region XX]\nname = A\nname = B\n", 3, "duplicate key"),
            ("[region XX]\ngroup = atlantis\n", 1, "unknown geography"),
            (
                "[region XX]\nflux = 1\n",
                2,
                "unknown key `flux` in [region XX]",
            ),
            ("[region XX]\n\n[region XX]\n", 3, "duplicate region"),
        ] {
            let error = parse_region_sidecar(text).unwrap_err();
            let TraceError::Parse {
                line: at, message, ..
            } = error
            else {
                panic!("{text:?}: wrong error kind");
            };
            assert_eq!(at, line, "{text:?}: {message}");
            assert!(message.contains(needle), "{text:?}: {message}");
        }
    }
}
