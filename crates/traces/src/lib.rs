//! Carbon-intensity trace substrate for the `decarb` workspace.
//!
//! The EuroSys '24 paper *On the Limitations of Carbon-Aware Temporal and
//! Spatial Workload Shifting in the Cloud* drives its entire analysis from
//! hourly average carbon-intensity traces of 123 grid regions (2020–2022,
//! Electricity Maps). That dataset is licensed and cannot be redistributed,
//! so this crate provides a faithful synthetic substitute:
//!
//! * a [`Region`] catalog of 123 zones with geography, cloud-provider
//!   presence, and generation mix ([`catalog::builtin_catalog`]);
//! * a deterministic trace [`synth::Synthesizer`] that turns a region's
//!   generation mix into an hourly carbon-intensity [`TimeSeries`] with the
//!   magnitude, daily variability, periodicity, and multi-year drift the
//!   paper reports;
//! * container types ([`TraceSet`]) and CSV I/O used by every other crate.
//!
//! The synthesizer is calibrated against the paper's published anchors
//! (global mean ≈ 368.39 g·CO2eq/kWh, Sweden ≈ 16 g, > 70 % of regions with
//! daily CV < 0.1, 24 h / 168 h periodicity in most datacenter regions) so
//! downstream experiments reproduce the *shape* of every figure.
//!
//! # Examples
//!
//! ```
//! use decarb_traces::{builtin_dataset, GeoGroup};
//!
//! let data = builtin_dataset();
//! assert_eq!(data.len(), 123);
//! let sweden = data.series("SE").unwrap();
//! let europe_zones = data.regions_in_group(GeoGroup::Europe);
//! assert!(!europe_zones.is_empty());
//! assert!(sweden.mean() < 40.0);
//! ```

pub mod catalog;
pub mod container;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod grid;
pub mod mix;
pub mod region;
pub mod rng;
pub mod sections;
pub mod series;
pub mod sidecar;
pub mod synth;
pub mod table;
pub mod time;
pub mod validate;

pub use catalog::builtin_catalog;
pub use container::ContainerInfo;
pub use dataset::{builtin_dataset, TraceSet};
pub use error::TraceError;
pub use mix::{EnergyMix, Source};
pub use region::{GeoGroup, Providers, Region};
pub use series::{ChunkedPrefix, TimeSeries};
pub use sidecar::{parse_region_sidecar, parse_sidecar, SidecarDoc};
pub use synth::{SynthConfig, Synthesizer};
pub use table::{RegionId, RegionTable};
pub use time::{Hour, Resolution, HOURS_PER_DAY, HOURS_PER_YEAR};
pub use validate::{repair, validate, ValidationConfig, ValidationReport};

/// The paper's global average carbon-intensity baseline, in g·CO2eq/kWh.
///
/// Section 3.1.3 defines the *global average reduction* metric as absolute
/// reduction relative to this constant (368.39 g·CO2eq/kWh, the average of
/// the 123 regions in 2022).
pub const GLOBAL_AVG_CI: f64 = 368.39;
