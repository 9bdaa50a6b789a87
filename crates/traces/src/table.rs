//! The interned region table: dense [`RegionId`]s over owned [`Region`]s.
//!
//! Every layer above the trace substrate used to pass `&'static Region`
//! / `&'static str` around, which welded the whole system to the
//! built-in 123-zone catalog and put a string hash on every hour×region
//! step of the simulator. A [`RegionTable`] interns an arbitrary set of
//! regions into dense `u16` ids: string lookups happen once at the API
//! edge ([`RegionTable::id`]), and everything downstream — trace
//! storage, datacenters, planners, routing, job origins — indexes flat
//! `Vec`s by id. The built-in catalog is just one pre-interned table
//! ([`RegionTable::builtin`]); imported datasets and scenario files
//! build their own.
//!
//! Ids are *per-table*: `RegionId(3)` names different zones in
//! different tables, so an id is only meaningful next to the table (or
//! [`crate::TraceSet`]) that produced it. Within one table ids are
//! stable: interning never reorders or invalidates earlier ids.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::catalog;
use crate::error::TraceError;
use crate::region::Region;

/// A dense handle to an interned region, valid for the table that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u16);

impl RegionId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An interning table of regions with dense, stable ids.
#[derive(Debug, Clone, Default)]
pub struct RegionTable {
    regions: Vec<Region>,
    index: HashMap<String, RegionId>,
}

impl RegionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table by interning `regions` in order.
    ///
    /// Duplicate codes are a [`TraceError::Parse`]-free error surfaced
    /// as `Err` from [`RegionTable::intern`]; this constructor
    /// propagates the first one.
    pub fn from_regions(regions: Vec<Region>) -> Result<Self, TraceError> {
        let mut table = Self::new();
        for region in regions {
            table.intern(region)?;
        }
        Ok(table)
    }

    /// The built-in 123-zone catalog as a shared, pre-interned table.
    pub fn builtin() -> &'static RegionTable {
        static BUILTIN: OnceLock<RegionTable> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            RegionTable::from_regions(catalog::builtin_catalog().to_vec())
                // decarb-analyze: allow(no-panic) -- catalog code uniqueness is pinned by the catalog tests
                .expect("catalog codes are unique")
        })
    }

    /// Interns `region`, returning its new id. Codes are unique per
    /// table; re-interning an existing code is an error (use
    /// [`RegionTable::id`] to look it up instead).
    pub fn intern(&mut self, region: Region) -> Result<RegionId, TraceError> {
        if self.index.contains_key(&region.code) {
            return Err(TraceError::DuplicateRegion(region.code));
        }
        let id = RegionId(
            u16::try_from(self.regions.len())
                .map_err(|_| TraceError::TableFull(self.regions.len()))?,
        );
        self.index.insert(region.code.clone(), id);
        self.regions.push(region);
        Ok(id)
    }

    /// Looks a code up at the string edge.
    pub fn id(&self, code: &str) -> Option<RegionId> {
        self.index.get(code).copied()
    }

    /// The region behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    #[inline]
    pub fn get(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// The zone code behind `id` (panics on a foreign id).
    #[inline]
    pub fn code(&self, id: RegionId) -> &str {
        &self.regions[id.index()].code
    }

    /// Number of interned regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// `true` while nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// All interned regions, indexable by [`RegionId::index`].
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Iterates `(id, region)` in intern order.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, &Region)> + '_ {
        self.regions
            .iter()
            .enumerate()
            .map(|(i, r)| (RegionId(i as u16), r))
    }

    /// All ids, in intern order.
    pub fn ids(&self) -> impl Iterator<Item = RegionId> + 'static {
        (0..self.regions.len() as u16).map(RegionId)
    }

    /// Lexicographic rank of every id's zone code: `ranks[id.index()]`
    /// orders ids exactly as their codes compare as strings. Policies
    /// use this for deterministic integer tie-breaking without holding
    /// string references.
    pub fn lex_ranks(&self) -> Vec<u32> {
        let mut order: Vec<usize> = (0..self.regions.len()).collect();
        order.sort_by(|&a, &b| self.regions[a].code.cmp(&self.regions[b].code));
        let mut ranks = vec![0u32; self.regions.len()];
        for (rank, index) in order.into_iter().enumerate() {
            ranks[index] = rank as u32;
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_stable_ids() {
        let mut table = RegionTable::new();
        assert!(table.is_empty());
        let a = table.intern(Region::user("AA")).unwrap();
        let b = table.intern(Region::user("BB")).unwrap();
        assert_eq!(a, RegionId(0));
        assert_eq!(b, RegionId(1));
        // Earlier ids survive later interning (stability property).
        for i in 0..50 {
            table.intern(Region::user(&format!("Z{i:02}"))).unwrap();
            assert_eq!(table.id("AA"), Some(a));
            assert_eq!(table.id("BB"), Some(b));
            assert_eq!(table.code(a), "AA");
        }
        assert_eq!(table.len(), 52);
        assert!(!table.is_empty());
    }

    #[test]
    fn round_trip_code_to_id_to_region() {
        let table = RegionTable::builtin();
        assert_eq!(table.len(), 123);
        for (id, region) in table.iter() {
            assert_eq!(table.id(&region.code), Some(id), "{}", region.code);
            assert_eq!(table.get(id).code, region.code);
            assert_eq!(table.code(id), region.code);
        }
        assert_eq!(
            table.id("SE").map(|id| table.get(id).name.as_str()),
            Some("Sweden")
        );
        assert!(table.id("NOPE").is_none());
    }

    #[test]
    fn builtin_table_is_shared_and_matches_catalog_order() {
        let a = RegionTable::builtin();
        let b = RegionTable::builtin();
        assert!(std::ptr::eq(a, b));
        for (i, region) in catalog::builtin_catalog().iter().enumerate() {
            assert_eq!(a.id(&region.code), Some(RegionId(i as u16)));
        }
    }

    #[test]
    fn duplicate_codes_are_rejected() {
        let mut table = RegionTable::new();
        table.intern(Region::user("AA")).unwrap();
        let err = table.intern(Region::user("AA")).unwrap_err();
        assert!(matches!(err, TraceError::DuplicateRegion(code) if code == "AA"));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn from_regions_round_trips() {
        let regions = vec![Region::user("AA"), Region::user("BB")];
        let table = RegionTable::from_regions(regions).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(
            table.ids().collect::<Vec<_>>(),
            vec![RegionId(0), RegionId(1)]
        );
        let dup = vec![Region::user("AA"), Region::user("AA")];
        assert!(RegionTable::from_regions(dup).is_err());
    }

    #[test]
    fn display_form_is_compact() {
        assert_eq!(RegionId(7).to_string(), "r7");
        assert_eq!(RegionId(7).index(), 7);
    }
}
