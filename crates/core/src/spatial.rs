//! Spatial workload shifting: 1-migration and ∞-migration (§3.2.2, §5.1).
//!
//! * **1-migration** moves a job once, to the candidate region with the
//!   lowest annual mean carbon-intensity, and runs it there to completion.
//!   This is the paper's default policy — historical annual averages are
//!   stable, so the destination can be chosen offline.
//! * **∞-migration** is the clairvoyant upper bound: every hour the job
//!   hops (at zero cost) to the instantaneously greenest candidate. Its
//!   cost is the window sum of the candidates' *lower envelope*.
//!
//! §5.1.4's key result is that the two differ by < 10 g·CO2eq: region
//! rank order rarely changes, so a single migration captures nearly all of
//! the benefit.

use decarb_traces::{Hour, Region, TimeSeries, TraceSet};

use crate::temporal::TemporalPlanner;

/// Outcome of a spatial placement.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialOutcome {
    /// Zone code of the chosen destination (for 1-migration) or the
    /// region where the job starts (for ∞-migration).
    pub destination: String,
    /// Carbon cost of the job in g·CO2eq.
    pub cost_g: f64,
}

/// Chooses the 1-migration destination: the candidate with the lowest
/// annual mean CI in `year`.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn one_migration_destination<'a>(
    set: &TraceSet,
    candidates: &[&'a Region],
    year: i32,
) -> &'a Region {
    assert!(!candidates.is_empty(), "candidate set must be non-empty");
    let means = set.annual_means(year);
    candidates
        .iter()
        .min_by(|a, b| {
            let ma = means
                .iter()
                .find(|(r, _)| r.code == a.code)
                .map(|(_, m)| *m);
            let mb = means
                .iter()
                .find(|(r, _)| r.code == b.code)
                .map(|(_, m)| *m);
            ma.unwrap_or(f64::INFINITY)
                .total_cmp(&mb.unwrap_or(f64::INFINITY))
        })
        .copied()
        // decarb-analyze: allow(no-panic) -- asserted non-empty candidate set at fn entry
        .expect("non-empty candidates")
}

/// Runs a job under the 1-migration policy.
pub fn one_migration(
    set: &TraceSet,
    candidates: &[&Region],
    year: i32,
    arrival: Hour,
    slots: usize,
) -> SpatialOutcome {
    let dest = one_migration_destination(set, candidates, year);
    // decarb-analyze: allow(no-panic) -- destination was selected from the same dataset two lines up
    let id = set.id_of(&dest.code).expect("destination trace exists");
    let cost = set.chunked_prefix_by_id(id).sum(arrival, slots);
    SpatialOutcome {
        destination: dest.code.clone(),
        cost_g: cost,
    }
}

/// Builds the per-hour lower envelope of the candidates' traces over
/// `[from, from + len)` — the trace seen by a clairvoyant ∞-migration job.
///
/// # Panics
///
/// Panics if `candidates` is empty or a window is out of range.
// decarb-analyze: hot-path
pub fn lower_envelope(
    set: &TraceSet,
    candidates: &[&Region],
    from: Hour,
    len: usize,
) -> TimeSeries {
    assert!(!candidates.is_empty(), "candidate set must be non-empty");
    let mut env = vec![f64::INFINITY; len];
    for region in candidates {
        // decarb-analyze: allow(no-panic) -- figure harness: candidates are drawn from the dataset
        let series = set.series(&region.code).expect("candidate trace exists");
        let window = series
            .window(from, len)
            // decarb-analyze: allow(no-panic) -- figure harness: envelope windows stay inside the trace year
            .expect("candidate trace covers window");
        for (e, &v) in env.iter_mut().zip(window) {
            *e = e.min(v);
        }
    }
    TimeSeries::new(from, env)
}

/// Runs a job under the clairvoyant ∞-migration policy, returning its
/// cost and the number of migrations performed (changes of argmin region
/// between consecutive hours).
// decarb-analyze: hot-path
pub fn inf_migration(
    set: &TraceSet,
    candidates: &[&Region],
    arrival: Hour,
    slots: usize,
) -> (SpatialOutcome, usize) {
    assert!(!candidates.is_empty(), "candidate set must be non-empty");
    let mut cost = 0.0;
    let mut migrations = 0usize;
    let mut current: Option<&str> = None;
    let mut first: &str = &candidates[0].code;
    for i in 0..slots {
        let hour = arrival.plus(i);
        let (code, value) = candidates
            .iter()
            .map(|r| {
                let v = set
                    .series(&r.code)
                    // decarb-analyze: allow(no-panic) -- figure harness: candidates are drawn from the dataset
                    .expect("candidate trace exists")
                    .get(hour);
                (r.code.as_str(), v)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            // decarb-analyze: allow(no-panic) -- asserted non-empty candidate set at fn entry
            .expect("non-empty candidates");
        cost += value;
        match current {
            None => {
                first = code;
                current = Some(code);
            }
            Some(prev) if prev != code => {
                migrations += 1;
                current = Some(code);
            }
            _ => {}
        }
    }
    (
        SpatialOutcome {
            // decarb-analyze: allow(hot-path) -- one allocation building the return value, after the hourly loop
            destination: first.to_string(),
            cost_g: cost,
        },
        migrations,
    )
}

/// Builds a [`TemporalPlanner`] over the candidates' lower envelope,
/// enabling combined spatial+temporal sweeps (∞-migration plus deferral).
pub fn envelope_planner(
    set: &TraceSet,
    candidates: &[&Region],
    from: Hour,
    len: usize,
) -> TemporalPlanner {
    TemporalPlanner::new(&lower_envelope(set, candidates, from, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::time::year_start;
    use decarb_traces::{builtin_dataset, GeoGroup};

    #[test]
    fn one_migration_picks_sweden_globally() {
        let set = builtin_dataset();
        let all: Vec<&Region> = set.regions().iter().collect();
        let dest = one_migration_destination(&set, &all, 2022);
        assert_eq!(dest.code, "SE");
        let outcome = one_migration(&set, &all, 2022, year_start(2022), 24);
        assert_eq!(outcome.destination, "SE");
        // A day in Sweden costs ≈ 24 × 16 g.
        assert!(outcome.cost_g < 24.0 * 40.0, "cost {}", outcome.cost_g);
    }

    #[test]
    fn one_migration_respects_candidate_set() {
        let set = builtin_dataset();
        let asia = set.regions_in_group(GeoGroup::Asia);
        let dest = one_migration_destination(&set, &asia, 2022);
        assert_eq!(dest.group, GeoGroup::Asia);
        // China Southwest (hydro-heavy) is Asia's greenest zone.
        assert_eq!(dest.code, "CN-SW");
    }

    #[test]
    fn envelope_is_pointwise_minimum() {
        let set = builtin_dataset();
        let candidates: Vec<&Region> = set
            .regions()
            .iter()
            .filter(|r| ["SE", "PL", "DE"].contains(&r.code.as_str()))
            .collect();
        let from = year_start(2022);
        let env = lower_envelope(&set, &candidates, from, 100);
        for i in 0..100 {
            let hour = from.plus(i);
            let min = candidates
                .iter()
                .map(|r| set.series(&r.code).unwrap().get(hour))
                .fold(f64::INFINITY, f64::min);
            assert!((env.get(hour) - min).abs() < 1e-12);
        }
    }

    #[test]
    fn inf_migration_cost_equals_envelope_sum() {
        let set = builtin_dataset();
        let candidates: Vec<&Region> = set
            .regions()
            .iter()
            .filter(|r| ["US-CA", "US-WA", "CA-ON"].contains(&r.code.as_str()))
            .collect();
        let from = year_start(2022);
        let slots = 168;
        let (outcome, migrations) = inf_migration(&set, &candidates, from, slots);
        let env = lower_envelope(&set, &candidates, from, slots);
        let env_sum: f64 = env.values().iter().sum();
        assert!((outcome.cost_g - env_sum).abs() < 1e-9);
        // Hopping more often than once an hour is impossible.
        assert!(migrations < slots);
    }

    #[test]
    fn inf_never_worse_than_one_migration() {
        let set = builtin_dataset();
        let europe = set.regions_in_group(GeoGroup::Europe);
        let from = year_start(2022);
        for offset in [0usize, 1000, 5000] {
            let arrival = from.plus(offset);
            let one = one_migration(&set, &europe, 2022, arrival, 48);
            let (inf, _) = inf_migration(&set, &europe, arrival, 48);
            assert!(inf.cost_g <= one.cost_g + 1e-9);
        }
    }

    #[test]
    fn envelope_planner_supports_deferral() {
        let set = builtin_dataset();
        let all: Vec<&Region> = set.regions().iter().collect();
        let from = year_start(2022);
        let planner = envelope_planner(&set, &all, from, 2000);
        let baseline = planner.baseline_cost(from, 24);
        let deferred = planner.best_deferred(from, 24, 1000).cost_g;
        assert!(deferred <= baseline);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_candidates_panic() {
        let set = builtin_dataset();
        let _ = lower_envelope(&set, &[], year_start(2022), 10);
    }
}
