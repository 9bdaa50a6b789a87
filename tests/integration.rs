//! Cross-crate integration tests: the analytic policies, the simulator,
//! and the dataset must agree with each other and with the paper's
//! qualitative claims.

use decarb::core::spatial::{envelope_planner, inf_migration, one_migration};
use decarb::core::temporal::TemporalPlanner;
use decarb::sim::{PlannedDeferral, SimConfig, Simulator};
use decarb::traces::time::{hours_in_year, year_start};
use decarb::traces::{builtin_dataset, csv, GLOBAL_AVG_CI};
use decarb::workloads::{Job, Slack};

#[test]
fn policy_hierarchy_holds_across_catalog() {
    // Interruptible ≤ deferred ≤ baseline, everywhere, for several shapes.
    let data = builtin_dataset();
    let start = year_start(2022);
    for (i, (region, series)) in data.iter().enumerate() {
        // Sample a third of the catalog to keep the test brisk.
        if i % 3 != 0 {
            continue;
        }
        let planner = TemporalPlanner::new(series);
        for (slots, slack) in [(1usize, 24usize), (24, 24), (48, 168)] {
            let arrival = start.plus(1000 + i * 37);
            let b = planner.baseline_cost(arrival, slots);
            let d = planner.best_deferred(arrival, slots, slack).cost_g;
            let x = planner.best_interruptible(arrival, slots, slack).1;
            assert!(d <= b + 1e-9, "{}: deferred > baseline", region.code);
            assert!(x <= d + 1e-9, "{}: interruptible > deferred", region.code);
            assert!(x > 0.0, "{}: cost must be positive", region.code);
        }
    }
}

#[test]
fn simulator_agrees_with_analytic_planner_across_regions() {
    // Replaying the clairvoyant deferral plan through the discrete-event
    // simulator reproduces the analytic emissions exactly.
    let data = builtin_dataset();
    let start = year_start(2022);
    for code in ["US-CA", "DE", "IN-WE", "AU-SA", "SE"] {
        let region = data.id_of(code).unwrap();
        let mut sim = Simulator::new(&data, &[region], SimConfig::new(start, 24 * 20, 8));
        let job = Job::batch(1, region, start.plus(5), 12.0, Slack::Day);
        let report = sim.run(&mut PlannedDeferral, &[job]);
        let planner = TemporalPlanner::new(data.series(code).unwrap());
        let expected = planner.best_deferred(start.plus(5), 12, 24).cost_g;
        let actual = report.emissions_of(1).expect("job completed");
        assert!(
            (actual - expected).abs() < 1e-6,
            "{code}: sim {actual} vs analytic {expected}"
        );
    }
}

#[test]
fn spatial_shifting_dominates_temporal_shifting() {
    // §6.4 / key takeaway: reductions from migrating to the greenest
    // region exceed reductions from even ideal temporal shifting.
    let data = builtin_dataset();
    let start = year_start(2022);
    let all: Vec<&decarb::traces::Region> = data.regions().iter().collect();
    let arrival = start.plus(4000);
    let slots = 24;
    let mut spatial_beats_temporal = 0;
    let mut considered = 0;
    for (region, series) in data.iter() {
        let planner = TemporalPlanner::new(series);
        let baseline = planner.baseline_cost(arrival, slots);
        let temporal = planner.best_interruptible(arrival, slots, 30 * 24).1;
        let spatial = one_migration(&data, &all, 2022, arrival, slots).cost_g;
        considered += 1;
        if baseline - spatial >= baseline - temporal {
            spatial_beats_temporal += 1;
        }
        let _ = region;
    }
    // Sweden itself (and near-Sweden regions) gain nothing spatially.
    assert!(
        spatial_beats_temporal as f64 / considered as f64 > 0.85,
        "spatial should dominate for most origins ({spatial_beats_temporal}/{considered})"
    );
}

#[test]
fn combined_envelope_planner_beats_pure_policies() {
    // ∞-migration + deferral is at least as good as either alone.
    let data = builtin_dataset();
    let start = year_start(2022);
    let all: Vec<&decarb::traces::Region> = data.regions().iter().collect();
    let arrival = start.plus(2500);
    let slots = 24;
    let slack = 72;
    let combined_planner = envelope_planner(&data, &all, start, 8760);
    let combined = combined_planner.best_deferred(arrival, slots, slack).cost_g;
    let (pure_spatial, _) = inf_migration(&data, &all, arrival, slots);
    assert!(combined <= pure_spatial.cost_g + 1e-9);
    for code in ["DE", "IN-WE", "US-CA"] {
        let planner = TemporalPlanner::new(data.series(code).unwrap());
        let pure_temporal = planner.best_deferred(arrival, slots, slack).cost_g;
        assert!(combined <= pure_temporal + 1e-9, "{code}");
    }
}

#[test]
fn csv_roundtrip_preserves_scheduling_results() {
    let data = builtin_dataset();
    let start = year_start(2022);
    let original = data.series("US-CA").unwrap().slice(start, 24 * 30).unwrap();
    let mut buf = Vec::new();
    csv::write_series(&original, &mut buf).unwrap();
    let restored = csv::read_series(buf.as_slice()).unwrap();
    let a = TemporalPlanner::new(&original).best_deferred(start, 6, 24);
    let b = TemporalPlanner::new(&restored).best_deferred(start, 6, 24);
    assert_eq!(a.start, b.start);
    assert!((a.cost_g - b.cost_g).abs() < 1e-9);
}

#[test]
fn global_average_constant_matches_dataset() {
    let data = builtin_dataset();
    let mean = data.global_mean(2022);
    assert!(
        (mean - GLOBAL_AVG_CI).abs() < 12.0,
        "dataset mean {mean:.2} vs paper constant {GLOBAL_AVG_CI}"
    );
}

#[test]
fn greenest_region_wins_any_window() {
    // One-migration to Sweden beats staying anywhere, for whole-day jobs,
    // in expectation over several arrivals.
    let data = builtin_dataset();
    let start = year_start(2022);
    let all: Vec<&decarb::traces::Region> = data.regions().iter().collect();
    for offset in [100usize, 3000, 6000] {
        let arrival = start.plus(offset);
        let migrated = one_migration(&data, &all, 2022, arrival, 24).cost_g;
        let stay_home: f64 = data
            .series("IN-WE")
            .unwrap()
            .window(arrival, 24)
            .unwrap()
            .iter()
            .sum();
        assert!(migrated < stay_home / 4.0, "offset {offset}");
    }
}

#[test]
fn dataset_supports_full_ideal_slack_window() {
    // A job arriving at the end of 2022 with one-year slack must still
    // find a valid (clamped) window inside the horizon.
    let data = builtin_dataset();
    let planner = TemporalPlanner::new(data.series("DE").unwrap());
    let late_arrival = year_start(2022).plus(hours_in_year(2022) - 1);
    let placement = planner.best_deferred(late_arrival, 168, 365 * 24);
    assert!(placement.start >= late_arrival);
    assert!(placement.cost_g > 0.0);
    let (hours, cost) = planner.best_interruptible(late_arrival, 168, 365 * 24);
    assert_eq!(hours.len(), 168);
    assert!(cost > 0.0);
}
