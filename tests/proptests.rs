//! Property-based tests over the core data structures and kernels.
//!
//! Each scheduling kernel is checked against a brute-force oracle on
//! randomized inputs, and the capacity/greener transforms are checked
//! for their conservation and bounding invariants. Inputs come from the
//! seeded generator in `common` (see its module docs for why proptest
//! itself is not used).

mod common;

use common::{Gen, CASES};
use decarb::core::capacity::{water_filling, IdleCapacity};
use decarb::core::greener::{greener_trace, ADDED_RENEWABLE_CI};
use decarb::core::temporal::TemporalPlanner;
use decarb::stats::fft::{fft, ifft, Complex};
use decarb::stats::kmeans::kmeans;
use decarb::traces::{Hour, Region, TimeSeries};

/// A positive carbon trace of 30–300 hourly samples.
fn trace(g: &mut Gen) -> Vec<f64> {
    g.vec_in(1.0, 900.0, 30, 300)
}

/// Oracle: sum of the k smallest values of a slice.
fn naive_k_sum(values: &[f64], k: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.iter().take(k).sum()
}

#[test]
fn deferral_sweep_matches_naive() {
    for case in 0..CASES {
        let mut g = Gen::new("deferral_sweep", case);
        let values = trace(&mut g);
        let slots = g.usize_in(1, 6);
        let slack = g.usize_in(0, 30);
        let series = TimeSeries::new(Hour(0), values.clone());
        let planner = TemporalPlanner::new(&series);
        let count = values.len() - slots;
        let sweep = planner.deferral_sweep(Hour(0), count, slots, slack);
        for (a, &swept) in sweep.iter().enumerate() {
            // Naive: scan all allowed starts.
            let last = (a + slack).min(values.len() - slots);
            let mut best = f64::INFINITY;
            for s in a..=last {
                let cost: f64 = values[s..s + slots].iter().sum();
                if cost < best {
                    best = cost;
                }
            }
            assert!((swept - best).abs() < 1e-6, "case {case} arrival {a}");
        }
    }
}

#[test]
fn interruptible_sweep_matches_naive() {
    for case in 0..CASES {
        let mut g = Gen::new("interruptible_sweep", case);
        let mut values = trace(&mut g);
        if case % 2 == 1 {
            // Tie-heavy: integers from a small set.
            let levels = g.usize_in(1, 5);
            for v in &mut values {
                *v = g.usize_in(0, levels) as f64;
            }
        }
        let slots = g.usize_in(1, 6);
        let slack = g.usize_in(0, 30);
        let series = TimeSeries::new(Hour(0), values.clone());
        let planner = TemporalPlanner::new(&series);
        let count = values.len() + 1 - slots;
        let sweep = planner.interruptible_sweep(Hour(0), count, slots, slack);
        assert_eq!(sweep.len(), count, "case {case}");
        for a in 0..count {
            let end = (a + slots + slack).min(values.len());
            let expected = naive_k_sum(&values[a..end], slots);
            assert!(
                (sweep[a] - expected).abs() < 1e-6,
                "case {case} arrival {a}"
            );
        }
    }
}

#[test]
fn interruptible_never_beats_window_minimum() {
    for case in 0..CASES {
        let mut g = Gen::new("interruptible_window_min", case);
        // Draw long enough traces that `slots + slack` always fits.
        let values = g.vec_in(1.0, 900.0, 40, 300);
        let slots = g.usize_in(1, 6);
        let slack = g.usize_in(0, 30);
        let series = TimeSeries::new(Hour(0), values.clone());
        let planner = TemporalPlanner::new(&series);
        let (hours, cost) = planner.best_interruptible(Hour(0), slots, slack);
        assert_eq!(hours.len(), slots, "case {case}");
        // Cost is at least slots × the global window minimum.
        let min = values[..slots + slack]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(cost >= min * slots as f64 - 1e-9, "case {case}");
        // And no worse than the best contiguous window.
        let deferred = planner.best_deferred(Hour(0), slots, slack).cost_g;
        assert!(cost <= deferred + 1e-9, "case {case}");
    }
}

#[test]
fn prefix_sums_match_direct() {
    for case in 0..CASES {
        let mut g = Gen::new("prefix_sums", case);
        let values = trace(&mut g);
        let series = TimeSeries::new(Hour(7), values.clone());
        let prefix = series.chunked_prefix();
        let n = values.len();
        for from in (0..n).step_by(11) {
            for len in [0, 1, n / 3, n - from] {
                if from + len > n {
                    continue;
                }
                let direct: f64 = values[from..from + len].iter().sum();
                let fast = prefix.sum(Hour(7 + from as u32), len);
                assert!((direct - fast).abs() < 1e-6, "case {case} from {from}");
            }
        }
    }
}

#[test]
fn fft_roundtrip() {
    for case in 0..CASES {
        let mut g = Gen::new("fft_roundtrip", case);
        let re = g.vec_in(-100.0, 100.0, 1, 65);
        let n = re.len().next_power_of_two();
        let mut data: Vec<Complex> = re.iter().map(|&r| Complex::new(r, 0.0)).collect();
        data.resize(n, Complex::default());
        let original = data.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in data.iter().zip(&original) {
            assert!((a.re - b.re).abs() < 1e-6, "case {case}");
            assert!((a.im - b.im).abs() < 1e-6, "case {case}");
        }
    }
}

#[test]
fn fft_preserves_energy() {
    for case in 0..CASES {
        let mut g = Gen::new("fft_energy", case);
        let re = g.vec_in(-100.0, 100.0, 1, 65);
        // Parseval: sum |x|^2 = (1/N) sum |X|^2.
        let n = re.len().next_power_of_two();
        let mut data: Vec<Complex> = re.iter().map(|&r| Complex::new(r, 0.0)).collect();
        data.resize(n, Complex::default());
        let time_energy: f64 = data.iter().map(|c| c.norm_sq()).sum();
        fft(&mut data);
        let freq_energy: f64 = data.iter().map(|c| c.norm_sq()).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() < 1e-4 * time_energy.max(1.0),
            "case {case}"
        );
    }
}

#[test]
fn water_filling_invariants() {
    for case in 0..CASES {
        let mut g = Gen::new("water_filling", case);
        let mut means = g.vec_in(5.0, 900.0, 2, 40);
        let idle = g.usize_in(0, 100) as f64 / 100.0;
        // Attach synthetic means to distinct catalog regions.
        let catalog = decarb::traces::builtin_catalog();
        means.truncate(catalog.len());
        let regions: Vec<(&'static Region, f64)> = catalog
            .iter()
            .zip(means.iter())
            .map(|(r, &m)| (r, m))
            .collect();
        let outcome = water_filling(&regions, IdleCapacity::Fraction(idle), &|_, _| true);
        // Emissions never increase.
        assert!(outcome.after_g <= outcome.before_g + 1e-9, "case {case}");
        // Moves only go to strictly greener regions.
        let mean_of = |code: &str| regions.iter().find(|(r, _)| r.code == code).unwrap().1;
        for a in &outcome.assignments {
            assert!(mean_of(&a.to) < mean_of(&a.from), "case {case}");
            assert!(a.amount > 0.0, "case {case}");
        }
        // No recipient exceeds its idle capacity.
        for (region, _) in &regions {
            let received: f64 = outcome
                .assignments
                .iter()
                .filter(|a| a.to == region.code)
                .map(|a| a.amount)
                .sum();
            assert!(received <= idle + 1e-9, "case {case}");
        }
        // Moved load is bounded by the total load.
        assert!(
            (0.0..=1.0 + 1e-9).contains(&outcome.moved_fraction),
            "case {case}"
        );
    }
}

#[test]
fn greener_trace_bounded_and_monotone() {
    for case in 0..CASES {
        let mut g = Gen::new("greener_trace", case);
        let values = g.vec_in(30.0, 900.0, 24, 96);
        let p = g.f64_in(0.0, 0.95);
        let base = TimeSeries::new(Hour(0), values.clone());
        let greener = greener_trace(&base, p, 0);
        for ((_, gr), (_, b)) in greener.iter().zip(base.iter()) {
            assert!(
                gr <= b + 1e-9,
                "case {case}: never dirtier than the base grid"
            );
            assert!(gr >= ADDED_RENEWABLE_CI.min(b) - 1e-9, "case {case}");
        }
        assert!(greener.mean() <= base.mean() + 1e-9, "case {case}");
    }
}

#[test]
fn kmeans_assignments_are_valid() {
    for case in 0..CASES {
        let mut g = Gen::new("kmeans_valid", case);
        let count = g.usize_in(1, 60);
        let points: Vec<Vec<f64>> = (0..count)
            .map(|_| vec![g.f64_in(-50.0, 50.0), g.f64_in(-50.0, 50.0)])
            .collect();
        let k = g.usize_in(1, 5);
        let result = kmeans(&points, k, 99, 100).unwrap();
        assert_eq!(result.assignments.len(), points.len(), "case {case}");
        for &a in &result.assignments {
            assert!(a < result.centroids.len(), "case {case}");
        }
        // Each point is assigned to its nearest centroid.
        for (p, &a) in points.iter().zip(&result.assignments) {
            let d = |c: &Vec<f64>| -> f64 { c.iter().zip(p).map(|(x, y)| (x - y) * (x - y)).sum() };
            let assigned = d(&result.centroids[a]);
            for c in &result.centroids {
                assert!(assigned <= d(c) + 1e-9, "case {case}");
            }
        }
    }
}

/// A random region with every metadata axis the container serializes:
/// group, providers, hyperscale flag, coordinates, calibration targets,
/// and a random (normalized) generation mix.
fn random_region(g: &mut Gen, code: String) -> decarb::traces::Region {
    use decarb::traces::{EnergyMix, GeoGroup, Providers};
    let groups = [
        GeoGroup::Africa,
        GeoGroup::Asia,
        GeoGroup::Europe,
        GeoGroup::NorthAmerica,
        GeoGroup::SouthAmerica,
        GeoGroup::Oceania,
        GeoGroup::Other,
    ];
    let mut providers = Providers::NONE;
    for flag in [
        Providers::GCP,
        Providers::AZURE,
        Providers::AWS,
        Providers::IBM,
        Providers::ALIBABA,
    ] {
        if g.usize_in(0, 2) == 1 {
            providers = providers.union(flag);
        }
    }
    let mut shares = [0.0f64; 9];
    for share in &mut shares {
        if g.usize_in(0, 2) == 1 {
            *share = g.f64_in(0.0, 5.0);
        }
    }
    // At least one positive share, or EnergyMix::new panics.
    shares[g.usize_in(0, 9)] += g.f64_in(0.1, 3.0);
    decarb::traces::Region {
        name: format!("Zone {code}"),
        code,
        group: groups[g.usize_in(0, groups.len())],
        lat: g.f64_in(-80.0, 80.0),
        lon: g.f64_in(-179.0, 179.0),
        providers,
        mix: EnergyMix::new(shares),
        mean_ci_2022: g.f64_in(5.0, 900.0),
        ci_delta_2020_2022: g.f64_in(-80.0, 80.0),
        daily_cv: g.f64_in(0.0, 0.4),
        periodicity: g.f64_in(0.0, 1.0),
        hyperscale_set: g.usize_in(0, 2) == 1,
    }
}

/// A random uniform-coverage dataset of `regions × hours` samples.
fn random_trace_set(g: &mut Gen, case: u64, start: Hour, hours: usize) -> decarb::traces::TraceSet {
    let region_count = g.usize_in(1, 8);
    let pairs = (0..region_count)
        .map(|i| {
            let region = random_region(g, format!("Z{case}-{i}"));
            let values = g.vec_in(1.0, 900.0, hours, hours + 1);
            (region, TimeSeries::new(start, values))
        })
        .collect();
    decarb::traces::TraceSet::from_series(pairs)
}

/// Field-by-field region equality, floats compared by bit pattern
/// (`Region` itself has no `PartialEq`).
fn assert_region_bits_eq(a: &decarb::traces::Region, b: &decarb::traces::Region, case: u64) {
    use decarb::traces::Source;
    assert_eq!(a.code, b.code, "case {case}");
    assert_eq!(a.name, b.name, "case {case}");
    assert_eq!(a.group, b.group, "case {case}: {}", a.code);
    assert_eq!(a.providers, b.providers, "case {case}: {}", a.code);
    assert_eq!(
        a.hyperscale_set, b.hyperscale_set,
        "case {case}: {}",
        a.code
    );
    for (x, y) in [
        (a.lat, b.lat),
        (a.lon, b.lon),
        (a.mean_ci_2022, b.mean_ci_2022),
        (a.ci_delta_2020_2022, b.ci_delta_2020_2022),
        (a.daily_cv, b.daily_cv),
        (a.periodicity, b.periodicity),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "case {case}: {}", a.code);
    }
    for source in Source::ALL {
        assert_eq!(
            a.mix.share(source).to_bits(),
            b.mix.share(source).to_bits(),
            "case {case}: {} share of {}",
            source.label(),
            a.code
        );
    }
}

/// Bit-exact dataset equality: intern order, ids, metadata, values.
fn assert_trace_set_bits_eq(a: &decarb::traces::TraceSet, b: &decarb::traces::TraceSet, case: u64) {
    assert_eq!(a.len(), b.len(), "case {case}");
    for ((id_a, ra, sa), (id_b, rb, sb)) in a.iter_ids().zip(b.iter_ids()) {
        assert_eq!(id_a, id_b, "case {case}");
        assert_region_bits_eq(ra, rb, case);
        assert_eq!(sa.start(), sb.start(), "case {case}: {}", ra.code);
        assert_eq!(sa.len(), sb.len(), "case {case}: {}", ra.code);
        for (va, vb) in sa.values().iter().zip(sb.values()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "case {case}: {}", ra.code);
        }
    }
}

#[test]
fn container_roundtrip_is_bit_exact() {
    use decarb::traces::container;
    for case in 0..CASES {
        let mut g = Gen::new("container_roundtrip", case);
        let start = Hour(g.usize_in(0, 40_000) as u32);
        let hours = g.usize_in(1, 240);
        let set = random_trace_set(&mut g, case, start, hours);
        let bytes = container::encode(&set).unwrap();
        let back = container::decode(&bytes, "prop").unwrap();
        assert_trace_set_bits_eq(&set, &back, case);
        let info = container::probe(&bytes, "prop").unwrap();
        assert_eq!(info.regions, set.len(), "case {case}");
        assert_eq!(info.hours, hours, "case {case}");
        assert_eq!(info.start, start, "case {case}");
    }
}

#[test]
fn container_append_equals_one_shot_pack() {
    use decarb::traces::container;
    for case in 0..CASES {
        let mut g = Gen::new("container_append", case);
        let start = Hour(g.usize_in(0, 40_000) as u32);
        let hours = g.usize_in(2, 240);
        let full = random_trace_set(&mut g, case, start, hours);
        // Split at a random interior hour; the update re-sends a random
        // amount of stored history ahead of the new rows (append must
        // ignore the overlap).
        let cut = g.usize_in(1, hours);
        let overlap = g.usize_in(0, cut + 1).min(cut);
        let slice_set = |from: usize, len: usize| -> decarb::traces::TraceSet {
            decarb::traces::TraceSet::from_series(
                full.iter()
                    .map(|(r, s)| {
                        (
                            r.clone(),
                            s.slice(Hour(start.0 + from as u32), len).unwrap(),
                        )
                    })
                    .collect(),
            )
        };
        let first = slice_set(0, cut);
        let update = slice_set(cut - overlap, hours - cut + overlap);
        let packed_first = container::encode(&first).unwrap();
        let (appended, added) = container::append(&packed_first, "prop", &update, false).unwrap();
        assert_eq!(added, hours - cut, "case {case}");
        let grown = container::decode(&appended, "prop").unwrap();
        let one_shot = container::decode(&container::encode(&full).unwrap(), "prop").unwrap();
        assert_trace_set_bits_eq(&grown, &one_shot, case);
        // The appended file verifies and reports the grown shape.
        let info = container::probe(&appended, "prop").unwrap();
        assert_eq!(info.hours, hours, "case {case}");
        assert_eq!(info.segments, 2, "case {case}");
    }
}

/// Runs one job alone on an uncapacitated deployment of every region
/// of `data` and returns its emissions, g.
fn emissions_alone(
    data: &decarb::traces::TraceSet,
    policy: &mut dyn decarb::sim::Policy,
    job: &decarb::workloads::Job,
    horizon: usize,
) -> f64 {
    use decarb::sim::{SimConfig, Simulator};
    let regions: Vec<_> = data.ids().collect();
    let config = SimConfig::new(job.arrival, horizon, 1 << 20);
    let report = Simulator::new(data, &regions, config).run(policy, std::slice::from_ref(job));
    assert_eq!(report.completed_count(), 1, "job {} must finish", job.id);
    report.emissions_of(job.id).unwrap()
}

/// The clairvoyant bound oracle: no online policy beats the cheapest
/// contiguous window `decarb-core` computes on the true trace, and the
/// clairvoyant policy meets it exactly. Interruptible jobs are bounded
/// by the window's cheapest slots, spatial placement by the cheapest
/// window over the origin and every region within the latency SLO.
/// Checked on hourly data and its 5-minute replica.
#[test]
fn online_policies_never_beat_the_clairvoyant_bound() {
    use decarb::core::latency::rtt_ms;
    use decarb::forecast::{Persistence, SeasonalNaive};
    use decarb::sim::{
        ForecastDeferral, ForecastSuspend, PlannedDeferral, SpatioTemporal, ThresholdSuspend,
    };
    use decarb::traces::{builtin_dataset, Resolution, TraceSet};
    use decarb::workloads::{Job, Slack};

    let builtin = builtin_dataset();
    let hourly = TraceSet::from_series(
        ["DE", "PL", "SE", "FR"]
            .iter()
            .map(|code| {
                let id = builtin.id_of(code).unwrap();
                (
                    builtin.region_by_id(id).clone(),
                    builtin.series_by_id(id).clone(),
                )
            })
            .collect(),
    );
    let fine = hourly
        .resample_to(Resolution::from_minutes(5).unwrap())
        .unwrap();
    let ids: Vec<_> = hourly.ids().collect();
    let first = hourly.series_by_id(ids[0]).start();
    let hours = hourly.series_by_id(ids[0]).len();
    let slacks = [Slack::None, Slack::Day, Slack::Week, Slack::TenX];
    let slos = [0.0, 15.0, 30.0, 60.0, f64::INFINITY];
    // Half the kernel properties' cases: each runs six policies on two
    // axes.
    for case in 0..CASES / 2 {
        let mut g = Gen::new("clairvoyant_bound", case);
        let origin = ids[g.usize_in(0, ids.len())];
        let length_hours = g.usize_in(1, 13);
        let slack = slacks[g.usize_in(0, slacks.len())];
        let slo_ms = slos[g.usize_in(0, slos.len())];
        let window = slack.hours(length_hours as f64) + length_hours;
        let arrival_hour = g.usize_in(28 * 24, hours - window - 1);
        for data in [&hourly, &fine] {
            let resolution = data.resolution();
            let sph = resolution.slots_per_hour();
            let arrival = Hour((first.0 as usize + arrival_hour) as u32 * sph as u32);
            let job = Job::batch(case, origin, arrival, length_hours as f64, slack);
            let slots = job.length_slots_at(resolution);
            let slack_slots = job.slack_slots_at(resolution);
            let horizon = slots + slack_slots + sph;
            let bound_in = |id| {
                TemporalPlanner::for_region(data, id)
                    .best_deferred(arrival, slots, slack_slots)
                    .cost_g
                    * job.length_hours
                    / slots as f64
            };
            let at = |msg: &str| format!("case {case} ({msg}) at {} min", resolution.minutes());

            let bound = bound_in(origin);
            let planned = emissions_alone(data, &mut PlannedDeferral, &job, horizon);
            assert!(
                (planned - bound).abs() <= 1e-9 * bound.abs(),
                "{}: planned {planned} vs bound {bound}",
                at("deferral")
            );
            let seasonal = SeasonalNaive::daily_at(resolution);
            for (name, emitted) in [
                (
                    "forecast seasonal",
                    emissions_alone(data, &mut ForecastDeferral::new(seasonal), &job, horizon),
                ),
                (
                    "forecast persistence",
                    emissions_alone(data, &mut ForecastDeferral::new(Persistence), &job, horizon),
                ),
            ] {
                assert!(
                    emitted >= bound * (1.0 - 1e-9),
                    "{}: {emitted} beats bound {bound}",
                    at(name)
                );
            }

            // Interruptible: no suspend/resume schedule beats running in
            // the window's `slots` cheapest slots.
            let (_, cheapest) = TemporalPlanner::for_region(data, origin).best_interruptible(
                arrival,
                slots,
                slack_slots,
            );
            let interruptible_bound = cheapest * job.length_hours / slots as f64;
            let flexible = job.with_interruptible();
            for (name, emitted) in [
                (
                    "threshold",
                    emissions_alone(data, &mut ThresholdSuspend::default(), &flexible, horizon),
                ),
                (
                    "forecast suspend",
                    emissions_alone(
                        data,
                        &mut ForecastSuspend::new(seasonal),
                        &flexible,
                        horizon,
                    ),
                ),
            ] {
                assert!(
                    emitted >= interruptible_bound * (1.0 - 1e-9),
                    "{}: {emitted} beats bound {interruptible_bound}",
                    at(name)
                );
            }

            let home = data.region_by_id(origin);
            let spatial_bound = ids
                .iter()
                .filter(|&&r| r == origin || rtt_ms(home, data.region_by_id(r)) <= slo_ms)
                .map(|&r| bound_in(r))
                .fold(f64::INFINITY, f64::min);
            let mut combined = SpatioTemporal::new(data, &ids, slo_ms, seasonal);
            let emitted = emissions_alone(data, &mut combined, &job, horizon);
            assert!(
                emitted >= spatial_bound * (1.0 - 1e-9),
                "{}: {emitted} beats bound {spatial_bound} (slo {slo_ms} ms)",
                at("spatiotemporal")
            );
        }
    }
}
