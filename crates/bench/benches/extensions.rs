//! Benchmarks for the extension subsystems: forecasting models, elastic
//! scaling, flexible grid load, merit-order dispatch, and the online
//! simulator.
//!
//! Extension figures are timed through the registry like `figures.rs`;
//! the rows below time the underlying kernels.

use std::hint::black_box;

use decarb_bench::Harness;
use decarb_core::elastic::elastic_plan;
use decarb_core::flexload::{allocate_by_average_ci, allocate_flexible};
use decarb_core::signals::compare_signals;
use decarb_experiments::context::shared;
use decarb_experiments::registry;
use decarb_forecast::{
    backtest, BacktestConfig, DiurnalTemplate, Forecaster, LinearAr, Persistence, SeasonalNaive,
};
use decarb_sim::{CarbonAgnostic, SimConfig, Simulator, ThresholdSuspend};
use decarb_traces::grid::{curtailment_grid, two_level_demand};
use decarb_traces::time::year_start;
use decarb_workloads::{Job, Slack};

fn bench_ext_forecast(h: &Harness) {
    let data = shared().data();
    let series = data.series("US-CA").expect("trace");
    let history = series.slice(year_start(2021), 8760).expect("training year");

    // Single 96-hour forecast per model.
    let ar = LinearAr::fit(&history).expect("full-year fit");
    let models: Vec<(&str, Box<dyn Forecaster>)> = vec![
        ("persistence", Box::new(Persistence)),
        ("seasonal_naive", Box::new(SeasonalNaive::daily())),
        ("diurnal_template", Box::new(DiurnalTemplate::default())),
        ("linear_ar", Box::new(ar)),
    ];
    for (name, model) in &models {
        h.bench(&format!("extensions/forecast/predict_96h/{name}"), || {
            black_box(model.predict(&history, 96))
        });
    }
    h.bench("extensions/forecast/fit_linear_ar_1y", || {
        black_box(LinearAr::fit(&history))
    });
    let cfg = BacktestConfig::default();
    h.bench("extensions/forecast/backtest_template_30d", || {
        black_box(backtest(
            &DiurnalTemplate::default(),
            series,
            year_start(2022),
            30 * 24,
            &cfg,
        ))
    });
}

fn bench_ext_elastic(h: &Harness) {
    let data = shared().data();
    let series = data.series("US-CA").expect("trace");
    let arrival = year_start(2022);
    for &m in &[1usize, 8, 48] {
        h.bench(&format!("extensions/elastic/plan_48h_in_7d/{m}"), || {
            black_box(elastic_plan(series, arrival, 48, m, 7 * 24))
        });
    }
    // Scaling in the window length (the sort dominates).
    for &days in &[7usize, 30, 365] {
        h.bench(
            &format!("extensions/elastic/plan_window_days/{days}"),
            || black_box(elastic_plan(series, arrival, 48, 8, days * 24)),
        );
    }
}

fn bench_ext_grid(h: &Harness) {
    let fleet = curtailment_grid();
    let demand = two_level_demand;
    h.bench("extensions/grid/dispatch_week", || {
        black_box(fleet.dispatch_series(decarb_traces::Hour(0), demand, 168))
    });
    h.bench("extensions/grid/allocate_flexible_day", || {
        black_box(allocate_flexible(
            &fleet,
            demand,
            decarb_traces::Hour(0),
            24,
            1200.0,
            100.0,
            25.0,
        ))
    });
    h.bench("extensions/grid/allocate_by_average_day", || {
        black_box(allocate_by_average_ci(
            &fleet,
            demand,
            decarb_traces::Hour(0),
            24,
            1200.0,
            100.0,
        ))
    });
    h.bench("extensions/grid/compare_signals_48h", || {
        black_box(compare_signals(
            &fleet,
            demand,
            decarb_traces::Hour(0),
            48,
            4,
            30,
            100.0,
        ))
    });
}

fn bench_ext_sim(h: &Harness) {
    let data = shared().data();
    let codes = ["US-CA", "DE", "GB", "SE", "IN-WE"];
    let regions: Vec<decarb_traces::RegionId> = codes
        .iter()
        .map(|c| data.id_of(c).expect("region"))
        .collect();
    let start = year_start(2022);
    let jobs: Vec<Job> = (0..50u64)
        .map(|i| {
            Job::batch(
                i + 1,
                regions[(i % 5) as usize],
                start.plus((i as usize) * 150),
                24.0,
                Slack::Week,
            )
            .with_interruptible()
        })
        .collect();
    h.bench("extensions/sim/year_5dc_50jobs_agnostic", || {
        let mut sim = Simulator::new(data, &regions, SimConfig::new(start, 8760, 16));
        black_box(sim.run(&mut CarbonAgnostic, &jobs))
    });
    h.bench("extensions/sim/year_5dc_50jobs_threshold", || {
        let mut sim = Simulator::new(data, &regions, SimConfig::new(start, 8760, 16));
        black_box(sim.run(&mut ThresholdSuspend::default(), &jobs))
    });
}

fn bench_ext_registry(h: &Harness) {
    // End-to-end timings of the extension experiments through the
    // registry. `ext-sim` is deliberately absent: a single run takes
    // tens of seconds, and its simulator hot loop is already timed by
    // the `extensions/sim/*` rows above.
    for id in [
        "ext",
        "ext-forecast",
        "ext-grid",
        "ext-embodied",
        "ext-elastic",
        "ext-rank",
        "ext-pareto",
    ] {
        let experiment = registry::find(id).expect("known experiment id");
        h.bench(&format!("extensions/registry/{id}"), || {
            black_box(experiment.run(shared()))
        });
    }
}

fn main() {
    let h = Harness::from_args("extensions");
    bench_ext_forecast(&h);
    bench_ext_elastic(&h);
    bench_ext_grid(&h);
    bench_ext_sim(&h);
    bench_ext_registry(&h);
    std::process::exit(h.finish());
}
