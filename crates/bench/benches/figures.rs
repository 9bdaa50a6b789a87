//! One benchmark group per paper table/figure.
//!
//! Figure-level timings go through the experiment registry (the same
//! uniform pipeline `decarb-cli run` uses); kernel-scale
//! rows below time the computation behind the figure directly.

use std::hint::black_box;

use decarb_bench::Harness;
use decarb_core::capacity::{water_filling, IdleCapacity};
use decarb_core::spatial::lower_envelope;
use decarb_core::temporal::TemporalPlanner;
use decarb_experiments::context::shared;
use decarb_experiments::registry;
use decarb_stats::periodicity::periodicity_score;
use decarb_traces::time::{hours_in_year, year_start};
use decarb_traces::Region;

/// Times one registry experiment end-to-end.
fn bench_experiment(h: &Harness, id: &str) {
    let experiment = registry::find(id).expect("known experiment id");
    h.bench(&format!("figures/registry/{id}"), || {
        black_box(experiment.run(shared()))
    });
}

fn bench_fig4_kernel(h: &Harness) {
    let data = shared().data();
    let start = year_start(2022);
    let len = hours_in_year(2022);
    let window = data
        .series("US-CA")
        .expect("trace")
        .window(start, len)
        .expect("year")
        .to_vec();
    h.bench("figures/kernel/periodicity_score_one_region_year", || {
        black_box(periodicity_score(&window, 24))
    });
}

fn bench_fig5_kernel(h: &Harness) {
    let means = shared().data().annual_means(2022);
    let feasible = |_: &Region, _: &Region| true;
    h.bench("figures/kernel/water_filling_123_regions", || {
        black_box(water_filling(
            &means,
            IdleCapacity::Fraction(0.5),
            &feasible,
        ))
    });
}

fn bench_fig6_kernels(h: &Harness) {
    let regions: Vec<&decarb_traces::Region> = shared().regions().iter().collect();
    let data = shared().data();
    let start = year_start(2022);
    h.bench("figures/kernel/lower_envelope_global_week", || {
        black_box(lower_envelope(data, &regions, start, 168))
    });
}

/// Times one region's full-year sweep — the unit of work Figs. 7–10 fan
/// out over 123 regions × 7 lengths × slacks.
fn bench_fig7to10_kernels(h: &Harness) {
    let data = shared().data();
    let planner = TemporalPlanner::new(data.series("DE").expect("trace"));
    let start = year_start(2022);
    let count = hours_in_year(2022);
    h.bench(
        "figures/kernel/deferral_sweep_year_24h_job_1y_slack",
        || black_box(planner.deferral_sweep(start, count, 24, 365 * 24)),
    );
    h.bench(
        "figures/kernel/interruptible_sweep_year_24h_job_1y_slack",
        || black_box(planner.interruptible_sweep(start, count, 24, 365 * 24)),
    );
}

fn bench_fig11_kernels(h: &Harness) {
    let data = shared().data();
    h.bench("figures/kernel/mixed_workload_sweep", || {
        black_box(decarb_core::mixed::migratable_sweep(
            data,
            &[0.0, 0.5, 1.0],
            2022,
        ))
    });
    let base = data
        .series("US-CA")
        .expect("trace")
        .slice(year_start(2022), hours_in_year(2022))
        .expect("year");
    h.bench("figures/kernel/greener_trace_transform_year", || {
        black_box(decarb_core::greener::greener_trace(&base, 0.5, -8))
    });
}

fn bench_fig12_kernel(h: &Harness) {
    let data = shared().data();
    let region = data.region("US-CA").expect("region");
    h.bench("figures/kernel/combined_shift_one_destination", || {
        black_box(decarb_core::combined::combined_shift(
            data, region, 2022, 24, 24,
        ))
    });
}

fn main() {
    let h = Harness::from_args("figures");
    for id in [
        "table1", "fig1", "fig3a", "fig3b", "fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8",
        "fig9", "fig10", "fig11a", "fig11b", "fig11cd", "fig12",
    ] {
        bench_experiment(&h, id);
    }
    bench_fig4_kernel(&h);
    bench_fig5_kernel(&h);
    bench_fig6_kernels(&h);
    bench_fig7to10_kernels(&h);
    bench_fig11_kernels(&h);
    bench_fig12_kernel(&h);
    std::process::exit(h.finish());
}
