//! Latency-aware global request routing.
//!
//! §5.1.3 of the paper studies interactive workloads that can be served
//! from any datacenter within a latency SLO. This example sweeps SLOs for
//! requests originating in Germany and reports where they may run, which
//! feasible region is greenest, and what the carbon price of latency is.
//!
//! Run with `cargo run --release --example global_router`.

use decarb::core::latency::rtt_ms;
use decarb::traces::builtin_dataset;

fn main() {
    let data = builtin_dataset();
    let means = data.annual_means(2022);
    let mean_of = |code: &str| {
        means
            .iter()
            .find(|(r, _)| r.code == code)
            .map(|(_, m)| *m)
            .expect("region known")
    };
    let origin = "DE";
    let home = data.region(origin).expect("region known");
    println!(
        "interactive requests from {origin} (local grid {:.0} g/kWh)",
        mean_of(origin)
    );
    println!(
        "{:>8} | {:>9} | {:<10} | {:>12} | saving vs local",
        "SLO ms", "feasible", "greenest", "g/kWh there"
    );
    for slo in [10.0, 25.0, 50.0, 100.0, 150.0, 250.0] {
        let feasible: Vec<&str> = data
            .regions()
            .iter()
            .filter(|r| rtt_ms(home, r) <= slo)
            .map(|r| r.code.as_str())
            .collect();
        let best = feasible
            .iter()
            .min_by(|a, b| mean_of(a).total_cmp(&mean_of(b)))
            .copied()
            .unwrap_or(origin);
        let best_mean = mean_of(best);
        println!(
            "{:>8.0} | {:>9} | {:<10} | {:>12.1} | {:>6.1} g/kWh",
            slo,
            feasible.len(),
            best,
            best_mean,
            mean_of(origin) - best_mean,
        );
    }
    println!();
    println!("a ~25 ms budget already unlocks most of Europe's green regions;");
    println!("the paper's Fig. 6(a) shows the same saturation globally by ~250 ms.");
}
