//! Ablation benchmarks for the design choices called out in DESIGN.md §4.
//!
//! Each pair compares the optimized kernel used by `decarb-core` against
//! the naive alternative it replaced, on identical inputs.

use std::hint::black_box;

use decarb_bench::Harness;
use decarb_core::ksmallest::SlidingKSmallest;
use decarb_core::temporal::TemporalPlanner;
use decarb_sim::{CarbonAgnostic, SimConfig, Simulator, ThresholdSuspend};
use decarb_stats::autocorr::autocorrelation;
use decarb_stats::periodicity::detect_periods;
use decarb_traces::rng::Xoshiro256;
use decarb_traces::time::year_start;
use decarb_traces::{builtin_dataset, Hour, RegionId, TimeSeries};
use decarb_workloads::{Job, Slack};

fn synthetic_trace(n: usize) -> Vec<f64> {
    let mut rng = Xoshiro256::seeded(0xBE7C);
    (0..n)
        .map(|t| {
            300.0 + 120.0 * (std::f64::consts::TAU * t as f64 / 24.0).sin() + 40.0 * rng.normal()
        })
        .map(|v| v.max(1.0))
        .collect()
}

/// Naive deferral: rescan the whole slack window per arrival.
fn naive_deferral_sweep(values: &[f64], count: usize, slots: usize, slack: usize) -> Vec<f64> {
    (0..count)
        .map(|a| {
            let last = (a + slack).min(values.len() - slots);
            (a..=last)
                .map(|s| values[s..s + slots].iter().sum())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Naive interruptibility: sort every window.
fn naive_interruptible_sweep(values: &[f64], count: usize, slots: usize, slack: usize) -> Vec<f64> {
    (0..count)
        .map(|a| {
            let end = (a + slots + slack).min(values.len());
            let mut window = values[a..end].to_vec();
            window.sort_by(f64::total_cmp);
            window.iter().take(slots).sum()
        })
        .collect()
}

fn bench_kernel_deferral(h: &Harness) {
    let values = synthetic_trace(24 * 120);
    let series = TimeSeries::new(Hour(0), values.clone());
    let planner = TemporalPlanner::new(&series);
    let slots = 24;
    let slack = 168;
    let count = values.len() - slots - slack;
    h.bench("kernels/deferral/monotonic_deque", || {
        black_box(planner.deferral_sweep(Hour(0), count, slots, slack))
    });
    h.bench("kernels/deferral/naive_rescan", || {
        black_box(naive_deferral_sweep(&values, count, slots, slack))
    });
}

fn bench_kernel_ksmallest(h: &Harness) {
    let values = synthetic_trace(24 * 120);
    let series = TimeSeries::new(Hour(0), values.clone());
    let planner = TemporalPlanner::new(&series);
    let slots = 24;
    let slack = 168;
    let count = values.len() - slots - slack;
    h.bench("kernels/ksmallest/two_multiset_sliding", || {
        black_box(planner.interruptible_sweep(Hour(0), count, slots, slack))
    });
    h.bench("kernels/ksmallest/sort_per_window", || {
        black_box(naive_interruptible_sweep(&values, count, slots, slack))
    });
}

fn bench_kernel_prefix(h: &Harness) {
    let values = synthetic_trace(8760);
    let series = TimeSeries::new(Hour(0), values.clone());
    let prefix = series.chunked_prefix();
    h.bench("kernels/prefix/prefix_sum_queries", || {
        let mut acc = 0.0;
        for from in (0..8000).step_by(7) {
            acc += prefix.sum(Hour(from as u32), 168);
        }
        black_box(acc)
    });
    h.bench("kernels/prefix/direct_summation", || {
        let mut acc = 0.0;
        for from in (0..8000).step_by(7) {
            acc += values[from..from + 168].iter().sum::<f64>();
        }
        black_box(acc)
    });
}

fn bench_kernel_period(h: &Harness) {
    let values = synthetic_trace(8760);
    h.bench("kernels/period/fft_periodogram_detect", || {
        black_box(detect_periods(&values, 0.2))
    });
    h.bench("kernels/period/brute_acf_scan", || {
        // Scan every candidate lag up to a week.
        let best = (2..=168)
            .map(|lag| (lag, autocorrelation(&values, lag)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        black_box(best)
    });
}

fn bench_sliding_structure_scaling(h: &Harness) {
    let values = synthetic_trace(20_000);
    for window in [48usize, 336, 2048] {
        h.bench(&format!("kernels/sliding_scaling/k16/{window}"), || {
            let mut s = SlidingKSmallest::new(16);
            let mut acc = 0.0;
            for i in 0..values.len() {
                s.insert(values[i]);
                if i >= window {
                    s.remove(values[i - window]);
                }
                acc += s.k_sum();
            }
            black_box(acc)
        });
    }
}

/// The `Simulator::run` hot path at scenario-matrix scale: a year of
/// hourly steps over five datacenters with 150 interruptible jobs.
/// Tracks the placement (job move, not clone), per-step CI buffer, and
/// hoisted-series-lookup optimizations.
fn bench_kernel_sim(h: &Harness) {
    let data = builtin_dataset();
    let regions: Vec<RegionId> = ["US-CA", "DE", "GB", "SE", "IN-WE"]
        .iter()
        .map(|c| data.id_of(c).expect("bench region"))
        .collect();
    let start = year_start(2022);
    let jobs: Vec<Job> = (0..150u64)
        .map(|i| {
            let origin = regions[(i % 5) as usize];
            Job::batch(
                i,
                origin,
                start.plus(11 + (i as usize / 5) * 263),
                24.0,
                Slack::Week,
            )
            .with_interruptible()
        })
        .collect();
    h.bench("kernels/sim/run_year_5dc_150jobs_agnostic", || {
        let mut sim = Simulator::new(&data, &regions, SimConfig::new(start, 8760, 64));
        black_box(sim.run(&mut CarbonAgnostic, &jobs))
    });
    h.bench("kernels/sim/run_year_5dc_150jobs_threshold", || {
        let mut sim = Simulator::new(&data, &regions, SimConfig::new(start, 8760, 64));
        black_box(sim.run(&mut ThresholdSuspend::default(), &jobs))
    });
    h.bench("kernels/sim/scenario_batch_deferral_europe", || {
        let scenario = decarb_sim::find_scenario("batch-deferral-europe").expect("built-in");
        black_box(scenario.run(&data))
    });
}

/// The dataset's region-resolution paths: the string edge
/// (`series(code)`, one hash + map probe per call) against the dense
/// interned path (`series_by_id`, one bounds-checked index) the
/// simulator's step loop now runs on. 123 regions × 1000 rounds.
fn bench_region_lookup(h: &Harness) {
    let data = builtin_dataset();
    let codes: Vec<String> = data.regions().iter().map(|r| r.code.clone()).collect();
    let ids: Vec<RegionId> = data.ids().collect();
    h.bench("kernels/traces/lookup_by_code_123x1000", || {
        let mut acc = 0usize;
        for _ in 0..1000 {
            for code in &codes {
                acc += data.series(code).expect("known code").len();
            }
        }
        black_box(acc)
    });
    h.bench("kernels/traces/lookup_by_id_123x1000", || {
        let mut acc = 0usize;
        for _ in 0..1000 {
            for &id in &ids {
                acc += data.series_by_id(id).len();
            }
        }
        black_box(acc)
    });
}

/// The same year / five datacenters / 150 jobs as
/// `kernels/sim/run_year_5dc_150jobs_agnostic`, but on a 5-minute axis
/// (105,120 slots per trace, 12× denser). The event-driven loop must
/// hold the denser axis within ~3× the hourly row's wall-clock
/// (acceptance bar recorded in BASELINE.md). The core row measures the
/// planner's deferral query at the same 105k-sample scale.
fn bench_subhourly(h: &Harness) {
    use decarb_traces::time::hours_in_year;
    use decarb_traces::{Resolution, TraceSet};

    let data = builtin_dataset();
    let start = year_start(2022);
    let hours = hours_in_year(2022);
    let codes = ["US-CA", "DE", "GB", "SE", "IN-WE"];
    let year = TraceSet::from_series(
        data.iter()
            .filter(|(r, _)| codes.contains(&r.code.as_str()))
            .map(|(r, s)| {
                (
                    r.clone(),
                    s.slice(start, hours).expect("builtin covers 2022"),
                )
            })
            .collect(),
    );
    let five_min = Resolution::from_minutes(5).expect("5 divides 60");
    let fine = year
        .resample_to(five_min)
        .expect("hourly embeds losslessly");
    let regions: Vec<RegionId> = codes
        .iter()
        .map(|c| fine.id_of(c).expect("bench region"))
        .collect();
    let fine_start = Hour(start.0 * 12);
    let jobs: Vec<Job> = (0..150u64)
        .map(|i| {
            let origin = regions[(i % 5) as usize];
            Job::batch(
                i,
                origin,
                Hour(start.plus(11 + (i as usize / 5) * 263).0 * 12),
                24.0,
                Slack::Week,
            )
            .with_interruptible()
        })
        .collect();
    let horizon = hours * 12;
    h.bench("kernels/sim/subhourly_year_event_driven", || {
        let config = SimConfig::new(fine_start, horizon, 64);
        let mut sim = Simulator::new(&fine, &regions, config);
        black_box(sim.run(&mut CarbonAgnostic, &jobs))
    });
    let series = fine.series_by_id(regions[1]);
    let planner = TemporalPlanner::with_resolution(series, five_min);
    let last_start = series.len() - (24 + 168) * 12;
    h.bench("kernels/core/sweep_5min", || {
        let mut acc = 0.0;
        for offset in (0..last_start).step_by(97) {
            let p = planner.best_deferred(Hour(fine_start.0 + offset as u32), 24 * 12, 168 * 12);
            acc += p.cost_g;
        }
        black_box(acc)
    });
}

/// Dataset cold start: parsing the year-long 123-zone CSV export
/// against decoding the equivalent binary trace container (plus the
/// one-time packing cost). Both inputs live in memory, so the rows
/// compare pure parse/decode work with no disk noise.
fn bench_trace_container(h: &Harness) {
    use decarb_traces::time::hours_in_year;
    use decarb_traces::{container, csv, TraceSet};
    let data = builtin_dataset();
    let start = year_start(2022);
    let hours = hours_in_year(2022);
    let year = TraceSet::from_series(
        data.iter()
            .map(|(r, s)| {
                (
                    r.clone(),
                    s.slice(start, hours).expect("builtin covers 2022"),
                )
            })
            .collect(),
    );
    let mut csv_bytes = Vec::new();
    csv::write_dataset(&year, &mut csv_bytes).expect("in-memory write");
    let csv_text = String::from_utf8(csv_bytes).expect("CSV is UTF-8");
    let packed = container::encode(&year).expect("builtin coverage is uniform");
    h.bench("kernels/traces/load_csv", || {
        black_box(csv::read_dataset_str_with(&csv_text, &[]).expect("round-trips"))
    });
    h.bench("kernels/traces/load_container", || {
        black_box(container::decode(&packed, "bench").expect("verifies"))
    });
    h.bench("kernels/traces/pack_container", || {
        black_box(container::encode(&year).expect("builtin coverage is uniform"))
    });
}

/// The shared planner cache against the per-placement rebuild it
/// replaced: one scenario-sized deferral run under each policy, plus a
/// ≥500-scenario matrix sweep through the scenario engine (which shares
/// one cache across every scenario and worker thread).
fn bench_planner_cache(h: &Harness) {
    use decarb_sim::scenario::{OverheadKind, PolicyKind, RegionSet, ScenarioMatrix};
    use decarb_sim::{CachedDeferral, PlannedDeferral, PlannerCache};
    use decarb_workloads::{Arrival, WorkloadSpec};

    let data = builtin_dataset();
    let regions: Vec<RegionId> = RegionSet::Europe.resolve(&data);
    let start = year_start(2022);
    let spec = WorkloadSpec::Batch {
        per_origin: 12,
        arrival: Arrival::fixed(24),
        length_hours: 8.0,
        slack: Slack::Day,
        interruptible: true,
    };
    let jobs = spec.materialize(&regions, start);
    h.bench("kernels/sim/deferral_96jobs_rebuild_per_placement", || {
        let mut sim = Simulator::new(&data, &regions, SimConfig::new(start, 16 * 24, 8));
        black_box(sim.run(&mut PlannedDeferral, &jobs))
    });
    h.bench("kernels/sim/deferral_96jobs_shared_cache", || {
        let cache = PlannerCache::new();
        let mut sim = Simulator::new(&data, &regions, SimConfig::new(start, 16 * 24, 8));
        black_box(sim.run(&mut CachedDeferral::new(&cache), &jobs))
    });
    // A 540-entry matrix (capacity × overhead axes on deferral-heavy
    // policies) through the scenario engine's shared-cache fan-out.
    let matrix = ScenarioMatrix {
        workloads: vec![("batch".to_string(), spec)],
        policies: vec![
            PolicyKind::CarbonAgnostic,
            PolicyKind::PlannedDeferral,
            PolicyKind::ThresholdSuspend,
        ],
        region_sets: RegionSet::ALL.iter().map(|&s| s.into()).collect(),
        overheads: OverheadKind::ALL.to_vec(),
        capacities: vec![
            2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 96, 128, 192, 256,
            384, 512, 768, 1024, 2048, 4096, 8192,
        ],
        forecaster: decarb_sim::ForecasterKind::Seasonal,
        slo_ms: decarb_sim::scenario::SPATIOTEMPORAL_SLO_MS,
        start,
        horizon: 16 * 24,
    };
    let scenarios = matrix.expand();
    assert!(
        scenarios.len() >= 500,
        "sweep is {} scenarios",
        scenarios.len()
    );
    h.bench("kernels/sim/matrix_540_shared_cache", || {
        black_box(decarb_sim::run_scenarios(&data, &scenarios))
    });

    // The sweep pipeline's non-simulation stages at the same 540-entry
    // scale: planning (validation + content addressing), partitioning
    // into 8 shards, and merging 4 shard report documents. These are
    // the per-process overheads a sharded multi-process sweep pays on
    // top of raw simulation time.
    use decarb_sim::sweep::{merge_reports, SweepPlan};
    h.bench("kernels/sweep/plan_540", || {
        black_box(SweepPlan::plan(&data, scenarios.clone()).expect("plan validates"))
    });
    let plan = SweepPlan::plan(&data, scenarios.clone()).expect("plan validates");
    h.bench("kernels/sweep/shard_partition_540x8", || {
        let shards: Vec<_> = (0..8)
            .map(|i| plan.shard(8, i).expect("index in range"))
            .collect();
        black_box(shards)
    });
    let shard_docs: Vec<decarb_json::Value> = (0..4)
        .map(|i| {
            let shard = plan.shard(4, i).expect("index in range");
            decarb_json::Value::Array(shard.execute(&data).iter().map(|r| r.to_json()).collect())
        })
        .collect();
    let names = plan.names();
    h.bench("kernels/sweep/merge_540_reports_4shards", || {
        black_box(merge_reports(Some(&names), &shard_docs).expect("shards merge"))
    });
}

/// The placement service's request path at its three depths: the raw
/// planner query (`Snapshot::place`, what the ≥10k decisions/sec
/// budget in ISSUE/BASELINE is about), the full HTTP handler
/// (dispatch + JSON parse/render on top), and the request parser
/// alone — plus the keep-alive connection loop end to end (64
/// pipelined requests through reused buffers), a 64-job batch through
/// one `POST /v1/place`, and the off-path cost a reload pays: building
/// a full 123-zone snapshot with prewarmed planners.
fn bench_serve(h: &Harness) {
    use decarb_serve::{handle_connection, read_request, PlacementService};
    use decarb_sim::{PlaceRequest, Snapshot};
    use std::io::BufReader;

    let data = builtin_dataset();
    let snapshot = Snapshot::build(std::sync::Arc::clone(&data), 1);
    let origins: Vec<RegionId> = ["PL", "DE", "US-CA", "IN-WE", "SE", "AU-NSW", "GB", "FR"]
        .iter()
        .map(|c| data.id_of(c).expect("bench region"))
        .collect();
    let start = year_start(2022);
    // 64 distinct queries cycled per iteration so the row measures a
    // mixed request stream, not one memoized answer.
    let queries: Vec<PlaceRequest> = (0..64)
        .map(|i| PlaceRequest {
            origin: origins[i % origins.len()],
            arrival: start.plus((i * 131) % 8000),
            duration_hours: 1 + i % 12,
            slack_hours: 6 * (i % 5),
            slo_ms: [0.0, 50.0, 150.0, 1000.0][i % 4],
        })
        .collect();
    let cursor = std::cell::Cell::new(0usize);
    h.bench("kernels/serve/place", || {
        let i = cursor.get();
        cursor.set(i + 1);
        black_box(
            snapshot
                .place(&queries[i % queries.len()])
                .expect("in bounds"),
        )
    });

    let service = PlacementService::new(std::sync::Arc::clone(&data));
    let bodies: Vec<String> = queries
        .iter()
        .map(|q| {
            format!(
                r#"{{"origin":"{}","arrival_hour":{},"duration_hours":{},"slack_hours":{},"slo_ms":{}}}"#,
                data.code(q.origin),
                q.arrival.0,
                q.duration_hours,
                q.slack_hours,
                q.slo_ms
            )
        })
        .collect();
    let requests: Vec<decarb_serve::Request> = bodies
        .iter()
        .map(|b| {
            let length = b.len().to_string();
            decarb_serve::Request::synthetic(
                "POST",
                "/v1/place",
                &[("content-length", &length)],
                b.as_bytes(),
            )
        })
        .collect();
    h.bench("kernels/serve/handle_place", || {
        let i = cursor.get();
        cursor.set(i + 1);
        black_box(service.handle(&requests[i % requests.len()]))
    });

    let raw = format!(
        "POST /v1/place HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
        bodies[0].len(),
        bodies[0]
    );
    h.bench("kernels/serve/parse_request", || {
        let mut reader = BufReader::new(raw.as_bytes());
        black_box(read_request(&mut reader).expect("well-formed"))
    });

    // The keep-alive connection loop end to end: all 64 queries
    // pipelined over one simulated connection, parsed into reused
    // buffers and answered through `handle_connection` exactly as a
    // live TCP worker would run them. Compare against 64×
    // `handle_place` + 64× `parse_request` to see the loop's own cost.
    let mut pipelined = Vec::new();
    for body in &bodies {
        use std::io::Write as _;
        write!(
            pipelined,
            "POST /v1/place HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .expect("in-memory write");
    }
    h.bench("kernels/serve/keepalive_place", || {
        let mut reader = BufReader::new(pipelined.as_slice());
        let mut sink = std::io::sink();
        black_box(handle_connection(
            &service,
            &mut reader,
            &mut sink,
            u64::MAX,
        ))
    });

    // The same 64 queries as one batch `POST /v1/place` body: a single
    // parse + par_map fan-out + one rendered summary document.
    let batch_body = format!("[{}]", bodies.join(","));
    let length = batch_body.len().to_string();
    let batch_request = decarb_serve::Request::synthetic(
        "POST",
        "/v1/place",
        &[("content-length", &length)],
        batch_body.as_bytes(),
    );
    h.bench("kernels/serve/batch_place", || {
        black_box(service.handle(&batch_request))
    });

    h.bench("kernels/serve/snapshot_build_123z", || {
        black_box(Snapshot::build(std::sync::Arc::clone(&data), 1))
    });
}

fn bench_analyze(h: &Harness) {
    // The static-analysis gate CI runs on every push: lexing + linting
    // the whole workspace (root facade plus every crate's src/ tree),
    // file I/O included — this is the latency a contributor pays for
    // `decarb-cli analyze --workspace`. The second row isolates the
    // token-level lint pass on one in-memory source (a realistic
    // ~40-line module repeated to ~10k lines) so lexer throughput is
    // pinned independently of the filesystem.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("bench crate lives at <root>/crates/bench");
    h.bench("kernels/analyze/workspace", || {
        black_box(decarb_analyze::analyze_workspace(root).expect("workspace scans"))
    });
    let module = "\
fn shift(xs: &[f64], out: &mut Vec<f64>) {\n\
    for (i, x) in xs.iter().enumerate() {\n\
        let scaled = x * 0.5 + (i as f64);\n\
        out.push(scaled.max(0.0));\n\
    }\n\
}\n\
fn window(xs: &[f64]) -> f64 {\n\
    let head = match xs.first() { Some(v) => *v, None => return 0.0 };\n\
    xs.iter().fold(head, |acc, v| acc.min(*v))\n\
}\n";
    let hot = "// decarb-analyze: hot-path\n\
fn hot(xs: &[f64]) -> f64 { xs.iter().sum() }\n";
    let source = format!("{hot}{}", module.repeat(10_000 / module.lines().count()));
    let config = decarb_analyze::LintConfig { no_panic: true };
    h.bench("kernels/analyze/lint_source_10k_lines", || {
        black_box(decarb_analyze::lint_source("bench.rs", &source, &config))
    });
}

fn main() {
    let h = Harness::from_args("kernels");
    bench_kernel_deferral(&h);
    bench_kernel_ksmallest(&h);
    bench_kernel_prefix(&h);
    bench_kernel_period(&h);
    bench_sliding_structure_scaling(&h);
    bench_kernel_sim(&h);
    bench_subhourly(&h);
    bench_region_lookup(&h);
    bench_trace_container(&h);
    bench_planner_cache(&h);
    bench_serve(&h);
    bench_analyze(&h);
    std::process::exit(h.finish());
}
