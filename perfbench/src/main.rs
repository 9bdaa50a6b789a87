//! `perfbench` — the end-to-end and per-layer benchmark of the decarb
//! sweep pipeline and placement service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-hourly|sweep-5min|place|place-batch> \
//!     --seed <n> --seconds <s> --trace <0|1> [--record-reference]
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for what each workload and
//! metric measures.

mod place;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use decarb_traces::{builtin_dataset, container, Resolution};
use trace::Tracer;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// workload that bypasses a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("traces.synth_s", "s"),
    ("traces.decode_s", "s"),
    ("traces.decode_mb", "MB"),
    ("traces.prefix_cache_s", "s"),
    ("snapshot.build_s", "s"),
    ("sweep.plan_ms", "ms"),
    ("sweep.execute_ms", "ms"),
    ("sweep.render_ms", "ms"),
    ("sweep.parallel_efficiency", "ratio"),
    ("sweep.scenarios", "count"),
    ("sweep.jobs", "count"),
    ("sim.prepare_ms", "ms"),
    ("sim.engine_ms", "ms"),
    ("sim.policy.agnostic_ms", "ms"),
    ("sim.policy.deferral_ms", "ms"),
    ("sim.policy.threshold_ms", "ms"),
    ("sim.policy.greenest_ms", "ms"),
    ("sim.policy.forecast_ms", "ms"),
    ("sim.policy.spatiotemporal_ms", "ms"),
    ("sim.jobs_completed", "count"),
    ("sim.migrations", "count"),
    ("sim.missed_deadlines", "count"),
    ("sim.axis_drift_max_pct", "%"),
    ("workloads.materialize_ms", "ms"),
    ("core.planner_builds", "count"),
    ("core.planner_build_ms", "ms"),
    ("core.best_deferred_us", "us"),
    ("serve.read_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.place_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.render_us", "us"),
    ("serve.frame_us", "us"),
    ("serve.conn_loop_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("serve.candidates_per_place", "count"),
    ("serve.requests_served", "count"),
    ("par.batch_speedup", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead.setup_pct", "%"),
    ("trace.overhead.throughput_pct", "%"),
    ("trace.overhead.latency_p50_pct", "%"),
    ("trace.overhead.latency_p99_pct", "%"),
    ("trace.overhead.peak_rss_mb", "MB"),
    ("trace.untraced.throughput_per_s", "1/s"),
    ("trace.untraced.latency_p50_ms", "ms"),
    ("trace.untraced.latency_p99_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (timed operations plus one-off golden checks).
    pub attempted: u64,
    /// Operations whose answer was missing, wrong or not 200.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// The end-to-end figures of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub latency_p50_ms: f64,
    /// Placement only, over single round trips: a sweep run makes too
    /// few passes for a p99 with ten samples beyond it, so the sweeps
    /// leave this at 0.
    pub latency_p99_ms: f64,
    pub peak_rss_mb: f64,
}

impl Figures {
    pub fn record(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        metrics.insert("setup_s", self.setup_s);
        metrics.insert("throughput_per_s", self.throughput_per_s);
        metrics.insert("latency_p50_ms", self.latency_p50_ms);
        metrics.insert("peak_rss_mb", self.peak_rss_mb);
    }

    /// Tracing overhead: each traced figure against the untraced one,
    /// as a percent change, with the untraced base of the latency and
    /// throughput ratios. The memory tracing adds is its span buffer.
    pub fn record_overhead(
        traced: &Figures,
        untraced: &Figures,
        tracer: &Tracer,
        metrics: &mut BTreeMap<&'static str, f64>,
    ) {
        use stats::change_pct;
        let pairs = [
            ("trace.overhead.setup_pct", traced.setup_s, untraced.setup_s),
            (
                "trace.overhead.throughput_pct",
                traced.throughput_per_s,
                untraced.throughput_per_s,
            ),
            (
                "trace.overhead.latency_p50_pct",
                traced.latency_p50_ms,
                untraced.latency_p50_ms,
            ),
            (
                "trace.overhead.latency_p99_pct",
                traced.latency_p99_ms,
                untraced.latency_p99_ms,
            ),
        ];
        for (name, a, b) in pairs {
            metrics.insert(name, change_pct(a, b));
        }
        metrics.insert("trace.overhead.peak_rss_mb", tracer.buffer_mb());
        metrics.insert("trace.untraced.throughput_per_s", untraced.throughput_per_s);
        metrics.insert("trace.untraced.latency_p50_ms", untraced.latency_p50_ms);
        metrics.insert("trace.untraced.latency_p99_ms", untraced.latency_p99_ms);
    }
}

/// Set-ups and timed operations of one half of a run.
///
/// A traced run splits its segments (a set-up and the operations after
/// it) between two halves, untraced and traced, alternately, so that
/// both see the same process state and the same phases of the host.
#[derive(Debug, Default)]
pub struct Half {
    pub setups: Vec<f64>,
    /// Seconds per timed operation, as its latency is defined by the
    /// workload.
    pub latencies: Vec<f64>,
    /// Seconds the timed operations took in all.
    pub busy_s: f64,
    /// Units of work the timed operations completed (jobs).
    pub units: u64,
    /// Placement only: seconds per single round trip, for the p99.
    pub round_trips: Vec<f64>,
    /// Peak resident set of the process at the end of the half's first
    /// segment, MiB; see [`Half::end_segment`].
    pub peak_rss_mb: Option<f64>,
}

impl Half {
    /// The half's figures; throughput is taken over the time its timed
    /// operations took, which leaves out the set-ups between them.
    pub fn figures(&self) -> Figures {
        Figures {
            setup_s: stats::median(&self.setups),
            throughput_per_s: self.units as f64 / self.busy_s,
            latency_p50_ms: stats::median(&self.latencies) * 1e3,
            latency_p99_ms: stats::percentile(&self.round_trips, 99.0) * 1e3,
            peak_rss_mb: self.peak_rss_mb.unwrap_or_else(stats::peak_rss_mb),
        }
    }

    /// Closes a segment. The first one fixes the half's peak resident
    /// set: every later set-up reloads its data into a heap fragmented
    /// by the copies before it, which a process that loads once never
    /// sees. (On `sweep-5min` the peak after the first set-up read
    /// 792.6–792.8 MiB in four runs, after the fifth 892–1051 MiB.)
    pub fn end_segment(&mut self) {
        self.peak_rss_mb.get_or_insert_with(stats::peak_rss_mb);
    }
}

/// The segments of a run, each a set-up followed by timed operations on
/// what it set up, with deadlines evenly spread over `seconds` from the
/// run's start. `setup_s` is the median over the set-ups; spread over
/// the run, they sample as many phases of the host as the operations do
/// rather than one.
pub struct Segments {
    /// Segments in the run.
    pub count: usize,
    /// 2 in a traced run, else 1.
    pub halves: usize,
    seconds: f64,
}

impl Segments {
    /// `setups` segments per half; `halves` is 2 in a traced run.
    pub fn new(halves: usize, setups: usize, seconds: f64) -> Self {
        Segments {
            count: setups * halves,
            halves,
            seconds,
        }
    }

    /// Seconds from the run's start at which segment `k` stops starting
    /// operations.
    pub fn deadline(&self, k: usize) -> f64 {
        self.seconds * (k + 1) as f64 / self.count as f64
    }

    /// The half segment `k` belongs to (0 untraced, 1 traced); pauses
    /// the tracer accordingly.
    pub fn enter(&self, tr: &mut Tracer, k: usize) -> usize {
        let half = k % self.halves;
        tr.pause(self.halves == 2 && half == 0);
        half
    }
}

/// Run settings shared by every workload.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub record_reference: bool,
    /// Untracked files the benchmark writes: packed containers and
    /// span logs.
    pub out_dir: PathBuf,
}

/// SplitMix64: a small, seedable generator for the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_reference: bool,
}

const USAGE: &str = "usage: perfbench --workload <sweep-hourly|sweep-5min|place|place-batch> \
--seed <n> --seconds <s> --trace <0|1> [--record-reference]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut record_reference = false;
    while let Some(flag) = args.next() {
        if flag == "--record-reference" {
            record_reference = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("option `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record_reference,
    })
}

/// Renders the result line: every registered metric, in registry order.
fn result_line(outcome: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite ({value})"));
        }
        metrics.push(format!(
            r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    Ok(format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if !root.join("crates").is_dir() || !root.join("tests/golden").is_dir() {
        return Err("run from the repository root (crates/ and tests/golden/ not found)".into());
    }
    let out_dir = root.join(".perfbench");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let config = Config {
        seed: args.seed,
        seconds: args.seconds,
        record_reference: args.record_reference,
        out_dir,
    };
    // At most two busy threads. The hourly sweep runs on one worker: its
    // executor fans chunks of four scenarios out on scoped threads, and
    // on two workers a pass was barely faster while its median moved by
    // up to 20% between seeds in a quiet phase. The 5-minute sweep keeps
    // two workers to exercise that fan-out; placement runs one client
    // and one server thread, and batches fan out on two.
    let threads = if args.workload == "sweep-hourly" {
        "1"
    } else {
        "2"
    };
    std::env::set_var("DECARB_THREADS", threads);
    let mut outcome = match args.workload.as_str() {
        "sweep-hourly" => sweep::run(sweep::Axis::Hourly, &config, args.trace)?,
        "sweep-5min" => sweep::run(sweep::Axis::FiveMinute, &config, args.trace)?,
        "place" => place::run(place::Mode::Single, &config, args.trace)?,
        "place-batch" => place::run(place::Mode::Batch, &config, args.trace)?,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let names: &[(&str, &str)] = if args.trace {
        // A layer the workload bypasses did no work on it.
        for (name, _) in PER_LAYER {
            outcome.metrics.entry(name).or_insert(0.0);
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    for (name, value) in &outcome.metrics {
        eprintln!("{name:>36} {value}");
    }
    eprintln!(
        "{:>36} {} of {} operations failed (error_rate {})",
        "checks",
        outcome.failed,
        outcome.attempted,
        stats::error_rate(outcome.failed, outcome.attempted)
    );
    result_line(&outcome, names)
}

/// Packs the builtin dataset at `minutes` resolution into `path` once
/// per checkout, untimed. A child process does the packing so that its
/// memory does not count towards this run's `peak_rss_mb`.
pub fn ensure_container(path: &Path, minutes: u32) -> Result<(), String> {
    if path.is_file() {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg("--pack")
        .arg(minutes.to_string())
        .arg(path)
        .status()
        .map_err(|e| format!("packing {}: {e}", path.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("packing {} failed ({status})", path.display()))
    }
}

/// The child side of [`ensure_container`].
fn pack(minutes: &str, path: &str) -> Result<(), String> {
    let minutes: u32 = minutes.parse().map_err(|_| "bad --pack resolution")?;
    let hourly = builtin_dataset();
    if minutes == 60 {
        return container::write_file(&hourly, path).map_err(|e| e.to_string());
    }
    let fine = hourly
        .resample_to(Resolution::from_minutes(minutes)?)
        .map_err(|e| e.to_string())?;
    container::write_file(&fine, path).map_err(|e| e.to_string())
}

extern "C" {
    fn gettid() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set as `sched_getaffinity` and `sched_setaffinity` take it.
type CpuSet = [u64; 16];

/// The id of the calling thread, for [`CpuRotation::advance`].
pub fn thread_id() -> i32 {
    // SAFETY: `gettid` takes no arguments and cannot fail.
    unsafe { gettid() }
}

/// Pins thread `tid` (0 for the calling thread) to `cpu`; threads it
/// starts from then on inherit the pin.
fn pin_thread(tid: i32, cpu: usize) -> Result<(), String> {
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable CPU set of the size passed, and `tid`
    // names a thread of this process.
    if unsafe { sched_setaffinity(tid, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Moves a workload's busy threads together from CPU to CPU, one step
/// at a time, over the first two CPUs the process may use. The virtual
/// CPUs of the host were at times a quarter apart in speed, so a thread
/// left on one of them measured that CPU; stepping every part of an
/// operation to the other CPU gives each operation both.
pub struct CpuRotation {
    cpus: Vec<usize>,
    step: usize,
    /// The calling thread's affinity before the first step.
    allowed: CpuSet,
}

impl CpuRotation {
    /// A rotation that never moves anything.
    pub fn none() -> Self {
        CpuRotation {
            cpus: Vec::new(),
            step: 0,
            allowed: [0; 16],
        }
    }

    /// A rotation over the first two CPUs in the process's affinity mask.
    pub fn over_allowed_cpus() -> Result<Self, String> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable CPU set of the size passed, and
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let cpus: Vec<usize> = (0..mask.len() * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .take(2)
            .collect();
        if cpus.is_empty() {
            return Err("no CPU in the affinity mask".into());
        }
        Ok(CpuRotation {
            cpus,
            step: 0,
            allowed: mask,
        })
    }

    /// Lets the calling thread, and the threads it starts from then on,
    /// run on every CPU it was allowed before the first step again.
    pub fn release(&self) -> Result<(), String> {
        if self.cpus.is_empty() {
            return Ok(());
        }
        // SAFETY: `allowed` is a readable CPU set of the size passed,
        // and pid 0 names the calling thread.
        let size = std::mem::size_of_val(&self.allowed);
        if unsafe { sched_setaffinity(0, size, self.allowed.as_ptr()) } != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }

    /// Pins the calling thread and the threads `others` to the next CPU.
    pub fn advance(&mut self, others: &[i32]) -> Result<(), String> {
        if self.cpus.is_empty() {
            return Ok(());
        }
        let cpu = self.cpus[self.step % self.cpus.len()];
        self.step += 1;
        pin_thread(0, cpu)?;
        for &tid in others {
            pin_thread(tid, cpu)?;
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, minutes, path] = argv.as_slice() {
        if flag == "--pack" {
            return match pack(minutes, path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics this binary reports, with the same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = decarb_json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(decarb_json::Value::Array(items)) = doc.get(key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(decarb_json::Value::String(s)) => s.clone(),
                        _ => panic!("{key} entry without {f}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |names: &[(&str, &str)]| -> Vec<(String, String)> {
            names
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_and_rejects_gaps() {
        let mut outcome = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            outcome.metrics.insert(name, 1.5);
        }
        let line = result_line(&outcome, &END_TO_END).unwrap();
        let doc = decarb_json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&decarb_json::Value::Bool(false)));
        assert_eq!(doc.get("failed"), Some(&decarb_json::Value::from(1.0)));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics.get("setup_s").and_then(|m| m.get("unit")),
            Some(&decarb_json::Value::from("s"))
        );
        outcome.metrics.remove("setup_s");
        assert!(result_line(&outcome, &END_TO_END).is_err());
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
