//! Synthetic cluster-trace generation.
//!
//! Produces a Borg-like stream of jobs whose length mix follows a
//! [`JobLengthDistribution`]'s *count* weights, so the realized resource
//! usage reproduces the distribution's resource weights. Used by the
//! simulator and the workload-weighted experiments as a stand-in for the
//! Azure Public Dataset and Google Borg v3 traces.

use decarb_traces::rng::Xoshiro256;
use decarb_traces::time::{hours_in_year, year_start};
use decarb_traces::{Hour, RegionId};

use crate::distribution::JobLengthDistribution;
use crate::job::{Job, Slack, JOB_LENGTHS_HOURS};

/// Configuration for synthetic cluster-trace generation.
#[derive(Debug, Clone)]
pub struct ClusterTraceConfig {
    /// Year jobs arrive in.
    pub year: i32,
    /// Total number of jobs.
    pub jobs: usize,
    /// Length distribution preset.
    pub distribution: JobLengthDistribution,
    /// Slack applied to every batch job.
    pub slack: Slack,
    /// Whether batch jobs are interruptible.
    pub interruptible: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusterTraceConfig {
    fn default() -> Self {
        Self {
            year: 2022,
            jobs: 10_000,
            distribution: JobLengthDistribution::GoogleLike,
            slack: Slack::Day,
            interruptible: false,
            seed: 0xC1A5_7E12,
        }
    }
}

/// A generated cluster trace: jobs sorted by arrival time.
#[derive(Debug, Clone)]
pub struct ClusterTrace {
    /// Jobs sorted by arrival hour.
    pub jobs: Vec<Job>,
}

impl ClusterTrace {
    /// Generates a trace for `origin` under `config`.
    pub fn generate(origin: RegionId, config: &ClusterTraceConfig) -> Self {
        let mut rng = Xoshiro256::seeded(config.seed);
        let counts = config.distribution.count_weights();
        let start = year_start(config.year).0;
        let span = hours_in_year(config.year) as u32;
        let mut jobs: Vec<Job> = (0..config.jobs as u64)
            .map(|id| {
                let arrival = Hour(start + rng.below(span as usize) as u32);
                let bucket = sample_bucket(&counts, rng.uniform());
                let length = JOB_LENGTHS_HOURS[bucket];
                let job = Job::batch(id, origin, arrival, length, config.slack);
                if config.interruptible {
                    job.with_interruptible()
                } else {
                    job
                }
            })
            .collect();
        jobs.sort_by_key(|j| (j.arrival, j.id));
        Self { jobs }
    }

    /// Returns total resource usage (kWh under the 1 kW model).
    pub fn total_energy_kwh(&self) -> f64 {
        self.jobs.iter().map(|j| j.energy_kwh()).sum()
    }
}

fn sample_bucket(weights: &[f64; 8], u: f64) -> usize {
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn google_trace(jobs: usize) -> ClusterTrace {
        ClusterTrace::generate(
            RegionId(0),
            &ClusterTraceConfig {
                jobs,
                ..ClusterTraceConfig::default()
            },
        )
    }

    #[test]
    fn jobs_sorted_by_arrival_within_year() {
        let trace = google_trace(5_000);
        assert_eq!(trace.jobs.len(), 5_000);
        for pair in trace.jobs.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        let start = year_start(2022);
        let end = Hour(start.0 + 8760);
        assert!(trace
            .jobs
            .iter()
            .all(|j| j.arrival >= start && j.arrival < end));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = google_trace(1_000);
        let b = google_trace(1_000);
        assert_eq!(a.jobs, b.jobs);
    }

    #[test]
    fn long_jobs_dominate_usage_not_count() {
        // §5.2.5: ≈ 1 % of very long jobs account for ≈ 90 % of usage in
        // the Google trace; our week-long bucket alone must dominate.
        let trace = google_trace(200_000);
        let long: Vec<&Job> = trace
            .jobs
            .iter()
            .filter(|j| j.length_hours >= 96.0)
            .collect();
        let count_share = long.len() as f64 / trace.jobs.len() as f64;
        let usage_share =
            long.iter().map(|j| j.energy_kwh()).sum::<f64>() / trace.total_energy_kwh();
        assert!(count_share < 0.03, "count share {count_share}");
        assert!(usage_share > 0.6, "usage share {usage_share}");
    }

    #[test]
    fn realized_usage_matches_resource_weights() {
        let trace = google_trace(300_000);
        let weights = JobLengthDistribution::GoogleLike.resource_weights();
        let total = trace.total_energy_kwh();
        for (i, &len) in JOB_LENGTHS_HOURS.iter().enumerate() {
            let bucket: f64 = trace
                .jobs
                .iter()
                .filter(|j| (j.length_hours - len).abs() < 1e-9)
                .map(|j| j.energy_kwh())
                .sum();
            let share = bucket / total;
            assert!(
                (share - weights[i]).abs() < 0.05,
                "bucket {len}h share {share:.3} vs weight {:.3}",
                weights[i]
            );
        }
    }

    #[test]
    fn empty_trace_is_safe() {
        let trace = ClusterTrace { jobs: Vec::new() };
        assert_eq!(trace.total_energy_kwh(), 0.0);
    }
}
