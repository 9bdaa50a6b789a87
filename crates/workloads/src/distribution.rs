//! Job-length distributions over the Table 1 length grid.
//!
//! The paper weights per-length carbon reductions by the share of
//! *resource usage* (equivalently energy) each job-length bucket
//! contributes in real cluster traces (§5.2.5). Cloud traces are heavily
//! bimodal: interactive requests dominate job *counts*, while a tiny
//! number of very long jobs dominate resource usage — in the Google trace,
//! ≈ 1 % of jobs running longer than a week account for ≈ 90 % of
//! utilization.

use crate::job::JOB_LENGTHS_HOURS;

/// A distribution of workload resource usage over the 8 job-length buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobLengthDistribution {
    /// Equal resource share per bucket (the paper's Fig. 10(a)).
    Equal,
    /// Azure Public Dataset-like shape (Fig. 10(b)): the heaviest tail —
    /// VM-style long-running allocations dominate usage.
    AzureLike,
    /// Google Borg v3-like shape (Fig. 10(c)): long jobs dominate usage,
    /// slightly less extremely than Azure.
    GoogleLike,
}

impl JobLengthDistribution {
    /// All distributions, in paper order.
    pub const ALL: [JobLengthDistribution; 3] = [
        JobLengthDistribution::Equal,
        JobLengthDistribution::AzureLike,
        JobLengthDistribution::GoogleLike,
    ];

    /// Returns the resource-usage weight of each job-length bucket
    /// (aligned with [`JOB_LENGTHS_HOURS`], summing to 1).
    pub fn resource_weights(self) -> [f64; 8] {
        match self {
            JobLengthDistribution::Equal => [0.125; 8],
            JobLengthDistribution::AzureLike => {
                [0.005, 0.010, 0.020, 0.030, 0.045, 0.070, 0.120, 0.700]
            }
            JobLengthDistribution::GoogleLike => {
                [0.005, 0.015, 0.030, 0.050, 0.080, 0.120, 0.200, 0.500]
            }
        }
    }

    /// Returns the job-*count* weight of each bucket, derived from the
    /// resource weights (count ∝ resource / length, normalized).
    ///
    /// Short jobs dominate counts even when long jobs dominate usage,
    /// matching the bimodality of real cluster traces.
    pub fn count_weights(self) -> [f64; 8] {
        let resource = self.resource_weights();
        let mut counts = [0.0; 8];
        let mut total = 0.0;
        for i in 0..8 {
            counts[i] = resource[i] / JOB_LENGTHS_HOURS[i];
            total += counts[i];
        }
        for c in &mut counts {
            *c /= total;
        }
        counts
    }

    /// Returns a short label for table output.
    pub fn label(self) -> &'static str {
        match self {
            JobLengthDistribution::Equal => "Equal",
            JobLengthDistribution::AzureLike => "Azure",
            JobLengthDistribution::GoogleLike => "Google",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        for dist in JobLengthDistribution::ALL {
            let sum: f64 = dist.resource_weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{dist:?} resource {sum}");
            let sum: f64 = dist.count_weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{dist:?} count {sum}");
        }
    }

    #[test]
    fn cloud_traces_are_long_job_heavy() {
        // §5.2.5: Azure and Google have much higher shares of jobs > 48 h.
        for dist in [
            JobLengthDistribution::AzureLike,
            JobLengthDistribution::GoogleLike,
        ] {
            let w = dist.resource_weights();
            let long: f64 = w[5..].iter().sum();
            assert!(long > 0.7, "{dist:?} long-job share {long}");
        }
        let equal_long: f64 = JobLengthDistribution::Equal.resource_weights()[5..]
            .iter()
            .sum();
        assert!((equal_long - 0.375).abs() < 1e-9);
    }

    #[test]
    fn azure_tail_heavier_than_google() {
        // Matches the paper's ordering of Fig. 10(b) vs (c): Azure's
        // reductions (100 g) are below Google's (112 g) because its
        // longest bucket carries more weight.
        let azure = JobLengthDistribution::AzureLike.resource_weights();
        let google = JobLengthDistribution::GoogleLike.resource_weights();
        assert!(azure[7] > google[7]);
    }

    #[test]
    fn counts_dominated_by_short_jobs() {
        for dist in [
            JobLengthDistribution::AzureLike,
            JobLengthDistribution::GoogleLike,
        ] {
            let c = dist.count_weights();
            assert!(
                c[0] > 0.5,
                "{dist:?}: interactive requests should dominate counts"
            );
            // The week-long bucket is ≈ 1 % of jobs but ≥ 50 % of usage.
            assert!(c[7] < 0.02, "{dist:?} long-job count share {}", c[7]);
        }
    }
}
