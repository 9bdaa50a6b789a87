//! Cloud workload models for the `decarb` workspace.
//!
//! Implements Table 1 of the paper: the job dimensions (length, slack,
//! deferrability, interruptibility, migratability), the job-length
//! distributions derived from the Azure Public Dataset and Google's Borg
//! v3 trace, synthetic cluster traces, and the declarative workload specs
//! scenarios materialize into jobs.
//!
//! All jobs use the paper's *energy-optimized 100 % usage* resource model:
//! a job draws a constant 1 kW for its whole length, so carbon emissions in
//! g·CO2eq equal the sum of hourly carbon-intensity samples over the hours
//! the job runs.

pub mod cluster_trace;
pub mod distribution;
pub mod job;
pub mod spec;

pub use cluster_trace::{ClusterTrace, ClusterTraceConfig};
pub use distribution::JobLengthDistribution;
pub use job::{Job, JobClass, Slack, JOB_LENGTHS_HOURS};
pub use spec::{Arrival, RecipeError, WorkloadSpec, DEFAULT_ARRIVAL_SEED};
