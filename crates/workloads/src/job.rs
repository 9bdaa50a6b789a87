//! The job model of Table 1.

use decarb_traces::{Hour, RegionId, Resolution};

/// The job-length grid of Table 1, in hours.
///
/// `0.01` h (36 s) models interactive requests; 1–24 h are small batch
/// jobs; 24–168 h are long batch jobs. Values are taken from Google's Borg
/// v3 trace as in the paper.
pub const JOB_LENGTHS_HOURS: [f64; 8] = [0.01, 1.0, 6.0, 12.0, 24.0, 48.0, 96.0, 168.0];

/// Workload class (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Delay-tolerant batch work (training, analytics, simulation).
    Batch,
    /// Latency-sensitive interactive requests (web, inference).
    Interactive,
}

/// Temporal slack: how long a job may be delayed past its arrival
/// (Table 1's deferrability dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slack {
    /// No deferral permitted.
    None,
    /// 24-hour slack, the paper's "practical" setting.
    Day,
    /// 7-day slack.
    Week,
    /// 24-day slack.
    Days24,
    /// 30-day slack.
    Month,
    /// One-year slack, the paper's "ideal" setting.
    Year,
    /// Slack proportional to job length (10× the length).
    TenX,
}

impl Slack {
    /// All slack settings of Table 1 that have a fixed duration.
    pub const FIXED: [Slack; 5] = [
        Slack::Day,
        Slack::Week,
        Slack::Days24,
        Slack::Month,
        Slack::Year,
    ];

    /// Returns the slack in hours for a job of `job_hours` length.
    pub fn hours(self, job_hours: f64) -> usize {
        match self {
            Slack::None => 0,
            Slack::Day => 24,
            Slack::Week => 7 * 24,
            Slack::Days24 => 24 * 24,
            Slack::Month => 30 * 24,
            Slack::Year => 365 * 24,
            Slack::TenX => (job_hours * 10.0).round() as usize,
        }
    }

    /// Returns a short label for table output.
    pub fn label(self) -> &'static str {
        match self {
            Slack::None => "none",
            Slack::Day => "24H",
            Slack::Week => "7D",
            Slack::Days24 => "24D",
            Slack::Month => "30D",
            Slack::Year => "1Y",
            Slack::TenX => "10x",
        }
    }

    /// Parses a slack class from scenario-file text. Accepts the table
    /// labels plus friendlier aliases (case-insensitive): `none`,
    /// `day`/`24h`, `week`/`7d`, `24d`, `month`/`30d`, `year`/`1y`,
    /// `10x`.
    pub fn parse(text: &str) -> Result<Slack, String> {
        match text.trim().to_lowercase().as_str() {
            "none" => Ok(Slack::None),
            "day" | "24h" => Ok(Slack::Day),
            "week" | "7d" => Ok(Slack::Week),
            "24d" => Ok(Slack::Days24),
            "month" | "30d" => Ok(Slack::Month),
            "year" | "1y" => Ok(Slack::Year),
            "10x" => Ok(Slack::TenX),
            other => Err(format!(
                "unknown slack `{other}` (valid: none, day, week, 24d, month, year, 10x)"
            )),
        }
    }
}

/// A schedulable unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Unique identifier.
    pub id: u64,
    /// Workload class.
    pub class: JobClass,
    /// Required execution time in hours (uninterrupted total).
    pub length_hours: f64,
    /// Arrival (submission) hour.
    pub arrival: Hour,
    /// Temporal slack.
    pub slack: Slack,
    /// Whether the job may be suspended and resumed.
    pub interruptible: bool,
    /// Whether the job may migrate to another region.
    pub migratable: bool,
    /// Interned id of the submitting region (resolved against the
    /// active dataset's `RegionTable` at materialization time).
    pub origin: RegionId,
}

impl Job {
    /// Creates a batch job with the given shape.
    pub fn batch(id: u64, origin: RegionId, arrival: Hour, length_hours: f64, slack: Slack) -> Job {
        Job {
            id,
            class: JobClass::Batch,
            length_hours,
            arrival,
            slack,
            interruptible: false,
            migratable: true,
            origin,
        }
    }

    /// Creates an interactive job (no temporal flexibility).
    pub fn interactive(id: u64, origin: RegionId, arrival: Hour) -> Job {
        Job {
            id,
            class: JobClass::Interactive,
            length_hours: 0.01,
            arrival,
            slack: Slack::None,
            interruptible: false,
            migratable: false,
            origin,
        }
    }

    /// Marks the job interruptible and returns it (builder style).
    pub fn with_interruptible(mut self) -> Job {
        self.interruptible = true;
        self
    }

    /// Returns the job length in whole hours, with sub-hour jobs rounded
    /// up to one trace sample (the paper's 1-hour granularity floor).
    pub fn length_slots(&self) -> usize {
        (self.length_hours.ceil() as usize).max(1)
    }

    /// Returns the job length in trace slots at `resolution`, rounded up
    /// to a whole slot. At hourly resolution this equals
    /// [`Job::length_slots`].
    pub fn length_slots_at(&self, resolution: Resolution) -> usize {
        if resolution.is_hourly() {
            return self.length_slots();
        }
        resolution.duration_to_slots(self.length_hours)
    }

    /// Returns the slack window in hours for this job.
    pub fn slack_hours(&self) -> usize {
        self.slack.hours(self.length_hours)
    }

    /// Returns the slack window in trace slots at `resolution`.
    pub fn slack_slots_at(&self, resolution: Resolution) -> usize {
        resolution.hours_to_slots(self.slack_hours())
    }

    /// Returns the total scheduling window (slack + execution) in hours.
    pub fn window_hours(&self) -> usize {
        self.slack_hours() + self.length_slots()
    }

    /// Returns the total scheduling window (slack + execution) in trace
    /// slots at `resolution`.
    pub fn window_slots_at(&self, resolution: Resolution) -> usize {
        self.slack_slots_at(resolution) + self.length_slots_at(resolution)
    }

    /// Returns the energy drawn in kWh under the 1 kW resource model.
    pub fn energy_kwh(&self) -> f64 {
        self.length_hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_hours_grid() {
        assert_eq!(Slack::None.hours(5.0), 0);
        assert_eq!(Slack::Day.hours(5.0), 24);
        assert_eq!(Slack::Week.hours(5.0), 168);
        assert_eq!(Slack::Days24.hours(5.0), 576);
        assert_eq!(Slack::Month.hours(5.0), 720);
        assert_eq!(Slack::Year.hours(5.0), 8760);
        assert_eq!(Slack::TenX.hours(5.0), 50);
        assert_eq!(Slack::TenX.hours(0.01), 0);
    }

    #[test]
    fn labels_cover_table1() {
        let labels: Vec<&str> = Slack::FIXED.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["24H", "7D", "24D", "30D", "1Y"]);
    }

    #[test]
    fn batch_job_defaults() {
        let job = Job::batch(1, RegionId(0), Hour(10), 12.0, Slack::Day);
        assert_eq!(job.class, JobClass::Batch);
        assert!(job.migratable);
        assert!(!job.interruptible);
        assert_eq!(job.length_slots(), 12);
        assert_eq!(job.slack_hours(), 24);
        assert_eq!(job.window_hours(), 36);
        assert!((job.energy_kwh() - 12.0).abs() < 1e-12);
        let job = job.with_interruptible();
        assert!(job.interruptible);
    }

    #[test]
    fn interactive_job_has_no_flexibility() {
        let job = Job::interactive(2, RegionId(1), Hour(0));
        assert_eq!(job.class, JobClass::Interactive);
        assert!(!job.migratable);
        assert_eq!(job.slack_hours(), 0);
        // Sub-hour jobs still occupy one hourly trace slot.
        assert_eq!(job.length_slots(), 1);
    }

    #[test]
    fn job_length_grid_matches_table1() {
        assert_eq!(JOB_LENGTHS_HOURS.len(), 8);
        assert_eq!(JOB_LENGTHS_HOURS[0], 0.01);
        assert_eq!(JOB_LENGTHS_HOURS[7], 168.0);
        for pair in JOB_LENGTHS_HOURS.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn fractional_lengths_round_up_to_slots() {
        let job = Job::batch(3, RegionId(2), Hour(0), 1.5, Slack::None);
        assert_eq!(job.length_slots(), 2);
    }

    #[test]
    fn slot_conversions_scale_with_resolution() {
        let five = Resolution::from_minutes(5).unwrap();
        let job = Job::batch(4, RegionId(0), Hour(0), 12.0, Slack::Day);
        assert_eq!(job.length_slots_at(Resolution::HOURLY), job.length_slots());
        assert_eq!(job.length_slots_at(five), 12 * 12);
        assert_eq!(job.slack_slots_at(five), 24 * 12);
        assert_eq!(job.window_slots_at(five), 36 * 12);
        // Fractional lengths quantize to the finer axis (1.5 h = 18
        // five-minute slots, not 2 hours' worth), and sub-slot jobs
        // still occupy one slot.
        let frac = Job::batch(5, RegionId(0), Hour(0), 1.5, Slack::None);
        assert_eq!(frac.length_slots_at(five), 18);
        let tiny = Job::interactive(6, RegionId(0), Hour(0));
        assert_eq!(tiny.length_slots_at(five), 1);
    }
}
