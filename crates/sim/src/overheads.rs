//! Suspend/resume and migration overhead models.
//!
//! The paper's bounds deliberately assume zero overhead for interrupting
//! and migrating jobs (§3.1.2: "our analysis ignores these migration
//! overheads in quantifying an upper bound"). The simulator makes the
//! assumption optional: every suspend, resume, and migration can draw
//! extra energy — checkpointing state to storage, restoring it, or copying
//! it across the WAN — which is charged at the carbon-intensity of the
//! hour and region where it happens.

/// Energy overheads charged by the simulator on state transitions.
///
/// The default is the paper's zero-overhead idealization; realistic values
/// follow checkpoint/restore measurements (roughly 10–60 s of full-power
/// I/O per 10 GB of state, i.e. a few hundredths of a kWh for the 1 kW job
/// model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Energy to checkpoint a job's state on suspension, kWh.
    pub suspend_kwh: f64,
    /// Energy to restore a job's state on resumption, kWh.
    pub resume_kwh: f64,
    /// Energy to move one GB of job state across regions, kWh (network
    /// plus both endpoints' I/O).
    pub migrate_kwh_per_gb: f64,
    /// State size of a migrating job, GB.
    pub state_gb: f64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        Self::ZERO
    }
}

impl OverheadModel {
    /// The paper's idealization: all transitions are free.
    pub const ZERO: OverheadModel = OverheadModel {
        suspend_kwh: 0.0,
        resume_kwh: 0.0,
        migrate_kwh_per_gb: 0.0,
        state_gb: 0.0,
    };

    /// A realistic checkpoint/restore + WAN-copy cost point: 0.02 kWh per
    /// suspend or resume, 0.05 kWh per GB migrated, 50 GB of state.
    pub fn realistic() -> OverheadModel {
        OverheadModel {
            suspend_kwh: 0.02,
            resume_kwh: 0.02,
            migrate_kwh_per_gb: 0.05,
            state_gb: 50.0,
        }
    }

    /// Energy charged for one migration, kWh.
    pub fn migration_kwh(&self) -> f64 {
        self.migrate_kwh_per_gb * self.state_gb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_idealization() {
        let m = OverheadModel::default();
        assert_eq!(m, OverheadModel::ZERO);
        assert_eq!(m.migration_kwh(), 0.0);
    }

    #[test]
    fn realistic_point_has_positive_costs() {
        let m = OverheadModel::realistic();
        assert!(m.suspend_kwh > 0.0 && m.resume_kwh > 0.0);
        assert!((m.migration_kwh() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn zero_state_makes_migration_free_even_with_positive_rate() {
        let m = OverheadModel {
            migrate_kwh_per_gb: 1.0,
            state_gb: 0.0,
            ..OverheadModel::ZERO
        };
        assert_eq!(m.migration_kwh(), 0.0);
    }
}
