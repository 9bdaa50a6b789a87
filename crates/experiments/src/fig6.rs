//! Fig. 6: latency-constrained migration and smart region-hopping
//! (§5.1.3–§5.1.4).

use decarb_core::capacity::{water_filling, IdleCapacity};
use decarb_core::latency::rtt_ms;
use decarb_core::spatial::lower_envelope;
use decarb_traces::time::{hours_in_year, year_start};
use decarb_traces::{GeoGroup, Region, GLOBAL_AVG_CI};

use crate::context::{Context, EVAL_YEAR};
use crate::table::{f1, pct, ExperimentTable};

/// One latency-SLO sweep point (Fig. 6(a)).
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Latency SLO in milliseconds.
    pub slo_ms: f64,
    /// Global average reduction with infinite capacity, in percent.
    pub infinite_pct: f64,
    /// Global average reduction at 50 % utilization, in percent.
    pub constrained_pct: f64,
}

/// Fig. 6(a) results.
#[derive(Debug, Clone)]
pub struct Fig6a {
    /// The latency sweep.
    pub points: Vec<LatencyPoint>,
}

/// Runs the Fig. 6(a) analysis.
pub fn run_a(ctx: &Context) -> Fig6a {
    let means = ctx.data().annual_means(EVAL_YEAR);
    let slos = [10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0, 300.0];
    let points = slos
        .iter()
        .map(|&slo| {
            let feasible = |from: &Region, to: &Region| rtt_ms(from, to) <= slo;
            let infinite = water_filling(&means, IdleCapacity::Infinite, &feasible);
            let constrained = water_filling(&means, IdleCapacity::Fraction(0.5), &feasible);
            LatencyPoint {
                slo_ms: slo,
                infinite_pct: infinite.reduction_g() / GLOBAL_AVG_CI * 100.0,
                constrained_pct: constrained.reduction_g() / GLOBAL_AVG_CI * 100.0,
            }
        })
        .collect();
    Fig6a { points }
}

impl Fig6a {
    /// Renders the Fig. 6(a) table.
    pub fn table(&self) -> ExperimentTable {
        ExperimentTable::new(
            "fig6a",
            "Fig 6(a): reduction vs latency SLO (infinite capacity / 50% utilization)",
            vec!["SLO ms".into(), "infinite cap".into(), "50% util".into()],
            self.points
                .iter()
                .map(|p| vec![f1(p.slo_ms), pct(p.infinite_pct), pct(p.constrained_pct)])
                .collect(),
        )
    }
}

/// One grouping's 1-migration vs ∞-migration comparison (Fig. 6(b)).
#[derive(Debug, Clone)]
pub struct HoppingRow {
    /// Grouping label.
    pub group: String,
    /// Average reduction from a single migration to the grouping's
    /// greenest region (g·CO2eq per job hour).
    pub one_migration_g: f64,
    /// Average reduction from clairvoyant hourly hopping within the
    /// grouping.
    pub inf_migration_g: f64,
}

impl HoppingRow {
    /// Extra benefit of ∞- over 1-migration.
    pub fn advantage_g(&self) -> f64 {
        self.inf_migration_g - self.one_migration_g
    }
}

/// Fig. 6(b) results.
#[derive(Debug, Clone)]
pub struct Fig6b {
    /// Per-grouping rows.
    pub rows: Vec<HoppingRow>,
    /// The largest per-grouping advantage of ∞-migration (the paper bounds
    /// this below 10 g).
    pub max_advantage_g: f64,
}

/// Runs the Fig. 6(b) analysis: migrations restricted to each geographical
/// grouping, as in §5.1.4.
pub fn run_b(ctx: &Context) -> Fig6b {
    let start = year_start(EVAL_YEAR);
    let len = hours_in_year(EVAL_YEAR);
    let means = ctx.data().annual_means(EVAL_YEAR);
    let mean_of = |code: &str| {
        means
            .iter()
            .find(|(r, _)| r.code == code)
            .map(|(_, m)| *m)
            .expect("region in means")
    };
    let mut rows = Vec::new();
    for group in GeoGroup::ALL {
        let members = ctx.data().regions_in_group(group);
        if members.is_empty() {
            continue;
        }
        let greenest = members
            .iter()
            .min_by(|a, b| mean_of(&a.code).total_cmp(&mean_of(&b.code)))
            .expect("non-empty group");
        let envelope = lower_envelope(ctx.data(), &members, start, len);
        let envelope_mean = envelope.mean();
        let dest_mean = mean_of(&greenest.code);
        // Average over origins in the grouping: baseline is the origin's
        // annual mean; both policies run year-round jobs.
        let origin_mean: f64 =
            members.iter().map(|r| mean_of(&r.code)).sum::<f64>() / members.len() as f64;
        rows.push(HoppingRow {
            group: group.label().into(),
            one_migration_g: origin_mean - dest_mean,
            inf_migration_g: origin_mean - envelope_mean,
        });
    }
    let max_advantage_g = rows
        .iter()
        .map(HoppingRow::advantage_g)
        .fold(0.0f64, f64::max);
    Fig6b {
        rows,
        max_advantage_g,
    }
}

impl Fig6b {
    /// Renders the Fig. 6(b) table.
    pub fn table(&self) -> ExperimentTable {
        ExperimentTable::new(
            "fig6b",
            format!(
                "Fig 6(b): 1-migration vs inf-migration within groupings (max advantage {} g)",
                f1(self.max_advantage_g)
            ),
            vec![
                "grouping".into(),
                "1-migration g".into(),
                "inf-migration g".into(),
                "advantage g".into(),
            ],
            self.rows
                .iter()
                .map(|r| {
                    vec![
                        r.group.clone(),
                        f1(r.one_migration_g),
                        f1(r.inf_migration_g),
                        f1(r.advantage_g()),
                    ]
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sweep_monotone_and_saturating() {
        let ctx = Context::default();
        let fig = run_a(&ctx);
        for pair in fig.points.windows(2) {
            assert!(pair[1].infinite_pct >= pair[0].infinite_pct - 1e-9);
            assert!(pair[1].constrained_pct >= pair[0].constrained_pct - 1e-9);
        }
        let last = fig.points.last().unwrap();
        // §5.1.3: ≥ 250 ms reaches everywhere — ≈ 92.5 % (infinite) and
        // ≈ 45.7 % (50 % util). Our 300 ms point should be close to the
        // unconstrained Fig. 5 values.
        assert!(last.infinite_pct > 80.0, "{}", last.infinite_pct);
        assert!(
            (35.0..65.0).contains(&last.constrained_pct),
            "{}",
            last.constrained_pct
        );
        // Tight SLOs keep most jobs local.
        let first = &fig.points[0];
        assert!(first.infinite_pct < last.infinite_pct / 2.0);
        // The capacity constraint always costs reduction.
        for p in &fig.points {
            assert!(p.constrained_pct <= p.infinite_pct + 1e-9);
        }
    }

    #[test]
    fn hopping_advantage_is_small() {
        let ctx = Context::default();
        let fig = run_b(&ctx);
        assert_eq!(fig.rows.len(), 6);
        // §5.1.4: even clairvoyant hopping adds < 10 g over one migration.
        assert!(
            fig.max_advantage_g < 10.0,
            "max advantage {}",
            fig.max_advantage_g
        );
        for row in &fig.rows {
            assert!(
                row.inf_migration_g >= row.one_migration_g - 1e-9,
                "{} hopping can't lose",
                row.group
            );
            // Within-group 1-migration reductions are non-negative.
            assert!(row.one_migration_g >= -1e-9, "{}", row.group);
        }
    }

    #[test]
    fn tables_render() {
        let ctx = Context::default();
        assert!(format!("{}", run_a(&ctx).table()).contains("SLO"));
        assert!(format!("{}", run_b(&ctx).table()).contains("advantage"));
    }
}
