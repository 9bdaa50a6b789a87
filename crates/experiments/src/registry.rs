//! The experiment registry: every figure, table, and extension study as
//! one [`Experiment`] row.
//!
//! The experiment modules themselves are private to this crate; the only
//! way to reach them is through the registry — [`find`] an experiment by
//! id (or iterate [`all`]) and call [`Experiment::run`]. This gives every
//! consumer (`decarb-cli run`, the bench harness, tests) the same uniform
//! pipeline, and lets [`run_all`] fan any list of experiments out across
//! threads with `decarb_par`.

use std::time::Instant;

use decarb_json::Value;
use decarb_par::par_map;

use crate::context::Context;
use crate::table::ExperimentTable;
use crate::{
    ext, ext_elastic, ext_embodied, ext_forecast, ext_grid, ext_pareto, ext_rank, ext_scenarios,
    ext_sim, fig1, fig10, fig11, fig12, fig3, fig4, fig5, fig6, fig7to9, table1,
};

/// One registered experiment: a stable id, a human-readable description,
/// and the function recomputing the figure's tables.
pub struct Experiment {
    id: &'static str,
    description: &'static str,
    runner: fn(&Context) -> Vec<ExperimentTable>,
}

impl Experiment {
    /// Stable identifier accepted by `decarb-cli run`.
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// One-line description shown by `list`.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Recomputes the experiment and renders its tables.
    pub fn run(&self, ctx: &Context) -> Vec<ExperimentTable> {
        (self.runner)(ctx)
    }
}

/// The static registry, in the paper's presentation order.
static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        description: "Table 1: cloud workload dimensions, lengths, and slack classes",
        runner: |_| vec![table1::run()],
    },
    Experiment {
        id: "fig1",
        description: "Fig 1: example carbon traces and generation mix of three zones",
        runner: |ctx| fig1::run(ctx).tables(),
    },
    Experiment {
        id: "fig3a",
        description: "Fig 3(a): annual mean CI vs average daily CV, 123 regions, 2022",
        runner: |ctx| vec![fig3::run_a(ctx).table()],
    },
    Experiment {
        id: "fig3b",
        description: "Fig 3(b): 2020-2022 drift in mean/CV with K-Means++ clustering",
        runner: |ctx| vec![fig3::run_b(ctx).table()],
    },
    Experiment {
        id: "fig4",
        description: "Fig 4: periodicity scores of 40 hyperscale regions",
        runner: |ctx| vec![fig4::run(ctx).table()],
    },
    Experiment {
        id: "fig5",
        description: "Fig 5(a-c): capacity-constrained spatial shifting",
        runner: |ctx| fig5::run(ctx).tables(),
    },
    Experiment {
        id: "fig6a",
        description: "Fig 6(a): spatial shifting under capacity plus latency SLOs",
        runner: |ctx| vec![fig6::run_a(ctx).table()],
    },
    Experiment {
        id: "fig6b",
        description: "Fig 6(b): single-migration vs unlimited-migration bounds",
        runner: |ctx| vec![fig6::run_b(ctx).table()],
    },
    Experiment {
        id: "fig7",
        description: "Fig 7: ideal deferral savings by job length",
        runner: |ctx| vec![fig7to9::run(ctx).fig7_table()],
    },
    Experiment {
        id: "fig8",
        description: "Fig 8: interruptibility savings on top of deferral",
        runner: |ctx| vec![fig7to9::run(ctx).fig8_table()],
    },
    Experiment {
        id: "fig9",
        description: "Fig 9: temporal savings vs slack budget",
        runner: |ctx| vec![fig7to9::run(ctx).fig9_table()],
    },
    Experiment {
        id: "fig10",
        description: "Fig 10(a-d): workload-weighted temporal reductions",
        runner: |ctx| fig10::run(ctx).tables(),
    },
    Experiment {
        id: "fig11a",
        description: "Fig 11(a): reduction vs migratable workload fraction",
        runner: |ctx| vec![fig11::run_a(ctx).table()],
    },
    Experiment {
        id: "fig11b",
        description: "Fig 11(b): carbon increase vs forecast error",
        runner: |ctx| vec![fig11::run_b(ctx).table()],
    },
    Experiment {
        id: "fig11cd",
        description: "Fig 11(c,d): California emissions vs renewable penetration",
        runner: |ctx| vec![fig11::run_cd(ctx).table()],
    },
    Experiment {
        id: "fig12",
        description: "Fig 12: combined spatial + temporal decomposition",
        runner: |ctx| vec![fig12::run(ctx).table()],
    },
    Experiment {
        id: "ext",
        description: "Ext: suspend overhead, migration budget, and workflow splitting",
        runner: |ctx| ext::run(ctx).tables(),
    },
    Experiment {
        id: "ext-forecast",
        description: "Ext: real forecasters replacing the paper's uniform error model",
        runner: |ctx| ext_forecast::run(ctx).tables(),
    },
    Experiment {
        id: "ext-grid",
        description: "Ext: average vs marginal CI; datacenter as flexible grid load",
        runner: |_| ext_grid::run().tables(),
    },
    Experiment {
        id: "ext-embodied",
        description: "Ext: embodied cost of idle capacity and the net-footprint optimum",
        runner: |ctx| ext_embodied::run(ctx).tables(),
    },
    Experiment {
        id: "ext-sim",
        description: "Ext: online policies vs clairvoyant bounds; overhead erosion",
        runner: |ctx| ext_sim::run(ctx).tables(),
    },
    Experiment {
        id: "ext-elastic",
        description: "Ext: CarbonScaler-style elastic scaling",
        runner: |ctx| ext_elastic::run(ctx).tables(),
    },
    Experiment {
        id: "ext-rank",
        description: "Ext: rank-order stability of regional carbon intensity",
        runner: |ctx| ext_rank::run(ctx).tables(),
    },
    Experiment {
        id: "ext-pareto",
        description: "Ext: carbon-delay frontier and online latency-SLO routing",
        runner: |ctx| ext_pareto::run(ctx).tables(),
    },
    Experiment {
        id: "ext-scenarios",
        description: "Ext: scenario matrix — savings vs the agnostic baseline across workload x policy x geography",
        runner: |ctx| ext_scenarios::run(ctx).tables(),
    },
];

/// Iterates every registered experiment, in presentation order.
pub fn all() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter()
}

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// All registered experiment ids, in presentation order.
pub fn ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.id).collect()
}

/// Number of registered experiments.
pub fn count() -> usize {
    EXPERIMENTS.len()
}

/// One completed experiment run: what `run_all` hands back per entry.
pub struct CompletedRun {
    /// The experiment's id.
    pub id: &'static str,
    /// The experiment's description.
    pub description: &'static str,
    /// The rendered tables.
    pub tables: Vec<ExperimentTable>,
    /// Wall-clock runtime of this experiment.
    pub elapsed: std::time::Duration,
}

impl CompletedRun {
    /// Packages the run as JSON (`{id, description, elapsed_s, tables}`).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("id", Value::from(self.id)),
            ("description", Value::from(self.description)),
            ("elapsed_s", Value::from(self.elapsed.as_secs_f64())),
            (
                "tables",
                Value::Array(self.tables.iter().map(ExperimentTable::to_json).collect()),
            ),
        ])
    }
}

/// Runs `experiments` against `ctx`, fanning out across threads;
/// results come back in the order given.
pub fn run_all(ctx: &Context, experiments: &[&Experiment]) -> Vec<CompletedRun> {
    par_map(experiments, |experiment| {
        let started = Instant::now();
        let tables = experiment.run(ctx);
        CompletedRun {
            id: experiment.id,
            description: experiment.description,
            tables,
            elapsed: started.elapsed(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonempty() {
        let ids = ids();
        assert_eq!(ids.len(), count());
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate experiment id");
        for experiment in all() {
            assert!(!experiment.id().is_empty());
            assert!(!experiment.description().is_empty());
        }
    }

    #[test]
    fn find_roundtrips_every_id() {
        for experiment in all() {
            let found = find(experiment.id()).expect("registered id resolves");
            assert_eq!(found.id(), experiment.id());
        }
        assert!(find("fig99").is_none());
    }

    /// `tests/golden/repro.json`: `decarb-cli run all --json` without
    /// the wall-clock `elapsed_s` fields.
    fn golden() -> Vec<Value> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/repro.json");
        let text = std::fs::read_to_string(path).expect("golden report is readable");
        match decarb_json::parse(&text).expect("golden report is JSON") {
            Value::Array(runs) => runs,
            other => panic!("golden report is not an array: {other:?}"),
        }
    }

    /// Checks one table's id, title, columns and every cell against its
    /// golden object, naming the first row that differs.
    fn assert_matches_golden(experiment: &str, table: &ExperimentTable, golden: &Value) {
        let got = table.to_json();
        for field in ["id", "title", "columns"] {
            assert_eq!(
                got.get(field),
                golden.get(field),
                "{experiment}/{}: {field}",
                table.id
            );
        }
        let Some(Value::Array(rows)) = golden.get("rows") else {
            panic!("{experiment}/{}: golden table has no rows", table.id);
        };
        assert_eq!(
            table.rows.len(),
            rows.len(),
            "{experiment}/{}: rows",
            table.id
        );
        for (i, (row, want)) in table.rows.iter().zip(rows).enumerate() {
            assert_eq!(
                &Value::from(row.clone()),
                want,
                "{experiment}/{}: row {i}",
                table.id
            );
        }
    }

    #[test]
    fn every_experiment_is_runnable() {
        // Run the full registry through the shared context (sweeps are
        // memoized across experiments, as in a real `run all`), and pin
        // every table the paper's reproduction prints.
        let ctx = crate::context::shared();
        let runs = run_all(ctx, &all().collect::<Vec<_>>());
        let golden = golden();
        assert_eq!(runs.len(), golden.len(), "experiment count");
        for (run, want) in runs.iter().zip(&golden) {
            assert!(!run.tables.is_empty(), "{} produced no tables", run.id);
            let json = run.to_json();
            assert_eq!(json.get("id"), Some(&Value::from(run.id)));
            assert_eq!(want.get("id"), Some(&Value::from(run.id)), "registry order");
            let Some(Value::Array(tables)) = want.get("tables") else {
                panic!("{}: golden run has no tables", run.id);
            };
            assert_eq!(run.tables.len(), tables.len(), "{}: tables", run.id);
            for (table, want) in run.tables.iter().zip(tables) {
                assert!(!table.columns.is_empty(), "{}: headerless table", run.id);
                assert!(!table.rows.is_empty(), "{}: empty table", run.id);
                assert_matches_golden(run.id, table, want);
            }
        }
    }
}
