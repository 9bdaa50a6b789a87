//! Reproduction harness: one module per figure/table of the paper, each
//! registered as one [`registry::Experiment`] row.
//!
//! Every experiment module exposes a `run(&Context)` function whose
//! result renders to text [`table::ExperimentTable`]s printing the same
//! rows/series the paper reports; the modules are private and reachable
//! only through the [`registry`] — look an experiment up with
//! [`registry::find`] (or iterate [`registry::all`]) and call
//! [`registry::Experiment::run`]. [`registry::run_all`] fans a list of
//! experiments out across threads. `EXPERIMENTS.md` records the paper-value vs
//! measured-value comparison for each.
//!
//! | Id | Reproduces |
//! |----|------------|
//! | `table1`  | Table 1 (workload dimensions) |
//! | `fig1`    | Fig. 1 (example traces + generation mix) |
//! | `fig3a`, `fig3b` | Fig. 3(a) mean/CV map, Fig. 3(b) 2020→2022 drift + K-Means |
//! | `fig4`    | Fig. 4 (periodicity scores, 40 hyperscale regions) |
//! | `fig5`    | Fig. 5(a–c) capacity-constrained spatial shifting |
//! | `fig6a`, `fig6b` | Fig. 6(a) capacity+latency, 6(b) 1- vs ∞-migration |
//! | `fig7`–`fig9` | Figs. 7, 8, 9 (deferral / interruptibility bounds) |
//! | `fig10`   | Fig. 10(a–d) workload-weighted temporal reductions |
//! | `fig11a`, `fig11b`, `fig11cd` | Fig. 11 mixed / forecast error / greener grids |
//! | `fig12`   | Fig. 12 (combined spatial + temporal decomposition) |
//!
//! The `ext*` ids go beyond the paper's figures (see DESIGN.md §2.0):
//!
//! | Id | Extends |
//! |----|---------|
//! | `ext`          | suspend overhead, migration budget, workflow splitting |
//! | `ext-forecast` | real forecasters replacing §6.2's uniform error |
//! | `ext-grid`     | average vs marginal CI; datacenter as flexible grid load |
//! | `ext-embodied` | §5.3.1's embodied cost of idle capacity |
//! | `ext-sim`      | online policies vs clairvoyant bounds; overhead erosion |
//! | `ext-elastic`  | CarbonScaler-style elastic scaling |
//! | `ext-rank`     | §5.1.4's rank-stability premise, measured directly |
//! | `ext-pareto`   | carbon–delay frontier; online latency-SLO routing |
//! | `ext-scenarios`| the scenario matrix condensed into the headline savings table |

pub mod context;
pub mod registry;
pub mod table;

mod ext;
mod ext_elastic;
mod ext_embodied;
mod ext_forecast;
mod ext_grid;
mod ext_pareto;
mod ext_rank;
mod ext_scenarios;
mod ext_sim;
mod fig1;
mod fig10;
mod fig11;
mod fig12;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7to9;
mod table1;

pub use context::Context;
pub use registry::{CompletedRun, Experiment};
pub use table::ExperimentTable;
