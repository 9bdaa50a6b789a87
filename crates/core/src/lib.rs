//! `decarb-core` — the paper's contribution: carbon-aware temporal and
//! spatial workload-shifting policies and their ideal/constrained bounds.
//!
//! The EuroSys '24 paper quantifies upper bounds on carbon reduction from
//! shifting cloud workloads across time and space. This crate implements
//! every policy the paper analyzes:
//!
//! * [`temporal`] — deferral (minimum-cost contiguous window within the
//!   slack) and interruptibility (k cheapest hours within the window),
//!   §3.2.1 / §5.2, with O(n) and O(n log n) all-start-times sweeps;
//! * [`spatial`] — 1-migration (to the lowest-annual-mean region) and
//!   clairvoyant ∞-migration (hourly hop to the instantaneous greenest),
//!   §5.1.4;
//! * [`capacity`] — finite idle-capacity water-filling assignment, §5.1.2;
//! * [`latency`] — geodesic RTT model behind the latency SLOs, §5.1.3;
//! * [`forecast`] — scheduling under carbon-forecast error, §6.2;
//! * [`greener`] — rising renewable penetration what-ifs, §6.3;
//! * [`mixed`] — migratable/pinned workload mixes, §6.1;
//! * [`combined`] — joint spatial + temporal shifting, §6.4;
//! * [`metrics`] — the paper's absolute and global-average reduction
//!   metrics, §3.1.3.
//!
//! All policies operate on the 1 kW *energy-optimized* job model: the
//! carbon cost of running `L` hours starting at hour `t` is the sum of the
//! region's hourly carbon-intensity over those hours (g·CO2eq).

pub mod budget;
pub mod capacity;
pub mod chain;
pub mod combined;
pub mod elastic;
pub mod embodied;
pub mod flexload;
pub mod forecast;
pub mod greener;
pub mod ksmallest;
pub mod latency;
pub mod metrics;
pub mod mixed;
pub mod overhead;
pub mod pareto;
pub mod rankings;
pub mod signals;
pub mod spatial;
pub mod temporal;

pub use budget::{budgeted_migration, BudgetedOutcome};
pub use capacity::{water_filling, CapacityOutcome};
pub use chain::{best_chain, ChainPlacement};
pub use combined::{combined_shift, CombinedBreakdown};
pub use elastic::{elastic_plan, elasticity_curve, ElasticPlan};
pub use embodied::{net_footprint_sweep, optimal_idle, EmbodiedParams, NetPoint};
pub use flexload::{allocate_flexible, flat_allocation, FlexAllocation};
pub use greener::greener_trace;
pub use latency::rtt_ms;
pub use metrics::{absolute_reduction, relative_reduction};
pub use pareto::{carbon_delay_frontier, pareto_filter, FrontierPoint};
pub use rankings::{rank_stability, RankStability};
pub use signals::{compare_signals, SignalComparison};
pub use spatial::{inf_migration, one_migration, SpatialOutcome};
pub use temporal::{cheapest_window, TemporalPlanner};
