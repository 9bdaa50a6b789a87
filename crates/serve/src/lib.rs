//! `decarb-serve` — the carbon-aware placement service.
//!
//! The batch pipeline answers retrospective questions; this crate
//! answers the operational one — *this job is being submitted now:
//! where and when should it run?* — as a dependency-free HTTP/1.1
//! daemon on std TCP (`decarb-cli serve`). The control-plane shape
//! follows CarbonScaler-style online schedulers: a scheduler calls
//! `POST /v1/place` per job (or posts an array of jobs as one batch)
//! and gets back a region, a start hour, and the estimated g·CO₂eq
//! saved against running the job immediately at its origin.
//!
//! Layering:
//!
//! * [`http`] — a bounded request parser and response writer with
//!   HTTP/1.1 keep-alive; requests parse into reusable buffers and
//!   every malformed input is a typed 4xx, never a panic.
//! * [`api`] — the `/v1` routes over a [`decarb_sim::Snapshot`]
//!   (interned regions, dense series, prebuilt RTT/planner tables)
//!   behind an atomically swapped `Arc`; `POST /v1/reload` rebuilds
//!   off-lock and swaps, so readers never wait. A batch places its
//!   jobs one after another on the worker that read it.
//! * [`metrics`] — relaxed-atomic request counters, placement latency
//!   and connection-reuse histograms, and batch-size counters for
//!   `GET /v1/metrics`.
//! * [`server`] — the TCP accept loop, worker-thread pool, and the
//!   zero-allocation keep-alive connection loop
//!   ([`server::handle_connection`]).
//!
//! The full endpoint reference lives in `docs/API.md`.

pub mod api;
pub mod http;
pub mod metrics;
pub mod server;

pub use api::{ApiError, Loader, PlacementService};
pub use http::{read_request, HttpError, Request};
pub use metrics::{Endpoint, Metrics};
pub use server::{handle_connection, Server};
