//! # mocha-serve
//!
//! The deterministic serving tier above `mocha-runtime`: what turns the
//! batch-at-a-time `mocha-sim serve` REPL into a service that can be driven
//! at rate, and the fleet layer that puts N simulated fabric instances of
//! differing grid/SPM geometry behind one router.
//!
//! * [`reactor`] — a poll-style readiness loop over non-blocking std TCP
//!   (no async runtime): many concurrent clients, capped line buffering,
//!   and cross-client batching — every client batch that completes in one
//!   poll round is handed to the handler *together*, so concurrent tenants
//!   share one runtime invocation;
//! * [`shed`] — admission-control policies: unbounded queueing (the
//!   baseline), bounded queues, and SLO-aware deadline shedding that drops
//!   doomed requests at arrival with an explicit `shed` response;
//! * [`calibrate`] — measured per-template service times on one tenant
//!   slot, the admission controller's cost model;
//! * [`traffic`] — seeded heavy-tailed (bounded-Pareto) open-loop arrival
//!   traces over skewed tenant populations, with a JSON-lines file form
//!   for replay;
//! * [`openloop`] — the one open-loop queueing engine, behind experiments
//!   R3 and R5: calibrated service times, FIFO slots, shedding, and
//!   fault-driven capacity loss (quarantine composition) over one fabric
//!   or, routed by a [`RoutePolicy`], many shards with per-shard fault
//!   domains, quarantine-triggered live re-balancing and template-warmth
//!   cold penalties; both modes fill one [`OpenLoopReport`];
//! * [`spec`] — [`FleetSpec`]: the CLI-parsable per-instance geometry list
//!   (`preset=quad/grid=8,banks=16,count=2`), with the same strict
//!   one-line error contract as `FaultPlan`;
//! * [`route`] — the [`RoutePolicy`] trait and its three implementations:
//!   `round-robin`, `locality` (route to the shard whose decision-cache /
//!   shape affinity is warmest), and `p2c` (power-of-two-choices on queue
//!   depth, seeded);
//! * [`batch`] — the fleet batch path: routed submissions executed on the
//!   full cycle-accurate per-shard scheduler, aggregated in canonical
//!   shard order. A fleet of one is an exact off-switch: byte-identical to
//!   the single-fabric `runtime` path modulo `fleet.*` telemetry lines;
//! * [`protocol`] — JSON-lines hardening shared by the reactor and the
//!   stdin front-end: whitespace/CRLF-only terminators and capped request
//!   lines.
//!
//! Everything is deterministic by construction: the reactor's *responses*
//! are pure functions of each client's batch content, the open-loop
//! simulation is a sequential pure function of `(trace, calibration,
//! policy, fault plan)`, routing is a pure function of `(fleet, trace,
//! policy, seed)`, and per-shard fault seeds derive from [`shard_seed`] —
//! byte-identical at any `--threads` count.

#![warn(missing_docs)]

pub mod batch;
pub mod calibrate;
pub mod metrics;
pub mod openloop;
pub mod protocol;
pub mod reactor;
pub mod route;
pub mod shed;
pub mod spec;
pub mod traffic;

pub use batch::{route_batch, run_fleet, FleetBatchReport, FleetConfig, FleetShardRun};
pub use calibrate::Calibration;
pub use metrics::{windows_from_open_loop, windows_from_runtime};
pub use openloop::{
    run_fleet_open_loop, run_open_loop, FleetOpenLoopParams, OpenLoopParams, OpenLoopReport,
    RequestOutcome, ShardStats,
};
pub use protocol::{read_line_capped, LineRead, MAX_LINE_BYTES};
pub use reactor::{serve_reactor, BatchHandler, ClientBatch, ReactorConfig};
pub use route::{RouteKind, RoutePolicy, ShardView};
pub use shed::ShedPolicy;
pub use spec::{shard_seed, FleetSpec, ShardSpec, MAX_SHARDS};
pub use traffic::{generate, OpenLoopConfig, Request};

#[cfg(test)]
mod openfleet;
