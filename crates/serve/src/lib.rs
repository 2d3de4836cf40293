//! # mocha-serve
//!
//! The deterministic serving tier above `mocha-runtime`: what turns the
//! batch-at-a-time `mocha-sim serve` REPL into a service that can be driven
//! at rate.
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
//!   or, routed by a [`openloop::RoutePolicy`], many shards, producing
//!   goodput/latency curves;
//! * [`protocol`] — JSON-lines hardening shared by the reactor and the
//!   stdin front-end: whitespace/CRLF-only terminators and capped request
//!   lines.
//!
//! Everything is deterministic by construction: the reactor's *responses*
//! are pure functions of each client's batch content, and the open-loop
//! simulation is a sequential pure function of `(trace, calibration,
//! policy, fault plan)` — byte-identical at any `--threads` count.

#![warn(missing_docs)]

pub mod calibrate;
pub mod metrics;
pub mod openloop;
pub mod protocol;
pub mod reactor;
pub mod shed;
pub mod traffic;

pub use calibrate::Calibration;
pub use metrics::{windows_from_open_loop, windows_from_runtime};
pub use openloop::{run_open_loop, OpenLoopParams, OpenLoopReport, RequestOutcome};
pub use protocol::{read_line_capped, LineRead, MAX_LINE_BYTES};
pub use reactor::{serve_reactor, BatchHandler, ClientBatch, ReactorConfig};
pub use shed::ShedPolicy;
pub use traffic::{generate, OpenLoopConfig, Request};
