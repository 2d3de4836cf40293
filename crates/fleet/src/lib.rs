//! # mocha-fleet
//!
//! The deterministic fleet layer above `mocha-runtime` and `mocha-serve`:
//! N simulated fabric instances of differing grid/SPM geometry behind one
//! router.
//!
//! * [`spec`] — [`FleetSpec`]: the CLI-parsable per-instance geometry list
//!   (`preset=quad/grid=8,banks=16,count=2`), with the same strict
//!   one-line error contract as `FaultPlan`;
//! * [`route`] — the three [`RoutePolicy`] implementations (the trait
//!   itself lives with the open-loop engine in `mocha-serve`):
//!   `round-robin`, `locality` (route to the shard whose decision-cache /
//!   shape affinity is warmest), and `p2c` (power-of-two-choices on queue
//!   depth, seeded);
//! * [`openfleet`] — experiment R5's open loop: `mocha-serve`'s queueing
//!   engine run over the fleet's shards, with per-shard fault domains,
//!   quarantine-triggered live re-balancing, and template-warmth cold
//!   penalties;
//! * [`batch`] — the fleet batch path: routed submissions executed on the
//!   full cycle-accurate per-shard scheduler, aggregated in canonical
//!   shard order. A fleet of one is an exact off-switch: byte-identical to
//!   the single-fabric `runtime` path modulo `fleet.*` telemetry lines.
//!
//! Everything is deterministic by construction: routing is a pure function
//! of `(fleet, trace, policy, seed)`, shards execute in canonical order,
//! and per-shard fault seeds derive from [`shard_seed`] — byte-identical
//! reports and recorder streams at any `--threads` count and cache state.

#![warn(missing_docs)]

pub mod batch;
pub mod openfleet;
pub mod route;
pub mod spec;

pub use batch::{route_batch, run_fleet, FleetBatchReport, FleetConfig, FleetShardRun};
pub use openfleet::{
    run_fleet_open_loop, template_ids, FleetOpenLoopParams, FleetOpenLoopReport, FleetShardStats,
};
pub use route::{RouteKind, RoutePolicy, ShardView};
pub use spec::{shard_seed, FleetSpec, ShardSpec, MAX_SHARDS};
