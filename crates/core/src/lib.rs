//! # mocha-core
//!
//! The paper's primary contribution: the morphable, compression-aware CNN
//! accelerator. The crate layers as
//!
//! * [`morph`] — the configuration space (tiling, parallelism, loop order,
//!   per-stream codecs, buffering) the controller chooses from;
//! * [`tiling`] / [`parallel`] — tile geometry and PE-array mapping;
//! * [`streams`] — codec-aware memory-path transfers;
//! * `walk` — the tile walks (singleton weighted, singleton pool, fused
//!   group), each written once and generic over where its stream sizes
//!   come from;
//! * [`exec`] — the walks over live tensors: bit-exact functional
//!   execution with exact timing/energy accounting;
//! * [`plan`] — the walks over sparsity estimates, which the controller
//!   uses to search the configuration space without touching data;
//! * [`fusion`] — layer merging (cascaded execution of conv/pool groups
//!   without DRAM round-trips);
//! * [`controller`] — the "intelligence": per-layer design-space search
//!   under resource constraints;
//! * [`baseline`] — prior-art accelerator models (fixed single-optimization
//!   policies, no compression);
//! * [`simulator`] — whole-network orchestration producing the metrics the
//!   experiments report.

#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod controller;
pub mod dse;
pub mod exec;
pub mod fusion;
pub mod metrics;
pub mod morph;
pub mod parallel;
pub mod plan;
pub mod simulator;
pub mod streams;
pub mod tiling;
pub mod trace;
mod walk;

pub use baseline::Accelerator;
pub use cache::{CacheDelta, DecisionCache, DecisionKey, DecisionShard};
pub use controller::{decide, decide_with_lease, Decision, Policy};
pub use dse::{explore_layer, pareto_front, DesignPoint};
pub use exec::{execute_layer, ExecContext, LayerRun};
pub use metrics::{GroupMetrics, RunMetrics};
pub use morph::{CompressionChoice, LoopOrder, MorphConfig, Objective, Parallelism, Tiling};
pub use plan::{plan_layer, LayerPlan, PlanContext, SparsityEstimate};
pub use simulator::{record_group, Session, Simulator};
pub use trace::Trace;
