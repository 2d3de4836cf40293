//! # MOCHA — Morphable Locality and Compression Aware Architecture for CNNs
//!
//! A cycle-approximate, functionally bit-exact simulator of the MOCHA CNN
//! accelerator (Jafri, Hemani, Paul, Abbas — IPDPS 2017), including every
//! substrate it runs on and the prior-art baselines it is compared against.
//!
//! ## The design in one paragraph
//!
//! MOCHA is a CGRA-class accelerator (DRRA PE array + DiMArch distributed
//! scratchpad) with three differentiators: (i) hardware **compression** of
//! feature-map and kernel streams (ZRLE / bitmask-sparse), (ii) the
//! **flexibility** to pick tiling shape, layer fusion depth, intra/inter
//! feature-map parallelism, loop order and buffering depth per layer, and
//! (iii) a **morphing controller** that selects and cascades those
//! optimizations automatically from the layer's dimensions, the measured
//! sparsity of the live tensors, and the available on-chip resources.
//!
//! ## Crate map
//!
//! * [`model`] — layer IR, network zoo (LeNet-5 / AlexNet / VGG-16),
//!   tensors, sparsity-controlled workload generators, golden executor;
//! * [`compress`] — the codecs with cycle/energy cost models;
//! * [`fabric`] — PE array, scratchpad, NoC, DRAM, DMA, tile pipeline;
//! * [`fault`] — deterministic fault injection: seeded fault timelines,
//!   quarantine geometry and the healthy carve windows recovery re-morphs
//!   into;
//! * [`energy`] — event pricing, area model, derived metrics;
//! * [`core`] — tiling/fusion/parallelism engines, planner, controller,
//!   simulator, baselines (re-exported at the top level);
//! * [`runtime`] — multi-tenant serving: disjoint fabric leases, admission
//!   control, and online re-morphing of in-flight jobs;
//! * [`serve`] — the serving tier above `runtime`: a deterministic TCP
//!   reactor multiplexing concurrent clients, service-time calibration,
//!   SLO-aware load shedding, and seeded heavy-tailed open-loop traffic;
//! * [`fleet`] — the fleet layer inside `serve`, re-exported as one
//!   module: N heterogeneous fabric instances behind one deterministic
//!   router (round-robin, locality-aware, power-of-two-choices), with
//!   per-shard fault domains and quarantine-triggered re-balancing;
//! * [`engine`] — the deterministic parallel execution engine: a fixed-size
//!   worker pool whose canonical-order reduction keeps every output
//!   byte-identical across worker counts;
//! * [`obs`] — deterministic instrumentation: spans, counters and exact
//!   histograms, compiled away entirely on the no-op recorder;
//! * [`trace`] — the analysis layer over `obs` streams: span-tree
//!   profiling, critical paths, exact phase/energy attribution, Chrome
//!   trace export and profile diffing.
//!
//! ## Quickstart
//!
//! ```
//! use mocha::prelude::*;
//!
//! // A workload: LeNet-5 with 60 % input sparsity and 30 % weight sparsity.
//! let workload = Workload::generate(network::lenet5(), SparsityProfile::NOMINAL, 42);
//!
//! // MOCHA optimizing energy-delay product, verified against the golden model.
//! let sim = Simulator::new(Accelerator::mocha(Objective::Edp));
//! let run = sim.run(&workload);
//!
//! let report = run.report(&EnergyTable::default());
//! println!("{}: {:.2} GOPS, {:.2} GOPS/W, {} KB peak storage",
//!          run.network, report.gops(), report.gops_per_watt(),
//!          report.peak_storage_bytes / 1024);
//! assert!(report.gops() > 0.0);
//! ```

#![warn(missing_docs)]

pub use mocha_compress as compress;
pub use mocha_core as core;
pub use mocha_energy as energy;
pub use mocha_engine as engine;
pub use mocha_fabric as fabric;
pub use mocha_fault as fault;
pub use mocha_model as model;
pub use mocha_obs as obs;
pub use mocha_runtime as runtime;
pub use mocha_serve as serve;
pub use mocha_trace as trace;

/// The fleet layer: N heterogeneous fabric instances behind one
/// deterministic router, served by [`crate::serve`]'s open-loop engine and batch
/// path.
pub mod fleet {
    pub use mocha_serve::{batch, route, spec};
    pub use mocha_serve::{
        route_batch, run_fleet, run_fleet_open_loop, shard_seed, FleetBatchReport, FleetConfig,
        FleetOpenLoopParams, FleetShardRun, FleetSpec, RouteKind, RoutePolicy, ShardSpec,
        ShardView, MAX_SHARDS,
    };

    /// The open-loop report: a fleet run fills the same
    /// [`OpenLoopReport`](mocha_serve::OpenLoopReport) as a single fabric.
    /// The alias exists for source compatibility.
    pub use mocha_serve::OpenLoopReport as FleetOpenLoopReport;

    /// Per-shard tallies of an open-loop run. The alias exists for source
    /// compatibility.
    pub use mocha_serve::ShardStats as FleetShardStats;
}

/// The commonly-used API surface in one import.
pub mod prelude {
    pub use mocha_compress::{best_codec, Codec, CodecCostTable, Compressed};
    pub use mocha_core::{
        decide, execute_layer, plan_layer, Accelerator, CompressionChoice, Decision, ExecContext,
        GroupMetrics, LayerPlan, LayerRun, LoopOrder, MorphConfig, Objective, Parallelism,
        PlanContext, Policy, RunMetrics, Simulator, SparsityEstimate, Tiling,
    };
    pub use mocha_energy::{
        improvement, reduction, AreaTable, EnergyTable, EventCounts, FabricInventory, PerfReport,
    };
    pub use mocha_fabric::{Buffering, FabricConfig};
    pub use mocha_model::{
        gen::SparsityProfile, gen::Workload, golden, network, KernelShape, Layer, LayerKind,
        Network, PoolKind, TensorShape,
    };
}
