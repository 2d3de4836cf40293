//! Whole-network simulation: the orchestrator tying controller, executor
//! and fusion engine together.
//!
//! For each network position the simulator measures the live input tensor's
//! sparsity statistics, asks the controller for the next group decision
//! (fusion depth + morph config), executes it functionally — optionally
//! verifying bit-exactness against the golden model — and accumulates
//! metrics. This is the entry point every experiment drives.

use crate::cache::DecisionShard;
use crate::controller::decide_cached;
use crate::exec::{execute_layer, ExecContext, LayerRun};
use crate::fusion::execute_group;
use crate::metrics::{GroupMetrics, RunMetrics};
use crate::plan::{PlanContext, SparsityEstimate};
use mocha_compress::CodecCostTable;
use mocha_energy::EnergyTable;
use mocha_model::gen::Workload;
use mocha_model::golden;
use mocha_model::layer::LayerKind;
use mocha_model::tensor::Kernel;
use mocha_obs::{NoopRecorder, Recorder};

use crate::baseline::Accelerator;

/// The network simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Accelerator under simulation.
    pub accelerator: Accelerator,
    /// Codec engine cost parameters.
    pub codec_costs: CodecCostTable,
    /// Energy pricing.
    pub energy: EnergyTable,
    /// When true (default), every group's output is compared against the
    /// golden model — catching any morphing bug at the exact layer.
    pub verify: bool,
}

impl Simulator {
    /// Creates a simulator with default cost tables and verification on.
    pub fn new(accelerator: Accelerator) -> Self {
        Self {
            accelerator,
            codec_costs: CodecCostTable::default(),
            energy: EnergyTable::default(),
            verify: true,
        }
    }

    /// Builds the controller's sparsity estimate from the live input and the
    /// workload's kernels for the group starting at `start`.
    pub(crate) fn estimate(
        &self,
        workload: &Workload,
        start: usize,
        input: &mocha_model::Tensor<i8>,
    ) -> SparsityEstimate {
        let in_stats = mocha_model::stats::analyze(input.data());
        let kernel_sparsity = workload.kernels[start]
            .as_ref()
            .map(Kernel::sparsity)
            .unwrap_or(0.0);
        // Output statistics are a forecast: ReLU layers emit roughly half
        // zeros on symmetric data; non-ReLU outputs stay mostly dense.
        let layer = &workload.network.layers()[start];
        let (ofmap_sparsity, ofmap_mean_run) = if layer.has_relu() {
            (0.5, 2.0)
        } else {
            (0.1, 1.0)
        };
        SparsityEstimate {
            ifmap_sparsity: in_stats.sparsity(),
            ifmap_mean_run: in_stats.mean_zero_run(),
            kernel_sparsity,
            ofmap_sparsity,
            ofmap_mean_run,
        }
    }

    /// Executes one controller decision at network position `start`.
    fn execute_decision(
        &self,
        fabric: &mocha_fabric::FabricConfig,
        workload: &Workload,
        start: usize,
        input: &mocha_model::Tensor<i8>,
        decision: &crate::controller::Decision,
    ) -> Result<LayerRun, mocha_fabric::CapacityError> {
        let end = start + decision.group_len;
        let layers = &workload.network.layers()[start..end];
        let kernels: Vec<Option<&Kernel>> = workload.kernels[start..end]
            .iter()
            .map(Option::as_ref)
            .collect();
        if layers.len() == 1 {
            let ectx = ExecContext {
                fabric,
                codec_costs: &self.codec_costs,
            };
            execute_layer(&ectx, &layers[0], input, kernels[0], &decision.morph, true)
        } else {
            execute_group(
                fabric,
                &self.codec_costs,
                layers,
                input,
                &kernels,
                &decision.morph,
                true,
            )
        }
    }

    /// Simulates the full workload, returning per-group and aggregate
    /// metrics.
    ///
    /// # Panics
    /// Panics if verification is enabled and any group's output deviates
    /// from the golden model, or if the controller finds no feasible
    /// configuration (which the fallback ladders make unreachable for the
    /// fabrics and networks shipped here).
    pub fn run(&self, workload: &Workload) -> RunMetrics {
        self.run_with(workload, &mut NoopRecorder)
    }

    /// [`Simulator::run`] with an observability recorder: every group emits
    /// `group/<layers>` and tile-phase spans on the simulated clock, fabric
    /// event counters and a `core.group_cycles` histogram sample. With
    /// [`NoopRecorder`] this monomorphizes to exactly [`Simulator::run`].
    pub fn run_with<R: Recorder>(&self, workload: &Workload, rec: &mut R) -> RunMetrics {
        let mut session = Session::new(self.clone(), workload.clone());
        while !session.done() {
            session.step_with(rec);
        }
        session.finish()
    }
}

/// An in-flight simulation that advances one controller decision (fusion
/// group) at a time — the unit at which a morphable fabric can re-morph.
///
/// [`Simulator::run`] is a `Session` driven to completion on the
/// accelerator's own fabric. The multi-tenant runtime instead calls
/// [`Session::step_on`] with the sub-fabric of whatever resource lease the
/// job currently holds, which is how an in-flight job re-morphs at its next
/// group boundary when leases change.
#[derive(Debug)]
pub struct Session {
    sim: Simulator,
    workload: Workload,
    golden_outs: Vec<mocha_model::Tensor<i8>>,
    current: mocha_model::Tensor<i8>,
    pos: usize,
    groups: Vec<GroupMetrics>,
    /// Cycles consumed by the groups executed so far — the session's own
    /// clock, used as the base of recorded spans.
    clock: u64,
}

impl Session {
    /// Starts a session at the first layer. Computes the golden reference
    /// up-front when the simulator verifies.
    ///
    /// # Panics
    /// Panics with a one-line message naming the layer when the network
    /// holds a grouped convolution: the tile walks and the tile kernel
    /// reduce every input channel, and only the golden model splits them.
    pub fn new(sim: Simulator, workload: Workload) -> Self {
        for layer in workload.network.layers() {
            if let LayerKind::Conv { groups, .. } = layer.kind {
                assert!(
                    groups == 1,
                    "{}: grouped convolution (groups={groups}) cannot be simulated",
                    layer.name
                );
            }
        }
        let golden_outs = if sim.verify {
            golden::forward(&workload)
        } else {
            Vec::new()
        };
        let current = workload.input.clone();
        Self {
            sim,
            workload,
            golden_outs,
            current,
            pos: 0,
            groups: Vec::new(),
            clock: 0,
        }
    }

    /// The workload under execution.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Whether every layer has executed.
    pub fn done(&self) -> bool {
        self.pos >= self.workload.network.layers().len()
    }

    /// Index of the next layer to execute.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Groups executed so far.
    pub fn groups(&self) -> &[GroupMetrics] {
        &self.groups
    }

    /// Cycles consumed by the groups executed so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The network's remaining dense work in MACs (for admission sizing).
    pub fn remaining_macs(&self) -> u64 {
        self.workload.network.layers()[self.pos..]
            .iter()
            .map(|l| l.macs() + pool_work(l))
            .sum()
    }

    /// Advances one group on the accelerator's own (whole) fabric.
    pub fn step(&mut self) -> &GroupMetrics {
        self.step_with(&mut NoopRecorder)
    }

    /// [`Session::step`] with an observability recorder.
    pub fn step_with<R: Recorder>(&mut self, rec: &mut R) -> &GroupMetrics {
        let fabric = self.sim.accelerator.fabric;
        self.step_on_with(&fabric, rec)
    }

    /// Advances one group on an arbitrary fabric — typically the sub-fabric
    /// of a resource lease. The decision (fusion depth, morph config) is
    /// made fresh against `fabric`, so a session stepped on different
    /// fabrics re-morphs at every boundary.
    ///
    /// # Panics
    /// Panics if the session is done, if no configuration fits `fabric`, or
    /// if verification is on and the output deviates from the golden model.
    pub fn step_on(&mut self, fabric: &mocha_fabric::FabricConfig) -> &GroupMetrics {
        self.step_on_with(fabric, &mut NoopRecorder)
    }

    /// [`Session::step_on`] with an observability recorder: the executed
    /// group emits a `group/<layers>` span (with nested tile-phase spans)
    /// based at the session clock, its fabric event counters, controller
    /// counters and a `core.group_cycles` sample. The recorder is generic —
    /// with [`NoopRecorder`] (`ACTIVE = false`) every hook compiles away and
    /// the path is exactly [`Session::step_on`].
    pub fn step_on_with<R: Recorder>(
        &mut self,
        fabric: &mocha_fabric::FabricConfig,
        rec: &mut R,
    ) -> &GroupMetrics {
        self.step_on_shard_with(fabric, &mut DecisionShard::disabled(), rec)
    }

    /// [`Session::step_on`] consulting a morph-decision cache shard: both
    /// controller calls (the primary decision and the compression-overflow
    /// fallback) go through the shard. With a disabled shard this is
    /// exactly [`Session::step_on`].
    pub fn step_on_shard(
        &mut self,
        fabric: &mocha_fabric::FabricConfig,
        shard: &mut DecisionShard<'_>,
    ) -> &GroupMetrics {
        self.step_on_shard_with(fabric, shard, &mut NoopRecorder)
    }

    /// [`Session::step_on_with`] consulting a morph-decision cache shard.
    pub fn step_on_shard_with<R: Recorder>(
        &mut self,
        fabric: &mocha_fabric::FabricConfig,
        shard: &mut DecisionShard<'_>,
        rec: &mut R,
    ) -> &GroupMetrics {
        assert!(!self.done(), "session already complete");
        let sim = &self.sim;
        let i = self.pos;
        let layers = self.workload.network.layers();
        let pctx = PlanContext {
            fabric,
            codec_costs: &sim.codec_costs,
            energy: &sim.energy,
        };

        let est = sim.estimate(&self.workload, i, &self.current);
        let mut decision = decide_cached(
            &pctx,
            sim.accelerator.policy,
            &layers[i..],
            &est,
            true,
            shard,
        );

        // Execute the decision. Compressed plans size buffers from
        // *estimated* encoded sizes (with a 2 % planning margin); on
        // pathological data the real encoding can still overflow, in
        // which case the controller re-decides without compression —
        // whose plan is exact and therefore always executable.
        let mut attempt = sim.execute_decision(fabric, &self.workload, i, &self.current, &decision);
        if attempt.is_err() && decision.morph.compression.any() {
            let fallback_policy = match sim.accelerator.policy {
                crate::controller::Policy::Mocha { objective } => {
                    crate::controller::Policy::MochaNoCompression { objective }
                }
                p => p,
            };
            decision = decide_cached(&pctx, fallback_policy, &layers[i..], &est, true, shard);
            attempt = sim.execute_decision(fabric, &self.workload, i, &self.current, &decision);
            rec.add(mocha_obs::names::CORE_COMPRESSION_FALLBACKS, 1);
        }
        let run =
            attempt.unwrap_or_else(|e| panic!("{}: chosen config infeasible: {e}", layers[i].name));
        let len = decision.group_len;

        if sim.verify {
            assert_eq!(
                run.output,
                self.golden_outs[i + len - 1],
                "{}: simulated output deviates from golden model",
                layers[i + len - 1].name
            );
        }

        let work_macs: u64 = layers[i..i + len]
            .iter()
            .map(|l| l.macs() + pool_work(l))
            .sum();
        self.groups.push(GroupMetrics {
            layers: layers[i..i + len].iter().map(|l| l.name.clone()).collect(),
            morph: decision.morph,
            cycles: run.cycles,
            events: run.events,
            energy: sim.energy.price(&run.events),
            spm_peak: run.spm_peak,
            compression: run.compression,
            work_macs,
            candidates: decision.candidates,
            phases: run.phases,
        });

        self.current = run.output;
        self.pos += len;
        let g = self.groups.last().unwrap();
        record_group(rec, "", self.clock, g);
        self.clock += g.cycles;
        g
    }

    /// The output tensor of the last executed group (the network output
    /// once [`Session::done`]).
    pub fn output(&self) -> &mocha_model::Tensor<i8> {
        &self.current
    }

    /// Consumes the session into aggregate metrics.
    pub fn finish(self) -> RunMetrics {
        RunMetrics {
            network: self.workload.network.name.clone(),
            accelerator: self.sim.accelerator.name.clone(),
            groups: self.groups,
        }
    }
}

/// Records one executed group's observability events: a
/// `[{prefix}/]group/<layers>` span covering `[base, base + cycles)`, the
/// tile-phase spans of its resolved pipeline schedule nested under it, its
/// fabric event counters, the `core.*` controller counters and a
/// `core.group_cycles` histogram sample.
///
/// Shared by [`Session::step_on_with`] (empty prefix) and the multi-tenant
/// scheduler (prefix `job/<id>`). Returns immediately — without resolving
/// the schedule or formatting paths — when the recorder is inactive.
pub fn record_group<R: Recorder>(rec: &mut R, prefix: &str, base: u64, g: &GroupMetrics) {
    use mocha_obs::names;
    if !R::ACTIVE {
        return;
    }
    let name = g.layers.join("+");
    let path = if prefix.is_empty() {
        format!("group/{name}")
    } else {
        format!("{prefix}/group/{name}")
    };
    rec.span(|| path.clone(), base, base + g.cycles);
    mocha_fabric::pipeline_schedule(&g.phases, g.morph.buffering).record_spans(&path, base, rec);
    g.events.record(rec);
    rec.add(names::CORE_GROUPS, 1);
    rec.add(names::CORE_CANDIDATES, g.candidates as u64);
    rec.sample(names::HIST_GROUP_CYCLES, g.cycles);
}

/// Pooling contributes window-reduction work; count it as half a MAC per
/// element so pool-heavy groups don't report zero work.
fn pool_work(layer: &mocha_model::Layer) -> u64 {
    match layer.kind {
        LayerKind::Pool { .. } => layer.pool_ops() / 2,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morph::Objective;
    use mocha_model::gen::SparsityProfile;
    use mocha_model::network;

    fn run(acc: Accelerator, seed: u64) -> RunMetrics {
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, seed);
        Simulator::new(acc).run(&w)
    }

    #[test]
    fn mocha_runs_tiny_bit_exact() {
        // `verify: true` inside `run` asserts golden equality per group.
        let m = run(Accelerator::mocha(Objective::Edp), 11);
        assert!(!m.groups.is_empty());
        assert!(m.cycles() > 0);
        assert!(m.report(&EnergyTable::default()).gops() > 0.0);
    }

    #[test]
    #[should_panic(expected = "g1: grouped convolution (groups=4) cannot be simulated")]
    fn grouped_convolutions_are_refused_up_front() {
        let mut b = network::NetworkBuilder::new("g", mocha_model::TensorShape::new(8, 16, 16));
        b.conv("c0", 8, 3, 1, 1, true, 4)
            .grouped_conv("g1", 16, 3, 1, 1, 4, true, 4);
        let w = Workload::generate(b.build(), SparsityProfile::NOMINAL, 1);
        Session::new(Simulator::new(Accelerator::mocha(Objective::Edp)), w);
    }

    #[test]
    fn every_baseline_runs_tiny_bit_exact() {
        for acc in Accelerator::baselines() {
            let m = run(acc.clone(), 11);
            assert!(m.cycles() > 0, "{}", acc.name);
        }
    }

    #[test]
    fn groups_cover_all_layers_exactly_once() {
        let m = run(Accelerator::mocha(Objective::Edp), 11);
        let names: Vec<String> = m.groups.iter().flat_map(|g| g.layers.clone()).collect();
        let expected: Vec<String> = network::tiny()
            .layers()
            .iter()
            .map(|l| l.name.clone())
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn mocha_beats_every_baseline_on_edp_for_sparse_workloads() {
        let w = Workload::generate(network::tiny(), SparsityProfile::SPARSE, 5);
        let table = EnergyTable::default();
        let mocha = Simulator::new(Accelerator::mocha(Objective::Edp)).run(&w);
        let mocha_edp = mocha.report(&table).edp();
        for acc in Accelerator::baselines() {
            let name = acc.name.clone();
            let base = Simulator::new(acc).run(&w);
            let base_edp = base.report(&table).edp();
            assert!(
                mocha_edp <= base_edp * 1.001,
                "mocha EDP {mocha_edp:.3e} worse than {name} {base_edp:.3e}"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(Accelerator::mocha(Objective::Edp), 3);
        let b = run(Accelerator::mocha(Objective::Edp), 3);
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.peak_storage(), b.peak_storage());
    }

    #[test]
    fn lenet_runs_end_to_end() {
        let w = Workload::generate(network::lenet5(), SparsityProfile::NOMINAL, 2);
        let m = Simulator::new(Accelerator::mocha(Objective::Edp)).run(&w);
        assert_eq!(
            m.groups.iter().map(|g| g.layers.len()).sum::<usize>(),
            network::lenet5().len()
        );
    }

    #[test]
    fn run_with_noop_recorder_is_exactly_run() {
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 11);
        let sim = Simulator::new(Accelerator::mocha(Objective::Edp));
        let plain = sim.run(&w);
        let noop = sim.run_with(&w, &mut mocha_obs::NoopRecorder);
        assert_eq!(plain.cycles(), noop.cycles());
        assert_eq!(plain.events(), noop.events());
        assert_eq!(
            plain.report(&EnergyTable::default()).energy.total_pj(),
            noop.report(&EnergyTable::default()).energy.total_pj()
        );
    }

    #[test]
    fn instrumented_run_pins_pre_instrumentation_goldens() {
        // These values were produced by the uninstrumented simulator before
        // the recorder hooks existed; recording must never perturb them.
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 11);
        let sim = Simulator::new(Accelerator::mocha(Objective::Edp));
        let mut rec = mocha_obs::MemRecorder::new();
        let m = sim.run_with(&w, &mut rec);
        assert_eq!(m.cycles(), 121_852);
        assert_eq!(m.events().dram_bytes(), 261_888);
        // And the recorder's view reconciles with the metrics' view.
        use mocha_obs::names;
        assert_eq!(rec.counter(names::CORE_GROUPS), m.groups.len() as u64);
        assert_eq!(
            rec.counter(names::FABRIC_DRAM_READ_BYTES)
                + rec.counter(names::FABRIC_DRAM_WRITE_BYTES),
            m.events().dram_bytes()
        );
        let hist = rec.hist(names::HIST_GROUP_CYCLES).unwrap();
        assert_eq!(hist.count(), m.groups.len() as u64);
        assert_eq!(
            hist.quantile(100.0).unwrap(),
            m.groups.iter().map(|g| g.cycles).max().unwrap()
        );
    }

    #[test]
    fn recorded_spans_nest_groups_over_tiles_on_one_clock() {
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 11);
        let sim = Simulator::new(Accelerator::mocha(Objective::Edp));
        let mut rec = mocha_obs::MemRecorder::new();
        let m = sim.run_with(&w, &mut rec);

        let groups: Vec<&mocha_obs::SpanEvent> = rec
            .spans()
            .iter()
            .filter(|s| s.path.starts_with("group/") && !s.path.contains("/tile/"))
            .collect();
        assert_eq!(groups.len(), m.groups.len());
        // Group spans tile the clock: contiguous, summing to total cycles.
        let mut t = 0;
        for g in &groups {
            assert_eq!(g.start, t);
            t = g.end;
        }
        assert_eq!(t, m.cycles());
        // Every tile span nests inside its group span.
        for s in rec.spans().iter().filter(|s| s.path.contains("/tile/")) {
            let parent = groups
                .iter()
                .find(|g| s.path.starts_with(&format!("{}/tile/", g.path)))
                .unwrap_or_else(|| panic!("orphan tile span {}", s.path));
            assert!(parent.start <= s.start && s.end <= parent.end, "{}", s.path);
        }
    }
}
