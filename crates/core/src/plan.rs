//! Analytical planning — the cost model behind the morphing controller's
//! "intelligence".
//!
//! Planning is the [`crate::walk`] traversal run with [`Estimated`]
//! streams: the same tile geometry, pipeline phases and event accounting as
//! execution ([`crate::exec`]), but stream sizes come from sparsity
//! *estimates* instead of real data, so thousands of candidate
//! configurations can be scored without touching tensors.
//!
//! Because the walk is shared, an uncompressed plan is **exactly equal** to
//! its execution (cycles, DRAM bytes, scratchpad peak): with `Codec::None`
//! estimated sizes are exact. Compressed plans differ only by the
//! codec-size estimation error and the bitmask skip estimate. Tests pin
//! both.

use crate::exec::ExecContext;
use crate::morph::MorphConfig;
use crate::tiling::Region;
use crate::walk::{walk_group, walk_layer, StreamSource, WalkTotals};
use mocha_compress::{Codec, CodecCostTable};
use mocha_energy::{EnergyTable, EventCounts};
use mocha_fabric::{CapacityError, FabricConfig, Scratchpad};
use mocha_model::layer::Layer;

/// Sparsity statistics the planner prices codecs with. The simulator feeds
/// it measured statistics of the live tensors (the layer's actual input is
/// on hand when the controller runs); standalone searches use profile
/// assumptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityEstimate {
    /// Zero fraction of the input feature map.
    pub ifmap_sparsity: f64,
    /// Mean zero-run length of the input feature map (for ZRLE pricing).
    pub ifmap_mean_run: f64,
    /// Zero fraction of the kernels.
    pub kernel_sparsity: f64,
    /// Expected zero fraction of the output feature map (ReLU layers
    /// produce ~half zeros on symmetric inputs).
    pub ofmap_sparsity: f64,
    /// Expected mean zero-run length of the output.
    pub ofmap_mean_run: f64,
}

impl SparsityEstimate {
    /// Fully dense — the conservative assumption.
    pub const DENSE: Self = Self {
        ifmap_sparsity: 0.0,
        ifmap_mean_run: 0.0,
        kernel_sparsity: 0.0,
        ofmap_sparsity: 0.0,
        ofmap_mean_run: 0.0,
    };
}

/// Planner context: fabric, codec costs, energy table.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext<'a> {
    /// The fabric instance being planned for.
    pub fabric: &'a FabricConfig,
    /// Compression-engine cost parameters.
    pub codec_costs: &'a CodecCostTable,
    /// Energy pricing for candidate scoring.
    pub energy: &'a EnergyTable,
}

/// Analytical prediction for one layer or fused group under one morph
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPlan {
    /// Predicted cycles.
    pub cycles: u64,
    /// Predicted event counts.
    pub events: EventCounts,
    /// Predicted total energy, pJ.
    pub energy_pj: f64,
    /// Predicted scratchpad high-water mark, bytes.
    pub spm_peak: usize,
    /// Predicted DRAM traffic, bytes.
    pub dram_bytes: u64,
    /// Output tiles in the schedule.
    pub tiles: usize,
}

impl LayerPlan {
    /// The plan of a walk: its totals, priced.
    fn priced(walk: WalkTotals, energy: &EnergyTable) -> Self {
        Self {
            cycles: walk.cycles,
            events: walk.events,
            energy_pj: energy.price(&walk.events).total_pj(),
            spm_peak: walk.spm_peak,
            dram_bytes: walk.events.dram_bytes(),
            tiles: walk.tiles,
        }
    }

    /// Energy-delay product in (pJ · cycles) — consistent units are all the
    /// controller's ranking needs.
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.cycles as f64
    }
}

/// The planning [`StreamSource`]: encoded sizes are the codecs' estimates
/// under a [`SparsityEstimate`], and no tensor is touched.
struct Estimated<'a>(&'a SparsityEstimate);

impl StreamSource for Estimated<'_> {
    /// Every size is `Codec::estimated_size` of a raw length.
    const SIZED_BY_LENGTH: bool = true;

    /// Compressed stream sizes are estimates, so a compressed plan
    /// provisions a 2 % capacity margin to keep the actual execution from
    /// overflowing on unlucky data; uncompressed plans use exact sizes and
    /// the full capacity (preserving the exact plan≡exec equality the tests
    /// pin).
    fn scratchpad(&self, fabric: &FabricConfig, morph: &MorphConfig) -> Scratchpad {
        let cap = fabric.spm_bytes();
        if morph.compression.any() {
            Scratchpad::with_capacity(cap - cap / 50)
        } else {
            Scratchpad::with_capacity(cap)
        }
    }

    fn window(&mut self, _: &Layer, _: &Region, raw: usize, codec: Codec) -> usize {
        codec.estimated_size(raw, self.0.ifmap_sparsity, self.0.ifmap_mean_run)
    }

    fn kernel_block(
        &mut self,
        _: usize,
        _: (usize, usize),
        _: (usize, usize),
        raw: usize,
        codec: Codec,
    ) -> usize {
        codec.estimated_size(raw, self.0.kernel_sparsity, 1.0)
    }

    fn skip_fraction(&self, _: usize, _: (usize, usize)) -> f64 {
        self.0.kernel_sparsity
    }

    fn weighted_tile(&mut self, _: &Layer, out: &Region, store: Option<Codec>) -> usize {
        self.output(out, store)
    }

    /// Pooling roughly preserves sparsity statistics, so the output stream
    /// is priced with the input estimate.
    fn pool_tile(&mut self, _: &Layer, out: &Region, store: Option<Codec>) -> usize {
        store.map_or(0, |codec| {
            codec.estimated_size(out.volume(), self.0.ifmap_sparsity, self.0.ifmap_mean_run)
        })
    }

    fn fused_tile(&mut self, _: &[Layer], regions: &[Region], store: Option<Codec>) -> usize {
        self.output(regions.last().expect("group is never empty"), store)
    }
}

impl Estimated<'_> {
    /// Estimated encoded size of an output tile's store.
    fn output(&self, out: &Region, store: Option<Codec>) -> usize {
        store.map_or(0, |codec| {
            codec.estimated_size(out.volume(), self.0.ofmap_sparsity, self.0.ofmap_mean_run)
        })
    }
}

impl PlanContext<'_> {
    fn walk(&self) -> ExecContext<'_> {
        ExecContext {
            fabric: self.fabric,
            codec_costs: self.codec_costs,
        }
    }
}

/// Plans any layer kind.
pub fn plan_layer(
    ctx: &PlanContext<'_>,
    layer: &Layer,
    morph: &MorphConfig,
    est: &SparsityEstimate,
    store_output: bool,
) -> Result<LayerPlan, CapacityError> {
    walk_layer(&ctx.walk(), layer, morph, store_output, &mut Estimated(est))
        .map(|walk| LayerPlan::priced(walk, ctx.energy))
}

/// Plans a fused group of consecutive `layers` (see [`crate::fusion`]).
pub fn plan_group(
    ctx: &PlanContext<'_>,
    layers: &[Layer],
    morph: &MorphConfig,
    est: &SparsityEstimate,
    store_output: bool,
) -> Result<LayerPlan, CapacityError> {
    walk_group(
        &ctx.walk(),
        layers,
        morph,
        store_output,
        &mut Estimated(est),
    )
    .map(|walk| LayerPlan::priced(walk, ctx.energy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{default_morph, execute_layer, ExecContext};
    use crate::morph::{CompressionChoice, LoopOrder, Parallelism, Tiling};
    use crate::tiling::reduction_depth;
    use mocha_fabric::Buffering;
    use mocha_model::gen::{SparsityProfile, Workload};
    use mocha_model::network;

    fn contexts() -> (FabricConfig, CodecCostTable, EnergyTable) {
        (
            FabricConfig::mocha(),
            CodecCostTable::default(),
            EnergyTable::default(),
        )
    }

    /// For uncompressed configs the plan must equal the execution exactly:
    /// estimated sizes are exact with `Codec::None`, so any deviation means
    /// the mirrored traversals diverged.
    #[test]
    fn plan_equals_exec_exactly_when_uncompressed() {
        let (fabric, costs, energy) = contexts();
        let pctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let ectx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 7);

        type MorphGen = Box<dyn Fn(&mocha_model::Layer) -> MorphConfig>;
        let variants: Vec<MorphGen> = vec![
            Box::new(default_morph),
            Box::new(|l| MorphConfig {
                loop_order: LoopOrder::InputStationary,
                ..default_morph(l)
            }),
            Box::new(|l| MorphConfig {
                tiling: Tiling {
                    tile_oc: 3,
                    tile_oh: 5,
                    tile_ow: 7,
                    tile_ic: 2,
                },
                ..default_morph(l)
            }),
            Box::new(|l| MorphConfig {
                buffering: Buffering::Single,
                ..default_morph(l)
            }),
            Box::new(|l| MorphConfig {
                parallelism: Parallelism::IntraFmap,
                ..default_morph(l)
            }),
        ];

        for (vi, variant) in variants.iter().enumerate() {
            let mut current = w.input.clone();
            for (i, layer) in w.network.layers().iter().enumerate() {
                let morph = variant(layer);
                assert_eq!(morph.compression, CompressionChoice::OFF);
                let run =
                    execute_layer(&ectx, layer, &current, w.kernels[i].as_ref(), &morph, true)
                        .unwrap();
                let plan =
                    plan_layer(&pctx, layer, &morph, &SparsityEstimate::DENSE, true).unwrap();
                assert_eq!(
                    plan.cycles, run.cycles,
                    "variant {vi} layer {} cycles",
                    layer.name
                );
                assert_eq!(
                    plan.dram_bytes,
                    run.events.dram_bytes(),
                    "variant {vi} layer {} dram",
                    layer.name
                );
                assert_eq!(
                    plan.spm_peak, run.spm_peak,
                    "variant {vi} layer {} spm",
                    layer.name
                );
                assert_eq!(
                    plan.tiles, run.tiles,
                    "variant {vi} layer {} tiles",
                    layer.name
                );
                assert_eq!(
                    plan.events.macs, run.events.macs,
                    "variant {vi} layer {} macs",
                    layer.name
                );
                current = run.output;
            }
        }
    }

    /// Compressed plans should track execution within the codec-estimation
    /// error when given the true sparsity statistics.
    #[test]
    fn compressed_plan_tracks_exec_within_tolerance() {
        let (fabric, costs, energy) = contexts();
        let pctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let ectx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 7);
        let mut current = w.input.clone();
        for (i, layer) in w.network.layers().iter().enumerate() {
            let morph = MorphConfig {
                compression: CompressionChoice::ON,
                ..default_morph(layer)
            };
            let run =
                execute_layer(&ectx, layer, &current, w.kernels[i].as_ref(), &morph, true).unwrap();
            // Feed the planner the measured statistics, as the simulator does.
            let in_stats = mocha_model::stats::analyze(current.data());
            let out_stats = mocha_model::stats::analyze(run.output.data());
            let k_sparsity = w.kernels[i].as_ref().map(|k| k.sparsity()).unwrap_or(0.0);
            let est = SparsityEstimate {
                ifmap_sparsity: in_stats.sparsity(),
                ifmap_mean_run: in_stats.mean_zero_run(),
                kernel_sparsity: k_sparsity,
                ofmap_sparsity: out_stats.sparsity(),
                ofmap_mean_run: out_stats.mean_zero_run(),
            };
            let plan = plan_layer(&pctx, layer, &morph, &est, true).unwrap();
            let cyc_err = (plan.cycles as f64 - run.cycles as f64).abs() / run.cycles as f64;
            assert!(cyc_err < 0.15, "layer {} cycle error {cyc_err}", layer.name);
            let dram_err = (plan.dram_bytes as f64 - run.events.dram_bytes() as f64).abs()
                / run.events.dram_bytes() as f64;
            assert!(
                dram_err < 0.15,
                "layer {} dram error {dram_err}",
                layer.name
            );
            current = run.output;
        }
    }

    /// [`Estimated`] with its sizes declared content-dependent, so the walk
    /// prices one reduction slab at a time: the oracle for slab runs.
    struct SlabBySlab<'a>(Estimated<'a>);

    impl StreamSource for SlabBySlab<'_> {
        const SIZED_BY_LENGTH: bool = false;

        fn scratchpad(&self, fabric: &FabricConfig, morph: &MorphConfig) -> Scratchpad {
            self.0.scratchpad(fabric, morph)
        }

        fn window(&mut self, layer: &Layer, win: &Region, raw: usize, codec: Codec) -> usize {
            self.0.window(layer, win, raw, codec)
        }

        fn kernel_block(
            &mut self,
            member: usize,
            oc: (usize, usize),
            ic: (usize, usize),
            raw: usize,
            codec: Codec,
        ) -> usize {
            self.0.kernel_block(member, oc, ic, raw, codec)
        }

        fn skip_fraction(&self, member: usize, oc: (usize, usize)) -> f64 {
            self.0.skip_fraction(member, oc)
        }

        fn weighted_tile(&mut self, layer: &Layer, out: &Region, store: Option<Codec>) -> usize {
            self.0.weighted_tile(layer, out, store)
        }

        fn pool_tile(&mut self, layer: &Layer, out: &Region, store: Option<Codec>) -> usize {
            self.0.pool_tile(layer, out, store)
        }

        fn fused_tile(
            &mut self,
            layers: &[Layer],
            regions: &[Region],
            store: Option<Codec>,
        ) -> usize {
            self.0.fused_tile(layers, regions, store)
        }
    }

    /// Pricing each run of equal-width slabs once walks to the same totals,
    /// bit for bit, as pricing every slab: under both loop orders, with and
    /// without codecs, on layers whose depth leaves a remainder slab at
    /// `tile_ic` 64 (lenet5 fc4: 120 = 64 + 56; alexnet conv2: 96 = 64 + 32)
    /// and on layers it divides (alexnet conv3: 4 slabs; fc6: 144).
    #[test]
    fn slab_runs_walk_bit_identical_to_single_slabs() {
        let (fabric, costs, _) = contexts();
        let ctx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let est = SparsityEstimate {
            ifmap_sparsity: 0.6,
            ifmap_mean_run: 3.0,
            kernel_sparsity: 0.3,
            ofmap_sparsity: 0.5,
            ofmap_mean_run: 2.0,
        };
        let (lenet, alexnet) = (network::lenet5(), network::alexnet());
        let layer = |net: &'static str, name: &str| {
            let n = if net == "lenet5" { &lenet } else { &alexnet };
            n.layers().iter().find(|l| l.name == name).unwrap().clone()
        };
        let cases = [
            (layer("lenet5", "fc4"), 120, (16, 1, 1)),
            (layer("alexnet", "conv2"), 96, (16, 5, 5)),
            (layer("alexnet", "conv3"), 256, (16, 5, 5)),
            (layer("alexnet", "fc6"), 9216, (8, 1, 1)),
        ];
        let mut runs = 0;
        for (layer, depth, (tile_oc, tile_oh, tile_ow)) in &cases {
            assert_eq!(reduction_depth(layer), *depth, "{}", layer.name);
            for loop_order in [LoopOrder::WeightStationary, LoopOrder::InputStationary] {
                for compression in [CompressionChoice::OFF, CompressionChoice::ON] {
                    let morph = MorphConfig {
                        tiling: Tiling {
                            tile_oc: *tile_oc,
                            tile_oh: *tile_oh,
                            tile_ow: *tile_ow,
                            tile_ic: 64,
                        },
                        loop_order,
                        compression,
                        ..default_morph(layer)
                    };
                    let what = format!("{} {morph}", layer.name);
                    let runs_once = walk_layer(&ctx, layer, &morph, true, &mut Estimated(&est))
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let one_by_one =
                        walk_layer(&ctx, layer, &morph, true, &mut SlabBySlab(Estimated(&est)))
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(runs_once.cycles, one_by_one.cycles, "{what} cycles");
                    assert_eq!(runs_once.events, one_by_one.events, "{what} events");
                    assert_eq!(
                        runs_once.events.priced_pj.to_bits(),
                        one_by_one.events.priced_pj.to_bits(),
                        "{what} priced_pj"
                    );
                    assert_eq!(runs_once.spm_peak, one_by_one.spm_peak, "{what} spm");
                    assert_eq!(runs_once.tiles, one_by_one.tiles, "{what} tiles");
                    assert_eq!(runs_once.phases, one_by_one.phases, "{what} phases");
                    runs += 1;
                }
            }
        }
        assert_eq!(runs, 16);
    }

    #[test]
    fn infeasible_config_is_rejected() {
        let (mut fabric, costs, energy) = contexts();
        fabric.spm_banks = 1;
        fabric.spm_bank_kb = 1;
        let pctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::single_conv(16, 32, 32, 32, 3, 1, 1);
        let layer = &net.layers()[0];
        let morph = MorphConfig {
            tiling: Tiling::whole(32, 32, 32, 16),
            ..default_morph(layer)
        };
        assert!(plan_layer(&pctx, layer, &morph, &SparsityEstimate::DENSE, true).is_err());
    }

    #[test]
    fn edp_combines_energy_and_cycles() {
        let p = LayerPlan {
            cycles: 100,
            events: EventCounts::default(),
            energy_pj: 5.0,
            spm_peak: 0,
            dram_bytes: 0,
            tiles: 1,
        };
        assert_eq!(p.edp(), 500.0);
    }
}
