//! Functional execution of one layer or fused group under a morph
//! configuration — bit-exact, with exact (data-dependent) timing and energy
//! accounting.
//!
//! Execution is the [`crate::walk`] traversal run with [`Measured`] streams:
//! every tile's streams are priced by the codecs' *exact* size passes over
//! the live tensors (planning runs the same walk on estimates, see
//! [`crate::plan`]), each tile is computed functionally by the one tile
//! kernel, [`crate::fusion::compute_region`], and written to the output.
//! Debug builds additionally encode every stream, decode it back, and
//! assert it equal to the source bytes, so `cargo test` remains the proof
//! that morphing never changes results; release builds skip the
//! materialization.

use crate::fusion::{compute_region, Input};
use crate::morph::{LoopOrder, MorphConfig};
use crate::tiling::{reduction_depth, Region};
use crate::walk::{walk_layer, StreamSource, WalkTotals};
use mocha_compress::{Codec, CodecCostTable, CompressionStats};
use mocha_energy::EventCounts;
use mocha_fabric::{Buffering, CapacityError, FabricConfig, Scratchpad, TilePhase};
use mocha_model::layer::{Layer, LayerKind};
use mocha_model::tensor::{Kernel, Tensor};
use mocha_model::TensorShape;
use std::cell::OnceCell;

/// Shared simulation context: the fabric instance and codec cost table.
#[derive(Debug, Clone, Copy)]
pub struct ExecContext<'a> {
    /// The fabric being simulated.
    pub fabric: &'a FabricConfig,
    /// Compression-engine cost parameters.
    pub codec_costs: &'a CodecCostTable,
}

/// Result of executing one layer or one fused group.
#[derive(Debug, Clone)]
pub struct LayerRun {
    /// The output feature map of the (final) layer, bit-exact vs the golden
    /// model.
    pub output: Tensor<i8>,
    /// Total cycles under the configured buffering discipline.
    pub cycles: u64,
    /// All counted hardware events.
    pub events: EventCounts,
    /// Scratchpad high-water mark in bytes (the storage metric).
    pub spm_peak: usize,
    /// Compression accounting for the streams.
    pub compression: CompressionStats,
    /// Output tiles executed.
    pub tiles: usize,
    /// The tile phases that were scheduled (for trace/Gantt rendering).
    pub phases: Vec<TilePhase>,
}

/// Prices `data` under `codec`: the exact encoded size in bytes, computed
/// by the codec's allocation-free size pass. Debug builds additionally
/// encode, decode, and assert the roundtrip is bit-exact and that the size
/// pass agrees with the real encoder — the timing model and the
/// bit-exactness proof stay one code path under test.
fn encode_checked(codec: Codec, data: &[i8]) -> usize {
    let size = codec.encoded_size(data);
    #[cfg(debug_assertions)]
    {
        let enc = mocha_compress::Compressed::encode(codec, data);
        debug_assert_eq!(
            enc.decode(),
            data,
            "codec {} roundtrip broken",
            codec.name()
        );
        debug_assert_eq!(
            enc.bytes(),
            size,
            "codec {} size pass disagrees with encoder",
            codec.name()
        );
    }
    size
}

/// Extracts the raw bytes of an input window into a caller-owned scratch
/// buffer (cleared first), handling the fc flattened special case (where
/// the "window" is a flat reduction range). Row-wise copies straight from
/// the source tensor — no intermediate window tensor, and the tile loop
/// reuses one allocation across all its DMA transfers.
fn window_bytes_into(layer: &Layer, input: &Tensor<i8>, win: &Region, out: &mut Vec<i8>) {
    out.clear();
    // A tile whose receptive field lies entirely in padding (possible with
    // stride > 1 and generous padding) has an empty clipped window.
    if win.volume() == 0 {
        return;
    }
    match layer.kind {
        LayerKind::Fc { .. } => out.extend_from_slice(&input.data()[win.c0..win.c0 + win.cn]),
        _ => {
            out.reserve(win.volume());
            let shape = input.shape();
            for c in win.c0..win.c0 + win.cn {
                for y in win.y0..win.y0 + win.yn {
                    let src = shape.index(c, y, win.x0);
                    out.extend_from_slice(&input.data()[src..src + win.xn]);
                }
            }
        }
    }
}

/// The execution [`StreamSource`]: streams are the live tensors' bytes,
/// sized exactly, recorded in [`CompressionStats`], and every tile is
/// computed and written to the output.
pub(crate) struct Measured<'a> {
    input: &'a Tensor<i8>,
    /// One kernel per walked layer, `None` for pooling.
    kernels: &'a [Option<&'a Kernel>],
    output: Tensor<i8>,
    compression: CompressionStats,
    /// One scratch buffer for every raw stream the walk materializes —
    /// windows and kernel blocks (one contiguous copy per filter) are
    /// priced and discarded, so the allocation is reused across all tiles
    /// and slabs.
    scratch: Vec<i8>,
    /// Per member, the zero count of each filter of its kernel, taken in
    /// one pass over the kernel on the member's first
    /// [`StreamSource::skip_fraction`].
    filter_zeros: Vec<OnceCell<Vec<usize>>>,
}

impl<'a> Measured<'a> {
    /// A source reading `input` and `kernels`, writing an output of shape
    /// `out`.
    pub(crate) fn new(
        input: &'a Tensor<i8>,
        kernels: &'a [Option<&'a Kernel>],
        out: TensorShape,
    ) -> Self {
        Self {
            input,
            kernels,
            output: Tensor::zeros(out),
            compression: CompressionStats::default(),
            scratch: Vec::new(),
            filter_zeros: vec![OnceCell::new(); kernels.len()],
        }
    }

    /// The run a walk over this source produced.
    pub(crate) fn into_run(self, walk: WalkTotals) -> LayerRun {
        LayerRun {
            output: self.output,
            cycles: walk.cycles,
            events: walk.events,
            spm_peak: walk.spm_peak,
            compression: self.compression,
            tiles: walk.tiles,
            phases: walk.phases,
        }
    }

    fn kernel(&self, member: usize) -> &'a Kernel {
        self.kernels[member].expect("weighted layer needs kernel")
    }

    /// Records an uncompressed stream of `raw` bytes, whose size is its
    /// length, without materializing or scanning it.
    fn price_uncompressed(&mut self, raw: usize, is_kernel: bool) -> usize {
        self.compression.record(Codec::None, is_kernel, raw, raw);
        raw
    }

    /// Sizes and records the stream in `scratch`.
    fn price_scratch(&mut self, codec: Codec, is_kernel: bool) -> usize {
        let encoded = encode_checked(codec, &self.scratch);
        self.compression
            .record(codec, is_kernel, self.scratch.len(), encoded);
        encoded
    }

    /// Computes a singleton layer's tile with the one tile kernel,
    /// [`compute_region`], writes it and sizes its store.
    fn layer_tile(&mut self, layer: &Layer, out: &Region, store: Option<Codec>) -> usize {
        let buf = compute_region(layer, Input::full(self.input), self.kernels[0], *out);
        self.emit(out, buf.data(), store)
    }

    /// Writes a finished tile to the output and sizes its store.
    fn emit(&mut self, out: &Region, data: &[i8], store: Option<Codec>) -> usize {
        write_tile(&mut self.output, out, data);
        store.map_or(0, |codec| {
            let encoded = encode_checked(codec, data);
            self.compression.record(codec, false, data.len(), encoded);
            encoded
        })
    }
}

impl StreamSource for Measured<'_> {
    /// Sizes are exact encodings of live bytes.
    const SIZED_BY_LENGTH: bool = false;

    fn scratchpad(&self, fabric: &FabricConfig, _: &MorphConfig) -> Scratchpad {
        Scratchpad::new(fabric)
    }

    fn window(&mut self, layer: &Layer, win: &Region, raw: usize, codec: Codec) -> usize {
        if codec == Codec::None {
            return self.price_uncompressed(raw, false);
        }
        window_bytes_into(layer, self.input, win, &mut self.scratch);
        debug_assert_eq!(self.scratch.len(), raw);
        self.price_scratch(codec, false)
    }

    fn kernel_block(
        &mut self,
        member: usize,
        (c0, cn): (usize, usize),
        (ic0, icn): (usize, usize),
        raw: usize,
        codec: Codec,
    ) -> usize {
        if codec == Codec::None {
            return self.price_uncompressed(raw, true);
        }
        self.kernel(member)
            .filter_block_into(c0, cn, ic0, icn, &mut self.scratch);
        debug_assert_eq!(self.scratch.len(), raw);
        self.price_scratch(codec, true)
    }

    /// The zero fraction of filters `[c0, c0+cn)`: the sum of their entries
    /// in the member's per-filter zero-count table over their volume. No
    /// tile rescans or copies its kernel block.
    fn skip_fraction(&self, member: usize, (c0, cn): (usize, usize)) -> f64 {
        let kernel = self.kernel(member);
        let total = cn * kernel.shape().filter_volume();
        if total == 0 {
            return 0.0;
        }
        let counts = self.filter_zeros[member].get_or_init(|| {
            (0..kernel.shape().out_c)
                .map(|oc| kernel.filter(oc).iter().filter(|&&v| v == 0).count())
                .collect()
        });
        let zeros: usize = counts[c0..c0 + cn].iter().sum();
        zeros as f64 / total as f64
    }

    fn weighted_tile(&mut self, layer: &Layer, out: &Region, store: Option<Codec>) -> usize {
        self.layer_tile(layer, out, store)
    }

    fn pool_tile(&mut self, layer: &Layer, out: &Region, store: Option<Codec>) -> usize {
        self.layer_tile(layer, out, store)
    }

    fn fused_tile(&mut self, layers: &[Layer], regions: &[Region], store: Option<Codec>) -> usize {
        let buf = crate::fusion::cascade(layers, self.input, self.kernels, regions);
        self.emit(&buf.region, buf.data(), store)
    }
}

/// Executes any layer kind under a morph configuration. `store_output =
/// false` suppresses the DRAM writeback (used when a fused successor
/// consumes the tile on-chip).
pub fn execute_layer(
    ctx: &ExecContext<'_>,
    layer: &Layer,
    input: &Tensor<i8>,
    kernel: Option<&Kernel>,
    morph: &MorphConfig,
    store_output: bool,
) -> Result<LayerRun, CapacityError> {
    let kernels = [kernel];
    let mut src = Measured::new(input, &kernels, layer.output());
    walk_layer(ctx, layer, morph, store_output, &mut src).map(|walk| src.into_run(walk))
}

/// Writes a region-local tile buffer back into the full output tensor.
fn write_tile(output: &mut Tensor<i8>, r: &Region, data: &[i8]) {
    debug_assert_eq!(data.len(), r.volume());
    let shape = output.shape();
    for (i, row) in data.chunks_exact(r.xn).enumerate() {
        let dst = shape.index(r.c0 + i / r.yn, r.y0 + i % r.yn, r.x0);
        output.data_mut()[dst..dst + r.xn].copy_from_slice(row);
    }
}

/// A sensible default morph configuration for a layer: whole-layer tiles if
/// they fit, otherwise a generic blocked shape; used by tests and as the
/// seed point of controller searches.
pub fn default_morph(layer: &Layer) -> MorphConfig {
    let out = layer.output();
    let depth = reduction_depth(layer);
    // Weight-stationary execution pins a whole `tile_oc × depth × k²` kernel
    // block on-chip; size the block to a quarter of the default scratchpad.
    let kk = match layer.kind {
        LayerKind::Conv { k, .. } | LayerKind::DwConv { k, .. } => k * k,
        _ => 1,
    };
    let pinned_budget = 32 * 1024;
    let tile_oc_max = (pinned_budget / (depth * kk).max(1)).max(1);
    MorphConfig {
        tiling: crate::morph::Tiling {
            tile_oc: out.c.min(64).min(tile_oc_max),
            tile_oh: out.h.min(16),
            tile_ow: out.w.min(16),
            tile_ic: depth.min(256),
        },
        parallelism: crate::morph::Parallelism::InterFmap,
        loop_order: LoopOrder::WeightStationary,
        compression: crate::morph::CompressionChoice::OFF,
        buffering: Buffering::Double,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morph::{CompressionChoice, Parallelism, Tiling};
    use mocha_model::gen::{self, SparsityProfile, Workload};
    use mocha_model::{golden, network, KernelShape};

    fn ctx_objects() -> (FabricConfig, CodecCostTable) {
        (FabricConfig::mocha(), CodecCostTable::default())
    }

    /// Runs every layer of `tiny` under `morph` and asserts bit-exactness
    /// against the golden model.
    fn assert_network_exact(morph_for: impl Fn(&Layer) -> MorphConfig) {
        let (fabric, costs) = ctx_objects();
        let ctx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 17);
        let golden_outs = golden::forward(&w);
        let mut current = w.input.clone();
        for (i, layer) in w.network.layers().iter().enumerate() {
            let morph = morph_for(layer);
            let run = execute_layer(&ctx, layer, &current, w.kernels[i].as_ref(), &morph, true)
                .unwrap_or_else(|e| panic!("{}: {e}", layer.name));
            assert_eq!(run.output, golden_outs[i], "layer {} mismatch", layer.name);
            assert!(run.cycles > 0, "layer {} took no cycles", layer.name);
            current = run.output;
        }
    }

    #[test]
    fn default_morph_is_bit_exact_on_tiny() {
        assert_network_exact(default_morph);
    }

    #[test]
    fn compressed_execution_is_bit_exact() {
        assert_network_exact(|l| MorphConfig {
            compression: CompressionChoice::ON,
            ..default_morph(l)
        });
    }

    #[test]
    fn input_stationary_is_bit_exact() {
        assert_network_exact(|l| MorphConfig {
            loop_order: LoopOrder::InputStationary,
            ..default_morph(l)
        });
    }

    #[test]
    fn small_tiles_are_bit_exact() {
        assert_network_exact(|l| MorphConfig {
            tiling: Tiling {
                tile_oc: 3,
                tile_oh: 5,
                tile_ow: 7,
                tile_ic: 2,
            },
            ..default_morph(l)
        });
    }

    #[test]
    fn intra_fmap_and_hybrid_are_bit_exact() {
        assert_network_exact(|l| MorphConfig {
            parallelism: Parallelism::IntraFmap,
            ..default_morph(l)
        });
        assert_network_exact(|l| MorphConfig {
            parallelism: Parallelism::Hybrid { fmap_groups: 4 },
            ..default_morph(l)
        });
    }

    #[test]
    fn single_buffering_is_bit_exact_and_slower() {
        let (fabric, costs) = ctx_objects();
        let ctx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 3);
        let layer = &w.network.layers()[0];
        let base = default_morph(layer);
        let single = MorphConfig {
            buffering: Buffering::Single,
            ..base
        };
        let r2 = execute_layer(&ctx, layer, &w.input, w.kernels[0].as_ref(), &base, true).unwrap();
        let r1 =
            execute_layer(&ctx, layer, &w.input, w.kernels[0].as_ref(), &single, true).unwrap();
        assert_eq!(r1.output, r2.output);
        assert!(
            r1.cycles >= r2.cycles,
            "single {} < double {}",
            r1.cycles,
            r2.cycles
        );
        // Single buffering must use less scratchpad.
        assert!(
            r1.spm_peak < r2.spm_peak,
            "single {} !< double {}",
            r1.spm_peak,
            r2.spm_peak
        );
    }

    #[test]
    fn compression_reduces_dram_traffic_on_sparse_inputs() {
        let (fabric, costs) = ctx_objects();
        let ctx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let net = network::single_conv(16, 32, 32, 32, 3, 1, 1);
        let layer = &net.layers()[0];
        let mut rng = gen::rng(5);
        let input = gen::clustered_activations(layer.input, 0.7, 8, &mut rng);
        let kernel = gen::kernel(layer.kernel_shape().unwrap(), 0.5, &mut rng);
        let base = default_morph(layer);
        let comp = MorphConfig {
            compression: CompressionChoice::ON,
            ..base
        };
        let r_raw = execute_layer(&ctx, layer, &input, Some(&kernel), &base, true).unwrap();
        let r_cmp = execute_layer(&ctx, layer, &input, Some(&kernel), &comp, true).unwrap();
        assert_eq!(r_raw.output, r_cmp.output);
        assert!(
            r_cmp.events.dram_bytes() < r_raw.events.dram_bytes(),
            "compressed {} !< raw {}",
            r_cmp.events.dram_bytes(),
            r_raw.events.dram_bytes()
        );
        assert!(r_cmp.compression.overall_ratio() > 1.3);
        // Zero-skipping: fewer MACs issued.
        assert!(r_cmp.events.macs < r_raw.events.macs);
    }

    #[test]
    fn oversized_working_set_reports_capacity_error() {
        let (mut fabric, costs) = ctx_objects();
        fabric.spm_banks = 1;
        fabric.spm_bank_kb = 1; // 1 KB scratchpad
        let ctx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let net = network::single_conv(16, 32, 32, 32, 3, 1, 1);
        let layer = &net.layers()[0];
        let mut rng = gen::rng(5);
        let input = gen::activations(layer.input, 0.0, &mut rng);
        let kernel = gen::kernel(layer.kernel_shape().unwrap(), 0.0, &mut rng);
        let morph = MorphConfig {
            tiling: Tiling::whole(32, 32, 32, 16),
            ..default_morph(layer)
        };
        assert!(execute_layer(&ctx, layer, &input, Some(&kernel), &morph, true).is_err());
    }

    #[test]
    fn skipping_store_zeroes_writeback_traffic() {
        let (fabric, costs) = ctx_objects();
        let ctx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 3);
        let layer = &w.network.layers()[0];
        let m = default_morph(layer);
        let with = execute_layer(&ctx, layer, &w.input, w.kernels[0].as_ref(), &m, true).unwrap();
        let without =
            execute_layer(&ctx, layer, &w.input, w.kernels[0].as_ref(), &m, false).unwrap();
        assert_eq!(without.events.dram_write_bytes, 0);
        assert!(with.events.dram_write_bytes > 0);
        assert_eq!(with.output, without.output);
    }

    #[test]
    fn spm_peak_respects_capacity() {
        let (fabric, costs) = ctx_objects();
        let ctx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 3);
        for (i, layer) in w.network.layers().iter().enumerate() {
            let run = execute_layer(
                &ctx,
                layer,
                &golden_input(&w, i),
                w.kernels[i].as_ref(),
                &default_morph(layer),
                true,
            )
            .unwrap();
            assert!(run.spm_peak <= fabric.spm_bytes(), "layer {}", layer.name);
        }
    }

    fn golden_input(w: &Workload, i: usize) -> Tensor<i8> {
        if i == 0 {
            w.input.clone()
        } else {
            golden::forward(w)[i - 1].clone()
        }
    }

    #[test]
    fn skip_fraction_table_matches_kernel_rescan() {
        // The zero fraction of filters [c0, c0+cn), rescanned from the
        // kernel bytes.
        fn rescan(kernel: &Kernel, (c0, cn): (usize, usize)) -> f64 {
            let fv = kernel.shape().filter_volume();
            if cn * fv == 0 {
                return 0.0;
            }
            let block = &kernel.data()[c0 * fv..(c0 + cn) * fv];
            block.iter().filter(|&&v| v == 0).count() as f64 / block.len() as f64
        }
        let mut rng = gen::rng(0x5e10);
        let conv = network::single_conv(6, 8, 8, 12, 3, 1, 1);
        let shapes = [
            conv.layers()[0].kernel_shape().unwrap(),
            KernelShape::new(16, 1, 3),   // depthwise
            KernelShape::new(10, 300, 1), // fc
        ];
        let mut kernels: Vec<Kernel> = shapes
            .iter()
            .map(|&s| gen::kernel(s, 0.4, &mut rng))
            .collect();
        for k in &mut kernels {
            // Filter 0 all zero, filter 1 all nonzero.
            let fv = k.shape().filter_volume();
            k.data_mut()[..fv].fill(0);
            for v in &mut k.data_mut()[fv..2 * fv] {
                *v = if *v == 0 { 1 } else { *v };
            }
        }
        let refs: Vec<Option<&Kernel>> = kernels.iter().map(Some).collect();
        let input = Tensor::zeros(TensorShape::new(1, 1, 1));
        let src = Measured::new(&input, &refs, TensorShape::new(1, 1, 1));
        for (member, kernel) in kernels.iter().enumerate() {
            let out_c = kernel.shape().out_c;
            let mut ranges = vec![(0, 0), (0, 1), (1, 1), (0, out_c), (out_c, 0)];
            for _ in 0..50 {
                let c0 = rng.gen_range(0..out_c);
                ranges.push((c0, rng.gen_range(0..=out_c - c0)));
            }
            for oc in ranges {
                assert_eq!(
                    src.skip_fraction(member, oc).to_bits(),
                    rescan(kernel, oc).to_bits(),
                    "{:?} filters {oc:?}",
                    kernel.shape()
                );
            }
            assert_eq!(src.skip_fraction(member, (0, 1)), 1.0);
            assert_eq!(src.skip_fraction(member, (1, 1)), 0.0);
        }
    }

    #[test]
    fn event_macs_match_layer_work_when_dense() {
        let (fabric, costs) = ctx_objects();
        let ctx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let net = network::single_conv(8, 16, 16, 8, 3, 1, 1);
        let layer = &net.layers()[0];
        let mut rng = gen::rng(1);
        let input = gen::activations(layer.input, 0.5, &mut rng);
        let kernel = gen::kernel(layer.kernel_shape().unwrap(), 0.0, &mut rng);
        let run = execute_layer(
            &ctx,
            layer,
            &input,
            Some(&kernel),
            &default_morph(layer),
            true,
        )
        .unwrap();
        assert_eq!(run.events.macs + run.events.macs_skipped, layer.macs());
        assert_eq!(run.events.macs_skipped, 0);
    }
}
