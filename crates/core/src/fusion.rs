//! Layer merging (fusion): executing a cascade of conv/pool layers
//! tile-by-tile without round-tripping intermediate feature maps through
//! DRAM.
//!
//! A fused group is a run of consecutive layers starting with a conv, held
//! as a `&[Layer]` slice of the network. The group walk
//! ([`crate::walk`]) tiles the *final* layer's output; each tile's required
//! region is back-propagated through the group ([`back_regions`]), the group
//! input window is fetched once, and every member layer computes its region
//! on-chip ([`cascade`]) with [`compute_region`], the simulator's one tile
//! kernel, which also computes every singleton layer's tiles. Overlapping
//! halos between adjacent tiles are **recomputed** — the classic fused-layer
//! trade: DRAM traffic down, MACs up, on-chip buffering up. Whether that
//! trade wins is exactly what the morphing controller evaluates per layer
//! (experiment F7).
//!
//! Conv, depthwise and pointwise tiles reduce over stride phase planes of
//! the tile's input window, in register-blocked runs of outputs: each
//! weight is broadcast over one long contiguous run, the software form of a
//! weight-stationary 1-D row dataflow.
//!
//! Intermediate regions stay *raw* in the scratchpad (encoding between fused
//! layers would cost codec energy for no wire savings); the group input is
//! decoded at the port on arrival, and only the final output is re-encoded.

use crate::exec::{ExecContext, LayerRun, Measured};
use crate::morph::MorphConfig;
use crate::tiling::{input_extent, input_window, Region};
use crate::walk::walk_group;
use mocha_compress::CodecCostTable;
use mocha_fabric::{CapacityError, FabricConfig};
use mocha_model::layer::{Layer, LayerKind, PoolKind};
use mocha_model::tensor::{requantize, Kernel, Tensor};
use mocha_model::TensorShape;

/// Maximum number of layers a group may contain. Deeper cascades explode
/// halo recomputation and buffering without additional DRAM savings on the
/// networks evaluated.
pub const MAX_GROUP_DEPTH: usize = 3;

/// Whether `next` may be appended to a group currently ending in `last`.
///
/// Groups start with a weighted spatial layer (conv); pool and further conv
/// layers may cascade. Fc layers never fuse (they flatten the tensor, so
/// there is no spatial tiling to share), and nothing fuses *after* an fc.
pub fn can_extend(group_len: usize, last: &Layer, next: &Layer) -> bool {
    if group_len >= MAX_GROUP_DEPTH {
        return false;
    }
    let last_ok = matches!(
        last.kind,
        LayerKind::Conv { .. }
            | LayerKind::Pool { .. }
            | LayerKind::DwConv { .. }
            | LayerKind::Pointwise { .. }
    );
    let next_ok = matches!(
        next.kind,
        LayerKind::Conv { .. }
            | LayerKind::Pool { .. }
            | LayerKind::DwConv { .. }
            | LayerKind::Pointwise { .. }
    );
    // A group must begin with a conv; `group_len >= 1` callers guarantee the
    // first member was weighted.
    last_ok && next_ok
}

/// Back-propagates an output region of the group's final layer through every
/// member. Fills `regions` (cleared first) so that `regions[i]` is the
/// region of layer `i`'s *output* needed, for `i` in `0..layers.len()`, and
/// returns the group-input window (the region of the group's input tensor).
/// The caller owns `regions`, so a tile walk reuses one allocation.
pub fn back_regions(layers: &[Layer], final_region: Region, regions: &mut Vec<Region>) -> Region {
    let n = layers.len();
    regions.clear();
    regions.resize(n, final_region);
    for i in (0..n - 1).rev() {
        let consumer = &layers[i + 1];
        let needed = regions[i + 1];
        regions[i] = match consumer.kind {
            // A conv or pointwise consumer needs all of its input channels.
            LayerKind::Conv { .. } | LayerKind::Pointwise { .. } => {
                let w = input_window(consumer, &needed, 0, consumer.input.c);
                Region {
                    c0: 0,
                    cn: consumer.input.c,
                    ..w
                }
            }
            // Pool and depthwise consumers are per-channel: they need the
            // same channels they produce.
            LayerKind::Pool { .. } | LayerKind::DwConv { .. } => {
                input_window(consumer, &needed, needed.c0, needed.cn)
            }
            LayerKind::Fc { .. } => unreachable!("fc never fuses"),
        };
    }
    let first = &layers[0];
    let w = input_window(first, &regions[0], 0, first.input.c);
    Region {
        c0: 0,
        cn: first.input.c,
        ..w
    }
}

/// A partial tensor: a region's worth of data addressed by *absolute*
/// coordinates of the full logical tensor it belongs to.
#[derive(Debug, Clone)]
pub struct RegionBuf {
    /// The covered region.
    pub region: Region,
    /// Logical shape of the full tensor this is a piece of.
    pub full: TensorShape,
    data: Vec<i8>,
}

impl RegionBuf {
    /// Allocates a zeroed region buffer.
    pub fn zeros(region: Region, full: TensorShape) -> Self {
        Self {
            region,
            full,
            data: vec![0; region.volume()],
        }
    }

    /// Wraps existing region-local data (CHW order within the region).
    pub fn from_vec(region: Region, full: TensorShape, data: Vec<i8>) -> Self {
        assert_eq!(data.len(), region.volume());
        Self { region, full, data }
    }

    /// Value at absolute coordinates; zero outside the full tensor (padding),
    /// panic for in-tensor coordinates the region does not cover (a region
    /// derivation bug).
    #[inline]
    pub fn get(&self, c: usize, y: isize, x: isize) -> i8 {
        if y < 0 || x < 0 || y as usize >= self.full.h || x as usize >= self.full.w {
            return 0;
        }
        self.row(c, y as usize, x as usize, 1)[0]
    }

    /// The `len` values of channel `c`, row `y`, from column `x` on, in
    /// absolute coordinates; panics unless the region covers all of them.
    pub fn row(&self, c: usize, y: usize, x: usize, len: usize) -> &[i8] {
        Input::partial(self).row(c, y, x, len)
    }

    /// Region-local data slice.
    pub fn data(&self) -> &[i8] {
        &self.data
    }
}

/// What a layer reads: a dense CHW block of a full logical tensor — the
/// whole tensor (a layer input in DRAM) or a [`RegionBuf`] (a fused
/// producer's region on-chip) — addressed by absolute coordinates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Input<'a> {
    data: &'a [i8],
    region: Region,
    full: TensorShape,
}

impl<'a> Input<'a> {
    /// All of `t`.
    pub(crate) fn full(t: &'a Tensor<i8>) -> Self {
        let full = t.shape();
        let region = Region {
            c0: 0,
            cn: full.c,
            y0: 0,
            yn: full.h,
            x0: 0,
            xn: full.w,
        };
        Self {
            data: t.data(),
            region,
            full,
        }
    }

    /// The region `buf` covers.
    pub(crate) fn partial(buf: &'a RegionBuf) -> Self {
        Self {
            data: &buf.data,
            region: buf.region,
            full: buf.full,
        }
    }

    /// `len ≥ 1` values of channel `c`, row `y`, from column `x` on.
    ///
    /// # Panics
    /// Panics unless the block covers all of them (a region derivation bug).
    #[inline]
    fn row(&self, c: usize, y: usize, x: usize, len: usize) -> &'a [i8] {
        let r = &self.region;
        assert!(
            r.contains(c, y, x) && x + len <= r.x0 + r.xn,
            "read ({c},{y},{x}..{}) outside region {r:?}",
            x + len
        );
        &self.data[((c - r.c0) * r.yn + (y - r.y0)) * r.xn + (x - r.x0)..][..len]
    }
}

/// Outputs per register-blocked run of [`window_reduce`].
const CH: usize = 16;

/// The sliding-window reduction of conv (every output channel reduces
/// every input channel), depthwise (`per_channel`: output channel `c`
/// reduces input channel `c` alone) and pointwise (a 1×1 conv) layers.
///
/// The tile's clipped input window is first split by the stride into
/// zero-filled phase planes, `min(s, k)²` per input channel, each row
/// `wq = xn + ⌈k/s⌉ − 1` wide: padded window row `ly`, column `lx` lands
/// in plane `(ly mod s, lx mod s)` at `(ly / s, lx / s)`. Padding exists
/// only as those zeros. Every output row then shares one flat index space
/// of pitch `wq`, and tap `(ky, kx)` is one contiguous run of its plane
/// from offset `(ky / s)·wq + kx / s`. Each output channel lists its
/// nonzero taps as `(weight, offset)` pairs, and each run of [`CH`]
/// outputs sums every tap in registers, the `i8·i8` product taken in `i16`
/// (where it always fits). Integer sums make the order irrelevant, so the
/// bytes equal the golden model's; the `wq − xn` extra columns of each row
/// are dropped at requantization.
fn window_reduce(
    layer: &Layer,
    input: Input<'_>,
    kernel: &Kernel,
    (k, s, pad): (usize, usize, usize),
    per_channel: bool,
    buf: &mut RegionBuf,
) {
    let (shift, relu) = (layer.requant_shift, layer.has_relu());
    let r = buf.region;
    let full = input.full;
    // The clipped input window the tile reads; none means every window
    // lies in padding and every output is requantize(0) = 0, as zeroed.
    let (y_lo, y_len) = input_extent(r.y0, r.yn, k, s, pad, full.h);
    let (x_lo, x_len) = input_extent(r.x0, r.xn, k, s, pad, full.w);
    if y_len == 0 || x_len == 0 {
        return;
    }
    // Phases at or past `k` hold no tap. `n` flat outputs make whole runs,
    // and each plane reaches the farthest tap of the last run.
    let (p, kq) = (s.min(k), k.div_ceil(s));
    let wq = r.xn + kq - 1;
    let n = (r.yn * wq).next_multiple_of(CH);
    let plane = n + (kq - 1) * (wq + 1);
    let channels = if per_channel {
        r.c0..r.c0 + r.cn
    } else {
        0..full.c
    };
    let mut planes = vec![0i8; channels.len() * p * p * plane];
    // The padded-window coordinates of the first clipped input byte.
    let (ly0, lx0) = (y_lo + pad - r.y0 * s, x_lo + pad - r.x0 * s);
    for (pc, ic) in channels.enumerate() {
        for (ly, iy) in (ly0..).zip(y_lo..y_lo + y_len).filter(|(ly, _)| ly % s < p) {
            let row = input.row(ic, iy, x_lo, x_len);
            let dst = &mut planes[(pc * p + ly % s) * p * plane + ly / s * wq..];
            if s == 1 {
                dst[lx0..][..x_len].copy_from_slice(row);
            } else {
                for (lx, &v) in (lx0..).zip(row).filter(|(lx, _)| lx % s < p) {
                    dst[lx % s * plane + lx / s] = v;
                }
            }
        }
    }
    let mut taps: Vec<(i16, usize)> = Vec::new();
    let mut sums = vec![0i32; n];
    for (ci, c) in (r.c0..r.c0 + r.cn).enumerate() {
        let filter = kernel.filter(c);
        let first = if per_channel { ci } else { 0 };
        taps.clear();
        for (tap, &w) in filter.iter().enumerate().filter(|(_, &w)| w != 0) {
            let (pc, ky, kx) = (first + tap / (k * k), tap / k % k, tap % k);
            let phase = (pc * p + ky % s) * p + kx % s;
            taps.push((w as i16, phase * plane + ky / s * wq + kx / s));
        }
        for (j, run) in sums.chunks_exact_mut(CH).enumerate() {
            let mut acc = [0i32; CH];
            for &(w, off) in &taps {
                let src: &[i8; CH] = planes[off + j * CH..][..CH]
                    .try_into()
                    .expect("a run is CH outputs long");
                for (a, &v) in acc.iter_mut().zip(src) {
                    *a += (w * v as i16) as i32;
                }
            }
            run.copy_from_slice(&acc);
        }
        let out = buf.data[ci * r.yn * r.xn..][..r.yn * r.xn].chunks_exact_mut(r.xn);
        for (out_row, row) in out.zip(sums.chunks(wq)) {
            for (o, &a) in out_row.iter_mut().zip(row) {
                *o = requantize(a, shift, relu);
            }
        }
    }
}

/// Computes `out_region` of `layer`'s output from `input`, bit-exact
/// against [`mocha_model::golden`]. This is the simulator's one tile
/// kernel: a singleton layer reads its whole input tensor, a fused member
/// its producer's region.
pub(crate) fn compute_region(
    layer: &Layer,
    input: Input<'_>,
    kernel: Option<&Kernel>,
    out_region: Region,
) -> RegionBuf {
    let mut buf = RegionBuf::zeros(out_region, layer.output());
    let r = out_region;
    let (shift, relu) = (layer.requant_shift, layer.has_relu());
    let weights = || kernel.unwrap_or_else(|| panic!("{}: needs weights", layer.name));
    match layer.kind {
        LayerKind::Conv { k, stride, pad, .. } => {
            window_reduce(layer, input, weights(), (k, stride, pad), false, &mut buf)
        }
        LayerKind::DwConv { k, stride, pad, .. } => {
            window_reduce(layer, input, weights(), (k, stride, pad), true, &mut buf)
        }
        // Pointwise ≡ conv with k = 1, stride = 1, pad = 0.
        LayerKind::Pointwise { .. } => {
            window_reduce(layer, input, weights(), (1, 1, 0), false, &mut buf)
        }
        LayerKind::Fc { .. } => {
            // Fc reduces each output over the whole flattened input.
            assert_eq!(input.data.len(), input.full.volume(), "fc reads all input");
            for (v, c) in buf.data.iter_mut().zip(r.c0..) {
                let acc: i32 = (input.data.iter().zip(weights().filter(c)))
                    .map(|(&a, &w)| a as i32 * w as i32)
                    .sum();
                *v = requantize(acc, shift, relu);
            }
        }
        LayerKind::Pool { kind, k, stride } => {
            // Pooling windows never reach past the input: no padding.
            let mut out = buf.data.iter_mut();
            for c in r.c0..r.c0 + r.cn {
                for oy in r.y0..r.y0 + r.yn {
                    for ox in r.x0..r.x0 + r.xn {
                        let window = (oy * stride..oy * stride + k)
                            .flat_map(|iy| input.row(c, iy, ox * stride, k))
                            .copied();
                        let v = match kind {
                            PoolKind::Max => window.fold(i8::MIN, i8::max),
                            PoolKind::Avg => {
                                let s: i32 = window.map(i32::from).sum();
                                (s / (k * k) as i32) as i8
                            }
                        };
                        *out.next().expect("one value per output") = v;
                    }
                }
            }
        }
    }
    buf
}

/// Runs the member layers over their `regions` (as derived by
/// [`back_regions`]) on one tile, reading the group input from `input`;
/// returns the final member's region (bit-exact).
pub(crate) fn cascade(
    layers: &[Layer],
    input: &Tensor<i8>,
    kernels: &[Option<&Kernel>],
    regions: &[Region],
) -> RegionBuf {
    let mut current = compute_region(&layers[0], Input::full(input), kernels[0], regions[0]);
    for i in 1..layers.len() {
        current = compute_region(&layers[i], Input::partial(&current), kernels[i], regions[i]);
    }
    current
}

/// Executes a fused group of consecutive `layers` functionally, with exact
/// timing and energy accounting.
///
/// `kernels[i]` must be `Some` exactly for the weighted members.
pub fn execute_group(
    fabric: &FabricConfig,
    codec_costs: &CodecCostTable,
    layers: &[Layer],
    input: &Tensor<i8>,
    kernels: &[Option<&Kernel>],
    morph: &MorphConfig,
    store_output: bool,
) -> Result<LayerRun, CapacityError> {
    assert_eq!(kernels.len(), layers.len());
    let ctx = ExecContext {
        fabric,
        codec_costs,
    };
    let last = layers.last().expect("group is never empty");
    let mut src = Measured::new(input, kernels, last.output());
    walk_group(&ctx, layers, morph, store_output, &mut src).map(|walk| src.into_run(walk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::default_morph;
    use crate::morph::CompressionChoice;
    use crate::plan::{LayerPlan, PlanContext, SparsityEstimate};
    use mocha_compress::Codec;
    use mocha_model::gen::{SparsityProfile, Workload};
    use mocha_model::{golden, network, KernelShape};

    /// A group of `tiny`'s layers. It derefs to the `&[Layer]` the group
    /// entries take.
    struct Group {
        layers: Vec<Layer>,
    }

    impl Group {
        fn last(&self) -> &Layer {
            self.layers.last().expect("group is never empty")
        }
    }

    impl std::ops::Deref for Group {
        type Target = [Layer];
        fn deref(&self) -> &[Layer] {
            &self.layers
        }
    }

    fn tiny_group(w: &Workload, start: usize, len: usize) -> (Group, Vec<Option<&Kernel>>) {
        let layers: Vec<Layer> = w.network.layers()[start..start + len].to_vec();
        let kernels: Vec<Option<&Kernel>> = (start..start + len)
            .map(|i| w.kernels[i].as_ref())
            .collect();
        (Group { layers }, kernels)
    }

    /// [`crate::plan::plan_group`] called with the members' kernel shapes
    /// as well, the way the anti-divergence test below calls it. The walk
    /// reads the shapes from the layers, so they are only checked.
    fn plan_group(
        ctx: &PlanContext<'_>,
        layers: &[Layer],
        shapes: &[Option<KernelShape>],
        morph: &MorphConfig,
        est: &SparsityEstimate,
        store_output: bool,
    ) -> Result<LayerPlan, CapacityError> {
        assert!(layers
            .iter()
            .map(Layer::kernel_shape)
            .eq(shapes.iter().copied()));
        crate::plan::plan_group(ctx, layers, morph, est, store_output)
    }

    #[test]
    fn back_regions_conv_pool() {
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 1);
        // conv1 (16x32x32 out) + pool1 (16x16x16 out).
        let (group, _) = tiny_group(&w, 0, 2);
        let final_region = Region {
            c0: 0,
            cn: 8,
            y0: 0,
            yn: 4,
            x0: 0,
            xn: 4,
        };
        let mut regions = Vec::new();
        let input_win = back_regions(&group.layers, final_region, &mut regions);
        // Pool k2s2: conv must produce rows [0, 8) of channels [0, 8).
        assert_eq!(
            regions[0],
            Region {
                c0: 0,
                cn: 8,
                y0: 0,
                yn: 8,
                x0: 0,
                xn: 8
            }
        );
        assert_eq!(regions[1], final_region);
        // Conv k5s1p2: input rows [0, 10) after clip, all 3 channels.
        assert_eq!(input_win.c0, 0);
        assert_eq!(input_win.cn, 3);
        assert_eq!((input_win.y0, input_win.yn), (0, 10));
    }

    #[test]
    fn back_regions_conv_conv_needs_all_producer_channels() {
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 1);
        // conv2 (32 out) + conv3-like? tiny: conv2 at index 2, pool2 at 3,
        // conv3 at 4. Build conv2+pool2+conv3.
        let (group, _) = tiny_group(&w, 2, 3);
        let final_region = Region {
            c0: 0,
            cn: 16,
            y0: 0,
            yn: 2,
            x0: 0,
            xn: 2,
        };
        let mut regions = Vec::new();
        back_regions(&group.layers, final_region, &mut regions);
        // conv3 consumer: needs ALL 32 channels of pool2's output.
        assert_eq!(regions[1].cn, 32);
        assert_eq!(regions[0].cn, 32);
    }

    #[test]
    fn fused_conv_pool_is_bit_exact() {
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 7);
        let golden_outs = golden::forward(&w);
        let (group, kernels) = tiny_group(&w, 0, 2);
        let morph = default_morph(group.last());
        let run = execute_group(&fabric, &costs, &group, &w.input, &kernels, &morph, true).unwrap();
        assert_eq!(run.output, golden_outs[1], "fused conv+pool mismatch");
        // Halo recomputation: the group performs at least the conv's MACs.
        assert!(run.events.macs + run.events.macs_skipped >= w.network.layers()[0].macs());
    }

    #[test]
    fn fused_three_layer_cascade_is_bit_exact() {
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 7);
        let golden_outs = golden::forward(&w);
        // conv2+pool2+conv3 starting from pool1's output.
        let (group, kernels) = tiny_group(&w, 2, 3);
        let morph = default_morph(group.last());
        let run = execute_group(
            &fabric,
            &costs,
            &group,
            &golden_outs[1],
            &kernels,
            &morph,
            true,
        )
        .unwrap();
        assert_eq!(run.output, golden_outs[4], "fused 3-layer cascade mismatch");
    }

    #[test]
    fn fused_compressed_is_bit_exact_and_reduces_dram() {
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        let w = Workload::generate(network::tiny(), SparsityProfile::SPARSE, 7);
        let golden_outs = golden::forward(&w);
        let (group, kernels) = tiny_group(&w, 0, 2);
        let base = default_morph(group.last());
        // Max-pooling densifies the output, so forcing ZRLE on the ofmap can
        // inflate writes (the F8 crossover the controller must navigate);
        // compress only the input and kernel streams here.
        let comp = MorphConfig {
            compression: crate::morph::CompressionChoice {
                ofmap: Codec::None,
                ..CompressionChoice::ON
            },
            ..base
        };
        let raw = execute_group(&fabric, &costs, &group, &w.input, &kernels, &base, true).unwrap();
        let cmp = execute_group(&fabric, &costs, &group, &w.input, &kernels, &comp, true).unwrap();
        assert_eq!(raw.output, golden_outs[1]);
        assert_eq!(cmp.output, golden_outs[1]);
        assert!(cmp.events.dram_bytes() < raw.events.dram_bytes());
    }

    #[test]
    fn fusion_eliminates_intermediate_dram_traffic() {
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 7);
        let golden_outs = golden::forward(&w);
        let (group, kernels) = tiny_group(&w, 0, 2);
        let morph = default_morph(group.last());
        let fused =
            execute_group(&fabric, &costs, &group, &w.input, &kernels, &morph, true).unwrap();

        // Unfused: conv1 stores its output, pool1 reloads it.
        let ectx = crate::exec::ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let conv_morph = default_morph(&w.network.layers()[0]);
        let pool_morph = default_morph(&w.network.layers()[1]);
        let r0 = crate::exec::execute_layer(
            &ectx,
            &w.network.layers()[0],
            &w.input,
            w.kernels[0].as_ref(),
            &conv_morph,
            true,
        )
        .unwrap();
        let r1 = crate::exec::execute_layer(
            &ectx,
            &w.network.layers()[1],
            &golden_outs[0],
            None,
            &pool_morph,
            true,
        )
        .unwrap();
        let unfused_dram = r0.events.dram_bytes() + r1.events.dram_bytes();
        assert!(
            fused.events.dram_bytes() < unfused_dram,
            "fused {} !< unfused {unfused_dram}",
            fused.events.dram_bytes()
        );
    }

    #[test]
    fn can_extend_rules() {
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 1);
        let l = w.network.layers();
        // conv -> pool: yes.
        assert!(can_extend(1, &l[0], &l[1]));
        // pool -> conv: yes (cascade continues).
        assert!(can_extend(2, &l[1], &l[2]));
        // anything -> fc: no.
        assert!(!can_extend(1, &l[4], &l[5]));
        // depth cap.
        assert!(!can_extend(MAX_GROUP_DEPTH, &l[0], &l[1]));
    }

    #[test]
    fn region_buf_absolute_addressing_and_padding() {
        let region = Region {
            c0: 1,
            cn: 1,
            y0: 2,
            yn: 2,
            x0: 3,
            xn: 2,
        };
        let full = TensorShape::new(4, 8, 8);
        let buf = RegionBuf::from_vec(region, full, vec![10, 20, 30, 40]);
        assert_eq!(buf.get(1, 2, 3), 10);
        assert_eq!(buf.get(1, 2, 4), 20);
        assert_eq!(buf.get(1, 3, 3), 30);
        assert_eq!(buf.get(1, 3, 4), 40);
        // Outside the full tensor = padding zero.
        assert_eq!(buf.get(1, -1, 3), 0);
        assert_eq!(buf.get(1, 2, 100), 0);
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn region_buf_rejects_uncovered_reads() {
        let region = Region {
            c0: 0,
            cn: 1,
            y0: 2,
            yn: 2,
            x0: 3,
            xn: 2,
        };
        let buf = RegionBuf::zeros(region, TensorShape::new(4, 8, 8));
        buf.get(0, 0, 0);
    }

    /// A layer of the kernel test below.
    fn test_layer(name: &str, kind: LayerKind, input: TensorShape) -> Layer {
        Layer {
            name: name.into(),
            kind,
            input,
            requant_shift: 5,
        }
    }

    /// The whole output of `layer`.
    fn whole(layer: &Layer) -> Region {
        let out = layer.output();
        Region {
            c0: 0,
            cn: out.c,
            y0: 0,
            yn: out.h,
            x0: 0,
            xn: out.w,
        }
    }

    /// [`compute_region`] on `r` equals `want`, the golden output, read
    /// from the whole input tensor and, for a layer that fuses, from a
    /// region buffer that holds just the region's clipped input window, as
    /// a fused producer leaves it on-chip.
    fn assert_region_matches(
        layer: &Layer,
        input: &Tensor<i8>,
        kernel: Option<&Kernel>,
        want: &Tensor<i8>,
        r: Region,
    ) {
        let expect: Vec<i8> = (r.c0..r.c0 + r.cn)
            .flat_map(|c| (r.y0..r.y0 + r.yn).map(move |y| (c, y)))
            .flat_map(|(c, y)| (r.x0..r.x0 + r.xn).map(move |x| (c, y, x)))
            .map(|(c, y, x)| want.get(c, y, x))
            .collect();
        let full = compute_region(layer, Input::full(input), kernel, r);
        assert_eq!(
            full.data(),
            expect,
            "{} {r:?} from the whole input",
            layer.name
        );
        if matches!(layer.kind, LayerKind::Fc { .. }) {
            return; // fc never fuses, so it never reads a region
        }
        let win = match layer.kind {
            LayerKind::Conv { .. } | LayerKind::Pointwise { .. } => Region {
                c0: 0,
                cn: layer.input.c,
                ..input_window(layer, &r, 0, layer.input.c)
            },
            _ => input_window(layer, &r, r.c0, r.cn),
        };
        let data = (win.c0..win.c0 + win.cn)
            .flat_map(|c| (win.y0..win.y0 + win.yn).map(move |y| (c, y)))
            .flat_map(|(c, y)| {
                input.channel(c)[y * layer.input.w..][win.x0..win.x0 + win.xn].to_vec()
            })
            .collect();
        let held = RegionBuf::from_vec(win, layer.input, data);
        let part = compute_region(layer, Input::partial(&held), kernel, r);
        assert_eq!(part.data(), expect, "{} {r:?} from {win:?}", layer.name);
    }

    /// The one tile kernel equals the golden model on random output regions
    /// of every layer kind, and on a 1-wide column, a 1-tall row and the
    /// bottom-right output of each.
    #[test]
    fn compute_region_matches_golden_on_random_regions() {
        use mocha_model::{gen, PoolKind};
        let conv = |out_c, k, stride, pad| LayerKind::Conv {
            out_c,
            k,
            stride,
            pad,
            relu: true,
            groups: 1,
        };
        let dw = |k, stride, pad| LayerKind::DwConv {
            k,
            stride,
            pad,
            relu: false,
        };
        let pool = |kind, k, stride| LayerKind::Pool { kind, k, stride };
        let layers = [
            // alexnet conv1's window and stride, on a smaller input
            test_layer(
                "conv k11 s4",
                conv(8, 11, 4, 0),
                TensorShape::new(3, 35, 35),
            ),
            // alexnet conv2's padded window
            test_layer("conv k5 p2", conv(12, 5, 1, 2), TensorShape::new(6, 13, 13)),
            test_layer(
                "conv k3 s2 p1",
                conv(5, 3, 2, 1),
                TensorShape::new(4, 9, 11),
            ),
            test_layer("conv k3 p3", conv(3, 3, 1, 3), TensorShape::new(2, 5, 4)),
            test_layer("dw k3 p1", dw(3, 1, 1), TensorShape::new(7, 10, 10)),
            test_layer("dw k3 s2 p1", dw(3, 2, 1), TensorShape::new(5, 11, 9)),
            test_layer(
                "pw",
                LayerKind::Pointwise {
                    out_c: 9,
                    relu: true,
                },
                TensorShape::new(6, 7, 8),
            ),
            test_layer(
                "fc",
                LayerKind::Fc {
                    out: 24,
                    relu: true,
                },
                TensorShape::new(4, 5, 5),
            ),
            test_layer(
                "max k3 s2",
                pool(PoolKind::Max, 3, 2),
                TensorShape::new(4, 13, 13),
            ),
            test_layer(
                "avg k2 s2",
                pool(PoolKind::Avg, 2, 2),
                TensorShape::new(3, 8, 8),
            ),
            test_layer(
                "conv k7 s2 p3",
                conv(6, 7, 2, 3),
                TensorShape::new(3, 23, 21),
            ),
            // the stride skips input rows and columns no tap reads
            test_layer("conv k1 s2", conv(7, 1, 2, 0), TensorShape::new(5, 12, 13)),
            test_layer("dw k5 s2 p2", dw(5, 2, 2), TensorShape::new(6, 17, 15)),
            // output rows several register-blocked runs wide; filter 1 is
            // all zeros, so it has no tap at all
            test_layer(
                "conv k3 p1 wide",
                conv(4, 3, 1, 1),
                TensorShape::new(3, 5, 53),
            ),
        ];
        let mut rng = gen::rng(0x7113);
        for layer in &layers {
            let input = gen::activations(layer.input, 0.3, &mut rng);
            let mut kernel = layer
                .kernel_shape()
                .map(|ks| gen::kernel(ks, 0.2, &mut rng));
            if let Some(k) = kernel.as_mut().filter(|_| layer.name.ends_with("wide")) {
                let fv = k.shape().filter_volume();
                k.data_mut()[fv..2 * fv].fill(0);
            }
            let want = golden::layer(layer, &input, kernel.as_ref());
            let out = layer.output();
            let all = whole(layer);
            let mut regions = vec![all];
            for _ in 0..40 {
                let c0 = rng.gen_range(0..out.c);
                let y0 = rng.gen_range(0..out.h);
                let x0 = rng.gen_range(0..out.w);
                regions.push(Region {
                    c0,
                    cn: rng.gen_range(1..=out.c - c0),
                    y0,
                    yn: rng.gen_range(1..=out.h - y0),
                    x0,
                    xn: rng.gen_range(1..=out.w - x0),
                });
            }
            // Fixed, not drawn, so the generator's stream (every later
            // layer's data and regions) does not depend on them.
            let column = Region {
                x0: out.w / 2,
                xn: 1,
                ..all
            };
            let row = Region {
                y0: out.h / 2,
                yn: 1,
                ..all
            };
            let corner = Region {
                y0: out.h - 1,
                yn: 1,
                x0: out.w - 1,
                xn: 1,
                ..all
            };
            regions.extend([column, row, corner]);
            for r in regions {
                assert_region_matches(layer, &input, kernel.as_ref(), &want, r);
            }
        }
    }

    /// The tile kernel on every conv, depthwise and pointwise layer of the
    /// benchmark networks: the whole layer, an 8×8 interior tile and the
    /// bottom-right tile of an 8×8 tiling. Too slow for a debug build; run
    /// with `cargo test --release -p mocha-core -- --ignored`.
    #[test]
    #[ignore]
    fn compute_region_matches_golden_on_benchmark_layers() {
        for net in [network::alexnet(), network::mobilenet()] {
            let w = Workload::generate(net, SparsityProfile::NOMINAL, 42);
            let outs = golden::forward(&w);
            for (i, layer) in w.network.layers().iter().enumerate() {
                if !matches!(
                    layer.kind,
                    LayerKind::Conv { .. } | LayerKind::DwConv { .. } | LayerKind::Pointwise { .. }
                ) {
                    continue;
                }
                let input = if i == 0 { &w.input } else { &outs[i - 1] };
                let all = whole(layer);
                let interior = |n: usize| (n.saturating_sub(8) / 2, n.min(8));
                let edge = |n: usize| ((n - 1) / 8 * 8, n - (n - 1) / 8 * 8);
                let ((y0, yn), (x0, xn)) = (interior(all.yn), interior(all.xn));
                let tile = Region {
                    y0,
                    yn,
                    x0,
                    xn,
                    ..all
                };
                let ((y0, yn), (x0, xn)) = (edge(all.yn), edge(all.xn));
                let corner = Region {
                    y0,
                    yn,
                    x0,
                    xn,
                    ..all
                };
                for r in [all, tile, corner] {
                    assert_region_matches(layer, input, w.kernels[i].as_ref(), &outs[i], r);
                }
            }
        }
    }

    #[test]
    fn plan_group_equals_exec_group_when_uncompressed() {
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        let energy = mocha_energy::EnergyTable::default();
        let pctx = crate::plan::PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 7);
        for (start, len) in [(0usize, 2usize), (2, 3)] {
            let input = if start == 0 {
                w.input.clone()
            } else {
                golden::forward(&w)[start - 1].clone()
            };
            let (group, kernels) = tiny_group(&w, start, len);
            let shapes: Vec<_> = group.layers.iter().map(|l| l.kernel_shape()).collect();
            let morph = default_morph(group.last());
            let run =
                execute_group(&fabric, &costs, &group, &input, &kernels, &morph, true).unwrap();
            let plan = plan_group(
                &pctx,
                &group,
                &shapes,
                &morph,
                &crate::plan::SparsityEstimate::DENSE,
                true,
            )
            .unwrap();
            assert_eq!(plan.cycles, run.cycles, "group@{start} cycles");
            assert_eq!(
                plan.dram_bytes,
                run.events.dram_bytes(),
                "group@{start} dram"
            );
            assert_eq!(plan.spm_peak, run.spm_peak, "group@{start} spm");
            assert_eq!(plan.events.macs, run.events.macs, "group@{start} macs");
        }
    }
}
