//! Layer merging (fusion): executing a cascade of conv/pool layers
//! tile-by-tile without round-tripping intermediate feature maps through
//! DRAM.
//!
//! A fused group is a run of consecutive layers starting with a conv, held
//! as a `&[Layer]` slice of the network. The group walk
//! ([`crate::walk`]) tiles the *final* layer's output; each tile's required
//! region is back-propagated through the group ([`back_regions`]), the group
//! input window is fetched once, and every member layer computes its region
//! on-chip ([`cascade`]). Overlapping halos between adjacent tiles are
//! **recomputed** — the classic fused-layer trade: DRAM traffic down, MACs
//! up, on-chip buffering up. Whether that trade wins is exactly what the
//! morphing controller evaluates per layer (experiment F7).
//!
//! Intermediate regions stay *raw* in the scratchpad (encoding between fused
//! layers would cost codec energy for no wire savings); the group input is
//! decoded at the port on arrival, and only the final output is re-encoded.

use crate::exec::{ExecContext, LayerRun, Measured};
use crate::morph::MorphConfig;
use crate::tiling::{input_window, Region};
use crate::walk::walk_group;
use mocha_compress::CodecCostTable;
use mocha_fabric::{CapacityError, FabricConfig};
use mocha_model::layer::{Layer, LayerKind};
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
/// member. Returns `regions[i]` = the region of layer `i`'s *output* needed,
/// for `i` in `0..layers.len()`, plus the group-input window as element 0 of
/// the second return (the region of the group's input tensor).
pub fn back_regions(layers: &[Layer], final_region: Region) -> (Vec<Region>, Region) {
    let n = layers.len();
    let mut regions = vec![final_region; n];
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
    let input_win = {
        let w = input_window(first, &regions[0], 0, first.input.c);
        Region {
            c0: 0,
            cn: first.input.c,
            ..w
        }
    };
    (regions, input_win)
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
        let (y, x) = (y as usize, x as usize);
        assert!(
            self.region.contains(c, y, x),
            "read ({c},{y},{x}) outside region {:?}",
            self.region
        );
        let r = &self.region;
        self.data[((c - r.c0) * r.yn + (y - r.y0)) * r.xn + (x - r.x0)]
    }

    /// Region-local data slice.
    pub fn data(&self) -> &[i8] {
        &self.data
    }
}

/// Reader abstraction over "full tensor in DRAM" vs "region buffer in SPM".
enum Input<'a> {
    Full(&'a Tensor<i8>),
    Partial(&'a RegionBuf),
}

impl Input<'_> {
    #[inline]
    fn get(&self, c: usize, y: isize, x: isize) -> i8 {
        match self {
            Input::Full(t) => {
                let s = t.shape();
                if y < 0 || x < 0 || y as usize >= s.h || x as usize >= s.w {
                    0
                } else {
                    t.get(c, y as usize, x as usize)
                }
            }
            Input::Partial(r) => r.get(c, y, x),
        }
    }
}

/// Computes one layer's output region from a reader (bit-exact).
fn compute_region(
    layer: &Layer,
    input: &Input<'_>,
    kernel: Option<&Kernel>,
    out_region: Region,
) -> RegionBuf {
    let full_out = layer.output();
    let mut buf = RegionBuf::zeros(out_region, full_out);
    let r = out_region;
    match layer.kind {
        LayerKind::Conv {
            k,
            stride,
            pad,
            relu,
            ..
        } => {
            let kernel = kernel.expect("conv needs weights");
            let in_c = layer.input.c;
            for (ci, c) in (r.c0..r.c0 + r.cn).enumerate() {
                for (yi, oy) in (r.y0..r.y0 + r.yn).enumerate() {
                    for (xi, ox) in (r.x0..r.x0 + r.xn).enumerate() {
                        let mut acc: i32 = 0;
                        for ic in 0..in_c {
                            for ky in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                for kx in 0..k {
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    let a = input.get(ic, iy, ix) as i32;
                                    if a != 0 {
                                        acc += a * kernel.get(c, ic, ky, kx) as i32;
                                    }
                                }
                            }
                        }
                        buf.data[(ci * r.yn + yi) * r.xn + xi] =
                            requantize(acc, layer.requant_shift, relu);
                    }
                }
            }
        }
        LayerKind::Pool { kind, k, stride } => {
            for (ci, c) in (r.c0..r.c0 + r.cn).enumerate() {
                for (yi, oy) in (r.y0..r.y0 + r.yn).enumerate() {
                    for (xi, ox) in (r.x0..r.x0 + r.xn).enumerate() {
                        let v = match kind {
                            mocha_model::PoolKind::Max => {
                                let mut m = i8::MIN;
                                for ky in 0..k {
                                    for kx in 0..k {
                                        m = m.max(input.get(
                                            c,
                                            (oy * stride + ky) as isize,
                                            (ox * stride + kx) as isize,
                                        ));
                                    }
                                }
                                m
                            }
                            mocha_model::PoolKind::Avg => {
                                let mut s: i32 = 0;
                                for ky in 0..k {
                                    for kx in 0..k {
                                        s += input.get(
                                            c,
                                            (oy * stride + ky) as isize,
                                            (ox * stride + kx) as isize,
                                        ) as i32;
                                    }
                                }
                                (s / (k * k) as i32) as i8
                            }
                        };
                        buf.data[(ci * r.yn + yi) * r.xn + xi] = v;
                    }
                }
            }
        }
        LayerKind::DwConv {
            k,
            stride,
            pad,
            relu,
        } => {
            let kernel = kernel.expect("dwconv needs weights");
            for (ci, c) in (r.c0..r.c0 + r.cn).enumerate() {
                for (yi, oy) in (r.y0..r.y0 + r.yn).enumerate() {
                    for (xi, ox) in (r.x0..r.x0 + r.xn).enumerate() {
                        let mut acc: i32 = 0;
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                let a = input.get(c, iy, ix) as i32;
                                if a != 0 {
                                    acc += a * kernel.get(c, 0, ky, kx) as i32;
                                }
                            }
                        }
                        buf.data[(ci * r.yn + yi) * r.xn + xi] =
                            requantize(acc, layer.requant_shift, relu);
                    }
                }
            }
        }
        LayerKind::Pointwise { relu, .. } => {
            // Pointwise ≡ conv with k = 1, stride = 1, pad = 0.
            let kernel = kernel.expect("pointwise needs weights");
            let in_c = layer.input.c;
            for (ci, c) in (r.c0..r.c0 + r.cn).enumerate() {
                for (yi, oy) in (r.y0..r.y0 + r.yn).enumerate() {
                    for (xi, ox) in (r.x0..r.x0 + r.xn).enumerate() {
                        let mut acc: i32 = 0;
                        for ic in 0..in_c {
                            let a = input.get(ic, oy as isize, ox as isize) as i32;
                            if a != 0 {
                                acc += a * kernel.get(c, ic, 0, 0) as i32;
                            }
                        }
                        buf.data[(ci * r.yn + yi) * r.xn + xi] =
                            requantize(acc, layer.requant_shift, relu);
                    }
                }
            }
        }
        LayerKind::Fc { .. } => unreachable!("fc never fuses"),
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
    let mut current = compute_region(&layers[0], &Input::Full(input), kernels[0], regions[0]);
    for i in 1..layers.len() {
        current = compute_region(
            &layers[i],
            &Input::Partial(&current),
            kernels[i],
            regions[i],
        );
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
        let (regions, input_win) = back_regions(&group.layers, final_region);
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
        let (regions, _) = back_regions(&group.layers, final_region);
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
