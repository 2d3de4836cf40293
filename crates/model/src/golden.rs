//! Bit-exact golden reference executor.
//!
//! The correctness oracle for every simulated dataflow: tiled, fused,
//! parallel or compressed execution must reproduce these bytes exactly.
//! Conv, depthwise and pointwise layers share one lowering: each channel
//! group's input becomes a patch matrix with one row per output pixel, in
//! the `(ic, ky, kx)` order of a filter, so each output is one long dot
//! product of a patch row with its filter. The simulator's tile kernel
//! accumulates output rows tap by tap instead, so the two loops share no
//! indexing. Weighted layers (one task per output channel or fc output)
//! run on `mocha-engine`, which honours `--threads`: each task is an
//! independent reduction, so parallel and sequential results are
//! identical.

use crate::gen::Workload;
use crate::layer::{Layer, LayerKind, PoolKind};
use crate::tensor::{requantize, Kernel, Tensor};
use mocha_engine::Engine;
use std::ops::Range;

/// The shape checks every operator makes before it runs: `input` must match
/// the layer's input shape and `kernel`, when given, its weight shape.
#[track_caller]
fn assert_shapes(layer: &Layer, input: &Tensor<i8>, kernel: Option<&Kernel>) {
    assert_eq!(
        input.shape(),
        layer.input,
        "{}: input shape mismatch",
        layer.name
    );
    if let Some(kernel) = kernel {
        assert_eq!(
            Some(kernel.shape()),
            layer.kernel_shape(),
            "{}: kernel shape mismatch",
            layer.name
        );
    }
}

/// Grouped convolution of `input` with `kernel`, with stride/pad/ReLU and
/// requantization taken from `layer`.
///
/// # Panics
/// Panics if `layer` is not a conv layer or shapes are inconsistent.
pub fn conv(layer: &Layer, input: &Tensor<i8>, kernel: &Kernel) -> Tensor<i8> {
    let LayerKind::Conv {
        k,
        stride,
        pad,
        relu,
        groups,
        ..
    } = layer.kind
    else {
        panic!("{}: not a conv layer", layer.name);
    };
    assert_shapes(layer, input, Some(kernel));
    patch_conv(layer, input, kernel, (k, stride, pad), groups, relu)
}

/// The taps `[lo, hi)` of a `k`-wide window at output coordinate `o` whose
/// input position `o * stride + t - pad` lies inside `[0, extent)`, and the
/// input position of tap `lo`. A window wholly in padding yields an empty
/// range, with the position clamped to `extent` so slicing stays in bounds.
fn taps(o: usize, stride: usize, pad: usize, k: usize, extent: usize) -> (Range<usize>, usize) {
    let base = o * stride;
    let lo = pad.saturating_sub(base).min(k);
    let hi = (extent + pad).saturating_sub(base).clamp(lo, k);
    (lo..hi, (base + lo).saturating_sub(pad).min(extent))
}

/// `i32` dot product of two equally long `i8` slices.
fn dot(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&a, &b)| a as i32 * b as i32).sum()
}

/// The patch matrices of `input` under a `k`-wide window at `stride`/`pad`
/// over `groups` channel groups, stored group after group. Group `g`'s
/// matrix has one row per pixel of the `out_h × out_w` output, row-major;
/// a row holds the group's `in_c / groups × k²` window bytes in `(ic, ky,
/// kx)` order, the layout of a filter. Padding taps stay zero: each window
/// row copies its in-bounds taps as one run.
fn patch_matrix(
    input: &Tensor<i8>,
    (k, stride, pad): (usize, usize, usize),
    groups: usize,
    (out_h, out_w): (usize, usize),
) -> Vec<i8> {
    let in_shape = input.shape();
    let group_in_c = in_shape.c / groups;
    let cols = group_in_c * k * k;
    let mut m = vec![0i8; groups * out_h * out_w * cols];
    for (g, matrix) in m.chunks_exact_mut(out_h * out_w * cols).enumerate() {
        for (oy, band) in matrix.chunks_exact_mut(out_w * cols).enumerate() {
            let (kys, iy0) = taps(oy, stride, pad, k, in_shape.h);
            for (ox, row) in band.chunks_exact_mut(cols).enumerate() {
                let (kxs, ix0) = taps(ox, stride, pad, k, in_shape.w);
                for (ic, window) in row.chunks_exact_mut(k * k).enumerate() {
                    let channel = input.channel(g * group_in_c + ic);
                    for (iy, ky) in (iy0..).zip(kys.clone()) {
                        window[ky * k..][kxs.clone()]
                            .copy_from_slice(&channel[iy * in_shape.w + ix0..][..kxs.len()]);
                    }
                }
            }
        }
    }
    m
}

/// Grouped convolution shared by [`conv`], [`dwconv`] (one channel per
/// group) and [`pointwise`] (`k = 1`, stride 1, no padding), lowered to
/// [`patch_matrix`]: each output is the dot product of its patch row with
/// its filter. Output channels write disjoint planes, one engine task
/// each.
fn patch_conv(
    layer: &Layer,
    input: &Tensor<i8>,
    kernel: &Kernel,
    window: (usize, usize, usize),
    groups: usize,
    relu: bool,
) -> Tensor<i8> {
    let out_shape = layer.output();
    let patches = patch_matrix(input, window, groups, (out_shape.h, out_shape.w));
    let group_out_c = out_shape.c / groups;
    let group_len = patches.len() / groups;
    let cols = kernel.shape().filter_volume();

    let mut out = Tensor::zeros(out_shape);
    let planes = out.data_mut().chunks_mut(out_shape.plane()).collect();
    Engine::configured().map_vec(planes, |oc, out_plane: &mut [i8]| {
        let matrix = &patches[oc / group_out_c * group_len..][..group_len];
        let filter = kernel.filter(oc);
        for (o, row) in out_plane.iter_mut().zip(matrix.chunks_exact(cols)) {
            *o = requantize(dot(row, filter), layer.requant_shift, relu);
        }
    });
    out
}

/// Pointwise (1×1) convolution: every output pixel is a dense cross-channel
/// mix of the input pixel at the same location.
pub fn pointwise(layer: &Layer, input: &Tensor<i8>, kernel: &Kernel) -> Tensor<i8> {
    let LayerKind::Pointwise { relu, .. } = layer.kind else {
        panic!("{}: not a pointwise layer", layer.name);
    };
    assert_shapes(layer, input, Some(kernel));
    patch_conv(layer, input, kernel, (1, 1, 0), 1, relu)
}

/// Spatial pooling (max or truncating average) per `layer`.
pub fn pool(layer: &Layer, input: &Tensor<i8>) -> Tensor<i8> {
    let LayerKind::Pool { kind, k, stride } = layer.kind else {
        panic!("{}: not a pool layer", layer.name);
    };
    assert_shapes(layer, input, None);
    let out_shape = layer.output();
    let mut out = Tensor::zeros(out_shape);
    for c in 0..out_shape.c {
        for oy in 0..out_shape.h {
            for ox in 0..out_shape.w {
                let v = pool_window(input, kind, c, oy * stride, ox * stride, k);
                out.set(c, oy, ox, v);
            }
        }
    }
    out
}

/// Reduction of one pooling window; the average truncates toward zero.
#[inline]
fn pool_window(input: &Tensor<i8>, kind: PoolKind, c: usize, y0: usize, x0: usize, k: usize) -> i8 {
    match kind {
        PoolKind::Max => {
            let mut m = i8::MIN;
            for y in y0..y0 + k {
                for x in x0..x0 + k {
                    m = m.max(input.get(c, y, x));
                }
            }
            m
        }
        PoolKind::Avg => {
            let mut s: i32 = 0;
            for y in y0..y0 + k {
                for x in x0..x0 + k {
                    s += input.get(c, y, x) as i32;
                }
            }
            (s / (k * k) as i32) as i8
        }
    }
}

/// Fully-connected layer: dense matrix-vector product over the flattened
/// input, with requantization + optional ReLU.
pub fn fc(layer: &Layer, input: &Tensor<i8>, kernel: &Kernel) -> Tensor<i8> {
    let LayerKind::Fc { out, relu } = layer.kind else {
        panic!("{}: not an fc layer", layer.name);
    };
    assert_shapes(layer, input, Some(kernel));
    let shift = layer.requant_shift;
    let data: Vec<i8> = Engine::configured().map_range(out, |o| {
        requantize(dot(input.data(), kernel.filter(o)), shift, relu)
    });
    Tensor::from_vec(layer.output(), data)
}

/// Depthwise convolution: each channel is convolved with its own `k × k`
/// filter, with stride/pad/ReLU and requantization from `layer`.
pub fn dwconv(layer: &Layer, input: &Tensor<i8>, kernel: &Kernel) -> Tensor<i8> {
    let LayerKind::DwConv {
        k,
        stride,
        pad,
        relu,
    } = layer.kind
    else {
        panic!("{}: not a dwconv layer", layer.name);
    };
    assert_shapes(layer, input, Some(kernel));
    patch_conv(
        layer,
        input,
        kernel,
        (k, stride, pad),
        input.shape().c,
        relu,
    )
}

/// Executes one layer against its input, dispatching on the operator.
pub fn layer(l: &Layer, input: &Tensor<i8>, kernel: Option<&Kernel>) -> Tensor<i8> {
    match l.kind {
        LayerKind::Conv { .. } => conv(l, input, kernel.expect("conv needs weights")),
        LayerKind::Pointwise { .. } => {
            pointwise(l, input, kernel.expect("pointwise needs weights"))
        }
        LayerKind::Pool { .. } => pool(l, input),
        LayerKind::Fc { .. } => fc(l, input, kernel.expect("fc needs weights")),
        LayerKind::DwConv { .. } => dwconv(l, input, kernel.expect("dwconv needs weights")),
    }
}

/// Runs the full network forward pass, returning every intermediate feature
/// map (index `i` = output of layer `i`). Keeping the intermediates lets
/// equivalence tests compare any simulated layer in isolation.
pub fn forward(workload: &Workload) -> Vec<Tensor<i8>> {
    let mut outputs: Vec<Tensor<i8>> = Vec::with_capacity(workload.network.len());
    for (l, kernel) in workload.network.layers().iter().zip(&workload.kernels) {
        let input = outputs.last().unwrap_or(&workload.input);
        let next = layer(l, input, kernel.as_ref());
        outputs.push(next);
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, SparsityProfile, Workload};
    use crate::network;
    use crate::shape::{KernelShape, TensorShape};

    /// The per-tap convolution loop nest, bounds-checking every tap
    /// against the padding; the differential oracle for the patch-matrix
    /// lowering of [`patch_conv`].
    fn conv_scalar(layer: &Layer, input: &Tensor<i8>, kernel: &Kernel) -> Tensor<i8> {
        let LayerKind::Conv {
            out_c,
            k,
            stride,
            pad,
            relu,
            groups,
        } = layer.kind
        else {
            panic!("{}: not a conv layer", layer.name);
        };
        let out_shape = layer.output();
        let in_shape = input.shape();
        let group_in_c = in_shape.c / groups;
        let group_out_c = out_c / groups;
        let mut out = Tensor::zeros(out_shape);
        for oc in 0..out_c {
            let ic_base = (oc / group_out_c) * group_in_c;
            for oy in 0..out_shape.h {
                for ox in 0..out_shape.w {
                    let mut acc: i32 = 0;
                    for ic in 0..group_in_c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= in_shape.h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= in_shape.w {
                                    continue;
                                }
                                let a = input.get(ic_base + ic, iy as usize, ix as usize) as i32;
                                let w = kernel.get(oc, ic, ky, kx) as i32;
                                acc += a * w;
                            }
                        }
                    }
                    out.set(oc, oy, ox, requantize(acc, layer.requant_shift, relu));
                }
            }
        }
        out
    }

    /// The original per-tap depthwise loop nest; the differential oracle
    /// for [`dwconv`].
    fn dwconv_scalar(layer: &Layer, input: &Tensor<i8>, kernel: &Kernel) -> Tensor<i8> {
        let LayerKind::DwConv {
            k,
            stride,
            pad,
            relu,
        } = layer.kind
        else {
            panic!("{}: not a dwconv layer", layer.name);
        };
        let out_shape = layer.output();
        let in_shape = input.shape();
        let mut out = Tensor::zeros(out_shape);
        for c in 0..out_shape.c {
            for oy in 0..out_shape.h {
                for ox in 0..out_shape.w {
                    let mut acc: i32 = 0;
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy as usize >= in_shape.h {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix as usize >= in_shape.w {
                                continue;
                            }
                            acc += input.get(c, iy as usize, ix as usize) as i32
                                * kernel.get(c, 0, ky, kx) as i32;
                        }
                    }
                    out.set(c, oy, ox, requantize(acc, layer.requant_shift, relu));
                }
            }
        }
        out
    }

    #[test]
    fn in_bounds_tap_loops_match_scalar_oracle() {
        // Seeded sweep over every window geometry the tap-range helper has
        // to get right: strides 1-4, pads past k (whole windows in padding,
        // empty tap ranges), inputs narrower than k, h != w, grouped and
        // depthwise channel maps, ReLU both ways and shifts 0-8.
        let mut rng = gen::rng(0x601d);
        let (mut small, mut padded) = (0, 0);
        for k in [1usize, 2, 3, 5, 11] {
            for stride in 1..=4 {
                for pad in 0..=k + 1 {
                    // The smallest extent the padded window still fits.
                    let min_dim = k.saturating_sub(2 * pad).max(1);
                    for relu in [false, true] {
                        let h = rng.gen_range(min_dim..=k + 6);
                        let w = if h == min_dim { h + 1 } else { h - 1 };
                        small += usize::from(h < k || w < k);
                        padded += usize::from(pad >= k);
                        let requant_shift = rng.gen_range(0..=8u32);
                        for groups in [1, 2, 4] {
                            let in_c = groups * rng.gen_range(1..=2usize);
                            let out_c = groups * rng.gen_range(1..=2usize);
                            let l = Layer {
                                name: format!("conv k{k} s{stride} p{pad} g{groups}"),
                                kind: LayerKind::Conv {
                                    out_c,
                                    k,
                                    stride,
                                    pad,
                                    relu,
                                    groups,
                                },
                                input: TensorShape::new(in_c, h, w),
                                requant_shift,
                            };
                            let input = gen::activations(l.input, 0.3, &mut rng);
                            let kernel = gen::kernel(l.kernel_shape().unwrap(), 0.2, &mut rng);
                            let scalar = conv_scalar(&l, &input, &kernel);
                            assert_eq!(
                                conv(&l, &input, &kernel),
                                scalar,
                                "{} {h}x{w} relu={relu} shift={requant_shift}",
                                l.name
                            );
                            if (k, stride, pad, groups) == (1, 1, 0, 1) {
                                let pw = Layer {
                                    name: "pw".into(),
                                    kind: LayerKind::Pointwise { out_c, relu },
                                    ..l
                                };
                                assert_eq!(
                                    pointwise(&pw, &input, &kernel),
                                    scalar,
                                    "pw {h}x{w} relu={relu} shift={requant_shift}"
                                );
                            }
                        }
                        let l = Layer {
                            name: format!("dw k{k} s{stride} p{pad}"),
                            kind: LayerKind::DwConv {
                                k,
                                stride,
                                pad,
                                relu,
                            },
                            input: TensorShape::new(rng.gen_range(1..=4usize), h, w),
                            requant_shift,
                        };
                        let input = gen::activations(l.input, 0.3, &mut rng);
                        let kernel = gen::kernel(l.kernel_shape().unwrap(), 0.2, &mut rng);
                        assert_eq!(
                            dwconv(&l, &input, &kernel),
                            dwconv_scalar(&l, &input, &kernel),
                            "{} {h}x{w} relu={relu} shift={requant_shift}",
                            l.name
                        );
                    }
                }
            }
        }
        assert!(small > 0 && padded > 0, "small={small} padded={padded}");
    }

    fn conv_layer(
        input: TensorShape,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        relu: bool,
    ) -> Layer {
        Layer {
            name: "t".into(),
            kind: LayerKind::Conv {
                out_c,
                k,
                stride,
                pad,
                relu,
                groups: 1,
            },
            input,
            requant_shift: 0,
        }
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // 1x1 kernel with weight 1, shift 0: output == input.
        let shape = TensorShape::new(1, 4, 4);
        let input = gen::activations(shape, 0.3, &mut gen::rng(1));
        let l = conv_layer(shape, 1, 1, 1, 0, false);
        let k = Kernel::from_vec(KernelShape::new(1, 1, 1), vec![1]);
        let out = conv(&l, &input, &k);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn hand_computed_3x3_conv() {
        // 3x3 input, 2x2 kernel of ones, stride 1, no pad.
        let input = Tensor::from_vec(TensorShape::new(1, 3, 3), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let l = conv_layer(TensorShape::new(1, 3, 3), 1, 2, 1, 0, false);
        let k = Kernel::from_vec(KernelShape::new(1, 1, 2), vec![1, 1, 1, 1]);
        let out = conv(&l, &input, &k);
        assert_eq!(out.shape(), TensorShape::new(1, 2, 2));
        assert_eq!(out.data(), &[12, 16, 24, 28]);
    }

    #[test]
    fn padding_reads_zeros() {
        // Single-pixel input, 3x3 kernel, pad 1: only centre tap contributes.
        let input = Tensor::from_vec(TensorShape::new(1, 1, 1), vec![5]);
        let l = conv_layer(TensorShape::new(1, 1, 1), 1, 3, 1, 1, false);
        let mut kd = vec![0i8; 9];
        kd[4] = 2; // centre tap
        let k = Kernel::from_vec(KernelShape::new(1, 1, 3), kd);
        let out = conv(&l, &input, &k);
        assert_eq!(out.data(), &[10]);
    }

    #[test]
    fn relu_zeroes_negative_accumulations() {
        let input = Tensor::from_vec(TensorShape::new(1, 1, 1), vec![3]);
        let l = conv_layer(TensorShape::new(1, 1, 1), 1, 1, 1, 0, true);
        let k = Kernel::from_vec(KernelShape::new(1, 1, 1), vec![-2]);
        let out = conv(&l, &input, &k);
        assert_eq!(out.data(), &[0]);
    }

    #[test]
    fn multi_channel_accumulates_across_input_channels() {
        // 2 input channels, all-ones 1x1 kernels: output = sum of channels.
        let input = Tensor::from_vec(TensorShape::new(2, 1, 2), vec![1, 2, 10, 20]);
        let l = conv_layer(TensorShape::new(2, 1, 2), 1, 1, 1, 0, false);
        let k = Kernel::from_vec(KernelShape::new(1, 2, 1), vec![1, 1]);
        let out = conv(&l, &input, &k);
        assert_eq!(out.data(), &[11, 22]);
    }

    #[test]
    fn strided_conv_skips_positions() {
        let input = Tensor::from_vec(TensorShape::new(1, 1, 5), vec![1, 2, 3, 4, 5]);
        let l = conv_layer(TensorShape::new(1, 1, 5), 1, 1, 2, 0, false);
        let k = Kernel::from_vec(KernelShape::new(1, 1, 1), vec![1]);
        let out = conv(&l, &input, &k);
        assert_eq!(out.data(), &[1, 3, 5]);
    }

    #[test]
    fn max_pool_hand_case() {
        let input = Tensor::from_vec(TensorShape::new(1, 2, 4), vec![1, 9, 2, 3, 4, 5, 6, -7]);
        let l = Layer {
            name: "p".into(),
            kind: LayerKind::Pool {
                kind: PoolKind::Max,
                k: 2,
                stride: 2,
            },
            input: TensorShape::new(1, 2, 4),
            requant_shift: 0,
        };
        let out = pool(&l, &input);
        assert_eq!(out.data(), &[9, 6]);
    }

    #[test]
    fn avg_pool_truncates_toward_zero() {
        let input = Tensor::from_vec(TensorShape::new(1, 2, 2), vec![1, 2, 3, 5]);
        let l = Layer {
            name: "p".into(),
            kind: LayerKind::Pool {
                kind: PoolKind::Avg,
                k: 2,
                stride: 2,
            },
            input: TensorShape::new(1, 2, 2),
            requant_shift: 0,
        };
        let out = pool(&l, &input);
        assert_eq!(out.data(), &[2]); // (1+2+3+5)/4 = 2 (truncating)
    }

    #[test]
    fn fc_matches_manual_dot_product() {
        let input = Tensor::from_vec(TensorShape::new(1, 1, 3), vec![1, 2, 3]);
        let l = Layer {
            name: "fc".into(),
            kind: LayerKind::Fc {
                out: 2,
                relu: false,
            },
            input: TensorShape::new(1, 1, 3),
            requant_shift: 0,
        };
        let k = Kernel::from_vec(KernelShape::new(2, 3, 1), vec![1, 0, -1, 2, 2, 2]);
        let out = fc(&l, &input, &k);
        assert_eq!(out.data(), &[-2, 12]);
    }

    #[test]
    fn forward_runs_whole_tiny_network() {
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 3);
        let outs = forward(&w);
        assert_eq!(outs.len(), w.network.len());
        for (i, l) in w.network.layers().iter().enumerate() {
            assert_eq!(outs[i].shape(), l.output(), "layer {}", l.name);
        }
    }

    #[test]
    fn relu_layers_produce_sparse_outputs() {
        // With symmetric random weights, ~half the accumulators go negative;
        // ReLU should leave visibly sparse activations — the property the
        // whole compression story rests on.
        let w = Workload::generate(network::tiny(), SparsityProfile::DENSE, 3);
        let outs = forward(&w);
        let conv1_sparsity = outs[0].sparsity();
        assert!(conv1_sparsity > 0.3, "got {conv1_sparsity}");
    }

    #[test]
    fn dwconv_hand_case() {
        // 2 channels, 2x2 kernel of ones per channel, stride 1, no pad:
        // each channel pools its own window sum; channels never mix.
        let input = Tensor::from_vec(TensorShape::new(2, 2, 2), vec![1, 2, 3, 4, 10, 20, 30, 40]);
        let l = Layer {
            name: "dw".into(),
            kind: LayerKind::DwConv {
                k: 2,
                stride: 1,
                pad: 0,
                relu: false,
            },
            input: TensorShape::new(2, 2, 2),
            requant_shift: 0,
        };
        let k = Kernel::from_vec(KernelShape::new(2, 1, 2), vec![1, 1, 1, 1, 1, 1, 1, 1]);
        let out = dwconv(&l, &input, &k);
        assert_eq!(out.shape(), TensorShape::new(2, 1, 1));
        assert_eq!(out.data(), &[10, 100]);
    }

    #[test]
    fn dwconv_channels_are_independent() {
        // Zeroing one channel's filter must zero only that channel's output.
        let shape = TensorShape::new(3, 6, 6);
        let input = gen::activations(shape, 0.2, &mut gen::rng(4));
        let l = Layer {
            name: "dw".into(),
            kind: LayerKind::DwConv {
                k: 3,
                stride: 1,
                pad: 1,
                relu: false,
            },
            input: shape,
            requant_shift: 4,
        };
        let mut k = gen::kernel(KernelShape::new(3, 1, 3), 0.0, &mut gen::rng(5));
        for v in k.data_mut()[9..18].iter_mut() {
            *v = 0; // channel 1's filter
        }
        let out = dwconv(&l, &input, &k);
        assert!(out.channel(1).iter().all(|&v| v == 0));
        assert!(out.channel(0).iter().any(|&v| v != 0));
    }

    #[test]
    fn grouped_conv_matches_per_group_dense_convs() {
        // groups=2 over 4→6 channels: each group is a dense 2→3 conv over
        // its channel slice; results must match slice-wise.
        let shape = TensorShape::new(4, 7, 7);
        let input = gen::activations(shape, 0.3, &mut gen::rng(21));
        let k = gen::kernel(KernelShape::new(6, 2, 3), 0.2, &mut gen::rng(22));
        let grouped = Layer {
            name: "g".into(),
            kind: LayerKind::Conv {
                out_c: 6,
                k: 3,
                stride: 1,
                pad: 1,
                relu: false,
                groups: 2,
            },
            input: shape,
            requant_shift: 5,
        };
        let out = conv(&grouped, &input, &k);
        for g in 0..2 {
            let sub_shape = TensorShape::new(2, 7, 7);
            let mut sub_in = Tensor::zeros(sub_shape);
            for c in 0..2 {
                for y in 0..7 {
                    for x in 0..7 {
                        sub_in.set(c, y, x, input.get(2 * g + c, y, x));
                    }
                }
            }
            let sub_k = Kernel::from_vec(
                KernelShape::new(3, 2, 3),
                k.data()[g * 3 * 2 * 9..(g + 1) * 3 * 2 * 9].to_vec(),
            );
            let dense = conv_layer(sub_shape, 3, 3, 1, 1, false);
            let dense = Layer {
                requant_shift: 5,
                ..dense
            };
            let sub_out = conv(&dense, &sub_in, &sub_k);
            for c in 0..3 {
                assert_eq!(
                    out.channel(3 * g + c),
                    sub_out.channel(c),
                    "group {g} channel {c}"
                );
            }
        }
    }

    #[test]
    fn im2col_dimensions_and_padding() {
        let input = gen::activations(TensorShape::new(2, 4, 4), 0.0, &mut gen::rng(1));
        let m = patch_matrix(&input, (3, 1, 1), 1, (4, 4));
        assert_eq!(m.len(), 16 * 2 * 9);
        // First patch (output (0,0)) starts at padded (-1,-1): its first
        // row of taps for channel 0 is padding.
        assert_eq!(&m[0..3], &[0, 0, 0]);
        // Centre tap of patch (0,0), channel 0 = input (0,0).
        assert_eq!(m[4], input.get(0, 0, 0));
        // Two groups split each row's channels into two matrices: group 1's
        // first patch holds channel 1's taps.
        let grouped = patch_matrix(&input, (3, 1, 1), 2, (4, 4));
        assert_eq!(grouped.len(), m.len());
        assert_eq!(grouped[16 * 9 + 4], input.get(1, 0, 0));
    }

    #[test]
    fn fixed_shapes_match_scalar_oracle() {
        for (in_c, h, w, out_c, k, stride, pad) in [
            (3usize, 16usize, 16usize, 8usize, 3usize, 1usize, 1usize),
            (1, 12, 12, 4, 5, 2, 0),
            (4, 9, 7, 6, 3, 2, 2),
            (2, 8, 8, 2, 1, 1, 0),
        ] {
            let layer = Layer {
                requant_shift: 7,
                ..conv_layer(TensorShape::new(in_c, h, w), out_c, k, stride, pad, true)
            };
            let mut rng = gen::rng(9);
            let input = gen::activations(layer.input, 0.4, &mut rng);
            let kernel = gen::kernel(layer.kernel_shape().unwrap(), 0.3, &mut rng);
            assert_eq!(
                conv(&layer, &input, &kernel),
                conv_scalar(&layer, &input, &kernel),
                "k{k}s{stride}p{pad}"
            );
        }
    }

    /// The per-tap oracle for any weighted spatial layer: a pointwise
    /// layer is checked as the 1×1 conv it is.
    fn scalar_layer(l: &Layer, input: &Tensor<i8>, kernel: &Kernel) -> Option<Tensor<i8>> {
        match l.kind {
            LayerKind::Conv { .. } => Some(conv_scalar(l, input, kernel)),
            LayerKind::DwConv { .. } => Some(dwconv_scalar(l, input, kernel)),
            LayerKind::Pointwise { out_c, relu } => {
                let dense = Layer {
                    kind: LayerKind::Conv {
                        out_c,
                        k: 1,
                        stride: 1,
                        pad: 0,
                        relu,
                        groups: 1,
                    },
                    ..l.clone()
                };
                Some(conv_scalar(&dense, input, kernel))
            }
            LayerKind::Pool { .. } | LayerKind::Fc { .. } => None,
        }
    }

    /// Checks every conv, depthwise and pointwise layer of `w` against
    /// its per-tap oracle, each on the golden output of the layer before.
    fn assert_network_matches_scalar(w: &Workload) {
        let outs = forward(w);
        for (i, l) in w.network.layers().iter().enumerate() {
            let input = if i == 0 { &w.input } else { &outs[i - 1] };
            let Some(kernel) = w.kernels[i].as_ref() else {
                continue;
            };
            if let Some(scalar) = scalar_layer(l, input, kernel) {
                assert_eq!(outs[i], scalar, "{}: layer {}", w.network.name, l.name);
            }
        }
    }

    #[test]
    fn tiny_network_matches_scalar_oracle() {
        assert_network_matches_scalar(&Workload::generate(
            network::tiny(),
            SparsityProfile::NOMINAL,
            33,
        ));
    }

    /// The benchmark networks' real shapes, among them AlexNet's k = 11 at
    /// stride 4 and k = 5 with pad 2. Slow in debug builds; run with
    /// `cargo test --release -p mocha-model -- --ignored`.
    #[test]
    #[ignore]
    fn zoo_layers_match_scalar_oracles() {
        for net in [network::alexnet(), network::mobilenet()] {
            assert_network_matches_scalar(&Workload::generate(net, SparsityProfile::NOMINAL, 5));
        }
    }

    #[test]
    fn mobilenet_forward_runs() {
        let w = Workload::generate(crate::network::mobilenet(), SparsityProfile::NOMINAL, 8);
        let outs = forward(&w);
        assert_eq!(outs.last().unwrap().shape(), TensorShape::new(100, 1, 1));
    }

    #[test]
    fn forward_is_deterministic() {
        let w = Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 3);
        assert_eq!(forward(&w), forward(&w));
    }
}
