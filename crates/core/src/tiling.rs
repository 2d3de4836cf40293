//! Tile geometry: how a layer's output space is partitioned and which input
//! windows each tile needs.
//!
//! Everything downstream (the tile walks that both planning and execution
//! run, and the fusion engine) consumes this geometry, so its invariants are
//! enforced here and property-tested: **tiles partition the output space
//! exactly** — every output element belongs to exactly one tile.

use crate::morph::{LoopOrder, Tiling};
use mocha_model::layer::{Layer, LayerKind};

/// A half-open 3-D block of a tensor: channels `[c0, c0+cn)`, rows
/// `[y0, y0+yn)`, columns `[x0, x0+xn)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// First channel.
    pub c0: usize,
    /// Channel count.
    pub cn: usize,
    /// First row.
    pub y0: usize,
    /// Row count.
    pub yn: usize,
    /// First column.
    pub x0: usize,
    /// Column count.
    pub xn: usize,
}

impl Region {
    /// Elements in the region.
    pub fn volume(&self) -> usize {
        self.cn * self.yn * self.xn
    }

    /// Bytes for 8-bit elements.
    pub fn bytes(&self) -> usize {
        self.volume()
    }

    /// Spatial elements per channel.
    pub fn plane(&self) -> usize {
        self.yn * self.xn
    }

    /// True if `(c, y, x)` lies inside the region.
    pub fn contains(&self, c: usize, y: usize, x: usize) -> bool {
        (self.c0..self.c0 + self.cn).contains(&c)
            && (self.y0..self.y0 + self.yn).contains(&y)
            && (self.x0..self.x0 + self.xn).contains(&x)
    }
}

/// One output tile: an output region plus its position in the tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputTile {
    /// The output elements this tile produces.
    pub out: Region,
    /// Index along the output-channel block axis.
    pub oc_block: usize,
    /// Index along the spatial block axes (row-major over `(oh, ow)` blocks).
    pub spatial_block: usize,
}

/// The input rows/columns (clipped to the real input, i.e. excluding
/// padding) that a sliding-window operator needs to produce output rows
/// `[o0, o0+on)`. Returns `(start, count)`.
pub fn input_extent(
    o0: usize,
    on: usize,
    k: usize,
    stride: usize,
    pad: usize,
    in_dim: usize,
) -> (usize, usize) {
    debug_assert!(on > 0);
    let lo = (o0 * stride) as isize - pad as isize;
    let hi = ((o0 + on - 1) * stride + k) as isize - pad as isize; // exclusive
    let lo_c = lo.max(0) as usize;
    let hi_c = (hi.max(0) as usize).min(in_dim);
    (lo_c, hi_c.saturating_sub(lo_c))
}

/// The clipped input region an output tile of `layer` needs from input
/// channels `[ic0, ic0+icn)`.
pub fn input_window(layer: &Layer, out: &Region, ic0: usize, icn: usize) -> Region {
    match layer.kind {
        LayerKind::Conv { k, stride, pad, .. } => {
            let (y0, yn) = input_extent(out.y0, out.yn, k, stride, pad, layer.input.h);
            let (x0, xn) = input_extent(out.x0, out.xn, k, stride, pad, layer.input.w);
            Region {
                c0: ic0,
                cn: icn,
                y0,
                yn,
                x0,
                xn,
            }
        }
        // Pointwise ≡ conv with k=1, s=1, p=0: the input window is the
        // tile's own spatial footprint over the reduction channel slab.
        LayerKind::Pointwise { .. } => Region {
            c0: ic0,
            cn: icn,
            y0: out.y0,
            yn: out.yn,
            x0: out.x0,
            xn: out.xn,
        },
        LayerKind::Pool { k, stride, .. } => {
            // Pooling is per-channel: the input channels are the tile's own
            // output channels; `ic0/icn` are ignored by construction (callers
            // pass the tile's channel range).
            let (y0, yn) = input_extent(out.y0, out.yn, k, stride, 0, layer.input.h);
            let (x0, xn) = input_extent(out.x0, out.xn, k, stride, 0, layer.input.w);
            Region {
                c0: out.c0,
                cn: out.cn,
                y0,
                yn,
                x0,
                xn,
            }
        }
        LayerKind::Fc { .. } => {
            // Fc flattens: the "input window" is the whole flattened input
            // restricted to the reduction slab, expressed over flat indices.
            Region {
                c0: ic0,
                cn: icn,
                y0: 0,
                yn: 1,
                x0: 0,
                xn: 1,
            }
        }
        LayerKind::DwConv { k, stride, pad, .. } => {
            // Depthwise: per-channel like pooling, but with conv padding.
            let (y0, yn) = input_extent(out.y0, out.yn, k, stride, pad, layer.input.h);
            let (x0, xn) = input_extent(out.x0, out.xn, k, stride, pad, layer.input.w);
            Region {
                c0: out.c0,
                cn: out.cn,
                y0,
                yn,
                x0,
                xn,
            }
        }
    }
}

/// Enumerates a layer's output tiles under `tiling`, ordered per
/// `loop_order`:
///
/// * [`LoopOrder::WeightStationary`] — output-channel blocks outermost
///   (kernel block pinned, spatial tiles inner);
/// * [`LoopOrder::InputStationary`] — spatial blocks outermost (input
///   window pinned, output-channel blocks inner).
pub fn tiles(layer: &Layer, tiling: Tiling, loop_order: LoopOrder) -> Vec<OutputTile> {
    let out = layer.output();
    let t = tiling.clamp(out.c, out.h, out.w, reduction_depth(layer));
    let (ocb, ohb, owb, _) = t.counts(out.c, out.h, out.w, reduction_depth(layer));

    let mut result = Vec::with_capacity(ocb * ohb * owb);
    let mut push = |oc_i: usize, oh_i: usize, ow_i: usize| {
        let c0 = oc_i * t.tile_oc;
        let y0 = oh_i * t.tile_oh;
        let x0 = ow_i * t.tile_ow;
        result.push(OutputTile {
            out: Region {
                c0,
                cn: t.tile_oc.min(out.c - c0),
                y0,
                yn: t.tile_oh.min(out.h - y0),
                x0,
                xn: t.tile_ow.min(out.w - x0),
            },
            oc_block: oc_i,
            spatial_block: oh_i * owb + ow_i,
        });
    };

    match loop_order {
        LoopOrder::WeightStationary => {
            for oc_i in 0..ocb {
                for oh_i in 0..ohb {
                    for ow_i in 0..owb {
                        push(oc_i, oh_i, ow_i);
                    }
                }
            }
        }
        LoopOrder::InputStationary => {
            for oh_i in 0..ohb {
                for ow_i in 0..owb {
                    for oc_i in 0..ocb {
                        push(oc_i, oh_i, ow_i);
                    }
                }
            }
        }
    }
    result
}

/// The reduction depth of a layer: input channels for conv, the flattened
/// input length for fc, and the layer's own channel count for pooling (which
/// has no cross-channel reduction).
pub fn reduction_depth(layer: &Layer) -> usize {
    match layer.kind {
        LayerKind::Conv { .. } => layer.input.c,
        LayerKind::Pointwise { .. } => layer.input.c,
        LayerKind::Fc { .. } => layer.input.volume(),
        LayerKind::Pool { .. } => layer.input.c,
        // Depthwise convolution has no cross-channel reduction.
        LayerKind::DwConv { .. } => 1,
    }
}

/// Splits the reduction depth into slabs of `tile_ic`, returning
/// `(start, count)` pairs.
pub fn reduction_slabs(depth: usize, tile_ic: usize) -> Vec<(usize, usize)> {
    let tile = tile_ic.clamp(1, depth);
    (0..depth.div_ceil(tile))
        .map(|i| {
            let start = i * tile;
            (start, tile.min(depth - start))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocha_model::shape::TensorShape;

    fn conv_layer(
        in_c: usize,
        h: usize,
        w: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Layer {
        Layer {
            name: "t".into(),
            kind: LayerKind::Conv {
                out_c,
                k,
                stride,
                pad,
                relu: true,
                groups: 1,
            },
            input: TensorShape::new(in_c, h, w),
            requant_shift: 8,
        }
    }

    #[test]
    fn input_extent_interior_tile() {
        // k=3 s=1 p=1, output rows [4, 8): last row reads input [6, 9), so
        // the tile needs input rows [3, 9) = 6 rows.
        assert_eq!(input_extent(4, 4, 3, 1, 1, 32), (3, 6));
    }

    #[test]
    fn input_extent_clips_padding_at_borders() {
        // First tile: output rows [0, 4) with p=1 would start at -1 -> 0;
        // row 3 reads input [2, 5), so 5 rows remain after clipping.
        assert_eq!(input_extent(0, 4, 3, 1, 1, 32), (0, 5));
        // Last tile of a 32-row input (output rows [28, 32)).
        assert_eq!(input_extent(28, 4, 3, 1, 1, 32), (27, 5));
    }

    #[test]
    fn input_extent_strided() {
        // AlexNet conv1: k=11 s=4 p=0; output rows [0, 8) -> input [0, 39).
        assert_eq!(input_extent(0, 8, 11, 4, 0, 227), (0, 39));
        assert_eq!(input_extent(48, 7, 11, 4, 0, 227), (192, 35));
    }

    #[test]
    fn tiles_partition_output_exactly() {
        let layer = conv_layer(3, 227, 227, 96, 11, 4, 0);
        let t = Tiling {
            tile_oc: 32,
            tile_oh: 16,
            tile_ow: 16,
            tile_ic: 3,
        };
        let out = layer.output();
        let tiles = tiles(&layer, t, LoopOrder::WeightStationary);
        let mut covered = vec![false; out.volume()];
        for tile in &tiles {
            for c in tile.out.c0..tile.out.c0 + tile.out.cn {
                for y in tile.out.y0..tile.out.y0 + tile.out.yn {
                    for x in tile.out.x0..tile.out.x0 + tile.out.xn {
                        let i = out.index(c, y, x);
                        assert!(!covered[i], "element covered twice");
                        covered[i] = true;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&b| b), "element never covered");
    }

    #[test]
    fn loop_orders_visit_same_tiles_differently() {
        let layer = conv_layer(3, 32, 32, 8, 3, 1, 1);
        let t = Tiling {
            tile_oc: 4,
            tile_oh: 16,
            tile_ow: 32,
            tile_ic: 3,
        };
        let ws = tiles(&layer, t, LoopOrder::WeightStationary);
        let is = tiles(&layer, t, LoopOrder::InputStationary);
        assert_eq!(ws.len(), is.len());
        // Same tile set...
        let mut a: Vec<_> = ws.iter().map(|t| t.out).collect();
        let mut b: Vec<_> = is.iter().map(|t| t.out).collect();
        a.sort_by_key(|r| (r.c0, r.y0, r.x0));
        b.sort_by_key(|r| (r.c0, r.y0, r.x0));
        assert_eq!(a, b);
        // ...different order: WS keeps oc_block constant first, IS varies it.
        assert_eq!(ws[0].oc_block, ws[1].oc_block);
        assert_ne!(is[0].oc_block, is[1].oc_block);
    }

    #[test]
    fn edge_tiles_are_smaller() {
        let layer = conv_layer(3, 227, 227, 96, 11, 4, 0); // out 96x55x55
        let t = Tiling {
            tile_oc: 32,
            tile_oh: 16,
            tile_ow: 16,
            tile_ic: 3,
        };
        let all = tiles(&layer, t, LoopOrder::WeightStationary);
        // 3 oc blocks × 4×4 spatial blocks.
        assert_eq!(all.len(), 48);
        let last = all.last().unwrap();
        assert_eq!(last.out.yn, 55 - 48);
        assert_eq!(last.out.xn, 55 - 48);
    }

    #[test]
    fn input_window_for_conv_tile() {
        let layer = conv_layer(16, 32, 32, 8, 3, 1, 1);
        let out = Region {
            c0: 0,
            cn: 8,
            y0: 8,
            yn: 8,
            x0: 0,
            xn: 8,
        };
        let w = input_window(&layer, &out, 4, 8);
        assert_eq!(w.c0, 4);
        assert_eq!(w.cn, 8);
        assert_eq!((w.y0, w.yn), (7, 10));
        assert_eq!((w.x0, w.xn), (0, 9)); // left edge clips padding
    }

    #[test]
    fn pool_window_uses_tile_channels() {
        let layer = Layer {
            name: "p".into(),
            kind: LayerKind::Pool {
                kind: mocha_model::PoolKind::Max,
                k: 2,
                stride: 2,
            },
            input: TensorShape::new(16, 8, 8),
            requant_shift: 0,
        };
        let out = Region {
            c0: 4,
            cn: 4,
            y0: 0,
            yn: 2,
            x0: 0,
            xn: 2,
        };
        let w = input_window(&layer, &out, 999, 999);
        assert_eq!((w.c0, w.cn), (4, 4));
        assert_eq!((w.y0, w.yn), (0, 4));
    }

    #[test]
    fn reduction_slabs_cover_depth() {
        assert_eq!(reduction_slabs(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(reduction_slabs(4, 8), vec![(0, 4)]);
        assert_eq!(reduction_slabs(1, 1), vec![(0, 1)]);
    }

    #[test]
    fn reduction_depth_by_kind() {
        let conv = conv_layer(16, 8, 8, 4, 3, 1, 1);
        assert_eq!(reduction_depth(&conv), 16);
        let fc = Layer {
            name: "fc".into(),
            kind: LayerKind::Fc {
                out: 10,
                relu: false,
            },
            input: TensorShape::new(16, 8, 8),
            requant_shift: 8,
        };
        assert_eq!(reduction_depth(&fc), 16 * 64);
    }

    #[test]
    fn region_contains() {
        let r = Region {
            c0: 1,
            cn: 2,
            y0: 3,
            yn: 2,
            x0: 0,
            xn: 4,
        };
        assert!(r.contains(1, 3, 0));
        assert!(r.contains(2, 4, 3));
        assert!(!r.contains(3, 3, 0));
        assert!(!r.contains(1, 5, 0));
        assert_eq!(r.volume(), 2 * 2 * 4);
    }
}
