//! Dense tensors in canonical CHW layout.
//!
//! The fabric operates on 8-bit fixed-point activations and weights with
//! 32-bit accumulation — the standard choice for embedded CNN accelerators of
//! the MOCHA era. [`Tensor`] is generic over the element type so the same
//! container serves `i8` feature maps, `i8` kernels and `i32` accumulators.

use crate::shape::{KernelShape, TensorShape};

/// A dense 3-D feature-map tensor in CHW layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor<T> {
    shape: TensorShape,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor<T> {
    /// Allocates a zero/default-filled tensor of the given shape.
    pub fn zeros(shape: TensorShape) -> Self {
        Self {
            shape,
            data: vec![T::default(); shape.volume()],
        }
    }

    /// Wraps an existing buffer; its length must equal `shape.volume()`.
    pub fn from_vec(shape: TensorShape, data: Vec<T>) -> Self {
        assert_eq!(data.len(), shape.volume(), "buffer/shape mismatch");
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// Immutable view of the backing buffer in CHW order.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing buffer in CHW order.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element at `(c, y, x)`.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> T {
        self.data[self.shape.index(c, y, x)]
    }

    /// Sets element at `(c, y, x)`.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: T) {
        let i = self.shape.index(c, y, x);
        self.data[i] = v;
    }

    /// One contiguous channel plane (`h × w` elements).
    pub fn channel(&self, c: usize) -> &[T] {
        let plane = self.shape.plane();
        &self.data[c * plane..(c + 1) * plane]
    }

    /// Copies a spatial window `[y0, y0+h) × [x0, x0+w)` of channel range
    /// `[c0, c0+cn)` into a new tensor. Out-of-bounds reads are not allowed;
    /// callers clip first. This is how the dataflow engine materialises the
    /// byte stream of a tile DMA transfer.
    pub fn window(
        &self,
        c0: usize,
        cn: usize,
        y0: usize,
        h: usize,
        x0: usize,
        w: usize,
    ) -> Tensor<T> {
        assert!(c0 + cn <= self.shape.c, "channel window out of bounds");
        assert!(y0 + h <= self.shape.h, "row window out of bounds");
        assert!(x0 + w <= self.shape.w, "col window out of bounds");
        let out_shape = TensorShape::new(cn, h, w);
        let mut out = Tensor::zeros(out_shape);
        for c in 0..cn {
            for y in 0..h {
                let src = self.shape.index(c0 + c, y0 + y, x0);
                let dst = out_shape.index(c, y, 0);
                out.data[dst..dst + w].copy_from_slice(&self.data[src..src + w]);
            }
        }
        out
    }
}

impl Tensor<i8> {
    /// Fraction of elements that are exactly zero — the statistic every
    /// compression decision in the system keys on.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&v| v == 0).count();
        zeros as f64 / self.data.len() as f64
    }
}

/// A dense convolution weight tensor (`out_c × in_c × k × k`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    shape: KernelShape,
    data: Vec<i8>,
}

impl Kernel {
    /// Allocates a zero-filled kernel tensor.
    pub fn zeros(shape: KernelShape) -> Self {
        Self {
            shape,
            data: vec![0; shape.volume()],
        }
    }

    /// Wraps an existing buffer; its length must equal `shape.volume()`.
    pub fn from_vec(shape: KernelShape, data: Vec<i8>) -> Self {
        assert_eq!(data.len(), shape.volume(), "buffer/shape mismatch");
        Self { shape, data }
    }

    /// The kernel's shape.
    pub fn shape(&self) -> KernelShape {
        self.shape
    }

    /// Immutable view of the weight buffer in `(oc, ic, ky, kx)` order.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Mutable view of the weight buffer.
    pub fn data_mut(&mut self) -> &mut [i8] {
        &mut self.data
    }

    /// Weight at `(oc, ic, ky, kx)`.
    #[inline]
    pub fn get(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> i8 {
        self.data[self.shape.index(oc, ic, ky, kx)]
    }

    /// The contiguous weight slice of one filter `oc` (`in_c × k × k`).
    pub fn filter(&self, oc: usize) -> &[i8] {
        let fv = self.shape.filter_volume();
        &self.data[oc * fv..(oc + 1) * fv]
    }

    /// The weight slice of filters `[oc0, oc0+n)` restricted to input
    /// channels `[ic0, ic0+cn)` — the bytes a tile DMA actually ships when
    /// both output- and input-channel tiling are active — copied into a
    /// caller-owned buffer, cleared first, so the simulator's tile loop
    /// reuses one allocation across its DMA transfers. In `(oc, ic, ky, kx)`
    /// order a filter's input-channel range is one contiguous run of
    /// `cn × k²` bytes, so the block is `n` copies, one per filter.
    pub fn filter_block_into(
        &self,
        oc0: usize,
        n: usize,
        ic0: usize,
        cn: usize,
        out: &mut Vec<i8>,
    ) {
        assert!(oc0 + n <= self.shape.out_c && ic0 + cn <= self.shape.in_c);
        let kk = self.shape.k * self.shape.k;
        out.clear();
        out.reserve(n * cn * kk);
        for oc in oc0..oc0 + n {
            out.extend_from_slice(&self.filter(oc)[ic0 * kk..(ic0 + cn) * kk]);
        }
    }

    /// Fraction of weights that are exactly zero.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&v| v == 0).count();
        zeros as f64 / self.data.len() as f64
    }
}

/// Requantizes a 32-bit accumulator to an 8-bit activation: arithmetic right
/// shift followed by saturation, optionally clamping negatives to zero (fused
/// ReLU). This is the bit-exact contract shared by the golden model and every
/// simulated dataflow — all of them must produce identical bytes.
#[inline]
pub fn requantize(acc: i32, shift: u32, relu: bool) -> i8 {
    let v = acc >> shift;
    let v = if relu { v.max(0) } else { v };
    v.clamp(i8::MIN as i32, i8::MAX as i32) as i8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get_roundtrip() {
        let mut t: Tensor<i8> = Tensor::zeros(TensorShape::new(2, 3, 4));
        assert!(t.data().iter().all(|&v| v == 0));
        t.set(1, 2, 3, -7);
        assert_eq!(t.get(1, 2, 3), -7);
        assert_eq!(t.get(0, 0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "buffer/shape mismatch")]
    fn from_vec_checks_length() {
        Tensor::<i8>::from_vec(TensorShape::new(1, 2, 2), vec![1, 2, 3]);
    }

    #[test]
    fn channel_slice_is_contiguous_plane() {
        let shape = TensorShape::new(2, 2, 2);
        let t = Tensor::from_vec(shape, vec![1i8, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(t.channel(0), &[1, 2, 3, 4]);
        assert_eq!(t.channel(1), &[5, 6, 7, 8]);
    }

    #[test]
    fn window_extracts_expected_block() {
        let shape = TensorShape::new(2, 4, 4);
        let data: Vec<i8> = (0..32).map(|v| v as i8).collect();
        let t = Tensor::from_vec(shape, data);
        let w = t.window(1, 1, 1, 2, 2, 2);
        assert_eq!(w.shape(), TensorShape::new(1, 2, 2));
        // Channel 1 starts at 16; row 1 at +4; col 2 at +2.
        assert_eq!(w.data(), &[22, 23, 26, 27]);
    }

    #[test]
    #[should_panic(expected = "row window out of bounds")]
    fn window_rejects_out_of_bounds() {
        let t: Tensor<i8> = Tensor::zeros(TensorShape::new(1, 4, 4));
        t.window(0, 1, 3, 2, 0, 1);
    }

    #[test]
    fn sparsity_counts_zeros() {
        let t = Tensor::from_vec(TensorShape::new(1, 2, 2), vec![0i8, 1, 0, 2]);
        assert_eq!(t.sparsity(), 0.5);
    }

    /// The block copy as one `k²` run per `(oc, ic)` pair: the oracle for
    /// [`Kernel::filter_block_into`].
    fn filter_block_reference(k: &Kernel, oc0: usize, n: usize, ic0: usize, cn: usize) -> Vec<i8> {
        let kk = k.shape().k * k.shape().k;
        let mut out = Vec::new();
        for oc in oc0..oc0 + n {
            for ic in ic0..ic0 + cn {
                let base = k.shape().index(oc, ic, 0, 0);
                out.extend_from_slice(&k.data()[base..base + kk]);
            }
        }
        out
    }

    #[test]
    fn kernel_filter_block_orders_oc_then_ic() {
        let shape = KernelShape::new(2, 2, 1);
        // Layout (oc, ic): (0,0)=1 (0,1)=2 (1,0)=3 (1,1)=4.
        let k = Kernel::from_vec(shape, vec![1, 2, 3, 4]);
        let mut buf = Vec::new();
        for ((oc0, n, ic0, cn), want) in [
            ((0, 2, 0, 2), &[1, 2, 3, 4][..]),
            ((1, 1, 0, 1), &[3]),
            ((0, 2, 1, 1), &[2, 4]),
        ] {
            k.filter_block_into(oc0, n, ic0, cn, &mut buf);
            assert_eq!(buf, want);
        }
        assert_eq!(k.filter(1), &[3, 4]);
    }

    #[test]
    fn filter_block_matches_per_filter_channel_copy() {
        let mut rng = crate::gen::rng(0xb10c);
        // One buffer across every call: each must clear what the last left.
        let mut buf = vec![7i8; 3];
        for k in [1usize, 3, 5, 11] {
            let (out_c, in_c) = (rng.gen_range(1..=6usize), rng.gen_range(2..=6usize));
            let kernel = crate::gen::kernel(KernelShape::new(out_c, in_c, k), 0.3, &mut rng);
            let mut ranges = vec![(0, out_c, 0, in_c), (out_c - 1, 1, in_c - 1, 1)];
            for _ in 0..20 {
                let oc0 = rng.gen_range(0..out_c);
                let ic0 = rng.gen_range(0..in_c);
                let n = rng.gen_range(0..=out_c - oc0);
                let cn = rng.gen_range(0..=in_c - ic0);
                ranges.push((oc0, n, ic0, cn));
            }
            for (oc0, n, ic0, cn) in ranges {
                kernel.filter_block_into(oc0, n, ic0, cn, &mut buf);
                assert_eq!(
                    buf,
                    filter_block_reference(&kernel, oc0, n, ic0, cn),
                    "k{k} {out_c}x{in_c} oc {oc0}+{n} ic {ic0}+{cn}"
                );
            }
            kernel.filter_block_into(0, out_c, 0, in_c, &mut buf);
            assert_eq!(buf, kernel.data(), "k{k}: the full block is the kernel");
        }
    }

    #[test]
    fn requantize_shifts_saturates_and_relus() {
        assert_eq!(requantize(256, 4, false), 16);
        assert_eq!(requantize(-256, 4, false), -16);
        assert_eq!(requantize(-256, 4, true), 0);
        assert_eq!(requantize(1 << 20, 4, false), 127);
        assert_eq!(requantize(-(1 << 20), 4, false), -128);
        // Arithmetic shift: -1 >> n stays -1, then ReLU zeroes it.
        assert_eq!(requantize(-1, 4, false), -1);
        assert_eq!(requantize(-1, 4, true), 0);
    }
}
