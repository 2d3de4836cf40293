//! The tile walks: one traversal per execution shape — a singleton weighted
//! layer (conv, depthwise, pointwise, fc), a singleton pool, and a fused
//! group — each generic over the [`StreamSource`] that sizes its streams.
//!
//! Execution ([`crate::exec`]) walks with live tensors: exact encoded sizes,
//! the functional compute and the output write. Planning ([`crate::plan`])
//! walks with sparsity estimates and touches no tensor, so the controller
//! can score thousands of candidates. Tile geometry, scratchpad allocation,
//! pipeline phases and event accounting are written once, here: with
//! `Codec::None`, where an estimated size is exact, a plan equals its
//! execution by construction.
//!
//! **Slab runs.** A weighted tile streams its reduction in slabs of
//! `tile_ic` channels, the last one possibly narrower, and within a tile a
//! slab's raw length is a function of its width. When a source's encoded
//! sizes depend only on `(raw length, codec)`
//! ([`StreamSource::SIZED_BY_LENGTH`], true for planning), [`walk_weighted`]
//! sizes each run of equal-width slabs once and multiplies its integer
//! deltas (load cycles, streamed and raw bytes, DRAM bytes and bursts, NoC
//! flit-hops, scratchpad writes). A pre-encoded load prices no codec
//! energy, so no float sum changes and the totals equal a slab-by-slab walk
//! bit for bit; execution, whose sizes are exact encodings of live bytes,
//! walks runs of one. An fc tile of one output channel over AlexNet's
//! 9,216-wide fc6 input prices one run instead of 144 slabs.
//!
//! **Tile classes.** Under a length-sized source, what a tile costs — its
//! phase, integer events, `priced_pj` additions and scratchpad requests —
//! is a function of its class: the dims of its output tile and clipped
//! input window, plus the pinned operand's encoded size (a fused group's
//! class is the dims of every member region). Each walk prices a class on
//! its first tile, and a pinned reload on its first raw length, then
//! replays them. Every tile, planned or executed, first or repeat, goes
//! through [`Walk::apply`], which replays the float additions in their
//! original order (decode, then store), so the totals stay bit-identical.
//! AlexNet fc6 at one output channel per tile walks 4,096 tiles of one class.

use crate::exec::ExecContext;
use crate::fusion::{back_regions, MAX_GROUP_DEPTH};
use crate::morph::{LoopOrder, MorphConfig};
use crate::parallel::{compute_phase, map_tile, TileWork};
use crate::streams;
use crate::tiling::{input_window, reduction_depth, reduction_slabs, tiles, Region};
use mocha_compress::Codec;
use mocha_energy::EventCounts;
use mocha_fabric::{
    pipeline_cycles, scratchpad, CapacityError, ComputePhase, FabricConfig, RegionClass,
    Scratchpad, TilePhase,
};
use mocha_model::layer::{Layer, LayerKind};

/// NoC lanes granted to loads vs stores (the default fabric has two DMA
/// queues sharing four lanes).
const LOAD_LANES: usize = 2;
const STORE_LANES: usize = 2;

/// Where a walk's stream sizes come from. Every difference between
/// executing and planning a tile is a method here; the walks never ask which
/// source they run with. Ranges are `(start, count)` pairs.
pub(crate) trait StreamSource {
    /// Whether an encoded size depends only on `(raw length, codec)`, never
    /// on the bytes, and neither [`StreamSource::skip_fraction`] nor an
    /// output tile's encoded size depends on where the tile sits. When it
    /// holds, equal-width reduction slabs of one tile cost the same, and so
    /// do tiles of one class: the walks price each slab run and each tile
    /// class once (see the module doc).
    const SIZED_BY_LENGTH: bool;

    /// The scratchpad the walk allocates against.
    fn scratchpad(&self, fabric: &FabricConfig, morph: &MorphConfig) -> Scratchpad;

    /// Encoded bytes of window `win` (`raw` elements) of `layer`'s input.
    fn window(&mut self, layer: &Layer, win: &Region, raw: usize, codec: Codec) -> usize;

    /// Encoded bytes of the block of group member `member`'s kernel over
    /// output channels `oc` and reduction channels `ic` (`raw` elements).
    fn kernel_block(
        &mut self,
        member: usize,
        oc: (usize, usize),
        ic: (usize, usize),
        raw: usize,
        codec: Codec,
    ) -> usize;

    /// Fraction of member `member`'s MACs over output channels `oc` that a
    /// bitmask-coded kernel stream skips.
    fn skip_fraction(&self, member: usize, oc: (usize, usize)) -> f64;

    /// Produces output tile `out` of a weighted layer, returning the encoded
    /// bytes of its store under `store` (0 when the tile stays on-chip).
    fn weighted_tile(&mut self, layer: &Layer, out: &Region, store: Option<Codec>) -> usize;

    /// [`StreamSource::weighted_tile`] for a pooling layer.
    fn pool_tile(&mut self, layer: &Layer, out: &Region, store: Option<Codec>) -> usize;

    /// Produces a fused group's final tile through the member `regions`,
    /// returning the encoded bytes of its store under `store`.
    fn fused_tile(&mut self, layers: &[Layer], regions: &[Region], store: Option<Codec>) -> usize;
}

/// What a walk counted, before any pricing.
#[derive(Debug, Clone)]
pub(crate) struct WalkTotals {
    /// Total cycles under the configured buffering discipline.
    pub cycles: u64,
    /// All counted hardware events.
    pub events: EventCounts,
    /// Scratchpad high-water mark in bytes.
    pub spm_peak: usize,
    /// Output tiles walked.
    pub tiles: usize,
    /// The tile phases that were scheduled.
    pub phases: Vec<TilePhase>,
}

/// A walk in progress: the scratchpad it allocates against, the phases it
/// has scheduled and the events it has counted.
struct Walk {
    spm: Scratchpad,
    phases: Vec<TilePhase>,
    events: EventCounts,
}

impl Walk {
    fn new(spm: Scratchpad, tiles: usize) -> Self {
        Self {
            spm,
            phases: Vec::with_capacity(tiles),
            events: EventCounts::default(),
        }
    }

    /// Adds one tile: its scratchpad requests, its phase, its integer
    /// events, then its float additions one by one, in their original order.
    fn apply(&mut self, tile: &TileCost) -> Result<(), CapacityError> {
        self.spm.hold(&tile.spm)?;
        self.phases.push(tile.phase);
        self.events.merge(&tile.events);
        for &pj in &tile.pj {
            self.events.priced_pj += pj;
        }
        Ok(())
    }

    /// The totals of a walk over `tiles` output tiles.
    fn finish(mut self, tiles: usize, morph: &MorphConfig) -> WalkTotals {
        let cycles = pipeline_cycles(&self.phases, morph.buffering);
        self.events.active_cycles = cycles;
        WalkTotals {
            cycles,
            events: self.events,
            spm_peak: self.spm.peak(),
            tiles,
            phases: self.phases,
        }
    }
}

/// What one tile, or one pinned load, adds to its walk.
#[derive(Debug, Default)]
struct TileCost {
    phase: TilePhase,
    /// Integer event deltas; each pricing step's `priced_pj` moves to `pj`.
    events: EventCounts,
    /// The tile's `priced_pj` additions, in walk order (decode, then store).
    pj: Vec<f64>,
    /// Scratchpad requests, held together for the tile and then freed.
    spm: Vec<(RegionClass, usize)>,
}

impl TileCost {
    /// Ends a pricing step: moves the `priced_pj` it added to the replay.
    fn take_pj(&mut self) {
        self.pj.push(std::mem::take(&mut self.events.priced_pj));
    }

    /// The priced tile, with its phase's stage times.
    fn with_phase(self, load_cycles: u64, compute_cycles: u64, store_cycles: u64) -> Self {
        let phase = TilePhase {
            load_cycles,
            compute_cycles,
            store_cycles,
        };
        Self { phase, ..self }
    }
}

/// The cost of class `key`. A length-sized source looks the class up among
/// those this walk has priced; any other source prices every occurrence.
fn class_cost<K: PartialEq, C, S: StreamSource>(
    classes: &mut Vec<(K, C)>,
    key: K,
    price: impl FnOnce() -> C,
) -> &C {
    if !S::SIZED_BY_LENGTH {
        classes.clear();
    }
    let i = classes.iter().position(|(k, _)| *k == key);
    let i = i.unwrap_or_else(|| {
        classes.push((key, price()));
        classes.len() - 1
    });
    &classes[i].1
}

/// A region's `(channels, rows, columns)`.
fn dims(r: &Region) -> (usize, usize, usize) {
    (r.cn, r.yn, r.xn)
}

/// Scratchpad accumulator traffic of a tile whose reduction ran over
/// `slabs` slabs: with one slab the accumulation lives in register files;
/// with more, 4-byte partials are spilled and re-read per slab.
fn accumulator_traffic(out_volume: usize, slabs: usize) -> (u64, u64) {
    if slabs <= 1 {
        (0, 0)
    } else {
        let vol = out_volume as u64;
        // One 4-byte write per element per slab; one read per element per
        // slab after the first, plus the final requantization read.
        (4 * vol * slabs as u64, 4 * vol * slabs as u64)
    }
}

/// Reduction channels per output channel and kernel taps of a weighted
/// layer: fc reduces over its flattened input (its depth already *is* that
/// volume, so it has one tap), depthwise over one channel.
fn kernel_dims(layer: &Layer) -> (usize, usize) {
    match layer.kind {
        LayerKind::Conv { k, .. } => (layer.input.c, k * k),
        LayerKind::DwConv { k, .. } => (1, k * k),
        LayerKind::Pointwise { .. } => (layer.input.c, 1),
        LayerKind::Fc { .. } => (reduction_depth(layer), 1),
        LayerKind::Pool { .. } => panic!("{}: pool layer on weighted path", layer.name),
    }
}

/// Raw element count of an input window, handling the fc flat case.
fn window_elems(layer: &Layer, win: &Region) -> usize {
    match layer.kind {
        LayerKind::Fc { .. } => win.cn,
        _ => win.volume(),
    }
}

/// Charges the on-the-fly decode of `(codec, raw bytes)` streams while they
/// feed the PEs: energy and codec bytes. Returns the decode cycles.
fn decode_at_feed(
    ctx: &ExecContext<'_>,
    streams: &[(Codec, usize)],
    events: &mut EventCounts,
) -> u64 {
    let (mut cycles, mut pj) = (0, 0.0);
    for &(codec, raw) in streams {
        cycles += ctx.codec_costs.decode_cycles(codec, raw);
        pj += ctx.codec_costs.energy_pj(codec, raw);
        if codec != Codec::None {
            events.codec_bytes += raw as u64;
        }
    }
    events.priced_pj += pj;
    cycles
}

/// Counts `n` loads of one pre-encoded `encoded`-byte stream, `n` times
/// one load's integer events, and returns their cycles. A pre-encoded load
/// prices no codec energy, so the float `priced_pj` sum stays untouched.
fn count_loads(fabric: &FabricConfig, encoded: usize, n: usize, events: &mut EventCounts) -> u64 {
    let transfer = streams::load_encoded(encoded, LOAD_LANES);
    let mut one = EventCounts::default();
    transfer.count_events(fabric, &mut one);
    debug_assert_eq!(one.priced_pj, 0.0, "a pre-encoded load prices no codec");
    events.merge_times(&one, n as u64);
    n as u64 * transfer.cycles(fabric)
}

/// Prices a tile's store and returns its cycles (0 when not stored).
fn price_store(
    ctx: &ExecContext<'_>,
    store: Option<Codec>,
    raw: usize,
    encoded: usize,
    events: &mut EventCounts,
) -> u64 {
    let Some(codec) = store else {
        return 0;
    };
    let transfer = streams::store_encoded(codec, raw, encoded, ctx.codec_costs, STORE_LANES);
    transfer.count_events(ctx.fabric, events);
    transfer.cycles(ctx.fabric)
}

/// The cost of a load that overlaps nothing (a pinned operand).
fn pin_load(fabric: &FabricConfig, encoded: usize) -> TileCost {
    let mut pin = TileCost::default();
    let load_cycles = count_loads(fabric, encoded, 1, &mut pin.events);
    pin.with_phase(load_cycles, 0, 0)
}

/// The pooling datapath's phase over `out_vol` outputs of a `k × k` window,
/// plus the output write pass.
fn pool_phase(ctx: &ExecContext<'_>, out_vol: usize, k: usize) -> ComputePhase {
    ComputePhase {
        active_pes: ctx.fabric.pes().min(out_vol.max(1)),
        max_macs_per_pe: 0,
        total_macs: 0,
        skipped_macs: 0,
        max_skipped_per_pe: 0,
        pool_ops: out_vol as u64 * (k * k) as u64 + out_vol as u64,
    }
}

/// Walks a singleton layer: [`walk_pool`] for pooling, [`walk_weighted`]
/// for everything else.
pub(crate) fn walk_layer<S: StreamSource>(
    ctx: &ExecContext<'_>,
    layer: &Layer,
    morph: &MorphConfig,
    store_output: bool,
    src: &mut S,
) -> Result<WalkTotals, CapacityError> {
    match layer.kind {
        LayerKind::Pool { .. } => walk_pool(ctx, layer, morph, store_output, src),
        _ => walk_weighted(ctx, layer, morph, store_output, src),
    }
}

/// Walks a conv, depthwise, pointwise or fc layer. One operand stays pinned
/// while the loop order's inner axis runs — the kernel block under
/// weight-stationary order, the input window under input-stationary order —
/// and the other streams in reduction slabs. `store_output = false`
/// suppresses the DRAM writeback (a fused successor consumes the tile
/// on-chip).
pub(crate) fn walk_weighted<S: StreamSource>(
    ctx: &ExecContext<'_>,
    layer: &Layer,
    morph: &MorphConfig,
    store_output: bool,
    src: &mut S,
) -> Result<WalkTotals, CapacityError> {
    let fabric = ctx.fabric;
    let codecs = morph.compression;
    let out_shape = layer.output();
    let depth = reduction_depth(layer);
    let (depth_c, kk) = kernel_dims(layer);
    let tiling = morph
        .tiling
        .clamp(out_shape.c, out_shape.h, out_shape.w, depth);
    let slabs = reduction_slabs(depth, tiling.tile_ic);
    let tile_list = tiles(layer, tiling, morph.loop_order);
    let buffer_sets = mocha_fabric::buffer_sets(morph.buffering);

    let mut walk = Walk::new(src.scratchpad(fabric, morph), tile_list.len());
    // Pinned-operand state: (block key, scratchpad region, encoded bytes).
    let mut pinned: Option<((usize, usize), mocha_fabric::RegionId, usize)> = None;

    let (mut classes, mut pin_classes) = (Vec::new(), Vec::new());
    for tile in &tile_list {
        let out_vol = tile.out.volume();
        let oc = (tile.out.c0, tile.out.cn);
        // The tile's whole-depth input window, part of its class. It is the
        // pinned operand under input-stationary order; under weight-stationary
        // order the pinned operand is the tile's kernel block.
        let window = input_window(layer, &tile.out, 0, depth);
        let pinned_window = match morph.loop_order {
            LoopOrder::WeightStationary => None,
            LoopOrder::InputStationary => Some(window),
        };
        let pinned_raw = match &pinned_window {
            None => tile.out.cn * depth_c * kk,
            Some(win) => window_elems(layer, win),
        };

        // ---- pinned operand (re)load on block change -------------------
        // A depthwise tile's input channels are its output channels, so its
        // pinned input window changes with the output-channel block too.
        let pin_key = match (morph.loop_order, layer.kind) {
            (LoopOrder::WeightStationary, _) => (tile.oc_block, 0),
            (LoopOrder::InputStationary, LayerKind::DwConv { .. }) => {
                (tile.spatial_block, tile.oc_block)
            }
            (LoopOrder::InputStationary, _) => (tile.spatial_block, 0),
        };
        let pinned_encoded = match &pinned {
            Some((key, _, bytes)) if *key == pin_key => *bytes,
            _ => {
                if let Some((_, region, _)) = pinned.take() {
                    walk.spm.free(region);
                }
                // Under a length-sized source a reload's cost is a function
                // of the operand's raw length: a class of its own.
                let &(class, encoded, ref pin) =
                    class_cost::<_, _, S>(&mut pin_classes, pinned_raw, || {
                        let (class, encoded) = match &pinned_window {
                            None => (
                                RegionClass::KernelBlock,
                                src.kernel_block(0, oc, (0, depth_c), pinned_raw, codecs.kernel),
                            ),
                            Some(win) => (
                                RegionClass::IfmapTile,
                                src.window(layer, win, pinned_raw, codecs.ifmap),
                            ),
                        };
                        (class, encoded, pin_load(fabric, encoded))
                    });
                let region = walk.spm.alloc(class, encoded)?;
                walk.apply(pin)?;
                pinned = Some((pin_key, region, encoded));
                encoded
            }
        };

        let key = (dims(&tile.out), (window.yn, window.xn), pinned_encoded);
        let price = || {
            let mut cost = TileCost::default();
            // ---- streamed slab loads -----------------------------------
            let mut load_cycles = 0u64;
            let mut streamed_encoded_total = 0usize;
            let mut max_slab_encoded = 0usize;
            // Raw ifmap and kernel bytes the tile reads; the pinned operand
            // contributes the *other* stream's.
            let (mut ifmap_raw_tile, mut kernel_raw_tile) = match pinned_window {
                None => (0, pinned_raw),
                Some(_) => (pinned_raw, 0),
            };
            // A length-sized source prices each run of equal-width slabs
            // once (see the module doc); any other source walks runs of one.
            let mut rest = &slabs[..];
            while let Some(&(ic0, icn)) = rest.first() {
                let run = if S::SIZED_BY_LENGTH {
                    rest.iter().take_while(|&&(_, n)| n == icn).count()
                } else {
                    1
                };
                rest = &rest[run..];
                let encoded = match morph.loop_order {
                    LoopOrder::WeightStationary => {
                        let win = input_window(layer, &tile.out, ic0, icn);
                        let raw = window_elems(layer, &win);
                        ifmap_raw_tile += run * raw;
                        src.window(layer, &win, raw, codecs.ifmap)
                    }
                    LoopOrder::InputStationary => {
                        let raw = tile.out.cn * icn * kk;
                        kernel_raw_tile += run * raw;
                        src.kernel_block(0, oc, (ic0, icn), raw, codecs.kernel)
                    }
                };
                streamed_encoded_total += run * encoded;
                max_slab_encoded = max_slab_encoded.max(encoded);
                load_cycles += count_loads(fabric, encoded, run, &mut cost.events);
            }

            // ---- scratchpad working set: slabs, accumulator, staging ---
            cost.spm = vec![
                (RegionClass::IfmapTile, max_slab_encoded * buffer_sets),
                (RegionClass::OfmapTile, 4 * out_vol),
                (RegionClass::OfmapTile, out_vol * buffer_sets),
            ];

            // ---- compute ------------------------------------------------
            let work = TileWork {
                out_channels: tile.out.cn,
                spatial: tile.out.plane(),
                macs_per_output: (depth * kk) as u64,
            };
            let skip_fraction = if codecs.kernel == Codec::Bitmask {
                src.skip_fraction(0, oc)
            } else {
                0.0
            };
            let mapping = map_tile(&work, fabric.pes(), morph.parallelism);
            let mut pe_phase = compute_phase(&work, &mapping, skip_fraction);
            pe_phase.pool_ops += out_vol as u64; // requantization pass
            pe_phase.count_events(&mut cost.events);
            let pe_cycles = pe_phase.cycles(fabric);

            // PE feed: operands stream from the scratchpad once per tile.
            let feed_bytes = streamed_encoded_total as u64 + pinned_encoded as u64;
            let (acc_w, acc_r) = accumulator_traffic(out_vol, slabs.len());
            cost.events.spm_read_bytes += feed_bytes + acc_r;
            cost.events.spm_write_bytes += acc_w + out_vol as u64; // staging write
            let feed_cycles =
                scratchpad::stream_cycles(fabric, feed_bytes + acc_r + acc_w, fabric.spm_banks);

            // On-the-fly decode while feeding the PEs.
            let decode_cycles = decode_at_feed(
                ctx,
                &[
                    (codecs.ifmap, ifmap_raw_tile),
                    (codecs.kernel, kernel_raw_tile),
                ],
                &mut cost.events,
            );
            cost.take_pj();
            let compute_cycles = pe_cycles.max(feed_cycles).max(decode_cycles);

            // ---- output and store ---------------------------------------
            let store = store_output.then_some(codecs.ofmap);
            let encoded = src.weighted_tile(layer, &tile.out, store);
            let store_cycles = price_store(ctx, store, out_vol, encoded, &mut cost.events);
            cost.take_pj();

            cost.with_phase(load_cycles, compute_cycles, store_cycles)
        };
        walk.apply(class_cost::<_, _, S>(&mut classes, key, price))?;
    }

    Ok(walk.finish(tile_list.len(), morph))
}

/// Walks a pooling layer: each tile loads its per-channel input window and
/// reduces it on the PE array's pooling path.
pub(crate) fn walk_pool<S: StreamSource>(
    ctx: &ExecContext<'_>,
    layer: &Layer,
    morph: &MorphConfig,
    store_output: bool,
    src: &mut S,
) -> Result<WalkTotals, CapacityError> {
    let LayerKind::Pool { k, .. } = layer.kind else {
        panic!("{}: not a pool layer", layer.name);
    };
    let fabric = ctx.fabric;
    let codecs = morph.compression;
    let out_shape = layer.output();
    let tiling = morph
        .tiling
        .clamp(out_shape.c, out_shape.h, out_shape.w, layer.input.c);
    let tile_list = tiles(layer, tiling, morph.loop_order);
    let buffer_sets = mocha_fabric::buffer_sets(morph.buffering);

    let mut walk = Walk::new(src.scratchpad(fabric, morph), tile_list.len());

    let mut classes = Vec::new();
    for tile in &tile_list {
        let win = input_window(layer, &tile.out, tile.out.c0, tile.out.cn);
        let price = || {
            let raw = win.volume();
            let encoded = src.window(layer, &win, raw, codecs.ifmap);
            let out_vol = tile.out.volume();
            let mut cost = TileCost {
                spm: vec![
                    (RegionClass::IfmapTile, encoded * buffer_sets),
                    (RegionClass::OfmapTile, out_vol * buffer_sets),
                ],
                ..TileCost::default()
            };

            let load = streams::load_encoded(encoded, LOAD_LANES);
            load.count_events(fabric, &mut cost.events);
            let load_cycles = load.cycles(fabric);

            let phase = pool_phase(ctx, out_vol, k);
            phase.count_events(&mut cost.events);
            let decode_cycles = decode_at_feed(ctx, &[(codecs.ifmap, raw)], &mut cost.events);
            cost.take_pj();
            cost.events.spm_read_bytes += encoded as u64;
            cost.events.spm_write_bytes += out_vol as u64;
            let feed = scratchpad::stream_cycles(fabric, encoded as u64, fabric.spm_banks);
            let compute_cycles = phase.cycles(fabric).max(feed).max(decode_cycles);

            let store = store_output.then_some(codecs.ofmap);
            let encoded_out = src.pool_tile(layer, &tile.out, store);
            let store_cycles = price_store(ctx, store, out_vol, encoded_out, &mut cost.events);
            cost.take_pj();

            cost.with_phase(load_cycles, compute_cycles, store_cycles)
        };
        let key = (dims(&tile.out), dims(&win));
        walk.apply(class_cost::<_, _, S>(&mut classes, key, price))?;
    }

    Ok(walk.finish(tile_list.len(), morph))
}

/// Walks a fused group (see [`crate::fusion`]): every member kernel is
/// pinned whole, each tile of the final layer's output back-propagates to
/// one group-input window, decoded at the port, and the members compute
/// their regions on-chip in sequence.
pub(crate) fn walk_group<S: StreamSource>(
    ctx: &ExecContext<'_>,
    layers: &[Layer],
    morph: &MorphConfig,
    store_output: bool,
    src: &mut S,
) -> Result<WalkTotals, CapacityError> {
    let fabric = ctx.fabric;
    let codecs = morph.compression;
    let last = layers.last().expect("group is never empty");
    let out_shape = last.output();
    let tiling = morph.tiling.clamp(out_shape.c, out_shape.h, out_shape.w, 1);
    let tile_list = tiles(last, tiling, morph.loop_order);
    let buffer_sets = mocha_fabric::buffer_sets(morph.buffering);

    let mut walk = Walk::new(src.scratchpad(fabric, morph), tile_list.len());

    // ---- pin every member kernel once, encoded ------------------------
    let mut kernel_regions = Vec::new();
    for (i, layer) in layers.iter().enumerate() {
        if let Some(ks) = layer.kernel_shape() {
            let encoded =
                src.kernel_block(i, (0, ks.out_c), (0, ks.in_c), ks.volume(), codecs.kernel);
            kernel_regions.push(walk.spm.alloc(RegionClass::KernelBlock, encoded)?);
            walk.apply(&pin_load(fabric, encoded))?;
        }
    }

    // Per-tile member regions, reused across tiles.
    let mut regions = Vec::with_capacity(layers.len());
    let mut classes = Vec::new();
    for tile in &tile_list {
        let input_win = back_regions(layers, tile.out, &mut regions);
        // The class: every member region's dims, then the input window's.
        let mut key = [(0, 0, 0); MAX_GROUP_DEPTH + 1];
        for (k, r) in key.iter_mut().zip(regions.iter().chain([&input_win])) {
            *k = dims(r);
        }
        let price = || {
            let mut cost = TileCost::default();
            // ---- group input window: decoded at the port, raw in SPM ---
            let raw_in = input_win.volume();
            let encoded_in = src.window(&layers[0], &input_win, raw_in, codecs.ifmap);
            cost.spm
                .push((RegionClass::IfmapTile, raw_in * buffer_sets));
            let load = streams::load_decode_at_port(
                codecs.ifmap,
                raw_in,
                encoded_in,
                ctx.codec_costs,
                LOAD_LANES,
            );
            load.count_events(fabric, &mut cost.events);
            cost.take_pj();
            let load_cycles = load.cycles(fabric);

            // ---- intermediate region buffers ----------------------------
            for region in &regions[..regions.len() - 1] {
                cost.spm.push((RegionClass::FusionBuffer, region.volume()));
            }
            // Largest weighted member needs an i32 accumulator for its region.
            let max_acc = layers
                .iter()
                .zip(&regions)
                .filter(|(l, _)| l.has_weights())
                .map(|(_, r)| 4 * r.volume())
                .max()
                .unwrap_or(0);
            let stage = tile.out.volume() * buffer_sets;
            cost.spm.extend([
                (RegionClass::OfmapTile, max_acc),
                (RegionClass::OfmapTile, stage),
            ]);

            // ---- per-layer compute (sequential cascade) ------------------
            let mut compute_cycles = 0u64;
            // Raw bytes of the region the member reads (on-chip, unencoded).
            let mut in_bytes = raw_in as u64;
            for (i, (layer, region)) in layers.iter().zip(&regions).enumerate() {
                cost.events.spm_read_bytes += in_bytes;
                cost.events.spm_write_bytes += region.volume() as u64;
                match layer.kind {
                    LayerKind::Pool { k, .. } => {
                        let phase = pool_phase(ctx, region.volume(), k);
                        phase.count_events(&mut cost.events);
                        compute_cycles += phase.cycles(fabric);
                    }
                    LayerKind::Fc { .. } => unreachable!("fc never fuses"),
                    _ => {
                        let ks = layer.kernel_shape().expect("weighted layer has a kernel");
                        let (depth_c, kk) = kernel_dims(layer);
                        let work = TileWork {
                            out_channels: region.cn,
                            spatial: region.plane(),
                            macs_per_output: (depth_c * kk) as u64,
                        };
                        // The whole kernel is pinned, so its skip rate is too.
                        let skip = if codecs.kernel == Codec::Bitmask {
                            src.skip_fraction(i, (0, ks.out_c))
                        } else {
                            0.0
                        };
                        let mapping = map_tile(&work, fabric.pes(), morph.parallelism);
                        let mut phase = compute_phase(&work, &mapping, skip);
                        phase.pool_ops += region.volume() as u64;
                        phase.count_events(&mut cost.events);
                        // Kernel decode at feed: this layer's share of pinned bytes.
                        let kraw = ks.volume() * region.cn / layer.output().c.max(1);
                        let dec = decode_at_feed(ctx, &[(codecs.kernel, kraw)], &mut cost.events);
                        cost.take_pj();
                        let feed = scratchpad::stream_cycles(fabric, in_bytes, fabric.spm_banks);
                        compute_cycles += phase.cycles(fabric).max(feed).max(dec);
                    }
                }
                in_bytes = region.volume() as u64;
            }

            // ---- output and store ---------------------------------------
            let store = store_output.then_some(codecs.ofmap);
            let encoded = src.fused_tile(layers, &regions, store);
            let store_cycles =
                price_store(ctx, store, tile.out.volume(), encoded, &mut cost.events);
            cost.take_pj();

            cost.with_phase(load_cycles, compute_cycles, store_cycles)
        };
        walk.apply(class_cost::<_, _, S>(&mut classes, key, price))?;
    }

    for r in kernel_regions {
        walk.spm.free(r);
    }
    Ok(walk.finish(tile_list.len(), morph))
}
