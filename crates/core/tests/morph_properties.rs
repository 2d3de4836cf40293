//! Property-based tests over the morph configuration space: for *arbitrary*
//! legal configurations, tiling must partition the output exactly, execution
//! must be bit-exact against the golden model, and the analytical plan must
//! equal the execution for uncompressed configs.
//!
//! Cases are drawn from a seeded RNG (the offline build has no proptest);
//! every assertion carries the seed so failures reproduce exactly.

use mocha_compress::{Codec, CodecCostTable};
use mocha_core::exec::{execute_layer, ExecContext};
use mocha_core::morph::{CompressionChoice, LoopOrder, MorphConfig, Parallelism, Tiling};
use mocha_core::plan::{plan_layer, PlanContext, SparsityEstimate};
use mocha_core::tiling::tiles;
use mocha_energy::EnergyTable;
use mocha_fabric::{Buffering, FabricConfig};
use mocha_model::gen;
use mocha_model::layer::{Layer, LayerKind};
use mocha_model::rng::ModelRng;
use mocha_model::{golden, TensorShape};

/// Arbitrary small conv layers (kept small so the executor stays fast);
/// resampled until the kernel fits the padded input.
fn conv_layer(rng: &mut ModelRng) -> Layer {
    loop {
        let in_c = rng.gen_range(1usize..8);
        let h = rng.gen_range(6usize..24);
        let w = rng.gen_range(6usize..24);
        let out_c = rng.gen_range(1usize..12);
        let k = 2 * rng.gen_range(1usize..4) - 1; // odd kernels 1/3/5
        let stride = rng.gen_range(1usize..3);
        let pad = rng.gen_range(0usize..2);
        let relu = rng.gen_bool(0.5);
        if h + 2 * pad >= k && w + 2 * pad >= k {
            return Layer {
                name: "prop".into(),
                kind: LayerKind::Conv {
                    out_c,
                    k,
                    stride,
                    pad,
                    relu,
                    groups: 1,
                },
                input: TensorShape::new(in_c, h, w),
                requant_shift: 6,
            };
        }
    }
}

/// Arbitrary tilings (clamped by the implementation).
fn tiling(rng: &mut ModelRng) -> Tiling {
    Tiling {
        tile_oc: rng.gen_range(1usize..32),
        tile_oh: rng.gen_range(1usize..32),
        tile_ow: rng.gen_range(1usize..32),
        tile_ic: rng.gen_range(1usize..32),
    }
}

fn parallelism(rng: &mut ModelRng) -> Parallelism {
    match rng.gen_range(0u32..3) {
        0 => Parallelism::InterFmap,
        1 => Parallelism::IntraFmap,
        _ => Parallelism::Hybrid {
            fmap_groups: rng.gen_range(1usize..10),
        },
    }
}

fn loop_order(rng: &mut ModelRng) -> LoopOrder {
    if rng.gen_bool(0.5) {
        LoopOrder::WeightStationary
    } else {
        LoopOrder::InputStationary
    }
}

fn codec(rng: &mut ModelRng) -> Codec {
    match rng.gen_range(0u32..3) {
        0 => Codec::None,
        1 => Codec::Zrle,
        _ => Codec::Bitmask,
    }
}

fn compression(rng: &mut ModelRng) -> CompressionChoice {
    CompressionChoice {
        ifmap: codec(rng),
        kernel: codec(rng),
        ofmap: codec(rng),
    }
}

fn buffering(rng: &mut ModelRng) -> Buffering {
    if rng.gen_bool(0.5) {
        Buffering::Single
    } else {
        Buffering::Double
    }
}

fn morph(rng: &mut ModelRng) -> MorphConfig {
    MorphConfig {
        tiling: tiling(rng),
        parallelism: parallelism(rng),
        loop_order: loop_order(rng),
        compression: compression(rng),
        buffering: buffering(rng),
    }
}

/// Runs `f` over `n` deterministic seeded cases.
fn cases(n: u64, mut f: impl FnMut(u64, &mut ModelRng)) {
    for seed in 0..n {
        let mut rng = ModelRng::seed_from_u64(seed);
        f(seed, &mut rng);
    }
}

/// Tiles partition the output space exactly for any layer × tiling × order.
#[test]
fn tiles_partition_output() {
    cases(64, |seed, rng| {
        let layer = conv_layer(rng);
        let t = tiling(rng);
        let order = loop_order(rng);
        let out = layer.output();
        let all = tiles(&layer, t, order);
        let mut covered = vec![0u8; out.volume()];
        for tile in &all {
            for c in tile.out.c0..tile.out.c0 + tile.out.cn {
                for y in tile.out.y0..tile.out.y0 + tile.out.yn {
                    for x in tile.out.x0..tile.out.x0 + tile.out.xn {
                        covered[out.index(c, y, x)] += 1;
                    }
                }
            }
        }
        assert!(
            covered.iter().all(|&n| n == 1),
            "seed {seed}: layer {layer} tiling {t}"
        );
    });
}

/// Any morph configuration that fits the scratchpad executes bit-exactly.
#[test]
fn exec_is_bit_exact_for_arbitrary_configs() {
    cases(64, |seed, rng| {
        let layer = conv_layer(rng);
        let m = morph(rng);
        let mut drng = gen::rng(seed);
        let input = gen::activations(layer.input, 0.5, &mut drng);
        let kernel = gen::kernel(layer.kernel_shape().unwrap(), 0.3, &mut drng);
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        let ctx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        if let Ok(run) = execute_layer(&ctx, &layer, &input, Some(&kernel), &m, true) {
            let expected = golden::conv(&layer, &input, &kernel);
            assert_eq!(run.output, expected, "seed {seed}: layer {layer} morph {m}");
            assert!(run.cycles > 0, "seed {seed}");
            assert!(run.spm_peak <= fabric.spm_bytes(), "seed {seed}");
        }
        // Infeasible configs are fine: the controller filters them.
    });
}

/// plan == exec exactly whenever compression is off.
#[test]
fn plan_equals_exec_uncompressed() {
    cases(64, |seed, rng| {
        let layer = conv_layer(rng);
        let m0 = morph(rng);
        let m = MorphConfig {
            compression: CompressionChoice::OFF,
            ..m0
        };
        let mut drng = gen::rng(seed);
        let input = gen::activations(layer.input, 0.5, &mut drng);
        let kernel = gen::kernel(layer.kernel_shape().unwrap(), 0.3, &mut drng);
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        let energy = EnergyTable::default();
        let ectx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        let pctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let run = execute_layer(&ectx, &layer, &input, Some(&kernel), &m, true);
        let plan = plan_layer(&pctx, &layer, &m, &SparsityEstimate::DENSE, true);
        match (run, plan) {
            (Ok(r), Ok(p)) => {
                assert_eq!(
                    p.cycles, r.cycles,
                    "seed {seed} cycles: layer {layer} morph {m}"
                );
                assert_eq!(p.dram_bytes, r.events.dram_bytes(), "seed {seed}");
                assert_eq!(p.spm_peak, r.spm_peak, "seed {seed}");
                assert_eq!(p.events.macs, r.events.macs, "seed {seed}");
            }
            (Err(_), Err(_)) => {} // both reject: consistent
            (Ok(_), Err(e)) => panic!("seed {seed}: plan rejected what exec ran: {e}"),
            (Err(e), Ok(_)) => panic!("seed {seed}: exec rejected what plan accepted: {e}"),
        }
    });
}

/// Zero-skipping and compression never change how much *work* is
/// accomplished: issued + skipped MACs equals the layer's dense count.
#[test]
fn work_is_conserved() {
    cases(64, |seed, rng| {
        let layer = conv_layer(rng);
        let m = morph(rng);
        let mut drng = gen::rng(seed);
        let input = gen::activations(layer.input, 0.5, &mut drng);
        let kernel = gen::kernel(layer.kernel_shape().unwrap(), 0.5, &mut drng);
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        let ctx = ExecContext {
            fabric: &fabric,
            codec_costs: &costs,
        };
        if let Ok(run) = execute_layer(&ctx, &layer, &input, Some(&kernel), &m, true) {
            assert_eq!(
                run.events.macs + run.events.macs_skipped,
                layer.macs(),
                "seed {seed}: layer {layer} morph {m}"
            );
        }
    });
}

/// Fused conv→pool groups are bit-exact for arbitrary tile shapes.
#[test]
fn fusion_is_bit_exact() {
    use mocha_core::fusion::execute_group;
    use mocha_model::network::NetworkBuilder;

    cases(32, |seed, rng| {
        let t = tiling(rng);
        let in_c = rng.gen_range(1usize..6);
        let out_c = rng.gen_range(1usize..8);

        let mut b = NetworkBuilder::new("fused", TensorShape::new(in_c, 12, 12));
        b.conv("c", out_c, 3, 1, 1, true, 6).max_pool("p", 2, 2);
        let net = b.build();
        let w = mocha_model::gen::Workload::generate(
            net,
            mocha_model::gen::SparsityProfile::NOMINAL,
            seed,
        );
        let golden_outs = golden::forward(&w);

        let kernels: Vec<Option<&mocha_model::Kernel>> =
            w.kernels.iter().map(Option::as_ref).collect();
        let morph = MorphConfig {
            tiling: t,
            parallelism: Parallelism::InterFmap,
            loop_order: LoopOrder::WeightStationary,
            compression: CompressionChoice::OFF,
            buffering: Buffering::Double,
        };
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        if let Ok(run) = execute_group(
            &fabric,
            &costs,
            w.network.layers(),
            &w.input,
            &kernels,
            &morph,
            true,
        ) {
            assert_eq!(run.output, golden_outs[1], "seed {seed}: tiling {t}");
        }
    });
}
